//! The command line of `rlclint` and `rlclintd`: one option table, one
//! parser, one serve path. Both binaries are [`run`] with a different
//! default mode, so `rlclintd ARGS` is `rlclint --daemon ARGS`.
//!
//! ```text
//! rlclint  [flags] [options] file.c [more.c ...]    (default: a plain check)
//! rlclintd [flags] [options] file.c [more.c ...]    (default: --daemon)
//!
//! Flags use LCLint's +name / -name convention:
//!   +allimponly     enable implicit only on returns/globals/fields
//!   -mustfree       disable a message class (see --help for all classes)
//!   +gcmode         garbage-collected program: no leak checking
//!   -supcomments    ignore /*@i@*/ and /*@ignore@*/ comments
//!   -stdlib         do not load the annotated standard library
//!
//! Modes (at most one; it replaces the binary's default):
//!   --daemon        serve line-delimited JSON requests (check / didChange /
//!                   stats / shutdown) over stdio, or --socket PATH / --tcp
//!                   ADDR, keeping the parsed program and check cache warm
//!   --watch         poll the input files and re-check on change through a
//!                   warm session (--watch-poll-ms N, default 50)
//!   --infer         infer missing null/only/out annotations and print a
//!                   diff-style report (machine-readable with --json)
//!   --infer-apply FILE  rewrite FILE (one of the checked .c inputs) with
//!                   the inferred annotations attached
//!   --emit-lib      print the interface library of the inputs
//!   --differential N  run the interpreter-as-oracle differential harness
//!                   over N generated programs (TP/FP/FN per bug class;
//!                   --seed S, default 1; --json for machine output)
//!   --suite DIR     run an SV-COMP-style benchmark suite: shard tasks
//!                   across worker processes (--shards N, default 1),
//!                   score verdicts against the sidecars, and print the
//!                   per-category score table plus a verdict listing.
//!                   --budget SECS bounds the run and --task-budget-ms MS
//!                   each task; a task past either scores `unknown`
//!   --suite-gen DIR generate a benchmark suite into DIR from the corpus
//!                   generator/mutator (--suite-tasks N, default 500;
//!                   --seed S derives the programs)
//!   --worker        serve the fleet worker protocol over stdio (spawned
//!                   by --suite with every option a worker reads)
//!   --cas-serve ADDR  serve the content-addressed store under --cas DIR
//!                   over TCP to a fleet (get / put / stat / shutdown)
//!
//! Options (each read only by the modes listed in --help; any other mode
//! rejects it):
//!   --json          machine-readable output
//!   --jobs N        worker threads for both the front end (one file per
//!                   worker) and the checker (one function per worker);
//!                   0 = all cores, the default
//!   --lib FILE      load an interface library
//!   --max-steps N   per-function analysis budget in work steps; a function
//!                   that exceeds it is assumed safe and reported with a
//!                   `budget` diagnostic (default: unlimited)
//!   --incremental DIR  persist a per-function result cache under DIR, so
//!                   a rerun or a restarted daemon starts warm
//!   --stats         print cache/checking counters and phase times to stderr
//!   --run ENTRY     interpret ENTRY() after checking (runtime baseline)
//!   --cas DIR       share a content-addressed result store under DIR
//!   --cas-max-mb N  bound the store, evicting oldest artifacts
//!   --cas-remote ADDR  layer a remote result cache (an `rlclintd
//!                   --cas-serve` daemon at ADDR) above --cas DIR:
//!                   read-through on miss, write-through on publish. A
//!                   dead, slow, or corrupt remote degrades to
//!                   local-only behaviour — it can cost bounded latency
//!                   but never changes a verdict or a diagnostic
//!   --cas-chaos SPEC   inject deterministic faults into the remote
//!                   transport (testing; also via RLCLINT_CHAOS):
//!                   refuse | flaky:N | disconnect:N | truncate:N |
//!                   corrupt:N | delay:N | die-after:N
//!
//! A server on --socket, --tcp or --cas-serve prints one `<prog>: listening
//! <endpoint>` line on stderr once it accepts connections, and exits after
//! a `shutdown` request; on stdio it also exits at end of input.
//!
//! Exit codes: 0 clean, 1 diagnostics reported, 2 usage or I/O error,
//! 3 completed but one or more functions hit an internal checker error.
//! --watch and the servers handle many checks, so per-check status cannot
//! be an exit code: they exit 0 on a clean shutdown (stdin EOF or a
//! `shutdown` request) and 2 on usage or I/O errors. --suite exits 0
//! when no verdict was incorrect, 1 otherwise.
//! ```

use lclint_analysis::remote::ChaosPlan;
use lclint_core::{CasStore, DiagKind, Flags, Linter, Session, StoreConfig};
use lclint_server::cas::CasService;
use lclint_server::{serve_connection, serve_tcp, serve_unix, Handler};
use std::io::BufReader;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use Arg::*;
use Mode::*;
use Reads::*;

mod modes;
mod watch;

/// What one invocation does. Each binary has a default mode; a mode
/// option replaces it, and two different mode options are a usage error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Check the files once (`rlclint`'s default).
    Check,
    /// Serve the analysis protocol over a warm session (`rlclintd`'s default).
    Daemon,
    /// Re-check the files as they change on disk.
    Watch,
    /// Infer annotations (`--infer`, `--infer-apply`).
    Infer,
    /// Print the inputs' interface library.
    EmitLib,
    /// Score the checker against the interpreter on generated programs.
    Differential,
    /// Run a benchmark suite across worker processes.
    Suite,
    /// Generate a benchmark suite.
    SuiteGen,
    /// Serve the fleet worker protocol over stdio.
    Worker,
    /// Serve a content-addressed store over TCP.
    CasServe,
}

/// The modes that read file operands.
const FILE_MODES: &[Mode] = &[Check, Daemon, Watch, Infer, EmitLib];

impl Mode {
    /// How messages name the mode: the option that selects it.
    fn label(self) -> &'static str {
        let selects = |o: &&Opt| matches!(o.reads, Selects(m) if m == self);
        OPTIONS.iter().find(selects).map_or("a plain check", |o| o.name)
    }
}

/// What follows an option on the command line.
#[derive(Clone, Copy)]
enum Arg {
    /// Nothing: the option is a switch.
    Switch,
    /// A path, address or name, shown in the usage text as the given
    /// metavariable.
    Text(&'static str),
    /// A number, zero allowed.
    Count(&'static str),
    /// A number above zero.
    Positive(&'static str),
    /// A remote fault spec, as `--cas-chaos` takes it.
    Fault,
}

impl Arg {
    /// Checks `value`, the word after option `name`.
    fn check(self, name: &str, value: &str) -> Result<(), String> {
        let expected = match self {
            Count(_) if value.parse::<u64>().is_err() => "a number",
            Positive(_) if !value.parse::<u64>().is_ok_and(|n| n > 0) => "a positive number",
            Fault if ChaosPlan::parse(value).is_none() => {
                "a fault spec (refuse | flaky:N | disconnect:N | truncate:N | corrupt:N | \
                 delay:N | die-after:N)"
            }
            _ => return Ok(()),
        };
        Err(format!("{name} expects {expected}, got `{value}`"))
    }

    fn metavar(self) -> &'static str {
        match self {
            Switch => "",
            Text(m) | Count(m) | Positive(m) => m,
            Fault => "SPEC",
        }
    }
}

/// The modes that read an option.
#[derive(Clone, Copy)]
enum Reads {
    /// A mode option: it selects this mode, the only one that reads it.
    Selects(Mode),
    /// Read by each of these modes.
    In(&'static [Mode]),
}

/// One row of the option table.
struct Opt {
    name: &'static str,
    arg: Arg,
    reads: Reads,
    help: &'static str,
}

impl Opt {
    fn read_by(&self, mode: Mode) -> bool {
        match self.reads {
            Selects(m) => m == mode,
            In(modes) => modes.contains(&mode),
        }
    }

    /// The modes that read this option, as messages name them.
    fn readers(&self) -> String {
        match self.reads {
            Selects(m) => m.label().to_owned(),
            In(modes) => modes.iter().map(|m| m.label()).collect::<Vec<_>>().join(", "),
        }
    }
}

const fn opt(name: &'static str, arg: Arg, reads: Reads, help: &'static str) -> Opt {
    Opt { name, arg, reads, help }
}

/// Every option of both binaries. The `+name`/`-name` words are not here:
/// they go to [`Flags::apply`], and every mode accepts them.
const OPTIONS: &[Opt] = &[
    opt("--daemon", Switch, Selects(Daemon), "serve the analysis protocol"),
    opt("--socket", Text("PATH"), In(&[Daemon]), "serve on a Unix-domain socket"),
    opt("--tcp", Text("ADDR"), In(&[Daemon]), "serve on a TCP address"),
    opt("--watch", Switch, Selects(Watch), "re-check the files as they change"),
    opt("--watch-poll-ms", Positive("N"), In(&[Watch]), "poll interval (default 50)"),
    opt("--infer", Switch, Selects(Infer), "infer missing annotations"),
    opt("--infer-apply", Text("FILE"), Selects(Infer), "rewrite FILE with them"),
    opt("--emit-lib", Switch, Selects(EmitLib), "print the interface library"),
    opt("--differential", Positive("N"), Selects(Differential), "score N generated programs"),
    opt("--seed", Count("S"), In(&[Differential, SuiteGen]), "master seed (default 1)"),
    opt("--suite", Text("DIR"), Selects(Suite), "run a benchmark suite"),
    opt("--shards", Positive("N"), In(&[Suite]), "worker processes (default 1)"),
    opt("--budget", Positive("SECS"), In(&[Suite]), "global wall-clock budget"),
    opt("--task-budget-ms", Positive("MS"), In(&[Suite]), "per-task wall-clock budget"),
    opt("--suite-gen", Text("DIR"), Selects(SuiteGen), "generate a benchmark suite"),
    opt("--suite-tasks", Positive("N"), In(&[SuiteGen]), "suite size (default 500)"),
    opt("--worker", Switch, Selects(Worker), "serve the fleet worker protocol"),
    opt("--cas-serve", Text("ADDR"), Selects(CasServe), "serve the --cas store over TCP"),
    opt("--json", Switch, In(&[Check, Infer, Differential]), "machine-readable output"),
    opt(
        "--jobs",
        Count("N"),
        In(&[Check, Daemon, Watch, Infer, Differential, Suite, Worker]),
        "worker threads; 0 = all cores",
    ),
    opt("--lib", Text("FILE"), In(&[Check, Daemon, Watch, Infer]), "load an interface library"),
    opt(
        "--max-steps",
        Positive("N"),
        In(&[Check, Daemon, Watch, Infer, Suite, Worker]),
        "per-function work budget",
    ),
    opt("--incremental", Text("DIR"), In(&[Check, Daemon, Watch]), "persist the result cache"),
    opt("--stats", Switch, In(&[Check]), "print counters and phase times"),
    opt("--run", Text("ENTRY"), In(&[Check]), "interpret ENTRY() after checking"),
    opt("--cas", Text("DIR"), In(&[Suite, Worker, CasServe]), "content-addressed result store"),
    opt("--cas-max-mb", Positive("N"), In(&[Suite, Worker, CasServe]), "bound the store"),
    opt("--cas-remote", Text("ADDR"), In(&[Suite, Worker]), "remote store above --cas"),
    opt("--cas-chaos", Fault, In(&[Suite, Worker]), "inject remote faults (testing)"),
];

/// Prints the usage text, built from [`OPTIONS`], and exits 2.
fn usage(prog: &str, default: Mode) -> ! {
    let classes: Vec<&str> = DiagKind::all().iter().map(|k| k.flag_name()).collect();
    eprintln!(
        "usage: {prog} [flags] [options] file.c [...]    (default mode: {})\n\
         \n\
         LCLint-style flags: +name enables, -name disables.\n\
         classes: {}\n\
         more flags: allimponly imponlyreturns imponlyglobals imponlyfields gcmode\n\
         \u{20}           supcomments stdlib memchecks all\n\
         options (at most one mode option), each with the modes that read it:",
        default.label(),
        classes.join(" ")
    );
    for o in OPTIONS {
        let head = format!("{} {}", o.name, o.arg.metavar());
        eprintln!("  {head:<22} {} [{}]", o.help, o.readers());
    }
    eprintln!(
        "exit codes: 0 clean, 1 warnings, 2 usage/IO error, 3 internal checker error\n\
         \u{20}           (--watch and servers: 0 clean shutdown, 2 usage/IO error)\n\
         \u{20}           (--suite: 0 no incorrect verdicts, 1 otherwise)"
    );
    std::process::exit(2)
}

/// A command line, parsed and checked against [`OPTIONS`].
struct Parsed {
    prog: &'static str,
    mode: Mode,
    flags: Flags,
    /// The table options given, in order, each with its argument ("" for
    /// a switch).
    given: Vec<(&'static Opt, String)>,
    /// The `+name`/`-name` words, in order.
    words: Vec<String>,
    /// The file operands.
    inputs: Vec<String>,
}

impl Parsed {
    fn has(&self, name: &'static str) -> bool {
        self.value(name).is_some()
    }

    /// The argument of the last `name` given.
    fn value(&self, name: &'static str) -> Option<&str> {
        self.values(name).last()
    }

    /// The arguments of every `name` given, in order.
    fn values(&self, name: &'static str) -> impl Iterator<Item = &str> {
        debug_assert!(OPTIONS.iter().any(|o| o.name == name), "{name} is not in the table");
        self.given.iter().filter(move |(o, _)| o.name == name).map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &'static str) -> Option<u64> {
        self.value(name).map(|v| v.parse().expect("the parser checked every number"))
    }

    /// The command line of a `--suite` worker: `--worker`, the `+`/`-`
    /// words, and every option a worker reads, in their original spelling.
    fn worker_args(&self) -> Vec<String> {
        let mut args = vec!["--worker".to_owned()];
        args.extend(self.words.iter().cloned());
        for (o, value) in self.given.iter().filter(|(o, _)| o.read_by(Worker)) {
            args.push(o.name.to_owned());
            if !matches!(o.arg, Switch) {
                args.push(value.clone());
            }
        }
        args
    }
}

/// Parses `args` against [`OPTIONS`]. An option the selected mode does not
/// read is an error, and so are file operands in a mode that reads none.
fn parse(prog: &'static str, default: Mode, args: Vec<String>) -> Result<Parsed, String> {
    let mut p = Parsed {
        prog,
        mode: default,
        flags: Flags::default(),
        given: Vec::new(),
        words: Vec::new(),
        inputs: Vec::new(),
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "--help" || a == "-h" {
            usage(prog, default);
        } else if let Some(o) = OPTIONS.iter().find(|o| o.name == a) {
            let value = match o.arg {
                Switch => String::new(),
                arg => {
                    let Some(value) = args.next() else { usage(prog, default) };
                    arg.check(o.name, &value)?;
                    value
                }
            };
            if let Selects(mode) = o.reads {
                let clash =
                    p.given.iter().find(|(g, _)| matches!(g.reads, Selects(m) if m != mode));
                if let Some((first, _)) = clash {
                    return Err(format!("{} cannot be combined with {}", first.name, o.name));
                }
                p.mode = mode;
            }
            p.given.push((o, value));
        } else if a.starts_with("--") {
            return Err(format!("unknown option `{a}`"));
        } else if a.starts_with(['+', '-']) {
            p.flags.apply(&a).map_err(|e| e.to_string())?;
            p.words.push(a);
        } else {
            p.inputs.push(a);
        }
    }
    if let Some((o, _)) = p.given.iter().find(|(o, _)| !o.read_by(p.mode)) {
        let (name, mode, readers) = (o.name, p.mode.label(), o.readers());
        return Err(format!("{name} does not apply to {mode} (only to {readers})"));
    }
    if !p.inputs.is_empty() && !FILE_MODES.contains(&p.mode) {
        return Err(format!("{} reads no files; drop the file inputs", p.mode.label()));
    }
    let needs = [
        ("--cas-serve", "--cas"),
        ("--cas-max-mb", "--cas"),
        ("--cas-remote", "--cas"),
        ("--cas-chaos", "--cas-remote"),
    ];
    if let Some((o, needed)) = needs.into_iter().find(|&(o, n)| p.has(o) && !p.has(n)) {
        return Err(format!("{o} requires {needed}"));
    }
    if p.has("--socket") && p.has("--tcp") {
        return Err("--socket and --tcp are mutually exclusive".to_owned());
    }
    if p.has("--infer-apply") && p.has("--json") {
        return Err(
            "--infer-apply rewrites source files; it cannot be combined with --json".to_owned()
        );
    }
    Ok(p)
}

/// Runs one invocation of `prog`, whose mode is `default` unless an option
/// selects another, and returns its exit code. `args` excludes the program
/// name.
pub fn run(prog: &'static str, default: Mode, args: Vec<String>) -> ExitCode {
    if args.is_empty() {
        usage(prog, default);
    }
    match parse(prog, default, args).and_then(dispatch) {
        Ok(code) => code,
        Err(message) => fail(prog, &message),
    }
}

/// The one reporter of usage and I/O failures.
fn fail(prog: &str, message: &str) -> ExitCode {
    eprintln!("{prog}: {message}");
    ExitCode::from(2)
}

fn dispatch(mut p: Parsed) -> Result<ExitCode, String> {
    // Test hooks, read once for every mode: environment variables rather
    // than options, so they stay out of the user interface.
    let env = |name: &str| std::env::var(name).ok().filter(|v| !v.is_empty());
    p.flags.analysis.debug_panic_fn = env("RLCLINT_DEBUG_PANIC_FN");
    let chaos = p.value("--cas-chaos").map(str::to_owned);
    let chaos = chaos.or_else(|| env("RLCLINT_CHAOS").filter(|_| p.has("--cas-remote")));
    let watch_cycles = env("RLCLINT_WATCH_CYCLES").and_then(|v| v.parse().ok());
    if let Some(jobs) = p.number("--jobs") {
        p.flags.analysis.jobs = jobs as usize;
    }
    if let Some(steps) = p.number("--max-steps") {
        p.flags.analysis.max_steps = Some(steps);
    }
    let store = StoreConfig {
        dir: p.value("--cas").map(PathBuf::from),
        max_bytes: p.number("--cas-max-mb").map(|mb| mb.saturating_mul(1 << 20)),
        remote: p.value("--cas-remote").map(str::to_owned),
        chaos,
    };
    match p.mode {
        Differential => return Ok(modes::differential(&p)),
        SuiteGen => return modes::suite_gen(&p),
        Suite => return modes::suite(&p),
        Worker => {
            let runner = lclint_fleet::TaskRunner::new(p.flags, &store)
                .map_err(|e| format!("cannot open cas store: {e}"))?;
            return serve(p.prog, lclint_fleet::Worker::new(runner), Endpoint::Stdio);
        }
        CasServe => {
            let dir = p.value("--cas").expect("the parser checked --cas-serve has --cas");
            let store = CasStore::open(dir, store.max_bytes)
                .map_err(|e| format!("cannot open cas dir {dir}: {e}"))?;
            let addr = p.value("--cas-serve").expect("the option selected this mode");
            return serve(p.prog, CasService::new(store), Endpoint::Tcp(addr));
        }
        Check | Daemon | Watch | Infer | EmitLib => {}
    }

    let mut files = Vec::new();
    let mut roots = Vec::new();
    for path in &p.inputs {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        if path.ends_with(".c") {
            roots.push(path.clone());
        }
        files.push((path.clone(), text));
    }
    if roots.is_empty() {
        return Err("no .c files given".to_owned());
    }
    if let Some(target) = p.value("--infer-apply").filter(|t| !roots.iter().any(|r| r == t)) {
        return Err(format!("--infer-apply target `{target}` is not among the checked .c files"));
    }
    if p.mode == EmitLib {
        return modes::emit_lib(&files);
    }
    let mut linter = Linter::new(p.flags.clone());
    for path in p.values("--lib") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read library {path}: {e}"))?;
        linter.add_library(path, text);
    }
    match p.mode {
        Daemon | Watch => {
            let session = match p.value("--incremental") {
                Some(dir) => Session::at_dir(linter, files, roots, dir)
                    .map_err(|e| format!("cannot use incremental dir {dir}: {e}"))?,
                None => Session::new(linter, files, roots),
            };
            if p.mode == Watch {
                let poll_ms = p.number("--watch-poll-ms").unwrap_or(50);
                return watch::run_watch(p.prog, session, poll_ms, watch_cycles);
            }
            let endpoint = match (p.value("--socket"), p.value("--tcp")) {
                (Some(path), _) => Endpoint::Unix(path),
                (None, Some(addr)) => Endpoint::Tcp(addr),
                (None, None) => Endpoint::Stdio,
            };
            serve(p.prog, lclint_server::Daemon::new(session), endpoint)
        }
        Infer => modes::infer(&p, &linter, &files, &roots),
        _ => modes::check(&p, &linter, &files, &roots),
    }
}

/// Where a protocol server listens.
enum Endpoint<'a> {
    Stdio,
    Unix(&'a str),
    Tcp(&'a str),
}

/// Serves `handler` on `endpoint` until a `shutdown` request (or, on
/// stdio, end of input). A socket server first announces itself with one
/// `<prog>: listening <endpoint>` line on stderr.
fn serve(
    prog: &str,
    handler: impl Handler + 'static,
    endpoint: Endpoint,
) -> Result<ExitCode, String> {
    let handler = Arc::new(handler);
    let served = match endpoint {
        Endpoint::Stdio => {
            let stdout = std::io::stdout();
            serve_connection(&handler, BufReader::new(std::io::stdin().lock()), stdout.lock())
        }
        Endpoint::Unix(path) => {
            eprintln!("{prog}: listening {path}");
            serve_unix(&handler, Path::new(path))
        }
        Endpoint::Tcp(addr) => {
            let listener =
                TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
            let local = listener.local_addr().map_or_else(|_| addr.to_owned(), |a| a.to_string());
            eprintln!("{prog}: listening {local}");
            serve_tcp(&handler, listener)
        }
    };
    served.map(|()| ExitCode::SUCCESS).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_names_each_option_once() {
        for (i, o) in OPTIONS.iter().enumerate() {
            assert!(OPTIONS[i + 1..].iter().all(|later| later.name != o.name), "{}", o.name);
        }
    }

    #[test]
    fn suite_forwards_what_a_worker_reads_in_its_original_spelling() {
        let line = "--suite d --cas c +gcmode --jobs 2 --shards 3 --cas-max-mb 08 -mustfree";
        let p = parse("rlclint", Check, line.split(' ').map(str::to_owned).collect()).unwrap();
        let forwarded = "--worker +gcmode -mustfree --cas c --jobs 2 --cas-max-mb 08";
        assert_eq!(p.worker_args().join(" "), forwarded);
    }

    #[test]
    fn suite_reads_every_option_it_forwards_to_workers() {
        for o in OPTIONS.iter().filter(|o| matches!(o.reads, In(_)) && o.read_by(Worker)) {
            assert!(o.read_by(Suite), "{} reaches a worker only through --suite", o.name);
        }
    }
}
