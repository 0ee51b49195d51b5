//! `rlclint` — the command-line checker.
//!
//! ```text
//! rlclint [flags] file.c [more.c ...]
//!
//! Flags use LCLint's +name / -name convention:
//!   +allimponly     enable implicit only on returns/globals/fields
//!   -mustfree       disable a message class (see --help for all classes)
//!   +gcmode         garbage-collected program: no leak checking
//!   -supcomments    ignore /*@i@*/ and /*@ignore@*/ comments
//!   -stdlib         do not load the annotated standard library
//! Other options:
//!   --json          machine-readable output
//!   --jobs N        worker threads for both the front end (preprocess and
//!                   parse, one file per worker) and the checker (one
//!                   function per worker); 0 = all cores, the default
//!   --lib FILE      load an interface library
//!   --emit-lib      print the interface library of the inputs and exit
//!   --run ENTRY     interpret ENTRY() after checking (runtime baseline)
//!   --incremental DIR  persist a per-function result cache under DIR
//!   --stats         print cache/checking counters and phase times to stderr
//!   --infer         infer missing null/only/out annotations and print a
//!                   diff-style report (machine-readable with --json)
//!   --infer-apply FILE  rewrite FILE (one of the checked .c inputs) with
//!                   the inferred annotations attached
//!   --differential N  run the interpreter-as-oracle differential harness
//!                   over N generated programs instead of checking files
//!                   (TP/FP/FN per bug class; --json for machine output)
//!   --seed S        master seed for --differential (default 1)
//!   --max-steps N   per-function analysis budget in work steps; a function
//!                   that exceeds it is assumed safe and reported with a
//!                   `budget` diagnostic (default: unlimited)
//!   --watch         keep running: poll the input files and re-check on
//!                   change through a warm session (--watch-poll-ms N
//!                   sets the poll interval, default 50)
//!   --daemon        serve the rlclintd JSON protocol over stdio (or
//!                   --socket PATH / --tcp ADDR) with a warm session;
//!                   identical to running the rlclintd binary
//!   --suite DIR     run an SV-COMP-style benchmark suite (see
//!                   lclint-fleet): shard tasks across worker processes,
//!                   score verdicts against the sidecars, and print the
//!                   per-category score table plus a verdict listing
//!   --shards N      worker process count for --suite (default 1)
//!   --budget SECS   global wall-clock budget for --suite; remaining
//!                   tasks score `unknown` once it elapses
//!   --task-budget-ms MS  per-task wall-clock budget for --suite; a task
//!                   that exceeds it scores `unknown` and its worker is
//!                   killed and respawned
//!   --suite-gen DIR generate a benchmark suite into DIR from the corpus
//!                   generator/mutator (--suite-tasks N sets the size,
//!                   default 500; --seed S derives the programs)
//!   --worker        serve the fleet worker protocol over stdio (spawned
//!                   by --suite; one task per request)
//!   --cas DIR       share a content-addressed result store under DIR
//!                   (with --suite/--worker: function- and task-level
//!                   artifacts warm across workers and reruns)
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
//! Exit codes: 0 clean, 1 diagnostics reported, 2 usage or I/O error,
//! 3 completed but one or more functions hit an internal checker error.
//! --watch and --daemon serve many checks, so per-check status cannot be
//! an exit code: both exit 0 on a clean shutdown (stdin EOF or a
//! `shutdown` request) and 2 on usage or I/O errors. --suite exits 0
//! when no verdict was incorrect, 1 otherwise.
//! ```

use lclint_core::{library, Flags, IncrementalSession, Linter, Session};
use lclint_syntax::json;
use std::process::ExitCode;

mod watch;

fn usage() -> ! {
    eprintln!(
        "usage: rlclint [flags] file.c [...]\n\
         \n\
         LCLint-style flags: +name enables, -name disables.\n\
         classes: {}\n\
         modes: allimponly imponlyreturns imponlyglobals imponlyfields gcmode\n\
         \u{20}       supcomments stdlib memchecks all\n\
         options: --json --jobs N --lib FILE --emit-lib --run ENTRY\n\
         \u{20}        --incremental DIR --stats --infer --infer-apply FILE\n\
         \u{20}        --differential N --seed S --max-steps N\n\
         \u{20}        --watch [--watch-poll-ms N] --daemon [--socket PATH | --tcp ADDR]\n\
         \u{20}        --suite DIR [--shards N] [--budget SECS] [--task-budget-ms MS]\n\
         \u{20}        --suite-gen DIR [--suite-tasks N] --worker\n\
         \u{20}        --cas DIR [--cas-max-mb N] [--cas-remote ADDR [--cas-chaos SPEC]]\n\
         --jobs N: worker threads for both the front end (one file per worker)\n\
         \u{20}        and the checker (one function per worker); 0 = all cores\n\
         exit codes: 0 clean, 1 warnings, 2 usage/IO error, 3 internal checker error\n\
         \u{20}           (--watch/--daemon: 0 clean shutdown, 2 usage/IO error)\n\
         \u{20}           (--suite: 0 no incorrect verdicts, 1 otherwise)",
        lclint_core::DiagKind::all().iter().map(|k| k.flag_name()).collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2)
}

/// Renders the `--infer --json` report.
fn render_infer_json(out: &lclint_core::InferOutcome) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"sccs\": {},\n", out.sccs));
    s.push_str(&format!("  \"sweeps\": {},\n", out.rounds));
    s.push_str("  \"annotations\": [");
    for (i, p) in out.placed.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let loc = p.loc.as_deref().map_or("null".to_owned(), json::quote);
        s.push_str(&format!(
            "\n    {{\"target\": {}, \"annot\": {}, \"loc\": {loc}}}",
            json::quote(&p.target),
            json::quote(&p.annot),
        ));
    }
    if !out.placed.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}");
    s
}

/// Renders the `--json` report: an array of the daemon's diagnostic
/// objects, each with its `cwe` appended.
fn diagnostics_json(diags: &[lclint_core::RenderedDiagnostic]) -> String {
    json::array(diags.iter().map(|d| {
        let w = d.json();
        match d.cwe {
            Some(id) => w.num("cwe", id as usize),
            None => w.raw("cwe", "null"),
        }
        .done()
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut flags = Flags::default();
    // Test hook: inject a panic into the named function's checker so the
    // isolation path can be exercised end-to-end. Deliberately an environment
    // variable rather than a flag: it is not part of the user interface.
    if let Ok(name) = std::env::var("RLCLINT_DEBUG_PANIC_FN") {
        if !name.is_empty() {
            flags.analysis.debug_panic_fn = Some(name);
        }
    }
    let mut files: Vec<(String, String)> = Vec::new();
    let mut roots: Vec<String> = Vec::new();
    let mut json = false;
    let mut emit_lib = false;
    let mut run_entry: Option<String> = None;
    let mut libs: Vec<(String, String)> = Vec::new();
    let mut incremental_dir: Option<String> = None;
    let mut stats = false;
    let mut infer = false;
    let mut infer_apply: Option<String> = None;
    let mut differential: Option<usize> = None;
    let mut seed: u64 = 1;
    let mut watch_mode = false;
    let mut watch_poll_ms: u64 = 50;
    let mut daemon = false;
    let mut socket: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut worker = false;
    let mut suite: Option<String> = None;
    let mut suite_gen: Option<String> = None;
    let mut suite_tasks: usize = 500;
    let mut shards: Option<usize> = None;
    let mut budget_secs: Option<u64> = None;
    let mut task_budget_ms: Option<u64> = None;
    let mut cas_dir: Option<String> = None;
    let mut cas_max_mb: Option<u64> = None;
    let mut cas_remote: Option<String> = None;
    let mut cas_chaos: Option<String> = None;
    // LCLint-style +/- mode flags in their original spelling, so --suite
    // can forward the checker configuration verbatim to its workers.
    let mut mode_flags: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        match a.as_str() {
            "--help" | "-h" => usage(),
            "--json" => json = true,
            "--jobs" => {
                i += 1;
                let Some(n) = args.get(i) else { usage() };
                match n.parse::<usize>() {
                    Ok(n) => flags.analysis.jobs = n,
                    Err(_) => {
                        eprintln!("rlclint: --jobs expects a number, got `{n}`");
                        return ExitCode::from(2);
                    }
                }
            }
            "--emit-lib" => emit_lib = true,
            "--lib" => {
                i += 1;
                let Some(path) = args.get(i) else { usage() };
                match std::fs::read_to_string(path) {
                    Ok(text) => libs.push((path.clone(), text)),
                    Err(e) => {
                        eprintln!("rlclint: cannot read library {path}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--run" => {
                i += 1;
                let Some(entry) = args.get(i) else { usage() };
                run_entry = Some(entry.clone());
            }
            "--incremental" => {
                i += 1;
                let Some(dir) = args.get(i) else { usage() };
                incremental_dir = Some(dir.clone());
            }
            "--stats" => stats = true,
            "--differential" => {
                i += 1;
                let Some(n) = args.get(i) else { usage() };
                match n.parse::<usize>() {
                    Ok(n) if n > 0 => differential = Some(n),
                    _ => {
                        eprintln!("rlclint: --differential expects a positive count, got `{n}`");
                        return ExitCode::from(2);
                    }
                }
            }
            "--seed" => {
                i += 1;
                let Some(s) = args.get(i) else { usage() };
                match s.parse::<u64>() {
                    Ok(s) => seed = s,
                    Err(_) => {
                        eprintln!("rlclint: --seed expects a number, got `{s}`");
                        return ExitCode::from(2);
                    }
                }
            }
            "--max-steps" => {
                i += 1;
                let Some(n) = args.get(i) else { usage() };
                match n.parse::<u64>() {
                    Ok(n) if n > 0 => flags.analysis.max_steps = Some(n),
                    _ => {
                        eprintln!("rlclint: --max-steps expects a positive number, got `{n}`");
                        return ExitCode::from(2);
                    }
                }
            }
            "--watch" => watch_mode = true,
            "--watch-poll-ms" => {
                i += 1;
                let Some(n) = args.get(i) else { usage() };
                match n.parse::<u64>() {
                    Ok(n) if n > 0 => watch_poll_ms = n,
                    _ => {
                        eprintln!("rlclint: --watch-poll-ms expects a positive number, got `{n}`");
                        return ExitCode::from(2);
                    }
                }
            }
            "--daemon" => daemon = true,
            "--worker" => worker = true,
            "--suite" => {
                i += 1;
                let Some(dir) = args.get(i) else { usage() };
                suite = Some(dir.clone());
            }
            "--suite-gen" => {
                i += 1;
                let Some(dir) = args.get(i) else { usage() };
                suite_gen = Some(dir.clone());
            }
            "--suite-tasks" => {
                i += 1;
                let Some(n) = args.get(i) else { usage() };
                match n.parse::<usize>() {
                    Ok(n) if n > 0 => suite_tasks = n,
                    _ => {
                        eprintln!("rlclint: --suite-tasks expects a positive number, got `{n}`");
                        return ExitCode::from(2);
                    }
                }
            }
            "--shards" => {
                i += 1;
                let Some(n) = args.get(i) else { usage() };
                match n.parse::<usize>() {
                    Ok(n) if n > 0 => shards = Some(n),
                    _ => {
                        eprintln!("rlclint: --shards expects a positive number, got `{n}`");
                        return ExitCode::from(2);
                    }
                }
            }
            "--budget" => {
                i += 1;
                let Some(n) = args.get(i) else { usage() };
                match n.parse::<u64>() {
                    Ok(n) if n > 0 => budget_secs = Some(n),
                    _ => {
                        eprintln!(
                            "rlclint: --budget expects a positive number of seconds, got `{n}`"
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            "--task-budget-ms" => {
                i += 1;
                let Some(n) = args.get(i) else { usage() };
                match n.parse::<u64>() {
                    Ok(n) if n > 0 => task_budget_ms = Some(n),
                    _ => {
                        eprintln!("rlclint: --task-budget-ms expects a positive number, got `{n}`");
                        return ExitCode::from(2);
                    }
                }
            }
            "--cas" => {
                i += 1;
                let Some(dir) = args.get(i) else { usage() };
                cas_dir = Some(dir.clone());
            }
            "--cas-max-mb" => {
                i += 1;
                let Some(n) = args.get(i) else { usage() };
                match n.parse::<u64>() {
                    Ok(n) if n > 0 => cas_max_mb = Some(n),
                    _ => {
                        eprintln!("rlclint: --cas-max-mb expects a positive number, got `{n}`");
                        return ExitCode::from(2);
                    }
                }
            }
            "--cas-remote" => {
                i += 1;
                let Some(addr) = args.get(i) else { usage() };
                cas_remote = Some(addr.clone());
            }
            "--cas-chaos" => {
                i += 1;
                let Some(spec) = args.get(i) else { usage() };
                cas_chaos = Some(spec.clone());
            }
            "--socket" => {
                i += 1;
                let Some(p) = args.get(i) else { usage() };
                socket = Some(p.clone());
            }
            "--tcp" => {
                i += 1;
                let Some(a) = args.get(i) else { usage() };
                tcp = Some(a.clone());
            }
            "--infer" => infer = true,
            "--infer-apply" => {
                i += 1;
                let Some(target) = args.get(i) else { usage() };
                infer_apply = Some(target.clone());
            }
            _ if a.starts_with('+') || (a.starts_with('-') && !a.starts_with("--")) => {
                if let Err(e) = flags.apply(a) {
                    eprintln!("rlclint: {e}");
                    return ExitCode::from(2);
                }
                mode_flags.push(a.clone());
            }
            path => match std::fs::read_to_string(path) {
                Ok(text) => {
                    files.push((path.to_owned(), text));
                    if path.ends_with(".c") {
                        roots.push(path.to_owned());
                    }
                }
                Err(e) => {
                    eprintln!("rlclint: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            },
        }
        i += 1;
    }
    if let Some(cases) = differential {
        // The harness generates its own corpus; file arguments and
        // file-oriented modes make no sense here.
        if !files.is_empty() || emit_lib || infer || infer_apply.is_some() || run_entry.is_some() {
            eprintln!("rlclint: --differential runs on generated programs; drop the file inputs");
            return ExitCode::from(2);
        }
        use lclint_corpus::differential::{render_diff_json, render_diff_text, run_differential};
        let report = run_differential(&lclint_corpus::differential::DiffConfig {
            cases,
            seed,
            jobs: flags.analysis.jobs,
            ..lclint_corpus::differential::DiffConfig::default()
        });
        if json {
            println!("{}", render_diff_json(&report));
        } else {
            print!("{}", render_diff_text(&report));
        }
        return if report.is_consistent() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let fleet_modes =
        usize::from(worker) + usize::from(suite.is_some()) + usize::from(suite_gen.is_some());
    if fleet_modes > 1 {
        eprintln!("rlclint: --worker, --suite, and --suite-gen are mutually exclusive");
        return ExitCode::from(2);
    }
    if fleet_modes > 0
        && (!files.is_empty()
            || daemon
            || watch_mode
            || emit_lib
            || infer
            || infer_apply.is_some()
            || run_entry.is_some())
    {
        eprintln!("rlclint: --worker/--suite/--suite-gen run without file inputs or other modes");
        return ExitCode::from(2);
    }
    if (shards.is_some() || budget_secs.is_some() || task_budget_ms.is_some()) && suite.is_none() {
        eprintln!("rlclint: --shards/--budget/--task-budget-ms require --suite");
        return ExitCode::from(2);
    }
    if cas_dir.is_none() && cas_max_mb.is_some() {
        eprintln!("rlclint: --cas-max-mb requires --cas");
        return ExitCode::from(2);
    }
    if cas_dir.is_some() && fleet_modes == 0 {
        eprintln!("rlclint: --cas requires --worker or --suite");
        return ExitCode::from(2);
    }
    if cas_remote.is_some() && cas_dir.is_none() {
        eprintln!("rlclint: --cas-remote requires --cas (the local tier is the source of truth)");
        return ExitCode::from(2);
    }
    if cas_chaos.is_some() && cas_remote.is_none() {
        eprintln!("rlclint: --cas-chaos requires --cas-remote");
        return ExitCode::from(2);
    }
    // Test hook: RLCLINT_CHAOS injects a fault spec without widening the
    // command lines tests must construct.
    if cas_chaos.is_none() && cas_remote.is_some() {
        if let Ok(spec) = std::env::var("RLCLINT_CHAOS") {
            if !spec.is_empty() {
                cas_chaos = Some(spec);
            }
        }
    }
    let cas_max_bytes = cas_max_mb.map(|mb| mb * 1024 * 1024);
    let store = lclint_core::StoreConfig {
        dir: cas_dir.as_ref().map(std::path::PathBuf::from),
        max_bytes: cas_max_bytes,
        remote: cas_remote.clone(),
        chaos: cas_chaos.clone(),
    };

    if let Some(dir) = &suite_gen {
        let tasks = lclint_fleet::generate_suite(suite_tasks, seed);
        if let Err(e) = lclint_fleet::write_suite(std::path::Path::new(dir), &tasks) {
            eprintln!("rlclint: cannot write suite to {dir}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("rlclint: wrote {} tasks to {dir}", tasks.len());
        return ExitCode::SUCCESS;
    }

    if worker {
        let runner = match lclint_fleet::TaskRunner::new(flags, &store) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("rlclint: cannot open cas store: {e}");
                return ExitCode::from(2);
            }
        };
        let w = lclint_fleet::Worker::new(runner);
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        return match lclint_server::serve_connection(
            &w,
            std::io::BufReader::new(stdin.lock()),
            stdout.lock(),
        ) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("rlclint: {e}");
                ExitCode::from(2)
            }
        };
    }

    if let Some(dir) = &suite {
        let tasks = match lclint_fleet::load_suite(std::path::Path::new(dir)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("rlclint: cannot load suite {dir}: {e}");
                return ExitCode::from(2);
            }
        };
        let program = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("rlclint: cannot locate worker executable: {e}");
                return ExitCode::from(2);
            }
        };
        let mut wargs: Vec<String> = vec!["--worker".to_owned()];
        wargs.extend(mode_flags.iter().cloned());
        if let Some(c) = &cas_dir {
            wargs.push("--cas".to_owned());
            wargs.push(c.clone());
        }
        if let Some(mb) = cas_max_mb {
            wargs.push("--cas-max-mb".to_owned());
            wargs.push(mb.to_string());
        }
        if let Some(addr) = &cas_remote {
            wargs.push("--cas-remote".to_owned());
            wargs.push(addr.clone());
        }
        if let Some(spec) = &cas_chaos {
            wargs.push("--cas-chaos".to_owned());
            wargs.push(spec.clone());
        }
        let backend = lclint_fleet::ProcessBackend { program, args: wargs };
        let cfg = lclint_fleet::RunConfig {
            shards: shards.unwrap_or(1),
            task_budget_ms,
            global_budget_ms: budget_secs.map(|s| s * 1000),
        };
        let report = lclint_fleet::run_suite(&tasks, &backend, &cfg);
        // Deterministic output (score table + verdicts) goes to stdout so
        // shard-invariance is a byte comparison; timing and store
        // counters go to stderr.
        print!("{}", report.render_table());
        println!();
        print!("{}", report.render_verdicts());
        eprint!("{}", report.render_timing());
        return if report.incorrect() == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    if roots.is_empty() {
        eprintln!("rlclint: no .c files given");
        return ExitCode::from(2);
    }
    if daemon && watch_mode {
        eprintln!("rlclint: --daemon and --watch are mutually exclusive");
        return ExitCode::from(2);
    }
    if (daemon || watch_mode)
        && (emit_lib || infer || infer_apply.is_some() || run_entry.is_some() || json)
    {
        eprintln!("rlclint: --watch/--daemon serve plain checks; drop the other mode flags");
        return ExitCode::from(2);
    }
    if (socket.is_some() || tcp.is_some()) && !daemon {
        eprintln!("rlclint: --socket/--tcp require --daemon");
        return ExitCode::from(2);
    }
    if (infer || infer_apply.is_some()) && emit_lib {
        eprintln!("rlclint: --infer cannot be combined with --emit-lib");
        usage();
    }
    if infer_apply.is_some() && json {
        eprintln!(
            "rlclint: --infer-apply rewrites source files; it cannot be combined with --json"
        );
        usage();
    }
    if let Some(target) = &infer_apply {
        if !roots.contains(target) {
            eprintln!("rlclint: --infer-apply target `{target}` is not among the checked .c files");
            usage();
        }
    }

    if emit_lib {
        for (name, text) in files.iter().filter(|(n, _)| n.ends_with(".c")) {
            match lclint_syntax::parse_translation_unit(name, text) {
                Ok((tu, _, _)) => print!("{}", library::save(&tu)),
                Err(e) => {
                    eprintln!("rlclint: {name}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    let mut linter = Linter::new(flags);
    for (n, t) in libs {
        linter.add_library(n, t);
    }

    if daemon || watch_mode {
        let session = match &incremental_dir {
            Some(dir) => match Session::at_dir(linter, files, roots, dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("rlclint: cannot use incremental dir {dir}: {e}");
                    return ExitCode::from(2);
                }
            },
            None => Session::new(linter, files, roots),
        };
        if watch_mode {
            let max_cycles =
                std::env::var("RLCLINT_WATCH_CYCLES").ok().and_then(|v| v.parse::<u64>().ok());
            let cfg = watch::WatchConfig { poll_ms: watch_poll_ms, max_cycles };
            return ExitCode::from(watch::run_watch(session, cfg));
        }
        let d = std::sync::Arc::new(lclint_server::Daemon::new(session));
        let served = if let Some(path) = socket {
            eprintln!("rlclint: listening {path}");
            lclint_server::serve_unix(&d, std::path::Path::new(&path))
        } else if let Some(addr) = tcp {
            match std::net::TcpListener::bind(&addr) {
                Ok(listener) => {
                    match listener.local_addr() {
                        Ok(local) => eprintln!("rlclint: listening {local}"),
                        Err(_) => eprintln!("rlclint: listening {addr}"),
                    }
                    lclint_server::serve_tcp(&d, listener)
                }
                Err(e) => {
                    eprintln!("rlclint: cannot bind {addr}: {e}");
                    return ExitCode::from(2);
                }
            }
        } else {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            lclint_server::serve_connection(
                &d,
                std::io::BufReader::new(stdin.lock()),
                stdout.lock(),
            )
        };
        return match served {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("rlclint: {e}");
                ExitCode::from(2)
            }
        };
    }

    if infer || infer_apply.is_some() {
        // Inference never opens the incremental session: it is a read-only
        // pass over the parsed program, so a cache directory used by plain
        // checking stays byte-identical.
        let out = match linter.infer_files(&files, &roots) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("rlclint: parse error: {e}");
                return ExitCode::from(2);
            }
        };
        for e in &out.sema_errors {
            eprintln!("rlclint: {e}");
        }
        if let Some(target) = infer_apply {
            let Some((_, text)) = out.annotated.iter().find(|(n, _)| *n == target) else {
                eprintln!("rlclint: --infer-apply target `{target}` produced no output");
                return ExitCode::from(2);
            };
            if let Err(e) = std::fs::write(&target, text) {
                eprintln!("rlclint: cannot write {target}: {e}");
                return ExitCode::from(2);
            }
            let n = out.placed.iter().filter(|p| p.loc.is_some()).count();
            eprintln!("rlclint: wrote {target} with {n} inferred annotation(s)");
        } else if json {
            println!("{}", render_infer_json(&out));
        } else {
            print!("{}", out.diff);
            let n = out.placed.len();
            println!(
                "\n{} annotation{} inferred ({} SCCs, {} sweeps)",
                n,
                if n == 1 { "" } else { "s" },
                out.sccs,
                out.rounds
            );
        }
        return if out.sema_errors.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let mut session = match incremental_dir {
        Some(dir) => match IncrementalSession::at_dir(&dir) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("rlclint: cannot use incremental dir {dir}: {e}");
                return ExitCode::from(2);
            }
        },
        // --stats without --incremental still reports counters, from a
        // run-local in-memory cache (all misses, but the numbers are real).
        None if stats => Some(IncrementalSession::in_memory()),
        None => None,
    };
    let result = match linter.check_files_with(&files, &roots, session.as_mut()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rlclint: parse error: {e}");
            return ExitCode::from(2);
        }
    };

    for e in &result.sema_errors {
        eprintln!("rlclint: {e}");
    }
    if stats {
        if let Some(cs) = &result.cache_stats {
            eprintln!(
                "rlclint: cache: {} hits, {} misses, {} invalidations, {} uncacheable, {} checked",
                cs.hits,
                cs.misses,
                cs.invalidations,
                cs.uncacheable,
                cs.checked.len()
            );
        }
        let sub = &result.substrate;
        let rss = lclint_core::peak_rss_bytes();
        if json {
            // Machine-readable substrate counters, one line on stderr so the
            // stdout diagnostics array keeps its shape.
            let cwe_counts = result
                .counts_by_cwe()
                .iter()
                .map(|(id, n)| format!("\"{id}\": {n}"))
                .collect::<Vec<_>>()
                .join(", ");
            eprintln!(
                "{{\"substrate\": {{\"exprs\": {}, \"expr_bytes\": {}, \"stmts\": {}, \
                 \"stmt_bytes\": {}, \"decls\": {}, \"decl_bytes\": {}, \"span_bytes\": {}, \
                 \"arena_bytes\": {}, \"symbols\": {}, \"frontend_jobs\": {}, \
                 \"typedef_reparses\": {}, \"peak_rss_bytes\": {}}}, \
                 \"cwe_counts\": {{{cwe_counts}}}}}",
                sub.arena.exprs,
                sub.arena.expr_bytes,
                sub.arena.stmts,
                sub.arena.stmt_bytes,
                sub.arena.decls,
                sub.arena.decl_bytes,
                sub.arena.span_bytes,
                sub.arena.total_bytes(),
                sub.symbols,
                sub.frontend_jobs,
                sub.typedef_reparses,
                rss.map_or_else(|| "null".to_owned(), |b| b.to_string()),
            );
        } else {
            eprintln!(
                "rlclint: arena: {} exprs ({} B), {} stmts ({} B), {} decls ({} B), {} B spans, {} B total",
                sub.arena.exprs,
                sub.arena.expr_bytes,
                sub.arena.stmts,
                sub.arena.stmt_bytes,
                sub.arena.decls,
                sub.arena.decl_bytes,
                sub.arena.span_bytes,
                sub.arena.total_bytes(),
            );
            eprintln!("rlclint: interner: {} symbols", sub.symbols);
            eprintln!(
                "rlclint: front end: {} jobs, {} typedef re-parses",
                sub.frontend_jobs, sub.typedef_reparses
            );
            // Sema resolves each unit while later roots are still parsing:
            // the parse figure is the front end's wall time less sema's.
            eprintln!(
                "rlclint: time: {:.1} ms parse, {:.1} ms sema (overlapping the parse), \
                 {:.1} ms check",
                result.parse_ms, result.sema_ms, result.check_ms
            );
            if let Some(b) = rss {
                eprintln!("rlclint: peak RSS: {} KiB", b / 1024);
            }
            let by_cwe = result.counts_by_cwe();
            if !by_cwe.is_empty() {
                let parts: Vec<String> =
                    by_cwe.iter().map(|(id, n)| format!("CWE-{id}: {n}")).collect();
                eprintln!("rlclint: warnings by CWE: {}", parts.join(", "));
            }
        }
    }
    if json {
        println!("{}", diagnostics_json(&result.diagnostics));
    } else {
        print!("{}", result.render());
        let n = result.diagnostics.len();
        if n > 0 || result.suppressed > 0 {
            println!(
                "\n{} code warning{} ({} suppressed)",
                n,
                if n == 1 { "" } else { "s" },
                result.suppressed
            );
        }
    }

    if let Some(entry) = run_entry {
        let mut provider = std::collections::HashMap::new();
        for (n, t) in &files {
            provider.insert(n.clone(), t.clone());
        }
        let root = roots[0].clone();
        let root_text = provider.get(&root).cloned().unwrap_or_default();
        match lclint_syntax::parse_with_files(&root, &root_text, &provider) {
            Ok((tu, _, _)) => {
                let program = lclint_sema::Program::from_unit(&tu);
                let run = lclint_interp::run_program(
                    &program,
                    &entry,
                    &[],
                    lclint_interp::Config::default(),
                );
                print!("{}", run.output);
                for e in &run.errors {
                    eprintln!("runtime: {e}");
                }
            }
            Err(e) => {
                eprintln!("rlclint: {e}");
                return ExitCode::from(2);
            }
        }
    }

    // Internal checker errors dominate the exit status: the run completed,
    // but part of the program went unchecked, which scripts should be able
    // to distinguish from ordinary warnings.
    if result.diagnostics.iter().any(|d| d.kind == "internal") {
        ExitCode::from(3)
    } else if result.diagnostics.is_empty() && result.sema_errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
