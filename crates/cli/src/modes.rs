//! The bodies of the modes that neither serve a protocol nor watch: a
//! plain check (with `--stats` and `--run`), inference, `--emit-lib`,
//! the differential harness and the benchmark suite.

use crate::Parsed;
use lclint_core::{library, CheckResult, IncrementalSession, Linter};
use lclint_syntax::json;
use lclint_syntax::stats::{self, Counters};
use std::path::Path;
use std::process::ExitCode;

/// Prints a check's report to stdout: the rendered diagnostics, then a
/// count line when anything was reported or suppressed.
pub(crate) fn print_report(result: &CheckResult) {
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

/// A plain check of the files: the report, `--stats` counters on stderr,
/// then `--run`'s interpretation.
pub(crate) fn check(
    p: &Parsed,
    linter: &Linter,
    files: &[(String, String)],
    roots: &[String],
) -> Result<ExitCode, String> {
    let stats = p.has("--stats");
    let json = p.has("--json");
    let mut session = match p.value("--incremental") {
        Some(dir) => Some(
            IncrementalSession::at_dir(dir)
                .map_err(|e| format!("cannot use incremental dir {dir}: {e}"))?,
        ),
        // --stats without --incremental still reports counters, from a
        // run-local in-memory cache (all misses, but the numbers are real).
        None if stats => Some(IncrementalSession::in_memory()),
        None => None,
    };
    let result = linter
        .check_files_with(files, roots, session.as_mut())
        .map_err(|e| format!("parse error: {e}"))?;
    for e in &result.sema_errors {
        eprintln!("{}: {e}", p.prog);
    }
    if stats {
        print_stats(p.prog, &result, json);
    }
    if json {
        println!("{}", diagnostics_json(&result.diagnostics));
    } else {
        print_report(&result);
    }
    if let Some(entry) = p.value("--run") {
        run_entry(entry, files, roots)?;
    }

    // Internal checker errors dominate the exit status: the run completed,
    // but part of the program went unchecked, which scripts should be able
    // to distinguish from ordinary warnings.
    Ok(if result.diagnostics.iter().any(|d| d.kind == "internal") {
        ExitCode::from(3)
    } else if result.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The `--stats` block on stderr: cache, arena, interner, front-end and
/// phase-time counters; with `--json`, exactly one JSON line instead.
fn print_stats(prog: &str, result: &CheckResult, json: bool) {
    let sub = &result.substrate;
    let rss = lclint_core::peak_rss_bytes();
    if json {
        // Machine-readable counters, one line on stderr so the stdout
        // diagnostics array keeps its shape.
        let w = json::Writer::obj().object("substrate", |w| {
            let w = w
                .counters("", &sub.arena)
                .num("arena_bytes", sub.arena.total_bytes())
                .counters("", sub);
            match rss {
                Some(b) => w.num("peak_rss_bytes", b as usize),
                None => w.raw("peak_rss_bytes", "null"),
            }
        });
        let w = match &result.cache_stats {
            Some(cs) => w.counters("cache_", cs),
            None => w,
        };
        let line = w
            .object("cwe_counts", |w| {
                result.counts_by_cwe().iter().fold(w, |w, (id, n)| w.num(&id.to_string(), *n))
            })
            .done();
        eprintln!("{line}");
        return;
    }
    if let Some(cs) = &result.cache_stats {
        eprintln!("{prog}: cache: {}, {} checked", stats::text(cs.counters()), cs.checked.len());
    }
    eprintln!(
        "{prog}: arena: {} exprs ({} B), {} stmts ({} B), {} decls ({} B), {} B spans, {} B total",
        sub.arena.exprs,
        sub.arena.expr_bytes,
        sub.arena.stmts,
        sub.arena.stmt_bytes,
        sub.arena.decls,
        sub.arena.decl_bytes,
        sub.arena.span_bytes,
        sub.arena.total_bytes(),
    );
    eprintln!("{prog}: interner: {} symbols", sub.symbols);
    eprintln!(
        "{prog}: front end: {} jobs, {} typedef re-parses",
        sub.frontend_jobs, sub.typedef_reparses
    );
    // Sema resolves each unit while later roots are still parsing: the
    // parse figure is the front end's wall time less sema's.
    eprintln!(
        "{prog}: time: {:.1} ms parse, {:.1} ms sema (overlapping the parse), {:.1} ms check",
        result.parse_ms, result.sema_ms, result.check_ms
    );
    if let Some(b) = rss {
        eprintln!("{prog}: peak RSS: {} KiB", b / 1024);
    }
    let by_cwe = result.counts_by_cwe();
    if !by_cwe.is_empty() {
        let parts: Vec<String> = by_cwe.iter().map(|(id, n)| format!("CWE-{id}: {n}")).collect();
        eprintln!("{prog}: warnings by CWE: {}", parts.join(", "));
    }
}

/// Renders the `--json` report: an array of the daemon's diagnostic
/// objects, each with its `cwe` appended.
fn diagnostics_json(diags: &[lclint_core::RenderedDiagnostic]) -> String {
    json::objects(diags, |w, d| {
        let w = d.write_json(w);
        match d.cwe {
            Some(id) => w.num("cwe", id as usize),
            None => w.raw("cwe", "null"),
        }
    })
}

/// `--run ENTRY`: interprets `ENTRY()` in the first root, the runtime
/// baseline the static report is compared against.
fn run_entry(entry: &str, files: &[(String, String)], roots: &[String]) -> Result<(), String> {
    let provider: std::collections::HashMap<String, String> = files.iter().cloned().collect();
    let root = &roots[0];
    let root_text = provider.get(root).cloned().unwrap_or_default();
    let (tu, _, _) =
        lclint_syntax::parse_with_files(root, &root_text, &provider).map_err(|e| e.to_string())?;
    let program = lclint_sema::Program::from_unit(&tu);
    let run = lclint_interp::run_program(&program, entry, &[], lclint_interp::Config::default());
    print!("{}", run.output);
    for e in &run.errors {
        eprintln!("runtime: {e}");
    }
    Ok(())
}

/// `--infer` prints the inferred annotations; `--infer-apply FILE`
/// rewrites FILE with them.
pub(crate) fn infer(
    p: &Parsed,
    linter: &Linter,
    files: &[(String, String)],
    roots: &[String],
) -> Result<ExitCode, String> {
    // Inference is a read-only pass over the parsed program: it never
    // opens a result cache.
    let out = linter.infer_files(files, roots).map_err(|e| format!("parse error: {e}"))?;
    for e in &out.sema_errors {
        eprintln!("{}: {e}", p.prog);
    }
    if let Some(target) = p.value("--infer-apply") {
        let Some((_, text)) = out.annotated.iter().find(|(n, _)| n == target) else {
            return Err(format!("--infer-apply target `{target}` produced no output"));
        };
        std::fs::write(target, text).map_err(|e| format!("cannot write {target}: {e}"))?;
        let n = out.placed.iter().filter(|p| p.loc.is_some()).count();
        eprintln!("{}: wrote {target} with {n} inferred annotation(s)", p.prog);
    } else if p.has("--json") {
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
    Ok(if out.sema_errors.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
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

/// `--emit-lib`: prints the interface library of each `.c` input.
pub(crate) fn emit_lib(files: &[(String, String)]) -> Result<ExitCode, String> {
    for (name, text) in files.iter().filter(|(n, _)| n.ends_with(".c")) {
        let (tu, _, _) = lclint_syntax::parse_translation_unit(name, text)
            .map_err(|e| format!("{name}: {e}"))?;
        print!("{}", library::save(&tu));
    }
    Ok(ExitCode::SUCCESS)
}

/// `--differential N`: the interpreter-as-oracle harness over N generated
/// programs; exit 1 when the checker and the oracle disagree.
pub(crate) fn differential(p: &Parsed) -> ExitCode {
    use lclint_corpus::differential::{render_diff_json, render_diff_text, run_differential};
    let cases = p.number("--differential").expect("the option selected this mode");
    let report = run_differential(&lclint_corpus::differential::DiffConfig {
        cases: cases as usize,
        seed: p.number("--seed").unwrap_or(1),
        jobs: p.flags.analysis.jobs,
        ..lclint_corpus::differential::DiffConfig::default()
    });
    if p.has("--json") {
        println!("{}", render_diff_json(&report));
    } else {
        print!("{}", render_diff_text(&report));
    }
    if report.is_consistent() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--suite-gen DIR`: writes a generated benchmark suite into DIR.
pub(crate) fn suite_gen(p: &Parsed) -> Result<ExitCode, String> {
    let dir = p.value("--suite-gen").expect("the option selected this mode");
    let count = p.number("--suite-tasks").map_or(500, |n| n as usize);
    let tasks = lclint_fleet::generate_suite(count, p.number("--seed").unwrap_or(1));
    lclint_fleet::write_suite(Path::new(dir), &tasks)
        .map_err(|e| format!("cannot write suite to {dir}: {e}"))?;
    eprintln!("{}: wrote {} tasks to {dir}", p.prog, tasks.len());
    Ok(ExitCode::SUCCESS)
}

/// `--suite DIR`: shards the suite's tasks across `--worker` processes of
/// this same executable and scores their verdicts.
pub(crate) fn suite(p: &Parsed) -> Result<ExitCode, String> {
    let dir = p.value("--suite").expect("the option selected this mode");
    let tasks = lclint_fleet::load_suite(Path::new(dir))
        .map_err(|e| format!("cannot load suite {dir}: {e}"))?;
    let program =
        std::env::current_exe().map_err(|e| format!("cannot locate worker executable: {e}"))?;
    let backend = lclint_fleet::ProcessBackend { program, args: p.worker_args() };
    let cfg = lclint_fleet::RunConfig {
        shards: p.number("--shards").map_or(1, |n| n as usize),
        task_budget_ms: p.number("--task-budget-ms"),
        global_budget_ms: p.number("--budget").map(|s| s.saturating_mul(1000)),
    };
    let report = lclint_fleet::run_suite(&tasks, &backend, &cfg);
    // Deterministic output (score table + verdicts) goes to stdout so
    // shard-invariance is a byte comparison; timing and store counters
    // go to stderr.
    print!("{}", report.render_table());
    println!();
    print!("{}", report.render_verdicts());
    eprint!("{}", report.render_timing());
    Ok(if report.incorrect() == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
