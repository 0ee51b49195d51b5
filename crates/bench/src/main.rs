//! `repro` — regenerates every table of the paper's evaluation and prints
//! them (optionally writing JSON with `--json FILE`). It writes nothing
//! else: end-to-end timing is `perfbench/`'s job.
//!
//! ```sh
//! cargo run --release -p lclint-bench --bin repro
//! ```

use lclint_bench::{
    annotation_sweep, cwe_expansion_table, database_table, detection_table, figure_table,
    incremental_table, inference_table, library_speedup, resilience_table, scaling_table,
    soundness_table, ToJson,
};
use lclint_syntax::json::Writer;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args.iter().position(|a| a == "--json").and_then(|i| args.get(i + 1).cloned());
    let quick = args.iter().any(|a| a == "--quick");

    println!("================================================================");
    println!(" Reproduction of the evaluation of");
    println!(" \"Static Detection of Dynamic Memory Errors\" (Evans, PLDI 1996)");
    println!("================================================================\n");

    // E1–E4 -----------------------------------------------------------------
    println!("E1-E4. Paper figures: message counts (paper vs measured)\n");
    println!("{:<16} {:>6} {:>9}", "figure", "paper", "measured");
    let figs = figure_table();
    for row in &figs {
        println!("{:<16} {:>6} {:>9}", row.figure, row.paper_messages, row.measured_messages);
    }

    // E5–E8 -----------------------------------------------------------------
    println!("\nE5-E8. The section-6 employee database, by annotation stage\n");
    println!(
        "{:<7} {:>5} {:>4} {:>6} {:>6} {:>12}",
        "stage", "null", "def", "alloc", "alias", "annotations"
    );
    let stages = database_table();
    for row in &stages {
        println!(
            "{:<7} {:>5} {:>4} {:>6} {:>6} {:>12}",
            row.stage, row.null, row.def, row.alloc, row.alias, row.annotations
        );
    }
    println!(
        "\n  paper: A null=1; B null=3; C alloc=7; D alloc=6; E leaks=6; F alias=1;\n\
         \u{20}        final clean with 15 annotations (1 null + 1 out + 13 only)."
    );

    // E9 ---------------------------------------------------------------------
    let sizes: &[usize] = if quick {
        &[1_000, 5_000, 10_000]
    } else {
        &[1_000, 2_000, 5_000, 10_000, 25_000, 50_000, 100_000]
    };
    println!("\nE9. Checking-time scaling (fully annotated programs)\n");
    println!("{:>9} {:>12} {:>13}", "LOC", "time (ms)", "ms per KLOC");
    let scaling = scaling_table(sizes);
    for row in &scaling {
        println!("{:>9} {:>12.1} {:>13.2}", row.loc, row.ms, row.ms_per_kloc);
    }
    let min = scaling.iter().map(|r| r.ms_per_kloc).fold(f64::INFINITY, f64::min);
    let max = scaling.iter().map(|r| r.ms_per_kloc).fold(0.0f64, f64::max);
    println!(
        "\n  paper: ~linear scaling; 5k-line module <10s, 100k lines <4min on a\n\
         \u{20}        1995 DEC 3000/500. Measured per-KLOC spread: {:.1}x.",
        max / min
    );
    let (full_ms, lib_ms) = library_speedup(5_000);
    println!(
        "\n  interface libraries (section 7): checking a client against a 5k-line\n\
         \u{20}   module takes {full_ms:.1} ms from source but {lib_ms:.1} ms from its .lcs\n\
         \u{20}   interface library ({:.0}x faster).",
        full_ms / lib_ms.max(0.001)
    );

    // E10 ---------------------------------------------------------------------
    let sweep_loc = if quick { 5_000 } else { 20_000 };
    println!("\nE10. Messages vs annotation level ({sweep_loc}-line program)\n");
    println!("{:>7} {:>10}", "level", "messages");
    let sweep = annotation_sweep(sweep_loc, &[1.0, 0.75, 0.5, 0.25, 0.0]);
    for row in &sweep {
        println!("{:>6.0}% {:>10}", row.level * 100.0, row.messages);
    }
    println!(
        "\n  paper: \"on the order of a thousand messages\" for the unannotated\n\
         \u{20}        100k-line program, nearly all eliminated by annotations."
    );

    // E10b --------------------------------------------------------------------
    let incr_loc = if quick { 5_000 } else { 20_000 };
    println!("\nE10b. Incremental checking: warm vs cold ({incr_loc}-line program)\n");
    println!(
        "{:<16} {:>10} {:>11} {:>6} {:>7} {:>13} {:>9} {:>10}",
        "scenario",
        "total (ms)",
        "check (ms)",
        "hits",
        "misses",
        "invalidations",
        "checked",
        "identical"
    );
    let incr = incremental_table(incr_loc);
    for row in &incr {
        println!(
            "{:<16} {:>10.1} {:>11.1} {:>6} {:>7} {:>13} {:>9} {:>10}",
            row.scenario,
            row.ms,
            row.check_ms,
            row.hits,
            row.misses,
            row.invalidations,
            row.checked,
            row.identical
        );
    }
    println!(
        "\n  fingerprint cache: no-change warm check phase {:.1}x faster than cold\n\
         \u{20}  ({:.1}x end-to-end; parsing is not cached); a one-function edit\n\
         \u{20}  re-checks {} of {} functions.",
        incr[0].check_ms / incr[1].check_ms.max(1e-9),
        incr[0].ms / incr[1].ms.max(1e-9),
        incr[2].checked,
        incr[0].misses
    );

    // E11 ---------------------------------------------------------------------
    let (mutants, budgets): (usize, &[usize]) =
        if quick { (4, &[1, 10]) } else { (10, &[1, 5, 25, 125]) };
    println!("\nE11. Static vs run-time detection of seeded bugs ({mutants}/class)\n");
    print!("{:<16} {:>7}", "class", "static");
    for b in budgets {
        print!(" {:>8}", format!("dyn@{b}"));
    }
    println!();
    let detect = detection_table(mutants, 250, budgets, 7);
    for row in &detect {
        print!("{:<16} {:>6}% ", row.class, row.static_rate);
        for (_, rate) in &row.dynamic_rates {
            print!("{:>7}% ", rate);
        }
        println!();
    }
    println!(
        "\n  paper (section 1): run-time checking \"depends entirely on running the\n\
         \u{20}  right test cases\"; static checking sees every path."
    );

    // E13 ---------------------------------------------------------------------
    let infer_loc = if quick { 2_000 } else { 10_000 };
    println!("\nE13. Annotation inference round trip ({infer_loc}-line program)\n");
    println!(
        "{:>7} {:>9} {:>10} {:>10} {:>10} {:>9} {:>11} {:>10}",
        "level", "missing", "recovered", "recov %", "baseline", "after", "reduction %", "time (ms)"
    );
    let infer = inference_table(infer_loc, &[0.0, 0.25, 0.5]);
    for row in &infer {
        println!(
            "{:>6.0}% {:>9} {:>10} {:>9.1}% {:>10} {:>9} {:>10.1}% {:>10.1}",
            row.level * 100.0,
            row.ground_truth_missing,
            row.recovered,
            row.recovery_pct,
            row.baseline_messages,
            row.after_messages,
            row.reduction_pct,
            row.ms
        );
    }
    println!(
        "\n  whole-program SCC fixpoint over the checker's transfer functions in\n\
         \u{20}  summary mode; recovered annotations are scored against the\n\
         \u{20}  generator's ground truth, then the annotated source is re-checked."
    );

    // E14 ---------------------------------------------------------------------
    let (diff_sizes, diff_cases) = if quick { (vec![1, 2], 2) } else { (vec![1, 2, 4], 3) };
    println!(
        "\nE14. Differential soundness: static checker vs interpreter oracle\n\
         \u{20}    ({} corpus sizes x {} programs x {} injected bug classes, seed 1)\n",
        diff_sizes.len(),
        diff_cases,
        lclint_corpus::mutator::BugClass::all().len()
    );
    println!(
        "{:>7} {:>6} {:<16} {:>6} {:>8} {:>5} {:>5} {:>5} {:>8} {:>8}",
        "modules", "loc", "class", "cases", "oracle", "TP", "FP", "FN", "exp-FN", "recall"
    );
    let (soundness, soundness_clean) = soundness_table(&diff_sizes, diff_cases, 1);
    for row in &soundness {
        println!(
            "{:>7} {:>6} {:<16} {:>6} {:>8} {:>5} {:>5} {:>5} {:>8} {:>7.1}%",
            row.modules,
            row.loc,
            row.class,
            row.cases,
            row.oracle_errors,
            row.tp,
            row.fp,
            row.false_negatives,
            row.expected_fn,
            row.recall_pct
        );
    }
    println!(
        "  clean corpus: {} programs, {} static FP, {} oracle errors, {} disagreements",
        soundness_clean.programs,
        soundness_clean.static_fp,
        soundness_clean.oracle_errors,
        soundness_clean.disagreements
    );
    println!(
        "\n  every oracle-detected error is matched to a static diagnostic by kind\n\
         \u{20}  and line; known-unsound categories (bounds, assertions, termination;\n\
         \u{20}  sections 2/6/9) score as documented expected FNs, pinned under\n\
         \u{20}  tests/differential_regressions/."
    );

    // E18 ---------------------------------------------------------------------
    println!(
        "\nE18. CWE-taxonomy expansion: the new bug classes, aggregated over\n\
         \u{20}    the E14 sweep, tagged with the CWE id their diagnostics render\n"
    );
    println!(
        "{:<16} {:>7} {:>24} {:>6} {:>8} {:>5} {:>5} {:>5} {:>8}",
        "class", "CWE", "static kinds", "cases", "oracle", "TP", "FP", "FN", "recall"
    );
    let cwe_rows = cwe_expansion_table(&soundness);
    for row in &cwe_rows {
        println!(
            "{:<16} {:>7} {:>24} {:>6} {:>8} {:>5} {:>5} {:>5} {:>7.1}%",
            row.class,
            format!("CWE-{}", row.cwe),
            row.static_kinds.join(","),
            row.cases,
            row.oracle_errors,
            row.tp,
            row.fp,
            row.false_negatives,
            row.recall_pct
        );
    }
    println!(
        "\n  realloc self-overwrites (CWE-401 variant), string-sink overflows\n\
         \u{20}  against the capacity lattice (CWE-787), and constant-index bounds\n\
         \u{20}  errors (CWE-125); dynamic-index cases remain a residual expected FN."
    );

    // E15 ---------------------------------------------------------------------
    let (resil_loc, resil_mutants) = if quick { (2_000, 51) } else { (10_000, 60) };
    println!(
        "\nE15. Crash resilience: {resil_mutants} syntax mutants of a \
         {resil_loc}-line program\n"
    );
    let resilience = resilience_table(resil_loc, resil_mutants, 7);
    println!("  mutants checked:        {:>8}", resilience.mutants);
    println!("  process aborts:         {:>8}", resilience.aborts);
    println!("  syntax diagnostics:     {:>8}", resilience.syntax_diags);
    println!("  surviving functions:    {:>8}", resilience.surviving_functions);
    println!(
        "  diagnostic retention:   {:>7.1}% ({} of {} baseline messages)",
        resilience.retention_pct, resilience.retained_diags, resilience.expected_diags
    );
    println!(
        "\n  a broken declaration degrades to a `syntax` message and the parser\n\
         \u{20}  resynchronizes; every function the mutation left intact is still\n\
         \u{20}  checked and reports byte-identical diagnostics."
    );

    if let Some(path) = json_path {
        let blob = Writer::obj()
            .raw("figures", &figs.to_json())
            .raw("database_stages", &stages.to_json())
            .raw("scaling", &scaling.to_json())
            .raw("annotation_sweep", &sweep.to_json())
            .raw("incremental", &incr.to_json())
            .raw("detection", &detect.to_json())
            .raw("inference_table", &infer.to_json())
            .raw("soundness_table", &soundness.to_json())
            .raw("soundness_clean", &soundness_clean.to_json())
            .raw("cwe_expansion", &cwe_rows.to_json())
            .raw("resilience", &resilience.to_json())
            .done();
        std::fs::write(&path, blob).unwrap_or_else(|e| eprintln!("cannot write {path}: {e}"));
        println!("\nresults written to {path}");
    }
}
