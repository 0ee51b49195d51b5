//! Shared harness code for regenerating the paper's evaluation.
//!
//! Every table of the paper reproduction in EXPERIMENTS.md (E1–E15, E18) is
//! produced by a function here, and the `repro` binary prints them all.
//! Tests assert counters and messages only; the few `ms` columns are
//! printed for orientation and never asserted. End-to-end timing is
//! `perfbench/`'s job (BENCHMARK.json).

#![warn(missing_docs)]

use lclint_core::{Flags, IncrementalSession, Linter};
use lclint_corpus::database::{database_roots, database_sources, DbStage};
use lclint_corpus::figures;
use lclint_corpus::generator::{generate, GenConfig};
use lclint_corpus::mutator::{inject, BugClass};
use lclint_syntax::json::{self, Writer};
use lclint_syntax::rng::SplitMix64;
use std::collections::BTreeMap;
use std::time::Instant;

/// One row of the figure-reproduction table (E1–E4).
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// Figure name.
    pub figure: String,
    /// Number of messages the paper reports for it.
    pub paper_messages: usize,
    /// Number we measure.
    pub measured_messages: usize,
}

/// E1–E4: message counts for every paper figure.
pub fn figure_table() -> Vec<FigureRow> {
    let linter = Linter::new(Flags::default());
    let paper: &[(&str, usize)] = &[
        ("figure1", 0),
        ("figure2", 1),
        ("figure3", 0),
        ("figure4", 2),
        ("figure5", 2),
        ("figure5_fixed", 0),
        ("figure7", 1),
        ("figure8", 1),
    ];
    let sources: BTreeMap<&str, &str> = figures::all_figures().into_iter().collect();
    paper
        .iter()
        .map(|(name, expected)| {
            let r =
                linter.check_source(&format!("{name}.c"), sources[name]).expect("figures parse");
            // Figure 7/8 are checked for their *specific* anomaly class.
            let measured = match *name {
                "figure7" => r
                    .diagnostics
                    .iter()
                    .filter(|d| d.message.contains("derivable from return value"))
                    .count(),
                "figure8" => r.diagnostics.iter().filter(|d| d.kind == "aliasunique").count(),
                _ => r.diagnostics.len(),
            };
            FigureRow {
                figure: (*name).to_owned(),
                paper_messages: *expected,
                measured_messages: measured,
            }
        })
        .collect()
}

/// One row of the database stage table (E5–E8).
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Stage name.
    pub stage: String,
    /// Null-class messages.
    pub null: usize,
    /// Definition-class messages.
    pub def: usize,
    /// Allocation-class messages.
    pub alloc: usize,
    /// Aliasing messages.
    pub alias: usize,
    /// Annotations present (null/out/only).
    pub annotations: usize,
}

/// E5–E8: the §6 staged walkthrough.
pub fn database_table() -> Vec<StageRow> {
    let linter = Linter::new(Flags::default());
    DbStage::all()
        .into_iter()
        .map(|(name, stage)| {
            let r = linter
                .check_files(&database_sources(&stage), &database_roots())
                .expect("database parses");
            let count = |ks: &[&str]| {
                r.diagnostics.iter().filter(|d| ks.contains(&d.kind.as_str())).count()
            };
            let counts = lclint_corpus::database::annotation_counts(&stage);
            StageRow {
                stage: name.to_owned(),
                null: count(&["nullderef", "nullpass"]),
                def: count(&["usedef", "compdef"]),
                alloc: count(&["mustfree", "onlytrans", "usereleased", "branchstate"]),
                alias: count(&["aliasunique"]),
                annotations: counts["null"] + counts["out"] + counts["only"],
            }
        })
        .collect()
}

/// One row of the scaling table (E9).
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Program size in lines.
    pub loc: usize,
    /// Wall-clock checking time in milliseconds.
    pub ms: f64,
    /// Milliseconds per thousand lines.
    pub ms_per_kloc: f64,
}

/// E9: checking time vs program size (fully annotated, clean programs).
pub fn scaling_table(sizes: &[usize]) -> Vec<ScalingRow> {
    let linter = Linter::new(Flags::default());
    sizes
        .iter()
        .map(|target| {
            let p = generate(&GenConfig::with_target_loc(*target));
            let start = Instant::now();
            let r = linter.check_source("gen.c", &p.source).expect("parses");
            let ms = start.elapsed().as_secs_f64() * 1000.0;
            assert!(r.is_clean(), "{}", r.render());
            ScalingRow { loc: p.loc, ms, ms_per_kloc: ms / (p.loc as f64 / 1000.0) }
        })
        .collect()
}

/// One row of the annotation sweep (E10).
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Fraction of annotations kept.
    pub level: f64,
    /// Messages reported.
    pub messages: usize,
}

/// E10: message counts as annotations are stripped from a program of
/// roughly `target_loc` lines.
pub fn annotation_sweep(target_loc: usize, levels: &[f64]) -> Vec<SweepRow> {
    let linter = Linter::new(Flags::default());
    levels
        .iter()
        .map(|level| {
            let p = generate(&GenConfig {
                annotation_level: *level,
                ..GenConfig::with_target_loc(target_loc)
            });
            let r = linter.check_source("gen.c", &p.source).expect("parses");
            SweepRow { level: *level, messages: r.diagnostics.len() }
        })
        .collect()
}

/// One row of the static-vs-dynamic table (E11).
#[derive(Debug, Clone)]
pub struct DetectRow {
    /// Bug class label.
    pub class: String,
    /// Static detection rate (percent).
    pub static_rate: usize,
    /// Dynamic detection rate per test budget (percent).
    pub dynamic_rates: Vec<(usize, usize)>,
}

/// E11: detection rates of the static checker vs the runtime baseline.
pub fn detection_table(
    mutants_per_class: usize,
    input_space: i64,
    budgets: &[usize],
    seed: u64,
) -> Vec<DetectRow> {
    let base = generate(&GenConfig { modules: 2, ..GenConfig::default() });
    let linter = Linter::new(Flags::default());
    let mut rng = SplitMix64::seeded(seed);
    BugClass::all()
        .iter()
        .map(|class| {
            let mut static_hits = 0usize;
            let mut dynamic_hits = vec![0usize; budgets.len()];
            for _ in 0..mutants_per_class {
                let trigger = rng.below(input_space as u64) as i64;
                let m = inject(&base, *class, trigger);
                let r = linter.check_source("m.c", &m.source).expect("parses");
                if !r.diagnostics.is_empty() {
                    static_hits += 1;
                }
                for (bi, budget) in budgets.iter().enumerate() {
                    let mut found = false;
                    for _ in 0..*budget {
                        let input = rng.below(input_space as u64) as i64;
                        let run = lclint_interp::run_source(
                            "m.c",
                            &m.source,
                            "run",
                            &[input],
                            lclint_interp::Config::default(),
                        )
                        .expect("parses");
                        if !run.is_clean() {
                            found = true;
                            break;
                        }
                    }
                    if found {
                        dynamic_hits[bi] += 1;
                    }
                }
            }
            DetectRow {
                class: class.label().to_owned(),
                static_rate: 100 * static_hits / mutants_per_class,
                dynamic_rates: budgets
                    .iter()
                    .zip(dynamic_hits)
                    .map(|(b, h)| (*b, 100 * h / mutants_per_class))
                    .collect(),
            }
        })
        .collect()
}

/// One scenario of the incremental warm-vs-cold table (E10, incremental
/// variant).
#[derive(Debug, Clone)]
pub struct IncrRow {
    /// Scenario label: `cold`, `warm-no-change`, or `warm-one-edit`.
    pub scenario: String,
    /// Wall-clock for the whole pipeline call, in milliseconds (includes
    /// preprocessing, parsing, and program construction, which the cache
    /// does not accelerate).
    pub ms: f64,
    /// Wall-clock for the checking phase alone, in milliseconds — the part
    /// the fingerprint cache short-circuits.
    pub check_ms: f64,
    /// Cache hits.
    pub hits: usize,
    /// Cache misses (no entry).
    pub misses: usize,
    /// Entries present but no longer valid.
    pub invalidations: usize,
    /// Functions actually (re-)checked.
    pub checked: usize,
    /// True when the output was byte-identical to an uncached run (must be).
    pub identical: bool,
}

/// E10 (incremental variant): cold run, no-change warm run, and
/// one-function-edit warm run over a generated program of roughly
/// `target_loc` lines, through one in-memory [`IncrementalSession`].
/// Each scenario's rendered output is compared against an uncached check of
/// the same sources, so the table doubles as a correctness check.
pub fn incremental_table(target_loc: usize) -> Vec<IncrRow> {
    let linter = Linter::new(Flags::default());
    let p = generate(&GenConfig::with_target_loc(target_loc));
    // The one-function edit: append a dead statement to the body of
    // `m0_calc0` (a filler function every generated program has). The
    // interface is untouched, so exactly this function should re-check.
    let at = p.source.find("int m0_calc0").expect("generated filler present");
    let ret = p.source[at..].find("return acc;").expect("filler returns") + at;
    let edited = format!("{}acc = acc + 0;\n  {}", &p.source[..ret], &p.source[ret..]);

    let mut session = IncrementalSession::in_memory();
    let mut run = |scenario: &str, src: &str| {
        let files = vec![("gen.c".to_owned(), src.to_owned())];
        let roots = vec!["gen.c".to_owned()];
        let reference = linter.check_files(&files, &roots).expect("parses").render();
        let start = Instant::now();
        let r = linter.check_files_with(&files, &roots, Some(&mut session)).expect("parses");
        let ms = start.elapsed().as_secs_f64() * 1000.0;
        let cs = r.cache_stats.as_ref().expect("incremental run has stats");
        IncrRow {
            scenario: scenario.to_owned(),
            ms,
            check_ms: r.check_ms,
            hits: cs.hits,
            misses: cs.misses,
            invalidations: cs.invalidations,
            checked: cs.checked.len(),
            identical: r.render() == reference,
        }
    };
    vec![run("cold", &p.source), run("warm-no-change", &p.source), run("warm-one-edit", &edited)]
}

/// One row of the annotation-inference round trip (E13).
#[derive(Debug, Clone)]
pub struct InferRow {
    /// Fraction of annotations the generator kept.
    pub level: f64,
    /// Ground-truth annotations the stripping removed.
    pub ground_truth_missing: usize,
    /// How many of those inference recovered (same target, same word).
    pub recovered: usize,
    /// `100 * recovered / ground_truth_missing` (100 when nothing was
    /// missing).
    pub recovery_pct: f64,
    /// Messages when checking the stripped source as-is.
    pub baseline_messages: usize,
    /// Messages when re-checking the source with inferred annotations
    /// applied.
    pub after_messages: usize,
    /// `100 * (baseline - after) / baseline` (0 when the baseline is clean).
    pub reduction_pct: f64,
    /// Total annotations inference placed (including extras beyond the
    /// ground truth, e.g. `notnull` on dereferenced parameters).
    pub inferred_total: usize,
    /// Wall-clock of the inference pass, in milliseconds.
    pub ms: f64,
}

/// E13: whole-program annotation inference round trip. For each stripping
/// level: generate, strip, infer, score recovery against the generator's
/// ground truth, and re-check the annotated source to measure the message
/// reduction.
pub fn inference_table(target_loc: usize, levels: &[f64]) -> Vec<InferRow> {
    let linter = Linter::new(Flags::default());
    levels
        .iter()
        .map(|level| {
            let p = generate(&GenConfig {
                annotation_level: *level,
                ..GenConfig::with_target_loc(target_loc)
            });
            let baseline =
                linter.check_source("gen.c", &p.source).expect("parses").diagnostics.len();
            let start = Instant::now();
            let out = linter.infer_source("gen.c", &p.source).expect("parses");
            let ms = start.elapsed().as_secs_f64() * 1000.0;
            let placed: std::collections::BTreeSet<(String, String)> = out
                .placed
                .iter()
                .filter(|pl| pl.loc.is_some())
                .map(|pl| (pl.target.clone(), pl.annot.clone()))
                .collect();
            let missing: Vec<_> = p.ground_truth.iter().filter(|g| !g.emitted).collect();
            let recovered = missing
                .iter()
                .filter(|g| placed.contains(&(g.target.clone(), g.word.clone())))
                .count();
            let after = linter
                .check_source("gen.c", &out.annotated[0].1)
                .expect("annotated source parses")
                .diagnostics
                .len();
            InferRow {
                level: *level,
                ground_truth_missing: missing.len(),
                recovered,
                recovery_pct: if missing.is_empty() {
                    100.0
                } else {
                    100.0 * recovered as f64 / missing.len() as f64
                },
                baseline_messages: baseline,
                after_messages: after,
                reduction_pct: if baseline == 0 {
                    0.0
                } else {
                    100.0 * baseline.saturating_sub(after) as f64 / baseline as f64
                },
                inferred_total: placed.len(),
                ms,
            }
        })
        .collect()
}

/// One row of the E14 soundness table: one bug class at one corpus size.
#[derive(Debug, Clone)]
pub struct SoundnessRow {
    /// Modules per generated program.
    pub modules: usize,
    /// Line count of one program at this size.
    pub loc: usize,
    /// Bug-class label (`BugClass::label()`).
    pub class: String,
    /// Injected mutants scored.
    pub cases: usize,
    /// Distinct oracle errors across the input sweeps.
    pub oracle_errors: usize,
    /// Static diagnostics matched to an oracle error.
    pub tp: usize,
    /// Static diagnostics matching no oracle error.
    pub fp: usize,
    /// Oracle errors missed outside the expected-FN taxonomy.
    pub false_negatives: usize,
    /// Oracle errors in a documented expected-FN category.
    pub expected_fn: usize,
    /// Recall over in-scope oracle errors, percent.
    pub recall_pct: f64,
}

/// Summary of the clean (unmutated) corpus leg of E14, across all sizes.
#[derive(Debug, Clone)]
pub struct SoundnessClean {
    /// Unmutated programs checked and run.
    pub programs: usize,
    /// Static diagnostics on them (every one is a false positive).
    pub static_fp: usize,
    /// Oracle errors on them (every one is a generator/interp bug).
    pub oracle_errors: usize,
    /// Checker/oracle disagreements recorded by the harness.
    pub disagreements: usize,
}

/// E14: differential soundness. Runs the interpreter-as-oracle harness
/// (`lclint_corpus::differential`) with `cases` base programs at each corpus
/// size in `sizes` (modules per program) and flattens the per-class scores
/// into table rows.
pub fn soundness_table(
    sizes: &[usize],
    cases: usize,
    seed: u64,
) -> (Vec<SoundnessRow>, SoundnessClean) {
    use lclint_corpus::differential::{run_differential, DiffConfig};
    let mut rows = Vec::new();
    let mut clean =
        SoundnessClean { programs: 0, static_fp: 0, oracle_errors: 0, disagreements: 0 };
    for &modules in sizes {
        let report =
            run_differential(&DiffConfig { cases, seed, modules, ..DiffConfig::default() });
        let loc = generate(&GenConfig { modules, ..GenConfig::default() }).loc;
        for (label, st) in &report.per_class {
            rows.push(SoundnessRow {
                modules,
                loc,
                class: (*label).to_owned(),
                cases: st.cases,
                oracle_errors: st.oracle_errors,
                tp: st.tp,
                fp: st.fp,
                false_negatives: st.fn_,
                expected_fn: st.expected_fn,
                recall_pct: st.recall_pct(),
            });
        }
        clean.programs += report.clean_programs;
        clean.static_fp += report.clean_fp;
        clean.oracle_errors += report.clean_oracle_errors;
        clean.disagreements += report.disagreements.len();
    }
    (rows, clean)
}

/// One row of the CWE bug-class expansion table (E18): one of the new bug
/// classes with its CWE id and differential scores aggregated over sizes.
#[derive(Debug, Clone)]
pub struct CweRow {
    /// Bug-class label (`BugClass::label()`).
    pub class: String,
    /// CWE id rendered on the class's primary static diagnostic.
    pub cwe: u32,
    /// Static diagnostic kinds that detect the class (primary first).
    pub static_kinds: Vec<String>,
    /// Injected mutants scored across all corpus sizes.
    pub cases: usize,
    /// Distinct oracle errors across the input sweeps.
    pub oracle_errors: usize,
    /// Static diagnostics matched to an oracle error.
    pub tp: usize,
    /// Static diagnostics matching no oracle error.
    pub fp: usize,
    /// Oracle errors missed outside the expected-FN taxonomy.
    pub false_negatives: usize,
    /// Oracle errors in a documented (residual) expected-FN category.
    pub expected_fn: usize,
    /// Recall over in-scope oracle errors, percent.
    pub recall_pct: f64,
}

/// E18: the CWE-taxonomy expansion classes (realloc-lost, buffer-overflow,
/// oob-index) aggregated over E14 soundness rows, each tagged with the CWE
/// id its primary diagnostic kind renders. The CWE id is looked up through
/// [`lclint_core::DiagKind::cwe`], so the table breaks if the rendered tag
/// and the taxonomy ever drift apart.
pub fn cwe_expansion_table(rows: &[SoundnessRow]) -> Vec<CweRow> {
    use lclint_core::DiagKind;
    use lclint_corpus::differential::static_kinds;
    [BugClass::ReallocLost, BugClass::BufferOverflow, BugClass::OutOfBoundsIndex]
        .iter()
        .map(|class| {
            let kinds = static_kinds(*class);
            let cwe = DiagKind::all()
                .iter()
                .find(|k| k.flag_name() == kinds[0])
                .and_then(DiagKind::cwe)
                .expect("every expansion class has a CWE-mapped primary kind");
            let mut row = CweRow {
                class: class.label().to_owned(),
                cwe,
                static_kinds: kinds.iter().map(|k| (*k).to_owned()).collect(),
                cases: 0,
                oracle_errors: 0,
                tp: 0,
                fp: 0,
                false_negatives: 0,
                expected_fn: 0,
                recall_pct: 100.0,
            };
            for r in rows.iter().filter(|r| r.class == class.label()) {
                row.cases += r.cases;
                row.oracle_errors += r.oracle_errors;
                row.tp += r.tp;
                row.fp += r.fp;
                row.false_negatives += r.false_negatives;
                row.expected_fn += r.expected_fn;
            }
            let covered = row.oracle_errors - row.expected_fn - row.false_negatives;
            let in_scope = covered + row.false_negatives;
            if in_scope > 0 {
                row.recall_pct = 100.0 * covered as f64 / in_scope as f64;
            }
            row
        })
        .collect()
}

/// E9 (library variant): time to check a module + client from full source
/// vs checking the client against the module's interface library (§7's
/// "libraries to store interface information"). Returns `(full_ms, lib_ms)`.
pub fn library_speedup(target_loc: usize) -> (f64, f64) {
    let p = generate(&GenConfig::with_target_loc(target_loc));
    let client =
        "void client(void)\n{\n  m0_list l = m0_create();\n  m0_push(l, 1);\n  m0_final(l);\n}\n";
    // Full-source check.
    let linter = Linter::new(Flags::default());
    let files =
        vec![("mod.c".to_owned(), p.source.clone()), ("client.c".to_owned(), client.to_owned())];
    let start = Instant::now();
    let r =
        linter.check_files(&files, &["mod.c".to_owned(), "client.c".to_owned()]).expect("parses");
    assert!(r.is_clean(), "{}", r.render());
    let full_ms = start.elapsed().as_secs_f64() * 1000.0;
    // Library check: the module is summarized once; only the client is
    // re-checked.
    let (tu, _, _) = lclint_syntax::parse_translation_unit("mod.c", &p.source).expect("parses");
    let lib = lclint_core::library::save(&tu);
    let mut linter = Linter::new(Flags::default());
    linter.add_library("mod.lcs", lib);
    let start = Instant::now();
    let r = linter.check_source("client.c", client).expect("parses");
    assert!(r.is_clean(), "{}", r.render());
    let lib_ms = start.elapsed().as_secs_f64() * 1000.0;
    (full_ms, lib_ms)
}

/// E15: crash resilience under syntax mutation.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// Requested size of the base program in lines.
    pub target_loc: usize,
    /// Actual line count of the base program.
    pub loc: usize,
    /// Syntax mutants checked.
    pub mutants: usize,
    /// Runs that panicked or hard-failed instead of producing a report.
    pub aborts: usize,
    /// `syntax` diagnostics produced across all mutant runs.
    pub syntax_diags: usize,
    /// Function definitions that still parsed across all mutant runs.
    pub surviving_functions: usize,
    /// Baseline diagnostics belonging to surviving functions (denominator).
    pub expected_diags: usize,
    /// Of those, diagnostics reproduced byte-identically on the mutant.
    pub retained_diags: usize,
    /// `retained_diags / expected_diags`, percent.
    pub retention_pct: f64,
}

/// The base program E15 mutates. Half the annotations are stripped, so
/// the baseline has real diagnostics and retention is not vacuous.
fn resilience_base(target_loc: usize) -> lclint_corpus::generator::Generated {
    generate(&GenConfig { annotation_level: 0.5, ..GenConfig::with_target_loc(target_loc) })
}

/// E15: checks `mutants` syntax-broken copies of a generated program and
/// measures (a) that no run aborts and (b) how many diagnostics of the
/// *surviving* functions are still reported byte-identically.
///
/// Mutations other than truncation replace bytes in place, so a surviving
/// function's diagnostics keep their line numbers; a function damaged by the
/// mutation almost always fails to re-parse and drops out of the metric.
pub fn resilience_table(target_loc: usize, mutants: usize, seed: u64) -> ResilienceReport {
    use lclint_corpus::mutator::syntax_mutant_batch;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let base = resilience_base(target_loc);
    let linter = Linter::new(Flags::default());
    let baseline = linter.check_source("gen.c", &base.source).expect("base parses");
    let mut per_fn: BTreeMap<String, Vec<(String, u32, String)>> = BTreeMap::new();
    for d in &baseline.diagnostics {
        if let Some(f) = &d.function {
            per_fn.entry(f.clone()).or_default().push((d.kind.clone(), d.line, d.message.clone()));
        }
    }

    let batch = syntax_mutant_batch(&base.source, mutants, seed);
    let mut report = ResilienceReport {
        target_loc,
        loc: base.loc,
        mutants: batch.len(),
        aborts: 0,
        syntax_diags: 0,
        surviving_functions: 0,
        expected_diags: 0,
        retained_diags: 0,
        retention_pct: 100.0,
    };
    for m in &batch {
        let run = catch_unwind(AssertUnwindSafe(|| linter.check_source("gen.c", &m.source)));
        let result = match run {
            Ok(Ok(r)) => r,
            // A parse `Err` (front end gave up on the whole input) counts as
            // an abort too: the pipeline's contract is a report, always.
            Ok(Err(_)) | Err(_) => {
                report.aborts += 1;
                continue;
            }
        };
        report.syntax_diags += result.diagnostics.iter().filter(|d| d.kind == "syntax").count();
        // Ground truth for what survived: re-parse the mutant and take the
        // function definitions that are still present.
        let Ok((tu, _, _, _)) =
            lclint_syntax::parse_translation_unit_recovering("gen.c", &m.source)
        else {
            continue;
        };
        let survivors = lclint_sema::Program::from_unit(&tu);
        let mutant_keys: std::collections::BTreeSet<(String, String, u32, String)> = result
            .diagnostics
            .iter()
            .filter_map(|d| {
                d.function.as_ref().map(|f| (f.clone(), d.kind.clone(), d.line, d.message.clone()))
            })
            .collect();
        for def in &survivors.defs {
            report.surviving_functions += 1;
            let Some(expected) = per_fn.get(def.sig.name.as_str()) else { continue };
            for (kind, line, message) in expected {
                report.expected_diags += 1;
                if mutant_keys.contains(&(
                    def.sig.name.to_string(),
                    kind.clone(),
                    *line,
                    message.clone(),
                )) {
                    report.retained_diags += 1;
                }
            }
        }
    }
    if report.expected_diags > 0 {
        report.retention_pct = 100.0 * report.retained_diags as f64 / report.expected_diags as f64;
    }
    report
}

// ---------------------------------------------------------------------------
// JSON rendering for `repro --json`
// ---------------------------------------------------------------------------

/// A result value that renders itself as JSON (`repro --json`).
pub trait ToJson {
    /// The value as JSON text.
    fn to_json(&self) -> String;
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> String {
        json::array(self.iter().map(ToJson::to_json))
    }
}

impl ToJson for FigureRow {
    fn to_json(&self) -> String {
        Writer::obj()
            .str("figure", &self.figure)
            .num("paper_messages", self.paper_messages)
            .num("measured_messages", self.measured_messages)
            .done()
    }
}

impl ToJson for StageRow {
    fn to_json(&self) -> String {
        Writer::obj()
            .str("stage", &self.stage)
            .num("null", self.null)
            .num("def", self.def)
            .num("alloc", self.alloc)
            .num("alias", self.alias)
            .num("annotations", self.annotations)
            .done()
    }
}

impl ToJson for ScalingRow {
    fn to_json(&self) -> String {
        Writer::obj()
            .num("loc", self.loc)
            .f64("ms", self.ms)
            .f64("ms_per_kloc", self.ms_per_kloc)
            .done()
    }
}

impl ToJson for SweepRow {
    fn to_json(&self) -> String {
        Writer::obj().f64("level", self.level).num("messages", self.messages).done()
    }
}

impl ToJson for DetectRow {
    fn to_json(&self) -> String {
        Writer::obj()
            .str("class", &self.class)
            .num("static_rate", self.static_rate)
            .raw(
                "dynamic_rates",
                &json::array(self.dynamic_rates.iter().map(|(a, b)| format!("[{a},{b}]"))),
            )
            .done()
    }
}

impl ToJson for IncrRow {
    fn to_json(&self) -> String {
        Writer::obj()
            .str("scenario", &self.scenario)
            .f64("ms", self.ms)
            .f64("check_ms", self.check_ms)
            .num("hits", self.hits)
            .num("misses", self.misses)
            .num("invalidations", self.invalidations)
            .num("checked", self.checked)
            .bool("identical", self.identical)
            .done()
    }
}

impl ToJson for InferRow {
    fn to_json(&self) -> String {
        Writer::obj()
            .f64("level", self.level)
            .num("ground_truth_missing", self.ground_truth_missing)
            .num("recovered", self.recovered)
            .f64("recovery_pct", self.recovery_pct)
            .num("baseline_messages", self.baseline_messages)
            .num("after_messages", self.after_messages)
            .f64("reduction_pct", self.reduction_pct)
            .num("inferred_total", self.inferred_total)
            .f64("ms", self.ms)
            .done()
    }
}

impl ToJson for SoundnessRow {
    fn to_json(&self) -> String {
        Writer::obj()
            .num("modules", self.modules)
            .num("loc", self.loc)
            .str("class", &self.class)
            .num("cases", self.cases)
            .num("oracle_errors", self.oracle_errors)
            .num("tp", self.tp)
            .num("fp", self.fp)
            .num("false_negatives", self.false_negatives)
            .num("expected_fn", self.expected_fn)
            .f64("recall_pct", self.recall_pct)
            .done()
    }
}

impl ToJson for SoundnessClean {
    fn to_json(&self) -> String {
        Writer::obj()
            .num("programs", self.programs)
            .num("static_fp", self.static_fp)
            .num("oracle_errors", self.oracle_errors)
            .num("disagreements", self.disagreements)
            .done()
    }
}

impl ToJson for CweRow {
    fn to_json(&self) -> String {
        Writer::obj()
            .str("class", &self.class)
            .num("cwe", self.cwe as usize)
            .str_arr("static_kinds", &self.static_kinds)
            .num("cases", self.cases)
            .num("oracle_errors", self.oracle_errors)
            .num("tp", self.tp)
            .num("fp", self.fp)
            .num("false_negatives", self.false_negatives)
            .num("expected_fn", self.expected_fn)
            .f64("recall_pct", self.recall_pct)
            .done()
    }
}

impl ToJson for ResilienceReport {
    fn to_json(&self) -> String {
        Writer::obj()
            .num("target_loc", self.target_loc)
            .num("loc", self.loc)
            .num("mutants", self.mutants)
            .num("aborts", self.aborts)
            .num("syntax_diags", self.syntax_diags)
            .num("surviving_functions", self.surviving_functions)
            .num("expected_diags", self.expected_diags)
            .num("retained_diags", self.retained_diags)
            .f64("retention_pct", self.retention_pct)
            .done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_table_matches_paper() {
        for row in figure_table() {
            assert_eq!(row.measured_messages, row.paper_messages, "figure {} diverges", row.figure);
        }
    }

    #[test]
    fn database_table_matches_paper() {
        let rows = database_table();
        let by_name: BTreeMap<&str, &StageRow> =
            rows.iter().map(|r| (r.stage.as_str(), r)).collect();
        assert_eq!(by_name["A"].null, 1);
        assert_eq!(by_name["B"].null, 3);
        assert_eq!(by_name["C"].alloc, 7);
        assert_eq!(by_name["D"].alloc, 6);
        assert_eq!(by_name["E"].alloc, 6);
        assert_eq!(by_name["F"].alloc, 0);
        assert_eq!(by_name["F"].alias, 1);
        assert_eq!(by_name["final"].alias, 0);
        assert_eq!(by_name["final"].annotations, 15);
    }

    #[test]
    fn sweep_is_monotone_decreasing() {
        let rows = annotation_sweep(2_000, &[0.0, 0.5, 1.0]);
        assert!(rows[0].messages >= rows[1].messages);
        assert!(rows[1].messages >= rows[2].messages);
        assert_eq!(rows[2].messages, 0);
    }

    #[test]
    fn incremental_table_hits_on_warm_runs() {
        let rows = incremental_table(2_000);
        let by: BTreeMap<&str, &IncrRow> = rows.iter().map(|r| (r.scenario.as_str(), r)).collect();
        let cold = by["cold"];
        assert_eq!(cold.hits, 0, "{cold:?}");
        assert!(cold.misses > 0, "{cold:?}");
        let warm = by["warm-no-change"];
        assert_eq!(warm.checked, 0, "{warm:?}");
        assert_eq!(warm.hits, cold.misses, "{warm:?}");
        let edit = by["warm-one-edit"];
        assert_eq!(edit.checked, 1, "only the edited function re-checks: {edit:?}");
        for r in &rows {
            assert!(r.identical, "{} diverged from uncached output", r.scenario);
        }
    }

    #[test]
    fn inference_round_trip_meets_the_acceptance_bars() {
        let rows = inference_table(2_000, &[0.0, 1.0]);
        let stripped = &rows[0];
        assert!(stripped.recovery_pct >= 70.0, "recovery at level 0.0 below 70%: {stripped:?}");
        assert!(
            stripped.reduction_pct >= 50.0,
            "message reduction at level 0.0 below 50%: {stripped:?}"
        );
        let full = &rows[1];
        assert_eq!(full.ground_truth_missing, 0, "{full:?}");
        assert_eq!(full.baseline_messages, 0, "{full:?}");
        assert_eq!(
            full.after_messages, 0,
            "inference introduced false positives on the annotated corpus: {full:?}"
        );
    }

    /// ISSUE 4 acceptance bars: per-bug-class recall ≥ 90% on injected
    /// mutants outside the documented expected-FN taxonomy, and a false
    /// positive rate of exactly 0 on the clean fully-annotated corpus.
    #[test]
    fn soundness_meets_the_acceptance_bars() {
        let (rows, clean) = soundness_table(&[1, 2, 4], 2, 1);
        assert_eq!(rows.len(), 3 * BugClass::all().len(), "one row per class per size");
        for row in &rows {
            assert!(row.recall_pct >= 90.0, "recall below the 90% bar: {row:?}");
            assert_eq!(row.fp, 0, "mutant-leg false positive: {row:?}");
            assert_eq!(row.false_negatives, 0, "FN outside the expected-FN taxonomy: {row:?}");
            assert!(row.oracle_errors > 0, "oracle saw nothing — harness broken: {row:?}");
        }
        assert_eq!(clean.static_fp, 0, "false positives on the clean corpus: {clean:?}");
        assert_eq!(clean.oracle_errors, 0, "oracle errors on the clean corpus: {clean:?}");
        assert_eq!(clean.disagreements, 0, "unshrunk disagreements: {clean:?}");
    }

    /// ISSUE 8 acceptance bars: each new CWE-tagged bug class (realloc-lost,
    /// buffer-overflow, oob-index) reaches >= 90% recall with zero false
    /// positives and zero out-of-taxonomy false negatives, and carries the
    /// CWE id its diagnostics render.
    #[test]
    fn e18_cwe_expansion_meets_the_acceptance_bars() {
        let (rows, _) = soundness_table(&[1, 2], 2, 1);
        let table = cwe_expansion_table(&rows);
        assert_eq!(table.len(), 3);
        let by: BTreeMap<&str, &CweRow> = table.iter().map(|r| (r.class.as_str(), r)).collect();
        assert_eq!(by["realloc-lost"].cwe, 401);
        assert_eq!(by["buffer-overflow"].cwe, 787);
        assert_eq!(by["oob-index"].cwe, 125);
        for r in &table {
            assert!(r.cases > 0 && r.oracle_errors > 0, "harness saw nothing: {r:?}");
            assert!(r.recall_pct >= 90.0, "recall below the 90% bar: {r:?}");
            assert_eq!(r.fp, 0, "false positive in an expansion class: {r:?}");
            assert_eq!(r.false_negatives, 0, "FN outside the residual taxonomy: {r:?}");
        }
    }

    /// E15 acceptance bars: 50+ syntax mutants, zero aborts, >=95%
    /// diagnostic retention for the functions the mutation left intact, and
    /// error recovery that changes nothing on error-free input: no errors,
    /// the same items, and the same fingerprint for every function, in order.
    #[test]
    fn resilience_meets_the_acceptance_bars() {
        let r = resilience_table(2_000, 51, 7);
        assert!(r.mutants >= 50, "{r:?}");
        assert_eq!(r.aborts, 0, "a syntax mutant aborted the pipeline: {r:?}");
        assert!(r.syntax_diags > 0, "no mutant produced a syntax diagnostic: {r:?}");
        assert!(r.expected_diags > 0, "baseline produced no diagnostics to retain: {r:?}");
        assert!(r.retention_pct >= 95.0, "retention below the 95% bar: {r:?}");

        use lclint_syntax::ast::Item;
        let base = resilience_base(2_000);
        let (strict, _, _) =
            lclint_syntax::parse_translation_unit("gen.c", &base.source).expect("parses");
        let (recovering, _, _, errors) =
            lclint_syntax::parse_translation_unit_recovering("gen.c", &base.source)
                .expect("parses");
        assert!(errors.is_empty(), "clean input recovered errors: {errors:?}");
        assert_eq!(recovering.items.len(), strict.items.len());
        let fingerprints = |tu: &lclint_syntax::ast::TranslationUnit| -> Vec<u64> {
            tu.items
                .iter()
                .filter_map(|i| match i {
                    Item::Function(f) => Some(lclint_syntax::function_def_hash(&tu.arena, f)),
                    _ => None,
                })
                .collect()
        };
        let strict_fns = fingerprints(&strict);
        assert!(strict_fns.len() > 10, "base program has functions: {}", strict_fns.len());
        assert_eq!(fingerprints(&recovering), strict_fns);
    }

    #[test]
    fn detection_rates_have_the_paper_shape() {
        let rows = detection_table(4, 50, &[1, 50], 9);
        for row in &rows {
            assert_eq!(row.static_rate, 100, "{row:?}");
            let small = row.dynamic_rates[0].1;
            let large = row.dynamic_rates[1].1;
            assert!(large >= small, "{row:?}");
        }
    }
}
