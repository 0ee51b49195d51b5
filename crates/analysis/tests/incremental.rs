//! Cache invalidation precision: editing a shared declaration re-checks
//! every dependent function — and *only* those.

use lclint_analysis::{check_program, check_program_cached, AnalysisOptions, CasStore, CheckCache};
use lclint_sema::Program;
use lclint_syntax::parse_translation_unit;

fn program(src: &str) -> Program {
    let (tu, _, _) = parse_translation_unit("t.c", src).unwrap();
    let p = Program::from_unit(&tu);
    assert!(p.errors.is_empty(), "sema errors: {:?}", p.errors);
    p
}

fn run(cache: &mut CheckCache, p: &Program) -> (Vec<String>, Vec<lclint_analysis::Diagnostic>) {
    let opts = AnalysisOptions::default();
    let diags = check_program_cached(p, &opts, 0, cache);
    let stats = cache.take_stats();
    assert_eq!(stats.lookups(), p.defs.len(), "every definition must be probed exactly once");
    (stats.checked, diags)
}

/// Three functions: `uses_t` depends on typedef `t`, `calls_get` on the
/// prototype of `get`, `independent` on neither.
const BASE: &str = "typedef char *t;\n\
                    extern char *get(void);\n\
                    void uses_t(void) { t x = 0; if (x != 0) { *x = 'a'; } }\n\
                    void calls_get(void) { char *p = get(); if (p != 0) { *p = 'a'; } }\n\
                    void independent(int v) { int y; if (v > 0) { y = v; } else { y = 0; } if (y > 0) { v = y; } }\n";

/// A definition the backing store serves is a hit like one held in
/// memory: a fresh cache over a store another cache warmed probes every
/// definition once and reuses every one.
#[test]
fn store_served_definitions_count_as_hits() {
    let dir = std::env::temp_dir().join(format!("lclint-store-hits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let p = program(BASE);
    let mut first = CheckCache::new();
    first.set_backing(CasStore::open(&dir, None).unwrap());
    let (cold_checked, cold) = run(&mut first, &p);
    assert_eq!(cold_checked.len(), p.defs.len());

    let mut fresh = CheckCache::new();
    fresh.set_backing(CasStore::open(&dir, None).unwrap());
    let warm = check_program_cached(&p, &AnalysisOptions::default(), 0, &mut fresh);
    let stats = fresh.take_stats();
    assert_eq!(warm, cold);
    assert!(stats.checked.is_empty(), "re-checked: {:?}", stats.checked);
    assert_eq!((stats.hits, stats.lookups()), (p.defs.len(), p.defs.len()), "{stats:?}");
    assert_eq!(fresh.backing_stats().unwrap().hits, p.defs.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_run_checks_nothing_and_matches_cold() {
    let p = program(BASE);
    let mut cache = CheckCache::new();
    let (cold_checked, cold) = run(&mut cache, &p);
    assert_eq!(cold_checked.len(), 3);
    let (warm_checked, warm) = run(&mut cache, &p);
    assert!(warm_checked.is_empty(), "re-checked: {warm_checked:?}");
    assert_eq!(cold, warm, "warm diagnostics must be identical to cold");
    assert_eq!(warm, check_program(&p, &AnalysisOptions::default()));
}

#[test]
fn typedef_edit_recchecks_only_dependents() {
    let p1 = program(BASE);
    let mut cache = CheckCache::new();
    run(&mut cache, &p1);

    let edited = BASE.replace("typedef char *t;", "typedef /*@null@*/ char *t;");
    let p2 = program(&edited);
    let (checked, diags) = run(&mut cache, &p2);
    assert_eq!(checked, vec!["uses_t".to_owned()], "only the typedef user re-checks");
    assert_eq!(diags, check_program(&p2, &AnalysisOptions::default()));
}

#[test]
fn callee_annotation_edit_recchecks_only_callers() {
    let p1 = program(BASE);
    let mut cache = CheckCache::new();
    run(&mut cache, &p1);

    let edited = BASE.replace("extern char *get(void);", "extern /*@null@*/ char *get(void);");
    let p2 = program(&edited);
    let (checked, diags) = run(&mut cache, &p2);
    assert_eq!(checked, vec!["calls_get".to_owned()], "only the caller re-checks");
    // The annotation makes the unguarded result possibly null; the guard in
    // calls_get keeps it clean — what matters is equality with a cold run.
    assert_eq!(diags, check_program(&p2, &AnalysisOptions::default()));
}

#[test]
fn struct_body_edit_recchecks_dependents() {
    let src = "struct _box { int v; };\n\
               void uses_box(void) { struct _box b; b.v = 1; if (b.v > 0) { b.v = 0; } }\n\
               void other(void) { int x; x = 1; if (x > 0) { x = 0; } }\n";
    let p1 = program(src);
    let mut cache = CheckCache::new();
    run(&mut cache, &p1);

    let edited = src.replace("struct _box { int v; };", "struct _box { int v; int w; };");
    let p2 = program(&edited);
    let (checked, _) = run(&mut cache, &p2);
    assert_eq!(checked, vec!["uses_box".to_owned()], "only the struct user re-checks");
}

#[test]
fn body_edit_recchecks_only_that_function() {
    let p1 = program(BASE);
    let mut cache = CheckCache::new();
    run(&mut cache, &p1);

    let edited = BASE.replace(
        "void independent(int v) { int y;",
        "void independent(int v) { int y; int z; z = v; v = z;",
    );
    let p2 = program(&edited);
    let (checked, diags) = run(&mut cache, &p2);
    assert_eq!(checked, vec!["independent".to_owned()]);
    assert_eq!(diags, check_program(&p2, &AnalysisOptions::default()));
}

#[test]
fn introducing_a_symbol_invalidates_previous_absence() {
    // `f` calls an undeclared function; once a prototype appears, `f` must
    // re-check (absence was a recorded dependency).
    let src1 = "void f(void) { helper(); }\n";
    let src2 = "extern void helper(void);\nvoid f(void) { helper(); }\n";
    let p1 = program(src1);
    let mut cache = CheckCache::new();
    run(&mut cache, &p1);
    let p2 = program(src2);
    let (checked, _) = run(&mut cache, &p2);
    assert_eq!(checked, vec!["f".to_owned()]);
}

#[test]
fn cached_output_is_jobs_invariant() {
    // Functions with real diagnostics, moved around between runs: the warm
    // result must rebase spans and stay byte-identical for any job count.
    let src = "extern char *gname;\n\
               void setName(/*@null@*/ char *pname)\n{\n  gname = pname;\n}\n\
               void leak(void)\n{\n  char *p = (char *) malloc(4);\n  if (p != 0) { *p = 'a'; }\n}\n\
               extern /*@null out only@*/ void *malloc(int size);\n";
    let moved = format!("/* prologue comment */\n\n{src}");
    let p1 = program(src);
    let p2 = program(&moved);
    // The cold run's counters, `checked` order included, and every stored
    // entry, as the first job count left them.
    let mut first_cold = None;
    for jobs in [1usize, 2, 4] {
        let opts = AnalysisOptions { jobs, ..Default::default() };
        let mut cache = CheckCache::new();
        let cold = check_program_cached(&p1, &opts, 0, &mut cache);
        assert_eq!(cold, check_program(&p1, &opts), "jobs={jobs}");
        let stats = cache.take_stats();
        assert_eq!(stats.misses, 2, "jobs={jobs}: {stats:?}");
        let mut entries: Vec<_> =
            cache.entries().map(|(name, e)| (name.to_string(), e.clone())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let observed = (stats, entries);
        assert_eq!(first_cold.get_or_insert_with(|| observed.clone()), &observed, "jobs={jobs}");

        let warm = check_program_cached(&p2, &opts, 0, &mut cache);
        let stats = cache.take_stats();
        assert_eq!(stats.hits, 2, "jobs={jobs}: {stats:?}");
        assert_eq!(warm, check_program(&p2, &opts), "rebased warm output, jobs={jobs}");
    }
}

#[test]
fn inference_does_not_poison_the_cache() {
    // `--infer` runs above `check_program_cached` and never writes to the
    // cache: a warm session must stay warm, with byte-identical
    // diagnostics, across an inference pass over the same program.
    let src = "extern /*@null out only@*/ void *malloc(int size);\n\
               char *mk(void)\n{\n  char *p = (char *) malloc(4);\n  return p;\n}\n\
               void lose(void)\n{\n  char *q = (char *) malloc(4);\n  if (q != 0) { *q = 'a'; }\n}\n";
    let p = program(src);
    let opts = AnalysisOptions::default();
    let mut cache = CheckCache::new();
    let cold = check_program_cached(&p, &opts, 0, &mut cache);
    let stats = cache.take_stats();
    assert_eq!(stats.misses, 2, "{stats:?}");

    let inferred = lclint_analysis::infer_annotations(&p, &opts);
    assert!(!inferred.is_empty(), "inference found nothing to recover");

    let warm = check_program_cached(&p, &opts, 0, &mut cache);
    let stats = cache.take_stats();
    assert_eq!(stats.hits, 2, "inference invalidated cache entries: {stats:?}");
    assert_eq!(stats.misses, 0, "{stats:?}");
    assert!(stats.checked.is_empty(), "re-checked after inference: {:?}", stats.checked);
    assert_eq!(cold, warm, "diagnostics changed across an inference pass");
}

#[test]
fn options_change_invalidates_everything() {
    let p = program(BASE);
    let mut cache = CheckCache::new();
    run(&mut cache, &p);
    let opts = AnalysisOptions { gc_mode: true, ..Default::default() };
    check_program_cached(&p, &opts, 0, &mut cache);
    let stats = cache.take_stats();
    assert_eq!(stats.invalidations, 3, "{stats:?}");
    // jobs is not part of the digest: changing it alone still hits.
    let mut opts2 = opts.clone();
    opts2.jobs = 7;
    check_program_cached(&p, &opts2, 0, &mut cache);
    let stats = cache.take_stats();
    assert_eq!(stats.hits, 3, "{stats:?}");
}

#[test]
fn library_digest_is_part_of_the_fingerprint() {
    let p = program(BASE);
    let mut cache = CheckCache::new();
    let opts = AnalysisOptions::default();
    check_program_cached(&p, &opts, 1, &mut cache);
    cache.take_stats();
    check_program_cached(&p, &opts, 2, &mut cache);
    let stats = cache.take_stats();
    assert_eq!(stats.invalidations, 3, "{stats:?}");
}

#[test]
fn ice_degraded_function_is_never_cached() {
    // A function that panics inside the checker must produce its `internal`
    // diagnostic from a fresh run every time: caching an ICE would make a
    // transient checker bug permanent for that fingerprint.
    let p = program(BASE);
    let opts =
        AnalysisOptions { debug_panic_fn: Some("independent".to_owned()), ..Default::default() };
    let mut cache = CheckCache::new();
    let cold = check_program_cached(&p, &opts, 0, &mut cache);
    assert!(
        cold.iter().any(|d| d.kind == lclint_analysis::DiagKind::InternalError),
        "injected panic must surface as an internal diagnostic: {cold:?}"
    );
    let stats = cache.take_stats();
    assert_eq!(stats.misses, 3, "{stats:?}");
    assert_eq!(stats.degraded, 1, "the ICE'd function must not be stored: {stats:?}");

    // Warm, same input and options: healthy functions hit, the ICE'd one
    // re-checks (and degrades again, deterministically).
    let warm = check_program_cached(&p, &opts, 0, &mut cache);
    let stats = cache.take_stats();
    assert_eq!(stats.hits, 2, "{stats:?}");
    assert_eq!(stats.checked, vec!["independent".to_owned()], "{stats:?}");
    assert_eq!(stats.degraded, 1, "{stats:?}");
    assert_eq!(cold, warm, "degraded output must be stable across runs");
}

#[test]
fn budget_degraded_function_is_never_cached() {
    // One function far over the step budget, one far under. Only the
    // over-budget one degrades, and it re-checks on every warm run.
    let mut big = String::from("void big(int v)\n{\n  int a; a = v;\n");
    for _ in 0..60 {
        big.push_str("  a = a + 1;\n");
    }
    big.push_str("  if (a > 0) { a = 0; }\n}\n");
    let src = format!("{big}void small(void)\n{{\n  int x; x = 1;\n}}\n");
    let p = program(&src);
    let opts = AnalysisOptions { max_steps: Some(50), ..Default::default() };
    let mut cache = CheckCache::new();
    let cold = check_program_cached(&p, &opts, 0, &mut cache);
    assert!(
        cold.iter().any(|d| d.kind == lclint_analysis::DiagKind::BudgetExceeded),
        "big must exceed the 50-step budget: {cold:?}"
    );
    let stats = cache.take_stats();
    assert_eq!(stats.degraded, 1, "{stats:?}");

    let warm = check_program_cached(&p, &opts, 0, &mut cache);
    let stats = cache.take_stats();
    assert_eq!(stats.hits, 1, "small must hit: {stats:?}");
    assert_eq!(stats.checked, vec!["big".to_owned()], "{stats:?}");
    assert_eq!(cold, warm);

    // Shrinking the body under the budget re-checks big, stores it, and a
    // further warm run is fully cached.
    let shrunk = src.replace("  a = a + 1;\n", "");
    let p2 = program(&shrunk);
    let relieved = check_program_cached(&p2, &opts, 0, &mut cache);
    assert!(
        !relieved.iter().any(|d| d.kind == lclint_analysis::DiagKind::BudgetExceeded),
        "shrunk body must fit the budget: {relieved:?}"
    );
    let stats = cache.take_stats();
    assert_eq!(stats.checked, vec!["big".to_owned()], "{stats:?}");
    assert_eq!(stats.degraded, 0, "{stats:?}");
    let warm2 = check_program_cached(&p2, &opts, 0, &mut cache);
    let stats = cache.take_stats();
    assert_eq!(stats.hits, 2, "{stats:?}");
    assert_eq!(relieved, warm2);
}

#[test]
fn new_class_diagnostics_cache_and_invalidate() {
    // The CWE-expansion diagnostics (realloclost, boundsindex) flow through
    // the cache like any other kind: warm runs are byte-identical without
    // re-checking, and an edit that grows a capacity re-checks only the
    // edited function and drops its bounds diagnostic.
    let src = "extern /*@null@*/ /*@out@*/ /*@only@*/ void *malloc(int size);\n\
               extern /*@null@*/ /*@out@*/ /*@only@*/ void *realloc(/*@null@*/ /*@partial@*/ /*@only@*/ void *ptr, int size);\n\
               extern void free(/*@null@*/ /*@out@*/ /*@only@*/ void *ptr);\n\
               extern void assert(int expression);\n\
               void lose(void)\n{\n  char *grow = (char *) malloc(4);\n  assert(grow != NULL);\n  grow = (char *) realloc(grow, 8);\n}\n\
               void index_oob(void)\n{\n  int *tiny = (int *) malloc(3);\n  assert(tiny != NULL);\n  tiny[4] = 1;\n  free(tiny);\n}\n";
    let p = program(src);
    let mut cache = CheckCache::new();
    let (cold_checked, cold) = run(&mut cache, &p);
    assert_eq!(cold_checked.len(), 2);
    assert!(
        cold.iter().any(|d| d.kind == lclint_analysis::DiagKind::ReallocLost),
        "missing realloclost: {cold:?}"
    );
    assert!(
        cold.iter().any(|d| d.kind == lclint_analysis::DiagKind::OutOfBoundsIndex),
        "missing boundsindex: {cold:?}"
    );

    let (warm_checked, warm) = run(&mut cache, &p);
    assert!(warm_checked.is_empty(), "re-checked: {warm_checked:?}");
    assert_eq!(cold, warm, "warm new-class diagnostics must be identical to cold");

    let edited = src.replace("malloc(3)", "malloc(8)");
    let p2 = program(&edited);
    let (checked, diags) = run(&mut cache, &p2);
    assert_eq!(checked, vec!["index_oob".to_owned()], "only the edited function re-checks");
    assert!(
        !diags.iter().any(|d| d.kind == lclint_analysis::DiagKind::OutOfBoundsIndex),
        "grown capacity must clear the bounds diagnostic: {diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.kind == lclint_analysis::DiagKind::ReallocLost),
        "cached realloclost must survive the unrelated edit: {diags:?}"
    );
    assert_eq!(diags, check_program(&p2, &AnalysisOptions::default()));
}

#[test]
fn review_intra_function_whitespace_edit() {
    let src = "extern /*@null out only@*/ void *malloc(int size);\n\
               void leak(void)\n{\n  char *p = (char *) malloc(4);\n  if (p != 0) { *p = 'a'; }\n}\n";
    // Insert extra whitespace INSIDE the function body (token stream unchanged).
    let edited = src.replace("  char *p", "        char *p");
    let p1 = program(src);
    let p2 = program(&edited);
    let opts = AnalysisOptions::default();
    let mut cache = CheckCache::new();
    let _ = check_program_cached(&p1, &opts, 0, &mut cache);
    cache.take_stats();
    let warm = check_program_cached(&p2, &opts, 0, &mut cache);
    let stats = cache.take_stats();
    eprintln!("stats: hits={} misses={} inval={}", stats.hits, stats.misses, stats.invalidations);
    let cold = check_program(&p2, &opts);
    assert_eq!(warm, cold, "warm spans must match a cold run after intra-function whitespace edit");
}
