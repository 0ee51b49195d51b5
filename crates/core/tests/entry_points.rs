//! One byte-identity test across every entry point into the check
//! pipeline: batch with and without a cache, a cold session, and a
//! session restarted over a cache directory all end in the same tail.

use lclint_core::{CheckResult, Flags, IncrementalSession, Linter, Session};

/// Every way into the pipeline ends in the same tail, so each renders
/// the same bytes: a disabled class, a suppression comment, a recovered
/// parse error in a middle root and a sema error all come out alike.
#[test]
fn every_entry_point_renders_identically() {
    let files: Vec<(String, String)> = [
        (
            "a.c",
            "extern char *gname;\n\
             void setName(/*@null@*/ char *pname)\n{\n  gname = pname;\n}\n\
             void leak(void)\n{\n  char *p = (char *) malloc(4);\n  if (p != 0) { *p = 'a'; }\n}\n\
             void quiet(/*@null@*/ char *q) { /*@i@*/ *q = 'a'; }\n",
        ),
        ("b.c", "int broken( ;\nvoid use(/*@null@*/ char *r)\n{\n  *r = 'b';\n}\n"),
        (
            "c.c",
            "void dup(void) { }\nvoid dup(void) { }\n\
             void late(void)\n{\n  char *s = (char *) malloc(2);\n  if (s != 0) { free(s); *s = 'c'; }\n}\n",
        ),
    ]
    .iter()
    .map(|(n, t)| (n.to_string(), t.to_string()))
    .collect();
    let roots: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
    let linter = Linter::new(Flags::parse("-mustfree").unwrap());
    let key =
        |r: &CheckResult| (r.render(), r.suppressed, r.sema_errors.clone(), r.counts_by_cwe());

    let batch = key(&linter.check_files(&files, &roots).unwrap());
    let (rendered, suppressed, sema_errors, cwe) = &batch;
    assert!(rendered.contains("b.c:1: Parse error"), "{rendered}");
    assert!(!rendered.contains("not released"), "-mustfree must drop leaks: {rendered}");
    assert_eq!(*suppressed, 1);
    assert_eq!(sema_errors.len(), 1, "{sema_errors:?}");
    assert!(cwe.len() >= 2, "{cwe:?}");

    let mut inc = IncrementalSession::in_memory();
    let cached = linter.check_files_with(&files, &roots, Some(&mut inc)).unwrap();
    assert_eq!(key(&cached), batch, "check_files_with(Some(in_memory))");
    let mut cold = Session::new(linter.clone(), files.clone(), roots.clone());
    assert_eq!(key(&cold.check(None).unwrap()), batch, "cold Session::check");

    let dir = std::env::temp_dir().join(format!("lclint-entry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut first = Session::at_dir(linter.clone(), files.clone(), roots.clone(), &dir).unwrap();
    assert_eq!(key(&first.check(None).unwrap()), batch, "cold Session::at_dir");
    drop(first);
    let mut restarted = Session::at_dir(linter, files, roots, &dir).unwrap();
    let warm = restarted.check(None).unwrap();
    assert!(warm.cache_stats.as_ref().is_some_and(|c| c.hits > 0), "{:?}", warm.cache_stats);
    assert_eq!(key(&warm), batch, "restarted Session::at_dir");
    let _ = std::fs::remove_dir_all(&dir);
}
