//! Daemon leak regression: repeatedly editing and reverting a file must
//! not grow the interner, the AST arenas or the kept fragments without
//! bound. The interner
//! is process-global, so this test lives alone in its own integration
//! binary — no other test's interning can disturb the counters.

use lclint_core::{Flags, Linter, Session};
use lclint_server::{json, Daemon};

fn stats(daemon: &Daemon) -> (usize, usize, usize, usize, usize) {
    let r = daemon.handle_line(r#"{"id": 0, "method": "stats"}"#);
    let v = json::parse(&r).unwrap();
    let s = v.get("result").unwrap();
    let f = |k: &str| s.get(k).and_then(json::Json::as_usize).unwrap();
    (f("symbols"), f("interned_bytes"), f("arena_bytes"), f("cache_entries"), f("fragment_bytes"))
}

#[test]
fn hundred_edit_revert_cycles_keep_counters_steady() {
    let original = "extern char *gname;\n\
                    void setName(/*@null@*/ char *pname)\n{\n  gname = pname;\n}\n\
                    void helper(void)\n{\n  char *buf = (char *) malloc(16);\n  free(buf);\n}\n";
    let edited = original.replace("  free(buf);", "  buf[0] = 'x';\n  free(buf);");
    let files = vec![("a.c".to_owned(), original.to_owned())];
    let daemon =
        Daemon::new(Session::new(Linter::new(Flags::default()), files, vec!["a.c".to_owned()]));

    let request = |text: &str| {
        let mut t = String::new();
        json::write_escaped(&mut t, text);
        format!(r#"{{"id": 1, "method": "didChange", "params": {{"file": "a.c", "text": {t}}}}}"#)
    };

    // One warm-up cycle so both contents have been interned and cached.
    daemon.handle_line(&request(&edited));
    daemon.handle_line(&request(original));
    let warm = stats(&daemon);

    for _ in 0..100 {
        daemon.handle_line(&request(&edited));
        daemon.handle_line(&request(original));
    }
    let after = stats(&daemon);
    assert_eq!(after.0, warm.0, "symbol count grew across edit-revert cycles");
    assert_eq!(after.1, warm.1, "interned bytes grew across edit-revert cycles");
    assert_eq!(after.2, warm.2, "arena bytes grew across edit-revert cycles");
    assert_eq!(after.3, warm.3, "cache entries grew across edit-revert cycles");
    assert!(warm.4 > 0, "the edited file's diagnostics are kept as fragments");
    assert_eq!(after.4, warm.4, "fragment bytes moved across edit-revert cycles");
}
