//! Daemon lifecycle: a killed-and-restarted daemon with `--incremental`
//! starts warm (cache hits on the first request).

use lclint_core::{Flags, Linter, Session};
use lclint_server::{json, Daemon};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rlclintd-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn demo_files() -> (Vec<(String, String)>, Vec<String>) {
    let a = "void f(void)\n{\n  char *p = (char *) malloc(4);\n  free(p);\n}\n\
             void g(void)\n{\n  char *p = (char *) malloc(4);\n  p = (char *) 0;\n}\n";
    (vec![("a.c".to_owned(), a.to_owned())], vec!["a.c".to_owned()])
}

/// Cuts the trailing `ms` timing member, the only run-varying bytes.
fn strip_ms(resp: &str) -> String {
    match resp.rfind(",\"ms\":") {
        Some(i) => format!("{}}}}}", &resp[..i]),
        None => resp.to_owned(),
    }
}

fn stats_field(daemon: &Daemon, key: &str) -> usize {
    let r = daemon.handle_line(r#"{"id": 0, "method": "stats"}"#);
    let v = json::parse(&r).unwrap();
    v.get("result").unwrap().get(key).and_then(json::Json::as_usize).unwrap()
}

#[test]
fn restart_with_incremental_dir_starts_warm() {
    let dir = scratch_dir("warm");
    let (files, roots) = demo_files();
    let first = Daemon::new(
        Session::at_dir(Linter::new(Flags::default()), files.clone(), roots.clone(), &dir).unwrap(),
    );
    let cold = first.handle_line(r#"{"id": 1, "method": "check"}"#);
    assert_eq!(stats_field(&first, "cache_hits"), 0, "cold run cannot hit");
    assert!(stats_field(&first, "cache_misses") > 0);
    drop(first); // "kill" — the cache persisted under `dir`.

    let second =
        Daemon::new(Session::at_dir(Linter::new(Flags::default()), files, roots, &dir).unwrap());
    let warm = second.handle_line(r#"{"id": 1, "method": "check"}"#);
    assert_eq!(strip_ms(&warm), strip_ms(&cold), "restart must not change diagnostics");
    assert!(stats_field(&second, "cache_hits") > 0, "restart should start warm");
    assert_eq!(stats_field(&second, "cache_misses"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
