//! The daemon's exact response bytes. A check result carries diagnostics
//! with notes, a message with `"`, `\` and a tab, a sema error, a
//! suppressed report and a non-ASCII file name; the error and shutdown
//! responses cover every shape of `id`. Only the run-varying `ms` member
//! is cut off before comparing.

use lclint_core::{Flags, Linter, Session};
use lclint_server::json;
use lclint_server::Daemon;

const A: &str = "void f(void)\n{\n  char *p = (char *) malloc(4);\n  p = \"a\\\\b\\\"c\\td\";\n}\n\
                 void g(void)\n{\n  char buf[5];\n  strcpy(buf, \"abcdef\");\n}\n\
                 int f2(void) { return 0; }\nint f2(void) { return 1; }\n\
                 /*@ignore@*/\nvoid h(void) { char *q = (char *) malloc(3); }\n/*@end@*/\n";
const B: &str = "#include \"no\tpe\\\\\\\"x\u{1}\u{e9}.h\"\nint k;\n";
const B_NAME: &str = "b\u{e9}\u{1f600}.c";

fn daemon() -> Daemon {
    let files = vec![("a.c".to_owned(), A.to_owned()), (B_NAME.to_owned(), B.to_owned())];
    let roots = files.iter().map(|(n, _)| n.clone()).collect();
    Daemon::new(Session::new(Linter::new(Flags::default()), files, roots))
}

/// `ms` is the last member of a check result, so it can be cut textually.
fn strip_ms(resp: &str) -> String {
    match resp.rfind(",\"ms\":") {
        Some(i) => format!("{}}}}}", &resp[..i]),
        None => resp.to_owned(),
    }
}

fn request(id: &str, method: &str, file: &str, text: &str) -> String {
    format!(
        r#"{{"id": {id}, "method": "{method}", "params": {{"file": {}, "text": {}}}}}"#,
        json::quote(file),
        json::quote(text)
    )
}

const EXPECTED: [&str; 8] = [
    r#"{"id":1,"result":{"clean":false,"diagnostics":[{"file":"a.c","line":4,"col":3,"kind":"mustfree","message":"Fresh storage p not released before assignment","function":"f","notes":[{"file":"a.c","line":3,"message":"Storage p allocated"}]},{"file":"a.c","line":9,"col":3,"kind":"boundswrite","message":"Buffer overflow in call to strcpy: 7 bytes written into buf (capacity 5)","function":"g","notes":[{"file":"a.c","line":8,"message":"Storage buf has capacity 5"}]},{"file":"bé😀.c","line":1,"col":1,"kind":"syntax","message":"Parse error: cannot open include file `no\tpe\\\"x\u0001Ã©.h`","function":null,"notes":[]}],"suppressed":1,"sema_errors":["a.c:12: function `f2` defined more than once"],"rendered":"a.c:4: Fresh storage p not released before assignment [CWE-401]\n   a.c:3: Storage p allocated\na.c:9: Buffer overflow in call to strcpy: 7 bytes written into buf (capacity 5) [CWE-787]\n   a.c:8: Storage buf has capacity 5\nbé😀.c:1: Parse error: cannot open include file `no\tpe\\\"x\u0001Ã©.h`\n"}}"#,
    r#"{"id":2,"result":{"clean":false,"diagnostics":[{"file":"a.c","line":4,"col":3,"kind":"mustfree","message":"Fresh storage p not released before assignment","function":"f","notes":[{"file":"a.c","line":3,"message":"Storage p allocated"}]},{"file":"a.c","line":9,"col":3,"kind":"boundswrite","message":"Buffer overflow in call to strcpy: 7 bytes written into buf (capacity 5)","function":"g","notes":[{"file":"a.c","line":8,"message":"Storage buf has capacity 5"}]}],"suppressed":1,"sema_errors":["a.c:12: function `f2` defined more than once"],"rendered":"a.c:4: Fresh storage p not released before assignment [CWE-401]\n   a.c:3: Storage p allocated\na.c:9: Buffer overflow in call to strcpy: 7 bytes written into buf (capacity 5) [CWE-787]\n   a.c:8: Storage buf has capacity 5\n"}}"#,
    r#"{"id":3,"result":{"clean":false,"diagnostics":[{"file":"a.c","line":10,"col":3,"kind":"boundswrite","message":"Buffer overflow in call to strcpy: 7 bytes written into buf (capacity 5)","function":"g","notes":[{"file":"a.c","line":9,"message":"Storage buf has capacity 5"}]},{"file":"bé😀.c","line":1,"col":1,"kind":"syntax","message":"Parse error: cannot open include file `no\tpe\\\"x\u0001Ã©.h`","function":null,"notes":[]}],"suppressed":1,"sema_errors":["a.c:13: function `f2` defined more than once"],"rendered":"a.c:10: Buffer overflow in call to strcpy: 7 bytes written into buf (capacity 5) [CWE-787]\n   a.c:9: Storage buf has capacity 5\nbé😀.c:1: Parse error: cannot open include file `no\tpe\\\"x\u0001Ã©.h`\n"}}"#,
    r#"{"id":2.500,"result":{"clean":false,"diagnostics":[{"file":"a.c","line":4,"col":3,"kind":"mustfree","message":"Fresh storage p not released before assignment","function":"f","notes":[{"file":"a.c","line":3,"message":"Storage p allocated"}]},{"file":"a.c","line":9,"col":3,"kind":"boundswrite","message":"Buffer overflow in call to strcpy: 7 bytes written into buf (capacity 5)","function":"g","notes":[{"file":"a.c","line":8,"message":"Storage buf has capacity 5"}]},{"file":"bé😀.c","line":1,"col":1,"kind":"syntax","message":"Parse error: cannot open include file `no\tpe\\\"x\u0001Ã©.h`","function":null,"notes":[]}],"suppressed":1,"sema_errors":["a.c:12: function `f2` defined more than once"],"rendered":"a.c:4: Fresh storage p not released before assignment [CWE-401]\n   a.c:3: Storage p allocated\na.c:9: Buffer overflow in call to strcpy: 7 bytes written into buf (capacity 5) [CWE-787]\n   a.c:8: Storage buf has capacity 5\nbé😀.c:1: Parse error: cannot open include file `no\tpe\\\"x\u0001Ã©.h`\n"}}"#,
    r#"{"id":null,"error":{"message":"bad request: expected `\"` at offset 1"}}"#,
    r#"{"id":-3.000,"error":{"message":"unknown method `frobnicate`"}}"#,
    r#"{"id":4,"error":{"message":"check/didChange take both `file` and `text` or neither"}}"#,
    r#"{"id":5,"result":{"ok":true}}"#,
];

#[test]
fn check_and_error_responses_are_pinned_byte_for_byte() {
    let d = daemon();
    let fixed = A.replace("  p = \"a", "  free(p);\n  p = \"a");
    let requests = [
        r#"{"id": 1, "method": "check"}"#.to_owned(),
        request("2", "check", B_NAME, "int k;\n"),
        request("3", "didChange", "a.c", &fixed),
        request("2.5", "check", "a.c", A),
        "{nope".to_owned(),
        r#"{"id": -3, "method": "frobnicate"}"#.to_owned(),
        r#"{"id": 4, "method": "check", "params": {"file": "a.c"}}"#.to_owned(),
        r#"{"id": 5, "method": "shutdown"}"#.to_owned(),
    ];
    let got: Vec<String> = requests.iter().map(|r| strip_ms(&d.handle_line(r))).collect();
    for (k, (got, want)) in got.iter().zip(EXPECTED).enumerate() {
        assert_eq!(got, want, "response {k}");
    }
}

/// A client that escapes non-BMP characters as surrogate pairs (Python's
/// `json.dumps` does by default) gets the diagnostics of the text it
/// meant: the pair decodes to one four-byte character, not two U+FFFD.
#[test]
fn surrogate_pair_escapes_check_the_text_the_client_sent() {
    let raw = "void g(void)\n{\n  char buf[5];\n  strcpy(buf, \"ab\u{1f600}\");\n}\n";
    let files = vec![("s.c".to_owned(), raw.to_owned())];
    let roots = vec!["s.c".to_owned()];
    let cold = Linter::new(Flags::default()).check_files(&files, &roots).unwrap().render();
    assert!(cold.contains("7 bytes written into buf"), "{cold}");

    let escaped = json::quote(raw).replace('\u{1f600}', "\\ud83d\\ude00");
    assert!(escaped.is_ascii());
    let d = Daemon::new(Session::new(Linter::new(Flags::default()), files, roots));
    let resp = d.handle_line(&format!(
        r#"{{"id": 1, "method": "didChange", "params": {{"file": "s.c", "text": {escaped}}}}}"#
    ));
    let v = json::parse(&resp).unwrap();
    let rendered = v.get("result").and_then(|r| r.get("rendered")).and_then(json::Json::as_str);
    assert_eq!(rendered, Some(cold.as_str()), "{resp}");
}

const WARM_A: &str =
    "void f(void)\n{\n  char *p = (char *) malloc(4);\n  p = \"a\\\\b\\\"c\\td\";\n}\n\
                      void g(void)\n{\n  char buf[5];\n  strcpy(buf, \"abcdef\");\n}\n\
                      /*@ignore@*/\nvoid h(void) { char *q = (char *) malloc(3); }\n/*@end@*/\n";

const WARM_EXPECTED: [&str; 4] = [
    r#"{"id":1,"result":{"clean":false,"diagnostics":[{"file":"a.c","line":4,"col":3,"kind":"mustfree","message":"Fresh storage p not released before assignment","function":"f","notes":[{"file":"a.c","line":3,"message":"Storage p allocated"}]},{"file":"a.c","line":9,"col":3,"kind":"boundswrite","message":"Buffer overflow in call to strcpy: 7 bytes written into buf (capacity 5)","function":"g","notes":[{"file":"a.c","line":8,"message":"Storage buf has capacity 5"}]},{"file":"bé😀.c","line":1,"col":1,"kind":"syntax","message":"Parse error: cannot open include file `no\tpe\\\"x\u0001Ã©.h`","function":null,"notes":[]}],"suppressed":1,"sema_errors":[],"rendered":"a.c:4: Fresh storage p not released before assignment [CWE-401]\n   a.c:3: Storage p allocated\na.c:9: Buffer overflow in call to strcpy: 7 bytes written into buf (capacity 5) [CWE-787]\n   a.c:8: Storage buf has capacity 5\nbé😀.c:1: Parse error: cannot open include file `no\tpe\\\"x\u0001Ã©.h`\n"}}"#,
    r#"{"id":2,"result":{"clean":false,"diagnostics":[{"file":"a.c","line":4,"col":3,"kind":"mustfree","message":"Fresh storage p not released before assignment","function":"f","notes":[{"file":"a.c","line":3,"message":"Storage p allocated"}]},{"file":"a.c","line":10,"col":3,"kind":"boundswrite","message":"Buffer overflow in call to strcpy: 7 bytes written into buf (capacity 5)","function":"g","notes":[{"file":"a.c","line":9,"message":"Storage buf has capacity 5"}]},{"file":"bé😀.c","line":1,"col":1,"kind":"syntax","message":"Parse error: cannot open include file `no\tpe\\\"x\u0001Ã©.h`","function":null,"notes":[]}],"suppressed":1,"sema_errors":[],"rendered":"a.c:4: Fresh storage p not released before assignment [CWE-401]\n   a.c:3: Storage p allocated\na.c:10: Buffer overflow in call to strcpy: 7 bytes written into buf (capacity 5) [CWE-787]\n   a.c:9: Storage buf has capacity 5\nbé😀.c:1: Parse error: cannot open include file `no\tpe\\\"x\u0001Ã©.h`\n"}}"#,
    r#"{"id":3,"result":{"clean":false,"diagnostics":[{"file":"a.c","line":4,"col":3,"kind":"mustfree","message":"Fresh storage p not released before assignment","function":"f","notes":[{"file":"a.c","line":3,"message":"Storage p allocated"}]},{"file":"a.c","line":9,"col":3,"kind":"boundswrite","message":"Buffer overflow in call to strcpy: 7 bytes written into buf (capacity 5)","function":"g","notes":[{"file":"a.c","line":8,"message":"Storage buf has capacity 5"}]},{"file":"bé😀.c","line":1,"col":1,"kind":"syntax","message":"Parse error: cannot open include file `no\tpe\\\"x\u0001Ã©.h`","function":null,"notes":[]}],"suppressed":1,"sema_errors":[],"rendered":"a.c:4: Fresh storage p not released before assignment [CWE-401]\n   a.c:3: Storage p allocated\na.c:9: Buffer overflow in call to strcpy: 7 bytes written into buf (capacity 5) [CWE-787]\n   a.c:8: Storage buf has capacity 5\nbé😀.c:1: Parse error: cannot open include file `no\tpe\\\"x\u0001Ã©.h`\n"}}"#,
    r#"{"id":4,"result":{"clean":false,"diagnostics":[{"file":"a.c","line":10,"col":3,"kind":"boundswrite","message":"Buffer overflow in call to strcpy: 7 bytes written into buf (capacity 5)","function":"g","notes":[{"file":"a.c","line":9,"message":"Storage buf has capacity 5"}]},{"file":"bé😀.c","line":1,"col":1,"kind":"syntax","message":"Parse error: cannot open include file `no\tpe\\\"x\u0001Ã©.h`","function":null,"notes":[]}],"suppressed":1,"sema_errors":[],"rendered":"a.c:10: Buffer overflow in call to strcpy: 7 bytes written into buf (capacity 5) [CWE-787]\n   a.c:9: Storage buf has capacity 5\nbé😀.c:1: Parse error: cannot open include file `no\tpe\\\"x\u0001Ã©.h`\n"}}"#,
];

/// A warm daemon's responses: an overlay that moves `g`'s diagnostic and
/// note down a line while `f`'s stay, a bare check that undoes it, and an
/// edit that drops `f`'s diagnostic and moves `g`'s. `a.c` has no
/// semantic error here, so the overlay and the edit patch in place and
/// the check swaps the canonical parse back.
#[test]
fn warm_responses_are_pinned_byte_for_byte() {
    let files = vec![("a.c".to_owned(), WARM_A.to_owned()), (B_NAME.to_owned(), B.to_owned())];
    let roots = files.iter().map(|(n, _)| n.clone()).collect();
    let d = Daemon::new(Session::new(Linter::new(Flags::default()), files, roots));
    let shifted = WARM_A.replace("void g(void)", "/* one line more */\nvoid g(void)");
    let fixed = WARM_A.replace("  p = \"a", "  free(p);\n  p = \"a");
    let requests = [
        r#"{"id": 1, "method": "check"}"#.to_owned(),
        request("2", "check", "a.c", &shifted),
        r#"{"id": 3, "method": "check"}"#.to_owned(),
        request("4", "didChange", "a.c", &fixed),
    ];
    for (k, (r, want)) in requests.iter().zip(WARM_EXPECTED).enumerate() {
        assert_eq!(strip_ms(&d.handle_line(r)), want, "response {k}");
    }
    let stats = json::parse(&d.handle_line(r#"{"id": 5, "method": "stats"}"#)).unwrap();
    let n = |k: &str| stats.get("result").and_then(|r| r.get(k)).and_then(json::Json::as_usize);
    assert_eq!((n("rebuilds"), n("fast_patches"), n("swaps")), (Some(1), Some(2), Some(1)));
}
