//! A warm daemon's responses against a fresh daemon's. A seeded script
//! edits three roots and the header they share through
//! `Daemon::handle_line`: `didChange`s, overlay `check`s, bare `check`s
//! and no-op edits, in any order. Each response, `ms` member cut off,
//! must equal the `check` response of a fresh daemon over the file set the
//! request sees.
//!
//! Each edit kind flips one switch of one file:
//!
//! - `r0.c`: a line move that keeps every byte offset (`int a;   X` to
//!   `int a;\n\n\nX`), where `X` is a global that a diagnostic in `r1.c`
//!   notes: the dependent is re-probed into a diagnostic equal to its old
//!   one, but its note's line changed;
//! - `r1.c`: a body edit above a diagnostic, one below it, and a
//!   `/*@i@*/` on a line with two diagnostics, which consumes the first;
//! - `r2.c`: an `/*@ignore@*/ … /*@end@*/` region over one or two
//!   functions, a second definition of a function (a semantic error), and
//!   a parse error and its fix;
//! - `shared.h`: a line added at its top.
//!
//! The daemon's counters are checked too: a request that changes nothing
//! renders no diagnostic afresh, and a patched edit of a root renders at
//! most that root's diagnostics.

use lclint_core::{Flags, Linter, Session};
use lclint_server::json::{self, Json, Writer};
use lclint_server::Daemon;
use lclint_syntax::rng::SplitMix64;

const ROOTS: [&str; 3] = ["r0.c", "r1.c", "r2.c"];
const HEADER: &str = "shared.h";

/// The switches, by the file each one edits.
const OWNER: [&str; 8] = ["r0.c", "r1.c", "r1.c", "r1.c", "r2.c", "r2.c", "r2.c", HEADER];
const MOVE: usize = 0;
const ABOVE: usize = 1;
const BELOW: usize = 2;
const SUPPRESS: usize = 3;
const END: usize = 4;
const DUP: usize = 5;
const PARSE: usize = 6;
const LINE: usize = 7;
/// The edits of `r1.c` that change a function body only.
const BODY: [usize; 3] = [ABOVE, BELOW, SUPPRESS];

type Switches = [bool; 8];

/// The text of `file` under switches `s`.
fn text(file: &str, s: &Switches) -> String {
    let pick = |k: usize, off: &str, on: &str| if s[k] { on } else { off }.to_owned();
    match file {
        "r0.c" => format!(
            "#include \"shared.h\"\nint a;{}/*@only@*/ char *gname;\n\
             int ga(void)\n{{\n  return a;\n}}\n\
             void leak(void)\n{{\n  char *x = (char *) malloc(2);\n}}\n",
            pick(MOVE, "   ", "\n\n\n")
        ),
        "r1.c" => format!(
            "#include \"shared.h\"\nextern /*@only@*/ char *gname;\n\
             void setName(/*@temp@*/ char *pname)\n{{\n  gname = pname;\n}}\n\
             void two(void)\n{{\n{}  char *p = (char *) malloc(4);\n  char *q = (char *) malloc(4);\n  \
             {}p = 0; q = 0;\n{}}}\n",
            pick(ABOVE, "", "  int pad = 0;\n"),
            pick(SUPPRESS, "", "/*@i@*/ "),
            pick(BELOW, "", "  q = q;\n"),
        ),
        "r2.c" => format!(
            "#include \"shared.h\"\n/*@ignore@*/\n\
             void i1(void) {{ char *q = (char *) malloc(3); }}\n{}\
             void i2(void) {{ char *r = (char *) malloc(3); }}\n{}\
             void u(void) {{ char *s = mk(); }}\n{}\
             int pe(int x) {{ return x + {}; }}\n",
            pick(END, "/*@end@*/\n", ""),
            pick(END, "", "/*@end@*/\n"),
            pick(DUP, "", "int dupl(void) { return 0; }\nint dupl(void) { return 1; }\n"),
            pick(PARSE, "1", ""),
        ),
        _ => format!(
            "{}#ifndef SHARED_H\n#define SHARED_H\nextern /*@only@*/ char *mk(void);\n#endif\n",
            pick(LINE, "", "/* one line more */\n")
        ),
    }
}

fn file_set(s: &Switches) -> Vec<(String, String)> {
    [HEADER].iter().chain(&ROOTS).map(|f| (f.to_string(), text(f, s))).collect()
}

fn daemon(s: &Switches) -> Daemon {
    let roots = ROOTS.iter().map(|r| r.to_string()).collect();
    Daemon::new(Session::new(Linter::new(Flags::default()), file_set(s), roots))
}

/// `ms` is the last member of a check result, so it can be cut textually.
fn strip_ms(resp: &str) -> String {
    match resp.rfind(",\"ms\":") {
        Some(i) => format!("{}}}}}", &resp[..i]),
        None => resp.to_owned(),
    }
}

fn check(id: usize) -> String {
    Writer::obj().num("id", id).str("method", "check").done()
}

fn edit(id: usize, method: &str, file: &str, text: &str) -> String {
    Writer::obj()
        .num("id", id)
        .str("method", method)
        .object("params", |w| w.str("file", file).str("text", text))
        .done()
}

/// The daemon's `rendered`, `rebuilds` and `fast_patches` counters.
fn counters(d: &Daemon) -> [usize; 3] {
    let v = json::parse(&d.handle_line(r#"{"id": 0, "method": "stats"}"#)).unwrap();
    let n = |k: &str| v.get("result").and_then(|r| r.get(k)).and_then(Json::as_usize).unwrap();
    [n("rendered"), n("rebuilds"), n("fast_patches")]
}

/// Diagnostics of a response whose primary location is in `file`.
fn diagnostics_in(resp: &str, file: &str) -> usize {
    let v = json::parse(resp).unwrap();
    let diags = v.get("result").and_then(|r| r.get("diagnostics"));
    let Some(Json::Arr(diags)) = diags else { panic!("no diagnostics: {resp}") };
    diags.iter().filter(|d| d.get("file").and_then(Json::as_str) == Some(file)).count()
}

/// What the script checked besides the bytes: requests that changed
/// nothing, patched body edits, and patched line moves.
#[derive(Debug, Default)]
struct Seen {
    no_ops: usize,
    body_patches: usize,
    moves: usize,
}

fn run_script(seed: u64, steps: usize, seen: &mut Seen) {
    let mut rng = SplitMix64::seeded(seed);
    let mut canonical: Switches = [false; 8];
    let d = daemon(&canonical);
    d.handle_line(&check(1));
    // True while an overlay may be loaded: the next request restores it.
    let mut overlaid = false;
    for step in 0..steps {
        let id = step + 2;
        let k = rng.below(OWNER.len() as u64) as usize;
        let file = OWNER[k];
        let mut flipped = canonical;
        flipped[k] = !flipped[k];
        let (request, sees, changes) = match rng.below(10) {
            0..=3 => (edit(id, "didChange", file, &text(file, &flipped)), flipped, true),
            4..=6 => (edit(id, "check", file, &text(file, &flipped)), flipped, true),
            7 | 8 => (check(id), canonical, false),
            _ => (edit(id, "didChange", file, &text(file, &canonical)), canonical, false),
        };
        let before = counters(&d);
        let got = strip_ms(&d.handle_line(&request));
        let want = strip_ms(&daemon(&sees).handle_line(&check(id)));
        assert_eq!(got, want, "seed {seed} step {step}: {request}");
        let after = counters(&d);
        let [rendered, rebuilds, patches] = [0, 1, 2].map(|i| after[i] - before[i]);
        let patched = rebuilds == 0 && patches == 1;
        let is_change = request.contains("didChange");
        if !changes && !overlaid {
            assert_eq!(rendered, 0, "seed {seed} step {step}: a request that changed nothing");
            seen.no_ops += 1;
        }
        if changes && is_change && !overlaid && patched && BODY.contains(&k) {
            let own = diagnostics_in(&got, file);
            assert!(rendered <= own, "seed {seed} step {step}: {rendered} rendered, {own} own");
            seen.body_patches += 1;
        }
        if changes && k == MOVE && patched {
            seen.moves += 1;
        }
        if is_change {
            canonical = sees;
        }
        overlaid = changes && !is_change;
    }
}

#[test]
fn warm_responses_equal_a_fresh_daemons() {
    let mut seen = Seen::default();
    for seed in 1..=4 {
        run_script(seed, 60, &mut seen);
    }
    // Every property above was exercised, not skipped.
    assert!(seen.no_ops >= 10 && seen.body_patches >= 5 && seen.moves >= 5, "{seen:?}");
}

/// The offset-preserving line move on its own: the dependent's note in
/// `r1.c` must follow the global it notes to its new line.
#[test]
fn a_moved_global_moves_the_note_of_a_dependent_in_another_root() {
    let mut s: Switches = [false; 8];
    let d = daemon(&s);
    let first = d.handle_line(&check(1));
    assert!(first.contains(r#"{"file":"r0.c","line":2,"message":"Storage gname becomes only"}"#));
    s[MOVE] = true;
    assert_eq!(text("r0.c", &s).len(), text("r0.c", &[false; 8]).len());
    let got = strip_ms(&d.handle_line(&edit(2, "didChange", "r0.c", &text("r0.c", &s))));
    assert!(got.contains(r#"{"file":"r0.c","line":5,"message":"Storage gname becomes only"}"#));
    assert_eq!(got, strip_ms(&daemon(&s).handle_line(&check(2))));
    assert_eq!(counters(&d)[2], 1, "the move must patch, not rebuild");
}
