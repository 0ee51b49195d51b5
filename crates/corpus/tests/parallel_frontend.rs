//! The parallel front end over generated multi-file corpora: the output
//! is the same for every worker count. Each generated file declares its
//! own typedefs, so no root's speculative parse needs a re-parse; a mixed
//! corpus whose small roots are parsed before the large root 0 checks that
//! roots committed (and resolved) as they stream in keep the serial order.
//! A warm session editing one file of the generated corpus takes the patch
//! fast path on every edit and renders what a cold batch run renders, also
//! when each edit is followed by an overlay check of another file, directly
//! and through the daemon protocol.

use lclint_core::{Flags, Linter, Session};
use lclint_corpus::generator::{generate, GenConfig};
use lclint_server::json::{self, Json, Writer};
use lclint_server::Daemon;
use lclint_syntax::FileId;

fn linter(jobs: usize) -> Linter {
    let mut flags = Flags::default();
    flags.analysis.jobs = jobs;
    Linter::new(flags)
}

/// Eight self-contained half-annotated files with disjoint module ranges
/// and per-file entry points, so the combined program has no collisions.
fn generated_corpus() -> (Vec<(String, String)>, Vec<String>) {
    let files: Vec<(String, String)> = (0..8)
        .map(|k| {
            let g = generate(&GenConfig {
                modules: 3,
                module_offset: k * 3,
                entry_suffix: format!("_f{k}"),
                annotation_level: 0.5,
                seed: 40 + k as u64,
                ..GenConfig::default()
            });
            (format!("gen{k}.c"), g.source)
        })
        .collect();
    let roots = files.iter().map(|(n, _)| n.clone()).collect();
    (files, roots)
}

#[test]
fn generated_corpus_matches_across_front_end_jobs_without_reparses() {
    let (files, roots) = generated_corpus();
    let runs: Vec<String> = [1, 2, 4]
        .iter()
        .map(|&jobs| {
            let r = linter(jobs).check_files(&files, &roots).expect("generated code parses");
            assert_eq!(r.substrate.frontend_jobs, jobs);
            assert_eq!(r.substrate.typedef_reparses, 0, "jobs {jobs}");
            let sm = &r.source_map;
            let names: Vec<&str> = (0..sm.len() as u32).map(|i| sm.name(FileId(i))).collect();
            format!("{}|{:?}|{}|{names:?}", r.render(), r.sema_errors, r.suppressed)
        })
        .collect();
    assert!(runs[0].starts_with("gen"), "half-annotated code warns: {}", runs[0]);
    assert_eq!(runs[1], runs[0], "jobs 2 vs 1");
    assert_eq!(runs[2], runs[0], "jobs 4 vs 1");
}

/// Root 0 is a large generated file and roots 1..5 are small, so with more
/// than one worker the small roots finish first and wait for root 0 before
/// they are committed (and resolved). `types.c` declares a typedef that
/// `user.c` uses, forcing one re-parse, and `again.c` defines root 0's
/// `run_big` a second time: the sema error lands on whichever definition
/// is resolved second.
fn streaming_corpus() -> Vec<(String, String)> {
    let big = generate(&GenConfig {
        modules: 40,
        annotation_level: 0.5,
        seed: 7,
        entry_suffix: "_big".to_owned(),
        ..GenConfig::default()
    });
    let small = [
        ("types.c", "typedef struct node { int v; } *node_t;\n"),
        (
            "user.c",
            "void use_node(node_t n)\n{\n  char *q = (char *) malloc(2);\n  \
             if (n != 0) { n->v = 1; }\n}\n",
        ),
        ("mid.c", MID),
        ("again.c", "int run_big(int input)\n{\n  return input;\n}\n"),
        ("tail.c", "int tail(int x)\n{\n  return x;\n}\n"),
    ];
    let mut files = vec![("big.c".to_owned(), big.source)];
    files.extend(small.iter().map(|(n, t)| ((*n).to_owned(), (*t).to_owned())));
    files
}

const MID: &str = "void mid(void)\n{\n  char *p = (char *) malloc(4);\n  free(p);\n}\n";
/// A body-only edit of `mid.c`: a warm session patches it in place.
const MID_LEAKS: &str = "void mid(void)\n{\n  char *p = (char *) malloc(4);\n  *p = 'a';\n}\n";

#[test]
fn streamed_commits_match_across_front_end_jobs_and_a_patched_session() {
    let files = streaming_corpus();
    let roots: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
    let edited: Vec<(String, String)> = files
        .iter()
        .map(|(n, t)| (n.clone(), if n == "mid.c" { MID_LEAKS.to_owned() } else { t.clone() }))
        .collect();
    let observed = |r: &lclint_core::CheckResult| {
        let sm = &r.source_map;
        let names: Vec<&str> = (0..sm.len() as u32).map(|i| sm.name(FileId(i))).collect();
        format!(
            "{}|{:?}|{}|{}|{names:?}",
            r.render(),
            r.sema_errors,
            r.suppressed,
            r.substrate.typedef_reparses
        )
    };
    let cold = linter(1).check_files(&files, &roots).expect("corpus parses");
    assert_eq!(cold.substrate.typedef_reparses, 1, "user.c needs types.c's node_t");
    assert_eq!(cold.sema_errors, ["again.c:1: function `run_big` defined more than once"]);
    assert!(cold.render().contains("user.c:3: Fresh storage q"), "{}", cold.render());
    let expected = observed(&cold);
    let cold_edited = linter(1).check_files(&edited, &roots).expect("corpus parses");
    assert!(cold_edited.render().contains("mid.c:3: Fresh storage p"), "{}", cold_edited.render());
    let expected_edited = observed(&cold_edited);

    for jobs in [1, 2, 4] {
        let r = linter(jobs).check_files(&files, &roots).expect("corpus parses");
        assert_eq!(r.substrate.frontend_jobs, jobs);
        assert_eq!(observed(&r), expected, "jobs {jobs}");

        let mut s = Session::new(linter(jobs), files.clone(), roots.clone());
        assert_eq!(observed(&s.check(None).unwrap()), expected, "session, jobs {jobs}");
        let patched = s.did_change("mid.c", MID_LEAKS, None).unwrap();
        assert_eq!(s.stats().fast_patches, 1, "jobs {jobs}");
        assert_eq!(patched.render(), cold_edited.render(), "patched session, jobs {jobs}");
        assert_eq!(patched.sema_errors, cold_edited.sema_errors, "jobs {jobs}");
        let r = linter(jobs).check_files(&edited, &roots).expect("corpus parses");
        assert_eq!(observed(&r), expected_edited, "edited, jobs {jobs}");
    }
}

/// The daemon's edit loop without the clock: one-function edits of
/// `gen0.c` at the generator's `/*MUTATION-POINT*/`, alternating two
/// bodies so every request is a real content change. Every edit must take
/// the patch fast path, and every render must match a cold batch run over
/// the same file contents.
///
/// Then the request pattern of perfbench's edit-storm: each edit is
/// followed by an overlay check of `gen1.c`, so four file states alternate.
/// The overlay patches in and parks the canonical unit, the next edit swaps
/// it back first, and nothing rebuilds; once on a session, once through
/// `Daemon::handle_line`.
#[test]
fn alternating_edits_patch_in_place_and_match_cold_batch_runs() {
    const EDITS: usize = 6;
    let (files, roots) = generated_corpus();
    let base = &files[0].1;
    let variant = |k: usize| {
        base.replace("/*MUTATION-POINT*/", &format!("  total = total + {k};\n/*MUTATION-POINT*/"))
    };
    let overlay =
        files[1].1.replace("/*MUTATION-POINT*/", "  total = total * 3;\n/*MUTATION-POINT*/");
    // State `s`: gen0.c holds `variant(s % 2)`; states 2 and 3 also see
    // the overlay of gen1.c.
    let cold: Vec<String> = (0..4)
        .map(|s| {
            let mut edited = files.clone();
            edited[0].1 = variant(s % 2);
            if s >= 2 {
                edited[1].1 = overlay.clone();
            }
            linter(0).check_files(&edited, &roots).expect("corpus parses").render()
        })
        .collect();
    assert_ne!(cold[0], "", "half-annotated code warns");

    let mut session = Session::new(linter(0), files.clone(), roots.clone());
    session.check(None).expect("cold session check");
    let before = session.stats();
    for k in 0..EDITS {
        let r = session.did_change("gen0.c", &variant(k % 2), None).expect("edit check");
        assert_eq!(r.render(), cold[k % 2], "edit {k}");
    }
    let after = session.stats();
    assert_eq!(after.fast_patches - before.fast_patches, EDITS, "{after:?}");
    assert_eq!(after.rebuilds, before.rebuilds, "an edit fell back to a rebuild: {after:?}");

    let before = after;
    for k in 0..EDITS {
        let r = session.did_change("gen0.c", &variant(k % 2), None).expect("edit check");
        assert_eq!(r.render(), cold[k % 2], "edit {k} after an overlay");
        let r = session.check_overlay("gen1.c", &overlay, None).expect("overlay check");
        assert_eq!(r.render(), cold[2 + k % 2], "overlay after edit {k}");
    }
    let after = session.stats();
    let deltas = |a: lclint_core::SessionStats, b: lclint_core::SessionStats| {
        (b.fast_patches - a.fast_patches, b.swaps - a.swaps, b.rebuilds - a.rebuilds)
    };
    assert_eq!(deltas(before, after), (2 * EDITS, EDITS - 1, 0), "{after:?}");

    // The same loop through the daemon protocol.
    let daemon = Daemon::new(Session::new(linter(0), files.clone(), roots.clone()));
    let call = |id: usize, method: &str, file: &str, text: &str| -> Json {
        let req = Writer::obj()
            .num("id", id)
            .str("method", method)
            .object("params", |w| w.str("file", file).str("text", text))
            .done();
        json::parse(&daemon.handle_line(&req)).expect("response is JSON")
    };
    let stats = || {
        let resp = json::parse(&daemon.handle_line("{\"id\": 0, \"method\": \"stats\"}"));
        let resp = resp.expect("stats response is JSON");
        let n = |k: &str| resp.get("result").and_then(|r| r.get(k)).and_then(Json::as_usize);
        (n("fast_patches"), n("swaps"), n("rebuilds"))
    };
    daemon.handle_line("{\"id\": 0, \"method\": \"check\"}");
    assert_eq!(stats(), (Some(0), Some(0), Some(1)), "the cold check builds once");
    for k in 0..EDITS {
        for (s, method, file, text) in [
            (k % 2, "didChange", "gen0.c", &variant(k % 2)),
            (2 + k % 2, "check", "gen1.c", &overlay),
        ] {
            let resp = call(2 * k + 1 + s / 2, method, file, text);
            let rendered =
                resp.get("result").and_then(|r| r.get("rendered")).and_then(Json::as_str);
            assert_eq!(rendered, Some(cold[s].as_str()), "daemon {method} after edit {k}");
        }
    }
    assert_eq!(
        stats(),
        (Some(2 * EDITS), Some(EDITS - 1), Some(1)),
        "no rebuild after the cold check"
    );
}
