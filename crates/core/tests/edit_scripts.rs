//! Seeded edit scripts against a warm [`Session`].
//!
//! Each script is a `SplitMix64` walk over a small generated corpus: a
//! shared header and a few roots that include it. Every step sends one
//! request (`did_change`, `check_overlay`, `check`, or an overlay of a file
//! the session does not know) carrying one kind of edit, each aimed at one
//! branch of the session's step: a body edit, a body-only `#define` edit, a
//! signature edit, a declaration edit, a `#define` edit that changes a
//! function header, a new typedef and a local of that type in the next
//! root's body, a move of a root to another include list, a header edit,
//! a parse error and its fix, a revert to canonical text, and a no-op.
//!
//! Two oracles per step:
//! - the response renders byte-identical to a cold `check_files` of the
//!   file set that request sees;
//! - the `SessionStats` deltas (`rebuilds`, `fast_patches`, `no_ops`,
//!   `swaps`) equal those of the branch a small model of the session
//!   predicts, so a gate that silently starts rebuilding fails too.
//!
//! A failing seed prints its script.

use lclint_core::{CheckResult, Flags, Linter, Session, SessionStats};
use lclint_syntax::rng::SplitMix64;

const HEADER: &str = "shared.h";
/// A second header a root may include after [`HEADER`].
const EXTRA: &str = "extra.h";
/// A header of another name whose text is [`HEADER`]'s first version.
const TWIN: &str = "twin.h";
/// A file no root includes: overlaying it registers it for one request.
const STRAY: &str = "stray.h";
const MARK: &str = "/*MUTATION-POINT*/";
const STEPS: usize = 200;

/// Parameter spellings of `take_k`, reached through a `#define`.
const ARGS: [&str; 2] = ["char *x", "/*@only@*/ char *x"];
/// Parameter annotations of `helper_k`.
const SIGS: [&str; 3] = ["", "/*@null@*/ ", "/*@temp@*/ "];
/// Declarations of `total_k`.
const DECLS: [&str; 3] = ["int total_{k};", "int total_{k} = 3;", "static int total_{k};"];
/// Statements a body edit inserts at a mutation point.
const STMTS: [&str; 7] = [
    "  total_{k} = total_{k} + 1;",
    "  *s = 'b';",
    "  free(s);",
    "  s = (char *) 0;",
    "",
    "  /* a comment */",
    "  total_{k} = total_{k} * STEP_{k};",
];
/// Declarations of `shared_make` in the header.
const HEADERS: [&str; 2] =
    ["extern /*@only@*/ char *shared_make(int n);", "extern char *shared_make(int n);"];
/// The include lists a root cycles through. Each move changes the files
/// the root registers: one more, then one fewer under another name, then
/// as many under another name with the same text, which only the
/// file-name check refuses. The model predicts a rebuild for every move.
const INCLUDES: [&[&str]; 3] = [&[HEADER], &[HEADER, EXTRA], &[TWIN]];

/// One root's text, as the parts an edit changes.
#[derive(Clone, Debug, PartialEq)]
struct Root {
    k: usize,
    roots: usize,
    arg: usize,
    step: u32,
    sig: usize,
    decl: usize,
    /// Declares `typedef int t_{k};`, an item of its own.
    typedef: bool,
    /// `helper_k` declares a local of the previous root's typedef type,
    /// which parses only while that root declares it (roots `k >= 1`).
    uses_typedef: bool,
    /// Statements inserted before each of the two mutation points.
    body: [Vec<usize>; 2],
    broken: bool,
    /// Index into [`INCLUDES`].
    includes: usize,
}

impl Root {
    fn text(&self) -> String {
        let k = self.k;
        let prev = (k + self.roots - 1) % self.roots;
        let stmts = |at: usize| -> String {
            self.body[at]
                .iter()
                .map(|&i| format!("{}\n", STMTS[i].replace("{k}", &k.to_string())))
                .collect()
        };
        let run =
            if self.broken { format!("int run_{k}(void") } else { format!("int run_{k}(void)") };
        let typedef = if self.typedef { format!("typedef int t_{k};\n") } else { String::new() };
        let local =
            if self.uses_typedef { format!("  t_{prev} tv_{k} = 0;\n") } else { String::new() };
        let includes: String =
            INCLUDES[self.includes].iter().map(|h| format!("#include \"{h}\"\n")).collect();
        format!(
            "{includes}\
             #define ARG_{k} {arg}\n\
             #define STEP_{k} {step}\n\
             {decl}\n\
             {typedef}\
             static int helper_{k}({sig}char *p)\n{{\n{local}  if (p != 0) {{ *p = 'a'; }}\n{b0}  {MARK}\n  return STEP_{k};\n}}\n\
             void take_{k}(ARG_{k})\n{{\n  free(x);\n}}\n\
             {run}\n{{\n  char *s = shared_make(4);\n  total_{k} = total_{k} + helper_{k}(s) + run_{prev}();\n{b1}  {MARK}\n  free(s);\n  return total_{k};\n}}\n",
            arg = ARGS[self.arg],
            step = self.step,
            decl = DECLS[self.decl].replace("{k}", &k.to_string()),
            sig = SIGS[self.sig],
            b0 = stmts(0),
            b1 = stmts(1),
        )
    }

    /// Whether only bodies (or macros used only in bodies) differ between
    /// two texts of the root: the patch gate's item pairing.
    fn same_items(&self, other: &Root) -> bool {
        (self.arg, self.sig, self.decl, self.typedef, self.includes)
            == (other.arg, other.sig, other.decl, other.typedef, other.includes)
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Doc {
    Header(usize),
    Root(Root),
    Stray,
    Extra,
    Twin,
}

impl Doc {
    fn text(&self, roots: usize) -> String {
        match self {
            Doc::Header(v) => {
                let runs: String =
                    (0..roots).map(|k| format!("extern int run_{k}(void);\n")).collect();
                format!("{}\n{runs}", HEADERS[*v])
            }
            Doc::Root(r) => r.text(),
            Doc::Stray => "extern int stray_value;\n".to_owned(),
            Doc::Extra => "extern int extra_value;\n".to_owned(),
            Doc::Twin => Doc::Header(0).text(roots),
        }
    }
}

/// What the session should do for one move, in the order its step picks.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Branch {
    Rebuild,
    NoOp,
    Swap,
    Patch,
}

/// The session's state as the model sees it.
struct Model {
    names: Vec<String>,
    roots: Vec<String>,
    /// Canonical documents, `names` order.
    canonical: Vec<Doc>,
    warm: bool,
    /// `(file, document)` of the loaded overlay.
    loaded: Option<(usize, Doc)>,
    parked: bool,
    branches: Vec<Branch>,
}

impl Model {
    fn new(roots: usize, seed: u64) -> Model {
        let mut rng = SplitMix64::seeded(seed);
        let mut names = vec![HEADER.to_owned()];
        let mut canonical = vec![Doc::Header(0)];
        for k in 0..roots {
            names.push(format!("r{k}.c"));
            canonical.push(Doc::Root(Root {
                k,
                roots,
                arg: 0,
                step: 1 + rng.below(3) as u32,
                sig: 0,
                decl: 0,
                typedef: false,
                uses_typedef: false,
                body: [Vec::new(), Vec::new()],
                broken: false,
                includes: 0,
            }));
        }
        let root_names = names[1..].to_vec();
        names.extend([EXTRA.to_owned(), TWIN.to_owned()]);
        canonical.extend([Doc::Extra, Doc::Twin]);
        Model {
            names,
            roots: root_names,
            canonical,
            warm: false,
            loaded: None,
            parked: false,
            branches: Vec::new(),
        }
    }

    fn files(&self) -> Vec<(String, String)> {
        let n = self.roots.len();
        self.names.iter().zip(&self.canonical).map(|(name, d)| (name.clone(), d.text(n))).collect()
    }

    /// The document the warm state reflects for `f`.
    fn current(&self, f: usize) -> &Doc {
        match &self.loaded {
            Some((g, d)) if *g == f => d,
            _ => &self.canonical[f],
        }
    }

    fn rebuild(&mut self) {
        self.branches.push(Branch::Rebuild);
        self.warm = true;
        self.parked = false;
    }

    /// Whether a root's text parses. A patch happens only while every
    /// other file is canonical, and any change to a typedef rebuilds, so
    /// the previous root's canonical text is the context every parse of
    /// this root sees.
    fn parses(&self, r: &Root) -> bool {
        let prev = 1 + (r.k + r.roots - 1) % r.roots;
        !r.broken && (!r.uses_typedef || matches!(&self.canonical[prev], Doc::Root(p) if p.typedef))
    }

    /// A move of `f` from `from` to `to`: patch when the gate accepts (both
    /// texts parse and their items pair up), else rebuild.
    fn patch_or_rebuild(&mut self, from: &Doc, to: &Doc, park: bool) {
        match (from, to) {
            (Doc::Root(a), Doc::Root(b)) if self.parses(a) && self.parses(b) && a.same_items(b) => {
                self.branches.push(Branch::Patch);
                if park {
                    self.parked = true;
                }
            }
            _ => self.rebuild(),
        }
    }

    /// Undoes a loaded overlay: a swap when its canonical state is parked.
    fn restore(&mut self) {
        if self.loaded.take().is_some() {
            if self.parked {
                self.branches.push(Branch::Swap);
                self.parked = false;
            } else {
                self.rebuild();
            }
        }
    }

    fn check(&mut self) {
        self.restore();
        if !self.warm {
            self.rebuild();
        }
    }

    /// `overlay` keeps `to` request-scoped; otherwise it becomes canonical.
    fn move_file(&mut self, f: usize, to: Doc, overlay: bool) {
        if self.loaded.as_ref().is_some_and(|(g, _)| *g != f) {
            self.restore();
        }
        let n = self.roots.len();
        let loaded = self.loaded.take();
        let is_canonical = self.canonical[f].text(n) == to.text(n);
        let from = loaded.as_ref().map_or(&self.canonical[f], |(_, d)| d).clone();
        if !overlay && !is_canonical {
            self.parked = false;
            self.canonical[f] = to.clone();
        }
        let target = (overlay && !is_canonical).then(|| (f, to.clone()));
        if !self.warm {
            self.rebuild();
            if target.is_some() {
                let canonical = self.canonical[f].clone();
                self.patch_or_rebuild(&canonical, &to, true);
            }
        } else if from.text(n) == to.text(n) {
            self.branches.push(Branch::NoOp);
        } else if loaded.is_some() && is_canonical {
            self.loaded = Some((f, from));
            self.restore();
        } else {
            self.patch_or_rebuild(&from, &to, overlay && loaded.is_none());
        }
        self.loaded = target;
    }

    /// An overlay of a file the session does not know: registered, checked
    /// once by a rebuild, and forgotten with the warm state.
    fn stray_overlay(&mut self) {
        if self.loaded.is_some() {
            self.restore();
        }
        self.rebuild();
        self.warm = false;
        self.parked = false;
    }

    /// A new document for `f`, one edit away from `base`.
    fn edit(rng: &mut SplitMix64, base: &Doc) -> (Doc, &'static str) {
        let mut r = match base {
            Doc::Header(v) => return (Doc::Header(1 - v), "header edit"),
            Doc::Root(r) => r.clone(),
            _ => unreachable!("only the shared header and the roots are edited"),
        };
        if r.broken && rng.below(4) != 0 {
            r.broken = false;
            return (Doc::Root(r), "parse-error fix");
        }
        let kind = match rng.below(12) {
            0..=3 => {
                let at = rng.below(2) as usize;
                if !r.body[at].is_empty() && rng.below(3) == 0 {
                    let i = rng.below(r.body[at].len() as u64) as usize;
                    r.body[at].remove(i);
                } else {
                    let i = rng.below(r.body[at].len() as u64 + 1) as usize;
                    r.body[at].insert(i, rng.below(STMTS.len() as u64) as usize);
                }
                "body edit"
            }
            4 => {
                r.step = 1 + (r.step + rng.below(3) as u32) % 4;
                "body-only #define edit"
            }
            5 => {
                r.sig = (r.sig + 1 + rng.below(2) as usize) % SIGS.len();
                "signature edit"
            }
            6 => {
                r.decl = (r.decl + 1 + rng.below(2) as usize) % DECLS.len();
                "declaration edit"
            }
            7 => {
                r.arg = 1 - r.arg;
                "#define edit used in a function header"
            }
            9 => {
                r.includes = (r.includes + 1) % INCLUDES.len();
                "move to another include list"
            }
            10 if r.k > 0 => {
                r.uses_typedef = !r.uses_typedef;
                "local of the previous root's typedef"
            }
            10 | 11 => {
                r.typedef = !r.typedef;
                if r.typedef {
                    "new typedef"
                } else {
                    "typedef removed"
                }
            }
            _ => {
                r.broken = true;
                "parse error"
            }
        };
        (Doc::Root(r), kind)
    }
}

fn render(r: &CheckResult) -> String {
    format!("{:?}|{}|{}", r.sema_errors, r.suppressed, r.render())
}

fn cold(files: &[(String, String)], roots: &[String]) -> String {
    render(&Linter::new(Flags::default()).check_files(files, roots).expect("cold check"))
}

fn deltas(before: SessionStats, after: SessionStats) -> [usize; 4] {
    [
        after.rebuilds - before.rebuilds,
        after.fast_patches - before.fast_patches,
        after.no_ops - before.no_ops,
        after.swaps - before.swaps,
    ]
}

fn expected_deltas(branches: &[Branch]) -> [usize; 4] {
    let count = |b| branches.iter().filter(|&&x| x == b).count();
    [count(Branch::Rebuild), count(Branch::Patch), count(Branch::NoOp), count(Branch::Swap)]
}

/// Runs one seeded script and returns how often each branch was taken,
/// then how often a local of another root's typedef was patched in.
fn run_script(seed: u64) -> [usize; 5] {
    let mut rng = SplitMix64::seeded(seed);
    let roots = 3 + rng.below(3) as usize;
    let mut model = Model::new(roots, seed);
    let mut session =
        Session::new(Linter::new(Flags::default()), model.files(), model.roots.clone());
    let mut script: Vec<String> = Vec::new();
    let mut taken = [0usize; 5];
    for step in 0..STEPS {
        let before = session.stats();
        model.branches.clear();
        let jobs = Some(1 + rng.below(2) as usize);
        let request = rng.below(20);
        let (line, seen, result) = if request < 3 {
            model.check();
            ("check".to_owned(), model.files(), session.check(jobs))
        } else if request == 3 {
            let mut seen = model.files();
            let text = Doc::Stray.text(roots);
            seen.push((STRAY.to_owned(), text.clone()));
            model.stray_overlay();
            (
                format!("check_overlay {STRAY} (unregistered)"),
                seen,
                session.check_overlay(STRAY, &text, jobs),
            )
        } else {
            let overlay = request >= 12;
            // Mostly roots; the header now and then.
            let f = if rng.below(8) == 0 { 0 } else { 1 + rng.below(roots as u64) as usize };
            let (to, kind) = match rng.below(10) {
                0 => (model.canonical[f].clone(), "revert to canonical"),
                1 => (model.current(f).clone(), "no-op"),
                _ => {
                    // Edit the loaded overlay now and then, else canonical text.
                    let base =
                        if rng.below(2) == 0 { model.current(f) } else { &model.canonical[f] };
                    let base = base.clone();
                    Model::edit(&mut rng, &base)
                }
            };
            let name = model.names[f].clone();
            let text = to.text(roots);
            let method = if overlay { "check_overlay" } else { "did_change" };
            model.move_file(f, to, overlay);
            if kind.starts_with("local") && model.branches == [Branch::Patch] {
                taken[4] += 1;
            }
            let mut seen = model.files();
            if let Some((g, d)) = &model.loaded {
                seen[*g].1 = d.text(roots);
            }
            let result = if overlay {
                session.check_overlay(&name, &text, jobs)
            } else {
                session.did_change(&name, &text, jobs)
            };
            (format!("{method} {name}: {kind}"), seen, result)
        };
        script.push(format!("{step:3}: {line} (jobs {jobs:?}) -> {:?}", model.branches));
        let fail = |what: String| -> ! {
            panic!("seed {seed}, step {step}: {what}\nscript:\n{}", script.join("\n"))
        };
        let result = result.unwrap_or_else(|e| fail(format!("request failed: {e}")));
        let got = render(&result);
        let want = cold(&seen, &model.roots);
        if got != want {
            fail(format!("render differs from a cold run\n--- session\n{got}\n--- cold\n{want}"));
        }
        let (got, want) = (deltas(before, session.stats()), expected_deltas(&model.branches));
        if got != want {
            fail(format!("[rebuilds, fast_patches, no_ops, swaps] delta {got:?}, model {want:?}"));
        }
        for (t, n) in taken.iter_mut().zip(got) {
            *t += n;
        }
    }
    taken
}

#[test]
fn seeded_edit_scripts_match_cold_runs_and_take_the_predicted_branch() {
    let mut total = [0usize; 5];
    for seed in [1, 2, 3, 2026] {
        let taken = run_script(seed);
        for (t, n) in total.iter_mut().zip(taken) {
            *t += n;
        }
    }
    // Every branch is exercised, not just reachable.
    let [rebuilds, patches, no_ops, swaps, typedef_patches] = total;
    assert!(rebuilds >= 20 && patches >= 100 && no_ops >= 20 && swaps >= 20, "{total:?}");
    assert!(typedef_patches >= 4, "{total:?}");
}
