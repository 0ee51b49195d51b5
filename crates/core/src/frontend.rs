//! The front end of a build: preprocess and parse every root translation
//! unit, on up to `jobs` worker threads, with output identical to one
//! thread doing the roots in order. Each root comes out as one
//! [`RootParse`]: the record a build keeps per root and a warm session's
//! patch re-derives for one root through the same [`FrontEnd::parse`].
//!
//! Two things make the serial order observable, and both are kept:
//!
//! - **File ids.** A serial run registers each root's files in the shared
//!   [`SourceMap`] right after the previous root's. A worker preprocesses
//!   its root into a fresh, root-local map and then *claims* ids in root
//!   order: it waits until root `k - 1` has claimed, appends its files with
//!   [`SourceMap::append`], and shifts every span it holds by the returned
//!   base. Ids, per-root file ranges and the diagnostic sort order come out
//!   as in the serial run. A session's patch claims the ids its root
//!   already holds instead, and swaps the local map's entries in at commit.
//! - **Typedef names.** A serial parse of root `k` knows the typedefs of
//!   every earlier root (`P_k`). A worker cannot wait for those, so it
//!   parses *speculatively* against the inherited names only (built-ins,
//!   standard library, interface libraries), borrowed and never copied,
//!   and records its *misses*: every identifier a typedef lookup answered
//!   "no" for. Units are committed in root order; when root `k`'s misses
//!   meet `P_k` the root is preprocessed again, rebased onto the ids it
//!   already claimed, and re-parsed against the inherited names plus `P_k`
//!   (a *typedef re-parse*). Otherwise the speculative unit is kept: the
//!   typedef set only ever grows, so every lookup in that parse got the
//!   answer the serial parse would have got, and the units are identical.

use lclint_analysis::{fan_out, DiagKind, Diagnostic};
use lclint_syntax::fx::FxHashSet;
use lclint_syntax::lexer::ControlComment;
use lclint_syntax::parser::{on_parse_stack, ParseOutcome, PARSE_STACK};
use lclint_syntax::pp::{preprocess, BorrowedProvider};
use lclint_syntax::span::SourceMap;
use lclint_syntax::{Parser, Symbol, SyntaxError, TranslationUnit};
use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard};

/// One root's contribution to a build.
pub(crate) struct RootParse {
    /// The parsed unit; a root that failed to preprocess gets an empty one.
    pub(crate) unit: TranslationUnit,
    /// Ids of the files the root registered, in registration order.
    pub(crate) files: Range<u32>,
    /// Control comments the root contributed.
    pub(crate) controls: Vec<ControlComment>,
    /// Recovered parse / preprocess diagnostics.
    pub(crate) syntax_diags: Vec<Diagnostic>,
    /// Length of the run's typedef list before the root was committed.
    pub(crate) typedef_prefix: usize,
    /// The definitions the unit contributed: `program.defs[defs]`.
    pub(crate) defs: Range<usize>,
}

/// Preprocesses and parses `roots` on `jobs` worker threads, registering
/// their files in `sm` and appending the typedef names they declare to
/// `typedefs`, exactly as a serial run in root order would. `inherited`
/// holds every name `typedefs` held on entry. Returns one record per root,
/// in root order, and the number of typedef re-parses.
///
/// The calling thread commits each root as soon as it and every earlier
/// root have been parsed, and hands the committed unit to `on_unit`, so
/// work on the units (sema) streams behind the workers instead of waiting
/// for the last of them. `on_unit` sees the units in root order and
/// returns the range of definitions each contributed.
pub(crate) fn parse_roots(
    roots: &[String],
    provider: &BorrowedProvider<'_>,
    sm: &mut SourceMap,
    inherited: &FxHashSet<String>,
    typedefs: &mut Vec<Symbol>,
    jobs: usize,
    mut on_unit: impl FnMut(&TranslationUnit) -> Range<usize>,
) -> (Vec<RootParse>, usize) {
    let front = FrontEnd { provider, inherited };
    let claims = Claims {
        state: Mutex::new(ClaimState { next: 0, sm: std::mem::take(sm), abandoned: None }),
        turn: Condvar::new(),
    };
    let mut commit = Commit {
        out: Vec::with_capacity(roots.len()),
        typedef_reparses: 0,
        declared: FxHashSet::default(),
        inherited_len: typedefs.len(),
    };
    let work = |k: usize| {
        let _guard = AbandonOnPanic(&claims, k);
        // Root 0 has no earlier typedefs to miss.
        front.parse(&roots[k], &[], |local| claims.claim(k, local), k > 0)
    };
    fan_out(jobs, "lclint-frontend", PARSE_STACK, roots.len(), work, |k, parsed| {
        let root = commit.root(&roots[k], parsed, &front, typedefs);
        root.defs = on_unit(&root.unit);
    });
    *sm = claims.state.into_inner().unwrap_or_else(|e| e.into_inner()).sm;
    (commit.out, commit.typedef_reparses)
}

/// What the workers share: where files come from, and the inherited
/// typedef names.
pub(crate) struct FrontEnd<'a> {
    pub(crate) provider: &'a BorrowedProvider<'a>,
    pub(crate) inherited: &'a FxHashSet<String>,
}

/// One root after preprocessing, claiming file ids and parsing.
pub(crate) struct Parsed {
    /// The id of the root's first file; `files` ids from here are its.
    base: u32,
    files: u32,
    controls: Vec<ControlComment>,
    /// The parse, or the preprocessing error that left nothing to parse.
    outcome: Result<ParseOutcome, SyntaxError>,
}

impl FrontEnd<'_> {
    /// Preprocesses `root` into a local map, hands the map to `claim` for
    /// the base of its ids, and parses the rebased tokens against the
    /// inherited names plus `extra`, recording the typedef misses when
    /// `speculative`. The calling thread must have a [`PARSE_STACK`] stack.
    pub(crate) fn parse(
        &self,
        root: &str,
        extra: &[Symbol],
        claim: impl FnOnce(SourceMap) -> u32,
        speculative: bool,
    ) -> Parsed {
        let mut local = SourceMap::new();
        let pp = preprocess(root, self.provider, &mut local);
        let files = local.len() as u32;
        let base = claim(local);
        let (controls, outcome) = match pp {
            Ok(out) => {
                let mut tokens = out.tokens;
                for t in &mut tokens {
                    t.span = t.span.rebased(base);
                }
                let mut controls = out.controls;
                for c in &mut controls {
                    c.span = c.span.rebased(base);
                }
                let mut parser = Parser::with_inherited(tokens, self.inherited);
                if speculative {
                    parser = parser.record_misses();
                }
                for t in extra {
                    parser.add_typedef(t.as_str());
                }
                (controls, Ok(parser.parse_recovering_here()))
            }
            Err(e) => (Vec::new(), Err(SyntaxError { span: e.span.rebased(base), ..e })),
        };
        Parsed { base, files, controls, outcome }
    }
}

impl Parsed {
    /// The root's record, parsed after `typedef_prefix` typedefs of the
    /// run; its definition range is the caller's to fill in.
    pub(crate) fn into_root(self, typedef_prefix: usize) -> RootParse {
        let (unit, syntax_diags) = match self.outcome {
            Ok(p) => (p.unit, p.errors.into_iter().map(parse_error).collect()),
            // Lexing or preprocessing failed — nothing survives from this
            // root. Report it and keep the batch alive with an empty unit
            // so the other roots are still checked.
            Err(e) => (TranslationUnit::default(), vec![parse_error(e)]),
        };
        RootParse {
            unit,
            files: self.base..self.base + self.files,
            controls: self.controls,
            syntax_diags,
            typedef_prefix,
            defs: 0..0,
        }
    }
}

/// The in-order commit of parsed roots.
struct Commit {
    out: Vec<RootParse>,
    /// Roots whose speculative parse met an earlier root's typedef.
    typedef_reparses: usize,
    /// Typedef names declared by the roots committed so far (`P_k`).
    declared: FxHashSet<&'static str>,
    /// Length of the run's typedef list before the first root: the
    /// entries after it are `P_k`.
    inherited_len: usize,
}

impl Commit {
    fn root(
        &mut self,
        root: &str,
        mut parsed: Parsed,
        front: &FrontEnd<'_>,
        typedefs: &mut Vec<Symbol>,
    ) -> &mut RootParse {
        if let Ok(spec) = &parsed.outcome {
            if spec.misses.iter().any(|m| self.declared.contains(m.as_str())) {
                let (base, earlier) = (parsed.base, &typedefs[self.inherited_len..]);
                parsed = on_parse_stack(|| front.parse(root, earlier, |_| base, false));
                self.typedef_reparses += 1;
            }
        }
        let committed = parsed.into_root(typedefs.len());
        let names = collect_typedef_names(&committed.unit);
        self.declared.extend(names.iter().map(|n| n.as_str()));
        typedefs.extend(names);
        self.out.push(committed);
        self.out.last_mut().expect("just pushed")
    }
}

fn parse_error(e: SyntaxError) -> Diagnostic {
    Diagnostic::new(DiagKind::SyntaxError, format!("Parse error: {}", e.message), e.span)
}

/// The shared source map while workers claim ids, and whose turn it is.
struct ClaimState {
    next: usize,
    sm: SourceMap,
    /// The lowest root whose worker panicked before claiming: no later
    /// root can claim.
    abandoned: Option<usize>,
}

struct Claims {
    state: Mutex<ClaimState>,
    turn: Condvar,
}

impl Claims {
    /// Every update under the lock is one `append` plus an increment, so a
    /// lock poisoned by a panicking worker still guards a consistent map.
    fn lock(&self) -> MutexGuard<'_, ClaimState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends root `k`'s local map once roots `0..k` have claimed, and
    /// returns the base of its ids. Panics, rather than waiting forever,
    /// when an earlier root was abandoned: its index is lower, so the
    /// fan-out resumes that root's panic, not this one.
    fn claim(&self, k: usize, local: SourceMap) -> u32 {
        let mut st = self.lock();
        while st.next != k {
            assert!(st.abandoned.is_none_or(|a| a > k), "another front-end worker panicked");
            st = self.turn.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        let base = st.sm.append(local);
        st.next += 1;
        self.turn.notify_all();
        base
    }
}

/// Wakes the other workers when root `.1`'s worker unwinds, so none of
/// them waits forever for a root that will never claim.
struct AbandonOnPanic<'a>(&'a Claims, usize);

impl Drop for AbandonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut st = self.0.lock();
            if self.1 >= st.next {
                st.abandoned = Some(st.abandoned.map_or(self.1, |a| a.min(self.1)));
            }
            self.0.turn.notify_all();
        }
    }
}

/// Names introduced by top-level `typedef` declarations in a unit.
pub(crate) fn collect_typedef_names(tu: &TranslationUnit) -> Vec<Symbol> {
    use lclint_syntax::ast::{Item, StorageClass};
    let mut names = Vec::new();
    for item in &tu.items {
        if let Item::Decl(d) = item {
            let d = tu.arena.decl(*d);
            if d.specs.storage == Some(StorageClass::Typedef) {
                for id in &d.declarators {
                    if let Some(n) = id.declarator.name {
                        names.push(n);
                    }
                }
            }
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use crate::driver::{BuiltProgram, CheckResult};
    use crate::flags::Flags;
    use crate::session::Session;
    use crate::Linter;
    use lclint_syntax::span::{FileId, SourceMap};

    /// Each root's file ids, in root order.
    fn plans(built: &BuiltProgram) -> Vec<Vec<u32>> {
        built.roots.iter().map(|r| r.files.clone().collect()).collect()
    }

    /// Five roots covering every way the front end can go off the serial
    /// path: a typedef declared only by an earlier root, a header shared by
    /// two roots, a missing include, a recovered parse error in a middle
    /// root, and a suppression comment in the last root.
    fn corpus() -> (Vec<(String, String)>, Vec<String>) {
        let files = [
            (
                "common.h",
                "#ifndef COMMON_H\n#define COMMON_H\nextern /*@only@*/ char *mk(void);\n#endif\n",
            ),
            (
                "list.c",
                "#include \"common.h\"\ntypedef struct cell { int v; } *cell_t;\n\
                 void keep(void)\n{\n  char *p = mk();\n  free(p);\n}\n",
            ),
            (
                "user.c",
                "#include \"common.h\"\nvoid use(cell_t c)\n{\n  char *q = mk();\n  \
                 if (c != 0) { c->v = 1; }\n}\n",
            ),
            ("broken.c", "int bad = ;\nvoid leak2(void)\n{\n  char *r = (char *) malloc(4);\n}\n"),
            ("missing.c", "#include \"nope.h\"\nint z;\n"),
            ("last.c", "void quiet(void)\n{\n  /*@i@*/ char *s = (char *) malloc(2);\n}\n"),
        ];
        let files: Vec<(String, String)> =
            files.iter().map(|(n, t)| ((*n).to_owned(), (*t).to_owned())).collect();
        let roots = ["list.c", "user.c", "broken.c", "missing.c", "last.c"];
        (files, roots.iter().map(|r| (*r).to_owned()).collect())
    }

    fn linter(jobs: usize) -> Linter {
        let mut flags = Flags::default();
        flags.analysis.jobs = jobs;
        Linter::new(flags)
    }

    fn names(sm: &SourceMap) -> Vec<String> {
        (0..sm.len() as u32).map(|i| sm.name(FileId(i)).to_owned()).collect()
    }

    /// Everything observable about one run, for comparison across runs.
    fn observed(r: &CheckResult, plans: &[Vec<u32>]) -> String {
        format!(
            "{}|{:?}|{}|{:?}|{:?}|{}",
            r.render(),
            r.sema_errors,
            r.suppressed,
            names(&r.source_map),
            plans,
            r.substrate.typedef_reparses
        )
    }

    #[test]
    fn every_job_count_and_a_session_match_the_serial_front_end() {
        let (files, roots) = corpus();
        let built: BuiltProgram = linter(1).build_program(&files, &roots, 1).unwrap();
        let serial = linter(1).check_files(&files, &roots).unwrap();
        assert_eq!(serial.substrate.frontend_jobs, 1);
        assert_eq!(serial.substrate.typedef_reparses, 1, "user.c needs list.c's cell_t");
        assert_eq!(serial.suppressed, 1, "{}", serial.render());
        // user.c parses cleanly (it was re-parsed with list.c's `cell_t`),
        // broken.c resumes after its error, missing.c is an empty unit
        // with a diagnostic, and last.c's leak is suppressed.
        assert_eq!(
            serial.render(),
            "user.c:4: Fresh storage q not released before scope exit [CWE-401]\n\
             \u{20}  user.c:4: Storage q allocated\n\
             broken.c:1: Parse error: expected expression, found `;`\n\
             broken.c:4: Fresh storage r not released before scope exit [CWE-401]\n\
             \u{20}  broken.c:4: Storage r allocated\n\
             missing.c:1: Parse error: cannot open include file `nope.h`\n"
        );
        assert_eq!(built.roots[3].unit.items.len(), 0, "missing.c is empty");
        // The shared header is registered once per including root.
        assert_eq!(
            names(&built.sm),
            [
                "<stdlib>",
                "list.c",
                "common.h",
                "user.c",
                "common.h",
                "broken.c",
                "missing.c",
                "last.c"
            ]
        );
        assert_eq!(plans(&built), [vec![1, 2], vec![3, 4], vec![5], vec![6], vec![7]]);
        let expected = observed(&serial, &plans(&built));

        for jobs in [2, 4] {
            let built = linter(jobs).build_program(&files, &roots, jobs).unwrap();
            let r = linter(jobs).check_files(&files, &roots).unwrap();
            assert_eq!(r.substrate.frontend_jobs, jobs);
            assert_eq!(observed(&r, &plans(&built)), expected, "jobs {jobs}");
        }
        for jobs in [1, 2, 4] {
            let mut s = Session::new(linter(jobs), files.clone(), roots.clone());
            let r = s.check(None).unwrap();
            let plans = plans(s.built().expect("warm state"));
            assert_eq!(observed(&r, &plans), expected, "session, jobs {jobs}");
        }
    }
}
