//! The front end of a build: preprocess and parse every root translation
//! unit, on up to `jobs` worker threads, with output identical to one
//! thread doing the roots in order. Each root comes out as one
//! [`RootParse`]: the record a build keeps per root and a warm session's
//! patch re-derives for one root through the same [`FrontEnd::parse`].
//!
//! A patch does not parse the whole root again ([`reparse`]). The record
//! marks where each top-level item ends, and the patch resumes right after
//! the last item that ends before the first changed byte: it lexes and
//! preprocesses the text from there, and takes the items before, the arena
//! nodes they use and the typedef names they declare (in their bodies
//! too) from the record. A cold parse is the same parse resumed after no item. The resumed record
//! equals a whole parse of the new text, field for field; where that
//! cannot be shown (a directive after the point, a function-like macro in
//! force, an unclean old parse), the patch parses the whole root.
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

use crate::driver::BuiltProgram;
use crate::render::Stash;
use lclint_analysis::{fan_out, DiagKind, Diagnostic};
use lclint_syntax::ast::{FunctionDef, Item};
use lclint_syntax::fx::FxHashSet;
use lclint_syntax::lexer::ControlComment;
use lclint_syntax::parser::{on_parse_stack, ItemMark, ParseOutcome, PARSE_STACK};
use lclint_syntax::pp::{
    preprocess, preprocess_tail, BorrowedProvider, FileProvider, Macros, PpOutput, TailStart,
};
use lclint_syntax::span::{FileId, SourceMap, Span};
use lclint_syntax::{declaration_hash, function_header_hash};
use lclint_syntax::{Parser, Symbol, SyntaxError, TranslationUnit};
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// One root's contribution to a build.
#[cfg_attr(test, derive(Debug, PartialEq))]
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
    /// One mark per item of `unit`: where a patch can resume.
    pub(crate) marks: Vec<ItemMark>,
    /// The macro table the root's preprocess ended with; `None` when
    /// empty.
    pub(crate) macros: Option<Arc<Macros>>,
    /// Where the root file's last directive line ends; 0 when it has none.
    pub(crate) directive_end: u32,
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
        front.parse(&roots[k], &[], |local| claims.claim(k, local), k > 0, None)
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
    macros: Option<Arc<Macros>>,
    directive_end: u32,
    /// Leading items taken from the record the parse resumed from.
    kept: usize,
}

/// A root's record to resume a parse of its new text from, and the map
/// holding its files.
#[derive(Clone, Copy)]
pub(crate) struct Resume<'r> {
    pub(crate) old: &'r RootParse,
    pub(crate) sm: &'r SourceMap,
}

impl FrontEnd<'_> {
    /// Preprocesses `root` into a local map, hands the map to `claim` for
    /// the base of its ids, and parses the rebased tokens against the
    /// inherited names plus `extra`, recording the typedef misses when
    /// `speculative`. The calling thread must have a [`PARSE_STACK`] stack.
    ///
    /// With `from`, the parse resumes after the leading items the old
    /// record shares with the new text (see [`Resume::tail`]), and `claim`
    /// must return the base the old record holds. A cold parse resumes
    /// after no item: it preprocesses and parses the whole root.
    pub(crate) fn parse(
        &self,
        root: &str,
        extra: &[Symbol],
        claim: impl FnOnce(SourceMap) -> u32,
        speculative: bool,
        from: Option<Resume<'_>>,
    ) -> Parsed {
        let (kept, local, pp) = match from.and_then(|r| r.tail(root, self.provider)) {
            Some((kept, local, out)) => (kept, local, Ok(out)),
            None => {
                let mut local = SourceMap::new();
                let pp = preprocess(root, self.provider, &mut local);
                (0, local, pp)
            }
        };
        let files = local.len() as u32;
        let base = claim(local);
        let (controls, outcome, macros, directive_end) = match pp {
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
                if let Some(r) = from.filter(|_| kept > 0) {
                    debug_assert_eq!(base, r.old.files.start, "a resume keeps its ids");
                    controls = r.controls(kept, controls);
                    parser = parser.after(&r.old.unit, &r.old.marks, kept);
                }
                if speculative {
                    parser = parser.record_misses();
                }
                for t in extra {
                    parser.add_typedef(t.as_str());
                }
                let outcome = Ok(parser.parse_recovering_here());
                (controls, outcome, out.macros, out.directive_end)
            }
            Err(e) => (Vec::new(), Err(SyntaxError { span: e.span.rebased(base), ..e }), None, 0),
        };
        Parsed { base, files, controls, outcome, macros, directive_end, kept }
    }
}

impl Resume<'_> {
    /// Where a parse of the new text resumes, with the local map and the
    /// preprocess of the text after that point; `None` to parse the whole
    /// root. It resumes right after the last token of the last item that
    /// ends, in the root file, before the first changed byte and after
    /// the last directive line. Not at the next item's start: the token
    /// can grow, a leading annotation belongs to the item after it, and
    /// the gap between items (comments, control comments, a stray `;`) is
    /// read again. Everything before that point is what the old parse read
    /// there, which needs
    ///
    /// * a clean old parse (its items are the whole stream's),
    /// * no directive in the new text from there on (headers and macros
    ///   in force are the old ones; [`preprocess_tail`] checks),
    /// * only object-like macros in force: a function-like invocation can
    ///   straddle the point, its arguments ending an item.
    fn tail(
        self,
        root: &str,
        provider: &BorrowedProvider<'_>,
    ) -> Option<(usize, SourceMap, PpOutput)> {
        let old = self.old;
        if !old.syntax_diags.is_empty() || !old.macros.as_ref().is_none_or(|m| m.object_like()) {
            return None;
        }
        let mut local = SourceMap::new();
        let new = local.add_file(root, provider.read_file(root)?);
        let file = FileId(old.files.start);
        let same = common_prefix(self.sm.text(file).as_bytes(), local.text(new).as_bytes());
        let kept = 1 + old.marks.iter().rposition(|m| {
            m.last.file == file && (m.last.end as usize) < same && m.last.end > old.directive_end
        })?;
        let last = old.marks[kept - 1].last;
        let at = TailStart {
            offset: last.end as usize,
            prev: Span::new(new, last.start, last.end),
            macros: old.macros.as_ref(),
            directive_end: old.directive_end,
        };
        let out = preprocess_tail(provider, &mut local, new, at)?;
        local.append(self.sm.entries(old.files.start + 1..old.files.end));
        Some((kept, local, out))
    }

    /// The controls of a parse that resumed after `kept` items, in the
    /// order a whole preprocess gives them: the root file's before the
    /// resume point, the `tail`'s, then the headers'.
    fn controls(self, kept: usize, tail: Vec<ControlComment>) -> Vec<ControlComment> {
        let (file, end) = (FileId(self.old.files.start), self.old.marks[kept - 1].last.end);
        let (root, headers): (Vec<_>, Vec<_>) =
            self.old.controls.iter().cloned().partition(|c| c.span.file == file);
        root.into_iter().filter(|c| c.span.end <= end).chain(tail).chain(headers).collect()
    }
}

/// The length of the common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl Parsed {
    /// The root's record, parsed after `typedef_prefix` typedefs of the
    /// run; its definition range is the caller's to fill in.
    pub(crate) fn into_root(self, typedef_prefix: usize) -> RootParse {
        let (unit, marks, syntax_diags) = match self.outcome {
            Ok(p) => (p.unit, p.marks, p.errors.into_iter().map(parse_error).collect()),
            // Lexing or preprocessing failed — nothing survives from this
            // root. Report it and keep the batch alive with an empty unit
            // so the other roots are still checked.
            Err(e) => (TranslationUnit::default(), Vec::new(), vec![parse_error(e)]),
        };
        RootParse {
            unit,
            files: self.base..self.base + self.files,
            controls: self.controls,
            syntax_diags,
            typedef_prefix,
            defs: 0..0,
            marks,
            macros: self.macros,
            directive_end: self.directive_end,
        }
    }
}

/// One parse of a root outside the build: what a splice puts in, and what
/// it hands back in exchange.
pub(crate) struct Detached {
    pub(crate) root: RootParse,
    /// The source-map entries of `root.files`, in order.
    pub(crate) entries: SourceMap,
    /// Leading items `root` shares with the record it is exchanged with.
    pub(crate) kept: usize,
    /// The fragment groups a splice took out with the entries (see
    /// [`Stash`]).
    pub(crate) fragments: Stash,
}

/// Parses root `k` of `bp` as `text` for a splice, on the file ids it
/// holds and under exactly the typedef context the build used, resuming
/// after the items the old parse shares with `text`. `None` when the
/// parse registers other file names than the root holds, which would
/// leave every other unit's spans stale.
pub(crate) fn reparse(
    bp: &BuiltProgram,
    k: usize,
    text: &str,
    files: &[(String, String)],
) -> Option<Detached> {
    let old = &bp.roots[k];
    let name = bp.sm.name(FileId(old.files.start));
    // `text` wins over the canonical entry: overlay patches check a text
    // the canonical file set does not hold.
    let mut provider = BorrowedProvider::new(files);
    provider.insert(name, text);
    let front = FrontEnd { provider: &provider, inherited: &bp.inherited };
    let mut entries = None;
    let claim = |local: SourceMap| {
        let base = old.files.start;
        let renamed = |i: u32| bp.sm.name(FileId(base + i)) != local.name(FileId(i));
        if local.len() == old.files.len() && !(0..local.len() as u32).any(renamed) {
            entries = Some(local);
        }
        base
    };
    let earlier = &bp.typedefs[bp.roots[0].typedef_prefix..old.typedef_prefix];
    let from = Resume { old, sm: &bp.sm };
    let parsed = on_parse_stack(|| front.parse(name, earlier, claim, false, Some(from)));
    let kept = parsed.kept;
    let root = RootParse { defs: old.defs.clone(), ..parsed.into_root(old.typedef_prefix) };
    Some(Detached { root, entries: entries?, kept, fragments: Stash::default() })
}

/// What a splice of `new` in place of `old` changes, where the two share
/// their first `kept` items: the splice gate's verdict on the rest.
pub(crate) struct Pairing {
    /// `(name, old span, new span)` of each declarator the re-parsed
    /// declarations name.
    pub(crate) reloc: Vec<(Symbol, Span, Span)>,
    /// The re-parsed function definitions, in order.
    pub(crate) defs: Vec<FunctionDef>,
    /// Function definitions among the kept items.
    pub(crate) kept_defs: usize,
}

/// The splice gate: both parses are clean (a partial unit cannot be
/// paired), the items after the kept ones pair up one to one, every
/// declaration keeps its structural hash and every function definition
/// keeps its header's. Then the only semantic deltas are function bodies,
/// and the only table deltas are spans.
pub(crate) fn pair(old: &RootParse, new: &RootParse, kept: usize) -> Option<Pairing> {
    let (old_tu, new_tu) = (&old.unit, &new.unit);
    if [old, new].iter().any(|r| !r.syntax_diags.is_empty())
        || old_tu.items.len() != new_tu.items.len()
    {
        return None;
    }
    let (mut reloc, mut defs) = (Vec::new(), Vec::new());
    for (old_item, new_item) in old_tu.items[kept..].iter().zip(&new_tu.items[kept..]) {
        match (old_item, new_item) {
            (Item::Decl(od), Item::Decl(nd)) => {
                let (od, nd) = (old_tu.arena.decl(*od), new_tu.arena.decl(*nd));
                if declaration_hash(&old_tu.arena, od) != declaration_hash(&new_tu.arena, nd) {
                    return None;
                }
                for (oi, ni) in od.declarators.iter().zip(&nd.declarators) {
                    if let Some(name) = oi.declarator.name {
                        reloc.push((name, oi.declarator.span, ni.declarator.span));
                    }
                }
            }
            (Item::Function(of), Item::Function(nf)) => {
                if function_header_hash(&old_tu.arena, of)
                    != function_header_hash(&new_tu.arena, nf)
                {
                    return None;
                }
                defs.push(nf.clone());
            }
            _ => return None,
        }
    }
    let kept_defs = new_tu.items[..kept].iter().filter(|i| matches!(i, Item::Function(_))).count();
    (old.defs.len() == kept_defs + defs.len()).then_some(Pairing { reloc, defs, kept_defs })
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
                parsed = on_parse_stack(|| front.parse(root, earlier, |_| base, false, None));
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

    mod resume {
        use super::linter;
        use crate::frontend::{reparse, FrontEnd, RootParse};
        use lclint_syntax::parser::on_parse_stack;
        use lclint_syntax::pp::BorrowedProvider;
        use lclint_syntax::rng::SplitMix64;
        use lclint_syntax::span::FileId;

        const HEADER: &str = "#ifndef H_H\n#define H_H\n\
                              typedef struct node { int v; struct node *next; } *node_t;\n\
                              extern /*@only@*/ char *mk(void);\n#endif\n";

        /// A root with a header, an object-like macro, typedefs (at top
        /// level and in bodies) used by later items, annotations, control comments, comments, string
        /// literals and stray `;` between items, drawn from `rng`.
        fn root(rng: &mut SplitMix64) -> String {
            let mut text = String::from("#include \"h.h\"\n#define LIMIT 8\n");
            let mut typedefs = vec!["node_t".to_owned()];
            for i in 0..8 + rng.below(10) {
                let t = rng.pick(&typedefs).clone();
                let item = match rng.below(10) {
                    0 => format!("int g{i};\n"),
                    1 => {
                        typedefs.push(format!("t{i}_t"));
                        format!("typedef int t{i}_t;\n")
                    }
                    2 => format!("/*@null@*/ char *p{i};\n"),
                    3 => ";\n".to_owned(),
                    4 => format!("/*@i@*/ /* c{i} */\nextern int e{i}(int);\n"),
                    5 => format!(
                        "int f{i}(int x)\n{{\n  int y = x + {i};\n  /* c */\n  \
                         if (y > LIMIT) {{ y = y - 1; }}\n  return y;\n}}\n"
                    ),
                    6 => format!(
                        "void u{i}(void)\n{{\n  {t} v = 0;\n  char *q = mk();\n  \
                         if (v) {{ free(q); }}\n}}\n"
                    ),
                    7 => format!("void s{i}(void)\n{{\n  char *m = \"a;b}}c\";\n  m = m;\n}}\n"),
                    8 => {
                        typedefs.push(format!("l{i}_t"));
                        format!("void l{i}(void)\n{{\n  typedef int l{i}_t;\n  l{i}_t w = 1;\n  w = w;\n}}\n")
                    }
                    _ => format!("/*@null@*/ char *n{i}(void)\n{{\n  return (char *) 0;\n}}\n"),
                };
                text.push_str(&item);
            }
            text
        }

        /// Builds `text` as the root `m.c`, then checks that the record a
        /// patch to `edited` makes equals a whole parse of `edited`.
        /// Returns the items the patch kept (0: the resume declined, or
        /// the patch would register other files).
        fn resumes_like_a_full_parse(text: &str, edited: &str, what: &str) -> usize {
            let files =
                vec![("h.h".to_owned(), HEADER.to_owned()), ("m.c".to_owned(), text.to_owned())];
            let bp = linter(1).build_program(&files, &["m.c".to_owned()], 1).unwrap();
            let old = &bp.roots[0];
            assert!(old.syntax_diags.is_empty(), "{what}: the base parses cleanly");
            let mut provider = BorrowedProvider::new(&files);
            provider.insert("m.c", edited);
            let front = FrontEnd { provider: &provider, inherited: &bp.inherited };
            let base = old.files.start;
            let full = on_parse_stack(|| front.parse("m.c", &[], |_| base, false, None));
            let full = RootParse { defs: old.defs.clone(), ..full.into_root(old.typedef_prefix) };
            let Some(resumed) = reparse(&bp, 0, edited, &files) else { return 0 };
            assert_eq!(bp.sm.name(FileId(old.files.start)), "m.c");
            if resumed.root != full {
                let r = &resumed.root;
                panic!(
                    "{what}: kept {} items; unit {} marks {} controls {} diags {} files {} \
                     macros {} directive_end {}",
                    resumed.kept,
                    r.unit == full.unit,
                    r.marks == full.marks,
                    r.controls == full.controls,
                    r.syntax_diags == full.syntax_diags,
                    r.files == full.files,
                    r.macros == full.macros,
                    r.directive_end == full.directive_end,
                );
            }
            resumed.kept
        }

        const SNIPPETS: [&str; 16] = [
            "x",
            " ",
            "\n",
            ";",
            "}",
            "{",
            "/*",
            "*/",
            "int y;",
            "/*@null@*/",
            "/*@i@*/",
            "\"s;\"",
            "#define Q 1\n",
            "#include \"h.h\"\n",
            "t1_t z;",
            "void w(void) { }\n",
        ];

        /// 300 random edits (insert, delete or replace at a random offset)
        /// of 30 generated roots.
        #[test]
        fn a_resumed_parse_equals_a_full_parse_of_random_edits() {
            let mut rng = SplitMix64::seeded(32);
            let (mut cases, mut resumed) = (0, 0);
            for _ in 0..30 {
                let text = root(&mut rng);
                for _ in 0..10 {
                    let at = rng.below(text.len() as u64 + 1) as usize;
                    let cut = (at + rng.below(9) as usize).min(text.len());
                    let snippet = *rng.pick(&SNIPPETS);
                    let edited = match rng.below(3) {
                        0 => format!("{}{snippet}{}", &text[..at], &text[at..]),
                        1 => format!("{}{}", &text[..at], &text[cut..]),
                        _ => format!("{}{snippet}{}", &text[..at], &text[cut..]),
                    };
                    let what = format!("edit at {at}..{cut} with {snippet:?} of\n{text}");
                    resumed += usize::from(resumes_like_a_full_parse(&text, &edited, &what) > 0);
                    cases += 1;
                }
            }
            assert!(resumed * 2 > cases, "only {resumed} of {cases} edits resumed");
        }

        const BASE: &str = "#include \"h.h\"\n#define LIMIT 8\ntypedef int count_t;\n\
                            int g0;\n;\n/* between */\n/*@i@*/ int g1;\n\
                            /*@null@*/ char *first(void)\n{\n  return (char *) 0;\n}\n\
                            void strs(void)\n{\n  char *m = \"a;b}c\";\n  count_t n = 0;\n  \
                            m = m;\n}\n\
                            /*@only@*/ char *last(void)\n{\n  /* body */\n  return mk();\n}\n";

        #[test]
        fn hand_written_edits_resume_like_a_full_parse() {
            let edit = |from: &str, to: &str| BASE.replacen(from, to, 1);
            let check = |edited: String, what: &str| resumes_like_a_full_parse(BASE, &edited, what);
            assert_eq!(BASE.matches("/* body */").count(), 1);
            // The header declares two items. Inside a comment, a string
            // literal, an annotation.
            assert_eq!(check(edit("/* body */", "/* bxody */"), "comment"), 7);
            assert_eq!(check(edit("a;b}c", "a;b}c}"), "string"), 6);
            assert_eq!(check(edit("/*@only@*/ char *last", "/*@null@*/ char *last"), "annot"), 7);
            // Control comments and stray `;` between items.
            assert_eq!(check(edit("/*@i@*/ int g1;", "int g1;"), "control removed"), 4);
            assert!(check(edit("void strs", "/*@i@*/ void strs"), "control added") > 0);
            assert!(check(edit("int g0;\n;\n", "int g0;\n"), "stray ; removed") > 0);
            assert!(check(edit("void strs", ";\nvoid strs"), "stray ; added") > 0);
            // A typedef declaration: later items parse differently.
            check(edit("typedef int count_t;", "typedef int count2_t;"), "typedef");
            check(edit("int g0;", "typedef int g0;"), "new typedef");
            // A typedef local to a kept body is in force after it.
            let local = "void keep(void)\n{\n  typedef int cell;\n  cell c = 0;\n  c = c;\n}\n\
                         void edit(void)\n{\n  int x = 1;\n  x = x;\n}\n";
            let edited = local.replace("int x = 1;", "cell * y;");
            assert_eq!(resumes_like_a_full_parse(local, &edited, "local typedef"), 1);
            // Directives: before every item, or after the resume point.
            assert_eq!(check(edit("LIMIT 8", "LIMIT 9"), "#define"), 0);
            assert_eq!(check(format!("{BASE}#define Q 1\n"), "#define at end"), 0);
            assert_eq!(check(format!("{BASE}#include \"h.h\"\n"), "#include at end"), 0);
            // A token growing at the end of the last item, and one right
            // after an item's last token.
            check(format!("{}x\n", BASE.trim_end_matches('\n')), "grown `}`");
            check(edit("int g0;", "int g0;x"), "token after `;`");
            check(edit("int g0;", "int g00;"), "grown name");
            // The first and the last byte.
            check(format!(" {BASE}"), "first byte inserted");
            check(BASE[1..].to_owned(), "first byte deleted");
            assert!(check(format!("{BASE}\n"), "last byte inserted") > 0);
            check(BASE[..BASE.len() - 1].to_owned(), "last byte deleted");
            check(BASE[..BASE.len() - 2].to_owned(), "last `}` deleted");
        }
    }
}
