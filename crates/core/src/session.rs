//! Warm analysis sessions: a parsed program kept alive across checks.
//!
//! A [`Session`] owns the canonical file set, the built [`Program`] (with
//! its shared AST arenas), the source map, and the incremental check cache.
//! Every request moves one root from the text the warm state reflects to a
//! new one, and one step picks how:
//!
//! * **no-op** — the text is unchanged, so the warm state is served as is;
//! * **patch** — the root is parsed again by the front end's own per-root
//!   parse, on the file ids it already holds, resuming after the last item
//!   that ends before the first changed byte: the items before it are
//!   taken from the root's record, not parsed again. The parse is
//!   *spliced* in from there: when every re-parsed declaration and
//!   function header keeps its structural hash (see [`declaration_hash`]
//!   and [`function_header_hash`]), only bodies and byte offsets changed,
//!   and semantic analysis is not re-run;
//! * **swap** — the root goes back to its canonical text after an overlay:
//!   the canonical parse the overlay's patch replaced is spliced back from
//!   the same item, with no preprocess, lex or parse, and with the
//!   fragments that resolved through its source-map entries;
//! * **rebuild** — anything else: a full cold build.
//!
//! A splice re-probes, through the cache, the re-parsed definitions, the
//! definitions whose entries resolved a name whose registered span moved
//! (a reverse index finds them), and every unstable one; everything else
//! reuses its previous diagnostics verbatim. A probed definition whose
//! body hash and span length are what its result was validated under in
//! this state is rebased without re-digesting its dependencies (see
//! [`Validated`]): every splice passed the gate, so no dependency digest
//! can have changed.
//!
//! The invariant the fast paths preserve, and the tests assert, is
//! **byte-identity**: for any sequence of edits, the session's rendered
//! output equals a cold batch run over the same final file set. Whenever a
//! precondition cannot be proven (interface change, parse error, new
//! include, edited header), the session falls back to a full rebuild —
//! which is always correct, merely slower.
//!
//! This is the engine under both `rlclint --watch` and the `rlclintd`
//! analysis server.
//!
//! [`Program`]: lclint_sema::Program
//! [`declaration_hash`]: lclint_syntax::declaration_hash
//! [`function_header_hash`]: lclint_syntax::function_header_hash

use crate::driver::{Assembled, BuiltProgram, CheckResult, Linter};
use crate::frontend::{pair, reparse, Detached, Pairing};
use crate::incremental::{Dependents, IncrementalSession};
use crate::render::FragmentMemo;
use lclint_analysis::{check_definitions, AnalysisOptions, Diagnostic, Validated};
use lclint_sema::{CheckedFunction, Program};
use lclint_syntax::fx::{FxHashMap, FxHashSet};
use lclint_syntax::span::{FileId, Span};
use lclint_syntax::{Result, Symbol};
use std::io;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Everything a warm session holds between checks.
struct State {
    /// The last build, kept whole; a splice replaces one root's parse.
    built: BuiltProgram,
    /// Per-definition diagnostics from the last check, in definition order.
    def_diags: Vec<Vec<Diagnostic>>,
    /// The last check's fragments (see [`Linter::finish`]).
    memo: FragmentMemo,
    /// Definitions whose last result was not backed by a validated cache
    /// entry (degraded or unanchorable) — always re-checked.
    unstable: FxHashSet<Symbol>,
    /// What each definition's result was validated under in this state.
    validated: Vec<Option<Validated>>,
    /// The reverse dependency index, built on the state's first splice.
    index: Option<Dependents>,
    check_ms: f64,
}

/// A request-scoped text the warm state reflects instead of a file's
/// canonical one.
struct Overlay {
    name: String,
    text: String,
    /// The canonical parse the overlay's patch replaced; `None` when the
    /// overlay was reached by a rebuild.
    canonical: Option<Detached>,
}

lclint_syntax::counters! {
    /// Counters describing how a session has been serving checks.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SessionStats {
        /// Full builds (cold start plus every fast-path fallback).
        rebuilds: usize,
        /// Edits served by the patch fast path.
        fast_patches: usize,
        /// Edits whose text was unchanged (served from memory).
        no_ops: usize,
        /// Overlays undone by splicing the kept canonical parse back.
        swaps: usize,
        /// Top-level items that patches parsed (the rest they kept).
        reparsed_items: usize,
        /// Definitions that splices re-probed through the cache.
        reprobed: usize,
        /// Cached per-function entries currently held.
        cache_entries: usize,
        /// Function definitions in the current program.
        defs: usize,
        /// Distinct interned symbols process-wide.
        symbols: usize,
        /// Bytes of interned text process-wide.
        interned_bytes: usize,
        /// Bytes of AST arena storage across the session's units.
        arena_bytes: usize,
        /// Diagnostics resolved afresh for a check (and encoded, once, when
        /// a response is written from them); the rest were kept from the
        /// check before.
        rendered: usize,
        /// Bytes of encoded diagnostics kept for the next check.
        fragment_bytes: usize,
    }
}

/// What a request asks of a [`Session`].
#[derive(Debug, Clone, Copy)]
pub enum Request<'a> {
    /// Check the canonical file set.
    Check,
    /// Check with file `.0` holding text `.1` for this request only; the
    /// canonical file set is left untouched.
    Overlay(&'a str, &'a str),
    /// Make text `.1` the canonical text of file `.0` (registering it if
    /// new), then check.
    Change(&'a str, &'a str),
}

/// A persistent analysis session over a fixed root set.
///
/// # Examples
///
/// ```
/// use lclint_core::{Flags, Linter, Session};
///
/// let files = vec![("a.c".to_owned(), "int g;\nvoid f(void) { g = 1; }\n".to_owned())];
/// let mut s = Session::new(Linter::new(Flags::default()), files, vec!["a.c".to_owned()]);
/// let cold = s.check(None).unwrap();
/// let warm = s
///     .did_change("a.c", "int g;\nvoid f(void) { g = 2; }\n", None)
///     .unwrap();
/// assert_eq!(cold.render(), warm.render());
/// ```
pub struct Session {
    linter: Linter,
    files: Vec<(String, String)>,
    roots: Vec<String>,
    inc: IncrementalSession,
    state: Option<State>,
    /// A lazily-kept overlay: the warm state reflects its text instead of
    /// the canonical entry in `files`. The next request that needs
    /// canonical state restores it on demand, so an overlay storm on one
    /// file costs a single patch per request.
    overlay: Option<Overlay>,
    /// The serving counters; [`Session::stats`] fills in the footprint.
    served: SessionStats,
}

impl Session {
    /// Creates a session with an in-memory cache.
    pub fn new(linter: Linter, files: Vec<(String, String)>, roots: Vec<String>) -> Self {
        Session {
            linter,
            files,
            roots,
            inc: IncrementalSession::in_memory(),
            state: None,
            overlay: None,
            served: SessionStats::default(),
        }
    }

    /// Creates a session whose cache is persisted under `dir` (see
    /// [`IncrementalSession::at_dir`]): a restarted session starts warm.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn at_dir(
        linter: Linter,
        files: Vec<(String, String)>,
        roots: Vec<String>,
        dir: impl Into<PathBuf>,
    ) -> io::Result<Self> {
        let mut s = Session::new(linter, files, roots);
        s.inc = IncrementalSession::at_dir(dir)?;
        Ok(s)
    }

    /// The session's root file names.
    pub fn roots(&self) -> &[String] {
        &self.roots
    }

    /// The canonical text of a file, if registered.
    pub fn file_text(&self, name: &str) -> Option<&str> {
        self.files.iter().find(|(n, _)| n == name).map(|(_, t)| t.as_str())
    }

    /// Every registered file name (roots and headers), in load order.
    pub fn file_names(&self) -> Vec<String> {
        self.files.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Serves `req`, returning output byte-identical to a cold batch run
    /// over the file set it sees. `jobs` overrides the configured worker
    /// count for this call only (output is identical for any value).
    ///
    /// An overlay is kept *loaded*: the restore to canonical text happens
    /// lazily on the next request that needs it, which makes an overlay
    /// storm on one file (the editor-typing pattern) cost one patch per
    /// request instead of an edit/restore pair. Concurrent callers
    /// interleaving overlays still see responses that are pure functions
    /// of (canonical files, request).
    ///
    /// # Errors
    ///
    /// Propagates hard build errors (broken interface libraries).
    pub fn serve(&mut self, req: Request<'_>, jobs: Option<usize>) -> Result<Assembled> {
        match req {
            Request::Check => {
                self.restore_canonical(jobs)?;
                if self.state.is_none() {
                    self.rebuild(jobs)?;
                }
            }
            Request::Change(name, text) => self.move_root(name, text, false, jobs)?,
            Request::Overlay(name, text) if self.file_text(name).is_none() => {
                // Unregistered file: the built state would include it, so
                // it cannot be kept loaded. Check once and forget.
                self.move_root(name, text, false, jobs)?;
                let out = self.assemble();
                self.files.retain(|(n, _)| n != name);
                self.state = None;
                self.overlay = None;
                return Ok(out);
            }
            Request::Overlay(name, text) => self.move_root(name, text, true, jobs)?,
        }
        Ok(self.assemble())
    }

    /// Checks the current file set: [`Request::Check`].
    ///
    /// # Errors
    ///
    /// Propagates hard build errors (broken interface libraries).
    pub fn check(&mut self, jobs: Option<usize>) -> Result<CheckResult> {
        self.serve(Request::Check, jobs).map(Assembled::into_result)
    }

    /// Applies an edit and checks: [`Request::Change`].
    ///
    /// # Errors
    ///
    /// Propagates hard build errors (broken interface libraries).
    pub fn did_change(
        &mut self,
        name: &str,
        text: &str,
        jobs: Option<usize>,
    ) -> Result<CheckResult> {
        self.serve(Request::Change(name, text), jobs).map(Assembled::into_result)
    }

    /// Checks a request-scoped overlay: [`Request::Overlay`].
    ///
    /// # Errors
    ///
    /// Propagates hard build errors (broken interface libraries).
    pub fn check_overlay(
        &mut self,
        name: &str,
        text: &str,
        jobs: Option<usize>,
    ) -> Result<CheckResult> {
        self.serve(Request::Overlay(name, text), jobs).map(Assembled::into_result)
    }

    /// Undoes a lazily-loaded overlay: moves its file back to the
    /// canonical text.
    fn restore_canonical(&mut self, jobs: Option<usize>) -> Result<()> {
        let Some(name) = self.overlay.as_ref().map(|o| o.name.clone()) else { return Ok(()) };
        let canonical = self.file_text(&name).expect("an overlay is registered").to_owned();
        self.move_root(&name, &canonical, false, jobs)
    }

    /// The one step behind every request: moves `name` from the text the
    /// warm state reflects to `to`, which becomes the canonical text unless
    /// `overlay` keeps it request-scoped. It picks, in order:
    ///
    /// * a rebuild of canonical state when there is no warm state (an
    ///   overlay then moves on from it);
    /// * a no-op when the text is unchanged;
    /// * for a return to canonical text, a swap, or a rebuild when nothing
    ///   was kept: the gate is symmetric, so a patch that refused
    ///   canonical→overlay would refuse the way back too;
    /// * a patch, or a rebuild when the gate refuses.
    ///
    /// The loaded overlay, with the canonical parse it keeps, is taken on
    /// entry and put back only if `name` stays overlaid, so a change of
    /// canonical text drops it. A failed rebuild leaves no warm state and
    /// no overlay, so the next request rebuilds from canonical text.
    fn move_root(
        &mut self,
        name: &str,
        to: &str,
        overlay: bool,
        jobs: Option<usize>,
    ) -> Result<()> {
        // Another file's overlay is undone first, so the warm state
        // reflects canonical text everywhere but `name`.
        if self.overlay.as_ref().is_some_and(|o| o.name != name) {
            self.restore_canonical(jobs)?;
        }
        let loaded = self.overlay.take();
        let pos = self.files.iter().position(|(n, _)| n == name);
        let is_canonical = pos.is_some_and(|i| self.files[i].1 == to);
        if !overlay && !is_canonical {
            match pos {
                Some(i) => self.files[i].1 = to.to_owned(),
                None => self.files.push((name.to_owned(), to.to_owned())),
            }
        }
        let unchanged = loaded.as_ref().map_or(is_canonical, |o| o.text == to);

        let canonical = if self.state.is_none() {
            self.rebuild(jobs)?;
            if overlay && !is_canonical {
                self.patch_or_rebuild(name, to, jobs)?
            } else {
                None
            }
        } else if unchanged {
            self.served.no_ops += 1;
            loaded.and_then(|o| o.canonical)
        } else if is_canonical && loaded.is_some() {
            let kept = loaded.and_then(|o| o.canonical);
            match kept.and_then(|c| self.splice(name, c, Instant::now(), jobs)) {
                Some(_) => self.served.swaps += 1,
                None => self.rebuild(jobs)?,
            }
            None
        } else if pos.is_none() {
            self.rebuild(jobs)?;
            None
        } else {
            // A patch from canonical text keeps what it replaced; one from
            // another overlay keeps that overlay's canonical parse, which
            // shares with the new parse the items both share with the
            // overlay between.
            match (self.patch_or_rebuild(name, to, jobs)?, loaded) {
                (Some(replaced), None) => Some(replaced),
                (Some(r), Some(from)) => {
                    from.canonical.map(|c| Detached { kept: c.kept.min(r.kept), ..c })
                }
                (None, _) => None,
            }
        };
        if overlay && !is_canonical {
            let (name, text) = (name.to_owned(), to.to_owned());
            self.overlay = Some(Overlay { name, text, canonical });
        }
        Ok(())
    }

    /// Patches `name` to `text`, or rebuilds with `text` in place of its
    /// canonical entry when the gate refuses. Returns the parse a patch
    /// replaced.
    fn patch_or_rebuild(
        &mut self,
        name: &str,
        text: &str,
        jobs: Option<usize>,
    ) -> Result<Option<Detached>> {
        if let Some(replaced) = self.try_patch(name, text, jobs) {
            self.served.fast_patches += 1;
            return Ok(Some(replaced));
        }
        let pos = self.files.iter().position(|(n, _)| n == name).expect("file is registered");
        let saved = std::mem::replace(&mut self.files[pos].1, text.to_owned());
        let built = self.rebuild(jobs);
        self.files[pos].1 = saved;
        built.map(|()| None)
    }

    /// Serving counters plus substrate footprint (interner, arenas, cache).
    pub fn stats(&self) -> SessionStats {
        let (arena_bytes, defs, fragment_bytes) = self.state.as_ref().map_or((0, 0, 0), |st| {
            let bp = &st.built;
            (bp.arena_stats().total_bytes(), bp.program.defs.len(), st.memo.bytes())
        });
        SessionStats {
            cache_entries: self.inc.len(),
            defs,
            symbols: lclint_syntax::symbol_count(),
            interned_bytes: lclint_syntax::interned_bytes(),
            arena_bytes,
            fragment_bytes,
            ..self.served
        }
    }

    /// The warm state's build.
    #[cfg(test)]
    pub(crate) fn built(&self) -> Option<&BuiltProgram> {
        self.state.as_ref().map(|st| &st.built)
    }

    /// Full build: parse everything, resolve the program, check every
    /// definition through the cache. Always correct; the fast paths fall
    /// back here whenever a precondition fails. The old state is dropped
    /// first, so a failed build leaves none.
    fn rebuild(&mut self, jobs: Option<usize>) -> Result<()> {
        self.served.rebuilds += 1;
        self.state = None;
        self.overlay = None;
        self.state =
            Some(State::cold(&self.linter, Some(&mut self.inc), &self.files, &self.roots, jobs)?);
        Ok(())
    }

    /// The patch fast path: parses root `name` as `text` and splices the
    /// parse in. Returns the parse it replaced, or `None` when `name` is
    /// not a root or any precondition fails (the caller then rebuilds).
    fn try_patch(&mut self, name: &str, text: &str, jobs: Option<usize>) -> Option<Detached> {
        let start = Instant::now();
        let bp = &self.state.as_ref().expect("try_patch requires warm state").built;
        let new = reparse(bp, self.roots.iter().position(|r| r == name)?, text, &self.files)?;
        self.served.reparsed_items += new.root.unit.items.len() - new.kept;
        self.splice(name, new, start, jobs)
    }

    /// Splices `new`, a parse of root `name`, into the warm state in place
    /// of the root's current parse from the first item they do not share,
    /// then re-probes. Returns the parse it replaced, or `None` when the
    /// gate ([`pair`]) refuses, with the state untouched.
    fn splice(
        &mut self,
        name: &str,
        new: Detached,
        start: Instant,
        jobs: Option<usize>,
    ) -> Option<Detached> {
        let k = self.roots.iter().position(|r| r == name)?;
        let st = self.state.as_mut().expect("splice requires warm state");
        let bp = &mut st.built;
        // A root that contributed semantic errors cannot be spliced: their
        // spans would go stale.
        let old = &bp.roots[k];
        if bp.program.errors.iter().any(|e| old.files.contains(&e.span.file.0)) {
            return None;
        }
        let Pairing { mut reloc, defs: new_defs, kept_defs } = pair(old, &new.root, new.kept)?;

        // Commit: the kept items' definitions get the new arena; every
        // re-parsed one gets its old (merged) signature with the new span,
        // the new header AST, and the new arena; names declared here get
        // their registered spans relocated; the root's record and
        // source-map entries are exchanged, and the fragments that
        // resolved through the old entries go with them.
        let arena = &new.root.unit.arena;
        let reparsed = old.defs.start + kept_defs..old.defs.end;
        for def in &mut bp.program.defs[old.defs.start..reparsed.start] {
            def.arena = Arc::clone(arena);
        }
        for (i, nf) in reparsed.clone().zip(new_defs) {
            let mut sig = bp.program.defs[i].sig.clone();
            reloc.push((sig.name, std::mem::replace(&mut sig.span, nf.span), nf.span));
            bp.program.defs[i] = CheckedFunction { sig, ast: nf, arena: Arc::clone(arena) };
        }
        let moved = relocate(&mut bp.program, &reloc);
        let Detached { root, entries, kept, fragments } = new;
        let files = root.files.clone();
        let entries = bp.sm.put_entries(FileId(files.start), entries);
        let root = std::mem::replace(&mut bp.roots[k], root);
        bp.parse_ms = start.elapsed().as_secs_f64() * 1000.0;
        bp.sema_ms = 0.0;
        let group = |g: usize| st.def_diags.get(g).map_or(&[][..], Vec::as_slice);
        let stashed = st.memo.stash(files, group, &st.built.sm);
        self.served.reprobed += self.reprobe(reparsed, &moved, jobs);
        let st = self.state.as_mut().expect("reprobe keeps the state");
        let group = |g: usize| st.def_diags.get(g).map_or(&[][..], Vec::as_slice);
        st.memo.unstash(fragments, group, &st.built.sm);
        Some(Detached { root, entries, kept, fragments: stashed })
    }

    /// Re-checks, through the cache, what a splice can have changed: the
    /// re-parsed definitions `spliced` (their bodies and spans), every
    /// definition whose entry resolved a name in `moved` (its cached notes
    /// may anchor on the moved spans), and everything whose last result
    /// was unstable. Returns how many it re-probed. The rest are provably
    /// bit-identical: their fingerprints are span-free and none of their
    /// anchors moved.
    fn reprobe(&mut self, spliced: Range<usize>, moved: &[Symbol], jobs: Option<usize>) -> usize {
        let (st, inc) = (self.state.as_mut().expect("reprobe requires warm state"), &mut self.inc);
        let defs = &st.built.program.defs;
        let index = st.index.get_or_insert_with(|| Dependents::build(defs, &inc.cache));
        let mut dirty: Vec<usize> = spliced.collect();
        let unstable: Vec<Symbol> = st.unstable.iter().copied().collect();
        index.collect(&unstable, moved, &mut dirty);
        dirty.sort_unstable();
        dirty.dedup();

        let check_start = Instant::now();
        let mut slots: Vec<Option<Vec<Diagnostic>>> = vec![None; defs.len()];
        let opts = opts(&self.linter, jobs);
        let lib = self.linter.library_digest();
        let (program, validated) = (&st.built.program, &mut st.validated);
        let unstable_idx = inc.check(program, &opts, lib, &dirty, &mut slots, validated);
        st.check_ms = check_start.elapsed().as_secs_f64() * 1000.0;
        for &i in &dirty {
            let diags = slots[i].take().unwrap_or_default();
            if diags != st.def_diags[i] {
                st.def_diags[i] = diags;
                st.memo.forget(i);
            }
            st.unstable.remove(&defs[i].sig.name);
        }
        for &i in &unstable_idx {
            st.unstable.insert(defs[i].sig.name);
        }
        let names: Vec<Symbol> = dirty.iter().map(|&i| defs[i].sig.name).collect();
        index.relist(&names, &inc.cache);
        dirty.len()
    }

    /// Assembles the warm state's output through the batch driver's own
    /// tail ([`Linter::finish`]) with the state's fragments.
    fn assemble(&mut self) -> Assembled {
        let st = self.state.as_mut().expect("assemble requires state");
        let stats = self.inc.cache.take_stats();
        let out =
            self.linter.finish(&st.built, &st.def_diags, &mut st.memo, Some(stats), st.check_ms);
        self.served.rendered += out.rendered;
        out
    }

    /// A batch run: a one-shot session over the caller's cache, or over
    /// none. It builds and checks cold exactly as a session's first check
    /// does, then hands the build to the shared tail with no fragments
    /// kept, instead of keeping it warm.
    pub(crate) fn once(
        linter: &Linter,
        files: &[(String, String)],
        roots: &[String],
        mut inc: Option<&mut IncrementalSession>,
    ) -> Result<CheckResult> {
        let State { built, def_diags, check_ms, .. } =
            State::cold(linter, inc.as_deref_mut(), files, roots, None)?;
        let stats = inc.map(|inc| inc.cache.take_stats());
        let out = linter.finish(&built, &def_diags, &mut FragmentMemo::default(), stats, check_ms);
        built.release();
        Ok(out.into_result())
    }
}

impl State {
    /// A cold build of `roots`, every definition checked through `inc`'s
    /// cache, or by the plain check (no dependency recording, no
    /// fingerprints) when there is none.
    fn cold(
        linter: &Linter,
        inc: Option<&mut IncrementalSession>,
        files: &[(String, String)],
        roots: &[String],
        jobs: Option<usize>,
    ) -> Result<State> {
        let opts = opts(linter, jobs);
        let built = linter.build_program(files, roots, opts.jobs)?;
        let check_start = Instant::now();
        let defs = &built.program.defs;
        let mut slots: Vec<Option<Vec<Diagnostic>>> = vec![None; defs.len()];
        let mut validated = vec![None; defs.len()];
        let unstable_idx = match inc {
            Some(inc) => {
                let (indices, lib) = ((0..defs.len()).collect::<Vec<_>>(), linter.library_digest());
                inc.check(&built.program, &opts, lib, &indices, &mut slots, &mut validated)
            }
            None => {
                check_definitions(&built.program, &opts, |i, d| slots[i] = Some(d));
                Vec::new()
            }
        };
        let check_ms = check_start.elapsed().as_secs_f64() * 1000.0;
        let unstable = unstable_idx.iter().map(|&i| defs[i].sig.name).collect();
        let def_diags = slots.into_iter().map(|s| s.unwrap_or_default()).collect();
        let memo = FragmentMemo::default();
        Ok(State { built, def_diags, memo, unstable, validated, index: None, check_ms })
    }
}

/// Moves the registered span of every name in `reloc` from its old
/// position to its new one, and returns the names whose registered span
/// moved. The moves are simultaneous: each registered span is looked up
/// once among its name's `(old, new)` pairs, so a span moved onto another
/// pair's old position is not moved again.
fn relocate(program: &mut Program, reloc: &[(Symbol, Span, Span)]) -> Vec<Symbol> {
    let mut by_name: FxHashMap<Symbol, Vec<(Span, Span)>> = FxHashMap::default();
    for &(name, old, new) in reloc {
        by_name.entry(name).or_default().push((old, new));
    }
    let mut moved = Vec::new();
    for (name, pairs) in &by_name {
        let mut changed = false;
        let mut relocated = |span: &mut Span| {
            if let Some(&(_, new)) = pairs.iter().find(|(old, _)| old == span) {
                changed |= *span != new;
                *span = new;
            }
        };
        if let Some(g) = program.globals.get_mut(name) {
            relocated(&mut g.span);
        }
        if let Some(f) = program.functions.get_mut(name) {
            relocated(&mut f.span);
        }
        if changed {
            moved.push(*name);
        }
    }
    moved
}

/// The linter's analysis options with `jobs` overriding the worker count.
fn opts(linter: &Linter, jobs: Option<usize>) -> AnalysisOptions {
    let mut opts = linter.flags.analysis.clone();
    if let Some(j) = jobs {
        opts.jobs = j;
    }
    opts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::Flags;

    fn two_file_setup() -> (Vec<(String, String)>, Vec<String>) {
        let a = "extern char *gname;\n\
                 void setName(/*@null@*/ char *pname)\n{\n  gname = pname;\n}\n\
                 void helper(void)\n{\n  char *q = (char *) malloc(4);\n  free(q);\n}\n";
        let b = "extern void setName(/*@null@*/ char *pname);\n\
                 void caller(void)\n{\n  setName((char *) 0);\n}\n\
                 void leak(void)\n{\n  char *p = (char *) malloc(4);\n  if (p != 0) { *p = 'a'; }\n}\n";
        (
            vec![("a.c".to_owned(), a.to_owned()), ("b.c".to_owned(), b.to_owned())],
            vec!["a.c".to_owned(), "b.c".to_owned()],
        )
    }

    fn batch_render(files: &[(String, String)], roots: &[String]) -> String {
        let linter = Linter::new(Flags::default());
        let r = linter.check_files(files, roots).unwrap();
        format!("{:?}|{}|{}", r.sema_errors, r.suppressed, r.render())
    }

    fn session_render(r: &CheckResult) -> String {
        format!("{:?}|{}|{}", r.sema_errors, r.suppressed, r.render())
    }

    #[test]
    fn cold_check_matches_batch() {
        let (files, roots) = two_file_setup();
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        let r = s.check(None).unwrap();
        assert_eq!(session_render(&r), batch_render(&files, &roots));
        assert_eq!(s.stats().rebuilds, 1);
    }

    #[test]
    fn body_edit_takes_fast_path_and_matches_batch() {
        let (mut files, roots) = two_file_setup();
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        s.check(None).unwrap();
        // Grow the body of `helper` (shifts every later span in a.c).
        let edited = files[0].1.replace("  free(q);", "  /* grew */\n  free(q);");
        assert_ne!(edited, files[0].1);
        let warm = s.did_change("a.c", &edited, None).unwrap();
        files[0].1 = edited;
        assert_eq!(session_render(&warm), batch_render(&files, &roots));
        assert_eq!(s.stats().fast_patches, 1, "edit should patch, not rebuild");
        assert_eq!(s.stats().rebuilds, 1);
    }

    #[test]
    fn body_edit_that_changes_diagnostics_matches_batch() {
        let (mut files, roots) = two_file_setup();
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        s.check(None).unwrap();
        // Remove the free: helper now leaks.
        let edited = files[0].1.replace("  free(q);", "  q = q;");
        let warm = s.did_change("a.c", &edited, None).unwrap();
        files[0].1 = edited;
        assert_eq!(session_render(&warm), batch_render(&files, &roots));
        assert!(warm.render().contains("q"), "{}", warm.render());
        assert_eq!(s.stats().fast_patches, 1);
    }

    #[test]
    fn interface_edit_falls_back_to_rebuild_and_matches_batch() {
        let (mut files, roots) = two_file_setup();
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        s.check(None).unwrap();
        // Annotation change on a global declaration: an interface change.
        let edited = files[0].1.replace("extern char *gname;", "extern /*@only@*/ char *gname;");
        let warm = s.did_change("a.c", &edited, None).unwrap();
        files[0].1 = edited;
        assert_eq!(session_render(&warm), batch_render(&files, &roots));
        assert_eq!(s.stats().fast_patches, 0, "interface edits must rebuild");
        assert_eq!(s.stats().rebuilds, 2);
    }

    #[test]
    fn cross_file_dependents_rebase_after_fast_path() {
        // b.c's `caller` depends on a.c's `setName` prototype-or-def span;
        // moving setName in a.c must move any notes that anchor on it.
        let (mut files, roots) = two_file_setup();
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        s.check(None).unwrap();
        let edited = files[0].1.replace("void setName", "\n\n\nvoid setName");
        // Leading newlines before an item: still pretty-identical, spans move.
        let warm = s.did_change("a.c", &edited, None).unwrap();
        files[0].1 = edited;
        assert_eq!(session_render(&warm), batch_render(&files, &roots));
    }

    #[test]
    fn parse_error_edit_falls_back_and_recovers() {
        let (files, roots) = two_file_setup();
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        s.check(None).unwrap();
        let broken = files[0].1.replace("void helper(void)", "void helper(void");
        let warm = s.did_change("a.c", &broken, None).unwrap();
        let mut snapshot = files.clone();
        snapshot[0].1 = broken;
        assert_eq!(session_render(&warm), batch_render(&snapshot, &roots));
        // And an edit that fixes it again converges with batch.
        let fixed = s.did_change("a.c", &files[0].1, None).unwrap();
        assert_eq!(session_render(&fixed), batch_render(&files, &roots));
    }

    #[test]
    fn overlay_leaves_canonical_state_untouched() {
        let (files, roots) = two_file_setup();
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        let base = s.check(None).unwrap();
        let edited = files[0].1.replace("  free(q);", "  q = q;");
        let overlay = s.check_overlay("a.c", &edited, None).unwrap();
        let mut snapshot = files.clone();
        snapshot[0].1 = edited;
        assert_eq!(session_render(&overlay), batch_render(&snapshot, &roots));
        // Canonical state restored: a plain check equals the base run.
        let after = s.check(None).unwrap();
        assert_eq!(session_render(&after), session_render(&base));
        assert_eq!(s.file_text("a.c"), Some(files[0].1.as_str()));
    }

    #[test]
    fn no_op_edit_is_served_from_memory() {
        let (files, roots) = two_file_setup();
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        let base = s.check(None).unwrap();
        let text = files[0].1.clone();
        let again = s.did_change("a.c", &text, None).unwrap();
        assert_eq!(session_render(&again), session_render(&base));
        assert_eq!(s.stats().no_ops, 1);
        assert_eq!(s.stats().rebuilds, 1);
    }

    #[test]
    fn header_edit_falls_back_to_rebuild() {
        let files = vec![
            ("h.h".to_owned(), "extern /*@only@*/ char *mk(void);\n".to_owned()),
            (
                "m.c".to_owned(),
                "#include \"h.h\"\nvoid use(void)\n{\n  char *p = mk();\n  free(p);\n}\n"
                    .to_owned(),
            ),
        ];
        let roots = vec!["m.c".to_owned()];
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        s.check(None).unwrap();
        let mut snapshot = files.clone();
        snapshot[0].1 = "extern char *mk(void);\n".to_owned();
        let warm = s.did_change("h.h", &snapshot[0].1, None).unwrap();
        assert_eq!(session_render(&warm), batch_render(&snapshot, &roots));
        assert_eq!(s.stats().fast_patches, 0);
    }

    #[test]
    fn session_arena_and_cache_stay_steady_across_edit_revert_cycles() {
        let (files, roots) = two_file_setup();
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        s.check(None).unwrap();
        let edited = files[0].1.replace("  free(q);", "  free(q);\n  q = (char *) 0;");
        // One full cycle to reach steady state, then measure.
        s.did_change("a.c", &edited, None).unwrap();
        s.did_change("a.c", &files[0].1, None).unwrap();
        let warm = s.stats();
        for _ in 0..100 {
            s.did_change("a.c", &edited, None).unwrap();
            s.did_change("a.c", &files[0].1, None).unwrap();
        }
        let after = s.stats();
        assert_eq!(after.arena_bytes, warm.arena_bytes, "arena bytes must not grow");
        assert_eq!(after.cache_entries, warm.cache_entries, "cache must not grow");
        assert_eq!(after.defs, warm.defs);
    }

    fn one_file(text: &str) -> (Vec<(String, String)>, Vec<String>) {
        (vec![("m.c".to_owned(), text.to_owned())], vec!["m.c".to_owned()])
    }

    #[test]
    fn header_changed_through_a_macro_rebuilds() {
        // The header's bytes stay `void take(ARG)`, but its expansion gains
        // an `only` annotation: the signature changed, so the patch gate
        // must refuse and the result must equal a cold run (clean).
        let (files, roots) = one_file("#define ARG char *x\nvoid take(ARG)\n{\n  free(x);\n}\n");
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        let before = s.check(None).unwrap();
        assert!(before.render().contains("free (x)"), "{}", before.render());
        let edited = files[0].1.replace("#define ARG char", "#define ARG /*@only@*/ char");
        let warm = s.did_change("m.c", &edited, None).unwrap();
        let (after, _) = one_file(&edited);
        assert_eq!(session_render(&warm), batch_render(&after, &roots));
        assert!(warm.is_clean(), "{}", warm.render());
        assert_eq!(s.stats().fast_patches, 0);
        assert_eq!(s.stats().rebuilds, 2);
    }

    const CHAINED: &str = "extern int other;\nextern int other;\nint counter;\n\
                           int bump(void) /*@globals counter@*/\n{\n  other = other + 1;\n  \
                           return counter;\n}\n";

    #[test]
    fn relocation_does_not_chain_through_a_moved_span() {
        // Prepending exactly the first line's length moves the first
        // declarator onto the second's old span; a sequential relocation
        // then moved it again, so `other` was reported at line 3.
        let (files, roots) = one_file(CHAINED);
        let edited = format!("/* abcdefghijk */\n{CHAINED}");
        assert_eq!("/* abcdefghijk */\n".len(), "extern int other;\n".len());
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        s.check(None).unwrap();
        let warm = s.did_change("m.c", &edited, None).unwrap();
        let (after, _) = one_file(&edited);
        let cold = batch_render(&after, &roots);
        assert!(cold.contains("m.c:2: Undocumented use of global other"), "{cold}");
        assert_eq!(session_render(&warm), cold);
        assert_eq!(s.stats().fast_patches, 1);
    }

    #[test]
    fn relocation_holds_through_an_overlay_and_a_swap_back() {
        let (files, roots) = one_file(CHAINED);
        let edited = format!("/* abcdefghijk */\n{CHAINED}");
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        let base = s.check(None).unwrap();
        let overlay = s.check_overlay("m.c", &edited, None).unwrap();
        let (after, _) = one_file(&edited);
        assert_eq!(session_render(&overlay), batch_render(&after, &roots));
        let back = s.check(None).unwrap();
        assert_eq!(session_render(&back), session_render(&base));
        assert_eq!(session_render(&back), batch_render(&files, &roots));
        let st = s.stats();
        assert_eq!((st.rebuilds, st.fast_patches, st.swaps), (1, 1, 1), "{st:?}");
    }

    #[test]
    fn restore_after_an_overlay_swaps_instead_of_patching() {
        let (files, roots) = two_file_setup();
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        s.check(None).unwrap();
        // Overlay a.c twice (the second patch moves overlay to overlay and
        // keeps the parked canonical state), then edit b.c: a.c swaps back.
        let leaky = files[0].1.replace("  free(q);", "  q = q;");
        let grown = files[0].1.replace("  free(q);", "  /* grew */\n  q = q;");
        s.check_overlay("a.c", &leaky, None).unwrap();
        s.check_overlay("a.c", &grown, None).unwrap();
        let edited = files[1].1.replace("*p = 'a';", "*p = 'b';");
        let warm = s.did_change("b.c", &edited, None).unwrap();
        let mut after = files.clone();
        after[1].1 = edited;
        assert_eq!(session_render(&warm), batch_render(&after, &roots));
        let st = s.stats();
        assert_eq!((st.rebuilds, st.fast_patches, st.swaps), (1, 3, 1), "{st:?}");
        assert_eq!(
            s.built().unwrap().sm.text(FileId(s.built().unwrap().roots[0].files.start)),
            files[0].1
        );
    }

    #[test]
    fn an_edit_of_the_overlaid_file_drops_the_parked_state() {
        let (files, roots) = two_file_setup();
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        s.check(None).unwrap();
        let leaky = files[0].1.replace("  free(q);", "  q = q;");
        let grown = files[0].1.replace("  free(q);", "  /* grew */\n  free(q);");
        s.check_overlay("a.c", &leaky, None).unwrap();
        // The canonical text changes: no swap back to the old one.
        let warm = s.did_change("a.c", &grown, None).unwrap();
        let check = s.check(None).unwrap();
        let mut after = files.clone();
        after[0].1 = grown;
        assert_eq!(session_render(&warm), batch_render(&after, &roots));
        assert_eq!(session_render(&check), batch_render(&after, &roots));
        let st = s.stats();
        assert_eq!((st.rebuilds, st.fast_patches, st.swaps), (1, 2, 0), "{st:?}");
    }

    #[test]
    fn a_body_edit_of_the_last_function_reparses_and_reprobes_one() {
        let (mut files, roots) = two_file_setup();
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        s.check(None).unwrap();
        let edited = files[0].1.replace("  free(q);", "  /* grew */\n  free(q);");
        let warm = s.did_change("a.c", &edited, None).unwrap();
        let st = s.stats();
        assert_eq!((st.fast_patches, st.reparsed_items, st.reprobed), (1, 1, 1), "{st:?}");
        // An overlay of the same edit, then the swap back: no parse.
        let overlay = files[0].1.replace("  free(q);", "  q = q;");
        s.check_overlay("a.c", &overlay, None).unwrap();
        let back = s.check(None).unwrap();
        let st = s.stats();
        assert_eq!((st.fast_patches, st.swaps, st.reparsed_items), (2, 1, 2), "{st:?}");
        files[0].1 = edited;
        assert_eq!(session_render(&warm), batch_render(&files, &roots));
        assert_eq!(session_render(&back), batch_render(&files, &roots));
    }

    #[test]
    fn a_kept_definition_anchored_on_a_later_declaration_is_reprobed() {
        // `bump` is kept by a patch of `pad`, but its message anchors on
        // the registered declaration of `other`, the last item, which the
        // patch moves: the index must find `bump`.
        let text = "int counter;\nint bump(void) /*@globals counter@*/\n{\n  \
                    other = other + 1;\n  return counter;\n}\n\
                    void pad(void)\n{\n  counter = 1;\n}\nextern int other;\n";
        let (files, roots) = one_file(text);
        let mut s = Session::new(Linter::new(Flags::default()), files, roots.clone());
        let before = s.check(None).unwrap();
        assert!(before.render().contains("m.c:11: Undocumented use of global other"));
        let edited = text.replace("  counter = 1;", "  /* grew */\n  counter = 1;");
        let warm = s.did_change("m.c", &edited, None).unwrap();
        let cold = batch_render(&one_file(&edited).0, &roots);
        assert!(cold.contains("m.c:12: Undocumented use of global other"), "{cold}");
        assert_eq!(session_render(&warm), cold);
        let st = s.stats();
        // `pad` and the `other` declaration were parsed again; `pad` and,
        // through the index, `bump` were re-probed.
        assert_eq!((st.fast_patches, st.reparsed_items, st.reprobed), (1, 2, 2), "{st:?}");
    }

    #[test]
    fn a_typedef_local_to_a_kept_body_is_in_force_in_the_edited_one() {
        // The parser's typedef set is flat: `cell`, declared inside `keep`,
        // makes `cell * y;` in `edit` a declaration, not a product.
        let text = "void keep(void)\n{\n  typedef int cell;\n  cell c = 0;\n  c = c;\n}\n\
                    void edit(void)\n{\n  int x = 1;\n  x = x;\n}\n";
        let (files, roots) = one_file(text);
        let mut s = Session::new(Linter::new(Flags::default()), files, roots.clone());
        s.check(None).unwrap();
        let edited = text.replace("int x = 1;\n  x = x;", "cell * y;\n  y = malloc(sizeof(int));");
        let warm = s.did_change("m.c", &edited, None).unwrap();
        let cold = batch_render(&one_file(&edited).0, &roots);
        assert!(cold.contains("m.c:10: Fresh storage y not released"), "{cold}");
        assert_eq!(session_render(&warm), cold);
        let st = s.stats();
        assert_eq!((st.fast_patches, st.reparsed_items), (1, 1), "{st:?}");
    }

    #[test]
    fn a_swap_back_reuses_the_fragments_the_overlay_replaced() {
        let (files, roots) = two_file_setup();
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        let base = s.check(None).unwrap();
        assert!(base.render().contains("a.c:"), "{}", base.render());
        let rendered = s.stats().rendered;
        // The overlay moves every line of a.c and adds a leak to `helper`:
        // every diagnostic in a.c is made afresh.
        let leaky = files[0].1.replace("void helper", "\nvoid helper").replace("free(q)", "q = q");
        s.check_overlay("a.c", &leaky, None).unwrap();
        let overlaid = s.stats().rendered;
        assert!(overlaid > rendered, "{overlaid} > {rendered}");
        // The swap back restores `helper`'s diagnostics and the entries
        // every other fragment of a.c was made on: none is made again.
        let back = s.check(None).unwrap();
        assert_eq!(session_render(&back), session_render(&base));
        assert_eq!(s.stats().rendered, overlaid);
        assert_eq!(s.stats().swaps, 1);
    }

    #[test]
    fn a_swap_back_after_two_overlays_splices_from_the_earlier_change() {
        let (files, roots) = two_file_setup();
        let mut s = Session::new(Linter::new(Flags::default()), files.clone(), roots.clone());
        let base = s.check(None).unwrap();
        // The first overlay changes the last function, the second also the
        // one before it: the canonical parse shares fewer items with the
        // second than with the first.
        let late = files[0].1.replace("  free(q);", "  q = q;");
        let early = late.replace("  gname = pname;", "  gname = pname;\n  gname = (char *) 0;");
        s.check_overlay("a.c", &late, None).unwrap();
        let second = s.check_overlay("a.c", &early, None).unwrap();
        let mut after = files.clone();
        after[0].1 = early;
        assert_eq!(session_render(&second), batch_render(&after, &roots));
        let back = s.check(None).unwrap();
        assert_eq!(session_render(&back), session_render(&base));
        let st = s.stats();
        assert_eq!((st.rebuilds, st.fast_patches, st.swaps), (1, 2, 1), "{st:?}");
    }
}
