//! Warm analysis sessions: a parsed program kept alive across checks.
//!
//! A [`Session`] owns the canonical file set, the built [`Program`] (with
//! its shared AST arenas), the source map, and the incremental check cache.
//! Every request moves one root from the text the warm state reflects to a
//! new one, and one step picks how:
//!
//! * **no-op** — the text is unchanged, so the warm state is served as is;
//! * **swap** — the root goes back to its canonical text after an overlay.
//!   The overlay's patch parked what it replaced (the unit, its
//!   definitions, control comments, source-map entries and registered
//!   spans), and the swap puts that back with no preprocess, lex or parse;
//! * **patch** — the root is re-preprocessed over a source-map replay (so
//!   every file keeps its id) and re-parsed. When every declaration and
//!   every function header has the same structural hash as before (see
//!   [`declaration_hash`] and [`function_header_hash`]), only function
//!   bodies and byte offsets changed, and the new unit is spliced into the
//!   existing program without re-running semantic analysis;
//! * **rebuild** — anything else: a full cold build.
//!
//! A swap or a patch then re-probes, through the cache, the root's
//! definitions, every definition elsewhere that resolved a name the root
//! declares, and every unstable one; everything else reuses its previous
//! per-definition diagnostics verbatim.
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

use crate::driver::{BuiltProgram, CheckResult, Linter};
use crate::incremental::IncrementalSession;
use lclint_analysis::{check_definitions, AnalysisOptions, Diagnostic};
use lclint_sema::{CheckedFunction, Program};
use lclint_syntax::ast::{Item, TranslationUnit};
use lclint_syntax::fx::{FxHashMap, FxHashSet};
use lclint_syntax::pp::{preprocess, BorrowedProvider};
use lclint_syntax::span::{SourceFile, Span};
use lclint_syntax::{
    declaration_hash, function_header_hash, ControlComment, Parser, Result, Symbol,
};
use std::io;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Everything a warm session holds between checks.
struct State {
    /// The last build, kept whole; a patch splices one root into it.
    built: BuiltProgram,
    /// Per-definition diagnostics from the last check, in definition order.
    def_diags: Vec<Vec<Diagnostic>>,
    /// Definitions whose last result was not backed by a validated cache
    /// entry (degraded or unanchorable) — always re-checked.
    unstable: FxHashSet<Symbol>,
    check_ms: f64,
    /// The overlaid root's canonical state, while an overlay is loaded.
    parked: Option<Parked>,
}

/// What an overlay patch replaced on canonical state: everything a patch
/// changes in a build, so a swap can put it back without re-parsing.
struct Parked {
    root_idx: usize,
    unit: TranslationUnit,
    /// The unit's definitions, `def_counts[unit]..def_counts[unit + 1]`.
    defs: Vec<CheckedFunction>,
    controls: Vec<ControlComment>,
    /// Source-map entries of the root's file plan, in plan order.
    files: Vec<Arc<SourceFile>>,
    /// `(name, global span, function span)` as registered for every name
    /// the root declares.
    spans: Vec<(Symbol, Option<Span>, Option<Span>)>,
}

/// Counters describing how a session has been serving checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Full builds (cold start plus every fast-path fallback).
    pub rebuilds: usize,
    /// Edits served by the patch fast path.
    pub fast_patches: usize,
    /// Edits whose text was unchanged (served from memory).
    pub no_ops: usize,
    /// Overlays undone by swapping the parked canonical state back.
    pub swaps: usize,
    /// Cached per-function entries currently held.
    pub cache_entries: usize,
    /// Function definitions in the current program.
    pub defs: usize,
    /// Distinct interned symbols process-wide.
    pub symbols: usize,
    /// Bytes of interned text process-wide.
    pub interned_bytes: usize,
    /// Bytes of AST arena storage across the session's units.
    pub arena_bytes: usize,
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
    /// `(name, text)` of a lazily-kept overlay: the warm state reflects
    /// `text` for `name` instead of the canonical entry in `files`. The
    /// next request that needs canonical state restores it on demand, so
    /// an overlay storm on one file costs a single patch per request.
    loaded: Option<(String, String)>,
    rebuilds: usize,
    fast_patches: usize,
    no_ops: usize,
    swaps: usize,
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
            loaded: None,
            rebuilds: 0,
            fast_patches: 0,
            no_ops: 0,
            swaps: 0,
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

    /// Checks the current file set, building the program if this is the
    /// first call (cold) and reusing the warm state otherwise. `jobs`
    /// overrides the configured worker count for this call only (output is
    /// identical for any value).
    ///
    /// # Errors
    ///
    /// Propagates hard build errors (broken interface libraries).
    pub fn check(&mut self, jobs: Option<usize>) -> Result<CheckResult> {
        self.restore_canonical(jobs)?;
        if self.state.is_none() {
            self.rebuild(jobs)?;
        }
        Ok(self.assemble())
    }

    /// Applies an edit and checks: replaces `name`'s text (registering the
    /// file if new) and returns diagnostics byte-identical to a cold batch
    /// run over the updated file set.
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
        self.move_root(name, text, false, jobs)?;
        Ok(self.assemble())
    }

    /// Checks a request-scoped overlay: `name` holds `text` for this check
    /// only, and the canonical file set is left untouched, so concurrent
    /// callers interleaving overlay checks always see responses that are
    /// pure functions of (canonical files, request).
    ///
    /// The overlaid state is kept *loaded*: the restore to canonical text
    /// happens lazily on the next request that needs it, which makes an
    /// overlay storm on one file (the editor-typing pattern) cost one patch
    /// per request instead of an edit/restore pair.
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
        if self.file_text(name).is_none() {
            // Unregistered file: the built state would include it, so it
            // cannot be kept loaded. Check once and forget.
            let result = self.did_change(name, text, jobs)?;
            self.files.retain(|(n, _)| n != name);
            self.state = None;
            self.loaded = None;
            return Ok(result);
        }
        self.move_root(name, text, true, jobs)?;
        Ok(self.assemble())
    }

    /// Undoes a lazily-loaded overlay: moves its file back to the
    /// canonical text.
    fn restore_canonical(&mut self, jobs: Option<usize>) -> Result<()> {
        let Some((name, _)) = &self.loaded else {
            return Ok(());
        };
        let name = name.clone();
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
    /// * for a return to unchanged canonical text, a swap with the parked
    ///   state, or a rebuild when nothing is parked: the patch gate is
    ///   symmetric, so a patch that refused canonical→overlay would refuse
    ///   the way back too;
    /// * a patch, parking what it replaced when it moves canonical state to
    ///   an overlay;
    /// * a rebuild when the patch gate refuses.
    ///
    /// A parked state is dropped when its root's canonical text changes and
    /// with every rebuild. A failed rebuild leaves no warm state and no
    /// overlay, so the next request rebuilds from canonical text.
    fn move_root(
        &mut self,
        name: &str,
        to: &str,
        overlay: bool,
        jobs: Option<usize>,
    ) -> Result<()> {
        // Another file's overlay is undone first, so the warm state
        // reflects canonical text everywhere but `name`.
        if self.loaded.as_ref().is_some_and(|(n, _)| n != name) {
            self.restore_canonical(jobs)?;
        }
        let loaded = self.loaded.take();
        let pos = self.files.iter().position(|(n, _)| n == name);
        let is_canonical = pos.is_some_and(|i| self.files[i].1 == to);
        let unchanged = match &loaded {
            Some((_, text)) => text == to,
            None => is_canonical,
        };
        let restoring = loaded.is_some() && is_canonical;
        let from_canonical = loaded.is_none();
        if !overlay && !is_canonical {
            // The canonical text changes: a parked state no longer matches.
            if let Some(st) = &mut self.state {
                st.parked = None;
            }
            match pos {
                Some(i) => self.files[i].1 = to.to_owned(),
                None => self.files.push((name.to_owned(), to.to_owned())),
            }
        }
        let target = (overlay && !is_canonical).then(|| (name.to_owned(), to.to_owned()));

        if self.state.is_none() {
            self.rebuild(jobs)?;
            if target.is_some() {
                self.patch_or_rebuild(name, to, true, jobs)?;
            }
        } else if unchanged {
            self.no_ops += 1;
        } else if restoring {
            match self.state.as_mut().and_then(|st| st.parked.take()) {
                Some(parked) => self.swap(parked, jobs),
                None => self.rebuild(jobs)?,
            }
        } else if pos.is_none() {
            self.rebuild(jobs)?;
        } else {
            self.patch_or_rebuild(name, to, overlay && from_canonical, jobs)?;
        }
        self.loaded = target;
        Ok(())
    }

    /// Patches `name` to `text`, or rebuilds with `text` in place of its
    /// canonical entry when the gate refuses. `park` keeps what the patch
    /// replaced for a later swap.
    fn patch_or_rebuild(
        &mut self,
        name: &str,
        text: &str,
        park: bool,
        jobs: Option<usize>,
    ) -> Result<()> {
        if self.try_patch(name, text, park, jobs) {
            return Ok(());
        }
        let pos = self.files.iter().position(|(n, _)| n == name).expect("file is registered");
        let saved = std::mem::replace(&mut self.files[pos].1, text.to_owned());
        let built = self.rebuild(jobs);
        self.files[pos].1 = saved;
        built
    }

    /// Serving counters plus substrate footprint (interner, arenas, cache).
    pub fn stats(&self) -> SessionStats {
        let (arena_bytes, defs) = self.state.as_ref().map_or((0, 0), |st| {
            (st.built.arena_stats().total_bytes(), st.built.program.defs.len())
        });
        SessionStats {
            rebuilds: self.rebuilds,
            fast_patches: self.fast_patches,
            no_ops: self.no_ops,
            swaps: self.swaps,
            cache_entries: self.inc.len(),
            defs,
            symbols: lclint_syntax::symbol_count(),
            interned_bytes: lclint_syntax::interned_bytes(),
            arena_bytes,
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
        self.rebuilds += 1;
        self.state = None;
        self.loaded = None;
        self.state =
            Some(State::cold(&self.linter, Some(&mut self.inc), &self.files, &self.roots, jobs)?);
        Ok(())
    }

    /// The patch fast path: moves root `name` to `text`. Returns `false`
    /// when `name` is not a root or any precondition fails (the caller
    /// then rebuilds); `true` when the edit was spliced in and the dirty
    /// definitions re-checked. With `park`, what the patch replaced is
    /// kept in the state for [`Session::swap`].
    fn try_patch(&mut self, name: &str, text: &str, park: bool, jobs: Option<usize>) -> bool {
        let Some(root_idx) = self.roots.iter().position(|r| r == name) else {
            return false;
        };
        let parse_start = Instant::now();
        let st = self.state.as_mut().expect("try_patch requires warm state");
        let bp = &mut st.built;
        // Preconditions on the previous build of this root: it must have
        // parsed cleanly (a partial unit cannot be paired) and contributed
        // no semantic errors (their spans would go stale).
        if !bp.root_syntax_diags[root_idx].is_empty() {
            return false;
        }
        let plan = bp.root_file_plans[root_idx].clone();
        if plan.is_empty() || bp.program.errors.iter().any(|e| plan.contains(&e.span.file)) {
            return false;
        }

        // Re-preprocess the root over a replay: every file it registers
        // must line up with the old plan (same names, same order) so all
        // ids — and therefore every other unit's spans — stay valid.
        let old_files = park.then(|| bp.sm.entries(&plan));
        let mut provider = BorrowedProvider::new(&self.files);
        // `text` wins over the canonical entry: overlay patches check a
        // text the canonical file set does not hold.
        provider.insert(name, text);
        bp.sm.begin_replay(plan);
        let out = preprocess(name, &provider, &mut bp.sm);
        // On failure the map may hold partially replayed texts; the caller
        // rebuilds with a fresh map.
        if !bp.sm.end_replay() {
            return false;
        }
        let Ok(out) = out else {
            return false;
        };

        // Re-parse with exactly the typedef context the old build used:
        // the borrowed inherited names plus the typedefs of earlier roots
        // (`typedef_prefix[0]` is where the roots' entries start).
        let mut parser = Parser::with_inherited(out.tokens, &bp.inherited);
        for t in &bp.typedefs[bp.typedef_prefix[0]..bp.typedef_prefix[root_idx]] {
            parser.add_typedef(t.as_str());
        }
        let (new_tu, errors) = parser.parse_translation_unit_recovering();
        if !errors.is_empty() {
            return false;
        }

        // The gate: items pair up one to one, every declaration keeps its
        // structural hash and every function definition keeps its header's
        // — so the only semantic deltas are function bodies, and the only
        // table deltas are spans.
        let unit_idx = bp.root_start + root_idx;
        let old_tu = &bp.units[unit_idx];
        if old_tu.items.len() != new_tu.items.len() {
            return false;
        }
        let def_range = bp.def_counts[unit_idx]..bp.def_counts[unit_idx + 1];
        // (name, old span, new span) for relocation.
        let mut reloc: Vec<(Symbol, Span, Span)> = Vec::new();
        let mut new_defs: Vec<&lclint_syntax::ast::FunctionDef> = Vec::new();
        for (old_item, new_item) in old_tu.items.iter().zip(&new_tu.items) {
            match (old_item, new_item) {
                (Item::Decl(od), Item::Decl(nd)) => {
                    let od = old_tu.arena.decl(*od);
                    let nd = new_tu.arena.decl(*nd);
                    if declaration_hash(&old_tu.arena, od) != declaration_hash(&new_tu.arena, nd) {
                        return false;
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
                        return false;
                    }
                    new_defs.push(nf);
                }
                _ => return false,
            }
        }
        if def_range.len() != new_defs.len() {
            return false;
        }
        for (i, nf) in def_range.clone().zip(&new_defs) {
            let sig = &bp.program.defs[i].sig;
            reloc.push((sig.name, sig.span, nf.span));
        }

        // Commit: splice the new unit in. Every definition in the unit gets
        // its old (merged) signature with the new span, the new header AST,
        // and the new arena; names declared here get their registered spans
        // relocated.
        let exports: FxHashSet<Symbol> = reloc.iter().map(|&(name, ..)| name).collect();
        let spans = park.then(|| {
            let p = &bp.program;
            let span_of =
                |n| (n, p.globals.get(&n).map(|g| g.span), p.functions.get(&n).map(|f| f.span));
            exports.iter().map(|&n| span_of(n)).collect()
        });
        relocate(&mut bp.program, &reloc);
        let mut old_defs = Vec::with_capacity(new_defs.len());
        for (i, nf) in def_range.clone().zip(&new_defs) {
            let mut sig = bp.program.defs[i].sig.clone();
            sig.span = nf.span;
            let new = CheckedFunction { sig, ast: (*nf).clone(), arena: Arc::clone(&new_tu.arena) };
            old_defs.push(std::mem::replace(&mut bp.program.defs[i], new));
        }
        let controls = std::mem::replace(&mut bp.root_controls[root_idx], out.controls);
        let unit = std::mem::replace(&mut bp.units[unit_idx], new_tu);
        if let (Some(files), Some(spans)) = (old_files, spans) {
            st.parked = Some(Parked { root_idx, unit, defs: old_defs, controls, files, spans });
        }
        st.built.parse_ms = parse_start.elapsed().as_secs_f64() * 1000.0;
        st.built.sema_ms = 0.0;
        let opts = opts(&self.linter, jobs);
        st.reprobe(&mut self.inc, &opts, self.linter.library_digest(), def_range, &exports);
        self.fast_patches += 1;
        true
    }

    /// Puts a parked canonical state back in place of the overlay that
    /// replaced it, then re-probes the same dirty set a patch would.
    fn swap(&mut self, parked: Parked, jobs: Option<usize>) {
        let start = Instant::now();
        let st = self.state.as_mut().expect("swap requires warm state");
        let bp = &mut st.built;
        let Parked { root_idx, unit, defs, controls, files, spans } = parked;
        let unit_idx = bp.root_start + root_idx;
        let def_range = bp.def_counts[unit_idx]..bp.def_counts[unit_idx + 1];
        bp.units[unit_idx] = unit;
        for (slot, def) in bp.program.defs[def_range.clone()].iter_mut().zip(defs) {
            *slot = def;
        }
        bp.root_controls[root_idx] = controls;
        bp.sm.put_entries(&bp.root_file_plans[root_idx], files);
        let mut exports = FxHashSet::default();
        for (name, global, function) in spans {
            exports.insert(name);
            if let (Some(g), Some(span)) = (bp.program.globals.get_mut(&name), global) {
                g.span = span;
            }
            if let (Some(f), Some(span)) = (bp.program.functions.get_mut(&name), function) {
                f.span = span;
            }
        }
        bp.parse_ms = start.elapsed().as_secs_f64() * 1000.0;
        bp.sema_ms = 0.0;
        let opts = opts(&self.linter, jobs);
        st.reprobe(&mut self.inc, &opts, self.linter.library_digest(), def_range, &exports);
        self.swaps += 1;
    }

    /// Builds a [`CheckResult`] from the warm state through the batch
    /// driver's own tail ([`Linter::finish`]). The source map's clone
    /// shares every file's text with the state.
    fn assemble(&mut self) -> CheckResult {
        let st = self.state.as_ref().expect("assemble requires state");
        let diags = st.def_diags.iter().flatten();
        let stats = self.inc.cache.take_stats();
        self.linter.finish(&st.built, st.built.sm.clone(), diags, Some(stats), st.check_ms)
    }

    /// A batch run: a one-shot session over the caller's cache, or over
    /// none. It builds and checks cold exactly as a session's first check
    /// does, then hands the build to the shared tail instead of keeping it
    /// warm, so neither the file set nor the source map is copied.
    pub(crate) fn once(
        linter: &Linter,
        files: &[(String, String)],
        roots: &[String],
        mut inc: Option<&mut IncrementalSession>,
    ) -> Result<CheckResult> {
        let State { mut built, def_diags, check_ms, .. } =
            State::cold(linter, inc.as_deref_mut(), files, roots, None)?;
        let sm = std::mem::take(&mut built.sm);
        let stats = inc.map(|inc| inc.cache.take_stats());
        let result = linter.finish(&built, sm, def_diags.iter().flatten(), stats, check_ms);
        built.release();
        Ok(result)
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
        let unstable_idx = match inc {
            Some(inc) => {
                let indices: Vec<usize> = (0..defs.len()).collect();
                inc.check(&built.program, &opts, linter.library_digest(), &indices, &mut slots)
            }
            None => {
                check_definitions(&built.program, &opts, |i, d| slots[i] = Some(d));
                Vec::new()
            }
        };
        let check_ms = check_start.elapsed().as_secs_f64() * 1000.0;
        let unstable = unstable_idx.iter().map(|&i| defs[i].sig.name).collect();
        let def_diags = slots.into_iter().map(|s| s.unwrap_or_default()).collect();
        Ok(State { built, def_diags, unstable, check_ms, parked: None })
    }

    /// Re-checks, through the cache, what a swap or patch of the unit that
    /// holds `def_range` can have changed: its own definitions (their spans
    /// moved), every definition elsewhere that resolved a name in `exports`
    /// (its cached notes may anchor on the moved spans), and everything
    /// whose last result was unstable. Clean definitions are provably
    /// bit-identical: their fingerprints are span-free and none of their
    /// anchors moved.
    fn reprobe(
        &mut self,
        inc: &mut IncrementalSession,
        opts: &AnalysisOptions,
        lib: u64,
        def_range: Range<usize>,
        exports: &FxHashSet<Symbol>,
    ) {
        let defs = &self.built.program.defs;
        let mut dirty: Vec<usize> = def_range.clone().collect();
        for (i, def) in defs.iter().enumerate() {
            if def_range.contains(&i) {
                continue;
            }
            let name = def.sig.name;
            let touched = self.unstable.contains(&name)
                || inc.cache.entry(name).is_none_or(|e| {
                    e.deps.functions.iter().chain(&e.deps.globals).any(|n| exports.contains(n))
                });
            if touched {
                dirty.push(i);
            }
        }
        dirty.sort_unstable();

        let check_start = Instant::now();
        let mut slots: Vec<Option<Vec<Diagnostic>>> = vec![None; defs.len()];
        let unstable_idx = inc.check(&self.built.program, opts, lib, &dirty, &mut slots);
        self.check_ms = check_start.elapsed().as_secs_f64() * 1000.0;
        for &i in &dirty {
            self.def_diags[i] = slots[i].take().unwrap_or_default();
            self.unstable.remove(&defs[i].sig.name);
        }
        for &i in &unstable_idx {
            self.unstable.insert(defs[i].sig.name);
        }
    }
}

/// Moves the registered span of every name in `reloc` from its old
/// position to its new one. The moves are simultaneous: each registered
/// span is looked up once among its name's `(old, new)` pairs, so a span
/// moved onto another pair's old position is not moved again.
fn relocate(program: &mut Program, reloc: &[(Symbol, Span, Span)]) {
    let mut by_name: FxHashMap<Symbol, Vec<(Span, Span)>> = FxHashMap::default();
    for &(name, old, new) in reloc {
        by_name.entry(name).or_default().push((old, new));
    }
    for (name, pairs) in &by_name {
        let moved = |span: &mut Span| {
            if let Some(&(_, new)) = pairs.iter().find(|(old, _)| old == span) {
                *span = new;
            }
        };
        if let Some(g) = program.globals.get_mut(name) {
            moved(&mut g.span);
        }
        if let Some(f) = program.functions.get_mut(name) {
            moved(&mut f.span);
        }
    }
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
            s.built().unwrap().sm.text(s.built().unwrap().root_file_plans[0][0]),
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
}
