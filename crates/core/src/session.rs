//! Warm analysis sessions: a parsed program kept alive across checks.
//!
//! A [`Session`] owns the canonical file set, the built [`Program`] (with
//! its shared AST arenas), the source map, and the incremental check cache.
//! After the first (cold) build, an edit to one root file takes a *patch
//! fast path*: the changed root is re-preprocessed over a source-map replay
//! (so every file keeps its id), re-parsed, and — when the edit provably
//! changed nothing but function bodies and byte offsets — spliced into the
//! existing program without re-running semantic analysis on the other
//! units. Only the changed definitions and their dependents are re-probed
//! through the cache; everything else reuses its previous per-definition
//! diagnostics verbatim.
//!
//! The invariant the fast path preserves, and the tests assert, is
//! **byte-identity**: for any sequence of edits, the session's rendered
//! output equals a cold batch run over the same final file set. Whenever a
//! precondition cannot be proven (interface change, parse error, new
//! include, edited header), the session falls back to a full rebuild —
//! which is always correct, merely slower.
//!
//! This is the engine under both `rlclint --watch` and the `rlclintd`
//! analysis server.

use crate::driver::{BuiltProgram, CheckResult, Linter};
use crate::incremental::IncrementalSession;
use lclint_analysis::{check_definitions, AnalysisOptions, Diagnostic};
use lclint_syntax::ast::Item;
use lclint_syntax::fx::FxHashSet;
use lclint_syntax::pp::{preprocess, BorrowedProvider};
use lclint_syntax::span::{FileId, Span};
use lclint_syntax::{pretty_print_declaration, pretty_print_function, Parser, Result, Symbol};
use std::io;
use std::path::PathBuf;

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
    /// next request that needs canonical state patches back on demand, so
    /// an overlay storm on one file costs a single patch per request.
    loaded: Option<(String, String)>,
    rebuilds: usize,
    fast_patches: usize,
    no_ops: usize,
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
        // An overlay loaded for a *different* file must be undone first so
        // the warm state reflects canonical text everywhere but `name`.
        if self.loaded.as_ref().is_some_and(|(n, _)| n != name) {
            self.restore_canonical(jobs)?;
        }
        let pos = self.files.iter().position(|(n, _)| n == name);
        let old_text = pos.map(|i| std::mem::replace(&mut self.files[i].1, text.to_owned()));
        if pos.is_none() {
            self.files.push((name.to_owned(), text.to_owned()));
        }
        // The text the warm state currently reflects for `name`: a loaded
        // same-file overlay wins over the canonical text just replaced.
        let base = match self.loaded.take() {
            Some((_, overlay)) => Some(overlay),
            None => old_text,
        };
        if self.state.is_some() && base.as_deref() == Some(text) {
            self.no_ops += 1;
            return Ok(self.assemble());
        }
        if let Some(base) = &base {
            if self.state.is_some() && self.try_patch(name, base, text, jobs)? {
                return Ok(self.assemble());
            }
        }
        self.rebuild(jobs)?;
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
        if self.loaded.as_ref().is_some_and(|(n, _)| n != name) {
            self.restore_canonical(jobs)?;
        }
        if self.state.is_none() {
            self.loaded = None;
            self.rebuild(jobs)?;
        }
        // The text the warm state currently reflects for `name`.
        let current = match &self.loaded {
            Some((_, overlay)) => overlay.clone(),
            None => self.file_text(name).expect("file is registered").to_owned(),
        };
        if current == text {
            self.no_ops += 1;
            return Ok(self.assemble());
        }
        if !self.try_patch(name, &current, text, jobs)? {
            // Rebuild against the overlay text without disturbing the
            // canonical entry. A failed rebuild leaves the old state (still
            // reflecting `current`) in place, which stays consistent with
            // the `loaded` marker below only because `rebuild` assigns
            // `self.state` solely on success.
            let pos = self.files.iter().position(|(n, _)| n == name).expect("file is registered");
            let saved = std::mem::replace(&mut self.files[pos].1, text.to_owned());
            let built = self.rebuild(jobs);
            self.files[pos].1 = saved;
            built?;
        }
        self.loaded = if self.file_text(name) == Some(text) {
            None
        } else {
            Some((name.to_owned(), text.to_owned()))
        };
        Ok(self.assemble())
    }

    /// Undoes a lazily-loaded overlay, patching the warm state back to the
    /// canonical text (or rebuilding when the patch gate refuses).
    fn restore_canonical(&mut self, jobs: Option<usize>) -> Result<()> {
        let Some((name, overlay)) = self.loaded.take() else {
            return Ok(());
        };
        if self.state.is_none() {
            return Ok(());
        }
        let Some(canonical) = self.file_text(&name).map(str::to_owned) else {
            self.state = None;
            return Ok(());
        };
        if canonical == overlay {
            return Ok(());
        }
        if self.try_patch(&name, &overlay, &canonical, jobs)? {
            return Ok(());
        }
        if let Err(e) = self.rebuild(jobs) {
            // The old state reflects the overlay but the marker is gone:
            // drop it rather than serve stale diagnostics.
            self.state = None;
            return Err(e);
        }
        Ok(())
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
    /// definition through the cache. Always correct; the fast path falls
    /// back here whenever a precondition fails.
    fn rebuild(&mut self, jobs: Option<usize>) -> Result<()> {
        self.rebuilds += 1;
        self.state =
            Some(State::cold(&self.linter, Some(&mut self.inc), &self.files, &self.roots, jobs)?);
        Ok(())
    }

    /// The patch fast path for an edit of `name` from `old_text` to
    /// `new_text`. Returns `Ok(false)` when `name` is not a root or any
    /// precondition fails (the caller then rebuilds); `Ok(true)` when the
    /// edit was spliced in and the dirty definitions re-checked.
    fn try_patch(
        &mut self,
        name: &str,
        old_text: &str,
        new_text: &str,
        jobs: Option<usize>,
    ) -> Result<bool> {
        let Some(root_idx) = self.roots.iter().position(|r| r == name) else {
            return Ok(false);
        };
        let parse_start = std::time::Instant::now();
        let opts = opts(&self.linter, jobs);
        let lib = self.linter.library_digest();
        let State { built: bp, def_diags, unstable, check_ms } =
            self.state.as_mut().expect("try_patch requires warm state");
        // Preconditions on the previous build of this root: it must have
        // parsed cleanly (a partial unit cannot be paired) and contributed
        // no semantic errors (their spans would go stale).
        if !bp.root_syntax_diags[root_idx].is_empty() {
            return Ok(false);
        }
        let plan = bp.root_file_plans[root_idx].clone();
        if plan.is_empty() {
            return Ok(false);
        }
        let root_fid = plan[0];
        if bp.program.errors.iter().any(|e| plan.contains(&e.span.file)) {
            return Ok(false);
        }

        // Re-preprocess the root over a replay: every file it registers
        // must line up with the old plan (same names, same order) so all
        // ids — and therefore every other unit's spans — stay valid.
        let mut provider = BorrowedProvider::new(&self.files);
        // `new_text` wins over the canonical entry: overlay patches check
        // a text the canonical file set does not hold.
        provider.insert(&self.roots[root_idx], new_text);
        bp.sm.begin_replay(plan.clone());
        let out = match preprocess(&self.roots[root_idx], &provider, &mut bp.sm) {
            Ok(out) => out,
            Err(_) => {
                // The map may hold partially replayed texts; only a full
                // rebuild (fresh map) is safe now.
                let _ = bp.sm.end_replay();
                return Ok(false);
            }
        };
        if !bp.sm.end_replay() {
            return Ok(false);
        }

        // Re-parse with exactly the typedef context the old build used:
        // the borrowed inherited names plus the typedefs of earlier roots
        // (`typedef_prefix[0]` is where the roots' entries start).
        let mut parser = Parser::with_inherited(out.tokens, &bp.inherited);
        for t in &bp.typedefs[bp.typedef_prefix[0]..bp.typedef_prefix[root_idx]] {
            parser.add_typedef(t.as_str());
        }
        let (new_tu, errors) = parser.parse_translation_unit_recovering();
        if !errors.is_empty() {
            return Ok(false);
        }

        // Pair the old and new items. The gate: every declaration is
        // unchanged up to spans (span-free pretty-print equality), every
        // function definition keeps its exact header bytes — so the only
        // semantic deltas are function bodies, and the only table deltas
        // are spans.
        let unit_idx = bp.root_start + root_idx;
        let old_tu = &bp.units[unit_idx];
        if old_tu.items.len() != new_tu.items.len() {
            return Ok(false);
        }
        // (name, old declarator span, new declarator span) for relocation.
        let mut reloc: Vec<(Symbol, Span, Span)> = Vec::new();
        // New definition headers paired with the old definition order.
        let mut new_defs: Vec<&lclint_syntax::ast::FunctionDef> = Vec::new();
        for (old_item, new_item) in old_tu.items.iter().zip(&new_tu.items) {
            match (old_item, new_item) {
                (Item::Decl(od), Item::Decl(nd)) => {
                    let od = old_tu.arena.decl(*od);
                    let nd = new_tu.arena.decl(*nd);
                    if pretty_print_declaration(&old_tu.arena, od)
                        != pretty_print_declaration(&new_tu.arena, nd)
                    {
                        return Ok(false);
                    }
                    for (oi, ni) in od.declarators.iter().zip(&nd.declarators) {
                        if let Some(name) = oi.declarator.name {
                            reloc.push((name, oi.declarator.span, ni.declarator.span));
                        }
                    }
                }
                (Item::Function(of), Item::Function(nf)) => {
                    if of.name() != nf.name() {
                        return Ok(false);
                    }
                    if pretty_print_function(&old_tu.arena, of)
                        != pretty_print_function(&new_tu.arena, nf)
                    {
                        // Body changed. The header bytes must be identical
                        // so the resolved signature is provably unchanged.
                        let old_head = def_head(old_text, of, &old_tu.arena, root_fid);
                        let new_head = def_head(new_text, nf, &new_tu.arena, root_fid);
                        match (old_head, new_head) {
                            (Some(a), Some(b)) if a == b => {}
                            _ => return Ok(false),
                        }
                    }
                    new_defs.push(nf);
                }
                _ => return Ok(false),
            }
        }
        let def_range = bp.def_counts[unit_idx]..bp.def_counts[unit_idx + 1];
        if def_range.len() != new_defs.len() {
            return Ok(false);
        }

        // Commit: splice the new unit in. Every definition in the unit gets
        // its old (merged) signature with the new span, the new header AST,
        // and the new arena; globals and prototypes declared here get their
        // spans relocated wherever the old span is still the registered one.
        for (k, nf) in new_defs.iter().enumerate() {
            let i = def_range.start + k;
            let old_span = bp.program.defs[i].sig.span;
            let mut sig = bp.program.defs[i].sig.clone();
            sig.span = nf.span;
            if let Some(f) = bp.program.functions.get_mut(&sig.name) {
                if f.span == old_span {
                    f.span = nf.span;
                }
            }
            bp.program.defs[i] = lclint_sema::CheckedFunction {
                sig,
                ast: (*nf).clone(),
                arena: std::sync::Arc::clone(&new_tu.arena),
            };
        }
        let mut exports: FxHashSet<Symbol> = FxHashSet::default();
        for &(name, old_span, new_span) in &reloc {
            exports.insert(name);
            if let Some(g) = bp.program.globals.get_mut(&name) {
                if g.span == old_span {
                    g.span = new_span;
                }
            }
            if let Some(f) = bp.program.functions.get_mut(&name) {
                if f.span == old_span {
                    f.span = new_span;
                }
            }
        }
        for i in def_range.clone() {
            exports.insert(bp.program.defs[i].sig.name);
        }
        bp.root_controls[root_idx] = out.controls;
        bp.units[unit_idx] = new_tu;
        bp.parse_ms = parse_start.elapsed().as_secs_f64() * 1000.0;
        bp.sema_ms = 0.0;

        // Dirty set: the patched unit's definitions (their spans moved),
        // plus every definition elsewhere that resolved a name this file
        // declares (its cached notes may anchor on the moved spans), plus
        // everything whose last result was unstable. Clean definitions are
        // provably bit-identical: their fingerprints are span-free and
        // none of their anchors moved.
        let defs_len = bp.program.defs.len();
        let mut dirty: Vec<usize> = def_range.clone().collect();
        for i in 0..defs_len {
            if def_range.contains(&i) {
                continue;
            }
            let name = bp.program.defs[i].sig.name;
            if unstable.contains(&name) {
                dirty.push(i);
                continue;
            }
            match self.inc.cache.entry(name) {
                None => dirty.push(i),
                Some(e) => {
                    if e.deps.functions.iter().any(|n| exports.contains(n))
                        || e.deps.globals.iter().any(|n| exports.contains(n))
                    {
                        dirty.push(i);
                    }
                }
            }
        }
        dirty.sort_unstable();

        let check_start = std::time::Instant::now();
        let mut slots: Vec<Option<Vec<Diagnostic>>> = vec![None; defs_len];
        let unstable_idx = self.inc.check(&bp.program, &opts, lib, &dirty, &mut slots);
        *check_ms = check_start.elapsed().as_secs_f64() * 1000.0;
        for &i in &dirty {
            def_diags[i] = slots[i].take().unwrap_or_default();
            let name = bp.program.defs[i].sig.name;
            unstable.remove(&name);
        }
        for &i in &unstable_idx {
            let name = bp.program.defs[i].sig.name;
            unstable.insert(name);
        }
        self.fast_patches += 1;
        Ok(true)
    }

    /// Builds a [`CheckResult`] from the warm state through the batch
    /// driver's own tail ([`Linter::finish`]).
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
        let check_start = std::time::Instant::now();
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
        Ok(State { built, def_diags, unstable, check_ms })
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

/// The header bytes of a definition: everything from the start of the item
/// to the start of its body. `None` when the definition does not live
/// entirely in the root file (macro-expanded bodies, definitions pulled in
/// from headers) — those take the slow path.
#[allow(clippy::needless_lifetimes)]
fn def_head<'t>(
    text: &'t str,
    f: &lclint_syntax::ast::FunctionDef,
    arena: &lclint_syntax::ast::Ast,
    root_fid: FileId,
) -> Option<&'t str> {
    let body = arena.stmt_span(f.body);
    if f.span.file != root_fid || body.file != root_fid {
        return None;
    }
    let (start, end) = (f.span.start as usize, body.start as usize);
    if start > end || end > text.len() {
        return None;
    }
    Some(&text[start..end])
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
}
