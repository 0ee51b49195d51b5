//! The checking driver: preprocess + parse every source file, build one
//! program from the annotated standard library, loaded interface libraries
//! and all translation units, run the memory checks, then apply flag and
//! suppression-comment filtering.

use crate::annotate::{apply_annotations, PlacedAnnotation};
use crate::flags::Flags;
use crate::frontend::{collect_typedef_names, parse_roots};
use crate::incremental::IncrementalSession;
use crate::render::RenderedDiagnostic;
use crate::session::Session;
use crate::stdlib::STDLIB_SOURCE;
use crate::suppress::SuppressionSet;
use lclint_analysis::cache::{options_digest, CacheStats};
use lclint_analysis::{effective_jobs, infer_annotations, DiagKind, Diagnostic};
use lclint_sema::Program;
use lclint_syntax::ast::ArenaStats;
use lclint_syntax::fx::FxHashSet;
use lclint_syntax::lexer::ControlComment;
use lclint_syntax::pp::{preprocess, BorrowedProvider};
use lclint_syntax::span::{SourceMap, Span};
use lclint_syntax::stable_hash::StableHasher;
use lclint_syntax::{Parser, Result, Symbol, SyntaxError, TranslationUnit};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// The preprocessed+parsed annotated standard library, computed once per
/// process. `source_map` holds exactly the stdlib's file entries; a check
/// run clones it as its starting map so spans and file ids come out
/// identical to an uncached run.
#[derive(Debug)]
struct StdlibCache {
    unit: TranslationUnit,
    typedefs: Vec<Symbol>,
    source_map: SourceMap,
}

static STDLIB_CACHE: OnceLock<std::result::Result<StdlibCache, SyntaxError>> = OnceLock::new();

thread_local! {
    static STDLIB_CACHE_HITS: Cell<usize> = const { Cell::new(0) };
}

/// How many builds on the calling thread have reused the cached stdlib
/// parse instead of re-lexing and re-parsing it (observability for
/// benchmarks and tests). Counted per thread, since a build fetches the
/// stdlib on its caller's thread: checks running concurrently on other
/// threads never move this thread's count.
pub fn stdlib_cache_hits() -> usize {
    STDLIB_CACHE_HITS.with(Cell::get)
}

/// The process-wide stdlib parse, or the error that prevented it. The error
/// is kept (not discarded) so every run can surface it as a diagnostic
/// instead of silently checking without the standard library.
fn cached_stdlib() -> std::result::Result<&'static StdlibCache, &'static SyntaxError> {
    let mut initializing = false;
    let slot = STDLIB_CACHE.get_or_init(|| {
        initializing = true;
        let mut sm = SourceMap::new();
        let mut p = BorrowedProvider::default();
        p.insert("<stdlib>", STDLIB_SOURCE);
        let out = preprocess("<stdlib>", &p, &mut sm)?;
        let unit = Parser::new(out.tokens).parse_translation_unit()?;
        let typedefs = collect_typedef_names(&unit);
        Ok(StdlibCache { unit, typedefs, source_map: sm })
    });
    if !initializing && slot.is_ok() {
        STDLIB_CACHE_HITS.with(|hits| hits.set(hits.get() + 1));
    }
    slot.as_ref()
}

/// Substrate counters: the flat-arena footprint of every parsed unit, the
/// process-wide interner size, and how the front end ran. Reported by
/// `--stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubstrateStats {
    /// Aggregated node-arena sizes across the run's units (stdlib included).
    pub arena: ArenaStats,
    /// Interned symbols alive in the process after the run.
    pub symbols: usize,
    /// Threads that preprocessed and parsed the roots of the last build.
    pub frontend_jobs: usize,
    /// Roots of the last build parsed twice because their speculative
    /// parse looked up a typedef an earlier root declares. Deterministic:
    /// the same for every `frontend_jobs`.
    pub typedef_reparses: usize,
}

/// Peak resident set size of this process in bytes (`VmHWM`), when the
/// platform exposes it. `None` elsewhere — callers print it best-effort.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Everything one build of the program produces: the resolved tables plus
/// the per-unit syntax needed for rendering and annotation write-back.
///
/// The per-root records (`root_file_plans`, `root_controls`,
/// `root_syntax_diags`, `typedef_prefix`, `def_counts`) let a warm
/// [`Session`] re-derive exactly one root's contribution and splice it
/// into the built program instead of rebuilding everything; the session
/// keeps the whole value as its warm state.
pub(crate) struct BuiltProgram {
    pub(crate) program: Program,
    pub(crate) sm: SourceMap,
    /// Every parsed unit in load order; `root_start` indexes the first unit
    /// belonging to `roots` (earlier ones are interface libraries). A root
    /// that failed to lex or preprocess contributes an *empty* unit so the
    /// `roots` indices stay aligned.
    pub(crate) units: Vec<TranslationUnit>,
    pub(crate) root_start: usize,
    /// Wall-clock milliseconds of the front end (preprocessing and
    /// parsing every unit) less `sema_ms`, which overlaps it; a session's
    /// patch overwrites it with the patch's own time.
    pub(crate) parse_ms: f64,
    /// Milliseconds the committing thread spent resolving the program
    /// (name/type binding), unit by unit as the front end delivered them.
    pub(crate) sema_ms: f64,
    /// Threads that preprocessed and parsed the roots.
    pub(crate) frontend_jobs: usize,
    /// Roots parsed twice (see [`SubstrateStats::typedef_reparses`]).
    pub(crate) typedef_reparses: usize,
    /// The stdlib's node-arena footprint (the units' share is recomputed
    /// from `units`, which a session patches; the stdlib never changes).
    pub(crate) stdlib_arena: ArenaStats,
    /// Source-map file ids registered while preprocessing each root, in
    /// registration order (the replay plan for re-preprocessing that root).
    pub(crate) root_file_plans: Vec<Vec<lclint_syntax::FileId>>,
    /// Control comments contributed by each root.
    pub(crate) root_controls: Vec<Vec<ControlComment>>,
    /// Build diagnostics that precede every root's (currently only the
    /// stdlib-unavailable notice). Like `root_syntax_diags`, merged into
    /// the check output so broken input degrades to messages instead of
    /// aborting the run.
    pub(crate) pre_root_diags: Vec<Diagnostic>,
    /// Recovered parse / preprocess diagnostics per root.
    pub(crate) root_syntax_diags: Vec<Vec<Diagnostic>>,
    /// Typedef names accumulated across units, in registration order.
    pub(crate) typedefs: Vec<Symbol>,
    /// The names of `typedefs` that precede every root (standard library
    /// and interface libraries): the set every root parse borrows.
    pub(crate) inherited: FxHashSet<String>,
    /// Length of `typedefs` before each root's unit was parsed.
    pub(crate) typedef_prefix: Vec<usize>,
    /// `program.defs.len()` marks: `def_counts[0]` after the stdlib,
    /// `def_counts[k + 1]` after `units[k]` — so unit `k` contributed the
    /// definitions `def_counts[k]..def_counts[k + 1]`.
    pub(crate) def_counts: Vec<usize>,
}

impl BuiltProgram {
    /// Node-arena footprint of the stdlib and every unit.
    pub(crate) fn arena_stats(&self) -> ArenaStats {
        let mut arena = self.stdlib_arena;
        for u in &self.units {
            arena.absorb(&u.arena.stats());
        }
        arena
    }

    /// Frees a build its caller is done with. A build whose front end ran
    /// on more than one worker is dropped on a short-lived thread, so the
    /// caller returns while its arenas and tables are still being freed;
    /// the next build joins that thread before it allocates, so two builds
    /// never hold memory at once. The thread lives only as long as the
    /// drop: a long-lived one keeps the malloc arena it attached to, and
    /// the next build's memory ends up stranded there. One-root builds are
    /// dropped inline: a spawn costs more than their drop.
    pub(crate) fn release(self) {
        if self.frontend_jobs <= 1 {
            return;
        }
        let mut slot = TEARDOWN.lock().unwrap_or_else(PoisonError::into_inner);
        // A teardown still pending here belongs to a build on another
        // thread: the new thread joins it first, so the slot covers both.
        let pending = slot.take();
        let spawned =
            std::thread::Builder::new().name("lclint-teardown".to_owned()).spawn(move || {
                if let Some(h) = pending {
                    let _ = h.join();
                }
                drop(self);
            });
        // A failed spawn dropped the closure, and the build with it, here.
        *slot = spawned.ok();
    }
}

/// The thread dropping the last build handed to [`BuiltProgram::release`],
/// until the next [`Linter::build_program`] joins it.
static TEARDOWN: Mutex<Option<JoinHandle<()>>> = Mutex::new(None);

/// Waits for the pending [`BuiltProgram::release`] thread. The lock is
/// held while waiting, so once this returns, on any thread, every build
/// released before the call is freed. A panic while dropping costs the
/// caller nothing and is not propagated.
fn join_teardown() {
    let mut slot = TEARDOWN.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(h) = slot.take() {
        let _ = h.join();
    }
}

/// The program's semantic (declaration-level) errors, rendered as
/// `file:line: message`.
fn sema_errors(program: &Program, sm: &SourceMap) -> Vec<String> {
    program.errors.iter().map(|e| format!("{}: {}", sm.loc(e.span), e.message)).collect()
}

/// The result of one inference run ([`Linter::infer_files`]).
#[derive(Debug, Clone, Default)]
pub struct InferOutcome {
    /// Every recovered annotation with its resolved source location.
    pub placed: Vec<PlacedAnnotation>,
    /// Whole-program fixpoint sweeps executed.
    pub rounds: usize,
    /// Strongly connected components in the call graph.
    pub sccs: usize,
    /// Unified-diff-style report over every changed declaration.
    pub diff: String,
    /// `(root file name, annotated source)` for every checked root, rendered
    /// through the pretty-printer with the inferred annotations attached.
    pub annotated: Vec<(String, String)>,
    /// Semantic (declaration-level) problems, rendered.
    pub sema_errors: Vec<String>,
}

/// The result of one check run.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// Diagnostics that survived filtering, in source order.
    pub diagnostics: Vec<RenderedDiagnostic>,
    /// Number of messages removed by suppression comments.
    pub suppressed: usize,
    /// Semantic (declaration-level) problems, rendered.
    pub sema_errors: Vec<String>,
    /// The source map of the run (for custom rendering).
    pub source_map: SourceMap,
    /// Incremental-cache counters, present when the run went through an
    /// [`IncrementalSession`].
    pub cache_stats: Option<CacheStats>,
    /// Wall-clock milliseconds spent in the checking phase alone (dataflow
    /// analysis, cache probing, and saving a directory-backed cache;
    /// excludes preprocessing, parsing, and program construction). This is the phase the incremental cache
    /// accelerates, so benchmarks report it alongside total time.
    pub check_ms: f64,
    /// Wall-clock milliseconds of the front end (preprocessing and
    /// parsing) less `sema_ms`. Sema runs while the roots are still being
    /// parsed, so `parse_ms + sema_ms` is the front end's wall time.
    pub parse_ms: f64,
    /// Milliseconds spent building the resolved program: the busy time of
    /// the thread that resolves each unit as the front end commits it.
    pub sema_ms: f64,
    /// Flat-arena and interner counters for the run.
    pub substrate: SubstrateStats,
}

impl CheckResult {
    /// Renders the kept diagnostics in LCLint's output format.
    pub fn render(&self) -> String {
        crate::render::render_all(&self.diagnostics)
    }

    /// True when no anomalies were reported.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.sema_errors.is_empty()
    }

    /// Message counts by class flag name (for summaries and harnesses).
    pub fn counts_by_kind(&self) -> BTreeMap<String, usize> {
        self.counts(|d| Some(d.kind.clone()))
    }

    /// Message counts by CWE id (for `--stats` and the daemon's `stats`
    /// response). Diagnostics whose kind has no CWE mapping (syntax,
    /// internal, budget, ...) are not counted.
    pub fn counts_by_cwe(&self) -> BTreeMap<u32, usize> {
        self.counts(|d| d.cwe)
    }

    fn counts<K: Ord>(&self, key: impl Fn(&RenderedDiagnostic) -> Option<K>) -> BTreeMap<K, usize> {
        let mut m = BTreeMap::new();
        for k in self.diagnostics.iter().filter_map(key) {
            *m.entry(k).or_insert(0) += 1;
        }
        m
    }
}

/// The checker: LCLint's top-level interface.
///
/// # Examples
///
/// ```
/// use lclint_core::{Flags, Linter};
///
/// let linter = Linter::new(Flags::default());
/// let result = linter
///     .check_source(
///         "sample.c",
///         "extern char *gname;\n\
///          void setName(/*@null@*/ char *pname)\n{\n  gname = pname;\n}\n",
///     )
///     .unwrap();
/// assert_eq!(result.diagnostics.len(), 1);
/// assert!(result
///     .render()
///     .contains("Function returns with non-null global gname referencing null storage"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Linter {
    /// The flag state for this run.
    pub flags: Flags,
    /// Extra interface libraries (name, text) made available to every run.
    libraries: Vec<(String, String)>,
}

impl Linter {
    /// Creates a linter with the given flags.
    pub fn new(flags: Flags) -> Self {
        Linter { flags, libraries: Vec::new() }
    }

    /// Adds an interface library (see [`crate::library`]).
    pub fn add_library(&mut self, name: impl Into<String>, text: impl Into<String>) -> &mut Self {
        self.libraries.push((name.into(), text.into()));
        self
    }

    /// Checks a single in-memory source file.
    ///
    /// # Errors
    ///
    /// Returns lexing/preprocessing/parsing errors.
    pub fn check_source(&self, name: &str, text: &str) -> Result<CheckResult> {
        self.check_files(&[(name.to_owned(), text.to_owned())], &[(name.to_owned())])
    }

    /// Checks a set of files. `files` holds every file (sources and
    /// headers); `roots` names the translation units to check (headers are
    /// reached through `#include`).
    ///
    /// # Errors
    ///
    /// Returns the first lexing/preprocessing/parsing error.
    pub fn check_files(&self, files: &[(String, String)], roots: &[String]) -> Result<CheckResult> {
        self.check_files_with(files, roots, None)
    }

    /// Digest of everything outside the parsed program that feeds checking:
    /// whether the annotated stdlib is loaded, and the text of every added
    /// interface library. Part of every cache fingerprint.
    pub(crate) fn library_digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_bool(self.flags.use_stdlib);
        h.write_u64(self.libraries.len() as u64);
        for (name, text) in &self.libraries {
            h.write_str(name);
            h.write_str(text);
        }
        h.finish()
    }

    /// Digest of everything outside the checked source text that can change
    /// this linter's diagnostics: the analysis options and the loaded
    /// libraries. Two linters with equal digests produce identical results
    /// for identical input text — the key property content-addressed result
    /// sharing (fleet workers, `--cas`) relies on.
    pub fn check_digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(options_digest(&self.flags.analysis));
        h.write_u64(self.library_digest());
        h.finish()
    }

    /// Preprocesses and parses everything (stdlib, libraries, roots) and
    /// builds the resolved program. Shared by checking, inference, and the
    /// incremental session. `jobs` sizes the root front end (0 = all
    /// cores); the result is identical for every value.
    pub(crate) fn build_program(
        &self,
        files: &[(String, String)],
        roots: &[String],
        jobs: usize,
    ) -> Result<BuiltProgram> {
        join_teardown();
        let provider = BorrowedProvider::new(files);
        let mut sm = SourceMap::new();
        let mut units: Vec<TranslationUnit> = Vec::new();
        let mut pre_root_diags: Vec<Diagnostic> = Vec::new();
        // Typedef names accumulate across units so that interface libraries
        // (which carry type definitions like LCLint's .lcs files) make their
        // types usable in later translation units.
        let mut typedefs: Vec<Symbol> = Vec::new();
        let parse_start = std::time::Instant::now();

        // The standard library is itself just an annotated source file. Its
        // parse never changes, so every run after the first reuses the
        // process-wide cache; the run's SourceMap starts from the cached
        // prefix so spans are identical either way.
        let mut stdlib_unit: Option<&'static TranslationUnit> = None;
        if self.flags.use_stdlib {
            match cached_stdlib() {
                Ok(cache) => {
                    sm = cache.source_map.clone();
                    typedefs.extend(cache.typedefs.iter().copied());
                    stdlib_unit = Some(&cache.unit);
                }
                Err(e) => {
                    // The stdlib failed to preprocess or parse (should not
                    // happen): say so and check without it, rather than
                    // silently dropping the standard interfaces or killing
                    // the whole run.
                    pre_root_diags.push(Diagnostic::new(
                        DiagKind::SyntaxError,
                        format!(
                            "Annotated standard library unavailable ({e}); \
                             checking continues without it"
                        ),
                        Span::synthetic(),
                    ));
                }
            }
        }
        let mut inherited: FxHashSet<String> =
            typedefs.iter().map(|t| t.as_str().to_owned()).collect();
        // Sema runs on this thread as the units arrive: `extend_with` in
        // load order (stdlib, libraries, roots) with a `def_counts` mark
        // after each, `def_counts[0]` marking the stdlib even when it is
        // absent. These are the calls a sema after the whole parse makes.
        let mut program = Program::new();
        let mut def_counts: Vec<usize> = Vec::with_capacity(1 + self.libraries.len() + roots.len());
        let mut sema_busy = std::time::Duration::ZERO;
        let mut sema = |u: Option<&TranslationUnit>| {
            let start = std::time::Instant::now();
            if let Some(u) = u {
                program.extend_with(u);
            }
            def_counts.push(program.defs.len());
            sema_busy += start.elapsed();
        };
        sema(stdlib_unit);
        // Interface libraries are trusted configuration, not checked input:
        // a broken library stays a hard error.
        for (name, text) in &self.libraries {
            let mut p = BorrowedProvider::default();
            p.insert(name, text);
            let out = preprocess(name, &p, &mut sm)?;
            let tu = Parser::with_inherited(out.tokens, &inherited).parse_translation_unit()?;
            let names = collect_typedef_names(&tu);
            inherited.extend(names.iter().map(|t| t.as_str().to_owned()));
            typedefs.extend(names);
            sema(Some(&tu));
            units.push(tu);
        }
        let root_start = units.len();
        let frontend_jobs = effective_jobs(jobs, roots.len());
        let parsed =
            parse_roots(roots, &provider, &mut sm, &inherited, &mut typedefs, frontend_jobs, |u| {
                sema(Some(u))
            });
        units.extend(parsed.units);
        // Sema ran inside the front end's wall time, on the committing
        // thread: the parse gets the rest.
        let sema_ms = sema_busy.as_secs_f64() * 1000.0;
        let parse_ms = parse_start.elapsed().as_secs_f64() * 1000.0 - sema_ms;

        let stdlib_arena = stdlib_unit.map(|u| u.arena.stats()).unwrap_or_default();
        Ok(BuiltProgram {
            program,
            sm,
            units,
            root_start,
            parse_ms,
            sema_ms,
            frontend_jobs,
            typedef_reparses: parsed.typedef_reparses,
            stdlib_arena,
            root_file_plans: parsed.file_plans,
            root_controls: parsed.controls,
            pre_root_diags,
            root_syntax_diags: parsed.syntax_diags,
            typedefs,
            inherited,
            typedef_prefix: parsed.typedef_prefix,
            def_counts,
        })
    }

    /// Like [`Linter::check_files`], but routes checking through an
    /// incremental session when one is given. Either way the run is a
    /// one-shot [`Session`]: with a cache, functions whose fingerprints
    /// still match are not re-checked, a directory-backed cache is saved
    /// afterwards, and [`CheckResult::cache_stats`] reports
    /// hits/misses/invalidations; without one, every function is checked
    /// with no dependency recording or fingerprinting. Output is
    /// byte-identical either way, for any `jobs` value.
    ///
    /// # Errors
    ///
    /// Returns the first lexing/preprocessing/parsing error.
    pub fn check_files_with(
        &self,
        files: &[(String, String)],
        roots: &[String],
        incremental: Option<&mut IncrementalSession>,
    ) -> Result<CheckResult> {
        Session::once(self, files, roots, incremental)
    }

    /// The one post-check tail of every check run, batch or session.
    /// `diags` are the per-definition diagnostics of checking `built`, in
    /// definition order, borrowed from wherever the caller keeps them. The
    /// build's syntax diagnostics are merged in, the flag-enabled classes
    /// kept, the rest sorted by location, whatever a stylized suppression
    /// comment covers dropped, and the survivors rendered: only those are
    /// ever copied. `sm` is `built.sm`, moved out by a caller that is done
    /// with the build or cloned by a session that keeps it warm.
    ///
    /// The cache sits *below* this tail: entries hold the full
    /// per-function diagnostics, so toggling message classes or
    /// suppression comments never invalidates anything.
    pub(crate) fn finish<'d>(
        &self,
        built: &'d BuiltProgram,
        sm: SourceMap,
        diags: impl IntoIterator<Item = &'d Diagnostic>,
        cache_stats: Option<CacheStats>,
        check_ms: f64,
    ) -> CheckResult {
        let mut diags: Vec<&Diagnostic> = diags
            .into_iter()
            .chain(&built.pre_root_diags)
            .chain(built.root_syntax_diags.iter().flatten())
            .filter(|d| self.flags.enabled(d.kind))
            .collect();
        diags.sort_by_key(|d| (d.span.file, d.span.start));
        let (diags, suppressed) = if self.flags.suppression_comments {
            let controls: Vec<ControlComment> =
                built.root_controls.iter().flatten().cloned().collect();
            SuppressionSet::build(&controls, &sm).filter(diags, &sm, |d| d.span)
        } else {
            (diags, 0)
        };
        let diagnostics = diags.iter().map(|d| RenderedDiagnostic::resolve(d, &sm)).collect();
        let substrate = SubstrateStats {
            arena: built.arena_stats(),
            symbols: lclint_syntax::intern::symbol_count(),
            frontend_jobs: built.frontend_jobs,
            typedef_reparses: built.typedef_reparses,
        };
        CheckResult {
            diagnostics,
            suppressed,
            sema_errors: sema_errors(&built.program, &sm),
            source_map: sm,
            cache_stats,
            check_ms,
            parse_ms: built.parse_ms,
            sema_ms: built.sema_ms,
            substrate,
        }
    }
}

impl Linter {
    /// Runs whole-program annotation inference over a single in-memory
    /// source file. See [`Linter::infer_files`].
    ///
    /// # Errors
    ///
    /// Returns lexing/preprocessing/parsing errors.
    pub fn infer_source(&self, name: &str, text: &str) -> Result<InferOutcome> {
        self.infer_files(&[(name.to_owned(), text.to_owned())], &[name.to_owned()])
    }

    /// Recovers `null` / `only` / `out` / `notnull` annotations from the
    /// checked program (call-graph SCC fixpoint over the checker's transfer
    /// functions in summary mode) and maps them back onto the source.
    ///
    /// The run is read-only: it never opens or writes an incremental
    /// session, so a cache directory used by plain checking is untouched.
    ///
    /// # Errors
    ///
    /// Returns the first lexing/preprocessing/parsing error.
    pub fn infer_files(
        &self,
        files: &[(String, String)],
        roots: &[String],
    ) -> Result<InferOutcome> {
        let built = self.build_program(files, roots, self.flags.analysis.jobs)?;
        let result = infer_annotations(&built.program, &self.flags.analysis);
        let root_units = &built.units[built.root_start..];
        let applied = apply_annotations(root_units, &result.annots, &built.sm);
        let annotated = roots
            .iter()
            .zip(&applied.units)
            .map(|(r, u)| (r.clone(), lclint_syntax::pretty_print(u)))
            .collect();
        Ok(InferOutcome {
            placed: applied.placed,
            rounds: result.rounds,
            sccs: result.sccs,
            diff: applied.diff,
            annotated,
            sema_errors: sema_errors(&built.program, &built.sm),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclint_syntax::ast::Ast;
    use std::sync::{Arc, Weak};

    fn linter(jobs: usize) -> Linter {
        let mut flags = Flags::default();
        flags.analysis.jobs = jobs;
        Linter::new(flags)
    }

    /// Two roots: with two jobs the front end runs two workers, so a
    /// one-shot check frees the build on a teardown thread.
    fn two_roots() -> (Vec<(String, String)>, Vec<String>) {
        let files = vec![
            ("a.c".to_owned(), "void a(void)\n{\n  char *p = (char *) malloc(4);\n}\n".to_owned()),
            ("b.c".to_owned(), "int b(int x)\n{\n  return x + 1;\n}\n".to_owned()),
        ];
        (files, vec!["a.c".to_owned(), "b.c".to_owned()])
    }

    /// A handle on the first root's arena, alive while any of the build's
    /// units or definitions is.
    fn first_root_arena(built: &BuiltProgram) -> Weak<Ast> {
        Arc::downgrade(&built.units[built.root_start].arena)
    }

    #[test]
    fn a_released_multi_root_build_is_freed_before_the_next_build_returns() {
        // Two large roots, so freeing them takes longer than the tiny
        // build that follows unless that build waits for it.
        let big = |k: usize| {
            let text: String = (0..2000)
                .map(|i| format!("int f{k}_{i}(int x)\n{{\n  return x + {i};\n}}\n"))
                .collect();
            (format!("big{k}.c"), text)
        };
        let files = vec![big(0), big(1)];
        let roots: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
        let built = linter(2).build_program(&files, &roots, 2).unwrap();
        assert_eq!(built.frontend_jobs, 2);
        let arena = first_root_arena(&built);
        built.release();
        let tiny = [("one.c".to_owned(), "int one;\n".to_owned())];
        let next = linter(2).build_program(&tiny, &["one.c".to_owned()], 2).unwrap();
        assert!(arena.upgrade().is_none(), "the released build outlived the next build");
        drop(next);
    }

    #[test]
    fn a_one_root_build_is_freed_inline() {
        let files = vec![("one.c".to_owned(), "int one;\n".to_owned())];
        let roots = vec!["one.c".to_owned()];
        let built = linter(2).build_program(&files, &roots, 2).unwrap();
        assert_eq!(built.frontend_jobs, 1);
        let arena = first_root_arena(&built);
        built.release();
        assert!(arena.upgrade().is_none(), "a one-root build left a teardown pending");
        let r = linter(2).check_source("one.c", "int one;\n").unwrap();
        assert_eq!(r.substrate.frontend_jobs, 1);
    }

    #[test]
    fn a_session_keeps_its_build_across_checks_and_frees_it_when_dropped() {
        let (files, roots) = two_roots();
        let mut s = Session::new(linter(2), files, roots);
        let first = s.check(None).unwrap();
        let arena = first_root_arena(s.built().expect("warm state"));
        let second = s.check(None).unwrap();
        assert_eq!(first.render(), second.render());
        assert!(arena.upgrade().is_some(), "the warm build was freed by a check");
        drop(s);
        assert!(arena.upgrade().is_none(), "dropping the session kept its build");
    }

    #[test]
    fn infer_source_recovers_only_return_and_renders_diff() {
        let linter = Linter::new(Flags::default());
        let out = linter
            .infer_source(
                "mk.c",
                "char *mk(void)\n\
                 {\n\
                   char *p = (char *) malloc(8);\n\
                   return p;\n\
                 }\n",
            )
            .unwrap();
        assert!(out.sema_errors.is_empty(), "{:?}", out.sema_errors);
        let only = out
            .placed
            .iter()
            .find(|p| p.target == "mk: return" && p.annot == "only")
            .expect("only return inferred");
        assert_eq!(only.loc.as_deref(), Some("mk.c:1"));
        assert!(out.diff.contains("@@ mk.c:1 @@"), "{}", out.diff);
        let (name, text) = &out.annotated[0];
        assert_eq!(name, "mk.c");
        assert!(text.contains("/*@only@*/"), "{text}");
    }

    #[test]
    fn infer_files_is_read_only_for_the_inputs() {
        let linter = Linter::new(Flags::default());
        let files = vec![("id.c".to_owned(), "char *id(char *p) { return p; }\n".to_owned())];
        let before = files.clone();
        let _ = linter.infer_files(&files, &["id.c".to_owned()]).unwrap();
        assert_eq!(files, before);
    }

    #[test]
    fn figure2_end_to_end_message() {
        let linter = Linter::new(Flags::default());
        let result = linter
            .check_source(
                "sample.c",
                "extern char *gname;\n\
                 \n\
                 void setName(/*@null@*/ char *pname)\n\
                 {\n\
                   gname = pname;\n\
                 }\n",
            )
            .unwrap();
        let text = result.render();
        assert_eq!(
            text,
            "sample.c:6: Function returns with non-null global gname referencing null storage [CWE-476]\n   sample.c:5: Storage gname may become null\n"
        );
    }

    #[test]
    fn figure4_end_to_end_messages() {
        let linter = Linter::new(Flags::default());
        let result = linter
            .check_source(
                "sample.c",
                "extern /*@only@*/ char *gname;\n\
                 \n\
                 void setName(/*@temp@*/ char *pname)\n\
                 {\n\
                   gname = pname;\n\
                 }\n",
            )
            .unwrap();
        let text = result.render();
        assert!(text.contains("sample.c:5: Only storage gname not released before assignment"));
        assert!(text.contains("sample.c:1: Storage gname becomes only"));
        assert!(text.contains("sample.c:5: Temp storage pname assigned to only gname"));
        assert!(text.contains("sample.c:3: Storage pname becomes temp"));
    }

    #[test]
    fn stdlib_available_without_declarations() {
        let linter = Linter::new(Flags::default());
        let result = linter
            .check_source("m.c", "void f(void) { char *p = (char *) malloc(10); free(p); }\n")
            .unwrap();
        assert!(result.is_clean(), "{}", result.render());
    }

    #[test]
    fn suppression_comment_consumes_message() {
        let linter = Linter::new(Flags::default());
        let result = linter
            .check_source("m.c", "void f(void) { /*@i@*/ char *p = (char *) malloc(10); }\n")
            .unwrap();
        assert_eq!(result.suppressed, 1);
        assert!(result.diagnostics.is_empty(), "{}", result.render());
    }

    #[test]
    fn flags_disable_message_classes() {
        let flags = Flags::parse("-mustfree").unwrap();
        let linter = Linter::new(flags);
        let result = linter
            .check_source("m.c", "void f(void) { char *p = (char *) malloc(10); }\n")
            .unwrap();
        assert!(result.is_clean(), "{}", result.render());
    }

    #[test]
    fn multi_file_check_with_header() {
        let files = vec![
            (
                "erc.h".to_owned(),
                "#ifndef ERC_H\n#define ERC_H\n\
                 typedef struct { /*@null@*/ int *vals; int size; } *erc;\n\
                 extern /*@only@*/ erc erc_create(void);\n\
                 #endif\n"
                    .to_owned(),
            ),
            (
                "erc.c".to_owned(),
                "#include \"erc.h\"\n\
                 /*@only@*/ erc erc_create(void)\n\
                 {\n\
                   erc c = (erc) malloc(sizeof(*c));\n\
                   if (c == NULL) { exit(1); }\n\
                   c->vals = NULL;\n\
                   c->size = 0;\n\
                   return c;\n\
                 }\n"
                .to_owned(),
            ),
        ];
        let linter = Linter::new(Flags::default());
        let result = linter.check_files(&files, &["erc.c".to_owned()]).unwrap();
        assert!(result.is_clean(), "{}", result.render());
    }

    #[test]
    fn stdlib_cache_reused_across_runs() {
        let linter = Linter::new(Flags::default());
        let src = "void f(void) { char *p = (char *) malloc(10); free(p); }\n";
        // At most the first call pays for the parse; every warm call after
        // it hits exactly once. The counter is per thread, so checks on
        // other test threads cannot move it.
        let first = linter.check_source("m.c", src).unwrap();
        assert!(first.is_clean(), "{}", first.render());
        let before = stdlib_cache_hits();
        for _ in 0..5 {
            let warm = linter.check_source("m.c", src).unwrap();
            // The cached prefix yields identical spans and output.
            assert_eq!(first.render(), warm.render());
        }
        assert_eq!(stdlib_cache_hits() - before, 5, "one stdlib cache hit per warm call");
    }

    #[test]
    fn jobs_setting_does_not_change_output() {
        let src = "extern char *gname;\n\
                   void setName(/*@null@*/ char *pname)\n{\n  gname = pname;\n}\n\
                   void leak(void)\n{\n  char *p = (char *) malloc(4);\n  if (p != 0) { *p = 'a'; }\n}\n";
        let mut seq_flags = Flags::default();
        seq_flags.analysis.jobs = 1;
        let mut par_flags = Flags::default();
        par_flags.analysis.jobs = 4;
        let seq = Linter::new(seq_flags).check_source("j.c", src).unwrap();
        let par = Linter::new(par_flags).check_source("j.c", src).unwrap();
        assert_eq!(seq.render(), par.render());
        assert!(!seq.diagnostics.is_empty());
    }

    #[test]
    fn libraries_supply_interfaces() {
        let mut linter = Linter::new(Flags::default());
        linter.add_library("list.lcs", "extern /*@only@*/ char *list_pop(void);\n");
        let result = linter
            .check_source("m.c", "void f(void) { char *p = list_pop(); free(p); }\n")
            .unwrap();
        assert!(result.is_clean(), "{}", result.render());
    }
}
