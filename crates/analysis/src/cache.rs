//! The incremental check cache: fingerprint-keyed per-function results.
//!
//! Per-function checking is modular (paper §2 — no interprocedural
//! fixpoint), so a function's diagnostics are a pure function of
//!
//! 1. its own preprocessed text (hashed span-free, so edits elsewhere in
//!    the file do not disturb it),
//! 2. its resolved signature (which folds in prototype annotations),
//! 3. the interface facts it resolved while being checked — callee
//!    signatures, globals, typedefs, struct bodies, enum constants —
//!    recorded as a [`DepSet`] by the `LocalScope` overlay,
//! 4. the [`AnalysisOptions`] (except `jobs`, which never changes output),
//!    and the loaded interface libraries.
//!
//! The **fingerprint** hashes all four with the run-stable FNV hasher from
//! `lclint_syntax::stable_hash`. A cached entry stores the fingerprint, the
//! dependency names, and the diagnostics in *relocatable* form: every span
//! is expressed relative to a named anchor (the function's own definition
//! span, a global's declaration span, a callee's declaration span) so the
//! entry survives edits that move the function and can be rebased against
//! the current program on a hit. An entry whose spans cannot all be
//! anchored is not stored (counted as uncacheable) — the cache never
//! guesses.
//!
//! Validation follows the depfile pattern: on lookup, the stored dependency
//! *names* are re-digested against the current program and combined with
//! the current body hash; only if the resulting candidate fingerprint
//! matches the stored one is the entry reused. Filtering by message-class
//! flags and suppression comments happens *above* this layer, so flag
//! changes never invalidate the cache.

use crate::castore::{encode_entry, function_key};
use crate::checker::{check_function_isolated, CHECK_STACK};
use crate::diag::{DiagKind, Diagnostic, Note};
use crate::fan_out::{effective_jobs, fan_out};
use crate::options::AnalysisOptions;
use lclint_sema::deps::{digest_deps, DepSet};
use lclint_sema::{CheckedFunction, Program};
use lclint_syntax::fx::FxHashMap;
use lclint_syntax::span::Span;
use lclint_syntax::stable_hash::{function_def_hash, StableHasher};
use lclint_syntax::Symbol;

/// What a miss's worker hands the ordered commit with its diagnostics,
/// checked, relocated and fingerprinted: only the writes remain.
enum Fresh {
    /// Degraded by the fault guard: the diagnostics describe the failure,
    /// not the function, so it is never stored and a warm run re-checks it.
    Degraded,
    /// A span had no stable anchor: not stored.
    Uncacheable,
    /// The entry, with its store key and payload when a store is attached.
    Entry(CacheEntry, Option<(u64, Vec<u8>)>),
}

/// Bumped whenever fingerprinting, dependency recording, or the
/// relocatable-diagnostic encoding changes meaning; on-disk caches carry it
/// and are discarded wholesale on mismatch. Version 3: the flat-arena AST
/// changed `function_def_hash`'s traversal and dep digests hash interned
/// symbol text — caches written by earlier builds must never validate.
pub const CACHE_FORMAT_VERSION: u32 = 3;

/// Digest of the analysis options that can change checking output.
/// `jobs` is deliberately excluded: output is identical for any worker
/// count, so a cache populated at `--jobs 1` must hit at `--jobs 8`.
pub fn options_digest(opts: &AnalysisOptions) -> u64 {
    let mut h = StableHasher::new();
    h.write_u32(CACHE_FORMAT_VERSION);
    h.write_bool(opts.implicit_only_returns);
    h.write_bool(opts.implicit_only_globals);
    h.write_bool(opts.implicit_only_fields);
    h.write_bool(opts.gc_mode);
    h.write_bool(opts.report_implicit_temp);
    h.write_u8(match opts.loop_model {
        lclint_cfg::LoopModel::ZeroOrOne => 0,
        lclint_cfg::LoopModel::ZeroOneOrTwo => 1,
    });
    // Budget and fault-injection settings change which diagnostics a
    // function produces, so they are part of the digest even though
    // degraded results themselves are never stored.
    h.write_bool(opts.max_steps.is_some());
    h.write_u64(opts.max_steps.unwrap_or(0));
    h.write_u64(opts.max_scc_rounds as u64);
    h.write_bool(opts.debug_panic_fn.is_some());
    h.write_str(opts.debug_panic_fn.as_deref().unwrap_or(""));
    h.finish()
}

/// A span expressed relative to a named, recomputable anchor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelocSpan {
    /// A synthetic (location-free) span.
    Synthetic,
    /// Inside the function's own definition; offsets from its span start.
    Local {
        /// Offset of `span.start` from the definition's start.
        start: u32,
        /// Offset of `span.end` from the definition's start.
        end: u32,
    },
    /// Inside a global variable's declaration; offsets from its span start.
    GlobalDecl {
        /// The global's name.
        name: Symbol,
        /// Offset from the declaration's start.
        start: u32,
        /// Offset of the end from the declaration's start.
        end: u32,
    },
    /// Inside another function's declaration (e.g. a callee prototype).
    FuncDecl {
        /// The function's name.
        name: Symbol,
        /// Offset from the declaration's start.
        start: u32,
        /// Offset of the end from the declaration's start.
        end: u32,
    },
}

/// A diagnostic with every span made relocatable. `in_function` is implied
/// by the entry's key and re-attached on rebase.
#[derive(Debug, Clone, PartialEq)]
pub struct RelocDiag {
    /// Message category.
    pub kind: DiagKind,
    /// Primary message text.
    pub message: String,
    /// Primary location, anchored.
    pub span: RelocSpan,
    /// History notes: message plus anchored location.
    pub notes: Vec<(String, RelocSpan)>,
}

/// One cached per-function result.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// Fingerprint the entry was stored under.
    pub fingerprint: u64,
    /// Shared-program names the function's checking resolved.
    pub deps: DepSet,
    /// The function's diagnostics, relocatable.
    pub diags: Vec<RelocDiag>,
}

lclint_syntax::counters! {
    /// Counters for one checking run (reset by [`CheckCache::take_stats`]).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct CacheStats {
        /// Definitions whose cached result was reused, whether it was held
        /// in memory or fetched from the backing store (whose own traffic
        /// [`CasStats`](crate::castore::CasStats) counts).
        hits: usize,
        /// Definitions with no cache entry at all.
        misses: usize,
        /// Definitions whose entry existed but no longer matched (edited
        /// body, changed dependency, different options/libraries).
        invalidations: usize,
        /// Freshly checked results that could not be stored because a span
        /// had no stable anchor.
        uncacheable: usize,
        /// Functions degraded by the fault guard (checker panic or
        /// exhausted budget). Degraded results are never stored, so fixing
        /// the cause re-checks exactly those functions.
        degraded: usize,
        ;
        /// Names of the definitions actually (re-)checked, in definition order.
        checked: Vec<String>,
    }
}

/// What a definition's current result was validated under: the body hash
/// and span length it was probed with, and the fingerprint of the entry
/// that backs it. A caller that keeps these across checks of programs
/// whose every declaration and function header kept its structural hash
/// (a warm session between rebuilds) lets a probe that finds all three
/// unchanged rebase the entry without re-digesting its dependencies:
/// nothing the fingerprint covers can have changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validated {
    body_hash: u64,
    len: u32,
    fingerprint: u64,
}

impl CacheStats {
    /// Definitions examined in total.
    pub fn lookups(&self) -> usize {
        self.hits + self.misses + self.invalidations
    }
}

/// The in-memory incremental cache, keyed by function name.
#[derive(Debug, Default)]
pub struct CheckCache {
    entries: FxHashMap<Symbol, CacheEntry>,
    stats: CacheStats,
    /// Optional shared backing: a layered content-addressed store
    /// (local directory + optional remote tier) probed on in-memory
    /// misses and fed on fresh stores, so concurrent checker processes
    /// — and fleets of hosts — share warm per-function results.
    backing: Option<crate::remote::LayeredStore>,
}

impl CheckCache {
    /// An empty cache.
    pub fn new() -> Self {
        CheckCache::default()
    }

    /// Number of cached functions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters accumulated since the last [`CheckCache::take_stats`].
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Returns and resets the counters (call once per checking run).
    pub fn take_stats(&mut self) -> CacheStats {
        std::mem::take(&mut self.stats)
    }

    /// Iterates the stored entries (deterministic order not guaranteed;
    /// serialization sorts by name).
    pub fn entries(&self) -> impl Iterator<Item = (&Symbol, &CacheEntry)> {
        self.entries.iter()
    }

    /// Inserts a deserialized entry (used when loading a disk cache).
    pub fn insert_entry(&mut self, name: Symbol, entry: CacheEntry) {
        self.entries.insert(name, entry);
    }

    /// The stored entry for a function, if any.
    pub fn entry(&self, name: Symbol) -> Option<&CacheEntry> {
        self.entries.get(&name)
    }

    /// Attaches a content-addressed backing store: a bare [`CasStore`]
    /// (local-only, via `From`) or a full [`LayeredStore`] with a
    /// remote tier (see [`crate::castore`] and [`crate::remote`]).
    ///
    /// [`CasStore`]: crate::castore::CasStore
    /// [`LayeredStore`]: crate::remote::LayeredStore
    pub fn set_backing(&mut self, store: impl Into<crate::remote::LayeredStore>) {
        self.backing = Some(store.into());
    }

    /// The backing store's local-tier counters, when one is attached.
    pub fn backing_stats(&self) -> Option<&crate::castore::CasStats> {
        self.backing.as_ref().map(|s| s.stats())
    }

    /// The backing store's remote-tier counters, when a remote is
    /// attached.
    pub fn backing_remote_stats(&self) -> Option<&crate::remote::RemoteStats> {
        self.backing.as_ref().and_then(|s| s.remote_stats())
    }
}

/// The candidate fingerprint for `def` under the current program: combine
/// the options/library digests, the signature, the span-free body hash, and
/// the current digest of every recorded dependency.
///
/// The definition's span *length* is folded in as well: `Local` reloc spans
/// are byte offsets from the definition start, so an intra-function layout
/// edit (which leaves the token stream — and hence the body hash — intact)
/// must invalidate the entry rather than rebase stale offsets. Moving the
/// whole definition preserves its length and still hits.
fn fingerprint(
    program: &Program,
    opts_digest: u64,
    lib_digest: u64,
    def: &CheckedFunction,
    body_hash: u64,
    deps: &DepSet,
) -> u64 {
    let mut h = StableHasher::new();
    h.write_u32(CACHE_FORMAT_VERSION);
    h.write_u64(opts_digest);
    h.write_u64(lib_digest);
    lclint_sema::deps::hash_function_sig(program, &def.sig, &mut h);
    h.write_u64(body_hash);
    h.write_u32(def.sig.span.end.wrapping_sub(def.sig.span.start));
    digest_deps(program, deps, &mut h);
    h.finish()
}

/// Converts a concrete span to an anchored one, or `None` when no stable
/// anchor covers it.
fn to_reloc_span(span: Span, anchor: Span, program: &Program, deps: &DepSet) -> Option<RelocSpan> {
    if span.is_synthetic() {
        return Some(RelocSpan::Synthetic);
    }
    let contains =
        |outer: Span| outer.file == span.file && span.start >= outer.start && span.end <= outer.end;
    if contains(anchor) {
        return Some(RelocSpan::Local {
            start: span.start - anchor.start,
            end: span.end - anchor.start,
        });
    }
    // Out-of-function spans can only point at declarations the function
    // resolved — which are exactly the recorded dependencies.
    for &name in &deps.globals {
        if let Some(g) = program.global(name) {
            if contains(g.span) {
                return Some(RelocSpan::GlobalDecl {
                    name,
                    start: span.start - g.span.start,
                    end: span.end - g.span.start,
                });
            }
        }
    }
    for &name in &deps.functions {
        if let Some(sig) = program.function(name) {
            if contains(sig.span) {
                return Some(RelocSpan::FuncDecl {
                    name,
                    start: span.start - sig.span.start,
                    end: span.end - sig.span.start,
                });
            }
        }
    }
    None
}

/// Rebases an anchored span against the current program. `None` when the
/// anchor no longer exists (treated as an invalidation by the caller).
fn from_reloc_span(rs: &RelocSpan, anchor: Span, program: &Program) -> Option<Span> {
    match rs {
        RelocSpan::Synthetic => Some(Span::synthetic()),
        RelocSpan::Local { start, end } => {
            Some(Span::new(anchor.file, anchor.start + start, anchor.start + end))
        }
        RelocSpan::GlobalDecl { name, start, end } => {
            let g = program.global(*name)?;
            Some(Span::new(g.span.file, g.span.start + start, g.span.start + end))
        }
        RelocSpan::FuncDecl { name, start, end } => {
            let sig = program.function(*name)?;
            Some(Span::new(sig.span.file, sig.span.start + start, sig.span.start + end))
        }
    }
}

/// Converts a function's diagnostics to relocatable form. `None` when any
/// span lacks a stable anchor (the result is then not cached).
fn to_reloc_diags(
    diags: &[Diagnostic],
    anchor: Span,
    program: &Program,
    deps: &DepSet,
) -> Option<Vec<RelocDiag>> {
    diags
        .iter()
        .map(|d| {
            let span = to_reloc_span(d.span, anchor, program, deps)?;
            let notes = d
                .notes
                .iter()
                .map(|n| Some((n.message.clone(), to_reloc_span(n.span, anchor, program, deps)?)))
                .collect::<Option<Vec<_>>>()?;
            Some(RelocDiag { kind: d.kind, message: d.message.clone(), span, notes })
        })
        .collect()
}

/// Rebases a cached entry's diagnostics against the current program.
fn rebase_diags(
    entry: &CacheEntry,
    def: &CheckedFunction,
    program: &Program,
) -> Option<Vec<Diagnostic>> {
    let anchor = def.sig.span;
    entry
        .diags
        .iter()
        .map(|rd| {
            let span = from_reloc_span(&rd.span, anchor, program)?;
            let notes = rd
                .notes
                .iter()
                .map(|(m, rs)| {
                    Some(Note { message: m.clone(), span: from_reloc_span(rs, anchor, program)? })
                })
                .collect::<Option<Vec<_>>>()?;
            Some(Diagnostic {
                kind: rd.kind,
                message: rd.message.clone(),
                span,
                notes,
                in_function: Some(def.sig.name.to_string()),
            })
        })
        .collect()
}

/// Checks every definition in `program` through the cache: probe, check
/// the misses on the parallel work queue, and commit in definition order
/// (so output is byte-identical to [`check_program`] for any job count).
///
/// `lib_digest` is the caller's digest of the loaded interface libraries
/// (and anything else outside `program` that can change checking).
///
/// [`check_program`]: crate::checker::check_program
pub fn check_program_cached(
    program: &Program,
    opts: &AnalysisOptions,
    lib_digest: u64,
    cache: &mut CheckCache,
) -> Vec<Diagnostic> {
    let indices: Vec<usize> = (0..program.defs.len()).collect();
    let mut slots: Vec<Option<Vec<Diagnostic>>> = vec![None; program.defs.len()];
    let mut validated = vec![None; program.defs.len()];
    check_program_cached_slots(
        program,
        opts,
        lib_digest,
        cache,
        &indices,
        &mut slots,
        &mut validated,
    );
    slots.into_iter().flatten().flatten().collect()
}

/// The slot-filling core of [`check_program_cached`], restricted to a
/// subset of definitions: probes and (re-)checks exactly the definitions
/// at `indices`, writing each one's diagnostics into `slots[i]` and
/// leaving every other slot untouched. Callers that can prove the other
/// definitions' results unchanged (incremental sessions with a dirty set)
/// pre-fill those slots and skip even the probe cost.
///
/// Returns the indices (ascending) of *unstable* results: definitions
/// whose outcome is not backed by a validated cache entry this run —
/// degraded by the fault guard or unanchorable. An incremental caller must
/// treat these as dirty on every subsequent run, because nothing recorded
/// can prove them unchanged.
///
/// `indices` must be sorted ascending; diagnostics within each slot are in
/// check order, so concatenating filled slots in index order reproduces
/// [`check_program`]'s output byte-for-byte for any job count.
///
/// `validated[i]` is what definition `i`'s result was last validated under
/// (see [`Validated`]), `None` when nothing is known; the probe trusts a
/// held entry that matches it, and records what each probed definition's
/// result is validated under now.
///
/// [`check_program`]: crate::checker::check_program
pub fn check_program_cached_slots(
    program: &Program,
    opts: &AnalysisOptions,
    lib_digest: u64,
    cache: &mut CheckCache,
    indices: &[usize],
    slots: &mut [Option<Vec<Diagnostic>>],
    validated: &mut [Option<Validated>],
) -> Vec<usize> {
    let od = options_digest(opts);
    let defs = &program.defs;
    // Each miss with its body hash, so the worker hashes no body twice.
    let mut misses: Vec<(usize, u64)> = Vec::new();
    let mut unstable: Vec<usize> = Vec::new();

    // Phase 1, on the calling thread: probe the cache and the backing store
    // in definition order (about 95 ms against a 1.1–1.3 s check at 1M
    // lines).
    for &i in indices {
        let def = &defs[i];
        let body_hash = function_def_hash(&def.arena, &def.ast);
        let len = def.sig.span.len();
        let key = |entry: &CacheEntry| Validated { body_hash, len, fingerprint: entry.fingerprint };
        // An entry is reused only when its fingerprint revalidates against
        // the current program, or it is the one this result was validated
        // under, and every span rebases.
        let reuse = |entry: &CacheEntry| {
            let valid = validated[i] == Some(key(entry))
                || fingerprint(program, od, lib_digest, def, body_hash, &entry.deps)
                    == entry.fingerprint;
            valid.then(|| rebase_diags(entry, def, program)).flatten()
        };
        let held = cache.entries.get(&def.sig.name);
        let invalidated = held.is_some();
        let mut reused = held.and_then(reuse);
        // Second-level probe: the shared content-addressed store. A
        // fetched entry is held to exactly the same standard as an
        // in-memory one, and a reused one is a hit like any other.
        if let Some(store) = cache.backing.as_mut().filter(|_| reused.is_none()) {
            let key = function_key(od, lib_digest, def.sig.name, body_hash);
            let fetched = store.get(key).and_then(|payload| {
                let mut r = payload.as_slice();
                let (name, entry) = crate::castore::decode_entry(&mut r)?;
                (r.is_empty() && name == def.sig.name).then_some(entry)
            });
            if let Some(entry) = fetched {
                reused = reuse(&entry);
                if reused.is_some() {
                    cache.entries.insert(def.sig.name, entry);
                }
            }
        }
        if let Some(diags) = reused {
            cache.stats.hits += 1;
            validated[i] = cache.entries.get(&def.sig.name).map(key);
            slots[i] = Some(diags);
            continue;
        }
        validated[i] = None;
        if invalidated {
            cache.stats.invalidations += 1;
        } else {
            cache.stats.misses += 1;
        }
        misses.push((i, body_hash));
    }

    // Phase 2, on the workers: check each miss in the fault guard while
    // recording its dependencies, relocate, fingerprint and encode it.
    let publish = cache.backing.is_some();
    let work = |k: usize| {
        let (i, body_hash) = misses[k];
        let def = &defs[i];
        let r = check_function_isolated(program, def, opts, true);
        let fresh = match r.deps {
            None => Fresh::Degraded,
            Some(deps) => match to_reloc_diags(&r.diags, def.sig.span, program, &deps) {
                None => Fresh::Uncacheable,
                Some(diags) => {
                    let fingerprint = fingerprint(program, od, lib_digest, def, body_hash, &deps);
                    let entry = CacheEntry { fingerprint, deps, diags };
                    let payload = publish.then(|| {
                        let mut payload = Vec::new();
                        encode_entry(&mut payload, def.sig.name, &entry);
                        (function_key(od, lib_digest, def.sig.name, body_hash), payload)
                    });
                    Fresh::Entry(entry, payload)
                }
            },
        };
        (r.diags, fresh)
    };

    // Phase 3, the ordered commit on the calling thread: publish to the
    // shared store (so sibling processes skip the check), hold, count, fill.
    let commit = |k: usize, (diags, fresh): (Vec<Diagnostic>, Fresh)| {
        let (i, body_hash) = misses[k];
        let name = defs[i].sig.name;
        match fresh {
            Fresh::Entry(entry, payload) => {
                if let (Some(store), Some((key, payload))) = (cache.backing.as_mut(), payload) {
                    store.put(key, &payload);
                }
                let (len, fingerprint) = (defs[i].sig.span.len(), entry.fingerprint);
                validated[i] = Some(Validated { body_hash, len, fingerprint });
                cache.entries.insert(name, entry);
            }
            Fresh::Uncacheable => {
                cache.stats.uncacheable += 1;
                unstable.push(i);
            }
            Fresh::Degraded => {
                cache.stats.degraded += 1;
                unstable.push(i);
            }
        }
        cache.stats.checked.push(name.to_string());
        slots[i] = Some(diags);
    };
    let jobs = effective_jobs(opts.jobs, misses.len());
    fan_out(jobs, "lclint-check", CHECK_STACK, misses.len(), work, commit);
    unstable
}
