//! Incremental checking sessions: an in-memory [`CheckCache`] for batch
//! runs, optionally persisted to a directory (`--incremental <dir>`).
//!
//! The directory holds one file, `cache.bin`: a castore artifact (see
//! [`lclint_analysis::castore`] — magic, [`CACHE_FORMAT_VERSION`], payload
//! length, FNV checksum) whose payload is
//!
//! ```text
//! options  u64 LE    options_digest of the run that wrote the file
//! library  u64 LE    digest of (use_stdlib, loaded interface libraries)
//! count    u32 LE    number of entries
//! entry*   name, fingerprint, DepSet, relocatable diagnostics
//! ```
//!
//! Strings are `u32 LE length + UTF-8 bytes`; sets and lists carry a
//! `u32 LE` count. The file is written and read with castore's
//! [`write_artifact`] and [`read_artifact`], so it shares the store's one
//! trust model: a unique temporary file renamed into place, and any header
//! or checksum mismatch, truncation, malformed field or stamp mismatch
//! discards the whole file and the run proceeds from a cold cache. A
//! fingerprint covers what an entry was computed from, not the stored
//! message text; the checksum is what guards that text.
//!
//! [`CACHE_FORMAT_VERSION`]: lclint_analysis::CACHE_FORMAT_VERSION

use lclint_analysis::cache::{
    check_program_cached_slots, options_digest, CacheEntry, CheckCache, Validated,
};
use lclint_analysis::castore::{
    decode_entry, encode_entry, r_u32, r_u64, read_artifact, w_u32, w_u64, write_artifact,
};
use lclint_analysis::{AnalysisOptions, Diagnostic};
use lclint_sema::{CheckedFunction, Program};
use lclint_syntax::fx::{FxHashMap, FxHashSet};
use lclint_syntax::Symbol;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

const CACHE_FILE: &str = "cache.bin";

/// A reusable incremental-checking state: the cache plus (optionally) the
/// directory it is persisted in.
///
/// # Examples
///
/// ```
/// use lclint_core::{Flags, IncrementalSession, Linter};
///
/// let linter = Linter::new(Flags::default());
/// let mut session = IncrementalSession::in_memory();
/// let files = [("m.c".to_owned(), "void f(void) { char *p = (char *) malloc(10); }\n".to_owned())];
/// let cold = linter.check_files_with(&files, &["m.c".to_owned()], Some(&mut session)).unwrap();
/// let warm = linter.check_files_with(&files, &["m.c".to_owned()], Some(&mut session)).unwrap();
/// assert_eq!(cold.render(), warm.render());
/// assert_eq!(warm.cache_stats.as_ref().unwrap().hits, 1);
/// ```
#[derive(Debug, Default)]
pub struct IncrementalSession {
    pub(crate) cache: CheckCache,
    dir: Option<PathBuf>,
    /// The `(options_digest, lib_digest)` stamp of the loaded disk file;
    /// checked before first use so a foreign cache is dropped wholesale.
    loaded_stamp: Option<(u64, u64)>,
}

impl IncrementalSession {
    /// A purely in-memory session (for batch runs over many check calls).
    pub fn in_memory() -> Self {
        IncrementalSession::default()
    }

    /// Attaches a content-addressed backing store to the session's cache:
    /// in-memory misses probe the shared directory (and, for a
    /// [`lclint_analysis::LayeredStore`] with a remote tier, the network
    /// store behind it), fresh results are published to it, and
    /// [`IncrementalSession::cas_stats`] reports the traffic. See
    /// [`lclint_analysis::castore`] and [`lclint_analysis::remote`].
    pub fn set_cas(&mut self, store: impl Into<lclint_analysis::LayeredStore>) {
        self.cache.set_backing(store);
    }

    /// The backing store's local-tier counters, when one is attached via
    /// [`IncrementalSession::set_cas`].
    pub fn cas_stats(&self) -> Option<lclint_analysis::CasStats> {
        self.cache.backing_stats().copied()
    }

    /// The backing store's remote-tier counters, when a remote is
    /// attached.
    pub fn cas_remote_stats(&self) -> Option<lclint_analysis::RemoteStats> {
        self.cache.backing_remote_stats().copied()
    }

    /// A session persisted under `dir`: loads `dir/cache.bin` when present
    /// and valid, and rewrites it after every checking run. The directory
    /// is created if missing.
    ///
    /// # Errors
    ///
    /// Returns an error only when the directory cannot be created; an
    /// unreadable or invalid cache file is silently treated as cold.
    pub fn at_dir(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let (loaded_stamp, cache) = load_cache(&dir.join(CACHE_FILE)).unzip();
        Ok(IncrementalSession { cache: cache.unwrap_or_default(), dir: Some(dir), loaded_stamp })
    }

    /// Number of cached functions currently held.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Checks the definitions of `program` at `indices` (ascending)
    /// through the cache, filling their `slots` and `validated` keys, and
    /// returns the unstable ones (see [`check_program_cached_slots`]).
    /// A disk-loaded cache whose
    /// stamp does not match `opts` and `lib_digest` is dropped first: the
    /// file was written by a different world. A directory-backed cache is
    /// saved afterwards; a failed save costs the next run its warm start,
    /// never this run its result.
    pub(crate) fn check(
        &mut self,
        program: &Program,
        opts: &AnalysisOptions,
        lib_digest: u64,
        indices: &[usize],
        slots: &mut [Option<Vec<Diagnostic>>],
        validated: &mut [Option<Validated>],
    ) -> Vec<usize> {
        let stamp = (options_digest(opts), lib_digest);
        if self.loaded_stamp.take().is_some_and(|loaded| loaded != stamp) {
            self.cache = CheckCache::new();
        }
        let cache = &mut self.cache;
        let unstable =
            check_program_cached_slots(program, opts, lib_digest, cache, indices, slots, validated);
        if let Some(dir) = &self.dir {
            let _ = save_cache(dir, &self.cache, stamp);
        }
        unstable
    }
}

/// Which definitions' cache entries list each name among their resolved
/// functions and globals: the definitions whose cached notes can anchor
/// on that name's declaration. Keyed by definition name, as the cache is.
#[derive(Debug, Default)]
pub(crate) struct Dependents {
    /// Dependency name → names of the definitions whose entry lists it.
    users: FxHashMap<Symbol, FxHashSet<Symbol>>,
    /// Definition name → the dependency names it is listed under.
    listed: FxHashMap<Symbol, Vec<Symbol>>,
    /// Definition names with no entry: dependents of every name.
    unlisted: FxHashSet<Symbol>,
    /// Definition name → its indices.
    named: FxHashMap<Symbol, Vec<usize>>,
}

impl Dependents {
    /// The index of `defs` over the entries `cache` holds.
    pub(crate) fn build(defs: &[CheckedFunction], cache: &CheckCache) -> Dependents {
        let mut index = Dependents::default();
        for (i, def) in defs.iter().enumerate() {
            index.named.entry(def.sig.name).or_default().push(i);
        }
        let names: Vec<Symbol> = index.named.keys().copied().collect();
        index.relist(&names, cache);
        index
    }

    /// Lists the definitions named `names` again, under their current
    /// entries (call after checking them).
    pub(crate) fn relist(&mut self, names: &[Symbol], cache: &CheckCache) {
        for &name in names {
            for dep in self.listed.remove(&name).unwrap_or_default() {
                if let Some(users) = self.users.get_mut(&dep) {
                    users.remove(&name);
                }
            }
            let Some(entry) = cache.entry(name) else {
                self.unlisted.insert(name);
                continue;
            };
            self.unlisted.remove(&name);
            let deps: Vec<Symbol> =
                entry.deps.functions.iter().chain(&entry.deps.globals).copied().collect();
            for &dep in &deps {
                self.users.entry(dep).or_default().insert(name);
            }
            self.listed.insert(name, deps);
        }
    }

    /// Pushes onto `out` the indices of the definitions named `names`, of
    /// every definition whose entry lists one of `deps`, and of every one
    /// with no entry.
    pub(crate) fn collect(&self, names: &[Symbol], deps: &[Symbol], out: &mut Vec<usize>) {
        let users = deps.iter().filter_map(|d| self.users.get(d)).flatten();
        for name in names.iter().chain(users).chain(&self.unlisted) {
            out.extend(self.named.get(name).into_iter().flatten());
        }
    }
}

/// Serializes the cache and writes it as one castore artifact.
fn save_cache(dir: &Path, cache: &CheckCache, (options, library): (u64, u64)) -> io::Result<()> {
    let mut buf = Vec::new();
    w_u64(&mut buf, options);
    w_u64(&mut buf, library);
    let mut entries: Vec<(&Symbol, &CacheEntry)> = cache.entries().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    w_u32(&mut buf, entries.len() as u32);
    // The per-entry record is the codec of a function-level CAS artifact.
    for (name, e) in entries {
        encode_entry(&mut buf, *name, e);
    }
    write_artifact(&dir.join(CACHE_FILE), &buf)
}

/// Parses a cache file. `None` when it is missing, fails castore's
/// validation or is malformed — the caller starts cold.
fn load_cache(path: &Path) -> Option<((u64, u64), CheckCache)> {
    let data = read_artifact(path).ok()??;
    let mut r = data.as_slice();
    let stamp = (r_u64(&mut r)?, r_u64(&mut r)?);
    let count = r_u32(&mut r)?;
    let mut cache = CheckCache::new();
    for _ in 0..count {
        let (name, entry) = decode_entry(&mut r)?;
        cache.insert_entry(name, entry);
    }
    if !r.is_empty() {
        return None; // trailing garbage: not a file we wrote
    }
    Some((stamp, cache))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Flags, Linter};

    fn files(src: &str) -> Vec<(String, String)> {
        vec![("m.c".to_owned(), src.to_owned())]
    }

    const SRC: &str = "extern char *gname;\n\
                       void setName(/*@null@*/ char *pname)\n{\n  gname = pname;\n}\n\
                       void ok(void)\n{\n  char *p = (char *) malloc(4);\n  free(p);\n}\n";

    #[test]
    fn disk_cache_round_trips() {
        let dir = std::env::temp_dir().join(format!("lclint-incr-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let linter = Linter::new(Flags::default());

        let mut s1 = IncrementalSession::at_dir(&dir).unwrap();
        let cold =
            linter.check_files_with(&files(SRC), &["m.c".to_owned()], Some(&mut s1)).unwrap();
        let st = cold.cache_stats.as_ref().unwrap();
        assert_eq!((st.hits, st.misses), (0, 2), "{st:?}");
        assert!(dir.join(CACHE_FILE).exists());

        // A fresh process (modelled by a fresh session) loads the file and
        // hits on everything, with byte-identical output.
        let mut s2 = IncrementalSession::at_dir(&dir).unwrap();
        assert_eq!(s2.len(), 2);
        let warm =
            linter.check_files_with(&files(SRC), &["m.c".to_owned()], Some(&mut s2)).unwrap();
        let st = warm.cache_stats.as_ref().unwrap();
        assert_eq!((st.hits, st.misses, st.invalidations), (2, 0, 0), "{st:?}");
        assert_eq!(cold.render(), warm.render());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_foreign_cache_is_ignored() {
        let dir = std::env::temp_dir().join(format!("lclint-incr-bad-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();

        // Garbage file: load silently starts cold.
        fs::write(dir.join(CACHE_FILE), b"not a cache").unwrap();
        let s = IncrementalSession::at_dir(&dir).unwrap();
        assert!(s.is_empty());

        // Truncated but well-magic'd file: also cold.
        let linter = Linter::new(Flags::default());
        let mut s1 = IncrementalSession::at_dir(&dir).unwrap();
        linter.check_files_with(&files(SRC), &["m.c".to_owned()], Some(&mut s1)).unwrap();
        let full = fs::read(dir.join(CACHE_FILE)).unwrap();
        fs::write(dir.join(CACHE_FILE), &full[..full.len() / 2]).unwrap();
        let s2 = IncrementalSession::at_dir(&dir).unwrap();
        assert!(s2.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn older_format_version_discards_disk_cache_wholesale() {
        let dir = std::env::temp_dir().join(format!("lclint-incr-ver-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let linter = Linter::new(Flags::default());
        let mut s1 = IncrementalSession::at_dir(&dir).unwrap();
        let cold =
            linter.check_files_with(&files(SRC), &["m.c".to_owned()], Some(&mut s1)).unwrap();

        // Rewrite the version field (bytes 8..12, little-endian, right after
        // the magic) to the previous format: a flat-AST build must drop a
        // pre-flat cache.bin wholesale rather than trying to read entries.
        let path = dir.join(CACHE_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let old = lclint_analysis::CACHE_FORMAT_VERSION - 1;
        bytes[8..12].copy_from_slice(&old.to_le_bytes());
        fs::write(&path, &bytes).unwrap();

        let mut s2 = IncrementalSession::at_dir(&dir).unwrap();
        assert!(s2.is_empty(), "stale-version cache must load as empty");
        let rerun =
            linter.check_files_with(&files(SRC), &["m.c".to_owned()], Some(&mut s2)).unwrap();
        let st = rerun.cache_stats.as_ref().unwrap();
        assert_eq!((st.hits, st.misses, st.invalidations), (0, 2, 0), "{st:?}");
        assert_eq!(cold.render(), rerun.render());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_message_byte_reads_cold_not_wrong() {
        let dir = std::env::temp_dir().join(format!("lclint-incr-flip-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let linter = Linter::new(Flags::default());
        let leak = "void f(void)\n{\n  char *p = (char *) malloc(4);\n  p = (char *) 0;\n}\n";
        let roots = ["m.c".to_owned()];
        let mut s1 = IncrementalSession::at_dir(&dir).unwrap();
        let cold = linter.check_files_with(&files(leak), &roots, Some(&mut s1)).unwrap();
        assert!(cold.render().contains("Fresh storage p"), "{}", cold.render());

        // `Fresh` -> `Xresh` inside the stored message: a well-formed file
        // whose fingerprints all still match.
        let path = dir.join(CACHE_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.windows(5).position(|w| w == b"Fresh").expect("message is stored");
        bytes[at] = b'X';
        fs::write(&path, &bytes).unwrap();

        let mut s2 = IncrementalSession::at_dir(&dir).unwrap();
        let warm = linter.check_files_with(&files(leak), &roots, Some(&mut s2)).unwrap();
        assert_eq!(warm.render(), cold.render());
        let st = warm.cache_stats.as_ref().unwrap();
        assert_eq!((st.hits, st.misses, st.checked.clone()), (0, 1, vec!["f".to_owned()]));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Two handles persist to one directory round after round while a third
    /// loads from it: each load is the whole of one writer's cache (warm,
    /// byte-identical) or nothing usable (cold), never a mix, and no
    /// temporary file outlives its write.
    #[test]
    fn concurrent_persists_never_tear_cache_bin() {
        const ROUNDS: usize = 40;
        let dir = std::env::temp_dir().join(format!("lclint-incr-race-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let linter = Linter::new(Flags::default());
        let roots = ["m.c".to_owned()];
        // The same function names with different bodies: a torn file could
        // pair one writer's fingerprints with the other's messages.
        let other = SRC
            .replace("free(p);", "if (p != 0) { *p = 'a'; }")
            .replace("gname = pname;", "gname = pname;\n  gname = pname;");
        let sources = [SRC, other.as_str()];
        let cold: Vec<String> = sources
            .iter()
            .map(|src| linter.check_files(&files(src), &roots).unwrap().render())
            .collect();
        let load_and_check = |src: &str, cold: &str| {
            let mut s = IncrementalSession::at_dir(&dir).unwrap();
            let r = linter.check_files_with(&files(src), &roots, Some(&mut s)).unwrap();
            assert_eq!(r.render(), cold);
            let st = r.cache_stats.unwrap();
            assert!(st.hits == 0 || st.hits == st.lookups(), "{st:?}");
        };
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            for src in sources {
                let (dir, linter, roots, start) = (&dir, &linter, &roots, &start);
                scope.spawn(move || {
                    let mut s = IncrementalSession::at_dir(dir).unwrap();
                    start.wait();
                    for _ in 0..ROUNDS {
                        linter.check_files_with(&files(src), roots, Some(&mut s)).unwrap();
                    }
                });
            }
            scope.spawn(|| {
                start.wait();
                for round in 0..ROUNDS {
                    load_and_check(sources[round % 2], &cold[round % 2]);
                }
            });
        });
        for (src, cold) in sources.iter().zip(&cold) {
            load_and_check(src, cold);
        }
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, [CACHE_FILE], "temporary files left behind");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stamp_mismatch_discards_disk_cache() {
        let dir = std::env::temp_dir().join(format!("lclint-incr-stamp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let linter = Linter::new(Flags::default());
        let mut s1 = IncrementalSession::at_dir(&dir).unwrap();
        linter.check_files_with(&files(SRC), &["m.c".to_owned()], Some(&mut s1)).unwrap();

        // A run with different analysis options must not trust the file:
        // everything is a miss (wholesale discard), not an invalidation.
        let mut flags = Flags::default();
        flags.analysis.gc_mode = true;
        let other = Linter::new(flags);
        let mut s2 = IncrementalSession::at_dir(&dir).unwrap();
        let res = other.check_files_with(&files(SRC), &["m.c".to_owned()], Some(&mut s2)).unwrap();
        let st = res.cache_stats.as_ref().unwrap();
        assert_eq!(st.hits, 0, "{st:?}");
        assert_eq!(st.invalidations, 0, "{st:?}");
        assert_eq!(st.misses, 2, "{st:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
