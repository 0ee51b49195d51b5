//! A content-addressed artifact store shared by concurrent checker
//! processes (sccache-style).
//!
//! The store is a flat local directory of artifacts, each named by the
//! 16-hex-digit key it was stored under. Keys are produced by the caller
//! from a [`StableHasher`] digest of everything that determines the
//! artifact's content (function fingerprint material, task text, options,
//! libraries, [`CACHE_FORMAT_VERSION`]), so two processes computing the
//! same work compute the same key and the second one reads instead of
//! re-checking.
//!
//! # On-disk artifact format
//!
//! ```text
//! magic     8 bytes   b"LCLCAS1\0"
//! version   u32 LE    lclint_analysis::CACHE_FORMAT_VERSION
//! length    u32 LE    payload byte count
//! checksum  u64 LE    FNV digest of the payload bytes
//! payload   length bytes
//! ```
//!
//! # Concurrency & trust
//!
//! Writers are *processes*, not just threads: every `put` goes through
//! [`write_artifact`], which writes the full artifact to a uniquely named
//! temporary file (pid + process-wide counter) and renames it into place.
//! Rename is atomic on POSIX, so a reader never observes a half-written
//! artifact — it sees either the old file, the new file, or nothing. Two
//! writers racing the same key both succeed; the last rename wins and both
//! payloads were valid by construction.
//!
//! Reads are **never trusted**: [`read_artifact`] verifies magic, version,
//! length, and checksum, and any mismatch (truncation, torn copy, flipped
//! byte, foreign file) discards the artifact wholesale — counted in
//! [`CasStats::corrupt`]. A corrupt artifact is also unlinked best-effort
//! so it cannot keep costing a read. The incremental directory's
//! `cache.bin` (lclint-core) is written and read through the same two
//! functions, so every file this workspace persists has one trust model.
//!
//! # Eviction
//!
//! An optional byte bound (`--cas-max-mb`) is enforced at `put`: when the
//! store would exceed the bound, the oldest artifacts (by modification
//! time, file name as the deterministic tiebreak) are evicted until the
//! new artifact fits. Accounting starts from a directory scan at open and
//! is best-effort under concurrent writers — the bound is a high-water
//! target, not a hard invariant, which is all a shared cache needs.

use crate::cache::{CacheEntry, RelocDiag, RelocSpan};
use crate::diag::DiagKind;
use crate::CACHE_FORMAT_VERSION;
use lclint_sema::deps::DepSet;
use lclint_syntax::stable_hash::StableHasher;
use lclint_syntax::stats::Counters;
use lclint_syntax::Symbol;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: &[u8; 8] = b"LCLCAS1\0";
const HEADER_LEN: usize = 8 + 4 + 4 + 8;

/// Numbers temp files across every handle in the process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

lclint_syntax::counters! {
    /// Counters for one store handle (since open or the last
    /// [`CasStore::take_stats`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CasStats {
        /// `get` calls that returned a valid artifact.
        hits: u64,
        /// `get` calls that found nothing usable.
        misses: u64,
        /// Artifacts written.
        puts: u64,
        /// `put` calls that found the key already present (another writer
        /// won the race first); the write still proceeds, last rename wins.
        races: u64,
        /// Artifacts discarded because magic/version/length/checksum failed.
        corrupt: u64,
        /// Artifacts evicted to keep the store under its byte bound.
        evicted: u64,
    }
}

impl CasStats {
    /// Field-wise sum (for aggregating worker counters into one report).
    pub fn add(&mut self, other: &CasStats) {
        Counters::add(self, other);
    }
}

/// One handle on a content-addressed artifact directory. Handles are
/// independent: many processes (or threads, each with its own handle) can
/// share the directory.
#[derive(Debug)]
pub struct CasStore {
    dir: PathBuf,
    max_bytes: Option<u64>,
    /// Best-effort running total of artifact bytes (scanned at open).
    total_bytes: u64,
    stats: CasStats,
}

impl CasStore {
    /// Opens (creating if needed) the store at `dir`. `max_bytes` bounds
    /// the store's total artifact size; `None` means unbounded.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory cannot be created or scanned.
    pub fn open(dir: impl Into<PathBuf>, max_bytes: Option<u64>) -> io::Result<CasStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut total = 0u64;
        for e in fs::read_dir(&dir)? {
            let e = e?;
            if is_artifact_name(&e.file_name().to_string_lossy()) {
                total += e.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
        Ok(CasStore { dir, max_bytes, total_bytes: total, stats: CasStats::default() })
    }

    /// The directory this handle serves.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counters accumulated by this handle.
    pub fn stats(&self) -> &CasStats {
        &self.stats
    }

    /// Returns and resets this handle's counters.
    pub fn take_stats(&mut self) -> CasStats {
        std::mem::take(&mut self.stats)
    }

    /// Best-effort total artifact bytes currently accounted.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    fn key_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.cas"))
    }

    /// Fetches the payload stored under `key`, fully validated. `None` on
    /// absence or any corruption (the corrupt file is discarded).
    pub fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        let path = self.key_path(key);
        match read_artifact(&path) {
            Ok(Some(payload)) => {
                self.stats.hits += 1;
                Some(payload)
            }
            Ok(None) => {
                self.stats.corrupt += 1;
                self.stats.misses += 1;
                let len = fs::metadata(&path).map_or(0, |m| m.len());
                if fs::remove_file(&path).is_ok() {
                    self.total_bytes = self.total_bytes.saturating_sub(len);
                }
                None
            }
            Err(_) => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores `payload` under `key` with [`write_artifact`]. Failures are
    /// swallowed — the store is an accelerator, never a correctness
    /// dependency.
    pub fn put(&mut self, key: u64, payload: &[u8]) {
        let path = self.key_path(key);
        if path.exists() {
            // Another writer (or an earlier run) got here first. Count the
            // contention and skip the write: the existing artifact was
            // produced from the same key material.
            self.stats.races += 1;
            return;
        }
        let artifact_len = (HEADER_LEN + payload.len()) as u64;
        if let Some(max) = self.max_bytes {
            self.evict_until_fits(artifact_len, max);
            if artifact_len > max {
                return; // a single artifact larger than the bound is never stored
            }
        }
        if write_artifact(&path, payload).is_ok() {
            self.stats.puts += 1;
            self.total_bytes += artifact_len;
        }
    }

    /// Evicts oldest-first until `incoming` more bytes fit under `max`.
    fn evict_until_fits(&mut self, incoming: u64, max: u64) {
        if self.total_bytes + incoming <= max {
            return;
        }
        // Re-scan for an accurate picture (other processes may have added
        // or removed artifacts since open).
        let Ok(entries) = fs::read_dir(&self.dir) else { return };
        let mut files: Vec<(std::time::SystemTime, String, u64)> = Vec::new();
        let mut total = 0u64;
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if !is_artifact_name(&name) {
                continue;
            }
            let Ok(meta) = e.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            total += meta.len();
            files.push((mtime, name, meta.len()));
        }
        // Oldest first. Filesystem mtimes have coarse granularity (a
        // whole second on some platforms), so ties are common; the file
        // name — fixed-width hex, so lexicographic order IS numeric key
        // order — breaks them, making eviction deterministic across
        // platforms and runs (pinned by `eviction_breaks_mtime_ties_…`).
        files.sort();
        for (_, name, len) in files {
            if total + incoming <= max {
                break;
            }
            if fs::remove_file(self.dir.join(&name)).is_ok() {
                total = total.saturating_sub(len);
                self.stats.evicted += 1;
            }
        }
        self.total_bytes = total;
    }
}

fn is_artifact_name(name: &str) -> bool {
    name.len() == 20 && name.ends_with(".cas") && name[..16].bytes().all(|b| b.is_ascii_hexdigit())
}

/// FNV-1a over the payload, via the same run-stable hasher the
/// fingerprints use. Public because the remote protocol (client in
/// [`crate::remote`], server in `lclint-server`) checksums the same
/// payloads on the wire.
pub fn payload_checksum(payload: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(payload);
    h.finish()
}

/// Writes `payload` to `path` as one framed artifact (header, then the
/// payload): the whole artifact goes to a temporary file named after
/// `path`, the process id and a process-wide counter, then is renamed into
/// place. No two writers — processes, or threads holding separate handles
/// — ever share a temporary file, and a reader sees the old artifact or
/// the new one, never a mix.
///
/// # Errors
///
/// Propagates write and rename failures; the temporary file is removed.
pub fn write_artifact(path: &Path, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&CACHE_FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&payload_checksum(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}.{n}", std::process::id()));
    let result = fs::write(&tmp, &buf).and_then(|()| fs::rename(&tmp, path));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Reads the framed artifact at `path`. `Ok(Some(payload))` only when
/// magic, version, length and checksum all verify; `Ok(None)` when the
/// file exists but is not such an artifact (truncated, torn, flipped,
/// foreign, or from another format version).
///
/// # Errors
///
/// Propagates read failures, including a missing file.
pub fn read_artifact(path: &Path) -> io::Result<Option<Vec<u8>>> {
    let mut data = fs::read(path)?;
    if validate_artifact(&data).is_none() {
        return Ok(None);
    }
    data.drain(..HEADER_LEN);
    Ok(Some(data))
}

/// Header validation: returns the payload slice only when every field
/// checks out.
fn validate_artifact(data: &[u8]) -> Option<&[u8]> {
    if data.len() < HEADER_LEN || &data[..8] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(data[8..12].try_into().ok()?);
    if version != CACHE_FORMAT_VERSION {
        return None;
    }
    let len = u32::from_le_bytes(data[12..16].try_into().ok()?) as usize;
    let checksum = u64::from_le_bytes(data[16..24].try_into().ok()?);
    let payload = data.get(HEADER_LEN..HEADER_LEN + len)?;
    if data.len() != HEADER_LEN + len || payload_checksum(payload) != checksum {
        return None;
    }
    Some(payload)
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// Key-space tags: one per artifact flavour, folded into every key so the
/// namespaces can never collide.
const TAG_FUNCTION: u8 = 1;
const TAG_TASK: u8 = 2;

/// The key a per-function [`CacheEntry`] is shared under: everything the
/// entry's fingerprint will be revalidated against that is known *before*
/// reading it (options, libraries, function name, span-free body hash).
/// The dependency digest is not known up front — that is exactly what the
/// fingerprint check on the fetched entry verifies.
pub fn function_key(options_digest: u64, lib_digest: u64, name: Symbol, body_hash: u64) -> u64 {
    let mut h = StableHasher::new();
    h.write_u8(TAG_FUNCTION);
    h.write_u32(CACHE_FORMAT_VERSION);
    h.write_u64(options_digest);
    h.write_u64(lib_digest);
    h.write_str(name.as_str());
    h.write_u64(body_hash);
    h.finish()
}

/// The key a whole-task verdict artifact is shared under: the complete
/// task text plus the same options/library digests. A task-level hit
/// skips preprocessing, parsing, and checking entirely.
pub fn task_key(options_digest: u64, lib_digest: u64, text: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_u8(TAG_TASK);
    h.write_u32(CACHE_FORMAT_VERSION);
    h.write_u64(options_digest);
    h.write_u64(lib_digest);
    h.write_str(text);
    h.finish()
}

// ---------------------------------------------------------------------------
// Entry codec — shared by `cache.bin` (lclint-core) and CAS artifacts.
// ---------------------------------------------------------------------------

/// Diagnostic kinds are encoded by position in [`DiagKind::all`]; the
/// order is append-only and guarded by [`CACHE_FORMAT_VERSION`].
pub fn kind_code(kind: DiagKind) -> u8 {
    DiagKind::all().iter().position(|k| *k == kind).expect("kind in all()") as u8
}

/// Inverse of [`kind_code`]; `None` for codes from a future format.
pub fn kind_from_code(code: u8) -> Option<DiagKind> {
    DiagKind::all().get(code as usize).copied()
}

/// Serializes one named cache entry (the per-entry record of `cache.bin`,
/// and the whole payload of a function-level CAS artifact).
pub fn encode_entry(buf: &mut Vec<u8>, name: Symbol, e: &CacheEntry) {
    w_str(buf, name.as_str());
    w_u64(buf, e.fingerprint);
    w_set(buf, &e.deps.typedefs);
    w_set(buf, &e.deps.structs);
    w_set(buf, &e.deps.enum_consts);
    w_set(buf, &e.deps.functions);
    w_set(buf, &e.deps.globals);
    w_u32(buf, e.diags.len() as u32);
    for d in &e.diags {
        w_u8(buf, kind_code(d.kind));
        w_str(buf, &d.message);
        w_span(buf, &d.span);
        w_u32(buf, d.notes.len() as u32);
        for (m, s) in &d.notes {
            w_str(buf, m);
            w_span(buf, s);
        }
    }
}

/// Parses one named cache entry; `None` on any malformation.
pub fn decode_entry(r: &mut &[u8]) -> Option<(Symbol, CacheEntry)> {
    let name = r_str(r)?;
    let fingerprint = r_u64(r)?;
    let deps = DepSet {
        typedefs: r_set(r)?,
        structs: r_set(r)?,
        enum_consts: r_set(r)?,
        functions: r_set(r)?,
        globals: r_set(r)?,
    };
    let ndiags = r_u32(r)?;
    let mut diags = Vec::with_capacity(ndiags.min(1024) as usize);
    for _ in 0..ndiags {
        let kind = kind_from_code(r_u8(r)?)?;
        let message = r_str(r)?;
        let span = r_span(r)?;
        let nnotes = r_u32(r)?;
        let mut notes = Vec::with_capacity(nnotes.min(1024) as usize);
        for _ in 0..nnotes {
            let m = r_str(r)?;
            let s = r_span(r)?;
            notes.push((m, s));
        }
        diags.push(RelocDiag { kind, message, span, notes });
    }
    Some((Symbol::intern(&name), CacheEntry { fingerprint, deps, diags }))
}

/// Appends a byte.
pub fn w_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a `u32`, little-endian.
pub fn w_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn w_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn w_str(buf: &mut Vec<u8>, s: &str) {
    w_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a symbol set. Sets hold interned symbols in memory; the wire
/// format stays plain text so the bytes are meaningful across processes.
pub fn w_set(buf: &mut Vec<u8>, set: &BTreeSet<Symbol>) {
    w_u32(buf, set.len() as u32);
    for s in set {
        w_str(buf, s.as_str());
    }
}

/// Appends a relocatable span.
pub fn w_span(buf: &mut Vec<u8>, s: &RelocSpan) {
    match s {
        RelocSpan::Synthetic => w_u8(buf, 0),
        RelocSpan::Local { start, end } => {
            w_u8(buf, 1);
            w_u32(buf, *start);
            w_u32(buf, *end);
        }
        RelocSpan::GlobalDecl { name, start, end } => {
            w_u8(buf, 2);
            w_str(buf, name.as_str());
            w_u32(buf, *start);
            w_u32(buf, *end);
        }
        RelocSpan::FuncDecl { name, start, end } => {
            w_u8(buf, 3);
            w_str(buf, name.as_str());
            w_u32(buf, *start);
            w_u32(buf, *end);
        }
    }
}

/// Splits off `n` raw bytes.
pub fn r_bytes<'a>(r: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if r.len() < n {
        return None;
    }
    let (head, tail) = r.split_at(n);
    *r = tail;
    Some(head)
}

/// Reads a byte.
pub fn r_u8(r: &mut &[u8]) -> Option<u8> {
    Some(r_bytes(r, 1)?[0])
}

/// Reads a little-endian `u32`.
pub fn r_u32(r: &mut &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(r_bytes(r, 4)?.try_into().ok()?))
}

/// Reads a little-endian `u64`.
pub fn r_u64(r: &mut &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(r_bytes(r, 8)?.try_into().ok()?))
}

/// Reads a length-prefixed UTF-8 string.
pub fn r_str(r: &mut &[u8]) -> Option<String> {
    let n = r_u32(r)? as usize;
    String::from_utf8(r_bytes(r, n)?.to_vec()).ok()
}

/// Reads a symbol set.
pub fn r_set(r: &mut &[u8]) -> Option<BTreeSet<Symbol>> {
    let n = r_u32(r)?;
    let mut set = BTreeSet::new();
    for _ in 0..n {
        set.insert(Symbol::intern(&r_str(r)?));
    }
    Some(set)
}

/// Reads a relocatable span.
pub fn r_span(r: &mut &[u8]) -> Option<RelocSpan> {
    Some(match r_u8(r)? {
        0 => RelocSpan::Synthetic,
        1 => RelocSpan::Local { start: r_u32(r)?, end: r_u32(r)? },
        2 => RelocSpan::GlobalDecl {
            name: Symbol::intern(&r_str(r)?),
            start: r_u32(r)?,
            end: r_u32(r)?,
        },
        3 => RelocSpan::FuncDecl {
            name: Symbol::intern(&r_str(r)?),
            start: r_u32(r)?,
            end: r_u32(r)?,
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> CasStore {
        let dir = std::env::temp_dir().join(format!("lclint-cas-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CasStore::open(&dir, None).unwrap()
    }

    #[test]
    fn round_trips_a_payload() {
        let mut s = tmp_store("rt");
        assert_eq!(s.get(42), None);
        s.put(42, b"hello artifacts");
        assert_eq!(s.get(42).as_deref(), Some(b"hello artifacts".as_slice()));
        assert_eq!((s.stats().hits, s.stats().misses, s.stats().puts), (1, 1, 1));
        let _ = fs::remove_dir_all(s.dir());
    }

    #[test]
    fn second_handle_sees_the_artifact() {
        let mut a = tmp_store("share");
        a.put(7, b"payload");
        let mut b = CasStore::open(a.dir(), None).unwrap();
        assert_eq!(b.get(7).as_deref(), Some(b"payload".as_slice()));
        let _ = fs::remove_dir_all(a.dir());
    }

    #[test]
    fn duplicate_put_counts_a_race_and_keeps_the_winner() {
        let mut s = tmp_store("race");
        s.put(9, b"first");
        s.put(9, b"second");
        assert_eq!(s.stats().races, 1);
        assert_eq!(s.get(9).as_deref(), Some(b"first".as_slice()));
        let _ = fs::remove_dir_all(s.dir());
    }

    #[test]
    fn version_bump_invalidates_artifacts() {
        let mut s = tmp_store("ver");
        s.put(3, b"old world");
        // Rewrite the version field in place (bytes 8..12).
        let path = s.dir().join(format!("{:016x}.cas", 3u64));
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(CACHE_FORMAT_VERSION - 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(s.get(3), None);
        assert_eq!(s.stats().corrupt, 1);
        let _ = fs::remove_dir_all(s.dir());
    }

    #[test]
    fn eviction_breaks_mtime_ties_in_key_order() {
        let dir = std::env::temp_dir().join(format!("lclint-cas-tie-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // Small payloads; header (24) + payload (8) = 32 bytes each.
        let payload = [0u8; 8];
        let mut s = CasStore::open(&dir, Some(3 * 32)).unwrap();
        // Insert out of key order, then force every artifact to the
        // exact same mtime so only the tie-break decides.
        for key in [7u64, 2, 9] {
            s.put(key, &payload);
        }
        let stamp = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        for key in [7u64, 2, 9] {
            let f = fs::File::options().append(true).open(s.key_path(key)).unwrap();
            f.set_modified(stamp).unwrap();
        }
        // A fourth artifact forces one eviction: the lowest key (2)
        // must go, on every platform, regardless of insertion order.
        s.put(4, &payload);
        assert_eq!(s.stats().evicted, 1, "exactly one eviction expected");
        assert!(!s.key_path(2).exists(), "key 2 is first in key order and must be evicted");
        for key in [4u64, 7, 9] {
            assert!(s.key_path(key).exists(), "key {key} must survive");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_codec_round_trips() {
        let entry = CacheEntry {
            fingerprint: 0xdead_beef,
            deps: DepSet {
                functions: [Symbol::intern("callee")].into_iter().collect(),
                ..DepSet::default()
            },
            diags: vec![RelocDiag {
                kind: DiagKind::MemoryLeak,
                message: "Fresh storage p not released".to_owned(),
                span: RelocSpan::Local { start: 4, end: 9 },
                notes: vec![("note".to_owned(), RelocSpan::Synthetic)],
            }],
        };
        let mut buf = Vec::new();
        encode_entry(&mut buf, Symbol::intern("f"), &entry);
        let mut r = buf.as_slice();
        let (name, back) = decode_entry(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(name.as_str(), "f");
        assert_eq!(back, entry);
    }
}
