//! Remote content-addressed store client: read-through/write-through
//! layering over [`CasStore`](crate::castore::CasStore) with a
//! fault-contained network path.
//!
//! `rlclintd --cas-serve ADDR` (crates/server) exposes a castore
//! directory over line-delimited JSON; [`RemoteClient`] here is the
//! client half, and [`LayeredStore`] composes it above the local store:
//! local hit → done; local miss → remote read-through (populating the
//! local store); every publish is write-through to both.
//!
//! # Degradation policy
//!
//! The remote store is an accelerator, never a correctness dependency.
//! A dead, hung, or lying remote must cost bounded latency and can
//! never change a verdict, a diagnostic byte, or deterministic stdout:
//!
//! * every remote operation runs under a hard per-attempt **deadline**
//!   (connect, send, and receive all bounded);
//! * failures are retried a bounded number of times with exponential
//!   backoff plus deterministically seeded jitter (a
//!   [`SplitMix64`] stream — no wall-clock entropy, so two runs back off
//!   identically);
//! * a **circuit breaker** trips to local-only after N consecutive
//!   failed operations, then half-open-probes one operation per
//!   cooldown until the remote recovers;
//! * payloads travel with an FNV checksum and are **never trusted**:
//!   a corrupt frame is counted ([`RemoteStats::corrupt`]) and treated
//!   as a miss, exactly like a corrupt local artifact.
//!
//! Worst-case added latency per operation is therefore
//! `attempts × deadline + Σ backoff`, and only until the breaker trips.
//!
//! # Wire protocol
//!
//! One JSON object per line in each direction, payloads hex-encoded
//! with an FNV `sum` field (see `crates/server/src/cas.rs` for the
//! serving half):
//!
//! ```text
//! --> {"op":"get","key":"00000000000000ff"}
//! <-- {"ok":true,"found":true,"payload":"68690a","sum":"…16 hex…"}
//! --> {"op":"put","key":"00000000000000ff","payload":"68690a","sum":"…"}
//! <-- {"ok":true,"stored":true}
//! ```
//!
//! Frames are read with the workspace's one JSON codec
//! ([`lclint_syntax::json`]), the same one the server writes them with.

use crate::castore::{payload_checksum, CasStats, CasStore};
use lclint_syntax::json::{self, Json};
use lclint_syntax::rng::SplitMix64;
use lclint_syntax::stats::Counters;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

lclint_syntax::counters! {
    /// Counters for one remote client (mirroring [`CasStats`] so fleet
    /// workers can aggregate them into one suite report).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RemoteStats {
        /// Remote `get`s that returned a checksum-valid payload.
        hits: u64,
        /// Remote `get`s the server answered with "not found".
        misses: u64,
        /// Remote `put`s acknowledged by the server.
        puts: u64,
        /// Frames rejected by checksum/decode validation — counted, never
        /// trusted.
        corrupt: u64,
        /// Operations that failed outright (transport error after all
        /// retries, or a server-side error response).
        errors: u64,
        /// Individual retry attempts (a single failed op can add several).
        retries: u64,
        /// Times the circuit breaker tripped open.
        trips: u64,
        /// Operations skipped locally because the breaker was open.
        skipped: u64,
    }
}

impl RemoteStats {
    /// Field-wise sum (for aggregating worker counters into one report).
    pub fn add(&mut self, other: &RemoteStats) {
        Counters::add(self, other);
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Tunables for one [`RemoteClient`]. The defaults keep worst-case
/// degradation cost small relative to checking work: a fully dead
/// remote costs at most `attempts × deadline` per op for
/// `breaker_threshold` ops, then one probe per `breaker_cooldown`.
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// `host:port` of the serving daemon.
    pub addr: String,
    /// Hard per-attempt deadline covering connect + send + receive.
    pub deadline: Duration,
    /// Total attempts per operation (1 = no retries).
    pub attempts: u32,
    /// Base backoff before the second attempt; doubles per retry.
    pub backoff_base: Duration,
    /// Consecutive failed operations before the breaker opens.
    pub breaker_threshold: u32,
    /// How long the breaker stays open before a half-open probe.
    pub breaker_cooldown: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
    /// Optional fault-injection spec (see [`ChaosPlan::parse`]).
    pub chaos: Option<String>,
}

impl RemoteConfig {
    /// Defaults for `addr`; override fields as needed.
    pub fn new(addr: impl Into<String>) -> RemoteConfig {
        RemoteConfig {
            addr: addr.into(),
            deadline: Duration::from_millis(200),
            attempts: 2,
            backoff_base: Duration::from_millis(1),
            breaker_threshold: 4,
            breaker_cooldown: Duration::from_millis(250),
            seed: 0x5eed_cafe_1234_abcd,
            chaos: None,
        }
    }
}

/// Everything a store-using component needs to open its cache layers:
/// the local directory, its byte bound, and the optional remote tier.
/// Replaces the loose `(cas_dir, cas_max_bytes)` pairs so the remote
/// address and chaos spec thread through the fleet without widening
/// every signature again.
#[derive(Debug, Clone, Default)]
pub struct StoreConfig {
    /// Local artifact directory (`--cas DIR`); `None` disables caching.
    pub dir: Option<PathBuf>,
    /// Byte bound for the local store (`--cas-max-mb`).
    pub max_bytes: Option<u64>,
    /// Remote daemon address (`--cas-remote ADDR`).
    pub remote: Option<String>,
    /// Fault-injection spec for the remote transport (`--cas-chaos`).
    pub chaos: Option<String>,
}

impl StoreConfig {
    /// A local-only configuration (the pre-remote behaviour).
    pub fn local(dir: Option<PathBuf>, max_bytes: Option<u64>) -> StoreConfig {
        StoreConfig { dir, max_bytes, remote: None, chaos: None }
    }

    /// Opens one layered handle per this configuration; `None` when no
    /// local directory is configured (a remote without a local tier is
    /// not supported — the local store is the source of truth).
    ///
    /// # Errors
    ///
    /// Returns an error when the local directory cannot be opened.
    /// Remote connection problems are *not* errors: the client is
    /// created lazily and degrades per the breaker policy.
    pub fn open(&self) -> io::Result<Option<LayeredStore>> {
        let Some(dir) = &self.dir else { return Ok(None) };
        let local = CasStore::open(dir, self.max_bytes)?;
        let remote = self.remote.as_ref().map(|addr| {
            let mut cfg = RemoteConfig::new(addr.clone());
            cfg.chaos.clone_from(&self.chaos);
            RemoteClient::connect(cfg)
        });
        Ok(Some(LayeredStore::new(local, remote)))
    }
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// One request line out, one response line back, bounded by `deadline`.
/// Implementations own reconnection; an `Err` means this attempt failed
/// and any underlying connection state was discarded.
pub trait Transport: Send {
    /// Sends `line` (no trailing newline) and returns the response line.
    ///
    /// # Errors
    ///
    /// Any transport fault: refused/expired connect, mid-frame
    /// disconnect, deadline exceeded.
    fn roundtrip(&mut self, line: &str, deadline: Duration) -> io::Result<String>;
}

/// The real transport: a lazily (re)connected TCP stream with the
/// deadline mapped onto connect/read/write timeouts.
pub struct TcpTransport {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
}

impl TcpTransport {
    /// A transport for `addr` (`host:port`); connects on first use.
    pub fn new(addr: impl Into<String>) -> TcpTransport {
        TcpTransport { addr: addr.into(), conn: None }
    }

    fn connect(&mut self, deadline: Duration) -> io::Result<()> {
        let sockaddr =
            self.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address")
            })?;
        let stream = TcpStream::connect_timeout(&sockaddr, deadline)?;
        stream.set_nodelay(true).ok();
        self.conn = Some(BufReader::new(stream));
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn roundtrip(&mut self, line: &str, deadline: Duration) -> io::Result<String> {
        let started = Instant::now();
        if self.conn.is_none() {
            self.connect(deadline)?;
        }
        let r = (|| {
            let conn = self.conn.as_mut().expect("connected above");
            let remaining =
                deadline.saturating_sub(started.elapsed()).max(Duration::from_millis(1));
            let stream = conn.get_mut();
            stream.set_write_timeout(Some(remaining))?;
            stream.set_read_timeout(Some(remaining))?;
            stream.write_all(line.as_bytes())?;
            stream.write_all(b"\n")?;
            stream.flush()?;
            let mut resp = String::new();
            if conn.read_line(&mut resp)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
            }
            if !resp.ends_with('\n') {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "partial frame"));
            }
            Ok(resp.trim_end().to_owned())
        })();
        if r.is_err() {
            // Never reuse a connection in an unknown state.
            self.conn = None;
        }
        r
    }
}

// ---------------------------------------------------------------------------
// Chaos
// ---------------------------------------------------------------------------

/// Which fault a [`ChaosTransport`] injects, parsed from a spec string
/// (flag `--cas-chaos` or env `RLCLINT_CHAOS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPlan {
    /// `refuse` — every operation fails as if the port were closed.
    Refuse,
    /// `flaky:N` — alternating windows of N operations: the first N
    /// fail (connection reset), the next N pass, repeating. Failures
    /// arrive consecutively, so the breaker trips and recovers — the
    /// worst realistic shape for a lossy network.
    Flaky(u64),
    /// `disconnect:N` — every Nth operation drops mid-frame
    /// (unexpected EOF after the request is sent).
    Disconnect(u64),
    /// `truncate:N` — every Nth response loses the second half of its
    /// payload hex: still valid JSON, rejected by length/checksum.
    Truncate(u64),
    /// `corrupt:N` — every Nth response has one payload hex digit
    /// flipped: still valid JSON, rejected by checksum.
    Corrupt(u64),
    /// `delay:N` — every Nth operation sleeps past the deadline and
    /// then times out.
    Delay(u64),
    /// `die-after:N` — the first N operations pass through untouched;
    /// everything after fails as refused (a server killed mid-run).
    DieAfter(u64),
}

impl ChaosPlan {
    /// Parses a spec string; `None` for anything unrecognised (callers
    /// validate and report — the analysis layer never aborts on it).
    pub fn parse(spec: &str) -> Option<ChaosPlan> {
        let spec = spec.trim();
        if spec == "refuse" {
            return Some(ChaosPlan::Refuse);
        }
        let (mode, n) = spec.split_once(':')?;
        let n: u64 = n.parse().ok()?;
        if n == 0 {
            return None;
        }
        Some(match mode {
            "flaky" => ChaosPlan::Flaky(n),
            "disconnect" => ChaosPlan::Disconnect(n),
            "truncate" => ChaosPlan::Truncate(n),
            "corrupt" => ChaosPlan::Corrupt(n),
            "delay" => ChaosPlan::Delay(n),
            "die-after" => ChaosPlan::DieAfter(n),
            _ => return None,
        })
    }
}

/// Deterministic fault injection around any inner transport. Faults are
/// decided purely by the operation counter, so a given spec produces
/// the same fault sequence on every run.
pub struct ChaosTransport {
    inner: Box<dyn Transport>,
    plan: ChaosPlan,
    ops: u64,
}

impl ChaosTransport {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: Box<dyn Transport>, plan: ChaosPlan) -> ChaosTransport {
        ChaosTransport { inner, plan, ops: 0 }
    }
}

fn chaos_err(kind: io::ErrorKind, what: &str) -> io::Error {
    io::Error::new(kind, format!("chaos: {what}"))
}

impl Transport for ChaosTransport {
    fn roundtrip(&mut self, line: &str, deadline: Duration) -> io::Result<String> {
        let i = self.ops;
        self.ops += 1;
        match self.plan {
            ChaosPlan::Refuse => {
                return Err(chaos_err(io::ErrorKind::ConnectionRefused, "refused"))
            }
            ChaosPlan::Flaky(n) => {
                if (i / n).is_multiple_of(2) {
                    return Err(chaos_err(io::ErrorKind::ConnectionReset, "flaky window"));
                }
            }
            ChaosPlan::Disconnect(n) => {
                if i % n == n - 1 {
                    // The request went out; the connection died before the
                    // response frame completed.
                    let _ = self.inner.roundtrip(line, deadline);
                    return Err(chaos_err(io::ErrorKind::UnexpectedEof, "mid-frame disconnect"));
                }
            }
            ChaosPlan::Truncate(_) | ChaosPlan::Corrupt(_) => {}
            ChaosPlan::Delay(n) => {
                if i % n == n - 1 {
                    std::thread::sleep(deadline);
                    return Err(chaos_err(io::ErrorKind::TimedOut, "delayed past deadline"));
                }
            }
            ChaosPlan::DieAfter(n) => {
                if i >= n {
                    return Err(chaos_err(io::ErrorKind::ConnectionRefused, "server died"));
                }
            }
        }
        let resp = self.inner.roundtrip(line, deadline)?;
        Ok(match self.plan {
            ChaosPlan::Truncate(n) if i % n == n - 1 => truncate_payload(&resp),
            ChaosPlan::Corrupt(n) if i % n == n - 1 => corrupt_payload(&resp),
            _ => resp,
        })
    }
}

/// Drops the second half of the `payload` hex field, keeping the frame
/// valid JSON so the fault is caught by validation, not parsing.
fn truncate_payload(resp: &str) -> String {
    mangle_payload(resp, |hex| {
        let keep = hex.len() / 2;
        hex.truncate(keep - keep % 2);
    })
}

/// Flips the first hex digit of the `payload` field.
fn corrupt_payload(resp: &str) -> String {
    mangle_payload(resp, |hex| {
        if let Some(first) = hex.as_bytes().first().copied() {
            let flipped = if first == b'0' { '1' } else { '0' };
            hex.replace_range(0..1, &flipped.to_string());
        }
    })
}

fn mangle_payload(resp: &str, f: impl FnOnce(&mut String)) -> String {
    let marker = "\"payload\":\"";
    let Some(start) = resp.find(marker).map(|p| p + marker.len()) else {
        return resp.to_owned();
    };
    let Some(len) = resp[start..].find('"') else { return resp.to_owned() };
    if len == 0 {
        return resp.to_owned();
    }
    let mut hex = resp[start..start + len].to_owned();
    f(&mut hex);
    format!("{}{}{}", &resp[..start], hex, &resp[start + len..])
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// Classic three-state breaker, single-threaded (one per client
/// handle): closed → open after `threshold` consecutive failed
/// operations → one half-open probe per `cooldown` until a success
/// closes it again.
#[derive(Debug)]
pub struct Breaker {
    threshold: u32,
    cooldown: Duration,
    consecutive: u32,
    opened_at: Option<Instant>,
}

impl Breaker {
    /// A closed breaker with the given trip threshold and cooldown.
    pub fn new(threshold: u32, cooldown: Duration) -> Breaker {
        Breaker { threshold: threshold.max(1), cooldown, consecutive: 0, opened_at: None }
    }

    /// Whether the next operation may go to the network. While open,
    /// returns `true` only once per cooldown (the half-open probe).
    pub fn allow(&mut self) -> bool {
        match self.opened_at {
            None => true,
            Some(at) if at.elapsed() >= self.cooldown => {
                // Half-open: let one probe through; a failure re-arms
                // the cooldown from now.
                self.opened_at = Some(Instant::now());
                true
            }
            Some(_) => false,
        }
    }

    /// Records a successful operation: the breaker closes.
    pub fn record_success(&mut self) {
        self.consecutive = 0;
        self.opened_at = None;
    }

    /// Records a failed operation; returns `true` when this failure
    /// freshly tripped the breaker open.
    pub fn record_failure(&mut self) -> bool {
        self.consecutive = self.consecutive.saturating_add(1);
        if self.opened_at.is_some() {
            // A failed half-open probe: stay open (cooldown re-armed by
            // `allow`), not a fresh trip.
            return false;
        }
        if self.consecutive >= self.threshold {
            self.opened_at = Some(Instant::now());
            return true;
        }
        false
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// The client half of the remote castore protocol: retries, backoff,
/// deadlines, circuit breaking, and checksum validation around a
/// [`Transport`].
pub struct RemoteClient {
    transport: Box<dyn Transport>,
    cfg: RemoteConfig,
    breaker: Breaker,
    jitter: SplitMix64,
    stats: RemoteStats,
}

impl std::fmt::Debug for RemoteClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteClient")
            .field("addr", &self.cfg.addr)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl RemoteClient {
    /// A client over the real TCP transport (wrapped in chaos when the
    /// config carries a spec). Connection is lazy: a dead remote costs
    /// nothing until the first operation.
    pub fn connect(cfg: RemoteConfig) -> RemoteClient {
        let base: Box<dyn Transport> = Box::new(TcpTransport::new(cfg.addr.clone()));
        let transport = match cfg.chaos.as_deref().and_then(ChaosPlan::parse) {
            Some(plan) => Box::new(ChaosTransport::new(base, plan)) as Box<dyn Transport>,
            None => base,
        };
        RemoteClient::with_transport(cfg, transport)
    }

    /// A client over an explicit transport (tests inject fakes here).
    pub fn with_transport(cfg: RemoteConfig, transport: Box<dyn Transport>) -> RemoteClient {
        let breaker = Breaker::new(cfg.breaker_threshold, cfg.breaker_cooldown);
        let jitter = SplitMix64::new(cfg.seed | 1);
        RemoteClient { transport, cfg, breaker, jitter, stats: RemoteStats::default() }
    }

    /// Counters accumulated by this client.
    pub fn stats(&self) -> &RemoteStats {
        &self.stats
    }

    /// Returns and resets this client's counters.
    pub fn take_stats(&mut self) -> RemoteStats {
        std::mem::take(&mut self.stats)
    }

    /// Breaker + bounded-retry envelope around one protocol round trip.
    /// `None` means the operation failed or was skipped; the caller
    /// falls back to local-only behaviour.
    fn call(&mut self, line: &str) -> Option<String> {
        if !self.breaker.allow() {
            self.stats.skipped += 1;
            return None;
        }
        let mut attempt = 0u32;
        loop {
            match self.transport.roundtrip(line, self.cfg.deadline) {
                Ok(resp) => {
                    self.breaker.record_success();
                    return Some(resp);
                }
                Err(_) => {
                    attempt += 1;
                    if attempt >= self.cfg.attempts.max(1) {
                        self.stats.errors += 1;
                        if self.breaker.record_failure() {
                            self.stats.trips += 1;
                        }
                        return None;
                    }
                    self.stats.retries += 1;
                    let base = self.cfg.backoff_base.as_nanos() << (attempt - 1).min(16);
                    let jitter = u128::from(self.jitter.next_u64()) % (base / 2 + 1);
                    let ns = (base + jitter).min(Duration::from_secs(1).as_nanos());
                    std::thread::sleep(Duration::from_nanos(ns as u64));
                }
            }
        }
    }

    /// Fetches `key` from the remote, fully validated. `None` on miss,
    /// fault, open breaker, or checksum rejection.
    pub fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        let line = format!("{{\"op\":\"get\",\"key\":\"{key:016x}\"}}");
        let frame = json::parse(&self.call(&line)?).unwrap_or(Json::Null);
        if !flag(&frame, "ok") {
            self.stats.errors += 1;
            return None;
        }
        if !flag(&frame, "found") {
            self.stats.misses += 1;
            return None;
        }
        let valid = (|| {
            let payload = hex_decode(frame.get("payload")?.as_str()?)?;
            let sum = u64::from_str_radix(frame.get("sum")?.as_str()?, 16).ok()?;
            (payload_checksum(&payload) == sum).then_some(payload)
        })();
        match valid {
            Some(payload) => {
                self.stats.hits += 1;
                Some(payload)
            }
            None => {
                // A frame that claims "found" but fails validation is a
                // lying or corrupted remote: count it, trust nothing.
                self.stats.corrupt += 1;
                None
            }
        }
    }

    /// Publishes `payload` under `key`. Failures are swallowed (and
    /// counted): the local store already holds the artifact.
    pub fn put(&mut self, key: u64, payload: &[u8]) {
        let mut line = String::with_capacity(64 + payload.len() * 2);
        line.push_str(&format!("{{\"op\":\"put\",\"key\":\"{key:016x}\",\"payload\":\""));
        hex_encode(&mut line, payload);
        line.push_str(&format!("\",\"sum\":\"{:016x}\"}}", payload_checksum(payload)));
        let Some(resp) = self.call(&line) else { return };
        if flag(&json::parse(&resp).unwrap_or(Json::Null), "ok") {
            self.stats.puts += 1;
        } else {
            self.stats.errors += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Layered store
// ---------------------------------------------------------------------------

/// Read-through/write-through composition of the local [`CasStore`]
/// and an optional [`RemoteClient`]. Exposes the same `get`/`put`
/// surface as the local store, so cache code is oblivious to the tier
/// structure.
#[derive(Debug)]
pub struct LayeredStore {
    local: CasStore,
    remote: Option<RemoteClient>,
}

impl From<CasStore> for LayeredStore {
    fn from(local: CasStore) -> LayeredStore {
        LayeredStore { local, remote: None }
    }
}

impl LayeredStore {
    /// Composes `local` under an optional remote tier.
    pub fn new(local: CasStore, remote: Option<RemoteClient>) -> LayeredStore {
        LayeredStore { local, remote }
    }

    /// The local directory this handle serves.
    pub fn dir(&self) -> &Path {
        self.local.dir()
    }

    /// Local-tier counters.
    pub fn stats(&self) -> &CasStats {
        self.local.stats()
    }

    /// Remote-tier counters, when a remote is attached.
    pub fn remote_stats(&self) -> Option<&RemoteStats> {
        self.remote.as_ref().map(RemoteClient::stats)
    }

    /// Local hit → done. Local miss → remote read-through; a valid
    /// remote payload is written into the local store so the next read
    /// is local.
    pub fn get(&mut self, key: u64) -> Option<Vec<u8>> {
        if let Some(payload) = self.local.get(key) {
            return Some(payload);
        }
        let payload = self.remote.as_mut()?.get(key)?;
        self.local.put(key, &payload);
        Some(payload)
    }

    /// Write-through: local first (the source of truth), then remote
    /// best-effort.
    pub fn put(&mut self, key: u64, payload: &[u8]) {
        self.local.put(key, payload);
        if let Some(remote) = self.remote.as_mut() {
            remote.put(key, payload);
        }
    }
}

// ---------------------------------------------------------------------------
// Hex + frame fields
// ---------------------------------------------------------------------------

/// Appends lowercase hex for `bytes` to `out`.
pub fn hex_encode(out: &mut String, bytes: &[u8]) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xf) as usize] as char);
    }
}

/// Decodes lowercase/uppercase hex; `None` on odd length or bad digit.
pub fn hex_decode(hex: &str) -> Option<Vec<u8>> {
    let hex = hex.as_bytes();
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(hex.len() / 2);
    for pair in hex.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

/// True when the frame carries `"field":true`; a frame that did not parse
/// (`Json::Null`) carries nothing.
fn flag(frame: &Json, field: &str) -> bool {
    frame.get(field).and_then(Json::as_bool) == Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// In-memory server double: answers the wire protocol from a map,
    /// with a scriptable failure window.
    struct FakeTransport {
        map: std::collections::HashMap<u64, Vec<u8>>,
        fail_ops: std::ops::Range<u64>,
        ops: Arc<AtomicU64>,
    }

    impl FakeTransport {
        fn new() -> FakeTransport {
            FakeTransport {
                map: std::collections::HashMap::new(),
                fail_ops: 0..0,
                ops: Arc::new(AtomicU64::new(0)),
            }
        }
    }

    impl Transport for FakeTransport {
        fn roundtrip(&mut self, line: &str, _deadline: Duration) -> io::Result<String> {
            let i = self.ops.fetch_add(1, Ordering::SeqCst);
            if self.fail_ops.contains(&i) {
                return Err(io::Error::new(io::ErrorKind::ConnectionReset, "scripted"));
            }
            let req = json::parse(line).unwrap();
            let key = u64::from_str_radix(req.get("key").unwrap().as_str().unwrap(), 16).unwrap();
            if req.get("op").and_then(Json::as_str) == Some("get") {
                Ok(match self.map.get(&key) {
                    Some(p) => {
                        let mut f = String::from("{\"ok\":true,\"found\":true,\"payload\":\"");
                        hex_encode(&mut f, p);
                        f.push_str(&format!("\",\"sum\":\"{:016x}\"}}", payload_checksum(p)));
                        f
                    }
                    None => "{\"ok\":true,\"found\":false}".to_owned(),
                })
            } else {
                let payload = hex_decode(req.get("payload").unwrap().as_str().unwrap()).unwrap();
                self.map.insert(key, payload);
                Ok("{\"ok\":true,\"stored\":true}".to_owned())
            }
        }
    }

    fn cfg() -> RemoteConfig {
        let mut c = RemoteConfig::new("fake");
        c.backoff_base = Duration::from_micros(10);
        c.breaker_cooldown = Duration::from_millis(5);
        c
    }

    #[test]
    fn put_then_get_round_trips_through_the_wire_format() {
        let t = FakeTransport::new();
        let mut c = RemoteClient::with_transport(cfg(), Box::new(t));
        c.put(42, b"artifact bytes");
        assert_eq!(c.get(42).as_deref(), Some(b"artifact bytes".as_slice()));
        assert_eq!(c.get(7), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.puts, s.errors), (1, 1, 1, 0));
    }

    #[test]
    fn corrupt_frames_are_rejected_and_counted_never_trusted() {
        let mut t = FakeTransport::new();
        t.map.insert(1, b"good payload".to_vec());
        let chaos = ChaosTransport::new(Box::new(t), ChaosPlan::Corrupt(1));
        let mut c = RemoteClient::with_transport(cfg(), Box::new(chaos));
        assert_eq!(c.get(1), None, "a corrupted payload must never be returned");
        assert_eq!(c.stats().corrupt, 1);
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn truncated_frames_are_rejected_and_counted() {
        let mut t = FakeTransport::new();
        t.map.insert(1, b"a payload long enough to halve".to_vec());
        let chaos = ChaosTransport::new(Box::new(t), ChaosPlan::Truncate(1));
        let mut c = RemoteClient::with_transport(cfg(), Box::new(chaos));
        assert_eq!(c.get(1), None);
        assert_eq!(c.stats().corrupt, 1);
    }

    #[test]
    fn breaker_trips_after_threshold_and_half_open_probes_recovery() {
        let mut t = FakeTransport::new();
        t.map.insert(5, b"v".to_vec());
        // Fail the first 8 transport ops (4 client ops × 2 attempts).
        t.fail_ops = 0..8;
        let ops = Arc::clone(&t.ops);
        let mut c = RemoteClient::with_transport(cfg(), Box::new(t));
        for _ in 0..4 {
            assert_eq!(c.get(5), None);
        }
        assert_eq!(c.stats().trips, 1, "breaker should trip at the threshold");
        let after_trip = ops.load(Ordering::SeqCst);
        // While open, operations are skipped locally — no transport calls.
        assert_eq!(c.get(5), None);
        assert_eq!(c.get(5), None);
        assert_eq!(ops.load(Ordering::SeqCst), after_trip);
        assert_eq!(c.stats().skipped, 2);
        // After the cooldown, one probe goes through and succeeds: closed.
        std::thread::sleep(Duration::from_millis(6));
        assert_eq!(c.get(5).as_deref(), Some(b"v".as_slice()));
        assert_eq!(c.get(5).as_deref(), Some(b"v".as_slice()));
        assert_eq!(c.stats().skipped, 2, "closed again: nothing skipped");
    }

    #[test]
    fn retries_are_bounded_and_counted() {
        let mut t = FakeTransport::new();
        t.map.insert(9, b"v".to_vec());
        t.fail_ops = 0..1; // first attempt fails, retry succeeds
        let mut c = RemoteClient::with_transport(cfg(), Box::new(t));
        assert_eq!(c.get(9).as_deref(), Some(b"v".as_slice()));
        assert_eq!(c.stats().retries, 1);
        assert_eq!(c.stats().errors, 0);
    }

    #[test]
    fn refuse_chaos_never_reaches_the_inner_transport() {
        let t = FakeTransport::new();
        let ops = Arc::clone(&t.ops);
        let chaos = ChaosTransport::new(Box::new(t), ChaosPlan::Refuse);
        let mut c = RemoteClient::with_transport(cfg(), Box::new(chaos));
        c.put(1, b"x");
        assert_eq!(c.get(1), None);
        assert_eq!(ops.load(Ordering::SeqCst), 0);
        assert!(c.stats().errors + c.stats().skipped >= 2);
    }

    #[test]
    fn die_after_passes_then_fails() {
        let t = FakeTransport::new();
        let chaos = ChaosTransport::new(Box::new(t), ChaosPlan::DieAfter(2));
        let mut c = RemoteClient::with_transport(cfg(), Box::new(chaos));
        c.put(1, b"x"); // ops 0 (+1 for nothing — one op per put)
        assert_eq!(c.get(1).as_deref(), Some(b"x".as_slice())); // op 1
        assert_eq!(c.get(1), None, "op 2 is past the die point");
        assert!(c.stats().errors >= 1);
    }

    #[test]
    fn chaos_spec_parsing() {
        assert_eq!(ChaosPlan::parse("refuse"), Some(ChaosPlan::Refuse));
        assert_eq!(ChaosPlan::parse("flaky:8"), Some(ChaosPlan::Flaky(8)));
        assert_eq!(ChaosPlan::parse("die-after:100"), Some(ChaosPlan::DieAfter(100)));
        assert_eq!(ChaosPlan::parse("delay:0"), None);
        assert_eq!(ChaosPlan::parse("bogus"), None);
        assert_eq!(ChaosPlan::parse("bogus:3"), None);
    }

    #[test]
    fn layered_store_reads_through_and_populates_local() {
        let dir = std::env::temp_dir().join(format!("lclint-layered-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = FakeTransport::new();
        t.map.insert(3, b"remote artifact".to_vec());
        let local = CasStore::open(&dir, None).unwrap();
        let mut s =
            LayeredStore::new(local, Some(RemoteClient::with_transport(cfg(), Box::new(t))));
        // First read comes from the remote and populates the local tier.
        assert_eq!(s.get(3).as_deref(), Some(b"remote artifact".as_slice()));
        assert_eq!(s.remote_stats().unwrap().hits, 1);
        // Second read is served locally.
        assert_eq!(s.get(3).as_deref(), Some(b"remote artifact".as_slice()));
        assert_eq!(s.remote_stats().unwrap().hits, 1);
        assert_eq!(s.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn layered_store_writes_through_to_both_tiers() {
        let dir = std::env::temp_dir().join(format!("lclint-layeredw-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let local = CasStore::open(&dir, None).unwrap();
        let t = FakeTransport::new();
        let mut s =
            LayeredStore::new(local, Some(RemoteClient::with_transport(cfg(), Box::new(t))));
        s.put(8, b"both tiers");
        assert_eq!(s.stats().puts, 1);
        assert_eq!(s.remote_stats().unwrap().puts, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hex_round_trips() {
        let mut s = String::new();
        hex_encode(&mut s, &[0x00, 0xff, 0x12, 0xab]);
        assert_eq!(s, "00ff12ab");
        assert_eq!(hex_decode(&s).unwrap(), vec![0x00, 0xff, 0x12, 0xab]);
        assert_eq!(hex_decode("0"), None);
        assert_eq!(hex_decode("zz"), None);
    }
}
