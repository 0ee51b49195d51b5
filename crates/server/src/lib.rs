//! `rlclintd` — a persistent analysis server with warm in-memory sessions.
//!
//! The daemon keeps a [`Session`] alive across requests: the parsed
//! program (shared AST arenas), the per-function check cache, and the
//! annotated standard library all stay warm, so an edit re-checks only
//! the functions the edit could affect. Diagnostics are byte-identical
//! to a cold batch `rlclint` run over the same file contents — the
//! daemon is a latency optimisation, never a semantics change.
//!
//! # Protocol
//!
//! Line-delimited JSON over stdio, a Unix socket, or TCP. One request
//! object per line, one response object per line:
//!
//! ```text
//! --> {"id": 1, "method": "check", "params": {"file": "a.c", "text": "..."}}
//! <-- {"id": 1, "result": {"rendered": "...", "diagnostics": [...], ...}}
//! ```
//!
//! Methods:
//!
//! | method      | params                     | effect                                    |
//! |-------------|----------------------------|-------------------------------------------|
//! | `check`     | none                       | check the current canonical file set      |
//! | `check`     | `{file, text, jobs?}`      | overlay check: canonical state untouched  |
//! | `didChange` | `{file, text, jobs?}`      | persist the edit, then check              |
//! | `stats`     | none                       | session/cache/interner/arena counters     |
//! | `shutdown`  | none                       | acknowledge and stop serving              |
//!
//! Requests against one daemon are serialized (the session is behind a
//! mutex), which is what makes concurrent clients deterministic: any
//! interleaving of overlay `check`s yields the same bytes as running
//! them sequentially.

#![warn(missing_docs)]

pub mod cas;
pub use lclint_syntax::json;

use json::{Json, Writer};
use lclint_core::{CheckResult, RenderedText, Session};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cumulative cache counters across every request the daemon has served,
/// plus the per-CWE message counts of the last check it served.
#[derive(Debug, Default, Clone)]
struct Totals {
    requests: u64,
    cache_hits: u64,
    cache_misses: u64,
    cwe_counts: BTreeMap<u32, usize>,
}

/// Anything that can serve the line-delimited JSON protocol: one request
/// line in, one response line out, plus a shutdown latch. [`Daemon`] is
/// the canonical implementation; `lclint-fleet`'s task worker is another.
pub trait Handler: Send + Sync {
    /// Handles one request line and returns the response line (without a
    /// trailing newline).
    fn handle_line(&self, line: &str) -> String;
    /// True once a `shutdown` request has been served.
    fn is_shut_down(&self) -> bool;
}

impl<H: Handler + ?Sized> Handler for Arc<H> {
    fn handle_line(&self, line: &str) -> String {
        (**self).handle_line(line)
    }

    fn is_shut_down(&self) -> bool {
        (**self).is_shut_down()
    }
}

/// A running analysis server: one warm session plus request bookkeeping.
pub struct Daemon {
    session: Mutex<(Session, Totals)>,
    shutdown: AtomicBool,
}

impl Handler for Daemon {
    fn handle_line(&self, line: &str) -> String {
        Daemon::handle_line(self, line)
    }

    fn is_shut_down(&self) -> bool {
        Daemon::is_shut_down(self)
    }
}

impl Daemon {
    /// Wraps a session for serving. The session may be cold; the first
    /// request pays the build.
    pub fn new(session: Session) -> Self {
        Daemon {
            session: Mutex::new((session, Totals::default())),
            shutdown: AtomicBool::new(false),
        }
    }

    /// True once a `shutdown` request has been served.
    pub fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Handles one request line and returns the response line (without a
    /// trailing newline). Malformed input gets an `error` response with
    /// `id: null` rather than killing the connection.
    pub fn handle_line(&self, line: &str) -> String {
        let req = match json::parse(line) {
            Ok(v) => v,
            Err(e) => return error_response(None, &format!("bad request: {e}")),
        };
        let id = req.get("id").and_then(Json::as_f64);
        let Some(method) = req.get("method").and_then(Json::as_str) else {
            return error_response(id, "missing method");
        };
        let params = req.get("params");
        match method {
            "check" | "didChange" => self.handle_check(id, method, params),
            "stats" => self.handle_stats(id),
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                result_response(id, |w| w.bool("ok", true))
            }
            other => error_response(id, &format!("unknown method `{other}`")),
        }
    }

    fn handle_check(&self, id: Option<f64>, method: &str, params: Option<&Json>) -> String {
        let file = params.and_then(|p| p.get("file")).and_then(Json::as_str);
        let text = params.and_then(|p| p.get("text")).and_then(Json::as_str);
        let jobs = params.and_then(|p| p.get("jobs")).and_then(Json::as_usize);
        let started = Instant::now();
        let mut guard = self.session.lock().unwrap_or_else(|e| e.into_inner());
        let (session, totals) = &mut *guard;
        let outcome = match (method, file, text) {
            ("didChange", Some(f), Some(t)) => session.did_change(f, t, jobs),
            ("check", Some(f), Some(t)) => session.check_overlay(f, t, jobs),
            ("check", None, None) => session.check(jobs),
            _ => {
                return error_response(id, "check/didChange take both `file` and `text` or neither")
            }
        };
        let result = match outcome {
            Ok(r) => r,
            Err(e) => return error_response(id, &format!("build failed: {e}")),
        };
        totals.requests += 1;
        totals.cwe_counts = result.counts_by_cwe();
        if let Some(cs) = &result.cache_stats {
            totals.cache_hits += cs.hits as u64;
            totals.cache_misses += cs.misses as u64;
        }
        let ms = started.elapsed().as_secs_f64() * 1000.0;
        result_response(id, |w| write_check(w, &result, ms))
    }

    fn handle_stats(&self, id: Option<f64>) -> String {
        let guard = self.session.lock().unwrap_or_else(|e| e.into_inner());
        let (session, totals) = &*guard;
        let s = session.stats();
        let hit_rate = if totals.cache_hits + totals.cache_misses > 0 {
            totals.cache_hits as f64 / (totals.cache_hits + totals.cache_misses) as f64
        } else {
            0.0
        };
        result_response(id, |w| {
            w.num("requests", totals.requests as usize)
                .num("rebuilds", s.rebuilds)
                .num("fast_patches", s.fast_patches)
                .num("no_ops", s.no_ops)
                .num("swaps", s.swaps)
                .num("cache_entries", s.cache_entries)
                .num("cache_hits", totals.cache_hits as usize)
                .num("cache_misses", totals.cache_misses as usize)
                .ms("cache_hit_rate", hit_rate)
                .num("defs", s.defs)
                .num("symbols", s.symbols)
                .num("interned_bytes", s.interned_bytes)
                .num("arena_bytes", s.arena_bytes)
                .object("cwe_counts", |w| {
                    totals.cwe_counts.iter().fold(w, |w, (id, n)| w.num(&id.to_string(), *n))
                })
        })
    }
}

/// Writes a check result's members into the daemon's `result` object,
/// `rendered` escaped straight from the diagnostics. `ms` is the request's
/// wall-clock service time (lock wait included).
fn write_check(w: Writer, r: &CheckResult, ms: f64) -> Writer {
    w.reserve(response_len_hint(r))
        .bool("clean", r.is_clean())
        .objects("diagnostics", &r.diagnostics, |w, d| d.write_json(w))
        .num("suppressed", r.suppressed)
        .str_arr("sema_errors", &r.sema_errors)
        .display("rendered", RenderedText(&r.diagnostics))
        .ms("ms", ms)
}

/// About how long a check result's members are once written: each
/// diagnostic's and note's file and message appear twice (in its object
/// and in `rendered`), plus the syntax, numbers, kind and function around
/// them. Sizing the buffer from this spares the copies of growing it a
/// doubling at a time.
fn response_len_hint(r: &CheckResult) -> usize {
    let text = |file: &str, message: &str, around: usize| 2 * (file.len() + message.len()) + around;
    let diags = r.diagnostics.iter().map(|d| {
        let notes = d.notes.iter().map(|n| text(&n.file, &n.message, 64));
        text(&d.file, &d.message, 160) + notes.sum::<usize>()
    });
    diags.sum::<usize>() + r.sema_errors.iter().map(|e| e.len() + 3).sum::<usize>() + 128
}

/// A protocol response line: the `id`, then `member` (`result` or
/// `error`) holding the object whose members `f` writes, all into one
/// buffer. The daemon and the fleet worker both answer through here, so
/// their response shapes stay uniform.
fn response(id: Option<f64>, member: &str, f: impl FnOnce(Writer) -> Writer) -> String {
    let w = Writer::obj();
    let w = match id {
        Some(id) if id.fract() == 0.0 && id >= 0.0 => w.num("id", id as usize),
        Some(id) => w.ms("id", id),
        None => w.raw("id", "null"),
    };
    w.object(member, f).done()
}

/// A `result` response line whose body's members `f` writes.
pub fn result_response(id: Option<f64>, f: impl FnOnce(Writer) -> Writer) -> String {
    response(id, "result", f)
}

/// An `error` response line carrying `message`.
pub fn error_response(id: Option<f64>, message: &str) -> String {
    response(id, "error", |w| w.str("message", message))
}

/// Serves one connection: reads request lines from `reader` until EOF or
/// a `shutdown` request, writing one response line each.
///
/// # Errors
///
/// Propagates I/O errors on the connection.
pub fn serve_connection(
    daemon: &impl Handler,
    reader: impl BufRead,
    mut writer: impl Write,
) -> io::Result<()> {
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let resp = daemon.handle_line(&line);
        writer.write_all(resp.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if daemon.is_shut_down() {
            break;
        }
    }
    Ok(())
}

/// Accept loop shared by the Unix-socket and TCP listeners: polls a
/// non-blocking accept so a `shutdown` served on any connection stops
/// the daemon promptly. Generic over the handler, so the analysis
/// daemon and the CAS service share one hardened loop.
fn accept_loop<H, L, S>(
    daemon: &Arc<H>,
    listener: L,
    accept: fn(&L) -> io::Result<S>,
) -> io::Result<()>
where
    H: Handler + 'static,
    S: io::Read + Write + Send + 'static,
{
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !daemon.is_shut_down() {
        match accept(&listener) {
            Ok(stream) => {
                let daemon = Arc::clone(daemon);
                workers.push(std::thread::spawn(move || {
                    let mut stream = stream;
                    // A per-connection failure (client gone, a partial
                    // frame at disconnect, even a handler panic) is not
                    // a daemon failure: the thread ends, the next
                    // accepted connection gets a healthy handler.
                    let reader = BufReader::new(&mut stream as &mut dyn ReadWrite);
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _ = serve_split(&*daemon, reader);
                    }));
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
        // Reap finished connection threads so a long-lived daemon does
        // not accumulate handles (the threads themselves already exited).
        workers.retain(|w| !w.is_finished());
    }
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

/// Object-safe `Read + Write` so one connection handler serves both
/// stream flavours.
trait ReadWrite: io::Read + io::Write {}
impl<T: io::Read + io::Write> ReadWrite for T {}

fn serve_split(daemon: &impl Handler, mut reader: BufReader<&mut dyn ReadWrite>) -> io::Result<()> {
    let mut line = String::new();
    loop {
        line.clear();
        // Read one full request line. Accepted sockets carry a short
        // read timeout (see the accept closures), so an idle connection
        // wakes up periodically to notice a daemon shutdown instead of
        // pinning its thread in `read_line` forever — without it, the
        // accept loop's final join would deadlock on any client that
        // stays connected across shutdown. `read_line` appends across
        // timeout retries, so a request split over several reads is
        // reassembled, not dropped.
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return Ok(()),
                Ok(_) if line.ends_with('\n') => break,
                // A client that disconnects mid-frame leaves a partial
                // line at EOF: no request to answer, no state to clean
                // up — handlers take their locks only inside
                // `handle_line`, so the thread just ends.
                Ok(_) => return Ok(()),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    if daemon.is_shut_down() {
                        return Ok(());
                    }
                }
                Err(e) => return Err(e),
            }
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut resp = daemon.handle_line(line.trim_end());
        resp.push('\n');
        // One write per response frame: splitting the newline into its
        // own write costs a Nagle/delayed-ACK round trip per request on
        // TCP transports.
        let stream = reader.get_mut();
        stream.write_all(resp.as_bytes())?;
        stream.flush()?;
        if daemon.is_shut_down() {
            return Ok(());
        }
    }
}

/// Serves on a Unix-domain socket at `path` (removing a stale socket
/// file first). Returns when a `shutdown` request has been handled.
///
/// # Errors
///
/// Propagates bind/accept failures.
pub fn serve_unix<H: Handler + 'static>(daemon: &Arc<H>, path: &Path) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let r = accept_loop(daemon, listener, |l| {
        let (s, _) = l.accept()?;
        // Accepted sockets inherit the listener's non-blocking mode;
        // connection handlers expect blocking reads — bounded by the
        // shutdown-poll timeout (see `serve_split`).
        s.set_nonblocking(false)?;
        s.set_read_timeout(Some(SHUTDOWN_POLL))?;
        Ok(s)
    });
    let _ = std::fs::remove_file(path);
    r
}

/// How long a connection handler blocks in a read before re-checking
/// the shutdown latch.
const SHUTDOWN_POLL: std::time::Duration = std::time::Duration::from_millis(50);

/// Serves on a TCP listener (e.g. `127.0.0.1:0`). Returns when a
/// `shutdown` request has been handled.
///
/// # Errors
///
/// Propagates bind/accept failures.
pub fn serve_tcp<H: Handler + 'static>(daemon: &Arc<H>, listener: TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    accept_loop(daemon, listener, |l| {
        let (s, _) = l.accept()?;
        s.set_nonblocking(false)?;
        s.set_read_timeout(Some(SHUTDOWN_POLL))?;
        // Responses are single sub-MTU frames; leaving Nagle on stalls
        // every request/response round trip on the delayed-ACK timer.
        s.set_nodelay(true)?;
        Ok(s)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclint_core::{Flags, Linter};

    fn demo_session() -> Session {
        let files = vec![(
            "a.c".to_owned(),
            "void f(void)\n{\n  char *p = (char *) malloc(4);\n  free(p);\n}\n".to_owned(),
        )];
        Session::new(Linter::new(Flags::default()), files, vec!["a.c".to_owned()])
    }

    #[test]
    fn check_then_stats_round_trip() {
        let d = Daemon::new(demo_session());
        let r = d.handle_line(r#"{"id": 1, "method": "check"}"#);
        let v = json::parse(&r).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_usize), Some(1));
        let result = v.get("result").expect("result");
        assert_eq!(result.get("clean"), Some(&Json::Bool(true)));
        let s = d.handle_line(r#"{"id": 2, "method": "stats"}"#);
        let v = json::parse(&s).unwrap();
        let stats = v.get("result").unwrap();
        assert_eq!(stats.get("requests").and_then(Json::as_usize), Some(1));
        assert_eq!(stats.get("rebuilds").and_then(Json::as_usize), Some(1));
    }

    #[test]
    fn cwe_counts_survive_a_warm_patch_cycle() {
        let base = "void f(void)\n{\n  char *g = (char *) malloc(4);\n  assert(g != NULL);\n  \
                    g = (char *) realloc(g, 8);\n}\n\
                    void h(void)\n{\n  int *t = (int *) malloc(3);\n  assert(t != NULL);\n  \
                    t[4] = 1;\n  free(t);\n}\n";
        let files = vec![("a.c".to_owned(), base.to_owned())];
        let d =
            Daemon::new(Session::new(Linter::new(Flags::default()), files, vec!["a.c".to_owned()]));
        d.handle_line(r#"{"id": 1, "method": "check"}"#);
        let s = d.handle_line(r#"{"id": 2, "method": "stats"}"#);
        let v = json::parse(&s).unwrap();
        let counts = v.get("result").unwrap().get("cwe_counts").expect("cwe_counts present");
        // f: realloclost + the lost block's mustfree, both CWE-401; h: one
        // constant-index bounds error, CWE-125.
        assert_eq!(counts.get("401").and_then(Json::as_usize), Some(2), "{s}");
        assert_eq!(counts.get("125").and_then(Json::as_usize), Some(1), "{s}");

        // Warm one-function edit: grow h's buffer so the bounds report
        // clears; the request must ride the patch fast path, and the stats
        // counts must reflect the re-assembled diagnostic set.
        let mut text = String::new();
        json::write_escaped(&mut text, &base.replace("malloc(3)", "malloc(8)"));
        let edit = format!(
            r#"{{"id": 3, "method": "didChange", "params": {{"file": "a.c", "text": {text}}}}}"#
        );
        let r = d.handle_line(&edit);
        let v = json::parse(&r).unwrap();
        assert_eq!(v.get("result").unwrap().get("clean"), Some(&Json::Bool(false)), "{r}");
        let s = d.handle_line(r#"{"id": 4, "method": "stats"}"#);
        let v = json::parse(&s).unwrap();
        let stats = v.get("result").unwrap();
        assert_eq!(stats.get("fast_patches").and_then(Json::as_usize), Some(1), "{s}");
        let counts = stats.get("cwe_counts").expect("cwe_counts present");
        assert_eq!(counts.get("401").and_then(Json::as_usize), Some(2), "{s}");
        assert!(counts.get("125").is_none(), "bounds report must clear: {s}");
    }

    #[test]
    fn overlay_check_does_not_persist() {
        let d = Daemon::new(demo_session());
        d.handle_line(r#"{"id": 1, "method": "check"}"#);
        let leaky = r#"{"id": 2, "method": "check", "params": {"file": "a.c", "text": "void f(void)\n{\n  char *p = (char *) malloc(4);\n  p = (char *) 0;\n}\n"}}"#;
        let r = d.handle_line(leaky);
        let v = json::parse(&r).unwrap();
        assert_eq!(v.get("result").unwrap().get("clean"), Some(&Json::Bool(false)));
        // The canonical file set is unchanged: a bare check is clean again.
        let r = d.handle_line(r#"{"id": 3, "method": "check"}"#);
        let v = json::parse(&r).unwrap();
        assert_eq!(v.get("result").unwrap().get("clean"), Some(&Json::Bool(true)));
    }

    #[test]
    fn malformed_and_unknown_requests_get_error_responses() {
        let d = Daemon::new(demo_session());
        let r = d.handle_line("{nope");
        assert!(json::parse(&r).unwrap().get("error").is_some());
        let r = d.handle_line(r#"{"id": 9, "method": "frobnicate"}"#);
        let v = json::parse(&r).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_usize), Some(9));
        assert!(v.get("error").is_some());
        let r = d.handle_line(r#"{"id": 10, "method": "check", "params": {"file": "a.c"}}"#);
        assert!(json::parse(&r).unwrap().get("error").is_some());
    }

    #[test]
    fn shutdown_flips_the_flag() {
        let d = Daemon::new(demo_session());
        assert!(!d.is_shut_down());
        let r = d.handle_line(r#"{"id": 1, "method": "shutdown"}"#);
        assert!(json::parse(&r).unwrap().get("result").is_some());
        assert!(d.is_shut_down());
    }
}
