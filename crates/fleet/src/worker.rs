//! The fleet worker: checks one task at a time on a warm incremental
//! session, optionally backed by a shared content-addressed store.
//!
//! A worker exists in two shapes. [`TaskRunner`] is the engine — a plain
//! struct the coordinator can drive directly in-process (tests, benches).
//! [`Worker`] wraps it behind the daemon's line-delimited JSON protocol
//! ([`lclint_server::Handler`]) so the coordinator can drive it as a
//! child *process* (`rlclint --worker`), which is what gives the suite
//! runner real timeout enforcement: a stuck task is killed with its
//! process, not waited on.
//!
//! ## Result caching
//!
//! Two content-addressed layers share one store directory:
//!
//! * **function-level** — the [`IncrementalSession`]'s fingerprint cache
//!   is CAS-backed ([`IncrementalSession::set_cas`]), so functions shared
//!   between tasks (the generated corpus reuses module bodies) warm
//!   across tasks and across worker processes;
//! * **task-level** — a whole task's verdict-relevant output (the sorted
//!   diagnostic kind set) is stored under
//!   [`task_key`](lclint_analysis::castore::task_key) keyed by the
//!   linter's [`check_digest`](lclint_core::Linter::check_digest) and the
//!   source text, so a rerun of an unchanged suite skips checking
//!   entirely.

use lclint_analysis::castore::{self, r_str, r_u32, r_u8, w_str, w_u32, w_u8};
use lclint_core::{
    CasStats, Flags, IncrementalSession, LayeredStore, Linter, RemoteStats, StoreConfig,
};
use lclint_server::json::{self, Json, Writer};
use lclint_server::{error_response, result_response, Handler};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What a worker reports for one task.
#[derive(Debug, Clone, Default)]
pub struct TaskOutput {
    /// Sorted, deduplicated diagnostic kind flag names (plus `syntax`
    /// when semantic errors were reported).
    pub kinds: Vec<String>,
    /// The checker failed internally (internal diagnostic or hard parse
    /// failure): the task must score `unknown`, never a verdict.
    pub internal: bool,
    /// The analysis budget was exhausted (`budget` diagnostic): the task
    /// scores `unknown` deterministically.
    pub budget: bool,
    /// Content-addressed store activity attributable to this task.
    pub cas: CasStats,
    /// Remote-tier store activity attributable to this task (all zero
    /// without `--cas-remote`).
    pub remote: RemoteStats,
    /// Wall-clock milliseconds the worker spent on the task.
    pub ms: f64,
}

/// The checking engine behind a worker: flags, a warm session, and an
/// optional task-level artifact store.
pub struct TaskRunner {
    flags: Flags,
    session: IncrementalSession,
    task_cas: Option<LayeredStore>,
}

impl TaskRunner {
    /// Creates a runner. With a store directory configured, both cache
    /// layers attach to it (two handles on one directory — safe by the
    /// CAS's concurrent-writer discipline); with a remote address, the
    /// task-level handle layers a
    /// [`RemoteClient`](lclint_core::RemoteClient) above the directory.
    ///
    /// # Errors
    ///
    /// Propagates store-directory I/O failures. A dead or unreachable
    /// remote is *not* an error — it degrades per the breaker policy.
    pub fn new(flags: Flags, store: &StoreConfig) -> io::Result<TaskRunner> {
        let mut session = IncrementalSession::in_memory();
        // The function layer stays local-only even with a remote
        // configured: its entries are numerous and tiny, so a network
        // round trip per probe costs more than re-deriving the entry.
        // Whole-task artifacts are the remote unit of sharing.
        let function_layer = StoreConfig::local(store.dir.clone(), store.max_bytes);
        if let Some(layered) = function_layer.open()? {
            session.set_cas(layered);
        }
        let task_cas = store.open()?;
        Ok(TaskRunner { flags, session, task_cas })
    }

    /// Cumulative CAS counters across both cache layers.
    pub fn cas_totals(&self) -> CasStats {
        let mut totals = self.session.cas_stats().unwrap_or_default();
        if let Some(cas) = &self.task_cas {
            totals.add(cas.stats());
        }
        totals
    }

    /// Cumulative remote-tier counters across both cache layers.
    pub fn remote_totals(&self) -> RemoteStats {
        let mut totals = self.session.cas_remote_stats().unwrap_or_default();
        if let Some(r) = self.task_cas.as_ref().and_then(LayeredStore::remote_stats) {
            totals.add(r);
        }
        totals
    }

    /// Checks one task and reports its kind set. Never panics outward:
    /// any engine failure is folded into `internal` so the coordinator
    /// can score `unknown` and move on.
    pub fn run(&mut self, name: &str, text: &str, max_steps: Option<u64>) -> TaskOutput {
        let started = Instant::now();
        let before = self.cas_totals();
        let remote_before = self.remote_totals();
        let mut linter = Linter::new(self.flags.clone());
        if max_steps.is_some() {
            linter.flags.analysis.max_steps = max_steps;
        }
        // `check_digest` covers the analysis options (including the
        // per-task budget) and the loaded libraries; folding it into the
        // task key means two workers share artifacts exactly when their
        // verdicts would agree.
        let key = castore::task_key(linter.check_digest(), 0, text);

        let mut out = 'compute: {
            if let Some(cas) = &mut self.task_cas {
                if let Some(payload) = cas.get(key) {
                    if let Some(out) = decode_task_artifact(&payload) {
                        break 'compute out;
                    }
                }
            }
            let files = [(name.to_owned(), text.to_owned())];
            let roots = [name.to_owned()];
            let out = match linter.check_files_with(&files, &roots, Some(&mut self.session)) {
                Ok(result) => {
                    let mut kinds: Vec<String> =
                        result.diagnostics.iter().map(|d| d.kind.clone()).collect();
                    if !result.sema_errors.is_empty() {
                        kinds.push("syntax".to_owned());
                    }
                    kinds.sort();
                    kinds.dedup();
                    TaskOutput {
                        internal: kinds.iter().any(|k| k == "internal"),
                        budget: kinds.iter().any(|k| k == "budget"),
                        kinds,
                        ..TaskOutput::default()
                    }
                }
                // A task the engine cannot parse has no trustworthy
                // verdict either way.
                Err(_) => TaskOutput {
                    kinds: vec!["syntax".to_owned()],
                    internal: true,
                    ..TaskOutput::default()
                },
            };
            // Internal failures may be transient (debug hooks, resource
            // pressure); never publish them.
            if !out.internal {
                if let Some(cas) = &mut self.task_cas {
                    cas.put(key, &encode_task_artifact(&out));
                }
            }
            out
        };
        out.cas = self.cas_totals().since(&before);
        out.remote = self.remote_totals().since(&remote_before);
        out.ms = started.elapsed().as_secs_f64() * 1000.0;
        out
    }
}

/// Encodes a task artifact: one flag byte, then the kind strings.
fn encode_task_artifact(out: &TaskOutput) -> Vec<u8> {
    let mut buf = Vec::new();
    w_u8(&mut buf, u8::from(out.budget));
    w_u32(&mut buf, out.kinds.len() as u32);
    for k in &out.kinds {
        w_str(&mut buf, k);
    }
    buf
}

/// Decodes a task artifact; `None` on any structural mismatch (the
/// payload is then treated as a miss).
fn decode_task_artifact(payload: &[u8]) -> Option<TaskOutput> {
    let r = &mut &payload[..];
    let budget = r_u8(r)? != 0;
    let n = r_u32(r)? as usize;
    let mut kinds = Vec::with_capacity(n);
    for _ in 0..n {
        kinds.push(r_str(r)?);
    }
    if !r.is_empty() {
        return None;
    }
    Some(TaskOutput { kinds, internal: false, budget, ..TaskOutput::default() })
}

/// A [`TaskRunner`] served over the line-delimited JSON protocol.
/// Methods: `task` (params `name`, `text`, optional `max_steps`),
/// `stats`, `shutdown`.
pub struct Worker {
    runner: Mutex<TaskRunner>,
    shutdown: AtomicBool,
}

impl Worker {
    /// Wraps a runner for serving.
    pub fn new(runner: TaskRunner) -> Self {
        Worker { runner: Mutex::new(runner), shutdown: AtomicBool::new(false) }
    }

    fn handle_task(&self, id: Option<f64>, params: Option<&Json>) -> String {
        let name = params.and_then(|p| p.get("name")).and_then(Json::as_str);
        let text = params.and_then(|p| p.get("text")).and_then(Json::as_str);
        let max_steps =
            params.and_then(|p| p.get("max_steps")).and_then(Json::as_usize).map(|n| n as u64);
        let (Some(name), Some(text)) = (name, text) else {
            return error_response(id, "task takes `name` and `text`");
        };
        // Failure-injection hook for the coordinator's worker-death test:
        // die abruptly (no response, no unwind) on the named task, the
        // way an OOM kill or a segfault would take a worker out.
        if std::env::var("RLCLINT_DEBUG_KILL_TASK").is_ok_and(|victim| victim == name) {
            std::process::abort();
        }
        let mut runner = self.runner.lock().unwrap_or_else(|e| e.into_inner());
        let out = runner.run(name, text, max_steps);
        result_response(id, |w| write_task(w, &out))
    }

    fn handle_stats(&self, id: Option<f64>) -> String {
        let runner = self.runner.lock().unwrap_or_else(|e| e.into_inner());
        let totals = runner.cas_totals();
        result_response(id, |w| {
            w.num("cas_hits", totals.hits as usize)
                .num("cas_misses", totals.misses as usize)
                .num("cas_puts", totals.puts as usize)
                .num("cas_races", totals.races as usize)
                .num("cas_corrupt", totals.corrupt as usize)
                .num("cas_evicted", totals.evicted as usize)
        })
    }
}

/// Writes a task response body's members (`ms` last, matching the daemon).
fn write_task(w: Writer, out: &TaskOutput) -> Writer {
    w.str_arr("kinds", &out.kinds)
        .bool("internal", out.internal)
        .bool("budget", out.budget)
        .num("cas_hits", out.cas.hits as usize)
        .num("cas_misses", out.cas.misses as usize)
        .num("cas_puts", out.cas.puts as usize)
        .num("remote_hits", out.remote.hits as usize)
        .num("remote_misses", out.remote.misses as usize)
        .num("remote_puts", out.remote.puts as usize)
        .num("remote_corrupt", out.remote.corrupt as usize)
        .num("remote_errors", out.remote.errors as usize)
        .num("remote_retries", out.remote.retries as usize)
        .num("remote_trips", out.remote.trips as usize)
        .num("remote_skipped", out.remote.skipped as usize)
        .ms("ms", out.ms)
}

impl Handler for Worker {
    fn handle_line(&self, line: &str) -> String {
        let req = match json::parse(line) {
            Ok(v) => v,
            Err(e) => return error_response(None, &format!("bad request: {e}")),
        };
        let id = req.get("id").and_then(Json::as_f64);
        let Some(method) = req.get("method").and_then(Json::as_str) else {
            return error_response(id, "missing method");
        };
        match method {
            "task" => self.handle_task(id, req.get("params")),
            "stats" => self.handle_stats(id),
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                result_response(id, |w| w.bool("ok", true))
            }
            other => error_response(id, &format!("unknown method `{other}`")),
        }
    }

    fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEAKY: &str = "extern /*@only@*/ void *malloc(unsigned long);\n\
                         void f(void) { int *p = (int *) malloc(4); if (p) *p = 1; }\n";
    const CLEAN: &str = "int add(int a, int b) { return a + b; }\n";

    #[test]
    fn runner_reports_kind_sets() {
        let mut r = TaskRunner::new(Flags::default(), &StoreConfig::default()).unwrap();
        let out = r.run("leak.c", LEAKY, None);
        assert!(out.kinds.iter().any(|k| k == "mustfree"), "{:?}", out.kinds);
        assert!(!out.internal && !out.budget);
        let out = r.run("clean.c", CLEAN, None);
        assert!(out.kinds.is_empty(), "{:?}", out.kinds);
    }

    #[test]
    fn tiny_budget_reports_budget_not_a_verdict() {
        let mut r = TaskRunner::new(Flags::default(), &StoreConfig::default()).unwrap();
        let out = r.run("leak.c", LEAKY, Some(1));
        assert!(out.budget, "{:?}", out.kinds);
    }

    #[test]
    fn task_artifacts_round_trip_through_the_store() {
        let dir = std::env::temp_dir().join(format!("lclint-fleet-worker-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cold =
            TaskRunner::new(Flags::default(), &StoreConfig::local(Some(dir.clone()), None))
                .unwrap();
        let first = cold.run("leak.c", LEAKY, None);
        // A second runner on the same store must hit at the task level.
        let mut warm =
            TaskRunner::new(Flags::default(), &StoreConfig::local(Some(dir.clone()), None))
                .unwrap();
        let second = warm.run("leak.c", LEAKY, None);
        assert_eq!(first.kinds, second.kinds);
        assert!(second.cas.hits >= 1, "expected a task-level hit: {:?}", second.cas);
        // Different options digest ⇒ different key ⇒ no false sharing.
        let out = warm.run("leak.c", LEAKY, Some(1));
        assert!(out.budget);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_protocol_serves_tasks() {
        let runner = TaskRunner::new(Flags::default(), &StoreConfig::default()).unwrap();
        let w = Worker::new(runner);
        let req = Writer::obj()
            .num("id", 1)
            .str("method", "task")
            .raw("params", &Writer::obj().str("name", "leak.c").str("text", LEAKY).done())
            .done();
        let resp = w.handle_line(&req);
        assert!(resp.contains("\"mustfree\""), "{resp}");
        assert!(resp.contains("\"internal\":false"), "{resp}");
        let resp = w.handle_line("{\"id\": 2, \"method\": \"stats\"}");
        assert!(resp.contains("cas_hits"), "{resp}");
        assert!(!w.is_shut_down());
        let resp = w.handle_line("{\"id\": 3, \"method\": \"shutdown\"}");
        assert!(resp.contains("\"ok\":true"), "{resp}");
        assert!(w.is_shut_down());
    }

    #[test]
    fn worker_rejects_malformed_requests() {
        let w = Worker::new(TaskRunner::new(Flags::default(), &StoreConfig::default()).unwrap());
        assert!(w.handle_line("not json").contains("error"));
        assert!(w.handle_line("{\"id\": 1, \"method\": \"task\"}").contains("error"));
        assert!(w.handle_line("{\"id\": 1, \"method\": \"nope\"}").contains("error"));
    }
}
