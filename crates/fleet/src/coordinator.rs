//! The fleet coordinator: shards a suite across workers, enforces
//! wall-clock budgets, and merges per-shard results deterministically.
//!
//! Tasks are assigned by content: every task with the same `(text,
//! max_steps)` goes to the shard of its first occurrence, and first
//! occurrences are dealt round-robin in suite order (`shard_plan`). So
//! the partition depends only on the suite and the shard count, never on
//! scheduling, and a task's duplicates run after it on its own worker:
//! whether a copy finds its artifact in the local store or the remote one
//! is fixed by the task list, not by timing. The merged score table is
//! byte-identical for any shard count; the only thing a shard count
//! changes is wall-clock time.
//!
//! Budget discipline (the scoreboard's soundness bar): a task that blows
//! its per-task budget has its worker killed and scores
//! `unknown (timeout)`; once the global budget elapses, remaining tasks
//! score `unknown (global-budget)` without being dispatched; a worker
//! that dies mid-task scores that task `unknown (internal)` and a fresh
//! worker is spawned for the shard's remaining tasks. A budget or a crash
//! can cost points — it can never produce a wrong verdict.

use crate::score::{SuiteReport, TaskResult, UnknownReason};
use crate::suite::TaskSpec;
use crate::worker::{TaskOutput, TaskRunner};
use lclint_core::{CasStats, Flags, RemoteStats, StoreConfig};
use lclint_server::json::{self, Json, Writer};
use lclint_syntax::fx::{FxHashMap, FxHasher};
use lclint_syntax::stats::Counters;
use std::hash::Hasher as _;
use std::io::{self, BufRead, BufReader, Write as _};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

/// How a connection failed to produce a task result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnError {
    /// The per-task budget elapsed; the worker behind the connection has
    /// been killed.
    Timeout,
    /// The worker died (EOF, I/O error, or a protocol-level failure).
    Died,
}

/// One worker connection: runs tasks sequentially.
pub trait Conn: Send {
    /// Runs one task, waiting at most `budget` when given.
    ///
    /// # Errors
    ///
    /// [`ConnError::Timeout`] when the budget elapses, [`ConnError::Died`]
    /// when the worker is gone. After either, the connection is dead.
    fn run_task(
        &mut self,
        task: &TaskSpec,
        budget: Option<Duration>,
    ) -> Result<TaskOutput, ConnError>;
}

/// A source of worker connections, one per shard (plus respawns).
pub trait Backend: Sync {
    /// Opens a fresh worker connection.
    ///
    /// # Errors
    ///
    /// Propagates spawn/connect failures.
    fn connect(&self) -> io::Result<Box<dyn Conn>>;
}

/// In-process backend: each connection owns a [`TaskRunner`] on a shard
/// thread. No process boundary, so per-task budgets are *not* enforced
/// (a stuck task cannot be preempted) — use [`ProcessBackend`] when
/// timeout enforcement matters. Tests and benches use this backend for
/// hermetic, binary-free runs.
pub struct InProcessBackend {
    /// Checker flags for every worker.
    pub flags: Flags,
    /// Shared store configuration (local directory, size bound, and the
    /// optional remote tier).
    pub store: StoreConfig,
}

struct InProcessConn {
    runner: TaskRunner,
}

impl Conn for InProcessConn {
    fn run_task(
        &mut self,
        task: &TaskSpec,
        _budget: Option<Duration>,
    ) -> Result<TaskOutput, ConnError> {
        Ok(self.runner.run(&task.name, &task.text, task.max_steps))
    }
}

impl Backend for InProcessBackend {
    fn connect(&self) -> io::Result<Box<dyn Conn>> {
        let runner = TaskRunner::new(self.flags.clone(), &self.store)?;
        Ok(Box::new(InProcessConn { runner }))
    }
}

/// Process backend: each connection is a spawned worker child (typically
/// `rlclint --worker ...`) driven over the line-delimited JSON protocol
/// on its stdin/stdout. The process boundary is what makes budgets real:
/// timeout ⇒ `kill(2)` the child.
pub struct ProcessBackend {
    /// The worker executable.
    pub program: PathBuf,
    /// Arguments (e.g. `["--worker", "--cas", "/path"]`).
    pub args: Vec<String>,
}

struct ProcessConn {
    child: Child,
    stdin: ChildStdin,
    lines: Receiver<io::Result<String>>,
    next_id: usize,
}

impl ProcessConn {
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ProcessConn {
    fn drop(&mut self) {
        self.kill();
    }
}

impl Conn for ProcessConn {
    fn run_task(
        &mut self,
        task: &TaskSpec,
        budget: Option<Duration>,
    ) -> Result<TaskOutput, ConnError> {
        self.next_id += 1;
        let mut params = Writer::obj().str("name", &task.name).str("text", &task.text);
        if let Some(n) = task.max_steps {
            params = params.num("max_steps", n as usize);
        }
        let req = Writer::obj()
            .num("id", self.next_id)
            .str("method", "task")
            .raw("params", &params.done())
            .done();
        if self.stdin.write_all(req.as_bytes()).is_err()
            || self.stdin.write_all(b"\n").is_err()
            || self.stdin.flush().is_err()
        {
            self.kill();
            return Err(ConnError::Died);
        }
        let line = match budget {
            Some(d) => match self.lines.recv_timeout(d) {
                Ok(Ok(line)) => line,
                Ok(Err(_)) | Err(RecvTimeoutError::Disconnected) => {
                    self.kill();
                    return Err(ConnError::Died);
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.kill();
                    return Err(ConnError::Timeout);
                }
            },
            None => match self.lines.recv() {
                Ok(Ok(line)) => line,
                _ => {
                    self.kill();
                    return Err(ConnError::Died);
                }
            },
        };
        parse_task_response(&line).ok_or_else(|| {
            self.kill();
            ConnError::Died
        })
    }
}

impl Backend for ProcessBackend {
    fn connect(&self) -> io::Result<Box<dyn Conn>> {
        let mut child = Command::new(&self.program)
            .args(&self.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        // The reader thread owns the blocking reads so `run_task` can wait
        // with a timeout; it exits on EOF/error (worker death or kill).
        thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let failed = line.is_err();
                if tx.send(line).is_err() || failed {
                    break;
                }
            }
        });
        Ok(Box::new(ProcessConn { child, stdin, lines: rx, next_id: 0 }))
    }
}

/// Parses a worker `task` response line into a [`TaskOutput`].
fn parse_task_response(line: &str) -> Option<TaskOutput> {
    let resp = json::parse(line).ok()?;
    let result = match resp.get("result") {
        Some(r) => r,
        // A protocol-level error response: the worker is alive but the
        // task produced nothing trustworthy.
        None => {
            resp.get("error")?;
            return Some(TaskOutput { internal: true, ..TaskOutput::default() });
        }
    };
    let kinds = match result.get("kinds")? {
        Json::Arr(items) => {
            items.iter().map(|v| Some(v.as_str()?.to_owned())).collect::<Option<Vec<_>>>()?
        }
        _ => return None,
    };
    let flag = |key: &str| match result.get(key) {
        Some(Json::Bool(b)) => Some(*b),
        _ => None,
    };
    Some(TaskOutput {
        kinds,
        internal: flag("internal")?,
        budget: flag("budget")?,
        cas: CasStats::from_json(result, "cas_"),
        remote: RemoteStats::from_json(result, "remote_"),
        ms: result.get("ms").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

/// Suite-run parameters.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Worker count; `0` and `1` both mean a single worker.
    pub shards: usize,
    /// Per-task wall-clock budget in milliseconds (enforced by the
    /// process backend; timeout scores `unknown` and kills the worker).
    pub task_budget_ms: Option<u64>,
    /// Global wall-clock budget in milliseconds; once elapsed, remaining
    /// tasks score `unknown` without being dispatched.
    pub global_budget_ms: Option<u64>,
}

/// Runs a suite: shards tasks by content across workers, scores each
/// verdict, and merges per-shard results back into suite order.
pub fn run_suite(tasks: &[TaskSpec], backend: &dyn Backend, cfg: &RunConfig) -> SuiteReport {
    let shards = cfg.shards.max(1);
    let started = Instant::now();
    let deadline = cfg.global_budget_ms.map(|ms| started + Duration::from_millis(ms));
    let task_budget = cfg.task_budget_ms.map(Duration::from_millis);

    let plan = shard_plan(tasks, shards);
    let plan = &plan;
    let per_shard: Vec<ShardOutcome> = thread::scope(|s| {
        let handles: Vec<_> = (0..shards)
            .map(|k| s.spawn(move || run_shard(tasks, plan, backend, k, task_budget, deadline)))
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(k, h)| {
                h.join().unwrap_or_else(|_| {
                    // A panicking shard thread must not take the run down:
                    // its tasks score `unknown (internal)`.
                    let results = tasks
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| plan[i] == k)
                        .map(|(i, t)| (i, TaskResult::unknown(t, UnknownReason::Internal)))
                        .collect();
                    ShardOutcome { results, respawns: 0 }
                })
            })
            .collect()
    });

    let mut merged: Vec<Option<TaskResult>> = vec![None; tasks.len()];
    let mut respawns = 0u64;
    for shard in per_shard {
        respawns += shard.respawns;
        for (i, r) in shard.results {
            merged[i] = Some(r);
        }
    }
    let results: Vec<TaskResult> = merged
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| TaskResult::unknown(&tasks[i], UnknownReason::Internal)))
        .collect();
    SuiteReport::new(results, shards, started.elapsed().as_secs_f64() * 1000.0, respawns)
}

/// The shard of every task: a task whose `(text, max_steps)` occurred
/// earlier in the suite goes where that first occurrence went, and first
/// occurrences are dealt round-robin in suite order. A text is known by
/// its length and 64-bit hash; two programs whose hashes collide would
/// share a shard, which costs balance, not determinism.
fn shard_plan(tasks: &[TaskSpec], shards: usize) -> Vec<usize> {
    let mut first: FxHashMap<(Option<u64>, usize, u64), usize> = FxHashMap::default();
    tasks
        .iter()
        .map(|t| {
            let mut h = FxHasher::default();
            h.write(t.text.as_bytes());
            let next = first.len() % shards;
            *first.entry((t.max_steps, t.text.len(), h.finish())).or_insert(next)
        })
        .collect()
}

/// How many times a shard will respawn a worker that *died* (timeouts
/// are exempt — each timed-out task already kills its worker by design,
/// and a slow suite must not be mistaken for a crashing one). Past the
/// cap the shard degrades: remaining tasks score `unknown (internal)`
/// without further connect attempts, so a worker binary that dies on
/// startup costs bounded wall-clock, not a respawn storm.
const MAX_RESPAWNS: u64 = 3;

/// One shard's results plus how often its worker had to be respawned
/// after dying mid-task.
struct ShardOutcome {
    results: Vec<(usize, TaskResult)>,
    respawns: u64,
}

fn run_shard(
    tasks: &[TaskSpec],
    plan: &[usize],
    backend: &dyn Backend,
    k: usize,
    task_budget: Option<Duration>,
    deadline: Option<Instant>,
) -> ShardOutcome {
    let mut out = Vec::new();
    let mut conn: Option<Box<dyn Conn>> = None;
    let mut deaths = 0u64;
    let mut respawns = 0u64;
    let mut respawning_after_death = false;
    for (i, task) in tasks.iter().enumerate().filter(|&(i, _)| plan[i] == k) {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            out.push((i, TaskResult::unknown(task, UnknownReason::GlobalBudget)));
            continue;
        }
        // Respawn budget exhausted: the worker dies repeatedly, so stop
        // feeding it tasks and degrade the rest of the shard.
        if conn.is_none() && deaths > MAX_RESPAWNS {
            out.push((i, TaskResult::unknown(task, UnknownReason::Internal)));
            continue;
        }
        if conn.is_none() {
            if respawning_after_death {
                // Reconnecting after a death: count the respawn and back
                // off (1/2/4 ms) so a crash loop cannot spin hot. Timeout
                // reconnects are exempt from both the count and the sleep.
                respawning_after_death = false;
                respawns += 1;
                thread::sleep(Duration::from_millis(1 << (deaths - 1).min(2)));
            }
            conn = backend.connect().ok();
        }
        let Some(c) = conn.as_mut() else {
            out.push((i, TaskResult::unknown(task, UnknownReason::Internal)));
            continue;
        };
        match c.run_task(task, task_budget) {
            Ok(o) => out.push((i, TaskResult::score(task, &o))),
            Err(ConnError::Timeout) => {
                out.push((i, TaskResult::unknown(task, UnknownReason::Timeout)));
                conn = None;
            }
            Err(ConnError::Died) => {
                out.push((i, TaskResult::unknown(task, UnknownReason::Internal)));
                conn = None;
                deaths += 1;
                respawning_after_death = true;
            }
        }
    }
    ShardOutcome { results: out, respawns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::{Outcome, Verdict};
    use crate::suite::{generate_suite, Category, Expected};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn small_suite() -> Vec<TaskSpec> {
        generate_suite(8, 42)
    }

    #[test]
    fn in_process_run_scores_a_generated_suite_perfectly() {
        let tasks = small_suite();
        let report = run_suite(
            &tasks,
            &InProcessBackend { flags: Flags::default(), store: StoreConfig::default() },
            &RunConfig::default(),
        );
        assert_eq!(report.incorrect(), 0, "{}", report.render_verdicts());
        assert_eq!(report.total().unknown, 0, "{}", report.render_verdicts());
        assert_eq!(report.total().tasks, tasks.len());
    }

    #[test]
    fn merged_tables_are_shard_invariant() {
        let tasks = small_suite();
        let backend = InProcessBackend { flags: Flags::default(), store: StoreConfig::default() };
        let base = run_suite(&tasks, &backend, &RunConfig { shards: 1, ..RunConfig::default() });
        for shards in 2..=4 {
            let r = run_suite(&tasks, &backend, &RunConfig { shards, ..RunConfig::default() });
            assert_eq!(base.render_table(), r.render_table(), "shards={shards}");
            assert_eq!(base.render_verdicts(), r.render_verdicts(), "shards={shards}");
        }
    }

    /// A backend whose connections die on every Nth task, to exercise
    /// respawn without real processes.
    struct FlakyBackend {
        connects: AtomicUsize,
    }

    struct FlakyConn {
        served: usize,
    }

    impl Conn for FlakyConn {
        fn run_task(
            &mut self,
            task: &TaskSpec,
            _b: Option<Duration>,
        ) -> Result<TaskOutput, ConnError> {
            if task.name.contains("die") {
                return Err(ConnError::Died);
            }
            self.served += 1;
            Ok(TaskOutput::default())
        }
    }

    impl Backend for FlakyBackend {
        fn connect(&self) -> io::Result<Box<dyn Conn>> {
            self.connects.fetch_add(1, Ordering::SeqCst);
            Ok(Box::new(FlakyConn { served: 0 }))
        }
    }

    #[test]
    fn dead_workers_surface_as_unknown_and_get_respawned() {
        let task = |name: &str| TaskSpec {
            name: name.to_owned(),
            text: String::new(),
            category: Category::Deref,
            expect: Expected::True,
            max_steps: None,
            class: None,
        };
        let tasks = vec![task("a"), task("die-1"), task("b"), task("c")];
        let backend = FlakyBackend { connects: AtomicUsize::new(0) };
        let report = run_suite(&tasks, &backend, &RunConfig::default());
        assert_eq!(report.results[1].verdict, Verdict::Unknown(UnknownReason::Internal));
        assert_eq!(report.results[1].outcome, Outcome::Unknown);
        // The tasks around the death still get verdicts.
        assert_eq!(report.results[0].verdict, Verdict::True);
        assert_eq!(report.results[2].verdict, Verdict::True);
        assert_eq!(report.results[3].verdict, Verdict::True);
        // One initial connection plus one respawn.
        assert_eq!(backend.connects.load(Ordering::SeqCst), 2);
        assert_eq!(report.respawns, 1);
    }

    /// A backend whose every connection dies on its first task.
    struct DyingBackend {
        connects: AtomicUsize,
    }

    struct DyingConn;

    impl Conn for DyingConn {
        fn run_task(
            &mut self,
            _task: &TaskSpec,
            _b: Option<Duration>,
        ) -> Result<TaskOutput, ConnError> {
            Err(ConnError::Died)
        }
    }

    impl Backend for DyingBackend {
        fn connect(&self) -> io::Result<Box<dyn Conn>> {
            self.connects.fetch_add(1, Ordering::SeqCst);
            Ok(Box::new(DyingConn))
        }
    }

    #[test]
    fn repeatedly_dying_worker_hits_the_respawn_cap_and_degrades() {
        let task = |name: &str| TaskSpec {
            name: name.to_owned(),
            text: String::new(),
            category: Category::Deref,
            expect: Expected::True,
            max_steps: None,
            class: None,
        };
        // More tasks than the respawn budget allows connections for.
        let tasks: Vec<TaskSpec> = (0..10).map(|i| task(&format!("t{i}"))).collect();
        let backend = DyingBackend { connects: AtomicUsize::new(0) };
        let report = run_suite(&tasks, &backend, &RunConfig::default());
        // Every task degrades to unknown (internal) — never a verdict.
        for r in &report.results {
            assert_eq!(r.verdict, Verdict::Unknown(UnknownReason::Internal));
        }
        // Initial connect plus exactly MAX_RESPAWNS respawns; the
        // remaining tasks were degraded without reconnecting.
        assert_eq!(backend.connects.load(Ordering::SeqCst), 1 + MAX_RESPAWNS as usize);
        assert_eq!(report.respawns, MAX_RESPAWNS);
    }

    #[test]
    fn elapsed_global_budget_skips_dispatch() {
        let task = |name: &str| TaskSpec {
            name: name.to_owned(),
            text: String::new(),
            category: Category::Free,
            expect: Expected::False,
            max_steps: None,
            class: None,
        };
        let tasks = vec![task("a"), task("b")];
        let backend = FlakyBackend { connects: AtomicUsize::new(0) };
        let report = run_suite(
            &tasks,
            &backend,
            &RunConfig { global_budget_ms: Some(0), ..RunConfig::default() },
        );
        for r in &report.results {
            assert_eq!(r.verdict, Verdict::Unknown(UnknownReason::GlobalBudget));
        }
        assert_eq!(backend.connects.load(Ordering::SeqCst), 0, "nothing may be dispatched");
    }

    #[test]
    fn worker_responses_parse_back_into_outputs() {
        let line = "{\"id\": 1, \"result\": {\"kinds\": [\"mustfree\"], \"internal\": false, \
                    \"budget\": false, \"cas_hits\": 3, \"cas_misses\": 1, \"cas_puts\": 1, \
                    \"remote_hits\": 2, \"remote_misses\": 1, \"remote_puts\": 1, \
                    \"remote_corrupt\": 0, \"remote_errors\": 1, \"remote_retries\": 2, \
                    \"remote_trips\": 0, \"remote_skipped\": 0, \"ms\": 2.5}}";
        let out = parse_task_response(line).unwrap();
        assert_eq!(out.kinds, vec!["mustfree".to_owned()]);
        assert!(!out.internal && !out.budget);
        assert_eq!((out.cas.hits, out.cas.misses, out.cas.puts), (3, 1, 1));
        assert_eq!((out.remote.hits, out.remote.misses, out.remote.puts), (2, 1, 1));
        assert_eq!((out.remote.errors, out.remote.retries), (1, 2));
        // Frames from a pre-remote worker parse with zeroed remote stats.
        let old = "{\"id\": 1, \"result\": {\"kinds\": [], \"internal\": false, \
                   \"budget\": false, \"ms\": 0.1}}";
        assert!(parse_task_response(old).unwrap().remote.is_empty());
        let err = parse_task_response("{\"id\": 1, \"error\": {\"message\": \"boom\"}}").unwrap();
        assert!(err.internal);
        assert!(parse_task_response("garbage").is_none());
    }

    #[test]
    fn task_frames_carry_every_store_counter() {
        let out = TaskOutput {
            kinds: vec!["mustfree".to_owned(), "nullderef".to_owned()],
            internal: false,
            budget: true,
            cas: CasStats { hits: 1, misses: 2, puts: 3, races: 4, corrupt: 5, evicted: 6 },
            remote: RemoteStats {
                hits: 7,
                misses: 8,
                puts: 9,
                corrupt: 10,
                errors: 11,
                retries: 12,
                trips: 13,
                skipped: 14,
            },
            ms: 2.5,
        };
        let line =
            lclint_server::result_response(Some(1.0), |w| crate::worker::write_task(w, &out));
        assert_eq!(parse_task_response(&line), Some(out), "{line}");
    }
}
