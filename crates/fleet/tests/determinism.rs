//! Property: the merged scoreboard is a pure function of the task list.
//! For any subset of a generated suite and any shard count 1–4, the score
//! table and the per-task verdict listing are byte-identical — sharding
//! changes wall-clock time, never output. Store temperature does not
//! change it either: a warm rerun answers every task from the store.

use lclint_core::{Flags, StoreConfig};
use lclint_fleet::coordinator::{run_suite, InProcessBackend, RunConfig};
use lclint_fleet::suite::{generate_suite, TaskSpec};
use lclint_syntax::rng::SplitMix64;
use std::sync::OnceLock;

/// One shared base suite: generation and checking are the expensive part,
/// so the property varies the *selection*, not the programs.
fn base_suite() -> &'static [TaskSpec] {
    static SUITE: OnceLock<Vec<TaskSpec>> = OnceLock::new();
    SUITE.get_or_init(|| generate_suite(12, 2024))
}

fn backend() -> InProcessBackend {
    InProcessBackend { flags: Flags::default(), store: StoreConfig::default() }
}

/// The tasks of the base suite whose bit is set in `mask`.
fn select(mask: u64) -> Vec<TaskSpec> {
    base_suite()
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, t)| t.clone())
        .collect()
}

/// 8 cases; case `k` draws a non-empty subset from `SplitMix64::seeded(k)`.
#[test]
fn merged_output_is_shard_invariant_for_any_subset() {
    for case in 0..8 {
        let mask = 1 + SplitMix64::seeded(case).below((1 << 12) - 1);
        let tasks = select(mask);
        let b = backend();
        let base = run_suite(&tasks, &b, &RunConfig { shards: 1, ..RunConfig::default() });
        // A generated suite with honest sidecars never scores incorrect.
        assert_eq!(base.incorrect(), 0, "case {case} (mask {mask:#x}): {}", base.render_verdicts());
        for shards in 2..=4 {
            let r = run_suite(&tasks, &b, &RunConfig { shards, ..RunConfig::default() });
            let what = format!("case {case} (mask {mask:#x}), shards={shards}");
            assert_eq!(base.render_table(), r.render_table(), "{what}");
            assert_eq!(base.render_verdicts(), r.render_verdicts(), "{what}");
        }
    }
}

/// 8 cases; case `k` draws a subset and a shard count.
#[test]
fn rerunning_the_same_selection_is_bytewise_stable() {
    for case in 0..8 {
        let mut rng = SplitMix64::seeded(case);
        let mask = 1 + rng.below((1 << 12) - 1);
        let shards = 1 + rng.below(4) as usize;
        let tasks = select(mask);
        let b = backend();
        let cfg = RunConfig { shards, ..RunConfig::default() };
        let once = run_suite(&tasks, &b, &cfg);
        let twice = run_suite(&tasks, &b, &cfg);
        let what = format!("case {case} (mask {mask:#x}, shards={shards})");
        assert_eq!(once.render_table(), twice.render_table(), "{what}");
        assert_eq!(once.render_verdicts(), twice.render_verdicts(), "{what}");
    }
}

/// A 500-task suite (seed 2024) runs cold into a fresh store, then again
/// against it. The rerun answers every task from the store without a miss,
/// its output is byte-identical, and no verdict is incorrect. Only the
/// rerun's counters are asserted: how a cold run splits hits and misses
/// depends on scheduling once duplicate programs meet.
#[test]
fn warm_rerun_answers_every_task_from_the_store() {
    const TASKS: usize = 500;
    let tasks = generate_suite(TASKS, 2024);
    let dir = std::env::temp_dir().join(format!("lclint-warm-rerun-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let b = InProcessBackend {
        flags: Flags::default(),
        store: StoreConfig::local(Some(dir.clone()), None),
    };
    let cold = run_suite(&tasks, &b, &RunConfig::default());
    assert_eq!(cold.incorrect(), 0, "{}", cold.render_verdicts());
    let warm = run_suite(&tasks, &b, &RunConfig::default());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(warm.incorrect(), 0, "{}", warm.render_verdicts());
    assert_eq!(warm.cas.misses, 0, "warm rerun re-checked a task: {:?}", warm.cas);
    assert_eq!(warm.cas.hits, TASKS as u64, "{:?}", warm.cas);
    assert_eq!(cold.render_table(), warm.render_table());
    assert_eq!(cold.render_verdicts(), warm.render_verdicts());
}

/// A `CasService` on a loopback port, stopped by a `shutdown` op.
struct Remote {
    addr: String,
    thread: std::thread::JoinHandle<()>,
}

impl Remote {
    fn start(dir: &std::path::Path) -> Remote {
        let store = lclint_core::CasStore::open(dir, None).expect("remote store");
        let service = std::sync::Arc::new(lclint_server::cas::CasService::new(store));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let thread = std::thread::spawn(move || {
            let _ = lclint_server::serve_tcp(&service, listener);
        });
        Remote { addr, thread }
    }

    fn stop(self) {
        use std::io::{BufRead, Write};
        if let Ok(mut s) = std::net::TcpStream::connect(&self.addr) {
            let _ = s.write_all(b"{\"op\":\"shutdown\"}\n");
            let _ = std::io::BufReader::new(&s).read_line(&mut String::new());
        }
        self.thread.join().expect("remote server thread");
    }
}

/// Host A publishes a suite with duplicate programs to a loopback remote;
/// then host B, on an empty local store each time, runs it twice at 2 and
/// 4 shards. Every copy of a program runs on the shard of its first
/// occurrence, after it, so each distinct program is fetched from the
/// remote exactly once and its copies hit the local store: the remote hit
/// count depends only on the task list, not on timing.
#[test]
fn remote_hits_count_each_distinct_program_once_at_any_shard_count() {
    let mut tasks = generate_suite(16, 7);
    // Copies of every third task, under new names, spread through the list.
    let copies: Vec<TaskSpec> = tasks
        .iter()
        .step_by(3)
        .map(|t| TaskSpec { name: format!("{}_copy", t.name), ..t.clone() })
        .collect();
    for (k, copy) in copies.into_iter().enumerate() {
        tasks.insert((5 * k + 2).min(tasks.len()), copy);
    }
    let distinct: std::collections::HashSet<(&str, Option<u64>)> =
        tasks.iter().map(|t| (t.text.as_str(), t.max_steps)).collect();
    assert!(distinct.len() < tasks.len(), "the suite must hold duplicates");

    let dir = std::env::temp_dir().join(format!("lclint-remote-hits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let remote = Remote::start(&dir.join("remote"));
    let host = |name: String, shards: usize| {
        let store = StoreConfig {
            dir: Some(dir.join(name)),
            max_bytes: None,
            remote: Some(remote.addr.clone()),
            chaos: None,
        };
        let b = InProcessBackend { flags: Flags::default(), store };
        run_suite(&tasks, &b, &RunConfig { shards, ..RunConfig::default() })
    };
    let published = host("a".to_owned(), 2);
    assert_eq!(published.incorrect(), 0, "{}", published.render_verdicts());
    for shards in [2, 4] {
        for run in 0..2 {
            let r = host(format!("b-{shards}-{run}"), shards);
            let what = format!("shards={shards}, run {run}");
            assert_eq!(r.incorrect(), 0, "{what}: {}", r.render_verdicts());
            assert_eq!(r.remote.hits as usize, distinct.len(), "{what}: {:?}", r.remote);
            assert_eq!(r.render_verdicts(), published.render_verdicts(), "{what}");
        }
    }
    remote.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
