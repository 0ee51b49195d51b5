//! The degradation matrix: the deterministic scoreboard (score table +
//! verdict listing) must be byte-identical whatever the remote result
//! cache is doing. Six cells run the same suite against a remote that is
//! up, absent (cold/local-only), flaky, corrupting, down, and killed
//! mid-run — every cell must match the local-only baseline byte for
//! byte. A remote can cost bounded latency; it can never buy or lose a
//! point. The latency bound is asserted on counters: a dead remote trips
//! the breaker, which then skips more operations than ever reach the
//! network.

use lclint_core::{CasStore, Flags, StoreConfig};
use lclint_fleet::coordinator::{run_suite, InProcessBackend, RunConfig};
use lclint_fleet::score::SuiteReport;
use lclint_fleet::suite::{generate_suite, TaskSpec};
use lclint_server::cas::CasService;
use lclint_server::serve_tcp;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lclint-degrade-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts a real castore daemon on a loopback port.
fn start_server(tag: &str) -> (String, std::thread::JoinHandle<()>, PathBuf) {
    let dir = scratch(&format!("srv-{tag}"));
    let store = CasStore::open(&dir, None).unwrap();
    let service = Arc::new(CasService::new(store));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        serve_tcp(&service, listener).unwrap();
    });
    (addr, handle, dir)
}

fn stop_server(addr: &str, handle: std::thread::JoinHandle<()>) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    let mut line = String::new();
    let _ = BufReader::new(&s).read_line(&mut line);
    handle.join().unwrap();
}

/// An address nothing listens on: bind, read the port, drop the socket.
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().to_string()
}

fn run_cell(tasks: &[TaskSpec], store: StoreConfig) -> SuiteReport {
    let backend = InProcessBackend { flags: Flags::default(), store };
    run_suite(tasks, &backend, &RunConfig::default())
}

#[test]
fn scoreboard_is_byte_identical_across_the_degradation_matrix() {
    let tasks = generate_suite(8, 77);

    // The baseline: no store at all.
    let baseline = run_cell(&tasks, StoreConfig::default());

    let (addr, handle, srv_dir) = start_server("matrix");
    let cells: Vec<(&str, StoreConfig)> = vec![
        // A healthy remote, cold local store.
        (
            "up",
            StoreConfig {
                dir: Some(scratch("up")),
                max_bytes: None,
                remote: Some(addr.clone()),
                chaos: None,
            },
        ),
        // Local-only (the pre-remote configuration).
        ("cold", StoreConfig::local(Some(scratch("cold")), None)),
        // A remote that fails in alternating windows: the breaker trips,
        // probes, recovers, trips again.
        (
            "flaky",
            StoreConfig {
                dir: Some(scratch("flaky")),
                max_bytes: None,
                remote: Some(addr.clone()),
                chaos: Some("flaky:8".to_owned()),
            },
        ),
        // A remote whose payloads arrive bit-flipped: checksum-rejected,
        // counted, never trusted.
        (
            "corrupt",
            StoreConfig {
                dir: Some(scratch("corrupt")),
                max_bytes: None,
                remote: Some(addr.clone()),
                chaos: Some("corrupt:1".to_owned()),
            },
        ),
        // Nothing listening at all: connection refused on every attempt.
        (
            "down",
            StoreConfig {
                dir: Some(scratch("down")),
                max_bytes: None,
                remote: Some(dead_addr()),
                chaos: None,
            },
        ),
        // A remote that works, then dies partway through the suite.
        (
            "killed-mid-run",
            StoreConfig {
                dir: Some(scratch("killed")),
                max_bytes: None,
                remote: Some(addr.clone()),
                chaos: Some("die-after:5".to_owned()),
            },
        ),
    ];

    let mut dirs = Vec::new();
    for (name, store) in cells {
        dirs.extend(store.dir.clone());
        let report = run_cell(&tasks, store);
        assert_eq!(
            baseline.render_table(),
            report.render_table(),
            "score table diverged in cell `{name}`"
        );
        assert_eq!(
            baseline.render_verdicts(),
            report.render_verdicts(),
            "verdict listing diverged in cell `{name}`"
        );
        if name == "down" {
            let r = report.remote;
            assert!(r.trips >= 1, "a dead remote must trip the breaker: {r:?}");
            assert!(r.skipped > r.errors, "the breaker must cap network attempts: {r:?}");
        }
    }

    stop_server(&addr, handle);
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
    let _ = std::fs::remove_dir_all(srv_dir);
}

/// The warm path actually exercises the remote: a second "host" with an
/// empty local store must pull artifacts the first host published, and
/// its scoreboard must still match.
#[test]
fn warm_remote_serves_a_second_host_without_changing_output() {
    let tasks = generate_suite(6, 31);
    let baseline = run_cell(&tasks, StoreConfig::default());
    let (addr, handle, srv_dir) = start_server("warm");

    let host_a = scratch("host-a");
    let host_b = scratch("host-b");
    let cfg = |dir: &PathBuf| StoreConfig {
        dir: Some(dir.clone()),
        max_bytes: None,
        remote: Some(addr.clone()),
        chaos: None,
    };

    // Host A runs cold and publishes through to the remote.
    let backend = InProcessBackend { flags: Flags::default(), store: cfg(&host_a) };
    let first = run_suite(&tasks, &backend, &RunConfig::default());
    assert_eq!(baseline.render_table(), first.render_table());
    assert!(first.remote.puts > 0, "cold run must publish to the remote");

    // Host B has an empty local store: every artifact must come from the
    // remote, and the output must not move.
    let backend = InProcessBackend { flags: Flags::default(), store: cfg(&host_b) };
    let second = run_suite(&tasks, &backend, &RunConfig::default());
    assert_eq!(baseline.render_table(), second.render_table());
    assert_eq!(baseline.render_verdicts(), second.render_verdicts());
    let r = second.remote;
    assert_eq!(r.hits, tasks.len() as u64, "every task must come from the remote: {r:?}");
    assert_eq!(r.misses, 0, "{r:?}");
    assert_eq!(r.puts, 0, "a remote hit must not be published again: {r:?}");

    stop_server(&addr, handle);
    for d in [host_a, host_b, srv_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}
