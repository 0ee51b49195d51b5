//! The ordered fan-out every parallel phase runs through: results are
//! committed in index order whatever order the workers finish in, and a
//! panicking item reaches the caller with its own payload once every
//! worker has stopped.

use lclint_analysis::fan_out;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

const STACK: usize = 256 * 1024;

/// Runs `items` items on `jobs` workers and returns the committed
/// `(index, value)` pairs and the order the items finished in. With more
/// than one worker, each even item waits until the odd item after it has
/// finished, so the items finish out of index order.
fn run(jobs: usize, items: usize) -> (Vec<(usize, usize)>, Vec<usize>) {
    let finished = Mutex::new(Vec::new());
    let turn = Condvar::new();
    let work = |k: usize| {
        let mut done = finished.lock().unwrap();
        if jobs > 1 && k.is_multiple_of(2) && k + 1 < items {
            while !done.contains(&(k + 1)) {
                done = turn.wait(done).unwrap();
            }
        }
        done.push(k);
        turn.notify_all();
        k * 10
    };
    let mut committed = Vec::new();
    fan_out(jobs, "fan-out-test", STACK, items, work, |k, v| committed.push((k, v)));
    (committed, finished.into_inner().unwrap())
}

#[test]
fn commits_in_index_order_when_items_finish_out_of_order() {
    for jobs in [1, 2, 4, 8] {
        let (committed, finished) = run(jobs, 33);
        let expected: Vec<(usize, usize)> = (0..33).map(|k| (k, k * 10)).collect();
        assert_eq!(committed, expected, "jobs {jobs}");
        let pos = |k| finished.iter().position(|&f| f == k).unwrap();
        if jobs > 1 {
            assert!(pos(1) < pos(0), "jobs {jobs}: item 1 finished first: {finished:?}");
        } else {
            assert_eq!(finished, (0..33).collect::<Vec<_>>(), "one worker runs in order");
        }
    }
}

#[test]
fn more_jobs_than_items_and_zero_items() {
    let (committed, _) = run(8, 3);
    assert_eq!(committed, [(0, 0), (1, 10), (2, 20)]);
    let calls = AtomicUsize::new(0);
    let mut commits = 0;
    fan_out(
        4,
        "fan-out-test",
        STACK,
        0,
        |_| calls.fetch_add(1, Ordering::Relaxed),
        |_, _| commits += 1,
    );
    assert_eq!((calls.into_inner(), commits), (0, 0));
}

#[derive(Debug, PartialEq)]
struct Boom(usize);

#[test]
fn a_panicking_item_reaches_the_caller_with_its_payload_after_every_worker_stops() {
    const ITEMS: usize = 400;
    let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let mut committed = Vec::new();
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        let work = |k: usize| {
            started.fetch_add(1, Ordering::SeqCst);
            if k == 5 {
                panic::panic_any(Boom(5));
            }
            std::thread::sleep(Duration::from_millis(1));
            finished.fetch_add(1, Ordering::SeqCst);
        };
        fan_out(4, "fan-out-test", STACK, ITEMS, work, |k, ()| committed.push(k));
    }));
    let payload = caught.expect_err("the panic reaches the caller");
    assert_eq!(payload.downcast_ref::<Boom>(), Some(&Boom(5)), "original payload");
    // Every item that started has returned or is the one that panicked:
    // no worker is still running, or waiting, once the call unwinds.
    let (started, finished) = (started.into_inner(), finished.into_inner());
    assert_eq!(started, finished + 1);
    assert!(started < ITEMS, "workers stopped claiming: {started} items started");
    // Only results before the panicking index can have been committed.
    assert!(committed.len() <= 5);
    assert_eq!(committed, (0..committed.len()).collect::<Vec<_>>());
}

#[test]
fn when_several_items_panic_the_lowest_index_wins() {
    let caught = panic::catch_unwind(|| {
        let work = |k: usize| {
            if k == 10 {
                std::thread::sleep(Duration::from_millis(50));
                panic::panic_any(Boom(10));
            }
            if k == 11 {
                panic::panic_any(Boom(11));
            }
        };
        fan_out(4, "fan-out-test", STACK, 64, work, |_, ()| {});
    });
    let payload = caught.expect_err("the panic reaches the caller");
    assert_eq!(payload.downcast_ref::<Boom>(), Some(&Boom(10)), "the serial run's panic");
}
