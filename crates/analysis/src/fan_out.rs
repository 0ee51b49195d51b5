//! The one parallel mechanism. The paper's checker is per-procedure (§2),
//! so parsing the roots, checking the definitions and checking the cache
//! misses are the same job: independent items, results in item order.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long a worker holds finished results before sending them. A send
/// per result wakes the committing thread per item, which made a 1M-line
/// check ~20% slower on a 2-vCPU guest; a front-end root takes longer.
const FLUSH_EVERY: Duration = Duration::from_millis(1);

/// The worker count to use for `requested` (0 = all cores) over
/// `work_items` independent items (definitions here, translation units in
/// the front end).
pub fn effective_jobs(requested: usize, work_items: usize) -> usize {
    if work_items <= 1 {
        return 1;
    }
    // Asking the OS for the core count reads cgroup files on Linux: only
    // pay for it when the caller asked for "all cores".
    let n = match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    n.clamp(1, work_items)
}

/// Runs `work(k)` for every `k` in `0..items` on `jobs` scoped workers
/// named `name` with `stack_size` bytes of stack, claiming indices from one
/// atomic counter, and hands each result to `commit` on the calling thread
/// strictly in index order as it arrives. What `commit` builds is thus the
/// same for every `jobs`, and one job is one worker, not a special case.
///
/// When `work` panics, the other workers stop claiming, all are joined, and
/// the panic is resumed with its original payload: the lowest panicking
/// index's, since every lower index was claimed first, which is the panic a
/// serial run raises. `work` that waits on other items must wake them when
/// it unwinds. If `commit` panics, workers stop at their next send.
pub fn fan_out<T: Send>(
    jobs: usize,
    name: &str,
    stack_size: usize,
    items: usize,
    work: impl Fn(usize) -> T + Sync,
    mut commit: impl FnMut(usize, T),
) {
    if items == 0 {
        return;
    }
    let next = AtomicUsize::new(0);
    let panicked: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<Vec<(usize, T)>>();
        for _ in 0..jobs {
            let (work, next, panicked, tx) = (&work, &next, &panicked, tx.clone());
            let worker = move || {
                let (mut batch, mut since) = (Vec::new(), Instant::now());
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= items {
                        break;
                    }
                    match panic::catch_unwind(AssertUnwindSafe(|| work(k))) {
                        Ok(out) => batch.push((k, out)),
                        Err(payload) => {
                            // Stop the others claiming: every later claim is past the end.
                            next.store(items, Ordering::Relaxed);
                            let mut lowest =
                                panicked.lock().unwrap_or_else(PoisonError::into_inner);
                            if lowest.as_ref().is_none_or(|(j, _)| k < *j) {
                                *lowest = Some((k, payload));
                            }
                            break;
                        }
                    }
                    if since.elapsed() >= FLUSH_EVERY {
                        // A closed channel means `commit` panicked.
                        if tx.send(std::mem::take(&mut batch)).is_err() {
                            break;
                        }
                        since = Instant::now();
                    }
                }
                let _ = tx.send(batch);
            };
            let spawned = std::thread::Builder::new().name(name.to_owned()).stack_size(stack_size);
            spawned.spawn_scoped(s, worker).expect("spawn fan-out worker");
        }
        // The loop ends once every worker has dropped its sender.
        drop(tx);
        // The results from index `committed` on that arrived early.
        let mut window: VecDeque<Option<T>> = VecDeque::new();
        let mut committed = 0;
        for (k, out) in rx.into_iter().flatten() {
            if window.len() <= k - committed {
                window.resize_with(k - committed + 1, || None);
            }
            window[k - committed] = Some(out);
            while let Some(out) = window.front_mut().and_then(Option::take) {
                window.pop_front();
                commit(committed, out);
                committed += 1;
            }
        }
    });
    if let Some((_, payload)) = panicked.into_inner().unwrap_or_else(PoisonError::into_inner) {
        panic::resume_unwind(payload);
    }
}
