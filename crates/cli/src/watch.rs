//! `rlclint --watch`: a thin single-client wrapper over a warm
//! [`Session`]. The registered files are polled for content changes
//! (a portable fallback — no inotify dependency); each change is fed
//! through [`Session::did_change`], so re-checks take the same patch
//! fast path the daemon uses, and the printed diagnostics stay
//! byte-identical to a cold batch run over the files' current contents.
//!
//! The watcher exits when stdin reaches end-of-file (so `rlclint
//! --watch ... < /dev/null` checks once and returns) or, for tests and
//! scripts, after `RLCLINT_WATCH_CYCLES` polls.

use lclint_core::{CheckResult, Session};
use lclint_syntax::stats::{self, Counters};
use std::io::Read;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn print_result(prog: &str, result: &CheckResult) {
    crate::modes::print_report(result);
    for e in &result.sema_errors {
        eprintln!("{prog}: {e}");
    }
}

/// Runs the watch loop to completion, polling every `poll_ms` and, with
/// `max_cycles`, stopping after that many polls even before stdin EOF.
/// Returns exit 0 when the loop ends, or the initial build's error.
pub(crate) fn run_watch(
    prog: &str,
    mut session: Session,
    poll_ms: u64,
    max_cycles: Option<u64>,
) -> Result<ExitCode, String> {
    let initial = session.check(None).map_err(|e| e.to_string())?;
    eprintln!(
        "{prog}: watching {} file(s), polling every {} ms (end stdin to stop)",
        session.file_names().len(),
        poll_ms
    );
    print_result(prog, &initial);

    // Stdin EOF is the stop signal: a reader thread drains it so the
    // poll loop never blocks on input.
    let stop = Arc::new(AtomicBool::new(false));
    {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut sink = [0u8; 1024];
            let mut stdin = std::io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            stop.store(true, Ordering::SeqCst);
        });
    }

    let mut cycles = 0u64;
    while !stop.load(Ordering::SeqCst) {
        if let Some(max) = max_cycles {
            if cycles >= max {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(poll_ms));
        cycles += 1;
        for name in session.file_names() {
            let Ok(text) = std::fs::read_to_string(&name) else {
                // Transient: the editor may be mid-save. Next poll sees it.
                continue;
            };
            if session.file_text(&name) == Some(text.as_str()) {
                continue;
            }
            eprintln!("{prog}: {name} changed");
            match session.did_change(&name, &text, None) {
                Ok(r) => print_result(prog, &r),
                Err(e) => eprintln!("{prog}: {e}"),
            }
        }
    }
    eprintln!("{prog}: watch done: {}", stats::text(session.stats().counters()));
    Ok(ExitCode::SUCCESS)
}
