//! `rlclintd`, the persistent analysis server: `lclint_cli::run` in daemon
//! mode, so `rlclintd ARGS` is `rlclint --daemon ARGS`.

use lclint_cli::{run, Mode};
use std::process::ExitCode;

fn main() -> ExitCode {
    run("rlclintd", Mode::Daemon, std::env::args().skip(1).collect())
}
