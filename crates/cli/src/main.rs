//! `rlclint`, the command-line checker: `lclint_cli::run` in check mode.
//! The command line is documented in the `lclint_cli` crate.

use lclint_cli::{run, Mode};
use std::process::ExitCode;

fn main() -> ExitCode {
    run("rlclint", Mode::Check, std::env::args().skip(1).collect())
}
