//! Golden-file snapshot tests for CLI diagnostic rendering.
//!
//! Each `tests/golden/<name>.c` at the repository root has a checked-in
//! `<name>.expected` holding the exact stdout of `rlclint <name>.c`. The
//! comparison normalizes line endings and trailing whitespace, nothing else:
//! message-format drift is a user-visible change and must be reviewed (and
//! these snapshots regenerated) deliberately. To regenerate after an
//! intentional change, run the test with `UPDATE_GOLDEN=1`.

use std::path::PathBuf;
use std::process::Command;

fn golden_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/cli; the fixtures live at the repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Normalizes output for comparison: CRLF to LF, trailing whitespace
/// stripped per line, exactly one trailing newline.
fn normalize(s: &str) -> String {
    let mut out: Vec<String> =
        s.replace("\r\n", "\n").lines().map(|l| l.trim_end().to_owned()).collect();
    while out.last().is_some_and(|l| l.is_empty()) {
        out.pop();
    }
    out.push(String::new());
    out.join("\n")
}

fn check_golden(name: &str) {
    check_golden_env(name, &[], &[], "expected");
}

/// Runs `rlclint <args> <name>.c` with `env` set and compares its stdout
/// with `<name>.<ext>`.
fn check_golden_env(name: &str, env: &[(&str, &str)], args: &[&str], ext: &str) {
    let dir = golden_dir();
    // Run with the golden directory as cwd so diagnostics print bare file
    // names — the snapshot stays machine-independent.
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rlclint"));
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out =
        cmd.args(args).arg(format!("{name}.c")).current_dir(&dir).output().expect("rlclint runs");
    let actual = normalize(&String::from_utf8_lossy(&out.stdout));
    let expected_path = dir.join(format!("{name}.{ext}"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&expected_path, &actual).expect("golden updated");
        return;
    }
    let expected = normalize(
        &std::fs::read_to_string(&expected_path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", expected_path.display())),
    );
    assert_eq!(
        actual, expected,
        "\nCLI rendering drifted for {args:?} {name}.c — if intentional, rerun with UPDATE_GOLDEN=1\n"
    );
}

#[test]
fn golden_null_deref() {
    check_golden("null_deref");
}

#[test]
fn golden_leak_and_double_free() {
    check_golden("leak_and_double_free");
}

#[test]
fn golden_use_after_free() {
    check_golden("use_after_free");
}

#[test]
fn golden_syntax_error() {
    check_golden("syntax_error");
}

#[test]
fn golden_realloc_lost() {
    check_golden("realloc_lost");
}

#[test]
fn golden_buffer_overflow() {
    check_golden("buffer_overflow");
}

#[test]
fn golden_oob_index() {
    check_golden("oob_index");
}

/// A confluence where one branch defined `*p` of an `out` parameter: the
/// merge must take the other branch's implicit state from `p` itself, so the
/// later read is a use before definition on both paths.
#[test]
fn golden_merge_out_param() {
    check_golden("merge_out_param");
}

/// Diagnostics tied at one return point keep the order in which the
/// checker met their references (ascending reference id, which is the
/// order of first use), not the order of a hash map.
#[test]
fn golden_globals_at_return() {
    check_golden("globals_at_return");
}

/// `rlclint --json` prints the daemon's diagnostic objects with `cwe`
/// appended.
#[test]
fn golden_json_null_deref() {
    check_golden_env("null_deref", &[], &["--json"], "json");
}

#[test]
fn golden_json_leak_and_double_free() {
    check_golden_env("leak_and_double_free", &[], &["--json"], "json");
}

/// The `internal` diagnostic message is part of the user interface: its
/// wording is pinned here via the panic-injection hook. The message contains
/// only the panic payload — no file/line of the panic site — precisely so
/// this snapshot does not churn with unrelated checker edits.
#[test]
fn golden_internal_error() {
    check_golden_env("internal_error", &[("RLCLINT_DEBUG_PANIC_FN", "victim")], &[], "expected");
}

/// The golden set must stay in sync: every .c has a .expected and vice versa.
#[test]
fn golden_set_is_complete() {
    let dir = golden_dir();
    let mut cs = Vec::new();
    let mut expecteds = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("golden dir exists") {
        let path = entry.expect("entry").path();
        let stem = path.file_stem().expect("stem").to_string_lossy().into_owned();
        match path.extension().and_then(|e| e.to_str()) {
            Some("c") => cs.push(stem),
            Some("expected") => expecteds.push(stem),
            _ => {}
        }
    }
    cs.sort();
    expecteds.sort();
    assert_eq!(cs, expecteds, "every golden .c needs a .expected and vice versa");
    assert_eq!(cs.len(), 10, "golden set changed; update the per-file tests too");
}
