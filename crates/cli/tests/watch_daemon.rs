//! End-to-end tests of `rlclint --watch`, `rlclint --daemon` and
//! `rlclintd`, which is `rlclint --daemon` under another name.

use lclint_server::json;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn rlclint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rlclint"))
}

fn rlclintd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rlclintd"))
}

/// Runs `cmd` with stdin closed, killing it after ten seconds, so that a
/// server which should have refused to start fails the test instead of
/// hanging it.
fn output_within_timeout(cmd: &mut Command) -> Output {
    let mut child =
        cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

/// Cuts the trailing `ms` timing member, the only run-varying bytes.
fn strip_ms(resp: &str) -> String {
    match resp.rfind(",\"ms\":") {
        Some(i) => format!("{}}}}}", &resp[..i]),
        None => resp.to_owned(),
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rlclint-watch-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn watch_rechecks_on_change_and_exits_on_stdin_eof() {
    let dir = scratch_dir("watch");
    let src = dir.join("w.c");
    std::fs::write(&src, "void f(void)\n{\n  char *p = (char *) malloc(4);\n  free(p);\n}\n")
        .unwrap();

    let mut child = rlclint()
        .arg("--watch")
        .arg("--watch-poll-ms")
        .arg("20")
        .arg(&src)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    // Give the watcher time to finish the cold check, then introduce a
    // leak on disk, wait for a poll to notice it, and close stdin.
    std::thread::sleep(Duration::from_millis(400));
    std::fs::write(
        &src,
        "void f(void)\n{\n  char *p = (char *) malloc(4);\n  p = (char *) 0;\n}\n",
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(400));
    drop(child.stdin.take());
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("changed"), "stderr: {stderr}");
    assert!(
        stdout.contains("Fresh storage p not released before assignment"),
        "stdout: {stdout}\nstderr: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_cycle_bound_exits_without_stdin_eof() {
    let dir = scratch_dir("cycles");
    let src = dir.join("c.c");
    std::fs::write(&src, "void f(void)\n{\n  int x = 1;\n  x = x;\n}\n").unwrap();
    let out = rlclint()
        .arg("--watch")
        .arg("--watch-poll-ms")
        .arg("5")
        .arg(&src)
        .env("RLCLINT_WATCH_CYCLES", "3")
        .stdin(Stdio::piped()) // held open: the cycle bound must fire
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("watch done"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The summary is the session's whole counter listing.
    let stderr = String::from_utf8_lossy(&out.stderr);
    let done = stderr.lines().find(|l| l.contains("watch done")).unwrap();
    assert!(done.contains(" swaps"), "{done}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_mode_serves_the_json_protocol_over_stdio() {
    let dir = scratch_dir("daemon");
    let src = dir.join("d.c");
    std::fs::write(&src, "void f(void)\n{\n  char *p = (char *) malloc(4);\n  free(p);\n}\n")
        .unwrap();

    let mut child = rlclint()
        .arg("--daemon")
        .arg(&src)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let mut reader = BufReader::new(child.stdout.take().unwrap());

    writeln!(stdin, r#"{{"id": 1, "method": "check"}}"#).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""clean":true"#), "{line}");

    writeln!(stdin, r#"{{"id": 2, "method": "shutdown"}}"#).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("result"), "{line}");
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_and_daemon_flag_conflicts_are_usage_errors() {
    let dir = scratch_dir("conflicts");
    let src = dir.join("x.c");
    std::fs::write(&src, "void f(void)\n{\n}\n").unwrap();
    let both = rlclint().arg("--watch").arg("--daemon").arg(&src).output().unwrap();
    assert_eq!(both.status.code(), Some(2));
    let json = rlclint().arg("--watch").arg("--json").arg(&src).output().unwrap();
    assert_eq!(json.status.code(), Some(2));
    let sock = rlclint().arg("--socket").arg("/tmp/x.sock").arg(&src).output().unwrap();
    assert_eq!(sock.status.code(), Some(2));
    let sock_and_tcp = output_within_timeout(
        rlclint()
            .arg("--daemon")
            .arg("--socket")
            .arg(dir.join("s.sock"))
            .args(["--tcp", "127.0.0.1:0"])
            .arg(&src),
    );
    assert_eq!(sock_and_tcp.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&sock_and_tcp.stderr);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn options_a_mode_never_reads_are_usage_errors() {
    let dir = scratch_dir("unread");
    let src = dir.join("u.c");
    std::fs::write(&src, "void f(void)\n{\n}\n").unwrap();
    let lines: [&[&str]; 4] = [
        &["--daemon", "--stats"],
        &["--seed", "5"],
        &["--watch-poll-ms", "7"],
        &["--suite-tasks", "3"],
    ];
    for line in lines {
        let out = output_within_timeout(rlclint().args(line).arg(&src));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line:?}: {stderr}");
        assert!(stderr.contains("does not apply to"), "{line:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rlclintd_binary_serves_a_stdio_round_trip() {
    let dir = scratch_dir("stdio");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("m.c");
    std::fs::write(&src, "void f(void)\n{\n  char *p = (char *) malloc(4);\n  free(p);\n}\n")
        .unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_rlclintd"))
        .arg(&src)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    // check (clean) -> didChange introducing a leak -> stats -> shutdown.
    let edit = "void f(void)\\n{\\n  char *p = (char *) malloc(4);\\n  p = (char *) 0;\\n}\\n";
    writeln!(stdin, r#"{{"id": 1, "method": "check"}}"#).unwrap();
    writeln!(
        stdin,
        r#"{{"id": 2, "method": "didChange", "params": {{"file": {}, "text": "{edit}"}}}}"#,
        {
            let mut s = String::new();
            json::write_escaped(&mut s, &src.display().to_string());
            s
        }
    )
    .unwrap();
    writeln!(stdin, r#"{{"id": 3, "method": "stats"}}"#).unwrap();
    writeln!(stdin, r#"{{"id": 4, "method": "shutdown"}}"#).unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "daemon exit: {:?}", out.status);
    let lines: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(lines.len(), 4, "{lines:?}");

    let first = json::parse(lines[0]).unwrap();
    assert_eq!(
        first.get("result").unwrap().get("clean"),
        Some(&json::Json::Bool(true)),
        "{}",
        lines[0]
    );
    let second = json::parse(lines[1]).unwrap();
    assert_eq!(
        second.get("result").unwrap().get("clean"),
        Some(&json::Json::Bool(false)),
        "{}",
        lines[1]
    );
    let stats = json::parse(lines[2]).unwrap();
    let stats = stats.get("result").unwrap();
    assert_eq!(stats.get("requests").and_then(json::Json::as_usize), Some(2));
    assert!(stats.get("symbols").and_then(json::Json::as_usize).unwrap() > 0);
    let bye = json::parse(lines[3]).unwrap();
    assert!(bye.get("result").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pipes `script` into `cmd`; returns the exit code and the responses
/// with their `ms` members cut.
fn serve_script(cmd: &mut Command, script: &str) -> (Option<i32>, String) {
    let mut child =
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::null()).spawn().unwrap();
    child.stdin.take().unwrap().write_all(script.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    (out.status.code(), stdout.lines().map(strip_ms).collect::<Vec<_>>().join("\n"))
}

/// Exit code and stderr, the program-name prefix cut from each line.
fn usage_failure(cmd: &mut Command) -> (Option<i32>, String) {
    let out = output_within_timeout(cmd);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let unprefixed = stderr.lines().map(|l| l.split_once(": ").map_or(l, |(_, rest)| rest));
    (out.status.code(), unprefixed.collect::<Vec<_>>().join("\n"))
}

#[test]
fn rlclintd_is_rlclint_daemon() {
    let dir = scratch_dir("parity");
    let src = dir.join("p.c");
    let src_s = src.to_str().unwrap();
    let cache = dir.join("cache");
    let cache_s = cache.to_str().unwrap();
    std::fs::write(&src, "void f(void)\n{\n  int x; x = 1;\n}\n").unwrap();
    let mut file = String::new();
    json::write_escaped(&mut file, src_s);
    let leak = r#""void f(void)\n{\n  char *p = (char *) malloc(8);\n}\n""#;
    let script = format!(
        "{{\"id\": 1, \"method\": \"check\"}}\n\
         {{\"id\": 2, \"method\": \"didChange\", \"params\": {{\"file\": {file}, \"text\": {leak}}}}}\n\
         {{\"id\": 3, \"method\": \"stats\"}}\n\
         {{\"id\": 4, \"method\": \"shutdown\"}}\n"
    );
    let lines: [&[&str]; 4] = [
        &[src_s],
        &["--max-steps", "1000", src_s],
        &["--jobs", "1", "+gcmode", src_s],
        &["--incremental", cache_s, src_s],
    ];
    for args in lines {
        let _ = std::fs::remove_dir_all(&cache);
        let d = serve_script(rlclintd().args(args), &script);
        let _ = std::fs::remove_dir_all(&cache);
        let r = serve_script(rlclint().arg("--daemon").args(args), &script);
        assert_eq!(d.0, Some(0), "rlclintd {args:?}");
        assert_eq!(d.1.lines().count(), 4, "rlclintd {args:?}: {}", d.1);
        assert_eq!(d, r, "rlclintd {args:?} vs rlclint --daemon {args:?}");
    }

    // The debug hook reaches the daemon too.
    let (_, out) = serve_script(
        rlclintd().arg(src_s).env("RLCLINT_DEBUG_PANIC_FN", "f"),
        "{\"id\": 1, \"method\": \"check\"}\n",
    );
    assert!(out.contains("Internal checker error in function f"), "{out}");

    let sock = dir.join("s.sock");
    let sock_s = sock.to_str().unwrap();
    let invalid: [&[&str]; 8] = [
        &["--stats", src_s],
        &["--socket", sock_s, "--tcp", "127.0.0.1:0", src_s],
        &["--max-steps", "0", src_s],
        &["--jobs", "many", src_s],
        &["--cas", cache_s, src_s],
        &["--daemon", "--watch", src_s],
        &["+nosuchflag", src_s],
        &["--tcp", "127.0.0.1:0"],
    ];
    for args in invalid {
        let d = usage_failure(rlclintd().args(args));
        let r = usage_failure(rlclint().arg("--daemon").args(args));
        assert_eq!(d.0, Some(2), "rlclintd {args:?}: {}", d.1);
        assert_eq!(d, r, "rlclintd {args:?} vs rlclint --daemon {args:?}");
    }
    // A 0-byte store would refuse every artifact: both binaries reject it.
    let cas_serve = ["--cas-serve", "127.0.0.1:0", "--cas", cache_s, "--cas-max-mb", "0"];
    let d = usage_failure(rlclintd().args(cas_serve));
    assert_eq!(d, usage_failure(rlclint().args(cas_serve)));
    assert_eq!(d.0, Some(2));
    assert!(d.1.contains("--cas-max-mb expects a positive number"), "{}", d.1);
    let _ = std::fs::remove_dir_all(&dir);
}
