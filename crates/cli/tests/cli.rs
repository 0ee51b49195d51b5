//! End-to-end tests of the `rlclint` binary.

use lclint_syntax::json::{self, Json};
use std::io::Write;
use std::process::Command;

fn rlclint() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rlclint"))
}

fn write_temp(name: &str, text: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rlclint-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create");
    f.write_all(text.as_bytes()).expect("write");
    path
}

#[test]
fn figure2_produces_the_paper_message_and_nonzero_exit() {
    let path = write_temp(
        "sample.c",
        "extern char *gname;\n\nvoid setName(/*@null@*/ char *pname)\n{\n  gname = pname;\n}\n",
    );
    let out = rlclint().arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Function returns with non-null global gname referencing null storage"),
        "{stdout}"
    );
    assert!(stdout.contains("Storage gname may become null"), "{stdout}");
    assert!(stdout.contains("1 code warning"), "{stdout}");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn clean_file_exits_zero() {
    let path =
        write_temp("clean.c", "void f(void)\n{\n  char *p = (char *) malloc(8);\n  free(p);\n}\n");
    let out = rlclint().arg(&path).output().expect("runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn flags_change_behaviour() {
    let path = write_temp("leak.c", "void f(void)\n{\n  char *p = (char *) malloc(8);\n}\n");
    let plain = rlclint().arg(&path).output().expect("runs");
    assert_eq!(plain.status.code(), Some(1));
    let relaxed = rlclint().arg("-mustfree").arg(&path).output().expect("runs");
    assert_eq!(relaxed.status.code(), Some(0), "{}", String::from_utf8_lossy(&relaxed.stdout));
    let gc = rlclint().arg("+gcmode").arg(&path).output().expect("runs");
    assert_eq!(gc.status.code(), Some(0));
}

/// Parses `stdout` as one JSON array of diagnostic objects.
fn diagnostics(stdout: &str) -> Vec<Json> {
    match json::parse(stdout) {
        Ok(Json::Arr(items)) => items,
        other => panic!("expected a JSON array, got {other:?}: {stdout}"),
    }
}

#[test]
fn json_output_is_machine_readable() {
    let path = write_temp("j.c", "int deref(/*@null@*/ int *p) { return *p; }\n");
    let out = rlclint().arg("--json").arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let arr = diagnostics(&stdout);
    assert_eq!(arr.len(), 1);
    assert_eq!(arr[0].get("kind").and_then(Json::as_str), Some("nullderef"));
    assert_eq!(
        arr[0].get("cwe").and_then(Json::as_usize),
        Some(476),
        "diagnostics must carry their CWE id: {stdout}"
    );
}

#[test]
fn json_output_tags_the_new_classes_with_cwe_ids() {
    let path = write_temp(
        "cwe.c",
        "int run(void)\n{\n  int *tiny = (int *) malloc(3);\n  assert(tiny != NULL);\n  \
         tiny[4] = 1;\n  free(tiny);\n  return 0;\n}\n",
    );
    let out = rlclint().arg("--json").arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let arr = diagnostics(&stdout);
    assert_eq!(arr.len(), 1, "{stdout}");
    assert_eq!(arr[0].get("kind").and_then(Json::as_str), Some("boundsindex"));
    assert_eq!(arr[0].get("cwe").and_then(Json::as_usize), Some(125));
}

#[test]
fn stats_reports_per_cwe_counts() {
    let path = write_temp(
        "cwestats.c",
        "void f(void)\n{\n  char *g = (char *) malloc(4);\n  assert(g != NULL);\n  \
         g = (char *) realloc(g, 8);\n}\n",
    );
    let out = rlclint().arg("--stats").arg(&path).output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // realloclost plus the lost block's mustfree, both CWE-401.
    assert!(stderr.contains("warnings by CWE: CWE-401: 2"), "{stderr}");
}

#[test]
fn incremental_cache_persists_and_reports_stats() {
    let path = write_temp(
        "incr.c",
        "extern char *gname;\n\nvoid setName(/*@null@*/ char *pname)\n{\n  gname = pname;\n}\n",
    );
    let cache_dir = std::env::temp_dir().join(format!("rlclint-incr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let cold = rlclint()
        .arg("--incremental")
        .arg(&cache_dir)
        .arg("--stats")
        .arg(&path)
        .output()
        .expect("runs");
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(cold_err.contains("cache: 0 hits, 1 misses"), "{cold_err}");
    assert!(cache_dir.join("cache.bin").exists());

    // Second process: loads the disk cache, hits, and prints byte-identical
    // diagnostics.
    let warm = rlclint()
        .arg("--incremental")
        .arg(&cache_dir)
        .arg("--stats")
        .arg(&path)
        .output()
        .expect("runs");
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(warm_err.contains("cache: 1 hits, 0 misses"), "{warm_err}");
    assert_eq!(cold.stdout, warm.stdout);
    assert_eq!(cold.status.code(), warm.status.code());
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn stats_without_incremental_reports_counters() {
    let path =
        write_temp("st.c", "void f(void)\n{\n  char *p = (char *) malloc(8);\n  free(p);\n}\n");
    let out = rlclint().arg("--stats").arg(&path).output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cache: 0 hits, 1 misses"), "{stderr}");
    assert_eq!(out.status.code(), Some(0));
}

/// `--stats --json` writes exactly one JSON object to stderr, and the cache
/// counters travel inside it rather than on a text line of their own.
#[test]
fn stats_json_is_one_json_object_on_stderr() {
    let path = write_temp(
        "stjson.c",
        "void f(void)\n{\n  char *p = (char *) malloc(8);\n  *p = 1;\n  free(p);\n}\n",
    );
    let out = rlclint().args(["--stats", "--json"]).arg(&path).output().expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let v = json::parse(&stderr)
        .unwrap_or_else(|e| panic!("stderr is not one JSON value: {e}\n{stderr}"));
    assert_eq!(v.get("cache_misses").and_then(Json::as_usize), Some(1), "{stderr}");
    assert!(v.get("substrate").is_some(), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

#[test]
fn emit_lib_strips_bodies() {
    let path = write_temp(
        "mod.c",
        "/*@only@*/ char *make(void)\n{\n  char *p = (char *) malloc(4);\n  if (p == NULL) { exit(1); }\n  *p = 'x';\n  return p;\n}\n",
    );
    let out = rlclint().arg("--emit-lib").arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("/*@only@*/"), "{stdout}");
    assert!(!stdout.contains("malloc(4)"), "{stdout}");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn unknown_flag_is_reported() {
    let out = rlclint().arg("+nosuchflag").arg("x.c").output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn run_mode_executes_the_program() {
    let path = write_temp(
        "hello.c",
        "int main_entry(void)\n{\n  printf(\"hi %d\\n\", 41 + 1);\n  return 0;\n}\n",
    );
    let out = rlclint().arg("--run").arg("main_entry").arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hi 42"), "{stdout}");
}

#[test]
fn suppression_counted_in_summary() {
    let path = write_temp("sup.c", "void f(void)\n{\n  /*@i@*/ char *p = (char *) malloc(8);\n}\n");
    let out = rlclint().arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(1 suppressed)"), "{stdout}");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn infer_reports_recovered_annotations_as_a_diff() {
    let path =
        write_temp("inf.c", "char *mk(void)\n{\n  char *p = (char *) malloc(8);\n  return p;\n}\n");
    let out = rlclint().arg("--infer").arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("+/*@only@*/"), "{stdout}");
    assert!(stdout.contains("annotations inferred"), "{stdout}");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn infer_json_lists_annotations() {
    let path = write_temp(
        "infj.c",
        "char *mk2(void)\n{\n  char *p = (char *) malloc(8);\n  return p;\n}\n",
    );
    let out = rlclint().arg("--infer").arg("--json").arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"annotations\""), "{stdout}");
    assert!(stdout.contains("\"target\": \"mk2: return\""), "{stdout}");
    assert!(stdout.contains("\"annot\": \"only\""), "{stdout}");
    let parsed = json::parse(&stdout).expect("valid json");
    assert!(matches!(parsed.get("annotations"), Some(Json::Arr(a)) if !a.is_empty()));
}

/// A control character in a file name must be escaped in the `loc` of the
/// `--infer --json` report, not printed raw (which is invalid JSON).
#[test]
fn infer_json_escapes_control_characters_in_file_names() {
    let path = write_temp(
        "a\tb.c",
        "char *mk4(void)\n{\n  char *p = (char *) malloc(8);\n  return p;\n}\n",
    );
    let out = rlclint().arg("--infer").arg("--json").arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains('\t'), "raw tab in the report: {stdout:?}");
    let parsed = json::parse(&stdout).unwrap_or_else(|e| panic!("invalid json ({e}): {stdout}"));
    let Some(Json::Arr(placed)) = parsed.get("annotations") else { panic!("{stdout}") };
    let loc = placed[0].get("loc").and_then(Json::as_str).expect("a located annotation");
    assert!(loc.contains("a\tb.c:"), "{loc:?}");
}

#[test]
fn infer_apply_rewrites_the_file_in_place() {
    let path = write_temp(
        "infa.c",
        "char *mk3(void)\n{\n  char *p = (char *) malloc(8);\n\
         \u{20} if (p == NULL) { exit(1); }\n  *p = 'x';\n  return p;\n}\n\
         void use3(void)\n{\n  char *q = mk3();\n  free(q);\n}\n",
    );
    let before = rlclint().arg(&path).output().expect("runs");
    assert_eq!(before.status.code(), Some(1), "ownership anomalies before annotation");

    let out = rlclint().arg("--infer-apply").arg(&path).arg(&path).output().expect("runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let rewritten = std::fs::read_to_string(&path).expect("read back");
    assert!(rewritten.contains("/*@only@*/"), "{rewritten}");

    // The annotated program makes the transfer explicit: the caller now
    // owns (and frees) the result, so re-checking is clean.
    let after = rlclint().arg(&path).output().expect("runs");
    assert_eq!(after.status.code(), Some(0), "stdout: {}", String::from_utf8_lossy(&after.stdout));
}

#[test]
fn infer_flag_conflicts_are_usage_errors() {
    let path = write_temp("confl.c", "int f(void) { return 0; }\n");

    let a = rlclint().arg("--infer").arg("--emit-lib").arg(&path).output().expect("runs");
    assert_eq!(a.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&a.stderr).contains("cannot be combined with --emit-lib"),
        "{}",
        String::from_utf8_lossy(&a.stderr)
    );

    let b =
        rlclint().arg("--infer-apply").arg(&path).arg("--json").arg(&path).output().expect("runs");
    assert_eq!(b.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&b.stderr).contains("cannot be combined with --json"),
        "{}",
        String::from_utf8_lossy(&b.stderr)
    );

    let c = rlclint().arg("--infer-apply").arg("no-such-file.c").arg(&path).output().expect("runs");
    assert_eq!(c.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&c.stderr).contains("not among the checked .c files"),
        "{}",
        String::from_utf8_lossy(&c.stderr)
    );
}

#[test]
fn pathological_inputs_never_abort() {
    // Every fixture under tests/pathological/ is designed to break the
    // front end in a different way (unterminated comment, 10k-deep nesting,
    // mid-token truncation, conflicting typedefs). The binary must exit
    // normally — never by signal or abort — and still produce output.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/pathological");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("fixture dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|e| e != "c") {
            continue;
        }
        seen += 1;
        let out = rlclint().arg("--json").arg(&path).output().expect("runs");
        assert!(
            out.status.code().is_some(),
            "{}: killed by signal instead of exiting",
            path.display()
        );
        assert!(
            matches!(out.status.code(), Some(0..=3)),
            "{}: unexpected exit {:?}",
            path.display(),
            out.status.code()
        );
        assert!(!out.stdout.is_empty(), "{}: no output produced", path.display());
        diagnostics(&String::from_utf8_lossy(&out.stdout));
    }
    assert!(seen >= 4, "expected at least 4 pathological fixtures, found {seen}");
}

#[test]
fn broken_file_in_a_batch_still_reports_the_other_files() {
    let bad = write_temp("bad_batch.c", "void broken(void) { return }\n");
    let good = write_temp(
        "good_batch.c",
        "extern char *gname;\n\nvoid setName(/*@null@*/ char *pname)\n{\n  gname = pname;\n}\n",
    );
    let out = rlclint().arg(&bad).arg(&good).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Parse error:"), "{stdout}");
    assert!(
        stdout.contains("Function returns with non-null global gname referencing null storage"),
        "the good file must still be checked: {stdout}"
    );
    assert_eq!(out.status.code(), Some(1), "{stdout}");
}

#[test]
fn injected_checker_panic_reports_ice_and_exit_3() {
    let path = write_temp(
        "icefn.c",
        "void victim(void)\n{\n  int x; x = 1;\n}\n\
         void bystander(void)\n{\n  char *p = (char *) malloc(8);\n}\n",
    );
    let out = rlclint().env("RLCLINT_DEBUG_PANIC_FN", "victim").arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Internal checker error in function victim (please report)"),
        "{stdout}"
    );
    // The other function's real diagnostic survives the ICE.
    assert!(stdout.contains("Fresh storage p not released"), "{stdout}");
    assert_eq!(out.status.code(), Some(3), "{stdout}");

    // The same run across worker counts is byte-identical.
    let one = rlclint()
        .env("RLCLINT_DEBUG_PANIC_FN", "victim")
        .args(["--jobs", "1"])
        .arg(&path)
        .output()
        .expect("runs");
    let four = rlclint()
        .env("RLCLINT_DEBUG_PANIC_FN", "victim")
        .args(["--jobs", "4"])
        .arg(&path)
        .output()
        .expect("runs");
    assert_eq!(one.stdout, four.stdout, "ICE output must be jobs-invariant");
    assert_eq!(one.status.code(), four.status.code());
}

#[test]
fn max_steps_budget_degrades_instead_of_hanging() {
    let path = write_temp(
        "budget.c",
        "void heavy(int v)\n{\n  int a; a = v;\n  a = a + 1;\n  a = a + 2;\n  a = a + 3;\n}\n",
    );
    let out = rlclint().args(["--max-steps", "2"]).arg(&path).output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Analysis budget exceeded in function heavy"), "{stdout}");
    assert_eq!(out.status.code(), Some(1), "budget exhaustion is a warning, not an ICE");

    let bad = rlclint().args(["--max-steps", "zero"]).arg(&path).output().expect("runs");
    assert_eq!(bad.status.code(), Some(2));
}

#[test]
fn multi_file_database_from_disk() {
    // The full section-6 database, written to disk with real #include
    // resolution, checked through the binary at two stages.
    use lclint_corpus::database::{database_roots, database_sources, DbStage};
    let dir = std::env::temp_dir().join(format!("rlclint-db-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");

    // Final stage: clean, exit 0.
    for (name, text) in database_sources(&DbStage::final_stage()) {
        std::fs::write(dir.join(&name), text).expect("write");
    }
    let mut cmd = rlclint();
    cmd.current_dir(&dir);
    for root in database_roots() {
        cmd.arg(root);
    }
    for (name, _) in database_sources(&DbStage::final_stage()) {
        if name.ends_with(".h") {
            cmd.arg(name);
        }
    }
    let out = cmd.output().expect("runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    // Stage C: the seven allocation anomalies.
    for (name, text) in database_sources(&DbStage::stage_c()) {
        std::fs::write(dir.join(&name), text).expect("write");
    }
    let mut cmd = rlclint();
    cmd.current_dir(&dir);
    for root in database_roots() {
        cmd.arg(root);
    }
    for (name, _) in database_sources(&DbStage::stage_c()) {
        if name.ends_with(".h") {
            cmd.arg(name);
        }
    }
    let out = cmd.output().expect("runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stdout.contains("Implicitly temp storage c passed as only param: free (c)"),
        "{stdout}"
    );
}
