//! End-to-end CLI contract of the `repro` binary, negative paths included:
//! unknown experiments and malformed flags must exit nonzero with a named
//! error on stderr — never a panic backtrace — and must not write output.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp_out(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("figlut-cli-test-{tag}"))
}

#[test]
fn list_names_every_experiment_and_exits_zero() {
    let out = repro().arg("--list").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for id in figlut_bench::EXPERIMENTS {
        assert!(stdout.lines().any(|l| l == id), "--list lacks {id}");
    }
    assert!(stdout.lines().any(|l| l == "calibration"));
}

#[test]
fn unknown_experiment_exits_nonzero_with_named_error() {
    let dir = tmp_out("unknown-exp");
    let out = repro()
        .args(["--out-dir", dir.to_str().unwrap(), "fig99"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("unknown experiment 'fig99'"),
        "stderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "unknown id must not panic: {stderr}"
    );
    assert!(
        stderr.contains("ext-serving"),
        "error must list the known ids: {stderr}"
    );
}

#[test]
fn unknown_experiment_after_known_one_still_fails() {
    // The known experiment runs (its CSV lands), then the bad id stops the
    // process with the named error — no silent partial success.
    let dir = tmp_out("mixed-exp");
    let out = repro()
        .args(["--out-dir", dir.to_str().unwrap(), "table1", "nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown experiment 'nope'"), "{stderr}");
    assert!(
        dir.join("table1.csv").exists(),
        "known id before the bad one must still run"
    );
}

#[test]
fn unknown_flag_exits_nonzero() {
    let out = repro().arg("--frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown flag '--frobnicate'"), "{stderr}");
}

#[test]
fn bad_thread_count_exits_nonzero() {
    for bad in ["0", "lots"] {
        let out = repro().args(["--threads", bad, "table1"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "--threads {bad}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("--threads needs a positive integer"),
            "{stderr}"
        );
    }
}

#[test]
fn analyze_without_files_exits_nonzero() {
    let out = repro().arg("analyze").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("analyze needs at least one trace file"),
        "{stderr}"
    );
}

#[test]
fn analyze_overflowing_trace_exits_one_without_panic() {
    let dir = tmp_out("analyze-overflow");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("overflow.jsonl");
    // batch = dur = 2^53: exact JSON integers whose product overflows u64.
    let span = r#"{"type":"span","name":"Decode","run":0,"ts":0,"dur":9007199254740992,"args":{"batch":9007199254740992}}"#;
    std::fs::write(&path, format!("{span}\n")).unwrap();
    let out = repro()
        .args(["analyze", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("overflows u64"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
