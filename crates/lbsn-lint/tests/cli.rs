//! End-to-end tests of the `lbsn-lint` binary: exact rule ids,
//! `file:line` spans, and exit codes against the fixture trees — plus
//! the self-scan that keeps the real workspace clean (run as part of
//! the ordinary test suite, so `cargo test` alone catches a violation
//! even before CI's dedicated lint job does).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn lint(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lbsn-lint"))
        .arg("--deny-all")
        .args(["--root", &root.display().to_string()])
        .args(extra)
        .output()
        .expect("spawn lbsn-lint")
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn violations_fixture_reports_every_rule_with_exact_spans() {
    let out = lint(&fixture("violations"), &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    let expected = [
        "unregistered-metric-name: README.md:3: documentation cites `server.checkin.whoops`",
        "unregistered-metric-name: baselines/slo.json:4: SLO rule references \"server.checkin.nope\"",
        "no-std-sync: crates/lbsn-app/src/lib.rs:1:",
        "unregistered-metric-name: crates/lbsn-app/src/lib.rs:4: \"server.checkin.bogus\"",
        "no-unwrap-hot-path: crates/lbsn-server/src/server.rs:2:",
        "no-wall-clock: crates/lbsn-sim/src/lib.rs:2: Instant::now",
        "policy-field-missing: policies/broken.json:1: does not set `enable_gps` (DetectorConfig)",
    ];
    for needle in expected {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
    assert_eq!(
        stdout.lines().count(),
        expected.len(),
        "exactly one line per violation:\n{stdout}"
    );
    // The lint:allow'd unwrap on line 7 is suppressed: only one
    // no-unwrap finding in the whole tree.
    assert_eq!(stdout.matches("no-unwrap-hot-path").count(), 1);
}

#[test]
fn telemetry_record_path_is_a_hot_path() {
    let out = lint(&fixture("obs_unwrap"), &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    // The unwrap in the sketch's record path is flagged; the one in its
    // `#[cfg(test)]` module is not.
    assert!(
        stdout.contains("no-unwrap-hot-path: crates/lbsn-obs/src/sketch.rs:2:"),
        "{stdout}"
    );
    assert_eq!(stdout.matches("no-unwrap-hot-path").count(), 1, "{stdout}");
}

#[test]
fn clean_fixture_exits_zero() {
    let out = lint(&fixture("clean"), &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = lint(&fixture("clean"), &["--explode"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn closed_stdout_keeps_the_exit_code_without_panicking() {
    // `lbsn-lint --waivers | head -1` closes the pipe before the
    // inventory is written out; the run must not die of it.
    let (reader, writer) = std::io::pipe().expect("create pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_lbsn-lint"))
        .args([
            "--waivers",
            "--root",
            &fixture("violations").display().to_string(),
        ])
        .stdout(writer)
        .output()
        .expect("spawn lbsn-lint");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn missing_root_value_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_lbsn-lint"))
        .arg("--root")
        .output()
        .expect("spawn lbsn-lint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn json_format_emits_all_findings_including_waived() {
    let out = lint(&fixture("violations"), &["--format", "json"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "violations still fail in json mode"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON report");
    let serde_json::Value::Array(records) = parsed else {
        panic!("top level must be an array: {stdout}");
    };
    // Text mode prints 7 failing findings; JSON adds the waived unwrap.
    assert_eq!(records.len(), 8, "{stdout}");
    let field = |r: &serde_json::Value, k: &str| -> serde_json::Value {
        match r {
            serde_json::Value::Object(map) => map.get(k).expect("field present").clone(),
            _ => panic!("record must be an object"),
        }
    };
    let mut waived = 0;
    for r in &records {
        for k in ["rule", "file", "message"] {
            assert!(matches!(field(r, k), serde_json::Value::String(_)));
        }
        assert!(matches!(field(r, "line"), serde_json::Value::Number(_)));
        if field(r, "waived") == serde_json::Value::Bool(true) {
            waived += 1;
            assert_eq!(
                field(r, "rule"),
                serde_json::Value::String("no-unwrap-hot-path".to_string())
            );
            assert_eq!(
                field(r, "line"),
                serde_json::Value::Number(serde_json::Number::PosInt(7))
            );
        }
    }
    assert_eq!(waived, 1, "exactly the lint:allow'd unwrap is waived");
}

#[test]
fn waiver_baseline_matches_the_committed_inventory() {
    // `--waivers` over the real tree must reproduce
    // baselines/waivers.txt byte for byte: adding a lint:allow without
    // regenerating the baseline fails here, so every new waiver shows
    // up in review as a diff to a committed file.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let out = lint(&root, &["--waivers"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let committed = std::fs::read_to_string(root.join("baselines/waivers.txt"))
        .expect("baselines/waivers.txt is committed");
    assert_eq!(
        stdout, committed,
        "waiver inventory changed — regenerate with:\n  \
         cargo run -p lbsn-lint -- --waivers --root . > baselines/waivers.txt"
    );
}

#[test]
fn the_workspace_itself_is_clean() {
    // CARGO_MANIFEST_DIR = crates/lbsn-lint → repo root two levels up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let out = lint(&root, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "the committed tree must stay lint-clean:\n{stdout}"
    );
}
