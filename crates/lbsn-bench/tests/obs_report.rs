//! End-to-end test of the `obs-report` binary: exit code 0 when SLOs
//! hold, 1 on a seeded breach, 2 on usage errors and on snapshots of
//! any schema but the current one.

use std::path::PathBuf;
use std::process::Command;

use lbsn_obs::{Registry, SloPolicy, SloRule};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_obs-report")
}

/// A snapshot that satisfies every rule of the default experiments
/// policy (fast check-ins, quiet crawler, healthy throughput).
fn healthy_snapshot_json() -> String {
    let registry = Registry::new();
    let checkin = registry.sketch("server.checkin.total");
    let fetch = registry.sketch("crawler.fetch");
    let lock_wait = registry.sketch("server.shard.lock_wait");
    let gps = registry.sketch("server.checkin.detector.gps_proximity.latency");
    for _ in 0..200 {
        checkin.record(1_000_000); // 1 ms
        fetch.record(40_000_000); // 40 ms
        lock_wait.record(2_000); // 2 µs
        gps.record(500); // 500 ns
    }
    registry.counter("server.checkin.accepted").add(200);
    registry.counter("crawler.store.users").add(200);
    registry.counter("crawler.fetch.pages").add(200);
    // Registered eagerly (at zero) by CrawlerMetrics, so the ratio rule
    // always has both sides on a real crawl.
    registry.counter("crawler.fetch.errors");
    registry
        .gauge("crawler.throughput.users_per_hour")
        .set(120_000.0);
    // Inside the GaugeMinMax band (200–4096); the rule fails closed on
    // a snapshot that never sampled memory.
    registry.gauge("server.mem.bytes_per_user").set(2_048.0);
    // Frontend rules: fast sojourns, nothing shed, submitted = decided.
    let sojourn = registry.sketch("server.frontend.sojourn");
    for _ in 0..200 {
        sojourn.record(2_000_000); // 2 ms
    }
    registry.counter("server.frontend.submitted").add(200);
    registry.counter("server.frontend.decided").add(200);
    registry.counter("server.frontend.shed");
    registry.snapshot().to_json()
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn healthy_run_exits_zero_and_prints_diff() {
    let dir = scratch_dir("obs-report-pass");
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(&old, healthy_snapshot_json()).unwrap();
    std::fs::write(&new, healthy_snapshot_json()).unwrap();

    let out = Command::new(bin()).args([&old, &new]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "expected exit 0, got {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("all SLOs hold"), "{stdout}");
    assert!(stdout.contains("server.checkin.total p99"), "{stdout}");
}

#[test]
fn seeded_breach_exits_one() {
    let dir = scratch_dir("obs-report-breach");
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(&old, healthy_snapshot_json()).unwrap();

    // Seed the regression the gate exists to catch: check-in p99
    // explodes past the 50 ms SLO.
    let registry = Registry::new();
    let checkin = registry.sketch("server.checkin.total");
    let fetch = registry.sketch("crawler.fetch");
    for _ in 0..200 {
        checkin.record(900_000_000); // 900 ms
        fetch.record(40_000_000);
    }
    registry.counter("server.checkin.accepted").add(200);
    registry.counter("crawler.store.users").add(200);
    registry.counter("crawler.fetch.pages").add(200);
    registry.counter("crawler.fetch.errors");
    registry
        .gauge("crawler.throughput.users_per_hour")
        .set(120_000.0);
    std::fs::write(&new, registry.snapshot().to_json()).unwrap();

    let out = Command::new(bin()).args([&old, &new]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("**BREACH**"), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("SLO breach"));
}

#[test]
fn explicit_policy_file_is_honoured() {
    let dir = scratch_dir("obs-report-policy");
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    let slo = dir.join("slo.json");
    std::fs::write(&old, healthy_snapshot_json()).unwrap();
    std::fs::write(&new, healthy_snapshot_json()).unwrap();
    let policy = SloPolicy {
        name: "impossible".to_string(),
        rules: vec![SloRule::CounterMin {
            metric: "server.checkin.accepted".to_string(),
            min: u64::MAX,
        }],
    };
    std::fs::write(&slo, policy.to_json()).unwrap();

    let out = Command::new(bin())
        .args([&old, &new, &slo, &slo])
        .output()
        .unwrap();
    // Four positionals: usage error first.
    assert_eq!(out.status.code(), Some(2));

    let out = Command::new(bin())
        .arg(&old)
        .arg(&new)
        .arg("--slo")
        .arg(&slo)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "impossible policy must breach");
}

#[test]
fn unreadable_snapshot_exits_two() {
    let dir = scratch_dir("obs-report-bad");
    let garbled = dir.join("garbled.json");
    std::fs::write(&garbled, "{ not json").unwrap();
    let out = Command::new(bin())
        .args([&garbled, &garbled])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot parse"));

    // Documents of other schemas are refused by version, whether they
    // would parse (schema 4 carries every current field plus `windows`)
    // or not (schema 3 lacks the audit sections).
    let healthy = dir.join("healthy.json");
    std::fs::write(&healthy, healthy_snapshot_json()).unwrap();
    let others = [
        (
            3,
            r#"{"schema": 3, "counters": {}, "gauges": {}, "histograms": {},
                "sketches": {}, "windows": {}, "shard_heat": [], "events": [],
                "spans": []}"#,
        ),
        (
            4,
            r#"{"schema": 4, "counters": {}, "gauges": {}, "histograms": {},
                "sketches": {}, "windows": {}, "shard_heat": [], "events": [],
                "spans": [], "decisions": [], "account_forensics": []}"#,
        ),
    ];
    for (seen, doc) in others {
        let old = dir.join(format!("v{seen}.json"));
        std::fs::write(&old, doc).unwrap();
        let out = Command::new(bin()).args([&old, &healthy]).output().unwrap();
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("schema {seen},")),
            "names the version seen: {stderr}"
        );
        let expected = format!("only schema {}", lbsn_obs::SNAPSHOT_SCHEMA_VERSION);
        assert!(
            stderr.contains(&expected),
            "names the version expected: {stderr}"
        );
    }
}
