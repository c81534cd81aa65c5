//! The committed policy files: `policies/*.json`.
//!
//! The whole scenario configuration — detector thresholds and switches,
//! branding threshold, reward point values, plus the deployment
//! parameters — serializes to one JSON file, so a bench experiment can
//! sweep admission policies without recompiling. These tests pin
//! `policies/default.json` to `ServerConfig::default()` — drift in
//! either direction (a default changed in code, or the file edited by
//! hand) fails loudly — and hold every committed file to exactly the
//! keys the config structs read, since unknown keys load silently.
//!
//! Regenerate after an intentional default change with:
//!
//! ```text
//! LBSN_POLICY_WRITE=1 cargo test -p lbsn-server --test policy_file
//! ```

use std::path::PathBuf;

use lbsn_server::{PolicyConfig, ServerConfig};

fn policy_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../policies")
}

fn policy_path() -> PathBuf {
    policy_dir().join("default.json")
}

#[test]
fn committed_default_policy_round_trips() {
    let path = policy_path();
    if std::env::var_os("LBSN_POLICY_WRITE").is_some() {
        let json = serde_json::to_string_pretty(&ServerConfig::default()).unwrap();
        std::fs::write(&path, json + "\n").unwrap();
        panic!("wrote {} — rerun without LBSN_POLICY_WRITE", path.display());
    }
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let parsed: ServerConfig = serde_json::from_str(&raw).unwrap();
    assert_eq!(
        parsed,
        ServerConfig::default(),
        "policies/default.json drifted from ServerConfig::default() — \
         regenerate with LBSN_POLICY_WRITE=1 if the change is intentional"
    );
    // And back: serializing the defaults reproduces the committed file
    // value-for-value.
    let reserialized = serde_json::to_value(&parsed).unwrap();
    let from_default = serde_json::to_value(&ServerConfig::default()).unwrap();
    assert_eq!(reserialized, from_default);
}

#[test]
fn committed_policy_files_carry_only_keys_the_config_reads() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(policy_dir())
        .expect("policies/ is committed")
        .map(|entry| entry.expect("readable policies/ entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no policies/*.json found");
    for path in files {
        let raw = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let file: serde_json::Value = serde_json::from_str(&raw).unwrap();
        let parsed: ServerConfig = serde_json::from_str(&raw)
            .unwrap_or_else(|e| panic!("{} does not load: {e}", path.display()));
        let reserialized: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&parsed).unwrap()).unwrap();
        assert_eq!(
            file,
            reserialized,
            "{} carries keys or values the config does not read back",
            path.display()
        );
    }
}

#[test]
fn policy_config_alone_round_trips() {
    let policy = PolicyConfig::default();
    let json = serde_json::to_string(&policy).unwrap();
    let back: PolicyConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back, policy);
}

#[test]
fn parsed_policy_drives_a_real_server() {
    use lbsn_geo::GeoPoint;
    use lbsn_server::{CheckinRequest, CheckinSource, LbsnServer, UserSpec, VenueSpec};
    use lbsn_sim::SimClock;

    let raw = std::fs::read_to_string(policy_path()).unwrap();
    let config: ServerConfig = serde_json::from_str(&raw).unwrap();
    let server = LbsnServer::new(SimClock::new(), config);
    let here = GeoPoint::new(35.0844, -106.6504).unwrap();
    let venue = server.register_venue(VenueSpec::new("Cafe", here));
    let user = server.register_user(UserSpec::anonymous());
    let out = server
        .check_in(&CheckinRequest {
            user,
            venue,
            reported_location: here,
            source: CheckinSource::MobileApp,
        })
        .unwrap();
    assert!(out.rewarded());
    assert_eq!(out.points, 12, "default point schedule from the file");
}
