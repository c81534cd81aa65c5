//! Diffs two observability snapshots and enforces SLOs.
//!
//! ```text
//! cargo run -p lbsn-bench --release --bin obs-report -- \
//!     baselines/bed-small.json target/experiments/metrics/E14.json \
//!     [--slo baselines/slo.json]
//! ```
//!
//! Prints a Markdown regression table (baseline vs new: counters,
//! gauges, p50/p95/p99) followed by the SLO verdict for the *new*
//! snapshot. Exits 0 when every SLO holds, 1 on any breach, 2 on usage
//! or parse errors — including a snapshot of any schema version but the
//! one this build reads — so CI can gate merges on
//! `target/experiments/metrics/` trajectories.

use std::process::ExitCode;

use lbsn_bench::obsreport::{default_policy, run_report};
use lbsn_obs::{SloPolicy, Snapshot};

fn load_snapshot(path: &str) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // A document of another schema was written under other rules:
    // `from_json` refuses it, a usage error (exit 2), not a gate verdict.
    Snapshot::from_json(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn run() -> Result<bool, String> {
    let mut positional: Vec<String> = Vec::new();
    let mut slo_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--slo" => {
                slo_path = Some(it.next().ok_or("missing value for --slo")?);
            }
            "--write-default-slo" => {
                // Regenerates the committed baseline policy
                // (baselines/slo.json) from code, so the two can't drift.
                let path = it.next().ok_or("missing value for --write-default-slo")?;
                std::fs::write(&path, default_policy().to_json())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!("wrote default SLO policy to {path}");
                return Ok(false);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: obs-report <baseline.json> <new.json> [--slo policy.json] \
                            | obs-report --write-default-slo <path>"
                        .to_string(),
                );
            }
            other if other.starts_with("--") => {
                return Err(format!(
                    "unknown flag {other} (supported: --slo --write-default-slo)"
                ));
            }
            _ => positional.push(arg),
        }
    }
    let [old_path, new_path] = positional.as_slice() else {
        return Err(format!(
            "expected exactly two snapshot paths, got {} \
             (usage: obs-report <baseline.json> <new.json> [--slo policy.json])",
            positional.len()
        ));
    };

    let old = load_snapshot(old_path)?;
    let new = load_snapshot(new_path)?;
    let policy = match &slo_path {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            SloPolicy::from_json(&text).map_err(|e| format!("cannot parse {path}: {e}"))?
        }
        None => default_policy(),
    };

    let report = run_report(&old, &new, &policy);
    println!("{}", report.markdown);
    Ok(report.breached())
}

fn main() -> ExitCode {
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => {
            eprintln!("obs-report: SLO breach");
            ExitCode::from(1)
        }
        Err(msg) => {
            eprintln!("obs-report: {msg}");
            ExitCode::from(2)
        }
    }
}
