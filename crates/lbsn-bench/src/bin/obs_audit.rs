//! Answers "why was this account branded?" from audit-plane dumps.
//!
//! ```text
//! cargo run -p lbsn-bench --release --bin obs-audit -- \
//!     why 4711 target/experiments/metrics/E13.json
//! cargo run -p lbsn-bench --release --bin obs-audit -- \
//!     top-offenders target/experiments/audit/E13.jsonl [limit]
//! cargo run -p lbsn-bench --release --bin obs-audit -- \
//!     reason-histogram target/experiments/audit/E13.jsonl
//! ```
//!
//! Input may be a full metrics snapshot or a decision JSONL dump; the
//! format is sniffed. Exits 0 when the query was answered, 1 when the
//! corpus holds no answer (unknown user, no captured records), 2 on
//! usage or parse errors — including a snapshot of any schema version
//! but the one this build reads.

use std::process::ExitCode;

use lbsn_bench::obsaudit::{
    load_audit_file, render_reason_histogram, render_top_offenders, render_why,
};

const USAGE: &str = "usage: obs-audit why <user-id> <snapshot.json|dump.jsonl>\n\
                     \u{20}      obs-audit top-offenders <snapshot.json|dump.jsonl> [limit]\n\
                     \u{20}      obs-audit reason-histogram <snapshot.json|dump.jsonl>";

/// `Ok(Some(markdown))` answers, `Ok(None)` means the corpus holds no
/// answer, `Err` is a usage/parse error.
fn run(args: &[String]) -> Result<Option<String>, String> {
    let command = args.first().map(String::as_str).ok_or(USAGE)?;
    match command {
        "why" => {
            let [user, path] = &args[1..] else {
                return Err(USAGE.to_string());
            };
            let user: u64 = user
                .parse()
                .map_err(|e| format!("bad user id {user:?}: {e}"))?;
            let data = load_audit_file(path)?;
            Ok(render_why(&data, user))
        }
        "top-offenders" => {
            let (path, limit) = match &args[1..] {
                [path] => (path, 10),
                [path, limit] => (
                    path,
                    limit
                        .parse()
                        .map_err(|e| format!("bad limit {limit:?}: {e}"))?,
                ),
                _ => return Err(USAGE.to_string()),
            };
            let data = load_audit_file(path)?;
            Ok(render_top_offenders(&data, limit))
        }
        "reason-histogram" => {
            let [path] = &args[1..] else {
                return Err(USAGE.to_string());
            };
            let data = load_audit_file(path)?;
            Ok(render_reason_histogram(&data))
        }
        "--help" | "-h" => Err(USAGE.to_string()),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(Some(answer)) => {
            println!("{answer}");
            ExitCode::SUCCESS
        }
        Ok(None) => {
            eprintln!("obs-audit: no captured decisions answer this query");
            ExitCode::from(1)
        }
        Err(msg) => {
            eprintln!("obs-audit: {msg}");
            ExitCode::from(2)
        }
    }
}
