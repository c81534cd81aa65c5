//! Forensics queries over the decision audit plane — the library
//! behind the `obs-audit` binary.
//!
//! Aggregate counters answer *how many*; this module answers *why*.
//! Input is either a full observability [`Snapshot`] (it carries
//! retained decision records and per-account timelines) or a
//! JSONL dump of [`DecisionRecord`]s as written by the experiments
//! binary under `target/experiments/audit/E*.jsonl`. Three queries:
//!
//! * `why <user-id>` — the account's evidence timeline plus its most
//!   recent negative decision, rendered with the values each detector
//!   compared and the virtual time of the terminal decision;
//! * `top-offenders` — accounts ranked by negative decisions;
//! * `reason-histogram` — terminal-outcome reason slugs by frequency.

use std::collections::BTreeMap;

use lbsn_obs::{fold_records, AccountForensics, DecisionRecord, Snapshot};
use lbsn_sim::Timestamp;

/// Where a parsed audit corpus came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditSource {
    /// A full observability snapshot.
    Snapshot,
    /// A JSONL dump of decision records, one per line.
    Jsonl,
}

/// A parsed audit corpus: retained decision records plus per-account
/// timelines (authoritative from the snapshot when present — live-fold
/// timelines survive ring eviction — otherwise rebuilt from the
/// records).
#[derive(Debug, Clone)]
pub struct AuditData {
    /// Retained decision records, ascending by capture sequence.
    pub decisions: Vec<DecisionRecord>,
    /// Per-account evidence timelines, keyed by user id.
    pub accounts: BTreeMap<u64, AccountForensics>,
    /// What kind of document the corpus was parsed from.
    pub source: AuditSource,
}

/// Parses `text` as a snapshot when it is one JSON object with a
/// `counters` field (every snapshot version has one), else as a
/// decision-record JSONL dump. `label` names the input in error
/// messages.
///
/// # Errors
///
/// When the text is a snapshot this build cannot read (another schema
/// version, a missing field) or is not a JSONL dump of records either.
pub fn parse_audit_input(text: &str, label: &str) -> Result<AuditData, String> {
    let is_snapshot = serde_json::from_str::<serde_json::Value>(text).is_ok_and(|v| {
        v.as_object()
            .is_some_and(|obj| obj.get("counters").is_some())
    });
    if is_snapshot {
        let snap = Snapshot::from_json(text).map_err(|e| format!("cannot parse {label}: {e}"))?;
        let accounts = if snap.account_forensics.is_empty() {
            fold_records(&snap.decisions)
        } else {
            snap.account_forensics
                .iter()
                .map(|a| (a.user, a.clone()))
                .collect()
        };
        return Ok(AuditData {
            decisions: snap.decisions,
            accounts,
            source: AuditSource::Snapshot,
        });
    }
    let mut decisions = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let record: DecisionRecord = serde_json::from_str(line).map_err(|e| {
            format!(
                "{label} is neither a metrics snapshot nor a decision JSONL dump \
                 (line {}: {e})",
                i + 1
            )
        })?;
        decisions.push(record);
    }
    decisions.sort_by_key(|r| r.seq);
    let accounts = fold_records(&decisions);
    Ok(AuditData {
        decisions,
        accounts,
        source: AuditSource::Jsonl,
    })
}

/// Reads and parses one audit input file.
///
/// # Errors
///
/// When the file cannot be read or [`parse_audit_input`] rejects it.
pub fn load_audit_file(path: &str) -> Result<AuditData, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_audit_input(&text, path)
}

fn vt(secs: u64) -> Timestamp {
    Timestamp(secs)
}

fn render_record(record: &DecisionRecord) -> String {
    let mut out = format!(
        "terminal decision seq {} — `{}` at {} (user {}, venue {})\n\n",
        record.seq,
        record.outcome,
        vt(record.at_secs),
        record.user,
        record.venue,
    );
    // Only head-sampled decisions are timed; any other carries zeros,
    // which must not read as free stages.
    let timed = record.stage_ns.is_timed();
    if !record.detectors.is_empty() {
        out.push_str(
            "| detector | verdict | observed | threshold | unit | cost ns |\n\
             |---|---|---:|---:|---|---:|\n",
        );
        for d in &record.detectors {
            let verdict = if d.fired {
                format!("**fired** ({})", d.flag)
            } else {
                "passed".to_string()
            };
            let cost = if timed {
                d.elapsed_ns.to_string()
            } else {
                "untimed".to_string()
            };
            out.push_str(&format!(
                "| `{}` | {} | {} | {} | {} | {} |\n",
                d.detector, verdict, d.observed, d.threshold, d.unit, cost,
            ));
        }
        out.push('\n');
    }
    if !record.votes.is_empty() {
        out.push_str("| verifier | vote | evidence |\n|---|---|---|\n");
        for v in &record.votes {
            out.push_str(&format!(
                "| `{}` | {} | {} |\n",
                v.verifier, v.vote, v.evidence,
            ));
        }
        out.push('\n');
    }
    let ns = &record.stage_ns;
    if timed {
        out.push_str(&format!(
            "stage ns: verify {} / detect {} / record {} / rewards {} / total {}\n",
            ns.verify, ns.detect, ns.record, ns.rewards, ns.total,
        ));
    } else {
        out.push_str("stage ns: untimed (not head-sampled)\n");
    }
    out
}

/// Renders the `why <user-id>` answer: the account's evidence timeline
/// plus its most recent negative decision in full. `None` when the
/// corpus has no captured decisions for that user.
pub fn render_why(data: &AuditData, user: u64) -> Option<String> {
    let account = data.accounts.get(&user)?;
    let mut out = format!(
        "## why user {user} — {}\n\n",
        if account.branded {
            "BRANDED cheater"
        } else if account.flagged > 0 {
            "flagged"
        } else {
            "clean (no captured negatives)"
        }
    );
    out.push_str(&format!(
        "captured decisions: {} ({} accepted under 1-in-N sampling, {} negative — exact)\n",
        account.decisions, account.accepted, account.flagged,
    ));
    if let (Some(first), Some(last)) = (account.first_offense_secs, account.last_offense_secs) {
        out.push_str(&format!(
            "first offense {}, last offense {}\n",
            vt(first),
            vt(last)
        ));
    }
    if !account.attribution.is_empty() {
        out.push_str("\n| attributed to | negatives |\n|---|---:|\n");
        let mut rows: Vec<_> = account.attribution.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        for (name, count) in rows {
            out.push_str(&format!("| `{name}` | {count} |\n"));
        }
    }
    if let Some(record) = &account.last_negative {
        out.push('\n');
        out.push_str(&render_record(record));
    }
    Some(out)
}

/// One `top-offenders` row.
#[derive(Debug, Clone, PartialEq)]
pub struct OffenderRow {
    /// Raw user id.
    pub user: u64,
    /// Negative decisions (exact).
    pub flagged: u64,
    /// Whether the account crossed the branding threshold.
    pub branded: bool,
    /// The detector (or verifier stage) most often blamed.
    pub top_attribution: String,
}

/// Accounts with at least one negative decision, worst first: branded
/// accounts ahead of merely-flagged ones, then by negative count, then
/// by user id for determinism.
pub fn top_offenders(data: &AuditData, limit: usize) -> Vec<OffenderRow> {
    let mut rows: Vec<OffenderRow> = data
        .accounts
        .values()
        .filter(|a| a.flagged > 0)
        .map(|a| OffenderRow {
            user: a.user,
            flagged: a.flagged,
            branded: a.branded,
            top_attribution: a
                .attribution
                .iter()
                .max_by(|x, y| x.1.cmp(y.1).then(y.0.cmp(x.0)))
                .map(|(name, _)| name.clone())
                .unwrap_or_default(),
        })
        .collect();
    rows.sort_by(|a, b| {
        b.branded
            .cmp(&a.branded)
            .then(b.flagged.cmp(&a.flagged))
            .then(a.user.cmp(&b.user))
    });
    rows.truncate(limit);
    rows
}

/// Renders the `top-offenders` table. `None` when no account has a
/// captured negative decision.
pub fn render_top_offenders(data: &AuditData, limit: usize) -> Option<String> {
    let rows = top_offenders(data, limit);
    if rows.is_empty() {
        return None;
    }
    let mut out = format!(
        "## top offenders ({} of {} flagged accounts)\n\n\
         | user | negatives | branded | mostly blamed on |\n|---:|---:|---|---|\n",
        rows.len(),
        data.accounts.values().filter(|a| a.flagged > 0).count(),
    );
    for row in &rows {
        out.push_str(&format!(
            "| {} | {} | {} | `{}` |\n",
            row.user,
            row.flagged,
            if row.branded { "yes" } else { "no" },
            row.top_attribution,
        ));
    }
    Some(out)
}

/// Terminal-outcome reason slugs by frequency over the retained
/// decision records, descending.
pub fn reason_histogram(data: &AuditData) -> Vec<(String, u64)> {
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for record in &data.decisions {
        *counts.entry(record.outcome.as_str()).or_insert(0) += 1;
    }
    let mut rows: Vec<(String, u64)> = counts
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    rows
}

/// Renders the `reason-histogram` table. `None` when the corpus has no
/// retained decision records (timelines alone cannot rebuild it).
pub fn render_reason_histogram(data: &AuditData) -> Option<String> {
    let rows = reason_histogram(data);
    if rows.is_empty() {
        return None;
    }
    let total: u64 = rows.iter().map(|(_, c)| c).sum();
    let mut out = format!(
        "## reason histogram ({total} retained decision records)\n\n\
         | outcome | records | share |\n|---|---:|---:|\n"
    );
    for (reason, count) in &rows {
        out.push_str(&format!(
            "| `{reason}` | {count} | {:.1}% |\n",
            *count as f64 / total as f64 * 100.0,
        ));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsn_obs::{AuditConfig, DecisionBuilder, DecisionOutcome, Registry};
    use std::sync::Arc;

    /// A registry whose audit plane keeps every accept, with a branded
    /// rapid-fire cheater (user 7) and a sampled honest user (user 1).
    fn corpus_registry() -> Arc<Registry> {
        let registry = Arc::new(Registry::new());
        let plane = registry.audit_with_config(AuditConfig {
            capacity: 1024,
            stripes: 2,
            sample_every: 1,
        });
        let mut b = DecisionBuilder::new(1, 5, 60);
        b.verdict("gps-proximity", None, 12.0, 150.0, "m", 800);
        plane.finish(&b, DecisionOutcome::Accepted);
        for i in 0..3u64 {
            let mut b = DecisionBuilder::new(7, 9, 3_600 + i * 45);
            b.verdict("gps-proximity", None, 8.0, 150.0, "m", 700);
            b.verdict("rapid-fire", Some("rapid_fire"), 4.0, 4.0, "checkins", 300);
            b.total_ns(5_000);
            let outcome = if i == 2 {
                DecisionOutcome::Branded("rapid_fire")
            } else {
                DecisionOutcome::Rejected("rapid_fire")
            };
            plane.finish(&b, outcome);
        }
        registry
    }

    fn corpus() -> AuditData {
        let snap = corpus_registry().snapshot();
        parse_audit_input(&snap.to_json(), "test.json").unwrap()
    }

    #[test]
    fn snapshot_input_carries_decisions_and_timelines() {
        let data = corpus();
        assert_eq!(data.source, AuditSource::Snapshot);
        assert_eq!(data.decisions.len(), 4);
        assert_eq!(data.accounts.len(), 2);
        assert!(data.accounts[&7].branded);
    }

    #[test]
    fn jsonl_input_rebuilds_timelines() {
        let snap = corpus_registry().snapshot();
        let jsonl: String = snap
            .decisions
            .iter()
            .map(|r| serde_json::to_string(r).unwrap() + "\n")
            .collect();
        let data = parse_audit_input(&jsonl, "dump.jsonl").unwrap();
        assert_eq!(data.source, AuditSource::Jsonl);
        assert_eq!(data.decisions.len(), 4);
        assert_eq!(data.accounts[&7].flagged, 3);
        assert!(data.accounts[&7].branded);
        assert_eq!(data.accounts[&1].accepted, 1);
    }

    #[test]
    fn garbage_input_is_a_parse_error() {
        let err = parse_audit_input("not json at all", "x.json").unwrap_err();
        assert!(err.contains("x.json"), "{err}");
        assert!(err.contains("neither"), "{err}");
    }

    #[test]
    fn other_snapshot_schema_is_rejected() {
        let mut snap = corpus_registry().snapshot();
        for schema in [
            lbsn_obs::SNAPSHOT_SCHEMA_VERSION - 1,
            lbsn_obs::SNAPSHOT_SCHEMA_VERSION + 1,
        ] {
            snap.schema = schema;
            let err = parse_audit_input(&snap.to_json(), "other.json").unwrap_err();
            assert!(err.contains("other.json"), "{err}");
            assert!(err.contains(&format!("schema {schema},")), "{err}");
        }
        // A schema-3 document lacks the audit sections; it is still
        // refused by version, not read as a JSONL dump.
        let v3 = r#"{"schema": 3, "counters": {}, "gauges": {}, "histograms": {},
            "sketches": {}, "windows": {}, "shard_heat": [], "events": [], "spans": []}"#;
        let err = parse_audit_input(v3, "v3.json").unwrap_err();
        assert!(err.contains("schema 3,"), "{err}");
    }

    #[test]
    fn why_names_detector_thresholds_and_virtual_time() {
        let data = corpus();
        let why = render_why(&data, 7).unwrap();
        assert!(why.contains("BRANDED cheater"), "{why}");
        assert!(why.contains("`rapid-fire`"), "{why}");
        assert!(why.contains("**fired** (rapid_fire)"), "{why}");
        // Observed vs threshold values the detector compared.
        assert!(why.contains("| 4 | 4 | checkins |"), "{why}");
        // Virtual time of the terminal decision: 3600 + 2*45 = d0+01:01:30.
        assert!(why.contains("`branded.rapid_fire` at d0+01:01:30"), "{why}");
        assert!(why.contains("first offense d0+01:00:00"), "{why}");
        // The non-firing detector still shows its compared values.
        assert!(why.contains("| `gps-proximity` | passed |"), "{why}");
    }

    #[test]
    fn why_marks_an_untimed_decision() {
        let data = corpus();
        let why = render_why(&data, 7).unwrap();
        assert!(why.contains("| checkins | 300 |"), "{why}");
        assert!(why.contains("total 5000"), "{why}");
        assert!(!why.contains("untimed"), "{why}");

        // A decision that was not head-sampled carries zero durations.
        let registry = Registry::new();
        let plane = registry.audit_with_config(AuditConfig {
            capacity: 16,
            stripes: 1,
            sample_every: 1,
        });
        let mut b = DecisionBuilder::new(3, 5, 60);
        b.verdict("gps-proximity", Some("gps_mismatch"), 9e5, 150.0, "m", 0);
        plane.finish(&b, DecisionOutcome::Rejected("gps_mismatch"));
        let data = parse_audit_input(&registry.snapshot().to_json(), "u.json").unwrap();
        let why = render_why(&data, 3).unwrap();
        assert!(why.contains("| m | untimed |"), "{why}");
        assert!(
            why.contains("stage ns: untimed (not head-sampled)"),
            "{why}"
        );
        assert!(!why.contains("total 0"), "{why}");
    }

    #[test]
    fn why_unknown_user_is_none() {
        assert!(render_why(&corpus(), 999).is_none());
    }

    #[test]
    fn top_offenders_rank_branded_first() {
        let mut data = corpus();
        // Add a noisier but unbranded offender by hand.
        let mut extra = data.decisions[1].clone();
        extra.user = 50;
        extra.outcome = "rejected.gps_mismatch".to_string();
        for _ in 0..5 {
            data.accounts
                .entry(50)
                .or_insert_with(|| lbsn_obs::AccountForensics::new(50))
                .fold(&extra);
        }
        let rows = top_offenders(&data, 10);
        assert_eq!(rows[0].user, 7, "branded outranks higher counts");
        assert_eq!(rows[1].user, 50);
        assert_eq!(rows[0].top_attribution, "rapid-fire");
        let md = render_top_offenders(&data, 10).unwrap();
        assert!(md.contains("| 7 | 3 | yes | `rapid-fire` |"), "{md}");
        // The clean account never shows up.
        assert!(!md.contains("| 1 |"), "{md}");
    }

    #[test]
    fn reason_histogram_counts_outcomes() {
        let data = corpus();
        let rows = reason_histogram(&data);
        assert_eq!(
            rows,
            vec![
                ("rejected.rapid_fire".to_string(), 2),
                ("accepted".to_string(), 1),
                ("branded.rapid_fire".to_string(), 1),
            ]
        );
        let md = render_reason_histogram(&data).unwrap();
        assert!(md.contains("| `rejected.rapid_fire` | 2 | 50.0% |"), "{md}");
    }

    #[test]
    fn empty_corpus_renders_nothing() {
        let data = parse_audit_input(&Registry::new().snapshot().to_json(), "e.json").unwrap();
        assert!(render_top_offenders(&data, 10).is_none());
        assert!(render_reason_histogram(&data).is_none());
        assert!(render_why(&data, 1).is_none());
    }
}
