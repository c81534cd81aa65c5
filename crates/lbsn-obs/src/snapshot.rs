//! Plain-data capture of a registry's state, serializable to JSON.
//!
//! # Schema versioning
//!
//! The snapshot JSON carries a `schema` field, and this build reads
//! exactly one version, [`SNAPSHOT_SCHEMA_VERSION`]: every field must be
//! present. Version 5 holds `counters`, `gauges`, `histograms` (count
//! values only), `sketches` (every duration), `shard_heat`, `events`,
//! `spans`, `decisions` and `account_forensics`. A document of any other
//! version is refused by `obs-report` and `obs-audit` (exit 2) instead
//! of being diffed or gated on fields this build does not share.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::audit::{AccountForensics, DecisionRecord};
use crate::span::SpanRecord;

/// The snapshot JSON schema version written by this build.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 5;

/// One histogram bucket: observations `<= le` (the last bucket has
/// `le == u64::MAX` and catches overflow).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketSnapshot {
    /// Inclusive upper bound.
    pub le: u64,
    /// Observations in this bucket.
    pub count: u64,
}

/// Captured state of one fixed-bucket histogram of counts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Cumulative-free per-bucket counts, ascending by bound.
    pub buckets: Vec<BucketSnapshot>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One non-empty log bucket of a quantile sketch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SketchBucket {
    /// Bucket index: holds values `v` with `gamma^(idx-1) < v <= gamma^idx`.
    pub idx: u32,
    /// Observations in this bucket.
    pub count: u64,
}

/// Captured state of one log-bucket quantile sketch (see
/// [`crate::QuantileSketch`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SketchSnapshot {
    /// Relative-error target of the sketch.
    pub alpha: f64,
    /// Bucket growth ratio, `(1 + alpha) / (1 - alpha)`.
    pub gamma: f64,
    /// Total observations (zeros included).
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Observations equal to zero.
    pub zero: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<SketchBucket>,
}

impl SketchSnapshot {
    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (0..=1). The estimate is within
    /// `alpha` relative error of the true rank value, clamped into
    /// `[min, max]` when that envelope is well formed. Total over any
    /// field values: a snapshot racing the first record, or an outside
    /// document, may carry `min > max`, and then the estimate stands
    /// unclamped.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.zero;
        if seen >= target {
            return 0;
        }
        for bucket in &self.buckets {
            seen = seen.saturating_add(bucket.count);
            if seen >= target {
                let est = 2.0 * self.gamma.powi(bucket.idx as i32) / (self.gamma + 1.0);
                let est = est.round() as u64;
                return if self.min <= self.max {
                    est.clamp(self.min, self.max)
                } else {
                    est
                };
            }
        }
        self.max
    }
}

/// One shard's contention-heatmap row: lock acquisitions,
/// how many waited, how long, and how many entities live there.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardHeatRow {
    /// Shard index within its family.
    pub shard: u32,
    /// Lock acquisitions (fast path + contended).
    pub ops: u64,
    /// Acquisitions that missed the try-lock fast path and waited.
    pub contended: u64,
    /// Total nanoseconds spent waiting across contended acquisitions.
    pub wait_total_ns: u64,
    /// Longest single wait, nanoseconds.
    pub wait_max_ns: u64,
    /// Resident entities in this shard at the last occupancy refresh.
    pub occupancy: u64,
}

impl ShardHeatRow {
    /// Mean wait per contended acquisition, nanoseconds (0 when
    /// nothing contended).
    pub fn mean_wait_ns(&self) -> f64 {
        if self.contended == 0 {
            0.0
        } else {
            self.wait_total_ns as f64 / self.contended as f64
        }
    }
}

/// One shard family's contention heatmap: a compact row
/// per shard index, in shard order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardHeatSnapshot {
    /// Family name (the registered `server.shard.heat.{family}` name).
    pub family: String,
    /// Per-shard rows, ascending by shard index.
    pub shards: Vec<ShardHeatRow>,
}

impl ShardHeatSnapshot {
    /// Hottest/coldest skew: max ops over min ops across the family's
    /// shards, with a 1-op floor on the denominator so a completely
    /// cold shard reads as a large finite skew instead of dividing by
    /// zero. 1.0 for an empty or untouched family.
    pub fn skew_ratio(&self) -> f64 {
        let max = self.shards.iter().map(|s| s.ops).max().unwrap_or(0);
        let min = self.shards.iter().map(|s| s.ops).min().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        max as f64 / min.max(1) as f64
    }

    /// Total acquisitions across the family.
    pub fn total_ops(&self) -> u64 {
        self.shards.iter().map(|s| s.ops).sum()
    }

    /// Total contended acquisitions across the family.
    pub fn total_contended(&self) -> u64 {
        self.shards.iter().map(|s| s.contended).sum()
    }
}

/// One structured event from the trace ring.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Global sequence number (gaps reveal ring evictions).
    pub seq: u64,
    /// Event name, `subsystem.event` style.
    pub name: String,
    /// Ordered key/value payload.
    pub fields: Vec<(String, String)>,
}

/// Full captured state of a [`crate::Registry`]: every counter, gauge,
/// histogram, and sketch by name, plus the retained event trace and
/// finished sampled spans.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Schema version of this document (see
    /// [`SNAPSHOT_SCHEMA_VERSION`]).
    pub schema: u32,
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, f64>,
    /// Count-valued histogram states by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Quantile-sketch states by metric name: every duration series.
    pub sketches: BTreeMap<String, SketchSnapshot>,
    /// Per-shard contention heatmaps, one entry per registered family,
    /// ascending by family name.
    pub shard_heat: Vec<ShardHeatSnapshot>,
    /// Retained events, oldest first.
    pub events: Vec<EventRecord>,
    /// Retained finished spans, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Retained wide admission records from the audit plane, ascending
    /// by capture sequence.
    pub decisions: Vec<DecisionRecord>,
    /// Per-account evidence timelines, ascending by user id.
    pub account_forensics: Vec<AccountForensics>,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            schema: SNAPSHOT_SCHEMA_VERSION,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            sketches: BTreeMap::new(),
            shard_heat: Vec::new(),
            events: Vec::new(),
            spans: Vec::new(),
            decisions: Vec::new(),
            account_forensics: Vec::new(),
        }
    }
}

impl Snapshot {
    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Parses a snapshot from JSON text.
    ///
    /// The `schema` field is read first: a document of any version but
    /// [`SNAPSHOT_SCHEMA_VERSION`] is refused with an error naming the
    /// version seen and the one expected, before any other field is
    /// looked at (a document without the field is schema 1). Its series
    /// were written under other rules, so diffing or gating on it would
    /// report false confidence. Otherwise every field must be present.
    ///
    /// # Errors
    ///
    /// Malformed JSON, another schema version, or a missing field.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let value: serde_json::Value = serde_json::from_str(json)?;
        let schema = match value.as_object().and_then(|obj| obj.get("schema")) {
            Some(v) => u32::deserialize(v)?,
            None => 1,
        };
        if schema != SNAPSHOT_SCHEMA_VERSION {
            return Err(serde_json::Error::custom(format!(
                "snapshot schema {schema}, but this build reads only schema \
                 {SNAPSHOT_SCHEMA_VERSION}; regenerate the snapshot with, or rebuild \
                 this tool from, the same tree"
            )));
        }
        serde_json::from_value(value)
    }

    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, 0 when absent.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Estimates the `q`-quantile of the duration sketch `name`; `None`
    /// when no such sketch exists.
    pub fn quantile_ns(&self, name: &str, q: f64) -> Option<u64> {
        self.sketches.get(name).map(|sketch| sketch.quantile(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let mut snapshot = Snapshot::default();
        snapshot.counters.insert("a.b".to_string(), 7);
        snapshot.gauges.insert("a.g".to_string(), 12.25);
        snapshot.histograms.insert(
            "a.h".to_string(),
            HistogramSnapshot {
                count: 2,
                sum: 30,
                min: 10,
                max: 20,
                buckets: vec![
                    BucketSnapshot { le: 16, count: 1 },
                    BucketSnapshot {
                        le: u64::MAX,
                        count: 1,
                    },
                ],
            },
        );
        snapshot.sketches.insert(
            "a.s".to_string(),
            SketchSnapshot {
                alpha: 0.01,
                gamma: 1.01 / 0.99,
                count: 1,
                sum: 100,
                zero: 0,
                min: 100,
                max: 100,
                buckets: vec![SketchBucket { idx: 231, count: 1 }],
            },
        );
        snapshot.shard_heat.push(ShardHeatSnapshot {
            family: "server.shard.heat.users".to_string(),
            shards: vec![
                ShardHeatRow {
                    shard: 0,
                    ops: 100,
                    contended: 4,
                    wait_total_ns: 2_000,
                    wait_max_ns: 900,
                    occupancy: 50,
                },
                ShardHeatRow {
                    shard: 1,
                    ops: 10,
                    contended: 0,
                    wait_total_ns: 0,
                    wait_max_ns: 0,
                    occupancy: 48,
                },
            ],
        });
        snapshot.events.push(EventRecord {
            seq: 3,
            name: "phase.start".to_string(),
            fields: vec![("phase".to_string(), "crawl".to_string())],
        });
        snapshot.spans.push(SpanRecord {
            id: 1,
            parent: 0,
            name: "req".to_string(),
            thread: 1,
            start_ns: 10,
            end_ns: 25,
            attrs: vec![("user".to_string(), "7".to_string())],
            events: vec![crate::SpanEventRecord {
                at_ns: 12,
                name: "flag".to_string(),
            }],
        });
        snapshot.decisions.push(DecisionRecord {
            seq: 0,
            user: 7,
            venue: 3,
            at_secs: 3600,
            outcome: "rejected.gps_mismatch".to_string(),
            detectors: vec![crate::DetectorVerdict {
                detector: "gps-proximity".to_string(),
                fired: true,
                flag: "gps_mismatch".to_string(),
                observed: 1512.0,
                threshold: 150.0,
                unit: "m".to_string(),
                elapsed_ns: 900,
            }],
            votes: vec![crate::VerifierVote {
                verifier: "verifier-stack".to_string(),
                vote: "admit".to_string(),
                evidence: String::new(),
            }],
            reward: crate::RewardSummary::default(),
            stage_ns: crate::StageNanos {
                verify: 0,
                detect: 1000,
                record: 400,
                rewards: 0,
                total: 1500,
            },
        });
        let mut account = AccountForensics::new(7);
        account.fold(&snapshot.decisions[0]);
        snapshot.account_forensics.push(account);
        let back = Snapshot::from_json(&snapshot.to_json()).unwrap();
        assert_eq!(back, snapshot);
        assert_eq!(back.schema, SNAPSHOT_SCHEMA_VERSION);
    }

    #[test]
    fn other_schema_versions_are_refused_by_name() {
        let v5 = Snapshot::default().to_json();
        let v6 = v5.replacen(
            &format!("\"schema\": {SNAPSHOT_SCHEMA_VERSION}"),
            &format!("\"schema\": {}", SNAPSHOT_SCHEMA_VERSION + 1),
            1,
        );
        let cases = [
            // Schema 1 had no `schema` field and no sketches or spans.
            (
                1,
                r#"{"counters": {}, "gauges": {}, "histograms": {}, "events": []}"#.to_string(),
            ),
            // Schema 3 had windows but no audit sections.
            (
                3,
                r#"{"schema": 3, "counters": {}, "gauges": {}, "histograms": {},
                    "sketches": {}, "windows": {}, "shard_heat": [], "events": [],
                    "spans": []}"#
                    .to_string(),
            ),
            // Schema 4 carries every current field plus `windows`.
            (
                4,
                r#"{"schema": 4, "counters": {}, "gauges": {}, "histograms": {},
                    "sketches": {}, "windows": {}, "shard_heat": [], "events": [],
                    "spans": [], "decisions": [], "account_forensics": []}"#
                    .to_string(),
            ),
            (SNAPSHOT_SCHEMA_VERSION + 1, v6),
        ];
        for (seen, doc) in cases {
            let err = Snapshot::from_json(&doc).unwrap_err().to_string();
            assert!(err.contains(&format!("schema {seen},")), "seen: {err}");
            let expected = format!("only schema {SNAPSHOT_SCHEMA_VERSION}");
            assert!(err.contains(&expected), "expected: {err}");
        }
        assert_eq!(Snapshot::from_json(&v5).unwrap(), Snapshot::default());
    }

    #[test]
    fn shard_heat_skew_and_means() {
        let heat = ShardHeatSnapshot {
            family: "server.shard.heat.users".to_string(),
            shards: vec![
                ShardHeatRow {
                    shard: 0,
                    ops: 90,
                    contended: 3,
                    wait_total_ns: 300,
                    wait_max_ns: 200,
                    occupancy: 10,
                },
                ShardHeatRow {
                    shard: 1,
                    ops: 10,
                    contended: 0,
                    wait_total_ns: 0,
                    wait_max_ns: 0,
                    occupancy: 12,
                },
            ],
        };
        assert!((heat.skew_ratio() - 9.0).abs() < 1e-9);
        assert_eq!(heat.total_ops(), 100);
        assert_eq!(heat.total_contended(), 3);
        assert!((heat.shards[0].mean_wait_ns() - 100.0).abs() < 1e-9);
        assert_eq!(heat.shards[1].mean_wait_ns(), 0.0);
        // A cold shard (0 ops) yields a finite skew; an untouched
        // family yields 1.0.
        let cold = ShardHeatSnapshot {
            family: "f".to_string(),
            shards: vec![
                ShardHeatRow {
                    shard: 0,
                    ops: 50,
                    contended: 0,
                    wait_total_ns: 0,
                    wait_max_ns: 0,
                    occupancy: 0,
                },
                ShardHeatRow {
                    shard: 1,
                    ops: 0,
                    contended: 0,
                    wait_total_ns: 0,
                    wait_max_ns: 0,
                    occupancy: 0,
                },
            ],
        };
        assert!((cold.skew_ratio() - 50.0).abs() < 1e-9);
        let empty = ShardHeatSnapshot {
            family: "f".to_string(),
            shards: vec![],
        };
        assert!((empty.skew_ratio() - 1.0).abs() < 1e-9);
    }
}
