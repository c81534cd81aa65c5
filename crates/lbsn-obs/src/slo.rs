//! Declarative SLO rules evaluated against [`Snapshot`]s.
//!
//! A [`SloPolicy`] is a list of machine-checkable objectives — "check-in
//! p99 under 20 ms", "crawler throughput above 1000 users/h", "error
//! ratio under 1%" — serialized to JSON so a policy file can be
//! committed next to baseline snapshots and enforced in CI by the
//! `obs-report` binary. Evaluation is conservative: a rule whose metric
//! is missing from the snapshot *fails* (a gate that silently passes
//! because instrumentation disappeared is worse than a false alarm).

use serde::{Deserialize, Serialize};

use crate::snapshot::Snapshot;

/// One service-level objective.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SloRule {
    /// The `q`-quantile of a duration sketch must be at most `max_ns`
    /// nanoseconds.
    QuantileMaxNs {
        /// Latency metric name, e.g. `server.checkin.total`.
        metric: String,
        /// Quantile in `0..=1`, e.g. 0.99.
        q: f64,
        /// Inclusive ceiling in nanoseconds.
        max_ns: u64,
    },
    /// A gauge must be at least `min` (throughput floors).
    GaugeMin {
        /// Gauge name, e.g. `crawler.throughput.users_per_hour`.
        metric: String,
        /// Inclusive floor.
        min: f64,
    },
    /// A gauge must be at most `max`.
    GaugeMax {
        /// Gauge name.
        metric: String,
        /// Inclusive ceiling.
        max: f64,
    },
    /// A gauge must sit inside an inclusive band — capacity numbers
    /// like `server.mem.bytes_per_user`, where too *low* means the
    /// sampler stopped seeing state and too *high* means a footprint
    /// regression.
    GaugeMinMax {
        /// Gauge name.
        metric: String,
        /// Inclusive floor.
        min: f64,
        /// Inclusive ceiling.
        max: f64,
    },
    /// A counter must be at least `min` (coverage floors — "the run
    /// actually exercised the pipeline").
    CounterMin {
        /// Counter name.
        metric: String,
        /// Inclusive floor.
        min: u64,
    },
    /// `numerator / denominator` must be at most `max_ratio`
    /// (error-rate ceilings). A zero denominator fails the rule: the
    /// workload never ran, so the ratio is meaningless.
    RatioMax {
        /// Numerator counter, e.g. `crawler.fetch.errors`.
        numerator: String,
        /// Denominator counter, e.g. `crawler.fetch.pages`.
        denominator: String,
        /// Inclusive ceiling on the ratio.
        max_ratio: f64,
    },
}

impl SloRule {
    /// The metric name this rule gates on (the numerator for ratios).
    pub fn metric(&self) -> &str {
        match self {
            SloRule::QuantileMaxNs { metric, .. } => metric,
            SloRule::GaugeMin { metric, .. } => metric,
            SloRule::GaugeMax { metric, .. } => metric,
            SloRule::GaugeMinMax { metric, .. } => metric,
            SloRule::CounterMin { metric, .. } => metric,
            SloRule::RatioMax { numerator, .. } => numerator,
        }
    }

    /// Human-readable form, e.g. `server.checkin.total p99 <= 20ms`.
    pub fn describe(&self) -> String {
        match self {
            SloRule::QuantileMaxNs { metric, q, max_ns } => {
                format!("{metric} p{:.0} <= {max_ns}ns", q * 100.0)
            }
            SloRule::GaugeMin { metric, min } => format!("{metric} >= {min}"),
            SloRule::GaugeMax { metric, max } => format!("{metric} <= {max}"),
            SloRule::GaugeMinMax { metric, min, max } => {
                format!("{metric} in [{min}, {max}]")
            }
            SloRule::CounterMin { metric, min } => format!("{metric} >= {min}"),
            SloRule::RatioMax {
                numerator,
                denominator,
                max_ratio,
            } => format!("{numerator}/{denominator} <= {max_ratio}"),
        }
    }

    /// Evaluates this rule against one snapshot.
    pub fn evaluate(&self, snapshot: &Snapshot) -> SloOutcome {
        let (observed, pass) = match self {
            SloRule::QuantileMaxNs { metric, q, max_ns } => {
                match snapshot.quantile_ns(metric, *q) {
                    Some(v) => (Some(v as f64), v <= *max_ns),
                    None => (None, false),
                }
            }
            SloRule::GaugeMin { metric, min } => match snapshot.gauges.get(metric) {
                Some(&v) => (Some(v), v >= *min),
                None => (None, false),
            },
            SloRule::GaugeMax { metric, max } => match snapshot.gauges.get(metric) {
                Some(&v) => (Some(v), v <= *max),
                None => (None, false),
            },
            SloRule::GaugeMinMax { metric, min, max } => match snapshot.gauges.get(metric) {
                Some(&v) => (Some(v), v >= *min && v <= *max),
                None => (None, false),
            },
            SloRule::CounterMin { metric, min } => match snapshot.counters.get(metric) {
                Some(&v) => (Some(v as f64), v >= *min),
                None => (None, false),
            },
            SloRule::RatioMax {
                numerator,
                denominator,
                max_ratio,
            } => {
                let num = snapshot.counters.get(numerator).copied();
                let den = snapshot.counters.get(denominator).copied();
                match (num, den) {
                    (Some(n), Some(d)) if d > 0 => {
                        let ratio = n as f64 / d as f64;
                        (Some(ratio), ratio <= *max_ratio)
                    }
                    _ => (None, false),
                }
            }
        };
        SloOutcome {
            rule: self.describe(),
            observed,
            pass,
        }
    }
}

/// The result of evaluating one [`SloRule`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloOutcome {
    /// The rule, human-readable (see [`SloRule::describe`]).
    pub rule: String,
    /// The observed value; `None` when the metric was missing (which
    /// fails the rule).
    pub observed: Option<f64>,
    /// Whether the objective held.
    pub pass: bool,
}

/// A named set of SLO rules, serializable for committed policy files.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SloPolicy {
    /// Policy name shown in reports.
    pub name: String,
    /// The objectives.
    pub rules: Vec<SloRule>,
}

impl SloPolicy {
    /// Evaluates every rule; outcomes come back in rule order.
    pub fn evaluate(&self, snapshot: &Snapshot) -> Vec<SloOutcome> {
        self.rules.iter().map(|r| r.evaluate(snapshot)).collect()
    }

    /// Whether every rule holds for `snapshot`.
    pub fn holds(&self, snapshot: &Snapshot) -> bool {
        self.evaluate(snapshot).iter().all(|o| o.pass)
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("policy serializes")
    }

    /// Parses a policy from JSON text.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn snapshot_with_latency() -> Snapshot {
        let registry = Registry::new();
        let lat = registry.sketch("server.checkin.total");
        for i in 1..=100u64 {
            lat.record(i * 10_000); // 10µs .. 1ms
        }
        registry
            .gauge("crawler.throughput.users_per_hour")
            .set(5000.0);
        registry.counter("crawler.fetch.pages").add(200);
        registry.counter("crawler.fetch.errors").add(2);
        registry.snapshot()
    }

    #[test]
    fn rules_pass_and_fail_on_observed_values() {
        let snap = snapshot_with_latency();
        let policy = SloPolicy {
            name: "test".to_string(),
            rules: vec![
                SloRule::QuantileMaxNs {
                    metric: "server.checkin.total".to_string(),
                    q: 0.99,
                    max_ns: 2_000_000,
                },
                SloRule::GaugeMin {
                    metric: "crawler.throughput.users_per_hour".to_string(),
                    min: 1000.0,
                },
                SloRule::RatioMax {
                    numerator: "crawler.fetch.errors".to_string(),
                    denominator: "crawler.fetch.pages".to_string(),
                    max_ratio: 0.05,
                },
                SloRule::CounterMin {
                    metric: "crawler.fetch.pages".to_string(),
                    min: 100,
                },
            ],
        };
        assert!(policy.holds(&snap));

        // Tighten the p99 ceiling below the observed tail: breach.
        let tight = SloRule::QuantileMaxNs {
            metric: "server.checkin.total".to_string(),
            q: 0.99,
            max_ns: 100_000,
        };
        let outcome = tight.evaluate(&snap);
        assert!(!outcome.pass);
        assert!(outcome.observed.unwrap() > 100_000.0);
    }

    #[test]
    fn missing_metric_fails_closed() {
        let snap = Snapshot::default();
        for rule in [
            SloRule::QuantileMaxNs {
                metric: "absent".to_string(),
                q: 0.5,
                max_ns: 1,
            },
            SloRule::GaugeMin {
                metric: "absent".to_string(),
                min: 0.0,
            },
            SloRule::RatioMax {
                numerator: "absent.a".to_string(),
                denominator: "absent.b".to_string(),
                max_ratio: 1.0,
            },
        ] {
            let outcome = rule.evaluate(&snap);
            assert!(!outcome.pass, "{} must fail closed", outcome.rule);
            assert_eq!(outcome.observed, None);
        }
    }

    #[test]
    fn zero_denominator_ratio_fails() {
        let registry = Registry::new();
        registry.counter("e").add(0);
        registry.counter("n").add(0);
        let rule = SloRule::RatioMax {
            numerator: "e".to_string(),
            denominator: "n".to_string(),
            max_ratio: 1.0,
        };
        assert!(!rule.evaluate(&registry.snapshot()).pass);
    }

    #[test]
    fn policy_round_trips_through_json() {
        let policy = SloPolicy {
            name: "gate".to_string(),
            rules: vec![
                SloRule::QuantileMaxNs {
                    metric: "m".to_string(),
                    q: 0.95,
                    max_ns: 42,
                },
                SloRule::GaugeMax {
                    metric: "g".to_string(),
                    max: 7.5,
                },
                SloRule::GaugeMinMax {
                    metric: "b".to_string(),
                    min: 100.0,
                    max: 4000.0,
                },
            ],
        };
        let back = SloPolicy::from_json(&policy.to_json()).unwrap();
        assert_eq!(back, policy);
    }

    #[test]
    fn gauge_band_passes_inside_and_fails_outside() {
        let registry = Registry::new();
        registry.gauge("server.mem.bytes_per_user").set(900.0);
        let snap = registry.snapshot();
        let band = |min: f64, max: f64| SloRule::GaugeMinMax {
            metric: "server.mem.bytes_per_user".to_string(),
            min,
            max,
        };
        assert!(band(100.0, 4000.0).evaluate(&snap).pass);
        assert!(band(900.0, 900.0).evaluate(&snap).pass, "bounds inclusive");
        assert!(!band(1000.0, 4000.0).evaluate(&snap).pass, "below floor");
        assert!(!band(100.0, 800.0).evaluate(&snap).pass, "above ceiling");
        assert_eq!(
            band(1.0, 2.0).describe(),
            "server.mem.bytes_per_user in [1, 2]"
        );
        // Missing gauge fails closed like every other rule.
        assert!(!band(0.0, 1.0).evaluate(&Snapshot::default()).pass);
    }
}
