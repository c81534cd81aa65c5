//! The metric catalogue and one run's report: every declared metric by
//! name with its unit, the oracle's verdict, and the closing JSON line.

use std::fmt::Write as _;

/// A declared metric: name, unit, and which direction is better.
pub type Declared = (&'static str, &'static str, &'static str);

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[Declared] = &[
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, printed by every traced run of every workload.
/// Each is measured on every workload, so none reads as a constant.
pub const PER_LAYER: &[Declared] = &[
    ("workload.input_s", "s", "lower"),
    ("workload.register_s", "s", "lower"),
    ("frontend.batch_mean", "count", "higher"),
    ("admission.check_in_ns_p50", "ns", "lower"),
    ("admission.check_in_ns_p99", "ns", "lower"),
    ("admission.unattributed_pct", "%", "lower"),
    ("admission.lock_retry_per_kop", "1/kop", "lower"),
    ("admission.lock_fallback", "count", "lower"),
    ("shard.user_read_ns_p50", "ns", "lower"),
    ("shard.venue_read_ns_p50", "ns", "lower"),
    ("shard.contended_per_kop", "1/kop", "lower"),
    ("cheatercode.evaluate_ns_p50", "ns", "lower"),
    ("cheatercode.evaluate_ns_p99", "ns", "lower"),
    ("cheatercode.gps_proximity_ns_p50", "ns", "lower"),
    ("cheatercode.frequent_checkins_ns_p50", "ns", "lower"),
    ("cheatercode.superhuman_speed_ns_p50", "ns", "lower"),
    ("cheatercode.rapid_fire_ns_p50", "ns", "lower"),
    ("rewards.decide_mayor_ns_p50", "ns", "lower"),
    ("rewards.decide_mayor_ns_p99", "ns", "lower"),
    ("rewards.evaluate_badges_ns_p50", "ns", "lower"),
    ("rewards.evaluate_badges_ns_p99", "ns", "lower"),
    ("history.push_ns_p50", "ns", "lower"),
    ("history.window_scan_ns_p50", "ns", "lower"),
    ("history.window_scan_ns_p99", "ns", "lower"),
    ("history.bytes_per_record", "B", "lower"),
    ("web.user_page_ns_p50", "ns", "lower"),
    ("web.user_page_ns_p99", "ns", "lower"),
    ("web.venue_page_ns_p50", "ns", "lower"),
    ("web.venue_page_ns_p99", "ns", "lower"),
    ("scrape.parse_ns_p50", "ns", "lower"),
    ("crawldb.insert_ns_p50", "ns", "lower"),
    ("crawldb.insert_ns_p99", "ns", "lower"),
    ("obs.overhead_pct", "%", "lower"),
    ("obs.snapshot_ms", "ms", "lower"),
    ("mem.rss_after_setup_mb", "MB", "lower"),
    ("mem.bytes_per_user", "B", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// One workload run's results.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    /// Operations attempted (check-ins, or crawled pages).
    pub attempted: u64,
    /// Operations whose output did not match the oracle.
    pub failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    /// Records a metric value. The unit comes from the catalogue.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records an oracle check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts `n` failed operations and why they failed.
    pub fn fail_ops(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n > 0 {
            self.failed += n;
            self.failures.push(format!("{n} ops failed: {}", why()));
        }
    }

    /// A line of human-readable context printed with the report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The recorded value of `name`, if any.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Checks the run emitted exactly the catalogue for its mode, each
    /// value finite; returns whether every oracle passed.
    pub fn finalize(&mut self, traced: bool) -> bool {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        for (name, ..) in catalogue {
            match self.value(name) {
                None => self
                    .failures
                    .push(format!("metric {name} was not measured")),
                Some(v) if !v.is_finite() => self
                    .failures
                    .push(format!("metric {name} is not finite: {v}")),
                Some(_) => {}
            }
        }
        for (name, _) in &self.metrics {
            if !catalogue.iter().any(|(c, ..)| c == name) {
                self.failures
                    .push(format!("metric {name} is not declared for this mode"));
            }
        }
        if self.attempted == 0 {
            self.failures.push("no operations attempted".to_string());
        }
        self.correct()
    }

    /// Whether every oracle passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The human-readable report: notes, metrics with units, oracle.
    pub fn render(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "{line}");
        }
        for (name, unit, _) in catalogue {
            if let Some(v) = self.value(name) {
                let _ = writeln!(out, "  {name:<40} {v:>16.4} {unit}");
            }
        }
        let _ = writeln!(
            out,
            "  ops {} ops_failed {} oracle {}",
            self.attempted,
            self.failed,
            if self.correct() { "ok" } else { "FAILED" }
        );
        for f in &self.failures {
            let _ = writeln!(out, "  oracle: {f}");
        }
        out
    }

    /// The closing JSON line.
    pub fn json(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .filter_map(|(name, unit, _)| {
                let v = self.value(name).filter(|v| v.is_finite())?;
                Some(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_and_undeclared_metrics_fail_the_run() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        for (name, ..) in END_TO_END.iter().skip(1) {
            r.metric(name, 1.5);
        }
        r.metric("workload.input_s", 1.0);
        assert!(!r.finalize(false));
        let text = r.render(false);
        assert!(text.contains("setup_s was not measured"), "{text}");
        assert!(text.contains("workload.input_s is not declared"), "{text}");
    }

    #[test]
    fn json_carries_every_value_with_its_unit() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for (i, (name, ..)) in END_TO_END.iter().enumerate() {
            r.metric(name, 0.25 + i as f64);
        }
        assert!(r.finalize(false));
        let json = r.json(false);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(json.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(json.contains("\"peak_rss_mb\": {\"value\": 3.25, \"unit\": \"MB\"}"));
    }
}
