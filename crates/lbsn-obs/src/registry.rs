//! The metric registry: name → cell resolution, the enabled flag, span
//! sampling, and snapshot capture.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::audit::{AuditConfig, AuditPlane, DecisionRecord};
use crate::heat::{HeatCell, ShardHeat};
use crate::metrics::{Counter, Gauge, GaugeCell, Histogram, HistogramCell, StripedU64};
use crate::names;
use crate::sketch::{QuantileSketch, SketchCell, DEFAULT_SKETCH_ALPHA};
use crate::snapshot::{BucketSnapshot, HistogramSnapshot, Snapshot, SNAPSHOT_SCHEMA_VERSION};
use crate::span::OpenSpan;
use crate::span::{Span, SpanSink};
use crate::trace::EventTrace;

/// Capacities and sampling knobs for a [`Registry`]. The defaults match
/// what PR 1 hard-coded (1024 retained events) plus conservative span
/// settings: 4096 retained spans, head-sampled 1-in-16.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Events retained in the trace ring.
    pub event_capacity: usize,
    /// Finished spans retained in the span ring.
    pub span_capacity: usize,
    /// Head-sample one root span in every N (0 disables sampling
    /// entirely; forced spans still record).
    pub span_sample_every: u64,
    /// Sample every root span regardless of the 1-in-N counter.
    pub span_sample_all: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            event_capacity: 1024,
            span_capacity: 4096,
            span_sample_every: 16,
            span_sample_all: false,
        }
    }
}

#[derive(Default)]
struct Cells {
    counters: BTreeMap<String, Arc<StripedU64>>,
    gauges: BTreeMap<String, Arc<GaugeCell>>,
    histograms: BTreeMap<String, Arc<HistogramCell>>,
    sketches: BTreeMap<String, Arc<SketchCell>>,
    heats: BTreeMap<String, Arc<HeatCell>>,
}

/// Holds every named metric plus the event trace and span sink.
/// Components take an `Arc<Registry>` at construction (defaulting to
/// [`global`]), resolve their handles once, and update them lock-free
/// afterwards.
pub struct Registry {
    enabled: Arc<AtomicBool>,
    cells: RwLock<Cells>,
    events: EventTrace,
    spans: Arc<SpanSink>,
    audit: OnceLock<Arc<AuditPlane>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An enabled registry with the default [`ObsConfig`].
    pub fn new() -> Self {
        Registry::with_config(ObsConfig::default())
    }

    /// An enabled registry with explicit capacities and span sampling.
    pub fn with_config(config: ObsConfig) -> Self {
        Registry {
            enabled: Arc::new(AtomicBool::new(true)),
            cells: RwLock::new(Cells::default()),
            events: EventTrace::new(config.event_capacity),
            spans: Arc::new(SpanSink::new(
                config.span_capacity,
                config.span_sample_every,
                config.span_sample_all,
            )),
            audit: OnceLock::new(),
        }
    }

    /// Turns metric recording on or off. Handles stay valid; updates
    /// through them become no-ops while disabled. Spans started while
    /// disabled are inert.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Resolves (registering on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(cell) = self.cells.read().counters.get(name) {
            return Counter {
                enabled: Arc::clone(&self.enabled),
                cell: Arc::clone(cell),
            };
        }
        let mut cells = self.cells.write();
        let cell = cells
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(StripedU64::default()));
        Counter {
            enabled: Arc::clone(&self.enabled),
            cell: Arc::clone(cell),
        }
    }

    /// Resolves (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(cell) = self.cells.read().gauges.get(name) {
            return Gauge {
                enabled: Arc::clone(&self.enabled),
                cell: Arc::clone(cell),
            };
        }
        let mut cells = self.cells.write();
        let cell = cells.gauges.entry(name.to_string()).or_insert_with(|| {
            Arc::new(GaugeCell {
                bits: Default::default(),
            })
        });
        Gauge {
            enabled: Arc::clone(&self.enabled),
            cell: Arc::clone(cell),
        }
    }

    /// Resolves the count histogram `name`, creating it with `bounds`
    /// (inclusive upper bucket bounds) on first use. A histogram keeps
    /// the bounds it was first registered with. Durations belong in a
    /// [`Registry::sketch`] instead.
    pub fn histogram_with_buckets(&self, name: &str, bounds: &[u64]) -> Histogram {
        if let Some(cell) = self.cells.read().histograms.get(name) {
            return Histogram {
                enabled: Arc::clone(&self.enabled),
                cell: Arc::clone(cell),
            };
        }
        let mut cells = self.cells.write();
        let cell = cells
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCell::new(bounds.to_vec())));
        Histogram {
            enabled: Arc::clone(&self.enabled),
            cell: Arc::clone(cell),
        }
    }

    /// Resolves the quantile sketch `name` at the default ±1% relative
    /// error (see [`DEFAULT_SKETCH_ALPHA`]).
    pub fn sketch(&self, name: &str) -> QuantileSketch {
        self.sketch_with_alpha(name, DEFAULT_SKETCH_ALPHA)
    }

    /// Resolves the quantile sketch `name`, creating it with
    /// relative-error target `alpha` on first use. A sketch keeps the
    /// alpha it was first registered with.
    pub fn sketch_with_alpha(&self, name: &str, alpha: f64) -> QuantileSketch {
        if let Some(cell) = self.cells.read().sketches.get(name) {
            return QuantileSketch {
                enabled: Arc::clone(&self.enabled),
                cell: Arc::clone(cell),
            };
        }
        let mut cells = self.cells.write();
        let cell = cells
            .sketches
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(SketchCell::new(alpha)));
        QuantileSketch {
            enabled: Arc::clone(&self.enabled),
            cell: Arc::clone(cell),
        }
    }

    /// Resolves (registering on first use) the per-shard contention
    /// heatmap family `name` with `shards` rows. A family keeps the row
    /// count it was first registered with.
    pub fn shard_heat(&self, name: &str, shards: usize) -> ShardHeat {
        if let Some(cell) = self.cells.read().heats.get(name) {
            return ShardHeat {
                enabled: Arc::clone(&self.enabled),
                cell: Arc::clone(cell),
            };
        }
        let mut cells = self.cells.write();
        let cell = cells
            .heats
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HeatCell::new(shards)));
        ShardHeat {
            enabled: Arc::clone(&self.enabled),
            cell: Arc::clone(cell),
        }
    }

    /// Resolves this registry's decision audit plane, creating it with
    /// the default [`AuditConfig`] on first use.
    pub fn audit(&self) -> Arc<AuditPlane> {
        self.audit_with_config(AuditConfig::default())
    }

    /// Resolves the audit plane, creating it with `config` on first
    /// use. As with histograms, the first registration wins the
    /// configuration; later calls get the existing plane.
    pub fn audit_with_config(&self, config: AuditConfig) -> Arc<AuditPlane> {
        Arc::clone(
            self.audit
                .get_or_init(|| Arc::new(AuditPlane::new(config, Arc::clone(&self.enabled)))),
        )
    }

    /// The `n` most recently captured decision records — what a flight
    /// dump embeds. Empty when nothing has resolved the audit plane.
    pub fn last_decisions(&self, n: usize) -> Vec<DecisionRecord> {
        self.audit
            .get()
            .map(|plane| plane.last_decisions(n))
            .unwrap_or_default()
    }

    /// Opens a root span named `name`, subject to head sampling (and
    /// inert while the registry is disabled).
    pub fn span(&self, name: &str) -> Span {
        if !self.is_enabled() {
            return Span::disabled();
        }
        Span::start_root(&self.spans, name, false)
    }

    /// Opens a root span that bypasses head sampling — for low-rate,
    /// high-value roots (an attack campaign, a flagged request) that
    /// must always appear in the trace. Still inert while disabled.
    pub fn span_forced(&self, name: &str) -> Span {
        if !self.is_enabled() {
            return Span::disabled();
        }
        Span::start_root(&self.spans, name, true)
    }

    /// Changes the head-sampling rate to 1-in-`every` (0 disables
    /// sampling; forced spans still record).
    pub fn set_span_sample_every(&self, every: u64) {
        self.spans.set_sample_every(every);
    }

    /// Samples every root span when `all` is set, regardless of rate.
    pub fn set_span_sample_all(&self, all: bool) {
        self.spans.set_sample_all(all);
    }

    /// Appends a structured event to the trace ring (dropped while
    /// disabled).
    pub fn event(&self, name: &str, fields: &[(&str, String)]) {
        if self.is_enabled() {
            self.events.record(name, fields);
        }
    }

    /// The event trace.
    pub fn events(&self) -> &EventTrace {
        &self.events
    }

    /// Captures every metric, the retained events, and the retained
    /// spans as plain data. Ring truncation is surfaced as synthesized
    /// `trace.dropped_events` / `trace.dropped_spans` counters.
    pub fn snapshot(&self) -> Snapshot {
        let cells = self.cells.read();
        let mut counters: BTreeMap<String, u64> = cells
            .counters
            .iter()
            .map(|(name, cell)| (name.clone(), cell.sum()))
            .collect();
        counters.insert("trace.dropped_events".to_string(), self.events.dropped());
        counters.insert("trace.dropped_spans".to_string(), self.spans.dropped());
        counters.insert("trace.finished_spans".to_string(), self.spans.finished());
        let gauges = cells
            .gauges
            .iter()
            .map(|(name, cell)| {
                (
                    name.clone(),
                    f64::from_bits(cell.bits.load(Ordering::Relaxed)),
                )
            })
            .collect();
        let histograms = cells
            .histograms
            .iter()
            .map(|(name, cell)| {
                let count = cell.count.load(Ordering::Relaxed);
                let min = cell.min.load(Ordering::Relaxed);
                let buckets = cell
                    .bounds
                    .iter()
                    .copied()
                    .chain([u64::MAX])
                    .zip(cell.buckets.iter())
                    .map(|(le, bucket)| BucketSnapshot {
                        le,
                        count: bucket.load(Ordering::Relaxed),
                    })
                    .collect();
                let snap = HistogramSnapshot {
                    count,
                    sum: cell.sum.load(Ordering::Relaxed),
                    min: if count == 0 { 0 } else { min },
                    max: cell.max.load(Ordering::Relaxed),
                    buckets,
                };
                (name.clone(), snap)
            })
            .collect();
        let sketches = cells
            .sketches
            .iter()
            .map(|(name, cell)| (name.clone(), cell.snapshot()))
            .collect();
        let shard_heat = cells
            .heats
            .iter()
            .map(|(name, cell)| cell.snapshot(name))
            .collect();
        let (decisions, account_forensics) = match self.audit.get() {
            Some(plane) => {
                counters.insert(names::server::AUDIT_RECORDS.to_string(), plane.records());
                counters.insert(
                    names::server::AUDIT_SAMPLED_OUT.to_string(),
                    plane.sampled_out(),
                );
                counters.insert(names::server::AUDIT_EVICTED.to_string(), plane.evicted());
                (plane.decisions(), plane.forensics())
            }
            None => (Vec::new(), Vec::new()),
        };
        Snapshot {
            schema: SNAPSHOT_SCHEMA_VERSION,
            counters,
            gauges,
            histograms,
            sketches,
            shard_heat,
            events: self.events.drain_copy(),
            spans: self.spans.drain_copy(),
            decisions,
            account_forensics,
        }
    }

    /// Sampled spans that have started but not finished — what the
    /// flight recorder dumps when a panic interrupts requests
    /// mid-stage.
    pub fn open_spans(&self) -> Vec<OpenSpan> {
        self.spans.open_copy()
    }

    /// Zeroes every metric value and clears the event trace and span
    /// ring; resolved handles keep working. Registered names, bucket
    /// layouts, and sketch alphas stay; span ids keep growing so they
    /// remain unique across resets.
    pub fn reset(&self) {
        let cells = self.cells.read();
        for cell in cells.counters.values() {
            cell.zero();
        }
        for cell in cells.gauges.values() {
            cell.bits.store(0, Ordering::Relaxed);
        }
        for cell in cells.histograms.values() {
            for bucket in &cell.buckets {
                bucket.store(0, Ordering::Relaxed);
            }
            cell.count.store(0, Ordering::Relaxed);
            cell.sum.store(0, Ordering::Relaxed);
            cell.min.store(u64::MAX, Ordering::Relaxed);
            cell.max.store(0, Ordering::Relaxed);
        }
        for cell in cells.sketches.values() {
            cell.reset();
        }
        for cell in cells.heats.values() {
            cell.reset();
        }
        drop(cells);
        self.events.clear();
        self.spans.clear();
        if let Some(plane) = self.audit.get() {
            plane.reset();
        }
    }
}

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process-wide registry. Components default to this when no
/// registry is injected.
pub fn global() -> Arc<Registry> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(Registry::new())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_shared() {
        let a = global();
        let b = global();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let registry = Registry::new();
        registry.counter("a.b").add(3);
        registry.gauge("a.g").set(1.5);
        registry.histogram_with_buckets("a.h", &[10]).record(4);
        registry.sketch("a.s").record(7);
        registry.event("boot", &[("phase", "one".to_string())]);
        registry.span_forced("a.root").end();
        registry.reset();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["a.b"], 0);
        assert_eq!(snap.gauges["a.g"], 0.0);
        assert_eq!(snap.histograms["a.h"].count, 0);
        assert_eq!(snap.histograms["a.h"].min, 0);
        assert_eq!(snap.sketches["a.s"].count, 0);
        assert!(snap.events.is_empty());
        assert!(snap.spans.is_empty());
        // The old handle still points at the registered cell.
        registry.counter("a.b").inc();
        assert_eq!(registry.snapshot().counters["a.b"], 1);
        // Span ids keep growing across resets.
        let s = registry.span_forced("a.root");
        assert!(s.id().unwrap() > 1);
    }

    #[test]
    fn shard_heat_families_snapshot_and_reset() {
        let registry = Registry::new();
        let heat = registry.shard_heat("server.shard.heat.users", 4);
        heat.record_fast(1);
        heat.record_wait(1, 500);
        heat.set_occupancy(1, 7);
        let snap = registry.snapshot();
        assert_eq!(snap.shard_heat.len(), 1);
        assert_eq!(snap.shard_heat[0].family, "server.shard.heat.users");
        assert_eq!(snap.shard_heat[0].shards.len(), 4);
        assert_eq!(snap.shard_heat[0].shards[1].ops, 2);
        assert_eq!(snap.shard_heat[0].shards[1].occupancy, 7);
        // First registration wins the row count.
        let again = registry.shard_heat("server.shard.heat.users", 64);
        assert_eq!(again.shard_count(), 4);
        registry.reset();
        let snap = registry.snapshot();
        assert_eq!(snap.shard_heat[0].shards[1].ops, 0);
        assert_eq!(snap.shard_heat[0].shards[1].occupancy, 0);
    }

    #[test]
    fn audit_plane_snapshots_and_resets_through_the_registry() {
        use crate::{DecisionBuilder, DecisionOutcome};

        let registry = Registry::new();
        // Before anything resolves the plane, snapshots carry no audit
        // sections and synthesize no audit counters.
        let snap = registry.snapshot();
        assert!(snap.decisions.is_empty());
        assert!(!snap.counters.contains_key("server.audit.records"));
        assert!(registry.last_decisions(64).is_empty());

        let plane = registry.audit_with_config(AuditConfig {
            capacity: 8,
            stripes: 1,
            sample_every: 1,
        });
        // First registration wins the configuration.
        let again = registry.audit();
        assert!(Arc::ptr_eq(&plane, &again));

        let mut b = DecisionBuilder::new(5, 1, 100);
        b.verdict("rapid-fire", Some("rapid_fire"), 4.0, 4.0, "checkins", 10);
        plane.finish(&b, DecisionOutcome::Rejected("rapid_fire"));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("server.audit.records"), 1);
        assert_eq!(snap.counter("server.audit.sampled_out"), 0);
        assert_eq!(snap.counter("server.audit.evicted"), 0);
        assert_eq!(snap.decisions.len(), 1);
        assert_eq!(snap.account_forensics.len(), 1);
        assert_eq!(snap.account_forensics[0].user, 5);
        assert_eq!(registry.last_decisions(64).len(), 1);

        // The plane shares the registry's enabled flag.
        registry.set_enabled(false);
        plane.finish(&b, DecisionOutcome::Rejected("rapid_fire"));
        registry.set_enabled(true);
        assert_eq!(plane.records(), 1);

        registry.reset();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("server.audit.records"), 0);
        assert!(snap.decisions.is_empty());
        assert!(snap.account_forensics.is_empty());
    }

    #[test]
    fn open_spans_surface_through_the_registry() {
        let registry = Registry::new();
        let root = registry.span_forced("server.checkin");
        assert_eq!(registry.open_spans().len(), 1);
        assert_eq!(registry.open_spans()[0].name, "server.checkin");
        root.end();
        assert!(registry.open_spans().is_empty());
    }

    #[test]
    fn first_bucket_layout_wins() {
        let registry = Registry::new();
        let first = registry.histogram_with_buckets("h", &[1, 2, 3]);
        let second = registry.histogram_with_buckets("h", &[9]);
        first.record(2);
        second.record(2);
        let snap = registry.snapshot();
        assert_eq!(snap.histograms["h"].buckets.len(), 4);
        assert_eq!(snap.histograms["h"].count, 2);
    }

    #[test]
    fn config_controls_capacities_and_sampling() {
        let registry = Registry::with_config(ObsConfig {
            event_capacity: 2,
            span_capacity: 2,
            span_sample_every: 1,
            span_sample_all: false,
        });
        for i in 0..5 {
            registry.event("tick", &[("i", i.to_string())]);
            registry.span("req").end();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.counter("trace.dropped_events"), 3);
        assert_eq!(snap.counter("trace.dropped_spans"), 3);
    }

    #[test]
    fn disabled_registry_spans_are_inert() {
        let registry = Registry::new();
        registry.set_enabled(false);
        assert!(!registry.span_forced("req").sampled());
        registry.set_enabled(true);
        assert!(registry.span_forced("req").sampled());
    }

    #[test]
    fn sample_all_overrides_rate() {
        let registry = Registry::with_config(ObsConfig {
            span_sample_every: 0,
            ..ObsConfig::default()
        });
        assert!(!registry.span("req").sampled());
        registry.set_span_sample_all(true);
        assert!(registry.span("req").sampled());
        registry.set_span_sample_all(false);
        registry.set_span_sample_every(1);
        assert!(registry.span("req").sampled());
    }
}
