//! Pre-resolved observability handles for the check-in pipeline.
//!
//! All handles are resolved once at server construction so the hot
//! path never touches the registry's name map. After one relaxed check
//! of the enabled flag, a counter update is one atomic RMW and a sketch
//! record five, all on the calling thread's cache-padded stripe (see
//! `lbsn-obs`), so two admission threads never write the same line.
//! Stage durations come from one `Stopwatch` per decision: a clock
//! read at the start and after each detector, record and rewards (8 per
//! accepted check-in on the default five-detector chain), with every
//! stage the gap between two consecutive reads.
//!
//! Metric names (scheme `subsystem.component.metric`):
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `server.checkin.total` | sketch (ns) | whole-pipeline latency: the sum of the three stages below |
//! | `server.checkin.stage.verify` | sketch (ns) | pre-admission verifier stages (only sampled when verifiers are installed) |
//! | `server.checkin.stage.cheater_code` | sketch (ns) | GPS verify + cheater-code rules: the sum of the detector latencies |
//! | `server.checkin.stage.record` | sketch (ns) | history append + flag bookkeeping |
//! | `server.checkin.stage.rewards` | sketch (ns) | mayorship, badges, points, specials |
//! | `server.checkin.accepted` | counter | check-ins that earned rewards |
//! | `server.checkin.rejected` | counter | flagged check-ins |
//! | `server.checkin.verifier_rejected` | counter | check-ins dropped by a verifier stage before recording |
//! | `server.checkin.flag.*` | counter | one per [`CheatFlag`] rule fired |
//! | `server.checkin.detector.{name}.rejected` | counter | times detector `{name}` raised its flag |
//! | `server.checkin.detector.{name}.latency` | sketch (ns) | per-check-in cost of detector `{name}` |
//! | `server.checkin.verifier.{name}.rejected` | counter | times verifier stage `{name}` rejected |
//! | `server.checkin.branded` | counter | accounts escalated to branded cheater |
//! | `server.checkin.lock_retry` | counter | optimistic lock-set widenings (uncovered incumbent mayor) |
//! | `server.checkin.lock_fallback` | counter | retries exhausted → all user shards locked |
//! | `server.rewards.badges_granted` | counter | badges awarded |
//! | `server.rewards.mayorships_granted` | counter | mayorship handovers |
//! | `server.rewards.points_granted` | counter | points awarded |
//! | `server.shard.lock_wait` | sketch (ns) | shard-lock acquisition wait (0 on the uncontended fast path) |
//! | `server.shard.count` | gauge | configured lock-stripe count |
//! | `server.shard.heat.{users,venues}` | shard heat | per-shard ops / contention / wait / occupancy (the heatmap) |
//! | `server.mem.users_bytes` | gauge | deep owned bytes of all user state at the last sample |
//! | `server.mem.venues_bytes` | gauge | deep owned bytes of all venue state at the last sample |
//! | `server.mem.side_maps_bytes` | gauge | deep owned bytes of usernames + spatial index + category table |
//! | `server.mem.total_bytes` | gauge | sum of the three gauges above |
//! | `server.mem.bytes_per_user` | gauge | `total_bytes / registered users` — the paper-scale capacity number |
//! | `server.mem.samples` | counter | memory-sampler sweeps taken |
//! | `server.frontend.submitted` | counter | check-ins submitted to the request frontend (enqueued + shed) |
//! | `server.frontend.decided` | counter | queued check-ins the batch-drain workers decided |
//! | `server.frontend.shed` | counter | submissions shed at the queue high-water mark |
//! | `server.frontend.queue_depth` | gauge | check-ins currently queued across all frontend shard queues |
//! | `server.frontend.batch_size` | histogram (count, power-of-two bounds) | ops admitted per batch drain |
//! | `server.frontend.sojourn` | sketch (ns) | submit→decision sojourn through the frontend |
//! | `server.flight.dump` | event | an explicit flight-recorder dump was requested |
//! | `server.audit.records` | counter (synthesized) | decision records captured by the audit plane |
//! | `server.audit.sampled_out` | counter (synthesized) | accepted decisions dropped by 1-in-N tail sampling |
//! | `server.audit.evicted` | counter (synthesized) | captured records recycled out of the bounded audit ring |
//!
//! The three `server.audit.*` counters are synthesized into snapshots
//! by the registry from the audit plane's own atomics (like the
//! `trace.*` counters) — the server holds the plane handle, not
//! separate counter cells, so nothing double-counts.

use std::sync::Arc;
use std::time::Instant;

use lbsn_obs::names::server as names;
use lbsn_obs::{AuditPlane, Counter, Gauge, Histogram, QuantileSketch, Registry};

use crate::checkin::CheatFlag;

/// Inclusive upper bounds of the batch-size histogram: powers of two up
/// to 1024 ops, so every `batch_max` up to that lands in its own bucket.
const BATCH_SIZE_BUCKETS: [u64; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Handles for every metric the server emits.
pub struct ServerMetrics {
    registry: Arc<Registry>,
    /// Whole check-in pipeline latency, nanoseconds.
    pub checkin_total: QuantileSketch,
    /// Stage 0 (verified deployments only): pre-admission verifier
    /// stages. No samples on the plain pipeline.
    pub stage_verify: QuantileSketch,
    /// Stage 1: GPS verification + cheater-code rule evaluation.
    pub stage_cheater_code: QuantileSketch,
    /// Stage 2: recording the check-in and flag bookkeeping.
    pub stage_record: QuantileSketch,
    /// Stage 3: mayorship, badges, points, specials.
    pub stage_rewards: QuantileSketch,
    /// Check-ins that passed the cheater code.
    pub accepted: Counter,
    /// Check-ins flagged by at least one rule.
    pub rejected: Counter,
    /// Check-ins dropped by a verifier stage before being recorded.
    pub verifier_rejected: Counter,
    flag_gps_mismatch: Counter,
    flag_too_frequent: Counter,
    flag_superhuman_speed: Counter,
    flag_rapid_fire: Counter,
    flag_account_flagged: Counter,
    /// Accounts escalated to branded-cheater status.
    pub branded: Counter,
    /// Check-in lock acquisitions that widened the optimistic shard set
    /// after discovering an uncovered incumbent mayor.
    pub lock_retry: Counter,
    /// Check-ins that exhausted the widening retries and fell back to
    /// locking every user shard.
    pub lock_fallback: Counter,
    /// Badges awarded.
    pub badges_granted: Counter,
    /// Mayorship handovers (became-mayor transitions).
    pub mayorships_granted: Counter,
    /// Points awarded.
    pub points_granted: Counter,
    /// Shard-lock acquisition wait, nanoseconds. Uncontended try-lock
    /// acquisitions record 0 without reading the clock, so the sketch's
    /// p99 is a direct contention signal bounded by the SLO gate.
    pub shard_lock_wait: QuantileSketch,
    /// Number of lock stripes over user/venue state (set once at
    /// construction).
    pub shard_count: Gauge,
    /// Deep owned bytes of user state at the last memory sample.
    pub mem_users_bytes: Gauge,
    /// Deep owned bytes of venue state at the last memory sample.
    pub mem_venues_bytes: Gauge,
    /// Deep owned bytes of the side maps (usernames, spatial index,
    /// category table) at the last memory sample.
    pub mem_side_maps_bytes: Gauge,
    /// Total of the three component gauges above.
    pub mem_total_bytes: Gauge,
    /// `total_bytes / registered users` — the capacity number the
    /// scale-ladder SLO band gates on.
    pub mem_bytes_per_user: Gauge,
    /// Memory-sampler sweeps taken.
    pub mem_samples: Counter,
    /// Check-ins submitted to the request frontend (enqueued + shed).
    pub frontend_submitted: Counter,
    /// Queued check-ins the frontend's batch-drain workers decided.
    /// Conservation: `submitted = decided + shed` once drained.
    pub frontend_decided: Counter,
    /// Submissions shed at the queue high-water mark with a
    /// retry-after instead of being enqueued.
    pub frontend_shed: Counter,
    /// Check-ins currently queued across all frontend shard queues.
    pub frontend_queue_depth: Gauge,
    /// Ops admitted per batch drain — how much lock amortization the
    /// workers actually got.
    pub frontend_batch_size: Histogram,
    /// Submit→decision sojourn latency through the frontend queue.
    pub frontend_sojourn: QuantileSketch,
    /// The decision audit plane: one wide event per admission decision,
    /// resolved once (default [`lbsn_obs::AuditConfig`]) so the check-in
    /// hot path pays no `OnceLock` probe.
    pub audit: Arc<AuditPlane>,
}

impl ServerMetrics {
    /// Resolves every server metric against `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        let r = &registry;
        ServerMetrics {
            checkin_total: r.sketch(names::CHECKIN_TOTAL),
            stage_verify: r.sketch(names::STAGE_VERIFY),
            stage_cheater_code: r.sketch(names::STAGE_CHEATER_CODE),
            stage_record: r.sketch(names::STAGE_RECORD),
            stage_rewards: r.sketch(names::STAGE_REWARDS),
            accepted: r.counter(names::ACCEPTED),
            rejected: r.counter(names::REJECTED),
            verifier_rejected: r.counter(names::VERIFIER_REJECTED),
            flag_gps_mismatch: r.counter(names::FLAG_GPS_MISMATCH),
            flag_too_frequent: r.counter(names::FLAG_TOO_FREQUENT),
            flag_superhuman_speed: r.counter(names::FLAG_SUPERHUMAN_SPEED),
            flag_rapid_fire: r.counter(names::FLAG_RAPID_FIRE),
            flag_account_flagged: r.counter(names::FLAG_ACCOUNT_FLAGGED),
            branded: r.counter(names::BRANDED),
            lock_retry: r.counter(names::LOCK_RETRY),
            lock_fallback: r.counter(names::LOCK_FALLBACK),
            badges_granted: r.counter(names::BADGES_GRANTED),
            mayorships_granted: r.counter(names::MAYORSHIPS_GRANTED),
            points_granted: r.counter(names::POINTS_GRANTED),
            shard_lock_wait: r.sketch(names::SHARD_LOCK_WAIT),
            shard_count: r.gauge(names::SHARD_COUNT),
            mem_users_bytes: r.gauge(names::MEM_USERS_BYTES),
            mem_venues_bytes: r.gauge(names::MEM_VENUES_BYTES),
            mem_side_maps_bytes: r.gauge(names::MEM_SIDE_MAPS_BYTES),
            mem_total_bytes: r.gauge(names::MEM_TOTAL_BYTES),
            mem_bytes_per_user: r.gauge(names::MEM_BYTES_PER_USER),
            mem_samples: r.counter(names::MEM_SAMPLES),
            frontend_submitted: r.counter(names::FRONTEND_SUBMITTED),
            frontend_decided: r.counter(names::FRONTEND_DECIDED),
            frontend_shed: r.counter(names::FRONTEND_SHED),
            frontend_queue_depth: r.gauge(names::FRONTEND_QUEUE_DEPTH),
            frontend_batch_size: r
                .histogram_with_buckets(names::FRONTEND_BATCH_SIZE, &BATCH_SIZE_BUCKETS),
            frontend_sojourn: r.sketch(names::FRONTEND_SOJOURN),
            audit: r.audit(),
            registry,
        }
    }

    /// The registry these handles resolve into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Resolves the per-detector observability pair for detector
    /// `name`: the `server.checkin.detector.{name}.rejected` counter
    /// and the `server.checkin.detector.{name}.latency` sketch
    /// (dashes in the stable detector name become underscores, keeping
    /// the metric namespace dot-and-underscore only).
    ///
    /// Called once per detector at pipeline assembly; the returned
    /// handles are hot-path-cheap.
    pub fn detector_metrics(&self, name: &str) -> (Counter, QuantileSketch) {
        (
            self.registry.counter(&names::detector_rejected(name)),
            self.registry.sketch(&names::detector_latency(name)),
        )
    }

    /// Resolves the `server.checkin.verifier.{name}.rejected` counter
    /// for a verifier stage.
    pub fn verifier_rejected_counter(&self, name: &str) -> Counter {
        self.registry.counter(&names::verifier_rejected(name))
    }

    /// The counter tracking how often `flag` has fired.
    pub fn flag_counter(&self, flag: CheatFlag) -> &Counter {
        match flag {
            CheatFlag::GpsMismatch => &self.flag_gps_mismatch,
            CheatFlag::TooFrequent => &self.flag_too_frequent,
            CheatFlag::SuperhumanSpeed => &self.flag_superhuman_speed,
            CheatFlag::RapidFire => &self.flag_rapid_fire,
            CheatFlag::AccountFlagged => &self.flag_account_flagged,
        }
    }
}

/// Times one decision's stages with one clock read per stage boundary.
/// Each [`Stopwatch::lap`] returns the nanoseconds since the previous
/// boundary, so consecutive laps tile the decision without gaps or
/// overlap, and a total made of laps is their sum by construction.
pub(crate) struct Stopwatch {
    /// The last boundary; `None` when the stopwatch is inert.
    last: Option<Instant>,
}

impl Stopwatch {
    /// Reads the clock once, unless the registry is disabled: then the
    /// stopwatch is inert, never reads the clock and every lap is 0.
    #[inline]
    pub(crate) fn start(metrics: &ServerMetrics) -> Self {
        Stopwatch {
            last: metrics.registry.is_enabled().then(Instant::now),
        }
    }

    /// Nanoseconds since the previous boundary, which this call becomes.
    #[inline]
    pub(crate) fn lap(&mut self) -> u64 {
        let Some(last) = self.last.as_mut() else {
            return 0;
        };
        let now = Instant::now();
        let nanos = now.duration_since(*last).as_nanos().min(u64::MAX as u128) as u64;
        *last = now;
        nanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsn_obs::Registry;

    #[test]
    fn stopwatch_is_inert_when_disabled() {
        let metrics = ServerMetrics::new(Arc::new(Registry::new()));
        assert!(Stopwatch::start(&metrics).last.is_some());
        metrics.registry().set_enabled(false);
        let mut inert = Stopwatch::start(&metrics);
        assert!(inert.last.is_none(), "a disabled registry reads no clock");
        assert_eq!(inert.lap(), 0);
    }

    #[test]
    fn flag_counters_are_distinct() {
        let metrics = ServerMetrics::new(Arc::new(Registry::new()));
        metrics.flag_counter(CheatFlag::GpsMismatch).inc();
        metrics.flag_counter(CheatFlag::RapidFire).add(2);
        let snap = metrics.registry().snapshot();
        assert_eq!(snap.counter("server.checkin.flag.gps_mismatch"), 1);
        assert_eq!(snap.counter("server.checkin.flag.rapid_fire"), 2);
        assert_eq!(snap.counter("server.checkin.flag.too_frequent"), 0);
    }
}
