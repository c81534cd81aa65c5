//! Workspace-wide observability: named metrics, quantile sketches,
//! spans, SLO rules, and a structured-event trace behind a
//! global-or-injected [`Registry`].
//!
//! Every hot path in the reproduction (check-in pipeline, crawler
//! workers, attack executor) holds pre-resolved handles, so no update
//! takes a map lookup or a lock. After one relaxed check of the enabled
//! flag, a counter update is one atomic RMW. A sketch record of 0 is
//! one RMW (the zero cell); any other value is one `ln` plus two
//! (bucket, sum), and a third only when the value moves the stripe's
//! min or max. Counters, sketches and the span and audit sampling
//! tickets are striped: each thread writes its own cache-padded stripe
//! (its dense thread number modulo 8) and reads merge the stripes, so
//! two threads recording the same series rarely share a cache line;
//! threads that do share a stripe still add up exactly, because every
//! stripe update is an atomic RMW. Disabling a registry turns every
//! update into the single flag check, and unsampled spans are fully
//! inert. The enabled layer's cost is measured by the `perf` benchmark
//! as `obs.overhead_pct` (registry on over registry off, per op); the
//! README's "Observability" section gives measured values.
//!
//! Metric names follow `subsystem.component.metric`, e.g.
//! `server.checkin.flag.gps_mismatch` or
//! `crawler.throughput.users_per_hour`.
//!
//! The layer answers three kinds of questions:
//!
//! - **What happened to this one request?** [`Span`]s (head-sampled,
//!   parent-linked, with attributes and timestamped events) follow a
//!   check-in, a crawl fetch, or an attack step through its stages, and
//!   [`chrome_trace_json`] exports them for `chrome://tracing`.
//! - **What is the tail doing?** [`QuantileSketch`]es give p50/p95/p99
//!   with a guaranteed relative-error bound. The sketch is the only
//!   type that records durations; callers read the clock themselves
//!   and record nanoseconds. [`Histogram`]s hold count-valued series
//!   only.
//! - **Did this run regress?** A [`Snapshot`] captures everything as
//!   schema-versioned JSON, and an [`SloPolicy`] turns thresholds into
//!   a machine-checkable gate (the `obs-report` binary in `lbsn-bench`).
//! - **Will it hold at paper scale?** [`MemFootprint`] gives deep
//!   owned-byte accounting for resident-memory gauges without allocator
//!   hooks, [`ShardHeat`] keeps per-shard contention heatmaps that
//!   expose skew across lock stripes, and the [`flight`] recorder turns
//!   a panic mid-run into a forensic dump (open spans, last trace
//!   events and decisions, final snapshot) instead of a bare backtrace.
//! - **Why was this account branded?** The decision [`audit`] plane
//!   captures one wide [`DecisionRecord`] per admitted-or-refused
//!   check-in (detector verdicts with compared thresholds, verifier
//!   votes, reward outcomes, per-stage nanos) into a lock-striped
//!   bounded ring with outcome-biased tail sampling — every negative is
//!   retained, accepts are sampled 1-in-N — and folds them into
//!   per-account [`AccountForensics`] timelines that survive ring
//!   eviction. The `obs-audit` binary in `lbsn-bench` answers
//!   `why <user>`, `top-offenders`, and `reason-histogram` against a
//!   snapshot or JSONL dump.

pub mod audit;
mod export;
pub mod flight;
mod heat;
pub mod mem;
mod metrics;
pub mod names;
mod registry;
mod sketch;
mod slo;
mod snapshot;
mod span;
mod trace;

pub use audit::{
    fold_records, AccountForensics, AuditConfig, AuditPlane, DecisionBuilder, DecisionOutcome,
    DecisionRecord, DetectorVerdict, RewardSummary, StageNanos, VerifierVote,
    MAX_DETECTOR_VERDICTS, MAX_VERIFIER_VOTES,
};
pub use export::chrome_trace_json;
pub use flight::{arm, disarm, dump_flight, FlightDump};
pub use heat::ShardHeat;
pub use mem::MemFootprint;
pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{global, ObsConfig, Registry};
pub use sketch::{QuantileSketch, DEFAULT_SKETCH_ALPHA};
pub use slo::{SloOutcome, SloPolicy, SloRule};
pub use snapshot::{
    BucketSnapshot, EventRecord, HistogramSnapshot, ShardHeatRow, ShardHeatSnapshot, SketchBucket,
    SketchSnapshot, Snapshot, SNAPSHOT_SCHEMA_VERSION,
};
pub use span::{OpenSpan, Span, SpanEventRecord, SpanRecord};
pub use trace::EventTrace;
