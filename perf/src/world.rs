//! What every workload shares: run parameters and sizes, world
//! construction with repeated timed set-up, the direct admission call,
//! and the per-layer metrics read off a traced run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lbsn_obs::names::server as obs_names;
use lbsn_obs::Registry;
use lbsn_server::{CheckinError, CheckinOutcome, CheckinRequest, LbsnServer, ServerConfig};
use lbsn_sim::SimClock;
use lbsn_workload::{register_world_bulk, PopulationSpec};

use crate::measure::{quantile, Latencies};
use crate::probe::{Probes, SAMPLE_EVERY};
use crate::report::Report;
use crate::trace::{Layer, SpanCtx, Tracer};

/// Total entities (users + venues) of the paper's full world.
pub const FULL_ENTITIES: f64 = 7_490_000.0;

/// One invocation's inputs. The seed is the only workload knob; sizes
/// and rates are fixed below.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seeds every generated input.
    pub seed: u64,
    /// Measured time of the run (set-up excluded).
    pub seconds: f64,
    /// A traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Tiny worlds, for the smoke test.
    pub quick: bool,
}

impl Params {
    /// The fixed sizes for this run.
    pub fn sizes(&self) -> Sizes {
        if self.quick {
            Sizes {
                setups: 2,
                small_setups: 2,
                frontend_scale: 0.002,
                frontend_rate: 5_000.0,
                hot_entities: 10_000.0,
                hot_pool: 1_000,
                hot_warmup: 2_000,
                replay_users: 500,
                crawl_entities: 20_000.0,
                crawl_warmup: 2_000,
                crawl_rate: 5_000.0,
                span_capacity: 50_000,
            }
        } else {
            Sizes {
                setups: 5,
                small_setups: 9,
                frontend_scale: 0.1,
                frontend_rate: 50_000.0,
                hot_entities: 100_000.0,
                hot_pool: 10_000,
                hot_warmup: 25_000,
                replay_users: 18_900,
                crawl_entities: 1_000_000.0,
                crawl_warmup: 100_000,
                crawl_rate: 40_000.0,
                span_capacity: 60_000,
            }
        }
    }

    /// Derives an independent seed for one input stream.
    pub fn seed_for(&self, stream: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream)
    }
}

/// Fixed sizes and rates of every workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Builds per run of the bulk-loaded worlds; `setup_s` is their
    /// median. The first is the world the run uses; the rest are timed
    /// after the measured work (see [`rebuild`]). The same holds for
    /// `small_setups`.
    pub setups: usize,
    /// Builds per run of the small worlds, whose single builds are short
    /// enough for timer and scheduler noise to show.
    pub small_setups: usize,
    /// Population scale of the frontend world (1.0 = the paper's).
    pub frontend_scale: f64,
    /// Open-loop arrival rate of the frontend latency phase, per second.
    pub frontend_rate: f64,
    /// Entities of the hot-venue world.
    pub hot_entities: f64,
    /// Users per hot-venue thread.
    pub hot_pool: u64,
    /// Untimed check-ins per hot-venue thread before measuring.
    pub hot_warmup: u64,
    /// Users of the replayed population.
    pub replay_users: u64,
    /// Entities of the crawled world.
    pub crawl_entities: f64,
    /// Check-ins applied to the crawled world before the crawl.
    pub crawl_warmup: u64,
    /// Open-loop write rate during the crawl, per second.
    pub crawl_rate: f64,
    /// Spans a traced run keeps.
    pub span_capacity: usize,
}

/// A server with its own registry.
pub struct World {
    pub registry: Arc<Registry>,
    pub server: Arc<LbsnServer>,
}

impl World {
    /// An empty world with the default configuration.
    pub fn empty() -> Self {
        let registry = Arc::new(Registry::new());
        let server = Arc::new(LbsnServer::with_registry(
            SimClock::new(),
            ServerConfig::default(),
            Arc::clone(&registry),
        ));
        World { registry, server }
    }

    /// The paper's population at `spec`'s scale through the bulk-load
    /// path, compacted.
    pub fn bulk(spec: &PopulationSpec, tr: &mut Tracer, ctx: SpanCtx) -> Self {
        let world = World::empty();
        tr.time(Layer::Register, Some(ctx), || {
            register_world_bulk(&world.server, spec)
        });
        tr.time(Layer::Compact, Some(ctx), || world.server.compact_memory());
        world
    }
}

/// Builds set-up number `i` of a run; returns the world and how long the
/// build took, in seconds.
pub fn build_world<W>(
    i: usize,
    tr: &mut Tracer,
    build: impl FnOnce(&mut Tracer, SpanCtx) -> W,
) -> (W, f64) {
    let span = tr.open(Layer::Setup, i as u64, None);
    let started = span.1;
    let world = build(tr, span.0);
    tr.close(Layer::Setup, span);
    (world, started.elapsed().as_secs_f64())
}

/// Builds and drops worlds until `times` holds `n` set-up durations.
/// Workloads call this after their measured work and after dropping
/// their own world: memory readings then see one build, not the heap
/// left behind by `n`, and the set-up samples are spread over the run
/// instead of bunched at its start.
pub fn rebuild<W>(
    n: usize,
    tr: &mut Tracer,
    times: &mut Vec<f64>,
    mut build: impl FnMut(&mut Tracer, SpanCtx) -> W,
) {
    for i in times.len()..n {
        let (world, secs) = build_world(i, tr, &mut build);
        drop(world);
        times.push(secs);
    }
}

/// A traced loop's per-thread state.
pub struct TraceState {
    pub tracer: Tracer,
    pub probes: Arc<Probes>,
}

/// One admitted request: the decision and its latency.
pub struct Admitted {
    pub out: Result<CheckinOutcome, CheckinError>,
    pub latency: Duration,
}

impl Admitted {
    /// Whether the check-in was accepted and rewarded.
    pub fn accepted(&self) -> bool {
        matches!(&self.out, Ok(o) if o.rewarded())
    }
}

/// Admits `req` through `check_in`, timing it from `due` (an open
/// loop's scheduled time) or from the call itself. In a traced run,
/// request `i` is probed first when it is one of the sampled.
pub fn admit(
    server: &LbsnServer,
    req: &CheckinRequest,
    i: u64,
    due: Option<Instant>,
    tr: Option<&mut TraceState>,
) -> Admitted {
    let Some(t) = tr else {
        let start = Instant::now();
        let out = server.check_in(req);
        let end = Instant::now();
        return Admitted {
            out,
            latency: end - due.unwrap_or(start),
        };
    };
    let root = i
        .is_multiple_of(SAMPLE_EVERY)
        .then(|| t.tracer.open(Layer::Request, i, None));
    if let Some((ctx, _)) = root {
        t.probes.run(&mut t.tracer, ctx, req, server.clock().now());
    }
    let start = Instant::now();
    let out = server.check_in(req);
    let end = Instant::now();
    t.tracer
        .finish(Layer::CheckIn, root.map(|r| r.0), start, end);
    if let Some(root) = root {
        t.tracer.close(Layer::Request, root);
    }
    Admitted {
        out,
        latency: end - due.unwrap_or(start),
    }
}

/// Nanoseconds per op of a phase.
pub fn ns_per_op(elapsed: Duration, ops: u64) -> f64 {
    elapsed.as_nanos() as f64 / ops.max(1) as f64
}

/// Relative cost of `with` over `without`, percent.
pub fn overhead_pct(with: f64, without: f64) -> f64 {
    100.0 * (with - without) / without.max(1e-9)
}

/// What a traced run measured besides its tracer.
pub struct LayerInputs<'a> {
    /// Admission cost per check-in where it is not the traced
    /// `check_in` calls: per batched op through the frontend.
    pub batched: Option<&'a mut Latencies>,
    /// Per-op cost of the untraced, traced and registry-disabled phases.
    pub plain_ns: f64,
    pub traced_ns: f64,
    pub obs_off_ns: f64,
    /// Resident set once set-up finished.
    pub rss_after_setup_mb: f64,
}

/// Emits every per-layer metric from a traced run.
pub fn layer_metrics(r: &mut Report, tr: &mut Tracer, world: &World, inputs: LayerInputs<'_>) {
    let q = |tr: &mut Tracer, layer: Layer, p: f64| tr.calls(layer).quantile_ns(p);
    r.metric(
        "workload.input_s",
        tr.calls(Layer::Input).total_ns() as f64 / 1e9,
    );
    r.metric("workload.register_s", q(tr, Layer::Register, 0.5) / 1e9);

    let admission = match inputs.batched {
        Some(batched) => batched,
        None => tr.calls(Layer::CheckIn),
    };
    r.metric("admission.check_in_ns_p50", admission.quantile_ns(0.5));
    r.metric("admission.check_in_ns_p99", admission.quantile_ns(0.99));
    let admitted = admission.mean_ns().max(1e-9);
    // The components' cost per probed request: every probe evaluates
    // and appends; rewards run only where the pipeline runs them.
    let probed = tr.calls(Layer::Evaluate).len().max(1) as f64;
    let components: f64 = [
        Layer::Evaluate,
        Layer::HistoryPush,
        Layer::DecideMayor,
        Layer::EvaluateBadges,
    ]
    .iter()
    .map(|&l| tr.calls(l).total_ns() as f64)
    .sum::<f64>()
        / probed;
    r.metric(
        "admission.unattributed_pct",
        100.0 * (admitted - components) / admitted,
    );

    world.server.sample_memory();
    let snap = tr.time(Layer::Snapshot, None, || world.registry.snapshot());
    let decided = (snap.counter(obs_names::ACCEPTED) + snap.counter(obs_names::REJECTED)).max(1);
    let per_kop = |n: u64| 1000.0 * n as f64 / decided as f64;
    r.metric(
        "frontend.batch_mean",
        snap.histograms
            .get(obs_names::FRONTEND_BATCH_SIZE)
            .filter(|h| h.count > 0)
            .map_or(1.0, |h| h.mean()),
    );
    r.metric(
        "admission.lock_retry_per_kop",
        per_kop(snap.counter(obs_names::LOCK_RETRY)),
    );
    r.metric(
        "admission.lock_fallback",
        snap.counter(obs_names::LOCK_FALLBACK) as f64,
    );
    r.metric("shard.user_read_ns_p50", q(tr, Layer::UserRead, 0.5));
    r.metric("shard.venue_read_ns_p50", q(tr, Layer::VenueRead, 0.5));
    let contended: u64 = snap.shard_heat.iter().map(|h| h.total_contended()).sum();
    r.metric("shard.contended_per_kop", per_kop(contended));

    r.metric("cheatercode.evaluate_ns_p50", q(tr, Layer::Evaluate, 0.5));
    r.metric("cheatercode.evaluate_ns_p99", q(tr, Layer::Evaluate, 0.99));
    r.metric(
        "cheatercode.gps_proximity_ns_p50",
        q(tr, Layer::GpsRule, 0.5),
    );
    r.metric(
        "cheatercode.frequent_checkins_ns_p50",
        q(tr, Layer::CooldownRule, 0.5),
    );
    r.metric(
        "cheatercode.superhuman_speed_ns_p50",
        q(tr, Layer::SpeedRule, 0.5),
    );
    r.metric(
        "cheatercode.rapid_fire_ns_p50",
        q(tr, Layer::RapidFireRule, 0.5),
    );

    r.metric(
        "rewards.decide_mayor_ns_p50",
        q(tr, Layer::DecideMayor, 0.5),
    );
    r.metric(
        "rewards.decide_mayor_ns_p99",
        q(tr, Layer::DecideMayor, 0.99),
    );
    r.metric(
        "rewards.evaluate_badges_ns_p50",
        q(tr, Layer::EvaluateBadges, 0.5),
    );
    r.metric(
        "rewards.evaluate_badges_ns_p99",
        q(tr, Layer::EvaluateBadges, 0.99),
    );

    r.metric("history.push_ns_p50", q(tr, Layer::HistoryPush, 0.5));
    r.metric("history.window_scan_ns_p50", q(tr, Layer::WindowScan, 0.5));
    r.metric("history.window_scan_ns_p99", q(tr, Layer::WindowScan, 0.99));
    let mut records: Vec<u64> = Vec::with_capacity(world.server.user_count() as usize);
    let mut bytes = 0u64;
    world.server.for_each_user(|u| {
        records.push(u.history.len() as u64);
        bytes += u.history.encoded_bytes() as u64;
    });
    let total_records: u64 = records.iter().sum();
    records.sort_unstable();
    r.metric(
        "history.bytes_per_record",
        bytes as f64 / total_records.max(1) as f64,
    );

    r.metric("web.user_page_ns_p50", q(tr, Layer::UserPage, 0.5));
    r.metric("web.user_page_ns_p99", q(tr, Layer::UserPage, 0.99));
    r.metric("web.venue_page_ns_p50", q(tr, Layer::VenuePage, 0.5));
    r.metric("web.venue_page_ns_p99", q(tr, Layer::VenuePage, 0.99));
    r.metric("scrape.parse_ns_p50", q(tr, Layer::Parse, 0.5));
    r.metric("crawldb.insert_ns_p50", q(tr, Layer::Insert, 0.5));
    r.metric("crawldb.insert_ns_p99", q(tr, Layer::Insert, 0.99));

    r.metric(
        "obs.overhead_pct",
        overhead_pct(inputs.plain_ns, inputs.obs_off_ns),
    );
    r.metric("obs.snapshot_ms", tr.calls(Layer::Snapshot).mean_ns() / 1e6);
    r.metric("mem.rss_after_setup_mb", inputs.rss_after_setup_mb);
    r.metric(
        "mem.bytes_per_user",
        snap.gauge(obs_names::MEM_BYTES_PER_USER),
    );
    r.metric(
        "trace.overhead_pct",
        overhead_pct(inputs.traced_ns, inputs.plain_ns),
    );
    // Behaviour, not cost: the oracles pin it, the notes show it.
    r.note(format!(
        "  flagged {:.4} of decisions; per 1000 decisions {:.1} mayorships, {:.1} badges; \
         history p99 {} records; pages {:.0} bytes on average",
        snap.counter(obs_names::REJECTED) as f64 / decided as f64,
        per_kop(snap.counter(obs_names::MAYORSHIPS_GRANTED)),
        per_kop(snap.counter(obs_names::BADGES_GRANTED)),
        quantile(&records, 0.99),
        tr.page_bytes_mean(),
    ));
}
