//! `hot_venues`: two closed-loop threads check in to eight venues.
//!
//! The world (100 k entities) fits in cache; every op goes to one of
//! eight venues about 250 m apart, each user always to the same one, so
//! every op is accepted and challenges its venue's mayor. This is the
//! maximum-contention shape for the venue shards and the admission lock
//! protocol; the frontend and bulk load play no part in the measured
//! phase.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lbsn_geo::{destination, GeoPoint};
use lbsn_obs::names::server as obs_names;
use lbsn_server::{CheckinRequest, CheckinSource, UserId, VenueId, VenueSpec};
use lbsn_sim::RngStream;
use lbsn_workload::PopulationSpec;

use crate::measure::{median, Latencies};
use crate::probe::Probes;
use crate::report::Report;
use crate::trace::{Layer, Tracer};
use crate::world::{
    admit, build_world, layer_metrics, ns_per_op, rebuild, LayerInputs, Params, TraceState, World,
    FULL_ENTITIES,
};

const THREADS: usize = 2;
const HOT_VENUES: u64 = 8;
const SPACING_M: f64 = 250.0;
/// Virtual seconds per op: a user returns to its venue about two weeks
/// later, so no detector window ever holds two of its check-ins.
const ADVANCE_S: u64 = 61;

/// One thread's fixed op sequence: its shuffled user pool, each user
/// bound to one venue, cycled.
struct Plan {
    users: Vec<UserId>,
    venues: Arc<Vec<(VenueId, GeoPoint)>>,
    next: u64,
}

impl Plan {
    fn next(&mut self) -> (u64, CheckinRequest) {
        let i = self.next;
        self.next += 1;
        let user = self.users[(i % self.users.len() as u64) as usize];
        let (venue, loc) = self.venues[(user.value() % HOT_VENUES) as usize];
        let req = CheckinRequest {
            user,
            venue,
            reported_location: loc,
            source: CheckinSource::MobileApp,
        };
        (i, req)
    }
}

/// When a loop stops: after a number of ops (untimed warm-up), or at a
/// timed phase's deadline.
#[derive(Clone, Copy)]
enum Until {
    Ops(u64),
    Deadline(Instant),
}

/// What one thread did in a phase.
struct Done {
    ops: u64,
    rejected: u64,
    lat: Latencies,
    tracer: Option<TraceState>,
}

fn thread_loop(world: &World, plan: &mut Plan, until: Until, mut tr: Option<TraceState>) -> Done {
    let server = &*world.server;
    let (limit, deadline) = match until {
        Until::Ops(n) => (n, None),
        Until::Deadline(d) => (u64::MAX, Some(d)),
    };
    let (mut ops, mut rejected) = (0u64, 0u64);
    let mut lat = Latencies::default();
    while ops < limit && !(ops.is_multiple_of(64) && deadline.is_some_and(|d| Instant::now() >= d))
    {
        server.clock().advance(lbsn_sim::Duration::secs(ADVANCE_S));
        let (i, req) = plan.next();
        let a = admit(server, &req, i, None, tr.as_mut());
        if !a.accepted() {
            rejected += 1;
        }
        lat.record(a.latency);
        ops += 1;
    }
    Done {
        ops,
        rejected,
        lat,
        tracer: tr,
    }
}

/// What both threads did in a phase.
struct Phase {
    ops: u64,
    rejected: u64,
    lat: Latencies,
    tracers: Vec<TraceState>,
    elapsed: Duration,
}

/// Runs both threads until `until`.
fn phase(
    world: &World,
    plans: &mut [Plan],
    until: Until,
    tracers: Option<Vec<TraceState>>,
) -> Phase {
    let start = Instant::now();
    let mut tracers: Vec<Option<TraceState>> = match tracers {
        Some(t) => t.into_iter().map(Some).collect(),
        None => plans.iter().map(|_| None).collect(),
    };
    let done: Vec<Done> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(plan, tr)| {
                let tr = tr.take();
                s.spawn(move || thread_loop(world, plan, until, tr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("hot_venues thread panicked"))
            .collect()
    });
    let mut p = Phase {
        ops: 0,
        rejected: 0,
        lat: Latencies::default(),
        tracers: Vec::new(),
        elapsed: start.elapsed(),
    };
    for d in done {
        p.ops += d.ops;
        p.rejected += d.rejected;
        p.lat.extend(d.lat);
        p.tracers.extend(d.tracer);
    }
    p
}

/// Runs the workload; returns its report and tracer.
pub fn run(p: &Params, origin: Instant) -> (Report, Tracer) {
    let sizes = p.sizes();
    let mut r = Report::default();
    let mut tr = Tracer::new(origin, 0, sizes.span_capacity);
    let spec = PopulationSpec::at_scale(sizes.hot_entities / FULL_ENTITIES, p.seed_for(1));
    let centre = GeoPoint::new(35.0844, -106.6504).expect("valid coordinates");

    let build = |tr: &mut Tracer, ctx| {
        let world = World::bulk(&spec, tr, ctx);
        let venues: Vec<(VenueId, GeoPoint)> = (0..HOT_VENUES)
            .map(|k| {
                let loc = destination(centre, 90.0, SPACING_M * k as f64);
                let id = world
                    .server
                    .register_venue(VenueSpec::new(format!("Hot venue {k}"), loc));
                (id, loc)
            })
            .collect();
        (world, venues)
    };
    let ((world, venues), first_setup) = build_world(0, &mut tr, build);
    let rss_after_setup = crate::measure::rss_mb();
    let venues = Arc::new(venues);
    let mut plans: Vec<Plan> = tr.time(Layer::Input, None, || {
        (0..THREADS as u64)
            .map(|t| {
                let mut users: Vec<UserId> = (1..=sizes.hot_pool)
                    .map(|k| UserId(t * sizes.hot_pool + k))
                    .collect();
                RngStream::from_seed(p.seed_for(2 + t)).shuffle(&mut users);
                Plan {
                    users,
                    venues: Arc::clone(&venues),
                    next: 0,
                }
            })
            .collect()
    });
    r.note(format!(
        "hot_venues: {} users, {} venues, {THREADS} closed-loop threads on {HOT_VENUES} venues",
        world.server.user_count(),
        world.server.venue_count(),
    ));

    let peak_rss = crate::measure::peak_rss_mb();
    let warm = phase(&world, &mut plans, Until::Ops(sizes.hot_warmup), None);
    let accepted_before = world.registry.snapshot().counter(obs_names::ACCEPTED);
    let mut attempted = warm.ops;
    let mut failed = warm.rejected;
    let timed = |secs: f64| Until::Deadline(Instant::now() + Duration::from_secs_f64(secs));

    if !p.traced {
        let mut m = phase(&world, &mut plans, timed(p.seconds), None);
        attempted += m.ops;
        failed += m.rejected;
        let accepted = world.registry.snapshot().counter(obs_names::ACCEPTED) - accepted_before;
        r.check(accepted == m.ops, || {
            format!("accepted counter {accepted} != {} measured ops", m.ops)
        });
        r.note(format!(
            "  check-in p99 {:.1} us",
            m.lat.quantile_ns(0.99) / 1e3
        ));
        r.metric("ops_per_s", m.ops as f64 / m.elapsed.as_secs_f64());
        r.metric("op_p50_us", m.lat.quantile_ns(0.5) / 1e3);
        r.metric("peak_rss_mb", peak_rss);
    } else {
        let third = p.seconds / 3.0;
        let plain = phase(&world, &mut plans, timed(third), None);
        let probes = Arc::new(Probes::new(&world.server, true));
        let states = (0..THREADS as u32)
            .map(|t| TraceState {
                tracer: Tracer::new(origin, t + 1, sizes.span_capacity / THREADS),
                probes: Arc::clone(&probes),
            })
            .collect();
        let traced = phase(&world, &mut plans, timed(third), Some(states));
        world.registry.set_enabled(false);
        let off = phase(&world, &mut plans, timed(third), None);
        world.registry.set_enabled(true);
        attempted += plain.ops + traced.ops + off.ops;
        failed += plain.rejected + traced.rejected + off.rejected;
        for s in traced.tracers {
            tr.merge(s.tracer);
        }
        layer_metrics(
            &mut r,
            &mut tr,
            &world,
            LayerInputs {
                batched: None,
                plain_ns: ns_per_op(plain.elapsed, plain.ops),
                traced_ns: ns_per_op(traced.elapsed, traced.ops),
                obs_off_ns: ns_per_op(off.elapsed, off.ops),
                rss_after_setup_mb: rss_after_setup,
            },
        );
    }
    r.attempted = attempted;
    r.fail_ops(failed, || "hot_venues check-in not accepted".to_string());
    drop(world);
    let mut setups = vec![first_setup];
    rebuild(sizes.small_setups, &mut tr, &mut setups, build);
    if !p.traced {
        r.metric("setup_s", median(&setups));
    }
    (r, tr)
}
