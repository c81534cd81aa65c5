//! `paper_rung_frontend`: check-ins through the batched request frontend
//! on a bulk-loaded world far larger than the CPU caches.
//!
//! Arrivals walk a seeded permutation of all users (a user comes back
//! only after every other user has checked in, months of virtual time
//! later) at uniformly random venues. Every fiftieth user of the
//! permutation is a spoofer reporting a fix 5 km off, which the GPS rule
//! rejects whatever the timing. The latency phase is an open-loop
//! Poisson stream at a fixed rate, timed by the frontend's own sojourn
//! sketch; the capacity phase is a closed loop holding 1024 tickets.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lbsn_geo::{destination, GeoPoint};
use lbsn_obs::names::server as obs_names;
use lbsn_obs::Snapshot;
use lbsn_server::{
    CheatFlag, CheckinError, CheckinOutcome, CheckinRequest, CheckinSource, CheckinTicket,
    FrontendConfig, RequestFrontend, SubmitOutcome, UserId, VenueId,
};
use lbsn_sim::RngStream;
use lbsn_workload::PopulationSpec;

use crate::measure::{median, spin_until, Latencies, Poisson};
use crate::probe::{venue_locations, Probes, SAMPLE_EVERY};
use crate::report::Report;
use crate::trace::{Layer, Tracer};
use crate::world::{
    build_world, layer_metrics, ns_per_op, rebuild, LayerInputs, Params, TraceState, World,
};

/// Virtual seconds per arrival.
const ADVANCE_S: u64 = 121;
/// One user in this many (by permutation position) is a spoofer.
const SPOOF_EVERY: usize = 50;
const SPOOF_M: f64 = 5_000.0;
/// Tickets the capacity phase keeps outstanding.
const OUTSTANDING: usize = 1024;
const BATCH: usize = 64;
const CONFIG: FrontendConfig = FrontendConfig {
    workers: 1,
    queue_depth: 1024,
    batch_max: BATCH,
};

/// The arrival stream: permuted users, uniform venues, spoofed fixes.
struct Arrivals {
    users: Vec<UserId>,
    locations: Vec<GeoPoint>,
    rng: RngStream,
    next: usize,
}

impl Arrivals {
    /// The next request, its index, and whether it is spoofed.
    fn next(&mut self) -> (u64, CheckinRequest, bool) {
        let i = self.next;
        self.next += 1;
        let pos = i % self.users.len();
        let spoofed = pos.is_multiple_of(SPOOF_EVERY);
        let v = self.rng.range_u64(0, self.locations.len() as u64) as usize;
        let mut loc = self.locations[v];
        if spoofed {
            loc = destination(loc, self.rng.range_f64(0.0, 360.0), SPOOF_M);
        }
        let req = CheckinRequest {
            user: self.users[pos],
            venue: VenueId(v as u64 + 1),
            reported_location: loc,
            source: CheckinSource::MobileApp,
        };
        (i as u64, req, spoofed)
    }
}

/// Submissions the counters must account for.
#[derive(Default)]
struct Expected {
    honest: u64,
    spoofed: u64,
    shed: u64,
}

/// Whether a decided check-in came out as its kind must.
fn as_expected(out: &Result<CheckinOutcome, CheckinError>, spoofed: bool) -> bool {
    match out {
        Ok(o) if spoofed => o.flags == [CheatFlag::GpsMismatch],
        Ok(o) => o.rewarded(),
        Err(_) => false,
    }
}

/// The program's counters, summed over registry resets.
#[derive(Default)]
struct Totals {
    submitted: u64,
    decided: u64,
    shed: u64,
    accepted: u64,
    rejected: u64,
    gps_mismatch: u64,
}

impl Totals {
    fn absorb(&mut self, snap: &Snapshot) {
        self.submitted += snap.counter(obs_names::FRONTEND_SUBMITTED);
        self.decided += snap.counter(obs_names::FRONTEND_DECIDED);
        self.shed += snap.counter(obs_names::FRONTEND_SHED);
        self.accepted += snap.counter(obs_names::ACCEPTED);
        self.rejected += snap.counter(obs_names::REJECTED);
        self.gps_mismatch += snap.counter(obs_names::FLAG_GPS_MISMATCH);
    }
}

struct Driver<'a> {
    world: &'a World,
    frontend: RequestFrontend,
    arrivals: Arrivals,
    expected: Expected,
    totals: Totals,
    mismatched: u64,
    tracing: Option<TraceState>,
}

impl Driver<'_> {
    /// Submits the next arrival (probing it first when traced and
    /// sampled); returns its ticket and kind, or `None` when shed.
    fn submit(&mut self) -> Option<(CheckinTicket, bool)> {
        let server = &self.world.server;
        server.clock().advance(lbsn_sim::Duration::secs(ADVANCE_S));
        let (i, req, spoofed) = self.arrivals.next();
        let outcome = match self.tracing.as_mut() {
            None => self.frontend.submit(req),
            Some(t) => {
                let root = i
                    .is_multiple_of(SAMPLE_EVERY)
                    .then(|| t.tracer.open(Layer::Request, i, None));
                if let Some((ctx, _)) = root {
                    t.probes.run(&mut t.tracer, ctx, &req, server.clock().now());
                }
                let frontend = &self.frontend;
                let out = t
                    .tracer
                    .time(Layer::Submit, root.map(|r| r.0), || frontend.submit(req));
                if let Some(root) = root {
                    t.tracer.close(Layer::Request, root);
                }
                out
            }
        };
        let counts = self.world.registry.is_enabled();
        match outcome {
            SubmitOutcome::Enqueued(ticket) => {
                if counts {
                    if spoofed {
                        self.expected.spoofed += 1;
                    } else {
                        self.expected.honest += 1;
                    }
                }
                Some((ticket, spoofed))
            }
            SubmitOutcome::Shed { .. } => {
                self.expected.shed += 1;
                None
            }
        }
    }

    /// Drains the frontend, adds the registry's counts to the totals and
    /// zeroes it; returns what it held.
    fn settle(&mut self) -> Snapshot {
        self.frontend.quiesce();
        let snap = self.world.registry.snapshot();
        self.totals.absorb(&snap);
        self.world.registry.reset();
        snap
    }

    /// Open loop at `rate` for `secs`: submits on a Poisson schedule and
    /// drops the tickets (the worker times each sojourn). Returns the
    /// submissions and the generator's lateness per arrival.
    fn open_loop(&mut self, rate: f64, secs: f64, seed: u64) -> (u64, Latencies) {
        let mut schedule = Poisson::new(RngStream::from_seed(seed), rate);
        let mut lag = Latencies::with_capacity((rate * secs * 1.1) as usize);
        let start = Instant::now();
        let mut n = 0;
        loop {
            let due_s = schedule.next_due();
            if due_s > secs {
                break;
            }
            let at = spin_until(start, due_s);
            lag.record(at - (start + Duration::from_secs_f64(due_s)));
            drop(self.submit());
            n += 1;
        }
        (n, lag)
    }

    /// The latency phase: an open loop at `rate` for `secs`, then the
    /// registry settled so the sojourn quantiles come from the
    /// frontend's own sketch of this phase's decisions. Returns arrivals,
    /// sojourn `(p50, p99)` in ns, and the generator's lateness.
    fn latency_phase(
        &mut self,
        rate: f64,
        secs: f64,
        seed: u64,
        r: &mut Report,
    ) -> (u64, (f64, f64), Latencies) {
        let (arrivals, lag) = self.open_loop(rate, secs, seed);
        let snap = self.settle();
        let decided = snap.counter(obs_names::FRONTEND_DECIDED);
        let Some(sojourn) = snap.sketches.get(obs_names::FRONTEND_SOJOURN) else {
            panic!("the frontend registers its sojourn sketch");
        };
        r.check(sojourn.count == decided, || {
            format!(
                "sojourn sketch holds {} samples for {decided} decided",
                sojourn.count
            )
        });
        let q = |q| sojourn.quantile(q) as f64;
        (arrivals, (q(0.5), q(0.99)), lag)
    }

    /// Closed loop holding [`OUTSTANDING`] tickets for `secs`, waiting on
    /// them oldest first. Returns the decisions and the wall time until
    /// the last ticket was decided.
    fn closed_loop(&mut self, secs: f64) -> (u64, Duration) {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        let mut window: VecDeque<(CheckinTicket, bool)> = VecDeque::with_capacity(OUTSTANDING);
        let (mut decided, mut submitting) = (0u64, true);
        while submitting || !window.is_empty() {
            if submitting && window.len() < OUTSTANDING {
                window.extend(self.submit());
                continue;
            }
            let Some((ticket, spoofed)) = window.pop_front() else {
                break;
            };
            let out = match self.tracing.as_mut() {
                Some(t) => t.tracer.time(Layer::TicketWait, None, || ticket.wait()),
                None => ticket.wait(),
            };
            if !as_expected(&out, spoofed) {
                self.mismatched += 1;
            }
            decided += 1;
            if decided.is_multiple_of(64) && Instant::now() >= deadline {
                submitting = false;
            }
        }
        (decided, start.elapsed())
    }

    /// Direct `check_in_batch` on same-user-shard batches of [`BATCH`]
    /// for `secs`: the admission cost the frontend hands work to.
    /// Returns ops and per-op cost samples (one per batch call).
    fn direct_batches(&mut self, secs: f64) -> (u64, Latencies) {
        let server = Arc::clone(&self.world.server);
        let mut pending: Vec<Vec<(CheckinRequest, bool)>> =
            vec![Vec::with_capacity(BATCH); server.shard_count()];
        let mut per_op = Latencies::default();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        let mut ops = 0u64;
        while !ops.is_multiple_of(256) || Instant::now() < deadline {
            server.clock().advance(lbsn_sim::Duration::secs(ADVANCE_S));
            let (_, req, spoofed) = self.arrivals.next();
            let shard = server.user_shard(req.user);
            pending[shard].push((req, spoofed));
            ops += 1;
            if pending[shard].len() < BATCH {
                continue;
            }
            let batch: Vec<CheckinRequest> = pending[shard].iter().map(|(r, _)| *r).collect();
            let t0 = Instant::now();
            let outs = server.check_in_batch(&batch);
            let d = t0.elapsed();
            per_op.record(d / BATCH as u32);
            if let Some(t) = self.tracing.as_mut() {
                t.tracer.finish(Layer::CheckInBatch, None, t0, t0 + d);
            }
            for (out, (_, spoofed)) in outs.iter().zip(pending[shard].drain(..)) {
                if !as_expected(out, spoofed) {
                    self.mismatched += 1;
                }
                if spoofed {
                    self.expected.spoofed += 1;
                } else {
                    self.expected.honest += 1;
                }
            }
        }
        // Ops still pending never reach the server.
        let unsent: usize = pending.iter().map(Vec::len).sum();
        (ops - unsent as u64, per_op)
    }
}

/// Runs the workload; returns its report and tracer.
pub fn run(p: &Params, origin: Instant) -> (Report, Tracer) {
    let sizes = p.sizes();
    let mut r = Report::default();
    let mut tr = Tracer::new(origin, 0, sizes.span_capacity);
    let spec = PopulationSpec::at_scale(sizes.frontend_scale, p.seed_for(1));
    let bulk = |tr: &mut Tracer, ctx| World::bulk(&spec, tr, ctx);
    let (world, first_setup) = build_world(0, &mut tr, bulk);
    let rss_after_setup = crate::measure::rss_mb();
    let arrivals = tr.time(Layer::Input, None, || {
        let mut users: Vec<UserId> = (1..=world.server.user_count()).map(UserId).collect();
        let mut rng = RngStream::from_seed(p.seed_for(2));
        rng.shuffle(&mut users);
        Arrivals {
            users,
            locations: venue_locations(&world.server),
            rng,
            next: 0,
        }
    });
    r.note(format!(
        "paper_rung_frontend: {} users, {} venues, frontend {CONFIG:?}, \
         open loop at {} /s, closed loop at {OUTSTANDING} outstanding",
        world.server.user_count(),
        world.server.venue_count(),
        sizes.frontend_rate,
    ));
    let peak_rss = crate::measure::peak_rss_mb();
    let mut d = Driver {
        world: &world,
        frontend: RequestFrontend::new(Arc::clone(&world.server), CONFIG),
        arrivals,
        expected: Expected::default(),
        totals: Totals::default(),
        mismatched: 0,
        tracing: None,
    };

    // Warm-up at the measured rate, then count from zero.
    let (warm, _) = d.open_loop(sizes.frontend_rate, p.seconds * 0.1, p.seed_for(3));
    d.settle();
    d.totals = Totals::default();
    d.expected = Expected::default();
    let mut attempted = warm;

    let (lat_share, cap_share) = if p.traced { (0.3, 0.15) } else { (0.45, 0.45) };
    if p.traced {
        d.tracing = Some(TraceState {
            tracer: Tracer::new(origin, 1, sizes.span_capacity),
            probes: Arc::new(Probes::new(&world.server, true)),
        });
    }
    let (lat_ops, (p50, p99), mut lag) = d.latency_phase(
        sizes.frontend_rate,
        p.seconds * lat_share,
        p.seed_for(4),
        &mut r,
    );
    attempted += lat_ops;
    r.note(format!(
        "  latency phase: {lat_ops} arrivals; sojourn p50 {:.1} us, p99 {:.1} us; \
         generator lag p99 {:.1} us",
        p50 / 1e3,
        p99 / 1e3,
        lag.quantile_ns(0.99) / 1e3,
    ));

    // The capacity phase; a traced run repeats it with the registry off
    // and traced, to price telemetry and tracing.
    let traced = d.tracing.take();
    let (cap_ops, cap_elapsed) = d.closed_loop(p.seconds * cap_share);
    d.settle();
    attempted += cap_ops;
    let cap_ns = ns_per_op(cap_elapsed, cap_ops);

    if !p.traced {
        check_counters(&mut r, &d.totals, &d.expected);
        r.metric("ops_per_s", 1e9 / cap_ns);
        r.metric("op_p50_us", p50 / 1e3);
        r.metric("peak_rss_mb", peak_rss);
    } else {
        world.registry.set_enabled(false);
        let (off, off_elapsed) = d.closed_loop(p.seconds * cap_share);
        world.registry.set_enabled(true);
        d.tracing = traced;
        let (b_ops, mut per_op) = d.direct_batches(p.seconds * cap_share);
        d.settle();
        let (t, t_elapsed) = d.closed_loop(p.seconds * cap_share);
        // The traced phase's counts stay in the registry for the layer
        // metrics; the oracle adds them without a reset.
        d.frontend.quiesce();
        d.totals.absorb(&world.registry.snapshot());
        check_counters(&mut r, &d.totals, &d.expected);
        let state = d.tracing.take().expect("tracing state");
        attempted += off + b_ops + t;
        r.note(format!(
            "  hand-off: capacity {cap_ns:.0} ns/op - direct {BATCH}-op batches {:.0} ns/op \
             = {:.0} ns/op",
            per_op.mean_ns(),
            cap_ns - per_op.mean_ns(),
        ));
        tr.merge(state.tracer);
        layer_metrics(
            &mut r,
            &mut tr,
            &world,
            LayerInputs {
                batched: Some(&mut per_op),
                plain_ns: cap_ns,
                traced_ns: ns_per_op(t_elapsed, t),
                obs_off_ns: ns_per_op(off_elapsed, off),
                rss_after_setup_mb: rss_after_setup,
            },
        );
    }
    d.frontend.shutdown();
    r.attempted = attempted;
    r.fail_ops(d.mismatched, || {
        "frontend decision differs from the arrival's kind".to_string()
    });
    r.fail_ops(d.expected.shed, || "frontend shed a submission".to_string());
    drop(world);
    let mut setups = vec![first_setup];
    rebuild(sizes.setups, &mut tr, &mut setups, bulk);
    if !p.traced {
        r.metric("setup_s", median(&setups));
    }
    (r, tr)
}

/// Frontend conservation and outcome counts over the measured phases.
fn check_counters(r: &mut Report, t: &Totals, e: &Expected) {
    r.check(t.decided + t.shed == t.submitted, || {
        format!(
            "decided {} + shed {} != submitted {}",
            t.decided, t.shed, t.submitted
        )
    });
    r.check(t.accepted == e.honest, || {
        format!("accepted {} != honest admitted {}", t.accepted, e.honest)
    });
    r.check(
        t.rejected == e.spoofed && t.gps_mismatch == e.spoofed,
        || {
            format!(
                "rejected {} and gps_mismatch flags {} != spoofed admitted {}",
                t.rejected, t.gps_mismatch, e.spoofed
            )
        },
    );
}
