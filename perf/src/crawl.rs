//! `crawl_under_checkins`: the §3.2 crawler walking profile pages while
//! check-ins keep arriving.
//!
//! Thread A is the crawler, a closed loop of crawl steps in id order: a
//! step renders a user page and a venue page via the web frontend,
//! scrapes both and stores the rows in the crawl database. Thread B
//! writes open-loop Poisson check-ins at a fixed rate, timed from when
//! each was due. The write rate never depends on the system's speed, so
//! a faster write path leaves the read-side load unchanged and a write
//! change that costs reads still shows.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lbsn_crawler::CrawlDatabase;
use lbsn_geo::GeoPoint;
use lbsn_obs::names::server as obs_names;
use lbsn_server::web::WebFrontend;
use lbsn_server::{CheckinRequest, CheckinSource, LbsnServer, UserId, VenueId};
use lbsn_sim::RngStream;
use lbsn_workload::PopulationSpec;

use crate::measure::{median, spin_until, Latencies, Poisson};
use crate::probe::{fetch_user, fetch_venue, venue_locations, Probes, SAMPLE_EVERY};
use crate::report::Report;
use crate::trace::{Layer, SpanCtx, Tracer};
use crate::world::{
    admit, build_world, layer_metrics, ns_per_op, rebuild, LayerInputs, Params, TraceState, World,
    FULL_ENTITIES,
};

/// Virtual seconds per write.
const ADVANCE_S: u64 = 121;
/// Every this many crawl steps, the stored rows are compared with the
/// server's.
const AUDIT_EVERY: u64 = 1_000;
/// Crawl steps stored per crawl database. Storing a venue row scans
/// every visitor row already stored, so one database for the whole run
/// would make each step dearer than the last and tie a step's cost to
/// how fast the earlier ones went; fixed-size batches keep the
/// per-step work the same all run.
const BATCH_STEPS: u64 = 10_000;

/// The write stream: users on a seeded permutation cycle, uniform
/// venues, honest fixes.
struct Writes {
    users: Vec<UserId>,
    locations: Vec<GeoPoint>,
    rng: RngStream,
    next: u64,
}

impl Writes {
    fn next(&mut self) -> (u64, CheckinRequest) {
        let i = self.next;
        self.next += 1;
        let v = self.rng.range_u64(0, self.locations.len() as u64) as usize;
        let req = CheckinRequest {
            user: self.users[(i % self.users.len() as u64) as usize],
            venue: VenueId(v as u64 + 1),
            reported_location: self.locations[v],
            source: CheckinSource::MobileApp,
        };
        (i, req)
    }
}

/// What the crawler thread did.
struct Crawled {
    steps: u64,
    errors: Vec<String>,
    mismatched: u64,
    lat: Latencies,
    bytes: u64,
    elapsed: Duration,
    tracer: Option<Tracer>,
}

/// Crawls until `deadline`, then raises `done`. Step `k` fetches,
/// scrapes and stores user `k` and venue `k` (ids wrap), so every step
/// does the same kind of work. Every [`BATCH_STEPS`] steps the filled
/// database is audited and replaced by an empty one.
fn crawler(
    server: &Arc<LbsnServer>,
    deadline: Instant,
    done: &AtomicBool,
    mut tracer: Option<Tracer>,
) -> Crawled {
    let web = WebFrontend::new(Arc::clone(server));
    let (users, venues) = (server.user_count(), server.venue_count());
    let ids = |k: u64| (UserId(k % users + 1), VenueId(k % venues + 1));
    let mut lat = Latencies::default();
    let mut db = CrawlDatabase::new();
    let (mut steps, mut bytes, mut mismatched, mut errors) = (0u64, 0u64, 0u64, Vec::new());
    let start = Instant::now();
    while !steps.is_multiple_of(64) || Instant::now() < deadline {
        if steps > 0 && steps.is_multiple_of(BATCH_STEPS) {
            mismatched += audit(server, &db, (steps - BATCH_STEPS..steps).map(ids));
            db = CrawlDatabase::new();
        }
        let (user, venue) = ids(steps);
        let t0 = Instant::now();
        let root = tracer
            .as_mut()
            .filter(|_| steps.is_multiple_of(SAMPLE_EVERY))
            .map(|t| t.open(Layer::CrawlStep, steps, None));
        let ctx = root.map_or(SpanCtx::detached(steps), |r| r.0);
        let mut traced = tracer.as_mut().map(|t| (t, ctx));
        let got = fetch_user(&web, &db, user, &mut traced)
            .and_then(|a| Ok(a + fetch_venue(&web, &db, venue, &mut traced)?));
        let t1 = Instant::now();
        lat.record(t1 - t0);
        if let Some(t) = tracer.as_mut() {
            match root {
                Some(root) => t.close(Layer::CrawlStep, root),
                None => t.finish(Layer::CrawlStep, None, t0, t1),
            }
        }
        match got {
            Ok(n) => bytes += n as u64,
            Err(e) => errors.push(e),
        }
        steps += 1;
    }
    let elapsed = start.elapsed();
    done.store(true, Ordering::Release);
    let last_batch = steps.saturating_sub(1) / BATCH_STEPS * BATCH_STEPS;
    mismatched += audit(server, &db, (last_batch..steps).map(ids));
    Crawled {
        steps,
        errors,
        mismatched,
        lat,
        bytes,
        elapsed,
        tracer,
    }
}

/// Compares every [`AUDIT_EVERY`]th crawled pair in `db` with the
/// server; returns how many rows differ.
fn audit(
    server: &LbsnServer,
    db: &CrawlDatabase,
    pairs: impl Iterator<Item = (UserId, VenueId)>,
) -> u64 {
    pairs
        .step_by(AUDIT_EVERY as usize)
        .map(|(u, v)| {
            u64::from(!user_matches(server, db, u)) + u64::from(!venue_matches(server, db, v))
        })
        .sum()
}

/// What the writer thread did.
struct Written {
    ops: u64,
    rejected: u64,
    from_due: Latencies,
    lag: Latencies,
}

/// The world under crawl and its write stream.
struct Crawl<'a> {
    world: &'a World,
    writes: Writes,
    rate: f64,
}

impl Crawl<'_> {
    /// Open-loop writes at the fixed rate until `done`, each timed from
    /// when it was due.
    fn write(&mut self, seed: u64, done: &AtomicBool, mut tr: Option<&mut TraceState>) -> Written {
        let server = &*self.world.server;
        let mut schedule = Poisson::new(RngStream::from_seed(seed), self.rate);
        let mut from_due = Latencies::with_capacity(1 << 19);
        let mut lag = Latencies::with_capacity(1 << 19);
        let (mut ops, mut rejected) = (0u64, 0u64);
        let start = Instant::now();
        while !done.load(Ordering::Acquire) {
            let due_s = schedule.next_due();
            let due = start + Duration::from_secs_f64(due_s);
            lag.record(spin_until(start, due_s) - due);
            server.clock().advance(lbsn_sim::Duration::secs(ADVANCE_S));
            let (i, req) = self.writes.next();
            let a = admit(server, &req, i, Some(due), tr.as_deref_mut());
            from_due.record(a.latency);
            if !a.accepted() {
                rejected += 1;
            }
            ops += 1;
        }
        Written {
            ops,
            rejected,
            from_due,
            lag,
        }
    }

    /// Crawls for `secs` while writing.
    fn phase(
        &mut self,
        secs: f64,
        seed: u64,
        crawl_tracer: Option<Tracer>,
        write_trace: Option<&mut TraceState>,
    ) -> (Crawled, Written) {
        let done = AtomicBool::new(false);
        let server = Arc::clone(&self.world.server);
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        std::thread::scope(|s| {
            let crawl = s.spawn(|| crawler(&server, deadline, &done, crawl_tracer));
            let written = self.write(seed, &done, write_trace);
            (crawl.join().expect("crawler thread panicked"), written)
        })
    }
}

/// Whether the stored user row agrees with the server on the fields
/// that never change after registration.
fn user_matches(server: &LbsnServer, db: &CrawlDatabase, id: UserId) -> bool {
    let Some(row) = db.user(id.value()) else {
        return false;
    };
    let truth = server.with_user(id, |u| (u.username.clone(), u.home));
    truth.is_some_and(|(name, home)| {
        let home = home.map(|h| format!("{:.4}, {:.4}", h.lat(), h.lon()));
        row.username == name && row.home == home
    })
}

/// Whether the stored venue row agrees with the server on the fields
/// that never change after registration.
fn venue_matches(server: &LbsnServer, db: &CrawlDatabase, id: VenueId) -> bool {
    let Some(row) = db.venue(id.value()) else {
        return false;
    };
    let truth = server.with_venue(id, |v| {
        (
            v.name().to_string(),
            v.address().to_string(),
            v.category.label(),
            v.location,
        )
    });
    truth.is_some_and(|(name, address, category, loc)| {
        row.name == name
            && row.address == address
            && row.category == category
            && (row.location.lat() - loc.lat()).abs() < 1e-6
            && (row.location.lon() - loc.lon()).abs() < 1e-6
    })
}

/// Runs the workload; returns its report and tracer.
pub fn run(p: &Params, origin: Instant) -> (Report, Tracer) {
    let sizes = p.sizes();
    let mut r = Report::default();
    let mut tr = Tracer::new(origin, 0, sizes.span_capacity);
    let spec = PopulationSpec::at_scale(sizes.crawl_entities / FULL_ENTITIES, p.seed_for(1));
    let bulk = |tr: &mut Tracer, ctx| World::bulk(&spec, tr, ctx);
    let (world, first_setup) = build_world(0, &mut tr, bulk);
    let rss_after_setup = crate::measure::rss_mb();
    let writes = tr.time(Layer::Input, None, || {
        let mut users: Vec<UserId> = (1..=world.server.user_count()).map(UserId).collect();
        let mut rng = RngStream::from_seed(p.seed_for(2));
        rng.shuffle(&mut users);
        Writes {
            users,
            locations: venue_locations(&world.server),
            rng,
            next: 0,
        }
    });
    let mut crawl = Crawl {
        world: &world,
        writes,
        rate: sizes.crawl_rate,
    };
    r.note(format!(
        "crawl_under_checkins: {} users, {} venues, crawler closed loop + writer open loop at {} /s",
        world.server.user_count(),
        world.server.venue_count(),
        sizes.crawl_rate,
    ));

    // Warm-up writes give venues visitors and users histories to show.
    let mut failed = 0;
    for _ in 0..sizes.crawl_warmup {
        world
            .server
            .clock()
            .advance(lbsn_sim::Duration::secs(ADVANCE_S));
        let (i, req) = crawl.writes.next();
        if !admit(&world.server, &req, i, None, None).accepted() {
            failed += 1;
        }
    }
    let peak_rss = crate::measure::peak_rss_mb();
    let mut attempted = sizes.crawl_warmup;
    let mut crawl_errors: Vec<String> = Vec::new();
    let mut tally = |r: &mut Report, c: &Crawled, w: &Written| {
        attempted += c.steps + w.ops;
        failed += c.errors.len() as u64 + w.rejected;
        crawl_errors.extend(c.errors.iter().take(3).cloned());
        r.check(c.mismatched == 0, || {
            format!("{} audited crawl rows differ from the server", c.mismatched)
        });
    };

    if !p.traced {
        let (mut c, mut w) = crawl.phase(p.seconds, p.seed_for(3), None, None);
        tally(&mut r, &c, &w);
        r.note(format!(
            "  crawler: {} steps, {:.0} bytes per step, step p99 {:.1} us",
            c.steps,
            c.bytes as f64 / c.steps as f64,
            c.lat.quantile_ns(0.99) / 1e3,
        ));
        r.note(format!(
            "  writer: {} ops, from-due p50 {:.1} us p99 {:.1} us, lag p99 {:.1} us",
            w.ops,
            w.from_due.quantile_ns(0.5) / 1e3,
            w.from_due.quantile_ns(0.99) / 1e3,
            w.lag.quantile_ns(0.99) / 1e3,
        ));
        r.metric("ops_per_s", 1e9 / ns_per_op(c.elapsed, c.steps));
        r.metric("op_p50_us", c.lat.quantile_ns(0.5) / 1e3);
        r.metric("peak_rss_mb", peak_rss);
    } else {
        let third = p.seconds / 3.0;
        let (c, w) = crawl.phase(third, p.seed_for(3), None, None);
        tally(&mut r, &c, &w);
        let plain_ns = ns_per_op(c.elapsed, c.steps);
        let mut state = TraceState {
            tracer: Tracer::new(origin, 1, sizes.span_capacity / 2),
            probes: Arc::new(Probes::new(&world.server, false)),
        };
        let crawl_tracer = Tracer::new(origin, 2, sizes.span_capacity / 2);
        let (mut c, w) = crawl.phase(third, p.seed_for(4), Some(crawl_tracer), Some(&mut state));
        tally(&mut r, &c, &w);
        let traced_ns = ns_per_op(c.elapsed, c.steps);
        world.registry.set_enabled(false);
        let (off_c, off_w) = crawl.phase(third, p.seed_for(5), None, None);
        world.registry.set_enabled(true);
        tally(&mut r, &off_c, &off_w);
        tr.merge(state.tracer);
        tr.merge(c.tracer.take().expect("crawler tracer"));
        let snap = world.registry.snapshot();
        r.check(snap.counter(obs_names::REJECTED) == 0, || {
            "the writer's check-ins were flagged".to_string()
        });
        layer_metrics(
            &mut r,
            &mut tr,
            &world,
            LayerInputs {
                batched: None,
                plain_ns,
                traced_ns,
                obs_off_ns: ns_per_op(off_c.elapsed, off_c.steps),
                rss_after_setup_mb: rss_after_setup,
            },
        );
    }
    r.attempted = attempted;
    r.fail_ops(failed, || {
        let mut why = "crawled page failed or write flagged".to_string();
        for e in &crawl_errors {
            why.push_str("; ");
            why.push_str(e);
        }
        why
    });
    drop(crawl);
    drop(world);
    let mut setups = vec![first_setup];
    rebuild(sizes.setups, &mut tr, &mut setups, bulk);
    if !p.traced {
        r.metric("setup_s", median(&setups));
    }
    (r, tr)
}
