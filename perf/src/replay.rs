//! `paper_replay`: the synthetic population's whole check-in history,
//! replayed in time order through `check_in` on one thread.
//!
//! This is the path every experiment takes. Heavy-tailed histories (the
//! §4.2 whales, the mayor farmer, the caught cohorts) make history
//! scans, detectors, badges and the reject / brand / audit paths the
//! dominant cost. One round replays the whole plan onto a freshly built
//! world, so every round does identical work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lbsn_server::{CheckinRequest, CheckinSource, LbsnServer, UserId, VenueId};
use lbsn_sim::RngStream;
use lbsn_workload::{
    plan, register_world, Archetype, GenerationStats, PopulationPlan, PopulationSpec,
};

use crate::measure::{median, Latencies};
use crate::probe::Probes;
use crate::report::Report;
use crate::trace::{Layer, SpanCtx, Tracer};
use crate::world::{
    build_world, layer_metrics, ns_per_op, rebuild, LayerInputs, Params, TraceState, World,
};

/// The organic tips `replay_span` leaves, in the same order.
const TIP_TEXTS: &[&str] = &[
    "Great spot, friendly staff.",
    "Try the special!",
    "Gets crowded after five.",
    "Free wifi and good coffee.",
    "A bit pricey but worth it.",
];

/// Accounts with at least this many check-ins form the §4.2 club.
const CLUB_CHECKINS: u64 = 5_000;
/// The club's size at any scale (six power users, five caught whales).
const CLUB_SIZE: usize = 11;
/// The top account exceeds this many check-ins.
const TOP_CHECKINS: u64 = 12_000;

/// Replays every event of `plan` through `check_in` exactly as
/// `replay_span` does (clock, request, 2 % organic tips), timing each
/// call. Returns the replay accounting and the calls that errored.
pub fn replay(
    server: &LbsnServer,
    plan: &PopulationPlan,
    lat: &mut Latencies,
    mut tr: Option<&mut TraceState>,
) -> (GenerationStats, u64) {
    let mut stats = GenerationStats::default();
    let mut errors = 0;
    let tip_rng = RngStream::from_seed(plan.spec.seed).fork("tips");
    for (i, e) in plan.events.iter().enumerate() {
        server.clock().advance_to(e.at);
        let req = CheckinRequest {
            user: UserId(e.user as u64 + 1),
            venue: VenueId(e.venue as u64 + 1),
            reported_location: plan.venues.venues[e.venue].spec.location,
            source: match plan.users[e.user].archetype {
                Archetype::MayorFarmer => CheckinSource::ServerApi,
                _ => CheckinSource::MobileApp,
            },
        };
        let a = crate::world::admit(server, &req, i as u64, None, tr.as_deref_mut());
        lat.record(a.latency);
        match a.out {
            Ok(outcome) => {
                stats.submitted += 1;
                if outcome.rewarded() {
                    stats.rewarded += 1;
                    if tip_rng.fork_indexed("tip", i as u64).chance(0.02) {
                        let text = TIP_TEXTS[i % TIP_TEXTS.len()];
                        let _ = server.leave_tip(req.user, req.venue, text);
                    }
                } else {
                    stats.flagged += 1;
                }
            }
            Err(_) => errors += 1,
        }
    }
    (stats, errors)
}

/// The population-level facts a correct replay reproduces.
fn check_population(r: &mut Report, server: &LbsnServer, plan: &PopulationPlan) {
    // (total, flagged, mayorships) per user, by id.
    let mut users = vec![(0u64, 0u64, 0usize); plan.users.len()];
    server.for_each_user(|u| {
        users[u.id.value() as usize - 1] =
            (u.total_checkins, u.flagged_checkins, u.mayorships.len())
    });
    let club = users.iter().filter(|u| u.0 >= CLUB_CHECKINS).count();
    r.check(club == CLUB_SIZE, || {
        format!("{club} accounts have >= {CLUB_CHECKINS} check-ins, expected {CLUB_SIZE}")
    });
    let top = users
        .iter()
        .max_by_key(|u| u.0)
        .copied()
        .unwrap_or_default();
    r.check(top.0 > TOP_CHECKINS && top.2 == 0, || {
        format!(
            "top account has {} check-ins and {} mayorships, expected > {TOP_CHECKINS} and 0",
            top.0, top.2
        )
    });
    let unflagged = plan
        .users
        .iter()
        .zip(&users)
        .filter(|(p, u)| p.archetype.caught_by_cheater_code() && u.1 == 0)
        .count();
    r.check(unflagged == 0, || {
        format!("{unflagged} caught-cohort accounts have no flagged check-in")
    });
}

/// Builds the plan's world: registration only, as the experiments do.
fn build(plan: &PopulationPlan, tr: &mut Tracer, ctx: SpanCtx) -> World {
    let world = World::empty();
    tr.time(Layer::Register, Some(ctx), || {
        register_world(&world.server, plan)
    });
    world
}

/// One round's result.
struct Round {
    events: u64,
    elapsed: Duration,
}

/// Runs the workload; returns its report and tracer.
pub fn run(p: &Params, origin: Instant) -> (Report, Tracer) {
    let sizes = p.sizes();
    let mut r = Report::default();
    let mut tr = Tracer::new(origin, 0, sizes.span_capacity);
    let plan = tr.time(Layer::Input, None, || {
        plan(&PopulationSpec::tiny(sizes.replay_users, p.seed_for(1)))
    });
    let (mut world, first_setup) = build_world(0, &mut tr, |tr, ctx| build(&plan, tr, ctx));
    let mut setups = vec![first_setup];
    let rss_after_setup = crate::measure::rss_mb();
    r.note(format!(
        "paper_replay: {} users, {} venues, {} events per round, one thread",
        plan.users.len(),
        plan.venues.venues.len(),
        plan.events.len()
    ));

    let mut rounds: Vec<Round> = Vec::new();
    let mut failed = 0;
    let mut lat = Latencies::with_capacity(plan.events.len() * 2);
    let mut round = |r: &mut Report, world: &World, tr: Option<&mut TraceState>| {
        let start = Instant::now();
        let (stats, errors) = replay(&world.server, &plan, &mut lat, tr);
        let elapsed = start.elapsed();
        failed += errors;
        r.check(stats.submitted == plan.events.len() as u64, || {
            format!(
                "{} of {} events submitted",
                stats.submitted,
                plan.events.len()
            )
        });
        check_population(r, &world.server, &plan);
        Round {
            events: plan.events.len() as u64,
            elapsed,
        }
    };
    // A fresh world for every round after the first.
    let fresh = |tr: &mut Tracer, setups: &mut Vec<f64>| {
        let (w, t) = build_world(setups.len(), tr, |tr, ctx| build(&plan, tr, ctx));
        setups.push(t);
        w
    };

    if !p.traced {
        let started = Instant::now();
        let mut peak_rss = None;
        loop {
            rounds.push(round(&mut r, &world, None));
            peak_rss.get_or_insert_with(crate::measure::peak_rss_mb);
            if started.elapsed().as_secs_f64() >= p.seconds {
                break;
            }
            drop(world);
            world = fresh(&mut tr, &mut setups);
        }
        let events: u64 = rounds.iter().map(|x| x.events).sum();
        let elapsed: Duration = rounds.iter().map(|x| x.elapsed).sum();
        r.note(format!(
            "  {} rounds; check-in p99 {:.1} us, p999 {:.1} us",
            rounds.len(),
            lat.quantile_ns(0.99) / 1e3,
            lat.quantile_ns(0.999) / 1e3,
        ));
        r.metric("ops_per_s", events as f64 / elapsed.as_secs_f64());
        r.metric("op_p50_us", lat.quantile_ns(0.5) / 1e3);
        r.metric("peak_rss_mb", peak_rss.unwrap_or_default());
    } else {
        let plain = round(&mut r, &world, None);
        drop(world);
        world = fresh(&mut tr, &mut setups);
        let mut state = TraceState {
            tracer: Tracer::new(origin, 1, sizes.span_capacity),
            probes: Arc::new(Probes::new(&world.server, true)),
        };
        let traced = round(&mut r, &world, Some(&mut state));
        // Counters and memory are read off the traced round's world.
        let off_world = fresh(&mut tr, &mut setups);
        off_world.registry.set_enabled(false);
        let off = round(&mut r, &off_world, None);
        drop(off_world);
        rounds.extend([plain, traced, off]);
        tr.merge(state.tracer);
        layer_metrics(
            &mut r,
            &mut tr,
            &world,
            LayerInputs {
                batched: None,
                plain_ns: ns_per_op(rounds[0].elapsed, rounds[0].events),
                traced_ns: ns_per_op(rounds[1].elapsed, rounds[1].events),
                obs_off_ns: ns_per_op(rounds[2].elapsed, rounds[2].events),
                rss_after_setup_mb: rss_after_setup,
            },
        );
    }
    r.attempted = rounds.iter().map(|x| x.events).sum();
    r.fail_ops(failed, || "replayed check-in returned an error".to_string());
    drop(world);
    rebuild(sizes.small_setups, &mut tr, &mut setups, |tr, ctx| {
        build(&plan, tr, ctx)
    });
    if !p.traced {
        r.metric("setup_s", median(&setups));
    }
    (r, tr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsn_workload::replay_span;

    #[test]
    fn replay_matches_replay_span() {
        let plan = plan(&PopulationSpec::tiny(400, 5));
        let mut tr = Tracer::new(Instant::now(), 0, 16);
        let (ctx, _) = tr.open(Layer::Setup, 0, None);
        let ours = build(&plan, &mut tr, ctx);
        let theirs = build(&plan, &mut tr, ctx);
        let (stats, errors) = replay(&ours.server, &plan, &mut Latencies::default(), None);
        assert_eq!(errors, 0);
        assert_eq!(stats, replay_span(&theirs.server, &plan, 0, u64::MAX));
        for id in (1..=plan.users.len() as u64).step_by(7) {
            let state = |w: &World| {
                w.server.with_user(UserId(id), |u| {
                    (u.total_checkins, u.valid_checkins, u.points)
                })
            };
            assert_eq!(state(&ours), state(&theirs), "user {id}");
        }
    }
}
