//! Stage costs add up: every admission stage is the gap between two
//! consecutive stopwatch reads, so the whole-pipeline total is the sum
//! of the stages and the detect stage the sum of its detectors, in the
//! sketches and in every decision record alike.

use std::sync::Arc;

use lbsn_geo::{destination, GeoPoint};
use lbsn_obs::names::server as names;
use lbsn_obs::{AuditConfig, Registry, Snapshot};
use lbsn_server::{
    CheckinRequest, CheckinSource, LbsnServer, ServerConfig, UserId, UserSpec, VenueId, VenueSpec,
};
use lbsn_sim::{Duration, SimClock};

const THREADS: u64 = 2;
const OPS: u64 = 2_000;

/// A server whose audit plane keeps every decision, with two threads of
/// check-ins already run through it: honest users at their venues and,
/// every fourth op, a cheater spoofing from 500 km away (rejected, then
/// branded).
fn run(enabled: bool) -> (Arc<Registry>, u64, u64) {
    let registry = Arc::new(Registry::new());
    registry.audit_with_config(AuditConfig {
        capacity: 1 << 16,
        stripes: 8,
        sample_every: 1,
    });
    registry.set_enabled(enabled);
    let server = LbsnServer::with_registry(
        SimClock::new(),
        ServerConfig::default(),
        Arc::clone(&registry),
    );
    let centre = GeoPoint::new(35.0844, -106.6504).expect("valid coordinates");
    let far = destination(centre, 45.0, 500_000.0);
    let venues: Vec<(VenueId, GeoPoint)> = (0..8u64)
        .map(|k| {
            let loc = destination(centre, 90.0, 250.0 * k as f64);
            (
                server.register_venue(VenueSpec::new(format!("V{k}"), loc)),
                loc,
            )
        })
        .collect();
    let plans: Vec<(Vec<UserId>, UserId)> = (0..THREADS)
        .map(|_| {
            let honest = (0..4)
                .map(|_| server.register_user(UserSpec::anonymous()))
                .collect();
            (honest, server.register_user(UserSpec::anonymous()))
        })
        .collect();
    let (accepted, rejected) = std::thread::scope(|scope| {
        let workers: Vec<_> = plans
            .iter()
            .map(|(honest, cheater)| {
                let (server, venues) = (&server, &venues);
                scope.spawn(move || {
                    let (mut ok, mut bad) = (0u64, 0u64);
                    for i in 0..OPS {
                        // Past the one-hour same-venue cooldown.
                        server.clock().advance(Duration::secs(3_700));
                        let (user, (venue, loc)) = if i % 4 == 3 {
                            (*cheater, (venues[(i % 8) as usize].0, far))
                        } else {
                            let user = honest[(i % 4) as usize];
                            (user, venues[(user.value() % 8) as usize])
                        };
                        let out = server
                            .check_in(&CheckinRequest {
                                user,
                                venue,
                                reported_location: loc,
                                source: CheckinSource::MobileApp,
                            })
                            .expect("known user and venue");
                        if out.rewarded() {
                            ok += 1;
                        } else {
                            bad += 1;
                        }
                    }
                    (ok, bad)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .fold((0, 0), |(a, r), (ok, bad)| (a + ok, r + bad))
    });
    registry.set_enabled(true);
    (registry, accepted, rejected)
}

fn stage(snap: &Snapshot, name: &str) -> (u64, u64) {
    let s = &snap.sketches[name];
    (s.count, s.sum)
}

#[test]
fn stage_costs_add_up_in_sketches_and_decisions() {
    let (registry, accepted, rejected) = run(true);
    assert!(accepted > 0 && rejected > 0, "the mix has both outcomes");
    let snap = registry.snapshot();
    let (total_n, total_sum) = stage(&snap, names::CHECKIN_TOTAL);
    let (detect_n, detect_sum) = stage(&snap, names::STAGE_CHEATER_CODE);
    let (record_n, record_sum) = stage(&snap, names::STAGE_RECORD);
    let (rewards_n, rewards_sum) = stage(&snap, names::STAGE_REWARDS);
    assert_eq!(total_n, accepted + rejected);
    assert_eq!(
        (detect_n, record_n, rewards_n),
        (total_n, total_n, accepted)
    );
    assert!(total_sum > 0);
    assert_eq!(total_sum, detect_sum + record_sum + rewards_sum);

    assert_eq!(snap.decisions.len() as u64, accepted + rejected);
    for r in &snap.decisions {
        let detectors: u64 = r.detectors.iter().map(|d| d.elapsed_ns).sum();
        assert_eq!(r.stage_ns.detect, detectors, "decision {}", r.seq);
        assert_eq!(
            r.stage_ns.total,
            r.stage_ns.detect + r.stage_ns.record + r.stage_ns.rewards,
            "decision {}",
            r.seq
        );
        if r.is_negative() {
            assert_eq!(r.stage_ns.rewards, 0, "a rejected decision has no rewards");
        }
    }
}

#[test]
fn disabled_registry_times_nothing() {
    let (registry, accepted, rejected) = run(false);
    assert!(accepted > 0 && rejected > 0, "the mix has both outcomes");
    let snap = registry.snapshot();
    for name in [
        names::CHECKIN_TOTAL,
        names::STAGE_CHEATER_CODE,
        names::STAGE_RECORD,
        names::STAGE_REWARDS,
    ] {
        assert_eq!(stage(&snap, name), (0, 0), "{name}");
    }
    assert!(snap.decisions.is_empty());
}
