//! The §5.1 verified deployment built the stage-based way: the
//! verifier stack installed inside the server's admission pipeline via
//! [`LbsnServer::with_pipeline`], not fronting it as a wrapper service.
//!
//! Covers the deployment's behaviour (honest visitor, spoofers on
//! broadband and cellular, unequipped venues, cheater code after a
//! verifier pass, unknown venues), then stresses the deployment
//! concurrently: the verify stage runs before any shard lock is taken,
//! so installing it must not perturb the lock discipline or the exact
//! counter accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use lbsn_defense::{AddressMapping, RouterRegistry, VerifierStack, VerifierStage, WifiVerifier};
use lbsn_geo::{destination, GeoPoint};
use lbsn_obs::Registry;
use lbsn_server::{
    AdmissionOutcome, CheckinError, CheckinEvidence, CheckinRequest, CheckinSource, LbsnServer,
    ServerConfig, UserId, UserSpec, VenueId, VenueSpec,
};
use lbsn_sim::{Duration, SimClock};

fn wharf() -> GeoPoint {
    GeoPoint::new(37.8080, -122.4177).unwrap()
}

fn abq() -> GeoPoint {
    GeoPoint::new(35.0844, -106.6504).unwrap()
}

/// A server with the address-mapping + narrowed-WiFi stack installed as
/// a pipeline stage, one equipped venue, one user.
fn deploy() -> (Arc<LbsnServer>, Arc<RouterRegistry>, UserId, VenueId) {
    let routers = Arc::new(RouterRegistry::new());
    let stage = VerifierStage::new(
        VerifierStack::new()
            .push(Box::new(AddressMapping::default()))
            .push(Box::new(WifiVerifier::narrowed(30.0))),
        Arc::clone(&routers),
    );
    let server = Arc::new(LbsnServer::with_pipeline(
        SimClock::new(),
        ServerConfig::default(),
        Arc::new(Registry::new()),
        vec![Box::new(stage)],
    ));
    let venue = server.register_venue(VenueSpec::new("Wharf", wharf()));
    routers.register(venue);
    let user = server.register_user(UserSpec::anonymous());
    (server, routers, user, venue)
}

fn req(user: UserId, venue: VenueId) -> CheckinRequest {
    CheckinRequest {
        user,
        venue,
        reported_location: wharf(), // always claims the venue
        source: CheckinSource::MobileApp,
    }
}

#[test]
fn honest_visitor_passes_and_earns() {
    let (server, _, user, venue) = deploy();
    let out = server
        .check_in_with_evidence(&req(user, venue), Some(&CheckinEvidence::local(wharf())))
        .unwrap();
    assert!(out.rewarded());
    assert_eq!(server.user(user).unwrap().valid_checkins, 1);
}

#[test]
fn gps_spoofer_is_stopped_cold_and_counted() {
    // The §3.1 attack that beats the plain server: perfect fake
    // coordinates. The RF evidence betrays the true position.
    let (server, _, user, venue) = deploy();
    let out = server
        .check_in_with_evidence(&req(user, venue), Some(&CheckinEvidence::local(abq())))
        .unwrap();
    assert_eq!(
        out,
        AdmissionOutcome::VerifierRejected {
            verifier: "verifier-stack"
        }
    );
    // Nothing recorded server-side: the co-signature never arrived.
    assert_eq!(server.user(user).unwrap().total_checkins, 0);
    // The rejection is visible in the server's own metric namespace.
    let snap = server.metrics().registry().snapshot();
    assert_eq!(snap.counter("server.checkin.verifier_rejected"), 1);
    assert_eq!(
        snap.counter("server.checkin.verifier.verifier_stack.rejected"),
        1
    );
}

#[test]
fn spoofer_on_cellular_is_still_stopped_by_wifi() {
    let (server, _, user, venue) = deploy();
    let hub = GeoPoint::new(41.8781, -87.6298).unwrap();
    let out = server
        .check_in_with_evidence(
            &req(user, venue),
            Some(&CheckinEvidence::cellular(abq(), hub)),
        )
        .unwrap();
    assert!(matches!(out, AdmissionOutcome::VerifierRejected { .. }));
}

#[test]
fn unequipped_venue_falls_back_to_plain_pipeline() {
    let (server, _, user, _) = deploy();
    // A second venue with no router: spoofing works again — partial
    // deployment only protects participating venues.
    let other = server.register_venue(VenueSpec::new("No Router", wharf()));
    let out = server
        .check_in_with_evidence(
            &req(user, other),
            Some(&CheckinEvidence::cellular(abq(), abq())),
        )
        .unwrap();
    assert!(out.rewarded(), "{out:?}");
}

#[test]
fn missing_evidence_abstains_to_detector_stage() {
    // The plain check_in path supplies no evidence; the stage abstains
    // and the detector chain judges the check-in alone, so an equipped
    // deployment never punishes evidence-less submissions.
    let (server, _, user, venue) = deploy();
    let out = server.check_in(&req(user, venue)).unwrap();
    assert!(out.rewarded());
}

#[test]
fn verifier_pass_does_not_bypass_cheater_code() {
    // A physically present user who violates the cooldown is still
    // flagged by the server's own rules.
    let (server, _, user, venue) = deploy();
    let honest = CheckinEvidence::local(wharf());
    assert!(server
        .check_in_with_evidence(&req(user, venue), Some(&honest))
        .unwrap()
        .rewarded());
    let out = server
        .check_in_with_evidence(&req(user, venue), Some(&honest))
        .unwrap();
    match out {
        AdmissionOutcome::Processed(o) => assert!(!o.rewarded(), "cooldown must still apply"),
        AdmissionOutcome::VerifierRejected { .. } => panic!("verifier should pass"),
    }
}

#[test]
fn routers_enrolled_after_server_build_take_effect() {
    let (server, routers, user, _) = deploy();
    let late = server.register_venue(VenueSpec::new("Late adopter", wharf()));
    // Cellular spoof: address mapping abstains (carrier hub), so only
    // the router-gated WiFi verifier can catch it.
    let hub = GeoPoint::new(41.8781, -87.6298).unwrap();
    let spoof = CheckinEvidence::cellular(abq(), hub);
    assert!(server
        .check_in_with_evidence(&req(user, late), Some(&spoof))
        .unwrap()
        .outcome()
        .is_some());
    routers.register(late);
    server.clock().advance(Duration::hours(2));
    let out = server
        .check_in_with_evidence(&req(user, late), Some(&spoof))
        .unwrap();
    assert!(matches!(out, AdmissionOutcome::VerifierRejected { .. }));
}

#[test]
fn unknown_venue_errors() {
    let (server, _, user, _) = deploy();
    let out = server.check_in_with_evidence(
        &req(user, VenueId(99)),
        Some(&CheckinEvidence::local(wharf())),
    );
    assert_eq!(out, Err(CheckinError::UnknownVenue(VenueId(99))));
    assert_eq!(server.user(user).unwrap().total_checkins, 0);
}

/// Many threads submit evidence-carrying check-ins — honest and spoofed
/// mixed — against a sharded server with the verifier stage installed.
/// Exact totals must hold: every spoof at an equipped venue is dropped
/// (and not recorded), every honest first check-in is rewarded.
#[test]
fn concurrent_verified_checkins_keep_exact_totals() {
    const THREADS: usize = 8;
    const USERS_PER_THREAD: usize = 25;

    let routers = Arc::new(RouterRegistry::new());
    let stage = VerifierStage::new(
        VerifierStack::new().push(Box::new(WifiVerifier::narrowed(30.0))),
        Arc::clone(&routers),
    );
    let registry = Arc::new(Registry::new());
    let server = Arc::new(LbsnServer::with_pipeline(
        SimClock::new(),
        ServerConfig {
            shards: 8,
            ..ServerConfig::default()
        },
        Arc::clone(&registry),
        vec![Box::new(stage)],
    ));
    // One equipped venue per thread, spread over shards.
    let venues: Vec<(VenueId, GeoPoint)> = (0..THREADS)
        .map(|i| {
            let loc = destination(wharf(), ((i * 40) % 360) as f64, 500.0 * (i + 1) as f64);
            let v = server.register_venue(VenueSpec::new(format!("V{i}"), loc));
            routers.register(v);
            (v, loc)
        })
        .collect();
    let users: Vec<UserId> = (0..THREADS * USERS_PER_THREAD)
        .map(|_| server.register_user(UserSpec::anonymous()))
        .collect();

    let rewarded = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let server = Arc::clone(&server);
            let rewarded = Arc::clone(&rewarded);
            let dropped = Arc::clone(&dropped);
            let barrier = Arc::clone(&barrier);
            let (venue, loc) = venues[t];
            let mine: Vec<UserId> = users[t * USERS_PER_THREAD..(t + 1) * USERS_PER_THREAD].into();
            std::thread::spawn(move || {
                barrier.wait();
                for (i, user) in mine.into_iter().enumerate() {
                    // Every third submission is a remote spoof.
                    let spoofing = i % 3 == 2;
                    let physical = if spoofing { abq() } else { loc };
                    let request = CheckinRequest {
                        user,
                        venue,
                        reported_location: loc,
                        source: CheckinSource::MobileApp,
                    };
                    let evidence = CheckinEvidence::local(physical);
                    match server
                        .check_in_with_evidence(&request, Some(&evidence))
                        .unwrap()
                    {
                        AdmissionOutcome::Processed(o) => {
                            assert!(o.rewarded(), "honest first check-in must be rewarded");
                            rewarded.fetch_add(1, Ordering::Relaxed);
                        }
                        AdmissionOutcome::VerifierRejected { verifier } => {
                            assert!(spoofing, "honest check-in dropped");
                            assert_eq!(verifier, "verifier-stack");
                            dropped.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let spoofs_per_thread = (0..USERS_PER_THREAD).filter(|i| i % 3 == 2).count() as u64;
    let expect_dropped = spoofs_per_thread * THREADS as u64;
    let expect_rewarded = (THREADS * USERS_PER_THREAD) as u64 - expect_dropped;
    assert_eq!(rewarded.load(Ordering::Relaxed), expect_rewarded);
    assert_eq!(dropped.load(Ordering::Relaxed), expect_dropped);

    let snap = registry.snapshot();
    assert_eq!(snap.counter("server.checkin.accepted"), expect_rewarded);
    assert_eq!(snap.counter("server.checkin.rejected"), 0);
    assert_eq!(
        snap.counter("server.checkin.verifier_rejected"),
        expect_dropped
    );
    assert_eq!(
        snap.counter("server.checkin.verifier.verifier_stack.rejected"),
        expect_dropped
    );
    // Dropped check-ins were never recorded.
    let mut total_records = 0u64;
    server.for_each_user(|u| total_records += u.total_checkins);
    assert_eq!(total_records, expect_rewarded);
}
