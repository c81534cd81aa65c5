//! Batch-vs-sequential equivalence and overload behavior of the
//! request frontend.
//!
//! The contract under test (DESIGN.md §12): draining a mixed op stream
//! in batches of *any* partition produces exactly the decisions per-op
//! admission produces in the same order under the same clock schedule —
//! same outcomes, same accepted/rejected/branded counters — and the
//! frontend's queues conserve submissions exactly
//! (`submitted = decided + shed`) under a multi-thread flood past the
//! high-water mark. The batch lock protocol's order is checked when
//! it compiles (DESIGN.md §14).

use std::sync::{mpsc, Arc};
use std::time::Duration as StdDuration;

use lbsn_geo::{destination, GeoPoint};
use lbsn_obs::names::server as obs_names;
use lbsn_obs::Registry;
use lbsn_server::{
    CheckinError, CheckinOutcome, CheckinRequest, CheckinSource, CheckinVerifier, FrontendConfig,
    LbsnServer, RequestFrontend, ServerConfig, SubmitOutcome, UserId, UserSpec, VenueId, VenueSpec,
    VerifierVerdict, VerifyContext,
};
use lbsn_sim::{Duration, SimClock};
use proptest::prelude::*;

const WATCHDOG: StdDuration = StdDuration::from_secs(120);

fn abq() -> GeoPoint {
    GeoPoint::new(35.0844, -106.6504).unwrap()
}

/// Runs `f` under a watchdog: panics if it does not finish in time
/// (the deadlock signature), otherwise propagates its result.
fn with_watchdog<R: Send + 'static>(name: &str, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let r = f();
        let _ = tx.send(());
        r
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(()) => handle.join().expect("test body panicked"),
        Err(_) => panic!("{name}: watchdog timeout — suspected deadlock"),
    }
}

/// One scripted check-in: ids, where the reported fix lands relative to
/// the venue, and how far the clock advances before this op's batch.
#[derive(Debug, Clone)]
struct Step {
    user: u64,
    venue: u64,
    fix_offset_m: f64,
    fix_bearing: f64,
    advance_secs: u64,
}

fn arb_step(users: u64, venues: u64) -> impl Strategy<Value = Step> {
    (
        1..=users + 1,  // one past the registered range: exercises UnknownUser
        1..=venues + 1, // likewise UnknownVenue, and both unknown at once
        prop_oneof![Just(0.0), 10.0..20_000.0f64],
        0.0..360.0f64,
        prop_oneof![
            Just(0u64),
            1u64..120,          // rapid-fire territory
            1_800u64..10_800,   // calm spacing
            86_400u64..200_000, // day+ gaps
        ],
    )
        .prop_map(
            |(user, venue, fix_offset_m, fix_bearing, advance_secs)| Step {
                user,
                venue,
                fix_offset_m,
                fix_bearing,
                advance_secs,
            },
        )
}

/// A verifier stage that rejects even user ids at venue 1 and abstains
/// on everything else: a deterministic subset of any op stream.
struct EvenUsersAtVenueOne;

impl CheckinVerifier for EvenUsersAtVenueOne {
    fn name(&self) -> &'static str {
        "even-users-at-venue-one"
    }

    fn verify(&self, ctx: &VerifyContext<'_>) -> (VerifierVerdict, &'static str) {
        if ctx.request.venue == VenueId(1) && ctx.request.user.value().is_multiple_of(2) {
            (VerifierVerdict::Reject, "")
        } else {
            (VerifierVerdict::Abstain, "")
        }
    }
}

fn build_world(users: u64, venues: u64, registry: Arc<Registry>) -> Arc<LbsnServer> {
    build_verified_world(users, venues, registry, false)
}

/// [`build_world`], with [`EvenUsersAtVenueOne`] installed as a
/// verifier stage when `verified` is set.
fn build_verified_world(
    users: u64,
    venues: u64,
    registry: Arc<Registry>,
    verified: bool,
) -> Arc<LbsnServer> {
    let verifiers: Vec<Box<dyn CheckinVerifier>> = if verified {
        vec![Box::new(EvenUsersAtVenueOne)]
    } else {
        Vec::new()
    };
    let server = Arc::new(LbsnServer::with_pipeline(
        SimClock::new(),
        ServerConfig::default(),
        registry,
        verifiers,
    ));
    for i in 0..venues {
        let loc = destination(abq(), (i * 67 % 360) as f64, 200.0 + 1_500.0 * i as f64);
        server.register_venue(VenueSpec::new(format!("V{i}"), loc));
    }
    for _ in 0..users {
        server.register_user(UserSpec::anonymous());
    }
    server
}

fn to_request(server: &LbsnServer, s: &Step) -> CheckinRequest {
    // The one-past-the-range venue has no location; any fix will do.
    let venue_loc = server
        .venue(VenueId(s.venue))
        .map_or_else(abq, |venue| venue.location);
    let fix = if s.fix_offset_m == 0.0 {
        venue_loc
    } else {
        destination(venue_loc, s.fix_bearing, s.fix_offset_m)
    };
    CheckinRequest {
        user: UserId(s.user),
        venue: VenueId(s.venue),
        reported_location: fix,
        source: CheckinSource::MobileApp,
    }
}

/// Splits `steps` into the ragged partition described by `sizes`
/// (cycled until the stream is exhausted).
fn partition<'a>(steps: &'a [Step], sizes: &[usize]) -> Vec<&'a [Step]> {
    let mut chunks = Vec::new();
    let mut rest = steps;
    let mut i = 0;
    while !rest.is_empty() {
        let take = sizes[i % sizes.len()].min(rest.len());
        let (head, tail) = rest.split_at(take);
        chunks.push(head);
        rest = tail;
        i += 1;
    }
    chunks
}

/// Replays `steps` under the hoisted clock schedule (advance by the
/// chunk's sum before each chunk), admitting each chunk either through
/// `check_in_batch` or per-op, on a server with or without the
/// [`EvenUsersAtVenueOne`] verifier stage. Returns every result in
/// order plus the terminal counters from the server's private
/// registry.
fn replay(
    steps: &[Step],
    sizes: &[usize],
    batched: bool,
    verified: bool,
) -> (Vec<Result<CheckinOutcome, CheckinError>>, [u64; 4]) {
    let registry = Arc::new(Registry::new());
    let server = build_verified_world(4, 6, Arc::clone(&registry), verified);
    let mut results = Vec::with_capacity(steps.len());
    for chunk in partition(steps, sizes) {
        let advance: u64 = chunk.iter().map(|s| s.advance_secs).sum();
        server.clock().advance(Duration::secs(advance));
        let reqs: Vec<CheckinRequest> = chunk.iter().map(|s| to_request(&server, s)).collect();
        if batched {
            results.extend(server.check_in_batch(&reqs));
        } else {
            results.extend(reqs.iter().map(|r| server.check_in(r)));
        }
    }
    let snap = registry.snapshot();
    let counters = [
        snap.counter(obs_names::ACCEPTED),
        snap.counter(obs_names::REJECTED),
        snap.counter(obs_names::BRANDED),
        snap.counter(obs_names::VERIFIER_REJECTED),
    ];
    (results, counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any batching of a mixed op stream — ragged partitions included —
    /// decides exactly like per-op admission under the same clock
    /// schedule, with or without a verifier stage: identical per-op
    /// outcomes (errors and verifier rejections included) and identical
    /// accepted/rejected/branded/verifier-rejected counters.
    #[test]
    fn any_batching_matches_per_op_admission(
        steps in prop::collection::vec(arb_step(4, 6), 1..80),
        sizes in prop::collection::vec(1..17usize, 1..6),
        verified in any::<bool>(),
    ) {
        let (per_op, per_op_counters) = replay(&steps, &sizes, false, verified);
        let (batched, batched_counters) = replay(&steps, &sizes, true, verified);
        prop_assert_eq!(batched.len(), per_op.len());
        for (i, (b, p)) in batched.iter().zip(per_op.iter()).enumerate() {
            prop_assert_eq!(b, p, "op {} diverged under batching", i);
        }
        prop_assert_eq!(batched_counters, per_op_counters,
            "accepted/rejected/branded/verifier-rejected counters diverged");
    }
}

/// 8 submitter threads flood a small-queue frontend far past its
/// high-water mark, then every ticket is awaited. Exact conservation:
/// every submission is either decided or shed, nothing is lost, nothing
/// is decided twice.
#[test]
fn flood_conserves_submissions_exactly() {
    with_watchdog("flood_conserves_submissions_exactly", || {
        const THREADS: usize = 8;
        const OPS: usize = 2_000;
        let registry = Arc::new(Registry::new());
        let server = build_world(64, 16, Arc::clone(&registry));
        let frontend = Arc::new(RequestFrontend::new(
            Arc::clone(&server),
            FrontendConfig {
                workers: 3,
                queue_depth: 32, // tiny: guarantees shedding under 8 threads
                batch_max: 8,
            },
        ));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let server = Arc::clone(&server);
                let frontend = Arc::clone(&frontend);
                std::thread::spawn(move || {
                    let mut tickets = Vec::new();
                    let mut shed = 0u64;
                    for i in 0..OPS {
                        // Everyone advances the shared virtual clock;
                        // decisions just see *some* monotone time.
                        server.clock().advance(Duration::secs(7));
                        let user = UserId((t * 8 + i % 8 + 1) as u64);
                        let venue = VenueId((i % 16 + 1) as u64);
                        let loc = server.venue(venue).expect("registered venue").location;
                        match frontend.submit(CheckinRequest {
                            user,
                            venue,
                            reported_location: loc,
                            source: CheckinSource::MobileApp,
                        }) {
                            SubmitOutcome::Enqueued(ticket) => tickets.push(ticket),
                            SubmitOutcome::Shed { retry_after } => {
                                assert!(retry_after > StdDuration::ZERO);
                                shed += 1;
                            }
                        }
                    }
                    let decided = tickets.len() as u64;
                    for ticket in tickets {
                        // Registered ids only — every decision is Ok.
                        ticket.wait().expect("registered ids decide cleanly");
                    }
                    (decided, shed)
                })
            })
            .collect();
        let mut enqueued_total = 0u64;
        let mut shed_total = 0u64;
        for h in handles {
            let (decided, shed) = h.join().expect("submitter panicked");
            enqueued_total += decided;
            shed_total += shed;
        }
        frontend.quiesce();
        let snap = registry.snapshot();
        let submitted = snap.counter(obs_names::FRONTEND_SUBMITTED);
        let decided = snap.counter(obs_names::FRONTEND_DECIDED);
        let shed = snap.counter(obs_names::FRONTEND_SHED);
        assert_eq!(submitted, (THREADS * OPS) as u64, "every submit counted");
        assert_eq!(shed, shed_total, "shed counter matches caller view");
        assert_eq!(decided, enqueued_total, "decided counter matches tickets");
        assert_eq!(
            decided + shed,
            submitted,
            "conservation: submitted = decided + shed"
        );
        // The queues really overflowed (otherwise this test proves nothing).
        assert!(shed > 0, "flood never hit the high-water mark");
        // Decided ops all ran the pipeline: terminal decision counters
        // partition the decided count.
        let accepted = snap.counter(obs_names::ACCEPTED);
        let rejected = snap.counter(obs_names::REJECTED);
        assert_eq!(accepted + rejected, decided, "pipeline decisions partition");
        // Every decided submission records exactly one sojourn sample.
        assert_eq!(
            snap.sketches[obs_names::FRONTEND_SOJOURN].count,
            decided,
            "one sojourn sample per decision"
        );
    });
}

/// Shed decisions land in the audit plane under the registered
/// `shed.queue_full` terminal reason, so `obs-audit reason-histogram`
/// counts them like any other negative decision.
#[test]
fn shed_decisions_reach_the_audit_plane() {
    let registry = Arc::new(Registry::new());
    let server = build_world(4, 2, Arc::clone(&registry));
    let frontend = RequestFrontend::new(
        Arc::clone(&server),
        FrontendConfig {
            workers: 1,
            queue_depth: 1,
            batch_max: 1,
        },
    );
    let venue = VenueId(1);
    let loc = server.venue(venue).expect("registered").location;
    let mut shed = 0u64;
    for i in 0..256 {
        let req = CheckinRequest {
            user: UserId(i % 4 + 1),
            venue,
            reported_location: loc,
            source: CheckinSource::MobileApp,
        };
        if frontend.submit(req).is_shed() {
            shed += 1;
        }
    }
    frontend.quiesce();
    frontend.shutdown();
    assert!(shed > 0, "queue of one never overflowed");
    let records = registry.audit().decisions();
    let shed_records = records
        .iter()
        .filter(|r| r.outcome == lbsn_obs::names::reasons::SHED_QUEUE_FULL)
        .count() as u64;
    assert_eq!(shed_records, shed, "one audit record per shed submission");
}

/// Many one-op submit → wait round trips from a few threads through a
/// single worker. The worker takes an op as soon as it is queued, so
/// `submit` must count it in `queued`/`in_flight` before the push is
/// visible; otherwise a submitter preempted between push and count
/// lets the worker's subtraction run first and wrap (a panic under
/// overflow checks, leaving its tickets unfulfilled). `quiesce`
/// returns only once both counters are back at zero.
#[test]
fn round_trips_keep_queue_counters_balanced() {
    with_watchdog("round_trips_keep_queue_counters_balanced", || {
        const THREADS: u64 = 4;
        const ROUND_TRIPS: u64 = 5_000;
        let registry = Arc::new(Registry::new());
        let server = build_world(THREADS, 2, Arc::clone(&registry));
        let frontend = Arc::new(RequestFrontend::new(
            Arc::clone(&server),
            FrontendConfig {
                workers: 1,
                queue_depth: 64,
                batch_max: 1,
            },
        ));
        let venue = VenueId(1);
        let loc = server.venue(venue).expect("registered").location;
        let handles: Vec<_> = (1..=THREADS)
            .map(|user| {
                let frontend = Arc::clone(&frontend);
                std::thread::spawn(move || {
                    for _ in 0..ROUND_TRIPS {
                        let outcome = frontend.submit(CheckinRequest {
                            user: UserId(user),
                            venue,
                            reported_location: loc,
                            source: CheckinSource::MobileApp,
                        });
                        assert!(!outcome.is_shed(), "one op per thread never fills a queue");
                        outcome.wait().expect("registered ids decide cleanly");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("submitter panicked");
        }
        frontend.quiesce();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(obs_names::FRONTEND_DECIDED),
            THREADS * ROUND_TRIPS
        );
        assert_eq!(snap.counter(obs_names::FRONTEND_SHED), 0);
    });
}

/// A verifier stage that panics on one user's check-ins and abstains on
/// everything else: a fault in the middle of a worker's batch.
struct PanicsOnUser(UserId);

impl CheckinVerifier for PanicsOnUser {
    fn name(&self) -> &'static str {
        "panics-on-user"
    }

    fn verify(&self, ctx: &VerifyContext<'_>) -> (VerifierVerdict, &'static str) {
        assert_ne!(ctx.request.user, self.0, "injected verifier fault");
        (VerifierVerdict::Abstain, "")
    }
}

/// A batch that panics mid-admission fails its tickets with
/// `WorkerPanicked` instead of leaving them hanging, `quiesce` still
/// returns, and the worker goes on deciding later submissions for the
/// same shard.
#[test]
fn a_panicking_batch_fails_its_tickets_and_the_worker_keeps_serving() {
    with_watchdog("a_panicking_batch_fails_its_tickets", || {
        let victim = UserId(1);
        let server = Arc::new(LbsnServer::with_pipeline(
            SimClock::new(),
            ServerConfig::default(),
            Arc::new(Registry::new()),
            vec![Box::new(PanicsOnUser(victim))],
        ));
        let venue = server.register_venue(VenueSpec::new("V", abq()));
        assert_eq!(server.register_user(UserSpec::anonymous()), victim);
        let neighbour = loop {
            let user = server.register_user(UserSpec::anonymous());
            if server.user_shard(user) == server.user_shard(victim) {
                break user;
            }
        };
        let frontend = RequestFrontend::new(
            Arc::clone(&server),
            FrontendConfig {
                workers: 1,
                ..FrontendConfig::default()
            },
        );
        let decide = |user| {
            frontend
                .submit(CheckinRequest {
                    user,
                    venue,
                    reported_location: abq(),
                    source: CheckinSource::MobileApp,
                })
                .wait()
        };

        assert_eq!(decide(victim).unwrap_err(), CheckinError::WorkerPanicked);
        frontend.quiesce();
        let out = decide(neighbour).expect("the worker still decides its shards");
        assert!(out.rewarded());
        frontend.shutdown();
    });
}
