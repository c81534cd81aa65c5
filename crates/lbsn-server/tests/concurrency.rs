//! Concurrency invariants of the sharded check-in engine.
//!
//! Every test runs its work on a helper thread pool and is guarded by a
//! watchdog: a deadlock shows up as a test failure (watchdog timeout),
//! not a hung CI job. The stress tests assert *exact* counter totals —
//! under locks there is no "close enough".

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration as StdDuration;

use lbsn_geo::{destination, GeoPoint};
use lbsn_obs::Registry;
use lbsn_server::{
    CheckinRequest, CheckinSource, DetectorConfig, LbsnServer, PolicyConfig, ServerConfig, UserId,
    UserSpec, VenueCategory, VenueId, VenueSpec,
};
use lbsn_sim::{Duration, SimClock};

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

fn req(user: UserId, venue: VenueId, loc: GeoPoint) -> CheckinRequest {
    CheckinRequest {
        user,
        venue,
        reported_location: loc,
        source: CheckinSource::MobileApp,
    }
}

/// 8 threads × 10k check-ins with a per-thread honest cohort and one
/// cheater, over venues shared across threads. Asserts *exact*
/// accepted/rejected/branded totals from the metrics registry against
/// the per-thread op counts.
#[test]
fn stress_exact_counter_totals() {
    with_watchdog("stress_exact_counter_totals", || {
        const THREADS: usize = 8;
        const OPS: usize = 10_000;
        // Brand after 10 flags (default); the cheater spends every op
        // flagged: GPS mismatch until branded, account-flagged after.
        let registry = Arc::new(Registry::new());
        let server = Arc::new(LbsnServer::with_registry(
            SimClock::new(),
            ServerConfig::default(),
            Arc::clone(&registry),
        ));
        // Venues shared by all threads, spread over every shard.
        let venues: Vec<(VenueId, GeoPoint)> = (0..32u64)
            .map(|i| {
                let loc = destination(abq(), ((i * 13) % 360) as f64, 80.0 * (i + 1) as f64);
                (
                    server.register_venue(VenueSpec::new(format!("V{i}"), loc)),
                    loc,
                )
            })
            .collect();
        let far = destination(abq(), 45.0, 500_000.0);
        // Per thread: 3 honest users cycling venues + 1 dedicated cheater.
        let mut plans = Vec::new();
        for _ in 0..THREADS {
            let honest: Vec<UserId> = (0..3)
                .map(|_| server.register_user(UserSpec::anonymous()))
                .collect();
            let cheater = server.register_user(UserSpec::anonymous());
            plans.push((honest, cheater));
        }
        let barrier = Arc::new(Barrier::new(THREADS));
        let mut workers = Vec::new();
        for (t, (honest, cheater)) in plans.into_iter().enumerate() {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let venues = venues.clone();
            workers.push(std::thread::spawn(move || {
                barrier.wait();
                let (mut ok, mut bad) = (0u64, 0u64);
                for i in 0..OPS {
                    // Every 4th op is the cheater spoofing from 500 km
                    // away; the rest are honest check-ins at the venue.
                    server.clock().advance(Duration::secs(121));
                    if i % 4 == 3 {
                        let (venue, _) = venues[(t + i) % venues.len()];
                        let out = server.check_in(&req(cheater, venue, far)).unwrap();
                        assert!(!out.rewarded());
                        bad += 1;
                    } else {
                        let user = honest[i % honest.len()];
                        let (venue, loc) = venues[(t * 7 + i / 3) % venues.len()];
                        let out = server.check_in(&req(user, venue, loc)).unwrap();
                        assert!(out.rewarded(), "honest check-in flagged: {:?}", out.flags);
                        ok += 1;
                    }
                }
                (ok, bad)
            }));
        }
        let (mut accepted, mut rejected) = (0u64, 0u64);
        for w in workers {
            let (ok, bad) = w.join().expect("worker panicked");
            accepted += ok;
            rejected += bad;
        }
        assert_eq!(accepted + rejected, (THREADS * OPS) as u64);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("server.checkin.accepted"), accepted);
        assert_eq!(snap.counter("server.checkin.rejected"), rejected);
        // Each thread's cheater crosses the 10-flag threshold exactly
        // once: 10 GPS mismatches, then account-flagged forever.
        assert_eq!(snap.counter("server.checkin.branded"), THREADS as u64);
        assert_eq!(
            snap.counter("server.checkin.flag.gps_mismatch"),
            10 * THREADS as u64
        );
        assert_eq!(
            snap.counter("server.checkin.flag.account_flagged"),
            rejected - 10 * THREADS as u64
        );
        // Per-user bookkeeping survived the interleaving exactly.
        let mut total = 0;
        server.for_each_user(|u| total += u.total_checkins);
        assert_eq!(total, (THREADS * OPS) as u64);
    });
}

/// Threads fight over mayorships of a small venue set; at every moment
/// afterwards each venue has at most one mayor and the venue-side seat
/// agrees exactly with the user-side mayorship sets (a bijection).
#[test]
fn mayorship_bijection_under_contention() {
    with_watchdog("mayorship_bijection_under_contention", || {
        const THREADS: usize = 8;
        const OPS: usize = 2_000;
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        let venues: Vec<(VenueId, GeoPoint)> = (0..4u64)
            .map(|i| {
                let loc = destination(abq(), (i * 90) as f64, 200.0 * (i + 1) as f64);
                (
                    server.register_venue(VenueSpec::new(format!("V{i}"), loc)),
                    loc,
                )
            })
            .collect();
        let users: Vec<UserId> = (0..THREADS)
            .map(|_| server.register_user(UserSpec::anonymous()))
            .collect();
        let barrier = Arc::new(Barrier::new(THREADS));
        let mut workers = Vec::new();
        for (t, user) in users.iter().copied().enumerate() {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let venues = venues.clone();
            workers.push(std::thread::spawn(move || {
                barrier.wait();
                for i in 0..OPS {
                    let (venue, loc) = venues[(t + i) % venues.len()];
                    server.clock().advance(Duration::secs(3700));
                    server.check_in(&req(user, venue, loc)).unwrap();
                }
            }));
        }
        for w in workers {
            w.join().expect("worker panicked");
        }
        // Venue-side seats...
        let mut seats: HashMap<VenueId, UserId> = HashMap::new();
        server.for_each_venue(|v| {
            if let Some(m) = v.mayor {
                assert!(
                    seats.insert(v.id, m).is_none(),
                    "venue listed twice in for_each_venue"
                );
            }
        });
        // ...must agree exactly with user-side mayorship sets.
        let mut claimed: HashMap<VenueId, UserId> = HashMap::new();
        server.for_each_user(|u| {
            for &v in &u.mayorships {
                assert!(
                    claimed.insert(v, u.id).is_none(),
                    "venue {v:?} claimed by two users"
                );
            }
        });
        assert_eq!(
            seats, claimed,
            "venue seats and user mayorship sets diverge"
        );
    });
}

/// A user holding mayorships across every shard gets branded while
/// other threads keep checking in: afterwards the branded user holds
/// nothing and every surviving seat belongs to someone else.
#[test]
fn strip_on_brand_under_concurrent_checkins() {
    with_watchdog("strip_on_brand_under_concurrent_checkins", || {
        let server = Arc::new(LbsnServer::new(
            SimClock::new(),
            ServerConfig {
                policy: PolicyConfig::with_detectors(
                    DetectorConfig::default().branding_threshold(Some(5)),
                ),
                shards: 8,
                ..ServerConfig::default()
            },
        ));
        let victim = server.register_user(UserSpec::anonymous());
        let venues: Vec<(VenueId, GeoPoint)> = (0..24u64)
            .map(|i| {
                let loc = destination(abq(), ((i * 15) % 360) as f64, 150.0 * (i + 1) as f64);
                (
                    server.register_venue(VenueSpec::new(format!("V{i}"), loc)),
                    loc,
                )
            })
            .collect();
        for (venue, loc) in &venues {
            assert!(
                server
                    .check_in(&req(victim, *venue, *loc))
                    .unwrap()
                    .became_mayor
            );
            server.clock().advance(Duration::hours(2));
        }
        // Background honest traffic from other users while the victim
        // gets branded.
        let stop = Arc::new(AtomicU64::new(0));
        let mut workers = Vec::new();
        for t in 0..4 {
            let server = Arc::clone(&server);
            let venues = venues.clone();
            let stop = Arc::clone(&stop);
            let user = server.register_user(UserSpec::anonymous());
            workers.push(std::thread::spawn(move || {
                let mut i = 0usize;
                while stop.load(Ordering::Relaxed) == 0 {
                    let (venue, loc) = venues[(t * 5 + i) % venues.len()];
                    server.clock().advance(Duration::secs(121));
                    server.check_in(&req(user, venue, loc)).unwrap();
                    i += 1;
                }
            }));
        }
        let far = destination(abq(), 10.0, 300_000.0);
        for _ in 0..5 {
            server.clock().advance(Duration::secs(121));
            let out = server.check_in(&req(victim, venues[0].0, far)).unwrap();
            assert!(!out.rewarded());
        }
        stop.store(1, Ordering::Relaxed);
        for w in workers {
            w.join().expect("worker panicked");
        }
        let u = server.user(victim).unwrap();
        assert!(u.branded_cheater);
        assert!(u.mayorships.is_empty(), "branded user keeps no mayorships");
        server.for_each_venue(|v| {
            assert_ne!(v.mayor, Some(victim), "stripped seat {:?} still held", v.id);
        });
    });
}

/// Crawler-style readers hammer every read path while writers run:
/// must terminate (no reader/writer deadlock) and reads must always
/// observe internally consistent profiles.
#[test]
fn crawler_reads_run_concurrently_with_writers() {
    with_watchdog("crawler_reads_run_concurrently_with_writers", || {
        const WRITERS: usize = 4;
        const READERS: usize = 4;
        const OPS: usize = 3_000;
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        let venues: Vec<(VenueId, GeoPoint)> = (0..16u64)
            .map(|i| {
                let loc = destination(abq(), ((i * 23) % 360) as f64, 120.0 * (i + 1) as f64);
                (
                    server.register_venue(VenueSpec::new(format!("Cafe {i}"), loc)),
                    loc,
                )
            })
            .collect();
        let mut pools = Vec::new();
        for _ in 0..WRITERS {
            let users: Vec<UserId> = (0..16)
                .map(|_| server.register_user(UserSpec::anonymous()))
                .collect();
            pools.push(users);
        }
        let barrier = Arc::new(Barrier::new(WRITERS + READERS));
        let mut workers = Vec::new();
        for (t, users) in pools.into_iter().enumerate() {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let venues = venues.clone();
            workers.push(std::thread::spawn(move || {
                barrier.wait();
                for i in 0..OPS {
                    let user = users[i % users.len()];
                    let (venue, loc) = venues[(t * 3 + i / users.len()) % venues.len()];
                    server.clock().advance(Duration::secs(121));
                    server.check_in(&req(user, venue, loc)).unwrap();
                }
            }));
        }
        for r in 0..READERS {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            workers.push(std::thread::spawn(move || {
                barrier.wait();
                for i in 0..OPS {
                    match (r + i) % 5 {
                        0 => {
                            server.for_each_venue(|v| {
                                assert!(v.unique_visitors().len() as u64 <= v.checkins_here);
                            });
                        }
                        1 => {
                            server.for_each_user(|u| {
                                assert!(u.valid_checkins <= u.total_checkins);
                            });
                        }
                        2 => {
                            let _ = server.leaderboard(10);
                        }
                        3 => {
                            let _ = server.venues_near(abq(), 10_000.0, 50);
                            let _ = server.search_venues_by_name("cafe", 10);
                        }
                        _ => {
                            let id = UserId((i % 64 + 1) as u64);
                            server.with_user(id, |u| {
                                assert_eq!(u.id, id);
                            });
                        }
                    }
                }
            }));
        }
        for w in workers {
            w.join().expect("worker panicked");
        }
        let snap_total = (WRITERS * OPS) as u64;
        let mut total = 0;
        server.for_each_user(|u| total += u.total_checkins);
        assert_eq!(total, snap_total);
    });
}

/// Friendship symmetry is a cross-shard invariant: readers walking the
/// friend graph while `add_friendships` runs must never see an edge
/// recorded on one side only. Edges are never removed, so once `a`
/// lists `b`, every later read of `b` must list `a`.
#[test]
fn friendship_batches_are_never_one_sided() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::atomic::AtomicBool;

    with_watchdog("friendship_batches_are_never_one_sided", || {
        const USERS: u64 = 2_000;
        const BATCHES: usize = 40;
        const BATCH_EDGES: usize = 5_000;
        const READERS: usize = 2;
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        server.bulk_register_users((0..USERS).map(|_| UserSpec::anonymous()));
        let done = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(Barrier::new(READERS + 1));
        let writer = {
            let server = Arc::clone(&server);
            let done = Arc::clone(&done);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(11);
                barrier.wait();
                for _ in 0..BATCHES {
                    let edges: Vec<(UserId, UserId)> = (0..BATCH_EDGES)
                        .map(|_| {
                            (
                                UserId(rng.gen_range(1..=USERS)),
                                UserId(rng.gen_range(1..=USERS)),
                            )
                        })
                        .collect();
                    server.add_friendships(edges).unwrap();
                }
                done.store(true, Ordering::Release);
            })
        };
        let readers: Vec<_> = (0..READERS as u64)
            .map(|r| {
                let server = Arc::clone(&server);
                let done = Arc::clone(&done);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(100 + r);
                    let mut checked = 0u64;
                    barrier.wait();
                    while !done.load(Ordering::Acquire) {
                        let a = UserId(rng.gen_range(1..=USERS));
                        let friends = server
                            .with_user(a, |u| u.friends.iter().copied().collect::<Vec<_>>())
                            .unwrap();
                        if friends.is_empty() {
                            continue;
                        }
                        let b = friends[rng.gen_range(0..friends.len())];
                        assert!(
                            server.with_user(b, |u| u.friends.contains(&a)).unwrap(),
                            "{a} lists {b}, but {b} does not list {a}"
                        );
                        checked += 1;
                    }
                    checked
                })
            })
            .collect();
        writer.join().expect("writer panicked");
        let checked: u64 = readers
            .into_iter()
            .map(|r| r.join().expect("reader panicked"))
            .sum();
        assert!(checked > 0, "readers never saw an edge");
    });
}

/// Registration from several threads at once. Every `register_user` and
/// `register_venue` call is a batch of one through the chunked loaders,
/// which hand the assigned id back. Writers interleave named users,
/// venues and friend edges; readers probe the ids just past the
/// published counts, where registrations are landing.
#[test]
fn concurrent_registration_hands_out_dense_ids() {
    use std::sync::atomic::AtomicBool;

    with_watchdog("concurrent_registration_hands_out_dense_ids", || {
        const WRITERS: usize = 4;
        const PER_WRITER: usize = 1_000;
        const READERS: usize = 2;
        const CATEGORIES: [VenueCategory; 4] = [
            VenueCategory::Coffee,
            VenueCategory::Bar,
            VenueCategory::Gym,
            VenueCategory::Airport,
        ];
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        let done = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(Barrier::new(WRITERS + READERS));
        let writers: Vec<_> = (0..WRITERS)
            .map(|t| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut users = Vec::new();
                    let mut venues = Vec::new();
                    barrier.wait();
                    for i in 0..PER_WRITER {
                        let name = format!("w{t}-{i}");
                        let user = server.register_user(UserSpec::named(name.clone()));
                        let category = CATEGORIES[(t + i) % CATEGORIES.len()];
                        let loc = destination(abq(), (i % 360) as f64, 50.0 * t as f64);
                        let spec = VenueSpec::new(format!("V {name}"), loc).category(category);
                        venues.push((server.register_venue(spec), category));
                        if let Some(&(prev, _)) = users.last() {
                            server.add_friendships([(user, prev)]).unwrap();
                        }
                        users.push((user, name));
                    }
                    (users, venues)
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let server = Arc::clone(&server);
                let done = Arc::clone(&done);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    while !done.load(Ordering::Acquire) {
                        let (users, venues) = (server.user_count(), server.venue_count());
                        for id in users + 1..=users + 4 {
                            if let Some(got) = server.with_user(UserId(id), |u| u.id) {
                                assert_eq!(got, UserId(id), "slot of user {id}");
                            }
                        }
                        for id in venues + 1..=venues + 4 {
                            if let Some(category) = server.with_venue(VenueId(id), |v| v.category) {
                                assert_eq!(
                                    server.venue_category(VenueId(id)),
                                    Some(category),
                                    "venue {id} visible before its category"
                                );
                            }
                        }
                    }
                })
            })
            .collect();
        let mut users = Vec::new();
        let mut venues = Vec::new();
        for w in writers {
            let (u, v) = w.join().expect("writer panicked");
            users.extend(u);
            venues.extend(v);
        }
        done.store(true, Ordering::Release);
        for r in readers {
            r.join().expect("reader panicked");
        }

        let n = (WRITERS * PER_WRITER) as u64;
        assert_eq!(server.user_count(), n);
        assert_eq!(server.venue_count(), n);
        users.sort_by_key(|(id, _)| *id);
        venues.sort_by_key(|(id, _)| *id);
        let user_ids: Vec<u64> = users.iter().map(|(id, _)| id.value()).collect();
        let venue_ids: Vec<u64> = venues.iter().map(|(id, _)| id.value()).collect();
        assert_eq!(user_ids, (1..=n).collect::<Vec<_>>(), "user ids not 1..=N");
        assert_eq!(
            venue_ids,
            (1..=n).collect::<Vec<_>>(),
            "venue ids not 1..=N"
        );
        for (id, name) in &users {
            assert_eq!(server.user(*id).unwrap().id, *id);
            assert_eq!(server.user_id_by_name(name), Some(*id), "{name}");
        }
        for (id, category) in &venues {
            assert_eq!(server.venue_category(*id), Some(*category));
            assert_eq!(server.with_venue(*id, |v| v.category), Some(*category));
        }
        // Each writer chained its users; every link is on both sides.
        let links: usize = users
            .iter()
            .map(|(id, _)| server.with_user(*id, |u| u.friends.len()).unwrap())
            .sum();
        assert_eq!(links, 2 * WRITERS * (PER_WRITER - 1));
    });
}
