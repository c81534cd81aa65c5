//! One criterion group per paper figure/claim (E1…E12): benchmarks of
//! the subsystem each experiment exercises. The *values* each figure
//! reports come from the `experiments` binary; these benches measure
//! how fast the reproduction machinery runs.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lbsn_analysis::{badges_vs_total, population_summary, recent_vs_total, CheaterClassifier};
use lbsn_attack::{PacingPolicy, Schedule, VenueIntel, VenueSnapper, VirtualPath};
use lbsn_bench::harness::TestBed;
use lbsn_crawler::{
    CrawlDatabase, CrawlTarget, CrawlerConfig, MultiThreadCrawler, SimulatedHttp,
    SimulatedHttpConfig,
};
use lbsn_defense::{
    AddressMapping, AttackScenario, DistanceBounding, IpOrigin, VerifierStack, WifiVerifier,
};
use lbsn_device::Emulator;
use lbsn_geo::{cluster::distinct_cities, destination, GeoPoint};
use lbsn_server::{
    CheckinRequest, CheckinSource, DetectorConfig, LbsnServer, ServerConfig, UserSpec, VenueId,
    VenueSpec,
};
use lbsn_sim::{Duration, SimClock, Timestamp};
use lbsn_workload::PopulationSpec;

fn abq() -> GeoPoint {
    GeoPoint::new(35.0844, -106.6504).unwrap()
}

/// A shared small test bed for the analysis-side benches.
fn bed() -> &'static TestBed {
    use std::sync::OnceLock;
    static BED: OnceLock<TestBed> = OnceLock::new();
    BED.get_or_init(|| TestBed::from_spec(&PopulationSpec::tiny(1_500, 0xBE9C)))
}

/// E1: a full spoofed check-in through the emulator rig.
fn e1_spoof_vectors(c: &mut Criterion) {
    let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
    let sf = GeoPoint::new(37.8080, -122.4177).unwrap();
    let venues: Vec<VenueId> = (0..1_000)
        .map(|i| {
            server.register_venue(VenueSpec::new(
                format!("V{i}"),
                destination(sf, (i % 360) as f64, 20.0 * i as f64),
            ))
        })
        .collect();
    let user = server.register_user(UserSpec::anonymous());
    let mut emulator = Emulator::boot();
    emulator.flash_recovery_image();
    let app = emulator
        .install_lbsn_app(Arc::clone(&server), user)
        .unwrap();
    let dm = emulator.debug_monitor();
    let mut i = 0usize;
    c.bench_function("e1_spoof_vectors/emulator_checkin", |b| {
        b.iter(|| {
            let v = venues[i % venues.len()];
            i += 1;
            server.clock().advance(Duration::hours(2));
            let loc = server.with_venue(v, |v| v.location).unwrap();
            dm.geo_fix(loc.lon(), loc.lat()).unwrap();
            app.check_in(v).unwrap()
        })
    });
}

/// E2: crawl throughput (parse + store path, zero latency).
fn e2_crawler_throughput(c: &mut Criterion) {
    let bed = bed();
    let mut group = c.benchmark_group("e2_crawler_throughput");
    group.sample_size(10);
    for threads in [1usize, 8] {
        group.bench_function(format!("users_{threads}_threads"), |b| {
            b.iter(|| {
                let http = SimulatedHttp::new(bed.web.clone(), SimulatedHttpConfig::default());
                let db = Arc::new(CrawlDatabase::new());
                MultiThreadCrawler::new(
                    http,
                    db,
                    CrawlerConfig {
                        threads,
                        target: CrawlTarget::Users,
                        max_id: Some(bed.server.user_count()),
                        ..CrawlerConfig::default()
                    },
                )
                .run()
            })
        });
    }
    group.finish();
}

/// E3: the Fig 3.4 LIKE query over the venue table.
fn e3_like_query(c: &mut Criterion) {
    let bed = bed();
    c.bench_function("e3_like_query/starbucks", |b| {
        b.iter(|| bed.db.venues_where_name_like("%Starbucks%"))
    });
}

/// E4: planning the Fig 3.5 tour (snap + schedule).
fn e4_schedule_build(c: &mut Criterion) {
    let venues: Vec<(VenueId, GeoPoint)> = (0..2_000)
        .map(|i| {
            (
                VenueId(i + 1),
                destination(abq(), (i % 360) as f64, 10.0 * i as f64),
            )
        })
        .collect();
    let lookup: std::collections::HashMap<_, _> = venues.iter().copied().collect();
    let snapper = VenueSnapper::from_venues(venues);
    let path = VirtualPath::clockwise_circuit(abq(), 0.005, 40, 7);
    c.bench_function("e4_schedule_build/tour_and_schedule", |b| {
        b.iter(|| {
            let tour = snapper.tour(&path, |id| lookup.get(&id).copied());
            Schedule::build(&tour, Timestamp(0), &PacingPolicy::default())
        })
    });
}

/// E5/E6: the bucketed-average curves over the crawled user table.
fn e5_e6_curves(c: &mut Criterion) {
    let bed = bed();
    c.bench_function("e5_recent_vs_total/curve", |b| {
        b.iter(|| recent_vs_total(&bed.db, 50, 2_000))
    });
    c.bench_function("e6_badges_curve/curve", |b| {
        b.iter(|| badges_vs_total(&bed.db, 100, 14_000))
    });
}

/// E7: distinct-city clustering and full-crawl classification.
fn e7_city_clustering(c: &mut Criterion) {
    let points: Vec<GeoPoint> = (0..1_000)
        .map(|i| {
            let m = lbsn_geo::usa::US_METROS[i % 30];
            destination(m.location(), (i % 360) as f64, (i % 50) as f64 * 150.0)
        })
        .collect();
    c.bench_function("e7_city_clustering/1000_points", |b| {
        b.iter(|| distinct_cities(&points))
    });
    let bed = bed();
    let truth = bed.cheater_ids();
    let mut group = c.benchmark_group("e7_city_clustering");
    group.sample_size(10);
    group.bench_function("full_classifier_scan", |b| {
        b.iter(|| CheaterClassifier::default().evaluate(&bed.db, &truth))
    });
    group.finish();
}

/// E8: the population summary pass.
fn e8_population_stats(c: &mut Criterion) {
    let bed = bed();
    c.bench_function("e8_population_stats/summary", |b| {
        b.iter(|| population_summary(&bed.db))
    });
}

/// E9: venue-intel target selection queries.
fn e9_target_selection(c: &mut Criterion) {
    let bed = bed();
    c.bench_function("e9_target_selection/unclaimed_specials", |b| {
        b.iter(|| VenueIntel::new(&bed.db).unclaimed_mayor_specials())
    });
    c.bench_function("e9_target_selection/mayor_hoarders", |b| {
        b.iter(|| VenueIntel::new(&bed.db).mayor_hoarders(5))
    });
}

/// E10: a verifier-stack decision.
fn e10_verifier_stack(c: &mut Criterion) {
    let stack = VerifierStack::new()
        .push(Box::new(DistanceBounding::default()))
        .push(Box::new(AddressMapping::default()))
        .push(Box::new(WifiVerifier::narrowed(30.0)));
    let venue = GeoPoint::new(37.8080, -122.4177).unwrap();
    let scenario = AttackScenario::remote_spoof("bench", abq(), venue, IpOrigin::Local(abq()));
    c.bench_function("e10_verifier_stack/verify", |b| {
        b.iter(|| stack.verify(&scenario.ctx))
    });
}

/// E11: the crawl gate's per-request decision.
fn e11_defended_crawl(c: &mut Criterion) {
    use lbsn_defense::crawl_control::{ClientIp, CrawlControlConfig, CrawlGate};
    let gate = CrawlGate::new(CrawlControlConfig::default());
    let mut ip = 0u32;
    c.bench_function("e11_defended_crawl/gate_check", |b| {
        b.iter(|| {
            ip = ip.wrapping_add(1);
            gate.check(ClientIp(ip % 1_000))
        })
    });
}

/// E12: check-in cost with and without the cheater code.
fn e12_cheatercode_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_cheatercode_overhead");
    for (name, config) in [
        ("full_rules", DetectorConfig::default()),
        ("no_rules", DetectorConfig::disabled()),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let server = LbsnServer::new(
                        SimClock::new(),
                        ServerConfig::with_detectors(config.clone()),
                    );
                    let venue = server.register_venue(VenueSpec::new("V", abq()));
                    let user = server.register_user(UserSpec::anonymous());
                    (server, user, venue)
                },
                |(server, user, venue)| {
                    for _ in 0..50 {
                        server.clock().advance(Duration::hours(2));
                        server
                            .check_in(&CheckinRequest {
                                user,
                                venue,
                                reported_location: abq(),
                                source: CheckinSource::MobileApp,
                            })
                            .unwrap();
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    name = figures;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets =
    e1_spoof_vectors,
    e2_crawler_throughput,
    e3_like_query,
    e4_schedule_build,
    e5_e6_curves,
    e7_city_clustering,
    e8_population_stats,
    e9_target_selection,
    e10_verifier_stack,
    e11_defended_crawl,
    e12_cheatercode_overhead,
);
criterion_main!(figures);
