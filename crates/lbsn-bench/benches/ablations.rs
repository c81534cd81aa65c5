//! Ablation benches for the design choices DESIGN.md §6 calls out.
//!
//! Criterion measures the runtime of each configuration; the functional
//! effect of each ablation (what gets caught, how strong a signal is)
//! is printed once per group via `eprintln!` so `cargo bench` output
//! doubles as the ablation table.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use lbsn_attack::{AttackSession, PacingPolicy, Schedule};
use lbsn_geo::{destination, GeoGrid, GeoPoint};
use lbsn_server::{DetectorConfig, LbsnServer, ServerConfig, UserSpec, VenueSpec};
use lbsn_sim::{Duration, RngStream, SimClock, Timestamp};
use lbsn_workload::PopulationSpec;

fn abq() -> GeoPoint {
    GeoPoint::new(35.0844, -106.6504).unwrap()
}

/// Which cheater-code rule catches what: replay a small population
/// under rule subsets.
fn ablation_rules(c: &mut Criterion) {
    let configs: Vec<(&str, DetectorConfig)> = vec![
        ("all_rules", DetectorConfig::default()),
        (
            "no_gps",
            DetectorConfig {
                enable_gps: false,
                ..DetectorConfig::default()
            },
        ),
        (
            "no_speed",
            DetectorConfig {
                enable_speed: false,
                ..DetectorConfig::default()
            },
        ),
        (
            "no_cooldown",
            DetectorConfig {
                enable_cooldown: false,
                ..DetectorConfig::default()
            },
        ),
        (
            "no_rapid_fire",
            DetectorConfig {
                enable_rapid_fire: false,
                ..DetectorConfig::default()
            },
        ),
        ("disabled", DetectorConfig::disabled()),
    ];
    let plan = lbsn_workload::plan(&PopulationSpec::tiny(300, 0xAB1A));
    // Account branding off: the ablation isolates what each *rule*
    // catches per check-in (branding would re-flag everything after the
    // first ten hits regardless of which rule fired).
    let server_config = |cheater_code: DetectorConfig| {
        ServerConfig::with_detectors(cheater_code.branding_threshold(None))
    };
    // Print the functional ablation once.
    for (name, config) in &configs {
        let server = LbsnServer::new(SimClock::new(), server_config(config.clone()));
        let pop = lbsn_workload::generate(&server, &plan);
        eprintln!(
            "ablation_rules: {name:<14} flagged {:>6} / {} check-ins",
            pop.stats.flagged, pop.stats.submitted
        );
    }
    let mut group = c.benchmark_group("ablation_rules");
    group.sample_size(10);
    for (name, config) in configs {
        group.bench_function(name, |b| {
            b.iter(|| {
                let server = LbsnServer::new(SimClock::new(), server_config(config.clone()));
                lbsn_workload::generate(&server, &plan)
            })
        });
    }
    group.finish();
}

/// The §3.3 pacing law vs faster pacing: where detection kicks in.
fn ablation_pacing(c: &mut Criterion) {
    let paces: Vec<(&str, u64, u64)> = vec![
        // (name, min interval s, per-mile s)
        ("paper_5min_per_mile", 300, 300),
        ("2min_per_mile", 120, 120),
        ("30s_per_mile", 30, 30),
        ("5s_per_mile", 5, 5),
    ];
    let run = |min_interval: u64, per_mile: u64| {
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        let tour: Vec<_> = (0..20)
            .map(|i| {
                let loc = destination(abq(), (i * 31 % 360) as f64, 1_500.0 * (i + 1) as f64);
                (
                    server.register_venue(VenueSpec::new(format!("V{i}"), loc)),
                    loc,
                )
            })
            .collect();
        let user = server.register_user(UserSpec::anonymous());
        let session = AttackSession::new(Arc::clone(&server), user);
        let schedule = Schedule::build(
            &tour,
            Timestamp(0),
            &PacingPolicy {
                min_interval: Duration::secs(min_interval),
                per_mile: Duration::secs(per_mile),
                venue_cooldown: Duration::hours(1),
            },
        );
        session.execute(&schedule)
    };
    for (name, min_interval, per_mile) in &paces {
        let report = run(*min_interval, *per_mile);
        eprintln!(
            "ablation_pacing: {name:<20} {} rewarded, {} flagged of {}",
            report.rewarded,
            report.flagged.len(),
            report.attempted
        );
    }
    let mut group = c.benchmark_group("ablation_pacing");
    group.sample_size(10);
    for (name, min_interval, per_mile) in paces {
        group.bench_function(name, |b| b.iter(|| run(min_interval, per_mile)));
    }
    group.finish();
}

/// Recent-visitor-list length vs the Fig 4.1 signal: longer lists keep
/// users visible longer and weaken the churn that separates cheaters.
fn ablation_visitor_list(c: &mut Criterion) {
    let plan = lbsn_workload::plan(&PopulationSpec::tiny(300, 0xF161));
    let signal = |len: usize| {
        let server = LbsnServer::new(
            SimClock::new(),
            ServerConfig {
                recent_visitors_len: len,
                ..ServerConfig::default()
            },
        );
        lbsn_workload::generate(&server, &plan);
        // Signal: total recent-list presence across venues.
        let mut presence = 0u64;
        server.for_each_venue(|v| presence += v.recent_visitors().len() as u64);
        presence
    };
    for len in [1usize, 5, 10, 50] {
        eprintln!(
            "ablation_visitor_list: len {len:>3} → total list presence {}",
            signal(len)
        );
    }
    let mut group = c.benchmark_group("ablation_visitor_list");
    group.sample_size(10);
    for len in [5usize, 50] {
        group.bench_function(format!("len_{len}"), |b| b.iter(|| signal(len)));
    }
    group.finish();
}

/// GeoGrid cell size vs nearest-venue query latency (the snap step of
/// every automated tour).
fn ablation_grid(c: &mut Criterion) {
    let mut rng = RngStream::from_seed(0x9A1D);
    let points: Vec<GeoPoint> = (0..50_000)
        .map(|_| {
            destination(
                abq(),
                rng.range_f64(0.0, 360.0),
                rng.range_f64(0.0, 15_000.0),
            )
        })
        .collect();
    let queries: Vec<GeoPoint> = (0..256)
        .map(|_| {
            destination(
                abq(),
                rng.range_f64(0.0, 360.0),
                rng.range_f64(0.0, 12_000.0),
            )
        })
        .collect();
    let mut group = c.benchmark_group("ablation_grid");
    for cell_m in [100.0, 500.0, 2_000.0, 10_000.0] {
        let mut grid = GeoGrid::new(cell_m);
        for (i, p) in points.iter().enumerate() {
            grid.insert(*p, i);
        }
        group.bench_function(format!("nearest_cell_{cell_m}m"), |b| {
            let mut i = 0;
            b.iter(|| {
                i += 1;
                grid.nearest(queries[i % queries.len()])
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = ablations;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets =
    ablation_rules,
    ablation_pacing,
    ablation_visitor_list,
    ablation_grid,
);
criterion_main!(ablations);
