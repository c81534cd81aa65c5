//! The whole reproduction in one test: generate a population with
//! hidden cheaters, crawl the public site, run every §4 analysis, and
//! check that the paper's qualitative findings hold.

use std::collections::HashSet;
use std::sync::Arc;

use lbsn::analysis::{
    badges_vs_total, heavy_hitters_split_at, population_summary, recent_vs_total, user_map,
    CheaterClassifier,
};
use lbsn::crawler::{
    CrawlDatabase, CrawlTarget, CrawlerConfig, MultiThreadCrawler, SimulatedHttp,
    SimulatedHttpConfig,
};
use lbsn::server::web::WebFrontend;
use lbsn::server::{LbsnServer, ServerConfig};
use lbsn::sim::SimClock;
use lbsn::workload::{Archetype, PopulationSpec};

struct Pipeline {
    server: Arc<LbsnServer>,
    population: lbsn::workload::Population,
    db: Arc<CrawlDatabase>,
}

fn pipeline() -> Pipeline {
    let spec = PopulationSpec::tiny(2_500, 0xF00D);
    let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
    let plan = lbsn::workload::plan(&spec);
    let population = lbsn::workload::generate(&server, &plan);
    let web = WebFrontend::new(Arc::clone(&server));
    let db = Arc::new(CrawlDatabase::new());
    let http = SimulatedHttp::new(web, SimulatedHttpConfig::default());
    for target in [CrawlTarget::Users, CrawlTarget::Venues] {
        MultiThreadCrawler::new(
            http.clone(),
            Arc::clone(&db),
            CrawlerConfig {
                threads: 6,
                target,
                ..CrawlerConfig::default()
            },
        )
        .run();
    }
    db.recompute_aggregates();
    Pipeline {
        server,
        population,
        db,
    }
}

#[test]
fn crawl_matches_server_ground_truth() {
    let p = pipeline();
    assert_eq!(p.db.user_count() as u64, p.server.user_count());
    assert_eq!(p.db.venue_count() as u64, p.server.venue_count());
    // Spot-check twenty users: the crawled profile equals server state.
    for truth in p.population.users.iter().step_by(125) {
        let crawled = p.db.user(truth.id.value()).expect("user crawled");
        p.server
            .with_user(truth.id, |u| {
                assert_eq!(crawled.total_checkins, u.total_checkins);
                assert_eq!(crawled.total_badges, u.badges.len() as u64);
                assert_eq!(crawled.points, u.points);
            })
            .unwrap();
    }
}

#[test]
fn population_statistics_track_the_paper() {
    let p = pipeline();
    let s = population_summary(&p.db);
    assert!((s.zero_checkin_fraction - 0.363).abs() < 0.05);
    assert!((s.one_to_five_fraction - 0.204).abs() < 0.05);
    assert_eq!(s.ge_5000_count, 11, "the §4.2 eleven");
    assert!(s.one_visitor_venues > 0);
    assert!(s.mayorships_per_mayor_user > 1.0);
}

#[test]
fn heavy_hitter_split_is_six_five() {
    let p = pipeline();
    let split = heavy_hitters_split_at(&p.db, 5_000, 10);
    assert_eq!(split.with_mayorships.len(), 6);
    assert_eq!(split.without_mayorships.len(), 5);
    let (legit, caught) = split.badge_gap();
    assert!(legit > caught, "legit {legit} vs caught {caught}");
    let top = split.top().unwrap();
    assert!(top.total_checkins > 12_000);
    assert_eq!(top.total_mayors, 0);
}

#[test]
fn curves_have_paper_shapes() {
    let p = pipeline();
    let recent = recent_vs_total(&p.db, 100, 2_000);
    assert!(!recent.is_empty());
    let first = recent.first().unwrap().average;
    let tail: Vec<f64> = recent
        .iter()
        .filter(|q| q.total_checkins > 500)
        .map(|q| q.average)
        .collect();
    let tail_avg = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
    assert!(tail_avg > first, "Fig 4.1 rises: {first} -> {tail_avg}");

    let badges = badges_vs_total(&p.db, 500, 14_000);
    let early_avg = badges
        .iter()
        .filter(|q| q.total_checkins < 1_000)
        .map(|q| q.average)
        .fold(0.0f64, f64::max);
    let whale_avg = badges
        .iter()
        .filter(|q| q.total_checkins > 9_000)
        .map(|q| q.average)
        .fold(0.0f64, f64::max);
    assert!(
        whale_avg < early_avg,
        "Fig 4.2 collapses in the caught-cheater tail: {early_avg} vs {whale_avg}"
    );
}

#[test]
fn classifier_finds_undetected_cheaters_with_high_precision() {
    let p = pipeline();
    let truth: HashSet<u64> = p
        .population
        .cheater_ids()
        .into_iter()
        .map(|id| id.value())
        .collect();
    let report = CheaterClassifier::default().evaluate(&p.db, &truth);
    assert!(
        report.precision() >= 0.8,
        "precision {} with suspects {:?}",
        report.precision(),
        report.suspects
    );
    assert!(report.recall() >= 0.5, "recall {}", report.recall());
    // Crucially, it finds cheaters the *service* never caught.
    let undetected: HashSet<u64> = p
        .population
        .ids_of(Archetype::EmulatorCheater)
        .into_iter()
        .chain(p.population.ids_of(Archetype::MayorFarmer))
        .map(|id| id.value())
        .collect();
    let found_undetected = report
        .suspects
        .iter()
        .filter(|s| undetected.contains(&s.user_id))
        .count();
    assert!(
        found_undetected > 0,
        "must flag at least one cheater the cheater code missed"
    );
}

#[test]
fn dispersion_signature_of_the_fig43_cheater() {
    let p = pipeline();
    let cheater = p.population.ids_of(Archetype::EmulatorCheater)[0];
    let profile = user_map(&p.db, cheater.value());
    assert!(
        profile.distinct_cities >= 15,
        "only {} cities",
        profile.distinct_cities
    );
    assert!(profile.concentration < 0.4);
    // A regular user for contrast.
    let regular = p
        .population
        .users
        .iter()
        .filter(|t| t.archetype == Archetype::Regular)
        .max_by_key(|t| {
            p.db.user(t.id.value())
                .map(|u| u.total_checkins)
                .unwrap_or(0)
        })
        .unwrap();
    let normal = user_map(&p.db, regular.id.value());
    assert!(
        normal.distinct_cities <= 6,
        "{} cities",
        normal.distinct_cities
    );
}

#[test]
fn hashing_defense_kills_the_location_history_join() {
    // Re-crawl the same site with the §5.2 ID-hashing defense and show
    // the per-user location history (the §6.2.1 privacy leak) vanishes
    // while venue-level statistics survive.
    let p = pipeline();
    let web = WebFrontend::new(Arc::clone(&p.server));
    web.set_config(lbsn::server::web::WebConfig {
        hash_visitor_ids: true,
        ..lbsn::server::web::WebConfig::default()
    });
    let db2 = Arc::new(CrawlDatabase::new());
    let http = SimulatedHttp::new(web, SimulatedHttpConfig::default());
    MultiThreadCrawler::new(
        http,
        Arc::clone(&db2),
        CrawlerConfig {
            threads: 6,
            target: CrawlTarget::Venues,
            ..CrawlerConfig::default()
        },
    )
    .run();
    db2.recompute_aggregates();

    let open = lbsn::defense::privacy::linkability(&p.db);
    let hashed = lbsn::defense::privacy::linkability(&db2);
    assert!(open.joinable_relations > 0);
    assert_eq!(hashed.joinable_relations, 0);
    assert_eq!(hashed.linkable_fraction(), 0.0);
    // Venue aggregate stats are unharmed: same venue count, same
    // check-in totals.
    assert_eq!(db2.venue_count(), p.db.venue_count());
    let cheater = p.population.ids_of(Archetype::EmulatorCheater)[0];
    assert!(lbsn::defense::privacy::location_history(&db2, cheater.value()).is_empty());
}

#[test]
fn reward_totals_are_pinned_at_population_scale() {
    // The golden fixture's histories are short; this replay has the
    // §4.2 whales (>12 000 check-ins each), so every windowed badge
    // criterion and 60-day mayorship contest runs on long histories.
    // An isolated registry keeps the other tests' servers out of the
    // counters.
    let registry = Arc::new(lbsn_obs::Registry::new());
    let server = LbsnServer::with_registry(
        SimClock::new(),
        ServerConfig::default(),
        Arc::clone(&registry),
    );
    let plan = lbsn::workload::plan(&PopulationSpec::tiny(2_500, 0xF00D));
    lbsn::workload::generate(&server, &plan);
    let snap = registry.snapshot();
    let totals = [
        snap.counter("server.rewards.badges_granted"),
        snap.counter("server.rewards.mayorships_granted"),
        snap.counter("server.rewards.points_granted"),
    ];
    assert_eq!(totals, [3_687, 10_297, 339_260]);
}
