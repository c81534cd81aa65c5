//! The shared experiment test bed: generate → serve → crawl.

use std::sync::Arc;

use lbsn_crawler::{
    CrawlDatabase, CrawlTarget, CrawlerConfig, MultiThreadCrawler, SimulatedHttp,
    SimulatedHttpConfig,
};
use lbsn_obs::{Registry, Snapshot};
use lbsn_server::web::WebFrontend;
use lbsn_server::{LbsnServer, ServerConfig};
use lbsn_sim::SimClock;
use lbsn_workload::{Population, PopulationPlan, PopulationSpec};

/// A fully stood-up reproduction environment:
///
/// 1. a synthetic population generated through the real server (cheater
///    code and rewards live);
/// 2. the public web frontend over that server;
/// 3. a completed crawl of every user and venue page into the analysis
///    database — the paper's vantage point.
pub struct TestBed {
    /// The live service.
    pub server: Arc<LbsnServer>,
    /// The population plan (venues, users, events).
    pub plan: PopulationPlan,
    /// Ground truth.
    pub population: Population,
    /// The public frontend.
    pub web: WebFrontend,
    /// The crawled database, aggregates recomputed.
    pub db: Arc<CrawlDatabase>,
    /// The bed's private metric registry: the server pipeline and the
    /// stand-up crawl report here, isolated from other beds and from
    /// the process-wide registry.
    pub registry: Arc<Registry>,
}

impl TestBed {
    /// Builds a test bed at a population scale (fraction of the
    /// August-2010 production numbers).
    pub fn at_scale(scale: f64, seed: u64) -> TestBed {
        TestBed::from_spec(&PopulationSpec::at_scale(scale, seed))
    }

    /// Builds a test bed from an explicit spec.
    pub fn from_spec(spec: &PopulationSpec) -> TestBed {
        TestBed::from_spec_with_registry(spec, Arc::new(Registry::new()))
    }

    /// [`TestBed::from_spec`], reporting into an injected registry (one
    /// configured to sample every span, say, so every check-in is
    /// timed).
    pub fn from_spec_with_registry(spec: &PopulationSpec, registry: Arc<Registry>) -> TestBed {
        let clock = SimClock::new();
        let server = Arc::new(LbsnServer::with_registry(
            clock,
            ServerConfig::default(),
            Arc::clone(&registry),
        ));
        let plan = lbsn_workload::plan(spec);
        let population = lbsn_workload::generate(&server, &plan);
        let web = WebFrontend::new(Arc::clone(&server));
        let db = crawl_everything_with_registry(&web, Arc::clone(&registry));
        TestBed {
            server,
            plan,
            population,
            web,
            db,
            registry,
        }
    }

    /// The ground-truth cheater ID set (numeric, for the classifier).
    pub fn cheater_ids(&self) -> std::collections::HashSet<u64> {
        self.population
            .cheater_ids()
            .into_iter()
            .map(|id| id.value())
            .collect()
    }

    /// Captures the bed's registry — check-in stage latencies, flag
    /// counters, crawler counters — as plain data.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

/// Crawls every user and venue page of a frontend into a fresh database
/// and recomputes the derived aggregates — the full §3.2 pipeline with
/// zero latency. Crawl metrics go to the process-wide registry.
pub fn crawl_everything(web: &WebFrontend) -> Arc<CrawlDatabase> {
    crawl_everything_with_registry(web, lbsn_obs::global())
}

/// [`crawl_everything`], reporting crawl metrics into an injected
/// registry.
pub fn crawl_everything_with_registry(
    web: &WebFrontend,
    registry: Arc<Registry>,
) -> Arc<CrawlDatabase> {
    let db = Arc::new(CrawlDatabase::new());
    let http = SimulatedHttp::new(web.clone(), SimulatedHttpConfig::default());
    for target in [CrawlTarget::Users, CrawlTarget::Venues] {
        let crawler = MultiThreadCrawler::with_registry(
            http.clone(),
            Arc::clone(&db),
            CrawlerConfig {
                threads: 8,
                target,
                ..CrawlerConfig::default()
            },
            Arc::clone(&registry),
        );
        crawler.run();
    }
    db.recompute_aggregates();
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_stands_up_end_to_end() {
        let bed = TestBed::from_spec(&PopulationSpec::tiny(600, 17));
        assert_eq!(bed.db.user_count() as u64, bed.server.user_count());
        assert_eq!(bed.db.venue_count() as u64, bed.server.venue_count());
        assert!(bed.db.recent_checkin_count() > 0);
        assert!(!bed.cheater_ids().is_empty());
        // Crawled totals match server truth for a sample user.
        let truth = &bed.population.users[0];
        let crawled = bed.db.user(truth.id.value()).unwrap();
        let server_total = bed
            .server
            .with_user(truth.id, |u| u.total_checkins)
            .unwrap();
        assert_eq!(crawled.total_checkins, server_total);
    }
}
