//! The multi-threaded crawler of §3.2 / Appendix A.
//!
//! The thesis ran 14–16 threads per machine on three machines, crawling
//! 100,000 user profiles per hour. The Rust port keeps the same worker
//! structure — a pool of threads pulling the next ID, fetching, scraping,
//! inserting, with shared processed/failed accounting (the `m_processed`
//! / `m_failed` counters of the C# listing become atomics) — and adds
//! retry handling and end-of-ID-space discovery.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lbsn_obs::names::crawler as obs_names;
use lbsn_obs::{Counter, QuantileSketch, Registry};

use crate::db::CrawlDatabase;
use crate::fetch::Fetcher;
use crate::scrape::{parse_user_page, parse_venue_page};
use crate::urlspace::UrlSpace;

/// Which table a crawl fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrawlTarget {
    /// Crawl `/user/<id>` pages into `UserInfo`.
    Users,
    /// Crawl `/venue/<id>` pages into `VenueInfo` + `RecentCheckin`.
    Venues,
}

impl CrawlTarget {
    fn space(self) -> UrlSpace {
        match self {
            CrawlTarget::Users => UrlSpace::Users,
            CrawlTarget::Venues => UrlSpace::Venues,
        }
    }
}

/// Crawler configuration.
#[derive(Debug, Clone)]
pub struct CrawlerConfig {
    /// Worker threads (the thesis used 14–16 for users, 5–6 for venues).
    pub threads: usize,
    /// Which profiles to crawl.
    pub target: CrawlTarget,
    /// First ID to fetch.
    pub start_id: u64,
    /// Last ID to fetch, if known. When `None`, the crawler discovers
    /// the end of the dense ID space by consecutive 404s.
    pub max_id: Option<u64>,
    /// Consecutive-404 run that signals the end of the ID space.
    pub stop_after_404s: u64,
    /// Retries per page on transient (503) failures.
    pub retries: u32,
}

impl Default for CrawlerConfig {
    fn default() -> Self {
        CrawlerConfig {
            threads: 15,
            target: CrawlTarget::Users,
            start_id: 1,
            max_id: None,
            stop_after_404s: 50,
            retries: 2,
        }
    }
}

/// Outcome accounting for a crawl run.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlStats {
    /// Pages attempted (the Appendix A `m_processed`).
    pub processed: u64,
    /// Pages that permanently failed — transient errors exhausted
    /// retries, parse failures, or 403 blocks (`m_failed`).
    pub failed: u64,
    /// 403 responses (anti-crawl blocking) — a subset of `failed`.
    pub blocked: u64,
    /// 404 responses (past the end of the ID space or deleted profiles).
    pub not_found: u64,
    /// Rows successfully stored.
    pub stored: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Real elapsed time.
    pub wall: std::time::Duration,
    /// The crawl's duration in *simulated* network time: the busiest
    /// worker's accumulated per-request latency. Throughput in the
    /// paper's units comes from this, so tests and benches don't have
    /// to sleep through real 150 ms round-trips.
    pub simulated_ms: f64,
}

impl CrawlStats {
    /// Pages per hour at the simulated latency — comparable to the
    /// paper's "100,000 users per hour". Falls back to wall-clock when
    /// no latency was simulated.
    pub fn pages_per_hour(&self) -> f64 {
        let hours = if self.simulated_ms > 0.0 {
            self.simulated_ms / 3_600_000.0
        } else {
            self.wall.as_secs_f64() / 3_600.0
        };
        if hours <= 0.0 {
            f64::INFINITY
        } else {
            self.stored as f64 / hours
        }
    }
}

/// Pre-resolved observability handles for a crawl (metric scheme
/// `crawler.component.metric`). Throughput gauges are in the paper's
/// Fig 3.3/3.4 units — profiles per hour of simulated network time.
struct CrawlerMetrics {
    registry: Arc<Registry>,
    /// `crawler.fetch.pages`: HTTP requests issued, retries included.
    pages: Counter,
    /// `crawler.fetch`: per-request simulated network latency,
    /// nanoseconds, as a quantile sketch, so a run exposes fetch
    /// p50/p95/p99 next to the throughput gauges.
    fetch_latency: QuantileSketch,
    /// `crawler.fetch.retries`: re-fetches after a transient 503.
    retries: Counter,
    /// `crawler.fetch.errors`: permanently failed pages (retry
    /// exhaustion, 403 blocks, unexpected statuses).
    errors: Counter,
    /// `crawler.parse.errors`: 200 responses the scraper rejected.
    parse_errors: Counter,
    /// `crawler.store.users` / `crawler.store.venues`: rows stored.
    stored_users: Counter,
    stored_venues: Counter,
}

impl CrawlerMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        let r = &registry;
        CrawlerMetrics {
            pages: r.counter(obs_names::FETCH_PAGES),
            fetch_latency: r.sketch(obs_names::FETCH),
            retries: r.counter(obs_names::FETCH_RETRIES),
            errors: r.counter(obs_names::FETCH_ERRORS),
            parse_errors: r.counter(obs_names::PARSE_ERRORS),
            stored_users: r.counter(obs_names::STORE_USERS),
            stored_venues: r.counter(obs_names::STORE_VENUES),
            registry,
        }
    }

    fn stored_counter(&self, target: CrawlTarget) -> &Counter {
        match target {
            CrawlTarget::Users => &self.stored_users,
            CrawlTarget::Venues => &self.stored_venues,
        }
    }
}

/// The worker pool.
pub struct MultiThreadCrawler {
    fetcher: Arc<dyn Fetcher>,
    db: Arc<CrawlDatabase>,
    config: CrawlerConfig,
    metrics: CrawlerMetrics,
}

impl std::fmt::Debug for MultiThreadCrawler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiThreadCrawler")
            .field("config", &self.config)
            .finish()
    }
}

struct Shared {
    next_id: AtomicU64,
    stop: AtomicBool,
    consecutive_404s: AtomicU64,
    processed: AtomicU64,
    failed: AtomicU64,
    blocked: AtomicU64,
    not_found: AtomicU64,
    stored: AtomicU64,
}

impl MultiThreadCrawler {
    /// Creates a crawler writing into `db` through `fetcher`,
    /// reporting metrics into the process-wide [`lbsn_obs::global`]
    /// registry.
    pub fn new(fetcher: Arc<dyn Fetcher>, db: Arc<CrawlDatabase>, config: CrawlerConfig) -> Self {
        Self::with_registry(fetcher, db, config, lbsn_obs::global())
    }

    /// Creates a crawler reporting metrics into an injected registry.
    pub fn with_registry(
        fetcher: Arc<dyn Fetcher>,
        db: Arc<CrawlDatabase>,
        config: CrawlerConfig,
        registry: Arc<Registry>,
    ) -> Self {
        MultiThreadCrawler {
            fetcher,
            db,
            config,
            metrics: CrawlerMetrics::new(registry),
        }
    }

    /// Runs the crawl to completion and returns the stats.
    pub fn run(&self) -> CrawlStats {
        let threads = self.config.threads.max(1);
        let shared = Arc::new(Shared {
            next_id: AtomicU64::new(self.config.start_id),
            stop: AtomicBool::new(false),
            consecutive_404s: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            blocked: AtomicU64::new(0),
            not_found: AtomicU64::new(0),
            stored: AtomicU64::new(0),
        });
        let start = Instant::now();
        let tallies: Vec<WorkerTally> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let shared = Arc::clone(&shared);
                    scope.spawn(move || self.worker(&shared))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("crawler worker panicked"))
                .collect()
        });
        let stats = CrawlStats {
            processed: shared.processed.load(Ordering::Relaxed),
            failed: shared.failed.load(Ordering::Relaxed),
            blocked: shared.blocked.load(Ordering::Relaxed),
            not_found: shared.not_found.load(Ordering::Relaxed),
            stored: shared.stored.load(Ordering::Relaxed),
            threads,
            wall: start.elapsed(),
            simulated_ms: tallies.iter().map(|t| t.virtual_ms).fold(0.0, f64::max),
        };
        self.publish_throughput(&stats, &tallies);
        stats
    }

    /// Publishes aggregate and per-thread throughput gauges in the
    /// paper's profiles-per-hour units (Fig 3.3/3.4), plus a run-summary
    /// event.
    fn publish_throughput(&self, stats: &CrawlStats, tallies: &[WorkerTally]) {
        let unit = match self.config.target {
            CrawlTarget::Users => "users_per_hour",
            CrawlTarget::Venues => "venues_per_hour",
        };
        let registry = &self.metrics.registry;
        registry
            .gauge(&obs_names::throughput(unit))
            .set(stats.pages_per_hour());
        for (i, tally) in tallies.iter().enumerate() {
            let pph = if tally.virtual_ms > 0.0 {
                tally.stored as f64 / (tally.virtual_ms / 3_600_000.0)
            } else {
                0.0
            };
            registry
                .gauge(&obs_names::thread_throughput(i, unit))
                .set(pph);
        }
        registry.event(
            obs_names::RUN_FINISHED_EVENT,
            &[
                ("target", format!("{:?}", self.config.target)),
                ("processed", stats.processed.to_string()),
                ("stored", stats.stored.to_string()),
                ("failed", stats.failed.to_string()),
                ("threads", stats.threads.to_string()),
            ],
        );
    }

    /// Records one fetch's simulated network latency into the
    /// `crawler.fetch` sketch (milliseconds → nanoseconds).
    fn record_fetch_latency(&self, response: &crate::fetch::FetchResponse) {
        self.metrics
            .fetch_latency
            .record((response.simulated_latency_ms * 1_000_000.0) as u64);
    }

    /// One worker: claim the next ID, fetch with retries, scrape, store.
    /// Returns its accumulated simulated latency and stored-row count.
    fn worker(&self, shared: &Shared) -> WorkerTally {
        let mut virtual_ms = 0.0;
        let mut tally_stored = 0u64;
        loop {
            if shared.stop.load(Ordering::Relaxed) {
                break;
            }
            let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
            if let Some(max) = self.config.max_id {
                if id > max {
                    break;
                }
            }
            let url = self.config.target.space().url(id);
            // One root span per page (head-sampled): fetch → parse →
            // store become children, so a sampled page's lifecycle
            // reads end to end in chrome://tracing.
            let mut span = self.metrics.registry.span(obs_names::PAGE_SPAN);
            span.attr("url", &url);

            // Fetch with transient-failure retries.
            let mut fetch_span = span.child(obs_names::FETCH);
            let mut response = self.fetcher.fetch(&url);
            self.metrics.pages.inc();
            self.record_fetch_latency(&response);
            virtual_ms += response.simulated_latency_ms;
            let mut attempts = 0;
            while response.status == 503 && attempts < self.config.retries {
                attempts += 1;
                fetch_span.event("fetch.retry");
                response = self.fetcher.fetch(&url);
                self.metrics.pages.inc();
                self.metrics.retries.inc();
                self.record_fetch_latency(&response);
                virtual_ms += response.simulated_latency_ms;
            }
            fetch_span.end();
            span.attr("status", response.status);

            shared.processed.fetch_add(1, Ordering::Relaxed);
            match response.status {
                200 => {
                    shared.consecutive_404s.store(0, Ordering::Relaxed);
                    let parse_span = span.child(obs_names::PARSE_SPAN);
                    let stored = match self.config.target {
                        CrawlTarget::Users => match parse_user_page(&response.body) {
                            Ok(row) => {
                                parse_span.end();
                                let store_span = span.child(obs_names::STORE_SPAN);
                                self.db.insert_user(row);
                                store_span.end();
                                true
                            }
                            Err(_) => {
                                parse_span.end();
                                false
                            }
                        },
                        CrawlTarget::Venues => match parse_venue_page(&response.body) {
                            Ok(row) => {
                                parse_span.end();
                                let store_span = span.child(obs_names::STORE_SPAN);
                                self.db.insert_venue(row);
                                store_span.end();
                                true
                            }
                            Err(_) => {
                                parse_span.end();
                                false
                            }
                        },
                    };
                    if stored {
                        shared.stored.fetch_add(1, Ordering::Relaxed);
                        self.metrics.stored_counter(self.config.target).inc();
                        tally_stored += 1;
                    } else {
                        shared.failed.fetch_add(1, Ordering::Relaxed);
                        self.metrics.parse_errors.inc();
                        span.event("parse.error");
                    }
                }
                404 => {
                    shared.not_found.fetch_add(1, Ordering::Relaxed);
                    let run = shared.consecutive_404s.fetch_add(1, Ordering::Relaxed) + 1;
                    if self.config.max_id.is_none() && run >= self.config.stop_after_404s {
                        shared.stop.store(true, Ordering::Relaxed);
                    }
                }
                403 => {
                    shared.blocked.fetch_add(1, Ordering::Relaxed);
                    shared.failed.fetch_add(1, Ordering::Relaxed);
                    self.metrics.errors.inc();
                }
                _ => {
                    shared.failed.fetch_add(1, Ordering::Relaxed);
                    self.metrics.errors.inc();
                }
            }
        }
        WorkerTally {
            virtual_ms,
            stored: tally_stored,
        }
    }
}

/// What one worker thread accumulated over a run.
struct WorkerTally {
    virtual_ms: f64,
    stored: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::{SimulatedHttp, SimulatedHttpConfig};
    use lbsn_server::web::WebFrontend;
    use lbsn_server::{
        CheckinRequest, CheckinSource, LbsnServer, ServerConfig, UserSpec, VenueSpec,
    };
    use lbsn_sim::{Duration, LatencyModel, SimClock};

    fn populated_server(users: u64, venues: u64) -> Arc<LbsnServer> {
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        let abq = lbsn_geo::GeoPoint::new(35.0844, -106.6504).unwrap();
        for i in 0..venues {
            server.register_venue(VenueSpec::new(
                format!("Venue {i}"),
                lbsn_geo::destination(abq, (i % 360) as f64, 100.0 + i as f64 * 37.0),
            ));
        }
        for i in 0..users {
            let uid = server.register_user(if i % 4 == 0 {
                UserSpec::named(format!("user-{i}"))
            } else {
                UserSpec::anonymous()
            });
            if venues > 0 {
                let vid = lbsn_server::VenueId(i % venues + 1);
                let loc = server.venue(vid).unwrap().location;
                server
                    .check_in(&CheckinRequest {
                        user: uid,
                        venue: vid,
                        reported_location: loc,
                        source: CheckinSource::MobileApp,
                    })
                    .unwrap();
                server.clock().advance(Duration::minutes(7));
            }
        }
        server
    }

    fn crawl(
        server: Arc<LbsnServer>,
        target: CrawlTarget,
        threads: usize,
        http_cfg: SimulatedHttpConfig,
    ) -> (Arc<CrawlDatabase>, CrawlStats) {
        let http = SimulatedHttp::new(WebFrontend::new(server), http_cfg);
        let db = Arc::new(CrawlDatabase::new());
        let crawler = MultiThreadCrawler::new(
            http,
            Arc::clone(&db),
            CrawlerConfig {
                threads,
                target,
                ..CrawlerConfig::default()
            },
        );
        let stats = crawler.run();
        (db, stats)
    }

    #[test]
    fn crawls_all_users_by_id_enumeration() {
        let server = populated_server(30, 5);
        let (db, stats) = crawl(
            server,
            CrawlTarget::Users,
            4,
            SimulatedHttpConfig::default(),
        );
        assert_eq!(db.user_count(), 30);
        assert_eq!(stats.stored, 30);
        assert_eq!(stats.failed, 0);
        assert!(stats.not_found >= 50, "discovered the end of the space");
        // Usernames present for the named quarter.
        let named = db.users_where(|u| u.username.is_some());
        assert_eq!(named.len(), 8); // ceil(30/4)
    }

    #[test]
    fn crawls_venues_with_relations() {
        let server = populated_server(20, 5);
        let (db, stats) = crawl(
            server,
            CrawlTarget::Venues,
            3,
            SimulatedHttpConfig::default(),
        );
        assert_eq!(db.venue_count(), 5);
        assert_eq!(stats.stored, 5);
        assert!(db.recent_checkin_count() > 0);
        db.recompute_aggregates();
        // Every user that checked in recently shows up in some list.
        let covered = db.users_where(|_| true).len();
        assert_eq!(covered, 0, "user table not filled by venue crawl");
    }

    #[test]
    fn explicit_range_does_not_overrun() {
        let server = populated_server(30, 0);
        let http = SimulatedHttp::new(WebFrontend::new(server), SimulatedHttpConfig::default());
        let db = Arc::new(CrawlDatabase::new());
        let crawler = MultiThreadCrawler::new(
            Arc::clone(&http) as Arc<dyn Fetcher>,
            Arc::clone(&db),
            CrawlerConfig {
                threads: 2,
                target: CrawlTarget::Users,
                start_id: 5,
                max_id: Some(10),
                ..CrawlerConfig::default()
            },
        );
        let stats = crawler.run();
        assert_eq!(stats.processed, 6);
        assert_eq!(db.user_count(), 6);
        assert!(db.user(4).is_none());
        assert!(db.user(11).is_none());
    }

    #[test]
    fn retries_recover_transient_failures() {
        let server = populated_server(10, 0);
        let (db, stats) = crawl(
            server,
            CrawlTarget::Users,
            2,
            SimulatedHttpConfig {
                failure_rate: 0.3,
                ..SimulatedHttpConfig::default()
            },
        );
        // With 2 retries, p(all 3 fail) ≈ 2.7%; allow a few misses but
        // expect most pages stored.
        assert!(db.user_count() >= 8, "stored {}", db.user_count());
        assert_eq!(stats.stored as usize, db.user_count());
    }

    #[test]
    fn simulated_throughput_accounts_latency() {
        let server = populated_server(40, 0);
        let (_, stats) = crawl(
            server,
            CrawlTarget::Users,
            4,
            SimulatedHttpConfig {
                latency: LatencyModel::Constant(150.0),
                // Sleep 2% of real time so the work actually spreads
                // across workers; accounting stays in simulated units.
                time_scale: 0.02,
                ..SimulatedHttpConfig::default()
            },
        );
        assert!(stats.simulated_ms > 0.0);
        // ~90 fetches (40 stored + ~50 end-of-space 404 probes) across 4
        // workers at 150 ms each: busiest worker ~3.4 s simulated, so
        // ~40 stored pages → ~40k/hour. At real scale the 404 tail is
        // negligible and 4 workers would sustain ~96k/hour.
        let pph = stats.pages_per_hour();
        assert!(
            (25_000.0..120_000.0).contains(&pph),
            "pages/hour {pph} out of plausible band"
        );
    }

    #[test]
    fn more_threads_mean_more_throughput() {
        let cfg = || SimulatedHttpConfig {
            latency: LatencyModel::Constant(100.0),
            time_scale: 0.02,
            ..SimulatedHttpConfig::default()
        };
        let (_, one) = crawl(populated_server(60, 0), CrawlTarget::Users, 1, cfg());
        let (_, sixteen) = crawl(populated_server(60, 0), CrawlTarget::Users, 16, cfg());
        assert!(
            sixteen.pages_per_hour() > one.pages_per_hour() * 8.0,
            "1 thread {} vs 16 threads {}",
            one.pages_per_hour(),
            sixteen.pages_per_hour()
        );
    }

    #[test]
    fn blocked_responses_counted() {
        let server = populated_server(5, 0);
        let frontend = WebFrontend::new(server);
        frontend.set_config(lbsn_server::web::WebConfig {
            require_login: true,
            ..lbsn_server::web::WebConfig::default()
        });
        let http = SimulatedHttp::new(frontend, SimulatedHttpConfig::default());
        let db = Arc::new(CrawlDatabase::new());
        let crawler = MultiThreadCrawler::new(
            http,
            db,
            CrawlerConfig {
                threads: 2,
                target: CrawlTarget::Users,
                max_id: Some(5),
                ..CrawlerConfig::default()
            },
        );
        let stats = crawler.run();
        assert_eq!(stats.blocked, 5);
        assert_eq!(stats.stored, 0);
    }
}
