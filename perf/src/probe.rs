//! Component probes for traced runs.
//!
//! One request in [`SAMPLE_EVERY`] is probed just before it is admitted:
//! its user and venue are read through the shard accessors (timed, on
//! ids nothing has touched yet), then the user, venue and incumbent
//! mayor are cloned (untimed) and each component the admission pipeline
//! runs is timed on the clones at the request's virtual time. On
//! workloads without a crawler the probe also renders, scrapes and
//! stores the request's user and venue pages, so every layer is measured
//! on every world.

use std::hint::black_box;
use std::sync::Arc;

use lbsn_crawler::scrape::{parse_user_page, parse_venue_page};
use lbsn_crawler::CrawlDatabase;
use lbsn_geo::GeoPoint;
use lbsn_server::cheatercode::CheaterCode;
use lbsn_server::rewards::{decide_mayor, evaluate_badges, VenueLookup, MAYOR_WINDOW};
use lbsn_server::web::{PageRequest, WebFrontend};
use lbsn_server::{
    CheckinRecord, CheckinRequest, DetectorConfig, LbsnServer, UserId, VenueCategory, VenueId,
};
use lbsn_sim::{Timestamp, DAY};

use crate::trace::{Layer, SpanCtx, Tracer};

/// Probe one request in this many.
pub const SAMPLE_EVERY: u64 = 64;

/// Venue categories by id, for the badge rules' category lookups.
struct Categories(Vec<VenueCategory>);

impl VenueLookup for Categories {
    fn category_of(&self, venue: VenueId) -> Option<VenueCategory> {
        let idx = venue.value().checked_sub(1)? as usize;
        self.0.get(idx).copied()
    }
}

/// Everything a probe needs that outlives one request.
pub struct Probes {
    server: Arc<LbsnServer>,
    evaluate: CheaterCode,
    rules: [(Layer, CheaterCode); 4],
    categories: Categories,
    pages: Option<(WebFrontend, CrawlDatabase)>,
}

/// A detector chain holding only the rules `keep` leaves enabled.
fn single_rule(base: &DetectorConfig, keep: impl FnOnce(&mut DetectorConfig)) -> CheaterCode {
    let mut cfg = DetectorConfig {
        enable_gps: false,
        enable_cooldown: false,
        enable_speed: false,
        enable_rapid_fire: false,
        ..base.clone()
    };
    keep(&mut cfg);
    CheaterCode::from_config(&cfg)
}

impl Probes {
    /// Probes over `server`'s current world; `pages` adds the page
    /// render → scrape → store probe.
    pub fn new(server: &Arc<LbsnServer>, pages: bool) -> Self {
        let detectors = &server.config().policy.detectors;
        let mut categories = vec![VenueCategory::Other; server.venue_count() as usize];
        server.for_each_venue(|v| categories[v.id.value() as usize - 1] = v.category);
        Probes {
            server: Arc::clone(server),
            evaluate: CheaterCode::from_config(detectors),
            rules: [
                (
                    Layer::GpsRule,
                    single_rule(detectors, |c| c.enable_gps = true),
                ),
                (
                    Layer::CooldownRule,
                    single_rule(detectors, |c| c.enable_cooldown = true),
                ),
                (
                    Layer::SpeedRule,
                    single_rule(detectors, |c| c.enable_speed = true),
                ),
                (
                    Layer::RapidFireRule,
                    single_rule(detectors, |c| c.enable_rapid_fire = true),
                ),
            ],
            categories: Categories(categories),
            pages: pages.then(|| (WebFrontend::new(Arc::clone(server)), CrawlDatabase::new())),
        }
    }

    /// Probes one request about to be admitted at virtual time `now`.
    pub fn run(&self, tr: &mut Tracer, ctx: SpanCtx, req: &CheckinRequest, now: Timestamp) {
        let server = &*self.server;
        // Shard reads first, before the clones below warm the slots.
        tr.time(Layer::UserRead, Some(ctx), || {
            black_box(server.with_user(req.user, |u| u.total_checkins))
        });
        tr.time(Layer::VenueRead, Some(ctx), || {
            black_box(server.with_venue(req.venue, |v| v.checkins_here))
        });
        let (Some(mut user), Some(venue)) = (server.user(req.user), server.venue(req.venue)) else {
            return;
        };
        let incumbent = venue.mayor.and_then(|m| server.user(m));

        let rule_ctx = lbsn_server::RuleContext {
            user: &user,
            venue: &venue,
            request: req,
            now,
        };
        let flags = tr.time(Layer::Evaluate, Some(ctx), || {
            self.evaluate.evaluate(black_box(&rule_ctx))
        });
        for (layer, code) in &self.rules {
            tr.time(*layer, Some(ctx), || black_box(code.evaluate(&rule_ctx)));
        }

        // The record the pipeline appends, then the state it updates
        // before rewards run (untimed: plain field writes).
        // A branded account is rejected before any rule runs.
        let rewarded = flags.is_empty() && !user.branded_cheater;
        let record = CheckinRecord {
            venue: req.venue,
            at: now,
            location: req.reported_location,
            source: req.source,
            rewarded,
            flags,
        };
        // A clone's buffer is exactly full, so its first append pays a
        // reallocation the live history rarely does: time the second
        // append on a scratch copy instead.
        let mut scratch = user.clone();
        scratch.push_record(record.clone());
        let again = record.clone();
        tr.time(Layer::HistoryPush, Some(ctx), || scratch.push_record(again));
        user.push_record(record);
        if rewarded {
            user.valid_checkins += 1;
            user.visited_venues.insert(req.venue);
        }
        tr.time(Layer::WindowScan, Some(ctx), || {
            let mayor_window = Timestamp(now.secs().saturating_sub(MAYOR_WINDOW.as_secs()));
            let month = Timestamp(now.secs().saturating_sub(30 * DAY));
            black_box((
                user.distinct_days_at(req.venue, mayor_window),
                user.valid_checkins_since(month).count(),
            ))
        });
        // Rewards run only on accepted check-ins, as in the pipeline.
        if rewarded {
            tr.time(Layer::DecideMayor, Some(ctx), || {
                black_box(decide_mayor(&venue, &user, incumbent.as_ref(), now))
            });
            tr.time(Layer::EvaluateBadges, Some(ctx), || {
                black_box(evaluate_badges(&user, &venue, now, &self.categories))
            });
        }

        if let Some((web, db)) = &self.pages {
            // Probe pages are validated like crawled ones, but a probe
            // never fails the run: the crawl workload owns that oracle.
            let _ = fetch_user(web, db, req.user, &mut Some((&mut *tr, ctx)));
            let _ = fetch_venue(web, db, req.venue, &mut Some((&mut *tr, ctx)));
        }
    }
}

/// An optional tracer plus the span calls hang under.
pub type Traced<'a> = Option<(&'a mut Tracer, SpanCtx)>;

/// Times `f` as a call of `layer` when traced; just runs it otherwise.
pub fn timed<R>(tr: &mut Traced<'_>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match tr {
        Some((t, ctx)) => t.time(layer, Some(*ctx), f),
        None => f(),
    }
}

/// Fetches `/user/<id>`, parses it and stores the row; `Err` names the
/// step that failed. Returns the page size in bytes.
pub fn fetch_user(
    web: &WebFrontend,
    db: &CrawlDatabase,
    id: UserId,
    tr: &mut Traced<'_>,
) -> Result<usize, String> {
    let path = format!("/user/{}", id.value());
    let page = timed(tr, Layer::UserPage, || web.handle(&PageRequest::get(&path)));
    if !page.is_ok() {
        return Err(format!("{path}: status {}", page.status));
    }
    if let Some((t, _)) = tr.as_mut() {
        t.page(page.body.len());
    }
    let row = timed(tr, Layer::Parse, || parse_user_page(&page.body))
        .map_err(|e| format!("{path}: {e}"))?;
    if row.id != id.value() {
        return Err(format!("{path}: parsed id {}", row.id));
    }
    timed(tr, Layer::Insert, || db.insert_user(row));
    Ok(page.body.len())
}

/// Fetches `/venue/<id>`, parses it and stores the row; `Err` names the
/// step that failed. Returns the page size in bytes.
pub fn fetch_venue(
    web: &WebFrontend,
    db: &CrawlDatabase,
    id: VenueId,
    tr: &mut Traced<'_>,
) -> Result<usize, String> {
    let path = format!("/venue/{}", id.value());
    let page = timed(tr, Layer::VenuePage, || {
        web.handle(&PageRequest::get(&path))
    });
    if !page.is_ok() {
        return Err(format!("{path}: status {}", page.status));
    }
    if let Some((t, _)) = tr.as_mut() {
        t.page(page.body.len());
    }
    let row = timed(tr, Layer::Parse, || parse_venue_page(&page.body))
        .map_err(|e| format!("{path}: {e}"))?;
    if row.id != id.value() {
        return Err(format!("{path}: parsed id {}", row.id));
    }
    timed(tr, Layer::Insert, || db.insert_venue(row));
    Ok(page.body.len())
}

/// Venue locations by id, for building honest (and spoofed) fixes
/// without touching the server on the request path.
pub fn venue_locations(server: &LbsnServer) -> Vec<GeoPoint> {
    let mut by_id: Vec<(u64, GeoPoint)> = Vec::with_capacity(server.venue_count() as usize);
    server.for_each_venue(|v| by_id.push((v.id.value(), v.location)));
    by_id.sort_unstable_by_key(|&(id, _)| id);
    assert!(
        by_id
            .iter()
            .enumerate()
            .all(|(i, &(id, _))| id == i as u64 + 1),
        "venue ids are dense from 1"
    );
    by_id.into_iter().map(|(_, loc)| loc).collect()
}
