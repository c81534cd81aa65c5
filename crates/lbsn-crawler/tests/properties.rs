//! Property tests for the crawler: LIKE matching against an oracle,
//! the crawl store's relation against a naive model, scrape round-trips
//! over arbitrary profile content, and re-crawl diff consistency.

use std::collections::HashMap;
use std::sync::Arc;

use lbsn_crawler::db::like_match;
use lbsn_crawler::scrape::{parse_user_page, parse_venue_page};
use lbsn_crawler::{CrawlDatabase, RecentCheckinRow, UserInfoRow, VenueInfoRow, VisitorRef};
use lbsn_geo::GeoPoint;
use lbsn_server::web::{PageRequest, WebFrontend};
use lbsn_server::{CheckinRequest, CheckinSource, LbsnServer, ServerConfig, UserSpec, VenueSpec};
use lbsn_sim::{Duration, SimClock};
use proptest::prelude::*;

/// Reference LIKE matcher: dynamic programming, obviously correct.
fn like_oracle(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.to_lowercase().chars().collect();
    let t: Vec<char> = text.to_lowercase().chars().collect();
    let mut dp = vec![vec![false; t.len() + 1]; p.len() + 1];
    dp[0][0] = true;
    for i in 1..=p.len() {
        if p[i - 1] == '%' {
            dp[i][0] = dp[i - 1][0];
        }
    }
    for i in 1..=p.len() {
        for j in 1..=t.len() {
            dp[i][j] = match p[i - 1] {
                '%' => dp[i - 1][j] || dp[i][j - 1],
                '_' => dp[i - 1][j - 1],
                c => dp[i - 1][j - 1] && c == t[j - 1],
            };
        }
    }
    dp[p.len()][t.len()]
}

fn arb_pattern() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![Just('%'), Just('_'), prop::char::range('a', 'e'),],
        0..8,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::char::range('a', 'e'), 0..10)
        .prop_map(|chars| chars.into_iter().collect())
}

/// A venue row with the given scraped visitor list (other fields fixed).
fn visited_venue(id: u64, visitors: Vec<VisitorRef>) -> VenueInfoRow {
    VenueInfoRow {
        id,
        name: format!("V{id}"),
        address: String::new(),
        category: "Other".into(),
        location: GeoPoint::new(35.0, -106.0).unwrap(),
        checkins_here: visitors.len() as u64,
        unique_visitors: visitors.len() as u64,
        special: None,
        tips: 0,
        mayor: None,
        recent_visitors: visitors,
    }
}

/// A scraped visitor: mostly linkable IDs (repeats allowed), some
/// opaque §5.2 tokens.
fn arb_visitor() -> impl Strategy<Value = VisitorRef> {
    (0u8..5, 1u64..9, "h[a-c]{1,2}").prop_map(|(kind, id, token)| match kind {
        0 => VisitorRef::Opaque(token),
        _ => VisitorRef::Id(id),
    })
}

/// The store's `RecentCheckin` relation as a flat row list, maintained
/// the naive way: a re-crawl drops every row of the venue, then appends
/// the new list's linkable visitors.
#[derive(Default)]
struct RelationModel(Vec<RecentCheckinRow>);

impl RelationModel {
    fn insert_venue(&mut self, row: &VenueInfoRow) {
        self.0.retain(|r| r.venue_id != row.id);
        for v in &row.recent_visitors {
            if let VisitorRef::Id(user_id) = v {
                self.0.push(RecentCheckinRow {
                    user_id: *user_id,
                    venue_id: row.id,
                });
            }
        }
    }

    fn user_venue_map(&self) -> HashMap<u64, Vec<u64>> {
        let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
        for r in &self.0 {
            map.entry(r.user_id).or_default().push(r.venue_id);
        }
        for venues in map.values_mut() {
            venues.sort_unstable();
            venues.dedup();
        }
        map
    }

    fn recent_checkins_of(&self, user_id: u64) -> u64 {
        self.0.iter().filter(|r| r.user_id == user_id).count() as u64
    }
}

/// Asserts every relation query on `db` agrees with `model`.
fn assert_relation(db: &CrawlDatabase, model: &RelationModel) -> Result<(), TestCaseError> {
    prop_assert_eq!(db.recent_checkin_count(), model.0.len());
    let map = model.user_venue_map();
    prop_assert_eq!(&db.user_venue_map(), &map);
    for user_id in 0..10 {
        let expected = map.get(&user_id).cloned().unwrap_or_default();
        prop_assert_eq!(db.venues_visited_by(user_id), expected);
    }
    Ok(())
}

/// Names that survive a trip through the HTML frontend unchanged (no
/// markup metacharacters — the site itself escapes nothing, faithful to
/// a 2010 scrape target).
fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 '#.-]{1,30}"
        .prop_map(|s| s.trim().to_string())
        .prop_filter("non-empty after trim", |s| !s.is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn like_match_agrees_with_oracle(pattern in arb_pattern(), text in arb_text()) {
        prop_assert_eq!(like_match(&pattern, &text), like_oracle(&pattern, &text));
    }

    /// Random crawl and re-crawl sequences: the venue-keyed relation
    /// answers every query as the naive row list does, through the
    /// aggregate join and an export/import round trip.
    #[test]
    fn venue_keyed_relation_matches_row_list_model(
        inserts in prop::collection::vec(
            (1u64..6, prop::collection::vec(arb_visitor(), 0..6)),
            0..24,
        ),
    ) {
        let db = CrawlDatabase::new();
        let mut model = RelationModel::default();
        for user_id in 1..9 {
            db.insert_user(UserInfoRow {
                id: user_id,
                username: None,
                home: None,
                total_checkins: 0,
                total_badges: 0,
                friends: 0,
                points: 0,
                recent_checkins: 0,
                total_mayors: 0,
            });
        }
        for (venue_id, visitors) in inserts {
            let row = visited_venue(venue_id, visitors);
            model.insert_venue(&row);
            db.insert_venue(row);
            assert_relation(&db, &model)?;
        }
        db.recompute_aggregates();
        for user_id in 1..9 {
            prop_assert_eq!(
                db.user(user_id).unwrap().recent_checkins,
                model.recent_checkins_of(user_id)
            );
        }
        let restored = CrawlDatabase::import_json(&db.export_json()).unwrap();
        assert_relation(&restored, &model)?;
        for user_id in 1..9 {
            prop_assert_eq!(restored.user(user_id), db.user(user_id));
        }
    }

    #[test]
    fn user_page_scrape_roundtrip(
        name in arb_name(),
        has_username in any::<bool>(),
        lat in -80.0..80.0f64,
        lon in -170.0..170.0f64,
    ) {
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        let home = GeoPoint::new(lat, lon).unwrap();
        let spec = if has_username {
            UserSpec::named(name.clone()).home(home)
        } else {
            UserSpec::anonymous().home(home)
        };
        let id = server.register_user(spec);
        let web = WebFrontend::new(server);
        let html = web.handle(&PageRequest::get(format!("/user/{}", id.value()))).body;
        let row = parse_user_page(&html).unwrap();
        prop_assert_eq!(row.id, id.value());
        if has_username {
            prop_assert_eq!(row.username.as_deref(), Some(name.as_str()));
        } else {
            prop_assert_eq!(row.username, None);
        }
        prop_assert_eq!(row.total_checkins, 0);
    }

    #[test]
    fn venue_page_scrape_roundtrip(
        name in arb_name(),
        address in arb_name(),
        lat in -80.0..80.0f64,
        lon in -170.0..170.0f64,
        visitors in 0u64..7,
    ) {
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        let loc = GeoPoint::new(lat, lon).unwrap();
        let vid = server.register_venue(
            VenueSpec::new(name.clone(), loc).address(address.clone()),
        );
        for _ in 0..visitors {
            let u = server.register_user(UserSpec::anonymous());
            server
                .check_in(&CheckinRequest {
                    user: u,
                    venue: vid,
                    reported_location: loc,
                    source: CheckinSource::MobileApp,
                })
                .unwrap();
            server.clock().advance(Duration::minutes(10));
        }
        let web = WebFrontend::new(server);
        let html = web.handle(&PageRequest::get(format!("/venue/{}", vid.value()))).body;
        let row = parse_venue_page(&html).unwrap();
        prop_assert_eq!(row.id, vid.value());
        prop_assert_eq!(&row.name, &name);
        prop_assert_eq!(&row.address, &address);
        prop_assert!((row.location.lat() - lat).abs() < 1e-5);
        prop_assert!((row.location.lon() - lon).abs() < 1e-5);
        prop_assert_eq!(row.checkins_here, visitors);
        prop_assert_eq!(row.unique_visitors, visitors);
        prop_assert_eq!(row.recent_visitors.len() as u64, visitors.min(10));
        // Newest first: the last registered user leads the list.
        if visitors > 0 {
            prop_assert_eq!(row.recent_visitors[0].clone(), VisitorRef::Id(visitors));
        }
    }

    /// Re-crawl diffing never invents users who aren't on the new lists,
    /// and always catches first-time appearances.
    #[test]
    fn diff_checkins_soundness(
        old_lists in prop::collection::vec(prop::collection::vec(1u64..12, 0..6), 1..6),
        new_lists in prop::collection::vec(prop::collection::vec(1u64..12, 0..6), 1..6),
    ) {
        let venue_row = |id: u64, visitors: &[u64]| {
            // Visitor lists can't repeat a user (the site dedupes).
            let mut seen = std::collections::HashSet::new();
            let unique: Vec<u64> = visitors.iter().copied().filter(|v| seen.insert(*v)).collect();
            VenueInfoRow {
                id,
                name: format!("V{id}"),
                address: String::new(),
                category: "Other".into(),
                location: GeoPoint::new(35.0, -106.0).unwrap(),
                checkins_here: unique.len() as u64,
                unique_visitors: unique.len() as u64,
                special: None,
                tips: 0,
                mayor: None,
                recent_visitors: unique.into_iter().map(VisitorRef::Id).collect(),
            }
        };
        let old = CrawlDatabase::new();
        for (i, l) in old_lists.iter().enumerate() {
            old.insert_venue(venue_row(i as u64 + 1, l));
        }
        let new = CrawlDatabase::new();
        for (i, l) in new_lists.iter().enumerate() {
            new.insert_venue(venue_row(i as u64 + 1, l));
        }
        let events = lbsn_crawler::recrawl::diff_checkins(&old, &new);
        for e in &events {
            // Soundness: every inferred check-in is on the new list.
            let row = new.venue(e.venue_id).unwrap();
            prop_assert!(row
                .recent_visitors.contains(&VisitorRef::Id(e.user_id)));
        }
        // Completeness for fresh appearances.
        for (i, l) in new_lists.iter().enumerate() {
            let vid = i as u64 + 1;
            let old_members: std::collections::HashSet<u64> = old
                .venue(vid)
                .map(|r| r.recent_visitors.iter().filter_map(|v| match v {
                    VisitorRef::Id(id) => Some(*id),
                    _ => None,
                }).collect())
                .unwrap_or_default();
            let mut seen = std::collections::HashSet::new();
            for u in l {
                if seen.insert(*u) && !old_members.contains(u) {
                    prop_assert!(
                        events.iter().any(|e| e.venue_id == vid && e.user_id == *u),
                        "missed fresh appearance of u{u} at v{vid}"
                    );
                }
            }
        }
    }
}
