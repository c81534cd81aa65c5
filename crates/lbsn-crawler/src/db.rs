//! The crawl database: the three tables of Fig 3.3.
//!
//! "We stored user and venue profiles in tables `UserInfo` and
//! `VenueInfo` respectively; and we also created a table called
//! `RecentCheckins` to record the relations between venues and users."
//! The paper computed two derived columns by joining: each user's
//! `RecentCheckins` count (how many venue visitor lists they appear in —
//! the y-axis of Fig 4.1) and `TotalMayors` (from venue `MayorID` — the
//! §3.4 and §4.2 analyses). [`CrawlDatabase::recompute_aggregates`] does
//! that join.
//!
//! `RecentCheckins` is keyed by venue: its rows are the linkable entries
//! of each stored venue row's visitor list, read off that row rather
//! than kept in a separate table. A re-crawl that replaces one venue
//! therefore replaces that venue's relation rows in O(its visitors),
//! however large the crawl has grown, and a full crawl stores in linear
//! time. Queries over the relation ([`CrawlDatabase::venues_visited_by`],
//! [`CrawlDatabase::user_venue_map`]) walk every venue's list.

use std::collections::HashMap;

use lbsn_geo::GeoPoint;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// A visitor reference scraped from a "Who's been here" list: a user ID
/// when the site is open, an opaque token under the §5.2 hashing
/// defense.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VisitorRef {
    /// A linkable numeric user ID.
    Id(u64),
    /// An opaque per-deployment token — joinable *within* the crawl
    /// only if the deployment reuses the token across venues.
    Opaque(String),
}

/// One row of the `UserInfo` table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserInfoRow {
    /// Numeric user ID.
    pub id: u64,
    /// Vanity username (26.1 % of accounts in the paper's crawl).
    pub username: Option<String>,
    /// Home location string, if published.
    pub home: Option<String>,
    /// Total check-ins shown on the profile.
    pub total_checkins: u64,
    /// Badge count shown on the profile.
    pub total_badges: u64,
    /// Friend count.
    pub friends: u64,
    /// Points balance.
    pub points: u64,
    /// Derived: venues whose recent-visitor list contains this user.
    pub recent_checkins: u64,
    /// Derived: venues whose `MayorID` is this user.
    pub total_mayors: u64,
}

/// One row of the `VenueInfo` table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VenueInfoRow {
    /// Numeric venue ID.
    pub id: u64,
    /// Venue name.
    pub name: String,
    /// Street address.
    pub address: String,
    /// Category label.
    pub category: String,
    /// Coordinates.
    pub location: GeoPoint,
    /// Valid check-ins here.
    pub checkins_here: u64,
    /// Distinct visitors.
    pub unique_visitors: u64,
    /// Special `(kind, description)`, if advertised.
    pub special: Option<(String, String)>,
    /// Number of user tips on the profile (the paper's Fig 3.3 venue
    /// profile fields include "tips").
    pub tips: u64,
    /// Mayor's user ID, if any.
    pub mayor: Option<u64>,
    /// Scraped "Who's been here" list, newest first.
    pub recent_visitors: Vec<VisitorRef>,
}

impl VenueInfoRow {
    /// §3.4's target class: a mayor-only special with the mayorship
    /// unclaimed.
    pub fn is_unclaimed_special(&self) -> bool {
        self.mayor.is_none() && matches!(&self.special, Some((kind, _)) if kind == "mayor")
    }
}

/// One row of the `RecentCheckin` relation: user appears in venue's
/// visitor list. Derived from the venue row (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RecentCheckinRow {
    /// The visiting user.
    pub user_id: u64,
    /// The visited venue.
    pub venue_id: u64,
}

#[derive(Default)]
struct Tables {
    users: HashMap<u64, UserInfoRow>,
    venues: HashMap<u64, VenueInfoRow>,
    /// Size of the `RecentCheckin` relation: linkable visitor entries
    /// over every stored venue row.
    recent_checkin_count: usize,
}

impl Tables {
    /// The `RecentCheckin` relation, venue by venue.
    fn recent_checkins(&self) -> impl Iterator<Item = RecentCheckinRow> + '_ {
        self.venues.values().flat_map(|venue| {
            linked_visitors(venue).map(|user_id| RecentCheckinRow {
                user_id,
                venue_id: venue.id,
            })
        })
    }
}

/// The linkable user IDs on a venue's visitor list; opaque tokens
/// (§5.2) yield no relation rows.
fn linked_visitors(venue: &VenueInfoRow) -> impl Iterator<Item = u64> + '_ {
    venue.recent_visitors.iter().filter_map(|v| match v {
        VisitorRef::Id(user_id) => Some(*user_id),
        VisitorRef::Opaque(_) => None,
    })
}

/// The thread-safe crawl store. Crawler workers insert concurrently;
/// analysis reads after the crawl completes.
#[derive(Default)]
pub struct CrawlDatabase {
    tables: RwLock<Tables>,
}

impl std::fmt::Debug for CrawlDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.tables.read();
        f.debug_struct("CrawlDatabase")
            .field("users", &t.users.len())
            .field("venues", &t.venues.len())
            .field("recent_checkins", &t.recent_checkin_count)
            .finish()
    }
}

impl CrawlDatabase {
    /// An empty database.
    pub fn new() -> Self {
        CrawlDatabase::default()
    }

    /// Upserts a user row (re-crawls overwrite).
    pub fn insert_user(&self, row: UserInfoRow) {
        self.tables.write().users.insert(row.id, row);
    }

    /// Upserts a venue row, replacing its `RecentCheckin` relation rows
    /// in O(visitors).
    pub fn insert_venue(&self, row: VenueInfoRow) {
        let added = linked_visitors(&row).count();
        let mut t = self.tables.write();
        let removed = t
            .venues
            .insert(row.id, row)
            .map_or(0, |old| linked_visitors(&old).count());
        t.recent_checkin_count = t.recent_checkin_count + added - removed;
    }

    /// Number of crawled users.
    pub fn user_count(&self) -> usize {
        self.tables.read().users.len()
    }

    /// Number of crawled venues.
    pub fn venue_count(&self) -> usize {
        self.tables.read().venues.len()
    }

    /// Number of `RecentCheckin` relation rows.
    pub fn recent_checkin_count(&self) -> usize {
        self.tables.read().recent_checkin_count
    }

    /// A copy of one user row.
    pub fn user(&self, id: u64) -> Option<UserInfoRow> {
        self.tables.read().users.get(&id).cloned()
    }

    /// A copy of one venue row.
    pub fn venue(&self, id: u64) -> Option<VenueInfoRow> {
        self.tables.read().venues.get(&id).cloned()
    }

    /// Visits every user row.
    pub fn for_each_user(&self, mut f: impl FnMut(&UserInfoRow)) {
        for row in self.tables.read().users.values() {
            f(row);
        }
    }

    /// Visits every venue row.
    pub fn for_each_venue(&self, mut f: impl FnMut(&VenueInfoRow)) {
        for row in self.tables.read().venues.values() {
            f(row);
        }
    }

    /// `SELECT … FROM VenueInfo WHERE Name LIKE <pattern>` — the query
    /// behind Fig 3.4 (`LIKE "%Starbucks%"`). `%` matches any run,
    /// `_` any single character; matching is case-insensitive like
    /// MySQL's default collation.
    pub fn venues_where_name_like(&self, pattern: &str) -> Vec<VenueInfoRow> {
        let pattern = LikePattern::new(pattern);
        let t = self.tables.read();
        let mut rows: Vec<VenueInfoRow> = t
            .venues
            .values()
            .filter(|v| pattern.matches(&v.name))
            .cloned()
            .collect();
        rows.sort_by_key(|v| v.id);
        rows
    }

    /// All venue rows satisfying a predicate (ID order) — the generic
    /// "SQL command" surface the attack toolkit uses for target
    /// selection.
    pub fn venues_where(&self, mut pred: impl FnMut(&VenueInfoRow) -> bool) -> Vec<VenueInfoRow> {
        let t = self.tables.read();
        let mut rows: Vec<VenueInfoRow> = t.venues.values().filter(|v| pred(v)).cloned().collect();
        rows.sort_by_key(|v| v.id);
        rows
    }

    /// All user rows satisfying a predicate (ID order).
    pub fn users_where(&self, mut pred: impl FnMut(&UserInfoRow) -> bool) -> Vec<UserInfoRow> {
        let t = self.tables.read();
        let mut rows: Vec<UserInfoRow> = t.users.values().filter(|u| pred(u)).cloned().collect();
        rows.sort_by_key(|u| u.id);
        rows
    }

    /// The venues where a user appears in the recent-visitor list — the
    /// raw material of the §4.3 dispersion maps.
    pub fn venues_visited_by(&self, user_id: u64) -> Vec<u64> {
        let t = self.tables.read();
        let mut ids: Vec<u64> = t
            .recent_checkins()
            .filter(|r| r.user_id == user_id)
            .map(|r| r.venue_id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The full user → venues map in one pass (the per-user variant is
    /// `O(relations)` per call; analyses over every user build this
    /// once).
    pub fn user_venue_map(&self) -> HashMap<u64, Vec<u64>> {
        let t = self.tables.read();
        let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
        for r in t.recent_checkins() {
            map.entry(r.user_id).or_default().push(r.venue_id);
        }
        for v in map.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        map
    }

    /// The derived-column join of Fig 3.3: "by counting the number of
    /// records for a user, we recorded the number of recent check-ins of
    /// this user … by analyzing the MayorID of each venue, we calculated
    /// how many mayorships each user had".
    pub fn recompute_aggregates(&self) {
        let mut t = self.tables.write();
        let mut recent: HashMap<u64, u64> = HashMap::new();
        for r in t.recent_checkins() {
            *recent.entry(r.user_id).or_insert(0) += 1;
        }
        let mut mayors: HashMap<u64, u64> = HashMap::new();
        for v in t.venues.values() {
            if let Some(m) = v.mayor {
                *mayors.entry(m).or_insert(0) += 1;
            }
        }
        for u in t.users.values_mut() {
            u.recent_checkins = recent.get(&u.id).copied().unwrap_or(0);
            u.total_mayors = mayors.get(&u.id).copied().unwrap_or(0);
        }
    }
}

/// The on-disk snapshot format for [`CrawlDatabase::export_json`].
#[derive(Serialize, Deserialize)]
struct Snapshot {
    users: Vec<UserInfoRow>,
    venues: Vec<VenueInfoRow>,
}

impl CrawlDatabase {
    /// Serialises the crawl to JSON (users and venues; the
    /// `RecentCheckin` relation is derived and rebuilt on import).
    ///
    /// The paper kept its crawl in MySQL so analyses could run long
    /// after the site changed; this is the reproduction's equivalent —
    /// snapshot a crawl, reload it later, re-run any analysis.
    pub fn export_json(&self) -> String {
        let t = self.tables.read();
        let mut users: Vec<UserInfoRow> = t.users.values().cloned().collect();
        users.sort_by_key(|u| u.id);
        let mut venues: Vec<VenueInfoRow> = t.venues.values().cloned().collect();
        venues.sort_by_key(|v| v.id);
        serde_json::to_string(&Snapshot { users, venues }).expect("rows serialize")
    }

    /// Restores a crawl from [`CrawlDatabase::export_json`] output and
    /// recomputes aggregates.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error on malformed input.
    pub fn import_json(json: &str) -> Result<CrawlDatabase, serde_json::Error> {
        let snapshot: Snapshot = serde_json::from_str(json)?;
        let db = CrawlDatabase::new();
        for u in snapshot.users {
            db.insert_user(u);
        }
        for v in snapshot.venues {
            db.insert_venue(v);
        }
        db.recompute_aggregates();
        Ok(db)
    }
}

/// SQL `LIKE` matching: `%` = any run (incl. empty), `_` = exactly one
/// character, case-insensitive.
pub fn like_match(pattern: &str, text: &str) -> bool {
    LikePattern::new(pattern).matches(text)
}

/// A `LIKE` pattern lower-cased once, for matching against many rows.
struct LikePattern(Vec<char>);

impl LikePattern {
    fn new(pattern: &str) -> Self {
        LikePattern(pattern.to_lowercase().chars().collect())
    }

    /// Two-pointer wildcard match. On a mismatch it backtracks only to
    /// the last `%`, letting it absorb one more character: an earlier
    /// `%` never needs to retry, because the last one can absorb
    /// anything the earlier ones could. O(pattern × text) worst case.
    fn matches(&self, text: &str) -> bool {
        let p = &self.0;
        let t: Vec<char> = text.to_lowercase().chars().collect();
        let (mut pi, mut ti) = (0, 0);
        // (pattern index after the last `%`, text index it resumes at)
        let mut star: Option<(usize, usize)> = None;
        while ti < t.len() {
            match p.get(pi) {
                Some('%') => {
                    pi += 1;
                    star = Some((pi, ti));
                }
                Some(&c) if c == '_' || c == t[ti] => {
                    pi += 1;
                    ti += 1;
                }
                _ => match star {
                    Some((after, resume)) => {
                        pi = after;
                        ti = resume + 1;
                        star = Some((after, ti));
                    }
                    None => return false,
                },
            }
        }
        p[pi..].iter().all(|&c| c == '%')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn venue_row(id: u64, name: &str, mayor: Option<u64>, visitors: &[u64]) -> VenueInfoRow {
        VenueInfoRow {
            id,
            name: name.to_string(),
            address: String::new(),
            category: "Coffee Shop".to_string(),
            location: GeoPoint::new(35.0, -106.0).unwrap(),
            checkins_here: visitors.len() as u64,
            unique_visitors: visitors.len() as u64,
            special: None,
            tips: 0,
            mayor,
            recent_visitors: visitors.iter().map(|u| VisitorRef::Id(*u)).collect(),
        }
    }

    fn user_row(id: u64, total: u64) -> UserInfoRow {
        UserInfoRow {
            id,
            username: None,
            home: None,
            total_checkins: total,
            total_badges: 0,
            friends: 0,
            points: 0,
            recent_checkins: 0,
            total_mayors: 0,
        }
    }

    #[test]
    fn like_match_semantics() {
        assert!(like_match("%starbucks%", "Starbucks Coffee #512"));
        assert!(like_match("%Starbucks%", "Downtown STARBUCKS"));
        assert!(!like_match("%starbucks%", "Dunkin Donuts"));
        assert!(like_match("star%", "Starbucks"));
        assert!(!like_match("star%", "A Starbucks"));
        assert!(like_match("%bucks", "Starbucks"));
        assert!(like_match("st_rbucks", "Starbucks"));
        assert!(!like_match("st_rbucks", "Starrbucks"));
        assert!(like_match("%", ""));
        assert!(like_match("", ""));
        assert!(!like_match("", "x"));
        assert!(like_match("a%b%c", "aXXbYYc"));
    }

    #[test]
    fn like_match_backtracks_only_to_the_last_percent() {
        // Exponential for a matcher that retries every `%`.
        let pattern = format!("{}b", "%a".repeat(12));
        assert!(!like_match(&pattern, &"a".repeat(60)));
        assert!(like_match(&pattern, &format!("{}b", "a".repeat(60))));
    }

    #[test]
    fn starbucks_query_selects_by_name() {
        let db = CrawlDatabase::new();
        db.insert_venue(venue_row(1, "Starbucks #1", None, &[]));
        db.insert_venue(venue_row(2, "Joe's Diner", None, &[]));
        db.insert_venue(venue_row(3, "STARBUCKS Reserve", None, &[]));
        let rows = db.venues_where_name_like("%Starbucks%");
        assert_eq!(rows.iter().map(|v| v.id).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn recompute_aggregates_joins_tables() {
        let db = CrawlDatabase::new();
        db.insert_user(user_row(10, 50));
        db.insert_user(user_row(11, 5));
        db.insert_venue(venue_row(1, "A", Some(10), &[10, 11]));
        db.insert_venue(venue_row(2, "B", Some(10), &[10]));
        db.insert_venue(venue_row(3, "C", None, &[11]));
        db.recompute_aggregates();
        let u10 = db.user(10).unwrap();
        assert_eq!(u10.recent_checkins, 2);
        assert_eq!(u10.total_mayors, 2);
        let u11 = db.user(11).unwrap();
        assert_eq!(u11.recent_checkins, 2);
        assert_eq!(u11.total_mayors, 0);
        assert_eq!(db.recent_checkin_count(), 4);
    }

    #[test]
    fn recrawl_overwrites_venue_and_relations() {
        let db = CrawlDatabase::new();
        db.insert_venue(venue_row(1, "A", None, &[10, 11]));
        assert_eq!(db.recent_checkin_count(), 2);
        // Second crawl: visitor list churned.
        db.insert_venue(venue_row(1, "A", Some(12), &[12]));
        assert_eq!(db.venue_count(), 1);
        assert_eq!(db.recent_checkin_count(), 1);
        assert_eq!(db.venue(1).unwrap().mayor, Some(12));
    }

    #[test]
    fn unclaimed_special_predicate() {
        let mut v = venue_row(1, "Cafe", None, &[]);
        assert!(!v.is_unclaimed_special());
        v.special = Some(("mayor".into(), "Free!".into()));
        assert!(v.is_unclaimed_special());
        v.mayor = Some(3);
        assert!(!v.is_unclaimed_special());
        v.mayor = None;
        v.special = Some(("loyalty".into(), "Free!".into()));
        assert!(!v.is_unclaimed_special());
    }

    #[test]
    fn predicates_and_counts() {
        let db = CrawlDatabase::new();
        for i in 1..=10 {
            db.insert_user(user_row(i, i * 100));
        }
        let heavy = db.users_where(|u| u.total_checkins >= 500);
        assert_eq!(heavy.len(), 6);
        assert_eq!(db.user_count(), 10);
        assert!(db.user(99).is_none());
        assert!(db.venue(99).is_none());
    }

    #[test]
    fn json_snapshot_roundtrip() {
        let db = CrawlDatabase::new();
        db.insert_user(user_row(10, 50));
        db.insert_user(user_row(11, 5));
        db.insert_venue(venue_row(1, "Starbucks #1", Some(10), &[10, 11]));
        db.insert_venue(venue_row(2, "Diner", None, &[11]));
        db.recompute_aggregates();

        let json = db.export_json();
        let restored = CrawlDatabase::import_json(&json).unwrap();
        assert_eq!(restored.user_count(), 2);
        assert_eq!(restored.venue_count(), 2);
        assert_eq!(restored.recent_checkin_count(), 3);
        assert_eq!(restored.user(10), db.user(10));
        assert_eq!(restored.venue(1), db.venue(1));
        // Derived aggregates recomputed identically.
        assert_eq!(restored.user(11).unwrap().recent_checkins, 2);
        // LIKE queries work on the restored copy.
        assert_eq!(restored.venues_where_name_like("%starbucks%").len(), 1);
    }

    #[test]
    fn import_rejects_garbage() {
        assert!(CrawlDatabase::import_json("not json").is_err());
        assert!(CrawlDatabase::import_json("{}").is_err());
    }

    #[test]
    fn opaque_visitors_yield_no_relations() {
        let db = CrawlDatabase::new();
        let mut row = venue_row(1, "Hidden", None, &[]);
        row.recent_visitors = vec![
            VisitorRef::Opaque("habc".into()),
            VisitorRef::Opaque("hdef".into()),
        ];
        db.insert_venue(row);
        assert_eq!(
            db.recent_checkin_count(),
            0,
            "hashed IDs cannot be joined into location histories"
        );
    }
}
