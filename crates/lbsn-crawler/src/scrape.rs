//! HTML scraping: turning profile pages back into structured rows.
//!
//! The thesis crawler "perform\[ed\] a set of regular expression matches"
//! on page source. Every pattern it needed was of the shape *text
//! between a known prefix and a known suffix*, so instead of pulling in
//! a regex engine we implement exactly that primitive plus the two page
//! parsers built on it.
//!
//! The parsers read a page in one forward pass: a cursor looks for each
//! field in the order `lbsn_server::web` writes it, starting where the
//! previous capture ended, so no byte of the page is scanned twice for
//! the fields a row needs. That order is a contract with the frontend:
//!
//! * user page — `data-id`, username, home, total check-ins, badges,
//!   friends, points;
//! * venue page — `data-id`, name, address, category, latitude,
//!   longitude, check-ins here, unique visitors, tip count, then the
//!   optional special, the mayor link and the "Who's been here" list.
//!
//! A field moved on the page would be missed (the parser names it in
//! its [`ScrapeError`]) rather than misread. Reading forward also keeps
//! free text from shadowing a later field: a vanity username containing
//! `class="home">` no longer hides the real home field behind it.

use std::fmt;

use lbsn_geo::GeoPoint;

use crate::db::{UserInfoRow, VenueInfoRow, VisitorRef};

/// Scraping failures: the page didn't contain an expected field.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrapeError {
    /// Which field was missing or malformed.
    pub field: &'static str,
}

impl fmt::Display for ScrapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page missing or malformed field: {}", self.field)
    }
}

impl std::error::Error for ScrapeError {}

/// `haystack.find(needle)`: the byte offset of the first occurrence.
///
/// `str::find` builds a two-way searcher for every call, and on the
/// short needles and short gaps of a page that set-up costs more than
/// the scan. This jumps between occurrences of the needle's first
/// character (a `memchr`) and compares the rest in place.
fn find(haystack: &str, needle: &str) -> Option<usize> {
    let Some(first) = needle.chars().next() else {
        return Some(0);
    };
    let mut from = 0;
    loop {
        let at = from + haystack[from..].find(first)?;
        if haystack[at..].starts_with(needle) {
            return Some(at);
        }
        from = at + first.len_utf8();
    }
}

/// The first `prefix…suffix` capture in `haystack` and the text after
/// its suffix.
fn capture<'a>(haystack: &'a str, prefix: &str, suffix: &str) -> Option<(&'a str, &'a str)> {
    let start = find(haystack, prefix)? + prefix.len();
    let after = &haystack[start..];
    let end = find(after, suffix)?;
    Some((&after[..end], &after[end + suffix.len()..]))
}

/// Every non-overlapping `prefix…suffix` capture, in document order.
/// `prefix` and `suffix` must not both be empty: each capture would then
/// consume nothing and the iterator would never end.
fn captures<'a: 'p, 'p>(
    mut haystack: &'a str,
    prefix: &'p str,
    suffix: &'p str,
) -> impl Iterator<Item = &'a str> + 'p {
    std::iter::from_fn(move || {
        let (found, rest) = capture(haystack, prefix, suffix)?;
        haystack = rest;
        Some(found)
    })
}

/// A forward-only reader over one page: each capture starts searching
/// where the previous successful one ended.
struct Cursor<'a> {
    rest: &'a str,
}

impl<'a> Cursor<'a> {
    /// The next `prefix…suffix` capture; the cursor moves past its
    /// suffix. On `None` the cursor stays put, so an absent optional
    /// field costs no later field.
    fn next(&mut self, prefix: &str, suffix: &str) -> Option<&'a str> {
        let (found, rest) = capture(self.rest, prefix, suffix)?;
        self.rest = rest;
        Some(found)
    }

    fn field(
        &mut self,
        prefix: &str,
        suffix: &str,
        name: &'static str,
    ) -> Result<&'a str, ScrapeError> {
        self.next(prefix, suffix).ok_or(ScrapeError { field: name })
    }

    fn parsed<T: std::str::FromStr>(
        &mut self,
        prefix: &str,
        suffix: &str,
        name: &'static str,
    ) -> Result<T, ScrapeError> {
        self.field(prefix, suffix, name)?
            .parse()
            .map_err(|_| ScrapeError { field: name })
    }

    /// A decimal stat rendered as `prefix` `N` `<`.
    fn stat(&mut self, prefix: &str, name: &'static str) -> Result<u64, ScrapeError> {
        self.parsed(prefix, "<", name)
    }
}

/// Whether `display` is the generated name the frontend shows for an
/// account without a vanity username: exactly `user` and `id` in
/// decimal.
fn is_generated_name(display: &str, id: u64) -> bool {
    let Some(digits) = display.strip_prefix("user") else {
        return false;
    };
    let mut n = id;
    let mut rest = digits.as_bytes();
    loop {
        match rest.split_last() {
            Some((&last, head)) if last == b'0' + (n % 10) as u8 => rest = head,
            _ => return false,
        }
        n /= 10;
        if n == 0 {
            return rest.is_empty();
        }
    }
}

/// Parses a `/user/<id>` page into a [`UserInfoRow`].
///
/// # Errors
///
/// [`ScrapeError`] naming the first missing field.
pub fn parse_user_page(html: &str) -> Result<UserInfoRow, ScrapeError> {
    let mut page = Cursor { rest: html };
    let id = page.parsed("class=\"user-profile\" data-id=\"", "\"", "user id")?;
    let display = page.field("<h1 class=\"username\">", "</h1>", "username")?;
    // Generated names ("user123") mean the account has no vanity
    // username — the 73.9 % case the paper measured.
    let username = (!is_generated_name(display, id)).then(|| display.to_string());
    let home = page.field("class=\"home\">", "<", "home")?;
    let home = (home != "unknown").then(|| home.to_string());
    Ok(UserInfoRow {
        id,
        username,
        home,
        total_checkins: page.stat("total-checkins\">", "total-checkins")?,
        total_badges: page.stat("badges\">", "badges")?,
        friends: page.stat("friends\">", "friends")?,
        points: page.stat("points\">", "points")?,
        recent_checkins: 0,
        total_mayors: 0,
    })
}

/// Parses a `/venue/<id>` page into a [`VenueInfoRow`].
///
/// # Errors
///
/// [`ScrapeError`] naming the first missing field.
pub fn parse_venue_page(html: &str) -> Result<VenueInfoRow, ScrapeError> {
    let mut page = Cursor { rest: html };
    let id = page.parsed("class=\"venue\" data-id=\"", "\"", "venue id")?;
    let name = page
        .field("class=\"venue-name\">", "</h1>", "venue name")?
        .to_string();
    let address = page
        .field("class=\"address\">", "<", "address")?
        .to_string();
    let category = page
        .field("class=\"category\">", "<", "category")?
        .to_string();
    let lat = page.parsed("data-lat=\"", "\"", "latitude")?;
    let lon = page.parsed("data-lon=\"", "\"", "longitude")?;
    let location = GeoPoint::new(lat, lon).map_err(|_| ScrapeError {
        field: "coordinates",
    })?;
    let checkins_here = page.stat("checkins-here\">", "checkins-here")?;
    let unique_visitors = page.stat("unique-visitors\">", "unique-visitors")?;
    let tips = page.stat("class=\"stat tips\">", "tips")?;
    let special = page
        .next("class=\"special\" data-kind=\"", "</div>")
        .map(|captured| {
            // captured looks like `mayor">Free coffee…`.
            let (kind, description) = captured.split_once("\">").unwrap_or((captured, ""));
            (kind.to_string(), description.to_string())
        });
    let mayor = page
        .next("class=\"mayor\" href=\"/user/", "\"")
        .and_then(|s| s.parse::<u64>().ok());
    // Visitor links when public; opaque tokens when the §5.2 hashing
    // defense is on.
    let mut recent_visitors: Vec<VisitorRef> =
        captures(page.rest, "class=\"visitor\" href=\"/user/", "\"")
            .filter_map(|s| s.parse::<u64>().ok().map(VisitorRef::Id))
            .collect();
    if recent_visitors.is_empty() {
        recent_visitors = captures(page.rest, "<span class=\"visitor\">", "</span>")
            .map(|t| VisitorRef::Opaque(t.to_string()))
            .collect();
    }
    Ok(VenueInfoRow {
        id,
        name,
        address,
        category,
        location,
        checkins_here,
        unique_visitors,
        special,
        tips,
        mayor,
        recent_visitors,
    })
}

/// The from-byte-0 parsers the forward cursor replaced: every field is
/// looked up from the start of the page with `str::find`. Kept to check
/// the cursor against, row for row.
#[cfg(test)]
mod reference {
    use super::ScrapeError;
    use crate::db::{UserInfoRow, VenueInfoRow, VisitorRef};
    use lbsn_geo::GeoPoint;

    pub fn between<'a>(haystack: &'a str, prefix: &str, suffix: &str) -> Option<&'a str> {
        let start = haystack.find(prefix)? + prefix.len();
        let rest = &haystack[start..];
        let end = rest.find(suffix)?;
        Some(&rest[..end])
    }

    pub fn between_all<'a>(haystack: &'a str, prefix: &str, suffix: &str) -> Vec<&'a str> {
        let mut out = Vec::new();
        let mut rest = haystack;
        while let Some(start) = rest.find(prefix) {
            let after = &rest[start + prefix.len()..];
            match after.find(suffix) {
                Some(end) => {
                    out.push(&after[..end]);
                    rest = &after[end + suffix.len()..];
                }
                None => break,
            }
        }
        out
    }

    fn field<'a>(
        html: &'a str,
        prefix: &str,
        suffix: &str,
        name: &'static str,
    ) -> Result<&'a str, ScrapeError> {
        between(html, prefix, suffix).ok_or(ScrapeError { field: name })
    }

    fn num_field(html: &str, prefix: &str, name: &'static str) -> Result<u64, ScrapeError> {
        field(html, prefix, "<", name)?
            .parse()
            .map_err(|_| ScrapeError { field: name })
    }

    pub fn parse_user_page(html: &str) -> Result<UserInfoRow, ScrapeError> {
        let id = field(html, "class=\"user-profile\" data-id=\"", "\"", "user id")?
            .parse()
            .map_err(|_| ScrapeError { field: "user id" })?;
        let display = field(html, "<h1 class=\"username\">", "</h1>", "username")?;
        let username = if display == format!("user{id}") {
            None
        } else {
            Some(display.to_string())
        };
        let home = field(html, "class=\"home\">", "<", "home")?;
        let home = if home == "unknown" {
            None
        } else {
            Some(home.to_string())
        };
        Ok(UserInfoRow {
            id,
            username,
            home,
            total_checkins: num_field(html, "total-checkins\">", "total-checkins")?,
            total_badges: num_field(html, "badges\">", "badges")?,
            friends: num_field(html, "friends\">", "friends")?,
            points: num_field(html, "points\">", "points")?,
            recent_checkins: 0,
            total_mayors: 0,
        })
    }

    pub fn parse_venue_page(html: &str) -> Result<VenueInfoRow, ScrapeError> {
        let id = field(html, "class=\"venue\" data-id=\"", "\"", "venue id")?
            .parse()
            .map_err(|_| ScrapeError { field: "venue id" })?;
        let name = field(html, "class=\"venue-name\">", "</h1>", "venue name")?.to_string();
        let address = field(html, "class=\"address\">", "<", "address")?.to_string();
        let category = field(html, "class=\"category\">", "<", "category")?.to_string();
        let lat: f64 = field(html, "data-lat=\"", "\"", "latitude")?
            .parse()
            .map_err(|_| ScrapeError { field: "latitude" })?;
        let lon: f64 = field(html, "data-lon=\"", "\"", "longitude")?
            .parse()
            .map_err(|_| ScrapeError { field: "longitude" })?;
        let location = GeoPoint::new(lat, lon).map_err(|_| ScrapeError {
            field: "coordinates",
        })?;
        let special = between(html, "class=\"special\" data-kind=\"", "</div>").map(|captured| {
            let mut parts = captured.splitn(2, "\">");
            let kind = parts.next().unwrap_or_default().to_string();
            let description = parts.next().unwrap_or_default().to_string();
            (kind, description)
        });
        let mayor = between(html, "class=\"mayor\" href=\"/user/", "\"")
            .and_then(|s| s.parse::<u64>().ok());
        let mut recent_visitors: Vec<VisitorRef> =
            between_all(html, "class=\"visitor\" href=\"/user/", "\"")
                .into_iter()
                .filter_map(|s| s.parse::<u64>().ok().map(VisitorRef::Id))
                .collect();
        if recent_visitors.is_empty() {
            recent_visitors = between_all(html, "<span class=\"visitor\">", "</span>")
                .into_iter()
                .map(|t| VisitorRef::Opaque(t.to_string()))
                .collect();
        }
        Ok(VenueInfoRow {
            id,
            name,
            address,
            category,
            location,
            checkins_here: num_field(html, "checkins-here\">", "checkins-here")?,
            unique_visitors: num_field(html, "unique-visitors\">", "unique-visitors")?,
            special,
            tips: num_field(html, "class=\"stat tips\">", "tips")?,
            mayor,
            recent_visitors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsn_server::web::{PageRequest, WebConfig, WebFrontend};
    use lbsn_server::{
        CheckinRequest, CheckinSource, LbsnServer, ServerConfig, Special, SpecialKind, UserId,
        UserSpec, VenueCategory, VenueId, VenueSpec,
    };
    use lbsn_sim::{Duration, SimClock};
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn capture_basics() {
        assert_eq!(capture("a[x]b", "[", "]"), Some(("x", "b")));
        assert_eq!(capture("no markers", "[", "]"), None);
        assert_eq!(capture("a[x", "[", "]"), None);
        assert_eq!(
            captures("[1][2][3]", "[", "]").collect::<Vec<_>>(),
            vec!["1", "2", "3"]
        );
        assert_eq!(captures("none", "[", "]").next(), None);
    }

    /// End-to-end: render a real page with the real frontend, scrape it
    /// back, and compare against server state.
    #[test]
    fn round_trip_user_page() {
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        let abq = lbsn_geo::GeoPoint::new(35.0844, -106.6504).unwrap();
        let uid = server.register_user(UserSpec::named("mai").home(abq));
        let vid = server.register_venue(VenueSpec::new("Cafe", abq));
        server
            .check_in(&CheckinRequest {
                user: uid,
                venue: vid,
                reported_location: abq,
                source: CheckinSource::MobileApp,
            })
            .unwrap();
        let web = WebFrontend::new(server);
        let html = web.handle(&PageRequest::get("/user/1")).body;
        let row = parse_user_page(&html).unwrap();
        assert_eq!(row.id, 1);
        assert_eq!(row.username.as_deref(), Some("mai"));
        assert!(row.home.is_some());
        assert_eq!(row.total_checkins, 1);
        assert!(row.total_badges >= 1); // Newbie
        assert_eq!(row.friends, 0);
        assert!(row.points > 0);
    }

    #[test]
    fn round_trip_anonymous_user() {
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        server.register_user(UserSpec::anonymous());
        let web = WebFrontend::new(server);
        let html = web.handle(&PageRequest::get("/user/1")).body;
        let row = parse_user_page(&html).unwrap();
        assert_eq!(row.username, None, "generated name means no username");
        assert_eq!(row.home, None);
    }

    #[test]
    fn round_trip_venue_page() {
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        let abq = lbsn_geo::GeoPoint::new(35.0844, -106.6504).unwrap();
        let vid = server.register_venue(
            VenueSpec::new("Starbucks #5", abq)
                .address("500 Central Ave")
                .special(Special {
                    description: "Free coffee for the mayor!".into(),
                    kind: SpecialKind::MayorOnly,
                }),
        );
        for _ in 0..3 {
            let u = server.register_user(UserSpec::anonymous());
            server
                .check_in(&CheckinRequest {
                    user: u,
                    venue: vid,
                    reported_location: abq,
                    source: CheckinSource::MobileApp,
                })
                .unwrap();
            server.clock().advance(Duration::minutes(10));
        }
        let web = WebFrontend::new(server);
        let html = web.handle(&PageRequest::get("/venue/1")).body;
        let row = parse_venue_page(&html).unwrap();
        assert_eq!(row.id, 1);
        assert_eq!(row.name, "Starbucks #5");
        assert_eq!(row.address, "500 Central Ave");
        assert!((row.location.lat() - 35.0844).abs() < 1e-4);
        assert_eq!(row.checkins_here, 3);
        assert_eq!(row.unique_visitors, 3);
        assert_eq!(
            row.special,
            Some((
                "mayor".to_string(),
                "Free coffee for the mayor!".to_string()
            ))
        );
        assert_eq!(row.mayor, Some(1));
        assert_eq!(
            row.recent_visitors,
            vec![VisitorRef::Id(3), VisitorRef::Id(2), VisitorRef::Id(1)]
        );
        assert_eq!(row.tips, 0);
    }

    #[test]
    fn tips_count_scraped() {
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        let abq = lbsn_geo::GeoPoint::new(35.0844, -106.6504).unwrap();
        let vid = server.register_venue(VenueSpec::new("Bar", abq));
        let uid = server.register_user(UserSpec::anonymous());
        server.leave_tip(uid, vid, "Terrible service").unwrap();
        server.leave_tip(uid, vid, "Avoid!").unwrap();
        let web = WebFrontend::new(server);
        let html = web.handle(&PageRequest::get("/venue/1")).body;
        let row = parse_venue_page(&html).unwrap();
        assert_eq!(row.tips, 2);
        assert!(html.contains("data-user=\"1\">Avoid!"));
    }

    #[test]
    fn venue_without_extras_parses() {
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        let abq = lbsn_geo::GeoPoint::new(35.0844, -106.6504).unwrap();
        server.register_venue(VenueSpec::new("Plain", abq));
        let web = WebFrontend::new(server);
        let html = web.handle(&PageRequest::get("/venue/1")).body;
        let row = parse_venue_page(&html).unwrap();
        assert_eq!(row.special, None);
        assert_eq!(row.mayor, None);
        assert!(row.recent_visitors.is_empty());
    }

    #[test]
    fn hashed_visitors_become_opaque_refs() {
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        let abq = lbsn_geo::GeoPoint::new(35.0844, -106.6504).unwrap();
        let vid = server.register_venue(VenueSpec::new("Spot", abq));
        let u = server.register_user(UserSpec::anonymous());
        server
            .check_in(&CheckinRequest {
                user: u,
                venue: vid,
                reported_location: abq,
                source: CheckinSource::MobileApp,
            })
            .unwrap();
        let web = WebFrontend::new(server);
        web.set_config(lbsn_server::web::WebConfig {
            hash_visitor_ids: true,
            ..lbsn_server::web::WebConfig::default()
        });
        let html = web.handle(&PageRequest::get("/venue/1")).body;
        let row = parse_venue_page(&html).unwrap();
        assert_eq!(row.recent_visitors.len(), 1);
        assert!(matches!(row.recent_visitors[0], VisitorRef::Opaque(_)));
    }

    #[test]
    fn garbage_pages_error_with_field_name() {
        let err = parse_user_page("<html>nope</html>").unwrap_err();
        assert_eq!(err.field, "user id");
        assert!(err.to_string().contains("user id"));
        let err = parse_venue_page("<html>nope</html>").unwrap_err();
        assert_eq!(err.field, "venue id");
    }

    /// Free text for names, addresses, specials and tips: anything but
    /// the `<`, `>` and `"` that page markup is made of, multi-byte
    /// characters included.
    const TEXT: &str = "[a-zA-Z0-9 &;:/=!?#'é∆_.-]{0,16}";

    /// The three frontend configurations the experiments crawl.
    fn configs() -> [WebConfig; 3] {
        [
            WebConfig::default(),
            WebConfig {
                hash_visitor_ids: true,
                ..WebConfig::default()
            },
            WebConfig {
                show_whos_been_here: false,
                ..WebConfig::default()
            },
        ]
    }

    const CATEGORIES: [VenueCategory; 4] = [
        VenueCategory::Coffee,
        VenueCategory::Gym,
        VenueCategory::Landmark,
        VenueCategory::Other,
    ];

    /// `(named, name, has home, lat, lon)`.
    type UserDraw = (bool, String, bool, f64, f64);
    /// `(name, address, category, lat, lon, special kind, description)`;
    /// kind 0 is no special.
    type VenueDraw = (String, String, usize, f64, f64, u32, String);

    /// A server holding the drawn users and venues after the drawn
    /// check-ins (user, venue, minutes since the previous one) and tips.
    fn world(
        users: &[UserDraw],
        venues: &[VenueDraw],
        checkins: &[(usize, usize, u64)],
        tips: &[(usize, usize, String)],
    ) -> Arc<LbsnServer> {
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        for (i, (named, name, has_home, lat, lon)) in users.iter().enumerate() {
            // Vanity names are unique per account.
            let spec = if *named {
                UserSpec::named(format!("{name}{i}"))
            } else {
                UserSpec::anonymous()
            };
            let spec = match GeoPoint::new(*lat, *lon) {
                Ok(home) if *has_home => spec.home(home),
                _ => spec,
            };
            server.register_user(spec);
        }
        let mut locations = Vec::new();
        for (name, address, category, lat, lon, kind, description) in venues {
            let location = GeoPoint::new(*lat, *lon).unwrap();
            let kind = match kind {
                1 => Some(SpecialKind::MayorOnly),
                2 => Some(SpecialKind::EveryCheckin),
                3 => Some(SpecialKind::Loyalty { visits: 3 }),
                _ => None,
            };
            let mut spec = VenueSpec::new(name.as_str(), location)
                .address(address.as_str())
                .category(CATEGORIES[category % CATEGORIES.len()]);
            if let Some(kind) = kind {
                spec = spec.special(Special {
                    description: description.clone(),
                    kind,
                });
            }
            server.register_venue(spec);
            locations.push(location);
        }
        let user = |i: usize| UserId((i % users.len()) as u64 + 1);
        let venue = |i: usize| i % venues.len();
        for &(u, v, minutes) in checkins {
            server.clock().advance(Duration::minutes(minutes));
            let v = venue(v);
            // Flagged check-ins are as good as rewarded ones here.
            let _ = server.check_in(&CheckinRequest {
                user: user(u),
                venue: VenueId(v as u64 + 1),
                reported_location: locations[v],
                source: CheckinSource::MobileApp,
            });
        }
        for (u, v, text) in tips {
            server
                .leave_tip(user(*u), VenueId(venue(*v) as u64 + 1), text.as_str())
                .unwrap();
        }
        server
    }

    /// Every user page, then every venue page, under `config`.
    fn pages(server: &Arc<LbsnServer>, config: WebConfig) -> (Vec<String>, Vec<String>) {
        let web = WebFrontend::with_config(Arc::clone(server), config);
        let body = |path: String| web.handle(&PageRequest::get(path)).body;
        (
            (1..=server.user_count())
                .map(|id| body(format!("/user/{id}")))
                .collect(),
            (1..=server.venue_count())
                .map(|id| body(format!("/venue/{id}")))
                .collect(),
        )
    }

    /// Every field name a parser can report.
    const FIELDS: [&str; 17] = [
        "user id",
        "username",
        "home",
        "total-checkins",
        "badges",
        "friends",
        "points",
        "venue id",
        "venue name",
        "address",
        "category",
        "latitude",
        "longitude",
        "coordinates",
        "checkins-here",
        "unique-visitors",
        "tips",
    ];

    fn names_a_field<T>(parsed: &Result<T, ScrapeError>) -> bool {
        parsed
            .as_ref()
            .err()
            .is_none_or(|e| FIELDS.contains(&e.field))
    }

    fn user_draw() -> impl Strategy<Value = UserDraw> {
        (
            any::<bool>(),
            TEXT,
            any::<bool>(),
            -80.0..80.0f64,
            -179.0..179.0f64,
        )
    }

    fn venue_draw() -> impl Strategy<Value = VenueDraw> {
        (
            TEXT,
            TEXT,
            0usize..32,
            -80.0..80.0f64,
            -179.0..179.0f64,
            0u32..4,
            TEXT,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The forward cursor reads exactly the rows the from-byte-0
        /// parsers read, on every page the real frontend renders.
        #[test]
        fn cursor_parsers_match_the_reference(
            users in prop::collection::vec(user_draw(), 1..6),
            venues in prop::collection::vec(venue_draw(), 1..4),
            checkins in prop::collection::vec((0usize..8, 0usize..4, 1u64..3000), 0..24),
            tips in prop::collection::vec((0usize..8, 0usize..4, TEXT), 0..8),
        ) {
            let server = world(&users, &venues, &checkins, &tips);
            for config in configs() {
                let (user_pages, venue_pages) = pages(&server, config);
                for html in &user_pages {
                    let row = parse_user_page(html);
                    prop_assert!(row.is_ok(), "{row:?} on {html}");
                    prop_assert_eq!(row, reference::parse_user_page(html));
                }
                for html in &venue_pages {
                    let row = parse_venue_page(html);
                    prop_assert!(row.is_ok(), "{row:?} on {html}");
                    prop_assert_eq!(row, reference::parse_venue_page(html));
                }
            }
        }

        /// Neither parser panics on any input: it returns a row or an
        /// error naming a field.
        #[test]
        fn parsers_never_panic_on_arbitrary_text(
            pieces in prop::collection::vec(
                prop_oneof![
                    Just("class=\"user-profile\" data-id=\"".to_string()),
                    Just("class=\"venue\" data-id=\"".to_string()),
                    Just("<h1 class=\"username\">".to_string()),
                    Just("class=\"venue-name\">".to_string()),
                    Just("class=\"home\">".to_string()),
                    Just("data-lat=\"".to_string()),
                    Just("data-lon=\"".to_string()),
                    Just("stat tips\">".to_string()),
                    Just("class=\"special\" data-kind=\"".to_string()),
                    Just("class=\"mayor\" href=\"/user/".to_string()),
                    Just("class=\"visitor\" href=\"/user/".to_string()),
                    Just("<span class=\"visitor\">".to_string()),
                    Just("</h1>".to_string()),
                    Just("</div>".to_string()),
                    Just("\">".to_string()),
                    "[0-9.e+-]{1,6}",
                    "[a-z \"<>/=é∆-]{1,6}",
                ],
                0..40,
            ),
        ) {
            let html: String = pieces.concat();
            prop_assert!(names_a_field(&parse_user_page(&html)));
            prop_assert!(names_a_field(&parse_venue_page(&html)));
        }

        /// Every prefix of a rendered page parses to a row or an error
        /// naming a field.
        #[test]
        fn parsers_never_panic_on_truncated_pages(
            users in prop::collection::vec(user_draw(), 1..3),
            venues in prop::collection::vec(venue_draw(), 1..2),
            checkins in prop::collection::vec((0usize..3, 0usize..1, 1u64..3000), 0..6),
            tips in prop::collection::vec((0usize..3, 0usize..1, TEXT), 0..3),
        ) {
            let server = world(&users, &venues, &checkins, &tips);
            let (user_pages, venue_pages) = pages(&server, WebConfig::default());
            for html in user_pages.iter().chain(&venue_pages) {
                for end in (0..html.len()).filter(|&end| html.is_char_boundary(end)) {
                    prop_assert!(names_a_field(&parse_user_page(&html[..end])));
                    prop_assert!(names_a_field(&parse_venue_page(&html[..end])));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The first-character search finds what `str::find` finds, on
        /// text dense with partial matches and multi-byte characters.
        #[test]
        fn find_matches_str_find(
            haystack in "[ab<é∆\"]{0,16}",
            needle in "[ab<é∆\"]{0,3}",
            prefix in "[ab<é]{1,2}",
            suffix in "[ab<é]{1,2}",
        ) {
            prop_assert_eq!(find(&haystack, &needle), haystack.find(needle.as_str()));
            prop_assert_eq!(
                capture(&haystack, &prefix, &suffix).map(|(found, _)| found),
                reference::between(&haystack, &prefix, &suffix)
            );
            prop_assert_eq!(
                captures(&haystack, &prefix, &suffix).collect::<Vec<_>>(),
                reference::between_all(&haystack, &prefix, &suffix)
            );
        }
    }

    /// The one row the cursor reads differently: free text that looks
    /// like a later field's markup no longer shadows that field.
    #[test]
    fn vanity_username_cannot_shadow_the_home_field() {
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        let abq = GeoPoint::new(35.0844, -106.6504).unwrap();
        server.register_user(UserSpec::named("x class=\"home\">spoofed").home(abq));
        let html = WebFrontend::new(server)
            .handle(&PageRequest::get("/user/1"))
            .body;
        let row = parse_user_page(&html).unwrap();
        assert_eq!(row.username.as_deref(), Some("x class=\"home\">spoofed"));
        assert_eq!(row.home.as_deref(), Some("35.0844, -106.6504"));
        let old = reference::parse_user_page(&html).unwrap();
        assert_eq!(old.home.as_deref(), Some("spoofed"), "from byte 0 it was");
    }

    #[test]
    fn generated_names_are_exact() {
        assert!(is_generated_name("user7", 7));
        assert!(is_generated_name("user0", 0));
        assert!(is_generated_name("user18446744073709551615", u64::MAX));
        assert!(!is_generated_name("user07", 7));
        assert!(!is_generated_name("user", 7));
        assert!(!is_generated_name("user17", 7));
        assert!(!is_generated_name("user8", 7));
        assert!(!is_generated_name("User7", 7));
        assert!(!is_generated_name("user7 ", 7));
    }
}
