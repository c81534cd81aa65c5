//! The public web frontend: the pages the paper's crawler scraped.
//!
//! §3.2: "Two types of URLs can be used to access user profiles. The
//! first one is with an internal user ID in URL, like
//! `http://Foursquare.com/user/1852791` … For venue profiles, Foursquare
//! only uses numbered IDs". We render the same routes and the same
//! information content:
//!
//! * `/user/<id>` and `/user/<name>` — username, home, total check-ins,
//!   badge/friend counts. Mayorships and check-in history are *not*
//!   shown (the paper infers them from venue pages).
//! * `/venue/<id>` — name, address, coordinates, check-in and
//!   unique-visitor counts, the special, a link to the mayor, and the
//!   "Who's been here" recent-visitor list (Fig B.1 — the section
//!   Foursquare removed right after the authors finished crawling).
//!
//! [`WebConfig`] carries the §5.2 defense switches: login gating for
//! profile pages, hashing of visitor IDs, and removal of the visitor
//! list.
//!
//! Each page is written in document order into one buffer sized before
//! the first byte. The crawler's scraper reads the fields in that same
//! order, one forward pass per page, so the order is a contract
//! (DESIGN.md §15); `tests/page_digest.rs` pins every page's bytes.

use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::{LbsnServer, SpecialKind, UserId, UserProfile, Venue, VenueId};

/// Defense-related frontend switches (§5.2).
#[derive(Debug, Clone)]
pub struct WebConfig {
    /// Require a logged-in session to view profile pages ("If a user
    /// must login to view the publicly available profile pages, it's
    /// easier to detect the crawling users and block them").
    pub require_login: bool,
    /// Replace visitor user IDs with opaque hashes ("the service
    /// provider may use the hash function to hide necessary information
    /// (such as user IDs in the recent check-in list)").
    pub hash_visitor_ids: bool,
    /// Render the "Who's been here" section at all. Foursquare removed
    /// it after the crawl; setting this false reproduces the post-fix
    /// site.
    pub show_whos_been_here: bool,
}

impl Default for WebConfig {
    fn default() -> Self {
        // The August-2010 site the paper crawled: everything public.
        WebConfig {
            require_login: false,
            hash_visitor_ids: false,
            show_whos_been_here: true,
        }
    }
}

/// A minimal HTTP-ish request. The transport is in-process; only the
/// fields the frontend and the anti-crawl defenses inspect exist.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRequest {
    /// Request path, e.g. `/user/1852791`.
    pub path: String,
    /// Whether the client presented a valid login session.
    pub logged_in: bool,
}

impl PageRequest {
    /// An anonymous GET for `path`.
    pub fn get(path: impl Into<String>) -> Self {
        PageRequest {
            path: path.into(),
            logged_in: false,
        }
    }

    /// A logged-in GET for `path`.
    pub fn get_logged_in(path: impl Into<String>) -> Self {
        PageRequest {
            path: path.into(),
            logged_in: true,
        }
    }
}

/// An HTTP-ish response.
#[derive(Debug, Clone, PartialEq)]
pub struct PageResponse {
    /// 200, 403, or 404.
    pub status: u16,
    /// HTML body (empty for non-200).
    pub body: String,
}

impl PageResponse {
    fn ok(body: String) -> Self {
        PageResponse { status: 200, body }
    }

    fn not_found() -> Self {
        PageResponse {
            status: 404,
            body: String::new(),
        }
    }

    fn login_required() -> Self {
        PageResponse {
            status: 403,
            body: String::new(),
        }
    }

    /// Whether this is a successful page load.
    pub fn is_ok(&self) -> bool {
        self.status == 200
    }
}

/// The web frontend. Cheap to clone; thread-safe — the crawler calls
/// [`WebFrontend::handle`] from many worker threads.
#[derive(Clone)]
pub struct WebFrontend {
    server: Arc<LbsnServer>,
    config: Arc<RwLock<WebConfig>>,
}

impl std::fmt::Debug for WebFrontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WebFrontend")
            .field("config", &*self.config.read())
            .finish()
    }
}

impl WebFrontend {
    /// A frontend over a server with the August-2010 (fully public)
    /// configuration.
    pub fn new(server: Arc<LbsnServer>) -> Self {
        WebFrontend::with_config(server, WebConfig::default())
    }

    /// A frontend with an explicit configuration.
    pub fn with_config(server: Arc<LbsnServer>, config: WebConfig) -> Self {
        WebFrontend {
            server,
            config: Arc::new(RwLock::new(config)),
        }
    }

    /// Swaps the configuration (the defense experiments flip switches
    /// mid-run).
    pub fn set_config(&self, config: WebConfig) {
        *self.config.write() = config;
    }

    /// A snapshot of the current configuration.
    pub fn config(&self) -> WebConfig {
        self.config.read().clone()
    }

    /// The server this frontend renders.
    pub fn server(&self) -> &Arc<LbsnServer> {
        &self.server
    }

    /// Routes and renders a request.
    pub fn handle(&self, req: &PageRequest) -> PageResponse {
        let config = self.config.read().clone();
        if config.require_login && !req.logged_in {
            return PageResponse::login_required();
        }
        let mut parts = req.path.trim_start_matches('/').splitn(2, '/');
        match (parts.next(), parts.next()) {
            (Some("user"), Some(rest)) => self.user_page(rest),
            (Some("venue"), Some(rest)) => self.venue_page(rest, &config),
            _ => PageResponse::not_found(),
        }
    }

    fn user_page(&self, key: &str) -> PageResponse {
        let id = if let Ok(n) = key.parse::<u64>() {
            UserId(n)
        } else if let Some(id) = self.server.user_id_by_name(key) {
            id
        } else {
            return PageResponse::not_found();
        };
        // The projection accessor: page rendering never clones a
        // check-in history, no matter how long the account's record is.
        match self.server.user_profile(id) {
            Some(p) => PageResponse::ok(render_user(&p)),
            None => PageResponse::not_found(),
        }
    }

    fn venue_page(&self, key: &str, config: &WebConfig) -> PageResponse {
        let id = match key.parse::<u64>() {
            Ok(n) => VenueId(n),
            Err(_) => return PageResponse::not_found(),
        };
        match self.server.with_venue(id, |v| render_venue(v, config)) {
            Some(body) => PageResponse::ok(body),
            None => PageResponse::not_found(),
        }
    }
}

/// Bytes reserved for a user page's markup and numbers; the username
/// is added on top.
const USER_PAGE_BYTES: usize = 384;
/// Bytes reserved for a venue page's markup and numbers; free text,
/// tips and visitors are added on top.
const VENUE_PAGE_BYTES: usize = 640;
/// Markup around one tip's text.
const TIP_BYTES: usize = 56;
/// One "Who's been here" entry, link or opaque token.
const VISITOR_BYTES: usize = 64;

/// Renders `/user/<id>` in document order into one buffer.
fn render_user(p: &UserProfile) -> String {
    let id = p.id.value();
    let display_len = p.username.as_ref().map_or(24, String::len);
    let mut out = String::with_capacity(USER_PAGE_BYTES + display_len);
    out.push_str("<html><head><title>LBSN user ");
    push_u64(&mut out, id);
    out.push_str("</title></head><body>\n<div class=\"user-profile\" data-id=\"");
    push_u64(&mut out, id);
    out.push_str("\">\n<h1 class=\"username\">");
    match &p.username {
        Some(name) => out.push_str(name),
        None => {
            out.push_str("user");
            push_u64(&mut out, id);
        }
    }
    out.push_str("</h1>\n<span class=\"home\">");
    match p.home {
        Some(h) => {
            push_fixed(&mut out, h.lat(), 4);
            out.push_str(", ");
            push_fixed(&mut out, h.lon(), 4);
        }
        None => out.push_str("unknown"),
    }
    out.push_str("</span>\n<span class=\"stat total-checkins\">");
    push_u64(&mut out, p.total_checkins);
    out.push_str("</span>\n<span class=\"stat badges\">");
    push_u64(&mut out, p.badge_count as u64);
    out.push_str("</span>\n<span class=\"stat friends\">");
    push_u64(&mut out, p.friend_count as u64);
    out.push_str("</span>\n<span class=\"stat points\">");
    push_u64(&mut out, p.points);
    out.push_str("</span>\n</div></body></html>");
    out
}

/// Renders `/venue/<id>` in document order into one buffer, sized
/// before the first byte so that a typical page needs no reallocation
/// while the caller holds the venue shard lock.
fn render_venue(v: &Venue, config: &WebConfig) -> String {
    let id = v.id.value();
    let tips = v.tips();
    // Up to five most-recent tips appear on the page.
    let shown = &tips[..tips.len().min(5)];
    let visitors = if config.show_whos_been_here {
        v.recent_visitors()
    } else {
        &[]
    };
    let capacity = VENUE_PAGE_BYTES
        + v.name().len()
        + v.address().len()
        + v.special.as_ref().map_or(0, |s| s.description.len())
        + shown
            .iter()
            .map(|t| TIP_BYTES + t.text.len())
            .sum::<usize>()
        + VISITOR_BYTES * visitors.len();
    let mut out = String::with_capacity(capacity);
    out.push_str("<html><head><title>LBSN venue ");
    push_u64(&mut out, id);
    out.push_str("</title></head><body>\n<div class=\"venue\" data-id=\"");
    push_u64(&mut out, id);
    out.push_str("\">\n<h1 class=\"venue-name\">");
    out.push_str(v.name());
    out.push_str("</h1>\n<span class=\"address\">");
    out.push_str(v.address());
    out.push_str("</span>\n<span class=\"category\">");
    out.push_str(v.category.label());
    out.push_str("</span>\n<span class=\"geo\" data-lat=\"");
    push_fixed(&mut out, v.location.lat(), 6);
    out.push_str("\" data-lon=\"");
    push_fixed(&mut out, v.location.lon(), 6);
    out.push_str("\"></span>\n<span class=\"stat checkins-here\">");
    push_u64(&mut out, v.checkins_here);
    out.push_str("</span>\n<span class=\"stat unique-visitors\">");
    push_u64(&mut out, v.unique_visitors().len() as u64);
    out.push_str("</span>\n<span class=\"stat tips\">");
    push_u64(&mut out, tips.len() as u64);
    out.push_str("</span>\n<div class=\"tips\">");
    for t in shown {
        out.push_str("<div class=\"tip\" data-user=\"");
        push_u64(&mut out, t.user.value());
        out.push_str("\">");
        out.push_str(&t.text);
        out.push_str("</div>");
    }
    out.push_str("</div>\n");
    if let Some(s) = &v.special {
        let kind = match s.kind {
            SpecialKind::MayorOnly => "mayor",
            SpecialKind::EveryCheckin => "everyone",
            SpecialKind::Loyalty { .. } => "loyalty",
        };
        out.push_str("<div class=\"special\" data-kind=\"");
        out.push_str(kind);
        out.push_str("\">");
        out.push_str(&s.description);
        out.push_str("</div>\n");
    }
    match v.mayor {
        Some(m) => {
            out.push_str("<a class=\"mayor\" href=\"/user/");
            push_u64(&mut out, m.value());
            out.push_str("\">u");
            push_u64(&mut out, m.value());
            out.push_str("</a>\n");
        }
        None => out.push_str("<span class=\"mayor none\">No mayor yet</span>\n"),
    }
    if config.show_whos_been_here {
        out.push_str("<div class=\"whos-been-here\">");
        for &u in visitors {
            if config.hash_visitor_ids {
                out.push_str("<span class=\"visitor\">");
                push_opaque_visitor_token(&mut out, u);
                out.push_str("</span>");
            } else {
                out.push_str("<a class=\"visitor\" href=\"/user/");
                push_u64(&mut out, u.value());
                out.push_str("\">u");
                push_u64(&mut out, u.value());
                out.push_str("</a>");
            }
        }
        out.push_str("</div>\n");
    }
    out.push_str("</div></body></html>");
    out
}

/// Appends `n` in decimal, as `{}` formats it.
fn push_u64(out: &mut String, n: u64) {
    push_digits(out, n, 1);
}

/// Appends `n` in decimal, zero-padded to `width` (at most 20) digits.
fn push_digits(out: &mut String, mut n: u64, width: usize) {
    let mut digits = [b'0'; 20];
    let mut start = digits.len();
    while n > 0 || digits.len() - start < width {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Appends `x` with `decimals` fraction digits, byte for byte as
/// `{:.N}` formats it: the exact binary value rounded half to even,
/// and a `-` on every negative value, zero included. Magnitudes below
/// 2^20 (every coordinate) take an integer path that skips the
/// formatter's general exact-mode machinery; anything else, infinities
/// and NaN included, goes through the formatter.
fn push_fixed(out: &mut String, x: f64, decimals: usize) {
    const SCALE: [u64; 7] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000];
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as u32;
    if biased >= 1023 + 20 || decimals >= SCALE.len() {
        // `String` as `fmt::Write` never fails.
        let _ = write!(out, "{x:.decimals$}");
        return;
    }
    // |x| = m · 2^-shift, and shift ≥ 33 below 2^20.
    let fraction = bits & ((1 << 52) - 1);
    let (m, shift) = match biased {
        0 => (fraction, 1074),
        _ => (fraction | 1 << 52, 1075 - biased),
    };
    let scale = SCALE[decimals];
    // m · scale < 2^73, so from shift 74 on the value rounds to 0.
    let n = if shift > 74 {
        0
    } else {
        let scaled = u128::from(m) * u128::from(scale);
        let (q, r) = (scaled >> shift, scaled & ((1 << shift) - 1));
        let half = 1 << (shift - 1);
        let up = r > half || (r == half && q & 1 == 1);
        // q < 2^20 · 10^6, well inside u64.
        (q + u128::from(up)) as u64
    };
    if x.is_sign_negative() {
        out.push('-');
    }
    push_u64(out, n / scale);
    if decimals > 0 {
        out.push('.');
        push_digits(out, n % scale, decimals);
    }
}

/// The §5.2 mitigation: a keyed one-way token in place of a visitor's
/// user ID. Crawlers can still count list entries but can no longer join
/// them across venues into per-user location histories, because the
/// token is salted per deployment. Appends `h` and 16 lowercase hex
/// digits.
fn push_opaque_visitor_token(out: &mut String, u: UserId) {
    // FNV-1a over the id with a fixed deployment salt.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ 0x5A5A_1EB5_0CA1_5EED;
    for b in u.value().to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('h');
    out.extend(
        (0..16)
            .rev()
            .map(|i| char::from(HEX[((h >> (4 * i)) & 0xF) as usize])),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        CheckinRequest, CheckinSource, ServerConfig, Special, SpecialKind, UserSpec, VenueSpec,
    };
    use lbsn_geo::GeoPoint;
    use lbsn_sim::{Duration, SimClock};

    fn setup() -> (Arc<LbsnServer>, WebFrontend) {
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        let frontend = WebFrontend::new(Arc::clone(&server));
        (server, frontend)
    }

    fn abq() -> GeoPoint {
        GeoPoint::new(35.0844, -106.6504).unwrap()
    }

    #[test]
    fn user_page_by_id_and_name() {
        let (server, web) = setup();
        let id = server.register_user(UserSpec::named("mai").home(abq()));
        let by_id = web.handle(&PageRequest::get(format!("/user/{}", id.value())));
        assert!(by_id.is_ok());
        assert!(by_id.body.contains("<h1 class=\"username\">mai</h1>"));
        assert!(by_id.body.contains("total-checkins\">0<"));
        let by_name = web.handle(&PageRequest::get("/user/mai"));
        assert_eq!(by_id.body, by_name.body);
    }

    #[test]
    fn unknown_routes_404() {
        let (_, web) = setup();
        assert_eq!(web.handle(&PageRequest::get("/user/999")).status, 404);
        assert_eq!(web.handle(&PageRequest::get("/venue/999")).status, 404);
        assert_eq!(web.handle(&PageRequest::get("/nothing/1")).status, 404);
        assert_eq!(web.handle(&PageRequest::get("/user")).status, 404);
        assert_eq!(web.handle(&PageRequest::get("")).status, 404);
    }

    #[test]
    fn venue_page_shows_profile_fields() {
        let (server, web) = setup();
        let vid = server.register_venue(
            VenueSpec::new("Starbucks #5", abq())
                .address("500 Central Ave")
                .category(crate::VenueCategory::Coffee)
                .special(Special {
                    description: "Free coffee for the mayor!".into(),
                    kind: SpecialKind::MayorOnly,
                }),
        );
        let uid = server.register_user(UserSpec::anonymous());
        server
            .check_in(&CheckinRequest {
                user: uid,
                venue: vid,
                reported_location: abq(),
                source: CheckinSource::MobileApp,
            })
            .unwrap();
        let page = web.handle(&PageRequest::get("/venue/1"));
        assert!(page.is_ok());
        let b = &page.body;
        assert!(b.contains("venue-name\">Starbucks #5<"));
        assert!(b.contains("data-lat=\"35.084400\""));
        assert!(b.contains("data-lon=\"-106.650400\""));
        assert!(b.contains("checkins-here\">1<"));
        assert!(b.contains("unique-visitors\">1<"));
        assert!(b.contains("data-kind=\"mayor\""));
        assert!(b.contains("class=\"mayor\" href=\"/user/1\""));
        assert!(b.contains("whos-been-here"));
        assert!(b.contains("href=\"/user/1\">u1</a>"));
    }

    #[test]
    fn venue_without_mayor_says_so() {
        let (server, web) = setup();
        server.register_venue(VenueSpec::new("Quiet Spot", abq()));
        let page = web.handle(&PageRequest::get("/venue/1"));
        assert!(page.body.contains("No mayor yet"));
    }

    #[test]
    fn login_gate_blocks_anonymous() {
        let (server, web) = setup();
        server.register_user(UserSpec::anonymous());
        web.set_config(WebConfig {
            require_login: true,
            ..WebConfig::default()
        });
        assert_eq!(web.handle(&PageRequest::get("/user/1")).status, 403);
        assert!(web.handle(&PageRequest::get_logged_in("/user/1")).is_ok());
    }

    #[test]
    fn hashed_visitor_ids_hide_identity_but_keep_counts() {
        let (server, web) = setup();
        let vid = server.register_venue(VenueSpec::new("Spot", abq()));
        for _ in 0..3 {
            let u = server.register_user(UserSpec::anonymous());
            server
                .check_in(&CheckinRequest {
                    user: u,
                    venue: vid,
                    reported_location: abq(),
                    source: CheckinSource::MobileApp,
                })
                .unwrap();
            server.clock().advance(Duration::minutes(5));
        }
        web.set_config(WebConfig {
            hash_visitor_ids: true,
            ..WebConfig::default()
        });
        let page = web.handle(&PageRequest::get("/venue/1"));
        assert!(!page.body.contains("class=\"visitor\" href"));
        assert_eq!(page.body.matches("<span class=\"visitor\">h").count(), 3);
        // Tokens are stable per user but opaque.
        let again = web.handle(&PageRequest::get("/venue/1"));
        assert_eq!(page.body, again.body);
    }

    #[test]
    fn whos_been_here_removable() {
        let (server, web) = setup();
        let vid = server.register_venue(VenueSpec::new("Spot", abq()));
        let u = server.register_user(UserSpec::anonymous());
        server
            .check_in(&CheckinRequest {
                user: u,
                venue: vid,
                reported_location: abq(),
                source: CheckinSource::MobileApp,
            })
            .unwrap();
        web.set_config(WebConfig {
            show_whos_been_here: false,
            ..WebConfig::default()
        });
        let page = web.handle(&PageRequest::get("/venue/1"));
        assert!(page.is_ok());
        assert!(!page.body.contains("whos-been-here"));
    }

    /// `push_fixed` writes what `{:.N}` writes: random coordinates,
    /// exact halfway ties, values one ulp either side of a rounding
    /// boundary, subnormals, signed zeros and the formatter fallback.
    #[test]
    fn fixed_point_matches_the_formatter() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1ED);
        let mut values = vec![
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.03125,
            -0.09375,
            0.0078125,
            1e-300,
            -1e-300,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            179.99999999,
            -180.0,
            90.0,
            (1u64 << 20) as f64 - 1e-9,
            (1u64 << 20) as f64,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for _ in 0..5_000 {
            let x: f64 = rng.gen_range(-200.0..200.0);
            values.push(x);
            values.push(f64::from_bits(rng.gen::<u64>()));
            // Exact ties: odd multiples of 2^-k.
            let k = rng.gen_range(1..=30);
            let odd = (rng.gen_range(0u64..1 << 20) * 2 + 1) as f64;
            values.push(odd / (1u64 << k) as f64 / 1024.0);
            // Either side of a decimal rounding boundary.
            for decimals in [4, 6] {
                let unit = 10f64.powi(-decimals);
                let boundary = (rng.gen_range(-1_000_000i64..1_000_000) as f64 + 0.5) * unit;
                values.push(f64::from_bits(boundary.to_bits() - 1));
                values.push(boundary);
                values.push(f64::from_bits(boundary.to_bits() + 1));
            }
        }
        for x in values {
            for decimals in 0..=7 {
                let mut out = String::new();
                push_fixed(&mut out, x, decimals);
                assert_eq!(out, format!("{x:.decimals$}"), "{x:e} to {decimals} places");
            }
        }
    }

    #[test]
    fn anonymous_user_renders_generated_name() {
        let (server, web) = setup();
        server.register_user(UserSpec::anonymous());
        let page = web.handle(&PageRequest::get("/user/1"));
        assert!(page.body.contains("username\">user1<"));
        assert!(page.body.contains("home\">unknown<"));
    }
}
