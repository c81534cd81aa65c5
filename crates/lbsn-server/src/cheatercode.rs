//! The **cheater code**: Foursquare's server-side anti-cheating rules.
//!
//! §2.3 of the paper reverse-engineers three rules through black-box
//! experiments, plus the basic GPS proximity check. Each is implemented
//! here as a [`CheatRule`], the trait the admission pipeline's detector
//! stage runs; the set is configurable so the benchmark harness can
//! ablate rules individually and measure what each one catches.
//!
//! The rules' thresholds and switches live in the serde-loadable
//! [`DetectorConfig`], so ablation sweeps are pure configuration — see
//! [`crate::policy`]. `paper_rules` is the one mapping from that config
//! to rules; [`CheaterCode`] and the admission pipeline both use it.

use lbsn_geo::{distance, equirectangular_distance, GeoPoint, Meters, METERS_PER_DEGREE_LAT};
use lbsn_sim::{Duration, Timestamp};

use crate::checkin::{CheatFlag, CheckinRequest};
use crate::policy::DetectorConfig;
use crate::user::User;
use crate::venue::Venue;

/// Everything a rule may inspect when judging a check-in.
pub struct RuleContext<'a> {
    /// The submitting user, history included (the new check-in is *not*
    /// yet in the history).
    pub user: &'a User,
    /// The claimed venue.
    pub venue: &'a Venue,
    /// The raw request.
    pub request: &'a CheckinRequest,
    /// Server time of the submission.
    pub now: Timestamp,
}

/// A rule's verdict *with the evidence it compared*: the measured value
/// against the configured threshold. Captured by the decision audit
/// plane so `obs-audit why <user>` can print not just *which* rule
/// fired but *what it saw* (e.g. `4,431 m vs 500 m`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    /// The flag the rule raises, or `None`.
    pub flag: Option<CheatFlag>,
    /// The value the rule measured (meters, seconds, m/s, …).
    pub observed: f64,
    /// The configured threshold it was compared against.
    pub threshold: f64,
    /// Unit of `observed` / `threshold`; empty when the rule has no
    /// scalar evidence.
    pub unit: &'static str,
}

/// A server-side anti-cheating rule.
///
/// Rules are pure judgements: they return the flag they would raise, or
/// `None`. The server collects flags from every active rule (the paper's
/// experiments could observe multiple independent warnings).
pub trait CheatRule: Send + Sync {
    /// Stable rule name, used in ablation reports and the per-detector
    /// `server.checkin.detector.{name}.*` metrics.
    fn name(&self) -> &'static str;
    /// Judge a check-in and report the compared evidence, so the audit
    /// plane records exactly the observed-vs-threshold pair the rule
    /// evaluated.
    fn judge(&self, ctx: &RuleContext<'_>) -> Judgement;
    /// Whether a raised flag ends detection outright: when a terminal
    /// detector fires, its flag is the check-in's *only* flag and no
    /// later detector runs. The branded-account detector is terminal
    /// (a branded account's check-in reports nothing else, §4.2);
    /// ordinary rules are not.
    fn is_terminal(&self) -> bool {
        false
    }
}

/// GPS proximity verification: the claimed venue must be near the
/// reported fix.
#[derive(Debug, Clone)]
pub struct GpsProximityRule {
    /// Allowed radius in metres.
    pub radius_m: Meters,
}

impl CheatRule for GpsProximityRule {
    fn name(&self) -> &'static str {
        "gps-proximity"
    }

    fn judge(&self, ctx: &RuleContext<'_>) -> Judgement {
        let dist = distance(ctx.request.reported_location, ctx.venue.location);
        Judgement {
            flag: (dist > self.radius_m).then_some(CheatFlag::GpsMismatch),
            observed: dist,
            threshold: self.radius_m,
            unit: "m",
        }
    }
}

/// Same-venue cooldown: one check-in per venue per hour.
#[derive(Debug, Clone)]
pub struct FrequentCheckinRule {
    /// Cooldown length.
    pub cooldown: Duration,
}

impl CheatRule for FrequentCheckinRule {
    fn name(&self) -> &'static str {
        "frequent-checkins"
    }

    fn judge(&self, ctx: &RuleContext<'_>) -> Judgement {
        // Only rewarded check-ins arm the cooldown; otherwise a flagged
        // retry would keep extending its own punishment window.
        let threshold = self.cooldown.as_secs() as f64;
        let mut observed = threshold;
        let mut flag = None;
        for r in ctx.user.history.iter().rev() {
            let gap = ctx.now.since(r.at);
            if gap >= self.cooldown {
                break;
            }
            if r.rewarded && r.venue == ctx.request.venue {
                observed = gap.as_secs() as f64;
                flag = Some(CheatFlag::TooFrequent);
                break;
            }
        }
        Judgement {
            flag,
            observed,
            threshold,
            unit: "s",
        }
    }
}

/// Super-human speed: implied travel speed from the last *valid*
/// check-in must be plausible.
///
/// The reference point is the last valid check-in, not the last
/// submission — otherwise an attacker could "ladder" across the country
/// by submitting a chain of flagged check-ins that drag the reference
/// along. (The paper's attacker instead respects the pacing law, §3.3.)
#[derive(Debug, Clone)]
pub struct SuperhumanSpeedRule {
    /// Max plausible speed, m/s.
    pub max_speed_mps: f64,
    /// Gaps longer than this are not speed-checked.
    pub max_gap: Duration,
}

impl CheatRule for SuperhumanSpeedRule {
    fn name(&self) -> &'static str {
        "superhuman-speed"
    }

    fn judge(&self, ctx: &RuleContext<'_>) -> Judgement {
        let pass = Judgement {
            flag: None,
            observed: 0.0,
            threshold: self.max_speed_mps,
            unit: "mps",
        };
        let Some(prev) = ctx.user.last_valid_checkin() else {
            return pass;
        };
        let gap = ctx.now.since(prev.at);
        if gap > self.max_gap {
            return pass;
        }
        let speed = lbsn_geo::implied_speed_mps(
            prev.location,
            ctx.request.reported_location,
            gap.as_secs() as f64,
        );
        Judgement {
            flag: (speed > self.max_speed_mps).then_some(CheatFlag::SuperhumanSpeed),
            observed: speed,
            ..pass
        }
    }
}

/// Rapid-fire: the fourth-or-later check-in of a tight burst inside a
/// small square is flagged.
#[derive(Debug, Clone)]
pub struct RapidFireRule {
    /// Burst length that triggers the flag (the Nth check-in).
    pub count: usize,
    /// Square side, metres.
    pub square_m: Meters,
    /// Max interval between consecutive burst members.
    pub max_interval: Duration,
}

impl CheatRule for RapidFireRule {
    fn name(&self) -> &'static str {
        "rapid-fire"
    }

    fn judge(&self, ctx: &RuleContext<'_>) -> Judgement {
        let threshold = self.count as f64;
        let pass = Judgement {
            flag: None,
            observed: 1.0,
            threshold,
            unit: "checkins",
        };
        if self.count < 2 {
            return pass;
        }
        // Chain backwards through history while consecutive intervals
        // stay within the burst spacing.
        let mut burst: Vec<GeoPoint> = vec![ctx.request.reported_location];
        let mut prev_at = ctx.now;
        for r in ctx.user.history.iter().rev() {
            if prev_at.since(r.at) > self.max_interval {
                break;
            }
            burst.push(r.location);
            prev_at = r.at;
            if burst.len() >= self.count {
                break;
            }
        }
        let observed = burst.len() as f64;
        if burst.len() < self.count {
            return Judgement { observed, ..pass };
        }
        Judgement {
            flag: (square_extent_m(&burst) <= self.square_m).then_some(CheatFlag::RapidFire),
            observed,
            ..pass
        }
    }
}

/// The larger of the north–south and east–west extents of a point set,
/// in metres — "fits in an S × S square" iff this is ≤ S.
fn square_extent_m(points: &[GeoPoint]) -> Meters {
    if points.len() < 2 {
        return 0.0;
    }
    let bbox = lbsn_geo::BoundingBox::enclosing(points.iter().copied())
        .expect("non-empty point set has a bounding box");
    let lat_m = bbox.lat_span() * METERS_PER_DEGREE_LAT;
    // Longitude metres shrink with latitude; measure at the box centre.
    let lon_m = equirectangular_distance(
        lbsn_geo::GeoPoint::new(bbox.center().lat(), bbox.min_lon()).expect("valid"),
        lbsn_geo::GeoPoint::new(bbox.center().lat(), bbox.max_lon()).expect("valid"),
    );
    lat_m.max(lon_m)
}

/// The enabled §2.3 rules of `cfg`, in the paper's order: GPS
/// proximity, same-venue cooldown, super-human speed, rapid-fire.
pub(crate) fn paper_rules(cfg: &DetectorConfig) -> Vec<Box<dyn CheatRule>> {
    let mut rules: Vec<Box<dyn CheatRule>> = Vec::new();
    if cfg.enable_gps {
        rules.push(Box::new(GpsProximityRule {
            radius_m: cfg.gps_radius_m,
        }));
    }
    if cfg.enable_cooldown {
        rules.push(Box::new(FrequentCheckinRule {
            cooldown: cfg.same_venue_cooldown,
        }));
    }
    if cfg.enable_speed {
        rules.push(Box::new(SuperhumanSpeedRule {
            max_speed_mps: cfg.max_speed_mps,
            max_gap: cfg.speed_rule_max_gap,
        }));
    }
    if cfg.enable_rapid_fire {
        rules.push(Box::new(RapidFireRule {
            count: cfg.rapid_fire_count,
            square_m: cfg.rapid_fire_square_m,
            max_interval: cfg.rapid_fire_max_interval,
        }));
    }
    rules
}

/// The assembled rule set the server consults on every check-in.
pub struct CheaterCode {
    rules: Vec<Box<dyn CheatRule>>,
}

impl std::fmt::Debug for CheaterCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheaterCode")
            .field("rules", &self.rule_names())
            .finish()
    }
}

impl CheaterCode {
    /// Builds the standard rule set from a config, honouring the
    /// per-rule enable switches.
    pub fn from_config(cfg: &DetectorConfig) -> Self {
        CheaterCode {
            rules: paper_rules(cfg),
        }
    }

    /// Names of the active rules, in evaluation order.
    pub fn rule_names(&self) -> Vec<&'static str> {
        self.rules.iter().map(|r| r.name()).collect()
    }

    /// Runs every rule; returns all flags raised (deduplicated, in rule
    /// order).
    pub fn evaluate(&self, ctx: &RuleContext<'_>) -> Vec<CheatFlag> {
        let mut flags = Vec::new();
        for rule in &self.rules {
            if let Some(f) = rule.judge(ctx).flag {
                if !flags.contains(&f) {
                    flags.push(f);
                }
            }
        }
        flags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkin::{CheckinRecord, CheckinSource};
    use crate::user::UserSpec;
    use crate::venue::VenueSpec;
    use crate::{UserId, VenueId};
    use lbsn_geo::destination;

    fn venue_at(id: u64, loc: GeoPoint) -> Venue {
        Venue::sealed(VenueId(id), VenueSpec::new("V", loc))
    }

    fn user_with(records: Vec<CheckinRecord>) -> User {
        let mut u = User::from_spec(UserId(1), UserSpec::anonymous(), Timestamp(0));
        for r in records {
            u.push_record(r);
        }
        u
    }

    fn rec(venue: u64, at: u64, loc: GeoPoint, rewarded: bool) -> CheckinRecord {
        CheckinRecord {
            venue: VenueId(venue),
            at: Timestamp(at),
            location: loc,
            source: CheckinSource::MobileApp,
            rewarded,
            flags: vec![],
        }
    }

    fn ctx<'a>(
        user: &'a User,
        venue: &'a Venue,
        req: &'a CheckinRequest,
        now: u64,
    ) -> RuleContext<'a> {
        RuleContext {
            user,
            venue,
            request: req,
            now: Timestamp(now),
        }
    }

    fn home() -> GeoPoint {
        GeoPoint::new(35.0844, -106.6504).unwrap()
    }

    #[test]
    fn gps_rule_passes_nearby_rejects_far() {
        let v = venue_at(1, home());
        let u = user_with(vec![]);
        let rule = GpsProximityRule { radius_m: 500.0 };

        let near = CheckinRequest {
            user: UserId(1),
            venue: VenueId(1),
            reported_location: destination(home(), 90.0, 300.0),
            source: CheckinSource::MobileApp,
        };
        assert_eq!(rule.judge(&ctx(&u, &v, &near, 0)).flag, None);

        let far = CheckinRequest {
            reported_location: destination(home(), 90.0, 2_000.0),
            ..near
        };
        assert_eq!(
            rule.judge(&ctx(&u, &v, &far, 0)).flag,
            Some(CheatFlag::GpsMismatch)
        );
    }

    #[test]
    fn gps_rule_accepts_spoofed_fix_at_venue() {
        // The heart of the attack: the rule only sees the *reported*
        // fix. A fix forged to equal the venue location verifies.
        let sf = GeoPoint::new(37.8080, -122.4177).unwrap();
        let v = venue_at(1, sf);
        let u = user_with(vec![]);
        let rule = GpsProximityRule { radius_m: 500.0 };
        let spoofed = CheckinRequest {
            user: UserId(1),
            venue: VenueId(1),
            reported_location: sf, // attacker is really in Albuquerque
            source: CheckinSource::MobileApp,
        };
        assert_eq!(rule.judge(&ctx(&u, &v, &spoofed, 0)).flag, None);
    }

    #[test]
    fn cooldown_rule_blocks_within_hour_allows_after() {
        let v = venue_at(1, home());
        let u = user_with(vec![rec(1, 1000, home(), true)]);
        let rule = FrequentCheckinRule {
            cooldown: Duration::hours(1),
        };
        let req = CheckinRequest {
            user: UserId(1),
            venue: VenueId(1),
            reported_location: home(),
            source: CheckinSource::MobileApp,
        };
        // 30 minutes later: blocked.
        assert_eq!(
            rule.judge(&ctx(&u, &v, &req, 1000 + 1800)).flag,
            Some(CheatFlag::TooFrequent)
        );
        // 61 minutes later: allowed.
        assert_eq!(rule.judge(&ctx(&u, &v, &req, 1000 + 3661)).flag, None);
    }

    #[test]
    fn cooldown_rule_ignores_other_venues() {
        let v = venue_at(2, home());
        let u = user_with(vec![rec(1, 1000, home(), true)]);
        let rule = FrequentCheckinRule {
            cooldown: Duration::hours(1),
        };
        let req = CheckinRequest {
            user: UserId(1),
            venue: VenueId(2),
            reported_location: home(),
            source: CheckinSource::MobileApp,
        };
        assert_eq!(rule.judge(&ctx(&u, &v, &req, 1200)).flag, None);
    }

    #[test]
    fn speed_rule_flags_teleport_and_allows_driving() {
        let rule = SuperhumanSpeedRule {
            max_speed_mps: 40.0,
            max_gap: Duration::hours(24),
        };
        let sf = GeoPoint::new(37.7749, -122.4194).unwrap();
        let u = user_with(vec![rec(1, 0, home(), true)]);
        let v = venue_at(2, sf);
        // Albuquerque -> San Francisco in 10 minutes: impossible.
        let req = CheckinRequest {
            user: UserId(1),
            venue: VenueId(2),
            reported_location: sf,
            source: CheckinSource::MobileApp,
        };
        assert_eq!(
            rule.judge(&ctx(&u, &v, &req, 600)).flag,
            Some(CheatFlag::SuperhumanSpeed)
        );
        // 5 km in 10 minutes: ~8 m/s, fine.
        let nearby = destination(home(), 0.0, 5_000.0);
        let v2 = venue_at(3, nearby);
        let req2 = CheckinRequest {
            venue: VenueId(3),
            reported_location: nearby,
            ..req
        };
        assert_eq!(rule.judge(&ctx(&u, &v2, &req2, 600)).flag, None);
    }

    #[test]
    fn speed_rule_skips_long_gaps_and_fresh_users() {
        let rule = SuperhumanSpeedRule {
            max_speed_mps: 40.0,
            max_gap: Duration::hours(24),
        };
        let sf = GeoPoint::new(37.7749, -122.4194).unwrap();
        let v = venue_at(2, sf);
        let req = CheckinRequest {
            user: UserId(1),
            venue: VenueId(2),
            reported_location: sf,
            source: CheckinSource::MobileApp,
        };
        // No history: nothing to compare against. This is why the
        // paper's very first spoofed check-in succeeded.
        let fresh = user_with(vec![]);
        assert_eq!(rule.judge(&ctx(&fresh, &v, &req, 600)).flag, None);
        // 2-day gap: could have flown.
        let u = user_with(vec![rec(1, 0, home(), true)]);
        assert_eq!(rule.judge(&ctx(&u, &v, &req, 2 * lbsn_sim::DAY)).flag, None);
    }

    #[test]
    fn speed_rule_references_last_valid_not_last_flagged() {
        let rule = SuperhumanSpeedRule {
            max_speed_mps: 40.0,
            max_gap: Duration::hours(24),
        };
        let sf = GeoPoint::new(37.7749, -122.4194).unwrap();
        let denver = GeoPoint::new(39.7392, -104.9903).unwrap();
        // Valid check-in at home, then a *flagged* teleport to Denver.
        let mut flagged = rec(2, 600, denver, false);
        flagged.flags = vec![CheatFlag::SuperhumanSpeed];
        let u = user_with(vec![rec(1, 0, home(), true), flagged]);
        let v = venue_at(3, sf);
        // Denver->SF at 1200s would be plausible-ish if the flagged
        // check-in counted; home->SF is not. Must still flag.
        let req = CheckinRequest {
            user: UserId(1),
            venue: VenueId(3),
            reported_location: sf,
            source: CheckinSource::MobileApp,
        };
        assert_eq!(
            rule.judge(&ctx(&u, &v, &req, 1200)).flag,
            Some(CheatFlag::SuperhumanSpeed)
        );
    }

    #[test]
    fn rapid_fire_flags_fourth_in_square() {
        let rule = RapidFireRule {
            count: 4,
            square_m: 180.0,
            max_interval: Duration::minutes(1),
        };
        let base = home();
        // Three prior check-ins 50 m apart, 45 s apart.
        let recs: Vec<_> = (0..3)
            .map(|i| {
                rec(
                    i + 1,
                    i * 45,
                    destination(base, 90.0, 50.0 * i as f64),
                    true,
                )
            })
            .collect();
        let u = user_with(recs);
        let v = venue_at(4, destination(base, 90.0, 150.0));
        let req = CheckinRequest {
            user: UserId(1),
            venue: VenueId(4),
            reported_location: destination(base, 90.0, 150.0),
            source: CheckinSource::MobileApp,
        };
        assert_eq!(
            rule.judge(&ctx(&u, &v, &req, 3 * 45)).flag,
            Some(CheatFlag::RapidFire)
        );
    }

    #[test]
    fn rapid_fire_ignores_spread_out_or_slow_bursts() {
        let rule = RapidFireRule {
            count: 4,
            square_m: 180.0,
            max_interval: Duration::minutes(1),
        };
        let base = home();
        let v = venue_at(4, base);
        let req = CheckinRequest {
            user: UserId(1),
            venue: VenueId(4),
            reported_location: base,
            source: CheckinSource::MobileApp,
        };
        // Burst of 4 but spanning 400 m: no flag.
        let wide: Vec<_> = (0..3)
            .map(|i| {
                rec(
                    i + 1,
                    i * 45,
                    destination(base, 90.0, 200.0 * (i + 1) as f64),
                    true,
                )
            })
            .collect();
        let u = user_with(wide);
        assert_eq!(rule.judge(&ctx(&u, &v, &req, 3 * 45)).flag, None);
        // Tight square but 5-minute spacing: chain breaks, no flag.
        let slow: Vec<_> = (0..3)
            .map(|i| rec(i + 1, i * 300, destination(base, 90.0, 40.0), true))
            .collect();
        let u2 = user_with(slow);
        assert_eq!(rule.judge(&ctx(&u2, &v, &req, 900)).flag, None);
    }

    #[test]
    fn rapid_fire_only_at_threshold() {
        let rule = RapidFireRule {
            count: 4,
            square_m: 180.0,
            max_interval: Duration::minutes(1),
        };
        let base = home();
        let v = venue_at(3, base);
        // Only two priors: the third check-in is fine.
        let recs: Vec<_> = (0..2).map(|i| rec(i + 1, i * 30, base, true)).collect();
        let u = user_with(recs);
        let req = CheckinRequest {
            user: UserId(1),
            venue: VenueId(3),
            reported_location: base,
            source: CheckinSource::MobileApp,
        };
        assert_eq!(rule.judge(&ctx(&u, &v, &req, 60)).flag, None);
    }

    #[test]
    fn evaluate_collects_multiple_flags() {
        let code = CheaterCode::from_config(&DetectorConfig::default());
        // Teleport to a far venue while claiming coordinates away from it
        // AND within cooldown of a same-venue check-in.
        let sf = GeoPoint::new(37.7749, -122.4194).unwrap();
        let v = venue_at(1, sf);
        let u = user_with(vec![rec(1, 0, home(), true)]);
        let req = CheckinRequest {
            user: UserId(1),
            venue: VenueId(1),
            reported_location: home(), // 1,430 km from claimed venue
            source: CheckinSource::MobileApp,
        };
        let flags = code.evaluate(&ctx(&u, &v, &req, 600));
        assert!(flags.contains(&CheatFlag::GpsMismatch));
        assert!(flags.contains(&CheatFlag::TooFrequent));
    }

    #[test]
    fn square_extent_measures_correctly() {
        let base = home();
        let pts = vec![
            base,
            destination(base, 90.0, 100.0),
            destination(base, 0.0, 150.0),
        ];
        let ext = square_extent_m(&pts);
        assert!((ext - 150.0).abs() < 5.0, "extent {ext}");
        assert_eq!(square_extent_m(&[base]), 0.0);
    }
}
