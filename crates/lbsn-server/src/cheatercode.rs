//! The **cheater code**: Foursquare's server-side anti-cheating rules.
//!
//! §2.3 of the paper reverse-engineers three rules through black-box
//! experiments, plus the basic GPS proximity check; §4.2 adds account
//! branding. The set is fixed, so it is one crate-private `Detector`
//! enum with one `Detector::judge`, and `Detector::CHAIN` is the order
//! the admission pipeline runs them in.
//!
//! The thresholds and the `enable_*` switches live in the
//! serde-loadable [`DetectorConfig`], so ablation sweeps are pure
//! configuration — see [`crate::policy`]. [`CheaterCode`] runs the
//! enabled §2.3 detectors of one config bare, without branding or
//! telemetry; the admission pipeline runs the same `judge` with both.

use lbsn_geo::{distance, BoundingBox};
use lbsn_sim::Timestamp;

use crate::checkin::{CheatFlag, CheckinRequest};
use crate::policy::DetectorConfig;
use crate::user::User;
use crate::venue::Venue;

/// Everything a detector may inspect when judging a check-in.
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

/// A detector's verdict *with the evidence it compared*: the measured
/// value against the configured threshold. Captured by the decision
/// audit plane so `obs-audit why <user>` can print not just *which*
/// detector fired but *what it saw* (e.g. `4,431 m vs 500 m`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Judgement {
    /// The flag the detector raises, or `None`.
    pub flag: Option<CheatFlag>,
    /// The value the detector measured (meters, seconds, m/s, …).
    pub observed: f64,
    /// The configured threshold it was compared against.
    pub threshold: f64,
    /// Unit of `observed` / `threshold`; empty when the detector has no
    /// scalar evidence.
    pub unit: &'static str,
}

/// One server-side anti-cheating check. Detectors are pure judgements:
/// each returns the flag it would raise, or `None`, and every detector
/// raises its own flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Detector {
    /// Once the §4.2 escalation has marked an account as a cheater,
    /// every later check-in is invalidated. Terminal: the check-in
    /// carries only [`CheatFlag::AccountFlagged`] and no other detector
    /// runs.
    BrandedAccount,
    /// GPS proximity: the claimed venue must be near the reported fix.
    GpsProximity,
    /// Same-venue cooldown: one rewarded check-in per venue per hour.
    FrequentCheckins,
    /// Super-human speed: the implied travel speed from the last
    /// *valid* check-in must be plausible.
    SuperhumanSpeed,
    /// Rapid-fire: the fourth-or-later check-in of a tight burst inside
    /// a small square is flagged.
    RapidFire,
}

impl Detector {
    /// Every detector in evaluation order: branding first, then the
    /// §2.3 rules in the paper's order.
    pub(crate) const CHAIN: [Detector; 5] = [
        Detector::BrandedAccount,
        Detector::GpsProximity,
        Detector::FrequentCheckins,
        Detector::SuperhumanSpeed,
        Detector::RapidFire,
    ];

    /// Stable detector name, used in ablation reports and the
    /// per-detector `server.checkin.detector.{name}.*` metrics.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Detector::BrandedAccount => "branded-account",
            Detector::GpsProximity => "gps-proximity",
            Detector::FrequentCheckins => "frequent-checkins",
            Detector::SuperhumanSpeed => "superhuman-speed",
            Detector::RapidFire => "rapid-fire",
        }
    }

    /// Whether `cfg` switches this detector on. Branding is account
    /// state, not a per-check-in rule, so it has no switch.
    pub(crate) fn enabled(self, cfg: &DetectorConfig) -> bool {
        match self {
            Detector::BrandedAccount => true,
            Detector::GpsProximity => cfg.enable_gps,
            Detector::FrequentCheckins => cfg.enable_cooldown,
            Detector::SuperhumanSpeed => cfg.enable_speed,
            Detector::RapidFire => cfg.enable_rapid_fire,
        }
    }

    /// Whether a raised flag ends detection outright: the flag is then
    /// the check-in's *only* flag and no later detector runs.
    pub(crate) fn is_terminal(self) -> bool {
        self == Detector::BrandedAccount
    }

    /// Judges a check-in against `cfg`'s thresholds and reports the
    /// compared evidence, so the audit plane records exactly the
    /// observed-vs-threshold pair the detector evaluated.
    pub(crate) fn judge(self, cfg: &DetectorConfig, ctx: &RuleContext<'_>) -> Judgement {
        match self {
            Detector::BrandedAccount => {
                let branded = ctx.user.branded_cheater;
                Judgement {
                    flag: branded.then_some(CheatFlag::AccountFlagged),
                    observed: if branded { 1.0 } else { 0.0 },
                    threshold: 1.0,
                    unit: "branded",
                }
            }
            Detector::GpsProximity => {
                let dist = distance(ctx.request.reported_location, ctx.venue.location);
                Judgement {
                    flag: (dist > cfg.gps_radius_m).then_some(CheatFlag::GpsMismatch),
                    observed: dist,
                    threshold: cfg.gps_radius_m,
                    unit: "m",
                }
            }
            Detector::FrequentCheckins => {
                // Only rewarded check-ins arm the cooldown; otherwise a
                // flagged retry would keep extending its own punishment
                // window.
                let cooldown = cfg.same_venue_cooldown;
                let threshold = cooldown.as_secs() as f64;
                let mut observed = threshold;
                let mut flag = None;
                for r in ctx.user.history.iter().rev() {
                    let gap = ctx.now.since(r.at);
                    if gap >= cooldown {
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
            Detector::SuperhumanSpeed => {
                // The reference point is the last valid check-in, not the
                // last submission — otherwise an attacker could "ladder"
                // across the country by submitting a chain of flagged
                // check-ins that drag the reference along. (The paper's
                // attacker instead respects the pacing law, §3.3.) Gaps
                // longer than `speed_rule_max_gap` could include a
                // flight and are not speed-checked.
                let pass = Judgement {
                    flag: None,
                    observed: 0.0,
                    threshold: cfg.max_speed_mps,
                    unit: "mps",
                };
                let Some(prev) = ctx.user.last_valid_checkin() else {
                    return pass;
                };
                let gap = ctx.now.since(prev.at);
                if gap > cfg.speed_rule_max_gap {
                    return pass;
                }
                let speed = lbsn_geo::implied_speed_mps(
                    prev.location,
                    ctx.request.reported_location,
                    gap.as_secs() as f64,
                );
                Judgement {
                    flag: (speed > cfg.max_speed_mps).then_some(CheatFlag::SuperhumanSpeed),
                    observed: speed,
                    ..pass
                }
            }
            Detector::RapidFire => {
                let count = cfg.rapid_fire_count;
                let pass = Judgement {
                    flag: None,
                    observed: 1.0,
                    threshold: count as f64,
                    unit: "checkins",
                };
                if count < 2 {
                    return pass;
                }
                // Chain backwards through history while consecutive
                // intervals stay within the burst spacing, growing the
                // burst's bounding box as it goes.
                let mut bbox = BoundingBox::point(ctx.request.reported_location);
                let mut len = 1;
                let mut prev_at = ctx.now;
                for r in ctx.user.history.iter().rev() {
                    if prev_at.since(r.at) > cfg.rapid_fire_max_interval {
                        break;
                    }
                    bbox.extend(r.location);
                    len += 1;
                    prev_at = r.at;
                    if len >= count {
                        break;
                    }
                }
                let observed = len as f64;
                if len < count {
                    return Judgement { observed, ..pass };
                }
                // "Fits in an S × S square" iff the extent is ≤ S.
                Judgement {
                    flag: (bbox.square_extent_m() <= cfg.rapid_fire_square_m)
                        .then_some(CheatFlag::RapidFire),
                    observed,
                    ..pass
                }
            }
        }
    }
}

/// The §2.3 detectors of one [`DetectorConfig`], run bare: the same
/// `Detector::judge` the admission pipeline runs, minus branding and
/// telemetry.
#[derive(Debug, Clone)]
pub struct CheaterCode {
    cfg: DetectorConfig,
}

impl CheaterCode {
    /// Holds `cfg`; its `enable_*` switches pick the detectors.
    pub fn from_config(cfg: &DetectorConfig) -> Self {
        CheaterCode { cfg: cfg.clone() }
    }

    /// Runs every enabled §2.3 detector; returns the flags raised, in
    /// chain order.
    pub fn evaluate(&self, ctx: &RuleContext<'_>) -> Vec<CheatFlag> {
        Detector::CHAIN
            .into_iter()
            .filter(|&d| d != Detector::BrandedAccount && d.enabled(&self.cfg))
            .filter_map(|d| d.judge(&self.cfg, ctx).flag)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkin::{CheckinRecord, CheckinSource};
    use crate::user::UserSpec;
    use crate::venue::VenueSpec;
    use crate::{UserId, VenueId};
    use lbsn_geo::{destination, GeoPoint};

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

    /// `detector`'s flag under the default (paper) thresholds.
    fn judge(detector: Detector, ctx: &RuleContext<'_>) -> Option<CheatFlag> {
        detector.judge(&DetectorConfig::default(), ctx).flag
    }

    fn home() -> GeoPoint {
        GeoPoint::new(35.0844, -106.6504).unwrap()
    }

    #[test]
    fn gps_rule_passes_nearby_rejects_far() {
        let v = venue_at(1, home());
        let u = user_with(vec![]);

        let near = CheckinRequest {
            user: UserId(1),
            venue: VenueId(1),
            reported_location: destination(home(), 90.0, 300.0),
            source: CheckinSource::MobileApp,
        };
        assert_eq!(judge(Detector::GpsProximity, &ctx(&u, &v, &near, 0)), None);

        let far = CheckinRequest {
            reported_location: destination(home(), 90.0, 2_000.0),
            ..near
        };
        assert_eq!(
            judge(Detector::GpsProximity, &ctx(&u, &v, &far, 0)),
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
        let spoofed = CheckinRequest {
            user: UserId(1),
            venue: VenueId(1),
            reported_location: sf, // attacker is really in Albuquerque
            source: CheckinSource::MobileApp,
        };
        assert_eq!(
            judge(Detector::GpsProximity, &ctx(&u, &v, &spoofed, 0)),
            None
        );
    }

    #[test]
    fn cooldown_rule_blocks_within_hour_allows_after() {
        let v = venue_at(1, home());
        let u = user_with(vec![rec(1, 1000, home(), true)]);
        let req = CheckinRequest {
            user: UserId(1),
            venue: VenueId(1),
            reported_location: home(),
            source: CheckinSource::MobileApp,
        };
        // 30 minutes later: blocked.
        assert_eq!(
            judge(Detector::FrequentCheckins, &ctx(&u, &v, &req, 1000 + 1800)),
            Some(CheatFlag::TooFrequent)
        );
        // 61 minutes later: allowed.
        assert_eq!(
            judge(Detector::FrequentCheckins, &ctx(&u, &v, &req, 1000 + 3661)),
            None
        );
    }

    #[test]
    fn cooldown_rule_ignores_other_venues() {
        let v = venue_at(2, home());
        let u = user_with(vec![rec(1, 1000, home(), true)]);
        let req = CheckinRequest {
            user: UserId(1),
            venue: VenueId(2),
            reported_location: home(),
            source: CheckinSource::MobileApp,
        };
        assert_eq!(
            judge(Detector::FrequentCheckins, &ctx(&u, &v, &req, 1200)),
            None
        );
    }

    #[test]
    fn speed_rule_flags_teleport_and_allows_driving() {
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
            judge(Detector::SuperhumanSpeed, &ctx(&u, &v, &req, 600)),
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
        assert_eq!(
            judge(Detector::SuperhumanSpeed, &ctx(&u, &v2, &req2, 600)),
            None
        );
    }

    #[test]
    fn speed_rule_skips_long_gaps_and_fresh_users() {
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
        assert_eq!(
            judge(Detector::SuperhumanSpeed, &ctx(&fresh, &v, &req, 600)),
            None
        );
        // 2-day gap: could have flown.
        let u = user_with(vec![rec(1, 0, home(), true)]);
        assert_eq!(
            judge(
                Detector::SuperhumanSpeed,
                &ctx(&u, &v, &req, 2 * lbsn_sim::DAY)
            ),
            None
        );
    }

    #[test]
    fn speed_rule_references_last_valid_not_last_flagged() {
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
            judge(Detector::SuperhumanSpeed, &ctx(&u, &v, &req, 1200)),
            Some(CheatFlag::SuperhumanSpeed)
        );
    }

    #[test]
    fn rapid_fire_flags_fourth_in_square() {
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
            judge(Detector::RapidFire, &ctx(&u, &v, &req, 3 * 45)),
            Some(CheatFlag::RapidFire)
        );
    }

    #[test]
    fn rapid_fire_ignores_spread_out_or_slow_bursts() {
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
        assert_eq!(judge(Detector::RapidFire, &ctx(&u, &v, &req, 3 * 45)), None);
        // Tight square but 5-minute spacing: chain breaks, no flag.
        let slow: Vec<_> = (0..3)
            .map(|i| rec(i + 1, i * 300, destination(base, 90.0, 40.0), true))
            .collect();
        let u2 = user_with(slow);
        assert_eq!(judge(Detector::RapidFire, &ctx(&u2, &v, &req, 900)), None);
    }

    #[test]
    fn rapid_fire_only_at_threshold() {
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
        assert_eq!(judge(Detector::RapidFire, &ctx(&u, &v, &req, 60)), None);
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
    fn branding_is_terminal_and_outside_the_bare_chain() {
        assert!(Detector::BrandedAccount.is_terminal());
        assert!(
            Detector::CHAIN[1..].iter().all(|d| !d.is_terminal()),
            "ordinary rules are not terminal"
        );
        let v = venue_at(1, home());
        let req = CheckinRequest {
            user: UserId(1),
            venue: VenueId(1),
            reported_location: home(),
            source: CheckinSource::MobileApp,
        };
        let honest = user_with(vec![]);
        assert_eq!(
            judge(Detector::BrandedAccount, &ctx(&honest, &v, &req, 0)),
            None
        );
        let mut branded = user_with(vec![]);
        branded.branded_cheater = true;
        assert_eq!(
            judge(Detector::BrandedAccount, &ctx(&branded, &v, &req, 0)),
            Some(CheatFlag::AccountFlagged)
        );
        // `CheaterCode` runs the §2.3 rules only.
        let code = CheaterCode::from_config(&DetectorConfig::default());
        assert!(code.evaluate(&ctx(&branded, &v, &req, 0)).is_empty());
    }
}
