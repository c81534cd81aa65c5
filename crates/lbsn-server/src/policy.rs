//! Serde-loadable admission policy: every tunable of the check-in
//! pipeline in one place.
//!
//! The paper's §2.3 thresholds (GPS radius, cooldown, speed bound,
//! rapid-fire geometry) and the §4.2 account-branding escalation used to
//! be hardwired next to the rules that consume them; [`PolicyConfig`]
//! lifts them into plain data so an experiment can sweep rule on/off
//! combinations and threshold sensitivities from a JSON file
//! (`policies/default.json` is the committed default) without touching
//! code. The [`crate::pipeline`] module assembles the detector chain
//! from this config and awards the §2.1 reward ladder at its point
//! values; the ladder itself is fixed paper behaviour, so the only
//! `enable_*` switches are the detectors'.

use lbsn_geo::Meters;
use lbsn_sim::Duration;
use serde::{Deserialize, Serialize};

use crate::rewards::PointsPolicy;

/// Tunable parameters for the §2.3 detector set (the "cheater code").
///
/// Each detector has an `enable_*` switch so ablation sweeps are pure
/// config. The real cheater code was concealed; these parameters encode
/// exactly what the paper observed:
///
/// * a user cannot check in to the same venue again within **one hour**;
/// * continuously checking in far apart trips "**super human speed**";
/// * a **fourth** check-in among venues inside a **180 m × 180 m**
///   square at **1-minute** intervals draws a "rapid-fire check-ins"
///   warning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Max distance between the reported GPS fix and the claimed venue
    /// for the check-in to verify. Foursquare's client only offered
    /// venues "nearby" the fix; 500 m approximates that.
    pub gps_radius_m: Meters,
    /// Whether GPS proximity verification is active. Before ~April 2010
    /// Foursquare had no location verification at all (§2.2's
    /// "basic cheating method worked in the early days"); turning this
    /// off reproduces that era.
    pub enable_gps: bool,

    /// Same-venue cooldown (paper: one hour).
    pub same_venue_cooldown: Duration,
    /// Whether the cooldown rule is active.
    pub enable_cooldown: bool,

    /// Maximum plausible travel speed in metres/second. The paper never
    /// learned Foursquare's exact threshold, only that 1 mile per 5
    /// minutes (~5.4 m/s) was safe and that cross-country hops were
    /// flagged. 40 m/s (~90 mph) is a road-travel upper bound that keeps
    /// both observations true.
    pub max_speed_mps: f64,
    /// Speed checks only apply when the gap since the last valid
    /// check-in is shorter than this; longer gaps could plausibly
    /// include a flight.
    pub speed_rule_max_gap: Duration,
    /// Whether the super-human-speed rule is active.
    pub enable_speed: bool,

    /// Rapid-fire: the check-in count at which the warning fires
    /// (paper: the fourth).
    pub rapid_fire_count: usize,
    /// Rapid-fire: the square side length (paper: 180 m).
    pub rapid_fire_square_m: Meters,
    /// Rapid-fire: max interval between consecutive check-ins for them
    /// to chain into a burst (paper: 1 minute).
    pub rapid_fire_max_interval: Duration,
    /// Whether the rapid-fire rule is active.
    pub enable_rapid_fire: bool,

    /// Account-level branding: after this many flagged check-ins the
    /// account itself is marked a cheater — all subsequent check-ins
    /// are invalidated and held mayorships are stripped. `None`
    /// disables branding (per-check-in judgement only). Models §4.2's
    /// caught cohort, whose check-ins "yielded no rewards" wholesale.
    pub account_flag_threshold: Option<u64>,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            gps_radius_m: 500.0,
            enable_gps: true,
            same_venue_cooldown: Duration::hours(1),
            enable_cooldown: true,
            max_speed_mps: 40.0,
            speed_rule_max_gap: Duration::hours(24),
            enable_speed: true,
            rapid_fire_count: 4,
            rapid_fire_square_m: 180.0,
            rapid_fire_max_interval: Duration::minutes(1),
            enable_rapid_fire: true,
            account_flag_threshold: Some(10),
        }
    }
}

impl DetectorConfig {
    /// The pre-April-2010 service: no verification at all. Check-ins to
    /// anywhere succeed — the era of "Autosquare". (Account branding
    /// keeps its default threshold; with no rules firing it never
    /// triggers.)
    pub fn disabled() -> Self {
        DetectorConfig {
            enable_gps: false,
            enable_cooldown: false,
            enable_speed: false,
            enable_rapid_fire: false,
            ..DetectorConfig::default()
        }
    }

    /// Builder-style override of the branding threshold.
    pub fn branding_threshold(mut self, threshold: Option<u64>) -> Self {
        self.account_flag_threshold = threshold;
        self
    }
}

/// The point values of the §2.1 reward ladder. Every admitted
/// check-in runs the whole ladder — mayorship, badges, points, specials
/// — so points are the only reward tunable.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RewardConfig {
    /// Point values.
    pub points: PointsPolicy,
}

/// The complete admission policy: detectors plus reward point values.
///
/// This is the unit experiment configs serialize to disk. The default
/// reproduces the paper-era Foursquare behaviour bit-for-bit.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// Anti-cheating detector parameters (§2.3).
    pub detectors: DetectorConfig,
    /// Reward-ladder point values (§2.1).
    pub rewards: RewardConfig,
}

impl PolicyConfig {
    /// A policy with the given detector set and default rewards.
    pub fn with_detectors(detectors: DetectorConfig) -> Self {
        PolicyConfig {
            detectors,
            ..PolicyConfig::default()
        }
    }
}

impl From<DetectorConfig> for PolicyConfig {
    fn from(detectors: DetectorConfig) -> Self {
        PolicyConfig::with_detectors(detectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_matches_paper_thresholds() {
        let p = PolicyConfig::default();
        assert_eq!(p.detectors.gps_radius_m, 500.0);
        assert_eq!(p.detectors.same_venue_cooldown, Duration::hours(1));
        assert_eq!(p.detectors.rapid_fire_count, 4);
        assert_eq!(p.detectors.account_flag_threshold, Some(10));
        assert_eq!(p.rewards.points.new_mayor_bonus, 5);
    }

    #[test]
    fn disabled_detectors_keep_thresholds() {
        let d = DetectorConfig::disabled();
        assert!(!d.enable_gps && !d.enable_cooldown && !d.enable_speed && !d.enable_rapid_fire);
        assert_eq!(d.gps_radius_m, 500.0, "thresholds survive the switch-off");
        assert_eq!(d.account_flag_threshold, Some(10));
        assert_eq!(
            d.branding_threshold(None).account_flag_threshold,
            None,
            "builder overrides branding"
        );
    }

    #[test]
    fn policy_from_detectors_keeps_default_rewards() {
        let p = PolicyConfig::from(DetectorConfig::disabled());
        assert!(!p.detectors.enable_gps);
        assert_eq!(p.rewards, RewardConfig::default());
    }
}
