//! "Autosquare": the pre-verification-era auto-check-in tool.
//!
//! §2.2: "the check-ins to any place a user can find in the Foursquare
//! client application (using the suggested list of nearby venues,
//! searching for a venue by name, or browsing and locating the venue on
//! the map) were valid. Software tools are available on the market that
//! can automatically check people into their desired venues, e.g.,
//! 'Autosquare' for Android. The basic cheating method worked in the
//! early days of Foursquare … and obviously does not work now after the
//! introduction of location verification."
//!
//! This module is that tool: given venue names, it searches the public
//! API and checks in on a timer — no GPS involvement at all. Against a
//! server with the cheater code enabled, everything it does is flagged;
//! against [`DetectorConfig::disabled`]
//! (the pre-April-2010 service) it farms rewards freely — both halves
//! are the historical record.
//!
//! [`DetectorConfig::disabled`]: lbsn_server::DetectorConfig::disabled

use std::sync::Arc;

use lbsn_geo::GeoPoint;
use lbsn_server::api::ApiClient;
use lbsn_server::{LbsnServer, UserId};
use lbsn_sim::Duration;

/// Results of one Autosquare run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AutosquareReport {
    /// Venue names that matched nothing.
    pub not_found: Vec<String>,
    /// Check-ins that earned rewards.
    pub rewarded: u64,
    /// Check-ins the service refused to reward.
    pub flagged: u64,
}

/// The auto-check-in tool: searches venues by name, checks in on a
/// fixed interval, reports nothing about location because it has no
/// location to report beyond what it claims.
#[derive(Debug)]
pub struct Autosquare {
    api: ApiClient,
    user: UserId,
    /// Interval between automatic check-ins.
    pub interval: Duration,
    /// The coordinates the tool reports. The historical tool predates
    /// GPS verification and sent none; against a verifying server this
    /// field is what it claims (defaults to wherever the user "is").
    pub claimed_location: GeoPoint,
}

impl Autosquare {
    /// Installs the tool for `user`, claiming `claimed_location` on
    /// every check-in.
    pub fn new(server: Arc<LbsnServer>, user: UserId, claimed_location: GeoPoint) -> Self {
        Autosquare {
            api: ApiClient::new(server),
            user,
            interval: Duration::minutes(30),
            claimed_location,
        }
    }

    /// Auto-checks into every venue matching the given names, spacing
    /// check-ins by `interval`.
    pub fn run(&self, server: &LbsnServer, venue_names: &[&str]) -> AutosquareReport {
        let mut report = AutosquareReport::default();
        for name in venue_names {
            let matches = self.api.search_venues(name, 1);
            let Some(venue) = matches.first() else {
                report.not_found.push((*name).to_string());
                continue;
            };
            match self.api.checkin(self.user, venue.id, self.claimed_location) {
                Ok(outcome) if outcome.rewarded() => report.rewarded += 1,
                Ok(_) => report.flagged += 1,
                Err(_) => report.not_found.push((*name).to_string()),
            }
            server.clock().advance(self.interval);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsn_geo::destination;
    use lbsn_server::{DetectorConfig, ServerConfig, UserSpec, VenueSpec};
    use lbsn_sim::SimClock;

    fn abq() -> GeoPoint {
        GeoPoint::new(35.0844, -106.6504).unwrap()
    }

    fn world(cheater_code: DetectorConfig) -> (Arc<LbsnServer>, UserId) {
        let server = Arc::new(LbsnServer::new(
            SimClock::new(),
            ServerConfig::with_detectors(cheater_code),
        ));
        // Venues all over the country, far from the user's claim.
        for (i, name) in ["Blue Bistro", "Golden Gate Bridge", "Joe's Diner"]
            .iter()
            .enumerate()
        {
            server.register_venue(VenueSpec::new(
                *name,
                destination(abq(), (i * 100) as f64, 500_000.0 * (i + 1) as f64),
            ));
        }
        let user = server.register_user(UserSpec::named("autosquare-user"));
        (server, user)
    }

    #[test]
    fn farms_freely_in_the_early_days() {
        // Pre-April-2010: no location verification at all.
        let (server, user) = world(DetectorConfig::disabled());
        let tool = Autosquare::new(Arc::clone(&server), user, abq());
        let report = tool.run(&server, &["Blue Bistro", "Golden Gate", "Joe's"]);
        assert_eq!(report.rewarded, 3);
        assert_eq!(report.flagged, 0);
        assert!(report.not_found.is_empty());
    }

    #[test]
    fn obviously_does_not_work_now() {
        // The modern service: the same run is flagged wholesale (GPS
        // mismatch on every distant venue).
        let (server, user) = world(DetectorConfig::default());
        let tool = Autosquare::new(Arc::clone(&server), user, abq());
        let report = tool.run(&server, &["Blue Bistro", "Golden Gate", "Joe's"]);
        assert_eq!(report.rewarded, 0);
        assert_eq!(report.flagged, 3);
        // The check-ins still count toward totals, as always.
        assert_eq!(server.user(user).unwrap().total_checkins, 3);
    }

    #[test]
    fn unknown_names_reported() {
        let (server, user) = world(DetectorConfig::disabled());
        let tool = Autosquare::new(Arc::clone(&server), user, abq());
        let report = tool.run(&server, &["No Such Place"]);
        assert_eq!(report.not_found, vec!["No Such Place".to_string()]);
        assert_eq!(report.rewarded + report.flagged, 0);
    }
}
