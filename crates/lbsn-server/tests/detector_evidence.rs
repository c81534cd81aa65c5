//! Pins the evidence each §2.3 detector leaves in the decision audit
//! plane: for one check-in that trips a detector and one that passes
//! it, the decision record's whole verdict list — detector names in
//! chain order, whether each fired, the flag slug, and the observed
//! value against the threshold with its unit. The per-detector
//! latency (`elapsed_ns`) is the one field left free.

use std::sync::Arc;

use lbsn_geo::{destination, distance, implied_speed_mps, GeoPoint};
use lbsn_obs::{AuditConfig, Registry};
use lbsn_server::{
    CheckinRequest, CheckinSource, LbsnServer, ServerConfig, UserId, UserSpec, VenueId, VenueSpec,
};
use lbsn_sim::{Duration, SimClock};

/// One verdict row: detector, fired, flag slug, observed, threshold,
/// unit.
type Row = (&'static str, bool, &'static str, f64, f64, &'static str);

/// A [`Row`] as read back from a decision record.
type Recorded = (String, bool, String, f64, f64, String);

fn rows(expected: &[Row]) -> Vec<Recorded> {
    expected
        .iter()
        .map(|&(detector, fired, flag, observed, threshold, unit)| {
            (
                detector.to_owned(),
                fired,
                flag.to_owned(),
                observed,
                threshold,
                unit.to_owned(),
            )
        })
        .collect()
}

/// A default-policy server whose audit plane keeps every decision.
struct Bed {
    server: LbsnServer,
    registry: Arc<Registry>,
}

impl Bed {
    fn new() -> Self {
        let registry = Arc::new(Registry::new());
        registry.audit_with_config(AuditConfig {
            capacity: 1 << 12,
            stripes: 1,
            sample_every: 1,
        });
        let server = LbsnServer::with_registry(
            SimClock::new(),
            ServerConfig::default(),
            Arc::clone(&registry),
        );
        Bed { server, registry }
    }

    fn venue(&self, at: GeoPoint) -> VenueId {
        self.server.register_venue(VenueSpec::new("V", at))
    }

    fn user(&self) -> UserId {
        self.server.register_user(UserSpec::anonymous())
    }

    fn advance(&self, secs: u64) {
        self.server.clock().advance(Duration::secs(secs));
    }

    /// Checks `user` in at `venue` from `fix` and returns the verdict
    /// list of the decision record it produced.
    fn check_in(&self, user: UserId, venue: VenueId, fix: GeoPoint) -> Vec<Recorded> {
        self.server
            .check_in(&CheckinRequest {
                user,
                venue,
                reported_location: fix,
                source: CheckinSource::MobileApp,
            })
            .expect("known user and venue");
        let record = self
            .registry
            .audit()
            .decisions()
            .pop()
            .expect("every decision is kept");
        record
            .detectors
            .iter()
            .map(|v| {
                (
                    v.detector.clone(),
                    v.fired,
                    v.flag.clone(),
                    v.observed,
                    v.threshold,
                    v.unit.clone(),
                )
            })
            .collect()
    }
}

fn abq() -> GeoPoint {
    GeoPoint::new(35.0844, -106.6504).unwrap()
}

fn sf() -> GeoPoint {
    GeoPoint::new(37.7749, -122.4194).unwrap()
}

const UNBRANDED: Row = ("branded-account", false, "", 0.0, 1.0, "branded");

fn gps(observed: f64, flag: &'static str) -> Row {
    (
        "gps-proximity",
        !flag.is_empty(),
        flag,
        observed,
        500.0,
        "m",
    )
}

fn cooldown(observed: f64, flag: &'static str) -> Row {
    (
        "frequent-checkins",
        !flag.is_empty(),
        flag,
        observed,
        3600.0,
        "s",
    )
}

/// The cooldown row when no rewarded same-venue check-in lies inside
/// the hour: the observed gap reads as the threshold itself.
const NO_COOLDOWN: Row = ("frequent-checkins", false, "", 3600.0, 3600.0, "s");

fn speed(observed: f64, flag: &'static str) -> Row {
    (
        "superhuman-speed",
        !flag.is_empty(),
        flag,
        observed,
        40.0,
        "mps",
    )
}

fn burst(observed: f64, flag: &'static str) -> Row {
    (
        "rapid-fire",
        !flag.is_empty(),
        flag,
        observed,
        4.0,
        "checkins",
    )
}

#[test]
fn gps_proximity_evidence() {
    let bed = Bed::new();
    let venue = bed.venue(abq());

    let near = destination(abq(), 90.0, 300.0);
    assert_eq!(
        bed.check_in(bed.user(), venue, near),
        rows(&[
            UNBRANDED,
            gps(distance(near, abq()), ""),
            NO_COOLDOWN,
            speed(0.0, ""),
            burst(1.0, ""),
        ])
    );

    let far = destination(abq(), 90.0, 2_000.0);
    assert_eq!(
        bed.check_in(bed.user(), venue, far),
        rows(&[
            UNBRANDED,
            gps(distance(far, abq()), "gps_mismatch"),
            NO_COOLDOWN,
            speed(0.0, ""),
            burst(1.0, ""),
        ])
    );
}

#[test]
fn frequent_checkins_evidence() {
    let bed = Bed::new();
    let venue = bed.venue(abq());

    let again = bed.user();
    bed.check_in(again, venue, abq());
    bed.advance(1_800);
    assert_eq!(
        bed.check_in(again, venue, abq()),
        rows(&[
            UNBRANDED,
            gps(0.0, ""),
            cooldown(1_800.0, "too_frequent"),
            speed(0.0, ""),
            burst(1.0, ""),
        ])
    );

    let later = bed.user();
    bed.check_in(later, venue, abq());
    bed.advance(3_700);
    assert_eq!(
        bed.check_in(later, venue, abq()),
        rows(&[
            UNBRANDED,
            gps(0.0, ""),
            NO_COOLDOWN,
            speed(0.0, ""),
            burst(1.0, ""),
        ])
    );
}

#[test]
fn superhuman_speed_evidence() {
    let bed = Bed::new();
    let home = bed.venue(abq());
    let coast = bed.venue(sf());
    let nearby_at = destination(abq(), 0.0, 5_000.0);
    let nearby = bed.venue(nearby_at);

    let teleporter = bed.user();
    bed.check_in(teleporter, home, abq());
    bed.advance(600);
    assert_eq!(
        bed.check_in(teleporter, coast, sf()),
        rows(&[
            UNBRANDED,
            gps(0.0, ""),
            NO_COOLDOWN,
            speed(implied_speed_mps(abq(), sf(), 600.0), "superhuman_speed"),
            burst(1.0, ""),
        ])
    );

    let motorist = bed.user();
    bed.check_in(motorist, home, abq());
    bed.advance(600);
    assert_eq!(
        bed.check_in(motorist, nearby, nearby_at),
        rows(&[
            UNBRANDED,
            gps(0.0, ""),
            NO_COOLDOWN,
            speed(implied_speed_mps(abq(), nearby_at, 600.0), ""),
            burst(1.0, ""),
        ])
    );
}

#[test]
fn rapid_fire_evidence() {
    let bed = Bed::new();
    let spots: Vec<GeoPoint> = (0..4)
        .map(|i| destination(abq(), 90.0, 50.0 * i as f64))
        .collect();
    let venues: Vec<VenueId> = spots.iter().map(|&p| bed.venue(p)).collect();

    // The third check-in of a tight burst passes…
    let user = bed.user();
    bed.check_in(user, venues[0], spots[0]);
    bed.advance(45);
    bed.check_in(user, venues[1], spots[1]);
    bed.advance(45);
    assert_eq!(
        bed.check_in(user, venues[2], spots[2]),
        rows(&[
            UNBRANDED,
            gps(0.0, ""),
            NO_COOLDOWN,
            speed(implied_speed_mps(spots[1], spots[2], 45.0), ""),
            burst(3.0, ""),
        ])
    );
    // …the fourth, inside 180 m × 180 m at 45 s spacing, trips it.
    bed.advance(45);
    assert_eq!(
        bed.check_in(user, venues[3], spots[3]),
        rows(&[
            UNBRANDED,
            gps(0.0, ""),
            NO_COOLDOWN,
            speed(implied_speed_mps(spots[2], spots[3], 45.0), ""),
            burst(4.0, "rapid_fire"),
        ])
    );
}

#[test]
fn branded_account_evidence() {
    let bed = Bed::new();
    let venue = bed.venue(sf());

    // An unbranded account's first check-in passes every detector.
    assert_eq!(
        bed.check_in(bed.user(), venue, sf()),
        rows(&[
            UNBRANDED,
            gps(0.0, ""),
            NO_COOLDOWN,
            speed(0.0, ""),
            burst(1.0, ""),
        ])
    );

    // Ten spoofed fixes two hours apart: the tenth flag brands.
    let cheater = bed.user();
    for _ in 0..10 {
        bed.check_in(cheater, venue, abq());
        bed.advance(7_200);
    }
    // Branding is terminal: even an honest fix reports only it.
    assert_eq!(
        bed.check_in(cheater, venue, sf()),
        rows(&[(
            "branded-account",
            true,
            "account_flagged",
            1.0,
            1.0,
            "branded"
        )])
    );
}
