//! Check-in requests, records, outcomes, and cheat flags.

use std::fmt;

use lbsn_geo::GeoPoint;
use lbsn_obs::MemFootprint;
use lbsn_sim::Timestamp;
use serde::{Deserialize, Serialize};

use crate::rewards::Badge;
use crate::{UserId, VenueId};

/// Where a check-in entered the system.
///
/// §3.1 lists four spoofing vectors; from the server's perspective they
/// collapse into two entry points — the mobile client (vectors 1, 2, 4
/// all end up here with a forged GPS fix) and the public server API
/// (vector 3). The server records the source but, crucially, *cannot
/// tell* a forged client fix from a real one — that asymmetry is the
/// paper's root-cause finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CheckinSource {
    /// The official client app, reporting the device's GPS fix.
    MobileApp,
    /// The public developer API (spoofing vector 3).
    ServerApi,
}

/// A check-in submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckinRequest {
    /// Who is checking in.
    pub user: UserId,
    /// The claimed venue.
    pub venue: VenueId,
    /// The device's reported GPS position. Honest clients report where
    /// they are; cheaters report wherever they like.
    pub reported_location: GeoPoint,
    /// Entry point.
    pub source: CheckinSource,
}

/// Out-of-band evidence a verified deployment captures alongside a
/// check-in, for the §5.1 verifier stages to judge.
///
/// Unlike [`CheckinRequest::reported_location`], none of these fields
/// come from the client's say-so: the physical location is simulation
/// ground truth (what a WiFi AP proximity check would physically
/// observe), and the IP origin is what the transport layer sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckinEvidence {
    /// Where the submitting device physically is.
    pub physical_location: GeoPoint,
    /// Where the submission's source IP geolocates to. For cellular
    /// clients this is the carrier hub, which may sit far from the
    /// device — the known blind spot of IP-based verification (§5.1).
    pub ip_location: GeoPoint,
    /// Whether the submission arrived over a cellular data connection
    /// (IP geolocates to the carrier hub, not the device).
    pub cellular: bool,
}

impl CheckinEvidence {
    /// Evidence for a device on a local (non-cellular) connection whose
    /// IP geolocates to where it physically is.
    pub fn local(location: GeoPoint) -> Self {
        CheckinEvidence {
            physical_location: location,
            ip_location: location,
            cellular: false,
        }
    }

    /// Evidence for a device on a cellular connection: physically at
    /// `location`, IP geolocating to `carrier_hub`.
    pub fn cellular(location: GeoPoint, carrier_hub: GeoPoint) -> Self {
        CheckinEvidence {
            physical_location: location,
            ip_location: carrier_hub,
            cellular: true,
        }
    }
}

/// Why the cheater code (or GPS verification) invalidated a check-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CheatFlag {
    /// The reported GPS position is too far from the claimed venue —
    /// the basic location verification of §2.3.
    GpsMismatch,
    /// Same venue again within the cooldown window ("we found a user
    /// cannot check in to the same venue again within one hour").
    TooFrequent,
    /// Implied travel speed from the previous check-in is impossible
    /// ("super human speed").
    SuperhumanSpeed,
    /// Fourth-or-later check-in inside a 180 m × 180 m square at
    /// ~1-minute intervals ("rapid-fire check-ins").
    RapidFire,
    /// The account itself has been identified as a cheater: once a user
    /// accumulates enough flagged check-ins, everything they submit is
    /// invalidated — §4.2's caught cohort, whose "check-ins yielded no
    /// rewards" wholesale.
    AccountFlagged,
}

impl CheatFlag {
    /// Stable snake_case slug for reason composition (audit plane) and
    /// the `server.checkin.flag.*` metric suffixes.
    pub fn slug(self) -> &'static str {
        match self {
            CheatFlag::GpsMismatch => "gps_mismatch",
            CheatFlag::TooFrequent => "too_frequent",
            CheatFlag::SuperhumanSpeed => "superhuman_speed",
            CheatFlag::RapidFire => "rapid_fire",
            CheatFlag::AccountFlagged => "account_flagged",
        }
    }
}

impl fmt::Display for CheatFlag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CheatFlag::GpsMismatch => "GPS position does not match claimed venue",
            CheatFlag::TooFrequent => "same venue again within the cooldown",
            CheatFlag::SuperhumanSpeed => "super human speed",
            CheatFlag::RapidFire => "rapid-fire check-ins",
            CheatFlag::AccountFlagged => "account identified as a location cheater",
        };
        f.write_str(s)
    }
}

/// A stored check-in, as kept in a user's history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckinRecord {
    /// Venue checked into.
    pub venue: VenueId,
    /// When.
    pub at: Timestamp,
    /// The GPS position the client reported.
    pub location: GeoPoint,
    /// Entry point.
    pub source: CheckinSource,
    /// Whether the check-in passed verification and earned rewards.
    pub rewarded: bool,
    /// Flags raised, empty iff `rewarded`.
    pub flags: Vec<CheatFlag>,
}

// Fieldless enums carried inline in records: no owned heap.
lbsn_obs::mem_footprint_inline!(CheckinSource, CheatFlag);

impl MemFootprint for CheckinRecord {
    fn heap_bytes(&self) -> usize {
        // Exhaustive destructure so the `mem-footprint-field-missing`
        // lint sees every field; only `flags` owns heap.
        let CheckinRecord {
            venue: _,
            at: _,
            location: _,
            source: _,
            rewarded: _,
            flags,
        } = self;
        flags.heap_bytes()
    }
}

/// The server's response to a check-in.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckinOutcome {
    /// Who checked in.
    pub user: UserId,
    /// Where.
    pub venue: VenueId,
    /// When the server processed it.
    pub at: Timestamp,
    /// Points awarded (0 if flagged).
    pub points: u64,
    /// Badges newly unlocked by this check-in.
    pub new_badges: Vec<Badge>,
    /// Whether this check-in made (or kept) the user mayor of the venue.
    pub is_mayor: bool,
    /// Whether mayorship changed hands to this user on this check-in.
    pub became_mayor: bool,
    /// The special unlocked by this check-in, if any.
    pub special_unlocked: Option<String>,
    /// Cheater-code flags raised. Empty means the check-in was rewarded.
    pub flags: Vec<CheatFlag>,
}

impl CheckinOutcome {
    /// Whether the check-in passed all verification and earned rewards.
    ///
    /// Per the paper's observed policy, a non-rewarded check-in still
    /// increments the user's total check-in count.
    pub fn rewarded(&self) -> bool {
        self.flags.is_empty()
    }
}

/// What the full admission pipeline decided about a check-in.
///
/// A check-in rejected by a pre-admission verifier stage is *dropped*,
/// not recorded — unlike a cheater-code flag, which records the
/// check-in and withholds rewards. This is the distinction §5.1 draws
/// between verification at submission time and after-the-fact
/// detection.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionOutcome {
    /// The check-in reached the detector/record/reward stages; the
    /// outcome says whether it was rewarded or flagged.
    Processed(CheckinOutcome),
    /// A verifier stage rejected the check-in before it was recorded.
    VerifierRejected {
        /// Name of the verifier stage that rejected.
        verifier: &'static str,
    },
}

impl AdmissionOutcome {
    /// Whether the check-in was admitted *and* earned rewards.
    pub fn rewarded(&self) -> bool {
        match self {
            AdmissionOutcome::Processed(o) => o.rewarded(),
            AdmissionOutcome::VerifierRejected { .. } => false,
        }
    }

    /// The processed outcome, if the check-in got past the verifiers.
    pub fn outcome(&self) -> Option<&CheckinOutcome> {
        match self {
            AdmissionOutcome::Processed(o) => Some(o),
            AdmissionOutcome::VerifierRejected { .. } => None,
        }
    }
}

/// Errors for malformed check-in submissions.
///
/// Note the asymmetry with [`CheatFlag`]: an unknown user or venue is a
/// *request error* (nothing is recorded), while a cheat flag records the
/// check-in but withholds rewards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckinError {
    /// No such user.
    UnknownUser(UserId),
    /// No such venue.
    UnknownVenue(VenueId),
    /// A verifier stage rejected the check-in before it was recorded
    /// (carries the stage name). Only reachable on servers built with
    /// verifier stages; surfaced through the plain
    /// [`check_in`](crate::LbsnServer::check_in) API, which has no way
    /// to express a dropped-not-recorded submission as an outcome —
    /// use [`check_in_with_evidence`](crate::LbsnServer::check_in_with_evidence)
    /// to observe the rejection as an [`AdmissionOutcome`] instead.
    VerifierRejected(&'static str),
    /// Shed by the request frontend at the queue high-water mark —
    /// never admitted, never recorded. `retry_after` estimates when the
    /// queue will have drained enough to accept a resubmission.
    Shed {
        /// Drain-rate-based resubmission hint.
        retry_after: std::time::Duration,
    },
    /// The request-frontend worker admitting this check-in's batch
    /// panicked before it returned the batch's decisions. The check-in
    /// **may or may not have been recorded**: the unwind can come before,
    /// during or after its own admission, and every decision of the
    /// batch is lost with it.
    WorkerPanicked,
}

impl fmt::Display for CheckinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckinError::UnknownUser(u) => write!(f, "unknown user {u}"),
            CheckinError::UnknownVenue(v) => write!(f, "unknown venue {v}"),
            CheckinError::VerifierRejected(stage) => {
                write!(f, "rejected by location verifier {stage}")
            }
            CheckinError::Shed { retry_after } => {
                write!(
                    f,
                    "shed at queue high-water mark, retry after {retry_after:?}"
                )
            }
            CheckinError::WorkerPanicked => write!(
                f,
                "admission worker panicked mid-batch; the check-in may or may not be recorded"
            ),
        }
    }
}

impl std::error::Error for CheckinError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_rewarded_iff_no_flags() {
        let base = CheckinOutcome {
            user: UserId(1),
            venue: VenueId(1),
            at: Timestamp(0),
            points: 5,
            new_badges: vec![],
            is_mayor: false,
            became_mayor: false,
            special_unlocked: None,
            flags: vec![],
        };
        assert!(base.rewarded());
        let flagged = CheckinOutcome {
            flags: vec![CheatFlag::SuperhumanSpeed],
            ..base
        };
        assert!(!flagged.rewarded());
    }

    #[test]
    fn flag_display() {
        assert_eq!(CheatFlag::SuperhumanSpeed.to_string(), "super human speed");
        assert_eq!(CheatFlag::RapidFire.to_string(), "rapid-fire check-ins");
    }

    #[test]
    fn error_display() {
        assert_eq!(
            CheckinError::UnknownUser(UserId(5)).to_string(),
            "unknown user u5"
        );
        assert_eq!(
            CheckinError::UnknownVenue(VenueId(9)).to_string(),
            "unknown venue v9"
        );
    }
}
