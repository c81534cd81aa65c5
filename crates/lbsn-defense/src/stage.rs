//! The verifier stack as an admission-pipeline stage: the §5.1
//! deployment ("the Wi-Fi router sends the verification information to
//! the corresponding LBS server"), the §6.2.2 future work, built.
//!
//! [`VerifierStage`] adapts a [`VerifierStack`] to the server's own
//! [`CheckinVerifier`] stage trait, so a verified deployment is built as
//!
//! ```
//! use std::sync::Arc;
//! use lbsn_defense::{RouterRegistry, VerifierStage, VerifierStack, WifiVerifier};
//! use lbsn_server::{LbsnServer, ServerConfig};
//! use lbsn_sim::SimClock;
//!
//! let routers = Arc::new(RouterRegistry::new());
//! let stage = VerifierStage::new(
//!     VerifierStack::new().push(Box::new(WifiVerifier::narrowed(30.0))),
//!     Arc::clone(&routers),
//! );
//! let server = LbsnServer::with_pipeline(
//!     SimClock::new(),
//!     ServerConfig::default(),
//!     Arc::new(lbsn_obs::Registry::new()),
//!     vec![Box::new(stage)],
//! );
//! ```
//!
//! and *every* check-in — whichever API it enters through — passes the
//! verify stage first.

use std::collections::HashSet;
use std::sync::Arc;

use lbsn_server::{CheckinVerifier, VenueId, VerifierVerdict, VerifyContext};
use parking_lot::RwLock;

use crate::stack::VerifierStack;
use crate::verify::{IpOrigin, Verdict, VerificationContext};

/// The set of venues that registered a verification router ("the Wi-Fi
/// router must be registered to the LBS server", §5.1).
///
/// Shared between the installed [`VerifierStage`] (which reads it on
/// every check-in) and the deployment code that keeps enrolling venues
/// after the server is built — hence the interior lock and the
/// `Arc<RouterRegistry>` handle.
pub struct RouterRegistry {
    routers: RwLock<HashSet<VenueId>>,
}

impl RouterRegistry {
    /// An empty registry: no venue is equipped yet.
    pub fn new() -> Self {
        RouterRegistry {
            routers: RwLock::new(HashSet::new()),
        }
    }

    /// Registers a venue's verification router.
    pub fn register(&self, venue: VenueId) {
        self.routers.write().insert(venue);
    }

    /// Whether a venue has a registered router.
    pub fn has_router(&self, venue: VenueId) -> bool {
        self.routers.read().contains(&venue)
    }

    /// Number of equipped venues.
    pub fn len(&self) -> usize {
        self.routers.read().len()
    }

    /// Whether no venue is equipped.
    pub fn is_empty(&self) -> bool {
        self.routers.read().is_empty()
    }
}

impl Default for RouterRegistry {
    fn default() -> Self {
        RouterRegistry::new()
    }
}

impl std::fmt::Debug for RouterRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterRegistry")
            .field("venues", &self.len())
            .finish()
    }
}

/// Adapts a [`VerifierStack`] into the server's pre-admission verify
/// stage.
///
/// Verdict mapping follows the availability-first posture documented on
/// [`VerifierStack::verify`]: `Reject` drops the check-in, `Accept`
/// admits it, and `Unverifiable` abstains so the detector stage judges
/// it like an unverified deployment would. A check-in submitted with no
/// transport evidence at all (the plain `check_in` path) also abstains
/// — the stage never punishes what it cannot judge.
pub struct VerifierStage {
    stack: VerifierStack,
    routers: Arc<RouterRegistry>,
}

impl VerifierStage {
    /// Wraps `stack`, consulting `routers` for per-venue equipment.
    pub fn new(stack: VerifierStack, routers: Arc<RouterRegistry>) -> Self {
        VerifierStage { stack, routers }
    }

    /// The shared router registry this stage consults.
    pub fn routers(&self) -> &Arc<RouterRegistry> {
        &self.routers
    }
}

impl std::fmt::Debug for VerifierStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifierStage")
            .field("stack", &self.stack)
            .field("routers", &self.routers)
            .finish()
    }
}

impl CheckinVerifier for VerifierStage {
    fn name(&self) -> &'static str {
        "verifier-stack"
    }

    fn verify(&self, ctx: &VerifyContext<'_>) -> (VerifierVerdict, &'static str) {
        let Some(evidence) = ctx.evidence else {
            return (VerifierVerdict::Abstain, "");
        };
        let ip_origin = if evidence.cellular {
            IpOrigin::CarrierHub(evidence.ip_location)
        } else {
            IpOrigin::Local(evidence.ip_location)
        };
        let vctx = VerificationContext {
            claimed: ctx.request.reported_location,
            venue: ctx.venue_location,
            true_location: evidence.physical_location,
            ip_origin,
            venue_has_router: self.routers.has_router(ctx.request.venue),
        };
        let (verdict, decided_by) = self.stack.verify_explained(&vctx);
        let mapped = match verdict {
            Verdict::Reject => VerifierVerdict::Reject,
            Verdict::Accept => VerifierVerdict::Admit,
            Verdict::Unverifiable => VerifierVerdict::Abstain,
        };
        (mapped, decided_by)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WifiVerifier;
    use lbsn_geo::GeoPoint;
    use lbsn_server::{CheckinEvidence, CheckinRequest, CheckinSource, UserId};
    use lbsn_sim::Timestamp;

    fn wharf() -> GeoPoint {
        GeoPoint::new(37.8080, -122.4177).unwrap()
    }

    fn abq() -> GeoPoint {
        GeoPoint::new(35.0844, -106.6504).unwrap()
    }

    fn stage() -> VerifierStage {
        let routers = Arc::new(RouterRegistry::new());
        routers.register(VenueId(1));
        VerifierStage::new(
            VerifierStack::new().push(Box::new(WifiVerifier::narrowed(30.0))),
            routers,
        )
    }

    fn ctx<'a>(
        request: &'a CheckinRequest,
        evidence: Option<&'a CheckinEvidence>,
    ) -> VerifyContext<'a> {
        VerifyContext {
            request,
            venue_location: wharf(),
            evidence,
            now: Timestamp(0),
        }
    }

    fn request(venue: VenueId) -> CheckinRequest {
        CheckinRequest {
            user: UserId(1),
            venue,
            reported_location: wharf(),
            source: CheckinSource::MobileApp,
        }
    }

    #[test]
    fn missing_evidence_abstains() {
        let req = request(VenueId(1));
        assert_eq!(
            stage().verify(&ctx(&req, None)).0,
            VerifierVerdict::Abstain,
            "the plain check_in path must not be punished"
        );
    }

    #[test]
    fn present_device_admitted_remote_spoof_rejected() {
        let s = stage();
        let req = request(VenueId(1));
        let honest = CheckinEvidence::local(wharf());
        assert_eq!(
            s.verify(&ctx(&req, Some(&honest))).0,
            VerifierVerdict::Admit
        );
        let spoof = CheckinEvidence::local(abq());
        assert_eq!(
            s.verify(&ctx(&req, Some(&spoof))).0,
            VerifierVerdict::Reject
        );
    }

    #[test]
    fn unequipped_venue_abstains() {
        let s = stage();
        let req = request(VenueId(2)); // no router registered
        let spoof = CheckinEvidence::local(abq());
        assert_eq!(
            s.verify(&ctx(&req, Some(&spoof))).0,
            VerifierVerdict::Abstain,
            "partial deployment only protects participating venues"
        );
    }

    #[test]
    fn routers_registered_after_install_take_effect() {
        let s = stage();
        let req = request(VenueId(7));
        let spoof = CheckinEvidence::local(abq());
        assert_eq!(
            s.verify(&ctx(&req, Some(&spoof))).0,
            VerifierVerdict::Abstain
        );
        s.routers().register(VenueId(7));
        assert_eq!(
            s.verify(&ctx(&req, Some(&spoof))).0,
            VerifierVerdict::Reject
        );
    }
}
