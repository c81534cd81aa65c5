//! The staged check-in **admission pipeline**: verifiers → detectors →
//! record → the §2.1 reward ladder.
//!
//! The paper's core claim (§2.3, §5.1) is about *which admission rules
//! run on a check-in* — Foursquare's concealed cheater code, and the
//! proposed location-verification defenses. The cheater code is the
//! paper's fixed set of rules: one detector chain, whose thresholds
//! and on/off switches come from a serde-loadable [`PolicyConfig`], so
//! rule-ablation sweeps run from JSON alone. §5.1-style location
//! verifiers slot in as [`CheckinVerifier`] stages, so a verified
//! deployment is a different pipeline *configuration*, not a different
//! code path. The reward ladder is the paper's fixed behaviour too: one
//! plain function runs it, and the policy sets only its point values.
//!
//! # Stage order
//!
//! 1. **Verify** (only when verifiers are installed): each
//!    [`CheckinVerifier`] judges the request against out-of-band
//!    [`CheckinEvidence`] *before any shard lock
//!    is taken* — a rejected check-in is never recorded, matching the
//!    §5.1 premise that verification happens at submission time.
//! 2. **Detect**: every enabled detector of the [`crate::cheatercode`]
//!    chain runs in order under the check-in lock set with a read-only
//!    [`RuleContext`]. The terminal branded-account detector
//!    short-circuits the rest.
//! 3. **Record** (fixed): the check-in is appended to history whether or
//!    not it was flagged, and flag escalation (account branding) runs.
//! 4. **Reward** (fixed): mayorship, then badges, then points, then
//!    specials, matching the §2.1 ladder.
//!
//! # What each stage may touch
//!
//! Detectors get immutable borrows of the submitting user and the
//! claimed venue only. The reward ladder gets mutable borrows of the
//! submitting user, the incumbent mayor and the claimed venue — handles
//! the admission loop looked up once under the held locks — plus the
//! append-only category table (a leaf lock, per rule 4 of the locking
//! discipline documented on the `shard` module). Verifiers run before
//! locks exist and see only the request, the venue's registered
//! location, and the evidence.

use lbsn_geo::GeoPoint;
use lbsn_obs::{Counter, DecisionBuilder, QuantileSketch};
use lbsn_sim::Timestamp;

use crate::cheatercode::{Detector, RuleContext};
use crate::checkin::{CheatFlag, CheckinEvidence, CheckinRequest};
use crate::metrics::{ServerMetrics, Stopwatch};
use crate::policy::{DetectorConfig, PolicyConfig};
use crate::rewards::{decide_mayor, evaluate_badges, Badge, PointsPolicy, VenueLookup};
use crate::shard::LeafLock;
use crate::user::User;
use crate::venue::{SpecialKind, Venue, VenueCategory};
use crate::VenueId;

/// Out-of-band verdict from a [`CheckinVerifier`] stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifierVerdict {
    /// Positive evidence the user is where they claim.
    Admit,
    /// Positive evidence of location cheating: drop the check-in.
    Reject,
    /// No judgement (no evidence, unequipped venue, …): fall through to
    /// the detector stage, like an unverified deployment would.
    Abstain,
}

/// What a verifier stage may inspect. Verifiers run *before* the
/// check-in lock set is acquired, so no entity state appears here —
/// only the request, the venue's immutable registered location, and
/// whatever out-of-band evidence the transport captured.
pub struct VerifyContext<'a> {
    /// The raw request.
    pub request: &'a CheckinRequest,
    /// Registered location of the claimed venue.
    pub venue_location: GeoPoint,
    /// Transport-level evidence, when the deployment captures any.
    /// `None` on the plain [`LbsnServer::check_in`](crate::LbsnServer::check_in) path.
    pub evidence: Option<&'a CheckinEvidence>,
    /// Server time of the submission.
    pub now: Timestamp,
}

/// A pre-admission location-verification stage (§5.1): judges a
/// check-in from transport evidence before it is recorded.
///
/// `lbsn-defense` adapts its `VerifierStack` into this trait, making a
/// verified deployment one [`LbsnServer::with_pipeline`](crate::LbsnServer::with_pipeline)
/// call instead of an external wrapper service.
pub trait CheckinVerifier: Send + Sync {
    /// Stable stage name, used for the per-verifier rejection counter.
    fn name(&self) -> &'static str;
    /// Judge a check-in and name the deciding inner mechanism (e.g. the
    /// rejecting verifier inside a composite stack) for the decision
    /// audit plane; `""` when the stage has no inner evidence.
    fn verify(&self, ctx: &VerifyContext<'_>) -> (VerifierVerdict, &'static str);
}

/// What the reward ladder produced, folded into the
/// [`CheckinOutcome`](crate::CheckinOutcome) by the server.
pub(crate) struct RewardOutcome {
    pub points: u64,
    pub new_badges: Vec<Badge>,
    pub is_mayor: bool,
    pub became_mayor: bool,
    pub special_unlocked: Option<String>,
}

/// Category lookup backed by the server's append-only category table.
struct CategoryTable<'a>(&'a [VenueCategory]);

impl VenueLookup for CategoryTable<'_> {
    fn category_of(&self, venue: VenueId) -> Option<VenueCategory> {
        let idx = venue.value().checked_sub(1)? as usize;
        self.0.get(idx).copied()
    }
}

/// Runs the §2.1 reward ladder over a check-in that passed every
/// detector, in ladder order: the 60-day mayorship contest, then badges
/// on the post-contest state, then points (new-mayor bonus included),
/// then venue specials — the "real world rewards" tier and §6's
/// free-goods damage vector.
///
/// `user` is the submitting user, the check-in already in their
/// history; `venue` is the claimed venue, the check-in already counted
/// on it. `incumbent` is the venue's mayor when that is someone else:
/// the admission loop holds the incumbent's shard, so a seated mayor is
/// always passed. `categories` is the append-only category table, read
/// as a leaf lock (rule 4 of the `shard` module) only while badges are
/// evaluated.
#[allow(clippy::too_many_arguments)]
pub(crate) fn reward(
    policy: &PointsPolicy,
    request: &CheckinRequest,
    now: Timestamp,
    first_visit: bool,
    first_of_day: bool,
    user: &mut User,
    incumbent: Option<&mut User>,
    venue: &mut Venue,
    categories: &LeafLock<Vec<VenueCategory>>,
) -> RewardOutcome {
    // Most distinct check-in days in the trailing window takes the
    // seat; ties keep the incumbent.
    let became_mayor = decide_mayor(venue, user, incumbent.as_deref(), now);
    if became_mayor {
        if let Some(old) = incumbent {
            old.mayorships.remove(&request.venue);
        }
        venue.mayor = Some(request.user);
        user.mayorships.insert(request.venue);
    }
    let is_mayor = venue.mayor == Some(request.user);

    let new_badges = {
        let categories = categories.read();
        evaluate_badges(user, venue, now, &CategoryTable(&categories))
    };
    for &badge in &new_badges {
        user.badges.insert(badge);
    }

    let points = policy.award(first_visit, first_of_day, became_mayor);
    user.points += points;

    let special_unlocked = venue.special.as_ref().and_then(|sp| match sp.kind {
        SpecialKind::MayorOnly if is_mayor => Some(sp.description.clone()),
        SpecialKind::MayorOnly => None,
        SpecialKind::EveryCheckin => Some(sp.description.clone()),
        SpecialKind::Loyalty { visits } => {
            // Lifetime valid visits here, counted newest first up to
            // `visits`: a long history past the threshold costs no more.
            let count = user
                .rewarded_since(Timestamp(0))
                .filter(|r| r.venue == request.venue)
                .take(visits as usize)
                .count();
            (count as u32 >= visits).then(|| sp.description.clone())
        }
    });

    RewardOutcome {
        points,
        new_badges,
        is_mayor,
        became_mayor,
        special_unlocked,
    }
}

/// A verifier stage with its pre-resolved rejection counter.
struct InstalledVerifier {
    verifier: Box<dyn CheckinVerifier>,
    /// `server.checkin.verifier.{name}.rejected`
    rejected: Counter,
}

/// The assembled stage chain a server runs every check-in through.
///
/// Built from a [`PolicyConfig`] at server construction
/// ([`LbsnServer::with_pipeline`](crate::LbsnServer::with_pipeline));
/// per-stage metric handles are resolved once here so the hot path
/// never touches the registry's name map.
pub struct AdmissionPipeline {
    /// The thresholds every detector judges against.
    config: DetectorConfig,
    /// The enabled detectors in [`Detector::CHAIN`] order, each with its
    /// `server.checkin.detector.{name}.rejected` counter and
    /// `.latency` sketch.
    detectors: Vec<(Detector, Counter, QuantileSketch)>,
    verifiers: Vec<InstalledVerifier>,
}

impl std::fmt::Debug for AdmissionPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPipeline")
            .field("detectors", &self.detector_names())
            .field("verifiers", &self.verifier_names())
            .finish()
    }
}

impl AdmissionPipeline {
    /// Assembles the stage chain: the detectors `policy` enables, in
    /// [`Detector::CHAIN`] order (branded-account first, terminal), plus
    /// the given verifier stages up front.
    pub(crate) fn from_policy(
        policy: &PolicyConfig,
        metrics: &ServerMetrics,
        verifiers: Vec<Box<dyn CheckinVerifier>>,
    ) -> Self {
        AdmissionPipeline {
            config: policy.detectors.clone(),
            detectors: Detector::CHAIN
                .into_iter()
                .filter(|d| d.enabled(&policy.detectors))
                .map(|d| {
                    let (rejected, latency) = metrics.detector_metrics(d.name());
                    (d, rejected, latency)
                })
                .collect(),
            verifiers: verifiers
                .into_iter()
                .map(|verifier| {
                    let rejected = metrics.verifier_rejected_counter(verifier.name());
                    InstalledVerifier { verifier, rejected }
                })
                .collect(),
        }
    }

    /// Names of the installed detectors, in evaluation order.
    pub fn detector_names(&self) -> Vec<&'static str> {
        self.detectors.iter().map(|(d, ..)| d.name()).collect()
    }

    /// Names of the installed verifier stages, in evaluation order.
    pub fn verifier_names(&self) -> Vec<&'static str> {
        self.verifiers.iter().map(|v| v.verifier.name()).collect()
    }

    /// Whether any verifier stage is installed (the plain deployment
    /// skips the verify stage entirely — zero added work).
    pub fn has_verifiers(&self) -> bool {
        !self.verifiers.is_empty()
    }

    /// Runs the verifier stages in order; the first [`Reject`]
    /// short-circuits and its stage name is returned. Every consulted
    /// stage's vote (with inner evidence, when the stage reports any)
    /// lands on the decision builder.
    ///
    /// [`Reject`]: VerifierVerdict::Reject
    pub(crate) fn verify(
        &self,
        ctx: &VerifyContext<'_>,
        decision: &mut DecisionBuilder,
    ) -> Option<&'static str> {
        for v in &self.verifiers {
            let (verdict, evidence) = v.verifier.verify(ctx);
            let vote = match verdict {
                VerifierVerdict::Admit => "admit",
                VerifierVerdict::Reject => "reject",
                VerifierVerdict::Abstain => "abstain",
            };
            decision.vote(v.verifier.name(), vote, evidence);
            if verdict == VerifierVerdict::Reject {
                v.rejected.inc();
                return Some(v.verifier.name());
            }
        }
        None
    }

    /// Runs every detector; returns the flags raised, in detector order
    /// (each detector raises its own flag), and the stage's cost, the
    /// sum of the detectors' laps on `watch` (0 when `watch` is inert:
    /// then no detector latency is recorded either). A terminal detector that
    /// fires short-circuits the chain and its flag is the only one
    /// reported. Each consulted detector's verdict — evidence values
    /// and per-detector cost included — lands on the decision builder.
    pub(crate) fn detect(
        &self,
        ctx: &RuleContext<'_>,
        decision: &mut DecisionBuilder,
        watch: &mut Stopwatch,
    ) -> (Vec<CheatFlag>, u64) {
        let mut flags = Vec::new();
        let mut detect_ns = 0;
        for (detector, rejected, latency) in &self.detectors {
            let judgement = detector.judge(&self.config, ctx);
            let elapsed_ns = watch.lap(latency);
            detect_ns += elapsed_ns;
            decision.verdict(
                detector.name(),
                judgement.flag.map(CheatFlag::slug),
                judgement.observed,
                judgement.threshold,
                judgement.unit,
                elapsed_ns,
            );
            if let Some(f) = judgement.flag {
                rejected.inc();
                if detector.is_terminal() {
                    return (vec![f], detect_ns);
                }
                flags.push(f);
            }
        }
        (flags, detect_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsn_obs::Registry;
    use std::sync::Arc;

    fn metrics() -> ServerMetrics {
        ServerMetrics::new(Arc::new(Registry::new()))
    }

    #[test]
    fn default_policy_assembles_paper_rule_chain() {
        let p = AdmissionPipeline::from_policy(&PolicyConfig::default(), &metrics(), Vec::new());
        assert_eq!(
            p.detector_names(),
            vec![
                "branded-account",
                "gps-proximity",
                "frequent-checkins",
                "superhuman-speed",
                "rapid-fire"
            ]
        );
        assert!(p.verifier_names().is_empty());
        assert!(!p.has_verifiers());
    }

    #[test]
    fn enables_prune_stages() {
        // Every combination of the four `enable_*` switches: each one
        // removes exactly its detector and the rest keep paper order.
        // Branded-account is always installed: escalation is account
        // state, not a per-check-in rule you can ablate away.
        for mask in 0..16u8 {
            let on = |bit: u8| mask & (1 << bit) != 0;
            let policy = PolicyConfig::with_detectors(DetectorConfig {
                enable_gps: on(0),
                enable_cooldown: on(1),
                enable_speed: on(2),
                enable_rapid_fire: on(3),
                ..DetectorConfig::default()
            });
            let p = AdmissionPipeline::from_policy(&policy, &metrics(), Vec::new());
            let mut expected = vec!["branded-account"];
            for (bit, name) in [
                "gps-proximity",
                "frequent-checkins",
                "superhuman-speed",
                "rapid-fire",
            ]
            .into_iter()
            .enumerate()
            {
                if on(bit as u8) {
                    expected.push(name);
                }
            }
            assert_eq!(p.detector_names(), expected, "enable mask {mask:04b}");
        }
    }

    #[test]
    fn disabled_detectors_leave_only_branding() {
        let p = AdmissionPipeline::from_policy(
            &PolicyConfig::with_detectors(DetectorConfig::disabled()),
            &metrics(),
            Vec::new(),
        );
        assert_eq!(p.detector_names(), vec!["branded-account"]);
    }

    #[test]
    fn verifier_reject_short_circuits_and_counts() {
        struct Always(VerifierVerdict);
        impl CheckinVerifier for Always {
            fn name(&self) -> &'static str {
                match self.0 {
                    VerifierVerdict::Admit => "always-admit",
                    VerifierVerdict::Reject => "always-reject",
                    VerifierVerdict::Abstain => "always-abstain",
                }
            }
            fn verify(&self, _: &VerifyContext<'_>) -> (VerifierVerdict, &'static str) {
                (self.0, "")
            }
        }
        let registry = Arc::new(Registry::new());
        let m = ServerMetrics::new(Arc::clone(&registry));
        let p = AdmissionPipeline::from_policy(
            &PolicyConfig::default(),
            &m,
            vec![
                Box::new(Always(VerifierVerdict::Abstain)),
                Box::new(Always(VerifierVerdict::Reject)),
                Box::new(Always(VerifierVerdict::Admit)),
            ],
        );
        assert!(p.has_verifiers());
        let req = CheckinRequest {
            user: crate::UserId(1),
            venue: VenueId(1),
            reported_location: GeoPoint::new(35.0, -106.0).unwrap(),
            source: crate::CheckinSource::MobileApp,
        };
        let ctx = VerifyContext {
            request: &req,
            venue_location: req.reported_location,
            evidence: None,
            now: Timestamp(0),
        };
        let mut decision = DecisionBuilder::new(1, 1, 0);
        assert_eq!(p.verify(&ctx, &mut decision), Some("always-reject"));
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("server.checkin.verifier.always_reject.rejected"),
            1
        );
        assert_eq!(
            snap.counter("server.checkin.verifier.always_abstain.rejected"),
            0
        );
    }
}
