//! The staged check-in **admission pipeline**: detectors → record →
//! reward rules, with an optional verifier stage up front.
//!
//! The paper's core claim (§2.3, §5.1) is about *which admission rules
//! run on a check-in* — Foursquare's concealed cheater code, and the
//! proposed location-verification defenses. This module makes that rule
//! chain first-class: every §2.3 rule is an independent [`Detector`],
//! reward tiers are composable [`RewardRule`]s, and §5.1-style location
//! verifiers slot in as [`CheckinVerifier`] stages — so a verified
//! deployment is a different pipeline *configuration*, not a different
//! code path. The whole chain is assembled from a serde-loadable
//! [`PolicyConfig`], which is what lets
//! rule-ablation sweeps and defense-vs-attack matrices run from JSON
//! alone.
//!
//! # Stage order
//!
//! 1. **Verify** (only when verifiers are installed): each
//!    [`CheckinVerifier`] judges the request against out-of-band
//!    [`CheckinEvidence`] *before any shard lock
//!    is taken* — a rejected check-in is never recorded, matching the
//!    §5.1 premise that verification happens at submission time.
//! 2. **Detect**: every [`Detector`] runs in order under the check-in
//!    lock set with a read-only [`RuleContext`]. A terminal detector
//!    (the branded-account check) short-circuits the rest.
//! 3. **Record** (fixed): the check-in is appended to history whether or
//!    not it was flagged, and flag escalation (account branding) runs.
//! 4. **Reward**: each [`RewardRule`] mutates user/venue state through a
//!    [`RewardContext`] — mayorship, then badges, then points, then
//!    specials, matching the §2.1 ladder.
//!
//! # What each stage may touch
//!
//! Detectors get immutable borrows of the submitting user and the
//! claimed venue only. Reward rules get mutable access to the locked
//! user shard set and venue shard, plus the append-only category table
//! (a leaf lock, per rule 4 of the locking discipline documented on the
//! `shard` module). Verifiers run before locks exist and see only the
//! request, the venue's registered location, and the evidence.

use lbsn_geo::GeoPoint;
use lbsn_obs::{Counter, DecisionBuilder, QuantileSketch};
use lbsn_sim::Timestamp;

use crate::checkin::{CheatFlag, CheckinEvidence, CheckinRequest};
use crate::metrics::ServerMetrics;
use crate::policy::PolicyConfig;
use crate::rewards::{decide_mayor, evaluate_badges, Badge, PointsPolicy, VenueLookup};
use crate::shard::{LeafLock, WriteSet};
use crate::user::User;
use crate::venue::{SpecialKind, Venue, VenueCategory};
use crate::VenueId;

pub use crate::cheatercode::{CheatRule as Detector, Judgement, RuleContext};
use crate::cheatercode::{
    FrequentCheckinRule, GpsProximityRule, RapidFireRule, SuperhumanSpeedRule,
};

/// The branded-account detector: once the §4.2 escalation has marked an
/// account as a cheater, every subsequent check-in is invalidated
/// without consulting any other rule.
///
/// Terminal (see [`Detector::is_terminal`]): matching the observed
/// policy, a branded account's check-in carries *only*
/// [`CheatFlag::AccountFlagged`] — the per-check-in rules never run.
#[derive(Debug, Clone, Default)]
pub struct BrandedAccountDetector;

impl Detector for BrandedAccountDetector {
    fn name(&self) -> &'static str {
        "branded-account"
    }

    fn check(&self, ctx: &RuleContext<'_>) -> Option<CheatFlag> {
        ctx.user
            .branded_cheater
            .then_some(CheatFlag::AccountFlagged)
    }

    fn judge(&self, ctx: &RuleContext<'_>) -> Judgement {
        let branded = ctx.user.branded_cheater;
        Judgement {
            flag: branded.then_some(CheatFlag::AccountFlagged),
            observed: if branded { 1.0 } else { 0.0 },
            threshold: 1.0,
            unit: "branded",
        }
    }

    fn is_terminal(&self) -> bool {
        true
    }
}

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
    /// Judge a check-in.
    fn verify(&self, ctx: &VerifyContext<'_>) -> VerifierVerdict;
    /// Judge a check-in and name the deciding inner mechanism (e.g. the
    /// rejecting verifier inside a composite stack), for the decision
    /// audit plane. The default reports no inner evidence.
    fn verify_explained(&self, ctx: &VerifyContext<'_>) -> (VerifierVerdict, &'static str) {
        (self.verify(ctx), "")
    }
}

/// Mutable state a [`RewardRule`] works against: the locked user shard
/// set and venue shard, plus the running outcome accumulators.
///
/// Only the pipeline constructs one. Rules use the accessor methods; the
/// struct's fields stay private so the lock discipline (user shards and
/// one venue shard held; category table taken as a leaf read lock) is
/// enforced by construction.
pub struct RewardContext<'a, 'w> {
    request: &'a CheckinRequest,
    now: Timestamp,
    first_visit: bool,
    first_of_day: bool,
    became_mayor: bool,
    is_mayor: bool,
    points: u64,
    new_badges: Vec<Badge>,
    special_unlocked: Option<String>,
    users: &'a mut WriteSet<'w, User>,
    venues: &'a mut Vec<Venue>,
    venue_slot: usize,
    categories: &'a LeafLock<Vec<VenueCategory>>,
}

impl<'a, 'w> RewardContext<'a, 'w> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        request: &'a CheckinRequest,
        now: Timestamp,
        first_visit: bool,
        first_of_day: bool,
        users: &'a mut WriteSet<'w, User>,
        venues: &'a mut Vec<Venue>,
        venue_slot: usize,
        categories: &'a LeafLock<Vec<VenueCategory>>,
    ) -> Self {
        // `is_mayor` starts as the *current* seat holder check so a
        // pipeline without the mayorship rule still reports the seat
        // truthfully; the mayorship rule overwrites it after deciding.
        let is_mayor = venues[venue_slot].mayor == Some(request.user);
        RewardContext {
            request,
            now,
            first_visit,
            first_of_day,
            became_mayor: false,
            is_mayor,
            points: 0,
            new_badges: Vec::new(),
            special_unlocked: None,
            users,
            venues,
            venue_slot,
            categories,
        }
    }

    /// The raw request.
    pub fn request(&self) -> &CheckinRequest {
        self.request
    }

    /// Server time of the submission.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Whether this is the user's first-ever visit to the venue.
    pub fn first_visit(&self) -> bool {
        self.first_visit
    }

    /// Whether this is the user's first valid check-in of the virtual day.
    pub fn first_of_day(&self) -> bool {
        self.first_of_day
    }

    /// Whether an earlier rule transferred the mayorship to this user.
    pub fn became_mayor(&self) -> bool {
        self.became_mayor
    }

    /// Whether the user holds the venue's mayor seat right now.
    pub fn is_mayor(&self) -> bool {
        self.is_mayor
    }

    /// Points accumulated so far by earlier rules.
    pub fn points(&self) -> u64 {
        self.points
    }

    /// The submitting user (the triggering check-in is already in their
    /// history).
    pub fn user(&self) -> &User {
        self.users
            .get(self.request.user.value())
            .expect("check_in validated the user id") // lint:allow(no-unwrap-hot-path): id validated at admission
    }

    /// Mutable access to the submitting user.
    pub fn user_mut(&mut self) -> &mut User {
        self.users
            .get_mut(self.request.user.value())
            .expect("check_in validated the user id") // lint:allow(no-unwrap-hot-path): id validated at admission
    }

    /// The claimed venue (the check-in is already counted on it).
    pub fn venue(&self) -> &Venue {
        &self.venues[self.venue_slot]
    }

    /// Mutable access to the claimed venue.
    pub fn venue_mut(&mut self) -> &mut Venue {
        &mut self.venues[self.venue_slot]
    }

    /// Category of any registered venue, via the append-only category
    /// table (leaf read lock — safe to call while shard locks are held).
    pub fn category_of(&self, venue: VenueId) -> Option<VenueCategory> {
        let categories = self.categories.read();
        CategoryTable(&categories).category_of(venue)
    }

    /// Awards `points` to the submitting user and the running outcome.
    pub fn award_points(&mut self, points: u64) {
        self.user_mut().points += points;
        self.points += points;
    }

    /// Grants `badge` to the submitting user and the running outcome
    /// (no-op if already held).
    pub fn award_badge(&mut self, badge: Badge) {
        if self.user_mut().badges.insert(badge) {
            self.new_badges.push(badge);
        }
    }

    /// Marks a venue special as unlocked by this check-in.
    pub fn unlock_special(&mut self, description: impl Into<String>) {
        self.special_unlocked = Some(description.into());
    }

    fn finish(self) -> RewardOutcome {
        RewardOutcome {
            points: self.points,
            new_badges: self.new_badges,
            is_mayor: self.is_mayor,
            became_mayor: self.became_mayor,
            special_unlocked: self.special_unlocked,
        }
    }
}

/// What the reward stage produced, folded into the
/// [`CheckinOutcome`](crate::CheckinOutcome) by the server.
pub(crate) struct RewardOutcome {
    pub points: u64,
    pub new_badges: Vec<Badge>,
    pub is_mayor: bool,
    pub became_mayor: bool,
    pub special_unlocked: Option<String>,
}

/// One composable stage of the §2.1 reward ladder, applied to a
/// check-in that passed every detector.
pub trait RewardRule: Send + Sync {
    /// Stable rule name, used in ablation reports.
    fn name(&self) -> &'static str;
    /// Apply the rule's effects to user/venue state and the outcome.
    fn apply(&self, ctx: &mut RewardContext<'_, '_>);
}

/// Category lookup backed by the server's append-only category table.
struct CategoryTable<'a>(&'a [VenueCategory]);

impl VenueLookup for CategoryTable<'_> {
    fn category_of(&self, venue: VenueId) -> Option<VenueCategory> {
        let idx = venue.value().checked_sub(1)? as usize;
        self.0.get(idx).copied()
    }
}

/// The §2.1 mayorship contest: most distinct check-in days in the
/// trailing 60-day window takes the seat; ties keep the incumbent.
#[derive(Debug, Clone, Default)]
pub struct MayorshipRule;

impl RewardRule for MayorshipRule {
    fn name(&self) -> &'static str {
        "mayorship"
    }

    fn apply(&self, ctx: &mut RewardContext<'_, '_>) {
        let uid = ctx.request.user.value();
        let venue_id = ctx.request.venue;
        // The incumbent (if any) is covered by the lock set —
        // `check_in` validated that before entering the pipeline.
        let became_mayor = {
            let venue = &ctx.venues[ctx.venue_slot];
            let challenger = ctx.users.get(uid).expect("validated"); // lint:allow(no-unwrap-hot-path): id validated at admission
            let incumbent = venue.mayor.and_then(|m| ctx.users.get(m.value()));
            decide_mayor(venue, challenger, incumbent, ctx.now)
        };
        if became_mayor {
            if let Some(old) = ctx.venues[ctx.venue_slot].mayor {
                if let Some(old_mayor) = ctx.users.get_mut(old.value()) {
                    old_mayor.mayorships.remove(&venue_id);
                }
            }
            ctx.venues[ctx.venue_slot].mayor = Some(ctx.request.user);
            ctx.users
                .get_mut(uid)
                .expect("validated") // lint:allow(no-unwrap-hot-path): id validated at admission
                .mayorships
                .insert(venue_id);
        }
        ctx.became_mayor = became_mayor;
        ctx.is_mayor = ctx.venues[ctx.venue_slot].mayor == Some(ctx.request.user);
    }
}

/// Badge evaluation on post-update state (§2.1's second tier).
#[derive(Debug, Clone, Default)]
pub struct BadgeRule;

impl RewardRule for BadgeRule {
    fn name(&self) -> &'static str {
        "badges"
    }

    fn apply(&self, ctx: &mut RewardContext<'_, '_>) {
        let uid = ctx.request.user.value();
        // Categories come from the append-only table — no extra venue
        // shards locked (leaf-lock rule).
        let new_badges = {
            let categories = ctx.categories.read();
            let user = ctx.users.get(uid).expect("validated"); // lint:allow(no-unwrap-hot-path): id validated at admission
            evaluate_badges(
                user,
                &ctx.venues[ctx.venue_slot],
                ctx.now,
                &CategoryTable(&categories),
            )
        };
        for b in &new_badges {
            ctx.users.get_mut(uid).expect("validated").badges.insert(*b); // lint:allow(no-unwrap-hot-path): id validated at admission
        }
        ctx.new_badges = new_badges;
    }
}

/// Point awards per the configured [`PointsPolicy`] (§2.1's first tier).
#[derive(Debug, Clone)]
pub struct PointsRule {
    /// Point values.
    pub policy: PointsPolicy,
}

impl RewardRule for PointsRule {
    fn name(&self) -> &'static str {
        "points"
    }

    fn apply(&self, ctx: &mut RewardContext<'_, '_>) {
        let points = self
            .policy
            .award(ctx.first_visit, ctx.first_of_day, ctx.became_mayor);
        ctx.users
            .get_mut(ctx.request.user.value())
            .expect("validated") // lint:allow(no-unwrap-hot-path): id validated at admission
            .points += points;
        ctx.points = points;
    }
}

/// Venue specials — the "real world rewards" tier of §2.1, and the
/// economic damage vector of §6's free-goods analysis.
#[derive(Debug, Clone, Default)]
pub struct SpecialsRule;

impl RewardRule for SpecialsRule {
    fn name(&self) -> &'static str {
        "specials"
    }

    fn apply(&self, ctx: &mut RewardContext<'_, '_>) {
        let special_unlocked = {
            let venue = &ctx.venues[ctx.venue_slot];
            let user = ctx.users.get(ctx.request.user.value()).expect("validated"); // lint:allow(no-unwrap-hot-path): id validated at admission
            venue.special.as_ref().and_then(|sp| match sp.kind {
                SpecialKind::MayorOnly if ctx.is_mayor => Some(sp.description.clone()),
                SpecialKind::MayorOnly => None,
                SpecialKind::EveryCheckin => Some(sp.description.clone()),
                SpecialKind::Loyalty { visits } => {
                    let count = user
                        .history
                        .iter()
                        .filter(|r| r.rewarded && r.venue == ctx.request.venue)
                        .count();
                    (count as u32 >= visits).then(|| sp.description.clone())
                }
            })
        };
        ctx.special_unlocked = special_unlocked;
    }
}

/// A detector with its pre-resolved observability handles.
struct InstalledDetector {
    detector: Box<dyn Detector>,
    /// `server.checkin.detector.{name}.rejected`
    rejected: Counter,
    /// `server.checkin.detector.{name}.latency`
    latency: QuantileSketch,
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
    detectors: Vec<InstalledDetector>,
    reward_rules: Vec<Box<dyn RewardRule>>,
    verifiers: Vec<InstalledVerifier>,
}

impl std::fmt::Debug for AdmissionPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPipeline")
            .field("detectors", &self.detector_names())
            .field("reward_rules", &self.reward_rule_names())
            .field("verifiers", &self.verifier_names())
            .finish()
    }
}

impl AdmissionPipeline {
    /// Assembles the stage chain: the branded-account detector first
    /// (terminal), then each enabled §2.3 rule in the paper's order,
    /// then the enabled reward tiers in ladder order, plus the given
    /// verifier stages up front.
    pub(crate) fn from_policy(
        policy: &PolicyConfig,
        metrics: &ServerMetrics,
        verifiers: Vec<Box<dyn CheckinVerifier>>,
    ) -> Self {
        let d = &policy.detectors;
        let mut detectors: Vec<Box<dyn Detector>> = vec![Box::new(BrandedAccountDetector)];
        if d.enable_gps {
            detectors.push(Box::new(GpsProximityRule {
                radius_m: d.gps_radius_m,
            }));
        }
        if d.enable_cooldown {
            detectors.push(Box::new(FrequentCheckinRule {
                cooldown: d.same_venue_cooldown,
            }));
        }
        if d.enable_speed {
            detectors.push(Box::new(SuperhumanSpeedRule {
                max_speed_mps: d.max_speed_mps,
                max_gap: d.speed_rule_max_gap,
            }));
        }
        if d.enable_rapid_fire {
            detectors.push(Box::new(RapidFireRule {
                count: d.rapid_fire_count,
                square_m: d.rapid_fire_square_m,
                max_interval: d.rapid_fire_max_interval,
            }));
        }

        let r = &policy.rewards;
        let mut reward_rules: Vec<Box<dyn RewardRule>> = Vec::new();
        if r.enable_mayorships {
            reward_rules.push(Box::new(MayorshipRule));
        }
        if r.enable_badges {
            reward_rules.push(Box::new(BadgeRule));
        }
        if r.enable_points {
            reward_rules.push(Box::new(PointsRule {
                policy: r.points.clone(),
            }));
        }
        if r.enable_specials {
            reward_rules.push(Box::new(SpecialsRule));
        }

        AdmissionPipeline {
            detectors: detectors
                .into_iter()
                .map(|detector| {
                    let (rejected, latency) = metrics.detector_metrics(detector.name());
                    InstalledDetector {
                        detector,
                        rejected,
                        latency,
                    }
                })
                .collect(),
            reward_rules,
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
        self.detectors.iter().map(|d| d.detector.name()).collect()
    }

    /// Names of the installed reward rules, in application order.
    pub fn reward_rule_names(&self) -> Vec<&'static str> {
        self.reward_rules.iter().map(|r| r.name()).collect()
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
            let (verdict, evidence) = v.verifier.verify_explained(ctx);
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

    /// Runs every detector; returns all flags raised (deduplicated, in
    /// detector order). A terminal detector that fires short-circuits
    /// the chain and its flag is the only one reported. Each consulted
    /// detector's verdict — evidence values and per-detector cost
    /// included — lands on the decision builder.
    pub(crate) fn detect(
        &self,
        ctx: &RuleContext<'_>,
        decision: &mut DecisionBuilder,
    ) -> Vec<CheatFlag> {
        let mut flags = Vec::new();
        for d in &self.detectors {
            let timer = d.latency.start_timer();
            let judgement = d.detector.judge(ctx);
            let elapsed_ns = timer.stop();
            decision.verdict(
                d.detector.name(),
                judgement.flag.map(CheatFlag::slug),
                judgement.observed,
                judgement.threshold,
                judgement.unit,
                elapsed_ns,
            );
            if let Some(f) = judgement.flag {
                d.rejected.inc();
                if d.detector.is_terminal() {
                    return vec![f];
                }
                if !flags.contains(&f) {
                    flags.push(f);
                }
            }
        }
        flags
    }

    /// Runs the reward rules over an admitted check-in.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn reward(
        &self,
        request: &CheckinRequest,
        now: Timestamp,
        first_visit: bool,
        first_of_day: bool,
        users: &mut WriteSet<'_, User>,
        venues: &mut Vec<Venue>,
        venue_slot: usize,
        categories: &LeafLock<Vec<VenueCategory>>,
    ) -> RewardOutcome {
        let mut ctx = RewardContext::new(
            request,
            now,
            first_visit,
            first_of_day,
            users,
            venues,
            venue_slot,
            categories,
        );
        for rule in &self.reward_rules {
            rule.apply(&mut ctx);
        }
        ctx.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DetectorConfig, RewardConfig};
    use crate::user::UserSpec;
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
        assert_eq!(
            p.reward_rule_names(),
            vec!["mayorship", "badges", "points", "specials"]
        );
        assert!(p.verifier_names().is_empty());
        assert!(!p.has_verifiers());
    }

    #[test]
    fn enables_prune_stages() {
        let policy = PolicyConfig {
            detectors: DetectorConfig {
                enable_rapid_fire: false,
                ..DetectorConfig::default()
            },
            rewards: RewardConfig {
                enable_specials: false,
                ..RewardConfig::default()
            },
        };
        let p = AdmissionPipeline::from_policy(&policy, &metrics(), Vec::new());
        assert!(!p.detector_names().contains(&"rapid-fire"));
        assert!(!p.reward_rule_names().contains(&"specials"));
        // Branded-account is always installed: escalation is account
        // state, not a per-check-in rule you can ablate away.
        assert_eq!(p.detector_names()[0], "branded-account");
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
    fn branded_account_detector_is_terminal() {
        let d = BrandedAccountDetector;
        assert!(d.is_terminal());
        let honest = GpsProximityRule { radius_m: 500.0 };
        assert!(!honest.is_terminal(), "ordinary rules are not terminal");
        let user = User::from_spec(crate::UserId(1), UserSpec::anonymous(), Timestamp(0));
        let venue = Venue::from_spec(
            VenueId(1),
            crate::venue::VenueSpec::new("V", GeoPoint::new(35.0, -106.0).unwrap()),
            Timestamp(0),
            &mut crate::StrArena::new(),
        );
        let req = CheckinRequest {
            user: crate::UserId(1),
            venue: VenueId(1),
            reported_location: venue.location,
            source: crate::CheckinSource::MobileApp,
        };
        let ctx = RuleContext {
            user: &user,
            venue: &venue,
            request: &req,
            now: Timestamp(0),
        };
        assert_eq!(d.check(&ctx), None, "unbranded account passes");
        let mut branded = User::from_spec(crate::UserId(1), UserSpec::anonymous(), Timestamp(0));
        branded.branded_cheater = true;
        let ctx = RuleContext {
            user: &branded,
            venue: &venue,
            request: &req,
            now: Timestamp(0),
        };
        assert_eq!(d.check(&ctx), Some(CheatFlag::AccountFlagged));
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
            fn verify(&self, _: &VerifyContext<'_>) -> VerifierVerdict {
                self.0
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
