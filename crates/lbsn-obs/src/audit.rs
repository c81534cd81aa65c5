//! The decision audit plane: one structured **wide event** per
//! admission decision, with outcome-biased tail sampling and
//! per-account evidence timelines.
//!
//! Aggregate counters say *how many* check-ins were rejected; they
//! cannot say *why account 4711 was branded on day 12*. The audit plane
//! closes that gap. The pipeline threads a stack-allocated
//! [`DecisionBuilder`] through its stages — every detector contributes
//! its verdict *with the values it compared*, every verifier its vote —
//! and the terminal outcome turns the builder into one
//! [`DecisionRecord`].
//!
//! Retention is **outcome-biased**: every negative decision (rejected,
//! branded, verifier-dropped) is captured, while accepted decisions are
//! tail-sampled 1-in-N through per-thread-stripe ticket counters: a
//! stripe that saw `a` accepts keeps exactly `ceil(a / N)` of them,
//! however its threads interleave. The unsampled accept path is one
//! ticket RMW and one drop-count RMW on the caller's stripe (plus the
//! modulo), and allocates nothing —
//! the builder lives on the caller's stack and holds only `Copy` data
//! (`&'static str` names, numbers). The plane shares its registry's
//! enabled flag, so its cost is part of the `perf` benchmark's
//! `obs.overhead_pct`.
//!
//! Captured records land in a lock-striped bounded ring (striped by
//! user id, evictions exactly counted) and are simultaneously folded
//! into per-account [`AccountForensics`] timelines. The timeline embeds
//! the most recent negative record, so "why was this user branded?"
//! stays answerable even after the ring has recycled the record itself.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::metrics::StripedU64;
use crate::names::reasons;

/// Detector verdicts a [`DecisionBuilder`] can hold inline. The default
/// chain installs five detectors; the headroom absorbs policy growth
/// without touching the fast path.
pub const MAX_DETECTOR_VERDICTS: usize = 8;

/// Verifier votes a [`DecisionBuilder`] can hold inline.
pub const MAX_VERIFIER_VOTES: usize = 4;

/// Capacity and sampling knobs for one [`AuditPlane`].
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Total decision records retained across all stripes.
    pub capacity: usize,
    /// Lock stripes the ring is split across (records stripe by user
    /// id, so concurrent check-ins for different users rarely collide).
    pub stripes: usize,
    /// Keep one *accepted* record in every N (0 keeps none). Negative
    /// outcomes are always kept regardless of this rate.
    pub sample_every: u64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            capacity: 4096,
            stripes: 8,
            sample_every: 32,
        }
    }
}

/// One detector's contribution to a decision: whether it fired, and the
/// evidence — the value it observed against the threshold it compared.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorVerdict {
    /// Stable detector name (e.g. `gps-proximity`).
    pub detector: String,
    /// Whether the detector raised its flag.
    pub fired: bool,
    /// Flag slug when fired (e.g. `gps_mismatch`), empty otherwise.
    pub flag: String,
    /// The value the detector measured (meters, seconds, m/s, …).
    pub observed: f64,
    /// The configured threshold it was compared against.
    pub threshold: f64,
    /// Unit of `observed` / `threshold` (empty when the detector has no
    /// scalar evidence, e.g. a boolean account check).
    pub unit: String,
    /// Wall nanoseconds this detector spent on the check-in; 0 means
    /// the decision was not timed (only head-sampled decisions are).
    pub elapsed_ns: u64,
}

/// One verifier stage's vote on a decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerifierVote {
    /// Stage name (e.g. `verifier-stack`).
    pub verifier: String,
    /// `admit` / `reject` / `abstain`.
    pub vote: String,
    /// Which inner mechanism decided, when the stage knows (e.g. the
    /// rejecting verifier inside a stack); empty otherwise.
    pub evidence: String,
}

/// What the rewards stage granted (all zero on non-accepted decisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RewardSummary {
    /// Points granted.
    pub points: u64,
    /// Badges newly earned.
    pub badges: u64,
    /// The check-in took (or kept taking) the venue's mayorship.
    pub became_mayor: bool,
    /// A venue special unlocked on this check-in.
    pub special_unlocked: bool,
}

/// Per-stage pipeline cost of one decision, wall nanoseconds. Stages
/// the decision never reached stay zero. Only a decision whose root
/// span is head-sampled is timed: all zero means the decision was not
/// timed, not that it was free (see [`StageNanos::is_timed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageNanos {
    /// Pre-admission verifier stage.
    pub verify: u64,
    /// Cheater-code detector evaluation.
    pub detect: u64,
    /// History append + flag bookkeeping.
    pub record: u64,
    /// Mayorship / badges / points / specials.
    pub rewards: u64,
    /// Whole-pipeline total.
    pub total: u64,
}

impl StageNanos {
    /// Whether the decision was timed: any stage holds a duration.
    pub fn is_timed(&self) -> bool {
        *self != StageNanos::default()
    }
}

/// One wide admission event: everything the pipeline knew when it made
/// a terminal decision about one check-in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Global capture sequence within the plane (gaps never occur; ring
    /// eviction removes old records but `seq` keeps ascending).
    pub seq: u64,
    /// Raw user id.
    pub user: u64,
    /// Raw venue id.
    pub venue: u64,
    /// Virtual timestamp of the decision, seconds since launch.
    pub at_secs: u64,
    /// Terminal reason slug (see [`crate::names::reasons`]), e.g.
    /// `accepted`, `rejected.gps_mismatch`, `branded.rapid_fire`,
    /// `verifier.verifier_stack`.
    pub outcome: String,
    /// Per-detector verdicts in evaluation order.
    pub detectors: Vec<DetectorVerdict>,
    /// Per-verifier votes in evaluation order.
    pub votes: Vec<VerifierVote>,
    /// Reward grants (zeroed unless accepted).
    pub reward: RewardSummary,
    /// Per-stage pipeline cost.
    pub stage_ns: StageNanos,
}

impl DecisionRecord {
    /// Whether this decision was negative (anything but accepted).
    pub fn is_negative(&self) -> bool {
        self.outcome != reasons::ACCEPTED
    }

    /// The detector verdicts that fired.
    pub fn fired(&self) -> impl Iterator<Item = &DetectorVerdict> {
        self.detectors.iter().filter(|v| v.fired)
    }
}

/// The terminal outcome of one admission decision, as the pipeline
/// reports it to [`AuditPlane::finish`]. Slugs are composed from these
/// only at capture time, so the unsampled fast path never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionOutcome {
    /// The check-in was recorded and rewarded.
    Accepted,
    /// Flagged by the cheater code; payload is the flag slug
    /// (e.g. `gps_mismatch`).
    Rejected(&'static str),
    /// Flagged *and* the account crossed the branding threshold on this
    /// decision; payload is the flag slug that tipped it.
    Branded(&'static str),
    /// Dropped pre-admission by a verifier stage; payload is the stage
    /// name (e.g. `verifier-stack`).
    VerifierRejected(&'static str),
    /// Shed by the request frontend at the queue high-water mark —
    /// never admitted, never recorded, told to retry later
    /// (`shed.queue_full`).
    Shed,
}

impl DecisionOutcome {
    /// Whether the outcome is negative and therefore always captured.
    pub fn is_negative(self) -> bool {
        !matches!(self, DecisionOutcome::Accepted)
    }

    /// The registered reason slug for this outcome.
    pub fn reason(self) -> String {
        match self {
            DecisionOutcome::Accepted => reasons::ACCEPTED.to_string(),
            DecisionOutcome::Rejected(flag) => reasons::rejected(flag),
            DecisionOutcome::Branded(flag) => reasons::branded(flag),
            DecisionOutcome::VerifierRejected(stage) => reasons::verifier(stage),
            DecisionOutcome::Shed => reasons::SHED_QUEUE_FULL.to_string(),
        }
    }
}

/// Inline, `Copy`-only detector verdict held by the builder.
#[derive(Debug, Clone, Copy, Default)]
struct InlineVerdict {
    detector: &'static str,
    fired: bool,
    flag: &'static str,
    observed: f64,
    threshold: f64,
    unit: &'static str,
    elapsed_ns: u64,
}

/// Inline, `Copy`-only verifier vote held by the builder.
#[derive(Debug, Clone, Copy, Default)]
struct InlineVote {
    verifier: &'static str,
    vote: &'static str,
    evidence: &'static str,
}

/// Stack-allocated accumulator the pipeline threads through its stages.
///
/// Everything inside is `Copy` (`&'static str` names and numbers), so
/// filling it costs a handful of stores and dropping it costs nothing —
/// the owned [`DecisionRecord`] is built only if
/// [`AuditPlane::finish`] decides to capture.
#[derive(Debug, Clone)]
pub struct DecisionBuilder {
    user: u64,
    venue: u64,
    at_secs: u64,
    verdicts: [InlineVerdict; MAX_DETECTOR_VERDICTS],
    n_verdicts: usize,
    votes: [InlineVote; MAX_VERIFIER_VOTES],
    n_votes: usize,
    reward: RewardSummary,
    stage_ns: StageNanos,
}

impl DecisionBuilder {
    /// Starts a decision for one check-in request at virtual time
    /// `at_secs`.
    pub fn new(user: u64, venue: u64, at_secs: u64) -> Self {
        DecisionBuilder {
            user,
            venue,
            at_secs,
            verdicts: [InlineVerdict::default(); MAX_DETECTOR_VERDICTS],
            n_verdicts: 0,
            votes: [InlineVote::default(); MAX_VERIFIER_VOTES],
            n_votes: 0,
            reward: RewardSummary::default(),
            stage_ns: StageNanos::default(),
        }
    }

    /// Records one detector's verdict with its compared evidence.
    /// Verdicts past [`MAX_DETECTOR_VERDICTS`] are silently dropped
    /// (the record stays truncated rather than allocating).
    pub fn verdict(
        &mut self,
        detector: &'static str,
        flag: Option<&'static str>,
        observed: f64,
        threshold: f64,
        unit: &'static str,
        elapsed_ns: u64,
    ) {
        if self.n_verdicts == MAX_DETECTOR_VERDICTS {
            return;
        }
        self.verdicts[self.n_verdicts] = InlineVerdict {
            detector,
            fired: flag.is_some(),
            flag: flag.unwrap_or(""),
            observed,
            threshold,
            unit,
            elapsed_ns,
        };
        self.n_verdicts += 1;
    }

    /// Records one verifier stage's vote.
    pub fn vote(&mut self, verifier: &'static str, vote: &'static str, evidence: &'static str) {
        if self.n_votes == MAX_VERIFIER_VOTES {
            return;
        }
        self.votes[self.n_votes] = InlineVote {
            verifier,
            vote,
            evidence,
        };
        self.n_votes += 1;
    }

    /// Records what the rewards stage granted.
    pub fn reward(&mut self, points: u64, badges: u64, became_mayor: bool, special: bool) {
        self.reward = RewardSummary {
            points,
            badges,
            became_mayor,
            special_unlocked: special,
        };
    }

    /// Records the verifier stage's cost.
    pub fn verify_ns(&mut self, ns: u64) {
        self.stage_ns.verify = ns;
    }

    /// Records the detector stage's cost.
    pub fn detect_ns(&mut self, ns: u64) {
        self.stage_ns.detect = ns;
    }

    /// Records the record stage's cost.
    pub fn record_ns(&mut self, ns: u64) {
        self.stage_ns.record = ns;
    }

    /// Records the rewards stage's cost.
    pub fn rewards_ns(&mut self, ns: u64) {
        self.stage_ns.rewards = ns;
    }

    /// Records the whole-pipeline cost.
    pub fn total_ns(&mut self, ns: u64) {
        self.stage_ns.total = ns;
    }

    /// Materializes the owned record (capture path only).
    fn build(&self, seq: u64, outcome: DecisionOutcome) -> DecisionRecord {
        DecisionRecord {
            seq,
            user: self.user,
            venue: self.venue,
            at_secs: self.at_secs,
            outcome: outcome.reason(),
            detectors: self.verdicts[..self.n_verdicts]
                .iter()
                .map(|v| DetectorVerdict {
                    detector: v.detector.to_string(),
                    fired: v.fired,
                    flag: v.flag.to_string(),
                    observed: v.observed,
                    threshold: v.threshold,
                    unit: v.unit.to_string(),
                    elapsed_ns: v.elapsed_ns,
                })
                .collect(),
            votes: self.votes[..self.n_votes]
                .iter()
                .map(|v| VerifierVote {
                    verifier: v.verifier.to_string(),
                    vote: v.vote.to_string(),
                    evidence: v.evidence.to_string(),
                })
                .collect(),
            reward: self.reward,
            stage_ns: self.stage_ns,
        }
    }
}

/// One account's evidence timeline, folded from its captured decision
/// records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccountForensics {
    /// Raw user id.
    pub user: u64,
    /// Captured decisions for this account (sampled accepts + every
    /// negative).
    pub decisions: u64,
    /// Captured accepted decisions (subject to 1-in-N sampling — a
    /// lower bound on the account's true accepts).
    pub accepted: u64,
    /// Negative decisions (exact: negatives are never sampled out).
    pub flagged: u64,
    /// The account crossed the branding threshold.
    pub branded: bool,
    /// Virtual time of the first negative decision.
    pub first_offense_secs: Option<u64>,
    /// Virtual time of the most recent negative decision.
    pub last_offense_secs: Option<u64>,
    /// Negative decisions attributed per firing detector (or rejecting
    /// verifier stage) name.
    pub attribution: BTreeMap<String, u64>,
    /// The most recent negative record, embedded so the branding
    /// rationale survives ring eviction.
    pub last_negative: Option<DecisionRecord>,
}

impl AccountForensics {
    /// An empty timeline for `user`.
    pub fn new(user: u64) -> Self {
        AccountForensics {
            user,
            decisions: 0,
            accepted: 0,
            flagged: 0,
            branded: false,
            first_offense_secs: None,
            last_offense_secs: None,
            attribution: BTreeMap::new(),
            last_negative: None,
        }
    }

    /// Folds one captured record into the running state.
    pub fn fold(&mut self, record: &DecisionRecord) {
        self.decisions += 1;
        if !record.is_negative() {
            self.accepted += 1;
            return;
        }
        self.flagged += 1;
        self.first_offense_secs.get_or_insert(record.at_secs);
        self.last_offense_secs = Some(record.at_secs);
        if record.outcome.starts_with(reasons::BRANDED_PREFIX) {
            self.branded = true;
        }
        let mut attributed = false;
        for verdict in record.fired() {
            *self
                .attribution
                .entry(verdict.detector.clone())
                .or_insert(0) += 1;
            attributed = true;
        }
        if !attributed {
            // Verifier drops carry no detector verdicts; attribute the
            // rejecting vote (or the stage named in the outcome slug).
            for vote in record.votes.iter().filter(|v| v.vote == "reject") {
                *self.attribution.entry(vote.verifier.clone()).or_insert(0) += 1;
            }
        }
        self.last_negative = Some(record.clone());
    }
}

/// Folds a batch of records (e.g. re-read from a JSONL dump) into
/// per-account timelines, keyed by user id.
pub fn fold_records<'a>(
    records: impl IntoIterator<Item = &'a DecisionRecord>,
) -> BTreeMap<u64, AccountForensics> {
    let mut accounts: BTreeMap<u64, AccountForensics> = BTreeMap::new();
    for record in records {
        accounts
            .entry(record.user)
            .or_insert_with(|| AccountForensics::new(record.user))
            .fold(record);
    }
    accounts
}

/// The per-registry audit plane: sampling policy, the lock-striped
/// record ring, and the per-account forensics store.
pub struct AuditPlane {
    enabled: Arc<AtomicBool>,
    sample_every: u64,
    stripe_capacity: usize,
    stripes: Vec<Mutex<VecDeque<DecisionRecord>>>,
    accounts: Mutex<BTreeMap<u64, AccountForensics>>,
    seq: AtomicU64,
    /// Per-stripe accept tickets: sampling is exact 1-in-N within each
    /// stripe.
    accept_ticket: StripedU64,
    records: AtomicU64,
    sampled_out: StripedU64,
    evicted: AtomicU64,
}

impl AuditPlane {
    /// Builds a plane sharing its registry's enabled flag.
    pub(crate) fn new(config: AuditConfig, enabled: Arc<AtomicBool>) -> Self {
        let stripes = config.stripes.max(1);
        AuditPlane {
            enabled,
            sample_every: config.sample_every,
            stripe_capacity: (config.capacity / stripes).max(1),
            stripes: (0..stripes).map(|_| Mutex::new(VecDeque::new())).collect(),
            accounts: Mutex::new(BTreeMap::new()),
            seq: AtomicU64::new(0),
            accept_ticket: Default::default(),
            records: AtomicU64::new(0),
            sampled_out: Default::default(),
            evicted: AtomicU64::new(0),
        }
    }

    /// Terminates one decision: captures the record (always for
    /// negative outcomes, 1-in-N for accepts) or returns without
    /// allocating. Accept tickets are per stripe, so a stripe that saw
    /// `a` accepts captures exactly `ceil(a / N)` of them regardless of
    /// thread interleaving.
    pub fn finish(&self, builder: &DecisionBuilder, outcome: DecisionOutcome) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        if !outcome.is_negative() {
            let ticket = self.accept_ticket.fetch_add(1);
            if self.sample_every == 0 || !ticket.is_multiple_of(self.sample_every) {
                self.sampled_out.fetch_add(1);
                return;
            }
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let record = builder.build(seq, outcome);
        self.records.fetch_add(1, Ordering::Relaxed);
        self.accounts
            .lock()
            .entry(record.user)
            .or_insert_with(|| AccountForensics::new(record.user))
            .fold(&record);
        let stripe = &self.stripes[(record.user % self.stripes.len() as u64) as usize];
        let mut ring = stripe.lock();
        if ring.len() == self.stripe_capacity {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Every retained record across all stripes, ascending by capture
    /// sequence.
    pub fn decisions(&self) -> Vec<DecisionRecord> {
        let mut all: Vec<DecisionRecord> = self
            .stripes
            .iter()
            .flat_map(|s| s.lock().iter().cloned().collect::<Vec<_>>())
            .collect();
        all.sort_by_key(|r| r.seq);
        all
    }

    /// The `n` most recently captured retained records, ascending by
    /// sequence — what the flight recorder embeds in a dump.
    pub fn last_decisions(&self, n: usize) -> Vec<DecisionRecord> {
        let mut all = self.decisions();
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }

    /// Every account timeline, ascending by user id.
    pub fn forensics(&self) -> Vec<AccountForensics> {
        self.accounts.lock().values().cloned().collect()
    }

    /// One account's timeline, if it has any captured decisions.
    pub fn account(&self, user: u64) -> Option<AccountForensics> {
        self.accounts.lock().get(&user).cloned()
    }

    /// Records captured (negatives + sampled accepts).
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Accepted decisions the sampler dropped.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out.sum()
    }

    /// Captured records later recycled by ring wrap-around.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Clears records, timelines, and counters. Sequence numbers keep
    /// growing so records stay unique across resets.
    pub fn reset(&self) {
        for stripe in &self.stripes {
            stripe.lock().clear();
        }
        self.accounts.lock().clear();
        self.accept_ticket.zero();
        self.records.store(0, Ordering::Relaxed);
        self.sampled_out.zero();
        self.evicted.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn plane(config: AuditConfig) -> AuditPlane {
        AuditPlane::new(config, Arc::new(AtomicBool::new(true)))
    }

    fn decision(user: u64, at_secs: u64) -> DecisionBuilder {
        DecisionBuilder::new(user, 1, at_secs)
    }

    #[test]
    fn negative_records_carry_full_evidence() {
        let plane = plane(AuditConfig::default());
        let mut b = decision(7, 3600);
        b.vote("verifier-stack", "admit", "wifi-presence");
        b.verdict("branded-account", None, 0.0, 1.0, "", 120);
        b.verdict(
            "gps-proximity",
            Some("gps_mismatch"),
            1512.0,
            150.0,
            "m",
            950,
        );
        b.verify_ns(400);
        b.detect_ns(1100);
        b.total_ns(2000);
        plane.finish(&b, DecisionOutcome::Rejected("gps_mismatch"));

        let records = plane.decisions();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.user, 7);
        assert_eq!(r.at_secs, 3600);
        assert_eq!(r.outcome, "rejected.gps_mismatch");
        assert!(r.is_negative());
        assert_eq!(r.detectors.len(), 2);
        assert!(!r.detectors[0].fired);
        let fired: Vec<_> = r.fired().collect();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].detector, "gps-proximity");
        assert_eq!(fired[0].flag, "gps_mismatch");
        assert_eq!(fired[0].observed, 1512.0);
        assert_eq!(fired[0].threshold, 150.0);
        assert_eq!(fired[0].unit, "m");
        assert_eq!(r.votes[0].evidence, "wifi-presence");
        assert_eq!(r.stage_ns.detect, 1100);
        assert_eq!(r.stage_ns.total, 2000);

        let account = plane.account(7).unwrap();
        assert_eq!(account.flagged, 1);
        assert_eq!(account.first_offense_secs, Some(3600));
        assert_eq!(account.attribution["gps-proximity"], 1);
        assert_eq!(account.last_negative.as_ref().unwrap().seq, r.seq);
    }

    #[test]
    fn accepts_sample_one_in_n_exactly() {
        let plane = plane(AuditConfig {
            capacity: 4096,
            stripes: 4,
            sample_every: 8,
        });
        for i in 0..20 {
            plane.finish(&decision(i, i), DecisionOutcome::Accepted);
        }
        // Tickets 0, 8, 16 are kept: ceil(20 / 8) = 3.
        assert_eq!(plane.records(), 3);
        assert_eq!(plane.sampled_out(), 17);
        assert!(plane.decisions().iter().all(|r| !r.is_negative()));
    }

    #[test]
    fn sample_every_zero_keeps_no_accepts_but_all_negatives() {
        let plane = plane(AuditConfig {
            capacity: 64,
            stripes: 1,
            sample_every: 0,
        });
        plane.finish(&decision(1, 0), DecisionOutcome::Accepted);
        plane.finish(&decision(1, 1), DecisionOutcome::Rejected("rapid_fire"));
        assert_eq!(plane.records(), 1);
        assert_eq!(plane.sampled_out(), 1);
        assert_eq!(plane.decisions()[0].outcome, "rejected.rapid_fire");
    }

    #[test]
    fn disabled_plane_is_inert() {
        let enabled = Arc::new(AtomicBool::new(false));
        let plane = AuditPlane::new(AuditConfig::default(), Arc::clone(&enabled));
        plane.finish(&decision(1, 0), DecisionOutcome::Branded("rapid_fire"));
        assert_eq!(plane.records(), 0);
        assert!(plane.decisions().is_empty());
        enabled.store(true, Ordering::Relaxed);
        plane.finish(&decision(1, 0), DecisionOutcome::Branded("rapid_fire"));
        assert_eq!(plane.records(), 1);
    }

    #[test]
    fn ring_wrap_evicts_exactly_and_forensics_survive() {
        let plane = plane(AuditConfig {
            capacity: 4,
            stripes: 1,
            sample_every: 1,
        });
        for i in 0..10u64 {
            plane.finish(&decision(3, i), DecisionOutcome::Rejected("too_frequent"));
        }
        assert_eq!(plane.records(), 10);
        assert_eq!(plane.evicted(), 6);
        let retained = plane.decisions();
        assert_eq!(retained.len(), 4);
        assert_eq!(retained[0].seq, 6, "oldest records were recycled first");
        // The timeline saw all ten and still embeds the latest record.
        let account = plane.account(3).unwrap();
        assert_eq!(account.flagged, 10);
        assert_eq!(account.first_offense_secs, Some(0));
        assert_eq!(account.last_offense_secs, Some(9));
        assert_eq!(account.last_negative.as_ref().unwrap().at_secs, 9);
    }

    #[test]
    fn tail_sampling_invariants_hold_under_8_thread_contention() {
        const THREADS: u64 = 8;
        const ACCEPTS_PER_THREAD: u64 = 1000;
        const NEGATIVES_PER_THREAD: u64 = 125;
        const SAMPLE_EVERY: u64 = 8;
        let plane = Arc::new(plane(AuditConfig {
            capacity: 65536,
            stripes: 8,
            sample_every: SAMPLE_EVERY,
        }));
        let barrier = Arc::new(Barrier::new(THREADS as usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let plane = Arc::clone(&plane);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..ACCEPTS_PER_THREAD {
                        plane.finish(&decision(t, i), DecisionOutcome::Accepted);
                    }
                    for i in 0..NEGATIVES_PER_THREAD {
                        let outcome = if i % 2 == 0 {
                            DecisionOutcome::Rejected("superhuman_speed")
                        } else {
                            DecisionOutcome::Branded("rapid_fire")
                        };
                        plane.finish(&decision(t, ACCEPTS_PER_THREAD + i), outcome);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total_accepts = THREADS * ACCEPTS_PER_THREAD;
        let total_negatives = THREADS * NEGATIVES_PER_THREAD;
        // Accept tickets are per stripe, and each stripe keeps exactly
        // ceil(a / 8) of its `a` accepts. However the threads fall onto
        // stripes, each stripe's `a` is a sum of whole threads' 1000
        // accepts, a multiple of 8, so sampling stays exact, not
        // probabilistic: 8000 / 8 = 1000 kept.
        assert!(ACCEPTS_PER_THREAD.is_multiple_of(SAMPLE_EVERY));
        let kept_accepts = total_accepts / SAMPLE_EVERY;
        assert_eq!(plane.records(), kept_accepts + total_negatives);
        assert_eq!(plane.sampled_out(), total_accepts - kept_accepts);
        assert_eq!(
            plane.records() + plane.sampled_out(),
            total_accepts + total_negatives,
            "every decision is either captured or counted as sampled out"
        );
        assert_eq!(plane.evicted(), 0, "capacity was sized to never wrap");
        let records = plane.decisions();
        let negatives = records.iter().filter(|r| r.is_negative()).count() as u64;
        assert_eq!(negatives, total_negatives, "no negative was ever dropped");
        // Per-account timelines account for every negative exactly.
        let flagged: u64 = plane.forensics().iter().map(|a| a.flagged).sum();
        assert_eq!(flagged, total_negatives);
        for account in plane.forensics() {
            assert_eq!(account.flagged, NEGATIVES_PER_THREAD);
            assert!(account.branded);
        }
        // Sequence numbers are unique and dense.
        let mut seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), records.len());
    }

    #[test]
    fn records_round_trip_through_json() {
        let plane = plane(AuditConfig::default());
        let mut b = decision(42, 86_400);
        b.verdict("rapid-fire", Some("rapid_fire"), 4.0, 4.0, "checkins", 300);
        b.reward(0, 0, false, false);
        plane.finish(&b, DecisionOutcome::Branded("rapid_fire"));
        let record = &plane.decisions()[0];
        let json = serde_json::to_string(record).unwrap();
        let back: DecisionRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, record);

        let account = plane.account(42).unwrap();
        let json = serde_json::to_string(&account).unwrap();
        let back: AccountForensics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, account);
    }

    #[test]
    fn fold_records_rebuilds_timelines_from_a_dump() {
        let plane = plane(AuditConfig {
            capacity: 1024,
            stripes: 2,
            sample_every: 1,
        });
        plane.finish(&decision(1, 10), DecisionOutcome::Accepted);
        plane.finish(&decision(1, 20), DecisionOutcome::Rejected("gps_mismatch"));
        plane.finish(&decision(2, 30), DecisionOutcome::Branded("too_frequent"));
        let records = plane.decisions();
        let rebuilt = fold_records(&records);
        assert_eq!(rebuilt.len(), 2);
        assert_eq!(rebuilt[&1].accepted, 1);
        assert_eq!(rebuilt[&1].flagged, 1);
        assert!(!rebuilt[&1].branded);
        assert!(rebuilt[&2].branded);
        // Identical to what the plane folded live.
        assert_eq!(
            rebuilt.values().cloned().collect::<Vec<_>>(),
            plane.forensics()
        );
    }

    #[test]
    fn verifier_drops_attribute_the_rejecting_stage() {
        let plane = plane(AuditConfig::default());
        let mut b = decision(9, 50);
        b.vote("verifier-stack", "reject", "wifi-presence");
        plane.finish(&b, DecisionOutcome::VerifierRejected("verifier-stack"));
        let account = plane.account(9).unwrap();
        assert_eq!(account.attribution["verifier-stack"], 1);
        assert_eq!(
            account.last_negative.as_ref().unwrap().outcome,
            "verifier.verifier_stack"
        );
    }

    #[test]
    fn reset_clears_but_seq_keeps_growing() {
        let plane = plane(AuditConfig::default());
        plane.finish(&decision(1, 0), DecisionOutcome::Rejected("rapid_fire"));
        let first_seq = plane.decisions()[0].seq;
        plane.reset();
        assert_eq!(plane.records(), 0);
        assert!(plane.decisions().is_empty());
        assert!(plane.forensics().is_empty());
        plane.finish(&decision(1, 0), DecisionOutcome::Rejected("rapid_fire"));
        assert!(plane.decisions()[0].seq > first_seq);
    }
}
