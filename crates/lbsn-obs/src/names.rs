//! The workspace's metric, span, and event **name registry**.
//!
//! Every observability name the reproduction emits is declared here
//! exactly once, as a constant (or, for families with a runtime-chosen
//! segment, a `{placeholder}` pattern plus a builder function). The
//! rest of the workspace references these constants instead of inline
//! string literals, and `lbsn-lint` enforces it: a metric-shaped string
//! literal anywhere in the tree — source, `baselines/slo.json`, README,
//! EXPERIMENTS.md — that does not resolve against [`REGISTERED`] fails
//! the `unregistered-metric-name` rule.
//!
//! Names follow `subsystem.component.metric`; placeholders stand for
//! exactly one dot-free segment.

/// Names emitted by `lbsn-server` (check-in pipeline, rewards, shards).
pub mod server {
    /// Root span of one check-in through the admission pipeline.
    pub const CHECKIN_SPAN: &str = "server.checkin";
    /// Whole-pipeline latency (sketch, ns).
    pub const CHECKIN_TOTAL: &str = "server.checkin.total";
    /// Pre-admission verifier stage (span + sketch); only sampled on
    /// deployments with verifiers installed.
    pub const STAGE_VERIFY: &str = "server.checkin.stage.verify";
    /// GPS verification + cheater-code rule evaluation (span + sketch).
    pub const STAGE_CHEATER_CODE: &str = "server.checkin.stage.cheater_code";
    /// History append + flag bookkeeping (span + sketch).
    pub const STAGE_RECORD: &str = "server.checkin.stage.record";
    /// Mayorship, badges, points, specials (span + sketch).
    pub const STAGE_REWARDS: &str = "server.checkin.stage.rewards";
    /// Check-ins that earned rewards.
    pub const ACCEPTED: &str = "server.checkin.accepted";
    /// Check-ins flagged by at least one cheater-code rule.
    pub const REJECTED: &str = "server.checkin.rejected";
    /// Check-ins dropped by a verifier stage before being recorded.
    pub const VERIFIER_REJECTED: &str = "server.checkin.verifier_rejected";
    /// Accounts escalated to branded-cheater status.
    pub const BRANDED: &str = "server.checkin.branded";
    /// One counter per cheater-code flag.
    pub const FLAG_GPS_MISMATCH: &str = "server.checkin.flag.gps_mismatch";
    pub const FLAG_TOO_FREQUENT: &str = "server.checkin.flag.too_frequent";
    pub const FLAG_SUPERHUMAN_SPEED: &str = "server.checkin.flag.superhuman_speed";
    pub const FLAG_RAPID_FIRE: &str = "server.checkin.flag.rapid_fire";
    pub const FLAG_ACCOUNT_FLAGGED: &str = "server.checkin.flag.account_flagged";
    /// Check-in lock acquisitions that widened the optimistic shard set
    /// after discovering an uncovered incumbent mayor.
    pub const LOCK_RETRY: &str = "server.checkin.lock_retry";
    /// Check-ins that exhausted the widening retries and fell back to
    /// locking every user shard.
    pub const LOCK_FALLBACK: &str = "server.checkin.lock_fallback";
    /// Times detector `{detector}` raised its flag.
    pub const DETECTOR_REJECTED_PATTERN: &str = "server.checkin.detector.{detector}.rejected";
    /// Per-check-in cost of detector `{detector}` (sketch, ns).
    pub const DETECTOR_LATENCY_PATTERN: &str = "server.checkin.detector.{detector}.latency";
    /// Times verifier stage `{verifier}` rejected a check-in.
    pub const VERIFIER_REJECTED_PATTERN: &str = "server.checkin.verifier.{verifier}.rejected";
    /// Badges awarded.
    pub const BADGES_GRANTED: &str = "server.rewards.badges_granted";
    /// Mayorship handovers (became-mayor transitions).
    pub const MAYORSHIPS_GRANTED: &str = "server.rewards.mayorships_granted";
    /// Points awarded.
    pub const POINTS_GRANTED: &str = "server.rewards.points_granted";
    /// Shard-lock acquisition wait, nanoseconds (sketch; 0 on the
    /// uncontended try-lock fast path).
    pub const SHARD_LOCK_WAIT: &str = "server.shard.lock_wait";
    /// Configured lock-stripe count.
    pub const SHARD_COUNT: &str = "server.shard.count";
    /// Per-shard contention heatmap for the `{family}` shard family
    /// (`users` / `venues`) — ops, waits, and occupancy per stripe.
    pub const SHARD_HEAT_PATTERN: &str = "server.shard.heat.{family}";
    /// Trace event recorded when an account is branded a cheater.
    pub const ACCOUNT_BRANDED_EVENT: &str = "server.account.branded";
    /// Deep owned bytes across all user records (sampled gauge).
    pub const MEM_USERS_BYTES: &str = "server.mem.users_bytes";
    /// Deep owned bytes across all venue records (sampled gauge).
    pub const MEM_VENUES_BYTES: &str = "server.mem.venues_bytes";
    /// Deep owned bytes in the side maps (username/venue-name indexes).
    pub const MEM_SIDE_MAPS_BYTES: &str = "server.mem.side_maps_bytes";
    /// Total sampled deep owned bytes of server state.
    pub const MEM_TOTAL_BYTES: &str = "server.mem.total_bytes";
    /// Total sampled bytes divided by registered users — the paper-scale
    /// capacity-planning number the scale ladder tracks per rung.
    pub const MEM_BYTES_PER_USER: &str = "server.mem.bytes_per_user";
    /// Memory-sampler sweeps taken (each sweep refreshes every
    /// `server.mem.*` gauge and the heatmap occupancy rows).
    pub const MEM_SAMPLES: &str = "server.mem.samples";
    /// Trace event recorded when a flight dump is written.
    pub const FLIGHT_DUMP_EVENT: &str = "server.flight.dump";
    /// Check-ins submitted to the request frontend (enqueued + shed).
    pub const FRONTEND_SUBMITTED: &str = "server.frontend.submitted";
    /// Check-ins the frontend's batch-drain workers decided (the
    /// queue-conservation counterpart: submitted = decided + shed).
    pub const FRONTEND_DECIDED: &str = "server.frontend.decided";
    /// Submissions shed at the queue high-water mark with a
    /// retry-after instead of being enqueued.
    pub const FRONTEND_SHED: &str = "server.frontend.shed";
    /// Check-ins currently queued across all frontend shard queues.
    pub const FRONTEND_QUEUE_DEPTH: &str = "server.frontend.queue_depth";
    /// Ops admitted per batch drain (count histogram with power-of-two
    /// bounds — how much lock amortization the workers actually got).
    pub const FRONTEND_BATCH_SIZE: &str = "server.frontend.batch_size";
    /// Submit→decision sojourn latency through the frontend queue
    /// (sketch, ns).
    pub const FRONTEND_SOJOURN: &str = "server.frontend.sojourn";
    /// Decision records the audit plane captured (negatives + sampled
    /// accepts).
    pub const AUDIT_RECORDS: &str = "server.audit.records";
    /// Accepted decisions the audit tail sampler dropped.
    pub const AUDIT_SAMPLED_OUT: &str = "server.audit.sampled_out";
    /// Captured decision records recycled by audit-ring wrap-around.
    pub const AUDIT_EVICTED: &str = "server.audit.evicted";

    /// Resolved name of the per-detector rejection counter. Dashes in
    /// the stable detector name become underscores, keeping the metric
    /// namespace dot-and-underscore only.
    pub fn detector_rejected(detector: &str) -> String {
        let detector = detector.replace('-', "_");
        DETECTOR_REJECTED_PATTERN.replace("{detector}", &detector)
    }

    /// Resolved name of the per-detector latency sketch.
    pub fn detector_latency(detector: &str) -> String {
        let detector = detector.replace('-', "_");
        DETECTOR_LATENCY_PATTERN.replace("{detector}", &detector)
    }

    /// Resolved name of the per-verifier rejection counter.
    pub fn verifier_rejected(verifier: &str) -> String {
        let verifier = verifier.replace('-', "_");
        VERIFIER_REJECTED_PATTERN.replace("{verifier}", &verifier)
    }

    /// Resolved name of a shard family's contention heatmap.
    pub fn shard_heat(family: &str) -> String {
        SHARD_HEAT_PATTERN.replace("{family}", family)
    }
}

/// Names emitted by `lbsn-crawler` (page loop, throughput gauges).
pub mod crawler {
    /// Root span of one crawled page (fetch → parse → store children).
    pub const PAGE_SPAN: &str = "crawler.page";
    /// Fetch latency (sketch, simulated ns) and the fetch child
    /// span — one name, two views of the same stage.
    pub const FETCH: &str = "crawler.fetch";
    /// HTTP requests issued (retries included).
    pub const FETCH_PAGES: &str = "crawler.fetch.pages";
    /// Transient-failure (503) retries.
    pub const FETCH_RETRIES: &str = "crawler.fetch.retries";
    /// Requests that exhausted retries or returned hard errors.
    pub const FETCH_ERRORS: &str = "crawler.fetch.errors";
    /// Parse child span.
    pub const PARSE_SPAN: &str = "crawler.parse";
    /// 200 responses the scraper rejected.
    pub const PARSE_ERRORS: &str = "crawler.parse.errors";
    /// Store child span.
    pub const STORE_SPAN: &str = "crawler.store";
    /// Profile rows stored.
    pub const STORE_USERS: &str = "crawler.store.users";
    /// Venue rows stored.
    pub const STORE_VENUES: &str = "crawler.store.venues";
    /// Aggregate crawl throughput in the paper's Fig 3.3/3.4 units.
    pub const THROUGHPUT_PATTERN: &str = "crawler.throughput.{unit}";
    pub const THROUGHPUT_USERS_PER_HOUR: &str = "crawler.throughput.users_per_hour";
    pub const THROUGHPUT_VENUES_PER_HOUR: &str = "crawler.throughput.venues_per_hour";
    /// Per-worker-thread crawl throughput.
    pub const THREAD_THROUGHPUT_PATTERN: &str = "crawler.thread.{thread}.{unit}";
    /// Trace event summarizing a finished crawl run.
    pub const RUN_FINISHED_EVENT: &str = "crawler.run.finished";

    /// Resolved aggregate-throughput gauge name for a target unit
    /// (`users_per_hour` / `venues_per_hour`).
    pub fn throughput(unit: &str) -> String {
        THROUGHPUT_PATTERN.replace("{unit}", unit)
    }

    /// Resolved per-thread throughput gauge name.
    pub fn thread_throughput(thread: usize, unit: &str) -> String {
        THREAD_THROUGHPUT_PATTERN
            .replace("{thread}", &thread.to_string())
            .replace("{unit}", unit)
    }
}

/// Names emitted by `lbsn-attack` (campaign executor).
pub mod attack {
    /// Force-sampled root span of one attack campaign.
    pub const CAMPAIGN_SPAN: &str = "attack.campaign";
    /// One child span per scheduled path step.
    pub const STEP_SPAN: &str = "attack.step";
    /// Check-ins the executor submitted.
    pub const CHECKINS_ATTEMPTED: &str = "attack.checkins.attempted";
    /// Submitted check-ins that earned rewards.
    pub const CHECKINS_REWARDED: &str = "attack.checkins.rewarded";
    /// Submitted check-ins the cheater code flagged.
    pub const CHECKINS_FLAGGED: &str = "attack.checkins.flagged";
    /// Submitted check-ins a §5.1 verifier stage dropped pre-admission.
    pub const CHECKINS_VERIFIER_REJECTED: &str = "attack.checkins.verifier_rejected";
    /// Lengths of consecutive-unflagged runs.
    pub const EVASION_STREAK: &str = "attack.evasion.streak";
}

/// Terminal-outcome **reason slugs** the decision audit plane writes
/// into [`crate::DecisionRecord::outcome`]. Slugs are dot-separated like
/// metric names but live in their own namespace — the first segment is
/// the outcome kind (`accepted` / `rejected` / `branded` / `verifier`),
/// structurally disjoint from the metric subsystems above. `lbsn-lint`
/// enforces the registry with the `audit-reason-unregistered` rule:
/// a reason-shaped literal in `lbsn-server` / `lbsn-defense` must
/// resolve against [`REGISTERED_REASONS`].
pub mod reasons {
    /// The check-in was recorded and rewarded.
    pub const ACCEPTED: &str = "accepted";
    /// First segment of every flagged-but-not-branding reason.
    pub const REJECTED_PREFIX: &str = "rejected.";
    /// First segment of every reason that tipped an account into
    /// branded-cheater status.
    pub const BRANDED_PREFIX: &str = "branded.";
    /// One reason per cheater-code flag, rejected tier.
    pub const REJECTED_GPS_MISMATCH: &str = "rejected.gps_mismatch";
    pub const REJECTED_TOO_FREQUENT: &str = "rejected.too_frequent";
    pub const REJECTED_SUPERHUMAN_SPEED: &str = "rejected.superhuman_speed";
    pub const REJECTED_RAPID_FIRE: &str = "rejected.rapid_fire";
    pub const REJECTED_ACCOUNT_FLAGGED: &str = "rejected.account_flagged";
    /// One reason per cheater-code flag, branding tier.
    pub const BRANDED_GPS_MISMATCH: &str = "branded.gps_mismatch";
    pub const BRANDED_TOO_FREQUENT: &str = "branded.too_frequent";
    pub const BRANDED_SUPERHUMAN_SPEED: &str = "branded.superhuman_speed";
    pub const BRANDED_RAPID_FIRE: &str = "branded.rapid_fire";
    pub const BRANDED_ACCOUNT_FLAGGED: &str = "branded.account_flagged";
    /// Dropped pre-admission by verifier stage `{verifier}`.
    pub const VERIFIER_PATTERN: &str = "verifier.{verifier}";
    /// Shed by the request frontend at the queue high-water mark —
    /// never admitted, never recorded, told to retry later.
    pub const SHED_QUEUE_FULL: &str = "shed.queue_full";

    /// Resolved rejected-tier reason for a flag slug.
    pub fn rejected(flag_slug: &str) -> String {
        format!("{}{}", REJECTED_PREFIX, flag_slug.replace('-', "_"))
    }

    /// Resolved branding-tier reason for a flag slug.
    pub fn branded(flag_slug: &str) -> String {
        format!("{}{}", BRANDED_PREFIX, flag_slug.replace('-', "_"))
    }

    /// Resolved reason for a verifier-stage drop. Dashes in the stable
    /// stage name become underscores, as in the metric namespace.
    pub fn verifier(stage: &str) -> String {
        let stage = stage.replace('-', "_");
        VERIFIER_PATTERN.replace("{verifier}", &stage)
    }
}

/// Every registered terminal-outcome reason slug and pattern, the
/// ground truth behind [`is_registered_reason`] and the
/// `audit-reason-unregistered` lint rule.
pub const REGISTERED_REASONS: &[&str] = &[
    reasons::ACCEPTED,
    reasons::REJECTED_GPS_MISMATCH,
    reasons::REJECTED_TOO_FREQUENT,
    reasons::REJECTED_SUPERHUMAN_SPEED,
    reasons::REJECTED_RAPID_FIRE,
    reasons::REJECTED_ACCOUNT_FLAGGED,
    reasons::BRANDED_GPS_MISMATCH,
    reasons::BRANDED_TOO_FREQUENT,
    reasons::BRANDED_SUPERHUMAN_SPEED,
    reasons::BRANDED_RAPID_FIRE,
    reasons::BRANDED_ACCOUNT_FLAGGED,
    reasons::VERIFIER_PATTERN,
    reasons::SHED_QUEUE_FULL,
];

/// Whether `reason` resolves against the reason registry. Matching is
/// segment-wise with the same placeholder rule as [`is_registered`].
pub fn is_registered_reason(reason: &str) -> bool {
    REGISTERED_REASONS
        .iter()
        .any(|pat| segments_match(pat, reason))
}

/// Every registered name and `{placeholder}` pattern, the ground truth
/// behind [`is_registered`] and the `lbsn-lint` name scan.
pub const REGISTERED: &[&str] = &[
    server::CHECKIN_SPAN,
    server::CHECKIN_TOTAL,
    server::STAGE_VERIFY,
    server::STAGE_CHEATER_CODE,
    server::STAGE_RECORD,
    server::STAGE_REWARDS,
    server::ACCEPTED,
    server::REJECTED,
    server::VERIFIER_REJECTED,
    server::BRANDED,
    server::FLAG_GPS_MISMATCH,
    server::FLAG_TOO_FREQUENT,
    server::FLAG_SUPERHUMAN_SPEED,
    server::FLAG_RAPID_FIRE,
    server::FLAG_ACCOUNT_FLAGGED,
    server::LOCK_RETRY,
    server::LOCK_FALLBACK,
    server::DETECTOR_REJECTED_PATTERN,
    server::DETECTOR_LATENCY_PATTERN,
    server::VERIFIER_REJECTED_PATTERN,
    server::BADGES_GRANTED,
    server::MAYORSHIPS_GRANTED,
    server::POINTS_GRANTED,
    server::SHARD_LOCK_WAIT,
    server::SHARD_COUNT,
    server::SHARD_HEAT_PATTERN,
    server::ACCOUNT_BRANDED_EVENT,
    server::MEM_USERS_BYTES,
    server::MEM_VENUES_BYTES,
    server::MEM_SIDE_MAPS_BYTES,
    server::MEM_TOTAL_BYTES,
    server::MEM_BYTES_PER_USER,
    server::MEM_SAMPLES,
    server::FLIGHT_DUMP_EVENT,
    server::FRONTEND_SUBMITTED,
    server::FRONTEND_DECIDED,
    server::FRONTEND_SHED,
    server::FRONTEND_QUEUE_DEPTH,
    server::FRONTEND_BATCH_SIZE,
    server::FRONTEND_SOJOURN,
    server::AUDIT_RECORDS,
    server::AUDIT_SAMPLED_OUT,
    server::AUDIT_EVICTED,
    crawler::PAGE_SPAN,
    crawler::FETCH,
    crawler::FETCH_PAGES,
    crawler::FETCH_RETRIES,
    crawler::FETCH_ERRORS,
    crawler::PARSE_SPAN,
    crawler::PARSE_ERRORS,
    crawler::STORE_SPAN,
    crawler::STORE_USERS,
    crawler::STORE_VENUES,
    crawler::THROUGHPUT_PATTERN,
    crawler::THROUGHPUT_USERS_PER_HOUR,
    crawler::THROUGHPUT_VENUES_PER_HOUR,
    crawler::THREAD_THROUGHPUT_PATTERN,
    crawler::RUN_FINISHED_EVENT,
    attack::CAMPAIGN_SPAN,
    attack::STEP_SPAN,
    attack::CHECKINS_ATTEMPTED,
    attack::CHECKINS_REWARDED,
    attack::CHECKINS_FLAGGED,
    attack::CHECKINS_VERIFIER_REJECTED,
    attack::EVASION_STREAK,
];

/// Whether `name` resolves against the registry.
///
/// Matching is segment-wise on `.`-separated names: a literal segment
/// matches itself, and a `{placeholder}` segment — on *either* side —
/// matches any single segment. The either-side rule is what lets the
/// lint validate an unexpanded `format!` literal such as
/// `"crawler.throughput.{unit}"` as well as its expansion
/// `"crawler.throughput.users_per_hour"`.
pub fn is_registered(name: &str) -> bool {
    REGISTERED.iter().any(|pat| segments_match(pat, name))
}

fn is_placeholder(seg: &str) -> bool {
    seg.len() > 2 && seg.starts_with('{') && seg.ends_with('}')
}

/// Whether `name` matches `pattern` segment-by-segment, where a
/// `{placeholder}` segment (on either side) matches any one segment —
/// the registry's matching core, exported for tools (lbsn-lint's
/// dead-metric audit) that compare one specific pattern against
/// recorded literals rather than the whole registry.
pub fn segments_match(pattern: &str, name: &str) -> bool {
    let mut p = pattern.split('.');
    let mut n = name.split('.');
    loop {
        match (p.next(), n.next()) {
            (None, None) => return true,
            (Some(ps), Some(ns)) => {
                if ps != ns && !is_placeholder(ps) && !is_placeholder(ns) {
                    return false;
                }
                if ns.is_empty() {
                    return false;
                }
            }
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_names_resolve() {
        assert!(is_registered(server::CHECKIN_TOTAL));
        assert!(is_registered(crawler::THROUGHPUT_USERS_PER_HOUR));
        assert!(is_registered(attack::EVASION_STREAK));
        assert!(is_registered(server::FRONTEND_SOJOURN));
    }

    #[test]
    fn patterns_resolve_expansions_and_format_literals() {
        assert!(is_registered(
            "server.checkin.detector.gps_proximity.latency"
        ));
        assert!(is_registered(
            "server.checkin.verifier.verifier_stack.rejected"
        ));
        assert!(is_registered("crawler.thread.7.users_per_hour"));
        // Unexpanded format! literals: placeholder on the name side.
        assert!(is_registered("crawler.throughput.{unit}"));
        assert!(is_registered("server.checkin.detector.{slug}.rejected"));
        assert!(is_registered("crawler.thread.{i}.{unit}"));
    }

    #[test]
    fn unregistered_names_are_rejected() {
        assert!(!is_registered("server.checkin.totals"));
        assert!(!is_registered("attack.checkins.retried"));
    }

    #[test]
    fn near_misses_are_rejected() {
        assert!(!is_registered("server.checkin.total.extra"));
        assert!(!is_registered("server.checkin.detector.rejected"));
        assert!(!is_registered("gateway.checkin.total"));
        assert!(!is_registered("crawler.throughput"));
        assert!(!is_registered(""));
    }

    #[test]
    fn builders_expand_patterns() {
        assert_eq!(
            server::detector_rejected("gps-proximity"),
            "server.checkin.detector.gps_proximity.rejected"
        );
        assert_eq!(
            server::verifier_rejected("wifi-presence"),
            "server.checkin.verifier.wifi_presence.rejected"
        );
        assert_eq!(
            crawler::thread_throughput(3, "venues_per_hour"),
            "crawler.thread.3.venues_per_hour"
        );
        assert!(is_registered(&server::detector_latency("rapid-fire")));
        assert!(is_registered(&crawler::throughput("users_per_hour")));
        assert_eq!(server::shard_heat("users"), "server.shard.heat.users");
        assert!(is_registered(&server::shard_heat("venues")));
    }

    #[test]
    fn scale_observatory_names_resolve() {
        assert!(is_registered(server::MEM_USERS_BYTES));
        assert!(is_registered(server::MEM_VENUES_BYTES));
        assert!(is_registered(server::MEM_SIDE_MAPS_BYTES));
        assert!(is_registered(server::MEM_TOTAL_BYTES));
        assert!(is_registered(server::MEM_BYTES_PER_USER));
        assert!(is_registered(server::MEM_SAMPLES));
        assert!(is_registered(server::FLIGHT_DUMP_EVENT));
        assert!(!is_registered("server.mem.bytes_per_venue"));
    }

    #[test]
    fn every_registered_entry_self_matches() {
        for pat in REGISTERED {
            assert!(is_registered(pat), "{pat} must match itself");
        }
    }

    #[test]
    fn audit_plane_names_resolve() {
        assert!(is_registered(server::AUDIT_RECORDS));
        assert!(is_registered(server::AUDIT_SAMPLED_OUT));
        assert!(is_registered(server::AUDIT_EVICTED));
        assert!(!is_registered("server.audit.dropped"));
    }

    #[test]
    fn frontend_names_resolve() {
        assert!(is_registered(server::FRONTEND_SUBMITTED));
        assert!(is_registered(server::FRONTEND_DECIDED));
        assert!(is_registered(server::FRONTEND_SHED));
        assert!(is_registered(server::FRONTEND_QUEUE_DEPTH));
        assert!(is_registered(server::FRONTEND_BATCH_SIZE));
        assert!(is_registered(server::FRONTEND_SOJOURN));
        assert!(!is_registered("server.frontend.dropped"));
        assert!(is_registered_reason(reasons::SHED_QUEUE_FULL));
        assert!(!is_registered_reason("shed.overload"));
    }

    #[test]
    fn reason_slugs_resolve() {
        assert!(is_registered_reason(reasons::ACCEPTED));
        assert!(is_registered_reason("rejected.gps_mismatch"));
        assert!(is_registered_reason("branded.rapid_fire"));
        assert!(is_registered_reason("verifier.verifier_stack"));
        assert!(is_registered_reason(reasons::VERIFIER_PATTERN));
        for pat in REGISTERED_REASONS {
            assert!(is_registered_reason(pat), "{pat} must match itself");
        }
    }

    #[test]
    fn unregistered_reasons_are_rejected() {
        assert!(!is_registered_reason("rejected.gps_mismtach"), "typo");
        assert!(!is_registered_reason("rejected"), "tier alone");
        assert!(!is_registered_reason("accepted.extra"));
        assert!(!is_registered_reason("throttled.rapid_fire"));
        // Reason and metric namespaces stay disjoint.
        assert!(!is_registered(reasons::REJECTED_RAPID_FIRE));
        assert!(!is_registered_reason(server::AUDIT_RECORDS));
    }

    #[test]
    fn reason_builders_expand() {
        assert_eq!(reasons::rejected("gps_mismatch"), "rejected.gps_mismatch");
        assert_eq!(reasons::branded("rapid_fire"), "branded.rapid_fire");
        assert_eq!(
            reasons::verifier("verifier-stack"),
            "verifier.verifier_stack"
        );
        assert!(is_registered_reason(&reasons::verifier("wifi-presence")));
    }
}
