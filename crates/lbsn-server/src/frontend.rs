//! The batched request frontend: bounded per-shard submission queues,
//! batch-drain workers, and admission backpressure.
//!
//! The paper's measurement campaign shaped its traffic the way any
//! networked service sees it — bursty, concurrent, and far above the
//! sustainable rate when an automated campaign runs hot (§3.2). The
//! in-process [`LbsnServer::check_in`] call pays one user-shard
//! `write_set` acquisition and one venue-shard acquisition per op; this
//! module amortizes that cost by queueing submissions per *user shard*
//! and letting a small pool of workers drain up to
//! [`FrontendConfig::batch_max`] ops from one queue at a time into
//! [`LbsnServer::check_in_batch`] — one lock acquisition per batch
//! instead of per check-in.
//!
//! # Queue topology
//!
//! One bounded MPSC queue per user shard, routed by
//! [`LbsnServer::user_shard`]. A submission for user *u* always lands
//! on queue `shard(u)`, so two check-ins by the same user can never
//! reorder: they sit in the same FIFO queue and are drained by the same
//! worker. Worker *w* owns queues `{s : s mod workers == w}`; ownership
//! is static, so no queue is ever drained by two workers and batches
//! never interleave within a queue.
//!
//! # Backpressure
//!
//! Each queue's capacity ([`FrontendConfig::queue_depth`]) is its
//! high-water mark. A submission that finds its queue full is **shed**:
//! counted (`server.frontend.shed`), written to the decision audit
//! plane with the terminal reason `shed.queue_full`, and returned as
//! [`SubmitOutcome::Shed`] with a retry-after hint instead of blocking
//! the caller. Shedding at the edge keeps the sojourn of *admitted*
//! work bounded: past saturation the shed rate absorbs the overload
//! instead of the queue. The `perf` benchmark's `paper_rung_frontend`
//! workload measures sojourn through the frontend.
//!
//! # Lock-order discipline
//!
//! The frontend itself takes no shard locks — it only routes. All
//! locking happens inside [`LbsnServer::check_in_batch`], which obeys
//! the four rules documented on [`crate::shard`] (user shards ascending
//! before one venue shard at a time; side maps as leaves). The worker's
//! own queue mutex is released before the batch call, so it composes as
//! a leaf and never orders against a shard lock.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Condvar;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

use lbsn_obs::{DecisionBuilder, DecisionOutcome};
use serde::{Deserialize, Serialize};

use crate::checkin::{CheckinError, CheckinOutcome, CheckinRequest};
use crate::server::LbsnServer;

/// EWMA weight (1/2^N) for the per-op service-time estimate that backs
/// the shed retry-after hint.
const SERVICE_EWMA_SHIFT: u32 = 3;

/// Starting per-op service-time estimate (ns) before the first batch
/// completes — the scale of an uncontended check-in.
const SERVICE_NS_SEED: u64 = 10_000;

/// Deployment knobs for the request frontend. Serde-round-trippable so
/// a scenario file can carry them next to the [`crate::ServerConfig`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrontendConfig {
    /// Batch-drain worker threads. Each worker statically owns the
    /// queues of user shards `s` with `s % workers == w`.
    pub workers: usize,
    /// Per-queue capacity — the high-water mark past which submissions
    /// are shed with a retry-after instead of enqueued.
    pub queue_depth: usize,
    /// Most ops a worker admits per [`LbsnServer::check_in_batch`]
    /// call. `1` degenerates to per-op admission through the queue.
    pub batch_max: usize,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            workers: 4,
            queue_depth: 1024,
            batch_max: 64,
        }
    }
}

/// What [`RequestFrontend::submit`] did with a check-in.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// Queued for admission; wait on the ticket for the decision.
    Enqueued(CheckinTicket),
    /// The user's shard queue was at its high-water mark; the check-in
    /// was not recorded anywhere. `retry_after` estimates when the
    /// queue will have drained enough to accept a resubmission.
    Shed {
        /// Drain-rate-based resubmission hint.
        retry_after: Duration,
    },
}

impl SubmitOutcome {
    /// Blocks until the decision for an enqueued submission; maps a
    /// shed submission to [`CheckinError::Shed`] with its hint.
    pub fn wait(self) -> Result<CheckinOutcome, CheckinError> {
        match self {
            SubmitOutcome::Enqueued(ticket) => ticket.wait(),
            SubmitOutcome::Shed { retry_after } => Err(CheckinError::Shed { retry_after }),
        }
    }

    /// Whether the submission was shed at the high-water mark.
    pub fn is_shed(&self) -> bool {
        matches!(self, SubmitOutcome::Shed { .. })
    }
}

/// A handle to one queued check-in's eventual decision.
#[derive(Debug)]
pub struct CheckinTicket {
    inner: Arc<Ticket>,
}

impl CheckinTicket {
    /// Blocks until the batch worker decides this check-in.
    pub fn wait(self) -> Result<CheckinOutcome, CheckinError> {
        let mut slot = self
            .inner
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self
                .inner
                .decided
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Shared submit→decide rendezvous cell. The worker fills the slot and
/// signals; the submitter waits. Uses `std::sync::Mutex` directly
/// (not the vendored wrapper) because `Condvar::wait` needs the real
/// guard type by value.
#[derive(Debug)]
struct Ticket {
    slot: std::sync::Mutex<Option<Result<CheckinOutcome, CheckinError>>>, // lint:allow(no-std-sync): Condvar rendezvous needs the std guard
    decided: Condvar,
}

impl Ticket {
    fn new() -> Arc<Self> {
        Arc::new(Ticket {
            slot: std::sync::Mutex::new(None), // lint:allow(no-std-sync): Condvar rendezvous needs the std guard
            decided: Condvar::new(),
        })
    }

    fn fulfill(&self, result: Result<CheckinOutcome, CheckinError>) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some(result);
        drop(slot);
        self.decided.notify_all();
    }
}

/// One queued submission.
struct Pending {
    req: CheckinRequest,
    ticket: Arc<Ticket>,
    submitted: Instant,
}

/// A worker's inbox: the FIFO queues of the user shards it owns, plus
/// a round-robin cursor so one hot shard cannot starve the others.
struct Inbox {
    /// `queues[i]` holds shard `worker + i * workers`.
    queues: Vec<std::collections::VecDeque<Pending>>,
    /// Next queue index to drain from.
    cursor: usize,
}

/// Per-worker shared state: the inbox under a std mutex (the paired
/// `Condvar` needs the std guard by value) and the wakeup signal.
struct WorkerState {
    inbox: std::sync::Mutex<Inbox>, // lint:allow(no-std-sync): Condvar pairing needs the std guard
    wake: Condvar,
}

/// State shared by submitters and workers.
struct Shared {
    server: Arc<LbsnServer>,
    config: FrontendConfig,
    workers: Vec<WorkerState>,
    shutdown: AtomicBool,
    /// Check-ins currently queued across all queues (drives the
    /// `server.frontend.queue_depth` gauge and [`RequestFrontend::quiesce`]).
    queued: AtomicU64,
    /// Enqueued submissions whose tickets have not been fulfilled yet.
    in_flight: AtomicU64,
    /// EWMA of per-op batch service time, nanoseconds — the drain-rate
    /// estimate behind the shed retry-after hint.
    service_ns: AtomicU64,
}

impl Shared {
    /// The worker owning `shard` and the inbox queue index of `shard`
    /// within that worker.
    fn route(&self, shard: usize) -> (usize, usize) {
        let workers = self.config.workers;
        (shard % workers, shard / workers)
    }
}

/// The batched admission frontend over an [`LbsnServer`]. See the
/// module docs for topology and backpressure semantics.
///
/// Dropping the frontend drains every queue (workers exit only once
/// their queues are empty), so no ticket is left undecided.
pub struct RequestFrontend {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl RequestFrontend {
    /// Spawns the batch-drain workers over `server`.
    pub fn new(server: Arc<LbsnServer>, config: FrontendConfig) -> Self {
        let config = FrontendConfig {
            workers: config.workers.max(1),
            queue_depth: config.queue_depth.max(1),
            batch_max: config.batch_max.max(1),
        };
        let shard_count = server.shard_count();
        let workers = (0..config.workers.min(shard_count).max(1))
            .map(|w| WorkerState {
                // lint:allow(no-std-sync): Condvar pairing needs the std guard
                inbox: std::sync::Mutex::new(Inbox {
                    // Worker w owns shards w, w+workers, ... < shard_count.
                    queues: (w..shard_count)
                        .step_by(config.workers.min(shard_count).max(1))
                        .map(|_| std::collections::VecDeque::new())
                        .collect(),
                    cursor: 0,
                }),
                wake: Condvar::new(),
            })
            .collect::<Vec<_>>();
        let shared = Arc::new(Shared {
            server,
            config: FrontendConfig {
                workers: workers.len(),
                ..config
            },
            workers,
            shutdown: AtomicBool::new(false),
            queued: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            service_ns: AtomicU64::new(SERVICE_NS_SEED),
        });
        let handles = (0..shared.config.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lbsn-frontend-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .unwrap_or_else(|e| panic!("spawn frontend worker {w}: {e}"))
            })
            .collect();
        RequestFrontend { shared, handles }
    }

    /// The resolved configuration (worker count clamped to the shard
    /// count).
    pub fn config(&self) -> &FrontendConfig {
        &self.shared.config
    }

    /// Submits a check-in to its user-shard queue. Never blocks on a
    /// full queue: past the high-water mark the submission is shed with
    /// a retry-after hint and an audit record (`shed.queue_full`).
    pub fn submit(&self, req: CheckinRequest) -> SubmitOutcome {
        let shared = &self.shared;
        let metrics = shared.server.metrics();
        metrics.frontend_submitted.inc();
        let shard = shared.server.user_shard(req.user);
        let (worker, queue) = shared.route(shard);
        let state = &shared.workers[worker];
        let (ticket, depth) = {
            let mut inbox = state.inbox.lock().unwrap_or_else(PoisonError::into_inner);
            let q = &mut inbox.queues[queue];
            if q.len() >= shared.config.queue_depth || shared.shutdown.load(Ordering::Acquire) {
                drop(inbox);
                return self.shed(&req);
            }
            // Count before the push is visible: the worker takes the
            // batch under this lock and then subtracts it, so counting
            // after the push lets its subtraction run first and wrap.
            let depth = shared.queued.fetch_add(1, Ordering::AcqRel) + 1;
            shared.in_flight.fetch_add(1, Ordering::AcqRel);
            let ticket = Ticket::new();
            q.push_back(Pending {
                req,
                ticket: Arc::clone(&ticket),
                submitted: Instant::now(),
            });
            (ticket, depth)
        };
        metrics.frontend_queue_depth.set(depth as f64);
        state.wake.notify_one();
        SubmitOutcome::Enqueued(CheckinTicket { inner: ticket })
    }

    /// Records a shed decision and builds its retry-after hint from the
    /// drain-rate estimate: roughly the time the owning worker needs to
    /// work off one full queue.
    fn shed(&self, req: &CheckinRequest) -> SubmitOutcome {
        let shared = &self.shared;
        let metrics = shared.server.metrics();
        metrics.frontend_shed.inc();
        let now = shared.server.clock().now();
        let decision = DecisionBuilder::new(req.user.value(), req.venue.value(), now.secs());
        metrics.audit.finish(&decision, DecisionOutcome::Shed);
        let service_ns = shared.service_ns.load(Ordering::Relaxed).max(1);
        let retry_after =
            Duration::from_nanos(service_ns.saturating_mul(shared.config.queue_depth as u64));
        SubmitOutcome::Shed { retry_after }
    }

    /// Blocks until every enqueued submission has been decided (queues
    /// empty *and* all tickets fulfilled). Used by benches and tests to
    /// close the books before reading conservation counters.
    pub fn quiesce(&self) {
        while self.shared.queued.load(Ordering::Acquire) > 0
            || self.shared.in_flight.load(Ordering::Acquire) > 0
        {
            std::thread::yield_now();
        }
    }

    /// Signals shutdown and joins the workers. Queues drain first —
    /// every outstanding ticket is decided, never abandoned. New
    /// submissions during shutdown are shed.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for state in &self.shared.workers {
            state.wake.notify_all();
        }
        for handle in self.handles.drain(..) {
            if handle.join().is_err() {
                // A panicked worker already poisoned nothing (std mutex
                // poison is stripped everywhere); surface via metrics
                // being short rather than a double panic here.
            }
        }
    }
}

impl Drop for RequestFrontend {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Takes up to `batch_max` pendings from the next non-empty queue,
/// round-robin from the cursor. All ops in a batch come from ONE queue
/// — one user shard — so the batch's `write_set` covers every requester
/// with a single stripe.
fn take_batch(inbox: &mut Inbox, batch_max: usize) -> Option<Vec<Pending>> {
    let n = inbox.queues.len();
    for step in 0..n {
        let i = (inbox.cursor + step) % n;
        if inbox.queues[i].is_empty() {
            continue;
        }
        let take = inbox.queues[i].len().min(batch_max);
        let batch: Vec<Pending> = inbox.queues[i].drain(..take).collect();
        // Resume after this queue next time, even if it still has work:
        // round-robin keeps one hot shard from starving the rest.
        inbox.cursor = (i + 1) % n;
        return Some(batch);
    }
    None
}

/// The batch-drain loop for worker `w`: wait for work, take one batch,
/// admit it through [`LbsnServer::check_in_batch`] (one user-shard lock
/// acquisition for the whole batch), fulfill the tickets, repeat. Exits
/// when shutdown is signalled *and* its queues are empty.
fn worker_loop(shared: &Shared, w: usize) {
    let state = &shared.workers[w];
    let metrics = shared.server.metrics();
    loop {
        let batch = {
            let mut inbox = state.inbox.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(batch) = take_batch(&mut inbox, shared.config.batch_max) {
                    break batch;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                inbox = state
                    .wake
                    .wait(inbox)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let depth = shared
            .queued
            .fetch_sub(batch.len() as u64, Ordering::AcqRel)
            - batch.len() as u64;
        metrics.frontend_queue_depth.set(depth as f64);
        metrics.frontend_batch_size.record(batch.len() as u64);

        let reqs: Vec<CheckinRequest> = batch.iter().map(|p| p.req).collect();
        let started = Instant::now();
        let mut results = shared.server.check_in_batch(&reqs);
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        // Fold this batch's per-op cost into the drain-rate EWMA.
        let per_op = elapsed_ns / reqs.len().max(1) as u64;
        let prev = shared.service_ns.load(Ordering::Relaxed);
        let next = prev - (prev >> SERVICE_EWMA_SHIFT) + (per_op >> SERVICE_EWMA_SHIFT);
        shared.service_ns.store(next.max(1), Ordering::Relaxed);

        debug_assert_eq!(results.len(), batch.len());
        // Fulfill in submission order; sojourn covers queue wait plus
        // the batch's own admission time.
        for (pending, result) in batch.into_iter().zip(results.drain(..)) {
            let sojourn_ns = pending.submitted.elapsed().as_nanos() as u64;
            metrics.frontend_sojourn.record(sojourn_ns);
            metrics.frontend_decided.inc();
            pending.ticket.fulfill(result);
            shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use crate::user::UserSpec;
    use crate::venue::VenueSpec;
    use crate::CheckinSource;
    use lbsn_geo::GeoPoint;
    use lbsn_sim::{Duration as SimDuration, SimClock};

    fn abq() -> GeoPoint {
        GeoPoint::new(35.0844, -106.6504).unwrap()
    }

    fn bed() -> (Arc<LbsnServer>, Vec<crate::UserId>, crate::VenueId) {
        let server = Arc::new(LbsnServer::with_registry(
            SimClock::new(),
            ServerConfig::default(),
            Arc::new(lbsn_obs::Registry::new()),
        ));
        let venue = server.register_venue(VenueSpec::new("Cafe", abq()));
        let users = (0..8)
            .map(|_| server.register_user(UserSpec::anonymous()))
            .collect();
        (server, users, venue)
    }

    fn req(user: crate::UserId, venue: crate::VenueId) -> CheckinRequest {
        CheckinRequest {
            user,
            venue,
            reported_location: abq(),
            source: CheckinSource::MobileApp,
        }
    }

    #[test]
    fn submit_decides_like_direct_checkin() {
        let (server, users, venue) = bed();
        let frontend = RequestFrontend::new(Arc::clone(&server), FrontendConfig::default());
        let out = frontend.submit(req(users[0], venue)).wait().unwrap();
        assert!(out.rewarded());
        assert!(out.became_mayor);
        frontend.shutdown();
        let snap = server.metrics().registry().snapshot();
        assert_eq!(snap.counter(lbsn_obs::names::server::FRONTEND_SUBMITTED), 1);
        assert_eq!(snap.counter(lbsn_obs::names::server::FRONTEND_DECIDED), 1);
        assert_eq!(snap.counter(lbsn_obs::names::server::FRONTEND_SHED), 0);
    }

    #[test]
    fn unknown_ids_surface_per_ticket() {
        let (server, _users, venue) = bed();
        let frontend = RequestFrontend::new(Arc::clone(&server), FrontendConfig::default());
        let bogus = crate::UserId(999);
        let err = frontend.submit(req(bogus, venue)).wait().unwrap_err();
        assert_eq!(err, CheckinError::UnknownUser(bogus));
    }

    #[test]
    fn same_user_submissions_stay_fifo() {
        let (server, users, venue) = bed();
        let frontend = RequestFrontend::new(
            Arc::clone(&server),
            FrontendConfig {
                workers: 2,
                ..FrontendConfig::default()
            },
        );
        // Rapid-fire same-user submissions: the second within the
        // cooldown window must be judged *after* the first (flagged),
        // which only holds if the queue preserves per-user order.
        let first = frontend.submit(req(users[0], venue));
        let second = frontend.submit(req(users[0], venue));
        let a = first.wait().unwrap();
        let b = second.wait().unwrap();
        assert!(a.rewarded());
        assert!(!b.rewarded(), "second rapid-fire check-in must be flagged");
        frontend.shutdown();
    }

    #[test]
    fn full_queue_sheds_with_retry_after() {
        let (server, users, venue) = bed();
        // One worker, tiny queue, and a clock that never advances: all
        // users hash to few shards, so queue 0 fills fast.
        let frontend = RequestFrontend::new(
            Arc::clone(&server),
            FrontendConfig {
                workers: 1,
                queue_depth: 1,
                batch_max: 1,
            },
        );
        let mut shed = 0usize;
        let mut tickets = Vec::new();
        for _ in 0..64 {
            server.clock().advance(SimDuration::secs(121));
            match frontend.submit(req(users[0], venue)) {
                SubmitOutcome::Enqueued(t) => tickets.push(t),
                SubmitOutcome::Shed { retry_after } => {
                    assert!(retry_after > Duration::ZERO);
                    shed += 1;
                }
            }
        }
        for t in tickets {
            let _ = t.wait();
        }
        frontend.quiesce();
        frontend.shutdown();
        let snap = server.metrics().registry().snapshot();
        let submitted = snap.counter(lbsn_obs::names::server::FRONTEND_SUBMITTED);
        let decided = snap.counter(lbsn_obs::names::server::FRONTEND_DECIDED);
        let shed_ctr = snap.counter(lbsn_obs::names::server::FRONTEND_SHED);
        assert_eq!(submitted, 64);
        assert_eq!(shed as u64, shed_ctr);
        assert_eq!(decided + shed_ctr, submitted, "conservation");
    }

    #[test]
    fn shutdown_drains_outstanding_tickets() {
        let (server, users, venue) = bed();
        let frontend = RequestFrontend::new(
            Arc::clone(&server),
            FrontendConfig {
                workers: 1,
                queue_depth: 1024,
                batch_max: 8,
            },
        );
        let tickets: Vec<_> = users
            .iter()
            .map(|&u| {
                server.clock().advance(SimDuration::secs(121));
                frontend.submit(req(u, venue))
            })
            .collect();
        frontend.shutdown();
        for t in tickets {
            assert!(t.wait().is_ok(), "ticket decided before shutdown returned");
        }
    }
}
