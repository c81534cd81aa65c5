//! The LBSN server: registration, the check-in pipeline, and state access.
//!
//! # Concurrency model
//!
//! Server state is lock-striped, not monolithic: users and venues each
//! live in a [`ShardedVec`] — a power-of-two number of independently
//! locked shards, id-hashed — so the §2 check-in pipeline runs in
//! parallel across shards while §3.2-style crawler threads scrape read
//! paths that only touch the shards they need. The deadlock-freedom
//! rules (user shards before venue shards, ascending order within a
//! family, at most one venue shard at a time, side maps as leaf locks)
//! are documented on [`crate::shard`] and in DESIGN.md.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lbsn_geo::{GeoGrid, GeoPoint, Meters};
use lbsn_obs::names::server as obs_names;
use lbsn_obs::{DecisionBuilder, DecisionOutcome, MemFootprint, Registry};
use lbsn_sim::{SimClock, Timestamp, DAY};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::cheatercode::RuleContext;
use crate::checkin::{
    AdmissionOutcome, CheckinError, CheckinEvidence, CheckinOutcome, CheckinRecord, CheckinRequest,
};
use crate::compact::StrArena;
use crate::metrics::{ServerMetrics, Stopwatch};
use crate::pipeline::{reward, AdmissionPipeline, CheckinVerifier, RewardOutcome, VerifyContext};
use crate::policy::{DetectorConfig, PolicyConfig};
use crate::shard::{LeafLock, ShardFamily, ShardWriteGuard, ShardedVec};
use crate::user::{User, UserSpec};
use crate::venue::{Venue, VenueCategory, VenueSpec};
use crate::{UserId, VenueId};

/// After this many optimistic lock-set retries (the venue's mayor kept
/// hopping to shards outside the held set), fall back to locking every
/// user shard — slow but guaranteed to converge.
const MAYOR_LOCK_RETRIES: u32 = 3;

/// Minimum sim-clock seconds between periodic memory samples (6
/// virtual hours). Virtual time alone is not enough to pace the sweep:
/// a bench advancing ~90 virtual seconds per check-in would sweep every
/// ~240 ops, and the sweep walks the whole world. The amortization
/// guard below adds the missing dimension.
const MEM_SAMPLE_INTERVAL_SECS: u64 = 6 * 3600;

/// Amortization guard for the periodic sweep: once a sample is due,
/// the sweep waits for one further check-in per this many bytes the
/// *last* sweep accounted. Walking a byte costs well under a
/// nanosecond, so one op per 64 bytes bounds the sweep's amortized
/// cost to a few tens of nanoseconds per check-in — noise against a
/// multi-microsecond check-in, regardless of world size or how fast
/// the caller spins virtual time. The first sweep (cost 0) runs on the
/// first check-in.
const MEM_SWEEP_BYTES_PER_OP: u64 = 64;

/// Entities (or friend edges) staged between lock acquisitions by the
/// registration and friendship loaders. Large enough to amortize
/// locking across a shard's worth of entities, small enough that
/// staging stays cache- and allocation-friendly at paper scale.
const BULK_CHUNK: usize = 65_536;

/// Server-wide configuration: the admission policy plus deployment
/// parameters. Serde-round-trippable, so a whole scenario lives in one
/// JSON file (`policies/default.json` is the committed default policy).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerConfig {
    /// The admission policy: detector thresholds/switches and reward
    /// point values (see [`crate::policy`]).
    pub policy: PolicyConfig,
    /// Length of each venue's public "Who's been here" list. The paper
    /// crawled these lists; their truncation is what makes a user's
    /// *recent check-in* count (Fig 4.1) diverge from their total.
    pub recent_visitors_len: usize,
    /// Lock-stripe width for user and venue state. Rounded up to a
    /// power of two (minimum 1) at construction; exposed as the
    /// `server.shard.count` gauge.
    pub shards: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            policy: PolicyConfig::default(),
            recent_visitors_len: 10,
            shards: 16,
        }
    }
}

impl ServerConfig {
    /// A default deployment running the given admission policy.
    pub fn with_policy(policy: PolicyConfig) -> Self {
        ServerConfig {
            policy,
            ..ServerConfig::default()
        }
    }

    /// A default deployment with the given detector set (rewards stay
    /// at their defaults).
    pub fn with_detectors(detectors: DetectorConfig) -> Self {
        Self::with_policy(PolicyConfig::with_detectors(detectors))
    }
}

/// The simulated location-based social network service.
///
/// Thread-safe: the crawler hammers the read paths from worker threads
/// while check-ins run concurrently on every shard pair. All mutation
/// funnels through [`LbsnServer::check_in`], which reproduces the full
/// §2 pipeline: GPS verification → cheater code → rewards.
///
/// ```
/// use lbsn_server::{CheckinRequest, CheckinSource, LbsnServer, ServerConfig, UserSpec, VenueSpec};
/// use lbsn_sim::SimClock;
/// use lbsn_geo::GeoPoint;
///
/// let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
/// let cafe = server.register_venue(VenueSpec::new(
///     "Starbucks",
///     GeoPoint::new(35.0844, -106.6504).unwrap(),
/// ));
/// let user = server.register_user(UserSpec::named("mayor-hopeful"));
/// let outcome = server
///     .check_in(&CheckinRequest {
///         user,
///         venue: cafe,
///         reported_location: GeoPoint::new(35.0845, -106.6503).unwrap(),
///         source: CheckinSource::MobileApp,
///     })
///     .unwrap();
/// assert!(outcome.rewarded());
/// assert!(outcome.became_mayor, "vacant venue: one check-in takes it");
/// ```
pub struct LbsnServer {
    clock: SimClock,
    config: ServerConfig,
    pipeline: AdmissionPipeline,
    metrics: ServerMetrics,
    users: ShardedVec<User>,
    venues: ShardedVec<Venue>,
    /// Vanity-name resolution (leaf lock).
    usernames: LeafLock<HashMap<String, UserId>>,
    /// Spatial index for `venues_near` (leaf lock) — read paths never
    /// touch a venue shard just to find ids near a point.
    venue_grid: LeafLock<GeoGrid<VenueId>>,
    /// Per-venue category, append-only (leaf lock). Categories are
    /// immutable after registration, so badge evaluation reads this
    /// table instead of locking arbitrary venue shards mid-check-in.
    venue_categories: LeafLock<Vec<VenueCategory>>,
    /// Per-venue-shard string arenas holding name+address text (see
    /// [`crate::StrArena`]). Locked *before* the venue shard during
    /// registration, never while a shard lock is held; each shard's
    /// share of a registration chunk is sealed into one shared chunk.
    venue_arenas: Vec<Mutex<StrArena>>,
    /// Serializes user registration so shard slots fill densely in id
    /// order; the count itself lives in `user_count`.
    user_reg: Mutex<()>,
    /// Serializes venue registration, likewise.
    venue_reg: Mutex<()>,
    user_count: AtomicU64,
    venue_count: AtomicU64,
    /// Sim-clock second at which the next periodic memory sample is
    /// due; claimed by CAS so concurrent check-ins elect one sampler.
    next_mem_sample: AtomicU64,
    /// Bytes accounted by the last sweep — the proxy for its cost that
    /// the amortization guard in [`LbsnServer::maybe_sample_memory`]
    /// divides by [`MEM_SWEEP_BYTES_PER_OP`].
    mem_sweep_cost: AtomicU64,
    /// Check-ins observed since the current sample became due; the
    /// guard requires enough of them to amortize the last sweep before
    /// the next one runs.
    mem_sweep_ops: AtomicU64,
    /// Test seam for the check-in lock-acquisition loop: called with
    /// the attempt number after the incumbent peek and before the
    /// acquisition, with no locks held, so a test can deterministically
    /// force the mayor to hop out of the peeked set and drive the
    /// all-shards fallback.
    #[cfg(test)]
    retry_probe: Mutex<Option<RetryProbe>>,
}

/// Callback installed by tests to interleave state changes between
/// check-in lock-acquisition attempts.
#[cfg(test)]
type RetryProbe = Box<dyn FnMut(u32) + Send>;

/// Maps a verify-stage rejection onto the error channel of the entry
/// points that return a plain [`CheckinOutcome`].
fn processed(
    result: Result<AdmissionOutcome, CheckinError>,
) -> Result<CheckinOutcome, CheckinError> {
    match result? {
        AdmissionOutcome::Processed(outcome) => Ok(outcome),
        AdmissionOutcome::VerifierRejected { verifier } => {
            Err(CheckinError::VerifierRejected(verifier))
        }
    }
}

impl std::fmt::Debug for LbsnServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LbsnServer")
            .field("users", &self.user_count())
            .field("venues", &self.venue_count())
            .field("shards", &self.users.shard_count())
            .field("pipeline", &self.pipeline)
            .finish()
    }
}

impl LbsnServer {
    /// Creates a server reading the given virtual clock, reporting
    /// metrics into the process-wide [`lbsn_obs::global`] registry.
    pub fn new(clock: SimClock, config: ServerConfig) -> Self {
        Self::with_registry(clock, config, lbsn_obs::global())
    }

    /// Creates a server reporting metrics into an injected registry —
    /// what the bench harness uses to keep per-experiment snapshots
    /// isolated from each other.
    pub fn with_registry(clock: SimClock, config: ServerConfig, registry: Arc<Registry>) -> Self {
        Self::with_pipeline(clock, config, registry, Vec::new())
    }

    /// Creates a server whose admission pipeline includes the given
    /// pre-admission verifier stages (§5.1 defenses). A verified
    /// deployment is thereby a pipeline *configuration*, not a wrapper
    /// service: check-ins flow through verify → detect → record →
    /// reward on the one code path.
    pub fn with_pipeline(
        clock: SimClock,
        config: ServerConfig,
        registry: Arc<Registry>,
        verifiers: Vec<Box<dyn CheckinVerifier>>,
    ) -> Self {
        let metrics = ServerMetrics::new(registry);
        let pipeline = AdmissionPipeline::from_policy(&config.policy, &metrics, verifiers);
        let shards = config.shards.max(1).next_power_of_two();
        metrics.shard_count.set(shards as f64);
        let users = ShardedVec::new(
            ShardFamily::Users,
            shards,
            metrics.shard_lock_wait.clone(),
            metrics
                .registry()
                .shard_heat(&obs_names::shard_heat("users"), shards),
        );
        let venues = ShardedVec::new(
            ShardFamily::Venues,
            shards,
            metrics.shard_lock_wait.clone(),
            metrics
                .registry()
                .shard_heat(&obs_names::shard_heat("venues"), shards),
        );
        LbsnServer {
            clock,
            config,
            pipeline,
            metrics,
            users,
            venues,
            usernames: LeafLock::new("usernames", HashMap::new()),
            venue_grid: LeafLock::new("venue_grid", GeoGrid::new(1_000.0)),
            venue_categories: LeafLock::new("venue_categories", Vec::new()),
            venue_arenas: (0..shards).map(|_| Mutex::new(StrArena::new())).collect(),
            user_reg: Mutex::new(()),
            venue_reg: Mutex::new(()),
            user_count: AtomicU64::new(0),
            venue_count: AtomicU64::new(0),
            next_mem_sample: AtomicU64::new(0),
            mem_sweep_cost: AtomicU64::new(0),
            mem_sweep_ops: AtomicU64::new(0),
            #[cfg(test)]
            retry_probe: Mutex::new(None),
        }
    }

    /// The server's clock handle.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The server's resolved metric handles.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The number of lock stripes over user and venue state.
    pub fn shard_count(&self) -> usize {
        self.users.shard_count()
    }

    /// The user-shard index `user`'s record lives in — the routing key
    /// the request frontend uses to bind a submission to its shard
    /// queue (same-user submissions always land on the same queue, so
    /// per-user FIFO order survives batching).
    pub fn user_shard(&self, user: UserId) -> usize {
        self.users.shard_of(user.value())
    }

    /// Elects this call to run [`LbsnServer::sample_memory`] when the
    /// periodic sample is due at `now` *and* enough traffic has passed
    /// to amortize the last sweep ([`MEM_SWEEP_BYTES_PER_OP`]). The
    /// common path — sample not yet due — is one relaxed atomic load; a
    /// CAS claims the slot so concurrent check-ins run at most one
    /// sweep per interval.
    fn maybe_sample_memory(&self, now: Timestamp) {
        let due = self.next_mem_sample.load(Ordering::Relaxed);
        if now.secs() < due {
            return;
        }
        // A disabled registry degrades every update to a flag check;
        // the sweep would walk all shards only to set muted gauges. The
        // slot stays unclaimed, so re-enabling resumes sampling.
        if !self.metrics.registry().is_enabled() {
            return;
        }
        let ticket = self.mem_sweep_ops.fetch_add(1, Ordering::Relaxed);
        if ticket < self.mem_sweep_cost.load(Ordering::Relaxed) / MEM_SWEEP_BYTES_PER_OP {
            return;
        }
        if self
            .next_mem_sample
            .compare_exchange(
                due,
                now.secs() + MEM_SAMPLE_INTERVAL_SECS,
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            self.mem_sweep_ops.store(0, Ordering::Relaxed);
            self.sample_memory();
        }
    }

    /// Walks all server state, refreshing the `server.mem.*` gauges and
    /// each shard family's occupancy column in the contention heatmap.
    ///
    /// Takes one shard read lock at a time — never two — so it composes
    /// with the documented lock order from any calling context. The
    /// sweep's own acquisitions count in the heatmap's ops column, a
    /// deliberate choice: the heatmap answers "who touched this shard",
    /// and the sampler did. Runs automatically every
    /// 6 virtual hours during check-in traffic; benches and tests may
    /// also call it directly before snapshotting.
    pub fn sample_memory(&self) {
        let mut user_bytes = 0usize;
        for shard in 0..self.users.shard_count() {
            let guard = self.users.read_shard(shard);
            self.users.heat().set_occupancy(shard, guard.len() as u64);
            user_bytes += guard.deep_bytes();
        }
        let mut venue_bytes = 0usize;
        for shard in 0..self.venues.shard_count() {
            let guard = self.venues.read_shard(shard);
            self.venues.heat().set_occupancy(shard, guard.len() as u64);
            venue_bytes += guard.deep_bytes();
        }
        // One leaf lock per statement — rule 4 allows no two at once.
        let mut side_bytes = self.usernames.read().deep_bytes();
        side_bytes += self.venue_grid.read().approx_heap_bytes();
        side_bytes += self.venue_categories.read().deep_bytes();
        // Interned venue text is charged here, once per shard, rather
        // than per venue handle (`ArenaStr` reports zero).
        for arena in &self.venue_arenas {
            side_bytes += arena.lock().bytes();
        }
        let total = user_bytes + venue_bytes + side_bytes;
        self.mem_sweep_cost.store(total as u64, Ordering::Relaxed);
        self.metrics.mem_users_bytes.set(user_bytes as f64);
        self.metrics.mem_venues_bytes.set(venue_bytes as f64);
        self.metrics.mem_side_maps_bytes.set(side_bytes as f64);
        self.metrics.mem_total_bytes.set(total as f64);
        self.metrics
            .mem_bytes_per_user
            .set(total as f64 / self.user_count().max(1) as f64);
        self.metrics.mem_samples.inc();
    }

    /// Arms the process-wide [`lbsn_obs::flight`] recorder: a panic
    /// anywhere in the process (and any explicit
    /// [`LbsnServer::dump_flight`] call) writes a forensic dump into
    /// `dir` — last trace events, open spans, this server's final
    /// snapshot, and, in debug builds, the lock-order sentinel's
    /// held-lock state for the dumping thread.
    pub fn arm_flight_recorder(&self, dir: impl Into<std::path::PathBuf>) {
        #[cfg(debug_assertions)]
        lbsn_obs::flight::set_held_locks_provider(Box::new(
            crate::shard::sentinel::held_descriptions,
        ));
        lbsn_obs::flight::arm(Arc::clone(self.metrics.registry()), dir);
    }

    /// Writes a flight dump now (the recorder must be armed), recording
    /// a `server.flight.dump` trace event first so the dump explains
    /// itself. Returns the dump path, or `None` when not armed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating or writing the dump file.
    pub fn dump_flight(&self, reason: &str) -> std::io::Result<Option<std::path::PathBuf>> {
        self.metrics.registry().event(
            obs_names::FLIGHT_DUMP_EVENT,
            &[("reason", reason.to_string())],
        );
        lbsn_obs::flight::dump_flight(reason)
    }

    /// Registers a user: a batch of one through
    /// [`LbsnServer::bulk_register_users`]. IDs are dense and
    /// incrementing from 1.
    pub fn register_user(&self, spec: UserSpec) -> UserId {
        UserId(self.register_users([spec]).start)
    }

    /// Registers a venue: a batch of one through
    /// [`LbsnServer::bulk_register_venues`]. IDs are dense and
    /// incrementing from 1.
    pub fn register_venue(&self, spec: VenueSpec) -> VenueId {
        VenueId(self.register_venues([spec]).start)
    }

    /// Registers users, returning how many were added. IDs are dense
    /// and incrementing, in iteration order. Specs are staged per shard
    /// in chunks of 65 536, so a paper-scale population takes a handful
    /// of lock acquisitions per shard, not two per user.
    pub fn bulk_register_users(&self, specs: impl IntoIterator<Item = UserSpec>) -> u64 {
        let ids = self.register_users(specs);
        ids.end - ids.start
    }

    /// Registers venues, returning how many were added. IDs as for
    /// [`LbsnServer::bulk_register_users`]. The name and address text
    /// of each chunk's venues in one shard is sealed into one shared
    /// arena chunk: one allocation per shard per chunk, and one for a
    /// venue registered alone.
    pub fn bulk_register_venues(&self, specs: impl IntoIterator<Item = VenueSpec>) -> u64 {
        let ids = self.register_venues(specs);
        ids.end - ids.start
    }

    /// The one user registration path; returns the ids it assigned.
    fn register_users(&self, specs: impl IntoIterator<Item = UserSpec>) -> Range<u64> {
        let _serial = self.user_reg.lock();
        // Only this lock's holder adds users, so the count is exact.
        let first = self.user_count() + 1;
        let mut next = first;
        let now = self.clock.now();
        let shards = self.users.shard_count();
        let mut staged: Vec<Vec<User>> = (0..shards).map(|_| Vec::new()).collect();
        let mut names: Vec<(String, UserId)> = Vec::new();
        let mut iter = specs.into_iter();
        loop {
            let mut in_chunk = 0usize;
            for spec in iter.by_ref().take(BULK_CHUNK) {
                let id = UserId(next);
                next += 1;
                in_chunk += 1;
                let user = User::from_spec(id, spec, now);
                if let Some(name) = &user.username {
                    names.push((name.clone(), id));
                }
                staged[self.users.shard_of(id.value())].push(user);
            }
            for (shard, batch) in staged.iter_mut().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                let mut guard = self.users.write_shard(shard);
                debug_assert_eq!(guard.len(), self.users.slot_of(batch[0].id.value()));
                guard.append(batch);
            }
            // Names resolve only once the profiles are visible.
            if !names.is_empty() {
                self.usernames.write().extend(names.drain(..));
            }
            if in_chunk < BULK_CHUNK {
                break;
            }
        }
        self.user_count.fetch_add(next - first, Ordering::Release);
        first..next
    }

    /// The one venue registration path; returns the ids it assigned.
    fn register_venues(&self, specs: impl IntoIterator<Item = VenueSpec>) -> Range<u64> {
        let _serial = self.venue_reg.lock();
        // Only this lock's holder adds venues, so the count is exact.
        let first = self.venue_count() + 1;
        let mut next = first;
        let now = self.clock.now();
        let shards = self.venues.shard_count();
        let mut staged: Vec<Vec<(VenueId, VenueSpec)>> = (0..shards).map(|_| Vec::new()).collect();
        let mut built: Vec<Venue> = Vec::new();
        let mut categories: Vec<VenueCategory> = Vec::new();
        let mut grid_entries: Vec<(GeoPoint, VenueId)> = Vec::new();
        let mut iter = specs.into_iter();
        loop {
            let mut in_chunk = 0usize;
            for spec in iter.by_ref().take(BULK_CHUNK) {
                let id = VenueId(next);
                next += 1;
                in_chunk += 1;
                categories.push(spec.category);
                grid_entries.push((spec.location, id));
                staged[self.venues.shard_of(id.value())].push((id, spec));
            }
            // Categories first: by the time a venue is visible in its
            // shard, badge evaluation can already resolve its category.
            if !categories.is_empty() {
                self.venue_categories.write().extend(categories.drain(..));
            }
            for (shard, batch) in staged.iter_mut().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                // Arena before shard lock — never the other way around,
                // and never both at once.
                Venue::seal_batch(batch, now, &mut self.venue_arenas[shard].lock(), &mut built);
                let mut guard = self.venues.write_shard(shard);
                debug_assert_eq!(guard.len(), self.venues.slot_of(built[0].id.value()));
                guard.append(&mut built);
            }
            // Discoverability last.
            if !grid_entries.is_empty() {
                let mut grid = self.venue_grid.write();
                for (location, id) in grid_entries.drain(..) {
                    grid.insert(location, id);
                }
            }
            if in_chunk < BULK_CHUNK {
                break;
            }
        }
        self.venue_count.fetch_add(next - first, Ordering::Release);
        first..next
    }

    /// Drops excess capacity across all server state — entity shard
    /// vectors, per-entity collections, the spatial grid, and the side
    /// maps. Bulk loading grows everything by doubling, which leaves up
    /// to 2× slack that the capacity-charging [`MemFootprint`] sweeps
    /// would faithfully report; call this once after a load (the scale
    /// harness does) so the gauges reflect steady-state residency.
    ///
    /// Takes one lock at a time, so it composes with the documented
    /// lock order from any calling context.
    pub fn compact_memory(&self) {
        for shard in 0..self.users.shard_count() {
            let mut guard = self.users.write_shard(shard);
            for user in guard.iter_mut() {
                user.shrink_to_fit();
            }
            guard.shrink_to_fit();
        }
        for shard in 0..self.venues.shard_count() {
            let mut guard = self.venues.write_shard(shard);
            for venue in guard.iter_mut() {
                venue.shrink_to_fit();
            }
            guard.shrink_to_fit();
        }
        for arena in &self.venue_arenas {
            arena.lock().shrink_to_fit();
        }
        self.usernames.write().shrink_to_fit();
        self.venue_grid.write().shrink_to_fit();
        self.venue_categories.write().shrink_to_fit();
    }

    /// Venues within `radius` metres of `center`, nearest first, capped
    /// at `limit` — the "suggested list of nearby venues" the client app
    /// shows (§2.2), which is also what the spoofing attack scrolls
    /// through after forging a fix. Touches only the spatial index —
    /// never a venue shard.
    pub fn venues_near(
        &self,
        center: GeoPoint,
        radius: Meters,
        limit: usize,
    ) -> Vec<(VenueId, Meters)> {
        let grid = self.venue_grid.read();
        grid.within_radius(center, radius)
            .into_iter()
            .take(limit)
            .map(|(id, d)| (*id, d))
            .collect()
    }

    /// Records one symmetric friendship: a batch of one through
    /// [`LbsnServer::add_friendships`]. `a == b` befriends self.
    ///
    /// # Errors
    ///
    /// [`CheckinError::UnknownUser`] naming `a` if it is unregistered,
    /// else `b`; nothing is recorded in that case.
    pub fn add_friendship(&self, a: UserId, b: UserId) -> Result<(), CheckinError> {
        self.add_friendships([(a, b)])
    }

    /// Records symmetric friendships, streaming `edges` in chunks of
    /// 65 536. Duplicates and either orientation are harmless
    /// (friend lists are sets); `(a, a)` befriends self.
    ///
    /// Every id in a chunk is validated before any lock is taken. The
    /// chunk is staged as compact per-shard `(slot, friend)` rows, each
    /// endpoint once, and applied under one `write_set` over the user
    /// shards it touches (ascending shard order) — so a
    /// reader never sees an edge recorded on one side only, and a
    /// world's friend graph costs one lock set per chunk instead of two
    /// shard locks per edge.
    ///
    /// # Errors
    ///
    /// [`CheckinError::UnknownUser`] naming the first unregistered id
    /// (`a` before `b` within an edge). Nothing from that id's chunk is
    /// recorded and no later edge is read; earlier chunks stay applied.
    pub fn add_friendships(
        &self,
        edges: impl IntoIterator<Item = (UserId, UserId)>,
    ) -> Result<(), CheckinError> {
        let shards = self.users.shard_count();
        let mut rows: Vec<Vec<(u32, u32)>> = (0..shards).map(|_| Vec::new()).collect();
        let mut touched: Vec<usize> = Vec::with_capacity(shards);
        let mut iter = edges.into_iter();
        loop {
            // Rows are 32-bit; a world past u32::MAX users (terabytes
            // of profiles) is out of reach, so the clamp never bites.
            let known = self.user_count().min(u64::from(u32::MAX));
            let mut in_chunk = 0usize;
            for (a, b) in iter.by_ref().take(BULK_CHUNK) {
                in_chunk += 1;
                for id in [a, b] {
                    if !(1..=known).contains(&id.value()) {
                        return Err(CheckinError::UnknownUser(id));
                    }
                }
                let mut stage = |user: UserId, friend: UserId| {
                    let slot = self.users.slot_of(user.value()) as u32;
                    rows[self.users.shard_of(user.value())].push((slot, friend.value() as u32));
                };
                stage(a, b);
                if a != b {
                    stage(b, a);
                }
            }
            touched.clear();
            touched.extend((0..shards).filter(|&shard| !rows[shard].is_empty()));
            // Rows apply in arrival order. Sorting them by slot saved no
            // load time, and the heap it left behind (each user's list
            // grown in one burst) made later check-ins ~7 % slower.
            if !touched.is_empty() {
                let mut set = self.users.write_set(&mut touched);
                for (shard, users) in set.shards_mut() {
                    for (slot, friend) in rows[shard].drain(..) {
                        // Validated above: every staged slot is registered.
                        if let Some(user) = users.get_mut(slot as usize) {
                            user.friends.insert(UserId(u64::from(friend)));
                        }
                    }
                }
            }
            if in_chunk < BULK_CHUNK {
                return Ok(());
            }
        }
    }

    /// Processes a check-in through the full pipeline: a batch of one
    /// through [`LbsnServer::check_in_batch`]'s admission loop, whose
    /// docs describe the lock protocol.
    ///
    /// Flagged check-ins are recorded (they count toward the user's
    /// total) but earn nothing and do not touch venue state — exactly the
    /// policy §4.2 infers from the caught-cheater cohort.
    ///
    /// # Errors
    ///
    /// [`CheckinError`] for unknown user or venue IDs; nothing is
    /// recorded in that case. On a server built with verifier stages
    /// ([`LbsnServer::with_pipeline`]), a pre-admission rejection
    /// surfaces as [`CheckinError::VerifierRejected`] — use
    /// [`LbsnServer::check_in_with_evidence`] to observe it as an
    /// [`AdmissionOutcome`] instead.
    pub fn check_in(&self, req: &CheckinRequest) -> Result<CheckinOutcome, CheckinError> {
        processed(self.check_in_with_evidence(req, None))
    }

    /// Processes a check-in through the full admission pipeline,
    /// including the pre-admission verifier stages, with optional
    /// out-of-band [`CheckinEvidence`] for the verifiers to judge. Like
    /// [`LbsnServer::check_in`], this is a batch of one.
    ///
    /// The verify stage runs *before* any shard lock is taken: a
    /// rejected check-in is dropped, not recorded, so it must not touch
    /// user or venue state at all. On a server with no verifier stages
    /// the stage is skipped entirely — no span, no sketch sample —
    /// keeping the plain pipeline's cost profile unchanged.
    ///
    /// # Errors
    ///
    /// [`CheckinError`] for unknown user or venue IDs; nothing is
    /// recorded in that case.
    pub fn check_in_with_evidence(
        &self,
        req: &CheckinRequest,
        evidence: Option<&CheckinEvidence>,
    ) -> Result<AdmissionOutcome, CheckinError> {
        let mut result = None;
        self.admit(std::slice::from_ref(req), evidence, |r| result = Some(r));
        let Some(result) = result else {
            unreachable!("admit reports every op")
        };
        result
    }

    /// Processes a slice of check-ins in submission order under an
    /// *amortized* lock protocol: one user-shard `write_set` covering
    /// every remaining requester (plus peeked incumbent-mayor shards)
    /// is acquired once, and ops are walked FIFO under it, switching
    /// the single held venue-shard guard as the venue changes. This is
    /// the batch-drain entry point the request frontend uses to admit
    /// up to `batch_max` queued check-ins per acquisition, and the only
    /// admission loop: [`LbsnServer::check_in`] and
    /// [`LbsnServer::check_in_with_evidence`] run it on a batch of one.
    ///
    /// Decisions are therefore bit-for-bit identical to calling
    /// [`LbsnServer::check_in`] per element in the same order under the
    /// same clock: ops are never reordered, every mayorship challenge
    /// re-validates incumbent coverage under the real locks (releasing
    /// and widening the set, with a `MAYOR_LOCK_RETRIES` all-shards
    /// fallback), and a decision that brands the account releases
    /// everything for the two-phase mayor strip before later ops run.
    ///
    /// Lock-order discipline is preserved: user shards are acquired
    /// ascending and strictly before any venue shard (rules 1–2), at
    /// most one venue shard is held at a time (rule 3 — the guard is
    /// dropped before the next venue's is taken), and no side map is
    /// held across acquisitions (rule 4).
    ///
    /// On a server built with verifier stages, every op passes the
    /// verify stage (with no evidence) before the first acquisition; an
    /// op it rejects is reported as [`CheckinError::VerifierRejected`]
    /// in its position and takes no lock. Unknown ids yield per-op
    /// `Err` entries without disturbing the rest of the batch.
    pub fn check_in_batch(
        &self,
        reqs: &[CheckinRequest],
    ) -> Vec<Result<CheckinOutcome, CheckinError>> {
        let mut results = Vec::with_capacity(reqs.len());
        self.admit(reqs, None, |r| results.push(processed(r)));
        results
    }

    /// The admission loop behind every check-in entry point, and the
    /// only code that takes admission locks (see
    /// [`LbsnServer::check_in_batch`]). Reports one result per op to
    /// `report`, in submission order. `evidence` goes to the verify
    /// stage; only the batch-of-one entry point passes any.
    fn admit(
        &self,
        reqs: &[CheckinRequest],
        evidence: Option<&CheckinEvidence>,
        mut report: impl FnMut(Result<AdmissionOutcome, CheckinError>),
    ) {
        // Verify pre-pass, before the first acquisition. Left empty
        // (no allocation) when no verifier stage is installed; an `Err`
        // verdict drops its op, which the lock walk then skips. An `Ok`
        // verdict carries whether the op's verify root span was
        // head-sampled, so its `server.checkin` root follows suit.
        let verdicts: Vec<Result<(DecisionBuilder, bool), CheckinError>> =
            if self.pipeline.has_verifiers() {
                let now = self.clock.now();
                reqs.iter()
                    .map(|req| self.verify(req, evidence, now))
                    .collect()
            } else {
                Vec::new()
            };
        // `i` is the next unprocessed op; `attempt` counts lock-set
        // acquisitions made on op `i`'s behalf (reset as `i` advances).
        let mut i = 0usize;
        let mut attempt: u32 = 0;
        // Incumbent-mayor shards learned under the real locks; kept for
        // the rest of the batch so a re-acquisition covers them.
        let mut extra_shards: Vec<usize> = Vec::new();
        let mut shard_ids: Vec<usize> = Vec::with_capacity(reqs.len() + 2);
        'acquire: while i < reqs.len() {
            // No locks are held here: safe point for the periodic sweep.
            self.maybe_sample_memory(self.clock.now());
            shard_ids.clear();
            if attempt >= MAYOR_LOCK_RETRIES {
                self.metrics.lock_fallback.inc();
                shard_ids.extend(0..self.users.shard_count());
            } else {
                // Requester shards for every remaining admitted op,
                // plus each one's incumbent-mayor shard peeked with a
                // cheap try-read. Racy by design — the coverage
                // re-check under the real locks catches any change.
                for (k, req) in reqs.iter().enumerate().skip(i) {
                    if matches!(verdicts.get(k), Some(Err(_))) {
                        continue;
                    }
                    shard_ids.push(self.users.shard_of(req.user.value()));
                    let vshard = self.venues.shard_of(req.venue.value());
                    let vslot = self.venues.slot_of(req.venue.value());
                    if let Some(mayor) = self
                        .venues
                        .try_read_shard(vshard)
                        .and_then(|guard| guard.get(vslot).and_then(|v| v.mayor))
                    {
                        shard_ids.push(self.users.shard_of(mayor.value()));
                    }
                }
                shard_ids.extend_from_slice(&extra_shards);
            }
            #[cfg(test)]
            if let Some(probe) = self.retry_probe.lock().as_mut() {
                probe(attempt);
            }
            let mut uset = self.users.write_set(&mut shard_ids);
            // Walk ops FIFO under this one user lock set. Rule 3: the
            // venue guard is held one shard at a time, released before
            // the next venue's shard is acquired.
            let mut vguard: Option<(usize, ShardWriteGuard<'_, Venue>)> = None;
            while i < reqs.len() {
                let req = &reqs[i];
                let now = self.clock.now();
                let decision = match verdicts.get(i) {
                    None => (
                        DecisionBuilder::new(req.user.value(), req.venue.value(), now.secs()),
                        None,
                    ),
                    Some(Ok((decision, sampled))) => (decision.clone(), Some(*sampled)),
                    Some(Err(dropped)) => {
                        report(match *dropped {
                            CheckinError::VerifierRejected(verifier) => {
                                Ok(AdmissionOutcome::VerifierRejected { verifier })
                            }
                            error => Err(error),
                        });
                        i += 1;
                        attempt = 0;
                        continue;
                    }
                };
                if uset.get(req.user.value()).is_none() {
                    report(Err(CheckinError::UnknownUser(req.user)));
                    i += 1;
                    attempt = 0;
                    continue;
                }
                let vshard = self.venues.shard_of(req.venue.value());
                let vslot = self.venues.slot_of(req.venue.value());
                if vguard.as_ref().map(|(held, _)| *held) != Some(vshard) {
                    drop(vguard.take()); // release before switching (rule 3)
                    vguard = Some((vshard, self.venues.write_shard(vshard)));
                }
                let Some((_, guard)) = vguard.as_mut() else {
                    unreachable!("venue guard installed above")
                };
                let Some(venue) = guard.get_mut(vslot) else {
                    report(Err(CheckinError::UnknownVenue(req.venue)));
                    i += 1;
                    attempt = 0;
                    continue;
                };
                // The mayorship decision reads the incumbent's record:
                // if the current incumbent's shard is outside the held
                // set, release everything and re-acquire with it
                // included.
                if let Some(mayor) = venue.mayor {
                    if !uset.covers(mayor.value()) {
                        self.metrics.lock_retry.inc();
                        extra_shards.push(self.users.shard_of(mayor.value()));
                        attempt += 1;
                        continue 'acquire;
                    }
                }
                let Some((user, incumbent)) =
                    uset.get_with_mut(req.user.value(), venue.mayor.map(UserId::value))
                else {
                    report(Err(CheckinError::UnknownUser(req.user)));
                    i += 1;
                    attempt = 0;
                    continue;
                };
                let (outcome, stripped) =
                    self.check_in_core(req, now, decision, user, incumbent, venue);
                report(Ok(AdmissionOutcome::Processed(outcome)));
                i += 1;
                attempt = 0;
                if !stripped.is_empty() {
                    // This decision branded the account: run the
                    // two-phase mayor strip with nothing held (lock
                    // rule 3), then re-acquire for the remainder of the
                    // batch. A later check-in by this user is already
                    // rejected (`branded_cheater` is set), so nothing
                    // re-enters the mayorship set.
                    drop(vguard.take());
                    drop(uset);
                    self.strip_mayor_seats(req.user, &stripped);
                    continue 'acquire;
                }
            }
        }
    }

    /// The verify stage for one op, run with no lock held. `Ok` carries
    /// the op's decision, with the stage votes on it, and whether its
    /// root span was head-sampled (so the op is timed); `Err` is the op's
    /// final answer: [`CheckinError::VerifierRejected`] when a stage
    /// dropped it, [`CheckinError::UnknownVenue`] when there is no venue
    /// to verify against.
    fn verify(
        &self,
        req: &CheckinRequest,
        evidence: Option<&CheckinEvidence>,
        now: Timestamp,
    ) -> Result<(DecisionBuilder, bool), CheckinError> {
        // The wide-event accumulator for this decision: stack-allocated,
        // `Copy` contents only (see `lbsn_obs::audit`).
        let mut decision = DecisionBuilder::new(req.user.value(), req.venue.value(), now.secs());
        let mut span = self.metrics.registry().span(obs_names::STAGE_VERIFY);
        span.attr("user", req.user.value());
        span.attr("venue", req.venue.value());
        let mut watch = Stopwatch::start(&span);
        let Some(venue_location) = self.with_venue(req.venue, |v| v.location) else {
            return Err(CheckinError::UnknownVenue(req.venue));
        };
        let ctx = VerifyContext {
            request: req,
            venue_location,
            evidence,
            now,
        };
        let rejected_by = self.pipeline.verify(&ctx, &mut decision);
        let verify_ns = watch.lap(&self.metrics.stage_verify);
        decision.verify_ns(verify_ns);
        if let Some(verifier) = rejected_by {
            self.metrics.verifier_rejected.inc();
            span.event_with(|| format!("verifier.rejected.{verifier}"));
            span.end();
            self.metrics
                .audit
                .finish(&decision, DecisionOutcome::VerifierRejected(verifier));
            return Err(CheckinError::VerifierRejected(verifier));
        }
        let sampled = span.sampled();
        span.end();
        Ok((decision, sampled))
    }

    /// The pipeline body, entered from the admission loop with the user
    /// lock set and the venue shard held. `decision` comes with the
    /// verify stage's sampling draw when a verify stage ran (`None`
    /// otherwise: the op's root span draws its own). `user` is the
    /// submitting user,
    /// `incumbent` the venue's mayor when that is someone else, and
    /// `venue` the claimed venue: handles the loop looked up once under
    /// the held locks, so many ops run under one acquisition.
    /// Returns the venue seats to strip when this decision
    /// branded the account: the caller must release every held shard,
    /// run [`LbsnServer::strip_mayor_seats`], and only then process
    /// further ops — a branded account's subsequent check-ins are
    /// already rejected by the terminal detector, but a *stale seat*
    /// would change how later ops judge a mayorship challenge.
    fn check_in_core(
        &self,
        req: &CheckinRequest,
        now: Timestamp,
        (mut decision, sampled): (DecisionBuilder, Option<bool>),
        user: &mut User,
        incumbent: Option<&mut User>,
        venue: &mut Venue,
    ) -> (CheckinOutcome, Vec<VenueId>) {
        // One root span per check-in (head-sampled); stages become
        // children and cheater flags become span events, so a sampled
        // request can be followed end to end in chrome://tracing.
        let registry = self.metrics.registry();
        let mut span = match sampled {
            None => registry.span(obs_names::CHECKIN_SPAN),
            Some(sampled) => registry.span_sampled(obs_names::CHECKIN_SPAN, sampled),
        };
        span.attr("user", req.user.value());
        span.attr("venue", req.venue.value());

        // 1. Judge the check-in with immutable borrows. The detector
        // chain starts with the terminal branded-account detector, so a
        // branded account short-circuits to rejection before any
        // threshold rule runs. A head-sampled decision is timed: from
        // here on every stage is the gap between two consecutive
        // stopwatch reads, and the total is their sum. Any other
        // decision reads no clock and every duration is 0.
        let stage_span = span.child(obs_names::STAGE_CHEATER_CODE);
        let mut watch = Stopwatch::start(&span);
        let ctx = RuleContext {
            user,
            venue,
            request: req,
            now,
        };
        let (flags, detect_ns) = self.pipeline.detect(&ctx, &mut decision, &mut watch);
        watch.record(&self.metrics.stage_cheater_code, detect_ns);
        decision.detect_ns(detect_ns);
        stage_span.end();
        for &flag in &flags {
            self.metrics.flag_counter(flag).inc();
            span.event_with(|| format!("flag.{flag:?}"));
        }

        // 2. Record it (always — totals include flagged check-ins).
        let mut stage_span = span.child(obs_names::STAGE_RECORD);
        let rewarded = flags.is_empty();
        let record = CheckinRecord {
            venue: req.venue,
            at: now,
            location: req.reported_location,
            source: req.source,
            rewarded,
            flags: flags.clone(),
        };

        // Attributes that must be read *before* the record is appended.
        let day_start = Timestamp(now.secs() / DAY * DAY);
        let first_of_day = !user.has_valid_checkin_since(day_start);
        let first_visit = !user.visited_venues.contains(&req.venue);

        user.push_record(record);

        if !rewarded {
            self.metrics.rejected.inc();
            // Escalate to account branding once the flags pile up: the
            // account loses everything, including held mayorships.
            let mut stripped: Vec<VenueId> = Vec::new();
            let mut branded_now = false;
            user.flagged_checkins += 1;
            if let Some(threshold) = self.config.policy.detectors.account_flag_threshold {
                if !user.branded_cheater && user.flagged_checkins >= threshold {
                    user.branded_cheater = true;
                    branded_now = true;
                    stripped = user.mayorships.drain().collect();
                }
            }
            if branded_now {
                self.metrics.branded.inc();
                stage_span.event("account.branded");
                self.metrics.registry().event(
                    obs_names::ACCOUNT_BRANDED_EVENT,
                    &[
                        ("user", req.user.value().to_string()),
                        ("flagged_checkins", user.flagged_checkins.to_string()),
                    ],
                );
            }
            let is_mayor = !branded_now && venue.mayor == Some(req.user);
            let record_ns = watch.lap(&self.metrics.stage_record);
            decision.record_ns(record_ns);
            stage_span.end();
            let total_ns = detect_ns + record_ns;
            watch.record(&self.metrics.checkin_total, total_ns);
            decision.total_ns(total_ns);
            // The terminal reason is the *first* flag raised (detector
            // order); branding on this decision escalates it.
            let flag_slug = flags.first().map(|f| f.slug()).unwrap_or("");
            let outcome = if branded_now {
                DecisionOutcome::Branded(flag_slug)
            } else {
                DecisionOutcome::Rejected(flag_slug)
            };
            self.metrics.audit.finish(&decision, outcome);
            return (
                CheckinOutcome {
                    user: req.user,
                    venue: req.venue,
                    at: now,
                    points: 0,
                    new_badges: Vec::new(),
                    is_mayor,
                    became_mayor: false,
                    special_unlocked: None,
                    flags,
                },
                stripped,
            );
        }

        let record_ns = watch.lap(&self.metrics.stage_record);
        decision.record_ns(record_ns);
        stage_span.end();
        self.metrics.accepted.inc();

        // 3. Apply the valid check-in to user and venue state.
        let stage_span = span.child(obs_names::STAGE_REWARDS);
        user.valid_checkins += 1;
        if first_visit {
            user.visited_venues.insert(req.venue);
            user.venues_by_category.bump(venue.category);
        }
        venue.record_valid_checkin(req.user, self.config.recent_visitors_len);

        // 4. Run the reward ladder: mayorship → badges → points →
        // specials.
        let RewardOutcome {
            points,
            new_badges,
            is_mayor,
            became_mayor,
            special_unlocked,
        } = reward(
            &self.config.policy.rewards.points,
            req,
            now,
            first_visit,
            first_of_day,
            user,
            incumbent,
            venue,
            &self.venue_categories,
        );

        if became_mayor {
            self.metrics.mayorships_granted.inc();
        }
        self.metrics.badges_granted.add(new_badges.len() as u64);
        self.metrics.points_granted.add(points);
        decision.reward(
            points,
            new_badges.len() as u64,
            became_mayor,
            special_unlocked.is_some(),
        );
        let rewards_ns = watch.lap(&self.metrics.stage_rewards);
        decision.rewards_ns(rewards_ns);
        stage_span.end();
        let total_ns = detect_ns + record_ns + rewards_ns;
        watch.record(&self.metrics.checkin_total, total_ns);
        decision.total_ns(total_ns);
        self.metrics
            .audit
            .finish(&decision, DecisionOutcome::Accepted);

        (
            CheckinOutcome {
                user: req.user,
                venue: req.venue,
                at: now,
                points,
                new_badges,
                is_mayor,
                became_mayor,
                special_unlocked,
                flags,
            },
            Vec::new(),
        )
    }

    /// Clears `user` out of the mayor seat of every venue in `venues`,
    /// one shard at a time in ascending shard order (no other lock is
    /// held on entry). A venue whose seat has already been taken over
    /// by someone else is left alone.
    fn strip_mayor_seats(&self, user: UserId, venues: &[VenueId]) {
        if venues.is_empty() {
            return;
        }
        let mut by_shard: Vec<(usize, VenueId)> = venues
            .iter()
            .map(|v| (self.venues.shard_of(v.value()), *v))
            .collect();
        by_shard.sort_unstable_by_key(|(shard, v)| (*shard, v.value()));
        let mut i = 0;
        while i < by_shard.len() {
            let shard = by_shard[i].0;
            let mut guard = self.venues.write_shard(shard);
            while i < by_shard.len() && by_shard[i].0 == shard {
                let v = by_shard[i].1;
                if let Some(venue) = guard.get_mut(self.venues.slot_of(v.value())) {
                    if venue.mayor == Some(user) {
                        venue.mayor = None;
                    }
                }
                i += 1;
            }
        }
    }

    /// Number of registered users.
    pub fn user_count(&self) -> u64 {
        self.user_count.load(Ordering::Acquire)
    }

    /// Number of registered venues.
    pub fn venue_count(&self) -> u64 {
        self.venue_count.load(Ordering::Acquire)
    }

    /// Clones a user's full record (history included — prefer
    /// [`LbsnServer::with_user`] on hot paths, or
    /// [`LbsnServer::user_profile`] for profile-page reads).
    pub fn user(&self, id: UserId) -> Option<User> {
        self.users.with(id.value(), |u| u.clone())
    }

    /// The profile-page projection of a user — just the fields the web
    /// frontend renders. Scrape-shaped read paths over a paper-scale
    /// world go through here so each page view copies a few dozen
    /// bytes, not a lifetime check-in history.
    pub fn user_profile(&self, id: UserId) -> Option<crate::user::UserProfile> {
        self.users.with(id.value(), |u| u.profile())
    }

    /// Clones a venue's full record.
    pub fn venue(&self, id: VenueId) -> Option<Venue> {
        self.venues.with(id.value(), |v| v.clone())
    }

    /// Runs a closure against a user's record without cloning, under
    /// only that user's shard lock.
    pub fn with_user<R>(&self, id: UserId, f: impl FnOnce(&User) -> R) -> Option<R> {
        self.users.with(id.value(), f)
    }

    /// Runs a closure against a venue's record without cloning, under
    /// only that venue's shard lock.
    pub fn with_venue<R>(&self, id: VenueId, f: impl FnOnce(&Venue) -> R) -> Option<R> {
        self.venues.with(id.value(), f)
    }

    /// A venue's category from the append-only category table that
    /// badge evaluation reads — a leaf-lock read, no venue shard.
    pub fn venue_category(&self, id: VenueId) -> Option<VenueCategory> {
        let idx = id.value().checked_sub(1)? as usize;
        self.venue_categories.read().get(idx).copied()
    }

    /// Resolves a vanity username to an ID.
    pub fn user_id_by_name(&self, name: &str) -> Option<UserId> {
        self.usernames.read().get(name).copied()
    }

    /// Searches venues by name substring (case-insensitive), ID order —
    /// §2.2's "searching for a venue by name". Capped at `limit`.
    /// Scans one shard at a time; within a shard slots are already in
    /// id order, so each shard contributes its first `limit` matches
    /// and the merged result is the global first `limit` by id.
    pub fn search_venues_by_name(&self, query: &str, limit: usize) -> Vec<VenueId> {
        let needle = query.to_lowercase();
        let mut hits: Vec<VenueId> = Vec::new();
        for shard in 0..self.venues.shard_count() {
            let guard = self.venues.read_shard(shard);
            hits.extend(
                guard
                    .iter()
                    .filter(|v| v.name().to_lowercase().contains(&needle))
                    .take(limit)
                    .map(|v| v.id),
            );
        }
        hits.sort_unstable_by_key(|v| v.value());
        hits.truncate(limit);
        hits
    }

    /// Leaves a tip/comment on a venue, newest first.
    ///
    /// Tips require no check-in — which is exactly what makes §2.2's
    /// badmouthing attack sting: a location cheat plus a tip reads like
    /// a real recent customer's complaint.
    ///
    /// # Errors
    ///
    /// [`CheckinError`] for unknown user or venue IDs.
    pub fn leave_tip(
        &self,
        user: UserId,
        venue: VenueId,
        text: impl Into<String>,
    ) -> Result<(), CheckinError> {
        let now = self.clock.now();
        if self.users.with(user.value(), |_| ()).is_none() {
            return Err(CheckinError::UnknownUser(user));
        }
        let mut guard = self.venues.write_shard(self.venues.shard_of(venue.value()));
        let v = guard
            .get_mut(self.venues.slot_of(venue.value()))
            .ok_or(CheckinError::UnknownVenue(venue))?;
        v.activity_mut().tips.insert(
            0,
            crate::venue::Tip {
                user,
                text: text.into(),
                at: now,
            },
        );
        Ok(())
    }

    /// The points leaderboard: the top `n` users by points, ties broken
    /// by lower (older) ID. Foursquare surfaced a weekly leaderboard;
    /// the reproduction uses the global all-time variant.
    ///
    /// Bounded top-n selection: a size-`n` min-heap over one shard at a
    /// time — no full clone, no full sort, and writers on other shards
    /// keep running.
    pub fn leaderboard(&self, n: usize) -> Vec<(UserId, u64)> {
        if n == 0 {
            return Vec::new();
        }
        // Key order: more points wins, then lower id wins.
        let mut heap: BinaryHeap<Reverse<(u64, Reverse<u64>)>> = BinaryHeap::with_capacity(n + 1);
        for shard in 0..self.users.shard_count() {
            let guard = self.users.read_shard(shard);
            for u in guard.iter() {
                let key = (u.points, Reverse(u.id.value()));
                if heap.len() < n {
                    heap.push(Reverse(key));
                } else if heap.peek().is_some_and(|min| key > min.0) {
                    heap.pop();
                    heap.push(Reverse(key));
                }
            }
        }
        let mut rows: Vec<(UserId, u64)> = heap
            .into_iter()
            .map(|Reverse((points, Reverse(id)))| (UserId(id), points))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows
    }

    /// Visits every user, one shard read lock at a time, in shard-major
    /// order (ids interleave across shards — not global id order).
    pub fn for_each_user(&self, mut f: impl FnMut(&User)) {
        for shard in 0..self.users.shard_count() {
            let guard = self.users.read_shard(shard);
            for u in guard.iter() {
                f(u);
            }
        }
    }

    /// Visits every venue, one shard read lock at a time, in
    /// shard-major order (not global id order).
    pub fn for_each_venue(&self, mut f: impl FnMut(&Venue)) {
        for shard in 0..self.venues.shard_count() {
            let guard = self.venues.read_shard(shard);
            for v in guard.iter() {
                f(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::checkin::{CheatFlag, CheckinSource};
    use crate::rewards::Badge;
    use crate::venue::SpecialKind;
    use lbsn_geo::{destination, GeoPoint};
    use lbsn_sim::Duration;

    /// A default deployment whose branding threshold is `threshold`.
    fn branding_config(threshold: Option<u64>) -> ServerConfig {
        ServerConfig::with_detectors(DetectorConfig::default().branding_threshold(threshold))
    }

    fn abq() -> GeoPoint {
        GeoPoint::new(35.0844, -106.6504).unwrap()
    }

    fn setup() -> (LbsnServer, UserId, VenueId) {
        let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        let venue = server.register_venue(VenueSpec::new("Cafe", abq()));
        let user = server.register_user(UserSpec::named("tester"));
        (server, user, venue)
    }

    fn req(user: UserId, venue: VenueId, loc: GeoPoint) -> CheckinRequest {
        CheckinRequest {
            user,
            venue,
            reported_location: loc,
            source: CheckinSource::MobileApp,
        }
    }

    #[test]
    fn one_batch_equals_batches_of_one() {
        // Batching invariance: one batch equals many batches of one —
        // same IDs, same profile state, same discoverability.
        let make_user_specs = || {
            (0..40u64).map(|i| {
                if i % 3 == 0 {
                    UserSpec::named(format!("user-{i}")).home(destination(
                        abq(),
                        10.0,
                        50.0 * i as f64,
                    ))
                } else {
                    UserSpec::anonymous()
                }
            })
        };
        let make_venue_specs = || {
            (0..40u64).map(|i| {
                let spec = VenueSpec::new(
                    format!("Venue {i}"),
                    destination(abq(), (i * 9 % 360) as f64, 100.0 + 40.0 * i as f64),
                )
                .address(format!("{i} Central Ave"))
                .category(if i % 4 == 0 {
                    VenueCategory::Coffee
                } else {
                    VenueCategory::Bar
                });
                if i % 5 == 0 {
                    spec.special(crate::venue::Special {
                        description: format!("Deal {i}"),
                        kind: SpecialKind::MayorOnly,
                    })
                } else {
                    spec
                }
            })
        };

        let singles = LbsnServer::new(SimClock::new(), ServerConfig::default());
        for spec in make_user_specs() {
            singles.register_user(spec);
        }
        for spec in make_venue_specs() {
            singles.register_venue(spec);
        }
        let bulk = LbsnServer::new(SimClock::new(), ServerConfig::default());
        assert_eq!(bulk.bulk_register_users(make_user_specs()), 40);
        assert_eq!(bulk.bulk_register_venues(make_venue_specs()), 40);
        bulk.compact_memory();

        assert_eq!(bulk.user_count(), singles.user_count());
        assert_eq!(bulk.venue_count(), singles.venue_count());
        for id in 1..=40u64 {
            let (a, b) = (
                singles.user(UserId(id)).unwrap(),
                bulk.user(UserId(id)).unwrap(),
            );
            assert_eq!(a.id, b.id);
            assert_eq!(a.username, b.username);
            assert_eq!(a.home, b.home);
            let (va, vb) = (
                singles.venue(VenueId(id)).unwrap(),
                bulk.venue(VenueId(id)).unwrap(),
            );
            assert_eq!(va.id, vb.id);
            assert_eq!(va.name(), vb.name());
            assert_eq!(va.address(), vb.address());
            assert_eq!(va.location, vb.location);
            assert_eq!(va.category, vb.category);
            assert_eq!(va.special, vb.special);
        }
        assert_eq!(
            bulk.user_id_by_name("user-39"),
            singles.user_id_by_name("user-39")
        );
        assert_eq!(
            bulk.search_venues_by_name("venue 1", 50),
            singles.search_venues_by_name("venue 1", 50)
        );
        let near_bulk: Vec<(VenueId, f64)> = bulk.venues_near(abq(), 2_000.0, 10);
        let near_one: Vec<(VenueId, f64)> = singles.venues_near(abq(), 2_000.0, 10);
        assert_eq!(near_bulk, near_one);
        // A batch of one continues the ids of a larger batch.
        assert_eq!(bulk.register_user(UserSpec::anonymous()), UserId(41));
        assert_eq!(
            bulk.register_venue(VenueSpec::new("After", abq())),
            VenueId(41)
        );
    }

    #[test]
    fn ids_are_dense_and_incrementing() {
        let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        assert_eq!(server.register_user(UserSpec::anonymous()), UserId(1));
        assert_eq!(server.register_user(UserSpec::anonymous()), UserId(2));
        assert_eq!(
            server.register_venue(VenueSpec::new("A", abq())),
            VenueId(1)
        );
        assert_eq!(
            server.register_venue(VenueSpec::new("B", abq())),
            VenueId(2)
        );
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        let server = LbsnServer::new(
            SimClock::new(),
            ServerConfig {
                shards: 5,
                ..ServerConfig::default()
            },
        );
        assert_eq!(server.shard_count(), 8);
        let single = LbsnServer::new(
            SimClock::new(),
            ServerConfig {
                shards: 0,
                ..ServerConfig::default()
            },
        );
        assert_eq!(single.shard_count(), 1);
    }

    #[test]
    fn single_shard_server_runs_the_pipeline() {
        // The degenerate one-lock configuration must behave identically.
        let server = LbsnServer::new(
            SimClock::new(),
            ServerConfig {
                shards: 1,
                ..ServerConfig::default()
            },
        );
        let venue = server.register_venue(VenueSpec::new("Cafe", abq()));
        let user = server.register_user(UserSpec::anonymous());
        let out = server.check_in(&req(user, venue, abq())).unwrap();
        assert!(out.rewarded());
        assert!(out.became_mayor);
    }

    #[test]
    fn valid_checkin_awards_points_and_newbie() {
        let (server, user, venue) = setup();
        let out = server.check_in(&req(user, venue, abq())).unwrap();
        assert!(out.rewarded());
        // per_checkin 1 + first visit 4 + first of day 2 + new mayor 5.
        assert_eq!(out.points, 12);
        assert!(out.new_badges.contains(&Badge::Newbie));
        assert!(out.became_mayor);
        let u = server.user(user).unwrap();
        assert_eq!(u.total_checkins, 1);
        assert_eq!(u.valid_checkins, 1);
        assert_eq!(u.points, 12);
    }

    #[test]
    fn unknown_ids_record_nothing() {
        let (server, user, venue) = setup();
        assert_eq!(
            server.check_in(&req(UserId(99), venue, abq())),
            Err(CheckinError::UnknownUser(UserId(99)))
        );
        assert_eq!(
            server.check_in(&req(user, VenueId(99), abq())),
            Err(CheckinError::UnknownVenue(VenueId(99)))
        );
        assert_eq!(
            server.check_in(&req(UserId(99), VenueId(99), abq())),
            Err(CheckinError::UnknownUser(UserId(99))),
            "an unknown user is reported before an unknown venue"
        );
        assert_eq!(server.user(user).unwrap().total_checkins, 0);
        assert_eq!(
            server.check_in(&req(UserId(0), venue, abq())),
            Err(CheckinError::UnknownUser(UserId(0)))
        );
    }

    #[test]
    fn flagged_checkin_counts_but_earns_nothing() {
        let (server, user, venue) = setup();
        // Report a fix 5 km from the venue: GPS mismatch.
        let far = destination(abq(), 90.0, 5_000.0);
        let out = server.check_in(&req(user, venue, far)).unwrap();
        assert!(!out.rewarded());
        assert_eq!(out.flags, vec![CheatFlag::GpsMismatch]);
        assert_eq!(out.points, 0);
        assert!(out.new_badges.is_empty());
        let u = server.user(user).unwrap();
        assert_eq!(u.total_checkins, 1, "flagged check-ins count in totals");
        assert_eq!(u.valid_checkins, 0);
        assert_eq!(u.points, 0);
        // Venue state untouched.
        let v = server.venue(venue).unwrap();
        assert_eq!(v.checkins_here, 0);
        assert!(v.recent_visitors().is_empty());
        assert_eq!(v.mayor, None);
    }

    #[test]
    fn cooldown_then_allowed_after_hour() {
        let (server, user, venue) = setup();
        assert!(server
            .check_in(&req(user, venue, abq()))
            .unwrap()
            .rewarded());
        server.clock().advance(Duration::minutes(30));
        let blocked = server.check_in(&req(user, venue, abq())).unwrap();
        assert_eq!(blocked.flags, vec![CheatFlag::TooFrequent]);
        server.clock().advance(Duration::minutes(31));
        let ok = server.check_in(&req(user, venue, abq())).unwrap();
        assert!(ok.rewarded());
        let u = server.user(user).unwrap();
        assert_eq!(u.total_checkins, 3);
        assert_eq!(u.valid_checkins, 2);
    }

    #[test]
    fn mayorship_transfers_on_more_days() {
        let (server, alice, venue) = setup();
        let bob = server.register_user(UserSpec::named("bob"));
        // Alice checks in on 2 days.
        for _ in 0..2 {
            assert!(server
                .check_in(&req(alice, venue, abq()))
                .unwrap()
                .rewarded());
            server.clock().advance(Duration::days(1));
        }
        assert_eq!(server.venue(venue).unwrap().mayor, Some(alice));
        // Bob checks in on 3 days: takes the crown on the third.
        let mut took = false;
        for _ in 0..3 {
            let out = server.check_in(&req(bob, venue, abq())).unwrap();
            took = out.became_mayor;
            server.clock().advance(Duration::days(1));
        }
        assert!(took);
        assert_eq!(server.venue(venue).unwrap().mayor, Some(bob));
        assert!(server.user(alice).unwrap().mayorships.is_empty());
        assert!(server.user(bob).unwrap().mayorships.contains(&venue));
    }

    #[test]
    fn mayorship_transfer_across_shards() {
        // Challenger and incumbent land in different user shards, so
        // the optimistic lock set must widen on retry.
        let server = LbsnServer::new(
            SimClock::new(),
            ServerConfig {
                shards: 4,
                ..ServerConfig::default()
            },
        );
        let venue = server.register_venue(VenueSpec::new("Cafe", abq()));
        let alice = server.register_user(UserSpec::anonymous()); // shard 0
        let _pad = server.register_user(UserSpec::anonymous());
        let bob = server.register_user(UserSpec::anonymous()); // shard 2
        assert_ne!(
            server.users.shard_of(alice.value()),
            server.users.shard_of(bob.value())
        );
        for _ in 0..2 {
            server.check_in(&req(alice, venue, abq())).unwrap();
            server.clock().advance(Duration::days(1));
        }
        let mut took = false;
        for _ in 0..3 {
            took = server
                .check_in(&req(bob, venue, abq()))
                .unwrap()
                .became_mayor;
            server.clock().advance(Duration::days(1));
        }
        assert!(took);
        assert_eq!(server.venue(venue).unwrap().mayor, Some(bob));
        assert!(server.user(alice).unwrap().mayorships.is_empty());
    }

    #[test]
    fn mayor_only_special_goes_to_mayor() {
        let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        let venue = server.register_venue(VenueSpec::new("Cafe", abq()).special(crate::Special {
            description: "Free coffee for the mayor!".into(),
            kind: SpecialKind::MayorOnly,
        }));
        let user = server.register_user(UserSpec::anonymous());
        let out = server.check_in(&req(user, venue, abq())).unwrap();
        assert!(out.became_mayor);
        assert_eq!(
            out.special_unlocked.as_deref(),
            Some("Free coffee for the mayor!")
        );
        // A second user checking in does not unlock it.
        let other = server.register_user(UserSpec::anonymous());
        server.clock().advance(Duration::hours(2));
        let out2 = server.check_in(&req(other, venue, abq())).unwrap();
        assert!(out2.rewarded());
        assert_eq!(out2.special_unlocked, None);
    }

    #[test]
    fn loyalty_special_unlocks_at_threshold() {
        let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        let venue =
            server.register_venue(VenueSpec::new("Sandwiches", abq()).special(crate::Special {
                description: "Free sub after 3 visits".into(),
                kind: SpecialKind::Loyalty { visits: 3 },
            }));
        let user = server.register_user(UserSpec::anonymous());
        for i in 0..3 {
            let out = server.check_in(&req(user, venue, abq())).unwrap();
            assert!(out.rewarded());
            if i < 2 {
                assert_eq!(out.special_unlocked, None, "visit {}", i + 1);
            } else {
                assert_eq!(
                    out.special_unlocked.as_deref(),
                    Some("Free sub after 3 visits")
                );
            }
            server.clock().advance(Duration::hours(2));
        }
    }

    #[test]
    fn username_resolution() {
        let (server, user, _) = setup();
        assert_eq!(server.user_id_by_name("tester"), Some(user));
        assert_eq!(server.user_id_by_name("nobody"), None);
    }

    #[test]
    fn friendship_is_symmetric() {
        let (server, alice, _) = setup();
        let bob = server.register_user(UserSpec::anonymous());
        server.add_friendship(alice, bob).unwrap();
        assert!(server.user(alice).unwrap().friends.contains(&bob));
        assert!(server.user(bob).unwrap().friends.contains(&alice));
        let before = server.user(alice).unwrap().friends.clone();
        assert_eq!(
            server.add_friendship(alice, UserId(999)),
            Err(CheckinError::UnknownUser(UserId(999)))
        );
        assert_eq!(
            server.add_friendship(UserId(0), UserId(999)),
            Err(CheckinError::UnknownUser(UserId(0))),
            "the first endpoint is checked first"
        );
        assert_eq!(server.user(alice).unwrap().friends, before);
        server.add_friendship(bob, bob).unwrap();
        assert_eq!(
            server.user(bob).unwrap().friends.as_slice().to_vec(),
            [alice, bob],
            "a self-edge befriends self once"
        );
    }

    /// Every registered user's friend set, as plain ids.
    fn friend_sets(server: &LbsnServer) -> BTreeMap<u64, BTreeSet<u64>> {
        (1..=server.user_count())
            .map(|id| {
                let friends = server
                    .with_user(UserId(id), |u| {
                        u.friends.iter().map(|f| f.value()).collect()
                    })
                    .unwrap();
                (id, friends)
            })
            .collect()
    }

    /// Applies `edges` to a symmetric-closure model of the friend graph.
    fn model_apply(model: &mut BTreeMap<u64, BTreeSet<u64>>, edges: &[(UserId, UserId)]) {
        for &(a, b) in edges {
            model.entry(a.value()).or_default().insert(b.value());
            model.entry(b.value()).or_default().insert(a.value());
        }
    }

    #[test]
    fn friendship_batches_match_a_set_model_across_chunks() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const USERS: u64 = 4_000;
        let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        assert_eq!(server.shard_count(), 16);
        server.bulk_register_users((0..USERS).map(|_| UserSpec::anonymous()));
        let mut rng = StdRng::seed_from_u64(7);
        let mut edges: Vec<(UserId, UserId)> = Vec::new();
        while edges.len() < 2 * BULK_CHUNK + 5_000 {
            let a = UserId(rng.gen_range(1..=USERS));
            let edge = match rng.gen_range(0..20u32) {
                0 => (a, a),
                // Duplicates, in both orientations.
                1 | 2 if !edges.is_empty() => {
                    let (x, y) = edges[rng.gen_range(0..edges.len())];
                    if rng.gen_bool(0.5) {
                        (x, y)
                    } else {
                        (y, x)
                    }
                }
                _ => (a, UserId(rng.gen_range(1..=USERS))),
            };
            edges.push(edge);
        }
        let mut model: BTreeMap<u64, BTreeSet<u64>> =
            (1..=USERS).map(|id| (id, BTreeSet::new())).collect();
        model_apply(&mut model, &edges);
        server.add_friendships(edges.iter().copied()).unwrap();
        assert_eq!(friend_sets(&server), model);

        // A later batch whose second chunk holds an unknown id: the
        // first chunk lands, nothing of the second does, and nothing
        // past the bad edge is read.
        let mut more: Vec<(UserId, UserId)> = (0..BULK_CHUNK + 100)
            .map(|_| {
                (
                    UserId(rng.gen_range(1..=USERS)),
                    UserId(rng.gen_range(1..=USERS)),
                )
            })
            .collect();
        let bad = BULK_CHUNK + 40;
        more[bad].1 = UserId(USERS + 1);
        let mut read = 0usize;
        let result = server.add_friendships(more.iter().copied().inspect(|_| read += 1));
        assert_eq!(result, Err(CheckinError::UnknownUser(UserId(USERS + 1))));
        assert_eq!(read, bad + 1);
        model_apply(&mut model, &more[..BULK_CHUNK]);
        assert_eq!(friend_sets(&server), model);
    }

    #[test]
    fn recent_visitor_list_capped_by_config() {
        let server = LbsnServer::new(
            SimClock::new(),
            ServerConfig {
                recent_visitors_len: 2,
                ..ServerConfig::default()
            },
        );
        let venue = server.register_venue(VenueSpec::new("Hot Spot", abq()));
        for _ in 0..4 {
            let u = server.register_user(UserSpec::anonymous());
            server.check_in(&req(u, venue, abq())).unwrap();
            server.clock().advance(Duration::minutes(5));
        }
        let v = server.venue(venue).unwrap();
        assert_eq!(v.recent_visitors().len(), 2);
        assert_eq!(v.unique_visitors().len(), 4);
        assert_eq!(v.checkins_here, 4);
    }

    #[test]
    fn adventurer_badge_after_ten_venues() {
        // Reproduces the paper's §3.1 result: ten distant venues, spoofed
        // fixes at each venue's own location, all accepted; the tenth
        // unlocks Adventurer.
        let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        let user = server.register_user(UserSpec::named("cheater"));
        let mut venues = Vec::new();
        for i in 0..10 {
            let loc = destination(abq(), 90.0, 2_000.0 * i as f64);
            venues.push(server.register_venue(VenueSpec::new(format!("V{i}"), loc)));
        }
        let mut last = None;
        for v in &venues {
            let loc = server.venue(*v).unwrap().location;
            last = Some(server.check_in(&req(user, *v, loc)).unwrap());
            server.clock().advance(Duration::minutes(10));
        }
        let last = last.unwrap();
        assert!(last.rewarded());
        assert!(last.new_badges.contains(&Badge::Adventurer));
    }

    #[test]
    fn tips_post_newest_first_and_validate_ids() {
        let (server, user, venue) = setup();
        server.leave_tip(user, venue, "Great coffee").unwrap();
        server.clock().advance(Duration::minutes(5));
        server.leave_tip(user, venue, "Long line today").unwrap();
        let v = server.venue(venue).unwrap();
        assert_eq!(v.tips().len(), 2);
        assert_eq!(v.tips()[0].text, "Long line today");
        assert_eq!(v.tips()[1].text, "Great coffee");
        assert!(v.tips()[0].at > v.tips()[1].at);
        assert_eq!(
            server.leave_tip(UserId(99), venue, "x"),
            Err(CheckinError::UnknownUser(UserId(99)))
        );
        assert_eq!(
            server.leave_tip(user, VenueId(99), "x"),
            Err(CheckinError::UnknownVenue(VenueId(99)))
        );
    }

    #[test]
    fn leaderboard_ranks_by_points_then_id() {
        let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        let venue = server.register_venue(VenueSpec::new("Cafe", abq()));
        let a = server.register_user(UserSpec::anonymous());
        let b = server.register_user(UserSpec::anonymous());
        let c = server.register_user(UserSpec::anonymous());
        // a takes the venue first (first-visit + mayor bonuses: 12
        // points); b revisits twice without the mayor bonus (7 + 1);
        // c never checks in.
        server.check_in(&req(a, venue, abq())).unwrap();
        server.clock().advance(Duration::hours(2));
        server.check_in(&req(b, venue, abq())).unwrap();
        server.clock().advance(Duration::hours(2));
        server.check_in(&req(b, venue, abq())).unwrap();
        let (pa, pb) = (
            server.user(a).unwrap().points,
            server.user(b).unwrap().points,
        );
        assert!(pa > pb, "a {pa} vs b {pb}");
        let board = server.leaderboard(10);
        assert_eq!(board[0], (a, pa));
        assert_eq!(board[1], (b, pb));
        assert_eq!(board[2], (c, 0));
        assert_eq!(server.leaderboard(1).len(), 1);
        assert!(server.leaderboard(0).is_empty());
    }

    #[test]
    fn leaderboard_bounded_selection_matches_full_sort() {
        // Many users spread across shards with colliding point totals:
        // the heap selection must agree with a naive full sort.
        let server = LbsnServer::new(SimClock::new(), ServerConfig::default());
        let venue = server.register_venue(VenueSpec::new("Cafe", abq()));
        let n = 100;
        for _ in 0..n {
            server.register_user(UserSpec::anonymous());
        }
        for i in 1..=n {
            // Every third user revisits for extra points.
            for _ in 0..(i % 3 + 1) {
                server.check_in(&req(UserId(i), venue, abq())).unwrap();
                server.clock().advance(Duration::hours(2));
            }
        }
        let mut naive: Vec<(UserId, u64)> = Vec::new();
        server.for_each_user(|u| naive.push((u.id, u.points)));
        naive.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        naive.truncate(10);
        assert_eq!(server.leaderboard(10), naive);
    }

    #[test]
    fn leaderboard_ties_are_identical_across_shard_counts() {
        // Regression: with every user on an equal score, a truncated
        // leaderboard must pick (and order) the same users no matter
        // how they were distributed over shards — ids interleave across
        // shards differently at each shard count, so any heap-eviction
        // or merge-order dependence shows up as a reordering here.
        let board_at = |shards: usize| {
            let server = LbsnServer::new(
                SimClock::new(),
                ServerConfig {
                    shards,
                    ..ServerConfig::default()
                },
            );
            for i in 0..40 {
                let user = server.register_user(UserSpec::anonymous());
                let venue = server.register_venue(VenueSpec::new(format!("Spot {i}"), abq()));
                // One first-visit check-in each: identical point totals.
                assert!(server
                    .check_in(&req(user, venue, abq()))
                    .unwrap()
                    .rewarded());
            }
            server.leaderboard(10)
        };
        let reference = board_at(1);
        assert_eq!(reference.len(), 10);
        let points = reference[0].1;
        assert!(reference.iter().all(|&(_, p)| p == points), "all tied");
        // Ties resolve to the lowest (oldest) ids, in ascending order.
        let ids: Vec<u64> = reference.iter().map(|&(u, _)| u.value()).collect();
        assert_eq!(ids, (1..=10).collect::<Vec<u64>>());
        for shards in [2, 4, 16, 64] {
            assert_eq!(board_at(shards), reference, "shards={shards}");
        }
    }

    #[test]
    fn repeated_flags_brand_the_account_and_strip_mayorships() {
        let server = LbsnServer::new(SimClock::new(), branding_config(Some(3)));
        let venue = server.register_venue(VenueSpec::new("Home", abq()));
        let user = server.register_user(UserSpec::anonymous());
        // A legitimate mayorship first.
        assert!(
            server
                .check_in(&req(user, venue, abq()))
                .unwrap()
                .became_mayor
        );
        // Three GPS-mismatch attempts: branded on the third.
        let far = destination(abq(), 90.0, 10_000.0);
        for _ in 0..3 {
            server.clock().advance(Duration::hours(2));
            assert!(!server.check_in(&req(user, venue, far)).unwrap().rewarded());
        }
        let u = server.user(user).unwrap();
        assert!(u.branded_cheater);
        assert_eq!(u.flagged_checkins, 3);
        assert!(u.mayorships.is_empty(), "mayorships stripped");
        assert_eq!(server.venue(venue).unwrap().mayor, None);
        // Even a perfectly-formed check-in is now invalidated.
        server.clock().advance(Duration::days(2));
        let out = server.check_in(&req(user, venue, abq())).unwrap();
        assert_eq!(out.flags, vec![CheatFlag::AccountFlagged]);
        assert_eq!(server.user(user).unwrap().total_checkins, 5);
    }

    #[test]
    fn branding_strips_mayorships_across_every_shard() {
        // Venues in every shard, all held by one user: branding must
        // clear every seat via the two-phase shard walk.
        let server = LbsnServer::new(
            SimClock::new(),
            ServerConfig {
                shards: 8,
                ..branding_config(Some(3))
            },
        );
        let user = server.register_user(UserSpec::anonymous());
        let mut venues = Vec::new();
        for i in 0..16u64 {
            let loc = destination(abq(), (i * 20 % 360) as f64, 300.0 * (i + 1) as f64);
            venues.push(server.register_venue(VenueSpec::new(format!("V{i}"), loc)));
        }
        for v in &venues {
            let loc = server.venue(*v).unwrap().location;
            assert!(server.check_in(&req(user, *v, loc)).unwrap().became_mayor);
            server.clock().advance(Duration::hours(2));
        }
        assert_eq!(server.user(user).unwrap().mayorships.len(), 16);
        let far = destination(abq(), 90.0, 50_000.0);
        for _ in 0..3 {
            server.clock().advance(Duration::hours(2));
            server.check_in(&req(user, venues[0], far)).unwrap();
        }
        assert!(server.user(user).unwrap().mayorships.is_empty());
        for v in &venues {
            assert_eq!(server.venue(*v).unwrap().mayor, None, "seat {v:?} cleared");
        }
    }

    #[test]
    fn branding_disabled_keeps_per_checkin_judgement() {
        let server = LbsnServer::new(SimClock::new(), branding_config(None));
        let venue = server.register_venue(VenueSpec::new("Home", abq()));
        let user = server.register_user(UserSpec::anonymous());
        let far = destination(abq(), 90.0, 10_000.0);
        for _ in 0..20 {
            server.clock().advance(Duration::hours(2));
            server.check_in(&req(user, venue, far)).unwrap();
        }
        // Still not branded; an honest check-in succeeds.
        server.clock().advance(Duration::hours(2));
        assert!(server
            .check_in(&req(user, venue, abq()))
            .unwrap()
            .rewarded());
        assert!(!server.user(user).unwrap().branded_cheater);
    }

    #[test]
    fn mayor_hopping_exhausts_retries_and_falls_back_to_all_shards() {
        // Regression for the 3-miss lock-all fallback: if the venue's
        // mayor keeps moving to a user shard outside the held lock set,
        // the optimistic widening loop must give up after
        // `MAYOR_LOCK_RETRIES` attempts and lock every user shard —
        // converging instead of spinning. The retry probe fires at the
        // top of every attempt with no locks held, so it can hop the
        // mayor adversarially between attempts; under debug_assertions
        // the whole dance also runs against the lock-order sentinel,
        // proving the fallback path (the widest lock set the server
        // ever takes) obeys the shard discipline.
        let registry = Arc::new(Registry::new());
        let server = Arc::new(LbsnServer::with_registry(
            SimClock::new(),
            ServerConfig {
                shards: 4,
                ..ServerConfig::default()
            },
            Arc::clone(&registry),
        ));
        let venue = server.register_venue(VenueSpec::new("Contested", abq()));
        // Users 1..=4 land in shards 0..=3; user 1 (shard 0) checks in.
        for _ in 0..4 {
            server.register_user(UserSpec::anonymous());
        }
        let checker = UserId(1);
        {
            let hopper = Arc::clone(&server);
            let venue_shard = server.venues.shard_of(venue.value());
            let venue_slot = server.venues.slot_of(venue.value());
            *server.retry_probe.lock() = Some(Box::new(move |attempt| {
                if attempt >= MAYOR_LOCK_RETRIES {
                    // Fallback attempt: every user shard is about to be
                    // locked, so hopping can no longer evade coverage.
                    return;
                }
                // Park the mayor in a shard the next lock set cannot
                // cover: rotate through shards 1, 2, 3 (never the
                // checker's shard 0, never the previous attempt's).
                let mayor = UserId(2 + u64::from(attempt % 3));
                hopper.venues.write_shard(venue_shard)[venue_slot].mayor = Some(mayor);
            }));
        }
        let out = server.check_in(&req(checker, venue, abq())).unwrap();
        assert!(out.rewarded());
        assert!(out.became_mayor, "hopping incumbents never accrued days");
        assert_eq!(server.venue(venue).unwrap().mayor, Some(checker));
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("server.checkin.lock_retry"),
            u64::from(MAYOR_LOCK_RETRIES),
            "one widening per evaded attempt"
        );
        assert_eq!(snap.counter("server.checkin.lock_fallback"), 1);
        // The fallback is a one-check-in affair: a quiet follow-up
        // check-in takes the fast path again.
        *server.retry_probe.lock() = None;
        server.clock().advance(Duration::hours(2));
        server.check_in(&req(checker, venue, abq())).unwrap();
        assert_eq!(
            registry.snapshot().counter("server.checkin.lock_fallback"),
            1
        );
    }

    #[test]
    fn concurrent_reads_during_writes() {
        use std::sync::Arc;
        let server = Arc::new(LbsnServer::new(SimClock::new(), ServerConfig::default()));
        let venue = server.register_venue(VenueSpec::new("Busy", abq()));
        for _ in 0..50 {
            server.register_user(UserSpec::anonymous());
        }
        let reader = {
            let s = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut seen = 0;
                for _ in 0..200 {
                    s.for_each_venue(|v| seen += v.checkins_here);
                }
                seen
            })
        };
        for i in 1..=50 {
            server.check_in(&req(UserId(i), venue, abq())).unwrap();
            server.clock().advance(Duration::minutes(2));
        }
        reader.join().unwrap();
        assert_eq!(server.venue(venue).unwrap().checkins_here, 50);
    }

    /// Only a head-sampled decision is timed. On one thread at the
    /// default 1-in-16 rate, decision `i` is sampled exactly when
    /// `i % 16 == 0`: it reads the clock 8 times when accepted and 7
    /// when rejected, and one sample lands in the total, each stage and
    /// each detector sketch. Every other decision reads no clock,
    /// records into none of them and leaves zero durations on its audit
    /// record. Counters count every decision, and a disabled registry
    /// reads no clock at all.
    #[test]
    fn only_head_sampled_decisions_are_timed() {
        use crate::metrics::clock_reads;
        use lbsn_obs::{AuditConfig, StageNanos};

        const N: u64 = 100;
        let registry = Arc::new(Registry::new());
        registry.audit_with_config(AuditConfig {
            capacity: 1 << 10,
            stripes: 1,
            sample_every: 1,
        });
        let server = LbsnServer::with_registry(
            SimClock::new(),
            branding_config(None),
            Arc::clone(&registry),
        );
        let venue = server.register_venue(VenueSpec::new("Cafe", abq()));
        let honest = server.register_user(UserSpec::anonymous());
        let spoofer = server.register_user(UserSpec::anonymous());
        let far = destination(abq(), 45.0, 500_000.0);
        // Every third op is a GPS spoof; ops 32 and 80 are sampled ones.
        let spoofed = |i: u64| i % 3 == 2;
        let run = |ops: std::ops::Range<u64>, want: &dyn Fn(u64) -> u64| {
            for i in ops {
                server.clock().advance(Duration::secs(3_700));
                let r = if spoofed(i) {
                    req(spoofer, venue, far)
                } else {
                    req(honest, venue, abq())
                };
                clock_reads::take();
                let out = server.check_in(&r).unwrap();
                assert_eq!(clock_reads::take(), want(i), "decision {i}");
                assert_eq!(out.rewarded(), !spoofed(i), "decision {i}");
            }
        };
        run(0..N, &|i| match (i % 16 == 0, spoofed(i)) {
            (false, _) => 0,
            (true, false) => 8,
            (true, true) => 7,
        });

        let timed = N.div_ceil(16);
        let rejected = (0..N).filter(|&i| spoofed(i)).count() as u64;
        let timed_rejected = (0..N).filter(|&i| i % 16 == 0 && spoofed(i)).count() as u64;
        assert_eq!(timed_rejected, 2);
        let snap = registry.snapshot();
        let samples = |name: &str| snap.sketches[name].count;
        assert_eq!(samples(obs_names::CHECKIN_TOTAL), timed);
        assert_eq!(samples(obs_names::STAGE_CHEATER_CODE), timed);
        assert_eq!(samples(obs_names::STAGE_RECORD), timed);
        assert_eq!(samples(obs_names::STAGE_REWARDS), timed - timed_rejected);
        assert_eq!(samples(obs_names::STAGE_VERIFY), 0);
        for name in server.pipeline.detector_names() {
            assert_eq!(samples(&obs_names::detector_latency(name)), timed, "{name}");
        }
        assert_eq!(snap.counter(obs_names::ACCEPTED), N - rejected);
        assert_eq!(snap.counter(obs_names::REJECTED), rejected);
        assert_eq!(snap.counter(obs_names::FLAG_GPS_MISMATCH), rejected);
        assert_eq!(
            snap.counter(&obs_names::detector_rejected("gps-proximity")),
            rejected
        );

        let mut decisions = snap.decisions.clone();
        decisions.sort_by_key(|d| d.seq);
        assert_eq!(decisions.len() as u64, N);
        for (i, d) in (0..N).zip(&decisions) {
            let detectors: u64 = d.detectors.iter().map(|v| v.elapsed_ns).sum();
            if i % 16 == 0 {
                assert!(d.stage_ns.total > 0, "decision {i}");
                assert_eq!(d.stage_ns.detect, detectors, "decision {i}");
                assert_eq!(
                    d.stage_ns.total,
                    d.stage_ns.detect + d.stage_ns.record + d.stage_ns.rewards,
                    "decision {i}"
                );
            } else {
                assert_eq!(d.stage_ns, StageNanos::default(), "decision {i}");
                assert_eq!(detectors, 0, "decision {i}");
                assert_eq!(d.detectors.len(), 5, "decision {i}");
            }
        }

        registry.set_enabled(false);
        run(N..N + 32, &|_| 0);
    }

    /// On a verified server the verify root and the `server.checkin`
    /// root of one op share one sampling draw: one op in 16 is timed in
    /// both, and every other op in neither.
    #[test]
    fn verified_ops_time_verify_and_pipeline_together() {
        use crate::pipeline::{CheckinVerifier, VerifierVerdict, VerifyContext};
        use lbsn_obs::{AuditConfig, StageNanos};

        struct Admit;
        impl CheckinVerifier for Admit {
            fn name(&self) -> &'static str {
                "always-admit"
            }
            fn verify(&self, _: &VerifyContext<'_>) -> (VerifierVerdict, &'static str) {
                (VerifierVerdict::Admit, "")
            }
        }

        const N: u64 = 64;
        let registry = Arc::new(Registry::new());
        registry.audit_with_config(AuditConfig {
            capacity: 1 << 10,
            stripes: 1,
            sample_every: 1,
        });
        let server = LbsnServer::with_pipeline(
            SimClock::new(),
            ServerConfig::default(),
            Arc::clone(&registry),
            vec![Box::new(Admit)],
        );
        let venue = server.register_venue(VenueSpec::new("Cafe", abq()));
        let user = server.register_user(UserSpec::anonymous());
        for _ in 0..N {
            server.clock().advance(Duration::secs(3_700));
            let out = server.check_in_with_evidence(&req(user, venue, abq()), None);
            assert!(out.expect("admitted").rewarded());
        }
        let snap = registry.snapshot();
        let timed = N.div_ceil(16);
        assert_eq!(snap.sketches[obs_names::STAGE_VERIFY].count, timed);
        assert_eq!(snap.sketches[obs_names::CHECKIN_TOTAL].count, timed);
        let mut decisions = snap.decisions.clone();
        decisions.sort_by_key(|d| d.seq);
        assert_eq!(decisions.len() as u64, N);
        for (i, d) in (0..N).zip(&decisions) {
            if i % 16 == 0 {
                assert!(d.stage_ns.verify > 0 && d.stage_ns.total > 0, "op {i}");
            } else {
                assert_eq!(d.stage_ns, StageNanos::default(), "op {i}");
            }
        }
    }

    #[test]
    fn shard_metrics_are_exported() {
        let registry = Arc::new(Registry::new());
        let server = LbsnServer::with_registry(
            SimClock::new(),
            ServerConfig::default(),
            Arc::clone(&registry),
        );
        let venue = server.register_venue(VenueSpec::new("Cafe", abq()));
        let user = server.register_user(UserSpec::anonymous());
        server.check_in(&req(user, venue, abq())).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("server.shard.count"), 16.0);
        assert!(
            snap.quantile_ns("server.shard.lock_wait", 0.99).is_some(),
            "lock-wait stat populated"
        );
    }

    #[test]
    fn memory_sampler_tracks_state_and_paces_by_sim_time() {
        let registry = Arc::new(Registry::new());
        let server = LbsnServer::with_registry(
            SimClock::new(),
            ServerConfig::default(),
            Arc::clone(&registry),
        );
        let venue = server.register_venue(VenueSpec::new("Cafe", abq()));
        let user = server.register_user(UserSpec::named("measured"));
        // The very first check-in elects itself as the sampler (the
        // first sweep is due at virtual time zero).
        server.check_in(&req(user, venue, abq())).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("server.mem.samples"), 1);
        assert!(snap.gauge("server.mem.users_bytes") > 0.0);
        assert!(snap.gauge("server.mem.venues_bytes") > 0.0);
        assert!(snap.gauge("server.mem.side_maps_bytes") > 0.0);
        let total = snap.gauge("server.mem.total_bytes");
        assert_eq!(
            total,
            snap.gauge("server.mem.users_bytes")
                + snap.gauge("server.mem.venues_bytes")
                + snap.gauge("server.mem.side_maps_bytes")
        );
        // One registered user: per-user equals the total.
        assert_eq!(snap.gauge("server.mem.bytes_per_user"), total);
        // Inside the 6-virtual-hour interval no further sweep runs,
        // however much traffic flows…
        for _ in 0..40 {
            server.clock().advance(Duration::minutes(2));
            server.check_in(&req(user, venue, abq())).unwrap();
        }
        assert_eq!(registry.snapshot().counter("server.mem.samples"), 1);
        // …and once the interval elapses, the sweep still waits for
        // enough further check-ins to amortize the last sweep's cost
        // (one per MEM_SWEEP_BYTES_PER_OP accounted bytes).
        server.clock().advance(Duration::hours(6));
        server.check_in(&req(user, venue, abq())).unwrap();
        assert_eq!(
            registry.snapshot().counter("server.mem.samples"),
            1,
            "the amortization guard defers the due sweep"
        );
        let mut ops = 0;
        while registry.snapshot().counter("server.mem.samples") < 2 {
            server.clock().advance(Duration::minutes(2));
            server.check_in(&req(user, venue, abq())).unwrap();
            ops += 1;
            assert!(ops < 1024, "sweep never re-ran under sustained traffic");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("server.mem.samples"), 2);
        // The sweep also filled the occupancy column of the heatmap.
        let heat = snap
            .shard_heat
            .iter()
            .find(|h| h.family == "server.shard.heat.users")
            .expect("users heat family in snapshot");
        let occupied: u64 = heat.shards.iter().map(|r| r.occupancy).sum();
        assert_eq!(occupied, 1, "one user resident across all shards");
        assert!(heat.shards.iter().any(|r| r.ops > 0));
    }

    /// Acceptance check for the flight recorder: a worker thread killed
    /// by the lock-order sentinel must leave a dump carrying the
    /// violating thread's held-lock state and the retained trace.
    #[cfg(debug_assertions)]
    #[test]
    fn sentinel_kill_writes_flight_dump_with_forensics() {
        use lbsn_obs::FlightDump;
        let dir = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/flight-test-server"
        );
        let _ = std::fs::remove_dir_all(dir);
        let registry = Arc::new(Registry::new());
        let server = Arc::new(LbsnServer::with_registry(
            SimClock::new(),
            ServerConfig::default(),
            Arc::clone(&registry),
        ));
        server.register_venue(VenueSpec::new("Cafe", abq()));
        server.register_user(UserSpec::named("witness"));
        // A marker event that must survive into the dump's trace tail.
        registry.event(
            lbsn_obs::names::server::ACCOUNT_BRANDED_EVENT,
            &[("user", "u424242".to_string())],
        );
        server.arm_flight_recorder(dir);
        let worker = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                // Rule 1 violation: a user shard while holding a venue
                // shard. The sentinel panics; the flight hook fires
                // before unwinding releases the guards.
                let _venue_guard = server.venues.write_shard(0);
                let _user_guard = server.users.read_shard(0);
            })
        };
        assert!(worker.join().is_err(), "sentinel must kill the worker");
        lbsn_obs::disarm();
        let mut found = false;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let dump = FlightDump::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
            if dump.reason.contains("rule 1") {
                assert!(
                    dump.held_locks.iter().any(|l| l.contains("venue shard 0")),
                    "held locks must name the venue shard: {:?}",
                    dump.held_locks
                );
                assert!(
                    dump.events
                        .iter()
                        .any(|e| e.fields.iter().any(|(_, v)| v == "u424242")),
                    "marker event must be in the dump's trace tail"
                );
                found = true;
            }
        }
        assert!(found, "no dump carries the sentinel panic reason");
    }
}
