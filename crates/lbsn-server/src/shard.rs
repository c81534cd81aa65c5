//! Lock-striped entity storage: the concurrency layer under
//! [`crate::LbsnServer`].
//!
//! Entities (users, venues) carry dense IDs from 1. A [`ShardedVec`]
//! splits them across a power-of-two number of independently locked
//! shards: entity `id` lives in shard `(id - 1) % shards` at slot
//! `(id - 1) / shards`, so dense registration fills every shard evenly
//! and a lookup is a mask, a shift, and one shard lock — never a global
//! one. Crawler threads scraping profile pages therefore only ever
//! contend with check-ins that touch the *same* shard, not with the
//! whole service.
//!
//! # Lock order, in the types
//!
//! Deadlock freedom across the server rests on four rules (DESIGN.md
//! §7). Each is a signature here, so a violation does not compile.
//! Every acquisition takes a zero-sized *level token* by `&mut` and
//! returns a guard that keeps that borrow alive, plus the token of the
//! next level down:
//!
//! | lock | takes | gives |
//! |---|---|---|
//! | user shard, [`ShardedVec::write_set`] | `&mut` [`Unlocked`] | [`UserLevel`] |
//! | venue shard | `&mut` [`Unlocked`] or `&mut` [`UserLevel`] | [`VenueLevel`] |
//! | leaf ([`LeafLock`]: username map, venue grid, category table) | `&mut` any level | nothing |
//! | venue-string arena ([`RootLock`]) | `&mut` [`Unlocked`] | nothing |
//!
//! 1. **Families are ordered**: user shards before venue shards. A
//!    venue guard borrows the token every user acquisition needs.
//! 2. **Within a family, ascending order**: a user guard borrows the
//!    only [`Unlocked`], so a second user shard is held only through
//!    [`ShardedVec::write_set`], which sorts.
//! 3. **At most one venue shard**: a venue guard borrows its level
//!    exclusively, and no acquisition accepts a [`VenueLevel`].
//!    Cross-venue transitions (mayor stripping on account branding)
//!    are two-phase: collect the venue list under the user's shard,
//!    release, then apply shard by shard in ascending order.
//! 4. **Side maps are leaves**: a leaf guard borrows whatever level it
//!    was taken at and gives none back, so nothing is acquired under it.
//!
//! The types cannot see one thing: a second [`Unlocked`] minted while
//! the first one's guards live, which is what a server call made from
//! inside a `for_each_user`/`with_user` callback would do. Tokens are
//! therefore minted only around a locking section, never handed out,
//! and debug builds assert that a thread holds at most one live
//! [`Unlocked`] ([`Unlocked::mint`]). Guards are the bare `parking_lot`
//! guards and tokens are `PhantomData`, so release builds pay nothing.
//! [`ShardedVec::try_read_shard`] needs no token: a try-acquire never
//! blocks, and the optimistic mayor peek drops its guard before any
//! real acquisition.
//!
//! Every acquisition is timed into the `server.shard.lock_wait`
//! sketch: the uncontended try-lock fast path records 0 ns
//! without reading the clock, the contended slow path records the
//! measured wait (two clock reads, none while the registry is
//! disabled), so the sketch's p99 is a direct contention signal the
//! SLO gate can bound. The aggregate sketch deliberately erases *which*
//! stripe was hot, so each acquisition additionally bumps a per-shard
//! [`ShardHeat`] row (ops always; contended count + wait only on the
//! slow path) — the `server.shard.heat.{users,venues}` families the
//! scale ladder renders as a contention heatmap.
//!
//! # What does not compile
//!
//! Each block below breaks one rule and names the borrow error that
//! rejects it. The blocks share this setup:
//!
//! ```
//! # use lbsn_server::shard::*;
//! let r = lbsn_obs::Registry::new();
//! let users: ShardedVec<u64, Users> = ShardedVec::new(8, r.sketch("u"), r.shard_heat("u", 8));
//! let venues: ShardedVec<u64, Venues> = ShardedVec::new(8, r.sketch("v"), r.shard_heat("v", 8));
//! let names = LeafLock::new(0u64);
//! let arena = RootLock::new(0u64);
//! // The legal order: user shards, one venue shard, a leaf.
//! let mut unlocked = Unlocked::mint();
//! let (set, mut user_level) = users.write_set(&mut unlocked, &mut vec![5, 1]);
//! let (venue, mut venue_level) = venues.write_shard(&mut user_level, 0);
//! let name = names.read(&mut venue_level);
//! drop((name, venue, set));
//! *arena.lock(&mut unlocked) += 1;
//! ```
//!
//! Rule 2, a descending pair of user shards:
//!
//! ```compile_fail,E0499
//! # use lbsn_server::shard::*; let r = lbsn_obs::Registry::new();
//! # let users: ShardedVec<u64, Users> = ShardedVec::new(8, r.sketch("u"), r.shard_heat("u", 8));
//! let mut unlocked = Unlocked::mint();
//! let (a, _) = users.write_shard(&mut unlocked, 3);
//! let (b, _) = users.write_shard(&mut unlocked, 1);
//! drop((b, a));
//! ```
//!
//! Rule 2, a `write_set` under a held user shard:
//!
//! ```compile_fail,E0499
//! # use lbsn_server::shard::*; let r = lbsn_obs::Registry::new();
//! # let users: ShardedVec<u64, Users> = ShardedVec::new(8, r.sketch("u"), r.shard_heat("u", 8));
//! let mut unlocked = Unlocked::mint();
//! let (outer, _) = users.write_shard(&mut unlocked, 5);
//! let (set, _) = users.write_set(&mut unlocked, &mut vec![1]);
//! drop((set, outer));
//! ```
//!
//! Rule 2, re-entering a held user shard:
//!
//! ```compile_fail,E0499
//! # use lbsn_server::shard::*; let r = lbsn_obs::Registry::new();
//! # let users: ShardedVec<u64, Users> = ShardedVec::new(8, r.sketch("u"), r.shard_heat("u", 8));
//! let mut unlocked = Unlocked::mint();
//! let (a, _) = users.read_shard(&mut unlocked, 2);
//! let (b, _) = users.read_shard(&mut unlocked, 2);
//! drop((b, a));
//! ```
//!
//! Rule 1, a user shard under a venue shard:
//!
//! ```compile_fail,E0499
//! # use lbsn_server::shard::*; let r = lbsn_obs::Registry::new();
//! # let users: ShardedVec<u64, Users> = ShardedVec::new(8, r.sketch("u"), r.shard_heat("u", 8));
//! # let venues: ShardedVec<u64, Venues> = ShardedVec::new(8, r.sketch("v"), r.shard_heat("v", 8));
//! let mut unlocked = Unlocked::mint();
//! let (v, _) = venues.write_shard(&mut unlocked, 1);
//! let (u, _) = users.read_shard(&mut unlocked, 2);
//! drop((u, v));
//! ```
//!
//! Rule 1 after user shards were released: the venue guard still
//! borrows the user level, which borrows the only [`Unlocked`].
//!
//! ```compile_fail,E0499
//! # use lbsn_server::shard::*; let r = lbsn_obs::Registry::new();
//! # let users: ShardedVec<u64, Users> = ShardedVec::new(8, r.sketch("u"), r.shard_heat("u", 8));
//! # let venues: ShardedVec<u64, Venues> = ShardedVec::new(8, r.sketch("v"), r.shard_heat("v", 8));
//! let mut unlocked = Unlocked::mint();
//! let (set, mut user_level) = users.write_set(&mut unlocked, &mut vec![1]);
//! drop(set);
//! let (v, _) = venues.write_shard(&mut user_level, 0);
//! let (u, _) = users.read_shard(&mut unlocked, 0);
//! drop((u, v));
//! ```
//!
//! Rule 1 across functions: a helper
//! returns a venue guard and the caller locks a user shard through a
//! second helper. The guard's borrow crosses the call.
//!
//! ```compile_fail,E0499
//! # use lbsn_server::shard::*; use parking_lot::RwLockWriteGuard;
//! fn lock_target_venue<'a>(
//!     venues: &'a ShardedVec<u64, Venues>,
//!     unlocked: &'a mut Unlocked,
//! ) -> RwLockWriteGuard<'a, Vec<u64>> {
//!     venues.write_shard(unlocked, 1).0
//! }
//! fn audit_user(users: &ShardedVec<u64, Users>, unlocked: &mut Unlocked) {
//!     let _profile = users.read_shard(unlocked, 2);
//! }
//! fn cross_function_inversion(users: &ShardedVec<u64, Users>, venues: &ShardedVec<u64, Venues>) {
//!     let mut unlocked = Unlocked::mint();
//!     let vguard = lock_target_venue(venues, &mut unlocked);
//!     audit_user(users, &mut unlocked);
//!     drop(vguard);
//! }
//! ```
//!
//! Rule 3, a second venue shard:
//!
//! ```compile_fail,E0499
//! # use lbsn_server::shard::*; let r = lbsn_obs::Registry::new();
//! # let venues: ShardedVec<u64, Venues> = ShardedVec::new(8, r.sketch("v"), r.shard_heat("v", 8));
//! let mut unlocked = Unlocked::mint();
//! let (a, _) = venues.write_shard(&mut unlocked, 0);
//! let (b, _) = venues.write_shard(&mut unlocked, 1);
//! drop((b, a));
//! ```
//!
//! Rule 3 through the venue level: no acquisition accepts it.
//!
//! ```compile_fail,E0277
//! # use lbsn_server::shard::*; let r = lbsn_obs::Registry::new();
//! # let venues: ShardedVec<u64, Venues> = ShardedVec::new(8, r.sketch("v"), r.shard_heat("v", 8));
//! let mut unlocked = Unlocked::mint();
//! let (a, mut venue_level) = venues.write_shard(&mut unlocked, 0);
//! let (b, _) = venues.write_shard(&mut venue_level, 1);
//! drop((b, a));
//! ```
//!
//! Rule 4, a shard under a leaf:
//!
//! ```compile_fail,E0499
//! # use lbsn_server::shard::*; let r = lbsn_obs::Registry::new();
//! # let users: ShardedVec<u64, Users> = ShardedVec::new(8, r.sketch("u"), r.shard_heat("u", 8));
//! let sidemap = LeafLock::new(0u64);
//! let mut unlocked = Unlocked::mint();
//! let leaf = sidemap.write(&mut unlocked);
//! let (shard, _) = users.read_shard(&mut unlocked, 0);
//! drop((shard, leaf));
//! ```
//!
//! Rule 4 across a call: the username leaf
//! is held while a helper locks a user shard.
//!
//! ```compile_fail,E0499
//! # use lbsn_server::shard::*;
//! fn lock_user_shard(users: &ShardedVec<u64, Users>, unlocked: &mut Unlocked, u: usize) {
//!     let _slot = users.write_shard(unlocked, u);
//! }
//! fn resolve_then_lock(users: &ShardedVec<u64, Users>, usernames: &LeafLock<Vec<u64>>) {
//!     let mut unlocked = Unlocked::mint();
//!     let names = usernames.read(&mut unlocked);
//!     lock_user_shard(users, &mut unlocked, names.len());
//!     drop(names);
//! }
//! ```
//!
//! The arena under a venue shard, one call deep:
//!
//! ```compile_fail,E0499
//! # use lbsn_server::shard::*;
//! fn intern_name(arena: &RootLock<Vec<String>>, unlocked: &mut Unlocked, name: &str) -> u64 {
//!     let mut arena = arena.lock(unlocked);
//!     arena.push(name.to_string());
//!     arena.len() as u64
//! }
//! fn rename_venue(venues: &ShardedVec<u64, Venues>, arena: &RootLock<Vec<String>>, v: usize) {
//!     let mut unlocked = Unlocked::mint();
//!     let (mut shard, _) = venues.write_shard(&mut unlocked, v);
//!     shard[0] = intern_name(arena, &mut unlocked, "espresso");
//! }
//! ```
//!
//! Recursion under a held shard: the recursive helper's signature
//! states its lock effect.
//!
//! ```compile_fail,E0499
//! # use lbsn_server::shard::*;
//! fn spiral(users: &ShardedVec<u64, Users>, unlocked: &mut Unlocked, depth: usize) {
//!     if depth == 0 {
//!         return;
//!     }
//!     drop(users.read_shard(unlocked, depth));
//!     spiral(users, unlocked, depth - 1);
//! }
//! fn drive(users: &ShardedVec<u64, Users>, u: usize) {
//!     let mut unlocked = Unlocked::mint();
//!     let (uguard, _) = users.read_shard(&mut unlocked, u);
//!     spiral(users, &mut unlocked, 3);
//!     drop(uguard);
//! }
//! ```
//!
//! Dynamic dispatch under a held shard: a trait method that locks
//! must take the token too.
//!
//! ```compile_fail,E0499
//! # use lbsn_server::shard::*;
//! trait Probe {
//!     fn probe(&self, unlocked: &mut Unlocked);
//! }
//! fn drive(users: &ShardedVec<u64, Users>, probe: &dyn Probe, u: usize) {
//!     let mut unlocked = Unlocked::mint();
//!     let (uguard, _) = users.read_shard(&mut unlocked, u);
//!     probe.probe(&mut unlocked);
//!     drop(uguard);
//! }
//! ```

use std::marker::PhantomData;
use std::time::Instant;

use lbsn_obs::{QuantileSketch, ShardHeat};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::metrics::now;

/// The level of a thread that holds no lock of this module: what user
/// shards, write sets and arenas are acquired from.
///
/// Not `Send`: the debug mint check is per thread.
pub struct Unlocked(PhantomData<*const ()>);

/// The level below a held user shard or user write set: only a venue
/// shard or a leaf can still be acquired.
pub struct UserLevel<'a>(PhantomData<&'a mut Unlocked>);

/// The level below a held venue shard: only a leaf can still be
/// acquired.
pub struct VenueLevel<'a>(PhantomData<&'a mut Unlocked>);

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Unlocked {}
    impl Sealed for super::UserLevel<'_> {}
    impl Sealed for super::VenueLevel<'_> {}
}

/// Any level token; a [`LeafLock`] accepts each of them (rule 4).
pub trait Level: sealed::Sealed {}
impl Level for Unlocked {}
impl Level for UserLevel<'_> {}
impl Level for VenueLevel<'_> {}

/// A level a venue shard may be acquired from: nothing held, or user
/// shards only (rules 1 and 3).
pub trait BeforeVenues: Level {}
impl BeforeVenues for Unlocked {}
impl BeforeVenues for UserLevel<'_> {}

#[cfg(debug_assertions)]
thread_local! {
    /// Whether this thread holds a live [`Unlocked`].
    static MINTED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl Unlocked {
    /// Mints this thread's unlocked level for one locking section.
    ///
    /// # Panics
    ///
    /// In debug builds, when the thread already holds a live
    /// [`Unlocked`]: a server call re-entered the server (from a
    /// callback, say) while the outer call may hold locks.
    #[track_caller]
    pub fn mint() -> Self {
        #[cfg(debug_assertions)]
        assert!(
            !MINTED.with(|minted| minted.replace(true)),
            "lock order: a second Unlocked minted on this thread; \
             a server call re-entered the server while holding its locks"
        );
        Unlocked(PhantomData)
    }
}

#[cfg(debug_assertions)]
impl Drop for Unlocked {
    fn drop(&mut self) {
        MINTED.with(|minted| minted.set(false));
    }
}

/// The user lock family: acquired first.
pub enum Users {}

/// The venue lock family: acquired after user shards, one at a time.
pub enum Venues {}

/// Pads a shard's lock to its own cache line so lock words of adjacent
/// shards never false-share under cross-core traffic. Pure
/// `#[repr(align(64))]` layout — no unsafe code is involved anywhere in
/// the shard layer (the workspace denies `unsafe_code`).
#[repr(align(64))]
struct CacheAligned<T>(T);

/// A vector of entities split across independently locked shards, in
/// lock family `F` ([`Users`] or [`Venues`]).
///
/// IDs are dense and 1-based; id 0 (and any unregistered id) simply
/// misses every lookup. Shard count is a power of two fixed at
/// construction.
pub struct ShardedVec<T, F> {
    shards: Box<[CacheAligned<RwLock<Vec<T>>>]>,
    /// log2(shard count).
    bits: u32,
    /// shard count - 1.
    mask: u64,
    /// Acquisition-wait sketch shared by every shard of this map.
    lock_wait: QuantileSketch,
    /// Per-shard contention heatmap rows for this family.
    heat: ShardHeat,
    family: PhantomData<F>,
}

impl<T, F> ShardedVec<T, F> {
    /// Creates an empty map with `shard_count` shards (must be a power
    /// of two ≥ 1), reporting lock waits into `lock_wait` and per-shard
    /// contention into `heat`.
    pub fn new(shard_count: usize, lock_wait: QuantileSketch, heat: ShardHeat) -> Self {
        assert!(
            shard_count.is_power_of_two(),
            "shard count must be a power of two, got {shard_count}"
        );
        let shards: Box<[_]> = (0..shard_count)
            .map(|_| CacheAligned(RwLock::new(Vec::new())))
            .collect();
        ShardedVec {
            shards,
            bits: shard_count.trailing_zeros(),
            mask: (shard_count - 1) as u64,
            lock_wait,
            heat,
            family: PhantomData,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard an id hashes to. For id 0 the wrap-around yields an
    /// in-range shard whose [`Self::slot_of`] is astronomically out of
    /// bounds, so lookups miss without a special case.
    pub fn shard_of(&self, id: u64) -> usize {
        (id.wrapping_sub(1) & self.mask) as usize
    }

    /// The slot inside its shard an id maps to.
    pub fn slot_of(&self, id: u64) -> usize {
        (id.wrapping_sub(1) >> self.bits) as usize
    }

    /// Read-locks one shard only if immediately available (used for
    /// optimistic peeks that have a correct slow path anyway). Needs no
    /// level token and is not counted in the lock-wait sketch: a
    /// try-acquire never blocks, so it cannot take part in a deadlock,
    /// and every peek drops its guard before the first real
    /// acquisition.
    pub fn try_read_shard(&self, shard: usize) -> Option<RwLockReadGuard<'_, Vec<T>>> {
        self.shards[shard].0.try_read()
    }

    /// This family's heatmap handle (the memory sampler refreshes its
    /// occupancy rows while walking shards).
    pub fn heat(&self) -> &ShardHeat {
        &self.heat
    }

    /// Read-locks one shard, recording the acquisition wait.
    fn lock_read(&self, shard: usize) -> RwLockReadGuard<'_, Vec<T>> {
        let lock = &self.shards[shard].0;
        if let Some(guard) = lock.try_read() {
            self.lock_wait.record(0);
            self.heat.record_fast(shard);
            return guard;
        }
        let start = self.lock_wait.is_enabled().then(now);
        let guard = lock.read();
        self.record_wait(shard, start);
        guard
    }

    /// Write-locks one shard, recording the acquisition wait.
    fn lock_write(&self, shard: usize) -> RwLockWriteGuard<'_, Vec<T>> {
        let lock = &self.shards[shard].0;
        if let Some(guard) = lock.try_write() {
            self.lock_wait.record(0);
            self.heat.record_fast(shard);
            return guard;
        }
        let start = self.lock_wait.is_enabled().then(now);
        let guard = lock.write();
        self.record_wait(shard, start);
        guard
    }

    /// Records a contended acquisition's wait since `start`, which is
    /// `None` (no clock read on either side) while the registry is
    /// disabled.
    fn record_wait(&self, shard: usize, start: Option<Instant>) {
        let Some(start) = start else {
            return;
        };
        let nanos = now().duration_since(start).as_nanos().min(u64::MAX as u128) as u64;
        self.lock_wait.record(nanos);
        self.heat.record_wait(shard, nanos);
    }
}

impl<T> ShardedVec<T, Users> {
    /// Read-locks one user shard (rules 1 and 2: nothing held).
    pub fn read_shard<'a>(
        &'a self,
        _level: &'a mut Unlocked,
        shard: usize,
    ) -> (RwLockReadGuard<'a, Vec<T>>, UserLevel<'a>) {
        (self.lock_read(shard), UserLevel(PhantomData))
    }

    /// Write-locks one user shard (rules 1 and 2: nothing held).
    pub fn write_shard<'a>(
        &'a self,
        _level: &'a mut Unlocked,
        shard: usize,
    ) -> (RwLockWriteGuard<'a, Vec<T>>, UserLevel<'a>) {
        (self.lock_write(shard), UserLevel(PhantomData))
    }

    /// Write-locks a set of user shards in ascending index order (rule
    /// 2). `shard_ids` may contain duplicates and be unsorted; it is
    /// sorted and deduplicated in place (callers on the hot path reuse
    /// one scratch vector across retries instead of allocating per
    /// attempt).
    pub fn write_set<'a>(
        &'a self,
        _level: &'a mut Unlocked,
        shard_ids: &mut Vec<usize>,
    ) -> (WriteSet<'a, T>, UserLevel<'a>) {
        shard_ids.sort_unstable();
        shard_ids.dedup();
        let guards = shard_ids.iter().map(|&i| (i, self.lock_write(i))).collect();
        let set = WriteSet {
            guards,
            bits: self.bits,
            mask: self.mask,
        };
        (set, UserLevel(PhantomData))
    }

    /// Runs a closure against the user with `id` under its shard's read
    /// lock, without cloning. `None` for unregistered ids.
    pub fn with<R>(&self, level: &mut Unlocked, id: u64, f: impl FnOnce(&T) -> R) -> Option<R> {
        let (guard, _) = self.read_shard(level, self.shard_of(id));
        guard.get(self.slot_of(id)).map(f)
    }
}

impl<T> ShardedVec<T, Venues> {
    /// Read-locks one venue shard (rules 1 and 3: no venue shard held).
    pub fn read_shard<'a, L: BeforeVenues>(
        &'a self,
        _level: &'a mut L,
        shard: usize,
    ) -> (RwLockReadGuard<'a, Vec<T>>, VenueLevel<'a>) {
        (self.lock_read(shard), VenueLevel(PhantomData))
    }

    /// Write-locks one venue shard (rules 1 and 3: no venue shard held).
    pub fn write_shard<'a, L: BeforeVenues>(
        &'a self,
        _level: &'a mut L,
        shard: usize,
    ) -> (RwLockWriteGuard<'a, Vec<T>>, VenueLevel<'a>) {
        (self.lock_write(shard), VenueLevel(PhantomData))
    }

    /// Runs a closure against the venue with `id` under its shard's
    /// read lock, without cloning. `None` for unregistered ids.
    pub fn with<R>(
        &self,
        level: &mut impl BeforeVenues,
        id: u64,
        f: impl FnOnce(&T) -> R,
    ) -> Option<R> {
        let (guard, _) = self.read_shard(level, self.shard_of(id));
        guard.get(self.slot_of(id)).map(f)
    }
}

/// A set of simultaneously held user-shard write guards, acquired in
/// ascending shard order, addressable by entity id.
pub struct WriteSet<'a, T> {
    /// (shard index, guard), ascending by shard index.
    guards: Vec<(usize, RwLockWriteGuard<'a, Vec<T>>)>,
    bits: u32,
    mask: u64,
}

impl<'a, T> WriteSet<'a, T> {
    fn locate(&self, id: u64) -> (usize, usize) {
        (
            (id.wrapping_sub(1) & self.mask) as usize,
            (id.wrapping_sub(1) >> self.bits) as usize,
        )
    }

    /// Whether the entity's shard is part of this lock set.
    pub fn covers(&self, id: u64) -> bool {
        let (shard, _) = self.locate(id);
        self.guards.iter().any(|(i, _)| *i == shard)
    }

    /// The entity with `id`, if registered and covered.
    pub fn get(&self, id: u64) -> Option<&T> {
        let (shard, slot) = self.locate(id);
        self.guards
            .iter()
            .find(|(i, _)| *i == shard)
            .and_then(|(_, g)| g.get(slot))
    }

    /// Each held shard's index and slot vector, ascending by shard
    /// index — for batch writers that address entities by slot.
    pub fn shards_mut(&mut self) -> impl Iterator<Item = (usize, &mut Vec<T>)> + use<'_, 'a, T> {
        self.guards.iter_mut().map(|(i, guard)| (*i, &mut **guard))
    }

    /// Mutable access to the entity with `id` and, at the same time, to
    /// the entity with `other`. `None` when `id` is unregistered or
    /// uncovered. The second handle is `None` when `other` is `None`,
    /// equals `id`, or is unregistered or uncovered.
    pub fn get_with_mut(
        &mut self,
        id: u64,
        other: Option<u64>,
    ) -> Option<(&mut T, Option<&mut T>)> {
        let (shard, slot) = self.locate(id);
        let g = self.guards.iter().position(|(i, _)| *i == shard)?;
        let other = other.filter(|&o| o != id).and_then(|o| {
            let (oshard, oslot) = self.locate(o);
            let og = self
                .guards
                .iter()
                .position(|(i, guard)| *i == oshard && oslot < guard.len())?;
            Some((og, oslot))
        });
        match other {
            Some((og, oslot)) if og == g => {
                let (_, guard) = self.guards.get_mut(g)?;
                let [entity, other] = guard.get_disjoint_mut([slot, oslot]).ok()?;
                Some((entity, Some(other)))
            }
            Some((og, oslot)) => {
                let [(_, guard), (_, oguard)] = self.guards.get_disjoint_mut([g, og]).ok()?;
                Some((guard.get_mut(slot)?, oguard.get_mut(oslot)))
            }
            None => {
                let (_, guard) = self.guards.get_mut(g)?;
                Some((guard.get_mut(slot)?, None))
            }
        }
    }
}

/// A leaf lock (rule 4): the side maps — username map, venue grid,
/// category table — each live behind one of these. A leaf is acquired
/// at any level and borrows it, so nothing is acquired under it.
pub struct LeafLock<T>(RwLock<T>);

impl<T> LeafLock<T> {
    /// Creates a leaf lock around `value`.
    pub fn new(value: T) -> Self {
        LeafLock(RwLock::new(value))
    }

    /// Read-locks the leaf.
    pub fn read<'a, L: Level>(&'a self, _level: &'a mut L) -> RwLockReadGuard<'a, T> {
        self.0.read()
    }

    /// Write-locks the leaf.
    pub fn write<'a, L: Level>(&'a self, _level: &'a mut L) -> RwLockWriteGuard<'a, T> {
        self.0.write()
    }
}

/// A lock acquired only with nothing else held: the per-shard
/// venue-string arenas, which registration fills before it takes the
/// venue shard.
pub struct RootLock<T>(Mutex<T>);

impl<T> RootLock<T> {
    /// Creates a root lock around `value`.
    pub fn new(value: T) -> Self {
        RootLock(Mutex::new(value))
    }

    /// Locks it (nothing else may be held).
    pub fn lock<'a>(&'a self, _level: &'a mut Unlocked) -> MutexGuard<'a, T> {
        self.0.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsn_obs::Registry;

    fn map<F>(shards: usize) -> ShardedVec<u64, F> {
        let registry = Registry::new();
        ShardedVec::new(
            shards,
            registry.sketch("test.lock_wait"),
            registry.shard_heat("test.heat.users", shards),
        )
    }

    /// Appends `value` to `shard` of a user map.
    fn push(m: &ShardedVec<u64, Users>, shard: usize, value: u64) {
        m.write_shard(&mut Unlocked::mint(), shard).0.push(value);
    }

    #[test]
    fn id_to_shard_slot_round_trips_densely() {
        let m = map::<Users>(8);
        // Dense ids fill shards round-robin and slots densely per shard.
        for id in 1..=64u64 {
            let shard = m.shard_of(id);
            let slot = m.slot_of(id);
            assert_eq!(shard, ((id - 1) % 8) as usize);
            assert_eq!(slot, ((id - 1) / 8) as usize);
        }
    }

    #[test]
    fn id_zero_misses_without_panicking() {
        let m = map(4);
        push(&m, m.shard_of(1), 10);
        assert!(m.shard_of(0) < 4, "id 0 wraps to an in-range shard");
        let mut unlocked = Unlocked::mint();
        assert_eq!(m.with(&mut unlocked, 0, |v| *v), None);
        assert_eq!(m.with(&mut unlocked, 1, |v| *v), Some(10));
        assert_eq!(m.with(&mut unlocked, 2, |v| *v), None);
    }

    #[test]
    fn write_set_sorts_and_dedups() {
        let m = map(8);
        for id in 1..=16u64 {
            push(&m, m.shard_of(id), id * 100);
        }
        let mut unlocked = Unlocked::mint();
        let (set, _) = m.write_set(&mut unlocked, &mut vec![5, 1, 5, 3]);
        assert_eq!(
            set.guards.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![1, 3, 5]
        );
        // ids 2, 4, 6 live in shards 1, 3, 5.
        assert!(set.covers(2) && set.covers(4) && set.covers(6));
        assert!(!set.covers(1) && !set.covers(8));
        assert_eq!(set.get(4), Some(&400));
        assert_eq!(set.get(1), None, "uncovered shard");
        assert_eq!(set.get(99), None, "unregistered id");
    }

    /// Eight shards holding ids 1..=16 (id `n` stores `n * 100`), with
    /// shards 1 and 3 locked: ids 2, 10 (shard 1) and 4, 12 (shard 3)
    /// are covered, id 1 (shard 0) is not.
    fn paired_fixture<'a>(
        m: &'a ShardedVec<u64, Users>,
        unlocked: &'a mut Unlocked,
    ) -> WriteSet<'a, u64> {
        for id in 1..=16u64 {
            m.write_shard(unlocked, m.shard_of(id)).0.push(id * 100);
        }
        m.write_set(unlocked, &mut vec![1, 3]).0
    }

    #[test]
    fn get_with_mut_pairs_two_entities_in_one_shard() {
        let m = map(8);
        let mut unlocked = Unlocked::mint();
        let mut set = paired_fixture(&m, &mut unlocked);
        let (a, b) = set.get_with_mut(2, Some(10)).unwrap();
        assert_eq!((*a, b.as_deref().copied()), (200, Some(1000)));
        *a = 1;
        *b.unwrap() = 2;
        assert_eq!((set.get(2), set.get(10)), (Some(&1), Some(&2)));
    }

    #[test]
    fn get_with_mut_pairs_entities_across_shards() {
        let m = map(8);
        let mut unlocked = Unlocked::mint();
        let mut set = paired_fixture(&m, &mut unlocked);
        let (a, b) = set.get_with_mut(12, Some(2)).unwrap();
        assert_eq!((*a, b.as_deref().copied()), (1200, Some(200)));
        *a = 3;
        *b.unwrap() = 4;
        assert_eq!((set.get(12), set.get(2)), (Some(&3), Some(&4)));
    }

    #[test]
    fn get_with_mut_drops_the_second_handle_it_cannot_give() {
        let m = map(8);
        let mut unlocked = Unlocked::mint();
        let mut set = paired_fixture(&m, &mut unlocked);
        let alone =
            |pair: Option<(&mut u64, Option<&mut u64>)>| pair.map(|(a, b)| (*a, b.is_some()));
        assert_eq!(alone(set.get_with_mut(4, None)), Some((400, false)));
        assert_eq!(
            alone(set.get_with_mut(4, Some(4))),
            Some((400, false)),
            "other == id"
        );
        assert_eq!(
            alone(set.get_with_mut(4, Some(1))),
            Some((400, false)),
            "other uncovered"
        );
        assert_eq!(
            alone(set.get_with_mut(4, Some(98))),
            Some((400, false)),
            "other unregistered"
        );
    }

    #[test]
    fn get_with_mut_misses_an_unregistered_or_uncovered_id() {
        let m = map(8);
        let mut unlocked = Unlocked::mint();
        let mut set = paired_fixture(&m, &mut unlocked);
        assert!(set.get_with_mut(98, Some(2)).is_none(), "id unregistered");
        assert!(set.get_with_mut(1, Some(2)).is_none(), "id uncovered");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        map::<Users>(6);
    }

    /// A contended acquisition reads the clock twice (start and end of
    /// the wait) while the registry is enabled, and never while it is
    /// disabled; the uncontended fast path never does.
    #[test]
    fn contended_acquisition_reads_the_clock_only_when_enabled() {
        use crate::metrics::clock_reads;
        use std::time::Duration;

        for (enabled, write, want) in [
            (true, false, 2),
            (true, true, 2),
            (false, false, 0),
            (false, true, 0),
        ] {
            let registry = Registry::new();
            let m = ShardedVec::<u64, Users>::new(
                1,
                registry.sketch("test.lock_wait"),
                registry.shard_heat("test.heat.users", 1),
            );
            registry.set_enabled(enabled);
            clock_reads::take();
            drop(m.write_shard(&mut Unlocked::mint(), 0));
            drop(m.read_shard(&mut Unlocked::mint(), 0));
            assert_eq!(clock_reads::take(), 0, "fast path");
            // The contender starts acquiring once the lock is held (the
            // barrier). No API shows that it is parked on the lock, so
            // the holder keeps it a while and the count is taken only
            // from a try in which the contender demonstrably waited,
            // i.e. took the slow path.
            let reads = loop {
                let mut unlocked = Unlocked::mint();
                let held = m.write_shard(&mut unlocked, 0);
                let barrier = std::sync::Barrier::new(2);
                let (reads, waited) = std::thread::scope(|scope| {
                    let contender = scope.spawn(|| {
                        barrier.wait();
                        clock_reads::take();
                        let began = Instant::now();
                        let mut unlocked = Unlocked::mint();
                        if write {
                            drop(m.write_shard(&mut unlocked, 0));
                        } else {
                            drop(m.read_shard(&mut unlocked, 0));
                        }
                        (clock_reads::take(), began.elapsed())
                    });
                    barrier.wait();
                    std::thread::sleep(Duration::from_millis(30));
                    drop(held);
                    contender.join().expect("contender panicked")
                });
                if waited >= Duration::from_millis(15) {
                    break reads;
                }
            };
            assert_eq!(reads, want, "enabled {enabled}, write {write}");
        }
    }

    #[test]
    fn heatmap_rows_track_per_shard_ops() {
        let registry = Registry::new();
        let m = ShardedVec::<u64, Users>::new(
            4,
            registry.sketch("test.lock_wait"),
            registry.shard_heat("test.heat.users", 4),
        );
        push(&m, 1, 7);
        drop(m.read_shard(&mut Unlocked::mint(), 1));
        drop(m.read_shard(&mut Unlocked::mint(), 3));
        m.heat().set_occupancy(1, 1);
        let snap = registry.snapshot();
        assert_eq!(snap.shard_heat.len(), 1);
        let fam = &snap.shard_heat[0];
        assert_eq!(fam.shards[1].ops, 2);
        assert_eq!(fam.shards[3].ops, 1);
        assert_eq!(fam.shards[0].ops, 0);
        assert_eq!(fam.shards[1].occupancy, 1);
        // Uncontended single-threaded traffic never counts as contended.
        assert_eq!(fam.total_contended(), 0);
    }

    #[test]
    fn single_shard_degenerates_to_one_lock() {
        let m = map::<Users>(1);
        for id in 1..=10u64 {
            assert_eq!(m.shard_of(id), 0);
            assert_eq!(m.slot_of(id), (id - 1) as usize);
        }
    }

    #[test]
    fn leaf_after_shards_is_permitted() {
        let users = map::<Users>(4);
        let venues = map::<Venues>(4);
        let leaf = LeafLock::new(7u64);
        let mut unlocked = Unlocked::mint();
        let (_u, mut user_level) = users.write_shard(&mut unlocked, 1);
        let (_v, mut venue_level) = venues.write_shard(&mut user_level, 0);
        assert_eq!(*leaf.read(&mut venue_level), 7);
    }

    /// The mint check is per thread and clears when the token drops
    /// (a second live one panics: see the server's re-entry test).
    #[cfg(debug_assertions)]
    #[test]
    fn an_unlocked_can_be_minted_again_once_dropped() {
        drop(Unlocked::mint());
        let _again = Unlocked::mint();
        std::thread::spawn(|| drop(Unlocked::mint()))
            .join()
            .expect("each thread mints its own");
    }
}
