//! Per-shard contention heatmap cells.
//!
//! The sharded server funnels every shard's lock-wait into one latency
//! sketch (`server.shard.lock_wait`) — good for the aggregate tail,
//! blind to *which* stripe is hot. A [`ShardHeat`] keeps one row of
//! relaxed atomics per shard index: acquisitions, contended
//! acquisitions, total and max wait, and an occupancy gauge the memory
//! sampler refreshes. Rows serialize compactly into the snapshot's
//! `shard_heat` section and `obs-report` renders them as
//! a Markdown heatmap with a hottest/coldest skew ratio.
//!
//! The hot path cost is the registry's enabled check plus one or two
//! relaxed RMWs — no locks, no allocation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::snapshot::{ShardHeatRow, ShardHeatSnapshot};

/// One shard's atomics.
struct HeatSlot {
    ops: AtomicU64,
    contended: AtomicU64,
    wait_total_ns: AtomicU64,
    wait_max_ns: AtomicU64,
    occupancy: AtomicU64,
}

/// The registry-owned cell backing one heatmap family.
pub(crate) struct HeatCell {
    slots: Vec<HeatSlot>,
}

impl HeatCell {
    pub(crate) fn new(shards: usize) -> Self {
        assert!(shards > 0, "heatmap needs at least one shard");
        HeatCell {
            slots: (0..shards)
                .map(|_| HeatSlot {
                    ops: AtomicU64::new(0),
                    contended: AtomicU64::new(0),
                    wait_total_ns: AtomicU64::new(0),
                    wait_max_ns: AtomicU64::new(0),
                    occupancy: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    pub(crate) fn reset(&self) {
        for slot in &self.slots {
            slot.ops.store(0, Ordering::Relaxed);
            slot.contended.store(0, Ordering::Relaxed);
            slot.wait_total_ns.store(0, Ordering::Relaxed);
            slot.wait_max_ns.store(0, Ordering::Relaxed);
            slot.occupancy.store(0, Ordering::Relaxed);
        }
    }

    pub(crate) fn snapshot(&self, family: &str) -> ShardHeatSnapshot {
        ShardHeatSnapshot {
            family: family.to_string(),
            shards: self
                .slots
                .iter()
                .enumerate()
                .map(|(i, slot)| ShardHeatRow {
                    shard: i as u32,
                    ops: slot.ops.load(Ordering::Relaxed),
                    contended: slot.contended.load(Ordering::Relaxed),
                    wait_total_ns: slot.wait_total_ns.load(Ordering::Relaxed),
                    wait_max_ns: slot.wait_max_ns.load(Ordering::Relaxed),
                    occupancy: slot.occupancy.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// A cheap cloneable handle onto one heatmap family, resolved through
/// [`crate::Registry::shard_heat`]. Out-of-range shard indexes are
/// ignored (telemetry must never panic a request).
#[derive(Clone)]
pub struct ShardHeat {
    pub(crate) enabled: Arc<AtomicBool>,
    pub(crate) cell: Arc<HeatCell>,
}

impl ShardHeat {
    /// Number of shard rows this family was registered with.
    pub fn shard_count(&self) -> usize {
        self.cell.slots.len()
    }

    /// Records an uncontended acquisition of `shard` (the try-lock fast
    /// path): one op, zero wait.
    #[inline]
    pub fn record_fast(&self, shard: usize) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        if let Some(slot) = self.cell.slots.get(shard) {
            slot.ops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a contended acquisition of `shard` that waited
    /// `wait_ns` nanoseconds for the lock.
    #[inline]
    pub fn record_wait(&self, shard: usize, wait_ns: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        if let Some(slot) = self.cell.slots.get(shard) {
            slot.ops.fetch_add(1, Ordering::Relaxed);
            slot.contended.fetch_add(1, Ordering::Relaxed);
            slot.wait_total_ns.fetch_add(wait_ns, Ordering::Relaxed);
            slot.wait_max_ns.fetch_max(wait_ns, Ordering::Relaxed);
        }
    }

    /// Sets `shard`'s occupancy gauge (resident entities; refreshed by
    /// the server's memory sampler).
    pub fn set_occupancy(&self, shard: usize, entities: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        if let Some(slot) = self.cell.slots.get(shard) {
            slot.occupancy.store(entities, Ordering::Relaxed);
        }
    }

    /// Captures this family's rows as plain data.
    pub fn snapshot(&self, family: &str) -> ShardHeatSnapshot {
        self.cell.snapshot(family)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heat(shards: usize) -> ShardHeat {
        ShardHeat {
            enabled: Arc::new(AtomicBool::new(true)),
            cell: Arc::new(HeatCell::new(shards)),
        }
    }

    #[test]
    fn fast_and_contended_paths_accumulate_per_shard() {
        let h = heat(4);
        h.record_fast(0);
        h.record_fast(0);
        h.record_wait(0, 100);
        h.record_wait(3, 7);
        h.record_wait(3, 50);
        h.set_occupancy(3, 42);
        let snap = h.snapshot("users");
        assert_eq!(snap.family, "users");
        assert_eq!(snap.shards.len(), 4);
        assert_eq!(snap.shards[0].ops, 3);
        assert_eq!(snap.shards[0].contended, 1);
        assert_eq!(snap.shards[0].wait_total_ns, 100);
        assert_eq!(snap.shards[0].wait_max_ns, 100);
        assert_eq!(snap.shards[3].ops, 2);
        assert_eq!(snap.shards[3].wait_max_ns, 50);
        assert_eq!(snap.shards[3].occupancy, 42);
        assert_eq!(snap.shards[1].ops, 0);
    }

    #[test]
    fn disabled_handle_is_inert_and_out_of_range_is_ignored() {
        let h = heat(2);
        h.enabled.store(false, Ordering::Relaxed);
        h.record_fast(0);
        h.record_wait(1, 9);
        h.enabled.store(true, Ordering::Relaxed);
        h.record_fast(99); // silently ignored
        let snap = h.snapshot("venues");
        assert!(snap.shards.iter().all(|s| s.ops == 0));
    }

    #[test]
    fn reset_zeroes_rows() {
        let h = heat(2);
        h.record_wait(1, 5);
        h.set_occupancy(1, 10);
        h.cell.reset();
        let snap = h.snapshot("users");
        assert_eq!(snap.shards[1].ops, 0);
        assert_eq!(snap.shards[1].occupancy, 0);
    }
}
