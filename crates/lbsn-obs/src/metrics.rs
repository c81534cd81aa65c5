//! Metric handle types: lock-free cells behind cheap cloneable handles.
//!
//! Handles are resolved once (through [`crate::Registry`]) and then
//! updated with relaxed atomics. Every update first checks the owning
//! registry's enabled flag, so a disabled registry costs one relaxed
//! load per call site. Durations go to a
//! [`QuantileSketch`](crate::QuantileSketch); the [`Histogram`] here
//! holds count-valued series only.
//!
//! The hot cells ([`Counter`], the sketch, the span and audit sampling
//! tickets) are striped: each thread writes the cache-padded stripe
//! [`stripe`] picks for it, and readers merge the stripes, so two
//! threads recording the same series do not bounce one cache line.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stripes per hot cell. Threads map onto stripes by their dense thread
/// number, so any `STRIPES` consecutively started threads write apart;
/// two threads that share a stripe still add up exactly, because every
/// stripe update is an atomic RMW.
pub(crate) const STRIPES: usize = 8;

/// A value on a cache line (pair) of its own: 128 bytes covers the
/// adjacent-line prefetcher as well as the 64-byte line.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct Padded<T>(pub(crate) T);

/// The calling thread's stripe, in `0..STRIPES`.
#[inline]
pub(crate) fn stripe() -> usize {
    (crate::span::thread_num() % STRIPES as u64) as usize
}

/// A `u64` sum split over one padded `AtomicU64` per stripe: each
/// thread adds to its own stripe, readers add the stripes up.
#[derive(Default)]
pub(crate) struct StripedU64([Padded<AtomicU64>; STRIPES]);

impl StripedU64 {
    /// Adds `n` to the calling thread's stripe and returns the stripe's
    /// previous value.
    #[inline]
    pub(crate) fn fetch_add(&self, n: u64) -> u64 {
        self.0[stripe()].0.fetch_add(n, Ordering::Relaxed)
    }

    /// The sum of every stripe. Successive calls never decrease while
    /// writers only add, because each stripe only grows.
    pub(crate) fn sum(&self) -> u64 {
        self.0
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0, u64::wrapping_add)
    }

    /// Zeroes every stripe.
    pub(crate) fn zero(&self) {
        for s in &self.0 {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A monotonically increasing named counter.
#[derive(Clone)]
pub struct Counter {
    pub(crate) enabled: Arc<std::sync::atomic::AtomicBool>,
    pub(crate) cell: Arc<StripedU64>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to the calling thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.fetch_add(n);
        }
    }

    /// Current value: the sum of the stripes. Successive reads never
    /// decrease while writers run.
    pub fn get(&self) -> u64 {
        self.cell.sum()
    }
}

pub(crate) struct GaugeCell {
    /// f64 bit pattern.
    pub(crate) bits: AtomicU64,
}

/// A named gauge holding the last-set `f64`.
#[derive(Clone)]
pub struct Gauge {
    pub(crate) enabled: Arc<std::sync::atomic::AtomicBool>,
    pub(crate) cell: Arc<GaugeCell>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.bits.load(Ordering::Relaxed))
    }
}

pub(crate) struct HistogramCell {
    /// Inclusive upper bounds, strictly increasing; an implicit
    /// overflow bucket follows the last bound.
    pub(crate) bounds: Vec<u64>,
    /// One slot per bound plus the overflow slot.
    pub(crate) buckets: Vec<AtomicU64>,
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    /// `u64::MAX` until the first record.
    pub(crate) min: AtomicU64,
    pub(crate) max: AtomicU64,
}

impl HistogramCell {
    pub(crate) fn new(bounds: Vec<u64>) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        HistogramCell {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket histogram of count-valued `u64` observations (batch
/// sizes, streak lengths).
#[derive(Clone)]
pub struct Histogram {
    pub(crate) enabled: Arc<std::sync::atomic::AtomicBool>,
    pub(crate) cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let cell = &*self.cell;
        let idx = cell.bounds.partition_point(|&b| b < value);
        cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(value, Ordering::Relaxed);
        cell.min.fetch_min(value, Ordering::Relaxed);
        cell.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.cell.sum.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn counters_and_gauges_update() {
        let registry = Registry::new();
        let c = registry.counter("t.c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Handles resolved twice share a cell.
        assert_eq!(registry.counter("t.c").get(), 5);

        let g = registry.gauge("t.g");
        g.set(2.5);
        assert_eq!(registry.gauge("t.g").get(), 2.5);
    }

    #[test]
    fn histogram_tracks_distribution() {
        let registry = Registry::new();
        let h = registry.histogram_with_buckets("t.h", &[10, 100, 1_000]);
        for v in [1, 5, 50, 500, 5_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5_556);
        let snap = registry.snapshot();
        let hs = &snap.histograms["t.h"];
        assert_eq!(hs.min, 1);
        assert_eq!(hs.max, 5_000);
        let counts: Vec<u64> = hs.buckets.iter().map(|b| b.count).collect();
        assert_eq!(counts, vec![2, 1, 1, 1]);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let registry = Registry::new();
        registry.set_enabled(false);
        let c = registry.counter("t.c");
        let h = registry.histogram_with_buckets("t.h", &[10]);
        c.inc();
        h.record(9);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);

        registry.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn overflow_saturates_with_visible_max() {
        let registry = Registry::new();
        let h = registry.histogram_with_buckets("t.h", &[10, 100]);
        h.record(1_000_000); // way past the last bound
        h.record(5);
        let snap = registry.snapshot();
        let hs = &snap.histograms["t.h"];
        // The overflow lands in the +Inf bucket, not silently in the
        // last bounded one, and min/max/sum still see the raw value.
        let last = hs.buckets.last().unwrap();
        assert_eq!((last.le, last.count), (u64::MAX, 1));
        assert_eq!(hs.max, 1_000_000);
        assert_eq!(hs.min, 5);
        assert_eq!(hs.sum, 1_000_005);
        assert_eq!(hs.mean(), 500_002.5);
    }
}
