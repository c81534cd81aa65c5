//! Log-bucket quantile sketch (DDSketch-style) with a guaranteed
//! relative-error bound — the workspace's one type for durations.
//!
//! The sketch answers "what is p99, within ±1%". Buckets grow
//! geometrically with ratio `gamma = (1 + alpha) / (1 - alpha)`, so any
//! observation in bucket `i` is within `alpha` relative error of the
//! bucket's midpoint estimate `2·gamma^i / (gamma + 1)` — the property
//! the vendored-proptest oracle test pins down. Recording is one `ln`
//! plus five relaxed atomic RMWs (bucket, count, sum, min, max); the
//! bucket array is dense in memory (~18 KB at the default accuracy) but
//! serialized sparsely. [`QuantileSketch::start_timer`] times a span of
//! work into the sketch with one clock read at each end.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::snapshot::{SketchBucket, SketchSnapshot};

/// Default relative-error target: 1%.
pub const DEFAULT_SKETCH_ALPHA: f64 = 0.01;

pub(crate) struct SketchCell {
    alpha: f64,
    gamma: f64,
    inv_ln_gamma: f64,
    /// Observations equal to zero (no logarithm).
    zero: AtomicU64,
    /// Bucket `i` holds values `v` with `ceil(log_gamma v) == i`,
    /// i.e. `gamma^(i-1) < v <= gamma^i`. Values past the last bucket
    /// saturate into it (and remain visible through `max`).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl SketchCell {
    pub(crate) fn new(alpha: f64) -> Self {
        assert!(
            (0.0001..0.5).contains(&alpha),
            "sketch alpha must be in (0.0001, 0.5)"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        // Enough buckets to cover the entire u64 range at this accuracy.
        let needed = ((u64::MAX as f64).ln() / gamma.ln()).ceil() as usize + 1;
        SketchCell {
            alpha,
            gamma,
            inv_ln_gamma: 1.0 / gamma.ln(),
            zero: AtomicU64::new(0),
            buckets: (0..needed).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn index_of(&self, value: u64) -> usize {
        debug_assert!(value > 0);
        let idx = ((value as f64).ln() * self.inv_ln_gamma).ceil() as i64;
        idx.clamp(0, self.buckets.len() as i64 - 1) as usize
    }

    pub(crate) fn record(&self, value: u64) {
        if value == 0 {
            self.zero.fetch_add(1, Ordering::Relaxed);
        } else {
            self.buckets[self.index_of(value)].fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.zero.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> SketchSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        SketchSnapshot {
            alpha: self.alpha,
            gamma: self.gamma,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            zero: self.zero.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(idx, b)| {
                    let count = b.load(Ordering::Relaxed);
                    (count > 0).then_some(SketchBucket {
                        idx: idx as u32,
                        count,
                    })
                })
                .collect(),
        }
    }
}

/// A named quantile sketch behind a cheap cloneable handle; resolved
/// through [`crate::Registry::sketch`]. Recording costs one `ln` and
/// five relaxed atomic RMWs behind the registry's enabled check.
#[derive(Clone)]
pub struct QuantileSketch {
    pub(crate) enabled: Arc<AtomicBool>,
    pub(crate) cell: Arc<SketchCell>,
}

impl QuantileSketch {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.record(value);
        }
    }

    /// Starts a timer that records elapsed nanoseconds into this sketch
    /// when stopped or dropped. When the registry is disabled the timer
    /// is inert and never reads the clock.
    #[inline]
    pub fn start_timer(&self) -> SketchTimer<'_> {
        SketchTimer {
            start: self.enabled.load(Ordering::Relaxed).then(Instant::now),
            sketch: self,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile from the live buckets.
    pub fn quantile(&self, q: f64) -> u64 {
        self.cell.snapshot().quantile(q)
    }
}

/// Drop-based timer tied to a [`QuantileSketch`]; created by
/// [`QuantileSketch::start_timer`].
pub struct SketchTimer<'a> {
    start: Option<Instant>,
    sketch: &'a QuantileSketch,
}

impl SketchTimer<'_> {
    /// Stops the timer now instead of at scope end, recording and
    /// returning the elapsed nanoseconds (0 when the timer is inert).
    pub fn stop(mut self) -> u64 {
        self.finish()
    }

    fn finish(&mut self) -> u64 {
        let Some(start) = self.start.take() else {
            return 0;
        };
        let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.sketch.cell.record(nanos);
        nanos
    }
}

impl Drop for SketchTimer<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch() -> SketchCell {
        SketchCell::new(DEFAULT_SKETCH_ALPHA)
    }

    #[test]
    fn empty_sketch_is_zero() {
        let s = sketch().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn single_value_round_trips_within_alpha() {
        for v in [1u64, 17, 1_000, 5_000_000, 4_400_000_000] {
            let cell = sketch();
            cell.record(v);
            let est = cell.snapshot().quantile(0.5);
            let err = (est as f64 - v as f64).abs() / v as f64;
            assert!(
                err <= DEFAULT_SKETCH_ALPHA + 1e-9,
                "v={v} est={est} err={err}"
            );
        }
        // A snapshot racing the first `record` (count bumped, min and
        // max not yet) or an outside document can carry min > max; the
        // estimate is still total and within alpha.
        let mut snap = sketch().snapshot();
        snap.count = 1;
        snap.min = u64::MAX;
        snap.max = 0;
        snap.buckets = vec![SketchBucket { idx: 231, count: 1 }];
        let est = snap.quantile(0.5);
        assert!((99..=101).contains(&est), "estimate {est}");
        assert_eq!(snap.quantile(1.0), est);
    }

    #[test]
    fn zeros_count_toward_low_quantiles() {
        let cell = sketch();
        for _ in 0..9 {
            cell.record(0);
        }
        cell.record(1_000);
        let snap = cell.snapshot();
        assert_eq!(snap.zero, 9);
        assert_eq!(snap.quantile(0.5), 0);
        let p99 = snap.quantile(0.99);
        assert!((990..=1010).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn timer_records_on_stop_and_drop_and_is_inert_when_disabled() {
        let registry = crate::Registry::new();
        let sketch = registry.sketch("t.timer");
        {
            let _t = sketch.start_timer();
        }
        assert_eq!(sketch.count(), 1);
        let nanos = sketch.start_timer().stop();
        assert_eq!(sketch.count(), 2);
        assert!(registry.snapshot().sketches["t.timer"].sum >= nanos);
        registry.set_enabled(false);
        assert_eq!(sketch.start_timer().stop(), 0);
        sketch.record(9);
        assert_eq!(sketch.count(), 2);
    }

    #[test]
    fn huge_values_saturate_but_keep_max() {
        let cell = sketch();
        cell.record(u64::MAX);
        let snap = cell.snapshot();
        assert_eq!(snap.max, u64::MAX);
        // The estimate clamps into the observed [min, max] envelope,
        // which is the single recorded value here.
        assert_eq!(snap.quantile(1.0), u64::MAX);
        assert_eq!(snap.quantile(0.5), u64::MAX);
    }

    #[test]
    fn quantiles_are_monotone() {
        let cell = sketch();
        for v in 1..=1_000u64 {
            cell.record(v * 37);
        }
        let snap = cell.snapshot();
        let mut last = 0;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let est = snap.quantile(q);
            assert!(est >= last, "quantile({q}) = {est} < {last}");
            last = est;
        }
        assert_eq!(snap.count, 1_000);
    }
}
