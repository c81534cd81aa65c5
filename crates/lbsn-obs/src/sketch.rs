//! Log-bucket quantile sketch (DDSketch-style) with a guaranteed
//! relative-error bound — the workspace's one type for durations.
//!
//! The sketch answers "what is p99, within ±1%". Buckets grow
//! geometrically with ratio `gamma = (1 + alpha) / (1 - alpha)`, so any
//! observation in bucket `i` is within `alpha` relative error of the
//! bucket's midpoint estimate `2·gamma^i / (gamma + 1)` — the property
//! the vendored-proptest oracle test pins down. Recording is one `ln`
//! plus five relaxed atomic RMWs (bucket, count, sum, min, max) on the
//! calling thread's stripe: a cache-padded header plus a dense bucket
//! array (~18 KB at the default accuracy) allocated the first time that
//! stripe records. A snapshot merges the stripes and serializes the
//! buckets sparsely.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::metrics::{stripe, Padded, STRIPES};
use crate::snapshot::{SketchBucket, SketchSnapshot};

/// Default relative-error target: 1%.
pub const DEFAULT_SKETCH_ALPHA: f64 = 0.01;

/// One thread stripe of a sketch.
struct SketchStripe {
    /// Observations equal to zero (no logarithm).
    zero: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first record.
    min: AtomicU64,
    max: AtomicU64,
    /// Bucket `i` holds values `v` with `ceil(log_gamma v) == i`,
    /// i.e. `gamma^(i-1) < v <= gamma^i`. Values past the last bucket
    /// saturate into it (and remain visible through `max`). Allocated
    /// on the stripe's first non-zero record.
    buckets: OnceLock<Box<[AtomicU64]>>,
}

impl SketchStripe {
    fn new() -> Self {
        SketchStripe {
            zero: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: OnceLock::new(),
        }
    }

    fn reset(&self) {
        for b in self.buckets.get().into_iter().flatten() {
            b.store(0, Ordering::Relaxed);
        }
        self.zero.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

pub(crate) struct SketchCell {
    alpha: f64,
    gamma: f64,
    inv_ln_gamma: f64,
    /// Buckets per stripe: enough to cover the entire u64 range.
    bucket_count: usize,
    stripes: [Padded<SketchStripe>; STRIPES],
}

impl SketchCell {
    pub(crate) fn new(alpha: f64) -> Self {
        assert!(
            (0.0001..0.5).contains(&alpha),
            "sketch alpha must be in (0.0001, 0.5)"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        SketchCell {
            alpha,
            gamma,
            inv_ln_gamma: 1.0 / gamma.ln(),
            bucket_count: ((u64::MAX as f64).ln() / gamma.ln()).ceil() as usize + 1,
            stripes: std::array::from_fn(|_| Padded(SketchStripe::new())),
        }
    }

    #[inline]
    fn index_of(&self, value: u64) -> usize {
        debug_assert!(value > 0);
        let idx = ((value as f64).ln() * self.inv_ln_gamma).ceil() as i64;
        idx.clamp(0, self.bucket_count as i64 - 1) as usize
    }

    pub(crate) fn record(&self, value: u64) {
        let s = &self.stripes[stripe()].0;
        if value == 0 {
            s.zero.fetch_add(1, Ordering::Relaxed);
        } else {
            let buckets = s
                .buckets
                .get_or_init(|| (0..self.bucket_count).map(|_| AtomicU64::new(0)).collect());
            buckets[self.index_of(value)].fetch_add(1, Ordering::Relaxed);
        }
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(value, Ordering::Relaxed);
        s.min.fetch_min(value, Ordering::Relaxed);
        s.max.fetch_max(value, Ordering::Relaxed);
    }

    pub(crate) fn reset(&self) {
        for s in &self.stripes {
            s.0.reset();
        }
    }

    /// Observations across every stripe.
    pub(crate) fn count(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Merges the stripes: counts and buckets add, min is the least
    /// min and max the greatest max.
    pub(crate) fn snapshot(&self) -> SketchSnapshot {
        let mut merged = SketchSnapshot {
            alpha: self.alpha,
            gamma: self.gamma,
            count: 0,
            sum: 0,
            zero: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        };
        let mut buckets: Vec<u64> = Vec::new();
        for s in &self.stripes {
            let s = &s.0;
            merged.count += s.count.load(Ordering::Relaxed);
            merged.sum = merged.sum.wrapping_add(s.sum.load(Ordering::Relaxed));
            merged.zero += s.zero.load(Ordering::Relaxed);
            merged.min = merged.min.min(s.min.load(Ordering::Relaxed));
            merged.max = merged.max.max(s.max.load(Ordering::Relaxed));
            if let Some(stripe_buckets) = s.buckets.get() {
                buckets.resize(self.bucket_count, 0);
                for (total, b) in buckets.iter_mut().zip(stripe_buckets.iter()) {
                    *total += b.load(Ordering::Relaxed);
                }
            }
        }
        if merged.count == 0 {
            merged.min = 0;
        }
        merged.buckets = buckets
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .map(|(idx, &count)| SketchBucket {
                idx: idx as u32,
                count,
            })
            .collect();
        merged
    }
}

/// A named quantile sketch behind a cheap cloneable handle; resolved
/// through [`crate::Registry::sketch`]. Recording costs one `ln` and
/// five relaxed atomic RMWs on the calling thread's stripe, behind the
/// registry's enabled check.
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

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.cell.count()
    }

    /// Estimates the `q`-quantile from the live buckets.
    pub fn quantile(&self, q: f64) -> u64 {
        self.cell.snapshot().quantile(q)
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
