//! Property test: sketch quantile estimates stay within the
//! configured relative-error bound of a sorted-vector oracle.
//!
//! The sketch is DDSketch-style with α = 0.01, so any estimated
//! quantile must land within ~1% of the true value; we allow 2% to
//! absorb the integer rounding of the bucket-midpoint estimator.
//!
//! A second property pins the record path's shape: a snapshot equals,
//! bit for bit, what a straightforward record that updates every field
//! on every observation (zero, count, sum, min, max and bucket) yields.

use lbsn_obs::{Registry, SketchBucket, SketchSnapshot, DEFAULT_SKETCH_ALPHA};
use proptest::prelude::*;

/// The reference record: every observation bumps its bucket (or the
/// zero cell), the count and the sum, and folds into min and max. The
/// bucket index is the sketch's own `ceil(ln v / ln gamma)`, clamped
/// into the bucket range, computed with the same floating-point steps.
struct ReferenceSketch {
    alpha: f64,
    gamma: f64,
    inv_ln_gamma: f64,
    zero: u64,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl ReferenceSketch {
    fn new(alpha: f64) -> Self {
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        let bucket_count = ((u64::MAX as f64).ln() / gamma.ln()).ceil() as usize + 1;
        ReferenceSketch {
            alpha,
            gamma,
            inv_ln_gamma: 1.0 / gamma.ln(),
            zero: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; bucket_count],
        }
    }

    fn record(&mut self, value: u64) {
        if value == 0 {
            self.zero += 1;
        } else {
            let idx = ((value as f64).ln() * self.inv_ln_gamma).ceil() as i64;
            let idx = idx.clamp(0, self.buckets.len() as i64 - 1) as usize;
            self.buckets[idx] += 1;
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn snapshot(&self) -> SketchSnapshot {
        SketchSnapshot {
            alpha: self.alpha,
            gamma: self.gamma,
            count: self.count,
            sum: self.sum,
            zero: self.zero,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .map(|(idx, &count)| SketchBucket {
                    idx: idx as u32,
                    count,
                })
                .collect(),
        }
    }
}

/// Observations drawn to hit every record branch: exact zeros, small
/// values, the full range and the saturating top.
fn observation() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..1_000, 1u64..u64::MAX, Just(u64::MAX),]
}

/// The true quantile: nearest-rank over the sorted samples, matching
/// the sketch's `ceil(q * count)` rank convention.
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sketch_quantiles_track_oracle_within_relative_error(
        samples in prop::collection::vec(1u64..10_000_000_000, 1..400),
        q in 0.01f64..1.0,
    ) {
        let registry = Registry::new();
        let sketch = registry.sketch("prop.lat");
        for &s in &samples {
            sketch.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();

        let estimated = sketch.quantile(q) as f64;
        let truth = oracle_quantile(&sorted, q) as f64;
        let rel = (estimated - truth).abs() / truth;
        prop_assert!(
            rel <= 0.02,
            "q={q:.3}: estimated {estimated} vs oracle {truth} (rel err {rel:.4}) over {} samples",
            samples.len()
        );
    }

    #[test]
    fn sketch_extremes_stay_in_observed_range(
        samples in prop::collection::vec(1u64..1_000_000_000, 1..200),
    ) {
        let registry = Registry::new();
        let sketch = registry.sketch("prop.extremes");
        for &s in &samples {
            sketch.record(s);
        }
        let min = *samples.iter().min().unwrap() as f64;
        let max = *samples.iter().max().unwrap() as f64;
        // Estimates clamp into the observed [min, max] envelope, and
        // the tails sit within the error bound of the true extremes.
        let p0 = sketch.quantile(0.0) as f64;
        let p100 = sketch.quantile(1.0) as f64;
        prop_assert!(p0 >= min && p0 <= max, "p0 {p0} outside [{min}, {max}]");
        prop_assert!(p100 >= min && p100 <= max, "p100 {p100} outside [{min}, {max}]");
        prop_assert!((p0 - min).abs() / min <= 0.02, "p0 {p0} vs min {min}");
        prop_assert!((p100 - max).abs() / max <= 0.02, "p100 {p100} vs max {max}");
    }

    #[test]
    fn sketch_snapshot_quantiles_match_live_reads(
        samples in prop::collection::vec(0u64..100_000_000, 1..200),
    ) {
        let registry = Registry::new();
        let sketch = registry.sketch("prop.snap");
        for &s in &samples {
            sketch.record(s);
        }
        let snap = registry.snapshot();
        let stored = snap.sketches.get("prop.snap").expect("sketch in snapshot");
        for q in [0.5, 0.95, 0.99] {
            prop_assert_eq!(stored.quantile(q), sketch.quantile(q));
        }
        prop_assert_eq!(stored.count, samples.len() as u64);
    }

    #[test]
    fn snapshot_matches_the_reference_record_bit_for_bit(
        samples in prop::collection::vec(observation(), 0..300),
        threads in 1usize..4,
    ) {
        let registry = Registry::new();
        let sketch = registry.sketch("prop.ref");
        // Split the stream over a few threads, so several stripes (or
        // one shared stripe) merge into the snapshot.
        let chunk = samples.len().div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            for part in samples.chunks(chunk) {
                let sketch = sketch.clone();
                scope.spawn(move || part.iter().for_each(|&v| sketch.record(v)));
            }
        });
        let mut reference = ReferenceSketch::new(DEFAULT_SKETCH_ALPHA);
        samples.iter().for_each(|&v| reference.record(v));
        let want = reference.snapshot();
        let got = &registry.snapshot().sketches["prop.ref"];
        prop_assert_eq!(got, &want);
        prop_assert_eq!(
            (got.alpha.to_bits(), got.gamma.to_bits()),
            (want.alpha.to_bits(), want.gamma.to_bits())
        );
        prop_assert_eq!(sketch.count(), want.count);
    }
}
