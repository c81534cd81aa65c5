//! Measurement primitives: exact latency quantiles, the Poisson arrival
//! schedule of the open-loop generators, and process memory.

use std::time::{Duration, Instant};

use lbsn_sim::RngStream;

/// The `q`-quantile of an ascending slice by the nearest-rank rule:
/// the smallest sample with at least `q · n` samples at or below it.
///
/// # Panics
///
/// On an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The median of a set of (unsorted) measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nanosecond durations of one kind of call, kept whole so quantiles
/// are exact.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ns: Vec<u64>,
    sorted: bool,
}

impl Latencies {
    /// An empty set with room for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        Latencies {
            ns: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
        self.sorted = false;
    }

    /// Adds every sample of `other`.
    pub fn extend(&mut self, other: Latencies) {
        self.ns.extend(other.ns);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Sum of all samples, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Mean sample, nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.ns.is_empty() {
            0.0
        } else {
            self.total_ns() as f64 / self.ns.len() as f64
        }
    }

    /// The `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        quantile(&self.ns, q) as f64
    }
}

/// Exponential inter-arrival gaps at a fixed mean rate: the schedule of
/// an open-loop generator, as offsets in seconds from its start.
pub struct Poisson {
    rng: RngStream,
    rate_per_s: f64,
    next_s: f64,
}

impl Poisson {
    /// A schedule at `rate_per_s` arrivals per second drawn from `rng`.
    pub fn new(rng: RngStream, rate_per_s: f64) -> Self {
        assert!(rate_per_s > 0.0, "arrival rate must be positive");
        Poisson {
            rng,
            rate_per_s,
            next_s: 0.0,
        }
    }

    /// The next arrival's due offset, seconds since the schedule began.
    pub fn next_due(&mut self) -> f64 {
        // 1 - U keeps ln() finite.
        self.next_s += -(1.0 - self.rng.next_f64()).ln() / self.rate_per_s;
        self.next_s
    }
}

/// Spins until `start + due_s`, returning the instant it gave up the
/// wait: arrival gaps at these rates are far below sleep granularity.
pub fn spin_until(start: Instant, due_s: f64) -> Instant {
    let due = start + Duration::from_secs_f64(due_s);
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        std::hint::spin_loop();
    }
}

/// One `VmHWM`/`VmRSS`-style field of `/proc/self/status`, in MiB.
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far (`VmHWM`), MiB. Workloads
/// read it after their fixed, single-threaded work (the first build and
/// inputs; the crawl's warm-up writes; replay's first round): the
/// time-bounded part holds more state and samples the faster the
/// program is, and once a second thread allocates, the allocator's
/// per-thread arenas make the peak depend on how the threads
/// interleaved.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM")
}

/// Current resident set of this process (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition `quantile` implements, by brute force: the
    /// smallest sample value with at least `q · n` samples ≤ it.
    fn oracle(samples: &[u64], q: f64) -> u64 {
        let need = (q * samples.len() as f64).ceil().max(1.0) as usize;
        let mut candidates = samples.to_vec();
        candidates.sort_unstable();
        candidates.dedup();
        *candidates
            .iter()
            .find(|&&v| samples.iter().filter(|&&x| x <= v).count() >= need)
            .expect("the maximum always qualifies")
    }

    #[test]
    fn quantile_matches_sorted_oracle() {
        let mut rng = RngStream::from_seed(11);
        for n in [1usize, 2, 3, 10, 99, 1000] {
            let samples: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 50)).collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(quantile(&sorted, q), oracle(&samples, q), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn latencies_report_exact_quantiles() {
        let mut l = Latencies::with_capacity(100);
        for ns in (1..=100u64).rev() {
            l.record(Duration::from_nanos(ns));
        }
        assert_eq!(l.quantile_ns(0.5), 50.0);
        assert_eq!(l.quantile_ns(0.99), 99.0);
        assert_eq!(l.mean_ns(), 50.5);
    }

    #[test]
    fn poisson_schedule_has_exponential_gaps() {
        let rate = 40_000.0;
        let mut p = Poisson::new(RngStream::from_seed(3), rate);
        let mut prev = 0.0;
        let gaps: Vec<f64> = (0..200_000)
            .map(|_| {
                let due = p.next_due();
                let gap = due - prev;
                prev = due;
                gap
            })
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((mean * rate - 1.0).abs() < 0.01, "mean gap {mean}");
        assert!((cv - 1.0).abs() < 0.02, "coefficient of variation {cv}");
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
