//! Concurrency exactness and serialization round-trip tests.

use std::sync::Arc;

use lbsn_obs::{Registry, Snapshot};

const THREADS: usize = 8;
const OPS: u64 = 100_000;

/// 8 threads × 100k increments each must land exactly — counters and
/// histograms are lock-free but must not lose updates.
#[test]
fn concurrent_counters_and_histograms_are_exact() {
    let registry = Arc::new(Registry::new());
    // Resolve before spawning so all threads share the same cells.
    let counter = registry.counter("stress.ops");
    let histogram = registry.histogram_with_buckets("stress.values", &[2, 5, 9]);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let counter = counter.clone();
            let histogram = histogram.clone();
            let registry = Arc::clone(&registry);
            scope.spawn(move || {
                // Half the threads resolve their own handles, proving
                // name-based resolution reaches the same cells.
                let (counter, histogram) = if t % 2 == 0 {
                    (counter, histogram)
                } else {
                    (
                        registry.counter("stress.ops"),
                        registry.histogram_with_buckets("stress.values", &[2, 5, 9]),
                    )
                };
                for i in 0..OPS {
                    counter.inc();
                    histogram.record(i % 10);
                }
            });
        }
    });

    let total = THREADS as u64 * OPS;
    let snap = registry.snapshot();
    assert_eq!(snap.counter("stress.ops"), total);
    let hist = &snap.histograms["stress.values"];
    assert_eq!(hist.count, total);
    // Values cycle 0..10: sum per cycle is 45, min 0, max 9.
    assert_eq!(hist.sum, total / 10 * 45);
    assert_eq!(hist.min, 0);
    assert_eq!(hist.max, 9);
    // Buckets: ≤2 gets {0,1,2}, ≤5 gets {3,4,5}, ≤9 gets {6,7,8,9}.
    let counts: Vec<u64> = hist.buckets.iter().map(|b| b.count).collect();
    assert_eq!(
        counts,
        vec![total / 10 * 3, total / 10 * 3, total / 10 * 4, 0]
    );
    let sum_of_buckets: u64 = counts.iter().sum();
    assert_eq!(sum_of_buckets, total);
}

/// A snapshot taken from a live registry survives JSON serialization
/// bit-for-bit, including events and sketch buckets.
#[test]
fn live_snapshot_round_trips_through_json() {
    let registry = Registry::new();
    registry.counter("server.checkin.accepted").add(41);
    registry
        .gauge("crawler.throughput.users_per_hour")
        .set(99_500.25);
    let sketch = registry.sketch("server.checkin.total");
    for v in [120, 900, 40_000, 2_000_000] {
        sketch.record(v);
    }
    registry.event(
        "server.account.branded",
        &[
            ("user", "7".to_string()),
            ("flagged_checkins", "10".to_string()),
        ],
    );

    let snap = registry.snapshot();
    let json = snap.to_json();
    let back = Snapshot::from_json(&json).expect("snapshot parses back");
    assert_eq!(back, snap);

    // Spot-check the decoded side so equality isn't vacuous.
    assert_eq!(back.counter("server.checkin.accepted"), 41);
    assert_eq!(back.gauge("crawler.throughput.users_per_hour"), 99_500.25);
    let total = &back.sketches["server.checkin.total"];
    assert_eq!(total.count, 4);
    assert_eq!(total.min, 120);
    assert_eq!(total.max, 2_000_000);
    assert_eq!(back.events.len(), 1);
    assert_eq!(back.events[0].name, "server.account.branded");
}
