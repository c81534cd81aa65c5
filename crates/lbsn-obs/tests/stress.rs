//! Concurrency exactness and serialization round-trip tests.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lbsn_obs::{Registry, ShardHeat, Snapshot};

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

/// Thread `t`'s `i`-th sketch value: spread over six decades, with an
/// exact zero every 1000th value so the zero count is exercised too.
fn value(t: u64, i: u64) -> u64 {
    if i.is_multiple_of(1000) {
        0
    } else {
        (i * 7_919 + t * 104_729) % 5_000_000
    }
}

const HEAT_SHARDS: usize = 4;

/// Thread `t`'s `i`-th shard-heat update: a fast acquisition, or every
/// third op a contended one that waited a known time.
fn heat_op(heat: &ShardHeat, t: u64, i: u64) {
    let shard = ((t + i) % HEAT_SHARDS as u64) as usize;
    if i.is_multiple_of(3) {
        heat.record_wait(shard, (i * 31 + t) % 10_000);
    } else {
        heat.record_fast(shard);
    }
}

/// 8 threads record 100k known values each into one sketch and one
/// shard heatmap while a reader polls a counter. The merged stripes
/// must equal a single-thread reference field by field, the counter
/// must never read lower than it did before, and a reset must zero
/// every stripe.
#[test]
fn striped_cells_merge_exactly() {
    let registry = Arc::new(Registry::new());
    let sketch = registry.sketch("stress.sketch");
    let heat = registry.shard_heat("stress.heat", HEAT_SHARDS);
    let counter = registry.counter("stress.ops");
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let (sketch, heat, counter) = (sketch.clone(), heat.clone(), counter.clone());
                scope.spawn(move || {
                    for i in 0..OPS {
                        sketch.record(value(t, i));
                        heat_op(&heat, t, i);
                        counter.inc();
                    }
                })
            })
            .collect();
        let reader = scope.spawn(|| {
            let mut last = 0;
            let mut reads = 0u64;
            while !done.load(Ordering::Relaxed) {
                let now = counter.get();
                assert!(now >= last, "counter went back from {last} to {now}");
                last = now;
                reads += 1;
            }
            reads
        });
        for w in writers {
            w.join().expect("writer panicked");
        }
        done.store(true, Ordering::Relaxed);
        assert!(reader.join().expect("reader panicked") > 0);
    });

    // The reference: the same values from one thread, in one stripe.
    let reference = Registry::new();
    let ref_sketch = reference.sketch("stress.sketch");
    let ref_heat = reference.shard_heat("stress.heat", HEAT_SHARDS);
    for t in 0..THREADS as u64 {
        for i in 0..OPS {
            ref_sketch.record(value(t, i));
            heat_op(&ref_heat, t, i);
        }
    }
    let (snap, want) = (registry.snapshot(), reference.snapshot());
    let (got_s, want_s) = (
        &snap.sketches["stress.sketch"],
        &want.sketches["stress.sketch"],
    );
    assert_eq!(got_s.count, THREADS as u64 * OPS);
    assert_eq!(got_s.count, want_s.count);
    assert_eq!(got_s.sum, want_s.sum);
    assert_eq!(got_s.zero, want_s.zero);
    assert_eq!(got_s.zero, THREADS as u64 * OPS / 1000);
    assert_eq!(got_s.min, want_s.min);
    assert_eq!(got_s.max, want_s.max);
    assert_eq!(got_s.buckets, want_s.buckets);
    assert_eq!(got_s, want_s);
    assert_eq!(sketch.count(), want_s.count);
    assert_eq!(snap.shard_heat, want.shard_heat);
    assert_eq!(counter.get(), THREADS as u64 * OPS);

    // A reset zeroes every stripe: nothing is left in the merge, and a
    // later record from a fresh thread stands alone in min and max.
    registry.reset();
    let snap = registry.snapshot();
    let s = &snap.sketches["stress.sketch"];
    assert_eq!((s.count, s.sum, s.zero, s.min, s.max), (0, 0, 0, 0, 0));
    assert!(s.buckets.is_empty());
    assert!(snap.shard_heat[0].shards.iter().all(|row| row.ops == 0
        && row.contended == 0
        && row.wait_total_ns == 0
        && row.wait_max_ns == 0));
    assert_eq!(counter.get(), 0);
    std::thread::scope(|scope| {
        scope.spawn(|| sketch.record(777));
    });
    let s = &registry.snapshot().sketches["stress.sketch"];
    assert_eq!((s.count, s.sum, s.min, s.max), (1, 777, 777, 777));
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
