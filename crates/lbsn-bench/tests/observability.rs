//! End-to-end observability: a full test-bed stand-up (generate →
//! serve → crawl) plus a flagged cheating check-in must leave a
//! coherent trail in the bed's registry.

use std::sync::Arc;

use lbsn_bench::harness::TestBed;
use lbsn_geo::destination;
use lbsn_obs::{ObsConfig, Registry};
use lbsn_server::{CheatFlag, CheckinRequest, CheckinSource, UserSpec};
use lbsn_workload::PopulationSpec;

#[test]
fn testbed_run_populates_the_registry() {
    // Every span sampled, so every check-in is timed and the stage
    // sketches hold one sample per decision. The span ring is sized so
    // the crawl's spans (four per page) do not evict the check-ins'.
    let registry = Arc::new(Registry::with_config(ObsConfig {
        span_sample_all: true,
        span_capacity: 1 << 15,
        ..ObsConfig::default()
    }));
    let bed = TestBed::from_spec_with_registry(&PopulationSpec::tiny(600, 17), registry);

    // A blatant GPS-mismatch check-in on top of the generated traffic,
    // so at least one specific flag counter is guaranteed non-zero.
    let venue = lbsn_server::VenueId(1);
    let venue_loc = bed.server.venue(venue).unwrap().location;
    let cheater = bed.server.register_user(UserSpec::named("obs-cheater"));
    let outcome = bed
        .server
        .check_in(&CheckinRequest {
            user: cheater,
            venue,
            reported_location: destination(venue_loc, 45.0, 25_000.0),
            source: CheckinSource::MobileApp,
        })
        .unwrap();
    assert!(outcome.flags.contains(&CheatFlag::GpsMismatch));

    let snap = bed.metrics_snapshot();

    // Crawler counters: the stand-up crawl fetched every user and venue
    // page (plus end-of-space probes) and stored every row.
    assert!(snap.counter("crawler.fetch.pages") > 0);
    assert_eq!(
        snap.counter("crawler.store.users"),
        bed.db.user_count() as u64
    );
    assert_eq!(
        snap.counter("crawler.store.venues"),
        bed.db.venue_count() as u64
    );
    assert!(snap
        .gauges
        .contains_key("crawler.throughput.users_per_hour"));
    assert!(snap
        .gauges
        .contains_key("crawler.throughput.venues_per_hour"));

    // Per-CheatFlag counters: the explicit mismatch plus whatever the
    // generated cheaters tripped.
    assert!(snap.counter("server.checkin.flag.gps_mismatch") >= 1);
    let rejected = snap.counter("server.checkin.rejected");
    let accepted = snap.counter("server.checkin.accepted");
    assert!(rejected >= 1);
    assert!(
        accepted > 0,
        "generated population produced valid check-ins"
    );

    // Stage sketches: every check-in passed through the cheater-code
    // stage and the total timer; only accepted ones reached rewards.
    let total = &snap.sketches["server.checkin.total"];
    assert_eq!(total.count, accepted + rejected);
    assert_eq!(
        snap.sketches["server.checkin.stage.cheater_code"].count,
        total.count
    );
    assert_eq!(
        snap.sketches["server.checkin.stage.rewards"].count,
        accepted
    );
    assert!(total.sum > 0, "timers recorded real elapsed time");

    // Every duration is a sketch, with ordered quantiles.
    assert_eq!(snap.schema, lbsn_obs::SNAPSHOT_SCHEMA_VERSION);
    for name in ["server.checkin.total", "crawler.fetch"] {
        let sketch = snap
            .sketches
            .get(name)
            .unwrap_or_else(|| panic!("sketch {name} missing"));
        let p50 = sketch.quantile(0.50);
        let p95 = sketch.quantile(0.95);
        let p99 = sketch.quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{name}: {p50} {p95} {p99}");
    }
    let gps = lbsn_obs::names::server::detector_latency("gps-proximity");
    assert!(snap.sketches[&gps].count > 0, "detector sketch {gps} empty");
    assert_eq!(
        snap.quantile_ns("server.checkin.total", 0.99),
        Some(total.quantile(0.99))
    );

    // Head-sampled spans made it into the sink: check-in roots with
    // their per-stage children, and crawler page spans.
    assert!(snap.counter("trace.finished_spans") > 0);
    let names: std::collections::HashSet<&str> =
        snap.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains("server.checkin"), "{names:?}");
    assert!(names.contains("crawler.page"), "{names:?}");
    for span in &snap.spans {
        if span.parent != 0 {
            assert!(span.name.contains('.'), "child spans are namespaced");
        }
        assert!(span.end_ns >= span.start_ns);
    }

    // The merged span set exports as a loadable Chrome trace.
    let trace = lbsn_obs::chrome_trace_json(&snap.spans);
    let doc: serde::Value = serde_json::from_str(&trace).expect("trace.json parses");
    let events = doc
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(events.len() >= snap.spans.len());

    // The snapshot a bed hands to reports is self-consistent JSON.
    let back = lbsn_obs::Snapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(back, snap);
}
