//! The benchmark and experiment harness.
//!
//! Entry points:
//!
//! * the **experiments binary** (`cargo run -p lbsn-bench --release
//!   --bin experiments`) regenerates every figure and quantitative claim
//!   of the paper's evaluation — one [`report::Experiment`] per figure,
//!   with paper-vs-measured rows (the source of EXPERIMENTS.md);
//! * the **benches** (`cargo bench`): criterion micro-benchmarks of
//!   each subsystem a figure depends on, the ablations listed in
//!   DESIGN.md §6, and the `scale_ladder` sweep that loads the full
//!   paper-scale world and writes `BENCH_scale.json`. End-to-end,
//!   layer-attributed check-in performance is measured by the separate
//!   `perf` package (`perf/README.md`), which does not use this crate;
//! * the **obs-report binary** (`cargo run -p lbsn-bench --release
//!   --bin obs-report -- baseline.json new.json`) diffs two metric
//!   snapshots and gates the new one on an SLO policy (see
//!   [`obsreport`]);
//! * the **obs-audit binary** (`cargo run -p lbsn-bench --release
//!   --bin obs-audit -- why <user-id> snapshot.json`) answers
//!   forensics queries — why an account was branded, the worst
//!   offenders, the reason histogram — against a metrics snapshot or a
//!   decision JSONL dump (see [`obsaudit`]).
//!
//! The experiments and the figure benches build on
//! [`harness::TestBed`]: a generated population replayed through the
//! real server and crawled back into a [`lbsn_crawler::CrawlDatabase`],
//! exactly the pipeline the paper ran against production Foursquare.

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod obsaudit;
pub mod obsreport;
pub mod report;
