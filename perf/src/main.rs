//! `perf`: the check-in engine's benchmark. Four workloads, each with an
//! output oracle; an untraced run prints the end-to-end metrics, a
//! traced run the per-layer ones, a layer table and a Chrome trace.
//!
//! ```text
//! perf --seed <n> [--workload <name>] [--seconds <s>] [--trace <0|1>] [--quick]
//! ```
//!
//! Without `--workload`, every workload runs in its own child process
//! (so each gets its own peak-memory reading) and the pass's wall time
//! is reported. The last line of a one-workload run is its JSON result.
//! See README.md for the workloads, the metrics and how to read them.

mod crawl;
mod frontend;
mod hot;
mod measure;
mod probe;
mod replay;
mod report;
mod trace;
mod world;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use crate::report::Report;
use crate::trace::Tracer;
use crate::world::Params;

/// The workloads, in the order a full pass runs them.
const WORKLOADS: &[&str] = &[
    "paper_rung_frontend",
    "hot_venues",
    "paper_replay",
    "crawl_under_checkins",
];

/// Parsed command line.
struct Args {
    params: Params,
    workload: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut seed = None;
    let mut workload = None;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut quick = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(name);
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        params: Params {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            traced,
            quick,
        },
        workload,
    })
}

/// Runs one workload in this process.
fn run_workload(name: &str, p: &Params, origin: Instant) -> (Report, Tracer) {
    match name {
        "paper_rung_frontend" => frontend::run(p, origin),
        "hot_venues" => hot::run(p, origin),
        "paper_replay" => replay::run(p, origin),
        "crawl_under_checkins" => crawl::run(p, origin),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Where traces go: the build's target directory, like other outputs.
fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target
        .join("perf-trace")
        .join(format!("{workload}-{seed}.json"))
}

fn one(name: &str, p: &Params) -> ExitCode {
    let origin = Instant::now();
    let (mut report, mut tracer) = run_workload(name, p, origin);
    let wall = origin.elapsed();
    println!(
        "== {name} seed {} ({}, {:.1} s measured, {} available cores) ==",
        p.seed,
        if p.traced { "traced" } else { "untraced" },
        p.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    if p.traced {
        print!("{}", tracer.table(wall));
        let (kept, dropped) = tracer.span_counts();
        let path = trace_path(name, p.seed);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()));
        match written {
            Ok(()) => println!(
                "trace: {kept} spans ({dropped} dropped) -> {}",
                path.display()
            ),
            Err(e) => report.check(false, || format!("writing {}: {e}", path.display())),
        }
    }
    let ok = report.finalize(p.traced);
    print!("{}", report.render(p.traced));
    println!("  wall {:.2} s", wall.as_secs_f64());
    println!("{}", report.json(p.traced));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process, one after another.
fn all(p: &Params) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let started = Instant::now();
    let mut failed = Vec::new();
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &p.seed.to_string()]);
        cmd.args(["--seconds", &p.seconds.to_string()]);
        cmd.args(["--trace", if p.traced { "1" } else { "0" }]);
        if p.quick {
            cmd.arg("--quick");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{name} ({status})")),
            Err(e) => failed.push(format!("{name} (spawn: {e})")),
        }
    }
    println!(
        "== pass of {} workloads: {:.1} s wall ==",
        WORKLOADS.len(),
        started.elapsed().as_secs_f64()
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        println!("failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}");
            eprintln!(
                "usage: perf --seed <n> [--workload <name>] [--seconds <s>] [--trace <0|1>] [--quick]"
            );
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => one(name, &args.params),
        None => all(&args.params),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn command_line_is_validated() {
        let a = args("--workload hot_venues --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("hot_venues"));
        assert_eq!(a.params.seed, 7);
        assert_eq!(a.params.seconds, 2.5);
        assert!(a.params.traced && !a.params.quick);
        assert!(args("--seed 1 --trace yes").is_err());
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--seconds 3").is_err(), "seed is required");
        assert!(args("--seed 1 --bogus").is_err());
    }

    /// `(name, unit, better)` of each metric in one section of
    /// `BENCHMARK.json`.
    fn declared(doc: &serde_json::Value, section: &str) -> Vec<(String, String, String)> {
        let field = |v: &serde_json::Value, k: &str| {
            v.as_object()
                .and_then(|o| o.get(k))
                .and_then(|x| x.as_str())
                .unwrap_or_else(|| panic!("{section} entry without {k}"))
                .to_string()
        };
        doc.as_object()
            .and_then(|o| o.get(section))
            .and_then(|s| s.as_array())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    /// Every workload, untraced and traced, on tiny worlds: the JSON
    /// line carries each declared metric with its unit, and every oracle
    /// passes.
    #[test]
    fn quick_smoke_of_every_workload() {
        for &name in WORKLOADS {
            for traced in [false, true] {
                let p = Params {
                    seed: 5,
                    seconds: 0.6,
                    traced,
                    quick: true,
                };
                let (mut report, _) = run_workload(name, &p, Instant::now());
                let ok = report.finalize(traced);
                assert!(ok, "{name} traced={traced}:\n{}", report.render(traced));
                let line: serde_json::Value =
                    serde_json::from_str(&report.json(traced)).expect("result line is JSON");
                let line = line.as_object().expect("an object");
                let metrics = line.get("metrics").and_then(|m| m.as_object()).unwrap();
                let catalogue = if traced { PER_LAYER } else { END_TO_END };
                assert_eq!(metrics.len(), catalogue.len(), "{name}");
                for (metric, unit, _) in catalogue {
                    let m = metrics
                        .get(metric)
                        .and_then(|m| m.as_object())
                        .unwrap_or_else(|| panic!("{name}: {metric} missing"));
                    assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(*unit));
                    assert!(m.get("value").and_then(|v| v.as_number()).is_some());
                }
            }
        }
    }

    /// The catalogue in the code and the one in `BENCHMARK.json` agree.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        for (section, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String, String)> = catalogue
                .iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect();
            assert_eq!(declared(&doc, section), ours, "{section}");
        }
        let workloads: Vec<String> = doc
            .as_object()
            .and_then(|o| o.get("workloads"))
            .and_then(|w| w.as_array())
            .expect("workloads")
            .iter()
            .filter_map(|w| w.as_object()?.get("name")?.as_str().map(String::from))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
