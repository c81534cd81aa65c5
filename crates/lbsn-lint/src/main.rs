//! CLI driver:
//! `cargo run -p lbsn-lint -- --deny-all [--root <path>] [--format text|json] [--waivers]`.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage error. In text
//! mode, unwaived violations print one per line as
//! `rule-id: file:line: message`, sorted, so CI diffs are stable, and
//! failures end with a per-rule count summary on stderr. JSON mode
//! emits every finding — waived ones included — as
//! `{rule, file, line, message, waived}` records for the CI artifact.
//! `--waivers` prints the active waiver inventory instead (rule, site,
//! justification), the source of `baselines/waivers.txt`. A reader that
//! closes stdout early (`lbsn-lint --waivers | head -1`) only cuts the
//! output short: the exit code stays the one the run earned.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Writes report lines through a locked stdout. A closed pipe stops
/// the output and is not an error; any other write error is reported
/// and becomes exit 2.
fn write_stdout(
    write: impl FnOnce(&mut io::StdoutLock<'static>) -> io::Result<()>,
) -> Result<(), ExitCode> {
    let mut out = io::stdout().lock();
    match write(&mut out).and_then(|()| out.flush()) {
        Err(err) if err.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("lbsn-lint: error writing output: {err}");
            Err(ExitCode::from(2))
        }
        _ => Ok(()),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: lbsn-lint [--deny-all] [--root <path>] [--format text|json] [--waivers]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut waivers = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // Every rule is already deny-level; the flag pins the CI
            // contract so a future "warn" tier can't weaken the gate
            // silently.
            "--deny-all" => {}
            "--root" => match args.next() {
                Some(path) => root = PathBuf::from(path),
                None => return usage(),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => json = false,
                Some("json") => json = true,
                _ => return usage(),
            },
            "--waivers" => waivers = true,
            _ => return usage(),
        }
    }
    if waivers {
        return run_waivers(&root);
    }
    let violations = match lbsn_lint::run(&root) {
        Ok(v) => v,
        Err(err) => {
            eprintln!("lbsn-lint: error scanning {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    let failing: Vec<_> = violations.iter().filter(|v| !v.waived).collect();
    let report = if json {
        let records: Vec<serde_json::Value> = violations
            .iter()
            .map(|v| {
                let mut record = serde_json::Map::default();
                record.insert("rule".into(), serde_json::Value::String(v.rule.into()));
                record.insert("file".into(), serde_json::Value::String(v.file.clone()));
                record.insert(
                    "line".into(),
                    serde_json::Value::Number(serde_json::Number::PosInt(v.line as u64)),
                );
                record.insert(
                    "message".into(),
                    serde_json::Value::String(v.message.clone()),
                );
                record.insert("waived".into(), serde_json::Value::Bool(v.waived));
                serde_json::Value::Object(record)
            })
            .collect();
        match serde_json::to_string_pretty(&serde_json::Value::Array(records)) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("lbsn-lint: error serializing report: {err}");
                return ExitCode::from(2);
            }
        }
    } else if failing.is_empty() {
        let scanned = lbsn_lint::source_count(&root).unwrap_or(0);
        format!("lbsn-lint: clean ({scanned} source files scanned)")
    } else {
        failing
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    if let Err(code) = write_stdout(|out| writeln!(out, "{report}")) {
        return code;
    }
    if failing.is_empty() {
        return ExitCode::SUCCESS;
    }
    let mut per_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for v in &failing {
        *per_rule.entry(v.rule).or_default() += 1;
    }
    eprintln!("lbsn-lint: {} violation(s)", failing.len());
    for (rule, count) in per_rule {
        eprintln!("  {rule}: {count}");
    }
    ExitCode::from(1)
}

/// Prints the active waiver inventory, one line per waiver:
/// `file:line<TAB>rule<TAB>justification`.
fn run_waivers(root: &Path) -> ExitCode {
    let entries = match lbsn_lint::waivers(root) {
        Ok(entries) => entries,
        Err(err) => {
            eprintln!("lbsn-lint: error scanning {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    let written = write_stdout(|out| {
        writeln!(out, "# Active lint:allow waivers ({}).", entries.len())?;
        writeln!(
            out,
            "# Regenerate: cargo run -p lbsn-lint -- --waivers --root . > baselines/waivers.txt"
        )?;
        for e in &entries {
            let note = if e.note.is_empty() {
                "(no justification)"
            } else {
                e.note.as_str()
            };
            writeln!(out, "{}:{}\t{}\t{}", e.file, e.line, e.rule, note)?;
        }
        Ok(())
    });
    if let Err(code) = written {
        return code;
    }
    ExitCode::SUCCESS
}
