//! lbsn-lint: the workspace invariant analyzer.
//!
//! A purpose-built static checker for this repository's
//! machine-checkable contracts (see DESIGN.md §"Static & dynamic
//! invariant checking"). The shard lock order is not among them: it
//! is stated in `lbsn-server`'s lock types and checked by the compiler
//! (DESIGN.md §7):
//!
//! 1. **Observability names are registered** — every string literal
//!    shaped like a metric/span/event name (`server.…`, `crawler.…`,
//!    `attack.…`, `bench.…`) must resolve against the
//!    `lbsn_obs::names` registry; so must every metric an SLO rule in
//!    `baselines/slo.json` references and every name cited in
//!    README.md / EXPERIMENTS.md. A typo'd name can no longer ship a
//!    dashboard that silently reads zeros.
//!    Rule id: [`rules::UNREGISTERED_METRIC_NAME`].
//! 2. **Forbidden APIs** — `std::sync::{Mutex, RwLock}` outside
//!    `vendor/` ([`rules::NO_STD_SYNC`]; the vendored `parking_lot` is
//!    the workspace's lock layer), wall-clock reads in
//!    simulation-clocked crates ([`rules::NO_WALL_CLOCK`]), and
//!    `unwrap()`/`expect()` in the server's check-in hot-path modules
//!    ([`rules::NO_UNWRAP_HOT_PATH`]).
//! 3. **Policy surface completeness** — every field of the policy
//!    structs must be set in every `policies/*.json`
//!    ([`rules::POLICY_FIELD_MISSING`]), so a committed scenario file
//!    can never silently pick up a changed default.
//! 4. **Memory accounting completeness** — every field of a struct with
//!    a same-file hand-written `MemFootprint` impl must be referenced
//!    in the impl body ([`rules::MEM_FOOTPRINT_FIELD_MISSING`]), so a
//!    field added later can't become heap the memory gauges silently
//!    undercount.
//! 5. **Waiver and registry hygiene** — a `lint:allow` marker whose
//!    line no longer triggers its rule is itself a violation
//!    ([`rules::STALE_WAIVER`]), and a name registered in
//!    `lbsn_obs::names` that is never recorded — or recorded but cited
//!    in neither the docs nor the SLO baseline — is dead weight
//!    ([`rules::DEAD_METRIC`]; an item-level [`parse`] finds the
//!    registry's builder functions).
//!
//! The scanner is token-level ([`lexer`]) — no `syn`, no network, no
//! build artifacts needed — and conservative by design: rules only
//! fire on patterns that are unambiguous at the token level, and any
//! true positive a human disagrees with can be waived in place with
//! `// lint:allow(<rule-id>): <why>` on the offending line or the
//! line above. Waived findings are still recorded (JSON output and the
//! stale-waiver audit see them); they just don't fail the build.
//!
//! `#[cfg(test)] mod` regions are exempt from the source rules: tests
//! legitimately probe unregistered names on purpose.

#![warn(missing_docs)]

pub mod lexer;
pub mod parse;
pub mod rules;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One finding: a rule id, a location, and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Root-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Stable rule id (what `lint:allow(...)` names).
    pub rule: &'static str,
    /// What went wrong and what to do instead.
    pub message: String,
    /// A `lint:allow` marker covers this finding: recorded for the
    /// JSON report and the stale-waiver audit, but not a failure.
    pub waived: bool,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{rule}: {file}:{line}: {msg}",
            rule = self.rule,
            file = self.file,
            line = self.line,
            msg = self.message
        )
    }
}

/// One scanned-and-parsed source file, shared by every pass.
#[derive(Debug)]
pub struct FileCtx {
    /// Root-relative path with `/` separators.
    pub rel: String,
    /// The lexer's views of the file.
    pub scan: lexer::Scan,
    /// Item-level parse, `None` when the file can't be modeled.
    pub parsed: Option<Vec<parse::FnItem>>,
}

/// One active waiver: where it is, what it suppresses, and why.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct WaiverEntry {
    /// Root-relative path of the file the marker is in.
    pub file: String,
    /// 1-based line of the marker.
    pub line: usize,
    /// The rule id it waives.
    pub rule: String,
    /// The justification text after the marker.
    pub note: String,
}

/// Directory names never descended into: vendored stand-ins (their
/// whole point is wrapping the forbidden APIs), build output, VCS
/// metadata, lint fixtures (violation corpora), and this crate itself
/// (its tests name violations as string literals).
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "fixtures", "lbsn-lint"];

/// Scans and parses every `.rs` file under `root`.
fn load_files(root: &Path) -> io::Result<Vec<FileCtx>> {
    let mut files = Vec::new();
    for path in rust_sources(root)? {
        let source = fs::read_to_string(&path)?;
        let rel = relative(root, &path);
        let scan = lexer::scan(&source);
        let parsed = parse::parse(&scan.code);
        files.push(FileCtx { rel, scan, parsed });
    }
    Ok(files)
}

/// Runs every rule over the tree rooted at `root`, returning findings
/// (including waived ones) sorted by file, line, rule.
///
/// # Errors
///
/// Only on I/O failures walking or reading the tree — an *absent*
/// optional input (no `baselines/slo.json`, no `policies/`) simply
/// skips the rules that need it.
pub fn run(root: &Path) -> io::Result<Vec<Violation>> {
    let files = load_files(root)?;
    let mut violations = Vec::new();
    for f in &files {
        rules::check_source(&f.rel, &f.scan, &mut violations);
    }
    rules::check_slo_baseline(root, &mut violations)?;
    rules::check_docs(root, &mut violations)?;
    rules::check_policy_surface(root, &mut violations)?;
    rules::check_dead_metrics(root, &files, &mut violations);
    // Last: stale-waiver audits the markers against every finding
    // above, *including* the waived ones.
    rules::check_stale_waivers(&files, &mut violations);
    violations.sort();
    Ok(violations)
}

/// Every active `lint:allow` waiver under `root` (markers inside
/// `#[cfg(test)]` regions are inert and excluded), sorted by file,
/// line, rule — the `--waivers` report and the committed
/// `baselines/waivers.txt`.
///
/// # Errors
///
/// Only on I/O failures walking or reading the tree.
pub fn waivers(root: &Path) -> io::Result<Vec<WaiverEntry>> {
    let files = load_files(root)?;
    let mut out = Vec::new();
    for f in &files {
        let test_lines = rules::test_region_lines(&f.scan.code);
        for marker in &f.scan.markers {
            if test_lines.contains(&marker.line) {
                continue;
            }
            for rule in &marker.rules {
                out.push(WaiverEntry {
                    file: f.rel.clone(),
                    line: marker.line,
                    rule: rule.clone(),
                    note: marker.note.clone(),
                });
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Number of `.rs` files [`run`] would scan under `root` — surfaced by
/// the CLI so "clean" output proves the walk saw the tree.
pub fn source_count(root: &Path) -> io::Result<usize> {
    Ok(rust_sources(root)?.len())
}

/// Every `.rs` file under `root`, skipping [`SKIP_DIRS`], sorted.
fn rust_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// `path` relative to `root`, with `/` separators.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
