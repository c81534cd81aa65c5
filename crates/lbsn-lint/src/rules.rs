//! The rule set. Each rule has a stable id — the name `lint:allow(...)`
//! markers and CI output use — and a narrow, token-level trigger.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;

use crate::lexer::Scan;
use crate::{FileCtx, Violation};

/// A string literal shaped like an observability name does not resolve
/// against the `lbsn_obs::names` registry.
pub const UNREGISTERED_METRIC_NAME: &str = "unregistered-metric-name";
/// A string literal shaped like a terminal-outcome reason slug does not
/// resolve against the `lbsn_obs::names::reasons` registry.
pub const AUDIT_REASON_UNREGISTERED: &str = "audit-reason-unregistered";
/// `std::sync::Mutex` / `std::sync::RwLock` used outside `vendor/`.
pub const NO_STD_SYNC: &str = "no-std-sync";
/// `Instant::now` / `SystemTime::now` in a simulation-clocked crate.
pub const NO_WALL_CLOCK: &str = "no-wall-clock";
/// `unwrap()` / `expect()` in a check-in hot-path module.
pub const NO_UNWRAP_HOT_PATH: &str = "no-unwrap-hot-path";
/// A `lint:allow` marker whose line no longer triggers the waived
/// rule — waivers must not rot.
pub const STALE_WAIVER: &str = "stale-waiver";
/// A name registered in `lbsn_obs::names` is never recorded anywhere,
/// or recorded but cited in neither the docs nor the SLO baseline.
pub const DEAD_METRIC: &str = "dead-metric";
/// A `policies/*.json` file does not set every policy struct field.
pub const POLICY_FIELD_MISSING: &str = "policy-field-missing";
/// A hand-written `MemFootprint` impl never references one of its
/// struct's fields.
pub const MEM_FOOTPRINT_FIELD_MISSING: &str = "mem-footprint-field-missing";

/// Crates that must read time through `SimClock`, never the wall
/// clock: their whole value is deterministic replay.
const SIM_CLOCKED_CRATES: &[&str] = &[
    "crates/lbsn-sim/",
    "crates/lbsn-device/",
    "crates/lbsn-workload/",
    "crates/lbsn-attack/",
    "crates/lbsn-analysis/",
    "crates/lbsn-geo/",
];

/// The modules on the check-in hot path — the server's admission code
/// and the telemetry cells it records into — where a panic poisons
/// nothing (parking_lot) but still drops a request mid-pipeline.
const HOT_PATH_MODULES: &[&str] = &[
    "crates/lbsn-server/src/server.rs",
    "crates/lbsn-server/src/frontend.rs",
    "crates/lbsn-server/src/shard.rs",
    "crates/lbsn-server/src/pipeline.rs",
    "crates/lbsn-server/src/cheatercode.rs",
    "crates/lbsn-server/src/metrics.rs",
    "crates/lbsn-server/src/checkin.rs",
    "crates/lbsn-server/src/history.rs",
    "crates/lbsn-server/src/compact.rs",
    "crates/lbsn-server/src/rewards.rs",
    "crates/lbsn-server/src/user.rs",
    "crates/lbsn-server/src/venue.rs",
    "crates/lbsn-obs/src/metrics.rs",
    "crates/lbsn-obs/src/sketch.rs",
    "crates/lbsn-obs/src/heat.rs",
    "crates/lbsn-obs/src/span.rs",
    "crates/lbsn-obs/src/audit.rs",
];

/// The policy structs whose serde surface `policies/*.json` must cover,
/// with the file each is defined in.
const POLICY_STRUCTS: &[(&str, &str)] = &[
    ("crates/lbsn-server/src/policy.rs", "PolicyConfig"),
    ("crates/lbsn-server/src/policy.rs", "DetectorConfig"),
    ("crates/lbsn-server/src/policy.rs", "RewardConfig"),
    ("crates/lbsn-server/src/rewards.rs", "PointsPolicy"),
];

/// The crates whose code reports terminal admission outcomes to the
/// audit plane — the surfaces where a reason-shaped literal must
/// resolve against the reason registry.
const REASON_SLUG_CRATES: &[&str] = &["crates/lbsn-server/src/", "crates/lbsn-defense/src/"];

/// Runs every source-level rule over one scanned `.rs` file.
pub fn check_source(rel: &str, scan: &Scan, out: &mut Vec<Violation>) {
    let test_lines = test_region_lines(&scan.code);
    check_metric_literals(rel, scan, &test_lines, out);
    if REASON_SLUG_CRATES.iter().any(|c| rel.starts_with(c)) {
        check_reason_literals(rel, scan, &test_lines, out);
    }
    check_std_sync(rel, scan, &test_lines, out);
    if SIM_CLOCKED_CRATES.iter().any(|c| rel.starts_with(c)) {
        check_wall_clock(rel, scan, &test_lines, out);
    }
    if HOT_PATH_MODULES.contains(&rel) {
        check_unwrap(rel, scan, &test_lines, out);
    }
    check_mem_footprint(rel, scan, &test_lines, out);
}

/// Records `violation`, marking it waived when a `lint:allow` marker
/// covers it. Waived findings don't fail the build but stay visible to
/// the JSON report and the stale-waiver audit.
fn push(scan: &Scan, out: &mut Vec<Violation>, mut v: Violation) {
    v.waived = scan.allowed(v.rule, v.line);
    out.push(v);
}

// ---------------------------------------------------------------------
// Rule: unregistered-metric-name
// ---------------------------------------------------------------------

/// Whether a literal is *shaped* like an observability name: a known
/// subsystem prefix, then dot-separated segments of `[a-z0-9_]` or a
/// `{placeholder}`. Literals with `*` (doc wildcards) or format
/// specifiers (`{x:?}`) don't match and are ignored.
fn metric_shaped(value: &str) -> bool {
    let mut segments = value.split('.');
    let Some(first) = segments.next() else {
        return false;
    };
    if !matches!(first, "server" | "crawler" | "attack" | "bench") {
        return false;
    }
    let mut rest = 0;
    for seg in segments {
        rest += 1;
        let placeholder = seg.len() > 2
            && seg.starts_with('{')
            && seg.ends_with('}')
            && seg[1..seg.len() - 1]
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '_');
        let plain = !seg.is_empty()
            && seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        if !placeholder && !plain {
            return false;
        }
    }
    rest >= 1
}

fn check_metric_literals(
    rel: &str,
    scan: &Scan,
    test_lines: &BTreeSet<usize>,
    out: &mut Vec<Violation>,
) {
    for lit in &scan.strings {
        if test_lines.contains(&lit.line) || !metric_shaped(&lit.value) {
            continue;
        }
        if !lbsn_obs::names::is_registered(&lit.value) {
            push(
                scan,
                out,
                Violation {
                    waived: false,
                    file: rel.to_string(),
                    line: lit.line,
                    rule: UNREGISTERED_METRIC_NAME,
                    message: format!(
                        "\"{}\" is not a registered observability name — add it to \
                         lbsn_obs::names (and use the constant here)",
                        lit.value
                    ),
                },
            );
        }
    }
}

// ---------------------------------------------------------------------
// Rule: audit-reason-unregistered
// ---------------------------------------------------------------------

/// Whether a literal is *shaped* like a terminal-outcome reason slug:
/// the bare `accepted` tier, or a negative tier (`rejected` / `branded`
/// / `verifier`) followed by exactly one `[a-z0-9_]` detail segment.
/// The reason namespace is structurally disjoint from metric names —
/// metric first segments are subsystems, never outcome tiers.
fn reason_shaped(value: &str) -> bool {
    let mut segments = value.split('.');
    let Some(first) = segments.next() else {
        return false;
    };
    match first {
        "accepted" => segments.next().is_none(),
        "rejected" | "branded" | "verifier" => {
            let Some(detail) = segments.next() else {
                return false;
            };
            segments.next().is_none()
                && !detail.is_empty()
                && detail
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        }
        _ => false,
    }
}

fn check_reason_literals(
    rel: &str,
    scan: &Scan,
    test_lines: &BTreeSet<usize>,
    out: &mut Vec<Violation>,
) {
    for lit in &scan.strings {
        if test_lines.contains(&lit.line) || !reason_shaped(&lit.value) {
            continue;
        }
        if !lbsn_obs::names::is_registered_reason(&lit.value) {
            push(
                scan,
                out,
                Violation {
                    waived: false,
                    file: rel.to_string(),
                    line: lit.line,
                    rule: AUDIT_REASON_UNREGISTERED,
                    message: format!(
                        "\"{}\" is not a registered terminal-outcome reason — add it to \
                         lbsn_obs::names::reasons so forensics tooling can resolve it",
                        lit.value
                    ),
                },
            );
        }
    }
}

// ---------------------------------------------------------------------
// Rule: no-std-sync
// ---------------------------------------------------------------------

fn check_std_sync(rel: &str, scan: &Scan, test_lines: &BTreeSet<usize>, out: &mut Vec<Violation>) {
    for (idx, line) in scan.code.lines().enumerate() {
        let lineno = idx + 1;
        if test_lines.contains(&lineno) {
            continue;
        }
        let direct = line.contains("std::sync::Mutex") || line.contains("std::sync::RwLock");
        // Grouped import: `use std::sync::{…, Mutex, …}`. Single-line
        // only — rustfmt keeps these short in this tree.
        let grouped = line.contains("use std::sync::{")
            && (contains_word(line, "Mutex") || contains_word(line, "RwLock"));
        if direct || grouped {
            push(
                scan,
                out,
                Violation {
                    waived: false,
                    file: rel.to_string(),
                    line: lineno,
                    rule: NO_STD_SYNC,
                    message: "std::sync::Mutex/RwLock are forbidden outside vendor/ — \
                              use the vendored parking_lot (non-poisoning, const-init)"
                        .to_string(),
                },
            );
        }
    }
}

/// Whether `word` occurs in `line` delimited by non-identifier chars.
fn contains_word(line: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        let after = at + word.len();
        let after_ok = !line[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

// ---------------------------------------------------------------------
// Rule: no-wall-clock
// ---------------------------------------------------------------------

fn check_wall_clock(
    rel: &str,
    scan: &Scan,
    test_lines: &BTreeSet<usize>,
    out: &mut Vec<Violation>,
) {
    for (idx, line) in scan.code.lines().enumerate() {
        let lineno = idx + 1;
        if test_lines.contains(&lineno) {
            continue;
        }
        for api in ["Instant::now", "SystemTime::now"] {
            if line.contains(api) {
                push(
                    scan,
                    out,
                    Violation {
                        waived: false,
                        file: rel.to_string(),
                        line: lineno,
                        rule: NO_WALL_CLOCK,
                        message: format!(
                            "{api} in a simulation-clocked crate — read time through \
                             SimClock so runs stay deterministic"
                        ),
                    },
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: no-unwrap-hot-path
// ---------------------------------------------------------------------

fn check_unwrap(rel: &str, scan: &Scan, test_lines: &BTreeSet<usize>, out: &mut Vec<Violation>) {
    for (idx, line) in scan.code.lines().enumerate() {
        let lineno = idx + 1;
        if test_lines.contains(&lineno) {
            continue;
        }
        if line.contains(".unwrap()") || line.contains(".expect(") {
            push(
                scan,
                out,
                Violation {
                    waived: false,
                    file: rel.to_string(),
                    line: lineno,
                    rule: NO_UNWRAP_HOT_PATH,
                    message: "unwrap()/expect() in a check-in hot-path module — return \
                              an error, or waive with lint:allow naming the invariant"
                        .to_string(),
                },
            );
        }
    }
}

// ---------------------------------------------------------------------
// cfg(test) region detection
// ---------------------------------------------------------------------

/// Lines belonging to `#[cfg(test)] mod … { … }` regions of blanked
/// code. Attribute and `mod` keyword may be separated by more
/// attributes; a `#[cfg(test)]` on a non-module item exempts nothing.
pub(crate) fn test_region_lines(code: &str) -> BTreeSet<usize> {
    let mut lines = BTreeSet::new();
    let bytes = code.as_bytes();
    let mut search = 0;
    while let Some(pos) = code[search..].find("#[cfg(test)]") {
        let attr_at = search + pos;
        search = attr_at + "#[cfg(test)]".len();
        let mut i = search;
        // Skip whitespace and further attributes.
        loop {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'#' {
                while i < bytes.len() && bytes[i] != b']' {
                    i += 1;
                }
                i += 1;
            } else {
                break;
            }
        }
        let rest = &code[i..];
        let is_mod = rest.starts_with("mod ") || rest.starts_with("pub mod ");
        if !is_mod {
            continue;
        }
        let Some(open_rel) = rest.find('{') else {
            continue;
        };
        let open = i + open_rel;
        let mut depth = 0usize;
        let mut end = open;
        for (j, &b) in bytes[open..].iter().enumerate() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + j;
                        break;
                    }
                }
                _ => {}
            }
        }
        let start_line = line_of(code, attr_at);
        let end_line = line_of(code, end);
        lines.extend(start_line..=end_line);
        search = end;
    }
    lines
}

/// 1-based line of byte offset `at`.
fn line_of(code: &str, at: usize) -> usize {
    code.as_bytes()[..at]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

// ---------------------------------------------------------------------
// Rule: unregistered-metric-name (slo.json and docs surfaces)
// ---------------------------------------------------------------------

/// Checks every metric an SLO rule references in `baselines/slo.json`.
/// Skipped silently when the file is absent (fixture trees).
pub fn check_slo_baseline(root: &Path, out: &mut Vec<Violation>) -> io::Result<()> {
    let path = root.join("baselines/slo.json");
    let Ok(text) = fs::read_to_string(&path) else {
        return Ok(());
    };
    let parsed: serde_json::Value = serde_json::from_str(&text).map_err(io::Error::other)?;
    let mut names = Vec::new();
    collect_metric_refs(&parsed, &mut names);
    for name in names {
        if !lbsn_obs::names::is_registered(&name) {
            out.push(Violation {
                waived: false,
                file: "baselines/slo.json".to_string(),
                line: find_line(&text, &name),
                rule: UNREGISTERED_METRIC_NAME,
                message: format!(
                    "SLO rule references \"{name}\", which is not a registered \
                     observability name"
                ),
            });
        }
    }
    Ok(())
}

/// Gathers the string values of `metric` / `numerator` / `denominator`
/// keys anywhere in an SLO document.
fn collect_metric_refs(value: &serde_json::Value, out: &mut Vec<String>) {
    match value {
        serde_json::Value::Object(map) => {
            for (k, v) in map.iter() {
                if matches!(k.as_str(), "metric" | "numerator" | "denominator") {
                    if let Some(s) = v.as_str() {
                        out.push(s.to_string());
                    }
                }
                collect_metric_refs(v, out);
            }
        }
        serde_json::Value::Array(items) => {
            for v in items {
                collect_metric_refs(v, out);
            }
        }
        _ => {}
    }
}

/// Checks every backtick-quoted, metric-shaped name in README.md and
/// EXPERIMENTS.md. Wildcard citations (`server.checkin.flag.*`) don't
/// match the shape and are ignored.
pub fn check_docs(root: &Path, out: &mut Vec<Violation>) -> io::Result<()> {
    for doc in ["README.md", "EXPERIMENTS.md"] {
        let Ok(text) = fs::read_to_string(root.join(doc)) else {
            continue;
        };
        for (idx, line) in text.lines().enumerate() {
            for span in backtick_spans(line) {
                if metric_shaped(span) && !lbsn_obs::names::is_registered(span) {
                    out.push(Violation {
                        waived: false,
                        file: doc.to_string(),
                        line: idx + 1,
                        rule: UNREGISTERED_METRIC_NAME,
                        message: format!(
                            "documentation cites `{span}`, which is not a registered \
                             observability name"
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

/// The contents of every `` `…` `` span in a markdown line.
fn backtick_spans(line: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut parts = line.split('`');
    // Odd-indexed parts are inside backticks.
    parts.next();
    while let (Some(inside), rest) = (parts.next(), parts.next()) {
        spans.push(inside);
        if rest.is_none() {
            break;
        }
    }
    spans
}

/// First line on which `needle` occurs in `text` (1-based; line 1 if
/// absent — keeps the span stable even if the value is split oddly).
fn find_line(text: &str, needle: &str) -> usize {
    text.lines()
        .position(|l| l.contains(needle))
        .map_or(1, |p| p + 1)
}

// ---------------------------------------------------------------------
// Rule: policy-field-missing
// ---------------------------------------------------------------------

/// Every `pub` field of the policy structs must appear as a key in
/// every `policies/*.json`. Skipped silently when the struct sources or
/// the policies directory are absent under `root`.
pub fn check_policy_surface(root: &Path, out: &mut Vec<Violation>) -> io::Result<()> {
    let mut fields: Vec<(&'static str, String)> = Vec::new();
    for &(file, strukt) in POLICY_STRUCTS {
        let Ok(source) = fs::read_to_string(root.join(file)) else {
            continue;
        };
        let scan = crate::lexer::scan(&source);
        for field in struct_fields(&scan.code, strukt) {
            fields.push((strukt, field));
        }
    }
    if fields.is_empty() {
        return Ok(());
    }
    let policies = root.join("policies");
    let Ok(entries) = fs::read_dir(&policies) else {
        return Ok(());
    };
    let mut files: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    for path in files {
        let text = fs::read_to_string(&path)?;
        let parsed: serde_json::Value = serde_json::from_str(&text).map_err(io::Error::other)?;
        let mut keys = BTreeSet::new();
        collect_keys(&parsed, &mut keys);
        let rel = format!(
            "policies/{}",
            path.file_name().unwrap_or_default().to_string_lossy()
        );
        for (strukt, field) in &fields {
            if !keys.contains(field.as_str()) {
                out.push(Violation {
                    waived: false,
                    file: rel.clone(),
                    line: 1,
                    rule: POLICY_FIELD_MISSING,
                    message: format!(
                        "does not set `{field}` ({strukt}) — every policy file must \
                         pin the full policy surface, not inherit defaults"
                    ),
                });
            }
        }
    }
    Ok(())
}

/// The `pub` field names of `pub struct <name> { … }` in blanked code.
fn struct_fields(code: &str, name: &str) -> Vec<String> {
    let header = format!("pub struct {name} ");
    let alt = format!("pub struct {name}{{");
    let start = code.find(&header).or_else(|| code.find(&alt));
    let Some(start) = start else {
        return Vec::new();
    };
    let Some(open_rel) = code[start..].find('{') else {
        return Vec::new();
    };
    let open = start + open_rel;
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    let mut end = open;
    for (j, &b) in bytes[open..].iter().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    end = open + j;
                    break;
                }
            }
            _ => {}
        }
    }
    let body = &code[open + 1..end];
    let mut fields = Vec::new();
    for line in body.lines() {
        let line = line.trim_start();
        if let Some(rest) = line.strip_prefix("pub ") {
            if let Some(colon) = rest.find(':') {
                let ident = rest[..colon].trim();
                if !ident.is_empty() && ident.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                {
                    fields.push(ident.to_string());
                }
            }
        }
    }
    fields
}

// ---------------------------------------------------------------------
// Rule: mem-footprint-field-missing
// ---------------------------------------------------------------------

/// A hand-written `MemFootprint` impl must account for every field of
/// the struct it covers: a field the impl body never names is owned
/// heap the memory gauges silently undercount — forever, because
/// nothing else notices. Token-level contract: every field of a
/// same-file `pub struct <T>` must appear as a word somewhere inside
/// `impl MemFootprint for <T> { … }` (the exhaustive-destructure idiom
/// satisfies this for free, with `field: _` marking inline fields).
/// Impls for generic, foreign, or out-of-file types — including
/// everything `mem_footprint_inline!` generates — have no same-file
/// struct definition and are skipped by design.
fn check_mem_footprint(
    rel: &str,
    scan: &Scan,
    test_lines: &BTreeSet<usize>,
    out: &mut Vec<Violation>,
) {
    const NEEDLE: &str = "MemFootprint for ";
    let code = &scan.code;
    let bytes = code.as_bytes();
    let mut search = 0;
    while let Some(pos) = code[search..].find(NEEDLE) {
        let at = search + pos;
        search = at + NEEDLE.len();
        let rest = &code[search..];
        let ident_len = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .count();
        if ident_len == 0 {
            // Macro metavariable (`$ty`) or similar — not a concrete type.
            continue;
        }
        let ident = &rest[..ident_len];
        // Generic targets (`Vec<T>`) and types defined elsewhere yield
        // no same-file struct fields and drop out here.
        let fields = struct_fields(code, ident);
        if fields.is_empty() {
            continue;
        }
        let lineno = line_of(code, at);
        if test_lines.contains(&lineno) {
            continue;
        }
        let Some(open_rel) = rest[ident_len..].find('{') else {
            continue;
        };
        let open = search + ident_len + open_rel;
        let mut depth = 0usize;
        let mut end = open;
        for (j, &b) in bytes[open..].iter().enumerate() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + j;
                        break;
                    }
                }
                _ => {}
            }
        }
        let body = &code[open + 1..end];
        for field in fields {
            if body.lines().any(|line| contains_word(line, &field)) {
                continue;
            }
            push(
                scan,
                out,
                Violation {
                    waived: false,
                    file: rel.to_string(),
                    line: lineno,
                    rule: MEM_FOOTPRINT_FIELD_MISSING,
                    message: format!(
                        "`impl MemFootprint for {ident}` never references field \
                         `{field}` — destructure exhaustively so every field is \
                         accounted (or explicitly marked inline with `{field}: _`)"
                    ),
                },
            );
        }
    }
}

/// Every object key anywhere in a JSON document.
fn collect_keys(value: &serde_json::Value, out: &mut BTreeSet<String>) {
    match value {
        serde_json::Value::Object(map) => {
            for (k, v) in map.iter() {
                out.insert(k.clone());
                collect_keys(v, out);
            }
        }
        serde_json::Value::Array(items) => {
            for v in items {
                collect_keys(v, out);
            }
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------
// Rule: dead-metric
// ---------------------------------------------------------------------

/// Root-relative path of the observability name registry.
const NAMES_REGISTRY: &str = "crates/lbsn-obs/src/names.rs";

/// The documentation surfaces a registered name must be cited in (or
/// the SLO baseline) once it is recorded.
const CITATION_DOCS: &[&str] = &["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// Every name in `lbsn_obs::names::REGISTERED` must be *recorded*
/// somewhere in the workspace — referenced by its const ident, matched
/// by a concrete literal, or reached through one of the registry's own
/// builder functions — and, once recorded, *cited* in the docs or the
/// SLO baseline. A registry entry nothing records is dead weight; one
/// nothing documents is a dashboard nobody can find.
///
/// Skipped silently when the registry file is not part of the scanned
/// tree (fixture corpora).
pub fn check_dead_metrics(root: &Path, files: &[FileCtx], out: &mut Vec<Violation>) {
    let Some(registry) = files.iter().find(|f| f.rel == NAMES_REGISTRY) else {
        return;
    };
    // Const declarations of the registry: ident -> (value, line).
    let mut consts: Vec<(String, String, usize)> = Vec::new();
    for (idx, line) in registry.scan.code.lines().enumerate() {
        let lineno = idx + 1;
        let Some(pos) = line.find("const ") else {
            continue;
        };
        if !line.contains("&str") || line.contains("&[&str]") {
            continue;
        }
        let rest = &line[pos + "const ".len()..];
        let end = rest
            .bytes()
            .position(|b| !(b.is_ascii_alphanumeric() || b == b'_'))
            .unwrap_or(rest.len());
        let ident = &rest[..end];
        if ident.is_empty() {
            continue;
        }
        // The literal sits on the same line or wraps to the next.
        let Some(lit) = registry
            .scan
            .strings
            .iter()
            .find(|l| l.line >= lineno && l.line <= lineno + 1)
        else {
            continue;
        };
        consts.push((ident.to_string(), lit.value.clone(), lineno));
    }
    // Builder functions in the registry whose bodies reference a const:
    // a call to the builder anywhere counts as recording that const.
    let mut builders: Vec<(String, String)> = Vec::new(); // (builder, ident)
    if let Some(items) = &registry.parsed {
        for item in items {
            let Some((b0, b1)) = item.body else { continue };
            let body = &registry.scan.code[b0..b1];
            for (ident, _, _) in &consts {
                if body_references(body, ident) {
                    builders.push((item.name.clone(), ident.clone()));
                }
            }
        }
    }
    // Citation surfaces: docs text and SLO metric references.
    let mut docs_text = String::new();
    for doc in CITATION_DOCS {
        if let Ok(text) = fs::read_to_string(root.join(doc)) {
            docs_text.push_str(&text);
            docs_text.push('\n');
        }
    }
    let mut doc_wildcards: Vec<String> = Vec::new();
    for line in docs_text.lines() {
        for span in backtick_spans(line) {
            if let Some(prefix) = span.strip_suffix(".*") {
                doc_wildcards.push(format!("{prefix}."));
            }
        }
    }
    let mut slo_refs: Vec<String> = Vec::new();
    if let Ok(text) = fs::read_to_string(root.join("baselines/slo.json")) {
        if let Ok(parsed) = serde_json::from_str::<serde_json::Value>(&text) {
            collect_metric_refs(&parsed, &mut slo_refs);
        }
    }

    for name in lbsn_obs::names::REGISTERED {
        let Some((ident, _, lineno)) = consts.iter().find(|(_, v, _)| v == name) else {
            continue;
        };
        let my_builders: Vec<&str> = builders
            .iter()
            .filter(|(_, i)| i == ident)
            .map(|(b, _)| b.as_str())
            .collect();
        let recorded = files.iter().any(|f| {
            if f.rel == NAMES_REGISTRY {
                return false;
            }
            contains_word(&f.scan.code, ident)
                || f.scan
                    .strings
                    .iter()
                    .any(|l| lbsn_obs::names::segments_match(name, &l.value))
                || my_builders.iter().any(|b| contains_word(&f.scan.code, b))
        });
        let cited = docs_text.contains(name)
            || doc_wildcards.iter().any(|w| name.starts_with(w.as_str()))
            || slo_refs
                .iter()
                .any(|r| lbsn_obs::names::segments_match(name, r));
        let message = if !recorded {
            format!(
                "registered name \"{name}\" (`{ident}`) is never recorded anywhere \
                 in the workspace — drop it from the registry or record it"
            )
        } else if !cited {
            format!(
                "registered name \"{name}\" (`{ident}`) is recorded but cited in \
                 neither README/DESIGN/EXPERIMENTS nor baselines/slo.json — document \
                 the series or drop it"
            )
        } else {
            continue;
        };
        push(
            &registry.scan,
            out,
            Violation {
                waived: false,
                file: NAMES_REGISTRY.to_string(),
                line: *lineno,
                rule: DEAD_METRIC,
                message,
            },
        );
    }
}

/// Whether a blanked body references `ident` as a whole word.
fn body_references(body: &str, ident: &str) -> bool {
    body.lines().any(|l| contains_word(l, ident))
}

// ---------------------------------------------------------------------
// Rule: stale-waiver
// ---------------------------------------------------------------------

/// Audits every active `lint:allow` marker against the findings the
/// other passes produced (waived findings included): a marker whose
/// rule no longer fires on its line or the next is itself a violation,
/// so the waiver inventory cannot rot. Must run last. Markers inside
/// `#[cfg(test)]` regions are inert and not audited; a stale-waiver
/// finding cannot itself be waived.
pub fn check_stale_waivers(files: &[FileCtx], out: &mut Vec<Violation>) {
    let mut stale = Vec::new();
    for f in files {
        let test_lines = test_region_lines(&f.scan.code);
        for marker in &f.scan.markers {
            if test_lines.contains(&marker.line) {
                continue;
            }
            for rule in &marker.rules {
                let covered = out.iter().any(|v| {
                    v.file == f.rel
                        && v.rule == rule
                        && (v.line == marker.line || v.line == marker.line + 1)
                });
                if !covered {
                    stale.push(Violation {
                        waived: false,
                        file: f.rel.clone(),
                        line: marker.line,
                        rule: STALE_WAIVER,
                        message: format!(
                            "lint:allow({rule}) matches no finding on this line or the \
                             next — the waived code changed; remove the stale marker"
                        ),
                    });
                }
            }
        }
    }
    out.extend(stale);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn source_violations(rel: &str, src: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        check_source(rel, &scan(src), &mut out);
        out.retain(|v| !v.waived);
        out
    }

    #[test]
    fn metric_shape_matcher() {
        assert!(metric_shaped("server.checkin.total"));
        assert!(metric_shaped("crawler.thread.{thread}.pages"));
        assert!(metric_shaped("bench.histogram"));
        assert!(!metric_shaped("server.checkin.flag.*"), "doc wildcard");
        assert!(!metric_shaped("flag.{flag:?}"), "format specifier");
        assert!(!metric_shaped("server"), "prefix alone");
        assert!(!metric_shaped("server..total"), "empty segment");
        assert!(!metric_shaped("other.checkin"), "unknown subsystem");
        assert!(!metric_shaped("server.CheckIn"), "uppercase");
    }

    #[test]
    fn unregistered_literal_is_flagged_with_line() {
        let v = source_violations(
            "crates/x/src/lib.rs",
            "fn f(r: &Registry) {\n    r.counter(\"server.checkin.bogus\");\n}\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, UNREGISTERED_METRIC_NAME);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn registered_literal_passes() {
        let v = source_violations(
            "crates/x/src/lib.rs",
            "fn f(r: &Registry) { r.counter(\"server.checkin.total\"); }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(r: &Registry) {\n        \
                   r.counter(\"server.checkin.bogus\");\n    }\n}\n";
        assert!(source_violations("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_on_non_module_items_exempts_nothing() {
        let src = "#[cfg(test)]\nfn probe() {}\nfn f(r: &Registry) {\n    \
                   r.counter(\"server.checkin.bogus\");\n}\n";
        assert_eq!(source_violations("crates/x/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn lint_allow_suppresses_on_line_and_line_above() {
        let same = "fn f(r: &Registry) { r.counter(\"server.x.y\"); } \
                    // lint:allow(unregistered-metric-name)\n";
        assert!(source_violations("crates/x/src/lib.rs", same).is_empty());
        let above = "// lint:allow(unregistered-metric-name): migration pending\n\
                     fn f(r: &Registry) { r.counter(\"server.x.y\"); }\n";
        assert!(source_violations("crates/x/src/lib.rs", above).is_empty());
        let wrong_rule = "// lint:allow(no-std-sync)\n\
                          fn f(r: &Registry) { r.counter(\"server.x.y\"); }\n";
        assert_eq!(
            source_violations("crates/x/src/lib.rs", wrong_rule).len(),
            1
        );
    }

    #[test]
    fn reason_shape_matcher() {
        assert!(reason_shaped("accepted"));
        assert!(reason_shaped("rejected.gps_mismatch"));
        assert!(reason_shaped("branded.rapid_fire"));
        assert!(reason_shaped("verifier.verifier_stack"));
        assert!(!reason_shaped("accepted.extra"), "accepted has no detail");
        assert!(!reason_shaped("rejected"), "tier alone");
        assert!(!reason_shaped("rejected.a.b"), "too many segments");
        assert!(!reason_shaped("rejected.Gps"), "uppercase");
        assert!(!reason_shaped("server.checkin.total"), "metric namespace");
        assert!(!reason_shaped("gps_mismatch"), "bare flag slug");
    }

    #[test]
    fn unregistered_reason_is_flagged_in_gated_crates_only() {
        let src = "fn f() -> &'static str {\n    \"rejected.gps_mismtach\"\n}\n";
        let v = source_violations("crates/lbsn-server/src/pipeline.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, AUDIT_REASON_UNREGISTERED);
        assert_eq!(v[0].line, 2);
        assert_eq!(
            source_violations("crates/lbsn-defense/src/stage.rs", src).len(),
            1
        );
        // Outside the admission surfaces the shape is not policed.
        assert!(source_violations("crates/lbsn-bench/src/obsaudit.rs", src).is_empty());
    }

    #[test]
    fn registered_reasons_and_waivers_pass() {
        let ok = "fn f() -> &'static str { \"branded.rapid_fire\" }\n\
                  fn g() -> &'static str { \"verifier.any_stage_name\" }\n\
                  fn h() -> &'static str { \"accepted\" }\n";
        assert!(source_violations("crates/lbsn-server/src/server.rs", ok).is_empty());
        let waived = "// lint:allow(audit-reason-unregistered): migration pending\n\
                      fn f() -> &'static str { \"rejected.future_rule\" }\n";
        assert!(source_violations("crates/lbsn-server/src/server.rs", waived).is_empty());
        let tests_exempt = "#[cfg(test)]\nmod tests {\n    \
                            fn f() -> &'static str { \"rejected.future_rule\" }\n}\n";
        assert!(source_violations("crates/lbsn-server/src/server.rs", tests_exempt).is_empty());
    }

    #[test]
    fn std_sync_locks_are_flagged_everywhere() {
        let v = source_violations(
            "crates/x/src/lib.rs",
            "use std::sync::Mutex;\nuse std::sync::{Arc, RwLock};\nuse std::sync::Arc;\n",
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == NO_STD_SYNC));
        assert_eq!(v[0].line, 1);
        assert_eq!(v[1].line, 2);
    }

    #[test]
    fn std_sync_arc_and_atomics_pass() {
        let v = source_violations(
            "crates/x/src/lib.rs",
            "use std::sync::Arc;\nuse std::sync::{Arc, Barrier, OnceLock};\n\
             use std::sync::atomic::{AtomicU64, Ordering};\nuse std::sync::mpsc;\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn wall_clock_only_flagged_in_sim_clocked_crates() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(
            source_violations("crates/lbsn-sim/src/clock.rs", src).len(),
            1
        );
        assert!(
            source_violations("crates/lbsn-server/src/shard.rs", src).is_empty(),
            "the server's lock-wait timing is real wall time by design"
        );
    }

    #[test]
    fn unwrap_only_flagged_in_hot_path_modules() {
        let src = "fn f(x: Option<u32>) { x.unwrap(); }\n";
        for hot in [
            "crates/lbsn-server/src/server.rs",
            "crates/lbsn-server/src/cheatercode.rs",
            "crates/lbsn-server/src/metrics.rs",
        ] {
            assert_eq!(source_violations(hot, src).len(), 1, "{hot}");
        }
        assert!(source_violations("crates/lbsn-server/src/web.rs", src).is_empty());
        assert!(source_violations("crates/lbsn-crawler/src/crawler.rs", src).is_empty());
    }

    #[test]
    fn mem_footprint_missing_field_is_flagged() {
        let src = "pub struct Venue {\n    pub name: String,\n    pub tips: Vec<Tip>,\n}\n\
                   impl MemFootprint for Venue {\n    fn heap_bytes(&self) -> usize {\n        \
                   self.name.heap_bytes()\n    }\n}\n";
        let v = source_violations("crates/x/src/lib.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, MEM_FOOTPRINT_FIELD_MISSING);
        assert_eq!(v[0].line, 5);
        assert!(v[0].message.contains("`tips`"), "{}", v[0].message);
    }

    #[test]
    fn mem_footprint_exhaustive_destructure_passes() {
        let src = "pub struct Venue {\n    pub name: String,\n    pub tips: Vec<Tip>,\n}\n\
                   impl MemFootprint for Venue {\n    fn heap_bytes(&self) -> usize {\n        \
                   let Venue { name, tips: _ } = self;\n        name.heap_bytes()\n    }\n}\n";
        assert!(source_violations("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn mem_footprint_foreign_and_macro_targets_are_skipped() {
        // No same-file struct definition: container impls, other files.
        let foreign = "impl<T: MemFootprint> MemFootprint for Vec<T> {\n    \
                       fn heap_bytes(&self) -> usize { 0 }\n}\n";
        assert!(source_violations("crates/x/src/lib.rs", foreign).is_empty());
        // Macro metavariable target, as in mem_footprint_inline!'s body.
        let metavar = "macro_rules! m { ($ty:ty) => { impl MemFootprint for $ty {} } }\n";
        assert!(source_violations("crates/x/src/lib.rs", metavar).is_empty());
    }

    #[test]
    fn mem_footprint_waiver_suppresses() {
        let src = "pub struct Venue {\n    pub name: String,\n    pub tips: Vec<Tip>,\n}\n\
                   // lint:allow(mem-footprint-field-missing): tips counted via sampling\n\
                   impl MemFootprint for Venue {\n    fn heap_bytes(&self) -> usize {\n        \
                   self.name.heap_bytes()\n    }\n}\n";
        assert!(source_violations("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn struct_field_extraction() {
        let code = "pub struct PointsPolicy {\n    /// doc\n    pub per_checkin: u64,\n    \
                    pub first_visit_bonus: u64,\n    hidden: u64,\n}\n";
        assert_eq!(
            struct_fields(code, "PointsPolicy"),
            vec!["per_checkin", "first_visit_bonus"]
        );
        assert!(struct_fields(code, "Missing").is_empty());
    }

    #[test]
    fn backtick_span_extraction() {
        assert_eq!(
            backtick_spans("the `server.checkin.total` stat and `crawler.fetch`"),
            vec!["server.checkin.total", "crawler.fetch"]
        );
        assert!(backtick_spans("no spans here").is_empty());
    }
}
