//! Interprocedural lock-effect analysis: every function gets a
//! computed effect signature (which shard / side-map / arena locks it
//! may acquire), propagated through the call graph with a held-set
//! dataflow that verifies the DESIGN.md §7 discipline across function
//! boundaries — the gap a per-function token scan and the runtime
//! sentinel both leave open.
//!
//! The analysis is summary-based, lockdep style. Acquisitions are
//! recognized from *method names on known lock types* — `read_shard`,
//! `write_shard`, `write_set` (`ShardedVec`), `read`/`write` on the
//! named side-map leaves, `lock` on an arena mutex — never from
//! integer literals alone. Summaries are computed over the SCC
//! condensation of the call graph in reverse topological order; a
//! recursive component that acquires locks, or a call that resolves
//! only to bodiless trait declarations (dynamic dispatch), degrades to
//! a sound *unknown effect* warning instead of a false pass.
//!
//! Soundness limits (DESIGN.md §14 spells these out): the per-body
//! walk is linear and branch-insensitive, guard moves into callees are
//! not tracked, and closures called through variables are invisible.
//! The debug-only runtime sentinel in `lbsn-server/src/shard.rs`
//! remains the backstop for those shapes.

use std::collections::{BTreeSet, HashMap};

use crate::callgraph::{sccs, CallKind, CallRef, FnTable};
use crate::lexer::Scan;
use crate::parse::LineMap;
use crate::rules::{self, LOCK_DISCIPLINE, LOCK_EFFECT_UNKNOWN};
use crate::{FileCtx, Violation};

/// Which sharded structure a shard lock belongs to. Rules 1 and 3 only
/// apply to the server's `users`/`venues` pair; rule 2 (ascending
/// order) applies within any one family.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// The user table (`self.users`).
    Users,
    /// The venue table (`self.venues`).
    Venues,
    /// Any other `ShardedVec` receiver, keyed by its identifier.
    Other(String),
}

impl Family {
    fn of(receiver: Option<&str>) -> Family {
        match receiver {
            Some("users") => Family::Users,
            Some("venues") => Family::Venues,
            Some(other) => Family::Other(other.to_string()),
            None => Family::Other(String::new()),
        }
    }
}

/// One abstract lock acquisition — the element of an effect signature.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Acq {
    /// A shard lock of `family`; `index` is the shard number when the
    /// call site names it with an integer literal.
    Shard {
        /// Which sharded structure.
        family: Family,
        /// Write (exclusive) rather than read.
        write: bool,
        /// Literal shard index at the call site, when present.
        index: Option<u64>,
    },
    /// A leaf side-map lock (`usernames`, `venue_grid`,
    /// `venue_categories`).
    SideMap {
        /// The side map's field name.
        map: String,
    },
    /// A string-arena mutex.
    Arena,
}

impl Acq {
    fn describe(&self) -> String {
        match self {
            Acq::Shard {
                family: Family::Users,
                ..
            } => "user-shard acquisition".to_string(),
            Acq::Shard {
                family: Family::Venues,
                ..
            } => "venue-shard acquisition".to_string(),
            Acq::Shard { .. } => "shard acquisition".to_string(),
            Acq::SideMap { map } => format!("`{map}` side-map acquisition"),
            Acq::Arena => "arena mutex acquisition".to_string(),
        }
    }
}

/// The computed effect signature of one function.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    /// Every lock the function (or anything it may call) can acquire.
    pub acquires: BTreeSet<Acq>,
    /// The function's effects cannot be bounded: it is part of a
    /// lock-acquiring recursive cycle, or calls through dispatch with
    /// no workspace body.
    pub unknown: bool,
    /// The signature mentions a guard type, so acquisitions may
    /// outlive the call (returned guards / write sets).
    pub retains: bool,
}

/// How an acquisition's guard is bound at the call site.
#[derive(Debug, Clone)]
enum Binding {
    /// Bound to the named variables; `assigned` means it was written to
    /// an outer-scope variable (`x = …`) rather than `let`-introduced,
    /// so the guard survives the current block.
    Named(Vec<String>, bool),
    /// A temporary: dies at the end of the statement.
    Temp,
}

/// Body events in source order — the inputs to the held-set dataflow.
#[derive(Debug)]
enum Ev {
    /// `{`
    Open,
    /// `}`
    Close,
    /// `;` at statement level.
    StmtEnd,
    /// A recognized lock acquisition.
    Acq {
        acq: Acq,
        line: usize,
        binding: Binding,
    },
    /// `drop(name)` / `drop(name.take())`.
    Drop { name: String },
    /// A call expression that may resolve into the workspace.
    Call { call: CallRef, binding: Binding },
}

/// Side-map leaves by field name: `.read()` / `.write()` on anything
/// else (std locks, `parking_lot` primitives) is not a tracked lock.
const SIDE_MAPS: &[&str] = &["usernames", "venue_grid", "venue_categories"];

/// Method names that *are* the lock primitives. They never resolve
/// through the call graph: their effect is modeled directly.
const INTRINSIC_NAMES: &[&str] = &[
    "read_shard",
    "write_shard",
    "try_read_shard",
    "write_set",
    "with",
    "read",
    "write",
    "lock",
    "try_lock",
    "drop",
    "take",
];

/// Keywords that look like call syntax (`if (…)`, `while (…)` never
/// occur rustfmt'd, but `matches!`-free guards can parenthesize).
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "move", "unsafe", "let", "mut", "ref", "where", "impl", "dyn", "fn", "use", "pub", "struct",
    "enum", "const", "static", "type", "trait", "mod",
];

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Matching `)` for the `(` at `open`, if balanced.
fn match_paren(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// The dotted receiver chain ending just before `dot` (exclusive):
/// walks back over identifiers, `.`/`::`, and balanced `(…)`/`[…]`
/// groups, e.g. `self.venue_arenas[shard]` for
/// `self.venue_arenas[shard].lock()`.
fn receiver_chain(code: &str, dot: usize) -> &str {
    let bytes = code.as_bytes();
    let mut i = dot;
    while i > 0 {
        let b = bytes[i - 1];
        if b == b')' || b == b']' {
            let (open, close) = if b == b')' {
                (b'(', b')')
            } else {
                (b'[', b']')
            };
            let mut depth = 0usize;
            let mut j = i;
            let mut matched = false;
            while j > 0 {
                let c = bytes[j - 1];
                if c == close {
                    depth += 1;
                } else if c == open {
                    depth -= 1;
                    if depth == 0 {
                        matched = true;
                        j -= 1;
                        break;
                    }
                }
                j -= 1;
            }
            if !matched {
                break;
            }
            i = j;
            continue;
        }
        if is_ident_char(b) || b == b'.' || b == b':' {
            i -= 1;
            continue;
        }
        break;
    }
    &code[i..dot]
}

/// Decides how the value produced at `open_paren` is bound: a trailing
/// `.`/`?` after the closing paren means it is consumed inline (a
/// temporary); otherwise the statement's binding, if any, captures it.
fn binding_for(
    bytes: &[u8],
    open_paren: usize,
    stmt_binding: &Option<(Vec<String>, bool)>,
) -> Binding {
    let Some(close) = match_paren(bytes, open_paren) else {
        return Binding::Temp;
    };
    let mut k = close + 1;
    while k < bytes.len() {
        let b = bytes[k];
        if b.is_ascii_whitespace() || b == b')' || b == b']' {
            k += 1;
        } else {
            break;
        }
    }
    if matches!(bytes.get(k), Some(b'.') | Some(b'?')) {
        return Binding::Temp;
    }
    match stmt_binding {
        Some((names, assigned)) if !names.is_empty() => Binding::Named(names.clone(), *assigned),
        _ => Binding::Temp,
    }
}

/// Extracts the event stream of one function body (`span` is the
/// between-braces byte range of blanked code).
fn extract_events(code: &str, span: (usize, usize), lines: &LineMap) -> Vec<Ev> {
    let bytes = code.as_bytes();
    let mut events = Vec::new();
    // The binding introduced at the head of the current statement.
    let mut stmt_binding: Option<(Vec<String>, bool)> = None;
    let mut at_start = true;
    let mut i = span.0;
    while i < span.1 {
        let b = bytes[i];
        match b {
            b'{' => {
                events.push(Ev::Open);
                stmt_binding = None;
                at_start = true;
                i += 1;
                continue;
            }
            b'}' => {
                events.push(Ev::Close);
                stmt_binding = None;
                at_start = true;
                i += 1;
                continue;
            }
            b';' => {
                events.push(Ev::StmtEnd);
                stmt_binding = None;
                at_start = true;
                i += 1;
                continue;
            }
            _ if b.is_ascii_whitespace() => {
                i += 1;
                continue;
            }
            _ if !is_ident_char(b) => {
                // Expression punctuation: the statement head has passed.
                if b != b'#' {
                    at_start = false;
                }
                i += 1;
                continue;
            }
            _ => {}
        }
        let start = i;
        while i < span.1 && is_ident_char(bytes[i]) {
            i += 1;
        }
        let word = &code[start..i];
        if at_start {
            match word {
                "let" => {
                    // Collect pattern binding names: identifiers up to
                    // the `:` or `=` at nesting level 0, skipping
                    // keywords and uppercase constructors.
                    let mut names = Vec::new();
                    let mut k = i;
                    let mut nest = 0i32;
                    while k < span.1 {
                        let c = bytes[k];
                        match c {
                            b'(' | b'[' => nest += 1,
                            b')' | b']' => nest -= 1,
                            b':' | b'=' | b';' | b'{' if nest <= 0 => break,
                            _ if is_ident_char(c) && !c.is_ascii_digit() => {
                                let s = k;
                                while k < span.1 && is_ident_char(bytes[k]) {
                                    k += 1;
                                }
                                let id = &code[s..k];
                                if id != "mut"
                                    && id != "ref"
                                    && id != "_"
                                    && !id.starts_with(|c: char| c.is_ascii_uppercase())
                                {
                                    names.push(id.to_string());
                                }
                                continue;
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    stmt_binding = Some((names, false));
                    at_start = false;
                    i = k;
                    continue;
                }
                _ if KEYWORDS.contains(&word) => {
                    at_start = false;
                    continue;
                }
                _ => {
                    // `name = …` (not `==`, not compound assignment):
                    // an outer-scope rebinding.
                    let mut k = i;
                    while k < span.1 && bytes[k].is_ascii_whitespace() {
                        k += 1;
                    }
                    if bytes.get(k) == Some(&b'=') && bytes.get(k + 1) != Some(&b'=') {
                        stmt_binding = Some((vec![word.to_string()], true));
                        at_start = false;
                        // Fall through: `word` itself is not a call.
                        continue;
                    }
                    at_start = false;
                    // Not an assignment head; process as a normal word.
                }
            }
        }
        // Qualifier shape.
        let is_method = start > span.0 && bytes[start - 1] == b'.';
        let follows_paren = bytes.get(i) == Some(&b'(');
        let follows_bang = bytes.get(i) == Some(&b'!');
        if is_method && follows_paren && INTRINSIC_NAMES.contains(&word) {
            let recv_prefix = &code[..start - 1];
            let receiver = rules::receiver_ident(recv_prefix);
            let line = lines.line_of(start);
            let acq = match word {
                "read_shard" | "write_shard" => Some(Acq::Shard {
                    family: Family::of(receiver),
                    write: word == "write_shard",
                    index: rules::leading_int(&code[i + 1..]),
                }),
                "write_set" => Some(Acq::Shard {
                    family: Family::of(receiver),
                    write: true,
                    index: None,
                }),
                // Non-blocking peek: cannot deadlock, not tracked.
                "try_read_shard" | "try_lock" => None,
                // Scoped helper: holds a read shard for the closure.
                "with" if matches!(receiver, Some("users") | Some("venues")) => Some(Acq::Shard {
                    family: Family::of(receiver),
                    write: false,
                    index: None,
                }),
                "read" | "write" if receiver.is_some_and(|r| SIDE_MAPS.contains(&r)) => {
                    Some(Acq::SideMap {
                        map: receiver.unwrap_or_default().to_string(),
                    })
                }
                "lock" if receiver_chain(code, start - 1).contains("arena") => Some(Acq::Arena),
                _ => None,
            };
            if let Some(acq) = acq {
                let binding = if word == "with" {
                    Binding::Temp
                } else {
                    binding_for(bytes, i, &stmt_binding)
                };
                events.push(Ev::Acq { acq, line, binding });
            }
            continue;
        }
        if word == "drop" && !is_method && follows_paren {
            // The dropped guard is the first identifier inside.
            let mut k = i + 1;
            while k < span.1 && !is_ident_char(bytes[k]) && bytes[k] != b')' {
                k += 1;
            }
            let s = k;
            while k < span.1 && is_ident_char(bytes[k]) {
                k += 1;
            }
            if k > s {
                events.push(Ev::Drop {
                    name: code[s..k].to_string(),
                });
            }
            continue;
        }
        if follows_paren
            && !follows_bang
            && !KEYWORDS.contains(&word)
            && !INTRINSIC_NAMES.contains(&word)
            && !word.starts_with(|c: char| c.is_ascii_uppercase())
        {
            let kind = if is_method {
                Ev::Call {
                    call: CallRef {
                        name: word.to_string(),
                        kind: CallKind::Method {
                            recv: rules::receiver_ident(&code[..start - 1]).map(str::to_string),
                        },
                        line: lines.line_of(start),
                    },
                    binding: binding_for(bytes, i, &stmt_binding),
                }
            } else if start >= span.0 + 2 && &code[start - 2..start] == "::" {
                let seg_end = start - 2;
                let mut s = seg_end;
                while s > span.0 && is_ident_char(bytes[s - 1]) {
                    s -= 1;
                }
                Ev::Call {
                    call: CallRef {
                        name: word.to_string(),
                        kind: CallKind::Path(code[s..seg_end].to_string()),
                        line: lines.line_of(start),
                    },
                    binding: binding_for(bytes, i, &stmt_binding),
                }
            } else {
                Ev::Call {
                    call: CallRef {
                        name: word.to_string(),
                        kind: CallKind::Free,
                        line: lines.line_of(start),
                    },
                    binding: binding_for(bytes, i, &stmt_binding),
                }
            };
            events.push(kind);
        }
    }
    events
}

/// One held lock during the dataflow walk.
struct Held {
    acq: Acq,
    names: Vec<String>,
    depth: usize,
    temp: bool,
}

/// Checks one acquisition against the held set, pushing violations.
/// `via` names the callee when the acquisition arrives through a call.
#[allow(clippy::too_many_arguments)]
fn check_acquisition(
    new: &Acq,
    via: Option<&str>,
    line: usize,
    held: &[Held],
    rel: &str,
    scan: &Scan,
    seen: &mut BTreeSet<String>,
    out: &mut Vec<Violation>,
) {
    let via_note = via.map_or(String::new(), |c| format!(" (via `{c}`)"));
    let mut emit = |message: String| {
        if seen.insert(message.clone()) {
            rules::push_violation(scan, out, rel.to_string(), line, LOCK_DISCIPLINE, message);
        }
    };
    if let Some(h) = held.iter().find(|h| matches!(h.acq, Acq::SideMap { .. })) {
        if let Acq::SideMap { map } = &h.acq {
            emit(format!(
                "{}{} while the `{}` side-map leaf is held — rule 4 keeps side maps leaf-only",
                new.describe(),
                via_note,
                map
            ));
        }
    }
    let holds_venue_shard = || {
        held.iter().any(|h| {
            matches!(
                h.acq,
                Acq::Shard {
                    family: Family::Venues,
                    ..
                }
            )
        })
    };
    match new {
        Acq::Shard {
            family: Family::Users,
            ..
        } if holds_venue_shard() => {
            emit(format!(
                "user-shard acquisition{via_note} while a venue shard is held — \
                 rule 1 orders user shards before venue shards"
            ));
        }
        Acq::Shard {
            family: Family::Venues,
            ..
        } if holds_venue_shard() => {
            emit(format!(
                "venue-shard acquisition{via_note} while a venue shard is already \
                 held — rule 3 allows at most one venue shard (two-phase \
                 transitions must drop the first)"
            ));
        }
        Acq::Arena
            if held
                .iter()
                .any(|h| matches!(h.acq, Acq::Shard { write: true, .. })) =>
        {
            emit(format!(
                "arena mutex acquisition{via_note} while a shard write lock is \
                 held — intern strings before taking the shard write lock"
            ));
        }
        _ => {}
    }
    if let Acq::Shard {
        family,
        index: Some(n),
        ..
    } = new
    {
        let prior = held
            .iter()
            .filter_map(|h| match &h.acq {
                Acq::Shard {
                    family: hf,
                    index: Some(m),
                    ..
                } if hf == family => Some(*m),
                _ => None,
            })
            .max();
        if let Some(m) = prior {
            if m >= *n {
                emit(format!(
                    "shard {n} acquired after shard {m} of the same family{via_note} — \
                     rule 2 requires strictly ascending shard order"
                ));
            }
        }
    }
}

/// Runs the full interprocedural pass over every parsed file. A
/// server file the item parser cannot model gets one
/// [`LOCK_EFFECT_UNKNOWN`] finding at line 1 instead.
pub fn check(files: &[FileCtx], out: &mut Vec<Violation>) {
    // 1. The function table, excluding `#[cfg(test)]` regions (the
    //    sentinel's own tests violate the discipline on purpose).
    let mut table = FnTable::default();
    let mut file_of: Vec<usize> = Vec::new();
    let mut line_maps: HashMap<usize, LineMap> = HashMap::new();
    for (fi, f) in files.iter().enumerate() {
        let Some(items) = &f.parsed else {
            if f.rel.starts_with("crates/lbsn-server/src/") {
                rules::push_violation(
                    &f.scan,
                    out,
                    f.rel.clone(),
                    1,
                    LOCK_EFFECT_UNKNOWN,
                    "the item parser cannot model this file; its lock flow is unchecked"
                        .to_string(),
                );
            }
            continue;
        };
        let test_lines = rules::test_region_lines(&f.scan.code);
        let kept: Vec<_> = items
            .iter()
            .filter(|it| !test_lines.contains(&it.line))
            .cloned()
            .collect();
        let before = table.fns.len();
        table.add_file(&f.rel, &kept);
        file_of.extend(std::iter::repeat_n(fi, table.fns.len() - before));
        line_maps.insert(fi, LineMap::new(&f.scan.code));
    }
    let n = table.fns.len();

    // 2. Event streams and intra-procedural effects per function.
    let mut events: Vec<Vec<Ev>> = Vec::with_capacity(n);
    let mut intrinsics: Vec<BTreeSet<Acq>> = Vec::with_capacity(n);
    let mut retains: Vec<bool> = Vec::with_capacity(n);
    for (id, &fi) in file_of.iter().enumerate() {
        let code = &files[fi].scan.code;
        let item = &table.fns[id].item;
        let evs = match item.body {
            Some(span) => extract_events(code, span, &line_maps[&fi]),
            None => Vec::new(),
        };
        let mut own = BTreeSet::new();
        for ev in &evs {
            if let Ev::Acq { acq, .. } = ev {
                own.insert(acq.clone());
            }
        }
        let sig = &code[item.sig.0..item.sig.1];
        retains.push(sig.contains("Guard") || sig.contains("WriteSet") || sig.contains("RwLock"));
        intrinsics.push(own);
        events.push(evs);
    }

    // 3. Call edges and the SCC condensation.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut has_dispatch: Vec<bool> = vec![false; n];
    for id in 0..n {
        for ev in &events[id] {
            if let Ev::Call { call, .. } = ev {
                let r = table.resolve(id, call);
                edges[id].extend(&r.candidates);
                has_dispatch[id] |= r.declared_only;
            }
        }
        edges[id].sort_unstable();
        edges[id].dedup();
    }
    let comps = sccs(n, &edges);

    // 4. Effect summaries in reverse topological order. A cyclic
    //    component that acquires locks cannot bound how they nest, so
    //    it is unknown; an effect-free cycle stays precisely known.
    let mut comp_of: Vec<usize> = vec![0; n];
    for (ci, comp) in comps.iter().enumerate() {
        for &id in comp {
            comp_of[id] = ci;
        }
    }
    let mut summaries: Vec<Summary> = vec![Summary::default(); n];
    for (ci, comp) in comps.iter().enumerate() {
        let mut acquires: BTreeSet<Acq> = BTreeSet::new();
        let mut unknown = false;
        let mut cyclic = comp.len() > 1;
        for &id in comp {
            acquires.extend(intrinsics[id].iter().cloned());
            unknown |= has_dispatch[id];
            for &callee in &edges[id] {
                if comp_of[callee] == ci {
                    cyclic = true;
                } else {
                    acquires.extend(summaries[callee].acquires.iter().cloned());
                    unknown |= summaries[callee].unknown;
                }
            }
        }
        if cyclic && !acquires.is_empty() {
            unknown = true;
        }
        for &id in comp {
            summaries[id] = Summary {
                acquires: acquires.clone(),
                unknown,
                retains: retains[id],
            };
        }
    }

    // Debugging aid: `LBSN_LINT_TRACE=<fn name>` dumps every call edge
    // out of the named function with the resolved candidates' effects.
    if let Some(target) = std::env::var_os("LBSN_LINT_TRACE") {
        let target = target.to_string_lossy().into_owned();
        for (id, evs) in events.iter().enumerate() {
            if table.fns[id].item.name != target {
                continue;
            }
            eprintln!("trace {}:{}", table.fns[id].rel, table.fns[id].item.line);
            for ev in evs {
                if let Ev::Call { call, .. } = ev {
                    let r = table.resolve(id, call);
                    for &c in &r.candidates {
                        let s = &summaries[c];
                        if s.acquires.is_empty() && !s.unknown {
                            continue;
                        }
                        eprintln!(
                            "  line {} call `{}` -> {}:{} [{}]{}",
                            call.line,
                            call.name,
                            table.fns[c].rel,
                            table.fns[c].item.line,
                            s.acquires
                                .iter()
                                .map(Acq::describe)
                                .collect::<Vec<_>>()
                                .join(", "),
                            if s.unknown { " (unknown)" } else { "" },
                        );
                    }
                }
            }
        }
    }

    // Debugging aid: `LBSN_LINT_SUMMARIES=1` dumps every non-trivial
    // effect signature so a surprising via-edge can be traced.
    if std::env::var_os("LBSN_LINT_SUMMARIES").is_some() {
        for (id, s) in summaries.iter().enumerate() {
            if s.acquires.is_empty() && !s.unknown {
                continue;
            }
            let item = &table.fns[id].item;
            let effects: Vec<String> = s.acquires.iter().map(Acq::describe).collect();
            eprintln!(
                "summary {}:{} {}{}{} -> [{}]{}",
                table.fns[id].rel,
                item.line,
                item.owner.as_deref().unwrap_or(""),
                if item.owner.is_some() { "::" } else { "" },
                item.name,
                effects.join(", "),
                if s.unknown { " (unknown)" } else { "" },
            );
        }
    }

    // 5. Held-set dataflow over every body.
    for id in 0..n {
        let fi = file_of[id];
        let f = &files[fi];
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 0usize;
        let mut seen = BTreeSet::new();
        for ev in &events[id] {
            match ev {
                Ev::Open => {
                    held.retain(|h| !(h.temp && h.depth == depth));
                    depth += 1;
                }
                Ev::Close => {
                    depth = depth.saturating_sub(1);
                    held.retain(|h| h.depth <= depth);
                }
                Ev::StmtEnd => {
                    held.retain(|h| !(h.temp && h.depth == depth));
                }
                Ev::Drop { name } => {
                    held.retain(|h| !h.names.contains(name));
                }
                Ev::Acq { acq, line, binding } => {
                    check_acquisition(acq, None, *line, &held, &f.rel, &f.scan, &mut seen, out);
                    let (names, temp, hdepth) = match binding {
                        Binding::Named(names, assigned) => {
                            (names.clone(), false, if *assigned { 0 } else { depth })
                        }
                        Binding::Temp => (Vec::new(), true, depth),
                    };
                    held.push(Held {
                        acq: acq.clone(),
                        names,
                        depth: hdepth,
                        temp,
                    });
                }
                Ev::Call { call, binding } => {
                    let r = table.resolve(id, call);
                    if r.candidates.is_empty() {
                        if r.declared_only && !held.is_empty() {
                            rules::push_violation(
                                &f.scan,
                                out,
                                f.rel.clone(),
                                call.line,
                                LOCK_EFFECT_UNKNOWN,
                                format!(
                                    "call to `{}` resolves only to trait declarations \
                                     (dynamic dispatch) while locks are held — its lock \
                                     effects cannot be verified",
                                    call.name
                                ),
                            );
                        }
                        continue;
                    }
                    let mut union = Summary::default();
                    for &c in &r.candidates {
                        union.acquires.extend(summaries[c].acquires.iter().cloned());
                        union.unknown |= summaries[c].unknown;
                        union.retains |= summaries[c].retains;
                    }
                    for acq in &union.acquires {
                        check_acquisition(
                            acq,
                            Some(&call.name),
                            call.line,
                            &held,
                            &f.rel,
                            &f.scan,
                            &mut seen,
                            out,
                        );
                    }
                    if union.unknown && !held.is_empty() {
                        rules::push_violation(
                            &f.scan,
                            out,
                            f.rel.clone(),
                            call.line,
                            LOCK_EFFECT_UNKNOWN,
                            format!(
                                "call to `{}` has unknown lock effects (recursion or \
                                 dynamic dispatch) while locks are held — its nesting \
                                 cannot be verified",
                                call.name
                            ),
                        );
                    }
                    if union.retains {
                        let (names, temp, hdepth) = match binding {
                            Binding::Named(names, assigned) => {
                                (names.clone(), false, if *assigned { 0 } else { depth })
                            }
                            Binding::Temp => (Vec::new(), true, depth),
                        };
                        for acq in union.acquires {
                            held.push(Held {
                                acq,
                                names: names.clone(),
                                depth: hdepth,
                                temp,
                            });
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::parse;

    fn run_src(files: &[(&str, &str)]) -> Vec<Violation> {
        let ctxs: Vec<FileCtx> = files
            .iter()
            .map(|(rel, src)| {
                let scan = lexer::scan(src);
                let parsed = parse::parse(&scan.code);
                FileCtx {
                    rel: rel.to_string(),
                    scan,
                    parsed,
                }
            })
            .collect();
        let mut out = Vec::new();
        check(&ctxs, &mut out);
        out.retain(|v| !v.waived);
        out
    }

    #[test]
    fn direct_inversion_is_caught() {
        let v = run_src(&[(
            "a.rs",
            "fn f(s: &Server) {\n    let vg = s.venues.write_shard(1);\n    let ug = s.users.read_shard(0);\n    drop(ug);\n    drop(vg);\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, LOCK_DISCIPLINE);
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("rule 1"), "{}", v[0].message);
        // Guards still live at scope end, variable shard indices.
        let live = run_src(&[(
            "a.rs",
            "fn f(&self) {\n    let v = self.venues.write_shard(s);\n    \
             let u = self.users.read_shard(t);\n}\n",
        )]);
        assert_eq!(live.len(), 1, "{live:?}");
        assert_eq!(live[0].rule, LOCK_DISCIPLINE);
        assert_eq!(live[0].line, 3);
        // try_read_shard peeks don't count as venue acquisitions.
        let peek = run_src(&[(
            "a.rs",
            "fn f(&self) {\n    let v = self.venues.try_read_shard(s);\n    \
             let u = self.users.read_shard(t);\n}\n",
        )]);
        assert!(peek.is_empty(), "{peek:?}");
    }

    #[test]
    fn cross_function_inversion_is_caught() {
        let v = run_src(&[(
            "a.rs",
            "fn helper(s: &Server) {\n    let g = s.users.read_shard(0);\n    g.len();\n}\n\
             fn caller(s: &Server) {\n    let vg = s.venues.write_shard(1);\n    helper(s);\n    drop(vg);\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 7);
        assert!(v[0].message.contains("via `helper`"), "{}", v[0].message);
    }

    #[test]
    fn drop_releases_before_the_call() {
        let v = run_src(&[(
            "a.rs",
            "fn helper(s: &Server) {\n    let g = s.users.read_shard(0);\n    g.len();\n}\n\
             fn caller(s: &Server) {\n    let vg = s.venues.write_shard(1);\n    drop(vg);\n    helper(s);\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn scope_exit_releases_let_guards() {
        let v = run_src(&[(
            "a.rs",
            "fn f(s: &Server) {\n    {\n        let vg = s.venues.write_shard(1);\n        vg.len();\n    }\n    let ug = s.users.read_shard(0);\n    ug.len();\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn assigned_guards_survive_their_block() {
        // Two-phase venue switching: the rebinding inside the `if`
        // escapes the block, so a later same-family literal check sees
        // it; dropping by name releases it.
        let v = run_src(&[(
            "a.rs",
            "fn f(s: &Server) {\n    let mut vg = s.venues.write_shard(1);\n    if cond() {\n        drop(vg);\n        vg = s.venues.write_shard(2);\n    }\n    vg.len();\n    let ug = s.users.read_shard(0);\n    ug.len();\n}\n",
        )]);
        // users-after-venues: one rule-1 violation at line 8; the
        // rebinding itself is legal (old guard dropped first).
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 8);
    }

    #[test]
    fn ascending_literals_pass_descending_fail() {
        let ok = run_src(&[(
            "a.rs",
            "fn f(m: &ShardedVec<u64>) {\n    let a = m.write_shard(1);\n    let b = m.write_shard(3);\n    drop(b);\n    drop(a);\n}\n",
        )]);
        assert!(ok.is_empty(), "{ok:?}");
        let bad = run_src(&[(
            "a.rs",
            "fn f(m: &ShardedVec<u64>) {\n    let a = m.write_shard(3);\n    let b = m.write_shard(1);\n    drop(b);\n    drop(a);\n}\n",
        )]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(
            bad[0].message.contains("shard 1 acquired after shard 3"),
            "{}",
            bad[0].message
        );
        // Guards still live at scope end.
        let live = run_src(&[(
            "a.rs",
            "fn f(m: &S) {\n    let a = m.write_shard(3);\n    let b = m.write_shard(1);\n}\n",
        )]);
        assert_eq!(live.len(), 1, "{live:?}");
        assert_eq!(live[0].line, 3);
        // Each function holds only its own guard.
        let separate = run_src(&[(
            "a.rs",
            "fn f(m: &S) { let a = m.write_shard(3); }\n\
             fn g(m: &S) { let b = m.write_shard(1); }\n",
        )]);
        assert!(separate.is_empty(), "{separate:?}");
    }

    #[test]
    fn temporaries_die_at_statement_end() {
        let v = run_src(&[(
            "a.rs",
            "fn f(s: &Server) {\n    let n = s.usernames.read().len();\n    let g = s.users.read_shard(0);\n    g.push(n);\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn sidemap_held_across_acquisition_fires_rule_4() {
        let v = run_src(&[(
            "a.rs",
            "fn f(s: &Server) {\n    let names = s.usernames.read();\n    let g = s.users.read_shard(0);\n    g.len();\n    drop(names);\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("rule 4"), "{}", v[0].message);
    }

    #[test]
    fn arena_under_shard_write_fires() {
        let v = run_src(&[(
            "a.rs",
            "fn f(s: &Server) {\n    let g = s.venues.write_shard(0);\n    let a = s.venue_arenas[0].lock();\n    drop(a);\n    drop(g);\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("arena"), "{}", v[0].message);
    }

    #[test]
    fn recursive_effectful_functions_degrade_to_unknown() {
        let v = run_src(&[(
            "a.rs",
            "fn spiral(s: &Server, i: usize) {\n    let g = s.venues.read_shard(i);\n    drop(g);\n    if i > 0 {\n        spiral(s, i - 1);\n    }\n}\n\
             fn audit(s: &Server) {\n    let g = s.users.read_shard(0);\n    spiral(s, 3);\n    drop(g);\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, LOCK_EFFECT_UNKNOWN);
        assert_eq!(v[0].line, 10);
    }

    #[test]
    fn effect_free_recursion_stays_known() {
        let v = run_src(&[(
            "a.rs",
            "fn even(n: u64) -> bool {\n    if n == 0 { true } else { odd(n - 1) }\n}\n\
             fn odd(n: u64) -> bool {\n    if n == 0 { false } else { even(n - 1) }\n}\n\
             fn f(s: &Server) {\n    let g = s.users.read_shard(0);\n    even(g.len() as u64);\n    drop(g);\n}\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn retained_guards_from_helpers_stay_held() {
        // `acquire` returns a guard (signature names a Guard type), so
        // the caller's later user-shard acquisition sees it held.
        let v = run_src(&[(
            "a.rs",
            "fn acquire(s: &Server) -> ShardWriteGuard<'_, Venue> {\n    s.venues.write_shard(1)\n}\n\
             fn caller(s: &Server) {\n    let vg = acquire(s);\n    let ug = s.users.read_shard(0);\n    drop(ug);\n    drop(vg);\n}\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 6);
        assert!(v[0].message.contains("rule 1"));
    }
}
