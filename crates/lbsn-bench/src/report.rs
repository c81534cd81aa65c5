//! Experiment reporting: paper-vs-measured tables.

use std::fmt::Write as _;
use std::path::Path;

use lbsn_obs::Snapshot;
use serde::Serialize;

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// What is being compared.
    pub label: String,
    /// The paper's value or claim (verbatim where possible).
    pub paper: String,
    /// What the reproduction measured.
    pub measured: String,
    /// Whether the measurement reproduces the claim's shape.
    pub ok: bool,
}

impl Row {
    /// A comparison row.
    pub fn new(
        label: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        ok: bool,
    ) -> Self {
        Row {
            label: label.into(),
            paper: paper.into(),
            measured: measured.into(),
            ok,
        }
    }
}

/// One regenerated figure or claim set.
#[derive(Debug, Clone, Serialize)]
pub struct Experiment {
    /// Experiment ID (E1…E12, per DESIGN.md).
    pub id: String,
    /// Short title.
    pub title: String,
    /// The paper artifact it reproduces (figure/section).
    pub artifact: String,
    /// Comparison rows.
    pub rows: Vec<Row>,
    /// Free-form notes (scale, substitutions, caveats).
    pub notes: Vec<String>,
    /// Observability snapshot taken when the experiment finished —
    /// counters, gauges, sketches, and recent events from the
    /// registry the experiment ran against (see `lbsn-obs`).
    pub metrics: Option<Snapshot>,
}

impl Experiment {
    /// Creates an empty experiment report.
    pub fn new(id: &str, title: &str, artifact: &str) -> Self {
        Experiment {
            id: id.to_string(),
            title: title.to_string(),
            artifact: artifact.to_string(),
            rows: Vec::new(),
            notes: Vec::new(),
            metrics: None,
        }
    }

    /// Attaches the metrics snapshot captured after the experiment ran.
    pub fn attach_metrics(&mut self, snapshot: Snapshot) -> &mut Self {
        self.metrics = Some(snapshot);
        self
    }

    /// Adds a comparison row.
    pub fn row(
        &mut self,
        label: impl Into<String>,
        paper: impl Into<String>,
        measured: impl Into<String>,
        ok: bool,
    ) -> &mut Self {
        self.rows.push(Row::new(label, paper, measured, ok));
        self
    }

    /// Adds a note.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Whether every row reproduced.
    pub fn all_ok(&self) -> bool {
        self.rows.iter().all(|r| r.ok)
    }

    /// Renders the experiment as a Markdown section.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let status = if self.all_ok() { "✅" } else { "⚠️" };
        let _ = writeln!(
            out,
            "### {} — {} ({}) {}\n",
            self.id, self.title, self.artifact, status
        );
        let _ = writeln!(out, "| Quantity | Paper | Measured | Repro |");
        let _ = writeln!(out, "|---|---|---|---|");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} |",
                r.label,
                r.paper,
                r.measured,
                if r.ok { "✅" } else { "❌" }
            );
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out);
            for n in &self.notes {
                let _ = writeln!(out, "- {n}");
            }
        }
        if let Some(m) = &self.metrics {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "_metrics snapshot: {} counters, {} gauges, {} sketches, {} events_",
                m.counters.len(),
                m.gauges.len(),
                m.sketches.len(),
                m.events.len()
            );
        }
        out
    }
}

/// Writes a data series as CSV next to the experiment outputs (for
/// re-plotting the figures).
///
/// # Errors
///
/// I/O errors from creating the directory or writing the file.
pub fn write_csv(
    path: impl AsRef<Path>,
    header: &str,
    rows: impl IntoIterator<Item = String>,
) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut body = String::from(header);
    body.push('\n');
    for r in rows {
        body.push_str(&r);
        body.push('\n');
    }
    std::fs::write(path, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut e = Experiment::new("E3", "Starbucks map", "Fig 3.4");
        e.row("branch count", "chain-wide", "212", true)
            .row("US silhouette", "spans map", "lon span 88°", true)
            .note("scale 1/50");
        let md = e.to_markdown();
        assert!(md.contains("### E3 — Starbucks map (Fig 3.4) ✅"));
        assert!(md.contains("| branch count | chain-wide | 212 | ✅ |"));
        assert!(md.contains("- scale 1/50"));
        assert!(e.all_ok());
    }

    #[test]
    fn failed_rows_flagged() {
        let mut e = Experiment::new("EX", "t", "a");
        e.row("x", "1", "2", false);
        assert!(!e.all_ok());
        assert!(e.to_markdown().contains("⚠️"));
        assert!(e.to_markdown().contains("❌"));
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("lbsn-csv-test");
        let path = dir.join("x.csv");
        write_csv(&path, "lon,lat", vec!["1,2".to_string(), "3,4".to_string()]).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "lon,lat\n1,2\n3,4\n");
        let _ = std::fs::remove_dir_all(dir);
    }
}
