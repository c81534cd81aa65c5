//! The flight recorder: crash forensics for paper-scale runs.
//!
//! A panic in a 1M-entity run is useless if all it leaves behind is a
//! backtrace. Once [`arm`]ed, the recorder keeps a process-wide panic
//! hook that writes a **flight dump** — the last trace events, the
//! sampled spans still open mid-request, the last admission decisions,
//! and a final metrics snapshot — to `target/flight/<ts>.json`.
//! The same dump can be taken explicitly via [`dump_flight`] from a
//! watchdog or a failing test.
//!
//! Arming is explicit and process-global: harnesses (the experiments
//! binary, the scale ladder, concurrency tests) opt in; unit tests that
//! panic on purpose don't spray dumps unless something armed the
//! recorder first. The hook chains to the previously-installed hook, so
//! normal panic output is preserved.

use std::fs;
use std::io;
use std::panic;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::{SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::audit::DecisionRecord;
use crate::snapshot::{EventRecord, Snapshot};
use crate::span::OpenSpan;
use crate::Registry;

/// Trace events retained in a dump (the tail of the ring).
const DUMP_EVENT_TAIL: usize = 256;

/// Decision records retained in a dump (the tail of the audit ring) —
/// the admission decisions immediately preceding the failure.
const DUMP_DECISION_TAIL: usize = 64;

struct Armed {
    registry: Arc<Registry>,
    dir: PathBuf,
}

static ARMED: Mutex<Option<Armed>> = Mutex::new(None);
static HOOK: Once = Once::new();
static SEQ: AtomicU64 = AtomicU64::new(0);

/// One flight-recorder dump, as written to `target/flight/<ts>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Why the dump was taken (panic payload + location, or the reason
    /// passed to [`dump_flight`]).
    pub reason: String,
    /// Wall-clock milliseconds since the Unix epoch at dump time.
    pub at_unix_ms: u64,
    /// Sampled spans open (started, unfinished) at dump time.
    pub open_spans: Vec<OpenSpan>,
    /// The tail of the trace ring, oldest first.
    pub events: Vec<EventRecord>,
    /// The last decision records the audit plane captured, oldest
    /// first (empty when no audit plane was resolved).
    pub decisions: Vec<DecisionRecord>,
    /// Full metrics snapshot at dump time.
    pub snapshot: Snapshot,
}

impl FlightDump {
    /// Parses a dump from JSON text.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// Arms the recorder: dumps from panics and [`dump_flight`] calls will
/// capture `registry` and land in `dir` (created on demand). Installs
/// the panic hook on first arm; re-arming just swaps the registry and
/// directory.
pub fn arm(registry: Arc<Registry>, dir: impl Into<PathBuf>) {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let reason = format!("panic: {info}");
            let _ = write_dump(&reason);
            prev(info);
        }));
    });
    *ARMED.lock() = Some(Armed {
        registry,
        dir: dir.into(),
    });
}

/// Disarms the recorder; the hook stays installed but becomes a no-op.
pub fn disarm() {
    *ARMED.lock() = None;
}

/// Takes a flight dump now. Returns the written path, or `Ok(None)`
/// when the recorder is not armed.
///
/// # Errors
///
/// Propagates I/O failures creating the dump directory or writing the
/// file.
pub fn dump_flight(reason: &str) -> io::Result<Option<PathBuf>> {
    write_dump(reason)
}

fn write_dump(reason: &str) -> io::Result<Option<PathBuf>> {
    // Snapshot the armed state and release the lock before touching the
    // registry, so a panic *inside* registry code can't deadlock the
    // hook against our own mutex.
    let (registry, dir) = {
        let armed = ARMED.lock();
        match armed.as_ref() {
            Some(a) => (Arc::clone(&a.registry), a.dir.clone()),
            None => return Ok(None),
        }
    };
    let mut events = registry.events().drain_copy();
    if events.len() > DUMP_EVENT_TAIL {
        events.drain(..events.len() - DUMP_EVENT_TAIL);
    }
    let dump = FlightDump {
        reason: reason.to_string(),
        at_unix_ms: unix_ms(),
        open_spans: registry.open_spans(),
        events,
        decisions: registry.last_decisions(DUMP_DECISION_TAIL),
        snapshot: registry.snapshot(),
    };
    let json = serde_json::to_string_pretty(&dump).map_err(io::Error::other)?;
    fs::create_dir_all(&dir)?;
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("{}-{seq:04}.json", dump.at_unix_ms));
    fs::write(&path, json)?;
    Ok(Some(path))
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    // All flight tests share the process-global armed state, so they
    // run as one test body to avoid cross-test races.
    #[test]
    fn explicit_and_panic_dumps_capture_forensics() {
        let dir = PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/flight-test-obs"
        ));
        let _ = fs::remove_dir_all(&dir);

        // Not armed: no dump, no error.
        disarm();
        assert_eq!(dump_flight("early").unwrap(), None);

        let registry = Arc::new(Registry::new());
        registry.counter("server.checkin.accepted").add(3);
        registry.event("server.account.branded", &[("user", "9".to_string())]);
        let plane = registry.audit();
        let mut decision = crate::DecisionBuilder::new(9, 2, 777);
        decision.verdict("rapid-fire", Some("rapid_fire"), 4.0, 4.0, "checkins", 50);
        plane.finish(&decision, crate::DecisionOutcome::Branded("rapid_fire"));
        let open = registry.span_forced("server.checkin");
        arm(Arc::clone(&registry), &dir);

        // Explicit dump.
        let path = dump_flight("watchdog fired").unwrap().expect("armed");
        let dump = FlightDump::from_json(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(dump.reason, "watchdog fired");
        assert_eq!(dump.open_spans.len(), 1);
        assert_eq!(dump.open_spans[0].name, "server.checkin");
        assert!(dump
            .events
            .iter()
            .any(|e| e.name == "server.account.branded"));
        assert_eq!(dump.snapshot.counter("server.checkin.accepted"), 3);
        // The dump carries the audit tail: the branding decision that
        // preceded the failure, evidence included.
        assert_eq!(dump.decisions.len(), 1);
        assert_eq!(dump.decisions[0].user, 9);
        assert_eq!(dump.decisions[0].outcome, "branded.rapid_fire");
        drop(open);

        // Panic dump via the installed hook (the panic is caught, but
        // hooks run for caught panics too).
        let before: usize = fs::read_dir(&dir).unwrap().count();
        let result = panic::catch_unwind(|| panic!("worker tripped in test"));
        assert!(result.is_err());
        let mut after: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        assert_eq!(after.len(), before + 1);
        after.sort();
        let last =
            FlightDump::from_json(&fs::read_to_string(after.last().unwrap()).unwrap()).unwrap();
        assert!(
            last.reason.contains("worker tripped in test"),
            "{}",
            last.reason
        );

        // Disarmed again: panics stop dumping.
        disarm();
        let _ = panic::catch_unwind(|| panic!("quiet"));
        assert_eq!(fs::read_dir(&dir).unwrap().count(), after.len());
    }
}
