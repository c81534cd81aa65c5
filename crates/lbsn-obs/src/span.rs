//! Request-scoped tracing: spans with ids, parent links, timestamps,
//! attributes, and events, behind head sampling.
//!
//! A root span is opened per request (one check-in, one crawled page,
//! one attack step) with [`crate::Registry::span`]; stages open
//! children with [`Span::child`]. The sampling decision is made once at
//! the root — 1-in-N via a relaxed counter, or everything when the
//! registry's sample-all flag is up, or unconditionally via
//! [`crate::Registry::span_forced`] — and children inherit it. An
//! unsampled (or disabled-registry) span is a `None` and every method
//! on it is a branch on a null pointer: no clock reads, no allocation,
//! no formatting. Only *finished sampled* spans touch the sink's one
//! mutex. The tracer's cost is part of the `perf` benchmark's
//! `obs.overhead_pct`.
//!
//! Finished spans land in a bounded ring; once full the oldest is
//! evicted and `trace.dropped_spans` grows, so truncation is always
//! visible in snapshots.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// One moment inside a span (a cheater flag firing, a retry).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEventRecord {
    /// Nanoseconds since the registry's clock started.
    pub at_ns: u64,
    /// Event name.
    pub name: String,
}

/// A finished span, as retained by the sink and exported in snapshots
/// and Chrome traces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Unique (per registry) span id, starting at 1.
    pub id: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    /// Span name, `subsystem.operation` style.
    pub name: String,
    /// Dense per-process thread number (not the OS tid).
    pub thread: u64,
    /// Start, nanoseconds since the registry's clock started.
    pub start_ns: u64,
    /// End, nanoseconds since the registry's clock started.
    pub end_ns: u64,
    /// Ordered key/value attributes.
    pub attrs: Vec<(String, String)>,
    /// Timestamped events inside the span.
    pub events: Vec<SpanEventRecord>,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A sampled span that has started but not finished — what the flight
/// recorder dumps when a panic interrupts requests mid-stage. Attrs and
/// events still live in the owning [`Span`], so only the identity and
/// start are visible here.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpenSpan {
    /// Span id (same id space as [`SpanRecord`]).
    pub id: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Dense per-process thread number.
    pub thread: u64,
    /// Start, nanoseconds since the registry's clock started.
    pub start_ns: u64,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static THREAD_NUM: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_num() -> u64 {
    THREAD_NUM.with(|t| *t)
}

/// The per-registry sink of finished spans.
pub(crate) struct SpanSink {
    capacity: usize,
    next_id: AtomicU64,
    head_counter: AtomicU64,
    sample_every: AtomicU64,
    sample_all: AtomicBool,
    finished: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<VecDeque<SpanRecord>>,
    /// Sampled spans started but not yet finished, for flight dumps.
    open: Mutex<Vec<OpenSpan>>,
    /// Time base for span timestamps: the sink (and so its registry)
    /// was created here.
    start: Instant,
}

impl SpanSink {
    pub(crate) fn new(capacity: usize, sample_every: u64, sample_all: bool) -> Self {
        assert!(capacity > 0, "span sink needs capacity");
        SpanSink {
            capacity,
            next_id: AtomicU64::new(1),
            head_counter: AtomicU64::new(0),
            sample_every: AtomicU64::new(sample_every),
            sample_all: AtomicBool::new(sample_all),
            finished: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            open: Mutex::new(Vec::new()),
            start: Instant::now(),
        }
    }

    /// Nanoseconds since the sink (registry) was created.
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// The head-sampling decision for a new root span.
    fn sample_root(&self, force: bool) -> bool {
        if force || self.sample_all.load(Ordering::Relaxed) {
            return true;
        }
        let every = self.sample_every.load(Ordering::Relaxed);
        every != 0
            && self
                .head_counter
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(every)
    }

    pub(crate) fn set_sample_every(&self, every: u64) {
        self.sample_every.store(every, Ordering::Relaxed);
    }

    pub(crate) fn set_sample_all(&self, all: bool) {
        self.sample_all.store(all, Ordering::Relaxed);
    }

    fn push(&self, record: SpanRecord) {
        self.finished.fetch_add(1, Ordering::Relaxed);
        {
            let mut open = self.open.lock();
            if let Some(pos) = open.iter().position(|o| o.id == record.id) {
                open.swap_remove(pos);
            }
        }
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Finished sampled spans, total (including evicted ones).
    pub(crate) fn finished(&self) -> u64 {
        self.finished.load(Ordering::Relaxed)
    }

    /// Spans evicted from the ring.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies the retained spans, oldest first.
    pub(crate) fn drain_copy(&self) -> Vec<SpanRecord> {
        self.ring.lock().iter().cloned().collect()
    }

    /// Copies the currently open sampled spans, ascending by id.
    pub(crate) fn open_copy(&self) -> Vec<OpenSpan> {
        let mut open: Vec<OpenSpan> = self.open.lock().clone();
        open.sort_by_key(|o| o.id);
        open
    }

    /// Discards retained spans and zeroes the finished/dropped tallies.
    /// Span ids keep growing so they stay unique across resets. Open
    /// spans are forgotten too; one started before a reset simply
    /// vanishes from the open list when it finishes.
    pub(crate) fn clear(&self) {
        self.ring.lock().clear();
        self.open.lock().clear();
        self.finished.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

struct SpanInner {
    sink: Arc<SpanSink>,
    record: SpanRecord,
}

/// A live span. Created by [`crate::Registry::span`] (root) or
/// [`Span::child`]; finishes (and reports to the sink) on drop or
/// [`Span::end`]. An unsampled span is inert: every method is a cheap
/// no-op and nothing is allocated.
pub struct Span {
    inner: Option<Box<SpanInner>>,
}

impl Span {
    /// An inert span (disabled registry or head-sampled away).
    pub(crate) fn disabled() -> Span {
        Span { inner: None }
    }

    pub(crate) fn start_root(sink: &Arc<SpanSink>, name: &str, force: bool) -> Span {
        if !sink.sample_root(force) {
            return Span::disabled();
        }
        Span::start(sink, name, 0)
    }

    fn start(sink: &Arc<SpanSink>, name: &str, parent: u64) -> Span {
        let id = sink.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = sink.now_ns();
        sink.open.lock().push(OpenSpan {
            id,
            parent,
            name: name.to_string(),
            thread: thread_num(),
            start_ns,
        });
        Span {
            inner: Some(Box::new(SpanInner {
                sink: Arc::clone(sink),
                record: SpanRecord {
                    id,
                    parent,
                    name: name.to_string(),
                    thread: thread_num(),
                    start_ns,
                    end_ns: start_ns,
                    attrs: Vec::new(),
                    events: Vec::new(),
                },
            })),
        }
    }

    /// Whether this span is recording (sampled and enabled).
    #[inline]
    pub fn sampled(&self) -> bool {
        self.inner.is_some()
    }

    /// This span's id, when sampled.
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.record.id)
    }

    /// Opens a child span; inert when the parent is inert.
    pub fn child(&self, name: &str) -> Span {
        match &self.inner {
            Some(inner) => Span::start(&inner.sink, name, inner.record.id),
            None => Span::disabled(),
        }
    }

    /// Attaches a key/value attribute. The value is only formatted when
    /// the span is sampled.
    pub fn attr(&mut self, key: &str, value: impl fmt::Display) {
        if let Some(inner) = &mut self.inner {
            inner
                .record
                .attrs
                .push((key.to_string(), value.to_string()));
        }
    }

    /// Records a timestamped event inside the span.
    pub fn event(&mut self, name: &str) {
        if let Some(inner) = &mut self.inner {
            let at_ns = inner.sink.now_ns();
            inner.record.events.push(SpanEventRecord {
                at_ns,
                name: name.to_string(),
            });
        }
    }

    /// Records a timestamped event, building its name lazily — the
    /// closure only runs when the span is sampled, so hot paths can
    /// format flag names without paying for unsampled requests.
    pub fn event_with(&mut self, name: impl FnOnce() -> String) {
        if self.sampled() {
            let name = name();
            self.event(&name);
        }
    }

    /// Finishes the span now instead of at scope end.
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut inner) = self.inner.take() {
            inner.record.end_ns = inner.sink.now_ns();
            let SpanInner { sink, record } = *inner;
            sink.push(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink(capacity: usize, every: u64) -> Arc<SpanSink> {
        Arc::new(SpanSink::new(capacity, every, false))
    }

    #[test]
    fn spans_nest_and_report() {
        let sink = sink(16, 1);
        {
            let mut root = Span::start_root(&sink, "req", false);
            root.attr("user", 7);
            let mut child = root.child("stage");
            child.event("flag.GpsMismatch");
            child.end();
            root.end();
        }
        let spans = sink.drain_copy();
        assert_eq!(spans.len(), 2);
        // Children finish first.
        assert_eq!(spans[0].name, "stage");
        assert_eq!(spans[1].name, "req");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].attrs, vec![("user".to_string(), "7".to_string())]);
        assert_eq!(spans[0].events.len(), 1);
        assert!(spans[0].end_ns >= spans[0].start_ns);
        assert!(spans[0].start_ns >= spans[1].start_ns);
    }

    #[test]
    fn head_sampling_keeps_one_in_n() {
        let sink = sink(1024, 4);
        let mut sampled = 0;
        for _ in 0..100 {
            let s = Span::start_root(&sink, "req", false);
            if s.sampled() {
                sampled += 1;
            }
        }
        assert_eq!(sampled, 25);
        assert_eq!(sink.finished(), 25);
    }

    #[test]
    fn forced_spans_bypass_sampling() {
        let sink = sink(16, 0); // 1-in-0: never head-sample
        assert!(!Span::start_root(&sink, "req", false).sampled());
        let s = Span::start_root(&sink, "req", true);
        assert!(s.sampled());
        drop(s);
        assert_eq!(sink.finished(), 1);
    }

    #[test]
    fn unsampled_spans_are_fully_inert() {
        let sink = sink(16, 0);
        let mut s = Span::start_root(&sink, "req", false);
        s.attr("k", "v");
        s.event("e");
        s.event_with(|| unreachable!("must not format for unsampled spans"));
        let c = s.child("stage");
        assert!(!c.sampled());
        drop(c);
        drop(s);
        assert_eq!(sink.finished(), 0);
        assert!(sink.drain_copy().is_empty());
    }

    #[test]
    fn open_spans_track_start_and_finish() {
        let sink = sink(16, 1);
        let root = Span::start_root(&sink, "req", false);
        let child = root.child("stage");
        let open = sink.open_copy();
        assert_eq!(open.len(), 2);
        assert_eq!(open[0].name, "req");
        assert_eq!(open[1].name, "stage");
        assert_eq!(open[1].parent, open[0].id);
        child.end();
        assert_eq!(sink.open_copy().len(), 1);
        root.end();
        assert!(sink.open_copy().is_empty());
        // Unsampled spans never appear in the open list.
        let quiet = Arc::new(SpanSink::new(16, 0, false));
        let s = Span::start_root(&quiet, "req", false);
        assert!(quiet.open_copy().is_empty());
        drop(s);
    }

    #[test]
    fn ring_eviction_counts_drops() {
        let sink = sink(3, 1);
        for _ in 0..5 {
            Span::start_root(&sink, "req", false).end();
        }
        assert_eq!(sink.drain_copy().len(), 3);
        assert_eq!(sink.dropped(), 2);
        assert_eq!(sink.finished(), 5);
        sink.clear();
        assert_eq!(sink.dropped(), 0);
        assert!(sink.drain_copy().is_empty());
    }
}
