//! The benchmark's own tracing: a timed call per layer boundary, spans
//! for sampled requests in a preallocated buffer, a Chrome-trace dump,
//! and the per-layer table (calls, busy time, quantiles, self time).
//!
//! Spans are recorded by the benchmark around calls into the program's
//! public functions, never inside the program, so a traced run measures
//! the same code an untraced run does.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::measure::Latencies;

/// One layer boundary the benchmark times. The name is `<module>.<call>`
/// after the program module the call enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Setup,
    Input,
    Register,
    Compact,
    Request,
    UserRead,
    VenueRead,
    Evaluate,
    GpsRule,
    CooldownRule,
    SpeedRule,
    RapidFireRule,
    HistoryPush,
    WindowScan,
    DecideMayor,
    EvaluateBadges,
    CheckIn,
    CheckInBatch,
    Submit,
    TicketWait,
    CrawlStep,
    UserPage,
    VenuePage,
    Parse,
    Insert,
    Snapshot,
}

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; 26] = [
        Layer::Setup,
        Layer::Input,
        Layer::Register,
        Layer::Compact,
        Layer::Request,
        Layer::UserRead,
        Layer::VenueRead,
        Layer::Evaluate,
        Layer::GpsRule,
        Layer::CooldownRule,
        Layer::SpeedRule,
        Layer::RapidFireRule,
        Layer::HistoryPush,
        Layer::WindowScan,
        Layer::DecideMayor,
        Layer::EvaluateBadges,
        Layer::CheckIn,
        Layer::CheckInBatch,
        Layer::Submit,
        Layer::TicketWait,
        Layer::CrawlStep,
        Layer::UserPage,
        Layer::VenuePage,
        Layer::Parse,
        Layer::Insert,
        Layer::Snapshot,
    ];

    /// The span and table name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::Input => "workload.input",
            Layer::Register => "workload.register",
            Layer::Compact => "workload.compact",
            Layer::Request => "request",
            Layer::UserRead => "shard.user_read",
            Layer::VenueRead => "shard.venue_read",
            Layer::Evaluate => "cheatercode.evaluate",
            Layer::GpsRule => "cheatercode.gps_proximity",
            Layer::CooldownRule => "cheatercode.frequent_checkins",
            Layer::SpeedRule => "cheatercode.superhuman_speed",
            Layer::RapidFireRule => "cheatercode.rapid_fire",
            Layer::HistoryPush => "history.push",
            Layer::WindowScan => "history.window_scan",
            Layer::DecideMayor => "rewards.decide_mayor",
            Layer::EvaluateBadges => "rewards.evaluate_badges",
            Layer::CheckIn => "admission.check_in",
            Layer::CheckInBatch => "admission.check_in_batch",
            Layer::Submit => "frontend.submit",
            Layer::TicketWait => "frontend.ticket_wait",
            Layer::CrawlStep => "crawl.step",
            Layer::UserPage => "web.user_page",
            Layer::VenuePage => "web.venue_page",
            Layer::Parse => "scrape.parse",
            Layer::Insert => "crawldb.insert",
            Layer::Snapshot => "obs.snapshot",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Index of "no span": a root, or a span the full buffer dropped.
const NONE: u32 = u32::MAX;

/// Where a span hangs: its parent span and the request it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct SpanCtx {
    parent: u32,
    id: u64,
}

impl SpanCtx {
    /// A context whose calls are timed but not kept as spans: request
    /// `id` was not sampled.
    pub fn detached(id: u64) -> Self {
        SpanCtx { parent: NONE, id }
    }
}

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    id: u64,
    tid: u32,
}

/// One thread's recorder. Every timed call lands in its layer's
/// latency set; calls made under a [`SpanCtx`] also become spans, kept
/// in a buffer allocated up front so recording never reallocates.
pub struct Tracer {
    origin: Instant,
    tid: u32,
    spans: Vec<SpanRec>,
    dropped: u64,
    calls: Vec<Latencies>,
    /// Pages rendered and their total size, counted where they render.
    pages: (u64, u64),
}

impl Tracer {
    /// A recorder for thread `tid` whose span timestamps count from
    /// `origin`, holding at most `span_capacity` spans.
    pub fn new(origin: Instant, tid: u32, span_capacity: usize) -> Self {
        Tracer {
            origin,
            tid,
            spans: Vec::with_capacity(span_capacity),
            dropped: 0,
            calls: Layer::ALL.iter().map(|_| Latencies::default()).collect(),
            pages: (0, 0),
        }
    }

    /// Counts one rendered page of `bytes` bytes.
    pub fn page(&mut self, bytes: usize) {
        self.pages.0 += 1;
        self.pages.1 += bytes as u64;
    }

    /// Mean rendered page size, bytes (0 before any page).
    pub fn page_bytes_mean(&self) -> f64 {
        self.pages.1 as f64 / self.pages.0.max(1) as f64
    }

    fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, layer: Layer, start: Instant, end: Instant, parent: u32, id: u64) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NONE;
        }
        self.spans.push(SpanRec {
            layer,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            parent,
            id,
            tid: self.tid,
        });
        (self.spans.len() - 1) as u32
    }

    /// Records a finished call of `layer`, as a span too when `ctx` is
    /// given.
    pub fn finish(&mut self, layer: Layer, ctx: Option<SpanCtx>, start: Instant, end: Instant) {
        self.calls[layer.index()].record(end - start);
        // A child of a dropped span is dropped with it.
        if let Some(ctx) = ctx.filter(|c| c.parent != NONE) {
            self.push(layer, start, end, ctx.parent, ctx.id);
        }
    }

    /// Times `f` as one call of `layer`.
    pub fn time<R>(&mut self, layer: Layer, ctx: Option<SpanCtx>, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.finish(layer, ctx, start, Instant::now());
        out
    }

    /// Opens a span that later calls hang under; close it with
    /// [`Tracer::close`]. `id` is the request index the spans share.
    pub fn open(&mut self, layer: Layer, id: u64, parent: Option<SpanCtx>) -> (SpanCtx, Instant) {
        let start = Instant::now();
        let parent = parent.map_or(NONE, |p| p.parent);
        let idx = self.push(layer, start, start, parent, id);
        (SpanCtx { parent: idx, id }, start)
    }

    /// Closes a span opened by [`Tracer::open`] and records its call.
    pub fn close(&mut self, layer: Layer, (ctx, start): (SpanCtx, Instant)) {
        let end = Instant::now();
        self.calls[layer.index()].record(end - start);
        if ctx.parent != NONE {
            let end_ns = self.offset_ns(end);
            self.spans[ctx.parent as usize].end_ns = end_ns;
        }
    }

    /// The latency set of one layer.
    pub fn calls(&mut self, layer: Layer) -> &mut Latencies {
        &mut self.calls[layer.index()]
    }

    /// Folds another thread's recorder into this one.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let room = self.spans.capacity() - self.spans.len();
        let take = other.spans.len().min(room);
        self.dropped += other.dropped + (other.spans.len() - take) as u64;
        self.spans
            .extend(other.spans[..take].iter().map(|s| SpanRec {
                parent: if s.parent == NONE || s.parent as usize >= take {
                    NONE
                } else {
                    s.parent + base
                },
                ..*s
            }));
        for (mine, theirs) in self.calls.iter_mut().zip(other.calls) {
            mine.extend(theirs);
        }
        self.pages.0 += other.pages.0;
        self.pages.1 += other.pages.1;
    }

    /// Spans recorded and spans the full buffer dropped.
    pub fn span_counts(&self) -> (usize, u64) {
        (self.spans.len(), self.dropped)
    }

    /// Per-span self time: duration minus the union of its children's
    /// intervals, summed per layer alongside the summed durations.
    fn self_ratios(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut dur = vec![0u64; Layer::ALL.len()];
        let mut own = vec![0u64; Layer::ALL.len()];
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let d = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur[s.layer.index()] += d;
            own[s.layer.index()] += d - covered.min(d);
        }
        dur.iter()
            .zip(&own)
            .map(|(&d, &o)| if d == 0 { 1.0 } else { o as f64 / d as f64 })
            .collect()
    }

    /// The layer table: one row per layer that was called.
    pub fn table(&mut self, wall: Duration) -> String {
        let ratios = self.self_ratios();
        let wall_s = wall.as_secs_f64().max(1e-9);
        let mut out = format!(
            "{:<30} {:>10} {:>10} {:>11} {:>11} {:>10} {:>7}\n",
            "layer", "calls", "busy_s", "p50_ns", "p99_ns", "self_s", "share%"
        );
        for layer in Layer::ALL {
            let calls = &mut self.calls[layer.index()];
            if calls.len() == 0 {
                continue;
            }
            let busy = calls.total_ns() as f64 / 1e9;
            let _ = writeln!(
                out,
                "{:<30} {:>10} {:>10.4} {:>11.0} {:>11.0} {:>10.4} {:>7.2}",
                layer.name(),
                calls.len(),
                busy,
                calls.quantile_ns(0.5),
                calls.quantile_ns(0.99),
                busy * ratios[layer.index()],
                100.0 * busy / wall_s,
            );
        }
        out
    }

    /// The recorded spans as Chrome-trace JSON (`chrome://tracing`,
    /// Perfetto): complete events in microseconds, with the request index
    /// and parent span name as arguments.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "none"
            } else {
                self.spans[s.parent as usize].layer.name()
            };
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"perf\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":\"{}\"}}}}",
                if i == 0 { "" } else { ",\n" },
                s.layer.name(),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
                parent,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 0, 16);
        let at = |ns: u64| origin + Duration::from_nanos(ns);
        let root = t.push(Layer::Request, at(0), at(100), NONE, 1);
        // Two overlapping children cover [10, 50); a third [60, 70).
        t.push(Layer::UserRead, at(10), at(40), root, 1);
        t.push(Layer::VenueRead, at(30), at(50), root, 1);
        t.push(Layer::CheckIn, at(60), at(70), root, 1);
        let ratios = t.self_ratios();
        assert!((ratios[Layer::Request.index()] - 0.5).abs() < 1e-9);
        assert_eq!(ratios[Layer::CheckIn.index()], 1.0);
    }

    #[test]
    fn full_buffer_drops_spans_but_keeps_timings() {
        let mut t = Tracer::new(Instant::now(), 0, 1);
        let (ctx, start) = t.open(Layer::Request, 7, None);
        t.time(Layer::CheckIn, Some(ctx), || ());
        t.close(Layer::Request, (ctx, start));
        assert_eq!(t.span_counts(), (1, 1));
        assert_eq!(t.calls(Layer::CheckIn).len(), 1);
        assert!(t.chrome_json().contains("\"name\":\"request\""));
    }

    #[test]
    fn merge_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin, 0, 8);
        let mut b = Tracer::new(origin, 1, 8);
        a.open(Layer::Request, 1, None);
        let (ctx, start) = b.open(Layer::Request, 2, None);
        b.time(Layer::CheckIn, Some(ctx), || ());
        b.close(Layer::Request, (ctx, start));
        a.merge(b);
        assert_eq!(a.spans.len(), 3);
        assert_eq!(a.spans[2].parent, 1);
        assert_eq!(a.spans[2].tid, 1);
    }
}
