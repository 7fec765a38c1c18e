//! Spans around `Node` callbacks, recorded from outside the program.
//!
//! In the traced run every node is boxed in [`Spanned`], which times
//! each callback and charges it the allocations the counting allocator
//! saw meanwhile. The event loop dispatches one callback at a time, so
//! spans never nest: a layer's self time is its span, and what the loop
//! spends outside every span is `zen-sim`'s own time.
//!
//! Spans aggregate per (layer, callback). A sample of full records is
//! kept for the trace file: every span of one datagram in 1 024 (chosen
//! by trace id, so the hops of a sampled datagram share it) and one in
//! 1 024 of the spans that carry no probe.

use std::any::Any;
use std::cell::RefCell;
use std::time::Instant;

use zen_sim::{Context, Node, NodeId, PortNo};
use zen_telemetry::json::Line;
use zen_telemetry::trace_id_for_frame;

use crate::alloc;

/// The layer a wrapped node belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Host = 0,
    Agent = 1,
    Controller = 2,
    Cbench = 3,
}

pub const LAYERS: [Layer; 4] = [Layer::Host, Layer::Agent, Layer::Controller, Layer::Cbench];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Host => "host",
            Layer::Agent => "agent",
            Layer::Controller => "controller",
            Layer::Cbench => "cbench",
        }
    }
}

/// The `Node` callback a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    Start = 0,
    Packet = 1,
    Timer = 2,
    Control = 3,
    LinkStatus = 4,
}

pub const CALLBACKS: [Callback; 5] = [
    Callback::Start,
    Callback::Packet,
    Callback::Timer,
    Callback::Control,
    Callback::LinkStatus,
];

impl Callback {
    pub fn name(self) -> &'static str {
        match self {
            Callback::Start => "on_start",
            Callback::Packet => "on_packet",
            Callback::Timer => "on_timer",
            Callback::Control => "on_control",
            Callback::LinkStatus => "on_link_status",
        }
    }
}

/// Totals for one (layer, callback).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanAgg {
    pub calls: u64,
    pub ns: u64,
    pub allocs: u64,
    pub bytes: u64,
}

impl SpanAgg {
    fn add(&mut self, other: &SpanAgg) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.allocs += other.allocs;
        self.bytes += other.bytes;
    }
}

/// One sampled span, kept whole for the trace file.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub layer: Layer,
    pub callback: Callback,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
    /// The datagram's trace id (0 when the span carries no probe).
    pub trace_id: u64,
}

/// How many full records the trace file may hold.
const SAMPLE_CAP: usize = 1 << 16;

/// Everything a traced repetition recorded.
pub struct Trace {
    epoch: Instant,
    agg: [[SpanAgg; 5]; 4],
    unsampled_seen: u64,
    pub samples: Vec<SpanRecord>,
}

impl Trace {
    fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            agg: [[SpanAgg::default(); 5]; 4],
            unsampled_seen: 0,
            // Reserved up front so the tracer's own bookkeeping never
            // allocates inside the timed section.
            samples: Vec::with_capacity(SAMPLE_CAP),
        }
    }

    pub fn get(&self, layer: Layer, callback: Callback) -> SpanAgg {
        self.agg[layer as usize][callback as usize]
    }

    /// Totals over every callback of `layer`.
    pub fn layer(&self, layer: Layer) -> SpanAgg {
        let mut total = SpanAgg::default();
        for agg in &self.agg[layer as usize] {
            total.add(agg);
        }
        total
    }

    /// Totals over every span.
    pub fn all(&self) -> SpanAgg {
        let mut total = SpanAgg::default();
        for layer in LAYERS {
            total.add(&self.layer(layer));
        }
        total
    }

    /// Clear what the set-up phase recorded, so the aggregates cover
    /// the timed section only.
    fn reset(&mut self) {
        *self = Trace::new();
    }

    /// The trace file: one line per (layer, callback) aggregate, then
    /// the sampled records.
    pub fn write_jsonl(&self, workload: &str, out: &mut String) {
        for layer in LAYERS {
            for callback in CALLBACKS {
                let agg = self.get(layer, callback);
                if agg.calls == 0 {
                    continue;
                }
                Line::new("span_total")
                    .str("workload", workload)
                    .str("layer", layer.name())
                    .str("callback", callback.name())
                    .u64("calls", agg.calls)
                    .u64("ns", agg.ns)
                    .u64("allocs", agg.allocs)
                    .u64("bytes", agg.bytes)
                    .finish(out);
            }
        }
        for rec in &self.samples {
            Line::new("span")
                .str("workload", workload)
                .str("layer", rec.layer.name())
                .str("callback", rec.callback.name())
                .u64("start_ns", rec.start_ns)
                .u64("end_ns", rec.end_ns)
                .u64("allocs", rec.allocs)
                .u64("bytes", rec.bytes)
                .str("trace_id", &format!("{:016x}", rec.trace_id))
                .finish(out);
        }
    }
}

thread_local! {
    // The `World` loop is single-threaded, so the trace it feeds is too.
    static TRACE: RefCell<Option<Trace>> = const { RefCell::new(None) };
}

/// Begin recording on this thread (allocation counting included).
pub fn begin() {
    TRACE.with(|t| *t.borrow_mut() = Some(Trace::new()));
    alloc::set_counting(true);
}

/// Drop what was recorded so far; called where the timed section starts.
pub fn reset() {
    TRACE.with(|t| {
        if let Some(trace) = t.borrow_mut().as_mut() {
            trace.reset();
        }
    });
}

/// Stop recording and hand back the trace.
pub fn end() -> Option<Trace> {
    alloc::set_counting(false);
    TRACE.with(|t| t.borrow_mut().take())
}

struct Open {
    at: Instant,
    allocs: u64,
    bytes: u64,
}

#[inline]
fn open() -> Open {
    let (allocs, bytes) = alloc::snapshot();
    Open {
        at: Instant::now(),
        allocs,
        bytes,
    }
}

#[inline]
fn close(open: Open, layer: Layer, callback: Callback, frame: Option<&[u8]>) {
    let end = Instant::now();
    let (allocs, bytes) = alloc::snapshot();
    TRACE.with(|t| {
        let mut slot = t.borrow_mut();
        let Some(trace) = slot.as_mut() else {
            return;
        };
        let agg = &mut trace.agg[layer as usize][callback as usize];
        let ns = end.duration_since(open.at).as_nanos() as u64;
        agg.calls += 1;
        agg.ns += ns;
        agg.allocs += allocs - open.allocs;
        agg.bytes += bytes - open.bytes;

        let trace_id = frame.and_then(trace_id_for_frame).map(|id| id.0);
        let sampled = match trace_id {
            Some(id) => id.is_multiple_of(1024),
            None => {
                trace.unsampled_seen += 1;
                trace.unsampled_seen.is_multiple_of(1024)
            }
        };
        if sampled && trace.samples.len() < SAMPLE_CAP {
            let start_ns = open.at.duration_since(trace.epoch).as_nanos() as u64;
            trace.samples.push(SpanRecord {
                layer,
                callback,
                start_ns,
                end_ns: start_ns + ns,
                allocs: allocs - open.allocs,
                bytes: bytes - open.bytes,
                trace_id: trace_id.unwrap_or(0),
            });
        }
    });
}

/// A node wrapped so that each of its callbacks records a span.
///
/// Downcasts go to the inner node, so `World::node_as::<Controller>`
/// and friends work on a traced world exactly as on an untraced one.
pub struct Spanned<N> {
    inner: N,
    layer: Layer,
}

impl<N: Node> Node for Spanned<N> {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let span = open();
        self.inner.on_start(ctx);
        close(span, self.layer, Callback::Start, None);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortNo, frame: &[u8]) {
        let span = open();
        self.inner.on_packet(ctx, port, frame);
        close(span, self.layer, Callback::Packet, Some(frame));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let span = open();
        self.inner.on_timer(ctx, token);
        close(span, self.layer, Callback::Timer, None);
    }

    fn on_control(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
        let span = open();
        self.inner.on_control(ctx, from, bytes);
        close(span, self.layer, Callback::Control, None);
    }

    fn on_link_status(&mut self, ctx: &mut Context<'_>, port: PortNo, up: bool) {
        let span = open();
        self.inner.on_link_status(ctx, port, up);
        close(span, self.layer, Callback::LinkStatus, None);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Box `node` for `World::add_node`, wrapped in a span recorder when
/// `trace` is set.
pub fn boxed<N: Node>(node: N, layer: Layer, trace: bool) -> Box<dyn Node> {
    if trace {
        Box::new(Spanned { inner: node, layer })
    } else {
        Box::new(node)
    }
}
