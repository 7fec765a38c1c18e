//! The flight recorder: a bounded, shareable ring of causal trace events.
//!
//! One [`Recorder`] instance is shared (via cheap `Arc` clones) by every
//! component that can observe a traced packet: the simulator world, each
//! switch datapath, the controller, and the hosts. All clones see the same
//! ring, the same enable flag, and the same xid bindings, so enabling the
//! recorder after the fabric is built still takes effect everywhere. The
//! handle is `Send`, so datapath-backed nodes can move onto sharded
//! event-loop worker threads; each shard normally owns its own recorder,
//! with the mutex only there for safety, never contention.
//!
//! The recorder is built for two constraints:
//!
//! * **Near-zero cost when disabled.** Every tap point is guarded by
//!   [`Recorder::is_enabled`], a single pointer dereference and one
//!   relaxed atomic load. No trace-ID hashing, no allocation, no lock
//!   acquisition happens on the disabled path.
//! * **Bounded memory.** The event ring holds a fixed number of records
//!   and overwrites the oldest when full (counting what it dropped); the
//!   xid→trace map is capped and evicts its oldest binding.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::json::Line;
use crate::trace::TraceId;

/// Default capacity of the trace ring, in records.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// How many records the ring makes room for at its first record; it
/// grows from there up to its capacity.
const RING_FIRST_ALLOCATION: usize = 4096;

/// Maximum number of in-flight xid→trace bindings retained.
const XID_MAP_CAPACITY: usize = 65_536;

/// Which datapath tier matched a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Exact-match microflow cache hit.
    Micro,
    /// Masked megaflow cache hit.
    Mega,
    /// Full slow-path flow-table walk (cache miss or cache disabled).
    Slow,
}

impl CacheTier {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            CacheTier::Micro => "micro",
            CacheTier::Mega => "mega",
            CacheTier::Slow => "slow",
        }
    }
}

/// One causal event in the life of a traced packet.
///
/// The variants are ordered roughly along the path a reactive flow setup
/// takes: emitted by a host, queued on links, matched (or missed) in a
/// datapath, punted to the controller, dispatched to an app, answered
/// with a flow-mod that is applied and finally acked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A host emitted the probe onto its access link.
    HostEmit {
        /// Simulator node ID of the emitting host.
        node: u32,
    },
    /// The frame was queued for transmission out of a node's port.
    LinkTx {
        /// Simulator node ID transmitting the frame.
        node: u32,
        /// Egress port on that node.
        port: u32,
    },
    /// A datapath classified the frame, at the given cache tier.
    DpMatch {
        /// Datapath ID of the switch.
        dpid: u64,
        /// Which tier produced the match decision.
        tier: CacheTier,
    },
    /// A group action was executed for the frame.
    DpGroup {
        /// Datapath ID of the switch.
        dpid: u64,
        /// Group identifier.
        group_id: u32,
    },
    /// A meter was applied to the frame.
    DpMeter {
        /// Datapath ID of the switch.
        dpid: u64,
        /// Meter identifier.
        meter_id: u32,
        /// Whether the frame passed the meter (false = dropped).
        passed: bool,
    },
    /// The switch punted the frame to the controller as a PACKET_IN.
    Punt {
        /// Datapath ID of the punting switch.
        dpid: u64,
        /// Flow table the punt decision came from.
        table_id: u8,
    },
    /// The controller dispatched the PACKET_IN through its app chain.
    AppDispatch {
        /// Name of the app that claimed the packet, or `"none"`.
        app: &'static str,
        /// Whether any app claimed (consumed) the packet.
        claimed: bool,
    },
    /// The controller sent a flow-mod caused by this trace.
    FlowModSent {
        /// Target datapath.
        dpid: u64,
        /// Transaction ID carried by the mod (links to applied/acked).
        xid: u32,
        /// Cookie stamped on the flow.
        cookie: u64,
    },
    /// The switch agent applied a flow-mod belonging to this trace.
    FlowModApplied {
        /// Datapath that applied the mod.
        dpid: u64,
        /// Transaction ID of the mod.
        xid: u32,
    },
    /// A table-full capacity eviction displaced an installed entry
    /// while a flow-mod belonging to this trace was applied.
    FlowEvicted {
        /// Datapath that evicted the entry.
        dpid: u64,
        /// Table the victim lived in.
        table_id: u8,
        /// The victim's cookie.
        cookie: u64,
    },
    /// The controller saw the barrier ack retiring the flow-mod.
    FlowModAcked {
        /// Datapath that acked.
        dpid: u64,
        /// Transaction ID of the acked mod.
        xid: u32,
    },
    /// The controller released the packet back into the data plane.
    PacketOutSent {
        /// Datapath the packet-out was sent to.
        dpid: u64,
    },
    /// The destination host received and validated the probe.
    HostRecv {
        /// Simulator node ID of the receiving host.
        node: u32,
    },
    /// A controller replica gained or relinquished mastership of a
    /// switch (recorded under the switch's control trace, see
    /// [`crate::trace::control_trace`]).
    MastershipChange {
        /// The switch whose mastership changed.
        dpid: u64,
        /// Replica index of the controller reporting the change.
        replica: u32,
        /// `true` when the replica took mastership, `false` on release.
        gained: bool,
    },
    /// A PACKET_IN was shed by the control-plane self-defense layer —
    /// either at the switch agent's punt meter or by controller-side
    /// admission control — and never reached the app chain.
    PuntShed {
        /// The switch whose punt was shed.
        dpid: u64,
        /// `true` when shed at the agent's punt meter (before the wire);
        /// `false` when shed by controller admission (after the wire).
        at_agent: bool,
    },
    /// Admission control deferred a PACKET_IN into the per-switch fair
    /// queue; it is dispatched later by the drain timer.
    PuntDeferred {
        /// The switch whose punt was deferred.
        dpid: u64,
    },
    /// The controller installed a push-back drop rule pinning an
    /// offending (ingress port, source MAC) at the switch.
    PushbackInstalled {
        /// The switch receiving the drop rule.
        dpid: u64,
        /// The offending ingress port.
        port: u32,
    },
    /// A consistent-update transaction changed phase (staging, flip,
    /// draining, committed, aborted).
    EpochPhase {
        /// The configuration epoch being installed.
        epoch: u64,
        /// The phase entered.
        phase: &'static str,
    },
    /// A replicated intent committed through the consensus log (one
    /// record per replica as each observes the commit).
    IntentCommitted {
        /// Log index of the committed entry.
        index: u64,
        /// Consensus term the entry was appended under.
        term: u64,
        /// Replica that proposed the intent.
        origin: u32,
    },
    /// An east-west snapshot was installed, replacing incremental
    /// repair (fresh bootstrap or chain-hash divergence).
    EwSnapshotInstalled {
        /// Replica that served the snapshot.
        from_replica: u32,
        /// Number of winning entries the snapshot carried.
        entries: u64,
    },
    /// An intent-log snapshot replaced the materialized committed
    /// state wholesale (replica rejoined past the leader's compaction
    /// floor); apps rebuilt rather than patched their derived state.
    IntentSnapshotInstalled {
        /// Number of active entries the snapshot carried.
        entries: u64,
    },
}

impl TraceEvent {
    /// Stable event name used in exports and assertions.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::HostEmit { .. } => "host_emit",
            TraceEvent::LinkTx { .. } => "link_tx",
            TraceEvent::DpMatch { .. } => "dp_match",
            TraceEvent::DpGroup { .. } => "dp_group",
            TraceEvent::DpMeter { .. } => "dp_meter",
            TraceEvent::Punt { .. } => "punt",
            TraceEvent::AppDispatch { .. } => "app_dispatch",
            TraceEvent::FlowModSent { .. } => "flow_mod_sent",
            TraceEvent::FlowModApplied { .. } => "flow_mod_applied",
            TraceEvent::FlowEvicted { .. } => "flow_evicted",
            TraceEvent::FlowModAcked { .. } => "flow_mod_acked",
            TraceEvent::PacketOutSent { .. } => "packet_out_sent",
            TraceEvent::HostRecv { .. } => "host_recv",
            TraceEvent::MastershipChange { .. } => "mastership_change",
            TraceEvent::PuntShed { .. } => "punt_shed",
            TraceEvent::PuntDeferred { .. } => "punt_deferred",
            TraceEvent::PushbackInstalled { .. } => "pushback_installed",
            TraceEvent::EpochPhase { .. } => "epoch_phase",
            TraceEvent::IntentCommitted { .. } => "intent_committed",
            TraceEvent::EwSnapshotInstalled { .. } => "ew_snapshot_installed",
            TraceEvent::IntentSnapshotInstalled { .. } => "intent_snapshot_installed",
        }
    }
}

/// A timestamped trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the event, in nanoseconds since simulation start.
    pub at_nanos: u64,
    /// The trace this event belongs to.
    pub trace: TraceId,
    /// What happened.
    pub event: TraceEvent,
}

/// Per-event-type accounting for the simulator event loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopSpan {
    /// Number of events of this type processed.
    pub count: u64,
    /// Simulated nanoseconds the clock advanced to reach these events.
    pub sim_advance_nanos: u64,
}

#[derive(Debug)]
struct Inner {
    ring: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
    current: Option<TraceId>,
    xids: BTreeMap<u32, TraceId>,
    spans: BTreeMap<&'static str, LoopSpan>,
}

#[derive(Debug)]
struct Shared {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

/// Cheaply-cloneable handle to the shared flight recorder.
///
/// Created disabled; flip on with [`Recorder::set_enabled`]. All clones
/// share state, so a handle captured at fabric-build time observes a later
/// enable.
#[derive(Debug, Clone)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A disabled recorder with the default ring capacity.
    pub fn new() -> Recorder {
        Recorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A disabled recorder whose trace ring holds `capacity` records.
    pub fn with_capacity(capacity: usize) -> Recorder {
        let capacity = capacity.max(1);
        Recorder {
            shared: Arc::new(Shared {
                enabled: AtomicBool::new(false),
                inner: Mutex::new(Inner {
                    ring: VecDeque::new(),
                    capacity,
                    dropped: 0,
                    current: None,
                    xids: BTreeMap::new(),
                    spans: BTreeMap::new(),
                }),
            }),
        }
    }

    /// Lock the interior state, recovering from a poisoned mutex: the
    /// recorder is observability plumbing, so a panic on some other
    /// thread should not cascade into every later tap point.
    fn inner(&self) -> MutexGuard<'_, Inner> {
        match self.shared.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Enable or disable recording. Affects every clone of this handle.
    pub fn set_enabled(&self, on: bool) {
        self.shared.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the recorder is currently capturing events.
    ///
    /// This is the hot-path guard: one `Arc` dereference and one relaxed
    /// atomic load. Callers must check it before doing any per-event work
    /// (hashing, formatting, field extraction).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Append a record to the ring, overwriting the oldest when full.
    /// No-op while disabled.
    pub fn record(&self, at_nanos: u64, trace: TraceId, event: TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner();
        // The ring is allocated by the first record: most recorders are
        // never enabled, and an empty one costs nothing.
        if inner.ring.capacity() == 0 {
            let first = inner.capacity.min(RING_FIRST_ALLOCATION);
            inner.ring.reserve_exact(first);
        }
        if inner.ring.len() == inner.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(TraceRecord {
            at_nanos,
            trace,
            event,
        });
    }

    /// Set the trace the caller is currently processing on behalf of
    /// (e.g. while the controller runs its app chain for a PACKET_IN).
    /// Downstream taps like flow-mod send attach to this trace.
    pub fn begin_trace(&self, trace: Option<TraceId>) {
        if self.is_enabled() {
            self.inner().current = trace;
        }
    }

    /// Clear the current-trace context set by [`Recorder::begin_trace`].
    pub fn end_trace(&self) {
        if self.is_enabled() {
            self.inner().current = None;
        }
    }

    /// The trace set by [`Recorder::begin_trace`], if any.
    pub fn current_trace(&self) -> Option<TraceId> {
        if !self.is_enabled() {
            return None;
        }
        self.inner().current
    }

    /// Remember that protocol transaction `xid` belongs to `trace`, so the
    /// later applied/acked observations can be attributed. The map is
    /// bounded; the oldest binding is evicted past capacity.
    pub fn bind_xid(&self, xid: u32, trace: TraceId) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner();
        if inner.xids.len() >= XID_MAP_CAPACITY && !inner.xids.contains_key(&xid) {
            inner.xids.pop_first();
        }
        inner.xids.insert(xid, trace);
    }

    /// Look up the trace bound to `xid`, keeping the binding (used when a
    /// mod is applied — the ack arrives later).
    pub fn xid_trace(&self, xid: u32) -> Option<TraceId> {
        if !self.is_enabled() {
            return None;
        }
        self.inner().xids.get(&xid).copied()
    }

    /// Look up and remove the binding for `xid` (used at ack time).
    pub fn take_xid(&self, xid: u32) -> Option<TraceId> {
        if !self.is_enabled() {
            return None;
        }
        self.inner().xids.remove(&xid)
    }

    /// Account one simulator event-loop dispatch: `kind` is the event type
    /// name, `sim_advance` how far simulated time jumped to reach the
    /// event.
    pub fn note_loop(&self, kind: &'static str, sim_advance_nanos: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.inner();
        let span = inner.spans.entry(kind).or_default();
        span.count += 1;
        span.sim_advance_nanos += sim_advance_nanos;
    }

    /// Snapshot of the whole trace ring, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.inner().ring.iter().cloned().collect()
    }

    /// All records belonging to `trace`, oldest first.
    pub fn trace_records(&self, trace: TraceId) -> Vec<TraceRecord> {
        self.inner()
            .ring
            .iter()
            .filter(|r| r.trace == trace)
            .cloned()
            .collect()
    }

    /// Number of records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner().dropped
    }

    /// Fold another recorder's event-loop profile into this one, summing
    /// counts and simulated advance per event type. Used to
    /// merge per-shard recorders after a sharded run; a handle sharing
    /// state with `other` is left unchanged.
    pub fn merge_loop_profile(&self, other: &Recorder) {
        if Arc::ptr_eq(&self.shared, &other.shared) {
            return;
        }
        let spans = other.loop_profile();
        let mut inner = self.inner();
        for (kind, span) in spans {
            let merged = inner.spans.entry(kind).or_default();
            merged.count += span.count;
            merged.sim_advance_nanos += span.sim_advance_nanos;
        }
    }

    /// Snapshot of the event-loop profile, keyed by event-type name.
    pub fn loop_profile(&self) -> Vec<(&'static str, LoopSpan)> {
        self.inner().spans.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Serialize the trace ring and the event-loop profile as
    /// deterministic JSON-lines.
    ///
    /// Everything emitted here (event counts, simulated-time accounting,
    /// trace records) is a pure function of the scenario and its seed.
    pub fn write_jsonl(&self, out: &mut String) {
        let inner = self.inner();
        for (kind, span) in &inner.spans {
            Line::new("loop_span")
                .str("event", kind)
                .u64("count", span.count)
                .u64("sim_advance_nanos", span.sim_advance_nanos)
                .finish(out);
        }
        for rec in &inner.ring {
            write_record(rec, out);
        }
        Line::new("trace_ring")
            .u64("len", inner.ring.len() as u64)
            .u64("capacity", inner.capacity as u64)
            .u64("dropped", inner.dropped)
            .finish(out);
    }
}

fn write_record(rec: &TraceRecord, out: &mut String) {
    let line = Line::new("trace")
        .u64("at", rec.at_nanos)
        .str("id", &rec.trace.to_string())
        .str("event", rec.event.name());
    let line = match &rec.event {
        TraceEvent::HostEmit { node } | TraceEvent::HostRecv { node } => {
            line.u64("node", u64::from(*node))
        }
        TraceEvent::LinkTx { node, port } => line
            .u64("node", u64::from(*node))
            .u64("port", u64::from(*port)),
        TraceEvent::DpMatch { dpid, tier } => line.u64("dpid", *dpid).str("tier", tier.name()),
        TraceEvent::DpGroup { dpid, group_id } => {
            line.u64("dpid", *dpid).u64("group", u64::from(*group_id))
        }
        TraceEvent::DpMeter {
            dpid,
            meter_id,
            passed,
        } => line
            .u64("dpid", *dpid)
            .u64("meter", u64::from(*meter_id))
            .bool("passed", *passed),
        TraceEvent::Punt { dpid, table_id } => {
            line.u64("dpid", *dpid).u64("table", u64::from(*table_id))
        }
        TraceEvent::AppDispatch { app, claimed } => line.str("app", app).bool("claimed", *claimed),
        TraceEvent::FlowModSent { dpid, xid, cookie } => line
            .u64("dpid", *dpid)
            .u64("xid", u64::from(*xid))
            .u64("cookie", *cookie),
        TraceEvent::FlowModApplied { dpid, xid } | TraceEvent::FlowModAcked { dpid, xid } => {
            line.u64("dpid", *dpid).u64("xid", u64::from(*xid))
        }
        TraceEvent::FlowEvicted {
            dpid,
            table_id,
            cookie,
        } => line
            .u64("dpid", *dpid)
            .u64("table", u64::from(*table_id))
            .u64("cookie", *cookie),
        TraceEvent::PacketOutSent { dpid } => line.u64("dpid", *dpid),
        TraceEvent::MastershipChange {
            dpid,
            replica,
            gained,
        } => line
            .u64("dpid", *dpid)
            .u64("replica", u64::from(*replica))
            .bool("gained", *gained),
        TraceEvent::PuntShed { dpid, at_agent } => {
            line.u64("dpid", *dpid).bool("at_agent", *at_agent)
        }
        TraceEvent::PuntDeferred { dpid } => line.u64("dpid", *dpid),
        TraceEvent::PushbackInstalled { dpid, port } => {
            line.u64("dpid", *dpid).u64("port", u64::from(*port))
        }
        TraceEvent::EpochPhase { epoch, phase } => line.u64("epoch", *epoch).str("phase", phase),
        TraceEvent::IntentCommitted {
            index,
            term,
            origin,
        } => line
            .u64("index", *index)
            .u64("term", *term)
            .u64("origin", u64::from(*origin)),
        TraceEvent::EwSnapshotInstalled {
            from_replica,
            entries,
        } => line
            .u64("from", u64::from(*from_replica))
            .u64("entries", *entries),
        TraceEvent::IntentSnapshotInstalled { entries } => line.u64("entries", *entries),
    };
    line.finish(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(n: u64) -> TraceId {
        TraceId(n)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new();
        r.record(1, tid(1), TraceEvent::HostEmit { node: 0 });
        r.bind_xid(1, tid(1));
        r.note_loop("packet", 10);
        assert!(r.records().is_empty());
        assert_eq!(r.xid_trace(1), None);
        assert!(r.loop_profile().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let r = Recorder::with_capacity(2);
        r.set_enabled(true);
        for i in 0..5u64 {
            r.record(i, tid(i), TraceEvent::HostEmit { node: 0 });
        }
        let recs = r.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].at_nanos, 3);
        assert_eq!(recs[1].at_nanos, 4);
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn clones_share_state() {
        let a = Recorder::new();
        let b = a.clone();
        a.set_enabled(true);
        assert!(b.is_enabled());
        b.record(
            5,
            tid(9),
            TraceEvent::Punt {
                dpid: 1,
                table_id: 0,
            },
        );
        assert_eq!(a.records().len(), 1);
    }

    #[test]
    fn xid_bindings_peek_and_take() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.bind_xid(42, tid(7));
        assert_eq!(r.xid_trace(42), Some(tid(7)));
        assert_eq!(r.take_xid(42), Some(tid(7)));
        assert_eq!(r.take_xid(42), None);
    }

    #[test]
    fn trace_records_filters_by_id() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.record(1, tid(1), TraceEvent::HostEmit { node: 0 });
        r.record(2, tid(2), TraceEvent::HostEmit { node: 1 });
        r.record(3, tid(1), TraceEvent::HostRecv { node: 2 });
        let one = r.trace_records(tid(1));
        assert_eq!(one.len(), 2);
        assert_eq!(one[1].event, TraceEvent::HostRecv { node: 2 });
    }

    #[test]
    fn export_shape_is_stable() {
        let r = Recorder::with_capacity(8);
        r.set_enabled(true);
        r.note_loop("packet", 50);
        r.record(
            7,
            tid(0xabcd),
            TraceEvent::DpMatch {
                dpid: 3,
                tier: CacheTier::Mega,
            },
        );
        let mut out = String::new();
        r.write_jsonl(&mut out);
        assert_eq!(
            out,
            concat!(
                "{\"type\":\"loop_span\",\"event\":\"packet\",\"count\":1,\"sim_advance_nanos\":50}\n",
                "{\"type\":\"trace\",\"at\":7,\"id\":\"000000000000abcd\",\"event\":\"dp_match\",\"dpid\":3,\"tier\":\"mega\"}\n",
                "{\"type\":\"trace_ring\",\"len\":1,\"capacity\":8,\"dropped\":0}\n",
            )
        );
    }
}
