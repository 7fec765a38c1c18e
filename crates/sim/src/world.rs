//! The discrete-event simulation core: nodes, links, events, and the
//! world that schedules them.
//!
//! # Model
//!
//! A [`World`] owns a set of [`Node`]s connected by point-to-point
//! [`Link`]s. Each link direction models a work-conserving FIFO egress
//! queue: a frame sent at time *t* begins serialization at
//! `max(t, busy_until)`, occupies the line for `len * 8 / rate`, and
//! arrives `latency` after serialization completes. Frames that would
//! overflow the configured queue depth are dropped, as are frames sent
//! onto administratively-down links.
//!
//! Control-plane traffic (switch ↔ controller) travels out-of-band via
//! [`Context::send_control`], modelling a dedicated management network
//! with configurable latency — the common deployment for SDN controllers.
//!
//! # Determinism
//!
//! Execution is a pure function of the initial configuration and the RNG
//! seed: the event queue breaks time ties by sequence number, and every
//! internal collection whose iteration order can influence event creation
//! is ordered (a `BTreeMap` or a sorted `Vec`).

use std::any::Any;

use zen_telemetry::{trace_id_for_frame, Recorder, TraceEvent};

use crate::fault::FaultPlan;
use crate::ports::PortTable;
use crate::queue::EventQueue;
use crate::rng::Rng;
use crate::stats::{CounterId, Metrics};
use crate::time::{queued_bytes, transmission_time, Duration, Instant};

/// Identifies a node in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A port number on a node. Port numbers start at 1; 0 is reserved.
pub type PortNo = u32;

/// Identifies a link in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// Static link characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkParams {
    /// One-way propagation delay.
    pub latency: Duration,
    /// Line rate in bits per second. `0` means infinite (no serialization
    /// delay, no queueing).
    pub bandwidth_bps: u64,
    /// Egress queue capacity in bytes (per direction). Ignored when
    /// `bandwidth_bps == 0`.
    pub queue_bytes: usize,
}

impl Default for LinkParams {
    fn default() -> LinkParams {
        LinkParams {
            latency: Duration::from_micros(10),
            bandwidth_bps: 1_000_000_000,
            queue_bytes: 512 * 1024,
        }
    }
}

impl LinkParams {
    /// A convenience constructor.
    pub fn new(latency: Duration, bandwidth_bps: u64, queue_bytes: usize) -> LinkParams {
        LinkParams {
            latency,
            bandwidth_bps,
            queue_bytes,
        }
    }

    /// Infinite-capacity link with the given latency (useful for control
    /// or abstract topologies).
    pub fn instant(latency: Duration) -> LinkParams {
        LinkParams {
            latency,
            bandwidth_bps: 0,
            queue_bytes: 0,
        }
    }
}

/// Per-direction dynamic link state and counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkDirStats {
    /// When the line becomes free.
    busy_until: Instant,
    /// Bytes successfully serialized onto the line.
    pub tx_bytes: u64,
    /// Frames successfully serialized onto the line.
    pub tx_frames: u64,
    /// Frames dropped due to queue overflow.
    pub drops_queue: u64,
    /// Frames dropped because the link was down.
    pub drops_down: u64,
}

/// A bidirectional point-to-point link.
#[derive(Debug)]
pub struct Link {
    /// Endpoint A as (node, port).
    pub a: (NodeId, PortNo),
    /// Endpoint B as (node, port).
    pub b: (NodeId, PortNo),
    /// Static characteristics.
    pub params: LinkParams,
    /// Administrative + operational state.
    pub up: bool,
    /// Counters for the A→B direction.
    pub ab: LinkDirStats,
    /// Counters for the B→A direction.
    pub ba: LinkDirStats,
}

/// The behaviour of a simulated node.
///
/// Implementations also provide `as_any` so tests and harnesses can
/// downcast a node back to its concrete type after a run.
pub trait Node: 'static {
    /// Called once when the simulation starts (or when the node is added
    /// to an already-running world).
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// A frame arrived on `port`.
    fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortNo, frame: &[u8]);

    /// A timer set via [`Context::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: u64) {}

    /// An out-of-band control message arrived.
    fn on_control(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _bytes: &[u8]) {}

    /// A local port changed operational state.
    fn on_link_status(&mut self, _ctx: &mut Context<'_>, _port: PortNo, _up: bool) {}

    /// Downcast support.
    fn as_any(&self) -> &dyn Any;

    /// Downcast support (mutable).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[derive(Debug)]
enum EventKind {
    Start,
    Packet {
        port: PortNo,
        frame: Vec<u8>,
    },
    Timer {
        token: u64,
    },
    Control {
        from: NodeId,
        bytes: Vec<u8>,
    },
    LinkStatus {
        port: PortNo,
        up: bool,
    },
    AdminLink {
        link: LinkId,
        up: bool,
        notify: bool,
    },
}

impl EventKind {
    /// Stable name used for event-loop span accounting.
    fn name(&self) -> &'static str {
        match self {
            EventKind::Start => "start",
            EventKind::Packet { .. } => "packet",
            EventKind::Timer { .. } => "timer",
            EventKind::Control { .. } => "control",
            EventKind::LinkStatus { .. } => "link_status",
            EventKind::AdminLink { .. } => "admin_link",
        }
    }
}

/// What the queue holds for an instant: the queue itself keeps the
/// time and the push order.
#[derive(Debug)]
struct Event {
    node: NodeId,
    kind: EventKind,
}

/// Typed handles to the simulator's own counters, registered once at
/// world construction so the hot paths never do string lookups.
struct SimCounters {
    tx_no_link: CounterId,
    tx_frames: CounterId,
    tx_bytes: CounterId,
    drops_down: CounterId,
    drops_queue: CounterId,
    drops_in_flight: CounterId,
    control_msgs: CounterId,
    control_bytes: CounterId,
    fault_data_dropped: CounterId,
    fault_control_partitioned: CounterId,
    fault_control_dropped: CounterId,
    fault_control_duplicated: CounterId,
}

impl SimCounters {
    fn register(m: &mut Metrics) -> SimCounters {
        SimCounters {
            tx_no_link: m.register_counter("sim.tx_no_link"),
            tx_frames: m.register_counter("sim.tx_frames"),
            tx_bytes: m.register_counter("sim.tx_bytes"),
            drops_down: m.register_counter("sim.drops_down"),
            drops_queue: m.register_counter("sim.drops_queue"),
            drops_in_flight: m.register_counter("sim.drops_in_flight"),
            control_msgs: m.register_counter("sim.control_msgs"),
            control_bytes: m.register_counter("sim.control_bytes"),
            fault_data_dropped: m.register_counter("fault.data_dropped"),
            fault_control_partitioned: m.register_counter("fault.control_partitioned"),
            fault_control_dropped: m.register_counter("fault.control_dropped"),
            fault_control_duplicated: m.register_counter("fault.control_duplicated"),
        }
    }
}

/// Everything a node may touch while handling an event.
struct CoreState {
    now: Instant,
    queue: EventQueue<Event>,
    links: Vec<Link>,
    ports: PortTable,
    /// Next free port number per node.
    next_port: Vec<PortNo>,
    rng: Rng,
    metrics: Metrics,
    ids: SimCounters,
    recorder: Recorder,
    control_latency: Duration,
    control_jitter: Duration,
    faults: FaultPlan,
    events_processed: u64,
    /// Control writes buffered during the event currently dispatching,
    /// sorted by (destination, delivery latency in ns). Flushed at the
    /// end of the dispatch as one concatenated Control event per slot,
    /// in that order — the write coalescing a stream socket gives
    /// back-to-back sends. Fault-duplicated copies bypass the buffer
    /// (each is its own delivery, so duplicates can still reorder under
    /// jitter).
    pending_control: Vec<ControlSlot>,
    /// Where in `pending_control` the last write went. A handler writes
    /// in runs to one peer (a program load, a discovery round), so the
    /// next write is looked for there before the key is searched.
    last_slot: usize,
    /// Emptied buffers of delivered Control events, for new slots to
    /// draw from: at most [`FREE_BUFFERS`], none above
    /// [`PREFILL_BUFFER_BYTES`] of capacity.
    free_buffers: Vec<Vec<u8>>,
}

/// The writes one handler made to `to` that drew `latency_ns`.
struct ControlSlot {
    to: NodeId,
    latency_ns: u64,
    from: NodeId,
    bytes: Vec<u8>,
}

/// The capacity a slot starts with when the free list is empty: room
/// for a few typical messages, so the first ones do not regrow it.
const FRESH_BUFFER_BYTES: usize = 256;
/// How many spent control buffers the world keeps for reuse.
const FREE_BUFFERS: usize = 64;
/// The capacity of each buffer the free list starts with, and the
/// largest it keeps: about one batch of replies a controller app writes
/// back to one delivered burst of punts. Starting the list full at this
/// size makes a run's allocations after set-up independent of how much
/// control traffic set-up happened to make; keeping none larger means a
/// burst (a program load) does not pin its grown buffers for the rest
/// of the run, whichever order their deliveries hand them back in.
const PREFILL_BUFFER_BYTES: usize = 2 * 1024;

impl CoreState {
    fn push(&mut self, at: Instant, node: NodeId, kind: EventKind) {
        self.queue.push(at, Event { node, kind });
    }

    /// Deliver the control writes buffered during the event just
    /// handled: one concatenated Control event per (destination,
    /// latency) key, in deterministic key order.
    fn flush_control(&mut self) {
        if self.pending_control.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending_control);
        for slot in pending.drain(..) {
            let at = self.now + Duration::from_nanos(slot.latency_ns);
            let (from, bytes) = (slot.from, slot.bytes);
            self.push(at, slot.to, EventKind::Control { from, bytes });
        }
        self.pending_control = pending;
    }

    /// The buffer coalescing this handler's writes to `to` at
    /// `latency_ns`, created (from the free list) on first use.
    fn control_slot(&mut self, from: NodeId, to: NodeId, latency_ns: u64) -> &mut Vec<u8> {
        let key = (to, latency_ns);
        let slot_key = |s: &ControlSlot| (s.to, s.latency_ns);
        let found = match self.pending_control.get(self.last_slot) {
            Some(last) if slot_key(last) == key => Ok(self.last_slot),
            _ => self.pending_control.binary_search_by_key(&key, slot_key),
        };
        let at = match found {
            Ok(at) => at,
            Err(at) => {
                let bytes = self
                    .free_buffers
                    .pop()
                    .unwrap_or_else(|| Vec::with_capacity(FRESH_BUFFER_BYTES));
                self.pending_control.insert(
                    at,
                    ControlSlot {
                        to,
                        latency_ns,
                        from,
                        bytes,
                    },
                );
                at
            }
        };
        self.last_slot = at;
        &mut self.pending_control[at].bytes
    }

    /// Keep a delivered Control event's buffer for reuse, within the
    /// free list's bounds.
    fn recycle(&mut self, mut bytes: Vec<u8>) {
        if self.free_buffers.len() < FREE_BUFFERS && bytes.capacity() <= PREFILL_BUFFER_BYTES {
            bytes.clear();
            self.free_buffers.push(bytes);
        }
    }

    fn transmit(&mut self, from: NodeId, port: PortNo, frame: Vec<u8>) {
        let Some(link_id) = self.ports.link(from, port) else {
            self.metrics.incr(self.ids.tx_no_link);
            return;
        };
        // Fault plan: lossy links. Checked before queueing, so a dropped
        // frame consumes no line time (loss at the ingress transceiver).
        if !self.faults.is_empty() && self.links[link_id.0 as usize].up {
            let p = self.faults.link_loss_prob(link_id, self.now);
            if p > 0.0 && self.rng.gen_bool(p) {
                self.metrics.incr(self.ids.fault_data_dropped);
                return;
            }
        }
        let link = &mut self.links[link_id.0 as usize];
        if !link.up {
            let dir = if link.a == (from, port) {
                &mut link.ab
            } else {
                &mut link.ba
            };
            dir.drops_down += 1;
            self.metrics.incr(self.ids.drops_down);
            return;
        }
        let (dst, dir) = if link.a == (from, port) {
            (link.b, &mut link.ab)
        } else {
            (link.a, &mut link.ba)
        };
        let params = link.params;
        let arrival = if params.bandwidth_bps == 0 {
            self.now + params.latency
        } else {
            // Backlog currently waiting in the egress queue, in bytes.
            let backlog = dir.busy_until.duration_since(self.now);
            let backlog_bytes = queued_bytes(backlog, params.bandwidth_bps);
            if backlog_bytes + frame.len() > params.queue_bytes {
                dir.drops_queue += 1;
                self.metrics.incr(self.ids.drops_queue);
                return;
            }
            let tx_start = dir.busy_until.max(self.now);
            let tx_end = tx_start + transmission_time(frame.len(), params.bandwidth_bps);
            dir.busy_until = tx_end;
            tx_end + params.latency
        };
        dir.tx_bytes += frame.len() as u64;
        dir.tx_frames += 1;
        self.metrics.incr(self.ids.tx_frames);
        self.metrics.add(self.ids.tx_bytes, frame.len() as u64);
        if self.recorder.is_enabled() {
            if let Some(tid) = trace_id_for_frame(&frame) {
                self.recorder.record(
                    self.now.as_nanos(),
                    tid,
                    TraceEvent::LinkTx { node: from.0, port },
                );
            }
        }
        self.push(arrival, dst.0, EventKind::Packet { port: dst.1, frame });
    }

    /// Whether `port` of `node` is wired to a link that is up.
    fn link_up(&self, node: NodeId, port: PortNo) -> bool {
        let link = self.ports.link(node, port);
        link.is_some_and(|l| self.links[l.0 as usize].up)
    }
}

/// The mutable environment passed to node callbacks.
pub struct Context<'a> {
    /// This node's id.
    pub self_id: NodeId,
    core: &'a mut CoreState,
}

impl Context<'_> {
    /// The current simulated time.
    pub fn now(&self) -> Instant {
        self.core.now
    }

    /// Send a frame out of a local port. The frame is queued on the
    /// attached link (or dropped if the queue is full or the link down).
    pub fn transmit(&mut self, port: PortNo, frame: Vec<u8>) {
        let id = self.self_id;
        self.core.transmit(id, port, frame);
    }

    /// Schedule [`Node::on_timer`] with `token` after `delay`.
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        let at = self.core.now + delay;
        let id = self.self_id;
        self.core.push(at, id, EventKind::Timer { token });
    }

    /// Send an out-of-band control message to another node.
    ///
    /// A shim over [`Context::send_control_with`] for callers that
    /// already hold the bytes.
    pub fn send_control(&mut self, to: NodeId, bytes: Vec<u8>) {
        self.send_control_with(to, |buf| buf.extend_from_slice(&bytes));
    }

    /// Send an out-of-band control message to another node, written in
    /// place: `write` appends the message to the channel's own buffer
    /// (which may already hold earlier messages — append only). A
    /// message the fault plan partitions or loses is never written.
    ///
    /// Messages sent to the same peer while handling a single event are
    /// *coalesced*: all writes that drew the same delivery latency
    /// arrive as one concatenated `on_control` delivery, the way a
    /// stream socket batches back-to-back writes. Receivers must
    /// loop-decode (every protocol endpoint in this workspace does).
    /// Fault draws (loss, duplication) still happen per logical
    /// message, in a fixed order every fixed-seed replay depends on:
    /// partition check, loss draw, duplication draw, one jitter draw
    /// per duplicate, then the primary's.
    ///
    /// When control jitter is configured (see
    /// [`World::set_control_jitter`]) each message independently draws a
    /// uniform extra delay, so messages may be *reordered* — the
    /// asynchronous-update fault model of the congestion-free-update
    /// literature.
    pub fn send_control_with(&mut self, to: NodeId, write: impl FnOnce(&mut Vec<u8>)) {
        let from = self.self_id;
        let core = &mut *self.core;
        let mut duplicate = false;
        if !core.faults.is_empty() {
            let now = core.now;
            if core.faults.is_partitioned(from, to, now) {
                core.metrics.incr(core.ids.fault_control_partitioned);
                return;
            }
            let loss = core.faults.control_loss_prob(from, to, now);
            if loss > 0.0 && core.rng.gen_bool(loss) {
                core.metrics.incr(core.ids.fault_control_dropped);
                return;
            }
            let dup = core.faults.control_dup_prob(from, to, now);
            if dup > 0.0 && core.rng.gen_bool(dup) {
                core.metrics.incr(core.ids.fault_control_duplicated);
                duplicate = true;
            }
        }
        let draw_latency = |core: &mut CoreState| {
            let mut latency = core.control_latency;
            let jitter = core.control_jitter.as_nanos();
            if jitter > 0 {
                // Each copy draws its own jitter, so duplicates reorder.
                latency += Duration::from_nanos(core.rng.gen_range(jitter));
            }
            latency
        };
        let duplicate_latency = duplicate.then(|| draw_latency(core));
        // Primary copy: coalesced with every other write this handler
        // makes to `to` at the same latency; delivered as one Control
        // event when the handler returns.
        let latency = draw_latency(core);
        let slot = core.control_slot(from, to, latency.as_nanos());
        let start = slot.len();
        write(slot);
        debug_assert!(slot.len() >= start, "control writers only append");
        let written = &slot[start..];
        let len = written.len() as u64;
        // A fault-duplicated copy is its own delivery.
        let copy = duplicate_latency.map(|latency| (latency, written.to_vec()));
        core.metrics.incr(core.ids.control_msgs);
        core.metrics.add(core.ids.control_bytes, len);
        if let Some((latency, bytes)) = copy {
            core.push(core.now + latency, to, EventKind::Control { from, bytes });
        }
    }

    /// This node's ports, in ascending order.
    pub fn ports(&self) -> Vec<PortNo> {
        self.core.ports.ports(self.self_id)
    }

    /// Whether the link on `port` is up. `false` for unknown ports.
    pub fn port_up(&self, port: PortNo) -> bool {
        self.core.link_up(self.self_id, port)
    }

    /// The neighbour `(node, port)` on the other end of `port`, if any.
    /// This is *ground truth* for harnesses; protocol code should discover
    /// neighbours with LLDP or hellos instead.
    pub fn peer_of(&self, port: PortNo) -> Option<(NodeId, PortNo)> {
        let id = self.self_id;
        let link_id = self.core.ports.link(id, port)?;
        let link = &self.core.links[link_id.0 as usize];
        Some(if link.a == (id, port) { link.b } else { link.a })
    }

    /// The deterministic RNG.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.core.rng
    }

    /// Global metrics registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// The world's shared flight recorder. Tap points must guard per-event
    /// work behind [`Recorder::is_enabled`].
    pub fn recorder(&self) -> &Recorder {
        &self.core.recorder
    }
}

/// The simulation world: nodes, links, and the event queue.
pub struct World {
    nodes: Vec<Option<Box<dyn Node>>>,
    core: CoreState,
    started: bool,
}

impl World {
    /// Create an empty world with the given RNG seed.
    pub fn new(seed: u64) -> World {
        let mut metrics = Metrics::new();
        let ids = SimCounters::register(&mut metrics);
        World {
            nodes: Vec::new(),
            core: CoreState {
                now: Instant::ZERO,
                queue: EventQueue::new(),
                links: Vec::new(),
                ports: PortTable::default(),
                next_port: Vec::new(),
                rng: Rng::new(seed),
                metrics,
                ids,
                recorder: Recorder::new(),
                control_latency: Duration::from_micros(50),
                control_jitter: Duration::ZERO,
                faults: FaultPlan::default(),
                events_processed: 0,
                pending_control: Vec::new(),
                last_slot: 0,
                free_buffers: (0..FREE_BUFFERS)
                    .map(|_| Vec::with_capacity(PREFILL_BUFFER_BYTES))
                    .collect(),
            },
            started: false,
        }
    }

    /// Add a node; returns its id. `on_start` is scheduled at the current
    /// simulated time.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(node));
        self.core.next_port.push(1);
        self.core.push(self.core.now, id, EventKind::Start);
        id
    }

    /// Connect two nodes with a new link, auto-assigning the next free
    /// port on each. Returns `(link, port_on_a, port_on_b)`.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        params: LinkParams,
    ) -> (LinkId, PortNo, PortNo) {
        let pa = self.core.next_port[a.0 as usize];
        self.core.next_port[a.0 as usize] += 1;
        let pb = self.core.next_port[b.0 as usize];
        self.core.next_port[b.0 as usize] += 1;
        let link = self.connect_ports(a, pa, b, pb, params);
        (link, pa, pb)
    }

    /// Connect two nodes on explicit port numbers.
    ///
    /// # Panics
    /// Panics if either port is 0 or already connected.
    pub fn connect_ports(
        &mut self,
        a: NodeId,
        pa: PortNo,
        b: NodeId,
        pb: PortNo,
        params: LinkParams,
    ) -> LinkId {
        assert!(pa != 0 && pb != 0, "port 0 is reserved");
        let id = LinkId(self.core.links.len() as u32);
        // Panics on a port that is already connected.
        self.core.ports.wire(a, pa, id);
        self.core.ports.wire(b, pb, id);
        self.core.links.push(Link {
            a: (a, pa),
            b: (b, pb),
            params,
            up: true,
            ab: LinkDirStats::default(),
            ba: LinkDirStats::default(),
        });
        self.core.next_port[a.0 as usize] =
            self.core.next_port[a.0 as usize].max(pa.saturating_add(1));
        self.core.next_port[b.0 as usize] =
            self.core.next_port[b.0 as usize].max(pb.saturating_add(1));
        id
    }

    /// Schedule an administrative link state change at time `at`. Both
    /// endpoints receive `on_link_status` when it takes effect. An `at`
    /// already in the past means now.
    pub fn schedule_link_state(&mut self, link: LinkId, up: bool, at: Instant) {
        self.push_admin_link(link, up, true, at);
    }

    /// Schedule a *silent* link failure (or repair) at time `at`: frames
    /// are dropped but neither endpoint gets a carrier notification —
    /// the fault model of a wedged middlebox or unidirectional fiber
    /// break, which only protocol-level liveness (hellos, LLDP, dead
    /// intervals) can detect.
    pub fn schedule_link_state_silent(&mut self, link: LinkId, up: bool, at: Instant) {
        self.push_admin_link(link, up, false, at);
    }

    fn push_admin_link(&mut self, link: LinkId, up: bool, notify: bool, at: Instant) {
        // The one push whose time a caller names: clamped, so that no
        // event is ever due before `now` and the clock cannot run
        // backwards. Delivered to node 0 as a placeholder; AdminLink is
        // handled by the core, not a node.
        let at = at.max(self.core.now);
        let kind = EventKind::AdminLink { link, up, notify };
        self.core.push(at, NodeId(0), kind);
    }

    /// Immediately set a link's administrative state (before or between
    /// runs). Endpoint notifications are delivered at the current time.
    pub fn set_link_state(&mut self, link: LinkId, up: bool) {
        self.schedule_link_state(link, up, self.core.now);
    }

    /// Set the out-of-band control-channel latency.
    pub fn set_control_latency(&mut self, latency: Duration) {
        self.core.control_latency = latency;
    }

    /// Install a fault plan; subsequent control sends and data-plane
    /// transmissions consult it. Replaces any previous plan. Combined
    /// with a fixed seed this makes chaos runs replayable: the same
    /// plan + seed reproduces the identical event trace.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.core.faults = plan;
    }

    /// Add uniform random per-message control-channel jitter in
    /// `[0, jitter)`. Nonzero jitter means control messages can be
    /// **reordered in flight** — switches apply updates at unpredictable
    /// relative times, the fault model consistency-aware update schemes
    /// (zUpdate, SWAN) are built for.
    pub fn set_control_jitter(&mut self, jitter: Duration) {
        self.core.control_jitter = jitter;
    }

    /// The current simulated time.
    pub fn now(&self) -> Instant {
        self.core.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Global metrics (packet counts, drops, control-channel totals, plus
    /// anything nodes record).
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Global metrics, mutably (for harnesses querying histograms).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// The world's shared flight recorder. Disabled by default; enable
    /// with `world.recorder().set_enabled(true)`. Components that hold a
    /// clone (datapaths, controller, hosts) observe the shared state, so
    /// enabling after the fabric is built still takes effect everywhere.
    pub fn recorder(&self) -> &Recorder {
        &self.core.recorder
    }

    /// Inspect a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.core.links[id.0 as usize]
    }

    /// Iterate all links.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.core
            .links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }

    /// Downcast a node to a concrete type.
    ///
    /// # Panics
    /// Panics if the node does not exist or has a different type.
    pub fn node_as<T: Node>(&self, id: NodeId) -> &T {
        self.nodes[id.0 as usize]
            .as_ref()
            .expect("node is being dispatched")
            .as_any()
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Downcast a node to a concrete type, mutably.
    pub fn node_as_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.0 as usize]
            .as_mut()
            .expect("node is being dispatched")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    /// Process a single event. Returns the time it occurred, or `None` if
    /// the queue is empty.
    ///
    /// When the flight recorder is enabled, each dispatch is accounted to
    /// its event type with how far simulated time advanced to reach it
    /// (part of the deterministic export).
    pub fn step(&mut self) -> Option<Instant> {
        self.step_at_most(Instant::from_nanos(u64::MAX))
    }

    /// [`World::step`], unless the next event is due after `deadline`.
    fn step_at_most(&mut self, deadline: Instant) -> Option<Instant> {
        let (at, event) = self.core.queue.pop_at_most(deadline)?;
        debug_assert!(at >= self.core.now, "time went backwards");
        let advance = at.duration_since(self.core.now);
        self.core.now = at;
        self.core.events_processed += 1;
        if !self.core.recorder.is_enabled() {
            self.dispatch(event);
            return Some(at);
        }
        let kind = event.kind.name();
        self.dispatch(event);
        self.core.recorder.note_loop(kind, advance.as_nanos());
        Some(at)
    }

    /// Deliver one already-dequeued event to its target.
    fn dispatch(&mut self, event: Event) {
        if let EventKind::AdminLink { link, up, notify } = event.kind {
            let l = &mut self.core.links[link.0 as usize];
            if l.up != up {
                l.up = up;
                if notify {
                    let (a, b) = (l.a, l.b);
                    self.core
                        .push(self.core.now, a.0, EventKind::LinkStatus { port: a.1, up });
                    self.core
                        .push(self.core.now, b.0, EventKind::LinkStatus { port: b.1, up });
                }
            }
            return;
        }

        // Frames still propagating when their link went down are lost
        // (a cut cable takes the in-flight bits with it).
        if let EventKind::Packet { port, .. } = &event.kind {
            if !self.core.link_up(event.node, *port) {
                self.core.metrics.incr(self.core.ids.drops_in_flight);
                return;
            }
        }

        let idx = event.node.0 as usize;
        let mut node = match self.nodes.get_mut(idx).and_then(Option::take) {
            Some(node) => node,
            None => return, // node removed or never existed
        };
        let mut ctx = Context {
            self_id: event.node,
            core: &mut self.core,
        };
        match event.kind {
            EventKind::Start => node.on_start(&mut ctx),
            EventKind::Packet { port, frame } => node.on_packet(&mut ctx, port, &frame),
            EventKind::Timer { token } => node.on_timer(&mut ctx, token),
            EventKind::Control { from, bytes } => {
                node.on_control(&mut ctx, from, &bytes);
                self.core.recycle(bytes);
            }
            EventKind::LinkStatus { port, up } => node.on_link_status(&mut ctx, port, up),
            EventKind::AdminLink { .. } => unreachable!("handled above"),
        }
        self.nodes[idx] = Some(node);
        self.core.flush_control();
    }

    /// Run until the queue is empty or simulated time would exceed
    /// `deadline`. Events at exactly `deadline` are processed. Time is left
    /// at `deadline` (or the last event, if the queue drained first).
    pub fn run_until(&mut self, deadline: Instant) {
        self.started = true;
        while self.step_at_most(deadline).is_some() {}
        if self.core.now < deadline {
            self.core.now = deadline;
        }
    }

    /// Run for `span` beyond the current time.
    pub fn run_for(&mut self, span: Duration) {
        let deadline = self.core.now + span;
        self.run_until(deadline);
    }

    /// Run until the event queue drains, up to `max_events` (a safety
    /// valve against livelocking protocols). Returns the number of events
    /// processed.
    ///
    /// Marks the world as started exactly like [`World::run_until`], so
    /// worlds driven only to quiescence take the same bootstrap path as
    /// deadline-driven ones.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        self.started = true;
        let mut n = 0;
        while n < max_events && self.step().is_some() {
            n += 1;
        }
        n
    }

    /// Whether any run entry point ([`World::run_until`],
    /// [`World::run_for`], [`World::run_to_quiescence`]) has been invoked.
    pub fn started(&self) -> bool {
        self.started
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every frame back out the port it arrived on, and counts.
    struct Echo {
        rx: u64,
    }

    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortNo, frame: &[u8]) {
            self.rx += 1;
            if self.rx == 1 {
                // Only echo the first to avoid infinite ping-pong.
                ctx.transmit(port, frame.to_vec());
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends one frame on start, records the arrival time of responses.
    struct Pinger {
        sent_at: Option<Instant>,
        rtt: Option<Duration>,
    }

    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.sent_at = Some(ctx.now());
            ctx.transmit(1, vec![0u8; 100]);
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, _port: PortNo, _frame: &[u8]) {
            self.rtt = Some(ctx.now() - self.sent_at.unwrap());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_node_world(params: LinkParams) -> (World, NodeId, NodeId) {
        let mut world = World::new(1);
        let a = world.add_node(Box::new(Pinger {
            sent_at: None,
            rtt: None,
        }));
        let b = world.add_node(Box::new(Echo { rx: 0 }));
        world.connect(a, b, params);
        (world, a, b)
    }

    #[test]
    fn ping_rtt_accounts_latency_and_serialization() {
        // 100 bytes at 1 Gb/s = 800 ns each way; latency 10 us each way.
        let (mut world, a, b) = two_node_world(LinkParams::default());
        world.run_until(Instant::from_secs(1));
        let pinger = world.node_as::<Pinger>(a);
        assert_eq!(pinger.rtt, Some(Duration::from_nanos(2 * (10_000 + 800))));
        assert_eq!(world.node_as::<Echo>(b).rx, 1);
    }

    #[test]
    fn instant_links_have_latency_only() {
        let (mut world, a, _) = two_node_world(LinkParams::instant(Duration::from_millis(5)));
        world.run_until(Instant::from_secs(1));
        assert_eq!(
            world.node_as::<Pinger>(a).rtt,
            Some(Duration::from_millis(10))
        );
    }

    /// Sends `n` back-to-back frames on start.
    struct Burst {
        n: usize,
        size: usize,
    }

    impl Node for Burst {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.n {
                ctx.transmit(1, vec![0u8; self.size]);
            }
        }
        fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct Sink {
        rx: u64,
        last_at: Option<Instant>,
    }

    impl Node for Sink {
        fn on_packet(&mut self, ctx: &mut Context<'_>, _: PortNo, _: &[u8]) {
            self.rx += 1;
            self.last_at = Some(ctx.now());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn run_entry_points_bootstrap_identically() {
        // The same scenario driven by run_until and by run_to_quiescence
        // must mark the world started and produce identical outcomes.
        let (mut deadline_world, da, db) = two_node_world(LinkParams::default());
        let (mut quiescent_world, qa, qb) = two_node_world(LinkParams::default());
        assert!(!deadline_world.started());
        assert!(!quiescent_world.started());
        deadline_world.run_until(Instant::from_secs(1));
        quiescent_world.run_to_quiescence(1_000_000);
        assert!(deadline_world.started());
        assert!(quiescent_world.started());
        assert_eq!(
            deadline_world.node_as::<Pinger>(da).rtt,
            quiescent_world.node_as::<Pinger>(qa).rtt
        );
        assert_eq!(
            deadline_world.node_as::<Echo>(db).rx,
            quiescent_world.node_as::<Echo>(qb).rx
        );
        assert_eq!(
            deadline_world.events_processed(),
            quiescent_world.events_processed()
        );
    }

    #[test]
    fn queue_overflow_drops() {
        let mut world = World::new(1);
        let a = world.add_node(Box::new(Burst { n: 10, size: 1000 }));
        let b = world.add_node(Box::new(Sink {
            rx: 0,
            last_at: None,
        }));
        // Queue holds only 3000 bytes; 10 x 1000-byte frames burst in.
        let (link, _, _) = world.connect(
            a,
            b,
            LinkParams::new(Duration::from_micros(1), 1_000_000_000, 3000),
        );
        world.run_until(Instant::from_secs(1));
        let delivered = world.node_as::<Sink>(b).rx;
        let dropped = world.link(link).ab.drops_queue;
        assert_eq!(delivered + dropped, 10);
        assert!(dropped > 0, "expected queue drops");
        // The backlog (including the frame in service) may not exceed
        // 3000 bytes, so exactly three 1000-byte frames are admitted.
        assert_eq!(delivered, 3);
    }

    #[test]
    fn serialization_spaces_frames() {
        let mut world = World::new(1);
        let a = world.add_node(Box::new(Burst { n: 3, size: 1250 }));
        let b = world.add_node(Box::new(Sink {
            rx: 0,
            last_at: None,
        }));
        // 1250 bytes at 1 Gb/s = 10 us serialization each.
        world.connect(
            a,
            b,
            LinkParams::new(Duration::from_micros(5), 1_000_000_000, 1 << 20),
        );
        world.run_until(Instant::from_secs(1));
        let sink = world.node_as::<Sink>(b);
        assert_eq!(sink.rx, 3);
        // Last frame completes serialization at 30 us, +5 us latency.
        assert_eq!(sink.last_at, Some(Instant::from_micros(35)));
    }

    #[test]
    fn down_links_drop_and_notify() {
        struct Watcher {
            down_seen: bool,
            up_seen: bool,
        }
        impl Node for Watcher {
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
            fn on_link_status(&mut self, _: &mut Context<'_>, _: PortNo, up: bool) {
                if up {
                    self.up_seen = true;
                } else {
                    self.down_seen = true;
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut world = World::new(1);
        let a = world.add_node(Box::new(Watcher {
            down_seen: false,
            up_seen: false,
        }));
        let b = world.add_node(Box::new(Watcher {
            down_seen: false,
            up_seen: false,
        }));
        let (link, _, _) = world.connect(a, b, LinkParams::default());
        world.schedule_link_state(link, false, Instant::from_millis(10));
        world.schedule_link_state(link, true, Instant::from_millis(20));
        world.run_until(Instant::from_millis(30));
        for node in [a, b] {
            let w = world.node_as::<Watcher>(node);
            assert!(w.down_seen && w.up_seen);
        }
        assert!(world.link(link).up);
    }

    /// A link change scheduled for a time already past takes effect now:
    /// the clock never runs backwards.
    #[test]
    fn a_link_change_scheduled_in_the_past_happens_now() {
        struct Watcher {
            seen: Vec<(Instant, bool)>,
        }
        impl Node for Watcher {
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
            fn on_link_status(&mut self, ctx: &mut Context<'_>, _: PortNo, up: bool) {
                self.seen.push((ctx.now(), up));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut world = World::new(1);
        let a = world.add_node(Box::new(Watcher { seen: vec![] }));
        let b = world.add_node(Box::new(Watcher { seen: vec![] }));
        let (link, _, _) = world.connect(a, b, LinkParams::default());
        let (silent, _, _) = world.connect(a, b, LinkParams::default());
        world.run_until(Instant::from_millis(5));
        world.schedule_link_state(link, false, Instant::from_millis(1));
        world.schedule_link_state_silent(silent, false, Instant::from_millis(2));
        let mut last = world.now();
        while let Some(at) = world.step() {
            assert!(at >= last && world.now() >= last, "the clock ran backwards");
            last = world.now();
        }
        assert_eq!(world.now(), Instant::from_millis(5));
        assert!(!world.link(link).up && !world.link(silent).up);
        for node in [a, b] {
            let seen = &world.node_as::<Watcher>(node).seen;
            assert_eq!(seen, &vec![(Instant::from_millis(5), false)]);
        }
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node for TimerNode {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(Duration::from_millis(3), 3);
                ctx.set_timer(Duration::from_millis(1), 1);
                ctx.set_timer(Duration::from_millis(2), 2);
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
            fn on_timer(&mut self, _: &mut Context<'_>, token: u64) {
                self.fired.push(token);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut world = World::new(1);
        let n = world.add_node(Box::new(TimerNode { fired: vec![] }));
        world.run_until(Instant::from_millis(10));
        assert_eq!(world.node_as::<TimerNode>(n).fired, vec![1, 2, 3]);
    }

    #[test]
    fn control_channel_delivers_with_latency() {
        struct Controller {
            got: Vec<(NodeId, Vec<u8>)>,
            got_at: Option<Instant>,
        }
        impl Node for Controller {
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
            fn on_control(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
                self.got.push((from, bytes.to_vec()));
                self.got_at = Some(ctx.now());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        struct Agent {
            controller: NodeId,
        }
        impl Node for Agent {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.send_control(self.controller, vec![1, 2, 3]);
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut world = World::new(1);
        let c = world.add_node(Box::new(Controller {
            got: vec![],
            got_at: None,
        }));
        let a = world.add_node(Box::new(Agent { controller: c }));
        world.set_control_latency(Duration::from_micros(100));
        world.run_until(Instant::from_secs(1));
        let ctl = world.node_as::<Controller>(c);
        assert_eq!(ctl.got, vec![(a, vec![1, 2, 3])]);
        assert_eq!(ctl.got_at, Some(Instant::from_micros(100)));
        assert_eq!(world.metrics().counter("sim.control_msgs"), 1);
        assert_eq!(world.metrics().counter("sim.control_bytes"), 3);
    }

    /// Whatever a node schedules — timers short and long, frames,
    /// control messages, from every kind of callback — comes back in
    /// the order of (due time, call order).
    #[test]
    fn callbacks_run_in_due_time_then_call_order() {
        use crate::queue::tests::DELAYS;

        const LINK: Duration = Duration::from_micros(3);
        const CONTROL: Duration = Duration::from_micros(50);

        /// Wired to itself: frames sent on port 1 arrive on port 2.
        struct Scribe {
            calls: u64,
            /// (due, what) in call order, then what ran, when.
            expected: Vec<(Instant, u64)>,
            ran: Vec<(Instant, u64)>,
        }
        impl Scribe {
            /// Three more calls, of kinds and delays that depend on
            /// how many were made before; the control send last, as
            /// the world delivers a handler's writes when it returns.
            fn schedule(&mut self, ctx: &mut Context<'_>) {
                if self.calls >= 600 {
                    return;
                }
                let now = ctx.now();
                let due = |this: &mut Scribe, after: Duration| {
                    this.expected.push((now + after, this.calls));
                    this.calls += 1;
                    this.calls - 1
                };
                let delay = Duration::from_nanos(DELAYS[(self.calls / 3) as usize % DELAYS.len()]);
                let token = due(self, delay);
                ctx.set_timer(delay, token);
                if self.calls.is_multiple_of(2) {
                    let id = due(self, LINK);
                    ctx.transmit(1, id.to_be_bytes().to_vec());
                } else {
                    let token = due(self, LINK);
                    ctx.set_timer(LINK, token);
                }
                let id = due(self, CONTROL);
                ctx.send_control(ctx.self_id, id.to_be_bytes().to_vec());
            }
            fn note(&mut self, ctx: &mut Context<'_>, what: u64) {
                self.ran.push((ctx.now(), what));
                self.schedule(ctx);
            }
        }
        impl Node for Scribe {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                self.schedule(ctx);
            }
            fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortNo, frame: &[u8]) {
                assert_eq!(port, 2);
                self.note(ctx, u64::from_be_bytes(frame.try_into().unwrap()));
            }
            fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
                self.note(ctx, token);
            }
            fn on_control(&mut self, ctx: &mut Context<'_>, _: NodeId, bytes: &[u8]) {
                self.note(ctx, u64::from_be_bytes(bytes.try_into().unwrap()));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut world = World::new(1);
        let n = world.add_node(Box::new(Scribe {
            calls: 0,
            expected: vec![],
            ran: vec![],
        }));
        world.connect(n, n, LinkParams::instant(LINK));
        world.set_control_latency(CONTROL);
        world.run_to_quiescence(10_000);
        let scribe = world.node_as::<Scribe>(n);
        assert_eq!(scribe.ran.len(), 600);
        let mut expected = scribe.expected.clone();
        expected.sort(); // by due time, then by call number
        assert_eq!(scribe.ran, expected);
    }

    /// `run_until` processes what is due at the deadline and nothing a
    /// nanosecond later, and asking twice changes nothing.
    #[test]
    fn run_until_includes_its_deadline_and_repeats_as_nothing() {
        use crate::queue::tests::HORIZON_NS as H;

        /// Arms two timers for 3 H and two for a nanosecond later: one
        /// of each from beyond the wheel's reach, one from inside it.
        struct Alarms {
            fired: Vec<u64>,
        }
        impl Node for Alarms {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(Duration::from_nanos(3 * H), 0);
                ctx.set_timer(Duration::from_nanos(3 * H + 1), 1);
                ctx.set_timer(Duration::from_nanos(5 * H / 2), 2);
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
            fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
                self.fired.push(token);
                if token == 2 {
                    ctx.set_timer(Duration::from_nanos(H / 2), 3);
                    ctx.set_timer(Duration::from_nanos(H / 2 + 1), 4);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut world = World::new(1);
        let n = world.add_node(Box::new(Alarms { fired: vec![] }));
        let deadline = Instant::from_nanos(3 * H);
        world.run_until(deadline);
        assert_eq!(world.node_as::<Alarms>(n).fired, vec![2, 0, 3]);
        let events = world.events_processed();
        world.run_until(deadline);
        assert_eq!(world.events_processed(), events);
        assert_eq!(world.now(), deadline);
        world.run_until(Instant::from_nanos(3 * H + 1));
        assert_eq!(world.node_as::<Alarms>(n).fired, vec![2, 0, 3, 1, 4]);
    }

    #[test]
    fn deterministic_replay() {
        fn run() -> (u64, u64) {
            let mut world = World::new(99);
            let a = world.add_node(Box::new(Burst { n: 50, size: 700 }));
            let b = world.add_node(Box::new(Sink {
                rx: 0,
                last_at: None,
            }));
            world.connect(
                a,
                b,
                LinkParams::new(Duration::from_micros(7), 100_000_000, 2000),
            );
            world.run_until(Instant::from_secs(1));
            (world.node_as::<Sink>(b).rx, world.events_processed())
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn explicit_ports_and_peer_lookup() {
        struct Probe {
            peer: Option<(NodeId, PortNo)>,
        }
        impl Node for Probe {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                self.peer = ctx.peer_of(5);
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut world = World::new(1);
        let a = world.add_node(Box::new(Probe { peer: None }));
        let b = world.add_node(Box::new(Probe { peer: None }));
        world.connect_ports(a, 5, b, 9, LinkParams::default());
        world.run_until(Instant::from_millis(1));
        assert_eq!(world.node_as::<Probe>(a).peer, Some((b, 9)));
    }

    #[test]
    fn sparse_ports_carry_frames_and_unknown_ports_count() {
        /// Sends one frame out of each of `out` on start; remembers its
        /// ports and what arrives where.
        struct Probe {
            out: Vec<PortNo>,
            ports: Vec<PortNo>,
            rx: Vec<PortNo>,
        }
        impl Node for Probe {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                self.ports = ctx.ports();
                for &port in &self.out {
                    ctx.transmit(port, vec![0u8; 64]);
                }
            }
            fn on_packet(&mut self, _: &mut Context<'_>, port: PortNo, _: &[u8]) {
                self.rx.push(port);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let probe = |out: &[PortNo]| {
            Box::new(Probe {
                out: out.to_vec(),
                ports: vec![],
                rx: vec![],
            })
        };
        let mut world = World::new(1);
        // Ports 5 and MAX are wired; 0, 1, 6 and 9 are not.
        let a = world.add_node(probe(&[PortNo::MAX, 5, 0, 1, 6, 9]));
        let b = world.add_node(probe(&[]));
        world.connect_ports(a, PortNo::MAX, b, 9, LinkParams::default());
        world.connect_ports(a, 5, b, 2, LinkParams::default());
        // Auto-assignment continues past the highest explicit port.
        let c = world.add_node(probe(&[]));
        assert_eq!(world.connect(b, c, LinkParams::default()).1, 10);
        world.run_until(Instant::from_millis(1));
        assert_eq!(world.node_as::<Probe>(a).ports, vec![5, PortNo::MAX]);
        assert_eq!(world.node_as::<Probe>(b).ports, vec![2, 9, 10]);
        assert_eq!(world.node_as::<Probe>(b).rx, vec![9, 2]);
        assert_eq!(world.metrics().counter("sim.tx_no_link"), 4);
        assert_eq!(world.metrics().counter("sim.tx_frames"), 2);
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        struct Dummy;
        impl Node for Dummy {
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut world = World::new(1);
        let a = world.add_node(Box::new(Dummy));
        let b = world.add_node(Box::new(Dummy));
        world.connect_ports(a, 1, b, 1, LinkParams::default());
        world.connect_ports(a, 1, b, 2, LinkParams::default());
    }

    /// Sends a control message to `peer` every millisecond.
    struct Chatter {
        peer: NodeId,
        got: u64,
    }

    impl Node for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(Duration::from_millis(1), 0);
        }
        fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _: u64) {
            ctx.send_control(self.peer, vec![0xAB]);
            ctx.set_timer(Duration::from_millis(1), 0);
        }
        fn on_control(&mut self, _: &mut Context<'_>, _: NodeId, _: &[u8]) {
            self.got += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn fault_partition_blackholes_control() {
        use crate::fault::{FaultPlan, Window};
        let mut world = World::new(1);
        let a = world.add_node(Box::new(Chatter {
            peer: NodeId(1),
            got: 0,
        }));
        let b = world.add_node(Box::new(Chatter { peer: a, got: 0 }));
        // Partition for the first half of the run; ~50 of 100 messages
        // blackholed, the rest delivered after the heal.
        world.set_fault_plan(FaultPlan::new().partition(
            a,
            b,
            Window::new(Instant::ZERO, Instant::from_millis(50)),
        ));
        world.run_until(Instant::from_millis(100));
        let delivered = world.node_as::<Chatter>(b).got;
        assert!((45..=55).contains(&delivered), "delivered {delivered}");
        assert!(world.metrics().counter("fault.control_partitioned") >= 90);
    }

    #[test]
    fn fault_loss_and_duplication_are_counted() {
        use crate::fault::{FaultPlan, Window};
        let mut world = World::new(2);
        let a = world.add_node(Box::new(Chatter {
            peer: NodeId(1),
            got: 0,
        }));
        let b = world.add_node(Box::new(Chatter { peer: a, got: 0 }));
        world.set_fault_plan(
            FaultPlan::new()
                .control_loss(0.5, Window::always())
                .duplicate(0.5, Window::always()),
        );
        world.run_until(Instant::from_millis(1000));
        let m = world.metrics();
        let dropped = m.counter("fault.control_dropped");
        let duplicated = m.counter("fault.control_duplicated");
        // ~2000 sends: about half dropped, half the survivors doubled.
        assert!((800..=1200).contains(&dropped), "dropped {dropped}");
        assert!((350..=650).contains(&duplicated), "duplicated {duplicated}");
        // Everything sent either arrived or was dropped, modulo the few
        // messages still in flight at the deadline.
        let got = world.node_as::<Chatter>(a).got + world.node_as::<Chatter>(b).got;
        let expected = 2000 - dropped + duplicated;
        assert!(expected - got <= 4, "got {got}, expected ~{expected}");
    }

    #[test]
    fn fault_lossy_link_drops_data() {
        use crate::fault::{FaultPlan, Window};
        let mut world = World::new(3);
        let a = world.add_node(Box::new(Burst { n: 1000, size: 100 }));
        let b = world.add_node(Box::new(Sink {
            rx: 0,
            last_at: None,
        }));
        let (link, _, _) = world.connect(a, b, LinkParams::instant(Duration::from_micros(1)));
        world.set_fault_plan(FaultPlan::new().link_loss(Some(link), 0.3, Window::always()));
        world.run_until(Instant::from_secs(1));
        let rx = world.node_as::<Sink>(b).rx;
        assert!((620..=780).contains(&rx), "delivered {rx}");
        assert_eq!(world.metrics().counter("fault.data_dropped"), 1000 - rx);
    }

    #[test]
    fn chaos_replay_is_deterministic() {
        use crate::fault::{FaultPlan, Window};
        fn run() -> (u64, u64, u64) {
            let mut world = World::new(77);
            let a = world.add_node(Box::new(Chatter {
                peer: NodeId(1),
                got: 0,
            }));
            let b = world.add_node(Box::new(Chatter { peer: a, got: 0 }));
            world.set_control_jitter(Duration::from_micros(30));
            world.set_fault_plan(
                FaultPlan::new()
                    .control_loss(0.2, Window::always())
                    .duplicate(
                        0.1,
                        Window::new(Instant::from_millis(10), Instant::from_millis(40)),
                    )
                    .partition(
                        a,
                        b,
                        Window::new(Instant::from_millis(50), Instant::from_millis(60)),
                    ),
            );
            world.run_until(Instant::from_millis(100));
            (
                world.node_as::<Chatter>(a).got,
                world.node_as::<Chatter>(b).got,
                world.events_processed(),
            )
        }
        assert_eq!(run(), run());
    }

    /// Spent control buffers are kept for reuse, but only so many and
    /// only so large: fan-out cannot grow the list without bound, and
    /// a buffer grown past its starting size does not stay allocated.
    #[test]
    fn control_buffer_free_list_is_bounded() {
        /// On start, writes `len` bytes to each of nodes `0..fanout`.
        struct Blast {
            fanout: u32,
            len: usize,
        }
        impl Node for Blast {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                for to in 0..self.fanout {
                    ctx.send_control_with(NodeId(to), |buf| buf.resize(buf.len() + self.len, 0));
                }
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut world = World::new(1);
        let fanout = 3 * FREE_BUFFERS as u32;
        for _ in 0..fanout {
            world.add_node(Box::new(Chatter {
                peer: NodeId(0),
                got: 0,
            }));
        }
        world.add_node(Box::new(Blast { fanout, len: 100 }));
        world.run_until(Instant::from_micros(900));
        let got: u64 = (0..fanout)
            .map(|i| world.node_as::<Chatter>(NodeId(i)).got)
            .sum();
        assert_eq!(got, u64::from(fanout), "every buffer was delivered");
        assert_eq!(world.core.free_buffers.len(), FREE_BUFFERS);

        // The one buffer left grows past the size the list starts its
        // buffers at, to carry one 4 KiB message, and is freed once
        // delivered rather than kept.
        world.core.free_buffers.truncate(1);
        world.add_node(Box::new(Blast {
            fanout: 1,
            len: 2 * PREFILL_BUFFER_BYTES,
        }));
        world.run_until(Instant::from_micros(990));
        assert_eq!(world.node_as::<Chatter>(NodeId(0)).got, 2);
        assert!(
            world.core.free_buffers.is_empty(),
            "the grown buffer was freed"
        );
    }

    /// One handler's writes, to A, B, A, C, B at two latencies, each
    /// land in the slot of their own `(to, latency)`: a slot found by
    /// remembering the last one is the same slot a search finds, never
    /// a neighbour's.
    #[test]
    fn repeated_writes_find_the_slot_of_their_own_key() {
        /// Records every control delivery: when, and what.
        struct Log(Vec<(Instant, Vec<u8>)>);
        impl Node for Log {
            fn on_control(&mut self, ctx: &mut Context<'_>, _: NodeId, bytes: &[u8]) {
                self.0.push((ctx.now(), bytes.to_vec()));
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut world = World::new(1);
        let [a, b, c] = [0, 1, 2].map(|_| world.add_node(Box::new(Log(Vec::new()))));
        let from = world.add_node(Box::new(Log(Vec::new())));
        world.run_until(Instant::ZERO);
        let (near, far) = (50_000, 80_000);
        let writes = [
            (a, near),
            (a, near),
            (b, far),
            (a, far),
            (a, near),
            (c, near),
            (b, far),
            (b, near),
            (b, far),
        ];
        for (i, &(to, latency)) in writes.iter().enumerate() {
            world.core.control_slot(from, to, latency).push(i as u8);
        }
        world.core.flush_control();
        world.run_until(Instant::from_millis(1));

        for to in [a, b, c] {
            let mut want = Vec::new();
            for latency in [near, far] {
                let bytes: Vec<u8> = (0..writes.len() as u8)
                    .filter(|&i| writes[usize::from(i)] == (to, latency))
                    .collect();
                if !bytes.is_empty() {
                    want.push((Instant::from_nanos(latency), bytes));
                }
            }
            assert_eq!(world.node_as::<Log>(to).0, want, "deliveries to {to:?}");
        }
    }
}
