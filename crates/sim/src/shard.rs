//! A sharded discrete-event engine with a deterministic merge.
//!
//! [`ShardedWorld`] partitions nodes across worker threads
//! (`shard_of(node) = node_id % n_shards`) and advances simulated time in
//! **conservative lookahead windows**: the minimum link propagation delay
//! is a hard lower bound on how far in the future any cross-node event can
//! land, so every shard can safely process its local queue up to
//! `window_start + lookahead` without seeing an event from another shard
//! that belongs inside the window. Cross-shard (and, for uniformity,
//! same-shard) packet arrivals are staged in per-`(dst, src)` inboxes,
//! flushed at the window edge, and drained after a single barrier per
//! window.
//!
//! **Determinism is shard-count-independent.** Every event carries a
//! canonical key `(at, src_rank, src_seq)` — rank 0 is the build
//! schedule (start and admin link events), rank `n + 1` is node `n`, and
//! `src_seq` is a per-source emission counter. Because a node's handler
//! emissions depend only on the sequence of deliveries it observes, and
//! deliveries are replayed in canonical key order at every shard count,
//! the same seed produces byte-identical results (see [`ShardedWorld::digest`])
//! whether the run uses 1, 2, or 8 shards. The property test in
//! `zen-core/tests/shard.rs` and the unit tests below hold this invariant.
//!
//! Design notes, relative to [`crate::world::World`]:
//!
//! * **Data plane only.** There is no out-of-band control channel and no
//!   fault plan; the sharded engine exists to scale packet-level fabric
//!   experiments (E21). Control-plane scenarios stay on `World`.
//! * **Replicated link table.** Each shard owns a full replica of the
//!   link table. A direction's `busy_until` is only read and written by
//!   the shard owning the *sending* endpoint, so replicas never diverge
//!   on state that matters. Admin up/down flips are pre-seeded into every
//!   shard's queue with build-order root keys; each shard flips its own
//!   replica at the same canonical position and notifies its *local*
//!   endpoints inline.
//! * **Batched delivery.** All events at one instant are popped together;
//!   runs of packet arrivals for the same node (its canonical
//!   subsequence, timers break a run) are handed to
//!   [`ShardNode::on_packet_batch`] in one call so datapath-backed nodes
//!   can amortize classification with `Datapath::process_batch`.
//! * **Edge-of-horizon drop.** An arrival staged *during* the final
//!   window that lands exactly at the deadline is never delivered. The
//!   window loop is identical at every shard count, so the drop is too.
//! * **Merged observability.** Per-shard [`Metrics`] registries are
//!   summed by name after the run; per-shard recorder loop profiles are
//!   folded into the world's recorder. Loop-span *counts* are
//!   shard-count-independent; summed `sim_advance` is not (each shard
//!   advances its own clock) and is excluded from the digest.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Barrier, Mutex};

use zen_telemetry::{trace_id_for_frame, Recorder, TraceEvent};

use crate::ports::PortTable;
use crate::rng::Rng;
use crate::stats::{CounterId, Metrics};
use crate::time::{queued_bytes, transmission_time, Duration, Instant};
use crate::world::{LinkId, LinkParams, NodeId, PortNo};

/// Behavior contract for nodes driven by the sharded engine.
///
/// `Send` is required because nodes migrate onto worker threads for the
/// duration of the run. Handlers interact with the world only through
/// [`ShardCtx`], mirroring [`crate::world::Node`] minus the control
/// channel.
pub trait ShardNode: Send + 'static {
    /// Called once at simulated time zero, before any traffic.
    fn on_start(&mut self, _ctx: &mut ShardCtx<'_, '_>) {}

    /// A frame arrived on `in_port`.
    fn on_packet(&mut self, ctx: &mut ShardCtx<'_, '_>, in_port: PortNo, frame: &[u8]);

    /// A run of frames arrived at the same instant.
    ///
    /// The default loops [`ShardNode::on_packet`]. Overrides may amortize
    /// work across the batch, but **batch boundaries are an engine
    /// artifact**: implementations must be observably identical to the
    /// scalar loop for any partitioning of the same frame sequence (the
    /// contract `Datapath::process_batch` proves differentially).
    fn on_packet_batch(&mut self, ctx: &mut ShardCtx<'_, '_>, frames: &[(PortNo, Vec<u8>)]) {
        for (port, frame) in frames {
            self.on_packet(ctx, *port, frame);
        }
    }

    /// A timer set via [`ShardCtx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut ShardCtx<'_, '_>, _token: u64) {}

    /// A local link changed administrative state.
    fn on_link_status(&mut self, _ctx: &mut ShardCtx<'_, '_>, _port: PortNo, _up: bool) {}

    /// Downcast support for post-run inspection.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Canonical event key: `(at, src, seq)`. `src` 0 is the build schedule;
/// node `n` emits with rank `n + 1`, so admin flips sort before packet
/// work at the same instant regardless of sharding.
#[derive(Debug)]
struct ShardEvent {
    at: Instant,
    src: u32,
    seq: u64,
    node: NodeId,
    kind: ShardEventKind,
}

#[derive(Debug)]
enum ShardEventKind {
    Start,
    Packet { port: PortNo, frame: Vec<u8> },
    Timer { token: u64 },
    AdminLink { link: LinkId, up: bool },
}

impl ShardEventKind {
    fn name(&self) -> &'static str {
        match self {
            ShardEventKind::Start => "start",
            ShardEventKind::Packet { .. } => "packet",
            ShardEventKind::Timer { .. } => "timer",
            ShardEventKind::AdminLink { .. } => "admin_link",
        }
    }
}

impl PartialEq for ShardEvent {
    fn eq(&self, other: &ShardEvent) -> bool {
        (self.at, self.src, self.seq) == (other.at, other.src, other.seq)
    }
}

impl Eq for ShardEvent {}

impl PartialOrd for ShardEvent {
    fn partial_cmp(&self, other: &ShardEvent) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ShardEvent {
    fn cmp(&self, other: &ShardEvent) -> core::cmp::Ordering {
        (self.at, self.src, self.seq).cmp(&(other.at, other.src, other.seq))
    }
}

/// One shard's replica of a link. `busy_ab`/`busy_ba` are only touched by
/// the shard owning the sending endpoint of that direction.
#[derive(Debug, Clone)]
struct ShardLink {
    a: (NodeId, PortNo),
    b: (NodeId, PortNo),
    params: LinkParams,
    up: bool,
    busy_ab: Instant,
    busy_ba: Instant,
}

/// Pre-registered counter handles, mirroring the `World` name set that
/// applies to the data plane.
#[derive(Debug, Clone, Copy)]
struct ShardCounters {
    tx_no_link: CounterId,
    tx_frames: CounterId,
    tx_bytes: CounterId,
    drops_down: CounterId,
    drops_queue: CounterId,
    drops_in_flight: CounterId,
}

impl ShardCounters {
    fn register(metrics: &mut Metrics) -> ShardCounters {
        ShardCounters {
            tx_no_link: metrics.register_counter("sim.tx_no_link"),
            tx_frames: metrics.register_counter("sim.tx_frames"),
            tx_bytes: metrics.register_counter("sim.tx_bytes"),
            drops_down: metrics.register_counter("sim.drops_down"),
            drops_queue: metrics.register_counter("sim.drops_queue"),
            drops_in_flight: metrics.register_counter("sim.drops_in_flight"),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_byte(h: u64, b: u8) -> u64 {
    (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
}

fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = fnv_byte(h, b);
    }
    h
}

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    h = fnv_u64(h, bytes.len() as u64);
    for &b in bytes {
        h = fnv_byte(h, b);
    }
    h
}

/// Shard-local mutable state reachable from handler callbacks.
struct ShardCore<'w> {
    shard_id: usize,
    n_shards: usize,
    now: Instant,
    links: Vec<ShardLink>,
    ports: &'w PortTable,
    rngs: Vec<Rng>,
    emit_seq: Vec<u64>,
    heap: BinaryHeap<Reverse<ShardEvent>>,
    outboxes: Vec<Vec<ShardEvent>>,
    metrics: Metrics,
    ids: ShardCounters,
    recorder: Recorder,
    events_processed: u64,
    digests: Vec<u64>,
    digest_enabled: bool,
}

impl ShardCore<'_> {
    /// Whether `port` of `node` is wired to a link that is up on this
    /// shard's replica.
    fn link_up(&self, node: NodeId, port: PortNo) -> bool {
        let link = self.ports.link(node, port);
        link.is_some_and(|l| self.links[l.0 as usize].up)
    }
}

/// The world as seen from inside a [`ShardNode`] handler.
pub struct ShardCtx<'a, 'w> {
    /// The node being dispatched.
    pub self_id: NodeId,
    core: &'a mut ShardCore<'w>,
}

impl ShardCtx<'_, '_> {
    /// Current simulated time on this shard.
    pub fn now(&self) -> Instant {
        self.core.now
    }

    /// This node's private deterministic RNG (forked from the world seed
    /// by node id, so draws are identical at every shard count).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.core.rngs[self.self_id.0 as usize]
    }

    /// This shard's metrics registry (merged into the world's after the
    /// run; counters sum by name).
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// This shard's flight recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.core.recorder
    }

    /// Ports wired on this node, ascending.
    pub fn ports(&self) -> Vec<PortNo> {
        self.core.ports.ports(self.self_id)
    }

    /// Whether the link on `port` is administratively up (per this
    /// shard's replica — identical on every shard at handler time).
    pub fn port_up(&self, port: PortNo) -> bool {
        self.core.link_up(self.self_id, port)
    }

    /// The `(node, port)` on the far side of `port`, if wired.
    pub fn peer_of(&self, port: PortNo) -> Option<(NodeId, PortNo)> {
        let lid = self.core.ports.link(self.self_id, port)?;
        let link = &self.core.links[lid.0 as usize];
        if link.a == (self.self_id, port) {
            Some(link.b)
        } else {
            Some(link.a)
        }
    }

    /// Schedule `on_timer(token)` for this node after `delay`.
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        let core = &mut *self.core;
        let idx = self.self_id.0 as usize;
        let seq = core.emit_seq[idx];
        core.emit_seq[idx] += 1;
        core.heap.push(Reverse(ShardEvent {
            at: core.now + delay,
            src: self.self_id.0 + 1,
            seq,
            node: self.self_id,
            kind: ShardEventKind::Timer { token },
        }));
    }

    /// Transmit `frame` out of `port`, with the same serialization,
    /// queueing, and drop semantics as `World`'s links (minus fault
    /// injection). The arrival is staged through the window inboxes even
    /// when the peer lives on this shard, so one shard behaves exactly
    /// like many.
    pub fn transmit(&mut self, port: PortNo, frame: &[u8]) {
        let core = &mut *self.core;
        let ids = core.ids;
        let Some(lid) = core.ports.link(self.self_id, port) else {
            core.metrics.incr(ids.tx_no_link);
            return;
        };
        let link = &mut core.links[lid.0 as usize];
        let (dst, busy) = if link.a == (self.self_id, port) {
            (link.b, &mut link.busy_ab)
        } else {
            (link.a, &mut link.busy_ba)
        };
        if !link.up {
            core.metrics.incr(ids.drops_down);
            return;
        }
        let arrival = if link.params.bandwidth_bps == 0 {
            core.now + link.params.latency
        } else {
            let backlog = busy.duration_since(core.now);
            let backlog_bytes = queued_bytes(backlog, link.params.bandwidth_bps);
            if backlog_bytes + frame.len() > link.params.queue_bytes {
                core.metrics.incr(ids.drops_queue);
                return;
            }
            let tx_start = (*busy).max(core.now);
            let tx_end = tx_start + transmission_time(frame.len(), link.params.bandwidth_bps);
            *busy = tx_end;
            tx_end + link.params.latency
        };
        core.metrics.incr(ids.tx_frames);
        core.metrics.add(ids.tx_bytes, frame.len() as u64);
        if core.recorder.is_enabled() {
            if let Some(tid) = trace_id_for_frame(frame) {
                core.recorder.record(
                    core.now.as_nanos(),
                    tid,
                    TraceEvent::LinkTx {
                        node: self.self_id.0,
                        port,
                    },
                );
            }
        }
        let idx = self.self_id.0 as usize;
        let seq = core.emit_seq[idx];
        core.emit_seq[idx] += 1;
        let dst_shard = dst.0 .0 as usize % core.n_shards;
        core.outboxes[dst_shard].push(ShardEvent {
            at: arrival,
            src: self.self_id.0 + 1,
            seq,
            node: dst.0,
            kind: ShardEventKind::Packet {
                port: dst.1,
                frame: frame.to_vec(),
            },
        });
    }
}

/// Cross-shard plumbing shared by every worker for one run.
struct SharedRun {
    barrier: Barrier,
    /// `inboxes[dst][src]`: events staged by shard `src` for shard `dst`.
    inboxes: Vec<Vec<Mutex<Vec<ShardEvent>>>>,
}

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One worker: the nodes it owns plus its shard-local core.
struct ShardWorker<'w> {
    nodes: Vec<Option<Box<dyn ShardNode>>>,
    core: ShardCore<'w>,
}

impl ShardWorker<'_> {
    fn owns(&self, node: NodeId) -> bool {
        node.0 as usize % self.core.n_shards == self.core.shard_id
    }

    fn run(&mut self, shared: &SharedRun, deadline: Instant, lookahead: Duration) {
        let mut window_start = Instant::ZERO;
        loop {
            let window_end = (window_start + lookahead).min(deadline);
            let last = window_end == deadline;
            self.run_window(window_end, last);
            for (dst, buffer) in self.core.outboxes.iter_mut().enumerate() {
                if buffer.is_empty() {
                    continue;
                }
                locked(&shared.inboxes[dst][self.core.shard_id]).append(buffer);
            }
            shared.barrier.wait();
            for src in 0..self.core.n_shards {
                let mut slot = locked(&shared.inboxes[self.core.shard_id][src]);
                for event in slot.drain(..) {
                    self.core.heap.push(Reverse(event));
                }
            }
            if last {
                break;
            }
            window_start = window_end;
        }
        self.core.now = deadline;
    }

    /// Drain the local heap up to the window edge, one instant at a time.
    fn run_window(&mut self, window_end: Instant, last: bool) {
        loop {
            let t = match self.core.heap.peek() {
                Some(Reverse(head)) if (last && head.at <= window_end) || head.at < window_end => {
                    head.at
                }
                _ => break,
            };
            let mut events = Vec::new();
            while matches!(self.core.heap.peek(), Some(Reverse(head)) if head.at == t) {
                events.push(self.core.heap.pop().expect("peeked").0);
            }
            self.dispatch_instant(t, events);
        }
    }

    /// Deliver every event at one instant. Events are already in canonical
    /// `(src, seq)` order; runs of packet arrivals in a node's subsequence
    /// (timers break a run) are delivered as one batch. Cross-node
    /// interleaving at a single instant carries no information — emission
    /// keys are per-source — so grouping per node is order-safe.
    fn dispatch_instant(&mut self, t: Instant, mut events: Vec<ShardEvent>) {
        let advance = t.duration_since(self.core.now);
        let mut advance_nanos = advance.as_nanos();
        self.core.now = t;
        let rec_on = self.core.recorder.is_enabled();
        let mut consumed = vec![false; events.len()];
        for i in 0..events.len() {
            if consumed[i] {
                continue;
            }
            let kind = events[i].kind.name();
            // How many globally-counted events this arm dispatched. Admin
            // flips are replicated to every shard, so only shard 0 accounts
            // them — keeping event totals and loop-span counts
            // shard-count-independent.
            let mut dispatched = 1u64;
            match &events[i].kind {
                ShardEventKind::AdminLink { link, up } => {
                    let (link, up) = (*link, *up);
                    self.apply_admin(link, up);
                    if self.core.shard_id != 0 {
                        dispatched = 0;
                    }
                }
                ShardEventKind::Start => {
                    let node = events[i].node;
                    if self.core.digest_enabled {
                        let idx = node.0 as usize;
                        let h = fnv_u64(self.core.digests[idx], t.as_nanos());
                        self.core.digests[idx] = fnv_byte(h, 1);
                    }
                    self.deliver(node, |n, ctx| n.on_start(ctx));
                }
                ShardEventKind::Timer { token } => {
                    let (node, token) = (events[i].node, *token);
                    if self.core.digest_enabled {
                        let idx = node.0 as usize;
                        let h = fnv_u64(self.core.digests[idx], t.as_nanos());
                        let h = fnv_byte(h, 3);
                        self.core.digests[idx] = fnv_u64(h, token);
                    }
                    self.deliver(node, |n, ctx| n.on_timer(ctx, token));
                }
                ShardEventKind::Packet { .. } => {
                    let node = events[i].node;
                    let mut batch: Vec<(PortNo, Vec<u8>)> = Vec::new();
                    for (j, event) in events.iter_mut().enumerate().skip(i) {
                        if consumed[j] || event.node != node {
                            continue;
                        }
                        let ShardEventKind::Packet { port, frame } = &mut event.kind else {
                            // A timer (or start) in this node's canonical
                            // subsequence ends the batch.
                            break;
                        };
                        consumed[j] = true;
                        if j > i {
                            dispatched += 1;
                        }
                        if !self.core.link_up(node, *port) {
                            let id = self.core.ids.drops_in_flight;
                            self.core.metrics.incr(id);
                            continue;
                        }
                        if self.core.digest_enabled {
                            let idx = node.0 as usize;
                            let h = fnv_u64(self.core.digests[idx], t.as_nanos());
                            let h = fnv_byte(h, 2);
                            let h = fnv_u64(h, u64::from(*port));
                            self.core.digests[idx] = fnv_bytes(h, frame);
                        }
                        batch.push((*port, std::mem::take(frame)));
                    }
                    if !batch.is_empty() {
                        self.deliver(node, |n, ctx| n.on_packet_batch(ctx, &batch));
                    }
                }
            }
            self.core.events_processed += dispatched;
            if rec_on && dispatched > 0 {
                self.core.recorder.note_loop(kind, advance_nanos);
                for _ in 1..dispatched {
                    self.core.recorder.note_loop(kind, 0);
                }
                advance_nanos = 0;
            }
        }
    }

    /// Flip this shard's link replica and notify local endpoints inline
    /// (`a` first, then `b` — the same relative order every shard uses).
    fn apply_admin(&mut self, link: LinkId, up: bool) {
        let l = &mut self.core.links[link.0 as usize];
        l.up = up;
        let endpoints = [l.a, l.b];
        for (node, port) in endpoints {
            if !self.owns(node) {
                continue;
            }
            if self.core.digest_enabled {
                let idx = node.0 as usize;
                let h = fnv_u64(self.core.digests[idx], self.core.now.as_nanos());
                let h = fnv_byte(h, 4);
                let h = fnv_u64(h, u64::from(port));
                self.core.digests[idx] = fnv_byte(h, up as u8);
            }
            self.deliver(node, |n, ctx| n.on_link_status(ctx, port, up));
        }
    }

    fn deliver<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn ShardNode, &mut ShardCtx<'_, '_>),
    {
        let idx = node.0 as usize;
        let mut boxed = self.nodes[idx]
            .take()
            .expect("event for a node this shard owns");
        let mut ctx = ShardCtx {
            self_id: node,
            core: &mut self.core,
        };
        f(&mut *boxed, &mut ctx);
        self.nodes[idx] = Some(boxed);
    }
}

/// A data-plane simulation partitioned across worker threads, producing
/// shard-count-independent results. See the module docs for the design.
pub struct ShardedWorld {
    seed: u64,
    nodes: Vec<Option<Box<dyn ShardNode>>>,
    next_port: Vec<PortNo>,
    links: Vec<ShardLink>,
    ports: PortTable,
    admin: Vec<(Instant, LinkId, bool)>,
    recorder: Recorder,
    digest_enabled: bool,
    ran: bool,
    metrics: Metrics,
    events_processed: u64,
    digest: Option<u64>,
}

impl ShardedWorld {
    /// Create an empty sharded world with the given RNG seed.
    pub fn new(seed: u64) -> ShardedWorld {
        ShardedWorld {
            seed,
            nodes: Vec::new(),
            next_port: Vec::new(),
            links: Vec::new(),
            ports: PortTable::default(),
            admin: Vec::new(),
            recorder: Recorder::new(),
            digest_enabled: false,
            ran: false,
            metrics: Metrics::new(),
            events_processed: 0,
            digest: None,
        }
    }

    /// Add a node; it receives `on_start` at simulated time zero.
    pub fn add_node(&mut self, node: Box<dyn ShardNode>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(node));
        self.next_port.push(1);
        id
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Connect two nodes with a fresh port on each; returns
    /// `(link, port_on_a, port_on_b)`. Link latency must be positive — it
    /// is the engine's lookahead horizon.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        params: LinkParams,
    ) -> (LinkId, PortNo, PortNo) {
        assert!(
            params.latency > Duration::ZERO,
            "sharded links need positive latency (the lookahead horizon)"
        );
        let pa = self.next_port[a.0 as usize];
        self.next_port[a.0 as usize] += 1;
        let pb = self.next_port[b.0 as usize];
        self.next_port[b.0 as usize] += 1;
        let id = LinkId(self.links.len() as u32);
        self.links.push(ShardLink {
            a: (a, pa),
            b: (b, pb),
            params,
            up: true,
            busy_ab: Instant::ZERO,
            busy_ba: Instant::ZERO,
        });
        self.ports.wire(a, pa, id);
        self.ports.wire(b, pb, id);
        (id, pa, pb)
    }

    /// Schedule an administrative up/down flip. Local endpoints receive
    /// `on_link_status` when it takes effect.
    pub fn schedule_link_state(&mut self, link: LinkId, up: bool, at: Instant) {
        self.admin.push((at, link, up));
    }

    /// The world's flight recorder handle. Enabling it before the run
    /// enables every per-shard recorder; loop profiles merge back in.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Record a run digest: a per-node FNV-1a fold of every delivery,
    /// combined with the merged counters. Off by default (benchmarks);
    /// the determinism suites turn it on and compare across shard counts.
    pub fn set_digest_enabled(&mut self, on: bool) {
        self.digest_enabled = on;
    }

    /// Run the simulation to `deadline` across `n_shards` worker threads.
    /// One-shot: a `ShardedWorld` runs exactly once.
    pub fn run_until(&mut self, deadline: Instant, n_shards: usize) {
        assert!(!self.ran, "a ShardedWorld runs exactly once");
        self.ran = true;
        let n_shards = n_shards.clamp(1, self.nodes.len().max(1));
        // The conservative horizon: no cross-node event can land closer
        // than the fastest link's propagation delay.
        let lookahead = self
            .links
            .iter()
            .map(|l| l.params.latency)
            .min()
            .unwrap_or_else(|| deadline.duration_since(Instant::ZERO))
            .max(Duration::from_nanos(1));

        let ports = std::mem::take(&mut self.ports);
        let mut all_nodes = std::mem::take(&mut self.nodes);
        let n_nodes = all_nodes.len();

        // Per-node RNG streams, forked in id order so every shard count
        // sees the same draws. Each shard computes the full table (cheap)
        // and uses only the nodes it owns.
        let rec_enabled = self.recorder.is_enabled();

        let mut workers: Vec<ShardWorker<'_>> = (0..n_shards)
            .map(|shard_id| {
                let mut metrics = Metrics::new();
                let ids = ShardCounters::register(&mut metrics);
                let recorder = Recorder::new();
                recorder.set_enabled(rec_enabled);
                let mut base = Rng::new(self.seed);
                let rngs = (0..n_nodes).map(|i| base.fork(i as u64)).collect();
                ShardWorker {
                    nodes: (0..n_nodes).map(|_| None).collect(),
                    core: ShardCore {
                        shard_id,
                        n_shards,
                        now: Instant::ZERO,
                        links: self.links.clone(),
                        ports: &ports,
                        rngs,
                        emit_seq: vec![0; n_nodes],
                        heap: BinaryHeap::new(),
                        outboxes: (0..n_shards).map(|_| Vec::new()).collect(),
                        metrics,
                        ids,
                        recorder,
                        events_processed: 0,
                        digests: vec![FNV_OFFSET; n_nodes],
                        digest_enabled: self.digest_enabled,
                    },
                }
            })
            .collect();

        // Distribute nodes and seed the root-sourced schedule: starts to
        // their owners, admin flips to every shard (each flips its own
        // link replica). Root seqs follow build order.
        for (i, slot) in all_nodes.iter_mut().enumerate() {
            let shard = i % n_shards;
            workers[shard].nodes[i] = slot.take();
            workers[shard].core.heap.push(Reverse(ShardEvent {
                at: Instant::ZERO,
                src: 0,
                seq: i as u64,
                node: NodeId(i as u32),
                kind: ShardEventKind::Start,
            }));
        }
        for (j, &(at, link, up)) in self.admin.iter().enumerate() {
            for worker in workers.iter_mut() {
                worker.core.heap.push(Reverse(ShardEvent {
                    at,
                    src: 0,
                    seq: (n_nodes + j) as u64,
                    node: NodeId(0),
                    kind: ShardEventKind::AdminLink { link, up },
                }));
            }
        }

        let shared = SharedRun {
            barrier: Barrier::new(n_shards),
            inboxes: (0..n_shards)
                .map(|_| (0..n_shards).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
        };
        std::thread::scope(|scope| {
            for worker in workers.iter_mut() {
                let shared = &shared;
                scope.spawn(move || worker.run(shared, deadline, lookahead));
            }
        });

        // Deterministic merge, in shard order.
        for worker in workers.iter_mut() {
            self.metrics.merge_from(&worker.core.metrics);
            self.recorder.merge_loop_profile(&worker.core.recorder);
            self.events_processed += worker.core.events_processed;
            for (i, slot) in worker.nodes.iter_mut().enumerate() {
                if slot.is_some() {
                    all_nodes[i] = slot.take();
                }
            }
        }
        if self.digest_enabled {
            let mut h = FNV_OFFSET;
            for i in 0..n_nodes {
                h = fnv_u64(h, workers[i % n_shards].core.digests[i]);
            }
            for (name, value) in self.metrics.counters() {
                h = fnv_bytes(h, name.as_bytes());
                h = fnv_u64(h, value);
            }
            self.digest = Some(h);
        }
        drop(workers);
        self.nodes = all_nodes;
        self.ports = ports;
    }

    /// Merged metrics (counters summed by name across shards).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Total events dispatched across all shards.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The run digest, when enabled: identical for identical seeds and
    /// topologies at any shard count.
    pub fn digest(&self) -> Option<u64> {
        self.digest
    }

    /// Downcast a node to its concrete type.
    ///
    /// Panics if the node does not exist or has a different type.
    pub fn node_as<T: ShardNode>(&self, id: NodeId) -> &T {
        self.nodes[id.0 as usize]
            .as_ref()
            .expect("node is being dispatched")
            .as_any()
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Downcast a node to its concrete type, mutably.
    pub fn node_as_mut<T: ShardNode>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.0 as usize]
            .as_mut()
            .expect("node is being dispatched")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A chatty test node: every period it bursts frames on all ports;
    /// received frames are counted and probabilistically echoed back
    /// (bounded by frame length, so chains terminate).
    struct Chatter {
        period: Duration,
        rounds: u64,
        burst: u64,
        sent: u64,
        rx: u64,
        batches: Vec<usize>,
    }

    impl Chatter {
        fn new(period: Duration, rounds: u64, burst: u64) -> Chatter {
            Chatter {
                period,
                rounds,
                burst,
                sent: 0,
                rx: 0,
                batches: Vec::new(),
            }
        }
    }

    impl ShardNode for Chatter {
        fn on_start(&mut self, ctx: &mut ShardCtx<'_, '_>) {
            ctx.set_timer(self.period, 0);
        }

        fn on_timer(&mut self, ctx: &mut ShardCtx<'_, '_>, round: u64) {
            for port in ctx.ports() {
                for k in 0..self.burst {
                    let tag = ctx.rng().next_u64();
                    let frame = [ctx.self_id.0 as u8, port as u8, k as u8, (tag & 0xff) as u8];
                    ctx.transmit(port, &frame);
                    self.sent += 1;
                }
            }
            if round + 1 < self.rounds {
                let period = self.period;
                ctx.set_timer(period, round + 1);
            }
        }

        fn on_packet(&mut self, ctx: &mut ShardCtx<'_, '_>, in_port: PortNo, frame: &[u8]) {
            self.rx += 1;
            if frame.len() < 8 && ctx.rng().gen_bool(0.4) {
                let mut echo = frame.to_vec();
                echo.push(ctx.self_id.0 as u8);
                ctx.transmit(in_port, &echo);
                self.sent += 1;
            }
        }

        fn on_packet_batch(&mut self, ctx: &mut ShardCtx<'_, '_>, frames: &[(PortNo, Vec<u8>)]) {
            self.batches.push(frames.len());
            for (port, frame) in frames {
                self.on_packet(ctx, *port, frame);
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A ring of chatters with mixed link parameters and a mid-run link
    /// flap; returns the full observable outcome of the run.
    fn ring_run(n_shards: usize) -> (u64, Vec<(String, u64)>, u64, Vec<u64>) {
        let mut w = ShardedWorld::new(0x5EED);
        let n = 6u32;
        let ids: Vec<NodeId> = (0..n)
            .map(|_| w.add_node(Box::new(Chatter::new(Duration::from_micros(50), 8, 3))))
            .collect();
        let mut flap = None;
        for i in 0..n {
            let params = if i % 2 == 0 {
                LinkParams::new(Duration::from_micros(10), 1_000_000_000, 4096)
            } else {
                LinkParams::new(Duration::from_micros(25), 0, 0)
            };
            let (link, _, _) = w.connect(ids[i as usize], ids[((i + 1) % n) as usize], params);
            if i == 2 {
                flap = Some(link);
            }
        }
        let flap = flap.unwrap();
        w.schedule_link_state(flap, false, Instant::from_micros(120));
        w.schedule_link_state(flap, true, Instant::from_micros(260));
        w.set_digest_enabled(true);
        w.recorder().set_enabled(true);
        w.run_until(Instant::from_millis(2), n_shards);
        let counters = w
            .metrics()
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let rx: Vec<u64> = ids.iter().map(|&id| w.node_as::<Chatter>(id).rx).collect();
        (w.digest().unwrap(), counters, w.events_processed(), rx)
    }

    #[test]
    fn shard_count_does_not_change_the_run() {
        let one = ring_run(1);
        let two = ring_run(2);
        let four = ring_run(4);
        assert_eq!(one, two);
        assert_eq!(one, four);
        // The run must actually exercise drops and traffic to mean much.
        let drops: u64 = one
            .1
            .iter()
            .filter(|(k, _)| k.starts_with("sim.drops"))
            .map(|(_, v)| v)
            .sum();
        assert!(drops > 0, "flap produced no drops: {:?}", one.1);
        assert!(one.3.iter().sum::<u64>() > 100, "too little traffic");
    }

    #[test]
    fn instant_links_form_multi_frame_batches() {
        let mut w = ShardedWorld::new(7);
        let a = w.add_node(Box::new(Chatter::new(Duration::from_micros(10), 4, 16)));
        let b = w.add_node(Box::new(Chatter::new(Duration::from_secs(10), 1, 0)));
        w.connect(a, b, LinkParams::instant(Duration::from_micros(5)));
        w.run_until(Instant::from_millis(1), 2);
        let peer = w.node_as::<Chatter>(b);
        assert!(
            peer.batches.iter().any(|&len| len > 1),
            "expected batched delivery, got {:?}",
            peer.batches
        );
        assert!(peer.rx >= 64, "all burst frames (plus echoes) arrived");
    }

    #[test]
    fn loop_span_counts_are_shard_count_independent() {
        let profile = |shards: usize| {
            let mut w = ShardedWorld::new(11);
            let a = w.add_node(Box::new(Chatter::new(Duration::from_micros(20), 5, 2)));
            let b = w.add_node(Box::new(Chatter::new(Duration::from_micros(30), 5, 2)));
            w.connect(a, b, LinkParams::default());
            w.recorder().set_enabled(true);
            w.run_until(Instant::from_millis(1), shards);
            w.recorder()
                .loop_profile()
                .into_iter()
                .map(|(k, s)| (k, s.count))
                .collect::<Vec<_>>()
        };
        assert_eq!(profile(1), profile(2));
    }

    #[test]
    #[should_panic(expected = "runs exactly once")]
    fn sharded_world_is_one_shot() {
        let mut w = ShardedWorld::new(1);
        let a = w.add_node(Box::new(Chatter::new(Duration::from_micros(10), 1, 1)));
        let b = w.add_node(Box::new(Chatter::new(Duration::from_micros(10), 1, 1)));
        w.connect(a, b, LinkParams::default());
        w.run_until(Instant::from_micros(100), 1);
        w.run_until(Instant::from_micros(200), 1);
    }

    #[test]
    #[should_panic(expected = "positive latency")]
    fn zero_latency_links_are_rejected() {
        let mut w = ShardedWorld::new(1);
        let a = w.add_node(Box::new(Chatter::new(Duration::from_micros(10), 1, 1)));
        let b = w.add_node(Box::new(Chatter::new(Duration::from_micros(10), 1, 1)));
        w.connect(a, b, LinkParams::new(Duration::ZERO, 0, 0));
    }
}
