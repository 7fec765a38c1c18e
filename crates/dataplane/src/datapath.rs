//! The multi-table pipeline: `process_batch` classifies each frame in
//! turn (microflow probe, megaflow probe, table walk); `process` is its
//! batch of one.

use std::collections::BTreeMap;

use zen_telemetry::{trace_id_for_frame, CacheTier, Recorder, TraceEvent, TraceId};

use crate::action::{apply_rewrite, Action, Rewrite};
use crate::cache::{CacheStats, FlowCache, Program, Segment};
use crate::group::{GroupDesc, GroupTable};
use crate::key::FlowKey;
use crate::matching::{FlowMatch, KeyMask};
use crate::meter::Meter;
use crate::table::{AddOutcome, FlowEntry, FlowSpec, FlowTable, OverflowPolicy, RemovedReason};
use crate::{DatapathId, Nanos, PortNo};

/// What to do with frames no table entry matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissPolicy {
    /// Silently drop (the OpenFlow 1.3 default).
    Drop,
    /// Punt to the controller, truncated to `max_len` bytes.
    ToController {
        /// Truncation limit.
        max_len: u16,
    },
}

/// Why a frame was punted to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketInReason {
    /// Table miss.
    NoMatch,
    /// An explicit `ToController` action.
    Action,
}

/// An externally visible outcome of processing a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Emit `frame` on `port`.
    Output {
        /// Egress port.
        port: PortNo,
        /// The frame as rewritten up to the output action.
        frame: Vec<u8>,
    },
    /// Deliver (a prefix of) the frame to the controller.
    ToController {
        /// Why the frame was punted.
        reason: PacketInReason,
        /// Ingress port.
        in_port: PortNo,
        /// The (possibly truncated) frame.
        frame: Vec<u8>,
        /// The table that punted it.
        table_id: u8,
    },
}

/// Per-port counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Frames received.
    pub rx_frames: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Frames emitted.
    pub tx_frames: u64,
    /// Bytes emitted.
    pub tx_bytes: u64,
    /// Frames dropped at egress (down port).
    pub tx_dropped: u64,
}

/// One port's liveness and counters, side by side so a frame's rx/tx
/// accounting and the liveness check it needs read the same slot.
#[derive(Debug, Clone, Copy)]
struct PortSlot {
    no: PortNo,
    /// Added through [`Datapath::add_port`]. Counters also accrue on
    /// numbers that never were (a frame arriving on, or output to, an
    /// unknown port); those slots stay unregistered: never up, never
    /// flooded to, not listed by [`Datapath::ports`].
    registered: bool,
    up: bool,
    stats: PortStats,
}

/// The port slots, sorted by port number. Embeddings number ports 1, 2,
/// 3, …, so slot `port - 1` is tried first and is nearly always the one;
/// any other numbering falls back to a binary search. Memory is per
/// slot, never per port number.
#[derive(Debug, Default)]
struct PortSlots(Vec<PortSlot>);

impl PortSlots {
    /// `Ok(index)` of `port`'s slot, or `Err(index)` where it belongs.
    fn position(&self, port: PortNo) -> Result<usize, usize> {
        let guess = (port as usize).wrapping_sub(1);
        if self.0.get(guess).is_some_and(|slot| slot.no == port) {
            return Ok(guess);
        }
        self.0.binary_search_by_key(&port, |slot| slot.no)
    }

    fn get(&self, port: PortNo) -> Option<&PortSlot> {
        self.position(port).ok().map(|i| &self.0[i])
    }

    /// `port`'s slot, created unregistered if there is none yet.
    fn slot_mut(&mut self, port: PortNo) -> &mut PortSlot {
        let i = self.position(port).unwrap_or_else(|i| {
            let slot = PortSlot {
                no: port,
                registered: false,
                up: false,
                stats: PortStats::default(),
            };
            self.0.insert(i, slot);
            i
        });
        &mut self.0[i]
    }

    fn up(&self, port: PortNo) -> bool {
        self.get(port).is_some_and(|slot| slot.up)
    }
}

/// A complete switch data plane: flow tables, groups, meters, and ports.
#[derive(Debug)]
pub struct Datapath {
    /// The datapath id this switch announces to the controller.
    pub dpid: DatapathId,
    tables: Vec<FlowTable>,
    groups: GroupTable,
    meters: BTreeMap<u32, Meter>,
    ports: PortSlots,
    miss_policy: MissPolicy,
    /// Frames dropped because no entry matched under [`MissPolicy::Drop`],
    /// a meter fired, or TTL expired.
    pub pipeline_drops: u64,
    cache: FlowCache,
    cache_enabled: bool,
    /// Shared flight recorder (disabled instance by default). Tap points
    /// cost one enabled-check when recording is off.
    recorder: Recorder,
    /// Scratch buffer holding the frame being rewritten, recycled across
    /// frames and calls.
    scratch_frame: Vec<u8>,
    /// Scratch buffer for the trajectory a table walk records, likewise.
    scratch_segments: Vec<Segment>,
}

/// Per-switch ECMP hash: a SplitMix64-style scramble of the flow hash
/// salted with the datapath id. Without the salt, every switch on a
/// multi-tier path extracts the same low bits from the same flow hash,
/// so SELECT choices at successive tiers are perfectly correlated and a
/// fat-tree polarizes onto a fraction of its cores.
fn ecmp_hash(flow_hash: u64, dpid: DatapathId) -> u64 {
    let mut x = flow_hash ^ dpid.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The frame as one action list sees it: the received bytes until an
/// action rewrites them, a working copy from then on. An output copies
/// whichever is current, so a frame no action rewrites is copied once
/// per output and never into `working`.
struct Frame<'a> {
    received: &'a [u8],
    working: &'a mut Vec<u8>,
    rewritten: bool,
}

impl Frame<'_> {
    fn bytes(&self) -> &[u8] {
        if self.rewritten {
            self.working
        } else {
            self.received
        }
    }

    fn to_mut(&mut self) -> &mut Vec<u8> {
        if !self.rewritten {
            self.working.clear();
            self.working.extend_from_slice(self.received);
            self.rewritten = true;
        }
        self.working
    }
}

/// Everything executing an action list reads or writes, borrowed field
/// by field from the [`Datapath`] — apart from its tables and cache, so
/// a cached trajectory can be replayed while the cache lends it, an
/// entry's actions can run while its table lends them, and a group's
/// buckets can run while the group table lends them.
struct Exec<'a> {
    dpid: DatapathId,
    now: Nanos,
    miss_policy: MissPolicy,
    groups: &'a GroupTable,
    meters: &'a mut BTreeMap<u32, Meter>,
    ports: &'a mut PortSlots,
    pipeline_drops: &'a mut u64,
    recorder: &'a Recorder,
    /// Where [`Exec::walk`] notes the trajectory it records.
    segments: &'a mut Vec<Segment>,
    /// Ingress port of the frame in the pipeline.
    in_port: PortNo,
    /// Its trace, set only while the recorder is enabled; lets the
    /// match, group and meter taps attribute their events.
    trace: Option<TraceId>,
}

impl Exec<'_> {
    /// Start on the next frame: note where it came in and whether it
    /// is traced.
    fn begin(&mut self, in_port: PortNo, frame: &[u8]) {
        self.in_port = in_port;
        self.trace = if self.recorder.is_enabled() {
            trace_id_for_frame(frame)
        } else {
            None
        };
    }

    fn record_match(&self, tier: CacheTier) {
        if let Some(trace) = self.trace {
            let dpid = self.dpid;
            self.recorder
                .record(self.now, trace, TraceEvent::DpMatch { dpid, tier });
        }
    }

    /// Emit `bytes` on `port`, counting it as sent or — the port being
    /// down or unknown — as dropped at egress. The effect is reported
    /// either way; the embedding skips outputs to down ports.
    fn output(&mut self, port: PortNo, bytes: &[u8], effects: &mut Vec<Effect>) {
        let slot = self.ports.slot_mut(port);
        if slot.up {
            slot.stats.tx_frames += 1;
            slot.stats.tx_bytes += bytes.len() as u64;
        } else {
            slot.stats.tx_dropped += 1;
        }
        effects.push(Effect::Output {
            port,
            frame: bytes.to_vec(),
        });
    }

    fn punt(
        &self,
        reason: PacketInReason,
        max_len: u16,
        table_id: u8,
        bytes: &[u8],
        effects: &mut Vec<Effect>,
    ) {
        let take = bytes.len().min(usize::from(max_len));
        effects.push(Effect::ToController {
            reason,
            in_port: self.in_port,
            frame: bytes[..take].to_vec(),
            table_id,
        });
    }

    /// Apply the miss policy to a frame no entry of `table_id` matched.
    fn miss(&mut self, table_id: u8, bytes: &[u8], effects: &mut Vec<Effect>) {
        match self.miss_policy {
            MissPolicy::Drop => *self.pipeline_drops += 1,
            MissPolicy::ToController { max_len } => {
                self.punt(PacketInReason::NoMatch, max_len, table_id, bytes, effects);
            }
        }
    }

    /// Execute an action list against `frame`. Returns `false` if the
    /// frame was dropped (meter red or TTL expired).
    fn run(
        &mut self,
        actions: &[Action],
        key: &FlowKey,
        frame: &mut Frame<'_>,
        effects: &mut Vec<Effect>,
        table_id: u8,
    ) -> bool {
        for &action in actions {
            match action {
                Action::Output(port) => self.output(port, frame.bytes(), effects),
                Action::Flood => {
                    // By index: `output` needs the slots mutably. It
                    // only ever adds a slot for an unknown port, and
                    // these are all known.
                    for i in 0..self.ports.0.len() {
                        let slot = self.ports.0[i];
                        if slot.registered && slot.up && slot.no != self.in_port {
                            self.output(slot.no, frame.bytes(), effects);
                        }
                    }
                }
                Action::ToController { max_len } => {
                    self.punt(
                        PacketInReason::Action,
                        max_len,
                        table_id,
                        frame.bytes(),
                        effects,
                    );
                }
                Action::Group(id) => {
                    if let Some(trace) = self.trace {
                        self.recorder.record(
                            self.now,
                            trace,
                            TraceEvent::DpGroup {
                                dpid: self.dpid,
                                group_id: id,
                            },
                        );
                    }
                    // Lent by the table, not by `self`: the buckets may
                    // recurse into `run`.
                    let groups = self.groups;
                    let Some(group) = groups.group(id) else {
                        continue;
                    };
                    for &i in group.select(ecmp_hash(key.flow_hash(), self.dpid)) {
                        let actions = &group.desc().bucket(i).actions;
                        // Each bucket works on its own copy of the
                        // frame, made only if the bucket rewrites it.
                        let forwarded = if actions.iter().any(Action::rewrites) {
                            let mut working = Vec::new();
                            let mut copy = Frame {
                                received: frame.bytes(),
                                working: &mut working,
                                rewritten: false,
                            };
                            self.run(actions, key, &mut copy, effects, table_id)
                        } else {
                            self.run(actions, key, frame, effects, table_id)
                        };
                        if !forwarded {
                            return false;
                        }
                    }
                }
                Action::Meter(id) => {
                    let len = frame.bytes().len();
                    if let Some(meter) = self.meters.get_mut(&id) {
                        let passed = meter.allow(self.now, len);
                        if let Some(trace) = self.trace {
                            self.recorder.record(
                                self.now,
                                trace,
                                TraceEvent::DpMeter {
                                    dpid: self.dpid,
                                    meter_id: id,
                                    passed,
                                },
                            );
                        }
                        if !passed {
                            *self.pipeline_drops += 1;
                            return false;
                        }
                    }
                }
                rewrite => {
                    if apply_rewrite(rewrite, frame.to_mut()) == Rewrite::Drop {
                        *self.pipeline_drops += 1;
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Re-run a cached trajectory against the current frame and state.
    /// Mirrors [`Exec::walk`] exactly: entry and table counters are
    /// credited as if the lookup had happened, each entry's actions run
    /// where they live against live meter/group/port state, and a
    /// mid-replay drop (meter red, TTL expired) terminates the walk just
    /// as it would uncached.
    fn replay(
        &mut self,
        tables: &mut [FlowTable],
        program: &Program,
        key: &FlowKey,
        frame: &mut Frame<'_>,
        effects: &mut Vec<Effect>,
    ) {
        let frame_len = frame.received.len();
        for &segment in program.segments() {
            match segment {
                Segment::Hit {
                    table_id,
                    entry_idx,
                } => {
                    let entry = tables[usize::from(table_id)]
                        .replay_hit(entry_idx as usize, frame_len, self.now)
                        .expect("every table mutation flushes the cache");
                    if !self.run(&entry.spec.actions, key, frame, effects, table_id) {
                        break;
                    }
                }
                Segment::Miss { table_id } => {
                    tables[usize::from(table_id)].record_miss();
                    self.miss(table_id, frame.bytes(), effects);
                }
            }
        }
    }

    /// Walk the tables for one frame (cache miss or cache disabled),
    /// appending its effects. With `record` set, returns the mask of
    /// key fields the walk consulted and its trajectory — unless the
    /// walk was cut short, when there is nothing faithful to cache.
    fn walk(
        &mut self,
        tables: &mut [FlowTable],
        record: bool,
        key: &FlowKey,
        frame: &mut Frame<'_>,
        effects: &mut Vec<Effect>,
    ) -> Option<(KeyMask, Program)> {
        let frame_len = frame.received.len();
        let mut table_id = 0u8;
        let mut mask = KeyMask::default();
        self.segments.clear();
        loop {
            let table = &mut tables[table_id as usize];
            let Some((entry_idx, entry)) =
                table.lookup_with_mask(key, frame_len, self.now, &mut mask)
            else {
                self.segments.push(Segment::Miss { table_id });
                self.miss(table_id, frame.bytes(), effects);
                break;
            };
            let entry_idx = entry_idx as u32;
            self.segments.push(Segment::Hit {
                table_id,
                entry_idx,
            });
            let goto = entry.spec.goto_table;
            if !self.run(&entry.spec.actions, key, frame, effects, table_id) {
                // Dropped mid-pipeline (meter red or TTL expired). The
                // tables this run never reached leave no record, so the
                // trajectory is not a faithful classification — don't
                // cache it. The stateful check reruns on the slow path
                // until a run completes.
                return None;
            }
            match goto {
                Some(next) if next > table_id && (next as usize) < tables.len() => {
                    table_id = next;
                }
                Some(_) | None => break,
            }
        }
        record.then(|| (mask, Program::new(self.segments)))
    }
}

impl Datapath {
    /// A datapath with `n_tables` flow tables (≥ 1) and the given miss
    /// policy.
    pub fn new(dpid: DatapathId, n_tables: usize, miss_policy: MissPolicy) -> Datapath {
        assert!((1..=255).contains(&n_tables));
        Datapath {
            dpid,
            tables: (0..n_tables).map(|_| FlowTable::new()).collect(),
            groups: GroupTable::new(),
            meters: BTreeMap::new(),
            ports: PortSlots::default(),
            miss_policy,
            pipeline_drops: 0,
            cache: FlowCache::new(),
            cache_enabled: true,
            recorder: Recorder::new(),
            scratch_frame: Vec::new(),
            scratch_segments: Vec::new(),
        }
    }

    /// Install a shared flight recorder handle. The datapath records
    /// per-packet match/group/meter events into it while it is enabled.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Enable or disable the two-tier flow cache (enabled by default).
    /// Disabling also drops all cached entries, so re-enabling starts
    /// cold. Cached and uncached processing are behaviourally identical;
    /// the toggle exists for benchmarking and differential testing.
    pub fn set_flow_cache_enabled(&mut self, enabled: bool) {
        if self.cache_enabled != enabled {
            self.cache_enabled = enabled;
            self.cache.invalidate();
        }
    }

    /// Whether the flow cache is consulted by [`Datapath::process`].
    pub fn flow_cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Flow-cache hit/miss/invalidation counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// The cache generation: bumped on every invalidation, so observers
    /// can tell "same counters" from "cleared and refilled".
    pub fn cache_generation(&self) -> u64 {
        self.cache.generation()
    }

    /// Entries currently cached across both tiers.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Register a port (initially up).
    pub fn add_port(&mut self, port: PortNo) {
        let slot = self.ports.slot_mut(port);
        slot.registered = true;
        slot.up = true;
        self.port_state_changed();
    }

    /// Record a port's operational state.
    pub fn set_port_up(&mut self, port: PortNo, up: bool) {
        if let Ok(i) = self.ports.position(port) {
            let slot = &mut self.ports.0[i];
            if slot.registered && slot.up != up {
                slot.up = up;
                self.port_state_changed();
            }
        }
    }

    /// Everything derived from port state is rebuilt: the groups'
    /// live-bucket lists, and the cache.
    fn port_state_changed(&mut self) {
        let ports = &self.ports;
        self.groups.refresh(|port| ports.up(port));
        self.cache.invalidate();
    }

    /// Whether a port exists and is up.
    pub fn port_up(&self, port: PortNo) -> bool {
        self.ports.up(port)
    }

    /// All registered ports in ascending order.
    pub fn ports(&self) -> Vec<PortNo> {
        let registered = self.ports.0.iter().filter(|slot| slot.registered);
        registered.map(|slot| slot.no).collect()
    }

    /// Counters for `port` (zeroes for unknown ports).
    pub fn port_stats(&self, port: PortNo) -> PortStats {
        self.ports
            .get(port)
            .map(|slot| slot.stats)
            .unwrap_or_default()
    }

    /// Number of flow tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Access a flow table (stats, dumps).
    pub fn table(&self, id: u8) -> &FlowTable {
        &self.tables[id as usize]
    }

    /// Bound table `table_id` at `max_entries` under `policy`.
    ///
    /// # Panics
    /// Panics if `table_id` is out of range.
    pub fn set_table_limit(&mut self, table_id: u8, max_entries: usize, policy: OverflowPolicy) {
        self.tables[table_id as usize].set_limit(max_entries, policy);
    }

    /// Install a flow in a table, reporting what the table did with it
    /// (capacity refusal or eviction included). A refused add leaves
    /// the pipeline untouched, so the cache stays valid.
    ///
    /// # Panics
    /// Panics if `table_id` is out of range.
    pub fn add_flow(&mut self, table_id: u8, spec: FlowSpec, now: Nanos) -> AddOutcome {
        let outcome = self.tables[table_id as usize].add(spec, now);
        if !matches!(outcome, AddOutcome::Refused) {
            self.cache.invalidate();
        }
        outcome
    }

    /// Strict-delete a flow. Returns it if present.
    pub fn delete_flow_strict(
        &mut self,
        table_id: u8,
        priority: u16,
        matcher: &FlowMatch,
    ) -> Option<FlowEntry> {
        let removed = self.tables[table_id as usize].delete_strict(priority, matcher);
        if removed.is_some() {
            self.cache.invalidate();
        }
        removed
    }

    /// Delete all flows carrying `cookie`, across every table.
    pub fn delete_flows_by_cookie(&mut self, cookie: u64) -> Vec<(u8, FlowEntry)> {
        let mut removed = Vec::new();
        for (id, table) in self.tables.iter_mut().enumerate() {
            for entry in table.delete_by_cookie(cookie) {
                removed.push((id as u8, entry));
            }
        }
        if !removed.is_empty() {
            self.cache.invalidate();
        }
        removed
    }

    /// Total installed flow entries across tables.
    pub fn flow_count(&self) -> usize {
        self.tables.iter().map(FlowTable::len).sum()
    }

    /// Run table expiry, appending the evicted entries (for
    /// FLOW_REMOVED) to `removed`: a caller that sweeps on a timer
    /// keeps one buffer, and a sweep that finds nothing due touches
    /// neither it nor the cache.
    pub fn expire(&mut self, now: Nanos, removed: &mut Vec<(u8, FlowEntry, RemovedReason)>) {
        let before = removed.len();
        for (id, table) in self.tables.iter_mut().enumerate() {
            table.expire_with(now, |entry, reason| removed.push((id as u8, entry, reason)));
        }
        if removed.len() > before {
            self.cache.invalidate();
        }
    }

    /// The group table (read-only; see [`Datapath::add_group`]).
    pub fn groups(&self) -> &GroupTable {
        &self.groups
    }

    /// Install or replace a group. The cache stays valid: it records
    /// which *actions* a flow runs, and a `Group` action is looked up
    /// in this table every time it executes.
    pub fn add_group(&mut self, id: u32, desc: GroupDesc) {
        let ports = &self.ports;
        self.groups.add(id, desc, |port| ports.up(port));
    }

    /// Remove a group; returns whether it existed. Flows that still
    /// name it skip the action, as for a group never installed.
    pub fn remove_group(&mut self, id: u32) -> bool {
        self.groups.remove(id)
    }

    /// Install or replace a meter.
    pub fn set_meter(&mut self, id: u32, rate_bps: u64, burst_bytes: u64) {
        self.meters.insert(id, Meter::new(rate_bps, burst_bytes));
        self.cache.invalidate();
    }

    /// Remove a meter; returns whether it existed.
    pub fn remove_meter(&mut self, id: u32) -> bool {
        let existed = self.meters.remove(&id).is_some();
        if existed {
            self.cache.invalidate();
        }
        existed
    }

    /// Inspect a meter.
    pub fn meter(&self, id: u32) -> Option<&Meter> {
        self.meters.get(&id)
    }

    /// Split the datapath into the three parts frame processing works
    /// on at once: the tables it walks or credits, the cache that lends
    /// it trajectories, and everything action execution touches.
    fn parts(&mut self, now: Nanos) -> (&mut [FlowTable], &mut FlowCache, Exec<'_>) {
        let exec = Exec {
            dpid: self.dpid,
            now,
            miss_policy: self.miss_policy,
            groups: &self.groups,
            meters: &mut self.meters,
            ports: &mut self.ports,
            pipeline_drops: &mut self.pipeline_drops,
            recorder: &self.recorder,
            segments: &mut self.scratch_segments,
            in_port: 0,
            trace: None,
        };
        (&mut self.tables, &mut self.cache, exec)
    }

    /// Execute a controller-supplied action list on an injected frame
    /// (the PACKET_OUT path), appending the outcomes to `effects` so a
    /// caller can recycle one buffer across frames. `in_port` is used
    /// by `Flood` exclusion and may be 0 for "none".
    pub fn inject_into(
        &mut self,
        now: Nanos,
        in_port: PortNo,
        actions: &[Action],
        frame: &[u8],
        effects: &mut Vec<Effect>,
    ) {
        let key = FlowKey::extract(in_port, frame).unwrap_or(FlowKey {
            in_port,
            eth_src: zen_wire::EthernetAddress::ZERO,
            eth_dst: zen_wire::EthernetAddress::ZERO,
            ethertype: 0,
            vlan: None,
            epoch: None,
            ipv4: None,
            l4: None,
        });
        let mut working = std::mem::take(&mut self.scratch_frame);
        let (_, _, mut exec) = self.parts(now);
        exec.begin(in_port, frame);
        let mut frame = Frame {
            received: frame,
            working: &mut working,
            rewritten: false,
        };
        exec.run(actions, &key, &mut frame, effects, 0);
        self.scratch_frame = working;
    }

    /// Process one received frame through the pipeline.
    ///
    /// With the flow cache enabled (the default), the parsed key is
    /// first checked against the microflow and megaflow tiers; a hit
    /// replays the memoized table-walk trajectory — re-executing the
    /// recorded action lists against current datapath state and
    /// crediting the matched entries' counters — which is observably
    /// identical to walking the tables. A miss takes the slow path,
    /// accumulating the mask of consulted key fields, and installs the
    /// resulting trajectory into both tiers.
    /// This is a batch-of-one shim over [`Datapath::process_batch`].
    pub fn process(&mut self, now: Nanos, in_port: PortNo, frame: &[u8]) -> Vec<Effect> {
        let mut effects = Vec::new();
        self.process_batch(now, &[(in_port, frame)], &mut effects);
        effects
    }

    /// Process a batch of received frames, appending every externally
    /// visible outcome to `effects` in frame order.
    ///
    /// Each frame is classified on its own, exactly as [`Datapath::process`]
    /// would: microflow probe, megaflow probe, then the table walk. A batch
    /// is therefore observably the same frames sent one by one — effects,
    /// counters, meter state, drops and [`CacheStats`] alike. The only
    /// state kept across frames is the recycled rewrite buffer.
    pub fn process_batch(
        &mut self,
        now: Nanos,
        batch: &[(PortNo, &[u8])],
        effects: &mut Vec<Effect>,
    ) {
        let mut working = std::mem::take(&mut self.scratch_frame);
        let cache_enabled = self.cache_enabled;
        let (tables, cache, mut exec) = self.parts(now);
        for &(in_port, received) in batch {
            {
                let stats = &mut exec.ports.slot_mut(in_port).stats;
                stats.rx_frames += 1;
                stats.rx_bytes += received.len() as u64;
            }
            let Some(key) = FlowKey::extract(in_port, received) else {
                *exec.pipeline_drops += 1;
                continue;
            };
            exec.begin(in_port, received);
            let mut frame = Frame {
                received,
                working: &mut working,
                rewritten: false,
            };
            let hit = if cache_enabled {
                match cache.lookup_micro(&key) {
                    Some(program) => Some((program, CacheTier::Micro)),
                    None => cache
                        .lookup_mega(&key)
                        .map(|program| (program, CacheTier::Mega)),
                }
            } else {
                None
            };
            match hit {
                Some((program, tier)) => {
                    exec.record_match(tier);
                    exec.replay(tables, program, &key, &mut frame, effects);
                }
                None => {
                    exec.record_match(CacheTier::Slow);
                    let walked = exec.walk(tables, cache_enabled, &key, &mut frame, effects);
                    if let Some((mask, program)) = walked {
                        cache.insert(key, mask, program);
                    }
                }
            }
        }
        self.scratch_frame = working;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{Bucket, GroupDesc, GroupType};
    use zen_wire::builder::PacketBuilder;
    use zen_wire::{EthernetAddress, Ipv4Address};

    const M1: EthernetAddress = EthernetAddress([2, 0, 0, 0, 0, 1]);
    const M2: EthernetAddress = EthernetAddress([2, 0, 0, 0, 0, 2]);
    const IP1: Ipv4Address = Ipv4Address::new(10, 0, 0, 1);
    const IP2: Ipv4Address = Ipv4Address::new(10, 0, 0, 2);

    fn dp(n_tables: usize) -> Datapath {
        let mut dp = Datapath::new(1, n_tables, MissPolicy::ToController { max_len: 128 });
        for p in 1..=4 {
            dp.add_port(p);
        }
        dp
    }

    fn udp(dst_port: u16) -> Vec<u8> {
        PacketBuilder::udp(M1, IP1, 999, M2, IP2, dst_port, b"payload")
    }

    #[test]
    fn exact_forwarding() {
        let mut dp = dp(1);
        let key = FlowKey::extract(1, &udp(53)).unwrap();
        dp.add_flow(
            0,
            FlowSpec::new(10, FlowMatch::exact(&key), vec![Action::Output(2)]),
            0,
        );
        let effects = dp.process(0, 1, &udp(53));
        assert_eq!(effects.len(), 1);
        assert!(matches!(&effects[0], Effect::Output { port: 2, .. }));
        assert_eq!(dp.port_stats(2).tx_frames, 1);
        assert_eq!(dp.port_stats(1).rx_frames, 1);
    }

    #[test]
    fn miss_punts_truncated() {
        let mut dp = Datapath::new(1, 1, MissPolicy::ToController { max_len: 20 });
        dp.add_port(1);
        let frame = udp(53);
        let effects = dp.process(0, 1, &frame);
        assert_eq!(effects.len(), 1);
        match &effects[0] {
            Effect::ToController {
                reason,
                in_port,
                frame: punted,
                table_id,
            } => {
                assert_eq!(*reason, PacketInReason::NoMatch);
                assert_eq!(*in_port, 1);
                assert_eq!(punted.len(), 20);
                assert_eq!(*table_id, 0);
                assert_eq!(&punted[..], &frame[..20]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn miss_policy_drop() {
        let mut dp = Datapath::new(1, 1, MissPolicy::Drop);
        dp.add_port(1);
        assert!(dp.process(0, 1, &udp(1)).is_empty());
        assert_eq!(dp.pipeline_drops, 1);
    }

    #[test]
    fn flood_excludes_ingress_and_down() {
        let mut dp = dp(1);
        dp.set_port_up(3, false);
        dp.add_flow(0, FlowSpec::new(1, FlowMatch::ANY, vec![Action::Flood]), 0);
        let effects = dp.process(0, 1, &udp(1));
        let ports: Vec<PortNo> = effects
            .iter()
            .map(|e| match e {
                Effect::Output { port, .. } => *port,
                _ => panic!(),
            })
            .collect();
        assert_eq!(ports, vec![2, 4]);
    }

    #[test]
    fn multi_table_acl_then_forward() {
        let mut dp = dp(2);
        // Table 0: drop UDP/53 (deny rule: no actions, no goto), else goto 1.
        dp.add_flow(
            0,
            FlowSpec::new(10, FlowMatch::ANY.with_ip_proto(17).with_l4_dst(53), vec![]),
            0,
        );
        dp.add_flow(0, FlowSpec::new(1, FlowMatch::ANY, vec![]).with_goto(1), 0);
        // Table 1: forward everything to port 2.
        dp.add_flow(
            1,
            FlowSpec::new(1, FlowMatch::ANY, vec![Action::Output(2)]),
            0,
        );

        assert!(dp.process(0, 1, &udp(53)).is_empty(), "denied flow leaked");
        let effects = dp.process(0, 1, &udp(80));
        assert_eq!(effects.len(), 1);
        assert!(matches!(&effects[0], Effect::Output { port: 2, .. }));
    }

    #[test]
    fn goto_must_move_forward() {
        let mut dp = dp(2);
        // A malformed goto pointing at its own table must not loop.
        dp.add_flow(
            1,
            FlowSpec::new(1, FlowMatch::ANY, vec![Action::Output(2)]).with_goto(1),
            0,
        );
        dp.add_flow(0, FlowSpec::new(1, FlowMatch::ANY, vec![]).with_goto(1), 0);
        let effects = dp.process(0, 1, &udp(1));
        assert_eq!(effects.len(), 1, "pipeline must terminate");
    }

    #[test]
    fn select_group_is_flow_stable() {
        let mut dp = dp(1);
        dp.add_group(
            7,
            GroupDesc {
                group_type: GroupType::Select,
                buckets: vec![Bucket::output(2), Bucket::output(3), Bucket::output(4)],
            },
        );
        dp.add_flow(
            0,
            FlowSpec::new(1, FlowMatch::ANY, vec![Action::Group(7)]),
            0,
        );
        let first = dp.process(0, 1, &udp(1000));
        // Same flow, later packet: same bucket.
        let second = dp.process(1, 1, &udp(1000));
        assert_eq!(first, second);
        // Different flows eventually use different ports.
        let mut ports = std::collections::BTreeSet::new();
        for dst in 0..64u16 {
            for e in dp.process(2, 1, &udp(dst)) {
                if let Effect::Output { port, .. } = e {
                    ports.insert(port);
                }
            }
        }
        assert!(ports.len() >= 2, "ECMP never spread: {ports:?}");
    }

    #[test]
    fn select_group_follows_port_and_group_changes() {
        let mut dp = dp(1);
        let ecmp = |ports: &[PortNo]| GroupDesc {
            group_type: GroupType::Select,
            buckets: ports.iter().map(|&p| Bucket::output(p)).collect(),
        };
        dp.add_group(7, ecmp(&[2, 3, 4]));
        dp.add_flow(
            0,
            FlowSpec::new(1, FlowMatch::ANY, vec![Action::Group(7)]),
            0,
        );
        let out_port = |dp: &mut Datapath| match dp.process(0, 1, &udp(1000)).as_slice() {
            [Effect::Output { port, .. }] => Some(*port),
            [] => None,
            other => panic!("unexpected {other:?}"),
        };
        let first = out_port(&mut dp).unwrap();
        // Its port goes down: the flow moves to a live bucket, and
        // comes back when the port does.
        dp.set_port_up(first, false);
        let detour = out_port(&mut dp).unwrap();
        assert_ne!(detour, first);
        dp.set_port_up(first, true);
        assert_eq!(out_port(&mut dp), Some(first));
        // The group is replaced under the cached flow, built while one
        // of its ports is down: only the live bucket may be chosen.
        dp.set_port_up(2, false);
        dp.add_group(7, ecmp(&[2, 3]));
        assert_eq!(out_port(&mut dp), Some(3));
        dp.set_port_up(3, false);
        assert_eq!(out_port(&mut dp), None, "no live bucket");
        dp.set_port_up(2, true);
        assert_eq!(out_port(&mut dp), Some(2));
        // Removed: the action is skipped, as for a group never there.
        assert!(dp.remove_group(7));
        assert_eq!(out_port(&mut dp), None);
    }

    #[test]
    fn failover_group_reacts_to_port_state() {
        let mut dp = dp(1);
        dp.add_group(
            9,
            GroupDesc {
                group_type: GroupType::FastFailover,
                buckets: vec![Bucket::output(2), Bucket::output(3)],
            },
        );
        dp.add_flow(
            0,
            FlowSpec::new(1, FlowMatch::ANY, vec![Action::Group(9)]),
            0,
        );
        let effects = dp.process(0, 1, &udp(1));
        assert!(matches!(&effects[0], Effect::Output { port: 2, .. }));
        dp.set_port_up(2, false);
        let effects = dp.process(1, 1, &udp(1));
        assert!(matches!(&effects[0], Effect::Output { port: 3, .. }));
    }

    #[test]
    fn bucket_rewrites_stay_in_the_bucket() {
        let mut dp = dp(1);
        let mac = EthernetAddress::from_id(0x77);
        dp.add_group(
            5,
            GroupDesc {
                group_type: GroupType::All,
                buckets: vec![
                    Bucket {
                        actions: vec![Action::SetEthDst(mac), Action::Output(2)],
                        watch_port: None,
                    },
                    Bucket::output(3),
                ],
            },
        );
        dp.add_flow(
            0,
            FlowSpec::new(1, FlowMatch::ANY, vec![Action::Group(5), Action::Output(4)]),
            0,
        );
        let frame = udp(1);
        let mut rewritten = frame.clone();
        rewritten[..6].copy_from_slice(&mac.0);
        // Once through the table walk, once replayed from the cache.
        for now in 0..2 {
            assert_eq!(
                dp.process(now, 1, &frame),
                vec![
                    Effect::Output {
                        port: 2,
                        frame: rewritten.clone()
                    },
                    Effect::Output {
                        port: 3,
                        frame: frame.clone()
                    },
                    Effect::Output {
                        port: 4,
                        frame: frame.clone()
                    },
                ]
            );
        }
    }

    #[test]
    fn meter_drops_excess() {
        let mut dp = dp(1);
        dp.set_meter(1, 8_000, 50); // 8 kb/s, 50-byte burst
        dp.add_flow(
            0,
            FlowSpec::new(1, FlowMatch::ANY, vec![Action::Meter(1), Action::Output(2)]),
            0,
        );
        // One 43-byte frame fits in the burst; a second at the same
        // instant does not.
        let small = PacketBuilder::udp(M1, IP1, 1, M2, IP2, 2, b"x");
        assert!(!dp.process(0, 1, &small).is_empty());
        // Bucket exhausted: next frame at the same instant drops.
        assert!(dp.process(0, 1, &small).is_empty());
        assert_eq!(dp.meter(1).unwrap().dropped, 1);
    }

    #[test]
    fn rewrite_then_output() {
        let mut dp = dp(1);
        let m3 = EthernetAddress([2, 0, 0, 0, 0, 3]);
        dp.add_flow(
            0,
            FlowSpec::new(
                1,
                FlowMatch::ANY,
                vec![Action::SetEthDst(m3), Action::DecTtl, Action::Output(2)],
            ),
            0,
        );
        let effects = dp.process(0, 1, &udp(1));
        let Effect::Output { frame, .. } = &effects[0] else {
            panic!();
        };
        let key = FlowKey::extract(2, frame).unwrap();
        assert_eq!(key.eth_dst, m3);
    }

    #[test]
    fn output_before_rewrite_sends_original() {
        let mut dp = dp(1);
        let m3 = EthernetAddress([2, 0, 0, 0, 0, 3]);
        dp.add_flow(
            0,
            FlowSpec::new(
                1,
                FlowMatch::ANY,
                vec![Action::Output(2), Action::SetEthDst(m3), Action::Output(3)],
            ),
            0,
        );
        let effects = dp.process(0, 1, &udp(1));
        let frames: Vec<&Vec<u8>> = effects
            .iter()
            .map(|e| match e {
                Effect::Output { frame, .. } => frame,
                _ => panic!(),
            })
            .collect();
        let k0 = FlowKey::extract(1, frames[0]).unwrap();
        let k1 = FlowKey::extract(1, frames[1]).unwrap();
        assert_eq!(k0.eth_dst, M2, "first output sees pre-rewrite frame");
        assert_eq!(k1.eth_dst, m3);
    }

    #[test]
    fn output_to_down_port_filtered() {
        let mut dp = dp(1);
        dp.add_flow(
            0,
            FlowSpec::new(1, FlowMatch::ANY, vec![Action::Output(2)]),
            0,
        );
        dp.set_port_up(2, false);
        let effects = dp.process(0, 1, &udp(1));
        assert_eq!(effects.len(), 1, "process still reports the intent");
        assert_eq!(dp.port_stats(2).tx_dropped, 1);
        assert!(!dp.port_up(2), "the agent skips it");
    }

    #[test]
    fn expiry_and_cookie_delete() {
        let mut dp = dp(1);
        dp.add_flow(
            0,
            FlowSpec::new(1, FlowMatch::ANY, vec![])
                .with_timeouts(0, 100)
                .with_cookie(5),
            0,
        );
        dp.add_flow(
            0,
            FlowSpec::new(2, FlowMatch::ANY, vec![]).with_cookie(5),
            0,
        );
        assert_eq!(dp.flow_count(), 2);
        let mut expired = Vec::new();
        dp.expire(100, &mut expired);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].2, RemovedReason::HardTimeout);
        assert_eq!(dp.delete_flows_by_cookie(5).len(), 1);
        assert_eq!(dp.flow_count(), 0);
    }
}
