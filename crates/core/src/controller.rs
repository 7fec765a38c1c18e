//! The logically centralized controller.
//!
//! The controller is itself a simulator node; switch agents reach it
//! over the out-of-band control channel. It owns the
//! [`view::NetworkView`](crate::view::NetworkView), runs LLDP topology
//! discovery, learns host locations from punted edge traffic, and
//! dispatches everything else to the application chain.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use zen_cluster::{Admit, ClusterConfig, EwStore, Membership};
use zen_consensus::{fnv1a, fnv1a_fold, Applied, IntentReplica, Outbound, KEEP_TAIL};
use zen_dataplane::{epoch_tag, Action, FlowMatch, FlowSpec, GroupDesc, Meter, PortNo};
use zen_proto::{
    decode_view, encode_packet_out_into, intent_entry_bytes, CookieCount, ErrorCode, FlowModCmd,
    GroupModCmd, Intent, IntentEntry, Message, MessageView, Role, ViewEvent, XidList,
};
use zen_sim::{Context, Duration, Instant, Node, NodeId};
use zen_telemetry::{control_trace, trace_id_for_frame, TraceEvent, TraceId};
use zen_wire::ethernet::{EtherType, Frame};
use zen_wire::{arp, ipv4, lldp, EthernetAddress};

use crate::app::{App, Disposition};
use crate::southbound::{delta, ProgramBase, Reconciled, ShadowOp, Southbound};
use crate::txn::{
    ActiveTxn, Consistency, FlowRole, NetworkUpdate, TxnPhase, UpdateOp, UpdatePlanner,
};
use crate::view::{Dpid, NetworkView};
use crate::{is_lldp, send_msg};

const TIMER_TICK: u64 = 1;
/// Fair-queue drain timer for deferred PACKET_INs (admission control).
const TIMER_ADMIT: u64 = 2;
/// One-shot: soft mods have ridden unfenced for the fence interval.
/// Not the tick: a late fence must not cost a resend.
const TIMER_FENCE: u64 = 3;

pub use crate::policy::{PUSHBACK_COOKIE, PUSHBACK_IMPORTANCE, PUSHBACK_PRIORITY};

/// Cap on east-west entries pushed to one peer per tick; the rest go
/// out on following ticks.
const EW_BATCH: usize = 64;

/// TTL stamped into discovery LLDPs.
const LLDP_TTL_SECS: u16 = 120;
/// Drain wave after a two-phase update flips its edge rules: packets
/// stamped with the old epoch get this long to exit the network before
/// its rules are garbage-collected.
const TXN_DRAIN: Duration = Duration::from_millis(100);
/// Give-up budget per two-phase transaction phase. A staging
/// transaction past its deadline aborts (a touched switch may be dead
/// and its acks will never come); a flipping one force-advances and
/// leaves the straggler to the resync machinery.
const TXN_DEADLINE: Duration = Duration::from_secs(2);
/// How many emptied action lists are kept for [`Ctl::actions`].
const SPARE_ACTIONS: usize = 16;

/// Controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Discovery + app tick period.
    pub tick_interval: Duration,
    /// Age after which an unconfirmed link is declared dead (silent
    /// failure detection). Should be several tick intervals.
    pub link_max_age: Duration,
    /// Silence from an agent (no message of any kind, echo replies
    /// included) before it is quarantined in the view. Should be
    /// several echo intervals.
    pub agent_dead_after: Duration,
    /// Age of an unacknowledged flow/group/meter mod before it is
    /// retransmitted.
    pub mod_timeout: Duration,
    /// Retransmission attempts before a mod is counted as failed.
    pub mod_max_retries: u32,
    /// Controller-side PACKET_IN admission control. `None` = every
    /// punt is dispatched immediately (the classic behaviour).
    pub admission: Option<AdmissionConfig>,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig {
            tick_interval: Duration::from_millis(50),
            link_max_age: Duration::from_millis(175),
            agent_dead_after: Duration::from_millis(300),
            mod_timeout: Duration::from_millis(150),
            mod_max_retries: 8,
            admission: None,
        }
    }
}

/// Controller-side PACKET_IN admission control: per-switch token
/// buckets with fair-queued overflow, so one switch's punt storm can
/// neither starve the other switches nor monopolize the controller.
///
/// Punts within a switch's budget dispatch immediately. Over-budget
/// punts are *deferred* into that switch's bounded queue and released
/// by a round-robin drain timer — every switch gets an equal share of
/// leftover capacity regardless of who is noisiest. When a queue
/// overflows, the excess is *shed*, and each shed or deferred punt is
/// charged to its `(ingress port, source MAC)`; past
/// [`AdmissionConfig::pushback_threshold`] the controller *pushes
/// back*, installing a targeted drop rule (cookie
/// [`PUSHBACK_COOKIE`]) on the offending ingress so the storm dies at
/// the edge instead of in the control plane. LLDP discovery returns
/// bypass the meter entirely: topology must stay alive precisely when
/// the fleet is under attack.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Sustained PACKET_INs per second admitted directly, per switch.
    pub rate_pps: u64,
    /// Burst allowance per switch, in PACKET_INs.
    pub burst: u64,
    /// Per-switch deferred-punt queue capacity; overflow is shed.
    pub queue_cap: usize,
    /// Period of the fair-queue drain timer.
    pub drain_interval: Duration,
    /// Deferred punts released per drain, round-robin across switches.
    pub drain_batch: usize,
    /// Deferred-or-shed punts charged to one `(ingress, source MAC)`
    /// within [`AdmissionConfig::pushback_window`] before a drop rule
    /// is installed there. `0` disables push-back.
    pub pushback_threshold: u64,
    /// Offender accounting window (counts reset at this period).
    pub pushback_window: Duration,
    /// Hard timeout of installed push-back drop rules; a persistent
    /// attacker is re-pinned when the rule lapses and the storm
    /// resumes.
    pub pushback_hold: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            rate_pps: 2_000,
            burst: 256,
            queue_cap: 512,
            drain_interval: Duration::from_millis(1),
            drain_batch: 64,
            pushback_threshold: 200,
            pushback_window: Duration::from_millis(1_000),
            pushback_hold: Duration::from_millis(2_000),
        }
    }
}

/// Controller counters, read by experiments.
#[derive(Debug, Default, Clone, Copy)]
pub struct CtlStats {
    /// PACKET_INs received (excluding LLDP discovery returns).
    pub packet_ins: u64,
    /// LLDP discovery PACKET_INs received.
    pub lldp_ins: u64,
    /// FLOW_MODs sent.
    pub flow_mods: u64,
    /// GROUP_MODs sent.
    pub group_mods: u64,
    /// PACKET_OUTs sent.
    pub packet_outs: u64,
    /// Total control messages sent.
    pub msgs_sent: u64,
    /// Total control messages received.
    pub msgs_received: u64,
    /// Protocol decode errors.
    pub decode_errors: u64,
    /// ECHO_REQUEST liveness probes sent to agents.
    pub echo_probes: u64,
    /// ECHO_REPLYs received from agents.
    pub echo_replies: u64,
    /// Mods confirmed applied by a barrier acknowledgement.
    pub mods_acked: u64,
    /// Mods resent after their barrier ack timed out.
    pub mods_retransmitted: u64,
    /// Mods abandoned after exhausting retransmissions.
    pub mods_failed: u64,
    /// Pending mods discarded because a resync replaced them.
    pub mods_superseded: u64,
    /// Agents quarantined for silence.
    pub quarantines: u64,
    /// Reconnect resyncs where the reported state matched ours.
    pub resyncs_clean: u64,
    /// Reconnect resyncs that diverged and triggered reprogramming.
    pub resyncs_dirty: u64,
    /// East-west heartbeats sent to peer replicas.
    pub ew_heartbeats: u64,
    /// East-west events applied from peer replicas.
    pub ew_events_applied: u64,
    /// East-west events skipped (duplicate, out of order, or losing a
    /// last-writer-wins race).
    pub ew_events_skipped: u64,
    /// Switches this replica took mastership of.
    pub masterships_gained: u64,
    /// Switches this replica relinquished (a peer revived, or a stronger
    /// claim was observed at the switch).
    pub masterships_lost: u64,
    /// NOT_MASTER errors received for mods that crossed a mastership
    /// change in flight.
    pub nonmaster_errors: u64,
    /// TABLE_FULL errors received: flow adds a switch refused for lack
    /// of capacity (refuse overflow policy). Each retires its pending
    /// mod as failed — retransmitting cannot create capacity.
    pub table_full_errors: u64,
    /// FLOW_REMOVED notices with reason Eviction: entries a switch
    /// displaced to make room under the evict overflow policy.
    pub evictions_noted: u64,
    /// PACKET_INs admitted directly by admission control (within the
    /// per-switch budget; stays 0 when admission is disabled).
    pub punts_admitted: u64,
    /// PACKET_INs deferred into the per-switch fair queue.
    pub punts_deferred: u64,
    /// Deferred PACKET_INs later dispatched by the drain timer.
    pub punts_drained: u64,
    /// PACKET_INs shed because the per-switch queue was full.
    pub punts_shed: u64,
    /// Push-back drop rules installed on offending ingress ports.
    pub pushbacks_installed: u64,
    /// Network updates committed (all consistency levels).
    pub txns_committed: u64,
    /// Two-phase updates aborted (staging failure or deadline).
    pub txns_aborted: u64,
    /// Per-packet updates that took the single-switch fast path.
    pub txns_fast: u64,
    /// Edge-flip mods that failed mid-transaction; the transaction
    /// completed and the straggler switch was left to resync repair.
    pub epoch_flip_failures: u64,
    /// East-west log entries pushed or served to peer replicas.
    pub ew_entries_sent: u64,
    /// East-west digest frames sent to peer replicas.
    pub ew_digests_sent: u64,
    /// East-west fetch requests sent after a digest showed us behind.
    pub ew_fetches_sent: u64,
    /// East-west snapshots served to peers too far behind to repair
    /// from retained log ranges.
    pub ew_snapshots_sent: u64,
    /// East-west snapshots installed from a peer (fresh bootstrap or
    /// divergence repair).
    pub ew_snapshots_installed: u64,
    /// Intents proposed by this replica (local applications).
    pub intents_proposed: u64,
    /// Intents observed committed (applied from the replicated log).
    pub intents_committed: u64,
    /// Consensus protocol messages sent (propose/append/ack/fetch/
    /// catchup frames between replicas).
    pub intent_msgs_sent: u64,
}

/// Runtime state of one replica in a controller cluster.
struct ClusterState {
    membership: Membership,
    store: EwStore,
    /// Switches this replica currently exercises mastership over.
    my_masters: BTreeSet<Dpid>,
    /// Claims observed at switches that outrank ours: dpid → the
    /// `(term, replica)` that won. Cleared once our own claim grows
    /// past the recorded one.
    deferred: BTreeMap<Dpid, (u64, u32)>,
    /// Replicated program stamps: (dpid, app cookie) → content hash of
    /// the owning app's desired program. A replica gaining mastership
    /// reprograms only when its own desired hash disagrees.
    program_stamps: BTreeMap<(Dpid, u64), u64>,
    /// Replicated intent log: leader election, append/ack replication,
    /// and snapshot catch-up for linearizable control intents.
    intents: IntentReplica,
    /// Committed mastership pins: dpid → replica index. Overrides the
    /// hash-based assignment while the pinned replica is alive.
    pins: BTreeMap<Dpid, u32>,
    /// Per-peer high-water mark of own-origin entries eagerly pushed
    /// (digest gossip mode): peer → highest own seq already sent.
    pushed_high: BTreeMap<u32, u64>,
}

impl ClusterState {
    /// Whether this replica should exercise mastership over `dpid`:
    /// a live committed pin wins, otherwise the hash assignment.
    fn wants_mastership(&self, dpid: Dpid) -> bool {
        if let Some(&r) = self.pins.get(&dpid) {
            if self.membership.is_alive(r as usize) {
                return r as usize == self.membership.config().index;
            }
        }
        self.membership.assigned_master(dpid)
    }
}

/// Runtime state of PACKET_IN admission control
/// ([`ControllerConfig::admission`]).
struct AdmissionState {
    cfg: AdmissionConfig,
    /// Per-switch punt meters (packet-rate token buckets), keyed by
    /// control-channel peer so unmetered traffic cannot hide behind a
    /// not-yet-registered dpid.
    meters: BTreeMap<NodeId, Meter>,
    /// Per-switch deferred punts: (ingress port, owned frame).
    queues: BTreeMap<NodeId, VecDeque<(PortNo, Vec<u8>)>>,
    /// Round-robin position: the switch served last; the drain resumes
    /// after it.
    cursor: Option<NodeId>,
    /// Deferred-or-shed punt counts per (switch, ingress, source MAC)
    /// in the current push-back window.
    offenders: BTreeMap<(NodeId, PortNo, [u8; 6]), u64>,
    /// When the current offender window opened.
    window_started: Instant,
    /// Push-back rules believed live: (switch, ingress, source MAC) →
    /// install time. An entry lapses with the rule's hard timeout, so
    /// a persistent offender is re-pinned on its next threshold cross.
    active_pushbacks: BTreeMap<(NodeId, PortNo, [u8; 6]), Instant>,
    /// Cached metric handles: [admitted, deferred, drained, shed].
    cids: Option<[zen_sim::CounterId; 4]>,
}

impl AdmissionState {
    fn new(cfg: AdmissionConfig) -> AdmissionState {
        AdmissionState {
            cfg,
            meters: BTreeMap::new(),
            queues: BTreeMap::new(),
            cursor: None,
            offenders: BTreeMap::new(),
            window_started: Instant::ZERO,
            active_pushbacks: BTreeMap::new(),
            cids: None,
        }
    }

    /// The typed counters, registered on first use: [admitted,
    /// deferred, drained, shed].
    fn counters(&mut self, ctx: &mut Context<'_>) -> [zen_sim::CounterId; 4] {
        *self.cids.get_or_insert_with(|| {
            let m = ctx.metrics();
            [
                m.register_counter("defense.ctl_punts_admitted"),
                m.register_counter("defense.ctl_punts_deferred"),
                m.register_counter("defense.ctl_punts_drained"),
                m.register_counter("defense.ctl_punts_shed"),
            ]
        })
    }
}

/// One PACKET_IN of a control delivery: its ingress port, and where in
/// the delivery's bytes its frame lies. Positions rather than slices, so
/// the lists that hold punts borrow nothing and are kept from one
/// delivery to the next.
#[derive(Clone, Copy)]
struct Punt {
    in_port: PortNo,
    at: usize,
    len: usize,
}

impl Punt {
    /// The punt of `frame`, a slice of `bytes`.
    fn of(bytes: &[u8], in_port: PortNo, frame: &[u8]) -> Punt {
        let (at, len) = (
            frame.as_ptr() as usize - bytes.as_ptr() as usize,
            frame.len(),
        );
        Punt { in_port, at, len }
    }

    fn frame<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
        &bytes[self.at..self.at + self.len]
    }
}

/// The services handle passed to applications: the network view plus
/// typed message-sending helpers.
pub struct Ctl<'a, 'w> {
    /// The simulator context (time, RNG, metrics).
    pub ctx: &'a mut Context<'w>,
    /// The controller's network view.
    pub view: &'a mut NetworkView,
    registry: &'a BTreeMap<Dpid, NodeId>,
    xid: &'a mut u32,
    stats: &'a mut CtlStats,
    southbound: &'a mut Southbound,
    cluster: Option<&'a mut ClusterState>,
    planner: &'a mut UpdatePlanner,
    intent_owners: &'a mut BTreeMap<u64, &'static str>,
    local_intents: &'a mut Vec<(u64, Intent)>,
    /// The emptied op list of the last update sent, for the next.
    spare_ops: &'a mut Vec<UpdateOp>,
    /// Likewise the action lists of the flow adds it carried.
    spare_actions: &'a mut Vec<Vec<Action>>,
}

impl Ctl<'_, '_> {
    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.ctx.now()
    }

    /// Whether this controller currently exercises mastership over
    /// `dpid`. A non-clustered controller masters every switch it
    /// knows; a clustered replica masters its deterministic share.
    /// State mods to non-mastered switches are silently filtered (the
    /// agent would reject them anyway), so apps can stay
    /// cluster-oblivious and program the whole view.
    pub fn is_master(&self, dpid: Dpid) -> bool {
        self.cluster
            .as_ref()
            .is_none_or(|cl| cl.my_masters.contains(&dpid))
    }

    /// The replicated program stamp for `(dpid, cookie)`: the content
    /// hash the last master recorded for its installed program. `None`
    /// when never programmed or not clustered.
    fn program_stamp(&self, dpid: Dpid, cookie: u64) -> Option<u64> {
        self.cluster
            .as_ref()
            .and_then(|cl| cl.program_stamps.get(&(dpid, cookie)).copied())
    }

    /// Record (and replicate east-west) the stamp of the program just
    /// sent to `dpid`; a standby that later takes the switch over
    /// compares it against its own and loads the switch only on
    /// mismatch. No-op when not clustered or unchanged.
    fn set_program_stamp(&mut self, dpid: Dpid, cookie: u64, hash: u64) {
        if let Some(cl) = self.cluster.as_mut() {
            if cl.program_stamps.get(&(dpid, cookie)) == Some(&hash) {
                return;
            }
            cl.program_stamps.insert((dpid, cookie), hash);
            let term = cl.membership.term();
            cl.store
                .append(term, ViewEvent::ProgramStamp { dpid, cookie, hash });
        }
    }

    /// Send a raw protocol message to a switch. Unknown dpids are
    /// silently dropped (the switch may have disconnected).
    ///
    /// State-programming messages (flow/group/meter mods) are tracked
    /// by the southbound session until a barrier acknowledges them.
    pub fn send(&mut self, dpid: Dpid, msg: &Message) {
        self.send_as(dpid, msg, false);
    }

    /// [`Ctl::send`]; `program` marks a step of a reconciled program.
    fn send_as(&mut self, dpid: Dpid, msg: &Message, program: bool) {
        let Some(&node) = self.registry.get(&dpid) else {
            return;
        };
        let is_mod = matches!(
            msg,
            Message::FlowMod { .. } | Message::GroupMod { .. } | Message::MeterMod { .. }
        );
        // Clustered: only the master programs a switch. Packet-outs and
        // stats requests pass (Equal connections may inject and read).
        if is_mod && !self.is_master(dpid) {
            return;
        }
        let xid = *self.xid;
        *self.xid += 1;
        self.stats.msgs_sent += 1;
        match msg {
            Message::FlowMod { .. } => self.stats.flow_mods += 1,
            Message::GroupMod { .. } => self.stats.group_mods += 1,
            Message::PacketOut { .. } => self.stats.packet_outs += 1,
            _ => {}
        }
        {
            // Flight recorder: attribute control messages sent while an
            // app chain is processing a traced PACKET_IN.
            let rec = self.ctx.recorder();
            if rec.is_enabled() {
                if let Some(trace) = rec.current_trace() {
                    let at = self.ctx.now().as_nanos();
                    match msg {
                        Message::FlowMod { cmd, .. } => {
                            let cookie = match cmd {
                                FlowModCmd::Add(spec) => spec.cookie,
                                FlowModCmd::DeleteByCookie { cookie } => *cookie,
                                FlowModCmd::DeleteStrict { .. } => 0,
                            };
                            rec.record(at, trace, TraceEvent::FlowModSent { dpid, xid, cookie });
                            rec.bind_xid(xid, trace);
                        }
                        Message::GroupMod { .. } | Message::MeterMod { .. } => {
                            rec.bind_xid(xid, trace);
                        }
                        Message::PacketOut { .. } => {
                            rec.record(at, trace, TraceEvent::PacketOutSent { dpid });
                        }
                        _ => {}
                    }
                }
            }
        }
        if is_mod {
            // Encoded once, into the buffer the session keeps for
            // retransmission; the channel copies from it.
            let now = self.ctx.now();
            let bytes = self.southbound.track(node, dpid, xid, msg, program, now);
            self.ctx
                .send_control_with(node, |buf| buf.extend_from_slice(bytes));
        } else {
            send_msg(self.ctx, node, msg, xid);
        }
    }

    /// Bring `dpid` to the program an app wants it to hold under
    /// `cookie`: `groups` in install order, and the flows `flows`
    /// renders (asked for only when they have to be sent), whose
    /// [`crate::flows_stamp`] is `flows_stamp`. This is the one way a
    /// program reaches a switch, whatever the occasion — a view change,
    /// a returning switch, a takeover.
    ///
    /// The program is diffed against the session's *base* for the
    /// cookie, the hashes of what the switch holds once every pending
    /// mod has landed: only what differs is sent, and a switch with
    /// nothing to change gets no message at all. Without a base, a
    /// switch whose replicated stamp already equals the program's was
    /// left that way by its previous master and is adopted as it
    /// stands; any other gets the full load. The program then becomes
    /// the base, and its stamp is recorded in the replicated view for
    /// the next replica to take the switch over. A group the program
    /// held and no longer does is not deleted on the spot but once it
    /// has been out of every program for a second
    /// (`southbound::GROUP_HOLD`). A switch this replica does not
    /// master, or does not know, is left alone.
    pub fn reconcile(
        &mut self,
        dpid: Dpid,
        cookie: u64,
        groups: Vec<(u32, GroupDesc)>,
        flows_stamp: u64,
        flows: impl FnOnce() -> Vec<FlowSpec>,
    ) -> Reconciled {
        let Some(&node) = self.registry.get(&dpid).filter(|_| self.is_master(dpid)) else {
            return Reconciled::default();
        };
        let desired = ProgramBase::of(flows_stamp, &groups);
        let stamp = desired.stamp();
        let base = self.southbound.base(node, cookie);
        if base == Some(&desired) {
            return Reconciled::default();
        }
        let adopt = base.is_none() && self.program_stamp(dpid, cookie) == Some(stamp);
        let (msgs, sent, left) = if adopt {
            Default::default()
        } else {
            delta(base, &desired, cookie, groups, flows)
        };
        for msg in &msgs {
            self.send_as(dpid, msg, true);
        }
        self.stats.txns_committed += u64::from(!msgs.is_empty());
        let now = self.ctx.now();
        self.southbound
            .rebase(node, dpid, cookie, desired, left, now);
        self.set_program_stamp(dpid, cookie, stamp);
        sent
    }

    /// Open a network update transaction. Stage flow/group/meter ops on
    /// the returned [`NetworkUpdate`], then [`NetworkUpdate::commit`] it
    /// back through this handle — the whole batch lands atomically
    /// (immediately for relaxed/single-switch updates, via an
    /// epoch-versioned two-phase commit for multi-switch per-packet
    /// ones).
    pub fn txn(&mut self) -> NetworkUpdate {
        NetworkUpdate {
            ops: std::mem::take(self.spare_ops),
            ..NetworkUpdate::default()
        }
    }

    /// The configuration epoch a transaction staged *now* would commit
    /// as: current epoch + 1 + every transaction already in flight or
    /// queued ahead of it. Apps use the parity to pick alternating
    /// cookies/group ids so the lame epoch stays addressable for GC.
    pub fn staged_epoch(&self) -> u64 {
        self.planner.staged_epoch()
    }

    /// The currently committed configuration epoch.
    pub fn config_epoch(&self) -> u64 {
        self.planner.config_epoch()
    }

    /// The xid the next [`Ctl::send`] would allocate. The planner
    /// brackets sends with this to learn which xids a batch actually
    /// consumed (sends to unknown or non-mastered switches allocate
    /// none).
    pub(crate) fn peek_xid(&self) -> u32 {
        *self.xid
    }

    /// Commit a staged network update (the target of
    /// [`NetworkUpdate::commit`]).
    ///
    /// Relaxed updates — and per-packet updates that touch a single
    /// switch, where the agent's own barrier ordering already gives
    /// per-packet semantics — are sent immediately, in staging order.
    /// Multi-switch per-packet updates are queued for the controller's
    /// epoch planner, which runs them through the two-phase protocol
    /// from its timer.
    pub(crate) fn commit_update(&mut self, mut update: NetworkUpdate) {
        if update.is_empty() {
            *self.spare_ops = update.ops;
            return;
        }
        let two_phase =
            update.consistency == Consistency::PerPacket && update.switches_touched() > 1;
        if !two_phase {
            if update.consistency == Consistency::PerPacket {
                self.stats.txns_fast += 1;
            }
            for op in update.ops.drain(..) {
                let (dpid, msg) = op.into_message();
                self.send(dpid, &msg);
                if let Message::FlowMod {
                    cmd: FlowModCmd::Add(spec),
                    ..
                } = msg
                {
                    self.spare_actions.push(spec.actions);
                }
            }
            self.spare_actions.truncate(SPARE_ACTIONS);
            *self.spare_ops = update.ops;
            self.stats.txns_committed += 1;
        } else {
            self.planner.queue.push_back(update);
        }
    }

    /// `of` as a new [`FlowSpec`]'s action list, in the allocation of
    /// one already sent where one is kept.
    pub fn actions(&mut self, of: &[Action]) -> Vec<Action> {
        let mut list = self.spare_actions.pop().unwrap_or_default();
        list.clear();
        list.extend_from_slice(of);
        list
    }

    /// Delete all flows carrying `cookie` on a switch.
    pub fn delete_flows_by_cookie(&mut self, dpid: Dpid, cookie: u64) {
        self.send(
            dpid,
            &Message::FlowMod {
                table_id: 0,
                cmd: FlowModCmd::DeleteByCookie { cookie },
            },
        );
    }

    /// Inject a frame at a switch with the given actions.
    ///
    /// The frame is borrowed: it is copied exactly once, straight into
    /// the wire buffer. PACKET_OUT is fire-and-forget (never tracked
    /// for retransmission), so no owned [`Message`] is ever built.
    pub fn packet_out(
        &mut self,
        dpid: Dpid,
        in_port: PortNo,
        actions: &[zen_dataplane::Action],
        frame: &[u8],
    ) {
        let Some(&node) = self.registry.get(&dpid) else {
            return;
        };
        let xid = *self.xid;
        *self.xid += 1;
        self.stats.msgs_sent += 1;
        self.stats.packet_outs += 1;
        let rec = self.ctx.recorder();
        if rec.is_enabled() {
            if let Some(trace) = rec.current_trace() {
                let at = self.ctx.now().as_nanos();
                rec.record(at, trace, TraceEvent::PacketOutSent { dpid });
            }
        }
        self.ctx.send_control_with(node, |buf| {
            encode_packet_out_into(buf, in_port, actions, frame, xid)
        });
    }

    /// Fence a switch (answered asynchronously). App-issued fences
    /// cover no mod xids — delivery tracking uses its own barriers.
    pub fn barrier(&mut self, dpid: Dpid) {
        self.send(dpid, &Message::BarrierRequest { xids: Vec::new() });
    }

    /// Propose a cluster-wide intent for linearizable commitment and
    /// return its token.
    ///
    /// Clustered, the intent enters the replicated log: it is forwarded
    /// to the current leader and resent until a quorum commits it.
    /// Standalone, it commits locally on the next timer tick. Either
    /// way every app's [`App::on_intent_committed`] hook fires exactly
    /// once per commit, and the proposing app additionally gets
    /// [`App::on_update_committed`] with the returned token.
    pub fn propose_intent(&mut self, owner: &'static str, intent: Intent) -> u64 {
        // Token: content hash salted with the monotone xid counter, so
        // a withdraw/re-install cycle of identical content still gets a
        // fresh identity (committed tokens deduplicate forever).
        let salt = *self.xid;
        *self.xid += 1;
        let mut h = fnv1a(owner.as_bytes());
        h = fnv1a_fold(h, &salt.to_le_bytes());
        h = fnv1a_fold(
            h,
            &intent_entry_bytes(&IntentEntry {
                index: 0,
                term: 0,
                origin: 0,
                token: 0,
                intent: intent.clone(),
            }),
        );
        let token = h.max(1); // zero is the reserved no-op token
        self.stats.intents_proposed += 1;
        self.intent_owners.insert(token, owner);
        if let Some(cl) = self.cluster.as_mut() {
            cl.intents.propose_local(token, intent);
        } else {
            self.local_intents.push((token, intent));
        }
        token
    }
}

/// The controller node.
pub struct Controller {
    cfg: ControllerConfig,
    apps: Vec<Box<dyn App>>,
    /// The network view (public for post-run inspection).
    pub view: NetworkView,
    registry: BTreeMap<Dpid, NodeId>,
    rev_registry: BTreeMap<NodeId, Dpid>,
    /// Last time anything was heard from each agent.
    liveness: BTreeMap<NodeId, Instant>,
    /// Per-switch reliable delivery of state mods.
    southbound: Southbound,
    /// Whether [`TIMER_FENCE`] is set.
    fence_armed: bool,
    /// What we believe each switch has installed: cookie → entry count,
    /// maintained from barrier-acked mods and FLOW_REMOVED notices, and
    /// diffed against HELLO_RESYNC digests on reconnect.
    shadow: BTreeMap<Dpid, BTreeMap<u64, i64>>,
    /// Throttle: last RESYNC_REQUEST sent per quarantined switch.
    resync_requested: BTreeMap<Dpid, Instant>,
    /// Throttle: last FEATURES_REQUEST re-solicitation per unregistered
    /// node (the handshake itself can be lost on a faulty channel).
    features_requested: BTreeMap<NodeId, Instant>,
    /// Switches whose next FEATURES_REPLY is a port-map refresh (sent
    /// after takeovers and healed partitions), not a new handshake —
    /// the reply updates the view and nothing else.
    port_refresh: BTreeSet<Dpid>,
    /// Present when this controller is a replica in a cluster.
    cluster: Option<ClusterState>,
    /// Present when `cfg.admission` is set.
    admission: Option<AdmissionState>,
    /// Epoch-versioned two-phase update planner.
    planner: UpdatePlanner,
    /// Proposed-intent tokens → owning app name, consumed when the
    /// intent commits to route the `on_update_committed` callback.
    intent_owners: BTreeMap<u64, &'static str>,
    /// Standalone-mode intent queue: commits on the next timer tick
    /// without a cluster round.
    local_intents: Vec<(u64, Intent)>,
    /// The PACKET_INs of the delivery being decoded, and those of them
    /// that go on to the apps; kept only to recycle their allocations
    /// from one delivery to the next.
    punts: Vec<Punt>,
    dispatch: Vec<(Punt, Option<TraceId>)>,
    /// Likewise the op list of the last network update sent.
    spare_ops: Vec<UpdateOp>,
    spare_actions: Vec<Vec<Action>>,
    xid: u32,
    /// Counters.
    pub stats: CtlStats,
}

impl Controller {
    /// A controller running `apps` (dispatched in order).
    pub fn new(apps: Vec<Box<dyn App>>) -> Controller {
        Controller::with_config(apps, ControllerConfig::default())
    }

    /// A controller with explicit configuration.
    pub fn with_config(apps: Vec<Box<dyn App>>, cfg: ControllerConfig) -> Controller {
        Controller {
            cfg,
            apps,
            view: NetworkView::new(),
            registry: BTreeMap::new(),
            rev_registry: BTreeMap::new(),
            liveness: BTreeMap::new(),
            southbound: Southbound::default(),
            fence_armed: false,
            shadow: BTreeMap::new(),
            resync_requested: BTreeMap::new(),
            features_requested: BTreeMap::new(),
            port_refresh: BTreeSet::new(),
            cluster: None,
            admission: cfg.admission.map(AdmissionState::new),
            planner: UpdatePlanner::default(),
            intent_owners: BTreeMap::new(),
            local_intents: Vec::new(),
            punts: Vec::new(),
            dispatch: Vec::new(),
            spare_ops: Vec::new(),
            spare_actions: Vec::new(),
            xid: 1,
            stats: CtlStats::default(),
        }
    }

    /// The committed configuration epoch (post-run inspection).
    pub fn config_epoch(&self) -> u64 {
        self.planner.config_epoch()
    }

    /// Whether a two-phase network update is active or queued.
    pub fn txn_busy(&self) -> bool {
        self.planner.is_busy()
    }

    /// Turn this controller into replica `cfg.index` of a cluster. Call
    /// before the simulation starts. The xid space is namespaced by
    /// replica index so xid-keyed telemetry (flow-mod trace bindings)
    /// from different replicas cannot collide in the shared recorder.
    pub fn enable_cluster(&mut self, cfg: ClusterConfig) {
        self.xid = ((cfg.index as u32) + 1) << 24;
        self.cluster = Some(ClusterState {
            store: EwStore::new(cfg.index as u32, cfg.len()),
            intents: IntentReplica::new(cfg.index as u32, cfg.len() as u32),
            membership: Membership::new(cfg, Instant::ZERO),
            my_masters: BTreeSet::new(),
            deferred: BTreeMap::new(),
            program_stamps: BTreeMap::new(),
            pins: BTreeMap::new(),
            pushed_high: BTreeMap::new(),
        });
    }

    /// Whether this replica currently exercises mastership over `dpid`.
    /// Non-clustered controllers master everything they know.
    pub fn is_master_of(&self, dpid: Dpid) -> bool {
        self.cluster
            .as_ref()
            .is_none_or(|cl| cl.my_masters.contains(&dpid))
    }

    /// The switches this controller currently masters.
    pub fn mastered(&self) -> Vec<Dpid> {
        match &self.cluster {
            Some(cl) => cl.my_masters.iter().copied().collect(),
            None => self.registry.keys().copied().collect(),
        }
    }

    /// The cluster mastership term, if clustered.
    pub fn cluster_term(&self) -> Option<u64> {
        self.cluster.as_ref().map(|cl| cl.membership.term())
    }

    /// The replicated intent log, if clustered (post-run inspection:
    /// role, term, commit index, compaction floor).
    pub fn intent_replica(&self) -> Option<&IntentReplica> {
        self.cluster.as_ref().map(|cl| &cl.intents)
    }

    /// The replicated program stamp for `(dpid, cookie)` (post-run
    /// inspection; see [`Ctl::program_stamp`]).
    pub fn program_stamp_of(&self, dpid: Dpid, cookie: u64) -> Option<u64> {
        self.cluster
            .as_ref()
            .and_then(|cl| cl.program_stamps.get(&(dpid, cookie)).copied())
    }

    /// Mods sent but not yet barrier-acknowledged.
    pub fn pending_mods(&self) -> usize {
        self.southbound.pending_mods()
    }

    /// The stamp of the base held for `cookie`'s program on `dpid`:
    /// what this controller believes the switch holds, if it still
    /// knows (post-run inspection; see [`Ctl::reconcile`]).
    pub fn program_base_of(&self, dpid: Dpid, cookie: u64) -> Option<u64> {
        let node = *self.registry.get(&dpid)?;
        self.southbound.base(node, cookie).map(ProgramBase::stamp)
    }

    /// Access an application by index (post-run inspection).
    pub fn app(&self, index: usize) -> &dyn App {
        self.apps[index].as_ref()
    }

    /// Find the first app of concrete type `T` (post-run inspection,
    /// snapshot export).
    pub fn find_app<T: App>(&self) -> Option<&T> {
        self.apps
            .iter()
            .find_map(|a| a.as_any().downcast_ref::<T>())
    }

    /// Run `f` with the services handle and the app list temporarily
    /// split apart (the standard take/put dance).
    fn with_apps(
        &mut self,
        ctx: &mut Context<'_>,
        f: impl FnOnce(&mut Vec<Box<dyn App>>, &mut Ctl<'_, '_>),
    ) {
        let mut apps = std::mem::take(&mut self.apps);
        {
            let mut ctl = Ctl {
                ctx,
                view: &mut self.view,
                registry: &self.registry,
                xid: &mut self.xid,
                stats: &mut self.stats,
                southbound: &mut self.southbound,
                cluster: self.cluster.as_mut(),
                planner: &mut self.planner,
                intent_owners: &mut self.intent_owners,
                local_intents: &mut self.local_intents,
                spare_ops: &mut self.spare_ops,
                spare_actions: &mut self.spare_actions,
            };
            f(&mut apps, &mut ctl);
        }
        self.apps = apps;
    }

    fn send_direct(&mut self, ctx: &mut Context<'_>, dpid: Dpid, msg: &Message) {
        let Some(&node) = self.registry.get(&dpid) else {
            return;
        };
        let xid = self.xid;
        self.xid += 1;
        self.stats.msgs_sent += 1;
        send_msg(ctx, node, msg, xid);
    }

    /// Log a local view mutation into the east-west store for
    /// replication. No-op when not clustered.
    fn log_event(&mut self, event: ViewEvent) {
        if let Some(cl) = self.cluster.as_mut() {
            let term = cl.membership.term();
            cl.store.append(term, event);
        }
    }

    /// The current cookie shadow of `dpid` in wire form: the flow
    /// entries this controller believes the switch holds, per cookie.
    pub fn shadow_cookies(&self, dpid: Dpid) -> Vec<CookieCount> {
        let counts = self.shadow.get(&dpid).into_iter().flatten();
        let listed = counts.filter_map(|(&cookie, &count)| {
            let count = u32::try_from(count).ok()?;
            Some(CookieCount { cookie, count })
        });
        listed.collect()
    }

    /// Apply a replicated view mutation a peer observed first-hand.
    fn apply_view_event(&mut self, event: ViewEvent, now: Instant) {
        match event {
            ViewEvent::LinkAdd {
                from_dpid,
                from_port,
                to_dpid,
                to_port,
            } => {
                self.view
                    .add_link_at((from_dpid, from_port), (to_dpid, to_port), now);
            }
            ViewEvent::LinkDel {
                from_dpid,
                from_port,
            } => {
                self.view.remove_link((from_dpid, from_port));
            }
            ViewEvent::HostLearned {
                mac,
                dpid,
                port,
                ip,
            } => {
                self.view.learn_host(mac, dpid, port, ip, now);
            }
            ViewEvent::ShadowSet { dpid, cookies } => {
                // Our own barrier acks are authoritative for switches we
                // master; a peer's digest matters for a future takeover.
                if !self.is_master_of(dpid) {
                    let counts = cookies.iter().map(|c| (c.cookie, c.count.into()));
                    self.shadow.insert(dpid, counts.collect());
                }
            }
            ViewEvent::ProgramStamp { dpid, cookie, hash } => {
                if let Some(cl) = self.cluster.as_mut() {
                    cl.program_stamps.insert((dpid, cookie), hash);
                }
            }
        }
    }

    /// East-west traffic from a peer replica (already routed past the
    /// switch-session machinery).
    fn handle_peer_message(&mut self, ctx: &mut Context<'_>, msg: Message) {
        match msg {
            Message::EwHeartbeat {
                replica,
                term,
                acks,
            } => {
                if let Some(cl) = self.cluster.as_mut() {
                    cl.membership.note_heartbeat(replica, term, ctx.now());
                    cl.store.note_peer_acks(replica, &acks);
                }
            }
            Message::EwEvents { entries, .. } => {
                let now = ctx.now();
                for entry in entries {
                    let verdict = match self.cluster.as_mut() {
                        Some(cl) => cl.store.admit(&entry),
                        None => return,
                    };
                    if verdict == Admit::Apply {
                        self.stats.ew_events_applied += 1;
                        self.apply_view_event(entry.event, now);
                    } else {
                        self.stats.ew_events_skipped += 1;
                    }
                }
            }
            Message::EwDigest {
                replica,
                term,
                heads,
            } => {
                let now = ctx.now();
                let Some(cl) = self.cluster.as_mut() else {
                    return;
                };
                cl.membership.note_heartbeat(replica, term, now);
                // A digest head doubles as an applied-mark ack: the
                // chain hash guarantees the peer holds everything up
                // to it contiguously.
                let acks: Vec<(u32, u64)> = heads.iter().map(|h| (h.origin, h.head)).collect();
                cl.store.note_peer_acks(replica, &acks);
                let ranges = cl.store.missing_ranges(&heads);
                if ranges.is_empty() {
                    return;
                }
                let me = cl.membership.index() as u32;
                let Some(&node) = cl.membership.config().replicas.get(replica as usize) else {
                    return;
                };
                self.stats.msgs_sent += 1;
                self.stats.ew_fetches_sent += 1;
                send_msg(
                    ctx,
                    node,
                    &Message::EwFetch {
                        replica: me,
                        ranges,
                    },
                    0,
                );
            }
            Message::EwFetch { replica, ranges } => {
                let Some(cl) = self.cluster.as_mut() else {
                    return;
                };
                let me = cl.membership.index() as u32;
                let Some(&node) = cl.membership.config().replicas.get(replica as usize) else {
                    return;
                };
                let (entries, want_snapshot) = cl.store.serve_ranges(&ranges);
                if want_snapshot {
                    let (heads, snap_entries, checksum) = cl.store.snapshot();
                    self.stats.msgs_sent += 1;
                    self.stats.ew_snapshots_sent += 1;
                    send_msg(
                        ctx,
                        node,
                        &Message::EwSnapshot {
                            replica: me,
                            heads,
                            entries: snap_entries,
                            checksum,
                        },
                        0,
                    );
                }
                for chunk in entries.chunks(EW_BATCH) {
                    self.stats.msgs_sent += 1;
                    self.stats.ew_entries_sent += chunk.len() as u64;
                    send_msg(
                        ctx,
                        node,
                        &Message::EwEvents {
                            replica: me,
                            entries: chunk.to_vec(),
                        },
                        0,
                    );
                }
            }
            Message::EwSnapshot {
                replica,
                heads,
                entries,
                checksum,
            } => {
                let now = ctx.now();
                let carried = entries.len() as u64;
                let installed = match self.cluster.as_mut() {
                    Some(cl) => cl.store.install_snapshot(&heads, entries, checksum),
                    None => return,
                };
                // A checksum mismatch drops the snapshot; the next
                // digest round re-requests it.
                let Some(to_apply) = installed else {
                    return;
                };
                self.stats.ew_snapshots_installed += 1;
                {
                    let rec = ctx.recorder();
                    if rec.is_enabled() {
                        rec.record(
                            now.as_nanos(),
                            control_trace(0),
                            TraceEvent::EwSnapshotInstalled {
                                from_replica: replica,
                                entries: carried,
                            },
                        );
                    }
                }
                for e in to_apply {
                    self.stats.ew_events_applied += 1;
                    self.apply_view_event(e.event, now);
                }
            }
            Message::IntentPropose {
                replica,
                token,
                intent,
            } => {
                if let Some(cl) = self.cluster.as_mut() {
                    cl.intents.on_propose(replica, token, intent);
                }
            }
            Message::IntentAppend {
                leader,
                term,
                prev_index,
                prev_term,
                commit,
                entries,
            } => {
                let outs = match self.cluster.as_mut() {
                    Some(cl) => cl
                        .intents
                        .on_append(leader, term, prev_index, prev_term, commit, entries),
                    None => return,
                };
                self.send_intent_outs(ctx, outs);
                self.dispatch_committed_intents(ctx);
            }
            Message::IntentAck {
                replica,
                term,
                match_index,
                success,
            } => {
                let outs = match self.cluster.as_mut() {
                    Some(cl) => cl.intents.on_ack(replica, term, match_index, success),
                    None => return,
                };
                self.send_intent_outs(ctx, outs);
                self.dispatch_committed_intents(ctx);
            }
            Message::IntentFetch {
                replica,
                term,
                from_index,
            } => {
                let outs = match self.cluster.as_mut() {
                    Some(cl) => cl.intents.on_fetch(replica, term, from_index),
                    None => return,
                };
                self.send_intent_outs(ctx, outs);
            }
            Message::IntentCatchup {
                replica,
                term,
                snap_index,
                snap_term,
                snap_state,
                snap_tokens,
                entries,
                commit,
                checksum,
            } => {
                let outs = match self.cluster.as_mut() {
                    Some(cl) => cl.intents.on_catchup(
                        replica,
                        term,
                        snap_index,
                        snap_term,
                        snap_state,
                        snap_tokens,
                        entries,
                        commit,
                        checksum,
                    ),
                    None => return,
                };
                self.send_intent_outs(ctx, outs);
                self.dispatch_committed_intents(ctx);
            }
            // Peers speak only the east-west subset.
            _ => {}
        }
    }

    /// Encode and route consensus frames to their target replicas.
    fn send_intent_outs(&mut self, ctx: &mut Context<'_>, outs: Vec<Outbound>) {
        let Some(cl) = self.cluster.as_ref() else {
            return;
        };
        let replicas = &cl.membership.config().replicas;
        for out in outs {
            let Some(&node) = replicas.get(out.to as usize) else {
                continue;
            };
            self.stats.msgs_sent += 1;
            self.stats.intent_msgs_sent += 1;
            send_msg(ctx, node, &out.msg, 0);
        }
    }

    /// Surface intents committed since the last round: update pinned
    /// mastership, fire every app's [`App::on_intent_committed`] hook,
    /// and complete the proposer's `on_update_committed`.
    fn dispatch_committed_intents(&mut self, ctx: &mut Context<'_>) {
        let me = self.cluster.as_ref().map(|cl| cl.membership.index() as u32);
        let applied: Vec<Applied> = match self.cluster.as_mut() {
            Some(cl) => cl.intents.take_applied(),
            None => {
                if self.local_intents.is_empty() {
                    return;
                }
                // Standalone: commit locally, same observable order.
                std::mem::take(&mut self.local_intents)
                    .into_iter()
                    .map(|(token, intent)| {
                        Applied::Entry(IntentEntry {
                            index: 0,
                            term: 0,
                            origin: 0,
                            token,
                            intent,
                        })
                    })
                    .collect()
            }
        };
        for a in applied {
            match a {
                Applied::Snapshot(entries) => self.apply_intent_snapshot(ctx, entries, me),
                Applied::Entry(e) => self.apply_committed_intent(ctx, e, me),
            }
        }
    }

    /// A snapshot install replaced the committed intent state
    /// wholesale. Derived state is rebuilt from the active set, not
    /// patched: replaying the entries through the incremental
    /// [`App::on_intent_committed`] hook could never retract state
    /// whose withdrawal the snapshot compacted away (a withdrawn ACL
    /// deny would survive forever), and would double-fire the hook for
    /// entries this replica already applied.
    fn apply_intent_snapshot(
        &mut self,
        ctx: &mut Context<'_>,
        entries: Vec<IntentEntry>,
        me: Option<u32>,
    ) {
        if let Some(cl) = self.cluster.as_mut() {
            cl.pins.clear();
            for e in &entries {
                if let Intent::MastershipPin {
                    dpid,
                    replica,
                    pinned: true,
                } = e.intent
                {
                    cl.pins.insert(dpid, replica);
                }
            }
        }
        {
            let rec = ctx.recorder();
            if rec.is_enabled() {
                rec.record(
                    ctx.now().as_nanos(),
                    control_trace(0),
                    TraceEvent::IntentSnapshotInstalled {
                        entries: entries.len() as u64,
                    },
                );
            }
        }
        // Proposals of ours that committed while we were away complete
        // their owner callbacks now.
        let own_tokens: Vec<u64> = entries
            .iter()
            .filter(|e| me.is_none_or(|m| m == e.origin))
            .map(|e| e.token)
            .collect();
        let intents: Vec<Intent> = entries.into_iter().map(|e| e.intent).collect();
        self.with_apps(ctx, |apps, ctl| {
            for app in apps.iter_mut() {
                app.on_intent_snapshot(ctl, &intents);
            }
        });
        for token in own_tokens {
            if let Some(owner) = self.intent_owners.remove(&token) {
                self.with_apps(ctx, |apps, ctl| {
                    for app in apps.iter_mut() {
                        app.on_update_committed(ctl, owner, token);
                    }
                });
            }
        }
    }

    fn apply_committed_intent(&mut self, ctx: &mut Context<'_>, e: IntentEntry, me: Option<u32>) {
        self.stats.intents_committed += 1;
        {
            let rec = ctx.recorder();
            if rec.is_enabled() {
                rec.record(
                    ctx.now().as_nanos(),
                    control_trace(0),
                    TraceEvent::IntentCommitted {
                        index: e.index,
                        term: e.term,
                        origin: e.origin,
                    },
                );
            }
        }
        if let Intent::MastershipPin {
            dpid,
            replica,
            pinned,
        } = e.intent
        {
            if let Some(cl) = self.cluster.as_mut() {
                if pinned {
                    cl.pins.insert(dpid, replica);
                } else {
                    cl.pins.remove(&dpid);
                }
            }
        }
        if matches!(e.intent, Intent::Noop) {
            return; // leader activation barrier, invisible to apps
        }
        let intent = e.intent;
        self.with_apps(ctx, |apps, ctl| {
            for app in apps.iter_mut() {
                app.on_intent_committed(ctl, &intent);
            }
        });
        // The proposing replica also completes the owner's
        // update-committed callback, mirroring the two-phase planner.
        if me.is_none_or(|m| m == e.origin) {
            if let Some(owner) = self.intent_owners.remove(&e.token) {
                self.with_apps(ctx, |apps, ctl| {
                    for app in apps.iter_mut() {
                        app.on_update_committed(ctl, owner, e.token);
                    }
                });
            }
        }
    }

    fn note_mastership_trace(&mut self, ctx: &mut Context<'_>, dpid: Dpid, gained: bool) {
        let Some(cl) = self.cluster.as_ref() else {
            return;
        };
        let replica = cl.membership.index() as u32;
        let rec = ctx.recorder();
        if rec.is_enabled() {
            rec.record(
                ctx.now().as_nanos(),
                control_trace(dpid),
                TraceEvent::MastershipChange {
                    dpid,
                    replica,
                    gained,
                },
            );
        }
    }

    /// Take over `dpid`: claim the Master role at the switch, give its
    /// inbound links one discovery round of grace (we have not been the
    /// one watching their LLDP confirmations), and reconcile installed
    /// state through the resync digest. Apps then compare their desired
    /// program against the replicated stamp and reprogram only on
    /// mismatch — a clean takeover moves zero flow state.
    fn mastership_gained(&mut self, ctx: &mut Context<'_>, dpid: Dpid) {
        let Some(cl) = self.cluster.as_ref() else {
            return;
        };
        let (term, replica) = cl.membership.claim();
        self.stats.masterships_gained += 1;
        self.send_direct(
            ctx,
            dpid,
            &Message::RoleRequest {
                role: Role::Master,
                term,
                replica,
            },
        );
        self.view.refresh_links_to(dpid, ctx.now());
        self.send_direct(ctx, dpid, &Message::ResyncRequest);
        // PORT_STATUS is broadcast, so an isolation window may have
        // left us with stale port state — and discovery never probes a
        // "down" port, so a stale entry would silence the LLDP
        // confirmations for its links and age them out cluster-wide.
        // The features reply replaces the port map wholesale.
        self.port_refresh.insert(dpid);
        self.send_direct(ctx, dpid, &Message::FeaturesRequest);
        self.note_mastership_trace(ctx, dpid, true);
        self.with_apps(ctx, |apps, ctl| {
            for app in apps.iter_mut() {
                app.on_mastership_change(ctl, dpid, true);
            }
        });
    }

    /// Relinquish `dpid`. In-flight mods were issued under the lapsed
    /// mastership — the new master owns the switch's program now, so
    /// they are dropped rather than retransmitted. `announce` steps the
    /// connection down to Equal at the switch (skipped when the switch
    /// itself told us we were outranked).
    fn mastership_lost(&mut self, ctx: &mut Context<'_>, dpid: Dpid, announce: bool) {
        let Some(cl) = self.cluster.as_ref() else {
            return;
        };
        let (term, replica) = cl.membership.claim();
        self.stats.masterships_lost += 1;
        if announce {
            self.send_direct(
                ctx,
                dpid,
                &Message::RoleRequest {
                    role: Role::Equal,
                    term,
                    replica,
                },
            );
        }
        if let Some(&node) = self.registry.get(&dpid) {
            for x in self.southbound.supersede(node) {
                self.stats.mods_superseded += 1;
                self.planner.note_xid(x, false);
            }
            self.southbound.relinquish(node);
        }
        self.note_mastership_trace(ctx, dpid, false);
        self.with_apps(ctx, |apps, ctl| {
            for app in apps.iter_mut() {
                app.on_mastership_change(ctl, dpid, false);
            }
        });
    }

    /// One east-west round: refresh peer liveness, heartbeat + gossip to
    /// every peer, and reconcile this replica's mastership set against
    /// the deterministic assignment.
    fn cluster_tick(&mut self, ctx: &mut Context<'_>) {
        let Some(mut cl) = self.cluster.take() else {
            return;
        };
        let now = ctx.now();
        let live_before = cl.membership.live();
        let flipped = cl.membership.scan(now);
        // A peer coming back from the dead usually means a partition
        // healed — and if *we* were the isolated side, we missed every
        // PORT_STATUS broadcast in the window (we kept mastering our
        // switches throughout, so the takeover-path refresh never
        // runs). Stale "down" ports silence discovery probes, so
        // refresh the port map of everything we master.
        let peer_revived = cl
            .membership
            .live()
            .iter()
            .any(|i| !live_before.contains(i));
        let me = cl.membership.index();
        let term = cl.membership.term();
        let claim = cl.membership.claim();

        // Heartbeat + anti-entropy to every peer, every tick. The
        // heartbeat carries our per-origin applied marks; each new
        // own-origin entry is pushed once, and losses (and
        // remote-origin gaps) are repaired through the digest / fetch
        // exchange.
        let acks = cl.store.acks();
        let me32 = me as u32;
        let replicas = cl.membership.config().replicas.clone();
        for (i, &node) in replicas.iter().enumerate() {
            if i == me {
                continue;
            }
            self.stats.msgs_sent += 1;
            self.stats.ew_heartbeats += 1;
            send_msg(
                ctx,
                node,
                &Message::EwHeartbeat {
                    replica: me32,
                    term,
                    acks: acks.clone(),
                },
                0,
            );
            let head = cl.store.applied_high(me32);
            let pushed = cl.pushed_high.entry(i as u32).or_insert(0);
            if head > *pushed {
                let lo = (*pushed + 1).max(cl.store.floor_of(me32) + 1);
                let hi = head.min(lo + EW_BATCH as u64 - 1);
                let (batch, _) = cl.store.serve_ranges(&[(me32, lo, hi)]);
                if !batch.is_empty() {
                    self.stats.msgs_sent += 1;
                    self.stats.ew_entries_sent += batch.len() as u64;
                    send_msg(
                        ctx,
                        node,
                        &Message::EwEvents {
                            replica: me32,
                            entries: batch,
                        },
                        0,
                    );
                }
                *pushed = hi;
            }
            self.stats.msgs_sent += 1;
            self.stats.ew_digests_sent += 1;
            send_msg(
                ctx,
                node,
                &Message::EwDigest {
                    replica: me32,
                    term,
                    heads: cl.store.digest(),
                },
                0,
            );
        }
        // Retention: prune only what every *live* replica has applied,
        // so one dead replica cannot pin the log forever (a revived one
        // bootstraps from a snapshot instead).
        cl.store.prune_acked(&cl.membership.live());

        // Intent-log round: deterministic leader election over the live
        // set, replication heartbeats, proposal retries, compaction.
        let live: Vec<u32> = cl.membership.live().iter().map(|&i| i as u32).collect();
        let intent_outs = cl.intents.tick(term, &live);
        cl.intents.compact(KEEP_TAIL);

        // Deferred overrides die once our claim outgrows them (a healed
        // partition converges on the merged term, and the canonical
        // assignment reasserts itself).
        cl.deferred.retain(|_, o| *o >= claim);
        let desired: BTreeSet<Dpid> = self
            .registry
            .keys()
            .copied()
            .filter(|&d| cl.wants_mastership(d) && !cl.deferred.contains_key(&d))
            .collect();
        let gained: Vec<Dpid> = desired.difference(&cl.my_masters).copied().collect();
        let lost: Vec<Dpid> = cl.my_masters.difference(&desired).copied().collect();
        // The switches kept through a change of the live set (the
        // freshly gained are settled by their takeover path).
        let kept = |when: bool| -> Vec<Dpid> {
            let kept = desired.iter().filter(|d| when && cl.my_masters.contains(d));
            kept.copied().collect()
        };
        let (reassert, refresh) = (kept(flipped), kept(peer_revived));
        cl.my_masters = desired;
        self.cluster = Some(cl);

        // A peer that flipped was cut off from us, and we from it: each
        // side presumes the other dead and claims its switches. Say who
        // we are now at every switch we keep, so whichever claim ranks
        // higher holds it and the other side hears that it lost — a
        // controller that programs by difference may not send a mod
        // (whose bounce would tell it) for a long while.
        let (term, replica) = claim;
        for &dpid in &reassert {
            let role = Role::Master;
            self.send_direct(
                ctx,
                dpid,
                &Message::RoleRequest {
                    role,
                    term,
                    replica,
                },
            );
        }

        for &dpid in &refresh {
            self.port_refresh.insert(dpid);
            self.send_direct(ctx, dpid, &Message::FeaturesRequest);
        }
        self.send_intent_outs(ctx, intent_outs);
        self.dispatch_committed_intents(ctx);
        for &dpid in &lost {
            self.mastership_lost(ctx, dpid, true);
        }
        for &dpid in &gained {
            self.mastership_gained(ctx, dpid);
        }
        // The revived peer presumed us dead for as long as we presumed
        // it: whoever adopted our switches in the meantime pointed
        // their groups by its own view, and our bases describe what we
        // last sent, not that. Have the apps re-assert them.
        for &dpid in &refresh {
            self.southbound.distrust_groups(self.registry[&dpid]);
            self.resync_apps(ctx, dpid);
        }
    }

    /// Quarantine agents that have been silent past the deadline. Apps
    /// see the view-version bump and route around them.
    fn quarantine_scan(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let stale: Vec<Dpid> = self
            .registry
            .iter()
            .filter(|&(_, node)| {
                let last = self.liveness.get(node).copied().unwrap_or(now);
                now.duration_since(last) >= self.cfg.agent_dead_after
            })
            .map(|(&dpid, _)| dpid)
            .collect();
        for dpid in stale {
            if self.view.quarantine(dpid) {
                self.stats.quarantines += 1;
            }
        }
    }

    /// Resend unacked mods past their timeout; abandon ones out of
    /// retries, and have the apps rebuild a switch that a program mod
    /// never reached. Then delete the groups whose hold has run out.
    fn retransmit_scan(&mut self, ctx: &mut Context<'_>) {
        let planner = &mut self.planner;
        let short = self.southbound.retransmit_scan(
            ctx,
            &self.view,
            self.cfg.mod_timeout,
            self.cfg.mod_max_retries,
            &mut self.stats,
            |xid| planner.note_xid(xid, false),
        );
        for dpid in short {
            self.forget_stamps(dpid);
            self.resync_apps(ctx, dpid);
        }
        // Groups that have been out of every program for the hold: go.
        let view = &self.view;
        let cluster = self.cluster.as_ref();
        let ours =
            |d| !view.is_quarantined(d) && cluster.is_none_or(|cl| cl.my_masters.contains(&d));
        let condemned = self.southbound.condemned(ctx.now(), ours);
        self.with_apps(ctx, |_, ctl| {
            for (dpid, group_id) in condemned {
                let cmd = GroupModCmd::Delete;
                ctl.send(dpid, &Message::GroupMod { group_id, cmd });
            }
        });
    }

    /// `dpid`'s bases were dropped because it may not hold what they
    /// said. The stamps this replica recorded for it go too: they are a
    /// takeover's shortcut past the full load, and nothing vouches for
    /// them now.
    fn forget_stamps(&mut self, dpid: Dpid) {
        let ours = |cl: &&mut ClusterState| cl.my_masters.contains(&dpid);
        if let Some(cl) = self.cluster.as_mut().filter(ours) {
            cl.program_stamps.retain(|&(d, _), _| d != dpid);
        }
    }

    /// Tell the apps `dpid` may not hold what this controller believed.
    fn resync_apps(&mut self, ctx: &mut Context<'_>, dpid: Dpid) {
        self.with_apps(ctx, |apps, ctl| {
            for app in apps.iter_mut() {
                app.on_switch_resync(ctl, dpid);
            }
        });
    }

    /// Fence every switch that someone waits to hear from: those sent
    /// hard state or a burst of soft state since the last flush, and
    /// while a two-phase transaction awaits acks, all. Soft state left
    /// unfenced sets the fence timer.
    fn flush_barriers(&mut self, ctx: &mut Context<'_>) {
        let awaited = |txn: &ActiveTxn| !txn.outstanding.is_empty();
        if self.planner.active.as_ref().is_some_and(awaited) {
            self.southbound.fence_aged(ctx.now(), Duration::ZERO);
        }
        self.southbound
            .flush_barriers(ctx, &mut self.xid, &mut self.stats);
        if self.southbound.unfenced_sessions > 0 && !self.fence_armed {
            self.fence_armed = true;
            ctx.set_timer(self.fence_interval(), TIMER_FENCE);
        }
    }

    /// How long soft state may ride unfenced: acknowledged well inside
    /// `mod_timeout` even so.
    fn fence_interval(&self) -> Duration {
        self.cfg.mod_timeout.div(3)
    }

    /// Whether `from` is another replica of this cluster.
    fn is_peer(&self, from: NodeId) -> bool {
        self.cluster.as_ref().is_some_and(|cl| {
            cl.membership
                .config()
                .index_of(from)
                .is_some_and(|i| i != cl.membership.index())
        })
    }

    /// A node we never completed the handshake with is talking to us —
    /// the Hello exchange was lost in transit. Re-solicit (at most once
    /// per tick interval) so a faulty channel can't orphan a switch.
    fn resolicit_handshake(&mut self, ctx: &mut Context<'_>, from: NodeId) {
        let now = ctx.now();
        let due = self
            .features_requested
            .get(&from)
            .is_none_or(|&last| now.duration_since(last) >= self.cfg.tick_interval);
        if due {
            self.features_requested.insert(from, now);
            self.stats.msgs_sent += 1;
            send_msg(ctx, from, &Message::FeaturesRequest, 0);
        }
    }

    /// Ask a quarantined switch that spoke to us for its state digest,
    /// at most once per tick interval.
    fn maybe_request_resync(&mut self, ctx: &mut Context<'_>, dpid: Dpid) {
        let now = ctx.now();
        if let Some(&last) = self.resync_requested.get(&dpid) {
            if now.duration_since(last) < self.cfg.tick_interval {
                return;
            }
        }
        self.resync_requested.insert(dpid, now);
        self.send_direct(ctx, dpid, &Message::ResyncRequest);
    }

    /// Probe every registered agent's control-channel liveness with an
    /// ECHO_REQUEST (the token encodes the send time, so a reply dates
    /// the probe it answers).
    fn echo_round(&mut self, ctx: &mut Context<'_>) {
        let targets: Vec<Dpid> = self.registry.keys().copied().collect();
        let token = ctx.now().as_nanos();
        for dpid in targets {
            self.stats.echo_probes += 1;
            self.send_direct(ctx, dpid, &Message::EchoRequest { token });
        }
    }

    /// Send one LLDP probe out of every known up port of every switch.
    /// Clustered, each replica probes only the switches it masters —
    /// every switch has exactly one master, so every port is still
    /// probed exactly once per round cluster-wide, and each probe's
    /// punt lands at the *destination* switch's master (which is why
    /// link expiry is filtered to destination-mastered links).
    fn discovery_round(&mut self, ctx: &mut Context<'_>) {
        let targets: Vec<(Dpid, PortNo)> = self
            .view
            .switches
            .iter()
            .filter(|&(&dpid, _)| self.is_master_of(dpid))
            .flat_map(|(&dpid, info)| {
                info.ports
                    .iter()
                    .filter(|&(_, &up)| up)
                    .map(move |(&port, _)| (dpid, port))
            })
            .collect();
        for (dpid, port) in targets {
            let frame = zen_wire::builder::PacketBuilder::lldp(
                zen_wire::EthernetAddress::from_id(0x70_0000 + dpid),
                dpid,
                port,
                LLDP_TTL_SECS,
            );
            self.stats.packet_outs += 1;
            let msg = Message::PacketOut {
                in_port: 0,
                actions: vec![zen_dataplane::Action::Output(port)],
                frame,
            };
            self.send_direct(ctx, dpid, &msg);
        }
    }

    /// Per-punt observation: LLDP discovery return path and host
    /// learning. Returns whether the frame should go on to the app
    /// chain (discovery probes and unparsable frames stop here).
    fn observe_packet_in(
        &mut self,
        ctx: &mut Context<'_>,
        dpid: Dpid,
        in_port: PortNo,
        frame: &[u8],
    ) -> bool {
        let Ok(eth) = Frame::new_checked(frame) else {
            return false;
        };
        // Discovery return path.
        if eth.ethertype() == EtherType::Lldp {
            self.stats.lldp_ins += 1;
            if let Ok(repr) = lldp::Repr::parse(eth.payload()) {
                let now = ctx.now();
                let new =
                    self.view
                        .add_link_at((repr.chassis_id, repr.port_id), (dpid, in_port), now);
                if new {
                    self.log_event(ViewEvent::LinkAdd {
                        from_dpid: repr.chassis_id,
                        from_port: repr.port_id,
                        to_dpid: dpid,
                        to_port: in_port,
                    });
                }
            }
            return false;
        }
        self.stats.packet_ins += 1;

        // Host learning from edge-port traffic.
        if self.view.is_edge_port(dpid, in_port) && eth.src_addr().is_unicast() {
            let ip = match eth.ethertype() {
                EtherType::Arp => arp::Packet::new_checked(eth.payload())
                    .ok()
                    .and_then(|p| arp::Repr::parse(&p).ok())
                    .map(|r| r.sender_protocol_addr)
                    .filter(|ip| ip.is_unicast()),
                EtherType::Ipv4 => ipv4::Packet::new_checked(eth.payload())
                    .ok()
                    .map(|p| p.src_addr())
                    .filter(|ip| ip.is_unicast()),
                _ => None,
            };
            let now = ctx.now();
            let mac = eth.src_addr();
            let recorded = self.view.hosts().get(&mac).and_then(|e| e.ip);
            let moved = self.view.learn_host(mac, dpid, in_port, ip, now);
            // A sighting only ever adds to or replaces the recorded IP.
            let known_ip = ip.or(recorded);
            if moved || known_ip != recorded {
                self.log_event(ViewEvent::HostLearned {
                    mac,
                    dpid,
                    port: in_port,
                    ip: known_ip,
                });
            }
        }
        true
    }

    /// Dispatch a batch of PACKET_INs from one control delivery into
    /// the app chain. Frames are borrowed straight from the receive
    /// buffer `bytes`; the per-dispatch overhead (session checks,
    /// mastership lookup, app-vector swap) is paid once per batch
    /// instead of once per punt.
    fn handle_packet_in_batch(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        bytes: &[u8],
        punts: &[Punt],
    ) {
        // Session preamble, once per batch. Peer replicas never punt;
        // drop rather than re-solicit a handshake from one.
        if self.is_peer(from) {
            return;
        }
        let Some(&dpid) = self.rev_registry.get(&from) else {
            self.resolicit_handshake(ctx, from);
            return;
        };
        if self.view.is_quarantined(dpid) {
            self.maybe_request_resync(ctx, dpid);
        }
        // Admission control: charge the per-switch punt budget before
        // anything downstream costs a cycle. Over-budget punts are
        // deferred to this switch's fair queue; queue overflow is shed
        // and charged to the offending (ingress, source MAC).
        let mut offenders_over: Vec<(PortNo, [u8; 6])> = Vec::new();
        let within_budget: Vec<Punt>;
        let admitted: &[Punt] = if let Some(adm) = self.admission.as_mut() {
            let now = ctx.now();
            let cids = adm.counters(ctx);
            let recording = ctx.recorder().is_enabled();
            let meter = adm
                .meters
                .entry(from)
                .or_insert_with(|| Meter::per_packet(adm.cfg.rate_pps, adm.cfg.burst));
            let mut admitted = Vec::with_capacity(punts.len());
            for &punt in punts {
                let (in_port, frame) = (punt.in_port, punt.frame(bytes));
                // Discovery returns bypass the meter: losing topology
                // under attack would turn one hostile port into a
                // fabric-wide outage.
                if is_lldp(frame) {
                    admitted.push(punt);
                    continue;
                }
                if meter.allow_one(now.as_nanos()) {
                    admitted.push(punt);
                    self.stats.punts_admitted += 1;
                    ctx.metrics().incr(cids[0]);
                    continue;
                }
                // Over budget: defer or shed, and charge the offender.
                let src_mac: [u8; 6] = frame
                    .get(6..12)
                    .and_then(|b| b.try_into().ok())
                    .unwrap_or([0u8; 6]);
                let queue = adm.queues.entry(from).or_default();
                let deferred = queue.len() < adm.cfg.queue_cap;
                if deferred {
                    queue.push_back((in_port, frame.to_vec()));
                    self.stats.punts_deferred += 1;
                    ctx.metrics().incr(cids[1]);
                } else {
                    self.stats.punts_shed += 1;
                    ctx.metrics().incr(cids[3]);
                }
                if recording {
                    let tid = trace_id_for_frame(frame).unwrap_or_else(|| control_trace(dpid));
                    let event = if deferred {
                        TraceEvent::PuntDeferred { dpid }
                    } else {
                        TraceEvent::PuntShed {
                            dpid,
                            at_agent: false,
                        }
                    };
                    ctx.recorder().record(now.as_nanos(), tid, event);
                }
                if adm.cfg.pushback_threshold > 0 {
                    let count = adm.offenders.entry((from, in_port, src_mac)).or_insert(0);
                    *count += 1;
                    if *count == adm.cfg.pushback_threshold {
                        offenders_over.push((in_port, src_mac));
                    }
                }
            }
            within_budget = admitted;
            &within_budget
        } else {
            punts
        };
        if !offenders_over.is_empty() {
            self.install_pushbacks(ctx, from, dpid, offenders_over);
        }
        self.deliver_punts(ctx, dpid, bytes, admitted);
    }

    /// Dispatch already-admitted punts from `dpid`, whose frames lie in
    /// `bytes`: fold them into the view (LLDP, host learning) and hand
    /// survivors to the app chain.
    fn deliver_punts(&mut self, ctx: &mut Context<'_>, dpid: Dpid, bytes: &[u8], punts: &[Punt]) {
        // Stragglers: punts routed here while mastership was in flight
        // are still good observations (learned below), but only the
        // master drives the datapath in response.
        let master = self.is_master_of(dpid);
        let recording = ctx.recorder().is_enabled();
        let mut dispatch = std::mem::take(&mut self.dispatch);
        dispatch.clear();
        for &punt in punts {
            let frame = punt.frame(bytes);
            if !self.observe_packet_in(ctx, dpid, punt.in_port, frame) {
                continue;
            }
            if !master {
                continue;
            }
            // While the recorder is enabled and the frame is a traced
            // probe, its dispatch runs under that trace: flow-mods and
            // packet-outs the apps issue are attributed to it, and the
            // dispatch itself is recorded with the claiming app.
            let trace = if recording {
                trace_id_for_frame(frame)
            } else {
                None
            };
            dispatch.push((punt, trace));
        }
        self.with_apps(ctx, |apps, ctl| {
            for &(punt, trace) in &dispatch {
                let (in_port, frame) = (punt.in_port, punt.frame(bytes));
                if trace.is_some() {
                    ctl.ctx.recorder().begin_trace(trace);
                }
                let mut claimed: Option<&'static str> = None;
                for app in apps.iter_mut() {
                    if app.on_packet_in(ctl, dpid, in_port, frame) == Disposition::Handled {
                        claimed = Some(app.name());
                        break;
                    }
                }
                if let Some(t) = trace {
                    let at = ctl.ctx.now().as_nanos();
                    let rec = ctl.ctx.recorder();
                    rec.record(
                        at,
                        t,
                        TraceEvent::AppDispatch {
                            app: claimed.unwrap_or("none"),
                            claimed: claimed.is_some(),
                        },
                    );
                    rec.end_trace();
                }
            }
        });
        self.dispatch = dispatch;
    }

    /// Push back: install a targeted drop rule for each offender that
    /// crossed the admission threshold, pinning its (ingress port,
    /// source MAC) at the switch for `pushback_hold`. The rule rides
    /// the normal tracked send path, so it is barrier-acked,
    /// retransmitted on loss, and visible in the cookie shadow.
    fn install_pushbacks(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        dpid: Dpid,
        offenders: Vec<(PortNo, [u8; 6])>,
    ) {
        if !self.is_master_of(dpid) {
            return;
        }
        let now = ctx.now();
        let (hold, threshold) = match self.admission.as_ref() {
            Some(adm) => (adm.cfg.pushback_hold, adm.cfg.pushback_threshold),
            None => return,
        };
        if threshold == 0 {
            return;
        }
        for (port, mac) in offenders {
            // Debounce: skip offenders whose drop rule should still be
            // live (the agent hard-expires it at `hold`, and our
            // bookkeeping lapses on the same clock).
            let adm = self.admission.as_mut().expect("checked");
            let live = adm
                .active_pushbacks
                .get(&(from, port, mac))
                .is_some_and(|&at| now.duration_since(at) < hold);
            if live {
                continue;
            }
            adm.active_pushbacks.insert((from, port, mac), now);
            self.stats.pushbacks_installed += 1;
            let cid = ctx
                .metrics()
                .register_counter("defense.pushbacks_installed");
            ctx.metrics().incr(cid);
            if ctx.recorder().is_enabled() {
                ctx.recorder().record(
                    now.as_nanos(),
                    control_trace(dpid),
                    TraceEvent::PushbackInstalled { dpid, port },
                );
            }
            let spec = FlowSpec::new(
                PUSHBACK_PRIORITY,
                FlowMatch {
                    in_port: Some(port),
                    eth_src: Some(EthernetAddress(mac)),
                    ..FlowMatch::ANY
                },
                Vec::new(), // no actions = drop
            )
            .with_timeouts(0, hold.as_nanos())
            .with_cookie(PUSHBACK_COOKIE)
            .with_importance(PUSHBACK_IMPORTANCE);
            self.with_apps(ctx, |_, ctl| {
                let mut txn = ctl.txn();
                txn.flow(dpid, 0, spec);
                txn.commit(ctl);
            });
        }
    }

    /// Drive the epoch-versioned two-phase update planner: activate the
    /// next queued [`NetworkUpdate`] when idle, and advance the active
    /// transaction through staging → flipping → draining as its barrier
    /// acks arrive. Called from the tick timer and after every control
    /// batch (acks resolve there), so phase transitions happen promptly.
    fn planner_pump(&mut self, ctx: &mut Context<'_>) {
        if !self.planner.is_busy() {
            return;
        }
        // The standard take/put dance: the planner must be out of
        // `self` while we call `with_apps` (callbacks get a fresh
        // default planner). Mirror the epoch into the stand-in so
        // callbacks that consult `staged_epoch` pick the right parity.
        let mut planner = std::mem::take(&mut self.planner);
        self.planner.config_epoch = planner.config_epoch;
        loop {
            if planner.active.is_none() {
                let Some(update) = planner.queue.pop_front() else {
                    break;
                };
                planner.active = Some(self.activate_txn(ctx, &planner, update));
                continue;
            }
            let now = ctx.now();
            let txn = planner.active.as_mut().expect("checked above");
            match txn.phase {
                TxnPhase::Staging => {
                    if txn.failed || now >= txn.deadline {
                        // A staged mod failed or a touched switch never
                        // acked: the new epoch is not fully installed
                        // anywhere packets could reach it, so undo the
                        // footprint and report the abort.
                        let txn = planner.active.take().expect("checked above");
                        self.abort_txn(ctx, txn);
                        continue;
                    }
                    if !txn.outstanding.is_empty() {
                        break;
                    }
                    // Every internal rule is acked: flip the edge.
                    txn.phase = TxnPhase::Flipping;
                    txn.deadline = now + TXN_DEADLINE;
                    let epoch = txn.epoch;
                    let msgs = std::mem::take(&mut txn.flip_msgs);
                    let mut outstanding = BTreeSet::new();
                    self.record_epoch_phase(ctx, epoch, TxnPhase::Flipping.name());
                    self.send_tracked_batch(ctx, &msgs, &mut outstanding);
                    txn.outstanding = outstanding;
                    if !txn.outstanding.is_empty() {
                        break;
                    }
                }
                TxnPhase::Flipping => {
                    if txn.failed {
                        // A flip mod failed. The new epoch is fully
                        // staged and other edges already stamp it, so
                        // aborting now would be worse than finishing:
                        // count it and leave the straggler edge to the
                        // quarantine/resync machinery.
                        self.stats.epoch_flip_failures += 1;
                        txn.failed = false;
                    }
                    if txn.outstanding.is_empty() || now >= txn.deadline {
                        txn.phase = TxnPhase::Draining;
                        txn.drain_until = now + TXN_DRAIN;
                        let epoch = txn.epoch;
                        self.record_epoch_phase(ctx, epoch, TxnPhase::Draining.name());
                    }
                    break;
                }
                TxnPhase::Draining => {
                    if now < txn.drain_until {
                        break;
                    }
                    // Old-epoch packets have drained: the epoch is
                    // committed. Send the old configuration's retire
                    // wave, but keep the transaction open until it is
                    // acked — the next epoch reuses this parity's
                    // cookies and group ids, and a retire retransmitted
                    // after a lost ack must never land on top of them.
                    txn.phase = TxnPhase::Retiring;
                    txn.deadline = now + TXN_DEADLINE;
                    let epoch = txn.epoch;
                    let owner = txn.owner;
                    let token = txn.token;
                    let msgs = std::mem::take(&mut txn.retire_msgs);
                    self.record_epoch_phase(ctx, epoch, "committed");
                    let mut retired = BTreeSet::new();
                    self.send_tracked_batch(ctx, &msgs, &mut retired);
                    let txn = planner.active.as_mut().expect("checked above");
                    txn.outstanding = retired;
                    txn.failed = false;
                    planner.config_epoch = epoch;
                    self.planner.config_epoch = epoch;
                    self.stats.txns_committed += 1;
                    self.with_apps(ctx, |apps, ctl| {
                        for app in apps.iter_mut() {
                            app.on_update_committed(ctl, owner, token);
                        }
                    });
                    continue;
                }
                TxnPhase::Retiring => {
                    // Retires are best-effort garbage collection: a
                    // failed one (switch died, resync superseded it)
                    // stops retransmitting and leaves stale rules only
                    // a resync will rebuild anyway — keep waiting for
                    // the rest, they are still on the wire.
                    txn.failed = false;
                    if txn.outstanding.is_empty() || now >= txn.deadline {
                        planner.active = None;
                        continue;
                    }
                    break;
                }
            }
        }
        // Updates committed by callbacks during the pump landed in the
        // stand-in's queue: carry them over.
        planner.queue.extend(self.planner.queue.drain(..));
        self.planner = planner;
    }

    /// Stage a committed update under the next epoch: decorate and send
    /// everything except the edge flips (held back for the flip) and
    /// the retire ops (held back for after the drain).
    fn activate_txn(
        &mut self,
        ctx: &mut Context<'_>,
        planner: &UpdatePlanner,
        update: NetworkUpdate,
    ) -> ActiveTxn {
        let epoch = planner.config_epoch + 1;
        let tag = epoch_tag(epoch);
        let mut stage_msgs: Vec<(Dpid, Message)> = Vec::new();
        let mut flip_msgs: Vec<(Dpid, Message)> = Vec::new();
        let mut retire_msgs: Vec<(Dpid, Message)> = Vec::new();
        let mut staged_cookies = BTreeSet::new();
        let mut staged_groups = BTreeSet::new();
        for mut op in update.ops {
            let batch = match &mut op {
                UpdateOp::Flow {
                    spec,
                    role: FlowRole::Edge,
                    ..
                } => {
                    // The flip: the rule starts stamping the new epoch
                    // the moment it replaces its predecessor (same
                    // priority + match).
                    spec.actions.insert(0, Action::SetEpoch(tag));
                    &mut flip_msgs
                }
                UpdateOp::Flow {
                    dpid, spec, role, ..
                } => {
                    if *role == FlowRole::Internal {
                        spec.matcher.epoch = Some(Some(tag));
                    }
                    staged_cookies.insert((*dpid, spec.cookie));
                    &mut stage_msgs
                }
                UpdateOp::Group { dpid, group_id, .. } => {
                    staged_groups.insert((*dpid, *group_id));
                    &mut stage_msgs
                }
                UpdateOp::RetireFlowsByCookie { .. } | UpdateOp::RetireGroup { .. } => {
                    &mut retire_msgs
                }
                UpdateOp::DeleteFlowsByCookie { .. }
                | UpdateOp::DeleteGroup { .. }
                | UpdateOp::Meter { .. } => &mut stage_msgs,
            };
            batch.push(op.into_message());
        }
        self.record_epoch_phase(ctx, epoch, TxnPhase::Staging.name());
        let mut outstanding = BTreeSet::new();
        self.send_tracked_batch(ctx, &stage_msgs, &mut outstanding);
        ActiveTxn {
            epoch,
            phase: TxnPhase::Staging,
            owner: update.owner,
            token: update.token,
            outstanding,
            failed: false,
            deadline: ctx.now() + TXN_DEADLINE,
            drain_until: Instant::ZERO,
            flip_msgs,
            retire_msgs,
            staged_cookies,
            staged_groups,
        }
    }

    /// Send a batch over the tracked path, recording which xids it
    /// actually consumed. Sends to unknown or non-mastered switches
    /// allocate no xid and therefore join no wait set — a dead switch
    /// fails a transaction by deadline, never by wedging it.
    fn send_tracked_batch(
        &mut self,
        ctx: &mut Context<'_>,
        msgs: &[(Dpid, Message)],
        outstanding: &mut BTreeSet<u32>,
    ) {
        self.with_apps(ctx, |_, ctl| {
            for (dpid, msg) in msgs {
                let x = ctl.peek_xid();
                ctl.send(*dpid, msg);
                if ctl.peek_xid() != x {
                    outstanding.insert(x);
                }
            }
        });
    }

    /// Tear down an active transaction that cannot complete: delete the
    /// staged new-epoch footprint (no packet is stamped with that epoch
    /// yet, so this is invisible to traffic) and notify the owner.
    fn abort_txn(&mut self, ctx: &mut Context<'_>, txn: ActiveTxn) {
        self.record_epoch_phase(ctx, txn.epoch, "aborted");
        self.stats.txns_aborted += 1;
        let mut deletes: Vec<(Dpid, Message)> = Vec::new();
        for &(dpid, cookie) in &txn.staged_cookies {
            deletes.push((
                dpid,
                Message::FlowMod {
                    table_id: 0,
                    cmd: FlowModCmd::DeleteByCookie { cookie },
                },
            ));
        }
        for &(dpid, group_id) in &txn.staged_groups {
            deletes.push((
                dpid,
                Message::GroupMod {
                    group_id,
                    cmd: GroupModCmd::Delete,
                },
            ));
        }
        let mut scratch = BTreeSet::new();
        self.send_tracked_batch(ctx, &deletes, &mut scratch);
        self.with_apps(ctx, |apps, ctl| {
            for app in apps.iter_mut() {
                app.on_update_aborted(ctl, txn.owner, txn.token);
            }
        });
    }

    /// Flight-record a two-phase transaction phase transition on the
    /// network-wide control timeline.
    fn record_epoch_phase(&mut self, ctx: &mut Context<'_>, epoch: u64, phase: &'static str) {
        let now = ctx.now();
        let rec = ctx.recorder();
        if rec.is_enabled() {
            rec.record(
                now.as_nanos(),
                control_trace(0),
                TraceEvent::EpochPhase { epoch, phase },
            );
        }
    }

    /// Release deferred punts, one per switch per round (round-robin
    /// from the cursor), up to `drain_batch` per firing — the fair
    /// share of leftover controller capacity. Also rolls the offender
    /// window.
    fn admission_drain(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let drained: Vec<(NodeId, PortNo, Vec<u8>)> = {
            let Some(adm) = self.admission.as_mut() else {
                return;
            };
            if now.duration_since(adm.window_started) >= adm.cfg.pushback_window {
                adm.offenders.clear();
                adm.window_started = now;
            }
            let mut budget = adm.cfg.drain_batch;
            let mut drained = Vec::new();
            while budget > 0 {
                let keys: Vec<NodeId> = adm
                    .queues
                    .iter()
                    .filter(|(_, q)| !q.is_empty())
                    .map(|(&k, _)| k)
                    .collect();
                if keys.is_empty() {
                    break;
                }
                let start = match adm.cursor {
                    Some(c) => keys.iter().position(|&k| k > c).unwrap_or(0),
                    None => 0,
                };
                for i in 0..keys.len() {
                    if budget == 0 {
                        break;
                    }
                    let k = keys[(start + i) % keys.len()];
                    if let Some((port, frame)) = adm.queues.get_mut(&k).and_then(|q| q.pop_front())
                    {
                        drained.push((k, port, frame));
                        budget -= 1;
                        adm.cursor = Some(k);
                    }
                }
            }
            adm.queues.retain(|_, q| !q.is_empty());
            drained
        };
        if drained.is_empty() {
            return;
        }
        let cids = match self.admission.as_mut() {
            Some(adm) => adm.counters(ctx),
            None => return,
        };
        for (node, in_port, frame) in drained {
            let Some(&dpid) = self.rev_registry.get(&node) else {
                continue;
            };
            self.stats.punts_drained += 1;
            ctx.metrics().incr(cids[2]);
            let punt = Punt::of(&frame, in_port, &frame);
            self.deliver_punts(ctx, dpid, &frame, &[punt]);
        }
    }

    /// A switch answers a fence: retire what it confirms.
    fn barrier_reply(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        xid: u32,
        applied: XidList<'_>,
    ) {
        let (stats, planner, shadow) = (&mut self.stats, &mut self.planner, &mut self.shadow);
        let mut shadow_moved = false;
        let dpid = self
            .southbound
            .barrier_reply(from, xid, applied, |dpid, p| {
                stats.mods_acked += 1;
                planner.note_xid(p.xid, true);
                let rec = ctx.recorder();
                if rec.is_enabled() {
                    if let Some(trace) = rec.take_xid(p.xid) {
                        rec.record(
                            ctx.now().as_nanos(),
                            trace,
                            TraceEvent::FlowModAcked { dpid, xid: p.xid },
                        );
                    }
                }
                if let Some(op) = p.shadow {
                    shadow_moved |= op.apply(shadow.entry(dpid).or_default());
                }
            });
        // Replicate the updated digest so a standby that later takes
        // this switch over inherits an accurate shadow (one event per
        // barrier, not per mod — and none for a batch of group mods,
        // which leaves the counts alone).
        if let Some(dpid) = dpid.filter(|_| shadow_moved && self.cluster.is_some()) {
            let cookies = self.shadow_cookies(dpid);
            self.log_event(ViewEvent::ShadowSet { dpid, cookies });
        }
    }

    fn handle_message(
        &mut self,
        ctx: &mut Context<'_>,
        from: NodeId,
        view: MessageView<'_>,
        xid: u32,
    ) {
        // East-west traffic from a peer replica bypasses the switch-
        // session machinery below (quarantine, handshake re-solicit).
        if self.is_peer(from) {
            self.handle_peer_message(ctx, view.into_message());
            return;
        }
        // Any frame from a quarantined switch means the channel is back;
        // ask for its state digest (quarantine lifts only on HelloResync,
        // so routing stays conservative until state is reconciled).
        let known = self.rev_registry.get(&from).copied();
        if let Some(dpid) = known {
            let resync = matches!(view, MessageView::Owned(Message::HelloResync { .. }));
            if self.view.is_quarantined(dpid) && !resync {
                self.maybe_request_resync(ctx, dpid);
            }
        } else if !matches!(
            view,
            MessageView::Owned(Message::Hello { .. } | Message::FeaturesReply { .. })
        ) {
            self.resolicit_handshake(ctx, from);
        }
        if let MessageView::BarrierReply { applied } = view {
            // Read where it lies: owning it would copy a list walked once.
            return self.barrier_reply(ctx, from, xid, applied);
        }
        match view.into_message() {
            Message::Hello { .. } => {
                // Learn the session, ask who they are.
                let hello = Message::Hello {
                    version: zen_proto::VERSION,
                };
                self.stats.msgs_sent += 2;
                send_msg(ctx, from, &hello, 0);
                send_msg(ctx, from, &Message::FeaturesRequest, 0);
            }
            Message::FeaturesReply {
                dpid,
                n_tables,
                ports,
            } => {
                // One switch, one channel: a dpid stays with the node
                // that first claimed it, and a node with the dpid it
                // first gave. A second claimant is refused, or every
                // later mod, probe and PACKET_OUT for the first one's
                // switch would go to it.
                let taken = self.registry.get(&dpid).is_some_and(|&node| node != from);
                if taken || known.is_some_and(|held| held != dpid) {
                    let (code, data) = (ErrorCode::BadRequest, Vec::new());
                    self.stats.msgs_sent += 1;
                    send_msg(ctx, from, &Message::Error { code, data }, xid);
                    return;
                }
                self.registry.insert(dpid, from);
                self.rev_registry.insert(from, dpid);
                self.liveness.insert(from, ctx.now());
                self.features_requested.remove(&from);
                let port_list: Vec<(PortNo, bool)> =
                    ports.iter().map(|p| (p.port_no, p.up)).collect();
                self.view.add_switch(dpid, n_tables, &port_list);
                if self.port_refresh.remove(&dpid) {
                    // A solicited port-map refresh, not a handshake:
                    // the session, role, and app state are all live.
                    // Discovery picks the fresh ports up next tick.
                    return;
                }
                // Clustered: settle the connection's role before any app
                // traffic, so the agent routes punts (and accepts mods)
                // from the first packet. The deterministic assignment
                // needs no negotiation — everyone computes the same one.
                if self.cluster.is_some() {
                    let (claim_master, newly, term, replica) = {
                        let cl = self.cluster.as_mut().expect("checked above");
                        let claim = cl.wants_mastership(dpid) && !cl.deferred.contains_key(&dpid);
                        // A reply can also be a mid-mastership refresh
                        // (the takeover path re-solicits features for
                        // port state); only a first claim is a handover.
                        let newly = claim && cl.my_masters.insert(dpid);
                        let (term, replica) = cl.membership.claim();
                        (claim, newly, term, replica)
                    };
                    let role = if claim_master {
                        if newly {
                            self.stats.masterships_gained += 1;
                        }
                        Role::Master
                    } else {
                        Role::Equal
                    };
                    self.send_direct(
                        ctx,
                        dpid,
                        &Message::RoleRequest {
                            role,
                            term,
                            replica,
                        },
                    );
                    if newly {
                        self.note_mastership_trace(ctx, dpid, true);
                    }
                }
                self.with_apps(ctx, |apps, ctl| {
                    for app in apps.iter_mut() {
                        app.on_switch_up(ctl, dpid);
                    }
                });
                // Probe its links right away.
                self.discovery_round(ctx);
            }
            Message::PortStatus { port } => {
                let Some(dpid) = known else {
                    return;
                };
                self.view.set_port(dpid, port.port_no, port.up);
                self.with_apps(ctx, |apps, ctl| {
                    for app in apps.iter_mut() {
                        app.on_port_status(ctl, dpid, port.port_no, port.up);
                    }
                });
            }
            Message::FlowRemoved {
                table_id,
                priority,
                cookie,
                reason,
                ..
            } => {
                let Some(dpid) = known else {
                    return;
                };
                if reason == zen_proto::RemovedReason::Eviction {
                    self.stats.evictions_noted += 1;
                }
                // Keep the cookie shadow honest for timeouts; deletions
                // we ordered ourselves are folded in at barrier-ack time.
                if reason != zen_proto::RemovedReason::Delete {
                    let shadow = self.shadow.entry(dpid).or_default();
                    let shrunk = ShadowOp::Removed(cookie).apply(shadow);
                    if shrunk && self.cluster.is_some() && self.is_master_of(dpid) {
                        let cookies = self.shadow_cookies(dpid);
                        self.log_event(ViewEvent::ShadowSet { dpid, cookies });
                    }
                }
                self.with_apps(ctx, |apps, ctl| {
                    for app in apps.iter_mut() {
                        app.on_flow_removed(ctl, dpid, table_id, priority, cookie);
                    }
                });
            }
            Message::EchoRequest { token } => {
                self.stats.msgs_sent += 1;
                send_msg(ctx, from, &Message::EchoReply { token }, 0);
            }
            Message::EchoReply { .. } => {
                self.stats.echo_replies += 1;
            }
            Message::StatsReply { body } => {
                let Some(&dpid) = self.rev_registry.get(&from) else {
                    return;
                };
                self.with_apps(ctx, |apps, ctl| {
                    for app in apps.iter_mut() {
                        match &body {
                            zen_proto::StatsBody::Port(records) => {
                                app.on_port_stats(ctl, dpid, records)
                            }
                            zen_proto::StatsBody::Table(records) => {
                                app.on_table_stats(ctl, dpid, records)
                            }
                            zen_proto::StatsBody::Flow(records) => {
                                app.on_flow_stats(ctl, dpid, records)
                            }
                            zen_proto::StatsBody::Cache(record) => {
                                app.on_cache_stats(ctl, dpid, record)
                            }
                        }
                    }
                });
            }
            Message::HelloResync {
                generation,
                cookies,
            } => {
                let Some(&dpid) = self.rev_registry.get(&from) else {
                    return;
                };
                let restarted = self.southbound.restarted(from, dpid, generation);
                if cookies == self.shadow_cookies(dpid) && !restarted {
                    // The switch kept exactly the state we believe it
                    // has; unacked mods stay pending and retransmit.
                    self.stats.resyncs_clean += 1;
                    self.view.unquarantine(dpid);
                } else {
                    // Diverged: in-flight mods were computed against a
                    // stale world — drop them and let the owning apps
                    // reprogram from the reported truth.
                    self.stats.resyncs_dirty += 1;
                    for x in self.southbound.supersede(from) {
                        self.stats.mods_superseded += 1;
                        self.planner.note_xid(x, false);
                    }
                    let reported = cookies.iter().map(|c| (c.cookie, c.count.into()));
                    self.shadow.insert(dpid, reported.collect());
                    if self.cluster.is_some() && self.is_master_of(dpid) {
                        let cookies = self.shadow_cookies(dpid);
                        self.log_event(ViewEvent::ShadowSet { dpid, cookies });
                    }
                    // Unquarantine *before* notifying apps so their
                    // reprogramming sees the switch in the graph.
                    self.view.unquarantine(dpid);
                    self.forget_stamps(dpid);
                    self.resync_apps(ctx, dpid);
                }
            }
            Message::RoleReply {
                role,
                term,
                replica,
            } => {
                // Only losing claims need bookkeeping: the switch names
                // the `(term, replica)` that outranked us, and we defer
                // to it until our own claim grows past it.
                let Some(&dpid) = self.rev_registry.get(&from) else {
                    return;
                };
                let stepped_down = {
                    let Some(cl) = self.cluster.as_mut() else {
                        return;
                    };
                    if role == Role::Master || replica == cl.membership.index() as u32 {
                        return;
                    }
                    cl.deferred.insert(dpid, (term, replica));
                    cl.my_masters.remove(&dpid)
                };
                if stepped_down {
                    self.mastership_lost(ctx, dpid, false);
                }
            }
            Message::Error {
                code: ErrorCode::NotMaster,
                data,
            } => {
                // A mod crossed a mastership change in flight. The
                // diagnostic bytes carry the rejected request's xid.
                self.stats.nonmaster_errors += 1;
                let Some(&dpid) = self.rev_registry.get(&from) else {
                    return;
                };
                let mod_xid = (data.len() == 4)
                    .then(|| u32::from_be_bytes([data[0], data[1], data[2], data[3]]));
                if self.cluster.is_some() && self.is_master_of(dpid) {
                    // We still believe we are master: our RoleRequest may
                    // have been lost, or the RoleReply demoting us is in
                    // flight. Re-assert; the mod stays pending and the
                    // retransmit path retries it under the settled role.
                    let (term, replica) = self
                        .cluster
                        .as_ref()
                        .map(|cl| cl.membership.claim())
                        .expect("checked above");
                    self.send_direct(
                        ctx,
                        dpid,
                        &Message::RoleRequest {
                            role: Role::Master,
                            term,
                            replica,
                        },
                    );
                } else if let Some(mx) = mod_xid {
                    // We already stepped down: the mod belongs to the new
                    // master's world now.
                    if self.southbound.retire(from, mx) {
                        self.stats.mods_superseded += 1;
                        self.planner.note_xid(mx, false);
                    }
                }
            }
            Message::Error {
                code: ErrorCode::TableFull,
                data,
            } => {
                // A switch bounced a flow add for lack of table capacity
                // (refuse overflow policy). The diagnostic bytes carry
                // the refused mod's xid: retire it from the pending set
                // as failed rather than letting it burn its whole
                // retransmit budget — resending cannot create capacity.
                self.stats.table_full_errors += 1;
                let Some(&dpid) = self.rev_registry.get(&from) else {
                    return;
                };
                if data.len() == 4 {
                    let mx = u32::from_be_bytes([data[0], data[1], data[2], data[3]]);
                    if self.southbound.retire(from, mx) {
                        self.stats.mods_failed += 1;
                        self.planner.note_xid(mx, false);
                    }
                }
                self.with_apps(ctx, |apps, ctl| {
                    for app in apps.iter_mut() {
                        app.on_table_full(ctl, dpid);
                    }
                });
            }
            // Other errors, ResyncRequest (agent-bound): informational.
            _ => {}
        }
    }
}

impl Node for Controller {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.cfg.tick_interval, TIMER_TICK);
        if let Some(adm) = &self.admission {
            ctx.set_timer(adm.cfg.drain_interval, TIMER_ADMIT);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token == TIMER_ADMIT {
            self.admission_drain(ctx);
            self.flush_barriers(ctx);
            if let Some(adm) = &self.admission {
                ctx.set_timer(adm.cfg.drain_interval, TIMER_ADMIT);
            }
        }
        if token == TIMER_FENCE {
            let due = self.fence_interval();
            let left = self.southbound.fence_aged(ctx.now(), due);
            self.flush_barriers(ctx);
            self.fence_armed = left.is_some();
            if let Some(waited) = left {
                ctx.set_timer(due - waited, TIMER_FENCE);
            }
        }
        if token == TIMER_TICK {
            // Silent-failure detection: drop links whose LLDP confirmations
            // stopped arriving. Clustered, a replica only ages links whose
            // *destination* it masters — confirmations arrive at the
            // destination's master, so everyone else's staleness clock
            // says nothing (and would false-expire every link the moment
            // a master dies, since the lease outlives link_max_age).
            // Links whose *source* is a peer's switch get a full extra
            // lease of grace: the source's master sends the probes, and
            // if it just died, probing only resumes after its lease
            // lapses and the takeover re-solicits — expiring at the
            // plain max-age would tear down every link out of a dead
            // master's switches before failover can even start.
            let now = ctx.now();
            let removed = if let Some(cl) = &self.cluster {
                let lease = cl.membership.config().lease_timeout;
                let masters = cl.my_masters.clone();
                let mut removed = self.view.expire_links_filtered(
                    now,
                    self.cfg.link_max_age,
                    |(from, _), (to, _)| masters.contains(&to) && masters.contains(&from),
                );
                removed.extend(self.view.expire_links_filtered(
                    now,
                    self.cfg.link_max_age + lease,
                    |(from, _), (to, _)| masters.contains(&to) && !masters.contains(&from),
                ));
                removed
            } else {
                self.view.expire_links(now, self.cfg.link_max_age)
            };
            for ((dpid, port), _) in removed {
                self.log_event(ViewEvent::LinkDel {
                    from_dpid: dpid,
                    from_port: port,
                });
                self.with_apps(ctx, |apps, ctl| {
                    for app in apps.iter_mut() {
                        app.on_port_status(ctl, dpid, port, false);
                    }
                });
            }
            self.quarantine_scan(ctx);
            self.retransmit_scan(ctx);
            self.cluster_tick(ctx);
            if self.cluster.is_none() {
                // Standalone intents commit on the tick, skipping the
                // cluster round cluster_tick would have run.
                self.dispatch_committed_intents(ctx);
            }
            self.discovery_round(ctx);
            self.echo_round(ctx);
            self.with_apps(ctx, |apps, ctl| {
                for app in apps.iter_mut() {
                    app.tick(ctl);
                }
            });
            self.planner_pump(ctx);
            self.flush_barriers(ctx);
            ctx.set_timer(self.cfg.tick_interval, TIMER_TICK);
        }
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _port: PortNo, _frame: &[u8]) {
        // The controller has no data-plane ports (out-of-band control).
    }

    fn on_control(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
        // Any bytes at all prove the agent's channel works.
        self.liveness.insert(from, ctx.now());
        let mut at = 0;
        // PACKET_INs decode to borrowed views over `bytes` and are
        // collected for one batched app dispatch. Any other message
        // flushes the batch first, preserving relative order.
        let mut punts = std::mem::take(&mut self.punts);
        while at < bytes.len() {
            match decode_view(&bytes[at..]) {
                Ok((view, xid, consumed)) => {
                    at += consumed;
                    self.stats.msgs_received += 1;
                    match view {
                        MessageView::PacketIn { in_port, frame, .. } => {
                            punts.push(Punt::of(bytes, in_port, frame));
                        }
                        other => {
                            if !punts.is_empty() {
                                self.handle_packet_in_batch(ctx, from, bytes, &punts);
                                punts.clear();
                            }
                            self.handle_message(ctx, from, other, xid);
                        }
                    }
                }
                Err(_) => {
                    self.stats.decode_errors += 1;
                    break;
                }
            }
        }
        if !punts.is_empty() {
            self.handle_packet_in_batch(ctx, from, bytes, &punts);
            punts.clear();
        }
        self.punts = punts;
        self.planner_pump(ctx);
        self.flush_barriers(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use zen_cluster::ClusterConfig;
    use zen_proto::{decode, encode, RemovedReason};
    use zen_sim::World;

    use super::*;

    const DPID: Dpid = 7;
    const COOKIE: u64 = 5;

    /// Installs one entry that idles out, on every switch that comes up.
    struct Seed;

    impl App for Seed {
        fn name(&self) -> &'static str {
            "seed"
        }
        fn on_switch_up(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid) {
            let spec = FlowSpec::new(1, FlowMatch::ANY, vec![]).with_timeouts(1_000_000, 0);
            let cmd = FlowModCmd::Add(spec.with_cookie(COOKIE));
            ctl.send(dpid, &Message::FlowMod { table_id: 0, cmd });
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// A switch stand-in: registers, then answers the first fence with
    /// the FLOW_REMOVED of everything it names and the BARRIER_REPLY —
    /// the removal first if `removed_first`. Keeps when each flow mod
    /// and each fence arrived.
    struct Script {
        controller: NodeId,
        dpid: Dpid,
        removed_first: bool,
        mods_at: Vec<Instant>,
        fences_at: Vec<Instant>,
    }

    impl Node for Script {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let (dpid, n_tables, ports) = (self.dpid, 1, vec![]);
            #[rustfmt::skip]
            let up = Message::FeaturesReply { dpid, n_tables, ports };
            ctx.send_control(self.controller, encode(&up, 0));
        }
        fn on_control(&mut self, ctx: &mut Context<'_>, _: NodeId, mut bytes: &[u8]) {
            while let Ok((msg, xid, used)) = decode(bytes) {
                bytes = &bytes[used..];
                if let Message::FlowMod { .. } = msg {
                    self.mods_at.push(ctx.now());
                }
                let Message::BarrierRequest { xids } = msg else {
                    continue;
                };
                self.fences_at.push(ctx.now());
                let removed = Message::FlowRemoved {
                    table_id: 0,
                    priority: 1,
                    cookie: COOKIE,
                    reason: RemovedReason::IdleTimeout,
                    packets: 0,
                    bytes: 0,
                };
                let acked = Message::BarrierReply { applied: xids };
                let mut answer = [encode(&removed, 0), encode(&acked, xid)];
                if !self.removed_first {
                    answer.swap(0, 1);
                }
                ctx.send_control(self.controller, answer.concat());
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

    /// One more scripted switch in `world`.
    fn add_script(
        world: &mut World,
        controller: NodeId,
        dpid: Dpid,
        removed_first: bool,
    ) -> NodeId {
        world.add_node(Box::new(Script {
            controller,
            dpid,
            removed_first,
            mods_at: Vec::new(),
            fences_at: Vec::new(),
        }))
    }

    /// A world of `ctl` and one scripted switch, run for `millis`.
    fn run(ctl: Controller, removed_first: bool, millis: u64) -> (World, NodeId, NodeId) {
        let mut world = World::new(1);
        let controller = world.add_node(Box::new(ctl));
        let switch = add_script(&mut world, controller, DPID, removed_first);
        world.run_until(Instant::from_millis(millis));
        (world, controller, switch)
    }

    /// The shadow one replica is left with, and the digests it gossiped,
    /// after an entry's add is acknowledged and the entry idles out.
    fn shadow_after(removed_first: bool) -> (Vec<CookieCount>, Vec<Vec<CookieCount>>) {
        let mut ctl = Controller::new(vec![Box::new(Seed)]);
        ctl.enable_cluster(ClusterConfig::new(vec![NodeId(0)], 0));
        let (world, controller, _) = run(ctl, removed_first, 1_000);
        let ctl = world.node_as::<Controller>(controller);
        assert_eq!((ctl.stats.mods_acked, ctl.pending_mods()), (1, 0));
        let (_, gossiped, _) = ctl.cluster.as_ref().expect("clustered").store.snapshot();
        let digests = gossiped.into_iter().filter_map(|e| match e.event {
            ViewEvent::ShadowSet { cookies, .. } => Some(cookies),
            _ => None,
        });
        (ctl.shadow_cookies(DPID), digests.collect())
    }

    /// A lone soft add is fenced by the fence timer, `mod_timeout / 3`
    /// after it was sent, whatever the tick is: it is acknowledged and
    /// never resent.
    #[test]
    fn a_lone_soft_add_is_fenced_at_a_third_of_the_mod_timeout() {
        let cfg = ControllerConfig {
            tick_interval: Duration::from_secs(1),
            ..ControllerConfig::default()
        };
        let ctl = Controller::with_config(vec![Box::new(Seed)], cfg);
        let (world, controller, switch) = run(ctl, false, 900);
        let script = world.node_as::<Script>(switch);
        assert_eq!((script.mods_at.len(), script.fences_at.len()), (1, 1));
        let waited = script.fences_at[0] - script.mods_at[0];
        assert_eq!(waited, cfg.mod_timeout.div(3));
        let ctl = world.node_as::<Controller>(controller);
        let stats = &ctl.stats;
        assert_eq!((stats.mods_acked, stats.mods_retransmitted), (1, 0));
        assert_eq!(ctl.pending_mods(), 0);
    }

    /// Commits one per-packet update, a soft add on each of two
    /// switches, when the second comes up.
    struct TwoPhase;

    impl App for TwoPhase {
        fn name(&self) -> &'static str {
            "two-phase"
        }
        fn on_switch_up(&mut self, ctl: &mut Ctl<'_, '_>, _: Dpid) {
            if ctl.view.switches.len() == 2 {
                let spec = FlowSpec::new(1, FlowMatch::ANY, vec![]).with_timeouts(1_000_000, 0);
                let mut txn = ctl.txn().per_packet();
                txn.flow(DPID, 0, spec.clone()).flow(DPID + 1, 0, spec);
                txn.commit(ctl);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Someone waits on every ack while a two-phase transaction has
    /// xids outstanding: the soft adds it stages are fenced in the
    /// dispatch that sends them, not a fence interval later, and the
    /// transaction commits on its own clock.
    #[test]
    fn soft_adds_of_a_two_phase_transaction_are_fenced_at_once() {
        let mut world = World::new(1);
        let controller = world.add_node(Box::new(Controller::new(vec![Box::new(TwoPhase)])));
        let switches = [DPID, DPID + 1].map(|d| add_script(&mut world, controller, d, false));
        world.run_until(Instant::from_millis(400));
        for switch in switches {
            let script = world.node_as::<Script>(switch);
            assert_eq!(script.mods_at.len(), 1);
            assert_eq!(script.fences_at, script.mods_at);
        }
        let stats = &world.node_as::<Controller>(controller).stats;
        assert_eq!((stats.txns_committed, stats.mods_retransmitted), (1, 0));
    }

    /// Answers FEATURES_REQUEST-less: claims each of `claims` in turn
    /// 10 ms in, and keeps what it is sent.
    struct Claimant {
        controller: NodeId,
        claims: Vec<Dpid>,
        got: Vec<Message>,
    }

    impl Node for Claimant {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(Duration::from_millis(10), 0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, _: u64) {
            for &dpid in &self.claims {
                let (n_tables, ports) = (1, vec![]);
                #[rustfmt::skip]
                let up = Message::FeaturesReply { dpid, n_tables, ports };
                ctx.send_control(self.controller, encode(&up, 0));
            }
        }
        fn on_control(&mut self, _: &mut Context<'_>, _: NodeId, mut bytes: &[u8]) {
            while let Ok((msg, _, used)) = decode(bytes) {
                bytes = &bytes[used..];
                self.got.push(msg);
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

    /// A FEATURES_REPLY naming a dpid that answers from another node,
    /// or coming from a node that gave another dpid, is refused with an
    /// error: the switch that registered first keeps its dpid, its mods
    /// and its probes, and the view gains nothing.
    #[test]
    fn a_second_claim_to_a_dpid_is_refused() {
        let mut world = World::new(1);
        let controller = world.add_node(Box::new(Controller::new(vec![Box::new(Seed)])));
        let switch = add_script(&mut world, controller, DPID, false);
        // The switch's dpid, then one of its own, then a second one.
        let claims = vec![DPID, DPID + 1, DPID + 2];
        let claimant = world.add_node(Box::new(Claimant {
            controller,
            claims,
            got: Vec::new(),
        }));
        // Short of the first resend: the claimant acknowledges nothing.
        world.run_until(Instant::from_millis(150));

        let ctl = world.node_as::<Controller>(controller);
        let registered: Vec<(Dpid, NodeId)> = ctl.registry.iter().map(|(&d, &n)| (d, n)).collect();
        assert_eq!(registered, [(DPID, switch), (DPID + 1, claimant)]);
        assert_eq!(ctl.view.switches.len(), 2);
        assert_eq!(ctl.stats.flow_mods, 2, "one seed flow per switch up");
        assert_eq!(world.node_as::<Script>(switch).mods_at.len(), 1);
        let got = &world.node_as::<Claimant>(claimant).got;
        let count = |of: fn(&Message) -> bool| got.iter().filter(|m| of(m)).count();
        #[rustfmt::skip]
        let refused = |m: &Message| matches!(m, Message::Error { code: ErrorCode::BadRequest, .. });
        assert_eq!(count(refused), 2);
        assert_eq!(count(|m| matches!(m, Message::FlowMod { .. })), 1);
    }

    /// A FLOW_REMOVED that overtakes the ack of the add it removes
    /// leaves the shadow — and what a standby is told of it — where the
    /// other order leaves them: empty.
    #[test]
    fn shadow_does_not_depend_on_arrival_order() {
        let (acked_first, gossiped) = shadow_after(false);
        assert_eq!(acked_first, []);
        assert_eq!(gossiped.last(), Some(&Vec::new()));
        let (removed_first, gossiped) = shadow_after(true);
        assert_eq!(removed_first, []);
        assert!(gossiped.last().is_none_or(|last| last.is_empty()));
    }
}
