//! The switch agent: the protocol core that embeds a [`Datapath`] and
//! speaks `zen-proto` to the controller.
//!
//! This is the software running *on* the switch in a deployed SDN — the
//! part of Open vSwitch that terminates the OpenFlow session: it
//! registers local ports, punts table misses as PACKET_IN, applies
//! FLOW_MOD / GROUP_MOD / METER_MOD, executes PACKET_OUT, answers
//! BARRIER and STATS, and reports PORT_STATUS and FLOW_REMOVED.
//!
//! The agent takes the time and what arrived, and writes through the
//! [`SwitchIo`] it is handed, so a test can drive a real switch without
//! a world; `agent_node.rs` makes it a simulator node.

use std::collections::{BTreeMap, VecDeque};

use zen_dataplane::{
    AddOutcome, Datapath, DatapathId, Effect, FlowEntry, MissPolicy, OverflowPolicy, PortNo,
    RemovedReason,
};
use zen_proto::{
    encode_barrier_reply_into, encode_into, frames, ErrorCode, FlowModCmd, GroupModCmd, Message,
    MessageView, MeterModCmd, PortDesc, Role, StatsBody, StatsKind, VERSION,
};
use zen_sim::{Duration, Instant, NodeId};
use zen_telemetry::{trace_id_for_frame, Recorder, TraceEvent, TraceId};

use crate::{is_lldp, ControlIo};

const TIMER_EXPIRE: u64 = 1;
const TIMER_ECHO: u64 = 2;

/// How often tables are scanned for idle/hard timeouts.
const EXPIRE_INTERVAL: Duration = Duration::from_millis(10);
/// Keepalive probe interval.
const ECHO_INTERVAL: Duration = Duration::from_millis(50);
/// Consecutive unanswered probes before `Disconnected`.
const MISS_LIMIT: u32 = 4;

/// What the agent asks of the switch it runs on: what any protocol end
/// asks of its node ([`ControlIo`]), and the switch's ports.
pub trait SwitchIo: ControlIo {
    /// Send `frame` out of `port`.
    fn transmit(&mut self, port: PortNo, frame: Vec<u8>);
    /// The switch's ports, ascending.
    fn ports(&self) -> Vec<PortNo>;
    /// Whether the link on `port` carries frames. The carrier decides: a
    /// silent cut is down here while the datapath still holds it up.
    fn port_up(&self, port: PortNo) -> bool;
}

/// What the agent does with table-miss traffic while it believes the
/// controller is unreachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnLossPolicy {
    /// Keep installed flows and flood unmatched edge traffic out every
    /// up port — the switch degrades to a learning-less hub rather than
    /// a black hole (OpenFlow's fail-standalone mode).
    #[default]
    FailStandalone,
    /// Keep installed flows but drop table-miss packets — no traffic
    /// moves without controller say-so (fail-secure mode).
    FailSecure,
}

/// The agent's view of its control session, driven by echo keepalives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnState {
    /// Replies arriving normally.
    #[default]
    Connected,
    /// At least one probe outstanding past its interval.
    Degraded,
    /// `MISS_LIMIT` (4) consecutive probes unanswered; the conn-loss
    /// policy governs miss traffic until the controller is heard from
    /// again.
    Disconnected,
}

/// Tunables for the switch agent.
#[derive(Debug, Clone, Copy)]
pub struct AgentConfig {
    /// Behaviour for miss traffic while disconnected.
    pub policy: ConnLossPolicy,
    /// Capacity bound applied to every flow table at construction, with
    /// the overflow policy a full table follows. `None` = unbounded
    /// (the classic behaviour).
    pub table_limit: Option<(usize, OverflowPolicy)>,
    /// Punt-path self-defense: a token bucket on PACKET_INs toward the
    /// master. Punts over the budget are shed *at the switch* — they
    /// never cross the control channel, so a local PACKET_IN storm
    /// cannot monopolize the controller. `None` = unmetered (the
    /// classic behaviour).
    pub punt_meter: Option<PuntMeterConfig>,
}

/// Budget for the agent's punt-path meter ([`AgentConfig::punt_meter`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PuntMeterConfig {
    /// Sustained PACKET_INs per second toward the master.
    pub rate_pps: u64,
    /// Burst allowance, in PACKET_INs.
    pub burst: u64,
}

impl Default for AgentConfig {
    fn default() -> AgentConfig {
        AgentConfig {
            policy: ConnLossPolicy::FailStandalone,
            table_limit: None,
            punt_meter: None,
        }
    }
}

/// Agent counters, read by experiments.
#[derive(Debug, Default, Clone, Copy)]
pub struct AgentStats {
    /// Messages written to any controller, counted where the agent
    /// writes them.
    pub msgs_sent: u64,
    /// PACKET_INs sent to the controller.
    pub packet_ins: u64,
    /// FLOW_MODs applied.
    pub flow_mods: u64,
    /// PACKET_OUTs executed.
    pub packet_outs: u64,
    /// Protocol decode errors.
    pub decode_errors: u64,
    /// ECHO_REQUESTs sent to the controller (liveness probes).
    pub echo_sent: u64,
    /// ECHO_REPLYs received from the controller.
    pub echo_replies: u64,
    /// Miss packets flooded while disconnected (fail-standalone).
    pub standalone_floods: u64,
    /// Punted packets dropped while disconnected.
    pub disconnected_drops: u64,
    /// Transitions out of `Disconnected` (each sends a HELLO_RESYNC).
    pub reconnects: u64,
    /// State mods rejected because the sending connection did not hold
    /// the Master role (each answered with a NOT_MASTER error frame).
    pub nonmaster_rejected: u64,
    /// Flow adds bounced with a TABLE_FULL error frame (refuse policy).
    pub table_full_rejected: u64,
    /// Capacity evictions reported to the master as
    /// `FlowRemoved { reason: Eviction }` (evict policy).
    pub evictions_reported: u64,
    /// PACKET_INs shed at the agent's punt-path meter before
    /// transmission ([`AgentConfig::punt_meter`]).
    pub punts_metered: u64,
}

/// One control connection of a (possibly multi-homed) agent.
#[derive(Debug, Clone, Copy)]
struct Conn {
    node: NodeId,
    state: ConnState,
    /// Probes sent on this connection since it was last heard from.
    outstanding: u32,
    role: Role,
}

/// How many applied xids an agent remembers for barrier answers.
const APPLIED_XIDS: usize = 4096;

/// The applied-xid window: the xids of the last [`APPLIED_XIDS`] state
/// mods that took effect, whichever controller sent them, in arrival
/// order. When full, the *oldest arrival* goes first. (Evicting the
/// smallest xid instead — "xids rise, so the smallest is the oldest" —
/// holds per controller, not per switch: a new master's counter is
/// usually behind the old one's, and its mods would be forgotten the
/// moment they were filed.)
///
/// Filing is a push. A barrier names mods sent just before it, so the
/// membership test walks from the newest arrival back and nearly always
/// stops within a burst's length; only an xid that never arrived, yet is
/// older than its sender's newest, costs a walk of the whole window. A
/// mod applied twice (a retransmission) is filed twice — the window
/// holds applications, not distinct xids.
///
/// Beside the window it keeps the newest xid ever filed per sender.
/// The window only ever holds filed xids, so an xid above its sender's
/// newest cannot be in it, and a delete with nothing newer of its
/// sender ever filed cannot have been overtaken: [`AppliedXids::contains`]
/// and [`AppliedXids::undone_by`] answer those at once, exactly, without
/// walking the window.
#[derive(Debug, Default)]
struct AppliedXids {
    window: VecDeque<u32>,
    /// The highest xid filed per sender, one entry per sender seen.
    newest: Vec<u32>,
}

/// Whether two xids were numbered by one controller: replicas number
/// from disjoint ranges (`Controller::enable_cluster`).
fn same_sender(a: u32, b: u32) -> bool {
    a >> 24 == b >> 24
}

impl AppliedXids {
    fn note(&mut self, xid: u32) {
        if self.window.len() == APPLIED_XIDS {
            self.window.pop_front();
        }
        self.window.push_back(xid);
        match self.newest.iter_mut().find(|n| same_sender(**n, xid)) {
            Some(newest) => *newest = (*newest).max(xid),
            None => self.newest.push(xid),
        }
    }

    /// The newest xid filed from `xid`'s sender, if any ever was.
    fn newest_of(&self, xid: u32) -> Option<u32> {
        self.newest.iter().copied().find(|&n| same_sender(n, xid))
    }

    /// A flow delete numbered `xid` just took effect. A controller
    /// numbers its mods in the order it wants them applied, so any
    /// higher-numbered mod of the same controller already in the
    /// window overtook this one (a lost copy resent, or jitter) — and
    /// what it added, this may have removed: a cookie wipe landing
    /// behind the adds that followed it. Strike them. The controller
    /// still holds them pending behind the delete and replays them;
    /// until then a barrier must not say they took effect.
    fn undone_by(&mut self, xid: u32) {
        if self.newest_of(xid).is_none_or(|newest| newest <= xid) {
            return;
        }
        self.window
            .retain(|&held| !(same_sender(held, xid) && held > xid));
    }

    fn contains(&self, xid: u32) -> bool {
        if self.newest_of(xid).is_none_or(|newest| xid > newest) {
            return false;
        }
        self.window.iter().rev().any(|&held| held == xid)
    }
}

/// The one way the agent writes to a controller, counted in `sent`.
fn write(io: &mut impl SwitchIo, sent: &mut u64, to: NodeId, mut put: impl FnMut(&mut Vec<u8>)) {
    *sent += 1;
    io.send_control_with(to, &mut put);
}

/// The FLOW_REMOVED reporting that `entry` left table `table_id`.
fn flow_removed(table_id: u8, entry: &FlowEntry, reason: zen_proto::RemovedReason) -> Message {
    Message::FlowRemoved {
        table_id,
        priority: entry.spec.priority,
        cookie: entry.spec.cookie,
        reason,
        packets: entry.packets,
        bytes: entry.bytes,
    }
}

/// Flight-record `event` at `now` on the trace `find` names, if the
/// recorder is on and names one.
fn record(rec: &Recorder, now: u64, find: impl FnOnce() -> Option<TraceId>, event: TraceEvent) {
    if rec.is_enabled() {
        if let Some(trace) = find() {
            rec.record(now, trace, event);
        }
    }
}

/// The switch-side control agent.
///
/// An agent holds one control connection per controller replica. In the
/// single-controller configuration ([`SwitchAgent::new`] /
/// [`SwitchAgent::with_config`]) that sole connection is born holding
/// the Master role and behaviour is exactly the classic one. With
/// [`SwitchAgent::with_controllers`] every connection starts as Equal
/// and mastership is granted through OpenFlow-style ROLE_REQUESTs: a
/// Master claim carries a `(term, replica)` pair and wins only if it is
/// lexicographically `>=` the highest claim granted so far — the
/// monotonic floor that keeps a partitioned stale master from clawing
/// the switch back after the majority side has moved on.
pub struct SwitchAgent {
    /// The embedded forwarding plane.
    pub dp: Datapath,
    cfg: AgentConfig,
    /// Control connections, one per controller replica.
    conns: Vec<Conn>,
    /// Index into `conns` of the current master, if any.
    master: Option<usize>,
    /// Highest `(term, replica)` Master claim ever granted — the floor
    /// new claims must meet. Survives the master role being vacated so
    /// a stale claim cannot regress mastership.
    master_claim: (u64, u32),
    /// Monotonic count of state-mutating mods applied (flow/group/meter).
    generation: u64,
    /// Xids of recently applied state mods, answered back in
    /// BARRIER_REPLYs so the controller learns which mods survived the
    /// channel.
    applied_xids: AppliedXids,
    /// The connection and xid that last wrote (or deleted) each group.
    /// Groups are re-pointed at every topology change, so two mods for
    /// one group are often in flight together; the older must not land
    /// on top of the newer.
    group_writers: BTreeMap<u32, (usize, u32)>,
    echo_token: u64,
    xid: u32,
    /// Token bucket gating PACKET_INs, when configured.
    punt_meter: Option<zen_dataplane::Meter>,
    /// The effects of the frame being handled; kept only to recycle
    /// its allocation from frame to frame.
    effects: Vec<Effect>,
    /// The decoded action list of the PACKET_OUT being executed,
    /// likewise from one to the next.
    actions: Vec<zen_dataplane::Action>,
    /// What an expiry sweep evicted, likewise from sweep to sweep.
    expired: Vec<(u8, FlowEntry, RemovedReason)>,
    /// Counters.
    pub stats: AgentStats,
}

impl SwitchAgent {
    /// An agent for a switch with `dpid`, `n_tables` tables, punting
    /// misses (truncated to 2 KiB) to `controller`.
    pub fn new(dpid: DatapathId, n_tables: usize, controller: NodeId) -> SwitchAgent {
        SwitchAgent::with_config(dpid, n_tables, controller, AgentConfig::default())
    }

    /// As [`SwitchAgent::new`], with explicit tunables. The single
    /// connection is born Master, so no role negotiation is needed and
    /// behaviour matches the classic single-controller agent exactly.
    pub fn with_config(
        dpid: DatapathId,
        n_tables: usize,
        controller: NodeId,
        cfg: AgentConfig,
    ) -> SwitchAgent {
        let mut agent = SwitchAgent::with_controllers(dpid, n_tables, vec![controller], cfg);
        agent.conns[0].role = Role::Master;
        agent.master = Some(0);
        agent
    }

    /// A multi-homed agent holding one connection per controller
    /// replica. All connections start Equal with no master; the cluster
    /// elects one via ROLE_REQUEST after the features handshake.
    pub fn with_controllers(
        dpid: DatapathId,
        n_tables: usize,
        controllers: Vec<NodeId>,
        cfg: AgentConfig,
    ) -> SwitchAgent {
        assert!(
            !controllers.is_empty(),
            "agent needs at least one controller"
        );
        let conn = |node| Conn {
            node,
            state: ConnState::Connected,
            outstanding: 0,
            role: Role::Equal,
        };
        let mut dp = Datapath::new(dpid, n_tables, MissPolicy::ToController { max_len: 2048 });
        if let Some((max_entries, policy)) = cfg.table_limit {
            for tid in 0..n_tables as u8 {
                dp.set_table_limit(tid, max_entries, policy);
            }
        }
        SwitchAgent {
            dp,
            cfg,
            conns: controllers.into_iter().map(conn).collect(),
            master: None,
            master_claim: (0, 0),
            generation: 0,
            applied_xids: AppliedXids::default(),
            group_writers: BTreeMap::new(),
            echo_token: 0,
            xid: 1,
            punt_meter: cfg
                .punt_meter
                .map(|m| zen_dataplane::Meter::per_packet(m.rate_pps, m.burst)),
            effects: Vec::new(),
            actions: Vec::new(),
            expired: Vec::new(),
            stats: AgentStats::default(),
        }
    }

    /// The agent's view of its primary control session: the master
    /// connection when one exists, the first connection otherwise.
    pub fn conn_state(&self) -> ConnState {
        self.conns[self.master.unwrap_or(0)].state
    }

    /// The controller node currently holding the Master role, if any.
    pub fn master_node(&self) -> Option<NodeId> {
        self.master.map(|mi| self.conns[mi].node)
    }

    /// The highest `(term, replica)` Master claim granted so far.
    pub fn master_claim(&self) -> (u64, u32) {
        self.master_claim
    }

    /// The state-mutation generation (see [`Message::HelloResync`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Per-cookie installed flow-entry counts across all tables,
    /// ascending by cookie — the digest reported in HELLO_RESYNC.
    pub fn flow_digest(&self) -> Vec<zen_proto::CookieCount> {
        let mut counts = std::collections::BTreeMap::new();
        for tid in 0..self.dp.table_count() as u8 {
            for entry in self.dp.table(tid).entries() {
                *counts.entry(entry.spec.cookie).or_insert(0u32) += 1;
            }
        }
        counts
            .into_iter()
            .map(|(cookie, count)| zen_proto::CookieCount { cookie, count })
            .collect()
    }

    /// Lose what a reboot loses (fault injection): every flow and group,
    /// the applied-xid window and the mutation generation, which starts
    /// over — the one sign of it a controller gets. Ports, connections
    /// and roles stay as they are; nothing is sent.
    pub fn reboot(&mut self) {
        for held in self.flow_digest() {
            self.dp.delete_flows_by_cookie(held.cookie);
        }
        let groups: Vec<u32> = self.dp.groups().iter().map(|(id, _)| id).collect();
        for id in groups {
            self.dp.remove_group(id);
        }
        self.applied_xids = AppliedXids::default();
        self.group_writers.clear();
        self.generation = 0;
    }

    /// Boot: take the switch's ports into the datapath, say HELLO to
    /// every controller and arm the expiry and keepalive timers.
    pub fn start(&mut self, io: &mut impl SwitchIo) {
        for port in io.ports() {
            self.dp.add_port(port);
            if !io.port_up(port) {
                self.dp.set_port_up(port, false);
            }
        }
        self.send_all(io, &Message::Hello { version: VERSION });
        io.set_timer(EXPIRE_INTERVAL, TIMER_EXPIRE);
        io.set_timer(ECHO_INTERVAL, TIMER_ECHO);
    }

    /// A frame arrived on `port` at `now`: forward it.
    pub fn packet(&mut self, now: Instant, port: PortNo, frame: &[u8], io: &mut impl SwitchIo) {
        let now = now.as_nanos();
        self.dp
            .process_batch(now, &[(port, frame)], &mut self.effects);
        self.run_effects(io, now);
    }

    /// A timer armed through [`SwitchIo::set_timer`] fired at `now`:
    /// sweep for expired flows, or judge and probe every connection.
    pub fn timer(&mut self, now: Instant, token: u64, io: &mut impl SwitchIo) {
        if token == TIMER_EXPIRE {
            let mut expired = std::mem::take(&mut self.expired);
            self.dp.expire(now.as_nanos(), &mut expired);
            for (table_id, entry, reason) in expired.drain(..) {
                self.send_master(io, &flow_removed(table_id, &entry, reason.into()));
            }
            self.expired = expired;
            io.set_timer(EXPIRE_INTERVAL, TIMER_EXPIRE);
        } else if token == TIMER_ECHO {
            // Judge each session by probes still unanswered on it, then
            // probe every controller again. Only receipt of a message
            // from that controller (any message, not just an echo
            // reply) restores its connection to `Connected`.
            for ci in 0..self.conns.len() {
                let conn = &mut self.conns[ci];
                if conn.outstanding >= MISS_LIMIT {
                    conn.state = ConnState::Disconnected;
                } else if conn.outstanding > 0 && conn.state == ConnState::Connected {
                    conn.state = ConnState::Degraded;
                }
                conn.outstanding += 1;
                self.echo_token += 1;
                self.stats.echo_sent += 1;
                let token = self.echo_token;
                self.send_to(io, ci, &Message::EchoRequest { token });
            }
            io.set_timer(ECHO_INTERVAL, TIMER_ECHO);
        }
    }

    /// Control bytes from node `from` arrived at `now`: handle each
    /// frame in turn, answering on the connection they came in on.
    pub fn control(&mut self, now: Instant, from: NodeId, bytes: &[u8], io: &mut impl SwitchIo) {
        // Frames from nodes that are not our controllers are ignored —
        // an agent only speaks to the replicas it was homed to.
        let Some(ci) = self.conns.iter().position(|c| c.node == from) else {
            return;
        };
        let now = now.as_nanos();
        self.note_controller_alive(io, ci);
        for frame in frames(bytes) {
            match frame {
                // Hot path: inject straight from the receive buffer, no
                // owned copy of the frame.
                Ok((
                    MessageView::PacketOut {
                        in_port,
                        actions,
                        frame,
                    },
                    _,
                )) => {
                    self.stats.packet_outs += 1;
                    self.actions.clear();
                    self.actions.extend(actions.iter());
                    let (actions, effects) = (&self.actions, &mut self.effects);
                    self.dp.inject_into(now, in_port, actions, frame, effects);
                    self.run_effects(io, now);
                }
                // Messages apply synchronously here, so ordering holds by
                // construction — but on a lossy channel the fence must
                // also say *which* of the covered mods arrived: the
                // request's list, filtered straight into the channel.
                Ok((MessageView::BarrierRequest { xids }, xid)) => {
                    let window = &self.applied_xids;
                    let mut applied = xids.iter().filter(|&x| window.contains(x));
                    write(io, &mut self.stats.msgs_sent, self.conns[ci].node, |buf| {
                        encode_barrier_reply_into(buf, applied.by_ref(), xid)
                    });
                }
                Ok((other, xid)) => self.handle(io, now, ci, other.into_message(), xid),
                Err(_) => self.stats.decode_errors += 1,
            }
        }
    }

    /// The carrier on `port` went up or down: tell the datapath and
    /// every controller.
    pub fn link_status(&mut self, port: PortNo, up: bool, io: &mut impl SwitchIo) {
        self.dp.set_port_up(port, up);
        let port = PortDesc { port_no: port, up };
        self.send_all(io, &Message::PortStatus { port });
    }

    fn send_resync(&mut self, io: &mut impl SwitchIo, ci: usize) {
        let msg = Message::HelloResync {
            generation: self.generation,
            cookies: self.flow_digest(),
        };
        self.send_to(io, ci, &msg);
    }

    /// Any message from a controller proves that channel works: clear
    /// its outstanding-probe count and, when coming back from
    /// `Disconnected`, start the resync handshake on that connection.
    fn note_controller_alive(&mut self, io: &mut impl SwitchIo, ci: usize) {
        self.conns[ci].outstanding = 0;
        if self.conns[ci].state == ConnState::Disconnected {
            self.stats.reconnects += 1;
            self.send_resync(io, ci);
        }
        self.conns[ci].state = ConnState::Connected;
    }

    /// Send on one connection with a fresh xid.
    fn send_to(&mut self, io: &mut impl SwitchIo, ci: usize, msg: &Message) {
        let xid = self.xid;
        self.xid += 1;
        self.reply(io, ci, msg, xid);
    }

    /// Send to the master connection, if one is assigned. Asynchronous
    /// switch-originated reports (FLOW_REMOVED) go here; with no master
    /// assigned they are dropped — the incoming master's resync digest
    /// will reconcile the difference.
    fn send_master(&mut self, io: &mut impl SwitchIo, msg: &Message) {
        if let Some(mi) = self.master {
            self.send_to(io, mi, msg);
        }
    }

    /// Broadcast to every connection (HELLO, PORT_STATUS): topology
    /// events must reach standby replicas too, or their replicated view
    /// would go stale the moment they take over.
    fn send_all(&mut self, io: &mut impl SwitchIo, msg: &Message) {
        for ci in 0..self.conns.len() {
            self.send_to(io, ci, msg);
        }
    }

    /// Reply on the connection the request arrived on, echoing its xid.
    fn reply(&mut self, io: &mut impl SwitchIo, ci: usize, msg: &Message, xid: u32) {
        let (to, sent) = (self.conns[ci].node, &mut self.stats.msgs_sent);
        write(io, sent, to, |buf| encode_into(buf, msg, xid));
    }

    /// Carry out (and drain) what the datapath decided into `effects`.
    fn run_effects(&mut self, io: &mut impl SwitchIo, now: u64) {
        let mut effects = std::mem::take(&mut self.effects);
        for effect in effects.drain(..) {
            match effect {
                Effect::Output { port, frame } => {
                    // The datapath reports outputs to down ports too
                    // (and counts them dropped); they stop here.
                    if self.dp.port_up(port) {
                        io.transmit(port, frame);
                    }
                }
                Effect::ToController {
                    reason,
                    in_port,
                    frame,
                    table_id,
                } => {
                    let is_miss = reason == zen_dataplane::datapath::PacketInReason::NoMatch;
                    // Punts go to the master only. A usable master is
                    // one that is assigned and not judged Disconnected.
                    let usable_master = self
                        .master
                        .filter(|&mi| self.conns[mi].state != ConnState::Disconnected);
                    if usable_master.is_none() {
                        // Single-controller agents honour the conn-loss
                        // policy as before. Multi-homed agents always
                        // drop (fail-secure): flooding during a
                        // mastership gap would hand standby replicas
                        // LLDP and host frames out of order and corrupt
                        // their replicated view. LLDP is link-local
                        // and never flooded: relayed, a probe would name
                        // a switch two hops away to the neighbour that
                        // punts it, and plant a link that does not exist.
                        if is_miss
                            && !is_lldp(&frame)
                            && self.conns.len() == 1
                            && self.cfg.policy == ConnLossPolicy::FailStandalone
                        {
                            self.stats.standalone_floods += 1;
                            for port in io.ports() {
                                if port != in_port && io.port_up(port) && self.dp.port_up(port) {
                                    io.transmit(port, frame.clone());
                                }
                            }
                        } else {
                            self.stats.disconnected_drops += 1;
                        }
                        continue;
                    }
                    let dpid = self.dp.dpid;
                    let traced = || trace_id_for_frame(&frame);
                    if let Some(meter) = self.punt_meter.as_mut() {
                        if !meter.allow_one(now) {
                            // Over the punt budget: shed locally. The
                            // frame was already forwarded/dropped by the
                            // datapath's miss policy; only the
                            // controller notification is suppressed.
                            self.stats.punts_metered += 1;
                            let shed = TraceEvent::PuntShed {
                                dpid,
                                at_agent: true,
                            };
                            record(io.recorder(), now, traced, shed);
                            continue;
                        }
                    }
                    self.stats.packet_ins += 1;
                    let punt = TraceEvent::Punt { dpid, table_id };
                    record(io.recorder(), now, traced, punt);
                    let msg = Message::PacketIn {
                        in_port,
                        table_id,
                        is_miss,
                        frame,
                    };
                    self.send_master(io, &msg);
                }
            }
        }
        self.effects = effects;
    }

    fn handle(&mut self, io: &mut impl SwitchIo, now: u64, ci: usize, msg: Message, xid: u32) {
        // State mods are a Master-only privilege. A replica that lost
        // mastership mid-flight (its RoleReply may still be in the air)
        // gets an explicit NOT_MASTER error carrying the rejected xid,
        // so it can either re-assert its claim or retire the mod —
        // silence would leave it retransmitting forever.
        if matches!(
            msg,
            Message::FlowMod { .. } | Message::GroupMod { .. } | Message::MeterMod { .. }
        ) && self.conns[ci].role != Role::Master
        {
            self.stats.nonmaster_rejected += 1;
            let (code, data) = (ErrorCode::NotMaster, xid.to_be_bytes().to_vec());
            self.reply(io, ci, &Message::Error { code, data }, xid);
            return;
        }
        match msg {
            Message::Hello { .. } => {
                // Each side sends HELLO exactly once (ours went out at
                // start); answering here would ping-pong forever.
            }
            Message::RoleRequest {
                role,
                term,
                replica,
            } => {
                let granted = match role {
                    Role::Master => {
                        let claim = (term, replica);
                        if claim >= self.master_claim {
                            if let Some(old) = self.master {
                                if old != ci {
                                    self.conns[old].role = Role::Equal;
                                }
                            }
                            self.master = Some(ci);
                            self.master_claim = claim;
                            self.conns[ci].role = Role::Master;
                            Role::Master
                        } else {
                            // Stale claim: the floor stands. Reply with
                            // the winning claim so the loser knows whom
                            // to defer to.
                            self.conns[ci].role
                        }
                    }
                    other => {
                        // Voluntary step-down (Equal) or standby
                        // (Slave). The claim floor survives so the
                        // vacated mastership cannot be re-taken by a
                        // claim older than the one that vacated it.
                        self.conns[ci].role = other;
                        if self.master == Some(ci) {
                            self.master = None;
                        }
                        other
                    }
                };
                let reply = Message::RoleReply {
                    role: granted,
                    term: self.master_claim.0,
                    replica: self.master_claim.1,
                };
                self.reply(io, ci, &reply, xid);
            }
            Message::EchoRequest { token } => {
                self.reply(io, ci, &Message::EchoReply { token }, xid);
            }
            Message::EchoReply { .. } => self.stats.echo_replies += 1,
            Message::FeaturesRequest => {
                let ports = io.ports().into_iter();
                let reply = Message::FeaturesReply {
                    dpid: self.dp.dpid,
                    n_tables: self.dp.table_count() as u8,
                    ports: ports
                        .map(|port_no| PortDesc {
                            port_no,
                            up: io.port_up(port_no),
                        })
                        .collect(),
                };
                self.reply(io, ci, &reply, xid);
            }
            Message::FlowMod { table_id, cmd } => {
                if usize::from(table_id) >= self.dp.table_count()
                    && !matches!(cmd, FlowModCmd::DeleteByCookie { .. })
                {
                    let (code, data) = (ErrorCode::BadRequest, vec![table_id]);
                    self.reply(io, ci, &Message::Error { code, data }, xid);
                    return;
                }
                // Adds are attempted *before* the applied bookkeeping: a
                // table-full refusal must not enter `applied_xids` (or a
                // later barrier would ack a mod that never took effect)
                // and must not bump the state generation.
                if let FlowModCmd::Add(spec) = cmd {
                    match self.dp.add_flow(table_id, spec, now) {
                        AddOutcome::Refused => {
                            self.stats.table_full_rejected += 1;
                            let (code, data) = (ErrorCode::TableFull, xid.to_be_bytes().to_vec());
                            self.reply(io, ci, &Message::Error { code, data }, xid);
                        }
                        AddOutcome::Added => self.note_flow_mod_applied(io, now, xid),
                        AddOutcome::Evicted(victims) => {
                            self.note_flow_mod_applied(io, now, xid);
                            for victim in victims {
                                self.stats.evictions_reported += 1;
                                let evicted = TraceEvent::FlowEvicted {
                                    dpid: self.dp.dpid,
                                    table_id,
                                    cookie: victim.spec.cookie,
                                };
                                let rec = io.recorder();
                                record(rec, now, || rec.xid_trace(xid), evicted);
                                let reason = zen_proto::RemovedReason::Eviction;
                                self.send_master(io, &flow_removed(table_id, &victim, reason));
                            }
                        }
                    }
                    return;
                }
                self.note_flow_mod_applied(io, now, xid);
                self.applied_xids.undone_by(xid);
                match cmd {
                    FlowModCmd::Add(_) => unreachable!("handled above"),
                    FlowModCmd::DeleteStrict { priority, matcher } => {
                        if let Some(entry) =
                            self.dp.delete_flow_strict(table_id, priority, &matcher)
                        {
                            let reason = zen_proto::RemovedReason::Delete;
                            self.send_to(io, ci, &flow_removed(table_id, &entry, reason));
                        }
                    }
                    FlowModCmd::DeleteByCookie { cookie } => {
                        for (tid, entry) in self.dp.delete_flows_by_cookie(cookie) {
                            let reason = zen_proto::RemovedReason::Delete;
                            self.send_to(io, ci, &flow_removed(tid, &entry, reason));
                        }
                    }
                }
            }
            Message::GroupMod { group_id, cmd } => {
                self.applied_xids.note(xid);
                // Overtaken by a later mod of its own controller for
                // the same group: that one's word stands, and this one
                // is done for the asking.
                self.generation += 1;
                let writer = self.group_writers.entry(group_id).or_insert((ci, xid));
                if writer.0 == ci && writer.1 > xid {
                    return;
                }
                *writer = (ci, xid);
                match cmd {
                    GroupModCmd::Add(desc) => self.dp.add_group(group_id, desc),
                    GroupModCmd::Delete => {
                        self.dp.remove_group(group_id);
                    }
                }
            }
            Message::MeterMod { meter_id, cmd } => {
                self.generation += 1;
                self.applied_xids.note(xid);
                match cmd {
                    MeterModCmd::Add {
                        rate_bps,
                        burst_bytes,
                    } => self.dp.set_meter(meter_id, rate_bps, burst_bytes),
                    MeterModCmd::Delete => {
                        self.dp.remove_meter(meter_id);
                    }
                }
            }
            Message::ResyncRequest => self.send_resync(io, ci),
            Message::StatsRequest {
                kind: StatsKind::Flow { table_id },
            } if table_id != 0xff && usize::from(table_id) >= self.dp.table_count() => {
                let (code, data) = (ErrorCode::BadRequest, vec![table_id]);
                self.reply(io, ci, &Message::Error { code, data }, xid);
            }
            Message::StatsRequest { kind } => {
                let body = self.collect_stats(io, kind);
                self.reply(io, ci, &Message::StatsReply { body }, xid);
            }
            // Symmetric / controller-bound messages are ignored here.
            _ => {}
        }
    }

    /// The bookkeeping shared by every flow-mod that took effect: it
    /// counts, bumps the state generation, becomes barrier-ackable, and
    /// is traced. Refused adds must never reach this.
    fn note_flow_mod_applied(&mut self, io: &impl SwitchIo, now: u64, xid: u32) {
        self.stats.flow_mods += 1;
        self.generation += 1;
        self.applied_xids.note(xid);
        let applied = TraceEvent::FlowModApplied {
            dpid: self.dp.dpid,
            xid,
        };
        let rec = io.recorder();
        record(rec, now, || rec.xid_trace(xid), applied);
    }

    fn collect_stats(&self, io: &impl SwitchIo, kind: StatsKind) -> StatsBody {
        match kind {
            StatsKind::Flow { table_id } => {
                let tables = match table_id {
                    0xff => 0..self.dp.table_count() as u8,
                    one => one..one + 1,
                };
                let mut records = Vec::new();
                for tid in tables {
                    for entry in self.dp.table(tid).entries() {
                        records.push(zen_proto::FlowStats {
                            table_id: tid,
                            priority: entry.spec.priority,
                            cookie: entry.spec.cookie,
                            packets: entry.packets,
                            bytes: entry.bytes,
                        });
                    }
                }
                StatsBody::Flow(records)
            }
            StatsKind::Port { port_no } => {
                let ports = if port_no == 0 {
                    io.ports()
                } else {
                    vec![port_no]
                };
                let port = |port_no| {
                    let s = self.dp.port_stats(port_no);
                    zen_proto::PortStatsRec {
                        port_no,
                        rx_frames: s.rx_frames,
                        rx_bytes: s.rx_bytes,
                        tx_frames: s.tx_frames,
                        tx_bytes: s.tx_bytes,
                    }
                };
                StatsBody::Port(ports.into_iter().map(port).collect())
            }
            StatsKind::Table => {
                let table = |table_id| {
                    let t = self.dp.table(table_id);
                    zen_proto::TableStats {
                        table_id,
                        active: t.len() as u32,
                        max_entries: t.max_entries().unwrap_or(0) as u32,
                        hits: t.hits,
                        misses: t.misses,
                        evictions: t.evictions,
                        refusals: t.refusals,
                    }
                };
                StatsBody::Table((0..self.dp.table_count() as u8).map(table).collect())
            }
            StatsKind::Cache => {
                let s = self.dp.cache_stats();
                StatsBody::Cache(zen_proto::CacheStatsRec {
                    micro_hits: s.micro_hits,
                    mega_hits: s.mega_hits,
                    misses: s.misses,
                    inserts: s.inserts,
                    invalidations: s.invalidations,
                    micro_evictions: s.micro_evictions,
                    mega_evictions: s.mega_evictions,
                    generation: self.dp.cache_generation(),
                    entries: self.dp.cache_len() as u64,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applied_window_finds_out_of_order_and_repeated_xids() {
        let mut window = AppliedXids::default();
        for xid in 100..200 {
            window.note(xid);
        }
        // An old xid arriving late (jitter, a retransmission, another
        // controller's counter) is found again.
        window.note(50);
        window.note(150);
        assert!(window.contains(50) && window.contains(100) && window.contains(199));
        assert!(window.contains(150));
        assert!(!window.contains(99) && !window.contains(200));
    }

    #[test]
    fn applied_window_evicts_the_oldest_arrival() {
        let mut window = AppliedXids::default();
        // The first arrival carries the largest xid of all.
        window.note(u32::MAX);
        for xid in 1..APPLIED_XIDS as u32 {
            window.note(xid);
        }
        assert_eq!(window.window.len(), APPLIED_XIDS);
        assert!(window.contains(u32::MAX) && window.contains(1));
        // One more, smaller than everything held: it stays, and what
        // goes is the oldest arrival, not the smallest xid.
        window.note(0);
        assert!(window.contains(0) && window.contains(1));
        assert!(!window.contains(u32::MAX));
        assert_eq!(window.window.len(), APPLIED_XIDS);
        // And so on, in arrival order.
        window.note(7_000_000);
        assert!(!window.contains(1) && window.contains(2));
    }

    #[test]
    fn a_late_delete_strikes_what_it_may_have_undone() {
        let mut window = AppliedXids::default();
        let other = (2 << 24) | 160;
        for xid in [100, 150, other, 151, 199] {
            window.note(xid);
        }
        // Xid 150's delete lands again behind 151 and 199: they count
        // once replayed. Another controller's numbers are another
        // sequence, and 150 itself stays.
        window.undone_by(150);
        assert!(window.contains(100) && window.contains(150) && window.contains(other));
        assert!(!window.contains(151) && !window.contains(199));
        window.note(151);
        assert!(window.contains(151));
    }

    /// The window as it was before it kept the newest xid per sender: a
    /// plain queue, a `retain` over all of it per delete and an `any`
    /// over all of it per question.
    #[derive(Default)]
    struct WindowModel(VecDeque<u32>);

    impl WindowModel {
        fn note(&mut self, xid: u32) {
            if self.0.len() == APPLIED_XIDS {
                self.0.pop_front();
            }
            self.0.push_back(xid);
        }

        fn undone_by(&mut self, xid: u32) {
            self.0
                .retain(|&held| !(same_sender(held, xid) && held > xid));
        }

        fn contains(&self, xid: u32) -> bool {
            self.0.iter().any(|&held| held == xid)
        }
    }

    /// Three senders whose mods arrive out of order, retransmitted, and
    /// struck by deletes that land late, over enough filings to evict
    /// several windows' worth: after every step the window holds what
    /// the model does and answers every question as it would — xids
    /// above a sender's newest, of a sender never heard from, and
    /// deletes nothing overtook included.
    #[test]
    fn applied_window_answers_as_a_plain_queue_would() {
        let mut rng = zen_wire::lcg::Lcg::new(0xa9_9e1d);
        let mut window = AppliedXids::default();
        let mut model = WindowModel::default();
        // Per sender, the next xid it numbers; senders 1 to 3 of 4, so
        // sender 0 is never heard from.
        let mut next = [0u32, (1 << 24) | 1, (2 << 24) | 1, (3 << 24) | 1];
        let mut filed: Vec<u32> = Vec::new();
        let (mut notes, mut struck) = (0, 0);
        for step in 0..30_000u32 {
            let sender = 1 + rng.gen_index(3);
            // Mostly the sender's next mod, or one a few back (jitter);
            // sometimes a copy of one filed long ago (a retransmission).
            let xid = match rng.gen_range(10) {
                0 if !filed.is_empty() => filed[rng.gen_index(filed.len())],
                1 => next[sender] - rng.gen_range(6) as u32,
                _ => {
                    next[sender] += 1;
                    next[sender] - 1
                }
            };
            match rng.gen_range(8) {
                0 => {
                    let before = model.0.len();
                    window.undone_by(xid);
                    model.undone_by(xid);
                    struck += before - model.0.len();
                }
                _ => {
                    window.note(xid);
                    model.note(xid);
                    filed.push(xid);
                    notes += 1;
                }
            }
            assert!(window.window.iter().eq(&model.0), "step {step}: window");
            // Questions about xids at, below and above what was filed,
            // and of the silent sender.
            let quiet = rng.gen_range(1 << 24) as u32;
            let ahead = next[sender] + rng.gen_range(3) as u32;
            for ask in [xid, xid.wrapping_sub(1), xid + 1, ahead, quiet] {
                assert_eq!(
                    window.contains(ask),
                    model.contains(ask),
                    "step {step}: {ask}"
                );
            }
        }
        assert!(notes > 4 * APPLIED_XIDS, "{notes} filings evict too little");
        assert!(struck > 100, "only {struck} xids struck");
    }
}
