//! The controller's core, the handle its apps are given over it, and
//! the one writer every controller message goes onto the wire through.
//!
//! [`Core`] is what the controller keeps beside the view, the counters
//! and the app list. [`Ctl`] is an app's handle: the [`Io`], the view,
//! the counters and the core, nothing more. [`write`] numbers a message,
//! counts it and attributes it to the PACKET_IN being traced; nothing
//! else in the controller writes to the channel. The cores it drives —
//! `Southbound`, `ClusterState`, `UpdatePlanner` — never write: they
//! take the time and hand back what to send.

use std::collections::BTreeMap;

use zen_consensus::{fnv1a, fnv1a_fold, Applied};
use zen_dataplane::{Action, FlowSpec, GroupDesc, PortNo};
use zen_proto::{
    encode_barrier_request_into, encode_into, encode_packet_out_into, intent_entry_bytes,
    FlowModCmd, Intent, IntentEntry, Message,
};
use zen_sim::{Instant, NodeId};
use zen_telemetry::{control_trace, TraceEvent};

use crate::controller::CtlStats;
use crate::replica::ClusterState;
use crate::southbound::{delta, ProgramBase, Reconciled, Southbound};
use crate::txn::{Consistency, NetworkUpdate, UpdateOp, UpdatePlanner};
use crate::view::{Dpid, NetworkView};
use crate::ControlIo;

/// How many emptied action lists are kept for [`Ctl::actions`].
const SPARE_ACTIONS: usize = 16;

/// What one [`write`] puts on the wire.
pub(crate) enum Body<'a> {
    /// A message under the next xid, encoded straight into the channel.
    Msg(&'a Message),
    /// A message under xid 0: an east-west frame, or what a switch is
    /// answered with outside the numbered exchange — HELLO and the
    /// FEATURES_REQUEST behind it, a re-solicited FEATURES_REQUEST, an
    /// ECHO_REPLY, the ERROR refusing a handshake.
    Unnumbered(&'a Message),
    /// A state mod under the next xid, encoded into the buffer its
    /// session keeps for resending, and copied from there.
    Tracked(&'a Message, &'a mut Vec<u8>),
    /// A tracked mod resent as first sent, xid included.
    Resent(&'a [u8]),
    /// A PACKET_OUT of a borrowed frame — ingress port, actions, frame
    /// — under the next xid.
    PacketOut(PortNo, &'a [Action], &'a [u8]),
    /// A BARRIER_REQUEST under the next xid, naming the mods it fences.
    Barrier(&'a mut dyn ExactSizeIterator<Item = u32>),
}

impl Body<'_> {
    /// Whether the body takes the next xid; the others go out under 0
    /// or under the one their bytes carry.
    pub(crate) fn numbered(&self) -> bool {
        !matches!(self, Body::Unnumbered(_) | Body::Resent(_))
    }

    /// Append the body, numbered `xid`, to `buf`.
    pub(crate) fn put(&mut self, buf: &mut Vec<u8>, xid: u32) {
        match self {
            Body::Msg(msg) | Body::Unnumbered(msg) => encode_into(buf, msg, xid),
            Body::Tracked(_, bytes) => buf.extend_from_slice(bytes),
            Body::Resent(bytes) => buf.extend_from_slice(bytes),
            Body::PacketOut(port, actions, frame) => {
                encode_packet_out_into(buf, *port, actions, frame, xid)
            }
            Body::Barrier(xids) => encode_barrier_request_into(buf, &mut **xids, xid),
        }
    }
}

/// What one controller callback runs with: the time it runs at, and the
/// sink its writes, timers, trace events and counters go to.
pub(crate) struct Io<'a> {
    pub(crate) now: Instant,
    pub(crate) sink: &'a mut (dyn ControlIo + 'a),
}

impl Io<'_> {
    /// Flight-record `event` on `dpid`'s control timeline (0: the
    /// network-wide one), if the recorder is on.
    pub(crate) fn record(&self, dpid: Dpid, event: TraceEvent) {
        let rec = self.sink.recorder();
        if rec.is_enabled() {
            rec.record(self.now.as_nanos(), control_trace(dpid), event);
        }
    }
}

/// The one way a controller message goes onto the wire: to node `to`,
/// switch `dpid` (0 for a peer or a stranger). The body takes the next
/// xid off `next` or goes out under 0 ([`Body::numbered`]); it is
/// counted in `msgs_sent` and in its kind's counter (`flow_mods`,
/// `group_mods`, `packet_outs`, `mods_retransmitted`); and, sent while an
/// app chain processes a traced PACKET_IN, it is attributed to that
/// trace. Returns the xid it took.
pub(crate) fn write(
    io: &mut Io<'_>,
    stats: &mut CtlStats,
    next: &mut u32,
    (to, dpid): (NodeId, Dpid),
    mut body: Body<'_>,
) -> u32 {
    let mut xid = 0;
    if body.numbered() {
        xid = *next;
        *next += 1;
    }
    stats.msgs_sent += 1;
    let msg = match &body {
        Body::Msg(msg) | Body::Unnumbered(msg) | Body::Tracked(msg, _) => Some(*msg),
        _ => None,
    };
    // What the recorder notes of the message, and whether its ack is
    // bound to the trace.
    let (mut event, mut bind) = (None, false);
    match (msg, &body) {
        (Some(Message::FlowMod { cmd, .. }), _) => {
            stats.flow_mods += 1;
            let cookie = match cmd {
                FlowModCmd::Add(spec) => spec.cookie,
                FlowModCmd::DeleteByCookie { cookie } => *cookie,
                FlowModCmd::DeleteStrict { .. } => 0,
            };
            event = Some(TraceEvent::FlowModSent { dpid, xid, cookie });
            bind = true;
        }
        (Some(Message::GroupMod { .. }), _) => {
            stats.group_mods += 1;
            bind = true;
        }
        (Some(Message::MeterMod { .. }), _) => bind = true,
        (Some(Message::PacketOut { .. }), _) | (_, Body::PacketOut(..)) => {
            stats.packet_outs += 1;
            event = Some(TraceEvent::PacketOutSent { dpid });
        }
        (_, Body::Resent(_)) => stats.mods_retransmitted += 1,
        _ => {}
    }
    let rec = io.sink.recorder();
    if rec.is_enabled() {
        if let Some(trace) = rec.current_trace() {
            if let Some(event) = event {
                rec.record(io.now.as_nanos(), trace, event);
            }
            if bind {
                rec.bind_xid(xid, trace);
            }
        }
    }
    // Encoded before the channel is asked: a write the fault plan drops
    // is never encoded, and the session must keep the mod regardless.
    if let Body::Tracked(msg, kept) = &mut body {
        encode_into(kept, msg, xid);
    }
    io.sink.send_control_with(to, &mut |buf| body.put(buf, xid));
    xid
}

/// What the controller keeps beside the view, the counters and the app
/// list — everything an app's [`Ctl`] reaches through.
#[derive(Default)]
pub(crate) struct Core {
    /// One session per connected switch, with everything kept per
    /// switch and the one index from a dpid to its node, and the
    /// session protocol over them.
    pub(crate) southbound: Southbound,
    /// Present when this controller is a replica in a cluster.
    pub(crate) cluster: Option<ClusterState>,
    /// Epoch-versioned two-phase update planner.
    pub(crate) planner: UpdatePlanner,
    /// Proposed-intent tokens → owning app name, consumed when the
    /// intent commits to route the `on_update_committed` callback.
    pub(crate) intent_owners: BTreeMap<u64, &'static str>,
    /// Standalone-mode intent queue, as the entries a log would commit:
    /// they commit on the next timer tick without a cluster round.
    pub(crate) local_intents: Vec<Applied>,
    /// The emptied op list of the last update sent, for the next.
    pub(crate) spare_ops: Vec<UpdateOp>,
    /// Likewise the action lists of the flow adds it carried.
    pub(crate) spare_actions: Vec<Vec<Action>>,
    /// East-west frames `ClusterState` decided and
    /// [`Ctl::write_frames`] has yet to write; kept for its allocation.
    pub(crate) frames: Vec<(NodeId, Message)>,
    /// The xid the next numbered message takes.
    pub(crate) xid: u32,
}

impl Core {
    /// Whether this controller currently exercises mastership over
    /// `dpid`. A non-clustered controller masters every switch it
    /// knows; a clustered replica masters its deterministic share.
    pub(crate) fn is_master(&self, dpid: Dpid) -> bool {
        self.cluster.as_ref().is_none_or(|cl| cl.is_master(dpid))
    }
}

/// The services handle passed to applications — the network view plus
/// typed message-sending helpers — and the controller's own way onto
/// the wire: a handle over its `Core`.
pub struct Ctl<'a, 'w> {
    /// The controller's network view.
    pub view: &'a mut NetworkView,
    pub(crate) io: &'a mut Io<'w>,
    pub(crate) stats: &'a mut CtlStats,
    pub(crate) core: &'a mut Core,
}

impl Ctl<'_, '_> {
    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.io.now
    }

    /// Whether this controller currently exercises mastership over
    /// `dpid`. A non-clustered controller masters every switch it
    /// knows; a clustered replica masters its deterministic share.
    /// State mods to non-mastered switches are silently filtered (the
    /// agent would reject them anyway), so apps can stay
    /// cluster-oblivious and program the whole view.
    pub fn is_master(&self, dpid: Dpid) -> bool {
        self.core.is_master(dpid)
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
    /// The xid the message took, if it was sent.
    pub(crate) fn send_as(&mut self, dpid: Dpid, msg: &Message, program: bool) -> Option<u32> {
        let node = self.core.southbound.node(dpid)?;
        let is_mod = matches!(
            msg,
            Message::FlowMod { .. } | Message::GroupMod { .. } | Message::MeterMod { .. }
        );
        if !is_mod {
            return Some(self.write((node, dpid), Body::Msg(msg)));
        }
        // Clustered: only the master programs a switch. Packet-outs and
        // stats requests pass (Equal connections may inject and read).
        if !self.is_master(dpid) {
            return None;
        }
        // Encoded once, into the buffer the session keeps for
        // retransmission; the channel copies from it.
        let mut kept = self.core.southbound.spare();
        let xid = self.write((node, dpid), Body::Tracked(msg, &mut kept));
        let (southbound, now) = (&mut self.core.southbound, self.io.now);
        southbound.track(node, xid, msg, kept, program, now);
        Some(xid)
    }

    /// [`write`], through this handle.
    fn write(&mut self, to: (NodeId, Dpid), body: Body<'_>) -> u32 {
        write(self.io, self.stats, &mut self.core.xid, to, body)
    }

    /// Write `msg` to `to` under xid 0 (see [`Body::Unnumbered`]).
    pub(crate) fn answer(&mut self, to: NodeId, msg: &Message) {
        self.write((to, 0), Body::Unnumbered(msg));
    }

    /// Write the east-west frames waiting in [`Core::frames`], in order.
    pub(crate) fn write_frames(&mut self) {
        for (to, msg) in self.core.frames.drain(..) {
            let body = Body::Unnumbered(&msg);
            write(self.io, self.stats, &mut self.core.xid, (to, 0), body);
        }
    }

    /// Bring `dpid` to the program an app wants it to hold under
    /// `cookie`, whose hashes are `desired`: the groups `groups` renders
    /// from the view, in install order, and the flows `flows` renders.
    /// Each is asked for only when it has to be sent, so a switch that
    /// already holds its program costs a comparison of hashes. This is
    /// the one way a program reaches a switch, whatever the occasion —
    /// a view change, a returning switch, a takeover.
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
        desired: &ProgramBase,
        groups: impl FnOnce(&NetworkView) -> Vec<(u32, GroupDesc)>,
        flows: impl FnOnce() -> Vec<FlowSpec>,
    ) -> Reconciled {
        let core = &*self.core;
        let Some(node) = core.southbound.node(dpid).filter(|_| core.is_master(dpid)) else {
            return Reconciled::default();
        };
        let base = core.southbound.base(node, cookie);
        if base == Some(desired) {
            return Reconciled::default();
        }
        // The replicated stamp: the content hash the last master
        // recorded for the program it installed, if there was one.
        let stamp = desired.stamp();
        let replicated = core.cluster.as_ref().and_then(|cl| cl.stamp(dpid, cookie));
        let adopt = base.is_none() && replicated == Some(stamp);
        let (msgs, sent, left) = if adopt {
            Default::default()
        } else {
            delta(base, desired, cookie, groups(self.view), flows)
        };
        for msg in &msgs {
            self.send_as(dpid, msg, true);
        }
        self.stats.txns_committed += u64::from(!msgs.is_empty());
        let (core, now) = (&mut *self.core, self.io.now);
        core.southbound
            .rebase(node, cookie, desired.clone(), left, now);
        // A standby that later takes the switch over compares the stamp
        // against its own and loads the switch only on mismatch.
        if let Some(cl) = &mut core.cluster {
            cl.set_stamp(dpid, cookie, stamp);
        }
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
            ops: std::mem::take(&mut self.core.spare_ops),
            ..NetworkUpdate::default()
        }
    }

    /// The configuration epoch a transaction staged *now* would commit
    /// as: current epoch + 1 + every transaction already in flight or
    /// queued ahead of it. Apps use the parity to pick alternating
    /// cookies/group ids so the lame epoch stays addressable for GC.
    pub fn staged_epoch(&self) -> u64 {
        self.core.planner.staged_epoch()
    }

    /// The currently committed configuration epoch.
    pub fn config_epoch(&self) -> u64 {
        self.core.planner.config_epoch()
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
            self.core.spare_ops = update.ops;
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
                    self.core.spare_actions.push(spec.actions);
                }
            }
            self.core.spare_actions.truncate(SPARE_ACTIONS);
            self.core.spare_ops = update.ops;
            self.stats.txns_committed += 1;
        } else {
            self.core.planner.submit(update);
        }
    }

    /// `of` as a new [`FlowSpec`]'s action list, in the allocation of
    /// one already sent where one is kept.
    pub fn actions(&mut self, of: &[Action]) -> Vec<Action> {
        let mut list = self.core.spare_actions.pop().unwrap_or_default();
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
    pub fn packet_out(&mut self, dpid: Dpid, in_port: PortNo, actions: &[Action], frame: &[u8]) {
        if let Some(node) = self.core.southbound.node(dpid) {
            self.write((node, dpid), Body::PacketOut(in_port, actions, frame));
        }
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
    /// way every app's [`crate::App::on_intent_committed`] hook fires
    /// exactly once per commit, and the proposing app additionally gets
    /// [`crate::App::on_update_committed`] with the returned token.
    pub fn propose_intent(&mut self, owner: &'static str, intent: Intent) -> u64 {
        // Token: content hash salted with the monotone xid counter, so
        // a withdraw/re-install cycle of identical content still gets a
        // fresh identity (committed tokens deduplicate forever).
        let salt = self.core.xid;
        self.core.xid += 1;
        let mut h = fnv1a(owner.as_bytes());
        h = fnv1a_fold(h, &salt.to_le_bytes());
        let mut entry = IntentEntry {
            index: 0,
            term: 0,
            origin: 0,
            token: 0,
            intent,
        };
        h = fnv1a_fold(h, &intent_entry_bytes(&entry));
        let token = h.max(1); // zero is the reserved no-op token
        entry.token = token;
        self.stats.intents_proposed += 1;
        self.core.intent_owners.insert(token, owner);
        match &mut self.core.cluster {
            Some(cl) => cl.intents.propose_local(token, entry.intent),
            None => self.core.local_intents.push(Applied::Entry(entry)),
        }
        token
    }
}

#[cfg(test)]
mod tests {
    use zen_cluster::ClusterConfig;
    use zen_sim::{LinkParams, World};

    use super::*;
    use crate::apps::L2Learning;
    use crate::controller::Controller;
    use crate::SwitchAgent;

    /// The control messages `world`'s channel carried.
    fn carried(world: &World) -> u64 {
        world.metrics().counter("sim.control_msgs")
    }

    /// Three replicas and no switch, for 3 s: all they write is gossip,
    /// intent-log frames and their answers, and between them they count
    /// each once.
    #[test]
    fn msgs_sent_counts_every_peer_frame_once() {
        let mut world = World::new(1);
        let replicas: Vec<NodeId> = (0..3).map(NodeId).collect();
        for index in 0..replicas.len() {
            let mut ctl = Controller::new(Vec::new());
            ctl.enable_cluster(ClusterConfig::new(replicas.clone(), index));
            assert_eq!(world.add_node(Box::new(ctl)), replicas[index]);
        }
        world.run_until(Instant::from_secs(3));
        let sent = replicas
            .iter()
            .map(|&r| world.node_as::<Controller>(r).stats.msgs_sent);
        let sent: u64 = sent.sum();
        assert!(sent > 0);
        assert_eq!(sent, carried(&world));
    }

    /// One controller and a ring of four real switches that shake
    /// hands, answer and carry discovery, for 2 s: what the controller
    /// counts sent and what the switches count written add up to what
    /// the channel carried.
    #[test]
    fn msgs_sent_and_the_switches_writes_are_what_the_channel_carried() {
        let mut world = World::new(1);
        let controller = Controller::new(vec![Box::new(L2Learning::new())]);
        let controller = world.add_node(Box::new(controller));
        let switches: Vec<NodeId> = (1..=4)
            .map(|dpid| world.add_node(Box::new(SwitchAgent::new(dpid, 1, controller))))
            .collect();
        for (i, &a) in switches.iter().enumerate() {
            world.connect(a, switches[(i + 1) % 4], LinkParams::default());
        }
        world.run_until(Instant::from_secs(2));
        let ctl = world.node_as::<Controller>(controller);
        assert_eq!(ctl.view.switches.len(), 4);
        assert_eq!(ctl.view.links.len(), 8, "both ways of each ring link");
        let written = switches.iter().map(|&s| world.node_as::<SwitchAgent>(s));
        let written: u64 = written.map(|agent| agent.stats.msgs_sent).sum();
        assert_eq!(ctl.stats.msgs_sent + written, carried(&world));
    }
}
