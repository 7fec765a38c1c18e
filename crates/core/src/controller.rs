//! The logically centralized controller.
//!
//! Switch agents reach it over the out-of-band control channel: it takes
//! the time and what arrived, and writes through the [`ControlIo`] it is
//! handed (`controller_node.rs` makes it a simulator node). It owns the
//! [`view::NetworkView`](crate::view::NetworkView), runs LLDP topology
//! discovery, learns host locations from punted edge traffic, and
//! dispatches everything else to the application chain.

use zen_cluster::ClusterConfig;
use zen_consensus::{Applied, IntentReplica};
use zen_dataplane::PortNo;
use zen_proto::{
    frames, CookieCount, ErrorCode, GroupModCmd, Intent, IntentEntry, Message, MessageView, Role,
    ViewEvent,
};
use zen_sim::{Duration, Instant, NodeId};
use zen_telemetry::{trace_id_for_frame, TraceEvent, TraceId};
use zen_wire::builder::PacketBuilder;
use zen_wire::ethernet::{EtherType, Frame};
use zen_wire::{arp, ipv4, lldp};

use crate::admission::{AdmissionConfig, AdmissionState};
use crate::app::{App, Disposition};
pub use crate::ctl::Ctl;
use crate::ctl::{write, Core, Io};
use crate::replica::ClusterState;
use crate::southbound::{End, Opened, ProgramBase};
use crate::txn::Notice;
use crate::view::{Dpid, NetworkView};
use crate::ControlIo;

const TIMER_TICK: u64 = 1;
/// Fair-queue drain timer for deferred PACKET_INs (admission control).
const TIMER_ADMIT: u64 = 2;
/// One-shot: soft mods have ridden unfenced for the fence interval.
/// Not the tick: a late fence must not cost a resend.
const TIMER_FENCE: u64 = 3;

/// TTL stamped into discovery LLDPs.
const LLDP_TTL_SECS: u16 = 120;

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

/// One PACKET_IN of a control delivery: its ingress port, and where in
/// the delivery's bytes its frame lies. Positions rather than slices, so
/// the lists that hold punts borrow nothing and are kept from one
/// delivery to the next.
#[derive(Clone, Copy)]
pub(crate) struct Punt {
    pub(crate) in_port: PortNo,
    at: usize,
    len: usize,
}

impl Punt {
    /// The punt of `frame`, a slice of `bytes`.
    pub(crate) fn of(bytes: &[u8], in_port: PortNo, frame: &[u8]) -> Punt {
        let (at, len) = (
            frame.as_ptr() as usize - bytes.as_ptr() as usize,
            frame.len(),
        );
        Punt { in_port, at, len }
    }

    pub(crate) fn frame<'a>(&self, bytes: &'a [u8]) -> &'a [u8] {
        &bytes[self.at..self.at + self.len]
    }
}

/// The controller.
pub struct Controller {
    cfg: ControllerConfig,
    /// The app chain, borrowed apart from the core it is handed.
    apps: Vec<Box<dyn App>>,
    /// The network view (public for post-run inspection).
    pub view: NetworkView,
    /// Everything else an app's [`Ctl`] reaches through.
    core: Core,
    /// Whether [`TIMER_FENCE`] is set.
    fence_armed: bool,
    /// Present when `cfg.admission` is set.
    admission: Option<AdmissionState>,
    /// The PACKET_INs of the delivery being decoded, and those of them
    /// that go on to the apps; kept only to recycle their allocations
    /// from one delivery to the next.
    punts: Vec<Punt>,
    dispatch: Vec<(Punt, Option<TraceId>)>,
    /// A discovery round's `(switch, port)` targets and the LLDP frame
    /// each probe is encoded in; kept only for their allocations.
    probes: (Vec<(Dpid, PortNo)>, Vec<u8>),
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
            core: Core {
                xid: 1,
                ..Core::default()
            },
            fence_armed: false,
            admission: cfg.admission.map(AdmissionState::new),
            punts: Vec::new(),
            dispatch: Vec::new(),
            probes: Default::default(),
            stats: CtlStats::default(),
        }
    }

    /// The committed configuration epoch (post-run inspection).
    pub fn config_epoch(&self) -> u64 {
        self.core.planner.config_epoch()
    }

    /// Whether a two-phase network update is active or queued.
    pub fn txn_busy(&self) -> bool {
        self.core.planner.is_busy()
    }

    /// Turn this controller into replica `cfg.index` of a cluster. Call
    /// before the simulation starts. The xid space is namespaced by
    /// replica index so xid-keyed telemetry (flow-mod trace bindings)
    /// from different replicas cannot collide in the shared recorder.
    pub fn enable_cluster(&mut self, cfg: ClusterConfig) {
        self.core.xid = ((cfg.index as u32) + 1) << 24;
        self.core.cluster = Some(ClusterState::new(cfg));
    }

    /// Whether this replica currently exercises mastership over `dpid`.
    /// Non-clustered controllers master everything they know.
    pub fn is_master_of(&self, dpid: Dpid) -> bool {
        self.core.is_master(dpid)
    }

    /// The switches this controller currently masters.
    pub fn mastered(&self) -> Vec<Dpid> {
        match &self.core.cluster {
            Some(cl) => cl.masters().iter().copied().collect(),
            None => self.core.southbound.dpids().collect(),
        }
    }

    /// The cluster mastership term, if clustered.
    pub fn cluster_term(&self) -> Option<u64> {
        self.core.cluster.as_ref().map(|cl| cl.membership.term())
    }

    /// The replicated intent log, if clustered (post-run inspection:
    /// role, term, commit index, compaction floor).
    pub fn intent_replica(&self) -> Option<&IntentReplica> {
        self.core.cluster.as_ref().map(|cl| &cl.intents)
    }

    /// The replicated program stamp for `(dpid, cookie)` (post-run
    /// inspection; see [`Ctl::reconcile`]).
    pub fn program_stamp_of(&self, dpid: Dpid, cookie: u64) -> Option<u64> {
        self.core.cluster.as_ref()?.stamp(dpid, cookie)
    }

    /// Mods sent but not yet barrier-acknowledged.
    pub fn pending_mods(&self) -> usize {
        self.core.southbound.pending_mods()
    }

    /// The stamp of the base held for `cookie`'s program on `dpid`:
    /// what this controller believes the switch holds, if it still
    /// knows (post-run inspection; see [`Ctl::reconcile`]).
    pub fn program_base_of(&self, dpid: Dpid, cookie: u64) -> Option<u64> {
        let southbound = &self.core.southbound;
        let base = southbound.base(southbound.node(dpid)?, cookie);
        base.map(ProgramBase::stamp)
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

    /// Run `f` on every app, in dispatch order.
    fn each_app(&mut self, io: &mut Io<'_>, mut f: impl FnMut(&mut dyn App, &mut Ctl<'_, '_>)) {
        let (apps, mut ctl) = self.split(io);
        apps.iter_mut().for_each(|app| f(app.as_mut(), &mut ctl));
    }

    /// The app chain, and the handle its apps are passed over the rest.
    fn split<'a, 'w>(&'a mut self, io: &'a mut Io<'w>) -> (&'a mut [Box<dyn App>], Ctl<'a, 'w>) {
        let (view, stats, core) = (&mut self.view, &mut self.stats, &mut self.core);
        let ctl = Ctl {
            view,
            io,
            stats,
            core,
        };
        (&mut self.apps, ctl)
    }

    /// The handle over the core, for what the controller sends itself.
    fn ctl<'a, 'w>(&'a mut self, io: &'a mut Io<'w>) -> Ctl<'a, 'w> {
        self.split(io).1
    }

    /// Tell `dpid` the role this replica takes there under its claim.
    fn send_role(&mut self, io: &mut Io<'_>, dpid: Dpid, role: Role, claim: (u64, u32)) {
        let (term, replica) = claim;
        let request = Message::RoleRequest {
            role,
            term,
            replica,
        };
        self.ctl(io).send(dpid, &request);
    }

    /// Log a local view mutation into the east-west store for
    /// replication. No-op when not clustered.
    fn log_event(&mut self, event: ViewEvent) {
        if let Some(cl) = &mut self.core.cluster {
            cl.log(event);
        }
    }

    /// Replicate `dpid`'s cookie shadow as it stands, so a standby that
    /// later takes the switch over inherits an accurate one. Only its
    /// master's word counts; no-op otherwise, and when not clustered.
    fn replicate_shadow(&mut self, dpid: Dpid) {
        let cluster = self.core.cluster.as_ref();
        if cluster.is_some_and(|cl| cl.is_master(dpid)) {
            let cookies = self.shadow_cookies(dpid);
            self.log_event(ViewEvent::ShadowSet { dpid, cookies });
        }
    }

    /// The current cookie shadow of `dpid` in wire form: the flow
    /// entries this controller believes the switch holds, per cookie.
    pub fn shadow_cookies(&self, dpid: Dpid) -> Vec<CookieCount> {
        self.core.southbound.shadow_cookies(dpid)
    }

    /// East-west traffic from a peer replica (already routed past the
    /// switch-session machinery): `ClusterState` takes it, and hands
    /// back what only the controller can do.
    fn handle_peer_message(&mut self, io: &mut Io<'_>, msg: Message) {
        let core = &mut self.core;
        let Some(cl) = &mut core.cluster else {
            return;
        };
        let fx = cl.on_peer(io.now, &mut self.stats, msg, &mut core.frames);
        if let Some(event) = fx.trace {
            io.record(0, event);
        }
        // What a peer observed first-hand, to its owner. Our own barrier
        // acks are authoritative for switches we master; a peer's shadow
        // matters for a future takeover.
        for event in fx.events {
            match event {
                ViewEvent::ShadowSet { dpid, cookies } if !self.is_master_of(dpid) => {
                    self.core.southbound.shadow_set(dpid, &cookies);
                }
                event => self.view.apply(&event, io.now),
            }
        }
        self.ctl(io).write_frames();
        if fx.committed {
            self.dispatch_committed_intents(io);
        }
    }

    /// Surface intents committed since the last round (pinned
    /// mastership is `ClusterState`'s, and already taken in): fire every
    /// app's [`App::on_intent_committed`] hook, and complete the
    /// proposer's `on_update_committed`.
    fn dispatch_committed_intents(&mut self, io: &mut Io<'_>) {
        let (me, applied) = match &mut self.core.cluster {
            Some(cl) => (Some(cl.me()), cl.take_applied()),
            // Standalone: commit locally, same observable order.
            None => (None, std::mem::take(&mut self.core.local_intents)),
        };
        for a in applied {
            match a {
                Applied::Snapshot(entries) => self.apply_intent_snapshot(io, entries, me),
                Applied::Entry(e) => self.apply_committed_intent(io, e, me),
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
        io: &mut Io<'_>,
        entries: Vec<IntentEntry>,
        me: Option<u32>,
    ) {
        let installed = entries.len() as u64;
        io.record(
            0,
            TraceEvent::IntentSnapshotInstalled { entries: installed },
        );
        // Proposals of ours that committed while we were away complete
        // their owner callbacks now.
        let own_tokens: Vec<u64> = entries
            .iter()
            .filter(|e| me.is_none_or(|m| m == e.origin))
            .map(|e| e.token)
            .collect();
        let intents: Vec<Intent> = entries.into_iter().map(|e| e.intent).collect();
        self.each_app(io, |app, ctl| app.on_intent_snapshot(ctl, &intents));
        for token in own_tokens {
            self.complete_proposal(io, token);
        }
    }

    /// An intent this replica proposed has committed: its owner hears.
    fn complete_proposal(&mut self, io: &mut Io<'_>, token: u64) {
        if let Some(owner) = self.core.intent_owners.remove(&token) {
            self.each_app(io, |app, ctl| app.on_update_committed(ctl, owner, token));
        }
    }

    fn apply_committed_intent(&mut self, io: &mut Io<'_>, e: IntentEntry, me: Option<u32>) {
        self.stats.intents_committed += 1;
        let event = TraceEvent::IntentCommitted {
            index: e.index,
            term: e.term,
            origin: e.origin,
        };
        io.record(0, event);
        if matches!(e.intent, Intent::Noop) {
            return; // leader activation barrier, invisible to apps
        }
        let intent = e.intent;
        self.each_app(io, |app, ctl| app.on_intent_committed(ctl, &intent));
        // The proposing replica also completes the owner's
        // update-committed callback, mirroring the two-phase planner.
        if me.is_none_or(|m| m == e.origin) {
            self.complete_proposal(io, e.token);
        }
    }

    fn note_mastership_trace(io: &mut Io<'_>, dpid: Dpid, replica: u32, gained: bool) {
        let event = TraceEvent::MastershipChange {
            dpid,
            replica,
            gained,
        };
        io.record(dpid, event);
    }

    /// Take over `dpid`: claim the Master role at the switch, give its
    /// inbound links one discovery round of grace (we have not been the
    /// one watching their LLDP confirmations), and reconcile installed
    /// state through the resync digest. Apps then compare their desired
    /// program against the replicated stamp and reprogram only on
    /// mismatch — a clean takeover moves zero flow state. `claim` is this
    /// replica's `(term, replica)`.
    fn mastership_gained(&mut self, io: &mut Io<'_>, dpid: Dpid, claim: (u64, u32)) {
        self.stats.masterships_gained += 1;
        self.send_role(io, dpid, Role::Master, claim);
        self.view.refresh_links_to(dpid, io.now);
        self.ctl(io).send(dpid, &Message::ResyncRequest);
        // PORT_STATUS is broadcast, so an isolation window may have
        // left us with stale port state — and discovery never probes a
        // "down" port, so a stale entry would silence the LLDP
        // confirmations for its links and age them out cluster-wide.
        // The features reply replaces the port map wholesale.
        self.ctl(io).send(dpid, &Message::FeaturesRequest);
        Self::note_mastership_trace(io, dpid, claim.1, true);
        self.each_app(io, |app, ctl| app.on_mastership_change(ctl, dpid, true));
    }

    /// Relinquish `dpid`. In-flight mods were issued under the lapsed
    /// mastership — the new master owns the switch's program now, so
    /// they are dropped rather than retransmitted. `announce` steps the
    /// connection down to Equal at the switch (skipped when the switch
    /// itself told us we were outranked).
    fn mastership_lost(&mut self, io: &mut Io<'_>, dpid: Dpid, claim: (u64, u32), announce: bool) {
        self.stats.masterships_lost += 1;
        if announce {
            self.send_role(io, dpid, Role::Equal, claim);
        }
        self.core.southbound.step_down(dpid);
        self.settle(io);
        Self::note_mastership_trace(io, dpid, claim.1, false);
        self.each_app(io, |app, ctl| app.on_mastership_change(ctl, dpid, false));
    }

    /// One east-west round: `ClusterState` runs it and decides who
    /// masters what; the peers, the switches, the view and the apps hear
    /// of it here — the gossip first, then in the order `Round` lists.
    fn cluster_tick(&mut self, io: &mut Io<'_>) {
        let core = &mut self.core;
        let Some(cl) = &mut core.cluster else {
            // Standalone, intents commit on the tick with no round.
            return self.dispatch_committed_intents(io);
        };
        let switches = core.southbound.dpids();
        let round = cl.tick(io.now, &mut self.stats, switches, &mut core.frames);
        self.ctl(io).write_frames();
        for &dpid in &round.reassert {
            self.send_role(io, dpid, Role::Master, round.claim);
        }
        // Stale "down" ports silence discovery probes.
        for &dpid in &round.refresh {
            self.ctl(io).send(dpid, &Message::FeaturesRequest);
        }
        for (to, msg) in &round.frames {
            self.ctl(io).answer(*to, msg);
        }
        self.dispatch_committed_intents(io);
        for &dpid in &round.lost {
            self.mastership_lost(io, dpid, round.claim, true);
        }
        for &dpid in &round.gained {
            self.mastership_gained(io, dpid, round.claim);
        }
        // Our bases describe what we last sent, not what whoever held
        // these switches in the meantime did: have the apps re-assert.
        for &dpid in &round.refresh {
            self.core.southbound.distrust_groups(dpid);
            self.each_app(io, |app, ctl| app.on_switch_resync(ctl, dpid));
        }
    }

    /// Quarantine agents that have been silent past the deadline. Apps
    /// see the view-version bump and route around them.
    fn quarantine_scan(&mut self, io: &mut Io<'_>) {
        let (now, after) = (io.now, self.cfg.agent_dead_after);
        for dpid in self.core.southbound.silent(now, after) {
            self.stats.quarantines += u64::from(self.view.quarantine(dpid));
        }
    }

    /// Resend unacked mods past their timeout; abandon ones out of
    /// retries, and have the apps rebuild a switch that a program mod
    /// never reached. Then delete the groups whose hold has run out.
    fn retransmit_scan(&mut self, io: &mut Io<'_>) {
        let (core, stats, view) = (&mut self.core, &mut self.stats, &self.view);
        let short = core.southbound.retransmit_scan(
            io.now,
            |dpid| view.is_quarantined(dpid),
            self.cfg.mod_timeout,
            self.cfg.mod_max_retries,
            |to, body| write(io, stats, &mut core.xid, to, body),
        );
        self.settle(io);
        for dpid in short {
            self.rebuild(io, dpid);
        }
        // Groups that have been out of every program for the hold: go.
        let view = &self.view;
        let cluster = self.core.cluster.as_ref();
        let ours = |d| !view.is_quarantined(d) && cluster.is_none_or(|cl| cl.is_master(d));
        let condemned = self.core.southbound.condemned(io.now, ours);
        for (dpid, group_id) in condemned {
            let cmd = GroupModCmd::Delete;
            self.ctl(io)
                .send(dpid, &Message::GroupMod { group_id, cmd });
        }
    }

    /// `dpid`'s bases were dropped because it may not hold what they
    /// said. The stamps this replica recorded for it go too: they are a
    /// takeover's shortcut past the full load, and nothing vouches for
    /// them now. The apps hear that it needs rebuilding.
    fn rebuild(&mut self, io: &mut Io<'_>, dpid: Dpid) {
        if let Some(cl) = &mut self.core.cluster {
            cl.forget_stamps(dpid);
        }
        self.each_app(io, |app, ctl| app.on_switch_resync(ctl, dpid));
    }

    /// Fence every switch that someone waits to hear from: those sent
    /// hard state or a burst of soft state since the last flush, and
    /// while a two-phase transaction awaits acks, all. Soft state left
    /// unfenced sets the fence timer.
    fn flush_barriers(&mut self, io: &mut Io<'_>) {
        let (core, stats) = (&mut self.core, &mut self.stats);
        if core.planner.awaits_acks() {
            core.southbound.fence_aged(io.now, Duration::ZERO);
        }
        core.southbound
            .flush_barriers(|to, body| write(io, stats, &mut core.xid, to, body));
        if core.southbound.unfenced_sessions > 0 && !self.fence_armed {
            self.fence_armed = true;
            io.sink.set_timer(self.fence_interval(), TIMER_FENCE);
        }
    }

    /// How long soft state may ride unfenced: acknowledged well inside
    /// `mod_timeout` even so.
    fn fence_interval(&self) -> Duration {
        self.cfg.mod_timeout.div(3)
    }

    /// A node we never completed the handshake with is talking to us —
    /// the Hello exchange was lost in transit. Re-solicit (at most once
    /// per tick interval) so a faulty channel can't orphan a switch.
    fn resolicit_handshake(&mut self, io: &mut Io<'_>, from: NodeId) {
        let every = self.cfg.tick_interval;
        if self.core.southbound.resolicit(from, io.now, every) {
            self.ctl(io).answer(from, &Message::FeaturesRequest);
        }
    }

    /// Ask `dpid`'s switch at `from`, which spoke to us, for its state
    /// digest if it is quarantined, at most once per tick interval.
    fn maybe_request_resync(&mut self, io: &mut Io<'_>, from: NodeId, dpid: Dpid) {
        let (every, southbound) = (self.cfg.tick_interval, &mut self.core.southbound);
        if self.view.is_quarantined(dpid) && southbound.resync_due(from, io.now, every) {
            self.ctl(io).send(dpid, &Message::ResyncRequest);
        }
    }

    /// Probe every registered agent's control-channel liveness with an
    /// ECHO_REQUEST (the token encodes the send time, so a reply dates
    /// the probe it answers).
    fn echo_round(&mut self, io: &mut Io<'_>) {
        let targets: Vec<Dpid> = self.core.southbound.dpids().collect();
        let token = io.now.as_nanos();
        for dpid in targets {
            self.stats.echo_probes += 1;
            self.ctl(io).send(dpid, &Message::EchoRequest { token });
        }
    }

    /// Send one LLDP probe out of every known up port of every switch.
    /// Clustered, each replica probes only the switches it masters —
    /// every switch has exactly one master, so every port is still
    /// probed exactly once per round cluster-wide, and each probe's
    /// punt lands at the *destination* switch's master (which is why
    /// link expiry is filtered to destination-mastered links).
    fn discovery_round(&mut self, io: &mut Io<'_>) {
        let (mut targets, mut frame) = std::mem::take(&mut self.probes);
        targets.clear();
        for (&dpid, info) in &self.view.switches {
            if self.is_master_of(dpid) {
                let up = info.ports.iter().filter(|&(_, &up)| up);
                targets.extend(up.map(|(&port, _)| (dpid, port)));
            }
        }
        for &(dpid, port) in &targets {
            let mac = zen_wire::EthernetAddress::from_id(0x70_0000 + dpid);
            PacketBuilder::lldp_into(&mut frame, mac, dpid, port, LLDP_TTL_SECS);
            let out = [zen_dataplane::Action::Output(port)];
            self.ctl(io).packet_out(dpid, 0, &out, &frame);
        }
        self.probes = (targets, frame);
    }

    /// Per-punt observation: LLDP discovery return path and host
    /// learning. Returns whether the frame should go on to the app
    /// chain (discovery probes and unparsable frames stop here).
    fn observe_packet_in(
        &mut self,
        io: &mut Io<'_>,
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
                let now = io.now;
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
            let now = io.now;
            let mac = eth.src_addr();
            let (moved, recorded) = self.view.learn_host(mac, dpid, in_port, ip, now);
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
        io: &mut Io<'_>,
        from: NodeId,
        known: Option<Dpid>,
        bytes: &[u8],
        punts: &[Punt],
    ) {
        let Some(dpid) = known else {
            return self.resolicit_handshake(io, from);
        };
        self.maybe_request_resync(io, from, dpid);
        // Admission control, when it is on, dispatches what is within
        // the switch's budget and pushes back on who went far over it.
        let Some(adm) = self.admission.as_mut() else {
            return self.deliver_punts(io, dpid, bytes, punts);
        };
        let Some(session) = self.core.southbound.session_mut(from) else {
            return;
        };
        let at = (io.now, io.sink.recorder());
        let (admitted, over) = adm.admit(at, &mut self.stats, from, session, bytes, punts);
        self.install_pushbacks(io, from, dpid, over);
        self.deliver_punts(io, dpid, bytes, &admitted);
    }

    /// Dispatch already-admitted punts from `dpid`, whose frames lie in
    /// `bytes`: fold them into the view (LLDP, host learning) and hand
    /// survivors to the app chain.
    fn deliver_punts(&mut self, io: &mut Io<'_>, dpid: Dpid, bytes: &[u8], punts: &[Punt]) {
        // Stragglers: punts routed here while mastership was in flight
        // are still good observations (learned below), but only the
        // master drives the datapath in response.
        let master = self.is_master_of(dpid);
        let recording = io.sink.recorder().is_enabled();
        let mut dispatch = std::mem::take(&mut self.dispatch);
        dispatch.clear();
        for &punt in punts {
            let frame = punt.frame(bytes);
            if !self.observe_packet_in(io, dpid, punt.in_port, frame) {
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
        let (apps, mut ctl) = self.split(io);
        for &(punt, trace) in &dispatch {
            let (in_port, frame) = (punt.in_port, punt.frame(bytes));
            if trace.is_some() {
                ctl.io.sink.recorder().begin_trace(trace);
            }
            let mut claimed: Option<&'static str> = None;
            for app in apps.iter_mut() {
                if app.on_packet_in(&mut ctl, dpid, in_port, frame) == Disposition::Handled {
                    claimed = Some(app.name());
                    break;
                }
            }
            if let Some(t) = trace {
                let at = ctl.io.now.as_nanos();
                let rec = ctl.io.sink.recorder();
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
        self.dispatch = dispatch;
    }

    /// Push back: install the drop rule admission control wants for each
    /// offender that crossed its threshold. The rule rides the normal
    /// tracked send path, so it is barrier-acked, retransmitted on loss,
    /// and visible in the cookie shadow.
    fn install_pushbacks(
        &mut self,
        io: &mut Io<'_>,
        from: NodeId,
        dpid: Dpid,
        offenders: Vec<(PortNo, [u8; 6])>,
    ) {
        if !self.is_master_of(dpid) {
            return;
        }
        let now = io.now;
        for (port, mac) in offenders {
            let adm = self.admission.as_mut();
            let Some(spec) = adm.and_then(|adm| adm.push_back((from, port, mac), now)) else {
                continue;
            };
            self.stats.pushbacks_installed += 1;
            io.record(dpid, TraceEvent::PushbackInstalled { dpid, port });
            let mut ctl = self.ctl(io);
            let mut txn = ctl.txn();
            txn.flow(dpid, 0, spec);
            txn.commit(&mut ctl);
        }
    }

    /// Drive the epoch-versioned two-phase update planner: act on each
    /// step it takes. Called from the tick timer and after every control
    /// batch (acks resolve there), so phase transitions happen promptly.
    fn planner_pump(&mut self, io: &mut Io<'_>) {
        if !self.core.planner.is_busy() {
            return;
        }
        while let Some(step) = self.core.planner.step(io.now, &mut self.stats) {
            let (epoch, phase) = (step.epoch, step.phase);
            io.record(0, TraceEvent::EpochPhase { epoch, phase });
            let mut xids = Vec::with_capacity(step.mods.len());
            for (dpid, msg) in &step.mods {
                xids.extend(self.ctl(io).send_as(*dpid, msg, false));
            }
            self.core.planner.sent(xids);
            match step.notice {
                Some(Notice::Committed { owner, token }) => {
                    self.each_app(io, |app, ctl| app.on_update_committed(ctl, owner, token))
                }
                Some(Notice::Aborted { owner, token }) => {
                    self.each_app(io, |app, ctl| app.on_update_aborted(ctl, owner, token))
                }
                None => {}
            }
        }
    }

    /// Dispatch the deferred punts whose turn admission control says it
    /// is.
    fn admission_drain(&mut self, io: &mut Io<'_>) {
        let Some(adm) = self.admission.as_mut() else {
            return;
        };
        let drained = adm.drain(io.now, &mut self.core.southbound);
        if drained.is_empty() {
            return;
        }
        for (dpid, in_port, frame) in drained {
            self.stats.punts_drained += 1;
            let punt = Punt::of(&frame, in_port, &frame);
            self.deliver_punts(io, dpid, &frame, &[punt]);
        }
    }

    /// Settle every tracked mod whose end the southbound decided since
    /// the last call, in the order it decided them: count it, resolve
    /// it for the planner's phase gate, and record an ack on the trace
    /// its mod was sent under. The one place a tracked mod ends; called
    /// right after each southbound call that can end one.
    fn settle(&mut self, io: &mut Io<'_>) {
        let (core, stats) = (&mut self.core, &mut self.stats);
        for (xid, end) in core.southbound.ends() {
            let (count, acked) = match end {
                End::Acked(dpid) => (&mut stats.mods_acked, Some(dpid)),
                End::Failed => (&mut stats.mods_failed, None),
                End::Superseded => (&mut stats.mods_superseded, None),
            };
            *count += 1;
            core.planner.note_xid(xid, acked.is_some());
            let rec = io.sink.recorder();
            if let Some(dpid) = acked.filter(|_| rec.is_enabled()) {
                if let Some(trace) = rec.take_xid(xid) {
                    let event = TraceEvent::FlowModAcked { dpid, xid };
                    rec.record(io.now.as_nanos(), trace, event);
                }
            }
        }
    }

    /// A FEATURES_REPLY: the southbound says whether it is a handshake.
    fn handshake(
        &mut self,
        io: &mut Io<'_>,
        from: NodeId,
        known: &mut Option<Dpid>,
        dpid: Dpid,
        n_tables: u8,
        ports: Vec<zen_proto::PortDesc>,
    ) {
        let opened = self.core.southbound.open(from, dpid, io.now);
        if opened == Opened::Refused {
            let (code, data) = (ErrorCode::BadRequest, Vec::new());
            return self.ctl(io).answer(from, &Message::Error { code, data });
        }
        *known = Some(dpid);
        let port_list: Vec<(PortNo, bool)> = ports.iter().map(|p| (p.port_no, p.up)).collect();
        self.view.add_switch(dpid, n_tables, &port_list);
        if opened == Opened::Repeat {
            // A port-map refresh, asked for or repeated: the session,
            // role, and app state are all live. Discovery picks the
            // fresh ports up next tick.
            return;
        }
        // Clustered: settle the connection's role before any app
        // traffic, so the agent routes punts (and accepts mods) from
        // the first packet.
        if let Some(cl) = &mut self.core.cluster {
            let (role, newly) = cl.role_at_handshake(dpid);
            let claim = cl.membership.claim();
            self.stats.masterships_gained += u64::from(newly);
            self.send_role(io, dpid, role, claim);
            if newly {
                Self::note_mastership_trace(io, dpid, claim.1, true);
            }
        }
        self.each_app(io, |app, ctl| app.on_switch_up(ctl, dpid));
        // Probe its links right away.
        self.discovery_round(io);
    }

    fn handle_message(
        &mut self,
        io: &mut Io<'_>,
        from: NodeId,
        known: &mut Option<Dpid>,
        view: MessageView<'_>,
        xid: u32,
    ) {
        // Any frame from a quarantined switch means the channel is back;
        // ask for its state digest (quarantine lifts only on HelloResync,
        // so routing stays conservative until state is reconciled).
        if let Some(dpid) = *known {
            if !matches!(view, MessageView::Owned(Message::HelloResync { .. })) {
                self.maybe_request_resync(io, from, dpid);
            }
        } else if !matches!(
            view,
            MessageView::Owned(Message::Hello { .. } | Message::FeaturesReply { .. })
        ) {
            self.resolicit_handshake(io, from);
        }
        if let MessageView::BarrierReply { applied } = view {
            // Read where it lies: owning it would copy a list walked once.
            let moved = self.core.southbound.barrier_reply(from, xid, applied);
            self.settle(io);
            // One digest per barrier whose batch moved the cookie counts,
            // not per mod — and none for a batch of group mods.
            if let Some(dpid) = moved {
                self.replicate_shadow(dpid);
            }
            return;
        }
        // What anyone may say; the rest is a known switch's to say.
        let msg = match view.into_message() {
            Message::Hello { .. } => {
                // Learn the session, ask who they are.
                let version = zen_proto::VERSION;
                let mut ctl = self.ctl(io);
                ctl.answer(from, &Message::Hello { version });
                return ctl.answer(from, &Message::FeaturesRequest);
            }
            Message::FeaturesReply {
                dpid,
                n_tables,
                ports,
            } => return self.handshake(io, from, known, dpid, n_tables, ports),
            Message::EchoRequest { token } => {
                return self.ctl(io).answer(from, &Message::EchoReply { token });
            }
            Message::EchoReply { .. } => return self.stats.echo_replies += 1,
            msg => msg,
        };
        if let Message::Error { code, .. } = &msg {
            self.stats.nonmaster_errors += u64::from(*code == ErrorCode::NotMaster);
            self.stats.table_full_errors += u64::from(*code == ErrorCode::TableFull);
        }
        let Some(dpid) = *known else {
            return;
        };
        match msg {
            Message::PortStatus { port } => {
                self.view.set_port(dpid, port.port_no, port.up);
                self.each_app(io, |app, ctl| {
                    app.on_port_status(ctl, dpid, port.port_no, port.up)
                });
            }
            Message::FlowRemoved {
                table_id,
                priority,
                cookie,
                reason,
                ..
            } => {
                if reason == zen_proto::RemovedReason::Eviction {
                    self.stats.evictions_noted += 1;
                }
                // Keep the cookie shadow honest for timeouts.
                if self.core.southbound.removed(from, cookie, reason) {
                    self.replicate_shadow(dpid);
                }
                self.each_app(io, |app, ctl| {
                    app.on_flow_removed(ctl, dpid, table_id, priority, cookie)
                });
            }
            Message::StatsReply { body } => {
                use zen_proto::StatsBody::{Cache, Flow, Port, Table};
                self.each_app(io, |app, ctl| match &body {
                    Port(records) => app.on_port_stats(ctl, dpid, records),
                    Table(records) => app.on_table_stats(ctl, dpid, records),
                    Flow(records) => app.on_flow_stats(ctl, dpid, records),
                    Cache(record) => app.on_cache_stats(ctl, dpid, record),
                });
            }
            Message::HelloResync {
                generation,
                cookies,
            } => {
                let clean = self.core.southbound.resync(from, generation, &cookies);
                self.settle(io);
                // Unquarantined *before* the apps hear of a divergence,
                // so their reprogramming sees the switch in the graph.
                self.view.unquarantine(dpid);
                if clean {
                    self.stats.resyncs_clean += 1;
                } else {
                    // The session dropped its in-flight mods and took the
                    // report for its shadow: the owning apps reprogram
                    // from the reported truth.
                    self.stats.resyncs_dirty += 1;
                    self.replicate_shadow(dpid);
                    self.rebuild(io, dpid);
                }
            }
            Message::RoleReply {
                role,
                term,
                replica,
            } => {
                let Some(cl) = &mut self.core.cluster else {
                    return;
                };
                if cl.role_reply(dpid, role, term, replica) {
                    let claim = cl.membership.claim();
                    self.mastership_lost(io, dpid, claim, false);
                }
            }
            Message::Error {
                code: ErrorCode::NotMaster,
                data,
            } => {
                // A mod crossed a mastership change in flight.
                let ours = self.core.cluster.as_ref().filter(|cl| cl.is_master(dpid));
                if let Some(claim) = ours.map(|cl| cl.membership.claim()) {
                    // We still believe we are master: our RoleRequest may
                    // have been lost, or the RoleReply demoting us is in
                    // flight. Re-assert; the mod stays pending and the
                    // retransmit path retries it under the settled role.
                    self.send_role(io, dpid, Role::Master, claim);
                } else {
                    self.core.southbound.bounce(from, &data, End::Superseded);
                    self.settle(io);
                }
            }
            Message::Error {
                code: ErrorCode::TableFull,
                data,
            } => {
                // A switch refused a flow add for lack of table capacity
                // (refuse overflow policy).
                self.core.southbound.bounce(from, &data, End::Failed);
                self.settle(io);
                self.each_app(io, |app, ctl| app.on_table_full(ctl, dpid));
            }
            // Other errors, ResyncRequest (agent-bound): informational.
            _ => {}
        }
    }

    /// Arm the tick, and admission's drain when it is on.
    pub fn start(&mut self, io: &mut dyn ControlIo) {
        io.set_timer(self.cfg.tick_interval, TIMER_TICK);
        if let Some(adm) = &self.admission {
            io.set_timer(adm.cfg.drain_interval, TIMER_ADMIT);
        }
    }

    /// Timer `token`, set through `io`, fires at `now`.
    pub fn timer(&mut self, now: Instant, token: u64, io: &mut dyn ControlIo) {
        let io = &mut Io { now, sink: io };
        if token == TIMER_ADMIT {
            self.admission_drain(io);
            self.flush_barriers(io);
            if let Some(adm) = &self.admission {
                io.sink.set_timer(adm.cfg.drain_interval, TIMER_ADMIT);
            }
        }
        if token == TIMER_FENCE {
            let due = self.fence_interval();
            let left = self.core.southbound.fence_aged(io.now, due);
            self.flush_barriers(io);
            self.fence_armed = left.is_some();
            if let Some(waited) = left {
                io.sink.set_timer(due - waited, TIMER_FENCE);
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
            let (now, max_age) = (io.now, self.cfg.link_max_age);
            let removed = if let Some(cl) = &self.core.cluster {
                let lease = cl.membership.config().lease_timeout;
                let masters = cl.masters();
                self.view.expire_links(now, |(from, _), (to, _)| {
                    if !masters.contains(&to) {
                        return None;
                    }
                    let mastered = masters.contains(&from);
                    Some(if mastered { max_age } else { max_age + lease })
                })
            } else {
                self.view.expire_links(now, |_, _| Some(max_age))
            };
            for ((dpid, port), _) in removed {
                self.log_event(ViewEvent::LinkDel {
                    from_dpid: dpid,
                    from_port: port,
                });
                self.each_app(io, |app, ctl| app.on_port_status(ctl, dpid, port, false));
            }
            self.quarantine_scan(io);
            self.retransmit_scan(io);
            self.cluster_tick(io);
            self.discovery_round(io);
            self.echo_round(io);
            self.each_app(io, |app, ctl| app.tick(ctl));
            self.planner_pump(io);
            self.flush_barriers(io);
            io.sink.set_timer(self.cfg.tick_interval, TIMER_TICK);
        }
    }

    /// `from` wrote `bytes`, which arrive at `now`: one delivery of
    /// whole frames.
    pub fn control(&mut self, now: Instant, from: NodeId, bytes: &[u8], io: &mut dyn ControlIo) {
        let io = &mut Io { now, sink: io };
        // East-west traffic from a peer replica bypasses the switch-session
        // machinery (quarantine, handshake re-solicit); peers never punt,
        // nor shake hands. A switch is known once it has (only a handshake
        // in this delivery changes that), and any bytes at all prove its
        // channel works.
        let core = &mut self.core;
        let peer = core.cluster.as_ref().is_some_and(|cl| cl.is_peer(from));
        let mut known = core.southbound.heard(from, now);
        // PACKET_INs decode to borrowed views over `bytes` and are
        // collected for one batched app dispatch. Any other message
        // flushes the batch first, preserving relative order.
        let mut punts = std::mem::take(&mut self.punts);
        for frame in frames(bytes) {
            match frame {
                Ok((MessageView::PacketIn { in_port, frame, .. }, _)) => {
                    self.stats.msgs_received += 1;
                    if !peer {
                        punts.push(Punt::of(bytes, in_port, frame));
                    }
                }
                Ok((other, xid)) => {
                    self.stats.msgs_received += 1;
                    if peer {
                        self.handle_peer_message(io, other.into_message());
                        continue;
                    }
                    if !punts.is_empty() {
                        self.handle_packet_in_batch(io, from, known, bytes, &punts);
                        punts.clear();
                    }
                    self.handle_message(io, from, &mut known, other, xid);
                }
                Err(_) => self.stats.decode_errors += 1,
            }
        }
        if !punts.is_empty() {
            self.handle_packet_in_batch(io, from, known, bytes, &punts);
            punts.clear();
        }
        self.punts = punts;
        self.planner_pump(io);
        self.flush_barriers(io);
    }
}

#[cfg(test)]
mod tests {
    use std::any::Any;
    use std::collections::BTreeMap;

    use zen_cluster::ClusterConfig;
    use zen_dataplane::{FlowMatch, FlowSpec};
    use zen_proto::{decode, encode_into, FlowModCmd, RemovedReason};
    use zen_sim::Metrics;
    use zen_telemetry::Recorder;

    use super::*;

    const DPID: Dpid = 7;
    const COOKIE: u64 = 5;
    /// The nodes switches speak from: clear of the replicas, 0 and 1.
    const A: NodeId = NodeId(2);
    const B: NodeId = NodeId(3);

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

    /// Where a controller driven without a world writes: each message,
    /// decoded, with the node it went to, and each timer it set.
    #[derive(Default)]
    struct Sink {
        sent: Vec<(NodeId, u32, Message)>,
        timers: Vec<(Duration, u64)>,
        recorder: Recorder,
        metrics: Metrics,
    }

    impl ControlIo for Sink {
        fn send_control_with(&mut self, to: NodeId, put: &mut dyn FnMut(&mut Vec<u8>)) {
            let mut bytes = Vec::new();
            put(&mut bytes);
            let (msg, xid, used) = decode(&bytes).expect("a whole message");
            assert_eq!(used, bytes.len(), "one message per write");
            self.sent.push((to, xid, msg));
        }
        fn set_timer(&mut self, delay: Duration, token: u64) {
            self.timers.push((delay, token));
        }
        fn recorder(&self) -> &Recorder {
            &self.recorder
        }
        fn metrics(&mut self) -> &mut Metrics {
            &mut self.metrics
        }
    }

    /// A real controller driven without a world, over a channel with no
    /// latency: each test says what a node sends it and when, the timers
    /// it sets fire when the clock reaches them, and a scripted switch
    /// answers each fence the moment it is sent one.
    struct Rig {
        ctl: Controller,
        sink: Sink,
        now: Instant,
        /// The timers set and not yet fired: when each fires, its token.
        timers: Vec<(Instant, u64)>,
        /// The scripted switches, and whether each reports the removal
        /// before the ack.
        scripts: BTreeMap<NodeId, bool>,
        /// Every message the controller wrote: when, to whom, what.
        sent: Vec<(Instant, NodeId, Message)>,
    }

    impl Rig {
        fn new(mut ctl: Controller) -> Rig {
            let mut sink = Sink::default();
            ctl.start(&mut sink);
            let (now, timers) = (Instant::ZERO, Vec::new());
            let (scripts, sent) = (BTreeMap::new(), Vec::new());
            #[rustfmt::skip]
            let mut rig = Rig { ctl, sink, now, timers, scripts, sent };
            rig.collect();
            rig
        }

        /// At `ms` milliseconds, `from` says `msgs`, as one delivery.
        fn say(&mut self, ms: u64, from: NodeId, msgs: &[Message]) {
            self.run(ms);
            let mut bytes = Vec::new();
            for msg in msgs {
                encode_into(&mut bytes, msg, 0);
            }
            self.deliver(from, &bytes);
        }

        /// A switch at `from` that claims `dpid` at `ms` milliseconds,
        /// then answers each fence with the FLOW_REMOVED of everything
        /// it names and the BARRIER_REPLY — the removal first if
        /// `removed_first`. Not a real `SwitchAgent`: a real switch
        /// reports a flow removed only when it removes one, never for a
        /// fence, and not in an order the test picks.
        fn script(&mut self, ms: u64, from: NodeId, dpid: Dpid, removed_first: bool) {
            self.scripts.insert(from, removed_first);
            self.say(ms, from, &[claim(dpid)]);
        }

        /// Fire each timer due by `ms` milliseconds, earliest first; the
        /// clock is then at `ms`.
        fn run(&mut self, ms: u64) {
            let until = Instant::from_millis(ms);
            let due = |timers: &Vec<(Instant, u64)>| {
                let due = timers.iter().enumerate().filter(|(_, t)| t.0 <= until);
                due.min_by_key(|(_, t)| t.0).map(|(i, _)| i)
            };
            while let Some(i) = due(&self.timers) {
                let (at, token) = self.timers.remove(i);
                self.now = at;
                self.ctl.timer(at, token, &mut self.sink);
                self.collect();
            }
            self.now = until;
        }

        fn deliver(&mut self, from: NodeId, bytes: &[u8]) {
            self.ctl.control(self.now, from, bytes, &mut self.sink);
            self.collect();
        }

        /// Take in what the controller just wrote and set, and deliver
        /// the scripted switches' answers to it.
        fn collect(&mut self) {
            let now = self.now;
            let timers = self.sink.timers.drain(..);
            self.timers
                .extend(timers.map(|(delay, token)| (now + delay, token)));
            let mut answers = Vec::new();
            for (to, xid, msg) in std::mem::take(&mut self.sink.sent) {
                let script = self.scripts.get(&to).copied();
                if let (Some(removed_first), Message::BarrierRequest { xids }) = (script, &msg) {
                    let removed = Message::FlowRemoved {
                        table_id: 0,
                        priority: 1,
                        cookie: COOKIE,
                        reason: RemovedReason::IdleTimeout,
                        packets: 0,
                        bytes: 0,
                    };
                    let acked = Message::BarrierReply {
                        applied: xids.clone(),
                    };
                    let mut answer = [(removed, 0), (acked, xid)];
                    if !removed_first {
                        answer.swap(0, 1);
                    }
                    let mut bytes = Vec::new();
                    for (msg, xid) in &answer {
                        encode_into(&mut bytes, msg, *xid);
                    }
                    answers.push((to, bytes));
                }
                self.sent.push((now, to, msg));
            }
            for (from, bytes) in answers {
                self.deliver(from, &bytes);
            }
        }

        /// When `to` was sent each message `of` picks.
        fn times(&self, to: NodeId, of: fn(&Message) -> bool) -> Vec<Instant> {
            let sent = self
                .sent
                .iter()
                .filter(|(_, node, msg)| *node == to && of(msg));
            sent.map(|(at, ..)| *at).collect()
        }

        /// What `to` was sent.
        fn got(&self, to: NodeId) -> Vec<&Message> {
            let sent = self.sent.iter().filter(|(_, node, _)| *node == to);
            sent.map(|(.., msg)| msg).collect()
        }
    }

    fn is_mod(msg: &Message) -> bool {
        matches!(msg, Message::FlowMod { .. })
    }

    fn is_fence(msg: &Message) -> bool {
        matches!(msg, Message::BarrierRequest { .. })
    }

    /// A FEATURES_REPLY claiming `dpid`.
    fn claim(dpid: Dpid) -> Message {
        let (n_tables, ports) = (1, vec![]);
        #[rustfmt::skip]
        let up = Message::FeaturesReply { dpid, n_tables, ports };
        up
    }

    /// The shadow one replica is left with, and the digests it gossiped,
    /// after an entry's add is acknowledged and the entry idles out.
    fn shadow_after(removed_first: bool) -> (Vec<CookieCount>, Vec<Vec<CookieCount>>) {
        let mut ctl = Controller::new(vec![Box::new(Seed)]);
        ctl.enable_cluster(ClusterConfig::new(vec![NodeId(0)], 0));
        let mut rig = Rig::new(ctl);
        rig.script(0, A, DPID, removed_first);
        rig.run(1_000);
        let ctl = &rig.ctl;
        assert_eq!((ctl.stats.mods_acked, ctl.pending_mods()), (1, 0));
        let (_, gossiped, _) = ctl
            .core
            .cluster
            .as_ref()
            .expect("clustered")
            .store
            .snapshot();
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
        let mut rig = Rig::new(Controller::with_config(vec![Box::new(Seed)], cfg));
        rig.script(0, A, DPID, false);
        rig.run(900);
        let (mods, fences) = (rig.times(A, is_mod), rig.times(A, is_fence));
        assert_eq!((mods.len(), fences.len()), (1, 1));
        let waited = fences[0] - mods[0];
        assert_eq!(waited, cfg.mod_timeout.div(3));
        let stats = &rig.ctl.stats;
        assert_eq!((stats.mods_acked, stats.mods_retransmitted), (1, 0));
        assert_eq!(rig.ctl.pending_mods(), 0);
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
        let mut rig = Rig::new(Controller::new(vec![Box::new(TwoPhase)]));
        rig.script(0, A, DPID, false);
        rig.script(0, B, DPID + 1, false);
        rig.run(400);
        for switch in [A, B] {
            let mods = rig.times(switch, is_mod);
            assert_eq!(mods.len(), 1);
            assert_eq!(rig.times(switch, is_fence), mods);
        }
        let stats = &rig.ctl.stats;
        assert_eq!((stats.txns_committed, stats.mods_retransmitted), (1, 0));
    }

    /// A transaction staged on two switches that never answer: the
    /// first's HELLO_RESYNC reports what its shadow does not hold, so its
    /// staged mod is superseded, and the transaction aborts at the next
    /// step — in that delivery, not at its deadline.
    #[test]
    fn a_staged_mod_superseded_by_a_dirty_resync_aborts_its_transaction_at_once() {
        let mut rig = Rig::new(Controller::new(vec![Box::new(TwoPhase)]));
        rig.say(0, A, &[claim(DPID)]);
        rig.say(0, B, &[claim(DPID + 1)]);
        assert_eq!(
            (rig.times(A, is_mod).len(), rig.times(B, is_mod).len()),
            (1, 1)
        );
        assert!(rig.ctl.txn_busy(), "staging");

        let cookies = vec![CookieCount {
            cookie: COOKIE,
            count: 1,
        }];
        rig.say(
            10,
            A,
            &[Message::HelloResync {
                generation: 0,
                cookies,
            }],
        );
        let stats = &rig.ctl.stats;
        assert_eq!((stats.resyncs_dirty, stats.mods_superseded), (1, 1));
        assert_eq!(stats.txns_aborted, 1);
        assert!(!rig.ctl.txn_busy());
    }

    /// Commits two-switch per-packet updates, each owned by the epoch
    /// `staged_epoch` promised it: two when the second switch comes up
    /// and one more from the first commit callback. Keeps each commit's
    /// token beside the epoch it committed as.
    #[derive(Default)]
    struct Promised {
        committed: Vec<(u64, u64)>,
    }

    impl Promised {
        fn commit(ctl: &mut Ctl<'_, '_>) {
            let spec = FlowSpec::new(1, FlowMatch::ANY, vec![]).with_timeouts(1_000_000, 0);
            let epoch = ctl.staged_epoch();
            let mut txn = ctl.txn().per_packet().owned_by("promised", epoch);
            txn.flow(DPID, 0, spec.clone()).flow(DPID + 1, 0, spec);
            txn.commit(ctl);
        }
    }

    impl App for Promised {
        fn name(&self) -> &'static str {
            "promised"
        }
        fn on_switch_up(&mut self, ctl: &mut Ctl<'_, '_>, _: Dpid) {
            if ctl.view.switches.len() == 2 {
                Promised::commit(ctl);
                Promised::commit(ctl);
            }
        }
        fn on_update_committed(&mut self, ctl: &mut Ctl<'_, '_>, _: &'static str, token: u64) {
            self.committed.push((token, ctl.config_epoch()));
            if self.committed.len() == 1 {
                Promised::commit(ctl);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// An update committed from a commit callback, while another waits
    /// in the planner's queue, installs under the epoch `staged_epoch`
    /// promised it — and so with that epoch's cookies and group ids.
    #[test]
    fn an_update_committed_from_a_callback_gets_the_epoch_it_was_promised() {
        let mut rig = Rig::new(Controller::new(vec![Box::new(Promised::default())]));
        rig.script(0, A, DPID, false);
        rig.script(0, B, DPID + 1, false);
        rig.run(1_000);
        let app = rig.ctl.find_app::<Promised>().expect("installed");
        assert_eq!(app.committed, [(1, 1), (2, 2), (3, 3)]);
        assert!(!rig.ctl.txn_busy());
    }

    /// A FEATURES_REPLY naming a dpid that answers from another node,
    /// or coming from a node that gave another dpid, is refused with an
    /// error: the switch that registered first keeps its dpid, its mods
    /// and its probes, and the view gains nothing. The claimant is no
    /// real `SwitchAgent`: a real switch sends a FEATURES_REPLY only when
    /// asked, and only for its own dpid.
    #[test]
    fn a_second_claim_to_a_dpid_is_refused() {
        let mut rig = Rig::new(Controller::new(vec![Box::new(Seed)]));
        rig.script(0, A, DPID, false);
        // The switch's dpid, then one of its own, then a second one.
        for (ms, dpid) in [(10, DPID), (20, DPID + 1), (30, DPID + 2)] {
            rig.say(ms, B, &[claim(dpid)]);
        }
        // Short of the first resend: the claimant acknowledges nothing.
        rig.run(150);

        let ctl = &rig.ctl;
        let southbound = &ctl.core.southbound;
        let registered: Vec<(Dpid, Option<NodeId>)> = southbound
            .dpids()
            .map(|d| (d, southbound.node(d)))
            .collect();
        assert_eq!(registered, [(DPID, Some(A)), (DPID + 1, Some(B))]);
        assert_eq!(ctl.view.switches.len(), 2);
        assert_eq!(ctl.stats.flow_mods, 2, "one seed flow per switch up");
        assert_eq!(rig.times(A, is_mod).len(), 1);
        let got = rig.got(B);
        let count = |of: fn(&Message) -> bool| got.iter().filter(|m| of(m)).count();
        #[rustfmt::skip]
        let refused = |m: &Message| matches!(m, Message::Error { code: ErrorCode::BadRequest, .. });
        assert_eq!(count(refused), 2);
        assert_eq!(count(is_mod), 1);
    }

    /// Counts the switches it hears come up.
    struct Ups(usize);

    impl App for Ups {
        fn name(&self) -> &'static str {
            "ups"
        }
        fn on_switch_up(&mut self, _: &mut Ctl<'_, '_>, _: Dpid) {
            self.0 += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// A switch whose first word crossed its handshake is re-solicited,
    /// and answers both requests: the second FEATURES_REPLY refreshes
    /// its ports and is no second handshake.
    #[test]
    fn a_repeated_features_reply_is_not_a_second_handshake() {
        let mut rig = Rig::new(Controller::new(vec![Box::new(Ups(0))]));
        rig.say(10, A, &[claim(DPID)]);
        rig.say(20, A, &[claim(DPID)]);
        rig.run(50);
        assert_eq!(rig.ctl.view.switches.len(), 1);
        assert_eq!(rig.ctl.find_app::<Ups>().expect("installed").0, 1);
    }

    /// The parked case: a peer's replicated shadow for a switch that has
    /// not shaken hands with this replica has no session to live in. It
    /// waits, the session adopts it at the handshake, and it is what the
    /// switch's first HELLO_RESYNC is compared against.
    #[test]
    fn a_shadow_replicated_before_the_handshake_meets_the_first_resync() {
        let cookies = vec![CookieCount {
            cookie: COOKIE,
            count: 3,
        }];
        let resync = || Message::HelloResync {
            generation: 0,
            cookies: cookies.clone(),
        };
        // What the peer replica (node 1) observed first-hand.
        let entry = zen_proto::EwEntry {
            origin: 1,
            seq: 1,
            term: 1,
            event: ViewEvent::ShadowSet {
                dpid: DPID,
                cookies: cookies.clone(),
            },
        };
        let replicated = Message::EwEvents {
            replica: 1,
            entries: vec![entry],
        };
        let run = |peer_says: Option<Message>| {
            let mut ctl = Controller::new(vec![]);
            ctl.enable_cluster(ClusterConfig::new(vec![NodeId(0), NodeId(1)], 0));
            let mut rig = Rig::new(ctl);
            if let Some(msg) = peer_says {
                rig.say(10, NodeId(1), &[msg]);
            }
            // A stranger's word (re-solicited, no more), the handshake
            // after the peer has spoken, then the resync.
            rig.say(10, A, &[Message::EchoReply { token: 0 }]);
            rig.say(20, A, &[claim(DPID)]);
            rig.say(30, A, &[resync()]);
            rig.run(45);
            let parked = rig.ctl.core.southbound.parked();
            assert_eq!(parked.count(), 0, "nothing stays parked");
            (rig.ctl.shadow_cookies(DPID), rig.ctl.stats)
        };

        let (shadow, stats) = run(Some(replicated));
        assert_eq!(shadow, cookies);
        assert_eq!((stats.resyncs_clean, stats.resyncs_dirty), (1, 0));
        // With nothing replicated the same resync diverges from the
        // empty shadow, and is taken for the truth.
        let (shadow, stats) = run(None);
        assert_eq!(shadow, cookies);
        assert_eq!((stats.resyncs_clean, stats.resyncs_dirty), (0, 1));
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
