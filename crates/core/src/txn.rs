//! Transactional network updates — the northbound programming API.
//!
//! Applications no longer scatter loose `install_flow` calls: they open
//! a transaction with [`crate::controller::Ctl::txn`], stage flow,
//! group, and meter operations on the returned [`NetworkUpdate`], and
//! commit the batch atomically. Two consistency levels:
//!
//! * [`Consistency::Relaxed`] — operations are sent immediately in
//!   staging order over the tracked (barrier-acked, retransmitted)
//!   send path. Equivalent to the loose calls, but the batch is
//!   declared as one unit.
//! * [`Consistency::PerPacket`] — a Reitblatt-style two-phase
//!   versioned update. The controller's update planner stages the new
//!   configuration under the next epoch (internal rules match the
//!   epoch tag, see [`zen_dataplane::epoch`]), waits for barrier acks
//!   from every touched switch, then *flips* the edge rules to stamp
//!   the new epoch and garbage-collects the old epoch after a drain
//!   wave — every packet traverses entirely-old or entirely-new
//!   state, never a mix. Updates touching at most one switch commit
//!   on the fast path (a single switch applies its mods in order, so
//!   two-phase staging buys nothing).
//!
//! Flow operations carry a role ([`NetworkUpdate::flow_as`]):
//! [`FlowRole::Edge`] marks rules that stamp packets entering the
//! network (the planner prepends `SetEpoch` at flip time),
//! [`FlowRole::Internal`] marks rules that should only see packets of
//! their own epoch (the planner injects the epoch qualifier into the
//! matcher at staging time), and plain [`NetworkUpdate::flow`] is sent
//! verbatim. *Retire* operations
//! name the old configuration's footprint; the planner deletes it only
//! after the drain wave (under `Relaxed` they execute in staging
//! order, preserving the classic delete-then-reinstall sequence).

use std::collections::{BTreeSet, VecDeque};

use zen_dataplane::{epoch_tag, Action, FlowSpec, GroupDesc};
use zen_proto::{FlowModCmd, GroupModCmd, Message, MeterModCmd};
use zen_sim::{Duration, Instant};

use crate::controller::CtlStats;
use crate::view::Dpid;

/// How atomically a [`NetworkUpdate`] must take effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Consistency {
    /// Send operations immediately, in staging order, over the tracked
    /// send path. No cross-switch atomicity.
    #[default]
    Relaxed,
    /// Two-phase epoch-versioned commit: no packet ever sees a mix of
    /// old and new rules (per-packet consistency).
    PerPacket,
}

/// A flow operation's role in a two-phase update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowRole {
    /// Sent verbatim at staging time.
    Plain,
    /// An edge rule that stamps packets with the config epoch; held
    /// back until every staged rule is acked, then sent with
    /// `SetEpoch(tag)` prepended to its actions (the flip).
    Edge,
    /// An internal rule that must only see packets of its own epoch;
    /// the planner injects `matcher.epoch = Some(Some(tag))` at
    /// staging time.
    Internal,
}

/// One staged operation of a [`NetworkUpdate`].
#[derive(Debug, Clone)]
pub(crate) enum UpdateOp {
    /// Install a flow (role decides epoch decoration).
    Flow {
        dpid: Dpid,
        table_id: u8,
        spec: FlowSpec,
        role: FlowRole,
    },
    /// Delete flows by cookie at staging time.
    DeleteFlowsByCookie { dpid: Dpid, cookie: u64 },
    /// Install or replace a group.
    Group {
        dpid: Dpid,
        group_id: u32,
        desc: GroupDesc,
    },
    /// Delete a group at staging time.
    DeleteGroup { dpid: Dpid, group_id: u32 },
    /// Install or replace a meter.
    Meter {
        dpid: Dpid,
        meter_id: u32,
        rate_bps: u64,
        burst_bytes: u64,
    },
    /// Delete the old configuration's flows — after the drain wave
    /// under `PerPacket`, in staging order under `Relaxed`.
    RetireFlowsByCookie { dpid: Dpid, cookie: u64 },
    /// Delete an old configuration's group — after the drain wave
    /// under `PerPacket`, in staging order under `Relaxed`.
    RetireGroup { dpid: Dpid, group_id: u32 },
}

impl UpdateOp {
    /// The wire message that carries the op out, and its switch. Retire
    /// ops mean nothing special on the wire: they are plain deletes
    /// (*when* they go out is the planner's business).
    pub(crate) fn into_message(self) -> (Dpid, Message) {
        match self {
            UpdateOp::Flow {
                dpid,
                table_id,
                spec,
                ..
            } => {
                let cmd = FlowModCmd::Add(spec);
                (dpid, Message::FlowMod { table_id, cmd })
            }
            UpdateOp::DeleteFlowsByCookie { dpid, cookie }
            | UpdateOp::RetireFlowsByCookie { dpid, cookie } => {
                let cmd = FlowModCmd::DeleteByCookie { cookie };
                (dpid, Message::FlowMod { table_id: 0, cmd })
            }
            UpdateOp::Group {
                dpid,
                group_id,
                desc,
            } => {
                let cmd = GroupModCmd::Add(desc);
                (dpid, Message::GroupMod { group_id, cmd })
            }
            UpdateOp::DeleteGroup { dpid, group_id } | UpdateOp::RetireGroup { dpid, group_id } => {
                let cmd = GroupModCmd::Delete;
                (dpid, Message::GroupMod { group_id, cmd })
            }
            UpdateOp::Meter {
                dpid,
                meter_id,
                rate_bps,
                burst_bytes,
            } => {
                let cmd = MeterModCmd::Add {
                    rate_bps,
                    burst_bytes,
                };
                (dpid, Message::MeterMod { meter_id, cmd })
            }
        }
    }

    pub(crate) fn dpid(&self) -> Dpid {
        match *self {
            UpdateOp::Flow { dpid, .. }
            | UpdateOp::DeleteFlowsByCookie { dpid, .. }
            | UpdateOp::Group { dpid, .. }
            | UpdateOp::DeleteGroup { dpid, .. }
            | UpdateOp::Meter { dpid, .. }
            | UpdateOp::RetireFlowsByCookie { dpid, .. }
            | UpdateOp::RetireGroup { dpid, .. } => dpid,
        }
    }
}

/// A staged atomic network update. Build with
/// [`crate::controller::Ctl::txn`], stage operations, then
/// [`NetworkUpdate::commit`].
#[derive(Debug, Clone, Default)]
pub struct NetworkUpdate {
    pub(crate) consistency: Consistency,
    /// The submitting app's name, echoed in the completion callbacks.
    pub(crate) owner: &'static str,
    /// Opaque app-chosen correlation value, echoed in the callbacks.
    pub(crate) token: u64,
    pub(crate) ops: Vec<UpdateOp>,
}

impl NetworkUpdate {
    /// Request two-phase per-packet consistency for this update.
    pub fn per_packet(mut self) -> NetworkUpdate {
        self.consistency = Consistency::PerPacket;
        self
    }

    /// Name the submitting app and an opaque correlation token; both
    /// are echoed in [`crate::app::App::on_update_committed`] /
    /// [`crate::app::App::on_update_aborted`].
    pub fn owned_by(mut self, owner: &'static str, token: u64) -> NetworkUpdate {
        self.owner = owner;
        self.token = token;
        self
    }

    /// Stage a flow install in the given role.
    pub fn flow_as(
        &mut self,
        role: FlowRole,
        dpid: Dpid,
        table_id: u8,
        spec: FlowSpec,
    ) -> &mut NetworkUpdate {
        self.ops.push(UpdateOp::Flow {
            dpid,
            table_id,
            spec,
            role,
        });
        self
    }

    /// Stage a plain flow install.
    pub fn flow(&mut self, dpid: Dpid, table_id: u8, spec: FlowSpec) -> &mut NetworkUpdate {
        self.flow_as(FlowRole::Plain, dpid, table_id, spec)
    }

    /// Stage an immediate delete of all flows carrying `cookie`.
    pub fn delete_flows_by_cookie(&mut self, dpid: Dpid, cookie: u64) -> &mut NetworkUpdate {
        self.ops
            .push(UpdateOp::DeleteFlowsByCookie { dpid, cookie });
        self
    }

    /// Stage a group install (or replace).
    pub fn group(&mut self, dpid: Dpid, group_id: u32, desc: GroupDesc) -> &mut NetworkUpdate {
        self.ops.push(UpdateOp::Group {
            dpid,
            group_id,
            desc,
        });
        self
    }

    /// Stage an immediate group delete.
    pub fn delete_group(&mut self, dpid: Dpid, group_id: u32) -> &mut NetworkUpdate {
        self.ops.push(UpdateOp::DeleteGroup { dpid, group_id });
        self
    }

    /// Stage a meter install (or replace).
    pub fn meter(
        &mut self,
        dpid: Dpid,
        meter_id: u32,
        rate_bps: u64,
        burst_bytes: u64,
    ) -> &mut NetworkUpdate {
        self.ops.push(UpdateOp::Meter {
            dpid,
            meter_id,
            rate_bps,
            burst_bytes,
        });
        self
    }

    /// Mark the old configuration's flows for retirement: deleted after
    /// the drain wave under `PerPacket`, in staging order under
    /// `Relaxed`.
    pub fn retire_flows_by_cookie(&mut self, dpid: Dpid, cookie: u64) -> &mut NetworkUpdate {
        self.ops
            .push(UpdateOp::RetireFlowsByCookie { dpid, cookie });
        self
    }

    /// Mark an old configuration's group for retirement (deleted after
    /// the drain wave under `PerPacket`).
    pub fn retire_group(&mut self, dpid: Dpid, group_id: u32) -> &mut NetworkUpdate {
        self.ops.push(UpdateOp::RetireGroup { dpid, group_id });
        self
    }

    /// Whether nothing was staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The number of distinct switches this update touches.
    pub fn switches_touched(&self) -> usize {
        let mut dpids: Vec<Dpid> = self.ops.iter().map(UpdateOp::dpid).collect();
        dpids.sort_unstable();
        dpids.dedup();
        dpids.len()
    }

    /// Commit the staged batch. `Relaxed` (and single-switch
    /// `PerPacket`) updates are sent immediately; multi-switch
    /// `PerPacket` updates are handed to the controller's update
    /// planner, which drives the two-phase protocol over the following
    /// ticks and reports the outcome through
    /// [`crate::app::App::on_update_committed`] /
    /// [`crate::app::App::on_update_aborted`].
    pub fn commit(self, ctl: &mut crate::controller::Ctl<'_, '_>) {
        ctl.commit_update(self);
    }
}

/// Drain wave after a two-phase update flips its edge rules: packets
/// stamped with the old epoch get this long to exit the network before
/// its rules are garbage-collected.
const TXN_DRAIN: Duration = Duration::from_millis(100);
/// Give-up budget per two-phase transaction phase. A staging
/// transaction past its deadline aborts (a touched switch may be dead
/// and its acks will never come); a flipping one force-advances and
/// leaves the straggler to the resync machinery.
const TXN_DEADLINE: Duration = Duration::from_secs(2);

/// Phase of the active two-phase transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnPhase {
    /// New-epoch internal rules, groups, and meters are in flight,
    /// awaiting barrier acks from every touched switch.
    Staging,
    /// Edge rules stamping the new epoch are in flight.
    Flipping,
    /// Edge flipped; waiting out the drain wave so packets stamped
    /// with the old epoch exit the network before its rules go.
    Draining,
    /// Epoch committed; the old configuration's retire wave is in
    /// flight. The planner stays busy until every retire is
    /// barrier-acked: the next epoch reuses this parity's cookie and
    /// group-id namespace, so a delayed (or duplicated, after a lost
    /// ack) retire must never interleave with its installs.
    Retiring,
}

impl TxnPhase {
    /// What entering the phase records on the control timeline. The
    /// epoch commits as its retire wave goes out.
    fn name(self) -> &'static str {
        match self {
            TxnPhase::Staging => "staging",
            TxnPhase::Flipping => "flipping",
            TxnPhase::Draining => "draining",
            TxnPhase::Retiring => "committed",
        }
    }

    /// How long the phase waits: a drain wave, or the give-up budget.
    fn budget(self) -> Duration {
        match self {
            TxnPhase::Draining => TXN_DRAIN,
            _ => TXN_DEADLINE,
        }
    }
}

/// The in-flight two-phase transaction.
struct ActiveTxn {
    /// The epoch being installed (`config_epoch + 1` at activation).
    epoch: u64,
    phase: TxnPhase,
    /// Submitting app + token, echoed in the completion callbacks.
    owner: &'static str,
    token: u64,
    /// Mod xids of the current phase still awaiting acks.
    outstanding: BTreeSet<u32>,
    /// A tracked xid of the current phase failed (retries exhausted,
    /// TABLE_FULL, superseded by resync or mastership change).
    failed: bool,
    /// When the phase stops waiting: a staging transaction aborts past
    /// it (e.g. a touched switch died and its acks will never come), a
    /// flipping one force-advances (the quarantine/resync machinery
    /// repairs the straggler switch), a draining one has drained, and a
    /// retiring one lets its stragglers go.
    deadline: Instant,
    /// Edge-flow messages held back until the flip.
    flip_msgs: Vec<(Dpid, Message)>,
    /// Old-configuration deletes held back until after the drain.
    retire_msgs: Vec<(Dpid, Message)>,
    /// Footprint staged so far, deleted on abort: cookies of staged
    /// flow adds and ids of staged groups.
    staged_cookies: BTreeSet<(Dpid, u64)>,
    staged_groups: BTreeSet<(Dpid, u32)>,
}

impl ActiveTxn {
    /// Enter `phase` at `now`, sending `mods`.
    fn enter(&mut self, phase: TxnPhase, now: Instant, mods: Vec<(Dpid, Message)>) -> Step {
        self.phase = phase;
        self.deadline = now + phase.budget();
        Step {
            epoch: self.epoch,
            phase: phase.name(),
            mods,
            notice: None,
        }
    }

    /// Tear down a transaction that cannot complete: delete the staged
    /// new-epoch footprint (no packet is stamped with that epoch yet, so
    /// this is invisible to traffic) and notify the owner.
    fn abort(self) -> Step {
        let flows = self
            .staged_cookies
            .into_iter()
            .map(|(dpid, cookie)| UpdateOp::DeleteFlowsByCookie { dpid, cookie });
        let groups = self
            .staged_groups
            .into_iter()
            .map(|(dpid, group_id)| UpdateOp::DeleteGroup { dpid, group_id });
        let (owner, token) = (self.owner, self.token);
        Step {
            epoch: self.epoch,
            phase: "aborted",
            mods: flows.chain(groups).map(UpdateOp::into_message).collect(),
            notice: Some(Notice::Aborted { owner, token }),
        }
    }
}

/// One step of the planner, acted on in field order: record `phase` of
/// `epoch` on the control timeline, send `mods` over the tracked path
/// and hand the xids they took to [`UpdatePlanner::sent`], then make
/// the `notice`'s app callback.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Step {
    pub(crate) epoch: u64,
    pub(crate) phase: &'static str,
    pub(crate) mods: Vec<(Dpid, Message)>,
    pub(crate) notice: Option<Notice>,
}

/// How a transaction came out, for its owner's callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Notice {
    Committed { owner: &'static str, token: u64 },
    Aborted { owner: &'static str, token: u64 },
}

/// The controller's consistent-update planner: a queue of committed
/// [`NetworkUpdate`]s awaiting two-phase installation, at most one
/// active at a time, plus the committed configuration epoch. It is
/// driven by time and acks alone and says what to send in `Step`s;
/// the controller does the sending and the callbacks.
#[derive(Default)]
pub struct UpdatePlanner {
    queue: VecDeque<NetworkUpdate>,
    active: Option<ActiveTxn>,
    config_epoch: u64,
}

impl UpdatePlanner {
    /// The committed configuration epoch (starts at 0; each two-phase
    /// commit increments it).
    pub fn config_epoch(&self) -> u64 {
        self.config_epoch
    }

    /// The epoch the *next* committed two-phase update will install
    /// under. Apps use its parity to pick disjoint cookie/group-id
    /// namespaces for consecutive configurations. A retiring
    /// transaction's epoch is already committed, so it no longer
    /// counts as pending.
    pub fn staged_epoch(&self) -> u64 {
        let pending = self
            .active
            .as_ref()
            .map_or(0, |t| (t.epoch > self.config_epoch) as u64);
        self.config_epoch + 1 + pending + self.queue.len() as u64
    }

    /// Whether a two-phase transaction is active or queued.
    pub fn is_busy(&self) -> bool {
        self.active.is_some() || !self.queue.is_empty()
    }

    /// Queue a committed multi-switch per-packet update.
    pub(crate) fn submit(&mut self, update: NetworkUpdate) {
        self.queue.push_back(update);
    }

    /// Whether the active transaction waits on acks: then every switch
    /// is fenced at once, not a fence interval later.
    pub(crate) fn awaits_acks(&self) -> bool {
        self.active
            .as_ref()
            .is_some_and(|t| !t.outstanding.is_empty())
    }

    /// Resolve a tracked mod xid, so the active transaction's phase gate
    /// advances: `ok` for barrier-acked, `!ok` for failed/superseded.
    /// Called once per mod, by the controller's `settle`, the one place
    /// a tracked mod ends (`southbound::Southbound::ends`).
    pub(crate) fn note_xid(&mut self, xid: u32, ok: bool) {
        if let Some(txn) = self.active.as_mut() {
            if txn.outstanding.remove(&xid) && !ok {
                txn.failed = true;
            }
        }
    }

    /// The xids the last [`Step`]'s mods took: the acks its phase waits
    /// for. A mod to an unknown or non-mastered switch takes none and
    /// so joins no wait set — a dead switch fails a transaction by
    /// deadline, never by wedging it.
    pub(crate) fn sent(&mut self, xids: impl IntoIterator<Item = u32>) {
        if let Some(txn) = self.active.as_mut() {
            txn.outstanding.extend(xids);
        }
    }

    /// The next step at `now`, if there is one: activate the next
    /// queued update when idle, and move the active transaction through
    /// staging → flipping → draining → retiring as its acks arrive and
    /// its deadlines pass. Call until `None`, handing each step's xids
    /// to [`UpdatePlanner::sent`] before the next call. `stats` counts
    /// commits, aborts and flip failures.
    pub(crate) fn step(&mut self, now: Instant, stats: &mut CtlStats) -> Option<Step> {
        loop {
            let Some(txn) = self.active.as_mut() else {
                let update = self.queue.pop_front()?;
                return Some(self.activate(update, now));
            };
            match txn.phase {
                TxnPhase::Staging if txn.failed || now >= txn.deadline => {
                    // A staged mod failed or a touched switch never
                    // acked: the new epoch is not fully installed
                    // anywhere packets could reach it, so undo the
                    // footprint and report the abort.
                    stats.txns_aborted += 1;
                    return self.active.take().map(ActiveTxn::abort);
                }
                TxnPhase::Staging if txn.outstanding.is_empty() => {
                    // Every internal rule is acked: flip the edge.
                    let mods = std::mem::take(&mut txn.flip_msgs);
                    return Some(txn.enter(TxnPhase::Flipping, now, mods));
                }
                TxnPhase::Flipping => {
                    if txn.failed {
                        // A flip mod failed. The new epoch is fully
                        // staged and other edges already stamp it, so
                        // aborting now would be worse than finishing:
                        // count it and leave the straggler edge to the
                        // quarantine/resync machinery.
                        stats.epoch_flip_failures += 1;
                        txn.failed = false;
                    }
                    if !txn.outstanding.is_empty() && now < txn.deadline {
                        return None;
                    }
                    return Some(txn.enter(TxnPhase::Draining, now, Vec::new()));
                }
                TxnPhase::Draining if now >= txn.deadline => {
                    // Old-epoch packets have drained: the epoch is
                    // committed. Send the old configuration's retire
                    // wave, but keep the transaction open until it is
                    // acked — the next epoch reuses this parity's
                    // cookies and group ids, and a retire retransmitted
                    // after a lost ack must never land on top of them.
                    self.config_epoch = txn.epoch;
                    stats.txns_committed += 1;
                    // A flip forced past its deadline leaves its
                    // stragglers here: the retire wave waits on its own.
                    txn.outstanding.clear();
                    let mods = std::mem::take(&mut txn.retire_msgs);
                    let (owner, token) = (txn.owner, txn.token);
                    let step = txn.enter(TxnPhase::Retiring, now, mods);
                    let notice = Some(Notice::Committed { owner, token });
                    return Some(Step { notice, ..step });
                }
                TxnPhase::Retiring => {
                    // Retires are best-effort garbage collection: a
                    // failed one (switch died, resync superseded it)
                    // stops retransmitting and leaves stale rules only
                    // a resync will rebuild anyway — `failed` is not
                    // read here; keep waiting for the rest, they are
                    // still on the wire.
                    if !txn.outstanding.is_empty() && now < txn.deadline {
                        return None;
                    }
                    self.active = None;
                }
                TxnPhase::Staging | TxnPhase::Draining => return None,
            }
        }
    }

    /// Stage `update` under the next epoch: decorate every op, and send
    /// all but the edge flips (held back for the flip) and the retire
    /// ops (held back for after the drain).
    fn activate(&mut self, update: NetworkUpdate, now: Instant) -> Step {
        let epoch = self.config_epoch + 1;
        let tag = epoch_tag(epoch);
        let mut txn = ActiveTxn {
            epoch,
            phase: TxnPhase::Staging,
            owner: update.owner,
            token: update.token,
            outstanding: BTreeSet::new(),
            failed: false,
            deadline: now,
            flip_msgs: Vec::new(),
            retire_msgs: Vec::new(),
            staged_cookies: BTreeSet::new(),
            staged_groups: BTreeSet::new(),
        };
        let mut stage_msgs = Vec::new();
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
                    &mut txn.flip_msgs
                }
                UpdateOp::Flow {
                    dpid, spec, role, ..
                } => {
                    if *role == FlowRole::Internal {
                        spec.matcher.epoch = Some(Some(tag));
                    }
                    txn.staged_cookies.insert((*dpid, spec.cookie));
                    &mut stage_msgs
                }
                UpdateOp::Group { dpid, group_id, .. } => {
                    txn.staged_groups.insert((*dpid, *group_id));
                    &mut stage_msgs
                }
                UpdateOp::RetireFlowsByCookie { .. } | UpdateOp::RetireGroup { .. } => {
                    &mut txn.retire_msgs
                }
                UpdateOp::DeleteFlowsByCookie { .. }
                | UpdateOp::DeleteGroup { .. }
                | UpdateOp::Meter { .. } => &mut stage_msgs,
            };
            batch.push(op.into_message());
        }
        let step = txn.enter(TxnPhase::Staging, now, stage_msgs);
        self.active = Some(txn);
        step
    }
}

#[cfg(test)]
mod tests {
    use zen_dataplane::{FlowMatch, GroupType};

    use super::*;

    const T0: Instant = Instant::from_millis(1_000);
    const NS: Duration = Duration::from_nanos(1);

    /// A two-switch update with one op of every kind: a plain and an
    /// internal flow, a group, a meter and a delete to stage, an edge
    /// flow to flip, and a flow and a group to retire.
    fn update(token: u64) -> NetworkUpdate {
        let spec = |cookie| FlowSpec::new(1, FlowMatch::ANY, vec![]).with_cookie(cookie);
        let mut update = NetworkUpdate::default()
            .per_packet()
            .owned_by("test", token);
        update
            .flow(1, 0, spec(10))
            .flow_as(FlowRole::Internal, 2, 0, spec(11))
            .group(
                1,
                5,
                GroupDesc {
                    group_type: GroupType::Select,
                    buckets: vec![],
                },
            )
            .meter(2, 3, 1_000, 100)
            .delete_flows_by_cookie(2, 8)
            .flow_as(FlowRole::Edge, 2, 0, spec(12))
            .retire_flows_by_cookie(1, 9)
            .retire_group(2, 4);
        update
    }

    /// The flow a mod adds.
    fn added(mod_: &(Dpid, Message)) -> &FlowSpec {
        match &mod_.1 {
            Message::FlowMod {
                cmd: FlowModCmd::Add(spec),
                ..
            } => spec,
            other => panic!("not a flow add: {other:?}"),
        }
    }

    /// A planner with `update(1)` active at `T0`, its five staged mods
    /// sent as xids 1–5.
    fn staging(stats: &mut CtlStats) -> UpdatePlanner {
        let mut planner = UpdatePlanner::default();
        planner.submit(update(1));
        let step = planner.step(T0, stats).expect("activates");
        assert_eq!((step.epoch, step.phase, step.mods.len()), (1, "staging", 5));
        assert_eq!(added(&step.mods[0]).matcher.epoch, None, "plain");
        let internal = added(&step.mods[1]).matcher.epoch;
        assert_eq!(internal, Some(Some(epoch_tag(1))));
        planner.sent(1..=5);
        planner
    }

    /// Acks `xids` and returns the next step at `now`.
    fn ack(planner: &mut UpdatePlanner, xids: &[u32], now: Instant) -> Option<Step> {
        xids.iter().for_each(|&x| planner.note_xid(x, true));
        planner.step(now, &mut CtlStats::default())
    }

    /// What an abort sends: a delete for each staged cookie and group.
    fn undo() -> Vec<(Dpid, Message)> {
        let flows = [(1, 10), (2, 11)].map(|(dpid, cookie)| {
            let cmd = FlowModCmd::DeleteByCookie { cookie };
            (dpid, Message::FlowMod { table_id: 0, cmd })
        });
        let cmd = GroupModCmd::Delete;
        let group = (1, Message::GroupMod { group_id: 5, cmd });
        flows.into_iter().chain([group]).collect()
    }

    #[test]
    fn a_staging_failure_aborts_and_deletes_exactly_what_was_staged() {
        let mut stats = CtlStats::default();
        let mut planner = staging(&mut stats);
        planner.note_xid(1, true);
        assert_eq!(planner.step(T0, &mut stats), None, "still staging");
        planner.note_xid(4, false);
        let step = planner.step(T0, &mut stats).expect("aborts");
        let notice = Some(Notice::Aborted {
            owner: "test",
            token: 1,
        });
        assert_eq!(
            (step.phase, &step.mods, step.notice),
            ("aborted", &undo(), notice)
        );
        assert_eq!((stats.txns_aborted, planner.config_epoch()), (1, 0));
        assert!(!planner.is_busy());
    }

    #[test]
    fn a_passed_staging_deadline_aborts_and_deletes_exactly_what_was_staged() {
        let mut stats = CtlStats::default();
        let mut planner = staging(&mut stats);
        assert_eq!(planner.step(T0 + (TXN_DEADLINE - NS), &mut stats), None);
        let step = planner.step(T0 + TXN_DEADLINE, &mut stats).expect("aborts");
        assert_eq!((step.phase, step.mods), ("aborted", undo()));
        assert_eq!(stats.txns_aborted, 1);
        assert!(!planner.is_busy());
    }

    #[test]
    fn a_flip_failure_is_counted_and_the_flip_goes_on_to_drain() {
        let mut stats = CtlStats::default();
        let mut planner = staging(&mut stats);
        let flip = ack(&mut planner, &[1, 2, 3, 4, 5], T0).expect("flips");
        assert_eq!((flip.phase, flip.mods.len()), ("flipping", 1));
        let stamp = &added(&flip.mods[0]).actions[0];
        assert_eq!(stamp, &Action::SetEpoch(epoch_tag(1)));
        planner.sent([6]);
        planner.note_xid(6, false);
        let step = planner.step(T0, &mut stats).expect("drains");
        assert_eq!((step.phase, step.mods.len()), ("draining", 0));
        assert_eq!((stats.epoch_flip_failures, stats.txns_aborted), (1, 0));
        let commit = planner.step(T0 + TXN_DRAIN, &mut stats).expect("commits");
        assert_eq!((commit.phase, stats.epoch_flip_failures), ("committed", 1));
    }

    #[test]
    fn the_retire_wave_keeps_the_planner_busy_until_acked_or_its_deadline() {
        for acked in [true, false] {
            let mut stats = CtlStats::default();
            let mut planner = staging(&mut stats);
            ack(&mut planner, &[1, 2, 3, 4, 5], T0).expect("flips");
            planner.sent([6]);
            let drain = ack(&mut planner, &[6], T0).expect("drains");
            assert_eq!(drain.phase, "draining");
            assert_eq!(planner.step(T0 + (TXN_DRAIN - NS), &mut stats), None);
            let commit = planner.step(T0 + TXN_DRAIN, &mut stats).expect("commits");
            let notice = Some(Notice::Committed {
                owner: "test",
                token: 1,
            });
            assert_eq!(
                (commit.phase, commit.mods.len(), commit.notice),
                ("committed", 2, notice)
            );
            assert_eq!((stats.txns_committed, planner.config_epoch()), (1, 1));
            planner.sent([7, 8]);
            let retiring = T0 + TXN_DRAIN;
            assert_eq!(ack(&mut planner, &[7], retiring), None);
            assert!(
                planner.is_busy() && planner.awaits_acks(),
                "one retire unacked"
            );
            let done = if acked {
                ack(&mut planner, &[8], retiring)
            } else {
                planner.step(retiring + TXN_DEADLINE, &mut stats)
            };
            assert_eq!(done, None);
            assert!(!planner.is_busy());
        }
    }

    #[test]
    fn staged_epoch_counts_the_active_update_and_every_queued_one() {
        let mut stats = CtlStats::default();
        let mut planner = staging(&mut stats);
        planner.submit(update(2));
        planner.submit(update(3));
        // Epoch 1 is staging; 2 and 3 are queued behind it.
        assert_eq!(planner.staged_epoch(), 4);
        ack(&mut planner, &[1, 2, 3, 4, 5], T0).expect("flips");
        planner.sent([6]);
        ack(&mut planner, &[6], T0).expect("drains");
        planner.step(T0 + TXN_DRAIN, &mut stats).expect("commits");
        // Epoch 1 is committed and retiring: it no longer counts.
        assert_eq!((planner.config_epoch(), planner.staged_epoch()), (1, 4));
        planner.sent([7, 8]);
        let next = ack(&mut planner, &[7, 8], T0 + TXN_DRAIN).expect("activates");
        assert_eq!((next.epoch, next.phase), (2, "staging"));
        assert_eq!(planner.staged_epoch(), 4);
    }
}
