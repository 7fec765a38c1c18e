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

use std::collections::VecDeque;

use zen_dataplane::{FlowSpec, GroupDesc};
use zen_proto::{FlowModCmd, GroupModCmd, Message, MeterModCmd};
use zen_sim::Instant;

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

/// Phase of the active two-phase transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxnPhase {
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
    pub(crate) fn name(self) -> &'static str {
        match self {
            TxnPhase::Staging => "staging",
            TxnPhase::Flipping => "flipping",
            TxnPhase::Draining => "draining",
            TxnPhase::Retiring => "retiring",
        }
    }
}

/// The in-flight two-phase transaction.
pub(crate) struct ActiveTxn {
    /// The epoch being installed (`config_epoch + 1` at activation).
    pub epoch: u64,
    pub phase: TxnPhase,
    /// Submitting app + token, echoed in the completion callbacks.
    pub owner: &'static str,
    pub token: u64,
    /// Mod xids of the current phase still awaiting acks.
    pub outstanding: std::collections::BTreeSet<u32>,
    /// A tracked xid of the current phase failed (retries exhausted,
    /// TABLE_FULL, superseded by resync or mastership change).
    pub failed: bool,
    /// Give-up time: a staging transaction aborts past this (e.g. a
    /// touched switch died and its acks will never come); a flipping
    /// one force-advances (the quarantine/resync machinery repairs the
    /// straggler switch).
    pub deadline: Instant,
    /// End of the drain wave (set when entering `Draining`).
    pub drain_until: Instant,
    /// Edge-flow messages held back until the flip.
    pub flip_msgs: Vec<(Dpid, zen_proto::Message)>,
    /// Old-configuration deletes held back until after the drain.
    pub retire_msgs: Vec<(Dpid, zen_proto::Message)>,
    /// Footprint staged so far, deleted on abort: cookies of staged
    /// flow adds and ids of staged groups.
    pub staged_cookies: std::collections::BTreeSet<(Dpid, u64)>,
    pub staged_groups: std::collections::BTreeSet<(Dpid, u32)>,
}

/// The controller's consistent-update planner: a queue of committed
/// [`NetworkUpdate`]s awaiting two-phase installation, at most one
/// active at a time, plus the committed configuration epoch.
#[derive(Default)]
pub struct UpdatePlanner {
    pub(crate) queue: VecDeque<NetworkUpdate>,
    pub(crate) active: Option<ActiveTxn>,
    pub(crate) config_epoch: u64,
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

    /// Resolve a tracked mod xid: `ok` for barrier-acked, `!ok` for
    /// failed/superseded. Called from every site that retires a
    /// pending mod so the active transaction's phase gate advances.
    pub(crate) fn note_xid(&mut self, xid: u32, ok: bool) {
        if let Some(txn) = self.active.as_mut() {
            if txn.outstanding.remove(&xid) && !ok {
                txn.failed = true;
            }
        }
    }
}
