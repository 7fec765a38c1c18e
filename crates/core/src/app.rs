//! The application framework: controller behaviour is composed from
//! apps dispatched in chain order (Ryu/ONOS style).

use zen_dataplane::PortNo;
use zen_proto::{CacheStatsRec, FlowStats, Intent, PortStatsRec, TableStats};

use crate::controller::Ctl;
use crate::view::Dpid;

/// What an app decided about a PACKET_IN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Pass the event to the next app in the chain.
    Continue,
    /// The packet is dealt with; stop the chain.
    Handled,
}

/// A controller application.
///
/// All methods have no-op defaults; implement the events you care
/// about. Apps interact with the network exclusively through
/// [`Ctl`] — typed wrappers over control-protocol messages — so
/// everything an app does is observable control-channel traffic.
#[allow(unused_variables)]
pub trait App: 'static {
    /// A short name for logs and diagnostics.
    fn name(&self) -> &'static str;

    /// A switch completed its handshake.
    fn on_switch_up(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid) {}

    /// A non-LLDP frame was punted to the controller.
    fn on_packet_in(
        &mut self,
        ctl: &mut Ctl<'_, '_>,
        dpid: Dpid,
        in_port: PortNo,
        frame: &[u8],
    ) -> Disposition {
        Disposition::Continue
    }

    /// A switch port changed state (the view is already updated).
    fn on_port_status(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid, port: PortNo, up: bool) {}

    /// A switch bounced one of this controller's flow adds with a
    /// TABLE_FULL error (refuse overflow policy). The offending mod has
    /// already been retired from the pending table; reactive apps
    /// should back off installs toward `dpid` and/or shorten timeouts
    /// so the table drains.
    fn on_table_full(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid) {}

    /// A flow entry was evicted or deleted.
    fn on_flow_removed(
        &mut self,
        ctl: &mut Ctl<'_, '_>,
        dpid: Dpid,
        table_id: u8,
        priority: u16,
        cookie: u64,
    ) {
    }

    /// A port-statistics reply arrived.
    fn on_port_stats(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid, records: &[PortStatsRec]) {}

    /// A table-statistics reply arrived.
    fn on_table_stats(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid, records: &[TableStats]) {}

    /// A flow-statistics reply arrived (per-entry packet/byte counters).
    fn on_flow_stats(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid, records: &[FlowStats]) {}

    /// A datapath-cache statistics reply arrived.
    fn on_cache_stats(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid, record: &CacheStatsRec) {}

    /// A switch may not hold what the controller believes: it
    /// reconnected reporting other flow state or a reboot (see
    /// [`zen_proto::Message::HelloResync`]), a program mod never
    /// reached it, or a peer replica that presumed this one dead may
    /// have programmed it. Apps owning proactive state on the switch
    /// should bring it back ([`Ctl::reconcile`] knows how much that
    /// takes); the view has already been unquarantined.
    fn on_switch_resync(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid) {}

    /// This replica's mastership over a switch changed (clustered
    /// controllers only). On gain, the replica has already re-asserted
    /// its role at the switch and requested a resync; apps owning
    /// proactive state hand their desired program to
    /// [`Ctl::reconcile`], which compares it against the stamp the
    /// previous master replicated and loads the switch only on
    /// mismatch — an unconditional reload would re-flood every orphaned
    /// switch on failover.
    fn on_mastership_change(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid, is_master: bool) {}

    /// A cluster-wide intent committed through the replicated log (or
    /// locally when not clustered) — the linearizable counterpart to
    /// the eventually consistent view replication. Fires at most once
    /// per intent on every replica, in commit order; apps holding
    /// switch state derived from intents (network-wide ACL rules,
    /// pinned mastership) materialize it here. Proposed via
    /// [`Ctl::propose_intent`]. A replica that rejoins past the
    /// leader's compaction floor does **not** replay individual
    /// commits: it receives one [`App::on_intent_snapshot`] instead.
    fn on_intent_committed(&mut self, ctl: &mut Ctl<'_, '_>, intent: &Intent) {}

    /// The replicated intent state was replaced wholesale by a
    /// snapshot install (this replica rejoined past the leader's
    /// compaction floor). `intents` is the full active set — the
    /// latest committed install per key; withdrawn state is simply
    /// absent. Apps deriving state from intents must **rebuild** from
    /// this set, replacing rather than patching their materialization:
    /// incremental replay cannot retract state whose withdrawal the
    /// snapshot compacted away. [`App::on_intent_committed`] does not
    /// fire for these entries.
    fn on_intent_snapshot(&mut self, ctl: &mut Ctl<'_, '_>, intents: &[Intent]) {}

    /// A two-phase [`crate::txn::NetworkUpdate`] this app committed
    /// (identified by the `owner`/`token` it passed to
    /// [`crate::txn::NetworkUpdate::owned_by`]) finished its drain wave:
    /// every packet now traverses the new configuration.
    fn on_update_committed(&mut self, ctl: &mut Ctl<'_, '_>, owner: &'static str, token: u64) {}

    /// A two-phase [`crate::txn::NetworkUpdate`] was aborted (staging
    /// failure or deadline): its staged rules have been deleted and the
    /// old configuration still carries all traffic. The owner may
    /// re-stage.
    fn on_update_aborted(&mut self, ctl: &mut Ctl<'_, '_>, owner: &'static str, token: u64) {}

    /// The periodic controller tick (also the discovery cadence).
    fn tick(&mut self, ctl: &mut Ctl<'_, '_>) {}

    /// Downcast support for post-run inspection.
    fn as_any(&self) -> &dyn std::any::Any;
}
