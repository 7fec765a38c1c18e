//! # zen-core — the network operating system
//!
//! The centerpiece of the `zen` platform: a logically centralized
//! controller in the mould of ONOS/Ryu, layered exactly like the systems
//! it models:
//!
//! * **Southbound** — [`agent::SwitchAgent`] runs on each switch,
//!   embedding the `zen-dataplane` pipeline and speaking the `zen-proto`
//!   control protocol over the simulator's out-of-band control channel.
//! * **Core** — [`controller::Controller`] terminates switch sessions,
//!   discovers topology with LLDP round trips, tracks host locations
//!   from punted edge traffic, and maintains the queryable
//!   [`view::NetworkView`].
//! * **Northbound** — applications implement [`app::App`] and compose in
//!   a dispatch chain: [`apps::L2Learning`], [`apps::ReactiveForwarding`],
//!   [`apps::ProactiveFabric`] (ECMP fabrics), [`apps::Acl`], and
//!   [`apps::TrafficEngineering`] (B4-style WAN TE over VLAN tunnels).
//!
//! [`harness`] builds whole fabrics (switches + controller + hosts) from
//! `zen-sim` topologies, so examples, tests and benchmarks construct
//! networks identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
pub mod agent;
mod agent_node;
pub mod app;
pub mod apps;
pub mod cbench;
pub mod controller;
mod controller_node;
mod ctl;
pub mod harness;
pub mod policy;
mod replica;
pub mod shard_fabric;
pub mod snapshot;
mod southbound;
pub mod txn;
pub mod view;

pub use admission::{AdmissionConfig, PUSHBACK_COOKIE, PUSHBACK_IMPORTANCE, PUSHBACK_PRIORITY};
pub use agent::{AgentConfig, ConnLossPolicy, ConnState, PuntMeterConfig, SwitchAgent};
pub use app::{App, Disposition};
pub use cbench::{CbenchConfig, CbenchMode, CbenchStats, CbenchSwitch};
pub use controller::{Controller, ControllerConfig, Ctl, CtlStats};
pub use harness::{
    build_cluster_fabric, build_cluster_fabric_with_hosts, build_fabric, build_fabric_with_hosts,
    Fabric, FabricOptions,
};
pub use shard_fabric::{build_shard_fat_tree, ShardFabric, ShardSwitch, ShardTrafficHost};
pub use snapshot::export_jsonl;
pub use southbound::{flows_stamp, ProgramBase, Reconciled};
pub use txn::{Consistency, NetworkUpdate, UpdatePlanner};
pub use view::{Dpid, HostEntry, NetworkView, SwitchInfo};

/// Whether `frame` is an LLDP discovery probe, by its EtherType.
pub(crate) fn is_lldp(frame: &[u8]) -> bool {
    frame.len() >= 14 && frame[12..14] == [0x88, 0xcc]
}

/// What either protocol end asks of its node: a channel to each peer, timers,
/// the flight recorder and the counters ([`agent::SwitchIo`] adds ports). Each
/// end calls it the moment it decides: a fault plan draws per message.
pub trait ControlIo {
    /// Write one message to node `to`: `put`, called once, appends it.
    fn send_control_with(&mut self, to: zen_sim::NodeId, put: &mut dyn FnMut(&mut Vec<u8>));
    /// Hand `token` back to the end's `timer` after `delay`.
    fn set_timer(&mut self, delay: zen_sim::Duration, token: u64);
    /// The flight recorder trace events go to.
    fn recorder(&self) -> &zen_telemetry::Recorder;
    /// The registry counters are kept in.
    fn metrics(&mut self) -> &mut zen_sim::Metrics;
}
