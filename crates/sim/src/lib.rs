//! # zen-sim — a deterministic discrete-event network simulator
//!
//! The substrate every `zen` experiment runs on. Instead of a hardware
//! testbed, `zen` evaluates its SDN stack (and the distributed baselines
//! it is compared against) on a simulator with:
//!
//! * **Byte-accurate links** — propagation delay plus serialization at
//!   line rate, with finite drop-tail egress queues and administrative
//!   up/down state ([`world::LinkParams`], [`world::Link`]).
//! * **An out-of-band control channel** — switch↔controller messages
//!   travel on a modelled management network with configurable latency
//!   ([`world::Context::send_control`]).
//! * **Full determinism** — a run is a pure function of configuration and
//!   seed; the event queue breaks ties by sequence number and the crate
//!   ships its own PRNG ([`rng::Rng`]) so results cannot drift with
//!   dependency upgrades.
//! * **Deterministic fault injection** — a seeded, schedulable
//!   [`fault::FaultPlan`] of control-channel loss, partitions, message
//!   duplication and lossy links, replayable from the world seed.
//! * **Standard topologies** — fat-trees, lines, rings, stars and the
//!   Abilene and B4-style WANs ([`topo::Topology`]).
//! * **Instrumented hosts** — ARP, ICMP echo, and timestamped UDP probe
//!   flows that measure one-way latency and loss in-band, plus the attacks
//!   a compromised host mounts on the control plane: PACKET_IN floods, ARP
//!   broadcast storms and MAC flapping ([`host::Host`], [`host::Workload`]).
//!
//! Nodes implement [`world::Node`] and interact with the world only
//! through [`world::Context`], which keeps every interaction observable
//! and replayable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod host;
pub mod ports;
mod queue;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;
pub mod topo;
pub mod world;

pub use fault::{FaultPlan, Scope, Window};
pub use host::{Host, Workload};
pub use ports::PortTable;
pub use rng::Rng;
pub use shard::{ShardCtx, ShardNode, ShardedWorld};
pub use stats::{Counter, CounterId, Histogram, HistogramId, Metrics};
pub use time::{Duration, Instant};
pub use topo::{FatTreeIndex, Topology};
pub use world::{Context, Link, LinkId, LinkParams, Node, NodeId, PortNo, World};
