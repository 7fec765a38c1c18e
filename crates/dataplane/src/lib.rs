//! # zen-dataplane — a programmable match-action forwarding plane
//!
//! The abstract machine of an OpenFlow 1.3-class switch (the role Open
//! vSwitch or a fixed-function ASIC plays in a deployed SDN), implemented
//! as a pure state machine with no I/O of its own:
//!
//! * [`key::FlowKey`] — header fields extracted from a frame once, then
//!   matched against.
//! * [`matching::FlowMatch`] — wildcardable match over in-port, Ethernet,
//!   VLAN, IPv4 (with prefix masks), and L4 ports.
//! * [`action::Action`] — output, flood, punt-to-controller, header
//!   rewrites (with checksum repair), VLAN push/pop, group, meter.
//! * [`table::FlowTable`] — priority-ordered entries with idle/hard
//!   timeouts and per-entry counters.
//! * [`group::GroupTable`] — ALL (replicate), SELECT (ECMP by flow
//!   hash), and FAST-FAILOVER (first live bucket) groups.
//! * [`meter::Meter`] — token-bucket rate limiters.
//! * [`cache::FlowCache`] — OVS-style two-tier (microflow/megaflow)
//!   classification cache in front of the table walk.
//! * [`datapath::Datapath`] — the multi-table pipeline tying it all
//!   together: `process(now, port, frame) → effects`.
//!
//! Embedding: a simulator node (or a real I/O loop) feeds frames in and
//! executes the returned [`datapath::Effect`]s; the control plane mutates
//! tables through the same typed API the `zen-proto` FLOW_MOD decoder
//! calls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod cache;
pub mod datapath;
pub mod epoch;
pub mod group;
pub mod hash;
pub mod key;
pub mod matching;
pub mod meter;
pub mod table;

pub use action::Action;
pub use cache::{CacheStats, FlowCache, Program, Segment};
pub use datapath::{Datapath, Effect, MissPolicy};
pub use epoch::{epoch_tag, is_epoch_tag, EPOCH_TAG_BASE, EPOCH_TAG_SPAN};
pub use group::{Bucket, GroupDesc, GroupTable, GroupType};
pub use key::FlowKey;
pub use matching::{FlowMatch, KeyMask};
pub use meter::Meter;
pub use table::{AddOutcome, FlowEntry, FlowSpec, FlowTable, OverflowPolicy, RemovedReason};

/// A switch port number (1-based; 0 is reserved).
pub type PortNo = u32;

/// A datapath (switch) identifier.
pub type DatapathId = u64;

/// Simulation-time in nanoseconds. The data plane is time-agnostic apart
/// from timeouts and meters, so it takes plain nanosecond counts rather
/// than depending on a clock.
pub type Nanos = u64;
