//! # zen-telemetry — causal flight recorder and deterministic export
//!
//! Observability layer for the zen stack. Three pieces:
//!
//! * **Trace identity** ([`trace`]): every workload probe carries a
//!   self-describing header; any component holding the frame (or a
//!   punt-truncated copy of it) can derive the same stable [`TraceId`]
//!   without coordination.
//! * **Flight recorder** ([`recorder`]): a bounded ring of causal
//!   [`TraceEvent`]s — host emit, link transmit, datapath cache tier,
//!   punt, app dispatch, flow-mod send/apply/ack, host receive — shared
//!   by every layer via cheap handle clones. Disabled, it costs one
//!   branch per tap point.
//! * **Deterministic JSON-lines** ([`json`]): hand-rolled emission with
//!   pinned formatting so that a fixed-seed run exports byte-identical
//!   telemetry, making snapshots diffable across runs, seeds, and PRs.
//!
//! The simulator world owns the canonical [`Recorder`] and clones it into
//! datapaths, the controller, and hosts at fabric-build time. Nothing in
//! it reads the host clock: every timestamp and span is simulated time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod recorder;
pub mod trace;

pub use recorder::{CacheTier, LoopSpan, Recorder, TraceEvent, TraceRecord};
pub use trace::{control_trace, probe_trace_id, trace_id_for_frame, TraceId, PROBE_MAGIC};
