//! # zen-proto — the switch ↔ controller control protocol
//!
//! A binary, length-prefixed protocol in the mould of OpenFlow 1.3,
//! carrying the message set an SDN deployment actually exercises:
//! session setup (HELLO / FEATURES), the reactive path (PACKET_IN /
//! PACKET_OUT), state programming (FLOW_MOD / GROUP_MOD / METER_MOD),
//! asynchronous notifications (PORT_STATUS / FLOW_REMOVED), statistics
//! (STATS_REQUEST / STATS_REPLY), liveness (ECHO), and ordering
//! (BARRIER).
//!
//! Every message is framed as:
//!
//! ```text
//! +---------+--------+----------------+------------+----------------+
//! | version | type   | length (u32)   | xid (u32)  | body ...       |
//! |  1 B    |  1 B   | whole message  | request id |                |
//! +---------+--------+----------------+------------+----------------+
//! ```
//!
//! [`codec`] provides [`codec::encode`] / [`codec::decode`] and
//! [`codec::frames`], which walks the frames of one delivery. Each wire
//! type is described once there, and that description is both its
//! encoder and its decoder. Decoding is total: malformed input yields
//! [`CodecError`], never a panic.
//!
//! Match, action, flow-spec and group types are the native
//! `zen-dataplane` types — the protocol is exactly as expressive as the
//! data plane it programs, as in OpenFlow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;

pub use codec::{
    decode, decode_view, encode, encode_barrier_reply_into, encode_barrier_request_into,
    encode_into, encode_packet_out, encode_packet_out_into, ew_entry_bytes, ew_entry_bytes_into,
    frames, intent_entry_bytes, match_bytes, ActionList, CodecError, MessageView, XidList,
    HEADER_LEN,
};

use zen_dataplane::{FlowMatch, FlowSpec, GroupDesc, PortNo};

/// The protocol version this crate implements.
pub const VERSION: u8 = 1;

/// Description of one switch port in FEATURES_REPLY / PORT_STATUS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortDesc {
    /// The port number.
    pub port_no: PortNo,
    /// Operational state.
    pub up: bool,
}

/// FLOW_MOD sub-commands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowModCmd {
    /// Install (replacing an identical priority+match entry).
    Add(FlowSpec),
    /// Strict delete by (priority, match).
    DeleteStrict {
        /// Entry priority.
        priority: u16,
        /// Entry match.
        matcher: FlowMatch,
    },
    /// Delete every entry carrying a cookie (all tables).
    DeleteByCookie {
        /// The cookie.
        cookie: u64,
    },
}

/// GROUP_MOD sub-commands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupModCmd {
    /// Install or replace a group.
    Add(GroupDesc),
    /// Remove a group.
    Delete,
}

/// METER_MOD sub-commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeterModCmd {
    /// Install or replace: sustained rate and burst.
    Add {
        /// Rate in bits/sec.
        rate_bps: u64,
        /// Burst in bytes.
        burst_bytes: u64,
    },
    /// Remove the meter.
    Delete,
}

/// What a STATS_REQUEST asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsKind {
    /// Per-flow stats of one table (or all with `table_id == 0xff`).
    Flow {
        /// Table selector.
        table_id: u8,
    },
    /// Per-port counters (`port_no == 0` selects all ports).
    Port {
        /// Port selector.
        port_no: PortNo,
    },
    /// Per-table entry counts and hit/miss counters.
    Table,
    /// Flow-cache (microflow/megaflow) effectiveness counters.
    Cache,
}

/// One flow-stats record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowStats {
    /// Table holding the entry.
    pub table_id: u8,
    /// Entry priority.
    pub priority: u16,
    /// Entry cookie.
    pub cookie: u64,
    /// Packets matched.
    pub packets: u64,
    /// Bytes matched.
    pub bytes: u64,
}

/// One port-stats record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortStatsRec {
    /// The port.
    pub port_no: PortNo,
    /// Frames received.
    pub rx_frames: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Frames emitted.
    pub tx_frames: u64,
    /// Bytes emitted.
    pub tx_bytes: u64,
}

/// One table-stats record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStats {
    /// The table.
    pub table_id: u8,
    /// Installed entries.
    pub active: u32,
    /// Configured capacity bound; 0 = unbounded.
    pub max_entries: u32,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Entries displaced by capacity eviction.
    pub evictions: u64,
    /// Adds bounced with `TABLE_FULL` under the refuse policy.
    pub refusals: u64,
}

/// Flow-cache effectiveness counters, as carried on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStatsRec {
    /// Exact-match (microflow) tier hits.
    pub micro_hits: u64,
    /// Wildcard (megaflow) tier hits.
    pub mega_hits: u64,
    /// Slow-path classifications.
    pub misses: u64,
    /// Programs inserted.
    pub inserts: u64,
    /// Whole-cache invalidations.
    pub invalidations: u64,
    /// Microflow-tier capacity evictions (turnover, including megaflow
    /// promotions cycling back out of tier 1).
    pub micro_evictions: u64,
    /// Megaflow-tier capacity evictions (wildcard-tier pressure).
    pub mega_evictions: u64,
    /// Current cache generation.
    pub generation: u64,
    /// Entries resident across both tiers.
    pub entries: u64,
}

/// One entry of the installed-state digest carried by
/// [`Message::HelloResync`]: a cookie and how many flow entries carry it
/// (summed across all tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CookieCount {
    /// The flow cookie.
    pub cookie: u64,
    /// Installed entries carrying it.
    pub count: u32,
}

/// A STATS_REPLY body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsBody {
    /// Flow records.
    Flow(Vec<FlowStats>),
    /// Port records.
    Port(Vec<PortStatsRec>),
    /// Table records.
    Table(Vec<TableStats>),
    /// Flow-cache counters.
    Cache(CacheStatsRec),
}

/// Why a FLOW_REMOVED was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemovedReason {
    /// Idle timeout.
    IdleTimeout,
    /// Hard timeout.
    HardTimeout,
    /// Controller delete.
    Delete,
    /// Displaced by a capacity eviction (table-full, evict policy).
    Eviction,
}

impl From<zen_dataplane::RemovedReason> for RemovedReason {
    fn from(value: zen_dataplane::RemovedReason) -> RemovedReason {
        match value {
            zen_dataplane::RemovedReason::IdleTimeout => RemovedReason::IdleTimeout,
            zen_dataplane::RemovedReason::HardTimeout => RemovedReason::HardTimeout,
            zen_dataplane::RemovedReason::Delete => RemovedReason::Delete,
            zen_dataplane::RemovedReason::Eviction => RemovedReason::Eviction,
        }
    }
}

/// Error codes carried by [`Message::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Version negotiation failed.
    HelloFailed,
    /// The request was understood but invalid (bad table, bad group...).
    BadRequest,
    /// The switch cannot satisfy the request (table full under the
    /// refuse overflow policy). The diagnostic bytes carry the bounced
    /// flow-mod's xid (big-endian u32) so the sender can retire it from
    /// its pending-mod table instead of retransmitting forever.
    TableFull,
    /// A state mod arrived on a connection that does not hold the
    /// Master role for this switch. The diagnostic bytes carry the
    /// offending request's xid (big-endian u32) so the sender can
    /// reconcile its pending-mod table.
    NotMaster,
}

/// The role a controller connection holds toward a switch, as in
/// OpenFlow's OFPT_ROLE_REQUEST. Exactly one connection may be Master;
/// Equals receive asynchronous messages and may inject packets but may
/// not mutate state; Slaves get synchronous replies only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// Full control: state mods accepted, async messages delivered.
    Master,
    /// Read-mostly: stats and packet-out allowed, mods rejected.
    Equal,
    /// Standby: synchronous request/reply only.
    Slave,
}

/// One replicated network-view mutation, gossiped between controller
/// replicas (the east-west interface). Events carry enough to rebuild
/// the shared portions of a `NetworkView`-like store; switch liveness
/// and port state are *not* replicated because every replica observes
/// them first-hand over its own switch connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewEvent {
    /// A directed link was discovered (LLDP confirmed).
    LinkAdd {
        /// Source datapath id.
        from_dpid: u64,
        /// Source port.
        from_port: PortNo,
        /// Destination datapath id.
        to_dpid: u64,
        /// Destination port.
        to_port: PortNo,
    },
    /// A directed link lapsed or was torn down.
    LinkDel {
        /// Source datapath id.
        from_dpid: u64,
        /// Source port.
        from_port: PortNo,
    },
    /// A host was located at an edge port.
    HostLearned {
        /// Host MAC.
        mac: zen_wire::EthernetAddress,
        /// Attachment switch.
        dpid: u64,
        /// Attachment port.
        port: PortNo,
        /// Host IP, if observed.
        ip: Option<zen_wire::Ipv4Address>,
    },
    /// The master's cookie shadow for one switch (full replacement), so
    /// a standby taking over can diff-resync without re-flooding.
    ShadowSet {
        /// The switch.
        dpid: u64,
        /// Per-cookie installed flow-entry counts, ascending by cookie.
        cookies: Vec<CookieCount>,
    },
    /// A content stamp for one application's programming of one switch
    /// (a hash of the desired flow/group state). A replica gaining
    /// mastership compares the stamp against its own computed desired
    /// state and reprograms only on mismatch.
    ProgramStamp {
        /// The switch.
        dpid: u64,
        /// The application cookie the stamp belongs to.
        cookie: u64,
        /// Hash of the desired per-switch program.
        hash: u64,
    },
}

/// One entry of a replica's monotonic event log: the origin replica,
/// its per-origin sequence number, and the mastership term it was
/// logged under. `(term, seq, origin)` orders concurrent writes to the
/// same key last-writer-wins, as in ONOS's eventually-consistent maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EwEntry {
    /// Index of the replica that logged the event.
    pub origin: u32,
    /// Position in the origin's log (1-based, contiguous).
    pub seq: u64,
    /// Mastership term at the origin when logged.
    pub term: u64,
    /// The mutation itself.
    pub event: ViewEvent,
}

/// One summary line of a replica's per-origin log position, carried by
/// [`Message::EwDigest`] and [`Message::EwSnapshot`]: the retention
/// floor (entries at or below it are pruned), the applied head, and the
/// rolling chain hash over the origin's log up to the head. Two
/// replicas with equal `(head, hash)` hold byte-identical logs for that
/// origin; a peer whose head is behind fetches exactly the missing
/// range, and a hash mismatch at an equal head flags divergence worth a
/// snapshot resync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OriginHead {
    /// The origin replica the summary describes.
    pub origin: u32,
    /// Seqs at or below this are pruned at the sender.
    pub floor: u64,
    /// Highest contiguous seq the sender has applied from the origin.
    pub head: u64,
    /// Rolling chain hash over entries `1..=head`.
    pub hash: u64,
}

/// A linearizable mutation carried by the replicated intent log — the
/// few control-plane writes that must not ride the eventually
/// consistent event store (see `zen-consensus`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Intent {
    /// A leader barrier appended on activation: committing it commits
    /// every earlier-term entry beneath it (the Raft no-op). Never
    /// proposed by applications.
    Noop,
    /// Install (or withdraw) a network-wide ACL deny rule.
    AclDeny {
        /// Rule priority.
        priority: u16,
        /// The traffic to deny.
        matcher: FlowMatch,
        /// `true` installs the deny, `false` withdraws it.
        install: bool,
    },
    /// Pin (or unpin) mastership of one switch to a replica, overriding
    /// the deterministic assignment while the pinned replica is alive.
    MastershipPin {
        /// The switch.
        dpid: u64,
        /// The replica to pin mastership to.
        replica: u32,
        /// `true` pins, `false` releases the pin.
        pinned: bool,
    },
}

/// One entry of the replicated intent log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntentEntry {
    /// Position in the replicated log (1-based, contiguous).
    pub index: u64,
    /// Leader term the entry was appended under.
    pub term: u64,
    /// Replica that proposed the intent (receives the commit callback).
    pub origin: u32,
    /// Proposer-chosen token identifying the proposal (0 for no-ops).
    pub token: u64,
    /// The intent itself.
    pub intent: Intent,
}

/// A control-channel message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Session start; carries the sender's version.
    Hello {
        /// Highest protocol version the sender speaks.
        version: u8,
    },
    /// An error notification referencing the offending request's xid.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Optional diagnostic bytes.
        data: Vec<u8>,
    },
    /// Liveness probe.
    EchoRequest {
        /// Opaque token echoed back.
        token: u64,
    },
    /// Liveness response.
    EchoReply {
        /// The probed token.
        token: u64,
    },
    /// Ask the switch to describe itself.
    FeaturesRequest,
    /// The switch's self-description.
    FeaturesReply {
        /// Datapath id.
        dpid: u64,
        /// Number of flow tables.
        n_tables: u8,
        /// The switch's ports.
        ports: Vec<PortDesc>,
    },
    /// A frame punted to the controller.
    PacketIn {
        /// Ingress port.
        in_port: PortNo,
        /// Table that punted it.
        table_id: u8,
        /// `true` if punted by table miss, `false` if by action.
        is_miss: bool,
        /// The (possibly truncated) frame.
        frame: Vec<u8>,
    },
    /// A frame the controller injects into the data plane.
    PacketOut {
        /// Treat the frame as if received on this port (0 = none).
        in_port: PortNo,
        /// Actions to run on it.
        actions: Vec<zen_dataplane::Action>,
        /// The frame.
        frame: Vec<u8>,
    },
    /// Program a flow table.
    FlowMod {
        /// Target table.
        table_id: u8,
        /// The command.
        cmd: FlowModCmd,
    },
    /// Program the group table.
    GroupMod {
        /// Target group id.
        group_id: u32,
        /// The command.
        cmd: GroupModCmd,
    },
    /// Program a meter.
    MeterMod {
        /// Target meter id.
        meter_id: u32,
        /// The command.
        cmd: MeterModCmd,
    },
    /// A port changed operational state.
    PortStatus {
        /// The port description after the change.
        port: PortDesc,
    },
    /// An entry was evicted or deleted.
    FlowRemoved {
        /// Table it lived in.
        table_id: u8,
        /// Its priority.
        priority: u16,
        /// Its cookie.
        cookie: u64,
        /// Why it went away.
        reason: RemovedReason,
        /// Lifetime packet count.
        packets: u64,
        /// Lifetime byte count.
        bytes: u64,
    },
    /// Fence: the switch answers after all prior messages took effect.
    ///
    /// Carries the xids of the state mods the fence covers: on an
    /// unreliable channel, "the barrier came back" does not prove the
    /// mods sent before it arrived, so the reply reports which of the
    /// covered xids the switch actually applied.
    BarrierRequest {
        /// Xids of the unacknowledged mods this fence covers.
        xids: Vec<u32>,
    },
    /// Fence acknowledgement.
    BarrierReply {
        /// The subset of the request's xids the switch has applied.
        /// Anything missing was lost in transit and needs resending.
        applied: Vec<u32>,
    },
    /// Ask for statistics.
    StatsRequest {
        /// Which statistics.
        kind: StatsKind,
    },
    /// Statistics response.
    StatsReply {
        /// The records.
        body: StatsBody,
    },
    /// Reconnect handshake: after a control-channel outage the switch
    /// reports a digest of its installed flow state (per-cookie entry
    /// counts plus a mutation generation) so the controller can
    /// diff-resync instead of blindly reinstalling everything.
    HelloResync {
        /// Monotonic count of state-mutating mods the switch has
        /// applied since boot; two digests with equal generations
        /// describe identical state.
        generation: u64,
        /// Per-cookie installed flow-entry counts, ascending by cookie.
        cookies: Vec<CookieCount>,
    },
    /// Controller asks a switch for a fresh [`Message::HelloResync`].
    ResyncRequest,
    /// A controller claims a role for this switch connection, carrying
    /// its mastership term and replica index; the highest `(term,
    /// replica)` claim wins a contested mastership.
    RoleRequest {
        /// The requested role.
        role: Role,
        /// The claimant's mastership term.
        term: u64,
        /// The claimant's replica index.
        replica: u32,
    },
    /// The switch's answer to a [`Message::RoleRequest`]: the role
    /// actually granted and the `(term, replica)` of the connection
    /// currently holding Master, so a losing claimant learns who
    /// outranked it.
    RoleReply {
        /// The granted role.
        role: Role,
        /// Current master's term.
        term: u64,
        /// Current master's replica index.
        replica: u32,
    },
    /// A batch of east-west log entries, contiguous per origin.
    EwEvents {
        /// Sender's replica index.
        replica: u32,
        /// The entries, ascending by seq.
        entries: Vec<EwEntry>,
    },
    /// East-west keepalive and anti-entropy summary between replicas:
    /// the sender's identity, mastership term, and per-origin log heads
    /// and chain hashes. A peer counts it as life, takes each head as
    /// an ack (the chain hash vouches that the sender holds everything
    /// up to it), and pulls exactly the missing ranges with
    /// [`Message::EwFetch`].
    EwDigest {
        /// Sender's replica index.
        replica: u32,
        /// Sender's mastership term.
        term: u64,
        /// One summary per origin, ascending by origin.
        heads: Vec<OriginHead>,
    },
    /// Pull request for east-west log ranges a digest showed missing.
    /// The range `(origin, 0, 0)` asks for a full snapshot (bootstrap,
    /// or divergence detected by a chain-hash mismatch).
    EwFetch {
        /// Sender's replica index.
        replica: u32,
        /// `(origin, from_seq, to_seq)` inclusive ranges to resend.
        ranges: Vec<(u32, u64, u64)>,
    },
    /// A checksummed snapshot of the winning east-west writes: the
    /// per-origin heads being installed plus one entry per logical key
    /// (the current last-writer-wins state). Serves bootstrap and
    /// requests below the sender's retention floor, replacing a full
    /// log replay with a state transfer.
    EwSnapshot {
        /// Sender's replica index.
        replica: u32,
        /// Per-origin heads the snapshot advances the receiver to.
        heads: Vec<OriginHead>,
        /// The winning entry per logical key, in key order.
        entries: Vec<EwEntry>,
        /// Chain hash over `entries`, for integrity.
        checksum: u64,
    },
    /// Forward an intent proposal to the current consensus leader.
    IntentPropose {
        /// Proposing replica's index.
        replica: u32,
        /// Proposer-chosen token (echoed in the commit callback).
        token: u64,
        /// The proposed intent.
        intent: Intent,
    },
    /// Leader-to-follower intent-log replication (also the consensus
    /// heartbeat): entries after `(prev_index, prev_term)` plus the
    /// leader's commit index.
    IntentAppend {
        /// The leader's replica index.
        leader: u32,
        /// The leader's term.
        term: u64,
        /// Index of the entry immediately before `entries`.
        prev_index: u64,
        /// Term of the entry at `prev_index`.
        prev_term: u64,
        /// The leader's commit index.
        commit: u64,
        /// Entries to append, ascending by index.
        entries: Vec<IntentEntry>,
    },
    /// Follower response to [`Message::IntentAppend`].
    IntentAck {
        /// The follower's replica index.
        replica: u32,
        /// The follower's term (a higher term steps the leader down).
        term: u64,
        /// On success: highest index now matching the leader's log. On
        /// failure: the follower's commit index, as a resend hint.
        match_index: u64,
        /// Whether the consistency check at `prev_index` passed.
        success: bool,
    },
    /// Pull a peer's intent-log suffix: a freshly elected leader syncs
    /// from a majority before activating, so every committed entry
    /// survives the failover.
    IntentFetch {
        /// The fetching replica's index.
        replica: u32,
        /// The fetcher's term.
        term: u64,
        /// Return entries with index strictly above this.
        from_index: u64,
    },
    /// Intent-log state transfer, serving both fetch replies and
    /// snapshot installs to followers behind the leader's retention
    /// floor. When `snap_index > 0` the receiver first installs the
    /// materialized committed state (`snap_state`) at that index, then
    /// appends `entries`.
    IntentCatchup {
        /// Sending replica's index.
        replica: u32,
        /// Sender's term.
        term: u64,
        /// Index the snapshot state materializes (0 = no snapshot).
        snap_index: u64,
        /// Term of the entry at `snap_index`.
        snap_term: u64,
        /// The active committed entries at `snap_index`, in key order.
        snap_state: Vec<IntentEntry>,
        /// Every committed `(origin, token)` pair at `snap_index`,
        /// ascending — including tokens of entries later superseded or
        /// withdrawn, which `snap_state` alone cannot reconstruct. The
        /// installer adopts these for at-most-once proposal dedup.
        snap_tokens: Vec<(u32, u64)>,
        /// Log entries above the snapshot (or above the fetch point).
        entries: Vec<IntentEntry>,
        /// Sender's commit index.
        commit: u64,
        /// Chain hash over `snap_tokens`, `snap_state`, and `entries`,
        /// for integrity.
        checksum: u64,
    },
}
