//! Binary encoding and decoding of control messages.
//!
//! Integers are big-endian. Decoding is bounds-checked everywhere and
//! returns [`CodecError`] on any malformation; every error names the
//! field and byte offset that failed, so a corrupt frame is debuggable
//! from the error alone.
//!
//! Decoding is zero-copy on the hot path: [`decode_view`] yields a
//! [`MessageView`] whose bulk byte payloads (PACKET_IN / PACKET_OUT
//! frames, ERROR data) are slices **borrowing the receive buffer** —
//! no allocation, no memcpy. Structured messages (flow mods, stats,
//! …) decode to owned values inside [`MessageView::Owned`]: they carry
//! no bulk bytes, and their consumers need ownership anyway. The
//! compatibility wrapper [`decode`] materializes a fully owned
//! [`Message`] when the caller wants to keep it past the buffer.
//!
//! Every wire type is described once, in the tables below: a struct by
//! its fields in wire order, an enum by its tag width, the field name
//! its errors carry and one row per tag, a message by its type id and
//! fields. Each description generates both the writer and the reader
//! (and, for messages, [`Message::type_id`]), so the two cannot drift
//! apart.

use zen_dataplane::{Action, Bucket, FlowMatch, FlowSpec, GroupDesc, GroupType, PortNo};
use zen_wire::{EthernetAddress, Ipv4Address, Ipv4Cidr};

use crate::{
    CacheStatsRec, CookieCount, ErrorCode, EwEntry, FlowModCmd, FlowStats, GroupModCmd, Intent,
    IntentEntry, Message, MeterModCmd, OriginHead, PortDesc, PortStatsRec, RemovedReason, Role,
    StatsBody, StatsKind, TableStats, ViewEvent, VERSION,
};

/// The fixed message header length: version, type, length (u32), xid.
pub const HEADER_LEN: usize = 1 + 1 + 4 + 4;

/// Decoding errors. Offsets are absolute frame offsets (0 = the
/// version byte), so an error locates the exact bad byte on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the structure requires.
    Truncated {
        /// Frame offset where the read started.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available from `offset`.
        available: usize,
    },
    /// The version byte is not [`VERSION`].
    BadVersion {
        /// The version byte found.
        found: u8,
    },
    /// Unknown message type tag.
    UnknownType {
        /// The type byte found.
        found: u8,
    },
    /// The header's length field claims less than the fixed header.
    BadLength {
        /// The claimed total frame length.
        claimed: usize,
    },
    /// An enum discriminant held an undefined value.
    BadTag {
        /// Which field (dotted path, e.g. `"flow_mod.cmd"`).
        field: &'static str,
        /// The undefined value found.
        value: u32,
        /// Frame offset of the discriminant.
        offset: usize,
    },
    /// A structurally valid field held a semantically invalid value.
    BadField {
        /// Which field.
        field: &'static str,
        /// Frame offset where the field starts.
        offset: usize,
    },
    /// A count field exceeds what the remaining body could possibly
    /// hold — rejected before allocating.
    CountOverflow {
        /// Which repeated field.
        field: &'static str,
        /// The claimed element count.
        count: usize,
        /// Upper bound on elements the remaining bytes could hold.
        capacity: usize,
    },
    /// Body bytes left over after the typed payload was fully decoded.
    TrailingBytes {
        /// Frame offset where the unconsumed bytes start.
        offset: usize,
        /// How many bytes are left over.
        trailing: usize,
    },
}

impl CodecError {
    /// Whether this error means "feed me more bytes" (a frame cut off
    /// mid-stream) rather than "this frame is garbage". Stream
    /// consumers retry truncation once more bytes arrive and treat
    /// everything else as a protocol error.
    pub fn is_truncated(&self) -> bool {
        matches!(self, CodecError::Truncated { .. })
    }
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            CodecError::Truncated {
                offset,
                needed,
                available,
            } => write!(
                f,
                "truncated at offset {offset}: needed {needed} bytes, {available} available"
            ),
            CodecError::BadVersion { found } => {
                write!(f, "unsupported protocol version {found}")
            }
            CodecError::UnknownType { found } => write!(f, "unknown message type {found}"),
            CodecError::BadLength { claimed } => {
                write!(f, "header claims impossible frame length {claimed}")
            }
            CodecError::BadTag {
                field,
                value,
                offset,
            } => write!(f, "undefined {field} tag {value} at offset {offset}"),
            CodecError::BadField { field, offset } => {
                write!(f, "invalid {field} at offset {offset}")
            }
            CodecError::CountOverflow {
                field,
                count,
                capacity,
            } => write!(
                f,
                "{field} count {count} exceeds remaining capacity {capacity}"
            ),
            CodecError::TrailingBytes { offset, trailing } => {
                write!(f, "{trailing} unconsumed body bytes at offset {offset}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

type Result<T> = core::result::Result<T, CodecError>;

// ---------------------------------------------------------------- reader

/// A bounds-checked cursor over the unread bytes of a frame (the
/// `BinaryDecoder` idiom): it owns the offset bookkeeping, so every
/// error it reports carries the absolute frame offset of the read.
struct Rd<'a> {
    rest: &'a [u8],
    /// Frame offset one past the last byte the cursor may read.
    end: usize,
}

impl<'a> Rd<'a> {
    /// A cursor over `buf`, whose first byte sits at frame offset `base`.
    fn new(buf: &'a [u8], base: usize) -> Rd<'a> {
        Rd {
            rest: buf,
            end: base + buf.len(),
        }
    }

    /// Absolute frame offset of the next unread byte.
    fn pos(&self) -> usize {
        self.end - self.rest.len()
    }

    fn short(&self, needed: usize) -> CodecError {
        CodecError::Truncated {
            offset: self.pos(),
            needed,
            available: self.rest.len(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or_else(|| self.short(n))?;
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes, by value: every fixed-width field is one of
    /// these, so no read can index past the buffer.
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk().ok_or_else(|| self.short(N))?;
        self.rest = rest;
        Ok(*head)
    }

    fn finish(&self) -> Result<()> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                offset: self.pos(),
                trailing: self.rest.len(),
            })
        }
    }
}

/// Reject a claimed element count the remaining body cannot possibly
/// hold (every element is at least one byte) — before allocating.
fn check_count(rd: &Rd<'_>, field: &'static str, n: usize) -> Result<()> {
    let capacity = rd.rest.len();
    if n > capacity {
        return Err(CodecError::CountOverflow {
            field,
            count: n,
            capacity,
        });
    }
    Ok(())
}

// ---------------------------------------------------------- field codecs

/// How a value is written. Every wire type implements this and [`Get`]
/// from one description.
trait Put {
    fn put(&self, out: &mut Vec<u8>);
}

/// How a value is read back; `'a` lets a view borrow the frame.
trait Get<'a>: Sized {
    fn get(rd: &mut Rd<'a>) -> Result<Self>;
}

impl<T: Put + ?Sized> Put for &T {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
}

macro_rules! int_fields {
    ($($t:ty),*) => {$(
        impl Put for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
        }
        impl Get<'_> for $t {
            fn get(rd: &mut Rd<'_>) -> Result<$t> {
                rd.array().map(<$t>::from_be_bytes)
            }
        }
    )*};
}

int_fields!(u8, u16, u32, u64);

/// Addresses are their bytes.
macro_rules! address_fields {
    ($($t:ident),*) => {$(
        impl Put for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.0);
            }
        }
        impl Get<'_> for $t {
            fn get(rd: &mut Rd<'_>) -> Result<$t> {
                rd.array().map($t)
            }
        }
    )*};
}

address_fields!(EthernetAddress, Ipv4Address);

/// One byte; anything but 0 reads as `true`.
impl Put for bool {
    fn put(&self, out: &mut Vec<u8>) {
        u8::from(*self).put(out);
    }
}

impl Get<'_> for bool {
    fn get(rd: &mut Rd<'_>) -> Result<bool> {
        Ok(u8::get(rd)? != 0)
    }
}

/// Bulk bytes: a `u32` length, then the bytes. They decode as a slice
/// of the receive buffer — the zero-copy primitive behind
/// [`MessageView`].
impl Put for [u8] {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self);
    }
}

impl<'a> Get<'a> for &'a [u8] {
    fn get(rd: &mut Rd<'a>) -> Result<&'a [u8]> {
        let n = u32::get(rd)? as usize;
        rd.take(n)
    }
}

macro_rules! tuple_fields {
    ($($t:ident),*) => {
        #[allow(non_snake_case)]
        impl<$($t: Put),*> Put for ($($t,)*) {
            fn put(&self, out: &mut Vec<u8>) {
                let ($($t,)*) = self;
                $($t.put(out);)*
            }
        }
        impl<'a, $($t: Get<'a>),*> Get<'a> for ($($t,)*) {
            fn get(rd: &mut Rd<'a>) -> Result<Self> {
                Ok(($($t::get(rd)?,)*))
            }
        }
    };
}

tuple_fields!(A, B);
tuple_fields!(A, B, C);

/// A prefix length that is not one is a `BadField` at the address.
impl Put for Ipv4Cidr {
    fn put(&self, out: &mut Vec<u8>) {
        self.address().put(out);
        self.prefix_len().put(out);
    }
}

fn get_cidr(rd: &mut Rd<'_>, field: &'static str) -> Result<Ipv4Cidr> {
    let offset = rd.pos();
    let addr = Ipv4Address::get(rd)?;
    let plen = u8::get(rd)?;
    Ipv4Cidr::new(addr, plen).map_err(|_| CodecError::BadField { field, offset })
}

/// A counted list: a `W`-byte count, then the elements. A list whose
/// length is not known up front (a writer filtering as it goes) has its
/// count patched in behind the elements; the bytes are the same.
fn put_list<const W: usize>(out: &mut Vec<u8>, items: impl IntoIterator<Item = impl Put>) {
    let items = items.into_iter();
    let (len, exact) = items.size_hint();
    if exact == Some(len) {
        out.extend_from_slice(&len.to_be_bytes()[8 - W..]);
        items.for_each(|item| item.put(out));
        return;
    }
    let at = out.len();
    out.resize(at + W, 0);
    let mut count = 0u64;
    for item in items {
        item.put(out);
        count += 1;
    }
    out[at..at + W].copy_from_slice(&count.to_be_bytes()[8 - W..]);
}

/// The elements of a counted list whose count has been read and
/// checked: an owned `Vec`, or a view of the receive buffer.
trait List<'a>: Sized {
    fn get_list(rd: &mut Rd<'a>, n: usize) -> Result<Self>;
}

impl<'a, T: Get<'a>> List<'a> for Vec<T> {
    fn get_list(rd: &mut Rd<'a>, n: usize) -> Result<Vec<T>> {
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(rd)?);
        }
        Ok(items)
    }
}

/// The bytes of `n` elements, as a view of the receive buffer. Each is
/// read once here, so a list cut short reports the element that is cut
/// and reading the view later cannot fail.
fn get_list_view<'a, T: Get<'a>>(rd: &mut Rd<'a>, n: usize) -> Result<&'a [u8]> {
    let start = rd.rest;
    for _ in 0..n {
        T::get(rd)?;
    }
    Ok(&start[..start.len() - rd.rest.len()])
}

/// Writes one field of a table row as the row's spec says: by the
/// field's own codec, as a counted list (`list(count type, name)`), as
/// a list of exactly one (`one(count type, name, name of the count)`),
/// or with `None` as a reserved value (`none_as(value)`).
macro_rules! put_field {
    ($out:ident, $v:expr) => {
        $v.put($out)
    };
    ($out:ident, $v:expr, list($w:ty, $name:literal)) => {
        put_list::<{ size_of::<$w>() }>($out, $v)
    };
    ($out:ident, $v:expr, one($w:ty, $name:literal, $one:literal)) => {
        put_list::<{ size_of::<$w>() }>($out, [$v])
    };
    ($out:ident, $v:expr, none_as($none:literal)) => {
        $v.unwrap_or($none).put($out)
    };
}

/// Reads one field of a table row back, by the same spec as
/// [`put_field`]. A count is bounded by the bytes left before anything
/// is sized from it.
macro_rules! get_field {
    ($rd:ident) => {
        Get::get($rd)?
    };
    ($rd:ident, count($w:ty, $name:literal)) => {{
        let n = <$w as Get>::get($rd)? as usize;
        check_count($rd, $name, n)?;
        n
    }};
    ($rd:ident, list($w:ty, $name:literal)) => {{
        let n = get_field!($rd, count($w, $name));
        List::get_list($rd, n)?
    }};
    ($rd:ident, one($w:ty, $name:literal, $one:literal)) => {{
        let offset = $rd.pos();
        match get_field!($rd, count($w, $name)) {
            1 => Get::get($rd)?,
            n => {
                return Err(CodecError::BadTag {
                    field: $one,
                    value: n as u32,
                    offset,
                })
            }
        }
    }};
    ($rd:ident, none_as($none:literal)) => {
        Some(Get::get($rd)?).filter(|&v| v != $none)
    };
}

/// A struct is its fields, in wire order.
macro_rules! struct_fields {
    ($($ty:ident { $($f:ident $(: $k:ident $a:tt)?),* $(,)? })*) => {$(
        impl Put for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(put_field!(out, &self.$f $(, $k $a)?);)*
            }
        }
        impl<'a> Get<'a> for $ty {
            fn get(rd: &mut Rd<'a>) -> Result<$ty> {
                Ok($ty { $($f: get_field!(rd $(, $k $a)?),)* })
            }
        }
    )*};
}

/// An enum is a tag of type `$w`, then the fields of the variant it
/// selects. An undefined tag is a `BadTag` naming `$name`; `else` names
/// a field that is read even so, before the tag is rejected.
macro_rules! enum_fields {
    ($($ty:ty: $w:ident $name:literal $(else $pk:ident $pa:tt)? {
        $($tag:literal => $v:ident
            $(($($t:ident $(: $tk:ident $ta:tt)?),*))?
            $({$($f:ident $(: $fk:ident $fa:tt)?),*})?),* $(,)?
    })*) => {$(
        impl Put for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$v $(($($t),*))? $({$($f),*})? => {
                        <$w as Put>::put(&$tag, out);
                        $($(put_field!(out, $t $(, $tk $ta)?);)*)?
                        $($(put_field!(out, $f $(, $fk $fa)?);)*)?
                    })*
                }
            }
        }
        impl<'a> Get<'a> for $ty {
            fn get(rd: &mut Rd<'a>) -> Result<$ty> {
                let offset = rd.pos();
                Ok(match <$w as Get>::get(rd)? {
                    $($tag => {
                        $($(let $t = get_field!(rd $(, $tk $ta)?);)*)?
                        $($(let $f = get_field!(rd $(, $fk $fa)?);)*)?
                        Self::$v $(($($t),*))? $({$($f),*})?
                    })*
                    value => {
                        $(get_field!(rd, $pk $pa);)?
                        return Err(CodecError::BadTag {
                            field: $name,
                            value: value.into(),
                            offset,
                        });
                    }
                })
            }
        }
    )*};
}

// ------------------------------------------------------------ the tables

/// A flow match: a bitmap of the fields present (bit `i` for the `i`-th
/// field below), then each present field in bit order. The VLAN and
/// epoch fields are a flag byte and a `u16`, both written even for
/// "untagged" so the field has one width.
impl Put for FlowMatch {
    fn put(&self, out: &mut Vec<u8>) {
        let m = self;
        let present = [
            m.in_port.is_some(),
            m.eth_src.is_some(),
            m.eth_dst.is_some(),
            m.ethertype.is_some(),
            m.vlan.is_some(),
            m.ipv4_src.is_some(),
            m.ipv4_dst.is_some(),
            m.ip_proto.is_some(),
            m.l4_src.is_some(),
            m.l4_dst.is_some(),
            m.epoch.is_some(),
        ];
        let bits = (0..)
            .zip(present)
            .fold(0u16, |bits, (i, p)| bits | u16::from(p) << i);
        bits.put(out);
        put_some(out, m.in_port);
        put_some(out, m.eth_src);
        put_some(out, m.eth_dst);
        put_some(out, m.ethertype);
        if let Some(vlan) = m.vlan {
            put_flagged(out, vlan);
        }
        put_some(out, m.ipv4_src);
        put_some(out, m.ipv4_dst);
        put_some(out, m.ip_proto);
        put_some(out, m.l4_src);
        put_some(out, m.l4_dst);
        if let Some(epoch) = m.epoch {
            put_flagged(out, epoch);
        }
    }
}

impl Get<'_> for FlowMatch {
    fn get(rd: &mut Rd<'_>) -> Result<FlowMatch> {
        let offset = rd.pos();
        let bits = u16::get(rd)?;
        if bits >> 11 != 0 {
            return Err(CodecError::BadTag {
                field: "match.fields",
                value: bits.into(),
                offset,
            });
        }
        let has = |i: u32| bits & 1 << i != 0;
        let mut m = FlowMatch::ANY;
        if has(0) {
            m.in_port = Some(Get::get(rd)?);
        }
        if has(1) {
            m.eth_src = Some(Get::get(rd)?);
        }
        if has(2) {
            m.eth_dst = Some(Get::get(rd)?);
        }
        if has(3) {
            m.ethertype = Some(Get::get(rd)?);
        }
        if has(4) {
            m.vlan = Some(get_flagged(rd, "match.vlan_tagged")?);
        }
        if has(5) {
            m.ipv4_src = Some(get_cidr(rd, "match.ipv4_src")?);
        }
        if has(6) {
            m.ipv4_dst = Some(get_cidr(rd, "match.ipv4_dst")?);
        }
        if has(7) {
            m.ip_proto = Some(Get::get(rd)?);
        }
        if has(8) {
            m.l4_src = Some(Get::get(rd)?);
        }
        if has(9) {
            m.l4_dst = Some(Get::get(rd)?);
        }
        if has(10) {
            m.epoch = Some(get_flagged(rd, "match.epoch_stamped")?);
        }
        Ok(m)
    }
}

fn put_some(out: &mut Vec<u8>, v: Option<impl Put>) {
    if let Some(v) = v {
        v.put(out);
    }
}

fn put_flagged(out: &mut Vec<u8>, v: Option<u16>) {
    v.is_some().put(out);
    v.unwrap_or(0).put(out);
}

/// A flag that is neither 0 nor 1 is a `BadTag`, reported once the
/// `u16` behind it has been read.
fn get_flagged(rd: &mut Rd<'_>, field: &'static str) -> Result<Option<u16>> {
    let offset = rd.pos();
    let flag = u8::get(rd)?;
    let v = u16::get(rd)?;
    match flag {
        0 => Ok(None),
        1 => Ok(Some(v)),
        value => Err(CodecError::BadTag {
            field,
            value: value.into(),
            offset,
        }),
    }
}

struct_fields! {
    FlowSpec {
        priority,
        importance,
        cookie,
        idle_timeout,
        hard_timeout,
        goto_table: none_as(0xff),
        matcher,
        actions: list(u16, "actions"),
    }
    Bucket {
        watch_port: none_as(0),
        actions: list(u16, "actions"),
    }
    GroupDesc {
        group_type,
        buckets: list(u16, "group.buckets"),
    }
    PortDesc { port_no, up }
    CookieCount { cookie, count }
    FlowStats { table_id, priority, cookie, packets, bytes }
    PortStatsRec { port_no, rx_frames, rx_bytes, tx_frames, tx_bytes }
    TableStats { table_id, active, max_entries, hits, misses, evictions, refusals }
    CacheStatsRec {
        micro_hits,
        mega_hits,
        misses,
        inserts,
        invalidations,
        micro_evictions,
        mega_evictions,
        generation,
        entries,
    }
    EwEntry { origin, seq, term, event }
    OriginHead { origin, floor, head, hash }
    IntentEntry { index, term, origin, token, intent }
}

enum_fields! {
    Action: u8 "action.kind" {
        0 => Output(port),
        1 => Flood,
        2 => ToController { max_len },
        3 => SetEthSrc(mac),
        4 => SetEthDst(mac),
        5 => SetIpv4Src(ip),
        6 => SetIpv4Dst(ip),
        7 => SetDscp(dscp),
        8 => DecTtl,
        9 => PushVlan(vid),
        10 => PopVlan,
        11 => Group(id),
        12 => Meter(id),
        13 => SetEpoch(tag),
        14 => PopEpoch,
    }
    GroupType: u8 "group.type" {
        0 => All,
        1 => Select,
        2 => FastFailover,
    }
    Role: u8 "role" {
        0 => Master,
        1 => Equal,
        2 => Slave,
    }
    ErrorCode: u16 "error.code" {
        0 => HelloFailed,
        1 => BadRequest,
        2 => TableFull,
        3 => NotMaster,
    }
    RemovedReason: u8 "flow_removed.reason" {
        0 => IdleTimeout,
        1 => HardTimeout,
        2 => Delete,
        3 => Eviction,
    }
    FlowModCmd: u8 "flow_mod.cmd" {
        0 => Add(spec),
        1 => DeleteStrict { priority, matcher },
        2 => DeleteByCookie { cookie },
    }
    GroupModCmd: u8 "group_mod.cmd" {
        0 => Add(desc),
        1 => Delete,
    }
    MeterModCmd: u8 "meter_mod.cmd" {
        0 => Add { rate_bps, burst_bytes },
        1 => Delete,
    }
    StatsKind: u8 "stats_request.kind" {
        0 => Flow { table_id },
        1 => Port { port_no },
        2 => Table,
        3 => Cache,
    }
    // The record count comes before the records' kind is known, and is
    // bounded even when the kind turns out to be undefined.
    StatsBody: u8 "stats_reply.kind" else count(u32, "stats_reply.records") {
        0 => Flow(records: list(u32, "stats_reply.records")),
        1 => Port(records: list(u32, "stats_reply.records")),
        2 => Table(records: list(u32, "stats_reply.records")),
        3 => Cache(record: one(u32, "stats_reply.records", "stats_reply.cache_count")),
    }
    ViewEvent: u8 "view_event.kind" {
        0 => LinkAdd { from_dpid, from_port, to_dpid, to_port },
        1 => LinkDel { from_dpid, from_port },
        2 => HostLearned { mac, dpid, port, ip },
        3 => ShadowSet { dpid, cookies: list(u32, "view_event.cookies") },
        4 => ProgramStamp { dpid, cookie, hash },
    }
    Option<Ipv4Address>: u8 "view_event.ip_present" {
        0 => None,
        1 => Some(ip),
    }
    Intent: u8 "intent.kind" {
        0 => Noop,
        1 => AclDeny { priority, matcher, install },
        2 => MastershipPin { dpid, replica, pinned },
    }
}

/// The message table: `id => Variant { fields }`, one row per wire type.
/// It generates [`Message::type_id`], the encoder and the decoder. A
/// `#[view]` row decodes to the [`MessageView`] variant of the same
/// name, whose fields borrow the receive buffer; `as writer` also
/// generates `writer(out, fields…)`, the body from borrowed parts that a
/// fast path such as [`encode_packet_out_into`] calls.
macro_rules! messages {
    ($($(#[$view:ident])? $id:literal => $v:ident
        $({$($f:ident $(: $k:ident $a:tt)?),* $(,)?})? $(as $writer:ident)?),* $(,)?) => {
        /// The message types, valued by their wire type ids.
        enum Kind {
            $($v = $id,)*
        }

        impl Message {
            /// The wire type tag (used by the codec and for telemetry).
            pub fn type_id(&self) -> u8 {
                match self {
                    $(Message::$v { .. } => Kind::$v as u8,)*
                }
            }
        }

        impl Put for Message {
            // Into `encode_into`, its one caller: a call per frame
            // measured ≈10 % on the encode kernels.
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $(Message::$v $({$($f),*})? => {
                        $($(put_field!(out, $f $(, $k $a)?);)*)?
                    })*
                }
            }
        }

        /// The message of a type-`type_id` frame whose body `rd` holds,
        /// with its xid and length. Each arm checks for trailing bytes
        /// and returns itself, so a borrowed view is built in place.
        fn get_frame<'a>(
            mut rd: Rd<'a>,
            type_id: u8,
            xid: u32,
        ) -> Result<(MessageView<'a>, u32, usize)> {
            let rd = &mut rd;
            match type_id {
                $($id => {
                    $($(let $f = get_field!(rd $(, $k $a)?);)*)?
                    rd.finish()?;
                    Ok((view!($($view)? $v $({$($f),*})?), xid, rd.end))
                })*
                found => Err(CodecError::UnknownType { found }),
            }
        }

        $(writer!($($writer)?; $($($f $(: $k $a)?),*)?);)*
    };
}

macro_rules! view {
    (view $v:ident {$($f:ident),*}) => {
        MessageView::$v {$($f),*}
    };
    ($v:ident $({$($f:ident),*})?) => {
        MessageView::Owned(Message::$v $({$($f),*})?)
    };
}

macro_rules! writer {
    (; $($fields:tt)*) => {};
    ($writer:ident; $($f:ident $(: $k:ident $a:tt)?),*) => {
        fn $writer(out: &mut Vec<u8>, $($f: writer_arg!($($k)?)),*) {
            $(put_field!(out, $f $(, $k $a)?);)*
        }
    };
}

macro_rules! writer_arg {
    () => { impl Put };
    (list) => { impl IntoIterator<Item = impl Put> };
}

messages! {
    0 => Hello { version },
    #[view] 1 => Error { code, data },
    2 => EchoRequest { token },
    3 => EchoReply { token },
    4 => FeaturesRequest,
    5 => FeaturesReply { dpid, n_tables, ports: list(u16, "features.ports") },
    #[view] 6 => PacketIn { in_port, table_id, is_miss, frame },
    #[view] 7 => PacketOut { in_port, actions: list(u16, "actions"), frame } as put_packet_out,
    8 => FlowMod { table_id, cmd },
    9 => GroupMod { group_id, cmd },
    10 => MeterMod { meter_id, cmd },
    11 => PortStatus { port },
    12 => FlowRemoved { table_id, priority, cookie, reason, packets, bytes },
    #[view] 13 => BarrierRequest { xids: list(u32, "barrier.xids") } as put_barrier_request,
    #[view] 14 => BarrierReply { applied: list(u32, "barrier.applied") } as put_barrier_reply,
    15 => StatsRequest { kind },
    16 => StatsReply { body },
    17 => HelloResync { generation, cookies: list(u32, "resync.cookies") },
    18 => ResyncRequest,
    19 => RoleRequest { role, term, replica },
    20 => RoleReply { role, term, replica },
    // 21 was the east-west heartbeat, retired: the digest carries the
    // same term and acks. A frame of type 21 is `UnknownType`.
    22 => EwEvents { replica, entries: list(u32, "ew.entries") },
    23 => EwDigest { replica, term, heads: list(u32, "ew.heads") },
    24 => EwFetch { replica, ranges: list(u32, "ew.ranges") },
    25 => EwSnapshot {
        replica,
        heads: list(u32, "ew.snapshot_heads"),
        entries: list(u32, "ew.snapshot_entries"),
        checksum,
    },
    26 => IntentPropose { replica, token, intent },
    27 => IntentAppend {
        leader,
        term,
        prev_index,
        prev_term,
        commit,
        entries: list(u32, "intent.entries"),
    },
    28 => IntentAck { replica, term, match_index, success },
    29 => IntentFetch { replica, term, from_index },
    30 => IntentCatchup {
        replica,
        term,
        snap_index,
        snap_term,
        snap_state: list(u32, "intent.snap_state"),
        snap_tokens: list(u32, "intent.snap_tokens"),
        entries: list(u32, "intent.catchup_entries"),
        commit,
        checksum,
    },
}

/// The canonical wire bytes of one east-west entry — the byte string
/// the anti-entropy chain hash folds over, so replicas comparing
/// digests agree on the exact bytes being summarized.
pub fn ew_entry_bytes(entry: &EwEntry) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    ew_entry_bytes_into(&mut out, entry);
    out
}

/// [`ew_entry_bytes`], appended to `out`.
pub fn ew_entry_bytes_into(out: &mut Vec<u8>, entry: &EwEntry) {
    entry.put(out);
}

/// The canonical wire bytes of one flow match (used as a stable state
/// key for ACL intents).
pub fn match_bytes(m: &FlowMatch) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    m.put(&mut out);
    out
}

/// The canonical wire bytes of one intent-log entry — the byte string
/// snapshot checksums fold over.
pub fn intent_entry_bytes(entry: &IntentEntry) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    entry.put(&mut out);
    out
}

// ------------------------------------------------------------- messages

/// Append one frame to `out`: the header, then whatever `body` writes.
/// The length field counts from the frame's own first byte, so a frame
/// may follow others already in the buffer.
fn put_frame(out: &mut Vec<u8>, type_id: u8, xid: u32, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    VERSION.put(out);
    type_id.put(out);
    0u32.put(out); // length patched below
    xid.put(out);
    body(out);
    let len = (out.len() - start) as u32;
    out[start + 2..start + 6].copy_from_slice(&len.to_be_bytes());
}

/// Encode `msg` with transaction id `xid` into a framed byte vector.
pub fn encode(msg: &Message, xid: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_into(&mut out, msg, xid);
    out
}

/// Append `msg`, framed with transaction id `xid`, to `out` — the one
/// writer every sender goes through. What `out` already holds is left
/// alone, so a sender can encode straight into a channel buffer that
/// carries earlier frames.
pub fn encode_into(out: &mut Vec<u8>, msg: &Message, xid: u32) {
    put_frame(out, msg.type_id(), xid, |out| msg.put(out));
}

/// Encode a PACKET_OUT directly from a borrowed frame.
///
/// The general [`encode`] takes a [`Message`], whose `PacketOut`
/// variant owns its frame — so releasing a borrowed frame would force
/// a `to_vec` just to throw the copy away after serializing. This fast
/// path writes the wire form straight from the slice; it is
/// byte-identical to `encode(&Message::PacketOut { .. }, xid)`.
pub fn encode_packet_out(in_port: PortNo, actions: &[Action], frame: &[u8], xid: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 4 + 2 + 4 + frame.len() + 8);
    encode_packet_out_into(&mut out, in_port, actions, frame, xid);
    out
}

/// [`encode_packet_out`], appending to `out` (see [`encode_into`]).
pub fn encode_packet_out_into(
    out: &mut Vec<u8>,
    in_port: PortNo,
    actions: &[Action],
    frame: &[u8],
    xid: u32,
) {
    put_frame(out, Kind::PacketOut as u8, xid, |out| {
        put_packet_out(out, in_port, actions, frame)
    });
}

/// Append a BARRIER_REQUEST naming `xids` to `out`, byte-identical to
/// `encode_into(out, &Message::BarrierRequest { xids }, xid)` without
/// collecting the list first.
pub fn encode_barrier_request_into(
    out: &mut Vec<u8>,
    xids: impl ExactSizeIterator<Item = u32>,
    xid: u32,
) {
    put_frame(out, Kind::BarrierRequest as u8, xid, |out| {
        put_barrier_request(out, xids)
    });
}

/// Append a BARRIER_REPLY listing `applied` to `out`, byte-identical to
/// `encode_into(out, &Message::BarrierReply { applied }, xid)`: an agent
/// answers a fence by filtering the request's list straight into the
/// channel.
pub fn encode_barrier_reply_into(out: &mut Vec<u8>, applied: impl Iterator<Item = u32>, xid: u32) {
    put_frame(out, Kind::BarrierReply as u8, xid, |out| {
        put_barrier_reply(out, applied)
    });
}

/// The xid list of a BARRIER_REQUEST or BARRIER_REPLY, borrowed from
/// the receive buffer. [`decode_view`] has checked that every xid the
/// count announces is there, so reading the list cannot fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XidList<'a>(&'a [u8]);

impl<'a> XidList<'a> {
    /// The xids, in wire order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u32> + Clone + 'a {
        self.0.as_chunks().0.iter().map(|&b| u32::from_be_bytes(b))
    }

    /// The `i`-th xid in wire order, if the list is that long.
    pub fn get(&self, i: usize) -> Option<u32> {
        self.0.as_chunks().0.get(i).map(|&b| u32::from_be_bytes(b))
    }
}

impl<'a> List<'a> for XidList<'a> {
    fn get_list(rd: &mut Rd<'a>, n: usize) -> Result<XidList<'a>> {
        get_list_view::<u32>(rd, n).map(XidList)
    }
}

/// The action list of a PACKET_OUT, borrowed from the receive buffer
/// and decoded as it is read. [`decode_view`] has decoded every action
/// once already, so reading the list cannot fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionList<'a>(&'a [u8]);

impl<'a> ActionList<'a> {
    /// The actions, in wire order.
    pub fn iter(&self) -> impl Iterator<Item = Action> + 'a {
        let mut rd = Rd::new(self.0, 0);
        std::iter::from_fn(move || Action::get(&mut rd).ok())
    }
}

impl<'a> List<'a> for ActionList<'a> {
    fn get_list(rd: &mut Rd<'a>, n: usize) -> Result<ActionList<'a>> {
        get_list_view::<Action>(rd, n).map(ActionList)
    }
}

/// A decoded message whose bulk byte payloads borrow the receive
/// buffer (the `BinaryDecoder` idiom: typed views over wire bytes).
///
/// The message types on the setup path get a borrowed variant —
/// PACKET_IN and PACKET_OUT (the punted/released frame, and the
/// release's action list), ERROR (its diagnostic data), BARRIER_REQUEST
/// and BARRIER_REPLY (their xid lists): four or five of each cross the
/// channel per flow setup, and none needs anything owned to be acted
/// on. Every other message decodes to an owned [`Message`] inside
/// [`MessageView::Owned`]: their payloads are structured fields the
/// consumer must own to apply anyway, so a borrowed form would buy
/// nothing but lifetime friction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessageView<'a> {
    /// A punted frame; `frame` borrows the receive buffer.
    PacketIn {
        /// Ingress port.
        in_port: PortNo,
        /// Table that punted it.
        table_id: u8,
        /// `true` if punted by table miss, `false` if by action.
        is_miss: bool,
        /// The frame, borrowed from the receive buffer.
        frame: &'a [u8],
    },
    /// A frame release; `frame` borrows the receive buffer.
    PacketOut {
        /// Treat the frame as if received on this port (0 = none).
        in_port: PortNo,
        /// Actions to run on it, borrowed from the receive buffer.
        actions: ActionList<'a>,
        /// The frame, borrowed from the receive buffer.
        frame: &'a [u8],
    },
    /// A fence; `xids` borrows the receive buffer.
    BarrierRequest {
        /// The mods the sender wants acknowledged.
        xids: XidList<'a>,
    },
    /// A fence's answer; `applied` borrows the receive buffer.
    BarrierReply {
        /// The named mods that took effect.
        applied: XidList<'a>,
    },
    /// An error notification; `data` borrows the receive buffer.
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Offending-request context, borrowed from the receive buffer.
        data: &'a [u8],
    },
    /// Any other message, fully owned.
    Owned(Message),
}

impl MessageView<'_> {
    /// Materialize an owned [`Message`], copying any borrowed payload.
    pub fn into_message(self) -> Message {
        match self {
            MessageView::PacketIn {
                in_port,
                table_id,
                is_miss,
                frame,
            } => Message::PacketIn {
                in_port,
                table_id,
                is_miss,
                frame: frame.to_vec(),
            },
            MessageView::PacketOut {
                in_port,
                actions,
                frame,
            } => Message::PacketOut {
                in_port,
                actions: actions.iter().collect(),
                frame: frame.to_vec(),
            },
            MessageView::BarrierRequest { xids } => Message::BarrierRequest {
                xids: xids.iter().collect(),
            },
            MessageView::BarrierReply { applied } => Message::BarrierReply {
                applied: applied.iter().collect(),
            },
            MessageView::Error { code, data } => Message::Error {
                code,
                data: data.to_vec(),
            },
            MessageView::Owned(msg) => msg,
        }
    }
}

/// Decode one framed message from the front of `buf` into an owned
/// [`Message`]. Returns the message, its xid, and the bytes consumed.
///
/// Compatibility wrapper over [`decode_view`]: byte payloads are
/// copied out of the buffer. Hot paths should use [`decode_view`].
pub fn decode(buf: &[u8]) -> Result<(Message, u32, usize)> {
    let (view, xid, consumed) = decode_view(buf)?;
    Ok((view.into_message(), xid, consumed))
}

/// Decode one framed message from the front of `buf` as a
/// [`MessageView`] borrowing `buf`. Returns the view, its xid, and the
/// bytes consumed.
///
/// The view (and anything holding its `frame`/`data` slices) must be
/// dropped before the receive buffer can be reused; the borrow checker
/// enforces this. Use [`MessageView::into_message`] to outlive the
/// buffer.
pub fn decode_view(buf: &[u8]) -> Result<(MessageView<'_>, u32, usize)> {
    let [version, type_id, l0, l1, l2, l3, x0, x1, x2, x3] = Rd::new(buf, 0).array()?;
    if version != VERSION {
        return Err(CodecError::BadVersion { found: version });
    }
    let length = u32::from_be_bytes([l0, l1, l2, l3]) as usize;
    if length < HEADER_LEN {
        return Err(CodecError::BadLength { claimed: length });
    }
    // A cursor over the whole frame, moved past the header just read.
    let mut rd = Rd::new(Rd::new(buf, 0).take(length)?, 0);
    rd.take(HEADER_LEN)?;
    get_frame(rd, type_id, u32::from_be_bytes([x0, x1, x2, x3]))
}

/// The frames of one delivery, in order, each with its xid. A delivery
/// is whole frames, so the walk ends at the first frame that does not
/// decode: its error is the last item.
pub fn frames(bytes: &[u8]) -> impl Iterator<Item = Result<(MessageView<'_>, u32)>> {
    let mut rest = bytes;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        Some(match decode_view(rest) {
            Ok((view, xid, used)) => {
                rest = rest.get(used..).unwrap_or_default();
                Ok((view, xid))
            }
            Err(e) => {
                rest = &[];
                Err(e)
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zen_dataplane::FlowSpec;
    use zen_wire::fnv::fnv1a;

    fn spec_sample() -> FlowSpec {
        FlowSpec::new(
            100,
            FlowMatch::ipv4_to("10.1.0.0/16".parse().unwrap()).with_in_port(3),
            vec![
                Action::SetEthDst(EthernetAddress::from_id(9)),
                Action::DecTtl,
                Action::Output(4),
            ],
        )
        .with_timeouts(1_000_000, 2_000_000)
        .with_cookie(0xfeed)
        .with_goto(1)
        .with_importance(40)
    }

    fn samples() -> Vec<Message> {
        vec![
            Message::Hello { version: 1 },
            Message::Error {
                code: ErrorCode::BadRequest,
                data: vec![1, 2, 3],
            },
            Message::EchoRequest { token: 77 },
            Message::EchoReply { token: 77 },
            Message::FeaturesRequest,
            Message::FeaturesReply {
                dpid: 42,
                n_tables: 2,
                ports: vec![
                    PortDesc {
                        port_no: 1,
                        up: true,
                    },
                    PortDesc {
                        port_no: 2,
                        up: false,
                    },
                ],
            },
            Message::PacketIn {
                in_port: 3,
                table_id: 0,
                is_miss: true,
                frame: vec![0xde, 0xad],
            },
            Message::PacketOut {
                in_port: 0,
                actions: vec![Action::Flood],
                frame: vec![1; 60],
            },
            Message::FlowMod {
                table_id: 0,
                cmd: FlowModCmd::Add(spec_sample()),
            },
            Message::FlowMod {
                table_id: 0,
                cmd: FlowModCmd::Add(FlowSpec::new(
                    60,
                    FlowMatch {
                        epoch: Some(Some(zen_dataplane::epoch_tag(5))),
                        ..FlowMatch::ipv4_to("10.2.0.0/16".parse().unwrap())
                    },
                    vec![
                        Action::SetEpoch(zen_dataplane::epoch_tag(6)),
                        Action::PopEpoch,
                        Action::Output(2),
                    ],
                )),
            },
            Message::FlowMod {
                table_id: 0,
                cmd: FlowModCmd::DeleteStrict {
                    priority: 7,
                    matcher: FlowMatch {
                        epoch: Some(None),
                        ..FlowMatch::ANY
                    },
                },
            },
            Message::FlowMod {
                table_id: 1,
                cmd: FlowModCmd::DeleteStrict {
                    priority: 5,
                    matcher: FlowMatch::ANY,
                },
            },
            Message::FlowMod {
                table_id: 0,
                cmd: FlowModCmd::DeleteByCookie { cookie: 9 },
            },
            Message::GroupMod {
                group_id: 7,
                cmd: GroupModCmd::Add(GroupDesc {
                    group_type: GroupType::Select,
                    buckets: vec![Bucket::output(2), Bucket::output(3)],
                }),
            },
            Message::GroupMod {
                group_id: 7,
                cmd: GroupModCmd::Delete,
            },
            Message::MeterMod {
                meter_id: 1,
                cmd: MeterModCmd::Add {
                    rate_bps: 1_000_000,
                    burst_bytes: 64_000,
                },
            },
            Message::PortStatus {
                port: PortDesc {
                    port_no: 4,
                    up: false,
                },
            },
            Message::FlowRemoved {
                table_id: 0,
                priority: 10,
                cookie: 0xbeef,
                reason: RemovedReason::IdleTimeout,
                packets: 100,
                bytes: 6400,
            },
            Message::FlowRemoved {
                table_id: 1,
                priority: 100,
                cookie: 0x5eac_0001,
                reason: RemovedReason::Eviction,
                packets: 12,
                bytes: 768,
            },
            Message::BarrierRequest { xids: vec![] },
            Message::BarrierRequest {
                xids: vec![7, 8, 9],
            },
            Message::BarrierReply {
                applied: vec![7, 9],
            },
            Message::StatsRequest {
                kind: StatsKind::Flow { table_id: 0xff },
            },
            Message::StatsRequest {
                kind: StatsKind::Port { port_no: 0 },
            },
            Message::StatsReply {
                body: StatsBody::Table(vec![TableStats {
                    table_id: 0,
                    active: 3,
                    max_entries: 256,
                    hits: 10,
                    misses: 2,
                    evictions: 4,
                    refusals: 1,
                }]),
            },
            Message::StatsRequest {
                kind: StatsKind::Cache,
            },
            Message::StatsReply {
                body: StatsBody::Cache(CacheStatsRec {
                    micro_hits: 1000,
                    mega_hits: 50,
                    misses: 7,
                    inserts: 7,
                    invalidations: 2,
                    micro_evictions: 5,
                    mega_evictions: 1,
                    generation: 3,
                    entries: 12,
                }),
            },
            Message::HelloResync {
                generation: 41,
                cookies: vec![
                    CookieCount {
                        cookie: 0xfab0_0001,
                        count: 18,
                    },
                    CookieCount {
                        cookie: 0xbeef,
                        count: 1,
                    },
                ],
            },
            Message::HelloResync {
                generation: 0,
                cookies: vec![],
            },
            Message::ResyncRequest,
            Message::Error {
                code: ErrorCode::NotMaster,
                data: 7u32.to_be_bytes().to_vec(),
            },
            Message::Error {
                code: ErrorCode::TableFull,
                data: 0xdead_beefu32.to_be_bytes().to_vec(),
            },
            Message::RoleRequest {
                role: Role::Master,
                term: 3,
                replica: 1,
            },
            Message::RoleReply {
                role: Role::Slave,
                term: 4,
                replica: 2,
            },
            Message::EwEvents {
                replica: 1,
                entries: vec![
                    EwEntry {
                        origin: 1,
                        seq: 1,
                        term: 1,
                        event: ViewEvent::LinkAdd {
                            from_dpid: 0,
                            from_port: 2,
                            to_dpid: 1,
                            to_port: 3,
                        },
                    },
                    EwEntry {
                        origin: 1,
                        seq: 2,
                        term: 1,
                        event: ViewEvent::LinkDel {
                            from_dpid: 0,
                            from_port: 2,
                        },
                    },
                    EwEntry {
                        origin: 1,
                        seq: 3,
                        term: 2,
                        event: ViewEvent::HostLearned {
                            mac: EthernetAddress::from_id(0x50_0001),
                            dpid: 3,
                            port: 4,
                            ip: Some(Ipv4Address::new(10, 0, 0, 2)),
                        },
                    },
                    EwEntry {
                        origin: 1,
                        seq: 4,
                        term: 2,
                        event: ViewEvent::HostLearned {
                            mac: EthernetAddress::from_id(0x50_0002),
                            dpid: 3,
                            port: 5,
                            ip: None,
                        },
                    },
                    EwEntry {
                        origin: 1,
                        seq: 5,
                        term: 2,
                        event: ViewEvent::ShadowSet {
                            dpid: 2,
                            cookies: vec![CookieCount {
                                cookie: 0xfab0_0001,
                                count: 6,
                            }],
                        },
                    },
                    EwEntry {
                        origin: 1,
                        seq: 6,
                        term: 2,
                        event: ViewEvent::ProgramStamp {
                            dpid: 2,
                            cookie: 0xfab0_0001,
                            hash: 0x1234_5678_9abc_def0,
                        },
                    },
                ],
            },
            Message::EwEvents {
                replica: 0,
                entries: vec![],
            },
            Message::EwDigest {
                replica: 1,
                term: 3,
                heads: vec![
                    OriginHead {
                        origin: 0,
                        floor: 2,
                        head: 9,
                        hash: 0xdead_beef_cafe_f00d,
                    },
                    OriginHead {
                        origin: 1,
                        floor: 0,
                        head: 0,
                        hash: 0xcbf2_9ce4_8422_2325,
                    },
                ],
            },
            Message::EwFetch {
                replica: 2,
                ranges: vec![(0, 3, 9), (1, 0, 0)],
            },
            Message::EwSnapshot {
                replica: 0,
                heads: vec![OriginHead {
                    origin: 0,
                    floor: 9,
                    head: 9,
                    hash: 7,
                }],
                entries: vec![EwEntry {
                    origin: 0,
                    seq: 9,
                    term: 2,
                    event: ViewEvent::LinkAdd {
                        from_dpid: 4,
                        from_port: 1,
                        to_dpid: 5,
                        to_port: 2,
                    },
                }],
                checksum: 0x1111_2222_3333_4444,
            },
            Message::IntentPropose {
                replica: 2,
                token: 0xaa55,
                intent: Intent::AclDeny {
                    priority: 900,
                    matcher: FlowMatch::ipv4_to("10.9.0.0/16".parse().unwrap()),
                    install: true,
                },
            },
            Message::IntentAppend {
                leader: 0,
                term: 6,
                prev_index: 4,
                prev_term: 5,
                commit: 3,
                entries: vec![
                    IntentEntry {
                        index: 5,
                        term: 6,
                        origin: 0,
                        token: 0,
                        intent: Intent::Noop,
                    },
                    IntentEntry {
                        index: 6,
                        term: 6,
                        origin: 2,
                        token: 0xaa55,
                        intent: Intent::MastershipPin {
                            dpid: 7,
                            replica: 1,
                            pinned: true,
                        },
                    },
                ],
            },
            Message::IntentAck {
                replica: 1,
                term: 6,
                match_index: 6,
                success: true,
            },
            Message::IntentAck {
                replica: 2,
                term: 7,
                match_index: 3,
                success: false,
            },
            Message::IntentFetch {
                replica: 1,
                term: 8,
                from_index: 2,
            },
            Message::IntentCatchup {
                replica: 2,
                term: 8,
                snap_index: 4,
                snap_term: 5,
                snap_state: vec![IntentEntry {
                    index: 2,
                    term: 3,
                    origin: 1,
                    token: 11,
                    intent: Intent::AclDeny {
                        priority: 901,
                        matcher: FlowMatch::ipv4_to("10.8.0.0/16".parse().unwrap()),
                        install: true,
                    },
                }],
                snap_tokens: vec![(1, 11), (2, 0xdead_beef)],
                entries: vec![IntentEntry {
                    index: 5,
                    term: 6,
                    origin: 0,
                    token: 0,
                    intent: Intent::Noop,
                }],
                commit: 4,
                checksum: 0x5555_6666_7777_8888,
            },
        ]
    }

    #[test]
    fn roundtrip_every_message() {
        for (i, msg) in samples().into_iter().enumerate() {
            let xid = 1000 + i as u32;
            let bytes = encode(&msg, xid);
            let (decoded, got_xid, consumed) =
                decode(&bytes).unwrap_or_else(|e| panic!("msg {i}: {e}"));
            assert_eq!(decoded, msg, "message {i}");
            assert_eq!(got_xid, xid);
            assert_eq!(consumed, bytes.len());
        }
    }

    /// The borrowed view's payload slices alias the receive buffer —
    /// the zero-copy contract — and agree with the owned decode.
    #[test]
    fn view_borrows_receive_buffer() {
        let frame: Vec<u8> = (0..200u8).collect();
        let bytes = encode(
            &Message::PacketIn {
                in_port: 9,
                table_id: 1,
                is_miss: false,
                frame: frame.clone(),
            },
            55,
        );
        let (view, xid, consumed) = decode_view(&bytes).unwrap();
        assert_eq!(xid, 55);
        assert_eq!(consumed, bytes.len());
        let MessageView::PacketIn {
            in_port,
            table_id,
            is_miss,
            frame: got,
        } = &view
        else {
            panic!("expected a PacketIn view");
        };
        assert_eq!((*in_port, *table_id, *is_miss), (9, 1, false));
        assert_eq!(*got, &frame[..]);
        // Same allocation: the slice points into `bytes`, not a copy.
        let buf_range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        assert!(buf_range.contains(&(got.as_ptr() as usize)));
        assert_eq!(
            view.into_message(),
            Message::PacketIn {
                in_port: 9,
                table_id: 1,
                is_miss: false,
                frame,
            }
        );
    }

    /// Every sample decodes to a view that materializes back to the
    /// original message, and hot types actually get borrowed variants.
    #[test]
    fn view_roundtrip_every_message() {
        for (i, msg) in samples().into_iter().enumerate() {
            let bytes = encode(&msg, i as u32);
            let (view, _, _) = decode_view(&bytes).unwrap_or_else(|e| panic!("msg {i}: {e}"));
            match (&view, &msg) {
                (MessageView::Owned(_), Message::PacketIn { .. })
                | (MessageView::Owned(_), Message::PacketOut { .. })
                | (MessageView::Owned(_), Message::Error { .. }) => {
                    panic!("msg {i}: hot type decoded to an owned view")
                }
                _ => {}
            }
            assert_eq!(view.into_message(), msg, "message {i}");
        }
    }

    /// The borrowed-frame PACKET_OUT encoder is byte-identical to the
    /// general encoder.
    #[test]
    fn packet_out_fast_path_matches_encode() {
        let actions = vec![Action::Output(3), Action::DecTtl];
        let frame = vec![7u8; 90];
        let via_msg = encode(
            &Message::PacketOut {
                in_port: 2,
                actions: actions.clone(),
                frame: frame.clone(),
            },
            1234,
        );
        assert_eq!(encode_packet_out(2, &actions, &frame, 1234), via_msg);
    }

    /// Every writer appends: what the buffer held stays, and what is
    /// added is the frame `encode` builds — for every message type, one
    /// after another into the same buffer, as the channel does.
    #[test]
    fn writers_append_what_encode_builds() {
        let mut buf = b"earlier frames".to_vec();
        let mut expected = buf.clone();
        for (i, msg) in samples().into_iter().enumerate() {
            encode_into(&mut buf, &msg, i as u32);
            expected.extend(encode(&msg, i as u32));
            assert_eq!(buf, expected, "message {i}");
        }

        let actions = [Action::Output(3), Action::DecTtl];
        encode_packet_out_into(&mut buf, 2, &actions, &[7u8; 90], 1234);
        expected.extend(encode_packet_out(2, &actions, &[7u8; 90], 1234));
        assert_eq!(buf, expected, "packet-out writer");

        let xids = vec![9, 4, 11];
        encode_barrier_request_into(&mut buf, xids.iter().copied(), 77);
        expected.extend(encode(&Message::BarrierRequest { xids }, 77));
        assert_eq!(buf, expected, "barrier-request writer");
    }

    /// The exact bytes of every writer, pinned: a frame of each sample,
    /// the three fast-path writers, and the canonical bytes of matches,
    /// east-west entries and intent entries — the anti-entropy chain
    /// hash and the snapshot checksums fold those, so every cluster
    /// digest rests on them. A wire change moves this on purpose, in a
    /// commit of its own.
    #[test]
    fn wire_bytes_are_pinned() {
        let mut wire = Vec::new();
        for msg in samples() {
            encode_into(&mut wire, &msg, 0x5eed_0001);
        }
        let actions = [Action::Output(3), Action::PushVlan(12), Action::DecTtl];
        encode_packet_out_into(&mut wire, 2, &actions, &[7u8; 90], 11);
        encode_barrier_request_into(&mut wire, [9, 4, 11].into_iter(), 12);
        encode_barrier_reply_into(&mut wire, [4, 11].into_iter(), 13);

        let every_field = FlowMatch {
            in_port: Some(5),
            eth_src: Some(EthernetAddress::from_id(1)),
            eth_dst: Some(EthernetAddress::from_id(2)),
            ethertype: Some(0x0800),
            vlan: Some(Some(100)),
            epoch: Some(None),
            ipv4_src: Some("10.0.0.0/8".parse().unwrap()),
            ipv4_dst: Some("10.1.2.0/24".parse().unwrap()),
            ip_proto: Some(17),
            l4_src: Some(53),
            l4_dst: Some(5353),
        };
        wire.extend(match_bytes(&every_field));
        wire.extend(match_bytes(&FlowMatch::ANY));
        for msg in samples() {
            match msg {
                Message::FlowMod {
                    cmd: FlowModCmd::Add(spec),
                    ..
                } => wire.extend(match_bytes(&spec.matcher)),
                Message::EwEvents { entries, .. } | Message::EwSnapshot { entries, .. } => {
                    entries.iter().for_each(|e| wire.extend(ew_entry_bytes(e)));
                }
                Message::IntentAppend { entries, .. } => {
                    entries
                        .iter()
                        .for_each(|e| wire.extend(intent_entry_bytes(e)));
                }
                Message::IntentCatchup {
                    snap_state,
                    entries,
                    ..
                } => {
                    for e in snap_state.iter().chain(&entries) {
                        wire.extend(intent_entry_bytes(e));
                    }
                }
                _ => {}
            }
        }
        assert_eq!((wire.len(), fnv1a(&wire)), (2594, 0x1597_d88c_5ae8_51cf));
    }

    /// The samples span every wire type id but the retired 21, so the
    /// pin above covers every message type.
    #[test]
    fn every_type_id_has_a_sample() {
        let mut ids: Vec<u8> = samples().iter().map(Message::type_id).collect();
        ids.sort_unstable();
        ids.dedup();
        let live: Vec<u8> = (0..=30).filter(|&id| id != 21).collect();
        assert_eq!(ids, live);
    }

    #[test]
    fn truncation_errors_carry_offsets() {
        let bytes = encode(&Message::EchoRequest { token: 7 }, 1);
        // A stream cut mid-frame reports the whole-frame shortfall.
        let err = decode(&bytes[..HEADER_LEN + 3]).unwrap_err();
        assert!(err.is_truncated());
        assert_eq!(
            err,
            CodecError::Truncated {
                offset: 0,
                needed: bytes.len(),
                available: HEADER_LEN + 3,
            }
        );
        // A corrupted length field that cuts the body mid-token
        // reports the absolute offset of the failing read.
        let mut short = bytes.clone();
        short[2..6].copy_from_slice(&((HEADER_LEN + 3) as u32).to_be_bytes());
        assert_eq!(
            decode(&short).unwrap_err(),
            CodecError::Truncated {
                offset: HEADER_LEN,
                needed: 8,
                available: 3,
            }
        );
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = encode(&Message::BarrierRequest { xids: vec![] }, 1);
        bytes[0] = 99;
        assert_eq!(
            decode(&bytes).unwrap_err(),
            CodecError::BadVersion { found: 99 }
        );
    }

    #[test]
    fn rejects_unknown_type() {
        let mut bytes = encode(&Message::BarrierRequest { xids: vec![] }, 1);
        bytes[1] = 200;
        assert_eq!(
            decode(&bytes).unwrap_err(),
            CodecError::UnknownType { found: 200 }
        );
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = encode(
            &Message::FlowMod {
                table_id: 0,
                cmd: FlowModCmd::Add(spec_sample()),
            },
            7,
        );
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "decode succeeded at cut {cut}"
            );
        }
    }

    /// Fuzz-style truncation sweep over the new table-pressure frames:
    /// every proper prefix of a TABLE_FULL error, an Eviction
    /// FLOW_REMOVED, and the split-eviction cache stats reply must
    /// decode to an error, never a panic or a bogus success.
    #[test]
    fn rejects_truncated_table_pressure_frames() {
        let frames = [
            encode(
                &Message::Error {
                    code: ErrorCode::TableFull,
                    data: 41u32.to_be_bytes().to_vec(),
                },
                41,
            ),
            encode(
                &Message::FlowRemoved {
                    table_id: 0,
                    priority: 100,
                    cookie: 0x5eac_0001,
                    reason: RemovedReason::Eviction,
                    packets: 3,
                    bytes: 180,
                },
                42,
            ),
            encode(
                &Message::StatsReply {
                    body: StatsBody::Table(vec![TableStats {
                        table_id: 0,
                        active: 256,
                        max_entries: 256,
                        hits: 9,
                        misses: 1,
                        evictions: 17,
                        refusals: 0,
                    }]),
                },
                43,
            ),
            encode(
                &Message::StatsReply {
                    body: StatsBody::Cache(CacheStatsRec {
                        micro_hits: 1,
                        mega_hits: 2,
                        misses: 3,
                        inserts: 4,
                        invalidations: 5,
                        micro_evictions: 6,
                        mega_evictions: 7,
                        generation: 8,
                        entries: 9,
                    }),
                },
                44,
            ),
        ];
        for (i, bytes) in frames.iter().enumerate() {
            for cut in 0..bytes.len() {
                assert!(
                    decode(&bytes[..cut]).is_err(),
                    "frame {i}: decode succeeded at cut {cut}"
                );
            }
            // The intact frame still parses (the sweep is not vacuous).
            assert!(decode(bytes).is_ok(), "frame {i}: intact decode failed");
        }
    }

    /// An unknown FLOW_REMOVED reason byte must be rejected, not mapped
    /// onto some near miss.
    #[test]
    fn rejects_unknown_removed_reason() {
        let mut bytes = encode(
            &Message::FlowRemoved {
                table_id: 0,
                priority: 1,
                cookie: 0,
                reason: RemovedReason::Eviction,
                packets: 0,
                bytes: 0,
            },
            1,
        );
        // reason byte sits after header + table_id(1) + priority(2) + cookie(8)
        let at = HEADER_LEN + 1 + 2 + 8;
        assert_eq!(bytes[at], 3, "layout assumption");
        bytes[at] = 4;
        assert_eq!(
            decode(&bytes).unwrap_err(),
            CodecError::BadTag {
                field: "flow_removed.reason",
                value: 4,
                offset: at,
            }
        );
    }

    #[test]
    fn rejects_trailing_garbage_inside_frame() {
        let mut bytes = encode(&Message::BarrierRequest { xids: vec![] }, 1);
        // Claim a longer body than the message has.
        bytes.extend_from_slice(&[0; 4]);
        let len = bytes.len() as u32;
        bytes[2..6].copy_from_slice(&len.to_be_bytes());
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            CodecError::TrailingBytes { trailing: 4, .. }
        ));
    }

    /// `frames` yields every frame of a delivery in order with its xid,
    /// and a damaged frame is its last item: what follows it is not
    /// read, however well-formed.
    #[test]
    fn frames_walk_a_delivery_and_stop_at_damage() {
        let msgs = samples();
        let mut delivery = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            encode_into(&mut delivery, m, i as u32);
        }
        let got: Vec<(Message, u32)> = frames(&delivery)
            .map(|f| f.map(|(view, xid)| (view.into_message(), xid)))
            .collect::<Result<_>>()
            .unwrap();
        let sent: Vec<(Message, u32)> = msgs.into_iter().zip(0..).collect();
        assert_eq!(got, sent);

        let mut bad = encode(&Message::EchoRequest { token: 7 }, 1);
        bad[2..6].copy_from_slice(&3u32.to_be_bytes()); // length < header
        bad.extend(encode(&Message::EchoReply { token: 7 }, 2));
        let walked: Vec<_> = frames(&bad).collect();
        assert_eq!(walked, [Err(CodecError::BadLength { claimed: 3 })]);
    }
}
