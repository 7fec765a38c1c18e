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

// ---------------------------------------------------------------- writer

/// Big-endian append helpers over a plain `Vec<u8>`; the encoder needs
/// nothing more than this, so the workspace carries no buffer crate.
trait Put {
    fn put_u8(&mut self, v: u8);
    fn put_u16(&mut self, v: u16);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    fn put_slice(&mut self, s: &[u8]);
}

impl Put for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

// ---------------------------------------------------------------- reader

/// A bounds-checked cursor over a message body. `base` is the body's
/// absolute offset within the frame, so errors report frame offsets.
struct Rd<'a> {
    buf: &'a [u8],
    at: usize,
    base: usize,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8], base: usize) -> Rd<'a> {
        Rd { buf, at: 0, base }
    }

    /// Absolute frame offset of the next unread byte.
    fn pos(&self) -> usize {
        self.base + self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.at + n > self.buf.len() {
            return Err(CodecError::Truncated {
                offset: self.pos(),
                needed: n,
                available: self.buf.len() - self.at,
            });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn mac(&mut self) -> Result<EthernetAddress> {
        Ok(EthernetAddress::from_bytes(self.take(6)?))
    }

    fn ip(&mut self) -> Result<Ipv4Address> {
        Ok(Ipv4Address::from_bytes(self.take(4)?))
    }

    fn cidr(&mut self, field: &'static str) -> Result<Ipv4Cidr> {
        let offset = self.pos();
        let addr = self.ip()?;
        let plen = self.u8()?;
        Ipv4Cidr::new(addr, plen).map_err(|_| CodecError::BadField { field, offset })
    }

    fn finish(&self) -> Result<()> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                offset: self.pos(),
                trailing: self.buf.len() - self.at,
            })
        }
    }
}

// ------------------------------------------------------------ sub-codecs

fn put_match(out: &mut Vec<u8>, m: &FlowMatch) {
    let mut bits = 0u16;
    for (i, present) in [
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
    ]
    .into_iter()
    .enumerate()
    {
        if present {
            bits |= 1 << i;
        }
    }
    out.put_u16(bits);
    if let Some(p) = m.in_port {
        out.put_u32(p);
    }
    if let Some(a) = m.eth_src {
        out.put_slice(a.as_bytes());
    }
    if let Some(a) = m.eth_dst {
        out.put_slice(a.as_bytes());
    }
    if let Some(t) = m.ethertype {
        out.put_u16(t);
    }
    if let Some(v) = m.vlan {
        match v {
            Some(vid) => {
                out.put_u8(1);
                out.put_u16(vid);
            }
            None => {
                out.put_u8(0);
                out.put_u16(0);
            }
        }
    }
    if let Some(c) = m.ipv4_src {
        out.put_slice(c.address().as_bytes());
        out.put_u8(c.prefix_len());
    }
    if let Some(c) = m.ipv4_dst {
        out.put_slice(c.address().as_bytes());
        out.put_u8(c.prefix_len());
    }
    if let Some(p) = m.ip_proto {
        out.put_u8(p);
    }
    if let Some(p) = m.l4_src {
        out.put_u16(p);
    }
    if let Some(p) = m.l4_dst {
        out.put_u16(p);
    }
    if let Some(e) = m.epoch {
        match e {
            Some(tag) => {
                out.put_u8(1);
                out.put_u16(tag);
            }
            None => {
                out.put_u8(0);
                out.put_u16(0);
            }
        }
    }
}

fn get_match(rd: &mut Rd<'_>) -> Result<FlowMatch> {
    let bits_at = rd.pos();
    let bits = rd.u16()?;
    if bits >> 11 != 0 {
        return Err(CodecError::BadTag {
            field: "match.fields",
            value: bits as u32,
            offset: bits_at,
        });
    }
    let mut m = FlowMatch::ANY;
    if bits & (1 << 0) != 0 {
        m.in_port = Some(rd.u32()?);
    }
    if bits & (1 << 1) != 0 {
        m.eth_src = Some(rd.mac()?);
    }
    if bits & (1 << 2) != 0 {
        m.eth_dst = Some(rd.mac()?);
    }
    if bits & (1 << 3) != 0 {
        m.ethertype = Some(rd.u16()?);
    }
    if bits & (1 << 4) != 0 {
        let tagged_at = rd.pos();
        let tagged = rd.u8()?;
        let vid = rd.u16()?;
        m.vlan = Some(match tagged {
            0 => None,
            1 => Some(vid),
            other => {
                return Err(CodecError::BadTag {
                    field: "match.vlan_tagged",
                    value: other as u32,
                    offset: tagged_at,
                })
            }
        });
    }
    if bits & (1 << 5) != 0 {
        m.ipv4_src = Some(rd.cidr("match.ipv4_src")?);
    }
    if bits & (1 << 6) != 0 {
        m.ipv4_dst = Some(rd.cidr("match.ipv4_dst")?);
    }
    if bits & (1 << 7) != 0 {
        m.ip_proto = Some(rd.u8()?);
    }
    if bits & (1 << 8) != 0 {
        m.l4_src = Some(rd.u16()?);
    }
    if bits & (1 << 9) != 0 {
        m.l4_dst = Some(rd.u16()?);
    }
    if bits & (1 << 10) != 0 {
        let stamped_at = rd.pos();
        let stamped = rd.u8()?;
        let tag = rd.u16()?;
        m.epoch = Some(match stamped {
            0 => None,
            1 => Some(tag),
            other => {
                return Err(CodecError::BadTag {
                    field: "match.epoch_stamped",
                    value: other as u32,
                    offset: stamped_at,
                })
            }
        });
    }
    Ok(m)
}

fn put_action(out: &mut Vec<u8>, a: &Action) {
    match *a {
        Action::Output(p) => {
            out.put_u8(0);
            out.put_u32(p);
        }
        Action::Flood => out.put_u8(1),
        Action::ToController { max_len } => {
            out.put_u8(2);
            out.put_u16(max_len);
        }
        Action::SetEthSrc(mac) => {
            out.put_u8(3);
            out.put_slice(mac.as_bytes());
        }
        Action::SetEthDst(mac) => {
            out.put_u8(4);
            out.put_slice(mac.as_bytes());
        }
        Action::SetIpv4Src(ip) => {
            out.put_u8(5);
            out.put_slice(ip.as_bytes());
        }
        Action::SetIpv4Dst(ip) => {
            out.put_u8(6);
            out.put_slice(ip.as_bytes());
        }
        Action::SetDscp(v) => {
            out.put_u8(7);
            out.put_u8(v);
        }
        Action::DecTtl => out.put_u8(8),
        Action::PushVlan(vid) => {
            out.put_u8(9);
            out.put_u16(vid);
        }
        Action::PopVlan => out.put_u8(10),
        Action::Group(id) => {
            out.put_u8(11);
            out.put_u32(id);
        }
        Action::Meter(id) => {
            out.put_u8(12);
            out.put_u32(id);
        }
        Action::SetEpoch(tag) => {
            out.put_u8(13);
            out.put_u16(tag);
        }
        Action::PopEpoch => out.put_u8(14),
    }
}

fn get_action(rd: &mut Rd<'_>) -> Result<Action> {
    let tag_at = rd.pos();
    Ok(match rd.u8()? {
        0 => Action::Output(rd.u32()?),
        1 => Action::Flood,
        2 => Action::ToController { max_len: rd.u16()? },
        3 => Action::SetEthSrc(rd.mac()?),
        4 => Action::SetEthDst(rd.mac()?),
        5 => Action::SetIpv4Src(rd.ip()?),
        6 => Action::SetIpv4Dst(rd.ip()?),
        7 => Action::SetDscp(rd.u8()?),
        8 => Action::DecTtl,
        9 => Action::PushVlan(rd.u16()?),
        10 => Action::PopVlan,
        11 => Action::Group(rd.u32()?),
        12 => Action::Meter(rd.u32()?),
        13 => Action::SetEpoch(rd.u16()?),
        14 => Action::PopEpoch,
        other => {
            return Err(CodecError::BadTag {
                field: "action.kind",
                value: other as u32,
                offset: tag_at,
            })
        }
    })
}

fn put_actions(out: &mut Vec<u8>, actions: &[Action]) {
    out.put_u16(actions.len() as u16);
    for a in actions {
        put_action(out, a);
    }
}

/// Reject a claimed element count the remaining body cannot possibly
/// hold (every element is at least one byte) — before allocating.
fn check_count(rd: &Rd<'_>, field: &'static str, n: usize) -> Result<()> {
    let capacity = rd.buf.len() - rd.at;
    if n > capacity {
        return Err(CodecError::CountOverflow {
            field,
            count: n,
            capacity,
        });
    }
    Ok(())
}

fn get_actions(rd: &mut Rd<'_>) -> Result<Vec<Action>> {
    let n = rd.u16()? as usize;
    check_count(rd, "actions", n)?;
    let mut actions = Vec::with_capacity(n);
    for _ in 0..n {
        actions.push(get_action(rd)?);
    }
    Ok(actions)
}

fn put_spec(out: &mut Vec<u8>, spec: &FlowSpec) {
    out.put_u16(spec.priority);
    out.put_u16(spec.importance);
    out.put_u64(spec.cookie);
    out.put_u64(spec.idle_timeout);
    out.put_u64(spec.hard_timeout);
    out.put_u8(spec.goto_table.unwrap_or(0xff));
    put_match(out, &spec.matcher);
    put_actions(out, &spec.actions);
}

fn get_spec(rd: &mut Rd<'_>) -> Result<FlowSpec> {
    let priority = rd.u16()?;
    let importance = rd.u16()?;
    let cookie = rd.u64()?;
    let idle_timeout = rd.u64()?;
    let hard_timeout = rd.u64()?;
    let goto = rd.u8()?;
    let matcher = get_match(rd)?;
    let actions = get_actions(rd)?;
    Ok(FlowSpec {
        priority,
        matcher,
        actions,
        goto_table: if goto == 0xff { None } else { Some(goto) },
        cookie,
        idle_timeout,
        hard_timeout,
        importance,
    })
}

fn put_group(out: &mut Vec<u8>, desc: &GroupDesc) {
    out.put_u8(match desc.group_type {
        GroupType::All => 0,
        GroupType::Select => 1,
        GroupType::FastFailover => 2,
    });
    out.put_u16(desc.buckets.len() as u16);
    for bucket in &desc.buckets {
        out.put_u32(bucket.watch_port.unwrap_or(0));
        put_actions(out, &bucket.actions);
    }
}

fn get_group(rd: &mut Rd<'_>) -> Result<GroupDesc> {
    let tag_at = rd.pos();
    let group_type = match rd.u8()? {
        0 => GroupType::All,
        1 => GroupType::Select,
        2 => GroupType::FastFailover,
        other => {
            return Err(CodecError::BadTag {
                field: "group.type",
                value: other as u32,
                offset: tag_at,
            })
        }
    };
    let n = rd.u16()? as usize;
    check_count(rd, "group.buckets", n)?;
    let mut buckets = Vec::with_capacity(n);
    for _ in 0..n {
        let watch = rd.u32()?;
        let actions = get_actions(rd)?;
        buckets.push(Bucket {
            actions,
            watch_port: if watch == 0 { None } else { Some(watch) },
        });
    }
    Ok(GroupDesc {
        group_type,
        buckets,
    })
}

fn put_role(out: &mut Vec<u8>, role: Role) {
    out.put_u8(match role {
        Role::Master => 0,
        Role::Equal => 1,
        Role::Slave => 2,
    });
}

fn get_role(rd: &mut Rd<'_>) -> Result<Role> {
    let tag_at = rd.pos();
    Ok(match rd.u8()? {
        0 => Role::Master,
        1 => Role::Equal,
        2 => Role::Slave,
        other => {
            return Err(CodecError::BadTag {
                field: "role",
                value: other as u32,
                offset: tag_at,
            })
        }
    })
}

fn put_view_event(out: &mut Vec<u8>, event: &ViewEvent) {
    match event {
        ViewEvent::LinkAdd {
            from_dpid,
            from_port,
            to_dpid,
            to_port,
        } => {
            out.put_u8(0);
            out.put_u64(*from_dpid);
            out.put_u32(*from_port);
            out.put_u64(*to_dpid);
            out.put_u32(*to_port);
        }
        ViewEvent::LinkDel {
            from_dpid,
            from_port,
        } => {
            out.put_u8(1);
            out.put_u64(*from_dpid);
            out.put_u32(*from_port);
        }
        ViewEvent::HostLearned {
            mac,
            dpid,
            port,
            ip,
        } => {
            out.put_u8(2);
            out.put_slice(mac.as_bytes());
            out.put_u64(*dpid);
            out.put_u32(*port);
            match ip {
                Some(addr) => {
                    out.put_u8(1);
                    out.put_slice(addr.as_bytes());
                }
                None => out.put_u8(0),
            }
        }
        ViewEvent::ShadowSet { dpid, cookies } => {
            out.put_u8(3);
            out.put_u64(*dpid);
            out.put_u32(cookies.len() as u32);
            for c in cookies {
                out.put_u64(c.cookie);
                out.put_u32(c.count);
            }
        }
        ViewEvent::ProgramStamp { dpid, cookie, hash } => {
            out.put_u8(4);
            out.put_u64(*dpid);
            out.put_u64(*cookie);
            out.put_u64(*hash);
        }
    }
}

fn get_view_event(rd: &mut Rd<'_>) -> Result<ViewEvent> {
    let tag_at = rd.pos();
    Ok(match rd.u8()? {
        0 => ViewEvent::LinkAdd {
            from_dpid: rd.u64()?,
            from_port: rd.u32()?,
            to_dpid: rd.u64()?,
            to_port: rd.u32()?,
        },
        1 => ViewEvent::LinkDel {
            from_dpid: rd.u64()?,
            from_port: rd.u32()?,
        },
        2 => {
            let mac = rd.mac()?;
            let dpid = rd.u64()?;
            let port = rd.u32()?;
            let flag_at = rd.pos();
            let ip = match rd.u8()? {
                0 => None,
                1 => Some(rd.ip()?),
                other => {
                    return Err(CodecError::BadTag {
                        field: "view_event.ip_present",
                        value: other as u32,
                        offset: flag_at,
                    })
                }
            };
            ViewEvent::HostLearned {
                mac,
                dpid,
                port,
                ip,
            }
        }
        3 => {
            let dpid = rd.u64()?;
            let n = rd.u32()? as usize;
            check_count(rd, "view_event.cookies", n)?;
            let mut cookies = Vec::with_capacity(n);
            for _ in 0..n {
                cookies.push(CookieCount {
                    cookie: rd.u64()?,
                    count: rd.u32()?,
                });
            }
            ViewEvent::ShadowSet { dpid, cookies }
        }
        4 => ViewEvent::ProgramStamp {
            dpid: rd.u64()?,
            cookie: rd.u64()?,
            hash: rd.u64()?,
        },
        other => {
            return Err(CodecError::BadTag {
                field: "view_event.kind",
                value: other as u32,
                offset: tag_at,
            })
        }
    })
}

fn put_ew_entry(out: &mut Vec<u8>, entry: &EwEntry) {
    out.put_u32(entry.origin);
    out.put_u64(entry.seq);
    out.put_u64(entry.term);
    put_view_event(out, &entry.event);
}

fn get_ew_entry(rd: &mut Rd<'_>) -> Result<EwEntry> {
    Ok(EwEntry {
        origin: rd.u32()?,
        seq: rd.u64()?,
        term: rd.u64()?,
        event: get_view_event(rd)?,
    })
}

/// The canonical wire bytes of one east-west entry — the byte string
/// the anti-entropy chain hash folds over, so replicas comparing
/// digests agree on the exact bytes being summarized.
pub fn ew_entry_bytes(entry: &EwEntry) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    put_ew_entry(&mut out, entry);
    out
}

/// The canonical wire bytes of one flow match (used as a stable state
/// key for ACL intents).
pub fn match_bytes(m: &FlowMatch) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    put_match(&mut out, m);
    out
}

fn put_origin_head(out: &mut Vec<u8>, h: &OriginHead) {
    out.put_u32(h.origin);
    out.put_u64(h.floor);
    out.put_u64(h.head);
    out.put_u64(h.hash);
}

fn get_origin_head(rd: &mut Rd<'_>) -> Result<OriginHead> {
    Ok(OriginHead {
        origin: rd.u32()?,
        floor: rd.u64()?,
        head: rd.u64()?,
        hash: rd.u64()?,
    })
}

fn put_intent(out: &mut Vec<u8>, intent: &Intent) {
    match intent {
        Intent::Noop => out.put_u8(0),
        Intent::AclDeny {
            priority,
            matcher,
            install,
        } => {
            out.put_u8(1);
            out.put_u16(*priority);
            put_match(out, matcher);
            out.put_u8(u8::from(*install));
        }
        Intent::MastershipPin {
            dpid,
            replica,
            pinned,
        } => {
            out.put_u8(2);
            out.put_u64(*dpid);
            out.put_u32(*replica);
            out.put_u8(u8::from(*pinned));
        }
    }
}

fn get_intent(rd: &mut Rd<'_>) -> Result<Intent> {
    let tag_at = rd.pos();
    Ok(match rd.u8()? {
        0 => Intent::Noop,
        1 => Intent::AclDeny {
            priority: rd.u16()?,
            matcher: get_match(rd)?,
            install: rd.u8()? != 0,
        },
        2 => Intent::MastershipPin {
            dpid: rd.u64()?,
            replica: rd.u32()?,
            pinned: rd.u8()? != 0,
        },
        other => {
            return Err(CodecError::BadTag {
                field: "intent.kind",
                value: other as u32,
                offset: tag_at,
            })
        }
    })
}

fn put_intent_entry(out: &mut Vec<u8>, entry: &IntentEntry) {
    out.put_u64(entry.index);
    out.put_u64(entry.term);
    out.put_u32(entry.origin);
    out.put_u64(entry.token);
    put_intent(out, &entry.intent);
}

fn get_intent_entry(rd: &mut Rd<'_>) -> Result<IntentEntry> {
    Ok(IntentEntry {
        index: rd.u64()?,
        term: rd.u64()?,
        origin: rd.u32()?,
        token: rd.u64()?,
        intent: get_intent(rd)?,
    })
}

/// The canonical wire bytes of one intent-log entry — the byte string
/// snapshot checksums fold over.
pub fn intent_entry_bytes(entry: &IntentEntry) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    put_intent_entry(&mut out, entry);
    out
}

fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    out.put_u32(data.len() as u32);
    out.put_slice(data);
}

/// A counted list of xids. The count is patched in behind the list, so
/// a sender can filter as it writes.
fn put_xids(out: &mut Vec<u8>, xids: impl Iterator<Item = u32>) {
    let count_at = out.len();
    out.put_u32(0);
    let mut count = 0u32;
    for x in xids {
        out.put_u32(x);
        count += 1;
    }
    out[count_at..count_at + 4].copy_from_slice(&count.to_be_bytes());
}

/// The bytes of a list of `n` elements, as a view of the receive
/// buffer. Each is read once here, by `element`, so a list cut short
/// reports the element that is cut and reading the view later cannot
/// fail.
fn get_list_view<'a, T>(
    rd: &mut Rd<'a>,
    field: &'static str,
    n: usize,
    element: impl Fn(&mut Rd<'a>) -> Result<T>,
) -> Result<&'a [u8]> {
    check_count(rd, field, n)?;
    let start = rd.at;
    for _ in 0..n {
        element(rd)?;
    }
    Ok(&rd.buf[start..rd.at])
}

/// Length-prefixed bytes as a borrowed slice of the receive buffer —
/// the zero-copy primitive behind [`MessageView`].
fn get_bytes_view<'a>(rd: &mut Rd<'a>) -> Result<&'a [u8]> {
    let n = rd.u32()? as usize;
    rd.take(n)
}

// ------------------------------------------------------------- messages

/// Append one frame to `out`: the header, then whatever `body` writes.
/// The length field counts from the frame's own first byte, so a frame
/// may follow others already in the buffer.
fn put_frame(out: &mut Vec<u8>, type_id: u8, xid: u32, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.put_u8(VERSION);
    out.put_u8(type_id);
    out.put_u32(0); // length patched below
    out.put_u32(xid);
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
    put_frame(out, msg.type_id(), xid, |out| put_body(out, msg));
}

/// The payload of `msg` (everything after the header).
fn put_body(out: &mut Vec<u8>, msg: &Message) {
    match msg {
        Message::Hello { version } => out.put_u8(*version),
        Message::Error { code, data } => {
            out.put_u16(match code {
                ErrorCode::HelloFailed => 0,
                ErrorCode::BadRequest => 1,
                ErrorCode::TableFull => 2,
                ErrorCode::NotMaster => 3,
            });
            put_bytes(out, data);
        }
        Message::EchoRequest { token } | Message::EchoReply { token } => out.put_u64(*token),
        Message::FeaturesRequest => {}
        Message::BarrierRequest { xids: list } | Message::BarrierReply { applied: list } => {
            put_xids(out, list.iter().copied());
        }
        Message::FeaturesReply {
            dpid,
            n_tables,
            ports,
        } => {
            out.put_u64(*dpid);
            out.put_u8(*n_tables);
            out.put_u16(ports.len() as u16);
            for p in ports {
                out.put_u32(p.port_no);
                out.put_u8(u8::from(p.up));
            }
        }
        Message::PacketIn {
            in_port,
            table_id,
            is_miss,
            frame,
        } => {
            out.put_u32(*in_port);
            out.put_u8(*table_id);
            out.put_u8(u8::from(*is_miss));
            put_bytes(out, frame);
        }
        Message::PacketOut {
            in_port,
            actions,
            frame,
        } => {
            out.put_u32(*in_port);
            put_actions(out, actions);
            put_bytes(out, frame);
        }
        Message::FlowMod { table_id, cmd } => {
            out.put_u8(*table_id);
            match cmd {
                FlowModCmd::Add(spec) => {
                    out.put_u8(0);
                    put_spec(out, spec);
                }
                FlowModCmd::DeleteStrict { priority, matcher } => {
                    out.put_u8(1);
                    out.put_u16(*priority);
                    put_match(out, matcher);
                }
                FlowModCmd::DeleteByCookie { cookie } => {
                    out.put_u8(2);
                    out.put_u64(*cookie);
                }
            }
        }
        Message::GroupMod { group_id, cmd } => {
            out.put_u32(*group_id);
            match cmd {
                GroupModCmd::Add(desc) => {
                    out.put_u8(0);
                    put_group(out, desc);
                }
                GroupModCmd::Delete => out.put_u8(1),
            }
        }
        Message::MeterMod { meter_id, cmd } => {
            out.put_u32(*meter_id);
            match cmd {
                MeterModCmd::Add {
                    rate_bps,
                    burst_bytes,
                } => {
                    out.put_u8(0);
                    out.put_u64(*rate_bps);
                    out.put_u64(*burst_bytes);
                }
                MeterModCmd::Delete => out.put_u8(1),
            }
        }
        Message::PortStatus { port } => {
            out.put_u32(port.port_no);
            out.put_u8(u8::from(port.up));
        }
        Message::FlowRemoved {
            table_id,
            priority,
            cookie,
            reason,
            packets,
            bytes,
        } => {
            out.put_u8(*table_id);
            out.put_u16(*priority);
            out.put_u64(*cookie);
            out.put_u8(match reason {
                RemovedReason::IdleTimeout => 0,
                RemovedReason::HardTimeout => 1,
                RemovedReason::Delete => 2,
                RemovedReason::Eviction => 3,
            });
            out.put_u64(*packets);
            out.put_u64(*bytes);
        }
        Message::StatsRequest { kind } => match kind {
            StatsKind::Flow { table_id } => {
                out.put_u8(0);
                out.put_u8(*table_id);
            }
            StatsKind::Port { port_no } => {
                out.put_u8(1);
                out.put_u32(*port_no);
            }
            StatsKind::Table => out.put_u8(2),
            StatsKind::Cache => out.put_u8(3),
        },
        Message::StatsReply { body } => match body {
            StatsBody::Flow(records) => {
                out.put_u8(0);
                out.put_u32(records.len() as u32);
                for r in records {
                    out.put_u8(r.table_id);
                    out.put_u16(r.priority);
                    out.put_u64(r.cookie);
                    out.put_u64(r.packets);
                    out.put_u64(r.bytes);
                }
            }
            StatsBody::Port(records) => {
                out.put_u8(1);
                out.put_u32(records.len() as u32);
                for r in records {
                    out.put_u32(r.port_no);
                    out.put_u64(r.rx_frames);
                    out.put_u64(r.rx_bytes);
                    out.put_u64(r.tx_frames);
                    out.put_u64(r.tx_bytes);
                }
            }
            StatsBody::Table(records) => {
                out.put_u8(2);
                out.put_u32(records.len() as u32);
                for r in records {
                    out.put_u8(r.table_id);
                    out.put_u32(r.active);
                    out.put_u32(r.max_entries);
                    out.put_u64(r.hits);
                    out.put_u64(r.misses);
                    out.put_u64(r.evictions);
                    out.put_u64(r.refusals);
                }
            }
            StatsBody::Cache(r) => {
                out.put_u8(3);
                out.put_u32(1); // record count, for framing symmetry
                out.put_u64(r.micro_hits);
                out.put_u64(r.mega_hits);
                out.put_u64(r.misses);
                out.put_u64(r.inserts);
                out.put_u64(r.invalidations);
                out.put_u64(r.micro_evictions);
                out.put_u64(r.mega_evictions);
                out.put_u64(r.generation);
                out.put_u64(r.entries);
            }
        },
        Message::HelloResync {
            generation,
            cookies,
        } => {
            out.put_u64(*generation);
            out.put_u32(cookies.len() as u32);
            for c in cookies {
                out.put_u64(c.cookie);
                out.put_u32(c.count);
            }
        }
        Message::ResyncRequest => {}
        Message::RoleRequest {
            role,
            term,
            replica,
        }
        | Message::RoleReply {
            role,
            term,
            replica,
        } => {
            put_role(out, *role);
            out.put_u64(*term);
            out.put_u32(*replica);
        }
        Message::EwHeartbeat {
            replica,
            term,
            acks,
        } => {
            out.put_u32(*replica);
            out.put_u64(*term);
            out.put_u32(acks.len() as u32);
            for &(origin, seq) in acks {
                out.put_u32(origin);
                out.put_u64(seq);
            }
        }
        Message::EwEvents { replica, entries } => {
            out.put_u32(*replica);
            out.put_u32(entries.len() as u32);
            for entry in entries {
                put_ew_entry(out, entry);
            }
        }
        Message::EwDigest {
            replica,
            term,
            heads,
        } => {
            out.put_u32(*replica);
            out.put_u64(*term);
            out.put_u32(heads.len() as u32);
            for h in heads {
                put_origin_head(out, h);
            }
        }
        Message::EwFetch { replica, ranges } => {
            out.put_u32(*replica);
            out.put_u32(ranges.len() as u32);
            for &(origin, from, to) in ranges {
                out.put_u32(origin);
                out.put_u64(from);
                out.put_u64(to);
            }
        }
        Message::EwSnapshot {
            replica,
            heads,
            entries,
            checksum,
        } => {
            out.put_u32(*replica);
            out.put_u32(heads.len() as u32);
            for h in heads {
                put_origin_head(out, h);
            }
            out.put_u32(entries.len() as u32);
            for entry in entries {
                put_ew_entry(out, entry);
            }
            out.put_u64(*checksum);
        }
        Message::IntentPropose {
            replica,
            token,
            intent,
        } => {
            out.put_u32(*replica);
            out.put_u64(*token);
            put_intent(out, intent);
        }
        Message::IntentAppend {
            leader,
            term,
            prev_index,
            prev_term,
            commit,
            entries,
        } => {
            out.put_u32(*leader);
            out.put_u64(*term);
            out.put_u64(*prev_index);
            out.put_u64(*prev_term);
            out.put_u64(*commit);
            out.put_u32(entries.len() as u32);
            for entry in entries {
                put_intent_entry(out, entry);
            }
        }
        Message::IntentAck {
            replica,
            term,
            match_index,
            success,
        } => {
            out.put_u32(*replica);
            out.put_u64(*term);
            out.put_u64(*match_index);
            out.put_u8(u8::from(*success));
        }
        Message::IntentFetch {
            replica,
            term,
            from_index,
        } => {
            out.put_u32(*replica);
            out.put_u64(*term);
            out.put_u64(*from_index);
        }
        Message::IntentCatchup {
            replica,
            term,
            snap_index,
            snap_term,
            snap_state,
            snap_tokens,
            entries,
            commit,
            checksum,
        } => {
            out.put_u32(*replica);
            out.put_u64(*term);
            out.put_u64(*snap_index);
            out.put_u64(*snap_term);
            out.put_u32(snap_state.len() as u32);
            for entry in snap_state {
                put_intent_entry(out, entry);
            }
            out.put_u32(snap_tokens.len() as u32);
            for &(origin, token) in snap_tokens {
                out.put_u32(origin);
                out.put_u64(token);
            }
            out.put_u32(entries.len() as u32);
            for entry in entries {
                put_intent_entry(out, entry);
            }
            out.put_u64(*commit);
            out.put_u64(*checksum);
        }
    }
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
    // 7 is Message::PacketOut's type id.
    put_frame(out, 7, xid, |out| {
        out.put_u32(in_port);
        put_actions(out, actions);
        put_bytes(out, frame);
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
    // 13 is Message::BarrierRequest's type id.
    put_frame(out, 13, xid, |out| put_xids(out, xids));
}

/// Append a BARRIER_REPLY listing `applied` to `out`, byte-identical to
/// `encode_into(out, &Message::BarrierReply { applied }, xid)`: an agent
/// answers a fence by filtering the request's list straight into the
/// channel.
pub fn encode_barrier_reply_into(out: &mut Vec<u8>, applied: impl Iterator<Item = u32>, xid: u32) {
    // 14 is Message::BarrierReply's type id.
    put_frame(out, 14, xid, |out| put_xids(out, applied));
}

/// The xid list of a BARRIER_REQUEST or BARRIER_REPLY, borrowed from
/// the receive buffer. [`decode_view`] has checked that every xid the
/// count announces is there, so reading the list cannot fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XidList<'a>(&'a [u8]);

impl<'a> XidList<'a> {
    /// The xids, in wire order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = u32> + Clone + 'a {
        let xid = |b: &[u8]| u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        self.0.chunks_exact(4).map(xid)
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
        std::iter::from_fn(move || get_action(&mut rd).ok())
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
    if buf.len() < HEADER_LEN {
        return Err(CodecError::Truncated {
            offset: 0,
            needed: HEADER_LEN,
            available: buf.len(),
        });
    }
    let version = buf[0];
    if version != VERSION {
        return Err(CodecError::BadVersion { found: version });
    }
    let type_id = buf[1];
    let length = u32::from_be_bytes(buf[2..6].try_into().unwrap()) as usize;
    if length < HEADER_LEN {
        return Err(CodecError::BadLength { claimed: length });
    }
    if buf.len() < length {
        return Err(CodecError::Truncated {
            offset: 0,
            needed: length,
            available: buf.len(),
        });
    }
    let xid = u32::from_be_bytes(buf[6..10].try_into().unwrap());
    let mut rd = Rd::new(&buf[HEADER_LEN..length], HEADER_LEN);
    let msg = match type_id {
        0 => Message::Hello { version: rd.u8()? },
        1 => {
            let code_at = rd.pos();
            let code = match rd.u16()? {
                0 => ErrorCode::HelloFailed,
                1 => ErrorCode::BadRequest,
                2 => ErrorCode::TableFull,
                3 => ErrorCode::NotMaster,
                other => {
                    return Err(CodecError::BadTag {
                        field: "error.code",
                        value: other as u32,
                        offset: code_at,
                    })
                }
            };
            let view = MessageView::Error {
                code,
                data: get_bytes_view(&mut rd)?,
            };
            rd.finish()?;
            return Ok((view, xid, length));
        }
        2 => Message::EchoRequest { token: rd.u64()? },
        3 => Message::EchoReply { token: rd.u64()? },
        4 => Message::FeaturesRequest,
        5 => {
            let dpid = rd.u64()?;
            let n_tables = rd.u8()?;
            let n = rd.u16()? as usize;
            check_count(&rd, "features.ports", n)?;
            let mut ports = Vec::with_capacity(n);
            for _ in 0..n {
                let port_no = rd.u32()?;
                let up = rd.u8()? != 0;
                ports.push(PortDesc { port_no, up });
            }
            Message::FeaturesReply {
                dpid,
                n_tables,
                ports,
            }
        }
        6 => {
            let view = MessageView::PacketIn {
                in_port: rd.u32()?,
                table_id: rd.u8()?,
                is_miss: rd.u8()? != 0,
                frame: get_bytes_view(&mut rd)?,
            };
            rd.finish()?;
            return Ok((view, xid, length));
        }
        7 => {
            let view = MessageView::PacketOut {
                in_port: rd.u32()?,
                actions: {
                    let n = rd.u16()? as usize;
                    ActionList(get_list_view(&mut rd, "actions", n, get_action)?)
                },
                frame: get_bytes_view(&mut rd)?,
            };
            rd.finish()?;
            return Ok((view, xid, length));
        }
        8 => {
            let table_id = rd.u8()?;
            let tag_at = rd.pos();
            let cmd = match rd.u8()? {
                0 => FlowModCmd::Add(get_spec(&mut rd)?),
                1 => FlowModCmd::DeleteStrict {
                    priority: rd.u16()?,
                    matcher: get_match(&mut rd)?,
                },
                2 => FlowModCmd::DeleteByCookie { cookie: rd.u64()? },
                other => {
                    return Err(CodecError::BadTag {
                        field: "flow_mod.cmd",
                        value: other as u32,
                        offset: tag_at,
                    })
                }
            };
            Message::FlowMod { table_id, cmd }
        }
        9 => {
            let group_id = rd.u32()?;
            let tag_at = rd.pos();
            let cmd = match rd.u8()? {
                0 => GroupModCmd::Add(get_group(&mut rd)?),
                1 => GroupModCmd::Delete,
                other => {
                    return Err(CodecError::BadTag {
                        field: "group_mod.cmd",
                        value: other as u32,
                        offset: tag_at,
                    })
                }
            };
            Message::GroupMod { group_id, cmd }
        }
        10 => {
            let meter_id = rd.u32()?;
            let tag_at = rd.pos();
            let cmd = match rd.u8()? {
                0 => MeterModCmd::Add {
                    rate_bps: rd.u64()?,
                    burst_bytes: rd.u64()?,
                },
                1 => MeterModCmd::Delete,
                other => {
                    return Err(CodecError::BadTag {
                        field: "meter_mod.cmd",
                        value: other as u32,
                        offset: tag_at,
                    })
                }
            };
            Message::MeterMod { meter_id, cmd }
        }
        11 => Message::PortStatus {
            port: PortDesc {
                port_no: rd.u32()?,
                up: rd.u8()? != 0,
            },
        },
        12 => {
            let table_id = rd.u8()?;
            let priority = rd.u16()?;
            let cookie = rd.u64()?;
            let reason_at = rd.pos();
            let reason = match rd.u8()? {
                0 => RemovedReason::IdleTimeout,
                1 => RemovedReason::HardTimeout,
                2 => RemovedReason::Delete,
                3 => RemovedReason::Eviction,
                other => {
                    return Err(CodecError::BadTag {
                        field: "flow_removed.reason",
                        value: other as u32,
                        offset: reason_at,
                    })
                }
            };
            Message::FlowRemoved {
                table_id,
                priority,
                cookie,
                reason,
                packets: rd.u64()?,
                bytes: rd.u64()?,
            }
        }
        13 => {
            let n = rd.u32()? as usize;
            let xids = XidList(get_list_view(&mut rd, "barrier.xids", n, Rd::u32)?);
            rd.finish()?;
            return Ok((MessageView::BarrierRequest { xids }, xid, length));
        }
        14 => {
            let n = rd.u32()? as usize;
            let applied = XidList(get_list_view(&mut rd, "barrier.applied", n, Rd::u32)?);
            rd.finish()?;
            return Ok((MessageView::BarrierReply { applied }, xid, length));
        }
        15 => {
            let tag_at = rd.pos();
            Message::StatsRequest {
                kind: match rd.u8()? {
                    0 => StatsKind::Flow { table_id: rd.u8()? },
                    1 => StatsKind::Port { port_no: rd.u32()? },
                    2 => StatsKind::Table,
                    3 => StatsKind::Cache,
                    other => {
                        return Err(CodecError::BadTag {
                            field: "stats_request.kind",
                            value: other as u32,
                            offset: tag_at,
                        })
                    }
                },
            }
        }
        16 => {
            let tag_at = rd.pos();
            let tag = rd.u8()?;
            let count_at = rd.pos();
            let n = rd.u32()? as usize;
            check_count(&rd, "stats_reply.records", n)?;
            let body = match tag {
                0 => {
                    let mut v = Vec::with_capacity(n);
                    for _ in 0..n {
                        v.push(FlowStats {
                            table_id: rd.u8()?,
                            priority: rd.u16()?,
                            cookie: rd.u64()?,
                            packets: rd.u64()?,
                            bytes: rd.u64()?,
                        });
                    }
                    StatsBody::Flow(v)
                }
                1 => {
                    let mut v = Vec::with_capacity(n);
                    for _ in 0..n {
                        v.push(PortStatsRec {
                            port_no: rd.u32()?,
                            rx_frames: rd.u64()?,
                            rx_bytes: rd.u64()?,
                            tx_frames: rd.u64()?,
                            tx_bytes: rd.u64()?,
                        });
                    }
                    StatsBody::Port(v)
                }
                2 => {
                    let mut v = Vec::with_capacity(n);
                    for _ in 0..n {
                        v.push(TableStats {
                            table_id: rd.u8()?,
                            active: rd.u32()?,
                            max_entries: rd.u32()?,
                            hits: rd.u64()?,
                            misses: rd.u64()?,
                            evictions: rd.u64()?,
                            refusals: rd.u64()?,
                        });
                    }
                    StatsBody::Table(v)
                }
                3 => {
                    if n != 1 {
                        return Err(CodecError::BadTag {
                            field: "stats_reply.cache_count",
                            value: n as u32,
                            offset: count_at,
                        });
                    }
                    StatsBody::Cache(CacheStatsRec {
                        micro_hits: rd.u64()?,
                        mega_hits: rd.u64()?,
                        misses: rd.u64()?,
                        inserts: rd.u64()?,
                        invalidations: rd.u64()?,
                        micro_evictions: rd.u64()?,
                        mega_evictions: rd.u64()?,
                        generation: rd.u64()?,
                        entries: rd.u64()?,
                    })
                }
                other => {
                    return Err(CodecError::BadTag {
                        field: "stats_reply.kind",
                        value: other as u32,
                        offset: tag_at,
                    })
                }
            };
            Message::StatsReply { body }
        }
        17 => {
            let generation = rd.u64()?;
            let n = rd.u32()? as usize;
            check_count(&rd, "resync.cookies", n)?;
            let mut cookies = Vec::with_capacity(n);
            for _ in 0..n {
                cookies.push(CookieCount {
                    cookie: rd.u64()?,
                    count: rd.u32()?,
                });
            }
            Message::HelloResync {
                generation,
                cookies,
            }
        }
        18 => Message::ResyncRequest,
        19 => Message::RoleRequest {
            role: get_role(&mut rd)?,
            term: rd.u64()?,
            replica: rd.u32()?,
        },
        20 => Message::RoleReply {
            role: get_role(&mut rd)?,
            term: rd.u64()?,
            replica: rd.u32()?,
        },
        21 => {
            let replica = rd.u32()?;
            let term = rd.u64()?;
            let n = rd.u32()? as usize;
            check_count(&rd, "ew.acks", n)?;
            let mut acks = Vec::with_capacity(n);
            for _ in 0..n {
                let origin = rd.u32()?;
                let seq = rd.u64()?;
                acks.push((origin, seq));
            }
            Message::EwHeartbeat {
                replica,
                term,
                acks,
            }
        }
        22 => {
            let replica = rd.u32()?;
            let n = rd.u32()? as usize;
            check_count(&rd, "ew.entries", n)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(get_ew_entry(&mut rd)?);
            }
            Message::EwEvents { replica, entries }
        }
        23 => {
            let replica = rd.u32()?;
            let term = rd.u64()?;
            let n = rd.u32()? as usize;
            check_count(&rd, "ew.heads", n)?;
            let mut heads = Vec::with_capacity(n);
            for _ in 0..n {
                heads.push(get_origin_head(&mut rd)?);
            }
            Message::EwDigest {
                replica,
                term,
                heads,
            }
        }
        24 => {
            let replica = rd.u32()?;
            let n = rd.u32()? as usize;
            check_count(&rd, "ew.ranges", n)?;
            let mut ranges = Vec::with_capacity(n);
            for _ in 0..n {
                let origin = rd.u32()?;
                let from = rd.u64()?;
                let to = rd.u64()?;
                ranges.push((origin, from, to));
            }
            Message::EwFetch { replica, ranges }
        }
        25 => {
            let replica = rd.u32()?;
            let n = rd.u32()? as usize;
            check_count(&rd, "ew.snapshot_heads", n)?;
            let mut heads = Vec::with_capacity(n);
            for _ in 0..n {
                heads.push(get_origin_head(&mut rd)?);
            }
            let n = rd.u32()? as usize;
            check_count(&rd, "ew.snapshot_entries", n)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(get_ew_entry(&mut rd)?);
            }
            Message::EwSnapshot {
                replica,
                heads,
                entries,
                checksum: rd.u64()?,
            }
        }
        26 => Message::IntentPropose {
            replica: rd.u32()?,
            token: rd.u64()?,
            intent: get_intent(&mut rd)?,
        },
        27 => {
            let leader = rd.u32()?;
            let term = rd.u64()?;
            let prev_index = rd.u64()?;
            let prev_term = rd.u64()?;
            let commit = rd.u64()?;
            let n = rd.u32()? as usize;
            check_count(&rd, "intent.entries", n)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(get_intent_entry(&mut rd)?);
            }
            Message::IntentAppend {
                leader,
                term,
                prev_index,
                prev_term,
                commit,
                entries,
            }
        }
        28 => Message::IntentAck {
            replica: rd.u32()?,
            term: rd.u64()?,
            match_index: rd.u64()?,
            success: rd.u8()? != 0,
        },
        29 => Message::IntentFetch {
            replica: rd.u32()?,
            term: rd.u64()?,
            from_index: rd.u64()?,
        },
        30 => {
            let replica = rd.u32()?;
            let term = rd.u64()?;
            let snap_index = rd.u64()?;
            let snap_term = rd.u64()?;
            let n = rd.u32()? as usize;
            check_count(&rd, "intent.snap_state", n)?;
            let mut snap_state = Vec::with_capacity(n);
            for _ in 0..n {
                snap_state.push(get_intent_entry(&mut rd)?);
            }
            let n = rd.u32()? as usize;
            check_count(&rd, "intent.snap_tokens", n)?;
            let mut snap_tokens = Vec::with_capacity(n);
            for _ in 0..n {
                let origin = rd.u32()?;
                let token = rd.u64()?;
                snap_tokens.push((origin, token));
            }
            let n = rd.u32()? as usize;
            check_count(&rd, "intent.catchup_entries", n)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push(get_intent_entry(&mut rd)?);
            }
            Message::IntentCatchup {
                replica,
                term,
                snap_index,
                snap_term,
                snap_state,
                snap_tokens,
                entries,
                commit: rd.u64()?,
                checksum: rd.u64()?,
            }
        }
        other => return Err(CodecError::UnknownType { found: other }),
    };
    rd.finish()?;
    Ok((MessageView::Owned(msg), xid, length))
}

/// Reassembles framed messages from an arbitrary-boundary byte stream.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Feed received bytes.
    pub fn push(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Pop the next complete message, if any. Errors are sticky for the
    /// current message only: the bad frame is skipped by its claimed
    /// length when possible.
    #[allow(clippy::type_complexity, clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Result<(Message, u32)>> {
        if self.buf.len() < HEADER_LEN {
            return None;
        }
        let length = u32::from_be_bytes(self.buf[2..6].try_into().unwrap()) as usize;
        if length < HEADER_LEN {
            self.buf.clear(); // unrecoverable framing error
            return Some(Err(CodecError::BadLength { claimed: length }));
        }
        if self.buf.len() < length {
            return None;
        }
        let result = decode(&self.buf[..length]).map(|(m, xid, _)| (m, xid));
        self.buf.drain(..length);
        Some(result)
    }

    /// Bytes currently buffered.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zen_dataplane::FlowSpec;

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
            Message::EwHeartbeat {
                replica: 0,
                term: 2,
                acks: vec![(0, 17), (1, 0), (2, 5)],
            },
            Message::EwHeartbeat {
                replica: 2,
                term: 1,
                acks: vec![],
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

    #[test]
    fn assembler_handles_arbitrary_fragmentation() {
        let msgs = samples();
        let mut stream = Vec::new();
        for (i, m) in msgs.iter().enumerate() {
            stream.extend_from_slice(&encode(m, i as u32));
        }
        // Feed 7 bytes at a time.
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for chunk in stream.chunks(7) {
            asm.push(chunk);
            while let Some(result) = asm.next() {
                got.push(result.unwrap());
            }
        }
        assert_eq!(got.len(), msgs.len());
        for (i, (m, xid)) in got.into_iter().enumerate() {
            assert_eq!(m, msgs[i]);
            assert_eq!(xid, i as u32);
        }
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn assembler_recovers_frame_length_errors() {
        let mut asm = FrameAssembler::new();
        let mut bad = encode(&Message::BarrierRequest { xids: vec![] }, 1);
        bad[2..6].copy_from_slice(&3u32.to_be_bytes()); // length < header
        asm.push(&bad);
        assert!(matches!(
            asm.next(),
            Some(Err(CodecError::BadLength { claimed: 3 }))
        ));
        // The assembler cleared; new valid traffic parses.
        asm.push(&encode(&Message::BarrierReply { applied: vec![] }, 2));
        assert!(
            matches!(asm.next(), Some(Ok((Message::BarrierReply { applied }, 2))) if applied.is_empty())
        );
    }
}
