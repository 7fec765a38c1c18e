//! Trace identity: stable IDs that follow a probe frame across the stack.
//!
//! A trace ID must survive everything the network legitimately does to a
//! frame in flight — MAC rewrites, TTL decrements, and the truncation
//! applied when a switch punts a packet to the controller. Hashing the raw
//! frame bytes fails all three, so the ID is derived from the *probe
//! identity* carried in the UDP payload of workload probes: the magic tag,
//! the IPv4 source and destination, the probe sequence number, and the
//! emission timestamp. Those five values are written once by the emitting
//! host and never touched again, and they sit well inside the punt
//! truncation window.

use zen_wire::fnv::{fnv1a, fnv1a_fold};
use zen_wire::{ethernet, ipv4, udp};

/// Magic tag in the first four bytes of every workload probe payload
/// (ASCII `ZEN!`). Hosts write it when emitting probes; the flight
/// recorder looks for it when deriving trace IDs from frames.
pub const PROBE_MAGIC: u32 = 0x5a45_4e21;

/// Identifies one traced packet across every layer of the stack.
///
/// IDs are FNV-1a hashes of the probe identity, so independent components
/// (host, datapath, controller) derive the same ID from the same packet
/// without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl core::fmt::Display for TraceId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Derive the trace ID for a probe identified by its addresses, sequence
/// number, and emission time. This is what an emitting host calls — it
/// already holds the fields and need not re-parse its own frame.
pub fn probe_trace_id(src: u32, dst: u32, seq: u64, sent_nanos: u64) -> TraceId {
    let mut h = fnv1a(&PROBE_MAGIC.to_be_bytes());
    h = fnv1a_fold(h, &src.to_be_bytes());
    h = fnv1a_fold(h, &dst.to_be_bytes());
    h = fnv1a_fold(h, &seq.to_be_bytes());
    h = fnv1a_fold(h, &sent_nanos.to_be_bytes());
    TraceId(h)
}

/// The per-switch control-plane trace: mastership changes and other
/// switch-scoped control events share one timeline per dpid, so a reader
/// can follow a switch across controller failovers. The fixed prefix
/// keeps these IDs out of the way of probe-derived hashes (a probe would
/// have to hash into this exact 48-bit-keyed band to collide).
pub fn control_trace(dpid: u64) -> TraceId {
    TraceId(0xc0de_0000_0000_0000 | (dpid & 0x0000_ffff_ffff_ffff))
}

/// Derive the trace ID of a raw Ethernet frame, if it carries a workload
/// probe (Ethernet → IPv4 → UDP with a `PROBE_MAGIC`-tagged payload).
///
/// Returns `None` for everything else — ARP, LLDP, ICMP, and UDP traffic
/// that is not a probe. Works on punt-truncated frames as long as the
/// probe header (20 payload bytes) survives.
pub fn trace_id_for_frame(frame: &[u8]) -> Option<TraceId> {
    let eth = ethernet::Frame::new_checked(frame).ok()?;
    if eth.ethertype() != ethernet::EtherType::Ipv4 {
        return None;
    }
    let ip = ipv4::Packet::new_checked(eth.payload()).ok()?;
    if ip.protocol() != ipv4::Protocol::Udp {
        return None;
    }
    let dgram = udp::Datagram::new_checked(ip.payload()).ok()?;
    let payload = dgram.payload();
    if payload.len() < 20 {
        return None;
    }
    let magic = u32::from_be_bytes([payload[0], payload[1], payload[2], payload[3]]);
    if magic != PROBE_MAGIC {
        return None;
    }
    let seq = u64::from_be_bytes(payload[4..12].try_into().ok()?);
    let sent = u64::from_be_bytes(payload[12..20].try_into().ok()?);
    Some(probe_trace_id(
        ip.src_addr().to_u32(),
        ip.dst_addr().to_u32(),
        seq,
        sent,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zen_wire::builder::PacketBuilder;
    use zen_wire::{EthernetAddress, Ipv4Address};

    fn probe_frame(seq: u64, sent: u64) -> Vec<u8> {
        let mut payload = vec![0u8; 28];
        payload[0..4].copy_from_slice(&PROBE_MAGIC.to_be_bytes());
        payload[4..12].copy_from_slice(&seq.to_be_bytes());
        payload[12..20].copy_from_slice(&sent.to_be_bytes());
        PacketBuilder::udp(
            EthernetAddress::from_id(1),
            Ipv4Address::new(10, 0, 0, 1),
            4000,
            EthernetAddress::from_id(2),
            Ipv4Address::new(10, 0, 0, 2),
            4001,
            &payload,
        )
    }

    #[test]
    fn frame_and_field_derivations_agree() {
        let frame = probe_frame(7, 1_000_000);
        let from_frame = trace_id_for_frame(&frame).expect("probe should parse");
        let from_fields = probe_trace_id(0x0a00_0001, 0x0a00_0002, 7, 1_000_000);
        assert_eq!(from_frame, from_fields);
    }

    #[test]
    fn survives_mac_rewrite_and_ttl_decrement() {
        let mut frame = probe_frame(9, 42);
        let before = trace_id_for_frame(&frame).unwrap();
        // Rewrite both MACs and decrement the TTL, as a routed hop would.
        frame[0..6].copy_from_slice(EthernetAddress::from_id(77).as_bytes());
        frame[6..12].copy_from_slice(EthernetAddress::from_id(78).as_bytes());
        frame[14 + 8] -= 1;
        assert_eq!(trace_id_for_frame(&frame), Some(before));
    }

    #[test]
    fn distinct_probes_get_distinct_ids() {
        let a = trace_id_for_frame(&probe_frame(1, 100)).unwrap();
        let b = trace_id_for_frame(&probe_frame(2, 100)).unwrap();
        let c = trace_id_for_frame(&probe_frame(1, 101)).unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn non_probe_traffic_has_no_trace() {
        // Same shape but wrong magic.
        let mut frame = probe_frame(1, 1);
        frame[14 + 20 + 8] ^= 0xff;
        assert_eq!(trace_id_for_frame(&frame), None);
        // Too short to be a probe.
        let short = PacketBuilder::udp(
            EthernetAddress::from_id(1),
            Ipv4Address::new(10, 0, 0, 1),
            4000,
            EthernetAddress::from_id(2),
            Ipv4Address::new(10, 0, 0, 2),
            4001,
            &[0u8; 4],
        );
        assert_eq!(trace_id_for_frame(&short), None);
        // Not even Ethernet.
        assert_eq!(trace_id_for_frame(&[0u8; 6]), None);
    }
}
