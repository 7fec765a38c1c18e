//! Forwarding actions and in-place header rewriting.

use zen_wire::ethernet::{self, EtherType, Frame};
use zen_wire::{ipv4, EthernetAddress, Ipv4Address};

use crate::PortNo;

/// One action of a flow entry's action list, executed in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Emit the frame (as rewritten so far) out of a port.
    Output(PortNo),
    /// Emit out of every up port except the ingress port.
    Flood,
    /// Punt (up to `max_len` bytes of) the frame to the controller.
    ToController {
        /// Truncation limit for the punted copy.
        max_len: u16,
    },
    /// Rewrite the Ethernet source address.
    SetEthSrc(EthernetAddress),
    /// Rewrite the Ethernet destination address.
    SetEthDst(EthernetAddress),
    /// Rewrite the IPv4 source (fixes IP and L4 checksums).
    SetIpv4Src(Ipv4Address),
    /// Rewrite the IPv4 destination (fixes IP and L4 checksums).
    SetIpv4Dst(Ipv4Address),
    /// Rewrite the DSCP/ECN byte.
    SetDscp(u8),
    /// Decrement the IPv4 TTL; the frame is dropped if TTL expires.
    DecTtl,
    /// Push an 802.1Q tag with the given VLAN id.
    PushVlan(u16),
    /// Pop the outer 802.1Q tag (no-op on untagged frames).
    PopVlan,
    /// Stamp the frame with a configuration-epoch tag (a reserved-range
    /// 802.1Q tag, see [`crate::epoch`]). If an epoch tag is already
    /// present it is rewritten in place; otherwise one is pushed.
    SetEpoch(u16),
    /// Strip the epoch tag, if the outer tag is one (no-op otherwise).
    PopEpoch,
    /// Process through a group.
    Group(u32),
    /// Apply a meter; the frame is dropped if the meter is red.
    Meter(u32),
}

impl Action {
    /// Whether executing the action can modify the frame (everything
    /// [`apply_rewrite`] handles); the rest only read it.
    pub fn rewrites(&self) -> bool {
        !matches!(
            self,
            Action::Output(_)
                | Action::Flood
                | Action::ToController { .. }
                | Action::Group(_)
                | Action::Meter(_)
        )
    }
}

/// Rewrite outcome for a single set-field style action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rewrite {
    /// The frame was modified (or the action did not apply and the frame
    /// is unchanged but forwarding continues).
    Continue,
    /// The frame must be dropped (TTL expired).
    Drop,
}

/// Apply a header-rewrite action to `frame` in place. Output, flood,
/// controller, group and meter actions are *not* handled here — the
/// pipeline interprets those.
pub fn apply_rewrite(action: Action, frame: &mut Vec<u8>) -> Rewrite {
    match action {
        Action::SetEthSrc(mac) => {
            if let Ok(mut eth) = Frame::new_checked(&mut frame[..]) {
                eth.set_src_addr(mac);
            }
            Rewrite::Continue
        }
        Action::SetEthDst(mac) => {
            if let Ok(mut eth) = Frame::new_checked(&mut frame[..]) {
                eth.set_dst_addr(mac);
            }
            Rewrite::Continue
        }
        Action::SetIpv4Src(addr) => {
            rewrite_ip(frame, |ip| ip.set_src_addr(addr));
            Rewrite::Continue
        }
        Action::SetIpv4Dst(addr) => {
            rewrite_ip(frame, |ip| ip.set_dst_addr(addr));
            Rewrite::Continue
        }
        Action::SetDscp(value) => {
            rewrite_ip(frame, |ip| ip.set_dscp_ecn(value));
            Rewrite::Continue
        }
        Action::DecTtl => {
            let mut expired = false;
            rewrite_ip_no_l4(frame, |ip| {
                expired = !ip.decrement_ttl();
            });
            if expired {
                Rewrite::Drop
            } else {
                Rewrite::Continue
            }
        }
        Action::PushVlan(vid) => {
            push_vlan(frame, vid);
            Rewrite::Continue
        }
        Action::PopVlan => {
            pop_vlan(frame);
            Rewrite::Continue
        }
        Action::SetEpoch(tag) => {
            set_epoch(frame, tag);
            Rewrite::Continue
        }
        Action::PopEpoch => {
            pop_epoch(frame);
            Rewrite::Continue
        }
        _ => Rewrite::Continue,
    }
}

/// Offset of the IPv4 header within an (optionally VLAN-tagged) frame,
/// or `None` if the frame is not IPv4.
fn ipv4_offset(frame: &[u8]) -> Option<usize> {
    let eth = Frame::new_checked(frame).ok()?;
    match eth.ethertype() {
        EtherType::Ipv4 => Some(ethernet::HEADER_LEN),
        EtherType::Vlan => {
            let p = eth.payload();
            if p.len() >= 4 && u16::from_be_bytes([p[2], p[3]]) == 0x0800 {
                Some(ethernet::HEADER_LEN + 4)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Mutate the IPv4 header, then repair the IP header checksum and, for
/// address changes, the TCP/UDP checksum via incremental update
/// (RFC 1624-style recompute here, since we have the whole packet).
fn rewrite_ip(frame: &mut [u8], f: impl FnOnce(&mut ipv4::Packet<&mut [u8]>)) {
    let Some(off) = ipv4_offset(frame) else {
        return;
    };
    let Ok(mut ip) = ipv4::Packet::new_checked(&mut frame[off..]) else {
        return;
    };
    f(&mut ip);
    ip.fill_checksum();
    let (src, dst, proto) = (ip.src_addr(), ip.dst_addr(), ip.protocol());
    // Recompute the transport checksum over the pseudo-header.
    match proto {
        ipv4::Protocol::Udp => {
            let payload = ip.payload_mut();
            if let Ok(mut dgram) = zen_wire::udp::Datagram::new_checked(payload) {
                dgram.fill_checksum(src, dst);
            }
        }
        ipv4::Protocol::Tcp => {
            let payload = ip.payload_mut();
            if let Ok(mut seg) = zen_wire::tcp::Segment::new_checked(payload) {
                seg.fill_checksum(src, dst);
            }
        }
        _ => {}
    }
}

/// Mutate the IPv4 header without touching L4 (TTL/DSCP changes do not
/// enter the pseudo-header).
fn rewrite_ip_no_l4(frame: &mut [u8], f: impl FnOnce(&mut ipv4::Packet<&mut [u8]>)) {
    let Some(off) = ipv4_offset(frame) else {
        return;
    };
    let Ok(mut ip) = ipv4::Packet::new_checked(&mut frame[off..]) else {
        return;
    };
    f(&mut ip);
    ip.fill_checksum();
}

/// Insert an 802.1Q tag after the source MAC. Double-tagging stacks.
fn push_vlan(frame: &mut Vec<u8>, vid: u16) {
    if frame.len() < ethernet::HEADER_LEN {
        return;
    }
    let mut tag = [0u8; 4];
    tag[0..2].copy_from_slice(&0x8100u16.to_be_bytes());
    tag[2..4].copy_from_slice(&(vid & 0x0fff).to_be_bytes());
    // New layout: dst(6) src(6) [0x8100 tci] original-ethertype payload.
    frame.splice(12..12, tag.iter().copied());
}

/// Remove the outer 802.1Q tag, if present.
fn pop_vlan(frame: &mut Vec<u8>) {
    if frame.len() < ethernet::HEADER_LEN + 4 {
        return;
    }
    if u16::from_be_bytes([frame[12], frame[13]]) == 0x8100 {
        frame.drain(12..16);
    }
}

/// The VLAN id of the outer 802.1Q tag, if the frame wears one.
fn outer_vid(frame: &[u8]) -> Option<u16> {
    if frame.len() < ethernet::HEADER_LEN + 4 {
        return None;
    }
    if u16::from_be_bytes([frame[12], frame[13]]) != 0x8100 {
        return None;
    }
    Some(u16::from_be_bytes([frame[14], frame[15]]) & 0x0fff)
}

/// Stamp `tag` (an epoch-range VLAN id) onto the frame: rewrite an
/// existing epoch tag in place, else push a fresh 802.1Q tag.
fn set_epoch(frame: &mut Vec<u8>, tag: u16) {
    let tag = tag & 0x0fff;
    match outer_vid(frame) {
        Some(vid) if crate::epoch::is_epoch_tag(vid) => {
            frame[14..16].copy_from_slice(&tag.to_be_bytes());
        }
        _ => push_vlan(frame, tag),
    }
}

/// Remove the outer tag only if it is an epoch tag, so plain VLANs
/// survive an edge rule that unconditionally strips epochs.
fn pop_epoch(frame: &mut Vec<u8>) {
    if outer_vid(frame).is_some_and(crate::epoch::is_epoch_tag) {
        frame.drain(12..16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::FlowKey;
    use zen_wire::builder::PacketBuilder;
    use zen_wire::udp;

    const M1: EthernetAddress = EthernetAddress([2, 0, 0, 0, 0, 1]);
    const M2: EthernetAddress = EthernetAddress([2, 0, 0, 0, 0, 2]);
    const M3: EthernetAddress = EthernetAddress([2, 0, 0, 0, 0, 3]);
    const IP1: Ipv4Address = Ipv4Address::new(10, 0, 0, 1);
    const IP2: Ipv4Address = Ipv4Address::new(10, 0, 0, 2);
    const IP3: Ipv4Address = Ipv4Address::new(10, 0, 0, 3);

    fn udp_frame() -> Vec<u8> {
        PacketBuilder::udp(M1, IP1, 1111, M2, IP2, 2222, b"data")
    }

    #[test]
    fn set_eth_addrs() {
        let mut frame = udp_frame();
        apply_rewrite(Action::SetEthDst(M3), &mut frame);
        apply_rewrite(Action::SetEthSrc(M2), &mut frame);
        let key = FlowKey::extract(1, &frame).unwrap();
        assert_eq!(key.eth_dst, M3);
        assert_eq!(key.eth_src, M2);
    }

    #[test]
    fn set_ipv4_dst_repairs_checksums() {
        let mut frame = udp_frame();
        apply_rewrite(Action::SetIpv4Dst(IP3), &mut frame);
        let eth = Frame::new_checked(&frame[..]).unwrap();
        let ip = ipv4::Packet::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
        assert_eq!(ip.dst_addr(), IP3);
        let dgram = udp::Datagram::new_checked(ip.payload()).unwrap();
        assert!(dgram.verify_checksum(IP1, IP3));
        assert_eq!(dgram.payload(), b"data");
    }

    #[test]
    fn dec_ttl_and_expiry() {
        let mut frame = udp_frame();
        assert_eq!(apply_rewrite(Action::DecTtl, &mut frame), Rewrite::Continue);
        let eth = Frame::new_checked(&frame[..]).unwrap();
        let ip = ipv4::Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.ttl(), 63);
        assert!(ip.verify_checksum());

        // Burn it down to expiry.
        for _ in 0..62 {
            assert_eq!(apply_rewrite(Action::DecTtl, &mut frame), Rewrite::Continue);
        }
        assert_eq!(apply_rewrite(Action::DecTtl, &mut frame), Rewrite::Drop);
    }

    #[test]
    fn vlan_push_pop_roundtrip() {
        let original = udp_frame();
        let mut frame = original.clone();
        apply_rewrite(Action::PushVlan(42), &mut frame);
        assert_eq!(frame.len(), original.len() + 4);
        let key = FlowKey::extract(1, &frame).unwrap();
        assert_eq!(key.vlan, Some(42));
        assert_eq!(key.ethertype, 0x0800);

        apply_rewrite(Action::PopVlan, &mut frame);
        assert_eq!(frame, original);
    }

    #[test]
    fn pop_vlan_on_untagged_is_noop() {
        let original = udp_frame();
        let mut frame = original.clone();
        apply_rewrite(Action::PopVlan, &mut frame);
        assert_eq!(frame, original);
    }

    #[test]
    fn epoch_stamp_rewrite_and_strip() {
        let original = udp_frame();
        let mut frame = original.clone();
        let t1 = crate::epoch::epoch_tag(1);
        let t2 = crate::epoch::epoch_tag(2);

        // Stamp pushes a tag; the key surfaces it as epoch, not vlan.
        apply_rewrite(Action::SetEpoch(t1), &mut frame);
        assert_eq!(frame.len(), original.len() + 4);
        let key = FlowKey::extract(1, &frame).unwrap();
        assert_eq!((key.epoch, key.vlan), (Some(t1), None));

        // Re-stamping rewrites in place (no double tag).
        apply_rewrite(Action::SetEpoch(t2), &mut frame);
        assert_eq!(frame.len(), original.len() + 4);
        let key = FlowKey::extract(1, &frame).unwrap();
        assert_eq!(key.epoch, Some(t2));

        // Stripping restores the original frame exactly.
        apply_rewrite(Action::PopEpoch, &mut frame);
        assert_eq!(frame, original);
    }

    #[test]
    fn pop_epoch_leaves_plain_vlan_alone() {
        let mut frame = udp_frame();
        apply_rewrite(Action::PushVlan(42), &mut frame);
        let tagged = frame.clone();
        apply_rewrite(Action::PopEpoch, &mut frame);
        assert_eq!(frame, tagged);

        let untagged = udp_frame();
        let mut frame = untagged.clone();
        apply_rewrite(Action::PopEpoch, &mut frame);
        assert_eq!(frame, untagged);
    }

    #[test]
    fn set_ip_through_vlan_tag() {
        let mut frame = udp_frame();
        apply_rewrite(Action::PushVlan(7), &mut frame);
        apply_rewrite(Action::SetIpv4Src(IP3), &mut frame);
        apply_rewrite(Action::PopVlan, &mut frame);
        let eth = Frame::new_checked(&frame[..]).unwrap();
        let ip = ipv4::Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.src_addr(), IP3);
        assert!(ip.verify_checksum());
    }

    #[test]
    fn rewrites_ignore_non_ip() {
        let original = PacketBuilder::arp_request(M1, IP1, IP2);
        let mut frame = original.clone();
        apply_rewrite(Action::SetIpv4Dst(IP3), &mut frame);
        apply_rewrite(Action::DecTtl, &mut frame);
        assert_eq!(frame, original);
    }
}
