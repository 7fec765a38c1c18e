//! Flow-key extraction: parse a frame's headers once into a fixed
//! struct, then match against that.

use std::hash::{Hash, Hasher};

use zen_wire::ethernet::{EtherType, Frame};
use zen_wire::ipv4::Protocol;
use zen_wire::{ipv4, tcp, udp, EthernetAddress, Ipv4Address};

use crate::PortNo;

/// IPv4-level key fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Key {
    /// Source address.
    pub src: Ipv4Address,
    /// Destination address.
    pub dst: Ipv4Address,
    /// Protocol number.
    pub proto: u8,
    /// DSCP/ECN byte.
    pub dscp_ecn: u8,
}

/// Transport-level key fields (TCP and UDP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L4Key {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

/// The extracted header fields of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowKey {
    /// Ingress port.
    pub in_port: PortNo,
    /// Ethernet source.
    pub eth_src: EthernetAddress,
    /// Ethernet destination.
    pub eth_dst: EthernetAddress,
    /// The *inner* EtherType (past any single 802.1Q tag).
    pub ethertype: u16,
    /// The VLAN id if the frame is tagged (excluding epoch tags).
    pub vlan: Option<u16>,
    /// The configuration-epoch tag, if the outer 802.1Q tag falls in the
    /// reserved epoch range (see [`crate::epoch`]). Such frames report
    /// `vlan: None`: epoch tags and plain VLANs are disjoint dimensions.
    pub epoch: Option<u16>,
    /// IPv4 fields if the frame carries IPv4.
    pub ipv4: Option<Ipv4Key>,
    /// L4 ports if the frame carries TCP or UDP over IPv4.
    pub l4: Option<L4Key>,
}

/// Feeds the key as five packed words instead of one write per field:
/// the cache hashes a key per frame, and its word-at-a-time hasher
/// costs one multiply per `write_u64`. Every field has its own bits and
/// each `Option` its own presence bit, so the packing is injective:
/// equal keys hash equal (the `Eq` contract) and no two different keys
/// feed the same words.
impl Hash for FlowKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mac = |a: EthernetAddress| {
            let b = a.0;
            u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], 0, 0])
        };
        // Bit 16 marks `Some`, keeping `Some(0)` apart from `None`.
        let tag = |t: Option<u16>| t.map_or(0, |v| 1 << 16 | u64::from(v));
        let (proto, dscp_ecn, addrs) = self.ipv4.map_or((0, 0, 0), |ip| {
            (
                u64::from(ip.proto),
                u64::from(ip.dscp_ecn),
                u64::from(ip.src.to_u32()) << 32 | u64::from(ip.dst.to_u32()),
            )
        });
        let (src_port, dst_port) = self.l4.map_or((0, 0), |l4| {
            (u64::from(l4.src_port), u64::from(l4.dst_port))
        });
        state.write_u64(
            u64::from(self.in_port) << 32 | u64::from(self.ethertype) << 16 | proto << 8 | dscp_ecn,
        );
        state.write_u64(mac(self.eth_src) | src_port);
        state.write_u64(mac(self.eth_dst) | dst_port);
        state.write_u64(addrs);
        state.write_u64(
            tag(self.vlan)
                | tag(self.epoch) << 17
                | u64::from(self.ipv4.is_some()) << 34
                | u64::from(self.l4.is_some()) << 35,
        );
    }
}

impl FlowKey {
    /// Extract a key from a raw frame. Returns `None` only if the frame
    /// is too short to be Ethernet; deeper parse failures simply leave
    /// the corresponding layers `None`.
    pub fn extract(in_port: PortNo, frame: &[u8]) -> Option<FlowKey> {
        let eth = Frame::new_checked(frame).ok()?;
        let mut key = FlowKey {
            in_port,
            eth_src: eth.src_addr(),
            eth_dst: eth.dst_addr(),
            ethertype: eth.ethertype().into(),
            vlan: None,
            epoch: None,
            ipv4: None,
            l4: None,
        };
        let mut payload = eth.payload();
        if eth.ethertype() == EtherType::Vlan {
            // 802.1Q: TCI (2 bytes) + inner EtherType (2 bytes).
            if payload.len() < 4 {
                return Some(key);
            }
            let vid = u16::from_be_bytes([payload[0], payload[1]]) & 0x0fff;
            if crate::epoch::is_epoch_tag(vid) {
                key.epoch = Some(vid);
            } else {
                key.vlan = Some(vid);
            }
            key.ethertype = u16::from_be_bytes([payload[2], payload[3]]);
            payload = &payload[4..];
        }
        if key.ethertype == u16::from(EtherType::Ipv4) {
            if let Ok(ip) = ipv4::Packet::new_checked(payload) {
                if ip.version() == 4 {
                    key.ipv4 = Some(Ipv4Key {
                        src: ip.src_addr(),
                        dst: ip.dst_addr(),
                        proto: ip.protocol().into(),
                        dscp_ecn: ip.dscp_ecn(),
                    });
                    match ip.protocol() {
                        Protocol::Tcp => {
                            if let Ok(seg) = tcp::Segment::new_checked(ip.payload()) {
                                key.l4 = Some(L4Key {
                                    src_port: seg.src_port(),
                                    dst_port: seg.dst_port(),
                                });
                            }
                        }
                        Protocol::Udp => {
                            if let Ok(dgram) = udp::Datagram::new_checked(ip.payload()) {
                                key.l4 = Some(L4Key {
                                    src_port: dgram.src_port(),
                                    dst_port: dgram.dst_port(),
                                });
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        Some(key)
    }

    /// A deterministic 64-bit hash of the flow's 5-tuple (falling back to
    /// L2 addresses for non-IP frames), used by SELECT groups for ECMP.
    /// Frames of one flow always hash alike; the in-port is excluded.
    pub fn flow_hash(&self) -> u64 {
        // FNV-1a over the identifying fields, but with 2^44 + 0x1b3 for FNV's
        // prime 2^40 + 0x1b3; kept, as every SELECT bucket and digest rests on it.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        match (self.ipv4, self.l4) {
            (Some(ip), l4) => {
                for b in ip.src.as_bytes() {
                    eat(*b);
                }
                for b in ip.dst.as_bytes() {
                    eat(*b);
                }
                eat(ip.proto);
                if let Some(l4) = l4 {
                    for b in l4.src_port.to_be_bytes() {
                        eat(b);
                    }
                    for b in l4.dst_port.to_be_bytes() {
                        eat(b);
                    }
                }
            }
            (None, _) => {
                for b in self.eth_src.as_bytes() {
                    eat(*b);
                }
                for b in self.eth_dst.as_bytes() {
                    eat(*b);
                }
                for b in self.ethertype.to_be_bytes() {
                    eat(b);
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zen_wire::builder::PacketBuilder;
    use zen_wire::tcp::Flags;

    const M1: EthernetAddress = EthernetAddress([2, 0, 0, 0, 0, 1]);
    const M2: EthernetAddress = EthernetAddress([2, 0, 0, 0, 0, 2]);
    const IP1: Ipv4Address = Ipv4Address::new(10, 0, 0, 1);
    const IP2: Ipv4Address = Ipv4Address::new(10, 0, 0, 2);

    #[test]
    fn extracts_udp_five_tuple() {
        let frame = PacketBuilder::udp(M1, IP1, 1234, M2, IP2, 53, b"q");
        let key = FlowKey::extract(7, &frame).unwrap();
        assert_eq!(key.in_port, 7);
        assert_eq!(key.eth_src, M1);
        assert_eq!(key.eth_dst, M2);
        assert_eq!(key.ethertype, 0x0800);
        let ip = key.ipv4.unwrap();
        assert_eq!((ip.src, ip.dst, ip.proto), (IP1, IP2, 17));
        let l4 = key.l4.unwrap();
        assert_eq!((l4.src_port, l4.dst_port), (1234, 53));
    }

    #[test]
    fn extracts_tcp() {
        let frame = PacketBuilder::tcp(M1, IP1, 40000, M2, IP2, 80, Flags::SYN, b"");
        let key = FlowKey::extract(1, &frame).unwrap();
        assert_eq!(key.ipv4.unwrap().proto, 6);
        assert_eq!(key.l4.unwrap().dst_port, 80);
    }

    #[test]
    fn arp_has_no_ip_layer() {
        let frame = PacketBuilder::arp_request(M1, IP1, IP2);
        let key = FlowKey::extract(1, &frame).unwrap();
        assert_eq!(key.ethertype, 0x0806);
        assert!(key.ipv4.is_none());
        assert!(key.l4.is_none());
    }

    #[test]
    fn vlan_tag_parsed() {
        // Hand-build an 802.1Q frame around a minimal payload.
        let inner = PacketBuilder::udp(M1, IP1, 1, M2, IP2, 2, b"x");
        let mut frame = inner[..12].to_vec(); // MACs
        frame.extend_from_slice(&0x8100u16.to_be_bytes());
        frame.extend_from_slice(&0x0064u16.to_be_bytes()); // VLAN 100
        frame.extend_from_slice(&inner[12..]); // ethertype + payload
        let key = FlowKey::extract(1, &frame).unwrap();
        assert_eq!(key.vlan, Some(100));
        assert_eq!(key.epoch, None);
        assert_eq!(key.ethertype, 0x0800);
        assert!(key.ipv4.is_some());
    }

    #[test]
    fn epoch_range_tag_surfaces_as_epoch_not_vlan() {
        let inner = PacketBuilder::udp(M1, IP1, 1, M2, IP2, 2, b"x");
        let mut frame = inner[..12].to_vec();
        frame.extend_from_slice(&0x8100u16.to_be_bytes());
        frame.extend_from_slice(&crate::epoch::epoch_tag(3).to_be_bytes());
        frame.extend_from_slice(&inner[12..]);
        let key = FlowKey::extract(1, &frame).unwrap();
        assert_eq!(key.vlan, None);
        assert_eq!(key.epoch, Some(crate::epoch::epoch_tag(3)));
        assert_eq!(key.ethertype, 0x0800);
        assert!(key.ipv4.is_some());
    }

    #[test]
    fn too_short_is_none() {
        assert!(FlowKey::extract(1, &[0u8; 13]).is_none());
    }

    #[test]
    fn hash_stable_per_flow_and_ignores_port() {
        let f1 = PacketBuilder::udp(M1, IP1, 1234, M2, IP2, 53, b"a");
        let f2 = PacketBuilder::udp(M1, IP1, 1234, M2, IP2, 53, b"bbbb");
        let k1 = FlowKey::extract(1, &f1).unwrap();
        let k2 = FlowKey::extract(9, &f2).unwrap();
        assert_eq!(k1.flow_hash(), k2.flow_hash());

        let f3 = PacketBuilder::udp(M1, IP1, 1235, M2, IP2, 53, b"a");
        let k3 = FlowKey::extract(1, &f3).unwrap();
        assert_ne!(k1.flow_hash(), k3.flow_hash());
    }

    /// The hash of one known flow, pinned: a change to the function
    /// moves every SELECT group's choice of bucket. (FNV-1a-64 proper
    /// would give `0xf385_0dc0_c199_a44e`.)
    #[test]
    fn flow_hash_is_pinned() {
        let frame = PacketBuilder::udp(M1, IP1, 1234, M2, IP2, 53, b"a");
        let key = FlowKey::extract(1, &frame).unwrap();
        assert_eq!(key.flow_hash(), 0x3fa3_9cc0_c199_a44e);
    }

    #[test]
    fn hash_for_non_ip_uses_l2() {
        let a = PacketBuilder::arp_request(M1, IP1, IP2);
        let b = PacketBuilder::arp_request(M2, IP2, IP1);
        let ka = FlowKey::extract(1, &a).unwrap();
        let kb = FlowKey::extract(1, &b).unwrap();
        assert_ne!(ka.flow_hash(), kb.flow_hash());
    }
}
