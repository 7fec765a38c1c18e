//! Wildcardable flow matching.

use zen_wire::{EthernetAddress, Ipv4Address, Ipv4Cidr};

use crate::key::{FlowKey, Ipv4Key, L4Key};
use crate::PortNo;

/// The union of [`FlowKey`] fields a classification run consulted.
///
/// Accumulated by [`FlowMatch::matches_masked`] as tables are walked:
/// every field examined before a match decision (including the failing
/// field of a non-matching entry) is recorded. Any packet that agrees
/// with a cached packet on all recorded fields is guaranteed to take the
/// same trajectory through the tables — the megaflow-cache soundness
/// argument, as in Open vSwitch.
///
/// IPv4 prefixes record the *longest* prefix length consulted per side;
/// agreeing on the top `ipv4_src_plen` bits implies agreeing on every
/// shorter prefix's containment decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct KeyMask {
    /// Ingress port was consulted.
    pub in_port: bool,
    /// Ethernet source was consulted.
    pub eth_src: bool,
    /// Ethernet destination was consulted.
    pub eth_dst: bool,
    /// EtherType was consulted.
    pub ethertype: bool,
    /// VLAN tag (presence and id) was consulted.
    pub vlan: bool,
    /// Configuration-epoch tag (presence and id) was consulted.
    pub epoch: bool,
    /// Whether the frame carries IPv4 was consulted.
    pub ipv4_presence: bool,
    /// Longest source-prefix length consulted (0 = none).
    pub ipv4_src_plen: u8,
    /// Longest destination-prefix length consulted (0 = none).
    pub ipv4_dst_plen: u8,
    /// IP protocol was consulted.
    pub ip_proto: bool,
    /// Whether the frame carries TCP/UDP ports was consulted.
    pub l4_presence: bool,
    /// L4 source port was consulted.
    pub l4_src: bool,
    /// L4 destination port was consulted.
    pub l4_dst: bool,
}

impl KeyMask {
    /// Project `key` onto this mask: unconsulted fields are zeroed so
    /// all keys in one megaflow share a single canonical representative.
    /// The projection is only comparable among keys projected through
    /// the *same* mask (the megaflow cache keeps one map per mask).
    pub fn project(&self, key: &FlowKey) -> FlowKey {
        let wants_ipv4 =
            self.ipv4_presence || self.ipv4_src_plen > 0 || self.ipv4_dst_plen > 0 || self.ip_proto;
        let wants_l4 = self.l4_presence || self.l4_src || self.l4_dst;
        FlowKey {
            in_port: if self.in_port { key.in_port } else { 0 },
            eth_src: if self.eth_src {
                key.eth_src
            } else {
                EthernetAddress([0; 6])
            },
            eth_dst: if self.eth_dst {
                key.eth_dst
            } else {
                EthernetAddress([0; 6])
            },
            ethertype: if self.ethertype { key.ethertype } else { 0 },
            vlan: if self.vlan { key.vlan } else { None },
            epoch: if self.epoch { key.epoch } else { None },
            ipv4: if wants_ipv4 {
                key.ipv4.map(|ip| Ipv4Key {
                    src: mask_addr(ip.src, self.ipv4_src_plen),
                    dst: mask_addr(ip.dst, self.ipv4_dst_plen),
                    proto: if self.ip_proto { ip.proto } else { 0 },
                    dscp_ecn: 0,
                })
            } else {
                None
            },
            l4: if wants_l4 {
                key.l4.map(|l4| L4Key {
                    src_port: if self.l4_src { l4.src_port } else { 0 },
                    dst_port: if self.l4_dst { l4.dst_port } else { 0 },
                })
            } else {
                None
            },
        }
    }
}

/// Keep only the top `plen` bits of `addr`.
fn mask_addr(addr: Ipv4Address, plen: u8) -> Ipv4Address {
    if plen == 0 {
        return Ipv4Address::from_u32(0);
    }
    let bits = addr.to_u32();
    Ipv4Address::from_u32(bits & (u32::MAX << (32 - u32::from(plen.min(32)))))
}

/// A match over [`FlowKey`] fields. `None` fields are wildcards.
///
/// IPv4 addresses match by prefix ([`Ipv4Cidr`]), so the same type
/// expresses exact microflow rules and aggregated rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct FlowMatch {
    /// Ingress port.
    pub in_port: Option<PortNo>,
    /// Ethernet source, exact.
    pub eth_src: Option<EthernetAddress>,
    /// Ethernet destination, exact.
    pub eth_dst: Option<EthernetAddress>,
    /// Inner EtherType.
    pub ethertype: Option<u16>,
    /// VLAN id; `Some(None)` matches untagged frames specifically.
    pub vlan: Option<Option<u16>>,
    /// Configuration-epoch tag; `Some(None)` matches un-stamped frames
    /// specifically, `Some(Some(tag))` requires the given epoch tag.
    pub epoch: Option<Option<u16>>,
    /// IPv4 source prefix. Implies the frame must carry IPv4.
    pub ipv4_src: Option<Ipv4Cidr>,
    /// IPv4 destination prefix. Implies the frame must carry IPv4.
    pub ipv4_dst: Option<Ipv4Cidr>,
    /// IP protocol. Implies IPv4.
    pub ip_proto: Option<u8>,
    /// L4 source port. Implies TCP or UDP.
    pub l4_src: Option<u16>,
    /// L4 destination port. Implies TCP or UDP.
    pub l4_dst: Option<u16>,
}

impl FlowMatch {
    /// Match everything (the table-miss wildcard).
    pub const ANY: FlowMatch = FlowMatch {
        in_port: None,
        eth_src: None,
        eth_dst: None,
        ethertype: None,
        vlan: None,
        epoch: None,
        ipv4_src: None,
        ipv4_dst: None,
        ip_proto: None,
        l4_src: None,
        l4_dst: None,
    };

    /// An exact match on every field present in `key` (a "microflow"
    /// rule, what a reactive controller installs).
    pub fn exact(key: &FlowKey) -> FlowMatch {
        FlowMatch {
            in_port: Some(key.in_port),
            eth_src: Some(key.eth_src),
            eth_dst: Some(key.eth_dst),
            ethertype: Some(key.ethertype),
            vlan: Some(key.vlan),
            epoch: Some(key.epoch),
            ipv4_src: key
                .ipv4
                .map(|ip| Ipv4Cidr::new(ip.src, 32).expect("32 is valid")),
            ipv4_dst: key
                .ipv4
                .map(|ip| Ipv4Cidr::new(ip.dst, 32).expect("32 is valid")),
            ip_proto: key.ipv4.map(|ip| ip.proto),
            l4_src: key.l4.map(|l4| l4.src_port),
            l4_dst: key.l4.map(|l4| l4.dst_port),
        }
    }

    /// Match frames destined to an L2 address.
    pub fn eth_to(dst: EthernetAddress) -> FlowMatch {
        FlowMatch {
            eth_dst: Some(dst),
            ..FlowMatch::ANY
        }
    }

    /// Match IPv4 frames destined into a prefix.
    pub fn ipv4_to(dst: Ipv4Cidr) -> FlowMatch {
        FlowMatch {
            ethertype: Some(0x0800),
            ipv4_dst: Some(dst),
            ..FlowMatch::ANY
        }
    }

    /// Builder: also require an ingress port.
    pub fn with_in_port(mut self, port: PortNo) -> FlowMatch {
        self.in_port = Some(port);
        self
    }

    /// Builder: also require an IP protocol.
    pub fn with_ip_proto(mut self, proto: u8) -> FlowMatch {
        self.ethertype = Some(0x0800);
        self.ip_proto = Some(proto);
        self
    }

    /// Builder: also require an L4 destination port.
    pub fn with_l4_dst(mut self, port: u16) -> FlowMatch {
        self.l4_dst = Some(port);
        self
    }

    /// Whether `key` satisfies every present field.
    pub fn matches(&self, key: &FlowKey) -> bool {
        if let Some(p) = self.in_port {
            if key.in_port != p {
                return false;
            }
        }
        if let Some(m) = self.eth_src {
            if key.eth_src != m {
                return false;
            }
        }
        if let Some(m) = self.eth_dst {
            if key.eth_dst != m {
                return false;
            }
        }
        if let Some(t) = self.ethertype {
            if key.ethertype != t {
                return false;
            }
        }
        if let Some(v) = self.vlan {
            if key.vlan != v {
                return false;
            }
        }
        if let Some(e) = self.epoch {
            if key.epoch != e {
                return false;
            }
        }
        if self.ipv4_src.is_some() || self.ipv4_dst.is_some() || self.ip_proto.is_some() {
            let Some(ip) = key.ipv4 else {
                return false;
            };
            if let Some(cidr) = self.ipv4_src {
                if !cidr.contains(ip.src) {
                    return false;
                }
            }
            if let Some(cidr) = self.ipv4_dst {
                if !cidr.contains(ip.dst) {
                    return false;
                }
            }
            if let Some(proto) = self.ip_proto {
                if ip.proto != proto {
                    return false;
                }
            }
        }
        if self.l4_src.is_some() || self.l4_dst.is_some() {
            let Some(l4) = key.l4 else {
                return false;
            };
            if let Some(p) = self.l4_src {
                if l4.src_port != p {
                    return false;
                }
            }
            if let Some(p) = self.l4_dst {
                if l4.dst_port != p {
                    return false;
                }
            }
        }
        true
    }

    /// Like [`FlowMatch::matches`], but records every key field this
    /// decision consulted into `mask` — including the field whose
    /// mismatch ends the scan. Field order and early-exit behaviour are
    /// identical to `matches`, so the recorded set is exactly what the
    /// decision depended on.
    pub fn matches_masked(&self, key: &FlowKey, mask: &mut KeyMask) -> bool {
        if let Some(p) = self.in_port {
            mask.in_port = true;
            if key.in_port != p {
                return false;
            }
        }
        if let Some(m) = self.eth_src {
            mask.eth_src = true;
            if key.eth_src != m {
                return false;
            }
        }
        if let Some(m) = self.eth_dst {
            mask.eth_dst = true;
            if key.eth_dst != m {
                return false;
            }
        }
        if let Some(t) = self.ethertype {
            mask.ethertype = true;
            if key.ethertype != t {
                return false;
            }
        }
        if let Some(v) = self.vlan {
            mask.vlan = true;
            if key.vlan != v {
                return false;
            }
        }
        if let Some(e) = self.epoch {
            mask.epoch = true;
            if key.epoch != e {
                return false;
            }
        }
        if self.ipv4_src.is_some() || self.ipv4_dst.is_some() || self.ip_proto.is_some() {
            mask.ipv4_presence = true;
            let Some(ip) = key.ipv4 else {
                return false;
            };
            if let Some(cidr) = self.ipv4_src {
                mask.ipv4_src_plen = mask.ipv4_src_plen.max(cidr.prefix_len());
                if !cidr.contains(ip.src) {
                    return false;
                }
            }
            if let Some(cidr) = self.ipv4_dst {
                mask.ipv4_dst_plen = mask.ipv4_dst_plen.max(cidr.prefix_len());
                if !cidr.contains(ip.dst) {
                    return false;
                }
            }
            if let Some(proto) = self.ip_proto {
                mask.ip_proto = true;
                if ip.proto != proto {
                    return false;
                }
            }
        }
        if self.l4_src.is_some() || self.l4_dst.is_some() {
            mask.l4_presence = true;
            let Some(l4) = key.l4 else {
                return false;
            };
            if let Some(p) = self.l4_src {
                mask.l4_src = true;
                if l4.src_port != p {
                    return false;
                }
            }
            if let Some(p) = self.l4_dst {
                mask.l4_dst = true;
                if l4.dst_port != p {
                    return false;
                }
            }
        }
        true
    }

    /// A crude specificity score (count of constrained fields plus prefix
    /// lengths), useful for debugging and table dumps; priority, not
    /// specificity, decides matching order.
    pub fn specificity(&self) -> u32 {
        let mut s = 0;
        s += u32::from(self.in_port.is_some());
        s += u32::from(self.eth_src.is_some());
        s += u32::from(self.eth_dst.is_some());
        s += u32::from(self.ethertype.is_some());
        s += u32::from(self.vlan.is_some());
        s += u32::from(self.epoch.is_some());
        s += self.ipv4_src.map_or(0, |c| 1 + u32::from(c.prefix_len()));
        s += self.ipv4_dst.map_or(0, |c| 1 + u32::from(c.prefix_len()));
        s += u32::from(self.ip_proto.is_some());
        s += u32::from(self.l4_src.is_some());
        s += u32::from(self.l4_dst.is_some());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zen_wire::builder::PacketBuilder;
    use zen_wire::Ipv4Address;

    const M1: EthernetAddress = EthernetAddress([2, 0, 0, 0, 0, 1]);
    const M2: EthernetAddress = EthernetAddress([2, 0, 0, 0, 0, 2]);
    const IP1: Ipv4Address = Ipv4Address::new(10, 0, 0, 1);
    const IP2: Ipv4Address = Ipv4Address::new(10, 1, 2, 3);

    fn udp_key() -> FlowKey {
        let frame = PacketBuilder::udp(M1, IP1, 1234, M2, IP2, 53, b"q");
        FlowKey::extract(3, &frame).unwrap()
    }

    #[test]
    fn any_matches_everything() {
        assert!(FlowMatch::ANY.matches(&udp_key()));
    }

    #[test]
    fn exact_matches_own_key_only() {
        let key = udp_key();
        let m = FlowMatch::exact(&key);
        assert!(m.matches(&key));
        let mut other = key;
        other.in_port = 4;
        assert!(!m.matches(&other));
    }

    #[test]
    fn prefix_match() {
        let key = udp_key();
        let m = FlowMatch::ipv4_to("10.1.0.0/16".parse().unwrap());
        assert!(m.matches(&key));
        let m = FlowMatch::ipv4_to("10.2.0.0/16".parse().unwrap());
        assert!(!m.matches(&key));
    }

    #[test]
    fn ip_fields_require_ip() {
        let arp = PacketBuilder::arp_request(M1, IP1, IP2);
        let key = FlowKey::extract(1, &arp).unwrap();
        assert!(!FlowMatch::ipv4_to("0.0.0.0/0".parse().unwrap()).matches(&key));
        assert!(!FlowMatch::ANY.with_ip_proto(17).matches(&key));
        assert!(FlowMatch::ANY.matches(&key));
    }

    #[test]
    fn l4_fields_require_l4() {
        let icmp = PacketBuilder::icmp_echo_request(M1, IP1, M2, IP2, 1, 1);
        let key = FlowKey::extract(1, &icmp).unwrap();
        assert!(!FlowMatch::ANY.with_l4_dst(53).matches(&key));
        assert!(FlowMatch::ANY.with_ip_proto(1).matches(&key));
    }

    #[test]
    fn untagged_vlan_match() {
        let key = udp_key();
        let m = FlowMatch {
            vlan: Some(None),
            ..FlowMatch::ANY
        };
        assert!(m.matches(&key));
        let m = FlowMatch {
            vlan: Some(Some(100)),
            ..FlowMatch::ANY
        };
        assert!(!m.matches(&key));
    }

    #[test]
    fn epoch_match_is_disjoint_from_vlan() {
        let tag = crate::epoch::epoch_tag(7);
        let mut stamped = udp_key();
        stamped.epoch = Some(tag);
        let unstamped = udp_key();

        let wants_epoch = FlowMatch {
            epoch: Some(Some(tag)),
            ..FlowMatch::ANY
        };
        assert!(wants_epoch.matches(&stamped));
        assert!(!wants_epoch.matches(&unstamped));

        let wants_unstamped = FlowMatch {
            epoch: Some(None),
            ..FlowMatch::ANY
        };
        assert!(wants_unstamped.matches(&unstamped));
        assert!(!wants_unstamped.matches(&stamped));

        // An epoch tag is not a VLAN: untagged-VLAN rules still apply.
        let untagged_vlan = FlowMatch {
            vlan: Some(None),
            ..FlowMatch::ANY
        };
        assert!(untagged_vlan.matches(&stamped));

        // The mask records the consult, so cached megaflows from one
        // epoch cannot swallow the other epoch's packets.
        let mut mask = KeyMask::default();
        assert!(wants_epoch.matches_masked(&stamped, &mut mask));
        assert!(mask.epoch);
        assert_ne!(mask.project(&stamped), mask.project(&unstamped));
    }

    #[test]
    fn masked_matches_agrees_with_matches() {
        let key = udp_key();
        let matchers = [
            FlowMatch::ANY,
            FlowMatch::exact(&key),
            FlowMatch::ipv4_to("10.1.0.0/16".parse().unwrap()),
            FlowMatch::ipv4_to("10.2.0.0/16".parse().unwrap()),
            FlowMatch::ANY.with_ip_proto(17),
            FlowMatch::ANY.with_l4_dst(53),
            FlowMatch::ANY.with_in_port(9),
            FlowMatch::eth_to(M1),
        ];
        for m in matchers {
            let mut mask = KeyMask::default();
            assert_eq!(m.matches(&key), m.matches_masked(&key, &mut mask), "{m:?}");
        }
    }

    #[test]
    fn mask_records_consulted_fields_with_early_exit() {
        let key = udp_key();
        let mut mask = KeyMask::default();
        // in_port mismatches, so nothing after it is consulted.
        let m = FlowMatch::exact(&key).with_in_port(99);
        assert!(!m.matches_masked(&key, &mut mask));
        assert!(mask.in_port);
        assert!(!mask.eth_src && !mask.ethertype && mask.ipv4_src_plen == 0);

        // A full match consults everything the matcher constrains.
        let mut mask = KeyMask::default();
        assert!(FlowMatch::exact(&key).matches_masked(&key, &mut mask));
        assert!(mask.in_port && mask.eth_src && mask.eth_dst && mask.ethertype && mask.vlan);
        assert_eq!((mask.ipv4_src_plen, mask.ipv4_dst_plen), (32, 32));
        assert!(mask.ip_proto && mask.l4_src && mask.l4_dst);
    }

    #[test]
    fn mask_accumulates_longest_prefix() {
        let key = udp_key();
        let mut mask = KeyMask::default();
        assert!(FlowMatch::ipv4_to("10.0.0.0/8".parse().unwrap()).matches_masked(&key, &mut mask));
        assert_eq!(mask.ipv4_dst_plen, 8);
        assert!(FlowMatch::ipv4_to("10.1.0.0/16".parse().unwrap()).matches_masked(&key, &mut mask));
        assert_eq!(mask.ipv4_dst_plen, 16);
        // A shorter prefix later does not shrink the mask.
        assert!(FlowMatch::ipv4_to("10.0.0.0/8".parse().unwrap()).matches_masked(&key, &mut mask));
        assert_eq!(mask.ipv4_dst_plen, 16);
    }

    #[test]
    fn projection_canonicalizes_within_mask() {
        let key = udp_key();
        let mask = {
            let mut m = KeyMask::default();
            FlowMatch::ipv4_to("10.1.0.0/16".parse().unwrap()).matches_masked(&key, &mut m);
            m
        };
        // A key differing only in unconsulted fields projects identically.
        let other_frame = PacketBuilder::udp(M2, IP1, 7777, M1, IP2, 53, b"zzz");
        let other = FlowKey::extract(8, &other_frame).unwrap();
        assert_eq!(mask.project(&key), mask.project(&other));
        // A key differing in a consulted field projects differently.
        let far_frame =
            PacketBuilder::udp(M1, IP1, 1234, M2, Ipv4Address::new(10, 9, 0, 1), 53, b"q");
        let far = FlowKey::extract(3, &far_frame).unwrap();
        assert_ne!(mask.project(&key), mask.project(&far));
    }

    #[test]
    fn specificity_ranks_exact_over_wildcard() {
        let key = udp_key();
        assert!(FlowMatch::exact(&key).specificity() > FlowMatch::eth_to(M2).specificity());
        assert_eq!(FlowMatch::ANY.specificity(), 0);
    }
}
