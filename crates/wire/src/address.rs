//! Link-layer and network-layer address types.

use core::cmp::Ordering;
use core::fmt;
use core::str::FromStr;

use crate::{Error, Result};

/// A six-octet IEEE 802 MAC address. Addresses order as the integers
/// their bytes spell, big-endian: the order of the bytes, in one
/// comparison instead of a `memcmp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EthernetAddress(pub [u8; 6]);

impl EthernetAddress {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: EthernetAddress = EthernetAddress([0xff; 6]);

    /// The all-zero address, used as a placeholder (e.g. in ARP requests).
    pub const ZERO: EthernetAddress = EthernetAddress([0; 6]);

    /// The 802.1AB LLDP multicast destination `01:80:c2:00:00:0e`.
    pub const LLDP_MULTICAST: EthernetAddress =
        EthernetAddress([0x01, 0x80, 0xc2, 0x00, 0x00, 0x0e]);

    /// Construct from a byte slice.
    ///
    /// # Panics
    /// Panics if `data` is not exactly six bytes long.
    pub fn from_bytes(data: &[u8]) -> EthernetAddress {
        let mut bytes = [0; 6];
        bytes.copy_from_slice(data);
        EthernetAddress(bytes)
    }

    /// Return the raw octets.
    pub const fn as_bytes(&self) -> &[u8; 6] {
        &self.0
    }

    /// Whether this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// Whether the group (multicast) bit is set. Broadcast counts as
    /// multicast.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// Whether this address identifies a single station.
    pub fn is_unicast(&self) -> bool {
        !self.is_multicast() && *self != Self::ZERO
    }

    /// A deterministic locally-administered unicast address derived from an
    /// integer id. Useful for simulators and tests: distinct ids map to
    /// distinct addresses.
    pub fn from_id(id: u64) -> EthernetAddress {
        let b = id.to_be_bytes();
        // 0x02 sets local-admin, clears multicast.
        EthernetAddress([0x02, b[3], b[4], b[5], b[6], b[7]])
    }
}

impl PartialOrd for EthernetAddress {
    fn partial_cmp(&self, other: &EthernetAddress) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EthernetAddress {
    fn cmp(&self, other: &EthernetAddress) -> Ordering {
        // Padded at the low end, which keeps the order and compiles to
        // two loads and a byte swap.
        let int = |[a, b, c, d, e, f]: [u8; 6]| u64::from_be_bytes([a, b, c, d, e, f, 0, 0]);
        int(self.0).cmp(&int(other.0))
    }
}

impl fmt::Display for EthernetAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

impl FromStr for EthernetAddress {
    type Err = Error;

    fn from_str(s: &str) -> Result<EthernetAddress> {
        let mut bytes = [0u8; 6];
        let mut parts = s.split(':');
        for byte in bytes.iter_mut() {
            let part = parts.next().ok_or(Error::Malformed)?;
            *byte = u8::from_str_radix(part, 16).map_err(|_| Error::Malformed)?;
        }
        if parts.next().is_some() {
            return Err(Error::Malformed);
        }
        Ok(EthernetAddress(bytes))
    }
}

/// An IPv4 address. Addresses order as their host-order `u32`, which is
/// the order of their bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Ipv4Address(pub [u8; 4]);

impl Ipv4Address {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Address = Ipv4Address([0; 4]);

    /// The limited broadcast address `255.255.255.255`.
    pub const BROADCAST: Ipv4Address = Ipv4Address([255; 4]);

    /// Construct from four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4Address {
        Ipv4Address([a, b, c, d])
    }

    /// Construct from a byte slice.
    ///
    /// # Panics
    /// Panics if `data` is not exactly four bytes long.
    pub fn from_bytes(data: &[u8]) -> Ipv4Address {
        let mut bytes = [0; 4];
        bytes.copy_from_slice(data);
        Ipv4Address(bytes)
    }

    /// Return the raw octets.
    pub const fn as_bytes(&self) -> &[u8; 4] {
        &self.0
    }

    /// The address as a host-order `u32`.
    pub const fn to_u32(&self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// Construct from a host-order `u32`.
    pub const fn from_u32(value: u32) -> Ipv4Address {
        Ipv4Address(value.to_be_bytes())
    }

    /// Whether this is the limited broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// Whether this is a multicast (class D) address.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0xf0 == 0xe0
    }

    /// Whether this is the unspecified address.
    pub fn is_unspecified(&self) -> bool {
        *self == Self::UNSPECIFIED
    }

    /// Whether this address can identify a single host.
    pub fn is_unicast(&self) -> bool {
        !self.is_broadcast() && !self.is_multicast() && !self.is_unspecified()
    }
}

impl PartialOrd for Ipv4Address {
    fn partial_cmp(&self, other: &Ipv4Address) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ipv4Address {
    fn cmp(&self, other: &Ipv4Address) -> Ordering {
        self.to_u32().cmp(&other.to_u32())
    }
}

impl fmt::Display for Ipv4Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = &self.0;
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

impl FromStr for Ipv4Address {
    type Err = Error;

    fn from_str(s: &str) -> Result<Ipv4Address> {
        let mut bytes = [0u8; 4];
        let mut parts = s.split('.');
        for byte in bytes.iter_mut() {
            let part = parts.next().ok_or(Error::Malformed)?;
            *byte = part.parse().map_err(|_| Error::Malformed)?;
        }
        if parts.next().is_some() {
            return Err(Error::Malformed);
        }
        Ok(Ipv4Address(bytes))
    }
}

impl From<[u8; 4]> for Ipv4Address {
    fn from(bytes: [u8; 4]) -> Ipv4Address {
        Ipv4Address(bytes)
    }
}

/// An IPv4 CIDR block: an address plus a prefix length.
///
/// The host bits of `address` are preserved as given; [`network`] returns
/// the canonical network address with host bits cleared.
///
/// [`network`]: Ipv4Cidr::network
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Cidr {
    address: Ipv4Address,
    prefix_len: u8,
}

impl Ipv4Cidr {
    /// Construct a CIDR block. Returns `Error::Malformed` if
    /// `prefix_len > 32`.
    pub fn new(address: Ipv4Address, prefix_len: u8) -> Result<Ipv4Cidr> {
        if prefix_len > 32 {
            return Err(Error::Malformed);
        }
        Ok(Ipv4Cidr {
            address,
            prefix_len,
        })
    }

    /// The address as given (host bits preserved).
    pub const fn address(&self) -> Ipv4Address {
        self.address
    }

    /// The prefix length in bits, `0..=32`.
    pub const fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// The network mask as an address.
    pub fn netmask(&self) -> Ipv4Address {
        Ipv4Address::from_u32(self.mask_u32())
    }

    fn mask_u32(&self) -> u32 {
        if self.prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - self.prefix_len as u32)
        }
    }

    /// The canonical network address (host bits cleared).
    pub fn network(&self) -> Ipv4Address {
        Ipv4Address::from_u32(self.address.to_u32() & self.mask_u32())
    }

    /// Whether `addr` falls inside this block.
    pub fn contains(&self, addr: Ipv4Address) -> bool {
        (addr.to_u32() & self.mask_u32()) == (self.address.to_u32() & self.mask_u32())
    }

    /// Whether `other` is entirely contained in this block.
    pub fn contains_cidr(&self, other: &Ipv4Cidr) -> bool {
        self.prefix_len <= other.prefix_len && self.contains(other.network())
    }
}

impl fmt::Display for Ipv4Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.address, self.prefix_len)
    }
}

impl FromStr for Ipv4Cidr {
    type Err = Error;

    fn from_str(s: &str) -> Result<Ipv4Cidr> {
        let (addr, len) = s.split_once('/').ok_or(Error::Malformed)?;
        let address: Ipv4Address = addr.parse()?;
        let prefix_len: u8 = len.parse().map_err(|_| Error::Malformed)?;
        Ipv4Cidr::new(address, prefix_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethernet_display_parse_roundtrip() {
        let addr = EthernetAddress([0x02, 0x00, 0x00, 0x00, 0x12, 0x34]);
        let text = addr.to_string();
        assert_eq!(text, "02:00:00:00:12:34");
        assert_eq!(text.parse::<EthernetAddress>().unwrap(), addr);
    }

    #[test]
    fn ethernet_parse_rejects_garbage() {
        assert!("".parse::<EthernetAddress>().is_err());
        assert!("01:02:03:04:05".parse::<EthernetAddress>().is_err());
        assert!("01:02:03:04:05:06:07".parse::<EthernetAddress>().is_err());
        assert!("zz:02:03:04:05:06".parse::<EthernetAddress>().is_err());
    }

    #[test]
    fn ethernet_classification() {
        assert!(EthernetAddress::BROADCAST.is_broadcast());
        assert!(EthernetAddress::BROADCAST.is_multicast());
        assert!(!EthernetAddress::BROADCAST.is_unicast());
        assert!(EthernetAddress::LLDP_MULTICAST.is_multicast());
        let uni = EthernetAddress::from_id(7);
        assert!(uni.is_unicast());
        assert!(!uni.is_multicast());
    }

    #[test]
    fn ethernet_ids_distinct() {
        let a = EthernetAddress::from_id(1);
        let b = EthernetAddress::from_id(2);
        assert_ne!(a, b);
    }

    #[test]
    fn ipv4_display_parse_roundtrip() {
        let addr = Ipv4Address::new(10, 0, 3, 255);
        assert_eq!(addr.to_string(), "10.0.3.255");
        assert_eq!("10.0.3.255".parse::<Ipv4Address>().unwrap(), addr);
    }

    #[test]
    fn ipv4_parse_rejects_garbage() {
        assert!("10.0.0".parse::<Ipv4Address>().is_err());
        assert!("10.0.0.0.1".parse::<Ipv4Address>().is_err());
        assert!("256.0.0.1".parse::<Ipv4Address>().is_err());
        assert!("a.b.c.d".parse::<Ipv4Address>().is_err());
    }

    #[test]
    fn ipv4_u32_roundtrip() {
        let addr = Ipv4Address::new(192, 168, 1, 2);
        assert_eq!(Ipv4Address::from_u32(addr.to_u32()), addr);
        assert_eq!(addr.to_u32(), 0xc0a80102);
    }

    #[test]
    fn ipv4_classification() {
        assert!(Ipv4Address::BROADCAST.is_broadcast());
        assert!(Ipv4Address::new(224, 0, 0, 1).is_multicast());
        assert!(Ipv4Address::UNSPECIFIED.is_unspecified());
        assert!(Ipv4Address::new(10, 1, 2, 3).is_unicast());
    }

    #[test]
    fn cidr_basics() {
        let cidr: Ipv4Cidr = "10.1.2.3/24".parse().unwrap();
        assert_eq!(cidr.prefix_len(), 24);
        assert_eq!(cidr.network(), Ipv4Address::new(10, 1, 2, 0));
        assert_eq!(cidr.netmask(), Ipv4Address::new(255, 255, 255, 0));
        assert!(cidr.contains(Ipv4Address::new(10, 1, 2, 200)));
        assert!(!cidr.contains(Ipv4Address::new(10, 1, 3, 1)));
    }

    #[test]
    fn cidr_zero_and_full_prefix() {
        let all: Ipv4Cidr = "0.0.0.0/0".parse().unwrap();
        assert!(all.contains(Ipv4Address::new(1, 2, 3, 4)));
        assert_eq!(all.netmask(), Ipv4Address::UNSPECIFIED);

        let host: Ipv4Cidr = "10.0.0.1/32".parse().unwrap();
        assert!(host.contains(Ipv4Address::new(10, 0, 0, 1)));
        assert!(!host.contains(Ipv4Address::new(10, 0, 0, 2)));
    }

    #[test]
    fn cidr_rejects_long_prefix() {
        assert!(Ipv4Cidr::new(Ipv4Address::UNSPECIFIED, 33).is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Cidr>().is_err());
    }

    /// The hand-written orders are the byte orders the derived ones were,
    /// so every ordered map keyed by an address iterates as before.
    #[test]
    fn address_order_is_byte_order() {
        let mut rng = crate::lcg::Lcg::new(0x0dde_5eed);
        let mut macs = vec![
            EthernetAddress::ZERO,
            EthernetAddress::BROADCAST,
            EthernetAddress([0x01, 0, 0, 0, 0, 0]),
            EthernetAddress([0x02, 0, 0, 0, 0, 0]),
            EthernetAddress([0, 0, 0, 0, 0, 0x01]),
            EthernetAddress([0, 0, 0, 0, 0, 0x02]),
            EthernetAddress([0x80, 0, 0, 0, 0, 0xff]),
            EthernetAddress([0x7f, 0xff, 0xff, 0xff, 0xff, 0xff]),
        ];
        let mut ips = vec![
            Ipv4Address::UNSPECIFIED,
            Ipv4Address::BROADCAST,
            Ipv4Address::new(1, 0, 0, 0),
            Ipv4Address::new(2, 0, 0, 0),
            Ipv4Address::new(0, 0, 0, 1),
            Ipv4Address::new(0, 0, 0, 2),
            Ipv4Address::new(128, 0, 0, 255),
            Ipv4Address::new(127, 255, 255, 255),
        ];
        for _ in 0..200 {
            // Each random address with a twin one random byte away: the
            // pair is decided by that byte alone.
            let mac = EthernetAddress::from_bytes(&rng.gen_bytes(6));
            let mut twin = mac;
            twin.0[rng.gen_index(6)] = rng.next_u32() as u8;
            macs.extend([mac, twin]);
            let ip = Ipv4Address::from_u32(rng.next_u32());
            let mut twin = ip;
            twin.0[rng.gen_index(4)] = rng.next_u32() as u8;
            ips.extend([ip, twin]);
        }
        for a in &macs {
            for b in &macs {
                assert_eq!(a.cmp(b), a.0.cmp(&b.0), "{a} against {b}");
                assert_eq!(a.partial_cmp(b), Some(a.0.cmp(&b.0)), "{a} against {b}");
            }
        }
        for a in &ips {
            for b in &ips {
                assert_eq!(a.cmp(b), a.0.cmp(&b.0), "{a} against {b}");
                assert_eq!(a.partial_cmp(b), Some(a.0.cmp(&b.0)), "{a} against {b}");
                // A CIDR block orders by address, then prefix length.
                for (la, lb) in [(8, 24), (24, 8), (16, 16)] {
                    let ca = Ipv4Cidr::new(*a, la).unwrap();
                    let cb = Ipv4Cidr::new(*b, lb).unwrap();
                    let bytes = (a.0, la).cmp(&(b.0, lb));
                    assert_eq!(ca.cmp(&cb), bytes, "{ca} against {cb}");
                }
            }
        }
    }

    #[test]
    fn cidr_containment() {
        let outer: Ipv4Cidr = "10.0.0.0/8".parse().unwrap();
        let inner: Ipv4Cidr = "10.2.0.0/16".parse().unwrap();
        assert!(outer.contains_cidr(&inner));
        assert!(!inner.contains_cidr(&outer));
    }
}
