//! The Link Layer Discovery Protocol (IEEE 802.1AB), as used for SDN
//! topology discovery.
//!
//! SDN controllers (ONOS, OpenDaylight, Ryu) discover switch-to-switch
//! links by instructing each switch to emit an LLDP frame out of every
//! port; when the frame arrives at the neighbouring switch it is punted to
//! the controller, which now knows `(src switch, src port) → (dst switch,
//! dst port)`.
//!
//! This module implements real TLV encoding for the mandatory LLDPDU
//! TLVs — Chassis ID (locally-assigned subtype carrying a 64-bit datapath
//! id), Port ID (locally-assigned subtype carrying a 32-bit port number),
//! TTL, and End — which is exactly the set controllers use.
//!
//! It also names the egress port in the frame's Ethernet source, from a
//! reserved block ([`port_mac`]): a switch rewrites the source before
//! each output, so one frame sent once can leave by every port and still
//! say which one it left by (OFDPv2, Pakzad et al., 2016).

use crate::{get_u16, Error, EthernetAddress, Result};

/// The first two octets of every [`port_mac`]: locally administered and
/// unicast, and unlike the `0x02` every [`EthernetAddress::from_id`]
/// address starts with.
const PORT_MAC_PREFIX: [u8; 2] = [0x06, 0x00];

/// The Ethernet source a discovery frame leaves port `port` with: the
/// prefix, then the port number. It encodes nothing of the switch, so
/// any datapath id fits in the Chassis ID beside it.
pub fn port_mac(port: u32) -> EthernetAddress {
    let [a, b, c, d] = port.to_be_bytes();
    let [p, q] = PORT_MAC_PREFIX;
    EthernetAddress([p, q, a, b, c, d])
}

/// The port a [`port_mac`] names, or `None` for an address outside the
/// block.
pub fn mac_port(mac: EthernetAddress) -> Option<u32> {
    let [p, q, a, b, c, d] = mac.0;
    ([p, q] == PORT_MAC_PREFIX).then(|| u32::from_be_bytes([a, b, c, d]))
}

/// TLV type codes.
mod tlv {
    pub const END: u8 = 0;
    pub const CHASSIS_ID: u8 = 1;
    pub const PORT_ID: u8 = 2;
    pub const TTL: u8 = 3;
    /// Locally-assigned subtype for both chassis and port IDs.
    pub const SUBTYPE_LOCAL: u8 = 7;
}

/// A parsed LLDP discovery frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// The 64-bit datapath (switch) identifier carried in the Chassis ID
    /// TLV.
    pub chassis_id: u64,
    /// The 32-bit port number carried in the Port ID TLV.
    pub port_id: u32,
    /// Time-to-live in seconds.
    pub ttl_secs: u16,
}

impl Repr {
    /// The emitted LLDPDU length:
    /// chassis (2+1+8) + port (2+1+4) + ttl (2+2) + end (2).
    pub const BUFFER_LEN: usize = 11 + 7 + 4 + 2;

    /// The emitted length.
    pub const fn buffer_len(&self) -> usize {
        Self::BUFFER_LEN
    }

    /// Write the LLDPDU into `buffer`.
    ///
    /// # Panics
    /// Panics if `buffer` is shorter than [`Self::BUFFER_LEN`].
    pub fn emit(&self, buffer: &mut [u8]) {
        let mut at = 0;
        let mut put_tlv = |buffer: &mut [u8], ty: u8, value: &[u8]| {
            let header = (u16::from(ty) << 9) | (value.len() as u16);
            buffer[at..at + 2].copy_from_slice(&header.to_be_bytes());
            buffer[at + 2..at + 2 + value.len()].copy_from_slice(value);
            at += 2 + value.len();
        };

        let mut chassis = [0u8; 9];
        chassis[0] = tlv::SUBTYPE_LOCAL;
        chassis[1..9].copy_from_slice(&self.chassis_id.to_be_bytes());
        put_tlv(buffer, tlv::CHASSIS_ID, &chassis);

        let mut port = [0u8; 5];
        port[0] = tlv::SUBTYPE_LOCAL;
        port[1..5].copy_from_slice(&self.port_id.to_be_bytes());
        put_tlv(buffer, tlv::PORT_ID, &port);

        put_tlv(buffer, tlv::TTL, &self.ttl_secs.to_be_bytes());
        put_tlv(buffer, tlv::END, &[]);
    }

    /// Parse an LLDPDU, walking its TLV chain.
    ///
    /// The three mandatory TLVs must appear in order (per 802.1AB);
    /// unknown optional TLVs after the TTL are skipped.
    pub fn parse(buffer: &[u8]) -> Result<Repr> {
        let mut walker = TlvWalker { buffer, at: 0 };

        let (ty, value) = walker.next_tlv()?;
        if ty != tlv::CHASSIS_ID || value.len() != 9 || value[0] != tlv::SUBTYPE_LOCAL {
            return Err(Error::Malformed);
        }
        let chassis_id = u64::from_be_bytes(value[1..9].try_into().unwrap());

        let (ty, value) = walker.next_tlv()?;
        if ty != tlv::PORT_ID || value.len() != 5 || value[0] != tlv::SUBTYPE_LOCAL {
            return Err(Error::Malformed);
        }
        let port_id = u32::from_be_bytes(value[1..5].try_into().unwrap());

        let (ty, value) = walker.next_tlv()?;
        if ty != tlv::TTL || value.len() != 2 {
            return Err(Error::Malformed);
        }
        let ttl_secs = u16::from_be_bytes(value.try_into().unwrap());

        // Skip optional TLVs until End.
        loop {
            let (ty, _) = walker.next_tlv()?;
            if ty == tlv::END {
                break;
            }
        }

        Ok(Repr {
            chassis_id,
            port_id,
            ttl_secs,
        })
    }
}

struct TlvWalker<'a> {
    buffer: &'a [u8],
    at: usize,
}

impl<'a> TlvWalker<'a> {
    fn next_tlv(&mut self) -> Result<(u8, &'a [u8])> {
        if self.at + 2 > self.buffer.len() {
            return Err(Error::Truncated);
        }
        let header = get_u16(self.buffer, self.at);
        let ty = (header >> 9) as u8;
        let len = usize::from(header & 0x1ff);
        let start = self.at + 2;
        if start + len > self.buffer.len() {
            return Err(Error::Truncated);
        }
        self.at = start + len;
        Ok((ty, &self.buffer[start..start + len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_macs_name_their_port_and_nothing_else() {
        for port in [0, 1, 17, u32::MAX] {
            let mac = port_mac(port);
            assert!(
                mac.is_unicast() && mac.0[0] & 0x02 != 0,
                "locally administered"
            );
            assert_eq!(mac_port(mac), Some(port));
        }
        let outside = [
            EthernetAddress::from_id(0x70_0000 + 9),
            EthernetAddress::from_id(0x50_0000 + 9),
            EthernetAddress::BROADCAST,
            EthernetAddress::ZERO,
        ];
        for mac in outside {
            assert_eq!(mac_port(mac), None, "{mac}");
        }
    }

    #[test]
    fn emit_parse_roundtrip() {
        let repr = Repr {
            chassis_id: 0xdead_beef_0042,
            port_id: 17,
            ttl_secs: 120,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        assert_eq!(Repr::parse(&buf).unwrap(), repr);
    }

    #[test]
    fn extremes_roundtrip() {
        for (chassis, port) in [(0u64, 0u32), (u64::MAX, u32::MAX)] {
            let repr = Repr {
                chassis_id: chassis,
                port_id: port,
                ttl_secs: 1,
            };
            let mut buf = vec![0u8; repr.buffer_len()];
            repr.emit(&mut buf);
            assert_eq!(Repr::parse(&buf).unwrap(), repr);
        }
    }

    #[test]
    fn reject_truncated() {
        let repr = Repr {
            chassis_id: 1,
            port_id: 2,
            ttl_secs: 3,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        for cut in [0, 1, 5, 12, buf.len() - 1] {
            assert_eq!(Repr::parse(&buf[..cut]).unwrap_err(), Error::Truncated);
        }
    }

    #[test]
    fn reject_wrong_leading_tlv() {
        let repr = Repr {
            chassis_id: 1,
            port_id: 2,
            ttl_secs: 3,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        // Overwrite the first TLV type (chassis -> port id).
        let header = (u16::from(tlv::PORT_ID) << 9) | 9;
        buf[0..2].copy_from_slice(&header.to_be_bytes());
        assert_eq!(Repr::parse(&buf).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn skips_optional_tlvs() {
        let repr = Repr {
            chassis_id: 9,
            port_id: 3,
            ttl_secs: 60,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        // Splice in an optional TLV (type 5 = system name) before End.
        let end_at = buf.len() - 2;
        let mut spliced = buf[..end_at].to_vec();
        let name = b"sw1";
        let header = (5u16 << 9) | (name.len() as u16);
        spliced.extend_from_slice(&header.to_be_bytes());
        spliced.extend_from_slice(name);
        spliced.extend_from_slice(&buf[end_at..]);
        assert_eq!(Repr::parse(&spliced).unwrap(), repr);
    }
}
