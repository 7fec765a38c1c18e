//! Whole-frame composition helpers.
//!
//! Simulators, traffic generators and tests need complete, checksummed
//! Ethernet frames. [`PacketBuilder`] assembles them from the typed `Repr`s
//! in this crate, producing a `Vec<u8>` ready to inject on a link.

use crate::address::{EthernetAddress, Ipv4Address};
use crate::ethernet::{self, EtherType};
use crate::ipv4::{self, Protocol};
use crate::{arp, icmpv4, lldp, tcp, udp};

/// A builder of complete Ethernet frames.
///
/// ```
/// use zen_wire::builder::PacketBuilder;
/// use zen_wire::{EthernetAddress, Ipv4Address};
///
/// let frame = PacketBuilder::udp(
///     EthernetAddress::from_id(1), Ipv4Address::new(10, 0, 0, 1), 4242,
///     EthernetAddress::from_id(2), Ipv4Address::new(10, 0, 0, 2), 53,
///     b"payload",
/// );
/// assert!(frame.len() > 42);
/// ```
pub struct PacketBuilder;

impl PacketBuilder {
    /// An Ethernet frame carrying an arbitrary payload with the given
    /// EtherType.
    pub fn ethernet(
        src_mac: EthernetAddress,
        dst_mac: EthernetAddress,
        ethertype: EtherType,
        payload: &[u8],
    ) -> Vec<u8> {
        let mut buf = vec![0u8; ethernet::HEADER_LEN + payload.len()];
        let mut frame = ethernet::Frame::new_unchecked(&mut buf[..]);
        ethernet::Repr {
            src_addr: src_mac,
            dst_addr: dst_mac,
            ethertype,
        }
        .emit(&mut frame);
        frame.payload_mut().copy_from_slice(payload);
        buf
    }

    /// An Ethernet+IPv4 frame with an arbitrary L4 payload.
    #[allow(clippy::too_many_arguments)]
    pub fn ipv4(
        src_mac: EthernetAddress,
        src_ip: Ipv4Address,
        dst_mac: EthernetAddress,
        dst_ip: Ipv4Address,
        protocol: Protocol,
        ttl: u8,
        dscp_ecn: u8,
        l4_payload: &[u8],
    ) -> Vec<u8> {
        let ip_repr = ipv4::Repr {
            src_addr: src_ip,
            dst_addr: dst_ip,
            protocol,
            payload_len: l4_payload.len(),
            ttl,
            dscp_ecn,
        };
        let mut ip_buf = vec![0u8; ip_repr.buffer_len()];
        let mut packet = ipv4::Packet::new_unchecked(&mut ip_buf[..]);
        ip_repr.emit(&mut packet);
        packet.payload_mut().copy_from_slice(l4_payload);
        Self::ethernet(src_mac, dst_mac, EtherType::Ipv4, &ip_buf)
    }

    /// A complete UDP-over-IPv4-over-Ethernet frame.
    #[allow(clippy::too_many_arguments)]
    pub fn udp(
        src_mac: EthernetAddress,
        src_ip: Ipv4Address,
        src_port: u16,
        dst_mac: EthernetAddress,
        dst_ip: Ipv4Address,
        dst_port: u16,
        payload: &[u8],
    ) -> Vec<u8> {
        let udp_repr = udp::Repr {
            src_port,
            dst_port,
            payload_len: payload.len(),
        };
        let mut udp_buf = vec![0u8; udp_repr.buffer_len()];
        let mut dgram = udp::Datagram::new_unchecked(&mut udp_buf[..]);
        dgram.set_len_field(udp_repr.buffer_len() as u16);
        dgram.payload_mut().copy_from_slice(payload);
        udp_repr.emit(&mut dgram, src_ip, dst_ip);
        Self::ipv4(
            src_mac,
            src_ip,
            dst_mac,
            dst_ip,
            Protocol::Udp,
            64,
            0,
            &udp_buf,
        )
    }

    /// A complete TCP-over-IPv4-over-Ethernet frame.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp(
        src_mac: EthernetAddress,
        src_ip: Ipv4Address,
        src_port: u16,
        dst_mac: EthernetAddress,
        dst_ip: Ipv4Address,
        dst_port: u16,
        flags: tcp::Flags,
        payload: &[u8],
    ) -> Vec<u8> {
        let tcp_repr = tcp::Repr {
            src_port,
            dst_port,
            seq_number: 0,
            ack_number: 0,
            flags,
            window: 65535,
            payload_len: payload.len(),
        };
        let mut tcp_buf = vec![0u8; tcp_repr.buffer_len()];
        let mut seg = tcp::Segment::new_unchecked(&mut tcp_buf[..]);
        seg.set_header_len(tcp::HEADER_LEN as u8);
        seg.payload_mut().copy_from_slice(payload);
        tcp_repr.emit(&mut seg, src_ip, dst_ip);
        Self::ipv4(
            src_mac,
            src_ip,
            dst_mac,
            dst_ip,
            Protocol::Tcp,
            64,
            0,
            &tcp_buf,
        )
    }

    /// A complete ICMP echo request frame.
    pub fn icmp_echo_request(
        src_mac: EthernetAddress,
        src_ip: Ipv4Address,
        dst_mac: EthernetAddress,
        dst_ip: Ipv4Address,
        ident: u16,
        seq: u16,
    ) -> Vec<u8> {
        let icmp_repr = icmpv4::Repr {
            message: icmpv4::Message::EchoRequest { ident, seq },
            payload_len: 0,
        };
        let mut icmp_buf = vec![0u8; icmp_repr.buffer_len()];
        icmp_repr.emit(&mut icmpv4::Packet::new_unchecked(&mut icmp_buf[..]));
        Self::ipv4(
            src_mac,
            src_ip,
            dst_mac,
            dst_ip,
            Protocol::Icmp,
            64,
            0,
            &icmp_buf,
        )
    }

    /// A broadcast ARP who-has request.
    pub fn arp_request(
        src_mac: EthernetAddress,
        src_ip: Ipv4Address,
        target_ip: Ipv4Address,
    ) -> Vec<u8> {
        let repr = arp::Repr::request(src_mac, src_ip, target_ip);
        let mut arp_buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut arp::Packet::new_unchecked(&mut arp_buf[..]));
        Self::ethernet(
            src_mac,
            EthernetAddress::BROADCAST,
            EtherType::Arp,
            &arp_buf,
        )
    }

    /// A unicast ARP is-at reply answering `request`.
    pub fn arp_reply(request: &arp::Repr, our_mac: EthernetAddress) -> Vec<u8> {
        let repr = request.reply_to(our_mac);
        let mut arp_buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut arp::Packet::new_unchecked(&mut arp_buf[..]));
        Self::ethernet(
            our_mac,
            request.sender_hardware_addr,
            EtherType::Arp,
            &arp_buf,
        )
    }

    /// An LLDP discovery frame announcing (chassis, port).
    pub fn lldp(src_mac: EthernetAddress, chassis_id: u64, port_id: u32, ttl_secs: u16) -> Vec<u8> {
        let mut buf = Vec::new();
        Self::lldp_into(&mut buf, src_mac, chassis_id, port_id, ttl_secs);
        buf
    }

    /// [`PacketBuilder::lldp`], written over `buf`: a prober that keeps
    /// one buffer encodes every probe without allocating.
    pub fn lldp_into(
        buf: &mut Vec<u8>,
        src_mac: EthernetAddress,
        chassis_id: u64,
        port_id: u32,
        ttl_secs: u16,
    ) {
        let repr = lldp::Repr {
            chassis_id,
            port_id,
            ttl_secs,
        };
        buf.clear();
        buf.resize(ethernet::HEADER_LEN + repr.buffer_len(), 0);
        let mut frame = ethernet::Frame::new_unchecked(&mut buf[..]);
        ethernet::Repr {
            src_addr: src_mac,
            dst_addr: EthernetAddress::LLDP_MULTICAST,
            ethertype: EtherType::Lldp,
        }
        .emit(&mut frame);
        repr.emit(frame.payload_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ethernet::Frame;

    const SRC_MAC: EthernetAddress = EthernetAddress([0x02, 0, 0, 0, 0, 1]);
    const DST_MAC: EthernetAddress = EthernetAddress([0x02, 0, 0, 0, 0, 2]);
    const SRC_IP: Ipv4Address = Ipv4Address::new(10, 0, 0, 1);
    const DST_IP: Ipv4Address = Ipv4Address::new(10, 0, 0, 2);

    #[test]
    fn udp_frame_parses_end_to_end() {
        let buf = PacketBuilder::udp(SRC_MAC, SRC_IP, 1111, DST_MAC, DST_IP, 2222, b"hello");
        let frame = Frame::new_checked(&buf[..]).unwrap();
        assert_eq!(frame.ethertype(), EtherType::Ipv4);
        let packet = ipv4::Packet::new_checked(frame.payload()).unwrap();
        let ip = ipv4::Repr::parse(&packet).unwrap();
        assert_eq!(ip.protocol, Protocol::Udp);
        let dgram = udp::Datagram::new_checked(packet.payload()).unwrap();
        let u = udp::Repr::parse(&dgram, SRC_IP, DST_IP).unwrap();
        assert_eq!((u.src_port, u.dst_port), (1111, 2222));
        assert_eq!(dgram.payload(), b"hello");
    }

    #[test]
    fn tcp_frame_parses_end_to_end() {
        let buf = PacketBuilder::tcp(
            SRC_MAC,
            SRC_IP,
            50000,
            DST_MAC,
            DST_IP,
            80,
            tcp::Flags::SYN,
            b"",
        );
        let frame = Frame::new_checked(&buf[..]).unwrap();
        let packet = ipv4::Packet::new_checked(frame.payload()).unwrap();
        let seg = tcp::Segment::new_checked(packet.payload()).unwrap();
        let t = tcp::Repr::parse(&seg, SRC_IP, DST_IP).unwrap();
        assert!(t.flags.syn);
        assert_eq!(t.dst_port, 80);
    }

    #[test]
    fn icmp_echo_parses() {
        let buf = PacketBuilder::icmp_echo_request(SRC_MAC, SRC_IP, DST_MAC, DST_IP, 42, 1);
        let frame = Frame::new_checked(&buf[..]).unwrap();
        let packet = ipv4::Packet::new_checked(frame.payload()).unwrap();
        let icmp = icmpv4::Packet::new_checked(packet.payload()).unwrap();
        let repr = icmpv4::Repr::parse(&icmp).unwrap();
        assert_eq!(
            repr.message,
            icmpv4::Message::EchoRequest { ident: 42, seq: 1 }
        );
    }

    #[test]
    fn arp_request_reply_cycle() {
        let buf = PacketBuilder::arp_request(SRC_MAC, SRC_IP, DST_IP);
        let frame = Frame::new_checked(&buf[..]).unwrap();
        assert_eq!(frame.dst_addr(), EthernetAddress::BROADCAST);
        assert_eq!(frame.ethertype(), EtherType::Arp);
        let req = arp::Repr::parse(&arp::Packet::new_checked(frame.payload()).unwrap()).unwrap();
        assert_eq!(req.operation, arp::Operation::Request);

        let reply_buf = PacketBuilder::arp_reply(&req, DST_MAC);
        let frame = Frame::new_checked(&reply_buf[..]).unwrap();
        assert_eq!(frame.dst_addr(), SRC_MAC);
        let reply = arp::Repr::parse(&arp::Packet::new_checked(frame.payload()).unwrap()).unwrap();
        assert_eq!(reply.operation, arp::Operation::Reply);
        assert_eq!(reply.sender_hardware_addr, DST_MAC);
        assert_eq!(reply.sender_protocol_addr, DST_IP);
    }

    #[test]
    fn lldp_into_overwrites_what_the_buffer_held() {
        let repr = lldp::Repr {
            chassis_id: 9,
            port_id: 3,
            ttl_secs: 120,
        };
        let mut pdu = vec![0; repr.buffer_len()];
        repr.emit(&mut pdu);
        let dst = EthernetAddress::LLDP_MULTICAST;
        let want = PacketBuilder::ethernet(SRC_MAC, dst, EtherType::Lldp, &pdu);
        let mut buf = vec![0xee; 200];
        PacketBuilder::lldp_into(&mut buf, SRC_MAC, 9, 3, 120);
        assert_eq!(buf, want);
        assert_eq!(PacketBuilder::lldp(SRC_MAC, 9, 3, 120), want);
    }

    #[test]
    fn lldp_frame_parses() {
        let buf = PacketBuilder::lldp(SRC_MAC, 77, 3, 120);
        let frame = Frame::new_checked(&buf[..]).unwrap();
        assert_eq!(frame.dst_addr(), EthernetAddress::LLDP_MULTICAST);
        assert_eq!(frame.ethertype(), EtherType::Lldp);
        let repr = lldp::Repr::parse(frame.payload()).unwrap();
        assert_eq!((repr.chassis_id, repr.port_id), (77, 3));
    }
}
