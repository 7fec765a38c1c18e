//! A simulated IPv4 end host.
//!
//! Hosts terminate the network: they resolve next hops with real ARP,
//! answer ICMP echo, and run configurable traffic workloads (ping probes
//! and constant-bit-rate UDP flows) whose datagrams carry sequence numbers
//! and send timestamps, so receivers measure one-way latency and loss
//! without any out-of-band channel.
//!
//! The same workloads model a compromised host attacking the control
//! plane: a PACKET_IN flood ([`Workload::PacketInFlood`]), an ARP
//! broadcast storm ([`Workload::ArpStorm`]) and a MAC-flapping rogue
//! ([`Workload::MacFlap`]). Their frames carry explicit addresses, so they
//! never wait on ARP, and [`HostStats::attack_tx`] counts them.
//!
//! A host has exactly one network port (port 1).

use std::any::Any;
use std::collections::BTreeMap;

use zen_telemetry::{probe_trace_id, TraceEvent, PROBE_MAGIC};
use zen_wire::builder::PacketBuilder;
use zen_wire::ethernet::{self, EtherType, Frame};
use zen_wire::{arp, icmpv4, ipv4, udp};
use zen_wire::{EthernetAddress, Ipv4Address};

use crate::stats::{Histogram, HistogramId};
use crate::time::{Duration, Instant};
use crate::world::{Context, Node, PortNo};

/// The single port a host owns.
pub const HOST_PORT: PortNo = 1;

/// Timer token for gratuitous-ARP re-announcements.
const ANNOUNCE_TOKEN: u64 = u64::MAX;

/// The L4 part of a frame [`Host::ip_frame`] laid out.
fn l4_mut(frame: &mut [u8]) -> &mut [u8] {
    &mut frame[ethernet::HEADER_LEN + ipv4::HEADER_LEN..]
}

/// A traffic workload a host can run.
#[derive(Debug, Clone)]
pub enum Workload {
    /// ICMP echo probes: `count` requests to `dst`, one every `interval`,
    /// starting at `start`.
    Ping {
        /// Destination IP.
        dst: Ipv4Address,
        /// Number of requests.
        count: u64,
        /// Inter-request gap.
        interval: Duration,
        /// First request time.
        start: Instant,
    },
    /// Constant-bit-rate UDP: `count` datagrams of `size` payload bytes to
    /// `dst:dst_port`, one every `interval`, starting at `start`.
    Udp {
        /// Destination IP.
        dst: Ipv4Address,
        /// Destination UDP port.
        dst_port: u16,
        /// Payload size in bytes (min 20 for the probe header).
        size: usize,
        /// Number of datagrams.
        count: u64,
        /// Inter-datagram gap.
        interval: Duration,
        /// First datagram time.
        start: Instant,
    },
    /// PACKET_IN flood: `count` UDP frames, one every `interval`, starting
    /// at `start`, whose destination MAC rotates on every frame, so no
    /// learned entry or installed flow ever matches — every frame punts to
    /// the controller (and, under L2 learning, floods the fabric).
    PacketInFlood {
        /// Also rotate the *source* MAC per frame. A fixed source
        /// models a compromised-but-honest NIC that targeted push-back
        /// rules can pin; a rotating source evades per-MAC push-back
        /// and must be caught by the agent's punt meter instead.
        rotate_src: bool,
        /// UDP payload bytes per flood frame.
        payload_len: usize,
        /// Number of frames.
        count: u64,
        /// Inter-frame gap (the flood rate).
        interval: Duration,
        /// First frame time.
        start: Instant,
    },
    /// ARP broadcast storm: `count` who-has requests for rotating target
    /// IPs, one every `interval`, starting at `start`. Every broadcast
    /// floods to every edge port, so a single storm port can saturate
    /// innocent access links.
    ArpStorm {
        /// Also rotate the claimed sender MAC per request, polluting
        /// L2 learning tables as a side effect.
        spoof_sources: bool,
        /// Number of requests.
        count: u64,
        /// Inter-request gap (the storm rate).
        interval: Duration,
        /// First request time.
        start: Instant,
    },
    /// MAC-flapping rogue: `count` frames whose *source* MAC is the
    /// victim's, one every `interval`, starting at `start`, sent from this
    /// (wrong) port, bouncing the victim's learned location back and forth
    /// until the L2 flap damper pins it.
    MacFlap {
        /// The MAC being claimed.
        victim_mac: EthernetAddress,
        /// Number of frames.
        count: u64,
        /// Inter-frame gap (the flap rate).
        interval: Duration,
        /// First frame time.
        start: Instant,
    },
}

impl Workload {
    /// The first shot's time, the number of shots and the gap between them.
    fn schedule(&self) -> (Instant, u64, Duration) {
        match *self {
            Workload::Ping {
                start,
                count,
                interval,
                ..
            }
            | Workload::Udp {
                start,
                count,
                interval,
                ..
            }
            | Workload::PacketInFlood {
                start,
                count,
                interval,
                ..
            }
            | Workload::ArpStorm {
                start,
                count,
                interval,
                ..
            }
            | Workload::MacFlap {
                start,
                count,
                interval,
                ..
            } => (start, count, interval),
        }
    }
}

/// Measured host statistics, exposed after a run.
#[derive(Debug, Default)]
pub struct HostStats {
    /// Frames received (all kinds).
    pub rx_frames: u64,
    /// UDP probe datagrams received.
    pub udp_rx: u64,
    /// One-way latency samples (seconds) from UDP probe timestamps.
    pub udp_latency: Histogram,
    /// Highest sequence number received per source IP.
    pub udp_max_seq: BTreeMap<Ipv4Address, u64>,
    /// Distinct probe datagrams received per source IP.
    pub udp_rx_per_src: BTreeMap<Ipv4Address, u64>,
    /// Ping RTT samples (seconds).
    pub ping_rtts: Histogram,
    /// ARP requests answered.
    pub arp_answered: u64,
    /// UDP probe datagrams sent.
    pub udp_tx: u64,
    /// Attack frames sent (flood, storm and flap shots).
    pub attack_tx: u64,
}

/// A simulated IPv4 host. See the module docs.
pub struct Host {
    mac: EthernetAddress,
    ip: Ipv4Address,
    gratuitous_arp: bool,
    arp_cache: BTreeMap<Ipv4Address, EthernetAddress>,
    /// Frames waiting for ARP resolution to fill in their destination
    /// MAC, keyed by next-hop IP.
    pending: BTreeMap<Ipv4Address, Vec<Vec<u8>>>,
    workloads: Vec<WorkloadState>,
    ping_sent_at: BTreeMap<(u16, u16), Instant>,
    next_ping_ident: u16,
    /// Typed handle for the shared `host.udp_latency_secs` histogram,
    /// registered lazily so the receive path never does a string lookup.
    latency_hid: Option<HistogramId>,
    /// Measured statistics.
    pub stats: HostStats,
}

#[derive(Debug)]
struct WorkloadState {
    spec: Workload,
    sent: u64,
    seq: u64,
}

impl Host {
    /// Create a host with the given addresses.
    pub fn new(mac: EthernetAddress, ip: Ipv4Address) -> Host {
        Host {
            mac,
            ip,
            gratuitous_arp: false,
            arp_cache: BTreeMap::new(),
            pending: BTreeMap::new(),
            workloads: Vec::new(),
            ping_sent_at: BTreeMap::new(),
            next_ping_ident: 1,
            latency_hid: None,
            stats: HostStats::default(),
        }
    }

    /// Announce the host's address with gratuitous ARPs at start and
    /// shortly after (250 ms and 1 s) — lets learning switches and
    /// controllers locate it even if the first announcement races their
    /// own startup.
    pub fn with_gratuitous_arp(mut self) -> Host {
        self.gratuitous_arp = true;
        self
    }

    /// Add a traffic workload.
    pub fn with_workload(mut self, spec: Workload) -> Host {
        self.workloads.push(WorkloadState {
            spec,
            sent: 0,
            seq: 0,
        });
        self
    }

    /// Pre-populate the ARP cache (for experiments that want pure
    /// data-path behaviour without resolution traffic).
    pub fn with_static_arp(mut self, ip: Ipv4Address, mac: EthernetAddress) -> Host {
        self.arp_cache.insert(ip, mac);
        self
    }

    /// This host's MAC address.
    pub fn mac(&self) -> EthernetAddress {
        self.mac
    }

    /// This host's IP address.
    pub fn ip(&self) -> Ipv4Address {
        self.ip
    }

    fn workload_timer_token(idx: usize) -> u64 {
        idx as u64
    }

    /// Send a gratuitous ARP (sender == target == us).
    fn announce(&self, ctx: &mut Context<'_>) {
        let frame = PacketBuilder::arp_request(self.mac, self.ip, self.ip);
        ctx.transmit(HOST_PORT, frame);
    }

    /// Send an [`Host::ip_frame`] to `dst_ip`, resolving its MAC first
    /// if need be.
    fn send_ip(&mut self, ctx: &mut Context<'_>, dst_ip: Ipv4Address, mut frame: Vec<u8>) {
        // All hosts in zen experiments share one subnet: the next hop is
        // the destination itself.
        if let Some(&dst_mac) = self.arp_cache.get(&dst_ip) {
            Frame::new_unchecked(&mut frame[..]).set_dst_addr(dst_mac);
            ctx.transmit(HOST_PORT, frame);
        } else {
            let first_for_target = !self.pending.contains_key(&dst_ip);
            self.pending.entry(dst_ip).or_default().push(frame);
            if first_for_target {
                let req = PacketBuilder::arp_request(self.mac, self.ip, dst_ip);
                ctx.transmit(HOST_PORT, req);
            }
        }
    }

    fn flush_pending(&mut self, ctx: &mut Context<'_>, ip: Ipv4Address, mac: EthernetAddress) {
        if let Some(frames) = self.pending.remove(&ip) {
            for mut frame in frames {
                Frame::new_unchecked(&mut frame[..]).set_dst_addr(mac);
                ctx.transmit(HOST_PORT, frame);
            }
        }
    }

    /// An Ethernet frame from this host carrying an IPv4 packet for
    /// `dst` with room for `l4_len` bytes of `protocol`, which the
    /// caller writes through [`l4_mut`]; [`Host::send_ip`] fills in the
    /// destination MAC. Every layer is emitted in place into the one
    /// buffer, so a datagram costs one allocation and no copy from
    /// segment to packet to frame.
    fn ip_frame(&self, dst: Ipv4Address, protocol: ipv4::Protocol, l4_len: usize) -> Vec<u8> {
        let repr = ipv4::Repr {
            src_addr: self.ip,
            dst_addr: dst,
            protocol,
            payload_len: l4_len,
            ttl: 64,
            dscp_ecn: 0,
        };
        let mut buf = vec![0u8; ethernet::HEADER_LEN + repr.buffer_len()];
        let mut frame = Frame::new_unchecked(&mut buf[..]);
        frame.set_src_addr(self.mac);
        frame.set_ethertype(EtherType::Ipv4);
        repr.emit(&mut ipv4::Packet::new_unchecked(frame.payload_mut()));
        buf
    }

    fn fire_workload(&mut self, ctx: &mut Context<'_>, idx: usize) {
        let now = ctx.now();
        let (spec, seq) = {
            let w = &mut self.workloads[idx];
            w.sent += 1;
            let seq = w.seq;
            w.seq += 1;
            (w.spec.clone(), seq)
        };
        match spec {
            Workload::Ping { dst, .. } => {
                // Each workload needs its own ident: seq numbers are
                // per-workload, so a shared ident would collide in
                // `ping_sent_at` when several ping workloads run at once.
                let ident = self.next_ping_ident.wrapping_add(idx as u16);
                let seq16 = (seq & 0xffff) as u16;
                self.ping_sent_at.insert((ident, seq16), now);
                let message = icmpv4::Message::EchoRequest { ident, seq: seq16 };
                let repr = icmpv4::Repr {
                    message,
                    payload_len: 0,
                };
                let mut frame = self.ip_frame(dst, ipv4::Protocol::Icmp, repr.buffer_len());
                repr.emit(&mut icmpv4::Packet::new_unchecked(l4_mut(&mut frame)));
                self.send_ip(ctx, dst, frame);
            }
            Workload::Udp {
                dst,
                dst_port,
                size,
                ..
            } => {
                let repr = udp::Repr {
                    src_port: 10_000 + idx as u16,
                    dst_port,
                    payload_len: size.max(20),
                };
                let mut frame = self.ip_frame(dst, ipv4::Protocol::Udp, repr.buffer_len());
                let mut dgram = udp::Datagram::new_unchecked(l4_mut(&mut frame));
                dgram.set_len_field(repr.buffer_len() as u16);
                let payload = dgram.payload_mut();
                payload[0..4].copy_from_slice(&PROBE_MAGIC.to_be_bytes());
                payload[4..12].copy_from_slice(&seq.to_be_bytes());
                payload[12..20].copy_from_slice(&now.as_nanos().to_be_bytes());
                repr.emit(&mut dgram, self.ip, dst);
                self.stats.udp_tx += 1;
                if ctx.recorder().is_enabled() {
                    let tid = probe_trace_id(self.ip.to_u32(), dst.to_u32(), seq, now.as_nanos());
                    let node = ctx.self_id.0;
                    ctx.recorder()
                        .record(now.as_nanos(), tid, TraceEvent::HostEmit { node });
                }
                self.send_ip(ctx, dst, frame);
            }
            Workload::PacketInFlood {
                rotate_src,
                payload_len,
                ..
            } => {
                // Rotating destination MACs are never learned, so every
                // frame misses every installed flow and punts.
                let nonce = seq + 1;
                let dst_mac = EthernetAddress::from_id(0x6D_0000_0000 + nonce);
                let dst_ip = Ipv4Address::new(
                    172,
                    16,
                    ((nonce >> 8) & 0xff) as u8,
                    (nonce & 0xff).max(1) as u8,
                );
                let src_mac = if rotate_src {
                    EthernetAddress::from_id(0x6C_0000_0000 + nonce)
                } else {
                    self.mac
                };
                let payload = vec![0u8; payload_len];
                let frame = PacketBuilder::udp(
                    src_mac,
                    self.ip,
                    (4000 + (nonce & 0xfff)) as u16,
                    dst_mac,
                    dst_ip,
                    (4000 + ((nonce >> 12) & 0xfff)) as u16,
                    &payload,
                );
                self.attack(ctx, frame);
            }
            Workload::ArpStorm { spoof_sources, .. } => {
                let nonce = seq + 1;
                let src_mac = if spoof_sources {
                    EthernetAddress::from_id(0x6B_0000_0000 + nonce)
                } else {
                    self.mac
                };
                let target = Ipv4Address::new(
                    10,
                    250,
                    ((nonce >> 8) & 0xff) as u8,
                    (nonce & 0xff).max(1) as u8,
                );
                let frame = PacketBuilder::arp_request(src_mac, self.ip, target);
                self.attack(ctx, frame);
            }
            Workload::MacFlap { victim_mac, .. } => {
                // Claim the victim's source MAC from this port. The
                // destination is a fixed unknown unicast so the frame
                // itself goes nowhere interesting; the damage is done
                // by the L2 source-learning flap.
                let payload = [0u8; 20];
                let frame = PacketBuilder::udp(
                    victim_mac,
                    self.ip,
                    4001,
                    EthernetAddress::from_id(0x6E_0000_0001),
                    Ipv4Address::new(172, 31, 0, 1),
                    4001,
                    &payload,
                );
                self.attack(ctx, frame);
            }
        }
        // Schedule the next shot if any remain.
        let (_, count, interval) = spec.schedule();
        if self.workloads[idx].sent < count {
            ctx.set_timer(interval, Self::workload_timer_token(idx));
        }
    }

    /// Send an attack frame as built: its addresses are explicit, so it
    /// never enters ARP resolution.
    fn attack(&mut self, ctx: &mut Context<'_>, frame: Vec<u8>) {
        self.stats.attack_tx += 1;
        ctx.transmit(HOST_PORT, frame);
    }

    fn handle_arp(&mut self, ctx: &mut Context<'_>, payload: &[u8]) {
        let Ok(packet) = arp::Packet::new_checked(payload) else {
            return;
        };
        let Ok(repr) = arp::Repr::parse(&packet) else {
            return;
        };
        // Learn the sender mapping opportunistically.
        if repr.sender_protocol_addr.is_unicast() {
            self.arp_cache
                .insert(repr.sender_protocol_addr, repr.sender_hardware_addr);
            self.flush_pending(ctx, repr.sender_protocol_addr, repr.sender_hardware_addr);
        }
        if repr.operation == arp::Operation::Request && repr.target_protocol_addr == self.ip {
            self.stats.arp_answered += 1;
            let reply = PacketBuilder::arp_reply(&repr, self.mac);
            ctx.transmit(HOST_PORT, reply);
        }
    }

    fn handle_ipv4(&mut self, ctx: &mut Context<'_>, src_mac: EthernetAddress, payload: &[u8]) {
        let Ok(packet) = ipv4::Packet::new_checked(payload) else {
            return;
        };
        let Ok(ip) = ipv4::Repr::parse(&packet) else {
            return;
        };
        if ip.dst_addr != self.ip {
            return; // not ours; hosts do not forward
        }
        // Opportunistic ARP learning from traffic.
        self.arp_cache.entry(ip.src_addr).or_insert(src_mac);
        match ip.protocol {
            ipv4::Protocol::Icmp => self.handle_icmp(ctx, ip.src_addr, packet.payload()),
            ipv4::Protocol::Udp => self.handle_udp(ctx, ip.src_addr, packet.payload()),
            _ => {}
        }
    }

    fn handle_icmp(&mut self, ctx: &mut Context<'_>, src_ip: Ipv4Address, payload: &[u8]) {
        let Ok(packet) = icmpv4::Packet::new_checked(payload) else {
            return;
        };
        let Ok(repr) = icmpv4::Repr::parse(&packet) else {
            return;
        };
        match repr.message {
            icmpv4::Message::EchoRequest { ident, seq } => {
                let reply = icmpv4::Repr {
                    message: icmpv4::Message::EchoReply { ident, seq },
                    payload_len: 0,
                };
                let mut frame = self.ip_frame(src_ip, ipv4::Protocol::Icmp, reply.buffer_len());
                reply.emit(&mut icmpv4::Packet::new_unchecked(l4_mut(&mut frame)));
                self.send_ip(ctx, src_ip, frame);
            }
            icmpv4::Message::EchoReply { ident, seq } => {
                if let Some(sent) = self.ping_sent_at.remove(&(ident, seq)) {
                    let rtt = ctx.now() - sent;
                    self.stats.ping_rtts.record(rtt.as_secs_f64());
                }
            }
            _ => {}
        }
    }

    fn handle_udp(&mut self, ctx: &mut Context<'_>, src_ip: Ipv4Address, payload: &[u8]) {
        let Ok(dgram) = udp::Datagram::new_checked(payload) else {
            return;
        };
        if !dgram.verify_checksum(src_ip, self.ip) {
            return;
        }
        let data = dgram.payload();
        self.stats.udp_rx += 1;
        if data.len() >= 20 && data[0..4] == PROBE_MAGIC.to_be_bytes() {
            let seq = u64::from_be_bytes(data[4..12].try_into().unwrap());
            let sent_nanos = u64::from_be_bytes(data[12..20].try_into().unwrap());
            let latency = ctx.now().as_nanos().saturating_sub(sent_nanos);
            self.stats.udp_latency.record(latency as f64 / 1e9);
            let hid = *self
                .latency_hid
                .get_or_insert_with(|| ctx.metrics().register_histogram("host.udp_latency_secs"));
            ctx.metrics().record(hid, latency as f64 / 1e9);
            if ctx.recorder().is_enabled() {
                let tid = probe_trace_id(src_ip.to_u32(), self.ip.to_u32(), seq, sent_nanos);
                let node = ctx.self_id.0;
                ctx.recorder()
                    .record(ctx.now().as_nanos(), tid, TraceEvent::HostRecv { node });
            }
            let max = self.stats.udp_max_seq.entry(src_ip).or_insert(0);
            *max = (*max).max(seq);
            *self.stats.udp_rx_per_src.entry(src_ip).or_insert(0) += 1;
        }
    }
}

impl Node for Host {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.gratuitous_arp {
            self.announce(ctx);
            ctx.set_timer(Duration::from_millis(250), ANNOUNCE_TOKEN);
            ctx.set_timer(Duration::from_millis(1000), ANNOUNCE_TOKEN);
        }
        let now = ctx.now();
        for idx in 0..self.workloads.len() {
            let (start, ..) = self.workloads[idx].spec.schedule();
            let delay = start.duration_since(now);
            ctx.set_timer(delay, Self::workload_timer_token(idx));
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, _port: PortNo, frame: &[u8]) {
        self.stats.rx_frames += 1;
        let Ok(eth) = Frame::new_checked(frame) else {
            return;
        };
        // Accept only frames addressed to us, broadcast, or multicast.
        let dst = eth.dst_addr();
        if dst != self.mac && !dst.is_multicast() {
            return;
        }
        match eth.ethertype() {
            EtherType::Arp => self.handle_arp(ctx, eth.payload()),
            EtherType::Ipv4 => self.handle_ipv4(ctx, eth.src_addr(), eth.payload()),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token == ANNOUNCE_TOKEN {
            self.announce(ctx);
            return;
        }
        let idx = token as usize;
        if idx < self.workloads.len() {
            self.fire_workload(ctx, idx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{LinkParams, World};
    use zen_wire::fnv::{fnv1a_fold, OFFSET_BASIS};

    fn host(id: u64) -> Host {
        Host::new(
            EthernetAddress::from_id(id),
            Ipv4Address::new(10, 0, 0, id as u8),
        )
    }

    #[test]
    fn ping_between_directly_connected_hosts() {
        let mut world = World::new(1);
        let a = world.add_node(Box::new(host(1).with_workload(Workload::Ping {
            dst: Ipv4Address::new(10, 0, 0, 2),
            count: 5,
            interval: Duration::from_millis(10),
            start: Instant::from_millis(1),
        })));
        let b = world.add_node(Box::new(host(2)));
        world.connect(a, b, LinkParams::default());
        world.run_until(Instant::from_secs(1));

        // Every request was answered.
        let ha = world.node_as::<Host>(a);
        assert_eq!(ha.stats.ping_rtts.count(), 5);
        // RTT must exceed 2x propagation latency.
        assert!(ha.stats.ping_rtts.min().unwrap() >= 20e-6);
        let hb = world.node_as::<Host>(b);
        // ARP was resolved exactly once in each direction... b learned a
        // from the request, so only a sent a request.
        assert_eq!(hb.stats.arp_answered, 1);
    }

    #[test]
    fn udp_flow_measures_latency_and_loss() {
        let mut world = World::new(1);
        let a = world.add_node(Box::new(host(1).with_workload(Workload::Udp {
            dst: Ipv4Address::new(10, 0, 0, 2),
            dst_port: 9,
            size: 100,
            count: 20,
            interval: Duration::from_millis(1),
            start: Instant::from_millis(1),
        })));
        let b = world.add_node(Box::new(host(2)));
        world.connect(a, b, LinkParams::default());
        world.run_until(Instant::from_secs(1));

        let hb = world.node_as::<Host>(b);
        assert_eq!(hb.stats.udp_rx, 20);
        assert_eq!(hb.stats.udp_rx_per_src[&Ipv4Address::new(10, 0, 0, 1)], 20);
        assert_eq!(hb.stats.udp_max_seq[&Ipv4Address::new(10, 0, 0, 1)], 19);
        assert!(hb.stats.udp_latency.min().unwrap() > 0.0);
    }

    #[test]
    fn static_arp_skips_resolution() {
        let mac2 = EthernetAddress::from_id(2);
        let mut world = World::new(1);
        let a = world.add_node(Box::new(
            host(1)
                .with_static_arp(Ipv4Address::new(10, 0, 0, 2), mac2)
                .with_workload(Workload::Udp {
                    dst: Ipv4Address::new(10, 0, 0, 2),
                    dst_port: 9,
                    size: 64,
                    count: 1,
                    interval: Duration::from_millis(1),
                    start: Instant::ZERO,
                }),
        ));
        let b = world.add_node(Box::new(host(2)));
        world.connect(a, b, LinkParams::default());
        world.run_until(Instant::from_secs(1));
        let hb = world.node_as::<Host>(b);
        assert_eq!(hb.stats.udp_rx, 1);
        assert_eq!(hb.stats.arp_answered, 0);
        // Suppress unused warning pattern: a still exists.
        let _ = world.node_as::<Host>(a);
    }

    #[test]
    fn gratuitous_arp_emitted() {
        let mut world = World::new(1);
        let a = world.add_node(Box::new(host(1).with_gratuitous_arp()));
        let b = world.add_node(Box::new(host(2)));
        world.connect(a, b, LinkParams::default());
        world.run_until(Instant::from_millis(10));
        // b saw the broadcast and learned a's mapping.
        let hb = world.node_as::<Host>(b);
        assert_eq!(
            hb.arp_cache.get(&Ipv4Address::new(10, 0, 0, 1)),
            Some(&EthernetAddress::from_id(1))
        );
        // But did not answer it (target was not b's IP).
        assert_eq!(hb.stats.arp_answered, 0);
    }

    /// The three attack workloads' frames and send times, pinned: each
    /// runs 300 shots into a zero-latency tap, which folds every frame
    /// with its arrival time (its send time) into one FNV-1a.
    #[test]
    fn attack_frames_and_schedule_are_pinned() {
        struct Tap(u64, u64);
        impl Node for Tap {
            fn on_packet(&mut self, ctx: &mut Context<'_>, _: PortNo, frame: &[u8]) {
                self.0 = fnv1a_fold(self.0, &ctx.now().as_nanos().to_le_bytes());
                self.0 = fnv1a_fold(self.0, frame);
                self.1 += 1;
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let (count, interval, start) = (300, Duration::from_micros(10), Instant::from_millis(1));
        let victim_mac = EthernetAddress::from_id(0x42);
        let cases = [
            (
                Workload::PacketInFlood {
                    rotate_src: false,
                    payload_len: 600,
                    count,
                    interval,
                    start,
                },
                0x5c22_d81b_12ec_fb77,
            ),
            (
                Workload::PacketInFlood {
                    rotate_src: true,
                    payload_len: 20,
                    count,
                    interval,
                    start,
                },
                0x2a33_f5ed_c43f_91c2,
            ),
            (
                Workload::ArpStorm {
                    spoof_sources: true,
                    count,
                    interval,
                    start,
                },
                0xc46a_6e53_1fb9_a1c3,
            ),
            (
                Workload::ArpStorm {
                    spoof_sources: false,
                    count,
                    interval,
                    start,
                },
                0x6d11_8111_ed23_79e7,
            ),
            (
                Workload::MacFlap {
                    victim_mac,
                    count,
                    interval,
                    start,
                },
                0x9fba_2ffe_7ed7_7195,
            ),
        ];
        for (spec, pinned) in cases {
            let mut world = World::new(1);
            let rogue = Host::new(
                EthernetAddress([0x66, 0, 0, 0, 0, 1]),
                Ipv4Address::new(10, 0, 9, 9),
            );
            let rogue = world.add_node(Box::new(rogue.with_workload(spec.clone())));
            let tap = world.add_node(Box::new(Tap(OFFSET_BASIS, 0)));
            world.connect(rogue, tap, LinkParams::instant(Duration::ZERO));
            world.run_until(Instant::from_millis(10));
            let tap = world.node_as::<Tap>(tap);
            assert_eq!((tap.1, tap.0), (count, pinned), "{spec:?}");
            assert_eq!(world.node_as::<Host>(rogue).stats.attack_tx, count);
            assert_eq!(world.node_as::<Host>(rogue).stats.udp_tx, 0);
        }
    }

    #[test]
    fn ignores_frames_for_other_macs() {
        let mut world = World::new(1);
        let a = world.add_node(Box::new(host(1)));
        let b = world.add_node(Box::new(host(2)));
        world.connect(a, b, LinkParams::default());

        // Inject a frame addressed to a third MAC via a tiny sender node.
        struct Inject;
        impl Node for Inject {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let frame = PacketBuilder::udp(
                    EthernetAddress::from_id(9),
                    Ipv4Address::new(10, 0, 0, 9),
                    1,
                    EthernetAddress::from_id(77), // not the host's MAC
                    Ipv4Address::new(10, 0, 0, 2),
                    2,
                    b"x",
                );
                ctx.transmit(1, frame);
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let inj = world.add_node(Box::new(Inject));
        world.connect(inj, b, LinkParams::default());
        world.run_until(Instant::from_millis(10));
        let hb = world.node_as::<Host>(b);
        assert_eq!(hb.stats.udp_rx, 0);
        let _ = world.node_as::<Host>(a);
    }
}
