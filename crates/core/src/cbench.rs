//! cbench-style emulated switches for controller saturation testing.
//!
//! A [`CbenchSwitch`] is a [`Node`] that speaks just enough of the
//! control protocol to complete the handshake and then blast
//! PACKET_INs at a controller as fast as the configured mode allows —
//! the moral equivalent of the classic `cbench` tool, but inside the
//! deterministic simulator. It carries **no datapath**: FLOW_MODs are
//! acknowledged (via BARRIER_REPLY) and counted, never applied.
//!
//! Each steady-state punt carries a frame whose destination MAC the
//! controller's L2 learning app has already learned (a "primer" frame
//! teaches it at session start), so every PACKET_IN elicits exactly
//! one FLOW_MOD plus one PACKET_OUT — one *flow setup* in cbench
//! terminology. Source MACs cycle through a configurable pool, like
//! cbench's rotating host addresses.
//!
//! Two load modes mirror cbench's:
//!
//! * **Closed loop** (`cbench -l`-ish): keep `outstanding` punts in
//!   flight; each completed setup immediately triggers the next punt.
//!   Measures sustainable setup throughput and per-setup latency.
//! * **Open loop** (`cbench -t`-ish): punt on a fixed timer regardless
//!   of completions. Measures behaviour under a fixed offered rate.
//!
//! The switch records one latency series: the simulated time from each
//! punt to its FLOW_MOD. It is a pure function of the world seed and is
//! safe to fold into determinism digests. The real CPU cost of the
//! controller stack is measured from outside, by timing a whole run.

use std::collections::VecDeque;

use zen_dataplane::PortNo;
use zen_proto::{encode_barrier_reply_into, encode_into, frames, Message, MessageView, PortDesc};
use zen_sim::{Context, Duration, Instant, Node, NodeId};
use zen_wire::builder::PacketBuilder;
use zen_wire::{EthernetAddress, Ipv4Address};

use crate::is_lldp;

/// Timer token used by open-loop punting.
const PUNT_TIMER: u64 = 0x9bec;

/// Ingress port claimed by steady-state punts.
const PUNT_PORT: PortNo = 1;

/// Port the learned destination MAC "lives" on (primer ingress).
const TARGET_PORT: PortNo = 2;

/// Load-generation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CbenchMode {
    /// Keep `outstanding` punts in flight; refill on each FLOW_MOD.
    Closed {
        /// Punts kept in flight per switch.
        outstanding: usize,
    },
    /// Punt once per `interval`, independent of completions.
    Open {
        /// Inter-punt interval.
        interval: Duration,
    },
}

/// Configuration for a [`CbenchSwitch`].
#[derive(Debug, Clone, Copy)]
pub struct CbenchConfig {
    /// Load-generation mode.
    pub mode: CbenchMode,
    /// Distinct source MACs cycled through (cbench's `--macs`).
    pub sources: usize,
    /// UDP payload bytes per punted frame.
    pub payload_len: usize,
    /// Most punts allowed to await their FLOW_MOD at once. In open-loop
    /// mode against a controller that falls behind — or one that sheds
    /// punts by design (admission control) — the FIFO would otherwise
    /// grow without bound and pair shed punts' timestamps with later
    /// FLOW_MODs, poisoning the latency series. Overflow evicts the
    /// oldest punt and counts it in [`CbenchStats::setups_lost`].
    pub in_flight_cap: usize,
}

impl Default for CbenchConfig {
    fn default() -> CbenchConfig {
        CbenchConfig {
            mode: CbenchMode::Closed { outstanding: 8 },
            sources: 64,
            payload_len: 64,
            in_flight_cap: 4096,
        }
    }
}

/// Deterministic outcome counters — everything here is a pure function
/// of the world seed and safe to assert on in replay tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CbenchStats {
    /// Steady-state PACKET_INs sent.
    pub punts_sent: u64,
    /// FLOW_MODs received (= completed flow setups).
    pub flow_mods: u64,
    /// Non-LLDP PACKET_OUTs received (punt releases and floods).
    pub packet_outs: u64,
    /// LLDP discovery PACKET_OUTs received (ignored, counted).
    pub lldp_outs: u64,
    /// BARRIER_REQUESTs acknowledged.
    pub barriers: u64,
    /// Messages that failed to decode (always 0 on a healthy channel).
    pub decode_errors: u64,
    /// Punts whose FLOW_MOD never arrived before
    /// [`CbenchConfig::in_flight_cap`] later punts were sent — shed by
    /// controller admission control or left behind by a saturated
    /// controller. Their ages are excluded from the latency series so
    /// defended runs report honest percentiles.
    pub setups_lost: u64,
}

/// An emulated switch that floods a controller with PACKET_INs.
pub struct CbenchSwitch {
    dpid: u64,
    controller: NodeId,
    cfg: CbenchConfig,
    /// Pre-built steady-state PACKET_INs, source MAC cycling per punt,
    /// encoded by reference so that a punt allocates nothing.
    punts: Vec<Message>,
    /// Frame from the target MAC (broadcast dst): teaches the L2 app
    /// where the steady-state destination lives, eliciting a flood
    /// rather than an install.
    primer: Vec<u8>,
    next_punt: usize,
    session_up: bool,
    xid: u32,
    /// Punt timestamps awaiting their FLOW_MOD, in send order. The
    /// control channel is FIFO per (src, dst), so completions pair
    /// with the oldest outstanding punt.
    in_flight: VecDeque<Instant>,
    /// Deterministic counters.
    pub stats: CbenchStats,
    /// Simulated punt→FLOW_MOD latency per setup, nanoseconds.
    /// Deterministic; digestible.
    pub sim_setup_ns: Vec<u64>,
}

impl CbenchSwitch {
    /// An emulated switch with datapath id `dpid` homed to
    /// `controller`.
    pub fn new(dpid: u64, controller: NodeId, cfg: CbenchConfig) -> CbenchSwitch {
        let target_mac = EthernetAddress::from_id(0x61_0000 + dpid);
        let target_ip = Ipv4Address::new(10, 200, (dpid % 250) as u8, 1);
        let payload = vec![0u8; cfg.payload_len];
        let punts = (0..cfg.sources.max(1))
            .map(|i| Message::PacketIn {
                in_port: PUNT_PORT,
                table_id: 0,
                is_miss: true,
                frame: PacketBuilder::udp(
                    EthernetAddress::from_id(0x60_0000 + (dpid << 8) + i as u64),
                    Ipv4Address::new(10, 100, (dpid % 250) as u8, (i % 250 + 1) as u8),
                    1024 + i as u16,
                    target_mac,
                    target_ip,
                    53,
                    &payload,
                ),
            })
            .collect();
        let primer = PacketBuilder::udp(
            target_mac,
            target_ip,
            53,
            EthernetAddress::BROADCAST,
            Ipv4Address::BROADCAST,
            67,
            &payload,
        );
        CbenchSwitch {
            dpid,
            controller,
            cfg,
            punts,
            primer,
            next_punt: 0,
            session_up: false,
            xid: 0,
            in_flight: VecDeque::new(),
            stats: CbenchStats::default(),
            sim_setup_ns: Vec::new(),
        }
    }

    fn send(&mut self, ctx: &mut Context<'_>, msg: &Message) {
        self.xid = self.xid.wrapping_add(1);
        self.reply(ctx, msg, self.xid);
    }

    /// Answer a request, echoing its xid (the controller correlates
    /// BARRIER_REPLYs and friends by transaction id).
    fn reply(&mut self, ctx: &mut Context<'_>, msg: &Message, xid: u32) {
        ctx.send_control_with(self.controller, |buf| encode_into(buf, msg, xid));
    }

    /// Send one steady-state PACKET_IN.
    fn punt(&mut self, ctx: &mut Context<'_>) {
        let next = self.next_punt;
        self.next_punt = (next + 1) % self.punts.len();
        self.stats.punts_sent += 1;
        self.in_flight.push_back(ctx.now());
        if self.in_flight.len() > self.cfg.in_flight_cap.max(1) {
            // The oldest punt's FLOW_MOD evidently isn't coming: count
            // it as a lost setup instead of letting FIFO pairing hand
            // its age to a later completion.
            self.in_flight.pop_front();
            self.stats.setups_lost += 1;
        }
        self.xid = self.xid.wrapping_add(1);
        let (punt, xid) = (&self.punts[next], self.xid);
        ctx.send_control_with(self.controller, |buf| encode_into(buf, punt, xid));
    }

    /// Act on one decoded message.
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Message, xid: u32) {
        match msg {
            Message::FeaturesRequest => {
                self.reply(
                    ctx,
                    &Message::FeaturesReply {
                        dpid: self.dpid,
                        n_tables: 1,
                        ports: vec![
                            PortDesc {
                                port_no: PUNT_PORT,
                                up: true,
                            },
                            PortDesc {
                                port_no: TARGET_PORT,
                                up: true,
                            },
                        ],
                    },
                    xid,
                );
                if !self.session_up {
                    self.session_up = true;
                    // Teach the L2 app where the target MAC lives,
                    // then open the firehose.
                    let primer = self.primer.clone();
                    self.send(
                        ctx,
                        &Message::PacketIn {
                            in_port: TARGET_PORT,
                            table_id: 0,
                            is_miss: true,
                            frame: primer,
                        },
                    );
                    match self.cfg.mode {
                        CbenchMode::Closed { outstanding } => {
                            for _ in 0..outstanding.max(1) {
                                self.punt(ctx);
                            }
                        }
                        CbenchMode::Open { interval } => {
                            ctx.set_timer(interval, PUNT_TIMER);
                        }
                    }
                }
            }
            Message::FlowMod { .. } => {
                self.stats.flow_mods += 1;
                if let Some(sent) = self.in_flight.pop_front() {
                    self.sim_setup_ns
                        .push(ctx.now().duration_since(sent).as_nanos());
                }
                if let CbenchMode::Closed { .. } = self.cfg.mode {
                    self.punt(ctx);
                }
            }
            Message::ResyncRequest => {
                let generation = self.stats.flow_mods;
                self.reply(
                    ctx,
                    &Message::HelloResync {
                        generation,
                        cookies: Vec::new(),
                    },
                    xid,
                );
            }
            Message::RoleRequest {
                role,
                term,
                replica,
            } => {
                // Single upstream: grant whatever is claimed.
                self.reply(
                    ctx,
                    &Message::RoleReply {
                        role,
                        term,
                        replica,
                    },
                    xid,
                );
            }
            _ => {}
        }
    }
}

impl Node for CbenchSwitch {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.send(
            ctx,
            &Message::Hello {
                version: zen_proto::VERSION,
            },
        );
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _port: PortNo, _frame: &[u8]) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token == PUNT_TIMER && self.session_up {
            if let CbenchMode::Open { interval } = self.cfg.mode {
                self.punt(ctx);
                ctx.set_timer(interval, PUNT_TIMER);
            }
        }
    }

    fn on_control(&mut self, ctx: &mut Context<'_>, _from: NodeId, bytes: &[u8]) {
        for frame in frames(bytes) {
            match frame {
                // Hot path: classify the frame straight out of the
                // receive buffer, discovery probes apart from punt
                // releases.
                Ok((MessageView::PacketOut { frame, .. }, _)) => {
                    if is_lldp(frame) {
                        self.stats.lldp_outs += 1;
                    } else {
                        self.stats.packet_outs += 1;
                    }
                }
                // No datapath: everything the wire delivered "applied".
                Ok((MessageView::BarrierRequest { xids }, xid)) => {
                    self.stats.barriers += 1;
                    ctx.send_control_with(self.controller, |buf| {
                        encode_barrier_reply_into(buf, xids.iter(), xid)
                    });
                }
                Ok((other, xid)) => self.handle(ctx, other.into_message(), xid),
                Err(_) => self.stats.decode_errors += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::any::Any;

    use zen_sim::World;

    use super::*;

    /// Shakes hands with every switch and counts its steady-state
    /// punts, but never installs a flow.
    #[derive(Default)]
    struct Mute {
        punts: u64,
    }

    impl Node for Mute {
        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }

        fn on_packet(&mut self, _ctx: &mut Context<'_>, _port: PortNo, _frame: &[u8]) {}

        fn on_control(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
            for frame in frames(bytes) {
                match frame {
                    Ok((MessageView::Owned(Message::Hello { .. }), xid)) => {
                        let request = Message::FeaturesRequest;
                        ctx.send_control_with(from, |buf| encode_into(buf, &request, xid));
                    }
                    Ok((MessageView::PacketIn { in_port, .. }, _)) if in_port == PUNT_PORT => {
                        self.punts += 1;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn punts_past_the_in_flight_cap_are_lost_setups() {
        const CAP: usize = 4;
        let mut world = World::new(1);
        let controller = world.add_node(Box::new(Mute::default()));
        let cfg = CbenchConfig {
            mode: CbenchMode::Open {
                interval: Duration::from_millis(1),
            },
            in_flight_cap: CAP,
            ..CbenchConfig::default()
        };
        let switch = world.add_node(Box::new(CbenchSwitch::new(1, controller, cfg)));
        world.run_until(Instant::from_millis(50));

        let sw = world.node_as::<CbenchSwitch>(switch);
        let n = sw.stats.punts_sent;
        assert!(n > CAP as u64 * 4, "only {n} punts");
        assert_eq!(world.node_as::<Mute>(controller).punts, n);
        assert_eq!(sw.stats.flow_mods, 0);
        assert_eq!(sw.stats.setups_lost, n - CAP as u64);
        assert!(sw.sim_setup_ns.is_empty());
    }
}
