//! Per-switch MAC learning — the canonical first SDN app.
//!
//! Every switch gets its own MAC table at the controller. Frames to
//! unknown destinations are flooded via PACKET_OUT; once both endpoints
//! are learned, an exact L2 flow is installed so subsequent packets
//! never leave the data plane. Correct on loop-free topologies (like a
//! hardware learning switch without STP).
//!
//! Learning carries a **MAC-flap damper**: a rogue host claiming a
//! victim's source MAC from another port would otherwise bounce the
//! learned location on every frame, re-steering installed flows to the
//! attacker. When one MAC moves ports more than `flap_limit` times
//! inside `flap_window` on the same switch, its entry freezes at the
//! last stable port for `flap_hold` — the legitimate host keeps
//! working, the flapper's claims are ignored, and the counters expose
//! the event to telemetry.

use std::any::Any;
use std::collections::BTreeMap;

use zen_dataplane::{Action, FlowMatch, FlowSpec, PortNo};
use zen_sim::{Duration, Instant};
use zen_wire::ethernet::Frame;
use zen_wire::EthernetAddress;

use crate::app::{App, Disposition};
use crate::controller::Ctl;
use crate::view::Dpid;

/// The learning-switch application.
pub struct L2Learning {
    /// dpid → (MAC → port).
    tables: BTreeMap<Dpid, BTreeMap<EthernetAddress, PortNo>>,
    /// Idle timeout for installed flows, in nanoseconds (0 = none).
    pub idle_timeout: u64,
    /// Priority of installed flows.
    pub priority: u16,
    /// After a TABLE_FULL from a switch, suppress installs there for
    /// this long; frames still move via PACKET_OUT.
    pub pressure_backoff: Duration,
    /// After a TABLE_FULL, install with a shortened idle timeout for
    /// this long, so the congested table drains on its own.
    pub pressure_window: Duration,
    /// Divider applied to `idle_timeout` inside the pressure window.
    pub pressure_idle_divisor: u64,
    /// Last TABLE_FULL heard per switch.
    table_full_at: BTreeMap<Dpid, Instant>,
    /// Port moves of one MAC tolerated within `flap_window` before its
    /// entry is damped (frozen). 0 disables the damper.
    pub flap_limit: u32,
    /// Window over which port moves are counted.
    pub flap_window: Duration,
    /// How long a damped MAC's entry stays frozen.
    pub flap_hold: Duration,
    /// Move tracking, created only for MACs that actually change port
    /// (so a rotating-MAC flood cannot balloon this map).
    flaps: BTreeMap<(Dpid, EthernetAddress), FlapState>,
    /// Flows installed (metric).
    pub flows_installed: u64,
    /// Floods performed (metric).
    pub floods: u64,
    /// TABLE_FULL bounces heard (metric).
    pub table_full_events: u64,
    /// Installs skipped while a switch was backing off (metric).
    pub installs_suppressed: u64,
    /// Damper activations: a MAC crossed the flap limit (metric).
    pub flap_events: u64,
    /// Learns ignored while a MAC's entry was frozen (metric).
    pub flaps_damped: u64,
}

/// Per-(switch, MAC) port-move tracking for the flap damper.
#[derive(Debug, Clone, Copy)]
struct FlapState {
    /// Moves counted in the current window.
    moves: u32,
    /// When the current window opened.
    window_start: Instant,
    /// While set, learning for this MAC is frozen.
    held_until: Option<Instant>,
}

/// Cap on tracked flapping MACs per controller; oldest-keyed entries
/// are discarded beyond it so an adversary cannot balloon the map.
const FLAP_TRACK_CAP: usize = 4096;

impl L2Learning {
    /// A learning app with a 5-second idle timeout.
    pub fn new() -> L2Learning {
        L2Learning {
            tables: BTreeMap::new(),
            idle_timeout: 5_000_000_000,
            priority: 10,
            pressure_backoff: Duration::from_millis(200),
            pressure_window: Duration::from_secs(2),
            pressure_idle_divisor: 4,
            table_full_at: BTreeMap::new(),
            flap_limit: 8,
            flap_window: Duration::from_millis(500),
            flap_hold: Duration::from_secs(2),
            flaps: BTreeMap::new(),
            flows_installed: 0,
            floods: 0,
            table_full_events: 0,
            installs_suppressed: 0,
            flap_events: 0,
            flaps_damped: 0,
        }
    }

    /// The learned location of `mac` on `dpid`, if any.
    pub fn location(&self, dpid: Dpid, mac: EthernetAddress) -> Option<PortNo> {
        self.tables.get(&dpid)?.get(&mac).copied()
    }

    /// Whether `mac`'s entry on `dpid` is currently frozen by the flap
    /// damper.
    pub fn is_damped(&self, dpid: Dpid, mac: EthernetAddress) -> bool {
        self.flaps
            .get(&(dpid, mac))
            .and_then(|f| f.held_until)
            .is_some()
    }

    /// Flap-damper gate for learning `mac` at `in_port`, where the
    /// switch's table has it at `known`: `true` means the caller may
    /// update the table. Only *moves* (a learned entry changing port)
    /// are tracked; first sightings and confirmations of the current
    /// port always pass.
    fn allow_learn(
        &mut self,
        dpid: Dpid,
        mac: EthernetAddress,
        known: Option<PortNo>,
        in_port: PortNo,
        now: Instant,
    ) -> bool {
        if self.flap_limit == 0 {
            return true;
        }
        let moved = known.is_some_and(|p| p != in_port);
        let Some(flap) = self.flaps.get_mut(&(dpid, mac)) else {
            if moved {
                if self.flaps.len() >= FLAP_TRACK_CAP {
                    self.flaps.pop_first();
                }
                self.flaps.insert(
                    (dpid, mac),
                    FlapState {
                        moves: 1,
                        window_start: now,
                        held_until: None,
                    },
                );
            }
            return true;
        };
        if let Some(until) = flap.held_until {
            if now < until {
                if moved {
                    // A flapper is still claiming the MAC elsewhere:
                    // refuse the move, keep the stable port.
                    self.flaps_damped += 1;
                    return false;
                }
                return true;
            }
            // Hold expired: forgive and restart the window.
            flap.held_until = None;
            flap.moves = 0;
            flap.window_start = now;
        }
        if !moved {
            return true;
        }
        if now.duration_since(flap.window_start) >= self.flap_window {
            flap.moves = 0;
            flap.window_start = now;
        }
        flap.moves += 1;
        if flap.moves > self.flap_limit {
            flap.held_until = Some(now + self.flap_hold);
            self.flap_events += 1;
            self.flaps_damped += 1;
            return false;
        }
        true
    }
}

impl Default for L2Learning {
    fn default() -> L2Learning {
        L2Learning::new()
    }
}

impl App for L2Learning {
    fn name(&self) -> &'static str {
        "l2-learning"
    }

    fn on_packet_in(
        &mut self,
        ctl: &mut Ctl<'_, '_>,
        dpid: Dpid,
        in_port: PortNo,
        frame: &[u8],
    ) -> Disposition {
        let Ok(eth) = Frame::new_checked(frame) else {
            return Disposition::Continue;
        };
        let (src, dst) = (eth.src_addr(), eth.dst_addr());
        let table = self.tables.entry(dpid).or_default();
        let (known, mut out) = (table.get(&src).copied(), table.get(&dst).copied());
        // A repeat sighting changes nothing. The damper is asked about
        // one only while it tracks some MAC, whose hold it may lift.
        let repeat = known == Some(in_port);
        let allowed = src.is_unicast()
            && (!repeat || !self.flaps.is_empty())
            && self.allow_learn(dpid, src, known, in_port, ctl.now());
        if allowed && !repeat {
            self.tables.entry(dpid).or_default().insert(src, in_port);
            // A frame to its own source goes where that was just learned.
            if dst == src {
                out = Some(in_port);
            }
        }
        match out {
            Some(out_port) if !dst.is_multicast() => {
                // Install the forward flow (unless the switch is inside
                // its table-full backoff), then release the packet.
                let now = ctl.now();
                let backing_off = self
                    .table_full_at
                    .get(&dpid)
                    .is_some_and(|&at| now.duration_since(at) < self.pressure_backoff);
                if backing_off {
                    self.installs_suppressed += 1;
                } else {
                    let pressured = self
                        .table_full_at
                        .get(&dpid)
                        .is_some_and(|&at| now.duration_since(at) < self.pressure_window);
                    let idle = if pressured {
                        self.idle_timeout / self.pressure_idle_divisor.max(1)
                    } else {
                        self.idle_timeout
                    };
                    self.flows_installed += 1;
                    let spec = FlowSpec::new(
                        self.priority,
                        FlowMatch::eth_to(dst),
                        ctl.actions(&[Action::Output(out_port)]),
                    )
                    .with_timeouts(idle, 0);
                    let mut txn = ctl.txn();
                    txn.flow(dpid, 0, spec);
                    txn.commit(ctl);
                }
                ctl.packet_out(dpid, in_port, &[Action::Output(out_port)], frame);
            }
            _ => {
                self.floods += 1;
                ctl.packet_out(dpid, in_port, &[Action::Flood], frame);
            }
        }
        Disposition::Handled
    }

    fn on_table_full(&mut self, ctl: &mut Ctl<'_, '_>, dpid: Dpid) {
        self.table_full_events += 1;
        let now = ctl.now();
        self.table_full_at.insert(dpid, now);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use std::any::Any;

    use zen_sim::{Context, LinkParams, Node, NodeId, World};
    use zen_wire::builder::PacketBuilder;
    use zen_wire::Ipv4Address;

    use super::*;
    use crate::{Controller, SwitchAgent};

    /// Hosts the test moves at will: each scripted frame leaves on its
    /// own port of one switch at its own time. Floods back are dropped.
    struct Wire {
        sends: Vec<(Instant, PortNo, Vec<u8>)>,
    }

    impl Node for Wire {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for (i, (at, _, _)) in self.sends.iter().enumerate() {
                ctx.set_timer(at.duration_since(ctx.now()), i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, i: u64) {
            let (_, port, frame) = &self.sends[i as usize];
            ctx.transmit(*port, frame.clone());
        }
        fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// One MAC through a controller's L2 app, a step at a time: learned,
    /// confirmed, moved `flap_limit` times, damped, confirmed and
    /// refused during the hold, freed after it, then used as a
    /// destination. After each step: where the app has it, whether it
    /// is damped, and the app's counters.
    #[test]
    fn learning_and_the_flap_damper_step_by_step() {
        let (m, n) = (EthernetAddress::from_id(1), EthernetAddress::from_id(2));
        // Never a source: a frame to it floods.
        let nowhere = EthernetAddress::from_id(9);
        // (ms, port, src, dst), then M's port, damped, flap_events,
        // flaps_damped, flows_installed, floods.
        #[rustfmt::skip]
        let steps = [
            // The first sighting learns; a repeat changes nothing.
            ((100, 1, m, nowhere), (Some(1), false, 0, 0, 0, 1)),
            ((120, 1, m, nowhere), (Some(1), false, 0, 0, 0, 2)),
            // `flap_limit` (8) moves inside the window are learned...
            ((140, 2, m, nowhere), (Some(2), false, 0, 0, 0, 3)),
            ((160, 1, m, nowhere), (Some(1), false, 0, 0, 0, 4)),
            ((180, 2, m, nowhere), (Some(2), false, 0, 0, 0, 5)),
            ((200, 1, m, nowhere), (Some(1), false, 0, 0, 0, 6)),
            ((220, 2, m, nowhere), (Some(2), false, 0, 0, 0, 7)),
            ((240, 1, m, nowhere), (Some(1), false, 0, 0, 0, 8)),
            ((260, 2, m, nowhere), (Some(2), false, 0, 0, 0, 9)),
            ((280, 1, m, nowhere), (Some(1), false, 0, 0, 0, 10)),
            // ...and the next is damped: the entry holds its port.
            ((300, 2, m, nowhere), (Some(1), true, 1, 1, 0, 11)),
            // During the hold the stable port passes, a move does not.
            ((320, 1, m, nowhere), (Some(1), true, 1, 1, 0, 12)),
            ((340, 3, m, nowhere), (Some(1), true, 1, 2, 0, 13)),
            // The hold (2 s) is over: a sighting lifts it, a move is
            // learned again.
            ((2_400, 1, m, nowhere), (Some(1), false, 1, 2, 0, 14)),
            ((2_420, 3, m, nowhere), (Some(3), false, 1, 2, 0, 15)),
            // A known destination installs; an unknown one floods.
            ((2_440, 2, n, m), (Some(3), false, 1, 2, 1, 15)),
            ((2_460, 2, n, nowhere), (Some(3), false, 1, 2, 1, 16)),
        ];
        let frame = |src, dst| {
            let ip = Ipv4Address::new(10, 0, 0, 1);
            PacketBuilder::udp(src, ip, 9, dst, ip, 9, &[0; 16])
        };
        let mut world = World::new(1);
        let controller =
            world.add_node(Box::new(Controller::new(vec![Box::new(L2Learning::new())])));
        let switch = world.add_node(Box::new(SwitchAgent::new(0, 1, controller)));
        let sends = steps
            .iter()
            .map(|&((ms, port, src, dst), _)| (Instant::from_millis(ms), port, frame(src, dst)))
            .collect();
        let wire: NodeId = world.add_node(Box::new(Wire { sends }));
        for _ in 0..3 {
            world.connect(wire, switch, LinkParams::default());
        }
        for (step, &((ms, ..), want)) in steps.iter().enumerate() {
            world.run_until(Instant::from_millis(ms + 10));
            let l2 = world
                .node_as::<Controller>(controller)
                .find_app::<L2Learning>()
                .expect("L2 app is installed");
            let seen = (
                l2.location(0, m),
                l2.is_damped(0, m),
                l2.flap_events,
                l2.flaps_damped,
                l2.flows_installed,
                l2.floods,
            );
            assert_eq!(seen, want, "step {step}, at {ms} ms");
        }
    }
}
