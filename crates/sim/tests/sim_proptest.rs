//! Randomized tests for the simulator: topology invariants, link-model
//! conservation, and replay determinism under random configurations.
//!
//! Driven by the in-tree deterministic [`Lcg`] generator with fixed
//! seeds, so every run exercises the same reproducible configurations.

use std::any::Any;

use zen_sim::{
    Context, Duration, Host, Instant, LinkParams, Node, PortNo, Topology, Workload, World,
};
use zen_wire::lcg::Lcg;
use zen_wire::{EthernetAddress, Ipv4Address};

#[test]
fn fat_tree_structure() {
    for k in 1usize..6 {
        let k = k * 2; // even arities only
        let t = Topology::fat_tree(k, LinkParams::default());
        assert_eq!(t.switches, 5 * k * k / 4);
        assert_eq!(t.host_count(), k * k * k / 4);
        assert_eq!(t.links.len(), k * k * k / 2);
        assert!(t.is_connected());
    }
}

#[test]
fn frame_conservation_on_a_link() {
    // Every frame sent is either delivered, queued-dropped, or
    // down-dropped — never duplicated or lost silently.
    struct Burst {
        n: usize,
        size: usize,
    }
    impl Node for Burst {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..self.n {
                ctx.transmit(1, vec![0u8; self.size]);
            }
        }
        fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    struct Sink {
        rx: u64,
    }
    impl Node for Sink {
        fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {
            self.rx += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut rng = Lcg::new(0x5102);
    for _ in 0..60 {
        let frames = 1 + rng.gen_index(49);
        let size = 60 + rng.gen_index(1440);
        let rate = *rng.choose(&[0u64, 1_000_000, 1_000_000_000]).unwrap();
        let mut world = World::new(1);
        let a = world.add_node(Box::new(Burst { n: frames, size }));
        let b = world.add_node(Box::new(Sink { rx: 0 }));
        let (link, _, _) = world.connect(
            a,
            b,
            LinkParams::new(Duration::from_micros(5), rate, 4 * size),
        );
        world.run_until(Instant::from_secs(600));
        let delivered = world.node_as::<Sink>(b).rx;
        let l = world.link(link);
        assert_eq!(
            delivered + l.ab.drops_queue + l.ab.drops_down,
            frames as u64,
            "conservation violated"
        );
        if rate == 0 {
            assert_eq!(delivered, frames as u64, "instant links never drop");
        }
    }
}

#[test]
fn ping_replay_is_bit_identical() {
    fn run(seed: u64, n: usize) -> (u64, u64, Vec<u64>) {
        let topo = Topology::ring(n, LinkParams::default());
        let mut world = World::new(seed);
        // L2-style direct wiring: hosts on a shared switchless ring is
        // meaningless, so just connect two hosts directly with relays
        // replaced by a chain of links through dummy forwarding hosts.
        // Keep it simple: two hosts, one link.
        let _ = topo;
        let h0 = world.add_node(Box::new(
            Host::new(EthernetAddress::from_id(1), Ipv4Address::new(10, 0, 0, 1)).with_workload(
                Workload::Ping {
                    dst: Ipv4Address::new(10, 0, 0, 2),
                    count: 10,
                    interval: Duration::from_millis(7),
                    start: Instant::from_millis(1),
                },
            ),
        ));
        let h1 = world.add_node(Box::new(Host::new(
            EthernetAddress::from_id(2),
            Ipv4Address::new(10, 0, 0, 2),
        )));
        world.connect(h0, h1, LinkParams::default());
        world.run_until(Instant::from_secs(2));
        let rtts: Vec<u64> = world
            .node_as::<Host>(h0)
            .stats
            .ping_rtts
            .samples()
            .iter()
            .map(|s| (s * 1e9) as u64)
            .collect();
        (
            world.events_processed(),
            world.metrics().counter("sim.tx_bytes"),
            rtts,
        )
    }
    let mut rng = Lcg::new(0x5103);
    for _ in 0..20 {
        let seed = rng.next_u64();
        let n = 3 + rng.gen_index(5);
        assert_eq!(run(seed, n), run(seed, n));
    }
}

#[test]
fn udp_seq_numbers_monotone_on_fifo_path() {
    // FIFO links must deliver a single flow in order: the receiver's
    // max seq equals count-1 and distinct receptions equal count.
    let mut rng = Lcg::new(0x5104);
    for _ in 0..30 {
        let count = 1 + rng.gen_range(59);
        let mut world = World::new(3);
        let h0 = world.add_node(Box::new(
            Host::new(EthernetAddress::from_id(1), Ipv4Address::new(10, 0, 0, 1)).with_workload(
                Workload::Udp {
                    dst: Ipv4Address::new(10, 0, 0, 2),
                    dst_port: 9,
                    size: 100,
                    count,
                    interval: Duration::from_micros(50),
                    start: Instant::from_millis(1),
                },
            ),
        ));
        let h1 = world.add_node(Box::new(Host::new(
            EthernetAddress::from_id(2),
            Ipv4Address::new(10, 0, 0, 2),
        )));
        world.connect(h0, h1, LinkParams::default());
        world.run_until(Instant::from_secs(5));
        let stats = &world.node_as::<Host>(h1).stats;
        let src = Ipv4Address::new(10, 0, 0, 1);
        assert_eq!(stats.udp_rx, count);
        assert_eq!(stats.udp_max_seq[&src], count - 1);
        assert_eq!(stats.udp_rx_per_src[&src], count);
    }
}
