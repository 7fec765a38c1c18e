//! Quickstart: build a four-switch SDN ring, let the controller discover
//! it, and ping across it.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! What happens under the hood:
//! 1. Four switch agents handshake with the controller (HELLO /
//!    FEATURES) over the out-of-band control channel.
//! 2. The controller discovers every link with LLDP PACKET_OUT probes.
//! 3. Hosts announce themselves with gratuitous ARPs.
//! 4. Host 0 pings host 2; the first packet is punted, the reactive
//!    forwarding app computes the shortest path and installs flows, and
//!    the remaining packets never leave the data plane.

use zen::core::apps::ReactiveForwarding;
use zen::core::harness::{build_fabric, default_host_ip, FabricOptions};
use zen::core::Controller;
use zen::sim::{Duration, Host, Instant, LinkParams, Topology, Workload, World};

fn main() {
    let topo = Topology::ring(4, LinkParams::default()).with_host_per_switch();
    let mut world = World::new(42);

    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![Box::new(ReactiveForwarding::new())],
        FabricOptions::default(),
        |i, mac, ip| {
            let host = Host::new(mac, ip).with_gratuitous_arp();
            if i == 0 {
                host.with_workload(Workload::Ping {
                    dst: default_host_ip(2),
                    count: 10,
                    interval: Duration::from_millis(50),
                    start: Instant::from_millis(500),
                })
            } else {
                host
            }
        },
    );

    world.run_until(Instant::from_secs(2));

    let controller = world.node_as::<Controller>(fabric.controller);
    println!("zen quickstart — {} on a 4-switch ring", topo.name);
    println!(
        "  discovered: {} switches, {} directed links, {} hosts",
        controller.view.switches.len(),
        controller.view.links.len(),
        controller.view.hosts().len()
    );
    println!(
        "  control channel: {} msgs received, {} flow-mods sent, {} packet-ins",
        controller.stats.msgs_received, controller.stats.flow_mods, controller.stats.packet_ins
    );

    let h0 = world.node_as::<Host>(fabric.hosts[0]);
    let rtts = &h0.stats.ping_rtts;
    println!("  ping 10.0.0.1 -> 10.0.0.3: {}/10 replies", rtts.count());
    let mut rtts = h0.stats.ping_rtts.clone();
    if let (Some(first), Some(min)) = (rtts.samples().first().copied(), rtts.min()) {
        println!(
            "  first RTT {:.1} us (includes flow setup), steady-state {:.1} us",
            first * 1e6,
            min * 1e6
        );
    }
    let median = rtts.median().unwrap_or(0.0);
    println!("  median RTT {:.1} us", median * 1e6);
    assert_eq!(rtts.count(), 10, "quickstart should complete all pings");
    println!("ok.");
}
