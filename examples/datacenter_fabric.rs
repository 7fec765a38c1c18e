//! A proactively programmed k=4 fat-tree datacenter fabric.
//!
//! ```text
//! cargo run --example datacenter_fabric
//! ```
//!
//! The fabric manager knows the host inventory up front (as a real
//! datacenter SDN does) and pushes ECMP forwarding state before any
//! traffic flows: one SELECT group per destination edge switch, and the
//! fewest prefixes that cover exactly its hosts. All 16 hosts then run a random permutation traffic
//! pattern; the run reports delivery, latency, the spread of traffic
//! across core links, and — the SDN point — that zero data packets
//! visited the controller.

use zen::core::apps::proactive::FABRIC_MAC;
use zen::core::apps::ProactiveFabric;
use zen::core::harness::{announcer, build_fabric, default_host_ip, FabricOptions};
use zen::core::Controller;
use zen::sim::{Duration, Host, Instant, LinkParams, Rng, Topology, Workload, World};

fn main() {
    let topo = Topology::fat_tree(4, LinkParams::default());
    let n_hosts = topo.host_count();
    let expected_links = 2 * topo.links.len();
    println!(
        "zen datacenter fabric — {}: {} switches, {} links, {} hosts",
        topo.name,
        topo.switches,
        topo.links.len(),
        n_hosts
    );

    // The inventory the fabric manager works from.
    let inventory = {
        let mut scratch = World::new(1);
        build_fabric(
            &mut scratch,
            &topo,
            |_| vec![],
            FabricOptions::default(),
            announcer,
        )
        .static_hosts()
    };

    // Random permutation workload: every host sends to a distinct peer.
    let mut perm: Vec<usize> = (0..n_hosts).collect();
    let mut rng = Rng::new(7);
    loop {
        rng.shuffle(&mut perm);
        if perm.iter().enumerate().all(|(i, &p)| i != p) {
            break;
        }
    }

    let mut world = World::new(1);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| {
            vec![Box::new(ProactiveFabric::new(
                inventory.clone(),
                topo.switches,
                expected_links,
            ))]
        },
        FabricOptions::default(),
        |i, mac, ip| {
            let dst = default_host_ip(perm[i]);
            Host::new(mac, ip)
                .with_static_arp(dst, FABRIC_MAC)
                .with_workload(Workload::Udp {
                    dst,
                    dst_port: 9,
                    size: 1000,
                    count: 500,
                    interval: Duration::from_micros(200), // 40 Mb/s per host
                    start: Instant::from_secs(1),
                })
        },
    );

    world.run_until(Instant::from_secs(3));

    // Delivery and latency.
    let mut delivered = 0u64;
    let mut worst = 0f64;
    for &host in &fabric.hosts {
        let h = world.node_as::<Host>(host);
        delivered += h.stats.udp_rx;
        worst = worst.max(h.stats.udp_latency.max().unwrap_or(0.0));
    }
    println!(
        "  delivered {}/{} datagrams, worst one-way latency {:.0} us",
        delivered,
        500 * n_hosts,
        worst * 1e6
    );

    // ECMP spread: how many inter-switch links carried traffic?
    let loaded = world
        .links()
        .filter(|(_, l)| l.ab.tx_bytes + l.ba.tx_bytes > 100_000)
        .count();
    println!(
        "  links carrying >100 kB: {} of {}",
        loaded,
        world.links().count()
    );

    let controller = world.node_as::<Controller>(fabric.controller);
    println!(
        "  controller: {} flow-mods, {} group-mods pushed; {} packet-ins total",
        controller.stats.flow_mods, controller.stats.group_mods, controller.stats.packet_ins
    );
    assert_eq!(delivered, 500 * n_hosts as u64, "lossless fabric expected");
    println!("ok.");
}
