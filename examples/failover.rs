//! Centralized vs. distributed failure recovery, side by side.
//!
//! ```text
//! cargo run --example failover
//! ```
//!
//! The same square topology (two disjoint paths between the traffic
//! endpoints) is built three times: as an SDN fabric with proactive
//! fast-failover groups, as a network of OSPF-style link-state routers,
//! and as RIP-style distance-vector routers. A continuous probe stream
//! runs while the primary link is cut — first as a *detected* failure
//! (carrier drop: everyone reacts immediately) and then as a *silent*
//! failure (frames blackhole without notification: only protocol
//! liveness — LLDP aging, dead intervals, route timeouts — catches it).
//! Lost probes measure each architecture's black-hole window.

use zen::core::apps::proactive::FABRIC_MAC;
use zen::core::apps::ProactiveFabric;
use zen::core::harness::{announcer, build_fabric, default_host_ip, FabricOptions};
use zen::routing::{DistanceVectorRouter, LinkStateRouter};
use zen::sim::{Duration, Host, Instant, LinkParams, NodeId, Topology, Workload, World};
use zen::wire::{EthernetAddress, Ipv4Address};

const PROBES: u64 = 3000;
const PROBE_GAP: Duration = Duration::from_millis(1);
const CUT_AT: Instant = Instant::from_secs(2);

fn topo() -> Topology {
    let mut t = Topology::ring(4, LinkParams::default());
    t.hosts = vec![0, 2];
    t
}

/// Probe workload from host 0 to host 1 (at the opposite corner).
fn probe_workload(dst: Ipv4Address) -> Workload {
    Workload::Udp {
        dst,
        dst_port: 9,
        size: 100,
        count: PROBES,
        interval: PROBE_GAP,
        start: Instant::from_secs(1),
    }
}

/// What the controller pushed to reprogram around the cut, beyond the
/// set-up load: (switches found unchanged, switches loaded whole,
/// messages sent).
type Pushed = (u64, u64, u64);

fn run_sdn(silent: bool) -> (u64, Pushed) {
    let topo = topo();
    let inventory = {
        let mut scratch = World::new(3);
        build_fabric(
            &mut scratch,
            &topo,
            |_| vec![],
            FabricOptions::default(),
            announcer,
        )
        .static_hosts()
    };
    let mut world = World::new(3);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| {
            vec![Box::new(ProactiveFabric::new(
                inventory.clone(),
                topo.switches,
                2 * topo.links.len(),
            ))]
        },
        FabricOptions::default(),
        |i, mac, ip| {
            let host = Host::new(mac, ip).with_static_arp(default_host_ip(1 - i), FABRIC_MAC);
            if i == 0 {
                host.with_workload(probe_workload(default_host_ip(1)))
            } else {
                host
            }
        },
    );
    if silent {
        world.schedule_link_state_silent(fabric.switch_links[0], false, CUT_AT);
    } else {
        world.schedule_link_state(fabric.switch_links[0], false, CUT_AT);
    }
    let pushed = |world: &World| -> Pushed {
        let counter = |name: &str| world.metrics().counter(&format!("fabric.reconcile.{name}"));
        (
            counter("switches_unchanged"),
            counter("full_loads"),
            counter("mods_pushed"),
        )
    };
    world.run_until(CUT_AT);
    let set_up = pushed(&world);
    world.run_until(Instant::from_secs(6));
    let total = pushed(&world);
    let h1 = world.node_as::<Host>(fabric.hosts[1]);
    let since_cut = (total.0 - set_up.0, total.1 - set_up.1, total.2 - set_up.2);
    (PROBES - h1.stats.udp_rx, since_cut)
}

enum RouterKind {
    LinkState,
    DistVec,
}

fn run_routers(kind: RouterKind, silent: bool) -> u64 {
    let topo = topo();
    let mut world = World::new(3);
    let routers: Vec<NodeId> = (0..topo.switches)
        .map(|i| -> NodeId {
            match kind {
                RouterKind::LinkState => world.add_node(Box::new(LinkStateRouter::new(i as u64))),
                RouterKind::DistVec => {
                    world.add_node(Box::new(DistanceVectorRouter::new(i as u64)))
                }
            }
        })
        .collect();
    let links: Vec<_> = topo
        .links
        .iter()
        .map(|l| world.connect(routers[l.a], routers[l.b], l.params).0)
        .collect();

    let mut hosts = Vec::new();
    for (i, &sw) in topo.hosts.iter().enumerate() {
        let ip = Ipv4Address::new(10, 0, 0, (i + 1) as u8);
        let mut host =
            Host::new(EthernetAddress::from_id(0x50_0000 + i as u64), ip).with_gratuitous_arp();
        if i == 0 {
            host = host.with_workload(probe_workload(Ipv4Address::new(10, 0, 0, 2)));
        }
        let id = world.add_node(Box::new(host));
        world.connect(id, routers[sw], LinkParams::default());
        hosts.push(id);
    }

    if silent {
        world.schedule_link_state_silent(links[0], false, CUT_AT);
    } else {
        world.schedule_link_state(links[0], false, CUT_AT);
    }
    world.run_until(Instant::from_secs(6));
    let h1 = world.node_as::<Host>(hosts[1]);
    PROBES - h1.stats.udp_rx
}

fn main() {
    println!("zen failover — square topology, primary link cut at t=2s");
    println!("  {} probes at 1 kHz from corner to corner\n", PROBES);

    let report = |name: &str, lost: u64| {
        println!(
            "  {name:<28} lost {lost:>5} probes  (~{} ms black-hole)",
            lost * PROBE_GAP.as_millis()
        );
    };

    // How much reprogramming the cut cost, off the run's own counters.
    let reprogrammed = |(unchanged, full, mods): Pushed| {
        println!(
            "  {:<28} {mods} mods pushed, {full} switches loaded whole, {unchanged} found unchanged",
            "  reconciling after the cut:"
        );
    };

    println!("detected failure (carrier drop):");
    let (sdn_lost, pushed) = run_sdn(false);
    report("SDN fast-failover groups:", sdn_lost);
    reprogrammed(pushed);
    report(
        "link-state (OSPF-style):",
        run_routers(RouterKind::LinkState, false),
    );
    report(
        "distance-vector (RIP-style):",
        run_routers(RouterKind::DistVec, false),
    );

    println!("\nsilent failure (blackhole, no carrier event):");
    let (sdn_lost, pushed) = run_sdn(true);
    let ls_lost = run_routers(RouterKind::LinkState, true);
    let dv_lost = run_routers(RouterKind::DistVec, true);
    report("SDN (LLDP link aging):", sdn_lost);
    reprogrammed(pushed);
    report("link-state (dead interval):", ls_lost);
    report("distance-vector (route timeout):", dv_lost);

    assert!(
        sdn_lost < dv_lost,
        "controller LLDP aging should beat DV route timeouts"
    );
    println!("\nok.");
}
