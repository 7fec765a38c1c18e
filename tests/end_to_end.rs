//! Whole-platform integration tests through the `zen` facade: the same
//! workloads carried by every control plane the repo implements, plus
//! platform-level determinism.

use zen::core::apps::ReactiveForwarding;
use zen::core::harness::{build_fabric, default_host_ip, FabricOptions};
use zen::routing::{DistanceVectorRouter, LearningSwitch, LinkStateRouter};
use zen::sim::{Duration, Host, Instant, LinkParams, NodeId, Topology, Workload, World};
use zen::wire::{EthernetAddress, Ipv4Address};

/// The shared scenario: a ring of 5 switches, hosts on 0 and 3, one UDP
/// stream of 100 datagrams.
fn scenario_topo() -> Topology {
    let mut t = Topology::ring(5, LinkParams::default());
    t.hosts = vec![0, 3];
    t
}

fn scenario_workload(dst: Ipv4Address) -> Workload {
    Workload::Udp {
        dst,
        dst_port: 9,
        size: 256,
        count: 100,
        interval: Duration::from_millis(5),
        start: Instant::from_secs(2),
    }
}

fn run_sdn() -> u64 {
    let topo = scenario_topo();
    let mut world = World::new(1);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![Box::new(ReactiveForwarding::new())],
        FabricOptions::default(),
        |i, mac, ip| {
            let host = Host::new(mac, ip).with_gratuitous_arp();
            if i == 0 {
                host.with_workload(scenario_workload(default_host_ip(1)))
            } else {
                host
            }
        },
    );
    world.run_until(Instant::from_secs(4));
    world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx
}

enum Plane {
    LinkState,
    DistVec,
    L2Stp,
}

fn run_baseline(plane: Plane) -> u64 {
    let topo = scenario_topo();
    let mut world = World::new(1);
    let nodes: Vec<NodeId> = (0..topo.switches)
        .map(|i| match plane {
            Plane::LinkState => world.add_node(Box::new(LinkStateRouter::new(i as u64))),
            Plane::DistVec => world.add_node(Box::new(DistanceVectorRouter::new(i as u64))),
            Plane::L2Stp => world.add_node(Box::new(LearningSwitch::new(i as u64))),
        })
        .collect();
    for l in &topo.links {
        world.connect(nodes[l.a], nodes[l.b], l.params);
    }
    let mut hosts = Vec::new();
    for (i, &sw) in topo.hosts.iter().enumerate() {
        let ip = Ipv4Address::new(10, 0, 0, (i + 1) as u8);
        let mut host =
            Host::new(EthernetAddress::from_id(0x50_0000 + i as u64), ip).with_gratuitous_arp();
        if i == 0 {
            host = host.with_workload(scenario_workload(Ipv4Address::new(10, 0, 0, 2)));
        }
        let id = world.add_node(Box::new(host));
        world.connect(id, nodes[sw], LinkParams::default());
        hosts.push(id);
    }
    world.run_until(Instant::from_secs(4));
    world.node_as::<Host>(hosts[1]).stats.udp_rx
}

#[test]
fn every_control_plane_carries_the_same_workload() {
    assert_eq!(run_sdn(), 100, "SDN reactive");
    assert_eq!(run_baseline(Plane::LinkState), 100, "link-state");
    assert_eq!(run_baseline(Plane::DistVec), 100, "distance-vector");
    assert_eq!(run_baseline(Plane::L2Stp), 100, "L2 + spanning tree");
}

#[test]
fn whole_platform_runs_are_deterministic() {
    fn fingerprint() -> (u64, u64, u64, u64) {
        let topo = Topology::fat_tree(4, LinkParams::default());
        let n = topo.host_count();
        let mut world = World::new(777);
        let fabric = build_fabric(
            &mut world,
            &topo,
            |_| vec![Box::new(ReactiveForwarding::new())],
            FabricOptions::default(),
            |i, mac, ip| {
                Host::new(mac, ip)
                    .with_gratuitous_arp()
                    .with_workload(scenario_workload(default_host_ip((i + 5) % n)))
            },
        );
        world.run_until(Instant::from_secs(4));
        let delivered: u64 = fabric
            .hosts
            .iter()
            .map(|&h| world.node_as::<Host>(h).stats.udp_rx)
            .sum();
        (
            delivered,
            world.events_processed(),
            world.metrics().counter("sim.tx_frames"),
            world.metrics().counter("sim.control_bytes"),
        )
    }
    assert_eq!(fingerprint(), fingerprint());
}

#[test]
fn abilene_wan_all_pairs_pings() {
    // Every site pings site 0 across the Abilene backbone under the
    // reactive controller; WAN latencies dominate RTTs.
    let topo = Topology::abilene(1_000_000_000).with_host_per_switch();
    let mut world = World::new(5);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![Box::new(ReactiveForwarding::new())],
        FabricOptions::default(),
        |i, mac, ip| {
            let host = Host::new(mac, ip).with_gratuitous_arp();
            if i != 0 {
                host.with_workload(Workload::Ping {
                    dst: default_host_ip(0),
                    count: 3,
                    interval: Duration::from_millis(300),
                    start: Instant::from_millis(1500 + 37 * i as u64),
                })
            } else {
                host
            }
        },
    );
    world.run_until(Instant::from_secs(6));
    for i in 1..topo.host_count() {
        let h = world.node_as::<Host>(fabric.hosts[i]);
        assert_eq!(h.stats.ping_rtts.count(), 3, "site {i} pings incomplete");
        // Abilene one-way link latencies are 3..15 ms; any RTT must be
        // at least a few ms.
        assert!(
            h.stats.ping_rtts.min().unwrap() > 3e-3,
            "site {i} RTT implausibly low"
        );
    }
}

#[test]
fn meters_rate_limit_a_tenant() {
    // Install a meter on the ingress switch limiting host 0's traffic;
    // verify delivery is cut to roughly the metered rate.
    use zen::core::{Controller, SwitchAgent};
    use zen::dataplane::{Action, FlowMatch, FlowSpec};

    let topo = Topology::line(2, LinkParams::default()).with_host_per_switch();
    let mut world = World::new(9);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![Box::new(ReactiveForwarding::new())],
        FabricOptions::default(),
        |i, mac, ip| {
            let host = Host::new(mac, ip).with_gratuitous_arp();
            if i == 0 {
                // 200 x 1000B over 2s = ~0.8 Mb/s offered.
                host.with_workload(Workload::Udp {
                    dst: default_host_ip(1),
                    dst_port: 9,
                    size: 1000,
                    count: 200,
                    interval: Duration::from_millis(10),
                    start: Instant::from_secs(1),
                })
            } else {
                host
            }
        },
    );
    // Let the fabric learn and install reactive flows first.
    world.run_until(Instant::from_millis(900));
    // Now program a meter + metered high-priority rule directly on the
    // ingress agent (as a tenant-bandwidth app would via METER_MOD).
    {
        let agent = world.node_as_mut::<SwitchAgent>(fabric.switches[0]);
        agent.dp.set_meter(1, 200_000, 4_000); // 0.2 Mb/s, 4 kB burst
        let matcher = FlowMatch::ANY.with_ip_proto(17);
        agent.dp.add_flow(
            0,
            // Port 1 is the inter-switch link on a 2-switch line.
            FlowSpec::new(500, matcher, vec![Action::Meter(1), Action::Output(1)]),
            0,
        );
    }
    world.run_until(Instant::from_secs(4));
    let delivered = world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx;
    // Offered 0.8 Mb/s vs 0.2 Mb/s meter: expect roughly a quarter
    // through (plus burst).
    assert!(
        (30..=90).contains(&delivered),
        "metered delivery {delivered}/200 outside expected band"
    );
    let _ = world.node_as::<Controller>(fabric.controller);
}
