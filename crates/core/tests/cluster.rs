//! Distributed control plane: per-switch mastership, replicated view,
//! and failover. Exercises the zen-cluster substrate end to end —
//! deterministic mastership election at the features handshake,
//! east-west view replication, lease-expiry takeover of a crashed
//! master's switches (with zero flow re-flood when the takeover is
//! clean), stamp-driven reprogramming when it is not, split-brain
//! resolution by term, and the non-master write fence at the agent.

use std::collections::BTreeMap;

use zen_core::apps::proactive::{StaticHost, FABRIC_MAC};
use zen_core::apps::ProactiveFabric;
use zen_core::harness::{
    build_cluster_fabric_with_hosts, build_fabric, default_host_mac, Fabric, FabricOptions,
};
use zen_core::{AgentConfig, Controller, ControllerConfig, SwitchAgent};
use zen_sim::{Duration, FaultPlan, Host, Instant, LinkParams, Topology, Window, Workload, World};
use zen_wire::Ipv4Address;

fn default_ip(i: usize) -> Ipv4Address {
    zen_core::harness::default_host_ip(i)
}

fn secs(s: u64) -> Instant {
    Instant::from_secs(s)
}

fn ms(v: u64) -> Instant {
    Instant::from_millis(v)
}

/// A 4-switch ring with hosts on switches 0 and 2, `n_controllers`
/// replicas each running its own ProactiveFabric instance, and host 0
/// optionally carrying a workload toward host 1.
fn cluster_ring_fabric(
    world: &mut World,
    n_controllers: usize,
    workload: Option<Workload>,
) -> Fabric {
    let mut topo = Topology::ring(4, LinkParams::default());
    topo.hosts = vec![0, 2];
    let inventory = {
        let mut scratch = World::new(99);
        build_fabric(&mut scratch, &topo, vec![], FabricOptions::default()).static_hosts()
    };
    let opts = FabricOptions {
        n_controllers,
        ..FabricOptions::default()
    };
    let expected_switches = topo.switches;
    let expected_links = 2 * topo.links.len();
    build_cluster_fabric_with_hosts(
        world,
        &topo,
        |_i| {
            vec![Box::new(ProactiveFabric::new(
                inventory.clone(),
                expected_switches,
                expected_links,
            ))]
        },
        opts,
        move |i, mac, ip| {
            let host = Host::new(mac, ip).with_static_arp(default_ip(1 - i), FABRIC_MAC);
            match (&workload, i) {
                (Some(w), 0) => host.with_workload(w.clone()),
                _ => host,
            }
        },
    )
}

/// dpid → replica index, asserting no switch is claimed by two live
/// replicas. `skip` excludes a replica (an isolated one still believes
/// it masters its switches — that belief is unreachable, not wrong).
fn mastership_map(world: &World, fabric: &Fabric, skip: Option<usize>) -> BTreeMap<u64, usize> {
    let mut map = BTreeMap::new();
    for (i, &c) in fabric.controllers.iter().enumerate() {
        if skip == Some(i) {
            continue;
        }
        for dpid in world.node_as::<Controller>(c).mastered() {
            if let Some(prev) = map.insert(dpid, i) {
                panic!("switch {dpid} mastered by replicas {prev} and {i}");
            }
        }
    }
    map
}

/// Deterministic digest of one switch's installed forwarding state:
/// flow specs (no counters) per table plus the group table.
fn table_digest(agent: &SwitchAgent) -> String {
    let mut out = String::new();
    for tid in 0..agent.dp.table_count() as u8 {
        let mut entries: Vec<String> = agent
            .dp
            .table(tid)
            .entries()
            .map(|e| format!("t{tid}|{:?}", e.spec))
            .collect();
        entries.sort();
        for line in entries {
            out.push_str(&line);
            out.push('\n');
        }
    }
    for (id, desc) in agent.dp.groups().iter() {
        out.push_str(&format!("g{id}|{desc:?}\n"));
    }
    out
}

fn agent_flow_mods(world: &World, fabric: &Fabric) -> Vec<u64> {
    fabric
        .switches
        .iter()
        .map(|&n| world.node_as::<SwitchAgent>(n).stats.flow_mods)
        .collect()
}

#[test]
fn three_replicas_partition_mastership_and_carry_traffic() {
    let mut world = World::new(61);
    let fabric = cluster_ring_fabric(
        &mut world,
        3,
        Some(Workload::Ping {
            dst: default_ip(1),
            count: 30,
            interval: Duration::from_millis(20),
            start: ms(1500),
        }),
    );
    world.run_until(secs(3));

    // Every switch has exactly one master, the assignment spreads over
    // all three replicas (4 switches mod 3 replicas), and each agent
    // agrees with the controller side about who that master is.
    let map = mastership_map(&world, &fabric, None);
    assert_eq!(map.len(), 4, "unmastered switches: {map:?}");
    for i in 0..3 {
        assert!(
            map.values().any(|&r| r == i),
            "replica {i} masters nothing: {map:?}"
        );
    }
    for (i, &sw) in fabric.switches.iter().enumerate() {
        let agent = world.node_as::<SwitchAgent>(sw);
        assert_eq!(
            agent.master_node(),
            Some(fabric.controllers[map[&(i as u64)]]),
            "agent {i} disagrees about its master"
        );
        assert!(
            !agent.dp.table(0).is_empty(),
            "switch {i} never got programmed"
        );
        assert_eq!(agent.stats.nonmaster_rejected, 0);
    }
    // The replicated view converged: every replica knows all 8 directed
    // links even though each discovered only its own switches' ports.
    for &c in &fabric.controllers {
        let ctl = world.node_as::<Controller>(c);
        assert_eq!(ctl.view.links.len(), 8, "replica view incomplete");
        assert_eq!(ctl.pending_mods(), 0);
        assert_eq!(ctl.stats.mods_failed, 0);
    }
    let h0 = world.node_as::<Host>(fabric.hosts[0]);
    assert_eq!(h0.stats.ping_rtts.count(), 30, "pings lost");
}

/// The stamp is a contract between replicas: each derives a switch's
/// program from its own copy of the replicated view, and a takeover
/// skips the reprogram only if the survivor's stamp equals the one the
/// old master recorded. Once the fabric is quiet, every replica's own
/// app must therefore stamp every switch the same — mastered by it or
/// not — and that stamp must be the replicated one.
#[test]
fn replicas_stamp_every_switch_equally() {
    use zen_core::apps::proactive::FABRIC_COOKIE;

    let mut world = World::new(71);
    let fabric = cluster_ring_fabric(&mut world, 3, None);
    world.run_until(secs(2));
    let masters = mastership_map(&world, &fabric, None);
    for dpid in 0..fabric.switches.len() as u64 {
        let recorded = world
            .node_as::<Controller>(fabric.controllers[masters[&dpid]])
            .program_stamp_of(dpid, FABRIC_COOKIE)
            .unwrap_or_else(|| panic!("switch {dpid} was programmed but never stamped"));
        for (i, &c) in fabric.controllers.iter().enumerate() {
            let ctl = world.node_as::<Controller>(c);
            let app = ctl
                .find_app::<ProactiveFabric>()
                .expect("every replica runs the fabric app");
            assert_eq!(
                app.desired_stamp(&ctl.view, dpid),
                recorded,
                "replica {i} would reprogram switch {dpid} on takeover"
            );
            assert_eq!(ctl.program_stamp_of(dpid, FABRIC_COOKIE), Some(recorded));
        }
    }
}

#[test]
fn clean_master_kill_fails_over_without_reflooding_flows() {
    let mut world = World::new(71);
    let fabric = cluster_ring_fabric(
        &mut world,
        3,
        Some(Workload::Udp {
            dst: default_ip(1),
            dst_port: 9,
            size: 100,
            count: 3000,
            interval: Duration::from_millis(1),
            start: ms(1500),
        }),
    );
    world.run_until(secs(2));
    let before = mastership_map(&world, &fabric, None);
    let mods_before = agent_flow_mods(&world, &fabric);
    let victim = before[&0];
    let orphans: Vec<u64> = before
        .iter()
        .filter(|&(_, &r)| r == victim)
        .map(|(&d, _)| d)
        .collect();
    assert!(!orphans.is_empty());

    // Crash the replica mastering switch 0 (isolation of a node with no
    // data ports is indistinguishable from a crash).
    world.set_fault_plan(FaultPlan::default().isolate(
        fabric.controllers[victim],
        Window::new(secs(2), Instant::from_nanos(u64::MAX)),
    ));
    world.run_until(secs(5));

    // Survivors took over every orphan.
    let after = mastership_map(&world, &fabric, Some(victim));
    assert_eq!(after.len(), 4, "orphans left unmastered: {after:?}");
    for &d in &orphans {
        assert_ne!(after[&d], victim);
    }
    for (i, &sw) in fabric.switches.iter().enumerate() {
        let agent = world.node_as::<SwitchAgent>(sw);
        assert_eq!(
            agent.master_node(),
            Some(fabric.controllers[after[&(i as u64)]]),
            "agent {i} not homed to the surviving master"
        );
    }
    // The kill happened with the fabric quiescent, so the takeover is
    // clean: the replicated program stamps match what the new masters
    // would install and *no* switch — orphaned or not — sees a single
    // new FLOW_MOD. This is the headline ONOS property: failover moves
    // mastership, not flow state.
    let mods_after = agent_flow_mods(&world, &fabric);
    assert_eq!(
        mods_before, mods_after,
        "clean failover re-flooded flow state"
    );
    // Datapath autonomy: the fabric forwarded every probe across the
    // controller crash.
    let h1 = world.node_as::<Host>(fabric.hosts[1]);
    assert_eq!(h1.stats.udp_rx, 3000, "probes lost during clean failover");
    for (i, &c) in fabric.controllers.iter().enumerate() {
        if i == victim {
            continue;
        }
        let ctl = world.node_as::<Controller>(c);
        assert_eq!(ctl.pending_mods(), 0);
        assert_eq!(ctl.stats.mods_failed, 0);
        assert!(ctl.stats.masterships_gained > 0);
    }
}

#[test]
fn master_killed_mid_convergence_is_repaired_by_new_master() {
    let mut world = World::new(81);
    let count = 4000;
    let fabric = cluster_ring_fabric(
        &mut world,
        3,
        Some(Workload::Udp {
            dst: default_ip(1),
            dst_port: 9,
            size: 100,
            count,
            interval: Duration::from_millis(1),
            start: ms(1500),
        }),
    );
    let cut_at = ms(2500);
    world.run_until(cut_at);
    let before = mastership_map(&world, &fabric, None);

    // Silently cut the busiest data link (no PORT_STATUS — only LLDP
    // drying up reveals it) and, at the same instant, crash the master
    // of switch 0 (the ingress). The dead master can never react; the
    // takeover replica must detect the lapsed lease, adopt the orphans,
    // see its desired program diverge from the replicated stamp, and
    // reprogram around the dead link.
    let topo_links = Topology::ring(4, LinkParams::default()).links;
    let busiest_pos = (0..fabric.switch_links.len())
        .max_by_key(|&p| {
            let link = world.link(fabric.switch_links[p]);
            link.ab.tx_bytes + link.ba.tx_bytes
        })
        .unwrap();
    world.schedule_link_state_silent(fabric.switch_links[busiest_pos], false, cut_at);
    let victim = before[&0];
    world.set_fault_plan(FaultPlan::default().isolate(
        fabric.controllers[victim],
        Window::new(cut_at, Instant::from_nanos(u64::MAX)),
    ));
    let rx_at_kill = world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx;
    world.run_until(ms(6500));

    let after = mastership_map(&world, &fabric, Some(victim));
    assert_eq!(after.len(), 4);
    assert_ne!(after[&0], victim, "orphaned ingress not adopted");
    // The dead link is out of the survivors' replicated view and the
    // fabric was reprogrammed around it: traffic resumed after the
    // outage window (lease expiry + link max-age + reprogram).
    let cut_link = topo_links[busiest_pos];
    for (i, &c) in fabric.controllers.iter().enumerate() {
        if i == victim {
            continue;
        }
        let ctl = world.node_as::<Controller>(c);
        assert!(
            ctl.view.links.len() <= 6,
            "replica {i} still believes the cut link {:?} is up ({} links)",
            (cut_link.a, cut_link.b),
            ctl.view.links.len()
        );
        assert_eq!(ctl.stats.mods_failed, 0);
    }
    let rx_end = world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx;
    assert!(
        rx_end > rx_at_kill + 1000,
        "traffic never resumed after mid-convergence failover \
         (rx {rx_end} at end vs {rx_at_kill} at kill)"
    );
    assert!(
        rx_end + 1500 >= count,
        "outage too long: only {rx_end}/{count} probes delivered"
    );
}

#[test]
fn split_brain_resolves_by_term_and_leaves_tables_identical() {
    // Run the same seeded world twice: once with an east-west partition
    // that isolates replica 2 from replicas 0 and 1 between t=2s and
    // t=3s (southbound intact — a pure control-plane split), and once
    // undisturbed. The split must resolve to the higher-term side
    // (replica 2 saw *two* peers die, so its term outbids both
    // survivors), heal back to the canonical assignment, and leave
    // every datapath's flow and group tables byte-identical to the
    // never-partitioned run.
    let build = |world: &mut World| {
        cluster_ring_fabric(
            world,
            3,
            Some(Workload::Ping {
                dst: default_ip(1),
                count: 30,
                interval: Duration::from_millis(100),
                start: ms(1500),
            }),
        )
    };

    let mut split_world = World::new(91);
    let split_fabric = build(&mut split_world);
    let window = Window::new(secs(2), secs(3));
    split_world.set_fault_plan(
        FaultPlan::default()
            .partition(
                split_fabric.controllers[2],
                split_fabric.controllers[0],
                window,
            )
            .partition(
                split_fabric.controllers[2],
                split_fabric.controllers[1],
                window,
            ),
    );

    // Mid-split: replica 2's lease on its peers lapsed, its term jumped
    // by two while the majority side's jumped by one, so its claims won
    // every switch.
    split_world.run_until(ms(2900));
    for (i, &sw) in split_fabric.switches.iter().enumerate() {
        let agent = split_world.node_as::<SwitchAgent>(sw);
        assert_eq!(
            agent.master_node(),
            Some(split_fabric.controllers[2]),
            "switch {i} not captured by the high-term minority side"
        );
        assert_eq!(agent.master_claim().1, 2);
    }

    // Post-heal: terms merge, liveness recovers, and the canonical
    // assignment (spread over all three replicas) is re-established —
    // the healed claims carry a term above the split-era floor.
    split_world.run_until(ms(4500));
    let map = mastership_map(&split_world, &split_fabric, None);
    assert_eq!(map.len(), 4);
    for i in 0..3 {
        assert!(
            map.values().any(|&r| r == i),
            "replica {i} not restored after heal: {map:?}"
        );
    }
    let terms: Vec<Option<u64>> = split_fabric
        .controllers
        .iter()
        .map(|&c| split_world.node_as::<Controller>(c).cluster_term())
        .collect();
    assert!(
        terms.iter().all(|&t| t == terms[0] && t >= Some(3)),
        "terms did not merge after heal: {terms:?}"
    );

    // Control run: same seed, no faults, same scheduling boundaries.
    let mut calm_world = World::new(91);
    let calm_fabric = build(&mut calm_world);
    calm_world.run_until(ms(2900));
    calm_world.run_until(ms(4500));

    for (i, (&s, &c)) in split_fabric
        .switches
        .iter()
        .zip(calm_fabric.switches.iter())
        .enumerate()
    {
        let split_digest = table_digest(split_world.node_as::<SwitchAgent>(s));
        let calm_digest = table_digest(calm_world.node_as::<SwitchAgent>(c));
        assert!(!calm_digest.is_empty(), "control run never programmed");
        assert_eq!(
            split_digest, calm_digest,
            "switch {i} flow state diverged from the never-partitioned run"
        );
    }
    // The split never touched the datapath, so no pings were lost.
    let h0 = split_world.node_as::<Host>(split_fabric.hosts[0]);
    assert_eq!(h0.stats.ping_rtts.count(), 30);
}

#[test]
fn nonmaster_mods_are_rejected_with_error_and_metric() {
    // A controller that never acquired the Master role (the agent is
    // built multi-homed, so its single connection starts Equal and the
    // unclustered controller never sends a ROLE_REQUEST) must have
    // every state mod bounced with a NOT_MASTER error frame, the
    // `fault.*` metric must count each rejection, and nothing may land
    // in the flow tables.
    let mut world = World::new(7);
    let inventory = vec![StaticHost {
        ip: default_ip(0),
        mac: default_host_mac(0),
        dpid: 0,
        port: 1,
    }];
    let controller = world.add_node(Box::new(Controller::with_config(
        vec![Box::new(ProactiveFabric::new(inventory, 1, 0))],
        ControllerConfig::default(),
    )));
    world.set_control_latency(Duration::from_micros(50));
    let agent_node = world.add_node(Box::new(SwitchAgent::with_controllers(
        0,
        2,
        vec![controller],
        AgentConfig::default(),
    )));
    world.run_until(secs(2));

    let agent = world.node_as::<SwitchAgent>(agent_node);
    assert!(
        agent.stats.nonmaster_rejected >= 1,
        "no mods were rejected: {:?}",
        agent.stats
    );
    assert_eq!(agent.master_node(), None);
    for tid in 0..agent.dp.table_count() as u8 {
        assert_eq!(
            agent.dp.table(tid).len(),
            0,
            "a non-master mod reached table {tid}"
        );
    }
    assert!(agent.dp.groups().is_empty());
    assert!(world.metrics().counter("fault.nonmaster_mod_rejected") >= 1);
    let ctl = world.node_as::<Controller>(controller);
    assert!(ctl.stats.nonmaster_errors >= 1);
    assert!(ctl.stats.mods_superseded >= 1, "rejected mods not retired");
    assert_eq!(ctl.pending_mods(), 0, "rejected mods left pending");
}

/// Fixed-seed failover soak (CI runs this): kill a master, let the
/// lease lapse and the survivors take over, heal, and let the victim
/// rejoin — twice, from the same seed — and require the end states to
/// be byte-identical. Guards the whole cluster path (election, EW
/// replication, takeover, rejoin) against nondeterminism.
#[test]
#[ignore = "failover soak: run explicitly (CI does) — simulates ~6 s of fabric time"]
fn fixed_seed_cluster_failover_soak_is_deterministic() {
    fn run_soak(seed: u64) -> String {
        let mut world = World::new(seed);
        let fabric = cluster_ring_fabric(
            &mut world,
            3,
            Some(Workload::Udp {
                dst: default_ip(1),
                dst_port: 9,
                size: 100,
                count: 4000,
                interval: Duration::from_millis(1),
                start: ms(1500),
            }),
        );
        world.set_fault_plan(
            FaultPlan::default().isolate(fabric.controllers[0], Window::new(secs(2), ms(3500))),
        );
        world.run_until(secs(6));

        let mut digest = String::new();
        for (i, &sw) in fabric.switches.iter().enumerate() {
            let agent = world.node_as::<SwitchAgent>(sw);
            digest.push_str(&format!(
                "switch {i}: mods={} pkt_ins={} rejected={} master={:?} claim={:?}\n",
                agent.stats.flow_mods,
                agent.stats.packet_ins,
                agent.stats.nonmaster_rejected,
                agent.master_node(),
                agent.master_claim(),
            ));
            digest.push_str(&table_digest(agent));
        }
        for (i, &c) in fabric.controllers.iter().enumerate() {
            let ctl = world.node_as::<Controller>(c);
            digest.push_str(&format!(
                "replica {i}: mastered={:?} term={:?} stats={:?}\n",
                ctl.mastered(),
                ctl.cluster_term(),
                ctl.stats,
            ));
        }
        digest.push_str(&format!(
            "rx={}\n",
            world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx
        ));
        digest
    }

    let first = run_soak(123);
    println!(
        "soak cluster {:016x}",
        zen_consensus::fnv1a(first.as_bytes())
    );
    let second = run_soak(123);
    assert_eq!(first, second, "cluster failover soak is nondeterministic");
}
