//! Controller-loss survivability: keepalive state machine, agent
//! connection-loss policies, reliable (barrier-acknowledged) flow-mod
//! delivery over lossy control channels, quarantine, and diff-resync
//! on reconnect — all driven through the fault-injection substrate.

use zen_core::apps::proactive::FABRIC_MAC;
use zen_core::apps::ProactiveFabric;
use zen_core::harness::{announcer, build_fabric, default_host_mac, FabricOptions};
use zen_core::{AgentConfig, ConnLossPolicy, ConnState, Controller, SwitchAgent};
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

/// A ring fabric with hosts on switches 0 and 2 and a proactive app,
/// host 0 probing host 1 (the far side) over the fabric gateway.
fn ring_fabric(
    world: &mut World,
    opts: FabricOptions,
    workload: Workload,
) -> zen_core::harness::Fabric {
    let mut topo = Topology::ring(4, LinkParams::default());
    topo.hosts = vec![0, 2];
    let inventory = {
        let mut scratch = World::new(99);
        build_fabric(
            &mut scratch,
            &topo,
            |_| vec![],
            FabricOptions::default(),
            announcer,
        )
        .static_hosts()
    };
    build_fabric(
        world,
        &topo,
        |_| {
            vec![Box::new(ProactiveFabric::new(
                inventory.clone(),
                topo.switches,
                2 * topo.links.len(),
            ))]
        },
        opts,
        move |i, mac, ip| {
            let host = Host::new(mac, ip).with_static_arp(default_ip(1 - i), FABRIC_MAC);
            if i == 0 {
                host.with_workload(workload.clone())
            } else {
                host
            }
        },
    )
}

#[test]
fn keepalive_quarantine_and_resync_cycle() {
    // Partition the control channel to one transit switch for 600 ms.
    // The agent must walk Connected -> Disconnected and back, the
    // controller must quarantine it (routing around it) and lift the
    // quarantine through the HelloResync handshake when it returns.
    let mut world = World::new(21);
    let fabric = ring_fabric(
        &mut world,
        FabricOptions::default(),
        Workload::Ping {
            dst: default_ip(1),
            count: 30,
            interval: Duration::from_millis(100),
            start: ms(500),
        },
    );
    let victim_node = fabric.switches[1];
    world.set_fault_plan(FaultPlan::default().control_burst(
        fabric.controller,
        victim_node,
        Window::new(ms(1500), ms(2100)),
    ));

    // Mid-outage: the agent noticed (missed echoes) and the controller
    // quarantined the silent switch.
    world.run_until(ms(2050));
    let agent = world.node_as::<SwitchAgent>(victim_node);
    assert_eq!(agent.conn_state(), ConnState::Disconnected);
    let controller = world.node_as::<Controller>(fabric.controller);
    assert!(
        controller.view.is_quarantined(1),
        "silent agent not quarantined; quarantines={}",
        controller.stats.quarantines
    );

    // Post-heal: reconnected, unquarantined, resynced.
    world.run_until(secs(4));
    let agent = world.node_as::<SwitchAgent>(victim_node);
    assert_eq!(agent.conn_state(), ConnState::Connected);
    assert!(agent.stats.reconnects >= 1);
    let controller = world.node_as::<Controller>(fabric.controller);
    assert!(controller.view.quarantined().is_empty());
    assert!(
        controller.stats.resyncs_clean + controller.stats.resyncs_dirty >= 1,
        "no resync handshake completed"
    );
    assert_eq!(controller.pending_mods(), 0, "mods stuck pending");
    assert_eq!(controller.stats.mods_failed, 0);
    // The ring has a disjoint path around the quarantined switch, so
    // probes keep flowing throughout.
    let h0 = world.node_as::<Host>(fabric.hosts[0]);
    assert!(
        h0.stats.ping_rtts.count() >= 27,
        "pings lost across the outage: {}",
        h0.stats.ping_rtts.count()
    );
}

/// One switch, two hosts, an empty app chain (nothing ever installs
/// flows), and a permanent control partition from t=500ms. Every data
/// packet is a table miss, so delivery depends entirely on the agent's
/// connection-loss policy.
fn standalone_run(policy: ConnLossPolicy) -> (u64, zen_core::agent::AgentStats) {
    let topo = Topology::line(1, LinkParams::default()).with_hosts_at(0, 2);
    let mut world = World::new(31);
    let opts = FabricOptions {
        agent_cfg: AgentConfig {
            policy,
            ..AgentConfig::default()
        },
        ..FabricOptions::default()
    };
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![],
        opts,
        |i, mac, ip| {
            let host =
                Host::new(mac, ip).with_static_arp(default_ip(1 - i), default_host_mac(1 - i));
            if i == 0 {
                host.with_workload(Workload::Udp {
                    dst: default_ip(1),
                    dst_port: 9,
                    size: 100,
                    count: 200,
                    interval: Duration::from_millis(1),
                    start: secs(2),
                })
            } else {
                host
            }
        },
    );
    world.set_fault_plan(FaultPlan::default().control_burst(
        fabric.controller,
        fabric.switches[0],
        Window::new(ms(500), Instant::from_nanos(u64::MAX)),
    ));
    world.run_until(secs(3));
    let rx = world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx;
    let stats = world.node_as::<SwitchAgent>(fabric.switches[0]).stats;
    (rx, stats)
}

#[test]
fn fail_standalone_floods_misses_while_disconnected() {
    let (rx, stats) = standalone_run(ConnLossPolicy::FailStandalone);
    assert_eq!(rx, 200, "standalone flooding should deliver every probe");
    assert!(stats.standalone_floods >= 200);
    assert_eq!(stats.disconnected_drops, 0);
}

#[test]
fn fail_secure_drops_misses_while_disconnected() {
    let (rx, stats) = standalone_run(ConnLossPolicy::FailSecure);
    assert_eq!(rx, 0, "fail-secure must not forward unmatched traffic");
    assert!(stats.disconnected_drops >= 200);
    assert_eq!(stats.standalone_floods, 0);
}

/// LLDP is link-local. A standalone switch that flooded it like any
/// other miss would hand its neighbours a probe naming a switch two
/// hops away, and their punts would plant a link that does not exist
/// in the view. A line of three switches, the middle one cut off from
/// the controller for good: its neighbours never appear adjacent, while
/// its own hosts' unicast misses still flood.
#[test]
fn a_standalone_switch_does_not_relay_lldp() {
    let topo = Topology::line(3, LinkParams::default()).with_hosts_at(1, 2);
    let mut world = World::new(37);
    let opts = FabricOptions::default();
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![],
        opts,
        |i, mac, ip| {
            let host =
                Host::new(mac, ip).with_static_arp(default_ip(1 - i), default_host_mac(1 - i));
            if i == 0 {
                host.with_workload(Workload::Udp {
                    dst: default_ip(1),
                    dst_port: 9,
                    size: 100,
                    count: 200,
                    interval: Duration::from_millis(1),
                    start: secs(2),
                })
            } else {
                host
            }
        },
    );
    world.set_fault_plan(FaultPlan::default().control_burst(
        fabric.controller,
        fabric.switches[1],
        Window::new(ms(500), Instant::from_nanos(u64::MAX)),
    ));
    world.run_until(ms(500));
    let view = &world.node_as::<Controller>(fabric.controller).view;
    assert_eq!(view.links.len(), 4, "the line was discovered whole");
    for t in (550..=3_000).step_by(50) {
        world.run_until(ms(t));
        let view = &world.node_as::<Controller>(fabric.controller).view;
        let bogus: Vec<_> = view
            .links
            .iter()
            .filter(|(&(a, _), &(b, _))| a != 1 && b != 1)
            .collect();
        assert!(bogus.is_empty(), "at {t} ms the view holds {bogus:?}");
    }
    let agent = world.node_as::<SwitchAgent>(fabric.switches[1]);
    assert_eq!(agent.conn_state(), ConnState::Disconnected);
    assert!(agent.stats.standalone_floods >= 200);
    assert!(
        agent.stats.disconnected_drops > 0,
        "the probes its neighbours relayed are dropped, and counted"
    );
    let rx = world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx;
    assert_eq!(rx, 200, "standalone flooding should deliver every datagram");
}

#[test]
fn flow_mods_survive_lossy_control_channel() {
    // 20% uniform control loss while the fabric is being programmed.
    // Barrier-acknowledged delivery must retransmit until every mod is
    // acked; after the loss window, the fabric must be fully working.
    let mut world = World::new(41);
    let fabric = ring_fabric(
        &mut world,
        FabricOptions::default(),
        Workload::Ping {
            dst: default_ip(1),
            count: 20,
            interval: Duration::from_millis(20),
            start: ms(3500),
        },
    );
    world.set_fault_plan(FaultPlan::default().control_loss(0.20, Window::new(ms(0), secs(3))));
    world.run_until(secs(5));

    let controller = world.node_as::<Controller>(fabric.controller);
    assert!(
        controller.stats.mods_retransmitted > 0,
        "a 20% lossy channel must force retransmissions"
    );
    assert_eq!(controller.pending_mods(), 0, "unacked mods left pending");
    assert_eq!(controller.stats.mods_failed, 0, "mods permanently lost");
    assert!(controller.view.quarantined().is_empty());
    let h0 = world.node_as::<Host>(fabric.hosts[0]);
    assert_eq!(
        h0.stats.ping_rtts.count(),
        20,
        "fabric incomplete after lossy programming"
    );
}

#[test]
fn link_max_age_expiry_speed_follows_config() {
    // Satellite: end-to-end silent-failure detection through the
    // configurable `link_max_age`. A silently cut link (no PORT_STATUS)
    // is only detectable by LLDP confirmations drying up; a tighter age
    // bound must tear it from the view within that bound plus one tick.
    let tight = ControllerCfgProbe::run(Duration::from_millis(100));
    let loose = ControllerCfgProbe::run(Duration::from_millis(400));
    assert!(
        tight.detected_after <= Duration::from_millis(200),
        "100ms max-age took {:?} to expire the link",
        tight.detected_after
    );
    assert!(
        loose.detected_after > tight.detected_after,
        "expiry must scale with link_max_age ({:?} !> {:?})",
        loose.detected_after,
        tight.detected_after
    );
    // Traffic resumed after reprogramming in both runs.
    assert!(tight.probes_received >= 1700, "{}", tight.probes_received);
    assert!(loose.probes_received >= 1400, "{}", loose.probes_received);
}

struct ControllerCfgProbe {
    detected_after: Duration,
    probes_received: u64,
}

impl ControllerCfgProbe {
    fn run(link_max_age: Duration) -> ControllerCfgProbe {
        let mut world = World::new(51);
        let opts = FabricOptions {
            controller_cfg: zen_core::ControllerConfig {
                link_max_age,
                ..zen_core::ControllerConfig::default()
            },
            ..FabricOptions::default()
        };
        let fabric = ring_fabric(
            &mut world,
            opts,
            Workload::Udp {
                dst: default_ip(1),
                dst_port: 9,
                size: 100,
                count: 2000,
                interval: Duration::from_millis(1),
                start: secs(1),
            },
        );
        let cut_at = secs(2);
        // Cut the busiest link silently after traffic has settled.
        world.run_until(cut_at);
        let victim = fabric
            .switch_links
            .iter()
            .copied()
            .max_by_key(|&l| {
                let link = world.link(l);
                link.ab.tx_bytes + link.ba.tx_bytes
            })
            .unwrap();
        world.schedule_link_state_silent(victim, false, cut_at);

        // Step until the controller's view drops below the full 8
        // directed links.
        let mut detected_after = Duration::from_secs(10);
        for step in 1..200 {
            let t = Instant::from_millis(2000 + 5 * step);
            world.run_until(t);
            let links = world
                .node_as::<Controller>(fabric.controller)
                .view
                .links
                .len();
            if links < 8 {
                detected_after = t.duration_since(cut_at);
                break;
            }
        }
        world.run_until(secs(5));
        let probes_received = world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx;
        ControllerCfgProbe {
            detected_after,
            probes_received,
        }
    }
}
