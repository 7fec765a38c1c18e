//! End-to-end tests of the SDN fabric: discovery, reactive forwarding,
//! ACL enforcement, proactive ECMP programming, failover, and TE
//! tunnels — all through real control-protocol messages.

use zen_core::apps::proactive::FABRIC_MAC;
use zen_core::apps::reactive::REACTIVE_COOKIE;
use zen_core::apps::te::SiteDemand;
use zen_core::apps::{Acl, L2Learning, ProactiveFabric, ReactiveForwarding, TrafficEngineering};
use zen_core::harness::{announcer, build_fabric, site_host_ip, FabricOptions};
use zen_core::{Controller, ControllerConfig, SwitchAgent};
use zen_dataplane::FlowMatch;
use zen_sim::{Duration, FaultPlan, Host, Instant, LinkParams, Topology, Window, Workload, World};
use zen_wire::Ipv4Address;

fn default_ip(i: usize) -> Ipv4Address {
    zen_core::harness::default_host_ip(i)
}

#[test]
fn discovery_learns_full_topology_and_hosts() {
    let topo = Topology::ring(4, LinkParams::default()).with_host_per_switch();
    let mut world = World::new(1);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![Box::new(ReactiveForwarding::new())],
        FabricOptions::default(),
        announcer,
    );
    world.run_until(Instant::from_secs(1));

    let controller = world.node_as::<Controller>(fabric.controller);
    assert_eq!(controller.view.switches.len(), 4);
    // Every physical link discovered in both directions.
    assert_eq!(controller.view.links.len(), 2 * topo.links.len());
    // Gratuitous ARPs revealed every host with its IP.
    assert_eq!(controller.view.hosts().len(), 4);
    for (i, mac) in fabric.host_macs.iter().enumerate() {
        let entry = controller.view.hosts().get(mac).expect("host learned");
        assert_eq!(entry.ip, Some(fabric.host_ips[i]));
        assert_eq!(entry.dpid, fabric.host_attach[i].0 as u64);
        assert_eq!(entry.port, fabric.host_attach[i].1);
    }
}

/// Bring-up learns each directed link from one probe: a handshake
/// probes the new switch's own ports, not every connected switch's, and
/// all 20 handshakes land in one burst, before any probe returns.
#[test]
fn bring_up_learns_each_link_from_one_probe() {
    let topo = Topology::fat_tree(4, LinkParams::default());
    let mut world = World::new(1);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![],
        FabricOptions::default(),
        announcer,
    );
    world.run_until(Instant::from_millis(10));

    let controller = world.node_as::<Controller>(fabric.controller);
    assert_eq!(controller.view.links.len(), 64, "every directed link");
    assert_eq!(controller.stats.lldp_ins, 64, "one probe per link");
}

/// Discovery's oracle, on a k=4 fat-tree with its hosts, under one
/// controller and under three replicas: each round sends every switch
/// one PACKET_OUT, from its master, which leaves by every up port, host
/// ports included; after three rounds every replica's view holds each
/// wired switch-to-switch link in both directions and nothing else —
/// the links a replica learns from its peers included.
#[test]
fn discovery_finds_exactly_the_wired_links_one_packet_out_per_switch() {
    for n_controllers in [1, 3] {
        discovery_oracle(n_controllers);
    }
}

fn discovery_oracle(n_controllers: usize) {
    let topo = Topology::fat_tree(4, LinkParams::default());
    let mut world = World::new(1);
    let opts = FabricOptions {
        n_controllers,
        ..FabricOptions::default()
    };
    let fabric = build_fabric(&mut world, &topo, |_| vec![], opts, announcer);
    assert!(!fabric.hosts.is_empty());
    let tick = opts.controller_cfg.tick_interval;
    // The handshakes' rounds land at bring-up, the ticks' on the tick.
    for round in 1..=3 {
        world.run_until(Instant::ZERO + tick.mul(round - 1) + tick.div(2));
        for &switch in &fabric.switches {
            let got = world.node_as::<SwitchAgent>(switch).stats.packet_outs;
            assert_eq!(got, round, "round {round}, switch {switch:?}");
        }
    }

    let dpid = |node| fabric.switches.iter().position(|&s| s == node).unwrap() as u64;
    let mut wired = std::collections::BTreeMap::new();
    for &link in &fabric.switch_links {
        let (a, b) = (world.link(link).a, world.link(link).b);
        let (a, b) = ((dpid(a.0), a.1), (dpid(b.0), b.1));
        wired.insert(a, b);
        wired.insert(b, a);
    }
    for &replica in &fabric.controllers {
        let view = &world.node_as::<Controller>(replica).view;
        assert_eq!(view.links, wired, "{n_controllers} replicas: {replica:?}");
    }
}

#[test]
fn reactive_forwarding_pings_across_ring() {
    let topo = Topology::ring(4, LinkParams::default()).with_host_per_switch();
    let mut world = World::new(7);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![Box::new(ReactiveForwarding::new())],
        FabricOptions::default(),
        |i, mac, ip| {
            let host = Host::new(mac, ip).with_gratuitous_arp();
            if i == 0 {
                host.with_workload(Workload::Ping {
                    dst: default_ip(2), // the far side of the ring
                    count: 10,
                    interval: Duration::from_millis(20),
                    start: Instant::from_millis(500),
                })
            } else {
                host
            }
        },
    );
    world.run_until(Instant::from_secs(2));

    let h0 = world.node_as::<Host>(fabric.hosts[0]);
    assert_eq!(h0.stats.ping_rtts.count(), 10, "all pings answered");
    let controller = world.node_as::<Controller>(fabric.controller);
    let app = controller
        .app(0)
        .as_any()
        .downcast_ref::<ReactiveForwarding>()
        .unwrap();
    assert!(app.paths_installed >= 1);
    // Most pings ride installed flows: far fewer punts than data packets.
    assert!(
        controller.stats.packet_ins < 20,
        "too many packet-ins: {}",
        controller.stats.packet_ins
    );
}

/// Soft state at rest. Every host of a reactive k=4 fat-tree pings
/// another 30 times, 20 ms apart, from t = 1.1 s; flows idle out after
/// a second. `loss` drops that share of all control messages from 5 ms
/// into the traffic until it stops — after the setups, with the mods of
/// the sessions that saw fewer than a burst still unfenced, so what it
/// hits is their fences, the replies, the retransmissions and the
/// probes. A lossy run also drops every control message over the first
/// fences, so it hits one by construction: the setups at 1.1 s arm the
/// fence timer, which fires `mod_timeout / 3` = 50 ms later. (A lost
/// *add* re-punts and is installed again over what did
/// land: a replacing add, which the shadow counts twice by design.) Once
/// the traffic has stopped and a fence interval plus the retransmissions
/// in play have passed, nothing is pending and each switch's shadow is
/// that switch's own digest — with the flows in place, and again when
/// they have all idled out — and every ping was answered.
fn soft_state_quiesces(loss: f64) -> u64 {
    let ms = Instant::from_millis;
    let topo = Topology::fat_tree(4, LinkParams::default());
    let n = topo.host_count();
    let mut app = ReactiveForwarding::new();
    app.idle_timeout = 1_000_000_000;
    // Links must not age out of the view while their probes are lost:
    // a view change has the app wipe its flows, which is another test.
    let controller_cfg = ControllerConfig {
        link_max_age: Duration::from_secs(5),
        agent_dead_after: Duration::from_secs(5),
        ..ControllerConfig::default()
    };
    let opts = FabricOptions {
        controller_cfg,
        ..FabricOptions::default()
    };
    let mut world = World::new(3);
    let mut app = Some(app);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![Box::new(app.take().expect("one replica"))],
        opts,
        |i, mac, ip| {
            Host::new(mac, ip)
                .with_gratuitous_arp()
                .with_workload(Workload::Ping {
                    dst: default_ip((i + 3) % n),
                    count: 30,
                    interval: Duration::from_millis(20),
                    start: ms(1_100),
                })
        },
    );
    let lossy = Window::new(ms(1_105), ms(1_700));
    let mut faults = FaultPlan::default().control_loss(loss, lossy);
    if loss > 0.0 {
        faults = faults.control_loss(1.0, Window::new(ms(1_105), ms(1_200)));
    }
    world.set_fault_plan(faults);

    let at_rest = |world: &World, flows: bool| {
        let controller = world.node_as::<Controller>(fabric.controller);
        assert_eq!(controller.pending_mods(), 0, "mods left pending");
        assert_eq!(controller.stats.mods_failed, 0, "mods given up on");
        let mut holding = 0;
        for (dpid, &switch) in fabric.switches.iter().enumerate() {
            let digest = world.node_as::<SwitchAgent>(switch).flow_digest();
            let shadow = controller.shadow_cookies(dpid as u64);
            assert_eq!(shadow, digest, "the shadow of switch {dpid} is off");
            holding += usize::from(digest.iter().any(|c| c.cookie == REACTIVE_COOKIE));
        }
        assert_eq!(holding > 0, flows, "{holding} switches hold flows");
    };
    // Traffic stops at 1.68 s; a fence is at most 50 ms late, a lost one
    // is made up for by the retransmission 150 ms on, at the next tick.
    world.run_until(ms(2_200));
    at_rest(&world, true);
    world.run_until(ms(4_000));
    at_rest(&world, false);
    for &host in &fabric.hosts {
        let answered = world.node_as::<Host>(host).stats.ping_rtts.count();
        assert_eq!(answered, 30, "pings lost");
    }
    world
        .node_as::<Controller>(fabric.controller)
        .stats
        .mods_retransmitted
}

#[test]
fn soft_state_quiesces_clean_and_under_control_loss() {
    assert_eq!(soft_state_quiesces(0.0), 0, "a late fence cost a resend");
    assert!(soft_state_quiesces(0.10) > 0, "the loss hit no fence");
}

#[test]
fn first_packet_pays_setup_latency() {
    let topo = Topology::line(3, LinkParams::default()).with_host_per_switch();
    let mut world = World::new(3);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![Box::new(ReactiveForwarding::new())],
        FabricOptions::default(),
        |i, mac, ip| {
            let host = Host::new(mac, ip).with_gratuitous_arp();
            if i == 0 {
                host.with_workload(Workload::Udp {
                    dst: default_ip(2),
                    dst_port: 9,
                    size: 100,
                    count: 20,
                    interval: Duration::from_millis(10),
                    start: Instant::from_millis(500),
                })
            } else {
                host
            }
        },
    );
    world.run_until(Instant::from_secs(2));

    let h2 = world.node_as::<Host>(fabric.hosts[2]);
    assert!(h2.stats.udp_rx >= 19, "only {} delivered", h2.stats.udp_rx);
    let samples = h2.stats.udp_latency.samples();
    let first = samples[0];
    let later: f64 = samples[5..].iter().copied().fold(f64::MAX, f64::min);
    assert!(
        first > later * 2.0,
        "first-packet latency {first} not above installed-path latency {later}"
    );
}

/// A link that comes up leaves every installed path valid. Reactive
/// traffic crosses switches 0 → 1 of a 4-ring while the opposite link
/// (2–3) goes down, which wipes the reactive flows so the stream punts
/// once more, and comes back up, after which the stream never punts.
#[test]
fn a_port_coming_up_keeps_the_reactive_paths() {
    let mut topo = Topology::ring(4, LinkParams::default());
    topo.hosts = vec![0, 1];
    let mut world = World::new(11);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![Box::new(ReactiveForwarding::new())],
        FabricOptions::default(),
        |i, mac, ip| {
            let host = Host::new(mac, ip).with_gratuitous_arp();
            if i == 0 {
                host.with_workload(Workload::Udp {
                    dst: default_ip(1),
                    dst_port: 9,
                    size: 100,
                    count: 300,
                    interval: Duration::from_millis(10),
                    start: Instant::from_millis(500),
                })
            } else {
                host
            }
        },
    );
    let off_path = fabric.switch_links[2];
    world.schedule_link_state(off_path, false, Instant::from_millis(1500));
    world.schedule_link_state(off_path, true, Instant::from_millis(2500));
    let punts = |world: &World| {
        world
            .node_as::<Controller>(fabric.controller)
            .stats
            .packet_ins
    };
    world.run_until(Instant::from_millis(1400));
    let before_down = punts(&world);
    world.run_until(Instant::from_millis(2400));
    let before_up = punts(&world);
    assert!(before_up > before_down, "the port down wipes the path");
    world.run_until(Instant::from_millis(3500));
    assert_eq!(punts(&world), before_up, "the port up wipes nothing");
    assert_eq!(world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx, 300);
}

#[test]
fn l2_learning_works_on_a_tree() {
    let topo = Topology::star(3, LinkParams::default()).with_host_per_switch();
    let mut world = World::new(5);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![Box::new(L2Learning::new())],
        FabricOptions::default(),
        |i, mac, ip| {
            let host = Host::new(mac, ip).with_gratuitous_arp();
            if i == 1 {
                host.with_workload(Workload::Ping {
                    dst: default_ip(3),
                    count: 5,
                    interval: Duration::from_millis(20),
                    start: Instant::from_millis(500),
                })
            } else {
                host
            }
        },
    );
    world.run_until(Instant::from_secs(2));
    let h1 = world.node_as::<Host>(fabric.hosts[1]);
    assert_eq!(h1.stats.ping_rtts.count(), 5);
}

#[test]
fn acl_blocks_matching_traffic_only() {
    let topo = Topology::line(2, LinkParams::default()).with_host_per_switch();
    let deny_udp_9 = FlowMatch::ANY.with_ip_proto(17).with_l4_dst(9);
    let mut world = World::new(2);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| {
            vec![
                Box::new(Acl::new(vec![deny_udp_9])),
                Box::new(ReactiveForwarding::new()),
            ]
        },
        FabricOptions::default(),
        |i, mac, ip| {
            let host = Host::new(mac, ip).with_gratuitous_arp();
            if i == 0 {
                host.with_workload(Workload::Udp {
                    dst: default_ip(1),
                    dst_port: 9, // denied
                    size: 64,
                    count: 5,
                    interval: Duration::from_millis(10),
                    start: Instant::from_millis(500),
                })
                .with_workload(Workload::Udp {
                    dst: default_ip(1),
                    dst_port: 10, // allowed
                    size: 64,
                    count: 5,
                    interval: Duration::from_millis(10),
                    start: Instant::from_millis(500),
                })
            } else {
                host
            }
        },
    );
    world.run_until(Instant::from_secs(2));
    let h1 = world.node_as::<Host>(fabric.hosts[1]);
    assert_eq!(h1.stats.udp_rx, 5, "only the allowed flow arrives");
}

#[test]
fn proactive_fabric_full_reachability_with_zero_data_punts() {
    let topo = Topology::fat_tree(4, LinkParams::default());
    let n_hosts = topo.host_count();
    let expected_links = 2 * topo.links.len();

    // First pass: build to learn addressing, then construct for real.
    let mut world = World::new(9);
    let host_inventory: Vec<zen_core::apps::proactive::StaticHost> = {
        // Predict attachments: build a scratch world.
        let mut scratch = World::new(9);
        let f = build_fabric(
            &mut scratch,
            &topo,
            |_| vec![],
            FabricOptions::default(),
            announcer,
        );
        f.static_hosts()
    };

    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| {
            vec![Box::new(ProactiveFabric::new(
                host_inventory.clone(),
                topo.switches,
                expected_links,
            ))]
        },
        FabricOptions::default(),
        |i, mac, ip| {
            // Every host sends to the "next" host, addressed to the
            // fabric gateway MAC (no ARP).
            let dst = default_ip((i + 1) % n_hosts);
            Host::new(mac, ip)
                .with_static_arp(dst, FABRIC_MAC)
                .with_workload(Workload::Udp {
                    dst,
                    dst_port: 9,
                    size: 200,
                    count: 20,
                    interval: Duration::from_millis(5),
                    start: Instant::from_secs(1), // after programming
                })
        },
    );
    world.run_until(Instant::from_secs(3));

    // Every host received its 20 datagrams.
    for (i, &host) in fabric.hosts.iter().enumerate() {
        let h = world.node_as::<Host>(host);
        assert_eq!(h.stats.udp_rx, 20, "host {i} missed traffic");
    }
    // The data plane handled everything: no data-driven packet-ins after
    // programming (gratuitous ARPs at t=0 are the only punts).
    let controller = world.node_as::<Controller>(fabric.controller);
    let app = controller
        .app(0)
        .as_any()
        .downcast_ref::<ProactiveFabric>()
        .unwrap();
    assert!(app.programmed());
    assert!(
        controller.stats.packet_ins <= n_hosts as u64 + 5,
        "data traffic reached the controller: {} punts",
        controller.stats.packet_ins
    );
}

#[test]
fn proactive_fabric_survives_link_failure() {
    // Diamond: two disjoint paths between edge switches.
    let mut topo = Topology::ring(4, LinkParams::default());
    topo.hosts = vec![0, 2];
    let expected_links = 2 * topo.links.len();

    let inventory = {
        let mut scratch = World::new(4);
        build_fabric(
            &mut scratch,
            &topo,
            |_| vec![],
            FabricOptions::default(),
            announcer,
        )
        .static_hosts()
    };

    let mut world = World::new(4);
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
            let dst = default_ip(1 - i);
            Host::new(mac, ip)
                .with_static_arp(dst, FABRIC_MAC)
                .with_workload(Workload::Udp {
                    dst,
                    dst_port: 9,
                    size: 200,
                    count: 200,
                    interval: Duration::from_millis(10),
                    start: Instant::from_secs(1),
                })
        },
    );

    // Cut one ring link mid-run (t = 2s, during the flow).
    world.run_until(Instant::from_secs(2));
    let h1_before = world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx;
    assert!(h1_before > 50, "traffic must be flowing before the cut");
    world.set_link_state(fabric.switch_links[0], false);
    world.run_until(Instant::from_secs(4));

    let h1 = world.node_as::<Host>(fabric.hosts[1]);
    // Some loss during reconvergence is allowed, but traffic must resume:
    // at least 90% of the 200 datagrams arrive.
    assert!(
        h1.stats.udp_rx >= 180,
        "too much loss after failure: {}/200",
        h1.stats.udp_rx
    );
}

#[test]
fn te_tunnels_carry_site_traffic() {
    // Triangle of sites, one host each; site i owns 10.i.0.0/16.
    let topo = {
        let mut t = Topology::ring(3, LinkParams::default());
        t.hosts = vec![0, 1, 2];
        t
    };
    let expected_links = 2 * topo.links.len();

    let site_ip = |site: usize| site_host_ip(site, 0);
    let inventory: Vec<zen_core::apps::proactive::StaticHost> = {
        let mut scratch = World::new(11);
        let f = build_fabric(
            &mut scratch,
            &topo,
            |_| vec![],
            FabricOptions::default(),
            |i, mac, _| Host::new(mac, site_ip(i)),
        );
        f.static_hosts()
    };
    let prefixes = (0..3u64)
        .map(|s| (s, format!("10.{s}.0.0/16").parse().unwrap()))
        .collect();
    let demands = vec![
        SiteDemand {
            src: 0,
            dst: 1,
            rate_bps: 10_000_000,
        },
        SiteDemand {
            src: 0,
            dst: 2,
            rate_bps: 10_000_000,
        },
    ];
    let te = TrafficEngineering::new(
        prefixes,
        inventory,
        demands,
        1_000_000_000,
        2,
        3,
        expected_links,
    );

    let mut world = World::new(11);
    let mut te = Some(te);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![Box::new(te.take().expect("one replica"))],
        FabricOptions::default(),
        |i, mac, _| {
            let host = Host::new(mac, site_ip(i));
            if i == 0 {
                host.with_static_arp(site_ip(1), FABRIC_MAC)
                    .with_static_arp(site_ip(2), FABRIC_MAC)
                    .with_workload(Workload::Udp {
                        dst: site_ip(1),
                        dst_port: 9,
                        size: 400,
                        count: 50,
                        interval: Duration::from_millis(5),
                        start: Instant::from_secs(1),
                    })
                    .with_workload(Workload::Udp {
                        dst: site_ip(2),
                        dst_port: 9,
                        size: 400,
                        count: 50,
                        interval: Duration::from_millis(5),
                        start: Instant::from_secs(1),
                    })
            } else {
                host
            }
        },
    );
    world.run_until(Instant::from_secs(3));

    for i in [1, 2] {
        let h = world.node_as::<Host>(fabric.hosts[i]);
        assert_eq!(h.stats.udp_rx, 50, "site {i} missed tunnel traffic");
    }
    let controller = world.node_as::<Controller>(fabric.controller);
    let app = controller
        .app(0)
        .as_any()
        .downcast_ref::<TrafficEngineering>()
        .unwrap();
    assert!(app.programmed());
    assert_eq!(app.last_rates.len(), 2);
    assert!(app.last_rates.iter().all(|&r| r == 10_000_000));
}

#[test]
fn agent_answers_echo_and_stats() {
    // Direct agent exercise without apps: check the switch side of the
    // protocol state machine through a raw controller.
    let topo = Topology::line(2, LinkParams::default()).with_host_per_switch();
    let mut world = World::new(21);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![Box::new(ReactiveForwarding::new())],
        FabricOptions::default(),
        announcer,
    );
    world.run_until(Instant::from_secs(1));
    // Count: every switch registered and received feature handshakes.
    let controller = world.node_as::<Controller>(fabric.controller);
    assert!(controller.stats.msgs_received > 0);
    let agent = world.node_as::<SwitchAgent>(fabric.switches[0]);
    assert_eq!(agent.stats.decode_errors, 0);
    assert!(agent.stats.packet_outs > 0, "discovery LLDPs executed");
}

#[test]
fn silent_failure_detected_by_lldp_aging() {
    // Cut a ring link silently; the controller's LLDP aging must drop it
    // from the view and the fabric must reprogram around it.
    let mut topo = Topology::ring(4, LinkParams::default());
    topo.hosts = vec![0, 2];
    let inventory = {
        let mut scratch = World::new(6);
        build_fabric(
            &mut scratch,
            &topo,
            |_| vec![],
            FabricOptions::default(),
            announcer,
        )
        .static_hosts()
    };
    let mut world = World::new(6);
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
            let dst = default_ip(1 - i);
            Host::new(mac, ip)
                .with_static_arp(dst, zen_core::apps::proactive::FABRIC_MAC)
                .with_workload(Workload::Udp {
                    dst,
                    dst_port: 9,
                    size: 100,
                    count: 3000,
                    interval: Duration::from_millis(1),
                    start: Instant::from_secs(1),
                })
        },
    );
    world.run_until(Instant::from_millis(1500));
    let links_before = world
        .node_as::<Controller>(fabric.controller)
        .view
        .links
        .len();
    assert_eq!(links_before, 8);

    // Find and silently cut the loaded link.
    let victim = fabric
        .switch_links
        .iter()
        .copied()
        .max_by_key(|&l| {
            let link = world.link(l);
            link.ab.tx_bytes + link.ba.tx_bytes
        })
        .unwrap();
    world.schedule_link_state_silent(victim, false, Instant::from_secs(2));
    world.run_until(Instant::from_secs(5));

    let controller = world.node_as::<Controller>(fabric.controller);
    assert!(
        controller.view.links.len() <= 6,
        "silent failure never aged out: {} links",
        controller.view.links.len()
    );
    // Probes resumed: lose at most ~300 of 3000 (the aging window).
    let rx = world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx;
    assert!(rx >= 2700, "too much loss after silent failure: {rx}/3000");
}

#[test]
fn monitor_app_collects_port_and_table_stats() {
    use zen_core::apps::Monitor;

    let topo = Topology::line(3, LinkParams::default()).with_host_per_switch();
    let mut world = World::new(12);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| {
            vec![
                Box::new(ReactiveForwarding::new()),
                Box::new(Monitor::new(4)),
            ]
        },
        FabricOptions::default(),
        |i, mac, ip| {
            let host = Host::new(mac, ip).with_gratuitous_arp();
            if i == 0 {
                host.with_workload(Workload::Udp {
                    dst: default_ip(2),
                    dst_port: 9,
                    size: 500,
                    count: 100,
                    interval: Duration::from_millis(10),
                    start: Instant::from_millis(500),
                })
            } else {
                host
            }
        },
    );
    world.run_until(Instant::from_secs(3));

    let controller = world.node_as::<Controller>(fabric.controller);
    let monitor = controller
        .app(1)
        .as_any()
        .downcast_ref::<Monitor>()
        .unwrap();
    assert!(monitor.polls > 0);
    assert!(monitor.replies >= monitor.polls, "every poll answered");
    // All three switches reported table stats with installed flows.
    let active_total: u32 = monitor
        .tables
        .iter()
        .filter(|((_, table), _)| *table == 0)
        .map(|(_, sample)| sample.active)
        .sum();
    assert!(active_total > 0, "no flows visible through stats");
    // The middle switch's transit ports carried the stream.
    assert!(monitor.total_tx_bytes() > 50_000);
    let busiest = monitor.busiest_ports();
    assert!(!busiest.is_empty());
    assert!(busiest[0].1 > 0.0, "no positive rate estimate");
}

#[test]
fn make_before_break_reconfig_is_hitless_under_jitter() {
    use zen_core::Consistency;

    // A triangle of sites; site 0 streams to site 1 continuously while
    // the demand matrix changes at t=2s, forcing a live tunnel
    // reconfiguration under 10 ms control-channel jitter.
    fn run(consistency: Consistency) -> u64 {
        let topo = {
            let mut t = Topology::ring(3, LinkParams::default());
            t.hosts = vec![0, 1, 2];
            t
        };
        let expected_links = 2 * topo.links.len();
        let site_ip = |site: usize| site_host_ip(site, 0);
        let inventory: Vec<zen_core::apps::proactive::StaticHost> = {
            let mut scratch = World::new(13);
            let f = build_fabric(
                &mut scratch,
                &topo,
                |_| vec![],
                FabricOptions::default(),
                |i, mac, _| Host::new(mac, site_ip(i)),
            );
            f.static_hosts()
        };
        let prefixes = (0..3u64)
            .map(|s| (s, format!("10.{s}.0.0/16").parse().unwrap()))
            .collect();
        let initial = vec![SiteDemand {
            src: 0,
            dst: 1,
            rate_bps: 50_000_000,
        }];
        let changed = vec![
            SiteDemand {
                src: 0,
                dst: 1,
                rate_bps: 200_000_000,
            },
            SiteDemand {
                src: 0,
                dst: 2,
                rate_bps: 200_000_000,
            },
        ];
        let mut te = TrafficEngineering::new(
            prefixes,
            inventory,
            initial,
            1_000_000_000,
            2,
            3,
            expected_links,
        );
        te.consistency = consistency;
        te.scheduled_demands = Some((2_000_000_000, changed));

        let mut world = World::new(13);
        let probes = 4000u64;
        let mut te = Some(te);
        let fabric = build_fabric(
            &mut world,
            &topo,
            |_| vec![Box::new(te.take().expect("one replica"))],
            FabricOptions::default(),
            |i, mac, _| {
                let host = Host::new(mac, site_ip(i))
                    .with_static_arp(site_ip(1), FABRIC_MAC)
                    .with_static_arp(site_ip(2), FABRIC_MAC)
                    .with_static_arp(site_ip(0), FABRIC_MAC);
                if i == 0 {
                    host.with_workload(Workload::Udp {
                        dst: site_ip(1),
                        dst_port: 9,
                        size: 200,
                        count: probes,
                        interval: Duration::from_micros(500), // 2 kHz
                        start: Instant::from_secs(1),
                    })
                } else {
                    host
                }
            },
        );
        world.set_control_jitter(Duration::from_millis(10));
        world.run_until(Instant::from_secs(4));

        let controller = world.node_as::<Controller>(fabric.controller);
        let app = controller
            .app(0)
            .as_any()
            .downcast_ref::<TrafficEngineering>()
            .unwrap();
        assert!(app.installs >= 2, "reconfiguration never happened");
        probes - world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx
    }

    let hitless = run(Consistency::PerPacket);
    let teardown = run(Consistency::Relaxed);
    assert_eq!(hitless, 0, "make-before-break must be hitless");
    assert!(
        teardown > hitless,
        "teardown-first should lose packets under jitter (lost {teardown})"
    );
}

/// A TE rollout that cannot be acked before its staging deadline —
/// switch 3 is cut off from the controller from 1.9 s to 4.6 s, and the
/// demand change at 2 s lays a tunnel through it — is aborted whole: a
/// stream from site 0 to site 1, whose tunnel avoids switch 3, loses
/// nothing, and the rollout staged again once the switch is back
/// commits and carries site 0's traffic to site 3.
#[test]
fn an_aborted_te_rollout_leaves_the_live_tunnels_forwarding() {
    let topo = {
        let mut t = Topology::ring(4, LinkParams::default());
        t.hosts = vec![0, 1, 2, 3];
        t
    };
    let expected_links = 2 * topo.links.len();
    let site_ip = |site: usize| site_host_ip(site, 0);
    let inventory: Vec<zen_core::apps::proactive::StaticHost> = {
        let mut scratch = World::new(17);
        let f = build_fabric(
            &mut scratch,
            &topo,
            |_| vec![],
            FabricOptions::default(),
            |i, mac, _| Host::new(mac, site_ip(i)),
        );
        f.static_hosts()
    };
    let prefixes = (0..4u64)
        .map(|s| (s, format!("10.{s}.0.0/16").parse().unwrap()))
        .collect();
    let demand = |dst| SiteDemand {
        src: 0,
        dst,
        rate_bps: 50_000_000,
    };
    let mut te = TrafficEngineering::new(
        prefixes,
        inventory,
        vec![demand(1)],
        1_000_000_000,
        1,
        4,
        expected_links,
    );
    te.scheduled_demands = Some((2_000_000_000, vec![demand(1), demand(3)]));

    let mut world = World::new(17);
    let stream = |dst, count, start| Workload::Udp {
        dst,
        dst_port: 9,
        size: 200,
        count,
        interval: Duration::from_millis(10),
        start: Instant::from_millis(start),
    };
    let mut te = Some(te);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![Box::new(te.take().expect("one replica"))],
        FabricOptions::default(),
        |i, mac, _| {
            let mut host = Host::new(mac, site_ip(i));
            for site in 0..4 {
                host = host.with_static_arp(site_ip(site), FABRIC_MAC);
            }
            if i == 0 {
                host.with_workload(stream(site_ip(1), 600, 1_000))
                    .with_workload(stream(site_ip(3), 100, 7_000))
            } else {
                host
            }
        },
    );
    world.set_fault_plan(FaultPlan::default().partition(
        fabric.controller,
        fabric.switches[3],
        Window::new(Instant::from_millis(1_900), Instant::from_millis(4_600)),
    ));
    world.run_until(Instant::from_secs(9));

    let controller = world.node_as::<Controller>(fabric.controller);
    let rx = |site: usize| world.node_as::<Host>(fabric.hosts[site]).stats.udp_rx;
    assert_eq!(
        controller.stats.txns_aborted, 1,
        "the rollout never aborted"
    );
    assert!(controller.config_epoch() >= 2, "no rollout after the abort");
    assert!(!controller.txn_busy());
    assert_eq!(rx(1), 600, "the live tunnel lost traffic");
    assert_eq!(rx(3), 100, "the re-staged tunnel does not carry traffic");
}
