//! The view memoises its routing snapshot per routing graph: a version
//! bump sets it aside, and the next use takes it back only if the graph
//! it was built from still stands. After every kind of structural change
//! the next reactive punt must install exactly the path an uncached
//! `graph()` + `dijkstra` over the changed view gives — a stale snapshot
//! surviving a change would install the old one.
//!
//! A 4-switch ring carries two senders on switch 0 and a sink on switch
//! 2, so there are always two equal-cost ways round. Flows idle out
//! (10 ms) long before a sender's next datagram (50 ms), so every
//! datagram is a fresh punt; the two senders fire 10 ms apart inside
//! one controller tick, which lets a change be undone between two punts
//! with no discovery round in between. Changes are made on the
//! controller's view directly, 1 ms before the datagram they precede.

use std::collections::BTreeMap;

use zen_core::apps::reactive::REACTIVE_COOKIE;
use zen_core::apps::ReactiveForwarding;
use zen_core::harness::{
    build_fabric_with_hosts, default_host_ip, default_host_mac, FabricOptions,
};
use zen_core::view::{Dpid, NetworkView};
use zen_core::{Controller, SwitchAgent};
use zen_dataplane::{Action, PortNo};
use zen_graph::dijkstra;
use zen_sim::{Duration, Host, Instant, LinkParams, Topology, Workload, World};
use zen_wire::EthernetAddress;

const SINK: usize = 2;

/// What a fresh computation over `view` says a punt at `src` for a
/// frame to `dst` installs: switch → output port. Ports come from a
/// scan of every link, first match in key order.
fn uncached_program(view: &NetworkView, src: Dpid, dst: EthernetAddress) -> BTreeMap<Dpid, PortNo> {
    let host = view.hosts()[&dst];
    let (graph, dpids, index) = view.graph();
    let tree = dijkstra(&graph, index[&src]);
    let Some(path) = tree.path_to(&graph, index[&host.dpid]) else {
        return BTreeMap::new();
    };
    let hops: Vec<Dpid> = path.nodes.iter().map(|&ix| dpids[ix as usize]).collect();
    let mut program = BTreeMap::new();
    for pair in hops.windows(2) {
        let (&(_, port), _) = view
            .links
            .iter()
            .find(|(&(a, p), &(b, _))| a == pair[0] && b == pair[1] && view.port_up(a, p))
            .expect("the path follows discovered links");
        program.insert(pair[0], port);
    }
    program.insert(host.dpid, host.port);
    program
}

#[test]
fn every_view_change_reroutes_the_next_punt() {
    let mut topo = Topology::ring(4, LinkParams::default());
    topo.hosts = vec![0, 0, SINK];
    let mut world = World::new(3);
    let mut app = ReactiveForwarding::new();
    app.idle_timeout = Duration::from_millis(10).as_nanos();
    let fabric = build_fabric_with_hosts(
        &mut world,
        &topo,
        vec![Box::new(app)],
        FabricOptions::default(),
        |i, mac, ip| {
            let host = Host::new(mac, ip)
                .with_gratuitous_arp()
                .with_static_arp(default_host_ip(SINK), default_host_mac(SINK));
            if i == SINK {
                return host;
            }
            host.with_workload(Workload::Udp {
                dst: default_host_ip(SINK),
                dst_port: 9,
                size: 20,
                count: 8,
                interval: Duration::from_millis(50),
                // Controller ticks fall on multiples of 50 ms.
                start: Instant::from_millis(520 + 10 * i as u64),
            })
        },
    );
    let sink = default_host_mac(SINK);
    // The first hop of the default route, and its port on switch 0.
    let baseline = {
        world.run_until(Instant::from_millis(500));
        let view = &world.node_as::<Controller>(fabric.controller).view;
        uncached_program(view, 0, sink)
    };
    let port = baseline[&0];
    let via = world.node_as::<Controller>(fabric.controller).view.links[&(0, port)].0;
    let other = if via == 1 { 3 } else { 1 };

    type Change = fn(&mut NetworkView, PortNo, Dpid, Dpid, Instant);
    // (sender, datagram number, change made just before it, whether it
    // must move the route off the default first hop / back onto it).
    let steps: [(usize, u64, Change, Option<bool>); 9] = [
        (0, 0, |_, _, _, _, _| {}, None),
        // PORT_STATUS down, then up again (discovery restores the link).
        (
            0,
            1,
            |v, port, _, _, _| v.set_port(0, port, false),
            Some(true),
        ),
        (0, 2, |v, port, _, _, _| v.set_port(0, port, true), None),
        // A silent failure aged out by `expire_links`.
        (
            0,
            3,
            |v, port, _, _, now| {
                v.expire_links(now, |from, _| (from == (0, port)).then_some(Duration::ZERO));
            },
            Some(true),
        ),
        // A dead control session, then its return within the same tick.
        (
            0,
            4,
            |v, _, via, _, _| {
                v.quarantine(via);
            },
            Some(true),
        ),
        (
            1,
            4,
            |v, _, via, _, _| {
                v.unquarantine(via);
            },
            Some(false),
        ),
        // A peer replica's LinkDel.
        (
            0,
            5,
            |v, port, _, _, _| {
                v.remove_link((0, port));
            },
            Some(true),
        ),
        (0, 6, |_, _, _, _, _| {}, Some(false)),
        // The sink shows up on the other neighbour.
        (
            0,
            7,
            |v, _, _, other, now| {
                v.learn_host(default_host_mac(SINK), other, 9, None, now);
            },
            None,
        ),
    ];
    for (step, &(sender, nth, change, moves)) in steps.iter().enumerate() {
        let due_ms = 520 + 10 * sender as u64 + 50 * nth;
        world.run_until(Instant::from_millis(due_ms - 1));
        let now = world.now();
        let view = &mut world.node_as_mut::<Controller>(fabric.controller).view;
        change(view, port, via, other, now);
        let want = uncached_program(view, 0, sink);
        // Guard the scenario itself.
        match moves {
            Some(true) => assert_ne!(want.get(&0), Some(&port), "step {step}: route did not move"),
            Some(false) => assert_eq!(want, baseline, "step {step}: route did not return"),
            None => {}
        }
        world.run_until(Instant::from_millis(due_ms + 5));

        let src = default_host_mac(sender);
        let mut got = BTreeMap::new();
        for (dpid, &node) in fabric.switches.iter().enumerate() {
            let table = world.node_as::<SwitchAgent>(node).dp.table(0);
            for e in table.entries().filter(|e| {
                e.spec.cookie == REACTIVE_COOKIE
                    && e.spec.matcher.eth_src == Some(src)
                    && e.spec.matcher.eth_dst == Some(sink)
            }) {
                let [Action::Output(out)] = e.spec.actions[..] else {
                    panic!("step {step}: unexpected actions {:?}", e.spec.actions);
                };
                got.insert(dpid as Dpid, out);
            }
        }
        assert!(
            !want.is_empty(),
            "step {step}: the ring never partitions here"
        );
        assert_eq!(
            got, want,
            "step {step}: installed path is not the uncached one"
        );
    }
}

/// The path the memo lends carries, hop by hop, the port
/// `port_toward` answers with — the lowest live one toward the next
/// switch — whatever parallel links, downed ports and quarantines leave
/// of a ring whose every side is two links wide; and it is a shortest
/// path, or `false` and nothing where there is none.
#[test]
fn the_lent_path_carries_what_port_toward_answers() {
    let mut view = NetworkView::new();
    let ports: Vec<(PortNo, bool)> = (1..=4).map(|p| (p, true)).collect();
    for dpid in 0..4 {
        view.add_switch(dpid, 1, &ports);
    }
    // Ports 1 and 2 lead clockwise, into ports 3 and 4 of the next.
    let wire = |view: &mut NetworkView, dpid: Dpid, lane: PortNo| {
        let next = (dpid + 1) % 4;
        view.add_link((dpid, 1 + lane), (next, 3 + lane));
        view.add_link((next, 3 + lane), (dpid, 1 + lane));
    };
    for dpid in 0..4 {
        wire(&mut view, dpid, 0);
        wire(&mut view, dpid, 1);
    }
    let check = |view: &NetworkView, what: &str| {
        let mut path = vec![(9, 9)];
        let (graph, _, index) = view.graph();
        for from in 0..4 {
            for to in 0..4 {
                let found = view.routes().path(from, to, 77, &mut path);
                let want = dijkstra(&graph, index[&from]).path_to(&graph, index[&to]);
                assert_eq!(found, want.is_some(), "{what}: {from} to {to}");
                let Some(want) = want else {
                    assert!(path.is_empty(), "{what}: {from} to {to} left {path:?}");
                    continue;
                };
                assert_eq!(path.len(), want.nodes.len(), "{what}: {from} to {to}");
                assert_eq!((path[0].0, path[path.len() - 1]), (from, (to, 77)));
                for hop in path.windows(2) {
                    let toward = view.port_toward(hop[0].0, hop[1].0);
                    assert_eq!(Some(hop[0].1), toward, "{what}: {from} to {to} at {hop:?}");
                }
            }
        }
        assert!(!view.routes().path(0, 42, 77, &mut path) && path.is_empty());
    };
    let first_port = |view: &NetworkView, from: Dpid, to: Dpid| {
        let mut path = Vec::new();
        view.routes().path(from, to, 77, &mut path).then(|| path[0])
    };

    check(&view, "whole");
    assert_eq!(first_port(&view, 0, 1), Some((0, 1)));
    // The lower of two parallel links goes down, and comes back.
    view.set_port(0, 1, false);
    check(&view, "port down");
    assert_eq!(first_port(&view, 0, 1), Some((0, 2)));
    view.set_port(0, 1, true);
    wire(&mut view, 0, 0);
    check(&view, "port up");
    assert_eq!(first_port(&view, 0, 1), Some((0, 1)));
    // A quarantined switch is no hop: the other way round, or no way.
    view.quarantine(1);
    check(&view, "one side quarantined");
    assert_eq!(first_port(&view, 0, 2), Some((0, 3)));
    view.quarantine(3);
    check(&view, "both sides quarantined");
    assert_eq!(first_port(&view, 0, 2), None);
    view.unquarantine(1);
    check(&view, "one side back");
    assert_eq!(first_port(&view, 0, 2), Some((0, 1)));
}

/// What the routing graph of `view` is made of, worked out apart from
/// the view's own builder: its switches, and per discovered link whose
/// source port is up, between known switches neither of which is
/// quarantined, `(source, destination, source port)` in key order.
fn graph_content(view: &NetworkView) -> (Vec<Dpid>, Vec<(Dpid, Dpid, PortNo)>) {
    let dpids = view.switches.keys().copied().collect();
    let usable = |d: &Dpid| view.switches.contains_key(d) && !view.is_quarantined(*d);
    let edges = view
        .links
        .iter()
        .filter(|(&(a, p), (b, _))| view.port_up(a, p) && usable(&a) && usable(b))
        .map(|(&(a, p), &(b, _))| (a, b, p))
        .collect();
    (dpids, edges)
}

/// A seeded run of every kind of view change — ports down and up, links
/// discovered, aged out and torn, quarantines laid and lifted, switch
/// refreshes that do and do not move a port, hosts learned, and flaps
/// undone before anyone asks for routes. After every step the snapshot
/// answers what a fresh `graph()` and a `dijkstra` per source do, its
/// generation moves exactly when the graph's content did, and a
/// snapshot that outlived a bump lends the trees it had already
/// computed.
#[test]
fn a_snapshot_outlives_every_bump_that_leaves_the_graph_alone() {
    const SWITCHES: Dpid = 5;
    const PORTS: PortNo = 4;
    let mut rng = zen_wire::lcg::Lcg::new(0x5eed_0d0e);
    let mut view = NetworkView::new();
    let all_up: Vec<(PortNo, bool)> = (1..=PORTS).map(|p| (p, true)).collect();
    for dpid in 0..SWITCHES {
        view.add_switch(dpid, 1, &all_up);
    }
    let mut last = (view.routes().generation, graph_content(&view));
    let mut tree_of_zero = view.routes().dists_from(0).as_ptr();
    let (mut moves, mut stays) = (0, 0);
    for step in 0..1_500u64 {
        let now = Instant::from_millis(step);
        let dpid = rng.gen_range(SWITCHES);
        let port = 1 + rng.gen_range(u64::from(PORTS)) as PortNo;
        let version = view.version;
        match rng.gen_range(9) {
            0 => view.set_port(dpid, port, false),
            1 => view.set_port(dpid, port, true),
            2 | 3 => {
                // A link both ways, to a port of another switch.
                let peer = (dpid + 1 + rng.gen_range(SWITCHES - 1)) % SWITCHES;
                let peer_port = 1 + rng.gen_range(u64::from(PORTS)) as PortNo;
                view.add_link_at((dpid, port), (peer, peer_port), now);
                view.add_link_at((peer, peer_port), (dpid, port), now);
            }
            4 => {
                let aged = |from, _| (from == (dpid, port)).then_some(Duration::ZERO);
                view.expire_links(now, aged);
            }
            5 => {
                if !view.quarantine(dpid) {
                    view.unquarantine(dpid);
                }
            }
            6 => {
                // A refresh: the same ports, or one of them flipped.
                let mut ports = view.switches[&dpid].ports.clone();
                if rng.gen_ratio(1, 2) {
                    *ports.get_mut(&port).unwrap() ^= true;
                }
                let ports: Vec<(PortNo, bool)> = ports.into_iter().collect();
                view.add_switch(dpid, 1, &ports);
            }
            7 => {
                let mac = zen_wire::EthernetAddress::from_id(rng.gen_range(8));
                view.learn_host(mac, dpid, port, None, now);
            }
            _ => {
                // A flap undone before routes are asked for again.
                if let Some(&(peer, peer_port)) = view.links.get(&(dpid, port)) {
                    view.set_port(dpid, port, false);
                    view.set_port(dpid, port, true);
                    view.add_link_at((dpid, port), (peer, peer_port), now);
                    view.add_link_at((peer, peer_port), (dpid, port), now);
                }
            }
        }
        let content = graph_content(&view);
        let routes = view.routes();
        let (graph, dpids, index) = view.graph();
        assert_eq!(
            (&routes.graph, &routes.dpids, &routes.index),
            (&graph, &dpids, &index),
            "step {step}: the snapshot is not a fresh graph()"
        );
        let mut path = Vec::new();
        for src in 0..SWITCHES {
            let tree = dijkstra(&graph, index[&src]);
            assert_eq!(
                routes.dists_from(index[&src]),
                &tree.dist[..],
                "step {step}"
            );
            for dst in 0..SWITCHES {
                let found = routes.path(src, dst, 77, &mut path);
                assert_eq!(
                    found,
                    tree.reachable(index[&dst]),
                    "step {step}: {src} to {dst}"
                );
                for hop in path.windows(2) {
                    let toward = view.port_toward(hop[0].0, hop[1].0);
                    assert_eq!(Some(hop[0].1), toward, "step {step}: {src} to {dst}");
                }
            }
        }
        let moved = content != last.1;
        assert_eq!(
            routes.generation != last.0,
            moved,
            "step {step}: the generation does not follow the graph"
        );
        if moved {
            moves += 1;
        } else if view.version != version {
            // Bumped, graph untouched: the trees are the ones computed
            // before the bump.
            assert_eq!(routes.dists_from(0).as_ptr(), tree_of_zero, "step {step}");
            stays += 1;
        }
        tree_of_zero = routes.dists_from(0).as_ptr();
        last = (routes.generation, content);
    }
    assert!(
        moves > 200 && stays > 200,
        "{moves} moves, {stays} bumps kept"
    );
}
