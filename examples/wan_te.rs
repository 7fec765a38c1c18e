//! B4-style WAN traffic engineering across a 12-site backbone.
//!
//! ```text
//! cargo run --example wan_te
//! ```
//!
//! Each site owns `10.<site>.0.0/16` and hosts one traffic endpoint.
//! A demand matrix is allocated by the TE app's max-min water-filling
//! over k-shortest candidate paths, realized as VLAN-labelled tunnels
//! with weighted ECMP groups. The example runs the same demands with
//! k=1 (shortest path only — "what OSPF would do") and k=3 (TE), and
//! prints the granted rates: the TE run admits measurably more traffic.

use std::collections::BTreeMap;

use zen::core::apps::proactive::FABRIC_MAC;
use zen::core::apps::te::SiteDemand;
use zen::core::apps::TrafficEngineering;
use zen::core::harness::{build_fabric, site_host_ip, FabricOptions};
use zen::core::Controller;
use zen::sim::{Host, Instant, Topology, World};
use zen::wire::Ipv4Cidr;

const LINK_BPS: u64 = 1_000_000_000;

fn run(k: usize, demands: &[SiteDemand]) -> (u64, u64) {
    let topo = {
        let mut t = Topology::b4(LINK_BPS);
        t.hosts = (0..12).collect();
        t
    };
    let expected_links = 2 * topo.links.len();

    let inventory: Vec<zen::core::apps::proactive::StaticHost> = {
        let mut scratch = World::new(5);
        let f = build_fabric(
            &mut scratch,
            &topo,
            |_| vec![],
            FabricOptions::default(),
            |i, mac, _| Host::new(mac, site_host_ip(i, 0)),
        );
        f.static_hosts()
    };
    let prefixes: BTreeMap<u64, Ipv4Cidr> = (0..12u64)
        .map(|s| (s, format!("10.{s}.0.0/16").parse().unwrap()))
        .collect();

    let te = TrafficEngineering::new(
        prefixes,
        inventory,
        demands.to_vec(),
        LINK_BPS,
        k,
        topo.switches,
        expected_links,
    );

    let mut world = World::new(5);
    let mut te = Some(te);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![Box::new(te.take().expect("one replica"))],
        FabricOptions::default(),
        |i, mac, _| {
            let mut host = Host::new(mac, site_host_ip(i, 0));
            for s in 0..12 {
                if s != i {
                    host = host.with_static_arp(site_host_ip(s, 0), FABRIC_MAC);
                }
            }
            host
        },
    );
    world.run_until(Instant::from_secs(2));

    let controller = world.node_as::<Controller>(fabric.controller);
    let app = controller
        .app(0)
        .as_any()
        .downcast_ref::<TrafficEngineering>()
        .unwrap();
    assert!(app.programmed(), "TE must have programmed tunnels");
    let granted: u64 = app.last_rates.iter().sum();
    let requested: u64 = app.last_demands.iter().map(|d| d.rate_bps).sum();
    (granted, requested)
}

fn main() {
    println!(
        "zen WAN TE — B4-style 12-site backbone, {} Gb/s links",
        LINK_BPS / 1_000_000_000
    );

    // A hot demand set: the three transoceanic pairs each want 2.5 Gb/s
    // (more than any single path), plus regional chatter.
    let mut demands = vec![
        SiteDemand {
            src: 0,
            dst: 9,
            rate_bps: 2_500_000_000,
        },
        SiteDemand {
            src: 1,
            dst: 10,
            rate_bps: 2_500_000_000,
        },
        SiteDemand {
            src: 4,
            dst: 6,
            rate_bps: 2_500_000_000,
        },
    ];
    for (a, b) in [(0, 3), (2, 5), (6, 8), (9, 11)] {
        demands.push(SiteDemand {
            src: a,
            dst: b,
            rate_bps: 400_000_000,
        });
    }

    println!(
        "  demands: {} pairs, {:.1} Gb/s total requested",
        demands.len(),
        demands.iter().map(|d| d.rate_bps).sum::<u64>() as f64 / 1e9
    );

    let (sp_granted, requested) = run(1, &demands);
    let (te_granted, _) = run(3, &demands);

    println!(
        "  shortest-path only (k=1): {:.2} Gb/s granted ({:.0}% of demand)",
        sp_granted as f64 / 1e9,
        100.0 * sp_granted as f64 / requested as f64
    );
    println!(
        "  traffic engineering (k=3): {:.2} Gb/s granted ({:.0}% of demand)",
        te_granted as f64 / 1e9,
        100.0 * te_granted as f64 / requested as f64
    );
    println!("  TE gain: {:.2}x", te_granted as f64 / sp_granted as f64);
    assert!(te_granted > sp_granted, "TE must beat single shortest path");
    println!("ok.");
}
