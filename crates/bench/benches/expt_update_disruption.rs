//! E11 — disruption during live reconfiguration: teardown-first vs.
//! make-before-break.
//!
//! The zUpdate/SWAN question: when the controller reconfigures a
//! network whose switches apply updates at unpredictable relative times
//! (modelled as uniform control-channel jitter), how much traffic is
//! lost? A site streams at 2 kHz while the TE demand matrix changes
//! mid-run. The rollout is one network update either way: per-packet
//! (make-before-break) the update planner installs the new tunnel
//! generation under fresh VLAN tags, swaps the ingress classifiers once
//! every switch has acked it, and retires the old generation after the
//! drain wave; relaxed (teardown-first) it sends the retires first.

use zen_core::apps::proactive::FABRIC_MAC;
use zen_core::apps::te::SiteDemand;
use zen_core::apps::TrafficEngineering;
use zen_core::harness::{build_fabric, site_host_ip, FabricOptions};
use zen_core::{Consistency, Controller};
use zen_sim::{Duration, Host, Instant, LinkParams, Topology, Workload, World};

const PROBES: u64 = 4000;

fn run(consistency: Consistency, jitter: Duration, seed: u64) -> u64 {
    let topo = {
        let mut t = Topology::ring(3, LinkParams::default());
        t.hosts = vec![0, 1, 2];
        t
    };
    let expected_links = 2 * topo.links.len();
    let site_ip = |site: usize| site_host_ip(site, 0);
    let inventory: Vec<zen_core::apps::proactive::StaticHost> = {
        let mut scratch = World::new(seed);
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
    let mut te = TrafficEngineering::new(
        prefixes,
        inventory,
        vec![SiteDemand {
            src: 0,
            dst: 1,
            rate_bps: 50_000_000,
        }],
        1_000_000_000,
        2,
        3,
        expected_links,
    );
    te.consistency = consistency;
    te.scheduled_demands = Some((
        2_000_000_000,
        vec![
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
        ],
    ));

    let mut world = World::new(seed);
    let mut te = Some(te);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![Box::new(te.take().expect("one replica"))],
        FabricOptions::default(),
        |i, mac, _| {
            let host = Host::new(mac, site_ip(i))
                .with_static_arp(site_ip(0), FABRIC_MAC)
                .with_static_arp(site_ip(1), FABRIC_MAC)
                .with_static_arp(site_ip(2), FABRIC_MAC);
            if i == 0 {
                host.with_workload(Workload::Udp {
                    dst: site_ip(1),
                    dst_port: 9,
                    size: 200,
                    count: PROBES,
                    interval: Duration::from_micros(500),
                    start: Instant::from_secs(1),
                })
            } else {
                host
            }
        },
    );
    world.set_control_jitter(jitter);
    world.run_until(Instant::from_secs(4));

    let controller = world.node_as::<Controller>(fabric.controller);
    let app = controller
        .app(0)
        .as_any()
        .downcast_ref::<TrafficEngineering>()
        .unwrap();
    assert!(app.installs >= 2, "reconfiguration never happened");
    PROBES - world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx
}

fn main() {
    println!("# E11 — reconfiguration disruption under asynchronous rule application");
    println!("# 2 kHz stream across a live TE reconfiguration; per-message control jitter");
    println!();
    println!(
        "{:>18} {:>12} {:>6} {:>22}",
        "strategy", "jitter(ms)", "seed", "lost probes (of 4000)"
    );
    let mut teardown_total = 0u64;
    let mut mbb_total = 0u64;
    for &jitter_ms in &[0u64, 2, 10, 20] {
        for seed in [1u64, 2] {
            let j = Duration::from_millis(jitter_ms);
            let lost_td = run(Consistency::Relaxed, j, seed);
            let lost_mbb = run(Consistency::PerPacket, j, seed);
            teardown_total += lost_td;
            mbb_total += lost_mbb;
            println!(
                "{:>18} {:>12} {:>6} {:>22}",
                "teardown-first", jitter_ms, seed, lost_td
            );
            println!(
                "{:>18} {:>12} {:>6} {:>22}",
                "make-before-break", jitter_ms, seed, lost_mbb
            );
        }
    }
    println!();
    println!("# Shape check: make-before-break is hitless at every jitter level;");
    println!("# teardown-first loses probes once rules can land out of order");
    println!("# (the asynchronous-update window the congestion-free-update");
    println!("# literature eliminates), by an amount that depends on which");
    println!("# mods reorder, not monotonically on the jitter.");
    assert_eq!(mbb_total, 0, "make-before-break must be hitless");
    assert!(teardown_total > 0, "teardown-first should show disruption");
}
