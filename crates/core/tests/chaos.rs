//! Chaos soak: a 20-switch fat-tree under a randomized fault plan —
//! sustained control-channel loss and duplication, a hard 500 ms
//! controller partition, and two data-plane link flaps — must
//! reconverge completely after the faults heal.
//!
//! Ignored by default (it simulates ~9 s of fabric time); CI runs it
//! explicitly:
//!
//! ```text
//! cargo test --release -p zen-core --test chaos -- --ignored
//! ```

use zen_core::apps::proactive::FABRIC_MAC;
use zen_core::apps::ProactiveFabric;
use zen_core::harness::{announcer, build_fabric, FabricOptions};
use zen_core::Controller;
use zen_sim::{Duration, FaultPlan, Host, Instant, LinkParams, Topology, Window, Workload, World};

/// The fixed seed. The whole scenario is a pure function of it; any
/// failure reproduces exactly by rerunning.
const SOAK_SEED: u64 = 0xC4A0_5001;

/// Everything observable the run produced, compared across replays.
#[derive(Debug, PartialEq, Eq)]
struct TraceDigest {
    events: u64,
    control_dropped: u64,
    control_duplicated: u64,
    control_partitioned: u64,
    msgs_sent: u64,
    msgs_received: u64,
    mods_acked: u64,
    mods_retransmitted: u64,
    pings_answered: usize,
}

fn ms(v: u64) -> Instant {
    Instant::from_millis(v)
}

fn soak(seed: u64) -> TraceDigest {
    let topo = Topology::fat_tree(4, LinkParams::default());
    assert_eq!(topo.switches, 20);
    assert_eq!(topo.host_count(), 16);
    let inventory = {
        let mut scratch = World::new(seed);
        build_fabric(
            &mut scratch,
            &topo,
            |_| vec![],
            FabricOptions::default(),
            announcer,
        )
        .static_hosts()
    };
    let n_hosts = topo.host_count();
    let host_ips: Vec<_> = (0..n_hosts)
        .map(zen_core::harness::default_host_ip)
        .collect();

    let mut world = World::new(seed);
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
            // Post-heal all-pairs ping wave: every host probes every
            // other host twice, staggered per source to spread load.
            let mut host = Host::new(mac, ip);
            for (j, &dst) in host_ips.iter().enumerate() {
                if j == i {
                    continue;
                }
                host = host
                    .with_static_arp(dst, FABRIC_MAC)
                    .with_workload(Workload::Ping {
                        dst,
                        count: 2,
                        interval: Duration::from_millis(40),
                        start: ms(7000 + 10 * i as u64 + 160 * (j as u64 % 4)),
                    });
            }
            host
        },
    );

    // The fault plan: ≥1% control loss plus duplication for 5 s, and a
    // hard 500 ms partition between the controller and one edge switch
    // (which has hosts behind it, so its state matters).
    let fault_window = Window::new(ms(1000), ms(6000));
    world.set_fault_plan(
        FaultPlan::default()
            .control_loss(0.015, fault_window)
            .duplicate(0.01, fault_window)
            .partition(
                fabric.controller,
                fabric.switches[0],
                Window::new(ms(2000), ms(2500)),
            ),
    );
    // Two link flaps (announced via PORT_STATUS, unlike the silent
    // cuts the LLDP-aging tests use).
    let flap_a = fabric.switch_links[0];
    let flap_b = fabric.switch_links[17];
    world.schedule_link_state(flap_a, false, ms(2800));
    world.schedule_link_state(flap_a, true, ms(3300));
    world.schedule_link_state(flap_b, false, ms(4000));
    world.schedule_link_state(flap_b, true, ms(4500));

    world.run_until(Instant::from_secs(10));

    // --- post-heal reconvergence ----------------------------------
    let controller = world.node_as::<Controller>(fabric.controller);
    assert_eq!(
        controller.view.switches.len(),
        20,
        "view lost switches (seed {seed:#x})"
    );
    assert_eq!(
        controller.view.links.len(),
        2 * topo.links.len(),
        "controller view does not match the live topology (seed {seed:#x})"
    );
    assert!(
        controller.view.quarantined().is_empty(),
        "quarantine never lifted: {:?} (seed {seed:#x})",
        controller.view.quarantined()
    );
    assert_eq!(
        controller.pending_mods(),
        0,
        "mods still pending after heal (seed {seed:#x})"
    );
    assert_eq!(
        controller.stats.mods_failed, 0,
        "flow-mods permanently lost (seed {seed:#x})"
    );
    // The partition outlasted the dead-after deadline, so the machinery
    // demonstrably engaged (this is a soak, not a no-op).
    assert!(
        controller.stats.quarantines >= 1,
        "partition never tripped quarantine (seed {seed:#x})"
    );
    assert!(
        controller.stats.resyncs_clean + controller.stats.resyncs_dirty >= 1,
        "no resync handshake ran (seed {seed:#x})"
    );
    let dropped = world.metrics().counter("fault.control_dropped");
    assert!(dropped > 0, "fault plan injected nothing (seed {seed:#x})");

    // All host pairs reachable: every ping of the wave came back.
    let mut pings_answered = 0;
    for (i, &h) in fabric.hosts.iter().enumerate() {
        let host = world.node_as::<Host>(h);
        let got = host.stats.ping_rtts.count();
        assert_eq!(
            got,
            2 * (n_hosts - 1),
            "host {i} lost pings (seed {seed:#x})"
        );
        pings_answered += got;
    }

    let stats = world.node_as::<Controller>(fabric.controller).stats;
    TraceDigest {
        events: world.events_processed(),
        control_dropped: dropped,
        control_duplicated: world.metrics().counter("fault.control_duplicated"),
        control_partitioned: world.metrics().counter("fault.control_partitioned"),
        msgs_sent: stats.msgs_sent,
        msgs_received: stats.msgs_received,
        mods_acked: stats.mods_acked,
        mods_retransmitted: stats.mods_retransmitted,
        pings_answered,
    }
}

#[test]
#[ignore = "chaos soak: run explicitly (CI does) — simulates ~10 s of fabric time"]
fn chaos_soak_fat_tree_reconverges() {
    let first = soak(SOAK_SEED);
    println!(
        "soak chaos {:016x}",
        zen_consensus::fnv1a(format!("{:?}", first).as_bytes())
    );
    // The run is a pure function of the seed: a replay must produce an
    // identical trace, or debugging a chaos failure is hopeless.
    let second = soak(SOAK_SEED);
    assert_eq!(
        first, second,
        "replay diverged from first run (seed {SOAK_SEED:#x})"
    );
}
