//! Table-pressure soak: a two-switch fabric with tiny capacity-bounded
//! flow tables under sustained host-pair churn.
//!
//! The evict-policy soak asserts the full backpressure loop: occupancy
//! never exceeds the bound, every capacity eviction surfaces at the
//! controller as `FlowRemoved { reason: Eviction }`, no flow-mod acks
//! are lost, and a fixed-seed replay is byte-identical down to the
//! telemetry export. Ignored by default; CI runs it explicitly:
//!
//! ```text
//! cargo test --release -p zen-core --test pressure -- --ignored
//! ```
//!
//! The refuse-policy test (normal pass) asserts the other overflow
//! mode: bounced adds come back as TABLE_FULL, the ack machinery
//! retires them as failed instead of retransmitting forever, the app
//! backs off, and traffic still flows controller-mediated.

use zen_core::apps::{Monitor, ReactiveForwarding};
use zen_core::harness::{build_fabric, default_host_ip, FabricOptions};
use zen_core::{export_jsonl, AgentConfig, Controller, SwitchAgent};
use zen_dataplane::OverflowPolicy;
use zen_sim::{Duration, Host, Instant, LinkParams, Topology, Workload, World};

/// The fixed seed. The whole scenario is a pure function of it; any
/// failure reproduces exactly by rerunning.
const SOAK_SEED: u64 = 0x7AB1_E501;

/// The soak runs at the acceptance bound: 24 hosts each streaming to 16
/// neighbours demand ~288 distinct (src, dst) entries per switch —
/// comfortably past a 256-entry table.
const SOAK_HOSTS: usize = 24;
const SOAK_FANOUT: usize = 16;
const SOAK_CAP: usize = 256;

/// Everything observable the run produced, compared across replays.
#[derive(Debug, PartialEq, Eq)]
struct PressureDigest {
    events: u64,
    msgs_sent: u64,
    msgs_received: u64,
    mods_acked: u64,
    evictions_noted: u64,
    evictions_reported: u64,
    final_occupancy: Vec<usize>,
    udp_delivered: u64,
    export: String,
}

/// A two-switch line with hosts split evenly, every host streaming UDP
/// to its next `fanout` neighbours with staggered starts — enough
/// distinct (src, dst) pairs to churn a `cap`-entry table. Workload
/// starts are spread over ~0.5–4.5 s so churn is sustained, not a
/// single burst.
fn churn_world(
    seed: u64,
    n_hosts: usize,
    fanout: usize,
    cap: usize,
    policy: OverflowPolicy,
) -> (World, zen_core::harness::Fabric) {
    let mut topo = Topology::line(2, LinkParams::default());
    topo.hosts = (0..n_hosts).map(|i| i % 2).collect();
    let mut world = World::new(seed);
    let opts = FabricOptions {
        agent_cfg: AgentConfig {
            table_limit: Some((cap, policy)),
            ..AgentConfig::default()
        },
        ..FabricOptions::default()
    };
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| {
            vec![
                Box::new(ReactiveForwarding::new()),
                Box::new(Monitor::new(4)),
            ]
        },
        opts,
        |i, mac, ip| {
            let mut host = Host::new(mac, ip).with_gratuitous_arp();
            for k in 1..=fanout {
                let dst = (i + k) % n_hosts;
                let slot = (i * fanout + k) as u64;
                host = host.with_workload(Workload::Udp {
                    dst: default_host_ip(dst),
                    dst_port: 7000 + k as u16,
                    size: 64,
                    count: 20,
                    interval: Duration::from_millis(15),
                    start: Instant::from_millis(500 + slot * 4_000 / (n_hosts * fanout) as u64),
                });
            }
            host
        },
    );
    (world, fabric)
}

fn evict_soak(seed: u64) -> PressureDigest {
    let (mut world, fabric) = churn_world(
        seed,
        SOAK_HOSTS,
        SOAK_FANOUT,
        SOAK_CAP,
        OverflowPolicy::Evict,
    );
    world.run_until(Instant::from_secs(5));

    let mut evictions_reported = 0;
    let mut final_occupancy = Vec::new();
    for (i, &sw) in fabric.switches.iter().enumerate() {
        let agent = world.node_as::<SwitchAgent>(sw);
        // The capacity bound held: the table never grows past it, so
        // the final occupancy cannot exceed it either.
        let table = agent.dp.table(0);
        assert!(
            table.len() <= SOAK_CAP,
            "switch {i} occupancy {} over bound {SOAK_CAP} (seed {seed:#x})",
            table.len()
        );
        assert!(
            table.evictions > 0,
            "switch {i} never evicted — the workload is not pressuring (seed {seed:#x})"
        );
        assert_eq!(
            table.refusals, 0,
            "evict policy must never refuse (seed {seed:#x})"
        );
        evictions_reported += agent.stats.evictions_reported;
        final_occupancy.push(table.len());
    }

    let controller = world.node_as::<Controller>(fabric.controller);
    // Every eviction the switches performed surfaced at the master as
    // FLOW_REMOVED { reason: Eviction } — none were silently dropped.
    assert!(evictions_reported > 0, "no evictions reported");
    assert_eq!(
        controller.stats.evictions_noted, evictions_reported,
        "eviction notices lost between agent and master (seed {seed:#x})"
    );
    // Zero lost acks: nothing pending, nothing failed, nothing bounced.
    assert_eq!(controller.pending_mods(), 0, "mods still pending");
    assert_eq!(controller.stats.mods_failed, 0, "mods lost");
    assert_eq!(
        controller.stats.table_full_errors, 0,
        "evict policy bounced"
    );
    // The Monitor folded the pressure into its typed stats.
    let monitor = controller.find_app::<Monitor>().expect("monitor installed");
    assert!(monitor.total_evictions() > 0, "monitor saw no evictions");
    for (i, _) in fabric.switches.iter().enumerate() {
        let occ = monitor
            .table_occupancy(i as u64, 0)
            .expect("bounded table has occupancy");
        assert!(occ <= 1.0, "monitor occupancy {occ} over 1.0");
    }

    // Churned or not, the traffic itself was delivered.
    let mut udp_delivered = 0;
    for &h in &fabric.hosts {
        udp_delivered += world.node_as::<Host>(h).stats.udp_rx;
    }
    assert!(
        udp_delivered >= (SOAK_HOSTS * SOAK_FANOUT * 20) as u64 * 9 / 10,
        "churn dropped traffic: {udp_delivered} (seed {seed:#x})"
    );

    let stats = world.node_as::<Controller>(fabric.controller).stats;
    let export = export_jsonl(&mut world, fabric.controller);
    PressureDigest {
        events: world.events_processed(),
        msgs_sent: stats.msgs_sent,
        msgs_received: stats.msgs_received,
        mods_acked: stats.mods_acked,
        evictions_noted: stats.evictions_noted,
        evictions_reported,
        final_occupancy,
        udp_delivered,
        export,
    }
}

#[test]
#[ignore = "table-pressure soak: run explicitly (CI does) — simulates ~5 s of fabric time twice"]
fn evict_soak_bounds_occupancy_and_replays_identically() {
    let first = evict_soak(SOAK_SEED);
    println!(
        "soak pressure {:016x}",
        zen_consensus::fnv1a(format!("{:?}", first).as_bytes())
    );
    // The run is a pure function of the seed: a replay must produce an
    // identical trace down to the telemetry export bytes.
    let second = evict_soak(SOAK_SEED);
    assert_eq!(
        first, second,
        "replay diverged from first run (seed {SOAK_SEED:#x})"
    );
}

#[test]
fn refuse_policy_reports_failed_mods_and_backpressures() {
    let (n_hosts, fanout, cap) = (8, 4, 8);
    let (mut world, fabric) = churn_world(SOAK_SEED, n_hosts, fanout, cap, OverflowPolicy::Refuse);
    world.run_until(Instant::from_secs(5));

    let mut rejected = 0;
    for (i, &sw) in fabric.switches.iter().enumerate() {
        let agent = world.node_as::<SwitchAgent>(sw);
        let table = agent.dp.table(0);
        assert!(
            table.len() <= cap,
            "switch {i} occupancy {} over bound {cap}",
            table.len()
        );
        assert_eq!(table.evictions, 0, "refuse policy must never evict");
        rejected += agent.stats.table_full_rejected;
    }
    assert!(rejected > 0, "workload never filled a table");

    let controller = world.node_as::<Controller>(fabric.controller);
    // Every bounce surfaced as a TABLE_FULL error and retired its mod
    // through the ack machinery: nothing pending, nothing silently
    // retransmitting against a full table. Retransmissions that crossed
    // the error in flight can bounce again, so errors >= failures.
    assert!(controller.stats.table_full_errors > 0, "no TABLE_FULL seen");
    assert!(controller.stats.mods_failed > 0, "bounced mods not retired");
    assert!(
        controller.stats.mods_failed <= controller.stats.table_full_errors,
        "more retirements than errors"
    );
    assert_eq!(controller.pending_mods(), 0, "mods still pending");
    // Every sent flow-mod was accounted for: acked or retired. No
    // silent drops.
    assert_eq!(
        controller.stats.mods_acked + controller.stats.mods_failed,
        controller.stats.flow_mods,
        "flow-mods neither acked nor retired"
    );
    // The app heard the backpressure and backed off.
    let fwd = controller
        .find_app::<ReactiveForwarding>()
        .expect("forwarder installed");
    assert!(fwd.table_full_events > 0, "app never notified");
    // Refused installs or not, traffic still moved controller-mediated.
    let mut udp_delivered = 0;
    for &h in &fabric.hosts {
        udp_delivered += world.node_as::<Host>(h).stats.udp_rx;
    }
    assert!(
        udp_delivered >= (n_hosts * fanout * 20) as u64 * 9 / 10,
        "refusals dropped traffic: {udp_delivered}"
    );
}
