//! Epoch-versioned two-phase consistent updates: end-to-end tests.
//!
//! Covers the planner's happy path (a fabric rewrite under load commits
//! through staging → flip → drain), its failure paths (a switch cut off
//! from the controller mid-commit must not wedge the epoch flip — the
//! transaction aborts or completes after resync and the fabric
//! reconverges), and determinism (the same seed replays byte-identical,
//! faults and all).

use zen_core::apps::proactive::FABRIC_MAC;
use zen_core::apps::ProactiveFabric;
use zen_core::harness::default_host_ip as default_ip;
use zen_core::{build_fabric, build_fabric_with_hosts, Controller, FabricOptions};
use zen_sim::{Duration, FaultPlan, Host, Instant, Topology, Window, Workload, World};

/// Diamond fabric (4-switch ring, hosts at opposite corners) running
/// the proactive fabric under per-packet consistency, with a UDP
/// stream between the hosts. Returns the world and fabric handles.
fn build_diamond(seed: u64, count: u64) -> (World, zen_core::Fabric) {
    let mut topo = Topology::ring(4, zen_sim::LinkParams::default());
    topo.hosts = vec![0, 2];
    let expected_links = 2 * topo.links.len();

    let inventory = {
        let mut scratch = World::new(seed);
        build_fabric(&mut scratch, &topo, vec![], FabricOptions::default()).static_hosts()
    };

    let mut world = World::new(seed);
    let fabric = build_fabric_with_hosts(
        &mut world,
        &topo,
        vec![Box::new(
            ProactiveFabric::new(inventory, topo.switches, expected_links).per_packet(),
        )],
        FabricOptions::default(),
        |i, mac, ip| {
            let dst = default_ip(1 - i);
            Host::new(mac, ip)
                .with_static_arp(dst, FABRIC_MAC)
                .with_workload(Workload::Udp {
                    dst,
                    dst_port: 9,
                    size: 200,
                    count,
                    interval: Duration::from_millis(10),
                    start: Instant::from_secs(1),
                })
        },
    );
    (world, fabric)
}

fn fabric_app(controller: &Controller) -> &ProactiveFabric {
    controller
        .app(0)
        .as_any()
        .downcast_ref::<ProactiveFabric>()
        .expect("proactive fabric installed")
}

/// Happy path: the initial program and a mid-run rewrite (link cut)
/// both commit as two-phase epoch updates while traffic flows.
#[test]
fn two_phase_fabric_reprograms_under_load() {
    let (mut world, fabric) = build_diamond(0xC0_0001, 200);

    world.run_until(Instant::from_secs(2));
    let rx_before = world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx;
    assert!(rx_before > 50, "traffic must be flowing before the cut");
    {
        let ctl = world.node_as::<Controller>(fabric.controller);
        assert!(ctl.config_epoch() >= 1, "initial program never committed");
        assert!(!ctl.txn_busy(), "planner busy long after initial commit");
    }

    // Cut one ring link mid-stream: the fabric rewrites itself as the
    // next epoch while datagrams are in flight.
    world.set_link_state(fabric.switch_links[0], false);
    world.run_until(Instant::from_secs(4));

    let ctl = world.node_as::<Controller>(fabric.controller);
    let app = fabric_app(ctl);
    assert!(app.programmed());
    assert!(
        ctl.config_epoch() >= 2,
        "rewrite never committed: epoch {}",
        ctl.config_epoch()
    );
    assert!(ctl.stats.txns_committed >= 2);
    assert_eq!(ctl.stats.txns_aborted, 0, "no faults, yet a txn aborted");
    assert!(app.txn_commits >= 2, "app never heard its commits");
    assert_eq!(app.txn_aborts, 0);
    assert!(!ctl.txn_busy(), "planner wedged after the rewrite");
    assert_eq!(ctl.pending_mods(), 0, "unacked mods left behind");

    // Reconvergence loss is bounded: at least 90% of datagrams arrive.
    let rx = world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx;
    assert!(rx >= 180, "too much loss across the rewrite: {rx}/200");
}

/// Failure path: one switch loses its control channel just before the
/// rewrite is staged. Its staging mods are never acknowledged, so the
/// transaction must either abort (deadline or dirty resync) or complete
/// once the channel heals — but the planner must not wedge, and the
/// fabric must end up reprogrammed with traffic flowing.
#[test]
fn switch_cut_off_mid_commit_does_not_wedge_epoch_flip() {
    let (mut world, fabric) = build_diamond(0xC0_0002, 500);

    // Partition switch 1 from the controller across the rewrite: the
    // window opens just before the link cut announces (so the staging
    // wave at ~2s sails into the void) and holds long enough for the
    // quarantine machinery to trip.
    world.set_fault_plan(FaultPlan::default().partition(
        fabric.controller,
        fabric.switches[1],
        Window::new(Instant::from_millis(1_900), Instant::from_millis(3_500)),
    ));

    world.run_until(Instant::from_secs(2));
    world.set_link_state(fabric.switch_links[2], false);
    world.run_until(Instant::from_secs(5));
    let rx_mid = world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx;
    world.run_until(Instant::from_secs(8));

    let ctl = world.node_as::<Controller>(fabric.controller);
    let app = fabric_app(ctl);
    assert!(!ctl.txn_busy(), "planner wedged by the dead switch");
    assert_eq!(ctl.pending_mods(), 0, "unacked mods left behind");
    assert!(
        ctl.config_epoch() >= 2,
        "epoch never advanced past the failure: {}",
        ctl.config_epoch()
    );
    assert!(
        ctl.stats.quarantines >= 1,
        "partition never tripped quarantine"
    );
    // The txn either aborted and was re-staged, or completed after the
    // resync; both paths end committed.
    assert!(app.txn_commits >= 2, "rewrite never committed");
    assert_eq!(
        app.txn_aborts, ctl.stats.txns_aborted,
        "abort callbacks out of step with controller stats"
    );
    assert!(app.programmed());

    // Traffic resumed after the heal and kept making progress.
    let rx = world.node_as::<Host>(fabric.hosts[1]).stats.udp_rx;
    assert!(rx > rx_mid, "traffic never resumed after heal");
    // The blackout is bounded by heal + resync/abort + re-stage (worst
    // case ~2.3 s of the 5 s stream on the affected direction).
    assert!(rx >= 250, "too much loss across the failure: {rx}/500");
}

/// Everything the soak compares between two same-seed runs. Any
/// divergence — one event, one message, one counter — fails the
/// equality below.
#[derive(Debug, PartialEq, Eq)]
struct TraceDigest {
    events_processed: u64,
    msgs_sent: u64,
    msgs_received: u64,
    flow_mods: u64,
    group_mods: u64,
    mods_retransmitted: u64,
    mods_superseded: u64,
    quarantines: u64,
    resyncs_clean: u64,
    resyncs_dirty: u64,
    txns_committed: u64,
    txns_aborted: u64,
    txns_fast: u64,
    epoch_flip_failures: u64,
    config_epoch: u64,
    installs: u64,
    rules_pushed: u64,
    txn_commits: u64,
    txn_aborts: u64,
    rx: Vec<u64>,
}

/// One soak run: the failure-path scenario plus control-plane jitter
/// and a second flap, long enough for several epochs to commit.
fn soak(seed: u64) -> TraceDigest {
    let (mut world, fabric) = build_diamond(seed, 900);
    world.set_control_jitter(Duration::from_millis(5));
    world.set_fault_plan(
        FaultPlan::default()
            .partition(
                fabric.controller,
                fabric.switches[1],
                Window::new(Instant::from_millis(1_900), Instant::from_millis(3_500)),
            )
            .control_loss(
                0.02,
                Window::new(Instant::from_secs(5), Instant::from_secs(9)),
            ),
    );
    world.schedule_link_state(fabric.switch_links[2], false, Instant::from_secs(2));
    world.schedule_link_state(fabric.switch_links[2], true, Instant::from_secs(6));
    world.run_until(Instant::from_secs(12));

    let ctl = world.node_as::<Controller>(fabric.controller);
    let app = fabric_app(ctl);
    TraceDigest {
        events_processed: world.events_processed(),
        msgs_sent: ctl.stats.msgs_sent,
        msgs_received: ctl.stats.msgs_received,
        flow_mods: ctl.stats.flow_mods,
        group_mods: ctl.stats.group_mods,
        mods_retransmitted: ctl.stats.mods_retransmitted,
        mods_superseded: ctl.stats.mods_superseded,
        quarantines: ctl.stats.quarantines,
        resyncs_clean: ctl.stats.resyncs_clean,
        resyncs_dirty: ctl.stats.resyncs_dirty,
        txns_committed: ctl.stats.txns_committed,
        txns_aborted: ctl.stats.txns_aborted,
        txns_fast: ctl.stats.txns_fast,
        epoch_flip_failures: ctl.stats.epoch_flip_failures,
        config_epoch: ctl.config_epoch(),
        installs: app.installs,
        rules_pushed: app.rules_pushed,
        txn_commits: app.txn_commits,
        txn_aborts: app.txn_aborts,
        rx: fabric
            .hosts
            .iter()
            .map(|&h| world.node_as::<Host>(h).stats.udp_rx)
            .collect(),
    }
}

/// Fixed-seed consistency soak: partition + flap + heal + control loss,
/// replayed twice. The runs must be byte-identical — same event count,
/// same message counts, same epochs, same deliveries.
#[test]
#[ignore = "soak: run explicitly (CI release-soaks lane)"]
fn consistency_soak_replays_byte_identical() {
    let a = soak(0xC0DE);
    println!(
        "soak consistency {:016x}",
        zen_consensus::fnv1a(format!("{:?}", a).as_bytes())
    );
    let b = soak(0xC0DE);
    assert_eq!(a, b, "same-seed soak runs diverged");
    // And the soak actually exercised the machinery under test.
    assert!(a.config_epoch >= 3, "soak never cycled epochs: {a:?}");
    assert!(a.txns_committed >= 3);
    assert!(a.quarantines >= 1, "soak never quarantined: {a:?}");
    assert!(
        a.rx.iter().all(|&r| r >= 500),
        "soak traffic starved: {a:?}"
    );
}
