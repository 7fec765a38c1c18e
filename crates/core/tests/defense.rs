//! Control-plane self-defense soaks: hostile workloads from `zen-sim`
//! against the metered/admitted/damped control plane.
//!
//! The headline test is a fixed-seed PACKET_IN-flood soak: one rogue
//! edge host floods unknown-destination frames at 10x the innocent
//! aggregate rate while two innocent hosts exchange timestamped UDP
//! probes over narrow access links. Undefended, every flood frame
//! punts, the controller obediently floods it back out, and the
//! innocent access links black-hole for the duration of the attack.
//! Defended (agent punt meter + controller admission + push-back), the
//! rogue is shed at the switch, rationed at the controller, and finally
//! pinned by a drop rule on its ingress port — innocent loss stays
//! bounded and the control channel stays healthy (zero lost acks).
//!
//! Every run is a pure function of the seed, so the defended run is
//! executed twice and every deterministic observable must agree — the
//! replay property the recorder/trace tooling depends on.
//!
//! The flood soak is ignored by default (it simulates seconds of
//! fabric time and is sized for release builds); CI runs it explicitly:
//!
//! ```text
//! cargo test --release -p zen-core --test defense -- --ignored
//! ```

use zen_core::apps::L2Learning;
use zen_core::{
    build_fabric_with_hosts, AdmissionConfig, Controller, Fabric, FabricOptions, PuntMeterConfig,
    SwitchAgent,
};
use zen_sim::{
    Attack, Duration, Host, HostileConfig, HostileHost, HostileStats, Instant, LinkParams,
    Topology, Workload, World,
};
use zen_wire::{EthernetAddress, Ipv4Address};

/// The fixed seed: every number asserted below reproduces exactly by
/// rerunning with it.
const SOAK_SEED: u64 = 0xDEFE_2E18;

/// Innocent probe interval (each of the two hosts). 2 ms each way is a
/// 1000 pps innocent aggregate.
const PROBE_INTERVAL: Duration = Duration::from_millis(2);

/// Probes sent per innocent host. The last probe leaves at
/// 100 ms + 1899 * 2 ms = 3.898 s, inside the 4 s run.
const PROBE_COUNT: u64 = 1_900;

/// Rogue flood inter-frame gap: 100 us = 10_000 pps, 10x the innocent
/// aggregate punt-capable rate.
const FLOOD_INTERVAL: Duration = Duration::from_micros(100);

/// Attack window: [1 s, 3 s) of fabric time.
const ATTACK_START: Instant = Instant::from_millis(1_000);
const ATTACK_STOP: Instant = Instant::from_millis(3_000);

/// Fabric time simulated per run.
const RUN: Instant = Instant::from_millis(4_000);

/// Rogue MAC — fixed (not rotating), so controller push-back can pin it.
const ROGUE_MAC: EthernetAddress = EthernetAddress([0x66, 0x66, 0x66, 0x00, 0x00, 0x01]);

/// Everything deterministic a defended run produces; two runs from the
/// same seed must agree exactly.
#[derive(Debug, PartialEq, Eq)]
struct ReplayDigest {
    /// Per-switch (packet_ins, flow_mods, packet_outs, punts_metered).
    agents: Vec<(u64, u64, u64, u64)>,
    /// Controller counters that matter to the defense path.
    ctl: [u64; 10],
    /// Per-innocent-host (udp_tx, udp_rx, latency samples).
    hosts: Vec<(u64, u64, u64)>,
    /// (flows_installed, floods, flap_events, flaps_damped).
    l2: (u64, u64, u64, u64),
    rogue: HostileStats,
}

struct Outcome {
    digest: ReplayDigest,
    /// Probes lost per innocent host (tx minus rx at its peer).
    lost: Vec<u64>,
    pushbacks: u64,
    punts_metered: u64,
    punts_deferred: u64,
    msgs_received: u64,
    mods_failed: u64,
    decode_errors: u64,
}

/// Build the two-switch fabric, attach the rogue to switch 0, run to
/// `RUN`, and collect every observable.
fn run_flood(defended: bool) -> Outcome {
    let mut world = World::new(SOAK_SEED);

    // Narrow access links: a flood amplified by L2 PACKET_OUT flooding
    // saturates these, which is exactly the starvation under test.
    let host_link = LinkParams {
        latency: Duration::from_micros(10),
        bandwidth_bps: 10_000_000,
        queue_bytes: 32 * 1024,
    };
    // The rogue gets a fat pipe: its own access link must not be the
    // thing that rate-limits the attack.
    let rogue_link = LinkParams {
        latency: Duration::from_micros(10),
        bandwidth_bps: 100_000_000,
        queue_bytes: 64 * 1024,
    };

    let topo = Topology::line(2, LinkParams::default())
        .with_hosts_at(0, 1)
        .with_hosts_at(1, 1);

    let mut opts = FabricOptions {
        host_link,
        ..FabricOptions::default()
    };
    if defended {
        // Burst sized well under the pre-push-back punt volume so the
        // meter demonstrably engages before the drop rule lands.
        opts.agent_cfg.punt_meter = Some(PuntMeterConfig {
            rate_pps: 2_000,
            burst: 64,
        });
        opts.controller_cfg.admission = Some(AdmissionConfig {
            rate_pps: 500,
            burst: 128,
            queue_cap: 256,
            pushback_threshold: 100,
            pushback_window: Duration::from_millis(500),
            pushback_hold: Duration::from_millis(2_000),
            ..AdmissionConfig::default()
        });
    }

    let peer_ip = |i: usize| zen_core::harness::default_host_ip(1 - i);
    let peer_mac = |i: usize| zen_core::harness::default_host_mac(1 - i);
    let fabric: Fabric = build_fabric_with_hosts(
        &mut world,
        &topo,
        vec![Box::new(L2Learning::new())],
        opts,
        |i, mac, ip| {
            Host::new(mac, ip)
                .with_gratuitous_arp()
                .with_static_arp(peer_ip(i), peer_mac(i))
                .with_workload(Workload::Udp {
                    dst: peer_ip(i),
                    dst_port: 9,
                    // Same frame size as the flood: byte-granular
                    // drop-tail would otherwise favor small probes and
                    // mask the starvation.
                    size: 600,
                    count: PROBE_COUNT,
                    interval: PROBE_INTERVAL,
                    start: Instant::from_millis(100),
                })
        },
    );

    let mut rogue_cfg = HostileConfig::new(ROGUE_MAC, Ipv4Address::new(10, 0, 9, 9));
    rogue_cfg.attack = Attack::PacketInFlood {
        interval: FLOOD_INTERVAL,
        rotate_src: false,
        payload_len: 600,
    };
    rogue_cfg.attack_start = ATTACK_START;
    rogue_cfg.attack_stop = Some(ATTACK_STOP);
    let rogue = world.add_node(Box::new(HostileHost::new(rogue_cfg)));
    world.connect(rogue, fabric.switches[0], rogue_link);

    world.run_until(RUN);

    let mut agents = Vec::new();
    for &sw in &fabric.switches {
        let s = world.node_as::<SwitchAgent>(sw).stats;
        agents.push((s.packet_ins, s.flow_mods, s.packet_outs, s.punts_metered));
    }
    let ctl = world.node_as::<Controller>(fabric.controller);
    let cs = ctl.stats;
    let l2 = ctl.find_app::<L2Learning>().expect("L2 app is installed");
    let l2_digest = (
        l2.flows_installed,
        l2.floods,
        l2.flap_events,
        l2.flaps_damped,
    );
    let rogue_stats = world.node_as::<HostileHost>(rogue).stats;

    let mut hosts = Vec::new();
    let mut lost = Vec::new();
    for i in 0..fabric.hosts.len() {
        let h = world.node_as::<Host>(fabric.hosts[i]);
        hosts.push((
            h.stats.udp_tx,
            h.stats.udp_rx,
            h.stats.udp_latency.count() as u64,
        ));
        // Host i's loss is measured at its peer (1 - i).
        let peer = world.node_as::<Host>(fabric.hosts[1 - i]);
        let delivered = peer
            .stats
            .udp_rx_per_src
            .get(&fabric.host_ips[i])
            .copied()
            .unwrap_or(0);
        let h = world.node_as::<Host>(fabric.hosts[i]);
        lost.push(h.stats.udp_tx - delivered.min(h.stats.udp_tx));
    }

    Outcome {
        digest: ReplayDigest {
            agents,
            ctl: [
                cs.packet_ins,
                cs.flow_mods,
                cs.packet_outs,
                cs.punts_admitted,
                cs.punts_deferred,
                cs.punts_drained,
                cs.punts_shed,
                cs.pushbacks_installed,
                cs.mods_acked,
                cs.mods_failed,
            ],
            hosts,
            l2: l2_digest,
            rogue: rogue_stats,
        },
        lost,
        pushbacks: cs.pushbacks_installed,
        punts_metered: world
            .node_as::<SwitchAgent>(fabric.switches[0])
            .stats
            .punts_metered,
        punts_deferred: cs.punts_deferred,
        msgs_received: cs.msgs_received,
        mods_failed: cs.mods_failed,
        decode_errors: cs.decode_errors,
    }
}

#[test]
#[ignore = "multi-second fabric soak; CI runs it in release explicitly"]
fn packet_in_flood_soak_bounded_blackhole_and_replay() {
    let defended = run_flood(true);
    println!(
        "soak defense {:016x}",
        zen_consensus::fnv1a(format!("{:?}", defended.digest).as_bytes())
    );

    // Every innocent probe was sent.
    for &(tx, _, _) in &defended.digest.hosts {
        assert_eq!(tx, PROBE_COUNT, "innocent workload did not complete");
    }
    // The rogue actually flooded for the whole window.
    assert!(
        defended.digest.rogue.attack_frames >= 19_000,
        "rogue under-delivered: {} attack frames",
        defended.digest.rogue.attack_frames
    );

    // (a) Bounded black-hole: each lost probe represents PROBE_INTERVAL
    // of outage for that host pair. 250 probes = 0.5 s across a 2 s
    // attack — the budget covers the pre-push-back melt plus margin.
    for (i, &lost) in defended.lost.iter().enumerate() {
        assert!(
            lost <= 250,
            "innocent host {i} black-holed: {lost} probes lost (~{} ms) under defenses",
            lost * PROBE_INTERVAL.as_nanos() / 1_000_000,
        );
    }

    // The defense layers all actually engaged.
    assert!(
        defended.punts_metered >= 100,
        "agent punt meter never engaged ({} shed)",
        defended.punts_metered
    );
    assert!(
        defended.punts_deferred >= 100,
        "controller admission never deferred ({})",
        defended.punts_deferred
    );
    assert!(
        defended.pushbacks >= 1,
        "no push-back rule pinned the rogue"
    );

    // (b) Zero lost acks: every accepted mod was barrier-acked despite
    // the storm, and the channel stayed clean.
    assert_eq!(defended.mods_failed, 0, "mods lost under attack");
    assert_eq!(defended.decode_errors, 0, "decode errors under attack");

    // Contrast run: defenses off, same seed. The attack must actually
    // bite — innocents starve and the controller eats the whole flood —
    // otherwise the assertions above are vacuous.
    let undefended = run_flood(false);
    assert_eq!(undefended.pushbacks, 0);
    assert_eq!(undefended.punts_metered, 0);
    let worst_defended = defended.lost.iter().copied().max().unwrap_or(0);
    let worst_undefended = undefended.lost.iter().copied().max().unwrap_or(0);
    assert!(
        worst_undefended >= 300,
        "undefended run did not starve innocents (worst loss {worst_undefended})"
    );
    assert!(
        worst_undefended >= 2 * worst_defended.max(1),
        "defenses did not materially help: undefended {worst_undefended} vs defended {worst_defended}"
    );
    assert!(
        undefended.msgs_received > 2 * defended.msgs_received,
        "admission + metering did not bound controller load: {} vs {}",
        undefended.msgs_received,
        defended.msgs_received
    );

    // (c) Byte-identical replay of the defended scenario.
    let replay = run_flood(true);
    assert_eq!(
        defended.digest, replay.digest,
        "defended soak diverged on replay (seed {SOAK_SEED:#x})"
    );
}

/// A MAC-flapping rogue claims an innocent host's source MAC from the
/// wrong port while the victim's own punted traffic keeps re-claiming
/// it. The L2 flap damper must trip, freeze the entry, and the
/// victim's established data-plane flow must keep delivering.
#[test]
fn mac_flap_damper_trips_and_traffic_survives() {
    let mut world = World::new(SOAK_SEED ^ 1);

    let topo = Topology::line(2, LinkParams::default())
        .with_hosts_at(0, 1)
        .with_hosts_at(1, 1);
    let victim_mac = zen_core::harness::default_host_mac(0);
    let phantom = Ipv4Address::new(10, 0, 3, 3);
    let fabric = build_fabric_with_hosts(
        &mut world,
        &topo,
        vec![Box::new(L2Learning::new())],
        FabricOptions::default(),
        |i, mac, ip| {
            let host = Host::new(mac, ip).with_gratuitous_arp();
            if i == 0 {
                // The victim keeps punting (unknown unicast destination),
                // so its source learns keep competing with the flapper.
                host.with_static_arp(phantom, EthernetAddress([0x6E, 0, 0, 0, 0, 0x7F]))
                    .with_workload(Workload::Udp {
                        dst: phantom,
                        dst_port: 9,
                        size: 40,
                        count: 380,
                        interval: Duration::from_millis(5),
                        start: Instant::from_millis(100),
                    })
            } else {
                // The measured innocent flow: host 1 -> victim.
                host.with_static_arp(zen_core::harness::default_host_ip(0), victim_mac)
                    .with_workload(Workload::Udp {
                        dst: zen_core::harness::default_host_ip(0),
                        dst_port: 9,
                        size: 64,
                        count: 360,
                        interval: Duration::from_millis(5),
                        start: Instant::from_millis(100),
                    })
            }
        },
    );

    let mut rogue_cfg = HostileConfig::new(
        EthernetAddress([0x66, 0, 0, 0, 0, 2]),
        Ipv4Address::new(10, 0, 9, 8),
    );
    rogue_cfg.attack = Attack::MacFlap {
        victim_mac,
        interval: Duration::from_millis(5),
    };
    rogue_cfg.attack_start = Instant::from_millis(500);
    let rogue = world.add_node(Box::new(HostileHost::new(rogue_cfg)));
    world.connect(rogue, fabric.switches[0], LinkParams::default());

    world.run_until(Instant::from_millis(2_000));

    let ctl = world.node_as::<Controller>(fabric.controller);
    let l2 = ctl.find_app::<L2Learning>().expect("L2 app is installed");
    assert!(l2.flap_events >= 1, "damper never tripped");
    assert!(
        l2.flaps_damped >= 50,
        "damper barely engaged: {} damped learns",
        l2.flaps_damped
    );
    assert!(
        l2.is_damped(0, victim_mac),
        "victim's entry is not frozen at run end"
    );
    assert_eq!(ctl.stats.mods_failed, 0, "mods lost during flapping");

    // The established host-1 -> victim flow kept the data plane
    // delivering regardless of the control-plane tug-of-war.
    let victim = world.node_as::<Host>(fabric.hosts[0]);
    let delivered = victim
        .stats
        .udp_rx_per_src
        .get(&fabric.host_ips[1])
        .copied()
        .unwrap_or(0);
    assert!(
        delivered >= 340,
        "victim lost traffic while damped: {delivered}/360 delivered"
    );
}

/// An ARP broadcast storm with spoofed sources: the agent punt meter
/// plus controller admission must bound what reaches the controller;
/// undefended, the controller eats the entire storm.
#[test]
fn arp_storm_bounded_by_punt_meter_and_admission() {
    let run = |defended: bool| -> (u64, u64, u64) {
        let mut world = World::new(SOAK_SEED ^ 2);
        let topo = Topology::line(2, LinkParams::default())
            .with_hosts_at(0, 1)
            .with_hosts_at(1, 1);
        let mut opts = FabricOptions::default();
        if defended {
            opts.agent_cfg.punt_meter = Some(PuntMeterConfig {
                rate_pps: 100,
                burst: 32,
            });
            opts.controller_cfg.admission = Some(AdmissionConfig {
                rate_pps: 100,
                burst: 32,
                // Spoofed sources rotate per frame, so push-back cannot
                // pin one MAC; the meters are the defense here.
                pushback_threshold: 0,
                ..AdmissionConfig::default()
            });
        }
        let fabric = build_fabric_with_hosts(
            &mut world,
            &topo,
            vec![Box::new(L2Learning::new())],
            opts,
            |_i, mac, ip| Host::new(mac, ip).with_gratuitous_arp(),
        );
        let mut rogue_cfg = HostileConfig::new(
            EthernetAddress([0x66, 0, 0, 0, 0, 3]),
            Ipv4Address::new(10, 0, 9, 7),
        );
        rogue_cfg.attack = Attack::ArpStorm {
            interval: Duration::from_millis(1),
            spoof_sources: true,
        };
        rogue_cfg.attack_start = Instant::from_millis(200);
        rogue_cfg.attack_stop = Some(Instant::from_millis(1_200));
        let rogue = world.add_node(Box::new(HostileHost::new(rogue_cfg)));
        world.connect(rogue, fabric.switches[0], LinkParams::default());
        world.run_until(Instant::from_millis(1_500));

        let agent0 = world.node_as::<SwitchAgent>(fabric.switches[0]).stats;
        let cs = world.node_as::<Controller>(fabric.controller).stats;
        assert_eq!(cs.decode_errors, 0);
        assert_eq!(cs.mods_failed, 0);
        (cs.packet_ins, agent0.punts_metered, cs.punts_shed)
    };

    let (def_ins, def_metered, _) = run(true);
    let (undef_ins, undef_metered, undef_shed) = run(false);
    assert_eq!(undef_metered, 0);
    assert_eq!(undef_shed, 0);
    assert!(
        undef_ins >= 900,
        "storm never reached the controller undefended ({undef_ins} punts)"
    );
    assert!(
        def_metered >= 500,
        "agent meter shed too little of the storm ({def_metered})"
    );
    assert!(
        def_ins * 3 < undef_ins,
        "defenses did not bound controller punts: {def_ins} defended vs {undef_ins} undefended"
    );
}
