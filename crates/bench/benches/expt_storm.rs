//! E18 — storm survival: hostile workloads vs control-plane self-defense.
//!
//! Two experiments, both runnable calm/under-attack and with the
//! defenses (agent punt meter + controller admission + push-back) on
//! or off:
//!
//! * **Fabric black-hole** — the `zen-sim` hostile engine floods
//!   unknown-destination frames from one rogue edge port at 10x the
//!   innocent aggregate while two innocent hosts exchange probes over
//!   narrow access links. Measures innocent probe loss (each lost
//!   probe is one probe interval of black-hole time), controller
//!   message load, and which defense layers engaged. Fully simulated
//!   and deterministic.
//! * **cbench storm** — four innocent open-loop [`CbenchSwitch`]es
//!   punt at 2k pps each while one rogue switch blasts 80k pps (10x
//!   the innocent aggregate) at the same controller. Measures the
//!   innocents' wall-clock setup latency and throughput: with
//!   admission on, rogue punts over budget are shed before app
//!   dispatch, so innocent p99 stays near calm; off, every rogue punt
//!   takes the full decode-dispatch-install path ahead of innocent
//!   work.
//!
//! Machine-readable output: one JSON line per configuration to
//! `target/BENCH_E18.json`. CI runs this for its assertions (no
//! wall-clock floor); `BENCH_E18_QUICK=1` shrinks the cbench span for
//! its smoke lane.

use zen_core::apps::L2Learning;
use zen_core::harness::{default_host_ip, default_host_mac};
use zen_core::{
    build_fabric_with_hosts, AdmissionConfig, CbenchConfig, CbenchMode, CbenchSwitch, Controller,
    FabricOptions, PuntMeterConfig, SwitchAgent,
};
use zen_sim::{
    Attack, Duration, Histogram, Host, HostileConfig, HostileHost, Instant, LinkParams, NodeId,
    Topology, Workload, World,
};
use zen_telemetry::json::Line;

/// Fixed seed: the simulated side of every run is a pure function of it.
const SEED: u64 = 0xE18_0001;

// ---------------------------------------------------------------------------
// Part A: fabric black-hole scenario (fully simulated, deterministic).
// ---------------------------------------------------------------------------

/// Innocent probe interval per host (1000 pps aggregate over 2 hosts).
const PROBE_INTERVAL: Duration = Duration::from_millis(2);
/// Probes per innocent host; the last leaves at 3.898 s of a 4 s run.
const PROBE_COUNT: u64 = 1_900;
/// Rogue flood gap: 10_000 pps, 10x the innocent aggregate.
const FLOOD_INTERVAL: Duration = Duration::from_micros(100);
const ATTACK_START: Instant = Instant::from_millis(1_000);
const ATTACK_STOP: Instant = Instant::from_millis(3_000);
const FABRIC_RUN: Instant = Instant::from_millis(4_000);

struct FabricOutcome {
    attack: bool,
    defended: bool,
    /// Probes lost per innocent host (tx minus deliveries at its peer).
    lost: Vec<u64>,
    ctl_msgs: u64,
    pushbacks: u64,
    punts_metered: u64,
    punts_shed_ctl: u64,
    floods: u64,
    mods_failed: u64,
}

impl FabricOutcome {
    fn worst_lost(&self) -> u64 {
        self.lost.iter().copied().max().unwrap_or(0)
    }

    /// Worst per-pair black-hole time: lost probes x probe interval.
    fn blackhole_ms(&self) -> f64 {
        self.worst_lost() as f64 * PROBE_INTERVAL.as_nanos() as f64 / 1e6
    }

    fn json(&self, out: &mut String) {
        Line::new("bench")
            .str("id", "E18")
            .str("mode", "fabric")
            .bool("attack", self.attack)
            .bool("defended", self.defended)
            .u64("probes_per_host", PROBE_COUNT)
            .u64("lost_worst", self.worst_lost())
            .f64("blackhole_ms", self.blackhole_ms())
            .u64("ctl_msgs", self.ctl_msgs)
            .u64("pushbacks", self.pushbacks)
            .u64("punts_metered", self.punts_metered)
            .u64("punts_shed_ctl", self.punts_shed_ctl)
            .u64("floods", self.floods)
            .finish(out);
    }
}

/// The defense soak fabric (mirrors `crates/core/tests/defense.rs`):
/// two switches, two innocent hosts on narrow links, one rogue on a
/// fat link flooding unknown destinations.
fn run_fabric(attack: bool, defended: bool) -> FabricOutcome {
    let mut world = World::new(SEED);
    let host_link = LinkParams {
        latency: Duration::from_micros(10),
        bandwidth_bps: 10_000_000,
        queue_bytes: 32 * 1024,
    };
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
    let fabric = build_fabric_with_hosts(
        &mut world,
        &topo,
        vec![Box::new(L2Learning::new())],
        opts,
        |i, mac, ip| {
            Host::new(mac, ip)
                .with_gratuitous_arp()
                .with_static_arp(default_host_ip(1 - i), default_host_mac(1 - i))
                .with_workload(Workload::Udp {
                    dst: default_host_ip(1 - i),
                    dst_port: 9,
                    // Flood-sized probes: byte-granular drop-tail would
                    // otherwise favor small frames and mask starvation.
                    size: 600,
                    count: PROBE_COUNT,
                    interval: PROBE_INTERVAL,
                    start: Instant::from_millis(100),
                })
        },
    );
    let mut rogue_cfg = HostileConfig::new(
        zen_wire::EthernetAddress([0x66, 0x66, 0x66, 0, 0, 1]),
        zen_wire::Ipv4Address::new(10, 0, 9, 9),
    );
    if attack {
        rogue_cfg.attack = Attack::PacketInFlood {
            interval: FLOOD_INTERVAL,
            rotate_src: false,
            payload_len: 600,
        };
        rogue_cfg.attack_start = ATTACK_START;
        rogue_cfg.attack_stop = Some(ATTACK_STOP);
    }
    let rogue = world.add_node(Box::new(HostileHost::new(rogue_cfg)));
    world.connect(rogue, fabric.switches[0], rogue_link);

    world.run_until(FABRIC_RUN);

    let cs = world.node_as::<Controller>(fabric.controller).stats;
    let floods = world
        .node_as::<Controller>(fabric.controller)
        .find_app::<L2Learning>()
        .expect("L2 app installed")
        .floods;
    let mut lost = Vec::new();
    for i in 0..fabric.hosts.len() {
        let tx = world.node_as::<Host>(fabric.hosts[i]).stats.udp_tx;
        let delivered = world
            .node_as::<Host>(fabric.hosts[1 - i])
            .stats
            .udp_rx_per_src
            .get(&fabric.host_ips[i])
            .copied()
            .unwrap_or(0);
        lost.push(tx - delivered.min(tx));
    }
    FabricOutcome {
        attack,
        defended,
        lost,
        ctl_msgs: cs.msgs_received,
        pushbacks: cs.pushbacks_installed,
        punts_metered: world
            .node_as::<SwitchAgent>(fabric.switches[0])
            .stats
            .punts_metered,
        punts_shed_ctl: cs.punts_shed,
        floods,
        mods_failed: cs.mods_failed,
    }
}

// ---------------------------------------------------------------------------
// Part B: cbench storm (wall-clock controller throughput under flood).
// ---------------------------------------------------------------------------

/// Innocent open-loop switches and their punt gap (2k pps each).
const INNOCENT_SWITCHES: usize = 4;
const INNOCENT_INTERVAL: Duration = Duration::from_micros(500);
/// Rogue punt gap: 80k pps — 10x the innocent aggregate.
const ROGUE_INTERVAL: Duration = Duration::from_nanos(12_500);

struct StormOutcome {
    attack: bool,
    defended: bool,
    innocent_setups: u64,
    innocent_lost: u64,
    rogue_punts: u64,
    ctl_msgs: u64,
    punts_shed_ctl: u64,
    wall_secs: f64,
    p50_us: f64,
    p99_us: f64,
    decode_errors: u64,
}

impl StormOutcome {
    fn innocent_setups_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.innocent_setups as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    fn json(&self, out: &mut String) {
        Line::new("bench")
            .str("id", "E18")
            .str("mode", "cbench_storm")
            .bool("attack", self.attack)
            .bool("defended", self.defended)
            .u64("innocent_switches", INNOCENT_SWITCHES as u64)
            .u64("innocent_setups", self.innocent_setups)
            .u64("innocent_lost", self.innocent_lost)
            .u64("rogue_punts", self.rogue_punts)
            .u64("ctl_msgs", self.ctl_msgs)
            .u64("punts_shed_ctl", self.punts_shed_ctl)
            .f64("wall_ms", self.wall_secs * 1e3)
            .f64("innocent_setups_per_sec", self.innocent_setups_per_sec())
            .f64("p50_us", self.p50_us)
            .f64("p99_us", self.p99_us)
            .u64("decode_errors", self.decode_errors)
            .finish(out);
    }
}

/// Run the storm: innocents punt open-loop for `span` of fabric time;
/// the rogue (when attacking) floods at 10x their aggregate.
fn run_storm(attack: bool, defended: bool, span: Duration) -> StormOutcome {
    let mut world = World::new(SEED ^ 0xB);
    let mut ctl_cfg = zen_core::ControllerConfig::default();
    if defended {
        ctl_cfg.admission = Some(AdmissionConfig {
            rate_pps: 4_000,
            burst: 512,
            queue_cap: 512,
            drain_interval: Duration::from_millis(1),
            drain_batch: 8,
            // Rotating cbench sources make per-MAC push-back moot here;
            // the meters are the defense under test.
            pushback_threshold: 0,
            ..AdmissionConfig::default()
        });
    }
    let controller = world.add_node(Box::new(Controller::with_config(
        vec![Box::new(L2Learning::new())],
        ctl_cfg,
    )));
    let innocent_cfg = CbenchConfig {
        mode: CbenchMode::Open {
            interval: INNOCENT_INTERVAL,
        },
        sources: 64,
        payload_len: 64,
        ..CbenchConfig::default()
    };
    let innocents: Vec<NodeId> = (0..INNOCENT_SWITCHES)
        .map(|dpid| {
            world.add_node(Box::new(CbenchSwitch::new(
                dpid as u64,
                controller,
                innocent_cfg,
            )))
        })
        .collect();
    let rogue = attack.then(|| {
        let cfg = CbenchConfig {
            mode: CbenchMode::Open {
                interval: ROGUE_INTERVAL,
            },
            sources: 64,
            payload_len: 64,
            ..CbenchConfig::default()
        };
        world.add_node(Box::new(CbenchSwitch::new(99, controller, cfg)))
    });

    // Warmup: handshakes and the first punt waves settle.
    world.run_until(Instant::from_millis(5));
    let base_setups: Vec<u64> = innocents
        .iter()
        .map(|&id| world.node_as::<CbenchSwitch>(id).stats.flow_mods)
        .collect();
    let skip: Vec<usize> = innocents
        .iter()
        .map(|&id| world.node_as::<CbenchSwitch>(id).wall_setup_ns.len())
        .collect();

    let start = std::time::Instant::now();
    world.run_for(span);
    let wall_secs = start.elapsed().as_secs_f64();

    let mut wall = Histogram::new();
    let mut innocent_setups = 0;
    let mut innocent_lost = 0;
    let mut decode_errors = 0;
    for (i, &id) in innocents.iter().enumerate() {
        let sw = world.node_as::<CbenchSwitch>(id);
        innocent_setups += sw.stats.flow_mods - base_setups[i];
        innocent_lost += sw.stats.setups_lost;
        decode_errors += sw.stats.decode_errors;
        for &ns in sw.wall_setup_ns.iter().skip(skip[i]) {
            wall.record(ns as f64 / 1e3);
        }
    }
    let rogue_punts = rogue
        .map(|id| world.node_as::<CbenchSwitch>(id).stats.punts_sent)
        .unwrap_or(0);
    let cs = world.node_as::<Controller>(controller).stats;
    StormOutcome {
        attack,
        defended,
        innocent_setups,
        innocent_lost,
        rogue_punts,
        ctl_msgs: cs.msgs_received,
        punts_shed_ctl: cs.punts_shed,
        wall_secs,
        p50_us: wall.quantile(0.50).unwrap_or(0.0),
        p99_us: wall.quantile(0.99).unwrap_or(0.0),
        decode_errors,
    }
}

fn main() {
    let quick = std::env::var("BENCH_E18_QUICK").is_ok_and(|v| v == "1");
    let mut json = String::new();

    println!("# E18 — storm survival (hostile workloads vs control-plane self-defense)");
    println!();
    println!("## fabric black-hole: 10x PACKET_IN flood from one rogue edge port");
    println!(
        "{:>7} {:>9} {:>10} {:>13} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "attack",
        "defended",
        "lost",
        "blackhole_ms",
        "ctl_msgs",
        "pushback",
        "metered",
        "shed",
        "floods"
    );
    let mut fabric = Vec::new();
    for (attack, defended) in [(false, true), (false, false), (true, true), (true, false)] {
        let out = run_fabric(attack, defended);
        println!(
            "{:>7} {:>9} {:>10?} {:>13.0} {:>9} {:>9} {:>9} {:>9} {:>9}",
            out.attack,
            out.defended,
            out.lost,
            out.blackhole_ms(),
            out.ctl_msgs,
            out.pushbacks,
            out.punts_metered,
            out.punts_shed_ctl,
            out.floods,
        );
        assert_eq!(out.mods_failed, 0, "lost acks in fabric run");
        out.json(&mut json);
        fabric.push(out);
    }
    let calm_def = &fabric[0];
    let atk_def = &fabric[2];
    let atk_undef = &fabric[3];
    // Calm fabric delivers essentially everything.
    assert!(calm_def.worst_lost() <= 5, "calm fabric lost probes");
    // Defenses bound the black-hole and engage every layer.
    assert!(
        atk_def.blackhole_ms() <= 500.0,
        "defended black-hole too long: {:.0} ms",
        atk_def.blackhole_ms()
    );
    assert!(atk_def.pushbacks >= 1, "push-back never engaged");
    assert!(atk_def.punts_metered >= 100, "agent meter never engaged");
    // Defenses-off demonstrably starves innocents.
    assert!(
        atk_undef.worst_lost() >= 2 * atk_def.worst_lost().max(1) && atk_undef.worst_lost() >= 300,
        "undefended attack did not starve innocents ({} lost)",
        atk_undef.worst_lost()
    );
    // Controller load stays bounded with defenses on.
    assert!(
        atk_def.ctl_msgs < 3 * calm_def.ctl_msgs,
        "defended controller load unbounded: {} vs calm {}",
        atk_def.ctl_msgs,
        calm_def.ctl_msgs
    );
    assert!(
        atk_undef.ctl_msgs > 10 * calm_def.ctl_msgs,
        "undefended attack did not load the controller"
    );

    println!();
    println!(
        "## cbench storm: {INNOCENT_SWITCHES} innocent switches @ 2k pps, rogue @ 80k pps{}",
        if quick { " [quick]" } else { "" }
    );
    println!(
        "{:>7} {:>9} {:>9} {:>9} {:>11} {:>9} {:>9} {:>11} {:>9} {:>9}",
        "attack",
        "defended",
        "setups",
        "lost",
        "rogue_punt",
        "ctl_msgs",
        "shed",
        "ksetups/s",
        "p50_us",
        "p99_us"
    );
    let span = Duration::from_millis(if quick { 100 } else { 250 });
    let mut storm = Vec::new();
    for (attack, defended) in [(false, true), (false, false), (true, true), (true, false)] {
        let out = run_storm(attack, defended, span);
        println!(
            "{:>7} {:>9} {:>9} {:>9} {:>11} {:>9} {:>9} {:>11.1} {:>9.1} {:>9.1}",
            out.attack,
            out.defended,
            out.innocent_setups,
            out.innocent_lost,
            out.rogue_punts,
            out.ctl_msgs,
            out.punts_shed_ctl,
            out.innocent_setups_per_sec() / 1e3,
            out.p50_us,
            out.p99_us,
        );
        assert_eq!(out.decode_errors, 0, "decode errors in storm run");
        assert_eq!(out.innocent_lost, 0, "innocent setups lost");
        assert!(out.innocent_setups > 0, "no innocent setups");
        out.json(&mut json);
        storm.push(out);
    }
    let calm = &storm[0];
    let atk_def = &storm[2];
    let atk_undef = &storm[3];
    // Admission keeps the controller's processed-message volume bounded
    // under attack (the shed path never reaches app dispatch).
    assert!(
        atk_def.punts_shed_ctl > 0,
        "admission never shed the rogue's flood"
    );
    // The headline claim: with defenses on, a 10x flood degrades
    // innocent setup p99 by less than 2x calm. Wall-clock latency is
    // noisy, so the calm reference takes a small floor to keep slow
    // runners from tripping on microsecond jitter.
    let p99_ref = calm.p99_us.max(20.0);
    assert!(
        atk_def.p99_us < 2.0 * p99_ref,
        "defended innocent p99 degraded >2x: {:.1} us vs calm {:.1} us",
        atk_def.p99_us,
        calm.p99_us
    );
    println!();
    println!(
        "# innocent p99: calm {:.1} us | attack defended {:.1} us | attack undefended {:.1} us",
        calm.p99_us, atk_def.p99_us, atk_undef.p99_us
    );

    Line::new("bench_summary")
        .str("id", "E18")
        .bool("quick", quick)
        .f64(
            "attack_defended_setups_per_sec",
            atk_def.innocent_setups_per_sec(),
        )
        .f64("attack_defended_p99_us", atk_def.p99_us)
        .f64("blackhole_ms_defended", fabric[2].blackhole_ms())
        .f64("blackhole_ms_undefended", fabric[3].blackhole_ms())
        .finish(&mut json);

    // cargo runs bench binaries with CWD = the package dir; anchor the
    // output at the workspace target dir so CI finds it.
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_E18.json");
    let _ = std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target"));
    std::fs::write(out_path, &json).expect("write BENCH_E18.json");
    println!();
    println!("# wrote {out_path}");
}
