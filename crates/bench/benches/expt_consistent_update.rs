//! E19 — consistent updates: epoch-versioned two-phase fabric rewrite
//! vs naive burst.
//!
//! The Reitblatt per-packet-consistency question: a fat-tree fabric is
//! rewritten while 16 hosts stream cross-pod UDP at 200 pps each. The
//! rewrite is triggered by an agg–core link returning to service just
//! as an idle host is re-homed — an event whose old and new programs
//! *both* carry all the traffic, so any disruption is pure update
//! mechanics. (The link alone no longer makes a rewrite: an in-place
//! reconcile re-points a few groups, each replaced atomically, and
//! loses nothing. The re-home moves the idle host's rule on every
//! switch, so the flow half is reloaded everywhere.) Two
//! configurations:
//!
//! * **naive burst** (`Relaxed`) — every switch gets delete-then-
//!   reinstall mods in one burst; 8 ms control jitter makes them apply
//!   at unpredictable relative times, so packets cross mixed old/new
//!   state: up–down loops between aggregation and core (caught by
//!   `DecTtl`) and table-miss black holes inside each switch's
//!   delete/reinstall gap.
//! * **two-phase** (`PerPacket`) — the update planner stages epoch-
//!   tagged internal rules everywhere, flips the edge stamp only after
//!   every staging ack, and retires the old epoch after a drain wave.
//!   Every packet sees one coherent configuration: zero loops, zero
//!   losses.
//!
//! Loops are counted from the flight recorder: a data packet whose
//! trace matches at the same datapath twice has revisited a switch.
//! The regression gate is the two-phase rewrite's staging→commit time
//! in *simulated* milliseconds: deterministic for the fixed seed, so
//! the run asserts it exactly ([`COMMIT_MS`]).
//! Output goes to `target/BENCH_E19.json`.

use std::collections::BTreeMap;

use zen_core::apps::proactive::{StaticHost, FABRIC_MAC};
use zen_core::apps::ProactiveFabric;
use zen_core::harness::default_host_ip;
use zen_core::{announcer, build_fabric, Controller, FabricOptions};
use zen_sim::{Duration, Host, Instant, LinkParams, Topology, Workload, World};
use zen_telemetry::json::Line;
use zen_telemetry::TraceEvent;

/// Fixed seed: every run is a pure function of it.
const SEED: u64 = 0xE19_0001;

/// Per-host stream rate (200 pps x 16 hosts).
const PROBE_INTERVAL: Duration = Duration::from_millis(5);
/// Control-channel jitter: the window over which a naive burst's mods
/// land out of order across switches.
const JITTER: Duration = Duration::from_millis(8);

struct Outcome {
    two_phase: bool,
    sent: u64,
    delivered: u64,
    /// Packets that revisited a datapath during the rewrite window.
    loop_packets: u64,
    /// Total extra datapath visits across looping packets.
    loop_hops: u64,
    /// Data packets punted to the controller (table-miss black holes).
    data_punts: u64,
    rules_pushed: u64,
    /// Times the whole fabric's flow half was (re)written: epochs
    /// installed, or full in-place loads per switch.
    rewrites: u64,
    flow_mods: u64,
    group_mods: u64,
    txns_committed: u64,
    txns_aborted: u64,
    config_epoch: u64,
    /// Staging→commit of the rewrite epoch, simulated ms (two-phase
    /// only; 0.0 for naive).
    commit_ms: f64,
}

impl Outcome {
    fn lost(&self) -> u64 {
        self.sent - self.delivered.min(self.sent)
    }

    fn json(&self, out: &mut String) {
        Line::new("bench")
            .str("id", "E19")
            .str("mode", if self.two_phase { "two_phase" } else { "naive" })
            .u64("sent", self.sent)
            .u64("delivered", self.delivered)
            .u64("lost", self.lost())
            .u64("loop_packets", self.loop_packets)
            .u64("loop_hops", self.loop_hops)
            .u64("data_punts", self.data_punts)
            .u64("rules_pushed", self.rules_pushed)
            .u64("rewrites", self.rewrites)
            .u64("flow_mods", self.flow_mods)
            .u64("group_mods", self.group_mods)
            .u64("txns_committed", self.txns_committed)
            .u64("txns_aborted", self.txns_aborted)
            .u64("config_epoch", self.config_epoch)
            .f64("commit_ms", self.commit_ms)
            .finish(out);
    }
}

/// One run: fat-tree under cross-pod load, one agg–core link cut before
/// traffic starts and restored mid-stream, triggering the rewrite under
/// test. The flight recorder is enabled only around the rewrite.
fn run(two_phase: bool) -> Outcome {
    let topo = Topology::fat_tree(4, LinkParams::default());
    let n_hosts = topo.host_count();
    let count: u64 = 600;
    let restore_ms: u64 = 2_500;
    let end = Instant::from_millis(1_000 + 5 * count + 1_000);

    let mut inventory = {
        let mut scratch = World::new(SEED);
        build_fabric(
            &mut scratch,
            &topo,
            |_| vec![],
            FabricOptions::default(),
            announcer,
        )
        .static_hosts()
    };
    // An inventory entry nobody sends to, moved from the first host's
    // switch to the last one's as the link returns.
    let (first, last) = (inventory[0], inventory[n_hosts - 1]);
    let idle = StaticHost {
        ip: zen_wire::Ipv4Address::new(10, 9, 9, 9),
        mac: zen_wire::EthernetAddress::from_id(0x99),
        port: 63,
        ..first
    };
    inventory.push(idle);
    let restored = Instant::from_millis(restore_ms);
    let mut app = ProactiveFabric::new(inventory, topo.switches, 2 * topo.links.len())
        .with_rehome(restored, idle.ip, last.dpid, idle.port);
    // TTL so mixed-state forwarding loops terminate (and are countable
    // as losses) instead of circulating until the straggler mod lands.
    app.dec_ttl = true;
    if two_phase {
        app = app.per_packet();
    }

    let mut world = World::new(SEED);
    let mut app = Some(app);
    let fabric = build_fabric(
        &mut world,
        &topo,
        |_| vec![Box::new(app.take().expect("one replica"))],
        FabricOptions::default(),
        |i, mac, ip| {
            // Cross-pod pairs: +8 of 16 is always two pods away.
            let dst = default_host_ip((i + n_hosts / 2) % n_hosts);
            Host::new(mac, ip)
                .with_static_arp(dst, FABRIC_MAC)
                .with_workload(Workload::Udp {
                    dst,
                    dst_port: 9,
                    size: 200,
                    count,
                    interval: PROBE_INTERVAL,
                    start: Instant::from_secs(1),
                })
        },
    );
    // Pod 0's agg0–core0 link: out of service before traffic starts,
    // back mid-stream. The restore is the measured rewrite — both the
    // pre- and post-restore programs deliver everything, so any loss or
    // loop is update mechanics, not topology.
    let flap = fabric.switch_links[4];
    world.schedule_link_state(flap, false, Instant::from_millis(500));
    world.schedule_link_state(flap, true, restored);

    // Control jitter only brackets the rewrite: the initial program and
    // the pre-traffic cut apply in order, so both modes enter the
    // measurement with a correct fabric, and the jittered window is
    // exactly the burst under test. The flight recorder covers the same
    // window plus the settling tail.
    world.run_until(Instant::from_millis(restore_ms - 100));
    world.recorder().set_enabled(true);
    world.run_until(Instant::from_millis(restore_ms - 50));
    world.set_control_jitter(JITTER);
    world.run_until(Instant::from_millis(restore_ms + 150));
    world.set_control_jitter(Duration::ZERO);
    world.run_until(Instant::from_millis(restore_ms + 600));
    world.recorder().set_enabled(false);
    world.run_until(end);

    // Loop detection: any trace matching twice at one datapath
    // revisited it. (Valid fat-tree paths never revisit a switch.)
    let mut visits: BTreeMap<u64, BTreeMap<u64, u64>> = BTreeMap::new();
    let mut phases: Vec<(u64, u64, &'static str)> = Vec::new();
    for r in world.recorder().records() {
        match r.event {
            TraceEvent::DpMatch { dpid, .. } => {
                *visits
                    .entry(r.trace.0)
                    .or_default()
                    .entry(dpid)
                    .or_default() += 1;
            }
            TraceEvent::EpochPhase { epoch, phase } => {
                phases.push((r.at_nanos, epoch, phase));
            }
            _ => {}
        }
    }
    let mut loop_packets = 0;
    let mut loop_hops = 0;
    for dpids in visits.values() {
        let extra: u64 = dpids.values().map(|&c| c.saturating_sub(1)).sum();
        if extra > 0 {
            loop_packets += 1;
            loop_hops += extra;
        }
    }
    // Staging→commit of the last epoch that fully committed in-window.
    let mut commit_ms = 0.0;
    for &(done, epoch, phase) in phases.iter().rev() {
        if phase != "committed" {
            continue;
        }
        if let Some(&(start, _, _)) = phases
            .iter()
            .find(|&&(_, e, p)| e == epoch && p == "staging")
        {
            commit_ms = (done - start) as f64 / 1e6;
            break;
        }
    }

    let sent: u64 = fabric
        .hosts
        .iter()
        .map(|&h| world.node_as::<Host>(h).stats.udp_tx)
        .sum();
    let delivered: u64 = fabric
        .hosts
        .iter()
        .map(|&h| world.node_as::<Host>(h).stats.udp_rx)
        .sum();
    let ctl = world.node_as::<Controller>(fabric.controller);
    let app = ctl
        .app(0)
        .as_any()
        .downcast_ref::<ProactiveFabric>()
        .expect("fabric app");
    Outcome {
        two_phase,
        sent,
        delivered,
        loop_packets,
        loop_hops,
        data_punts: ctl.stats.packet_ins.saturating_sub(n_hosts as u64),
        rules_pushed: app.rules_pushed,
        rewrites: if two_phase {
            app.installs
        } else {
            app.full_loads / topo.switches as u64
        },
        flow_mods: ctl.stats.flow_mods,
        group_mods: ctl.stats.group_mods,
        txns_committed: ctl.stats.txns_committed,
        txns_aborted: ctl.stats.txns_aborted,
        config_epoch: ctl.config_epoch(),
        commit_ms,
    }
}

/// The two-phase rewrite's simulated staging→commit time, in ms. A
/// change that moves it on purpose edits it here.
const COMMIT_MS: f64 = 149.9;

fn main() {
    let mut json = String::new();

    println!("# E19 — consistent updates: two-phase epoch rewrite vs naive burst");
    println!(
        "# fat-tree(4), 16 hosts @ 200 pps cross-pod, agg-core link restored and an idle host re-homed mid-stream"
    );
    println!();
    println!(
        "{:>10} {:>7} {:>9} {:>6} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7} {:>10}",
        "mode",
        "sent",
        "delivered",
        "lost",
        "loops",
        "loop_hops",
        "punts",
        "rules",
        "fmods",
        "epoch",
        "commit_ms"
    );
    let mut outcomes = Vec::new();
    for two_phase in [false, true] {
        let out = run(two_phase);
        println!(
            "{:>10} {:>7} {:>9} {:>6} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7} {:>10.2}",
            if out.two_phase { "two-phase" } else { "naive" },
            out.sent,
            out.delivered,
            out.lost(),
            out.loop_packets,
            out.loop_hops,
            out.data_punts,
            out.rules_pushed,
            out.flow_mods,
            out.config_epoch,
            out.commit_ms,
        );
        out.json(&mut json);
        outcomes.push(out);
    }
    let naive = &outcomes[0];
    let tp = &outcomes[1];

    // The headline: two-phase is hitless and loop-free; the naive burst
    // demonstrably is neither, on the same seed.
    assert_eq!(tp.lost(), 0, "two-phase dropped packets: {}", tp.lost());
    assert_eq!(tp.loop_packets, 0, "two-phase looped packets");
    assert_eq!(tp.txns_aborted, 0, "two-phase txn aborted");
    assert!(tp.txns_committed >= 3, "rewrites never committed");
    assert!(tp.commit_ms > 0.0, "rewrite epoch not observed in-window");
    assert_eq!(tp.commit_ms, COMMIT_MS, "two-phase commit latency moved");
    assert!(
        naive.lost() > 0 || naive.loop_packets > 0,
        "naive burst showed no disruption; the comparison is vacuous"
    );
    // Rule overhead of epoch versioning, per rewrite of the fabric: two
    // rules per destination (internal + edge) instead of one. (Over the
    // whole run the in-place mode pushes far fewer: it rewrites flows
    // only when the inventory moves, an epoch at every view change.)
    let per_rewrite = |o: &Outcome| o.rules_pushed as f64 / o.rewrites.max(1) as f64;
    let rule_overhead = per_rewrite(tp) / per_rewrite(naive);
    assert!(
        rule_overhead <= 2.5,
        "epoch rule overhead blew up: {} rules over {} rewrites vs {} over {}",
        tp.rules_pushed,
        tp.rewrites,
        naive.rules_pushed,
        naive.rewrites
    );
    println!();
    println!(
        "# naive: {} lost, {} loop packets ({} extra hops), {} black-hole punts",
        naive.lost(),
        naive.loop_packets,
        naive.loop_hops,
        naive.data_punts
    );
    println!(
        "# two-phase: {} lost, {} loop packets; rewrite committed in {:.2} ms (sim), {:.2}x rules",
        tp.lost(),
        tp.loop_packets,
        tp.commit_ms,
        rule_overhead,
    );

    Line::new("bench_summary")
        .str("id", "E19")
        .f64("twophase_commit_ms", tp.commit_ms)
        .u64("twophase_lost", tp.lost())
        .u64("twophase_loop_packets", tp.loop_packets)
        .u64("naive_lost", naive.lost())
        .u64("naive_loop_packets", naive.loop_packets)
        .f64("rule_overhead", rule_overhead)
        .finish(&mut json);

    // cargo runs bench binaries with CWD = the package dir; anchor the
    // output at the workspace target dir so CI finds it.
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_E19.json");
    let _ = std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target"));
    std::fs::write(out_path, &json).expect("write BENCH_E19.json");
    println!();
    println!("# wrote {out_path}");
}
