//! E17 — controller saturation, open loop: cbench-style PACKET_IN
//! flood at a fixed offered rate.
//!
//! Eight [`zen_core::CbenchSwitch`]es punt on a fixed timer; the offered
//! rate scales until it passes the controller's capacity, showing the
//! saturation knee. (The closed loop — K punts in flight, refilled on
//! every FLOW_MOD — is the ledger's `cbench_closed` workload, and the
//! codec costs are its `proto.codec.*` kernels; no ledger workload
//! drives a fixed offered rate, which is why this sweep is still here.)
//!
//! Simulated latency is deterministic and flat (the sim charges no
//! service time), so no latency percentile is reported: the controller's
//! real CPU cost per setup is the run's wall time over its setups,
//! timed around the run.

use zen_core::apps::L2Learning;
use zen_core::{CbenchConfig, CbenchMode, CbenchSwitch, Controller};
use zen_sim::{Duration, Instant, NodeId, World};

/// Fixed seed: the simulated side of every run is a pure function of it
/// (the value the 8-switch rows have always run under).
const SEED: u64 = 0xE17_0001 ^ 8;

/// Emulated switches punting at the controller.
const SWITCHES: usize = 8;

/// Distinct source MACs per switch.
const SOURCES: usize = 64;

/// One measured configuration, past the warm-up.
struct Outcome {
    punts: u64,
    setups: u64,
    wall_secs: f64,
    decode_errors: u64,
}

/// Sum one counter over the switches.
fn total(world: &World, switches: &[NodeId], f: fn(&CbenchSwitch) -> u64) -> u64 {
    switches
        .iter()
        .map(|&id| f(world.node_as::<CbenchSwitch>(id)))
        .sum()
}

/// A controller plus [`SWITCHES`] cbench switches (no data links: the
/// control channel is the system under test), each punting every
/// `interval` for `sim_span` of simulated time.
fn run_open(interval: Duration, sim_span: Duration) -> Outcome {
    let mut world = World::new(SEED);
    let controller = world.add_node(Box::new(Controller::new(vec![Box::new(L2Learning::new())])));
    let cfg = CbenchConfig {
        mode: CbenchMode::Open { interval },
        sources: SOURCES,
        payload_len: 64,
        ..CbenchConfig::default()
    };
    let switches: Vec<NodeId> = (0..SWITCHES)
        .map(|dpid| world.add_node(Box::new(CbenchSwitch::new(dpid as u64, controller, cfg))))
        .collect();
    // Warm-up: handshake, primer, and the first punt waves settle.
    world.run_until(Instant::from_millis(5));
    let warm_setups = total(&world, &switches, |sw| sw.stats.flow_mods);
    let warm_punts = total(&world, &switches, |sw| sw.stats.punts_sent);
    let start = std::time::Instant::now();
    world.run_for(sim_span);
    let wall_secs = start.elapsed().as_secs_f64();

    Outcome {
        punts: total(&world, &switches, |sw| sw.stats.punts_sent) - warm_punts,
        setups: total(&world, &switches, |sw| sw.stats.flow_mods) - warm_setups,
        wall_secs,
        decode_errors: total(&world, &switches, |sw| sw.stats.decode_errors),
    }
}

fn main() {
    println!("# E17 — controller saturation, open loop (cbench-style PACKET_IN flood)");
    println!("# {SWITCHES} switches, {SOURCES} source MACs, offered rate scaling past capacity");
    println!();
    println!(
        "{:>12} {:>11} {:>9} {:>9} {:>11} {:>9}",
        "interval_us", "offered/s", "punts", "setups", "ksetups/s", "us/setup"
    );
    for us in [1000, 200, 50, 20] {
        let out = run_open(Duration::from_micros(us), Duration::from_millis(250));
        println!(
            "{:>12} {:>11.0} {:>9} {:>9} {:>11.1} {:>9.2}",
            us,
            SWITCHES as f64 * 1e6 / us as f64,
            out.punts,
            out.setups,
            out.setups as f64 / out.wall_secs / 1e3,
            out.wall_secs * 1e6 / out.setups as f64,
        );
        assert_eq!(out.decode_errors, 0, "decode errors at interval {us}us");
        assert!(out.setups > 0, "no setups at interval {us}us");
    }
}
