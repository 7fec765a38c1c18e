//! Saturation smoke gate: a short fixed-seed cbench run against the
//! controller must sustain a conservative flow-setup rate and replay
//! byte-identically.
//!
//! This is the CI tripwire in front of the full E17 saturation sweep
//! (`cargo bench -p zen-bench --bench expt_saturation`): four emulated
//! switches blast closed-loop PACKET_INs for 200 ms of fabric time,
//! twice from the same seed. The runs must agree on every
//! deterministic observable — punt counts, setups, simulated
//! latencies, decode errors — and the wall-clock setup rate must clear
//! a floor between what the controller sustains on a busy runner and
//! what it sustained before the view was indexed, so a per-punt cost
//! that grows with the network again (a whole-map scan, a copy storm)
//! trips it while scheduler noise does not.
//!
//! Ignored by default (the floor is meaningless in debug builds); CI
//! runs it explicitly:
//!
//! ```text
//! cargo test --release -p zen-core --test saturation -- --ignored
//! ```

use zen_core::apps::L2Learning;
use zen_core::{CbenchConfig, CbenchMode, CbenchSwitch, Controller};
use zen_sim::{Instant, NodeId, World};

/// The fixed seed. The simulated side of the run is a pure function
/// of it; any digest mismatch reproduces exactly by rerunning.
const SMOKE_SEED: u64 = 0xE17_5304;

/// Emulated switches blasting the controller.
const SWITCHES: usize = 4;

/// Punts kept in flight per switch.
const OUTSTANDING: usize = 8;

/// Fabric time simulated per run.
const RUN_MS: u64 = 200;

/// Wall-clock setups/sec the release build must sustain. On the 2-core
/// reference box this configuration runs at 0.92–1.01 M/s on PR 12's
/// tree (parent commit 25e319d) and at 0.49–0.57 M/s when a neighbour
/// on the shared host is busy; the parent commit, whose controller
/// scanned every known host per punt, ran it at 0.32–0.38 M/s. The
/// floor is the quiet rate derated 2x and then lowered to sit between
/// those last two ranges, so a busy runner passes and the scan coming
/// back does not — the old 20 k/s floor would have let that whole gain
/// regress unseen.
const SETUPS_PER_SEC_FLOOR: f64 = 400_000.0;

/// Everything deterministic a run produces, compared across replays.
#[derive(Debug, PartialEq, Eq)]
struct ReplayDigest {
    punts_sent: Vec<u64>,
    flow_mods: Vec<u64>,
    packet_outs: Vec<u64>,
    barriers: Vec<u64>,
    decode_errors: Vec<u64>,
    /// Per-switch simulated punt-to-FLOW_MOD latencies, every sample.
    sim_setup_ns: Vec<Vec<u64>>,
}

struct RunOutcome {
    digest: ReplayDigest,
    total_setups: u64,
    total_punts: u64,
    wall_secs: f64,
}

fn run_once() -> RunOutcome {
    let mut world = World::new(SMOKE_SEED);
    let controller = world.add_node(Box::new(Controller::new(vec![Box::new(L2Learning::new())])));
    let cfg = CbenchConfig {
        mode: CbenchMode::Closed {
            outstanding: OUTSTANDING,
        },
        sources: 64,
        payload_len: 64,
        ..CbenchConfig::default()
    };
    let switches: Vec<NodeId> = (0..SWITCHES)
        .map(|dpid| world.add_node(Box::new(CbenchSwitch::new(dpid as u64, controller, cfg))))
        .collect();

    let started = std::time::Instant::now();
    world.run_until(Instant::from_millis(RUN_MS));
    let wall_secs = started.elapsed().as_secs_f64();

    let mut digest = ReplayDigest {
        punts_sent: Vec::new(),
        flow_mods: Vec::new(),
        packet_outs: Vec::new(),
        barriers: Vec::new(),
        decode_errors: Vec::new(),
        sim_setup_ns: Vec::new(),
    };
    for &id in &switches {
        let sw = world.node_as::<CbenchSwitch>(id);
        digest.punts_sent.push(sw.stats.punts_sent);
        digest.flow_mods.push(sw.stats.flow_mods);
        digest.packet_outs.push(sw.stats.packet_outs);
        digest.barriers.push(sw.stats.barriers);
        digest.decode_errors.push(sw.stats.decode_errors);
        digest.sim_setup_ns.push(sw.sim_setup_ns.clone());
    }
    RunOutcome {
        total_setups: digest.flow_mods.iter().sum(),
        total_punts: digest.punts_sent.iter().sum(),
        digest,
        wall_secs,
    }
}

#[test]
#[ignore = "wall-clock floor; CI runs it in release explicitly"]
fn saturation_smoke_floor_and_replay() {
    let first = run_once();
    println!(
        "soak saturation {:016x}",
        zen_consensus::fnv1a(format!("{:?}", first.digest).as_bytes())
    );

    // The channel is healthy: every punt decoded, and the closed loop
    // kept the pipeline full (punts lead setups by at most the
    // in-flight window).
    assert_eq!(
        first.digest.decode_errors,
        vec![0; SWITCHES],
        "decode errors on a clean channel"
    );
    assert!(
        first.total_setups > 1_000,
        "closed loop stalled: only {} setups in {RUN_MS} ms of fabric time",
        first.total_setups
    );
    let in_flight_cap = (SWITCHES * OUTSTANDING) as u64;
    assert!(
        first.total_punts - first.total_setups <= in_flight_cap,
        "punts ({}) lead setups ({}) by more than the in-flight window",
        first.total_punts,
        first.total_setups
    );

    // The wall-clock floor (see module docs).
    let rate = first.total_setups as f64 / first.wall_secs;
    eprintln!("saturation smoke: {rate:.0} setups/s (floor {SETUPS_PER_SEC_FLOOR:.0})");
    assert!(
        rate >= SETUPS_PER_SEC_FLOOR,
        "setup rate regressed: {:.0}/s < floor {:.0}/s ({} setups in {:.1} ms, seed {SMOKE_SEED:#x})",
        rate,
        SETUPS_PER_SEC_FLOOR,
        first.total_setups,
        first.wall_secs * 1e3,
    );

    // Byte-identical replay: the same seed must reproduce every
    // deterministic observable exactly.
    let second = run_once();
    assert_eq!(
        first.digest, second.digest,
        "replay diverged (seed {SMOKE_SEED:#x})"
    );
}
