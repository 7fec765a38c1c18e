//! Shard-determinism soak: the Datapath-backed fat-tree fabric, run on
//! the sharded engine at 1, 2 and 4 shards from the same seed, must
//! produce **byte-identical** results — the full per-event FNV digest,
//! every merged counter, the event total, and every host's delivery
//! count. A mid-run link flap on a core uplink exercises the replicated
//! admin path as well.
//!
//! Ignored by default (it simulates a 180-switch fabric three times
//! over); CI runs it explicitly:
//!
//! ```text
//! cargo test --release -p zen-core --test shard -- --ignored
//! ```

use zen_core::shard_fabric::{build_shard_fat_tree, ShardSwitch, ShardTrafficHost};
use zen_sim::topo::FatTreeIndex;
use zen_sim::{Duration, Instant, LinkParams, ShardedWorld};

/// The fixed seed. The whole scenario is a pure function of it; any
/// failure reproduces exactly by rerunning.
const SOAK_SEED: u64 = 0x5AA4_D001;

/// Fat-tree arity: 180 switches, 648 hosts.
const K: usize = 12;

/// Everything observable the run produced, compared across shard counts.
#[derive(Debug, PartialEq, Eq)]
struct RunDigest {
    digest: u64,
    events: u64,
    counters: Vec<(String, u64)>,
    per_host_rx: Vec<u64>,
    punts: u64,
}

fn run(n_shards: usize) -> RunDigest {
    let mut world = ShardedWorld::new(SOAK_SEED);
    let fabric = build_shard_fat_tree(
        &mut world,
        K,
        LinkParams::new(
            Duration::from_micros(5),
            10_000_000_000, // 10 Gbps: serialization delays in play
            256 * 1024,
        ),
        LinkParams::instant(Duration::from_micros(2)),
        Duration::from_micros(100),
        6,
    );

    // Flap an agg→core uplink mid-run: the admin event is replicated
    // into every shard and must flip identically everywhere.
    let idx = FatTreeIndex::new(K);
    let agg = fabric.switches[idx.agg(0, 0)];
    let core = fabric.switches[idx.core(0)];
    let (flapped, _, _) = world.connect(agg, core, LinkParams::instant(Duration::from_micros(5)));
    world.schedule_link_state(flapped, false, Instant::from_millis(2));
    world.schedule_link_state(flapped, true, Instant::from_millis(4));

    world.set_digest_enabled(true);
    world.run_until(Instant::from_millis(6), n_shards);

    RunDigest {
        digest: world.digest().expect("digest enabled"),
        events: world.events_processed(),
        counters: world
            .metrics()
            .counters()
            .map(|(name, v)| (name.to_string(), v))
            .collect(),
        per_host_rx: fabric
            .hosts
            .iter()
            .map(|&id| world.node_as::<ShardTrafficHost>(id).rx)
            .collect(),
        punts: fabric
            .switches
            .iter()
            .map(|&id| world.node_as::<ShardSwitch>(id).punts)
            .sum(),
    }
}

#[test]
#[ignore = "release soak: run explicitly in CI"]
fn sharded_fat_tree_is_byte_identical_across_shard_counts() {
    let one = run(1);
    println!(
        "soak shard {:016x}",
        zen_consensus::fnv1a(format!("{:?}", one).as_bytes())
    );
    assert!(
        one.events > 100_000,
        "soak too small: {} events",
        one.events
    );
    assert!(
        one.per_host_rx.iter().sum::<u64>() > 10_000,
        "soak delivered too little"
    );
    assert_eq!(one.punts, 0, "fully-routed fabric never punts");

    let two = run(2);
    let four = run(4);
    assert_eq!(one, two, "1-shard vs 2-shard runs diverge");
    assert_eq!(one, four, "1-shard vs 4-shard runs diverge");
}
