//! Differential test for the batched pipeline: a datapath driven
//! through `process_batch` and one driven frame-by-frame through the
//! scalar `process` shim see identical randomized traffic/flow-mod
//! interleavings and must stay observably identical — same effect
//! sequences, same entry/table/port counters, same drops, same meter
//! state.
//!
//! A batch is its frames one by one: the rewrite buffer it recycles may
//! save an allocation, never change what the pipeline does.

mod churn;

use zen_dataplane::{
    Action, Bucket, Datapath, Effect, FlowMatch, FlowSpec, GroupDesc, GroupType, MissPolicy,
};
use zen_wire::builder::PacketBuilder;
use zen_wire::lcg::Lcg;
use zen_wire::{EthernetAddress, Ipv4Address, Ipv4Cidr};

const CASES: usize = 60;
const OPS_PER_CASE: usize = 120;
const MAX_BATCH: u64 = 16;

/// A small universe of frames so batches revisit microflow groups.
fn gen_frame(rng: &mut Lcg) -> (u32, Vec<u8>) {
    let in_port = 1 + rng.gen_range(4) as u32;
    let src_ip = Ipv4Address::new(10, 0, rng.gen_range(2) as u8, rng.gen_range(8) as u8);
    let dst_ip = Ipv4Address::new(10, 0, 1 + rng.gen_range(2) as u8, rng.gen_range(8) as u8);
    let sport = 1000 + rng.gen_range(4) as u16;
    let dport = 50 + rng.gen_range(6) as u16;
    let frame = PacketBuilder::udp(
        EthernetAddress::from_id(u64::from(in_port)),
        src_ip,
        sport,
        EthernetAddress::from_id(99),
        dst_ip,
        dport,
        b"batch-differential",
    );
    (in_port, frame)
}

fn gen_cidr(rng: &mut Lcg, third_octet: u8) -> Ipv4Cidr {
    let plen = *rng.choose(&[0u8, 8, 16, 24, 32]).unwrap();
    Ipv4Cidr::new(
        Ipv4Address::new(10, 0, third_octet, rng.gen_range(8) as u8),
        plen,
    )
    .unwrap()
}

fn opt<T>(rng: &mut Lcg, f: impl FnOnce(&mut Lcg) -> T) -> Option<T> {
    if rng.gen_ratio(1, 2) {
        Some(f(rng))
    } else {
        None
    }
}

fn gen_match(rng: &mut Lcg) -> FlowMatch {
    FlowMatch {
        in_port: opt(rng, |r| 1 + r.gen_range(4) as u32),
        ipv4_src: opt(rng, |r| gen_cidr(r, 0)),
        ipv4_dst: opt(rng, |r| {
            let third = 1 + r.gen_range(2) as u8;
            gen_cidr(r, third)
        }),
        l4_dst: opt(rng, |r| 50 + r.gen_range(6) as u16),
        ..FlowMatch::ANY
    }
}

fn gen_actions(rng: &mut Lcg) -> Vec<Action> {
    let pool = [
        Action::Output(1 + rng.gen_range(4) as u32),
        Action::Flood,
        Action::DecTtl,
        Action::SetEthDst(EthernetAddress::from_id(7)),
        Action::ToController { max_len: 48 },
        Action::Meter(1),
        Action::Group(7 + rng.gen_range(4) as u32),
        Action::Output(1 + rng.gen_range(4) as u32),
    ];
    (0..1 + rng.gen_index(3))
        .map(|_| *rng.choose(&pool).unwrap())
        .collect()
}

fn gen_spec(rng: &mut Lcg) -> FlowSpec {
    let mut spec = FlowSpec::new(rng.gen_range(4) as u16, gen_match(rng), gen_actions(rng))
        .with_cookie(rng.gen_range(3))
        .with_timeouts(
            *rng.choose(&[0u64, 40, 90]).unwrap(),
            *rng.choose(&[0u64, 120, 400]).unwrap(),
        );
    if rng.gen_ratio(1, 3) {
        spec = spec.with_goto(1);
    }
    spec
}

/// A bucket that rewrites its own copy of the frame before sending it.
fn rewriting_bucket(port: u32) -> Bucket {
    Bucket {
        actions: vec![
            Action::SetEthDst(EthernetAddress::from_id(0x40 + u64::from(port))),
            Action::Output(port),
        ],
        watch_port: Some(port),
    }
}

fn build_dp(cached: bool) -> Datapath {
    let mut dp = Datapath::new(1, 2, MissPolicy::ToController { max_len: 64 });
    dp.set_flow_cache_enabled(cached);
    for p in 1..=4 {
        dp.add_port(p);
    }
    dp.add_group(
        7,
        GroupDesc {
            group_type: GroupType::Select,
            buckets: vec![Bucket::output(2), Bucket::output(3), Bucket::output(4)],
        },
    );
    // Groups whose buckets rewrite: a bucket's rewrite must reach its
    // own output and nothing after it — not the next bucket, not the
    // actions that follow the group.
    let rewriting = |group_type, buckets| GroupDesc {
        group_type,
        buckets,
    };
    dp.add_group(
        8,
        rewriting(
            GroupType::Select,
            vec![rewriting_bucket(2), Bucket::output(3), rewriting_bucket(4)],
        ),
    );
    dp.add_group(
        9,
        rewriting(
            GroupType::FastFailover,
            vec![rewriting_bucket(1), rewriting_bucket(3)],
        ),
    );
    dp.add_group(
        10,
        rewriting(
            GroupType::All,
            vec![rewriting_bucket(2), Bucket::output(3), rewriting_bucket(4)],
        ),
    );
    dp.set_meter(1, 80_000, 2_000);
    dp
}

/// (priority, cookie, packets, bytes, last_hit) per installed entry.
type EntrySnap = Vec<(u16, u64, u64, u64, u64)>;
/// (len, hits, misses) per table.
type TableSnap = Vec<(u64, u64, u64)>;
/// Per-port counters, every field separately.
type PortSnap = Vec<(u64, u64, u64, u64, u64)>;

/// Everything externally observable about a datapath, for equality.
/// Cache probe counters are excluded by design (see module docs).
fn snapshot(dp: &Datapath) -> (EntrySnap, TableSnap, PortSnap, u64, u64, usize) {
    let mut entries = Vec::new();
    let mut tables = Vec::new();
    for tid in 0..dp.table_count() as u8 {
        let t = dp.table(tid);
        tables.push((t.len() as u64, t.hits, t.misses));
        for e in t.entries() {
            entries.push((
                e.spec.priority,
                e.spec.cookie,
                e.packets,
                e.bytes,
                e.last_hit,
            ));
        }
    }
    let ports = dp
        .ports()
        .into_iter()
        .map(|p| {
            let s = dp.port_stats(p);
            (
                s.rx_frames,
                s.rx_bytes,
                s.tx_frames,
                s.tx_bytes,
                s.tx_dropped,
            )
        })
        .collect();
    let meter_drops = dp.meter(1).map(|m| m.dropped).unwrap_or(0);
    (
        entries,
        tables,
        ports,
        dp.pipeline_drops,
        meter_drops,
        dp.flow_count(),
    )
}

fn run_differential(seed: u64, batched_cache: bool, scalar_cache: bool) -> u64 {
    let mut rng = Lcg::new(seed);
    let mut total_frames = 0u64;
    for case in 0..CASES {
        let mut batched = build_dp(batched_cache);
        let mut scalar = build_dp(scalar_cache);
        let mut now = 0u64;
        for op in 0..OPS_PER_CASE {
            now += 1 + rng.gen_range(20);
            match rng.gen_index(12) {
                // Mostly traffic, so batches actually form groups.
                0..=6 => {
                    let n = 1 + rng.gen_range(MAX_BATCH) as usize;
                    let frames: Vec<(u32, Vec<u8>)> = (0..n).map(|_| gen_frame(&mut rng)).collect();
                    let batch: Vec<(u32, &[u8])> =
                        frames.iter().map(|(p, f)| (*p, f.as_slice())).collect();
                    let mut batch_effects = Vec::new();
                    batched.process_batch(now, &batch, &mut batch_effects);
                    let scalar_effects: Vec<Effect> = frames
                        .iter()
                        .flat_map(|(p, f)| scalar.process(now, *p, f))
                        .collect();
                    assert_eq!(
                        batch_effects, scalar_effects,
                        "effects diverged, case {case} op {op}"
                    );
                    total_frames += n as u64;
                }
                7 => {
                    let table_id = rng.gen_range(2) as u8;
                    let spec = gen_spec(&mut rng);
                    batched.add_flow(table_id, spec.clone(), now);
                    scalar.add_flow(table_id, spec, now);
                }
                8 => {
                    let table_id = rng.gen_range(2) as u8;
                    let priority = rng.gen_range(4) as u16;
                    let matcher = gen_match(&mut rng);
                    let a = batched.delete_flow_strict(table_id, priority, &matcher);
                    let b = scalar.delete_flow_strict(table_id, priority, &matcher);
                    assert_eq!(
                        a.is_some(),
                        b.is_some(),
                        "delete diverged, case {case} op {op}"
                    );
                }
                9 => {
                    let cookie = rng.gen_range(3);
                    let a = batched.delete_flows_by_cookie(cookie);
                    let b = scalar.delete_flows_by_cookie(cookie);
                    assert_eq!(
                        a.len(),
                        b.len(),
                        "cookie delete diverged, case {case} op {op}"
                    );
                }
                10 => {
                    let a = churn::expire(&mut batched, now);
                    let b = churn::expire(&mut scalar, now);
                    assert_eq!(a.len(), b.len(), "expiry diverged, case {case} op {op}");
                }
                _ => {
                    let port = 1 + rng.gen_range(4) as u32;
                    let up = rng.gen_ratio(1, 2);
                    batched.set_port_up(port, up);
                    scalar.set_port_up(port, up);
                }
            }
            assert_eq!(
                snapshot(&batched),
                snapshot(&scalar),
                "state diverged, case {case} op {op}"
            );
        }
    }
    total_frames
}

#[test]
fn batched_and_scalar_pipelines_are_observably_identical() {
    let total = run_differential(0xBA7C4ED1, true, true);
    // The interleavings must be long enough to mean something.
    assert!(total >= 10_000, "only {total} frames processed");
}

#[test]
fn batched_and_scalar_agree_with_cache_disabled() {
    // Without the cache every frame takes the slow path; batching must
    // still only amortize, never reorder or merge.
    let total = run_differential(0xBA7C4ED2, false, false);
    assert!(total >= 10_000, "only {total} frames processed");
}

#[test]
fn batched_cached_agrees_with_scalar_cache_off() {
    // Replayed trajectories run group buckets through the same code as
    // the table walk; the two must not drift, rewriting buckets
    // included.
    let total = run_differential(0xBA7C4ED3, true, false);
    assert!(total >= 10_000, "only {total} frames processed");
}

#[test]
fn empty_batch_is_a_no_op() {
    let mut dp = build_dp(true);
    let before = snapshot(&dp);
    let mut effects = Vec::new();
    dp.process_batch(5, &[], &mut effects);
    assert!(effects.is_empty());
    assert_eq!(snapshot(&dp), before);
}

/// Drive `script` with each run of frames delivered as one batch to
/// `batched` and frame by frame to `uncached`: run by run the two must
/// do the same and stand the same. Returns how many frames that was.
fn run_script(batched: &mut Datapath, uncached: &mut Datapath, script: &[churn::Op]) -> u64 {
    let mut frames = 0u64;
    let mut step = 0;
    while step < script.len() {
        let now = 7 * step as u64;
        let run = script[step..]
            .iter()
            .take_while(|op| matches!(op, churn::Op::Frame(_)))
            .count();
        if run == 0 {
            churn::apply(batched, &script[step], now);
            churn::apply(uncached, &script[step], now);
            step += 1;
        } else {
            let owned: Vec<(u32, Vec<u8>)> = script[step..step + run]
                .iter()
                .map(|op| match op {
                    churn::Op::Frame(flow) => churn::frame(*flow),
                    _ => unreachable!("counted frames only"),
                })
                .collect();
            let batch: Vec<(u32, &[u8])> = owned.iter().map(|(p, f)| (*p, f.as_slice())).collect();
            let mut batch_effects = Vec::new();
            batched.process_batch(now, &batch, &mut batch_effects);
            let scalar_effects: Vec<Effect> = owned
                .iter()
                .flat_map(|(p, f)| uncached.process(now, *p, f))
                .collect();
            assert_eq!(
                batch_effects, scalar_effects,
                "effects diverged at step {step}"
            );
            frames += run as u64;
            step += run;
        }
        assert_eq!(
            churn::snapshot(batched),
            churn::snapshot(uncached),
            "state diverged before step {step}"
        );
    }
    frames
}

/// The `churn` script with each run of frames delivered as one batch:
/// a batch of one microflow's frames, a group / port / meter / flow
/// change, another batch of the same microflow. The batched datapath
/// must match a scalar one with the cache off frame for frame, and its
/// cache must count what the frame-by-frame run counts.
#[test]
fn changes_between_batches_of_one_microflow_match_the_uncached_walk() {
    let mut batched = churn::build_dp(true);
    let mut uncached = churn::build_dp(false);
    let script = churn::script(0xC4A26E, 1_500);
    let frames = run_script(&mut batched, &mut uncached, &script);
    assert!(frames >= 5_000, "only {frames} frames");
    assert_eq!(batched.cache_stats(), churn::PINNED_STATS);
}

/// A pipeline deeper than a trajectory holds inline, and entries
/// replaced in place between two batches of one microflow (see the
/// scalar twin in `cache_differential.rs`).
#[test]
fn deep_pipelines_and_replacing_adds_match_the_uncached_walk() {
    let mut batched = churn::build_deep_dp(true);
    let mut uncached = churn::build_deep_dp(false);
    let script = churn::deep_script(0xDEE9, 1_500);
    let frames = run_script(&mut batched, &mut uncached, &script);
    let stats = batched.cache_stats();
    assert!(frames >= 5_000, "only {frames} frames");
    assert!(stats.hits() > 500 && stats.invalidations > 500, "{stats:?}");
}
