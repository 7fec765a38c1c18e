//! Differential test for the two-tier flow cache: a cached and an
//! uncached datapath are driven through identical randomized
//! packet/flow-mod interleavings and must stay observably identical —
//! same effect sequences, same entry/table/port counters, same drops.
//!
//! This is the cache's soundness proof in executable form: whatever
//! state the megaflow masks and trajectory replay reach, the slow path
//! would have reached too.

mod churn;

use zen_dataplane::{
    Action, Bucket, Datapath, FlowMatch, FlowSpec, GroupDesc, GroupType, MissPolicy,
};
use zen_wire::builder::PacketBuilder;
use zen_wire::lcg::Lcg;
use zen_wire::{EthernetAddress, Ipv4Address, Ipv4Cidr};

const CASES: usize = 100;
const OPS_PER_CASE: usize = 200;

/// A small universe of frames so cached flows are revisited often.
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
        b"differential",
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
        Action::Group(7),
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
    dp.set_meter(1, 80_000, 2_000);
    dp
}

/// (priority, cookie, packets, bytes, last_hit) per installed entry.
type EntrySnap = Vec<(u16, u64, u64, u64, u64)>;
/// (len, hits, misses) per table.
type TableSnap = Vec<(u64, u64, u64)>;
/// Folded rx/tx counters per port.
type PortSnap = Vec<(u64, u64)>;

/// Everything externally observable about a datapath, for equality.
fn snapshot(dp: &Datapath) -> (EntrySnap, TableSnap, PortSnap, u64, u64) {
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
                s.rx_frames + s.tx_frames,
                s.rx_bytes + s.tx_bytes + s.tx_dropped,
            )
        })
        .collect();
    let meter_drops = dp.meter(1).map(|m| m.dropped).unwrap_or(0);
    (entries, tables, ports, dp.pipeline_drops, meter_drops)
}

#[test]
fn cached_and_uncached_datapaths_are_observably_identical() {
    let mut rng = Lcg::new(0xCAC4ED1F);
    let mut total_processes = 0u64;
    for case in 0..CASES {
        let mut cached = build_dp(true);
        let mut uncached = build_dp(false);
        let mut now = 0u64;
        for op in 0..OPS_PER_CASE {
            now += 1 + rng.gen_range(20);
            match rng.gen_index(12) {
                // Mostly traffic, so the cache actually gets exercised.
                0..=6 => {
                    let (in_port, frame) = gen_frame(&mut rng);
                    let a = cached.process(now, in_port, &frame);
                    let b = uncached.process(now, in_port, &frame);
                    assert_eq!(a, b, "effects diverged, case {case} op {op}");
                    total_processes += 1;
                }
                7 => {
                    let table_id = rng.gen_range(2) as u8;
                    let spec = gen_spec(&mut rng);
                    cached.add_flow(table_id, spec.clone(), now);
                    uncached.add_flow(table_id, spec, now);
                }
                8 => {
                    let table_id = rng.gen_range(2) as u8;
                    let priority = rng.gen_range(4) as u16;
                    let matcher = gen_match(&mut rng);
                    let a = cached.delete_flow_strict(table_id, priority, &matcher);
                    let b = uncached.delete_flow_strict(table_id, priority, &matcher);
                    assert_eq!(
                        a.is_some(),
                        b.is_some(),
                        "delete diverged, case {case} op {op}"
                    );
                }
                9 => {
                    let cookie = rng.gen_range(3);
                    let a = cached.delete_flows_by_cookie(cookie);
                    let b = uncached.delete_flows_by_cookie(cookie);
                    assert_eq!(
                        a.len(),
                        b.len(),
                        "cookie delete diverged, case {case} op {op}"
                    );
                }
                10 => {
                    let a = churn::expire(&mut cached, now);
                    let b = churn::expire(&mut uncached, now);
                    assert_eq!(a.len(), b.len(), "expiry diverged, case {case} op {op}");
                }
                _ => {
                    let port = 1 + rng.gen_range(4) as u32;
                    let up = rng.gen_ratio(1, 2);
                    cached.set_port_up(port, up);
                    uncached.set_port_up(port, up);
                }
            }
            assert_eq!(
                snapshot(&cached),
                snapshot(&uncached),
                "state diverged, case {case} op {op}"
            );
        }
        // The two must agree that the cache did (or did not) run.
        assert!(cached.flow_cache_enabled());
        assert!(!uncached.flow_cache_enabled());
        assert_eq!(uncached.cache_stats().hits(), 0);
        assert_eq!(uncached.cache_stats().misses, 0);
    }
    // The interleavings must be long enough to mean something.
    assert!(
        total_processes >= 10_000,
        "only {total_processes} packets processed"
    );
}

#[test]
fn cache_actually_serves_traffic_in_the_differential_mix() {
    // Re-run one shorter mix and confirm the cached datapath answered a
    // healthy share of packets from the cache (the differential test
    // above would pass trivially if the cache never hit).
    let mut rng = Lcg::new(0xCAC4E5EC);
    let mut dp = build_dp(true);
    let mut now = 0u64;
    for _ in 0..2_000 {
        now += 1 + rng.gen_range(20);
        if rng.gen_ratio(1, 40) {
            dp.add_flow(0, gen_spec(&mut rng), now);
        } else {
            let (in_port, frame) = gen_frame(&mut rng);
            dp.process(now, in_port, &frame);
        }
    }
    let stats = dp.cache_stats();
    assert!(stats.hits() > 500, "cache barely used: {stats:?}");
    assert!(stats.inserts > 0);
    assert!(stats.invalidations > 0);
}

/// Drive `script` through a cached and an uncached datapath: frame by
/// frame the two must do the same and stand the same. Returns how many
/// frames that was.
fn run_script(cached: &mut Datapath, uncached: &mut Datapath, script: &[churn::Op]) -> u64 {
    let mut frames = 0u64;
    for (step, op) in script.iter().enumerate() {
        let now = 7 * step as u64;
        match op {
            churn::Op::Frame(flow) => {
                let (in_port, frame) = churn::frame(*flow);
                let a = cached.process(now, in_port, &frame);
                let b = uncached.process(now, in_port, &frame);
                assert_eq!(a, b, "effects diverged at step {step} ({op:?})");
                frames += 1;
            }
            change => {
                churn::apply(cached, change, now);
                churn::apply(uncached, change, now);
            }
        }
        assert_eq!(
            churn::snapshot(cached),
            churn::snapshot(uncached),
            "state diverged at step {step} ({op:?})"
        );
    }
    frames
}

/// Group, port, meter and flow changes between frames of one
/// microflow (see `churn`): frame by frame the cached datapath must do
/// what the uncached one does, and — group changes not being cache
/// invalidations — it must do it with exactly the probes, inserts and
/// invalidations the cache has always needed for this script.
#[test]
fn changes_between_frames_of_one_microflow_match_the_uncached_walk() {
    let mut cached = churn::build_dp(true);
    let mut uncached = churn::build_dp(false);
    let script = churn::script(0xC4A26E, 1_500);
    let frames = run_script(&mut cached, &mut uncached, &script);
    assert!(frames >= 5_000, "only {frames} frames");
    assert_eq!(cached.cache_stats(), churn::PINNED_STATS);
}

/// A cached trajectory is positions into the tables, and replay runs
/// the entry it finds there. Two things that must not show: a walk
/// with more steps than a trajectory holds inline, and an ADD that
/// replaces an entry in place — its position stands, its actions do
/// not — between two frames of one microflow (see `churn::deep_script`).
#[test]
fn deep_pipelines_and_replacing_adds_match_the_uncached_walk() {
    let mut cached = churn::build_deep_dp(true);
    let mut uncached = churn::build_deep_dp(false);
    let script = churn::deep_script(0xDEE9, 1_500);
    let frames = run_script(&mut cached, &mut uncached, &script);
    let stats = cached.cache_stats();
    assert!(frames >= 5_000, "only {frames} frames");
    assert!(stats.hits() > frames / 3, "cache barely used: {stats:?}");
    // Every change was a flow mod that took: each one flushed.
    assert!(stats.invalidations > 500, "{stats:?}");
}
