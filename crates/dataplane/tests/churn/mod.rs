//! A scripted workload shared by the cache and batch differential
//! tests: a few long-lived microflows, with group, port, meter and flow
//! changes landing *between* frames of the same microflow.
//!
//! The flow cache memoises which actions a microflow runs, never what a
//! `Group` action resolves to; group changes do not invalidate it, port
//! and meter and flow changes do. Anything a datapath remembers per
//! microflow or per group (a bucket choice, a live-bucket list) has to
//! follow every one of these changes, or the frame after the change
//! differs from the uncached walk.

use zen_dataplane::datapath::PortStats;
use zen_dataplane::{
    Action, Bucket, CacheStats, Datapath, FlowEntry, FlowMatch, FlowSpec, GroupDesc, GroupType,
    MissPolicy, RemovedReason,
};
use zen_wire::builder::PacketBuilder;
use zen_wire::lcg::Lcg;
use zen_wire::{EthernetAddress, Ipv4Address};

/// Flows in play, two microflows each.
pub const FLOWS: usize = 8;
/// The groups the script adds, replaces and removes.
const GROUPS: std::ops::RangeInclusive<u32> = 7..=12;
/// Priority of the rules the script adds over the standing ones.
const OVERRIDE_PRIORITY: u16 = 5;

/// One step of the script.
#[derive(Debug, Clone)]
pub enum Op {
    /// A frame of microflow `0..2 * FLOWS`.
    Frame(usize),
    GroupAdd(u32, GroupDesc),
    GroupRemove(u32),
    Port(u32, bool),
    MeterSet(u64, u64),
    MeterRemove,
    FlowAdd(u8, FlowSpec),
    FlowDelete(u8, FlowMatch),
}

/// Microflow `i` of flow `i % FLOWS`: the destination port selects the
/// flow's standing rule (and so its group); the source port, which no
/// rule matches on, tells the flow's two microflows apart — they share
/// a megaflow and spread over SELECT buckets.
pub fn frame(i: usize) -> (u32, Vec<u8>) {
    let flow = i % FLOWS;
    let in_port = 1 + (flow % 2) as u32;
    let frame = PacketBuilder::udp(
        EthernetAddress::from_id(u64::from(in_port)),
        Ipv4Address::new(10, 0, 0, 1 + flow as u8),
        1000 + 7 * i as u16,
        EthernetAddress::from_id(99),
        Ipv4Address::new(10, 0, 1, 1),
        50 + flow as u16,
        b"churn",
    );
    (in_port, frame)
}

fn flow_match(i: usize) -> FlowMatch {
    FlowMatch::ANY.with_ip_proto(17).with_l4_dst(50 + i as u16)
}

/// A bucket that rewrites its own copy of the frame before sending it.
fn rewriting(port: u32, watch_port: Option<u32>) -> Bucket {
    Bucket {
        actions: vec![
            Action::SetEthDst(EthernetAddress::from_id(0x40 + u64::from(port))),
            Action::Output(port),
        ],
        watch_port,
    }
}

fn gen_bucket(rng: &mut Lcg) -> Bucket {
    let port = 1 + rng.gen_range(4) as u32;
    if rng.gen_ratio(1, 2) {
        return Bucket::output(port);
    }
    rewriting(port, rng.gen_ratio(3, 4).then_some(port))
}

fn gen_group(rng: &mut Lcg) -> GroupDesc {
    let types = [GroupType::Select, GroupType::FastFailover, GroupType::All];
    GroupDesc {
        group_type: *rng.choose(&types).unwrap(),
        buckets: (0..1 + rng.gen_index(3)).map(|_| gen_bucket(rng)).collect(),
    }
}

fn gen_change(rng: &mut Lcg, flow: usize) -> Op {
    let group = *GROUPS.start() + rng.gen_range(6) as u32;
    match rng.gen_index(10) {
        // Group changes most often: they are the ones the cache does
        // not see.
        0..=2 => Op::GroupAdd(group, gen_group(rng)),
        3 => Op::GroupRemove(group),
        4 | 5 => Op::Port(1 + rng.gen_range(4) as u32, rng.gen_ratio(1, 2)),
        6 => Op::MeterSet(8_000 * (1 + rng.gen_range(20)), 100 + rng.gen_range(2_000)),
        7 => Op::MeterRemove,
        8 => {
            let actions = vec![
                Action::Group(group),
                Action::Output(1 + rng.gen_range(4) as u32),
            ];
            let spec = FlowSpec::new(OVERRIDE_PRIORITY, flow_match(flow), actions);
            Op::FlowAdd(rng.gen_range(2) as u8, spec)
        }
        _ => Op::FlowDelete(rng.gen_range(2) as u8, flow_match(flow)),
    }
}

/// The script for `seed`: `rounds` times, a run of frames of one flow
/// (one of its two microflows more often than the other), usually a
/// change, and a run of the same flow again.
pub fn script(seed: u64, rounds: usize) -> Vec<Op> {
    let mut rng = Lcg::new(seed);
    let mut ops = Vec::new();
    for _ in 0..rounds {
        let flow = rng.gen_index(FLOWS);
        for half in 0..2 {
            for _ in 0..1 + rng.gen_index(3) {
                let microflow = flow + FLOWS * usize::from(rng.gen_ratio(1, 4));
                ops.push(Op::Frame(microflow));
            }
            if half == 0 && rng.gen_ratio(3, 4) {
                ops.push(gen_change(&mut rng, flow));
            }
        }
    }
    ops
}

/// What the cache of `build_dp(true)` counts over `script(0xC4A26E,
/// 1_500)`, whether its frames arrive one by one or a run at a time.
/// Pinned from the cache as it stood before group execution moved to
/// precomputed live-bucket lists (commit 67998ec): a change here is a
/// change to what invalidates or fills the cache.
pub const PINNED_STATS: CacheStats = CacheStats {
    micro_hits: 3691,
    mega_hits: 802,
    misses: 1466,
    inserts: 1462,
    invalidations: 476,
    micro_evictions: 0,
    mega_evictions: 0,
};

/// A two-table datapath with four ports, one group of each kind with
/// and without rewriting buckets, a meter, and one standing rule per
/// microflow.
pub fn build_dp(cached: bool) -> Datapath {
    let mut dp = Datapath::new(1, 2, MissPolicy::ToController { max_len: 64 });
    dp.set_flow_cache_enabled(cached);
    for p in 1..=4 {
        dp.add_port(p);
    }
    let rewriting = |port: u32| rewriting(port, Some(port));
    let groups = [
        (
            GroupType::Select,
            vec![Bucket::output(2), Bucket::output(3), Bucket::output(4)],
        ),
        (
            GroupType::Select,
            vec![rewriting(2), Bucket::output(3), rewriting(4)],
        ),
        (
            GroupType::FastFailover,
            vec![Bucket::output(3), Bucket::output(4)],
        ),
        (GroupType::FastFailover, vec![rewriting(1), rewriting(3)]),
        (GroupType::All, vec![Bucket::output(2), Bucket::output(4)]),
        (
            GroupType::All,
            vec![rewriting(2), Bucket::output(3), rewriting(4)],
        ),
    ];
    for (id, (group_type, buckets)) in GROUPS.zip(groups) {
        dp.add_group(
            id,
            GroupDesc {
                group_type,
                buckets,
            },
        );
    }
    dp.set_meter(1, 80_000, 2_000);
    for i in 0..FLOWS {
        let group = Action::Group(*GROUPS.start() + (i % 6) as u32);
        let (actions, goto) = match i {
            // Metered, then a group, then a plain output after it.
            6 => (vec![Action::Meter(1), group, Action::Output(4)], None),
            // A rewrite before the group, and a second table behind it.
            7 => (vec![Action::DecTtl, group], Some(1)),
            _ => (vec![group], None),
        };
        let mut spec = FlowSpec::new(1, flow_match(i), actions);
        if let Some(table) = goto {
            spec = spec.with_goto(table);
        }
        dp.add_flow(0, spec, 0);
    }
    dp.add_flow(
        1,
        FlowSpec::new(1, FlowMatch::ANY, vec![Action::Group(12)]),
        0,
    );
    dp
}

/// Tables of the deep pipeline: more steps than a cached trajectory
/// holds inline.
const DEEP_TABLES: u8 = 5;

/// The standing rule of table `table` of the deep pipeline: every frame
/// goes out of `port` and on to the next table.
fn deep_rule(table: u8, port: u32) -> FlowSpec {
    FlowSpec::new(0, FlowMatch::ANY, vec![Action::Output(port)]).with_goto(table + 1)
}

/// Five tables, each but the last passing every frame on behind one
/// output; the last holds nothing, so a walk is four hits and a miss.
pub fn build_deep_dp(cached: bool) -> Datapath {
    let tables = usize::from(DEEP_TABLES);
    let mut dp = Datapath::new(1, tables, MissPolicy::ToController { max_len: 64 });
    dp.set_flow_cache_enabled(cached);
    for p in 1..=4 {
        dp.add_port(p);
    }
    for table in 0..DEEP_TABLES - 1 {
        dp.add_flow(table, deep_rule(table, 1 + u32::from(table)), 0);
    }
    dp
}

/// The script for the deep pipeline: as [`script`], but the change
/// between two runs of a flow's frames is, half the time, an ADD that
/// *replaces* a table's standing rule in place — same priority and
/// match, another action list, the entry where it was — and otherwise a
/// rule over it for this flow that ends the walk there (in the last
/// table: a hit where there was a miss), or that rule's removal.
pub fn deep_script(seed: u64, rounds: usize) -> Vec<Op> {
    let mut rng = Lcg::new(seed);
    let mut ops = Vec::new();
    for _ in 0..rounds {
        let flow = rng.gen_index(FLOWS);
        for half in 0..2 {
            for _ in 0..1 + rng.gen_index(3) {
                let microflow = flow + FLOWS * usize::from(rng.gen_ratio(1, 4));
                ops.push(Op::Frame(microflow));
            }
            if half == 1 {
                continue;
            }
            let port = 1 + rng.gen_range(4) as u32;
            let table = rng.gen_range(u64::from(DEEP_TABLES)) as u8;
            let ending = FlowSpec::new(
                OVERRIDE_PRIORITY,
                flow_match(flow),
                vec![Action::Output(port)],
            );
            ops.push(match rng.gen_index(4) {
                0 | 1 => {
                    let table = table % (DEEP_TABLES - 1);
                    Op::FlowAdd(table, deep_rule(table, port))
                }
                2 => Op::FlowAdd(table, ending),
                _ => Op::FlowDelete(table, flow_match(flow)),
            });
        }
    }
    ops
}

/// One expiry sweep at `now`, collected.
pub fn expire(dp: &mut Datapath, now: u64) -> Vec<(u8, FlowEntry, RemovedReason)> {
    let mut removed = Vec::new();
    dp.expire(now, &mut removed);
    removed
}

/// Apply a non-frame step.
pub fn apply(dp: &mut Datapath, op: &Op, now: u64) {
    match op {
        Op::Frame(_) => unreachable!("frames are the caller's to deliver"),
        Op::GroupAdd(id, desc) => dp.add_group(*id, desc.clone()),
        Op::GroupRemove(id) => {
            dp.remove_group(*id);
        }
        Op::Port(port, up) => dp.set_port_up(*port, *up),
        Op::MeterSet(rate, burst) => dp.set_meter(1, *rate, *burst),
        Op::MeterRemove => {
            dp.remove_meter(1);
        }
        Op::FlowAdd(table, spec) => {
            dp.add_flow(*table, spec.clone(), now);
        }
        Op::FlowDelete(table, matcher) => {
            dp.delete_flow_strict(*table, OVERRIDE_PRIORITY, matcher);
        }
    }
}

/// (priority, cookie, packets, bytes, last_hit) per installed entry.
type EntrySnap = Vec<(u16, u64, u64, u64, u64)>;
/// (len, hits, misses) per table.
type TableSnap = Vec<(u64, u64, u64)>;

/// Everything externally observable about a datapath except its cache
/// counters: entry and table counters, every port counter,
/// `pipeline_drops`, the meter's drops.
pub fn snapshot(dp: &Datapath) -> (EntrySnap, TableSnap, Vec<PortStats>, u64, Option<u64>) {
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
    let ports = dp.ports().into_iter().map(|p| dp.port_stats(p)).collect();
    let meter_drops = dp.meter(1).map(|m| m.dropped);
    (entries, tables, ports, dp.pipeline_drops, meter_drops)
}
