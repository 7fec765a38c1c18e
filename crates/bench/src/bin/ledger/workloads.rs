//! The ledger's workloads. Each builds a fresh world from the seed,
//! times set-up and a fixed amount of work, checks its own outputs, and
//! returns one [`Rep`]. Why each exists is in `README.md`.
//!
//! The seed feeds `World::new`, the host permutation and the start
//! staggers, and nothing else; work is a count, never a duration, so
//! the simulated side of a repetition is a pure function of the seed.

use std::any::Any;
use std::collections::BTreeMap;
use std::time::Instant as WallInstant;

use zen_core::apps::proactive::FABRIC_MAC;
use zen_core::apps::{Acl, L2Learning, ProactiveFabric, ReactiveForwarding};
use zen_core::harness::{default_host_ip, default_host_mac, FabricOptions};
use zen_core::{
    build_shard_fat_tree, App, CbenchConfig, CbenchMode, CbenchSwitch, Controller,
    ControllerConfig, Ctl, CtlStats, SwitchAgent,
};
use zen_dataplane::FlowMatch;
use zen_proto::Intent;
use zen_sim::{
    Duration, FaultPlan, Host, Instant, LinkParams, NodeId, Rng, ShardedWorld, Topology, Window,
    Workload as Traffic, World,
};

use crate::alloc;
use crate::fabric;
use crate::span::{self, boxed, Layer, Trace};
use crate::stats::{quantile, tail, Better, Fnv};

/// How much work a repetition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` records.
    Full,
    /// About a hundredth: enough to exercise every check.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// The benchmark's workloads, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FabricForward,
    ReactiveChurn,
    CbenchClosed,
    ClusterChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FabricForward,
        Workload::ReactiveChurn,
        Workload::CbenchClosed,
        Workload::ClusterChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricForward => "fabric_forward",
            Workload::ReactiveChurn => "reactive_churn",
            Workload::CbenchClosed => "cbench_closed",
            Workload::ClusterChurn => "cluster_churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What `work_per_s` counts on this workload.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::FabricForward => "link frames",
            Workload::ReactiveChurn | Workload::CbenchClosed => "flow setups",
            Workload::ClusterChurn => "simulated ms",
        }
    }

    /// Whether the traced run also runs this workload's fabric on the
    /// second engine ([`shard_pair`]) for the `sim.shard.*` metrics.
    pub fn has_shard_twin(self) -> bool {
        self == Workload::FabricForward
    }

    fn dispatch(self, seed: u64, size: Size, how: How) -> Rep {
        match self {
            Workload::FabricForward => fabric_forward(seed, size, how),
            Workload::ReactiveChurn => reactive_churn(seed, size, how),
            Workload::CbenchClosed => cbench_closed(seed, size, how),
            Workload::ClusterChurn => cluster_churn(seed, size, how),
        }
    }

    /// Run one repetition, with a span recorder around every node when
    /// `trace` is set.
    pub fn run(self, seed: u64, size: Size, trace: bool) -> Rep {
        let how = How {
            trace,
            ..How::default()
        };
        self.dispatch(seed, size, how)
    }

    /// Set up only, and return how long it took in seconds.
    pub fn setup_only(self, seed: u64, size: Size) -> f64 {
        let how = How {
            setup_only: true,
            ..How::default()
        };
        self.dispatch(seed, size, how).setup_s
    }

    /// One repetition with the flight recorder enabled (for
    /// `telemetry.recorder.enabled_overhead_pct`); `None` where the
    /// recorder has no tap points on the workload's path worth timing.
    pub fn run_recorded(self, seed: u64, size: Size) -> Option<Rep> {
        let how = How {
            record: true,
            ..How::default()
        };
        match self {
            Workload::FabricForward => Some(self.dispatch(seed, size, how)),
            _ => None,
        }
    }
}

/// How a repetition is run, besides its seed and size.
#[derive(Debug, Clone, Copy, Default)]
struct How {
    /// Wrap every node in a span recorder.
    trace: bool,
    /// Enable the stack's flight recorder for the timed section.
    record: bool,
    /// Stop where the timed section would begin.
    setup_only: bool,
}

/// What one repetition measured.
#[derive(Default)]
pub struct Rep {
    /// Process-side start of the repetition to first workload datagram due.
    pub setup_s: f64,
    /// Wall time of the timed section.
    pub wall_s: f64,
    /// Work units completed in the timed section.
    pub work: u64,
    /// Simulator events dispatched in the timed section.
    pub events: u64,
    /// Operations attempted / failed, as the contract counts them.
    pub attempted: u64,
    pub failed: u64,
    /// FNV over every simulated statistic of the run.
    pub digest: u64,
    /// Exact per-layer metrics: counts and simulated-time values. They
    /// repeat exactly for a fixed seed.
    pub exact: BTreeMap<&'static str, f64>,
    /// Correctness checks that failed, as messages.
    pub faults: Vec<String>,
    /// Flow-cache probes of the timed section: micro hits, mega hits,
    /// misses, summed over switches.
    pub probes: [u64; 3],
    /// The traced repetition's spans and loop allocations.
    pub trace: Option<Trace>,
    pub loop_allocs: u64,
    pub loop_alloc_bytes: u64,
}

impl Rep {
    pub fn work_per_s(&self) -> f64 {
        self.work as f64 / self.wall_s
    }

    /// What a set-up-only run returns.
    fn set_up(setup_s: f64) -> Rep {
        // A traced set-up must not leave the recorder running.
        span::end();
        Rep {
            setup_s,
            ..Rep::default()
        }
    }
}

/// Names of the exact per-layer metrics every workload reports (0 where
/// a layer is not on the workload's path).
pub const EXACT_METRICS: [(&str, &str, Better); 19] = [
    ("sim.world.events_per_op", "count", Better::Lower),
    ("sim.world.drops_queue", "count", Better::Lower),
    ("sim.world.ctl_bytes_per_op", "bytes", Better::Lower),
    ("dataplane.cache.hit_ratio", "ratio", Better::Higher),
    ("dataplane.cache.micro_share", "ratio", Better::Higher),
    ("dataplane.cache.invalidations", "count", Better::Lower),
    ("core.controller.packet_ins", "count", Better::Lower),
    ("core.controller.msgs_per_op", "count", Better::Lower),
    ("core.controller.flow_mods_per_op", "count", Better::Lower),
    ("core.controller.mods_retransmitted", "count", Better::Lower),
    ("core.controller.decode_errors", "count", Better::Lower),
    ("cluster.ew_entries_sent", "count", Better::Lower),
    ("cluster.ew_digests_sent", "count", Better::Lower),
    ("cluster.handovers", "count", Better::Lower),
    ("consensus.intent_msgs_per_commit", "count", Better::Lower),
    ("sim.latency_p50_us", "sim_us", Better::Lower),
    ("sim.latency_p99_us", "sim_us", Better::Lower),
    ("sim.failover_hole_ms", "sim_ms", Better::Lower),
    ("sim.intent_commit_p99_ms", "sim_ms", Better::Lower),
];

/// Counters of the `World` stack at one instant; exact metrics are
/// differences of two of these over the timed section.
#[derive(Debug, Clone, Copy, Default)]
struct Snap {
    events: u64,
    tx_frames: u64,
    control_bytes: u64,
    drops_queue: u64,
    micro_hits: u64,
    mega_hits: u64,
    misses: u64,
    generations: u64,
    packet_ins: u64,
    msgs: u64,
    flow_mods: u64,
    mods_retransmitted: u64,
    mods_failed: u64,
    decode_errors: u64,
    ew_entries: u64,
    ew_digests: u64,
    handovers: u64,
    intent_msgs: u64,
    intents_proposed: u64,
}

impl Snap {
    fn probes_until(&self, later: &Snap) -> [u64; 3] {
        [
            later.micro_hits - self.micro_hits,
            later.mega_hits - self.mega_hits,
            later.misses - self.misses,
        ]
    }
}

fn snap(world: &World, controllers: &[NodeId], switches: &[NodeId]) -> Snap {
    let m = world.metrics();
    let mut s = Snap {
        events: world.events_processed(),
        tx_frames: m.counter("sim.tx_frames"),
        control_bytes: m.counter("sim.control_bytes"),
        drops_queue: m.counter("sim.drops_queue"),
        ..Snap::default()
    };
    for &id in switches {
        let dp = &world.node_as::<SwitchAgent>(id).dp;
        let cache = dp.cache_stats();
        s.micro_hits += cache.micro_hits;
        s.mega_hits += cache.mega_hits;
        s.misses += cache.misses;
        s.generations += dp.cache_generation();
    }
    for &id in controllers {
        let c: &CtlStats = &world.node_as::<Controller>(id).stats;
        s.packet_ins += c.packet_ins;
        s.msgs += c.msgs_sent + c.msgs_received;
        s.flow_mods += c.flow_mods;
        s.mods_retransmitted += c.mods_retransmitted;
        s.mods_failed += c.mods_failed;
        s.decode_errors += c.decode_errors;
        s.ew_entries += c.ew_entries_sent;
        s.ew_digests += c.ew_digests_sent;
        s.handovers += c.masterships_gained;
        s.intent_msgs += c.intent_msgs_sent;
        s.intents_proposed += c.intents_proposed;
    }
    s
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The exact metrics of a timed section bounded by two snapshots.
fn exact_between(a: &Snap, b: &Snap, work: u64) -> BTreeMap<&'static str, f64> {
    let [micro, mega, misses] = a.probes_until(b);
    let hits = micro + mega;
    let lookups = hits + misses;
    let mut e: BTreeMap<&'static str, f64> = EXACT_METRICS.iter().map(|m| (m.0, 0.0)).collect();
    let mut set = |name: &'static str, v: f64| {
        *e.get_mut(name).expect("exact metric is declared") = v;
    };
    set("sim.world.events_per_op", ratio(b.events - a.events, work));
    set(
        "sim.world.drops_queue",
        (b.drops_queue - a.drops_queue) as f64,
    );
    set(
        "sim.world.ctl_bytes_per_op",
        ratio(b.control_bytes - a.control_bytes, work),
    );
    set("dataplane.cache.hit_ratio", ratio(hits, lookups));
    set("dataplane.cache.micro_share", ratio(micro, lookups));
    set(
        "dataplane.cache.invalidations",
        (b.generations - a.generations) as f64,
    );
    set(
        "core.controller.packet_ins",
        (b.packet_ins - a.packet_ins) as f64,
    );
    set("core.controller.msgs_per_op", ratio(b.msgs - a.msgs, work));
    set(
        "core.controller.flow_mods_per_op",
        ratio(b.flow_mods - a.flow_mods, work),
    );
    set(
        "core.controller.mods_retransmitted",
        (b.mods_retransmitted - a.mods_retransmitted) as f64,
    );
    set(
        "core.controller.decode_errors",
        (b.decode_errors - a.decode_errors) as f64,
    );
    set(
        "cluster.ew_entries_sent",
        (b.ew_entries - a.ew_entries) as f64,
    );
    set(
        "cluster.ew_digests_sent",
        (b.ew_digests - a.ew_digests) as f64,
    );
    set("cluster.handovers", (b.handovers - a.handovers) as f64);
    set(
        "consensus.intent_msgs_per_commit",
        ratio(
            b.intent_msgs - a.intent_msgs,
            b.intents_proposed - a.intents_proposed,
        ),
    );
    e
}

/// Digest of every simulated statistic a `World` run exposes: sorted
/// counters, controller stats, host stats, per-switch cache stats and
/// flow counts.
fn world_digest(
    world: &World,
    controllers: &[NodeId],
    switches: &[NodeId],
    hosts: &[NodeId],
) -> Fnv {
    let mut h = Fnv::new();
    for (name, value) in world.metrics().counters() {
        h.str(name);
        h.u64(value);
    }
    h.u64(world.events_processed());
    h.u64(world.now().as_nanos());
    for &id in controllers {
        h.str(&format!("{:?}", world.node_as::<Controller>(id).stats));
    }
    for &id in hosts {
        let s = &world.node_as::<Host>(id).stats;
        for v in [s.rx_frames, s.udp_rx, s.udp_tx, s.arp_answered] {
            h.u64(v);
        }
        h.u64(s.udp_latency.count() as u64);
        for &sample in s.udp_latency.samples() {
            h.u64(sample.to_bits());
        }
    }
    for &id in switches {
        let dp = &world.node_as::<SwitchAgent>(id).dp;
        h.str(&format!("{:?}", dp.cache_stats()));
        h.u64(dp.flow_count() as u64);
    }
    h
}

/// A seeded cyclic order of `0..n`: following it visits every index
/// once, so "the next one in the order" is never oneself.
fn cyclic_order(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

fn udp_delivered(world: &World, hosts: &[NodeId]) -> u64 {
    hosts
        .iter()
        .map(|&h| world.node_as::<Host>(h).stats.udp_rx)
        .sum()
}

/// Simulated one-way latencies of every delivered datagram, in µs.
fn latencies_us(world: &mut World) -> Vec<f64> {
    world
        .metrics_mut()
        .histogram("host.udp_latency_secs")
        .samples()
        .iter()
        .map(|s| s * 1e6)
        .collect()
}

fn set_latency(exact: &mut BTreeMap<&'static str, f64>, samples_us: &[f64]) {
    exact.insert("sim.latency_p50_us", quantile(samples_us, 0.5));
    exact.insert("sim.latency_p99_us", tail(samples_us, 0.99));
}

/// The timed section of a workload: spans reset, allocation counters
/// read, `body` timed.
struct Timed {
    wall_s: f64,
    allocs: u64,
    bytes: u64,
}

fn timed(body: impl FnOnce()) -> Timed {
    span::reset();
    let (a0, b0) = alloc::snapshot();
    let t0 = WallInstant::now();
    body();
    let wall_s = t0.elapsed().as_secs_f64();
    let (a1, b1) = alloc::snapshot();
    Timed {
        wall_s,
        allocs: a1 - a0,
        bytes: b1 - b0,
    }
}

// ---------------------------------------------------------------- fabric_forward

/// First workload datagram, in simulated time.
const FORWARD_START: Instant = Instant::from_secs(1);
const FORWARD_GAP: Duration = Duration::from_micros(100);

fn fabric_forward(seed: u64, size: Size, how: How) -> Rep {
    let trace = how.trace;
    let (k, datagrams) = match size {
        Size::Full => (8, 4_000u64),
        Size::Smoke => (4, 100),
    };
    let setup_from = WallInstant::now();
    if trace {
        span::begin();
    }
    let topo = Topology::fat_tree(k, LinkParams::default());
    let n = topo.host_count();
    let opts = FabricOptions::default();
    let inventory = fabric::inventory(&topo, opts);
    let mut input = Rng::new(seed);
    let order = cyclic_order(&mut input, n);
    let mut peer = vec![0usize; n];
    for (j, &i) in order.iter().enumerate() {
        peer[i] = order[(j + 1) % n];
    }
    let staggers: Vec<u64> = (0..n)
        .map(|_| input.gen_range(FORWARD_GAP.as_nanos()))
        .collect();

    let mut world = World::new(seed);
    let expected_links = 2 * topo.links.len();
    let fab = fabric::build(
        &mut world,
        &topo,
        |_| {
            vec![Box::new(ProactiveFabric::new(
                inventory.clone(),
                topo.switches,
                expected_links,
            ))]
        },
        opts,
        |i, mac, ip| {
            Host::new(mac, ip)
                .with_static_arp(default_host_ip(peer[i]), FABRIC_MAC)
                .with_workload(Traffic::Udp {
                    dst: default_host_ip(peer[i]),
                    dst_port: 9,
                    size: 20,
                    count: datagrams,
                    interval: FORWARD_GAP,
                    start: FORWARD_START + Duration::from_nanos(staggers[i]),
                })
        },
        trace,
    );
    world.run_until(Instant::from_nanos(FORWARD_START.as_nanos() - 1));
    let setup_s = setup_from.elapsed().as_secs_f64();
    if how.setup_only {
        return Rep::set_up(setup_s);
    }

    let mut faults = Vec::new();
    let programmed = world
        .node_as::<Controller>(fab.controller)
        .find_app::<ProactiveFabric>()
        .is_some_and(ProactiveFabric::programmed);
    if !programmed {
        faults.push("fabric_forward: fabric not programmed when traffic starts".to_string());
    }
    if how.record {
        world.recorder().set_enabled(true);
    }

    let before = snap(&world, &fab.controllers, &fab.switches);
    let end = FORWARD_START + FORWARD_GAP.mul(datagrams) + Duration::from_millis(1);
    let t = timed(|| world.run_until(end));
    let after = snap(&world, &fab.controllers, &fab.switches);
    let trace = span::end();

    let attempted = n as u64 * datagrams;
    let delivered = udp_delivered(&world, &fab.hosts);
    let punts = after.packet_ins - before.packet_ins;
    let drops = after.drops_queue - before.drops_queue;
    if delivered != attempted {
        faults.push(format!(
            "fabric_forward: delivered {delivered} of {attempted} datagrams"
        ));
    }
    if punts != 0 {
        faults.push(format!(
            "fabric_forward: {punts} PACKET_INs on the cached path"
        ));
    }
    if drops != 0 {
        faults.push(format!("fabric_forward: {drops} queue drops"));
    }
    let work = after.tx_frames - before.tx_frames;
    let mut exact = exact_between(&before, &after, work);
    set_latency(&mut exact, &latencies_us(&mut world));
    Rep {
        setup_s,
        wall_s: t.wall_s,
        work,
        events: after.events - before.events,
        attempted,
        failed: attempted - delivered.min(attempted) + punts,
        digest: world_digest(&world, &fab.controllers, &fab.switches, &fab.hosts).finish(),
        exact,
        faults,
        probes: before.probes_until(&after),
        trace,
        loop_allocs: t.allocs,
        loop_alloc_bytes: t.bytes,
    }
}

// ---------------------------------------------------------------- reactive_churn

/// Flows idle out after this long; datagrams of one flow are further
/// apart, so each one is a first packet.
const CHURN_IDLE: Duration = Duration::from_millis(20);
const CHURN_GAP: Duration = Duration::from_millis(50);
/// After the hosts' last gratuitous ARP (t = 1 s).
const CHURN_START: Instant = Instant::from_millis(1_100);

fn reactive_churn(seed: u64, size: Size, how: How) -> Rep {
    let trace = how.trace;
    let (per_flow, peers) = match size {
        Size::Full => (750u64, 8usize),
        Size::Smoke => (12, 4),
    };
    let setup_from = WallInstant::now();
    if trace {
        span::begin();
    }
    let topo = Topology::fat_tree(4, LinkParams::default());
    let n = topo.host_count();
    let mut input = Rng::new(seed);
    let order = cyclic_order(&mut input, n);
    let mut pos = vec![0usize; n];
    for (j, &i) in order.iter().enumerate() {
        pos[i] = j;
    }
    // staggers[i][d]: offset of host i's flow to its d-th peer.
    let staggers: Vec<Vec<u64>> = (0..n)
        .map(|_| {
            (0..peers)
                .map(|_| input.gen_range(CHURN_GAP.as_nanos()))
                .collect()
        })
        .collect();

    let mut world = World::new(seed);
    let mut app = ReactiveForwarding::new();
    app.idle_timeout = CHURN_IDLE.as_nanos();
    let mut apps: Option<Vec<Box<dyn App>>> = Some(vec![Box::new(app)]);
    let fab = fabric::build(
        &mut world,
        &topo,
        |_| apps.take().expect("one controller"),
        FabricOptions::default(),
        |i, mac, ip| {
            let mut host = Host::new(mac, ip).with_gratuitous_arp();
            for d in 0..peers {
                let p = order[(pos[i] + d + 1) % n];
                host = host
                    .with_static_arp(default_host_ip(p), default_host_mac(p))
                    .with_workload(Traffic::Udp {
                        dst: default_host_ip(p),
                        dst_port: 9,
                        size: 20,
                        count: per_flow,
                        interval: CHURN_GAP,
                        start: CHURN_START + Duration::from_nanos(staggers[i][d]),
                    });
            }
            host
        },
        trace,
    );
    world.run_until(Instant::from_nanos(CHURN_START.as_nanos() - 1));
    let setup_s = setup_from.elapsed().as_secs_f64();
    if how.setup_only {
        return Rep::set_up(setup_s);
    }

    let installed = |world: &World| {
        world
            .node_as::<Controller>(fab.controller)
            .find_app::<ReactiveForwarding>()
            .expect("reactive app present")
            .paths_installed
    };
    let before = snap(&world, &fab.controllers, &fab.switches);
    let installed_before = installed(&world);
    let end = CHURN_START + CHURN_GAP.mul(per_flow + 1);
    let t = timed(|| world.run_until(end));
    let after = snap(&world, &fab.controllers, &fab.switches);
    let trace = span::end();

    let attempted = (n * peers) as u64 * per_flow;
    let delivered = udp_delivered(&world, &fab.hosts);
    let punts = after.packet_ins - before.packet_ins;
    let mods_failed = after.mods_failed - before.mods_failed;
    let work = installed(&world) - installed_before;
    let mut faults = Vec::new();
    if delivered != attempted {
        faults.push(format!(
            "reactive_churn: delivered {delivered} of {attempted} datagrams"
        ));
    }
    if punts < attempted {
        faults.push(format!(
            "reactive_churn: {punts} punts for {attempted} datagrams — flows outlived their idle timeout"
        ));
    }
    if work < attempted {
        faults.push(format!(
            "reactive_churn: {work} paths installed for {attempted} datagrams"
        ));
    }
    let mut exact = exact_between(&before, &after, work);
    set_latency(&mut exact, &latencies_us(&mut world));
    Rep {
        setup_s,
        wall_s: t.wall_s,
        work,
        events: after.events - before.events,
        attempted,
        failed: attempted - delivered.min(attempted) + mods_failed,
        digest: world_digest(&world, &fab.controllers, &fab.switches, &fab.hosts).finish(),
        exact,
        faults,
        probes: before.probes_until(&after),
        trace,
        loop_allocs: t.allocs,
        loop_alloc_bytes: t.bytes,
    }
}

// ---------------------------------------------------------------- cbench_closed

const CBENCH_SWITCHES: usize = 8;
const CBENCH_WARMUP: Instant = Instant::from_millis(5);

fn cbench_closed(seed: u64, size: Size, how: How) -> Rep {
    let trace = how.trace;
    let target = match size {
        Size::Full => 600_000u64,
        Size::Smoke => 6_000,
    };
    let setup_from = WallInstant::now();
    if trace {
        span::begin();
    }
    let mut world = World::new(seed);
    let ctl = Controller::new(vec![Box::new(L2Learning::new())]);
    let controller = world.add_node(boxed(ctl, Layer::Controller, trace));
    let cfg = CbenchConfig {
        mode: CbenchMode::Closed { outstanding: 8 },
        sources: 64,
        payload_len: 64,
        ..CbenchConfig::default()
    };
    let switches: Vec<NodeId> = (0..CBENCH_SWITCHES)
        .map(|dpid| {
            let sw = CbenchSwitch::new(dpid as u64, controller, cfg);
            world.add_node(boxed(sw, Layer::Cbench, trace))
        })
        .collect();
    // Handshake, primer, and the first punt waves.
    world.run_until(CBENCH_WARMUP);
    let setup_s = setup_from.elapsed().as_secs_f64();
    if how.setup_only {
        return Rep::set_up(setup_s);
    }

    let sum = |world: &World, f: fn(&CbenchSwitch) -> u64| -> u64 {
        switches
            .iter()
            .map(|&id| f(world.node_as::<CbenchSwitch>(id)))
            .sum()
    };
    let setups = |world: &World| sum(world, |s| s.stats.flow_mods);
    let before = snap(&world, &[controller], &[]);
    let setups_before = setups(&world);
    let punts_before = sum(&world, |s| s.stats.punts_sent);
    let skip: Vec<usize> = switches
        .iter()
        .map(|&id| world.node_as::<CbenchSwitch>(id).sim_setup_ns.len())
        .collect();
    let t = timed(|| loop {
        for _ in 0..4096 {
            if world.step().is_none() {
                return;
            }
        }
        if setups(&world) - setups_before >= target {
            return;
        }
    });
    let after = snap(&world, &[controller], &[]);
    let trace = span::end();

    let work = setups(&world) - setups_before;
    let attempted = sum(&world, |s| s.stats.punts_sent) - punts_before;
    let lost = sum(&world, |s| s.stats.setups_lost);
    let decode_errors = sum(&world, |s| s.stats.decode_errors) + after.decode_errors;
    let mut faults = Vec::new();
    if work < target {
        faults.push(format!(
            "cbench_closed: loop drained at {work} of {target} setups"
        ));
    }
    if lost != 0 {
        faults.push(format!("cbench_closed: {lost} setups lost"));
    }
    if decode_errors != 0 {
        faults.push(format!("cbench_closed: {decode_errors} decode errors"));
    }
    let mut exact = exact_between(&before, &after, work);
    let mut digest = world_digest(&world, &[controller], &[], &[]);
    let mut sim_us = Vec::new();
    for (i, &id) in switches.iter().enumerate() {
        let sw = world.node_as::<CbenchSwitch>(id);
        digest.str(&format!("{:?}", sw.stats));
        sim_us.extend(
            sw.sim_setup_ns
                .iter()
                .skip(skip[i])
                .map(|&ns| ns as f64 / 1e3),
        );
    }
    set_latency(&mut exact, &sim_us);
    Rep {
        setup_s,
        wall_s: t.wall_s,
        work,
        events: after.events - before.events,
        attempted,
        failed: lost + decode_errors,
        digest: digest.finish(),
        exact,
        faults,
        probes: before.probes_until(&after),
        trace,
        loop_allocs: t.allocs,
        loop_alloc_bytes: t.bytes,
    }
}

// ---------------------------------------------------------------- the shard pair

/// The second engine on `fabric_forward`'s fat-tree: 1-shard and
/// 2-shard runs of the same seeded traffic, [`SHARD_RUNS`] of each.
///
/// Not a workload of its own. Between identical processes its rate
/// moves by ±5 % at 1 shard and up to ±15 % at 2 on a shared 2-core box
/// (and its peak RSS by ±15 %: a fresh malloc arena per worker thread)
/// — no bound it could be held to. Its numbers are per-layer metrics of
/// `fabric_forward`'s traced run, each the median of its runs.
pub struct ShardPair {
    /// Link frames per wall second of every run at 1 and at 2 shards.
    pub frames_per_s: [Vec<f64>; 2],
    /// Failed checks.
    pub faults: Vec<String>,
}

/// Timed runs per shard count: a fresh `ShardedWorld` each.
const SHARD_RUNS: usize = 3;

fn shard_world(seed: u64, k: usize) -> (ShardedWorld, usize) {
    let mut world = ShardedWorld::new(seed);
    // E21's quick parameters.
    let fab = build_shard_fat_tree(
        &mut world,
        k,
        LinkParams::instant(Duration::from_micros(5)),
        LinkParams::instant(Duration::from_micros(2)),
        Duration::from_micros(100),
        4,
    );
    (world, fab.hosts.len())
}

/// The merged counters of a finished sharded run, plus its digest.
fn shard_counters(world: &ShardedWorld) -> (Vec<(String, u64)>, Option<u64>) {
    let counters = world
        .metrics()
        .counters()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    (counters, world.digest())
}

pub fn shard_pair(seed: u64, size: Size) -> ShardPair {
    let (k, span_us) = match size {
        Size::Full => (8, 100_000u64),
        Size::Smoke => (4, 2_000),
    };
    let mut faults = Vec::new();
    let mut frames_per_s = [Vec::new(), Vec::new()];
    let mut finished = Vec::new();
    // Alternating, so a slow minute of the box falls on both counts.
    for _ in 0..SHARD_RUNS {
        for shards in [1usize, 2] {
            let (mut world, hosts) = shard_world(seed, k);
            let t0 = WallInstant::now();
            world.run_until(Instant::from_micros(span_us), shards);
            let wall_s = t0.elapsed().as_secs_f64();
            let m = world.metrics();
            frames_per_s[shards - 1].push(m.counter("sim.tx_frames") as f64 / wall_s);
            let drops = m.counter("sim.drops_down")
                + m.counter("sim.drops_queue")
                + m.counter("sim.drops_in_flight")
                + m.counter("sim.tx_no_link");
            // Each host has at most one burst of 4 in flight at the
            // deadline; anything beyond that was punted or blackholed.
            let missing = m
                .counter("fabric.host_tx")
                .saturating_sub(m.counter("fabric.host_rx") + 4 * hosts as u64);
            if drops != 0 {
                faults.push(format!(
                    "shard pair: {drops} frames dropped at {shards} shards"
                ));
            }
            if missing != 0 {
                faults.push(format!(
                    "shard pair: {missing} frames neither delivered nor in flight at {shards} shards"
                ));
            }
            finished.push((shard_counters(&world).0, world.events_processed()));
        }
    }
    if finished.iter().any(|f| *f != finished[0]) {
        faults.push("shard pair: counters differ at 1 and 2 shards".to_string());
    }
    // The run digest folds every delivery, so it is checked on a
    // shorter span with the digest on, not on the timed runs.
    let digests: Vec<Option<u64>> = [1usize, 2]
        .into_iter()
        .map(|shards| {
            let (mut world, _) = shard_world(seed, k);
            world.set_digest_enabled(true);
            world.run_until(Instant::from_micros(span_us / 8), shards);
            world.digest()
        })
        .collect();
    if digests[0].is_none() || digests[0] != digests[1] {
        faults.push("shard pair: digest differs at 1 and 2 shards".to_string());
    }
    ShardPair {
        frames_per_s,
        faults,
    }
}

// ---------------------------------------------------------------- cluster_churn

const CLUSTER_START: Instant = Instant::from_secs(2);
const CYCLE: Duration = Duration::from_secs(2);
const FLAP_GAP: Duration = Duration::from_millis(50);
const INTENT_GAP: Duration = Duration::from_millis(20);
const ISOLATE_FROM: Duration = Duration::from_millis(700);
const ISOLATE_FOR: Duration = Duration::from_millis(600);
/// Fault-free tail so pending intents commit and mastership settles.
const SETTLE: Duration = Duration::from_secs(1);
/// How long before the timed section the probe stream starts.
const PROBE_LEAD: Duration = Duration::from_millis(100);
const CHURN_OWNER: &str = "ledger";

/// The benchmark's own app: proposes an `AclDeny` install or withdrawal
/// every [`INTENT_GAP`] and times each proposal to its commit callback.
struct IntentChurn {
    until: Instant,
    /// First UDP port the deny rules name (the seed's choice).
    base_port: u16,
    next_due: Instant,
    proposed: u64,
    pending: BTreeMap<u64, Instant>,
    commit_ms: Vec<f64>,
    /// Commit callbacks for tokens not pending: a second commit.
    duplicates: u64,
}

impl IntentChurn {
    fn new(until: Instant, base_port: u16) -> IntentChurn {
        IntentChurn {
            until,
            base_port,
            next_due: CLUSTER_START,
            proposed: 0,
            pending: BTreeMap::new(),
            commit_ms: Vec::new(),
            duplicates: 0,
        }
    }
}

impl App for IntentChurn {
    fn name(&self) -> &'static str {
        CHURN_OWNER
    }

    fn tick(&mut self, ctl: &mut Ctl<'_, '_>) {
        while self.next_due <= ctl.now() && self.next_due < self.until {
            // Install a deny, then withdraw it: the rule set stays
            // small however long the workload runs.
            let rule = self.proposed / 2;
            let intent = Intent::AclDeny {
                priority: 900,
                matcher: FlowMatch::ANY
                    .with_ip_proto(17)
                    .with_l4_dst(self.base_port + (rule % 64) as u16),
                install: self.proposed.is_multiple_of(2),
            };
            let token = ctl.propose_intent(CHURN_OWNER, intent);
            self.pending.insert(token, ctl.now());
            self.proposed += 1;
            self.next_due += INTENT_GAP;
        }
    }

    fn on_update_committed(&mut self, ctl: &mut Ctl<'_, '_>, owner: &'static str, token: u64) {
        if owner != CHURN_OWNER {
            return;
        }
        match self.pending.remove(&token) {
            Some(at) => self
                .commit_ms
                .push(ctl.now().duration_since(at).as_nanos() as f64 / 1e6),
            None => self.duplicates += 1,
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn cluster_churn(seed: u64, size: Size, how: How) -> Rep {
    let trace = how.trace;
    let cycles = match size {
        Size::Full => 15u64,
        Size::Smoke => 1,
    };
    const REPLICAS: usize = 3;
    const PROPOSER: usize = 2;
    let setup_from = WallInstant::now();
    if trace {
        span::begin();
    }
    let topo = Topology::fat_tree(4, LinkParams::default());
    let n = topo.host_count();
    let opts = FabricOptions {
        n_controllers: REPLICAS,
        controller_cfg: ControllerConfig {
            tick_interval: INTENT_GAP,
            ..ControllerConfig::default()
        },
        ..FabricOptions::default()
    };
    let inventory = fabric::inventory(&topo, opts);
    let churn_end = CLUSTER_START + CYCLE.mul(cycles);
    let end = churn_end + SETTLE;
    // The probes start a little before the timed section, so the links
    // they ride can be told from the rest and one of them flapped.
    let probe_start = Instant::from_nanos(CLUSTER_START.as_nanos() - PROBE_LEAD.as_nanos());
    let probes = end.duration_since(probe_start).as_millis();
    let (src, dst) = (0, n - 1);
    let base_port = 9_000 + (seed % 1_000) as u16;

    let mut world = World::new(seed);
    let expected_links = 2 * topo.links.len();
    let fab = fabric::build(
        &mut world,
        &topo,
        |i| {
            let mut apps: Vec<Box<dyn App>> = vec![
                Box::new(Acl::new(Vec::new())),
                Box::new(ProactiveFabric::new(
                    inventory.clone(),
                    topo.switches,
                    expected_links,
                )),
            ];
            if i == PROPOSER {
                apps.push(Box::new(IntentChurn::new(churn_end, base_port)));
            }
            apps
        },
        opts,
        |i, mac, ip| {
            let host = Host::new(mac, ip);
            if i == src {
                host.with_static_arp(default_host_ip(dst), FABRIC_MAC)
                    .with_workload(Traffic::Udp {
                        dst: default_host_ip(dst),
                        dst_port: 9,
                        size: 100,
                        count: probes,
                        interval: Duration::from_millis(1),
                        start: probe_start,
                    })
            } else {
                host
            }
        },
        trace,
    );
    // The churn schedule: the last fabric link the probes ride (the
    // downlink into their destination's edge switch, which no upstream
    // ECMP group can route around, so every flap needs the controllers)
    // flaps throughout, and each cycle isolates the next replica in
    // turn, so the consensus leader and every switch master get killed.
    // The seed feeds only `World::new`: which link flaps changes how
    // much reprogramming a cycle holds, and the rate must not depend on
    // the seed.
    let link_bytes = |world: &World| -> Vec<u64> {
        fab.switch_links
            .iter()
            .map(|&id| {
                let link = world.link(id);
                link.ab.tx_bytes + link.ba.tx_bytes
            })
            .collect()
    };
    world.run_until(probe_start);
    let quiet = link_bytes(&world);
    world.run_until(Instant::from_nanos(CLUSTER_START.as_nanos() - 1));
    let carried: Vec<u64> = link_bytes(&world)
        .iter()
        .zip(&quiet)
        .map(|(now, then)| now - then)
        .collect();
    let busiest = carried.iter().copied().max().unwrap_or(0);
    let ridden = carried
        .iter()
        .rposition(|&bytes| bytes > busiest / 2)
        .expect("a fabric has links");
    let flapped = fab.switch_links[ridden];
    let mut plan = FaultPlan::default();
    for c in 0..cycles {
        let base = CLUSTER_START + CYCLE.mul(c);
        // 38 flips per cycle: the link ends each cycle up.
        for j in 1..=38u64 {
            world.schedule_link_state(flapped, j % 2 == 0, base + FLAP_GAP.mul(j));
        }
        let from = base + ISOLATE_FROM;
        plan = plan.isolate(
            fab.controllers[c as usize % REPLICAS],
            Window::new(from, from + ISOLATE_FOR),
        );
    }
    world.set_fault_plan(plan);
    let setup_s = setup_from.elapsed().as_secs_f64();
    if how.setup_only {
        return Rep::set_up(setup_s);
    }

    let before = snap(&world, &fab.controllers, &fab.switches);
    // Step a millisecond at a time — the probe period — to find the
    // longest run of periods in which no probe arrived.
    let mut hole_ms = 0u64;
    let t = timed(|| {
        let mut gap = 0u64;
        let mut seen = 0u64;
        let mut now = CLUSTER_START;
        while now < end {
            now += Duration::from_millis(1);
            world.run_until(now);
            let rx = world.node_as::<Host>(fab.hosts[dst]).stats.udp_rx;
            if rx == seen {
                gap += 1;
                hole_ms = hole_ms.max(gap);
            } else {
                gap = 0;
                seen = rx;
            }
        }
    });
    let after = snap(&world, &fab.controllers, &fab.switches);
    let trace = span::end();

    let churn = world
        .node_as::<Controller>(fab.controllers[PROPOSER])
        .find_app::<IntentChurn>()
        .expect("intent churn app present");
    let attempted = churn.proposed;
    let never = churn.pending.len() as u64;
    let twice = churn.duplicates;
    let commit_p99 = tail(&churn.commit_ms, 0.99);
    let mut digest = world_digest(&world, &fab.controllers, &fab.switches, &fab.hosts);
    for &ms in &churn.commit_ms {
        digest.u64(ms.to_bits());
    }
    let badly_mastered = (0..topo.switches as u64)
        .filter(|dpid| {
            let masters = fab
                .controllers
                .iter()
                .filter(|&&c| world.node_as::<Controller>(c).is_master_of(*dpid))
                .count();
            masters != 1
        })
        .count() as u64;
    let mut faults = Vec::new();
    if attempted == 0 {
        faults.push("cluster_churn: no intent was proposed".to_string());
    }
    if never != 0 {
        faults.push(format!("cluster_churn: {never} intents never committed"));
    }
    if twice != 0 {
        faults.push(format!("cluster_churn: {twice} intents committed twice"));
    }
    if badly_mastered != 0 {
        faults.push(format!(
            "cluster_churn: {badly_mastered} switches without exactly one master"
        ));
    }
    let work = end.duration_since(CLUSTER_START).as_millis();
    let mut exact = exact_between(&before, &after, work);
    set_latency(&mut exact, &latencies_us(&mut world));
    exact.insert("sim.failover_hole_ms", hole_ms as f64);
    exact.insert("sim.intent_commit_p99_ms", commit_p99);
    digest.u64(hole_ms);
    Rep {
        setup_s,
        wall_s: t.wall_s,
        work,
        events: after.events - before.events,
        attempted,
        failed: never + twice + badly_mastered,
        digest: digest.finish(),
        exact,
        faults,
        probes: before.probes_until(&after),
        trace,
        loop_allocs: t.allocs,
        loop_alloc_bytes: t.bytes,
    }
}
