//! Kernel metrics: one public function of one layer, timed on inputs
//! shaped like the workloads'. Each is the median of [`BATCHES`]
//! batches of at least [`MIN_BATCH`], in nanoseconds per call.
//!
//! They exist so that a span's time can be explained (kernel × count)
//! and so that a layer's own cost is visible when the end-to-end
//! number it feeds does not move.

use std::any::Any;
use std::hint::black_box;
use std::time::{Duration as WallDuration, Instant as WallInstant};

use zen_core::apps::proactive::FABRIC_MAC;
use zen_core::apps::reactive::REACTIVE_COOKIE;
use zen_core::apps::ProactiveFabric;
use zen_core::harness::{default_host_ip, default_host_mac, FabricOptions};
use zen_core::SwitchAgent;
use zen_dataplane::{
    Action, Datapath, Effect, FlowKey, FlowMatch, FlowSpec, FlowTable, MissPolicy, PortNo,
};
use zen_graph::{dijkstra, Graph};
use zen_proto::{decode, decode_view, encode, encode_packet_out, FlowModCmd, Message, OriginHead};
use zen_sim::{
    Context, Duration, Histogram, Host, Instant, LinkParams, Node, NodeId, Rng, Topology, World,
};
use zen_telemetry::{Recorder, PROBE_MAGIC};
use zen_wire::builder::PacketBuilder;
use zen_wire::ethernet::Frame;
use zen_wire::{ipv4, udp, EthernetAddress};

use crate::alloc;
use crate::fabric;
use crate::stats::{median, Better};

pub const BATCHES: usize = 10;
pub const MIN_BATCH: WallDuration = WallDuration::from_millis(10);

/// Name and unit of every kernel metric, in report order.
pub const KERNEL_METRICS: [(&str, &str, Better); 24] = [
    ("sim.world.ring_event_ns", "ns", Better::Lower),
    ("sim.world.timer_event_ns", "ns", Better::Lower),
    ("sim.world.control_event_ns", "ns", Better::Lower),
    ("sim.stats.histogram_record_ns", "ns", Better::Lower),
    ("sim.stats.histogram_p99_ns_at_1e6", "ns", Better::Lower),
    ("dataplane.datapath.micro_hit_ns", "ns", Better::Lower),
    ("dataplane.datapath.mega_hit_ns", "ns", Better::Lower),
    ("dataplane.datapath.miss_ns", "ns", Better::Lower),
    ("dataplane.datapath.batch_ns_per_frame", "ns", Better::Lower),
    (
        "dataplane.datapath.allocs_per_micro_hit",
        "count",
        Better::Lower,
    ),
    ("dataplane.table.add_flow_ns", "ns", Better::Lower),
    ("dataplane.table.expire_ns_per_entry", "ns", Better::Lower),
    ("dataplane.key.extract_ns", "ns", Better::Lower),
    ("proto.codec.decode_view_packet_in_ns", "ns", Better::Lower),
    ("proto.codec.encode_packet_in_ns", "ns", Better::Lower),
    ("proto.codec.encode_flow_mod_ns", "ns", Better::Lower),
    ("proto.codec.decode_flow_mod_ns", "ns", Better::Lower),
    ("proto.codec.encode_packet_out_ns", "ns", Better::Lower),
    (
        "proto.codec.allocs_per_setup_roundtrip",
        "count",
        Better::Lower,
    ),
    ("proto.codec.ew_digest_roundtrip_ns", "ns", Better::Lower),
    ("wire.builder.udp_build_ns", "ns", Better::Lower),
    ("wire.parse.udp_checked_ns", "ns", Better::Lower),
    ("graph.dijkstra_k4_ns", "ns", Better::Lower),
    (
        "telemetry.recorder.disabled_overhead_pct",
        "%",
        Better::Lower,
    ),
];

/// Nanoseconds per call of `f`.
fn time_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut iters = 1u64;
    loop {
        let t0 = WallInstant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let spent = t0.elapsed();
        if spent >= MIN_BATCH || iters >= 1 << 30 {
            break;
        }
        // Aim a little past the floor once there is a rate estimate.
        let target = (iters as u128 * MIN_BATCH.as_nanos() * 5 / 4)
            .checked_div(spent.as_nanos())
            .map_or(iters * 2, |t| t as u64 + 1);
        iters = target.clamp(iters + 1, iters * 32);
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = WallInstant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

// ---------------------------------------------------------------- zen-sim

/// Forwards every frame to its other port.
struct Relay;

impl Node for Relay {
    fn on_packet(&mut self, ctx: &mut Context<'_>, port: PortNo, frame: &[u8]) {
        ctx.transmit(if port == 1 { 2 } else { 1 }, frame.to_vec());
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Puts `n` 200-byte frames into the ring, then relays like the rest.
struct Kicker {
    n: usize,
}

impl Node for Kicker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for _ in 0..self.n {
            ctx.transmit(1, vec![0u8; 200]);
        }
    }
    fn on_packet(&mut self, ctx: &mut Context<'_>, _port: PortNo, frame: &[u8]) {
        ctx.transmit(1, frame.to_vec());
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Re-arms each of its timers as it fires.
struct TimerStorm {
    fanout: u64,
}

impl Node for TimerStorm {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        for t in 0..self.fanout {
            ctx.set_timer(Duration::from_micros(t + 1), t);
        }
    }
    fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        ctx.set_timer(Duration::from_micros(self.fanout), token);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Answers every control message with one of the same size.
struct PingPong {
    peer: NodeId,
    serve: bool,
}

impl Node for PingPong {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.serve {
            ctx.send_control(self.peer, vec![0u8; 100]);
        }
    }
    fn on_packet(&mut self, _: &mut Context<'_>, _: PortNo, _: &[u8]) {}
    fn on_control(&mut self, ctx: &mut Context<'_>, from: NodeId, bytes: &[u8]) {
        ctx.send_control(from, bytes.to_vec());
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One `World::step` on a ring of 10 relays with 100 frames in flight.
fn ring_event_ns() -> f64 {
    let mut world = World::new(1);
    let kicker = world.add_node(Box::new(Kicker { n: 100 }));
    let mut prev = kicker;
    for _ in 0..10 {
        let node = world.add_node(Box::new(Relay));
        world.connect(prev, node, LinkParams::default());
        prev = node;
    }
    world.connect(prev, kicker, LinkParams::default());
    time_ns(|| world.step())
}

/// One `World::step` of a 1 000-timer storm.
fn timer_event_ns() -> f64 {
    let mut world = World::new(1);
    world.add_node(Box::new(TimerStorm { fanout: 1_000 }));
    time_ns(|| world.step())
}

/// One `World::step` of two nodes ping-ponging a 100-byte control message.
fn control_event_ns() -> f64 {
    let mut world = World::new(1);
    let a = world.add_node(Box::new(PingPong {
        peer: NodeId(1),
        serve: true,
    }));
    world.add_node(Box::new(PingPong {
        peer: a,
        serve: false,
    }));
    time_ns(|| world.step())
}

fn histogram_record_ns() -> f64 {
    let mut hist = Histogram::new();
    let mut x = 0.0f64;
    time_ns(|| {
        // Bounded like a run's histogram, so the kernel times the
        // amortized push and not an ever-larger reallocation.
        if hist.count() >= 1_000_000 {
            hist = Histogram::new();
        }
        x += 1e-6;
        hist.record(x);
    })
}

/// `Histogram::quantile(0.99)` on a fresh million samples (the sort is
/// cached, so each timing takes a fresh clone; the clone is not timed).
fn histogram_p99_ns_at_1e6() -> f64 {
    let mut rng = Rng::new(7);
    let mut base = Histogram::new();
    for _ in 0..1_000_000 {
        base.record(rng.gen_f64());
    }
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut hist = base.clone();
            let t0 = WallInstant::now();
            black_box(hist.quantile(0.99));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

// ---------------------------------------------------------------- zen-dataplane

/// A 20-byte probe datagram, as `fabric_forward`'s hosts send.
fn probe_frame(src: usize, dst: usize, dst_mac: EthernetAddress, sport: u16) -> Vec<u8> {
    let mut payload = [0u8; 20];
    payload[0..4].copy_from_slice(&PROBE_MAGIC.to_be_bytes());
    PacketBuilder::udp(
        default_host_mac(src),
        default_host_ip(src),
        sport,
        dst_mac,
        default_host_ip(dst),
        9,
        &payload,
    )
}

struct DataplaneKernels {
    micro_hit_ns: f64,
    mega_hit_ns: f64,
    miss_ns: f64,
    batch_ns_per_frame: f64,
    allocs_per_micro_hit: f64,
}

/// `Datapath::process` on a k=8 edge switch as `ProactiveFabric`
/// programs it: the fabric is built and discovered exactly as
/// `fabric_forward` does, then edge switch 0's datapath is driven
/// directly with frames from its first host to the last pod.
fn dataplane_kernels() -> DataplaneKernels {
    let topo = Topology::fat_tree(8, LinkParams::default());
    let n = topo.host_count();
    let opts = FabricOptions::default();
    let inventory = fabric::inventory(&topo, opts);
    let mut world = World::new(1);
    let fab = fabric::build(
        &mut world,
        &topo,
        |_| {
            vec![Box::new(ProactiveFabric::new(
                inventory.clone(),
                topo.switches,
                2 * topo.links.len(),
            ))]
        },
        opts,
        |_, mac, ip| Host::new(mac, ip),
        false,
    );
    world.run_until(Instant::from_secs(1));
    let now = world.now().as_nanos();
    let (edge, in_port) = fab.host_attach[0];
    let dp = &mut world.node_as_mut::<SwitchAgent>(fab.switches[edge]).dp;
    let frames = |count: usize| -> Vec<Vec<u8>> {
        (0..count)
            .map(|i| probe_frame(0, n - 1, FABRIC_MAC, 10_000 + i as u16))
            .collect()
    };

    // Eight live flows: after the first pass every probe is a
    // microflow hit.
    let few = frames(8);
    let mut i = 0usize;
    let mut micro = || {
        i += 1;
        dp.process(now, in_port, &few[i % few.len()]).len()
    };
    let micro_hit_ns = time_ns(&mut micro);
    let allocs_per_micro_hit = alloc::per_call(10_000, &mut micro);

    // More flows than the microflow tier holds (8 192, FIFO): cycling
    // through them, every probe misses tier 1 and hits the megaflow.
    let many = frames(16_384);
    let mut i = 0usize;
    let mega_hit_ns = time_ns(|| {
        i += 1;
        dp.process(now, in_port, &many[i % many.len()]).len()
    });

    // 32 same-instant frames of 8 flows, effects buffer reused.
    let batch: Vec<(PortNo, &[u8])> = (0..32).map(|j| (in_port, few[j % 8].as_slice())).collect();
    let mut effects: Vec<Effect> = Vec::new();
    let batch_ns_per_frame = time_ns(|| {
        effects.clear();
        dp.process_batch(now, &batch, &mut effects);
        effects.len()
    }) / batch.len() as f64;

    // Cache off: the full table walk a miss pays.
    dp.set_flow_cache_enabled(false);
    let mut i = 0usize;
    let miss_ns = time_ns(|| {
        i += 1;
        dp.process(now, in_port, &few[i % few.len()]).len()
    });
    DataplaneKernels {
        micro_hit_ns,
        mega_hit_ns,
        miss_ns,
        batch_ns_per_frame,
        allocs_per_micro_hit,
    }
}

fn l2_match(i: u64) -> FlowMatch {
    FlowMatch {
        eth_src: Some(EthernetAddress::from_id(0x50_0000 + i)),
        eth_dst: Some(EthernetAddress::from_id(0x51_0000 + i)),
        ..FlowMatch::ANY
    }
}

fn reactive_spec(i: u64) -> FlowSpec {
    FlowSpec::new(100, l2_match(i), vec![Action::Output(3)])
        .with_timeouts(20_000_000, 0)
        .with_cookie(REACTIVE_COOKIE)
}

/// `(add_flow_ns, expire_ns_per_entry)` on a 1 000-entry table of the
/// entries `ReactiveForwarding` installs. The add is of a new entry,
/// paired with the strict delete that restores the table.
fn table_kernels() -> (f64, f64) {
    const ENTRIES: u64 = 1_000;
    let mut table = FlowTable::new();
    for i in 0..ENTRIES {
        table.add(reactive_spec(i), 0);
    }
    let extra = reactive_spec(ENTRIES);
    let add_flow_ns = time_ns(|| {
        black_box(table.add(extra.clone(), 1));
        table.delete_strict(extra.priority, &extra.matcher)
    });
    // Nothing has idled out at t = 1 ns: a pure scan.
    let expire_ns = time_ns(|| table.expire(1).len());
    (add_flow_ns, expire_ns / ENTRIES as f64)
}

/// `micro_hit` with a disabled shared recorder attached versus none —
/// E14's method, on a small two-table pipeline.
fn recorder_disabled_overhead_pct() -> f64 {
    let build = || {
        let mut dp = Datapath::new(1, 2, MissPolicy::Drop);
        for p in 1..=4 {
            dp.add_port(p);
        }
        dp.add_flow(0, FlowSpec::new(1, FlowMatch::ANY, vec![]).with_goto(1), 0);
        for d in 0..64u16 {
            dp.add_flow(
                1,
                FlowSpec::new(
                    10,
                    FlowMatch::ANY.with_ip_proto(17).with_l4_dst(1_000 + d),
                    vec![Action::Output(2 + u32::from(d % 3))],
                ),
                0,
            );
        }
        dp
    };
    let frames: Vec<Vec<u8>> = (0..8)
        .map(|i| {
            let mut f = probe_frame(0, 1, default_host_mac(1), 2_000 + i);
            // Re-target the UDP destination port at a forwarding rule.
            let l4 = 14 + 20;
            f[l4 + 2..l4 + 4].copy_from_slice(&(1_000 + i).to_be_bytes());
            f
        })
        .collect();
    let mut bare = build();
    let mut shared = build();
    shared.set_recorder(Recorder::new());
    let run = |dp: &mut Datapath| {
        let mut i = 0usize;
        time_ns(|| {
            i += 1;
            dp.process(i as u64, 1, &frames[i % frames.len()]).len()
        })
    };
    // Interleaved, so drift in the box's speed hits both sides.
    let mut bare_ns = Vec::new();
    let mut shared_ns = Vec::new();
    for _ in 0..3 {
        bare_ns.push(run(&mut bare));
        shared_ns.push(run(&mut shared));
    }
    (median(&shared_ns) / median(&bare_ns) - 1.0) * 100.0
}

// ---------------------------------------------------------------- zen-proto, zen-wire, zen-graph

struct CodecKernels {
    decode_view_packet_in_ns: f64,
    encode_packet_in_ns: f64,
    encode_flow_mod_ns: f64,
    decode_flow_mod_ns: f64,
    encode_packet_out_ns: f64,
    allocs_per_setup_roundtrip: f64,
    ew_digest_roundtrip_ns: f64,
}

/// The three messages of one reactive flow setup, at the sizes
/// `reactive_churn` produces (a 62-byte probe frame).
fn codec_kernels() -> CodecKernels {
    let frame = probe_frame(0, 1, default_host_mac(1), 10_000);
    let packet_in = Message::PacketIn {
        in_port: 3,
        table_id: 0,
        is_miss: true,
        frame: frame.clone(),
    };
    let flow_mod = Message::FlowMod {
        table_id: 0,
        cmd: FlowModCmd::Add(reactive_spec(0)),
    };
    let actions = [Action::Output(2)];
    let packet_in_wire = encode(&packet_in, 7);
    let flow_mod_wire = encode(&flow_mod, 8);
    let packet_out_wire = encode_packet_out(3, &actions, &frame, 9);
    let digest = Message::EwDigest {
        replica: 1,
        term: 4,
        heads: (0..3)
            .map(|origin| OriginHead {
                origin,
                floor: 10,
                head: 250,
                hash: 0x1234_5678_9abc_def0 ^ u64::from(origin),
            })
            .collect(),
    };
    let allocs_per_setup_roundtrip = alloc::per_call(10_000, || {
        let a = decode_view(&packet_in_wire).expect("valid PACKET_IN").2;
        let b = encode(&flow_mod, 8).len();
        let c = decode(&flow_mod_wire).expect("valid FLOW_MOD").2;
        let d = encode_packet_out(3, &actions, &frame, 9).len();
        let e = decode_view(&packet_out_wire).expect("valid PACKET_OUT").2;
        a + b + c + d + e
    });
    CodecKernels {
        decode_view_packet_in_ns: time_ns(|| decode_view(&packet_in_wire).expect("valid").2),
        encode_packet_in_ns: time_ns(|| encode(&packet_in, 7)),
        encode_flow_mod_ns: time_ns(|| encode(&flow_mod, 8)),
        decode_flow_mod_ns: time_ns(|| decode(&flow_mod_wire).expect("valid")),
        encode_packet_out_ns: time_ns(|| encode_packet_out(3, &actions, &frame, 9)),
        allocs_per_setup_roundtrip,
        ew_digest_roundtrip_ns: time_ns(|| decode(&encode(&digest, 11)).expect("valid")),
    }
}

/// Build a probe datagram, and parse one the way `Host::on_packet`
/// does (Ethernet, IPv4 and UDP checked, UDP checksum verified).
fn wire_kernels() -> (f64, f64) {
    let build = time_ns(|| probe_frame(0, 1, default_host_mac(1), 10_000));
    let frame = probe_frame(0, 1, default_host_mac(1), 10_000);
    let parse = time_ns(|| {
        let eth = Frame::new_checked(&frame[..]).expect("ethernet");
        let packet = ipv4::Packet::new_checked(eth.payload()).expect("ipv4");
        let ip = ipv4::Repr::parse(&packet).expect("ipv4 header");
        let dgram = udp::Datagram::new_checked(packet.payload()).expect("udp");
        dgram.verify_checksum(ip.src_addr, ip.dst_addr)
    });
    (build, parse)
}

/// Dijkstra plus path extraction on the 20-switch k=4 fat-tree, edge to
/// edge across pods — what `ReactiveForwarding` does once per punt.
fn dijkstra_k4_ns() -> f64 {
    let topo = Topology::fat_tree(4, LinkParams::default());
    let mut graph = Graph::with_nodes(topo.switches);
    for l in &topo.links {
        graph.add_undirected(l.a as u32, l.b as u32, 1, 1);
    }
    let dst = 7; // the last edge switch: another pod than switch 0
    time_ns(|| dijkstra(&graph, 0).path_to(&graph, dst).map(|p| p.len()))
}

/// Run every kernel; values in [`KERNEL_METRICS`] order.
pub fn run_all() -> Vec<f64> {
    let dp = dataplane_kernels();
    let (add_flow_ns, expire_ns_per_entry) = table_kernels();
    let frame = probe_frame(0, 1, default_host_mac(1), 10_000);
    let extract_ns = time_ns(|| FlowKey::extract(3, &frame));
    let codec = codec_kernels();
    let (udp_build_ns, udp_checked_ns) = wire_kernels();
    vec![
        ring_event_ns(),
        timer_event_ns(),
        control_event_ns(),
        histogram_record_ns(),
        histogram_p99_ns_at_1e6(),
        dp.micro_hit_ns,
        dp.mega_hit_ns,
        dp.miss_ns,
        dp.batch_ns_per_frame,
        dp.allocs_per_micro_hit,
        add_flow_ns,
        expire_ns_per_entry,
        extract_ns,
        codec.decode_view_packet_in_ns,
        codec.encode_packet_in_ns,
        codec.encode_flow_mod_ns,
        codec.decode_flow_mod_ns,
        codec.encode_packet_out_ns,
        codec.allocs_per_setup_roundtrip,
        codec.ew_digest_roundtrip_ns,
        udp_build_ns,
        udp_checked_ns,
        dijkstra_k4_ns(),
        recorder_disabled_overhead_pct(),
    ]
}
