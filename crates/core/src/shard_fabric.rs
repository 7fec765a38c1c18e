//! Datapath-backed workload nodes for the sharded engine (experiment E21).
//!
//! `zen-sim`'s [`ShardedWorld`] is a pure data-plane engine; this module
//! supplies the two node types the E21 scaling experiment runs on it:
//!
//! * [`ShardSwitch`] — a switch whose forwarding is a real
//!   `zen-dataplane` pipeline, driven through `Datapath::process_batch`
//!   so a burst of frames arriving at one instant costs one cache probe
//!   per microflow group instead of one per packet.
//! * [`ShardTrafficHost`] — a seeded traffic source that bursts UDP
//!   flows at deterministic-random remote hosts every period.
//!
//! [`build_shard_fat_tree`] assembles a `k`-ary fat-tree out of them with
//! classic two-level prefix routing: edge switches hold host `/32`s and
//! ECMP-up defaults, aggregation switches hold intra-pod `/24`s and
//! ECMP-up defaults, core switches hold per-pod `/16`s. ECMP uses
//! `SELECT` groups keyed by the deterministic flow hash, so the path a
//! flow takes — and therefore every byte of the run — is independent of
//! the shard count.

use std::any::Any;
use std::sync::Arc;

use zen_dataplane::{
    Action, Bucket, Datapath, Effect, FlowMatch, FlowSpec, GroupDesc, GroupType, MissPolicy,
};
use zen_sim::topo::FatTreeIndex;
use zen_sim::{CounterId, Duration, LinkParams, NodeId, PortNo, ShardCtx, ShardNode, ShardedWorld};
use zen_wire::builder::PacketBuilder;
use zen_wire::{EthernetAddress, Ipv4Address, Ipv4Cidr};

/// A sharded-engine switch wrapping a real `zen-dataplane` pipeline.
///
/// Frames delivered in one batch go through `Datapath::process_batch`;
/// resulting `Output` effects are transmitted on the corresponding sim
/// ports (datapath port numbers are wired one-to-one to sim ports by the
/// fabric builder).
pub struct ShardSwitch {
    dp: Datapath,
    effects: Vec<Effect>,
    fwd: Option<CounterId>,
    /// Frames the pipeline punted at the controller (there is none in
    /// sharded mode, so a well-programmed fabric keeps this at zero).
    pub punts: u64,
}

impl ShardSwitch {
    /// Wrap a (typically still unprogrammed) datapath.
    pub fn new(dp: Datapath) -> ShardSwitch {
        ShardSwitch {
            dp,
            effects: Vec::new(),
            fwd: None,
            punts: 0,
        }
    }

    /// The embedded datapath.
    pub fn dp(&self) -> &Datapath {
        &self.dp
    }

    /// The embedded datapath, mutably (used by builders to program
    /// flows once port numbers are known).
    pub fn dp_mut(&mut self) -> &mut Datapath {
        &mut self.dp
    }

    fn process(&mut self, ctx: &mut ShardCtx<'_, '_>, batch: &[(PortNo, &[u8])]) {
        let mut effects = std::mem::take(&mut self.effects);
        effects.clear();
        self.dp
            .process_batch(ctx.now().as_nanos(), batch, &mut effects);
        let mut forwarded = 0u64;
        for effect in effects.drain(..) {
            match effect {
                Effect::Output { port, frame } => {
                    ctx.transmit(port, &frame);
                    forwarded += 1;
                }
                Effect::ToController { .. } => self.punts += 1,
            }
        }
        self.effects = effects;
        if forwarded > 0 {
            if let Some(id) = self.fwd {
                ctx.metrics().add(id, forwarded);
            }
        }
    }
}

impl ShardNode for ShardSwitch {
    fn on_start(&mut self, ctx: &mut ShardCtx<'_, '_>) {
        self.fwd = Some(ctx.metrics().register_counter("fabric.fwd_frames"));
    }

    fn on_packet(&mut self, ctx: &mut ShardCtx<'_, '_>, in_port: PortNo, frame: &[u8]) {
        self.process(ctx, &[(in_port, frame)]);
    }

    fn on_packet_batch(&mut self, ctx: &mut ShardCtx<'_, '_>, frames: &[(PortNo, Vec<u8>)]) {
        let batch: Vec<(PortNo, &[u8])> = frames.iter().map(|(p, f)| (*p, f.as_slice())).collect();
        self.process(ctx, &batch);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A periodic burst traffic source for the sharded fabric.
///
/// Every `period` the host picks a deterministic-random remote target and
/// a random source port (spreading flows across ECMP buckets), then
/// transmits `burst` identical UDP frames back-to-back — on instant links
/// they arrive as one batch and exercise the switches' batched fast path.
pub struct ShardTrafficHost {
    mac: EthernetAddress,
    ip: Ipv4Address,
    targets: Arc<Vec<(EthernetAddress, Ipv4Address)>>,
    period: Duration,
    burst: usize,
    /// Frames transmitted.
    pub tx: u64,
    /// Frames received.
    pub rx: u64,
    tx_id: Option<CounterId>,
    rx_id: Option<CounterId>,
}

impl ShardTrafficHost {
    /// A host at `(mac, ip)` bursting at the given cadence toward
    /// `targets` (its own address is skipped if picked; the list is
    /// shared so thousands of hosts don't each copy it).
    pub fn new(
        mac: EthernetAddress,
        ip: Ipv4Address,
        targets: Arc<Vec<(EthernetAddress, Ipv4Address)>>,
        period: Duration,
        burst: usize,
    ) -> ShardTrafficHost {
        ShardTrafficHost {
            mac,
            ip,
            targets,
            period,
            burst,
            tx: 0,
            rx: 0,
            tx_id: None,
            rx_id: None,
        }
    }
}

impl ShardNode for ShardTrafficHost {
    fn on_start(&mut self, ctx: &mut ShardCtx<'_, '_>) {
        self.tx_id = Some(ctx.metrics().register_counter("fabric.host_tx"));
        self.rx_id = Some(ctx.metrics().register_counter("fabric.host_rx"));
        let period = self.period;
        ctx.set_timer(period, 0);
    }

    fn on_timer(&mut self, ctx: &mut ShardCtx<'_, '_>, _token: u64) {
        if !self.targets.is_empty() && self.burst > 0 {
            let pick = ctx.rng().gen_index(self.targets.len());
            let (dst_mac, dst_ip) = self.targets[pick];
            if dst_ip != self.ip {
                let sport = 1024 + ctx.rng().gen_range(50_000) as u16;
                let frame = PacketBuilder::udp(
                    self.mac,
                    self.ip,
                    sport,
                    dst_mac,
                    dst_ip,
                    4791,
                    b"zen-e21-burst",
                );
                for _ in 0..self.burst {
                    ctx.transmit(1, &frame);
                }
                self.tx += self.burst as u64;
                if let Some(id) = self.tx_id {
                    ctx.metrics().add(id, self.burst as u64);
                }
            }
        }
        let period = self.period;
        ctx.set_timer(period, 0);
    }

    fn on_packet(&mut self, ctx: &mut ShardCtx<'_, '_>, _in_port: PortNo, _frame: &[u8]) {
        self.rx += 1;
        if let Some(id) = self.rx_id {
            ctx.metrics().incr(id);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Node ids and addressing of a built sharded fat-tree.
pub struct ShardFabric {
    /// Fat-tree arity.
    pub k: usize,
    /// Switch node ids, in [`FatTreeIndex`] order (edges, aggs, cores).
    pub switches: Vec<NodeId>,
    /// Host node ids, pod-major order.
    pub hosts: Vec<NodeId>,
    /// `(mac, ip)` per host, aligned with `hosts`.
    pub host_addrs: Vec<(EthernetAddress, Ipv4Address)>,
}

/// The IP plan: host `h` on edge `e` of pod `p` is `10.p.e.h+2`.
fn host_ip(pod: usize, edge: usize, h: usize) -> Ipv4Address {
    Ipv4Address::new(10, pod as u8, edge as u8, (h + 2) as u8)
}

/// Build a `k`-ary fat-tree of [`ShardSwitch`]es with `k/2` hosts per
/// edge switch and two-level prefix routing (see module docs). Every
/// fabric and host link must have positive latency; the smallest is the
/// engine's lookahead horizon.
pub fn build_shard_fat_tree(
    world: &mut ShardedWorld,
    k: usize,
    fabric_params: LinkParams,
    host_params: LinkParams,
    host_period: Duration,
    host_burst: usize,
) -> ShardFabric {
    assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be even");
    let half = k / 2;
    let idx = FatTreeIndex::new(k);
    let n_switches = idx.switch_count();

    // Addresses first, so every host can know every target at build time.
    let mut host_addrs = Vec::with_capacity(k * half * half);
    for pod in 0..k {
        for e in 0..half {
            for h in 0..half {
                let i = host_addrs.len() as u64;
                host_addrs.push((EthernetAddress::from_id(0x1_0000 + i), host_ip(pod, e, h)));
            }
        }
    }

    // Switches are added first so switch node ids equal FatTreeIndex
    // positions; hosts follow in pod-major order.
    let switches: Vec<NodeId> = (0..n_switches)
        .map(|i| {
            world.add_node(Box::new(ShardSwitch::new(Datapath::new(
                i as u64,
                1,
                MissPolicy::Drop,
            ))))
        })
        .collect();
    let shared_targets = Arc::new(host_addrs.clone());
    let hosts: Vec<NodeId> = host_addrs
        .iter()
        .map(|&(mac, ip)| {
            world.add_node(Box::new(ShardTrafficHost::new(
                mac,
                ip,
                Arc::clone(&shared_targets),
                host_period,
                host_burst,
            )))
        })
        .collect();

    // Wire everything, recording the sim-assigned port numbers so flows
    // can reference them.
    let mut edge_host: Vec<Vec<(usize, PortNo)>> = vec![Vec::new(); n_switches];
    let mut up_ports: Vec<Vec<PortNo>> = vec![Vec::new(); n_switches];
    let mut agg_down: Vec<Vec<(usize, PortNo)>> = vec![Vec::new(); n_switches];
    let mut core_down: Vec<Vec<(usize, PortNo)>> = vec![Vec::new(); n_switches];
    for pod in 0..k {
        for e in 0..half {
            let edge = idx.edge(pod, e);
            for a in 0..half {
                let agg = idx.agg(pod, a);
                let (_, pe, pa) = world.connect(switches[edge], switches[agg], fabric_params);
                up_ports[edge].push(pe);
                agg_down[agg].push((e, pa));
            }
            for h in 0..half {
                let host = hosts[(pod * half + e) * half + h];
                let (_, pe, _) = world.connect(switches[edge], host, host_params);
                edge_host[edge].push((h, pe));
            }
        }
        for a in 0..half {
            let agg = idx.agg(pod, a);
            for c in a * half..(a + 1) * half {
                let core = idx.core(c);
                let (_, pa, pc) = world.connect(switches[agg], switches[core], fabric_params);
                up_ports[agg].push(pa);
                core_down[core].push((pod, pc));
            }
        }
    }

    // Program the pipelines: register ports, install the prefix plan.
    let ecmp_up = 1u32;
    for pod in 0..k {
        for e in 0..half {
            let s = idx.edge(pod, e);
            let dp = world.node_as_mut::<ShardSwitch>(switches[s]).dp_mut();
            for &p in &up_ports[s] {
                dp.add_port(p);
            }
            for &(_, p) in &edge_host[s] {
                dp.add_port(p);
            }
            dp.add_group(
                ecmp_up,
                GroupDesc {
                    group_type: GroupType::Select,
                    buckets: up_ports[s].iter().map(|&p| Bucket::output(p)).collect(),
                },
            );
            for &(h, p) in &edge_host[s] {
                let cidr = Ipv4Cidr::new(host_ip(pod, e, h), 32).expect("valid /32");
                dp.add_flow(
                    0,
                    FlowSpec::new(
                        100,
                        FlowMatch {
                            ipv4_dst: Some(cidr),
                            ..FlowMatch::ANY
                        },
                        vec![Action::Output(p)],
                    ),
                    0,
                );
            }
            dp.add_flow(
                0,
                FlowSpec::new(1, FlowMatch::ANY, vec![Action::Group(ecmp_up)]),
                0,
            );
        }
        for a in 0..half {
            let s = idx.agg(pod, a);
            let dp = world.node_as_mut::<ShardSwitch>(switches[s]).dp_mut();
            for &p in &up_ports[s] {
                dp.add_port(p);
            }
            for &(_, p) in &agg_down[s] {
                dp.add_port(p);
            }
            dp.add_group(
                ecmp_up,
                GroupDesc {
                    group_type: GroupType::Select,
                    buckets: up_ports[s].iter().map(|&p| Bucket::output(p)).collect(),
                },
            );
            for &(e, p) in &agg_down[s] {
                let cidr = Ipv4Cidr::new(Ipv4Address::new(10, pod as u8, e as u8, 0), 24)
                    .expect("valid /24");
                dp.add_flow(
                    0,
                    FlowSpec::new(
                        50,
                        FlowMatch {
                            ipv4_dst: Some(cidr),
                            ..FlowMatch::ANY
                        },
                        vec![Action::Output(p)],
                    ),
                    0,
                );
            }
            dp.add_flow(
                0,
                FlowSpec::new(1, FlowMatch::ANY, vec![Action::Group(ecmp_up)]),
                0,
            );
        }
    }
    for c in 0..k * k / 4 {
        let s = idx.core(c);
        let dp = world.node_as_mut::<ShardSwitch>(switches[s]).dp_mut();
        for &(_, p) in &core_down[s] {
            dp.add_port(p);
        }
        for &(pod, p) in &core_down[s] {
            let cidr = Ipv4Cidr::new(Ipv4Address::new(10, pod as u8, 0, 0), 16).expect("valid /16");
            dp.add_flow(
                0,
                FlowSpec::new(
                    50,
                    FlowMatch {
                        ipv4_dst: Some(cidr),
                        ..FlowMatch::ANY
                    },
                    vec![Action::Output(p)],
                ),
                0,
            );
        }
    }

    ShardFabric {
        k,
        switches,
        hosts,
        host_addrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zen_sim::Instant;

    fn run(k: usize, shards: usize) -> (u64, Vec<(String, u64)>, u64, u64) {
        let mut w = ShardedWorld::new(0xE21_5EED);
        let fabric = build_shard_fat_tree(
            &mut w,
            k,
            LinkParams::instant(Duration::from_micros(5)),
            LinkParams::instant(Duration::from_micros(2)),
            Duration::from_micros(100),
            4,
        );
        w.set_digest_enabled(true);
        w.run_until(Instant::from_millis(2), shards);
        let counters: Vec<(String, u64)> = w
            .metrics()
            .counters()
            .map(|(name, v)| (name.to_string(), v))
            .collect();
        let rx: u64 = fabric
            .hosts
            .iter()
            .map(|&id| w.node_as::<ShardTrafficHost>(id).rx)
            .sum();
        let punts: u64 = fabric
            .switches
            .iter()
            .map(|&id| w.node_as::<ShardSwitch>(id).punts)
            .sum();
        (w.digest().unwrap(), counters, rx, punts)
    }

    #[test]
    fn fat_tree_delivers_and_is_shard_count_independent() {
        let one = run(4, 1);
        let two = run(4, 2);
        let four = run(4, 4);
        assert_eq!(one, two);
        assert_eq!(one, four);
        let (digest, counters, rx, punts) = one;
        assert_ne!(digest, 0);
        assert_eq!(punts, 0, "fully-routed fabric never punts");
        assert!(rx > 500, "cross-fabric delivery too low: {rx}");
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        // Every host burst is delivered somewhere: no route should drop
        // (queues are infinite on instant links, links never flap).
        assert_eq!(get("fabric.host_rx"), rx);
        assert_eq!(get("sim.drops_down"), 0);
        assert_eq!(get("sim.drops_queue"), 0);
        assert!(get("fabric.fwd_frames") >= rx, "hops at least deliveries");
    }

    #[test]
    fn ecmp_spreads_across_uplinks() {
        let mut w = ShardedWorld::new(42);
        let fabric = build_shard_fat_tree(
            &mut w,
            4,
            LinkParams::instant(Duration::from_micros(5)),
            LinkParams::instant(Duration::from_micros(2)),
            Duration::from_micros(50),
            2,
        );
        w.run_until(Instant::from_millis(2), 2);
        // Core switches only see cross-pod traffic that ECMP hashed onto
        // them; with many flows, every core should have forwarded some.
        let idle_cores = fabric
            .switches
            .iter()
            .skip(fabric.k * fabric.k)
            .filter(|&&id| {
                let dp = w.node_as::<ShardSwitch>(id).dp();
                dp.table(0).hits == 0
            })
            .count();
        assert_eq!(idle_cores, 0, "some cores never matched a frame");
    }
}
