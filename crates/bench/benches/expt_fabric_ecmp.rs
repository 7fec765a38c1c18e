//! E9 — fat-tree load balance: ECMP groups vs. single shortest path.
//!
//! Random-permutation traffic on a k=4 fat-tree, forwarded by the
//! proactive fabric app in two configurations: SELECT groups hashing
//! flows across all equal-cost next hops (ECMP), and the same rules
//! pinned to a single next hop (by keeping only one group bucket).
//! Reported: delivered traffic, p99 one-way latency, number of loaded
//! core links, and the max/mean load imbalance across core links.

use zen_core::apps::proactive::FABRIC_MAC;
use zen_core::apps::ProactiveFabric;
use zen_core::harness::{build_fabric, build_fabric_with_hosts, default_host_ip, FabricOptions};
use zen_core::Dpid;
use zen_dataplane::PortNo;
use zen_sim::{Duration, FatTreeIndex, Host, Instant, LinkParams, Rng, Topology, Workload, World};

/// A fabric app variant that keeps only the first bucket of every ECMP
/// group — the "single path" ablation.
struct SinglePathFabric {
    inner: ProactiveFabric,
}

impl zen_core::App for SinglePathFabric {
    fn name(&self) -> &'static str {
        "single-path-fabric"
    }
    fn tick(&mut self, ctl: &mut zen_core::Ctl<'_, '_>) {
        self.inner.tick(ctl);
    }
    fn on_port_status(
        &mut self,
        ctl: &mut zen_core::Ctl<'_, '_>,
        dpid: Dpid,
        port: PortNo,
        up: bool,
    ) {
        self.inner.on_port_status(ctl, dpid, port, up);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

struct RunResult {
    delivered: u64,
    expected: u64,
    p99_us: f64,
    loaded_core_links: usize,
    imbalance: f64,
    drops: u64,
}

fn run(ecmp: bool, seed: u64) -> RunResult {
    let topo = Topology::fat_tree(
        4,
        LinkParams::new(Duration::from_micros(10), 1_000_000_000, 256 * 1024),
    );
    let n = topo.host_count();
    let expected_links = 2 * topo.links.len();
    let inventory = {
        let mut scratch = World::new(seed);
        build_fabric(&mut scratch, &topo, vec![], FabricOptions::default()).static_hosts()
    };

    // Random permutation with no fixed points.
    let mut perm: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed);
    loop {
        rng.shuffle(&mut perm);
        if perm.iter().enumerate().all(|(i, &p)| i != p) {
            break;
        }
    }

    let mut world = World::new(seed);
    let fabric_app = ProactiveFabric::new(inventory, topo.switches, expected_links);
    let app: Box<dyn zen_core::App> = if ecmp {
        Box::new(fabric_app)
    } else {
        Box::new(SinglePathFabric { inner: fabric_app })
    };
    let count = 2000u64;
    let fabric = build_fabric_with_hosts(
        &mut world,
        &topo,
        vec![app],
        FabricOptions::default(),
        |i, mac, ip| {
            let dst = default_host_ip(perm[i]);
            Host::new(mac, ip)
                .with_static_arp(dst, FABRIC_MAC)
                .with_workload(Workload::Udp {
                    dst,
                    dst_port: 9,
                    size: 1500,
                    count,
                    interval: Duration::from_micros(30), // ~400 Mb/s per host
                    start: Instant::from_secs(1),
                })
        },
    );

    // The ablation: after programming, strip groups down to one bucket.
    if !ecmp {
        world.run_until(Instant::from_millis(900));
        for (si, &sw) in fabric.switches.iter().enumerate() {
            let agent = world.node_as_mut::<zen_core::SwitchAgent>(sw);
            let _ = si;
            let gids: Vec<u32> = (0..topo.switches as u64)
                .map(zen_core::apps::proactive::group_id_for)
                .collect();
            for gid in gids {
                if let Some(desc) = agent.dp.groups().get(gid).cloned() {
                    if desc.buckets.len() > 1 {
                        let mut single = desc;
                        single.buckets.truncate(1);
                        agent.dp.add_group(gid, single);
                    }
                }
            }
        }
    }
    world.run_until(Instant::from_secs(3));

    let mut delivered = 0u64;
    let mut p99 = 0f64;
    for &h in &fabric.hosts {
        let host = world.node_as_mut::<Host>(h);
        delivered += host.stats.udp_rx;
        if let Some(v) = host.stats.udp_latency.p99() {
            p99 = p99.max(v);
        }
    }
    // Core-link load distribution: the upper 16 switch links in a k=4
    // fat-tree are agg<->core (indices 16..32 in construction order).
    let idx = FatTreeIndex::new(4);
    let mut core_loads = Vec::new();
    for (li, &l) in fabric.switch_links.iter().enumerate() {
        let tl = &topo.links[li];
        if idx.is_core(tl.a) || idx.is_core(tl.b) {
            let link = world.link(l);
            core_loads.push((link.ab.tx_bytes + link.ba.tx_bytes) as f64);
        }
    }
    let loaded = core_loads.iter().filter(|&&b| b > 1e6).count();
    let mean = core_loads.iter().sum::<f64>() / core_loads.len() as f64;
    let max = core_loads.iter().copied().fold(0.0, f64::max);
    let drops = world.metrics().counter("sim.drops_queue");
    RunResult {
        delivered,
        expected: count * topo.host_count() as u64,
        p99_us: p99 * 1e6,
        loaded_core_links: loaded,
        imbalance: if mean > 0.0 { max / mean } else { 0.0 },
        drops,
    }
}

fn main() {
    println!("# E9 — fat-tree (k=4) permutation traffic: ECMP vs single path");
    println!("# 16 hosts at ~400 Mb/s each over 1 Gb/s links");
    println!();
    println!(
        "{:>14} {:>6} {:>14} {:>10} {:>12} {:>12} {:>10}",
        "forwarding", "seed", "delivered", "p99(us)", "core-links", "imbalance", "drops"
    );
    for seed in [1u64, 2, 3] {
        for ecmp in [true, false] {
            let r = run(ecmp, seed);
            println!(
                "{:>14} {:>6} {:>9}/{:<6} {:>8.0} {:>9}/16 {:>12.2} {:>10}",
                if ecmp { "ecmp-select" } else { "single-path" },
                seed,
                r.delivered,
                r.expected,
                r.p99_us,
                r.loaded_core_links,
                r.imbalance,
                r.drops
            );
        }
    }
    println!();
    println!("# Shape check: ECMP spreads load across more core links with lower");
    println!("# imbalance, fewer queue drops and lower p99 latency than pinning");
    println!("# each destination to one uplink.");
}
