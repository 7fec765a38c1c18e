//! Topology shapes: the standard graphs SDN systems are evaluated on.
//!
//! A [`Topology`] is a pure description — switches, host attachment
//! points, and switch-to-switch links with their parameters. Higher layers
//! (the SDN controller harness, the distributed-routing harness, the
//! benchmark suite) instantiate concrete nodes from it, so the same shape
//! can be driven by either control plane.

use crate::rng::Rng;
use crate::world::LinkParams;

/// A switch-to-switch link in a topology description.
#[derive(Debug, Clone, Copy)]
pub struct SwitchLink {
    /// First endpoint (switch index).
    pub a: usize,
    /// Second endpoint (switch index).
    pub b: usize,
    /// Link parameters.
    pub params: LinkParams,
}

/// A pure topology description.
#[derive(Debug, Clone)]
pub struct Topology {
    /// A short human-readable name ("fat-tree-4", "b4", ...).
    pub name: String,
    /// Number of switches, indexed `0..switches`.
    pub switches: usize,
    /// Host attachment points: `hosts[i]` is the switch index host `i`
    /// attaches to.
    pub hosts: Vec<usize>,
    /// Switch-to-switch links.
    pub links: Vec<SwitchLink>,
}

impl Topology {
    fn new(name: &str, switches: usize) -> Topology {
        Topology {
            name: name.to_string(),
            switches,
            hosts: Vec::new(),
            links: Vec::new(),
        }
    }

    fn link(&mut self, a: usize, b: usize, params: LinkParams) {
        debug_assert!(a < self.switches && b < self.switches && a != b);
        self.links.push(SwitchLink { a, b, params });
    }

    /// Attach one host to every switch.
    pub fn with_host_per_switch(mut self) -> Topology {
        self.hosts = (0..self.switches).collect();
        self
    }

    /// Attach `n` hosts to the given switch.
    pub fn with_hosts_at(mut self, switch: usize, n: usize) -> Topology {
        debug_assert!(switch < self.switches);
        self.hosts.extend(std::iter::repeat_n(switch, n));
        self
    }

    /// Number of host attachment points.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// The network diameter in hops (switch graph only), or `None` if
    /// disconnected.
    pub fn diameter(&self) -> Option<usize> {
        let n = self.switches;
        if n == 0 {
            return Some(0);
        }
        let mut adj = vec![Vec::new(); n];
        for l in &self.links {
            adj[l.a].push(l.b);
            adj[l.b].push(l.a);
        }
        let mut diameter = 0;
        for start in 0..n {
            let mut dist = vec![usize::MAX; n];
            dist[start] = 0;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(u) = queue.pop_front() {
                for &v in &adj[u] {
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            let ecc = *dist.iter().max().unwrap();
            if ecc == usize::MAX {
                return None;
            }
            diameter = diameter.max(ecc);
        }
        Some(diameter)
    }

    /// Whether the switch graph is connected.
    pub fn is_connected(&self) -> bool {
        self.diameter().is_some()
    }

    // ---- standard shapes ------------------------------------------------

    /// A chain of `n` switches.
    pub fn line(n: usize, params: LinkParams) -> Topology {
        let mut t = Topology::new(&format!("line-{n}"), n);
        for i in 1..n {
            t.link(i - 1, i, params);
        }
        t
    }

    /// A cycle of `n ≥ 3` switches.
    pub fn ring(n: usize, params: LinkParams) -> Topology {
        assert!(n >= 3, "a ring needs at least 3 switches");
        let mut t = Topology::new(&format!("ring-{n}"), n);
        for i in 0..n {
            t.link(i, (i + 1) % n, params);
        }
        t
    }

    /// A star: switch 0 is the hub, switches `1..=leaves` the spokes.
    pub fn star(leaves: usize, params: LinkParams) -> Topology {
        let mut t = Topology::new(&format!("star-{leaves}"), leaves + 1);
        for i in 1..=leaves {
            t.link(0, i, params);
        }
        t
    }

    /// A `k`-ary fat-tree (Al-Fares et al.): `k` pods of `k/2` edge and
    /// `k/2` aggregation switches each, plus `(k/2)²` core switches, with
    /// `k/2` hosts on every edge switch. `k` must be even and ≥ 2.
    ///
    /// Switch indices: edges first (`pod * k/2 + e`), then aggregations,
    /// then cores. Use [`FatTreeIndex`] to navigate.
    pub fn fat_tree(k: usize, params: LinkParams) -> Topology {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be even");
        let idx = FatTreeIndex::new(k);
        let mut t = Topology::new(&format!("fat-tree-{k}"), idx.switch_count());
        let half = k / 2;

        for pod in 0..k {
            for e in 0..half {
                let edge = idx.edge(pod, e);
                // Edge <-> aggregation, full bipartite within the pod.
                for a in 0..half {
                    t.link(edge, idx.agg(pod, a), params);
                }
                // Hosts on this edge switch.
                for _ in 0..half {
                    t.hosts.push(edge);
                }
            }
            // Aggregation <-> core: agg a connects to cores a*half..(a+1)*half.
            for a in 0..half {
                for c in 0..half {
                    t.link(idx.agg(pod, a), idx.core(a * half + c), params);
                }
            }
        }
        t
    }

    /// A 12-site inter-datacenter WAN in the style of Google's B4
    /// (SIGCOMM'13): three geographic clusters with rich intra-cluster
    /// connectivity and a few long-haul inter-cluster trunks. Link
    /// latencies reflect rough geography; all links share `bandwidth_bps`.
    pub fn b4(bandwidth_bps: u64) -> Topology {
        use crate::time::Duration;
        let mut t = Topology::new("b4", 12);
        let ms = Duration::from_millis;
        let q = 4 << 20;
        let link = |t: &mut Topology, a: usize, b: usize, lat_ms: u64| {
            t.link(a, b, LinkParams::new(ms(lat_ms), bandwidth_bps, q));
        };
        // North America: 0..6
        link(&mut t, 0, 1, 2);
        link(&mut t, 0, 2, 6);
        link(&mut t, 1, 2, 5);
        link(&mut t, 1, 3, 8);
        link(&mut t, 2, 3, 4);
        link(&mut t, 2, 4, 12);
        link(&mut t, 3, 5, 10);
        link(&mut t, 4, 5, 6);
        // Europe: 6..9
        link(&mut t, 6, 7, 3);
        link(&mut t, 6, 8, 5);
        link(&mut t, 7, 8, 4);
        // Asia: 9..12
        link(&mut t, 9, 10, 4);
        link(&mut t, 9, 11, 6);
        link(&mut t, 10, 11, 5);
        // Transatlantic / transpacific trunks.
        link(&mut t, 4, 6, 40);
        link(&mut t, 5, 7, 45);
        link(&mut t, 0, 9, 60);
        link(&mut t, 1, 10, 65);
        link(&mut t, 8, 11, 90);
        t
    }

    /// The Abilene research backbone (11 nodes, 14 links), a standard
    /// WAN evaluation topology.
    pub fn abilene(bandwidth_bps: u64) -> Topology {
        use crate::time::Duration;
        let mut t = Topology::new("abilene", 11);
        let q = 4 << 20;
        // (a, b, one-way ms): NYC(0) CHI(1) WAS(2) ATL(3) IND(4) KAN(5)
        // HOU(6) DEN(7) LA(8) SUN(9) SEA(10)
        let edges: [(usize, usize, u64); 14] = [
            (0, 1, 9),
            (0, 2, 3),
            (1, 4, 3),
            (2, 3, 7),
            (3, 4, 6),
            (3, 6, 10),
            (4, 5, 6),
            (5, 6, 8),
            (5, 7, 7),
            (6, 8, 15),
            (7, 9, 12),
            (7, 10, 13),
            (8, 9, 5),
            (9, 10, 9),
        ];
        for (a, b, ms) in edges {
            t.link(
                a,
                b,
                LinkParams::new(Duration::from_millis(ms), bandwidth_bps, q),
            );
        }
        t
    }

    /// A random connected graph: a random spanning tree plus
    /// `extra_edges` additional distinct random edges.
    pub fn random_connected(
        n: usize,
        extra_edges: usize,
        params: LinkParams,
        seed: u64,
    ) -> Topology {
        assert!(n >= 2);
        let mut rng = Rng::new(seed);
        let mut t = Topology::new(&format!("rand-{n}-{extra_edges}"), n);
        // Random spanning tree: attach each node to a random earlier one.
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let mut present = std::collections::BTreeSet::new();
        let mut edges = std::collections::BTreeSet::new();
        present.insert(order[0]);
        for &v in &order[1..] {
            let anchors: Vec<usize> = present.iter().copied().collect();
            let u = *rng.choose(&anchors).unwrap();
            edges.insert((u.min(v), u.max(v)));
            present.insert(v);
        }
        let max_edges = n * (n - 1) / 2;
        let mut added = 0;
        let mut attempts = 0;
        while added < extra_edges && edges.len() < max_edges && attempts < extra_edges * 100 {
            attempts += 1;
            let a = rng.gen_index(n);
            let b = rng.gen_index(n);
            if a == b {
                continue;
            }
            if edges.insert((a.min(b), a.max(b))) {
                added += 1;
            }
        }
        for (a, b) in edges {
            t.link(a, b, params);
        }
        t
    }
}

/// Index arithmetic for [`Topology::fat_tree`] switch roles.
#[derive(Debug, Clone, Copy)]
pub struct FatTreeIndex {
    /// The arity `k`.
    pub k: usize,
}

impl FatTreeIndex {
    /// Create index helper for arity `k`.
    pub fn new(k: usize) -> FatTreeIndex {
        FatTreeIndex { k }
    }

    /// Total switches: `k²/2` edge + `k²/2` agg + `k²/4` core.
    pub fn switch_count(&self) -> usize {
        self.k * self.k / 2 * 2 + self.k * self.k / 4
    }

    /// Edge switch `e` of pod `pod`.
    pub fn edge(&self, pod: usize, e: usize) -> usize {
        pod * (self.k / 2) + e
    }

    /// Aggregation switch `a` of pod `pod`.
    pub fn agg(&self, pod: usize, a: usize) -> usize {
        self.k * self.k / 2 + pod * (self.k / 2) + a
    }

    /// Core switch `c`.
    pub fn core(&self, c: usize) -> usize {
        self.k * self.k + c
    }

    /// Whether switch `s` is an edge switch.
    pub fn is_edge(&self, s: usize) -> bool {
        s < self.k * self.k / 2
    }

    /// Whether switch `s` is an aggregation switch.
    pub fn is_agg(&self, s: usize) -> bool {
        s >= self.k * self.k / 2 && s < self.k * self.k
    }

    /// The pod of an edge or aggregation switch.
    pub fn pod_of(&self, s: usize) -> Option<usize> {
        if self.is_edge(s) {
            Some(s / (self.k / 2))
        } else if self.is_agg(s) {
            Some((s - self.k * self.k / 2) / (self.k / 2))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_shape() {
        let t = Topology::line(5, LinkParams::default());
        assert_eq!(t.switches, 5);
        assert_eq!(t.links.len(), 4);
        assert_eq!(t.diameter(), Some(4));
    }

    #[test]
    fn ring_shape() {
        let t = Topology::ring(6, LinkParams::default());
        assert_eq!(t.links.len(), 6);
        assert_eq!(t.diameter(), Some(3));
    }

    #[test]
    fn star_shape() {
        let t = Topology::star(4, LinkParams::default());
        assert_eq!(t.switches, 5);
        assert_eq!(t.links.len(), 4);
        assert_eq!(t.diameter(), Some(2));
    }

    #[test]
    fn fat_tree_counts() {
        // Classic k=4: 20 switches, 16 hosts, 32 inter-switch links.
        let t = Topology::fat_tree(4, LinkParams::default());
        assert_eq!(t.switches, 20);
        assert_eq!(t.host_count(), 16);
        assert_eq!(t.links.len(), 32);
        assert!(t.is_connected());
        assert_eq!(t.diameter(), Some(4));

        let t8 = Topology::fat_tree(8, LinkParams::default());
        assert_eq!(t8.switches, 80);
        assert_eq!(t8.host_count(), 128);
    }

    #[test]
    fn fat_tree_index_roles() {
        let idx = FatTreeIndex::new(4);
        assert!(idx.is_edge(idx.edge(0, 0)));
        assert!(idx.is_agg(idx.agg(3, 1)));
        assert_eq!(idx.pod_of(idx.edge(2, 1)), Some(2));
        assert_eq!(idx.pod_of(idx.agg(2, 1)), Some(2));
        assert_eq!(idx.pod_of(idx.core(0)), None);
    }

    #[test]
    fn wan_topologies_connected() {
        let b4 = Topology::b4(10_000_000_000);
        assert_eq!(b4.switches, 12);
        assert!(b4.is_connected());

        let ab = Topology::abilene(10_000_000_000);
        assert_eq!(ab.switches, 11);
        assert_eq!(ab.links.len(), 14);
        assert!(ab.is_connected());
    }

    #[test]
    fn random_graphs_connected_and_deterministic() {
        for seed in 0..5 {
            let t = Topology::random_connected(20, 15, LinkParams::default(), seed);
            assert!(t.is_connected(), "seed {seed} disconnected");
            assert_eq!(t.links.len(), 19 + 15);
        }
        let a = Topology::random_connected(20, 15, LinkParams::default(), 7);
        let b = Topology::random_connected(20, 15, LinkParams::default(), 7);
        let ea: Vec<(usize, usize)> = a.links.iter().map(|l| (l.a, l.b)).collect();
        let eb: Vec<(usize, usize)> = b.links.iter().map(|l| (l.a, l.b)).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn host_helpers() {
        let t = Topology::ring(3, LinkParams::default()).with_host_per_switch();
        assert_eq!(t.hosts, vec![0, 1, 2]);
        let t = Topology::line(2, LinkParams::default()).with_hosts_at(1, 3);
        assert_eq!(t.hosts, vec![1, 1, 1]);
    }
}
