//! # zen-te — centralized traffic engineering
//!
//! The algorithmic heart of B4/SWAN-style WAN controllers: given a
//! topology with link capacities and a demand matrix, compute an
//! approximately max-min fair allocation of rates onto a small set of
//! candidate paths per demand, with path splitting.
//!
//! The allocator is *quantum-based water-filling*: demands take turns
//! claiming one quantum of bandwidth along their best candidate path
//! that still has residual capacity (candidates are the k shortest
//! paths). A demand freezes when it is satisfied or no candidate has
//! room. With `k = 1` this degrades to single-shortest-path routing —
//! the baseline the TE experiments compare against.
//!
//! [`quantize_splits`] converts a fractional allocation into integer
//! bucket weights for SELECT-group installation (largest-remainder
//! method), mirroring how B4 quantizes splits into hardware ECMP
//! tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use zen_graph::{k_shortest_paths, EdgeIx, Graph, NodeIx, Path};

/// One entry of a demand matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Demand {
    /// Source node.
    pub src: NodeIx,
    /// Destination node.
    pub dst: NodeIx,
    /// Requested rate in bits/sec.
    pub rate_bps: u64,
}

/// A set of demands with convenience constructors.
#[derive(Debug, Clone, Default)]
pub struct DemandMatrix {
    /// The demands, in a fixed order (allocation is order-independent up
    /// to quantum granularity, but determinism matters).
    pub demands: Vec<Demand>,
}

impl DemandMatrix {
    /// An empty matrix.
    pub fn new() -> DemandMatrix {
        DemandMatrix::default()
    }

    /// Add one demand.
    pub fn push(&mut self, src: NodeIx, dst: NodeIx, rate_bps: u64) {
        self.demands.push(Demand { src, dst, rate_bps });
    }

    /// Deterministic pseudo-random demands: `n` pairs drawn from `sites`
    /// with rates in `[lo, hi]`, from `seed`.
    pub fn random(sites: &[NodeIx], n: usize, lo: u64, hi: u64, seed: u64) -> DemandMatrix {
        assert!(sites.len() >= 2 && hi >= lo);
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut m = DemandMatrix::new();
        while m.demands.len() < n {
            let a = sites[(next() % sites.len() as u64) as usize];
            let b = sites[(next() % sites.len() as u64) as usize];
            if a == b {
                continue;
            }
            let rate = lo + next() % (hi - lo + 1);
            m.push(a, b, rate);
        }
        m
    }

    /// Total requested rate.
    pub fn total(&self) -> u64 {
        self.demands.iter().map(|d| d.rate_bps).sum()
    }
}

/// The result of an allocation.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Granted rate per demand, parallel to the input demand list.
    pub rates: Vec<u64>,
    /// Per demand: the candidate paths used and the rate on each.
    pub paths: Vec<Vec<(Path, u64)>>,
    /// Load per directed edge in bits/sec.
    pub link_load: BTreeMap<EdgeIx, u64>,
}

impl Allocation {
    /// Total granted rate.
    pub fn total(&self) -> u64 {
        self.rates.iter().sum()
    }

    /// Jain's fairness index of the *satisfaction ratios* (granted /
    /// requested); 1.0 is perfectly fair.
    pub fn jain_index(&self, demands: &[Demand]) -> f64 {
        let ratios: Vec<f64> = demands
            .iter()
            .zip(&self.rates)
            .filter(|(d, _)| d.rate_bps > 0)
            .map(|(d, &r)| r as f64 / d.rate_bps as f64)
            .collect();
        if ratios.is_empty() {
            return 1.0;
        }
        let sum: f64 = ratios.iter().sum();
        let sumsq: f64 = ratios.iter().map(|r| r * r).sum();
        if sumsq == 0.0 {
            return 1.0;
        }
        sum * sum / (ratios.len() as f64 * sumsq)
    }

    /// Utilization of every edge carrying load, as (edge, fraction).
    pub fn utilizations(&self, graph: &Graph) -> Vec<(EdgeIx, f64)> {
        self.link_load
            .iter()
            .map(|(&e, &load)| {
                let cap = graph.edge(e).capacity;
                (
                    e,
                    if cap == 0 {
                        0.0
                    } else {
                        load as f64 / cap as f64
                    },
                )
            })
            .collect()
    }

    /// The highest edge utilization (0.0 when nothing is loaded).
    pub fn max_utilization(&self, graph: &Graph) -> f64 {
        self.utilizations(graph)
            .into_iter()
            .map(|(_, u)| u)
            .fold(0.0, f64::max)
    }

    /// Mean utilization over *all* edges of the graph (idle edges count
    /// as zero), the "drive links to high utilization" headline metric.
    pub fn mean_utilization(&self, graph: &Graph) -> f64 {
        if graph.edge_count() == 0 {
            return 0.0;
        }
        let total: f64 = (0..graph.edge_count() as u32)
            .map(|e| {
                let cap = graph.edge(e).capacity;
                let load = self.link_load.get(&e).copied().unwrap_or(0);
                if cap == 0 {
                    0.0
                } else {
                    load as f64 / cap as f64
                }
            })
            .sum();
        total / graph.edge_count() as f64
    }
}

/// Allocate `demands` onto `graph` using quantum water-filling over the
/// `k` shortest candidate paths per demand.
///
/// `quantum` is the per-turn increment in bits/sec; smaller quanta give
/// fairer (and slower) allocations. A good default is
/// `min_link_capacity / 100`.
pub fn allocate(graph: &Graph, matrix: &DemandMatrix, k: usize, quantum: u64) -> Allocation {
    assert!(k >= 1 && quantum > 0);
    let demands = &matrix.demands;
    let mut residual: Vec<u64> = graph.edges().iter().map(|e| e.capacity).collect();

    // Candidate paths per demand, shortest first.
    let candidates: Vec<Vec<Path>> = demands
        .iter()
        .map(|d| k_shortest_paths(graph, d.src, d.dst, k))
        .collect();

    let mut granted = vec![0u64; demands.len()];
    // Rate per (demand, candidate index).
    let mut per_path: Vec<Vec<u64>> = candidates.iter().map(|c| vec![0u64; c.len()]).collect();
    let mut frozen = vec![false; demands.len()];

    let mut active = demands.len();
    while active > 0 {
        let mut progressed = false;
        for (i, demand) in demands.iter().enumerate() {
            if frozen[i] {
                continue;
            }
            if granted[i] >= demand.rate_bps {
                frozen[i] = true;
                active -= 1;
                continue;
            }
            let want = quantum.min(demand.rate_bps - granted[i]);
            // Best candidate: shortest path whose bottleneck fits `want`.
            let mut placed = false;
            for (ci, path) in candidates[i].iter().enumerate() {
                let fits = path.edges.iter().all(|&e| residual[e as usize] >= want);
                if fits {
                    for &e in &path.edges {
                        residual[e as usize] -= want;
                    }
                    per_path[i][ci] += want;
                    granted[i] += want;
                    placed = true;
                    progressed = true;
                    break;
                }
            }
            if !placed {
                frozen[i] = true;
                active -= 1;
            }
        }
        if !progressed {
            break;
        }
    }

    // Assemble the result.
    let mut link_load: BTreeMap<EdgeIx, u64> = BTreeMap::new();
    let mut out_paths = Vec::with_capacity(demands.len());
    for (i, cands) in candidates.into_iter().enumerate() {
        let mut used = Vec::new();
        for (ci, path) in cands.into_iter().enumerate() {
            let rate = per_path[i][ci];
            if rate > 0 {
                for &e in &path.edges {
                    *link_load.entry(e).or_insert(0) += rate;
                }
                used.push((path, rate));
            }
        }
        out_paths.push(used);
    }
    Allocation {
        rates: granted,
        paths: out_paths,
        link_load,
    }
}

/// Quantize fractional path rates into `buckets` integer weights via the
/// largest-remainder method. Returns one weight per path (weights sum to
/// `buckets` unless all rates are zero). Paths with zero weight can be
/// omitted from the installed group.
pub fn quantize_splits(rates: &[u64], buckets: u32) -> Vec<u32> {
    let total: u64 = rates.iter().sum();
    if total == 0 || buckets == 0 {
        return vec![0; rates.len()];
    }
    let exact: Vec<f64> = rates
        .iter()
        .map(|&r| r as f64 * buckets as f64 / total as f64)
        .collect();
    let mut weights: Vec<u32> = exact.iter().map(|&e| e.floor() as u32).collect();
    let assigned: u32 = weights.iter().sum();
    let mut order: Vec<usize> = (0..rates.len()).collect();
    order.sort_by(|&a, &b| {
        let ra = exact[a] - exact[a].floor();
        let rb = exact[b] - exact[b].floor();
        rb.partial_cmp(&ra).unwrap().then(a.cmp(&b))
    });
    for &i in order.iter().take((buckets - assigned) as usize) {
        weights[i] += 1;
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two disjoint unit-capacity paths between 0 and 3 plus a direct
    /// longer one.
    fn diamond(cap: u64) -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_undirected(0, 1, 1, cap);
        g.add_undirected(1, 3, 1, cap);
        g.add_undirected(0, 2, 1, cap);
        g.add_undirected(2, 3, 1, cap);
        g
    }

    #[test]
    fn single_demand_single_path() {
        let g = diamond(1000);
        let mut m = DemandMatrix::new();
        m.push(0, 3, 500);
        let alloc = allocate(&g, &m, 1, 10);
        assert_eq!(alloc.rates, vec![500]);
        assert_eq!(alloc.paths[0].len(), 1);
        assert_eq!(alloc.total(), 500);
    }

    #[test]
    fn k2_doubles_capacity() {
        let g = diamond(1000);
        let mut m = DemandMatrix::new();
        m.push(0, 3, 2000);
        // k=1: capped at one path's 1000.
        let sp = allocate(&g, &m, 1, 10);
        assert_eq!(sp.rates, vec![1000]);
        // k=2: both arms used.
        let te = allocate(&g, &m, 2, 10);
        assert_eq!(te.rates, vec![2000]);
        assert_eq!(te.paths[0].len(), 2);
        // Achieves the max-flow bound.
        assert_eq!(te.rates[0], zen_graph::max_flow(&g, 0, 3));
    }

    #[test]
    fn contending_demands_share_fairly() {
        // Two demands over the same single link.
        let mut g = Graph::with_nodes(3);
        g.add_edge(0, 1, 1, 1000);
        g.add_edge(1, 2, 1, 1000);
        let mut m = DemandMatrix::new();
        m.push(0, 2, 10_000);
        m.push(0, 2, 10_000);
        let alloc = allocate(&g, &m, 1, 10);
        assert_eq!(alloc.total(), 1000);
        let diff = alloc.rates[0].abs_diff(alloc.rates[1]);
        assert!(diff <= 10, "unfair split {:?}", alloc.rates);
        assert!(alloc.jain_index(&m.demands) > 0.99);
    }

    #[test]
    fn max_min_protects_small_demands() {
        // A small demand and a huge demand share a 1000-unit link.
        let mut g = Graph::with_nodes(2);
        g.add_edge(0, 1, 1, 1000);
        let mut m = DemandMatrix::new();
        m.push(0, 1, 100);
        m.push(0, 1, 1_000_000);
        let alloc = allocate(&g, &m, 1, 10);
        assert_eq!(alloc.rates[0], 100, "small demand fully satisfied");
        assert_eq!(alloc.rates[1], 900);
    }

    #[test]
    fn utilization_metrics() {
        let g = diamond(1000);
        let mut m = DemandMatrix::new();
        m.push(0, 3, 10_000);
        let alloc = allocate(&g, &m, 2, 10);
        let max_util = alloc.max_utilization(&g);
        assert!((max_util - 1.0).abs() < 0.05, "max util {max_util}");
        assert!(alloc.mean_utilization(&g) > 0.4);
    }

    #[test]
    fn link_load_consistent_with_rates() {
        let g = diamond(1000);
        let mut m = DemandMatrix::new();
        m.push(0, 3, 1500);
        let alloc = allocate(&g, &m, 2, 10);
        // Each used path contributes its rate to each of its edges.
        let per_path_sum: u64 = alloc.paths[0].iter().map(|(_, r)| r).sum();
        assert_eq!(per_path_sum, alloc.rates[0]);
        let total_load: u64 = alloc.link_load.values().sum();
        // Both paths have 2 hops.
        assert_eq!(total_load, 2 * alloc.rates[0]);
    }

    #[test]
    fn random_matrices_repeat_from_a_seed() {
        let r1 = DemandMatrix::random(&[0, 1, 2, 3], 10, 5, 50, 7);
        let r2 = DemandMatrix::random(&[0, 1, 2, 3], 10, 5, 50, 7);
        assert_eq!(r1.demands, r2.demands);
        assert!(r1.demands.iter().all(|d| (5..=50).contains(&d.rate_bps)));
        assert!(r1.demands.iter().all(|d| d.src != d.dst));
    }

    #[test]
    fn quantize_largest_remainder() {
        // 1/3 : 2/3 into 4 buckets -> 1 : 3 (remainders .33 vs .67).
        assert_eq!(quantize_splits(&[100, 200], 4), vec![1, 3]);
        // Equal rates split evenly.
        assert_eq!(quantize_splits(&[5, 5], 4), vec![2, 2]);
        // Zero rates.
        assert_eq!(quantize_splits(&[0, 0], 4), vec![0, 0]);
        // Weights always sum to the bucket count.
        let w = quantize_splits(&[7, 11, 3], 16);
        assert_eq!(w.iter().sum::<u32>(), 16);
    }

    #[test]
    fn unreachable_demand_gets_zero() {
        let g = Graph::with_nodes(2);
        let mut m = DemandMatrix::new();
        m.push(0, 1, 100);
        let alloc = allocate(&g, &m, 2, 10);
        assert_eq!(alloc.rates, vec![0]);
        assert!(alloc.paths[0].is_empty());
    }
}
