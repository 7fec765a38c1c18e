//! # zen-graph — network graphs and path algorithms
//!
//! The routing substrate shared by the SDN controller, the distributed
//! routing baselines, and the traffic-engineering crate: a compact
//! directed weighted graph plus the path algorithms network control
//! planes are built from — Dijkstra, Bellman-Ford, equal-cost multipath
//! next-hop sets, Yen's k-shortest paths, BFS, connected components,
//! minimum spanning trees, and Edmonds-Karp max-flow.
//!
//! Nodes are dense `u32` indices; edges are directed and carry an integer
//! `weight` (metric) and `capacity` (e.g. bits/sec), so one graph serves
//! both shortest-path routing and flow allocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod paths;

pub use flow::max_flow;
pub use paths::{
    bellman_ford, bfs_tree, connected_components, dijkstra, dists_to, ecmp_next_hops,
    k_shortest_paths, Path, ShortestPaths,
};

/// A node index in a [`Graph`].
pub type NodeIx = u32;

/// An edge index in a [`Graph`].
pub type EdgeIx = u32;

/// A directed edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source node.
    pub from: NodeIx,
    /// Destination node.
    pub to: NodeIx,
    /// Routing metric (additive along a path).
    pub weight: u64,
    /// Capacity, e.g. in bits/sec; used by flow algorithms, ignored by
    /// shortest paths.
    pub capacity: u64,
}

/// A directed weighted graph with dense node indices. Two graphs are
/// equal when they hold the same nodes and the same edges, added in
/// the same order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    edges: Vec<Edge>,
    out: Vec<Vec<EdgeIx>>,
    r#in: Vec<Vec<EdgeIx>>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// A graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Graph {
        Graph {
            edges: Vec::new(),
            out: vec![Vec::new(); n],
            r#in: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Add a node, returning its index.
    pub fn add_node(&mut self) -> NodeIx {
        self.out.push(Vec::new());
        self.r#in.push(Vec::new());
        (self.out.len() - 1) as NodeIx
    }

    /// Add a directed edge.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: NodeIx, to: NodeIx, weight: u64, capacity: u64) -> EdgeIx {
        assert!((from as usize) < self.out.len() && (to as usize) < self.out.len());
        let ix = self.edges.len() as EdgeIx;
        self.edges.push(Edge {
            from,
            to,
            weight,
            capacity,
        });
        self.out[from as usize].push(ix);
        self.r#in[to as usize].push(ix);
        ix
    }

    /// Add a pair of opposing directed edges; returns their indices.
    pub fn add_undirected(
        &mut self,
        a: NodeIx,
        b: NodeIx,
        weight: u64,
        capacity: u64,
    ) -> (EdgeIx, EdgeIx) {
        (
            self.add_edge(a, b, weight, capacity),
            self.add_edge(b, a, weight, capacity),
        )
    }

    /// Look up an edge.
    pub fn edge(&self, ix: EdgeIx) -> &Edge {
        &self.edges[ix as usize]
    }

    /// All edges in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Outgoing edge indices of `node`.
    pub fn out_edges(&self, node: NodeIx) -> &[EdgeIx] {
        &self.out[node as usize]
    }

    /// Incoming edge indices of `node`.
    pub fn in_edges(&self, node: NodeIx) -> &[EdgeIx] {
        &self.r#in[node as usize]
    }

    /// The first edge from `from` to `to`, if any.
    pub fn find_edge(&self, from: NodeIx, to: NodeIx) -> Option<EdgeIx> {
        self.out[from as usize]
            .iter()
            .copied()
            .find(|&e| self.edges[e as usize].to == to)
    }

    /// Out-neighbours of `node` (may repeat under parallel edges).
    pub fn neighbors(&self, node: NodeIx) -> impl Iterator<Item = NodeIx> + '_ {
        self.out[node as usize]
            .iter()
            .map(move |&e| self.edges[e as usize].to)
    }
}

/// A disjoint-set (union-find) structure with path compression and union
/// by rank.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// The representative of `x`'s set.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets containing `a` and `b`. Returns `false` if they were
    /// already joined.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        true
    }
}

/// Kruskal's minimum spanning tree over the *undirected interpretation*
/// of the graph (each directed edge considered as an undirected
/// candidate). Returns chosen edge indices.
pub fn min_spanning_tree(graph: &Graph) -> Vec<EdgeIx> {
    let mut order: Vec<EdgeIx> = (0..graph.edge_count() as EdgeIx).collect();
    order.sort_by_key(|&e| graph.edge(e).weight);
    let mut uf = UnionFind::new(graph.node_count());
    let mut chosen = Vec::new();
    for e in order {
        let edge = graph.edge(e);
        if uf.union(edge.from, edge.to) {
            chosen.push(e);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = Graph::with_nodes(3);
        let e = g.add_edge(0, 1, 5, 100);
        g.add_undirected(1, 2, 3, 50);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge(e).weight, 5);
        assert_eq!(g.find_edge(0, 1), Some(e));
        assert_eq!(g.find_edge(1, 0), None);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![2]);
        assert_eq!(g.in_edges(1).len(), 2);
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
    }

    #[test]
    fn mst_picks_light_edges() {
        // Triangle 0-1 (1), 1-2 (2), 0-2 (10): MST = the two light edges.
        let mut g = Graph::with_nodes(3);
        g.add_edge(0, 1, 1, 0);
        g.add_edge(1, 2, 2, 0);
        g.add_edge(0, 2, 10, 0);
        let mst = min_spanning_tree(&g);
        assert_eq!(mst.len(), 2);
        let total: u64 = mst.iter().map(|&e| g.edge(e).weight).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn mst_spans_components_independently() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0, 1, 1, 0);
        g.add_edge(2, 3, 1, 0);
        assert_eq!(min_spanning_tree(&g).len(), 2);
    }
}
