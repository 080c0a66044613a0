//! Network topology graph and shortest-path routing.
//!
//! The platform's WAN is an undirected graph whose nodes are the computing
//! sites plus the central main server, and whose edges are the configured
//! links. Routing between two nodes follows the lowest-latency path
//! (Dijkstra), which mirrors how SimGrid resolves netzone-to-netzone routes
//! from the platform description.
//!
//! `Graph::grow_tree` grows the shortest-path tree of one source with a
//! binary heap: O((V + E) log V) per source, so routing every ordered pair
//! costs O(V (V + E) log V). The heap settles nodes in the order of an
//! O(V²) array-scan Dijkstra — smallest distance first, lowest index among
//! equals — and relaxes edges in the same adjacency order, so every
//! distance bit and predecessor is the scan's. The scan and a per-pair
//! early-exit search are test-only reference twins, and a property test
//! compares the heap with the scan on random graphs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Properties of a network edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeProps {
    /// One-way latency in seconds.
    pub latency_s: f64,
    /// Bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

impl EdgeProps {
    /// Dijkstra weight: latency plus 1 ns per hop, so zero-latency edges
    /// still count and fewer hops win ties.
    fn weight(self) -> f64 {
        self.latency_s.max(0.0) + 1e-9
    }
}

/// An undirected weighted graph with stable node and edge indices.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adjacency: Vec<Vec<(usize, usize)>>,
    edges: Vec<(usize, usize, EdgeProps)>,
}

/// The shortest-path tree of one source; [`Graph::grow_tree`] overwrites it,
/// so one tree can serve source after source.
#[derive(Debug, Clone, Default)]
pub(crate) struct PathTree {
    /// Distance from the source (infinite when unreached).
    dist: Vec<f64>,
    /// `(parent, edge)` through which each node was reached; `None` for the
    /// source and for unreached nodes.
    prev: Vec<Option<(usize, usize)>>,
    settled: Vec<bool>,
    /// Frontier keyed by `(distance bits, node)`, smallest first. Distances
    /// are non-negative, and non-negative floats order as their bit
    /// patterns do, so the key breaks distance ties by the lower index.
    frontier: BinaryHeap<Reverse<(u64, usize)>>,
}

impl PathTree {
    /// True when `node` is reachable from the tree's source.
    pub(crate) fn reaches(&self, node: usize) -> bool {
        !self.dist[node].is_infinite()
    }

    /// The edges of the path from the source to `node`, last edge first.
    pub(crate) fn edges_back(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.prev[node], |&(parent, _)| self.prev[parent])
            .map(|(_, edge)| edge)
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a node and returns its index.
    pub(crate) fn add_node(&mut self) -> usize {
        self.adjacency.push(Vec::new());
        self.adjacency.len() - 1
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Adds an undirected edge between `a` and `b` and returns its index.
    pub(crate) fn add_edge(&mut self, a: usize, b: usize, props: EdgeProps) -> usize {
        assert!(a < self.adjacency.len() && b < self.adjacency.len());
        let idx = self.edges.len();
        self.edges.push((a, b, props));
        self.adjacency[a].push((b, idx));
        self.adjacency[b].push((a, idx));
        idx
    }

    /// Properties of edge `idx`.
    pub fn edge(&self, idx: usize) -> EdgeProps {
        self.edges[idx].2
    }

    /// Overwrites `tree` with the lowest-latency paths from `from` to every
    /// node: a binary-heap Dijkstra over latency plus 1 ns per hop. A node's
    /// first pop settles it; later pops of the same node are stale entries
    /// left by a relaxation and are skipped.
    pub(crate) fn grow_tree(&self, from: usize, tree: &mut PathTree) {
        let n = self.adjacency.len();
        tree.dist.clear();
        tree.dist.resize(n, f64::INFINITY);
        tree.prev.clear();
        tree.prev.resize(n, None);
        tree.settled.clear();
        tree.settled.resize(n, false);
        tree.frontier.clear();
        tree.dist[from] = 0.0;
        tree.frontier.push(Reverse((0.0f64.to_bits(), from)));
        while let Some(Reverse((_, u))) = tree.frontier.pop() {
            if std::mem::replace(&mut tree.settled[u], true) {
                continue;
            }
            for &(v, edge_idx) in &self.adjacency[u] {
                let through = tree.dist[u] + self.edges[edge_idx].2.weight();
                if through < tree.dist[v] {
                    tree.dist[v] = through;
                    tree.prev[v] = Some((u, edge_idx));
                    tree.frontier.push(Reverse((through.to_bits(), v)));
                }
            }
        }
    }
}

/// A path through the graph, as the per-pair reference search reports it.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Path {
    /// Edge indices along the path, in traversal order.
    pub(crate) edges: Vec<usize>,
    /// Sum of edge latencies.
    pub(crate) latency_s: f64,
    /// Minimum bandwidth along the path (the nominal bottleneck).
    pub(crate) min_bandwidth_bps: f64,
}

/// The reference twins of [`Graph::grow_tree`].
#[cfg(test)]
impl Graph {
    /// Lowest-latency path from `from` to `to` (the array scan, stopping as
    /// soon as `to` is settled). Returns `None` when the nodes are
    /// disconnected. A path from a node to itself is the empty path.
    pub(crate) fn shortest_path(&self, from: usize, to: usize) -> Option<Path> {
        let (dist, prev) = self.dijkstra_scan(from, Some(to));
        if dist[to].is_infinite() {
            return None;
        }
        let mut edges = Vec::new();
        let mut latency = 0.0;
        let mut min_bw = f64::INFINITY;
        let mut cursor = to;
        while cursor != from {
            let (parent, edge_idx) = prev[cursor]?;
            edges.push(edge_idx);
            let props = self.edges[edge_idx].2;
            latency += props.latency_s;
            min_bw = min_bw.min(props.bandwidth_bps);
            cursor = parent;
        }
        edges.reverse();
        Some(Path {
            edges,
            latency_s: latency,
            min_bandwidth_bps: min_bw,
        })
    }

    /// The heap's O(V²)-per-source reference twin: each round scans
    /// every node for the unsettled one with the smallest distance (the
    /// lowest index among equals). Stops once `stop_at` is settled.
    /// Returns the distance and `(parent, edge)` predecessor of every node.
    pub(crate) fn dijkstra_scan(
        &self,
        from: usize,
        stop_at: Option<usize>,
    ) -> (Vec<f64>, Vec<Option<(usize, usize)>>) {
        let n = self.adjacency.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; n];
        let mut visited = vec![false; n];
        dist[from] = 0.0;

        for _ in 0..n {
            let mut u = None;
            let mut best = f64::INFINITY;
            for (i, &d) in dist.iter().enumerate() {
                if !visited[i] && d < best {
                    best = d;
                    u = Some(i);
                }
            }
            let Some(u) = u else { break };
            if Some(u) == stop_at {
                break;
            }
            visited[u] = true;
            for &(v, edge_idx) in &self.adjacency[u] {
                let weight = self.edges[edge_idx].2.weight();
                if dist[u] + weight < dist[v] {
                    dist[v] = dist[u] + weight;
                    prev[v] = Some((u, edge_idx));
                }
            }
        }
        (dist, prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn props(latency_ms: f64, bw: f64) -> EdgeProps {
        EdgeProps {
            latency_s: latency_ms / 1000.0,
            bandwidth_bps: bw,
        }
    }

    /// The lowest-latency path `from -> to` read off the heap tree, checked
    /// against the per-pair reference search.
    fn path(g: &Graph, from: usize, to: usize) -> Option<Path> {
        let mut tree = PathTree::default();
        g.grow_tree(from, &mut tree);
        let from_tree = tree.reaches(to).then(|| {
            // Summed last edge first, as the reference walks its chain.
            let mut edges: Vec<usize> = tree.edges_back(to).collect();
            let (latency_s, min_bandwidth_bps) =
                edges.iter().fold((0.0, f64::INFINITY), |(l, b), &e| {
                    (
                        l + g.edge(e).latency_s,
                        f64::min(b, g.edge(e).bandwidth_bps),
                    )
                });
            edges.reverse();
            Path {
                edges,
                latency_s,
                min_bandwidth_bps,
            }
        });
        assert_eq!(from_tree, g.shortest_path(from, to), "{from} -> {to}");
        from_tree
    }

    /// The heap tree and the array scan run to completion from `from` agree
    /// on every distance bit and every predecessor.
    fn assert_tree_matches_scan(g: &Graph, from: usize, tree: &mut PathTree) {
        g.grow_tree(from, tree);
        let (dist, prev) = g.dijkstra_scan(from, None);
        let bits = |d: &[f64]| d.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&tree.dist), bits(&dist), "distances from {from}");
        assert_eq!(tree.prev, prev, "predecessors from {from}");
    }

    #[test]
    fn empty_and_trivial_paths() {
        let mut g = Graph::new();
        let a = g.add_node();
        let path = path(&g, a, a).unwrap();
        assert!(path.edges.is_empty());
        assert_eq!(path.latency_s, 0.0);
    }

    #[test]
    fn straight_line_routing() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let e1 = g.add_edge(a, b, props(10.0, 100.0));
        let e2 = g.add_edge(b, c, props(20.0, 50.0));
        let path = path(&g, a, c).unwrap();
        assert_eq!(path.edges, vec![e1, e2]);
        assert!((path.latency_s - 0.03).abs() < 1e-12);
        assert_eq!(path.min_bandwidth_bps, 50.0);
    }

    #[test]
    fn picks_lower_latency_route() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let hub = g.add_node();
        // Direct slow link vs two-hop fast path.
        g.add_edge(a, b, props(100.0, 10.0));
        let e_fast1 = g.add_edge(a, hub, props(5.0, 1000.0));
        let e_fast2 = g.add_edge(hub, b, props(5.0, 1000.0));
        let path = path(&g, a, b).unwrap();
        assert_eq!(path.edges, vec![e_fast1, e_fast2]);
    }

    #[test]
    fn disconnected_nodes_have_no_path() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert!(path(&g, a, b).is_none());
    }

    #[test]
    fn star_topology_routes_leaf_to_leaf_through_the_hub() {
        let mut g = Graph::new();
        let hub = g.add_node();
        let leaves: Vec<_> = (0..10).map(|_| g.add_node()).collect();
        for &leaf in &leaves {
            g.add_edge(hub, leaf, props(10.0, 1e9));
        }
        let path = path(&g, leaves[0], leaves[9]).unwrap();
        assert_eq!(path.edges.len(), 2);
    }

    /// A ring with chords where every edge has the same latency: many
    /// equal-cost paths, so any drift in tie-breaking between the heap tree,
    /// the full scan and the early-exit scan would show.
    #[test]
    fn single_source_paths_equal_per_pair_paths_under_ties() {
        let mut g = Graph::new();
        let nodes: Vec<_> = (0..9).map(|_| g.add_node()).collect();
        for i in 0..9 {
            g.add_edge(nodes[i], nodes[(i + 1) % 9], props(10.0, 1e9));
            g.add_edge(nodes[i], nodes[(i + 3) % 9], props(10.0, 5e8));
        }
        let island = g.add_node();
        let mut tree = PathTree::default();
        for &from in &nodes {
            assert_tree_matches_scan(&g, from, &mut tree);
            for &to in &nodes {
                path(&g, from, to).unwrap();
            }
            assert_eq!(path(&g, from, island), None);
        }
    }

    #[test]
    fn zero_latency_edges_are_usable() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b, props(0.0, 1e9));
        let path = path(&g, a, b).unwrap();
        assert_eq!(path.edges.len(), 1);
    }

    proptest! {
        /// Random multigraphs — latencies from a five-value menu, so ties are
        /// everywhere; zero-latency edges; parallel edges and self-loops from
        /// repeated endpoint draws; islands wherever the edges leave nodes
        /// out. One tree is reused across every source, as routing does.
        #[test]
        fn heap_tree_matches_the_array_scan_from_every_source(
            nodes in 1usize..16,
            edges in prop::collection::vec((0usize..16, 0usize..16, 0usize..5, 1u32..4), 0..30),
        ) {
            const LATENCY_MS: [f64; 5] = [0.0, 1.0, 1.0, 2.0, 5.0];
            let mut g = Graph::new();
            for _ in 0..nodes {
                g.add_node();
            }
            for &(a, b, latency, bandwidth) in &edges {
                g.add_edge(a % nodes, b % nodes, props(LATENCY_MS[latency], f64::from(bandwidth)));
            }
            let mut tree = PathTree::default();
            for from in 0..nodes {
                assert_tree_matches_scan(&g, from, &mut tree);
            }
        }
    }
}
