//! Network topology graph and shortest-path routing.
//!
//! The platform's WAN is an undirected graph whose nodes are the computing
//! sites plus the central main server, and whose edges are the configured
//! links. Routing between two nodes follows the lowest-latency path
//! (Dijkstra), which mirrors how SimGrid resolves netzone-to-netzone routes
//! from the platform description.

/// Properties of a network edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeProps {
    /// One-way latency in seconds.
    pub latency_s: f64,
    /// Bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

/// An undirected weighted graph with stable node and edge indices.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adjacency: Vec<Vec<(usize, usize)>>,
    edges: Vec<(usize, usize, EdgeProps)>,
}

/// A path through the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Edge indices along the path, in traversal order.
    pub edges: Vec<usize>,
    /// Sum of edge latencies.
    pub latency_s: f64,
    /// Minimum bandwidth along the path (the nominal bottleneck).
    pub min_bandwidth_bps: f64,
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

    /// Lowest-latency path from `from` to `to` (Dijkstra, stopping as soon as
    /// `to` is settled). Returns `None` when the nodes are disconnected. A
    /// path from a node to itself is the empty path. The reference the
    /// single-source [`Graph::shortest_paths_from`] is checked against.
    #[cfg(test)]
    pub(crate) fn shortest_path(&self, from: usize, to: usize) -> Option<Path> {
        let (dist, prev) = self.dijkstra(from, Some(to));
        self.trace_back(from, to, &dist, &prev)
    }

    /// Lowest-latency paths from `from` to every node, indexed by
    /// destination: one Dijkstra run (O(V²)) instead of one per destination.
    /// Entry `to` equals the per-pair early-exit Dijkstra's path edge for
    /// edge — a node's predecessor is final once the node is
    /// settled, so running past it changes nothing — which is what lets
    /// `Platform::build` route all V² endpoint pairs in O(V³).
    pub(crate) fn shortest_paths_from(&self, from: usize) -> Vec<Option<Path>> {
        let (dist, prev) = self.dijkstra(from, None);
        (0..self.adjacency.len())
            .map(|to| self.trace_back(from, to, &dist, &prev))
            .collect()
    }

    /// Dijkstra from `from` over latency (+1 ns per hop, so zero-latency
    /// edges still count and fewer hops win ties), settling the
    /// lowest-indexed node among equals. Stops once `stop_at` is settled.
    /// Returns the distance and `(parent, edge)` predecessor of every node.
    fn dijkstra(
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
                let weight = self.edges[edge_idx].2.latency_s.max(0.0) + 1e-9;
                if dist[u] + weight < dist[v] {
                    dist[v] = dist[u] + weight;
                    prev[v] = Some((u, edge_idx));
                }
            }
        }
        (dist, prev)
    }

    /// Walks the predecessor chain of `to` back to `from`.
    fn trace_back(
        &self,
        from: usize,
        to: usize,
        dist: &[f64],
        prev: &[Option<(usize, usize)>],
    ) -> Option<Path> {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn props(latency_ms: f64, bw: f64) -> EdgeProps {
        EdgeProps {
            latency_s: latency_ms / 1000.0,
            bandwidth_bps: bw,
        }
    }

    #[test]
    fn empty_and_trivial_paths() {
        let mut g = Graph::new();
        let a = g.add_node();
        let path = g.shortest_path(a, a).unwrap();
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
        let path = g.shortest_path(a, c).unwrap();
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
        let path = g.shortest_path(a, b).unwrap();
        assert_eq!(path.edges, vec![e_fast1, e_fast2]);
    }

    #[test]
    fn disconnected_nodes_have_no_path() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert!(g.shortest_path(a, b).is_none());
    }

    #[test]
    fn star_topology_routes_leaf_to_leaf_through_the_hub() {
        let mut g = Graph::new();
        let hub = g.add_node();
        let leaves: Vec<_> = (0..10).map(|_| g.add_node()).collect();
        for &leaf in &leaves {
            g.add_edge(hub, leaf, props(10.0, 1e9));
        }
        let path = g.shortest_path(leaves[0], leaves[9]).unwrap();
        assert_eq!(path.edges.len(), 2);
    }

    /// A ring with chords where every edge has the same latency: many
    /// equal-cost paths, so any drift in tie-breaking between the early-exit
    /// and the run-to-completion Dijkstra would show.
    #[test]
    fn single_source_paths_equal_per_pair_paths_under_ties() {
        let mut g = Graph::new();
        let nodes: Vec<_> = (0..9).map(|_| g.add_node()).collect();
        for i in 0..9 {
            g.add_edge(nodes[i], nodes[(i + 1) % 9], props(10.0, 1e9));
            g.add_edge(nodes[i], nodes[(i + 3) % 9], props(10.0, 5e8));
        }
        let island = g.add_node();
        for &from in &nodes {
            let tree = g.shortest_paths_from(from);
            for &to in &nodes {
                assert_eq!(tree[to], g.shortest_path(from, to), "{from}->{to}");
            }
            assert_eq!(tree[island], None);
        }
    }

    #[test]
    fn zero_latency_edges_are_usable() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b, props(0.0, 1e9));
        let path = g.shortest_path(a, b).unwrap();
        assert_eq!(path.edges.len(), 1);
    }
}
