//! Connected components.

use crate::{bfs, Graph, NodeId};

/// Connected-component labelling of a graph.
#[derive(Clone, Debug)]
pub struct Components {
    /// `label[v]` = dense component index in `0..count`.
    pub label: Vec<u32>,
    /// Number of components.
    pub count: usize,
    /// Nodes of each component.
    pub members: Vec<Vec<NodeId>>,
}

/// Computes connected components in one `O(n + m)` labelling pass: each
/// component's member list doubles as its BFS queue.
pub fn connected_components(g: &Graph) -> Components {
    let mut label = vec![u32::MAX; g.num_nodes()];
    let mut members: Vec<Vec<NodeId>> = Vec::new();
    for v in g.nodes() {
        if label[v.index()] != u32::MAX {
            continue;
        }
        let id = members.len() as u32;
        label[v.index()] = id;
        let mut comp = vec![v];
        let mut head = 0;
        while let Some(&u) = comp.get(head) {
            head += 1;
            for &w in g.heads(u) {
                if label[w.index()] == u32::MAX {
                    label[w.index()] = id;
                    comp.push(w);
                }
            }
        }
        members.push(comp);
    }
    Components {
        count: members.len(),
        label,
        members,
    }
}

/// Whether the whole graph is connected (the empty graph counts as
/// connected).
pub fn is_connected(g: &Graph) -> bool {
    if g.num_nodes() == 0 {
        return true;
    }
    bfs::bfs(g, NodeId(0)).order.len() == g.num_nodes()
}

/// Reusable state for breadth-first searches confined to a node subset:
/// one membership mark per node and a flat queue, both handed from one
/// query to the next. A search clears the marks of what it visits and of
/// the rest of its subset on the way out, so a query costs `O(|subset| +
/// its incident edges)` — never `O(n)` — after the one allocation.
#[derive(Debug)]
pub struct SubsetSearch {
    inside: Vec<bool>,
    queue: Vec<NodeId>,
}

impl SubsetSearch {
    /// A search state for graphs with `n` nodes.
    pub fn new(n: usize) -> Self {
        SubsetSearch {
            inside: vec![false; n],
            queue: Vec::new(),
        }
    }

    /// Searches `G[nodes]` from `nodes[0]`, leaving the visit order in the
    /// queue; returns the number of distinct nodes in `nodes`.
    fn run(&mut self, g: &Graph, nodes: &[NodeId]) -> usize {
        self.queue.clear();
        let mut distinct = 0;
        for &v in nodes {
            distinct += usize::from(!std::mem::replace(&mut self.inside[v.index()], true));
        }
        if let Some(&src) = nodes.first() {
            self.inside[src.index()] = false;
            self.queue.push(src);
        }
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            for &w in g.heads(u) {
                if std::mem::take(&mut self.inside[w.index()]) {
                    self.queue.push(w);
                }
            }
        }
        for &v in nodes {
            self.inside[v.index()] = false;
        }
        distinct
    }

    /// The nodes of `G[nodes]` reachable from `nodes[0]`, in BFS order
    /// (empty for the empty set).
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range.
    pub fn reach(&mut self, g: &Graph, nodes: &[NodeId]) -> &[NodeId] {
        self.run(g, nodes);
        &self.queue
    }

    /// Whether `nodes` induces a connected subgraph of `g`, in
    /// `O(|nodes| + their incident edges)`. The empty set counts as
    /// connected.
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range.
    pub fn induces_connected(&mut self, g: &Graph, nodes: &[NodeId]) -> bool {
        self.run(g, nodes) == self.queue.len()
    }
}

/// Whether `nodes` induces a connected subgraph of `g` (the paper requires
/// each part `P_i` to induce a connected subgraph; Definition 2.1).
///
/// The empty set counts as connected. One-shot form of
/// [`SubsetSearch::induces_connected`]: `O(n)` for the allocation, so a
/// caller checking many sets keeps one [`SubsetSearch`] instead.
pub fn induces_connected(g: &Graph, nodes: &[NodeId]) -> bool {
    SubsetSearch::new(g.num_nodes()).induces_connected(g, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bfs, gen};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn single_component_on_grid() {
        let g = gen::grid(3, 4);
        let c = connected_components(&g);
        assert_eq!(c.count, 1);
        assert!(is_connected(&g));
        assert_eq!(c.members[0].len(), 12);
    }

    #[test]
    fn two_components() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3), (3, 4)]);
        let c = connected_components(&g);
        assert_eq!(c.count, 2);
        assert_eq!(c.label[0], c.label[1]);
        assert_ne!(c.label[0], c.label[2]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn induced_connectivity() {
        let g = gen::path(5);
        assert!(induces_connected(&g, &[NodeId(1), NodeId(2), NodeId(3)]));
        assert!(!induces_connected(&g, &[NodeId(0), NodeId(2)]));
        assert!(induces_connected(&g, &[]));
        assert!(induces_connected(&g, &[NodeId(4)]));
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = Graph::from_edges(0, []);
        assert!(is_connected(&g));
        assert_eq!(connected_components(&g).count, 0);
    }
    /// One labelling pass, not one whole-graph search per component: the
    /// edgeless graph has 200 000 of them.
    #[test]
    fn edgeless_graph_has_one_component_per_node() {
        let g = Graph::from_edges(200_000, []);
        let c = connected_components(&g);
        assert_eq!(c.count, 200_000);
        assert!(c.label.iter().enumerate().all(|(v, &l)| l as usize == v));
    }

    /// Labels and member lists agree with one whole-graph BFS per
    /// component, members in BFS order.
    #[test]
    fn components_match_repeated_bfs() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..40 {
            let n = rng.gen_range(1..60u32);
            let edges =
                (0..rng.gen_range(0..n)).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)));
            let edges = edges
                .map(|(a, b)| (a.min(b), a.max(b)))
                .filter(|(a, b)| a != b);
            let edges: std::collections::BTreeSet<(u32, u32)> = edges.collect();
            let g = Graph::from_edges(n as usize, edges);
            let c = connected_components(&g);
            for (id, members) in c.members.iter().enumerate() {
                assert_eq!(members, &bfs::bfs(&g, members[0]).order);
                assert!(members.iter().all(|v| c.label[v.index()] == id as u32));
            }
            assert_eq!(c.members.iter().map(Vec::len).sum::<usize>(), n as usize);
        }
    }

    /// One search state across many queries answers like a fresh
    /// whole-graph filtered BFS per query — duplicates, disconnected sets
    /// (whose unreached members must not leak into the next query) and the
    /// visit order included.
    #[test]
    fn reused_subset_search_matches_filtered_bfs() {
        let mut rng = SmallRng::seed_from_u64(9);
        for seed in 0..20 {
            let g = gen::road_like(6, 7, seed);
            let n = g.num_nodes() as u32;
            let mut search = SubsetSearch::new(g.num_nodes());
            for _ in 0..50 {
                let len = rng.gen_range(0..12);
                let start = rng.gen_range(0..n);
                // A BFS ball (connected) with a few random nodes mixed in.
                let ball = bfs::bfs(&g, NodeId(start)).order;
                let mut nodes: Vec<NodeId> = ball.into_iter().take(len).collect();
                for _ in 0..rng.gen_range(0..3) {
                    nodes.push(NodeId(rng.gen_range(0..n)));
                }
                let mut inside = vec![false; g.num_nodes()];
                for &v in &nodes {
                    inside[v.index()] = true;
                }
                let sources = &nodes[..nodes.len().min(1)];
                let oracle = bfs::bfs_filtered(&g, sources, |_, w| inside[w.index()]);
                assert_eq!(search.reach(&g, &nodes), oracle.order);
                let connected = nodes.iter().all(|&v| oracle.reached(v));
                assert_eq!(search.induces_connected(&g, &nodes), connected);
                assert_eq!(induces_connected(&g, &nodes), connected);
            }
        }
    }
}
