//! The immutable CSR graph type.
//!
//! # Layout
//!
//! The graph is stored as three flat arrays in structure-of-arrays form
//! (the `first_out`/`head` layout of high-throughput route planners):
//!
//! - `first_out[v] .. first_out[v + 1]` delimits node `v`'s adjacency range
//!   (length `n + 1`, so degrees are O(1) subtractions),
//! - `head[i]` is the neighbor node of directed-edge slot `i` (sorted per
//!   node, enabling binary-search port lookup),
//! - `edge_id[i]` is the undirected edge behind slot `i`.
//!
//! Keeping `head` and `edge_id` separate (instead of an interleaved
//! `(node, edge)` array) halves the bytes touched by traversals that only
//! need neighbor ids — BFS over `head` alone streams 4 bytes per directed
//! edge. The slot index `first_out[v] + port` doubles as the canonical
//! *directed edge id*, which the CONGEST simulator uses to address its
//! per-edge delivery state without any per-run index building.

use crate::{EdgeId, GraphBuilder, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A neighbor entry in an adjacency list: the neighboring node together with
/// the id of the connecting edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Neighbor {
    /// The adjacent node.
    pub node: NodeId,
    /// The undirected edge connecting to `node`.
    pub edge: EdgeId,
}

/// A resolved edge: its id and both endpoints (`u < v` canonically).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EdgeRef {
    /// The edge id.
    pub id: EdgeId,
    /// The smaller endpoint.
    pub u: NodeId,
    /// The larger endpoint.
    pub v: NodeId,
}

/// An immutable, undirected, simple graph in compressed-sparse-row form.
///
/// Construct via [`GraphBuilder`]. Nodes are `0..n`, edges are `0..m`;
/// adjacency lists are sorted by neighbor id. Self-loops and parallel edges
/// are rejected at build time, matching the simple network graphs of the
/// CONGEST model. See the module docs for the flat
/// `first_out`/`head`/`edge_id` layout.
///
/// # Example
///
/// ```
/// use lcs_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1));
/// b.add_edge(NodeId(1), NodeId(2));
/// let g = b.build();
/// assert_eq!(g.degree(NodeId(1)), 2);
/// assert_eq!(g.heads(NodeId(1)), &[NodeId(0), NodeId(2)]);
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    pub(crate) num_nodes: usize,
    /// Canonical endpoints per edge, `endpoints[e] = (u, v)` with `u < v`.
    pub(crate) endpoints: Vec<(NodeId, NodeId)>,
    /// CSR offsets, length `num_nodes + 1`.
    pub(crate) first_out: Vec<u32>,
    /// Neighbor node per directed-edge slot, sorted within each node's range.
    pub(crate) head: Vec<NodeId>,
    /// Undirected edge id per directed-edge slot, parallel to `head`.
    pub(crate) edge_id: Vec<EdgeId>,
}

/// Iterator over a node's [`Neighbor`]s, zipping the `head` and `edge_id`
/// slices of the CSR layout. Prefer [`Graph::heads`] / [`Graph::edge_ids`]
/// in hot loops that only need one of the two.
#[derive(Clone, Debug)]
pub struct Neighbors<'a> {
    heads: std::slice::Iter<'a, NodeId>,
    edges: std::slice::Iter<'a, EdgeId>,
}

impl Iterator for Neighbors<'_> {
    type Item = Neighbor;

    #[inline]
    fn next(&mut self) -> Option<Neighbor> {
        let node = *self.heads.next()?;
        let edge = *self.edges.next()?;
        Some(Neighbor { node, edge })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.heads.size_hint()
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

impl DoubleEndedIterator for Neighbors<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Neighbor> {
        let node = *self.heads.next_back()?;
        let edge = *self.edges.next_back()?;
        Some(Neighbor { node, edge })
    }
}

impl std::iter::FusedIterator for Neighbors<'_> {}

impl Graph {
    /// Builds a graph from an edge list; convenience for
    /// `GraphBuilder` + `add_edge` loops.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= n`, is a self-loop, or is a
    /// duplicate.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(NodeId(u), NodeId(v));
        }
        b.build()
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// Edge density `m / n` (0 for the empty graph). A trivial lower bound on
    /// the minor density `δ(G)`.
    pub fn density(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes as f64
        }
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.num_nodes as u32).map(NodeId)
    }

    /// Iterator over all edges with endpoints.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeRef> + Clone + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| EdgeRef {
                id: EdgeId(i as u32),
                u,
                v,
            })
    }

    /// The endpoints `(u, v)` of `e`, with `u < v`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.endpoints[e.index()]
    }

    /// The raw CSR offset array, length `n + 1`.
    ///
    /// `first_out[v] + port` is the canonical **directed edge id** of
    /// `v`'s `port`-th incident edge — a dense index in
    /// `0 .. 2m` that consumers (notably the CONGEST simulator's delivery
    /// arena) use to address per-directed-edge state in flat arrays.
    #[inline]
    pub fn first_out(&self) -> &[u32] {
        &self.first_out
    }

    /// The sorted neighbor-node slice of `v` (the `head` range of the CSR
    /// layout). `heads(v)[port]` is the neighbor on `port`.
    #[inline]
    pub fn heads(&self, v: NodeId) -> &[NodeId] {
        let lo = self.first_out[v.index()] as usize;
        let hi = self.first_out[v.index() + 1] as usize;
        &self.head[lo..hi]
    }

    /// The incident-edge slice of `v`, parallel to [`heads`](Self::heads):
    /// `edge_ids(v)[port]` connects `v` to `heads(v)[port]`.
    #[inline]
    pub fn edge_ids(&self, v: NodeId) -> &[EdgeId] {
        let lo = self.first_out[v.index()] as usize;
        let hi = self.first_out[v.index() + 1] as usize;
        &self.edge_id[lo..hi]
    }

    /// Iterator over the sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> Neighbors<'_> {
        Neighbors {
            heads: self.heads(v).iter(),
            edges: self.edge_ids(v).iter(),
        }
    }

    /// The [`Neighbor`] of `v` on local port `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree(v)`.
    #[inline]
    pub fn neighbor(&self, v: NodeId, port: usize) -> Neighbor {
        Neighbor {
            node: self.heads(v)[port],
            edge: self.edge_ids(v)[port],
        }
    }

    /// The local port of `v` leading to `w`, if adjacent (binary search).
    #[inline]
    pub fn port_to(&self, v: NodeId, w: NodeId) -> Option<usize> {
        self.heads(v).binary_search(&w).ok()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.first_out[v.index() + 1] - self.first_out[v.index()]) as usize
    }

    /// Looks up the edge between `u` and `v`, if present (binary search).
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.port_to(u, v).map(|p| self.edge_ids(u)[p])
    }

    /// Whether `u` and `v` are adjacent.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// Maximum degree, 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree, 0 for the empty graph.
    pub fn min_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).min().unwrap_or(0)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.num_nodes)
            .field("m", &self.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.density(), 1.0);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
    }

    #[test]
    fn adjacency_is_sorted_and_symmetric() {
        let g = Graph::from_edges(4, [(2, 0), (3, 1), (0, 1)]);
        for v in g.nodes() {
            let heads = g.heads(v);
            assert!(heads.windows(2).all(|w| w[0] < w[1]));
            for &u in heads {
                assert!(g.heads(u).contains(&v));
            }
        }
    }

    #[test]
    fn slices_agree_with_neighbor_iterator() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)]);
        for v in g.nodes() {
            assert_eq!(g.neighbors(v).len(), g.degree(v));
            for (port, nb) in g.neighbors(v).enumerate() {
                assert_eq!(nb.node, g.heads(v)[port]);
                assert_eq!(nb.edge, g.edge_ids(v)[port]);
                assert_eq!(g.neighbor(v, port), nb);
                assert_eq!(g.port_to(v, nb.node), Some(port));
                // The directed-edge id is dense and consistent.
                let dir = g.first_out()[v.index()] as usize + port;
                assert!(dir < 2 * g.num_edges());
            }
        }
    }

    #[test]
    fn find_edge_and_opposite() {
        let g = triangle();
        let e = g.find_edge(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(g.find_edge(NodeId(2), NodeId(0)), Some(e));
        assert_eq!(g.endpoints(e), (NodeId(0), NodeId(2)));
        assert_eq!(g.find_edge(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn endpoints_are_canonical() {
        let g = Graph::from_edges(3, [(2, 1)]);
        assert_eq!(g.endpoints(EdgeId(0)), (NodeId(1), NodeId(2)));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, []);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.density(), 0.0);
        assert_eq!(g.nodes().count(), 0);
    }
}
