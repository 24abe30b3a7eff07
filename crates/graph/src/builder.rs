//! Incremental construction of [`Graph`]s.

use crate::{EdgeId, Graph, NodeId};
use std::fmt;

/// Largest node count the CSR layout can address: node ids are `u32`, and
/// [`Graph::nodes`] enumerates `0..n as u32`, so `n` itself must fit in
/// `u32`.
pub const MAX_NODES: u64 = u32::MAX as u64;

/// Largest undirected edge count the CSR layout can address: the
/// `first_out` offsets are `u32` values counting **directed** slots, so
/// `2m` must fit in `u32` (and edge ids, also `u32`, follow a fortiori).
pub const MAX_EDGES: u64 = (u32::MAX / 2) as u64;

/// The requested graph exceeds what the `u32`-based CSR index arithmetic
/// can represent. Returned by [`check_csr_capacity`]
/// and [`GraphBuilder::try_build`] **before** any
/// proportional allocation happens, so million-node (and beyond) inputs
/// fail with a typed error instead of a silent `u32` wrap in release
/// builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapacityError {
    /// `n` exceeds [`MAX_NODES`].
    TooManyNodes {
        /// The requested node count.
        n: u64,
    },
    /// `m` exceeds [`MAX_EDGES`].
    TooManyEdges {
        /// The requested undirected edge count.
        m: u64,
    },
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CapacityError::TooManyNodes { n } => {
                write!(f, "{n} nodes exceed the CSR limit of {MAX_NODES}")
            }
            CapacityError::TooManyEdges { m } => write!(
                f,
                "{m} edges exceed the CSR limit of {MAX_EDGES} (2m must fit in u32)"
            ),
        }
    }
}

impl std::error::Error for CapacityError {}

/// Checks that a graph with `n` nodes and `m` undirected edges fits the
/// CSR layout's `u32` index arithmetic (see [`MAX_NODES`] / [`MAX_EDGES`]).
///
/// Counts are taken as `u64` so callers holding on-disk headers can
/// validate them before casting to `usize`.
pub fn check_csr_capacity(n: u64, m: u64) -> Result<(), CapacityError> {
    if n > MAX_NODES {
        return Err(CapacityError::TooManyNodes { n });
    }
    if m > MAX_EDGES {
        return Err(CapacityError::TooManyEdges { m });
    }
    Ok(())
}

/// Builder for [`Graph`].
///
/// Collects edges, validates them (no self-loops, endpoints in range), and
/// produces a CSR [`Graph`] with sorted adjacency lists. Duplicate edges are
/// rejected at [`build`](GraphBuilder::build) time.
///
/// # Example
///
/// ```
/// use lcs_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(4);
/// for i in 0..3u32 {
///     b.add_edge(NodeId(i), NodeId(i + 1));
/// }
/// let path = b.build();
/// assert_eq!(path.num_edges(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            num_nodes: n,
            edges: Vec::new(),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}` and returns its future [`EdgeId`].
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loop) or either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> EdgeId {
        assert!(u != v, "self-loop at {u:?} rejected");
        assert!(
            u.index() < self.num_nodes && v.index() < self.num_nodes,
            "edge ({u:?}, {v:?}) out of range for {} nodes",
            self.num_nodes
        );
        let e = EdgeId::from_index(self.edges.len());
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
        e
    }

    /// Whether `{u, v}` has been added already.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.contains(&(a, b))
    }

    /// Finalizes the builder into an immutable [`Graph`].
    ///
    /// # Panics
    ///
    /// Panics if duplicate edges were added (check
    /// [`has_edge`](Self::has_edge) first to skip them) or if the graph
    /// exceeds the CSR capacity limits (see
    /// [`try_build`](Self::try_build) for the fallible form).
    pub fn build(self) -> Graph {
        match self.try_build() {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`build`](Self::build) with the capacity limits checked up front:
    /// returns a typed [`CapacityError`] — **before** allocating anything
    /// proportional to `n` or `m` — when the graph cannot be represented in
    /// the `u32`-based CSR layout ([`MAX_NODES`] / [`MAX_EDGES`]).
    ///
    /// # Panics
    ///
    /// Still panics on duplicate edges, which are a logic error rather than
    /// a size limit.
    pub fn try_build(self) -> Result<Graph, CapacityError> {
        check_csr_capacity(self.num_nodes as u64, self.edges.len() as u64)?;
        Ok(self.build_unchecked())
    }

    fn build_unchecked(self) -> Graph {
        let n = self.num_nodes;
        let m = self.edges.len();
        // Duplicate detection via sorted copy.
        let mut sorted = self.edges.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert!(
                w[0] != w[1],
                "duplicate edge ({:?}, {:?}) rejected",
                w[0].0,
                w[0].1
            );
        }
        // Degree counting, then a prefix sum into the CSR offsets.
        let mut first_out = vec![0u32; n + 1];
        for &(u, v) in &self.edges {
            first_out[u.index() + 1] += 1;
            first_out[v.index() + 1] += 1;
        }
        for i in 0..n {
            first_out[i + 1] += first_out[i];
        }
        // Scatter both directions into a scratch (head, edge) array, sort
        // each node's range by head, then split into the SoA arrays.
        let mut cursor = first_out.clone();
        let mut scratch = vec![(NodeId(0), EdgeId(0)); 2 * m];
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            let e = EdgeId(i as u32);
            scratch[cursor[u.index()] as usize] = (v, e);
            cursor[u.index()] += 1;
            scratch[cursor[v.index()] as usize] = (u, e);
            cursor[v.index()] += 1;
        }
        for i in 0..n {
            let lo = first_out[i] as usize;
            let hi = first_out[i + 1] as usize;
            scratch[lo..hi].sort_unstable_by_key(|&(node, _)| node);
        }
        let (head, edge_id): (Vec<NodeId>, Vec<EdgeId>) = scratch.into_iter().unzip();
        // The edge list grew by pushes: keep none of its spare capacity.
        let mut endpoints = self.edges;
        endpoints.shrink_to_fit();
        Graph {
            num_nodes: n,
            endpoints,
            first_out,
            head,
            edge_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_in_any_insertion_order() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(2), NodeId(0));
        b.add_edge(NodeId(1), NodeId(0));
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn a_built_graph_keeps_no_spare_edge_capacity() {
        let g = crate::gen::road_like(64, 64, 7);
        assert_eq!(g.endpoints.capacity(), g.num_edges());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        GraphBuilder::new(2).add_edge(NodeId(1), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        GraphBuilder::new(2).add_edge(NodeId(0), NodeId(2));
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicates_at_build() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(0));
        b.build();
    }

    #[test]
    fn capacity_check_at_the_boundaries() {
        // Exactly at the limits: representable.
        assert_eq!(check_csr_capacity(MAX_NODES, MAX_EDGES), Ok(()));
        assert_eq!(check_csr_capacity(0, 0), Ok(()));
        // One past either limit: typed errors, not u32 wrap-around.
        assert_eq!(
            check_csr_capacity(MAX_NODES + 1, 0),
            Err(CapacityError::TooManyNodes { n: MAX_NODES + 1 })
        );
        assert_eq!(
            check_csr_capacity(0, MAX_EDGES + 1),
            Err(CapacityError::TooManyEdges { m: MAX_EDGES + 1 })
        );
    }

    #[test]
    fn try_build_rejects_oversized_n_before_allocating() {
        // A builder over 2^32 nodes must fail fast with a typed error; the
        // check runs before the n+1-sized offset array would be allocated.
        let b = GraphBuilder::new(MAX_NODES as usize + 1);
        assert_eq!(
            b.try_build(),
            Err(CapacityError::TooManyNodes { n: MAX_NODES + 1 })
        );
    }

    #[test]
    fn capacity_error_messages_name_the_limit() {
        let e = CapacityError::TooManyEdges { m: MAX_EDGES + 1 };
        assert!(e.to_string().contains("2m must fit in u32"));
        let e = CapacityError::TooManyNodes { n: MAX_NODES + 7 };
        assert!(e.to_string().contains("CSR limit"));
    }
}
