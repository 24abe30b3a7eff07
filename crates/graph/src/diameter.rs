//! Diameter and eccentricity computation.
//!
//! Shortcut dilation (Definition 2.2) is a diameter of an auxiliary subgraph,
//! so quality measurement needs both exact diameters (small graphs) and
//! cheap two-sided bounds (large graphs).

use crate::{bfs, Graph, NodeId};

/// A two-sided diameter estimate: `lower <= diameter <= upper`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiameterBounds {
    /// A realized path length (double-sweep lower bound).
    pub lower: u32,
    /// An upper bound (2 × eccentricity of the second sweep's start).
    pub upper: u32,
}

/// Exact diameter of the component containing `start` via BFS from every node
/// of that component. `O(n·m)` — intended for verification and small graphs.
///
/// Returns 0 for a single-node component.
///
/// # Panics
///
/// Panics if `start` is out of range.
pub fn exact_diameter_of_component(g: &Graph, start: NodeId) -> u32 {
    let comp = bfs::bfs(g, start);
    let mut best = 0;
    for &v in &comp.order {
        best = best.max(bfs::bfs(g, v).eccentricity());
    }
    best
}

/// Exact diameter of a connected graph.
///
/// # Panics
///
/// Panics if `g` is disconnected or empty.
pub fn exact_diameter(g: &Graph) -> u32 {
    assert!(
        g.num_nodes() > 0,
        "diameter of the empty graph is undefined"
    );
    let comp = bfs::bfs(g, NodeId(0));
    assert!(
        comp.order.len() == g.num_nodes(),
        "graph must be connected for exact_diameter"
    );
    exact_diameter_of_component(g, NodeId(0))
}

/// Double-sweep bounds on the diameter of `start`'s component: BFS from
/// `start` to find a far node `a`, BFS from `a` to find `b`; then
/// `dist(a, b) <= diam <= 2·ecc(a)`.
pub fn diameter_bounds(g: &Graph, start: NodeId) -> DiameterBounds {
    let first = bfs::bfs(g, start);
    let Some((a, _)) = first.farthest() else {
        return DiameterBounds { lower: 0, upper: 0 };
    };
    let second = bfs::bfs(g, a);
    let ecc = second.eccentricity();
    DiameterBounds {
        lower: ecc,
        upper: 2 * ecc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn path_diameter() {
        let g = gen::path(7);
        assert_eq!(exact_diameter(&g), 6);
        let b = diameter_bounds(&g, NodeId(3));
        assert_eq!(b.lower, 6); // double sweep is exact on trees
        assert!(b.upper >= 6);
    }

    #[test]
    fn cycle_diameter() {
        let g = gen::cycle(8);
        assert_eq!(exact_diameter(&g), 4);
        let b = diameter_bounds(&g, NodeId(0));
        assert!(b.lower <= 4 && 4 <= b.upper);
    }

    #[test]
    fn grid_diameter() {
        let g = gen::grid(4, 6);
        assert_eq!(exact_diameter(&g), 3 + 5);
    }

    #[test]
    fn single_node() {
        let g = Graph::from_edges(1, []);
        assert_eq!(exact_diameter(&g), 0);
        let b = diameter_bounds(&g, NodeId(0));
        assert_eq!((b.lower, b.upper), (0, 0));
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn exact_diameter_rejects_disconnected() {
        let g = Graph::from_edges(3, [(0, 1)]);
        exact_diameter(&g);
    }
}
