//! Elementary families: paths, cycles, stars, cliques, wheels.

use crate::{Graph, GraphBuilder, NodeId};

/// The path `P_n` on `n` nodes (`n - 1` edges). Minor density `δ < 1`;
/// diameter `n - 1`.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId((i - 1) as u32), NodeId(i as u32));
    }
    b.build()
}

/// The cycle `C_n` on `n >= 3` nodes. Minor density `δ = 1`; diameter
/// `⌊n/2⌋`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 nodes");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(NodeId(i as u32), NodeId(((i + 1) % n) as u32));
    }
    b.build()
}

/// The star `K_{1,n-1}`: node 0 is the hub. Minor density `δ < 1`;
/// diameter 2.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1, "star needs at least 1 node");
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId(0), NodeId(i as u32));
    }
    b.build()
}

/// The complete graph `K_n`. Minor density `δ = (n-1)/2`; diameter 1.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(NodeId(i as u32), NodeId(j as u32));
        }
    }
    b.build()
}

/// The wheel `W_n`: hub node 0 plus a cycle on nodes `1..n`.
///
/// This is the paper's Section 2 example: diameter 2 but the rim — a single
/// part — has induced diameter `Θ(n)`, which is why part-wise aggregation
/// needs shortcuts. Planar, so `δ < 3`.
///
/// # Panics
///
/// Panics if `n < 4` (the rim needs at least 3 nodes).
pub fn wheel(n: usize) -> Graph {
    assert!(n >= 4, "wheel needs at least 4 nodes");
    let rim = n - 1;
    let mut b = GraphBuilder::new(n);
    for i in 0..rim {
        let u = NodeId((1 + i) as u32);
        let v = NodeId((1 + (i + 1) % rim) as u32);
        b.add_edge(u, v);
        b.add_edge(NodeId(0), u);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{components, diameter};

    #[test]
    fn path_shape() {
        let g = path(6);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(diameter::exact_diameter(&g), 5);
    }

    #[test]
    fn single_node_path() {
        let g = path(1);
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(7);
        assert_eq!(g.num_edges(), 7);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        assert_eq!(diameter::exact_diameter(&g), 3);
    }

    #[test]
    fn star_shape() {
        let g = star(5);
        assert_eq!(g.degree(NodeId(0)), 4);
        assert_eq!(diameter::exact_diameter(&g), 2);
    }

    #[test]
    fn complete_density() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 15);
        assert_eq!(g.density(), 2.5); // (n-1)/2
        assert_eq!(diameter::exact_diameter(&g), 1);
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(10);
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.num_edges(), 18); // 9 rim + 9 spokes
        assert_eq!(diameter::exact_diameter(&g), 2);
        assert!(components::is_connected(&g));
        // Rim without the hub is a long cycle.
        let rim: Vec<_> = (1..10).map(NodeId).collect();
        assert!(components::induces_connected(&g, &rim));
    }
}
