//! Baseline shortcuts for comparison experiments.
//!
//! Section 1.3 of the paper recalls the folklore result that *any* graph
//! admits shortcuts of quality `D + √n`: give every part larger than `√n`
//! the whole BFS tree (`H_i = T`) and every smaller part nothing
//! (`H_i = ∅`). At most `√n` parts can exceed `√n` nodes, so congestion is
//! at most `√n`; big parts have dilation `<= 2D`, small parts at most their
//! own size. This is the general-graph baseline the minor-density shortcuts
//! are compared against (experiment E6). The "no shortcuts" strawman is
//! [`Shortcut::empty`]: a [`construct`](crate::construct) over no part
//! returns it for free at `δ̂ = 1`.

use crate::{Partition, Shortcut};
use lcs_graph::{EdgeId, Graph, RootedTree};

/// The folklore `D + √n` shortcut: `H_i = T` for parts with more than `√n`
/// nodes, `H_i = ∅` otherwise — and for parts outside the tree's component
/// (Boruvka fragments of a disconnected graph), which `T` cannot reach.
pub fn general_graph_shortcut(g: &Graph, tree: &RootedTree, partition: &Partition) -> Shortcut {
    let threshold = (g.num_nodes() as f64).sqrt() as usize;
    let tree_edges: Vec<EdgeId> = tree.tree_edges().map(|(e, _)| e).collect();
    let lists = partition
        .iter()
        .map(|(_, nodes)| {
            if nodes.len() > threshold && tree.contains(nodes[0]) {
                tree_edges.clone()
            } else {
                Vec::new()
            }
        })
        .collect();
    Shortcut::from_edge_lists(lists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure_quality;
    use lcs_graph::{bfs, gen, NodeId};

    #[test]
    fn big_parts_get_the_tree_small_parts_nothing() {
        let g = gen::grid(10, 10); // √n = 10
        let rows = gen::rows_of_grid(10, 10);
        // Merge two rows into one big part of 20 nodes; keep two rows of 10.
        let mut parts = Vec::new();
        let mut big = rows[0].clone();
        big.extend(rows[1].iter().copied());
        parts.push(big);
        parts.push(rows[2].clone());
        let partition = Partition::from_parts(&g, parts).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let s = general_graph_shortcut(&g, &tree, &partition);
        assert_eq!(s.edges_for(lcs_graph::PartId(0)).len(), 99);
        assert!(s.edges_for(lcs_graph::PartId(1)).is_empty());
        assert!(s.is_tree_restricted(&tree));
    }

    #[test]
    fn quality_is_diameter_plus_sqrt_n_shaped() {
        let g = gen::grid(8, 8);
        let partition = Partition::from_parts(&g, gen::rows_of_grid(8, 8)).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let s = general_graph_shortcut(&g, &tree, &partition);
        let q = measure_quality(&g, &partition, &tree, &s);
        // Rows of 8 == √64: not strictly greater, so every H_i is empty and
        // dilation is the row length.
        assert_eq!(q.max_congestion, 0);
        assert_eq!(q.max_dilation_upper, 7);
    }

    /// The "no shortcuts" strawman: constructing over no part, centrally
    /// or simulated, builds the empty shortcut at `δ̂ = 1` and costs nothing.
    #[test]
    fn constructing_no_part_is_the_empty_shortcut() {
        let g = gen::path(6);
        let partition = Partition::from_parts(&g, vec![vec![NodeId(0), NodeId(1)]]).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let config = crate::ShortcutConfig::default();
        for dist in [None, Some(crate::dist::DistConfig::default())] {
            let res = crate::construct(&g, &tree, &partition, &[], 1, &config, dist.as_ref());
            let res = res.expect("nothing to run");
            assert_eq!(res.shortcut, Shortcut::empty(1));
            assert_eq!(
                (res.delta_hat, res.cost),
                (1, crate::ConstructionStats::default())
            );
        }
    }
}
