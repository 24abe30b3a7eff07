//! Connected components / spanning forests, distributed (unweighted
//! Boruvka) and centralized.
//!
//! "Subgraph connectivity" is among the paper's listed applications: with
//! unit weights, the MST machinery computes a spanning forest, and fragment
//! ids at fixpoint are component labels, in `Õ(δD)` rounds per phase.

use crate::mst::{distributed_mst, MstReport};
use lcs_congest::SimConfig;
use lcs_core::dist::Truncated;
use lcs_core::{FullShortcutResult, Partition};
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{Graph, PartId, RootedTree, UnionFind};

/// Result of [`distributed_components`].
#[derive(Clone, Debug)]
pub struct ComponentsReport {
    /// Dense component label per node.
    pub label: Vec<u32>,
    /// Number of connected components.
    pub count: usize,
    /// The underlying spanning-forest run.
    pub mst: MstReport,
}

/// Computes connected components distributedly via unit-weight Boruvka
/// (`tree`, `fresh` and `sim` as for [`distributed_mst`]).
///
/// # Panics
///
/// Panics like [`distributed_mst`].
pub fn distributed_components(
    g: &Graph,
    tree: &RootedTree,
    fresh: impl FnMut(&Partition, &[PartId]) -> Result<FullShortcutResult, Truncated>,
    sim: SimConfig,
) -> ComponentsReport {
    let weights = EdgeWeights::unit(g);
    let mst = distributed_mst(g, &weights, tree, fresh, sim);
    let mut uf = UnionFind::new(g.num_nodes());
    for &e in &mst.edges {
        let (u, v) = g.endpoints(e);
        uf.union(u.index(), v.index());
    }
    let mut label = vec![u32::MAX; g.num_nodes()];
    let mut next = 0u32;
    for v in g.nodes() {
        let r = uf.find(v.index());
        if label[r] == u32::MAX {
            label[r] = next;
            next += 1;
        }
        label[v.index()] = label[r];
    }
    ComponentsReport {
        label,
        count: next as usize,
        mst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_core::{construct, ShortcutConfig};
    use lcs_graph::{bfs, components, gen, NodeId};

    /// Components from node 0 with oracle shortcuts, on the default
    /// simulator.
    fn components_of(g: &Graph) -> ComponentsReport {
        let (tree, cfg) = (bfs::bfs_tree(g, NodeId(0)), ShortcutConfig::default());
        let fresh = |p: &Partition, parts: &[PartId]| construct(g, &tree, p, parts, 1, &cfg, None);
        distributed_components(g, &tree, fresh, SimConfig::default())
    }

    #[test]
    fn single_component_grid() {
        let g = gen::grid(5, 5);
        let rep = components_of(&g);
        assert_eq!(rep.count, 1);
        assert_eq!(rep.mst.edges.len(), 24);
        assert!(rep.label.iter().all(|&l| l == rep.label[0]));
    }

    /// Node 0's tree is node 0 alone (`D = 0`), so no fragment of the path
    /// beside it gets a shortcut: its echoes are as tall as the fragments,
    /// and the phase clock still lets every run finish.
    #[test]
    fn a_path_beside_the_tree_finishes() {
        let g = Graph::from_edges(201, (1..200).map(|v| (v, v + 1)));
        let rep = components_of(&g);
        assert!(!rep.mst.truncated);
        assert_eq!((rep.count, rep.mst.edges.len()), (2, 199));
        assert!(rep.label[1..]
            .iter()
            .all(|&l| l == rep.label[1] && l != rep.label[0]));
    }

    #[test]
    fn matches_centralized_components() {
        let g = Graph::from_edges(8, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (5, 7)]);
        let rep = components_of(&g);
        let reference = components::connected_components(&g);
        assert_eq!(rep.count, reference.count);
        // Labels agree up to renaming: same label iff same component.
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    rep.label[u.index()] == rep.label[v.index()],
                    reference.label[u.index()] == reference.label[v.index()]
                );
            }
        }
    }

    use lcs_graph::Graph;
}
