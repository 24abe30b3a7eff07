//! The shortcut object: one edge set `H_i` per part (Definition 2.2).

use crate::Transition;
use lcs_graph::{EdgeId, Graph, PartId, RootedTree};
use serde::{Deserialize, Serialize};

/// A shortcut `H_1, …, H_k`: for each part `P_i` a set of graph edges that,
/// added to `G[P_i]`, shrink the part's diameter (Definition 2.2).
///
/// Stored as deduplicated, sorted edge lists per part.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Shortcut {
    per_part: Vec<Vec<EdgeId>>,
}

impl Shortcut {
    /// The trivial shortcut `H_i = ∅` for `k` parts.
    pub fn empty(k: usize) -> Self {
        Shortcut {
            per_part: vec![Vec::new(); k],
        }
    }

    /// Wraps per-part edge lists (deduplicated and sorted internally).
    pub fn from_edge_lists(mut per_part: Vec<Vec<EdgeId>>) -> Self {
        for list in &mut per_part {
            list.sort_unstable();
            list.dedup();
        }
        Shortcut { per_part }
    }

    /// Number of parts this shortcut serves.
    pub fn num_parts(&self) -> usize {
        self.per_part.len()
    }

    /// The edges of `H_i`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn edges_for(&self, p: PartId) -> &[EdgeId] {
        &self.per_part[p.index()]
    }

    /// Whether edge `e` belongs to `H_p` (binary search).
    pub fn contains(&self, p: PartId, e: EdgeId) -> bool {
        self.per_part[p.index()].binary_search(&e).is_ok()
    }

    /// Replaces `H_p` (deduplicated and sorted).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn set_edges(&mut self, p: PartId, mut edges: Vec<EdgeId>) {
        edges.sort_unstable();
        edges.dedup();
        self.per_part[p.index()] = edges;
    }

    /// This shortcut carried across `transition`: an untouched part keeps
    /// its `H_i` under its new id, a touched one takes it from `fresh`, a
    /// shortcut of the new partition's shape (say a
    /// [`construct`](crate::construct) over some of the touched parts).
    ///
    /// # Panics
    ///
    /// Panics if [`Transition::renaming`] does not have one entry per part.
    pub fn carried_over(self, transition: &Transition, mut fresh: Shortcut) -> Shortcut {
        assert_eq!(
            transition.into.len(),
            self.num_parts(),
            "one entry per old part"
        );
        for (list, p) in self.per_part.into_iter().zip(&transition.into) {
            if transition.touched.binary_search(p).is_err() {
                fresh.per_part[p.index()] = list;
            }
        }
        fresh
    }

    /// Total size `Σ|H_i|`.
    pub fn total_edges(&self) -> usize {
        self.per_part.iter().map(Vec::len).sum()
    }

    /// Per-edge congestion: `congestion[e]` = number of parts whose `H_i`
    /// contains `e` (property (II) of Definition 2.2).
    pub fn congestion(&self, g: &Graph) -> Vec<u32> {
        let mut cong = vec![0u32; g.num_edges()];
        for list in &self.per_part {
            for &e in list {
                cong[e.index()] += 1;
            }
        }
        cong
    }

    /// Maximum per-edge congestion (0 for an empty shortcut).
    pub fn max_congestion(&self, g: &Graph) -> u32 {
        self.congestion(g).into_iter().max().unwrap_or(0)
    }

    /// Whether every shortcut edge is an edge of the tree `T`
    /// (Definition 2.3: `⋃_i H_i ⊆ T`).
    pub fn is_tree_restricted(&self, tree: &RootedTree) -> bool {
        self.per_part
            .iter()
            .all(|list| list.iter().all(|&e| tree.is_tree_edge(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{bfs, gen, NodeId};

    #[test]
    fn empty_shortcut() {
        let g = gen::path(4);
        let s = Shortcut::empty(3);
        assert_eq!(s.num_parts(), 3);
        assert_eq!(s.max_congestion(&g), 0);
        assert_eq!(s.total_edges(), 0);
    }

    #[test]
    fn dedup_and_congestion() {
        let g = gen::path(4);
        let s =
            Shortcut::from_edge_lists(vec![vec![EdgeId(0), EdgeId(0), EdgeId(1)], vec![EdgeId(1)]]);
        assert_eq!(s.edges_for(PartId(0)), &[EdgeId(0), EdgeId(1)]);
        let cong = s.congestion(&g);
        assert_eq!(cong, vec![1, 2, 0]);
        assert_eq!(s.max_congestion(&g), 2);
        assert!(s.contains(PartId(1), EdgeId(1)));
        assert!(!s.contains(PartId(1), EdgeId(0)));
    }

    #[test]
    fn tree_restriction_check() {
        let g = gen::cycle(4);
        let t = bfs::bfs_tree(&g, NodeId(0));
        let non_tree: Vec<EdgeId> = g
            .edges()
            .filter(|er| !t.is_tree_edge(er.id))
            .map(|er| er.id)
            .collect();
        assert_eq!(non_tree.len(), 1);
        let ok = Shortcut::from_edge_lists(vec![vec![]]);
        assert!(ok.is_tree_restricted(&t));
        let bad = Shortcut::from_edge_lists(vec![non_tree]);
        assert!(!bad.is_tree_restricted(&t));
    }
}
