//! Rooted spanning trees with the paper's tree-edge addressing.
//!
//! The paper identifies a tree edge `e` by its deeper endpoint `v_e`
//! (Section 3.1: "let `v_e` be the endpoint of `e` that is further away from
//! the root"). [`RootedTree`] exposes exactly that view: every non-root tree
//! node owns its parent edge.

use crate::{EdgeId, Graph, NodeId};
use serde::{Deserialize, Serialize};

/// A rooted tree over a subset of a [`Graph`]'s nodes (a spanning tree of one
/// connected component).
///
/// Tree edges are graph edges; each non-root tree node `v` stores its parent
/// node and the connecting [`EdgeId`]. Nodes outside the tree (other
/// components) have no depth.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RootedTree {
    root: NodeId,
    /// `parent[v] = (parent node, parent edge)`; `None` for the root and
    /// non-tree nodes.
    parent: Vec<Option<(NodeId, EdgeId)>>,
    /// Depth of each tree node; `u32::MAX` for non-tree nodes.
    depth: Vec<u32>,
    /// Tree nodes in BFS order from the root (root first, non-decreasing
    /// depth).
    order: Vec<NodeId>,
    /// `edge_child[e] = Some(v_e)` iff `e` is a tree edge with deeper
    /// endpoint `v_e`.
    edge_child: Vec<Option<NodeId>>,
    /// CSR of children lists.
    child_offsets: Vec<u32>,
    children: Vec<NodeId>,
}

impl RootedTree {
    /// Builds a tree from BFS-style parent pointers.
    ///
    /// `order` must list the tree's nodes in non-decreasing `dist`, root
    /// first; `dist` must be `u32::MAX` exactly for non-tree nodes. This is
    /// the format produced by [`crate::bfs::bfs`].
    ///
    /// # Panics
    ///
    /// Panics if the inputs are inconsistent (root has a parent, a non-root
    /// tree node lacks one, parent edge does not exist in `g`, or depths
    /// disagree with parents).
    pub fn from_parents(
        g: &Graph,
        root: NodeId,
        parent: &[Option<(NodeId, EdgeId)>],
        dist: &[u32],
        order: &[NodeId],
    ) -> Self {
        let n = g.num_nodes();
        assert_eq!(parent.len(), n);
        assert_eq!(dist.len(), n);
        assert!(parent[root.index()].is_none(), "root must have no parent");
        assert_eq!(dist[root.index()], 0, "root must have depth 0");
        assert_eq!(order.first(), Some(&root), "order must start at the root");

        let mut edge_child = vec![None; g.num_edges()];
        let mut child_count = vec![0u32; n];
        for &v in order {
            if v == root {
                continue;
            }
            let (p, e) = parent[v.index()]
                .unwrap_or_else(|| panic!("tree node {v:?} has no parent pointer"));
            let (a, b) = g.endpoints(e);
            assert!(
                (a, b) == (p.min(v), p.max(v)),
                "parent edge {e:?} does not connect {p:?} and {v:?}"
            );
            assert_eq!(
                dist[v.index()],
                dist[p.index()] + 1,
                "depth of {v:?} must be one more than its parent"
            );
            edge_child[e.index()] = Some(v);
            child_count[p.index()] += 1;
        }
        let mut child_offsets = vec![0u32; n + 1];
        for i in 0..n {
            child_offsets[i + 1] = child_offsets[i] + child_count[i];
        }
        let mut cursor = child_offsets.clone();
        let mut children = vec![NodeId(0); order.len().saturating_sub(1)];
        for &v in order {
            if v == root {
                continue;
            }
            let (p, _) = parent[v.index()].unwrap();
            children[cursor[p.index()] as usize] = v;
            cursor[p.index()] += 1;
        }
        RootedTree {
            root,
            parent: parent.to_vec(),
            depth: dist.to_vec(),
            order: order.to_vec(),
            edge_child,
            child_offsets,
            children,
        }
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes in the tree (its component).
    #[inline]
    pub fn num_tree_nodes(&self) -> usize {
        self.order.len()
    }

    /// Whether `v` belongs to the tree's component.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.depth[v.index()] != u32::MAX
    }

    /// Depth of tree node `v` (root has depth 0).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not in the tree.
    #[inline]
    pub fn depth(&self, v: NodeId) -> u32 {
        let d = self.depth[v.index()];
        assert!(d != u32::MAX, "{v:?} is not in the tree");
        d
    }

    /// Maximum depth over tree nodes — the `D` of "a tree of depth at most
    /// `D`" in Definition 2.3.
    pub fn depth_of_tree(&self) -> u32 {
        self.order
            .last()
            .map(|&v| self.depth[v.index()])
            .unwrap_or(0)
    }

    /// Parent node and edge of `v`; `None` for the root or non-tree nodes.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<(NodeId, EdgeId)> {
        self.parent[v.index()]
    }

    /// The children of `v` in the tree.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        let lo = self.child_offsets[v.index()] as usize;
        let hi = self.child_offsets[v.index() + 1] as usize;
        &self.children[lo..hi]
    }

    /// Tree nodes in BFS order (root first, non-decreasing depth).
    #[inline]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Tree nodes in order of **decreasing depth** — the edge-processing
    /// order of the Theorem 3.1 sweep ("we process tree edges in order of
    /// decreasing depths, level by level").
    pub fn order_deepest_first(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.order.iter().rev().copied()
    }

    /// Whether `e` is a tree edge.
    #[inline]
    pub fn is_tree_edge(&self, e: EdgeId) -> bool {
        self.edge_child[e.index()].is_some()
    }

    /// Iterator over `(edge, v_e)` for all tree edges.
    pub fn tree_edges(&self) -> impl Iterator<Item = (EdgeId, NodeId)> + '_ {
        self.order
            .iter()
            .filter_map(move |&v| self.parent[v.index()].map(|(_, e)| (e, v)))
    }

    /// The lowest common ancestor of `a` and `b`: the deeper one climbs to
    /// the other's depth, then both climb together until they meet.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is not in the tree.
    pub fn lca(&self, mut a: NodeId, mut b: NodeId) -> NodeId {
        let up = |v: NodeId| self.parent(v).expect("a node below the LCA has a parent").0;
        while self.depth(a) > self.depth(b) {
            a = up(a);
        }
        while self.depth(b) > self.depth(a) {
            b = up(b);
        }
        while a != b {
            (a, b) = (up(a), up(b));
        }
        a
    }

    /// Walks from `v` to the root, yielding `(node, parent_edge)` pairs —
    /// `v` first, root's child last.
    pub fn path_to_root(&self, v: NodeId) -> PathToRoot<'_> {
        PathToRoot {
            tree: self,
            cur: Some(v),
        }
    }
}

/// Iterator returned by [`RootedTree::path_to_root`].
#[derive(Clone, Debug)]
pub struct PathToRoot<'a> {
    tree: &'a RootedTree,
    cur: Option<NodeId>,
}

impl Iterator for PathToRoot<'_> {
    /// `(node, edge to its parent)`.
    type Item = (NodeId, EdgeId);

    fn next(&mut self) -> Option<Self::Item> {
        let v = self.cur?;
        match self.tree.parent(v) {
            Some((p, e)) => {
                self.cur = Some(p);
                Some((v, e))
            }
            None => {
                self.cur = None;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bfs, gen};

    #[test]
    fn bfs_tree_structure_on_path() {
        let g = gen::path(4);
        let t = bfs::bfs_tree(&g, NodeId(1));
        assert_eq!(t.root(), NodeId(1));
        assert_eq!(t.depth(NodeId(1)), 0);
        assert_eq!(t.depth(NodeId(3)), 2);
        assert_eq!(t.depth_of_tree(), 2);
        assert_eq!(t.children(NodeId(1)).len(), 2);
    }

    #[test]
    fn deeper_endpoint_matches_parent_edges() {
        let g = gen::grid(3, 3);
        let t = bfs::bfs_tree(&g, NodeId(4)); // center
        for (e, ve) in t.tree_edges() {
            let (p, pe) = t.parent(ve).unwrap();
            assert_eq!(pe, e);
            assert_eq!(t.depth(ve), t.depth(p) + 1);
        }
        let tree_edge_count = g.edges().filter(|er| t.is_tree_edge(er.id)).count();
        assert_eq!(tree_edge_count, 8);
    }

    #[test]
    fn path_to_root_walks_upward() {
        let g = gen::path(5);
        let t = bfs::bfs_tree(&g, NodeId(0));
        let path: Vec<_> = t.path_to_root(NodeId(4)).map(|(v, _)| v).collect();
        assert_eq!(path, vec![NodeId(4), NodeId(3), NodeId(2), NodeId(1)]);
        assert_eq!(t.path_to_root(NodeId(0)).count(), 0);
    }

    #[test]
    fn lca_meets_where_the_root_paths_join() {
        // 3×3 grid from its corner: 1 and 3 hang off 0, 2 off 1, 6 off 3.
        let g = gen::grid(3, 3);
        let t = bfs::bfs_tree(&g, NodeId(0));
        assert_eq!(t.lca(NodeId(2), NodeId(6)), NodeId(0));
        assert_eq!(
            t.lca(NodeId(1), NodeId(2)),
            NodeId(1),
            "an ancestor is its own LCA"
        );
        assert_eq!(t.lca(NodeId(5), NodeId(5)), NodeId(5));
        // Against a brute force: the deepest node on both root paths.
        let ancestors = |v: NodeId| -> Vec<NodeId> {
            let above = t.path_to_root(v).map(|(v, _)| t.parent(v).unwrap().0);
            std::iter::once(v).chain(above).collect()
        };
        for a in g.nodes() {
            for b in g.nodes() {
                let (pa, pb) = (ancestors(a), ancestors(b));
                let common = pa.iter().copied().filter(|v| pb.contains(v));
                let deepest = common.max_by_key(|&v| t.depth(v)).unwrap();
                assert_eq!(t.lca(a, b), deepest, "lca({a:?}, {b:?})");
            }
        }
    }

    #[test]
    fn order_deepest_first_is_reverse_bfs() {
        let g = gen::path(4);
        let t = bfs::bfs_tree(&g, NodeId(0));
        let deepest: Vec<_> = t.order_deepest_first().collect();
        assert_eq!(deepest[0], NodeId(3));
        assert_eq!(*deepest.last().unwrap(), NodeId(0));
    }

    #[test]
    fn disconnected_nodes_are_outside_tree() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let t = bfs::bfs_tree(&g, NodeId(0));
        assert!(t.contains(NodeId(1)));
        assert!(!t.contains(NodeId(2)));
        assert_eq!(t.num_tree_nodes(), 2);
    }
}
