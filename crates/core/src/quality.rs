//! Measuring shortcut quality: congestion, dilation, block number
//! (Definitions 2.2/2.3, Observation 2.6).

use crate::{Partition, Shortcut};
use lcs_graph::{bfs, Graph, NodeId, PartId, RootedTree, UnionFind};
use serde::{Deserialize, Serialize};

/// Parts with at most this many nodes in `G[P_i] + H_i` get an exact
/// diameter (all-pairs BFS); larger parts get double-sweep bounds.
const EXACT_DIAMETER_THRESHOLD: usize = 200;

/// Measured quality of one part's shortcut.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartQuality {
    /// Number of connected components of `(P_i ∪ V(H_i), H_i)` — the block
    /// number of Definition 2.3 (isolated part nodes count as blocks).
    pub blocks: u32,
    /// Lower bound on the diameter of `G[P_i] + H_i` (a realized distance).
    pub dilation_lower: u32,
    /// Upper bound on the diameter of `G[P_i] + H_i`; equals
    /// `dilation_lower` when exact. `u32::MAX` if the subgraph is
    /// disconnected.
    pub dilation_upper: u32,
    /// Whether `G[P_i] + H_i` is connected.
    pub connected: bool,
}

/// Measured quality of a whole shortcut.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QualityReport {
    /// Per-part measurements.
    pub per_part: Vec<PartQuality>,
    /// Maximum per-edge congestion `max_e |{i : e ∈ H_i}|`.
    pub max_congestion: u32,
    /// Maximum block number over parts.
    pub max_blocks: u32,
    /// Maximum dilation lower bound over parts.
    pub max_dilation_lower: u32,
    /// Maximum dilation upper bound over parts (`u32::MAX` if some part is
    /// disconnected).
    pub max_dilation_upper: u32,
    /// Whether `⋃ H_i` lies inside the measured tree.
    pub tree_restricted: bool,
}

impl QualityReport {
    /// The shortcut quality `Q = c + d` (Definition 2.2), using the dilation
    /// upper bound. Saturates at `u32::MAX`.
    pub fn quality(&self) -> u32 {
        self.max_congestion.saturating_add(self.max_dilation_upper)
    }

    /// Whether every part's `G[P_i] + H_i` is connected.
    pub fn all_connected(&self) -> bool {
        self.per_part.iter().all(|p| p.connected)
    }

    /// The report over measured rows: their maxima, plus the congestion
    /// and tree-restriction of the whole `shortcut`.
    fn over(per_part: Vec<PartQuality>, g: &Graph, tree: &RootedTree, shortcut: &Shortcut) -> Self {
        QualityReport {
            max_congestion: shortcut.max_congestion(g),
            max_blocks: per_part.iter().map(|p| p.blocks).max().unwrap_or(0),
            max_dilation_lower: per_part.iter().map(|p| p.dilation_lower).max().unwrap_or(0),
            max_dilation_upper: per_part.iter().map(|p| p.dilation_upper).max().unwrap_or(0),
            tree_restricted: shortcut.is_tree_restricted(tree),
            per_part,
        }
    }

    /// The incremental counterpart of [`measure_quality`]: re-measures the
    /// rows of `parts` — the only parts whose membership or `H_i` changed
    /// since this report was taken — and leaves it equal to a fresh
    /// measurement of `shortcut`.
    pub(crate) fn remeasure(
        &mut self,
        g: &Graph,
        partition: &Partition,
        tree: &RootedTree,
        shortcut: &Shortcut,
        parts: &[PartId],
    ) {
        let mut per_part = std::mem::take(&mut self.per_part);
        let rows = measure_parts(g, partition, shortcut, parts);
        for (&p, row) in parts.iter().zip(rows) {
            per_part[p.index()] = row;
        }
        *self = QualityReport::over(per_part, g, tree, shortcut);
    }
}

/// Measures congestion, dilation and block number of `shortcut` for
/// `partition` on `g`, with `tree` used only for the tree-restriction flag.
///
/// # Panics
///
/// Panics if the shortcut's part count differs from the partition's.
pub fn measure_quality(
    g: &Graph,
    partition: &Partition,
    tree: &RootedTree,
    shortcut: &Shortcut,
) -> QualityReport {
    let all: Vec<PartId> = partition.part_ids().collect();
    let per_part = measure_parts(g, partition, shortcut, &all);
    QualityReport::over(per_part, g, tree, shortcut)
}

/// Measures [`PartQuality`] rows for a subset of parts, in the order of
/// `parts`.
fn measure_parts(
    g: &Graph,
    partition: &Partition,
    shortcut: &Shortcut,
    parts: &[PartId],
) -> Vec<PartQuality> {
    assert_eq!(
        shortcut.num_parts(),
        partition.num_parts(),
        "shortcut and partition part counts differ"
    );
    let n = g.num_nodes();
    // Per-part stamps to avoid clearing O(n)/O(m) arrays per part.
    let mut node_stamp = vec![0u32; n];
    let mut edge_stamp = vec![0u32; g.num_edges()];
    let mut per_part = Vec::with_capacity(parts.len());

    for &pid in parts {
        let nodes = partition.part(pid);
        let stamp = pid.0 + 1;
        let h = shortcut.edges_for(pid);
        // Node set of G[P_i] + H_i.
        let mut subgraph_nodes: Vec<NodeId> = Vec::with_capacity(nodes.len());
        for &v in nodes {
            node_stamp[v.index()] = stamp;
            subgraph_nodes.push(v);
        }
        for &e in h {
            edge_stamp[e.index()] = stamp;
            let (u, v) = g.endpoints(e);
            for w in [u, v] {
                if node_stamp[w.index()] != stamp {
                    node_stamp[w.index()] = stamp;
                    subgraph_nodes.push(w);
                }
            }
        }

        // Blocks: components of (P_i ∪ V(H_i), H_i).
        let mut local_index = std::collections::HashMap::new();
        for (i, &v) in subgraph_nodes.iter().enumerate() {
            local_index.insert(v, i);
        }
        let mut uf = UnionFind::new(subgraph_nodes.len());
        for &e in h {
            let (u, v) = g.endpoints(e);
            uf.union(local_index[&u], local_index[&v]);
        }
        let blocks = uf.num_sets() as u32;

        // Dilation: BFS restricted to part-internal edges plus H_i, over
        // the subgraph's nodes.
        let part_of = partition.assignment();
        let allow = |e: lcs_graph::EdgeId, _next: NodeId| {
            if edge_stamp[e.index()] == stamp {
                return true;
            }
            // Otherwise the edge must be part-internal: both endpoints in P_i.
            let (u, v) = g.endpoints(e);
            part_of[u.index()] == Some(pid) && part_of[v.index()] == Some(pid)
        };
        let first = bfs::bfs_filtered(g, &subgraph_nodes[..1], allow);
        let connected = subgraph_nodes.iter().all(|&v| first.reached(v));
        let (dl, du) = if !connected {
            (0, u32::MAX)
        } else if subgraph_nodes.len() <= EXACT_DIAMETER_THRESHOLD {
            let mut best = 0;
            for &v in &subgraph_nodes {
                let r = bfs::bfs_filtered(g, std::slice::from_ref(&v), allow);
                best = best.max(r.eccentricity());
            }
            (best, best)
        } else {
            let (far, _) = first.farthest().expect("non-empty part");
            let second = bfs::bfs_filtered(g, std::slice::from_ref(&far), allow);
            let ecc = second.eccentricity();
            (ecc, 2 * ecc)
        };

        per_part.push(PartQuality {
            blocks,
            dilation_lower: dl,
            dilation_upper: du,
            connected,
        });
    }

    per_part
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{gen, EdgeId};

    fn wheel_setup() -> (Graph, Partition, RootedTree) {
        // Wheel: hub 0, rim 1..=9. One part = the whole rim.
        let g = gen::wheel(10);
        let rim: Vec<NodeId> = (1..10).map(NodeId).collect();
        let partition = Partition::from_parts(&g, vec![rim]).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        (g, partition, tree)
    }

    #[test]
    fn empty_shortcut_on_wheel_rim() {
        let (g, partition, tree) = wheel_setup();
        let s = Shortcut::empty(1);
        let q = measure_quality(&g, &partition, &tree, &s);
        assert_eq!(q.max_congestion, 0);
        // Rim alone is a 9-cycle: diameter 4.
        assert_eq!(q.max_dilation_lower, 4);
        assert_eq!(q.max_dilation_upper, 4);
        // With no shortcut edges, each rim node is its own block.
        assert_eq!(q.max_blocks, 9);
        assert!(q.tree_restricted);
        assert!(q.all_connected());
        assert_eq!(q.quality(), 4);
    }

    #[test]
    fn spoke_shortcut_shrinks_dilation() {
        let (g, partition, tree) = wheel_setup();
        // H_0 = two opposite spokes (tree edges, since the BFS tree from the
        // hub is exactly the spokes).
        let e1 = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let e5 = g.find_edge(NodeId(0), NodeId(5)).unwrap();
        let s = Shortcut::from_edge_lists(vec![vec![e1, e5]]);
        let q = measure_quality(&g, &partition, &tree, &s);
        assert_eq!(q.max_congestion, 1);
        assert!(q.max_dilation_upper <= 4);
        assert!(q.tree_restricted);
        // Blocks: one component {0,1,5} plus 7 isolated rim nodes.
        assert_eq!(q.max_blocks, 8);
    }

    #[test]
    fn disconnected_subgraph_detected() {
        // Two parts on a path, shortcut edge far away from part 0? Use a
        // shortcut whose H contains an edge disjoint from the part.
        let g = gen::path(6);
        let partition = Partition::from_parts(&g, vec![vec![NodeId(0), NodeId(1)]]).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        // Edge (4,5) is disconnected from part {0,1} in G[P]+H.
        let far_edge = g.find_edge(NodeId(4), NodeId(5)).unwrap();
        let s = Shortcut::from_edge_lists(vec![vec![far_edge]]);
        let q = measure_quality(&g, &partition, &tree, &s);
        assert!(!q.all_connected());
        assert_eq!(q.max_dilation_upper, u32::MAX);
        assert_eq!(q.quality(), u32::MAX);
    }

    #[test]
    fn congestion_counts_sharing() {
        let g = gen::path(4);
        let partition = Partition::from_parts(&g, vec![vec![NodeId(0)], vec![NodeId(3)]]).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let all: Vec<EdgeId> = g.edges().map(|er| er.id).collect();
        let s = Shortcut::from_edge_lists(vec![all.clone(), all]);
        let q = measure_quality(&g, &partition, &tree, &s);
        assert_eq!(q.max_congestion, 2);
        assert!(q.all_connected());
        assert_eq!(q.max_dilation_upper, 3);
        // Each part: one block spanning the whole path.
        assert_eq!(q.max_blocks, 1);
    }

    #[test]
    #[should_panic(expected = "part counts differ")]
    fn shape_mismatch_panics() {
        let (g, partition, tree) = wheel_setup();
        measure_quality(&g, &partition, &tree, &Shortcut::empty(2));
    }
}
