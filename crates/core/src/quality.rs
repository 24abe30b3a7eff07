//! Measuring shortcut quality: congestion, dilation, block number
//! (Definitions 2.2/2.3, Observation 2.6).

use crate::{Partition, Shortcut};
use lcs_graph::{Graph, NodeId, PartId, RootedTree, UnionFind};
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
/// Costs `O(n + m)` once plus, per part, its own `G[P_i] + H_i`: with
/// `s_i = |P_i ∪ V(H_i)|` nodes and `t_i` edges, `O(s_i + t_i)` for blocks,
/// connectivity and the double sweep, times `s_i` for the exact diameter
/// of a part with `s_i ≤ 200`.
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
/// `parts`. Every search runs on a compact copy of `G[P_i] + H_i`, so a
/// row costs its part and shortcut, not the graph.
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
    // `local[v]` numbers the nodes of the current part's subgraph; cleared
    // along `nodes` after each part instead of refilled.
    let mut local = vec![u32::MAX; g.num_nodes()];
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut sub = LocalGraph::default();
    let mut per_part = Vec::with_capacity(parts.len());

    for &pid in parts {
        let h = shortcut.edges_for(pid);
        // Node set of G[P_i] + H_i: the part first, then the rest of V(H_i).
        nodes.clear();
        nodes.extend_from_slice(partition.part(pid));
        for (i, &v) in nodes.iter().enumerate() {
            local[v.index()] = i as u32;
        }
        edges.clear();
        for &e in h {
            let (u, v) = g.endpoints(e);
            for w in [u, v] {
                if local[w.index()] == u32::MAX {
                    local[w.index()] = nodes.len() as u32;
                    nodes.push(w);
                }
            }
            edges.push((local[u.index()], local[v.index()]));
        }

        // Blocks: components of (P_i ∪ V(H_i), H_i).
        let mut uf = UnionFind::new(nodes.len());
        for &(a, b) in &edges {
            uf.union(a as usize, b as usize);
        }
        let blocks = uf.num_sets() as u32;

        // Dilation: searches over H_i plus the part-internal edges (an edge
        // that is both appears twice, which no distance notices).
        for &u in partition.part(pid) {
            for &w in g.heads(u) {
                if u < w && partition.part_of(w) == Some(pid) {
                    edges.push((local[u.index()], local[w.index()]));
                }
            }
        }
        sub.rebuild(nodes.len(), &edges);
        let ecc = sub.bfs(0);
        let connected = sub.queue.len() == nodes.len();
        let (dl, du) = if !connected {
            (0, u32::MAX)
        } else if nodes.len() <= EXACT_DIAMETER_THRESHOLD {
            let best = (0..nodes.len() as u32).map(|v| sub.bfs(v)).max();
            let best = best.expect("non-empty part");
            (best, best)
        } else {
            // Farthest from the first node, ties to the smallest node id.
            let far = sub.queue.iter().filter(|&&v| sub.dist[v as usize] == ecc);
            let far = far.min_by_key(|&&v| nodes[v as usize]);
            let ecc = sub.bfs(*far.expect("non-empty part"));
            (ecc, 2 * ecc)
        };

        per_part.push(PartQuality {
            blocks,
            dilation_lower: dl,
            dilation_upper: du,
            connected,
        });
        for &v in &nodes {
            local[v.index()] = u32::MAX;
        }
    }

    per_part
}

/// One part's `G[P_i] + H_i` over local node ids `0..len`, as a CSR in the
/// graph core's `first_out` idiom, with the state of a search over it. All
/// four arrays are reused from part to part.
#[derive(Default)]
struct LocalGraph {
    first_out: Vec<u32>,
    head: Vec<u32>,
    /// Hop distance from the last search's source, `u32::MAX` if unreached.
    dist: Vec<u32>,
    /// The last search's visit order.
    queue: Vec<u32>,
}

impl LocalGraph {
    /// Lays out the undirected `edges` over `len` nodes.
    fn rebuild(&mut self, len: usize, edges: &[(u32, u32)]) {
        // Degrees are counted two places up, so that after the prefix sum
        // `first_out[v + 1]` is the cursor of `v` — and, once every edge is
        // placed, the start of `v + 1`.
        self.first_out.clear();
        self.first_out.resize(len + 2, 0);
        for &(a, b) in edges {
            self.first_out[a as usize + 2] += 1;
            self.first_out[b as usize + 2] += 1;
        }
        for v in 2..len + 2 {
            self.first_out[v] += self.first_out[v - 1];
        }
        self.head.clear();
        self.head.resize(2 * edges.len(), 0);
        for &(a, b) in edges {
            for (from, to) in [(a, b), (b, a)] {
                let at = &mut self.first_out[from as usize + 1];
                self.head[*at as usize] = to;
                *at += 1;
            }
        }
        self.first_out.truncate(len + 1);
        self.dist.resize(len, 0);
    }

    /// Searches from `src`; returns its eccentricity among what it reached.
    fn bfs(&mut self, src: u32) -> u32 {
        self.dist.fill(u32::MAX);
        self.dist[src as usize] = 0;
        self.queue.clear();
        self.queue.push(src);
        let mut at = 0;
        while let Some(&u) = self.queue.get(at) {
            at += 1;
            let out = self.first_out[u as usize] as usize..self.first_out[u as usize + 1] as usize;
            for &w in &self.head[out] {
                if self.dist[w as usize] == u32::MAX {
                    self.dist[w as usize] = self.dist[u as usize] + 1;
                    self.queue.push(w);
                }
            }
        }
        // BFS visits in distance order.
        self.dist[self.queue[at - 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{bfs, gen, EdgeId};
    use proptest::prelude::*;

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
    /// The whole-graph formulation `measure_parts` replaced, kept as the
    /// oracle: one `bfs_filtered` over all of `g` per search, a `HashMap`
    /// for the local ids.
    fn reference_parts(
        g: &Graph,
        partition: &Partition,
        shortcut: &Shortcut,
        parts: &[PartId],
    ) -> Vec<PartQuality> {
        let mut rows = Vec::new();
        for &pid in parts {
            let h = shortcut.edges_for(pid);
            let mut nodes: Vec<NodeId> = partition.part(pid).to_vec();
            for &e in h {
                let (u, v) = g.endpoints(e);
                for w in [u, v] {
                    if !nodes.contains(&w) {
                        nodes.push(w);
                    }
                }
            }
            let index: std::collections::HashMap<NodeId, usize> =
                nodes.iter().enumerate().map(|(i, &v)| (v, i)).collect();
            let mut uf = UnionFind::new(nodes.len());
            for &e in h {
                let (u, v) = g.endpoints(e);
                uf.union(index[&u], index[&v]);
            }
            let allow = |e: EdgeId, _next: NodeId| {
                let (u, v) = g.endpoints(e);
                shortcut.contains(pid, e)
                    || (partition.part_of(u) == Some(pid) && partition.part_of(v) == Some(pid))
            };
            let first = bfs::bfs_filtered(g, &nodes[..1], allow);
            let connected = nodes.iter().all(|&v| first.reached(v));
            let (dl, du) = if !connected {
                (0, u32::MAX)
            } else if nodes.len() <= EXACT_DIAMETER_THRESHOLD {
                let ecc = |&v| bfs::bfs_filtered(g, &[v], allow).eccentricity();
                let best = nodes.iter().map(ecc).max().unwrap();
                (best, best)
            } else {
                let (far, _) = first.farthest().unwrap();
                let ecc = bfs::bfs_filtered(g, &[far], allow).eccentricity();
                (ecc, 2 * ecc)
            };
            rows.push(PartQuality {
                blocks: uf.num_sets() as u32,
                dilation_lower: dl,
                dilation_upper: du,
                connected,
            });
        }
        rows
    }

    /// A connected graph, connected parts covering 40–100 % of it, its BFS
    /// tree, and the constructed shortcut with every `H_i` edge dropped
    /// with probability 0–60 % and, for odd seeds, one arbitrary graph edge
    /// added per part (so `H_i` need not touch `P_i` nor the tree).
    fn arb_damaged() -> impl Strategy<Value = (Graph, Partition, RootedTree, Shortcut)> {
        let shape = (0usize..16, 6usize..24, 1usize..10, 0u64..1000);
        shape.prop_map(|(kind, side, k, seed)| {
            let (family, level) = (kind % 4, kind / 4);
            let (coverage, damage) = ([0.4, 0.7, 1.0, 1.0][level], [0.0, 0.05, 0.3, 0.6][level]);
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = match family {
                0 => gen::grid(side, side + 3),
                1 => gen::torus(side, side),
                2 => gen::road_like(side, side, seed),
                _ => gen::ktree(side * side, 3, &mut rng),
            };
            let parts = gen::random_partial_parts(&g, k, coverage, &mut rng);
            let partition = Partition::from_parts(&g, parts).unwrap();
            let tree = bfs::bfs_tree(&g, NodeId(0));
            let built = crate::full_shortcut(&g, &tree, &partition, &Default::default());
            let lists = partition.part_ids().map(|p| {
                let kept = built.shortcut.edges_for(p).iter().copied();
                let mut kept: Vec<EdgeId> = kept.filter(|_| !rng.gen_bool(damage)).collect();
                if seed % 2 == 1 {
                    kept.push(EdgeId(rng.gen_range(0..g.num_edges() as u32)));
                }
                kept
            });
            let shortcut = Shortcut::from_edge_lists(lists.collect());
            (g, partition, tree, shortcut)
        })
    }

    /// Which of the measurement's four outcomes `rows` contain, as bits:
    /// disconnected, several blocks, connected on the exact branch,
    /// connected on the double-sweep branch.
    fn outcomes(rows: &[PartQuality]) -> u32 {
        let of = |r: &PartQuality| match (r.connected, r.dilation_lower == r.dilation_upper) {
            (false, _) => 1,
            (true, true) => 4,
            (true, false) => 8,
        };
        rows.iter()
            .fold(0, |m, r| m | of(r) | u32::from(r.blocks > 1) << 1)
    }

    /// The strategy reaches every outcome the oracle is meant to compare:
    /// a disconnected `G[P_i] + H_i`, several blocks, and both diameter
    /// branches (more than 200 nodes needs a large part or a long `H_i`).
    #[test]
    fn damaged_instances_reach_every_outcome() {
        let mut seen = 0;
        for case in 0..48 {
            let mut rng = SmallRng::seed_from_u64(case);
            let (g, partition, tree, shortcut) = arb_damaged().generate(&mut rng);
            seen |= outcomes(&measure_quality(&g, &partition, &tree, &shortcut).per_part);
        }
        assert_eq!(seen, 0b1111);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn measure_quality_matches_whole_graph_reference(
            (g, partition, tree, shortcut) in arb_damaged(),
        ) {
            let all: Vec<PartId> = partition.part_ids().collect();
            let q = measure_quality(&g, &partition, &tree, &shortcut);
            prop_assert_eq!(&q.per_part, &reference_parts(&g, &partition, &shortcut, &all));
        }

        /// `remeasure` over the parts whose `H_i` changed equals a fresh
        /// measurement (and the reference) of the new shortcut.
        #[test]
        fn remeasure_of_touched_parts_matches_fresh(
            (g, partition, tree, shortcut) in arb_damaged(),
            seed in 0u64..1000,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut report = measure_quality(&g, &partition, &tree, &shortcut);
            let touched: Vec<PartId> = partition.part_ids().filter(|_| rng.gen_bool(0.4)).collect();
            let mut next = shortcut.clone();
            for &p in &touched {
                let kept = shortcut.edges_for(p).iter().copied().filter(|_| rng.gen_bool(0.7));
                next.set_edges(p, kept.collect());
            }
            report.remeasure(&g, &partition, &tree, &next, &touched);
            prop_assert_eq!(&report, &measure_quality(&g, &partition, &tree, &next));
            let all: Vec<PartId> = partition.part_ids().collect();
            prop_assert_eq!(&report.per_part, &reference_parts(&g, &partition, &next, &all));
        }
    }

    /// A row costs its part: 200 000 singleton parts, each measured on a
    /// one-node subgraph (≥ 3·10¹¹ byte-writes when every search
    /// initialised whole-graph arrays).
    #[test]
    fn empty_shortcut_over_many_singletons() {
        let g = gen::path(200_000);
        let partition = Partition::from_parts(&g, gen::singleton_parts(&g)).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let q = measure_quality(&g, &partition, &tree, &Shortcut::empty(200_000));
        assert!(q.per_part.iter().all(|r| r.blocks == 1 && r.connected));
        assert_eq!((q.max_dilation_upper, q.max_congestion), (0, 0));
    }
}
