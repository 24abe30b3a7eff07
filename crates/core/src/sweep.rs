//! The Theorem 3.1 sweep: overcongested edges, the bipartite graph `B`, and
//! partial-shortcut extraction.
//!
//! Processing tree edges by decreasing depth, an edge `e` is *overcongested*
//! when at least `c = 8δ̂D` parts intersect the descendants of `v_e` in
//! `T \ O`. The bipartite graph `B` relates overcongested edges to the parts
//! that congested them; parts of small `B`-degree receive their forest
//! ancestor edges as the shortcut (Case (I)), and if fewer than half the
//! parts qualify, `B` contains a dense minor (Case (II), extracted in
//! [`crate::witness`]).

use crate::witness;
use crate::{Partition, Shortcut, ShortcutConfig};
use lcs_graph::minor::MinorWitness;
use lcs_graph::{EdgeId, Graph, NodeId, PartId, RootedTree};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An overcongested tree edge together with `I_e` — the parts intersecting
/// the descendants of `v_e` in `T \ O` — and, per part, the minimum-depth
/// representative node reachable from `v_e` through `T \ O`.
///
/// Minimum-depth representatives guarantee the representative path contains
/// no other node of the same part, which the witness extraction's
/// independence argument requires.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OverEdge {
    /// The overcongested tree edge.
    pub edge: EdgeId,
    /// Its deeper endpoint `v_e`.
    pub v_e: NodeId,
    /// `I_e` with representatives, sorted by part id.
    pub parts: Vec<(PartId, NodeId)>,
}

/// Everything the sweep learned: the set `O`, the `B`-degrees, and the
/// thresholds used. Input to witness extraction and to the experiment
/// harness.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepData {
    /// The guess `δ̂` the sweep ran with.
    pub delta_hat: u32,
    /// Congestion threshold `c = congestion_factor·δ̂·D`.
    pub congestion_threshold: u32,
    /// Block-degree threshold `8·δ̂`.
    pub block_threshold: u32,
    /// Depth of the tree the sweep used.
    pub tree_depth: u32,
    /// The overcongested edges `O`, in cut order (deepest first).
    pub over_edges: Vec<OverEdge>,
    /// `deg_B[i]` = degree of part `i` in the bipartite graph `B`
    /// (0 for parts outside `active`).
    pub deg_b: Vec<u32>,
    /// The parts this sweep considered.
    pub active: Vec<PartId>,
}

/// A successful Case (I) outcome: at least half the active parts served.
#[derive(Clone, Debug)]
pub struct PartialShortcut {
    /// Parts that received a shortcut this round (`deg_B <= 8δ̂`), sorted.
    pub served: Vec<PartId>,
    /// `H_i` for served parts (empty for others); sized like the partition.
    pub shortcut: Shortcut,
    /// The sweep's bookkeeping.
    pub data: SweepData,
}

/// Result of one sweep: a partial shortcut or a dense-minor certificate.
#[derive(Clone, Debug)]
pub enum SweepOutcome {
    /// Case (I): at least half the active parts have `B`-degree at most
    /// `8δ̂` and receive their forest ancestor edges.
    Shortcut(PartialShortcut),
    /// Case (II): more than half the active parts have large `B`-degree,
    /// certifying a minor of density `> δ̂`.
    DenseMinor {
        /// The minor of density `> δ̂` the derandomized extraction found.
        /// With the paper's congestion factor `8` the counting argument
        /// guarantees one on trees of depth at least 4, so the doubled `δ̂`
        /// is certified; `None` only where that argument does not reach (a
        /// shallower tree, a weaker ablation factor).
        witness: Option<MinorWitness>,
        /// The sweep's bookkeeping.
        data: SweepData,
    },
}

/// Runs one Theorem 3.1 sweep on all parts of `partition` with guess `δ̂`.
///
/// # Panics
///
/// Panics if `δ̂ = 0` or some part node lies outside `tree`'s component.
pub fn partial_shortcut_or_witness(
    g: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    delta_hat: u32,
    config: &ShortcutConfig,
) -> SweepOutcome {
    let all: Vec<PartId> = partition.part_ids().collect();
    sweep_active(
        g,
        tree,
        partition,
        &all,
        delta_hat,
        config,
        CutRule::Threshold,
    )
}

/// Runs one sweep considering only the parts in `active` (the unit of the
/// Observation 2.7 loop), cutting by `rule`: a partial shortcut when at
/// least half of `active` is served, the derandomized Case (II) certificate
/// otherwise.
///
/// # Panics
///
/// Panics like [`sweep_core`].
pub(crate) fn sweep_active(
    g: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    active: &[PartId],
    delta_hat: u32,
    config: &ShortcutConfig,
    rule: CutRule<'_>,
) -> SweepOutcome {
    let (data, o_mark, served) = sweep_core(g, tree, partition, active, delta_hat, config, rule);
    if case_one_accepts(served.len(), active.len()) {
        let shortcut = build_shortcut(g, tree, partition, &served, &o_mark);
        SweepOutcome::Shortcut(PartialShortcut {
            served,
            shortcut,
            data,
        })
    } else {
        let witness = witness::extract_witness_derandomized(g, tree, partition, &data);
        SweepOutcome::DenseMinor { witness, data }
    }
}

/// How one sweep decides which tree edges to cut.
pub(crate) enum CutRule<'a> {
    /// Cut when at least `c = congestion_factor·δ̂·D` active parts intersect
    /// the descendants — the Theorem 3.1 rule of the centralized sweep.
    Threshold,
    /// Cut exactly the marked edges — re-deriving the bookkeeping under a
    /// cut set the distributed protocol already detected.
    Fixed(&'a [bool]),
}

/// The bookkeeping every sweep shares: input validation, threshold
/// computation, the bottom-up merge under the given cut rule,
/// [`SweepData`] assembly, and the served filter (`deg_B <= block
/// threshold`). Returns `(data, o_mark, served)`.
///
/// # Panics
///
/// Panics if `δ̂ = 0`, some active part's node lies outside `tree`'s
/// component, or `active` contains duplicates or out-of-range part ids.
pub(crate) fn sweep_core(
    g: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    active: &[PartId],
    delta_hat: u32,
    config: &ShortcutConfig,
    rule: CutRule<'_>,
) -> (SweepData, Vec<bool>, Vec<PartId>) {
    assert!(delta_hat >= 1, "δ̂ must be at least 1");
    let num_parts = partition.num_parts();
    let mut is_active = vec![false; num_parts];
    for &p in active {
        assert!(p.index() < num_parts, "active part {p:?} out of range");
        assert!(!is_active[p.index()], "duplicate active part {p:?}");
        is_active[p.index()] = true;
        for &v in partition.part(p) {
            assert!(
                tree.contains(v),
                "part node {v:?} outside the tree's component"
            );
        }
    }
    let d_t = tree.depth_of_tree();
    let c = config.congestion_threshold(delta_hat, d_t);
    let b_thr = config.block_threshold(delta_hat);

    let (over_edges, o_mark, deg_b) = match rule {
        CutRule::Threshold => bottom_up(g, tree, partition, &is_active, |set_len, _| {
            set_len >= c as usize
        }),
        CutRule::Fixed(fixed_o) => {
            bottom_up(g, tree, partition, &is_active, |_, e| fixed_o[e.index()])
        }
    };

    let data = SweepData {
        delta_hat,
        congestion_threshold: c,
        block_threshold: b_thr,
        tree_depth: d_t,
        over_edges,
        deg_b,
        active: active.to_vec(),
    };
    let served: Vec<PartId> = active
        .iter()
        .copied()
        .filter(|&p| data.deg_b[p.index()] <= b_thr)
        .collect();
    (data, o_mark, served)
}

/// The Case (I) acceptance rule of Theorem 3.1: a sweep succeeds when at
/// least half its active parts were served.
pub(crate) fn case_one_accepts(served: usize, active: usize) -> bool {
    2 * served >= active
}

/// The bottom-up small-to-large merge of (part -> min-depth representative)
/// maps, with a pluggable cut rule (`(distinct part count, edge) -> cut?`).
///
/// Returns `(O-records, o_mark, deg_B)`.
fn bottom_up(
    g: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    is_active: &[bool],
    mut cut: impl FnMut(usize, EdgeId) -> bool,
) -> (Vec<OverEdge>, Vec<bool>, Vec<u32>) {
    type CompSet = HashMap<PartId, (u32, NodeId)>;
    let n = g.num_nodes();
    let mut slots: Vec<Option<CompSet>> = vec![None; n];
    let mut over_edges: Vec<OverEdge> = Vec::new();
    let mut o_mark = vec![false; g.num_edges()];
    let mut deg_b = vec![0u32; partition.num_parts()];

    for v in tree.order_deepest_first() {
        let mut acc: Option<CompSet> = None;
        for &ch in tree.children(v) {
            if let Some(set) = slots[ch.index()].take() {
                acc = Some(match acc {
                    None => set,
                    Some(cur) => {
                        let (mut big, small) = if cur.len() >= set.len() {
                            (cur, set)
                        } else {
                            (set, cur)
                        };
                        for (p, entry) in small {
                            big.entry(p)
                                .and_modify(|e| {
                                    if entry.0 < e.0 {
                                        *e = entry;
                                    }
                                })
                                .or_insert(entry);
                        }
                        big
                    }
                });
            }
        }
        let mut set = acc.unwrap_or_default();
        if let Some(p) = partition.part_of(v) {
            if is_active[p.index()] {
                // v is the shallowest node of its current component, so it
                // unconditionally becomes the representative.
                set.insert(p, (tree.depth(v), v));
            }
        }
        match tree.parent(v) {
            None => {} // root: nothing above to congest
            Some((_, e)) => {
                if cut(set.len(), e) {
                    let mut parts: Vec<(PartId, NodeId)> =
                        set.into_iter().map(|(p, (_, r))| (p, r)).collect();
                    parts.sort_unstable_by_key(|&(p, _)| p);
                    for &(p, _) in &parts {
                        deg_b[p.index()] += 1;
                    }
                    o_mark[e.index()] = true;
                    over_edges.push(OverEdge {
                        edge: e,
                        v_e: v,
                        parts,
                    });
                } else {
                    slots[v.index()] = Some(set);
                }
            }
        }
    }
    (over_edges, o_mark, deg_b)
}

/// `H_i` = all ancestor edges of `P_i` in the forest `T \ O`, for each
/// served part.
pub(crate) fn build_shortcut(
    g: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    served: &[PartId],
    o_mark: &[bool],
) -> Shortcut {
    let mut lists: Vec<Vec<EdgeId>> = vec![Vec::new(); partition.num_parts()];
    // Stamp = part id + 1; an edge already stamped for this part ends the
    // upward walk (everything above was added by an earlier member).
    let mut stamp = vec![0u32; g.num_edges()];
    for &pid in served {
        let mark = pid.0 + 1;
        for &node in partition.part(pid) {
            for (_, e) in tree.path_to_root(node) {
                if o_mark[e.index()] || stamp[e.index()] == mark {
                    break;
                }
                stamp[e.index()] = mark;
                lists[pid.index()].push(e);
            }
        }
    }
    Shortcut::from_edge_lists(lists)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::measure_quality;
    use lcs_graph::{bfs, gen, minor};

    /// The "comb" instance that deterministically triggers Case (II) at
    /// δ̂ = 1 with paper constants: a root, `t` middle nodes with `k` leaves
    /// each, and `k` parts that chain the `i`-th leaf of every middle node.
    pub(crate) fn comb_instance(t: usize, k: usize) -> (Graph, Partition) {
        // nodes: 0 = root; 1..=t middles; leaf(i, p) = 1 + t + i*k + p.
        let n = 1 + t + t * k;
        let mut b = lcs_graph::GraphBuilder::new(n);
        let leaf = |i: usize, p: usize| NodeId((1 + t + i * k + p) as u32);
        for i in 0..t {
            b.add_edge(NodeId(0), NodeId((1 + i) as u32));
            for p in 0..k {
                b.add_edge(NodeId((1 + i) as u32), leaf(i, p));
            }
        }
        // Chains making each part connected.
        for p in 0..k {
            for i in 0..t.saturating_sub(1) {
                b.add_edge(leaf(i, p), leaf(i + 1, p));
            }
        }
        let g = b.build();
        let parts: Vec<Vec<NodeId>> = (0..k)
            .map(|p| (0..t).map(|i| leaf(i, p)).collect())
            .collect();
        let partition = Partition::from_parts(&g, parts).unwrap();
        (g, partition)
    }

    #[test]
    fn easy_instance_serves_everything_with_one_block() {
        // Wide shallow tree, few parts: no edge ever overcongests.
        let g = gen::grid(6, 6);
        let partition = Partition::from_parts(&g, gen::rows_of_grid(6, 6)).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let out = partial_shortcut_or_witness(&g, &tree, &partition, 1, &ShortcutConfig::default());
        let SweepOutcome::Shortcut(ps) = out else {
            panic!("expected Case (I)");
        };
        assert_eq!(ps.served.len(), 6);
        assert!(ps.data.over_edges.is_empty());
        let q = measure_quality(&g, &partition, &tree, &ps.shortcut);
        assert!(q.tree_restricted);
        assert_eq!(q.max_blocks, 1); // no cuts: single block per part
        assert!(q.all_connected());
        assert!(q.max_congestion <= ps.data.congestion_threshold);
    }

    #[test]
    fn comb_instance_triggers_case_two_and_witness_verifies() {
        let (g, partition) = comb_instance(10, 20);
        let tree = bfs::bfs_tree(&g, NodeId(0));
        assert_eq!(tree.depth_of_tree(), 2);
        let out = partial_shortcut_or_witness(&g, &tree, &partition, 1, &ShortcutConfig::default());
        let SweepOutcome::DenseMinor { witness, data } = out else {
            panic!("expected Case (II)");
        };
        // All 10 root edges overcongest (20 parts >= c = 16).
        assert_eq!(data.over_edges.len(), 10);
        assert!(data.deg_b.iter().all(|&d| d == 10));
        let w = witness.expect("derandomized extraction must succeed");
        assert!(minor::verify_minor(&g, &w).is_ok());
        assert!(
            w.density() > 1.0,
            "witness density {} must exceed δ̂ = 1",
            w.density()
        );
    }

    #[test]
    fn comb_instance_succeeds_at_larger_delta() {
        let (g, partition) = comb_instance(10, 20);
        let tree = bfs::bfs_tree(&g, NodeId(0));
        // c = 8·2·2 = 32 > 20 parts: nothing overcongests.
        let out = partial_shortcut_or_witness(&g, &tree, &partition, 2, &ShortcutConfig::default());
        let SweepOutcome::Shortcut(ps) = out else {
            panic!("expected Case (I) at δ̂ = 2");
        };
        assert_eq!(ps.served.len(), 20);
        let q = measure_quality(&g, &partition, &tree, &ps.shortcut);
        assert_eq!(q.max_blocks, 1);
        assert!(q.max_dilation_upper <= 4);
    }

    #[test]
    fn congestion_threshold_respected_by_construction() {
        // Moderately hard instance: 16x16 grid, singleton-ish random parts.
        let g = gen::grid(16, 16);
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(2);
        let parts = gen::random_connected_parts(&g, 64, &mut rng);
        let partition = Partition::from_parts(&g, parts).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let out = partial_shortcut_or_witness(&g, &tree, &partition, 1, &ShortcutConfig::default());
        if let SweepOutcome::Shortcut(ps) = out {
            let q = measure_quality(&g, &partition, &tree, &ps.shortcut);
            // Served parts' H_i use only non-overcongested edges, whose
            // |I_e| < c; so congestion < c.
            assert!(q.max_congestion < ps.data.congestion_threshold);
            for &p in &ps.served {
                assert!(q.per_part[p.index()].blocks <= ps.data.deg_b[p.index()] + 1);
            }
        }
    }

    #[test]
    fn blocks_bounded_by_b_degree_plus_one() {
        let (g, partition) = comb_instance(6, 20);
        let tree = bfs::bfs_tree(&g, NodeId(0));
        // δ̂ = 1: c = 16 <= 20 parts, so all 6 root edges cut; deg_B = 6 <= 8
        // for every part: Case (I) with 6 blocks each.
        let out = partial_shortcut_or_witness(&g, &tree, &partition, 1, &ShortcutConfig::default());
        let SweepOutcome::Shortcut(ps) = out else {
            panic!("expected Case (I)");
        };
        assert_eq!(ps.served.len(), 20);
        let q = measure_quality(&g, &partition, &tree, &ps.shortcut);
        for &p in &ps.served {
            let pq = q.per_part[p.index()];
            assert_eq!(ps.data.deg_b[p.index()], 6);
            assert!(pq.blocks <= 7);
            assert!(pq.connected);
            // Observation 2.6: dilation <= blocks · (2D + 1).
            assert!(pq.dilation_upper <= pq.blocks * (2 * ps.data.tree_depth + 1));
        }
    }

    #[test]
    fn sweep_on_subset_of_parts() {
        let (g, partition) = comb_instance(10, 20);
        let tree = bfs::bfs_tree(&g, NodeId(0));
        // Only 10 active parts: c = 16 > 10, nothing overcongests.
        let active: Vec<PartId> = (0..10).map(PartId).collect();
        let out = sweep_active(
            &g,
            &tree,
            &partition,
            &active,
            1,
            &ShortcutConfig::default(),
            CutRule::Threshold,
        );
        let SweepOutcome::Shortcut(ps) = out else {
            panic!("expected Case (I)");
        };
        assert_eq!(ps.served, active);
        // Inactive parts got no edges.
        assert!(ps.shortcut.edges_for(PartId(15)).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside the tree")]
    fn rejects_parts_outside_tree() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let partition = Partition::from_parts(&g, vec![vec![NodeId(2)]]).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        partial_shortcut_or_witness(&g, &tree, &partition, 1, &ShortcutConfig::default());
    }

    use lcs_graph::Graph;
    use lcs_graph::NodeId;
}
