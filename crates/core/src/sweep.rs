//! The Theorem 3.1 sweep: overcongested edges, the bipartite graph `B`, and
//! partial-shortcut extraction.
//!
//! Processing tree edges by decreasing depth, an edge `e` is *overcongested*
//! when at least `c = 8δ̂D` parts intersect the descendants of `v_e` in
//! `T \ O`. The bipartite graph `B` relates overcongested edges to the parts
//! that congested them; parts of small `B`-degree receive their forest
//! ancestor edges as the shortcut (Case (I)), and if fewer than half the
//! parts qualify, `B` contains a dense minor (Case (II), extracted in
//! [`crate::witness`]). [`partial_shortcut_or_witness`] is the sweep of both
//! theorems: `O` comes from the threshold rule (Theorem 1.2) or from the
//! detection convergecast of [`crate::dist`] (Theorem 1.5).

use crate::dist::{detect_cuts, DistConfig, Truncated};
use crate::witness;
use crate::{Partition, Shortcut, ShortcutConfig};
use lcs_congest::RunMetrics;
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

/// One Theorem 3.1 sweep: the parts it served, their `H_i`, its
/// bookkeeping, and — in Case (II) only — the dense-minor certificate.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Active parts with `deg_B <= 8δ̂`, in `active` order.
    pub served: Vec<PartId>,
    /// `H_i` (the forest ancestor edges) for the served parts, empty for
    /// the others; sized like the partition.
    pub shortcut: Shortcut,
    /// The sweep's bookkeeping.
    pub data: SweepData,
    /// Case (II): the minor of density `> δ̂` the derandomized extraction
    /// found. With the paper's congestion factor `8` the counting argument
    /// guarantees one on trees of depth at least 4, so the doubled `δ̂` is
    /// certified; `None` in Case (I), and where that argument does not
    /// reach (a shallower tree, a weaker ablation factor).
    pub witness: Option<MinorWitness>,
}

impl Sweep {
    /// Case (I) of Theorem 3.1: at least half the active parts were served.
    pub fn case_one(&self) -> bool {
        2 * self.served.len() >= self.data.active.len()
    }
}

/// Runs one Theorem 3.1 sweep over the parts in `active` (the unit of the
/// Observation 2.7 loop) with guess `δ̂`.
///
/// `dist` picks where the cut set `O` comes from. `None`: the threshold
/// rule, centrally, and the returned metrics are zero (Theorem 1.2).
/// `Some`: the edges one detection convergecast over `tree` cut on the
/// simulator — the threshold rule's edges in [`DistMode::Exact`], an
/// estimate in sketch mode — with that run's metrics (Theorem 1.5).
/// Everything else — the `B`-degrees, the served parts, their `H_i` and
/// the Case (II) certificate — is derived from `O` the same way.
///
/// [`DistMode::Exact`]: crate::dist::DistMode::Exact
///
/// # Errors
///
/// [`Truncated`] (`phase: "detection"`) if the convergecast hit
/// `dist.sim.max_rounds`; never with `dist = None`.
///
/// # Panics
///
/// Panics if `δ̂ = 0`, some active part's node lies outside `tree`'s
/// component, or `active` contains duplicates or out-of-range part ids.
pub fn partial_shortcut_or_witness(
    g: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    active: &[PartId],
    delta_hat: u32,
    config: &ShortcutConfig,
    dist: Option<&DistConfig>,
) -> Result<(Sweep, RunMetrics), Truncated> {
    assert!(delta_hat >= 1, "δ̂ must be at least 1");
    let d_t = tree.depth_of_tree();
    let c = config.congestion_threshold(delta_hat, d_t);
    let b_thr = config.block_threshold(delta_hat);
    // The cut set `O`: the threshold rule's, or what the detection cut.
    let (over_edges, o_mark, deg_b, run) = {
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
        let detected = dist
            .map(|dist| detect_cuts(g, tree, partition, &is_active, c, dist))
            .transpose()?;
        let cut = |set_len: usize, e: EdgeId| match &detected {
            None => set_len >= c as usize,
            Some((cuts, _)) => cuts[e.index()],
        };
        let (over_edges, o_mark, deg_b) = bottom_up(g, tree, partition, &is_active, cut);
        let run = detected.map(|(_, run)| run).unwrap_or_default();
        (over_edges, o_mark, deg_b, run)
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
    let mut sweep = Sweep {
        shortcut: build_shortcut(g, tree, partition, &served, &o_mark),
        served,
        data,
        witness: None,
    };
    if !sweep.case_one() {
        sweep.witness = witness::extract_witness_derandomized(g, tree, partition, &sweep.data);
    }
    Ok((sweep, run))
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
fn build_shortcut(
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
    use crate::dist::DistMode;
    use crate::measure_quality;
    use lcs_congest::SimConfig;
    use lcs_graph::{bfs, gen, minor};

    /// One centralized sweep over every part of `partition`.
    pub(crate) fn sweep_all(
        g: &Graph,
        tree: &RootedTree,
        partition: &Partition,
        delta_hat: u32,
        config: &ShortcutConfig,
    ) -> Sweep {
        let all: Vec<PartId> = partition.part_ids().collect();
        let (sweep, run) =
            partial_shortcut_or_witness(g, tree, partition, &all, delta_hat, config, None)
                .expect("no simulated phase runs");
        assert_eq!(run, RunMetrics::default(), "a central sweep is free");
        sweep
    }

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
        let ps = sweep_all(&g, &tree, &partition, 1, &ShortcutConfig::default());
        assert!(ps.case_one() && ps.witness.is_none());
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
        let Sweep {
            served,
            witness,
            data,
            ..
        } = sweep_all(&g, &tree, &partition, 1, &ShortcutConfig::default());
        assert!(served.is_empty(), "expected Case (II)");
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
        let ps = sweep_all(&g, &tree, &partition, 2, &ShortcutConfig::default());
        assert!(ps.case_one(), "expected Case (I) at δ̂ = 2");
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
        let ps = sweep_all(&g, &tree, &partition, 1, &ShortcutConfig::default());
        let q = measure_quality(&g, &partition, &tree, &ps.shortcut);
        // Served parts' H_i use only non-overcongested edges, whose
        // |I_e| < c; so congestion < c — in either case.
        assert!(q.max_congestion < ps.data.congestion_threshold);
        for &p in &ps.served {
            assert!(q.per_part[p.index()].blocks <= ps.data.deg_b[p.index()] + 1);
        }
    }

    #[test]
    fn blocks_bounded_by_b_degree_plus_one() {
        let (g, partition) = comb_instance(6, 20);
        let tree = bfs::bfs_tree(&g, NodeId(0));
        // δ̂ = 1: c = 16 <= 20 parts, so all 6 root edges cut; deg_B = 6 <= 8
        // for every part: Case (I) with 6 blocks each.
        let ps = sweep_all(&g, &tree, &partition, 1, &ShortcutConfig::default());
        assert!(ps.case_one());
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
        let cfg = ShortcutConfig::default();
        let (ps, _) =
            partial_shortcut_or_witness(&g, &tree, &partition, &active, 1, &cfg, None).unwrap();
        assert!(ps.case_one());
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
        sweep_all(&g, &tree, &partition, 1, &ShortcutConfig::default());
    }

    #[test]
    fn a_capped_detection_is_truncated_not_a_panic() {
        // The comb's detection takes more rounds than its depth: at a cap
        // of 2 rounds the convergecast is cut short, and the sweep says so.
        let (g, partition) = comb_instance(10, 20);
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let all: Vec<PartId> = partition.part_ids().collect();
        let cfg = ShortcutConfig::default();
        for mode in [
            DistMode::Exact,
            DistMode::Sketch {
                t: 4,
                hash_seed: 1,
                cut_factor: 1.0,
            },
        ] {
            let dist = DistConfig {
                mode,
                sim: SimConfig {
                    max_rounds: 2,
                    ..SimConfig::default()
                },
            };
            let err =
                partial_shortcut_or_witness(&g, &tree, &partition, &all, 1, &cfg, Some(&dist))
                    .expect_err("a capped convergecast is no cut set");
            assert_eq!(
                err,
                Truncated {
                    phase: "detection",
                    max_rounds: 2
                }
            );
            let free = DistConfig {
                mode,
                ..DistConfig::default()
            };
            let (_, run) =
                partial_shortcut_or_witness(&g, &tree, &partition, &all, 1, &cfg, Some(&free))
                    .expect("the default cap lets it finish");
            assert!(run.terminated && run.rounds > 2);
        }
    }

    use lcs_graph::Graph;
    use lcs_graph::NodeId;
}
