//! Minimum cuts: exact Stoer–Wagner (centralized reference) and the
//! distributed greedy-tree-packing approximation (Corollary 1.7).
//!
//! The distributed algorithm packs spanning trees greedily — each tree is a
//! minimum spanning tree with respect to the current edge loads: the first,
//! under uniform loads, is the caller's tree `T`, and the shortcut-based
//! Boruvka builds each later one in `Õ(δD)` simulated rounds — and
//! evaluates, for every packed tree, the best cut that *1-respects* it (cuts
//! exactly one tree edge). Every reported value is a realized cut, hence an
//! upper bound on `λ`; by tree-packing theory (Thorup) enough trees make
//! some tree cross the minimum cut at most twice, and small cuts (`λ <= 2δ`,
//! the regime of Corollary 1.7) are typically 1-respected and found exactly
//! — measured in experiment E7. The full 2-respecting evaluation is provided
//! centrally ([`min_two_respecting_cut`], [`exact_mincut_via_packing`]) for
//! exactness verification; only its *distributed* dynamic program is out of
//! scope: Corollary 1.7 takes it as a black box from the tree-packing
//! literature, and it adds no new use of shortcuts to measure.
//!
//! Round accounting: tree construction rounds are fully simulated; the
//! 1-respecting evaluation is the classic subtree-sum convergecast, its
//! LCA-token half computed centrally (charged as zero; `O(D + load)` rounds
//! in theory), its deg-sum half the [`Wave::Convergecast`] over the packed
//! tree as a one-part forest ([`AggForest::of_tree`]): `n − 1` `Up`s.

use crate::mst::{distributed_mst, kruskal, MstReport, MstSteps};
use lcs_congest::protocols::AggOp;
use lcs_congest::SimConfig;
use lcs_core::dist::Truncated;
use lcs_core::{FullShortcutResult, Partition, Shortcut};
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{bfs, components, EdgeId, Graph, NodeId, PartId, RootedTree};
use lcs_partwise::{AggForest, AggregateOp, ParticipationMap, Wave};

/// Exact minimum cut by Stoer–Wagner (`O(n³)`); returns 0 for disconnected
/// graphs. Unit edge weights (edge connectivity).
///
/// # Panics
///
/// Panics if the graph has fewer than 2 nodes.
pub fn stoer_wagner(g: &Graph) -> u64 {
    stoer_wagner_weighted(g, &EdgeWeights::unit(g))
}

/// Exact weighted minimum cut by Stoer–Wagner.
///
/// # Panics
///
/// Panics if the graph has fewer than 2 nodes.
pub fn stoer_wagner_weighted(g: &Graph, weights: &EdgeWeights) -> u64 {
    let n = g.num_nodes();
    assert!(n >= 2, "minimum cut needs at least two nodes");
    if !components::is_connected(g) {
        return 0;
    }
    // Dense weight matrix over supernodes.
    let mut w = vec![vec![0u64; n]; n];
    for er in g.edges() {
        w[er.u.index()][er.v.index()] += weights.weight(er.id);
        w[er.v.index()][er.u.index()] += weights.weight(er.id);
    }
    let mut active: Vec<usize> = (0..n).collect();
    let mut best = u64::MAX;
    while active.len() > 1 {
        // Maximum-adjacency order.
        let mut key = vec![0u64; n];
        let mut in_a = vec![false; n];
        let mut order = Vec::with_capacity(active.len());
        for _ in 0..active.len() {
            let &next = active
                .iter()
                .filter(|&&v| !in_a[v])
                .max_by_key(|&&v| key[v])
                .expect("active nodes remain");
            in_a[next] = true;
            order.push(next);
            for &v in &active {
                if !in_a[v] {
                    key[v] += w[next][v];
                }
            }
        }
        let t = *order.last().expect("non-empty order");
        let s = order[order.len() - 2];
        best = best.min(key[t]);
        // Merge t into s.
        for &v in &active {
            if v != s && v != t {
                w[s][v] += w[t][v];
                w[v][s] = w[s][v];
            }
        }
        active.retain(|&v| v != t);
    }
    best
}

/// Result of [`approx_mincut_distributed`].
#[derive(Clone, Debug, Default)]
pub struct MincutReport {
    /// The best (smallest) 1-respecting cut found — an upper bound on `λ`
    /// (`u64::MAX` if the run was cut short before the first evaluation).
    pub estimate: u64,
    /// Trees packed and evaluated.
    pub trees: usize,
    /// Simulated rounds of the tree constructions (the first tree's: none).
    pub rounds: MstSteps,
    /// The constructions' [`MstReport::clock_rounds`](crate::mst::MstReport).
    pub clock_rounds: MstSteps,
    /// Additional simulated rounds of the evaluation convergecasts.
    pub eval_rounds: u64,
    /// Total simulated messages: `message_split`'s sum plus
    /// `eval_messages`.
    pub messages: u64,
    /// Simulated messages of the tree constructions, per step.
    pub message_split: MstSteps,
    /// The constructions' [`MstReport::mwoe_downs`](crate::mst::MstReport).
    pub mwoe_downs: u64,
    /// Simulated messages of the evaluation convergecasts.
    pub eval_messages: u64,
    /// Total simulated bits.
    pub bits: u64,
    /// Whether a simulator run (tree construction or evaluation) hit the
    /// round cap.
    pub truncated: bool,
    /// Fragment MWOE aggregates of at least 2 members that ran the full
    /// echo, summed over the tree constructions
    /// ([`MstReport::echoes`](crate::mst::MstReport::echoes)).
    pub echoes: usize,
    /// [`MstReport::notified`](crate::mst::MstReport::notified), summed.
    pub notified: usize,
}

impl std::ops::AddAssign<&MstReport> for MincutReport {
    /// Adds one packed tree's construction.
    fn add_assign(&mut self, tree: &MstReport) {
        self.rounds += &tree.rounds;
        self.clock_rounds += &tree.clock_rounds;
        self.message_split += &tree.message_split;
        self.messages += tree.messages;
        self.mwoe_downs += tree.mwoe_downs;
        self.bits += tree.bits;
        self.truncated |= tree.truncated;
        self.echoes += tree.echoes;
        self.notified += tree.notified;
    }
}

/// Distributed (simulated) min-cut approximation by greedy tree packing +
/// 1-respecting cuts. The first packed tree is `tree`, the spanning tree the
/// shortcuts are built on (uniform loads make any spanning tree minimum);
/// each later one is built by [`distributed_mst`] over `tree`, rooted at its
/// root, on the shortcuts `fresh` returns. It packs
/// `min(min_degree, 2·⌈ln n⌉ + 4)` trees on `sim`, as [`distributed_mst`]
/// runs, and counts a tree once it is evaluated.
///
/// # Panics
///
/// Panics if `g` is disconnected or has fewer than 2 nodes.
pub fn approx_mincut_distributed(
    g: &Graph,
    tree: &RootedTree,
    mut fresh: impl FnMut(&Partition, &[PartId]) -> Result<FullShortcutResult, Truncated>,
    sim: SimConfig,
) -> MincutReport {
    assert!(g.num_nodes() >= 2, "minimum cut needs at least two nodes");
    assert!(components::is_connected(g), "graph must be connected");
    let n = g.num_nodes();
    let max_trees = 2 * (n as f64).ln().ceil() as usize + 4;
    let q = g.min_degree().clamp(1, max_trees);

    let mut loads = EdgeWeights::from_vec(g, vec![1; g.num_edges()]);
    let mut out = MincutReport {
        estimate: u64::MAX,
        ..MincutReport::default()
    };
    let whole = Partition::from_parts(g, vec![g.nodes().collect()]).expect("g is connected");
    let participation = ParticipationMap::build(g, &whole, &Shortcut::empty(1));
    let degrees: Vec<u64> = g.nodes().map(|v| g.degree(v) as u64).collect();

    // Every node knows its own ports of `tree`, the first packed tree.
    let mut packed = tree.clone();
    for i in 0..q {
        if i > 0 {
            let report = distributed_mst(g, &loads, tree, &mut fresh, sim);
            out += &report;
            if report.truncated {
                // A forest cut short spans nothing to evaluate or pack.
                break;
            }
            packed = tree_from_edges(g, &report.edges, tree.root());
        }

        // Simulate the deg-sum convergecast of the evaluation (one per
        // tree); the LCA-token half is centralized (see module docs).
        let mut forest = AggForest::of_tree(g, &participation, &packed);
        let sum = AggregateOp {
            values: &degrees,
            op: AggOp::Sum,
            leaders: Some(&[packed.root()]),
        };
        let shape = (Wave::Convergecast, None);
        let run = sum.run_masked(g, &whole, (0, sim), &participation, &mut forest, shape);
        out.eval_rounds += run.metrics.rounds;
        out.eval_messages += run.metrics.messages;
        out.messages += run.metrics.messages;
        out.bits += run.metrics.bits;
        if run.metrics.truncated {
            // An evaluation cut short serves no estimate.
            out.truncated = true;
            break;
        }
        out.trees += 1;
        let cuts = one_respecting_cuts(g, &packed);
        out.estimate = out.estimate.min(min_one_respecting_cut(&packed, &cuts));
        for (e, _) in packed.tree_edges() {
            *loads.weight_mut(e) += 1;
        }
    }

    out
}

/// Roots the spanning tree with edge set `edges` (sorted by id) at `root`.
fn tree_from_edges(g: &Graph, edges: &[EdgeId], root: NodeId) -> RootedTree {
    let res = bfs::bfs_filtered(g, &[root], |e, _| edges.binary_search(&e).is_ok());
    RootedTree::from_parents(g, root, &res.parent, &res.dist, &res.order)
}

/// The 1-respecting cut values: for every tree node `v`, the number of
/// graph edges crossing the subtree below `v` (0 at the root).
///
/// Uses the `+1, +1, -2·lca` contribution trick with subtree sums: a
/// subtree's sum counts each crossing edge once and each internal edge zero
/// times.
fn one_respecting_cuts(g: &Graph, tree: &RootedTree) -> Vec<i64> {
    let mut sum: Vec<i64> = g.nodes().map(|v| g.degree(v) as i64).collect();
    for er in g.edges() {
        sum[tree.lca(er.u, er.v).index()] -= 2;
    }
    // Subtree sums, deepest first.
    for v in tree.order_deepest_first() {
        if let Some((p, _)) = tree.parent(v) {
            sum[p.index()] += sum[v.index()];
        }
    }
    sum
}

/// The minimum, over tree edges `e`, of the number of graph edges crossing
/// the subtree below `v_e`.
fn min_one_respecting_cut(tree: &RootedTree, cuts: &[i64]) -> u64 {
    let below_edges = tree.tree_edges().map(|(_, v_e)| cuts[v_e.index()] as u64);
    below_edges.min().unwrap_or(u64::MAX)
}

/// The minimum cut that *2-respects* the tree (cuts exactly one or two tree
/// edges) — Thorup's theorem guarantees that with enough greedily packed
/// trees, some packed tree 2-respects a minimum cut, making
/// [`exact_mincut_via_packing`] exact.
///
/// `O(n²·m)` pair enumeration with interval labels; intended for
/// verification on moderate instances (the distributed dynamic program is
/// out of scope, see the module docs).
pub fn min_two_respecting_cut(g: &Graph, tree: &lcs_graph::RootedTree) -> u64 {
    let n = g.num_nodes();
    // DFS interval labels over the tree.
    let mut tin = vec![0u32; n];
    let mut tout = vec![0u32; n];
    let mut clock = 0u32;
    let mut stack = vec![(tree.root(), false)];
    while let Some((v, processed)) = stack.pop() {
        if processed {
            tout[v.index()] = clock;
            continue;
        }
        tin[v.index()] = clock;
        clock += 1;
        stack.push((v, true));
        for &ch in tree.children(v) {
            stack.push((ch, false));
        }
    }
    let in_subtree = |root: NodeId, v: NodeId| -> bool {
        tin[root.index()] <= tin[v.index()] && tin[v.index()] < tout[root.index()]
    };

    // 1-respecting values C(e) for every tree edge (indexed by v_e).
    let c1 = one_respecting_cuts(g, tree);
    let mut best = min_one_respecting_cut(tree, &c1);

    // All pairs of tree edges, identified by their deeper endpoints. The
    // cut side is `X = S_a Δ S_b`: `S_a ∖ S_b` when one subtree holds the
    // other, `S_a ∪ S_b` when they are disjoint.
    let edges: Vec<NodeId> = tree.tree_edges().map(|(_, ve)| ve).collect();
    for (i, &a) in edges.iter().enumerate() {
        for &b in edges.iter().skip(i + 1) {
            let in_x = |v| in_subtree(a, v) != in_subtree(b, v);
            let cut = g.edges().filter(|er| in_x(er.u) != in_x(er.v)).count() as u64;
            if cut > 0 {
                best = best.min(cut);
            }
        }
    }
    best
}

/// Corollary 1.7's greedy packing, centrally: `tree`, then Kruskal trees
/// under the loads of those before, rooted at `tree`'s root — the trees
/// [`approx_mincut_distributed`] packs (Boruvka has Kruskal's tie-break).
pub fn greedy_packing(g: &Graph, tree: &RootedTree, trees: usize) -> Vec<RootedTree> {
    let mut loads = EdgeWeights::from_vec(g, vec![1; g.num_edges()]);
    let mut packed = vec![tree.clone()];
    while packed.len() < trees {
        for (e, _) in packed[packed.len() - 1].tree_edges() {
            *loads.weight_mut(e) += 1;
        }
        packed.push(tree_from_edges(g, &kruskal(g, &loads), tree.root()));
    }
    packed.truncate(trees);
    packed
}

/// Exact minimum cut via greedy tree packing and 2-respecting evaluation —
/// the centralized realization of the Corollary 1.7 pipeline, exact once
/// enough trees are packed (Thorup). It evaluates the [`greedy_packing`] of
/// `tree`, the trees the distributed 1-respecting approximation packs.
///
/// # Panics
///
/// Panics like [`approx_mincut_distributed`].
pub fn exact_mincut_via_packing(g: &Graph, tree: &RootedTree, trees: usize) -> u64 {
    assert!(g.num_nodes() >= 2, "minimum cut needs at least two nodes");
    assert!(components::is_connected(g), "graph must be connected");
    let packing = greedy_packing(g, tree, trees);
    let cuts = packing.iter().map(|t| min_two_respecting_cut(g, t));
    cuts.min().unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::gen;

    /// The approximation from node 0 with oracle shortcuts on `sim`.
    fn approx_on(g: &Graph, tree: &RootedTree, sim: SimConfig) -> MincutReport {
        let cfg = ShortcutConfig::default();
        let fresh =
            |p: &Partition, parts: &[PartId]| lcs_core::construct(g, tree, p, parts, 1, &cfg, None);
        approx_mincut_distributed(g, tree, fresh, sim)
    }

    /// [`approx_on`] the BFS tree of node 0, on the default simulator.
    fn approx(g: &Graph) -> MincutReport {
        approx_on(g, &bfs::bfs_tree(g, NodeId(0)), SimConfig::default())
    }

    #[test]
    fn stoer_wagner_basics() {
        assert_eq!(stoer_wagner(&gen::cycle(8)), 2);
        assert_eq!(stoer_wagner(&gen::path(5)), 1);
        assert_eq!(stoer_wagner(&gen::complete(5)), 4);
        assert_eq!(stoer_wagner(&gen::grid(4, 4)), 2);
        // Disconnected: cut 0.
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(stoer_wagner(&g), 0);
    }

    #[test]
    fn stoer_wagner_weighted_bridge() {
        // Two triangles joined by a light bridge.
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let mut w = vec![10; 7];
        w[6] = 3; // the bridge (2,3)
        let weights = EdgeWeights::from_vec(&g, w);
        assert_eq!(stoer_wagner_weighted(&g, &weights), 3);
    }

    #[test]
    fn one_respecting_finds_bridges_exactly() {
        let g = Graph::from_edges(
            7,
            [
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (5, 6),
            ],
        );
        let rep = approx(&g);
        assert_eq!(rep.estimate, 1); // the pendant edge (5,6)
        assert_eq!(rep.estimate, stoer_wagner(&g));
    }

    #[test]
    fn cycle_and_grid_cuts_found() {
        for g in [gen::cycle(10), gen::grid(5, 5), gen::torus(4, 4)] {
            let rep = approx(&g);
            let exact = stoer_wagner(&g);
            assert!(rep.estimate >= exact, "estimate below true min cut");
            assert_eq!(rep.estimate, exact, "small cuts should be found exactly");
            assert!(rep.trees >= 1);
        }
    }

    #[test]
    fn two_respecting_is_exact_on_small_graphs() {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(31);
        let cases = vec![
            gen::cycle(12),
            gen::grid(4, 5),
            gen::torus(4, 4),
            gen::wheel(12),
            gen::complete(7),
            gen::gnm_connected(24, 50, &mut rng),
            gen::gnm_connected(30, 45, &mut rng),
        ];
        for g in cases {
            let exact = stoer_wagner(&g);
            let packed = exact_mincut_via_packing(
                &g,
                &bfs::bfs_tree(&g, NodeId(0)),
                (exact as usize + 2).min(8),
            );
            assert_eq!(packed, exact, "packing+2-respecting must be exact");
        }
    }

    #[test]
    fn two_respecting_beats_one_respecting_on_even_cuts() {
        // A dumbbell: two K_5 joined by two parallel-ish paths. λ = 2 but
        // the two cut edges can land in different 1-respecting positions.
        let g = Graph::from_edges(
            10,
            [
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 3),
                (1, 4),
                (2, 3),
                (2, 4),
                (3, 4),
                (5, 6),
                (5, 7),
                (5, 8),
                (5, 9),
                (6, 7),
                (6, 8),
                (6, 9),
                (7, 8),
                (7, 9),
                (8, 9),
                (0, 5),
                (4, 9),
            ],
        );
        assert_eq!(stoer_wagner(&g), 2);
        assert_eq!(
            exact_mincut_via_packing(&g, &bfs::bfs_tree(&g, NodeId(0)), 6),
            2
        );
    }

    #[test]
    fn estimate_is_always_an_upper_bound() {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(21);
        let g = gen::gnm_connected(30, 60, &mut rng);
        let rep = approx(&g);
        assert!(rep.estimate >= stoer_wagner(&g));
        // The message split covers every built tree's steps, and the
        // evaluations make up the rest. A degree-1 node packs one tree, the
        // caller's: nothing is built, and its evaluation is the whole bill.
        let split = &rep.message_split;
        assert_eq!(rep.messages, split.total() + rep.eval_messages);
        assert_eq!((g.min_degree(), rep.trees), (1, 1));
        assert_eq!(split.total(), 0);
        assert_eq!(rep.messages, g.num_nodes() as u64 - 1);
        // Each evaluation `Up` carries its part id beside the 64-bit sum.
        let up_bits = 3 + id_bits(g.num_nodes()) as u64 + 64;
        assert_eq!(rep.bits, rep.messages * up_bits);
    }

    /// Torus 6×6 packs `q = 4` trees: trees 2 … 4 are built by Boruvka,
    /// whose every step sends, and each evaluation is one convergecast of
    /// `n − 1` messages.
    #[test]
    fn later_trees_are_built_by_boruvka() {
        let g = gen::torus(6, 6);
        let rep = approx(&g);
        let split = &rep.message_split;
        assert_eq!(rep.trees, 4);
        assert!(split.exchange > 0 && split.aggregation > 0 && split.notification > 0);
        assert_eq!(rep.messages, split.total() + rep.eval_messages);
        let n = g.num_nodes() as u64;
        assert_eq!(rep.eval_messages, rep.trees as u64 * (n - 1));
    }

    /// A run stops at its first truncated simulator run, and only evaluated
    /// trees count. On grid 8×8 (`q = 2`) tree 1's evaluation takes `D`
    /// rounds, the depth of `T`: a cap of `D − 1` cuts it, and a cap of `D`
    /// lets it finish but cuts tree 2's Boruvka, whose evaluation never runs.
    #[test]
    fn a_cut_short_evaluation_serves_no_estimate() {
        let g = gen::grid(8, 8);
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let depth = u64::from(tree.depth_of_tree());
        let capped = |max_rounds| {
            let sim = SimConfig {
                max_rounds,
                ..SimConfig::default()
            };
            approx_on(&g, &tree, sim)
        };
        let none = capped(depth - 1);
        assert!(none.truncated);
        assert_eq!((none.trees, none.estimate), (0, u64::MAX));
        let one = capped(depth);
        assert!(one.truncated && one.rounds.total() > 0);
        assert_eq!(one.eval_messages, g.num_nodes() as u64 - 1);
        let alone = min_one_respecting_cut(&tree, &one_respecting_cuts(&g, &tree));
        assert_eq!((one.trees, one.estimate), (1, alone));
    }

    /// The best 1-respecting cut over the centralized `T`-first packing of
    /// `q` trees: what the distributed run must report.
    fn greedy_estimate(g: &Graph, tree: &RootedTree, q: usize) -> u64 {
        let packing = greedy_packing(g, tree, q);
        let cuts = packing
            .iter()
            .map(|t| min_one_respecting_cut(t, &one_respecting_cuts(g, t)));
        cuts.min().expect("q ≥ 1")
    }

    /// Differential: on E7's seven families plus a wheel, the distributed
    /// packing is the centralized greedy one — same `q`, same estimate.
    #[test]
    fn distributed_packing_is_the_greedy_packing() {
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(77);
        let ktree = gen::ktree(60, 3, &mut rng);
        let chords = gen::grid_plus_random_edges(8, 8, 8, &mut rng);
        let cases = [
            gen::cycle(32),
            gen::grid(8, 8),
            gen::torus(6, 6),
            ktree,
            gen::grid(12, 12),
            chords,
            gen::gnm_connected(80, 200, &mut rng),
            gen::wheel(64),
        ];
        for g in cases {
            let n = g.num_nodes();
            let q = g
                .min_degree()
                .clamp(1, 2 * (n as f64).ln().ceil() as usize + 4);
            let tree = bfs::bfs_tree(&g, NodeId(0));
            let rep = approx(&g);
            assert_eq!(rep.trees, q, "n = {n}");
            assert_eq!(rep.estimate, greedy_estimate(&g, &tree, q), "n = {n}");
            // Each evaluation is a convergecast of `depth` rounds along its
            // tree, so the packed trees have the greedy packing's depths.
            let depths = greedy_packing(&g, &tree, q)
                .iter()
                .map(|t| u64::from(t.depth_of_tree()))
                .sum();
            assert_eq!(rep.eval_rounds, depths, "n = {n}");
        }
    }

    /// At the benchmark's scale, on a centralized session: `road_like`
    /// 256² has a degree-1 node, so it packs the session tree alone and
    /// builds nothing — the bill is one convergecast along `T`, `n − 1`
    /// messages in `depth(T)` rounds, and the estimate is `λ = 1`. Torus
    /// 48² packs 4 trees, 3 of them by Boruvka, and finds `λ = 4` as the
    /// centralized `T`-first packing does.
    #[test]
    #[ignore = "release-mode scale test"]
    fn scale_mincut_packs_the_session_tree_first() {
        use crate::SessionAlgoOps;
        use lcs_core::session::{Backend, Session};
        let road = gen::road_like(256, 256, 7);
        let mut session = Session::on(&road)
            .backend(Backend::Centralized)
            .build()
            .unwrap();
        let rep = session.mincut().result;
        let n = road.num_nodes() as u64;
        assert_eq!((road.min_degree(), rep.estimate, rep.trees), (1, 1, 1));
        assert_eq!(rep.messages, n - 1);
        assert_eq!(rep.message_split.total(), 0);
        assert_eq!(rep.eval_rounds, u64::from(session.tree().depth_of_tree()));

        let torus = gen::torus(48, 48);
        let mut session = Session::on(&torus)
            .backend(Backend::Centralized)
            .build()
            .unwrap();
        let rep = session.mincut().result;
        let n = torus.num_nodes() as u64;
        assert_eq!((rep.estimate, rep.trees), (4, 4));
        assert_eq!(rep.eval_messages, 4 * (n - 1));
        assert!(!rep.truncated);
        assert_eq!(rep.estimate, greedy_estimate(&torus, session.tree(), 4));
    }

    use lcs_congest::id_bits;
    use lcs_core::ShortcutConfig;
    use lcs_graph::Graph;
}
