//! Minimum spanning trees: Kruskal (centralized reference) and distributed
//! Boruvka over shortcuts (Corollary 1.6).
//!
//! The distributed algorithm follows the paper's recipe: fragments are the
//! parts of a part-wise aggregation instance; each phase (1) exchanges
//! fragment ids with neighbors (one round), (2) constructs shortcuts for the
//! fragments, (3) aggregates the minimum-weight outgoing edge per fragment,
//! and (4) merges fragments tail→head after leader coin flips (the standard
//! symmetry breaker keeping relabeling one hop), notifying members through a
//! second aggregation wave. All MWOEs are safe by the cut property under
//! the (weight, edge-id) tie-break, so the edge set is exact.

use lcs_congest::protocols::AggOp;
use lcs_congest::{id_bits, SimConfig, Simulator};
use lcs_core::dist::{distributed_full_shortcut, DistConfig};
use lcs_core::session::{deps, OpReport, PartwiseOp, ShortcutSession};
use lcs_core::{full_shortcut, Partition, Shortcut, ShortcutConfig};
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{EdgeId, Graph, NodeId, PartId, UnionFind};
use lcs_partwise::{AggForest, AggregateOp, ParticipationMap, PartwiseConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Kruskal's algorithm — the centralized reference.
///
/// Ties are broken by edge id, matching the distributed tie-break, so on any
/// input the two algorithms produce the identical forest.
pub fn kruskal(g: &Graph, weights: &EdgeWeights) -> Vec<EdgeId> {
    let mut order: Vec<EdgeId> = g.edges().map(|er| er.id).collect();
    order.sort_by_key(|&e| (weights.weight(e), e));
    let mut uf = UnionFind::new(g.num_nodes());
    let mut forest = Vec::new();
    for e in order {
        let (u, v) = g.endpoints(e);
        if uf.union(u.index(), v.index()) {
            forest.push(e);
        }
    }
    forest.sort_unstable();
    forest
}

/// How each Boruvka phase obtains its shortcuts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ShortcutProvider {
    /// Centralized Theorem 1.2 construction ("oracle" — construction rounds
    /// are not charged; use to isolate aggregation cost).
    MinorSweepOracle(ShortcutConfig),
    /// The real distributed Theorem 1.5 construction; its simulated rounds
    /// are charged per phase.
    MinorSweepDistributed(ShortcutConfig, DistConfig),
    /// The folklore `D + √n` shortcut (parts bigger than `√n` get the whole
    /// BFS tree). Constructible in `O(D)` rounds, charged as zero.
    Baseline,
    /// No shortcuts: fragments communicate inside `G[P_i]` only.
    None,
}

/// Configuration of [`distributed_mst`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BoruvkaConfig {
    /// Shortcut provider per phase.
    pub provider: ShortcutProvider,
    /// Aggregation settings.
    pub partwise: PartwiseConfig,
    /// Seed for the leader coin flips.
    pub seed: u64,
    /// Safety cap on phases (default `4·log₂ n + 16`).
    pub max_phases: Option<usize>,
    /// When `true` (default), fragments with at most `2D + 1` nodes get
    /// `H_i = ∅`: their own diameter already meets the Observation 2.6
    /// dilation bound, so shortcutting them only adds congestion. Set to
    /// `false` for the ablation that shortcuts everything.
    pub skip_small_fragments: bool,
}

impl Default for BoruvkaConfig {
    fn default() -> Self {
        BoruvkaConfig {
            provider: ShortcutProvider::MinorSweepOracle(ShortcutConfig::default()),
            partwise: PartwiseConfig::default(),
            seed: 0xb0_aa_12,
            max_phases: None,
            skip_small_fragments: true,
        }
    }
}

/// Round breakdown of one run.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MstRounds {
    /// Neighbor fragment-id exchanges (one per phase).
    pub exchange: u64,
    /// Shortcut construction (only for the distributed provider).
    pub construction: u64,
    /// MWOE aggregations.
    pub aggregation: u64,
    /// Merge-notification broadcasts.
    pub notification: u64,
}

impl MstRounds {
    /// Total simulated rounds.
    pub fn total(&self) -> u64 {
        self.exchange + self.construction + self.aggregation + self.notification
    }
}

/// Result of [`distributed_mst`].
#[derive(Clone, Debug)]
pub struct MstReport {
    /// The forest edges, sorted by id.
    pub edges: Vec<EdgeId>,
    /// Total weight.
    pub total_weight: u64,
    /// Boruvka phases executed.
    pub phases: usize,
    /// Simulated round counts.
    pub rounds: MstRounds,
    /// Total simulated messages.
    pub messages: u64,
    /// Total simulated bits (id-aware accounting; id exchanges are billed
    /// at `id_bits(n)` per message).
    pub bits: u64,
    /// Whether an aggregation run hit the simulator's round cap.
    pub truncated: bool,
}

/// Builds shortcuts for the parts living inside the BFS tree's component;
/// parts in other components (possible for spanning forests on disconnected
/// graphs) get `H_i = ∅`.
#[allow(clippy::too_many_arguments)]
fn provide_shortcuts(
    g: &Graph,
    tree: &lcs_graph::RootedTree,
    root: NodeId,
    partition: &Partition,
    provider: &ShortcutProvider,
    skip_small: bool,
    rounds: &mut MstRounds,
    messages: &mut u64,
    bits: &mut u64,
) -> Shortcut {
    let k = partition.num_parts();
    match provider {
        ShortcutProvider::None => return Shortcut::empty(k),
        ShortcutProvider::Baseline => {
            let lists = partition
                .iter()
                .map(|(_, nodes)| {
                    let big = nodes.len() > (g.num_nodes() as f64).sqrt() as usize;
                    if big && tree.contains(nodes[0]) {
                        tree.tree_edges().map(|(e, _)| e).collect()
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            return Shortcut::from_edge_lists(lists);
        }
        _ => {}
    }
    // Restrict to in-tree parts that actually profit from shortcuts (a part
    // with at most 2D+1 nodes already meets the dilation bound on its own),
    // construct, and map back.
    let small_cap = (2 * tree.depth_of_tree() + 1) as usize;
    let in_tree: Vec<PartId> = partition
        .iter()
        .filter(|(_, nodes)| tree.contains(nodes[0]) && (!skip_small || nodes.len() > small_cap))
        .map(|(p, _)| p)
        .collect();
    if in_tree.is_empty() {
        return Shortcut::empty(k);
    }
    let sub_parts: Vec<Vec<NodeId>> = in_tree
        .iter()
        .map(|&p| partition.part(p).to_vec())
        .collect();
    let sub = Partition::from_parts(g, sub_parts).expect("sub-partition stays valid");
    let sub_shortcut = match provider {
        ShortcutProvider::MinorSweepOracle(sc) => full_shortcut(g, tree, &sub, sc).shortcut,
        ShortcutProvider::MinorSweepDistributed(sc, dc) => {
            let res = distributed_full_shortcut(g, root, &sub, sc, dc);
            rounds.construction += res.rounds;
            *messages += res.messages;
            *bits += res.bits;
            res.shortcut
        }
        _ => unreachable!("handled above"),
    };
    let mut shortcut = Shortcut::empty(k);
    for (si, &orig) in in_tree.iter().enumerate() {
        shortcut.set_edges(orig, sub_shortcut.edges_for(PartId(si as u32)).to_vec());
    }
    shortcut
}

/// Packs `(weight, edge)` so that `min` over `u64` picks the lightest edge
/// with id tie-break.
fn pack(w: u64, e: EdgeId) -> u64 {
    debug_assert!(w < (1 << 31), "weights must fit in 31 bits");
    (w << 32) | u64::from(e.0)
}

fn unpack(p: u64) -> EdgeId {
    EdgeId((p & 0xffff_ffff) as u32)
}

/// Distributed Boruvka over shortcuts.
///
/// Returns the exact minimum spanning forest (per the `(weight, edge-id)`
/// tie-break) together with simulated round counts. `root` is the BFS-tree
/// root used for shortcut construction.
///
/// # Panics
///
/// Panics if `g` is empty, a weight exceeds `2³¹ - 1`, or the phase cap is
/// hit (indicates a bug — expected phases are `O(log n)`).
pub fn distributed_mst(
    g: &Graph,
    weights: &EdgeWeights,
    root: NodeId,
    cfg: &BoruvkaConfig,
) -> MstReport {
    let n = g.num_nodes();
    assert!(n > 0, "empty graph");
    for (_, w) in weights.iter() {
        assert!(w < (1 << 31), "weights must fit in 31 bits");
    }
    let max_phases = cfg
        .max_phases
        .unwrap_or(4 * (usize::BITS - n.leading_zeros()) as usize + 16);
    let tree = lcs_graph::bfs::bfs_tree(g, root);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // Fragment state (centralized bookkeeping of the distributed state).
    let mut fragment_of: Vec<u32> = (0..n as u32).collect();
    let mut mst: Vec<EdgeId> = Vec::new();
    let mut in_mst = vec![false; g.num_edges()];
    let mut truncated = false;
    let mut rounds = MstRounds::default();
    let mut messages = 0u64;
    let mut bits = 0u64;
    let mut phases = 0usize;

    loop {
        // Build the current fragment partition.
        let mut members: std::collections::BTreeMap<u32, Vec<NodeId>> = Default::default();
        for v in g.nodes() {
            members.entry(fragment_of[v.index()]).or_default().push(v);
        }
        let frag_ids: Vec<u32> = members.keys().copied().collect();
        let parts: Vec<Vec<NodeId>> = members.values().cloned().collect();
        let k = parts.len();
        let partition = Partition::from_parts(g, parts).expect("fragments stay connected");
        let frag_index = |fid: u32| frag_ids.binary_search(&fid).expect("known fragment");

        // Local MWOE per node: lightest incident edge leaving the fragment.
        // Distributedly this needs one round of neighbor id exchange.
        rounds.exchange += 1;
        messages += 2 * g.num_edges() as u64;
        // Fragment ids are id payloads: one id per directed edge.
        bits += 2 * g.num_edges() as u64 * id_bits(n) as u64;
        let mut local: Vec<u64> = vec![u64::MAX; n];
        let mut any_outgoing = false;
        for v in g.nodes() {
            for nb in g.neighbors(v) {
                if fragment_of[v.index()] != fragment_of[nb.node.index()] {
                    let p = pack(weights.weight(nb.edge), nb.edge);
                    if p < local[v.index()] {
                        local[v.index()] = p;
                    }
                    any_outgoing = true;
                }
            }
        }
        if !any_outgoing || k <= 1 {
            break;
        }
        phases += 1;
        assert!(phases <= max_phases, "Boruvka phase cap hit");

        // Shortcuts for the fragments (only parts inside the BFS tree's
        // component can be served; on connected graphs that is everything).
        let shortcut = provide_shortcuts(
            g,
            &tree,
            root,
            &partition,
            &cfg.provider,
            cfg.skip_small_fragments,
            &mut rounds,
            &mut messages,
            &mut bits,
        );

        // Both aggregations of the phase run over the same `G[P_i] + H_i`:
        // the first roots every fragment, the second only converge- and
        // broadcasts over those trees.
        let participation = ParticipationMap::build(g, &partition, &shortcut);
        let mut forest = AggForest::unrooted(&partition, &participation);
        let mut aggregate = |values: &[u64], op: AggOp| {
            let op = AggregateOp {
                values,
                op,
                leaders: None,
            };
            let out = op.run_with(g, &partition, &cfg.partwise, &participation, &mut forest);
            messages += out.metrics.messages;
            bits += out.metrics.bits;
            truncated |= out.metrics.truncated;
            out
        };

        // MWOE aggregation per fragment.
        let agg = aggregate(&local, AggOp::Min);
        rounds.aggregation += agg.metrics.rounds;
        debug_assert!(agg.all_members_informed);

        // Coin flips and merge decisions (tail -> head).
        let coins: Vec<bool> = (0..k).map(|_| rng.gen_bool(0.5)).collect();
        let mut new_id: Vec<Option<u32>> = vec![None; k];
        for i in 0..k {
            let Some(p) = agg.results[i] else { continue };
            if p == u64::MAX {
                continue; // no outgoing edge: fragment is a finished component
            }
            let e = unpack(p);
            if !std::mem::replace(&mut in_mst[e.index()], true) {
                mst.push(e); // every MWOE is safe by the cut property
            }
            let (u, v) = g.endpoints(e);
            let (fu, fv) = (fragment_of[u.index()], fragment_of[v.index()]);
            let my = frag_ids[i];
            let target = if fu == my { fv } else { fu };
            let ti = frag_index(target);
            // Tail merges into head.
            if !coins[i] && coins[ti] {
                new_id[i] = Some(target);
            }
        }

        // Merge-notification broadcast: the member adjacent to the MWOE
        // knows the target id; a Max aggregation delivers it to the whole
        // fragment. Fragments that stay put broadcast 0.
        let mut notify: Vec<u64> = vec![0; n];
        for (i, nid) in new_id.iter().enumerate() {
            if let Some(target) = nid {
                let e = unpack(agg.results[i].expect("merging fragment has MWOE"));
                let (u, v) = g.endpoints(e);
                let inside = if fragment_of[u.index()] == frag_ids[i] {
                    u
                } else {
                    v
                };
                notify[inside.index()] = u64::from(*target) + 1;
            }
        }
        let note = aggregate(&notify, AggOp::Max);
        rounds.notification += note.metrics.rounds;

        // Apply merges. One pass suffices: tails merge into heads, and a
        // head stays put, so no relabeled node is relabeled again.
        for fid in &mut fragment_of {
            if let Some(res @ 1..) = note.results[frag_index(*fid)] {
                *fid = (res - 1) as u32;
            }
        }
    }

    mst.sort_unstable();
    let total_weight = weights.total(mst.iter().copied());
    MstReport {
        edges: mst,
        total_weight,
        phases,
        rounds,
        messages,
        bits,
        truncated,
    }
}

/// Distributed Boruvka MST as a session-drivable operation
/// ([`PartwiseOp`]): the session supplies graph, root, the edge weights
/// (the `Weights` input — set via the builder's `.weights(..)` or
/// `session.set_weights(..)`), and the shortcut provider matching its
/// [`Backend`](lcs_core::session::Backend) (centralized oracle for
/// `Centralized`, the simulated Theorem 1.5 construction for `Distributed`
/// / `Sketch`); per-phase fragment partitions are built by the algorithm
/// itself.
///
/// The [`MstReport`] is cached as a weight-scoped session artifact
/// (`deps::WEIGHTED`): repeated calls reuse it until the weights (or
/// topology/sim config) change — partition churn does not evict it.
#[derive(Clone, Copy, Debug, Default)]
pub struct MstOp;

impl PartwiseOp for MstOp {
    type Output = MstReport;

    fn run(self, session: &mut ShortcutSession<'_>) -> OpReport<MstReport> {
        let report = session.op_artifact_with(deps::WEIGHTED, |s| {
            let cfg = boruvka_config_of(s);
            distributed_mst(s.graph(), s.weights(), s.root(), &cfg)
        });
        op_report(
            session.graph(),
            session.config().sim,
            report.rounds.total(),
            report.messages,
            report.bits,
            report.truncated,
            (*report).clone(),
        )
    }
}

/// Assembles the legacy [`BoruvkaConfig`] from a session's backend and
/// [`SessionConfig`](lcs_core::session::SessionConfig) knobs.
pub fn boruvka_config_of(session: &ShortcutSession<'_>) -> BoruvkaConfig {
    let sc = session.config();
    let provider = match session.backend().dist_config() {
        None => ShortcutProvider::MinorSweepOracle(sc.shortcut),
        Some(dist) => ShortcutProvider::MinorSweepDistributed(sc.shortcut, dist),
    };
    BoruvkaConfig {
        provider,
        partwise: PartwiseConfig {
            delay_range: sc.aggregate.delay_range,
            seed: sc.aggregate.seed,
            sim: sc.sim,
        },
        seed: sc.mst.seed,
        max_phases: sc.mst.max_phases,
        skip_small_fragments: sc.mst.skip_small_fragments,
    }
}

/// Wraps the (cached) report of a whole-graph op into the uniform
/// [`OpReport`]: its simulated totals plus the execution configuration —
/// effective threads, bandwidth bits — `sim` resolves to on `g`.
pub(crate) fn op_report<T>(
    g: &Graph,
    sim: SimConfig,
    rounds: u64,
    messages: u64,
    bits: u64,
    truncated: bool,
    result: T,
) -> OpReport<T> {
    let simulator = Simulator::new(g, sim);
    OpReport {
        rounds,
        messages,
        bits,
        truncated,
        quality: None,
        threads: simulator.effective_threads(),
        bandwidth_bits: simulator.bandwidth_bits(),
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::gen;

    fn check_matches_kruskal(g: &Graph, seed: u64, cfg: &BoruvkaConfig) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let w = EdgeWeights::random_unique(g, &mut rng);
        let reference = kruskal(g, &w);
        let report = distributed_mst(g, &w, NodeId(0), cfg);
        assert_eq!(report.edges, reference, "MST edge sets differ");
        assert_eq!(report.total_weight, w.total(reference));
        assert!(report.phases >= 1);
    }

    #[test]
    fn kruskal_on_path_takes_all_edges() {
        let g = gen::path(6);
        let w = EdgeWeights::unit(&g);
        assert_eq!(kruskal(&g, &w).len(), 5);
    }

    #[test]
    fn matches_kruskal_on_grid() {
        let g = gen::grid(7, 7);
        check_matches_kruskal(&g, 11, &BoruvkaConfig::default());
    }

    #[test]
    fn matches_kruskal_on_torus() {
        let g = gen::torus(5, 5);
        check_matches_kruskal(&g, 12, &BoruvkaConfig::default());
    }

    #[test]
    fn matches_kruskal_with_baseline_provider() {
        let g = gen::grid(6, 6);
        let cfg = BoruvkaConfig {
            provider: ShortcutProvider::Baseline,
            ..BoruvkaConfig::default()
        };
        check_matches_kruskal(&g, 13, &cfg);
    }

    #[test]
    fn matches_kruskal_with_no_shortcuts() {
        let g = gen::wheel(20);
        let cfg = BoruvkaConfig {
            provider: ShortcutProvider::None,
            ..BoruvkaConfig::default()
        };
        check_matches_kruskal(&g, 14, &cfg);
    }

    #[test]
    fn matches_kruskal_with_distributed_construction() {
        let g = gen::grid(6, 6);
        let cfg = BoruvkaConfig {
            provider: ShortcutProvider::MinorSweepDistributed(
                ShortcutConfig::default(),
                DistConfig::default(),
            ),
            ..BoruvkaConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(15);
        let w = EdgeWeights::random_unique(&g, &mut rng);
        let reference = kruskal(&g, &w);
        let report = distributed_mst(&g, &w, NodeId(0), &cfg);
        assert_eq!(report.edges, reference);
        assert!(report.rounds.construction > 0);
    }

    #[test]
    fn spanning_forest_on_disconnected_graph() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]);
        let w = EdgeWeights::unit(&g);
        let report = distributed_mst(&g, &w, NodeId(0), &BoruvkaConfig::default());
        // Forest: 2 + 2 edges.
        assert_eq!(report.edges.len(), 4);
        assert_eq!(report.edges, kruskal(&g, &w));
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::from_edges(1, []);
        let w = EdgeWeights::unit(&g);
        let report = distributed_mst(&g, &w, NodeId(0), &BoruvkaConfig::default());
        assert!(report.edges.is_empty());
        assert_eq!(report.phases, 0);
    }

    use lcs_graph::Graph;
}
