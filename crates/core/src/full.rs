//! Full shortcuts from partial shortcuts: the Observation 2.7 loop with a
//! doubling search over `δ̂`, plus the certifying output of the remark after
//! Theorem 3.1. One routine, [`construct`], is both the centralized
//! construction (Theorem 1.2) and the distributed one (Theorem 1.5): they
//! differ only in where a sweep's cut set comes from and what it costs.

use crate::dist::{distributed_bfs, DistConfig, Truncated};
use crate::{partial_shortcut_or_witness, Partition, Shortcut, ShortcutConfig};
use lcs_congest::RunMetrics;
use lcs_graph::minor::MinorWitness;
use lcs_graph::{bfs, Graph, NodeId, PartId, RootedTree};
use serde::{Deserialize, Serialize};
use std::ops::AddAssign;

/// Simulated cost of a construction: what its BFS and detection phases
/// spent on the CONGEST simulator (zero centrally, where none runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConstructionStats {
    /// Total simulated rounds.
    pub rounds: u64,
    /// Total simulated messages.
    pub messages: u64,
    /// Total simulated bits.
    pub bits: u64,
}

impl From<&RunMetrics> for ConstructionStats {
    fn from(run: &RunMetrics) -> Self {
        ConstructionStats {
            rounds: run.rounds,
            messages: run.messages,
            bits: run.bits,
        }
    }
}

impl AddAssign for ConstructionStats {
    fn add_assign(&mut self, other: Self) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bits += other.bits;
    }
}

/// One iteration of the Observation 2.7 loop.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoundLog {
    /// The `δ̂` this round ran with.
    pub delta_hat: u32,
    /// Parts still unserved when the round started.
    pub remaining: usize,
    /// Parts served by this round (0 when the round failed into Case (II)
    /// and δ̂ was doubled instead).
    pub served: usize,
    /// Number of overcongested edges the sweep produced.
    pub over_edges: usize,
}

/// Result of [`construct`].
#[derive(Clone, Debug)]
pub struct FullShortcutResult {
    /// The union shortcut: every constructed part received `H_i` from the
    /// round that served it (the other parts of the partition stay empty).
    pub shortcut: Shortcut,
    /// The final (successful) `δ̂` of the doubling search.
    pub delta_hat: u32,
    /// Successful rounds used (bounded by `log₂ k` at the final `δ̂`).
    pub successful_rounds: usize,
    /// The densest minor certificate from failed rounds, if any: it
    /// certifies `δ(G) > witness.density() >= δ̂_failed`, so the achieved
    /// quality is within `O(log n)` of optimal (certifying output of the
    /// paper's remark after Theorem 3.1).
    pub best_witness: Option<MinorWitness>,
    /// Full round-by-round log.
    pub round_log: Vec<RoundLog>,
    /// Simulated cost of the sweeps (zero when they ran centrally).
    pub cost: ConstructionStats,
}

/// Keeps the denser of two dense-minor certificates in `best`.
pub(crate) fn keep_denser(best: &mut Option<MinorWitness>, other: Option<MinorWitness>) {
    if let Some(w) = other {
        if best.as_ref().is_none_or(|b| w.density() > b.density()) {
            *best = Some(w);
        }
    }
}

/// [`construct`] over every part, centrally, from `δ̂ = 1`: every
/// doubling comes from a failed sweep whose derandomized certificate lands
/// in [`best_witness`](FullShortcutResult::best_witness), so a final
/// `δ̂ > 1` is certified.
///
/// # Panics
///
/// Panics like [`construct`].
pub fn full_shortcut(
    g: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    config: &ShortcutConfig,
) -> FullShortcutResult {
    let all: Vec<PartId> = partition.part_ids().collect();
    construct(g, tree, partition, &all, 1, config, None)
        .unwrap_or_else(|t| unreachable!("no simulated phase ran, yet: {t}"))
}

/// The BFS tree of `root` a construction on `dist` runs over, with its
/// cost: computed centrally free of charge (`None`), or by the simulated
/// flood of [`distributed_bfs`] — the same tree either way.
///
/// # Errors
///
/// [`Truncated`] (`phase: "bfs"`) if the flood hit `dist.sim.max_rounds`.
pub fn construction_tree(
    g: &Graph,
    root: NodeId,
    dist: Option<&DistConfig>,
) -> Result<(RootedTree, ConstructionStats), Truncated> {
    let Some(dist) = dist else {
        return Ok((bfs::bfs_tree(g, root), ConstructionStats::default()));
    };
    let (tree, flood) = distributed_bfs(g, root, dist.sim)?;
    Ok((tree, ConstructionStats::from(&flood)))
}

/// Builds tree-restricted shortcuts for `parts` — any duplicate-free subset
/// of the part ids: all of them from scratch, the touched ones for an
/// incremental re-customization. Per Observation 2.7, repeated
/// [`partial_shortcut_or_witness`] sweeps over the still-unserved parts,
/// with a doubling search over `δ̂` from `start_delta_hat` (clamped to
/// `>= 1`).
///
/// `dist` is the whole backend decision, passed to every sweep. `None`:
/// the Theorem 3.1 threshold rule, centrally, at no simulated cost
/// (Theorem 1.2). `Some`: what one detection convergecast over `tree`
/// found on the simulator — the same edges in exact mode, an estimate in
/// sketch mode — charged to [`cost`](FullShortcutResult::cost) (Theorem
/// 1.5).
///
/// Guarantees on the output (for the default paper constants):
///
/// * tree-restricted;
/// * per-part block number `<= 8δ̂ + 1`, hence dilation `<= (8δ̂+1)(2D+1)`
///   (Observation 2.6);
/// * congestion `< 8δ̂D · rounds`, with `rounds <= log₂ k + log₂ δ̂`;
/// * `δ̂ < 2δ(G)` — with a dense-minor certificate in
///   [`best_witness`](FullShortcutResult::best_witness) whenever the
///   search doubled past `start_delta_hat` (every failed sweep extracts
///   one).
///
/// # Errors
///
/// [`Truncated`] (`phase: "detection"`) if a convergecast hit
/// `dist.sim.max_rounds`; never with `dist = None`.
///
/// # Panics
///
/// Panics if a node of `parts` lies outside `tree`'s component, or if the
/// doubling search exceeds `4n` (a sweep at `δ̂ >= δ(G)` always succeeds,
/// so this indicates a broken sweep — or, in sketch mode, a pathologically
/// biased hash seed).
pub fn construct(
    g: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    parts: &[PartId],
    start_delta_hat: u32,
    config: &ShortcutConfig,
    dist: Option<&DistConfig>,
) -> Result<FullShortcutResult, Truncated> {
    let mut res = FullShortcutResult {
        shortcut: Shortcut::empty(partition.num_parts()),
        delta_hat: start_delta_hat.max(1),
        successful_rounds: 0,
        best_witness: None,
        round_log: Vec::new(),
        cost: ConstructionStats::default(),
    };
    let mut remaining = parts.to_vec();
    let cap = 4 * (g.num_nodes() as u64).max(1);

    while !remaining.is_empty() {
        let delta_hat = res.delta_hat;
        let (sweep, run) =
            partial_shortcut_or_witness(g, tree, partition, &remaining, delta_hat, config, dist)?;
        res.cost += ConstructionStats::from(&run);
        let case_one = sweep.case_one();
        res.round_log.push(RoundLog {
            delta_hat,
            remaining: remaining.len(),
            served: if case_one { sweep.served.len() } else { 0 },
            over_edges: sweep.data.over_edges.len(),
        });
        if case_one {
            res.successful_rounds += 1;
            for &p in &sweep.served {
                res.shortcut
                    .set_edges(p, sweep.shortcut.edges_for(p).to_vec());
            }
            let served: std::collections::HashSet<PartId> = sweep.served.into_iter().collect();
            remaining.retain(|p| !served.contains(p));
        } else {
            keep_denser(&mut res.best_witness, sweep.witness);
            res.delta_hat = delta_hat.saturating_mul(2);
            assert!(
                u64::from(res.delta_hat) <= cap,
                "doubling search exceeded 4n — sweep invariant broken"
            );
        }
    }
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure_quality;
    use lcs_graph::{bfs, gen, minor, NodeId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn grid_rows_get_quality_shortcuts_at_delta_one() {
        let g = gen::grid(12, 12);
        let partition = Partition::from_parts(&g, gen::rows_of_grid(12, 12)).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let config = ShortcutConfig::default();
        let res = full_shortcut(&g, &tree, &partition, &config);
        assert_eq!(res.delta_hat, 1);
        assert_eq!(res.successful_rounds, 1);
        assert!(res.best_witness.is_none());
        let q = measure_quality(&g, &partition, &tree, &res.shortcut);
        assert!(q.tree_restricted);
        assert!(q.all_connected());
        let d_t = tree.depth_of_tree();
        let bound = config.envelope(res.delta_hat, d_t, res.successful_rounds);
        assert!(q.max_congestion <= bound.congestion);
        assert!(q.max_blocks <= bound.blocks);
        assert!(
            u64::from(q.max_dilation_upper) <= u64::from(q.max_blocks) * u64::from(2 * d_t + 1)
        );
    }

    #[test]
    fn comb_forces_doubling_and_produces_certificate() {
        // The comb fails at δ̂ = 1 (Case II) and succeeds at δ̂ = 2.
        let (g, partition) = crate::sweep::tests::comb_instance(10, 24);
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let res = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
        assert_eq!(res.delta_hat, 2);
        let w = res.best_witness.expect("failed round must yield witness");
        assert!(minor::verify_minor(&g, &w).is_ok());
        assert!(w.density() > 1.0);
        let q = measure_quality(&g, &partition, &tree, &res.shortcut);
        assert!(q.all_connected());
        assert!(q.tree_restricted);
    }

    #[test]
    fn every_part_is_served_exactly_once() {
        let g = gen::grid(10, 10);
        let mut rng = SmallRng::seed_from_u64(3);
        let parts = gen::random_connected_parts(&g, 25, &mut rng);
        let partition = Partition::from_parts(&g, parts).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let res = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
        let q = measure_quality(&g, &partition, &tree, &res.shortcut);
        assert!(q.all_connected());
        let total_served: usize = res.round_log.iter().map(|r| r.served).sum();
        assert_eq!(total_served, partition.num_parts());
    }

    #[test]
    fn empty_partition_is_trivial() {
        let g = gen::path(4);
        let partition = Partition::from_parts(&g, vec![]).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let res = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
        assert_eq!(res.successful_rounds, 0);
        assert_eq!(res.shortcut.num_parts(), 0);
    }

    #[test]
    fn lower_bound_topology_round_trip() {
        // The Lemma 3.2 instance: quality must be sandwiched between the
        // lemma's lower bound and the Theorem 1.2 upper bound.
        let lb = gen::lower_bound_topology(5, 24);
        let partition = Partition::from_parts(&lb.graph, lb.rows.clone()).unwrap();
        let tree = bfs::bfs_tree(&lb.graph, lb.top_path[0]);
        let res = full_shortcut(&lb.graph, &tree, &partition, &ShortcutConfig::default());
        let q = measure_quality(&lb.graph, &partition, &tree, &res.shortcut);
        assert!(q.all_connected());
        // Measured quality respects the Ω(δD) lower bound.
        assert!(
            f64::from(q.quality()) >= lb.internal_lower_bound(),
            "quality {} below Lemma 3.2 bound {}",
            q.quality(),
            lb.internal_lower_bound()
        );
    }
}
