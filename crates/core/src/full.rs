//! Full shortcuts from partial shortcuts: the Observation 2.7 loop with a
//! doubling search over `δ̂`, plus the certifying output of the remark after
//! Theorem 3.1.

use crate::sweep::{sweep_active, SweepOutcome};
use crate::{Partition, Shortcut, ShortcutConfig};
use lcs_graph::minor::MinorWitness;
use lcs_graph::{Graph, PartId, RootedTree};
use serde::{Deserialize, Serialize};

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

/// Result of [`full_shortcut`].
#[derive(Clone, Debug)]
pub struct FullShortcutResult {
    /// The union shortcut: every part received `H_i` from the round that
    /// served it.
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
}

/// Builds a full tree-restricted shortcut for every part (Theorem 1.2
/// machinery): doubling search over `δ̂`, and per Observation 2.7 repeated
/// partial-shortcut rounds over the still-unserved parts.
///
/// Guarantees on the output (for the default paper constants):
///
/// * tree-restricted;
/// * per-part block number `<= 8δ̂ + 1`, hence dilation `<= (8δ̂+1)(2D+1)`
///   (Observation 2.6);
/// * congestion `< 8δ̂D · rounds`, with `rounds <= log₂ k + log₂ δ̂`;
/// * `δ̂ < 2δ(G)` — with a dense-minor certificate in
///   [`best_witness`](FullShortcutResult::best_witness) whenever `δ̂ > 1`.
///
/// # Panics
///
/// Panics if some part node lies outside `tree`'s component (parts must live
/// in the tree's — usually the whole — component), or if the internal
/// doubling search exceeds `4n` (impossible for valid inputs: a sweep at
/// `δ̂ >= δ(G)` always succeeds).
pub fn full_shortcut(
    g: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    config: &ShortcutConfig,
) -> FullShortcutResult {
    run_doubling_search(
        g.num_nodes(),
        partition.num_parts(),
        partition.part_ids().collect(),
        config.initial_delta_hat,
        |active, delta_hat| sweep_active(g, tree, partition, active, delta_hat, config),
    )
}

/// The Observation 2.7 driver shared by the centralized and distributed
/// constructions: repeated sweeps over the still-unserved parts with a
/// doubling search over `δ̂`. `sweep` runs one Theorem 3.1 sweep over the
/// given active parts at the given `δ̂` — centrally ([`full_shortcut`]) or
/// on the CONGEST simulator ([`crate::dist::distributed_full_shortcut`]).
///
/// The search runs over `remaining` (any subset of the `num_parts` part
/// ids — the full set for a from-scratch construction, just the touched
/// parts for the session's incremental re-customization) and starts at
/// `initial_delta_hat` (clamped to `>= 1`).
///
/// # Panics
///
/// Panics if the doubling search exceeds `4·num_nodes` (a sweep at
/// `δ̂ >= δ(G)` always succeeds, so this indicates a broken sweep).
pub(crate) fn run_doubling_search(
    num_nodes: usize,
    num_parts: usize,
    remaining: Vec<PartId>,
    initial_delta_hat: u32,
    mut sweep: impl FnMut(&[PartId], u32) -> SweepOutcome,
) -> FullShortcutResult {
    let mut shortcut = Shortcut::empty(num_parts);
    let mut remaining = remaining;
    let mut delta_hat = initial_delta_hat.max(1);
    let mut best_witness: Option<MinorWitness> = None;
    let mut round_log = Vec::new();
    let mut successful_rounds = 0usize;
    let cap = 4 * (num_nodes as u64).max(1);

    while !remaining.is_empty() {
        match sweep(&remaining, delta_hat) {
            SweepOutcome::Shortcut(ps) => {
                round_log.push(RoundLog {
                    delta_hat,
                    remaining: remaining.len(),
                    served: ps.served.len(),
                    over_edges: ps.data.over_edges.len(),
                });
                successful_rounds += 1;
                for &p in &ps.served {
                    shortcut.set_edges(p, ps.shortcut.edges_for(p).to_vec());
                }
                let served: std::collections::HashSet<PartId> = ps.served.iter().copied().collect();
                remaining.retain(|p| !served.contains(p));
            }
            SweepOutcome::DenseMinor { witness, data } => {
                round_log.push(RoundLog {
                    delta_hat,
                    remaining: remaining.len(),
                    served: 0,
                    over_edges: data.over_edges.len(),
                });
                if let Some(w) = witness {
                    let better = best_witness
                        .as_ref()
                        .map(|b| w.density() > b.density())
                        .unwrap_or(true);
                    if better {
                        best_witness = Some(w);
                    }
                }
                delta_hat = delta_hat.saturating_mul(2);
                assert!(
                    u64::from(delta_hat) <= cap,
                    "doubling search exceeded 4n — sweep invariant broken"
                );
            }
        }
    }

    FullShortcutResult {
        shortcut,
        delta_hat,
        successful_rounds,
        best_witness,
        round_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measure_quality, WitnessMode};
    use lcs_graph::{bfs, gen, minor, NodeId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn grid_rows_get_quality_shortcuts_at_delta_one() {
        let g = gen::grid(12, 12);
        let partition = Partition::from_parts(&g, gen::rows_of_grid(12, 12)).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let res = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
        assert_eq!(res.delta_hat, 1);
        assert_eq!(res.successful_rounds, 1);
        assert!(res.best_witness.is_none());
        let q = measure_quality(&g, &partition, &tree, &res.shortcut);
        assert!(q.tree_restricted);
        assert!(q.all_connected());
        let d_t = tree.depth_of_tree();
        assert!(q.max_congestion <= 8 * res.delta_hat * d_t * res.successful_rounds as u32);
        assert!(q.max_blocks <= 8 * res.delta_hat + 1);
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
    fn witness_mode_skip_still_converges() {
        let (g, partition) = crate::sweep::tests::comb_instance(10, 24);
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let cfg = ShortcutConfig {
            witness_mode: WitnessMode::Skip,
            ..ShortcutConfig::default()
        };
        let res = full_shortcut(&g, &tree, &partition, &cfg);
        assert_eq!(res.delta_hat, 2);
        assert!(res.best_witness.is_none());
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
