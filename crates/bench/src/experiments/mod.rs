//! The experiment modules E1–E12, one per table / figure analogue of the
//! paper; each `run()` returns its tables and the claims it checks on them.

pub mod e10_wheel;
pub mod e11_ablation;
pub mod e12_witness;
pub mod e1_partial_bounds;
pub mod e2_full_bounds;
pub mod e3_lower_bound;
pub mod e4_dist_construction;
pub mod e5_partwise;
pub mod e6_mst;
pub mod e7_mincut;
pub mod e8_genus;
pub mod e9_treewidth;

use crate::{Relation::*, Report};
use lcs_congest::protocols::AggOp;
use lcs_congest::{RunMetrics, SimConfig};
use lcs_core::dist::{DistConfig, DistMode};
use lcs_core::{
    full_shortcut, measure_quality, partial_shortcut_or_witness, Envelope, FullShortcutResult,
    Partition, QualityReport, Shortcut, ShortcutConfig, Sweep, SweepData,
};
use lcs_graph::{bfs, gen, EdgeId, Graph, NodeId, RootedTree};
use lcs_partwise::{AggregateOp, PartwiseOutcome};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// A named test instance: graph + partition + BFS tree from node 0, with
/// the `n`, `D` and `k` columns most tables open on.
pub(crate) struct Instance {
    pub name: String,
    pub graph: Graph,
    pub partition: Partition,
    pub tree: RootedTree,
    pub n: usize,
    pub d: u32,
    pub k: usize,
}

pub(crate) fn instance(name: impl Into<String>, graph: Graph, parts: Vec<Vec<NodeId>>) -> Instance {
    let partition = Partition::from_parts(&graph, parts).expect("valid parts");
    let tree = bfs::bfs_tree(&graph, NodeId(0));
    Instance {
        name: name.into(),
        n: graph.num_nodes(),
        d: tree.depth_of_tree(),
        k: partition.num_parts(),
        graph,
        partition,
        tree,
    }
}

impl Instance {
    pub(crate) fn quality(&self, shortcut: &Shortcut) -> QualityReport {
        measure_quality(&self.graph, &self.partition, &self.tree, shortcut)
    }

    /// One Theorem 3.1 sweep over every part at `delta_hat`: centralized
    /// (`None`), or cutting what the simulated detection found, with that
    /// run's metrics.
    pub(crate) fn sweep(
        &self,
        delta_hat: u32,
        cfg: &ShortcutConfig,
        dist: Option<&DistConfig>,
    ) -> (Sweep, RunMetrics) {
        let (g, partition) = (&self.graph, &self.partition);
        let all: Vec<_> = partition.part_ids().collect();
        partial_shortcut_or_witness(g, &self.tree, partition, &all, delta_hat, cfg, dist)
            .expect("default round cap")
    }

    /// One simulated Theorem 1.5 sweep at `δ̂ = 1` over the instance's BFS
    /// tree, with the metrics of its detection run.
    pub(crate) fn detect(&self, mode: DistMode) -> (Sweep, RunMetrics) {
        let dist = DistConfig {
            mode,
            ..DistConfig::default()
        };
        self.sweep(1, &ShortcutConfig::default(), Some(&dist))
    }

    /// The Theorem 1.2 construction, measured, and what the theorem
    /// promises at the achieved `δ̂` and sweep count.
    pub(crate) fn full_shortcut(&self) -> (FullShortcutResult, QualityReport, Envelope) {
        let cfg = ShortcutConfig::default();
        let res = full_shortcut(&self.graph, &self.tree, &self.partition, &cfg);
        let bound = cfg.envelope(res.delta_hat, self.d, res.successful_rounds);
        let q = self.quality(&res.shortcut);
        (res, q, bound)
    }

    /// Part-wise aggregation of `values` over the shortcut `h`, undelayed
    /// on the default simulator.
    pub(crate) fn aggregate(&self, h: &Shortcut, values: &[u64], op: AggOp) -> PartwiseOutcome {
        let (g, partition, leaders) = (&self.graph, &self.partition, None);
        let op = AggregateOp {
            values,
            op,
            leaders,
        };
        op.run_on(g, partition, h, 0, SimConfig::default())
    }
}

const VALID: &str = "Thm 1.2 tree-restricted, every part connected";
const CONGESTION: &str = "Thm 1.2 congestion ≤ 8δ̂D·sweeps";
const DILATION: &str = "Thm 1.2 dilation ≤ (8δ̂+1)(2D+1)";
const BLOCKS: &str = "Obs 2.6 blocks ≤ 8δ̂+1";

/// Records the rows of Theorem 1.2 about `row`: a measured shortcut
/// against `bound`.
pub(crate) fn claim_envelope(out: &mut Report, row: &str, q: &QualityReport, bound: &Envelope) {
    let (valid, dilation) = (q.tree_restricted && q.all_connected(), q.max_dilation_upper);
    out.claim(row, VALID, valid, Exactly, true);
    out.claim(row, CONGESTION, q.max_congestion, AtMost, bound.congestion);
    out.claim(row, DILATION, dilation, AtMost, bound.dilation);
    out.claim(row, BLOCKS, q.max_blocks, AtMost, bound.blocks);
}

/// Size of the symmetric difference of two sweeps' cut sets `O`.
pub(crate) fn cut_set_difference(a: &SweepData, b: &SweepData) -> usize {
    let cuts =
        |d: &SweepData| -> HashSet<EdgeId> { d.over_edges.iter().map(|oe| oe.edge).collect() };
    cuts(a).symmetric_difference(&cuts(b)).count()
}

pub(crate) fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

pub(crate) fn random_parts(g: &Graph, k: usize, seed: u64) -> Vec<Vec<NodeId>> {
    gen::random_connected_parts(g, k, &mut rng(seed))
}

/// The standard family zoo used by E1/E2/E5a: one instance per graph class
/// the paper's corollaries cover.
pub(crate) fn family_zoo() -> Vec<Instance> {
    let s = 24;
    let voronoi = |name, g: Graph, k, seed| {
        let parts = random_parts(&g, k, seed);
        instance(name, g, parts)
    };
    // Bounded treewidth: 4-th power of a path (δ <= 4), a random 3-tree.
    let n = 800;
    let ktree = gen::ktree(n, 3, &mut rng(104));
    // The adversarial comb (forces Case II at δ̂ = 1).
    let comb = gen::comb(10, 24);
    let w = 256;
    let rim: Vec<NodeId> = (1..w as u32).map(NodeId).collect();
    let singletons = gen::singleton_parts(&gen::grid(s, s));
    vec![
        // Planar grid (δ < 3) with row parts, then random Voronoi parts.
        instance("grid rows", gen::grid(s, s), gen::rows_of_grid(s, s)),
        voronoi("grid voronoi", gen::grid(s, s), s * s / 8, 101),
        // Singleton parts: k = n exceeds the 8D threshold, so the sweep
        // genuinely cuts edges (non-empty O).
        instance("grid singletons", gen::grid(s, s), singletons),
        // Genus 1.
        voronoi("torus voronoi", gen::torus(s, s), s * s / 8, 102),
        voronoi("path-power-4", gen::path_power(n, 4), n / 16, 103),
        voronoi("3-tree", ktree, n / 16, 105),
        instance("comb 10", comb.graph, comb.parts),
        // Wheel with one rim part.
        instance("wheel rim", gen::wheel(w), vec![rim]),
    ]
}

/// The body of each experiment's in-crate test: it makes at least one
/// claim, and every claim holds (the failure message is the violated rows).
#[cfg(test)]
pub(crate) fn assert_claims_hold(report: crate::Report) {
    assert!(!report.claims.is_empty(), "an experiment without a claim");
    let violated: Vec<String> = report.violated().iter().map(|c| c.to_string()).collect();
    assert!(violated.is_empty(), "violated:\n{}", violated.join("\n"));
}
