//! Determinism guarantees: identical seeds give identical executions, which
//! is what makes every number the `experiments` binary prints — and every
//! claim it pins on them — exactly reproducible.

use lcs_graph::weights::EdgeWeights;
use low_congestion_shortcuts::algos::mst::distributed_mst;
use low_congestion_shortcuts::congest::protocols::AggOp;
use low_congestion_shortcuts::congest::SimConfig;
use low_congestion_shortcuts::core::dist::{DistConfig, DistMode};
use low_congestion_shortcuts::core::{construct, Sweep};
use low_congestion_shortcuts::partwise::AggregateOp;
use low_congestion_shortcuts::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn partwise_runs_are_replayable() {
    let g = gen::grid(8, 8);
    let partition = Partition::from_parts(&g, gen::rows_of_grid(8, 8)).unwrap();
    let tree = bfs::bfs_tree(&g, NodeId(0));
    let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
    let values: Vec<u64> = (0..64).collect();
    let delay_range = 16;
    let sim = SessionConfig::default().sim;
    let op = AggregateOp {
        values: &values,
        op: AggOp::Sum,
        leaders: None,
    };
    let a = op.run_on(&g, &partition, &built.shortcut, delay_range, sim);
    let b = op.run_on(&g, &partition, &built.shortcut, delay_range, sim);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.results, b.results);
}

#[test]
fn mst_runs_are_replayable() {
    let g = gen::torus(6, 6);
    let mut rng = SmallRng::seed_from_u64(9);
    let w = EdgeWeights::random_unique(&g, &mut rng);
    let (tree, cfg, sim) = (
        bfs::bfs_tree(&g, NodeId(0)),
        ShortcutConfig::default(),
        SimConfig::default(),
    );
    let sweep = |p: &Partition, parts: &[PartId]| construct(&g, &tree, p, parts, 1, &cfg, None);
    let a = distributed_mst(&g, &w, &tree, sweep, sim);
    let b = distributed_mst(&g, &w, &tree, sweep, sim);
    assert_eq!(a.edges, b.edges);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.phases, b.phases);
}

#[test]
fn distributed_construction_is_replayable_per_seed() {
    let g = gen::grid(10, 10);
    let mut rng = SmallRng::seed_from_u64(5);
    let parts = gen::random_connected_parts(&g, 25, &mut rng);
    let partition = Partition::from_parts(&g, parts).unwrap();
    let cfg = ShortcutConfig::default();
    let dist = DistConfig {
        mode: DistMode::Sketch {
            t: 16,
            hash_seed: 0x1234,
            cut_factor: 1.0,
        },
        ..DistConfig::default()
    };
    let tree = bfs::bfs_tree(&g, NodeId(0));
    let all: Vec<PartId> = partition.part_ids().collect();
    let sweep = |dist| {
        partial_shortcut_or_witness(&g, &tree, &partition, &all, 1, &cfg, Some(dist)).unwrap()
    };
    let cuts = |s: &Sweep| -> Vec<EdgeId> { s.data.over_edges.iter().map(|oe| oe.edge).collect() };
    let ((a, run_a), (b, run_b)) = (sweep(&dist), sweep(&dist));
    assert_eq!(cuts(&a), cuts(&b));
    assert_eq!(run_a, run_b);
    assert_eq!(a.shortcut, b.shortcut);

    // A different hash seed may legitimately differ, but stays valid.
    let dist2 = DistConfig {
        mode: DistMode::Sketch {
            t: 16,
            hash_seed: 0x9999,
            cut_factor: 1.0,
        },
        ..DistConfig::default()
    };
    let (c, _) = sweep(&dist2);
    let q = measure_quality(&g, &partition, &tree, &c.shortcut);
    assert!(q.tree_restricted);
}

#[test]
fn full_shortcut_is_deterministic_for_derandomized_mode() {
    let comb = gen::comb(10, 24);
    let partition = Partition::from_parts(&comb.graph, comb.parts.clone()).unwrap();
    let tree = bfs::bfs_tree(&comb.graph, NodeId(0));
    let cfg = ShortcutConfig::default(); // derandomized witnesses
    let a = full_shortcut(&comb.graph, &tree, &partition, &cfg);
    let b = full_shortcut(&comb.graph, &tree, &partition, &cfg);
    assert_eq!(a.shortcut, b.shortcut);
    assert_eq!(a.delta_hat, b.delta_hat);
    assert_eq!(a.best_witness, b.best_witness);
}
