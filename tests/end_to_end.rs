//! Cross-crate integration: the full pipeline from graph generation through
//! shortcut construction, quality verification, part-wise aggregation, and
//! the distributed algorithms.

use lcs_graph::weights::EdgeWeights;
use low_congestion_shortcuts::algos::mst::{distributed_mst, kruskal};
use low_congestion_shortcuts::congest::protocols::AggOp;
use low_congestion_shortcuts::congest::SimConfig;
use low_congestion_shortcuts::core::dist::{distributed_bfs, DistConfig};
use low_congestion_shortcuts::core::{baseline, construct, FullShortcutResult, Sweep};
use low_congestion_shortcuts::partwise::{centralized_aggregate, AggregateOp};
use low_congestion_shortcuts::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

mod common;
use common::{env_packing, env_threads};

fn pipeline(g: &Graph, parts: Vec<Vec<NodeId>>, seed: u64) {
    let partition = Partition::from_parts(g, parts).expect("valid partition");
    let tree = bfs::bfs_tree(g, NodeId(0));
    let d = tree.depth_of_tree();

    // 1. Full shortcut respects every Theorem 1.2 bound.
    let config = ShortcutConfig::default();
    let built = full_shortcut(g, &tree, &partition, &config);
    let q = measure_quality(g, &partition, &tree, &built.shortcut);
    assert!(q.tree_restricted);
    assert!(q.all_connected());
    let bound = config.envelope(built.delta_hat, d, built.successful_rounds);
    assert!(q.max_blocks <= bound.blocks);
    assert!(q.max_congestion <= bound.congestion);
    assert!(q.max_dilation_upper <= bound.dilation);

    // 2. Any certificate produced along the way is a real dense minor.
    if let Some(w) = &built.best_witness {
        minor::verify_minor(g, w).expect("witness verifies");
        assert!(w.density() > 1.0);
    }

    // 3. Part-wise aggregation over the shortcut matches the centralized
    //    reference for every operator.
    let mut rng = SmallRng::seed_from_u64(seed);
    let values: Vec<u64> = (0..g.num_nodes())
        .map(|_| rand::Rng::gen_range(&mut rng, 0..1_000_000))
        .collect();
    for op in [AggOp::Min, AggOp::Max, AggOp::Sum] {
        let out = AggregateOp {
            values: &values,
            op,
            leaders: None,
        }
        .run_on(g, &partition, &built.shortcut, 0, SimConfig::default());
        assert!(
            out.all_members_informed,
            "all members must learn the result"
        );
        let expect = centralized_aggregate(&partition, &values, op);
        let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, expect);
    }
}

#[test]
fn pipeline_on_grid_rows() {
    let g = gen::grid(10, 10);
    pipeline(&g, gen::rows_of_grid(10, 10), 1);
}

#[test]
fn pipeline_on_torus_voronoi() {
    let g = gen::torus(8, 8);
    let mut rng = SmallRng::seed_from_u64(2);
    let parts = gen::random_connected_parts(&g, 12, &mut rng);
    pipeline(&g, parts, 2);
}

#[test]
fn pipeline_on_ktree() {
    let mut rng = SmallRng::seed_from_u64(3);
    let g = gen::ktree(150, 3, &mut rng);
    let parts = gen::random_connected_parts(&g, 15, &mut rng);
    pipeline(&g, parts, 3);
}

#[test]
fn pipeline_on_comb() {
    let comb = gen::comb(8, 24);
    pipeline(&comb.graph, comb.parts, 4);
}

#[test]
fn pipeline_on_lower_bound_topology() {
    let lb = gen::lower_bound_topology(5, 24);
    // Root the partition pipeline at node 0 (a top-path node).
    pipeline(&lb.graph, lb.rows, 5);
}

/// Differential check: on `g` with the given partition, the `DistMode::Exact`
/// sweep must be the centralized one — the same cut edges, `B`-degrees,
/// served parts, shortcut, case, and Case (II) witness.
fn assert_distributed_matches_centralized(g: &Graph, parts: Vec<Vec<NodeId>>, label: &str) {
    let partition = Partition::from_parts(g, parts).unwrap();
    let cfg = ShortcutConfig::default();
    let dist_cfg = DistConfig {
        sim: SimConfig {
            threads: env_threads(),
            message_packing: env_packing(),
            ..SimConfig::default()
        },
        ..DistConfig::default()
    };
    let (flooded, _) = distributed_bfs(g, NodeId(0), dist_cfg.sim).expect("default round cap");
    let all: Vec<PartId> = partition.part_ids().collect();
    let sweep = |tree: &RootedTree, dist| {
        partial_shortcut_or_witness(g, tree, &partition, &all, 1, &cfg, dist)
            .expect("default round cap")
            .0
    };
    let dist = sweep(&flooded, Some(&dist_cfg));
    let central = sweep(&bfs::bfs_tree(g, NodeId(0)), None);
    let cuts = |s: &Sweep| -> Vec<EdgeId> { s.data.over_edges.iter().map(|oe| oe.edge).collect() };
    assert_eq!(cuts(&dist), cuts(&central), "{label}: cut edges");
    assert_eq!(dist.data.deg_b, central.data.deg_b, "{label}: B-degrees");
    assert_eq!(dist.served, central.served, "{label}: served parts");
    assert_eq!(dist.shortcut, central.shortcut, "{label}: shortcut");
    assert_eq!(dist.case_one(), central.case_one(), "{label}: case");
    assert_eq!(dist.witness, central.witness, "{label}: witness");
}

const DIFFERENTIAL_SEEDS: u64 = 50;

#[test]
fn distributed_construction_agrees_with_centralized_on_gnm() {
    for seed in 0..DIFFERENTIAL_SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = gen::gnm_connected(120, 240, &mut rng);
        let parts = gen::random_connected_parts(&g, 30, &mut rng);
        assert_distributed_matches_centralized(&g, parts, &format!("gnm seed {seed}"));
    }
}

#[test]
fn distributed_construction_agrees_with_centralized_on_tori() {
    for seed in 0..DIFFERENTIAL_SEEDS {
        let mut rng = SmallRng::seed_from_u64(1000 + seed);
        let rows = 4 + (seed as usize % 5);
        let cols = 4 + ((seed as usize / 5) % 5);
        let g = gen::torus(rows, cols);
        let k = 1 + (seed as usize % (g.num_nodes() / 2));
        let parts = gen::random_connected_parts(&g, k, &mut rng);
        assert_distributed_matches_centralized(&g, parts, &format!("torus seed {seed}"));
    }
}

#[test]
fn distributed_construction_agrees_with_centralized_on_ktrees() {
    for seed in 0..DIFFERENTIAL_SEEDS {
        let mut rng = SmallRng::seed_from_u64(2000 + seed);
        let n = 40 + (seed as usize % 80);
        let g = gen::ktree(n, 3, &mut rng);
        let k = 1 + (seed as usize % (n / 4));
        let parts = gen::random_connected_parts(&g, k, &mut rng);
        assert_distributed_matches_centralized(&g, parts, &format!("ktree seed {seed}"));
    }
}

#[test]
fn distributed_construction_passes_quality_bounds() {
    let g = gen::grid(10, 10);
    let partition = Partition::from_parts(&g, gen::rows_of_grid(10, 10)).unwrap();
    let (config, dist) = (ShortcutConfig::default(), DistConfig::default());
    let (tree, _) = distributed_bfs(&g, NodeId(0), dist.sim).expect("default round cap");
    let all: Vec<PartId> = partition.part_ids().collect();
    let res =
        construct(&g, &tree, &partition, &all, 1, &config, Some(&dist)).expect("default round cap");
    let q = measure_quality(&g, &partition, &tree, &res.shortcut);
    assert!(q.tree_restricted && q.all_connected());
    let bound = config.envelope(res.delta_hat, tree.depth_of_tree(), res.successful_rounds);
    assert!(q.max_blocks <= bound.blocks);
}

#[test]
fn mst_exact_across_providers_and_families() {
    let cases: Vec<Graph> = vec![gen::grid(8, 8), gen::torus(6, 6), gen::wheel(40), {
        let mut rng = SmallRng::seed_from_u64(7);
        gen::gnm_connected(80, 160, &mut rng)
    }];
    for (i, g) in cases.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(100 + i as u64);
        let w = EdgeWeights::random_unique(g, &mut rng);
        let reference = kruskal(g, &w);
        let (tree, cfg) = (bfs::bfs_tree(g, NodeId(0)), &ShortcutConfig::default());
        let sweep = |p: &Partition, parts: &[PartId]| construct(g, &tree, p, parts, 1, cfg, None);
        let none = |p: &Partition, _: &[PartId]| construct(g, &tree, p, &[], 1, cfg, None);
        let base = |p: &Partition, _: &[PartId]| {
            let shortcut = baseline::general_graph_shortcut(g, &tree, p);
            Ok(FullShortcutResult {
                shortcut,
                ..none(p, &[])?
            })
        };
        for rep in [
            distributed_mst(g, &w, &tree, sweep, SimConfig::default()),
            distributed_mst(g, &w, &tree, base, SimConfig::default()),
            distributed_mst(g, &w, &tree, none, SimConfig::default()),
        ] {
            assert_eq!(rep.edges, reference, "family {i} provider mismatch");
        }
    }
}
