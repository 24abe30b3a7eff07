//! One executable assertion per paper claim — the statements of the paper,
//! numbered as in the text, checked on concrete instances.

use low_congestion_shortcuts::congest::protocols::AggOp;
use low_congestion_shortcuts::congest::SimConfig;
use low_congestion_shortcuts::partwise::AggregateOp;
use low_congestion_shortcuts::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// §1.1, Lemma 1.1 [Tho01]: (r-1)/2 <= δ(G) <= 8r√(log₂ r) — checked via
/// the conversions on certified densities of graphs with known cliques.
#[test]
fn lemma_1_1_clique_minor_vs_density() {
    for r in [4usize, 6, 8] {
        let g = gen::complete(r);
        let est = minor::greedy_contraction_density(&g, None);
        // K_r's density is exactly (r-1)/2; the conversions must bracket r.
        assert!((est.density - (r as f64 - 1.0) / 2.0).abs() < 1e-9);
        assert!(minor::max_clique_minor_order(est.density) as usize >= r);
        assert!(minor::guaranteed_clique_minor_order(est.density) as usize <= r);
    }
}

/// Definition 2.2: congestion and dilation of a concrete shortcut measured
/// per the definition (checked against hand-computed values on the wheel).
#[test]
fn definition_2_2_quality_semantics() {
    let g = gen::wheel(10);
    let rim: Vec<NodeId> = (1..10).map(NodeId).collect();
    let partition = Partition::from_parts(&g, vec![rim]).unwrap();
    let tree = bfs::bfs_tree(&g, NodeId(0));
    // Two opposite spokes: dilation <= 4, congestion 1.
    let e1 = g.find_edge(NodeId(0), NodeId(1)).unwrap();
    let e5 = g.find_edge(NodeId(0), NodeId(5)).unwrap();
    let s = low_congestion_shortcuts::core::Shortcut::from_edge_lists(vec![vec![e1, e5]]);
    let q = measure_quality(&g, &partition, &tree, &s);
    assert_eq!(q.max_congestion, 1);
    assert!(q.max_dilation_upper <= 4);
}

/// Observation 2.6: a b-block T-restricted shortcut has dilation at most
/// b(2D + 1) — verified on every part of a constructed shortcut.
#[test]
fn observation_2_6_dilation_from_blocks() {
    let g = gen::grid(12, 12);
    let mut rng = SmallRng::seed_from_u64(26);
    let parts = gen::random_connected_parts(&g, 36, &mut rng);
    let partition = Partition::from_parts(&g, parts).unwrap();
    let tree = bfs::bfs_tree(&g, NodeId(0));
    let d = tree.depth_of_tree();
    let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
    let q = measure_quality(&g, &partition, &tree, &built.shortcut);
    for pq in &q.per_part {
        assert!(u64::from(pq.dilation_upper) <= u64::from(pq.blocks) * u64::from(2 * d + 1));
    }
}

/// Observation 2.7: iterating partial shortcuts over the unserved parts
/// serves everyone within log₂ k successful rounds (at the final δ̂).
#[test]
fn observation_2_7_iteration_count() {
    let g = gen::grid(14, 14);
    let mut rng = SmallRng::seed_from_u64(27);
    let parts = gen::random_connected_parts(&g, 49, &mut rng);
    let partition = Partition::from_parts(&g, parts).unwrap();
    let tree = bfs::bfs_tree(&g, NodeId(0));
    let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
    let k = partition.num_parts() as f64;
    assert!(built.successful_rounds as f64 <= k.log2().ceil() + 1.0);
    let served: usize = built.round_log.iter().map(|r| r.served).sum();
    assert_eq!(served, partition.num_parts());
}

/// Theorem 3.1 dichotomy: every sweep outcome is either a partial shortcut
/// serving at least half the parts, or a verified minor denser than δ̂.
#[test]
fn theorem_3_1_dichotomy() {
    let cases: Vec<(Graph, Vec<Vec<NodeId>>)> = vec![
        {
            let c = gen::comb(10, 24);
            (c.graph, c.parts)
        },
        {
            let g = gen::grid(10, 10);
            (g, gen::rows_of_grid(10, 10))
        },
        {
            let g = gen::torus(8, 8);
            let mut rng = SmallRng::seed_from_u64(31);
            let p = gen::random_connected_parts(&g, 16, &mut rng);
            (g, p)
        },
    ];
    for (g, parts) in cases {
        let partition = Partition::from_parts(&g, parts).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let all: Vec<PartId> = partition.part_ids().collect();
        let cfg = ShortcutConfig::default();
        for delta_hat in [1u32, 2] {
            let (sweep, _) =
                partial_shortcut_or_witness(&g, &tree, &partition, &all, delta_hat, &cfg, None)
                    .unwrap();
            if sweep.case_one() {
                assert!(2 * sweep.served.len() >= partition.num_parts() && sweep.witness.is_none());
            } else {
                let w = sweep.witness.expect("paper constants guarantee extraction");
                minor::verify_minor(&g, &w).expect("witness must verify");
                assert!(w.density() > f64::from(delta_hat));
            }
        }
    }
}

/// Lemma 3.2: on the lower-bound topology, even OUR near-optimal shortcut
/// cannot beat (δ-1)D/2 — and the paper's planarity argument (density < δ′)
/// holds for the generated graph.
#[test]
fn lemma_3_2_lower_bound_holds() {
    for (dp, dd) in [(5u32, 24u32), (6, 36)] {
        let lb = gen::lower_bound_topology(dp, dd);
        assert!(lb.graph.density() < f64::from(dp));
        let partition = Partition::from_parts(&lb.graph, lb.rows.clone()).unwrap();
        let tree = bfs::bfs_tree(&lb.graph, lb.top_path[0]);
        let built = full_shortcut(&lb.graph, &tree, &partition, &ShortcutConfig::default());
        let q = measure_quality(&lb.graph, &partition, &tree, &built.shortcut);
        assert!(f64::from(q.quality()) >= lb.internal_lower_bound());
    }
}

/// Lemma 3.3: treewidth-k graphs have δ(G) <= k — certified densities of
/// k-trees and path powers never exceed k.
#[test]
fn lemma_3_3_treewidth_density() {
    let mut rng = SmallRng::seed_from_u64(33);
    for k in [2usize, 3, 4] {
        let g = gen::ktree(120, k, &mut rng);
        let est = minor::greedy_contraction_density(&g, None);
        assert!(
            est.density <= k as f64 + 1e-9,
            "k-tree density {} exceeds treewidth {k}",
            est.density
        );
        let g = gen::path_power(200, k);
        let est = minor::greedy_contraction_density(&g, None);
        assert!(est.density <= k as f64 + 1e-9);
    }
}

/// §2: part-wise aggregation in Õ(quality) rounds — the round count of the
/// solver never exceeds a small multiple of c + d·log₂ n.
#[test]
fn section_2_aggregation_within_quality_budget() {
    let g = gen::grid(12, 12);
    let partition = Partition::from_parts(&g, gen::rows_of_grid(12, 12)).unwrap();
    let tree = bfs::bfs_tree(&g, NodeId(0));
    let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
    let q = measure_quality(&g, &partition, &tree, &built.shortcut);
    let values = vec![1u64; g.num_nodes()];
    let out = AggregateOp {
        values: &values,
        op: AggOp::Sum,
        leaders: None,
    }
    .run_on(&g, &partition, &built.shortcut, 0, SimConfig::default());
    assert!(out.all_members_informed);
    let budget = f64::from(q.max_congestion)
        + f64::from(q.max_dilation_upper) * (g.num_nodes() as f64).log2();
    assert!(
        (out.metrics.rounds as f64) <= 3.0 * budget,
        "rounds {} exceed 3x budget {budget}",
        out.metrics.rounds
    );
}

/// Footnote 3 / §3.1: the explicit constant 8 in c = 8δD and the block
/// threshold 8δ are honored by the implementation's defaults.
#[test]
fn paper_constants_are_the_defaults() {
    let cfg = ShortcutConfig::default();
    assert_eq!(cfg.congestion_threshold(3, 10), 8 * 3 * 10);
    assert_eq!(cfg.block_threshold(3), 8 * 3);
}

use lcs_graph::Graph;
