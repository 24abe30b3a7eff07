//! Property-based tests (proptest) on the core invariants.

use lcs_graph::weights::EdgeWeights;
use low_congestion_shortcuts::algos::mst::{distributed_mst, kruskal};
use low_congestion_shortcuts::congest::protocols::AggOp;
use low_congestion_shortcuts::congest::SimConfig;
use low_congestion_shortcuts::core::construct;
use low_congestion_shortcuts::core::dist::KmvSketch;
use low_congestion_shortcuts::partwise::{centralized_aggregate, AggregateOp};
use low_congestion_shortcuts::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A random connected graph + Voronoi partition, fully determined by the
/// strategy parameters (sizes kept small for test speed).
fn arb_instance() -> impl Strategy<Value = (Graph, Vec<Vec<NodeId>>)> {
    (6usize..40, 0u64..1000).prop_map(|(n, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let extra = (n * (n - 1) / 2).saturating_sub(n - 1);
        let m = n - 1 + (seed as usize % (extra.min(2 * n) + 1));
        let g = gen::gnm_connected(n, m, &mut rng);
        let k = 1 + (seed as usize % (n / 2).max(1));
        let parts = gen::random_connected_parts(&g, k, &mut rng);
        (g, parts)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 1.2 invariants hold on arbitrary connected graphs.
    #[test]
    fn full_shortcut_invariants((g, parts) in arb_instance()) {
        let partition = Partition::from_parts(&g, parts).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let d = tree.depth_of_tree();
        let config = ShortcutConfig::default();
        let built = full_shortcut(&g, &tree, &partition, &config);
        let q = measure_quality(&g, &partition, &tree, &built.shortcut);
        prop_assert!(q.tree_restricted);
        prop_assert!(q.all_connected());
        let bound = config.envelope(built.delta_hat, d, built.successful_rounds);
        prop_assert!(q.max_blocks <= bound.blocks);
        prop_assert!(q.max_congestion <= bound.congestion);
        prop_assert!(q.max_dilation_upper <= bound.dilation);
        // Observation 2.6 per part: dilation <= blocks·(2D+1).
        for pq in &q.per_part {
            prop_assert!(u64::from(pq.dilation_upper)
                <= u64::from(pq.blocks) * u64::from(2 * d + 1));
        }
        // Every doubling is certified: the last failed sweep ran at δ̂/2
        // and left a minor denser than that.
        if built.delta_hat > 1 {
            let w = built.best_witness.as_ref();
            prop_assert!(w.is_some(), "δ̂ = {} without a certificate", built.delta_hat);
            let w = w.unwrap();
            prop_assert!(minor::verify_minor(&g, w).is_ok());
            prop_assert!(w.density() > f64::from(built.delta_hat / 2));
        }
    }

    /// Distributed aggregation equals the centralized reference.
    #[test]
    fn aggregation_matches_reference((g, parts) in arb_instance(), op_idx in 0usize..3) {
        let partition = Partition::from_parts(&g, parts).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
        let op = [AggOp::Min, AggOp::Max, AggOp::Sum][op_idx];
        let values: Vec<u64> = (0..g.num_nodes() as u64).map(|x| x.wrapping_mul(2654435761) % 10_000).collect();
        let out = AggregateOp { values: &values, op, leaders: None }.run_on(&g, &partition, &built.shortcut, 0, SimConfig::default());
        prop_assert!(out.all_members_informed);
        let expect = centralized_aggregate(&partition, &values, op);
        for (i, r) in out.results.iter().enumerate() {
            prop_assert_eq!(r.unwrap(), expect[i]);
        }
    }

    /// Boruvka with oracle shortcuts equals Kruskal on any connected graph.
    #[test]
    fn mst_matches_kruskal((g, _) in arb_instance(), wseed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(wseed);
        let w = EdgeWeights::random_unique(&g, &mut rng);
        let reference = kruskal(&g, &w);
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let cfg = &ShortcutConfig::default();
        let sweep = |p: &Partition, parts: &[PartId]| construct(&g, &tree, p, parts, 1, cfg, None);
        let rep = distributed_mst(&g, &w, &tree, sweep, SimConfig::default());
        prop_assert_eq!(rep.edges, reference);
    }

    /// The greedy minor-density witness always verifies and never exceeds
    /// the exact value on tiny graphs.
    #[test]
    fn greedy_density_is_sound(n in 4usize..9, seed in 0u64..500) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let maxm = n * (n - 1) / 2;
        let m = (n - 1) + (seed as usize % (maxm - (n - 1) + 1));
        let g = gen::gnm_connected(n, m, &mut rng);
        let est = minor::greedy_contraction_density(&g, None);
        prop_assert!(minor::verify_minor(&g, &est.witness).is_ok());
        let exact = minor::exact_minor_density_small(&g);
        prop_assert!(est.density <= exact + 1e-9);
        prop_assert!(g.density() <= exact + 1e-9);
    }

    /// KMV sketches: exact below capacity, and inserting one half-stream's
    /// retained values into the other's sketch (what the detection does
    /// with a child's report) gives the whole stream's sketch.
    #[test]
    fn kmv_sketch_properties(vals in prop::collection::vec(0u32..5000, 0..200), t in 1usize..64) {
        let mut whole = KmvSketch::new(t);
        let mut distinct = std::collections::HashSet::new();
        for &v in &vals {
            whole.insert(hash(v));
            distinct.insert(hash(v));
        }
        if distinct.len() < t {
            prop_assert_eq!(whole.estimate() as usize, distinct.len());
        }
        // Splitting the stream and combining gives the same sketch.
        let (a_half, b_half) = vals.split_at(vals.len() / 2);
        let mut a = KmvSketch::new(t);
        for &v in a_half {
            a.insert(hash(v));
        }
        let mut b = KmvSketch::new(t);
        for &v in b_half {
            b.insert(hash(v));
        }
        for &v in b.values() {
            a.insert(v);
        }
        prop_assert_eq!(a.values(), whole.values());
    }

    /// The Lemma 3.2 generator always meets its structural contract.
    #[test]
    fn lower_bound_topology_contract(dp in 5u32..8, extra in 0u32..30) {
        let dd = 3 * dp - 4 + extra;
        let lb = gen::lower_bound_topology(dp, dd);
        // Diameter within D′ (double-sweep upper bound suffices here).
        let b = diameter::diameter_bounds(&lb.graph, lb.top_path[0]);
        prop_assert!(b.lower <= lb.d_prime);
        // Edge density below δ′ (necessary for minor density < δ′).
        prop_assert!(lb.graph.density() < f64::from(lb.delta_prime));
        // Rows are disjoint connected parts.
        let partition = Partition::from_parts(&lb.graph, lb.rows.clone());
        prop_assert!(partition.is_ok());
    }
}

fn hash(v: u32) -> u64 {
    let mut z = u64::from(v).wrapping_mul(0x9e3779b97f4a7c15);
    z ^= z >> 31;
    z
}
