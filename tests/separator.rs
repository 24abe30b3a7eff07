//! Property tests for the nested-dissection engine plus the served-path
//! differential: at every dissection level, the declarative `separator`
//! partition source serves results bit-identical to a session built on
//! the explicit level partition.

use low_congestion_shortcuts::congest::protocols::AggOp;
use low_congestion_shortcuts::facade::{
    PartitionSource, SeparatorConfig, Session, SessionPartwiseOps,
};
use low_congestion_shortcuts::graph::{components, gen, Graph};
use low_congestion_shortcuts::separator::nested_dissection;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A graph from any generator family the repo ships — planar, genus-1,
/// bounded-treewidth, trees, dense, and the adversarial comb.
fn arb_any_family() -> impl Strategy<Value = (Graph, &'static str)> {
    (0usize..8, 3usize..9, 3usize..9, 0u64..1000).prop_map(|(fam, a, b, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        match fam {
            0 => (gen::grid(a, b), "grid"),
            1 => (gen::torus(a, b), "torus"),
            2 => (gen::ktree(a * b, 3, &mut rng), "ktree"),
            3 => (gen::path(a * b), "path"),
            4 => (gen::binary_tree(1 + (a as u32 % 5)), "binary_tree"),
            5 => (gen::complete(a + b), "complete"),
            6 => (gen::wheel(a + b), "wheel"),
            _ => (gen::grid_of_cliques(a, b, 3), "grid_of_cliques"),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The classical balance guarantee on every cut region of the
    /// dissection tree: each component of `region \ separator` holds at
    /// most ⌊2n/3⌋ of the region's nodes.
    #[test]
    fn separator_is_balanced_on_all_families((g, family) in arb_any_family()) {
        let cfg = SeparatorConfig { min_region: 2, max_levels: 30 };
        let tree = nested_dissection(&g, &cfg);
        for node in tree.nodes() {
            if node.separator().is_empty() || node.is_leaf() {
                continue;
            }
            let n_r = node.region().len();
            let near_strict =
                tree.node(node.children().start).region().len() - node.separator().len();
            prop_assert!(
                near_strict <= 2 * n_r / 3,
                "{family}: near side {near_strict} exceeds 2/3 of {n_r}"
            );
            for c in node.children().skip(1) {
                let far = tree.node(c).region().len();
                prop_assert!(
                    far <= 2 * n_r / 3,
                    "{family}: far side {far} exceeds 2/3 of {n_r}"
                );
            }
        }
    }

    /// The layout the in-place build relies on, on every family: every
    /// leaf's nodes are sorted ascending, every inner region's are its
    /// children's concatenated in child order, and every cut is a sorted
    /// subset of its near child's nodes.
    #[test]
    fn regions_are_ranges_of_one_node_order((g, family) in arb_any_family()) {
        let cfg = SeparatorConfig { min_region: 2, max_levels: 30 };
        let tree = nested_dissection(&g, &cfg);
        for (i, node) in tree.nodes().enumerate() {
            let region = node.region();
            if node.is_leaf() {
                prop_assert!(
                    region.windows(2).all(|w| w[0] < w[1]),
                    "{}: leaf {} is not sorted", family, i
                );
                continue;
            }
            let joined: Vec<_> = node
                .children()
                .flat_map(|c| tree.node(c).region().iter().copied())
                .collect();
            prop_assert!(
                joined == region,
                "{}: region {} is not its children's ranges in order", family, i
            );
            let cut = node.separator();
            prop_assert!(
                cut.windows(2).all(|w| w[0] < w[1]),
                "{}: the cut of {} is not sorted", family, i
            );
            let near = tree.node(node.children().start).region();
            prop_assert!(
                cut.iter().all(|v| near.contains(v)),
                "{}: the cut of {} leaves its near child", family, i
            );
        }
    }

    /// Every dissection level is a covering partition into connected
    /// parts, on every family — the invariant the `separator` partition
    /// source builds on.
    #[test]
    fn every_level_is_a_connected_covering_partition((g, family) in arb_any_family()) {
        let cfg = SeparatorConfig { min_region: 4, max_levels: 30 };
        let tree = nested_dissection(&g, &cfg);
        for level in 0..tree.num_levels() {
            let parts = tree.partition_at_level(level);
            let covered: usize = parts.iter().map(Vec::len).sum();
            prop_assert!(
                covered == g.num_nodes(),
                "{}: level {} must cover V ({} of {})",
                family, level, covered, g.num_nodes()
            );
            let mut seen = vec![false; g.num_nodes()];
            for p in &parts {
                prop_assert!(
                    components::induces_connected(&g, p),
                    "{}: disconnected part at level {}", family, level
                );
                for &v in p {
                    prop_assert!(!seen[v.index()], "{}: overlap at {:?}", family, v);
                    seen[v.index()] = true;
                }
            }
        }
    }
}

/// The served-path differential: over 30 seeds × 3 minor-free families,
/// at **every** level of the dissection, a session whose partition comes
/// from the declarative `separator` source (what a config file or the
/// server spec names) must serve results **bit-identical** to one built
/// on the explicit level partition of the full dissection tree — same
/// aggregate values, same simulated round/message counts, same δ̂, same
/// quality report.
#[test]
fn separator_source_matches_the_explicit_level_partition_at_every_level() {
    const MIN_REGION: usize = 4;
    for seed in 0..30u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = 4 + (seed as usize % 5);
        let b = 4 + (seed as usize / 5 % 5);
        for (g, family) in [
            (gen::grid(a, b), "grid"),
            (gen::torus(a, b), "torus"),
            (gen::ktree(a * b, 3, &mut rng), "ktree"),
        ] {
            let sep = SeparatorConfig {
                min_region: MIN_REGION,
                max_levels: 30,
            };
            let tree = nested_dissection(&g, &sep);
            let values: Vec<u64> = (0..g.num_nodes() as u64).map(|x| x * 31 % 257).collect();
            for level in 0..tree.num_levels() {
                let at = format!("{family}/seed {seed}/level {level}");
                let mut from_source = Session::on(&g)
                    .partition_source(PartitionSource::Separator {
                        level,
                        min_region: MIN_REGION,
                    })
                    .build()
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                let mut explicit = Session::on(&g)
                    .partition(tree.partition_at_level(level))
                    .build()
                    .unwrap_or_else(|e| panic!("{at}: {e}"));

                let sourced = from_source.aggregate(&values, AggOp::Sum);
                let flat = explicit.aggregate(&values, AggOp::Sum);
                assert_eq!(
                    sourced.result.results, flat.result.results,
                    "{at}: aggregate results diverge"
                );
                assert_eq!(
                    (sourced.rounds, sourced.messages),
                    (flat.rounds, flat.messages),
                    "{at}: simulated cost diverges"
                );
                assert_eq!(
                    from_source.delta_hat(),
                    explicit.delta_hat(),
                    "{at}: doubling search diverges"
                );
                assert_eq!(
                    from_source.quality(),
                    explicit.quality(),
                    "{at}: quality reports diverge"
                );
            }
        }
    }
}
