//! Property tests binding the construction to the paper's Theorem 1.1
//! bounds on minor-free families.
//!
//! For `K_r`-minor-free graphs the paper guarantees shortcuts with
//! congestion `O(δD log n)` and dilation `O(δD)`. The construction tracks
//! the density guess `δ̂` of the doubling search (which is `O(δ)`), `D` is
//! the depth of the BFS tree the sweep ran on, and the `O(log n)` factor
//! is the number of successful Case (I) sweeps (each serves at least half
//! the still-active parts, Observation 2.7). The tests below draw random
//! planar (grid subdivisions) and bounded-genus (torus) instances plus
//! bounded-treewidth k-trees, and assert both bounds with explicit
//! constants, surfacing the **observed** constant in the failure message
//! so a regression immediately shows how far outside the envelope it
//! landed.

use low_congestion_shortcuts::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Simulator thread count for the distributed property tests. CI runs this
/// suite under both `LCS_SIM_THREADS=1` and `=4`; the bounds must hold —
/// and the executions be identical — either way.
fn env_threads() -> usize {
    std::env::var("LCS_SIM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Simulator packing factor for the distributed property tests. CI runs
/// the suite under `LCS_SIM_PACKING=8` as well: multi-value packing must
/// leave every construction — and with it every bound below — unchanged.
fn env_packing() -> usize {
    std::env::var("LCS_SIM_PACKING")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Congestion must stay within `C_CONG · δ̂ · D · (log₂ n + 1)`.
///
/// The per-sweep threshold is `8δ̂D` and the doubling search executes at
/// most `log₂(#parts) + 1 ≤ log₂ n + 1` successful sweeps, so 8 is the
/// analytic constant; any excess indicates a broken threshold or sweep
/// accounting.
const C_CONG: f64 = 8.0;

/// Dilation must stay within `C_DIL · δ̂ · D`.
///
/// Observation 2.6 bounds each part's dilation by `blocks · (2D + 1)` with
/// `blocks ≤ 8δ̂ + 1`, i.e. `(8δ̂ + 1)(2D + 1) ≤ 27 · δ̂D` for `δ̂, D ≥ 1`.
const C_DIL: f64 = 27.0;

/// Builds the full shortcut for `partition` on the BFS tree rooted at node
/// 0, checks it is valid, and returns the observed Theorem 1.1 constants
/// `(c_cong, c_dil, c_blocks)` — congestion over `δ̂D(log₂ n + 1)`,
/// dilation over `δ̂D`, blocks over `δ̂`.
fn observed_constants(g: &Graph, partition: &Partition) -> (f64, f64, f64) {
    let tree = bfs::bfs_tree(g, NodeId(0));
    let d = f64::from(tree.depth_of_tree().max(1));
    let built = full_shortcut(g, &tree, partition, &ShortcutConfig::default());
    let q = measure_quality(g, partition, &tree, &built.shortcut);
    assert!(q.tree_restricted && q.all_connected());
    let delta_hat = f64::from(built.delta_hat.max(1));
    let log_n = (g.num_nodes() as f64).log2() + 1.0;
    (
        f64::from(q.max_congestion) / (delta_hat * d * log_n),
        f64::from(q.max_dilation_upper) / (delta_hat * d),
        f64::from(q.max_blocks) / delta_hat,
    )
}

/// Quality gate of the dissection engine: on the n = 1e4 grid, a partition
/// computed from the graph alone (`PartitionSource::Separator`) must sit
/// no deeper in the Theorem 1.1 envelope than the best embedding-aware
/// synthetic source. The scalar compared is the binding constant, the
/// envelope occupancy `max(c_cong / 8, c_dil / 27)`. Every source aims for
/// `side` parts, so the rows compare like with like.
#[test]
fn separator_occupancy_no_worse_than_best_synthetic_on_grid() {
    use low_congestion_shortcuts::facade::PartitionSource;

    let side = 100usize;
    let g = gen::grid(side, side);
    let occupancy = |source: PartitionSource| {
        let partition = Partition::from_parts_covering(&g, source.resolve(&g)).unwrap();
        let (c_cong, c_dil, c_blocks) = observed_constants(&g, &partition);
        assert!(
            c_cong <= C_CONG && c_dil <= C_DIL && c_blocks <= 9.0,
            "{}: outside the Theorem 1.1 envelope \
             (c_cong={c_cong:.3}, c_dil={c_dil:.3}, c_blocks={c_blocks:.3})",
            source.name()
        );
        (c_cong / C_CONG).max(c_dil / C_DIL)
    };
    let rows = occupancy(PartitionSource::Rows {
        rows: side,
        cols: side,
    });
    let voronoi = occupancy(PartitionSource::Voronoi {
        parts: side,
        seed: 7,
    });
    let separator = occupancy(PartitionSource::Separator {
        level: side.next_power_of_two().trailing_zeros(),
        min_region: 8,
    });
    assert!(
        separator <= rows.min(voronoi),
        "separator envelope occupancy {separator:.4} worse than the best synthetic \
         source's (rows {rows:.4}, voronoi {voronoi:.4})"
    );
}

/// A random minor-free instance: planar / bounded-genus / bounded-treewidth
/// graph plus a random connected (Voronoi) partition.
fn arb_minor_free() -> impl Strategy<Value = (Graph, Vec<Vec<NodeId>>, &'static str)> {
    (0usize..3, 4usize..10, 4usize..10, 0u64..1000).prop_map(|(fam, a, b, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (g, name) = match fam {
            0 => (gen::grid(a, b), "planar/grid"),
            1 => (gen::torus(a, b), "genus-1/torus"),
            _ => (gen::ktree(a * b, 3, &mut rng), "treewidth-3/ktree"),
        };
        let k = 1 + (seed as usize % (g.num_nodes() / 3).max(1));
        let parts = gen::random_connected_parts(&g, k, &mut rng);
        (g, parts, name)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1.1: congestion `≤ c·δ̂D·log n` and dilation `≤ c·δ̂D` on
    /// minor-free families, with the observed constants surfaced.
    #[test]
    fn shortcut_bounds_on_minor_free_families((g, parts, family) in arb_minor_free()) {
        let n = g.num_nodes() as f64;
        let partition = Partition::from_parts(&g, parts).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let d = f64::from(tree.depth_of_tree().max(1));
        let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
        let q = measure_quality(&g, &partition, &tree, &built.shortcut);
        prop_assert!(q.tree_restricted && q.all_connected());

        let delta_hat = f64::from(built.delta_hat.max(1));
        let log_n = n.log2() + 1.0;

        let c_cong = f64::from(q.max_congestion) / (delta_hat * d * log_n);
        prop_assert!(
            c_cong <= C_CONG,
            "{family}: congestion {} exceeds {C_CONG}·δ̂D·log n \
             (δ̂={delta_hat}, D={d}, log₂n+1={log_n:.2}): observed constant c={c_cong:.3}",
            q.max_congestion
        );

        let c_dil = f64::from(q.max_dilation_upper) / (delta_hat * d);
        prop_assert!(
            c_dil <= C_DIL,
            "{family}: dilation {} exceeds {C_DIL}·δ̂D (δ̂={delta_hat}, D={d}): \
             observed constant c={c_dil:.3}",
            q.max_dilation_upper
        );

        // Block count is the dilation driver: Definition 2.3's threshold.
        let c_blocks = f64::from(q.max_blocks) / delta_hat;
        prop_assert!(
            c_blocks <= 9.0,
            "{family}: {} blocks exceeds 9·δ̂ (δ̂={delta_hat}): observed constant c={c_blocks:.3}",
            q.max_blocks
        );
    }

    /// The Theorem 1.1 envelope holds when the partition itself comes from
    /// the nested-dissection engine (`PartitionSource::Separator`): the
    /// construction must absorb dissection-shaped parts — balanced blobs
    /// bounded by computed separators — as well as the synthetic ones.
    #[test]
    fn shortcut_bounds_with_separator_partitions(
        (g, _, family) in arb_minor_free(),
        level in 1u32..6,
    ) {
        use low_congestion_shortcuts::facade::PartitionSource;

        let source = PartitionSource::Separator { level, min_region: 4 };
        let partition = Partition::from_parts(&g, source.resolve(&g)).unwrap();
        let (c_cong, c_dil, c_blocks) = observed_constants(&g, &partition);
        prop_assert!(
            c_cong <= C_CONG,
            "{family} (separator level {level}): observed congestion constant \
             c={c_cong:.3} > {C_CONG}"
        );
        prop_assert!(
            c_dil <= C_DIL,
            "{family} (separator level {level}): observed dilation constant \
             c={c_dil:.3} > {C_DIL}"
        );
        prop_assert!(
            c_blocks <= 9.0,
            "{family} (separator level {level}): observed block constant \
             c={c_blocks:.3} > 9"
        );
    }

    /// The same bounds hold for the distributed Theorem 1.5 construction in
    /// exact mode (it reproduces the centralized cut set, so this pins the
    /// full simulated pipeline to the paper's envelope).
    #[test]
    fn distributed_bounds_on_minor_free_families(
        (g, parts, family) in arb_minor_free(),
    ) {
        use low_congestion_shortcuts::congest::SimConfig;
        use low_congestion_shortcuts::core::construct;
        use low_congestion_shortcuts::core::dist::{distributed_bfs, DistConfig};

        let partition = Partition::from_parts(&g, parts).unwrap();
        let dist = DistConfig {
            sim: SimConfig {
                threads: env_threads(),
                message_packing: env_packing(),
                ..SimConfig::default()
            },
            ..DistConfig::default()
        };
        let (tree, _) = distributed_bfs(&g, NodeId(0), dist.sim).expect("default round cap");
        let all: Vec<PartId> = partition.part_ids().collect();
        let config = ShortcutConfig::default();
        let res = construct(&g, &tree, &partition, &all, config.initial_delta_hat, &config, Some(&dist))
            .expect("default round cap");
        let d = f64::from(tree.depth_of_tree().max(1));
        let q = measure_quality(&g, &partition, &tree, &res.shortcut);
        prop_assert!(q.tree_restricted && q.all_connected());

        let delta_hat = f64::from(res.delta_hat.max(1));
        let log_n = (g.num_nodes() as f64).log2() + 1.0;
        let c_cong = f64::from(q.max_congestion) / (delta_hat * d * log_n);
        let c_dil = f64::from(q.max_dilation_upper) / (delta_hat * d);
        prop_assert!(
            c_cong <= C_CONG,
            "{family} (distributed): observed congestion constant c={c_cong:.3} > {C_CONG}"
        );
        prop_assert!(
            c_dil <= C_DIL,
            "{family} (distributed): observed dilation constant c={c_dil:.3} > {C_DIL}"
        );
    }
}
