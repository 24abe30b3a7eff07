//! Fast tier-1 guard: the core pipeline (generator → partition → full
//! shortcut → quality measurement) on a small grid, independent of the
//! heavier paper-claims suites. If this test fails, everything downstream
//! is broken.

use low_congestion_shortcuts::prelude::*;

#[test]
fn grid_pipeline_produces_finite_quality() {
    let g = gen::grid(8, 8);
    assert_eq!(g.num_nodes(), 64);
    let parts = gen::rows_of_grid(8, 8);
    let partition = Partition::from_parts(&g, parts).expect("grid rows are valid parts");
    let tree = bfs::bfs_tree(&g, NodeId(0));
    assert_eq!(tree.depth_of_tree(), 14); // corner-rooted 8x8 grid

    let config = ShortcutConfig::default();
    let built = full_shortcut(&g, &tree, &partition, &config);
    let q = measure_quality(&g, &partition, &tree, &built.shortcut);

    // Finite, structurally sane quality numbers.
    assert!(q.all_connected());
    assert!(q.tree_restricted);
    assert!(q.max_congestion >= 1, "rows must share some tree edge");
    assert!(q.max_congestion < u32::MAX);
    assert!(q.max_dilation_upper < u32::MAX, "dilation must be finite");
    assert!(q.max_blocks >= 1);
    assert!(q.quality() < u32::MAX);

    // And within the Theorem 1.2 bounds for the achieved δ̂.
    let bound = config.envelope(
        built.delta_hat,
        tree.depth_of_tree(),
        built.successful_rounds,
    );
    assert!(q.max_blocks <= bound.blocks);
    assert!(q.max_dilation_upper <= bound.dilation);
}
