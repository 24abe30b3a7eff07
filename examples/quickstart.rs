//! Quickstart: prepare a `ShortcutSession` on a planar grid, check the
//! construction against the paper's bounds, then serve aggregation queries
//! from the cached shortcut.
//!
//! Run with: `cargo run --release --example quickstart`

use low_congestion_shortcuts::prelude::*;

fn main() {
    // A 32x32 planar grid (minor density δ < 3, diameter 62) whose rows are
    // the parts of a part-wise aggregation instance.
    let side = 32;
    let g = gen::grid(side, side);
    let mut session = Session::on(&g)
        .tree(TreeSource::Bfs(NodeId(0)))
        .partition(gen::rows_of_grid(side, side))
        .backend(Backend::Centralized)
        .build()
        .expect("grid rows are disjoint connected paths");

    let d = session.tree().depth_of_tree();
    println!(
        "graph: n = {}, m = {}, tree depth D = {d}",
        g.num_nodes(),
        g.num_edges()
    );

    // Theorem 1.2 machinery runs once, on first access, and is cached.
    let delta_hat = session.delta_hat();
    let q = session.quality().clone();
    println!(
        "construction: δ̂ = {delta_hat} (full builds: {})",
        session.cache_stats().full.builds
    );
    println!(
        "measured:  congestion = {:>4}   dilation <= {:>4}   blocks = {}",
        q.max_congestion, q.max_dilation_upper, q.max_blocks
    );
    // Theorem 1.2's envelope, per successful sweep ("round") of the search.
    let bound = ShortcutConfig::default().envelope(delta_hat, d, 1);
    println!(
        "bounds:    congestion <= {:>3}·rounds   dilation <= {:>4}   blocks <= {}",
        bound.congestion, bound.dilation, bound.blocks
    );
    assert!(q.tree_restricted && q.all_connected());
    assert!(q.max_blocks <= bound.blocks);

    // The quality governs part-wise aggregation: Q = c + d.
    println!("shortcut quality Q = c + d = {}", q.quality());

    // Serve queries: every call reuses the cached shortcut.
    let values: Vec<u64> = (0..g.num_nodes() as u64).collect();
    for op in [AggOp::Min, AggOp::Max, AggOp::Sum] {
        let report = session.aggregate(&values, op);
        println!(
            "serve {op:?}: rounds = {:>4}, messages = {:>6}, bits = {:>7}, part 0 -> {:?}",
            report.rounds, report.messages, report.bits, report.result.results[0]
        );
        assert!(report.result.all_members_informed);
    }
    assert_eq!(
        session.cache_stats().full.builds,
        1,
        "three queries, one construction — the serving scenario"
    );
}
