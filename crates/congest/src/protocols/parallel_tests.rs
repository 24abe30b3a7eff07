//! Thread-count invariance of the standard protocols: the sharded executor
//! must produce the same trees and metrics as the inline loop.

use super::{extract_tree, BfsTreeProgram};
use crate::{SimConfig, Simulator};
use lcs_graph::{gen, NodeId};

#[test]
fn bfs_tree_is_thread_count_invariant() {
    let g = gen::grid(9, 7);
    let run_with = |threads| {
        let sim = Simulator::new(
            &g,
            SimConfig {
                threads,
                ..SimConfig::default()
            },
        );
        let run = sim.run(|v, _| BfsTreeProgram::new(v == NodeId(0)));
        assert!(run.metrics.terminated);
        let tree = extract_tree(&g, &run);
        (run.metrics, tree)
    };
    let (metrics1, tree1) = run_with(1);
    for threads in [2, 4] {
        let (metrics, tree) = run_with(threads);
        assert_eq!(metrics.counts(), metrics1.counts(), "threads={threads}");
        for v in g.nodes() {
            assert_eq!(tree.parent(v), tree1.parent(v), "threads={threads}");
        }
    }
}
