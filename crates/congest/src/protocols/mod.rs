//! Standard CONGEST building blocks: the BFS tree flood and the
//! aggregation operators.
//!
//! [`BfsTreeProgram`] is a [`NodeProgram`](crate::NodeProgram) whose final
//! node states become the one tree type,
//! [`RootedTree`](lcs_graph::RootedTree), through [`extract_tree`]. It runs
//! unchanged on the sharded parallel executor
//! ([`SimConfig::threads`](crate::SimConfig::threads)): node callbacks only
//! touch their own state and `Ctx`, so shard workers can execute them
//! concurrently while the engine guarantees lane-count-invariant metrics.
//!
//! [`AggOp`] names what an aggregation computes; the part-wise program of
//! `lcs_partwise` runs every aggregation, a convergecast along one tree
//! included.

#[cfg(test)]
mod parallel_tests;

mod bfs_tree;

pub use bfs_tree::{extract_tree, BfsMsg, BfsTreeProgram};

/// The operator of an aggregation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Sum of all values (counts, subtree sizes).
    Sum,
    /// Minimum.
    Min,
    /// Maximum (e.g. tree depth).
    Max,
}

impl AggOp {
    /// Applies the operator.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AggOp::Sum => a.wrapping_add(b),
            AggOp::Min => a.min(b),
            AggOp::Max => a.max(b),
        }
    }
}
