//! Standard CONGEST building blocks: BFS trees and convergecast.
//!
//! These are the primitives every shortcut-based algorithm composes
//! (Section 2 of the paper assumes them implicitly). Each protocol is a
//! [`NodeProgram`](crate::NodeProgram) over the one tree type,
//! [`RootedTree`](lcs_graph::RootedTree): the BFS flood's final node states
//! become one through [`extract_tree`], and a convergecast reads each
//! node's parent port and child count from one.
//!
//! All protocols run unchanged on the sharded parallel executor
//! ([`SimConfig::threads`](crate::SimConfig::threads)): node callbacks only
//! touch their own state and `Ctx`, so shard workers can execute them
//! concurrently while the engine guarantees thread-count-invariant metrics.

#[cfg(test)]
mod parallel_tests;

mod bfs_tree;
mod convergecast;

pub use bfs_tree::{extract_tree, BfsMsg, BfsTreeProgram};
pub use convergecast::{AggOp, ConvergecastProgram};
