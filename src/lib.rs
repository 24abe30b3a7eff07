//! Low-congestion shortcuts for graphs excluding dense minors.
//!
//! This is the umbrella crate of the workspace reproducing
//! *Ghaffari & Haeupler, "Low-Congestion Shortcuts for Graphs Excluding
//! Dense Minors" (PODC 2021)*. It re-exports the member crates:
//!
//! * [`graph`] — graph substrate, generators, minors ([`lcs_graph`]),
//! * [`congest`] — CONGEST-model simulator ([`lcs_congest`]),
//! * [`core`] — the shortcut construction and certificates ([`lcs_core`]),
//! * [`partwise`] — part-wise aggregation ([`lcs_partwise`]),
//! * [`algos`] — shortcut-based distributed algorithms ([`lcs_algos`]),
//! * [`separator`] — nested-dissection separator trees and partition
//!   hierarchies ([`lcs_separator`]),
//!
//! and assembles the [`facade`]: the [`ShortcutSession`] API that builds
//! the shortcut once and serves it to every operation.
//!
//! # Quickstart
//!
//! ```
//! use low_congestion_shortcuts::prelude::*;
//!
//! // A 16x16 planar grid with its rows as parts, prepared once.
//! let g = gen::grid(16, 16);
//! let mut session = Session::on(&g)
//!     .tree(TreeSource::Bfs(NodeId(0)))
//!     .partition(gen::rows_of_grid(16, 16))
//!     .backend(Backend::Centralized)
//!     .build()
//!     .unwrap();
//!
//! // Serve operations from the cached artifacts: the shortcut is
//! // constructed on the first call and reused afterwards.
//! let values: Vec<u64> = (0..256).collect();
//! let max = session.aggregate(&values, AggOp::Max);
//! assert_eq!(max.result.results[0], Some(15));
//! let sum = session.aggregate(&values, AggOp::Sum);
//! assert!(sum.result.all_members_informed);
//! assert_eq!(session.cache_stats().full.builds, 1);
//!
//! // The quality report rides along in every OpReport.
//! let q = max.quality.expect("partition ops carry quality");
//! assert!(q.max_congestion >= 1);
//! ```
//!
//! [`ShortcutSession`]: facade::ShortcutSession

pub use lcs_algos as algos;
pub use lcs_congest as congest;
pub use lcs_core as core;
pub use lcs_graph as graph;
pub use lcs_partwise as partwise;
pub use lcs_separator as separator;

/// The unified serving API: [`Session`](facade::Session) builder,
/// [`ShortcutSession`](facade::ShortcutSession) with cached artifacts over
/// pluggable backends, and the operation extension traits.
///
/// One import gives the whole surface:
///
/// ```
/// use low_congestion_shortcuts::facade::*;
/// # use low_congestion_shortcuts::prelude::{gen, NodeId};
/// # use low_congestion_shortcuts::congest::protocols::AggOp;
/// let g = gen::grid(4, 4);
/// let mut session = Session::on(&g)
///     .partition(gen::rows_of_grid(4, 4))
///     .build()
///     .unwrap();
/// let values = vec![7u64; 16];
/// assert_eq!(session.aggregate(&values, AggOp::Sum).result.results[0], Some(28));
/// ```
///
/// The explicit-artifact calls and the session method that serves the
/// same result from cached artifacts:
///
/// | Explicit-artifact call | Session method |
/// |---|---|
/// | `AggregateOp { values, op, leaders: None }.run_on(g, parts, shortcut, 0, config.sim)` | `session.aggregate(values, op)` |
/// | `AggregateOp { leaders: Some(leaders), .. }.run_on(..)` | `session.try_aggregate_with_leaders(values, op, leaders)` |
/// | `AggregateOp { values, op: op.into(), leaders: None }.run_on(..)` | `session.gossip(values, op)` |
/// | `UnicastOp { demands }.run_on(g, tree, config.sim)` | `session.unicast(demands)` |
/// | `distributed_mst(g, weights, &tree, fresh, config.sim)` | `session.mst(weights)` |
/// | `distributed_components(g, &tree, fresh, config.sim)` | `session.try_components()` |
/// | `approx_mincut_distributed(g, &tree, fresh, config.sim)` | `session.mincut()` |
/// | `full_shortcut(g, tree, parts, &ShortcutConfig::default())` | `session.try_full_artifact()` |
/// | `distributed_bfs(g, root, dist.sim)`, then `construct(g, &tree, parts, &all_parts, δ̂₀, &ShortcutConfig::default(), Some(&dist))` | `Backend::Distributed` / `Backend::Sketch` + `session.try_full_artifact()`; both costs in `session.construction_stats()` |
/// | `bfs::bfs_tree(g, root)` | `session.tree()` on `Backend::Centralized` |
/// | `measure_quality(g, parts, tree, shortcut)` | `session.quality()` |
///
/// `config` is the session's [`SessionConfig`](lcs_core::session::SessionConfig):
/// a session passes its `sim` and nothing else of it. Ops have no knobs; a
/// session constructs with the paper's constants
/// ([`ShortcutConfig::default`](lcs_core::ShortcutConfig::default)) and
/// aggregates undelayed (`0`), and the explicit calls are where a caller
/// sweeps either (E11b the congestion factor, E5c the start delays). A session runs its aggregates
/// and its gossip (the `AggregateOp` of the same min / max) over its cached
/// aggregation forest, so the gossip is warm after any aggregate. There is
/// one part-wise protocol and no leaderless one: every part runs from the
/// caller's leader, its cached root, or its minimum member, picked on the
/// host at zero charge. `fresh(partition, parts)` returns each Boruvka
/// phase's shortcut: a session passes
/// `construct(g, &tree, partition, parts, 1, &ShortcutConfig::default(), backend.dist_config().as_ref())`,
/// and `tree` is the session's own (`session.tree()`). One Theorem 3.1 sweep at a fixed `δ̂` is no
/// session artifact:
/// `partial_shortcut_or_witness(session.graph(), &tree, session.partition(), &active, δ̂, &ShortcutConfig::default(), dist)`
/// over a clone of `session.tree()` is the call — `dist = None` for the
/// threshold rule, `Some(&dist)` for the simulated detection; it returns
/// the [`Sweep`](lcs_core::Sweep) and the detection run's metrics.
///
/// Simulator knobs ride [`SessionConfig::sim`](lcs_core::session::SessionConfig::sim),
/// so every backend and op picks them up from the one config surface:
/// `threads` selects the lane count (by default every core, at most one
/// lane per [`GRAIN`](lcs_congest::GRAIN) nodes),
/// [`message_packing`](lcs_congest::SimConfig::message_packing) enables
/// multi-value CONGEST messages (`k > 1` coalesces burst sends into packed
/// batches within the `O(log n)`-bit budget — the n = 10⁵ sketch
/// construction drops ~2.6× in simulated rounds at `k = 8` with
/// bit-identical results).
///
/// # Mutating a live session
///
/// Sessions are not frozen after the first construction. Graph, tree,
/// backend and configuration are fixed at `build()`; the one input that
/// can change — the partition — carries an epoch counter; a cached
/// artifact that reads the partition (the shortcut, its quality report,
/// an op artifact cached through
/// [`op_artifact_patched`](lcs_core::session::ShortcutSession::op_artifact_patched))
/// records the epoch it was built under and is invalidated precisely when
/// that epoch bumps, while the tree and the
/// [`op_artifact_with`](lcs_core::session::ShortcutSession::op_artifact_with)
/// memos never go stale.
/// There are two mutators:
///
/// * [`set_partition`](lcs_core::session::ShortcutSession::set_partition)
///   replaces the partition wholesale — shortcut, quality and
///   partition-scoped op artifacts rebuild on next access; the tree
///   survives.
/// * [`reassign_parts`](lcs_core::session::ShortcutSession::reassign_parts)
///   moves nodes between existing parts and **re-customizes
///   incrementally**: a mini doubling search over only the touched parts
///   — on the session backend, charged like the construction it patches
///   — splices their `H_i` into the cached shortcut, quality rows are
///   re-measured for touched parts only, and ops refresh their cached
///   participation maps part-locally and repair the touched parts'
///   aggregation trees, so the next aggregate runs warm. Everything else
///   survives byte-for-byte — the CCH-style customization step.
///
/// Edge weights are not a session input: `session.mst(&weights)` takes
/// them as an argument and memoizes its report on them — equal weights
/// are a cache hit, other weights replace the report, partition churn
/// keeps it.
///
/// [`CacheStats`](lcs_core::session::CacheStats) (serde-able, via
/// [`cache_stats`](lcs_core::session::ShortcutSession::cache_stats))
/// counts builds/hits/invalidations per artifact class plus the
/// incremental-recustomization tallies.
pub mod facade {
    pub use lcs_algos::session_ops::SessionAlgoOps;
    pub use lcs_core::session::{
        ArtifactStats, Backend, CacheStats, ConstructionStats, FullArtifact, GraphHandle, OpReport,
        Session, SessionBuilder, SessionConfig, SessionError, ShortcutSession, TreeSource,
    };
    pub use lcs_core::PartitionSource;
    pub use lcs_partwise::{AggregateOp, SessionPartwiseOps, UnicastOp};
    pub use lcs_separator::{nested_dissection, SeparatorConfig, SeparatorTree};
}

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use crate::facade::{
        Backend, OpReport, PartitionSource, Session, SessionAlgoOps, SessionConfig,
        SessionPartwiseOps, ShortcutSession, TreeSource,
    };
    pub use lcs_congest::protocols::AggOp;
    pub use lcs_core::{
        full_shortcut, measure_quality, partial_shortcut_or_witness, Partition, Shortcut,
        ShortcutConfig,
    };
    pub use lcs_graph::{bfs, diameter, gen, minor, EdgeId, Graph, NodeId, PartId, RootedTree};
}
