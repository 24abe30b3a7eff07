//! [`SessionError`]: every misuse of a session as a typed value.

use crate::dist::Truncated;
use crate::PartitionError;
use lcs_graph::{EdgeId, NodeId, PartId};
use std::fmt;

pub(super) const NO_PARTITION: &str =
    "this session has no partition — pass .partition(..) to the builder";

/// Everything that can go wrong when building or driving a
/// [`ShortcutSession`](super::ShortcutSession) — the typed form of what
/// the panicking accessors report. [`build`](super::SessionBuilder::build),
/// the `try_*` methods (and the `try_*` operation entry points in
/// `lcs_partwise` / `lcs_algos`) return this,
/// so a long-lived serving process can turn every misuse into a
/// structured error response instead of a dead worker thread. The
/// panicking accessors are thin wrappers that `panic!` with this error's
/// [`Display`](fmt::Display) message, so panic texts and error texts never
/// drift apart.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The session was built without a partition (partition-based ops
    /// require `.partition(..)` on the builder).
    NoPartition,
    /// A partition failed validation, at `build()` or in a mutation (which
    /// leaves the session unchanged).
    Partition(PartitionError),
    /// A node id exceeds the graph's node count.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes in the session graph.
        num_nodes: usize,
    },
    /// A node lies outside the connected component the session tree spans
    /// (unicast packets travel tree paths).
    NodeOffTree {
        /// The offending node.
        node: NodeId,
    },
    /// A part id exceeds the partition's part count.
    PartOutOfRange {
        /// The offending part.
        part: PartId,
        /// Number of parts in the session partition.
        num_parts: usize,
    },
    /// A weight vector's length differs from the graph's edge count.
    WeightCountMismatch {
        /// Provided number of weights.
        got: usize,
        /// The graph's edge count.
        expected: usize,
    },
    /// A weight exceeds the 31-bit budget the MST protocol packs ids into.
    WeightTooLarge {
        /// The offending edge.
        edge: EdgeId,
        /// Its proposed weight.
        weight: u64,
    },
    /// A per-node value vector's length differs from the node count.
    ValueCountMismatch {
        /// Provided number of values.
        got: usize,
        /// The graph's node count.
        expected: usize,
    },
    /// A per-part leader vector's length differs from the part count.
    LeaderCountMismatch {
        /// Provided number of leaders.
        got: usize,
        /// The partition's part count.
        expected: usize,
    },
    /// A proposed aggregation leader does not belong to the part it is
    /// supposed to lead.
    LeaderNotInPart {
        /// The offending leader node.
        leader: NodeId,
        /// Index of the part it was proposed for.
        part: usize,
    },
    /// A unicast demand routes a packet to its own source.
    UnicastSelfLoop {
        /// Index of the offending `(source, target)` pair.
        packet: usize,
    },
    /// The operation needs a larger graph (e.g. min-cut on < 2 nodes).
    GraphTooSmall {
        /// Minimum node count the operation supports.
        need: usize,
        /// The graph's node count.
        have: usize,
    },
    /// The operation requires a connected graph.
    GraphDisconnected,
    /// A [`Backend::Sketch`](super::Backend::Sketch) of capacity `t < 2`
    /// estimates every full set as empty, so it would never cut an edge.
    SketchCapacityTooSmall,
    /// The builder was given one source by its own setter and a different
    /// one in `.config(..)`.
    ConflictingSources {
        /// The [`SessionConfig`](super::SessionConfig) field both name.
        field: &'static str,
    },
    /// A simulated construction phase (`"bfs"` or `"detection"`) hit the
    /// backend's
    /// [`SimConfig::max_rounds`](lcs_congest::SimConfig::max_rounds)
    /// before quiescence; nothing was cached.
    Truncated(Truncated),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoPartition => f.write_str(NO_PARTITION),
            Self::Partition(e) => write!(f, "{e}"),
            Self::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node {node:?} out of range — the graph has {num_nodes} nodes"
                )
            }
            Self::NodeOffTree { node } => write!(
                f,
                "node {node:?} lies outside the spanning tree's component — unicast endpoints \
                 must be reachable from the tree root"
            ),
            Self::PartOutOfRange { part, num_parts } => {
                write!(
                    f,
                    "part {part:?} out of range — the partition has {num_parts} parts"
                )
            }
            Self::WeightCountMismatch { got, expected } => write!(
                f,
                "one weight per edge required — got {got}, the graph has {expected} edges"
            ),
            Self::WeightTooLarge { edge, weight } => write!(
                f,
                "weight {weight} on edge {edge:?} exceeds 2^31 - 1 — weights must fit in 31 bits"
            ),
            Self::ValueCountMismatch { got, expected } => write!(
                f,
                "one value per node required — got {got}, the graph has {expected} nodes"
            ),
            Self::LeaderCountMismatch { got, expected } => write!(
                f,
                "one leader per part required — got {got}, the partition has {expected} parts"
            ),
            Self::LeaderNotInPart { leader, part } => {
                write!(f, "leader {leader:?} is not a member of part {part}")
            }
            Self::UnicastSelfLoop { packet } => {
                write!(f, "source equals target for packet {packet}")
            }
            Self::GraphTooSmall { need, have } => write!(
                f,
                "operation needs at least {need} nodes — the graph has {have}"
            ),
            Self::GraphDisconnected => f.write_str("graph must be connected"),
            Self::SketchCapacityTooSmall => f.write_str("sketch detection needs capacity t >= 2"),
            Self::ConflictingSources { field } => write!(
                f,
                "`.{field}(..)` and `.config(..)` name two different sources — set one, or make \
                 them equal"
            ),
            Self::Truncated(t) => write!(f, "{t}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<Truncated> for SessionError {
    fn from(t: Truncated) -> Self {
        SessionError::Truncated(t)
    }
}

impl From<PartitionError> for SessionError {
    fn from(e: PartitionError) -> Self {
        SessionError::Partition(e)
    }
}
