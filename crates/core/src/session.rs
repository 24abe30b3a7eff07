//! The `ShortcutSession` facade: build once, serve many operations,
//! mutate cheaply.
//!
//! The whole point of the shortcut framework (and of this paper) is that
//! one object — the shortcut — is *prepared once* for a topology and then
//! *served* to many part-wise operations: aggregation, gossip, unicast
//! routing, MST, connectivity, min-cut. This module is the API that says
//! so. A [`ShortcutSession`] is built via the [`Session`] builder:
//!
//! ```
//! use lcs_core::session::{Backend, Session, TreeSource};
//! use lcs_graph::{gen, NodeId};
//!
//! let g = gen::grid(8, 8);
//! let mut session = Session::on(&g)
//!     .tree(TreeSource::Bfs(NodeId(0)))
//!     .partition(gen::rows_of_grid(8, 8))
//!     .backend(Backend::Centralized)
//!     .build()?;
//! // Artifacts are computed lazily and cached: the first access constructs,
//! // every later access reuses.
//! let delta_hat = session.delta_hat();
//! assert_eq!(session.cache_stats().full.builds, 1);
//! let _ = session.shortcut(); // cached — no second construction
//! assert_eq!(session.cache_stats().full.builds, 1);
//! # Ok::<(), lcs_core::PartitionError>(())
//! ```
//!
//! # The artifact graph
//!
//! The session caches the BFS tree, diameter bounds, the full shortcut
//! (with quality report and dense-minor certificate), per-`δ̂` partial
//! shortcuts, and typed per-op artifacts. Each cached artifact declares
//! which of the five session [`Input`]s it depends on (the constants in
//! [`deps`]), and each input carries an epoch counter ([`Epochs`]): a
//! cached value is served only while its recorded epochs agree with the
//! current ones on every declared dependency, and is invalidated —
//! precisely, lazily — when one of them bumps.
//!
//! # Mutating a live session
//!
//! Sessions are not frozen after the first construction; the mutation API
//! bumps input epochs instead of requiring a rebuild-from-scratch:
//!
//! * [`set_partition`](ShortcutSession::set_partition) /
//!   [`set_partition_object`](ShortcutSession::set_partition_object)
//!   replace the partition wholesale — every partition-scoped artifact is
//!   invalidated and rebuilt on next access;
//! * [`reassign_parts`](ShortcutSession::reassign_parts) moves individual
//!   nodes between existing parts and *re-customizes incrementally*: only
//!   the touched parts' shortcut edges and quality rows are recomputed
//!   (a mini doubling search over just those parts), everything
//!   topology/tree-scoped survives byte-for-byte;
//! * [`set_weights`](ShortcutSession::set_weights) /
//!   [`update_weights`](ShortcutSession::update_weights) mutate the
//!   `Weights` input read by weighted algorithms (MST) — the shortcut and
//!   partition artifacts are weight-independent and survive.
//!
//! The preparation/customization split mirrors customizable contraction
//! hierarchies: the metric- and partition-independent work (tree, diameter)
//! is never repeated, and partition churn pays only for what it touched.
//! [`CacheStats`] reports builds/hits/invalidations per artifact class so a
//! serving process can watch the cache behave.
//!
//! Operations plug in through the [`PartwiseOp`] trait (implemented by
//! `lcs_partwise` and `lcs_algos`; the umbrella crate's `facade` module
//! re-exports the method-call surface `session.aggregate(..)`,
//! `session.mst(..)`, …). Every operation returns a uniform [`OpReport`].
//! All knobs live in one serde-able [`SessionConfig`] with per-op
//! overrides.

use crate::dist::{distributed_full_shortcut, distributed_partial_shortcut, DistConfig, DistMode};
use crate::full::run_doubling_search;
use crate::quality::measure_parts;
use crate::source::{GraphSource, PartitionSource};
use crate::sweep::sweep_active;
use crate::{
    full_shortcut, measure_quality, partial_shortcut_or_witness, Partition, PartitionError,
    QualityReport, Shortcut, ShortcutConfig, SweepData, SweepOutcome,
};
use lcs_congest::{RunMetrics, SimConfig};
use lcs_graph::diameter::{diameter_bounds, DiameterBounds};
use lcs_graph::minor::MinorWitness;
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{bfs, EdgeId, Graph, NodeId, PartId, RootedTree};
use serde::{Deserialize, Serialize};
use std::any::{Any, TypeId};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

const NO_PARTITION: &str = "this session has no partition — pass .partition(..) to the builder";
const NO_WEIGHTS: &str =
    "this session has no weights — pass .weights(..) to the builder or call set_weights(..)";

/// Everything that can go wrong when driving a [`ShortcutSession`] — the
/// typed form of what the panicking accessors report. The `try_*` methods
/// (and the `try_*` operation entry points in `lcs_partwise` /
/// `lcs_algos`) return this, so a long-lived serving process can turn
/// every misuse into a structured error response instead of a dead worker
/// thread. The panicking accessors are thin wrappers that `panic!` with
/// this error's [`Display`](fmt::Display) message, so panic texts and
/// error texts never drift apart.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The session was built without a partition (partition-based ops
    /// require `.partition(..)` on the builder).
    NoPartition,
    /// The session has no weights — pass `.weights(..)` to the builder or
    /// call [`set_weights`](ShortcutSession::set_weights).
    NoWeights,
    /// A shared-reference accessor ([`ShortcutSession::shortcut_ref`] /
    /// [`ShortcutSession::tree_ref`]) was called before the artifact was
    /// built — call [`prepare`](ShortcutSession::prepare) first.
    NotPrepared {
        /// The artifact that was requested ("shortcut" or "tree").
        artifact: &'static str,
    },
    /// A shared-reference accessor found its cached artifact stale: an
    /// input was mutated since it was built — call
    /// [`prepare`](ShortcutSession::prepare) again.
    Stale {
        /// The artifact that was requested ("shortcut" or "tree").
        artifact: &'static str,
    },
    /// A partial shortcut was requested for `δ̂ = 0`.
    ZeroDeltaHat,
    /// A partition mutation failed validation; the session is unchanged.
    Partition(PartitionError),
    /// A node id exceeds the graph's node count.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes in the session graph.
        num_nodes: usize,
    },
    /// A part id exceeds the partition's part count.
    PartOutOfRange {
        /// The offending part.
        part: PartId,
        /// Number of parts in the session partition.
        num_parts: usize,
    },
    /// An edge id exceeds the graph's edge count.
    EdgeOutOfRange {
        /// The offending edge.
        edge: EdgeId,
        /// Number of edges in the session graph.
        num_edges: usize,
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
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoPartition => f.write_str(NO_PARTITION),
            Self::NoWeights => f.write_str(NO_WEIGHTS),
            Self::NotPrepared { artifact } => {
                write!(f, "{artifact} not prepared — call prepare() first")
            }
            Self::Stale { artifact } => write!(
                f,
                "{artifact} stale — an input changed since prepare(); call prepare() again"
            ),
            Self::ZeroDeltaHat => f.write_str("δ̂ must be at least 1"),
            Self::Partition(e) => write!(f, "{e}"),
            Self::NodeOutOfRange { node, num_nodes } => {
                write!(
                    f,
                    "node {node:?} out of range — the graph has {num_nodes} nodes"
                )
            }
            Self::PartOutOfRange { part, num_parts } => {
                write!(
                    f,
                    "part {part:?} out of range — the partition has {num_parts} parts"
                )
            }
            Self::EdgeOutOfRange { edge, num_edges } => {
                write!(
                    f,
                    "edge {edge:?} out of range — the graph has {num_edges} edges"
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
        }
    }
}

impl std::error::Error for SessionError {}

impl From<PartitionError> for SessionError {
    fn from(e: PartitionError) -> Self {
        SessionError::Partition(e)
    }
}

/// Where the session's spanning tree comes from.
#[derive(Clone, Debug)]
pub enum TreeSource {
    /// Run BFS from this root (the canonical min-id-parent rule, identical
    /// to what the distributed BFS protocol builds).
    Bfs(NodeId),
    /// Use a caller-provided rooted tree (e.g. deserialized from a prior
    /// run, or a non-BFS tree for experiments). Note: the distributed
    /// backends run the Theorem 1.5 protocol, which builds its own BFS
    /// tree — they accept a provided tree only if it equals that canonical
    /// tree (asserted at construction time); arbitrary trees require
    /// [`Backend::Centralized`].
    Provided(RootedTree),
}

/// The execution backend shortcut construction runs on.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Backend {
    /// Centralized Theorem 1.2 construction (no simulated rounds charged).
    Centralized,
    /// Distributed Theorem 1.5 construction with exact set streaming on the
    /// CONGEST simulator, using this simulator configuration. Reproduces
    /// the centralized cut set edge-for-edge.
    Distributed(SimConfig),
    /// Distributed Theorem 1.5 construction with the given detection
    /// configuration — typically [`DistMode::Sketch`], which caps per-edge
    /// traffic at `t + 1` messages and makes `n = 10⁵` affordable.
    Sketch(DistConfig),
}

/// The five mutable inputs of the session's artifact graph. Every cached
/// artifact declares the subset it depends on (see [`deps`]); mutating an
/// input bumps its epoch in [`Epochs`] and thereby invalidates exactly the
/// artifacts that declared it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Input {
    /// The graph topology (immutable today — the epoch is reserved).
    Topology,
    /// The spanning tree source (immutable today — the epoch is reserved).
    Tree,
    /// The partition, mutated by
    /// [`set_partition`](ShortcutSession::set_partition) and
    /// [`reassign_parts`](ShortcutSession::reassign_parts).
    Partition,
    /// The edge weights, mutated by
    /// [`set_weights`](ShortcutSession::set_weights) and
    /// [`update_weights`](ShortcutSession::update_weights).
    Weights,
    /// The construction/simulator configuration, conservatively bumped by
    /// [`config_mut`](ShortcutSession::config_mut).
    Sim,
}

/// Per-input epoch counters. A cached artifact records the epochs at build
/// time; it is fresh while that stamp [`agrees_on`](Epochs::agrees_on) the
/// artifact's declared dependencies with the session's current epochs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Epochs {
    /// Epoch of the graph topology.
    pub topology: u64,
    /// Epoch of the spanning tree.
    pub tree: u64,
    /// Epoch of the partition input.
    pub partition: u64,
    /// Epoch of the edge-weights input.
    pub weights: u64,
    /// Epoch of the construction/simulator configuration.
    pub sim: u64,
}

impl Epochs {
    /// The counter of one input.
    pub fn of(&self, input: Input) -> u64 {
        match input {
            Input::Topology => self.topology,
            Input::Tree => self.tree,
            Input::Partition => self.partition,
            Input::Weights => self.weights,
            Input::Sim => self.sim,
        }
    }

    fn bump(&mut self, input: Input) {
        let slot = match input {
            Input::Topology => &mut self.topology,
            Input::Tree => &mut self.tree,
            Input::Partition => &mut self.partition,
            Input::Weights => &mut self.weights,
            Input::Sim => &mut self.sim,
        };
        *slot += 1;
    }

    /// Whether `self` and `other` agree on every input in `deps`.
    pub fn agrees_on(&self, other: &Epochs, deps: &[Input]) -> bool {
        deps.iter().all(|&d| self.of(d) == other.of(d))
    }
}

/// Declared dependency sets of the session's artifact classes. Custom op
/// artifacts pick one of these (or any `&'static [Input]`) when calling
/// [`op_artifact_with`](ShortcutSession::op_artifact_with).
pub mod deps {
    use super::Input;

    /// The spanning tree: topology and tree source only.
    pub const TREE: &[Input] = &[Input::Topology, Input::Tree];
    /// Diameter bounds: same scope as the tree.
    pub const DIAMETER: &[Input] = &[Input::Topology, Input::Tree];
    /// Shortcut-scoped artifacts — the full shortcut, its quality report,
    /// per-`δ̂` partials, and the default for op artifacts (e.g. the
    /// partwise participation map).
    pub const SHORTCUT: &[Input] = &[Input::Topology, Input::Tree, Input::Partition, Input::Sim];
    /// Weighted whole-graph algorithms (MST): weights but no partition.
    pub const WEIGHTED: &[Input] = &[Input::Topology, Input::Weights, Input::Sim];
    /// Unweighted whole-graph algorithms (connectivity, min-cut).
    pub const TOPOLOGY_ONLY: &[Input] = &[Input::Topology, Input::Sim];
}

/// Build/hit/invalidation counters of one artifact class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtifactStats {
    /// Times the artifact was (re)built from scratch.
    pub builds: u64,
    /// Times a cached value was served.
    pub hits: u64,
    /// Times a cached value was discarded because a dependency epoch
    /// bumped.
    pub invalidations: u64,
}

/// Per-artifact-class cache observability: how often each artifact was
/// built, served from cache, and invalidated — the serving-process view of
/// the [module docs](self)' artifact graph. Serde-able, so a daemon can
/// export it as-is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// The spanning tree.
    pub tree: ArtifactStats,
    /// Diameter bounds.
    pub diameter: ArtifactStats,
    /// The full shortcut artifact.
    pub full: ArtifactStats,
    /// The quality report.
    pub quality: ArtifactStats,
    /// Per-`δ̂` partial artifacts (summed over `δ̂`).
    pub partials: ArtifactStats,
    /// Typed op artifacts (summed over artifact types).
    pub op_artifacts: ArtifactStats,
    /// Incremental re-customizations of the full shortcut performed by
    /// [`reassign_parts`](ShortcutSession::reassign_parts) churn. These do
    /// **not** count as `full.builds` — that is the point.
    pub recustomizations: u64,
    /// Total parts re-customized across all recustomizations.
    pub recustomized_parts: u64,
    /// Op artifacts refreshed incrementally via
    /// [`op_artifact_patched`](ShortcutSession::op_artifact_patched)
    /// instead of rebuilt.
    pub op_artifact_patches: u64,
}

/// A cached artifact plus the input epochs it was built under.
#[derive(Clone, Debug)]
struct Slot<T> {
    value: T,
    stamp: Epochs,
}

impl<T> Slot<T> {
    fn new(value: T, stamp: Epochs) -> Self {
        Slot { value, stamp }
    }

    fn fresh(&self, now: &Epochs, deps: &[Input]) -> bool {
        self.stamp.agrees_on(now, deps)
    }
}

/// A typed op artifact with its declared dependency set.
struct OpSlot {
    value: Arc<dyn Any + Send + Sync>,
    stamp: Epochs,
    deps: &'static [Input],
}

/// One entry of the partition-mutation log: the partition epoch *after*
/// the change, plus what changed.
enum PartitionDelta {
    /// Node moves touching exactly these parts.
    Reassigned(Vec<PartId>),
    /// A wholesale replacement — no incremental refresh possible across it.
    Wholesale,
}

/// Mutations older than this fall off the log; artifacts stamped before
/// the window rebuild from scratch instead of patching.
const PARTITION_LOG_CAP: usize = 64;

/// Per-op overrides for leader-based aggregation (absorbs the legacy
/// `PartwiseConfig` knobs).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AggregateOpts {
    /// Leaders delay their start uniformly in `[0, delay_range)` rounds;
    /// `0` disables the random-delays smoothing.
    pub delay_range: u32,
    /// Seed for the delays.
    pub seed: u64,
    /// Simulator override for this op; `None` uses [`SessionConfig::sim`].
    pub sim: Option<SimConfig>,
}

impl Default for AggregateOpts {
    fn default() -> Self {
        AggregateOpts {
            delay_range: 0,
            seed: 0xde1af,
            sim: None,
        }
    }
}

/// Per-op overrides for multi-unicast routing (absorbs the legacy
/// `UnicastConfig` knobs).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct UnicastOpts {
    /// Packets start after a uniform random delay in `[0, delay_range)`.
    pub delay_range: u32,
    /// Seed for delays and queue priorities.
    pub seed: u64,
    /// Simulator override for this op; `None` uses [`SessionConfig::sim`].
    pub sim: Option<SimConfig>,
}

impl Default for UnicastOpts {
    fn default() -> Self {
        UnicastOpts {
            delay_range: 0,
            seed: 0x0417,
            sim: None,
        }
    }
}

/// Per-op overrides for Boruvka MST / connectivity (absorbs the legacy
/// `BoruvkaConfig` knobs; the shortcut provider is derived from the
/// session's [`Backend`]).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MstOpts {
    /// Seed for the merge coin flips.
    pub seed: u64,
    /// Safety cap on phases; `None` = `4·log₂ n + 16`.
    pub max_phases: Option<usize>,
    /// Skip shortcutting fragments of at most `2D + 1` nodes (their own
    /// diameter already meets the dilation bound).
    pub skip_small_fragments: bool,
    /// Simulator override for this op; `None` uses [`SessionConfig::sim`].
    pub sim: Option<SimConfig>,
}

impl Default for MstOpts {
    fn default() -> Self {
        MstOpts {
            seed: 0xb0_aa_12,
            max_phases: None,
            skip_small_fragments: true,
            sim: None,
        }
    }
}

/// Per-op overrides for the min-cut approximation (absorbs the legacy
/// `MincutConfig` knobs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MincutOpts {
    /// Number of trees to pack; `None` = `min(min_degree, 2·⌈ln n⌉ + 4)`.
    pub trees: Option<usize>,
    /// Simulator override for this op; `None` uses [`SessionConfig::sim`].
    pub sim: Option<SimConfig>,
}

/// Every knob of the facade in one serde-able struct: shortcut-construction
/// parameters, the session-wide simulator configuration, and per-op
/// override blocks. This collapses the legacy `PartwiseConfig` /
/// `UnicastConfig` / `BoruvkaConfig` / `MincutConfig` constellation into a
/// single value a service can load from disk.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Theorem 3.1 construction constants and witness policy.
    pub shortcut: ShortcutConfig,
    /// Simulator settings every op inherits (ops force the queue mode they
    /// need; [`SimConfig::threads`] selects the sharded executor and
    /// [`SimConfig::message_packing`] the multi-value packing factor —
    /// `k > 1` coalesces burst sends into multi-value CONGEST messages,
    /// cutting rounds on streaming workloads like the sketch construction
    /// while leaving every result bit-identical).
    pub sim: SimConfig,
    /// Aggregation overrides.
    pub aggregate: AggregateOpts,
    /// Unicast overrides.
    pub unicast: UnicastOpts,
    /// MST / connectivity overrides.
    pub mst: MstOpts,
    /// Min-cut overrides.
    pub mincut: MincutOpts,
    /// Declarative partition source, resolved at
    /// [`build`](SessionBuilder::build) time when the builder was given
    /// no explicit partition (an explicit `.partition(..)` /
    /// `.partition_object(..)` always wins). Lets one serde-able config
    /// carry the whole session recipe — including *how* to partition —
    /// across processes. Sources must cover every node
    /// ([`Partition::from_parts_covering`]).
    pub partition_source: Option<PartitionSource>,
    /// Declarative graph source — *where the graph came from*. Sessions
    /// always run over the explicit [`Graph`] handed to
    /// [`Session::on`] (the graph is the session's borrowed substrate, so
    /// an explicit graph always wins, mirroring the
    /// [`partition_source`](Self::partition_source) precedence); this
    /// field makes the recipe serde-able end to end:
    /// [`GraphSource::resolve`](crate::GraphSource::resolve) +
    /// [`ResolvedGraph::session`](crate::ResolvedGraph::session) start a
    /// builder from the recorded source, and servers canonicalize it into
    /// their dedup keys.
    pub graph_source: Option<GraphSource>,
}

impl SessionConfig {
    /// The simulator configuration for aggregation/gossip ops.
    pub fn aggregate_sim(&self) -> SimConfig {
        self.aggregate.sim.unwrap_or(self.sim)
    }

    /// The simulator configuration for unicast routing.
    pub fn unicast_sim(&self) -> SimConfig {
        self.unicast.sim.unwrap_or(self.sim)
    }

    /// The simulator configuration for MST / connectivity.
    pub fn mst_sim(&self) -> SimConfig {
        self.mst.sim.unwrap_or(self.sim)
    }

    /// The simulator configuration for min-cut.
    pub fn mincut_sim(&self) -> SimConfig {
        self.mincut.sim.unwrap_or(self.sim)
    }
}

/// Simulated cost of constructing the session's cached artifacts (zero for
/// the centralized backend, which charges no simulated rounds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConstructionStats {
    /// Total simulated rounds.
    pub rounds: u64,
    /// Total simulated messages.
    pub messages: u64,
    /// Total simulated bits.
    pub bits: u64,
}

/// The cached full-shortcut artifact (Theorem 1.2 / 1.5 output).
#[derive(Clone, Debug)]
pub struct FullArtifact {
    /// The union shortcut serving every part.
    pub shortcut: Shortcut,
    /// Final `δ̂` of the doubling search (0 for a caller-provided shortcut,
    /// whose construction parameters are unknown).
    pub delta_hat: u32,
    /// Densest dense-minor certificate from failed sweeps, if any.
    pub witness: Option<MinorWitness>,
    /// Simulated construction cost (zero for centralized / provided).
    pub construction: ConstructionStats,
}

/// The cached per-`δ̂` partial-shortcut artifact (one Theorem 3.1 sweep).
#[derive(Clone, Debug)]
pub struct PartialArtifact {
    /// The assembled partial shortcut (empty edge lists for unserved
    /// parts).
    pub shortcut: Shortcut,
    /// Parts served by the sweep, sorted.
    pub served: Vec<PartId>,
    /// Whether at least half the parts were served (Case (I)).
    pub case_one: bool,
    /// The sweep bookkeeping (cut set with true crossing loads, thresholds,
    /// `B`-degrees).
    pub data: SweepData,
    /// Case (II) certificate, when the backend extracts one (centralized
    /// only).
    pub witness: Option<MinorWitness>,
    /// BFS-phase metrics (distributed backends only).
    pub metrics_bfs: Option<RunMetrics>,
    /// Detection-phase metrics (distributed backends only).
    pub metrics_detect: Option<RunMetrics>,
}

/// The uniform result wrapper every session operation returns: the op's
/// typed result plus the simulated cost and the execution configuration it
/// was measured under.
#[derive(Clone, Debug)]
pub struct OpReport<T> {
    /// The operation's own outcome (aggregates, routed packets, MST
    /// edges, …).
    pub result: T,
    /// Simulated rounds of the operation (construction rounds of cached
    /// artifacts are *not* re-charged — that is the point of the session).
    pub rounds: u64,
    /// Simulated messages.
    pub messages: u64,
    /// Simulated bits (id-aware accounting).
    pub bits: u64,
    /// Whether a simulator run of the operation was cut short by
    /// [`SimConfig::max_rounds`]: the result is then partial and must not
    /// be read as a finished answer.
    pub truncated: bool,
    /// Quality of the served shortcut, when the op ran over the session's
    /// partition (`None` for fragment-based ops like MST, whose partitions
    /// change per phase). Shared via [`Arc`] with the session's cache — the
    /// report is measured once per session and every `OpReport` holds the
    /// same allocation instead of a per-call deep clone of its O(k)
    /// per-part vectors.
    pub quality: Option<Arc<QualityReport>>,
    /// Worker threads the simulator ran with.
    pub threads: usize,
    /// Per-message bandwidth limit (bits) the run enforced.
    pub bandwidth_bits: usize,
}

impl<T> OpReport<T> {
    /// Wraps an op result measured by a single simulator run.
    pub fn from_metrics(
        result: T,
        metrics: &RunMetrics,
        quality: Option<Arc<QualityReport>>,
    ) -> Self {
        OpReport {
            result,
            rounds: metrics.rounds,
            messages: metrics.messages,
            bits: metrics.bits,
            truncated: metrics.truncated,
            quality,
            threads: metrics.threads,
            bandwidth_bits: metrics.bandwidth_bits,
        }
    }

    /// Maps the result, keeping the measurements.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> OpReport<U> {
        OpReport {
            result: f(self.result),
            rounds: self.rounds,
            messages: self.messages,
            bits: self.bits,
            truncated: self.truncated,
            quality: self.quality,
            threads: self.threads,
            bandwidth_bits: self.bandwidth_bits,
        }
    }
}

/// An operation the session can drive: part-wise aggregation, gossip,
/// unicast routing, MST, connectivity, min-cut. Implementations live next
/// to their protocols (`lcs_partwise`, `lcs_algos`); the session supplies
/// the cached artifacts and collects the uniform [`OpReport`].
pub trait PartwiseOp {
    /// The operation's typed result.
    type Output;

    /// Runs the operation over the session's cached artifacts.
    fn run(self, session: &mut ShortcutSession<'_>) -> OpReport<Self::Output>;
}

/// Entry point of the builder: `Session::on(&graph)`.
pub struct Session;

impl Session {
    /// Starts building a session over `g`.
    pub fn on(g: &Graph) -> SessionBuilder<'_> {
        SessionBuilder {
            g,
            tree: None,
            parts: None,
            partition: None,
            weights: None,
            backend: Backend::Centralized,
            config: SessionConfig::default(),
            provided_shortcut: None,
        }
    }
}

/// Builder for [`ShortcutSession`]. Construction is free: no tree, no
/// diameter, no shortcut is computed until an accessor or operation first
/// needs it.
pub struct SessionBuilder<'g> {
    g: &'g Graph,
    tree: Option<TreeSource>,
    parts: Option<Vec<Vec<NodeId>>>,
    partition: Option<Partition>,
    weights: Option<EdgeWeights>,
    backend: Backend,
    config: SessionConfig,
    provided_shortcut: Option<Shortcut>,
}

impl<'g> SessionBuilder<'g> {
    /// Sets the tree source (default: BFS from `NodeId(0)`).
    pub fn tree(mut self, source: TreeSource) -> Self {
        self.tree = Some(source);
        self
    }

    /// Sets the partition from raw node lists (validated at
    /// [`build`](Self::build)).
    pub fn partition(mut self, parts: Vec<Vec<NodeId>>) -> Self {
        self.parts = Some(parts);
        self.partition = None;
        self
    }

    /// Sets an already-validated partition.
    pub fn partition_object(mut self, partition: Partition) -> Self {
        self.partition = Some(partition);
        self.parts = None;
        self
    }

    /// Sets a declarative [`PartitionSource`], resolved against the graph
    /// at [`build`](Self::build) time (stored in
    /// [`SessionConfig::partition_source`], so the whole recipe stays in
    /// the one serde-able config). An explicit `.partition(..)` /
    /// `.partition_object(..)` takes precedence. The resolved parts must
    /// cover every node — [`build`](Self::build) returns
    /// [`PartitionError::Uncovered`] otherwise (e.g. a Voronoi source on
    /// a disconnected graph).
    pub fn partition_source(mut self, source: PartitionSource) -> Self {
        self.config.partition_source = Some(source);
        self
    }

    /// Records the declarative [`GraphSource`] the session's graph came
    /// from (stored in [`SessionConfig::graph_source`], so the whole
    /// recipe stays in the one serde-able config). The explicit graph
    /// handed to [`Session::on`] always wins — the source is provenance,
    /// resolved (if at all) *before* the builder exists via
    /// [`GraphSource::resolve`](crate::GraphSource::resolve) /
    /// [`ResolvedGraph::session`](crate::ResolvedGraph::session), which
    /// calls this setter for you.
    pub fn graph_source(mut self, source: GraphSource) -> Self {
        self.config.graph_source = Some(source);
        self
    }

    /// Sets the initial edge weights (the `Weights` input read by weighted
    /// ops like MST; mutable later via
    /// [`set_weights`](ShortcutSession::set_weights) /
    /// [`update_weights`](ShortcutSession::update_weights)).
    ///
    /// # Panics
    ///
    /// [`build`](Self::build) panics if the length differs from the
    /// graph's edge count.
    pub fn weights(mut self, weights: EdgeWeights) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Sets the construction backend (default: [`Backend::Centralized`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the session configuration (default: [`SessionConfig::default`]).
    pub fn config(mut self, config: SessionConfig) -> Self {
        self.config = config;
        self
    }

    /// Seeds the shortcut cache with an externally built shortcut (e.g.
    /// deserialized from a prior run, or a baseline for comparison). The
    /// session serves it as-is and charges zero constructions.
    pub fn shortcut(mut self, shortcut: Shortcut) -> Self {
        self.provided_shortcut = Some(shortcut);
        self
    }

    /// Finishes the builder. Validates the partition (if given as raw node
    /// lists); everything else stays lazy.
    pub fn build(self) -> Result<ShortcutSession<'g>, PartitionError> {
        let partition = match (self.partition, self.parts) {
            (Some(p), _) => Some(p),
            (None, Some(lists)) => Some(Partition::from_parts(self.g, lists)?),
            (None, None) => match &self.config.partition_source {
                Some(src) => Some(Partition::from_parts_covering(self.g, src.resolve(self.g))?),
                None => None,
            },
        };
        if let Some(w) = &self.weights {
            assert_eq!(w.len(), self.g.num_edges(), "one weight per edge required");
        }
        let source = self.tree.unwrap_or(TreeSource::Bfs(NodeId(0)));
        let (root, tree) = match source {
            TreeSource::Bfs(r) => (r, None),
            TreeSource::Provided(t) => (t.root(), Some(t)),
        };
        let tree_provided = tree.is_some();
        let stamp = Epochs::default();
        let full = self.provided_shortcut.map(|shortcut| {
            Slot::new(
                FullArtifact {
                    shortcut,
                    delta_hat: 0,
                    witness: None,
                    construction: ConstructionStats::default(),
                },
                stamp,
            )
        });
        Ok(ShortcutSession {
            g: self.g,
            root,
            partition,
            weights: self.weights,
            backend: self.backend,
            config: self.config,
            epochs: stamp,
            tree: tree.map(|t| Slot::new(t, stamp)),
            tree_provided,
            diam: None,
            full,
            quality: None,
            partials: BTreeMap::new(),
            op_artifacts: HashMap::new(),
            partition_log: VecDeque::new(),
            stats: CacheStats::default(),
        })
    }
}

/// A prepared-topology session: one graph, one tree, one backend — with a
/// mutable partition and mutable weights. Artifacts are computed lazily,
/// cached under per-input epoch stamps, invalidated precisely when a
/// declared dependency changes, and served to any number of operations.
/// See the [module docs](self) for the full story.
pub struct ShortcutSession<'g> {
    g: &'g Graph,
    root: NodeId,
    partition: Option<Partition>,
    weights: Option<EdgeWeights>,
    backend: Backend,
    config: SessionConfig,
    /// Current epoch of each [`Input`].
    epochs: Epochs,
    tree: Option<Slot<RootedTree>>,
    /// Whether `tree` came from [`TreeSource::Provided`] (the distributed
    /// backends must verify it matches the protocol's own BFS tree).
    tree_provided: bool,
    diam: Option<Slot<DiameterBounds>>,
    full: Option<Slot<FullArtifact>>,
    quality: Option<Slot<Arc<QualityReport>>>,
    partials: BTreeMap<u32, Slot<PartialArtifact>>,
    /// Per-op-type derived artifacts (e.g. the partwise participation
    /// map), keyed by the artifact's [`TypeId`] and shared via [`Arc`].
    /// See [`op_artifact_with`](ShortcutSession::op_artifact_with).
    op_artifacts: HashMap<TypeId, OpSlot>,
    /// Recent partition mutations: `(partition epoch after the change,
    /// what changed)`, capped at [`PARTITION_LOG_CAP`] entries.
    partition_log: VecDeque<(u64, PartitionDelta)>,
    stats: CacheStats,
}

impl<'g> ShortcutSession<'g> {
    /// The graph this session serves.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The tree root.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The construction backend.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Mutable access to the configuration (between operations).
    ///
    /// Counts as a mutation of the [`Input::Sim`] input: the epoch is
    /// bumped conservatively on every access, so construction- and
    /// simulator-scoped artifacts rebuild the next time they are needed.
    /// Read through [`config`](Self::config) when nothing changes.
    pub fn config_mut(&mut self) -> &mut SessionConfig {
        self.epochs.bump(Input::Sim);
        &mut self.config
    }

    /// Whether a partition was configured.
    pub fn has_partition(&self) -> bool {
        self.partition.is_some()
    }

    /// The session partition.
    ///
    /// # Panics
    ///
    /// Panics if the session was built without one (partition-based ops
    /// require `.partition(..)` on the builder). Use
    /// [`try_partition`](Self::try_partition) for the fallible form.
    pub fn partition(&self) -> &Partition {
        self.partition.as_ref().expect(NO_PARTITION)
    }

    /// Fallible [`partition`](Self::partition): the session partition, or
    /// [`SessionError::NoPartition`].
    pub fn try_partition(&self) -> Result<&Partition, SessionError> {
        self.partition.as_ref().ok_or(SessionError::NoPartition)
    }

    /// Whether weights were configured.
    pub fn has_weights(&self) -> bool {
        self.weights.is_some()
    }

    /// The session's edge weights (the `Weights` input).
    ///
    /// # Panics
    ///
    /// Panics if the session has no weights — pass `.weights(..)` to the
    /// builder or call [`set_weights`](Self::set_weights). Use
    /// [`try_weights`](Self::try_weights) for the fallible form.
    pub fn weights(&self) -> &EdgeWeights {
        self.weights.as_ref().expect(NO_WEIGHTS)
    }

    /// Fallible [`weights`](Self::weights): the session weights, or
    /// [`SessionError::NoWeights`].
    pub fn try_weights(&self) -> Result<&EdgeWeights, SessionError> {
        self.weights.as_ref().ok_or(SessionError::NoWeights)
    }

    /// The current epoch of every input.
    pub fn epochs(&self) -> Epochs {
        self.epochs
    }

    /// Per-artifact cache counters: builds, hits, invalidations, and the
    /// incremental-recustomization tallies.
    pub fn cache_stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Replaces the partition wholesale, validating the raw node lists,
    /// and bumps the [`Input::Partition`] epoch: every partition-scoped
    /// artifact is invalidated (lazily) and rebuilt on next access.
    ///
    /// For small membership changes prefer
    /// [`reassign_parts`](Self::reassign_parts), which re-customizes
    /// incrementally instead.
    ///
    /// # Errors
    ///
    /// Returns the validation error without changing the session.
    pub fn set_partition(&mut self, parts: Vec<Vec<NodeId>>) -> Result<(), PartitionError> {
        let partition = Partition::from_parts(self.g, parts)?;
        self.set_partition_object(partition);
        Ok(())
    }

    /// [`set_partition`](Self::set_partition) with an already-validated
    /// partition.
    pub fn set_partition_object(&mut self, partition: Partition) {
        self.partition = Some(partition);
        self.epochs.bump(Input::Partition);
        self.log_partition_change(PartitionDelta::Wholesale);
    }

    /// Moves nodes between existing parts and re-customizes incrementally.
    ///
    /// Validation is atomic (see [`Partition::reassign`]): on error the
    /// session is unchanged. On success the [`Input::Partition`] epoch
    /// bumps, but the touched parts are remembered — when the full
    /// shortcut (or quality report) is next needed and is stale *only*
    /// because of such tracked reassignments, the session runs a mini
    /// doubling search over just the touched parts and splices their
    /// `H_i` into the cached shortcut instead of rebuilding everything.
    /// Per-part quality rows are re-measured for the touched parts only.
    /// Returns the sorted ids of the touched parts (old and new part of
    /// every moved node); an effect-free move list returns an empty vector
    /// without bumping any epoch.
    ///
    /// The re-customization sweep always runs the centralized Theorem 3.1
    /// sweep over the session tree (a local patch with zero simulated
    /// rounds charged, like a provided shortcut). For
    /// [`Backend::Distributed`] this is cut-identical to what the protocol
    /// would build; for [`Backend::Sketch`] the touched parts get the
    /// exact rather than the sketched cut — still a valid tree-restricted
    /// shortcut for the new partition.
    ///
    /// # Errors
    ///
    /// Returns the [`PartitionError`] of the first violated touched part.
    ///
    /// # Panics
    ///
    /// Panics if the session has no partition, or a target part id is out
    /// of range. Use [`try_reassign_parts`](Self::try_reassign_parts) for
    /// the fully fallible form.
    pub fn reassign_parts(
        &mut self,
        moves: &[(NodeId, PartId)],
    ) -> Result<Vec<PartId>, PartitionError> {
        match self.try_reassign_parts(moves) {
            Ok(touched) => Ok(touched),
            Err(SessionError::Partition(e)) => Err(e),
            Err(e) => panic!("{e}"),
        }
    }

    /// [`reassign_parts`](Self::reassign_parts) with every misuse turned
    /// into a typed error: a missing partition and an out-of-range target
    /// part id are reported as [`SessionError::NoPartition`] /
    /// [`SessionError::PartOutOfRange`] instead of a panic, and validation
    /// failures as [`SessionError::Partition`]. On any `Err` the session
    /// is unchanged.
    pub fn try_reassign_parts(
        &mut self,
        moves: &[(NodeId, PartId)],
    ) -> Result<Vec<PartId>, SessionError> {
        let current = self.partition.as_ref().ok_or(SessionError::NoPartition)?;
        let num_parts = current.num_parts();
        if let Some(&(_, part)) = moves.iter().find(|(_, p)| p.index() >= num_parts) {
            return Err(SessionError::PartOutOfRange { part, num_parts });
        }
        let (next, touched) = current
            .reassign(self.g, moves)
            .map_err(SessionError::Partition)?;
        if touched.is_empty() {
            return Ok(touched);
        }
        self.partition = Some(next);
        self.epochs.bump(Input::Partition);
        self.log_partition_change(PartitionDelta::Reassigned(touched.clone()));
        Ok(touched)
    }

    /// Replaces the edge weights, bumping the [`Input::Weights`] epoch —
    /// unless the new weights equal the current ones, in which case this
    /// is a no-op (so repeated calls with the same metric keep weight-
    /// scoped artifacts cached).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the graph's edge count. Use
    /// [`try_set_weights`](Self::try_set_weights) for the fallible form.
    pub fn set_weights(&mut self, weights: EdgeWeights) {
        self.try_set_weights(weights)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`set_weights`](Self::set_weights) with the length mismatch
    /// reported as [`SessionError::WeightCountMismatch`] instead of a
    /// panic. On `Err` the session is unchanged.
    pub fn try_set_weights(&mut self, weights: EdgeWeights) -> Result<(), SessionError> {
        if weights.len() != self.g.num_edges() {
            return Err(SessionError::WeightCountMismatch {
                got: weights.len(),
                expected: self.g.num_edges(),
            });
        }
        if self.weights.as_ref() == Some(&weights) {
            return Ok(());
        }
        self.weights = Some(weights);
        self.epochs.bump(Input::Weights);
        Ok(())
    }

    /// Applies sparse `(edge, new_weight)` updates to the session weights
    /// and bumps the [`Input::Weights`] epoch (no-op for an empty list).
    ///
    /// # Panics
    ///
    /// Panics if the session has no weights, or an edge id is out of
    /// range. Use [`try_update_weights`](Self::try_update_weights) for the
    /// fallible form.
    pub fn update_weights(&mut self, changes: &[(EdgeId, u64)]) {
        self.try_update_weights(changes)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`update_weights`](Self::update_weights) with typed errors: a
    /// missing weight vector is [`SessionError::NoWeights`], an
    /// out-of-range edge id [`SessionError::EdgeOutOfRange`]. Validation
    /// is atomic (via [`EdgeWeights::try_update`]): on `Err` no weight was
    /// written and no epoch bumped, so the serving state stays consistent.
    pub fn try_update_weights(&mut self, changes: &[(EdgeId, u64)]) -> Result<(), SessionError> {
        let w = self.weights.as_mut().ok_or(SessionError::NoWeights)?;
        if changes.is_empty() {
            return Ok(());
        }
        w.try_update(changes)
            .map_err(|e| SessionError::EdgeOutOfRange {
                edge: e.edge,
                num_edges: e.num_edges,
            })?;
        self.epochs.bump(Input::Weights);
        Ok(())
    }

    /// The session's spanning tree (computed on first access).
    pub fn tree(&mut self) -> &RootedTree {
        self.ensure_tree();
        &self.tree.as_ref().expect("just ensured").value
    }

    /// Two-sided diameter bounds of the root's component (double-sweep;
    /// computed on first access).
    pub fn diameter(&mut self) -> DiameterBounds {
        let now = self.epochs;
        if let Some(slot) = &self.diam {
            if slot.fresh(&now, deps::DIAMETER) {
                self.stats.diameter.hits += 1;
                return slot.value;
            }
            self.stats.diameter.invalidations += 1;
        }
        self.stats.diameter.builds += 1;
        let slot = Slot::new(diameter_bounds(self.g, self.root), now);
        let value = slot.value;
        self.diam = Some(slot);
        value
    }

    /// The full-shortcut artifact (constructed on first access via the
    /// session backend).
    ///
    /// # Panics
    ///
    /// Panics if the session has no partition and no fresh provided
    /// shortcut. Use [`try_full_artifact`](Self::try_full_artifact) for
    /// the fallible form.
    pub fn full_artifact(&mut self) -> &FullArtifact {
        self.try_full_artifact().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`full_artifact`](Self::full_artifact) with the missing partition
    /// reported as [`SessionError::NoPartition`] instead of a panic. A
    /// caller-provided shortcut whose cached slot is still fresh is served
    /// without requiring a partition, exactly like the panicking path.
    pub fn try_full_artifact(&mut self) -> Result<&FullArtifact, SessionError> {
        let fresh = self
            .full
            .as_ref()
            .is_some_and(|s| s.fresh(&self.epochs, deps::SHORTCUT));
        if !fresh && self.partition.is_none() {
            return Err(SessionError::NoPartition);
        }
        self.ensure_full();
        Ok(&self.full.as_ref().expect("just built").value)
    }

    /// The served full shortcut.
    pub fn shortcut(&mut self) -> &Shortcut {
        &self.full_artifact().shortcut
    }

    /// [`shortcut`](Self::shortcut) with the missing partition reported as
    /// [`SessionError::NoPartition`] instead of a panic.
    pub fn try_shortcut(&mut self) -> Result<&Shortcut, SessionError> {
        self.try_full_artifact().map(|f| &f.shortcut)
    }

    /// Final `δ̂` of the doubling search (0 for provided shortcuts).
    pub fn delta_hat(&mut self) -> u32 {
        self.full_artifact().delta_hat
    }

    /// The densest dense-minor certificate collected during construction.
    pub fn witness(&mut self) -> Option<&MinorWitness> {
        self.ensure_full();
        self.full.as_ref().and_then(|f| f.value.witness.as_ref())
    }

    /// Simulated cost of constructing the cached full shortcut.
    pub fn construction_stats(&mut self) -> ConstructionStats {
        self.full_artifact().construction
    }

    /// Quality report of the full shortcut against the session tree and
    /// partition (measured once, cached; after
    /// [`reassign_parts`](Self::reassign_parts) only the touched parts'
    /// rows are re-measured).
    ///
    /// # Panics
    ///
    /// Panics if the session has no partition. Use
    /// [`try_quality`](Self::try_quality) for the fallible form.
    pub fn quality(&mut self) -> &QualityReport {
        self.try_quality().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`quality`](Self::quality) with the missing partition reported as
    /// [`SessionError::NoPartition`] instead of a panic.
    pub fn try_quality(&mut self) -> Result<&QualityReport, SessionError> {
        if self.partition.is_none() {
            return Err(SessionError::NoPartition);
        }
        self.ensure_quality();
        Ok(&self.quality.as_ref().expect("just ensured").value)
    }

    /// Shared handle to the cached quality report, if the session has a
    /// partition (measuring it on first use); `None` otherwise. Ops attach
    /// this to their [`OpReport`]s — every report shares one allocation
    /// instead of deep-cloning the O(k) per-part vectors per call.
    pub fn quality_shared(&mut self) -> Option<Arc<QualityReport>> {
        if self.partition.is_some() {
            self.ensure_quality();
            self.quality.as_ref().map(|s| s.value.clone())
        } else {
            None
        }
    }

    /// The per-op-type derived-artifact cache with the default dependency
    /// set [`deps::SHORTCUT`]: returns the artifact of type `T`, building
    /// it with `build` from the graph, partition, and cached full shortcut
    /// on first access and serving the same [`Arc`] afterwards.
    ///
    /// This is where ops park preprocessing that depends only on the
    /// session's shortcut-scoped artifacts — e.g. the partwise O(n + m)
    /// participation map, which the session previously rebuilt on every
    /// aggregate/gossip call. Keyed by [`TypeId`], so each artifact type
    /// has exactly one slot per session. The slot is wired into the
    /// artifact graph: mutating the partition (or any other declared
    /// dependency) invalidates it, and the next access rebuilds against
    /// the refreshed shortcut. Use
    /// [`op_artifact_with`](Self::op_artifact_with) to declare a different
    /// dependency set, or
    /// [`op_artifact_patched`](Self::op_artifact_patched) to refresh
    /// incrementally under part churn.
    ///
    /// # Panics
    ///
    /// Panics if the session has no partition (like every partition op).
    pub fn op_artifact<T, F>(&mut self, build: F) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce(&Graph, &Partition, &Shortcut) -> T,
    {
        self.op_artifact_with(deps::SHORTCUT, move |s| {
            s.prepare();
            build(
                s.g,
                s.partition.as_ref().expect(NO_PARTITION),
                &s.full.as_ref().expect("prepared").value.shortcut,
            )
        })
    }

    /// [`op_artifact`](Self::op_artifact) with an explicit dependency set
    /// and full session access in the builder: the artifact of type `T` is
    /// cached under the current epochs and served while every input in
    /// `deps` is unchanged; when one bumps, the slot is invalidated and
    /// `build` runs again.
    ///
    /// `build` may drive the session (e.g. call
    /// [`prepare`](Self::prepare) or read
    /// [`weights`](Self::weights)) but must not mutate inputs.
    pub fn op_artifact_with<T, F>(&mut self, deps: &'static [Input], build: F) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce(&mut ShortcutSession<'g>) -> T,
    {
        let key = TypeId::of::<T>();
        let now = self.epochs;
        if let Some(slot) = self.op_artifacts.get(&key) {
            if slot.stamp.agrees_on(&now, slot.deps) {
                self.stats.op_artifacts.hits += 1;
                return slot
                    .value
                    .clone()
                    .downcast::<T>()
                    .unwrap_or_else(|_| unreachable!("slot is keyed by this TypeId"));
            }
            self.op_artifacts.remove(&key);
            self.stats.op_artifacts.invalidations += 1;
        }
        let built = Arc::new(build(self));
        debug_assert_eq!(
            self.epochs, now,
            "op-artifact builders must not mutate session inputs"
        );
        self.stats.op_artifacts.builds += 1;
        self.op_artifacts.insert(
            key,
            OpSlot {
                value: built.clone(),
                stamp: now,
                deps,
            },
        );
        built
    }

    /// [`op_artifact_with`](Self::op_artifact_with) plus an incremental
    /// refresh path: when the cached artifact is stale *only* because of
    /// tracked [`reassign_parts`](Self::reassign_parts) churn, the session
    /// calls `patch(session, old, touched_parts)` instead of `build` —
    /// letting the op recompute just the touched parts' contribution
    /// (keyed off its cached value, e.g. the partwise participation map).
    ///
    /// `patch` runs after the session's own artifacts have been refreshed
    /// for the same churn (so [`shortcut_ref`](Self::shortcut_ref) inside
    /// `patch` sees the incrementally re-customized shortcut, in which
    /// untouched parts' edge lists are unchanged). A wholesale partition
    /// replacement, a pruned mutation log, or staleness in any other
    /// declared dependency falls back to `build`.
    pub fn op_artifact_patched<T, F, P>(
        &mut self,
        deps: &'static [Input],
        build: F,
        patch: P,
    ) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce(&mut ShortcutSession<'g>) -> T,
        P: FnOnce(&mut ShortcutSession<'g>, &T, &[PartId]) -> T,
    {
        let key = TypeId::of::<T>();
        let now = self.epochs;
        let cached = self.op_artifacts.get(&key).map(|s| (s.stamp, s.deps));
        if let Some((stamp, slot_deps)) = cached {
            if !stamp.agrees_on(&now, slot_deps) {
                // Patchable iff the only stale dependency is the partition
                // and every change since the stamp was a tracked
                // reassignment.
                let others: Vec<Input> = slot_deps
                    .iter()
                    .copied()
                    .filter(|&d| d != Input::Partition)
                    .collect();
                let touched = if stamp.agrees_on(&now, &others) {
                    self.parts_changed_since(stamp.partition)
                } else {
                    None
                };
                if let Some(touched) = touched {
                    let old = self
                        .op_artifacts
                        .remove(&key)
                        .expect("checked above")
                        .value
                        .downcast::<T>()
                        .unwrap_or_else(|_| unreachable!("slot is keyed by this TypeId"));
                    let patched = Arc::new(patch(self, &old, &touched));
                    self.stats.op_artifact_patches += 1;
                    self.op_artifacts.insert(
                        key,
                        OpSlot {
                            value: patched.clone(),
                            stamp: self.epochs,
                            deps,
                        },
                    );
                    return patched;
                }
            }
        }
        self.op_artifact_with(deps, build)
    }

    /// Replaces the value in the fresh op-artifact slot of type `T`,
    /// keeping its stamp and dependency set — for an artifact that learns
    /// from the runs it serves (the partwise aggregation forest, harvested
    /// from each aggregate's final states). A stale or missing slot is
    /// left alone: what `value` was derived from is gone. Counts as neither
    /// build, hit nor patch.
    pub fn op_artifact_swap<T: Any + Send + Sync>(&mut self, value: T) {
        let now = self.epochs;
        if let Some(slot) = self.op_artifacts.get_mut(&TypeId::of::<T>()) {
            if slot.stamp.agrees_on(&now, slot.deps) {
                slot.value = Arc::new(value);
            }
        }
    }

    /// Ensures tree and full shortcut (and quality, when a partition
    /// exists) are built and fresh — the preparation step ops call once
    /// before taking shared references.
    pub fn prepare(&mut self) {
        self.ensure_tree();
        if self.partition.is_some() {
            self.ensure_full();
            self.ensure_quality();
        }
    }

    /// Shared reference to the cached shortcut.
    ///
    /// # Panics
    ///
    /// Panics if the artifact was not built yet (call
    /// [`prepare`](Self::prepare) or [`shortcut`](Self::shortcut) first),
    /// or if it went stale because an input was mutated since — references
    /// obtained before a mutation must be re-fetched through
    /// [`prepare`](Self::prepare). Use
    /// [`try_shortcut_ref`](Self::try_shortcut_ref) for the fallible form.
    pub fn shortcut_ref(&self) -> &Shortcut {
        self.try_shortcut_ref().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`shortcut_ref`](Self::shortcut_ref) with the misuse states as
    /// typed errors instead of panics: a never-built artifact is
    /// [`SessionError::NotPrepared`], a cached-but-stale one
    /// [`SessionError::Stale`]. A long-lived server uses this to turn a
    /// client racing its own mutation into a structured error response
    /// rather than a dead worker.
    pub fn try_shortcut_ref(&self) -> Result<&Shortcut, SessionError> {
        let slot = self.full.as_ref().ok_or(SessionError::NotPrepared {
            artifact: "shortcut",
        })?;
        if !slot.fresh(&self.epochs, deps::SHORTCUT) {
            return Err(SessionError::Stale {
                artifact: "shortcut",
            });
        }
        Ok(&slot.value.shortcut)
    }

    /// Shared reference to the cached tree.
    ///
    /// # Panics
    ///
    /// Panics like [`shortcut_ref`](Self::shortcut_ref). Use
    /// [`try_tree_ref`](Self::try_tree_ref) for the fallible form.
    pub fn tree_ref(&self) -> &RootedTree {
        self.try_tree_ref().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`tree_ref`](Self::tree_ref) with the misuse states as typed errors
    /// instead of panics, like [`try_shortcut_ref`](Self::try_shortcut_ref).
    pub fn try_tree_ref(&self) -> Result<&RootedTree, SessionError> {
        let slot = self
            .tree
            .as_ref()
            .ok_or(SessionError::NotPrepared { artifact: "tree" })?;
        if !slot.fresh(&self.epochs, deps::TREE) {
            return Err(SessionError::Stale { artifact: "tree" });
        }
        Ok(&slot.value)
    }

    /// The per-`δ̂` partial shortcut (one Theorem 3.1 sweep over all parts),
    /// constructed on first access and cached per `δ̂` (invalidated like
    /// the full shortcut when a declared dependency changes).
    ///
    /// # Panics
    ///
    /// Panics if `δ̂ = 0` or the session has no partition. Use
    /// [`try_partial`](Self::try_partial) for the fallible form.
    pub fn partial(&mut self, delta_hat: u32) -> &PartialArtifact {
        self.try_partial(delta_hat)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`partial`](Self::partial) with `δ̂ = 0` reported as
    /// [`SessionError::ZeroDeltaHat`] and a missing partition as
    /// [`SessionError::NoPartition`] instead of panics.
    pub fn try_partial(&mut self, delta_hat: u32) -> Result<&PartialArtifact, SessionError> {
        if delta_hat == 0 {
            return Err(SessionError::ZeroDeltaHat);
        }
        if self.partition.is_none() {
            return Err(SessionError::NoPartition);
        }
        let now = self.epochs;
        let stale = self
            .partials
            .get(&delta_hat)
            .is_some_and(|s| !s.fresh(&now, deps::SHORTCUT));
        if stale {
            self.partials.remove(&delta_hat);
            self.stats.partials.invalidations += 1;
        }
        if !self.partials.contains_key(&delta_hat) {
            let artifact = self.build_partial(delta_hat);
            self.stats.partials.builds += 1;
            self.partials.insert(delta_hat, Slot::new(artifact, now));
        } else {
            self.stats.partials.hits += 1;
        }
        Ok(&self.partials.get(&delta_hat).expect("just inserted").value)
    }

    /// Drives one operation over the cached artifacts. Equivalent to the
    /// named methods of the facade (`session.aggregate(..)`,
    /// `session.mst(..)`, …), which are extension-trait sugar over this.
    pub fn run<O: PartwiseOp>(&mut self, op: O) -> OpReport<O::Output> {
        op.run(self)
    }

    fn ensure_tree(&mut self) {
        let now = self.epochs;
        if let Some(slot) = &self.tree {
            if slot.fresh(&now, deps::TREE) {
                self.stats.tree.hits += 1;
                return;
            }
            self.stats.tree.invalidations += 1;
        }
        self.stats.tree.builds += 1;
        self.tree = Some(Slot::new(bfs::bfs_tree(self.g, self.root), now));
    }

    /// The union of parts touched by reassignments between partition epoch
    /// `since` and now, or `None` when the span contains a wholesale
    /// replacement or reaches past the bounded mutation log.
    fn parts_changed_since(&self, since: u64) -> Option<Vec<PartId>> {
        if since >= self.epochs.partition {
            return (since == self.epochs.partition).then(Vec::new);
        }
        let mut touched = BTreeSet::new();
        let mut expected = since + 1;
        for (epoch, delta) in &self.partition_log {
            if *epoch <= since {
                continue;
            }
            if *epoch != expected {
                return None; // entries below `expected` fell off the log
            }
            expected += 1;
            match delta {
                PartitionDelta::Wholesale => return None,
                PartitionDelta::Reassigned(parts) => touched.extend(parts.iter().copied()),
            }
        }
        (expected == self.epochs.partition + 1).then(|| touched.into_iter().collect())
    }

    fn log_partition_change(&mut self, delta: PartitionDelta) {
        self.partition_log.push_back((self.epochs.partition, delta));
        if self.partition_log.len() > PARTITION_LOG_CAP {
            self.partition_log.pop_front();
        }
    }

    fn ensure_full(&mut self) {
        let now = self.epochs;
        if let Some(slot) = &self.full {
            if slot.fresh(&now, deps::SHORTCUT) {
                self.stats.full.hits += 1;
                return;
            }
            let stamp = slot.stamp;
            let only_partition_moved =
                stamp.topology == now.topology && stamp.tree == now.tree && stamp.sim == now.sim;
            if only_partition_moved {
                if let Some(touched) = self.parts_changed_since(stamp.partition) {
                    // Non-empty: the slot is stale on the partition epoch,
                    // so at least one tracked reassignment happened.
                    self.recustomize(&touched);
                    return;
                }
            }
            self.stats.full.invalidations += 1;
            self.full = None;
        }
        let artifact = match self.backend.clone() {
            Backend::Centralized => {
                self.ensure_tree();
                let res = full_shortcut(
                    self.g,
                    &self.tree.as_ref().expect("ensured").value,
                    self.partition.as_ref().expect(NO_PARTITION),
                    &self.config.shortcut,
                );
                FullArtifact {
                    shortcut: res.shortcut,
                    delta_hat: res.delta_hat,
                    witness: res.best_witness,
                    construction: ConstructionStats::default(),
                }
            }
            Backend::Distributed(sim) => {
                let dist = DistConfig {
                    mode: DistMode::Exact,
                    sim,
                };
                self.full_from_dist(&dist)
            }
            Backend::Sketch(dist) => self.full_from_dist(&dist),
        };
        self.stats.full.builds += 1;
        self.full = Some(Slot::new(artifact, self.epochs));
    }

    /// Incremental re-customization: one mini doubling search over just
    /// the `touched` parts, splicing their `H_i` into the cached full
    /// shortcut and patching the cached quality report's touched rows.
    /// Runs the centralized sweep over the session tree regardless of
    /// backend (zero simulated rounds charged — see
    /// [`reassign_parts`](Self::reassign_parts)).
    fn recustomize(&mut self, touched: &[PartId]) {
        self.ensure_tree();
        let now = self.epochs;
        let mut slot = self
            .full
            .take()
            .expect("recustomize requires a cached full artifact");
        // Quality can only be patched in lockstep with the shortcut it was
        // measured on; a report from another artifact generation is
        // dropped and re-measured in full instead.
        let quality = match self.quality.take() {
            Some(q) if q.stamp.agrees_on(&slot.stamp, deps::SHORTCUT) => Some(q),
            Some(_) => {
                self.stats.quality.invalidations += 1;
                None
            }
            None => None,
        };
        {
            let tree = &self.tree.as_ref().expect("just ensured").value;
            let partition = self.partition.as_ref().expect(NO_PARTITION);
            let config = &self.config.shortcut;
            let full = &mut slot.value;
            debug_assert_eq!(full.shortcut.num_parts(), partition.num_parts());
            // Start where the cached construction ended: parts that were
            // servable at the final δ̂ before the move usually still are.
            let start = full.delta_hat.max(config.initial_delta_hat).max(1);
            let res = run_doubling_search(
                self.g.num_nodes(),
                partition.num_parts(),
                touched.to_vec(),
                start,
                |active, delta_hat| {
                    sweep_active(self.g, tree, partition, active, delta_hat, config)
                },
            );
            for &p in touched {
                full.shortcut
                    .set_edges(p, res.shortcut.edges_for(p).to_vec());
            }
            full.delta_hat = full.delta_hat.max(res.delta_hat);
            if let Some(w) = res.best_witness {
                let better = full
                    .witness
                    .as_ref()
                    .map(|b| w.density() > b.density())
                    .unwrap_or(true);
                if better {
                    full.witness = Some(w);
                }
            }
            if let Some(qslot) = quality {
                let rows = measure_parts(self.g, partition, &full.shortcut, touched);
                let mut q = (*qslot.value).clone();
                for (&p, row) in touched.iter().zip(rows) {
                    q.per_part[p.index()] = row;
                }
                q.max_blocks = q.per_part.iter().map(|p| p.blocks).max().unwrap_or(0);
                q.max_dilation_lower = q
                    .per_part
                    .iter()
                    .map(|p| p.dilation_lower)
                    .max()
                    .unwrap_or(0);
                q.max_dilation_upper = q
                    .per_part
                    .iter()
                    .map(|p| p.dilation_upper)
                    .max()
                    .unwrap_or(0);
                q.max_congestion = full.shortcut.max_congestion(self.g);
                q.tree_restricted = full.shortcut.is_tree_restricted(tree);
                self.quality = Some(Slot::new(Arc::new(q), now));
            }
        }
        slot.stamp = now;
        self.stats.recustomizations += 1;
        self.stats.recustomized_parts += touched.len() as u64;
        self.full = Some(slot);
    }

    fn ensure_quality(&mut self) {
        // May itself patch the quality report in lockstep with an
        // incremental re-customization.
        self.ensure_full();
        let now = self.epochs;
        if let Some(slot) = &self.quality {
            if slot.fresh(&now, deps::SHORTCUT) {
                self.stats.quality.hits += 1;
                return;
            }
            self.stats.quality.invalidations += 1;
            self.quality = None;
        }
        self.ensure_tree();
        let q = measure_quality(
            self.g,
            self.partition.as_ref().expect(NO_PARTITION),
            &self.tree.as_ref().expect("ensured").value,
            &self.full.as_ref().expect("ensured").value.shortcut,
        );
        self.stats.quality.builds += 1;
        self.quality = Some(Slot::new(Arc::new(q), now));
    }

    /// The distributed backends run the Theorem 1.5 protocol, whose first
    /// phase builds its *own* BFS tree from the root (the canonical
    /// min-id-parent rule). A provided tree is honored only if it IS that
    /// tree — otherwise the shortcut would be restricted to one tree while
    /// quality measurement and unicast routing use another, silently. Fail
    /// loudly instead.
    fn assert_provided_tree_is_canonical(&self) {
        if !self.tree_provided {
            return;
        }
        let provided = &self
            .tree
            .as_ref()
            .expect("provided tree stored at build")
            .value;
        let canonical = bfs::bfs_tree(self.g, self.root);
        for v in self.g.nodes() {
            assert!(
                provided.parent(v) == canonical.parent(v),
                "Backend::Distributed/Sketch construct over the canonical BFS tree of root \
                 {:?} (the simulated protocol builds it itself), but the provided tree \
                 differs at node {v:?} — use Backend::Centralized for non-BFS trees",
                self.root
            );
        }
    }

    fn full_from_dist(&mut self, dist: &DistConfig) -> FullArtifact {
        self.assert_provided_tree_is_canonical();
        let res = distributed_full_shortcut(
            self.g,
            self.root,
            self.partition.as_ref().expect(NO_PARTITION),
            &self.config.shortcut,
            dist,
        );
        FullArtifact {
            shortcut: res.shortcut,
            delta_hat: res.delta_hat,
            witness: res.best_witness,
            construction: ConstructionStats {
                rounds: res.rounds,
                messages: res.messages,
                bits: res.bits,
            },
        }
    }

    fn build_partial(&mut self, delta_hat: u32) -> PartialArtifact {
        match self.backend.clone() {
            Backend::Centralized => {
                self.ensure_tree();
                let outcome = partial_shortcut_or_witness(
                    self.g,
                    &self.tree.as_ref().expect("ensured").value,
                    self.partition.as_ref().expect(NO_PARTITION),
                    delta_hat,
                    &self.config.shortcut,
                );
                match outcome {
                    SweepOutcome::Shortcut(ps) => PartialArtifact {
                        shortcut: ps.shortcut,
                        served: ps.served,
                        case_one: true,
                        data: ps.data,
                        witness: None,
                        metrics_bfs: None,
                        metrics_detect: None,
                    },
                    SweepOutcome::DenseMinor { witness, data } => PartialArtifact {
                        shortcut: Shortcut::empty(self.partition().num_parts()),
                        served: Vec::new(),
                        case_one: false,
                        data,
                        witness,
                        metrics_bfs: None,
                        metrics_detect: None,
                    },
                }
            }
            Backend::Distributed(sim) => self.partial_from_dist(
                delta_hat,
                &DistConfig {
                    mode: DistMode::Exact,
                    sim,
                },
            ),
            Backend::Sketch(dist) => self.partial_from_dist(delta_hat, &dist),
        }
    }

    fn partial_from_dist(&mut self, delta_hat: u32, dist: &DistConfig) -> PartialArtifact {
        self.assert_provided_tree_is_canonical();
        let res = distributed_partial_shortcut(
            self.g,
            self.root,
            self.partition.as_ref().expect(NO_PARTITION),
            delta_hat,
            &self.config.shortcut,
            dist,
        );
        PartialArtifact {
            shortcut: res.shortcut,
            served: res.served,
            case_one: res.case_one,
            data: res.data,
            witness: None,
            metrics_bfs: Some(res.metrics_bfs),
            metrics_detect: Some(res.metrics_shortcut),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::gen;

    /// Shortcut constructions performed: full builds plus one per distinct
    /// partial `δ̂` (incremental re-customizations do not count).
    fn constructed(s: &ShortcutSession<'_>) -> u64 {
        let stats = s.cache_stats();
        stats.full.builds + stats.partials.builds
    }

    fn grid_session(side: usize) -> ShortcutSession<'static> {
        // Leak the graph for 'static test sessions (tests only).
        let g = Box::leak(Box::new(gen::grid(side, side)));
        Session::on(g)
            .tree(TreeSource::Bfs(NodeId(0)))
            .partition(gen::rows_of_grid(side, side))
            .build()
            .expect("grid rows are valid parts")
    }

    #[test]
    fn builder_is_lazy_and_artifacts_cache() {
        let mut s = grid_session(8);
        assert_eq!(constructed(&s), 0, "build() must not construct");
        let dh = s.delta_hat();
        assert_eq!(dh, 1);
        assert_eq!(constructed(&s), 1);
        // Every later access is served from the cache.
        let edges_a = s.shortcut().total_edges();
        let edges_b = s.shortcut().total_edges();
        assert_eq!(edges_a, edges_b);
        let _ = s.quality();
        let _ = s.witness();
        assert_eq!(constructed(&s), 1);
        assert_eq!(s.cache_stats().full.builds, 1);
        assert!(s.cache_stats().full.hits >= 3);
        assert_eq!(s.cache_stats().full.invalidations, 0);
    }

    #[test]
    fn tree_and_diameter_are_cached() {
        let mut s = grid_session(6);
        let d1 = s.tree().depth_of_tree();
        let d2 = s.tree().depth_of_tree();
        assert_eq!(d1, d2);
        let db = s.diameter();
        assert!(db.lower <= db.upper);
        assert_eq!(constructed(&s), 0, "tree/diameter are not constructions");
        assert_eq!(s.cache_stats().tree.builds, 1);
        assert_eq!(s.cache_stats().tree.hits, 1);
        assert_eq!(s.cache_stats().diameter.builds, 1);
    }

    #[test]
    fn partials_cache_per_delta_hat() {
        let mut s = grid_session(8);
        let served1 = s.partial(1).served.len();
        assert_eq!(constructed(&s), 1);
        let served1_again = s.partial(1).served.len();
        assert_eq!(served1, served1_again);
        assert_eq!(constructed(&s), 1, "same δ̂ reuses the cache");
        let _ = s.partial(2);
        assert_eq!(constructed(&s), 2, "a new δ̂ constructs once");
        assert_eq!(s.cache_stats().partials.builds, 2);
        assert_eq!(s.cache_stats().partials.hits, 1);
    }

    #[test]
    fn distributed_backend_matches_centralized_shortcut() {
        let g = gen::grid(8, 8);
        let parts = gen::rows_of_grid(8, 8);
        let mut central = Session::on(&g)
            .partition(parts.clone())
            .backend(Backend::Centralized)
            .build()
            .unwrap();
        let mut dist = Session::on(&g)
            .partition(parts)
            .backend(Backend::Distributed(SimConfig::default()))
            .build()
            .unwrap();
        // Exact streaming reproduces the centralized construction.
        assert_eq!(central.shortcut(), dist.shortcut());
        assert_eq!(central.delta_hat(), dist.delta_hat());
        // The distributed backend charges simulated construction cost.
        let stats = dist.construction_stats();
        assert!(stats.rounds > 0 && stats.messages > 0 && stats.bits > 0);
        assert_eq!(central.construction_stats(), ConstructionStats::default());
    }

    #[test]
    fn provided_shortcut_is_served_without_construction() {
        let g = gen::grid(6, 6);
        let parts = gen::rows_of_grid(6, 6);
        let mut built = Session::on(&g).partition(parts.clone()).build().unwrap();
        let sc = built.shortcut().clone();
        let mut served = Session::on(&g)
            .partition(parts)
            .shortcut(sc.clone())
            .build()
            .unwrap();
        assert_eq!(served.shortcut(), &sc);
        assert_eq!(served.delta_hat(), 0, "provided shortcuts have unknown δ̂");
        assert_eq!(constructed(&served), 0);
    }

    #[test]
    fn distributed_backend_accepts_the_canonical_provided_tree() {
        let g = gen::grid(5, 5);
        let tree = bfs::bfs_tree(&g, NodeId(3));
        let mut s = Session::on(&g)
            .tree(TreeSource::Provided(tree))
            .partition(gen::rows_of_grid(5, 5))
            .backend(Backend::Distributed(SimConfig::default()))
            .build()
            .unwrap();
        let _ = s.shortcut(); // the provided tree IS the protocol's tree
        assert_eq!(constructed(&s), 1);
    }

    #[test]
    #[should_panic(expected = "differs at node")]
    fn distributed_backend_rejects_non_canonical_trees() {
        // On a cycle, the path tree (parent(i) = i-1) is a valid spanning
        // tree rooted at 0 but NOT the BFS tree (BFS splits both ways).
        let g = gen::cycle(6);
        let n = 6u32;
        let parent: Vec<_> = (0..n)
            .map(|i| {
                (i > 0).then(|| {
                    let p = NodeId(i - 1);
                    let e = g.find_edge(p, NodeId(i)).expect("cycle edge");
                    (p, e)
                })
            })
            .collect();
        let dist: Vec<u32> = (0..n).collect();
        let order: Vec<NodeId> = (0..n).map(NodeId).collect();
        let path_tree = lcs_graph::RootedTree::from_parents(&g, NodeId(0), &parent, &dist, &order);
        let mut sess = Session::on(&g)
            .tree(TreeSource::Provided(path_tree))
            .partition(vec![vec![NodeId(0), NodeId(1)]])
            .backend(Backend::Distributed(SimConfig::default()))
            .build()
            .unwrap();
        let _ = sess.shortcut();
    }

    #[test]
    fn provided_tree_sets_the_root() {
        let g = gen::grid(5, 5);
        let tree = bfs::bfs_tree(&g, NodeId(12));
        let mut s = Session::on(&g)
            .tree(TreeSource::Provided(tree.clone()))
            .build()
            .unwrap();
        assert_eq!(s.root(), NodeId(12));
        assert_eq!(s.tree().parent(NodeId(0)), tree.parent(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "no partition")]
    fn partition_ops_demand_a_partition() {
        let g = gen::path(4);
        let mut s = Session::on(&g).build().unwrap();
        let _ = s.shortcut();
    }

    #[test]
    fn op_artifacts_build_once_and_share_one_allocation() {
        struct Expensive(usize);
        let mut s = grid_session(6);
        let mut builds = 0;
        let a = s.op_artifact(|g, partition, shortcut| {
            builds += 1;
            Expensive(g.num_nodes() + partition.num_parts() + shortcut.num_parts())
        });
        let b = s.op_artifact(|_, _, _| -> Expensive { unreachable!("cached after first build") });
        assert_eq!(builds, 1);
        assert!(Arc::ptr_eq(&a, &b), "one shared allocation");
        assert_eq!(a.0, 36 + 6 + 6);
        // Accessing the artifact forced the full shortcut exactly once.
        assert_eq!(constructed(&s), 1);
        assert_eq!(s.cache_stats().op_artifacts.builds, 1);
        assert_eq!(s.cache_stats().op_artifacts.hits, 1);
    }

    #[test]
    fn op_artifacts_are_invalidated_by_partition_changes() {
        // The pre-epoch cache served stale op artifacts across partition
        // changes; pin the fix.
        struct PartCount(usize);
        let mut s = grid_session(4);
        let a = s.op_artifact(|_, partition, _| PartCount(partition.num_parts()));
        assert_eq!(a.0, 4);
        let two_rows: Vec<Vec<NodeId>> =
            vec![(0..8).map(NodeId).collect(), (8..16).map(NodeId).collect()];
        s.set_partition(two_rows).unwrap();
        let b = s.op_artifact(|_, partition, _| PartCount(partition.num_parts()));
        assert_eq!(b.0, 2, "artifact must rebuild against the new partition");
        assert_eq!(s.cache_stats().op_artifacts.builds, 2);
        assert_eq!(s.cache_stats().op_artifacts.invalidations, 1);
    }

    #[test]
    fn op_artifacts_respect_declared_dependency_sets() {
        struct TreeScoped(#[allow(dead_code)] u32);
        let mut s = grid_session(4);
        let a = s.op_artifact_with(deps::TREE, |s| TreeScoped(s.tree().depth_of_tree()));
        s.set_partition(gen::rows_of_grid(4, 4)).unwrap();
        let b = s.op_artifact_with(deps::TREE, |_| -> TreeScoped {
            unreachable!("tree-scoped artifacts survive partition churn")
        });
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn reassign_recustomizes_incrementally() {
        let mut s = grid_session(8);
        let _ = s.quality();
        assert_eq!(s.cache_stats().full.builds, 1);
        // Move the first node of row 1 into row 0's part: both stay
        // connected (rows are paths; (1,0)-(0,0) is a grid edge).
        let touched = s
            .reassign_parts(&[(NodeId(8), PartId(0))])
            .expect("move keeps both parts connected");
        assert_eq!(touched, vec![PartId(0), PartId(1)]);
        assert_eq!(s.partition().part_of(NodeId(8)), Some(PartId(0)));
        let q_patched = s.quality().clone();
        // No full rebuild happened — one incremental re-customization did.
        assert_eq!(s.cache_stats().full.builds, 1);
        assert_eq!(s.cache_stats().full.invalidations, 0);
        assert_eq!(s.cache_stats().recustomizations, 1);
        assert_eq!(s.cache_stats().recustomized_parts, 2);
        // The patched report is exactly what a fresh measurement of the
        // mutated session's shortcut yields.
        let tree = s.tree().clone();
        let fresh = measure_quality(s.graph(), s.partition(), &tree, s.shortcut_ref());
        assert_eq!(q_patched, fresh);
        assert!(q_patched.all_connected());
    }

    #[test]
    fn repeated_reassignments_accumulate_into_one_patch() {
        let mut s = grid_session(8);
        let _ = s.shortcut();
        // Two mutations before the next artifact access: the refresh must
        // cover the union of touched parts.
        s.reassign_parts(&[(NodeId(8), PartId(0))]).unwrap();
        s.reassign_parts(&[(NodeId(63), PartId(6))]).unwrap();
        let _ = s.quality();
        assert_eq!(s.cache_stats().full.builds, 1);
        assert_eq!(s.cache_stats().recustomizations, 1);
        assert_eq!(s.cache_stats().recustomized_parts, 4);
        let tree = s.tree().clone();
        let fresh = measure_quality(s.graph(), s.partition(), &tree, s.shortcut_ref());
        assert_eq!(s.quality(), &fresh);
    }

    #[test]
    fn reassign_error_leaves_the_session_untouched() {
        let mut s = grid_session(6);
        let _ = s.shortcut();
        let before = s.epochs();
        // Moving an interior row node away would disconnect its row.
        let err = s.reassign_parts(&[(NodeId(9), PartId(0))]).unwrap_err();
        assert!(matches!(err, PartitionError::Disconnected(1)));
        assert_eq!(s.epochs(), before, "failed mutations must not bump epochs");
        assert_eq!(s.partition().part_of(NodeId(9)), Some(PartId(1)));
        let _ = s.shortcut();
        assert_eq!(s.cache_stats().full.builds, 1);
    }

    #[test]
    fn noop_reassignment_is_free() {
        let mut s = grid_session(6);
        let _ = s.shortcut();
        let before = s.epochs();
        let touched = s.reassign_parts(&[(NodeId(7), PartId(1))]).unwrap();
        assert!(touched.is_empty(), "node already in its target part");
        assert_eq!(s.epochs(), before);
    }

    #[test]
    fn set_partition_invalidates_wholesale() {
        let mut s = grid_session(6);
        let _ = s.quality();
        assert_eq!(s.cache_stats().full.builds, 1);
        s.set_partition(gen::rows_of_grid(6, 6)).unwrap();
        let _ = s.quality();
        assert_eq!(s.cache_stats().full.builds, 2);
        assert_eq!(s.cache_stats().full.invalidations, 1);
        assert_eq!(s.cache_stats().quality.builds, 2);
        assert_eq!(s.cache_stats().recustomizations, 0);
    }

    #[test]
    fn config_mut_bumps_the_sim_epoch() {
        let mut s = grid_session(6);
        let _ = s.shortcut();
        let _ = s.config_mut(); // conservative: any access may change knobs
        let _ = s.shortcut();
        assert_eq!(s.cache_stats().full.builds, 2);
        assert_eq!(s.cache_stats().full.invalidations, 1);
    }

    #[test]
    fn weights_input_is_epoch_tracked() {
        struct TotalWeight(u64);
        let g = gen::grid(4, 4);
        let mut s = Session::on(&g)
            .partition(gen::rows_of_grid(4, 4))
            .weights(EdgeWeights::unit(&g))
            .build()
            .unwrap();
        let before = s.epochs();
        // Re-setting equal weights is a no-op.
        s.set_weights(EdgeWeights::unit(&g));
        assert_eq!(s.epochs(), before);
        let a = s.op_artifact_with(deps::WEIGHTED, |s| {
            TotalWeight(s.weights().total(s.graph().edges().map(|e| e.id)))
        });
        assert_eq!(a.0, g.num_edges() as u64);
        // Weight-scoped artifacts survive partition churn...
        s.set_partition(gen::rows_of_grid(4, 4)).unwrap();
        let b = s.op_artifact_with(deps::WEIGHTED, |_| -> TotalWeight {
            unreachable!("weight-scoped artifacts ignore the partition epoch")
        });
        assert!(Arc::ptr_eq(&a, &b));
        // ...but not weight updates.
        s.update_weights(&[(EdgeId(0), 11)]);
        let c = s.op_artifact_with(deps::WEIGHTED, |s| {
            TotalWeight(s.weights().total(s.graph().edges().map(|e| e.id)))
        });
        assert_eq!(c.0, g.num_edges() as u64 + 10);
    }

    #[test]
    fn op_artifact_patched_takes_the_incremental_path() {
        /// Tracks which parts were patched.
        struct EdgesPerPart(Vec<usize>);
        fn build(s: &mut ShortcutSession<'_>) -> EdgesPerPart {
            s.prepare();
            let sc = s.shortcut_ref();
            EdgesPerPart(
                (0..sc.num_parts())
                    .map(|p| sc.edges_for(PartId(p as u32)).len())
                    .collect(),
            )
        }
        let mut s = grid_session(8);
        let a = s.op_artifact_patched(deps::SHORTCUT, build, |_, _, _| {
            unreachable!("first access builds")
        });
        s.reassign_parts(&[(NodeId(8), PartId(0))]).unwrap();
        let b = s.op_artifact_patched(
            deps::SHORTCUT,
            |_| -> EdgesPerPart { unreachable!("tracked churn must patch, not rebuild") },
            |s, old, touched| {
                s.prepare();
                let sc = s.shortcut_ref();
                let mut v = old.0.clone();
                for &p in touched {
                    v[p.index()] = sc.edges_for(p).len();
                }
                EdgesPerPart(v)
            },
        );
        assert_eq!(b.0, build(&mut s).0, "patched == rebuilt from scratch");
        assert_eq!(s.cache_stats().op_artifact_patches, 1);
        // A wholesale replacement falls back to build.
        s.set_partition(gen::rows_of_grid(8, 8)).unwrap();
        let c = s.op_artifact_patched(deps::SHORTCUT, build, |_, _, _| {
            unreachable!("wholesale changes cannot be patched")
        });
        assert_eq!(c.0.len(), 8);
        drop(a);
    }

    #[test]
    fn op_artifact_swap_replaces_a_fresh_value_only() {
        #[derive(Debug, PartialEq)]
        struct Learned(u32);
        let mut s = grid_session(8);
        s.op_artifact_swap(Learned(7)); // no slot yet: nothing to replace
        assert_eq!(*s.op_artifact(|_, _, _| Learned(0)), Learned(0));
        let before = *s.cache_stats();
        s.op_artifact_swap(Learned(1));
        assert_eq!(*s.cache_stats(), before, "a swap is no build, hit or patch");
        let cached = s.op_artifact(|_, _, _| -> Learned { unreachable!("cached") });
        assert_eq!(*cached, Learned(1));
        // A value learned under an older partition must not resurface.
        s.reassign_parts(&[(NodeId(8), PartId(0))]).unwrap();
        s.op_artifact_swap(Learned(2));
        assert_eq!(*s.op_artifact(|_, _, _| Learned(0)), Learned(0));
    }

    #[test]
    fn quality_is_shared_not_cloned() {
        let mut s = grid_session(6);
        let a = s.quality_shared().expect("session has a partition");
        let b = s.quality_shared().expect("session has a partition");
        assert!(Arc::ptr_eq(&a, &b), "reports share the cached allocation");
        assert_eq!(constructed(&s), 1);
    }

    #[test]
    fn config_sim_overrides_resolve() {
        let mut cfg = SessionConfig::default();
        assert_eq!(cfg.aggregate_sim(), cfg.sim);
        let over = SimConfig {
            threads: 4,
            ..SimConfig::default()
        };
        cfg.unicast.sim = Some(over);
        assert_eq!(cfg.unicast_sim(), over);
        assert_eq!(cfg.mst_sim(), cfg.sim);
        assert_eq!(cfg.mincut_sim(), cfg.sim);
    }

    #[test]
    fn try_refs_report_lifecycle_states() {
        let mut s = grid_session(5);
        // Never prepared: both shared-reference accessors are NotPrepared.
        assert_eq!(
            s.try_shortcut_ref().unwrap_err(),
            SessionError::NotPrepared {
                artifact: "shortcut"
            }
        );
        assert_eq!(
            s.try_tree_ref().unwrap_err(),
            SessionError::NotPrepared { artifact: "tree" }
        );
        s.prepare();
        assert!(s.try_shortcut_ref().is_ok());
        assert!(s.try_tree_ref().is_ok());
        // Partition churn stales the shortcut (the tree does not depend on
        // the partition, so it stays fresh).
        s.reassign_parts(&[(NodeId(0), PartId(1))])
            .expect("row move keeps parts connected");
        assert_eq!(
            s.try_shortcut_ref().unwrap_err(),
            SessionError::Stale {
                artifact: "shortcut"
            }
        );
        assert!(s.try_tree_ref().is_ok());
        s.prepare();
        assert!(s.try_shortcut_ref().is_ok());
    }

    #[test]
    #[should_panic(expected = "shortcut stale — an input changed since prepare()")]
    fn shortcut_ref_panic_message_is_unchanged() {
        let mut s = grid_session(5);
        s.prepare();
        s.reassign_parts(&[(NodeId(0), PartId(1))])
            .expect("row move keeps parts connected");
        let _ = s.shortcut_ref();
    }

    #[test]
    fn try_accessors_report_missing_inputs() {
        let g = gen::path(4);
        let mut s = Session::on(&g).build().unwrap();
        assert_eq!(s.try_partition().unwrap_err(), SessionError::NoPartition);
        assert_eq!(s.try_weights().unwrap_err(), SessionError::NoWeights);
        assert_eq!(s.try_quality().unwrap_err(), SessionError::NoPartition);
        assert_eq!(
            s.try_full_artifact().unwrap_err(),
            SessionError::NoPartition
        );
        assert_eq!(s.try_partial(1).unwrap_err(), SessionError::NoPartition);
        assert_eq!(
            s.try_update_weights(&[(EdgeId(0), 2)]).unwrap_err(),
            SessionError::NoWeights
        );
    }

    #[test]
    fn try_partial_rejects_zero_delta_hat() {
        let mut s = grid_session(4);
        assert_eq!(s.try_partial(0).unwrap_err(), SessionError::ZeroDeltaHat);
        assert!(s.try_partial(1).is_ok());
    }

    #[test]
    fn try_update_weights_validates_edges_atomically() {
        let mut s = grid_session(4);
        let m = s.graph().num_edges();
        s.set_weights(EdgeWeights::unit(s.graph()));
        let before = s.epochs();
        let err = s
            .try_update_weights(&[(EdgeId(0), 7), (EdgeId(m as u32), 9)])
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::EdgeOutOfRange {
                edge: EdgeId(m as u32),
                num_edges: m
            }
        );
        // Rejected updates leave weights and epochs untouched.
        assert_eq!(s.epochs(), before);
        assert_eq!(s.weights().weight(EdgeId(0)), 1);
        s.try_update_weights(&[(EdgeId(0), 7)]).expect("in range");
        assert_eq!(s.weights().weight(EdgeId(0)), 7);
    }

    #[test]
    fn try_set_weights_validates_length() {
        let mut s = grid_session(4);
        let g2 = gen::path(3);
        let err = s.try_set_weights(EdgeWeights::unit(&g2)).unwrap_err();
        assert_eq!(
            err,
            SessionError::WeightCountMismatch {
                got: 2,
                expected: s.graph().num_edges()
            }
        );
        assert!(
            s.try_weights().is_err(),
            "rejected weights are not installed"
        );
    }

    #[test]
    fn try_reassign_parts_reports_typed_errors() {
        let mut s = grid_session(4);
        let parts = s.partition().num_parts();
        // Target part out of range: typed error instead of the panic the
        // legacy `reassign_parts` keeps.
        let err = s
            .try_reassign_parts(&[(NodeId(0), PartId(parts as u32))])
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::PartOutOfRange {
                part: PartId(parts as u32),
                num_parts: parts
            }
        );
        // Node out of range flows through as a wrapped PartitionError.
        let n = s.graph().num_nodes();
        let err = s
            .try_reassign_parts(&[(NodeId(n as u32), PartId(0))])
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::Partition(PartitionError::OutOfRange(NodeId(n as u32)))
        );
        // And the happy path still reassigns.
        let touched = s
            .try_reassign_parts(&[(NodeId(0), PartId(1))])
            .expect("row move keeps parts connected");
        assert_eq!(touched.len(), 2);
    }

    #[test]
    fn session_error_display_matches_legacy_messages() {
        assert_eq!(SessionError::NoPartition.to_string(), NO_PARTITION);
        assert_eq!(SessionError::NoWeights.to_string(), NO_WEIGHTS);
        assert_eq!(
            SessionError::NotPrepared {
                artifact: "shortcut"
            }
            .to_string(),
            "shortcut not prepared — call prepare() first"
        );
        assert_eq!(
            SessionError::Stale { artifact: "tree" }.to_string(),
            "tree stale — an input changed since prepare(); call prepare() again"
        );
        assert_eq!(
            SessionError::ZeroDeltaHat.to_string(),
            "δ̂ must be at least 1"
        );
    }
}
