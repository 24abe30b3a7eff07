//! What a session is configured with: tree source, construction backend,
//! and the one serde-able [`SessionConfig`].

use crate::dist::{DistConfig, DistMode};
use crate::source::{GraphSource, PartitionSource};
use lcs_congest::SimConfig;
use lcs_graph::{NodeId, RootedTree};
use serde::{Deserialize, Serialize};

/// Where the session's spanning tree comes from.
#[derive(Clone, Debug)]
pub enum TreeSource {
    /// BFS from this root on the session backend: computed centrally, or by
    /// the simulated flood of the distributed backends (the same
    /// min-id-parent tree either way; the flood's rounds are charged).
    Bfs(NodeId),
    /// Use a caller-provided rooted tree (e.g. deserialized from a prior
    /// run, or a non-BFS tree for experiments). Every backend constructs
    /// over it; no BFS is run or charged.
    Provided(RootedTree),
}

/// The execution backend shortcut construction runs on.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Backend {
    /// Centralized Theorem 1.2 construction (no simulated rounds charged).
    Centralized,
    /// Distributed Theorem 1.5 construction with exact set streaming on the
    /// CONGEST simulator, using this simulator configuration: the BFS
    /// flood and every detection sweep — of the first construction and of
    /// each re-customization — are simulated and charged. Reproduces the
    /// centralized cut set edge-for-edge.
    Distributed(SimConfig),
    /// Distributed Theorem 1.5 construction with the given detection
    /// configuration — typically [`DistMode::Sketch`], which caps per-edge
    /// traffic at `t + 1` messages and makes `n = 10⁵` affordable.
    Sketch(DistConfig),
}

impl Backend {
    /// The Theorem 1.5 protocol configuration this backend runs, or `None`
    /// for [`Backend::Centralized`]: [`Backend::Distributed`] is exact set
    /// streaming on its simulator settings, [`Backend::Sketch`] carries
    /// its own.
    pub fn dist_config(&self) -> Option<DistConfig> {
        match *self {
            Backend::Centralized => None,
            Backend::Distributed(sim) => Some(DistConfig {
                mode: DistMode::Exact,
                sim,
            }),
            Backend::Sketch(dist) => Some(dist),
        }
    }
}

/// What a session is configured with, in one serde-able struct a service
/// can load from disk: the simulator settings and the two declarative
/// sources. Ops have no knobs: a session constructs with
/// [`ShortcutConfig::default`](crate::ShortcutConfig::default) (Theorem
/// 3.1's `c = 8δ̂D`) and aggregates without start delays; unicast routing,
/// Boruvka (its coins are public, from a fixed seed) and the min-cut
/// approximation read only [`sim`](Self::sim). Callers that sweep the
/// construction constant or the delays pass them to the explicit entry
/// points: [`construct`](crate::construct) takes a `ShortcutConfig`,
/// `AggregateOp::run_on` / `run_masked` a `delay_range`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Simulator settings every op inherits: [`SimConfig::threads`]
    /// selects the lane count — by default every core, at most one lane
    /// per [`GRAIN`](lcs_congest::GRAIN) nodes, with worker threads only
    /// from a run's first heavy round — [`SimConfig::max_rounds`] caps
    /// each run, and [`SimConfig::message_packing`] is the multi-value
    /// packing factor (`k > 1` coalesces burst sends into multi-value
    /// CONGEST messages, cutting rounds on streaming workloads like the
    /// sketch construction while leaving every result bit-identical). Its
    /// [`mode`](SimConfig::mode) is read by nothing a session runs: every
    /// op forces [`Queued`](lcs_congest::SimMode::Queued), and
    /// construction runs on the backend's own `SimConfig`.
    pub sim: SimConfig,
    /// Declarative partition source, resolved at
    /// [`build`](super::SessionBuilder::build) time when the builder was
    /// given no explicit partition (an explicit `.partition(..)` always
    /// wins). Lets one serde-able config
    /// carry the whole session recipe — including *how* to partition —
    /// across processes. Sources must cover every node
    /// ([`Partition::from_parts_covering`](crate::Partition::from_parts_covering)).
    pub partition_source: Option<PartitionSource>,
    /// Declarative graph source — *where the graph came from*. Sessions
    /// always run over the explicit [`Graph`](lcs_graph::Graph) handed to
    /// [`Session::on`](super::Session::on) (the graph is the session's
    /// borrowed substrate, so an explicit graph always wins, mirroring the
    /// [`partition_source`](Self::partition_source) precedence); this
    /// field makes the recipe serde-able end to end:
    /// [`GraphSource::resolve`](crate::GraphSource::resolve) +
    /// [`ResolvedGraph::session`](crate::ResolvedGraph::session) start a
    /// builder from the recorded source; `lcs_server` fills it in from the
    /// session spec's `graph`.
    pub graph_source: Option<GraphSource>,
}
