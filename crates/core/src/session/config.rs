//! What a session is configured with: tree source, construction backend,
//! and the one serde-able [`SessionConfig`] with one option block per op —
//! the only place an op knob is declared.

use crate::dist::{DistConfig, DistMode};
use crate::source::{GraphSource, PartitionSource};
use crate::ShortcutConfig;
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

/// Knobs of leader-based part-wise aggregation (`AggregateOp`, and the
/// aggregations inside every Boruvka phase).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AggregateOpts {
    /// Leaders delay their start uniformly in `[0, delay_range)` rounds,
    /// drawn from a fixed seed — the random-delays scheduling of many parts
    /// sharing edges (Lemma 2.8). `0` (the default) disables it. It pays
    /// where parts contend: at `delay_range = 2c` on the Lemma 3.2
    /// topology (`c` the shortcut congestion) the aggregate takes fewer
    /// rounds for somewhat more messages (`experiments e5`).
    pub delay_range: u32,
}

/// Every knob in one serde-able struct a service can load from disk:
/// shortcut-construction parameters, the simulator configuration every op
/// runs on, and one block per op that has knobs — only aggregation has
/// any: unicast routing, Boruvka (its coins are public, from a fixed seed)
/// and the min-cut approximation have none. The explicit-artifact entry points
/// (`AggregateOp::run_on`, `distributed_mst`, …) read these same blocks.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Theorem 3.1 construction constant (the congestion factor).
    pub shortcut: ShortcutConfig,
    /// Simulator settings every op inherits (ops force the queue mode they
    /// need; [`SimConfig::threads`] selects the lane count — by default
    /// every core, at most one lane per [`GRAIN`](lcs_congest::GRAIN)
    /// nodes, with worker threads only from a run's first heavy round — and
    /// [`SimConfig::message_packing`] the multi-value packing factor —
    /// `k > 1` coalesces burst sends into multi-value CONGEST messages,
    /// cutting rounds on streaming workloads like the sketch construction
    /// while leaving every result bit-identical).
    pub sim: SimConfig,
    /// Aggregation knobs.
    pub aggregate: AggregateOpts,
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
