//! The typed builder: `Session::on(&graph)` … `.build()`.

use super::cache::{CacheStats, Slot, TOPOLOGY_ONLY};
use super::{Backend, GraphHandle, SessionConfig, SessionError, ShortcutSession, TreeSource};
use crate::dist::{DistConfig, DistMode};
use crate::source::{GraphSource, PartitionSource};
use crate::{ConstructionStats, Partition};
use lcs_graph::{Graph, NodeId};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Entry point of the builder: `Session::on(&graph)`.
pub struct Session;

impl Session {
    /// Starts building a session that borrows `g`.
    pub fn on(g: &Graph) -> SessionBuilder<'_> {
        Self::over(GraphHandle::Borrowed(g))
    }

    /// Starts building a session that co-owns `g`, so it can outlive the
    /// scope that built it; the graph is freed with its last holder.
    pub fn shared(g: Arc<Graph>) -> SessionBuilder<'static> {
        Self::over(GraphHandle::Shared(g))
    }

    fn over(g: GraphHandle<'_>) -> SessionBuilder<'_> {
        SessionBuilder {
            g,
            tree: None,
            parts: None,
            backend: Backend::Centralized,
            config: SessionConfig::default(),
            partition_source: None,
            graph_source: None,
        }
    }
}

/// Builder for [`ShortcutSession`]. Construction is free: no tree and no
/// shortcut is computed until an accessor or operation first needs it.
/// Setters may come in any order: each input has its own field, and the
/// two sources are merged into the config at [`build`](Self::build).
pub struct SessionBuilder<'g> {
    g: GraphHandle<'g>,
    tree: Option<TreeSource>,
    parts: Option<Vec<Vec<NodeId>>>,
    backend: Backend,
    config: SessionConfig,
    partition_source: Option<PartitionSource>,
    graph_source: Option<GraphSource>,
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
        self
    }

    /// Sets a declarative [`PartitionSource`], resolved against the graph
    /// at [`build`](Self::build) time (stored in
    /// [`SessionConfig::partition_source`], so the whole recipe stays in
    /// the one serde-able config; a `.config(..)` carrying a different
    /// source, before or after this call, fails the build with
    /// [`SessionError::ConflictingSources`]). An explicit `.partition(..)`
    /// takes precedence. The resolved parts must cover every node —
    /// [`build`](Self::build) returns
    /// [`PartitionError::Uncovered`](crate::PartitionError::Uncovered)
    /// otherwise (e.g. a Voronoi source on a disconnected graph).
    pub fn partition_source(mut self, source: PartitionSource) -> Self {
        self.partition_source = Some(source);
        self
    }

    /// Records the declarative [`GraphSource`] the session's graph came
    /// from (stored in [`SessionConfig::graph_source`], so the whole
    /// recipe stays in the one serde-able config; as with
    /// [`partition_source`](Self::partition_source), a `.config(..)`
    /// naming a different one fails the build). The explicit graph
    /// handed to [`Session::on`] always wins — the source is provenance,
    /// resolved (if at all) *before* the builder exists via
    /// [`GraphSource::resolve`](crate::GraphSource::resolve) /
    /// [`ResolvedGraph::session`](crate::ResolvedGraph::session), which
    /// calls this setter for you.
    pub fn graph_source(mut self, source: GraphSource) -> Self {
        self.graph_source = Some(source);
        self
    }

    /// Sets the construction backend (default: [`Backend::Centralized`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the session configuration (default: [`SessionConfig::default`]).
    /// Sources set by their own setters are kept, whatever the order.
    pub fn config(mut self, config: SessionConfig) -> Self {
        self.config = config;
        self
    }

    /// Finishes the builder: the one place a session's inputs are checked,
    /// before anything is computed or cached.
    ///
    /// # Errors
    ///
    /// [`SessionError::NodeOutOfRange`] for a tree root the graph does not
    /// have; [`SessionError::SketchCapacityTooSmall`];
    /// [`SessionError::ConflictingSources`] for a source setter and the
    /// config naming two different sources;
    /// [`SessionError::Partition`] for node lists or a source that fail
    /// validation (a source must also cover every node) or reach outside
    /// the component the tree spans
    /// ([`PartitionError::OffTree`](crate::PartitionError::OffTree)).
    pub fn build(mut self) -> Result<ShortcutSession<'g>, SessionError> {
        let config = &mut self.config;
        config.partition_source = merge(
            self.partition_source,
            config.partition_source.take(),
            "partition_source",
        )?;
        config.graph_source = merge(
            self.graph_source,
            config.graph_source.take(),
            "graph_source",
        )?;
        let g: &Graph = &self.g;
        let source = self.tree.unwrap_or(TreeSource::Bfs(NodeId(0)));
        let (root, tree) = match source {
            TreeSource::Bfs(r) => (r, None),
            TreeSource::Provided(t) => (t.root(), Some(t)),
        };
        if root.index() >= g.num_nodes() {
            return Err(SessionError::NodeOutOfRange {
                node: root,
                num_nodes: g.num_nodes(),
            });
        }
        if let Some(DistConfig {
            mode: DistMode::Sketch { t: 0 | 1, .. },
            ..
        }) = self.backend.dist_config()
        {
            return Err(SessionError::SketchCapacityTooSmall);
        }
        let partition = match (self.parts, &self.config.partition_source) {
            (Some(lists), _) => Some(Partition::from_parts(g, lists)?),
            (None, Some(src)) => Some(Partition::from_parts_covering(g, src.resolve(g))?),
            (None, None) => None,
        };
        let session = ShortcutSession {
            g: self.g,
            root,
            partition,
            backend: self.backend,
            config: self.config,
            epoch: 0,
            tree: tree.map(|t| Slot::new(t, 0, TOPOLOGY_ONLY)),
            full: None,
            op_artifacts: HashMap::new(),
            partition_log: VecDeque::new(),
            stats: CacheStats::default(),
            construction: ConstructionStats::default(),
        };
        if let Some(partition) = &session.partition {
            session.check_parts_on_tree(partition)?;
        }
        Ok(session)
    }
}

/// A source from its own setter and the one in the config: whichever is
/// set, or either when both are and they agree.
fn merge<T: PartialEq>(
    setter: Option<T>,
    config: Option<T>,
    field: &'static str,
) -> Result<Option<T>, SessionError> {
    match (setter, config) {
        (Some(a), Some(b)) if a != b => Err(SessionError::ConflictingSources { field }),
        (a, b) => Ok(a.or(b)),
    }
}
