//! Shared server state: the warm-session LRU and the graphs it keeps alive.
//!
//! # Ownership and locking model
//!
//! A served graph is an [`Arc<Graph>`] held by the sessions built over it
//! ([`Session::shared`]) and by their [`SessionEntry`]s — nothing else. A
//! create whose [`GraphSource`] equals that of a live session borrows
//! that session's `Arc` instead of building the graph again, so identical
//! sources share one allocation; when the LRU drops the last session over
//! a graph (and in-flight requests let go of it), the graph is freed.
//! There is no graph table and no cap on distinct graphs: the session
//! capacity bounds both.
//!
//! Sessions live behind a two-level locking scheme:
//!
//! 1. the registry's own [`Mutex`] guards the LRU-ordered session list
//!    and the counters, and is held only for lookups/insertions
//!    (microseconds);
//! 2. each [`SessionEntry`] wraps its `ShortcutSession` in a per-session
//!    [`Mutex`] held for the duration of one op — concurrent clients on
//!    *one* session serialize (the artifact cache is single-writer by
//!    design), clients on *different* sessions run in parallel.
//!
//! Lock acquisition ignores poisoning (`PoisonError::into_inner`): a
//! panicking handler must not condemn its session — the epoch-tracked
//! artifact graph is kept consistent by the fallible `try_*` session APIs
//! (validation happens before any state change), so the state behind a
//! poisoned lock is still sound.
//!
//! The LRU is keyed by the canonical JSON of the full session spec
//! `(graph, partition, backend, config)` — re-POSTing an identical spec
//! returns the warm session (a *hit*) instead of rebuilding its artifacts,
//! which is where the serve-many economics of the shortcut session come
//! from. When the capacity is exceeded the least-recently-used session is
//! dropped; in-flight requests holding its `Arc` finish undisturbed.
//!
//! A session spec is checked in one place, [`SessionBuilder::build`]
//! (reached through [`SessionSpec::build_session`]): partition, tree
//! root and backend. What is checked here is the server's own policy —
//! the node cap, and the shape of the JSON.
//!
//! [`SessionBuilder::build`]: lcs_core::session::SessionBuilder::build

use crate::error::ApiError;
use crate::json;
use crate::metrics::Metrics;
use lcs_core::session::{
    Backend, Session, SessionConfig, SessionError, ShortcutSession, TreeSource,
};
use lcs_core::{GeneratorSpec, GraphSource, PartitionSource};
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{gen, Graph, NodeId};
use serde::{Deserialize, Serialize, Value};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Duration;

/// Tunables of one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Fixed worker-thread count.
    pub workers: usize,
    /// Request-body cap in bytes (413 beyond it).
    pub max_body: usize,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
    /// Warm-session LRU capacity (which bounds the live graphs too).
    pub session_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_body: 1 << 20,
            io_timeout: Duration::from_secs(10),
            session_capacity: 16,
        }
    }
}

/// Everything the workers share.
pub struct AppState {
    /// Server tunables.
    pub config: ServerConfig,
    /// The warm-session LRU.
    pub registry: Registry,
    /// Serving counters and latency histogram.
    pub metrics: Metrics,
    /// Set by `POST /shutdown` or [`crate::ServerHandle::shutdown`];
    /// workers drain their current connection and exit.
    pub shutdown: AtomicBool,
    /// The bound address (filled in after bind).
    pub addr: Mutex<Option<SocketAddr>>,
    /// Clones of the live connections' streams, so shutdown can close
    /// keep-alive connections whose workers are blocked waiting for the
    /// next request (instead of waiting out the read timeout).
    pub connections: Mutex<Vec<Option<TcpStream>>>,
}

impl AppState {
    /// Fresh state for one server instance.
    pub fn new(config: ServerConfig) -> Self {
        let registry = Registry::new(config.session_capacity);
        AppState {
            config,
            registry,
            metrics: Metrics::default(),
            shutdown: AtomicBool::new(false),
            addr: Mutex::new(None),
            connections: Mutex::new(Vec::new()),
        }
    }

    /// Registers a live connection; returns its slot for
    /// [`unregister_connection`](Self::unregister_connection).
    pub fn register_connection(&self, stream: &TcpStream) -> usize {
        let clone = stream.try_clone().ok();
        let mut slots = self
            .connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(i) = slots.iter().position(Option::is_none) {
            slots[i] = clone;
            i
        } else {
            slots.push(clone);
            slots.len() - 1
        }
    }

    /// Frees a connection slot.
    pub fn unregister_connection(&self, slot: usize) {
        let mut slots = self
            .connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(s) = slots.get_mut(slot) {
            *s = None;
        }
    }

    /// Force-closes every live connection so workers blocked reading the
    /// next keep-alive request return immediately during shutdown.
    pub fn close_connections(&self) {
        let slots = self
            .connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for stream in slots.iter().flatten() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// One warm session: the graph it shares, the canonical spec it was
/// created from, and the session behind its per-session lock.
pub struct SessionEntry {
    /// Registry-assigned id (`s0`, `s1`, …).
    pub id: String,
    /// The normalized spec: the LRU key, echoed by `GET /sessions`.
    pub spec: Value,
    /// The spec's graph source: what a later create compares its own
    /// against to share [`graph`](Self::graph).
    source: GraphSource,
    /// The graph this session serves: the allocation the session itself
    /// holds, shared with every live session created from the same source.
    pub graph: Arc<Graph>,
    /// The warm session; see the module docs for the locking model.
    pub session: Mutex<ShortcutSession<'static>>,
}

impl SessionEntry {
    /// Locks the session, ignoring poisoning (see module docs).
    pub fn lock(&self) -> MutexGuard<'_, ShortcutSession<'static>> {
        self.session.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The session if no op holds it right now — what the read-only
    /// observability endpoints use, so a scrape never queues behind a
    /// running op. Poisoning is ignored as in [`lock`](Self::lock).
    pub fn try_lock(&self) -> Option<MutexGuard<'_, ShortcutSession<'static>>> {
        match self.session.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

/// Client-supplied parts as the node lists the session validates.
pub fn node_lists(parts: &[Vec<u32>]) -> Vec<Vec<NodeId>> {
    parts
        .iter()
        .map(|p| p.iter().map(|&v| NodeId(v)).collect())
        .collect()
}

/// Client-supplied weights as [`EdgeWeights`] of `graph`: one per edge, or
/// a 400 (`EdgeWeights::from_vec` panics on a length mismatch).
pub fn edge_weights(graph: &Graph, weights: Vec<u64>) -> Result<EdgeWeights, ApiError> {
    if weights.len() != graph.num_edges() {
        return Err(ApiError::bad_args(format!(
            "one weight per edge required — got {}, the graph has {} edges",
            weights.len(),
            graph.num_edges()
        )));
    }
    Ok(EdgeWeights::from_vec(graph, weights))
}

/// Point-in-time registry counters for `GET /metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegistryStats {
    /// `POST /sessions` calls answered by a warm session.
    pub hits: u64,
    /// `POST /sessions` calls that built a new session.
    pub misses: u64,
    /// Sessions dropped by the LRU bound.
    pub evictions: u64,
    /// Live sessions.
    pub sessions: usize,
    /// Distinct live graphs (each freed with its last session).
    pub graphs: usize,
}

#[derive(Default)]
struct RegistryInner {
    /// Live sessions, least recently used first.
    sessions: Vec<Arc<SessionEntry>>,
    next_id: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl RegistryInner {
    /// The first session `wanted` accepts, moved to the most-recently-used
    /// end.
    fn touch(&mut self, wanted: impl Fn(&SessionEntry) -> bool) -> Option<Arc<SessionEntry>> {
        let at = self.sessions.iter().position(|e| wanted(e))?;
        let entry = self.sessions.remove(at);
        self.sessions.push(entry.clone());
        Some(entry)
    }
}

/// The warm-session LRU (see module docs).
pub struct Registry {
    session_capacity: usize,
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry holding at most `session_capacity` sessions.
    pub fn new(session_capacity: usize) -> Self {
        Registry {
            session_capacity: session_capacity.max(1),
            inner: Mutex::default(),
        }
    }

    fn locked(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Resolves a session by id, refreshing its LRU position.
    pub fn get(&self, id: &str) -> Option<Arc<SessionEntry>> {
        self.locked().touch(|e| e.id == id)
    }

    /// All live sessions, without touching the LRU order.
    pub fn snapshot(&self) -> Vec<Arc<SessionEntry>> {
        let mut all = self.locked().sessions.clone();
        all.sort_by(|a, b| a.id.cmp(&b.id));
        all
    }

    /// Current counters.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.locked();
        let mut graphs: Vec<_> = inner
            .sessions
            .iter()
            .map(|e| Arc::as_ptr(&e.graph))
            .collect();
        graphs.sort_unstable();
        graphs.dedup();
        RegistryStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            sessions: inner.sessions.len(),
            graphs: graphs.len(),
        }
    }

    /// Returns the warm session for `spec` or builds (and caches) a new
    /// one. The boolean is `true` when a session was built.
    pub fn get_or_create(&self, spec: &SessionSpec) -> Result<(Arc<SessionEntry>, bool), ApiError> {
        let spec_value = spec.canonical_value();
        let warm = |inner: &mut RegistryInner| {
            let entry = inner.touch(|e| e.spec == spec_value)?;
            inner.hits += 1;
            Some((entry, false))
        };
        if let Some(hit) = warm(&mut self.locked()) {
            return Ok(hit);
        }

        // Build outside the registry lock (graph generation and session
        // construction can take milliseconds); a concurrent identical
        // create is resolved at insertion time below. A refused create
        // drops what it built; two creates racing on a source no live
        // session holds each build it, and each copy goes with its session.
        let live = self
            .locked()
            .sessions
            .iter()
            .find_map(|e| (e.source == spec.graph).then(|| e.graph.clone()));
        let graph = match live {
            Some(shared) => shared,
            None => Arc::new(build_graph(&spec.graph)?),
        };
        let session = spec.build_session(&graph)?;

        let mut inner = self.locked();
        // Lost the race: serve the winner's session.
        if let Some(hit) = warm(&mut inner) {
            return Ok(hit);
        }
        inner.misses += 1;
        let entry = Arc::new(SessionEntry {
            id: format!("s{}", inner.next_id),
            spec: spec_value,
            source: spec.graph.clone(),
            graph,
            session: Mutex::new(session),
        });
        inner.next_id += 1;
        inner.sessions.push(entry.clone());
        while inner.sessions.len() > self.session_capacity {
            inner.sessions.remove(0);
            inner.evictions += 1;
        }
        Ok((entry, true))
    }
}

/// Root of every served session's BFS tree.
const ROOT: NodeId = NodeId(0);

/// Node-count cap on served graphs (generator families are rejected at
/// parse time; file-backed graphs after loading).
const MAX_SERVED_NODES: u64 = 40_000_000;

fn check_served_size(nodes: u64) -> Result<(), ApiError> {
    if nodes > MAX_SERVED_NODES {
        return Err(ApiError::bad_args("graph too large for this server"));
    }
    Ok(())
}

/// What the server asks of a graph source before building anything: a
/// generator meets its family's preconditions (typed 422) and stays under
/// the node cap. File-backed graphs can only be measured after loading
/// ([`build_graph`]).
fn check_graph(source: &GraphSource) -> Result<(), ApiError> {
    let GraphSource::Generator(spec) = source else {
        return Ok(());
    };
    spec.validate()
        .map_err(|e| ApiError::unprocessable_graph(&e))?;
    check_served_size(spec.num_nodes())
}

/// Resolves the source into a graph, mapping every
/// [`lcs_core::GraphSourceError`] onto its structured 422/404.
fn build_graph(source: &GraphSource) -> Result<Graph, ApiError> {
    let resolved = source
        .resolve()
        .map_err(|e| ApiError::unprocessable_graph(&e))?;
    if resolved.graph.num_nodes() == 0 {
        return Err(ApiError::bad_args("cannot serve an empty graph"));
    }
    check_served_size(resolved.graph.num_nodes() as u64)?;
    Ok(resolved.graph)
}

/// The default partition for a source (`rows` for grids/tori, `None`
/// otherwise).
fn default_partition(source: &GraphSource) -> Option<Vec<Vec<NodeId>>> {
    match source {
        GraphSource::Generator(
            GeneratorSpec::Grid { rows, cols } | GeneratorSpec::Torus { rows, cols },
        ) => Some(gen::rows_of_grid(*rows, *cols)),
        _ => None,
    }
}

/// How the session partitions its graph.
#[derive(Clone, Debug, PartialEq)]
pub enum PartitionSpec {
    /// The graph family's default (rows for grids/tori, none otherwise).
    Default,
    /// No partition: tree/unicast/MST only.
    None,
    /// Explicit parts as node-id lists.
    Explicit(Vec<Vec<u32>>),
    /// A declarative [`PartitionSource`] resolved on the graph at build
    /// time, in its own wire form (`{"kind": "separator", "level": 3}`).
    /// The string `"singletons"` is shorthand for `{"kind": "singletons"}`
    /// and parses to the same value, hence the same LRU key.
    Source(PartitionSource),
}

impl PartitionSpec {
    fn from_value(v: &Value) -> Result<Self, ApiError> {
        match json::lookup(v, "partition") {
            None => Ok(PartitionSpec::Default),
            Some(Value::Str(s)) => match s.as_str() {
                "default" => Ok(PartitionSpec::Default),
                "none" => Ok(PartitionSpec::None),
                "singletons" => Ok(PartitionSpec::Source(PartitionSource::Singletons)),
                other => Err(ApiError::bad_args(format!(
                    "unknown partition kind `{other}` — one of default, none, singletons, \
                     a source object {{\"kind\": ...}}, or an explicit [[node, ...], ...] array"
                ))),
            },
            Some(Value::Obj(_)) => Ok(PartitionSpec::Source(json::require(v, "partition")?)),
            Some(_) => Ok(PartitionSpec::Explicit(json::require(v, "partition")?)),
        }
    }

    fn canonical_value(&self) -> Value {
        match self {
            PartitionSpec::Default => Value::Str("default".to_string()),
            PartitionSpec::None => Value::Str("none".to_string()),
            PartitionSpec::Explicit(parts) => parts.to_value(),
            PartitionSpec::Source(src) => src.to_value(),
        }
    }
}

/// A full, validated session spec — the LRU key domain.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionSpec {
    /// The graph to serve (`{"kind": "grid", "rows": 8, "cols": 8}`, …);
    /// live sessions with an equal source share one graph.
    pub graph: GraphSource,
    /// How to partition it.
    pub partition: PartitionSpec,
    /// Execution backend (default [`Backend::Centralized`]).
    pub backend: Option<Backend>,
    /// Full session configuration (default [`SessionConfig::default`]);
    /// `None` when it says nothing the default does not.
    pub config: Option<SessionConfig>,
}

/// The keys of a `POST /sessions` body, one per [`SessionSpec`] field.
const SPEC_KEYS: [&str; 4] = ["graph", "partition", "backend", "config"];

/// LEGACY ALIAS SHIM — delete once `benchmark/` POSTs `kind` (it is frozen
/// for every PR but a `[benchmark]` one, and the last client that spells
/// `{"family": "grid", ...}`): a graph object without `kind` has its
/// `family` key read as `kind`, and the family `file` as `edge_list_json`.
fn legacy_family_alias(graph: &Value) -> Value {
    let mut graph = graph.clone();
    let Value::Obj(fields) = &mut graph else {
        return graph;
    };
    if fields.iter().all(|(key, _)| key != "kind") {
        if let Some((key, name)) = fields.iter_mut().find(|(key, _)| key == "family") {
            *key = "kind".to_string();
            if *name == Value::Str("file".to_string()) {
                *name = Value::Str("edge_list_json".to_string());
            }
        }
    }
    graph
}

/// The path (under `prefix`) of the first key of `posted` that `parsed` —
/// the same value as it was understood, serialized back — lacks. Only
/// objects on both sides are compared.
fn unread_key(prefix: &str, posted: &Value, parsed: &Value) -> Option<String> {
    let (Value::Obj(posted), Value::Obj(parsed)) = (posted, parsed) else {
        return None;
    };
    posted.iter().find_map(|(key, value)| {
        let path = format!("{prefix}.{key}");
        match parsed.iter().find(|(k, _)| k == key) {
            None => Some(path),
            Some((_, known)) => unread_key(&path, value, known),
        }
    })
}

impl SessionSpec {
    /// Parses and validates a `POST /sessions` body.
    pub fn from_value(v: &Value) -> Result<Self, ApiError> {
        // A key the spec does not have would be a silently different
        // session than the one the client described.
        if let Some((key, _)) = json::object(v)?
            .iter()
            .find(|(key, _)| !SPEC_KEYS.contains(&key.as_str()))
        {
            return Err(ApiError::bad_args(format!(
                "unknown field `{key}` — a session spec has {}",
                SPEC_KEYS.map(|k| format!("`{k}`")).join(", ")
            )));
        }
        let graph = json::lookup(v, "graph")
            .ok_or_else(|| ApiError::bad_args("missing required field `graph`"))?;
        let graph = GraphSource::from_value(&legacy_family_alias(graph))
            .map_err(|e| ApiError::bad_args(format!("field `graph`: {e}")))?;
        check_graph(&graph)?;
        let partition = PartitionSpec::from_value(v)?;
        let backend: Option<Backend> = json::optional(v, "backend")?;
        let mut config: Option<SessionConfig> = json::optional(v, "config")?;
        // The backend and config parsers skip keys they do not know, so any
        // key the parsed value does not write back was dropped — a silently
        // different session again (e.g. a knob that has been deleted).
        for (field, parsed) in [
            ("backend", backend.to_value()),
            ("config", config.to_value()),
        ] {
            let posted = json::lookup(v, field).unwrap_or(&Value::Null);
            if let Some(path) = unread_key(field, posted, &parsed) {
                return Err(ApiError::bad_args(format!(
                    "unknown field `{path}` — the server has no such setting \
                     (`GET /defaults` lists the config keys)"
                )));
            }
        }
        // The session records `graph` as its provenance, so a config may
        // only repeat it; what is left is dropped when it is all defaults,
        // so every spelling of one session shares one LRU key.
        if let Some(c) = &mut config {
            if c.graph_source.take().is_some_and(|source| source != graph) {
                return Err(ApiError::bad_args(
                    "field `config.graph_source`: names a different graph than `graph` — \
                     leave it out or make the two equal",
                ));
            }
        }
        let config = config.filter(|c| *c != SessionConfig::default());
        Ok(SessionSpec {
            graph,
            partition,
            backend,
            config,
        })
    }

    /// The canonical JSON of the whole spec (the LRU key).
    pub fn canonical_value(&self) -> Value {
        Value::object([
            ("graph", self.graph.to_value()),
            ("partition", self.partition.canonical_value()),
            ("backend", self.backend.to_value()),
            ("config", self.config.to_value()),
        ])
    }

    /// Builds the session over `graph` through the session builder, which
    /// checks everything the spec can be refused for (see the module
    /// docs). A spec without a partition falls back to the config's
    /// source, as the builder does.
    pub fn build_session(&self, graph: &Arc<Graph>) -> Result<ShortcutSession<'static>, ApiError> {
        let mut builder = Session::shared(graph.clone()).tree(TreeSource::Bfs(ROOT));
        if let Some(backend) = &self.backend {
            builder = builder.backend(backend.clone());
        }
        if let Some(config) = &self.config {
            builder = builder.config(config.clone());
        }
        // Provenance: record which source produced the graph. Applied
        // after `.config(..)` so an explicit config does not erase it.
        builder = builder.graph_source(self.graph.clone());
        builder = match &self.partition {
            PartitionSpec::Default => match default_partition(&self.graph) {
                Some(rows) => builder.partition(rows),
                None => builder,
            },
            PartitionSpec::None => builder,
            PartitionSpec::Explicit(parts) => builder.partition(node_lists(parts)),
            PartitionSpec::Source(src) => builder.partition_source(src.clone()),
        };
        builder.build().map_err(|e| match e {
            SessionError::Partition(e) => ApiError::unprocessable_partition(&e),
            SessionError::SketchCapacityTooSmall => {
                ApiError::bad_args(format!("field `backend.Sketch.mode.Sketch.t`: {e}"))
            }
            e => e.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_spec(rows: usize, cols: usize) -> SessionSpec {
        let v = Value::object([(
            "graph",
            Value::object([
                ("kind", Value::Str("grid".to_string())),
                ("rows", Value::U64(rows as u64)),
                ("cols", Value::U64(cols as u64)),
            ]),
        )]);
        SessionSpec::from_value(&v).expect("valid spec")
    }

    #[test]
    fn identical_specs_share_one_warm_session() {
        let reg = Registry::new(4);
        let (a, created_a) = reg.get_or_create(&grid_spec(4, 4)).unwrap();
        let (b, created_b) = reg.get_or_create(&grid_spec(4, 4)).unwrap();
        assert!(created_a && !created_b);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = reg.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.graphs, 1);
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let reg = Registry::new(2);
        let (a, _) = reg.get_or_create(&grid_spec(3, 3)).unwrap();
        let (_b, _) = reg.get_or_create(&grid_spec(4, 4)).unwrap();
        // Touch a so the 3×3 session is the most recently used.
        assert!(reg.get(&a.id).is_some());
        let (_c, _) = reg.get_or_create(&grid_spec(5, 5)).unwrap();
        let stats = reg.stats();
        assert_eq!(stats.sessions, 2);
        assert_eq!(stats.evictions, 1);
        assert!(reg.get(&a.id).is_some(), "recently used survives");
    }

    #[test]
    fn eviction_frees_the_graph() {
        let reg = Registry::new(1);
        let (first, _) = reg.get_or_create(&grid_spec(3, 3)).unwrap();
        let graph = Arc::downgrade(&first.graph);
        drop(first);
        assert!(graph.upgrade().is_some(), "alive while its session is");
        reg.get_or_create(&grid_spec(4, 4)).unwrap();
        assert!(graph.upgrade().is_none(), "freed with its last session");
        let stats = reg.stats();
        assert_eq!((stats.sessions, stats.evictions, stats.graphs), (1, 1, 1));
    }

    #[test]
    fn live_sessions_over_one_source_share_its_graph() {
        let reg = Registry::new(2);
        let on_the_grid = |partition: &str| spec_with_partition(Value::Str(partition.to_string()));
        let (a, _) = reg.get_or_create(&on_the_grid("none")).unwrap();
        let (b, created) = reg.get_or_create(&on_the_grid("singletons")).unwrap();
        assert!(created, "another spec is another session");
        assert!(Arc::ptr_eq(&a.graph, &b.graph), "over the same allocation");
        assert!(
            std::ptr::eq(b.lock().graph(), &*b.graph),
            "which the session holds too"
        );
        assert_eq!(reg.stats().graphs, 1);
        // Once both are evicted the source is built again.
        let evicted = Arc::downgrade(&a.graph);
        drop((a, b));
        reg.get_or_create(&grid_spec(3, 3)).unwrap();
        reg.get_or_create(&grid_spec(4, 4)).unwrap();
        assert!(evicted.upgrade().is_none());
        let (again, created) = reg.get_or_create(&on_the_grid("none")).unwrap();
        assert!(created);
        assert_eq!(again.graph.num_nodes(), 36);
        assert_eq!(reg.stats().graphs, 2);
    }

    /// A create whose graph resolves but whose session inputs are refused
    /// keeps nothing alive: the graph it built is dropped with it.
    #[test]
    fn refused_creates_do_not_fill_the_graph_registry() {
        let reg = Registry::new(8);
        let grid = |side: u64| {
            Value::object([
                ("kind", Value::Str("grid".to_string())),
                ("rows", Value::U64(side)),
                ("cols", Value::U64(side)),
            ])
        };
        let u64s = |xs: &[u64]| Value::Arr(xs.iter().map(|&x| Value::U64(x)).collect());
        let path = TempPath::new("two_components.json");
        std::fs::write(&path.0, r#"{"n":6,"edges":[[0,1],[1,2],[3,4],[4,5]]}"#).unwrap();
        let two_components = || {
            Value::object([
                ("kind", Value::Str("edge_list_json".to_string())),
                ("path", Value::Str(path.as_str().to_string())),
            ])
        };
        let refused = [
            // Out-of-range node, disconnected part, and parts the tree of
            // node 0 cannot reach (`partition_off_tree`).
            Value::object([
                ("graph", grid(3)),
                ("partition", Value::Arr(vec![u64s(&[0, 99])])),
            ]),
            Value::object([
                ("graph", grid(4)),
                ("partition", Value::Arr(vec![u64s(&[0, 15])])),
            ]),
            Value::object([
                ("graph", two_components()),
                ("partition", Value::Arr(vec![u64s(&[3, 4, 5])])),
            ]),
            Value::object([
                ("graph", two_components()),
                ("partition", Value::Str("singletons".to_string())),
            ]),
        ];
        for body in &refused {
            let spec = SessionSpec::from_value(body).expect("parses");
            let err = reg.get_or_create(&spec).map(|_| ()).unwrap_err();
            assert_eq!(err.status, 422, "{}", err.message);
        }
        assert_eq!(reg.stats().graphs, 0, "refused creates keep no graph");
        let off_tree = SessionSpec::from_value(&refused[3]).expect("parses");
        let err = reg.get_or_create(&off_tree).map(|_| ()).unwrap_err();
        assert_eq!(err.code, "partition_off_tree", "{}", err.message);
        reg.get_or_create(&grid_spec(3, 3)).unwrap();
        reg.get_or_create(&grid_spec(4, 4)).unwrap();
        assert_eq!(reg.stats().graphs, 2);
    }

    #[test]
    fn explicit_partition_is_validated() {
        let v = Value::object([
            (
                "graph",
                Value::object([
                    ("kind", Value::Str("path".to_string())),
                    ("n", Value::U64(4)),
                ]),
            ),
            (
                "partition",
                Value::Arr(vec![Value::Arr(vec![Value::U64(0), Value::U64(9)])]),
            ),
        ]);
        let spec = SessionSpec::from_value(&v).expect("parses");
        let reg = Registry::new(4);
        let err = reg.get_or_create(&spec).map(|_| ()).unwrap_err();
        assert_eq!(err.status, 422);
    }

    fn spec_with_partition(partition: Value) -> SessionSpec {
        let v = Value::object([
            (
                "graph",
                Value::object([
                    ("kind", Value::Str("grid".to_string())),
                    ("rows", Value::U64(6)),
                    ("cols", Value::U64(6)),
                ]),
            ),
            ("partition", partition),
        ]);
        SessionSpec::from_value(&v).expect("valid spec")
    }

    /// A posted partition source and a `config.partition_source` naming
    /// another are refused, not resolved by whichever setter ran last.
    #[test]
    fn a_partition_source_the_config_contradicts_is_refused() {
        let mut spec = spec_with_partition(PartitionSource::Rows { rows: 6, cols: 6 }.to_value());
        spec.config = Some(SessionConfig {
            partition_source: Some(PartitionSource::Rows { rows: 3, cols: 12 }),
            ..SessionConfig::default()
        });
        let err = Registry::new(4)
            .get_or_create(&spec)
            .map(|_| ())
            .unwrap_err();
        assert_eq!((err.status, err.code), (422, "bad_args"));
        assert!(err.message.contains("partition_source"), "{}", err.message);
    }

    #[test]
    fn source_partitions_build_and_share_the_warm_lru() {
        let reg = Registry::new(4);
        for partition in [
            Value::object([
                ("kind", Value::Str("voronoi".to_string())),
                ("parts", Value::U64(4)),
                ("seed", Value::U64(7)),
            ]),
            Value::object([
                ("kind", Value::Str("separator".to_string())),
                ("level", Value::U64(3)),
            ]),
        ] {
            let spec = spec_with_partition(partition);
            let (a, created_a) = reg.get_or_create(&spec).unwrap();
            let (b, created_b) = reg.get_or_create(&spec).unwrap();
            assert!(created_a && !created_b, "identical source spec must hit");
            assert!(Arc::ptr_eq(&a, &b));
            assert!(a.lock().partition().num_parts() > 1);
        }
        // Both spellings of the singleton partition are one spec key, so
        // the second create hits the session the first one built.
        let short = spec_with_partition(Value::Str("singletons".to_string()));
        let long = spec_with_partition(Value::object([(
            "kind",
            Value::Str("singletons".to_string()),
        )]));
        let (a, created_a) = reg.get_or_create(&short).unwrap();
        let (b, created_b) = reg.get_or_create(&long).unwrap();
        assert!(created_a && !created_b, "one session for both spellings");
        assert_eq!(a.id, b.id);
        assert_eq!(a.lock().partition().num_parts(), 36);
    }

    #[test]
    fn partition_error_codes_are_distinct_422s() {
        let reg = Registry::new(8);
        // A disconnected part: {corner, opposite corner} of the grid.
        let disconnected = spec_with_partition(Value::Arr(vec![Value::Arr(vec![
            Value::U64(0),
            Value::U64(35),
        ])]));
        let err = reg.get_or_create(&disconnected).map(|_| ()).unwrap_err();
        assert_eq!((err.status, err.code), (422, "partition_disconnected"));

        // Rows of a *larger* grid resolved on the 6×6 graph: nodes out of
        // range for some rows, but the real failure mode we pin here is a
        // source that does not cover the graph.
        let uncovered = spec_with_partition(Value::object([
            ("kind", Value::Str("rows".to_string())),
            ("rows", Value::U64(3)),
            ("cols", Value::U64(6)),
        ]));
        let err = reg.get_or_create(&uncovered).map(|_| ()).unwrap_err();
        assert_eq!((err.status, err.code), (422, "partition_uncovered"));
    }

    /// A scratch file under the OS temp dir, removed on drop.
    struct TempPath(std::path::PathBuf);

    impl TempPath {
        fn new(name: &str) -> Self {
            let mut p = std::env::temp_dir();
            p.push(format!("lcs_server_state_{}_{name}", std::process::id()));
            TempPath(p)
        }

        fn as_str(&self) -> &str {
            self.0.to_str().expect("utf-8 temp path")
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn graph_only_spec(graph: Value) -> SessionSpec {
        SessionSpec::from_value(&Value::object([("graph", graph)])).expect("valid spec")
    }

    #[test]
    fn unified_kind_form_parses_every_generator() {
        for (graph, nodes) in [
            (
                Value::object([
                    ("kind", Value::Str("grid".to_string())),
                    ("rows", Value::U64(3)),
                    ("cols", Value::U64(4)),
                ]),
                12,
            ),
            (
                Value::object([
                    ("kind", Value::Str("road_like".to_string())),
                    ("rows", Value::U64(5)),
                    ("cols", Value::U64(5)),
                    ("seed", Value::U64(7)),
                ]),
                25,
            ),
            (
                Value::object([
                    ("kind", Value::Str("wheel".to_string())),
                    ("n", Value::U64(6)),
                ]),
                6,
            ),
        ] {
            let spec = graph_only_spec(graph);
            let g = build_graph(&spec.graph).expect("builds");
            assert_eq!(g.num_nodes(), nodes);
        }
    }

    /// `object` with its first key (the `kind`) spelled `family`.
    fn legacy_spelling(object: &Value) -> Value {
        let Value::Obj(fields) = object else {
            panic!("sources serialize to objects");
        };
        let mut fields = fields.clone();
        assert_eq!(fields[0].0, "kind");
        fields[0].0 = "family".to_string();
        Value::Obj(fields)
    }

    #[test]
    fn legacy_family_and_unified_kind_share_one_warm_session() {
        // The pre-GraphSource wire form must keep working *and* dedup
        // onto the same canonical key as its unified twin — for every
        // family (the file alias has its own test below).
        let families = [
            GeneratorSpec::Path { n: 6 },
            GeneratorSpec::Cycle { n: 5 },
            GeneratorSpec::Complete { n: 4 },
            GeneratorSpec::Wheel { n: 7 },
            GeneratorSpec::Grid { rows: 4, cols: 4 },
            GeneratorSpec::Torus { rows: 3, cols: 5 },
            GeneratorSpec::GridOfCliques {
                rows: 2,
                cols: 2,
                clique: 3,
            },
            GeneratorSpec::RoadLike {
                rows: 4,
                cols: 5,
                seed: 11,
            },
        ];
        let reg = Registry::new(8);
        for (i, family) in families.into_iter().enumerate() {
            let unified = graph_only_spec(family.to_value());
            let legacy = graph_only_spec(legacy_spelling(&family.to_value()));
            assert_eq!(unified.graph, GraphSource::Generator(family));
            assert_eq!(legacy, unified);
            let (a, created_a) = reg.get_or_create(&legacy).unwrap();
            let (b, created_b) = reg.get_or_create(&unified).unwrap();
            assert!(created_a && !created_b, "{}", unified.graph.name());
            assert!(Arc::ptr_eq(&a, &b));
            assert_eq!(reg.stats().graphs, i + 1);
        }
    }

    #[test]
    fn legacy_file_alias_is_edge_list_json() {
        let path = TempPath::new("alias.json");
        std::fs::write(&path.0, r#"{"n": 3, "edges": [[0, 1], [1, 2]]}"#).unwrap();
        let legacy = graph_only_spec(Value::object([
            ("family", Value::Str("file".to_string())),
            ("path", Value::Str(path.as_str().to_string())),
        ]));
        let unified = graph_only_spec(Value::object([
            ("kind", Value::Str("edge_list_json".to_string())),
            ("path", Value::Str(path.as_str().to_string())),
        ]));
        assert_eq!(
            legacy.graph,
            GraphSource::EdgeListJson {
                path: path.as_str().to_string()
            }
        );
        assert_eq!(legacy.graph, unified.graph);
        assert_eq!(
            json::render(&legacy.canonical_value()),
            json::render(&unified.canonical_value()),
        );
        let reg = Registry::new(4);
        let (a, _) = reg.get_or_create(&legacy).unwrap();
        let (b, created_b) = reg.get_or_create(&unified).unwrap();
        assert!(!created_b, "alias and unified form share the warm session");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(reg.stats().graphs, 1);
        assert_eq!(a.graph.num_nodes(), 3);
    }

    /// A config may repeat the spec's graph as its `graph_source`; the
    /// repeat is normalised away, so both bodies name one warm session.
    #[test]
    fn an_equal_config_graph_source_shares_the_warm_session() {
        let plain = grid_spec(4, 4);
        let config = SessionConfig {
            graph_source: Some(plain.graph.clone()),
            ..SessionConfig::default()
        };
        let repeated = SessionSpec::from_value(&Value::object([
            ("graph", plain.graph.to_value()),
            ("config", config.to_value()),
        ]))
        .expect("an equal graph_source is accepted");
        assert_eq!(repeated, plain);
        let reg = Registry::new(4);
        let (a, created_a) = reg.get_or_create(&plain).unwrap();
        let (b, created_b) = reg.get_or_create(&repeated).unwrap();
        assert!(created_a && !created_b, "one session for both bodies");
        assert_eq!(a.id, b.id);
        assert_eq!(
            a.lock().config().graph_source.as_ref(),
            Some(&plain.graph),
            "provenance is the served graph"
        );
    }

    /// A `config.graph_source` naming another graph than `graph` used to
    /// be overwritten silently while still splitting the LRU key.
    #[test]
    fn a_disagreeing_config_graph_source_is_refused() {
        let config = SessionConfig {
            graph_source: Some(GraphSource::Generator(GeneratorSpec::Grid {
                rows: 4,
                cols: 5,
            })),
            ..SessionConfig::default()
        };
        let err = SessionSpec::from_value(&Value::object([
            ("graph", grid_spec(4, 4).graph.to_value()),
            ("config", config.to_value()),
        ]))
        .map(|_| ())
        .unwrap_err();
        assert_eq!((err.status, err.code), (422, "bad_args"));
        assert!(
            err.message.contains("`config.graph_source`"),
            "{}",
            err.message
        );
    }

    #[test]
    fn flat_binary_specs_serve_the_file_graph() {
        let path = TempPath::new("weighted.lcsg");
        let g = gen::grid(3, 3);
        let w = EdgeWeights::from_vec(&g, (0..g.num_edges() as u64).map(|i| i + 10).collect());
        lcs_graph::io::save_graph(&path.0, &g, Some(&w)).unwrap();

        let spec = graph_only_spec(Value::object([
            ("kind", Value::Str("flat_binary".to_string())),
            ("path", Value::Str(path.as_str().to_string())),
        ]));
        let reg = Registry::new(4);
        let (entry, created) = reg.get_or_create(&spec).unwrap();
        assert!(created);
        assert_eq!(entry.graph.num_nodes(), 9);
        assert_eq!(
            entry.lock().config().graph_source,
            Some(spec.graph.clone()),
            "provenance survives into the session config"
        );
    }

    #[test]
    fn graph_error_codes_are_distinct() {
        let reg = Registry::new(8);

        // Missing file → 404 with the dedicated code.
        let missing = graph_only_spec(Value::object([
            ("kind", Value::Str("flat_binary".to_string())),
            ("path", Value::Str("/nonexistent/g.lcsg".to_string())),
        ]));
        let err = reg.get_or_create(&missing).map(|_| ()).unwrap_err();
        assert_eq!((err.status, err.code), (404, "graph_file_not_found"));

        // A file that is not an .lcsg → 422 graph_bad_magic.
        let junk = TempPath::new("junk.lcsg");
        std::fs::write(&junk.0, [b'J'; 64]).unwrap();
        let bad_magic = graph_only_spec(Value::object([
            ("kind", Value::Str("flat_binary".to_string())),
            ("path", Value::Str(junk.as_str().to_string())),
        ]));
        let err = reg.get_or_create(&bad_magic).map(|_| ()).unwrap_err();
        assert_eq!((err.status, err.code), (422, "graph_bad_magic"));

        // Malformed edge-list JSON → 422 graph_json_malformed.
        let mangled = TempPath::new("mangled.json");
        std::fs::write(&mangled.0, "{\"n\": 3").unwrap();
        let bad_json = graph_only_spec(Value::object([
            ("kind", Value::Str("edge_list_json".to_string())),
            ("path", Value::Str(mangled.as_str().to_string())),
        ]));
        let err = reg.get_or_create(&bad_json).map(|_| ()).unwrap_err();
        assert_eq!((err.status, err.code), (422, "graph_json_malformed"));

        // An invalid generator spec is typed at parse time.
        let err = SessionSpec::from_value(&Value::object([(
            "graph",
            Value::object([
                ("kind", Value::Str("cycle".to_string())),
                ("n", Value::U64(2)),
            ]),
        )]))
        .map(|_| ())
        .unwrap_err();
        assert_eq!((err.status, err.code), (422, "graph_invalid_spec"));
    }

    #[test]
    fn unknown_graph_kind_names_the_choices() {
        let err = SessionSpec::from_value(&Value::object([(
            "graph",
            Value::object([("kind", Value::Str("hypercube".to_string()))]),
        )]))
        .map(|_| ())
        .unwrap_err();
        assert_eq!((err.status, err.code), (422, "bad_args"));
        assert!(err.message.contains("flat_binary"), "{}", err.message);
    }

    #[test]
    fn unknown_source_kind_is_rejected_at_parse_time() {
        let v = Value::object([
            (
                "graph",
                Value::object([
                    ("kind", Value::Str("path".to_string())),
                    ("n", Value::U64(4)),
                ]),
            ),
            (
                "partition",
                Value::object([("kind", Value::Str("metis".to_string()))]),
            ),
        ]);
        let err = SessionSpec::from_value(&v).map(|_| ()).unwrap_err();
        assert_eq!((err.status, err.code), (422, "bad_args"));
    }
}
