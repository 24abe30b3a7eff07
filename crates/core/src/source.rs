//! Declarative graph and partition sources: serde-able recipes that
//! resolve to a concrete [`Graph`] / [`Partition`](crate::Partition).
//!
//! A [`PartitionSource`] names *how* to derive a partition — grid rows,
//! seeded Voronoi growth, singletons, or a nested-dissection level — so
//! the choice travels inside [`SessionConfig`](crate::SessionConfig),
//! through the `Session` builder, and over the wire in `lcs_server`
//! session specs. Every source is deterministic: Voronoi is pinned by
//! its `u64` seed ([`gen::voronoi_parts_seeded`]) and the separator
//! dissection is deterministic by construction.
//!
//! [`GraphSource`] does the same for the *graph* input: a generator
//! family with parameters, a JSON edge-list file, or a flat-binary
//! `.lcsg` file ([`lcs_graph::io`]), all built by one resolver
//! ([`GraphSource::resolve`]). The source rides
//! [`SessionConfig::graph_source`](crate::SessionConfig), the `Session`
//! builder (where an explicitly supplied graph always wins, mirroring the
//! partition precedence), and the `lcs_server` graph-spec JSON.
//!
//! # Wire form
//!
//! Every source (de)serializes as one flat object, `kind` first and then
//! its parameters: `{"kind":"grid","rows":3,"cols":4}`,
//! `{"kind":"flat_binary","path":"g.lcsg"}`,
//! `{"kind":"voronoi","parts":6,"seed":7}` (the README's "Source
//! notation" table lists every kind). The impls are hand-written here —
//! this file is the only place that names a kind or a parameter key — so
//! `SessionConfig`, the server's `graph` / `partition` fields and
//! `lcs_convert`'s flags all speak it, and the rendered object is what the
//! server's graph registry and warm-session LRU deduplicate on.

use crate::session::{Session, SessionBuilder};
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{gen, CapacityError, Graph, GraphBuilder, NodeId};
use lcs_separator::SeparatorConfig;
use serde::{de, DeError, Deserialize, Serialize, Value};
use std::fmt;

/// `{"kind": <kind>, <key>: <value>, ...}` — the one shape every source
/// serializes to.
fn kind_object(kind: &str, params: &[(&str, u64)]) -> Value {
    let mut fields = vec![("kind".to_string(), Value::Str(kind.to_string()))];
    fields.extend(params.iter().map(|&(k, x)| (k.to_string(), Value::U64(x))));
    Value::Obj(fields)
}

/// The integer parameter `key` among a source object's fields: an absent
/// or `null` key reads as `None`, and keys nobody asks for are ignored.
fn json_param(fields: &[(String, Value)], key: &str) -> Result<Option<u64>, String> {
    match fields.iter().find(|(k, _)| k == key) {
        None | Some((_, Value::Null)) => Ok(None),
        Some((_, x)) => u64::from_value(x)
            .map(Some)
            .map_err(|e| format!("parameter `{key}`: {e}")),
    }
}

/// The parameter `key` of a `kind` object, narrowed to the field type it
/// fills. An absent one reads as `default`; with no default it is required.
fn param<T: TryFrom<u64>>(
    lookup: &impl Fn(&str) -> Result<Option<u64>, String>,
    kind: &str,
    key: &str,
    default: Option<u64>,
) -> Result<T, String> {
    let raw = (lookup(key)?.or(default))
        .ok_or_else(|| format!("missing parameter `{key}` of kind `{kind}`"))?;
    T::try_from(raw).map_err(|_| format!("parameter `{key}`: {raw} is out of range"))
}

fn unknown_kind(what: &str, kind: &str, known: &[&str]) -> String {
    format!("unknown {what} kind `{kind}` — one of {}", known.join(", "))
}

/// A recipe for deriving a partition from a graph. Resolved at session
/// build time by [`resolve`](Self::resolve); sources always produce
/// covering partitions on connected graphs (validated with
/// [`Partition::from_parts_covering`](crate::Partition::from_parts_covering)
/// by the consumers, so an unassigned node is a structured error).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionSource {
    /// The rows of a `rows × cols` grid (or torus) — each row an induced
    /// path/cycle. Only meaningful on grid-shaped graphs; on anything
    /// else the resolved node lists fail partition validation.
    Rows {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// Voronoi cells grown from `parts` seeds sampled with `seed`
    /// ([`gen::voronoi_parts_seeded`] — the whole partition is pinned by
    /// the one `u64`). The part count is clamped to `[1, n]`.
    Voronoi {
        /// Number of cells to grow.
        parts: usize,
        /// RNG seed the seed nodes are sampled with.
        seed: u64,
    },
    /// Every node its own part.
    Singletons,
    /// The regions of a nested dissection
    /// ([`lcs_separator::nested_dissection`]) flattened at dissection
    /// depth `level` — balanced, connected, cover-all parts whose
    /// boundaries are the computed separators.
    Separator {
        /// Dissection depth to flatten at (`0` = one part; each level
        /// roughly halves the regions).
        level: u32,
        /// Regions of at most this many nodes are never split further.
        min_region: usize,
    },
}

impl PartitionSource {
    /// Resolves the source on `g` into raw part lists. Deterministic for
    /// a fixed `(source, graph)` pair.
    pub fn resolve(&self, g: &Graph) -> Vec<Vec<NodeId>> {
        match *self {
            PartitionSource::Rows { rows, cols } => gen::rows_of_grid(rows, cols),
            PartitionSource::Voronoi { parts, seed } => {
                let clamped = parts.clamp(1, g.num_nodes().max(1));
                if g.num_nodes() == 0 {
                    return Vec::new();
                }
                gen::voronoi_parts_seeded(g, clamped, seed)
            }
            PartitionSource::Singletons => gen::singleton_parts(g),
            PartitionSource::Separator { level, min_region } => {
                // Dissect only as deep as the requested level needs.
                let cfg = SeparatorConfig {
                    min_region,
                    max_levels: level,
                };
                lcs_separator::separator_parts(g, level, &cfg)
            }
        }
    }

    /// The source's short name (`rows` / `voronoi` / `singletons` /
    /// `separator`).
    pub fn name(&self) -> &'static str {
        match self {
            PartitionSource::Rows { .. } => "rows",
            PartitionSource::Voronoi { .. } => "voronoi",
            PartitionSource::Singletons => "singletons",
            PartitionSource::Separator { .. } => "separator",
        }
    }
}

const PARTITION_KINDS: [&str; 4] = ["rows", "voronoi", "singletons", "separator"];

impl Serialize for PartitionSource {
    fn to_value(&self) -> Value {
        let params = match *self {
            PartitionSource::Rows { rows, cols } => {
                vec![("rows", rows as u64), ("cols", cols as u64)]
            }
            PartitionSource::Voronoi { parts, seed } => {
                vec![("parts", parts as u64), ("seed", seed)]
            }
            PartitionSource::Singletons => vec![],
            PartitionSource::Separator { level, min_region } => {
                vec![
                    ("level", u64::from(level)),
                    ("min_region", min_region as u64),
                ]
            }
        };
        kind_object(self.name(), &params)
    }
}

impl PartitionSource {
    /// The source of `kind` with its parameters read through `lookup`;
    /// `seed` defaults to 0 and `min_region` to
    /// [`SeparatorConfig::default`]'s when absent.
    fn from_params(
        kind: &str,
        lookup: impl Fn(&str) -> Result<Option<u64>, String>,
    ) -> Result<Self, String> {
        let min_region = SeparatorConfig::default().min_region as u64;
        Ok(match kind {
            "rows" => PartitionSource::Rows {
                rows: param(&lookup, kind, "rows", None)?,
                cols: param(&lookup, kind, "cols", None)?,
            },
            "voronoi" => PartitionSource::Voronoi {
                parts: param(&lookup, kind, "parts", None)?,
                seed: param(&lookup, kind, "seed", Some(0))?,
            },
            "singletons" => PartitionSource::Singletons,
            "separator" => PartitionSource::Separator {
                level: param(&lookup, kind, "level", None)?,
                min_region: param(&lookup, kind, "min_region", Some(min_region))?,
            },
            other => return Err(unknown_kind("partition source", other, &PARTITION_KINDS)),
        })
    }
}

impl<'de> Deserialize<'de> for PartitionSource {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = de::object(v, "PartitionSource")?;
        let kind: String = de::field(fields, "kind", "PartitionSource")?;
        Self::from_params(&kind, |key| json_param(fields, key)).map_err(DeError::new)
    }
}

/// A generator family with its parameters — the serde-able form of the
/// `lcs_graph::gen` constructors a [`GraphSource::Generator`] names.
/// Deterministic: equal specs build bit-identical graphs (the road-like
/// family is pinned by its `u64` seed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GeneratorSpec {
    /// [`gen::path`] on `n` nodes.
    Path {
        /// Node count.
        n: usize,
    },
    /// [`gen::cycle`] on `n >= 3` nodes.
    Cycle {
        /// Node count.
        n: usize,
    },
    /// [`gen::complete`] on `n` nodes.
    Complete {
        /// Node count.
        n: usize,
    },
    /// [`gen::wheel`] on `n >= 4` nodes.
    Wheel {
        /// Node count.
        n: usize,
    },
    /// [`gen::grid`], `rows × cols`.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// [`gen::torus`], `rows × cols`, both `>= 3`.
    Torus {
        /// Torus rows.
        rows: usize,
        /// Torus columns.
        cols: usize,
    },
    /// [`gen::grid_of_cliques`]: a `rows × cols` grid of `clique`-cliques.
    GridOfCliques {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
        /// Clique size per grid cell.
        clique: usize,
    },
    /// [`gen::road_like`]: the seeded near-planar road-network family for
    /// million-node scale-up.
    RoadLike {
        /// Lattice rows.
        rows: usize,
        /// Lattice columns.
        cols: usize,
        /// RNG seed pinning the whole graph.
        seed: u64,
    },
}

impl GeneratorSpec {
    /// The family's short name.
    pub fn name(&self) -> &'static str {
        match self {
            GeneratorSpec::Path { .. } => "path",
            GeneratorSpec::Cycle { .. } => "cycle",
            GeneratorSpec::Complete { .. } => "complete",
            GeneratorSpec::Wheel { .. } => "wheel",
            GeneratorSpec::Grid { .. } => "grid",
            GeneratorSpec::Torus { .. } => "torus",
            GeneratorSpec::GridOfCliques { .. } => "grid_of_cliques",
            GeneratorSpec::RoadLike { .. } => "road_like",
        }
    }

    /// The family's parameters as `(wire key, value)` pairs in wire order —
    /// with [`from_params`](Self::from_params) the one table the JSON
    /// form, `lcs_convert`'s `--flags` and [`num_nodes`](Self::num_nodes)
    /// all read.
    pub fn params(&self) -> Vec<(&'static str, u64)> {
        match *self {
            GeneratorSpec::Path { n }
            | GeneratorSpec::Cycle { n }
            | GeneratorSpec::Complete { n }
            | GeneratorSpec::Wheel { n } => vec![("n", n as u64)],
            GeneratorSpec::Grid { rows, cols } | GeneratorSpec::Torus { rows, cols } => {
                vec![("rows", rows as u64), ("cols", cols as u64)]
            }
            GeneratorSpec::GridOfCliques { rows, cols, clique } => vec![
                ("rows", rows as u64),
                ("cols", cols as u64),
                ("r", clique as u64),
            ],
            GeneratorSpec::RoadLike { rows, cols, seed } => {
                vec![("rows", rows as u64), ("cols", cols as u64), ("seed", seed)]
            }
        }
    }

    /// The family named `kind` with its parameters read through `lookup`
    /// (`Ok(None)` = not given): every size is required, `seed` defaults
    /// to 0. The inverse of [`name`](Self::name) + [`params`](Self::params);
    /// the result is not yet [`validate`](Self::validate)d.
    pub fn from_params(
        kind: &str,
        lookup: impl Fn(&str) -> Result<Option<u64>, String>,
    ) -> Result<Self, String> {
        let size = |key| param::<usize>(&lookup, kind, key, None);
        Ok(match kind {
            "path" => GeneratorSpec::Path { n: size("n")? },
            "cycle" => GeneratorSpec::Cycle { n: size("n")? },
            "complete" => GeneratorSpec::Complete { n: size("n")? },
            "wheel" => GeneratorSpec::Wheel { n: size("n")? },
            "grid" => GeneratorSpec::Grid {
                rows: size("rows")?,
                cols: size("cols")?,
            },
            "torus" => GeneratorSpec::Torus {
                rows: size("rows")?,
                cols: size("cols")?,
            },
            "grid_of_cliques" => GeneratorSpec::GridOfCliques {
                rows: size("rows")?,
                cols: size("cols")?,
                clique: size("r")?,
            },
            "road_like" => GeneratorSpec::RoadLike {
                rows: size("rows")?,
                cols: size("cols")?,
                seed: param(&lookup, kind, "seed", Some(0))?,
            },
            other => return Err(unknown_kind("generator", other, &FAMILY_KINDS)),
        })
    }

    /// The family's size parameters: all of [`params`](Self::params) but
    /// `seed`.
    fn sizes(&self) -> impl Iterator<Item = u64> {
        let params = self.params().into_iter();
        params.filter_map(|(key, size)| (key != "seed").then_some(size))
    }

    /// The node count the spec would build, computed without building —
    /// servers use this to enforce size caps before spending memory. Every
    /// family's count is the product of its sizes; the product saturates,
    /// so a spec that overflows `u64` reads as larger than any cap instead
    /// of wrapping past it.
    pub fn num_nodes(&self) -> u64 {
        self.sizes().fold(1, u64::saturating_mul)
    }

    /// Checks the family's parameter preconditions — every size at least
    /// the family's minimum, the node count within CSR capacity — without
    /// building, so callers get a typed [`GraphSourceError`] instead of a
    /// generator panic.
    pub fn validate(&self) -> Result<(), GraphSourceError> {
        let (min, rule) = match self {
            GeneratorSpec::Path { .. } | GeneratorSpec::Complete { .. } => {
                (1, "needs at least 1 node")
            }
            GeneratorSpec::Cycle { .. } => (3, "needs at least 3 nodes"),
            GeneratorSpec::Wheel { .. } => (4, "needs at least 4 nodes"),
            GeneratorSpec::Torus { .. } => (3, "dimensions must be at least 3"),
            GeneratorSpec::Grid { .. }
            | GeneratorSpec::GridOfCliques { .. }
            | GeneratorSpec::RoadLike { .. } => (1, "dimensions must be positive"),
        };
        if self.sizes().any(|size| size < min) {
            let reason = format!("{} {rule}", self.name());
            return Err(GraphSourceError::InvalidSpec { reason });
        }
        lcs_graph::check_csr_capacity(self.num_nodes(), 0)?;
        Ok(())
    }

    /// Builds the graph ([`validate`](Self::validate)d first).
    pub fn build(&self) -> Result<Graph, GraphSourceError> {
        self.validate()?;
        Ok(match *self {
            GeneratorSpec::Path { n } => gen::path(n),
            GeneratorSpec::Cycle { n } => gen::cycle(n),
            GeneratorSpec::Complete { n } => gen::complete(n),
            GeneratorSpec::Wheel { n } => gen::wheel(n),
            GeneratorSpec::Grid { rows, cols } => gen::grid(rows, cols),
            GeneratorSpec::Torus { rows, cols } => gen::torus(rows, cols),
            GeneratorSpec::GridOfCliques { rows, cols, clique } => {
                gen::grid_of_cliques(rows, cols, clique)
            }
            GeneratorSpec::RoadLike { rows, cols, seed } => gen::road_like(rows, cols, seed),
        })
    }
}

/// [`GeneratorSpec::name`] of every family, as an unknown-kind error lists
/// them.
const FAMILY_KINDS: [&str; 8] = [
    "path",
    "cycle",
    "complete",
    "wheel",
    "grid",
    "torus",
    "grid_of_cliques",
    "road_like",
];

impl Serialize for GeneratorSpec {
    fn to_value(&self) -> Value {
        kind_object(self.name(), &self.params())
    }
}

impl<'de> Deserialize<'de> for GeneratorSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = de::object(v, "GeneratorSpec")?;
        let kind: String = de::field(fields, "kind", "GeneratorSpec")?;
        Self::from_params(&kind, |key| json_param(fields, key)).map_err(DeError::new)
    }
}

/// Resolving a [`GraphSource`] failed. Every variant (and, transitively,
/// every [`lcs_graph::io::IoError`]) has a distinct
/// [`code`](GraphSourceError::code), so servers can map resolution
/// failures onto structured 4xx responses.
#[derive(Debug)]
pub enum GraphSourceError {
    /// Generator parameters violate the family's preconditions.
    InvalidSpec {
        /// What was wrong.
        reason: String,
    },
    /// Reading a JSON edge-list file failed at the filesystem level.
    Io {
        /// The offending path.
        path: String,
        /// The underlying error.
        error: std::io::Error,
    },
    /// A JSON edge-list file does not parse as
    /// `{"n": ..., "edges": [[u, v], ...]}`.
    Json {
        /// The offending path.
        path: String,
        /// Parser message.
        reason: String,
    },
    /// A JSON edge-list file parses but contains an invalid edge
    /// (endpoint out of range, self-loop, or duplicate).
    InvalidEdge {
        /// The offending path.
        path: String,
        /// Which edge, and why it is invalid.
        reason: String,
    },
    /// Reading a flat-binary `.lcsg` file failed (typed: truncation, bad
    /// magic, checksum mismatch, …).
    Flat {
        /// The offending path.
        path: String,
        /// The underlying typed error.
        error: lcs_graph::io::IoError,
    },
    /// The described graph exceeds the CSR capacity limits.
    Capacity(CapacityError),
}

impl GraphSourceError {
    /// A stable snake_case code per failure shape. Flat-binary failures
    /// forward [`lcs_graph::io::IoError::code`]; file-not-found (either
    /// file kind) yields `graph_file_not_found` so servers can answer 404.
    pub fn code(&self) -> &'static str {
        match self {
            GraphSourceError::InvalidSpec { .. } => "graph_invalid_spec",
            GraphSourceError::Io { error, .. } if error.kind() == std::io::ErrorKind::NotFound => {
                "graph_file_not_found"
            }
            GraphSourceError::Io { .. } => "graph_io",
            GraphSourceError::Json { .. } => "graph_json_malformed",
            GraphSourceError::InvalidEdge { .. } => "graph_invalid_edge",
            GraphSourceError::Flat { error, .. } => error.code(),
            GraphSourceError::Capacity(_) => "graph_too_large",
        }
    }
}

impl fmt::Display for GraphSourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphSourceError::InvalidSpec { reason } => write!(f, "invalid graph spec: {reason}"),
            GraphSourceError::Io { path, error } => write!(f, "cannot read `{path}`: {error}"),
            GraphSourceError::Json { path, reason } => {
                write!(f, "edge-list file `{path}` is not valid JSON: {reason}")
            }
            GraphSourceError::InvalidEdge { path, reason } => {
                write!(f, "edge-list file `{path}`: {reason}")
            }
            GraphSourceError::Flat { path, error } => write!(f, "lcsg file `{path}`: {error}"),
            GraphSourceError::Capacity(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GraphSourceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphSourceError::Io { error, .. } => Some(error),
            GraphSourceError::Flat { error, .. } => Some(error),
            GraphSourceError::Capacity(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CapacityError> for GraphSourceError {
    fn from(e: CapacityError) -> Self {
        GraphSourceError::Capacity(e)
    }
}

/// The wire form of a JSON edge-list file:
/// `{"n": ..., "edges": [[u, v], ...]}`.
#[derive(Debug, Serialize, Deserialize)]
struct EdgeListFile {
    n: usize,
    edges: Vec<(u32, u32)>,
}

/// A recipe for obtaining a graph — the one graph-construction surface of
/// the workspace. Resolved by [`resolve`](Self::resolve) into a
/// [`ResolvedGraph`]; serde-able, so the recipe travels inside
/// [`SessionConfig`](crate::SessionConfig) and over the wire in
/// `lcs_server` session specs, where its serialized form is the registry
/// dedup key. A generator serializes as its [`GeneratorSpec`] does — the
/// family name is the `kind` — and the two file kinds as
/// `{"kind": ..., "path": ...}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphSource {
    /// A deterministic generator family ([`GeneratorSpec`]).
    Generator(GeneratorSpec),
    /// A JSON edge-list file `{"n": ..., "edges": [[u, v], ...]}` — the
    /// legacy interchange form; prefer [`FlatBinary`](Self::FlatBinary)
    /// beyond toy sizes.
    EdgeListJson {
        /// Path to the file.
        path: String,
    },
    /// A flat-binary `.lcsg` file ([`lcs_graph::io`]) — bulk-read loading
    /// for n = 10⁶–10⁷ instances, optionally carrying edge weights.
    FlatBinary {
        /// Path to the file.
        path: String,
    },
}

impl GraphSource {
    /// The source's wire `kind`: the family name of a generator,
    /// `edge_list_json` or `flat_binary`.
    pub fn name(&self) -> &'static str {
        match self {
            GraphSource::Generator(spec) => spec.name(),
            GraphSource::EdgeListJson { .. } => "edge_list_json",
            GraphSource::FlatBinary { .. } => "flat_binary",
        }
    }

    /// Resolves the source into a graph (plus weights, when the backing
    /// `.lcsg` file carries them) — **the** graph-construction path: the
    /// `Session` builder, `lcs_server` and `lcs_convert` all go through
    /// here.
    pub fn resolve(&self) -> Result<ResolvedGraph, GraphSourceError> {
        let (graph, weights) = match self {
            GraphSource::Generator(spec) => (spec.build()?, None),
            GraphSource::EdgeListJson { path } => (Self::resolve_edge_list(path)?, None),
            GraphSource::FlatBinary { path } => {
                let loaded =
                    lcs_graph::io::load_graph(path).map_err(|error| GraphSourceError::Flat {
                        path: path.clone(),
                        error,
                    })?;
                (loaded.graph, loaded.weights)
            }
        };
        Ok(ResolvedGraph {
            source: self.clone(),
            graph,
            weights,
        })
    }

    fn resolve_edge_list(path: &str) -> Result<Graph, GraphSourceError> {
        let text = std::fs::read_to_string(path).map_err(|error| GraphSourceError::Io {
            path: path.to_string(),
            error,
        })?;
        let file: EdgeListFile =
            serde_json::from_str(&text).map_err(|e| GraphSourceError::Json {
                path: path.to_string(),
                reason: e.to_string(),
            })?;
        let invalid_edge = |reason: String| GraphSourceError::InvalidEdge {
            path: path.to_string(),
            reason,
        };
        lcs_graph::check_csr_capacity(file.n as u64, file.edges.len() as u64)?;
        let mut normalized: Vec<(u32, u32)> = Vec::with_capacity(file.edges.len());
        for &(u, v) in &file.edges {
            if u as usize >= file.n || v as usize >= file.n {
                return Err(invalid_edge(format!(
                    "edge ({u}, {v}) out of range for n = {}",
                    file.n
                )));
            }
            if u == v {
                return Err(invalid_edge(format!("self-loop at node {u}")));
            }
            normalized.push(if u < v { (u, v) } else { (v, u) });
        }
        normalized.sort_unstable();
        if let Some(w) = normalized.windows(2).find(|w| w[0] == w[1]) {
            return Err(invalid_edge(format!(
                "duplicate edge ({}, {})",
                w[0].0, w[0].1
            )));
        }
        let mut b = GraphBuilder::new(file.n);
        for (u, v) in file.edges {
            b.add_edge(NodeId(u), NodeId(v));
        }
        b.try_build().map_err(GraphSourceError::from)
    }
}

impl Serialize for GraphSource {
    fn to_value(&self) -> Value {
        match self {
            GraphSource::Generator(spec) => spec.to_value(),
            GraphSource::EdgeListJson { path } | GraphSource::FlatBinary { path } => {
                Value::object([
                    ("kind", Value::Str(self.name().to_string())),
                    ("path", Value::Str(path.clone())),
                ])
            }
        }
    }
}

impl<'de> Deserialize<'de> for GraphSource {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = de::object(v, "GraphSource")?;
        let kind: String = de::field(fields, "kind", "GraphSource")?;
        match kind.as_str() {
            "edge_list_json" => Ok(GraphSource::EdgeListJson {
                path: de::field(fields, "path", "GraphSource")?,
            }),
            "flat_binary" => Ok(GraphSource::FlatBinary {
                path: de::field(fields, "path", "GraphSource")?,
            }),
            family if FAMILY_KINDS.contains(&family) => {
                GeneratorSpec::from_value(v).map(GraphSource::Generator)
            }
            other => {
                let kinds = [&FAMILY_KINDS[..], &["edge_list_json", "flat_binary"]].concat();
                Err(DeError::new(unknown_kind("graph", other, &kinds)))
            }
        }
    }
}

/// The output of [`GraphSource::resolve`]: the graph, its weights when the
/// source carried any (for the caller to hand to a weighted op such as
/// `session.mst(&weights)`), and the source itself (for provenance — the
/// [`session`](Self::session) shortcut records it in the session config).
#[derive(Clone, Debug)]
pub struct ResolvedGraph {
    /// The source this graph came from.
    pub source: GraphSource,
    /// The resolved graph.
    pub graph: Graph,
    /// Edge weights, when the source was a weighted `.lcsg` file.
    pub weights: Option<EdgeWeights>,
}

impl ResolvedGraph {
    /// Starts a session builder over the resolved graph, with
    /// [`SessionConfig::graph_source`](crate::SessionConfig) recording the
    /// provenance. A later `.config(..)` replaces the whole config,
    /// including that record.
    pub fn session(&self) -> SessionBuilder<'_> {
        Session::on(&self.graph).graph_source(self.source.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition;

    #[test]
    fn sources_resolve_to_covering_partitions() {
        let g = gen::grid(8, 8);
        let sources = [
            PartitionSource::Rows { rows: 8, cols: 8 },
            PartitionSource::Voronoi { parts: 6, seed: 7 },
            PartitionSource::Singletons,
            PartitionSource::Separator {
                level: 3,
                min_region: 4,
            },
        ];
        for src in sources {
            let parts = src.resolve(&g);
            let p = Partition::from_parts_covering(&g, parts)
                .unwrap_or_else(|e| panic!("{}: {e}", src.name()));
            assert!(p.covers_all(), "{} must cover V", src.name());
        }
    }

    #[test]
    fn separator_source_scales_parts_with_level() {
        let g = gen::grid(16, 16);
        let parts_at = |level| {
            PartitionSource::Separator {
                level,
                min_region: 4,
            }
            .resolve(&g)
            .len()
        };
        assert_eq!(parts_at(0), 1);
        assert!(parts_at(2) > parts_at(0));
        assert!(parts_at(4) > parts_at(2));
    }

    #[test]
    fn voronoi_source_is_pinned_by_its_seed_and_clamped() {
        let g = gen::torus(5, 5);
        let src = PartitionSource::Voronoi { parts: 4, seed: 99 };
        assert_eq!(src.resolve(&g), src.resolve(&g));
        let oversized = PartitionSource::Voronoi {
            parts: 1000,
            seed: 1,
        };
        assert_eq!(oversized.resolve(&g).len(), 25);
    }

    #[test]
    fn serde_round_trip_of_every_variant() {
        let sources = [
            PartitionSource::Rows { rows: 3, cols: 4 },
            PartitionSource::Voronoi { parts: 6, seed: 7 },
            PartitionSource::Singletons,
            PartitionSource::Separator {
                level: 2,
                min_region: 8,
            },
        ];
        for src in sources {
            let v = serde::Serialize::to_value(&src);
            let back: PartitionSource = serde::Deserialize::from_value(&v).unwrap();
            assert_eq!(back, src);
        }
    }

    fn all_generator_specs() -> Vec<GeneratorSpec> {
        vec![
            GeneratorSpec::Path { n: 6 },
            GeneratorSpec::Cycle { n: 5 },
            GeneratorSpec::Complete { n: 4 },
            GeneratorSpec::Wheel { n: 7 },
            GeneratorSpec::Grid { rows: 3, cols: 4 },
            GeneratorSpec::Torus { rows: 3, cols: 5 },
            GeneratorSpec::GridOfCliques {
                rows: 2,
                cols: 2,
                clique: 3,
            },
            GeneratorSpec::RoadLike {
                rows: 6,
                cols: 7,
                seed: 42,
            },
        ]
    }

    #[test]
    fn graph_source_serde_round_trip_of_every_variant() {
        let mut sources: Vec<GraphSource> = all_generator_specs()
            .into_iter()
            .map(GraphSource::Generator)
            .collect();
        sources.push(GraphSource::EdgeListJson {
            path: "g.json".to_string(),
        });
        sources.push(GraphSource::FlatBinary {
            path: "g.lcsg".to_string(),
        });
        for src in sources {
            let v = serde::Serialize::to_value(&src);
            let back: GraphSource = serde::Deserialize::from_value(&v).unwrap();
            assert_eq!(back, src);
        }
    }

    #[test]
    fn generator_sources_resolve_deterministically() {
        for spec in all_generator_specs() {
            let src = GraphSource::Generator(spec.clone());
            let a = src
                .resolve()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
            let b = src.resolve().unwrap();
            assert_eq!(a.graph, b.graph, "{} must be deterministic", spec.name());
            assert_eq!(a.graph.num_nodes() as u64, spec.num_nodes());
            assert!(a.weights.is_none());
            assert_eq!(a.source, src);
        }
    }

    /// The serialized source is the registry key: equal sources render
    /// identically, distinct ones never collide.
    #[test]
    fn canonical_keys_dedup_identical_specs_and_split_distinct_ones() {
        let key = |src: &GraphSource| serde_json::to_string(src).unwrap();
        let a = GraphSource::Generator(GeneratorSpec::Grid { rows: 8, cols: 8 });
        let b = GraphSource::Generator(GeneratorSpec::Grid { rows: 8, cols: 8 });
        let c = GraphSource::Generator(GeneratorSpec::Grid { rows: 8, cols: 9 });
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        assert_eq!(key(&a), r#"{"kind":"grid","rows":8,"cols":8}"#);
        // Different source kinds never collide, even on equal payloads.
        let f1 = GraphSource::EdgeListJson {
            path: "x".to_string(),
        };
        let f2 = GraphSource::FlatBinary {
            path: "x".to_string(),
        };
        assert_ne!(key(&f1), key(&f2));
    }

    /// Every listed family name builds the family of that name, so the
    /// error list, `name()` and `from_params` cannot drift apart.
    #[test]
    fn every_listed_family_kind_round_trips_through_the_table() {
        for kind in FAMILY_KINDS {
            let spec = GeneratorSpec::from_params(kind, |_| Ok(Some(5))).unwrap();
            assert_eq!(spec.name(), kind);
            let given = spec.params();
            let again = GeneratorSpec::from_params(kind, |key| {
                Ok(given.iter().find(|(k, _)| *k == key).map(|&(_, x)| x))
            });
            assert_eq!(again, Ok(spec));
        }
        for kind in PARTITION_KINDS {
            let src = PartitionSource::from_params(kind, |_| Ok(Some(5))).unwrap();
            assert_eq!(src.name(), kind);
        }
    }

    /// A size product past `u64` must not wrap to a small count that slips
    /// under the capacity check (2³²·2³² wraps to 0, and `gen::grid` then
    /// panics on its first edge).
    #[test]
    fn overflowing_sizes_are_a_capacity_error_not_a_wrap() {
        let huge = 1usize << 32;
        for spec in [
            GeneratorSpec::Grid {
                rows: huge,
                cols: huge,
            },
            GeneratorSpec::GridOfCliques {
                rows: 1 << 22,
                cols: 1 << 21,
                clique: 1 << 21,
            },
        ] {
            assert_eq!(spec.num_nodes(), u64::MAX, "{}", spec.name());
            let err = spec.validate().unwrap_err();
            assert_eq!(err.code(), "graph_too_large", "{err}");
            assert!(matches!(err, GraphSourceError::Capacity(_)));
            assert_eq!(spec.build().unwrap_err().code(), "graph_too_large");
        }
    }

    #[test]
    fn invalid_generator_specs_are_typed_not_panics() {
        for (spec, fragment) in [
            (GeneratorSpec::Cycle { n: 2 }, "at least 3"),
            (GeneratorSpec::Wheel { n: 3 }, "at least 4"),
            (GeneratorSpec::Grid { rows: 0, cols: 5 }, "positive"),
            (GeneratorSpec::Torus { rows: 2, cols: 9 }, "at least 3"),
        ] {
            let err = GraphSource::Generator(spec).resolve().unwrap_err();
            assert_eq!(err.code(), "graph_invalid_spec");
            assert!(err.to_string().contains(fragment), "{err}");
        }
    }

    #[test]
    fn missing_files_resolve_to_not_found() {
        for src in [
            GraphSource::EdgeListJson {
                path: "/nonexistent/missing.json".to_string(),
            },
            GraphSource::FlatBinary {
                path: "/nonexistent/missing.lcsg".to_string(),
            },
        ] {
            let err = src.resolve().unwrap_err();
            assert_eq!(err.code(), "graph_file_not_found", "{err}");
        }
    }

    #[test]
    fn resolved_graph_starts_a_session_with_provenance() {
        let src = GraphSource::Generator(GeneratorSpec::Grid { rows: 4, cols: 4 });
        let resolved = src.resolve().unwrap();
        let session = resolved
            .session()
            .partition_source(PartitionSource::Rows { rows: 4, cols: 4 })
            .build()
            .unwrap();
        assert_eq!(session.graph().num_nodes(), 16);
        assert_eq!(session.config().graph_source, Some(src));
        assert_eq!(session.partition().num_parts(), 4);
    }
}
