//! Declarative graph and partition sources: serde-able recipes that
//! resolve to a concrete [`Graph`] / [`Partition`](crate::Partition).
//!
//! Sessions historically took partitions as explicit node lists; a
//! [`PartitionSource`] instead names *how* to derive one — grid rows,
//! seeded Voronoi growth, singletons, or a nested-dissection level — so
//! the choice travels inside [`SessionConfig`](crate::SessionConfig),
//! through the `Session` builder, and over the wire in `lcs_server`
//! session specs, and so benches can sweep partition sources from one
//! config surface. Every source is deterministic: Voronoi is pinned by
//! its `u64` seed ([`gen::voronoi_parts_seeded`]) and the separator
//! dissection is deterministic by construction.
//!
//! [`GraphSource`] does the same for the *graph* input: a generator
//! family with parameters, a JSON edge-list file, or a flat-binary
//! `.lcsg` file ([`lcs_graph::io`]) — one resolver
//! ([`GraphSource::resolve`]) replaces the formerly divergent ad-hoc
//! construction paths (server family JSON, edge-list files, programmatic
//! `Graph::from_edges`). The source rides
//! [`SessionConfig::graph_source`](crate::SessionConfig), the `Session`
//! builder (where an explicitly supplied graph always wins, mirroring the
//! partition precedence), and the `lcs_server` graph-spec JSON, and its
//! [`canonical_key`](GraphSource::canonical_key) is what registries
//! deduplicate on.

use crate::session::{Session, SessionBuilder};
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{gen, CapacityError, Graph, GraphBuilder, NodeId};
use lcs_separator::SeparatorConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A recipe for deriving a partition from a graph. Resolved at session
/// build time by [`resolve`](Self::resolve); sources always produce
/// covering partitions on connected graphs (validated with
/// [`Partition::from_parts_covering`](crate::Partition::from_parts_covering)
/// by the consumers, so an unassigned node is a structured error).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
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

/// A generator family with its parameters — the serde-able form of the
/// `lcs_graph::gen` constructors a [`GraphSource::Generator`] names.
/// Deterministic: equal specs build bit-identical graphs (the road-like
/// family is pinned by its `u64` seed).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
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

    /// The node count the spec would build, computed without building —
    /// servers use this to enforce size caps before spending memory.
    pub fn num_nodes(&self) -> u64 {
        match *self {
            GeneratorSpec::Path { n }
            | GeneratorSpec::Cycle { n }
            | GeneratorSpec::Complete { n }
            | GeneratorSpec::Wheel { n } => n as u64,
            GeneratorSpec::Grid { rows, cols }
            | GeneratorSpec::Torus { rows, cols }
            | GeneratorSpec::RoadLike { rows, cols, .. } => rows as u64 * cols as u64,
            GeneratorSpec::GridOfCliques { rows, cols, clique } => {
                rows as u64 * cols as u64 * clique as u64
            }
        }
    }

    /// Checks the family's parameter preconditions without building, so
    /// callers get a typed [`GraphSourceError::InvalidSpec`] instead of a
    /// generator panic.
    pub fn validate(&self) -> Result<(), GraphSourceError> {
        let invalid = |reason: String| Err(GraphSourceError::InvalidSpec { reason });
        match *self {
            GeneratorSpec::Path { n } | GeneratorSpec::Complete { n } => {
                if n == 0 {
                    return invalid(format!("{} needs at least 1 node", self.name()));
                }
            }
            GeneratorSpec::Cycle { n } => {
                if n < 3 {
                    return invalid("cycle needs at least 3 nodes".to_string());
                }
            }
            GeneratorSpec::Wheel { n } => {
                if n < 4 {
                    return invalid("wheel needs at least 4 nodes".to_string());
                }
            }
            GeneratorSpec::Grid { rows, cols } | GeneratorSpec::RoadLike { rows, cols, .. } => {
                if rows == 0 || cols == 0 {
                    return invalid(format!("{} dimensions must be positive", self.name()));
                }
            }
            GeneratorSpec::Torus { rows, cols } => {
                if rows < 3 || cols < 3 {
                    return invalid("torus dimensions must be at least 3".to_string());
                }
            }
            GeneratorSpec::GridOfCliques { rows, cols, clique } => {
                if rows == 0 || cols == 0 || clique == 0 {
                    return invalid("grid_of_cliques dimensions must be positive".to_string());
                }
            }
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
/// `lcs_server` session specs, where its canonical form is the registry
/// dedup key.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
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
    /// The source kind's short name (`generator` / `edge_list_json` /
    /// `flat_binary`).
    pub fn name(&self) -> &'static str {
        match self {
            GraphSource::Generator(_) => "generator",
            GraphSource::EdgeListJson { .. } => "edge_list_json",
            GraphSource::FlatBinary { .. } => "flat_binary",
        }
    }

    /// The canonical serialized form of the source — structurally equal
    /// sources render identically, so this string is what graph registries
    /// and warm-session caches deduplicate on.
    pub fn canonical_key(&self) -> String {
        serde_json::to_string(self).expect("graph sources always serialize")
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

/// The output of [`GraphSource::resolve`]: the graph, its weights when the
/// source carried any, and the source itself (for provenance — the
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
    /// Starts a session builder over the resolved graph: weights (if the
    /// file carried them) are pre-seeded and
    /// [`SessionConfig::graph_source`](crate::SessionConfig) records the
    /// provenance. A later `.config(..)` replaces the whole config,
    /// including that record.
    pub fn session(&self) -> SessionBuilder<'_> {
        let mut b = Session::on(&self.graph).graph_source(self.source.clone());
        if let Some(w) = &self.weights {
            b = b.weights(w.clone());
        }
        b
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

    #[test]
    fn canonical_keys_dedup_identical_specs_and_split_distinct_ones() {
        let a = GraphSource::Generator(GeneratorSpec::Grid { rows: 8, cols: 8 });
        let b = GraphSource::Generator(GeneratorSpec::Grid { rows: 8, cols: 8 });
        let c = GraphSource::Generator(GeneratorSpec::Grid { rows: 8, cols: 9 });
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_ne!(a.canonical_key(), c.canonical_key());
        // Different source kinds never collide, even on equal payloads.
        let f1 = GraphSource::EdgeListJson {
            path: "x".to_string(),
        };
        let f2 = GraphSource::FlatBinary {
            path: "x".to_string(),
        };
        assert_ne!(f1.canonical_key(), f2.canonical_key());
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
