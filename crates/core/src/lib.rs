//! Low-congestion shortcuts for graphs excluding dense minors — the core
//! construction of Ghaffari & Haeupler (PODC 2021), fronted by the
//! [`ShortcutSession`] facade.
//!
//! # The session facade
//!
//! A shortcut is built once per topology and *served* to many part-wise
//! operations — that serving shape is the [`session`] module:
//! [`Session::on(&graph)`](Session::on) starts a typed builder
//! (`.tree(..)`, `.partition(..)`, `.backend(..)`, `.config(..)`), and the
//! resulting [`ShortcutSession`] lazily computes and caches the BFS tree
//! and the full shortcut (with quality report and dense-minor
//! certificate). Construction runs on one of
//! three pluggable [`Backend`]s — centralized Theorem 1.2, the simulated
//! exact Theorem 1.5 protocol, or KMV-sketch detection — and every
//! operation (the extension-trait methods of `lcs_partwise` /
//! `lcs_algos`) returns a uniform [`OpReport`]. Every setting lives in
//! one serde-able [`SessionConfig`]; construction runs with the paper's
//! constants, [`ShortcutConfig::default`], whose
//! [`envelope`](ShortcutConfig::envelope) bounds what a session serves.
//!
//! ```
//! use lcs_core::session::{Backend, Session, TreeSource};
//! use lcs_core::ShortcutConfig;
//! use lcs_graph::{gen, NodeId};
//!
//! let g = gen::grid(8, 8);
//! let mut session = Session::on(&g)
//!     .tree(TreeSource::Bfs(NodeId(0)))
//!     .partition(gen::rows_of_grid(8, 8))
//!     .backend(Backend::Centralized)
//!     .build()?;
//! let q = session.quality().clone();                 // constructs + caches
//! let (delta_hat, depth) = (session.delta_hat(), session.tree().depth_of_tree());
//! let bound = ShortcutConfig::default().envelope(delta_hat, depth, 1);
//! assert!(q.max_blocks <= bound.blocks && q.max_dilation_upper <= bound.dilation);
//! assert_eq!(session.cache_stats().full.builds, 1);  // …and stays cached
//! # Ok::<(), lcs_core::session::SessionError>(())
//! ```
//!
//! Sessions are mutable: [`ShortcutSession::set_partition`] swaps the
//! partition wholesale and [`ShortcutSession::reassign_parts`] moves nodes
//! between parts and re-customizes only the touched parts. Each cached
//! artifact that reads the partition — the one mutable input — is
//! invalidated precisely when it changes; see the
//! [`session`] module docs for the epoch model.
//!
//! # The underlying machinery
//!
//! The construction itself is implemented, centrally and distributedly, by:
//!
//! * [`Partition`] / [`Shortcut`]: the objects of Definition 2.1/2.2, and
//!   the [`Transition`] both follow when a partition moves,
//! * [`partial_shortcut_or_witness`]: the Theorem 3.1 sweep of both
//!   theorems — either a tree-restricted `8δ̂D`-congestion `8δ̂`-block
//!   *partial* shortcut for at least half the active parts, or a certified
//!   minor of density `> δ̂` (Case (II), extracted derandomized via
//!   conditional expectations; [`extract_witness_sampled`] is the paper's
//!   sampling, for comparison); its cut set comes from the threshold rule
//!   or, distributedly, from the detection convergecast, and assembly, the
//!   Case split and witness extraction are the same function either way,
//! * [`construct`]: the Observation 2.7 loop plus doubling search over
//!   `δ̂`, yielding the full shortcuts of Theorem 1.2 together with a
//!   dense-minor certificate for near-optimality — centrally
//!   ([`full_shortcut`] is that form over every part), or as Theorem 1.5
//!   with each sweep's cut set detected on the simulator,
//! * [`measure_quality`]: congestion / dilation / block-number measurement
//!   (Definition 2.2/2.3, Observation 2.6),
//! * [`baseline`]: the folklore `D + √n` shortcut for general graphs,
//! * [`dist`]: the simulated phases of the distributed `Õ(δD)`-round
//!   construction of Theorem 1.5 — the BFS flood and the detection
//!   convergecast.
//!
//! These free functions remain the explicit-artifact surface (and what the
//! session drives internally); prefer the session for anything that
//! queries one topology more than once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod config;
mod full;
mod partition;
mod quality;
mod shortcut;
mod source;
mod sweep;
mod witness;

pub mod dist;
pub mod session;

pub use config::{Envelope, ShortcutConfig};
pub use full::{
    construct, construction_tree, full_shortcut, ConstructionStats, FullShortcutResult, RoundLog,
};
pub use partition::{Partition, PartitionError, Transition};
pub use quality::{measure_quality, PartQuality, QualityReport};
pub use session::{
    ArtifactStats, Backend, CacheStats, OpReport, Session, SessionBuilder, SessionConfig,
    ShortcutSession, TreeSource,
};
pub use shortcut::Shortcut;
pub use source::{GeneratorSpec, GraphSource, GraphSourceError, PartitionSource, ResolvedGraph};
pub use sweep::{partial_shortcut_or_witness, OverEdge, Sweep, SweepData};
pub use witness::{extract_witness_derandomized, extract_witness_sampled};
