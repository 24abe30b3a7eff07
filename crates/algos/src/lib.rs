//! Shortcut-based distributed graph algorithms (the paper's Corollaries),
//! with centralized references.
//!
//! * [`mst`] — Boruvka's MST over part-wise aggregation (Corollary 1.6),
//!   checked against Kruskal; each phase asks its caller for shortcuts
//!   (a session's construction, or a comparator's `D+√n` baseline or none).
//! * [`connectivity`] — spanning forest / connected components as unweighted
//!   Boruvka.
//! * [`mincut`] — minimum cut: exact Stoer–Wagner reference and the
//!   distributed greedy-tree-packing approximation (Corollary 1.7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connectivity;
pub mod mincut;
pub mod mst;
pub mod session_ops;

pub use session_ops::SessionAlgoOps;
