//! Graph minors: witnesses, verification, contraction, and minor-density
//! estimation.
//!
//! The paper's central parameter is the minor density
//! `δ(G) = max { |E'|/|V'| : H = (V', E') is a minor of G }`. Computing it
//! exactly is NP-hard, so this module provides:
//!
//! * [`MinorWitness`] + [`verify_minor`]: certified *lower* bounds — a
//!   concrete minor embedding that can be checked in polynomial time (this is
//!   the certificate format produced by the paper's Case (II) extraction),
//! * [`greedy_contraction_density`]: a contraction heuristic producing good
//!   witnesses in practice,
//! * [`degeneracy`]-based and edge-density lower bounds,
//! * [`exact_minor_density_small`]: exhaustive search for tiny graphs, used
//!   to validate the heuristics in tests.

mod clique;
mod density;
mod exact;
mod witness;

pub use clique::{excludes_clique_minor, guaranteed_clique_minor_order, max_clique_minor_order};
pub use density::{degeneracy, greedy_contraction_density, DensityEstimate};
pub use exact::exact_minor_density_small;
pub use witness::{verify_minor, MinorVerifyError, MinorWitness};
