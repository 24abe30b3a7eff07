//! The reproduction as a gate: experiments E1–E12 regenerate the analogue
//! of every table and figure of the paper, and each returns, next to its
//! tables, the typed [`Claim`] rows it makes about them — the paper's
//! statement, the instance, the measured value and the analytic (or
//! pinned) bound. The `experiments` binary prints the tables and fails,
//! naming every violated row; the README's "Experiments" section is the
//! index of claims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claim;
pub mod experiments;
pub mod table;

pub use claim::{Claim, Relation, Report};
pub use table::{f2, Table};

use experiments::*;

/// Runs one experiment: its tables and the claims made on them.
pub type Experiment = fn() -> Report;

/// Every experiment in order: its CLI id and the function that runs it.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("e1", e1_partial_bounds::run),
    ("e2", e2_full_bounds::run),
    ("e3", e3_lower_bound::run),
    ("e4", e4_dist_construction::run),
    ("e5", e5_partwise::run),
    ("e6", e6_mst::run),
    ("e7", e7_mincut::run),
    ("e8", e8_genus::run),
    ("e9", e9_treewidth::run),
    ("e10", e10_wheel::run),
    ("e11", e11_ablation::run),
    ("e12", e12_witness::run),
];
