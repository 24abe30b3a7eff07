//! Graph-family generators with known or controllable minor density.
//!
//! Every experiment in the workspace sweeps some parameter (δ, D, genus g,
//! treewidth k, n) over a family from this module. Each generator documents
//! the analytic bound on the minor density `δ(G)` that the experiments rely
//! on.

mod adversarial;
mod basic;
mod grids;
mod lower_bound;
mod partitions;
mod random;
mod structured;

pub use adversarial::{comb, CombInstance};
pub use basic::{complete, cycle, path, star, wheel};
pub use grids::{grid, grid_king, torus};
pub use lower_bound::{lower_bound_topology, LowerBoundTopology};
pub use partitions::{
    random_connected_parts, random_partial_parts, rows_of_grid, singleton_parts, voronoi_parts,
    voronoi_parts_seeded,
};
pub use random::{gnm_connected, grid_plus_random_edges, ring_with_matchings, road_like};
pub use structured::{binary_tree, grid_of_cliques, ktree, path_power};
