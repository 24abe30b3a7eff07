//! Part-wise aggregation (Definition 2.1 of the paper), centralized and
//! distributed.
//!
//! Given a partition into connected parts and a value per node, every node
//! of part `P_i` must learn an aggregate (min / max / sum) of its part's
//! values. Shortcuts exist precisely to make this fast: the distributed
//! solver runs one echo protocol per part over `G[P_i] + H_i` — offer wave
//! from the leader, adopt/decline replies, convergecast, result broadcast —
//! multiplexed with the random-delays technique [LMR94, Gha15] on the queued
//! CONGEST simulator, completing in `Õ(congestion + dilation)` rounds.
//!
//! # Example
//!
//! ```
//! use lcs_congest::protocols::AggOp;
//! use lcs_core::{full_shortcut, Partition, ShortcutConfig};
//! use lcs_graph::{bfs, gen, NodeId};
//! use lcs_partwise::{AggregateOp, PartwiseConfig};
//!
//! let g = gen::grid(6, 6);
//! let partition = Partition::from_parts(&g, gen::rows_of_grid(6, 6))?;
//! let tree = bfs::bfs_tree(&g, NodeId(0));
//! let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
//! let values: Vec<u64> = (0..36).collect();
//!
//! let out = AggregateOp { values: &values, op: AggOp::Max, leaders: None }
//!     .run_on(&g, &partition, &built.shortcut, &PartwiseConfig::default());
//! assert!(out.all_members_informed);
//! assert_eq!(out.results[0], Some(5)); // max of row 0's values 0..=5
//! # Ok::<(), lcs_core::PartitionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod centralized;
mod dist;
pub mod gossip;
pub mod session_ops;
pub mod unicast;

pub use centralized::centralized_aggregate;
pub use dist::{AggregateOp, ParticipationMap, PartwiseConfig, PartwiseOutcome};
pub use gossip::{GossipOp, GossipOutcome, IdempotentOp};
pub use session_ops::SessionPartwiseOps;
pub use unicast::{UnicastConfig, UnicastOp, UnicastOutcome};
