//! A deterministic simulator for the synchronous CONGEST model.
//!
//! The paper's model (§1.1): the network is an `n`-node undirected graph; in
//! each round every node may send one `O(log n)`-bit message to each
//! neighbor. Nodes know their own id, their neighbors' ids, and nothing else
//! about the topology.
//!
//! This crate provides:
//!
//! * [`Simulator`] — a round-driven engine executing one [`NodeProgram`]
//!   per node, enforcing per-edge bandwidth (strict mode) or queueing excess
//!   messages with priorities (queued mode, used for random-delay and
//!   random-priority scheduling), and reporting exact round/message/bit
//!   counts ([`RunMetrics`]),
//! * [`protocols`] — the standard building blocks (the BFS tree flood,
//!   the aggregation operators) the distributed algorithms in the
//!   workspace reuse.
//!
//! Determinism: the engine draws no randomness of its own — a protocol that
//! needs random choices derives them from its own seed (e.g. with
//! [`splitmix`]) — so identical inputs yield identical executions, and
//! every round count the `experiments` binary prints (and pins claims on)
//! is exactly reproducible.
//!
//! # Example
//!
//! ```
//! use lcs_congest::{protocols::BfsTreeProgram, SimConfig, Simulator};
//! use lcs_graph::{gen, NodeId};
//!
//! let g = gen::grid(4, 4);
//! let sim = Simulator::new(&g, SimConfig::default());
//! let run = sim.run(|v, _| BfsTreeProgram::new(v == NodeId(0)));
//! assert!(run.metrics.terminated);
//! // BFS completes in eccentricity + O(1) rounds.
//! assert!(run.metrics.rounds <= 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod message;
mod metrics;

pub mod protocols;

pub use engine::{
    splitmix, Ctx, Incoming, NodeProgram, RunOutcome, SimConfig, SimMode, Simulator, GRAIN,
};
pub use message::{id_bits, MessageSize, PackedMsg};
pub use metrics::{PhaseTimings, RunMetrics};
