//! Part-wise aggregation (Definition 2.1 of the paper), centralized and
//! distributed.
//!
//! Given a partition into connected parts and a value per node, every node
//! of part `P_i` must learn an aggregate (min / max / sum) of its part's
//! values. Shortcuts exist precisely to make this fast: the distributed
//! solver runs one echo protocol per part over `G[P_i] + H_i` — an offer
//! wave from the leader (a node adopts the sender of the first offer it
//! hears; two offers that cross on an edge answer each other), then
//! convergecast and result broadcast over the adopted tree — multiplexed on
//! the queued CONGEST simulator, optionally with the random start delays
//! of [LMR94, Gha15] (`run_on`'s `delay_range`, drawn from a fixed
//! seed; they pay where parts contend, `experiments e5`), completing in
//! `Õ(congestion + dilation)` rounds. A slot with
//! no member of its part below it reports `Empty` instead of a value and
//! is *pruned*: its parent drops it and sends it no `Down`. Read off the
//! [`ParticipationMap`], a cold run sends exactly `ports + 2·(slots −
//! parts) − pruned` messages at `message_packing = 1`: an offer over every
//! participating `(slot, port)` pair but a non-root slot's parent port,
//! one adopt and one `Up` or `Empty` per non-root slot, and one `Down` per
//! kept non-root slot.
//!
//! That echo is the crate's one part-wise protocol: the session's gossip
//! (min / max, no leaders asked for) is the same [`AggregateOp`], and no
//! leaderless protocol remains. Every part runs from one leader — the
//! caller's, the root of its cached tree, or, for an unrooted part, its
//! minimum member, picked on the host at zero charge.
//!
//! # Root once, aggregate many
//!
//! The wave's spanning trees depend only on `G[P_i] + H_i` and the leaders,
//! so an [`AggForest`] keeps them between runs ([`AggregateOp::run_masked`]
//! takes it in/out; the session ops run it with `(Wave::Echo, None)`). A
//! *cold* run (nothing rooted; every [`AggregateOp::run_on`]) is the echo
//! above, bit for bit; a *warm* run sends only the convergecast and the
//! broadcast over the kept slots, and [`PartwiseOutcome::rooted_parts`]
//! reports how many parts the forest served. The tables and the forest follow a partition's
//! [`Transition`](lcs_core::Transition) — the session's `reassign_parts`
//! churn, every Boruvka phase — through [`ParticipationMap::refreshed`] and
//! [`AggForest::carried_over`]. This is a model choice, not a host
//! optimisation: nodes keep `O(participation)` words of state between
//! aggregations.
//!
//! Four [`Wave`]s say who learns a result: every member (`Echo`), the
//! leader and the extreme's holder (`ToExtreme`), every member from the
//! leader's value (`Broadcast`), or the leader alone (`Convergecast`, `Up`s
//! only: over [`AggForest::of_tree`], the subtree sum along a given tree).
//!
//! # Multiple unicasts
//!
//! [`UnicastOp`] routes one packet per demand store-and-forward along its
//! tree path. Every packet leaves its source in round 0 — there are no
//! start delays — and carries a random priority, drawn from a fixed seed,
//! that decides which queued packet an edge forwards first.
//!
//! # Example
//!
//! ```
//! use lcs_congest::protocols::AggOp;
//! use lcs_congest::SimConfig;
//! use lcs_core::{full_shortcut, Partition, ShortcutConfig};
//! use lcs_graph::{bfs, gen, NodeId};
//! use lcs_partwise::AggregateOp;
//!
//! let g = gen::grid(6, 6);
//! let partition = Partition::from_parts(&g, gen::rows_of_grid(6, 6))?;
//! let tree = bfs::bfs_tree(&g, NodeId(0));
//! let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
//! let values: Vec<u64> = (0..36).collect();
//!
//! let out = AggregateOp { values: &values, op: AggOp::Max, leaders: None }
//!     .run_on(&g, &partition, &built.shortcut, 0, SimConfig::default());
//! assert!(out.all_members_informed);
//! assert_eq!(out.results[0], Some(5)); // max of row 0's values 0..=5
//! # Ok::<(), lcs_core::session::SessionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod centralized;
mod dist;
pub mod session_ops;
pub mod unicast;

pub use centralized::centralized_aggregate;
pub use dist::{AggForest, AggregateOp, ParticipationMap, PartwiseOutcome, Wave};
pub use session_ops::{GossipOutcome, IdempotentOp, SessionPartwiseOps};
pub use unicast::{UnicastOp, UnicastOutcome};
