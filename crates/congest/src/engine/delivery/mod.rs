//! Pluggable delivery backends for the round loop — one *partition* per
//! receiver shard.
//!
//! A backend instance owns every in-flight message whose directed edge is
//! received by its shard, and runs entirely on that shard's lane: the lane
//! validates its own nodes' sends, routes each envelope to the receiving
//! lane's mailbox (lane 0 pushes the ones it receives itself directly),
//! and at the start of the next round the receiving lane pushes the
//! ingested envelopes into its partition and stages the round's
//! deliveries — no coordinator-side pass touches message payloads.
//!
//! Determinism does not depend on which thread runs a partition, only on
//! the *order* each partition sees its own pushes. The engine guarantees
//! that order is the global deterministic send order (shard-major, nodes
//! ascending within a shard, issue order within a node) filtered to the
//! partition's dirs — a filter of a fixed order is itself fixed — and
//! passes each push the exact global sequence number, reconstructed from
//! per-shard send counts via a prefix sum in shard order.
//!
//! Each partition accounts what it delivers into a [`ShardAccount`]; the
//! coordinator folds the accounts in shard order, which makes the summed
//! metrics (`messages`, `bits`, `max_queue`) bit-identical at any thread
//! count.
//!
//! Backends are generic over the wire message type; the engine
//! instantiates them with [`PackedMsg`]`<P::Msg>` envelopes, so one queue
//! slot / one delivery / one `messages` tick corresponds to one (possibly
//! multi-value) CONGEST message regardless of the packing factor.
//!
//! [`PackedMsg`]: crate::PackedMsg

mod queued;
mod strict;

pub(crate) use queued::{CalendarDelivery, HORIZON};
pub(crate) use strict::StrictDelivery;

use super::topology::{To, Topology};
use crate::MessageSize;

/// Per-shard, per-round delivery accounting, folded into [`RunMetrics`] by
/// the coordinator in shard order.
///
/// [`RunMetrics`]: crate::RunMetrics
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct ShardAccount {
    /// Envelopes this shard's nodes sent this round (validated and
    /// bit-accounted in-lane). Drives the seq-base prefix sum.
    pub sends: u64,
    /// Bits those sends were billed at.
    pub bits: u64,
    /// Envelopes this partition *delivered* this round.
    pub messages: u64,
    /// Largest per-dir backlog this partition observed this round.
    pub max_queue: u64,
    /// Wake-ups the shard's programs requested for future rounds.
    pub wakes: usize,
    /// Envelopes still queued in this partition after the round.
    pub pending: usize,
    /// Envelopes this shard's nodes sent that wait in a mailbox for the
    /// receiving lane to ingest them.
    pub routed: usize,
}

/// One receiver shard's delivery partition: accepts validated sends
/// addressed to this shard's dirs, schedules them, and stages each round's
/// deliveries. Its per-dir state is indexed by the receiving port's CSR
/// slot ([`Topology::slot`]) within the shard's own range
/// ([`Topology::shard_dirs`]).
pub(crate) trait Delivery<M: MessageSize> {
    /// Accepts one message arriving at `to`, a `(node, port)` of this
    /// partition's shard.
    ///
    /// `seq` is the run-global send sequence number (monotonic in global
    /// push order); `round` is the round the sender executed in (0 during
    /// `on_start`). Backends may panic on protocol violations (e.g. a
    /// strict-mode double send).
    fn push(&mut self, to: To, priority: u64, seq: u64, msg: M, round: u64, topo: &Topology<'_>);

    /// Number of accepted messages not yet staged.
    fn pending(&self) -> usize;

    /// Gives every growable buffer its first allocation on the calling
    /// thread, before a worker thread runs the partition.
    fn prime(&mut self);

    /// Moves every message due in `round` into `out` as `(to, msg)` pairs
    /// and accounts the deliveries (`messages`, `max_queue`, `pending`)
    /// into `acc`. `out` is this shard's inbound buffer; it is empty on
    /// entry.
    fn stage(
        &mut self,
        round: u64,
        topo: &Topology<'_>,
        out: &mut Vec<(To, M)>,
        acc: &mut ShardAccount,
    );
}
