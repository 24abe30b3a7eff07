//! Strict-mode delivery: a flat per-partition send arena.
//!
//! Pure CONGEST admits at most one message per directed edge per round, so
//! no queueing structure is needed at all: pushes append to the
//! partition's arena `Vec`, already resolved to the receiving node and
//! port, and staging a round is a single `Vec` swap with the shard's
//! inbound buffer (the two rotate, so the steady-state round loop
//! allocates nothing). Double-send detection stamps a per-dir round mark,
//! indexed by the receiving port's slot within the partition.

use super::{Delivery, ShardAccount, To, Topology};
use crate::MessageSize;
use std::ops::Range;

pub(crate) struct StrictDelivery<M> {
    /// Messages sent this round as `(to, msg)`, in partition push order;
    /// swapped into the shard's inbound buffer at the next [`stage`].
    ///
    /// [`stage`]: Delivery::stage
    arena: Vec<(To, M)>,
    /// Round stamp per partition dir for double-send detection.
    sent_round: Vec<u64>,
    /// The partition's first slot.
    base: u32,
    /// Messages pushed but not yet staged.
    pending: usize,
}

impl<M> StrictDelivery<M> {
    /// The partition of the receiving ports whose slots are `dirs`.
    pub fn new(dirs: Range<u32>) -> Self {
        StrictDelivery {
            arena: Vec::new(),
            sent_round: vec![0; dirs.len()],
            base: dirs.start,
            pending: 0,
        }
    }
}

impl<M: MessageSize> Delivery<M> for StrictDelivery<M> {
    fn push(&mut self, to: To, _: u64, _: u64, msg: M, round: u64, topo: &Topology) {
        let local = (topo.slot(to) - self.base) as usize;
        assert!(
            self.sent_round[local] != round + 1,
            "strict mode: node {} sent twice on port {} in round {round}",
            topo.sender_of(to).0 .0,
            topo.sender_of(to).1,
        );
        self.sent_round[local] = round + 1;
        self.arena.push((to, msg));
        self.pending += 1;
    }

    fn pending(&self) -> usize {
        self.pending
    }

    fn prime(&mut self) {
        crate::engine::prime(&mut self.arena);
    }

    fn stage(
        &mut self,
        _round: u64,
        _topo: &Topology,
        out: &mut Vec<(To, M)>,
        acc: &mut ShardAccount,
    ) {
        if self.arena.is_empty() {
            return;
        }
        acc.max_queue = acc.max_queue.max(1);
        acc.messages += self.arena.len() as u64;
        self.pending -= self.arena.len();
        if out.is_empty() {
            std::mem::swap(&mut self.arena, out);
        } else {
            out.append(&mut self.arena);
        }
    }
}
