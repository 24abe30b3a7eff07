//! Strict-mode delivery: a flat per-partition send arena.
//!
//! Pure CONGEST admits at most one message per directed edge per round, so
//! no queueing structure is needed at all: pushes append to the
//! partition's arena `Vec`, and staging a round is a single `Vec` swap
//! with the shard's inbound buffer (the two rotate, so the steady-state
//! round loop allocates nothing). Double-send detection stamps a per-dir
//! round mark, indexed by the partition-local dense dir index.

use super::{Delivery, ShardAccount, Topology};
use crate::MessageSize;

pub(crate) struct StrictDelivery<M> {
    /// Messages sent this round, in partition push order; swapped into the
    /// shard's inbound buffer at the next [`stage`].
    ///
    /// [`stage`]: Delivery::stage
    arena: Vec<(u32, M)>,
    /// Round stamp per partition-local dir for double-send detection.
    sent_round: Vec<u64>,
    /// Messages pushed but not yet staged.
    pending: usize,
}

impl<M> StrictDelivery<M> {
    pub fn new(local_dirs: usize) -> Self {
        StrictDelivery {
            arena: Vec::new(),
            sent_round: vec![0; local_dirs],
            pending: 0,
        }
    }
}

impl<M: MessageSize> Delivery<M> for StrictDelivery<M> {
    fn push(&mut self, dir: u32, _priority: u64, _seq: u64, msg: M, round: u64, topo: &Topology) {
        let local = topo.dir_local(dir);
        assert!(
            self.sent_round[local] != round + 1,
            "strict mode: node {} sent twice on port {} in round {round}",
            topo.sender_of(dir).0 .0,
            topo.sender_of(dir).1,
        );
        self.sent_round[local] = round + 1;
        self.arena.push((dir, msg));
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
        out: &mut Vec<(u32, M)>,
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
