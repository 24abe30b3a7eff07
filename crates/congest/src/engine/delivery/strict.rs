//! Strict-mode delivery: a flat per-partition send arena.
//!
//! Pure CONGEST admits at most one message per directed edge per round, so
//! no queueing structure is needed at all: pushes append to the
//! partition's arena `Vec`, already resolved to the receiving node and
//! port, and staging a round is a single `Vec` swap with the shard's
//! inbound buffer (the two rotate, so the steady-state round loop
//! allocates nothing). Double-send detection stamps a per-dir round mark,
//! indexed by the receiving port's slot within the partition: a `u32`
//! `round + 1`, 4 B per directed edge the partition receives — the one
//! per-edge table a strict run builds. The engine caps a run at
//! `u32::MAX − 64` rounds, so the stamp never wraps.

use super::{Delivery, ShardAccount, To, Topology};
use crate::MessageSize;
use std::ops::Range;

pub(crate) struct StrictDelivery<M> {
    /// Messages sent this round as `(to, msg)`, in partition push order;
    /// swapped into the shard's inbound buffer at the next [`stage`].
    ///
    /// [`stage`]: Delivery::stage
    arena: Vec<(To, M)>,
    /// Per partition dir, `round + 1` of its last send (0: none yet), for
    /// double-send detection.
    sent_round: Vec<u32>,
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
        debug_assert!(round < u64::from(u32::MAX), "the engine caps rounds");
        let stamp = round as u32 + 1;
        assert!(
            self.sent_round[local] != stamp,
            "strict mode: node {} sent twice on port {} in round {round}",
            topo.sender_of(to).0 .0,
            topo.sender_of(to).1,
        );
        self.sent_round[local] = stamp;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ROUND_CAP;
    use lcs_graph::gen;

    /// Where node 0's one edge of `gen::path(2)` arrives: node 1, port 0.
    const TO: To = (1, 0);

    #[test]
    fn a_strict_table_is_four_bytes_per_directed_edge() {
        let g = gen::path(5);
        let topo = Topology::build(&g, 1);
        let part: StrictDelivery<u32> = StrictDelivery::new(topo.shard_dirs(0));
        assert_eq!(part.sent_round.len(), 8);
        assert_eq!(std::mem::size_of_val(&part.sent_round[..]), 4 * 8);
    }

    /// The stamps of the last rounds a run may reach stay distinct: one
    /// send per round up to the cap is legal.
    #[test]
    fn the_stamp_holds_up_to_the_round_cap() {
        let g = gen::path(2);
        let topo = Topology::build(&g, 1);
        let mut part: StrictDelivery<u32> = StrictDelivery::new(topo.shard_dirs(0));
        for round in [0, 1, ROUND_CAP - 1, ROUND_CAP] {
            part.push(TO, 0, round, round as u32, round, &topo);
        }
        assert_eq!(part.pending(), 4);
    }

    #[test]
    #[should_panic(expected = "sent twice")]
    fn a_second_send_in_the_caps_round_is_caught() {
        let g = gen::path(2);
        let topo = Topology::build(&g, 1);
        let mut part: StrictDelivery<u32> = StrictDelivery::new(topo.shard_dirs(0));
        part.push(TO, 0, 1, 1, ROUND_CAP, &topo);
        part.push(TO, 0, 2, 2, ROUND_CAP, &topo);
    }
}
