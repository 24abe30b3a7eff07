//! Queued-mode delivery: a bucketed calendar queue (one per receiver
//! shard).
//!
//! Queued mode delivers, per round, the `(priority, seq)`-minimum pending
//! message of every non-empty directed edge, off a calendar. Its memory is
//! 12 B per directed edge it receives (a `head`, a `tail` and a token clock,
//! `u32`s all three) plus its in-flight traffic, held in two pooled arenas
//! that grow to the run's peak and are reused through free lists, so a run
//! allocates a constant number of buffers:
//!
//! - **Per-dir lists** hold each directed edge's pending messages sorted
//!   ascending by `(priority, seq)`: singly linked through the *entry
//!   arena*, with a `head` and `tail` index per partition dir (indexed by
//!   the receiving port's slot, [`Topology::slot`]). The
//!   head entry also carries the dir's queue length. The dominant
//!   workloads (detection convergecasts, the part-wise echo) send
//!   everything at one priority, so inserts append at the tail and pops
//!   take the head, both `O(1)`. A preempting send (a lower priority
//!   arriving behind queued messages, as in multi-unicast routing with
//!   random priorities) walks its edge's list to its place.
//! - **Delivery tokens** schedule *when* a dir drains. Each push claims
//!   the dir's next free round via a per-dir clock:
//!   `slot = max(round + 1, next_slot)`, then `next_slot = slot + 1`. The
//!   clock makes every token slot of a dir distinct — the invariant that
//!   keeps delivery-time merging (below) within the one-message-per-edge-
//!   per-round CONGEST discipline. Tokens are anonymous — a fired token
//!   delivers whatever is minimal *at that round* — so preemption never
//!   reschedules anything. The clock is a `u32` that saturates: the engine
//!   caps a run at `u32::MAX − HORIZON` rounds, so every slot the calendar
//!   can still deliver is below `u32::MAX` and distinct, and a saturated
//!   clock only claims slots past the cap, which wait in the overflow
//!   ring until the run ends.
//! - **Calendar buckets**: a token for round `r` is appended to the FIFO
//!   list of `bucket[r % horizon]`, linked through the *token arena*;
//!   staging round `r` drains that one list in order. Tokens more than
//!   `horizon` rounds out (a dir backlog deeper than the horizon) wait in
//!   an **overflow ring** that is swept back into the buckets once per
//!   calendar wrap (`round % horizon == 0`); a slot `s` token is always
//!   swept in by the unique wrap in `[s - horizon + 1, s]`, i.e. before it
//!   is due.
//!
//! ## Delivery-time merging
//!
//! With `message_packing = k > 1`, a firing token absorbs the dir's
//! queued follow-up messages — same priority, FIFO order — into the
//! departing envelope while the combined value count stays within `k` and
//! the combined packed width within the bandwidth budget. This is what
//! lets *trickle* senders (one value per round, so send-side packing never
//! sees a run) ride multi-value messages: the backlog coalesces at the
//! moment the edge actually has bandwidth. Absorbed messages leave their
//! tokens behind; a stale token either finds the dir empty (skipped) or
//! delivers a later message a few rounds early — never two envelopes on
//! one dir in one round, because token slots are distinct per dir.
//! Per-dir future tokens always ≥ pending messages (a push adds one of
//! each; a firing token removes one token and ≥ 1 message unless the dir
//! is already empty), so no message is ever stranded.
//!
//! Without merging (`k = 1`) there are no stale tokens and a dir's tokens
//! occupy consecutive rounds from the round after its first pending send,
//! so every non-empty dir fires exactly one token per round.

use super::{Delivery, ShardAccount, To, Topology};
use crate::message::Mergeable;
use crate::MessageSize;
use std::ops::Range;

/// Calendar width in rounds. Backlogs deeper than this spill to the
/// overflow ring; 64 covers every corpus workload (detection backlogs track
/// the congestion threshold, double-digit in practice) while keeping the
/// bucket array cache-resident.
pub(crate) const HORIZON: u64 = 64;

/// "No entry": the end of a list, and an empty dir's `head`.
const NIL: u32 = u32::MAX;

/// One pending message on a directed edge, a node of its dir's list (or,
/// released, of the free list).
struct Entry<M> {
    priority: u64,
    seq: u64,
    /// The next entry of the same list.
    next: u32,
    /// At a dir's head: the number of messages the dir holds.
    len: u32,
    /// `None` once delivered (the entry is then on the free list).
    msg: Option<M>,
}

impl<M> Entry<M> {
    fn key(&self) -> (u64, u64) {
        (self.priority, self.seq)
    }
}

pub(crate) struct CalendarDelivery<M> {
    /// The partition's first slot: a dir's local index is its receiving
    /// port's slot minus `base`.
    base: u32,
    /// Per local dir, its first (minimum) entry; `NIL` when empty.
    head: Vec<u32>,
    /// Per local dir, its last entry; meaningful only while `head` is not
    /// `NIL`.
    tail: Vec<u32>,
    /// Per-local-dir token clock: the earliest round this dir has not yet
    /// claimed a delivery token for, saturating at `u32::MAX`.
    next_slot: Vec<u32>,
    /// The entry arena: every pending message of the partition.
    entries: Vec<Entry<M>>,
    /// Head of the released entries' list.
    free_entry: u32,
    /// Per bucket, the `(first, last)` token of the dirs delivering in
    /// round `r` for `bucket[r % horizon]`; `first == NIL` when empty.
    buckets: Vec<(u32, u32)>,
    /// The token arena: `(where the dir arrives, next token of the same
    /// bucket)`; released tokens are chained through `next` from
    /// `free_token`.
    tokens: Vec<(To, u32)>,
    free_token: u32,
    /// Tokens scheduled beyond the calendar window: `(round, where the dir
    /// arrives)`, swept into the buckets at each calendar wrap.
    overflow: Vec<(u64, To)>,
    horizon: u64,
    /// Messages accepted but not yet delivered.
    pending: usize,
    /// Max values per delivered envelope (the resolved `message_packing`);
    /// 1 disables delivery-time merging.
    pack: usize,
    /// Per-message bandwidth budget in bits, capping merged envelopes.
    budget: usize,
}

impl<M> CalendarDelivery<M> {
    /// The partition of the receiving ports whose slots are `dirs`.
    pub fn new(dirs: Range<u32>, pack: usize, budget: usize) -> Self {
        Self::with_horizon(dirs, HORIZON, pack, budget)
    }

    /// Test hook: a custom (small) horizon exercises the overflow ring
    /// without thousand-message backlogs.
    pub fn with_horizon(dirs: Range<u32>, horizon: u64, pack: usize, budget: usize) -> Self {
        assert!(horizon >= 1);
        let local_dirs = dirs.len();
        CalendarDelivery {
            base: dirs.start,
            head: vec![NIL; local_dirs],
            tail: vec![NIL; local_dirs],
            next_slot: vec![0; local_dirs],
            entries: Vec::new(),
            free_entry: NIL,
            buckets: vec![(NIL, NIL); horizon as usize],
            tokens: Vec::new(),
            free_token: NIL,
            overflow: Vec::new(),
            horizon,
            pending: 0,
            pack: pack.max(1),
            budget,
        }
    }

    /// Inserts into the local dir's `(priority, seq)`-ordered list.
    fn insert(&mut self, local: usize, priority: u64, seq: u64, msg: M) {
        let item = Entry {
            priority,
            seq,
            next: NIL,
            len: 1,
            msg: Some(msg),
        };
        let key = item.key();
        let e = pool_insert(&mut self.entries, &mut self.free_entry, item, |e| e.next);
        let (head, tail) = (self.head[local], self.tail[local]);
        if head == NIL {
            (self.head[local], self.tail[local]) = (e, e);
            return;
        }
        let len = self.entries[head as usize].len + 1;
        if self.entries[tail as usize].key() < key {
            // The common case: a FIFO stream appends.
            self.entries[tail as usize].next = e;
            self.tail[local] = e;
            self.entries[head as usize].len = len;
        } else if key < self.entries[head as usize].key() {
            // A new minimum becomes the head and carries the length.
            let new = &mut self.entries[e as usize];
            (new.next, new.len) = (head, len);
            self.head[local] = e;
        } else {
            // A preempting send walks to its place (strictly inside the
            // list: it is neither below the head nor above the tail).
            let mut prev = head;
            loop {
                let next = self.entries[prev as usize].next;
                if key < self.entries[next as usize].key() {
                    self.entries[e as usize].next = next;
                    break;
                }
                prev = next;
            }
            self.entries[prev as usize].next = e;
            self.entries[head as usize].len = len;
        }
    }

    /// The local dir's minimum, if it has one.
    fn peek(&self, local: usize) -> Option<&Entry<M>> {
        let head = self.head[local];
        (head != NIL).then(|| &self.entries[head as usize])
    }

    /// Removes the local dir's minimum and returns its priority, its
    /// message and the dir's queue length before the pop; `None` when the
    /// dir has nothing pending (a stale token after delivery-time
    /// merging).
    fn pop_min(&mut self, local: usize) -> Option<(u64, M, usize)> {
        let head = self.head[local];
        if head == NIL {
            return None;
        }
        let free = self.free_entry;
        let entry = &mut self.entries[head as usize];
        let (priority, len, next) = (entry.priority, entry.len, entry.next);
        let msg = entry.msg.take().expect("a listed entry holds its message");
        entry.next = free;
        self.free_entry = head;
        self.head[local] = next;
        if next != NIL {
            self.entries[next as usize].len = len - 1;
        }
        Some((priority, msg, len as usize))
    }

    /// Appends a token for the dir arriving at `to` to the bucket of
    /// round `slot`.
    fn schedule(&mut self, slot: u64, to: To) {
        let token = (to, NIL);
        let t = pool_insert(&mut self.tokens, &mut self.free_token, token, |t| t.1);
        let bucket = &mut self.buckets[(slot % self.horizon) as usize];
        match bucket.0 {
            NIL => *bucket = (t, t),
            _ => {
                self.tokens[bucket.1 as usize].1 = t;
                bucket.1 = t;
            }
        }
    }
}

/// Stores `item` in a free-listed arena and returns its index: in the
/// released slot at `free`, whose `next_of` continues the free list, or
/// appended when none is left.
fn pool_insert<T>(pool: &mut Vec<T>, free: &mut u32, item: T, next_of: impl Fn(&T) -> u32) -> u32 {
    match *free {
        NIL => {
            pool.push(item);
            (pool.len() - 1) as u32
        }
        at => {
            *free = next_of(&pool[at as usize]);
            pool[at as usize] = item;
            at
        }
    }
}

impl<M: MessageSize + Mergeable> Delivery<M> for CalendarDelivery<M> {
    fn push(&mut self, to: To, priority: u64, seq: u64, msg: M, round: u64, topo: &Topology) {
        let local = (topo.slot(to) - self.base) as usize;
        self.insert(local, priority, seq, msg);
        // Claim the dir's next free delivery round. `round + 1 ..
        // round + horizon` are all in the calendar window at push time (the
        // round-`round` bucket was drained before any round-`round` send is
        // pushed), and `round + horizon` would collide with it, so
        // strictly-less guards the bucket bound. The clock only trails
        // `round + 1` while the dir has been idle, in which case it has no
        // outstanding tokens; after merging it may lead the dir's true
        // backlog, keeping new slots distinct from stale tokens.
        let slot = (round + 1).max(u64::from(self.next_slot[local]));
        self.next_slot[local] = (slot + 1).min(u64::from(u32::MAX)) as u32;
        if slot < round + self.horizon {
            self.schedule(slot, to);
        } else {
            self.overflow.push((slot, to));
        }
        self.pending += 1;
    }

    fn pending(&self) -> usize {
        self.pending
    }

    fn prime(&mut self) {
        crate::engine::prime(&mut self.entries);
        crate::engine::prime(&mut self.tokens);
        crate::engine::prime(&mut self.overflow);
    }

    fn stage(
        &mut self,
        round: u64,
        topo: &Topology,
        out: &mut Vec<(To, M)>,
        acc: &mut ShardAccount,
    ) {
        // Calendar wrap: pull overdue-soon tokens out of the overflow ring.
        // `slot == round` entries must land before the drain below; tokens at
        // `round + horizon` or later would collide with still-pending buckets
        // and wait for the next wrap.
        if round.is_multiple_of(self.horizon) && !self.overflow.is_empty() {
            let mut overflow = std::mem::take(&mut self.overflow);
            overflow.retain(|&(slot, to)| {
                debug_assert!(slot >= round);
                let due = slot < round + self.horizon;
                if due {
                    self.schedule(slot, to);
                }
                !due
            });
            self.overflow = overflow;
        }

        let n = topo.num_nodes();
        let idx = (round % self.horizon) as usize;
        let mut token = std::mem::replace(&mut self.buckets[idx], (NIL, NIL)).0;
        while token != NIL {
            let (to, next) = self.tokens[token as usize];
            self.tokens[token as usize].1 = self.free_token;
            self.free_token = token;
            token = next;
            let local = (topo.slot(to) - self.base) as usize;
            let Some((priority, mut msg, qlen)) = self.pop_min(local) else {
                continue; // stale token: this dir's backlog merged away
            };
            acc.max_queue = acc.max_queue.max(qlen as u64);
            let mut removed = 1;
            if self.pack > 1 {
                // Delivery-time merging: absorb queued same-priority
                // follow-ups (FIFO: the list yields them in (priority, seq)
                // order) while the envelope stays within the packing
                // factor and the bandwidth budget.
                let mut vals = msg.values();
                let mut width = msg.size_bits_in(n);
                while vals < self.pack {
                    let Some(next) = self.peek(local).filter(|e| e.priority == priority) else {
                        break;
                    };
                    let next = next.msg.as_ref().expect("a listed entry holds its message");
                    let nvals = next.values();
                    if vals + nvals > self.pack {
                        break;
                    }
                    let cost = msg.merge_cost_in(next, n);
                    if width.saturating_add(cost) > self.budget {
                        break;
                    }
                    let (_, follow, _) = self.pop_min(local).expect("peeked above");
                    msg.absorb(follow);
                    vals += nvals;
                    width += cost;
                    removed += 1;
                }
            }
            out.push((to, msg));
            acc.messages += 1;
            self.pending -= removed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PackedMsg;
    use lcs_graph::gen;

    /// Where node 0's one edge of `gen::path(2)` arrives: node 1, port 0.
    const TO: To = (1, 0);

    /// Raw `u32` payloads are unmergeable (the [`Mergeable`] defaults), so
    /// the scheduling tests below exercise the calendar exactly as a
    /// `packing = 1` run would even when constructed with a larger pack.
    impl Mergeable for u32 {}

    /// Drives a backend directly: pushes with explicit rounds, stages every
    /// round, and returns the delivered payloads in order.
    fn drain_all(cal: &mut CalendarDelivery<u32>, topo: &Topology, from_round: u64) -> Vec<u32> {
        let mut got = Vec::new();
        let mut acc = ShardAccount::default();
        let mut out = Vec::new();
        let mut round = from_round;
        while cal.pending() > 0 {
            round += 1;
            cal.stage(round, topo, &mut out, &mut acc);
            got.extend(out.drain(..).map(|(_, msg)| msg));
            assert!(round < from_round + 10_000, "calendar failed to drain");
        }
        got
    }

    #[test]
    fn priority_ties_resolve_fifo() {
        let g = gen::path(2);
        let topo = Topology::build(&g, 1);
        let mut cal: CalendarDelivery<u32> =
            CalendarDelivery::with_horizon(topo.shard_dirs(0), 4, 1, usize::MAX);
        // Same priority: seq (send order) breaks the tie.
        for (seq, msg) in [(1, 10), (2, 11), (3, 12), (4, 13)] {
            cal.push(TO, 7, seq, msg, 0, &topo);
        }
        assert_eq!(drain_all(&mut cal, &topo, 0), vec![10, 11, 12, 13]);
    }

    #[test]
    fn preempting_priority_jumps_the_queue() {
        let g = gen::path(2);
        let topo = Topology::build(&g, 1);
        let mut cal: CalendarDelivery<u32> =
            CalendarDelivery::with_horizon(topo.shard_dirs(0), 4, 1, usize::MAX);
        cal.push(TO, 5, 1, 50, 0, &topo);
        cal.push(TO, 5, 2, 51, 0, &topo);
        cal.push(TO, 1, 3, 10, 0, &topo); // lower priority value drains first
        assert_eq!(drain_all(&mut cal, &topo, 0), vec![10, 50, 51]);
    }

    #[test]
    fn a_preempting_send_walks_to_its_place() {
        let g = gen::path(2);
        let topo = Topology::build(&g, 1);
        let mut cal: CalendarDelivery<u32> =
            CalendarDelivery::with_horizon(topo.shard_dirs(0), 4, 1, usize::MAX);
        let sends = [(1, 10), (9, 90), (5, 50), (5, 51), (7, 70), (0, 0), (9, 91)];
        for (seq, &(priority, msg)) in (1..).zip(&sends) {
            cal.push(TO, priority, seq, msg, 0, &topo);
        }
        assert_eq!(
            drain_all(&mut cal, &topo, 0),
            vec![0, 10, 50, 51, 70, 90, 91]
        );
        // Delivered entries are reused: a second burst of the same size
        // leaves the arena as large as the first made it.
        for (seq, &(priority, msg)) in (8..).zip(&sends) {
            cal.push(TO, priority, seq, msg, 20, &topo);
        }
        assert_eq!(
            drain_all(&mut cal, &topo, 20),
            vec![0, 10, 50, 51, 70, 90, 91]
        );
        assert_eq!(cal.entries.len(), sends.len());
    }

    #[test]
    fn horizon_overflow_delivers_in_slot_order() {
        let g = gen::path(2);
        let topo = Topology::build(&g, 1);
        // Horizon 4, backlog 11: tokens for rounds 1..=11, rounds >= 4
        // overflow and must be swept in across several calendar wraps.
        let mut cal: CalendarDelivery<u32> =
            CalendarDelivery::with_horizon(topo.shard_dirs(0), 4, 1, usize::MAX);
        for seq in 1..=11u64 {
            cal.push(TO, 0, seq, seq as u32, 0, &topo);
        }
        assert!(
            !cal.overflow.is_empty(),
            "backlog must spill past the horizon"
        );
        let mut acc = ShardAccount::default();
        let mut out = Vec::new();
        for round in 1..=11u64 {
            cal.stage(round, &topo, &mut out, &mut acc);
            let staged: Vec<u32> = out.drain(..).map(|(_, msg)| msg).collect();
            assert_eq!(
                staged,
                vec![round as u32],
                "exactly one delivery per round, in slot order"
            );
        }
        assert_eq!(cal.pending(), 0);
        assert_eq!(acc.messages, 11);
        assert_eq!(acc.max_queue, 11);
    }

    #[test]
    fn mid_stream_sends_extend_the_token_run() {
        let g = gen::path(2);
        let topo = Topology::build(&g, 1);
        let mut cal: CalendarDelivery<u32> =
            CalendarDelivery::with_horizon(topo.shard_dirs(0), 4, 1, usize::MAX);
        let mut acc = ShardAccount::default();
        let mut out = Vec::new();
        cal.push(TO, 0, 1, 1, 0, &topo);
        cal.push(TO, 0, 2, 2, 0, &topo);
        cal.stage(1, &topo, &mut out, &mut acc);
        assert_eq!(out.drain(..).map(|(_, m)| m).collect::<Vec<_>>(), vec![1]);
        // Sent during round 1 while a token for round 2 is in flight: the
        // new message claims round 3, not a duplicate round-2 token.
        cal.push(TO, 0, 3, 3, 1, &topo);
        cal.stage(2, &topo, &mut out, &mut acc);
        assert_eq!(out.drain(..).map(|(_, m)| m).collect::<Vec<_>>(), vec![2]);
        cal.stage(3, &topo, &mut out, &mut acc);
        assert_eq!(out.drain(..).map(|(_, m)| m).collect::<Vec<_>>(), vec![3]);
        assert_eq!(cal.pending(), 0);
        assert_eq!(acc.max_queue, 2);
    }

    #[test]
    fn idle_dir_restarts_cleanly_after_draining() {
        let g = gen::path(2);
        let topo = Topology::build(&g, 1);
        let mut cal: CalendarDelivery<u32> =
            CalendarDelivery::with_horizon(topo.shard_dirs(0), 4, 1, usize::MAX);
        let mut acc = ShardAccount::default();
        let mut out = Vec::new();
        cal.push(TO, 0, 1, 1, 0, &topo);
        cal.stage(1, &topo, &mut out, &mut acc);
        out.clear();
        // Quiet rounds pass; a much later send must deliver the round after
        // it was pushed, not at the stale `next_slot`.
        for round in 2..=9 {
            cal.stage(round, &topo, &mut out, &mut acc);
            assert!(out.is_empty());
        }
        cal.push(TO, 0, 2, 42, 9, &topo);
        cal.stage(10, &topo, &mut out, &mut acc);
        assert_eq!(out.drain(..).map(|(_, m)| m).collect::<Vec<_>>(), vec![42]);
    }

    #[test]
    fn a_calendar_is_twelve_bytes_per_directed_edge() {
        let g = gen::path(5);
        let topo = Topology::build(&g, 1);
        let cal: CalendarDelivery<u32> = CalendarDelivery::new(topo.shard_dirs(0), 1, usize::MAX);
        let per_dir = |v: &[u32]| std::mem::size_of_val(v) / v.len();
        let bytes = per_dir(&cal.head) + per_dir(&cal.tail) + per_dir(&cal.next_slot);
        assert_eq!((cal.head.len(), bytes), (8, 12));
    }

    /// The last rounds a run may reach: a backlog pushed just below the
    /// engine's round cap delivers one message per round, in order, up to
    /// the cap, and a backlog reaching past `u32::MAX` saturates the clock
    /// instead of wrapping it back into the calendar.
    #[test]
    fn the_clock_holds_up_to_the_round_cap() {
        use crate::engine::ROUND_CAP;
        let g = gen::path(2);
        let topo = Topology::build(&g, 1);
        let mut cal: CalendarDelivery<u32> =
            CalendarDelivery::with_horizon(topo.shard_dirs(0), 4, 1, usize::MAX);
        let start = ROUND_CAP - 8;
        for seq in 1..=10u64 {
            cal.push(TO, 0, seq, seq as u32, start, &topo);
        }
        // Twice the calendar's width past the cap's own clock.
        for seq in 11..=(10 + 2 * HORIZON) {
            cal.push(TO, 0, seq, seq as u32, start, &topo);
        }
        let local = topo.slot(TO) as usize;
        assert_eq!(cal.next_slot[local], u32::MAX, "the clock saturates");
        let mut acc = ShardAccount::default();
        let mut out = Vec::new();
        for round in start + 1..=ROUND_CAP {
            cal.stage(round, &topo, &mut out, &mut acc);
            let staged: Vec<u32> = out.drain(..).map(|(_, msg)| msg).collect();
            assert_eq!(staged, vec![(round - start) as u32], "round {round}");
        }
        assert_eq!(cal.pending() as u64, 2 + 2 * HORIZON);
    }

    /// Stages one round of a packed-envelope calendar, returning the
    /// delivered envelopes.
    fn stage_packed(
        cal: &mut CalendarDelivery<PackedMsg<u32>>,
        topo: &Topology,
        round: u64,
        acc: &mut ShardAccount,
    ) -> Vec<PackedMsg<u32>> {
        let mut out = Vec::new();
        cal.stage(round, topo, &mut out, acc);
        out.into_iter().map(|(_, m)| m).collect()
    }

    #[test]
    fn delivery_merging_respects_pack_and_budget() {
        let g = gen::path(2);
        let topo = Topology::build(&g, 1);
        // u32 payloads bill 32 bits each; a 70-bit budget fits 2 values.
        let mut cal: CalendarDelivery<PackedMsg<u32>> =
            CalendarDelivery::with_horizon(topo.shard_dirs(0), 8, 4, 70);
        let mut acc = ShardAccount::default();
        for seq in 1..=6u64 {
            cal.push(TO, 0, seq, PackedMsg::One(seq as u32), 0, &topo);
        }
        // Budget caps each envelope at 2 values despite pack = 4; FIFO
        // order is preserved across the merged envelopes.
        let mut all = Vec::new();
        for round in 1..=6u64 {
            for env in stage_packed(&mut cal, &topo, round, &mut acc) {
                assert!(env.size_bits_in(topo.num_nodes()) <= 70);
                assert_eq!(env.len(), 2);
                all.extend(env.iter().copied());
            }
            if cal.pending() == 0 {
                break;
            }
        }
        assert_eq!(all, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(acc.messages, 3);
        assert_eq!(cal.pending(), 0);
    }

    #[test]
    fn delivery_merging_stops_at_pack_and_priority_boundaries() {
        let g = gen::path(2);
        let topo = Topology::build(&g, 1);
        let mut cal: CalendarDelivery<PackedMsg<u32>> =
            CalendarDelivery::with_horizon(topo.shard_dirs(0), 8, 3, usize::MAX);
        let mut acc = ShardAccount::default();
        // Four priority-0 values then two priority-1 values: the first
        // envelope takes 3 (the pack cap), the second takes the remaining
        // priority-0 value alone (a priority boundary stops the merge).
        for seq in 1..=4u64 {
            cal.push(TO, 0, seq, PackedMsg::One(seq as u32), 0, &topo);
        }
        for seq in 5..=6u64 {
            cal.push(TO, 1, seq, PackedMsg::One(seq as u32), 0, &topo);
        }
        let r1 = stage_packed(&mut cal, &topo, 1, &mut acc);
        assert_eq!(r1.len(), 1);
        assert_eq!(r1[0].iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        let r2 = stage_packed(&mut cal, &topo, 2, &mut acc);
        assert_eq!(r2[0].iter().copied().collect::<Vec<_>>(), vec![4]);
        // The priority-1 backlog merges separately.
        let r3 = stage_packed(&mut cal, &topo, 3, &mut acc);
        assert_eq!(r3[0].iter().copied().collect::<Vec<_>>(), vec![5, 6]);
        assert_eq!(cal.pending(), 0);
        // Stale tokens (left by the merges) fire on an empty dir and are
        // skipped without delivering or panicking.
        for round in 4..=7u64 {
            assert!(stage_packed(&mut cal, &topo, round, &mut acc).is_empty());
        }
        assert_eq!(acc.messages, 3);
    }

    #[test]
    fn merging_never_double_delivers_a_dir_in_one_round() {
        let g = gen::path(2);
        let topo = Topology::build(&g, 1);
        let mut cal: CalendarDelivery<PackedMsg<u32>> =
            CalendarDelivery::with_horizon(topo.shard_dirs(0), 8, 4, usize::MAX);
        let mut acc = ShardAccount::default();
        // Backlog of 4 merges into one envelope in round 1, leaving stale
        // tokens at rounds 2..4. A send during round 1 must not ride a
        // stale token *and* its own token.
        for seq in 1..=4u64 {
            cal.push(TO, 0, seq, PackedMsg::One(seq as u32), 0, &topo);
        }
        let r1 = stage_packed(&mut cal, &topo, 1, &mut acc);
        assert_eq!(r1[0].len(), 4);
        cal.push(TO, 0, 5, PackedMsg::One(5), 1, &topo);
        let mut deliveries = 0;
        for round in 2..=8u64 {
            let envs = stage_packed(&mut cal, &topo, round, &mut acc);
            assert!(envs.len() <= 1, "one envelope per dir per round");
            deliveries += envs.len();
        }
        assert_eq!(deliveries, 1);
        assert_eq!(cal.pending(), 0);
    }
}
