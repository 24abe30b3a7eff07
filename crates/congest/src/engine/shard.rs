//! A contiguous node shard: the unit of work of the parallel round
//! executor.
//!
//! Each shard exclusively borrows its nodes' run of the run-wide program
//! vector (the run hands that vector back as it is, with no per-shard copy
//! to concatenate) and owns their wake bookkeeping, plus two message
//! buffers: `inbound` (staged deliveries for the current
//! round, filled in place by the shard's own delivery partition) and
//! `outbox` (wire envelopes produced this round, validated and routed by
//! the lane's flush step). A worker thread touches nothing outside its
//! lane during a round, which is why no per-message synchronization
//! exists anywhere.
//!
//! A round's `inbound` envelopes are counting-sorted by receiver (stably,
//! so each receiver sees them in staging order) into one index array, and
//! each receiver's envelopes are unpacked into one flat inbox just before
//! its callback, which gets the inbox as a slice. The shard keeps 5 B per
//! node (an envelope count and a wake flag) and buffers that grow to the
//! round's traffic.
//!
//! The shard is also where **multi-value message packing** happens: a
//! node's raw sends land in a scratch buffer during its callback, and
//! [`Shard::exec_node`] groups them by `(port, priority)` — a stable
//! sort, so sends of one group keep their issue order — and coalesces
//! each group into [`PackedMsg`] envelopes of up to
//! [`SimConfig::message_packing`] values within the bandwidth budget. At
//! packing 1 every send becomes a `PackedMsg::One` with the exact bit cost
//! of the raw message, in issue order, so the wire stream (and every
//! metric) is identical to the unpacked engine. Packing on the shard keeps
//! the coalescing work parallel.
//!
//! Determinism: within a shard, nodes run in ascending id order and each
//! node's envelopes are appended in issue order; the global send order is
//! *defined* as the shard outboxes concatenated in shard order, which the
//! executor realizes without serializing by prefix-summing per-shard send
//! counts into sequence-number bases (see [`super::parallel`]). That
//! order is identical to the sequential engine's (ascending node id),
//! making sequence numbers — and with them every pinned metric —
//! independent of the thread count.
//!
//! [`SimConfig::message_packing`]: super::SimConfig::message_packing

use super::topology::{To, Topology};
use super::{Ctx, Incoming, NodeProgram};
use crate::{MessageSize, PackedMsg};
use lcs_graph::{Graph, NodeId};

pub(crate) struct Shard<'p, P: NodeProgram> {
    /// First node id owned by this shard.
    lo: u32,
    /// The shard's run of the run-wide program vector, one per node.
    programs: &'p mut [P],
    /// Per local node, zero between rounds. While a round's `inbound` is
    /// sorted: the envelopes addressed to the node, then where its run in
    /// `order` starts, then where it ends.
    counts: Vec<u32>,
    /// Indices into `inbound`, counting-sorted by receiver.
    order: Vec<u32>,
    /// The running node's messages, unpacked from its envelopes in order.
    inbox: Vec<Incoming<P::Msg>>,
    wake_flag: Vec<bool>,
    /// Nodes (global ids) that requested a wake-up for the next round.
    wake_list: Vec<u32>,
    /// Deliveries staged for this round: `((receiver, port), envelope)`
    /// with the receiver in this shard. Filled by the shard's delivery
    /// partition, unpacked and drained by `run_round`.
    pub(crate) inbound: Vec<(To, PackedMsg<P::Msg>)>,
    /// Wire envelopes produced this round: `((receiver, port), priority,
    /// envelope)` in deterministic node-then-issue order, addressed to the
    /// receiving node and the port they arrive on. Validated,
    /// bit-accounted, and routed to the receiving lanes by the flush step.
    pub(crate) outbox: Vec<(To, u64, PackedMsg<P::Msg>)>,
    /// Scratch: one node's raw sends `(port, priority, msg)` during its
    /// callback, coalesced into `outbox` envelopes afterwards.
    raw: Vec<(u32, u64, P::Msg)>,
    /// Scratch: envelope lengths of the current node's packing pass.
    batch_lens: Vec<u32>,
    /// Scratch: nodes to execute this round.
    to_run: Vec<u32>,
    /// Resolved [`SimConfig::message_packing`]: max values per envelope.
    ///
    /// [`SimConfig::message_packing`]: super::SimConfig::message_packing
    pack: usize,
    /// Per-message bandwidth budget in bits (envelopes must fit it).
    budget: usize,
    /// Network size the id-aware message sizing is billed against.
    n: usize,
}

impl<'p, P: NodeProgram> Shard<'p, P> {
    /// The shard of nodes `lo..lo + programs.len()`.
    pub fn new(g: &Graph, lo: u32, programs: &'p mut [P], pack: usize, budget: usize) -> Self {
        let len = programs.len();
        Shard {
            lo,
            programs,
            counts: vec![0; len],
            order: Vec::new(),
            inbox: Vec::new(),
            wake_flag: vec![false; len],
            wake_list: Vec::new(),
            inbound: Vec::new(),
            outbox: Vec::new(),
            raw: Vec::new(),
            batch_lens: Vec::new(),
            to_run: Vec::new(),
            pack,
            budget,
            n: g.num_nodes(),
        }
    }

    /// Gives every growable buffer its first allocation on the calling
    /// thread, before a worker thread runs the shard.
    pub fn prime(&mut self) {
        super::prime(&mut self.order);
        super::prime(&mut self.inbox);
        super::prime(&mut self.wake_list);
        super::prime(&mut self.inbound);
        super::prime(&mut self.outbox);
        super::prime(&mut self.raw);
        super::prime(&mut self.batch_lens);
        super::prime(&mut self.to_run);
    }

    /// Runs `on_start` for every node of the shard (round 0).
    pub fn run_start(&mut self, topo: &Topology<'_>) {
        for local in 0..self.programs.len() {
            self.exec_node(topo, self.lo + local as u32, 0, true);
        }
    }

    /// One round: counting-sort the staged `inbound` envelopes by
    /// receiver, pick up pending wake-ups, and run the affected nodes in
    /// ascending order, each on its own envelopes unpacked.
    pub fn run_round(&mut self, topo: &Topology<'_>, round: u64) {
        let lo = self.lo;
        self.to_run.clear();
        for &((recv, _), _) in &self.inbound {
            let count = &mut self.counts[(recv - lo) as usize];
            if *count == 0 {
                self.to_run.push(recv);
            }
            *count += 1;
        }
        // Wake-ups requested last round join the receivers.
        for v in self.wake_list.drain(..) {
            let at = (v - lo) as usize;
            self.wake_flag[at] = false;
            if self.counts[at] == 0 {
                self.to_run.push(v);
            }
        }
        self.to_run.sort_unstable(); // deterministic execution order

        // Counting sort: each receiver's run of `order` starts where the
        // previous receiver's ends, and is filled in staging order.
        let mut start = 0;
        for &v in &self.to_run {
            let count = &mut self.counts[(v - lo) as usize];
            (start, *count) = (start + *count, start);
        }
        self.order.resize(self.inbound.len(), 0);
        for (i, &((recv, _), _)) in self.inbound.iter().enumerate() {
            let at = &mut self.counts[(recv - lo) as usize];
            self.order[*at as usize] = i as u32;
            *at += 1;
        }

        let to_run = std::mem::take(&mut self.to_run);
        let mut start = 0;
        for &v in &to_run {
            let end = std::mem::take(&mut self.counts[(v - lo) as usize]) as usize;
            for &i in &self.order[start..end] {
                let ((_, port), env) = &mut self.inbound[i as usize];
                let port = *port as usize;
                // An empty batch is a placeholder that allocates nothing.
                let env = std::mem::replace(env, PackedMsg::Batch(Vec::new()));
                env.for_each(|msg| self.inbox.push(Incoming { port, msg }));
            }
            start = end;
            self.exec_node(topo, v, round, false);
        }
        self.to_run = to_run;
        self.inbound.clear();
    }

    /// Runs one node's callback, coalesces its raw sends into wire
    /// envelopes (same-port, same-priority groups, split into runs of up
    /// to `pack` values within the bit budget), and appends them — each
    /// port resolved to the receiving node and its port back — to the
    /// shard outbox.
    fn exec_node(&mut self, topo: &Topology<'_>, v: u32, round: u64, start: bool) {
        let (g, local) = (topo.graph(), (v - self.lo) as usize);
        let node = NodeId(v);
        let mut wake = false;
        debug_assert!(self.raw.is_empty());
        {
            let mut ctx = Ctx {
                node,
                round,
                heads: g.heads(node),
                edges: g.edge_ids(node),
                outbox: &mut self.raw,
                wake: &mut wake,
            };
            if start {
                self.programs[local].on_start(&mut ctx);
            } else {
                self.programs[local].on_round(&mut ctx, &self.inbox);
                self.inbox.clear();
            }
        }
        if wake && !self.wake_flag[local] {
            self.wake_flag[local] = true;
            self.wake_list.push(v);
        }
        // Ctx::send recorded the local port; the envelope is addressed to
        // where it arrives, which the delivery and the receiving shard read.
        if self.pack == 1 {
            // Unpacked fast path: every send is its own envelope, in issue
            // order — the exact wire stream of the pre-packing engine.
            for (port, priority, msg) in self.raw.drain(..) {
                let to = topo.recv(v, port);
                self.outbox.push((to, priority, PackedMsg::One(msg)));
            }
            return;
        }

        // Group the sends by `(port, priority)`. The sort is stable, so a
        // group keeps its issue order; sends on different edges never meet
        // in one queue, and one edge's queue orders by priority first, so
        // the regrouping changes no delivery order.
        let key = |&(port, priority, _): &(u32, u64, P::Msg)| (port, priority);
        if !self.raw.is_sorted_by_key(key) {
            self.raw.sort_by_key(key);
        }

        // Pass 1 (by reference): split the grouped sends into maximal
        // packable runs. A run extends while the next send targets the same
        // port with the same priority, the value count stays below `pack`,
        // and the packed width (first value full-size, later values at
        // their marginal cost) stays within the budget.
        self.batch_lens.clear();
        let raw = &self.raw;
        let mut i = 0;
        while i < raw.len() {
            let (port, priority, ref head) = raw[i];
            let mut cost = head.size_bits_in(self.n);
            let mut j = i + 1;
            while j < raw.len() && j - i < self.pack {
                let (p2, prio2, ref m2) = raw[j];
                if p2 != port || prio2 != priority {
                    break;
                }
                let marginal = m2.size_bits_packed_in(&raw[j - 1].2, self.n);
                if cost + marginal > self.budget {
                    break;
                }
                cost += marginal;
                j += 1;
            }
            self.batch_lens.push((j - i) as u32);
            i = j;
        }

        // Pass 2 (by value): drain the raw sends into envelopes.
        let mut it = self.raw.drain(..);
        for &len in &self.batch_lens {
            let (port, priority, msg) = it.next().expect("length computed from this buffer");
            let env = if len == 1 {
                PackedMsg::One(msg)
            } else {
                let mut values = Vec::with_capacity(len as usize);
                values.push(msg);
                for _ in 1..len {
                    values.push(it.next().expect("length computed from this buffer").2);
                }
                PackedMsg::Batch(values)
            };
            self.outbox.push((topo.recv(v, port), priority, env));
        }
        debug_assert!(it.next().is_none());
        drop(it);
    }

    /// Wake-ups pending for the next round.
    pub fn pending_wakes(&self) -> usize {
        self.wake_list.len()
    }

    /// Whether every program of the shard reports local termination.
    pub fn all_done(&self) -> bool {
        self.programs.iter().all(NodeProgram::is_done)
    }
}
