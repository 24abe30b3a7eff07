//! Leaderless part-wise aggregation by idempotent gossip.
//!
//! Definition 2.1 does not hand out leaders; when none are known, an
//! *idempotent* aggregate (min / max) can be computed by flooding: every
//! participating node repeatedly shares its current best over the part's
//! subgraph `G[P_i] + H_i`, improving monotonically. The process converges
//! in `diameter(G[P_i] + H_i)` rounds — `O(dilation)` — and doubles as
//! leader election (gossip the minimum member id).
//!
//! A node sends only what its receiver may not hold yet: at start, a slot
//! whose value is the operator's identity stays silent; afterwards, an
//! improved slot sends its new best over each of its ports except those
//! whose message in the same inbox carried exactly that value. A value is
//! sent when its sender learns it, and never back to where it came from.
//!
//! Non-idempotent aggregates (sum) need the tree discipline of
//! [`AggregateOp`](crate::AggregateOp); the type system enforces the
//! distinction via [`IdempotentOp`].
//!
//! [`GossipOp`] is the leaderless primitive over explicit artifacts. The
//! session's `gossip` ([`SessionPartwiseOps`](crate::SessionPartwiseOps))
//! returns the same results by another protocol: the aggregate of the same
//! operator over the session's forest, only `Up` / `Down` once rooted.

use crate::dist::{NodeSlots, ParticipationMap};
use lcs_congest::protocols::AggOp;
use lcs_congest::{
    id_bits, Ctx, Incoming, MessageSize, NodeProgram, RunMetrics, SimConfig, SimMode, Simulator,
};
use lcs_core::{Partition, Shortcut};
use lcs_graph::{Graph, NodeId, PartId};

/// Aggregates safe under re-application (gossip does not double-count).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdempotentOp {
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl IdempotentOp {
    fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            IdempotentOp::Min => a.min(b),
            IdempotentOp::Max => a.max(b),
        }
    }

    fn identity(self) -> u64 {
        match self {
            IdempotentOp::Min => u64::MAX,
            IdempotentOp::Max => 0,
        }
    }
}

impl From<IdempotentOp> for AggOp {
    fn from(op: IdempotentOp) -> AggOp {
        match op {
            IdempotentOp::Min => AggOp::Min,
            IdempotentOp::Max => AggOp::Max,
        }
    }
}

/// Result of a [`GossipOp`] or of a session gossip.
#[derive(Clone, Debug)]
pub struct GossipOutcome {
    /// Aggregate per part, held by every member once `converged` (the
    /// session path reads it at the leader: `None` if that never finished).
    pub results: Vec<Option<u64>>,
    /// Whether every member of every part holds its part's true aggregate
    /// (verified post-hoc; on the session path, every member informed by
    /// an untruncated run).
    pub converged: bool,
    /// Simulation metrics; flooding takes rounds ≈ dilation of the worst
    /// part.
    pub metrics: RunMetrics,
    /// Parts served from the session's aggregation forest; `0` for
    /// [`GossipOp`], which keeps none.
    pub rooted_parts: usize,
}

#[derive(Clone, Copy, Debug)]
struct GossipMsg {
    part: u32,
    value: u64,
}

impl MessageSize for GossipMsg {
    /// The part id scales as `O(log n)`; the gossiped value keeps its full
    /// 64-bit width.
    fn size_bits_in(&self, n: usize) -> usize {
        id_bits(n) + 64
    }
}

struct GossipProgram<'a> {
    op: IdempotentOp,
    slots: NodeSlots<'a>,
    /// Current best per slot.
    best: Vec<u64>,
    /// Per slot, whether the current inbox improved it: `improved` without
    /// a scan for repeats.
    is_improved: Vec<bool>,
    /// Per `(slot, port)` pair (see [`NodeSlots::port_range`]): the
    /// neighbor sent the slot's new best in the current inbox.
    holds_best: Vec<bool>,
    /// Scratch: the slots improved by the current inbox.
    improved: Vec<usize>,
    /// Scratch: the current callback's `(port, part, value)` sends.
    sends: Vec<(u32, u32, u64)>,
}

impl GossipProgram<'_> {
    /// Emits one `GossipMsg` per `(slot, port)` pair of `self.improved`
    /// whose neighbor does not already hold the value, **grouped by port**
    /// (ties broken by part id): a node relaying several parts over one
    /// shared edge issues those sends consecutively, which is the shape
    /// [`SimConfig::message_packing`] coalesces into multi-value messages.
    /// The grouping also makes the send order independent of the order
    /// parts improved in.
    fn send_improved(&mut self, ctx: &mut Ctx<'_, GossipMsg>) {
        for &slot in &self.improved {
            self.is_improved[slot] = false;
            let (part, value) = (self.slots.parts[slot], self.best[slot]);
            let holds = &mut self.holds_best[self.slots.port_range(slot)];
            for (&p, held) in self.slots.ports(slot).iter().zip(holds) {
                if !std::mem::take(held) {
                    self.sends.push((p, part, value));
                }
            }
        }
        // One slot's ports are already ascending.
        if self.improved.len() > 1 {
            self.sends.sort_unstable_by_key(|&(p, part, _)| (p, part));
        }
        self.improved.clear();
        for (p, part, value) in self.sends.drain(..) {
            ctx.send(p as usize, GossipMsg { part, value });
        }
    }
}

impl NodeProgram for GossipProgram<'_> {
    type Msg = GossipMsg;

    /// A slot holding the identity tells its neighbors nothing.
    fn on_start(&mut self, ctx: &mut Ctx<'_, GossipMsg>) {
        let identity = self.op.identity();
        (self.improved).extend((0..self.best.len()).filter(|&s| self.best[s] != identity));
        self.send_improved(ctx);
    }

    /// Merges the inbox, then marks the ports that delivered an improved
    /// slot's new best: the operator is monotone and idempotent, so that
    /// neighbor already holds at least this value and is not sent it back.
    fn on_round(&mut self, ctx: &mut Ctx<'_, GossipMsg>, inbox: &[Incoming<GossipMsg>]) {
        for m in inbox {
            let slot = self.slots.slot_of(m.msg.part);
            let merged = self.op.apply(self.best[slot], m.msg.value);
            if merged != self.best[slot] {
                self.best[slot] = merged;
                if !std::mem::replace(&mut self.is_improved[slot], true) {
                    self.improved.push(slot);
                }
            }
        }
        for m in inbox {
            let slot = self.slots.slot_of(m.msg.part);
            if self.is_improved[slot] && m.msg.value == self.best[slot] {
                let at = self.slots.ports(slot).binary_search(&(m.port as u32));
                let at = at.expect("gossip arrives over participating ports");
                self.holds_best[self.slots.port_range(slot).start + at] = true;
            }
        }
        self.send_improved(ctx);
    }

    fn is_done(&self) -> bool {
        true // quiescence-detected: done once nothing improves anywhere
    }
}

/// Leaderless idempotent aggregation: flooding over `G[P_i] + H_i`,
/// converging in `O(dilation)` rounds.
///
/// `session.gossip(..)` ([`SessionPartwiseOps`](crate::SessionPartwiseOps))
/// returns the same results from the session's aggregation forest instead
/// (see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct GossipOp<'a> {
    /// One value per node.
    pub values: &'a [u64],
    /// The idempotent operator.
    pub op: IdempotentOp,
}

impl GossipOp<'_> {
    /// Runs the flooding protocol over explicit artifacts.
    ///
    /// # Panics
    ///
    /// Panics if `self.values.len() != g.num_nodes()` or the shortcut's
    /// shape differs from the partition's.
    pub fn run_on(
        &self,
        g: &Graph,
        partition: &Partition,
        shortcut: &Shortcut,
        sim: SimConfig,
    ) -> GossipOutcome {
        let (values, op) = (self.values, self.op);
        assert_eq!(values.len(), g.num_nodes(), "one value per node");
        let participation = ParticipationMap::build(g, partition, shortcut);

        let sim_cfg = SimConfig {
            mode: SimMode::Queued,
            ..sim
        };
        let simulator = Simulator::new(g, sim_cfg);
        let run = simulator.run(|v, _| {
            let slots = participation.node(v);
            let own = partition.part_of(v).map(|p| p.0);
            let best = (slots.parts.iter())
                .map(|&part| {
                    if own == Some(part) {
                        values[v.index()]
                    } else {
                        op.identity()
                    }
                })
                .collect();
            GossipProgram {
                op,
                slots,
                best,
                is_improved: vec![false; slots.parts.len()],
                holds_best: vec![false; slots.entries().len()],
                improved: Vec::new(),
                sends: Vec::new(),
            }
        });

        // Collect and verify convergence.
        let expect: Vec<u64> = partition
            .iter()
            .map(|(_, nodes)| {
                nodes
                    .iter()
                    .map(|v| values[v.index()])
                    .fold(op.identity(), |a, b| op.apply(a, b))
            })
            .collect();
        // A member always owns a slot for its part.
        let held = |v: &NodeId, pid: PartId| {
            let program = &run.programs[v.index()];
            program.best[program.slots.slot_of(pid.0)]
        };
        let converged = partition
            .iter()
            .all(|(pid, nodes)| nodes.iter().all(|v| held(v, pid) == expect[pid.index()]));
        let results = partition
            .iter()
            .map(|(pid, nodes)| nodes.last().map(|v| held(v, pid)))
            .collect();

        GossipOutcome {
            results,
            converged,
            metrics: run.metrics,
            rooted_parts: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_core::{baseline, full_shortcut, ShortcutConfig};
    use lcs_graph::NodeId;
    use lcs_graph::{bfs, gen};

    #[test]
    fn gossip_matches_centralized_min_max() {
        let g = gen::grid(6, 6);
        let partition = Partition::from_parts(&g, gen::rows_of_grid(6, 6)).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
        let values: Vec<u64> = (0..36u64).map(|x| (x * 7) % 23).collect();
        for op in [IdempotentOp::Min, IdempotentOp::Max] {
            let out = GossipOp {
                values: &values,
                op,
            }
            .run_on(&g, &partition, &built.shortcut, SimConfig::default());
            assert!(out.converged, "gossip must converge to the true aggregate");
        }
    }

    #[test]
    fn gossip_elects_leaders_without_coordination() {
        // Gossiping the minimum member id IS leader election.
        let g = gen::torus(5, 5);
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(3);
        let parts = gen::random_connected_parts(&g, 5, &mut rng);
        let partition = Partition::from_parts(&g, parts).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
        let ids: Vec<u64> = g.nodes().map(|v| u64::from(v.0)).collect();
        let out = GossipOp {
            values: &ids,
            op: IdempotentOp::Min,
        }
        .run_on(&g, &partition, &built.shortcut, SimConfig::default());
        assert!(out.converged);
        for (pid, nodes) in partition.iter() {
            let min_id = nodes.iter().map(|v| u64::from(v.0)).min().unwrap();
            assert_eq!(out.results[pid.index()], Some(min_id));
        }
    }

    #[test]
    fn gossip_rounds_track_dilation_on_wheel() {
        let n = 128;
        let g = gen::wheel(n);
        let rim: Vec<NodeId> = (1..n as u32).map(NodeId).collect();
        let partition = Partition::from_parts(&g, vec![rim]).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
        let values: Vec<u64> = (0..n as u64).collect();
        let op = GossipOp {
            values: &values,
            op: IdempotentOp::Max,
        };
        let with = op.run_on(&g, &partition, &built.shortcut, SimConfig::default());
        let without = op.run_on(
            &g,
            &partition,
            &baseline::no_shortcut(&partition),
            SimConfig::default(),
        );
        assert!(with.converged && without.converged);
        // Dilation O(1) vs Θ(n): gossip rounds shrink accordingly.
        assert!(with.metrics.rounds * 4 < without.metrics.rounds);
    }

    /// Max on a path whose values rise towards one end, as one part: at
    /// start every node but the one holding the identity `0` tells its
    /// neighbors (`2n − 3` messages); afterwards node `i` passes each of
    /// the `n − 2 − i` larger values on once, away from where it came from
    /// (`(n − 1)(n − 2)/2` messages), one hop per round.
    #[test]
    fn max_on_a_rising_path_sends_nothing_back() {
        for n in [2, 3, 5, 10, 33] {
            let g = gen::path(n);
            let partition = Partition::from_parts(&g, vec![g.nodes().collect()]).unwrap();
            let values: Vec<u64> = (0..n as u64).collect();
            let out = GossipOp {
                values: &values,
                op: IdempotentOp::Max,
            }
            .run_on(
                &g,
                &partition,
                &baseline::no_shortcut(&partition),
                SimConfig::default(),
            );
            assert!(out.converged, "n = {n}");
            let (n, m) = (n as u64, out.metrics);
            assert_eq!(m.messages, (2 * n - 3) + (n - 1) * (n - 2) / 2, "n = {n}");
            assert_eq!(m.rounds, n - 1, "n = {n}");
        }
    }

    /// A hub relaying 100 000 parts — adjacent pairs of a wheel's rim, each
    /// with its two spokes as `H_i` — takes 200 000 messages in one inbox.
    /// Marking an improved slot is `O(1)`, so that callback costs its inbox,
    /// not `O(inbox · slots)`.
    #[test]
    #[ignore = "release-mode scale test"]
    fn scale_gossip_across_a_hub_relaying_100k_parts() {
        let parts = 100_000u32;
        let g = gen::wheel(2 * parts as usize + 1);
        let pair = |i: u32| [NodeId(2 * i + 1), NodeId(2 * i + 2)];
        let pairs = (0..parts).map(|i| pair(i).to_vec()).collect();
        let partition = Partition::from_parts(&g, pairs).unwrap();
        let spokes = |i: u32| pair(i).map(|v| g.find_edge(v, NodeId(0)).unwrap()).to_vec();
        let shortcut = Shortcut::from_edge_lists((0..parts).map(spokes).collect());
        let values: Vec<u64> = (0..g.num_nodes() as u64)
            .map(|x| x * 7919 % 100_003)
            .collect();
        for op in [IdempotentOp::Min, IdempotentOp::Max] {
            let out = GossipOp {
                values: &values,
                op,
            }
            .run_on(&g, &partition, &shortcut, SimConfig::default());
            assert!(out.converged, "{op:?}");
            assert_eq!(
                out.metrics.rounds, 2,
                "{op:?}: spokes, then the hub's relay"
            );
        }
    }
}
