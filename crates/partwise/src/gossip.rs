//! Leaderless part-wise aggregation by idempotent gossip.
//!
//! Definition 2.1 does not hand out leaders; when none are known, an
//! *idempotent* aggregate (min / max) can be computed by flooding: every
//! participating node repeatedly shares its current best over the part's
//! subgraph `G[P_i] + H_i`, improving monotonically. The process converges
//! in `diameter(G[P_i] + H_i)` rounds — `O(dilation)` — with at most one
//! message per improvement per edge, and doubles as leader election (gossip
//! the minimum member id).
//!
//! Non-idempotent aggregates (sum) need the tree discipline of
//! [`AggregateOp`](crate::AggregateOp); the type system enforces the
//! distinction via [`IdempotentOp`].

use crate::dist::{NodeSlots, ParticipationMap};
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

/// Result of a [`GossipOp`].
#[derive(Clone, Debug)]
pub struct GossipOutcome {
    /// Converged aggregate per part (value held by every member).
    pub results: Vec<Option<u64>>,
    /// Whether every member of every part converged to its part's true
    /// aggregate (verified post-hoc).
    pub converged: bool,
    /// Simulation metrics; rounds ≈ dilation of the worst part.
    pub metrics: RunMetrics,
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
    /// Scratch: the slots improved by the current inbox.
    improved: Vec<usize>,
    /// Scratch: the current callback's `(port, part, value)` sends.
    sends: Vec<(u32, u32, u64)>,
}

impl GossipProgram<'_> {
    /// Emits one `GossipMsg` per `(slot, port)` pair of `self.improved`,
    /// **grouped by port** (ties broken by part id): a node relaying
    /// several parts over one shared edge issues those sends
    /// consecutively, which is the shape [`SimConfig::message_packing`]
    /// coalesces into multi-value messages. The grouping also makes the
    /// send order independent of the order parts improved in.
    fn send_improved(&mut self, ctx: &mut Ctx<'_, GossipMsg>) {
        for &slot in &self.improved {
            let (part, value) = (self.slots.parts[slot], self.best[slot]);
            let ports = self.slots.ports(slot).iter();
            self.sends.extend(ports.map(|&p| (p, part, value)));
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

    fn on_start(&mut self, ctx: &mut Ctx<'_, GossipMsg>) {
        self.improved.extend(0..self.best.len());
        self.send_improved(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, GossipMsg>, inbox: &[Incoming<GossipMsg>]) {
        for m in inbox {
            let slot = self.slots.slot_of(m.msg.part);
            let merged = self.op.apply(self.best[slot], m.msg.value);
            if merged != self.best[slot] {
                self.best[slot] = merged;
                if !self.improved.contains(&slot) {
                    self.improved.push(slot);
                }
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
/// serves it from the cached shortcut; [`run_on`](Self::run_on) runs it
/// over explicit artifacts.
#[derive(Clone, Copy, Debug)]
pub struct GossipOp<'a> {
    /// One value per node.
    pub values: &'a [u64],
    /// The idempotent operator.
    pub op: IdempotentOp,
}

impl GossipOp<'_> {
    /// Runs the flooding protocol over explicit artifacts (the non-session
    /// path).
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
        let participation = ParticipationMap::build(g, partition, shortcut);
        self.run_with(g, partition, sim, &participation)
    }

    /// Runs the flooding protocol over a prebuilt [`ParticipationMap`] —
    /// the path the session ops take with the cached map.
    pub(crate) fn run_with(
        &self,
        g: &Graph,
        partition: &Partition,
        sim: SimConfig,
        participation: &ParticipationMap,
    ) -> GossipOutcome {
        let (values, op) = (self.values, self.op);
        assert_eq!(values.len(), g.num_nodes(), "one value per node");

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
}
