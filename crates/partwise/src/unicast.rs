//! Multiple unicasts along tree paths — the second communication primitive
//! the paper lists next to part-wise aggregation (§1.2).
//!
//! Given packets `(s_i, t_i)` routed along their unique tree paths, random
//! scheduling [LMR94, Gha15] delivers all of them in `O(congestion +
//! dilation·log n)` rounds, where congestion is the maximum number of paths
//! over an edge and dilation the maximum path length. This module
//! implements the store-and-forward protocol on the queued simulator: every
//! packet leaves its source in round 0 (no start delays — none made any
//! measured instance faster) and carries a random priority, drawn once from
//! a fixed seed, that decides which packet an edge forwards first. It
//! reports measured rounds against those two quantities.

use lcs_congest::{
    Ctx, Incoming, MessageSize, NodeProgram, RunMetrics, SimConfig, SimMode, Simulator,
};
use lcs_graph::{Graph, NodeId, RootedTree};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seed of the packets' random priorities.
const PRIORITY_SEED: u64 = 0x0417;

/// Result of a routing run.
#[derive(Clone, Debug)]
pub struct UnicastOutcome {
    /// Number of packets that reached their targets.
    pub delivered: usize,
    /// The instance's path congestion `c` (max paths over one edge).
    pub congestion: u32,
    /// The instance's dilation `d` (max path length in edges).
    pub dilation: u32,
    /// Simulation metrics; `metrics.rounds` is the headline number, to be
    /// compared against `c + d`.
    pub metrics: RunMetrics,
}

/// A packet in flight: its id (index into the pair list).
#[derive(Clone, Copy, Debug)]
struct Packet(u32);

impl MessageSize for Packet {
    fn size_bits_in(&self, _n: usize) -> usize {
        32
    }
}

/// The entries of `sorted` (ascending by their first field, a node id)
/// that belong to `node` — how a program borrows its rows of a run-wide
/// table.
fn rows_of<T>(sorted: &[(u32, T)], node: NodeId) -> &[(u32, T)] {
    let lo = sorted.partition_point(|e| e.0 < node.0);
    let len = sorted[lo..].partition_point(|e| e.0 == node.0);
    &sorted[lo..lo + len]
}

struct RouterProgram<'a> {
    /// `(this node, (packet id, outgoing port))` for the packets this node
    /// must send or forward, ascending by packet id.
    forward: &'a [(u32, (u32, u32))],
    /// `(this node, packet id)` for the packets originating here.
    sources: &'a [(u32, u32)],
    /// `(this node, packet id)` for the packets this node is the target of.
    expect: &'a [(u32, u32)],
    received: usize,
    /// Priority per packet id, shared by all nodes.
    priority: &'a [u64],
}

impl RouterProgram<'_> {
    fn send_packet(&self, id: u32, ctx: &mut Ctx<'_, Packet>) {
        let row = self
            .forward
            .binary_search_by_key(&id, |&(_, (packet, _))| packet);
        let (_, (_, port)) = self.forward[row.expect("packets follow their tree path")];
        ctx.send_with_priority(port as usize, Packet(id), self.priority[id as usize]);
    }
}

impl NodeProgram for RouterProgram<'_> {
    type Msg = Packet;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        for &(_, id) in self.sources {
            self.send_packet(id, ctx);
        }
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, Packet>, inbox: &[Incoming<Packet>]) {
        for m in inbox {
            let id = m.msg.0;
            if self.expect.iter().any(|&(_, packet)| packet == id) {
                self.received += 1;
            } else {
                self.send_packet(id, ctx);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.received == self.expect.len()
    }
}

/// Multi-unicast routing: one packet per `(source, target)` demand,
/// store-and-forward along the unique tree paths, each edge forwarding its
/// queued packets in random priority order.
///
/// `session.unicast(..)` ([`SessionPartwiseOps`](crate::SessionPartwiseOps))
/// routes over the session's cached tree; [`run_on`](Self::run_on) takes an
/// explicit tree.
#[derive(Clone, Copy, Debug)]
pub struct UnicastOp<'a> {
    /// The `(source, target)` demand pairs.
    pub demands: &'a [(NodeId, NodeId)],
}

impl UnicastOp<'_> {
    /// Routes over an explicit tree (the non-session path). `sim` is a
    /// session's [`SessionConfig::sim`](lcs_core::session::SessionConfig::sim),
    /// with the mode forced to queued.
    ///
    /// # Panics
    ///
    /// Panics if some endpoint lies outside the tree's component, or a
    /// source equals its target.
    pub fn run_on(&self, g: &Graph, tree: &RootedTree, sim: SimConfig) -> UnicastOutcome {
        let pairs = self.demands;
        // Tree paths (up to the LCA, then down) with per-edge load counting.
        let mut load = vec![0u32; g.num_edges()];
        let mut dilation = 0u32;
        // Run-wide tables the programs borrow their rows of (`rows_of`):
        // forwarding hops, sources and targets, each keyed by node.
        let mut forward: Vec<(u32, (u32, u32))> = Vec::new();
        let mut sources: Vec<(u32, u32)> = Vec::with_capacity(pairs.len());
        let mut targets: Vec<(u32, u32)> = Vec::with_capacity(pairs.len());
        for (i, &(s, t)) in pairs.iter().enumerate() {
            assert!(s != t, "source equals target for packet {i}");
            assert!(
                tree.contains(s) && tree.contains(t),
                "unicast endpoints must be in the tree"
            );
            let path = tree_path(tree, s, t);
            dilation = dilation.max(path.len() as u32);
            let mut cur = s;
            for &next in &path {
                let port = g.port_to(cur, next).expect("tree path steps along edges");
                let edge = g.edge_ids(cur)[port];
                load[edge.index()] += 1;
                forward.push((cur.0, (i as u32, port as u32)));
                cur = next;
            }
            sources.push((s.0, i as u32));
            targets.push((t.0, i as u32));
        }
        forward.sort_unstable();
        sources.sort_unstable();
        targets.sort_unstable();
        let congestion = load.iter().copied().max().unwrap_or(0);

        let mut rng = SmallRng::seed_from_u64(PRIORITY_SEED);
        let priorities: Vec<u64> = pairs.iter().map(|_| rng.gen()).collect();

        let sim_cfg = SimConfig {
            mode: SimMode::Queued,
            ..sim
        };
        let simulator = Simulator::new(g, sim_cfg);
        let run = simulator.run(|v, _| RouterProgram {
            forward: rows_of(&forward, v),
            sources: rows_of(&sources, v),
            expect: rows_of(&targets, v),
            received: 0,
            priority: &priorities,
        });

        let delivered = run.programs.iter().map(|p| p.received).sum::<usize>();
        UnicastOutcome {
            delivered,
            congestion,
            dilation,
            metrics: run.metrics,
        }
    }
}

/// The node sequence from `s` to `t` along the tree (excluding `s`,
/// including `t`): ascend to the LCA, then descend.
fn tree_path(tree: &RootedTree, s: NodeId, t: NodeId) -> Vec<NodeId> {
    let lca = tree.lca(s, t);
    let below = |v: NodeId| {
        let to_root = tree.path_to_root(v).map(|(v, _)| v);
        to_root.take_while(move |&v| v != lca)
    };
    // Ascend: the parent of every node on s's side below the LCA, ending at
    // the LCA (none if s is the LCA); then descend to t.
    let up = below(s).map(|v| tree.parent(v).expect("below the LCA").0);
    let mut path: Vec<NodeId> = up.collect();
    let down: Vec<NodeId> = below(t).collect();
    path.extend(down.into_iter().rev());
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{bfs, gen};

    fn tree_of(g: &Graph) -> RootedTree {
        bfs::bfs_tree(g, NodeId(0))
    }

    #[test]
    fn tree_path_cases() {
        let g = gen::path(7);
        let t = tree_of(&g);
        // Ancestor to descendant.
        assert_eq!(
            tree_path(&t, NodeId(1), NodeId(4)),
            vec![NodeId(2), NodeId(3), NodeId(4)]
        );
        // Descendant to ancestor.
        assert_eq!(
            tree_path(&t, NodeId(4), NodeId(1)),
            vec![NodeId(3), NodeId(2), NodeId(1)]
        );
    }

    #[test]
    fn tree_path_through_lca() {
        let g = gen::grid(3, 3);
        let t = tree_of(&g);
        let path = tree_path(&t, NodeId(6), NodeId(2));
        // Path must end at the target and walk along tree edges.
        assert_eq!(*path.last().unwrap(), NodeId(2));
        let mut cur = NodeId(6);
        for &next in &path {
            assert!(
                g.has_edge(cur, next),
                "step {cur:?} -> {next:?} not an edge"
            );
            cur = next;
        }
    }

    #[test]
    fn all_packets_delivered_on_grid() {
        let g = gen::grid(8, 8);
        let t = tree_of(&g);
        let pairs: Vec<(NodeId, NodeId)> = (0..16).map(|i| (NodeId(i), NodeId(63 - i))).collect();
        let out = UnicastOp { demands: &pairs }.run_on(&g, &t, SimConfig::default());
        assert!(out.metrics.terminated);
        assert_eq!(out.delivered, 16);
        assert!(out.congestion >= 1 && out.dilation >= 1);
        // LMR shape: rounds within a small factor of c + d.
        let budget = u64::from(out.congestion + out.dilation);
        assert!(
            out.metrics.rounds <= 4 * budget,
            "rounds {} vs budget {budget}",
            out.metrics.rounds
        );
    }

    #[test]
    fn hotspot_congestion_is_serialized_fairly() {
        // Star: every packet must cross the hub; congestion = k.
        let g = gen::star(12);
        let t = tree_of(&g);
        let pairs: Vec<(NodeId, NodeId)> = (1..7).map(|i| (NodeId(i), NodeId(i + 5))).collect();
        let out = UnicastOp { demands: &pairs }.run_on(&g, &t, SimConfig::default());
        assert_eq!(out.delivered, 6);
        assert_eq!(out.dilation, 2);
        // All six packets enter distinct hub edges but leave over distinct
        // edges too; rounds stay near c + d.
        assert!(out.metrics.rounds <= u64::from(out.congestion + out.dilation) + 2);
    }

    #[test]
    #[should_panic(expected = "source equals target")]
    fn rejects_self_pairs() {
        let g = gen::path(3);
        let t = tree_of(&g);
        UnicastOp {
            demands: &[(NodeId(1), NodeId(1))],
        }
        .run_on(&g, &t, SimConfig::default());
    }

    use lcs_graph::Graph;
}
