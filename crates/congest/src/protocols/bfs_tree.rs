//! Distributed BFS-tree construction.

use crate::{Ctx, Incoming, MessageSize, NodeProgram, RunOutcome};
use lcs_graph::{Graph, NodeId, RootedTree};

/// Messages of the BFS protocol.
///
/// A flood sends exactly `2m − (n − 1)` of them on a connected graph
/// (counting the reached component otherwise): a tree edge carries one
/// `Dist`, down; an edge between two nodes of one level carries a `Dist`
/// each way; every other edge carries a `Dist` down and a `Decline` up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BfsMsg {
    /// "My BFS distance is `d`" — floods outward from the root.
    Dist(u32),
    /// "You sent me `Dist`, but I chose another parent" — the only answer
    /// a lower neighbour gives; a child says nothing to its parent.
    Decline,
}

impl MessageSize for BfsMsg {
    /// BFS distances are bounded by `n`, so they are id-sized payloads:
    /// `O(log n)` bits, as the CONGEST model assumes.
    fn size_bits_in(&self, n: usize) -> usize {
        match self {
            BfsMsg::Dist(_) => 1 + crate::id_bits(n),
            BfsMsg::Decline => 1,
        }
    }
}

/// Per-node BFS program: builds a BFS tree rooted at the initiator in
/// `ecc(root) + O(1)` rounds with exactly `2m − (n − 1)` messages (see
/// [`BfsMsg`]).
///
/// A node that first hears `Dist` in round `r` takes the minimum
/// `(d, port)` as its parent and activates: it sends nothing to the
/// parent, `Decline` to every other port it heard `Dist` on in `r`, and
/// `Dist` on every remaining port. Children are learned by silence on a
/// fixed local deadline. Every edge delivers in exactly one round — the
/// same synchrony that makes the first `Dist` a node hears its shortest
/// distance — so a neighbour that got our `Dist` answers in round `r + 1`
/// (its own `Dist`: it is on our level) or `r + 2` (a `Decline`: it is one
/// level lower under another parent), or never (it is our child). The
/// children list is the `Dist` ports minus those that answered, final two
/// rounds after activation, with no clock or wake-up.
///
/// A program is 32 B: the depth and the parent port as `u32`s with an
/// unset sentinel, and the children list. The root is the node at depth
/// 0, so no flag marks it. After the run, [`extract_tree`] recovers the
/// tree.
#[derive(Clone, Debug)]
pub struct BfsTreeProgram {
    /// BFS depth, [`NONE`] while unreached; 0 exactly at the root.
    dist: u32,
    /// Port to the parent, [`NONE`] at the root and unreached nodes.
    parent_port: u32,
    children_ports: Vec<u32>,
}

/// The unset `dist` / `parent_port`.
const NONE: u32 = u32::MAX;

impl BfsTreeProgram {
    /// Creates the program; exactly one node must pass `is_root = true`.
    pub fn new(is_root: bool) -> Self {
        BfsTreeProgram {
            dist: if is_root { 0 } else { NONE },
            parent_port: NONE,
            children_ports: Vec::new(),
        }
    }

    /// The node's BFS depth, `None` if unreached.
    pub fn dist(&self) -> Option<u32> {
        (self.dist != NONE).then_some(self.dist)
    }

    /// Port to the parent (`None` at the root / unreached nodes).
    pub fn parent_port(&self) -> Option<usize> {
        (self.parent_port != NONE).then_some(self.parent_port as usize)
    }

    /// Ports to the children, ascending.
    pub fn children_ports(&self) -> &[u32] {
        &self.children_ports
    }

    /// Activation in the round the first `Dist`s arrive (all of them
    /// `Dist`, since only activated nodes answer). `children_ports` is the
    /// one allocation: every port, the heard ones marked, then shrunk to
    /// the ports `Dist` went out on.
    fn activate(&mut self, ctx: &mut Ctx<'_, BfsMsg>, inbox: &[Incoming<BfsMsg>]) {
        let mut best: Option<(u32, usize)> = None;
        for m in inbox {
            if let BfsMsg::Dist(d) = m.msg {
                if best.map(|b| (d, m.port) < b).unwrap_or(true) {
                    best = Some((d, m.port));
                }
            }
        }
        let Some((d, parent)) = best else { return };
        self.dist = d + 1;
        self.parent_port = parent as u32;
        let ports = &mut self.children_ports;
        ports.extend(0..ctx.degree() as u32);
        for m in inbox {
            ports[m.port] |= HEARD;
        }
        for (p, &q) in ports.iter().enumerate() {
            if q & HEARD == 0 {
                ctx.send(p, BfsMsg::Dist(d + 1));
            } else if p != parent {
                ctx.send(p, BfsMsg::Decline);
            }
        }
        keep_unmarked(ports);
        ports.shrink_to_fit();
    }
}

/// Marks a port in `children_ports` for [`keep_unmarked`]; the marked
/// list stays sorted by port.
const HEARD: u32 = 1 << (u32::BITS - 1);

/// Drops the marked ports in one pass. A leaf keeps no allocation, so
/// the finished programs of a flood hold lists only at inner nodes.
fn keep_unmarked(ports: &mut Vec<u32>) {
    ports.retain(|&q| q & HEARD == 0);
    if ports.is_empty() {
        *ports = Vec::new();
    }
}

impl NodeProgram for BfsTreeProgram {
    type Msg = BfsMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, BfsMsg>) {
        if self.dist == 0 {
            ctx.broadcast(BfsMsg::Dist(0));
            self.children_ports.extend(0..ctx.degree() as u32);
        }
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, BfsMsg>, inbox: &[Incoming<BfsMsg>]) {
        if self.dist == NONE {
            self.activate(ctx, inbox);
            return;
        }
        // An answer — a same-level `Dist` in round `r + 1` or a `Decline`
        // in `r + 2` — strikes the port it came on.
        let ports = &mut self.children_ports;
        for m in inbox {
            if let Ok(i) = ports.binary_search_by_key(&(m.port as u32), |&q| q & !HEARD) {
                ports[i] |= HEARD;
            }
        }
        keep_unmarked(ports);
    }

    fn is_done(&self) -> bool {
        true // quiescence-detected; unreached nodes stay silent
    }
}

/// Collects the per-node BFS states of a finished run into the
/// [`RootedTree`] they describe, its nodes ordered by `(depth, id)`.
///
/// # Panics
///
/// Panics if no node was the root.
pub fn extract_tree(g: &Graph, run: &RunOutcome<BfsTreeProgram>) -> RootedTree {
    let n = g.num_nodes();
    let mut parent = vec![None; n];
    let mut depth = vec![u32::MAX; n];
    let mut order: Vec<NodeId> = Vec::new();
    let mut root = None;
    for (v, prog) in g.nodes().zip(&run.programs) {
        let Some(d) = prog.dist() else {
            continue;
        };
        if d == 0 {
            root = Some(v);
        }
        depth[v.index()] = d;
        order.push(v);
        if let Some(port) = prog.parent_port() {
            let nb = g.neighbor(v, port);
            parent[v.index()] = Some((nb.node, nb.edge));
        }
    }
    order.sort_unstable_by_key(|&v| (depth[v.index()], v));
    let root = root.expect("exactly one node must be the BFS root");
    RootedTree::from_parents(g, root, &parent, &depth, &order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunMetrics, SimConfig, SimMode, Simulator};
    use lcs_graph::{bfs, gen};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn distances_match_centralized_bfs() {
        let g = gen::grid(5, 7);
        let sim = Simulator::new(&g, SimConfig::default());
        let run = sim.run(|v, _| BfsTreeProgram::new(v == NodeId(0)));
        assert!(run.metrics.terminated);
        let reference = bfs::bfs(&g, NodeId(0));
        for v in g.nodes() {
            assert_eq!(
                run.programs[v.index()].dist(),
                Some(reference.dist[v.index()])
            );
        }
        // Rounds: eccentricity + small constant for declines/quiescence.
        let ecc = reference.eccentricity() as u64;
        assert!(run.metrics.rounds >= ecc && run.metrics.rounds <= ecc + 3);
    }

    /// Runs the flood from `root` and checks what every node learned
    /// against the centralized BFS tree: depth, parent port and the sorted
    /// children ports, exactly. Also checks the bill: `2m − (n − 1)`
    /// messages over the reached component, one per directed edge and
    /// round at most. Returns the run's metrics.
    fn assert_flood_matches_centralized(g: &Graph, root: NodeId, sim: SimConfig) -> RunMetrics {
        let run = Simulator::new(g, sim).run(|v, _| BfsTreeProgram::new(v == root));
        assert!(run.metrics.terminated);
        let want = bfs::bfs_tree(g, root);
        let port = |v: NodeId, w: NodeId| g.port_to(v, w).expect("tree edges are graph edges");
        for (v, prog) in g.nodes().zip(&run.programs) {
            let depth = want.contains(v).then(|| want.depth(v));
            assert_eq!(prog.dist(), depth, "depth of {v:?}");
            let up = want.parent(v).map(|(p, _)| port(v, p));
            assert_eq!(prog.parent_port(), up, "parent port of {v:?}");
            let mut children: Vec<u32> = (want.children(v).iter())
                .map(|&c| port(v, c) as u32)
                .collect();
            children.sort_unstable();
            assert_eq!(prog.children_ports(), children, "children of {v:?}");
        }
        let tree = extract_tree(g, &run);
        assert_eq!(tree.root(), root);
        assert_eq!(tree.order().len(), want.order().len());
        for v in g.nodes().filter(|&v| want.contains(v)) {
            assert_eq!(
                (tree.depth(v), tree.parent(v)),
                (want.depth(v), want.parent(v))
            );
        }
        let reached = |v: NodeId| want.contains(v);
        let n = g.nodes().filter(|&v| reached(v)).count() as u64;
        let m = g.edges().filter(|e| reached(e.u)).count() as u64;
        assert_eq!(run.metrics.messages, 2 * m - (n - 1), "2m − (n − 1)");
        assert_eq!(run.metrics.max_queue, 1);
        run.metrics
    }

    #[test]
    fn tree_knowledge_is_consistent() {
        let mut rng = SmallRng::seed_from_u64(5);
        let cases = [
            // Same-level edges: both ends send `Dist`.
            (gen::cycle(9), vec![0, 4]),
            (gen::torus(4, 5), vec![7]),
            // Several lower neighbours: `Decline`s.
            (gen::gnm_connected(60, 150, &mut rng), vec![0, 31]),
            (gen::grid_king(6, 7), vec![0, 20]),
            // Hub and rim roots.
            (gen::star(12), vec![0, 5]),
            (gen::wheel(10), vec![0, 3]),
            // Only the root's component answers.
            (
                Graph::from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)]),
                vec![1, 4],
            ),
        ];
        for (g, roots) in &cases {
            for &root in roots {
                for mode in [SimMode::Strict, SimMode::Queued] {
                    let sim = SimConfig {
                        mode,
                        ..SimConfig::default()
                    };
                    assert_flood_matches_centralized(g, NodeId(root), sim);
                }
            }
        }
    }

    /// The flood at the scale we benchmark (`road_like` 512², n = 262 144):
    /// the exact tree and bill on one and two lanes and queued, with equal
    /// counts. Release mode only: `cargo test --release -- --ignored
    /// scale_`.
    #[test]
    #[ignore = "release-mode scale test"]
    fn scale_bfs_flood_on_road_like_512() {
        let g = gen::road_like(512, 512, 7);
        let runs: Vec<RunMetrics> = [
            (SimMode::Strict, 1),
            (SimMode::Strict, 2),
            (SimMode::Queued, 1),
        ]
        .into_iter()
        .map(|(mode, threads)| {
            let sim = SimConfig {
                mode,
                threads,
                ..SimConfig::default()
            };
            assert_flood_matches_centralized(&g, NodeId(0), sim)
        })
        .collect();
        for m in &runs[1..] {
            assert_eq!(m.counts(), runs[0].counts());
        }
    }

    /// A finished flood keeps one program per node: the depth and parent
    /// port as `u32`s, and the children list (its heap sized to the ports
    /// `Dist` went out on at activation); the root is the node at depth 0.
    #[test]
    fn a_program_is_at_most_thirty_two_bytes() {
        assert!(std::mem::size_of::<BfsTreeProgram>() <= 32);
    }

    #[test]
    fn unreached_components_stay_unset() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let sim = Simulator::new(&g, SimConfig::default());
        let run = sim.run(|v, _| BfsTreeProgram::new(v == NodeId(0)));
        assert!(run.metrics.terminated);
        assert_eq!(run.programs[2].dist(), None);
        assert_eq!(run.programs[3].dist(), None);
    }

    use lcs_graph::Graph;
}
