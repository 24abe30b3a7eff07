//! Distributed BFS-tree construction.

use crate::protocols::TreeKnowledge;
use crate::{Ctx, Incoming, MessageSize, NodeProgram, RunOutcome};
use lcs_graph::{Graph, NodeId};

/// Messages of the BFS protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BfsMsg {
    /// "My BFS distance is `d`" — floods outward from the root.
    Dist(u32),
    /// "I chose you as my parent" — lets parents learn their children.
    Adopt,
}

impl MessageSize for BfsMsg {
    /// BFS distances are bounded by `n`, so they are id-sized payloads:
    /// `O(log n)` bits, as the CONGEST model assumes.
    fn size_bits_in(&self, n: usize) -> usize {
        match self {
            BfsMsg::Dist(_) => 1 + crate::id_bits(n),
            BfsMsg::Adopt => 1,
        }
    }
}

/// Per-node BFS program: builds a BFS tree rooted at the initiator in
/// `ecc(root) + O(1)` rounds with `O(m)` messages.
///
/// After the run, [`extract_tree`] recovers the tree knowledge.
#[derive(Clone, Debug)]
pub struct BfsTreeProgram {
    is_root: bool,
    dist: Option<u32>,
    parent_port: Option<usize>,
    children_ports: Vec<usize>,
}

impl BfsTreeProgram {
    /// Creates the program; exactly one node must pass `is_root = true`.
    pub fn new(is_root: bool) -> Self {
        BfsTreeProgram {
            is_root,
            dist: if is_root { Some(0) } else { None },
            parent_port: None,
            children_ports: Vec::new(),
        }
    }

    /// The node's BFS depth, `None` if unreached.
    pub fn dist(&self) -> Option<u32> {
        self.dist
    }

    /// Port to the parent (`None` at the root / unreached nodes).
    pub fn parent_port(&self) -> Option<usize> {
        self.parent_port
    }

    /// Ports to the children.
    pub fn children_ports(&self) -> &[usize] {
        &self.children_ports
    }
}

impl NodeProgram for BfsTreeProgram {
    type Msg = BfsMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, BfsMsg>) {
        if self.is_root {
            ctx.broadcast(BfsMsg::Dist(0));
        }
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, BfsMsg>, inbox: &[Incoming<BfsMsg>]) {
        let mut best: Option<(u32, usize)> = None;
        for m in inbox {
            match m.msg {
                BfsMsg::Dist(d) => {
                    if best.map(|(bd, bp)| (d, m.port) < (bd, bp)).unwrap_or(true) {
                        best = Some((d, m.port));
                    }
                }
                BfsMsg::Adopt => self.children_ports.push(m.port),
            }
        }
        if let Some((d, port)) = best {
            if self.dist.is_none() {
                self.dist = Some(d + 1);
                self.parent_port = Some(port);
                ctx.send(port, BfsMsg::Adopt);
                let my = d + 1;
                for p in 0..ctx.degree() {
                    if p != port {
                        ctx.send(p, BfsMsg::Dist(my));
                    }
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        true // quiescence-detected; unreached nodes stay silent
    }
}

/// Collects the per-node BFS states of a finished run into a
/// [`TreeKnowledge`].
///
/// # Panics
///
/// Panics if no node was the root.
pub fn extract_tree(g: &Graph, run: &RunOutcome<BfsTreeProgram>) -> TreeKnowledge {
    let n = g.num_nodes();
    let mut parent_port = vec![None; n];
    let mut children_ports = vec![Vec::new(); n];
    let mut depth = vec![u32::MAX; n];
    let mut root = None;
    for (v, prog) in run.programs.iter().enumerate() {
        if prog.is_root {
            root = Some(NodeId(v as u32));
        }
        if let Some(d) = prog.dist {
            depth[v] = d;
        }
        parent_port[v] = prog.parent_port;
        let mut ports = prog.children_ports.clone();
        ports.sort_unstable();
        children_ports[v] = ports;
    }
    TreeKnowledge {
        parent_port,
        children_ports,
        depth,
        root: root.expect("exactly one node must be the BFS root"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulator};
    use lcs_graph::{bfs, gen};

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
        // Rounds: eccentricity + small constant for adoption/quiescence.
        let ecc = reference.eccentricity() as u64;
        assert!(run.metrics.rounds >= ecc && run.metrics.rounds <= ecc + 3);
    }

    #[test]
    fn tree_knowledge_is_consistent() {
        let g = gen::torus(4, 5);
        let sim = Simulator::new(&g, SimConfig::default());
        let run = sim.run(|v, _| BfsTreeProgram::new(v == NodeId(7)));
        let tk = extract_tree(&g, &run);
        assert_eq!(tk.root, NodeId(7));
        assert_eq!(tk.num_tree_nodes(), 20);
        // Every non-root node's parent has it as a child.
        for v in g.nodes() {
            if v == tk.root {
                assert!(tk.parent_port[v.index()].is_none());
                continue;
            }
            let up = tk.parent_port[v.index()].unwrap();
            let p = g.heads(v)[up];
            assert_eq!(tk.depth[v.index()], tk.depth[p.index()] + 1);
            let children: Vec<NodeId> = tk.children_ports[p.index()]
                .iter()
                .map(|&port| g.heads(p)[port])
                .collect();
            assert!(children.contains(&v));
        }
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
