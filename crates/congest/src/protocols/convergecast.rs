//! Tree convergecast: aggregate one value per node up to the root.

use crate::{Ctx, Incoming, NodeProgram};
use lcs_graph::{Graph, NodeId, RootedTree};

/// The aggregation operator of a convergecast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// Sum of all values (counts, subtree sizes).
    Sum,
    /// Minimum.
    Min,
    /// Maximum (e.g. tree depth).
    Max,
}

impl AggOp {
    /// Applies the operator.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AggOp::Sum => a.wrapping_add(b),
            AggOp::Min => a.min(b),
            AggOp::Max => a.max(b),
        }
    }
}

/// Convergecast over a known tree: leaves send first; every node forwards
/// the aggregate of its subtree once all children reported. Completes in
/// `depth + 1` rounds with one message per tree edge.
///
/// The root's [`result`](ConvergecastProgram::result) holds the global
/// aggregate after the run.
#[derive(Clone, Debug)]
pub struct ConvergecastProgram {
    op: AggOp,
    value: u64,
    parent_port: Option<usize>,
    expected: usize,
    heard: usize,
    in_tree: bool,
    sent: bool,
    result: Option<u64>,
}

impl ConvergecastProgram {
    /// Creates the program of `node` — its port to its parent in `tree` and
    /// its number of children there — with local input `value`.
    pub fn new(g: &Graph, tree: &RootedTree, node: NodeId, op: AggOp, value: u64) -> Self {
        let parent_port = tree
            .parent(node)
            .map(|(p, _)| g.port_to(node, p).expect("tree parent is a graph neighbor"));
        ConvergecastProgram {
            op,
            value,
            parent_port,
            expected: tree.children(node).len(),
            heard: 0,
            in_tree: tree.contains(node),
            sent: false,
            result: None,
        }
    }

    /// The subtree aggregate (global aggregate at the root), available once
    /// the node has fired.
    pub fn result(&self) -> Option<u64> {
        self.result
    }

    fn maybe_fire(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.sent || !self.in_tree || self.heard < self.expected {
            return;
        }
        self.sent = true;
        self.result = Some(self.value);
        if let Some(p) = self.parent_port {
            ctx.send(p, self.value);
        }
    }
}

impl NodeProgram for ConvergecastProgram {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.maybe_fire(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Incoming<u64>]) {
        for m in inbox {
            self.value = self.op.apply(self.value, m.msg);
            self.heard += 1;
        }
        self.maybe_fire(ctx);
    }

    fn is_done(&self) -> bool {
        self.sent || !self.in_tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulator};
    use lcs_graph::{bfs, gen};

    fn run_agg(op: AggOp, values: impl Fn(NodeId) -> u64) -> (u64, u64) {
        let g = gen::grid(4, 4);
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let sim = Simulator::new(&g, SimConfig::default());
        let run = sim.run(|v, _| ConvergecastProgram::new(&g, &tree, v, op, values(v)));
        assert!(run.metrics.terminated);
        (run.programs[0].result().unwrap(), run.metrics.rounds)
    }

    #[test]
    fn sum_counts_nodes() {
        let (total, rounds) = run_agg(AggOp::Sum, |_| 1);
        assert_eq!(total, 16);
        assert!(rounds <= 8); // depth 6 + fire + quiescence
    }

    #[test]
    fn max_finds_global_max() {
        let (m, _) = run_agg(AggOp::Max, |v| u64::from(v.0) * 10);
        assert_eq!(m, 150);
    }

    #[test]
    fn min_finds_global_min() {
        let (m, _) = run_agg(AggOp::Min, |v| 100 + u64::from(v.0));
        assert_eq!(m, 100);
    }

    #[test]
    fn single_node_tree() {
        let g = gen::path(1);
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let sim = Simulator::new(&g, SimConfig::default());
        let run = sim.run(|v, _| ConvergecastProgram::new(&g, &tree, v, AggOp::Sum, 7));
        assert_eq!(run.programs[0].result(), Some(7));
        assert_eq!(run.metrics.rounds, 0);
    }
}
