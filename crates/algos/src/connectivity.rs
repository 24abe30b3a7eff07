//! Connected components / spanning forests, distributed (unweighted
//! Boruvka) and centralized.
//!
//! "Subgraph connectivity" is among the paper's listed applications: with
//! unit weights, the MST machinery computes a spanning forest, and fragment
//! ids at fixpoint are component labels, in `Õ(δD)` rounds per phase.

use crate::mst::{boruvka_config_of, distributed_mst, op_report, BoruvkaConfig, MstReport};
use lcs_core::session::{deps, OpReport, PartwiseOp, ShortcutSession};
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{Graph, NodeId, UnionFind};

/// Result of [`distributed_components`].
#[derive(Clone, Debug)]
pub struct ComponentsReport {
    /// Dense component label per node.
    pub label: Vec<u32>,
    /// Number of connected components.
    pub count: usize,
    /// The underlying spanning-forest run.
    pub mst: MstReport,
}

/// Computes connected components distributedly via unit-weight Boruvka.
///
/// # Panics
///
/// Panics like [`distributed_mst`].
pub fn distributed_components(g: &Graph, root: NodeId, cfg: &BoruvkaConfig) -> ComponentsReport {
    let weights = EdgeWeights::unit(g);
    let mst = distributed_mst(g, &weights, root, cfg);
    let mut uf = UnionFind::new(g.num_nodes());
    for &e in &mst.edges {
        let (u, v) = g.endpoints(e);
        uf.union(u.index(), v.index());
    }
    let mut label = vec![u32::MAX; g.num_nodes()];
    let mut next = 0u32;
    for v in g.nodes() {
        let r = uf.find(v.index());
        if label[r] == u32::MAX {
            label[r] = next;
            next += 1;
        }
        label[v.index()] = label[r];
    }
    ComponentsReport {
        label,
        count: next as usize,
        mst,
    }
}

/// Connected components as a session-drivable operation ([`PartwiseOp`]):
/// unit-weight Boruvka over the session's root and backend-derived
/// shortcut provider.
#[derive(Clone, Copy, Debug, Default)]
pub struct ComponentsOp;

impl PartwiseOp for ComponentsOp {
    type Output = ComponentsReport;

    fn run(self, session: &mut ShortcutSession<'_>) -> OpReport<ComponentsReport> {
        // Purely topology-scoped: partition and weight churn keep the
        // cached report alive.
        let report = session.op_artifact_with(deps::TOPOLOGY_ONLY, |s| {
            let cfg = boruvka_config_of(s);
            distributed_components(s.graph(), s.root(), &cfg)
        });
        op_report(
            session.graph(),
            session.config().sim,
            report.mst.rounds.total(),
            report.mst.messages,
            report.mst.bits,
            report.mst.truncated,
            (*report).clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{components, gen};

    #[test]
    fn single_component_grid() {
        let g = gen::grid(5, 5);
        let rep = distributed_components(&g, NodeId(0), &BoruvkaConfig::default());
        assert_eq!(rep.count, 1);
        assert_eq!(rep.mst.edges.len(), 24);
        assert!(rep.label.iter().all(|&l| l == rep.label[0]));
    }

    #[test]
    fn matches_centralized_components() {
        let g = Graph::from_edges(8, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (5, 7)]);
        let rep = distributed_components(&g, NodeId(0), &BoruvkaConfig::default());
        let reference = components::connected_components(&g);
        assert_eq!(rep.count, reference.count);
        // Labels agree up to renaming: same label iff same component.
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    rep.label[u.index()] == rep.label[v.index()],
                    reference.label[u.index()] == reference.label[v.index()]
                );
            }
        }
    }

    use lcs_graph::Graph;
}
