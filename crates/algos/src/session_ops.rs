//! The algorithms half of the [`ShortcutSession`] operation surface: MST,
//! connectivity, and min-cut. Each method calls its algorithm with the
//! session's graph, root, [`SessionConfig`](lcs_core::session::SessionConfig)
//! and backend-derived [`ShortcutProvider`], and caches the report as a
//! session artifact.
//!
//! [`ShortcutSession`]: lcs_core::session::ShortcutSession

use crate::connectivity::{distributed_components, ComponentsReport};
use crate::mincut::{approx_mincut_distributed, MincutReport};
use crate::mst::{distributed_mst, MstReport, ShortcutProvider};
use lcs_congest::Simulator;
use lcs_core::session::{deps, OpReport, SessionError, ShortcutSession};
use lcs_graph::components;
use lcs_graph::weights::EdgeWeights;

/// Shortcut-based distributed algorithms served by a
/// [`ShortcutSession`]. The shortcut provider of every Boruvka phase is
/// derived from the session's backend: the centralized Theorem 1.2 oracle
/// for `Backend::Centralized`, the simulated Theorem 1.5 construction for
/// `Backend::Distributed` / `Backend::Sketch`.
///
/// ```
/// use lcs_algos::SessionAlgoOps;
/// use lcs_core::session::Session;
/// use lcs_graph::{gen, weights::EdgeWeights};
///
/// let g = gen::grid(5, 5);
/// let mut session = Session::on(&g).build()?;
/// let weights = EdgeWeights::unit(&g);
/// let mst = session.mst(&weights);
/// assert_eq!(mst.result.edges.len(), 24);
/// let comps = session.components();
/// assert_eq!(comps.result.count, 1);
/// # Ok::<(), lcs_core::session::SessionError>(())
/// ```
pub trait SessionAlgoOps {
    /// Exact minimum spanning forest by shortcut-based Boruvka
    /// (Corollary 1.6; [`distributed_mst`] semantics). Stores `weights` as
    /// the session's `Weights` input (a no-op when unchanged) and caches
    /// the report as a weight-scoped artifact (`deps::WEIGHTED`): repeated
    /// calls reuse it until the weights change — partition churn does not
    /// evict it.
    fn mst(&mut self, weights: &EdgeWeights) -> OpReport<MstReport>;

    /// Connected components by unit-weight Boruvka
    /// ([`distributed_components`] semantics). The report is
    /// topology-scoped: partition and weight churn keep it cached.
    fn components(&mut self) -> OpReport<ComponentsReport>;

    /// Min-cut upper bound by greedy tree packing + 1-respecting cuts
    /// (Corollary 1.7; [`approx_mincut_distributed`] semantics).
    /// Topology-scoped like [`components`](Self::components).
    fn mincut(&mut self) -> OpReport<MincutReport>;

    /// [`mst`](Self::mst) with the weight vector validated up front: a
    /// length mismatch or a weight outside the 31-bit budget the protocol
    /// packs ids into comes back as a [`SessionError`] instead of a panic
    /// — the entry point a serving process maps to structured 4xx
    /// responses.
    fn try_mst(&mut self, weights: &EdgeWeights) -> Result<OpReport<MstReport>, SessionError>;

    /// [`components`](Self::components) behind the same fallible signature
    /// as the other `try_` entry points (connectivity accepts any graph a
    /// session can be built over, so this does not fail).
    fn try_components(&mut self) -> Result<OpReport<ComponentsReport>, SessionError>;

    /// [`mincut`](Self::mincut) with the preconditions checked up front:
    /// fewer than two nodes or a disconnected graph comes back as a
    /// [`SessionError`] instead of a panic.
    fn try_mincut(&mut self) -> Result<OpReport<MincutReport>, SessionError>;
}

/// The provider matching the session's backend: the centralized oracle, or
/// the simulated Theorem 1.5 construction on the backend's settings.
fn provider_of(session: &ShortcutSession<'_>) -> ShortcutProvider {
    let dist = session.backend().dist_config();
    dist.map_or(ShortcutProvider::Oracle, ShortcutProvider::Distributed)
}

/// Wraps the (cached) report of a whole-graph op into the uniform
/// [`OpReport`]: its simulated totals plus the execution configuration —
/// effective threads, bandwidth bits — the session's simulator settings
/// resolve to on its graph.
fn op_report<T>(
    session: &ShortcutSession<'_>,
    rounds: u64,
    messages: u64,
    bits: u64,
    truncated: bool,
    result: T,
) -> OpReport<T> {
    let simulator = Simulator::new(session.graph(), session.config().sim);
    OpReport {
        rounds,
        messages,
        bits,
        truncated,
        quality: None,
        threads: simulator.effective_threads(),
        bandwidth_bits: simulator.bandwidth_bits(),
        result,
    }
}

impl SessionAlgoOps for ShortcutSession<'_> {
    fn mst(&mut self, weights: &EdgeWeights) -> OpReport<MstReport> {
        self.set_weights(weights.clone());
        let r = self.op_artifact_with(deps::WEIGHTED, |s| {
            distributed_mst(s.graph(), s.weights(), s.root(), provider_of(s), s.config())
        });
        let rounds = r.rounds.total();
        op_report(self, rounds, r.messages, r.bits, r.truncated, (*r).clone())
    }

    fn components(&mut self) -> OpReport<ComponentsReport> {
        let r = self.op_artifact_with(deps::TOPOLOGY_ONLY, |s| {
            distributed_components(s.graph(), s.root(), provider_of(s), s.config())
        });
        let (m, rounds) = (&r.mst, r.mst.rounds.total());
        op_report(self, rounds, m.messages, m.bits, m.truncated, (*r).clone())
    }

    fn mincut(&mut self) -> OpReport<MincutReport> {
        let r = self.op_artifact_with(deps::TOPOLOGY_ONLY, |s| {
            approx_mincut_distributed(s.graph(), s.root(), provider_of(s), s.config())
        });
        let rounds = r.rounds.total() + r.eval_rounds;
        op_report(self, rounds, r.messages, r.bits, r.truncated, (*r).clone())
    }

    fn try_mst(&mut self, weights: &EdgeWeights) -> Result<OpReport<MstReport>, SessionError> {
        if weights.len() != self.graph().num_edges() {
            return Err(SessionError::WeightCountMismatch {
                got: weights.len(),
                expected: self.graph().num_edges(),
            });
        }
        if let Some((edge, weight)) = weights.iter().find(|&(_, w)| w >= (1 << 31)) {
            return Err(SessionError::WeightTooLarge { edge, weight });
        }
        Ok(self.mst(weights))
    }

    fn try_components(&mut self) -> Result<OpReport<ComponentsReport>, SessionError> {
        Ok(self.components())
    }

    fn try_mincut(&mut self) -> Result<OpReport<MincutReport>, SessionError> {
        if self.graph().num_nodes() < 2 {
            return Err(SessionError::GraphTooSmall {
                need: 2,
                have: self.graph().num_nodes(),
            });
        }
        if !components::is_connected(self.graph()) {
            return Err(SessionError::GraphDisconnected);
        }
        Ok(self.mincut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_core::session::Session;
    use lcs_graph::{gen, EdgeId, Graph};

    #[test]
    fn try_mst_validates_weights() {
        let g = gen::grid(4, 4);
        let mut s = Session::on(&g).build().unwrap();
        let short = EdgeWeights::unit(&gen::path(3));
        assert_eq!(
            s.try_mst(&short).unwrap_err(),
            SessionError::WeightCountMismatch {
                got: 2,
                expected: g.num_edges()
            }
        );
        let mut heavy = EdgeWeights::unit(&g);
        *heavy.weight_mut(EdgeId(1)) = 1 << 31;
        assert_eq!(
            s.try_mst(&heavy).unwrap_err(),
            SessionError::WeightTooLarge {
                edge: EdgeId(1),
                weight: 1 << 31
            }
        );
        let ok = s.try_mst(&EdgeWeights::unit(&g)).expect("valid weights");
        assert_eq!(ok.result.edges.len(), 15);
    }

    #[test]
    fn try_mincut_validates_preconditions() {
        let single = gen::path(1);
        let mut s = Session::on(&single).build().unwrap();
        assert_eq!(
            s.try_mincut().unwrap_err(),
            SessionError::GraphTooSmall { need: 2, have: 1 }
        );

        // Two isolated nodes: disconnected.
        let disconnected = Graph::from_edges(2, Vec::<(u32, u32)>::new());
        let mut s = Session::on(&disconnected).build().unwrap();
        assert_eq!(s.try_mincut().unwrap_err(), SessionError::GraphDisconnected);

        let g = gen::cycle(6);
        let mut s = Session::on(&g).build().unwrap();
        assert_eq!(
            s.try_mincut().expect("cycle is connected").result.estimate,
            2
        );
        assert_eq!(s.try_components().expect("non-empty").result.count, 1);
    }
}
