//! The algorithms half of the [`ShortcutSession`] operation surface: MST,
//! connectivity, and min-cut. Each method calls its algorithm with the
//! session's graph, cached tree (the one its shortcut is built on — a
//! provided tree, or the BFS tree whose flood the session charged once),
//! [`SessionConfig::sim`] and the session's construction as the algorithm's
//! `fresh` shortcuts, and caches the report as a session artifact.
//!
//! [`ShortcutSession`]: lcs_core::session::ShortcutSession
//! [`SessionConfig::sim`]: lcs_core::session::SessionConfig::sim

use crate::connectivity::{distributed_components, ComponentsReport};
use crate::mincut::{approx_mincut_distributed, MincutReport};
use crate::mst::{distributed_mst, MstReport};
use lcs_congest::{SimConfig, Simulator};
use lcs_core::dist::Truncated;
use lcs_core::session::{OpReport, SessionError, ShortcutSession};
use lcs_core::{construct, FullShortcutResult, Partition, ShortcutConfig};
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{components, Graph, PartId, RootedTree};

/// Shortcut-based distributed algorithms served by a
/// [`ShortcutSession`]. Every Boruvka phase's shortcuts are built the way
/// the session builds its own: the centralized Theorem 1.2 construction
/// for `Backend::Centralized`, the simulated Theorem 1.5 construction,
/// charged per phase, for `Backend::Distributed` / `Backend::Sketch`.
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
/// let comps = session.try_components()?;
/// assert_eq!(comps.result.count, 1);
/// # Ok::<(), lcs_core::session::SessionError>(())
/// ```
pub trait SessionAlgoOps {
    /// Exact minimum spanning forest by shortcut-based Boruvka
    /// (Corollary 1.6; [`distributed_mst`] semantics). The report is
    /// memoized on `weights`: a repeated call with equal weights reuses
    /// it, other weights replace it — partition churn does not evict it.
    ///
    /// # Panics
    ///
    /// Panics where [`try_mst`](Self::try_mst) fails.
    fn mst(&mut self, weights: &EdgeWeights) -> OpReport<MstReport>;

    /// Min-cut upper bound by greedy tree packing + 1-respecting cuts
    /// (Corollary 1.7; [`approx_mincut_distributed`] semantics), the first
    /// packed tree being the session's own. Topology-scoped like
    /// [`try_components`](Self::try_components).
    ///
    /// # Panics
    ///
    /// Panics where [`try_mincut`](Self::try_mincut) fails.
    fn mincut(&mut self) -> OpReport<MincutReport>;

    /// [`mst`](Self::mst) with the weight vector validated up front: a
    /// length mismatch or a weight outside the 31-bit budget the protocol
    /// packs ids into comes back as a [`SessionError`] instead of a panic
    /// — the entry point a serving process maps to structured 4xx
    /// responses.
    fn try_mst(&mut self, weights: &EdgeWeights) -> Result<OpReport<MstReport>, SessionError>;

    /// Connected components by unit-weight Boruvka
    /// ([`distributed_components`] semantics), cached across partition
    /// churn. It fails only where the session's tree does.
    fn try_components(&mut self) -> Result<OpReport<ComponentsReport>, SessionError>;

    /// [`mincut`](Self::mincut) with the preconditions checked up front:
    /// fewer than two nodes or a disconnected graph comes back as a
    /// [`SessionError`] instead of a panic.
    fn try_mincut(&mut self) -> Result<OpReport<MincutReport>, SessionError>;
}

/// A Boruvka-family algorithm's `fresh` shortcuts ([`distributed_mst`]).
type Fresh<'a> = dyn FnMut(&Partition, &[PartId]) -> Result<FullShortcutResult, Truncated> + 'a;

/// Runs a Boruvka-family algorithm on the session's graph, cached tree
/// (ensured by the caller, so this does not fail) and simulator settings,
/// handing it [`construct`] with the paper's constants on the session's
/// backend over that tree.
fn with_tree<T>(
    session: &mut ShortcutSession<'_>,
    run: impl FnOnce(&Graph, &RootedTree, &mut Fresh<'_>, SimConfig) -> T,
) -> T {
    let (g, dist) = (session.graph_handle(), session.backend().dist_config());
    let tree = session.tree().clone();
    let cfg = ShortcutConfig::default();
    let mut fresh =
        |p: &Partition, parts: &[PartId]| construct(&g, &tree, p, parts, 1, &cfg, dist.as_ref());
    run(&g, &tree, &mut fresh, session.config().sim)
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

/// The memoized MST: the report and the weights it answers for.
struct MstMemo {
    weights: EdgeWeights,
    report: MstReport,
}

impl SessionAlgoOps for ShortcutSession<'_> {
    fn mst(&mut self, weights: &EdgeWeights) -> OpReport<MstReport> {
        self.try_mst(weights).unwrap_or_else(|e| panic!("{e}"))
    }

    fn mincut(&mut self) -> OpReport<MincutReport> {
        self.try_mincut().unwrap_or_else(|e| panic!("{e}"))
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
        self.try_tree()?;
        let memo = self.op_artifact_with(
            |memo: &MstMemo| memo.weights == *weights,
            |s| MstMemo {
                report: with_tree(s, |g, tree, fresh, sim| {
                    distributed_mst(g, weights, tree, fresh, sim)
                }),
                weights: weights.clone(),
            },
        );
        let r = &memo.report;
        let rounds = r.rounds.total();
        let report = op_report(self, rounds, r.messages, r.bits, r.truncated, r.clone());
        Ok(report)
    }

    fn try_components(&mut self) -> Result<OpReport<ComponentsReport>, SessionError> {
        self.try_tree()?;
        let r = self.op_artifact_with(
            |_| true,
            |s| {
                with_tree(s, |g, tree, fresh, sim| {
                    distributed_components(g, tree, fresh, sim)
                })
            },
        );
        let (m, rounds) = (&r.mst, r.mst.rounds.total());
        let report = op_report(self, rounds, m.messages, m.bits, m.truncated, (*r).clone());
        Ok(report)
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
        self.try_tree()?;
        let r = self.op_artifact_with(
            |_| true,
            |s| {
                with_tree(s, |g, tree, fresh, sim| {
                    approx_mincut_distributed(g, tree, fresh, sim)
                })
            },
        );
        let rounds = r.rounds.total() + r.eval_rounds;
        let report = op_report(self, rounds, r.messages, r.bits, r.truncated, (*r).clone());
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mst::kruskal;
    use lcs_core::session::{CacheStats, Session};
    use lcs_graph::{gen, EdgeId, Graph, NodeId, PartId};
    use std::sync::Arc;

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

    /// The MST memo's cells (the other artifact classes' are the
    /// invalidation matrix in `lcs_core::session`): equal weights are a
    /// hit on one allocation, partition churn keeps it, other weights are
    /// one invalidation + one build.
    #[test]
    fn mst_is_memoized_on_the_weights_it_is_given() {
        let g = gen::grid(4, 4);
        let unit = EdgeWeights::unit(&g);
        let mut skewed = unit.clone();
        *skewed.weight_mut(EdgeId(0)) = 9;
        let mut s = Session::on(&g)
            .partition(gen::rows_of_grid(4, 4))
            .build()
            .unwrap();
        let memo = |s: &mut ShortcutSession<'_>| {
            let cached = |_: &mut ShortcutSession<'_>| -> MstMemo { unreachable!("memoized") };
            s.op_artifact_with(|_| true, cached)
        };
        // (builds, hits, invalidations) of the op artifacts since `before`.
        let moved = |s: &ShortcutSession<'_>, before: &CacheStats| {
            let (now, was) = (s.cache_stats().op_artifacts, before.op_artifacts);
            let invalidations = now.invalidations - was.invalidations;
            (now.builds - was.builds, now.hits - was.hits, invalidations)
        };

        let before = *s.cache_stats();
        for _ in 0..2 {
            assert_eq!(s.mst(&unit.clone()).result.edges, kruskal(&g, &unit));
        }
        assert_eq!(moved(&s, &before), (1, 1, 0), "Boruvka ran once");
        let served = memo(&mut s);

        s.reassign_parts(&[(NodeId(4), PartId(0))]).unwrap();
        s.set_partition(gen::rows_of_grid(4, 4)).unwrap();
        let before = *s.cache_stats();
        s.mst(&unit);
        assert_eq!(moved(&s, &before), (0, 1, 0), "partition churn keeps it");
        assert!(Arc::ptr_eq(&served, &memo(&mut s)));

        let before = *s.cache_stats();
        assert_eq!(s.mst(&skewed).result.edges, kruskal(&g, &skewed));
        assert_eq!(moved(&s, &before), (1, 0, 1), "other weights replace it");
        assert!(!Arc::ptr_eq(&served, &memo(&mut s)));
    }

    /// A session's Boruvka runs over the session's tree, the one its
    /// shortcuts are built on. Provided a spanning tree that is not the BFS
    /// tree of its root — a snake through the grid's rows — `session.mst`
    /// sends exactly what `distributed_mst` sends over that tree, which is
    /// not what it sends over the BFS tree: on the 8 × 8 grid under these
    /// weights a carried tree outgrows the BFS tree's one-block cap
    /// (`2D + 1` = 29) and echoes, while the snake's cap (127) keeps it.
    #[test]
    fn mst_runs_over_the_provided_tree() {
        use crate::mst::distributed_mst;
        use lcs_core::session::TreeSource;
        use lcs_graph::{bfs, RootedTree};
        use rand::SeedableRng;
        let g = gen::grid(8, 8);
        let in_snake = |u: u32, v: u32| {
            let (row, col) = (u.min(v) / 8, u.min(v) % 8);
            u / 8 == v / 8 || col == if row % 2 == 0 { 7 } else { 0 }
        };
        let res = bfs::bfs_filtered(&g, &[NodeId(0)], |e, _| {
            let (u, v) = g.endpoints(e);
            in_snake(u.0, v.0)
        });
        let snake = RootedTree::from_parents(&g, NodeId(0), &res.parent, &res.dist, &res.order);
        assert_eq!(snake.depth_of_tree(), 63);
        let w = EdgeWeights::random_unique(&g, &mut rand::rngs::SmallRng::seed_from_u64(7));
        let mut s = Session::on(&g)
            .tree(TreeSource::Provided(snake.clone()))
            .build()
            .unwrap();
        let served = s.mst(&w);
        assert_eq!(served.result.edges, kruskal(&g, &w));
        let (cfg, sim) = (ShortcutConfig::default(), s.config().sim);
        let over = |tree: &RootedTree| {
            let fresh =
                |p: &Partition, parts: &[PartId]| construct(&g, tree, p, parts, 1, &cfg, None);
            distributed_mst(&g, &w, tree, fresh, sim)
        };
        let (direct, bfs) = (over(&snake), over(&bfs::bfs_tree(&g, NodeId(0))));
        let counts = |r: &MstReport| (r.rounds.total(), r.messages, r.bits);
        assert_eq!(
            (served.rounds, served.messages, served.bits),
            counts(&direct)
        );
        assert_ne!(counts(&direct), counts(&bfs));
        assert_eq!((direct.echoes, bfs.echoes), (0, 1));
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
