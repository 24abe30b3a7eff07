//! The part-wise half of the [`ShortcutSession`] operation surface:
//! aggregation, gossip, and unicast routing over the session's cached
//! artifacts. Each method reads what it needs from the session — tree,
//! shortcut, participation tables and forest, [`SessionConfig::sim`] —
//! and calls the protocol in [`AggregateOp`] (aggregate and gossip,
//! undelayed) or [`UnicastOp`].
//!
//! [`SessionConfig::sim`]: lcs_core::session::SessionConfig::sim

use crate::dist::SessionTables;
use crate::{AggForest, AggregateOp, PartwiseOutcome, UnicastOp, UnicastOutcome, Wave};
use lcs_congest::protocols::AggOp;
use lcs_congest::RunMetrics;
use lcs_core::session::{OpReport, SessionError, ShortcutSession};
use lcs_graph::{NodeId, PartId};
use std::sync::Arc;

/// The operators of [`SessionPartwiseOps::gossip`]: the idempotent ones of
/// [`AggOp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdempotentOp {
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl From<IdempotentOp> for AggOp {
    fn from(op: IdempotentOp) -> AggOp {
        match op {
            IdempotentOp::Min => AggOp::Min,
            IdempotentOp::Max => AggOp::Max,
        }
    }
}

/// Result of a session gossip.
#[derive(Clone, Debug)]
pub struct GossipOutcome {
    /// Aggregate per part as known by its leader (`None` if the leader
    /// never finished).
    pub results: Vec<Option<u64>>,
    /// Whether every member of every part learned its part's aggregate in
    /// a run that was not truncated.
    pub converged: bool,
    /// Simulation metrics of the aggregate that served the gossip.
    pub metrics: RunMetrics,
    /// Parts served from the session's aggregation forest: they sent only
    /// `Up` / `Down`.
    pub rooted_parts: usize,
}

/// Part-wise communication primitives served by a [`ShortcutSession`].
///
/// Implemented for [`ShortcutSession`]; bring the trait into scope (e.g.
/// via the umbrella crate's `facade` module or prelude) and call the
/// methods directly:
///
/// ```
/// use lcs_congest::protocols::AggOp;
/// use lcs_core::session::Session;
/// use lcs_graph::gen;
/// use lcs_partwise::SessionPartwiseOps;
///
/// let g = gen::grid(6, 6);
/// let mut session = Session::on(&g)
///     .partition(gen::rows_of_grid(6, 6))
///     .build()?;
/// let values: Vec<u64> = (0..36).collect();
/// let report = session.aggregate(&values, AggOp::Max);
/// assert_eq!(report.result.results[0], Some(5));
/// // The second call reuses the cached shortcut.
/// let again = session.aggregate(&values, AggOp::Sum);
/// assert!(again.result.all_members_informed);
/// assert_eq!(session.cache_stats().full.builds, 1);
/// # Ok::<(), lcs_core::session::SessionError>(())
/// ```
pub trait SessionPartwiseOps {
    /// Leader-based part-wise aggregation over the cached shortcut
    /// ([`AggregateOp`] semantics, any leaders: rooted parts keep the root
    /// of their cached tree).
    fn aggregate(&mut self, values: &[u64], op: AggOp) -> OpReport<PartwiseOutcome>;

    /// Idempotent aggregation with no leaders asked for: the
    /// [`AggregateOp`] of the same operator over the session's aggregation
    /// forest. A rooted part runs from its tree's root and sends only
    /// `Up` / `Down`; an unrooted part runs the echo from its minimum
    /// member (a host pick, charged nothing) and is rooted for the next op.
    fn gossip(&mut self, values: &[u64], op: IdempotentOp) -> OpReport<GossipOutcome>;

    /// Multi-unicast routing along the cached tree
    /// ([`UnicastOp`] semantics).
    fn unicast(&mut self, demands: &[(NodeId, NodeId)]) -> OpReport<UnicastOutcome>;

    /// [`aggregate`](Self::aggregate) with arguments validated up front: a
    /// missing partition or a value vector whose length differs from the
    /// node count comes back as a [`SessionError`] instead of a panic —
    /// the entry point a serving process maps to structured 4xx responses.
    /// So does, here and in the other `try_` forms, a construction phase
    /// cut short by the backend's round cap
    /// ([`SessionError::Truncated`]).
    fn try_aggregate(
        &mut self,
        values: &[u64],
        op: AggOp,
    ) -> Result<OpReport<PartwiseOutcome>, SessionError>;

    /// Aggregation with explicit per-part leaders, validated up front:
    /// partition, value count, leader count, leader range and membership.
    fn try_aggregate_with_leaders(
        &mut self,
        values: &[u64],
        op: AggOp,
        leaders: &[NodeId],
    ) -> Result<OpReport<PartwiseOutcome>, SessionError>;

    /// [`gossip`](Self::gossip) with arguments validated up front.
    fn try_gossip(
        &mut self,
        values: &[u64],
        op: IdempotentOp,
    ) -> Result<OpReport<GossipOutcome>, SessionError>;

    /// [`unicast`](Self::unicast) with demands validated up front: node
    /// range, no self-loops, and both endpoints inside the component the
    /// session tree spans ([`SessionError::NodeOffTree`] otherwise — the
    /// packets travel tree paths).
    fn try_unicast(
        &mut self,
        demands: &[(NodeId, NodeId)],
    ) -> Result<OpReport<UnicastOutcome>, SessionError>;
}

/// Shared validation of aggregation/gossip inputs: the session must carry
/// a partition and `values` must hold one entry per node.
fn check_values(s: &ShortcutSession<'_>, values: &[u64]) -> Result<(), SessionError> {
    s.try_partition()?;
    if values.len() != s.graph().num_nodes() {
        return Err(SessionError::ValueCountMismatch {
            got: values.len(),
            expected: s.graph().num_nodes(),
        });
    }
    Ok(())
}

/// The body of every aggregate form: runs the protocol over the cached
/// tables, seeded from the cached forest, and stores the forest the run
/// leaves behind. The forest is taken out of the session's tables for the
/// run, not copied, and swapped back harvested; a run that panics leaves
/// the session none, so the next aggregate starts cold. Fails only when
/// preparing the session does — a construction phase cut short by the
/// backend's round cap.
fn aggregate_on(
    session: &mut ShortcutSession<'_>,
    values: &[u64],
    op: AggOp,
    leaders: Option<&[NodeId]>,
) -> Result<OpReport<PartwiseOutcome>, SessionError> {
    session.try_prepare()?;
    let quality = session.quality_shared()?;
    let tables = SessionTables::of_session(session);
    let participation = Arc::clone(&tables.participation);
    let taken = SessionTables {
        participation: Arc::clone(&participation),
        forest: None,
    };
    session.op_artifact_swap(taken);
    let forest = Arc::try_unwrap(tables).map_or_else(|shared| shared.forest.clone(), |t| t.forest);
    let (g, partition, config) = (session.graph(), session.partition(), session.config());
    let mut forest = forest.unwrap_or_else(|| AggForest::unrooted(partition, &participation));
    let op = AggregateOp {
        values,
        op,
        leaders,
    };
    let (undelayed, shape) = ((0, config.sim), (Wave::Echo, None));
    let out = op.run_masked(g, partition, undelayed, &participation, &mut forest, shape);
    session.op_artifact_swap(SessionTables {
        participation,
        forest: Some(forest),
    });
    let metrics = out.metrics.clone();
    Ok(OpReport::from_metrics(out, &metrics, quality))
}

impl SessionPartwiseOps for ShortcutSession<'_> {
    fn aggregate(&mut self, values: &[u64], op: AggOp) -> OpReport<PartwiseOutcome> {
        self.try_aggregate(values, op)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn gossip(&mut self, values: &[u64], op: IdempotentOp) -> OpReport<GossipOutcome> {
        self.try_gossip(values, op)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    fn unicast(&mut self, demands: &[(NodeId, NodeId)]) -> OpReport<UnicastOutcome> {
        self.try_unicast(demands).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_aggregate(
        &mut self,
        values: &[u64],
        op: AggOp,
    ) -> Result<OpReport<PartwiseOutcome>, SessionError> {
        check_values(self, values)?;
        aggregate_on(self, values, op, None)
    }

    fn try_aggregate_with_leaders(
        &mut self,
        values: &[u64],
        op: AggOp,
        leaders: &[NodeId],
    ) -> Result<OpReport<PartwiseOutcome>, SessionError> {
        check_values(self, values)?;
        let partition = self.try_partition()?;
        if leaders.len() != partition.num_parts() {
            return Err(SessionError::LeaderCountMismatch {
                got: leaders.len(),
                expected: partition.num_parts(),
            });
        }
        for (i, &l) in leaders.iter().enumerate() {
            if l.index() >= self.graph().num_nodes() {
                return Err(SessionError::NodeOutOfRange {
                    node: l,
                    num_nodes: self.graph().num_nodes(),
                });
            }
            if partition.part_of(l) != Some(PartId(i as u32)) {
                return Err(SessionError::LeaderNotInPart { leader: l, part: i });
            }
        }
        aggregate_on(self, values, op, Some(leaders))
    }

    /// The aggregate of the same operator with any leaders, so a rooted
    /// forest serves it with `Up` / `Down` alone and keeps its roots.
    fn try_gossip(
        &mut self,
        values: &[u64],
        op: IdempotentOp,
    ) -> Result<OpReport<GossipOutcome>, SessionError> {
        check_values(self, values)?;
        let report = aggregate_on(self, values, op.into(), None)?;
        let (out, quality) = (report.result, report.quality);
        let result = GossipOutcome {
            converged: out.all_members_informed && !out.metrics.truncated,
            results: out.results,
            metrics: out.metrics.clone(),
            rooted_parts: out.rooted_parts,
        };
        Ok(OpReport::from_metrics(result, &out.metrics, quality))
    }

    /// Holds the unicast body: the membership check needs the very tree
    /// the packets are routed over, so the checked form fetches it once
    /// and the panicking form is this one plus `panic!`.
    fn try_unicast(
        &mut self,
        demands: &[(NodeId, NodeId)],
    ) -> Result<OpReport<UnicastOutcome>, SessionError> {
        let n = self.graph().num_nodes();
        for (i, &(s, t)) in demands.iter().enumerate() {
            for node in [s, t] {
                if node.index() >= n {
                    return Err(SessionError::NodeOutOfRange { node, num_nodes: n });
                }
            }
            if s == t {
                return Err(SessionError::UnicastSelfLoop { packet: i });
            }
        }
        let g = self.graph_handle();
        let sim = self.config().sim;
        // Routing needs only the tree — it must not force a shortcut
        // construction on sessions used purely for unicast serving.
        let tree = self.try_tree()?;
        let mut endpoints = demands.iter().flat_map(|&(s, t)| [s, t]);
        if let Some(node) = endpoints.find(|&v| !tree.contains(v)) {
            return Err(SessionError::NodeOffTree { node });
        }
        let out = UnicastOp { demands }.run_on(&g, tree, sim);
        let metrics = out.metrics.clone();
        Ok(OpReport::from_metrics(out, &metrics, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_core::session::Session;
    use lcs_graph::gen;

    #[test]
    fn try_aggregate_validates_inputs() {
        let g = gen::grid(4, 4);
        let mut s = Session::on(&g)
            .partition(gen::rows_of_grid(4, 4))
            .build()
            .unwrap();
        assert_eq!(
            s.try_aggregate(&[1, 2], AggOp::Sum).unwrap_err(),
            SessionError::ValueCountMismatch {
                got: 2,
                expected: 16
            }
        );
        let values: Vec<u64> = (0..16).collect();
        let ok = s.try_aggregate(&values, AggOp::Max).expect("valid values");
        assert_eq!(ok.result.results[0], Some(3));

        // No partition: typed error instead of the legacy panic.
        let mut bare = Session::on(&g).build().unwrap();
        assert_eq!(
            bare.try_aggregate(&values, AggOp::Sum).unwrap_err(),
            SessionError::NoPartition
        );
        assert_eq!(
            bare.try_gossip(&values, IdempotentOp::Min).unwrap_err(),
            SessionError::NoPartition
        );
    }

    #[test]
    fn try_aggregate_with_leaders_validates_leaders() {
        let g = gen::grid(4, 4);
        let mut s = Session::on(&g)
            .partition(gen::rows_of_grid(4, 4))
            .build()
            .unwrap();
        let values: Vec<u64> = (0..16).collect();
        assert_eq!(
            s.try_aggregate_with_leaders(&values, AggOp::Sum, &[NodeId(0)])
                .unwrap_err(),
            SessionError::LeaderCountMismatch {
                got: 1,
                expected: 4
            }
        );
        // Node 0 lives in part 0, not part 1.
        let bad = [NodeId(0), NodeId(0), NodeId(8), NodeId(12)];
        assert_eq!(
            s.try_aggregate_with_leaders(&values, AggOp::Sum, &bad)
                .unwrap_err(),
            SessionError::LeaderNotInPart {
                leader: NodeId(0),
                part: 1
            }
        );
        let oor = [NodeId(0), NodeId(4), NodeId(8), NodeId(99)];
        assert_eq!(
            s.try_aggregate_with_leaders(&values, AggOp::Sum, &oor)
                .unwrap_err(),
            SessionError::NodeOutOfRange {
                node: NodeId(99),
                num_nodes: 16
            }
        );
        let good = [NodeId(0), NodeId(4), NodeId(8), NodeId(12)];
        let ok = s
            .try_aggregate_with_leaders(&values, AggOp::Sum, &good)
            .expect("row-leading leaders");
        assert!(ok.result.all_members_informed);
    }

    fn rows_session(g: &lcs_graph::Graph) -> ShortcutSession<'_> {
        Session::on(g)
            .partition(gen::rows_of_grid(6, 6))
            .build()
            .unwrap()
    }

    /// A gossip asks for no leaders, so it rides whatever roots the forest
    /// holds: after `try_aggregate_with_leaders` it is warm from those leaders
    /// and leaves them in place — the next aggregate with the same leaders
    /// is warm too, and sends what the gossip sent.
    #[test]
    fn gossip_after_explicit_leaders_keeps_their_roots() {
        let g = gen::grid(6, 6);
        let mut s = rows_session(&g);
        let values: Vec<u64> = (0..36).map(|x| x * 7 % 23).collect();
        let last: Vec<NodeId> = (0..6).map(|r| NodeId(6 * r + 5)).collect();
        let cold = s
            .try_aggregate_with_leaders(&values, AggOp::Sum, &last)
            .unwrap();
        assert_eq!(cold.result.rooted_parts, 0);
        let gossip = s.gossip(&values, IdempotentOp::Max);
        assert_eq!(gossip.result.rooted_parts, 6);
        assert!(gossip.result.converged && !gossip.truncated);
        let expect = crate::centralized_aggregate(s.partition(), &values, AggOp::Max);
        assert_eq!(
            gossip.result.results,
            expect.into_iter().map(Some).collect::<Vec<_>>()
        );
        let again = s
            .try_aggregate_with_leaders(&values, AggOp::Sum, &last)
            .unwrap();
        assert_eq!(again.result.rooted_parts, 6);
        assert_eq!(again.result.results, cold.result.results);
        assert_eq!(gossip.messages, again.messages);
    }

    /// On a fresh session the gossip finds no tree: it runs the echo from
    /// each part's minimum member and roots the forest there, so the
    /// aggregate after it is warm in every part.
    #[test]
    fn gossip_on_a_fresh_session_roots_the_forest() {
        let g = gen::grid(6, 6);
        let mut s = rows_session(&g);
        let values: Vec<u64> = (0..36).collect();
        let gossip = s.gossip(&values, IdempotentOp::Min);
        assert_eq!(gossip.result.rooted_parts, 0);
        assert!(gossip.result.converged);
        let expect: Vec<Option<u64>> = (0..6).map(|r| Some(6 * r)).collect();
        assert_eq!(gossip.result.results, expect);
        let warm = s.aggregate(&values, AggOp::Sum);
        assert_eq!(warm.result.rooted_parts, 6);
        assert!(warm.messages < gossip.messages);
    }

    #[test]
    fn try_unicast_validates_demands() {
        let g = gen::grid(4, 4);
        let mut s = Session::on(&g).build().unwrap();
        assert_eq!(
            s.try_unicast(&[(NodeId(0), NodeId(99))]).unwrap_err(),
            SessionError::NodeOutOfRange {
                node: NodeId(99),
                num_nodes: 16
            }
        );
        assert_eq!(
            s.try_unicast(&[(NodeId(0), NodeId(5)), (NodeId(3), NodeId(3))])
                .unwrap_err(),
            SessionError::UnicastSelfLoop { packet: 1 }
        );
        let ok = s
            .try_unicast(&[(NodeId(0), NodeId(15))])
            .expect("valid demand");
        assert_eq!(ok.result.delivered, 1);
    }

    /// The text `op` panics with.
    fn panic_text(op: impl FnOnce()) -> String {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(op));
        *panic.unwrap_err().downcast::<String>().expect("a message")
    }

    /// The panicking part-wise forms validate like their `try_` forms and
    /// panic with the typed error's text — not with an assert inside the
    /// protocol or an index out of bounds.
    #[test]
    fn panicking_forms_panic_with_the_typed_error() {
        let g = gen::grid(4, 4);
        let mut s = Session::on(&g)
            .partition(gen::rows_of_grid(4, 4))
            .build()
            .unwrap();
        let short = [1, 2];
        let err = s.try_aggregate(&short, AggOp::Sum).unwrap_err();
        let expected = SessionError::ValueCountMismatch {
            got: 2,
            expected: 16,
        };
        assert_eq!(err, expected);
        let text = panic_text(|| drop(s.aggregate(&short, AggOp::Sum)));
        assert_eq!(text, err.to_string());

        let err = s.try_gossip(&short, IdempotentOp::Min).unwrap_err();
        assert_eq!(err, expected);
        let text = panic_text(|| drop(s.gossip(&short, IdempotentOp::Min)));
        assert_eq!(text, err.to_string());

        let values: Vec<u64> = (0..16).collect();
        let oor = [NodeId(0), NodeId(4), NodeId(8), NodeId(99)];
        let err = s
            .try_aggregate_with_leaders(&values, AggOp::Sum, &oor)
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::NodeOutOfRange {
                node: NodeId(99),
                num_nodes: 16
            }
        );
    }

    /// Unicast packets travel tree paths: an endpoint in another component
    /// than the root is a typed refusal, not the router's assert — and the
    /// panicking form panics with that error's text.
    #[test]
    fn try_unicast_refuses_endpoints_off_the_tree() {
        use lcs_graph::Graph;
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]);
        let mut s = Session::on(&g).build().unwrap();
        for (demand, node) in [
            ((NodeId(0), NodeId(4)), NodeId(4)),
            ((NodeId(3), NodeId(5)), NodeId(3)),
        ] {
            let err = s.try_unicast(&[demand]).unwrap_err();
            assert_eq!(err, SessionError::NodeOffTree { node });
            let text = panic_text(|| drop(s.unicast(&[demand])));
            assert_eq!(text, err.to_string());
        }
        let ok = s.try_unicast(&[(NodeId(0), NodeId(2))]).expect("same side");
        assert_eq!(ok.result.delivered, 1);
    }

    /// The `churn_answer` instance (`road_like` 200², 400 Voronoi parts, 32
    /// boundary nodes toggling between two parts for 20 ticks of
    /// `reassign_parts`, `prepare` and an aggregate) at the default lane
    /// count — several lanes on a multi-core host, whose heavy rounds start
    /// worker threads — is the one-lane run bit for bit: every aggregate's
    /// results and counts, and the forest it leaves behind. Release only
    /// (`cargo test --release -- --ignored scale_`).
    #[test]
    #[ignore = "release-mode scale test"]
    fn scale_churn_on_the_default_lanes_is_the_one_lane_run() {
        use lcs_congest::{splitmix, SimConfig, Simulator};
        use lcs_core::session::SessionConfig;

        let g = gen::road_like(200, 200, 7);
        let parts = gen::voronoi_parts_seeded(&g, 400, splitmix(7, 0x5eed));
        let n = g.num_nodes() as u64;
        let values: Vec<u64> = (0..n).map(|v| splitmix(v, 11) % 1_000_000).collect();
        let run = |threads| {
            let config = SessionConfig {
                sim: SimConfig {
                    threads,
                    ..SimConfig::default()
                },
                ..SessionConfig::default()
            };
            let mut session = Session::on(&g)
                .partition(parts.clone())
                .config(config)
                .build()
                .unwrap();
            let mut seen = Vec::new();
            let mut aggregate = |session: &mut ShortcutSession<'_>| {
                let out = session.aggregate(&values, AggOp::Sum);
                assert!(out.result.all_members_informed && !out.truncated);
                let forest = SessionTables::of_session(session).forest.clone();
                let counts = out.result.metrics.counts();
                seen.push((out.result.results, counts, forest));
                out.threads
            };
            let lanes = aggregate(&mut session);

            // Movers over pairwise disjoint part pairs; 7919 is prime to
            // n = 40 000, so the scan visits every node, spread out.
            let partition = session.partition().clone();
            let (mut movers, mut used) = (Vec::new(), vec![false; partition.num_parts()]);
            for v in (0..n).map(|i| NodeId((i * 7919 % n) as u32)) {
                let home = partition.part_of(v).expect("voronoi cells cover the graph");
                let away = (g.neighbors(v).filter_map(|nb| partition.part_of(nb.node)))
                    .find(|&p| p != home && !used[p.index()] && !used[home.index()]);
                let Some(away) = away else { continue };
                if partition.reassign(&g, &[(v, away)]).is_ok() {
                    (used[home.index()], used[away.index()]) = (true, true);
                    movers.push((v, home, away));
                }
                if movers.len() == 32 {
                    break;
                }
            }
            assert_eq!(movers.len(), 32);
            for tick in 0..20 {
                let moves: Vec<(NodeId, PartId)> = (movers.iter())
                    .map(|&(v, home, away)| (v, if tick % 2 == 0 { away } else { home }))
                    .collect();
                session.reassign_parts(&moves).unwrap();
                session.prepare();
                aggregate(&mut session);
            }
            (lanes, seen)
        };
        let (one, expected) = run(1);
        let (lanes, got) = run(0);
        assert_eq!(one, 1);
        let default = Simulator::new(&g, SimConfig::default()).effective_threads();
        assert_eq!(lanes, default);
        assert_eq!(got.len(), 21);
        for (tick, (a, b)) in got.iter().zip(&expected).enumerate() {
            assert!(a.0 == b.0, "results of aggregate {tick}");
            assert_eq!(a.1, b.1, "counts of aggregate {tick}");
            assert!(a.2 == b.2, "forest after aggregate {tick}");
        }
    }
}
