//! The part-wise half of the [`ShortcutSession`] operation surface:
//! method-call sugar over [`PartwiseOp`] for aggregation, gossip, and
//! unicast routing.
//!
//! [`PartwiseOp`]: lcs_core::session::PartwiseOp

use crate::{
    AggregateOp, GossipOp, GossipOutcome, IdempotentOp, PartwiseOutcome, UnicastOp, UnicastOutcome,
};
use lcs_congest::protocols::AggOp;
use lcs_core::session::{OpReport, SessionError, ShortcutSession};
use lcs_graph::{NodeId, PartId};

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
/// # Ok::<(), lcs_core::PartitionError>(())
/// ```
pub trait SessionPartwiseOps {
    /// Leader-based part-wise aggregation over the cached shortcut
    /// ([`AggregateOp`] semantics).
    fn aggregate(&mut self, values: &[u64], op: AggOp) -> OpReport<PartwiseOutcome>;

    /// Aggregation with explicit per-part leaders.
    fn aggregate_with_leaders(
        &mut self,
        values: &[u64],
        op: AggOp,
        leaders: &[NodeId],
    ) -> OpReport<PartwiseOutcome>;

    /// Leaderless idempotent aggregation by flooding
    /// ([`GossipOp`] semantics).
    fn gossip(&mut self, values: &[u64], op: IdempotentOp) -> OpReport<GossipOutcome>;

    /// Multi-unicast routing along the cached tree
    /// ([`UnicastOp`] semantics).
    fn unicast(&mut self, demands: &[(NodeId, NodeId)]) -> OpReport<UnicastOutcome>;

    /// [`aggregate`](Self::aggregate) with arguments validated up front: a
    /// missing partition or a value vector whose length differs from the
    /// node count comes back as a [`SessionError`] instead of a panic —
    /// the entry point a serving process maps to structured 4xx responses.
    fn try_aggregate(
        &mut self,
        values: &[u64],
        op: AggOp,
    ) -> Result<OpReport<PartwiseOutcome>, SessionError>;

    /// [`aggregate_with_leaders`](Self::aggregate_with_leaders) with
    /// arguments validated up front (partition presence, value count,
    /// leader count, leader range and membership).
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

    /// [`unicast`](Self::unicast) with demands validated up front (node
    /// range, no self-loops).
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

impl SessionPartwiseOps for ShortcutSession<'_> {
    fn aggregate(&mut self, values: &[u64], op: AggOp) -> OpReport<PartwiseOutcome> {
        self.run(AggregateOp {
            values,
            op,
            leaders: None,
        })
    }

    fn aggregate_with_leaders(
        &mut self,
        values: &[u64],
        op: AggOp,
        leaders: &[NodeId],
    ) -> OpReport<PartwiseOutcome> {
        self.run(AggregateOp {
            values,
            op,
            leaders: Some(leaders),
        })
    }

    fn gossip(&mut self, values: &[u64], op: IdempotentOp) -> OpReport<GossipOutcome> {
        self.run(GossipOp { values, op })
    }

    fn unicast(&mut self, demands: &[(NodeId, NodeId)]) -> OpReport<UnicastOutcome> {
        self.run(UnicastOp { demands })
    }

    fn try_aggregate(
        &mut self,
        values: &[u64],
        op: AggOp,
    ) -> Result<OpReport<PartwiseOutcome>, SessionError> {
        check_values(self, values)?;
        Ok(self.aggregate(values, op))
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
        Ok(self.aggregate_with_leaders(values, op, leaders))
    }

    fn try_gossip(
        &mut self,
        values: &[u64],
        op: IdempotentOp,
    ) -> Result<OpReport<GossipOutcome>, SessionError> {
        check_values(self, values)?;
        Ok(self.gossip(values, op))
    }

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
        Ok(self.unicast(demands))
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
}
