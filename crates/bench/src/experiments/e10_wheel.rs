//! E10 — the Section 2 wheel example: diameter 2, one rim part of induced
//! diameter Θ(n). Aggregation without shortcuts needs Θ(n) rounds; with the
//! constructed shortcut it is O(1) — fewer rounds at every `n`.

use crate::experiments::instance;
use crate::{f2, Relation::*, Report};
use lcs_congest::protocols::AggOp;
use lcs_core::Shortcut;
use lcs_graph::{gen, NodeId};

/// Runs E10.
pub fn run() -> Report {
    let mut out = Report::default();
    out.table(
        "E10 (Section 2 wheel): aggregation rounds, rim part, with vs without shortcuts",
        "n, rim diam, shortcut dil, rounds none, rounds shortcut, speedup",
    );
    for e in 5..=10 {
        let n = 1usize << e;
        let rim: Vec<NodeId> = (1..n as u32).map(NodeId).collect();
        let inst = instance(format!("wheel {n}"), gen::wheel(n), vec![rim]);
        let (res, q, _) = inst.full_shortcut();
        let values: Vec<u64> = (0..n as u64).collect();
        let with = inst.aggregate(&res.shortcut, &values, AggOp::Max);
        let none = Shortcut::empty(inst.partition.num_parts());
        let without = inst.aggregate(&none, &values, AggOp::Max);
        assert_eq!(with.results, without.results, "results must agree");
        let (with, without) = (with.metrics.rounds, without.metrics.rounds);
        let faster = "§2 wheel rounds without shortcut > rounds with";
        out.claim(&inst.name, faster, without as f64, MoreThan, with as f64);
        let (rim_diam, dil) = ((n - 1) / 2, q.max_dilation_upper);
        let speedup = f2(without as f64 / with.max(1) as f64);
        out.row(&[&n, &rim_diam, &dil, &without, &with, &speedup]);
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn shortcut_wins_big() {
        crate::experiments::assert_claims_hold(super::run());
    }
}
