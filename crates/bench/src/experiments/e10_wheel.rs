//! E10 — the Section 2 wheel example: diameter 2, one rim part of induced
//! diameter Θ(n). Aggregation without shortcuts needs Θ(n) rounds; with the
//! constructed shortcut it is O(1).

use crate::table::{f2, Table};
use lcs_congest::protocols::AggOp;
use lcs_core::session::SessionConfig;
use lcs_core::{baseline, full_shortcut, measure_quality, Partition};
use lcs_graph::{bfs, gen, NodeId};
use lcs_partwise::AggregateOp;

/// Runs E10 and renders the table.
pub fn run(fast: bool) -> String {
    let mut t = Table::new(
        "E10 (Section 2 wheel): aggregation rounds, rim part, with vs without shortcuts",
        &[
            "n",
            "rim diam",
            "shortcut dil",
            "rounds none",
            "rounds shortcut",
            "speedup",
        ],
    );
    let exps: &[usize] = if fast { &[5, 7] } else { &[5, 6, 7, 8, 9, 10] };
    let config = SessionConfig::default();
    for &e in exps {
        let n = 1usize << e;
        let g = gen::wheel(n);
        let rim: Vec<NodeId> = (1..n as u32).map(NodeId).collect();
        let partition = Partition::from_parts(&g, vec![rim]).expect("rim is connected");
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let built = full_shortcut(&g, &tree, &partition, &config.shortcut);
        let q = measure_quality(&g, &partition, &tree, &built.shortcut);
        let values: Vec<u64> = (0..n as u64).collect();
        let op = AggregateOp {
            values: &values,
            op: AggOp::Max,
            leaders: None,
        };
        let (opts, sim) = (&config.aggregate, config.sim);
        let with = op.run_on(&g, &partition, &built.shortcut, opts, sim);
        let without = op.run_on(
            &g,
            &partition,
            &baseline::no_shortcut(&partition),
            opts,
            sim,
        );
        assert_eq!(with.results, without.results, "results must agree");
        t.row(vec![
            n.to_string(),
            ((n - 1) / 2).to_string(),
            q.max_dilation_upper.to_string(),
            without.metrics.rounds.to_string(),
            with.metrics.rounds.to_string(),
            f2(without.metrics.rounds as f64 / with.metrics.rounds.max(1) as f64),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn shortcut_wins_big() {
        let out = super::run(true);
        assert!(out.contains("E10"));
    }
}
