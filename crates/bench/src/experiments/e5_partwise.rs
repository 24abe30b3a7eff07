//! E5 — Lemma 2.8 / Section 2: part-wise aggregation rounds versus the
//! `O(c + d·log n)` random-delays bound.
//!
//! For each instance we solve part-wise aggregation over `G[P_i] + H_i` and
//! report measured rounds next to the shortcut's measured congestion `c` and
//! dilation `d`; the ratio `rounds / (c + d·log₂ n)` should be a small
//! constant.

use crate::experiments::family_zoo;
use crate::table::{f2, Table};
use lcs_congest::protocols::AggOp;
use lcs_core::session::SessionConfig;
use lcs_core::{full_shortcut, measure_quality};
use lcs_graph::{bfs, gen, NodeId};
use lcs_partwise::{AggregateOp, UnicastOp};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Runs E5 and renders both tables (aggregation + multiple unicasts).
pub fn run(fast: bool) -> String {
    let mut out = aggregation_table(fast);
    out.push('\n');
    out.push_str(&unicast_table(fast));
    out
}

fn aggregation_table(fast: bool) -> String {
    let mut t = Table::new(
        "E5a (Lemma 2.8): part-wise aggregation rounds vs c + d·log₂n",
        &[
            "family",
            "n",
            "k",
            "c",
            "d",
            "rounds",
            "c+d·log₂n",
            "ratio",
            "correct",
        ],
    );
    let config = SessionConfig::default();
    for inst in family_zoo(fast) {
        let built = full_shortcut(&inst.graph, &inst.tree, &inst.partition, &config.shortcut);
        let q = measure_quality(&inst.graph, &inst.partition, &inst.tree, &built.shortcut);
        let values: Vec<u64> = (0..inst.graph.num_nodes() as u64)
            .map(|x| (x * 131) % 997)
            .collect();
        let out = AggregateOp {
            values: &values,
            op: AggOp::Min,
            leaders: None,
        }
        .run_on(
            &inst.graph,
            &inst.partition,
            &built.shortcut,
            &config.aggregate,
            config.sim,
        );
        let expect = lcs_partwise::centralized_aggregate(&inst.partition, &values, AggOp::Min);
        let got: Vec<u64> = out.results.iter().map(|r| r.unwrap_or(u64::MAX)).collect();
        let correct = got == expect && out.all_members_informed;
        let c = q.max_congestion;
        let d = q.max_dilation_upper;
        let budget = f64::from(c) + f64::from(d) * (inst.graph.num_nodes() as f64).log2().max(1.0);
        t.row(vec![
            inst.name.into(),
            inst.graph.num_nodes().to_string(),
            inst.partition.num_parts().to_string(),
            c.to_string(),
            d.to_string(),
            out.metrics.rounds.to_string(),
            f2(budget),
            f2(out.metrics.rounds as f64 / budget),
            if correct { "yes".into() } else { "NO".into() },
        ]);
    }
    t.render()
}

/// Multiple unicasts (the paper's other §1.2 primitive): measured delivery
/// rounds against the LMR `O(c + d)` target.
fn unicast_table(fast: bool) -> String {
    let mut t = Table::new(
        "E5b (LMR scheduling): multiple unicasts along tree paths, rounds vs c + d",
        &[
            "graph",
            "packets",
            "c",
            "d",
            "rounds",
            "rounds/(c+d)",
            "delivered",
        ],
    );
    let config = SessionConfig::default();
    let sides: &[usize] = if fast { &[8] } else { &[8, 16, 24] };
    for &s in sides {
        let g = gen::grid(s, s);
        let tree = bfs::bfs_tree(&g, NodeId(0));
        for &k in if fast {
            &[8usize, 32][..]
        } else {
            &[8usize, 32, 128][..]
        } {
            let mut rng = SmallRng::seed_from_u64(500 + k as u64);
            let mut nodes: Vec<NodeId> = g.nodes().collect();
            nodes.shuffle(&mut rng);
            let pairs: Vec<(NodeId, NodeId)> = (0..k.min(nodes.len() / 2))
                .map(|i| (nodes[2 * i], nodes[2 * i + 1]))
                .collect();
            let out = UnicastOp { demands: &pairs }.run_on(&g, &tree, &config.unicast, config.sim);
            let budget = u64::from(out.congestion + out.dilation).max(1);
            t.row(vec![
                format!("grid {s}x{s}"),
                pairs.len().to_string(),
                out.congestion.to_string(),
                out.dilation.to_string(),
                out.metrics.rounds.to_string(),
                f2(out.metrics.rounds as f64 / budget as f64),
                format!("{}/{}", out.delivered, pairs.len()),
            ]);
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn aggregation_is_always_correct() {
        let out = super::run(true);
        assert!(!out.contains("NO"));
    }
}
