//! Writes beside reads on one session: mutation-to-first-answer latency.
//!
//! One op is `reassign_parts` (every mover toggles between its two parts)
//! → `prepare()` (incremental re-customization) → `aggregate(Sum)`, which
//! also pays the lazy patching of the op artifacts. Same instance as
//! `partwise_warm`, so the difference between the two aggregates is the
//! cost of the patch.

use super::{aggregate_ok, cost_of, rng, seeded_values, RoadInstance};
use crate::harness::Harness;
use crate::trace::Cost;
use crate::{BENCH, CORE, PARTWISE};
use lcs_congest::protocols::AggOp;
use lcs_core::Partition;
use lcs_graph::{NodeId, PartId};
use lcs_partwise::SessionPartwiseOps;
use rand::seq::SliceRandom;

/// A boundary node that may move between its own part and a neighbouring
/// one with both parts staying connected.
struct Mover {
    node: NodeId,
    home: PartId,
    away: PartId,
}

/// Picks up to `count` movers over pairwise disjoint part pairs by trying
/// each candidate move on the partition.
fn find_movers(inst: &RoadInstance, partition: &Partition, count: usize, seed: u64) -> Vec<Mover> {
    let mut order: Vec<u32> = (0..inst.g.num_nodes() as u32).collect();
    order.shuffle(&mut rng(seed, 0x30fe));
    let mut used = vec![false; partition.num_parts()];
    let mut movers = Vec::with_capacity(count);
    for node in order.into_iter().map(NodeId) {
        if movers.len() == count {
            break;
        }
        let Some(home) = partition.part_of(node) else {
            continue;
        };
        if used[home.index()] {
            continue;
        }
        let away = inst
            .g
            .neighbors(node)
            .filter_map(|nb| partition.part_of(nb.node))
            .find(|&p| p != home && !used[p.index()]);
        let Some(away) = away else { continue };
        if partition.reassign(&inst.g, &[(node, away)]).is_ok() {
            used[home.index()] = true;
            used[away.index()] = true;
            movers.push(Mover { node, home, away });
        }
    }
    movers
}

pub fn run(h: &mut Harness) {
    let (side, parts, want_movers) = if h.cfg.smoke {
        (32, 16, 4)
    } else {
        (200, 400, 32)
    };
    let seed = h.cfg.seed;
    let values = seeded_values(side * side, seed);

    loop {
        let last_setup = h.begin_setup();
        let inst = super::road_instance(h, side, parts);
        let mut session = super::prepared_session(h, &inst);
        let s = h.tr.begin(BENCH, "find_movers");
        let movers = find_movers(&inst, session.partition(), want_movers, seed);
        h.tr.end(s, Cost::default());
        let s = h.tr.begin(PARTWISE, "first_aggregate");
        let first = session.aggregate(&values, AggOp::Sum);
        h.tr.end(s, cost_of(&first));
        h.end_setup();
        if !last_setup {
            continue;
        }
        h.require(
            movers.len() == want_movers,
            "the partition must offer enough disjoint mover pairs",
        );

        let before = *session.cache_stats();
        let mut ticks = 0u64;
        while h.more_ops() {
            let away = ticks.is_multiple_of(2);
            let moves: Vec<(NodeId, PartId)> = movers
                .iter()
                .map(|m| (m.node, if away { m.away } else { m.home }))
                .collect();
            let root = h.begin_op("tick");
            let s = h.tr.begin(CORE, "reassign");
            let touched = session.reassign_parts(&moves);
            h.tr.end(s, Cost::default());
            let s = h.tr.begin(CORE, "reprepare");
            session.prepare();
            h.tr.end(s, Cost::default());
            let s = h.tr.begin(PARTWISE, "aggregate_after_churn");
            let agg = session.aggregate(&values, AggOp::Sum);
            h.tr.end(s, cost_of(&agg));
            h.end_op(root);
            ticks += 1;

            let ok = touched.is_ok_and(|t| t.len() == 2 * movers.len())
                && movers.iter().all(|m| {
                    session.partition().part_of(m.node) == Some(if away { m.away } else { m.home })
                })
                && aggregate_ok(&agg, session.partition(), &values)
                && session.quality().all_connected();
            h.verdict(ok);
        }
        let after = *session.cache_stats();
        h.require(
            after.full.builds == 1,
            "churn must be absorbed without a full rebuild",
        );
        h.require(
            after.recustomizations - before.recustomizations == ticks,
            "every tick must re-customize incrementally",
        );

        if h.cfg.trace {
            // The same aggregate with nothing to patch, on the session the
            // ticks left behind.
            h.begin_probes();
            let mut ok = true;
            for _ in 0..5 {
                let s = h.tr.begin(PARTWISE, "aggregate");
                let agg = session.aggregate(&values, AggOp::Sum);
                h.tr.end(s, cost_of(&agg));
                ok &= aggregate_ok(&agg, session.partition(), &values);
            }
            h.require(
                ok,
                "warm aggregate after the ticks must match the reference",
            );

            super::set_road_setup_metrics(h);
            h.set_span_ms("partwise.first_aggregate_ms", "first_aggregate");
            h.set_span_ms("core.reassign_ms", "reassign");
            h.set_span_ms("core.reprepare_ms", "reprepare");
            let per_tick = |a: u64, b: u64| (a - b) as f64 / ticks as f64;
            h.set(
                "core.recustomized_parts_per_tick",
                per_tick(after.recustomized_parts, before.recustomized_parts),
            );
            h.set(
                "core.op_artifact_patches_per_tick",
                per_tick(after.op_artifact_patches, before.op_artifact_patches),
            );
            h.set("core.full_builds", after.full.builds as f64);
            h.set_span_ms("partwise.aggregate_after_churn_ms", "aggregate_after_churn");
            h.set_call_metrics("partwise.aggregate", "aggregate");
            let patch = h.span_median_ms("aggregate_after_churn") - h.span_median_ms("aggregate");
            h.set("partwise.patch_cost_ms", patch);
        }
        return;
    }
}
