//! Warm part-wise communication on one prepared session.
//!
//! One op is `aggregate(Sum)` → `gossip(Max)` → `unicast` over seeded
//! demands. The shortcut and the op artifacts are built in set-up, so the
//! op is `lcs_partwise` programs running on `lcs_congest` and nothing else.

use super::{aggregate_ok, cost_of, flood_ok, gossip_max_ok, quiesced, rng, seeded_values};
use crate::harness::Harness;
use crate::PARTWISE;
use lcs_congest::protocols::AggOp;
use lcs_congest::SimMode;
use lcs_graph::NodeId;
use lcs_partwise::{IdempotentOp, SessionPartwiseOps};
use rand::Rng;

pub fn run(h: &mut Harness) {
    let (side, parts, demand_count) = if h.cfg.smoke {
        (32, 16, 32)
    } else {
        (200, 400, 256)
    };
    let n = side * side;
    let values = seeded_values(n, h.cfg.seed);
    let mut r = rng(h.cfg.seed, 0xd3a);
    let demands: Vec<(NodeId, NodeId)> = (0..demand_count)
        .map(|_| {
            let s = r.gen_range(0..n as u32);
            // A distinct target: the session rejects self-loops.
            let t = (s + r.gen_range(1..n as u32)) % n as u32;
            (NodeId(s), NodeId(t))
        })
        .collect();

    loop {
        let last_setup = h.begin_setup();
        let inst = super::road_instance(h, side, parts);
        let mut session = super::prepared_session(h, &inst);
        // The first cycle builds the op artifacts (participation map,
        // routing tables); users pay it once per partition.
        let s = h.tr.begin(PARTWISE, "first_aggregate");
        let first = session.aggregate(&values, AggOp::Sum);
        h.tr.end(s, cost_of(&first));
        session.gossip(&values, IdempotentOp::Max);
        session.unicast(&demands);
        h.end_setup();
        if !last_setup {
            continue;
        }

        while h.more_ops() {
            let root = h.begin_op("cycle");
            let s = h.tr.begin(PARTWISE, "aggregate");
            let agg = session.aggregate(&values, AggOp::Sum);
            h.tr.end(s, cost_of(&agg));
            let s = h.tr.begin(PARTWISE, "gossip");
            let gos = session.gossip(&values, IdempotentOp::Max);
            h.tr.end(s, cost_of(&gos));
            let s = h.tr.begin(PARTWISE, "unicast");
            let uni = session.unicast(&demands);
            h.tr.end(s, cost_of(&uni));
            h.end_op(root);

            let partition = session.partition();
            let ok = aggregate_ok(&agg, partition, &values)
                && gossip_max_ok(&gos, partition, &values)
                && uni.result.delivered == demands.len()
                && quiesced(&uni.result.metrics);
            h.verdict(ok);
        }
        let builds = session.cache_stats().full.builds;
        h.require(builds == 1, "warm ops must not rebuild the shortcut");

        if h.cfg.trace {
            // The raw engine on the same graph: the bar a part-wise
            // message is held against (ROADMAP: at most 3x).
            h.begin_probes();
            let mut ok = true;
            for _ in 0..5 {
                ok &= flood_ok(&super::bfs_flood(
                    h,
                    &inst.g,
                    "bfs_strict",
                    SimMode::Strict,
                    1,
                ));
            }
            h.require(ok, "engine BFS flood must reach every node and quiesce");
            report_layers(h);
        }
        return;
    }
}

fn report_layers(h: &mut Harness) {
    super::set_road_setup_metrics(h);
    h.set_span_ms("partwise.first_aggregate_ms", "first_aggregate");
    let aggregate = h.set_call_metrics("partwise.aggregate", "aggregate");
    h.set_call_metrics("partwise.gossip", "gossip");
    h.set_call_metrics("partwise.unicast", "unicast");
    let engine = super::set_engine_metrics(h);
    h.set("partwise.aggregate_vs_engine", aggregate / engine.max(1e-9));
}
