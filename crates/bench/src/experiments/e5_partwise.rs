//! E5 — Lemma 2.8 / Section 2: part-wise aggregation rounds versus the
//! `O(c + d·log n)` random-delays bound.
//!
//! For each instance we solve part-wise aggregation over `G[P_i] + H_i` and
//! report measured rounds next to the shortcut's measured congestion `c` and
//! dilation `d`; the ratio `rounds / (c + d·log₂ n)` is a small constant,
//! pinned below at its observed maximum (1.07; 0.90 for the unicasts) plus
//! headroom. A second run over the spanning trees the first one found
//! (Haeupler–Li–Zuzic's "root once") sends only the convergecast and the
//! broadcast, and only to the slots with a member of their part below
//! them: between `2·(members − k)` and `2·(slots − k)` messages, in no more
//! rounds.
//!
//! The random delays the `O(c + d·log n)` bound schedules with are
//! `run_masked`'s `delay_range` (a session aggregates undelayed); E5c pins
//! what they buy where parts contend — the Lemma 3.2 rows, which share
//! their few vertical paths — and prints the messages they cost.

use crate::experiments::{family_zoo, instance, rng};
use crate::{f2, Relation::*, Report};
use lcs_congest::protocols::AggOp;
use lcs_congest::SimConfig;
use lcs_core::{Partition, Shortcut};
use lcs_graph::{bfs, gen, Graph, NodeId};
use lcs_partwise::{
    centralized_aggregate, AggForest, AggregateOp, ParticipationMap, UnicastOp, Wave,
};
use rand::seq::SliceRandom;

const CORRECT: &str = "Lemma 2.8 every member learns its part's aggregate";
const ROUNDS: &str = "Lemma 2.8 rounds ≤ 1.5·(c + d·log₂n) (pinned)";
const WARM_MEMBERS: &str = "HLZ root once: a second run sends ≥ 2·(members − k)";
const WARM_SLOTS: &str = "HLZ root once: a second run sends ≤ 2·(slots − k)";
const WARM_ROUNDS: &str = "HLZ root once: a second run takes ≤ the cold rounds";
const DELIVERED: &str = "LMR every packet delivered";
const UNICAST_ROUNDS: &str = "LMR rounds ≤ c + d (pinned)";
const DELAYED_CORRECT: &str = "Lemma 2.8 every member learns its sum, with and without delays";
const DELAYED_COLD: &str = "Lemma 2.8 delays in [0, 2c): cold rounds ≤ undelayed / 1.3";
const DELAYED_WARM: &str = "Lemma 2.8 delays in [0, 2c): warm rounds ≤ undelayed / 1.3";

/// `slots − k`, read off Definition 2.1: part `i` has a slot at each member
/// and each endpoint of an `H_i` edge, and one of them is its root.
fn non_root_slots(g: &Graph, partition: &Partition, shortcut: &Shortcut) -> u64 {
    let slots_of = |(pid, members): (_, &[NodeId])| {
        let ends = shortcut.edges_for(pid).iter().map(|&e| g.endpoints(e));
        let mut nodes: Vec<NodeId> = ends.flat_map(|(u, v)| [u, v]).collect();
        nodes.extend_from_slice(members);
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len() as u64 - 1
    };
    partition.iter().map(slots_of).sum()
}

/// Runs E5: the three tables (aggregation, multiple unicasts, random
/// delays).
pub fn run() -> Report {
    let mut out = Report::default();
    aggregation_table(&mut out);
    unicast_table(&mut out);
    delay_table(&mut out);
    out
}

fn aggregation_table(out: &mut Report) {
    out.table(
        "E5a (Lemma 2.8): part-wise aggregation rounds vs c + d·log₂n",
        "family, n, k, c, d, rounds, c+d·log₂n, ratio, correct, warm rounds, warm msgs",
    );
    let sim = SimConfig::default();
    for inst in family_zoo() {
        let (res, q, _) = inst.full_shortcut();
        let (g, partition, shortcut) = (&inst.graph, &inst.partition, &res.shortcut);
        let values: Vec<u64> = (0..inst.n as u64).map(|x| (x * 131) % 997).collect();
        // The first run over a fresh forest is the cold echo of `run_on`;
        // the second starts at the convergecast over the trees it left.
        let map = ParticipationMap::build(g, partition, shortcut);
        let mut forest = AggForest::unrooted(partition, &map);
        let op = AggregateOp {
            values: &values,
            op: AggOp::Min,
            leaders: None,
        };
        let echo = (Wave::Echo, None);
        let mut run = || op.run_masked(g, partition, (0, sim), &map, &mut forest, echo);
        let (agg, warm) = (run(), run());
        let expect = centralized_aggregate(partition, &values, AggOp::Min);
        let got: Vec<u64> = agg.results.iter().map(|r| r.unwrap_or(u64::MAX)).collect();
        let correct = got == expect && agg.all_members_informed && warm.results == agg.results;
        let (c, d, rounds) = (q.max_congestion, q.max_dilation_upper, agg.metrics.rounds);
        let budget = f64::from(c) + f64::from(d) * (inst.n as f64).log2().max(1.0);
        let (name, n, k, ratio) = (&inst.name, inst.n, inst.k, f2(rounds as f64 / budget));
        out.claim(name, CORRECT, correct, Exactly, true);
        let correct = out.cell(name);
        out.claim(name, ROUNDS, rounds as f64, AtMost, 1.5 * budget);
        let (warm_rounds, warm_msgs) = (warm.metrics.rounds, warm.metrics.messages);
        // Up / Down at every non-root member, at most at every non-root slot.
        let members: usize = partition.iter().map(|(_, nodes)| nodes.len()).sum();
        let floor = (2 * (members - partition.num_parts())) as f64;
        let ceiling = (2 * non_root_slots(g, partition, shortcut)) as f64;
        out.claim(name, WARM_MEMBERS, warm_msgs as f64, AtLeast, floor);
        out.claim(name, WARM_SLOTS, warm_msgs as f64, AtMost, ceiling);
        out.claim(name, WARM_ROUNDS, warm_rounds as f64, AtMost, rounds as f64);
        out.row(&[
            name,
            &n,
            &k,
            &c,
            &d,
            &rounds,
            &f2(budget),
            &ratio,
            &correct,
            &warm_rounds,
            &warm_msgs,
        ]);
    }
}

/// The sum aggregate over the Lemma 3.2 rows, cold then warm, with no
/// start delays and with delays uniform in `[0, 2c)` (`c` the measured
/// congestion): the delays must cut both runs' rounds by at least 1.3×.
fn delay_table(out: &mut Report) {
    out.table(
        "E5c (Lemma 2.8 random delays): sum over the Lemma 3.2 rows, delays in [0, range)",
        "instance, n, k, c, range, cold rounds, cold msgs, warm rounds, warm msgs, correct",
    );
    let lb = gen::lower_bound_topology(12, 180);
    let inst = instance("Lemma 3.2 δ'=12 D'=180", lb.graph, lb.rows);
    let (res, q, _) = inst.full_shortcut();
    let (g, partition, shortcut) = (&inst.graph, &inst.partition, &res.shortcut);
    let c = q.max_congestion;
    let sim = SimConfig::default();
    let values: Vec<u64> = (0..inst.n as u64).map(|x| (x * 131) % 997).collect();
    let expect: Vec<Option<u64>> = centralized_aggregate(partition, &values, AggOp::Sum)
        .into_iter()
        .map(Some)
        .collect();
    let op = AggregateOp {
        values: &values,
        op: AggOp::Sum,
        leaders: None,
    };
    let map = ParticipationMap::build(g, partition, shortcut);
    let mut correct = true;
    // Per range: `[cold rounds, cold messages, warm rounds, warm messages]`.
    let ranges = [0, 2 * c];
    let runs = ranges.map(|delay_range| {
        let mut forest = AggForest::unrooted(partition, &map);
        let echo = (Wave::Echo, None);
        let mut run = || op.run_masked(g, partition, (delay_range, sim), &map, &mut forest, echo);
        let (cold, warm) = (run(), run());
        for out in [&cold, &warm] {
            correct &= out.all_members_informed && out.results == expect;
        }
        let (cold, warm) = (cold.metrics, warm.metrics);
        [cold.rounds, cold.messages, warm.rounds, warm.messages]
    });
    let name = &inst.name;
    out.claim(name, DELAYED_CORRECT, correct, Exactly, true);
    let ([cold0, _, warm0, _], [cold, _, warm, _]) = (runs[0], runs[1]);
    out.claim(name, DELAYED_COLD, cold as f64, AtMost, cold0 as f64 / 1.3);
    out.claim(name, DELAYED_WARM, warm as f64, AtMost, warm0 as f64 / 1.3);
    let correct = out.cell(name);
    for (range, [cold_rounds, cold_msgs, warm_rounds, warm_msgs]) in ranges.into_iter().zip(runs) {
        let (n, k) = (inst.n, inst.k);
        out.row(&[
            name,
            &n,
            &k,
            &c,
            &range,
            &cold_rounds,
            &cold_msgs,
            &warm_rounds,
            &warm_msgs,
            &correct,
        ]);
    }
}

/// Multiple unicasts (the paper's other §1.2 primitive): measured delivery
/// rounds against the LMR `O(c + d)` target.
fn unicast_table(out: &mut Report) {
    out.table(
        "E5b (LMR scheduling): multiple unicasts along tree paths, rounds vs c + d",
        "graph, packets, c, d, rounds, rounds/(c+d), delivered",
    );
    let sim = SimConfig::default();
    for s in [8, 16, 24] {
        let (name, g) = (format!("grid {s}x{s}"), gen::grid(s, s));
        let tree = bfs::bfs_tree(&g, NodeId(0));
        // Each packet needs two endpoints of its own: skip the demand
        // counts the grid cannot host.
        for k in [8, 32, 128].into_iter().filter(|k| 2 * k <= g.num_nodes()) {
            let mut nodes: Vec<NodeId> = g.nodes().collect();
            nodes.shuffle(&mut rng(500 + k as u64));
            let pairs: Vec<(NodeId, NodeId)> =
                (0..k).map(|i| (nodes[2 * i], nodes[2 * i + 1])).collect();
            let uni = UnicastOp { demands: &pairs }.run_on(&g, &tree, sim);
            let (c, d, rounds) = (uni.congestion, uni.dilation, uni.metrics.rounds);
            let row = format!("{name} × {k}");
            out.claim(&row, DELIVERED, uni.delivered as f64, Exactly, k as f64);
            out.claim(&row, UNICAST_ROUNDS, rounds as f64, AtMost, c + d);
            let ratio = f2(rounds as f64 / f64::from((c + d).max(1)));
            let delivered = format!("{}/{k}", uni.delivered);
            out.row(&[&name, &k, &c, &d, &rounds, &ratio, &delivered]);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn aggregation_is_always_correct() {
        crate::experiments::assert_claims_hold(super::run());
    }
}
