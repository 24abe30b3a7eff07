//! The five workloads and what they share: seeded inputs, the road-like
//! serving instance, and the reference checks.

pub mod algos_cold;
pub mod churn_answer;
pub mod construct_cold;
pub mod partwise_warm;
pub mod serve_mixed;

use crate::harness::Harness;
use crate::trace::Cost;
use crate::{CONGEST, CORE, GRAPH};
use lcs_congest::protocols::BfsTreeProgram;
use lcs_congest::{splitmix, RunMetrics, RunOutcome, SimConfig, SimMode, Simulator};
use lcs_core::session::{Backend, OpReport, Session, ShortcutSession, TreeSource};
use lcs_core::Partition;
use lcs_graph::{bfs, gen, Graph, NodeId, RootedTree};
use lcs_partwise::{GossipOutcome, PartwiseOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub fn run(h: &mut Harness) {
    match h.cfg.workload.as_str() {
        "partwise_warm" => partwise_warm::run(h),
        "construct_cold" => construct_cold::run(h),
        "algos_cold" => algos_cold::run(h),
        "churn_answer" => churn_answer::run(h),
        "serve_mixed" => serve_mixed::run(h),
        other => unreachable!("`{other}` passed argument checking"),
    }
}

/// An independent stream per purpose (`salt`) from the one `--seed`.
pub fn rng(seed: u64, salt: u32) -> SmallRng {
    SmallRng::seed_from_u64(splitmix(seed, salt))
}

pub fn seeded_values(n: usize, seed: u64) -> Vec<u64> {
    let mut r = rng(seed, 0x7a1);
    (0..n).map(|_| r.gen_range(0..1_000_000u64)).collect()
}

pub fn cost_of<T>(report: &OpReport<T>) -> Cost {
    Cost::new(report.rounds, report.messages, report.bits)
}

pub fn quiesced(m: &RunMetrics) -> bool {
    m.terminated && !m.truncated
}

/// The serving instance of `partwise_warm` and `churn_answer`: a seeded
/// road-like graph, its BFS tree and a seeded voronoi partition.
pub struct RoadInstance {
    pub g: Graph,
    pub tree: RootedTree,
    pub parts: Vec<Vec<NodeId>>,
}

pub fn road_instance(h: &mut Harness, side: usize, parts: usize) -> RoadInstance {
    let seed = h.cfg.seed;
    let s = h.tr.begin(GRAPH, "gen");
    let g = gen::road_like(side, side, seed);
    h.tr.end(s, Cost::default());
    let s = h.tr.begin(GRAPH, "voronoi");
    let parts = gen::voronoi_parts_seeded(&g, parts, splitmix(seed, 0x5eed));
    h.tr.end(s, Cost::default());
    let s = h.tr.begin(GRAPH, "bfs_tree");
    let tree = bfs::bfs_tree(&g, NodeId(0));
    h.tr.end(s, Cost::default());
    RoadInstance { g, tree, parts }
}

/// Builds the session over `inst` and prepares its shortcut.
pub fn prepared_session<'g>(h: &mut Harness, inst: &'g RoadInstance) -> ShortcutSession<'g> {
    let s = h.tr.begin(CORE, "session_build");
    let mut session = Session::on(&inst.g)
        .tree(TreeSource::Provided(inst.tree.clone()))
        .partition(inst.parts.clone())
        .backend(Backend::Centralized)
        .build()
        .expect("voronoi cells are connected parts");
    h.tr.end(s, Cost::default());
    let s = h.tr.begin(CORE, "prepare_centralized");
    session.prepare();
    h.tr.end(s, Cost::default());
    session
}

/// Reports what `road_instance` and `prepared_session` recorded.
pub fn set_road_setup_metrics(h: &mut Harness) {
    h.set_span_ms("graph.gen_ms", "gen");
    h.set_span_ms("graph.voronoi_ms", "voronoi");
    h.set_span_ms("graph.bfs_tree_ms", "bfs_tree");
    h.set_span_ms("core.session_build_ms", "session_build");
    h.set_span_ms("core.prepare_centralized_ms", "prepare_centralized");
}

/// Reference for aggregate and gossip: the fold of `values` over each part
/// of the live partition.
pub fn fold_parts(
    partition: &Partition,
    values: &[u64],
    fold: impl Fn(u64, u64) -> u64,
) -> Vec<Option<u64>> {
    partition
        .iter()
        .map(|(_, members)| members.iter().map(|v| values[v.index()]).reduce(&fold))
        .collect()
}

pub fn aggregate_ok(
    report: &OpReport<PartwiseOutcome>,
    partition: &Partition,
    values: &[u64],
) -> bool {
    let out = &report.result;
    out.all_members_informed
        && quiesced(&out.metrics)
        && out.results == fold_parts(partition, values, |a, b| a + b)
}

pub fn gossip_max_ok(
    report: &OpReport<GossipOutcome>,
    partition: &Partition,
    values: &[u64],
) -> bool {
    let out = &report.result;
    out.converged
        && quiesced(&out.metrics)
        && out.results == fold_parts(partition, values, u64::max)
}

/// One raw-engine BFS flood from node 0 — the engine's own cost per
/// simulated message, with no shortcut machinery on top.
pub fn bfs_flood(
    h: &mut Harness,
    g: &Graph,
    name: &'static str,
    mode: SimMode,
    threads: usize,
) -> RunOutcome<BfsTreeProgram> {
    let sim = Simulator::new(
        g,
        SimConfig {
            mode,
            threads,
            ..SimConfig::default()
        },
    );
    let s = h.tr.begin(CONGEST, name);
    let run = sim.run(|v, _| BfsTreeProgram::new(v == NodeId(0)));
    let m = &run.metrics;
    h.tr.end(s, Cost::new(m.rounds, m.messages, m.bits));
    run
}

pub fn flood_ok(run: &RunOutcome<BfsTreeProgram>) -> bool {
    quiesced(&run.metrics) && run.programs.iter().all(|p| p.dist().is_some())
}

/// Reports the strict single-thread flood's metrics; returns its µs per
/// simulated message.
pub fn set_engine_metrics(h: &mut Harness) -> f64 {
    let ms = h.span_median_ms("bfs_strict");
    let cost = h.span_cost("bfs_strict");
    let us_per_msg = ms * 1e3 / cost.messages.max(1) as f64;
    h.set("congest.bfs_strict_ms", ms);
    h.set("congest.bfs_rounds", cost.rounds as f64);
    h.set("congest.bfs_messages", cost.messages as f64);
    h.set("congest.bfs_strict_us_per_msg", us_per_msg);
    us_per_msg
}
