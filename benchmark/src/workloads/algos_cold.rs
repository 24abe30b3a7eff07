//! The paper's corollaries as a user runs them: a fresh session, the MST
//! (Corollary 1.6) and the min-cut approximation (Corollary 1.7).
//!
//! Each op is hundreds of short simulator runs and one shortcut
//! construction per Boruvka phase, so what a run costs to set up matters
//! here as much as what a message costs.
//!
//! How many phases and rounds Boruvka needs depends on the weights by some
//! ten percent, so every op draws fresh weights: the run's median is then
//! over a sample of weightings, not over one lucky or unlucky draw.

use super::{cost_of, rng};
use crate::harness::Harness;
use crate::trace::Cost;
use crate::{ALGOS, CORE, GRAPH};
use lcs_algos::{mst::kruskal, SessionAlgoOps};
use lcs_core::session::Session;
use lcs_graph::gen;
use lcs_graph::weights::EdgeWeights;

pub fn run(h: &mut Harness) {
    let side = if h.cfg.smoke { 16 } else { 64 };
    let seed = h.cfg.seed;

    loop {
        let last_setup = h.begin_setup();
        let s = h.tr.begin(GRAPH, "gen");
        let g = gen::road_like(side, side, seed);
        h.tr.end(s, Cost::default());
        h.end_setup();
        if !last_setup {
            continue;
        }

        let mut first_cut = None;
        // Phases of the first recorded op, whose spans the exact per-layer
        // counts come from.
        let mut mst_phases = None;
        let mut weight_stream = rng(seed, 0x3e1);
        while h.more_ops() {
            let weights = EdgeWeights::random(&g, 1000, &mut weight_stream);
            let reference_weight = weights.total(kruskal(&g, &weights));
            let root = h.begin_op("cycle");
            let s = h.tr.begin(CORE, "session_build");
            let mut session = Session::on(&g).build().expect("no partition to reject");
            h.tr.end(s, Cost::default());
            let s = h.tr.begin(ALGOS, "mst");
            let mst = session.mst(&weights);
            h.tr.end(s, cost_of(&mst));
            let s = h.tr.begin(ALGOS, "mincut");
            let cut = session.mincut();
            h.tr.end(s, cost_of(&cut));
            h.end_op(root);

            if h.tr.recording() {
                mst_phases.get_or_insert(mst.result.phases);
            }
            let ok = mst.result.total_weight == reference_weight
                && mst.result.edges.len() + 1 == g.num_nodes()
                && cut.result.estimate >= 1
                && cut.result.estimate == *first_cut.get_or_insert(cut.result.estimate);
            h.verdict(ok);
        }

        if h.cfg.trace {
            h.set_span_ms("graph.gen_ms", "gen");
            h.set_span_ms("core.session_build_ms", "session_build");
            h.set_call_metrics("algos.mst", "mst");
            h.set("algos.mst_phases", mst_phases.unwrap_or(0) as f64);
            h.set_span_ms("algos.mincut_ms", "mincut");
            let cut = h.span_cost("mincut");
            h.set("algos.mincut_rounds", cut.rounds as f64);
            h.set("algos.mincut_messages", cut.messages as f64);
        }
        return;
    }
}
