//! E7 — Corollary 1.7: distributed min-cut by greedy tree packing +
//! 1-respecting cuts vs exact Stoer–Wagner.
//!
//! In the corollary's regime the min cut is small (`λ <= 2δ`); the
//! approximation typically finds it exactly. Every estimate is a realized
//! cut (an upper bound on λ).
//!
//! The first packed tree is the BFS tree the shortcuts are built on; each
//! packed tree is evaluated by one convergecast along it, `n − 1` messages
//! in its depth's rounds (both claimed on every row). The wheel shows the cost of deep packed trees:
//! its first tree has depth 1, its later ones are rim paths.

use crate::experiments::rng;
use crate::{f2, Relation::*, Report};
use lcs_algos::mincut::{
    approx_mincut_distributed, exact_mincut_via_packing, greedy_packing, stoer_wagner,
};
use lcs_congest::SimConfig;
use lcs_core::{construct, Partition, ShortcutConfig};
use lcs_graph::{bfs, gen, Graph, NodeId, PartId};

const UPPER_BOUND: &str = "Cor 1.7 1-respecting estimate ≥ λ";
const EXACT: &str = "Cor 1.7 2-respecting cut = λ";
const EVALUATION: &str = "Cor 1.7 evaluation = trees·(n − 1) messages";
const EVAL_ROUNDS: &str = "Cor 1.7 evaluation rounds = Σ depth(packed trees)";
const CLOCK: &str = "Cor 1.7 construction rounds ≤ their phase clocks'";

/// Runs E7.
pub fn run() -> Report {
    let mut out = Report::default();
    out.table(
        "E7 (Corollary 1.7): min-cut — tree packing + 1-respecting vs Stoer-Wagner",
        "graph, n, m, λ exact, 1-respect, 2-respect, ratio, trees, construction rounds, clock, \
         mwoe up, mwoe down, eval rounds, max packed depth, sound",
    );
    // The three random graphs draw from one stream, in this order.
    let mut rng = rng(77);
    let ktree = gen::ktree(60, 3, &mut rng);
    let chords = gen::grid_plus_random_edges(8, 8, 8, &mut rng);
    let cases: [(&str, Graph); 8] = [
        ("cycle 32", gen::cycle(32)),
        ("grid 8x8", gen::grid(8, 8)),
        ("torus 6x6", gen::torus(6, 6)),
        ("3-tree 60", ktree),
        ("grid 12x12", gen::grid(12, 12)),
        ("grid+8 chords", chords),
        ("gnm 80/200", gen::gnm_connected(80, 200, &mut rng)),
        ("wheel 256", gen::wheel(256)),
    ];
    let cfg = ShortcutConfig::default();
    for (name, g) in cases {
        let exact = stoer_wagner(&g);
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let sweep = |p: &Partition, parts: &[PartId]| construct(&g, &tree, p, parts, 1, &cfg, None);
        let rep = approx_mincut_distributed(&g, &tree, sweep, SimConfig::default());
        let (one, trees) = (rep.estimate, rep.trees);
        let two = exact_mincut_via_packing(&g, &tree, trees.max(3));
        let (n, m, rounds) = (g.num_nodes(), g.num_edges(), rep.rounds.total());
        let eval = (trees * (n - 1)) as f64;
        out.claim(name, UPPER_BOUND, one as f64, AtLeast, exact as f64);
        out.claim(name, EXACT, two as f64, Exactly, exact as f64);
        let clock = rep.clock_rounds.total();
        out.claim(name, CLOCK, rounds as f64, AtMost, clock as f64);
        out.claim(name, EVALUATION, rep.eval_messages as f64, Exactly, eval);
        // The packed trees are the centralized greedy packing's (pinned by
        // `mincut::tests::distributed_packing_is_the_greedy_packing`), and
        // each is evaluated by a convergecast along it, in its depth's rounds.
        let depths: Vec<u32> = (greedy_packing(&g, &tree, trees).iter())
            .map(|t| t.depth_of_tree())
            .collect();
        let eval_rounds = depths.iter().sum::<u32>() as f64;
        out.claim(
            name,
            EVAL_ROUNDS,
            rep.eval_rounds as f64,
            Exactly,
            eval_rounds,
        );
        let sound = out.cell(name);
        let ratio = f2(one as f64 / exact.max(1) as f64);
        let depth = depths.iter().max().copied().unwrap_or(0);
        out.row(&[
            &name,
            &n,
            &m,
            &exact,
            &one,
            &two,
            &ratio,
            &trees,
            &rounds,
            &clock,
            &(rep.message_split.aggregation - rep.mwoe_downs),
            &rep.mwoe_downs,
            &rep.eval_rounds,
            &depth,
            &sound,
        ]);
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn estimates_are_upper_bounds() {
        crate::experiments::assert_claims_hold(super::run());
    }
}
