//! E7 — Corollary 1.7: distributed min-cut by greedy tree packing +
//! 1-respecting cuts vs exact Stoer–Wagner.
//!
//! In the corollary's regime the min cut is small (`λ <= 2δ`); the
//! approximation typically finds it exactly. Every estimate is a realized
//! cut (an upper bound on λ).

use crate::experiments::rng;
use crate::{f2, Relation::*, Report};
use lcs_algos::mincut::{approx_mincut_distributed, exact_mincut_via_packing, stoer_wagner};
use lcs_algos::mst::ShortcutProvider;
use lcs_core::session::SessionConfig;
use lcs_graph::{bfs, gen, Graph, NodeId};

const UPPER_BOUND: &str = "Cor 1.7 1-respecting estimate ≥ λ";
const EXACT: &str = "Cor 1.7 2-respecting cut = λ";

/// Runs E7.
pub fn run() -> Report {
    let mut out = Report::default();
    out.table(
        "E7 (Corollary 1.7): min-cut — tree packing + 1-respecting vs Stoer-Wagner",
        "graph, n, m, λ exact, 1-respect, 2-respect, ratio, trees, construction rounds, sound",
    );
    // The three random graphs draw from one stream, in this order.
    let mut rng = rng(77);
    let ktree = gen::ktree(60, 3, &mut rng);
    let chords = gen::grid_plus_random_edges(8, 8, 8, &mut rng);
    let cases: [(&str, Graph); 7] = [
        ("cycle 32", gen::cycle(32)),
        ("grid 8x8", gen::grid(8, 8)),
        ("torus 6x6", gen::torus(6, 6)),
        ("3-tree 60", ktree),
        ("grid 12x12", gen::grid(12, 12)),
        ("grid+8 chords", chords),
        ("gnm 80/200", gen::gnm_connected(80, 200, &mut rng)),
    ];
    let config = SessionConfig::default();
    for (name, g) in cases {
        let exact = stoer_wagner(&g);
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let rep = approx_mincut_distributed(&g, &tree, ShortcutProvider::Oracle, &config);
        let (one, trees) = (rep.estimate, rep.trees);
        let two = exact_mincut_via_packing(&g, NodeId(0), trees.max(3));
        out.claim(name, UPPER_BOUND, one as f64, AtLeast, exact as f64);
        out.claim(name, EXACT, two as f64, Exactly, exact as f64);
        let sound = out.cell(name);
        let (n, m, rounds) = (g.num_nodes(), g.num_edges(), rep.rounds.total());
        let ratio = f2(one as f64 / exact.max(1) as f64);
        out.row(&[
            &name, &n, &m, &exact, &one, &two, &ratio, &trees, &rounds, &sound,
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
