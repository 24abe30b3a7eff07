//! E7 — Corollary 1.7: distributed min-cut by greedy tree packing +
//! 1-respecting cuts vs exact Stoer–Wagner.
//!
//! In the corollary's regime the min cut is small (`λ <= 2δ`); the
//! approximation typically finds it exactly. Every estimate is a realized
//! cut (an upper bound on λ).

use crate::table::{f2, Table};
use lcs_algos::mincut::{approx_mincut_distributed, exact_mincut_via_packing, stoer_wagner};
use lcs_algos::mst::ShortcutProvider;
use lcs_core::session::SessionConfig;
use lcs_graph::{gen, Graph, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs E7 and renders the table.
pub fn run(fast: bool) -> String {
    let mut t = Table::new(
        "E7 (Corollary 1.7): min-cut — tree packing + 1-respecting vs Stoer-Wagner",
        &[
            "graph",
            "n",
            "m",
            "λ exact",
            "1-respect",
            "2-respect",
            "ratio",
            "trees",
            "construction rounds",
            "sound",
        ],
    );
    let mut rng = SmallRng::seed_from_u64(77);
    let mut cases: Vec<(String, Graph)> = vec![
        ("cycle 32".into(), gen::cycle(32)),
        ("grid 8x8".into(), gen::grid(8, 8)),
        ("torus 6x6".into(), gen::torus(6, 6)),
        ("3-tree 60".into(), gen::ktree(60, 3, &mut rng)),
    ];
    if !fast {
        cases.push(("grid 12x12".into(), gen::grid(12, 12)));
        cases.push((
            "grid+8 chords".into(),
            gen::grid_plus_random_edges(8, 8, 8, &mut rng),
        ));
        cases.push(("gnm 80/200".into(), gen::gnm_connected(80, 200, &mut rng)));
    }
    for (name, g) in cases {
        let exact = stoer_wagner(&g);
        let rep = approx_mincut_distributed(
            &g,
            NodeId(0),
            ShortcutProvider::Oracle,
            &SessionConfig::default(),
        );
        let two = exact_mincut_via_packing(&g, NodeId(0), rep.trees.max(3));
        let sound = rep.estimate >= exact && two == exact;
        t.row(vec![
            name,
            g.num_nodes().to_string(),
            g.num_edges().to_string(),
            exact.to_string(),
            rep.estimate.to_string(),
            two.to_string(),
            f2(rep.estimate as f64 / exact.max(1) as f64),
            rep.trees.to_string(),
            rep.rounds.total().to_string(),
            if sound { "yes".into() } else { "NO".into() },
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn estimates_are_upper_bounds() {
        let out = super::run(true);
        assert!(!out.contains("NO"));
    }
}
