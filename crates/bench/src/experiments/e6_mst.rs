//! E6 — Corollary 1.6: distributed MST round complexity by shortcut
//! provider.
//!
//! The wheel family (diameter 2, rim fragments of diameter Θ(n)) shows the
//! paper's separation: minor-sweep shortcuts give ~flat rounds in `n`, the
//! `D+√n` baseline grows like `√n`, and no shortcuts grow linearly. On
//! planar grids (compact Voronoi fragments) all providers are comparable —
//! grids are an easy instance. Every run is checked against Kruskal.

use crate::table::Table;
use lcs_algos::mst::{distributed_mst, kruskal, ShortcutProvider};
use lcs_core::session::SessionConfig;
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{gen, Graph, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn run_one(g: &Graph, provider: ShortcutProvider, seed: u64) -> (u64, usize, bool) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let weights = EdgeWeights::random_unique(g, &mut rng);
    let reference = kruskal(g, &weights);
    let config = SessionConfig::default();
    let report = distributed_mst(g, &weights, NodeId(0), provider, &config);
    (
        report.rounds.total(),
        report.phases,
        report.edges == reference,
    )
}

/// Runs E6 and renders the tables.
pub fn run(fast: bool) -> String {
    let mut out = String::new();

    // Wheel sweep: D = 2 fixed, n grows.
    let mut t = Table::new(
        "E6a (Corollary 1.6): MST rounds on wheels (D = 2, rim diameter Θ(n))",
        &["n", "minor-sweep", "baseline D+√n", "no shortcuts", "exact"],
    );
    let wheel_sizes: &[usize] = if fast {
        &[64, 128]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    for &n in wheel_sizes {
        let g = gen::wheel(n);
        let (r_sweep, _, ok1) = run_one(&g, ShortcutProvider::Oracle, 7);
        let (r_base, _, ok2) = run_one(&g, ShortcutProvider::Baseline, 7);
        let (r_none, _, ok3) = run_one(&g, ShortcutProvider::None, 7);
        t.row(vec![
            n.to_string(),
            r_sweep.to_string(),
            r_base.to_string(),
            r_none.to_string(),
            if ok1 && ok2 && ok3 {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    // Grid sweep: all providers comparable (easy instance).
    let mut t = Table::new(
        "E6b: MST rounds on planar grids (compact fragments — an easy case)",
        &[
            "side",
            "n",
            "minor-sweep",
            "baseline D+√n",
            "no shortcuts",
            "exact",
        ],
    );
    let grid_sides: &[usize] = if fast { &[8, 12] } else { &[8, 12, 16, 24] };
    for &s in grid_sides {
        let g = gen::grid(s, s);
        let (r_sweep, _, ok1) = run_one(&g, ShortcutProvider::Oracle, 9);
        let (r_base, _, ok2) = run_one(&g, ShortcutProvider::Baseline, 9);
        let (r_none, _, ok3) = run_one(&g, ShortcutProvider::None, 9);
        t.row(vec![
            s.to_string(),
            g.num_nodes().to_string(),
            r_sweep.to_string(),
            r_base.to_string(),
            r_none.to_string(),
            if ok1 && ok2 && ok3 {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_provider_is_exact() {
        let out = super::run(true);
        assert!(!out.contains("NO"));
    }
}
