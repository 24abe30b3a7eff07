//! Distributed MST on a planar network (Corollary 1.6): shortcut-based
//! Boruvka driven by a `ShortcutSession` versus the `D+√n` baseline and the
//! no-shortcut strawman, checked against Kruskal.
//!
//! Run with: `cargo run --release --example mst_planar`

use lcs_graph::weights::EdgeWeights;
use low_congestion_shortcuts::algos::mst::{distributed_mst, kruskal};
use low_congestion_shortcuts::core::{baseline, construct, FullShortcutResult};
use low_congestion_shortcuts::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let side = 24;
    let g = gen::grid(side, side);
    let mut rng = SmallRng::seed_from_u64(2024);
    let weights = EdgeWeights::random_unique(&g, &mut rng);

    let reference = kruskal(&g, &weights);
    let ref_weight = weights.total(reference.iter().copied());
    println!(
        "grid {side}x{side}: n = {}, m = {}, MST weight (Kruskal) = {ref_weight}",
        g.num_nodes(),
        g.num_edges()
    );
    println!(
        "{:<22} {:>8} {:>10} {:>8}",
        "provider", "phases", "rounds", "exact?"
    );

    // The real pipeline: a session whose backend supplies the Boruvka
    // phases with minor-sweep shortcuts (centralized oracle here; switch
    // the backend to Distributed/Sketch for the simulated construction).
    let mut session = Session::on(&g)
        .tree(TreeSource::Bfs(NodeId(0)))
        .backend(Backend::Centralized)
        .build()
        .expect("builder cannot fail without a partition");
    let report = session.mst(&weights);
    assert_eq!(report.result.edges, reference, "session MST must be exact");
    println!(
        "{:<22} {:>8} {:>10} {:>8}",
        "minor-sweep (session)", report.result.phases, report.rounds, "yes"
    );

    // The strawmen are shortcuts no backend builds: the same algorithm,
    // called directly with the session's tree and simulator, asking for
    // the `D+sqrt(n)` baseline or for no shortcut at all (a construction
    // over no part: empty, free, at δ̂ = 1).
    let (tree, sim, cfg) = (
        session.tree().clone(),
        session.config().sim,
        ShortcutConfig::default(),
    );
    let none = |p: &Partition, _: &[PartId]| construct(&g, &tree, p, &[], 1, &cfg, None);
    let base = |p: &Partition, _: &[PartId]| {
        let shortcut = baseline::general_graph_shortcut(&g, &tree, p);
        Ok(FullShortcutResult {
            shortcut,
            ..none(p, &[])?
        })
    };
    let strawmen = [
        (
            "baseline D+sqrt(n)",
            distributed_mst(&g, &weights, &tree, base, sim),
        ),
        (
            "no shortcuts",
            distributed_mst(&g, &weights, &tree, none, sim),
        ),
    ];
    for (name, report) in strawmen {
        assert_eq!(report.edges, reference, "{name} must produce the exact MST");
        println!(
            "{:<22} {:>8} {:>10} {:>8}",
            name,
            report.phases,
            report.rounds.total(),
            "yes"
        );
    }
}
