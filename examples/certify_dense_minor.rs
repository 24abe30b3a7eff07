//! The certifying side of Theorem 3.1: on an instance where the sweep fails
//! (Case II), extract a dense-minor witness that *proves* the graph has
//! minor density above the guess, and verify it. The per-`δ̂` sweeps run
//! over a `ShortcutSession`'s tree and partition.
//!
//! Run with: `cargo run --release --example certify_dense_minor`

use low_congestion_shortcuts::prelude::*;

fn main() {
    // The comb: depth-2 BFS tree, 28 chain parts crossing 12 subtrees —
    // every root edge overcongests at δ̂ = 1 and every part has B-degree 12.
    let comb = gen::comb(12, 28);
    let mut session = Session::on(&comb.graph)
        .tree(TreeSource::Bfs(NodeId(0)))
        .partition(comb.parts.clone())
        .build()
        .expect("comb chains are disjoint connected parts");
    let k = session.partition().num_parts();

    let tree = session.tree().clone();
    let config = ShortcutConfig::default();
    let all: Vec<PartId> = session.partition().part_ids().collect();
    for delta_hat in [1u32, 2] {
        let (g, partition) = (session.graph(), session.partition());
        let (sweep, _) =
            partial_shortcut_or_witness(g, &tree, partition, &all, delta_hat, &config, None)
                .expect("a central sweep runs no simulated phase");
        let data = &sweep.data;
        if sweep.case_one() {
            println!(
                "δ̂ = {delta_hat}: Case (I) — {} of {k} parts served, {} overcongested edges",
                sweep.served.len(),
                data.over_edges.len()
            );
        } else {
            let w = sweep
                .witness
                .expect("derandomized extraction always succeeds here");
            minor::verify_minor(&comb.graph, &w).expect("witness must verify");
            println!(
                "δ̂ = {delta_hat}: Case (II) — {} overcongested edges; certified minor \
                 with {} branch sets, {} edges, density {:.3} > {delta_hat}",
                data.over_edges.len(),
                w.num_nodes(),
                w.num_edges(),
                w.density()
            );
            assert!(w.density() > f64::from(delta_hat));
        }
    }

    // The full construction's doubling search collects the densest
    // certificate as a by-product (the remark after Theorem 3.1).
    let full = session.try_full_artifact().expect("the comb is connected");
    let full_witness =
        (full.witness.clone()).expect("the comb's failed δ̂ = 1 round yields a witness");
    println!(
        "full construction: δ̂ = {}, by-product certificate density {:.3}",
        session.delta_hat(),
        full_witness.density()
    );

    // The heuristic lower bound agrees that the comb is dense.
    let est = minor::greedy_contraction_density(&comb.graph, None);
    println!(
        "greedy contraction lower bound on δ(G): {:.3} (witness verifies: {})",
        est.density,
        minor::verify_minor(&comb.graph, &est.witness).is_ok()
    );
}
