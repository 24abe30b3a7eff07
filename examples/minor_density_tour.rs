//! A tour of the minor-density machinery (§1.1 of the paper): certified
//! lower bounds from greedy contraction, degeneracy, exact values for tiny
//! graphs, and the Lemma 1.1 conversions to clique-minor order.
//!
//! Run with: `cargo run --release --example minor_density_tour`

use low_congestion_shortcuts::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let mut rng = SmallRng::seed_from_u64(11);
    let families: Vec<(&str, Graph, Option<f64>)> = vec![
        // (name, graph, analytic δ bound if known)
        ("path 200", gen::path(200), Some(1.0)),
        ("grid 15x15 (planar)", gen::grid(15, 15), Some(3.0)),
        ("torus 12x12 (genus 1)", gen::torus(12, 12), Some(3.0)),
        ("4-tree (tw 4)", gen::ktree(300, 4, &mut rng), Some(4.0)),
        ("path-power-6 (tw 6)", gen::path_power(300, 6), Some(6.0)),
        ("K_12", gen::complete(12), Some(5.5)),
        ("grid-of-K6", gen::grid_of_cliques(4, 4, 6), None),
        (
            "ring+2 matchings",
            gen::ring_with_matchings(128, 2, &mut rng),
            None,
        ),
    ];

    println!(
        "{:<22} {:>6} {:>6} {:>7} {:>8} {:>9} {:>10} {:>9}",
        "family", "n", "m/n", "degen/2", "greedy", "δ bound", "K_r proven", "K_r max"
    );
    for (name, g, analytic) in families {
        let est = minor::greedy_contraction_density(&g, None);
        minor::verify_minor(&g, &est.witness).expect("witness must verify");
        let degen_half = minor::degeneracy(&g) as f64 / 2.0;
        // The certified minor implies K_r minors per Lemma 1.1; an analytic
        // δ upper bound caps the possible clique order.
        let proven = minor::guaranteed_clique_minor_order(est.density);
        let cap = analytic
            .map(|d| minor::max_clique_minor_order(d).to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<22} {:>6} {:>6.2} {:>7.1} {:>8.3} {:>9} {:>10} {:>9}",
            name,
            g.num_nodes(),
            g.density(),
            degen_half,
            est.density,
            analytic.map(|d| format!("<= {d}")).unwrap_or("-".into()),
            proven,
            cap,
        );
        if let Some(d) = analytic {
            assert!(
                est.density <= d + 1e-9,
                "certified lower bound exceeded the analytic δ"
            );
        }
    }

    // Exact values on tiny graphs validate the heuristics.
    println!("\nexact δ on tiny graphs (brute force over branch sets):");
    for (name, g) in [
        ("K_5", gen::complete(5)),
        ("C_7", gen::cycle(7)),
        ("W_8 (wheel)", gen::wheel(8)),
        ("2x4 grid", gen::grid(2, 4)),
    ] {
        let exact = minor::exact_minor_density_small(&g);
        let greedy = minor::greedy_contraction_density(&g, None).density;
        println!("  {name:<12} exact = {exact:.3}   greedy = {greedy:.3}");
        assert!(greedy <= exact + 1e-9);
    }

    // Low minor density is what the shortcut framework exploits: a
    // `ShortcutSession` on a sparse family serves the corollary algorithms
    // (components, min-cut) from one prepared topology.
    println!("\nserving the corollaries on sparse families via ShortcutSession:");
    for (name, g) in [
        ("grid 6x6", gen::grid(6, 6)),
        ("torus 5x5", gen::torus(5, 5)),
    ] {
        let mut session = Session::on(&g).build().expect("no partition needed");
        let comps = session.try_components().expect("the flood is not capped");
        let cut = session.mincut();
        let exact = low_congestion_shortcuts::algos::mincut::stoer_wagner(&g);
        assert_eq!(
            cut.result.estimate, exact,
            "{name}: small cuts found exactly"
        );
        println!(
            "  {name:<10} components = {}, mincut = {} (exact {exact}), \
             {} simulated rounds total",
            comps.result.count,
            cut.result.estimate,
            comps.rounds + cut.rounds
        );
    }
}
