//! Theorem 1.5 end to end: one `ShortcutSession` per backend — the
//! centralized Theorem 1.2 construction, the distributed exact-streaming
//! protocol, and the randomized KMV-sketch detection — all serving the same
//! partition from one call site. Then the same distributed construction
//! without a session (`distributed_bfs` + `construct`), and a
//! re-customization paid for on the session's backend.
//!
//! Run with: `cargo run --release --example distributed_construction`

use low_congestion_shortcuts::congest::SimConfig;
use low_congestion_shortcuts::core::construct;
use low_congestion_shortcuts::core::dist::{distributed_bfs, DistConfig, DistMode};
use low_congestion_shortcuts::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let side = 20;
    let g = gen::grid(side, side);
    let mut rng = SmallRng::seed_from_u64(99);
    let parts = gen::random_connected_parts(&g, side * side / 4, &mut rng);
    let partition = Partition::from_parts(&g, parts.clone()).expect("Voronoi parts are valid");

    let backends = [
        ("centralized", Backend::Centralized),
        ("exact", Backend::Distributed(SimConfig::default())),
        (
            "sketch t=16",
            Backend::Sketch(DistConfig {
                mode: DistMode::Sketch {
                    t: 16,
                    hash_seed: 0xfeed,
                    cut_factor: 1.0,
                },
                sim: SimConfig::default(),
            }),
        ),
    ];

    println!(
        "{:<14} {:>8} {:>10} {:>10} {:>5} {:>10} {:>8}",
        "backend", "rounds", "messages", "bits", "δ̂", "congestion", "blocks"
    );
    let mut exact = None;
    for (name, backend) in backends {
        let mut session = Session::on(&g)
            .tree(TreeSource::Bfs(NodeId(0)))
            .partition(parts.clone())
            .backend(backend)
            .build()
            .expect("Voronoi parts are valid");
        let delta_hat = session.delta_hat();
        let stats = session.construction_stats();
        let q = session.quality().clone();
        assert!(q.tree_restricted && q.all_connected());
        println!(
            "{:<14} {:>8} {:>10} {:>10} {:>5} {:>10} {:>8}",
            name,
            stats.rounds,
            stats.messages,
            stats.bits,
            delta_hat,
            q.max_congestion,
            q.max_blocks
        );
        assert_eq!(session.cache_stats().full.builds, 1);
        if name == "exact" {
            exact = Some(session);
        }
    }

    // The backend is an argument: the same routine, fed the protocol's cut
    // sets over the simulated tree, is what the exact session ran.
    let mut exact = exact.expect("the exact backend is in the table");
    let dist = DistConfig::default();
    let (tree, flood) = distributed_bfs(&g, NodeId(0), dist.sim).expect("default round cap");
    let all: Vec<PartId> = partition.part_ids().collect();
    let built = construct(
        &g,
        &tree,
        &partition,
        &all,
        1,
        &ShortcutConfig::default(),
        Some(&dist),
    )
    .expect("default round cap");
    let stats = exact.construction_stats();
    let served = exact.try_full_artifact().expect("default round cap");
    assert_eq!(built.shortcut, served.shortcut);
    assert_eq!(flood.rounds + built.cost.rounds, stats.rounds);
    println!(
        "\nexplicit: flood {} + sweeps {} = {} rounds",
        flood.rounds, built.cost.rounds, stats.rounds
    );

    // Moving a boundary node re-sweeps the two touched parts on that same
    // backend: no rebuild, and the detection rounds are charged.
    let (node, to) = (0..g.num_nodes() as u32)
        .map(NodeId)
        .flat_map(|v| g.neighbors(v).map(move |nb| (v, nb.node)))
        .filter_map(|(v, w)| Some((v, partition.part_of(w)?)))
        .find(|&(v, to)| {
            exact
                .reassign_parts(&[(v, to)])
                .is_ok_and(|t| !t.is_empty())
        })
        .expect("some boundary node can move");
    let patched = exact.construction_stats();
    assert_eq!(exact.cache_stats().full.builds, 1);
    println!(
        "moved {node:?} into {to:?}: +{} rounds, +{} messages, 0 rebuilds",
        patched.rounds - stats.rounds,
        patched.messages - stats.messages
    );

    println!("\nall three backends satisfy the Theorem 3.1 bounds;");
    println!(
        "the exact backend's construction equals the centralized one (zero simulated cost there);"
    );
    println!("the sketch backend trades exactness for O(t) messages per edge.");
}
