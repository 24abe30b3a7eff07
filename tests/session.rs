//! The `ShortcutSession` facade: cached-artifact reuse, backend
//! equivalence, mutation correctness, and the unified `SessionConfig`.
//!
//! The serving scenario the facade exists for: prepare one topology, then
//! answer many queries — and now mutate the inputs between queries. These
//! tests pin (a) that repeated operations reuse the cached shortcut
//! (counted builds in `CacheStats`), (b) that `session.aggregate` and the
//! warm `session.gossip` after it match `centralized_aggregate` on the
//! 50-seed × 3-family differential corpus on **all three backends**, (c) the **churn differential**: after every
//! mutation (`reassign_parts`, `set_partition`) each op's result is bit-identical to a fresh-built session on the mutated
//! inputs, and (d) that `SessionConfig` survives serde round trips, with a
//! pinned JSON snapshot of the defaults.

use lcs_graph::minor;
use lcs_graph::weights::EdgeWeights;
use low_congestion_shortcuts::algos::mst::kruskal;
use low_congestion_shortcuts::congest::{SimConfig, SimMode, Simulator};
use low_congestion_shortcuts::core::dist::{DistConfig, DistMode};
use low_congestion_shortcuts::facade::*;
use low_congestion_shortcuts::partwise::{centralized_aggregate, IdempotentOp};
use low_congestion_shortcuts::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

mod common;
use common::{env_packing, env_threads};

fn env_sim() -> SimConfig {
    SimConfig {
        message_packing: env_packing(),
        threads: env_threads(),
        ..SimConfig::default()
    }
}

fn fast_config() -> SessionConfig {
    SessionConfig {
        sim: env_sim(),
        ..SessionConfig::default()
    }
}

/// A run cut short by `SimConfig::max_rounds` must say so in its
/// `OpReport`: with a deliberately tiny cap every part-wise op comes back
/// `truncated` (and partial), with the default cap none does.
#[test]
fn op_reports_flag_runs_cut_short_by_the_round_cap() {
    let g = gen::grid(8, 8);
    let values: Vec<u64> = (0..64).collect();
    let demands = [(NodeId(0), NodeId(63))];
    let session_with = |max_rounds| {
        let config = SessionConfig {
            sim: SimConfig {
                max_rounds,
                ..env_sim()
            },
            ..fast_config()
        };
        Session::on(&g)
            .partition(gen::rows_of_grid(8, 8))
            .backend(Backend::Centralized)
            .config(config)
            .build()
            .unwrap()
    };

    let mut capped = session_with(2);
    let agg = capped.aggregate(&values, AggOp::Sum);
    assert!(agg.truncated && agg.rounds == 2);
    assert!(!agg.result.all_members_informed);
    assert!(capped.gossip(&values, IdempotentOp::Max).truncated);
    let routed = capped.unicast(&demands);
    assert!(routed.truncated && routed.result.delivered == 0);
    // Boruvka stops at its first truncated aggregation.
    let unit = EdgeWeights::unit(&g);
    assert!(
        capped
            .try_mst(&unit)
            .expect("flagged, not refused")
            .truncated
    );
    assert!(capped.try_components().expect("flagged").truncated);
    let cut = capped.try_mincut().expect("flagged");
    assert!(cut.truncated && cut.result.trees == 0);

    let mut free = session_with(SimConfig::default().max_rounds);
    let agg = free.aggregate(&values, AggOp::Sum);
    assert!(!agg.truncated && agg.result.all_members_informed);
    assert!(!free.gossip(&values, IdempotentOp::Max).truncated);
    assert!(!free.unicast(&demands).truncated);
    assert!(!free.mst(&unit).truncated);
    assert!(!free.try_components().expect("connected").truncated);
    assert!(!free.mincut().truncated);
}

/// The same cap under a *construction*: on the simulating backends a
/// phase that cannot finish is a typed error from every entry point that
/// needs the artifact — the BFS flood first, the detection convergecast
/// when a provided tree spares the flood — and nothing is cached. The
/// Boruvka family needs the tree too, but it constructs per phase, so a
/// detection cut short flags its report instead. Boruvka
/// constructs only for fragments above `2D + 1` nodes, which grid 8² never
/// grows, so the flagged half runs on grid 16².
#[test]
fn truncated_constructions_are_typed_errors_on_the_simulating_backends() {
    use low_congestion_shortcuts::core::dist::Truncated;
    let g = gen::grid(8, 8);
    let values: Vec<u64> = (0..64).collect();
    let capped = SimConfig {
        max_rounds: 2,
        ..env_sim()
    };
    let sketch = DistConfig {
        mode: DistMode::Sketch {
            t: 8,
            hash_seed: 0xbeef,
            cut_factor: 1.0,
        },
        sim: capped,
    };
    for backend in [Backend::Distributed(capped), Backend::Sketch(sketch)] {
        for (tree, phase) in [
            (TreeSource::Bfs(NodeId(0)), "bfs"),
            (
                TreeSource::Provided(bfs::bfs_tree(&g, NodeId(0))),
                "detection",
            ),
        ] {
            let mut s = Session::on(&g)
                .tree(tree)
                .partition(gen::rows_of_grid(8, 8))
                .backend(backend.clone())
                .config(fast_config())
                .build()
                .unwrap();
            let expected = SessionError::Truncated(Truncated {
                phase,
                max_rounds: 2,
            });
            assert_eq!(s.try_full_artifact().err(), Some(expected.clone()));
            assert_eq!(s.try_quality().err(), Some(expected.clone()));
            let agg = s.try_aggregate(&values, AggOp::Sum);
            assert_eq!(agg.err(), Some(expected.clone()));
            let gossip = s.try_gossip(&values, IdempotentOp::Max);
            assert_eq!(gossip.err(), Some(expected.clone()));
            let routed = s.try_unicast(&[(NodeId(0), NodeId(63))]);
            // Routing needs the tree alone: a provided one serves it.
            assert_eq!(routed.err(), (phase == "bfs").then_some(expected.clone()));
            let stats = s.cache_stats();
            assert_eq!((stats.full.builds, stats.quality.builds), (0, 0));
            assert_eq!(stats.tree.builds, 0, "{phase}: no tree was stamped");
            // The Boruvka family runs over the session tree: a flood that
            // cannot finish refuses it like every other op.
            if phase == "bfs" {
                let unit = EdgeWeights::unit(&g);
                assert_eq!(s.try_mst(&unit).err(), Some(expected.clone()));
                assert_eq!(s.try_components().err(), Some(expected.clone()));
                assert_eq!(s.try_mincut().err(), Some(expected));
            }
        }
        // Over a provided tree the cap is the backend's: ops run on
        // `config.sim` (uncapped here), and the first Boruvka phase with a
        // fragment above `2D + 1` nodes constructs on the backend, so the
        // report is flagged. The forest found so far is part of the MST.
        let big = gen::grid(16, 16);
        let mut s = Session::on(&big)
            .tree(TreeSource::Provided(bfs::bfs_tree(&big, NodeId(0))))
            .partition(gen::rows_of_grid(16, 16))
            .backend(backend)
            .config(fast_config())
            .build()
            .unwrap();
        let unit = EdgeWeights::unit(&big);
        let mst = s.try_mst(&unit).expect("flagged");
        let reference = kruskal(&big, &unit);
        assert!(mst.truncated);
        assert!(mst.result.edges.iter().all(|e| reference.contains(e)));
        assert!(s.try_components().expect("flagged").truncated);
        assert!(s.try_mincut().expect("flagged").truncated);
    }
}

/// Acceptance bar of the facade: the second aggregate call on the
/// same session must reuse the cached shortcut.
#[test]
fn second_aggregate_reuses_cached_shortcut() {
    let g = gen::grid(8, 8);
    let mut session = Session::on(&g)
        .tree(TreeSource::Bfs(NodeId(0)))
        .partition(gen::rows_of_grid(8, 8))
        .backend(Backend::Centralized)
        .build()
        .unwrap();
    assert_eq!(session.cache_stats().full.builds, 0, "build is lazy");

    let values: Vec<u64> = (0..64).collect();
    let first = session.aggregate(&values, AggOp::Max);
    assert_eq!(
        session.cache_stats().full.builds,
        1,
        "first call constructs"
    );
    let second = session.aggregate(&values, AggOp::Sum);
    let third = session.gossip(
        &values,
        low_congestion_shortcuts::partwise::IdempotentOp::Min,
    );
    assert_eq!(
        session.cache_stats().full.builds,
        1,
        "later ops must reuse the cached shortcut"
    );
    assert!(
        session.cache_stats().full.hits >= 2,
        "later ops count as cache hits"
    );
    assert!(first.result.all_members_informed);
    assert!(second.result.all_members_informed);
    assert!(third.result.converged);
    // The uniform report carries cost and execution configuration.
    assert!(first.rounds > 0 && first.messages > 0 && first.bits > 0);
    // `threads` is the resolved lane count: the default's host
    // parallelism, at most one lane per `GRAIN` nodes — one for 64 nodes.
    let lanes = Simulator::new(&g, SimConfig::default()).effective_threads();
    assert_eq!((first.threads, lanes), (1, 1));
    assert!(first.bandwidth_bits > 0);
    let q = first
        .quality
        .expect("partition ops carry the quality report");
    assert!(q.tree_restricted);
}

/// How a session holds its graph changes nothing it computes: one that
/// co-owns the graph and one that borrows it report the same quality and
/// the same aggregate, message for message.
#[test]
fn shared_and_borrowed_sessions_agree() {
    let g = std::sync::Arc::new(gen::grid(8, 8));
    let values: Vec<u64> = (0..64).collect();
    let on = |builder: SessionBuilder<'_>| {
        let mut session = builder
            .partition(gen::rows_of_grid(8, 8))
            .config(fast_config())
            .build()
            .unwrap();
        let quality = session.quality().clone();
        let agg = session.aggregate(&values, AggOp::Sum);
        let counts = (agg.rounds, agg.messages, agg.bits, agg.truncated);
        (quality, agg.result.results, counts)
    };
    assert_eq!(on(Session::shared(g.clone())), on(Session::on(&g)));
    assert_eq!(
        std::sync::Arc::strong_count(&g),
        1,
        "a dropped session lets go"
    );
}

/// The builder's setters commute: every order of the source setters,
/// `.config(..)`, `.backend(..)` and `.tree(..)` builds the same session,
/// and a source setter and the config naming two different sources are a
/// typed error in either order, not a silently dropped source.
#[test]
fn every_setter_order_builds_the_same_session() {
    use low_congestion_shortcuts::core::{GeneratorSpec, GraphSource};
    let g = gen::grid(4, 4);
    let graph = GraphSource::Generator(GeneratorSpec::Grid { rows: 4, cols: 4 });
    let rows = PartitionSource::Rows { rows: 4, cols: 4 };
    // A config no other setter could produce: its round cap is marked.
    fn marked() -> SessionConfig {
        let mut config = fast_config();
        config.sim.max_rounds = 999_999;
        config
    }
    let config = marked();
    type Setter = fn(SessionBuilder<'_>) -> SessionBuilder<'_>;
    let setters: [(&str, Setter); 5] = [
        ("partition_source", |b| {
            b.partition_source(PartitionSource::Rows { rows: 4, cols: 4 })
        }),
        ("graph_source", |b| {
            b.graph_source(GraphSource::Generator(GeneratorSpec::Grid {
                rows: 4,
                cols: 4,
            }))
        }),
        ("config", |b| b.config(marked())),
        ("backend", |b| {
            b.backend(Backend::Distributed(SimConfig::default()))
        }),
        ("tree", |b| b.tree(TreeSource::Bfs(NodeId(5)))),
    ];
    let expected = SessionConfig {
        partition_source: Some(rows.clone()),
        graph_source: Some(graph.clone()),
        ..config.clone()
    };
    let values: Vec<u64> = (0..16).collect();
    // Every permutation of the five setters, by Heap's algorithm.
    let mut order: Vec<usize> = (0..setters.len()).collect();
    let mut c = vec![0; order.len()];
    let mut builds = 0;
    let mut check = |order: &[usize]| {
        let builder = order
            .iter()
            .fold(Session::on(&g), |b, &i| (setters[i].1)(b));
        let names: Vec<&str> = order.iter().map(|&i| setters[i].0).collect();
        let mut session = builder.build().unwrap_or_else(|e| panic!("{names:?}: {e}"));
        assert_eq!(session.config(), &expected, "{names:?}");
        assert_eq!(session.root(), NodeId(5), "{names:?}");
        assert_eq!(
            session.backend(),
            &Backend::Distributed(SimConfig::default())
        );
        let sums = session.aggregate(&values, AggOp::Sum).result.results;
        assert_eq!(
            sums,
            vec![Some(6), Some(22), Some(38), Some(54)],
            "{names:?}"
        );
        builds += 1;
    };
    check(&order);
    let mut i = 1;
    while i < order.len() {
        if c[i] < i {
            order.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
            check(&order);
            c[i] += 1;
            i = 1;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    assert_eq!(builds, 120);

    // Two different sources, in either order, and an agreeing pair.
    let other = PartitionSource::Rows { rows: 2, cols: 8 };
    let with_other = SessionConfig {
        partition_source: Some(other),
        ..config.clone()
    };
    let conflict = SessionError::ConflictingSources {
        field: "partition_source",
    };
    let setter_first = Session::on(&g)
        .partition_source(rows.clone())
        .config(with_other.clone());
    assert_eq!(setter_first.build().err(), Some(conflict.clone()));
    let config_first = Session::on(&g)
        .config(with_other)
        .partition_source(rows.clone());
    assert_eq!(config_first.build().err(), Some(conflict));
    let agreeing = SessionConfig {
        partition_source: Some(rows.clone()),
        ..config
    };
    let session = Session::on(&g)
        .config(agreeing)
        .partition_source(rows)
        .build();
    assert_eq!(session.map(|s| s.partition().num_parts()).ok(), Some(4));
}

fn backends() -> Vec<(&'static str, Backend)> {
    vec![
        ("centralized", Backend::Centralized),
        ("distributed", Backend::Distributed(env_sim())),
        (
            "sketch",
            Backend::Sketch(DistConfig {
                mode: DistMode::Sketch {
                    t: 8,
                    hash_seed: 0xbeef,
                    cut_factor: 1.0,
                },
                sim: env_sim(),
            }),
        ),
    ]
}

/// `slots − parts` of the participation tables, read off Definition 2.1:
/// part `i` has a slot at each member and each endpoint of an `H_i` edge,
/// and one of them is its root. A warm aggregate sends at most twice this
/// (an `Up` and a `Down` per slot with a member below it).
fn non_root_slots(g: &Graph, partition: &Partition, shortcut: &Shortcut) -> u64 {
    let slots_of = |(pid, members): (PartId, &[NodeId])| {
        let ends = shortcut.edges_for(pid).iter().map(|&e| g.endpoints(e));
        let mut nodes: Vec<NodeId> = ends.flat_map(|(u, v)| [u, v]).collect();
        nodes.extend_from_slice(members);
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len() as u64 - 1
    };
    partition.iter().map(slots_of).sum()
}

/// After the aggregate, `session.gossip` for Min and Max rides the forest
/// the aggregate rooted: the results of `centralized_aggregate`, for the
/// warm aggregate's message count, which lies between `2·(members − k)`
/// and `2·(slots − k)`.
fn assert_session_matches_centralized(g: &Graph, parts: Vec<Vec<NodeId>>, label: &str) {
    let partition = Partition::from_parts(g, parts.clone()).unwrap();
    let values: Vec<u64> = (0..g.num_nodes() as u64).map(|x| (x * 131) % 997).collect();
    let expect = centralized_aggregate(&partition, &values, AggOp::Sum);
    let k = partition.num_parts();
    for (name, backend) in backends() {
        let mut session = Session::on(g)
            .partition(parts.clone())
            .backend(backend)
            .config(fast_config())
            .build()
            .unwrap();
        let out = session.aggregate(&values, AggOp::Sum);
        assert!(
            out.result.all_members_informed,
            "{label}/{name}: all members informed"
        );
        let got: Vec<u64> = out.result.results.iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, expect, "{label}/{name}: aggregate differs");

        let shortcut = session.try_full_artifact().unwrap().shortcut.clone();
        let gossips = [
            (IdempotentOp::Min, AggOp::Min),
            (IdempotentOp::Max, AggOp::Max),
        ]
        .map(|(op, agg)| {
            let gossip = session.gossip(&values, op);
            let expect = centralized_aggregate(&partition, &values, agg);
            let expect: Vec<Option<u64>> = expect.into_iter().map(Some).collect();
            assert!(gossip.result.converged, "{label}/{name}/{op:?}");
            assert_eq!(gossip.result.results, expect, "{label}/{name}/{op:?}");
            assert_eq!(gossip.result.rooted_parts, k, "{label}/{name}/{op:?}");
            gossip.messages
        });
        let warm = session.aggregate(&values, AggOp::Sum);
        assert_eq!(warm.result.rooted_parts, k, "{label}/{name}");
        assert_eq!(
            gossips, [warm.messages; 2],
            "{label}/{name}: gossip is warm"
        );
        if env_packing() == 1 {
            let members = partition
                .iter()
                .map(|(_, nodes)| nodes.len() as u64)
                .sum::<u64>();
            let non_roots = non_root_slots(g, &partition, &shortcut);
            let bracket = 2 * (members - k as u64)..=2 * non_roots;
            assert!(bracket.contains(&warm.messages), "{label}/{name}");
        }
        assert_eq!(session.cache_stats().full.builds, 1, "{label}/{name}");
    }
}

const DIFFERENTIAL_SEEDS: u64 = 50;

#[test]
fn session_aggregate_matches_centralized_on_gnm_all_backends() {
    for seed in 0..DIFFERENTIAL_SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = gen::gnm_connected(120, 240, &mut rng);
        let parts = gen::random_connected_parts(&g, 30, &mut rng);
        assert_session_matches_centralized(&g, parts, &format!("gnm seed {seed}"));
    }
}

#[test]
fn session_aggregate_matches_centralized_on_tori_all_backends() {
    for seed in 0..DIFFERENTIAL_SEEDS {
        let mut rng = SmallRng::seed_from_u64(1000 + seed);
        let rows = 4 + (seed as usize % 5);
        let cols = 4 + ((seed as usize / 5) % 5);
        let g = gen::torus(rows, cols);
        let k = 1 + (seed as usize % (g.num_nodes() / 2));
        let parts = gen::random_connected_parts(&g, k, &mut rng);
        assert_session_matches_centralized(&g, parts, &format!("torus seed {seed}"));
    }
}

#[test]
fn session_aggregate_matches_centralized_on_ktrees_all_backends() {
    for seed in 0..DIFFERENTIAL_SEEDS {
        let mut rng = SmallRng::seed_from_u64(2000 + seed);
        let n = 40 + (seed as usize % 80);
        let g = gen::ktree(n, 3, &mut rng);
        let k = 1 + (seed as usize % (n / 4));
        let parts = gen::random_connected_parts(&g, k, &mut rng);
        assert_session_matches_centralized(&g, parts, &format!("ktree seed {seed}"));
    }
}

/// Every doubling of `δ̂` is certified on the exact distributed backend
/// too: the comb fails its `δ̂ = 1` sweep, and the session keeps that
/// sweep's minor — the one the centralized construction extracts.
#[test]
fn the_distributed_session_certifies_its_doubling() {
    let comb = gen::comb(10, 24);
    let session = |backend| {
        Session::on(&comb.graph)
            .partition(comb.parts.clone())
            .backend(backend)
            .config(fast_config())
            .build()
            .unwrap()
    };
    let mut exact = session(Backend::Distributed(env_sim()));
    assert_eq!(exact.delta_hat(), 2);
    let w = exact.try_full_artifact().unwrap().witness.clone();
    let w = w.expect("the failed sweep's certificate");
    assert!(minor::verify_minor(&comb.graph, &w).is_ok());
    assert!(w.density() > 1.0);
    let mut central = session(Backend::Centralized);
    assert_eq!(central.try_full_artifact().unwrap().witness, Some(w));
}

/// Root once, aggregate many: the aggregation forest rides the
/// participation tables' artifact slot. A warm aggregate is served from it
/// (`rooted_parts`), and so is a gossip, which keeps its roots;
/// `reassign_parts` churn repairs the touched parts' trees in the one
/// patch per tick — row 0's last node leaves it as a leaf and is
/// unhooked, and hangs from its neighbour in row 1 — so the after-churn
/// aggregate is warm in every part. Foreign leaders re-root, and a
/// wholesale partition change drops the forest with the tables.
#[test]
fn aggregation_forest_follows_the_participation_tables() {
    let g = gen::grid(8, 8);
    let mut session = Session::on(&g)
        .partition(gen::rows_of_grid(8, 8))
        .config(fast_config())
        .build()
        .unwrap();
    let values: Vec<u64> = (0..64).collect();
    let cold = session.aggregate(&values, AggOp::Sum);
    let gossip = session.gossip(&values, IdempotentOp::Max);
    let warm = session.aggregate(&values, AggOp::Sum);
    assert_eq!((cold.result.rooted_parts, warm.result.rooted_parts), (0, 8));
    assert_eq!(gossip.result.rooted_parts, 8);
    assert_eq!(gossip.messages, warm.messages);
    assert_eq!(warm.result.results, cold.result.results);
    assert!(warm.result.all_members_informed && !warm.truncated);
    assert!(warm.messages < cold.messages && warm.rounds <= cold.rounds);

    let touched = session.reassign_parts(&[(NodeId(7), PartId(1))]).unwrap();
    assert_eq!(touched, [PartId(0), PartId(1)]);
    let after_churn = session.aggregate(&values, AggOp::Sum);
    assert_eq!(after_churn.result.rooted_parts, 8);
    let expect = centralized_aggregate(session.partition(), &values, AggOp::Sum);
    let expect: Vec<Option<u64>> = expect.into_iter().map(Some).collect();
    assert_eq!(after_churn.result.results, expect);
    let again = session.aggregate(&values, AggOp::Sum);
    assert_eq!(again.result.rooted_parts, 8);
    assert_eq!(
        again.messages, after_churn.messages,
        "the after-churn aggregate is warm"
    );
    assert_eq!(session.cache_stats().op_artifact_patches, 1);
    assert_eq!(session.cache_stats().op_artifacts.builds, 1);

    let last: Vec<NodeId> = (session.partition().iter())
        .map(|(_, nodes)| *nodes.iter().max().unwrap())
        .collect();
    let moved = (session.try_aggregate_with_leaders(&values, AggOp::Sum, &last)).unwrap();
    assert_eq!(moved.result.rooted_parts, 0);
    assert!(moved.result.all_members_informed);
    assert_eq!(moved.result.results, expect);

    let columns = (0..8).map(|c| (0..8).map(|r| NodeId(r * 8 + c)).collect());
    session.set_partition(columns.collect()).unwrap();
    let rebuilt = session.aggregate(&values, AggOp::Sum);
    assert_eq!(rebuilt.result.rooted_parts, 0);
    assert_eq!(session.cache_stats().op_artifacts.builds, 2);
}

/// Two `reassign_parts` ticks between aggregates are one patch over both
/// log entries, and the repair reads nothing but the forest and the
/// partition it ends at. Two leaves moved in two ticks (rows 0 → 1 and
/// 2 → 3) are carried as if moved at once; moved back in two more ticks,
/// they leave every tree as it was, so the aggregate after them sends
/// exactly what the warm aggregate before the churn sent.
#[test]
fn two_ticks_between_aggregates_are_one_repair() {
    let g = gen::grid(8, 8);
    let mut session = Session::on(&g)
        .partition(gen::rows_of_grid(8, 8))
        .config(fast_config())
        .build()
        .unwrap();
    let values: Vec<u64> = (0..64).map(|x| x * 37 % 101).collect();
    session.aggregate(&values, AggOp::Sum);
    let warm = session.aggregate(&values, AggOp::Sum);
    assert_eq!(warm.result.rooted_parts, 8);
    let away = [(NodeId(7), PartId(1)), (NodeId(23), PartId(3))];
    let home = [(NodeId(7), PartId(0)), (NodeId(23), PartId(2))];
    for (ticks, patches) in [(away, 1), (home, 2)] {
        for mv in ticks {
            session.reassign_parts(&[mv]).unwrap();
        }
        let out = session.aggregate(&values, AggOp::Sum);
        assert_eq!(session.cache_stats().op_artifact_patches, patches);
        assert_eq!(out.result.rooted_parts, 8, "after {ticks:?}");
        let expect = centralized_aggregate(session.partition(), &values, AggOp::Sum);
        let expect: Vec<Option<u64>> = expect.into_iter().map(Some).collect();
        assert_eq!(out.result.results, expect, "after {ticks:?}");
        assert!(out.result.all_members_informed && !out.truncated);
        if patches == 2 {
            assert_eq!(out.messages, warm.messages, "every tree as it was");
        }
    }
    assert_eq!(session.cache_stats().op_artifacts.builds, 1);
}

/// The churn workload's instance: `road_like` 200², 400 voronoi parts, and
/// 32 boundary nodes over pairwise disjoint part pairs, each toggling
/// between its two parts for 20 ticks of `reassign_parts`, `prepare` and
/// an aggregate. The first tick moves the movers from wherever they sat in
/// the trees; after it each mover has arrived as a leaf, so it leaves as
/// one. From the second tick on every after-churn aggregate is served from
/// the repaired forest in all 400 parts and sends exactly what the
/// aggregate after it, with nothing to patch, sends.
#[test]
#[ignore = "release-mode scale test"]
fn scale_churn_keeps_the_forest() {
    let g = gen::road_like(200, 200, 7);
    let parts = gen::voronoi_parts_seeded(&g, 400, 7);
    let mut session = Session::on(&g)
        .partition(parts)
        .config(fast_config())
        .build()
        .unwrap();
    let n = g.num_nodes() as u64;
    let values: Vec<u64> = (0..n).map(|x| x * 7919 % 1_000_003).collect();
    session.aggregate(&values, AggOp::Sum);

    let mut movers = Vec::new();
    let partition = session.partition().clone();
    let mut used = vec![false; partition.num_parts()];
    // 7919 is prime to n = 40 000, so this visits every node, spread out.
    for v in (0..n).map(|i| NodeId((i * 7919 % n) as u32)) {
        let home = partition.part_of(v).expect("voronoi cells cover the graph");
        let away = (g.neighbors(v).filter_map(|nb| partition.part_of(nb.node)))
            .find(|&p| p != home && !used[p.index()]);
        let Some(away) = away.filter(|_| !used[home.index()]) else {
            continue;
        };
        if partition.reassign(&g, &[(v, away)]).is_ok() {
            (used[home.index()], used[away.index()]) = (true, true);
            movers.push((v, home, away));
        }
        if movers.len() == 32 {
            break;
        }
    }
    assert_eq!(movers.len(), 32);

    for tick in 0..20 {
        let moves: Vec<(NodeId, PartId)> = (movers.iter())
            .map(|&(v, home, away)| (v, if tick % 2 == 0 { away } else { home }))
            .collect();
        assert_eq!(session.reassign_parts(&moves).unwrap().len(), 64);
        session.prepare();
        let after = session.aggregate(&values, AggOp::Sum);
        let expect = centralized_aggregate(session.partition(), &values, AggOp::Sum);
        let expect: Vec<Option<u64>> = expect.into_iter().map(Some).collect();
        assert_eq!(after.result.results, expect, "tick {tick}");
        assert!(after.result.all_members_informed && !after.truncated);
        if tick > 0 {
            assert_eq!(after.result.rooted_parts, 400, "tick {tick}");
            let warm = session.aggregate(&values, AggOp::Sum);
            assert_eq!(after.messages, warm.messages, "tick {tick}");
        }
    }
    assert_eq!(session.cache_stats().full.builds, 1);
}

/// Finds one boundary move the session accepts and applies it: candidates
/// are `(node, neighboring part)` pairs in ascending order;
/// `reassign_parts` rejects — and provably leaves the session untouched —
/// any move that would empty or disconnect a part. Returns `None` when no
/// single-node move is valid (e.g. `k = 1`).
fn reassign_one_boundary_node(session: &mut ShortcutSession<'_>) -> Option<Vec<PartId>> {
    let g = session.graph();
    let candidates: Vec<(NodeId, PartId)> = {
        let partition = session.partition();
        let mut c = Vec::new();
        for v in (0..g.num_nodes() as u32).map(NodeId) {
            let Some(from) = partition.part_of(v) else {
                continue;
            };
            for nb in g.neighbors(v) {
                match partition.part_of(nb.node) {
                    Some(to) if to != from => c.push((v, to)),
                    _ => {}
                }
            }
        }
        c.sort();
        c.dedup();
        c
    };
    candidates
        .into_iter()
        .find_map(|mv| session.reassign_parts(&[mv]).ok())
}

/// One churn check: every cheap partition op on the (mutated) live session
/// must produce result values bit-identical to a session freshly built on
/// the live session's current partition. Rounds/metrics are NOT compared —
/// the incrementally re-customized shortcut may legitimately differ from a
/// fresh joint construction, but both are valid shortcuts, so every op
/// converges to the same values.
fn assert_ops_match_fresh(
    session: &mut ShortcutSession<'_>,
    backend: &Backend,
    values: &[u64],
    label: &str,
) {
    let g = session.graph_handle();
    let lists = session.partition().iter().map(|(_, nodes)| nodes.to_vec());
    let mut fresh = Session::on(&g)
        .partition(lists.collect())
        .backend(backend.clone())
        .config(fast_config())
        .build()
        .unwrap();

    let live_agg = session.aggregate(values, AggOp::Sum);
    let fresh_agg = fresh.aggregate(values, AggOp::Sum);
    assert_eq!(
        live_agg.result.results, fresh_agg.result.results,
        "{label}: aggregate results diverge from a fresh build"
    );
    assert!(
        live_agg.result.all_members_informed && fresh_agg.result.all_members_informed,
        "{label}: aggregate must inform all members"
    );

    let gossip_op = low_congestion_shortcuts::partwise::IdempotentOp::Min;
    let live_gossip = session.gossip(values, gossip_op);
    let fresh_gossip = fresh.gossip(values, gossip_op);
    assert_eq!(
        live_gossip.result.results, fresh_gossip.result.results,
        "{label}: gossip results diverge from a fresh build"
    );
    assert!(
        live_gossip.result.converged && fresh_gossip.result.converged,
        "{label}: gossip must converge"
    );

    let q = session.quality().clone();
    assert!(
        q.all_connected(),
        "{label}: mutated session's shortcut must keep every part connected"
    );
}

/// The churn differential: after `reassign_parts` (incremental
/// re-customization) and after `set_partition` (wholesale replacement),
/// every op result on the live session is bit-identical to a fresh-built
/// session — per backend, per corpus family, across the 50-seed sweep.
/// CI repeats the sweep at `LCS_SIM_PACKING=8`.
fn churn_differential(g: &Graph, parts: Vec<Vec<NodeId>>, rng: &mut SmallRng, label: &str) {
    use rand::Rng;
    let values: Vec<u64> = (0..g.num_nodes() as u64).map(|x| (x * 131) % 997).collect();
    let k2 = 1 + rng.gen_range(0..g.num_nodes() / 4);
    let wholesale = gen::random_connected_parts(g, k2, rng);
    for (name, backend) in backends() {
        let mut session = Session::on(g)
            .partition(parts.clone())
            .backend(backend.clone())
            .config(fast_config())
            .build()
            .unwrap();
        // Warm the cache, then mutate incrementally.
        let _ = session.aggregate(&values, AggOp::Sum);
        if reassign_one_boundary_node(&mut session).is_some() {
            assert_ops_match_fresh(
                &mut session,
                &backend,
                &values,
                &format!("{label}/{name}/reassign"),
            );
        }
        // Wholesale replacement on the same live session.
        session.set_partition(wholesale.clone()).unwrap();
        assert_ops_match_fresh(
            &mut session,
            &backend,
            &values,
            &format!("{label}/{name}/set_partition"),
        );
    }
}

const CHURN_SEEDS: u64 = 50;

#[test]
fn churn_differential_on_gnm_all_backends() {
    for seed in 0..CHURN_SEEDS {
        let mut rng = SmallRng::seed_from_u64(5000 + seed);
        let g = gen::gnm_connected(120, 240, &mut rng);
        let parts = gen::random_connected_parts(&g, 30, &mut rng);
        churn_differential(&g, parts, &mut rng, &format!("gnm churn seed {seed}"));
    }
}

#[test]
fn churn_differential_on_tori_all_backends() {
    for seed in 0..CHURN_SEEDS {
        let mut rng = SmallRng::seed_from_u64(6000 + seed);
        let rows = 4 + (seed as usize % 5);
        let cols = 4 + ((seed as usize / 5) % 5);
        let g = gen::torus(rows, cols);
        let k = 1 + (seed as usize % (g.num_nodes() / 2));
        let parts = gen::random_connected_parts(&g, k, &mut rng);
        churn_differential(&g, parts, &mut rng, &format!("torus churn seed {seed}"));
    }
}

#[test]
fn churn_differential_on_ktrees_all_backends() {
    for seed in 0..CHURN_SEEDS {
        let mut rng = SmallRng::seed_from_u64(7000 + seed);
        let n = 40 + (seed as usize % 80);
        let g = gen::ktree(n, 3, &mut rng);
        let k = 1 + (seed as usize % (n / 4));
        let parts = gen::random_connected_parts(&g, k, &mut rng);
        churn_differential(&g, parts, &mut rng, &format!("ktree churn seed {seed}"));
    }
}

/// The full op surface under churn, small instance: MST under changing
/// weights, components and mincut across partition churn, all three
/// backends. The MST memo must answer for the weights it is given and
/// topology-scoped artifacts survive the churn, never a stale cache.
#[test]
fn all_ops_stay_differential_under_churn() {
    let g = gen::grid(6, 6);
    let mut rng = SmallRng::seed_from_u64(42);
    let weights = EdgeWeights::random_unique(&g, &mut rng);
    for (name, backend) in backends() {
        let mut session = Session::on(&g)
            .partition(gen::rows_of_grid(6, 6))
            .backend(backend.clone())
            .config(fast_config())
            .build()
            .unwrap();
        // Weighted op before and after a sparse weight change: equal
        // weights run Boruvka once, other weights run it again.
        for _ in 0..2 {
            let mst_before = session.mst(&weights.clone());
            assert_eq!(mst_before.result.edges, kruskal(&g, &weights), "{name}");
        }
        let memo = session.cache_stats().op_artifacts;
        assert_eq!((memo.builds, memo.hits), (1, 1), "{name}");
        let mut bumped = weights.clone();
        bumped.update(&[(EdgeId(0), 1_000_000), (EdgeId(7), 2)]);
        let mst_after = session.mst(&bumped);
        assert_eq!(
            mst_after.result.edges,
            kruskal(&g, &bumped),
            "{name}: MST must read the weights it is given, not a stale artifact"
        );
        let memo = session.cache_stats().op_artifacts;
        assert_eq!((memo.builds, memo.invalidations), (2, 1), "{name}");

        // Partition churn must not disturb topology-scoped results.
        let comps_before = session.try_components().unwrap();
        let cut_before = session.mincut();
        let _ = reassign_one_boundary_node(&mut session).expect("grid rows have valid moves");
        assert_ops_match_fresh(
            &mut session,
            &backend,
            &(0..36u64).collect::<Vec<_>>(),
            &format!("all-ops/{name}"),
        );
        let comps_after = session.try_components().unwrap();
        let cut_after = session.mincut();
        assert_eq!(
            comps_before.result.count, comps_after.result.count,
            "{name}"
        );
        assert_eq!(
            comps_before.result.label, comps_after.result.label,
            "{name}"
        );
        assert_eq!(
            cut_before.result.estimate, cut_after.result.estimate,
            "{name}: mincut is partition-independent"
        );
    }
}

/// The algorithm surface: MST ≡ Kruskal, components ≡ centralized count,
/// mincut ≥ exact, all driven through one session without a partition.
#[test]
fn algorithm_ops_run_through_the_session() {
    let g = gen::grid(6, 6);
    let mut rng = SmallRng::seed_from_u64(9);
    let weights = EdgeWeights::random_unique(&g, &mut rng);
    let mut session = Session::on(&g).build().unwrap();

    let mst = session.mst(&weights);
    assert_eq!(mst.result.edges, kruskal(&g, &weights));
    assert!(mst.rounds > 0 && mst.messages > 0 && mst.bits > 0);
    assert!(mst.quality.is_none(), "fragment ops carry no quality");

    let comps = session.try_components().unwrap();
    assert_eq!(comps.result.count, 1);

    let cut = session.mincut();
    let exact = low_congestion_shortcuts::algos::mincut::stoer_wagner(&g);
    assert!(cut.result.estimate >= exact);
    assert_eq!(cut.result.estimate, exact, "grid cuts are found exactly");
    assert!(cut.messages > 0 && cut.bits > 0);
}

/// A session's Boruvka builds each phase's shortcuts the way the session
/// builds its own. On grid 16² (rows, a provided BFS tree: `2D + 1` = 61,
/// so some fragment above it gets a construction), `session.mst` on the
/// simulating backends is `distributed_mst` handed `construct` on the
/// backend's `DistConfig`, with a charged construction; the centralized
/// backend's constructions are free.
#[test]
fn session_mst_constructs_on_its_backend() {
    use low_congestion_shortcuts::algos::mst::{distributed_mst, MstReport};
    use low_congestion_shortcuts::core::construct;
    let g = gen::grid(16, 16);
    let tree = bfs::bfs_tree(&g, NodeId(0));
    let w = EdgeWeights::random_unique(&g, &mut SmallRng::seed_from_u64(3));
    let sketch = DistConfig {
        mode: DistMode::Sketch {
            t: 8,
            hash_seed: 0xbeef,
            cut_factor: 1.0,
        },
        sim: env_sim(),
    };
    let backends = [
        Backend::Distributed(env_sim()),
        Backend::Sketch(sketch),
        Backend::Centralized,
    ];
    for backend in backends {
        let dist = backend.dist_config();
        let mut session = Session::on(&g)
            .partition(gen::rows_of_grid(16, 16))
            .tree(TreeSource::Provided(tree.clone()))
            .backend(backend)
            .config(fast_config())
            .build()
            .unwrap();
        let served = session.mst(&w).result;
        let cfg = ShortcutConfig::default();
        let fresh = |p: &Partition, parts: &[PartId]| {
            construct(&g, &tree, p, parts, 1, &cfg, dist.as_ref())
        };
        let direct = distributed_mst(&g, &w, &tree, fresh, session.config().sim);
        let counts = |r: &MstReport| {
            (
                r.edges.clone(),
                r.rounds.clone(),
                r.message_split.clone(),
                r.bits,
            )
        };
        assert_eq!(counts(&served), counts(&direct), "{dist:?}");
        assert_eq!(served.edges, kruskal(&g, &w), "{dist:?}");
        let charged = served.message_split.construction > 0;
        assert_eq!(charged, dist.is_some(), "{dist:?}");
    }
}

/// Unicast rides on the cached tree only — it must not trigger a shortcut
/// construction.
#[test]
fn unicast_uses_the_tree_without_constructing_shortcuts() {
    let g = gen::grid(8, 8);
    let mut session = Session::on(&g)
        .partition(gen::rows_of_grid(8, 8))
        .build()
        .unwrap();
    let demands: Vec<(NodeId, NodeId)> = (0..16).map(|i| (NodeId(i), NodeId(63 - i))).collect();
    let out = session.unicast(&demands);
    assert_eq!(out.result.delivered, 16);
    assert_eq!(
        session.cache_stats().full.builds,
        0,
        "routing must not build shortcuts"
    );
}

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn session_config_roundtrips_and_default_snapshot_is_pinned() {
    let mut cfg = SessionConfig::default();
    cfg.sim.mode = SimMode::Queued;
    cfg.sim.threads = 4;
    cfg.sim.max_rounds = 12;
    assert_eq!(roundtrip(&cfg), cfg);

    // Pinned snapshot of the defaults: changing any default or renaming a
    // field is a config-compatibility break and must be deliberate.
    let snapshot = serde_json::to_string(&SessionConfig::default()).unwrap();
    assert_eq!(snapshot, SNAPSHOT, "SessionConfig default schema drifted");

    // A config persisted before the unused knobs were deleted still loads
    // (unknown keys are ignored) to today's defaults, and so does one from
    // before the per-op `sim` overrides were removed, which spells
    // `"sim": null` inside an op block, one from before the construction
    // settings were cut to the congestion factor, and one from before the
    // MST block and the bandwidth setting went. Each of them spells out
    // `"threads":1`, the default lane count when it was written, and keeps
    // it. One from before the construction and aggregation blocks left the
    // session loads to today's defaults.
    let then = SessionConfig {
        sim: SimConfig {
            threads: 1,
            ..SimConfig::default()
        },
        ..SessionConfig::default()
    };
    let older =
        SNAPSHOT_WITH_DELETED_KNOBS.replace("\"trees\":null}", "\"trees\":null,\"sim\":null}");
    assert_ne!(older, SNAPSHOT_WITH_DELETED_KNOBS);
    for old in [
        SNAPSHOT_WITH_DELETED_KNOBS,
        &older,
        SNAPSHOT_WITH_CONSTRUCTION_KNOBS,
        SNAPSHOT_WITH_MST_BLOCK,
    ] {
        let loaded: SessionConfig = serde_json::from_str(old).expect("old schema still loads");
        assert_eq!(loaded, then);
    }
    let loaded: SessionConfig =
        serde_json::from_str(SNAPSHOT_WITH_SESSION_KNOBS).expect("old schema still loads");
    assert_eq!(loaded, SessionConfig::default());
}

/// The serialized `SessionConfig::default()` — the on-disk schema a
/// serving deployment would persist.
const SNAPSHOT: &str = "{\"sim\":{\"mode\":\"Strict\",\"max_rounds\":1000000,\
\"threads\":0,\"message_packing\":1},\
\"partition_source\":null,\"graph_source\":null}";

/// The default schema as persisted before the construction constant and
/// the aggregation start delays left the session.
const SNAPSHOT_WITH_SESSION_KNOBS: &str = "{\"shortcut\":{\"congestion_factor\":8},\
\"sim\":{\"mode\":\"Strict\",\"max_rounds\":1000000,\
\"threads\":0,\"message_packing\":1},\
\"aggregate\":{\"delay_range\":0},\
\"partition_source\":null,\"graph_source\":null}";

/// The default schema as persisted before the MST block (the coin seed and
/// the phase cap) and the simulator's bandwidth setting were deleted.
const SNAPSHOT_WITH_MST_BLOCK: &str = "{\"shortcut\":{\"congestion_factor\":8},\
\"sim\":{\"mode\":\"Strict\",\"bandwidth_bits\":null,\"max_rounds\":1000000,\
\"threads\":1,\"message_packing\":1},\
\"aggregate\":{\"delay_range\":0},\
\"mst\":{\"seed\":11577874,\"max_phases\":null},\
\"partition_source\":null,\"graph_source\":null}";

/// The default schema as persisted before the initial `δ̂`, the block
/// factor, the witness mode and the sampling seed were deleted.
const SNAPSHOT_WITH_CONSTRUCTION_KNOBS: &str = "{\"shortcut\":{\"initial_delta_hat\":1,\
\"congestion_factor\":8,\"block_factor\":8,\"witness_mode\":\"Derandomized\",\
\"seed\":1554098974},\"sim\":{\"mode\":\"Strict\",\"bandwidth_bits\":null,\
\"max_rounds\":1000000,\"threads\":1,\"message_packing\":1},\
\"aggregate\":{\"delay_range\":0},\
\"mst\":{\"seed\":11577874,\"max_phases\":null},\
\"partition_source\":null,\"graph_source\":null}";

/// The default schema as persisted before the simulator seed, the unicast
/// and min-cut blocks, the aggregation delay seed and the small-fragment
/// switch were deleted.
const SNAPSHOT_WITH_DELETED_KNOBS: &str = "{\"shortcut\":{\"initial_delta_hat\":1,\
\"congestion_factor\":8,\"block_factor\":8,\"witness_mode\":\"Derandomized\",\
\"seed\":1554098974},\"sim\":{\"mode\":\"Strict\",\"bandwidth_bits\":null,\
\"max_rounds\":1000000,\"seed\":12648430,\"threads\":1,\"message_packing\":1},\
\"aggregate\":{\"delay_range\":0,\"seed\":909743},\
\"unicast\":{\"delay_range\":0,\"seed\":1047},\
\"mst\":{\"seed\":11577874,\"max_phases\":null,\"skip_small_fragments\":true},\
\"mincut\":{\"trees\":null},\"partition_source\":null,\"graph_source\":null}";

/// `CacheStats` is the serde-able observability surface a serving daemon
/// exports — the counters must survive a round trip untouched.
#[test]
fn cache_stats_roundtrip_through_serde() {
    let g = gen::grid(6, 6);
    let mut session = Session::on(&g)
        .partition(gen::rows_of_grid(6, 6))
        .config(fast_config())
        .build()
        .unwrap();
    let values: Vec<u64> = (0..36).collect();
    let _ = session.aggregate(&values, AggOp::Sum);
    let _ = session.aggregate(&values, AggOp::Max);
    let _ = reassign_one_boundary_node(&mut session).expect("grid rows have valid moves");
    let _ = session.aggregate(&values, AggOp::Min);
    let stats = *session.cache_stats();
    assert_eq!(stats.full.builds, 1);
    assert_eq!(stats.recustomizations, 1);
    assert!(stats.op_artifacts.builds >= 1);
    assert_eq!(roundtrip(&stats), stats, "CacheStats serde round trip");
}

/// `message_packing = 0` survives serde verbatim (no silent schema
/// rewrite) and is normalized to 1 in exactly one place — simulator
/// construction — so a zero-packing config behaves bit-identically to an
/// explicit 1.
#[test]
fn packing_zero_roundtrips_and_normalizes_at_construction() {
    let zero = SimConfig {
        message_packing: 0,
        ..SimConfig::default()
    };
    let restored = roundtrip(&zero);
    assert_eq!(
        restored.message_packing, 0,
        "serde must not rewrite the stored config"
    );

    let g = gen::grid(6, 6);
    let run = |sim: SimConfig| {
        let mut session = Session::on(&g)
            .partition(gen::rows_of_grid(6, 6))
            .backend(Backend::Distributed(sim))
            .config(SessionConfig {
                sim,
                ..fast_config()
            })
            .build()
            .unwrap();
        let values: Vec<u64> = (0..36).collect();
        session.aggregate(&values, AggOp::Sum)
    };
    let (zero_run, one_run) = (
        run(restored),
        run(SimConfig {
            message_packing: 1,
            ..SimConfig::default()
        }),
    );
    assert_eq!(zero_run.result.results, one_run.result.results);
    assert_eq!(zero_run.rounds, one_run.rounds);
    assert_eq!(zero_run.messages, one_run.messages);
    assert_eq!(zero_run.bits, one_run.bits);
}
