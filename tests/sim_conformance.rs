//! Simulator conformance: the batched-delivery engine must reproduce the
//! seed engine's execution metrics exactly.
//!
//! The pinned corpus below was generated on the pre-CSR seed engine
//! (per-directed-edge `VecDeque` mailboxes, commit `a3f13c8`) by running
//! this test with an empty `PINNED` table, which prints the actual rows.
//! Every later engine change must keep `(rounds, messages, bits,
//! max_queue)` identical on these seeded instances.
//!
//! One deliberate re-pin: the `bits` column was regenerated when message
//! sizing became `n`-aware (`MessageSize::size_bits_in` /
//! `lcs_congest::id_bits`) — id payloads (BFS distances, part ids) are now
//! billed at `id_bits(n)` instead of a fixed 32 bits, so bits-metrics
//! scale as `O(log n)` like the CONGEST model assumes. Rounds, messages,
//! and max_queue are untouched by sizing and still match the seed engine.
//!
//! A second deliberate re-pin: the 11 `bfs` rows (`bfs/*` and
//! `partial/*/bfs`) were re-captured when the BFS protocol stopped having
//! a child answer its parent. A child now stays silent and only a
//! non-chosen lower neighbour answers, with a 1-bit `Decline`, so every
//! flood sends exactly `2m − (n − 1)` messages instead of `2m`, in the
//! same or one fewer round, with `max_queue` still 1. The trees did not
//! change (every `(dist, parent_port)` fingerprint is the old one; the
//! fingerprint now also carries `children_ports`), and neither did any
//! `detect` row or any `PARTWISE_PINNED` row.
//!
//! Scope: the corpus pins *metrics*, not inbox contents. Within-round
//! inbox ordering is unspecified (see [`Incoming`]) and did change in the
//! strict-mode rewrite; the repo's protocols are arrival-order
//! independent, which is exactly why the pinned metrics stay identical.
//!
//! The corpus runs at `threads` ∈ {1, 2, 4, 8}: the decentralized
//! executor reconstructs the exact global sequence numbers from per-shard
//! send counts (a prefix sum in shard order) and folds per-shard accounts
//! in shard order, so every pinned number must be independent of the lane
//! count, and so must every result fingerprint (checked against one
//! lane). `LCS_SIM_THREADS` (used by CI) additionally overrides the
//! thread count of the env-driven run.
//!
//! **Packing conformance** (`LCS_SIM_PACKING`, used by CI at `8`): with
//! multi-value message packing enabled the corpus cannot match the
//! unpacked pins exactly — that is the whole point of packing — so the
//! env-driven run switches to the packed contract instead: every metric
//! column stays **at or below** its pinned unpacked value (packing may
//! only coalesce, never inflate), and the protocol *results* (BFS
//! distances/parents, detection cut sets, assembled shortcuts) are
//! **bit-identical** to a `message_packing = 1` run of the same corpus.
//!
//! [`Incoming`]: low_congestion_shortcuts::congest::Incoming

use low_congestion_shortcuts::congest::protocols::BfsTreeProgram;
use low_congestion_shortcuts::congest::{
    Ctx, Incoming, NodeProgram, RunMetrics, SimConfig, SimMode, Simulator,
};
use low_congestion_shortcuts::core::dist::{distributed_bfs, DistConfig};
use low_congestion_shortcuts::core::{Partition, Shortcut, ShortcutConfig};
use low_congestion_shortcuts::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

mod common;
use common::{env_packing, env_threads};

/// `(case, rounds, messages, bits, max_queue)`: rounds/messages/max_queue
/// pinned on the seed engine; bits pinned under the id-aware sizing, and
/// the `bfs` rows re-captured for the silent-child flood (see module
/// docs). Spot-check of `bfs/grid8x8` (m = 112, n = 64): 161 messages =
/// 2m − (n − 1) = 112 `Dist` (1 + id_bits(64) = 8 bits) + 49 `Decline`
/// (1 bit) = 945 bits.
const PINNED: &[(&str, u64, u64, u64, u64)] = &[
    ("bfs/grid8x8", 15, 161, 945, 1),
    ("bfs/grid20x20", 39, 1121, 7961, 1),
    ("bfs/grid8x8_queued", 15, 161, 945, 1),
    ("bfs/torus10x10", 11, 301, 1701, 1),
    ("bfs/path50", 49, 49, 343, 1),
    ("bfs/star33", 1, 32, 224, 1),
    ("bfs/gnm200", 6, 601, 4545, 1),
    ("bfs/ktree150", 4, 739, 5931, 1),
    ("partial/grid8x8_singletons/bfs", 15, 161, 945, 1),
    ("partial/grid8x8_singletons/detect", 266, 511, 4158, 57),
    ("partial/torus8x8_voronoi/bfs", 9, 193, 1089, 1),
    ("partial/torus8x8_voronoi/detect", 34, 194, 1305, 9),
    ("partial/gnm120/bfs", 7, 361, 2510, 1),
    ("partial/gnm120/detect", 59, 376, 2551, 30),
];

/// One corpus case: the pinned metric columns plus a rendered fingerprint
/// of the protocol's *result* (BFS distances/parents or detection cut set
/// + shortcut), which packed runs must reproduce bit-identically.
struct Row {
    case: String,
    rounds: u64,
    messages: u64,
    bits: u64,
    max_queue: u64,
    fingerprint: String,
}

fn row(case: &str, m: &RunMetrics, fingerprint: String) -> Row {
    Row {
        case: case.to_string(),
        rounds: m.rounds,
        messages: m.messages,
        bits: m.bits,
        max_queue: m.max_queue,
        fingerprint,
    }
}

/// A BFS run's result: every node's depth, parent port and children
/// ports, so a packed or threaded run must also learn the same children.
fn bfs_fingerprint(programs: &[BfsTreeProgram]) -> String {
    let states: Vec<_> = (programs.iter())
        .map(|p| (p.dist(), p.parent_port(), p.children_ports()))
        .collect();
    format!("{states:?}")
}

fn bfs_metrics(case: &str, g: &Graph, mode: SimMode, threads: usize, packing: usize) -> Row {
    let sim = Simulator::new(
        g,
        SimConfig {
            mode,
            threads,
            message_packing: packing,
            ..SimConfig::default()
        },
    );
    let run = sim.run(|v, _| BfsTreeProgram::new(v == NodeId(0)));
    assert!(run.metrics.terminated, "{case}: BFS must quiesce");
    row(case, &run.metrics, bfs_fingerprint(&run.programs))
}

fn partial_metrics(
    case: &str,
    g: &Graph,
    parts: Vec<Vec<NodeId>>,
    threads: usize,
    packing: usize,
) -> Vec<Row> {
    let partition = Partition::from_parts(g, parts).unwrap();
    let cfg = ShortcutConfig::default();
    let dist = DistConfig {
        sim: SimConfig {
            threads,
            message_packing: packing,
            ..SimConfig::default()
        },
        ..DistConfig::default()
    };
    let (tree, bfs) = distributed_bfs(g, NodeId(0), dist.sim).expect("BFS must quiesce");
    let all: Vec<PartId> = partition.part_ids().collect();
    let (sweep, detect) =
        partial_shortcut_or_witness(g, &tree, &partition, &all, 1, &cfg, Some(&dist))
            .expect("detection must quiesce");
    let mut cuts: Vec<EdgeId> = sweep.data.over_edges.iter().map(|oe| oe.edge).collect();
    cuts.sort_unstable();
    let fingerprint = format!("cuts {cuts:?} / shortcut {:?}", sweep.shortcut);
    // Fingerprint the BFS phase by replaying the identical deterministic
    // run (same graph, root, and sim config) — `distributed_bfs` returns
    // the tree, not its program states.
    let bfs_fp = {
        let replay = Simulator::new(g, dist.sim).run(|v, _| BfsTreeProgram::new(v == NodeId(0)));
        assert_eq!(
            replay.metrics, bfs,
            "{case}: BFS replay must be the flood's own run"
        );
        bfs_fingerprint(&replay.programs)
    };
    vec![
        row(&format!("{case}/bfs"), &bfs, bfs_fp),
        row(&format!("{case}/detect"), &detect, fingerprint),
    ]
}

fn run_corpus(threads: usize, packing: usize) -> Vec<Row> {
    let mut rows = vec![
        bfs_metrics(
            "bfs/grid8x8",
            &gen::grid(8, 8),
            SimMode::Strict,
            threads,
            packing,
        ),
        bfs_metrics(
            "bfs/grid20x20",
            &gen::grid(20, 20),
            SimMode::Strict,
            threads,
            packing,
        ),
        bfs_metrics(
            "bfs/grid8x8_queued",
            &gen::grid(8, 8),
            SimMode::Queued,
            threads,
            packing,
        ),
        bfs_metrics(
            "bfs/torus10x10",
            &gen::torus(10, 10),
            SimMode::Strict,
            threads,
            packing,
        ),
        bfs_metrics(
            "bfs/path50",
            &gen::path(50),
            SimMode::Strict,
            threads,
            packing,
        ),
        bfs_metrics(
            "bfs/star33",
            &gen::star(33),
            SimMode::Strict,
            threads,
            packing,
        ),
    ];
    {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = gen::gnm_connected(200, 400, &mut rng);
        rows.push(bfs_metrics(
            "bfs/gnm200",
            &g,
            SimMode::Strict,
            threads,
            packing,
        ));
    }
    {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = gen::ktree(150, 3, &mut rng);
        rows.push(bfs_metrics(
            "bfs/ktree150",
            &g,
            SimMode::Strict,
            threads,
            packing,
        ));
    }

    let g = gen::grid(8, 8);
    rows.extend(partial_metrics(
        "partial/grid8x8_singletons",
        &g,
        gen::singleton_parts(&g),
        threads,
        packing,
    ));
    {
        let t = gen::torus(8, 8);
        let mut rng = SmallRng::seed_from_u64(2);
        let parts = gen::random_connected_parts(&t, 12, &mut rng);
        rows.extend(partial_metrics(
            "partial/torus8x8_voronoi",
            &t,
            parts,
            threads,
            packing,
        ));
    }
    {
        let mut rng = SmallRng::seed_from_u64(0);
        let g = gen::gnm_connected(120, 240, &mut rng);
        let parts = gen::random_connected_parts(&g, 30, &mut rng);
        rows.extend(partial_metrics(
            "partial/gnm120",
            &g,
            parts,
            threads,
            packing,
        ));
    }
    rows
}

/// Fails once, unless `actual` is `pinned` row for row: `(case, rendered
/// columns)` pairs in corpus order. First it prints every actual row in
/// the pin table's paste-ready form — a moved row followed by `// was
/// <old columns>`, a row without a pin by `// new` — so a drift shows its
/// whole extent and a deliberate re-capture is a copy.
fn assert_pinned(what: &str, actual: &[(String, String)], pinned: &[(&str, String)]) {
    let same =
        |(case, cols): &(String, String), (pc, pcols): &(&str, String)| case == pc && cols == pcols;
    if actual.len() == pinned.len() && actual.iter().zip(pinned).all(|(a, p)| same(a, p)) {
        return;
    }
    let mut moved = 0;
    println!("{what}: the actual rows");
    for (case, cols) in actual {
        let mark = match pinned.iter().find(|(pc, _)| pc == case) {
            Some((_, old)) if old == cols => String::new(),
            Some((_, old)) => format!(" // was {old}"),
            None => " // new".to_string(),
        };
        moved += usize::from(!mark.is_empty());
        println!("    (\"{case}\", {cols}),{mark}");
    }
    let dropped: Vec<&str> = (pinned.iter().map(|(pc, _)| *pc))
        .filter(|pc| !actual.iter().any(|(case, _)| case == pc))
        .collect();
    panic!(
        "{what}: {moved} of {} rows moved or new, dropped {dropped:?} (or the order \
         changed) — paste the rows printed above",
        actual.len()
    );
}

fn assert_corpus_matches(threads: usize, packing: usize) {
    let actual = run_corpus(threads, packing);
    if packing <= 1 {
        let render = |r: &Row| {
            let cols = format!("{}, {}, {}, {}", r.rounds, r.messages, r.bits, r.max_queue);
            (r.case.clone(), cols)
        };
        let pinned: Vec<(&str, String)> = (PINNED.iter())
            .map(|&(case, r, m, b, q)| (case, format!("{r}, {m}, {b}, {q}")))
            .collect();
        let rendered: Vec<_> = actual.iter().map(render).collect();
        assert_pinned(&format!("PINNED (threads={threads})"), &rendered, &pinned);
        if threads > 1 {
            for (t, one) in actual.iter().zip(&run_corpus(1, 1)) {
                assert_eq!(
                    t.fingerprint, one.fingerprint,
                    "{} (threads={threads}): result drifted from one lane",
                    t.case
                );
            }
        }
        return;
    }
    assert_eq!(actual.len(), PINNED.len(), "corpus size changed");
    for (r, &(pc, pr, pm, pb, pq)) in actual.iter().zip(PINNED) {
        let case = &r.case;
        assert_eq!(case, pc, "corpus order changed");
        // Packed contract: every column at or below its unpacked pin.
        assert!(
            r.rounds <= pr && r.messages <= pm && r.bits <= pb && r.max_queue <= pq,
            "{case} (threads={threads}, packing={packing}): packed metrics \
             ({}, {}, {}, {}) exceed the unpacked pins ({pr}, {pm}, {pb}, {pq})",
            r.rounds,
            r.messages,
            r.bits,
            r.max_queue
        );
    }
    // Result identity: the packed corpus must reproduce the unpacked
    // protocol outcomes bit for bit.
    let unpacked = run_corpus(threads, 1);
    let mut detect_rounds_dropped = false;
    for (p, u) in actual.iter().zip(&unpacked) {
        assert_eq!(
            p.fingerprint, u.fingerprint,
            "{} (threads={threads}, packing={packing}): packed result drifted",
            p.case
        );
        if p.case.ends_with("/detect") && p.rounds < u.rounds {
            detect_rounds_dropped = true;
        }
    }
    assert!(
        detect_rounds_dropped,
        "packing={packing} should cut rounds on at least one detection stream"
    );
}

#[test]
fn metrics_match_pinned_seed_corpus() {
    assert_corpus_matches(env_threads(), env_packing());
}

/// The decentralized executor must be invisible in the metrics: the same
/// pinned corpus at every lane count the bench sweep uses (honoring
/// `LCS_SIM_PACKING` like the env-driven run).
#[test]
fn metrics_match_pinned_seed_corpus_threads2() {
    assert_corpus_matches(2, env_packing());
}

/// See [`metrics_match_pinned_seed_corpus_threads2`].
#[test]
fn metrics_match_pinned_seed_corpus_threads4() {
    assert_corpus_matches(4, env_packing());
}

/// See [`metrics_match_pinned_seed_corpus_threads2`].
#[test]
fn metrics_match_pinned_seed_corpus_threads8() {
    assert_corpus_matches(8, env_packing());
}

/// `(case, unpacked, message_packing = 8)`, each column set
/// `[rounds, messages, bits, max_queue]`, of the part-wise programs. A
/// host-only rewrite of `lcs_partwise` must leave this wire stream, packed
/// and unpacked, exactly as it is; a deliberate model change re-captures
/// it by copying the rows a drifted run prints.
///
/// First captured on the hash-map participation layer; the
/// `aggregate_sum_warm` rows (the second of two runs over one `AggForest`:
/// `2·(slots − parts)` messages) on the change that introduced the forest.
/// The cold rows were re-captured when the echo lost its `Decline`
/// (crossing `Offer`s answer each other, so a cold run sends
/// `ports + 2·(slots − parts)`); no row grew in rounds, messages or bits,
/// and the unicast rows and the warm message and bit counts did not move.
/// The road and grid `aggregate_sum*` rows were re-captured when a slot
/// with no member below it started reporting `Empty` and dropping out of
/// the forest (cold `ports + 2·(slots − parts) − pruned`, warm
/// `2·(slots − parts − pruned)`): no row grew, no result moved, and the
/// wheel rim, whose hub carries every member, prunes nothing.
/// The session gossip is the aggregate over the session forest, so the
/// `aggregate_sum` rows pin its protocol too: min / max and sum send the
/// same messages.
/// The `unicast` rows were re-captured when packets lost their random
/// start delays (every packet leaves its source in round 0, keeping its
/// random priority): messages and bits did not move, rounds dropped by 2.
/// The `convergecast_sum` row, min-cut's evaluation of one packed tree,
/// was captured when that evaluation became the part-wise program's
/// `Wave::Convergecast`: `depth(T)` rounds and `n − 1` `Up`s of
/// `3 + id_bits(n) + 64` bits, which packing cannot coalesce.
#[rustfmt::skip]
const PARTWISE_PINNED: &[(&str, [u64; 4], [u64; 4])] = &[
    ("road48_voronoi24/aggregate_sum", [174, 18802, 583342, 3], [174, 18160, 583342, 1]),
    ("road48_voronoi24/aggregate_sum_delayed", [184, 18792, 581912, 4], [183, 18514, 581912, 3]),
    ("road48_voronoi24/aggregate_sum_warm", [52, 4708, 371932, 1], [52, 4707, 371932, 1]),
    ("road48_voronoi24/unicast", [125, 2375, 76000, 2], [125, 2375, 76000, 2]),
    ("grid12_rows/aggregate_sum", [67, 3146, 51502, 13], [55, 2939, 51502, 1]),
    ("grid12_rows/aggregate_sum_delayed", [71, 3146, 51502, 6], [69, 3091, 51502, 5]),
    ("grid12_rows/aggregate_sum_warm", [22, 264, 19800, 1], [22, 264, 19800, 1]),
    ("grid12_rows/unicast", [26, 461, 14752, 2], [26, 461, 14752, 2]),
    ("wheel64_rim/aggregate_sum", [7, 378, 11844, 1], [7, 378, 11844, 1]),
    ("wheel64_rim/aggregate_sum_delayed", [19, 378, 11844, 1], [19, 378, 11844, 1]),
    ("wheel64_rim/aggregate_sum_warm", [4, 126, 9324, 1], [4, 126, 9324, 1]),
    ("wheel64_rim/unicast", [4, 62, 1984, 3], [4, 62, 1984, 3]),
    ("road48_bfs_tree/convergecast_sum", [83, 2303, 181937, 1], [83, 2303, 181937, 1]),
];

/// The part-wise corpus: aggregate (cold with and without random delays,
/// and warm over the forest a cold run left) and unicast (random
/// priorities, no start delays) on a road-like
/// graph with voronoi parts, grid rows and the wheel rim. Fingerprints are
/// the protocol results.
fn partwise_corpus(threads: usize, packing: usize) -> Vec<Row> {
    use low_congestion_shortcuts::facade::{AggregateOp, UnicastOp};
    use low_congestion_shortcuts::partwise::{AggForest, ParticipationMap, Wave};
    use rand::Rng;

    let sim = SimConfig {
        threads,
        message_packing: packing,
        ..SimConfig::default()
    };
    let road = gen::road_like(48, 48, 7);
    let road_parts = gen::voronoi_parts_seeded(&road, 24, 0x5eed);
    let wheel = gen::wheel(64);
    let instances = [
        ("road48_voronoi24", road, road_parts),
        ("grid12_rows", gen::grid(12, 12), gen::rows_of_grid(12, 12)),
        ("wheel64_rim", wheel, vec![(1..64).map(NodeId).collect()]),
    ];
    let mut rows = Vec::new();
    for (name, g, parts) in instances {
        let n = g.num_nodes();
        let partition = Partition::from_parts(&g, parts).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let shortcut = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default()).shortcut;
        let values: Vec<u64> = (0..n as u64).map(|x| (x * 37) % 101).collect();
        let aggregate = AggregateOp {
            values: &values,
            op: AggOp::Sum,
            leaders: None,
        };
        for (case, delay_range) in [("aggregate_sum", 0), ("aggregate_sum_delayed", 16)] {
            let out = aggregate.run_on(&g, &partition, &shortcut, delay_range, sim);
            assert!(out.all_members_informed, "{name}/{case}");
            rows.push(row(
                &format!("{name}/{case}"),
                &out.metrics,
                format!("{:?}", out.results),
            ));
        }
        // The second of two runs over one forest: `Up`/`Down` only.
        let map = ParticipationMap::build(&g, &partition, &shortcut);
        let mut forest = AggForest::unrooted(&partition, &map);
        let echo = (Wave::Echo, None);
        aggregate.run_masked(&g, &partition, (0, sim), &map, &mut forest, echo);
        let out = aggregate.run_masked(&g, &partition, (0, sim), &map, &mut forest, echo);
        assert!(
            out.all_members_informed && out.rooted_parts == partition.num_parts(),
            "{name}/aggregate_sum_warm"
        );
        rows.push(row(
            &format!("{name}/aggregate_sum_warm"),
            &out.metrics,
            format!("{:?}", out.results),
        ));
        let mut rng = SmallRng::seed_from_u64(5);
        let demands: Vec<(NodeId, NodeId)> = (0..32)
            .map(|_| {
                let s = rng.gen_range(0..n as u32);
                (
                    NodeId(s),
                    NodeId((s + rng.gen_range(1..n as u32)) % n as u32),
                )
            })
            .collect();
        let out = UnicastOp { demands: &demands }.run_on(&g, &tree, sim);
        assert_eq!(out.delivered, demands.len(), "{name}/unicast");
        rows.push(row(
            &format!("{name}/unicast"),
            &out.metrics,
            format!("{:?}", (out.congestion, out.dilation)),
        ));
    }
    // Min-cut's evaluation: the degree sum convergecast along a BFS tree,
    // as the one part that tree spans.
    let road = gen::road_like(48, 48, 7);
    let tree = bfs::bfs_tree(&road, NodeId(0));
    let whole = Partition::from_parts(&road, vec![tree.order().to_vec()]).unwrap();
    let map = ParticipationMap::build(&road, &whole, &Shortcut::empty(1));
    let mut forest = AggForest::of_tree(&road, &map, &tree);
    let degrees: Vec<u64> = road.nodes().map(|v| road.degree(v) as u64).collect();
    let sum = AggregateOp {
        values: &degrees,
        op: AggOp::Sum,
        leaders: Some(&[NodeId(0)]),
    };
    let (blocks, shape) = ((0, sim), (Wave::Convergecast, None));
    let out = sum.run_masked(&road, &whole, blocks, &map, &mut forest, shape);
    assert!(out.all_members_informed, "road48_bfs_tree/convergecast_sum");
    rows.push(row(
        "road48_bfs_tree/convergecast_sum",
        &out.metrics,
        format!("{:?}", out.results),
    ));
    rows
}

/// The part-wise programs keep their exact wire stream: every pinned
/// column at threads ∈ {1, 4} (plus `LCS_SIM_THREADS`), unpacked and at
/// `message_packing = 8` (the level CI's `LCS_SIM_PACKING` run uses), with
/// results identical across all of them.
#[test]
fn partwise_metrics_match_pinned_corpus() {
    let reference = partwise_corpus(1, 1);
    let mut lanes = vec![1, 4, env_threads()];
    lanes.sort_unstable();
    lanes.dedup();
    let columns = |r: &Row| [r.rounds, r.messages, r.bits, r.max_queue];
    let pinned: Vec<(&str, String)> = (PARTWISE_PINNED.iter())
        .map(|&(case, unpacked, packed)| (case, format!("{unpacked:?}, {packed:?}")))
        .collect();
    for threads in lanes {
        let (unpacked, packed) = (partwise_corpus(threads, 1), partwise_corpus(threads, 8));
        let actual: Vec<(String, String)> = (unpacked.iter().zip(&packed))
            .map(|(u, p)| {
                (
                    u.case.clone(),
                    format!("{:?}, {:?}", columns(u), columns(p)),
                )
            })
            .collect();
        assert_pinned(
            &format!("PARTWISE_PINNED (threads={threads})"),
            &actual,
            &pinned,
        );
        for (r, base) in unpacked.iter().chain(&packed).zip(reference.iter().cycle()) {
            assert_eq!(
                r.fingerprint, base.fingerprint,
                "{} (threads={threads}): result drifted",
                r.case
            );
        }
    }
}

/// `(case, unpacked, message_packing = 8)`, each column set
/// `[rounds, messages, bits]`, of Boruvka's MST (oracle shortcuts). Its
/// exact bill re-runs the MWOE wave through the same code, so a drift in the
/// wave itself shows here and only here.
#[rustfmt::skip]
const BORUVKA_PINNED: &[(&str, [u64; 3], [u64; 3])] = &[
    ("road24/mst", [1037, 11637, 538710], [1037, 11637, 538710]),
];

/// One MST of `road_like` 24² under seeded random weights at `threads`
/// lanes and `packing`; the fingerprint is the edge set.
fn boruvka_row(threads: usize, packing: usize) -> Row {
    use low_congestion_shortcuts::algos::mst::{distributed_mst, kruskal};
    use low_congestion_shortcuts::core::construct;
    use low_congestion_shortcuts::graph::weights::EdgeWeights;

    let g = gen::road_like(24, 24, 7);
    let w = EdgeWeights::random_unique(&g, &mut SmallRng::seed_from_u64(7));
    let mut sim = SimConfig::default();
    (sim.threads, sim.message_packing) = (threads, packing);
    let (tree, cfg) = (bfs::bfs_tree(&g, NodeId(0)), ShortcutConfig::default());
    let sweep = |p: &Partition, parts: &[PartId]| construct(&g, &tree, p, parts, 1, &cfg, None);
    let mst = distributed_mst(&g, &w, &tree, sweep, sim);
    assert!(!mst.truncated && mst.edges == kruskal(&g, &w), "road24/mst");
    Row {
        case: "road24/mst".to_string(),
        rounds: mst.rounds.total(),
        messages: mst.messages,
        bits: mst.bits,
        max_queue: 0,
        fingerprint: format!("{:?}", mst.edges),
    }
}

/// Boruvka keeps its exact wire stream, unpacked and at
/// `message_packing = 8`, at threads ∈ {1, 2, 4, 8} (plus
/// `LCS_SIM_THREADS`), with the same tree at all of them.
#[test]
fn boruvka_metrics_match_pinned_row() {
    let reference = boruvka_row(1, 1);
    let mut lanes = vec![1, 2, 4, 8, env_threads()];
    lanes.sort_unstable();
    lanes.dedup();
    let pinned: Vec<(&str, String)> = (BORUVKA_PINNED.iter())
        .map(|&(case, unpacked, packed)| (case, format!("{unpacked:?}, {packed:?}")))
        .collect();
    for threads in lanes {
        let (unpacked, packed) = (boruvka_row(threads, 1), boruvka_row(threads, 8));
        let columns = |r: &Row| [r.rounds, r.messages, r.bits];
        let cols = format!("{:?}, {:?}", columns(&unpacked), columns(&packed));
        let what = format!("BORUVKA_PINNED (threads={threads})");
        assert_pinned(&what, &[(unpacked.case.clone(), cols)], &pinned);
        for r in [unpacked, packed] {
            assert_eq!(r.fingerprint, reference.fingerprint, "threads={threads}");
        }
    }
}

/// Strict mode must keep rejecting a double send over one directed edge in
/// one round (the rewrite batches sends, so the check moved from queue push
/// to the pending arena — behavior must be unchanged).
#[test]
fn strict_mode_still_panics_on_double_send() {
    struct DoubleSend;
    impl NodeProgram for DoubleSend {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.node() == NodeId(0) {
                ctx.send(0, 1);
                ctx.send(0, 2);
            }
        }
        fn on_round(&mut self, _: &mut Ctx<'_, u32>, _: &[Incoming<u32>]) {}
        fn is_done(&self) -> bool {
            true
        }
    }
    let g = gen::path(2);
    let sim = Simulator::new(&g, SimConfig::default());
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run(|_, _| DoubleSend)));
    assert!(result.is_err(), "strict double-send must panic");
}

/// Queued mode preserves per-edge (priority, FIFO) order: lower priority
/// values drain first, ties drain in send order — including across rounds.
#[test]
fn queued_mode_preserves_priority_then_fifo_order() {
    struct Sender {
        round: u32,
    }
    struct Recorder(Vec<u32>);
    enum P {
        S(Sender),
        R(Recorder),
    }
    impl NodeProgram for P {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if let P::S(_) = self {
                // Same priority: FIFO among 40, 41; priority 0 beats them.
                ctx.send_with_priority(0, 40, 4);
                ctx.send_with_priority(0, 41, 4);
                ctx.send_with_priority(0, 10, 0);
                ctx.wake_next_round();
            }
        }
        fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[Incoming<u32>]) {
            match self {
                P::S(s) => {
                    if s.round == 0 {
                        s.round = 1;
                        // Arrives while 40/41 still queue: priority 1 jumps
                        // ahead of them, priority 4 queues behind (FIFO).
                        ctx.send_with_priority(0, 20, 1);
                        ctx.send_with_priority(0, 42, 4);
                    }
                }
                P::R(r) => r.0.extend(inbox.iter().map(|m| m.msg)),
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }
    let g = gen::path(2);
    let sim = Simulator::new(
        &g,
        SimConfig {
            mode: SimMode::Queued,
            ..SimConfig::default()
        },
    );
    let run = sim.run(|v, _| {
        if v == NodeId(0) {
            P::S(Sender { round: 0 })
        } else {
            P::R(Recorder(Vec::new()))
        }
    });
    assert!(run.metrics.terminated);
    let P::R(r) = &run.programs[1] else {
        panic!("node 1 records");
    };
    // Round 1 delivers 10 (priority 0, queued first by priority). The
    // round-1 sends then join the queue, so: 20 (priority 1), then the
    // priority-4 class in FIFO order 40, 41, 42.
    assert_eq!(r.0, vec![10, 20, 40, 41, 42]);
}

/// Far-future-priority case: one round enqueues a backlog far deeper than
/// the calendar-queue horizon (64 rounds), so most deliveries are scheduled
/// through the overflow ring. The CONGEST queue discipline is unchanged by
/// the scheduling structure: exactly one delivery per round in ascending
/// `(priority, seq)` order, and the metrics are the analytically pinned
/// ones (`rounds = messages = max_queue = backlog`, one u32 per message).
/// Run at every lane count — each lane schedules its own partition.
#[test]
fn queued_mode_drains_deep_backlogs_in_slot_order() {
    const BACKLOG: u32 = 100;
    struct Sender;
    struct Recorder(Vec<u32>);
    enum P {
        S(Sender),
        R(Recorder),
    }
    impl NodeProgram for P {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if let P::S(_) = self {
                // Send values 1..=BACKLOG with *descending* priorities, so
                // the delivery order (ascending priority) reverses the send
                // order — every insert preempts the queued backlog.
                for v in 1..=BACKLOG {
                    ctx.send_with_priority(0, v, u64::from(BACKLOG - v + 1));
                }
            }
        }
        fn on_round(&mut self, _: &mut Ctx<'_, u32>, inbox: &[Incoming<u32>]) {
            if let P::R(r) = self {
                assert!(inbox.len() <= 1, "one delivery per directed edge per round");
                r.0.extend(inbox.iter().map(|m| m.msg));
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }
    for threads in [1, 2, 4, 8] {
        let g = gen::path(2);
        let sim = Simulator::new(
            &g,
            SimConfig {
                mode: SimMode::Queued,
                threads,
                ..SimConfig::default()
            },
        );
        let run = sim.run(|v, _| {
            if v == NodeId(0) {
                P::S(Sender)
            } else {
                P::R(Recorder(Vec::new()))
            }
        });
        assert!(run.metrics.terminated);
        assert_eq!(run.metrics.rounds, u64::from(BACKLOG));
        assert_eq!(run.metrics.messages, u64::from(BACKLOG));
        assert_eq!(run.metrics.bits, u64::from(BACKLOG) * 32);
        assert_eq!(run.metrics.max_queue, u64::from(BACKLOG));
        let P::R(r) = &run.programs[1] else {
            panic!("node 1 records");
        };
        let expect: Vec<u32> = (1..=BACKLOG).rev().collect();
        assert_eq!(r.0, expect, "threads={threads}");
    }
}

/// Delivery-time merging, end to end: the middle node of a 3-path bursts
/// sends *interleaved* across its two ports, which defeats send-side
/// packing (only consecutive same-`(port, priority)` sends pack), so the
/// per-edge backlogs can only be coalesced by the calendar queue at
/// delivery time. With `message_packing = 8` and the default `n = 3`
/// budget of `4·id_bits(4) + 128 = 136` bits, a fired token may absorb up
/// to three queued `u32` follow-ups (4 × 32 = 128 ≤ 136 < 160), never
/// more — and bits are billed at send time, so the merged run's bit count
/// must equal the unpacked run's exactly. Per-edge FIFO within a priority
/// class must survive merging verbatim.
#[test]
fn queued_delivery_merging_respects_budget_and_fifo() {
    const PER_PORT: u32 = 6;
    struct Sender;
    struct Recorder {
        rounds: Vec<Vec<u32>>,
    }
    enum P {
        S(Sender),
        R(Recorder),
    }
    impl NodeProgram for P {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if let P::S(_) = self {
                // 1, 2, 3, … alternating port 0 / port 1: odd values to
                // one neighbor, even to the other, never two consecutive
                // sends on the same port.
                for k in 0..2 * PER_PORT {
                    ctx.send((k % 2) as usize, k + 1);
                }
            }
        }
        fn on_round(&mut self, _: &mut Ctx<'_, u32>, inbox: &[Incoming<u32>]) {
            if let P::R(r) = self {
                if !inbox.is_empty() {
                    r.rounds.push(inbox.iter().map(|m| m.msg).collect());
                }
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }
    let run_at = |threads: usize, packing: usize| {
        let g = gen::path(3);
        let sim = Simulator::new(
            &g,
            SimConfig {
                mode: SimMode::Queued,
                threads,
                message_packing: packing,
                ..SimConfig::default()
            },
        );
        sim.run(|v, _| {
            if v == NodeId(1) {
                P::S(Sender)
            } else {
                P::R(Recorder { rounds: Vec::new() })
            }
        })
    };
    for threads in [1, 4] {
        let unpacked = run_at(threads, 1);
        let packed = run_at(threads, 8);
        assert!(unpacked.metrics.terminated && packed.metrics.terminated);

        // Unpacked: one envelope per edge per round, PER_PORT rounds.
        assert_eq!(unpacked.metrics.rounds, u64::from(PER_PORT));
        assert_eq!(unpacked.metrics.messages, u64::from(2 * PER_PORT));

        // Merged: the first token on each edge absorbs 3 queued
        // follow-ups (budget-capped at 4 × 32 = 128 of 136 bits), the
        // next takes the remaining 2 — so 2 envelopes per edge, and the
        // backlog drains in 2 rounds instead of 6.
        assert_eq!(packed.metrics.rounds, 2);
        assert_eq!(packed.metrics.messages, 4);

        // Bits are billed when the send is validated, not when envelopes
        // merge: both runs bill 12 × 32 bits.
        assert_eq!(unpacked.metrics.bits, u64::from(2 * PER_PORT) * 32);
        assert_eq!(packed.metrics.bits, unpacked.metrics.bits);

        for (node, parity) in [(0usize, 0u32), (2, 1)] {
            let P::R(r) = &unpacked.programs[node] else {
                panic!("node {node} records");
            };
            let fifo: Vec<u32> = (0..PER_PORT).map(|i| 2 * i + 1 + parity).collect();
            assert!(r.rounds.iter().all(|v| v.len() == 1));
            assert_eq!(r.rounds.concat(), fifo, "threads={threads}");

            let P::R(r) = &packed.programs[node] else {
                panic!("node {node} records");
            };
            // Budget cap: never more than 4 values per merged envelope;
            // FIFO order concatenates back to the exact unpacked stream.
            assert_eq!(
                r.rounds.iter().map(Vec::len).collect::<Vec<_>>(),
                vec![4, 2],
                "threads={threads}"
            );
            assert_eq!(r.rounds.concat(), fifo, "threads={threads}");
        }
    }
}
