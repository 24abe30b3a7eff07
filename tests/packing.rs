//! Packing-invariance properties of the multi-value message engine.
//!
//! [`SimConfig::message_packing`] is a pure scheduling/wire optimization:
//! it may coalesce, it must never change what a protocol computes. This
//! suite pins the contract across **both** delivery backends (strict and
//! queued) and thread counts {1, 4}:
//!
//! * **Result identity** — BFS trees, detection cut sets, assembled
//!   shortcuts, part-wise aggregates and session gossip, cold and warm,
//!   are bit-identical at every packing level.
//! * **Monotone cost** — rounds, messages, and bits never increase as
//!   `message_packing` grows (batches only merge, and the packed width
//!   never exceeds the sum of the parts).
//! * **Exact bits accounting** — every envelope fits the per-edge-round
//!   bandwidth budget `B`: a receiver never gets more payload bits over
//!   one edge in one round than `B` allows.
//!
//! [`SimConfig::message_packing`]: low_congestion_shortcuts::congest::SimConfig::message_packing

use low_congestion_shortcuts::congest::protocols::{AggOp, BfsTreeProgram};
use low_congestion_shortcuts::congest::{
    Ctx, Incoming, MessageSize, NodeProgram, RunMetrics, SimConfig, SimMode, Simulator,
};
use low_congestion_shortcuts::core::dist::{DistConfig, DistMode};
use low_congestion_shortcuts::core::{Partition, ShortcutConfig, Sweep};
use low_congestion_shortcuts::partwise::{
    centralized_aggregate, AggForest, AggregateOp, IdempotentOp, ParticipationMap, Wave,
};
use low_congestion_shortcuts::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const PACKING_LEVELS: [usize; 4] = [1, 2, 4, 8];
const THREADS: [usize; 2] = [1, 4];

fn sim(mode: SimMode, threads: usize, packing: usize) -> SimConfig {
    SimConfig {
        mode,
        threads,
        message_packing: packing,
        ..SimConfig::default()
    }
}

/// Asserts the three monotone cost counters never increase from `base`
/// (the previous, smaller packing level) to `next`.
fn assert_monotone(label: &str, base: (u64, u64, u64), next: (u64, u64, u64)) {
    assert!(
        next.0 <= base.0 && next.1 <= base.1 && next.2 <= base.2,
        "{label}: (rounds, messages, bits) grew from {base:?} to {next:?} — \
         packing must only coalesce"
    );
}

/// BFS on both backends: identical trees, non-increasing cost, at every
/// packing level and thread count.
#[test]
fn bfs_results_are_packing_invariant() {
    let mut rng = SmallRng::seed_from_u64(7);
    let graphs = [
        ("grid", gen::grid(9, 11)),
        ("torus", gen::torus(8, 8)),
        ("gnm", gen::gnm_connected(150, 300, &mut rng)),
    ];
    for (family, g) in &graphs {
        for mode in [SimMode::Strict, SimMode::Queued] {
            for threads in THREADS {
                let mut reference: Option<Vec<Option<u32>>> = None;
                let mut prev_cost: Option<(u64, u64, u64)> = None;
                for packing in PACKING_LEVELS {
                    let run = Simulator::new(g, sim(mode, threads, packing))
                        .run(|v, _| BfsTreeProgram::new(v == NodeId(0)));
                    assert!(run.metrics.terminated);
                    let dists: Vec<Option<u32>> =
                        run.programs.iter().map(BfsTreeProgram::dist).collect();
                    let cost = (run.metrics.rounds, run.metrics.messages, run.metrics.bits);
                    let label = format!("{family}/{mode:?}/t{threads}/p{packing}");
                    match &reference {
                        None => reference = Some(dists),
                        Some(ref_dists) => {
                            assert_eq!(&dists, ref_dists, "{label}: BFS distances drifted");
                        }
                    }
                    if let Some(prev) = prev_cost {
                        assert_monotone(&label, prev, cost);
                    }
                    prev_cost = Some(cost);
                }
            }
        }
    }
}

fn run_detection(
    g: &Graph,
    partition: &Partition,
    mode: DistMode,
    threads: usize,
    packing: usize,
) -> (Sweep, RunMetrics) {
    let cfg = ShortcutConfig::default();
    let dist = DistConfig {
        mode,
        sim: SimConfig {
            threads,
            message_packing: packing,
            ..SimConfig::default()
        },
    };
    let tree = bfs::bfs_tree(g, NodeId(0));
    let all: Vec<PartId> = partition.part_ids().collect();
    partial_shortcut_or_witness(g, &tree, partition, &all, 1, &cfg, Some(&dist)).unwrap()
}

fn cut_edges(sweep: &Sweep) -> Vec<EdgeId> {
    sweep.data.over_edges.iter().map(|oe| oe.edge).collect()
}

/// The two hot convergecast producers — exact part streams and KMV sketch
/// streams — must detect the identical cut set at every packing level,
/// with strictly monotone cost and a genuine round cut at packing 8.
#[test]
fn detection_cut_sets_are_packing_invariant() {
    let g = gen::grid(12, 12);
    let partition = Partition::from_parts(&g, gen::singleton_parts(&g)).unwrap();
    let modes = [
        ("exact", DistMode::Exact),
        (
            "sketch",
            DistMode::Sketch {
                t: 8,
                hash_seed: 0xbeef,
                cut_factor: 1.0,
            },
        ),
    ];
    for (mode_name, mode) in modes {
        for threads in THREADS {
            let mut reference: Option<Sweep> = None;
            let mut prev: Option<(u64, u64, u64)> = None;
            let mut unpacked_rounds = 0;
            let mut packed8_rounds = 0;
            for packing in PACKING_LEVELS {
                let (res, m) = run_detection(&g, &partition, mode, threads, packing);
                let label = format!("{mode_name}/t{threads}/p{packing}");
                let cost = (m.rounds, m.messages, m.bits);
                if packing == 1 {
                    unpacked_rounds = m.rounds;
                }
                if packing == 8 {
                    packed8_rounds = m.rounds;
                }
                match &reference {
                    None => reference = Some(res),
                    Some(base) => {
                        assert_eq!(cut_edges(&res), cut_edges(base), "{label}: cut set drifted");
                        assert_eq!(res.shortcut, base.shortcut, "{label}: shortcut drifted");
                        assert_eq!(res.served, base.served, "{label}: served parts drifted");
                    }
                }
                if let Some(p) = prev {
                    assert_monotone(&label, p, cost);
                }
                prev = Some(cost);
            }
            // Streams are multi-message per edge here, so packing must
            // genuinely compress the detection phase, not just tie.
            assert!(
                packed8_rounds < unpacked_rounds,
                "{mode_name}/t{threads}: packing 8 left detection rounds at \
                 {packed8_rounds} (unpacked {unpacked_rounds})"
            );
        }
    }
}

/// Part-wise aggregation (the queued, multi-instance, random-delay
/// workload) on grid rows and road-like voronoi cells, for Min, Max and
/// Sum: the cold echo, and the warm second run over one `AggForest` that
/// serves a session's aggregates and gossip, return identical results at
/// every packing level and thread count and send no more messages as
/// packing grows — sends are grouped by port so that relayed parts pack.
#[test]
fn partwise_aggregates_are_packing_invariant() {
    let road = gen::road_like(16, 16, 3);
    let road_parts = gen::voronoi_parts_seeded(&road, 12, 3);
    let instances = [
        (gen::grid(10, 10), gen::rows_of_grid(10, 10)),
        (road, road_parts),
    ];
    for (g, parts) in instances {
        let partition = Partition::from_parts(&g, parts).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
        let map = ParticipationMap::build(&g, &partition, &built.shortcut);
        let values: Vec<u64> = (0..g.num_nodes() as u64).map(|x| (x * 37) % 101).collect();
        for op in [AggOp::Min, AggOp::Max, AggOp::Sum] {
            let aggregate = AggregateOp {
                values: &values,
                op,
                leaders: None,
            };
            let expect = centralized_aggregate(&partition, &values, op);
            let expect: Vec<Option<u64>> = expect.into_iter().map(Some).collect();
            for threads in THREADS {
                for delay_range in [0, 8] {
                    let mut previous: Option<[u64; 2]> = None;
                    for packing in PACKING_LEVELS {
                        let n = g.num_nodes();
                        let label = format!("{op:?}/n{n}/t{threads}/d{delay_range}/p{packing}");
                        let sim = sim(SimMode::Queued, threads, packing);
                        let mut forest = AggForest::unrooted(&partition, &map);
                        // Cold, then warm over the forest the cold run left.
                        let messages = [(); 2].map(|()| {
                            let out = aggregate.run_masked(
                                &g,
                                &partition,
                                (delay_range, sim),
                                &map,
                                &mut forest,
                                (Wave::Echo, None),
                            );
                            assert!(out.all_members_informed, "{label}: not all informed");
                            assert_eq!(out.results, expect, "{label}: results drifted");
                            out.metrics.messages
                        });
                        if let Some(prev) = previous {
                            assert!(
                                messages[0] <= prev[0] && messages[1] <= prev[1],
                                "{label}: (cold, warm) messages grew from {prev:?} to {messages:?}"
                            );
                        }
                        previous = Some(messages);
                    }
                }
            }
        }
    }
}

/// Boruvka's two wave shapes and min-cut's over one rooted forest (grid
/// rows and road-like voronoi cells): a `Min` / `Max` to the extreme, a
/// broadcast from each part's last member, with one part masked out, and
/// a `Sum` convergecast, `Up`s only, to each part's root. Every
/// packing level and thread count returns the same results and leaves the
/// same forest, remembering the same, and cost never grows as packing does.
#[test]
fn wave_shapes_are_packing_invariant() {
    let road = gen::road_like(16, 16, 3);
    let road_parts = gen::voronoi_parts_seeded(&road, 12, 3);
    let instances = [
        (gen::grid(10, 10), gen::rows_of_grid(10, 10)),
        (road, road_parts),
    ];
    for (g, parts) in instances {
        let partition = Partition::from_parts(&g, parts).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
        let map = ParticipationMap::build(&g, &partition, &built.shortcut);
        let n = g.num_nodes() as u64;
        let values: Vec<u64> = (0..n).map(|x| x * 37 % n).collect();
        let delay_range = 8;
        let mut rooted = AggForest::unrooted(&partition, &map);
        let sum = AggregateOp {
            values: &values,
            op: AggOp::Sum,
            leaders: None,
        };
        let knobs = (delay_range, SimConfig::default());
        sum.run_masked(&g, &partition, knobs, &map, &mut rooted, (Wave::Echo, None));
        let last: Vec<NodeId> = partition.iter().map(|(_, m)| *m.last().unwrap()).collect();
        let mut sits_out = vec![false; partition.num_parts()];
        sits_out[1] = true;
        let shapes = [
            (AggOp::Min, None, (Wave::ToExtreme, None)),
            (AggOp::Max, None, (Wave::ToExtreme, None)),
            (
                AggOp::Max,
                Some(&last[..]),
                (Wave::Broadcast, Some(&sits_out[..])),
            ),
            (AggOp::Sum, None, (Wave::Convergecast, None)),
        ];
        for (op, leaders, shape) in shapes {
            let aggregate = AggregateOp {
                values: &values,
                op,
                leaders,
            };
            let mut reference = None;
            for threads in THREADS {
                let mut prev = None;
                for packing in PACKING_LEVELS {
                    let label = format!("{op:?}/{:?}/n{n}/t{threads}/p{packing}", shape.0);
                    let blocks = (delay_range, sim(SimMode::Queued, threads, packing));
                    let mut forest = rooted.clone();
                    let out =
                        aggregate.run_masked(&g, &partition, blocks, &map, &mut forest, shape);
                    assert!(out.all_members_informed, "{label}: not informed");
                    let m = &out.metrics;
                    let got = (out.results, forest);
                    match &reference {
                        None => reference = Some(got),
                        Some(r) => assert_eq!(&got, r, "{label}: results or forest drifted"),
                    }
                    let cost = (m.rounds, m.messages, m.bits);
                    if let Some(p) = prev {
                        assert_monotone(&label, p, cost);
                    }
                    prev = Some(cost);
                }
            }
        }
    }
}

/// Session gossip (Min and Max, on grid rows and road-like voronoi cells)
/// converges to the centralized results at every packing level and thread
/// count, cold on a fresh session and warm over the forest the cold run
/// rooted, sending no more messages as packing grows.
#[test]
fn gossip_is_packing_invariant() {
    let road = gen::road_like(16, 16, 3);
    let road_parts = gen::voronoi_parts_seeded(&road, 12, 3);
    let instances = [
        (gen::grid(10, 10), gen::rows_of_grid(10, 10)),
        (road, road_parts),
    ];
    for (g, parts) in instances {
        let partition = Partition::from_parts(&g, parts.clone()).unwrap();
        let values: Vec<u64> = (0..g.num_nodes() as u64).map(|x| (x * 37) % 101).collect();
        for (op, agg) in [
            (IdempotentOp::Min, AggOp::Min),
            (IdempotentOp::Max, AggOp::Max),
        ] {
            let expect = centralized_aggregate(&partition, &values, agg);
            let expect: Vec<Option<u64>> = expect.into_iter().map(Some).collect();
            for threads in THREADS {
                let mut previous: Option<[u64; 2]> = None;
                for packing in PACKING_LEVELS {
                    let label = format!("{op:?}/n{}/t{threads}/p{packing}", g.num_nodes());
                    let mut session = Session::on(&g)
                        .partition(parts.clone())
                        .config(SessionConfig {
                            sim: sim(SimMode::Queued, threads, packing),
                            ..SessionConfig::default()
                        })
                        .build()
                        .unwrap();
                    // Cold on the fresh session, then warm over its forest.
                    let messages = [(); 2].map(|()| {
                        let out = session.gossip(&values, op);
                        assert!(out.result.converged, "{label}: did not converge");
                        assert_eq!(out.result.results, expect, "{label}: results drifted");
                        out.messages
                    });
                    if let Some(prev) = previous {
                        assert!(
                            messages[0] <= prev[0] && messages[1] <= prev[1],
                            "{label}: (cold, warm) messages grew from {prev:?} to {messages:?}"
                        );
                    }
                    previous = Some(messages);
                }
            }
        }
    }
}

/// A payload billed at `BITS` bits.
#[derive(Clone, Copy)]
struct Wide<const BITS: usize>;

impl<const BITS: usize> MessageSize for Wide<BITS> {
    fn size_bits_in(&self, _n: usize) -> usize {
        BITS
    }
}

/// Exact bits accounting: a receiver never observes more than
/// `floor(B / value_bits)` values over one edge in one round — the packed
/// envelope respects the bandwidth budget `B` exactly, regardless of how
/// large `message_packing` is set.
#[test]
fn per_edge_round_delivery_respects_the_bit_budget() {
    const VALUE_BITS: usize = 40;
    const BUDGET: usize = 136; // n = 2: fits 3 values, not 4
    struct Sender;
    struct Recorder(Vec<usize>);
    enum P {
        S(Sender),
        R(Recorder),
    }
    impl NodeProgram for P {
        type Msg = Wide<VALUE_BITS>;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Wide<VALUE_BITS>>) {
            if let P::S(_) = self {
                for _ in 0..20 {
                    ctx.send(0, Wide);
                }
            }
        }
        fn on_round(
            &mut self,
            _: &mut Ctx<'_, Wide<VALUE_BITS>>,
            inbox: &[Incoming<Wide<VALUE_BITS>>],
        ) {
            if let P::R(r) = self {
                r.0.push(inbox.len());
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }
    let g = gen::path(2);
    let cap = BUDGET / VALUE_BITS;
    for packing in [2, 8, 64] {
        let run = Simulator::new(
            &g,
            SimConfig {
                mode: SimMode::Queued,
                message_packing: packing,
                ..SimConfig::default()
            },
        )
        .run(|v, _| {
            if v == NodeId(0) {
                P::S(Sender)
            } else {
                P::R(Recorder(Vec::new()))
            }
        });
        assert!(run.metrics.terminated);
        assert_eq!(run.metrics.bandwidth_bits, BUDGET);
        let P::R(r) = &run.programs[1] else {
            panic!("node 1 records");
        };
        let max_per_round = r.0.iter().copied().max().unwrap_or(0);
        assert!(
            max_per_round <= cap.min(packing),
            "packing {packing}: {max_per_round} values crossed one edge in one round \
             (budget {BUDGET} bits allows {cap})"
        );
        assert_eq!(r.0.iter().sum::<usize>(), 20, "no value lost or duplicated");
        // Every billed envelope fits the budget: total bits never exceed
        // messages × budget (the engine asserts per-envelope internally).
        assert!(run.metrics.bits <= run.metrics.messages * BUDGET as u64);
    }
}

/// `messages` counts envelopes: the wire-level message count a packed run
/// reports matches `ceil(stream / per-envelope capacity)` on a clean
/// single-stream instance.
#[test]
fn envelope_counting_matches_the_packed_schedule() {
    struct Sender;
    impl NodeProgram for Sender {
        type Msg = Wide<8>;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Wide<8>>) {
            if ctx.node() == NodeId(0) {
                for _ in 0..10 {
                    ctx.send(0, Wide);
                }
            }
        }
        fn on_round(&mut self, _: &mut Ctx<'_, Wide<8>>, _: &[Incoming<Wide<8>>]) {}
        fn is_done(&self) -> bool {
            true
        }
    }
    let g = gen::path(2);
    for (packing, expect_messages) in [(1usize, 10u64), (2, 5), (4, 3), (8, 2), (16, 1)] {
        let run = Simulator::new(
            &g,
            SimConfig {
                mode: SimMode::Queued,
                // Ten 8-bit values fit the budget: the packing factor is
                // the only limit.
                message_packing: packing,
                ..SimConfig::default()
            },
        )
        .run(|_, _| Sender);
        assert_eq!(
            run.metrics.messages, expect_messages,
            "packing {packing}: envelope count"
        );
        assert_eq!(
            run.metrics.rounds, expect_messages,
            "queued mode drains one envelope per round"
        );
        assert_eq!(run.metrics.bits, 10 * 8, "payload bits are invariant");
    }
}

/// The pack-aware `MessageSize::size_bits_packed_in` of the detection
/// stream shares the variant tag across a run: packed sketch detection
/// must bill strictly fewer bits than unpacked (tag amortization), while
/// exact payload content stays the same.
#[test]
fn sketch_stream_compression_reduces_billed_bits() {
    let g = gen::grid(10, 10);
    let partition = Partition::from_parts(&g, gen::singleton_parts(&g)).unwrap();
    let mode = DistMode::Sketch {
        t: 8,
        hash_seed: 0xbeef,
        cut_factor: 1.0,
    };
    let (unpacked, unpacked_run) = run_detection(&g, &partition, mode, 1, 1);
    let (packed, packed_run) = run_detection(&g, &partition, mode, 1, 8);
    assert!(
        packed_run.bits < unpacked_run.bits,
        "shared-tag batches must bill fewer bits ({} vs {})",
        packed_run.bits,
        unpacked_run.bits
    );
    assert_eq!(cut_edges(&packed), cut_edges(&unpacked));
}
