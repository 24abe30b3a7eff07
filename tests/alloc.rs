//! What a part-wise run costs the host heap: a counting global allocator
//! wrapping `System` checks that a warm aggregate makes the same small
//! number of allocations whatever the graph's size, that the first
//! aggregate on the `partwise_warm` benchmark instance (`road_like` 200²,
//! 400 Voronoi parts, seed 7) keeps the live heap within 25 MB, that a
//! warm one there adds at most 12.5 MB while it runs, and that one exact
//! Theorem 1.5 construction adds at most 170 B per node. The nested
//! dissection of `road_like` 128² holds at most 24 B per node
//! (`the_dissection_holds_at_most_24_bytes_per_node`), and so does that of
//! 512² (`scale_dissection_heap_on_road_like_512`, release only).
//!
//! The counters are thread-local, so the tests of this binary do not see
//! each other's allocations, and the runs they count are pinned to one
//! lane (`SimConfig::threads = 1`), so they allocate on the calling thread
//! only. One more pair of counters spans every thread: with it, the first
//! aggregate at the default lane count, worker threads included, keeps the
//! same 25 MB bound. The tests take turns, so that those counters see one
//! test's allocations.

use low_congestion_shortcuts::congest::{splitmix, SimConfig};
use low_congestion_shortcuts::core::construct;
use low_congestion_shortcuts::core::dist::{DistConfig, DistMode};
use low_congestion_shortcuts::facade::*;
use low_congestion_shortcuts::graph::bfs;
use low_congestion_shortcuts::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Mutex, MutexGuard};

struct Counting;

/// Bytes every thread of the process holds: allocated minus freed.
static ALL_LIVE: AtomicIsize = AtomicIsize::new(0);
/// The most `ALL_LIVE` has been since the last [`reset_peak`].
static ALL_PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Allocations made by this thread (growing a buffer in place or by
    /// moving it is not a new allocation).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds: allocated minus freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last [`reset_peak`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(grow: isize, new_allocation: bool) {
    let all = ALL_LIVE.fetch_add(grow, Ordering::Relaxed) + grow;
    ALL_PEAK.fetch_max(all, Ordering::Relaxed);
    // `try_with`: a thread being torn down still frees memory.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + grow);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    if new_allocation {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track(layout.size() as isize, true);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            track(layout.size() as isize, true);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        track(-(layout.size() as isize), false);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            track(new_size as isize - layout.size() as isize, false);
        }
        new
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Restarts both peaks at the current live heaps.
fn reset_peak() {
    PEAK.with(|peak| peak.set(LIVE.with(Cell::get)));
    ALL_PEAK.store(ALL_LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn peak_mb() -> f64 {
    PEAK.with(Cell::get) as f64 / (1 << 20) as f64
}

fn all_peak_mb() -> f64 {
    ALL_PEAK.load(Ordering::Relaxed) as f64 / (1 << 20) as f64
}

/// Held by every test of this binary, so that no other test allocates
/// while one reads the process-wide counters.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// The benchmark's serving instance: a seeded `road_like` graph, a
/// provided BFS tree and a seeded Voronoi partition, prepared on the
/// centralized backend, its runs on one lane. The graph, tree and parts
/// stay alive next to the session, as they do in the benchmark.
fn with_road_session<T>(
    side: usize,
    parts: usize,
    run: impl FnOnce(&mut ShortcutSession<'_>) -> T,
) -> T {
    with_road_session_on(1, side, parts, run)
}

/// [`with_road_session`] with its runs on `threads` lanes
/// ([`SimConfig::threads`]).
fn with_road_session_on<T>(
    threads: usize,
    side: usize,
    parts: usize,
    run: impl FnOnce(&mut ShortcutSession<'_>) -> T,
) -> T {
    let seed = 7;
    let g = gen::road_like(side, side, seed);
    let parts = gen::voronoi_parts_seeded(&g, parts, splitmix(seed, 0x5eed));
    let tree = bfs::bfs_tree(&g, NodeId(0));
    let mut session = Session::on(&g)
        .tree(TreeSource::Provided(tree.clone()))
        .partition(parts.clone())
        .backend(Backend::Centralized)
        .config(SessionConfig {
            sim: SimConfig {
                threads,
                ..SimConfig::default()
            },
            ..SessionConfig::default()
        })
        .build()
        .expect("voronoi cells are connected parts");
    session.prepare();
    run(&mut session)
}

fn values(n: usize) -> Vec<u64> {
    (0..n as u64).map(|v| splitmix(v, 11) % 1_000_000).collect()
}

#[test]
fn a_warm_aggregate_allocates_the_same_at_every_size() {
    let _turn = one_at_a_time();
    let counts: Vec<u64> = [64, 128]
        .into_iter()
        .map(|side| {
            with_road_session(side, side * side / 100, |session| {
                let values = values(side * side);
                session.aggregate(&values, AggOp::Sum);
                let before = allocations();
                let warm = session.aggregate(&values, AggOp::Sum);
                let made = allocations() - before;
                assert_eq!(warm.result.rooted_parts, side * side / 100);
                made
            })
        })
        .collect();
    assert_eq!(
        counts[0], counts[1],
        "allocations per warm aggregate at 64² and 128²"
    );
    assert!(
        counts[0] <= 100,
        "{} allocations per warm aggregate",
        counts[0]
    );
}

/// 20.4 MB measured (20.9 with 16 B of calendar per directed edge; 26.5
/// with 32 B slot states, 80 B programs, per-run routing tables and an
/// unreserved participation build).
#[test]
fn the_first_aggregate_keeps_the_heap_within_25_mb() {
    let _turn = one_at_a_time();
    let peak = with_road_session(200, 400, |session| {
        let values = values(200 * 200);
        reset_peak();
        let first = session.aggregate(&values, AggOp::Sum);
        assert!(first.result.all_members_informed);
        peak_mb()
    });
    assert!(
        peak <= 25.0,
        "the first aggregate's live heap peaked at {peak:.1} MB"
    );
}

/// A warm aggregate on the same instance adds a fixed transient to the
/// live heap — the run's slot states (24 B per slot), programs (72 B per
/// node), calendar (12 B per directed edge) and traffic — and keeps
/// nothing: 10.3 MB measured, 10.7 with a 16 B calendar, 15.1 while slot
/// states were 32 B, programs 80 B, every run built 16 B of routing tables
/// per directed edge and the op copied the cached forest.
#[test]
fn a_warm_aggregate_adds_a_fixed_transient() {
    let _turn = one_at_a_time();
    let (added, kept) = with_road_session(200, 400, |session| {
        let values = values(200 * 200);
        session.aggregate(&values, AggOp::Sum);
        let before = LIVE.with(Cell::get);
        reset_peak();
        let warm = session.aggregate(&values, AggOp::Sum);
        assert_eq!(warm.result.rooted_parts, 400);
        drop(warm);
        let mb = |bytes: isize| bytes as f64 / (1 << 20) as f64;
        let (peak, after) = (PEAK.with(Cell::get), LIVE.with(Cell::get));
        (mb(peak - before), mb(after - before))
    });
    assert!(
        added <= 12.5,
        "a warm aggregate raised the live heap by {added:.1} MB"
    );
    assert!(kept.abs() < 0.01, "a warm aggregate kept {kept:.3} MB");
}

/// The same first aggregate at the default lane count (every core the
/// host has, at most one lane per `GRAIN` nodes), counted over every
/// thread: the lanes' buffers and the workers' allocations stay within
/// the one-lane bound.
#[test]
fn the_first_aggregate_on_the_default_lanes_keeps_the_heap_within_25_mb() {
    let _turn = one_at_a_time();
    let threads = SimConfig::default().threads;
    let (peak, lanes) = with_road_session_on(threads, 200, 400, |session| {
        let values = values(200 * 200);
        reset_peak();
        let first = session.aggregate(&values, AggOp::Sum);
        assert!(first.result.all_members_informed);
        (all_peak_mb(), first.threads)
    });
    assert!(
        peak <= 25.0,
        "the first aggregate on {lanes} lanes: live heap peaked at {peak:.1} MB"
    );
}

/// At n = 262 144 (`road_like` 512², 2 621 Voronoi parts) a cold and then
/// a warm aggregate each add at most a fixed number of bytes per node and
/// directed edge to the live heap: the run's memory is its tables and its
/// traffic, with nothing quadratic and no per-node buffer. Release only
/// (`cargo test --release -- --ignored scale_`).
#[test]
#[ignore]
fn scale_aggregate_heap_on_road_like_512() {
    let _turn = one_at_a_time();
    let side = 512;
    let (cold, warm, elements) = with_road_session(side, side * side / 100, |session| {
        let g = session.graph();
        let elements = (g.num_nodes() + 2 * g.num_edges()) as f64;
        let values = values(side * side);
        let mut added = || {
            let before = LIVE.with(Cell::get);
            reset_peak();
            let out = session.aggregate(&values, AggOp::Sum);
            assert!(out.result.all_members_informed && !out.truncated);
            (PEAK.with(Cell::get) - before) as f64
        };
        let cold = added();
        (cold, added(), elements)
    });
    // Measured: cold 137.5, warm 92.4 B per element, of which the warm
    // run's slot states are 47 (about 8 slots per node here); 140 / 95
    // with a 16 B calendar, 198 / 136 with 32 B slot states, 80 B programs
    // and per-run routing tables.
    assert!(
        cold <= 160.0 * elements,
        "cold: {:.1} B per element",
        cold / elements
    );
    assert!(
        warm <= 110.0 * elements,
        "warm: {:.1} B per element",
        warm / elements
    );
}

/// The live heap one exact Theorem 1.5 construction adds, per node: on
/// `road_like` `side`² (seed 7) with `side²/100` Voronoi parts, every part
/// from δ̂ = 1 over the host BFS tree of node 0, its detection on one lane.
fn exact_construction_bytes_per_node(side: usize) -> f64 {
    let seed = 7;
    let g = gen::road_like(side, side, seed);
    let parts = gen::voronoi_parts_seeded(&g, side * side / 100, splitmix(seed, 0x5eed));
    let partition = Partition::from_parts(&g, parts).expect("voronoi cells are connected");
    let tree = bfs::bfs_tree(&g, NodeId(0));
    let all: Vec<PartId> = partition.part_ids().collect();
    let dist = DistConfig {
        mode: DistMode::Exact,
        sim: SimConfig {
            threads: 1,
            ..SimConfig::default()
        },
    };
    let before = LIVE.with(Cell::get);
    reset_peak();
    let res = construct(
        &g,
        &tree,
        &partition,
        &all,
        1,
        &ShortcutConfig::default(),
        Some(&dist),
    )
    .expect("the default round cap");
    assert!(res.cost.messages > 0);
    (PEAK.with(Cell::get) - before) as f64 / g.num_nodes() as f64
}

/// The exact construction on `road_like` 128² (163 parts) adds at most
/// 170 B per node to the live heap: 160.9 measured (207 / 220 at 96² /
/// 64², where fixed costs weigh more); 228.5 while a detection program
/// was 88 B and kept its set after streaming it and the calendar kept
/// 16 B per directed edge.
#[test]
fn the_exact_construction_adds_at_most_170_bytes_per_node() {
    let _turn = one_at_a_time();
    let added = exact_construction_bytes_per_node(128);
    assert!(added <= 170.0, "{added:.1} B per node");
}

/// The same at n = 262 144 (`road_like` 512², 2 621 parts): 160.9 B per
/// node measured, 255 before. Release only (`cargo test --release --
/// --ignored scale_`).
#[test]
#[ignore]
fn scale_construction_heap_on_road_like_512() {
    let _turn = one_at_a_time();
    let added = exact_construction_bytes_per_node(512);
    assert!(added <= 170.0, "{added:.1} B per node");
}

/// The live heap a nested dissection of `road_like` `side`² (seed 7, the
/// default config, every core) holds once it returns, per node, and the
/// build's peak over every thread, in MiB.
fn dissection_heap(side: usize) -> (f64, f64) {
    let g = gen::road_like(side, side, 7);
    let before = ALL_LIVE.load(Ordering::Relaxed);
    reset_peak();
    let tree = nested_dissection(&g, &SeparatorConfig::default());
    let held = ALL_LIVE.load(Ordering::Relaxed) - before;
    let peak = ALL_PEAK.load(Ordering::Relaxed) - before;
    assert!(tree.num_levels() > 1);
    (
        held as f64 / g.num_nodes() as f64,
        peak as f64 / (1 << 20) as f64,
    )
}

/// One node order, a cut arena and a 32 B record per region: the tree of
/// `road_like` 128² holds at most 24 B per node. 19.0 measured; 115.9
/// while every region kept its own sorted node list.
#[test]
fn the_dissection_holds_at_most_24_bytes_per_node() {
    let _turn = one_at_a_time();
    let (held, _) = dissection_heap(128);
    assert!(held <= 24.0, "the dissection holds {held:.1} B per node");
}

/// The same bound at n = 262 144 (`road_like` 512²): 19.1 B per node
/// measured, 134.9 while every region kept its own sorted node list. The
/// build's peak over every thread, on two cores, is 14.1 MiB (the node
/// order, the tree and each worker's scratch); 41.7–42.4 MiB with those
/// lists. Release only (`cargo test --release -- --ignored scale_`).
#[test]
#[ignore]
fn scale_dissection_heap_on_road_like_512() {
    let _turn = one_at_a_time();
    let (held, peak) = dissection_heap(512);
    eprintln!("road_like 512²: {held:.1} B per node held, {peak:.1} MiB peak");
    assert!(held <= 24.0, "the dissection holds {held:.1} B per node");
}
