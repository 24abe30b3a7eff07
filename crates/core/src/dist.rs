//! The distributed `Õ(δ̂D)`-round construction of Theorem 1.5 on the CONGEST
//! simulator.
//!
//! The construction simulates two kinds of phases:
//!
//! 1. **BFS** ([`distributed_bfs`], once per tree): the standard
//!    distributed BFS-tree protocol
//!    ([`lcs_congest::protocols::BfsTreeProgram`]) builds the tree `T` in
//!    `ecc(root) + O(1)` rounds with exactly `2m − (n − 1)` messages. Its
//!    parent rule (minimum-id neighbor one level closer to the root) matches
//!    [`lcs_graph::bfs::bfs_tree`], so the simulated and centralized
//!    constructions operate on the identical tree.
//! 2. **Detection** (once per sweep): a bottom-up convergecast over `T`.
//!    Every node merges the part sets reported by its children (below any
//!    already-cut edge), adds its own part, and cuts its parent edge when
//!    the set size reaches the congestion threshold `c = 8δ̂D`. In
//!    [`DistMode::Exact`] the sets are streamed verbatim (one part id per
//!    `O(log n)`-bit message), which reproduces the centralized Theorem 3.1
//!    cut set edge-for-edge; in [`DistMode::Sketch`] each node forwards
//!    only a `t`-value KMV sketch ([`KmvSketch`]), trading exactness for
//!    `O(t)` messages per edge.
//!
//! Shortcut assembly, the Case (I)/(II) split, and witness extraction are
//! the same function as the centralized sweep,
//! [`partial_shortcut_or_witness`](crate::partial_shortcut_or_witness),
//! which takes the protocol's cut set where it would apply the threshold
//! rule. The paper's dissemination phase runs there, on the host,
//! uncharged: it is not bookkeeping the nodes could do locally, since a
//! part's `B`-degree sums over-edges scattered across `T`. The Observation
//! 2.7 loop around the sweeps is [`construct`](crate::construct).

use crate::Partition;
use lcs_congest::protocols::{extract_tree, BfsTreeProgram};
use lcs_congest::{
    id_bits, splitmix, Ctx, Incoming, MessageSize, NodeProgram, RunMetrics, SimConfig, SimMode,
    Simulator,
};
use lcs_graph::{Graph, NodeId, RootedTree};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A simulated phase hit [`SimConfig::max_rounds`] before quiescence: what
/// it computed so far (part of a tree, part of a cut set) is not a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Truncated {
    /// The phase that was cut short: `"bfs"` or `"detection"`.
    pub phase: &'static str,
    /// The round cap it ran under: [`SimConfig::max_rounds`], at most
    /// `u32::MAX − 64` ([`Simulator::effective_max_rounds`]).
    pub max_rounds: u64,
}

impl fmt::Display for Truncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} phase hit SimConfig::max_rounds ({}) before quiescence — raise the cap",
            self.phase, self.max_rounds
        )
    }
}

impl std::error::Error for Truncated {}

/// Whether a phase run on `sim` reached quiescence.
fn quiesced(metrics: &RunMetrics, phase: &'static str, sim: &Simulator) -> Result<(), Truncated> {
    if metrics.truncated || !metrics.terminated {
        return Err(Truncated {
            phase,
            max_rounds: sim.effective_max_rounds(),
        });
    }
    Ok(())
}

/// How the detection phase represents the part sets it convergecasts.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum DistMode {
    /// Stream the exact part sets (one id per message). Deterministic and
    /// guaranteed to reproduce the centralized cut set; `O(|set|)` messages
    /// per tree edge.
    Exact,
    /// Stream a `t`-value KMV distinct-count sketch instead.
    Sketch {
        /// Sketch capacity (number of retained minima).
        t: usize,
        /// Seed of the shared hash function applied to part ids.
        hash_seed: u64,
        /// The estimate is multiplied by this factor before the threshold
        /// comparison (`>= 1` biases toward cutting, `< 1` against).
        cut_factor: f64,
    },
}

/// Configuration of the distributed construction.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DistConfig {
    /// Detection mode.
    pub mode: DistMode,
    /// Simulator settings. The detection phase forces
    /// [`SimMode::Queued`] since set streaming
    /// sends several messages per edge. [`SimConfig::threads`] selects the
    /// lane count for both phases (by default every core, at most one lane
    /// per [`GRAIN`](lcs_congest::GRAIN) nodes); the construction — cut
    /// set, shortcut, and metrics — is identical at any lane count.
    /// [`SimConfig::message_packing`]` = k > 1` coalesces each node's
    /// upward stream (part ids / sketch values, closed by the `Done`
    /// marker) into multi-value messages, cutting detection rounds ~`k`×
    /// (bandwidth permitting) while leaving the cut set — and therefore
    /// the shortcut — bit-identical.
    pub sim: SimConfig,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            mode: DistMode::Exact,
            sim: SimConfig::default(),
        }
    }
}

/// A `k`-minimum-values sketch over hashed 64-bit items: keeps the `t`
/// smallest distinct hash values seen: exact distinct count below capacity,
/// an unbiased `(t-1)·2⁶⁴/v_t` estimate above it. Inserting one sketch's
/// retained values into another gives the union's sketch — exactly what
/// the sketch detection mode streams up the tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KmvSketch {
    t: usize,
    values: Vec<u64>,
}

impl KmvSketch {
    /// An empty sketch of capacity `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is 0.
    pub fn new(t: usize) -> Self {
        assert!(t >= 1, "sketch capacity must be positive");
        KmvSketch {
            t,
            values: Vec::new(),
        }
    }

    /// Inserts one hashed item.
    pub fn insert(&mut self, hash: u64) {
        kmv_insert(&mut self.values, self.t, hash);
    }

    /// The retained minima, ascending.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Estimated distinct count: exact below capacity, `(t-1)·2⁶⁴/v_t`
    /// at capacity.
    pub fn estimate(&self) -> f64 {
        kmv_estimate(&self.values, self.t)
    }
}

/// [`KmvSketch::insert`] on the bare retained minima of a capacity-`t`
/// sketch, the form a detection node keeps (its run holds `t`).
fn kmv_insert(values: &mut Vec<u64>, t: usize, hash: u64) {
    if let Err(pos) = values.binary_search(&hash) {
        if pos < t {
            values.insert(pos, hash);
            values.truncate(t);
        }
    }
}

/// [`KmvSketch::estimate`] on the bare retained minima of a capacity-`t`
/// sketch.
fn kmv_estimate(values: &[u64], t: usize) -> f64 {
    if values.len() < t {
        values.len() as f64
    } else {
        let kth = values[t - 1];
        (t - 1) as f64 * (u64::MAX as f64) / (kth as f64 + 1.0)
    }
}

/// Messages of the detection convergecast.
#[derive(Clone, Copy, Debug)]
enum DetectMsg {
    /// One part id of the sender's set (exact mode).
    Part(u32),
    /// One retained hash value of the sender's sketch (sketch mode).
    SketchVal(u64),
    /// The sender's stream is complete.
    Done,
}

impl MessageSize for DetectMsg {
    /// Part ids are id payloads (`O(log n)` bits); sketch hash values are
    /// genuine 64-bit payloads and keep their full width.
    fn size_bits_in(&self, n: usize) -> usize {
        match self {
            DetectMsg::Part(_) => 2 + id_bits(n),
            DetectMsg::SketchVal(_) => 2 + 64,
            DetectMsg::Done => 2,
        }
    }

    /// The convergecast streams are runs of one variant (parts or sketch
    /// values) closed by a `Done`, so a packed batch bills the 2-bit
    /// variant tag once per run and each further value at its bare payload
    /// width — this is what lets [`SimConfig::message_packing`] fit 3
    /// sketch hashes (or a whole `message_packing`-sized run of part ids)
    /// into one `O(log n)`-bit message and cut detection rounds
    /// accordingly.
    ///
    /// [`SimConfig::message_packing`]: lcs_congest::SimConfig::message_packing
    fn size_bits_packed_in(&self, prev: &Self, n: usize) -> usize {
        if std::mem::discriminant(self) == std::mem::discriminant(prev) {
            self.size_bits_in(n) - 2
        } else {
            self.size_bits_in(n)
        }
    }
}

/// What every node of one detection run reads alike, held once per run and
/// borrowed by each [`DetectProgram`] instead of copied into it.
struct DetectRun {
    /// Congestion threshold `c`.
    threshold: u32,
    /// Sketch capacity `t`; 0 in exact mode, whose nodes stream exact sets.
    capacity: usize,
    /// Hash seed (sketch mode).
    hash_seed: u64,
    /// Sketch cut factor (1.0 in exact mode).
    cut_factor: f64,
}

impl DetectRun {
    fn new(threshold: u32, mode: DistMode) -> Self {
        match mode {
            DistMode::Exact => DetectRun {
                threshold,
                capacity: 0,
                hash_seed: 0,
                cut_factor: 1.0,
            },
            DistMode::Sketch {
                t,
                hash_seed,
                cut_factor,
            } => {
                // t = 1 is a legal sketch but a degenerate detector: its
                // at-capacity estimate is identically 0, so no edge would
                // ever be cut and the congestion guarantee silently breaks.
                assert!(t >= 2, "sketch detection needs capacity t >= 2");
                DetectRun {
                    threshold,
                    capacity: t,
                    hash_seed,
                    cut_factor,
                }
            }
        }
    }
}

/// A node's part set while it convergecasts, emptied (and its buffer
/// freed) once the node has streamed it upward or cut.
#[derive(Debug)]
enum SetAcc {
    /// Exact mode: every received part id, pushed as it arrives (no
    /// hashing on the ingest hot path) and normalized by one
    /// `sort + dedup` pass when the node finalizes. Duplicates are
    /// bounded by the messages received, so the buffer never exceeds the
    /// node's inbound traffic.
    Exact(Vec<u32>),
    /// Sketch mode: the retained minima of a sketch of the run's capacity.
    Sketch(Vec<u64>),
}

/// The unset `parent_port` / `own_part`.
const NONE: u32 = u32::MAX;

/// The detection-phase program of one node, at most 56 B: the run it
/// shares, its tree position and part as `u32`s with [`NONE`] for unset,
/// three flags and its part set. Only `cut` is read after the run, so the
/// set is dropped as soon as it has been streamed or cut.
struct DetectProgram<'a> {
    run: &'a DetectRun,
    acc: SetAcc,
    /// Port to the tree parent ([`NONE`] at the root and off-tree nodes).
    parent_port: u32,
    /// Tree children that have not sent [`DetectMsg::Done`] yet.
    pending_children: u32,
    /// This node's active part ([`NONE`] if it has none).
    own_part: u32,
    /// Whether this node cut its parent edge.
    cut: bool,
    finished: bool,
    /// Whether the node lies in the tree's component at all.
    in_tree: bool,
}

impl<'a> DetectProgram<'a> {
    /// Node `v`'s program over `tree`, with its active part if it has one.
    fn new(run: &'a DetectRun, g: &Graph, tree: &RootedTree, v: NodeId, part: Option<u32>) -> Self {
        let in_tree = tree.contains(v);
        DetectProgram {
            run,
            acc: match run.capacity {
                0 => SetAcc::Exact(Vec::new()),
                _ => SetAcc::Sketch(Vec::new()),
            },
            parent_port: tree.parent(v).map_or(NONE, |(p, _)| {
                g.port_to(v, p).expect("tree parent is a graph neighbor") as u32
            }),
            pending_children: if in_tree {
                tree.children(v).len() as u32
            } else {
                0
            },
            own_part: part.unwrap_or(NONE),
            cut: false,
            finished: false,
            in_tree,
        }
    }

    fn finalize(&mut self, ctx: &mut Ctx<'_, DetectMsg>) {
        if self.own_part != NONE {
            let run = self.run;
            match &mut self.acc {
                SetAcc::Exact(set) => set.push(self.own_part),
                SetAcc::Sketch(values) => {
                    kmv_insert(values, run.capacity, splitmix(run.hash_seed, self.own_part))
                }
            }
        }
        if self.parent_port != NONE {
            // Size the accumulated set against the threshold, then either
            // cut the parent edge or stream the set upward. Exact mode
            // normalizes (sort + dedup) here — once per node — and streams
            // the already-sorted result. The whole stream (values, then
            // the closing Done) is issued on one port in one callback, which
            // is exactly the shape the engine's message-packing coalesces
            // into multi-value batches.
            let port = self.parent_port as usize;
            let estimate = match &mut self.acc {
                SetAcc::Exact(set) => {
                    set.sort_unstable();
                    set.dedup();
                    set.len() as f64
                }
                SetAcc::Sketch(values) => {
                    kmv_estimate(values, self.run.capacity) * self.run.cut_factor
                }
            };
            if estimate >= f64::from(self.run.threshold) {
                self.cut = true;
            } else {
                match &self.acc {
                    SetAcc::Exact(set) => {
                        for &p in set {
                            ctx.send(port, DetectMsg::Part(p));
                        }
                    }
                    SetAcc::Sketch(values) => {
                        for &v in values {
                            ctx.send(port, DetectMsg::SketchVal(v));
                        }
                    }
                }
            }
            ctx.send(port, DetectMsg::Done);
        }
        match &mut self.acc {
            SetAcc::Exact(set) => *set = Vec::new(),
            SetAcc::Sketch(values) => *values = Vec::new(),
        }
        self.finished = true;
    }
}

impl NodeProgram for DetectProgram<'_> {
    type Msg = DetectMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, DetectMsg>) {
        if !self.in_tree {
            self.finished = true;
        } else if self.pending_children == 0 {
            self.finalize(ctx);
        }
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, DetectMsg>, inbox: &[Incoming<DetectMsg>]) {
        for m in inbox {
            match (m.msg, &mut self.acc) {
                (DetectMsg::Part(p), SetAcc::Exact(set)) => set.push(p),
                (DetectMsg::SketchVal(v), SetAcc::Sketch(values)) => {
                    kmv_insert(values, self.run.capacity, v)
                }
                (DetectMsg::Done, _) => self.pending_children -= 1,
                _ => {}
            }
        }
        if self.pending_children == 0 && !self.finished {
            self.finalize(ctx);
        }
    }

    fn is_done(&self) -> bool {
        self.finished
    }
}

/// The BFS phase: builds the tree from `root` on the simulator and returns
/// it with the metrics of the run.
///
/// # Errors
///
/// [`Truncated`] (`phase: "bfs"`) if the flood hit `sim.max_rounds`.
pub fn distributed_bfs(
    g: &Graph,
    root: NodeId,
    sim: SimConfig,
) -> Result<(RootedTree, RunMetrics), Truncated> {
    let sim = Simulator::new(g, sim);
    let run = sim.run(|v, _| BfsTreeProgram::new(v == root));
    quiesced(&run.metrics, "bfs", &sim)?;
    Ok((extract_tree(g, &run), run.metrics))
}

/// One detection convergecast over `tree` for the parts marked in
/// `is_active` at congestion threshold `threshold`: the cut-edge marks it
/// left and the metrics of the run.
///
/// # Errors
///
/// [`Truncated`] (`phase: "detection"`) if the convergecast hit
/// `dist.sim.max_rounds` — the cut set would be incomplete.
pub(crate) fn detect_cuts(
    g: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    is_active: &[bool],
    threshold: u32,
    dist: &DistConfig,
) -> Result<(Vec<bool>, RunMetrics), Truncated> {
    let sim = Simulator::new(
        g,
        SimConfig {
            mode: SimMode::Queued,
            ..dist.sim
        },
    );
    let shared = DetectRun::new(threshold, dist.mode);
    let run = sim.run(|v, _| {
        let part = partition.part_of(v).filter(|p| is_active[p.index()]);
        DetectProgram::new(&shared, g, tree, v, part.map(|p| p.0))
    });
    quiesced(&run.metrics, "detection", &sim)?;
    let mut fixed_o = vec![false; g.num_edges()];
    for v in g.nodes() {
        if run.programs[v.index()].cut {
            let (_, e) = tree.parent(v).expect("only non-root nodes cut");
            fixed_o[e.index()] = true;
        }
    }
    Ok((fixed_o, run.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measure_quality, partial_shortcut_or_witness, ShortcutConfig, Sweep};
    use lcs_graph::{bfs, gen, EdgeId, PartId};

    /// One sweep over every part of `partition` at `δ̂ = 1` on the BFS tree
    /// of node 0.
    fn sweep_all(
        g: &Graph,
        partition: &Partition,
        dist: Option<&DistConfig>,
    ) -> (Sweep, RunMetrics) {
        let tree = bfs::bfs_tree(g, NodeId(0));
        let all: Vec<PartId> = partition.part_ids().collect();
        let cfg = ShortcutConfig::default();
        partial_shortcut_or_witness(g, &tree, partition, &all, 1, &cfg, dist)
            .expect("default round cap")
    }

    fn cut_edges(sweep: &Sweep) -> Vec<EdgeId> {
        sweep.data.over_edges.iter().map(|oe| oe.edge).collect()
    }

    /// A program shares its run's threshold and mode constants and keeps
    /// its tree position and part in `u32`s: 88 B while it copied them.
    #[test]
    fn a_detection_program_is_at_most_fifty_six_bytes() {
        assert!(std::mem::size_of::<DetectProgram<'_>>() <= 56);
    }

    /// After the run a node holds no set: every node streamed its set or
    /// cut, and freed it either way, in both modes.
    #[test]
    fn a_finished_node_keeps_no_set() {
        let g = gen::grid(12, 12);
        let partition = Partition::from_parts(&g, gen::singleton_parts(&g)).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let sketch = DistMode::Sketch {
            t: 8,
            hash_seed: 0xbeef,
            cut_factor: 1.0,
        };
        for mode in [DistMode::Exact, sketch] {
            let queued = SimConfig {
                mode: SimMode::Queued,
                ..SimConfig::default()
            };
            let sim = Simulator::new(&g, queued);
            let shared = DetectRun::new(40, mode);
            let run = sim.run(|v, _| {
                let part = partition.part_of(v).map(|p| p.0);
                DetectProgram::new(&shared, &g, &tree, v, part)
            });
            assert!(run.metrics.terminated);
            assert!(run.programs.iter().any(|p| p.cut), "{mode:?}");
            for p in &run.programs {
                let held = match &p.acc {
                    SetAcc::Exact(set) => set.capacity(),
                    SetAcc::Sketch(values) => values.capacity(),
                };
                assert!(p.finished && held == 0, "{mode:?}");
            }
        }
    }

    /// A cap above what the engine resolves still ends in the typed error,
    /// which reports the cap the run ran under.
    #[test]
    fn an_unbounded_cap_truncates_at_the_resolved_cap() {
        let g = gen::path(3);
        let sim = Simulator::new(
            &g,
            SimConfig {
                max_rounds: u64::MAX,
                ..SimConfig::default()
            },
        );
        let cut_short = RunMetrics {
            truncated: true,
            ..RunMetrics::default()
        };
        let err = quiesced(&cut_short, "detection", &sim).unwrap_err();
        assert_eq!(err.phase, "detection");
        assert_eq!(err.max_rounds, u64::from(u32::MAX) - 64);
        let done = RunMetrics {
            terminated: true,
            ..RunMetrics::default()
        };
        assert_eq!(quiesced(&done, "detection", &sim), Ok(()));
        // A run under that cap ends at quiescence as under any other.
        let (tree, flood) = distributed_bfs(
            &g,
            NodeId(0),
            SimConfig {
                max_rounds: u64::MAX,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert!(flood.terminated && tree.contains(NodeId(2)));
    }

    #[test]
    fn kmv_exact_below_capacity() {
        let mut s = KmvSketch::new(8);
        for v in [5u64, 3, 5, 9, 1] {
            s.insert(v);
        }
        assert_eq!(s.values(), &[1, 3, 5, 9]);
        assert_eq!(s.estimate() as usize, 4);
    }

    /// Inserting one sketch's retained values into another, as the
    /// detection does with a child's report, gives the union's sketch.
    #[test]
    fn kmv_merge_equals_union() {
        let mut a = KmvSketch::new(4);
        let mut b = KmvSketch::new(4);
        let mut whole = KmvSketch::new(4);
        for (i, v) in [9u64, 2, 7, 4, 11, 3, 8].iter().enumerate() {
            if i % 2 == 0 {
                a.insert(*v);
            } else {
                b.insert(*v);
            }
            whole.insert(*v);
        }
        for &v in b.values() {
            a.insert(v);
        }
        assert_eq!(a.values(), whole.values());
    }

    #[test]
    fn exact_mode_matches_centralized_cut_set_on_grid() {
        // 256 singletons against c = 8·30: an edge above ≥ 240 nodes cuts.
        let g = gen::grid(16, 16);
        let partition = Partition::from_parts(&g, gen::singleton_parts(&g)).unwrap();
        let (res, run) = sweep_all(&g, &partition, Some(&DistConfig::default()));
        let (central, _) = sweep_all(&g, &partition, None);
        assert!(
            !central.data.over_edges.is_empty(),
            "the instance must cut edges"
        );
        assert_eq!(cut_edges(&res), cut_edges(&central));
        assert!(run.terminated && run.messages > 0);
    }

    #[test]
    fn full_construction_satisfies_bounds_on_rows() {
        let g = gen::grid(8, 8);
        let partition = Partition::from_parts(&g, gen::rows_of_grid(8, 8)).unwrap();
        let (cfg, dist) = (ShortcutConfig::default(), DistConfig::default());
        let (tree, flood) = distributed_bfs(&g, NodeId(0), dist.sim).unwrap();
        let central = bfs::bfs_tree(&g, NodeId(0));
        assert!(g.nodes().all(|v| tree.parent(v) == central.parent(v)));
        let all: Vec<PartId> = partition.part_ids().collect();
        let res = crate::construct(&g, &tree, &partition, &all, 1, &cfg, Some(&dist)).unwrap();
        let q = measure_quality(&g, &partition, &tree, &res.shortcut);
        assert!(q.tree_restricted && q.all_connected());
        let bound = cfg.envelope(res.delta_hat, tree.depth_of_tree(), res.successful_rounds);
        assert!(q.max_blocks <= bound.blocks);
        assert!(flood.rounds > 0 && res.cost.rounds > 0 && res.cost.messages > 0);
    }

    #[test]
    #[should_panic(expected = "outside the tree")]
    fn rejects_parts_outside_root_component() {
        let g = lcs_graph::Graph::from_edges(4, [(0, 1), (2, 3)]);
        let partition = Partition::from_parts(&g, vec![vec![NodeId(2)]]).unwrap();
        sweep_all(&g, &partition, Some(&DistConfig::default()));
    }

    #[test]
    fn sketch_mode_is_deterministic_and_valid() {
        let g = gen::grid(6, 6);
        let parts = gen::singleton_parts(&g);
        let partition = Partition::from_parts(&g, parts).unwrap();
        let dist = DistConfig {
            mode: DistMode::Sketch {
                t: 8,
                hash_seed: 0xbeef,
                cut_factor: 1.0,
            },
            ..DistConfig::default()
        };
        let (a, run_a) = sweep_all(&g, &partition, Some(&dist));
        let (b, run_b) = sweep_all(&g, &partition, Some(&dist));
        assert_eq!(cut_edges(&a), cut_edges(&b));
        assert_eq!((a.shortcut.clone(), run_a), (b.shortcut, run_b));
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let q = measure_quality(&g, &partition, &tree, &a.shortcut);
        assert!(q.tree_restricted);

        // Accuracy, on an instance large enough that edges do get cut. A
        // `t = 16` KMV estimate carries ~25% relative error, so the sketch
        // may cut different tree edges than the exact detector; its
        // decisions must stay inside the estimator's error band. `data`
        // is derived on the host, so `oe.parts` is each cut's true load.
        let g = gen::grid(32, 32);
        let partition = Partition::from_parts(&g, gen::singleton_parts(&g)).unwrap();
        let dist = DistConfig {
            mode: DistMode::Sketch {
                t: 16,
                hash_seed: 0xbeef,
                cut_factor: 1.0,
            },
            ..DistConfig::default()
        };
        let data = sweep_all(&g, &partition, Some(&dist)).0.data;
        assert!(!data.over_edges.is_empty(), "the instance must cut edges");
        let threshold = data.congestion_threshold as usize;
        for oe in &data.over_edges {
            assert!(
                2 * oe.parts.len() >= threshold,
                "sketch cut {:?} at true load {} < 0.5 × threshold {threshold}",
                oe.edge,
                oe.parts.len()
            );
        }
        let exact = sweep_all(&g, &partition, None).0.data.over_edges.len();
        let sketch = data.over_edges.len();
        assert!(
            4 * sketch >= exact && sketch <= 4 * exact,
            "sketch cut {sketch} edges vs {exact} exact — outside the [1/4, 4] band"
        );
    }
}
