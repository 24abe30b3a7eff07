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
    /// The round cap it ran under.
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

/// Whether a phase run under `sim` reached quiescence.
fn quiesced(metrics: &RunMetrics, phase: &'static str, sim: &SimConfig) -> Result<(), Truncated> {
    if metrics.truncated || !metrics.terminated {
        return Err(Truncated {
            phase,
            max_rounds: sim.max_rounds,
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
        match self.values.binary_search(&hash) {
            Ok(_) => {}
            Err(pos) => {
                if pos < self.t {
                    self.values.insert(pos, hash);
                    self.values.truncate(self.t);
                }
            }
        }
    }

    /// The retained minima, ascending.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Estimated distinct count: exact below capacity, `(t-1)·2⁶⁴/v_t`
    /// at capacity.
    pub fn estimate(&self) -> f64 {
        if self.values.len() < self.t {
            self.values.len() as f64
        } else {
            let kth = self.values[self.t - 1];
            (self.t - 1) as f64 * (u64::MAX as f64) / (kth as f64 + 1.0)
        }
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

/// Exact-mode part-set accumulator: a plain `Vec` on the ingest hot path
/// (every received part id is an O(1) push — no hashing), normalized by one
/// `sort + dedup` pass at finalization, right before the set is sized
/// against the threshold and streamed upward. Duplicates are bounded by the
/// messages received, so the buffer never exceeds the node's inbound
/// traffic.
#[derive(Clone, Debug, Default)]
struct VecSet {
    items: Vec<u32>,
}

impl VecSet {
    fn insert(&mut self, part: u32) {
        self.items.push(part);
    }

    /// Sorts, dedups, and returns the set contents (ascending).
    fn normalize(&mut self) -> &[u32] {
        self.items.sort_unstable();
        self.items.dedup();
        &self.items
    }
}

/// Per-node accumulator of the convergecast.
#[derive(Clone, Debug)]
enum SetAcc {
    Exact(VecSet),
    Sketch(KmvSketch),
}

/// The detection-phase program of one node.
struct DetectProgram {
    /// Port to the tree parent (`None` at the root and off-tree nodes).
    parent_port: Option<usize>,
    /// Tree children that have not sent [`DetectMsg::Done`] yet.
    pending_children: usize,
    /// This node's active part, pre-hashed for sketch mode.
    own_part: Option<u32>,
    acc: SetAcc,
    /// Congestion threshold `c`.
    threshold: u32,
    /// Sketch cut factor (1.0 in exact mode).
    cut_factor: f64,
    /// Hash seed (sketch mode).
    hash_seed: u64,
    /// Whether this node cut its parent edge.
    cut: bool,
    finished: bool,
    /// Whether the node lies in the tree's component at all.
    in_tree: bool,
}

impl DetectProgram {
    fn finalize(&mut self, ctx: &mut Ctx<'_, DetectMsg>) {
        if let Some(p) = self.own_part {
            match &mut self.acc {
                SetAcc::Exact(set) => set.insert(p),
                SetAcc::Sketch(s) => s.insert(splitmix(self.hash_seed, p)),
            }
        }
        if let Some(port) = self.parent_port {
            // Size the accumulated set against the threshold, then either
            // cut the parent edge or stream the set upward. Exact mode
            // normalizes (sort + dedup) here — once per node — and streams
            // the already-sorted result. The whole stream (values, then
            // the closing Done) is issued on one port in one callback, which
            // is exactly the shape the engine's message-packing coalesces
            // into multi-value batches.
            let estimate = match &mut self.acc {
                SetAcc::Exact(set) => set.normalize().len() as f64,
                SetAcc::Sketch(s) => s.estimate() * self.cut_factor,
            };
            if estimate >= f64::from(self.threshold) {
                self.cut = true;
            } else {
                match &self.acc {
                    SetAcc::Exact(set) => {
                        for &p in &set.items {
                            ctx.send(port, DetectMsg::Part(p));
                        }
                    }
                    SetAcc::Sketch(s) => {
                        for &v in s.values() {
                            ctx.send(port, DetectMsg::SketchVal(v));
                        }
                    }
                }
            }
            ctx.send(port, DetectMsg::Done);
        }
        self.finished = true;
    }
}

impl NodeProgram for DetectProgram {
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
            match m.msg {
                DetectMsg::Part(p) => {
                    if let SetAcc::Exact(set) = &mut self.acc {
                        set.insert(p);
                    }
                }
                DetectMsg::SketchVal(v) => {
                    if let SetAcc::Sketch(s) = &mut self.acc {
                        s.insert(v);
                    }
                }
                DetectMsg::Done => self.pending_children -= 1,
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
    let run = Simulator::new(g, sim).run(|v, _| BfsTreeProgram::new(v == root));
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
    let run = sim.run(|v, _| {
        let in_tree = tree.contains(v);
        let parent_port = if in_tree {
            tree.parent(v)
                .map(|(p, _)| g.port_to(v, p).expect("tree parent is a graph neighbor"))
        } else {
            None
        };
        let (acc, cut_factor, hash_seed) = match dist.mode {
            DistMode::Exact => (SetAcc::Exact(VecSet::default()), 1.0, 0),
            DistMode::Sketch {
                t,
                hash_seed,
                cut_factor,
            } => {
                // t = 1 is a legal sketch but a degenerate detector: its
                // at-capacity estimate is identically 0, so no edge would
                // ever be cut and the congestion guarantee silently breaks.
                assert!(t >= 2, "sketch detection needs capacity t >= 2");
                (SetAcc::Sketch(KmvSketch::new(t)), cut_factor, hash_seed)
            }
        };
        DetectProgram {
            parent_port,
            pending_children: if in_tree { tree.children(v).len() } else { 0 },
            own_part: partition
                .part_of(v)
                .filter(|p| is_active[p.index()])
                .map(|p| p.0),
            acc,
            threshold,
            cut_factor,
            hash_seed,
            cut: false,
            finished: false,
            in_tree,
        }
    });
    quiesced(&run.metrics, "detection", &dist.sim)?;
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
