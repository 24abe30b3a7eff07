//! The round-driven simulation engine.
//!
//! # Architecture
//!
//! The engine is split into focused layers (see each module's docs):
//!
//! - [`topology`] — per-run routing without per-edge tables: the shard
//!   layout of the node-id space, and where a send arrives (the neighbour
//!   on the sender's port and its port back, a binary search in the
//!   neighbour's sorted heads; the receiving shard is arithmetic on the
//!   shard bounds). A shard's delivery partition is indexed by its own
//!   nodes' CSR slots `first_out[w] + port`.
//! - [`delivery`] — pluggable delivery backends behind the `Delivery`
//!   trait, instantiated **once per receiver shard**: strict mode is a
//!   flat send arena drained in one linear pass; queued mode is a
//!   bucketed **calendar queue** (per-round buckets indexed by
//!   `slot % horizon`, an overflow ring for deeper backlogs, per-edge
//!   sorted lists in one pooled entry arena, and delivery-time merging of
//!   queued same-priority messages under `message_packing`).
//! - [`shard`] — a contiguous node range owning its programs, one flat
//!   inbox (a round's envelopes counting-sorted by receiver) and wake
//!   bookkeeping, and packing its nodes' sends; the unit of parallel work.
//! - [`parallel`] — the round loop, the one executor every run goes
//!   through: each *lane* (a shard plus its delivery partition) runs
//!   `on_start` as round 0, then per round ingests routed envelopes,
//!   stages, computes, and validates/bit-accounts its own sends — the one
//!   place a send is checked and billed. The coordinator's serial window
//!   between rounds is an `O(threads)` account fold, a prefix sum of send
//!   counts (the sequence-number bases), and a mailbox rotation — no
//!   per-message serial work. Lanes run on the calling thread until a
//!   round's due work reaches [`GRAIN`] per thread, which starts the
//!   worker threads; `threads = 1`, a small graph at the default
//!   `threads = 0`, and a run whose rounds stay light are the same loop,
//!   spawning nothing.
//!
//! Determinism: every per-message decision happens inside a lane, in an
//! order fixed by the topology (nodes ascending within a shard, issue
//! order within a node, sender-shard-major ingestion), and the exact
//! global sequence numbers are reconstructed from the per-shard send
//! counts via a prefix sum in shard order. Metrics are folded from the
//! per-lane accounts in shard order. The pinned conformance corpus
//! (`tests/sim_conformance.rs`) is therefore bit-identical at every
//! [`SimConfig::threads`] setting.

mod delivery;
mod parallel;
mod shard;
mod topology;

use crate::{MessageSize, PhaseTimings, RunMetrics};
use delivery::{CalendarDelivery, StrictDelivery};
use lcs_graph::{EdgeId, Graph, NodeId};
use parallel::Exec;
use serde::{Deserialize, Serialize};
use shard::Shard;
use std::sync::OnceLock;
use std::time::Instant;
use topology::Topology;

/// How the engine treats sends beyond one message per edge per round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SimMode {
    /// Pure CONGEST: a second message over the same directed edge in one
    /// round is a protocol bug and panics. With
    /// [`SimConfig::message_packing`]` = k > 1`, up to `k` same-port sends
    /// of one callback coalesce into one message first, so a short burst
    /// that fits one packed envelope is legal; only a second envelope on
    /// the same edge panics.
    #[default]
    Strict,
    /// Sends are queued per directed edge and drained one per round in
    /// priority order (ties: FIFO). This models running several protocol
    /// instances side by side with a scheduler: part-wise aggregation
    /// (optionally with random start delays, [LMR94, Gha15]) and
    /// multi-unicast routing, which gives every packet a random priority.
    Queued,
}

/// Simulator configuration. The per-message budget is not a setting: it is
/// `4·⌈log₂(n+1)⌉ + 128` bits ([`Simulator::bandwidth_bits`]), the usual
/// `O(log n)` CONGEST budget with constant headroom for a few ids plus one
/// aggregate value per message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Send discipline.
    pub mode: SimMode,
    /// Hard cap on simulated rounds (guards against non-terminating
    /// protocols). A run cut short by the cap reports
    /// [`RunMetrics::truncated`]` = true`. A run resolves the cap to at
    /// most `u32::MAX − 64` rounds ([`Simulator::effective_max_rounds`]):
    /// the delivery tables keep round numbers as `u32`s, and queued
    /// delivery claims rounds up to 64 ahead of the current one.
    pub max_rounds: u64,
    /// Lanes of the round loop: the node-id space is split into this many
    /// contiguous shards, run round-robin by up to as many OS threads as
    /// the host has cores. `0` (the default) resolves to two lanes per core
    /// of the host's available parallelism — one lane on a single core —
    /// and at most one lane per [`GRAIN`] nodes, so a graph of fewer than
    /// `2 · GRAIN` nodes runs on one lane; any other value is taken as it
    /// is, capped at 64 and at the node count. `1` is one lane on the
    /// calling thread. A multi-lane run starts its worker threads only at
    /// the first round whose due work (envelopes in flight plus wake-ups)
    /// reaches [`GRAIN`] per thread; the rounds before it run every lane on
    /// the calling thread, and a run that never gets that heavy spawns
    /// nothing. **Any setting yields bit-identical metrics**: the lanes'
    /// sends are sequence-numbered in shard order, so rounds, messages,
    /// bits, and max_queue never depend on the lane count or on which
    /// thread ran a lane.
    pub threads: usize,
    /// Multi-value message packing factor. `1` (the default) is the
    /// unpacked engine: every send is its own message, metrics are
    /// bit-identical to every prior engine version. At `k > 1` the engine
    /// groups the sends of one node-round by `(port, priority)` — a stable
    /// sort, so each group keeps its issue order — and coalesces up to `k`
    /// sends of a group into one [`PackedMsg`] batch, greedily while the
    /// batch's true packed width (first value full-size, later values at
    /// their [`MessageSize::size_bits_packed_in`] marginal cost) fits the
    /// per-message bandwidth budget. A batch is one CONGEST message — one
    /// `messages` tick, one queue slot, one delivery round — which is how
    /// the `O(log n)`-bit bandwidth carries `k` values of `O(log n / k)`
    /// bits each and streaming convergecasts drop their round counts ~`k`×.
    /// Receivers observe the identical value sequence at every packing
    /// level (batches unpack into individual [`Incoming`] entries in issue
    /// order), so protocol *results* never depend on this knob. `0` is
    /// treated as `1`.
    ///
    /// [`PackedMsg`]: crate::PackedMsg
    pub message_packing: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mode: SimMode::Strict,
            max_rounds: 1_000_000,
            threads: 0,
            message_packing: 1,
        }
    }
}

/// A message delivered to a node this round.
///
/// The order of messages within one round's inbox is deterministic for a
/// fixed engine version but otherwise **unspecified** (it changed in the
/// batched-delivery rewrite); protocols must treat it as adversarial, as
/// the CONGEST model demands, and key any tie-breaking on `port` or
/// message content instead.
#[derive(Clone, Debug)]
pub struct Incoming<M> {
    /// The local port (index into the node's neighbor list) it arrived on.
    pub port: usize,
    /// The payload.
    pub msg: M,
}

/// The per-node protocol logic.
///
/// Programs are event-driven: [`on_round`](NodeProgram::on_round) fires only
/// when the node received messages or previously called
/// [`Ctx::wake_next_round`]. The run ends when every program reports
/// [`is_done`](NodeProgram::is_done), no messages are in flight, and no
/// wake-ups are pending.
pub trait NodeProgram {
    /// The message type exchanged by this protocol.
    type Msg: Clone + MessageSize;

    /// Called once before the first round; typically initiators send here.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called each round the node is active, with the messages delivered
    /// this round.
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: &[Incoming<Self::Msg>]);

    /// Local termination flag.
    fn is_done(&self) -> bool;
}

/// The node's view of the network during a callback.
pub struct Ctx<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) round: u64,
    /// The node's CSR neighbor slice (sorted by id); `heads[port]` is the
    /// node on `port`.
    pub(crate) heads: &'a [NodeId],
    /// Incident edge ids, parallel to `heads`.
    pub(crate) edges: &'a [EdgeId],
    /// Sends issued by this node: `(port, priority, msg)`; the shard
    /// resolves `port` to where the send arrives after the callback.
    pub(crate) outbox: &'a mut Vec<(u32, u64, M)>,
    pub(crate) wake: &'a mut bool,
}

impl<M> Ctx<'_, M> {
    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current round (1-based; 0 during `on_start`).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of incident edges.
    pub fn degree(&self) -> usize {
        self.heads.len()
    }

    /// The neighbor id on `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree()`.
    pub fn neighbor(&self, port: usize) -> NodeId {
        self.heads[port]
    }

    /// The edge id on `port` (useful for reporting; protocols should not
    /// treat it as topology knowledge beyond the incident edge).
    pub fn edge(&self, port: usize) -> EdgeId {
        self.edges[port]
    }

    /// The port leading to neighbor `v`, if adjacent.
    pub fn port_to(&self, v: NodeId) -> Option<usize> {
        self.heads.binary_search(&v).ok()
    }

    /// Sends `msg` over `port` with default priority 0.
    ///
    /// With [`SimConfig::message_packing`]` > 1`, sends to the same port
    /// with the same priority within one callback are coalesced into
    /// multi-value messages (up to the packing factor and the bandwidth
    /// budget), in issue order, wherever they sit among the callback's
    /// other sends — burst-style senders get this for free.
    pub fn send(&mut self, port: usize, msg: M) {
        self.send_with_priority(port, msg, 0);
    }

    /// Sends `msg` over `port` with an explicit scheduling priority (lower
    /// values drain first in queued mode; ignored in strict mode).
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn send_with_priority(&mut self, port: usize, msg: M, priority: u64) {
        assert!(port < self.heads.len(), "send on invalid port {port}");
        self.outbox.push((port as u32, priority, msg));
    }

    /// Sends a copy of `msg` to every neighbor.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for port in 0..self.heads.len() {
            let m = msg.clone();
            self.send(port, m);
        }
    }

    /// Requests an `on_round` callback next round even without incoming
    /// messages (for streaming senders and timeout logic).
    pub fn wake_next_round(&mut self) {
        *self.wake = true;
    }
}

/// Result of a run: final program states plus metrics.
#[derive(Debug)]
pub struct RunOutcome<P> {
    /// One program per node, in node-id order.
    pub programs: Vec<P>,
    /// Exact execution counts.
    pub metrics: RunMetrics,
    /// Wall-clock phase breakdown of this execution (not deterministic,
    /// unlike `metrics`; see [`PhaseTimings`] for bucket semantics).
    pub timings: PhaseTimings,
}

/// The CONGEST simulator for a fixed graph.
#[derive(Debug)]
pub struct Simulator<'g> {
    graph: &'g Graph,
    config: SimConfig,
}

impl<'g> Simulator<'g> {
    /// Creates a simulator over `graph`. The config is normalized here —
    /// the single place `message_packing == 0` becomes `1` and
    /// `max_rounds` is capped at `u32::MAX − 64` — so every consumer
    /// downstream reads the stored value as-is.
    pub fn new(graph: &'g Graph, config: SimConfig) -> Self {
        let config = SimConfig {
            message_packing: config.message_packing.max(1),
            max_rounds: config.max_rounds.min(ROUND_CAP),
            ..config
        };
        Simulator { graph, config }
    }

    /// The per-message bandwidth in bits, `4·⌈log₂(n+1)⌉ + 128`.
    pub fn bandwidth_bits(&self) -> usize {
        let n = self.graph.num_nodes().max(1) as f64;
        4 * (n + 1.0).log2().ceil() as usize + 128
    }

    /// The lane count [`SimConfig::threads`] resolves to on this host and
    /// graph.
    pub fn effective_threads(&self) -> usize {
        let n = self.graph.num_nodes().max(1);
        let t = match (self.config.threads, host_parallelism()) {
            (0, 1) => 1,
            // Two lanes per core: the threads run the lanes round-robin, so
            // work that piles up at one end of the id range (the part-wise
            // echo's, near the BFS root at node 0) still spreads over them.
            (0, cores) => (2 * cores).min(n / GRAIN),
            (t, _) => t,
        };
        t.clamp(1, 64).min(n)
    }

    /// The packing factor [`SimConfig::message_packing`] resolves to
    /// (`0` was normalized to `1` at construction).
    pub fn effective_packing(&self) -> usize {
        self.config.message_packing
    }

    /// The round cap [`SimConfig::max_rounds`] resolves to: the configured
    /// value, at most `u32::MAX − 64` (see [`SimConfig::max_rounds`]).
    pub fn effective_max_rounds(&self) -> u64 {
        self.config.max_rounds
    }

    /// Runs one program per node (constructed by `init`) to quiescence or
    /// the round cap.
    ///
    /// `init` runs exactly once per node, in ascending id order, on the
    /// calling thread, before round 0 (no `on_start` has run yet) — at
    /// every [`SimConfig::threads`] setting. A caller may rely on it, e.g.
    /// to hand each program the next sub-slice of one run-wide arena, as
    /// the part-wise aggregation does.
    ///
    /// # Panics
    ///
    /// Panics if a program violates the CONGEST constraints: oversized
    /// messages, or (in strict mode) two sends over one directed edge in one
    /// round. Violations raised on a worker thread are re-raised on the
    /// calling thread.
    pub fn run<P, F>(&self, init: F) -> RunOutcome<P>
    where
        P: NodeProgram + Send,
        P::Msg: Send,
        F: FnMut(NodeId, &Graph) -> P,
    {
        self.run_on(Exec::host(), init).0
    }

    /// [`run`](Self::run) on an explicit thread plan (tests force the OS
    /// thread count and the grain to exercise the multi-thread schedule on
    /// single-core hosts and small graphs); also returns the number of
    /// worker threads the run started.
    pub(crate) fn run_on<P, F>(&self, exec: Exec, mut init: F) -> (RunOutcome<P>, usize)
    where
        P: NodeProgram + Send,
        P::Msg: Send,
        F: FnMut(NodeId, &Graph) -> P,
    {
        let begun = Instant::now();
        let g = self.graph;
        let topo = Topology::build(g, self.effective_threads());
        let (pack, budget) = (self.effective_packing(), self.bandwidth_bits());
        // One vector holds every program; each shard borrows its run of it,
        // so the run hands the vector back as it is.
        let mut programs: Vec<P> = g.nodes().map(|v| init(v, g)).collect();
        let mut rest = &mut programs[..];
        let lanes = 0..topo.num_shards();
        let shards: Vec<Shard<'_, P>> = lanes
            .clone()
            .map(|s| {
                let (lo, hi) = topo.shard_range(s);
                let (own, tail) = std::mem::take(&mut rest).split_at_mut((hi - lo) as usize);
                rest = tail;
                Shard::new(g, lo, own, pack, budget)
            })
            .collect();
        // `parts[s]` is receiver shard `s`'s delivery partition.
        let (metrics, timings, workers) = match self.config.mode {
            SimMode::Strict => parallel::drive_lanes(
                &self.config,
                &topo,
                budget,
                lanes
                    .map(|s| StrictDelivery::new(topo.shard_dirs(s)))
                    .collect(),
                shards,
                exec,
                begun,
            ),
            SimMode::Queued => parallel::drive_lanes(
                &self.config,
                &topo,
                budget,
                lanes
                    .map(|s| CalendarDelivery::new(topo.shard_dirs(s), pack, budget))
                    .collect(),
                shards,
                exec,
                begun,
            ),
        };
        let outcome = RunOutcome {
            programs,
            metrics,
            timings,
        };
        (outcome, workers)
    }
}

/// Nodes per lane, and due work per thread, from which running lanes on
/// threads of their own pays. [`SimConfig::threads`]` = 0` gives a graph
/// at most one lane per `GRAIN` nodes, and a multi-lane run starts its
/// worker threads at the first round whose due work — envelopes in flight
/// plus wake-ups — reaches `GRAIN` per thread.
///
/// Chosen on 2 vCPUs at seed 7. Per node: `algos_cold`'s `road_like` 64²
/// (4 096 nodes, hundreds of short runs per op) and `serve_mixed`'s grid
/// 32² stay on one lane, which takes `GRAIN > 2 048`. Per thread, so 5 120
/// at two threads: the cold part-wise echo of the `churn_answer` instance
/// (`road_like` 200², 400 parts; 1 076 rounds, 575 113 messages, at most
/// ≈ 12 000 envelopes in flight) reaches it in its fourth round, and would
/// at up to four threads; a BFS flood of `road_like` 256² (≤ 643 in
/// flight) never does, so it runs no threads; the sketch detection of
/// `construct_cold` starts them in its first round (≈ 16 000 in flight).
/// With the default four lanes on two threads that first aggregate took
/// 178 ms, against 209 on two lanes and 248 on one (medians of 11
/// alternating runs in one process).
pub const GRAIN: usize = 2_560;

/// The most rounds a run executes, whatever [`SimConfig::max_rounds`]
/// says: `u32::MAX − 64`. Strict delivery stamps each directed edge with
/// `round + 1` and queued delivery's token clocks claim rounds up to 64
/// (its calendar width) past the current one, both as `u32`s; under this
/// cap neither wraps inside a run. At a million rounds a second that is
/// over an hour of simulated time.
pub(crate) const ROUND_CAP: u64 = u32::MAX as u64 - delivery::HORIZON;

/// The host's available parallelism (1 when it cannot be queried), asked
/// once per process: the query reads the affinity mask and the cgroup
/// files — tens of microseconds that every short run would pay again.
fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Gives an empty buffer its first, small allocation on the calling
/// thread, so that a worker thread grows it with `realloc` — which stays in
/// the allocator arena the buffer came from — instead of filling an arena
/// of its own.
fn prime<T>(buf: &mut Vec<T>) {
    if buf.capacity() == 0 {
        buf.reserve(1);
    }
}

/// SplitMix64-style mixer: derives a well-mixed 64-bit value from a seed
/// and a 32-bit salt — the shared deterministic hash protocols draw their
/// randomness from (the sketch detection of the distributed shortcut
/// construction, Boruvka's public coins).
pub fn splitmix(seed: u64, salt: u32) -> u64 {
    let mut z = seed ^ (u64::from(salt).wrapping_mul(0x9e3779b97f4a7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::gen;

    /// Floods the maximum node id; every node is done once it stops hearing
    /// larger values.
    pub(super) struct MaxFlood {
        pub best: u32,
    }

    impl NodeProgram for MaxFlood {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            let best = self.best;
            ctx.broadcast(best);
        }

        fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[Incoming<u32>]) {
            let mut improved = false;
            for m in inbox {
                if m.msg > self.best {
                    self.best = m.msg;
                    improved = true;
                }
            }
            if improved {
                let best = self.best;
                ctx.broadcast(best);
            }
        }

        fn is_done(&self) -> bool {
            true // quiescence-detected
        }
    }

    #[test]
    fn packing_zero_normalizes_at_construction() {
        let g = gen::path(4);
        let cfg = SimConfig {
            message_packing: 0,
            ..SimConfig::default()
        };
        let sim = Simulator::new(&g, cfg);
        assert_eq!(sim.effective_packing(), 1);
        // ...and a packing-0 run behaves exactly like packing-1.
        let run0 = sim.run(|v, _| MaxFlood { best: v.0 });
        let run1 = Simulator::new(&g, SimConfig::default()).run(|v, _| MaxFlood { best: v.0 });
        assert_eq!(run0.metrics.counts(), run1.metrics.counts());
    }

    #[test]
    fn max_flood_converges_in_diameter_rounds() {
        let g = gen::path(10);
        let sim = Simulator::new(&g, SimConfig::default());
        let run = sim.run(|v, _| MaxFlood { best: v.0 });
        assert!(run.metrics.terminated);
        assert!(run.programs.iter().all(|p| p.best == 9));
        // Node 9 is at one end: the value needs 9 hops, +1 quiescence round.
        assert!(run.metrics.rounds >= 9 && run.metrics.rounds <= 11);
    }

    #[test]
    fn strict_mode_rejects_double_send() {
        #[derive(Debug)]
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
        // `on_start` is the lanes' round 0. One lane pushes node 0's sends
        // straight into its own partition; at four lanes node 1 lives on
        // lane 1, which meets the double send when it ingests its mailbox.
        let g = gen::path(4);
        for threads in [1, 4] {
            let sim = Simulator::new(&g, with_threads(threads));
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sim.run(|_, _| DoubleSend)
            }));
            let payload = result.expect_err("a strict double send must panic");
            let msg = panic_message(payload.as_ref());
            assert!(msg.contains("sent twice"), "threads={threads}: {msg}");
        }
    }

    #[test]
    fn queued_mode_drains_by_priority() {
        /// Node 0 enqueues three messages to node 1 in one round with
        /// descending priority values; node 1 records arrival order.
        struct Sender;
        impl NodeProgram for Sender {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                if ctx.node() == NodeId(0) {
                    ctx.send_with_priority(0, 30, 3);
                    ctx.send_with_priority(0, 10, 1);
                    ctx.send_with_priority(0, 20, 2);
                }
            }
            fn on_round(&mut self, _: &mut Ctx<'_, u32>, _: &[Incoming<u32>]) {}
            fn is_done(&self) -> bool {
                true
            }
        }
        struct Recorder(Vec<u32>);
        enum Either {
            S(Sender),
            R(Recorder),
        }
        impl NodeProgram for Either {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                if let Either::S(s) = self {
                    s.on_start(ctx);
                }
            }
            fn on_round(&mut self, _: &mut Ctx<'_, u32>, inbox: &[Incoming<u32>]) {
                if let Either::R(r) = self {
                    r.0.extend(inbox.iter().map(|m| m.msg));
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
                Either::S(Sender)
            } else {
                Either::R(Recorder(Vec::new()))
            }
        });
        assert!(run.metrics.terminated);
        assert_eq!(run.metrics.rounds, 3); // one message per round
        assert_eq!(run.metrics.max_queue, 3);
        let Either::R(r) = &run.programs[1] else {
            panic!("node 1 is the recorder");
        };
        assert_eq!(r.0, vec![10, 20, 30]);
    }

    #[test]
    fn bandwidth_is_enforced() {
        struct BigMsg;
        #[derive(Clone)]
        struct Huge;
        impl MessageSize for Huge {
            fn size_bits_in(&self, _n: usize) -> usize {
                1 << 20
            }
        }
        impl NodeProgram for BigMsg {
            type Msg = Huge;
            fn on_start(&mut self, ctx: &mut Ctx<'_, Huge>) {
                if ctx.node() == NodeId(0) {
                    ctx.send(0, Huge);
                }
            }
            fn on_round(&mut self, _: &mut Ctx<'_, Huge>, _: &[Incoming<Huge>]) {}
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = gen::path(2);
        let sim = Simulator::new(&g, SimConfig::default());
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run(|_, _| BigMsg)));
        assert!(result.is_err());
    }

    #[test]
    fn wake_next_round_ticks_without_messages() {
        struct Counter {
            ticks: u32,
        }
        impl NodeProgram for Counter {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                ctx.wake_next_round();
            }
            fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, _: &[Incoming<u32>]) {
                self.ticks += 1;
                if self.ticks < 5 {
                    ctx.wake_next_round();
                }
            }
            fn is_done(&self) -> bool {
                self.ticks >= 5
            }
        }
        let g = gen::path(2);
        let sim = Simulator::new(&g, SimConfig::default());
        let run = sim.run(|_, _| Counter { ticks: 0 });
        assert!(run.metrics.terminated);
        assert_eq!(run.metrics.rounds, 5);
        assert!(run.programs.iter().all(|p| p.ticks == 5));
    }

    #[test]
    fn max_rounds_caps_runaway_protocols() {
        struct Forever;
        impl NodeProgram for Forever {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                ctx.wake_next_round();
            }
            fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, _: &[Incoming<u32>]) {
                ctx.wake_next_round();
            }
            fn is_done(&self) -> bool {
                false
            }
        }
        let g = gen::path(8);
        for threads in [1, 4] {
            let sim = Simulator::new(
                &g,
                SimConfig {
                    max_rounds: 10,
                    ..with_threads(threads)
                },
            );
            let run = sim.run(|_, _| Forever);
            assert!(!run.metrics.terminated, "threads={threads}");
            assert!(
                run.metrics.truncated,
                "hitting the cap with pending work must be observable"
            );
            assert_eq!(run.metrics.rounds, 10, "threads={threads}");
        }
    }

    /// The cap resolves below the `u32` rounds of the delivery tables,
    /// whatever the config asks; a cap below it is kept as it is.
    #[test]
    fn the_round_cap_resolves_below_the_u32_tables() {
        let g = gen::path(2);
        let cap = |max_rounds| {
            let config = SimConfig {
                max_rounds,
                ..SimConfig::default()
            };
            Simulator::new(&g, config).effective_max_rounds()
        };
        assert_eq!(cap(u64::MAX), ROUND_CAP);
        assert_eq!(cap(ROUND_CAP + 1), ROUND_CAP);
        assert_eq!(ROUND_CAP + delivery::HORIZON, u64::from(u32::MAX));
        for max_rounds in [0, 10, 1_000_000, ROUND_CAP] {
            assert_eq!(cap(max_rounds), max_rounds);
        }
    }

    #[test]
    fn quiescent_runs_are_not_truncated() {
        let g = gen::path(10);
        let sim = Simulator::new(&g, SimConfig::default());
        let run = sim.run(|v, _| MaxFlood { best: v.0 });
        assert!(run.metrics.terminated);
        assert!(!run.metrics.truncated);
    }

    #[test]
    fn truncation_with_messages_in_flight_is_flagged() {
        // MaxFlood on a long path needs ~n rounds; cap it far below that.
        let g = gen::path(40);
        for threads in [1, 4] {
            let sim = Simulator::new(
                &g,
                SimConfig {
                    max_rounds: 5,
                    ..with_threads(threads)
                },
            );
            let run = sim.run(|v, _| MaxFlood { best: v.0 });
            assert!(run.metrics.truncated, "threads={threads}");
            assert!(!run.metrics.terminated, "threads={threads}");
            assert_eq!(run.metrics.rounds, 5, "threads={threads}");
            // The flood cannot have finished.
            assert!(run.programs.iter().any(|p| p.best != 39));
        }
    }

    #[test]
    fn determinism_across_runs() {
        let g = gen::grid(4, 4);
        let sim = Simulator::new(&g, SimConfig::default());
        let a = sim.run(|v, _| MaxFlood { best: v.0 });
        let b = sim.run(|v, _| MaxFlood { best: v.0 });
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn thread_count_does_not_change_metrics_or_results() {
        let g = gen::grid(7, 9);
        let baseline = Simulator::new(&g, SimConfig::default()).run(|v, _| MaxFlood { best: v.0 });
        for threads in [2, 3, 4, 7] {
            let sim = Simulator::new(
                &g,
                SimConfig {
                    threads,
                    ..SimConfig::default()
                },
            );
            let run = sim.run(|v, _| MaxFlood { best: v.0 });
            assert_eq!(
                run.metrics.counts(),
                baseline.metrics.counts(),
                "threads={threads}"
            );
            assert_eq!(run.metrics.threads, threads, "execution config recorded");
            assert!(run.programs.iter().all(|p| p.best == 62));
        }
    }

    #[test]
    fn queued_mode_is_thread_count_invariant() {
        struct Burst;
        impl NodeProgram for Burst {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                for port in 0..ctx.degree() {
                    for k in 0..3u32 {
                        ctx.send_with_priority(port, k, u64::from(3 - k));
                    }
                }
            }
            fn on_round(&mut self, _: &mut Ctx<'_, u32>, _: &[Incoming<u32>]) {}
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = gen::torus(4, 4);
        let run_with = |threads| {
            Simulator::new(
                &g,
                SimConfig {
                    mode: SimMode::Queued,
                    threads,
                    ..SimConfig::default()
                },
            )
            .run(|_, _| Burst)
            .metrics
        };
        let t1 = run_with(1);
        assert_eq!(t1.max_queue, 3);
        for threads in [2, 4, 5] {
            assert_eq!(run_with(threads).counts(), t1.counts(), "threads={threads}");
        }
    }

    /// Panics in node 5's first `on_round`.
    #[derive(Debug)]
    pub(super) struct Bomb;
    impl NodeProgram for Bomb {
        type Msg = u32;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            ctx.wake_next_round();
        }
        fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, _: &[Incoming<u32>]) {
            if ctx.node() == NodeId(5) {
                panic!("protocol bug on node 5");
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    /// The message of a caught panic (`&str` or `String` payload).
    pub(super) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    fn with_threads(threads: usize) -> SimConfig {
        SimConfig {
            threads,
            ..SimConfig::default()
        }
    }

    /// The `init` contract of [`Simulator::run`], with the lanes forced
    /// onto as many OS threads as there are lanes from round 0 on.
    #[test]
    fn init_runs_once_per_node_in_order_on_the_calling_thread_before_round_0() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct Probe<'a> {
            built: &'a AtomicUsize,
            n: usize,
        }
        impl NodeProgram for Probe<'_> {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                assert_eq!(
                    self.built.load(Ordering::SeqCst),
                    self.n,
                    "built before round 0"
                );
                ctx.broadcast(ctx.node().0);
            }
            fn on_round(&mut self, _: &mut Ctx<'_, u32>, _: &[Incoming<u32>]) {}
            fn is_done(&self) -> bool {
                true
            }
        }
        let g = gen::grid(5, 7);
        let caller = std::thread::current().id();
        for threads in [1, 2, 4, 8] {
            let (built, mut order) = (AtomicUsize::new(0), Vec::new());
            let sim = Simulator::new(&g, with_threads(threads));
            let exec = Exec { threads, grain: 0 };
            let (run, _) = sim.run_on(exec, |v, _| {
                assert_eq!(std::thread::current().id(), caller, "threads={threads}");
                order.push(v.0);
                built.fetch_add(1, Ordering::SeqCst);
                Probe {
                    built: &built,
                    n: g.num_nodes(),
                }
            });
            assert_eq!(run.metrics.threads, threads);
            assert_eq!(order, (0..35).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let g = gen::path(8);
        for threads in [1, 4] {
            let sim = Simulator::new(&g, with_threads(threads));
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run(|_, _| Bomb)));
            let payload = result.expect_err("the lane panic must reach the caller");
            let msg = panic_message(payload.as_ref());
            assert!(
                msg.contains("protocol bug on node 5"),
                "threads={threads}: {msg}"
            );
        }
    }

    #[test]
    fn phase_timings_fill_every_bucket_within_the_run_wall() {
        // One meaning at any lane count: ingest + staging, callbacks, and
        // flush + serial window are each timed inside the calling thread's
        // lane phases, so all three are non-zero and sum to at most the
        // wall of `run`.
        let g = gen::grid(40, 40);
        for threads in [1, 4] {
            let sim = Simulator::new(&g, with_threads(threads));
            let t0 = std::time::Instant::now();
            let run = sim.run(|v, _| MaxFlood { best: v.0 });
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t = run.timings;
            assert!(run.metrics.terminated);
            assert!(t.stage_ms > 0.0, "threads={threads}: {t:?}");
            assert!(t.compute_ms > 0.0, "threads={threads}: {t:?}");
            assert!(t.merge_ms > 0.0, "threads={threads}: {t:?}");
            let sum = t.stage_ms + t.compute_ms + t.merge_ms;
            assert!(sum <= wall_ms, "threads={threads}: {sum} > {wall_ms}");
        }
    }

    /// A `u32` value billed at `BITS` bits.
    #[derive(Clone, Copy)]
    struct Wide<const BITS: usize>(u32);
    impl<const BITS: usize> MessageSize for Wide<BITS> {
        fn size_bits_in(&self, _n: usize) -> usize {
            BITS
        }
    }

    /// Node 0 bursts `count` `BITS`-bit values at node 1 in one callback;
    /// node 1 records arrivals per round.
    struct BurstSender {
        count: u32,
    }
    struct BurstRecorder {
        values: Vec<u32>,
        per_round: Vec<usize>,
    }
    enum BurstP<const BITS: usize> {
        S(BurstSender),
        R(BurstRecorder),
    }
    impl<const BITS: usize> NodeProgram for BurstP<BITS> {
        type Msg = Wide<BITS>;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Wide<BITS>>) {
            if let BurstP::S(s) = self {
                for k in 0..s.count {
                    ctx.send(0, Wide(k));
                }
            }
        }
        fn on_round(&mut self, _: &mut Ctx<'_, Wide<BITS>>, inbox: &[Incoming<Wide<BITS>>]) {
            if let BurstP::R(r) = self {
                r.per_round.push(inbox.len());
                r.values.extend(inbox.iter().map(|m| m.msg.0));
            }
        }
        fn is_done(&self) -> bool {
            true
        }
    }

    fn run_burst<const BITS: usize>(
        mode: SimMode,
        packing: usize,
        count: u32,
    ) -> (RunMetrics, Vec<u32>, Vec<usize>) {
        let g = gen::path(2);
        let sim = Simulator::new(
            &g,
            SimConfig {
                mode,
                message_packing: packing,
                ..SimConfig::default()
            },
        );
        let run = sim.run(|v, _| {
            if v == NodeId(0) {
                BurstP::<BITS>::S(BurstSender { count })
            } else {
                BurstP::R(BurstRecorder {
                    values: Vec::new(),
                    per_round: Vec::new(),
                })
            }
        });
        let BurstP::R(r) = &run.programs[1] else {
            panic!("node 1 records");
        };
        (run.metrics, r.values.clone(), r.per_round.clone())
    }

    #[test]
    fn packing_coalesces_queued_bursts_and_cuts_rounds() {
        let (unpacked, base_vals, _) = run_burst::<32>(SimMode::Queued, 1, 12);
        assert_eq!(unpacked.rounds, 12);
        assert_eq!(unpacked.messages, 12);
        let (packed, vals, per_round) = run_burst::<32>(SimMode::Queued, 4, 12);
        // 12 values in envelopes of 4 → 3 messages, 3 rounds, same payload.
        assert_eq!(packed.rounds, 3);
        assert_eq!(packed.messages, 3);
        assert_eq!(packed.max_queue, 3);
        assert_eq!(vals, base_vals, "payload sequence is packing-invariant");
        assert_eq!(per_round, vec![4, 4, 4]);
        // Plain u32 has no shared framing: bits are exactly invariant.
        assert_eq!(packed.bits, unpacked.bits);
        assert_eq!(packed.packing, 4);
        assert_eq!(unpacked.packing, 1);
    }

    #[test]
    fn strict_mode_admits_bursts_within_one_packed_envelope() {
        // 3 consecutive sends at packing 4 fit one envelope: legal strict
        // traffic (one message on the edge), delivered in one round.
        let (m, vals, _) = run_burst::<32>(SimMode::Strict, 4, 3);
        assert_eq!(m.messages, 1);
        assert_eq!(m.rounds, 1);
        assert_eq!(vals, vec![0, 1, 2]);
        // 5 sends overflow into a second envelope → strict double-send.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_burst::<32>(SimMode::Strict, 4, 5)
        }));
        assert!(result.is_err(), "a second envelope must still panic");
    }

    #[test]
    fn packing_respects_the_bandwidth_budget() {
        // The 136-bit budget at n = 2 fits two 48-bit values but not three,
        // whatever the packing factor says.
        let (m, vals, per_round) = run_burst::<48>(SimMode::Queued, 8, 6);
        assert_eq!(m.bandwidth_bits, 136);
        assert_eq!(m.messages, 3, "6 values / 2 per 136-bit envelope");
        assert_eq!(per_round, vec![2, 2, 2]);
        assert_eq!(vals, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn packing_only_coalesces_same_priority_runs() {
        struct MixedPrio;
        struct Rec(Vec<u32>);
        enum P {
            S(MixedPrio),
            R(Rec),
        }
        impl NodeProgram for P {
            type Msg = u32;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
                if let P::S(_) = self {
                    ctx.send_with_priority(0, 1, 5);
                    ctx.send_with_priority(0, 2, 5);
                    ctx.send_with_priority(0, 3, 0); // priority break
                }
            }
            fn on_round(&mut self, _: &mut Ctx<'_, u32>, inbox: &[Incoming<u32>]) {
                if let P::R(r) = self {
                    r.0.extend(inbox.iter().map(|m| m.msg));
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
                message_packing: 8,
                ..SimConfig::default()
            },
        );
        let run = sim.run(|v, _| {
            if v == NodeId(0) {
                P::S(MixedPrio)
            } else {
                P::R(Rec(Vec::new()))
            }
        });
        // Two envelopes: [1, 2] at priority 5 and [3] at priority 0; the
        // lower priority value still drains first.
        assert_eq!(run.metrics.messages, 2);
        assert_eq!(run.metrics.rounds, 2);
        let P::R(r) = &run.programs[1] else {
            panic!("node 1 records");
        };
        assert_eq!(r.0, vec![3, 1, 2]);
    }

    #[test]
    fn packed_metrics_are_thread_count_invariant() {
        let g = gen::grid(6, 6);
        let run_with = |threads| {
            Simulator::new(
                &g,
                SimConfig {
                    mode: SimMode::Queued,
                    threads,
                    message_packing: 4,
                    ..SimConfig::default()
                },
            )
            .run(|v, _| MaxFlood { best: v.0 })
            .metrics
        };
        let t1 = run_with(1);
        for threads in [2, 4] {
            assert_eq!(run_with(threads).counts(), t1.counts(), "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_resolves_to_host_parallelism() {
        let g = gen::grid(4, 4);
        let sim = Simulator::new(
            &g,
            SimConfig {
                threads: 0,
                ..SimConfig::default()
            },
        );
        assert!(sim.effective_threads() >= 1);
        let run = sim.run(|v, _| MaxFlood { best: v.0 });
        let base = Simulator::new(&g, SimConfig::default()).run(|v, _| MaxFlood { best: v.0 });
        assert_eq!(run.metrics.counts(), base.metrics.counts());
        assert_eq!(run.metrics.threads, sim.effective_threads());
    }
}
