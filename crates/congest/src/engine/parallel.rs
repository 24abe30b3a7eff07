//! The round loop: the one executor every run goes through.
//!
//! All per-message work happens **inside the lanes**. A *lane* pairs a
//! [`Shard`] with the delivery partition of the dirs its nodes receive,
//! and one lane phase is one round of that shard, timed into the three
//! [`PhaseTimings`] buckets:
//!
//! 1. **Ingest + stage** (`stage_ms`): push the mailboxes routed to the
//!    lane last round (sender-lane order) into its own delivery partition
//!    with the *exact global sequence number* reconstructed as
//!    `mail.base + idx + 1`, then move the round's due deliveries straight
//!    into the shard's inbound buffer. Round 0 has nothing to ingest.
//! 2. **Compute** (`compute_ms`): the node callbacks — `on_start` in
//!    round 0 ([`Shard::run_start`]), `on_round` afterwards
//!    ([`Shard::run_round`]).
//! 3. **Flush** (`merge_ms`): validate each send against the bandwidth
//!    budget, account its bits, and route it — tagged with its lane-local
//!    send index — to the receiving lane's mailbox for the *next* round.
//!    This is the only place a send is validated or billed.
//!
//! Between two rounds the coordinator (the calling thread) runs a serial
//! window that is `O(lanes)`, not `O(messages)`, and is also booked under
//! `merge_ms`: fold the per-lane accounts into the run metrics in lane
//! order, decide quiescence / the round cap, prefix-sum the per-lane send
//! counts **in lane order** to obtain each lane's sequence base for the
//! finished round, and rotate the mailbox buffers (the receiver's drained
//! vec swaps back to the sender — the steady state allocates nothing).
//!
//! # Lane 0 skips the mailbox
//!
//! Lane 0's sends are the first of the round in the global order, so its
//! sequence base *is* the running `seq` — known before the round starts.
//! It therefore pushes the sends addressed to its own partition straight
//! into that partition with the exact `seq + idx + 1`, and they precede
//! everything the other lanes route there (ingested next round), exactly
//! as the mailbox order would have it. A single-lane run (`threads = 1`)
//! thus never buffers a round's traffic twice: the partition's staged
//! messages land in the shard's inbound buffer and its outbox flushes
//! directly back.
//!
//! # Determinism argument
//!
//! The global send order is defined as: lanes in ascending order, nodes
//! ascending within a lane, issue order within a node. The prefix sum
//! gives lane `t` the base `seq + Σ_{u<t} sends_u`, so
//! `base + idx + 1` reproduces the exact sequence numbers a serial merge
//! in that order would have assigned. A partition only ever sees the
//! envelopes addressed to its own dirs, in sender-lane-major order — a
//! filter of the fixed global order, hence itself fixed. Metrics are
//! folded from the per-lane [`ShardAccount`]s in lane order. None of
//! this depends on which OS thread runs which lane, so rounds, messages,
//! bits, and max_queue are bit-identical at any thread count — the pinned
//! corpus in `tests/sim_conformance.rs` checks exactly this.
//!
//! # Execution
//!
//! Lanes are the *determinism* unit; OS threads are the *execution* unit.
//! `exec = min(available_parallelism, lanes)` threads run the lanes
//! round-robin (thread `w` owns lanes `w, w + exec, …`; the calling thread
//! is thread 0) between two barriers per round. With `exec == 1` — one
//! lane, or a single-core host — the same loop runs on the calling thread
//! alone: no worker is spawned, the barrier has one participant and falls
//! through, and no lock is ever contended. With `exec > 1`, rounds are
//! microseconds long, so the barrier is a spin barrier (sense-reversing,
//! two atomics) with a `yield_now` fallback for oversubscribed hosts. A
//! panic inside a lane phase (a protocol assertion, an oversized message,
//! a strict-mode double send) is caught, parked until the barrier cycle
//! completes (a raw unwind past a barrier would deadlock everyone else),
//! and re-raised on the calling thread once the workers have been shut
//! down.

use super::delivery::{Delivery, ShardAccount};
use super::shard::Shard;
use super::topology::Topology;
use super::{host_parallelism, NodeProgram, RunMetrics, RunOutcome, SimConfig};
use crate::{MessageSize, PackedMsg, PhaseTimings};
use lcs_graph::Graph;
use std::ops::DerefMut;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A sense-reversing spin barrier for `total` participants.
///
/// Spins briefly, then yields — on a loaded or single-core host the
/// participants degrade to cooperative scheduling instead of burning the
/// quantum. With one participant every `wait` returns at once.
struct SpinBarrier {
    total: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        SpinBarrier {
            total,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // Last arrival: reset the count, then open the next generation.
            // Every other participant is past its own increment (it read
            // `gen` first), so the reset cannot race a stale arrival.
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins = spins.saturating_add(1);
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// One routed envelope: a validated send awaiting ingestion by the
/// receiving lane.
struct Env<M> {
    dir: u32,
    priority: u64,
    /// Send index within the sending lane's round (0-based); the global
    /// sequence number is `Mail::base + idx + 1`.
    idx: u32,
    msg: M,
}

/// A mailbox: the envelopes one sender lane routed to one receiver lane
/// in one round, plus the sender's sequence base for that round.
struct Mail<M> {
    base: u64,
    envs: Vec<Env<M>>,
}

/// A lane: one shard plus the delivery partition of the dirs it receives,
/// its mailboxes, and its per-round account. The unit of deterministic
/// work; several lanes may share one OS thread.
struct Lane<P: NodeProgram, D> {
    shard: Shard<P>,
    part: D,
    /// `in_from[t]`: the mailbox sender lane `t` routed to this lane last
    /// round. Ingested in `t` order (= global send order filtered to this
    /// partition's dirs).
    in_from: Vec<Mail<PackedMsg<P::Msg>>>,
    /// `out_to[s]`: envelopes this lane's nodes sent to receiver lane `s`
    /// this round, in issue order, tagged with lane-local send indices.
    out_to: Vec<Vec<Env<PackedMsg<P::Msg>>>>,
    account: ShardAccount,
}

/// Milliseconds of a [`Duration`], for the phase-timing accumulators.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One lane's full round: ingest → stage → compute → flush (round 0:
/// `on_start` → flush). Runs with no access to any other lane's state;
/// panics (program, bandwidth or strict-mode assertions) unwind to the
/// calling thread's catch.
///
/// `own_base` is `Some(seq)` for lane 0 only — its sequence base for this
/// round is the running `seq` (see the module docs), which lets it push
/// the sends it receives itself straight into its partition.
fn lane_phase<P, D>(
    lane: &mut Lane<P, D>,
    g: &Graph,
    topo: &Topology<'_>,
    round: u64,
    bandwidth: usize,
    own_base: Option<u64>,
    timings: &mut PhaseTimings,
) where
    P: NodeProgram,
    D: Delivery<PackedMsg<P::Msg>>,
{
    let Lane {
        shard,
        part,
        in_from,
        out_to,
        account: acc,
    } = lane;
    *acc = ShardAccount::default();
    let t0 = Instant::now();

    if round > 0 {
        // Ingest: last round's sends routed to this partition, sender-lane
        // major. The senders executed in `round - 1`, which is the round
        // the delivery backends schedule from.
        for mail in in_from.iter_mut() {
            for env in mail.envs.drain(..) {
                part.push(
                    env.dir,
                    env.priority,
                    mail.base + u64::from(env.idx) + 1,
                    env.msg,
                    round - 1,
                    topo,
                );
            }
        }
        // Stage this round's due deliveries straight into the shard's
        // inbound buffer — no coordinator staging pass, no extra copy.
        debug_assert!(shard.inbound.is_empty());
        part.stage(round, topo, &mut shard.inbound, acc);
    }
    let t1 = Instant::now();

    // Compute: `on_start` is round 0.
    if round == 0 {
        shard.run_start(g);
    } else {
        shard.run_round(g, topo, round);
    }
    let t2 = Instant::now();

    // Flush: validate + bit-account this lane's own sends and route each
    // envelope to the lane that receives it. `idx` is the lane-local send
    // index the coordinator's prefix sum turns into exact global seqs.
    // Sizing is `n`-aware ([`MessageSize::size_bits_in`]): id payloads are
    // billed at `O(log n)` bits, as the CONGEST model assumes; a packed
    // envelope bills its true multi-value width (see [`PackedMsg`]) and
    // must fit the budget like any other message.
    let n = topo.num_nodes();
    let mut idx = 0u32;
    for send in shard.outbox.drain(..) {
        // Sized through the reference and only then taken apart: with the
        // tuple destructured in the loop head and two places for `msg` to
        // go, LLVM spills the envelope through overlapping stack slots — a
        // store-forwarding stall per message, +35 % on this loop.
        let bits = send.2.size_bits_in(n);
        assert!(
            bits <= bandwidth,
            "message of {bits} bits exceeds the {bandwidth}-bit CONGEST bandwidth"
        );
        acc.bits += bits as u64;
        let (dir, priority, msg) = send;
        match (own_base, topo.dir_shard(dir)) {
            (Some(base), 0) => {
                part.push(dir, priority, base + u64::from(idx) + 1, msg, round, topo)
            }
            (_, to) => out_to[to].push(Env {
                dir,
                priority,
                idx,
                msg,
            }),
        }
        idx += 1;
    }
    acc.sends = u64::from(idx);
    acc.wakes = shard.pending_wakes();
    acc.pending = part.pending();
    let t3 = Instant::now();
    timings.stage_ms += ms(t1 - t0);
    timings.compute_ms += ms(t2 - t1);
    timings.merge_ms += ms(t3 - t2);
}

/// The coordinator's mailbox rotation: assigns each lane its sequence
/// base for the finished round (prefix sum of send counts in lane
/// order — the determinism keystone) and swaps every `out_to[s]` with the
/// matching `in_from[t]` buffer, so the receiver gets the envelopes and
/// the sender gets a drained vec back. `O(lanes²)` pointer swaps, no
/// envelope is copied.
fn rotate_mailboxes<P, D>(lanes: &mut [impl DerefMut<Target = Lane<P, D>>], seq: &mut u64)
where
    P: NodeProgram,
{
    let count = lanes.len();
    for t in 0..count {
        let base = *seq;
        *seq += lanes[t].account.sends;
        for s in 0..count {
            if s == t {
                let Lane {
                    in_from, out_to, ..
                } = &mut *lanes[t];
                std::mem::swap(&mut out_to[t], &mut in_from[t].envs);
                in_from[t].base = base;
            } else {
                let (a, b) = lanes.split_at_mut(s.max(t));
                let (sender, receiver) = if t < s {
                    (&mut *a[t], &mut *b[0])
                } else {
                    (&mut *b[0], &mut *a[s])
                };
                std::mem::swap(&mut sender.out_to[s], &mut receiver.in_from[t].envs);
                receiver.in_from[t].base = base;
            }
        }
    }
}

/// Runs `shards.len()` lanes from round 0 (`on_start`) to quiescence or
/// the round cap.
///
/// `exec_override` forces the OS thread count (tests use it to exercise
/// the multi-thread schedule on single-core hosts); `None` resolves to the
/// host parallelism.
pub(super) fn drive_lanes<P, D>(
    config: &SimConfig,
    g: &Graph,
    topo: &Topology<'_>,
    bandwidth: usize,
    parts: Vec<D>,
    shards: Vec<Shard<P>>,
    exec_override: Option<usize>,
) -> RunOutcome<P>
where
    P: NodeProgram + Send,
    P::Msg: Send,
    D: Delivery<PackedMsg<P::Msg>> + Send,
{
    let count = shards.len();
    debug_assert_eq!(parts.len(), count);
    let cells: Vec<Mutex<Lane<P, D>>> = shards
        .into_iter()
        .zip(parts)
        .map(|(shard, part)| {
            Mutex::new(Lane {
                shard,
                part,
                in_from: (0..count)
                    .map(|_| Mail {
                        base: 0,
                        envs: Vec::new(),
                    })
                    .collect(),
                out_to: (0..count).map(|_| Vec::new()).collect(),
                account: ShardAccount::default(),
            })
        })
        .collect();
    let exec = exec_override
        .unwrap_or_else(host_parallelism)
        .clamp(1, count);

    let mut metrics = RunMetrics {
        threads: count,
        bandwidth_bits: bandwidth,
        packing: config.message_packing,
        ..RunMetrics::default()
    };
    let barrier = SpinBarrier::new(exec);
    let stop = AtomicBool::new(false);
    let lane_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let mut timings = PhaseTimings::default();
    let mut seq = 0u64;

    std::thread::scope(|scope| {
        for w in 1..exec {
            let (cells, lane_panic) = (&cells, &lane_panic);
            let (barrier, stop) = (&barrier, &stop);
            scope.spawn(move || {
                // Workers never run lane 0 and report no timings (see
                // `PhaseTimings`: the buckets are the calling thread's).
                let mut unreported = PhaseTimings::default();
                // Every release is the next round, counted from 0 like the
                // coordinator's `metrics.rounds`.
                for round in 0u64.. {
                    barrier.wait(); // released by the coordinator
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        for cell in cells.iter().skip(w).step_by(exec) {
                            let lane = &mut lock(cell);
                            lane_phase(lane, g, topo, round, bandwidth, None, &mut unreported);
                        }
                    }));
                    if let Err(payload) = result {
                        lock(lane_panic).get_or_insert(payload);
                    }
                    barrier.wait(); // round work done
                }
            });
        }

        // The coordinator must not unwind between barriers (the workers
        // would deadlock): its own lane phases are caught like a worker's,
        // and the serial window is guarded by this outer catch.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Every lane's guard during the serial window; allocated once
            // so the steady-state round allocates nothing.
            let mut lanes = Vec::with_capacity(count);
            loop {
                // Parallel region: every lane runs round `metrics.rounds`; the
                // coordinator is thread 0.
                let round = metrics.rounds;
                barrier.wait(); // release the workers into the round
                let own = catch_unwind(AssertUnwindSafe(|| {
                    for (t, cell) in cells.iter().enumerate().step_by(exec) {
                        let own_base = (t == 0).then_some(seq);
                        let lane = &mut lock(cell);
                        lane_phase(lane, g, topo, round, bandwidth, own_base, &mut timings);
                    }
                }));
                if let Err(payload) = own {
                    lock(&lane_panic).get_or_insert(payload);
                }
                barrier.wait(); // wait for every lane to finish
                if lock(&lane_panic).is_some() {
                    break; // re-raised below, after the workers are stopped
                }

                // Serial window: the workers are parked at the release
                // barrier, so every lock is uncontended.
                let t0 = Instant::now();
                lanes.extend(cells.iter().map(lock));
                let (mut inflight, mut wakes) = (0usize, 0usize);
                for acc in lanes.iter().map(|l| l.account) {
                    metrics.bits += acc.bits;
                    metrics.messages += acc.messages;
                    metrics.max_queue = metrics.max_queue.max(acc.max_queue);
                    inflight += acc.pending + acc.sends as usize;
                    wakes += acc.wakes;
                }
                if inflight == 0 && wakes == 0 {
                    metrics.terminated = lanes.iter().all(|l| l.shard.all_done());
                    break;
                }
                if metrics.rounds >= config.max_rounds {
                    metrics.truncated = true;
                    break;
                }
                rotate_mailboxes(&mut lanes, &mut seq);
                metrics.rounds += 1;
                lanes.clear(); // unlock for the next round's phases
                timings.merge_ms += ms(t0.elapsed());
            }
        }));

        // Shut the workers down (they are parked at the release barrier).
        stop.store(true, Ordering::Release);
        barrier.wait();
        if let Err(payload) = outcome {
            lock(&lane_panic).get_or_insert(payload);
        }
    });

    if let Some(payload) = lock(&lane_panic).take() {
        resume_unwind(payload);
    }

    // One lane hands its program vector over as it is; further lanes
    // append to it.
    let mut shards = cells
        .into_iter()
        .map(|c| c.into_inner().unwrap_or_else(|e| e.into_inner()).shard);
    let mut programs = shards.next().map_or_else(Vec::new, Shard::into_programs);
    for shard in shards {
        programs.extend(shard.into_programs());
    }
    RunOutcome {
        programs,
        metrics,
        timings,
    }
}

/// Locks ignoring poison: a poisoned lane only occurs on a lane panic,
/// which the coordinator re-raises anyway.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::super::tests::{panic_message, Bomb, MaxFlood};
    use super::super::Simulator;
    use super::*;
    use lcs_graph::gen;

    /// A max-flood over `lanes` lanes with the OS thread count forced to
    /// `exec` — the only way to exercise the multi-thread schedule on a
    /// single-core host.
    fn run_max_flood(g: &Graph, lanes: usize, exec: usize) -> (Vec<MaxFlood>, RunMetrics) {
        let config = SimConfig {
            threads: lanes,
            ..SimConfig::default()
        };
        let run = Simulator::new(g, config).run_on(Some(exec), |v, _| MaxFlood { best: v.0 });
        (run.programs, run.metrics)
    }

    #[test]
    fn forced_exec_counts_yield_identical_runs() {
        let g = gen::grid(7, 9);
        let (base_progs, base) = run_max_flood(&g, 4, 1);
        assert!(base.terminated);
        assert!(base_progs.iter().all(|p| p.best == 62));
        for exec in [2, 3, 4] {
            let (progs, metrics) = run_max_flood(&g, 4, exec);
            assert_eq!(metrics, base, "exec={exec}");
            assert!(progs.iter().all(|p| p.best == 62), "exec={exec}");
        }
        // Lanes ≠ exec ≠ divisor cases: uneven round-robin assignment.
        let (_, m7) = run_max_flood(&g, 7, 3);
        let (_, m7b) = run_max_flood(&g, 7, 1);
        assert_eq!(m7, m7b);
        assert_eq!(m7.counts(), base.counts());
    }

    #[test]
    fn lane_panics_propagate_at_every_exec_count() {
        // Node 5 of 8 lives on lane 2 of 4: thread 0's second lane at
        // exec 1 and 2, a spawned worker's lane at exec 3 and 4.
        let g = gen::path(8);
        let config = SimConfig {
            threads: 4,
            ..SimConfig::default()
        };
        for exec in [1, 2, 3, 4] {
            let sim = Simulator::new(&g, config);
            let result = catch_unwind(AssertUnwindSafe(|| sim.run_on(Some(exec), |_, _| Bomb)));
            let payload = result.expect_err("the lane panic must reach the caller");
            let msg = panic_message(payload.as_ref());
            assert!(msg.contains("protocol bug on node 5"), "exec={exec}: {msg}");
        }
    }
}
