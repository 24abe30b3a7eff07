//! The round loop: the one executor every run goes through.
//!
//! All per-message work happens **inside the lanes**. A *lane* pairs a
//! [`Shard`] with the delivery partition of the dirs its nodes receive,
//! and one lane phase is one round of that shard, timed into three of the
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
//! as the mailbox order would have it. A single-lane run thus never
//! buffers a round's traffic twice: the partition's staged messages land
//! in the shard's inbound buffer and its outbox flushes directly back.
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
//! Lanes are the *determinism* unit; OS threads are the *execution* unit,
//! and a run starts threads only once its rounds are heavy. A round's
//! *due work* is what the previous serial window counted: envelopes in
//! flight plus wake-ups (round 0, `on_start`, has none). Until a round's
//! due work reaches [`Exec::grain`] per thread, the calling thread runs
//! every lane's phase itself, in lane order, through the same mailboxes —
//! no worker, no barrier, no contended lock. The first round that reaches
//! it starts `exec − 1` worker threads, `exec = min(threads, lanes)`, and
//! from then on every round runs the lanes round-robin (thread `w` owns
//! lanes `w, w + exec, …`; the calling thread is thread 0) between two
//! barriers, whose waits the calling thread books as `wait_ms` (the worker
//! start, like the set-up before round 0, goes to `setup_ms`). A lane
//! does not go back to the calling thread for a lighter
//! round: moving its working set between cores round by round cost the
//! cold part-wise echo more than the barrier it saved (on 2 vCPUs and two
//! lanes, 270 against 211 ms for the `churn_answer` instance's first
//! aggregate). A run with one lane, or one core, never starts a thread.
//! Rounds are microseconds long, so the barrier is a spin barrier
//! (sense-reversing, two atomics) with a `yield_now` fallback for
//! oversubscribed hosts. Just before the workers start, the calling
//! thread gives every lane buffer that is still empty its first
//! allocation ([`Lane::prime`]), so a worker grows the buffers in place,
//! in the calling thread's allocator arena, rather than filling an arena
//! of its own. A panic inside a lane phase (a protocol assertion, an
//! oversized message, a strict-mode double send) is caught, parked until
//! the barrier cycle completes (a raw unwind past a barrier would deadlock
//! everyone else), and re-raised on the calling thread once the workers
//! have been shut down.

use super::delivery::{Delivery, ShardAccount};
use super::shard::Shard;
use super::topology::{To, Topology};
use super::{host_parallelism, prime, NodeProgram, RunMetrics, SimConfig, GRAIN};
use crate::{MessageSize, PackedMsg, PhaseTimings};
use std::ops::DerefMut;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
    /// Where it arrives: the receiving node and port.
    to: To,
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
struct Lane<'p, P: NodeProgram, D> {
    shard: Shard<'p, P>,
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

impl<P: NodeProgram, D: Delivery<PackedMsg<P::Msg>>> Lane<'_, P, D> {
    /// Gives every growable buffer of the lane its first allocation on the
    /// calling thread, before a worker thread runs it.
    fn prime(&mut self) {
        self.shard.prime();
        self.part.prime();
        self.in_from
            .iter_mut()
            .for_each(|mail| prime(&mut mail.envs));
        self.out_to.iter_mut().for_each(prime);
    }
}

/// How a run's lanes map onto OS threads.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Exec {
    /// OS threads, the calling thread included; capped at the lane count.
    pub threads: usize,
    /// Due work per thread from which a round starts the worker threads
    /// ([`GRAIN`](super::GRAIN) in [`Simulator::run`]; tests pass `0` to
    /// put every round, round 0 included, on the workers).
    ///
    /// [`Simulator::run`]: super::Simulator::run
    pub grain: usize,
}

impl Exec {
    /// The plan of [`Simulator::run`](super::Simulator::run): every core of
    /// the host, workers from [`GRAIN`] due work per thread.
    pub fn host() -> Self {
        Exec {
            threads: host_parallelism(),
            grain: GRAIN,
        }
    }
}

/// Milliseconds of a [`Duration`], for the phase-timing accumulators.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One lane's full round on whichever thread owns it: ingest → stage →
/// compute → flush (round 0: `on_start` → flush), with no access to any
/// other lane's state. Panics (program, bandwidth or strict-mode
/// assertions) unwind to the calling thread's catch.
///
/// `own_base` is `Some(seq)` for lane 0 only — its sequence base for this
/// round is the running `seq` (see the module docs), which lets it push
/// the sends it receives itself straight into its partition.
fn lane_phase<P, D>(
    lane: &mut Lane<'_, P, D>,
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
                    env.to,
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
        shard.run_start(topo);
    } else {
        shard.run_round(topo, round);
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
    let (mut idx, mut routed) = (0u32, 0);
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
        let (to, priority, msg) = send;
        match (own_base, topo.shard_of(to.0)) {
            (Some(base), 0) => part.push(to, priority, base + u64::from(idx) + 1, msg, round, topo),
            (_, lane) => {
                out_to[lane].push(Env {
                    to,
                    priority,
                    idx,
                    msg,
                });
                routed += 1;
            }
        }
        idx += 1;
    }
    acc.sends = u64::from(idx);
    acc.routed = routed;
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
fn rotate_mailboxes<'p, P, D>(lanes: &mut [impl DerefMut<Target = Lane<'p, P, D>>], seq: &mut u64)
where
    P: NodeProgram + 'p,
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
/// the round cap, on the threads `exec` allows (see the module docs); the
/// programs are left in the slices the shards borrow. Returns the metrics,
/// the calling thread's timings and the number of worker threads started.
/// `begun` is when the run's set-up began: everything until round 0, the
/// start of the worker threads and the release of the lanes after the
/// last round are booked as `setup_ms`.
pub(super) fn drive_lanes<P, D>(
    config: &SimConfig,
    topo: &Topology<'_>,
    bandwidth: usize,
    parts: Vec<D>,
    shards: Vec<Shard<'_, P>>,
    exec: Exec,
    begun: Instant,
) -> (RunMetrics, PhaseTimings, usize)
where
    P: NodeProgram + Send,
    P::Msg: Send,
    D: Delivery<PackedMsg<P::Msg>> + Send,
{
    let count = shards.len();
    debug_assert_eq!(parts.len(), count);
    let cells: Vec<Mutex<Lane<'_, P, D>>> = shards
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
    let stride = exec.threads.clamp(1, count);
    let heavy = exec.grain.saturating_mul(stride);

    let mut metrics = RunMetrics {
        threads: count,
        bandwidth_bits: bandwidth,
        packing: config.message_packing,
        ..RunMetrics::default()
    };
    let barrier = SpinBarrier::new(stride);
    let stop = AtomicBool::new(false);
    // The round the coordinator releases the workers into. Relaxed: the
    // coordinator stores it before it arrives at the release barrier, and a
    // worker loads it after leaving that barrier, which synchronizes with
    // the arrival (through the `AcqRel` count, or the `Release` generation
    // bump of the last arrival that the waiters `Acquire`).
    let released = AtomicU64::new(0);
    let lane_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let mut timings = PhaseTimings {
        setup_ms: ms(begun.elapsed()),
        ..PhaseTimings::default()
    };
    let mut seq = 0u64;
    let mut started = false;
    // The calling thread's barrier waits, and when it began to shut the
    // workers down (the scope joins them on its way out).
    let (mut waited, mut shutdown) = (Duration::ZERO, None);

    std::thread::scope(|scope| {
        let start_workers = || {
            for cell in &cells {
                lock(cell).prime();
            }
            for w in 1..stride {
                let (cells, lane_panic) = (&cells, &lane_panic);
                let (barrier, stop, released) = (&barrier, &stop, &released);
                scope.spawn(move || {
                    // Workers never run lane 0 and report no timings (see
                    // `PhaseTimings`: the buckets are the calling thread's).
                    let mut unreported = PhaseTimings::default();
                    loop {
                        barrier.wait(); // released by the coordinator
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let round = released.load(Ordering::Relaxed);
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            for cell in cells.iter().skip(w).step_by(stride) {
                                let lane = &mut lock(cell);
                                lane_phase(lane, topo, round, bandwidth, None, &mut unreported);
                            }
                        }));
                        if let Err(payload) = result {
                            lock(lane_panic).get_or_insert(payload);
                        }
                        barrier.wait(); // round work done
                    }
                });
            }
        };

        // The coordinator must not unwind between barriers (the workers
        // would deadlock): its own lane phases are caught like a worker's,
        // and the serial window is guarded by this outer catch.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Every lane's guard during the serial window; allocated once
            // so the steady-state round allocates nothing.
            let mut lanes = Vec::with_capacity(count);
            // Envelopes in flight plus wake-ups: the round's due work.
            let mut due = 0usize;
            loop {
                let round = metrics.rounds;
                if !started && stride > 1 && due >= heavy {
                    let t0 = Instant::now();
                    start_workers();
                    started = true;
                    timings.setup_ms += ms(t0.elapsed());
                }
                // The calling thread is thread 0: it runs its share of the
                // lanes between the workers' two barriers, or every lane
                // before the workers have started.
                let step = if started {
                    released.store(round, Ordering::Relaxed);
                    let t0 = Instant::now();
                    barrier.wait(); // release the workers into the round
                    waited += t0.elapsed();
                    stride
                } else {
                    1
                };
                let own = catch_unwind(AssertUnwindSafe(|| {
                    for (t, cell) in cells.iter().enumerate().step_by(step) {
                        let own_base = (t == 0).then_some(seq);
                        let lane = &mut lock(cell);
                        lane_phase(lane, topo, round, bandwidth, own_base, &mut timings);
                    }
                }));
                if started {
                    let t0 = Instant::now();
                    barrier.wait(); // wait for every lane to finish
                    waited += t0.elapsed();
                }
                if let Err(payload) = own {
                    lock(&lane_panic).get_or_insert(payload);
                }
                if lock(&lane_panic).is_some() {
                    break; // re-raised below, after the workers are stopped
                }

                // Serial window: the workers are parked at the release
                // barrier, so every lock is uncontended.
                let t0 = Instant::now();
                lanes.extend(cells.iter().map(lock));
                due = 0;
                for acc in lanes.iter().map(|l| l.account) {
                    metrics.bits += acc.bits;
                    metrics.messages += acc.messages;
                    metrics.max_queue = metrics.max_queue.max(acc.max_queue);
                    due += acc.pending + acc.routed + acc.wakes;
                }
                let last = if due == 0 {
                    metrics.terminated = lanes.iter().all(|l| l.shard.all_done());
                    true
                } else if metrics.rounds >= config.max_rounds {
                    metrics.truncated = true;
                    true
                } else {
                    rotate_mailboxes(&mut lanes, &mut seq);
                    metrics.rounds += 1;
                    false
                };
                lanes.clear(); // unlock for the next round's phases
                timings.merge_ms += ms(t0.elapsed());
                if last {
                    break;
                }
            }
        }));

        // Shut the workers down (they are parked at the release barrier).
        if started {
            shutdown = Some(Instant::now());
            stop.store(true, Ordering::Release);
            barrier.wait();
        }
        if let Err(payload) = outcome {
            lock(&lane_panic).get_or_insert(payload);
        }
    });

    waited += shutdown.map_or(Duration::ZERO, |t0| t0.elapsed());
    if let Some(payload) = lock(&lane_panic).take() {
        resume_unwind(payload);
    }
    let t0 = Instant::now();
    drop(cells);
    timings.setup_ms += ms(t0.elapsed());
    timings.wait_ms = ms(waited);
    (metrics, timings, if started { stride - 1 } else { 0 })
}

/// Locks ignoring poison: a poisoned lane only occurs on a lane panic,
/// which the coordinator re-raises anyway.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::super::tests::{panic_message, Bomb, MaxFlood};
    use super::super::{Ctx, Incoming, SimMode, Simulator};
    use super::*;
    use lcs_graph::{gen, Graph};

    /// Every round, round 0 included, on `threads` OS threads — the only
    /// way to exercise the multi-thread schedule on a single-core host or a
    /// small graph.
    fn eager(threads: usize) -> Exec {
        Exec { threads, grain: 0 }
    }

    /// A max-flood on `lanes` lanes with the thread plan `exec`: the
    /// programs, the metrics and the number of worker threads started.
    fn max_flood(g: &Graph, lanes: usize, exec: Exec) -> (Vec<MaxFlood>, RunMetrics, usize) {
        let config = SimConfig {
            threads: lanes,
            ..SimConfig::default()
        };
        let (run, workers) = Simulator::new(g, config).run_on(exec, |v, _| MaxFlood { best: v.0 });
        (run.programs, run.metrics, workers)
    }

    #[test]
    fn forced_exec_counts_yield_identical_runs() {
        let g = gen::grid(7, 9);
        let (base_progs, base, _) = max_flood(&g, 4, eager(1));
        assert!(base.terminated);
        assert!(base_progs.iter().all(|p| p.best == 62));
        for exec in [2, 3, 4] {
            let (progs, metrics, _) = max_flood(&g, 4, eager(exec));
            assert_eq!(metrics, base, "exec={exec}");
            assert!(progs.iter().all(|p| p.best == 62), "exec={exec}");
        }
        // Lanes ≠ exec ≠ divisor cases: uneven round-robin assignment.
        let (_, m7, _) = max_flood(&g, 7, eager(3));
        let (_, m7b, _) = max_flood(&g, 7, eager(1));
        assert_eq!(m7, m7b);
        assert_eq!(m7.counts(), base.counts());
    }

    /// Relays tagged values in [`SimMode::Queued`]: every node starts
    /// three sends per port over three priorities, two of them equal (so
    /// packing has runs to coalesce), and forwards what it hears for three
    /// hops over a port and at a priority the value picks. `heard` folds
    /// every inbox in arrival order, so it tells delivery orders apart.
    struct Relay {
        heard: u64,
    }

    impl NodeProgram for Relay {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            let v = ctx.node().0;
            for port in 0..ctx.degree() {
                for k in 0..3u32 {
                    let value = (v * 7 + k) << 2;
                    ctx.send_with_priority(port, value, u64::from((v + k.min(1)) % 3));
                }
            }
        }

        fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[Incoming<u32>]) {
            for m in inbox {
                self.heard = self
                    .heard
                    .wrapping_mul(31)
                    .wrapping_add(u64::from(m.msg) + 1);
                let (value, hop) = (m.msg >> 2, m.msg & 3);
                if hop < 3 {
                    let port = value as usize % ctx.degree();
                    ctx.send_with_priority(port, (value << 2) | (hop + 1), u64::from(value % 4));
                }
            }
        }

        fn is_done(&self) -> bool {
            true
        }
    }

    #[test]
    fn queued_runs_through_the_mailboxes_equal_one_lane() {
        let g = gen::grid(9, 11);
        let run = |lanes: usize, packing: usize, exec: Exec| {
            let config = SimConfig {
                mode: SimMode::Queued,
                threads: lanes,
                message_packing: packing,
                ..SimConfig::default()
            };
            let (run, _) = Simulator::new(&g, config).run_on(exec, |_, _| Relay { heard: 0 });
            let heard: Vec<u64> = run.programs.iter().map(|p| p.heard).collect();
            (run.metrics, heard)
        };
        for packing in [1, 8] {
            let (one, one_heard) = run(1, packing, Exec::host());
            assert!(one.terminated && one.max_queue > 1, "packing={packing}");
            for lanes in [2, 4, 7] {
                for threads in [1, 2, lanes] {
                    let (metrics, heard) = run(lanes, packing, eager(threads));
                    let label = format!("packing={packing} lanes={lanes} threads={threads}");
                    assert_eq!(metrics.counts(), one.counts(), "{label}");
                    assert_eq!(metrics.threads, lanes, "{label}");
                    assert_eq!(heard, one_heard, "{label}");
                }
            }
        }
    }

    #[test]
    fn the_five_buckets_cover_the_wall_of_a_run_on_the_workers() {
        // Four lanes on two threads, every round on the workers: set-up,
        // the worker start, the barriers and the lanes' release are all on
        // the calling thread's clock.
        let g = gen::grid(50, 50);
        let config = SimConfig {
            threads: 4,
            ..SimConfig::default()
        };
        let sim = Simulator::new(&g, config);
        let begun = Instant::now();
        let (run, workers) = sim.run_on(eager(2), |v, _| MaxFlood { best: v.0 });
        let wall = ms(begun.elapsed());
        assert_eq!(workers, 1);
        assert!(run.programs.iter().all(|p| p.best == 2_499));
        let t = run.timings;
        let sum = t.setup_ms + t.stage_ms + t.compute_ms + t.merge_ms + t.wait_ms;
        assert!(t.setup_ms > 0.0 && t.wait_ms > 0.0, "{t:?}");
        assert!(
            (wall - sum).abs() <= 0.05 * wall,
            "the buckets sum to {sum:.3} ms of a {wall:.3} ms run: {t:?}"
        );
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
            let result = catch_unwind(AssertUnwindSafe(|| sim.run_on(eager(exec), |_, _| Bomb)));
            let payload = result.expect_err("the lane panic must reach the caller");
            let msg = panic_message(payload.as_ref());
            assert!(msg.contains("protocol bug on node 5"), "exec={exec}: {msg}");
        }
    }

    #[test]
    fn a_graph_below_the_grain_gets_one_lane_and_starts_no_thread() {
        let g = gen::grid(40, 40);
        assert!(g.num_nodes() < 2 * GRAIN);
        let sim = Simulator::new(&g, SimConfig::default());
        assert_eq!(sim.config.threads, 0, "the default resolves per host");
        assert_eq!(sim.effective_threads(), 1);
        let (progs, metrics, workers) = max_flood(&g, 0, Exec::host());
        assert_eq!((metrics.threads, workers), (1, 0));
        assert!(progs.iter().all(|p| p.best == 1599));
    }

    #[test]
    fn a_multi_lane_run_whose_rounds_stay_light_never_starts_a_worker() {
        // 63 nodes on 4 lanes: no round has `GRAIN` envelopes in flight.
        let g = gen::grid(7, 9);
        let (_, one, _) = max_flood(&g, 1, Exec::host());
        for exec in [2, 4] {
            let light = Exec {
                threads: exec,
                grain: GRAIN,
            };
            let (_, metrics, workers) = max_flood(&g, 4, light);
            assert_eq!((metrics.threads, workers), (4, 0), "exec={exec}");
            assert_eq!(metrics.counts(), one.counts(), "exec={exec}");
            // The same run with every round heavy does start them.
            let (_, _, workers) = max_flood(&g, 4, eager(exec));
            assert_eq!(workers, exec - 1, "exec={exec}");
        }
    }

    #[test]
    fn the_default_equals_one_lane_and_a_heavy_round_starts_the_workers() {
        // 6 400 nodes: two lanes wherever the host has two cores or more,
        // and the flood's first round has 2m ≈ 25 000 envelopes in flight.
        let g = gen::grid(80, 80);
        let (one_progs, one, _) = max_flood(&g, 1, Exec::host());
        let best = |progs: &[MaxFlood]| progs.iter().map(|p| p.best).collect::<Vec<_>>();
        let (progs, metrics, workers) = max_flood(&g, 0, Exec::host());
        let cores = host_parallelism();
        let lanes = if cores == 1 { 1 } else { 2 };
        assert_eq!((metrics.threads, workers), (lanes, lanes - 1));
        assert_eq!(metrics.counts(), one.counts());
        assert_eq!(best(&progs), best(&one_progs));
        // Four lanes forced onto two threads, whatever the host: the first
        // round with `GRAIN` per thread in flight starts the one worker.
        let exec = Exec {
            threads: 2,
            grain: GRAIN,
        };
        let (progs, metrics, workers) = max_flood(&g, 4, exec);
        assert_eq!((metrics.threads, workers), (4, 1));
        assert_eq!(metrics.counts(), one.counts());
        assert_eq!(best(&progs), best(&one_progs));
    }

    #[test]
    fn workers_started_at_any_round_change_nothing() {
        // A grain per thread between 0 and the flood's peak starts the
        // workers at a different round each time: the rounds before run
        // every lane on the calling thread, the rounds
        // after on the workers through the mailboxes.
        let g = gen::grid(20, 24);
        let (_, one, _) = max_flood(&g, 1, Exec::host());
        for (lanes, exec) in [(2, 2), (4, 2), (4, 4), (5, 3)] {
            for grain in [1, 20, 60, 150, usize::MAX] {
                let exec = Exec {
                    threads: exec,
                    grain,
                };
                let (progs, metrics, _) = max_flood(&g, lanes, exec);
                let label = format!("lanes={lanes} {exec:?}");
                assert_eq!(metrics.counts(), one.counts(), "{label}");
                assert!(progs.iter().all(|p| p.best == 479), "{label}");
            }
        }
    }
}
