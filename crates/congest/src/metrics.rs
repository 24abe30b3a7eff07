//! Run statistics reported by the simulator.

use serde::{Deserialize, Serialize};

/// Exact counts from one simulated execution, plus the execution
/// configuration they were measured under.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Rounds executed until quiescence (or the round cap).
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total bits delivered (per the senders' [`MessageSize`] accounting;
    /// id payloads are billed at [`id_bits`]`(n)`).
    ///
    /// [`MessageSize`]: crate::MessageSize
    /// [`id_bits`]: crate::id_bits
    pub bits: u64,
    /// Largest backlog observed on any directed edge queue (1 in strict
    /// mode; larger values indicate multiplexing pressure in queued mode).
    pub max_queue: u64,
    /// Whether the run reached quiescence (all programs done, no messages in
    /// flight) before the round cap.
    pub terminated: bool,
    /// Whether the run was cut short by [`SimConfig::max_rounds`] while
    /// messages were still in flight or wake-ups pending. Callers must treat
    /// a truncated run's program states as incomplete.
    ///
    /// [`SimConfig::max_rounds`]: crate::SimConfig::max_rounds
    pub truncated: bool,
    /// Lanes the run used (the resolved [`SimConfig::threads`]).
    /// Execution configuration, not a measurement: every counter above is
    /// identical at any lane count.
    ///
    /// [`SimConfig::threads`]: crate::SimConfig::threads
    pub threads: usize,
    /// The per-message bandwidth limit (bits) the run enforced, computed
    /// from `n` ([`Simulator::bandwidth_bits`]).
    ///
    /// [`Simulator::bandwidth_bits`]: crate::Simulator::bandwidth_bits
    pub bandwidth_bits: usize,
    /// The multi-value packing factor the run coalesced sends with — the
    /// resolved [`SimConfig::message_packing`] (1 = unpacked). Execution
    /// configuration like `threads`: at `packing = 1` every counter equals
    /// the unpacked engine's; at `packing > 1` rounds/messages/bits may
    /// (and should) drop while protocol results stay identical.
    ///
    /// [`SimConfig::message_packing`]: crate::SimConfig::message_packing
    pub packing: usize,
}

/// Wall-clock breakdown of one run's round loop, reported alongside the
/// deterministic [`RunMetrics`] on [`RunOutcome::timings`].
///
/// Kept out of `RunMetrics` on purpose: metrics are bit-identical across
/// thread counts and compared with `==` by the conformance suite, while
/// timings are measurements of *this* execution.
///
/// Every run goes through one round loop, and the three per-round buckets
/// are timed inside its lane phases (round 0 — `on_start` — included), so
/// they mean the same thing at every [`SimConfig::threads`]:
///
/// | bucket       | what the calling thread spent in                      |
/// |--------------|-------------------------------------------------------|
/// | `setup_ms`   | everything before round 0 — the shard layout, the shards' per-node buffers, the delivery partitions' per-dir tables (12 B per dir received in queued mode, 4 B in strict mode), the programs' construction — plus starting the worker threads and releasing the lanes after the last round |
/// | `stage_ms`   | ingesting routed envelopes into the delivery partition and staging the round's due deliveries |
/// | `compute_ms` | the node programs' `on_start` / `on_round` callbacks (with inbox unpacking and send coalescing) |
/// | `merge_ms`   | flushing the sends — bandwidth validation, bit accounting, routing — plus the serial window between rounds (account fold, quiescence check, seq-base prefix sum, mailbox rotation) |
/// | `wait_ms`    | the barriers: releasing the workers into a round, waiting for their lanes, shutting them down (0 while no worker runs) |
///
/// The clock runs on the calling thread, over the lanes that thread
/// executes: all of them until the run starts its worker threads (never,
/// on one lane or one core), lanes `0, exec, 2·exec, …` of `exec` OS
/// threads from then on. The five buckets cover the wall of
/// [`Simulator::run`] but for the few lock and clock reads between them.
///
/// [`RunOutcome::timings`]: crate::RunOutcome::timings
/// [`SimConfig::threads`]: crate::SimConfig::threads
/// [`Simulator::run`]: crate::Simulator::run
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Wall milliseconds setting the run up before round 0, starting its
    /// worker threads and releasing its lanes at the end.
    pub setup_ms: f64,
    /// Wall milliseconds in the node programs' callbacks.
    pub compute_ms: f64,
    /// Wall milliseconds ingesting and staging deliveries.
    pub stage_ms: f64,
    /// Wall milliseconds validating, billing and routing sends, plus the
    /// serial window between rounds.
    pub merge_ms: f64,
    /// Wall milliseconds the calling thread waited at the barriers.
    pub wait_ms: f64,
}

impl std::ops::AddAssign<&RunMetrics> for RunMetrics {
    /// Appends `next`, a run that started when this one ended: the counts
    /// add up, the backlog is the larger, either run's cap truncates, and
    /// `next` says whether all ended done.
    fn add_assign(&mut self, next: &RunMetrics) {
        self.rounds += next.rounds;
        self.messages += next.messages;
        self.bits += next.bits;
        self.max_queue = self.max_queue.max(next.max_queue);
        (self.terminated, self.truncated) = (next.terminated, self.truncated || next.truncated);
    }
}

impl RunMetrics {
    /// The measurement counters alone, without the execution configuration
    /// (`threads`, `bandwidth_bits`, `packing`): `(rounds, messages, bits, max_queue,
    /// terminated, truncated)`. This is the tuple that must be identical
    /// across thread counts — compare it (not whole `RunMetrics` values)
    /// when asserting thread-count invariance.
    pub fn counts(&self) -> (u64, u64, u64, u64, bool, bool) {
        (
            self.rounds,
            self.messages,
            self.bits,
            self.max_queue,
            self.terminated,
            self.truncated,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_drops_the_execution_configuration() {
        let a = RunMetrics {
            rounds: 3,
            messages: 7,
            bits: 99,
            max_queue: 2,
            terminated: true,
            truncated: false,
            threads: 1,
            bandwidth_bits: 160,
            packing: 1,
        };
        let b = RunMetrics {
            threads: 4,
            packing: 8,
            ..a.clone()
        };
        assert_ne!(a, b);
        assert_eq!(a.counts(), b.counts());
    }
}
