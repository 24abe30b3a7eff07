//! What every workload shares: repeated set-up, the timed op loop, the
//! failure count, and turning samples into the two metric sets.

use crate::manifest::{END_TO_END, PER_LAYER};
use crate::stats::Samples;
use crate::trace::{self, Cost, Open, Tracer, NO_PARENT};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Every run times at least this many ops, however short `--seconds` is.
const MIN_OPS: u64 = 2;

/// Set-up is repeated at least `MIN_SETUPS` times, and then until the
/// repetitions add up to `SETUP_BUDGET_S` or number `MAX_SETUPS`, so that
/// a millisecond set-up is a median of many samples and a second-long one
/// does not eat the run.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 100;
const SETUP_BUDGET_S: f64 = 1.0;

#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// n ≈ 1e3 instances, one set-up, for the wiring test.
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// What a run hands back to `main`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in manifest order: the end-to-end set of an
    /// untraced run, the per-layer set of a traced one.
    pub metrics: Vec<(&'static str, f64)>,
    /// What an untraced run measured beyond the gated end-to-end set.
    pub ungated: Vec<(&'static str, f64)>,
    /// Sample count behind `op_p50_ms`.
    pub samples: usize,
}

pub struct Harness {
    pub cfg: Config,
    pub tr: Tracer,
    /// Callers issuing ops at once (closed loop).
    pub clients: usize,
    layer_metrics: Vec<(String, f64)>,
    setup_s: Samples,
    setup_total_s: f64,
    setup_started: Instant,
    /// Set once the untimed first op has run.
    warm: bool,
    ops_started: Option<Instant>,
    op_started: Instant,
    op_ms: Samples,
    timed_wall: Duration,
    cost: Cost,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Harness {
    pub fn new(cfg: Config) -> Self {
        let epoch = Instant::now();
        Harness {
            tr: Tracer::new(epoch, 0, span_capacity(&cfg)),
            cfg,
            clients: 1,
            layer_metrics: Vec::new(),
            setup_s: Samples::default(),
            setup_total_s: 0.0,
            setup_started: epoch,
            warm: false,
            ops_started: None,
            op_started: epoch,
            op_ms: Samples::default(),
            timed_wall: Duration::ZERO,
            cost: Cost::default(),
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }

    /// `(set-ups, ops)` run so far — the cycle counts of the header.
    pub fn cycles(&self) -> (usize, u64) {
        (self.setup_s.count(), self.attempted)
    }

    /// Starts one repetition of the set-up and says whether it is the last
    /// one, whose state serves the ops (and whose spans a traced run
    /// keeps). `setup_s` is the median over the repetitions.
    pub fn begin_setup(&mut self) -> bool {
        let done = self.setup_s.count();
        let last = self.cfg.smoke
            || done + 1 >= MAX_SETUPS
            || (done + 1 >= MIN_SETUPS && self.setup_total_s >= SETUP_BUDGET_S);
        self.tr.set_recording(self.cfg.trace && last);
        self.setup_started = Instant::now();
        last
    }

    pub fn end_setup(&mut self) {
        let s = self.setup_started.elapsed().as_secs_f64();
        self.setup_s.push(s);
        self.setup_total_s += s;
    }

    /// Whether to run another op. The first op of a run is a warm-up: it
    /// pays the process's page faults and allocator growth, is checked
    /// like any other, and is neither timed nor counted; the measuring
    /// window opens after it.
    pub fn more_ops(&mut self) -> bool {
        if !self.warm {
            return true;
        }
        let started = *self.ops_started.get_or_insert_with(Instant::now);
        self.attempted < MIN_OPS || started.elapsed().as_secs_f64() < self.cfg.seconds
    }

    pub fn begin_op(&mut self, name: &'static str) -> Open {
        self.tr.set_recording(self.cfg.trace && self.warm);
        self.op_started = Instant::now();
        self.tr.begin_op(name)
    }

    /// Closes the op and returns its simulated cost. The caller then runs
    /// the (untimed) reference checks and reports their `verdict`.
    pub fn end_op(&mut self, root: Open) -> Cost {
        let cost = self.tr.end_op(root);
        let wall = self.op_started.elapsed();
        if self.warm {
            self.timed_wall += wall;
            self.cost.add(cost);
            self.op_ms.push(wall.as_secs_f64() * 1e3);
        }
        cost
    }

    pub fn verdict(&mut self, ok: bool) {
        if !self.warm {
            self.warm = true;
            self.require(ok, "the warm-up op must pass its reference checks");
            return;
        }
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Takes over the logs of a multi-client measuring window that took
    /// `wall` (ops overlap, so their latencies do not add up to it).
    pub fn absorb_clients(&mut self, clients: Vec<ClientLog>, wall: Duration) {
        for client in clients {
            self.tr.absorb(client.tr);
            self.op_ms.extend(&client.op_ms);
            self.cost.add(client.cost);
            self.attempted += client.attempted;
            self.failed += client.failed;
        }
        self.timed_wall = wall;
    }

    /// A check on the run as a whole; a miss makes the run incorrect.
    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("{}: check failed: {what}", self.cfg.workload);
            self.correct = false;
        }
    }

    /// Phases after the measuring window, in traced runs only.
    pub fn begin_probes(&mut self) {
        self.tr.set_recording(true);
    }

    /// Reports a per-layer metric of the manifest (traced runs).
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "`{name}` is not in the manifest"
        );
        self.layer_metrics.push((name.to_string(), value));
    }

    /// Reports the median duration of the spans called `span`.
    pub fn set_span_ms(&mut self, name: &str, span: &str) {
        self.set(name, self.span_median_ms(span));
    }

    pub fn span_median_ms(&self, name: &str) -> f64 {
        trace::durations_ms(self.tr.spans(), name).median()
    }

    pub fn span_cost(&self, name: &str) -> Cost {
        trace::first_cost(self.tr.spans(), name)
    }

    /// Reports `<prefix>_ms`, `_rounds`, `_messages` and `_us_per_msg` of
    /// the spans called `span`; returns the µs per message.
    pub fn set_call_metrics(&mut self, prefix: &str, span: &str) -> f64 {
        let ms = self.span_median_ms(span);
        let cost = self.span_cost(span);
        let us_per_msg = ms * 1e3 / cost.messages.max(1) as f64;
        self.set(&format!("{prefix}_ms"), ms);
        self.set(&format!("{prefix}_rounds"), cost.rounds as f64);
        self.set(&format!("{prefix}_messages"), cost.messages as f64);
        self.set(&format!("{prefix}_us_per_msg"), us_per_msg);
        us_per_msg
    }

    pub fn op_ms(&self) -> &Samples {
        &self.op_ms
    }

    pub fn finish(mut self, header: &str) -> Outcome {
        let ops = self.attempted.max(1) as f64;
        let timed_s = self.timed_wall.as_secs_f64();
        // What the workload's caller sees. The first three are gated
        // (`END_TO_END`); the wall-clock ones do not repeat within a bound
        // on a shared host and are reported without one.
        let seen: [(&'static str, f64); 7] = [
            ("setup_s", self.setup_s.median()),
            ("peak_rss_mb", peak_rss_mb()),
            ("sim_messages_per_op", self.cost.messages as f64 / ops),
            ("sim_rounds_per_op", self.cost.rounds as f64 / ops),
            ("op_p50_ms", self.op_ms.median()),
            ("ops_per_s", ops / timed_s.max(1e-9)),
            (
                "host_us_per_sim_msg",
                timed_s * 1e6 / self.cost.messages.max(1) as f64,
            ),
        ];
        let ungated = seen
            .iter()
            .filter(|(name, _)| END_TO_END.iter().all(|m| m.name != *name));
        let (metrics, ungated) = if self.cfg.trace {
            // The ungated numbers join the per-layer set, so that a traced
            // run's result object carries them too.
            for &(name, value) in ungated {
                self.set(&format!("bench.{name}"), value);
            }
            self.bench_layer_metrics(ops, timed_s);
            let path = self
                .cfg
                .out_dir
                .join(format!("trace.{}.json", self.cfg.workload));
            if let Err(e) = trace::write_json(&path, header, self.tr.spans()) {
                eprintln!("cannot write {}: {e}", path.display());
                self.correct = false;
            }
            let per_layer = PER_LAYER
                .iter()
                .map(|m| {
                    let value = self
                        .layer_metrics
                        .iter()
                        .rev()
                        .find(|(name, _)| name == m.name)
                        .map_or(0.0, |&(_, v)| v);
                    (m.name, value)
                })
                .collect();
            (per_layer, Vec::new())
        } else {
            let gated = END_TO_END
                .iter()
                .map(|m| {
                    let (_, value) = seen
                        .iter()
                        .find(|(name, _)| *name == m.name)
                        .unwrap_or_else(|| unreachable!("no rule for `{}`", m.name));
                    (m.name, *value)
                })
                .collect();
            (gated, ungated.copied().collect())
        };
        Outcome {
            correct: self.correct && self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            ungated,
            samples: self.op_ms.count(),
        }
    }

    /// The benchmark's own layer: what tracing cost and how much of each
    /// op's wall its spans leave unexplained.
    fn bench_layer_metrics(&mut self, ops: f64, timed_s: f64) {
        let spans = self.tr.spans();
        let self_ns = trace::self_times_ns(spans);
        // Over the ops: their wall, the part of it no call span covers,
        // and how many spans (roots included) were recorded inside it.
        let (mut root_ns, mut root_self_ns, mut op_spans) = (0u64, 0u64, 0u64);
        for (s, own) in spans.iter().zip(&self_ns) {
            if s.parent == NO_PARENT && s.layer == crate::BENCH {
                root_ns += s.duration_ns();
                root_self_ns += own;
                op_spans += 1;
            } else if s.parent != NO_PARENT {
                op_spans += 1;
            }
        }
        let span_count = spans.len();
        let tracing_ns = op_spans as f64 * trace::span_cost_ns();
        self.set("bench.failed_frac", self.failed as f64 / ops);
        self.set(
            "bench.trace_overhead_frac",
            tracing_ns / root_ns.max(1) as f64,
        );
        self.set(
            "bench.root_self_frac",
            root_self_ns as f64 / root_ns.max(1) as f64,
        );
        self.set("bench.spans", span_count as f64);
        self.set("bench.timed_wall_s", timed_s);
        self.set("bench.ops", self.attempted as f64);
    }
}

/// Room for a few spans per op at the highest op rate any workload reaches
/// (`serve_mixed`: a few hundred requests per second and client).
pub fn span_capacity(cfg: &Config) -> usize {
    if cfg.trace {
        (cfg.seconds as usize + 1) * 4096
    } else {
        0
    }
}

/// One client's share of a multi-client measuring window.
pub struct ClientLog {
    pub tr: Tracer,
    pub op_ms: Samples,
    pub cost: Cost,
    pub attempted: u64,
    pub failed: u64,
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such line).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
