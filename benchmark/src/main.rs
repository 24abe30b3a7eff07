//! The layered benchmark of the low-congestion-shortcut workspace.
//!
//! ```text
//! lcs_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! lcs_benchmark --all [--seed N] [--seconds S] [--trace] [--smoke] [--repeat K] [--out DIR]
//! lcs_benchmark --manifest
//! ```
//!
//! A `--workload` run prints one `workload metric value unit` line per
//! metric and, as its last line, the result object the benchmark contract
//! prescribes. `--all` runs every workload in a child process of its own
//! (so `peak_rss_mb` is per workload); with `--repeat K` it runs the
//! untraced set `K` times and fails if an end-to-end metric moved by more
//! than its bound between the first set and a later one. See `README.md`.

mod harness;
mod manifest;
mod stats;
mod trace;
mod workloads;

use harness::{Config, Harness, Outcome};
use manifest::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use serde::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

// Layer names, as spans carry them: the workspace crates plus the
// benchmark itself (root spans).
pub const GRAPH: &str = "lcs_graph";
pub const SEPARATOR: &str = "lcs_separator";
pub const CONGEST: &str = "lcs_congest";
pub const CORE: &str = "lcs_core";
pub const PARTWISE: &str = "lcs_partwise";
pub const ALGOS: &str = "lcs_algos";
pub const SERVER: &str = "lcs_server";
pub const BENCH: &str = "bench";

enum Mode {
    Manifest,
    One(Config),
    All { base: Config, repeat: usize },
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 7,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let (mut all, mut manifest, mut repeat) = (false, false, 1usize);
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let mut value = |what: &str| -> Result<&str, String> {
            let v = args.get(i).ok_or(format!("{flag} needs {what}"))?;
            i += 1;
            Ok(v.as_str())
        };
        match flag {
            "--workload" => cfg.workload = value("a workload name")?.to_string(),
            "--seed" => {
                cfg.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cfg.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--repeat" => {
                repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => cfg.out_dir = PathBuf::from(value("a directory")?),
            // `--trace 0|1` from the driver, a bare `--trace` by hand.
            "--trace" => match args.get(i).map(String::as_str) {
                Some("0") => (cfg.trace, i) = (false, i + 1),
                Some("1") => (cfg.trace, i) = (true, i + 1),
                _ => cfg.trace = true,
            },
            "--smoke" => cfg.smoke = true,
            "--all" => all = true,
            "--manifest" => manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(cfg.seconds >= 0.0 && cfg.seconds <= 120.0) {
        return Err("--seconds must lie in 0..=120".to_string());
    }
    if cfg.smoke {
        // Two ops per workload, however fast they are.
        cfg.seconds = 0.0;
    }
    if manifest {
        Ok(Mode::Manifest)
    } else if all {
        if repeat == 0 {
            return Err("--repeat must be at least 1".to_string());
        }
        Ok(Mode::All { base: cfg, repeat })
    } else if WORKLOADS.iter().any(|w| w.name == cfg.workload) {
        Ok(Mode::One(cfg))
    } else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        Err(format!(
            "--workload must be one of {} (or pass --all)",
            names.join(", ")
        ))
    }
}

/// Output of a helper command, or "unknown" (a checkout need not be a
/// git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The header every run prints and stores, as a JSON object.
fn header_json(cfg: &Config, clients: usize, (setups, ops): (usize, u64)) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    format!(
        "{{\"workload\": \"{}\", \"commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {nproc}, \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"clients\": {clients}, \
         \"setups\": {setups}, \"ops\": {ops}}}",
        cfg.workload,
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
        tool_line("rustc", &["--version"]),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.smoke,
    )
}

/// The unit of a gated metric, a per-layer metric, or an ungated number of
/// an untraced run (listed as `bench.<name>` among the per-layer metrics).
fn unit_of(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(name, _)| name == metric || name.strip_prefix("bench.") == Some(metric))
        .map_or("", |(_, unit)| unit)
}

/// The contract's result object (one line).
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn run_one(cfg: Config) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::from(2);
    }
    let mut h = Harness::new(cfg.clone());
    workloads::run(&mut h);
    let header = header_json(&cfg, h.clients, h.cycles());
    let outcome = h.finish(&header);

    println!("# {header}");
    for (name, value) in outcome.metrics.iter().chain(&outcome.ungated) {
        let note = if name.ends_with("op_p50_ms") {
            format!(" (n={})", outcome.samples)
        } else {
            String::new()
        };
        println!("{} {name} {value} {}{note}", cfg.workload, unit_of(name));
    }
    let result = result_json(&outcome);
    let kind = if cfg.trace { "layers" } else { "e2e" };
    let stored = cfg.out_dir.join(format!("{}.{kind}.json", cfg.workload));
    if let Err(e) = std::fs::write(
        &stored,
        format!("{{\"header\": {header},\n\"result\": {result}}}\n"),
    ) {
        eprintln!("cannot write {}: {e}", stored.display());
        return ExitCode::from(2);
    }
    println!("{result}");
    ExitCode::SUCCESS
}

/// One child run: its stdout is echoed; `correct` comes from its result
/// object, the numbers from its `workload metric value unit` lines (which
/// also carry what an untraced run measured beyond the gated set).
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

fn parse_child(workload: &str, stdout: &str) -> Option<ChildResult> {
    let result = lcs_server::json::parse(stdout.lines().last()?.as_bytes()).ok()?;
    let correct = matches!(
        lcs_server::json::lookup(&result, "correct")?,
        Value::Bool(true)
    );
    let metrics = stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix(workload)?.split_whitespace();
            Some((words.next()?.to_string(), words.next()?.parse().ok()?))
        })
        .collect();
    Some(ChildResult { correct, metrics })
}

fn run_child(base: &Config, workload: &str, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &base.seed.to_string()])
        .args(["--seconds", &base.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&base.out_dir);
    if base.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    parse_child(workload, &stdout).ok_or_else(|| format!("{workload} printed no result object"))
}

/// Runs every workload (untraced, then traced if asked), `repeat` times.
fn run_all(base: &Config, repeat: usize) -> ExitCode {
    let mut ok = true;
    // sets[k][w] = what workload w printed in untraced set k.
    let mut sets: Vec<Vec<Vec<(String, f64)>>> = Vec::new();
    for _ in 0..repeat {
        let mut set = Vec::new();
        for w in &WORKLOADS {
            match run_child(base, w.name, false) {
                Ok(r) => {
                    ok &= r.correct;
                    set.push(r.metrics);
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(set);
    }
    if base.trace {
        for (w, untraced) in WORKLOADS.iter().zip(&sets[0]) {
            match run_child(base, w.name, true) {
                Ok(r) => {
                    ok &= r.correct;
                    // The difference between the two runs, host drift
                    // included; `bench.trace_overhead_frac` is the
                    // tracer's own measured share.
                    let p50 = |metrics: &[(String, f64)], name: &str| {
                        metrics
                            .iter()
                            .find(|(n, _)| n == name)
                            .map_or(0.0, |&(_, v)| v)
                    };
                    let traced = p50(&r.metrics, "bench.op_p50_ms");
                    let base_p50 = p50(untraced, "op_p50_ms");
                    println!(
                        "{} traced_vs_untraced_op_p50 {} ratio",
                        w.name,
                        traced / base_p50.max(1e-9) - 1.0
                    );
                }
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    for (k, later) in sets.iter().enumerate().skip(1) {
        println!("# set {k} against set 0: workload metric first later change bound verdict");
        for ((w, first), later) in WORKLOADS.iter().zip(&sets[0]).zip(later) {
            for ((name, a), (_, b)) in first.iter().zip(later) {
                let change = (b - a) / a;
                let Some(m) = END_TO_END.iter().find(|m| m.name == name) else {
                    println!("{} {name} {a} {b} {change:+.4} - ungated", w.name);
                    continue;
                };
                let worse = if m.better == "lower" { change } else { -change };
                let verdict = if worse <= m.bound { "ok" } else { "BREACH" };
                ok &= worse <= m.bound;
                println!(
                    "{} {name} {a} {b} {change:+.4} {} {verdict}",
                    w.name, m.bound
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("a run was incorrect or a metric moved beyond its bound");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Mode::Manifest) => {
            print!("{}", manifest::benchmark_json());
            ExitCode::SUCCESS
        }
        Ok(Mode::One(cfg)) => run_one(cfg),
        Ok(Mode::All { base, repeat }) => run_all(&base, repeat),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
