//! Experiment harness CLI: prints the tables of the selected experiments
//! (all twelve by default, ~1 s in release) and checks every claim row.
//!
//! ```text
//! cargo run -p lcs_bench --release --bin experiments
//! cargo run -p lcs_bench --release --bin experiments -- e1 e3
//! ```
//!
//! Exit code 0: every claim holds; 1: a violated row, named on stderr;
//! 2: an argument that is not an experiment id.

use lcs_bench::EXPERIMENTS;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |a: &String| a == "all" || EXPERIMENTS.iter().any(|(id, _)| id == a);
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        eprintln!("experiments: unknown argument {bad:?} (usage: experiments [all | e1 … e12]…)");
        return ExitCode::from(2);
    }
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    println!("# Low-congestion shortcuts — experiment harness\n");
    let mut violated = Vec::new();
    for (id, run) in EXPERIMENTS {
        if !(all || args.iter().any(|a| a == id)) {
            continue;
        }
        let start = Instant::now();
        let report = run();
        println!("{report}");
        println!("_{id} completed in {:.2?}_\n", start.elapsed());
        violated.extend(report.violated().iter().map(|claim| claim.to_string()));
    }
    for row in &violated {
        eprintln!("violated: {row}");
    }
    ExitCode::from(u8::from(!violated.is_empty()))
}
