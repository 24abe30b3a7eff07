//! E4 — Theorem 1.5: distributed construction cost.
//!
//! Rounds of the simulated construction (BFS + detection + dissemination)
//! against the `Õ(δ̂D)` target, and messages against `Õ(m)`. Checked per
//! row: the sweep lands in Case (I), and the exact mode reproduces the
//! centralized cut set edge for edge; the sketch mode trades that accuracy
//! for `O(D·t)` detection. The BFS flood that builds `T` is billed
//! exactly: `2m − (n − 1)` messages, a tree edge carrying one.

use crate::experiments::{cut_set_difference, instance, random_parts};
use crate::{f2, Relation::*, Report};
use lcs_core::dist::{distributed_bfs, DistConfig, DistMode};
use lcs_core::ShortcutConfig;
use lcs_graph::{gen, NodeId};

const CASE_ONE: &str = "Thm 3.1 case (I) at δ̂ = 1";
const SAME_CUTS: &str = "Thm 1.5 exact cut set ≡ centralized";
const FLOOD: &str = "Thm 1.5 BFS flood = 2m − (n − 1) messages";

/// Runs E4.
pub fn run() -> Report {
    let mut out = Report::default();
    out.table(
        "E4 (Theorem 1.5): distributed construction — rounds vs δ̂D, messages vs m",
        "graph, n, m, D, k, mode, rounds, rounds/(δ̂D), msgs, msgs/m, |O|, case I",
    );
    let sketch = |t| DistMode::Sketch {
        t,
        hash_seed: 0xabcd,
        cut_factor: 1.0,
    };
    let modes = [
        ("exact", DistMode::Exact),
        ("sketch t=16", sketch(16)),
        ("sketch t=32", sketch(32)),
    ];
    for s in [12, 16, 24, 32] {
        let g = gen::grid(s, s);
        let parts = random_parts(&g, s * s / 4, 42);
        let inst = instance(format!("grid {s}x{s}"), g, parts);
        let (name, n, m, d, k) = (&inst.name, inst.n, inst.graph.num_edges(), inst.d, inst.k);
        let central = inst.sweep(1, &ShortcutConfig::default(), None).0.data;
        // The flood that builds `T` (the instance's BFS tree) for every mode.
        let (_, flood) = distributed_bfs(&inst.graph, NodeId(0), DistConfig::default().sim)
            .expect("default round cap");
        for (mode_name, mode) in modes {
            let (res, detect) = inst.detect(mode);
            let rounds = flood.rounds + detect.rounds;
            let msgs = flood.messages + detect.messages;
            let row = format!("{name} {mode_name}");
            out.claim(&row, CASE_ONE, res.case_one(), Exactly, true);
            let case_one = out.cell(&row);
            if mode == DistMode::Exact {
                let diff = cut_set_difference(&res.data, &central) as f64;
                out.claim(&row, SAME_CUTS, diff, Exactly, 0);
            }
            let flood = flood.messages as f64;
            out.claim(&row, FLOOD, flood, Exactly, (2 * m - (n - 1)) as f64);
            let per_d = f2(rounds as f64 / f64::from(d.max(1)));
            let (per_m, cuts) = (f2(msgs as f64 / m as f64), res.data.over_edges.len());
            out.row(&[
                name, &n, &m, &d, &k, &mode_name, &rounds, &per_d, &msgs, &per_m, &cuts, &case_one,
            ]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke() {
        crate::experiments::assert_claims_hold(super::run());
    }
}
