//! E8 — Corollary 1.4: shortcut quality vs genus.
//!
//! Family: planar grid plus `g` random chords (genus <= g; minor density
//! grows like √g). Corollary 1.4 promises quality `O(√g·D·log n)`; the key
//! observation in this family is that chords shrink `D` faster than they
//! raise `δ`, so the measured quality *falls* while staying within the
//! bound — checked with the constant pinned at 1 — alongside the certified
//! density lower bound.

use crate::experiments::{instance, random_parts, rng};
use crate::{f2, Relation::*, Report};
use lcs_graph::{gen, minor};

/// Runs E8.
pub fn run() -> Report {
    let mut out = Report::default();
    out.table(
        "E8 (Corollary 1.4): quality vs genus proxy g (grid + g random chords)",
        "g, √g, n, m, D, δ̂, density LB, quality, bound √g·D·log₂n, within bound",
    );
    let side = 20;
    for gx in [0, 4, 16, 64, 256] {
        let g = match gx {
            0 => gen::grid(side, side),
            _ => gen::grid_plus_random_edges(side, side, gx, &mut rng(88 + gx as u64)),
        };
        let parts = random_parts(&g, side * side / 8, 200 + gx as u64);
        let inst = instance(format!("g={gx}"), g, parts);
        let (res, q, _) = inst.full_shortcut();
        let (n, m, d) = (inst.n, inst.graph.num_edges(), inst.d);
        let (delta_hat, quality) = (res.delta_hat, q.quality());
        let density = minor::greedy_contraction_density(&inst.graph, None).density;
        let sqrt_g = (gx as f64).sqrt().max(1.0);
        let bound = sqrt_g * f64::from(d.max(1)) * (n as f64).log2();
        let within = "Cor 1.4 quality ≤ √g·D·log₂n (pinned)";
        out.claim(&inst.name, within, quality, AtMost, bound);
        let within = out.cell(&inst.name);
        let (sqrt_g, density, bound) = (f2(sqrt_g), f2(density), f2(bound));
        out.row(&[
            &gx, &sqrt_g, &n, &m, &d, &delta_hat, &density, &quality, &bound, &within,
        ]);
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
