//! E3 — Lemma 3.2 / Figure 3.2: the lower-bound topology.
//!
//! Our constructed shortcut's measured quality must sit between the lemma's
//! `(δ-1)D/2` lower bound and Theorem 1.2's `O(δD log n)` envelope — the
//! tightness claim of the paper: the ratio to the lower bound stays a small
//! constant as `δ′D′` grows.

use crate::experiments::{claim_envelope, instance};
use crate::{f2, Relation::*, Report};
use lcs_graph::gen;

const LEMMA: &str = "Lemma 3.2 quality ≥ (δ-1)D/2";

/// Runs E3.
pub fn run() -> Report {
    let mut out = Report::default();
    out.table(
        "E3 (Lemma 3.2 / Fig 3.2): measured shortcut quality on the lower-bound topology",
        "δ', D', n, δ̂, quality, LB (δ-1)D/2, paper (δ'-3)D'/6, quality/LB, LB ok",
    );
    let sweep = [
        (5, 24),
        (5, 36),
        (5, 48),
        (6, 36),
        (6, 48),
        (7, 48),
        (8, 60),
    ];
    for (dp, dd) in sweep {
        let lb = gen::lower_bound_topology(dp, dd);
        let (lemma, paper) = (lb.internal_lower_bound(), lb.quality_lower_bound());
        // Rooted at node 0, the first node of the top path.
        let inst = instance(format!("δ'={dp} D'={dd}"), lb.graph, lb.rows);
        let (res, q, envelope) = inst.full_shortcut();
        let (delta_hat, quality) = (res.delta_hat, q.quality());
        out.claim(&inst.name, LEMMA, quality, AtLeast, lemma);
        let ok = out.cell(&inst.name);
        claim_envelope(&mut out, &inst.name, &q, &envelope);
        let (n, ratio) = (inst.n, f2(f64::from(quality) / lemma));
        let (bound, paper) = (f2(lemma), f2(paper));
        out.row(&[
            &dp, &dd, &n, &delta_hat, &quality, &bound, &paper, &ratio, &ok,
        ]);
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_shortcut_meets_the_lemma() {
        crate::experiments::assert_claims_hold(super::run());
    }
}
