//! E2 — Theorem 1.2 via Observations 2.6/2.7: full shortcuts with
//! congestion `O(δD log n)` and dilation `O(δD)`.
//!
//! The congestion bound per the construction is `8δ̂D · rounds` with
//! `rounds <= log₂ k`, and the dilation bound is `(8δ̂+1)(2D+1)`.

use crate::experiments::{claim_envelope, family_zoo};
use crate::Report;

/// Runs E2.
pub fn run() -> Report {
    let mut out = Report::default();
    out.table(
        "E2 (Theorem 1.2): full shortcuts — congestion vs 8δ̂D·rounds, dilation vs (8δ̂+1)(2D+1)",
        "family, n, D, k, δ̂, rounds, cong, cong bound, dil, dil bound, quality, bounds ok",
    );
    for inst in family_zoo() {
        let (res, q, bound) = inst.full_shortcut();
        let (name, n, d, k) = (&inst.name, inst.n, inst.d, inst.k);
        claim_envelope(&mut out, name, &q, &bound);
        let ok = out.cell(name);
        let (delta_hat, rounds) = (res.delta_hat, res.successful_rounds);
        let (cong, dil, quality) = (q.max_congestion, q.max_dilation_upper, q.quality());
        let (c_max, d_max) = (bound.congestion, bound.dilation);
        out.row(&[
            name, &n, &d, &k, &delta_hat, &rounds, &cong, &c_max, &dil, &d_max, &quality, &ok,
        ]);
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn bounds_hold_everywhere() {
        crate::experiments::assert_claims_hold(super::run());
    }
}
