//! E1 — Theorem 3.1: tree-restricted `8δ̂D`-congestion `8δ̂`-block partial
//! shortcuts.
//!
//! For each family instance, run the sweep at the smallest `δ̂` that lands
//! in Case (I) and check the measured congestion / block number against the
//! theorem's thresholds. The `bounds ok` column is the reproduction claim.

use crate::experiments::family_zoo;
use crate::{Relation::*, Report};
use lcs_core::ShortcutConfig;

const VALID: &str = "Thm 3.1 tree-restricted, served parts connected";
const CONGESTION: &str = "Thm 3.1 congestion ≤ 8δ̂D";
const BLOCKS: &str = "Thm 3.1 served blocks ≤ 8δ̂+1";

/// Runs E1.
pub fn run() -> Report {
    let mut out = Report::default();
    out.table(
        "E1 (Theorem 3.1): partial shortcuts — measured vs 8δ̂D congestion, 8δ̂ blocks",
        "family, n, D, k, δ̂, served, |O|, cong, c=8δ̂D, blocks, 8δ̂+1, bounds ok",
    );
    let cfg = ShortcutConfig::default();
    for inst in family_zoo() {
        let mut delta_hat = 1;
        let ps = loop {
            let sweep = inst.sweep(delta_hat, &cfg, None).0;
            if sweep.case_one() {
                break sweep;
            }
            delta_hat *= 2;
        };
        let q = inst.quality(&ps.shortcut);
        let served = || ps.served.iter().map(|&p| q.per_part[p.index()]);
        let blocks = served().map(|part| part.blocks).max().unwrap_or(0);
        let valid = q.tree_restricted && served().all(|part| part.connected);
        // One sweep's share of the Theorem 1.2 envelope.
        let bound = cfg.envelope(delta_hat, inst.d, 1);
        let (c_max, b_max, cong) = (bound.congestion, bound.blocks, q.max_congestion);
        let (name, n, d, k) = (&inst.name, inst.n, inst.d, inst.k);
        out.claim(name, VALID, valid, Exactly, true);
        out.claim(name, CONGESTION, cong, AtMost, c_max);
        out.claim(name, BLOCKS, blocks, AtMost, b_max);
        let ok = out.cell(name);
        let (served, cuts) = (ps.served.len(), ps.data.over_edges.len());
        out.row(&[
            name, &n, &d, &k, &delta_hat, &served, &cuts, &cong, &c_max, &blocks, &b_max, &ok,
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
