//! E9 — Corollary 3.4 / Lemma 3.3: shortcut quality vs treewidth.
//!
//! Family: the `k`-th power of a path with `n = k·D + 1` nodes, so the
//! diameter stays `D` while treewidth is exactly `k`. Minor density is at
//! most treewidth and the doubling search overshoots by less than 2×, so
//! `δ̂ ≤ 2k` and the shortcut sits inside the Theorem 1.2 envelope at `2k` —
//! the corollary's `O(kD log n)` with the construction's constants.

use crate::experiments::{claim_envelope, instance, random_parts};
use crate::{f2, Relation::*, Report};
use lcs_core::ShortcutConfig;
use lcs_graph::{gen, minor};

/// Runs E9.
pub fn run() -> Report {
    let mut out = Report::default();
    let d = 75;
    out.table(
        "E9 (Corollary 3.4): quality vs treewidth k (path powers, diameter fixed)",
        "k, n, m/n, density LB, δ̂, quality, quality/(k·D)",
    );
    for k in [1, 2, 4, 8, 16u32] {
        let n = (k * d + 1) as usize;
        let g = gen::path_power(n, k as usize);
        // Fixed part count across the sweep so only k varies.
        let parts = random_parts(&g, 20.min(n / 2), 300 + u64::from(k));
        let inst = instance(format!("k={k}"), g, parts);
        let (res, q, _) = inst.full_shortcut();
        let (delta_hat, quality) = (res.delta_hat, q.quality());
        let density = minor::greedy_contraction_density(&inst.graph, None).density;
        out.claim(&inst.name, "Cor 3.4 δ̂ ≤ 2k", delta_hat, AtMost, 2 * k);
        let at_2k = ShortcutConfig::default().envelope(2 * k, inst.d, res.successful_rounds);
        claim_envelope(&mut out, &inst.name, &q, &at_2k);
        let (m_per_n, density) = (f2(inst.graph.density()), f2(density));
        let per_kd = f2(f64::from(quality) / f64::from(k * d));
        out.row(&[&k, &n, &m_per_n, &density, &delta_hat, &quality, &per_kd]);
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
