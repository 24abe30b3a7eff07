//! E12 — the certifying algorithm (remark after Theorem 3.1): dense-minor
//! extraction quality.
//!
//! On Case (II) instances: how often the paper's `1/4D` sampling succeeds
//! per attempt, what density the derandomized extraction certifies, and that
//! every produced witness verifies as a minor denser than `δ̂`.

use crate::experiments::instance;
use crate::{f2, Relation::*, Report};
use lcs_core::{extract_witness_sampled, ShortcutConfig};
use lcs_graph::{gen, minor};

const SAMPLED: &str = "Thm 3.1 every sampled witness verifies, density > δ̂";
const DERANDOMIZED: &str = "Thm 3.1 derandomized witness verifies, density > δ̂";

/// Runs E12.
pub fn run() -> Report {
    let mut out = Report::default();
    out.table(
        "E12 (certifying Theorem 3.1): dense-minor extraction on Case (II) instances",
        "instance, δ̂, D, |B| edges, sample hit %, derand density, derand verified",
    );
    for (tt, k) in [(10, 20), (12, 24), (16, 40), (24, 64), (10, 128)] {
        let comb = gen::comb(tt, k);
        let inst = instance(format!("comb({tt},{k})"), comb.graph, comb.parts);
        let (g, tree, partition) = (&inst.graph, &inst.tree, &inst.partition);
        let cfg = ShortcutConfig::default();
        let sweep = inst.sweep(1, &cfg, None).0;
        if sweep.case_one() {
            // Not a Case (II) instance at this size; skip the row.
            continue;
        }
        let (witness, data) = (sweep.witness, sweep.data);
        let b_edges: usize = data.over_edges.iter().map(|oe| oe.parts.len()).sum();
        // The density a witness certifies: none unless it verifies.
        let certified = |w: &minor::MinorWitness| match minor::verify_minor(g, w) {
            Ok(_) => w.density(),
            Err(_) => 0.0,
        };

        // Sampling hit rate over independent single attempts.
        let trials = 200;
        let sampled: Vec<f64> = (0..trials)
            .filter_map(|i| extract_witness_sampled(g, tree, partition, &data, 1, 0x1000 + i))
            .map(|w| certified(&w))
            .collect();
        let weakest = sampled.iter().copied().fold(f64::INFINITY, f64::min);
        let hit_rate = f2(100.0 * sampled.len() as f64 / trials as f64);

        // The sweep's own certificate: the derandomized extraction.
        let density = witness
            .as_ref()
            .map_or("none".to_string(), |w| f2(w.density()));
        let certified = witness.as_ref().map_or(0.0, certified);
        out.claim(&inst.name, DERANDOMIZED, certified, MoreThan, 1);
        let verified = out.cell(&inst.name);
        out.claim(&inst.name, SAMPLED, weakest, MoreThan, 1);
        out.row(&[
            &inst.name, &1, &inst.d, &b_edges, &hit_rate, &density, &verified,
        ]);
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn derandomized_always_verifies() {
        crate::experiments::assert_claims_hold(super::run());
    }
}
