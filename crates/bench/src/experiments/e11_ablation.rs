//! E11 — ablations on the construction's knobs.
//!
//! (a) Sketch size `t`: how closely the randomized detector reproduces the
//!     exact cut set, and the congestion of the resulting shortcut.
//! (b) Congestion factor (the paper's constant 8): smaller thresholds cut
//!     more edges and tip the sweep into Case (II). The Theorem 3.1
//!     dichotomy must hold at every factor: a row is either Case (I) inside
//!     the envelope of its own thresholds, or Case (II) with a verified
//!     witness denser than `δ̂`.

use crate::experiments::{cut_set_difference, instance};
use crate::{f2, Relation::*, Report};
use lcs_core::dist::DistMode;
use lcs_core::ShortcutConfig;
use lcs_graph::{gen, minor};

const CONGESTION: &str = "Thm 3.1 case (I) congestion ≤ own threshold";
const BLOCKS: &str = "Thm 3.1 case (I) blocks ≤ own threshold + 1";
const WITNESS: &str = "Thm 3.1 case (II) verified witness density > δ̂";

/// Runs E11: both ablation tables.
pub fn run() -> Report {
    let mut out = Report::default();
    sketch_ablation(&mut out);
    constant_ablation(&mut out);
    out
}

fn sketch_ablation(out: &mut Report) {
    // Singleton parts: k = n exceeds c = 8D, so the detector has real
    // overcongested edges to find.
    let g = gen::grid(24, 24);
    let parts = gen::singleton_parts(&g);
    let inst = instance("grid singletons", g, parts);
    let (exact, _) = inst.detect(DistMode::Exact);
    out.table(
        "E11a: sketch size t vs detection accuracy (grid, δ̂ = 1)",
        "t, |O| sketch, |O| exact, sym diff, cong, detect rounds, served",
    );
    for tt in [4, 8, 16, 32, 64] {
        let (res, detect) = inst.detect(DistMode::Sketch {
            t: tt,
            hash_seed: 0x5eed,
            cut_factor: 1.0,
        });
        let (cuts, exact_cuts) = (res.data.over_edges.len(), exact.data.over_edges.len());
        let sym_diff = cut_set_difference(&res.data, &exact.data);
        let cong = inst.quality(&res.shortcut).max_congestion;
        let (rounds, served) = (detect.rounds, res.served.len());
        out.row(&[&tt, &cuts, &exact_cuts, &sym_diff, &cong, &rounds, &served]);
    }
}

fn constant_ablation(out: &mut Report) {
    let comb = gen::comb(10, 28);
    let inst = instance("comb(10,28)", comb.graph, comb.parts);
    out.table(
        "E11b: congestion factor (paper constant 8) on the comb at δ̂ = 1",
        "factor, c, case, |O|, served, cong, blocks, witness density",
    );
    for factor in [1, 2, 4, 8, 16] {
        let cfg = ShortcutConfig {
            congestion_factor: factor,
        };
        let row = format!("{} factor {factor}", inst.name);
        let sweep = inst.sweep(1, &cfg, None).0;
        let (c, cuts) = (sweep.data.congestion_threshold, sweep.data.over_edges.len());
        if sweep.case_one() {
            let q = inst.quality(&sweep.shortcut);
            let (served, cong, blocks) = (sweep.served.len(), q.max_congestion, q.max_blocks);
            let own = cfg.envelope(1, inst.d, 1);
            out.claim(&row, CONGESTION, cong, AtMost, own.congestion);
            out.claim(&row, BLOCKS, blocks, AtMost, own.blocks);
            out.row(&[&factor, &c, &"I", &cuts, &served, &cong, &blocks, &"-"]);
        } else {
            // An absent or unverifiable witness certifies nothing.
            let verified = sweep
                .witness
                .filter(|w| minor::verify_minor(&inst.graph, w).is_ok());
            let density = verified.map(|w| w.density());
            out.claim(&row, WITNESS, density.unwrap_or(0.0), MoreThan, 1);
            let density = density.map_or("none".to_string(), f2);
            out.row(&[&factor, &c, &"II", &cuts, &0, &"-", &"-", &density]);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn smoke() {
        crate::experiments::assert_claims_hold(super::run());
    }
}
