//! E6 — Corollary 1.6: distributed MST round complexity by shortcut
//! provider.
//!
//! The wheel family (diameter 2, rim fragments of diameter Θ(n)) shows the
//! paper's separation: with minor-sweep shortcuts the rounds stay below the
//! `D+√n` baseline at every `n`, and the gap widens. On planar grids
//! (compact Voronoi fragments) all providers are comparable — grids are an
//! easy instance. Every run is checked against Kruskal.

use crate::experiments::rng;
use crate::{Relation::*, Report};
use lcs_algos::mst::{distributed_mst, kruskal, MstReport};
use lcs_congest::SimConfig;
use lcs_core::{baseline, construct, FullShortcutResult, Partition, ShortcutConfig};
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{bfs, gen, Graph, NodeId, PartId};

const EXACT: &str = "Cor 1.6 every provider's MST ≡ Kruskal";
const SEPARATION: &str = "Cor 1.6 wheel rounds: minor-sweep ≤ D+√n baseline";
const CLOCK: &str = "Cor 1.6 minor-sweep rounds ≤ its phase clock's";

/// One weighting of `g` under each provider (minor-sweep, baseline, none),
/// and whether all three returned Kruskal's tree.
fn run_all(g: &Graph, seed: u64) -> ([MstReport; 3], bool) {
    let weights = EdgeWeights::random_unique(g, &mut rng(seed));
    let reference = kruskal(g, &weights);
    let (tree, cfg) = (bfs::bfs_tree(g, NodeId(0)), &ShortcutConfig::default());
    // Constructing over no part is the free empty shortcut at `δ̂ = 1`.
    let none = |p: &Partition, _: &[PartId]| construct(g, &tree, p, &[], 1, cfg, None);
    let sweep = |p: &Partition, parts: &[PartId]| construct(g, &tree, p, parts, 1, cfg, None);
    let base = |p: &Partition, _: &[PartId]| {
        let shortcut = baseline::general_graph_shortcut(g, &tree, p);
        Ok(FullShortcutResult {
            shortcut,
            ..none(p, &[])?
        })
    };
    let reports = [
        distributed_mst(g, &weights, &tree, sweep, SimConfig::default()),
        distributed_mst(g, &weights, &tree, base, SimConfig::default()),
        distributed_mst(g, &weights, &tree, none, SimConfig::default()),
    ];
    let exact = reports.iter().all(|r| r.edges == reference);
    (reports, exact)
}

/// Runs E6: the wheel and the grid sweep. Rounds are per provider;
/// the rounds on the phase clock (every run billed its whole clock),
/// phases, messages, the MWOE `Up`s' and `Down`s' and the notify wave's
/// share of them, echoes
/// (MWOE aggregates no carried tree served, over fragments of at least 2
/// members — a singleton's echo sends nothing) and notified (fragments whose
/// merge-notify broadcast ran: the merging tails) are the minor-sweep
/// run's.
pub fn run() -> Report {
    let mut out = Report::default();
    // Wheel sweep: D = 2 fixed, n grows.
    out.table(
        "E6a (Corollary 1.6): MST rounds on wheels (D = 2, rim diameter Θ(n))",
        "n, minor-sweep, clock, phases, messages, mwoe up, mwoe down, notify msgs, echoes, notified, \
         baseline D+√n, no shortcuts, exact",
    );
    for n in [64, 128, 256, 512, 1024] {
        let ([sweep, base, none], exact) = run_all(&gen::wheel(n), 7);
        let (rounds, base_rounds) = (sweep.rounds.total(), base.rounds.total());
        let row = format!("wheel {n}");
        out.claim(&row, EXACT, exact, Exactly, true);
        let clock = sweep.clock_rounds.total();
        out.claim(&row, CLOCK, rounds as f64, AtMost, clock as f64);
        out.row(&[
            &n,
            &rounds,
            &clock,
            &sweep.phases,
            &sweep.messages,
            &(sweep.message_split.aggregation - sweep.mwoe_downs),
            &sweep.mwoe_downs,
            &sweep.message_split.notification,
            &sweep.echoes,
            &sweep.notified,
            &base_rounds,
            &none.rounds.total(),
            &out.cell(&row),
        ]);
        out.claim(&row, SEPARATION, rounds as f64, AtMost, base_rounds as f64);
    }
    // Grid sweep: all providers comparable (easy instance).
    out.table(
        "E6b: MST rounds on planar grids (compact fragments — an easy case)",
        "side, n, minor-sweep, clock, phases, messages, mwoe up, mwoe down, notify msgs, echoes, \
         notified, baseline D+√n, no shortcuts, exact",
    );
    for s in [8, 12, 16, 24] {
        let ([sweep, base, none], exact) = run_all(&gen::grid(s, s), 9);
        let row = format!("grid {s}x{s}");
        out.claim(&row, EXACT, exact, Exactly, true);
        let (rounds, clock) = (sweep.rounds.total(), sweep.clock_rounds.total());
        out.claim(&row, CLOCK, rounds as f64, AtMost, clock as f64);
        out.row(&[
            &s,
            &(s * s),
            &rounds,
            &clock,
            &sweep.phases,
            &sweep.messages,
            &(sweep.message_split.aggregation - sweep.mwoe_downs),
            &sweep.mwoe_downs,
            &sweep.message_split.notification,
            &sweep.echoes,
            &sweep.notified,
            &base.rounds.total(),
            &none.rounds.total(),
            &out.cell(&row),
        ]);
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_provider_is_exact() {
        crate::experiments::assert_claims_hold(super::run());
    }
}
