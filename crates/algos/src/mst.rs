//! Minimum spanning trees: Kruskal (centralized reference) and distributed
//! Boruvka over shortcuts (Corollary 1.6).
//!
//! The distributed algorithm follows the paper's recipe: fragments are the
//! parts of a part-wise aggregation instance; each phase (1) exchanges
//! fragment ids with neighbors (one round) — every node keeps the id it
//! last heard per port, so after the first exchange only a node relabeled
//! by the previous merge sends, and only over ports leaving its old
//! fragment, (2) constructs shortcuts for the fragments the previous merge
//! grew — a phase is a churn tick: the fragment partition, its shortcut,
//! tables and trees follow the merge's [`Transition`], and an unchanged
//! fragment keeps all of them — (3) aggregates the
//! minimum-weight outgoing edge per fragment — warm after the first phase:
//! a fragment's spanning tree is carried over from the previous phase, a
//! merged fragment's being its constituents' trees joined at the MWOE edges,
//! a node they share keeping one parent (at most `2D + 1` high, one block;
//! a fragment whose tree cannot be carried runs the full echo). A slot sends
//! `Up` only when its subtree minimum or its parent changed since it last
//! did, and once the `Up`s are quiet the minimum goes down only the path to
//! the member inside the MWOE ([`Wave::ToExtreme`]); every run of a phase
//! ends on its clock. (4) merges fragments after public
//! coin flips (seed, phase and id fix a coin): each tail sends a 1-bit
//! notice across its MWOE, a tail merges into a head, and of a mutual-MWOE
//! pair of tails (notices crossing on one edge) the smaller id merges into
//! the larger — no merge targets a fragment that merges itself, so
//! relabeling stays one hop. A merging tail's members learn the new id from
//! a broadcast the member inside its MWOE leads over the tail's tree
//! ([`Wave::Broadcast`]); heads, finished fragments and tails that stay put
//! send nothing, their members keeping their id. All MWOEs are safe by the
//! cut property under the (weight, edge-id) tie-break, so the edge set is
//! exact.

use lcs_congest::protocols::AggOp;
use lcs_congest::{id_bits, splitmix, SimConfig};
use lcs_core::dist::Truncated;
use lcs_core::{FullShortcutResult, Partition, Shortcut, ShortcutConfig, Transition};
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{EdgeId, Graph, NodeId, PartId, RootedTree, UnionFind};
use lcs_partwise::{AggForest, AggregateOp, ParticipationMap, Wave};
use serde::{Deserialize, Serialize};

/// Kruskal's algorithm — the centralized reference.
///
/// Ties are broken by edge id, matching the distributed tie-break, so on any
/// input the two algorithms produce the identical forest.
pub fn kruskal(g: &Graph, weights: &EdgeWeights) -> Vec<EdgeId> {
    let mut order: Vec<EdgeId> = g.edges().map(|er| er.id).collect();
    order.sort_by_key(|&e| (weights.weight(e), e));
    let mut uf = UnionFind::new(g.num_nodes());
    let mut forest = Vec::new();
    for e in order {
        let (u, v) = g.endpoints(e);
        if uf.union(u.index(), v.index()) {
            forest.push(e);
        }
    }
    forest.sort_unstable();
    forest
}

/// A run's cost per step: its rounds ([`MstReport::rounds`]) or its
/// messages ([`MstReport::message_split`]).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MstSteps {
    /// Neighbor fragment-id exchanges and merge notices. Rounds: one per
    /// exchange (one per phase, plus the one that finds nothing left to
    /// merge or stops at the phase cap) and one notice round per phase,
    /// `2·phases + 1` — a run stopped by a truncated construction or MWOE
    /// run bills `2·phases − 1`, one stopped by a truncated notify wave
    /// `2·phases`. Messages: `2m` the first time, then one per port a
    /// relabeled node has out of its old fragment, one detach per parent a
    /// node shared by merged trees drops ([`AggForest::carried_over`]), and
    /// one 1-bit notice per tail with an outgoing MWOE.
    pub exchange: u64,
    /// Shortcut construction: the [`cost`](FullShortcutResult::cost) of
    /// every shortcut `fresh` returned (zero where it builds centrally).
    pub construction: u64,
    /// MWOE aggregations.
    pub aggregation: u64,
    /// Merge-notification broadcasts.
    pub notification: u64,
}

impl MstSteps {
    /// The sum of the four steps.
    pub fn total(&self) -> u64 {
        self.exchange + self.construction + self.aggregation + self.notification
    }
}

impl std::ops::AddAssign<&MstSteps> for MstSteps {
    fn add_assign(&mut self, other: &MstSteps) {
        self.exchange += other.exchange;
        self.construction += other.construction;
        self.aggregation += other.aggregation;
        self.notification += other.notification;
    }
}

/// Result of [`distributed_mst`].
#[derive(Clone, Debug, Default)]
pub struct MstReport {
    /// The forest edges, sorted by id.
    pub edges: Vec<EdgeId>,
    /// Total weight.
    pub total_weight: u64,
    /// Boruvka phases executed.
    pub phases: usize,
    /// Simulated rounds per step.
    pub rounds: MstSteps,
    /// `rounds` on the phase clock ([`AggregateOp::run_masked`]): its MWOE
    /// `Up` and `Down` and notify runs bill all of it, the rest what they take.
    pub clock_rounds: MstSteps,
    /// Total simulated messages: `message_split`'s sum.
    pub messages: u64,
    /// Simulated messages per step.
    pub message_split: MstSteps,
    /// Of `message_split.aggregation`, the `Down`s to each MWOE's holder.
    pub mwoe_downs: u64,
    /// Total simulated bits (id-aware accounting; id exchanges are billed
    /// at `id_bits(n)` per message; a merge notice is 1 bit).
    pub bits: u64,
    /// Fragment MWOE aggregates that ran the full echo because no carried
    /// tree served them, counting only fragments of at least 2 members (a
    /// singleton's echo sends nothing); the others started at the
    /// convergecast.
    pub echoes: usize,
    /// Fragments whose merge-notify broadcast ran: the merging tails.
    pub notified: usize,
    /// Whether the run was cut short — a simulator run (construction or
    /// aggregation) hit the round cap, or the phase cap was reached:
    /// `edges` is then the forest found so far, not a finished answer.
    pub truncated: bool,
}

/// Packs `(weight, edge)` so that `min` over `u64` picks the lightest edge
/// with id tie-break.
fn pack(w: u64, e: EdgeId) -> u64 {
    debug_assert!(w < (1 << 31), "weights must fit in 31 bits");
    (w << 32) | u64::from(e.0)
}

fn unpack(p: u64) -> EdgeId {
    EdgeId((p & 0xffff_ffff) as u32)
}

/// Seed of the public coins every node evaluates.
const COIN_SEED: u64 = 0xb0_aa_12;

/// Fragment `id`'s coin in `phase` (`true`: heads), which any node holding the id evaluates.
fn coin(seed: u64, phase: usize, id: u32) -> bool {
    splitmix(splitmix(seed, phase as u32), id) & 1 == 1
}

/// Distributed Boruvka over shortcuts.
///
/// Returns the exact minimum spanning forest (per the `(weight, edge-id)`
/// tie-break) together with simulated round counts. `tree` is the spanning
/// tree the shortcuts are built on (a session passes its own); for its
/// depth `D`, a carried fragment tree is kept up to one block's dilation,
/// `2D + 1` high, so a warm aggregate stays within about `2(2D + 1)`
/// rounds plus queueing. The coins are public, drawn from one fixed seed,
/// and the run stops after `4·bitlen(n) + 16` phases. The two undelayed
/// aggregations of every phase run on `sim` (a session passes its
/// [`SessionConfig::sim`](lcs_core::session::SessionConfig::sim)), each
/// capped at the phase clock, whose congestion bound has the paper's
/// constants ([`ShortcutConfig::default`]).
///
/// Shortcuts come from the caller. Once per phase after the first,
/// Boruvka calls `fresh(partition, parts)`, where `parts` are the fragments
/// the last merge touched that lie in `tree`'s component and have more than
/// `2D + 1` members. The result is shaped like `partition`: every touched
/// fragment takes its `H_i` from it, every other fragment keeps its own.
/// Its [`cost`](FullShortcutResult::cost) is charged to
/// [`MstSteps::construction`], and its `δ̂` raises the phase clock's. A
/// session passes [`construct`](lcs_core::construct) on its backend;
/// comparators pass `construct` unsimulated, `construct` over no part (no
/// shortcuts), or the `D + √n`
/// [baseline](lcs_core::baseline::general_graph_shortcut).
///
/// A run that cannot finish — a simulator run hits
/// [`sim.max_rounds`](lcs_congest::SimConfig::max_rounds) or its phase's
/// clock, `fresh` returns [`Truncated`], or the next phase would exceed
/// the phase cap — stops there and reports the forest found so far with
/// [`truncated`](MstReport::truncated) set.
///
/// # Panics
///
/// Panics if `g` is empty or a weight exceeds `2³¹ - 1`.
pub fn distributed_mst(
    g: &Graph,
    weights: &EdgeWeights,
    tree: &RootedTree,
    fresh: impl FnMut(&Partition, &[PartId]) -> Result<FullShortcutResult, Truncated>,
    sim: SimConfig,
) -> MstReport {
    let max_phases = 4 * (usize::BITS - g.num_nodes().leading_zeros()) as usize + 16;
    boruvka(g, weights, tree, fresh, sim, COIN_SEED, max_phases)
}

/// [`distributed_mst`] on the coins of `coins` and a cap of `max_phases`.
pub(crate) fn boruvka(
    g: &Graph,
    weights: &EdgeWeights,
    tree: &RootedTree,
    mut fresh: impl FnMut(&Partition, &[PartId]) -> Result<FullShortcutResult, Truncated>,
    sim: SimConfig,
    coins: u64,
    max_phases: usize,
) -> MstReport {
    let n = g.num_nodes();
    assert!(n > 0, "empty graph");
    for (_, w) in weights.iter() {
        assert!(w < (1 << 31), "weights must fit in 31 bits");
    }
    // `2D + 1`, one block's dilation (Observation 2.6): the height a carried
    // fragment tree is kept up to, and the size above which an in-tree
    // fragment gets a construction (a smaller one meets the dilation bound
    // on its own; the tree cannot reach one outside its component).
    let (depth, mut delta_hat) = (tree.depth_of_tree(), 1);
    let block = 2 * depth as usize + 1;
    let constructs = |nodes: &[NodeId]| tree.contains(nodes[0]) && nodes.len() > block;
    let mut report = MstReport::default();

    // Node-local state: each node's fragment id (learned from the notify
    // waves) and `known[first_out[v] + port]`, the id it last heard over
    // that port. The first exchange sends every id.
    let first_out = g.first_out();
    let port_base = |v: NodeId| first_out[v.index()] as usize;
    let mut fragment_of: Vec<u32> = (0..n as u32).collect();
    let mut known: Vec<u32> = g.nodes().flat_map(|v| g.heads(v)).map(|w| w.0).collect();
    let mut sends = 2 * g.num_edges() as u64;
    let mut in_mst = vec![false; g.num_edges()];
    // The fragment partition, in fragment-id order, with its shortcut,
    // tables and forest. A phase is a churn tick: its merges are one
    // `Transition`, which the next phase carries everything across.
    let mut partition = Partition::singletons(g);
    let mut shortcut = Shortcut::empty(n);
    let mut participation = ParticipationMap::build(g, &partition, &shortcut);
    let mut forest = AggForest::unrooted(&partition, &participation);
    let mut transition: Option<Transition> = None;

    loop {
        let k = partition.num_parts();
        // One round of neighbor id exchange (fragment ids are id payloads),
        // after which every node's table reads its neighbors' ids.
        report.rounds.exchange += 1;
        report.message_split.exchange += sends;
        report.bits += sends * id_bits(n) as u64;
        debug_assert!(
            g.nodes().all(|v| g
                .heads(v)
                .iter()
                .enumerate()
                .all(|(port, w)| known[port_base(v) + port] == fragment_of[w.index()])),
            "an id table went stale"
        );

        // Local MWOE per node: lightest incident edge leaving the fragment.
        let mut local: Vec<u64> = vec![u64::MAX; n];
        let mut any_outgoing = false;
        for v in g.nodes() {
            for (port, nb) in g.neighbors(v).enumerate() {
                if known[port_base(v) + port] != fragment_of[v.index()] {
                    let p = pack(weights.weight(nb.edge), nb.edge);
                    if p < local[v.index()] {
                        local[v.index()] = p;
                    }
                    any_outgoing = true;
                }
            }
        }
        if !any_outgoing || k <= 1 {
            break;
        }
        if report.phases == max_phases {
            report.truncated = true;
            break;
        }
        let phase = report.phases;
        report.phases += 1;

        // Only the fragments the last phase's merges touched changed. Every
        // other fragment keeps its `H_i`, slots and tree; a touched one gets
        // a construction and its constituents' trees, each tail's re-rooted
        // at the inside end of its MWOE and hung from the far end, echoed
        // afresh by the MWOE aggregate where that fails (every fragment in
        // the first phase). Fragments only grow, so the carry's churn
        // repairs (departures, arrivals) never fire here.
        if let Some(t) = transition.take() {
            let touched = t.touched().iter().copied();
            let search: Vec<PartId> = touched.filter(|&p| constructs(partition.part(p))).collect();
            let Ok(built) = fresh(&partition, &search) else {
                report.truncated = true;
                break;
            };
            delta_hat = delta_hat.max(built.delta_hat);
            report.rounds.construction += built.cost.rounds;
            report.message_split.construction += built.cost.messages;
            report.bits += built.cost.bits;
            shortcut = shortcut.carried_over(&t, built.shortcut);
            let next = participation.refreshed(g, &partition, &shortcut, &t);
            let (carried, detaches) =
                forest.carried_over(g, &participation, &partition, &next, &t, block);
            (forest, participation) = (carried, next);
            // A detach names its part and rides this phase's id exchange.
            report.message_split.exchange += detaches as u64;
            report.bits += detaches as u64 * id_bits(n) as u64;
        }
        debug_assert!(
            (forest.heights(g, &participation).into_iter().flatten()).all(|h| h <= block),
            "a carried tree is higher than one block"
        );
        // A fragment is led from its id, which is one of its members (a
        // singleton's own id, or the id of the fragment that stayed put
        // while others merged into it, and the root of its tree) and which
        // every member learned from the previous phase's notify wave: no
        // election needed.
        let ids = partition
            .iter()
            .map(|(_, nodes)| fragment_of[nodes[0].index()]);
        let mut leaders: Vec<NodeId> = ids.map(NodeId).collect();
        // A fragment of two or more members that no carried tree serves
        // runs the echo; a singleton's sends nothing.
        let cold = (partition.iter().zip(forest.tree_edges(&participation)))
            .filter(|((_, nodes), edges)| nodes.len() > 1 && *edges == 0)
            .count();
        // The phase's clock (`run_masked`, undelayed): the parts an edge
        // carries (the congestion bound at the largest `δ̂` reached,
        // `⌈log₂(n+1)⌉` sweeps, or the most at a node) and the tallest tree
        // a run can use.
        let bound = ShortcutConfig::default().envelope(delta_hat, depth, id_bits(n));
        let c = u64::from(bound.congestion).max(participation.load() as u64);
        let h = forest.height_bound(&participation, block) as u64;
        let clock = c + 2 * h + 1;
        let sim = SimConfig {
            max_rounds: sim.max_rounds.min(clock),
            ..sim
        };
        let mut aggregate = |values: &[u64], op, leaders: &[NodeId], shape| {
            let op = AggregateOp {
                values,
                op,
                leaders: Some(leaders),
            };
            let out = op.run_masked(g, &partition, (0, sim), &participation, &mut forest, shape);
            report.bits += out.metrics.bits;
            report.truncated |= out.metrics.truncated;
            out
        };

        // MWOE aggregation per fragment, the minimum going down only to the
        // member inside the MWOE.
        let agg = aggregate(&local, AggOp::Min, &leaders, (Wave::ToExtreme, None));
        report.rounds.aggregation += agg.metrics.rounds;
        report.clock_rounds.aggregation += 2 * clock;
        report.message_split.aggregation += agg.metrics.messages;
        report.mwoe_downs += agg.down.messages;
        report.echoes += cold;
        if agg.metrics.truncated {
            break; // a partial minimum is no MWOE
        }
        debug_assert!(agg.all_members_informed, "an MWOE went unheard");

        // Merge decisions. Every node evaluates its fragment's coin, and
        // each neighbour's from its id table; the member inside each tail's
        // MWOE sends a 1-bit notice across it. A tail merges into a head; of
        // a mutual pair of tails (notices crossing on one edge) the smaller
        // id merges into the larger. Nothing targets a fragment that merges
        // itself: a head never merges, and the larger of a tail pair stays
        // put (its MWOE leads to a tail, its one mutual partner). The far
        // end of a merging MWOE hears the notice, so both ends know it joins
        // their trees.
        report.rounds.exchange += 1;
        let mut notify: Vec<u64> = vec![0; n];
        let (mut stays, mut notices) = (vec![true; k], 0);
        let mut joins = Vec::new();
        for (i, part) in partition.part_ids().enumerate() {
            let Some(p) = agg.results[i].filter(|&p| p != u64::MAX) else {
                continue; // no outgoing edge: fragment is a finished component
            };
            let e = unpack(p);
            if !std::mem::replace(&mut in_mst[e.index()], true) {
                report.edges.push(e); // every MWOE is safe by the cut property
            }
            let id = leaders[i].0;
            if coin(coins, phase, id) {
                continue; // a head stays put
            }
            notices += 1;
            let (mut inside, mut far) = g.endpoints(e);
            if partition.part_of(inside) != Some(part) {
                std::mem::swap(&mut inside, &mut far);
            }
            let port = g.port_to(inside, far).expect("MWOE endpoints are adjacent");
            let target = known[port_base(inside) + port];
            let to = partition
                .part_of(NodeId(target))
                .expect("an id is a member");
            let mutual = agg.results[to.index()] == Some(p);
            if coin(coins, phase, target) || (mutual && id < target) {
                notify[inside.index()] = u64::from(target) + 1;
                (stays[i], leaders[i]) = (false, inside);
                joins.push((part, inside, far));
            }
        }
        // Merge notification: the member inside each merging tail's MWOE
        // broadcasts the target id over the tail's tree. Everyone else
        // stays put and hears nothing within the phase's clock, like a
        // head. Each slot on the path from the inside member to the root
        // hears the broadcast from a child: the parent pointers that flip.
        let shape = (Wave::Broadcast, Some(&stays[..]));
        let note = aggregate(&notify, AggOp::Max, &leaders, shape);
        report.message_split.exchange += notices;
        report.bits += notices;
        report.notified += stays.iter().filter(|&&stays| !stays).count();
        report.message_split.notification += note.metrics.messages;
        report.rounds.notification += note.metrics.rounds;
        report.clock_rounds.notification += clock;
        if note.metrics.truncated {
            break; // a partial broadcast would relabel half a fragment
        }
        debug_assert!(note.all_members_informed, "a new id went unheard");

        // Apply merges. One pass suffices: no relabeled node is relabeled
        // again. A relabeled node rewrites its ports that read its old id
        // (its whole old fragment relabels with it) and sends the new id
        // over the others, for the next exchange. A delivered id never
        // equals its receiver's old id (a merge target does not relabel),
        // so delivering at once leaves every later check intact.
        sends = 0;
        for v in g.nodes() {
            let part = partition.part_of(v).expect("fragments cover every node");
            let Some(res @ 1..) = note.results[part.index()] else {
                continue;
            };
            let (old, new) = (fragment_of[v.index()], (res - 1) as u32);
            fragment_of[v.index()] = new;
            for (port, &w) in g.heads(v).iter().enumerate() {
                let slot = &mut known[port_base(v) + port];
                if *slot == old {
                    *slot = new;
                } else {
                    let back = g.port_to(w, v).expect("adjacency is symmetric");
                    known[port_base(w) + back] = new;
                    sends += 1;
                }
            }
        }
        let (next, t) = partition
            .merge(g, joins)
            .expect("merged fragments are connected");
        (partition, transition) = (next, Some(t));
    }

    report.clock_rounds.exchange = report.rounds.exchange;
    report.clock_rounds.construction = report.rounds.construction;
    report.edges.sort_unstable();
    report.total_weight = weights.total(report.edges.iter().copied());
    report.messages = report.message_split.total();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_core::dist::DistConfig;
    use lcs_core::{baseline, construct, measure_quality, ConstructionStats};
    use lcs_graph::{bfs, gen};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, BTreeSet};

    /// Where a test's Boruvka phases get their shortcuts: the centralized
    /// or simulated construction, the `D + √n` baseline, or none.
    #[derive(Clone, Copy, Debug)]
    enum Provider {
        Oracle,
        Distributed(DistConfig),
        Baseline,
        None,
    }

    impl Provider {
        /// The `fresh` closure this provider stands for over `tree`. The
        /// baseline ignores `parts` and, like no shortcuts, is free at
        /// `δ̂ = 1`.
        fn fresh<'a>(
            self,
            g: &'a Graph,
            tree: &'a RootedTree,
        ) -> impl FnMut(&Partition, &[PartId]) -> Result<FullShortcutResult, Truncated> + 'a
        {
            let cfg = ShortcutConfig::default();
            move |p, parts| match self {
                Provider::Oracle => construct(g, tree, p, parts, 1, &cfg, None),
                Provider::Distributed(dist) => construct(g, tree, p, parts, 1, &cfg, Some(&dist)),
                Provider::None => construct(g, tree, p, &[], 1, &cfg, None),
                Provider::Baseline => {
                    let shortcut = baseline::general_graph_shortcut(g, tree, p);
                    let empty = construct(g, tree, p, &[], 1, &cfg, None)?;
                    Ok(FullShortcutResult { shortcut, ..empty })
                }
            }
        }
    }

    /// Boruvka over the BFS tree of node 0 on the default simulator.
    fn mst_of(g: &Graph, w: &EdgeWeights, provider: Provider) -> MstReport {
        let tree = bfs::bfs_tree(g, NodeId(0));
        distributed_mst(g, w, &tree, provider.fresh(g, &tree), SimConfig::default())
    }

    /// One Boruvka phase replayed on the host: the fragment map it starts
    /// from, the tails with an MWOE (they notify), how many merge into a
    /// head or as the smaller of a mutual pair of tails, and each merging
    /// tail's `(id, inside, far)` over its MWOE.
    struct Phase {
        fragment_of: Vec<u32>,
        tails: BTreeSet<u32>,
        into_heads: usize,
        tail_pairs: usize,
        joins: Vec<(u32, NodeId, NodeId)>,
    }

    /// Replays the merge rule from the true fragment map and the run's
    /// [`coin`]s: every phase, then the map the run ends on.
    fn replay(g: &Graph, w: &EdgeWeights, coin_seed: u64) -> (Vec<Phase>, Vec<u32>) {
        let mut fragment_of: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut phases = Vec::new();
        loop {
            let mut mwoe: BTreeMap<u32, u64> = BTreeMap::new();
            for er in g.edges() {
                let (a, b) = (fragment_of[er.u.index()], fragment_of[er.v.index()]);
                if a != b {
                    for f in [a, b] {
                        let best = mwoe.entry(f).or_insert(u64::MAX);
                        *best = (*best).min(pack(w.weight(er.id), er.id));
                    }
                }
            }
            if mwoe.is_empty() {
                return (phases, fragment_of);
            }
            let head = |f: u32| coin(coin_seed, phases.len(), f);
            let mut phase = Phase {
                fragment_of: fragment_of.clone(),
                tails: mwoe.keys().copied().filter(|&f| !head(f)).collect(),
                into_heads: 0,
                tail_pairs: 0,
                joins: Vec::new(),
            };
            let mut target = BTreeMap::new();
            for (&f, &p) in &mwoe {
                let (u, v) = g.endpoints(unpack(p));
                let (inside, far) = if fragment_of[u.index()] == f {
                    (u, v)
                } else {
                    (v, u)
                };
                let t = fragment_of[far.index()];
                if head(f) {
                    continue;
                }
                if head(t) {
                    phase.into_heads += 1;
                } else if mwoe[&t] == p && f < t {
                    phase.tail_pairs += 1;
                } else {
                    continue;
                }
                target.insert(f, t);
                phase.joins.push((f, inside, far));
            }
            for f in &mut fragment_of {
                if let Some(&t) = target.get(f) {
                    assert!(
                        !target.contains_key(&t),
                        "a merge targets a merging fragment"
                    );
                    *f = t;
                }
            }
            phases.push(phase);
        }
    }

    /// One phase re-run from scratch: the fragments, the parts the MWOE
    /// run served warm, the fragments of at least 2 members it echoed, the
    /// carry's detaches, both runs' messages and the MWOE's `Down`s, the
    /// MWOE holders' depths in the trees it left, the carried kept
    /// non-root slots whose parent port or subtree minimum the previous
    /// phase's `Up`s did not carry, the merging tails' kept non-root slots
    /// after the MWOE run, the carried trees' heights, and whether a fresh
    /// construction over every in-tree fragment above `2D + 1` nodes cut
    /// an edge.
    struct PhaseRuns {
        k: usize,
        rooted: usize,
        echoes: usize,
        detaches: usize,
        mwoe: u64,
        downs: u64,
        holder_depths: u64,
        changed: usize,
        notify: u64,
        merging_edges: usize,
        heights: Vec<Option<usize>>,
        cut: bool,
    }

    /// `(node, fragment id) → (parent port, subtree minimum)` per kept
    /// non-root slot.
    type Links = BTreeMap<(u32, u32), (u32, u64)>;

    /// Per kept non-root slot of `forest` over `map`, keyed by its node and
    /// fragment id (`ids[part]`): its port towards the parent and the
    /// minimum of `local` over its subtree. Also the summed depth of each
    /// fragment's MWOE holder, the member whose value is the fragment's
    /// minimum (if it has an outgoing edge).
    fn subtree_minima(
        g: &Graph,
        partition: &Partition,
        (map, forest): (&ParticipationMap, &AggForest),
        ids: &[u32],
        local: &[u64],
    ) -> (Links, u64) {
        let mut links: Links = (forest.links(map).into_iter())
            .map(|(v, p, port)| ((v.0, ids[p.index()]), (port, u64::MAX)))
            .collect();
        let mut holder_depths = 0;
        for (p, members) in partition.iter() {
            let f = ids[p.index()];
            let min = members.iter().map(|v| local[v.index()]).min().unwrap();
            for &u in members {
                let (mut v, mut depth) = (u, 0);
                while let Some((port, below)) = links.get_mut(&(v.0, f)) {
                    *below = (*below).min(local[u.index()]);
                    (v, depth) = (g.heads(v)[*port as usize], depth + 1);
                }
                if min != u64::MAX && local[u.index()] == min {
                    holder_depths += depth;
                }
            }
        }
        (links, holder_depths)
    }

    /// Re-runs every replayed phase from scratch — `Partition::from_parts`
    /// and `ParticipationMap::build` every phase, the forest carried across
    /// the [`Transition`] of `Partition::merge` on the last phase's
    /// partition, whose result must be the regroup — with its construction
    /// (costs summed and returned), the MWOE run to the extreme over
    /// the replayed local minima (its `Down` path depends on them), and the
    /// notify broadcast led from each merging tail's `inside` (a
    /// broadcast's count does not depend on the values, so it sends zeros).
    ///
    /// A constructing provider's shortcut follows the kept rule: a
    /// fragment whose members did not change keeps its `H_i`, a changed
    /// in-tree one above `2D + 1` nodes gets a construction. Guarded every
    /// phase against a fresh construction over every in-tree fragment above
    /// `2D + 1` nodes: with no overcongested edge the kept shortcut equals
    /// it, otherwise it sits inside the fresh one's Theorem 1.1 envelope.
    ///
    /// The forest is carried with the run's cap, `2D + 1`, and once more
    /// uncapped, over the real table and over one whose touched parts also
    /// keep their constituents' `H_i`. Every fragment of at least 2 members
    /// that echoes after the first phase is a height-cap drop: its uncapped
    /// tree is taller than `2D + 1`, or a copied port left `H_i` (no tree
    /// over the real table, one over the other).
    fn rerun(
        g: &Graph,
        w: &EdgeWeights,
        tree: &RootedTree,
        phases: &[Phase],
        provider: Provider,
        sim: SimConfig,
    ) -> (Vec<PhaseRuns>, ConstructionStats) {
        let mut constructions = ConstructionStats::default();
        let depth = tree.depth_of_tree();
        let block = 2 * depth as usize + 1;
        let big = |nodes: &[NodeId]| tree.contains(nodes[0]) && nodes.len() > block;
        let mut last: Option<(Partition, Shortcut, ParticipationMap, AggForest, Vec<u32>)> = None;
        // What the last phase's `Up`s carried: per kept non-root slot, its
        // node, fragment id, parent port and subtree minimum.
        let mut last_ups = BTreeSet::new();
        let mut runs = Vec::new();
        for (i, phase) in phases.iter().enumerate() {
            let before = &phase.fragment_of;
            let mut members: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
            for v in g.nodes() {
                members.entry(before[v.index()]).or_default().push(v);
            }
            let ids: Vec<u32> = members.keys().copied().collect();
            let leaders: Vec<NodeId> = ids.iter().map(|&f| NodeId(f)).collect();
            let partition = Partition::from_parts(g, members.into_values().collect())
                .expect("fragments are connected");
            let k = partition.num_parts();
            let mut cut = false;
            let shortcut = match provider {
                Provider::None => Shortcut::empty(k),
                Provider::Baseline => baseline::general_graph_shortcut(g, tree, &partition),
                Provider::Oracle | Provider::Distributed(_) => {
                    let mut fresh = provider.fresh(g, tree);
                    let mut build = |parts: &[PartId]| fresh(&partition, parts).expect("uncapped");
                    let mut kept = Shortcut::empty(k);
                    let mut search = Vec::new();
                    for (p, nodes) in partition.iter() {
                        let unchanged = last.as_ref().and_then(|(old, old_shortcut, ..)| {
                            let q = old.part_of(nodes[0])?;
                            (old.part(q) == nodes).then(|| old_shortcut.edges_for(q).to_vec())
                        });
                        match unchanged {
                            Some(edges) => kept.set_edges(p, edges),
                            None if big(nodes) => search.push(p),
                            None => {}
                        }
                    }
                    let built = build(&search);
                    constructions += built.cost;
                    for &p in &search {
                        kept.set_edges(p, built.shortcut.edges_for(p).to_vec());
                    }
                    let all: Vec<PartId> = partition
                        .iter()
                        .filter(|(_, nodes)| big(nodes))
                        .map(|(p, _)| p)
                        .collect();
                    let fresh = build(&all);
                    cut = fresh.round_log.iter().any(|r| r.over_edges > 0);
                    if cut {
                        let q = measure_quality(g, &partition, tree, &kept);
                        let sweeps = fresh.successful_rounds;
                        let envelope =
                            ShortcutConfig::default().envelope(fresh.delta_hat, depth, sweeps);
                        assert!(envelope.occupancy(&q) <= 1.0, "{provider:?} phase {i}");
                    } else {
                        assert_eq!(kept, fresh.shortcut, "{provider:?} phase {i}");
                    }
                    kept
                }
            };
            let participation = ParticipationMap::build(g, &partition, &shortcut);
            let (mut forest, detaches) = match &last {
                None => (AggForest::unrooted(&partition, &participation), 0),
                Some((old_partition, old_shortcut, map, forest, old)) => {
                    let part = |f| PartId(old.binary_search(&f).unwrap() as u32);
                    let joins = phases[i - 1].joins.iter();
                    let joins = joins.map(|&(f, u, w)| (part(f), u, w)).collect();
                    let (merged, transition) = old_partition.merge(g, joins).unwrap();
                    assert_eq!(merged, partition, "phase {i}: the merge is the regroup");
                    let mut with_old_h = shortcut.clone();
                    for (q, &p) in transition.renaming().iter().enumerate() {
                        let old_h = old_shortcut.edges_for(PartId(q as u32));
                        with_old_h.set_edges(p, [with_old_h.edges_for(p), old_h].concat());
                    }
                    let with_old_h = ParticipationMap::build(g, &partition, &with_old_h);
                    let uncapped = |table: &ParticipationMap| {
                        let (carried, _) =
                            forest.carried_over(g, map, &partition, table, &transition, usize::MAX);
                        carried.heights(g, table)
                    };
                    let (real, ported) = (uncapped(&participation), uncapped(&with_old_h));
                    let carried =
                        forest.carried_over(g, map, &partition, &participation, &transition, block);
                    let capped = carried.0.heights(g, &participation);
                    for (p, nodes) in partition.iter() {
                        let p = p.index();
                        let tall = real[p].is_some_and(|h| h > block);
                        let port_left = real[p].is_none() && ported[p].is_some();
                        assert!(
                            nodes.len() == 1 || capped[p].is_some() || tall || port_left,
                            "phase {i}: fragment {p} echoes, {:?} / {:?} high",
                            real[p],
                            ported[p]
                        );
                    }
                    carried
                }
            };
            let heights = forest.heights(g, &participation);
            let cold_singletons = (partition.iter().zip(&heights))
                .filter(|((_, nodes), h)| nodes.len() == 1 && h.is_none())
                .count();
            let mut local = vec![u64::MAX; g.num_nodes()];
            let leaving = g
                .edges()
                .filter(|er| before[er.u.index()] != before[er.v.index()]);
            for er in leaving {
                for v in [er.u, er.v] {
                    local[v.index()] = local[v.index()].min(pack(w.weight(er.id), er.id));
                }
            }
            let (mut stays, mut from) = (vec![true; ids.len()], leaders.clone());
            for &(f, inside, _) in &phase.joins {
                let i = ids.binary_search(&f).unwrap();
                (stays[i], from[i]) = (false, inside);
            }
            let zeros = vec![0; g.num_nodes()];
            let run = |forest: &mut AggForest, values, op, leaders, shape| {
                let run = AggregateOp {
                    values,
                    op,
                    leaders: Some(leaders),
                };
                run.run_masked(g, &partition, (0, sim), &participation, forest, shape)
            };
            let extreme = (Wave::ToExtreme, None);
            // The differential wave finds what the full wave finds over the
            // same trees with nothing remembered: the same minima, sent down
            // the same paths, and leaves the same trees remembering the same.
            let mut full = forest.trees();
            let reference = run(&mut full, &local, AggOp::Min, &leaders, extreme);
            let carried = (&participation, &forest);
            let (links, _) = subtree_minima(g, &partition, carried, &ids, &local);
            let mwoe = run(&mut forest, &local, AggOp::Min, &leaders, extreme);
            assert_eq!(mwoe.results, reference.results, "phase {i}");
            assert!(mwoe.all_members_informed && reference.all_members_informed);
            let paths = (mwoe.down.counts(), reference.down.counts());
            assert_eq!(paths.0, paths.1, "phase {i}: the Down paths");
            assert_eq!(forest, full, "phase {i}: the trees and their memory");
            // A fragment's members moved to the fragment of its id.
            let heard: BTreeSet<_> = (last_ups.iter())
                .map(|&(v, f, port, min)| (v, before[f as usize], port, min))
                .collect();
            let changed = (links.iter())
                .filter(|&(&(v, f), &(port, min))| !heard.contains(&(v, f, port, min)))
                .count();
            let (left, holder_depths) =
                subtree_minima(g, &partition, (&participation, &forest), &ids, &local);
            last_ups = (left.into_iter())
                .map(|((v, f), (port, min))| (v, f, port, min))
                .collect();
            let edges = forest.tree_edges(&participation).into_iter().zip(&stays);
            let merging_edges = edges.filter(|(_, &stays)| !stays).map(|(e, _)| e).sum();
            let shape = (Wave::Broadcast, Some(&stays[..]));
            let notify = run(&mut forest, &zeros, AggOp::Max, &from, shape);
            runs.push(PhaseRuns {
                k,
                rooted: mwoe.rooted_parts,
                echoes: k - mwoe.rooted_parts - cold_singletons,
                detaches,
                mwoe: mwoe.metrics.messages,
                downs: mwoe.down.messages,
                holder_depths,
                changed,
                notify: notify.metrics.messages,
                merging_edges,
                heights,
                cut,
            });
            last = Some((partition, shortcut, participation, forest, ids));
        }
        (runs, constructions)
    }

    /// Runs Boruvka over the BFS tree of node 0 and checks its bill, step by
    /// step, against the host replay: the first exchange's `2m`, each later
    /// exchange's sends (a relabeled node's ports out of its old fragment)
    /// and one notice per tail with an MWOE; each phase's construction; its
    /// MWOE run to the extreme and its notify broadcast from the merging
    /// tails' `inside`, re-run over the carried forest. The MWOE echoes are
    /// the fragments of at least 2 members the carried forest did not
    /// serve, the notified
    /// fragments the merging tails; each notify broadcast sends one message
    /// per kept non-root slot of the merging tails, and a phase whose MWOE
    /// run is warm throughout sends at least that. Both run at the CI
    /// matrix's lane count and packing factor (`LCS_SIM_THREADS`,
    /// `LCS_SIM_PACKING`; unset, the default lane count and packing 1).
    /// Returns the report and the re-run phases.
    fn check_bill(
        g: &Graph,
        w: &EdgeWeights,
        provider: Provider,
        coins: u64,
    ) -> (MstReport, Vec<PhaseRuns>) {
        let env = |name| std::env::var(name).ok().and_then(|v| v.parse().ok());
        let mut sim = SimConfig::default();
        sim.threads = env("LCS_SIM_THREADS").unwrap_or(sim.threads);
        sim.message_packing = env("LCS_SIM_PACKING").unwrap_or(1);
        let tree = bfs::bfs_tree(g, NodeId(0));
        let fresh = provider.fresh(g, &tree);
        let report = boruvka(g, w, &tree, fresh, sim, coins, usize::MAX);
        let (phases, last) = replay(g, w, coins);
        assert_eq!(report.phases, phases.len(), "{provider:?}");
        let rounds = 2 * phases.len() as u64 + 1;
        assert_eq!(report.rounds.exchange, rounds, "{provider:?}");

        let (runs, constructions) = rerun(g, w, &tree, &phases, provider, sim);
        let mut expected = MstSteps {
            exchange: 2 * g.num_edges() as u64,
            construction: constructions.messages,
            ..MstSteps::default()
        };
        for (i, (phase, run)) in phases.iter().zip(&runs).enumerate() {
            expected.exchange += (phase.tails.len() + run.detaches) as u64;
            expected.aggregation += run.mwoe;
            expected.notification += run.notify;
            assert_eq!(
                run.notify, run.merging_edges as u64,
                "{provider:?} phase {i}"
            );
            // The MWOE goes down to its holder; a warm phase sends an `Up`
            // from at least every kept slot whose parent port or subtree
            // minimum the last phase's `Up`s did not carry.
            assert_eq!(run.downs, run.holder_depths, "{provider:?} phase {i}");
            if run.rooted == run.k {
                let ups = run.mwoe - run.downs;
                assert!(ups >= run.changed as u64, "{provider:?} phase {i}");
            }
            let before = &phase.fragment_of;
            let after = phases.get(i + 1).map_or(&last, |p| &p.fragment_of);
            for v in g.nodes().filter(|v| before[v.index()] != after[v.index()]) {
                let outside = g
                    .heads(v)
                    .iter()
                    .filter(|u| before[u.index()] != before[v.index()]);
                expected.exchange += outside.count() as u64;
            }
        }
        assert_eq!(report.message_split, expected, "{provider:?}");
        let downs: u64 = runs.iter().map(|r| r.downs).sum();
        assert_eq!(report.mwoe_downs, downs, "{provider:?}");
        assert_eq!(report.messages, expected.total(), "{provider:?}");
        let echoes: usize = runs.iter().map(|r| r.echoes).sum();
        assert_eq!(report.echoes, echoes, "{provider:?}");
        let merging: usize = phases.iter().map(|p| p.into_heads + p.tail_pairs).sum();
        assert_eq!(report.notified, merging, "{provider:?}");
        (report, runs)
    }

    fn check_matches_kruskal(g: &Graph, seed: u64, provider: Provider) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let w = EdgeWeights::random_unique(g, &mut rng);
        let reference = kruskal(g, &w);
        let report = mst_of(g, &w, provider);
        assert_eq!(report.edges, reference, "MST edge sets differ");
        assert_eq!(report.total_weight, w.total(reference));
        assert!(report.phases >= 1);
    }

    #[test]
    fn kruskal_on_path_takes_all_edges() {
        let g = gen::path(6);
        let w = EdgeWeights::unit(&g);
        assert_eq!(kruskal(&g, &w).len(), 5);
    }

    #[test]
    fn matches_kruskal_on_grid() {
        let g = gen::grid(7, 7);
        check_matches_kruskal(&g, 11, Provider::Oracle);
    }

    #[test]
    fn matches_kruskal_on_torus() {
        let g = gen::torus(5, 5);
        check_matches_kruskal(&g, 12, Provider::Oracle);
    }

    #[test]
    fn matches_kruskal_with_baseline_provider() {
        let g = gen::grid(6, 6);
        check_matches_kruskal(&g, 13, Provider::Baseline);
    }

    /// The `Baseline` provider is `lcs_core::baseline`'s function — big
    /// fragments get the tree, small ones nothing — at no charge: on the
    /// 10 × 10 grid (√n = 10) the replay, which serves every phase the core
    /// baseline, bills what the run bills, and some phase has a fragment
    /// above √n nodes.
    #[test]
    fn baseline_provider_is_the_core_baseline() {
        let g = gen::grid(10, 10);
        let w = EdgeWeights::random_unique(&g, &mut SmallRng::seed_from_u64(5));
        let (report, _) = check_bill(&g, &w, Provider::Baseline, COIN_SEED);
        assert_eq!(
            report.rounds.construction + report.message_split.construction,
            0
        );
        let (phases, _) = replay(&g, &w, COIN_SEED);
        let big = phases.iter().any(|phase| {
            let mut sizes: BTreeMap<u32, usize> = BTreeMap::new();
            for &f in &phase.fragment_of {
                *sizes.entry(f).or_default() += 1;
            }
            sizes.values().any(|&size| size > 10)
        });
        assert!(big, "no fragment got the tree");
    }

    /// The kept shortcuts on the experiment families — E6's wheels and
    /// grids, E7's graphs, under random and unit weights — are what a
    /// fresh construction over every in-tree fragment above `2D + 1` nodes
    /// builds ([`check_bill`]'s guard): none of those constructions cuts an
    /// edge, since every subtree meets fewer than `8δ̂D` such fragments.
    #[test]
    fn kept_shortcuts_equal_a_fresh_construction_on_the_experiment_families() {
        let mut rng = SmallRng::seed_from_u64(77);
        let mut families: Vec<Graph> = [64, 128, 256, 512, 1024].map(gen::wheel).into();
        families.extend([8, 12, 16, 24].map(|s| gen::grid(s, s)));
        families.extend([
            gen::cycle(32),
            gen::torus(6, 6),
            gen::ktree(60, 3, &mut rng),
        ]);
        families.push(gen::grid_plus_random_edges(8, 8, 8, &mut rng));
        families.push(gen::gnm_connected(80, 200, &mut rng));
        for g in &families {
            let random = EdgeWeights::random_unique(g, &mut SmallRng::seed_from_u64(7));
            for w in [random, EdgeWeights::unit(g)] {
                let (report, runs) = check_bill(g, &w, Provider::Oracle, COIN_SEED);
                assert_eq!(report.edges, kruskal(g, &w), "{g:?}");
                assert!(
                    runs.iter().all(|r| !r.cut),
                    "{g:?}: a construction cut an edge"
                );
            }
        }
    }

    /// Every phase leads each fragment from its id. `run_masked` asserts that
    /// a leader is a member of its part, so a finished run is the proof
    /// that fragment ids stay members through every merge pattern the coin
    /// and weight seeds produce; the forest must still be Kruskal's. Every
    /// case includes a phase where a tail pair and a tail → head merge
    /// land together (the path's two mutual pairs under coins tail, tail /
    /// tail, head are the smallest such phase).
    #[test]
    fn fragments_are_led_from_their_ids() {
        let cases = [
            (gen::path(4), Provider::Oracle),
            (gen::grid(7, 7), Provider::Oracle),
            (gen::torus(6, 6), Provider::Oracle),
            (gen::grid(8, 8), Provider::Baseline),
        ];
        for (g, provider) in cases {
            let tree = bfs::bfs_tree(&g, NodeId(0));
            let mut mixed_phases = 0;
            for seed in 0..32 {
                let w = EdgeWeights::random_unique(&g, &mut SmallRng::seed_from_u64(seed));
                let (fresh, sim) = (provider.fresh(&g, &tree), SimConfig::default());
                let report = boruvka(&g, &w, &tree, fresh, sim, 100 + seed, usize::MAX);
                assert!(!report.truncated, "{provider:?} {seed}");
                assert_eq!(report.edges, kruskal(&g, &w), "{provider:?} {seed}");
                let (phases, _) = replay(&g, &w, 100 + seed);
                assert_eq!(report.phases, phases.len(), "{provider:?} {seed}");
                mixed_phases += phases
                    .iter()
                    .filter(|p| p.tail_pairs > 0 && p.into_heads > 0)
                    .count();
            }
            assert!(mixed_phases > 0, "{g:?}: no phase mixes both merges");
        }
    }

    /// Two fragments joined by one edge are a mutual pair: every phase
    /// merges them unless both [`coin`]s are heads, so the run takes one
    /// phase per leading head / head draw plus one.
    #[test]
    fn mutual_tail_pair_merges() {
        let g = gen::path(2);
        let w = EdgeWeights::unit(&g);
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let mut tail_pairs = 0;
        for seed in 0..32 {
            let (oracle, sim) = (Provider::Oracle.fresh(&g, &tree), SimConfig::default());
            let report = boruvka(&g, &w, &tree, oracle, sim, seed, usize::MAX);
            let mut phases = 1;
            loop {
                let (a, b) = (coin(seed, phases - 1, 0), coin(seed, phases - 1, 1));
                tail_pairs += usize::from(!a && !b);
                if !(a && b) {
                    break;
                }
                phases += 1;
            }
            assert_eq!(report.phases, phases, "coin seed {seed}");
            assert_eq!(report.edges, vec![EdgeId(0)]);
        }
        assert!(tail_pairs > 0, "no seed flipped tail / tail");
    }

    /// Every message is accounted for ([`check_bill`]) on every provider,
    /// and some phases of each run find every fragment's tree carried.
    #[test]
    fn messages_are_exchanges_queries_and_phase_runs() {
        let dist = Provider::Distributed(DistConfig::default());
        let cases = [
            (gen::grid(7, 7), Provider::Oracle),
            (gen::torus(6, 6), Provider::Oracle),
            (gen::grid(8, 8), Provider::Baseline),
            (gen::wheel(20), Provider::None),
            (gen::grid(6, 6), dist),
        ];
        for (g, provider) in cases {
            let mut warm_phases = 0;
            for seed in 0..4 {
                let w = EdgeWeights::random_unique(&g, &mut SmallRng::seed_from_u64(seed));
                let (_, runs) = check_bill(&g, &w, provider, seed);
                warm_phases += runs.iter().filter(|r| r.rooted == r.k).count();
            }
            assert!(
                warm_phases > 0,
                "{provider:?}: no phase ran warm throughout"
            );
        }
    }

    /// A carried tree fits in one block, at most `2D + 1` high for the
    /// construction tree's depth `D`: on the wheel (`D = 1` from the hub)
    /// only trees of height 3 carry, on the grid stitched trees that would
    /// grow past `2D + 1` are re-echoed.
    #[test]
    fn carried_trees_stay_within_the_tree_depth() {
        for (g, provider) in [
            (gen::wheel(256), Provider::Oracle),
            (gen::grid(6, 6), Provider::Oracle),
            (gen::grid(6, 6), Provider::None),
        ] {
            let depth = bfs::bfs_tree(&g, NodeId(0)).depth_of_tree() as usize;
            let block = 2 * depth + 1;
            for seed in 0..4 {
                let w = EdgeWeights::random_unique(&g, &mut SmallRng::seed_from_u64(seed));
                let (report, runs) = check_bill(&g, &w, provider, seed);
                assert_eq!(report.edges, kruskal(&g, &w));
                for (i, run) in runs.iter().enumerate() {
                    let highest = run.heights.iter().flatten().max();
                    assert!(
                        highest.is_none_or(|&h| h <= block),
                        "phase {i}: {highest:?}"
                    );
                }
            }
        }
    }

    /// The benchmark instance (`road_like` 64², seed 7, oracle shortcuts)
    /// under four weightings and unit loads: Kruskal's tree, no truncated
    /// run, every message accounted for, only the merging tails running the
    /// notify broadcast — fewer than the tails — every carried tree at most
    /// `2D + 1` high, every echo after the first phase a height-cap drop
    /// ([`rerun`]), and every kept shortcut what a fresh construction
    /// builds (no construction cuts an edge).
    #[test]
    #[ignore = "release-mode scale test"]
    fn scale_boruvka_carries_the_forest() {
        let g = gen::road_like(64, 64, 7);
        let block = 2 * bfs::bfs_tree(&g, NodeId(0)).depth_of_tree() as usize + 1;
        let mut rng = SmallRng::seed_from_u64(7);
        let mut weightings: Vec<_> = (0..4)
            .map(|_| EdgeWeights::random(&g, 1000, &mut rng))
            .collect();
        weightings.push(EdgeWeights::unit(&g));
        for (i, w) in weightings.iter().enumerate() {
            let (report, runs) = check_bill(&g, w, Provider::Oracle, COIN_SEED);
            assert_eq!(report.edges, kruskal(&g, w), "weighting {i}");
            assert!(!report.truncated, "weighting {i}");
            let highest = runs.iter().flat_map(|r| r.heights.iter().flatten()).max();
            assert!(highest.is_none_or(|&h| h <= block), "weighting {i}");
            let fragments: usize = runs.iter().map(|r| r.k).sum();
            assert!(report.echoes < fragments, "weighting {i}: nothing carried");
            let (phases, _) = replay(&g, w, COIN_SEED);
            let tails: usize = phases.iter().map(|p| p.tails.len()).sum();
            assert!(report.notified < tails, "weighting {i}: no tail stayed put");
            assert!(
                runs.iter().all(|r| !r.cut),
                "weighting {i}: a construction cut"
            );
        }
    }

    /// A graph of at most 300 nodes from the grid, torus, wheel, 3-tree and
    /// road-like families, a provider that constructs, gives the whole tree
    /// or gives nothing, and weight and coin seeds.
    fn arb_instance() -> impl Strategy<Value = (Graph, Provider, u64, u64)> {
        let providers = [Provider::Oracle, Provider::Baseline, Provider::None];
        let shape = (0usize..5, 3usize..18, 0usize..3);
        (shape, 0u64..1000, 0u64..1000).prop_map(move |((family, side, p), seed, coins)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = match family {
                0 => gen::grid(side, side),
                1 => gen::torus(side, side),
                2 => gen::wheel(side * side),
                3 => gen::ktree(side * side, 3, &mut rng),
                _ => gen::road_like(side, side, seed),
            };
            (g, providers[p], seed, coins)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The differential MWOE wave is the full wave saying less: at
        /// every phase [`check_bill`]'s re-run finds, over the same carried
        /// forest with nothing remembered, the same minima sent down the
        /// same paths, leaving the same trees remembering the same values.
        /// The tree is Kruskal's, every count repeats at 2 and 8 lanes, and
        /// packing 8 finds the same tree.
        #[test]
        fn the_differential_wave_is_the_full_wave((g, provider, seed, coins) in arb_instance()) {
            let w = EdgeWeights::random_unique(&g, &mut SmallRng::seed_from_u64(seed));
            let (report, _) = check_bill(&g, &w, provider, coins);
            prop_assert_eq!(&report.edges, &kruskal(&g, &w));
            let tree = bfs::bfs_tree(&g, NodeId(0));
            let run = |threads, message_packing| {
                let mut sim = SimConfig::default();
                (sim.threads, sim.message_packing) = (threads, message_packing);
                let fresh = provider.fresh(&g, &tree);
                boruvka(&g, &w, &tree, fresh, sim, coins, usize::MAX)
            };
            let counts = |r: &MstReport| {
                let steps = (r.rounds.clone(), r.clock_rounds.clone(), r.message_split.clone());
                (steps, r.mwoe_downs, r.bits, r.echoes, r.notified, r.edges.clone())
            };
            let one = counts(&run(1, 1));
            for threads in [2, 8] {
                prop_assert_eq!(counts(&run(threads, 1)), one.clone());
            }
            prop_assert_eq!(run(1, 8).edges, one.5);
        }
    }

    /// Where a merge stitches two trees through a node both keep, the node
    /// keeps one parent and forgets what it sent up, and a relay the
    /// stitching leaves without a child reports `Empty` to a parent that
    /// knew its last value: the differential wave still finds every MWOE
    /// (on `torus` 28², the smallest grid, torus, 3-tree or road-like
    /// instance of a sweep over seeds 0–5 where either repair was missing
    /// and Boruvka returned a wrong tree).
    #[test]
    fn stitched_trees_resend_where_they_meet() {
        let g = gen::torus(28, 28);
        let w = EdgeWeights::random(&g, 1000, &mut SmallRng::seed_from_u64(0));
        let (report, _) = check_bill(&g, &w, Provider::Oracle, COIN_SEED);
        assert_eq!(report.edges, kruskal(&g, &w));
    }

    #[test]
    fn matches_kruskal_with_empty_shortcuts() {
        let g = gen::wheel(20);
        check_matches_kruskal(&g, 14, Provider::None);
    }

    /// Fragments no shortcut serves run their echo over `G[P_i]` alone,
    /// as tall as the fragment, and the clock waits for them: a wheel whose
    /// rim is light runs rim paths hundreds of nodes long under every
    /// provider, and none of its runs is cut short.
    #[test]
    fn rim_paths_finish_on_the_clock() {
        let g = gen::wheel(1024);
        let mut rng = SmallRng::seed_from_u64(3);
        let heavy = |e: lcs_graph::EdgeRef| if e.u == NodeId(0) { 1 << 20 } else { 0 };
        let w = g
            .edges()
            .map(|e| heavy(e) + rand::Rng::gen_range(&mut rng, 1..1000u64))
            .collect();
        let w = EdgeWeights::from_vec(&g, w);
        for provider in [Provider::None, Provider::Baseline, Provider::Oracle] {
            let report = mst_of(&g, &w, provider);
            assert!(!report.truncated, "{provider:?}");
            assert_eq!(report.edges, kruskal(&g, &w), "{provider:?}");
            assert!(report.rounds.aggregation <= report.clock_rounds.aggregation);
        }
    }

    #[test]
    fn matches_kruskal_with_distributed_construction() {
        let g = gen::grid(6, 6);
        let provider = Provider::Distributed(DistConfig::default());
        let mut rng = SmallRng::seed_from_u64(15);
        let w = EdgeWeights::random_unique(&g, &mut rng);
        let reference = kruskal(&g, &w);
        let report = mst_of(&g, &w, provider);
        assert_eq!(report.edges, reference);
        assert!(report.rounds.construction > 0);
    }

    /// The phase cap is a flag: the run stops before the phase that would
    /// exceed it and reports the (safe) edges found so far. At cap 0 the
    /// distributed provider has paid for nothing but the first id exchange:
    /// the tree's flood is its session's, billed once. A round cap that
    /// cuts an MWOE run short stops the run too.
    #[test]
    fn phase_cap_truncates_instead_of_panicking() {
        let g = gen::grid(6, 6);
        let mut rng = SmallRng::seed_from_u64(16);
        let w = EdgeWeights::random_unique(&g, &mut rng);
        let capped = |max_phases, provider: Provider| {
            let tree = bfs::bfs_tree(&g, NodeId(0));
            let (fresh, sim) = (provider.fresh(&g, &tree), SimConfig::default());
            boruvka(&g, &w, &tree, fresh, sim, COIN_SEED, max_phases)
        };
        let one = capped(1, Provider::Oracle);
        assert!(one.truncated && one.phases == 1);
        let reference = kruskal(&g, &w);
        assert!(!one.edges.is_empty() && one.edges.len() < reference.len());
        assert!(one.edges.iter().all(|e| reference.contains(e)));

        let none = capped(0, Provider::Distributed(DistConfig::default()));
        assert!(none.truncated && none.phases == 0 && none.edges.is_empty());
        assert_eq!(none.rounds.construction, 0);
        assert_eq!(none.messages, 2 * g.num_edges() as u64);

        // A round cap of 1 cuts an MWOE run short (the third phase's `Up`s):
        // that phase sent no notice, so the exchange rounds are
        // `2·phases − 1`. A cap of 2 lets the third phase's MWOE `Up`s and
        // `Down`s through, each run on its own, and cuts its notify wave,
        // after the notices: `2·phases`.
        for (cap, notices) in [(1, 0), (2, 1)] {
            let sim = SimConfig {
                max_rounds: cap,
                ..SimConfig::default()
            };
            let tree = bfs::bfs_tree(&g, NodeId(0));
            let oracle = Provider::Oracle.fresh(&g, &tree);
            let cut = distributed_mst(&g, &w, &tree, oracle, sim);
            assert!(cut.truncated && cut.phases == 3, "cap {cap}");
            assert_eq!(cut.rounds.exchange, 2 * cut.phases as u64 - 1 + notices);
            assert!(cut.edges.iter().all(|e| reference.contains(e)));
        }
    }

    #[test]
    fn spanning_forest_on_disconnected_graph() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]);
        let w = EdgeWeights::unit(&g);
        let report = mst_of(&g, &w, Provider::Oracle);
        // Forest: 2 + 2 edges.
        assert_eq!(report.edges.len(), 4);
        assert_eq!(report.edges, kruskal(&g, &w));
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::from_edges(1, []);
        let w = EdgeWeights::unit(&g);
        let report = mst_of(&g, &w, Provider::Oracle);
        assert!(report.edges.is_empty());
        assert_eq!(report.phases, 0);
    }

    use lcs_graph::Graph;
}
