//! Dense-minor certificate extraction (Case (II) of the Theorem 3.1 proof).
//!
//! When more than half the parts have `B`-degree above `8δ̂`, the bipartite
//! graph `B_P'` obtained by sampling each part with probability `1/4D` is a
//! minor of `G` whose expected density exceeds `δ̂`. This module implements
//! both the paper's sampling argument and a deterministic extraction via the
//! method of conditional expectations, returning a [`MinorWitness`] that
//! passes [`lcs_graph::minor::verify_minor`].

use crate::sweep::SweepData;
use crate::Partition;
use lcs_graph::minor::MinorWitness;
use lcs_graph::{Graph, NodeId, PartId, RootedTree};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One edge of the bipartite graph `B`: overcongested-edge record × part,
/// with the representative and the *blocker* parts on the representative
/// path (the distinct active parts on the tree path from `v_e` down to, but
/// excluding, the representative).
#[derive(Clone, Debug)]
struct BEdge {
    record: usize,
    part: PartId,
    blockers: Vec<PartId>,
}

/// Builds `B` by walking each representative path. Minimum-depth
/// representatives guarantee `part ∉ blockers`.
fn build_b(tree: &RootedTree, partition: &Partition, data: &SweepData) -> Vec<BEdge> {
    let mut active = vec![false; partition.num_parts()];
    for &p in &data.active {
        active[p.index()] = true;
    }
    let mut edges = Vec::new();
    for (ri, rec) in data.over_edges.iter().enumerate() {
        for &(part, repr) in &rec.parts {
            // Degenerate pair: v_e itself belongs to the part (then the
            // representative IS v_e). Such an edge can never be present —
            // choosing the part kills the edge-node — so it is dropped from
            // B. This costs at most one edge per record against the paper's
            // E[X] > 0 count, which stays positive for tree depth >= 4 (and
            // extraction degrades gracefully to `None` otherwise).
            if repr == rec.v_e {
                continue;
            }
            // Path nodes: parent(repr), …, v_e (inclusive).
            let mut blockers: Vec<PartId> = Vec::new();
            let mut cur = repr;
            while cur != rec.v_e {
                let (parent, _) = tree
                    .parent(cur)
                    .expect("representative must descend from v_e");
                cur = parent;
                if let Some(q) = partition.part_of(cur) {
                    if active[q.index()] && !blockers.contains(&q) {
                        debug_assert_ne!(
                            q, part,
                            "min-depth representative path contains its own part"
                        );
                        blockers.push(q);
                    }
                }
            }
            edges.push(BEdge {
                record: ri,
                part,
                blockers,
            });
        }
    }
    edges
}

/// Realizes the minor `B_{P'}` for a concrete in/out choice of parts.
///
/// Returns the witness and its integer excess `|E_{P'}| - δ̂·|V_{P'}|`.
fn realize(
    g: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    data: &SweepData,
    b: &[BEdge],
    in_set: &[bool],
) -> (MinorWitness, i64) {
    let mut in_node = vec![false; g.num_nodes()];
    for &p in &data.active {
        if in_set[p.index()] {
            for &v in partition.part(p) {
                in_node[v.index()] = true;
            }
        }
    }
    let mut o_mark = vec![false; g.num_edges()];
    for rec in &data.over_edges {
        o_mark[rec.edge.index()] = true;
    }

    let mut branch_sets: Vec<Vec<NodeId>> = Vec::new();
    // Part-nodes first.
    let mut part_index = vec![usize::MAX; partition.num_parts()];
    for &p in &data.active {
        if in_set[p.index()] {
            part_index[p.index()] = branch_sets.len();
            branch_sets.push(partition.part(p).to_vec());
        }
    }
    let num_part_nodes = branch_sets.len();
    // Edge-nodes: records whose v_e lies outside every chosen part; branch
    // set = component of v_e in (T \ O) minus chosen-part nodes, collected
    // by a downward walk over non-cut tree edges.
    let mut record_index = vec![usize::MAX; data.over_edges.len()];
    for (ri, rec) in data.over_edges.iter().enumerate() {
        if in_node[rec.v_e.index()] {
            continue;
        }
        let mut comp = Vec::new();
        let mut stack = vec![rec.v_e];
        while let Some(v) = stack.pop() {
            comp.push(v);
            for &ch in tree.children(v) {
                let (_, e) = tree.parent(ch).expect("child has parent edge");
                if !o_mark[e.index()] && !in_node[ch.index()] {
                    stack.push(ch);
                }
            }
        }
        record_index[ri] = branch_sets.len();
        branch_sets.push(comp);
    }
    let num_edge_nodes = branch_sets.len() - num_part_nodes;

    // Present B-edges.
    let mut edges = Vec::new();
    for be in b {
        if !in_set[be.part.index()] {
            continue;
        }
        if be.blockers.iter().any(|q| in_set[q.index()]) {
            continue;
        }
        let ei = record_index[be.record];
        // All blockers out implies v_e's part (a blocker or absent) is out,
        // so the record is an edge-node.
        debug_assert_ne!(ei, usize::MAX, "edge-node must exist for present edge");
        if ei == usize::MAX {
            continue; // defensive: never drop soundness in release builds
        }
        edges.push((ei, part_index[be.part.index()]));
    }

    let excess =
        edges.len() as i64 - i64::from(data.delta_hat) * (num_part_nodes + num_edge_nodes) as i64;
    (MinorWitness { branch_sets, edges }, excess)
}

/// The paper's sampling extraction: each active part joins `P'`
/// independently with probability `1/4D`; retried up to `attempts` times.
///
/// Returns a witness with density `> δ̂` or `None` if all attempts failed
/// (each attempt succeeds with probability `Ω(1/D)` in Case (II)).
pub fn extract_witness_sampled(
    g: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    data: &SweepData,
    attempts: u32,
    seed: u64,
) -> Option<MinorWitness> {
    let b = build_b(tree, partition, data);
    let p = 1.0 / (4.0 * f64::from(data.tree_depth.max(1)));
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..attempts {
        let mut in_set = vec![false; partition.num_parts()];
        for &q in &data.active {
            in_set[q.index()] = rng.gen_bool(p);
        }
        let (w, excess) = realize(g, tree, partition, data, &b, &in_set);
        if excess > 0 {
            return Some(w);
        }
    }
    None
}

/// Deterministic extraction via the method of conditional expectations.
///
/// Greedily fixes each part in/out, maximizing the conditional expectation
/// of `|E_{P'}| - δ̂·|V_{P'}|`. Under the paper's constants, Case (II)
/// guarantees the initial expectation is positive, so the final integral
/// excess is positive and a density-`> δ̂` witness is returned. With
/// non-standard (ablation) constants the expectation may be non-positive —
/// then `None` is possible.
pub fn extract_witness_derandomized(
    g: &Graph,
    tree: &RootedTree,
    partition: &Partition,
    data: &SweepData,
) -> Option<MinorWitness> {
    let b = build_b(tree, partition, data);
    let p = 1.0 / (4.0 * f64::from(data.tree_depth.max(1)));
    let delta = f64::from(data.delta_hat);
    let num_parts = partition.num_parts();

    // Per-part incidence lists.
    let mut as_endpoint: Vec<Vec<usize>> = vec![Vec::new(); num_parts];
    let mut as_blocker: Vec<Vec<usize>> = vec![Vec::new(); num_parts];
    let mut as_ve: Vec<Vec<usize>> = vec![Vec::new(); num_parts];
    for (j, be) in b.iter().enumerate() {
        as_endpoint[be.part.index()].push(j);
        for &q in &be.blockers {
            as_blocker[q.index()].push(j);
        }
    }
    let mut active = vec![false; num_parts];
    for &q in &data.active {
        active[q.index()] = true;
    }
    for (ri, rec) in data.over_edges.iter().enumerate() {
        if let Some(q) = partition.part_of(rec.v_e) {
            if active[q.index()] {
                as_ve[q.index()].push(ri);
            }
        }
    }

    // Edge states.
    #[derive(Clone, Copy, PartialEq)]
    enum Endpoint {
        Undecided,
        In,
    }
    let mut edge_dead = vec![false; b.len()];
    let mut edge_endpoint = vec![Endpoint::Undecided; b.len()];
    let mut blockers_left: Vec<u32> = b.iter().map(|be| be.blockers.len() as u32).collect();
    let edge_value = |dead: bool, ep: Endpoint, left: u32| -> f64 {
        if dead {
            0.0
        } else {
            let base = match ep {
                Endpoint::Undecided => p,
                Endpoint::In => 1.0,
            };
            base * (1.0 - p).powi(left as i32)
        }
    };
    // Record states: 0 undecided, 1 out (counts), 2 dead (v_e chosen).
    let mut record_state = vec![0u8; data.over_edges.len()];
    for (ri, rec) in data.over_edges.iter().enumerate() {
        match partition.part_of(rec.v_e) {
            Some(q) if active[q.index()] => {}
            _ => record_state[ri] = 1, // unowned or inactive v_e: always counts
        }
    }
    let record_value = |s: u8| -> f64 {
        match s {
            0 => -delta * (1.0 - p),
            1 => -delta,
            _ => 0.0,
        }
    };

    let mut in_set = vec![false; num_parts];
    for &q in &data.active {
        let qi = q.index();
        // Delta of E if q is fixed IN vs OUT, relative to current state.
        let mut d_in = -delta * (1.0 - p); // part term: -δp -> -δ
        let mut d_out = delta * p; // part term: -δp -> 0
        for &j in &as_endpoint[qi] {
            let old = edge_value(edge_dead[j], edge_endpoint[j], blockers_left[j]);
            d_in += edge_value(edge_dead[j], Endpoint::In, blockers_left[j]) - old;
            d_out += -old;
        }
        for &j in &as_blocker[qi] {
            let old = edge_value(edge_dead[j], edge_endpoint[j], blockers_left[j]);
            d_in += -old;
            d_out += edge_value(
                edge_dead[j],
                edge_endpoint[j],
                blockers_left[j].saturating_sub(1),
            ) - old;
        }
        for &ri in &as_ve[qi] {
            let old = record_value(record_state[ri]);
            d_in += -old; // record dies
            d_out += -delta - old; // record certainly counts
        }
        let choose_in = d_in > d_out;
        in_set[qi] = choose_in;
        // Apply the decision.
        for &j in &as_endpoint[qi] {
            if choose_in {
                edge_endpoint[j] = Endpoint::In;
            } else {
                edge_dead[j] = true;
            }
        }
        for &j in &as_blocker[qi] {
            if choose_in {
                edge_dead[j] = true;
            } else {
                blockers_left[j] = blockers_left[j].saturating_sub(1);
            }
        }
        for &ri in &as_ve[qi] {
            record_state[ri] = if choose_in { 2 } else { 1 };
        }
    }

    let (w, excess) = realize(g, tree, partition, data, &b, &in_set);
    if excess > 0 {
        Some(w)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tests::{comb_instance as comb, sweep_all};
    use crate::ShortcutConfig;
    use lcs_graph::{bfs, minor};

    fn failing_sweep_data(g: &Graph, partition: &Partition) -> (RootedTree, SweepData) {
        let tree = bfs::bfs_tree(g, NodeId(0));
        let sweep = sweep_all(g, &tree, partition, 1, &ShortcutConfig::default());
        assert!(!sweep.case_one(), "instance must fail at δ̂ = 1");
        (tree, sweep.data)
    }

    #[test]
    fn derandomized_extraction_beats_delta_hat() {
        let (g, partition) = comb(10, 24);
        let (tree, data) = failing_sweep_data(&g, &partition);
        let w = extract_witness_derandomized(&g, &tree, &partition, &data)
            .expect("Case (II) with paper constants must extract");
        assert!(minor::verify_minor(&g, &w).is_ok());
        assert!(w.density() > f64::from(data.delta_hat));
    }

    #[test]
    fn sampled_extraction_eventually_succeeds() {
        let (g, partition) = comb(10, 24);
        let (tree, data) = failing_sweep_data(&g, &partition);
        let w = extract_witness_sampled(&g, &tree, &partition, &data, 400, 42)
            .expect("sampling succeeds with Ω(1/D) probability per attempt");
        assert!(minor::verify_minor(&g, &w).is_ok());
        assert!(w.density() > 1.0);
    }

    #[test]
    fn sampled_and_derandomized_agree_on_validity() {
        let (g, partition) = comb(12, 30);
        let (tree, data) = failing_sweep_data(&g, &partition);
        for w in [
            extract_witness_derandomized(&g, &tree, &partition, &data),
            extract_witness_sampled(&g, &tree, &partition, &data, 400, 7),
        ]
        .into_iter()
        .flatten()
        {
            assert!(minor::verify_minor(&g, &w).is_ok());
            assert!(w.density() > 1.0);
        }
    }

    #[test]
    fn weak_constants_may_fail_gracefully() {
        // With a congestion factor far below the paper's 8, the E[X] > 0
        // argument breaks; the extraction must return None (never an
        // invalid witness). We only pin the type-level contract here: any
        // Some(..) it does return still verifies.
        let (g, partition) = comb(4, 60);
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let cfg = ShortcutConfig {
            congestion_factor: 1,
        };
        let sweep = sweep_all(&g, &tree, &partition, 1, &cfg);
        if !sweep.case_one() {
            let data = sweep.data;
            if let Some(w) = extract_witness_derandomized(&g, &tree, &partition, &data) {
                assert!(minor::verify_minor(&g, &w).is_ok());
                assert!(w.density() > 1.0);
            }
            if let Some(w) = extract_witness_sampled(&g, &tree, &partition, &data, 50, 3) {
                assert!(minor::verify_minor(&g, &w).is_ok());
                assert!(w.density() > 1.0);
            }
        }
    }

    #[test]
    fn witness_branch_sets_avoid_chosen_parts() {
        let (g, partition) = comb(10, 24);
        let (tree, data) = failing_sweep_data(&g, &partition);
        let w = extract_witness_derandomized(&g, &tree, &partition, &data).unwrap();
        // Every node appears in at most one branch set — rechecked here on
        // top of verify_minor for clarity.
        let mut seen = vec![false; g.num_nodes()];
        for set in &w.branch_sets {
            for &v in set {
                assert!(!seen[v.index()]);
                seen[v.index()] = true;
            }
        }
    }

    use lcs_graph::Graph;
}
