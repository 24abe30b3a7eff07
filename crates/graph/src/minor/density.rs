//! Minor-density lower bounds: degeneracy and greedy contraction.

use crate::minor::MinorWitness;
use crate::{Graph, NodeId};
use std::collections::HashSet;

/// The degeneracy of `g`: the largest minimum degree over all subgraphs,
/// computed by iterated minimum-degree removal.
///
/// Since subgraphs are minors, `δ(G) >= degeneracy(G) / 2` (a graph of
/// degeneracy `d` contains a subgraph with at least `d/2 · n'` edges).
pub fn degeneracy(g: &Graph) -> usize {
    let n = g.num_nodes();
    if n == 0 {
        return 0;
    }
    let mut deg: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    let maxd = g.max_degree();
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); maxd + 1];
    for v in g.nodes() {
        buckets[deg[v.index()]].push(v.0);
    }
    let mut removed = vec![false; n];
    let mut degeneracy = 0;
    let mut cur = 0usize;
    for _ in 0..n {
        // Find the smallest non-empty bucket with a live entry.
        while cur < buckets.len() {
            // Entries may be stale (degree decreased since insertion).
            match buckets[cur].pop() {
                Some(v) if !removed[v as usize] && deg[v as usize] == cur => {
                    let v = v as usize;
                    removed[v] = true;
                    degeneracy = degeneracy.max(cur);
                    for &h in g.heads(NodeId(v as u32)) {
                        let u = h.index();
                        if !removed[u] {
                            deg[u] -= 1;
                            buckets[deg[u]].push(u as u32);
                            if deg[u] < cur {
                                cur = deg[u];
                            }
                        }
                    }
                    break;
                }
                Some(_) => continue, // stale entry
                None => {
                    cur += 1;
                    continue;
                }
            }
        }
    }
    degeneracy
}

/// A certified minor-density lower bound: the best density seen and the
/// witness realizing it.
#[derive(Clone, Debug)]
pub struct DensityEstimate {
    /// The witness's density `|E'|/|V'|` — a lower bound on `δ(G)`.
    pub density: f64,
    /// The minor achieving [`density`](Self::density); passes
    /// [`verify_minor`](crate::minor::verify_minor).
    pub witness: MinorWitness,
}

/// Greedy contraction heuristic for lower-bounding `δ(G)`.
///
/// Repeatedly deletes isolated supernodes and contracts the edge at the
/// current minimum-degree supernode that destroys the fewest parallel edges
/// (fewest common neighbors), tracking the densest intermediate minor. The
/// returned witness always verifies; its density is `>= m/n`.
///
/// `max_steps` caps the number of contraction/deletion steps (defaults to
/// `n`, i.e. run to exhaustion).
pub fn greedy_contraction_density(g: &Graph, max_steps: Option<usize>) -> DensityEstimate {
    let steps_cap = max_steps.unwrap_or(g.num_nodes());
    let (best_step, _best_density) = run_greedy(g, steps_cap, None);
    let (_, density) = run_greedy(g, steps_cap, Some(best_step));
    // Second pass stops at `best_step` and returns the snapshot.
    let witness = density.expect("replay must produce a witness");
    let d = witness.density();
    DensityEstimate {
        density: d,
        witness,
    }
}

/// Shared greedy loop. With `snapshot_at = None` returns
/// `(argmax step, max density)`; with `Some(s)` returns the witness at step
/// `s` in the second tuple slot.
fn run_greedy(
    g: &Graph,
    steps_cap: usize,
    snapshot_at: Option<usize>,
) -> (usize, Option<MinorWitness>) {
    let n = g.num_nodes();
    let mut adj: Vec<HashSet<u32>> = vec![HashSet::new(); n];
    for er in g.edges() {
        adj[er.u.index()].insert(er.v.0);
        adj[er.v.index()].insert(er.u.0);
    }
    let mut alive: Vec<bool> = vec![true; n];
    let mut members: Vec<Vec<NodeId>> = g.nodes().map(|v| vec![v]).collect();
    let mut n_alive = n;
    let mut m_alive = g.num_edges();

    let mut best_step = 0usize;
    let mut best = if n_alive > 0 {
        m_alive as f64 / n_alive as f64
    } else {
        0.0
    };
    if snapshot_at == Some(0) {
        return (0, Some(snapshot(&alive, &members, &adj)));
    }

    for step in 1..=steps_cap {
        if n_alive <= 1 {
            break;
        }
        // Pick the live supernode of minimum degree (ties: smallest id).
        let v = match (0..n)
            .filter(|&v| alive[v])
            .min_by_key(|&v| (adj[v].len(), v))
        {
            Some(v) => v,
            None => break,
        };
        if adj[v].is_empty() {
            // Deleting an isolated supernode can only raise density.
            alive[v] = false;
            n_alive -= 1;
        } else {
            // Contract v into the neighbor sharing the fewest common
            // neighbors (destroys the fewest edges).
            let u = adj[v]
                .iter()
                .map(|&u| u as usize)
                .min_by_key(|&u| (adj[v].intersection(&adj[u]).count(), u))
                .expect("non-empty adjacency");
            let common: Vec<u32> = adj[v].intersection(&adj[u]).copied().collect();
            m_alive -= 1 + common.len();
            // Move v's edges to u.
            let v_nbrs: Vec<u32> = adj[v].iter().copied().collect();
            for w in v_nbrs {
                let w = w as usize;
                adj[w].remove(&(v as u32));
                if w != u {
                    adj[w].insert(u as u32);
                    adj[u].insert(w as u32);
                }
            }
            adj[u].remove(&(v as u32));
            adj[v].clear();
            alive[v] = false;
            n_alive -= 1;
            let moved = std::mem::take(&mut members[v]);
            members[u].extend(moved);
        }
        let d = m_alive as f64 / n_alive as f64;
        if d > best {
            best = d;
            best_step = step;
        }
        if snapshot_at == Some(step) {
            return (step, Some(snapshot(&alive, &members, &adj)));
        }
    }
    (best_step, None)
}

fn snapshot(alive: &[bool], members: &[Vec<NodeId>], adj: &[HashSet<u32>]) -> MinorWitness {
    let mut index_of = vec![usize::MAX; alive.len()];
    let mut branch_sets = Vec::new();
    for (v, &a) in alive.iter().enumerate() {
        if a {
            index_of[v] = branch_sets.len();
            branch_sets.push(members[v].clone());
        }
    }
    let mut edges = Vec::new();
    for (v, &a) in alive.iter().enumerate() {
        if !a {
            continue;
        }
        for &u in &adj[v] {
            let u = u as usize;
            if v < u {
                edges.push((index_of[v], index_of[u]));
            }
        }
    }
    MinorWitness { branch_sets, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::minor::verify_minor;

    #[test]
    fn degeneracy_of_basic_families() {
        assert_eq!(degeneracy(&gen::path(10)), 1);
        assert_eq!(degeneracy(&gen::cycle(10)), 2);
        assert_eq!(degeneracy(&gen::complete(5)), 4);
        assert_eq!(degeneracy(&gen::grid(4, 4)), 2);
        assert_eq!(degeneracy(&gen::star(10)), 1);
        assert_eq!(degeneracy(&Graph::from_edges(0, [])), 0);
    }

    use crate::Graph;

    #[test]
    fn greedy_witness_verifies_and_beats_edge_density() {
        for g in [gen::grid(5, 5), gen::complete(6), gen::torus(4, 4)] {
            let est = greedy_contraction_density(&g, None);
            assert!(verify_minor(&g, &est.witness).is_ok());
            assert!(est.density >= g.density() - 1e-9);
        }
    }

    #[test]
    fn clique_density_is_found_exactly() {
        let g = gen::complete(7);
        let est = greedy_contraction_density(&g, None);
        assert!((est.density - 3.0).abs() < 1e-9); // (7-1)/2
    }

    #[test]
    fn grid_of_cliques_detects_the_clique() {
        let g = gen::grid_of_cliques(3, 3, 6);
        let est = greedy_contraction_density(&g, None);
        assert!(est.density >= 2.5); // K_6 density (6-1)/2
    }

    #[test]
    fn max_steps_zero_returns_initial_density() {
        let g = gen::cycle(6);
        let est = greedy_contraction_density(&g, Some(0));
        assert!((est.density - 1.0).abs() < 1e-12);
        assert_eq!(est.witness.num_nodes(), 6);
    }
}
