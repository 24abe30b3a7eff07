//! Helpers that produce part collections (disjoint connected node sets) for
//! part-wise aggregation instances.

use crate::components::SubsetSearch;
use crate::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Every node its own part — the starting fragments of Boruvka's algorithm.
pub fn singleton_parts(g: &Graph) -> Vec<Vec<NodeId>> {
    g.nodes().map(|v| vec![v]).collect()
}

/// The rows of a `rows × cols` grid as parts (each row is an induced path).
pub fn rows_of_grid(rows: usize, cols: usize) -> Vec<Vec<NodeId>> {
    (0..rows)
        .map(|r| (0..cols).map(|c| NodeId((r * cols + c) as u32)).collect())
        .collect()
}

/// Voronoi cells of the given seed nodes: each node joins the part of its
/// nearest seed (multi-source BFS; each visited node inherits the part of
/// the node that discovered it, so every cell is connected).
///
/// **Determinism.** The output is a pure function of `(g, seeds)`: ties
/// between equidistant seeds break by BFS discovery order, which is fixed
/// by the seed order and the CSR adjacency order (neighbors sorted by id).
/// Re-running with the same graph and the same seed slice — including seed
/// *order* — reproduces the parts exactly; this is what lets a bench or a
/// server reproduce a "random" partition from a recorded seed list. For
/// one-`u64` reproducibility see [`voronoi_parts_seeded`].
///
/// Parts are disjoint, each induces a connected subgraph, and together
/// they cover exactly the component(s) containing seeds (all of `V` on a
/// connected graph). Duplicate seeds collapse: the first occurrence wins
/// and later duplicates yield empty cells, which are dropped.
///
/// # Panics
///
/// Panics if `seeds` is empty or contains an out-of-range node.
pub fn voronoi_parts(g: &Graph, seeds: &[NodeId]) -> Vec<Vec<NodeId>> {
    let n = g.num_nodes();
    assert!(!seeds.is_empty(), "bad part count");
    let mut part_of = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for (i, &s) in seeds.iter().enumerate() {
        assert!(s.index() < n, "seed {s:?} out of range");
        if part_of[s.index()] == u32::MAX {
            part_of[s.index()] = i as u32;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &next in g.heads(u) {
            if part_of[next.index()] == u32::MAX {
                part_of[next.index()] = part_of[u.index()];
                queue.push_back(next);
            }
        }
    }
    let mut parts = vec![Vec::new(); seeds.len()];
    for v in g.nodes() {
        let p = part_of[v.index()];
        if p != u32::MAX {
            parts[p as usize].push(v);
        }
    }
    parts.retain(|p| !p.is_empty());
    parts
}

/// [`voronoi_parts`] with seeds sampled without replacement from a
/// [`SmallRng`](rand::rngs::SmallRng) initialized with `seed` — the whole
/// partition is reproducible from the single `u64`, which is all a
/// `PartitionSource::Voronoi` spec records.
///
/// # Panics
///
/// Panics if `target_parts` is 0 or exceeds the node count.
pub fn voronoi_parts_seeded(g: &Graph, target_parts: usize, seed: u64) -> Vec<Vec<NodeId>> {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(seed);
    random_connected_parts(g, target_parts, &mut rng)
}

/// Partitions the whole vertex set into `target_parts` connected parts by
/// Voronoi growth from random seeds — [`voronoi_parts`] over
/// `target_parts` nodes sampled without replacement from `rng`.
///
/// The actual number of parts can be lower than requested if seeds
/// collide (it never is, since seeds are sampled without replacement).
///
/// # Panics
///
/// Panics if `target_parts` is 0 or exceeds the node count.
pub fn random_connected_parts(
    g: &Graph,
    target_parts: usize,
    rng: &mut impl Rng,
) -> Vec<Vec<NodeId>> {
    let n = g.num_nodes();
    assert!(target_parts >= 1 && target_parts <= n, "bad part count");
    let mut nodes: Vec<NodeId> = g.nodes().collect();
    nodes.shuffle(rng);
    voronoi_parts(g, &nodes[..target_parts])
}

/// Grows `target_parts` connected parts that each cover roughly
/// `coverage` fraction of their Voronoi cell, leaving the rest of the graph
/// unassigned. Useful for instances where parts do not cover `V`.
///
/// # Panics
///
/// Panics like [`random_connected_parts`]; additionally requires
/// `0.0 < coverage <= 1.0`.
pub fn random_partial_parts(
    g: &Graph,
    target_parts: usize,
    coverage: f64,
    rng: &mut impl Rng,
) -> Vec<Vec<NodeId>> {
    assert!(coverage > 0.0 && coverage <= 1.0, "bad coverage");
    let full = random_connected_parts(g, target_parts, rng);
    let mut search = SubsetSearch::new(g.num_nodes());
    full.into_iter()
        .map(|cell| {
            let keep = ((cell.len() as f64 * coverage).ceil() as usize).max(1);
            // Keep a connected prefix: BFS inside the cell from its seed.
            search.reach(g, &cell).iter().copied().take(keep).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{components, gen};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn singletons_cover_everything() {
        let g = gen::path(5);
        let parts = singleton_parts(&g);
        assert_eq!(parts.len(), 5);
        assert!(parts.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn grid_rows_are_connected_paths() {
        let g = gen::grid(4, 6);
        let parts = rows_of_grid(4, 6);
        assert_eq!(parts.len(), 4);
        for p in &parts {
            assert_eq!(p.len(), 6);
            assert!(components::induces_connected(&g, p));
        }
    }

    #[test]
    fn voronoi_parts_partition_connected_graph() {
        let g = gen::grid(8, 8);
        let mut rng = SmallRng::seed_from_u64(11);
        let parts = random_connected_parts(&g, 7, &mut rng);
        assert_eq!(parts.len(), 7);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 64);
        let mut seen = [false; 64];
        for p in &parts {
            assert!(components::induces_connected(&g, p));
            for &v in p {
                assert!(!seen[v.index()]);
                seen[v.index()] = true;
            }
        }
    }

    #[test]
    fn partial_parts_respect_coverage() {
        let g = gen::grid(6, 6);
        let mut rng = SmallRng::seed_from_u64(13);
        let parts = random_partial_parts(&g, 4, 0.5, &mut rng);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert!(total < 36);
        for p in &parts {
            assert!(!p.is_empty());
            assert!(components::induces_connected(&g, p));
        }
    }

    #[test]
    fn voronoi_parts_are_deterministic_in_the_seed_list() {
        let g = gen::grid(7, 9);
        let seeds = [NodeId(3), NodeId(40), NodeId(61)];
        let a = voronoi_parts(&g, &seeds);
        let b = voronoi_parts(&g, &seeds);
        assert_eq!(a, b, "same seed list must reproduce the parts");
        assert_eq!(a.len(), 3);
        let total: usize = a.iter().map(Vec::len).sum();
        assert_eq!(total, 63);
        for p in &a {
            assert!(components::induces_connected(&g, p));
        }
        // Seed *order* is part of the contract: it decides equidistant ties.
        let swapped = voronoi_parts(&g, &[NodeId(40), NodeId(3), NodeId(61)]);
        let total: usize = swapped.iter().map(Vec::len).sum();
        assert_eq!(total, 63);
    }

    #[test]
    fn voronoi_parts_seeded_reproduces_from_one_u64() {
        let g = gen::torus(6, 6);
        let a = voronoi_parts_seeded(&g, 5, 42);
        let b = voronoi_parts_seeded(&g, 5, 42);
        assert_eq!(a, b, "one u64 must pin the whole partition");
        assert_eq!(a.len(), 5);
        let total: usize = a.iter().map(Vec::len).sum();
        assert_eq!(total, 36);
        for p in &a {
            assert!(components::induces_connected(&g, p));
        }
    }

    #[test]
    fn voronoi_duplicate_seeds_collapse() {
        let g = gen::path(6);
        let parts = voronoi_parts(&g, &[NodeId(2), NodeId(2), NodeId(5)]);
        assert_eq!(parts.len(), 2);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
    }

    #[test]
    #[should_panic(expected = "bad part count")]
    fn rejects_zero_parts() {
        let g = gen::path(3);
        let mut rng = SmallRng::seed_from_u64(1);
        random_connected_parts(&g, 0, &mut rng);
    }
}
