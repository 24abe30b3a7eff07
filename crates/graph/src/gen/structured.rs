//! Families with bounded treewidth / structured minor density.

use crate::{Graph, GraphBuilder, NodeId};
use rand::Rng;

/// The complete binary tree with `depth` levels of edges (so
/// `2^(depth+1) - 1` nodes). Minor density `δ < 1`; diameter `2·depth`.
pub fn binary_tree(depth: u32) -> Graph {
    let n = (1usize << (depth + 1)) - 1;
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(NodeId(((i - 1) / 2) as u32), NodeId(i as u32));
    }
    b.build()
}

/// The `k`-th power of a path on `n` nodes: `i ~ j` iff `|i - j| <= k`.
///
/// Treewidth (and pathwidth) exactly `k`, hence `δ(G) <= k` by Lemma 3.3 of
/// the paper; edge density approaches `k`, so `δ` is `Θ(k)`. Diameter
/// `⌈(n-1)/k⌉` — the family used to sweep treewidth at controlled diameter
/// (experiment E9).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn path_power(n: usize, k: usize) -> Graph {
    assert!(k > 0, "path power needs k >= 1");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for d in 1..=k {
            if i + d < n {
                b.add_edge(NodeId(i as u32), NodeId((i + d) as u32));
            }
        }
    }
    b.build()
}

/// A random `k`-tree on `n >= k + 1` nodes: start from `K_{k+1}`, then
/// attach each new node to a uniformly random existing `k`-clique.
///
/// `k`-trees are exactly the maximal treewidth-`k` graphs, so `δ(G) <= k`
/// (Lemma 3.3) while `m = kn - k(k+1)/2` makes the bound near-tight.
///
/// # Panics
///
/// Panics if `n < k + 1` or `k == 0`.
pub fn ktree(n: usize, k: usize, rng: &mut impl Rng) -> Graph {
    assert!(k > 0, "k-tree needs k >= 1");
    assert!(n > k, "k-tree needs at least k + 1 nodes");
    let mut b = GraphBuilder::new(n);
    // Base clique K_{k+1}.
    for i in 0..=k {
        for j in (i + 1)..=k {
            b.add_edge(NodeId(i as u32), NodeId(j as u32));
        }
    }
    // All k-subsets of the base clique are initial k-cliques.
    let mut cliques: Vec<Vec<u32>> = (0..=k)
        .map(|skip| (0..=k).filter(|&x| x != skip).map(|x| x as u32).collect())
        .collect();
    for v in (k + 1)..n {
        let pick = rng.gen_range(0..cliques.len());
        let clique = cliques[pick].clone();
        for &u in &clique {
            b.add_edge(NodeId(u), NodeId(v as u32));
        }
        // New k-cliques: v together with each (k-1)-subset of the picked one.
        for skip in 0..clique.len() {
            let mut c: Vec<u32> = clique
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, &x)| x)
                .collect();
            c.push(v as u32);
            cliques.push(c);
        }
    }
    b.build()
}

/// A `rows × cols` grid of `r`-cliques: each grid cell is a `K_r`, and
/// adjacent cells are joined by a single edge between their first members.
///
/// Contains a `K_r` minor trivially, so `δ >= (r-1)/2`; diameter
/// `Θ(rows + cols)`. Used to sweep δ at controlled diameter.
///
/// # Panics
///
/// Panics if any dimension or `r` is 0.
pub fn grid_of_cliques(rows: usize, cols: usize, r: usize) -> Graph {
    assert!(rows > 0 && cols > 0 && r > 0, "dimensions must be positive");
    let n = rows * cols * r;
    let mut b = GraphBuilder::new(n);
    let base = |cr: usize, cc: usize| (cr * cols + cc) * r;
    for cr in 0..rows {
        for cc in 0..cols {
            let o = base(cr, cc);
            for i in 0..r {
                for j in (i + 1)..r {
                    b.add_edge(NodeId((o + i) as u32), NodeId((o + j) as u32));
                }
            }
            if cc + 1 < cols {
                b.add_edge(NodeId(o as u32), NodeId(base(cr, cc + 1) as u32));
            }
            if cr + 1 < rows {
                b.add_edge(NodeId(o as u32), NodeId(base(cr + 1, cc) as u32));
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{components, diameter};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn binary_tree_counts() {
        let g = binary_tree(3);
        assert_eq!(g.num_nodes(), 15);
        assert_eq!(g.num_edges(), 14);
        assert_eq!(diameter::exact_diameter(&g), 6);
    }

    #[test]
    fn path_power_density_near_k() {
        let g = path_power(100, 4);
        assert!(components::is_connected(&g));
        // m = 4n - 10, so density close to 4.
        assert!(g.density() > 3.5 && g.density() <= 4.0);
        assert_eq!(diameter::exact_diameter(&g), 25);
    }

    #[test]
    fn ktree_edge_count() {
        let mut rng = SmallRng::seed_from_u64(7);
        let (n, k) = (40, 3);
        let g = ktree(n, k, &mut rng);
        assert_eq!(g.num_edges(), k * n - k * (k + 1) / 2);
        assert!(components::is_connected(&g));
    }

    #[test]
    fn ktree_minimum_size_is_clique() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = ktree(4, 3, &mut rng);
        assert_eq!(g.num_edges(), 6);
    }

    #[test]
    fn grid_of_cliques_structure() {
        let g = grid_of_cliques(2, 3, 4);
        assert_eq!(g.num_nodes(), 24);
        // 6 cliques of K_4 (6 edges) + 7 connector edges (3+4).
        assert_eq!(g.num_edges(), 6 * 6 + 7);
        assert!(components::is_connected(&g));
    }
}
