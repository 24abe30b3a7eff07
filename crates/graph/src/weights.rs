//! Edge weights, kept separate from the topology.
//!
//! Graphs in this workspace are unweighted topologies (the CONGEST network);
//! algorithms that need weights (MST, min-cut packing loads) carry an
//! [`EdgeWeights`] alongside the [`Graph`].

use crate::{EdgeId, Graph};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Integer weights indexed by [`EdgeId`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeWeights(Vec<u64>);

impl EdgeWeights {
    /// Uniform weight 1 on every edge.
    pub fn unit(g: &Graph) -> Self {
        EdgeWeights(vec![1; g.num_edges()])
    }

    /// Weights from an explicit vector.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from `g.num_edges()`.
    pub fn from_vec(g: &Graph, w: Vec<u64>) -> Self {
        assert_eq!(w.len(), g.num_edges(), "one weight per edge required");
        EdgeWeights(w)
    }

    /// Independent uniform random weights in `[1, max_weight]`.
    ///
    /// Distinct-ish random weights make the MST unique with high
    /// probability, which simplifies cross-checking distributed against
    /// centralized results.
    ///
    /// # Panics
    ///
    /// Panics if `max_weight == 0`.
    pub fn random(g: &Graph, max_weight: u64, rng: &mut impl Rng) -> Self {
        assert!(max_weight > 0, "max_weight must be positive");
        EdgeWeights(
            (0..g.num_edges())
                .map(|_| rng.gen_range(1..=max_weight))
                .collect(),
        )
    }

    /// Unique weights: a random permutation of `1..=m`. Guarantees a unique
    /// MST.
    pub fn random_unique(g: &Graph, rng: &mut impl Rng) -> Self {
        use rand::seq::SliceRandom;
        let mut w: Vec<u64> = (1..=g.num_edges() as u64).collect();
        w.shuffle(rng);
        EdgeWeights(w)
    }

    /// Weight of edge `e`.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> u64 {
        self.0[e.index()]
    }

    /// Mutable access, e.g. for packing-load updates.
    #[inline]
    pub fn weight_mut(&mut self, e: EdgeId) -> &mut u64 {
        &mut self.0[e.index()]
    }

    /// Number of weighted edges.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no edges.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Applies sparse `(edge, new_weight)` updates.
    ///
    /// # Panics
    ///
    /// Panics if an edge id is out of range.
    pub fn update(&mut self, changes: &[(EdgeId, u64)]) {
        let n = self.0.len();
        for &(e, w) in changes {
            assert!(
                e.index() < n,
                "edge {e:?} out of range — {n} weighted edges"
            );
            self.0[e.index()] = w;
        }
    }

    /// Total weight of an edge set.
    pub fn total(&self, edges: impl IntoIterator<Item = EdgeId>) -> u64 {
        edges.into_iter().map(|e| self.weight(e)).sum()
    }

    /// Iterates over `(EdgeId, weight)`.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, u64)> + '_ {
        self.0
            .iter()
            .enumerate()
            .map(|(i, &w)| (EdgeId(i as u32), w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn unit_weights() {
        let g = gen::path(4);
        let w = EdgeWeights::unit(&g);
        assert_eq!(w.len(), 3);
        assert_eq!(w.total(g.edges().map(|e| e.id)), 3);
    }

    #[test]
    fn unique_weights_are_a_permutation() {
        let g = gen::grid(3, 3);
        let mut rng = SmallRng::seed_from_u64(5);
        let w = EdgeWeights::random_unique(&g, &mut rng);
        let mut vals: Vec<u64> = (0..w.len()).map(|i| w.weight(EdgeId(i as u32))).collect();
        vals.sort_unstable();
        assert_eq!(vals, (1..=w.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn mutation() {
        let g = gen::path(3);
        let mut w = EdgeWeights::unit(&g);
        *w.weight_mut(EdgeId(0)) = 10;
        assert_eq!(w.weight(EdgeId(0)), 10);
    }

    #[test]
    fn sparse_update() {
        let g = gen::path(4);
        let mut w = EdgeWeights::unit(&g);
        w.update(&[(EdgeId(0), 7), (EdgeId(2), 3)]);
        assert_eq!(w.weight(EdgeId(0)), 7);
        assert_eq!(w.weight(EdgeId(1)), 1);
        assert_eq!(w.weight(EdgeId(2)), 3);
        w.update(&[]);
        assert_eq!(w.total(g.edges().map(|e| e.id)), 11);
    }

    #[test]
    #[should_panic(expected = "one weight per edge")]
    fn from_vec_length_checked() {
        let g = gen::path(3);
        EdgeWeights::from_vec(&g, vec![1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn update_still_panics_out_of_range() {
        let g = gen::path(3);
        let mut w = EdgeWeights::unit(&g);
        w.update(&[(EdgeId(2), 1)]);
    }
}
