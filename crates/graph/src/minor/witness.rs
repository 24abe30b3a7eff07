//! Minor witnesses (branch-set embeddings) and their verification.

use crate::components::SubsetSearch;
use crate::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// A certified minor of a host graph: disjoint connected branch sets plus
/// the minor's edges between them.
///
/// This is the "mapping" formulation of minors used in Section 1.1 of the
/// paper: `H` is a minor of `G` iff each node of `H` maps to a disjoint
/// connected subset of `V(G)` and each edge of `H` is realized by some
/// `G`-edge between the corresponding subsets.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinorWitness {
    /// `branch_sets[i]` = the vertices of `G` contracted into minor node `i`.
    pub branch_sets: Vec<Vec<NodeId>>,
    /// Minor edges as index pairs into `branch_sets` (unordered, no
    /// duplicates).
    pub edges: Vec<(usize, usize)>,
}

impl MinorWitness {
    /// Number of minor nodes.
    pub fn num_nodes(&self) -> usize {
        self.branch_sets.len()
    }

    /// Number of minor edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The minor's density `|E'| / |V'|` — a lower bound on `δ(G)` once the
    /// witness passes [`verify_minor`]. Returns 0 for an empty witness.
    pub fn density(&self) -> f64 {
        if self.branch_sets.is_empty() {
            0.0
        } else {
            self.edges.len() as f64 / self.branch_sets.len() as f64
        }
    }
}

/// Ways a [`MinorWitness`] can fail verification against a host graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MinorVerifyError {
    /// A branch set is empty.
    EmptyBranchSet(usize),
    /// A node occurs in two branch sets (or twice in one).
    Overlap(NodeId),
    /// A branch set does not induce a connected subgraph.
    Disconnected(usize),
    /// A minor edge references a branch-set index out of range.
    BadEdgeIndex(usize, usize),
    /// A minor edge is a self-loop.
    SelfLoop(usize),
    /// The same minor edge appears twice.
    DuplicateEdge(usize, usize),
    /// No host edge connects the two branch sets of a minor edge.
    Unrealized(usize, usize),
    /// A branch set references a node outside the host graph.
    NodeOutOfRange(NodeId),
}

impl fmt::Display for MinorVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyBranchSet(i) => write!(f, "branch set {i} is empty"),
            Self::Overlap(v) => write!(f, "node {v:?} occurs in two branch sets"),
            Self::Disconnected(i) => write!(f, "branch set {i} is not connected"),
            Self::BadEdgeIndex(a, b) => write!(f, "edge ({a}, {b}) out of range"),
            Self::SelfLoop(i) => write!(f, "self-loop at minor node {i}"),
            Self::DuplicateEdge(a, b) => write!(f, "duplicate minor edge ({a}, {b})"),
            Self::Unrealized(a, b) => {
                write!(f, "no host edge between branch sets {a} and {b}")
            }
            Self::NodeOutOfRange(v) => write!(f, "node {v:?} outside host graph"),
        }
    }
}

impl std::error::Error for MinorVerifyError {}

/// Verifies that `w` is a valid minor of `g`.
///
/// Checks, in order: branch sets are non-empty, within range, disjoint, and
/// connected; minor edges are in-range, loop-free, duplicate-free, and
/// realized by host edges.
///
/// # Errors
///
/// Returns the first violated condition.
pub fn verify_minor(g: &Graph, w: &MinorWitness) -> Result<(), MinorVerifyError> {
    let n = g.num_nodes();
    let mut owner: Vec<Option<u32>> = vec![None; n];
    let mut search = SubsetSearch::new(n);
    for (i, set) in w.branch_sets.iter().enumerate() {
        if set.is_empty() {
            return Err(MinorVerifyError::EmptyBranchSet(i));
        }
        for &v in set {
            if v.index() >= n {
                return Err(MinorVerifyError::NodeOutOfRange(v));
            }
            if owner[v.index()].is_some() {
                return Err(MinorVerifyError::Overlap(v));
            }
            owner[v.index()] = Some(i as u32);
        }
        if !search.induces_connected(g, set) {
            return Err(MinorVerifyError::Disconnected(i));
        }
    }
    let mut seen = HashSet::new();
    for &(a, b) in &w.edges {
        if a >= w.branch_sets.len() || b >= w.branch_sets.len() {
            return Err(MinorVerifyError::BadEdgeIndex(a, b));
        }
        if a == b {
            return Err(MinorVerifyError::SelfLoop(a));
        }
        let key = (a.min(b), a.max(b));
        if !seen.insert(key) {
            return Err(MinorVerifyError::DuplicateEdge(key.0, key.1));
        }
        let realized = w.branch_sets[a].iter().any(|&u| {
            g.heads(u)
                .iter()
                .any(|&w| owner[w.index()] == Some(b as u32))
        });
        if !realized {
            return Err(MinorVerifyError::Unrealized(key.0, key.1));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn valid_witness_passes() {
        // Contract the 2x3 grid's columns into a triangle-with-multiplicity.
        let g = gen::grid(2, 3);
        let w = MinorWitness {
            branch_sets: vec![
                vec![NodeId(0), NodeId(3)],
                vec![NodeId(1), NodeId(4)],
                vec![NodeId(2), NodeId(5)],
            ],
            edges: vec![(0, 1), (1, 2)],
        };
        assert_eq!(verify_minor(&g, &w), Ok(()));
        assert!((w.density() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_detected() {
        let g = gen::path(3);
        let w = MinorWitness {
            branch_sets: vec![vec![NodeId(0), NodeId(1)], vec![NodeId(1)]],
            edges: vec![],
        };
        assert_eq!(
            verify_minor(&g, &w),
            Err(MinorVerifyError::Overlap(NodeId(1)))
        );
    }

    #[test]
    fn disconnected_branch_set_detected() {
        let g = gen::path(3);
        let w = MinorWitness {
            branch_sets: vec![vec![NodeId(0), NodeId(2)]],
            edges: vec![],
        };
        assert_eq!(verify_minor(&g, &w), Err(MinorVerifyError::Disconnected(0)));
    }

    #[test]
    fn unrealized_edge_detected() {
        let g = gen::path(4);
        let w = MinorWitness {
            branch_sets: vec![vec![NodeId(0)], vec![NodeId(3)]],
            edges: vec![(0, 1)],
        };
        assert_eq!(
            verify_minor(&g, &w),
            Err(MinorVerifyError::Unrealized(0, 1))
        );
    }

    #[test]
    fn duplicate_and_loop_detected() {
        let g = gen::path(2);
        let loopy = MinorWitness {
            branch_sets: vec![vec![NodeId(0)]],
            edges: vec![(0, 0)],
        };
        assert_eq!(verify_minor(&g, &loopy), Err(MinorVerifyError::SelfLoop(0)));
        let dup = MinorWitness {
            branch_sets: vec![vec![NodeId(0)], vec![NodeId(1)]],
            edges: vec![(0, 1), (1, 0)],
        };
        assert_eq!(
            verify_minor(&g, &dup),
            Err(MinorVerifyError::DuplicateEdge(0, 1))
        );
    }

    #[test]
    fn empty_witness_is_valid() {
        let g = gen::path(2);
        let w = MinorWitness {
            branch_sets: vec![],
            edges: vec![],
        };
        assert_eq!(verify_minor(&g, &w), Ok(()));
        assert_eq!(w.density(), 0.0);
    }
}
