//! Nested-dissection balanced separators for minor-free graphs.
//!
//! The paper's premise is that graphs excluding dense minors have small
//! balanced separators; this crate computes them and turns the recursion
//! into partitions the shortcut machinery consumes. [`nested_dissection`]
//! recursively splits the vertex set with BFS-level cuts: a double-sweep
//! BFS finds a peripheral root, and among the BFS levels whose prefix mass
//! lands in the balanced window `[⌈n/3⌉, ⌊2n/3⌋]` the *smallest* level is
//! chosen as the cut (the inertial-flow-style refinement — the level sets
//! are the candidate cuts, the window enforces balance, the minimum
//! cardinality refines the cut). Removing the chosen separator `S` leaves
//! components of at most `⌊2n/3⌋` nodes each, the classical balance
//! guarantee; on planar-like instances a BFS level has `O(√n)` nodes, so
//! the regions shrink geometrically with `O(√n)`-sized cuts.
//!
//! The full recursion is recorded as a serde-able [`SeparatorTree`]:
//!
//! * [`SeparatorTree::partition_at_level`] flattens the tree at one depth
//!   into disjoint **connected** parts covering every node — a drop-in
//!   partition source for `lcs_core` sessions (each region keeps its cut
//!   level, so regions stay connected: the near side of a cut is a union
//!   of BFS level prefixes, the far sides are components);
//! * the levels form a refinement chain: level-`k` parts are unions of
//!   level-`k+1` parts by construction.
//!
//! Everything is deterministic: regions are kept sorted by node id, BFS
//! follows the CSR adjacency order, and farthest-node ties break toward
//! the smallest id — the same tree is produced on every run, which is what
//! lets servers key warm-session caches on the separator spec alone.
//!
//! ```
//! use lcs_graph::gen;
//! use lcs_separator::{nested_dissection, SeparatorConfig};
//!
//! let g = gen::grid(16, 16);
//! let tree = nested_dissection(&g, &SeparatorConfig::default());
//! let parts = tree.partition_at_level(3);
//! assert!(parts.len() > 1);
//! let covered: usize = parts.iter().map(Vec::len).sum();
//! assert_eq!(covered, 256);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lcs_graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Knobs of the nested-dissection recursion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeparatorConfig {
    /// Regions of at most this many nodes become leaves (the dissection
    /// never splits below it).
    pub min_region: usize,
    /// Maximum dissection depth: nodes at this depth are leaves even if
    /// they exceed `min_region`. The tree has at most `max_levels + 1`
    /// levels.
    pub max_levels: u32,
}

impl Default for SeparatorConfig {
    fn default() -> Self {
        SeparatorConfig {
            min_region: 8,
            max_levels: 30,
        }
    }
}

/// One region of the dissection: its nodes, the separator chosen to split
/// it, and its place in the recursion tree.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SepNode {
    /// The region's nodes, sorted ascending by id.
    pub region: Vec<NodeId>,
    /// The cut: the BFS level chosen to split this region (sorted; empty
    /// for leaves and for disconnected regions, which split into
    /// components without a cut). The separator nodes stay in the *near*
    /// child (`children[0]`), so child regions cover the region exactly.
    pub separator: Vec<NodeId>,
    /// Arena index of the parent region (`None` for the root).
    pub parent: Option<usize>,
    /// Arena indices of the child regions. For a cut split, `children[0]`
    /// is the near side (BFS prefix including the separator) and the rest
    /// are the far components; for a disconnected region, one child per
    /// component. Empty for leaves.
    pub children: Vec<usize>,
    /// Depth in the recursion tree (root = 0).
    pub depth: u32,
}

impl SepNode {
    /// Whether this region was not split further.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// The nested-dissection recursion tree: an arena of [`SepNode`]s in DFS
/// preorder with the root at index 0 (empty for the empty graph).
///
/// Every level of the tree is a partition of the vertex set into
/// connected parts ([`partition_at_level`](Self::partition_at_level)),
/// and level-`k` parts are unions of level-`k+1` parts.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeparatorTree {
    /// The arena, DFS preorder, root first.
    pub nodes: Vec<SepNode>,
}

impl SeparatorTree {
    /// Number of regions in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (only for the empty graph).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root region, if any.
    pub fn root(&self) -> Option<&SepNode> {
        self.nodes.first()
    }

    /// Maximum region depth (0 for a single-region tree and for the empty
    /// tree).
    pub fn depth(&self) -> u32 {
        self.nodes.iter().map(|r| r.depth).max().unwrap_or(0)
    }

    /// Number of distinct dissection levels (`depth() + 1`; 0 when empty).
    pub fn num_levels(&self) -> u32 {
        if self.is_empty() {
            0
        } else {
            self.depth() + 1
        }
    }

    /// The partition induced by cutting the tree at `level`: every region
    /// at exactly that depth, plus every leaf above it. Parts are
    /// disjoint, cover all nodes, and each induces a connected subgraph
    /// (provided each graph component is a region, which
    /// [`nested_dissection`] guarantees for levels ≥ 1 on any graph and
    /// for level 0 on connected graphs).
    ///
    /// Levels past [`depth`](Self::depth) saturate to the leaf partition.
    pub fn partition_at_level(&self, level: u32) -> Vec<Vec<NodeId>> {
        self.nodes
            .iter()
            .filter(|r| r.depth == level || (r.is_leaf() && r.depth < level))
            .map(|r| r.region.clone())
            .collect()
    }
}

/// Scratch buffers shared across the whole recursion so each region costs
/// `O(|region| + edges(region))`, not `O(n)`.
struct Scratch {
    /// `pos[v]` = local index of `v` in the region being processed,
    /// `u32::MAX` outside it.
    pos: Vec<u32>,
    /// Per-local-index BFS distance.
    dist: Vec<u32>,
    /// Per-local-index component label for the far side.
    comp: Vec<u32>,
}

const UNSET: u32 = u32::MAX;

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            pos: vec![UNSET; n],
            dist: Vec::new(),
            comp: Vec::new(),
        }
    }

    /// Installs a region: assigns local indices and resets per-node state.
    fn enter(&mut self, region: &[NodeId]) {
        self.dist.clear();
        self.dist.resize(region.len(), UNSET);
        self.comp.clear();
        self.comp.resize(region.len(), UNSET);
        for (i, &v) in region.iter().enumerate() {
            self.pos[v.index()] = i as u32;
        }
    }

    /// Uninstalls the region (restores the `pos` sentinel).
    fn leave(&mut self, region: &[NodeId]) {
        for &v in region {
            self.pos[v.index()] = UNSET;
        }
    }

    /// BFS from `src` restricted to the installed region, writing
    /// distances into `self.dist` (which the caller must have reset).
    /// Returns the number of reached nodes.
    fn bfs(&mut self, g: &Graph, src: NodeId) -> usize {
        let mut queue = VecDeque::new();
        self.dist[self.pos[src.index()] as usize] = 0;
        queue.push_back(src);
        let mut reached = 1usize;
        while let Some(u) = queue.pop_front() {
            let du = self.dist[self.pos[u.index()] as usize];
            for &next in g.heads(u) {
                let p = self.pos[next.index()];
                if p != UNSET && self.dist[p as usize] == UNSET {
                    self.dist[p as usize] = du + 1;
                    reached += 1;
                    queue.push_back(next);
                }
            }
        }
        reached
    }

    /// The reached node of maximum distance, ties toward the smallest id
    /// (the same rule as `BfsResult::farthest`). Assumes `region` is the
    /// installed region and at least one node was reached.
    fn farthest(&self, region: &[NodeId]) -> NodeId {
        // Region is sorted ascending, so the first node at the maximum
        // distance is the smallest-id one.
        let mut best = region[0];
        let mut best_d = 0u32;
        for (i, &v) in region.iter().enumerate() {
            let d = self.dist[i];
            if d != UNSET && d > best_d {
                best_d = d;
                best = v;
            }
        }
        best
    }
}

/// What one region splits into.
enum Split {
    /// The region stays a leaf (small, depth-capped, or unsplittable —
    /// e.g. a clique whose only balanced cut is the whole region).
    Leaf,
    /// A separator cut: the cut nodes plus the child regions (near side
    /// first, then the far components), each sorted.
    Cut {
        separator: Vec<NodeId>,
        children: Vec<Vec<NodeId>>,
    },
    /// The region is disconnected: one child per component, no cut.
    Components(Vec<Vec<NodeId>>),
}

/// Computes the split of one (sorted) region.
fn split_region(g: &Graph, region: &[NodeId], scratch: &mut Scratch) -> Split {
    let n_r = region.len();
    scratch.enter(region);

    // Sweep 1: connectivity check + peripheral node from the smallest id.
    let reached = scratch.bfs(g, region[0]);
    if reached < n_r {
        let first: Vec<NodeId> = region
            .iter()
            .enumerate()
            .filter(|&(i, _)| scratch.dist[i] != UNSET)
            .map(|(_, &v)| v)
            .collect();
        let mut comps = vec![first];
        comps.extend(far_components(g, region, scratch, UNSET));
        scratch.leave(region);
        return Split::Components(comps);
    }
    let peripheral = scratch.farthest(region);

    // Sweep 2: the level structure the cut is chosen from.
    for d in scratch.dist.iter_mut() {
        *d = UNSET;
    }
    scratch.bfs(g, peripheral);

    let ecc = region
        .iter()
        .enumerate()
        .map(|(i, _)| scratch.dist[i])
        .max()
        .unwrap_or(0) as usize;
    let mut level_count = vec![0usize; ecc + 1];
    for i in 0..n_r {
        level_count[scratch.dist[i] as usize] += 1;
    }

    // The balanced window: a cut at level ℓ leaves a near side of
    // prefix(ℓ-1) nodes and far components totalling n_r - prefix(ℓ);
    // any prefix(ℓ) in [⌈n/3⌉, ⌊2n/3⌋] bounds both by ⌊2n/3⌋. Among the
    // in-window levels the smallest one is the refined cut; if a single
    // fat level spans the window (stars, cliques), fall back to the first
    // level crossing ⌈n/3⌉ — both strict sides are then below ⌈n/3⌉.
    let lo = n_r.div_ceil(3);
    let hi = 2 * n_r / 3;
    let mut prefix = 0usize;
    let mut cut: Option<(usize, usize)> = None; // (level, level size)
    let mut fallback: Option<usize> = None;
    for (l, &c) in level_count.iter().enumerate() {
        prefix += c;
        if prefix >= lo && fallback.is_none() {
            fallback = Some(l);
        }
        if prefix >= lo && prefix <= hi {
            match cut {
                Some((_, best)) if best <= c => {}
                _ => cut = Some((l, c)),
            }
        }
    }
    let cut_level = cut.map(|(l, _)| l).or(fallback).unwrap_or(ecc) as u32;

    let mut near = Vec::new();
    let mut separator = Vec::new();
    for (i, &v) in region.iter().enumerate() {
        if scratch.dist[i] <= cut_level {
            near.push(v);
            if scratch.dist[i] == cut_level {
                separator.push(v);
            }
        }
    }
    if near.len() == n_r {
        // The cut swallowed the region (small-diameter regions like
        // cliques): no balanced separator exists at this granularity.
        scratch.leave(region);
        return Split::Leaf;
    }
    let mut children = vec![near];
    children.extend(far_components(g, region, scratch, cut_level));
    scratch.leave(region);
    Split::Cut {
        separator,
        children,
    }
}

/// The connected components of the installed region's nodes with
/// `dist > cut_level` (with `cut_level = UNSET - 1` semantics handled by
/// the caller passing `UNSET` to mean "unreached nodes"), each sorted
/// ascending. Labels are written into `scratch.comp`.
fn far_components(
    g: &Graph,
    region: &[NodeId],
    scratch: &mut Scratch,
    cut_level: u32,
) -> Vec<Vec<NodeId>> {
    let in_far = |dist: u32| {
        if cut_level == UNSET {
            dist == UNSET
        } else {
            dist != UNSET && dist > cut_level
        }
    };
    let mut comps: Vec<Vec<NodeId>> = Vec::new();
    let mut queue = VecDeque::new();
    for (i, &v) in region.iter().enumerate() {
        if !in_far(scratch.dist[i]) || scratch.comp[i] != UNSET {
            continue;
        }
        let label = comps.len() as u32;
        scratch.comp[i] = label;
        queue.push_back(v);
        let mut members = vec![v];
        while let Some(u) = queue.pop_front() {
            for &next in g.heads(u) {
                let p = scratch.pos[next.index()];
                if p != UNSET
                    && in_far(scratch.dist[p as usize])
                    && scratch.comp[p as usize] == UNSET
                {
                    scratch.comp[p as usize] = label;
                    members.push(next);
                    queue.push_back(next);
                }
            }
        }
        members.sort_unstable();
        comps.push(members);
    }
    comps
}

/// Runs the nested dissection on `g` and returns the recursion tree.
///
/// The root region is all of `V`; every region larger than
/// [`SeparatorConfig::min_region`] and shallower than
/// [`SeparatorConfig::max_levels`] is split by a balanced BFS-level cut
/// (see the [crate docs](self)), disconnected regions split into their
/// components, and regions with no balanced cut (cliques) stay leaves.
/// Deterministic for a fixed graph and config.
pub fn nested_dissection(g: &Graph, cfg: &SeparatorConfig) -> SeparatorTree {
    let n = g.num_nodes();
    let mut tree = SeparatorTree::default();
    if n == 0 {
        return tree;
    }
    let mut scratch = Scratch::new(n);
    let min_region = cfg.min_region.max(1);

    tree.nodes.push(SepNode {
        region: g.nodes().collect(),
        separator: Vec::new(),
        parent: None,
        children: Vec::new(),
        depth: 0,
    });
    // DFS preorder via an explicit stack of arena indices.
    let mut stack = vec![0usize];
    while let Some(idx) = stack.pop() {
        let depth = tree.nodes[idx].depth;
        if tree.nodes[idx].region.len() <= min_region || depth >= cfg.max_levels {
            continue;
        }
        let split = split_region(g, &tree.nodes[idx].region, &mut scratch);
        let (separator, child_regions) = match split {
            Split::Leaf => continue,
            Split::Cut {
                separator,
                children,
            } => (separator, children),
            Split::Components(comps) => (Vec::new(), comps),
        };
        tree.nodes[idx].separator = separator;
        let mut child_indices = Vec::with_capacity(child_regions.len());
        for region in child_regions {
            let child_idx = tree.nodes.len();
            tree.nodes.push(SepNode {
                region,
                separator: Vec::new(),
                parent: Some(idx),
                children: Vec::new(),
                depth: depth + 1,
            });
            child_indices.push(child_idx);
        }
        // Reverse push so the near side is processed (and numbered) first.
        for &c in child_indices.iter().rev() {
            stack.push(c);
        }
        tree.nodes[idx].children = child_indices;
    }
    tree
}

/// Convenience: the flat partition at `level` of a fresh dissection of
/// `g` — what `PartitionSource::Separator` resolves to.
pub fn separator_parts(g: &Graph, level: u32, cfg: &SeparatorConfig) -> Vec<Vec<NodeId>> {
    nested_dissection(g, cfg).partition_at_level(level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{components, gen};

    fn deep_cfg() -> SeparatorConfig {
        SeparatorConfig {
            min_region: 2,
            max_levels: 30,
        }
    }

    /// Checks the classical balance guarantee on every cut region: each
    /// component of `region \ separator` has at most ⌊2n/3⌋ nodes.
    fn assert_balanced(tree: &SeparatorTree) {
        for node in &tree.nodes {
            if node.separator.is_empty() || node.is_leaf() {
                continue;
            }
            let n_r = node.region.len();
            let near_strict = tree.nodes[node.children[0]].region.len() - node.separator.len();
            assert!(
                near_strict <= 2 * n_r / 3,
                "near side {near_strict} exceeds 2/3 of {n_r}"
            );
            for &c in &node.children[1..] {
                let far = tree.nodes[c].region.len();
                assert!(far <= 2 * n_r / 3, "far side {far} exceeds 2/3 of {n_r}");
            }
        }
    }

    fn assert_level_partitions(g: &Graph, tree: &SeparatorTree) {
        for level in 0..tree.num_levels() {
            let parts = tree.partition_at_level(level);
            let covered: usize = parts.iter().map(Vec::len).sum();
            assert_eq!(covered, g.num_nodes(), "level {level} must cover V");
            let mut seen = vec![false; g.num_nodes()];
            for p in &parts {
                assert!(components::induces_connected(g, p), "disconnected part");
                for &v in p {
                    assert!(!seen[v.index()], "overlap at {v:?}");
                    seen[v.index()] = true;
                }
            }
        }
    }

    #[test]
    fn grid_dissection_is_balanced_and_partitions_every_level() {
        let g = gen::grid(13, 17);
        let tree = nested_dissection(&g, &deep_cfg());
        assert!(tree.num_levels() >= 4);
        assert_balanced(&tree);
        assert_level_partitions(&g, &tree);
        // Grid separators are BFS levels: O(√n)-ish, far below the region.
        let root_sep = tree.root().unwrap().separator.len();
        assert!(root_sep > 0 && root_sep < g.num_nodes() / 3);
    }

    #[test]
    fn path_dissection_halves() {
        let g = gen::path(32);
        let tree = nested_dissection(&g, &deep_cfg());
        assert_balanced(&tree);
        assert_level_partitions(&g, &tree);
        // A path's level cut is a single node.
        assert_eq!(tree.root().unwrap().separator.len(), 1);
    }

    #[test]
    fn star_cuts_at_the_center() {
        let g = gen::star(12);
        let tree = nested_dissection(&g, &deep_cfg());
        assert_balanced(&tree);
        assert_level_partitions(&g, &tree);
    }

    #[test]
    fn clique_stays_a_leaf() {
        let g = gen::complete(9);
        let tree = nested_dissection(&g, &deep_cfg());
        // Levels are {root} and everything else: no balanced level cut.
        assert_eq!(tree.len(), 1);
        assert!(tree.root().unwrap().is_leaf());
        assert_eq!(tree.partition_at_level(5).len(), 1);
    }

    #[test]
    fn disconnected_graph_splits_into_components_at_level_one() {
        let g = Graph::from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6)]);
        let tree = nested_dissection(&g, &deep_cfg());
        let root = tree.root().unwrap();
        assert!(root.separator.is_empty());
        assert_eq!(root.children.len(), 3);
        let parts = tree.partition_at_level(1);
        assert_eq!(parts.len(), 3);
        for p in &parts {
            assert!(components::induces_connected(&g, p));
        }
    }

    #[test]
    fn min_region_and_max_levels_cap_the_recursion() {
        let g = gen::grid(8, 8);
        let shallow = nested_dissection(
            &g,
            &SeparatorConfig {
                min_region: 2,
                max_levels: 2,
            },
        );
        assert!(shallow.num_levels() <= 3);
        let coarse = nested_dissection(
            &g,
            &SeparatorConfig {
                min_region: 40,
                max_levels: 30,
            },
        );
        for leaf in coarse.nodes.iter().filter(|r| r.is_leaf()) {
            // A leaf is either small or the unsplittable child of a cut.
            assert!(leaf.region.len() <= 40 || leaf.separator.is_empty());
        }
        for node in &coarse.nodes {
            if !node.is_leaf() {
                assert!(node.region.len() > 40);
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g = gen::torus(9, 11);
        let a = nested_dissection(&g, &SeparatorConfig::default());
        let b = nested_dissection(&g, &SeparatorConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn children_refine_their_parent() {
        let g = gen::grid(10, 10);
        let tree = nested_dissection(&g, &deep_cfg());
        for node in &tree.nodes {
            if node.is_leaf() {
                continue;
            }
            let mut union: Vec<NodeId> = node
                .children
                .iter()
                .flat_map(|&c| tree.nodes[c].region.iter().copied())
                .collect();
            union.sort_unstable();
            assert_eq!(union, node.region, "children must cover the region");
        }
    }

    #[test]
    fn serde_round_trip() {
        let g = gen::grid(6, 6);
        let tree = nested_dissection(&g, &deep_cfg());
        let json = serde_json::to_string(&tree).unwrap();
        let back: SeparatorTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tree);
    }

    #[test]
    fn empty_graph_yields_an_empty_tree() {
        let g = Graph::from_edges(0, []);
        let tree = nested_dissection(&g, &SeparatorConfig::default());
        assert!(tree.is_empty());
        assert_eq!(tree.num_levels(), 0);
        assert!(tree.partition_at_level(0).is_empty());
    }
}
