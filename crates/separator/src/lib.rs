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
//! A split costs at most three BFS passes over its region: the first sweep
//! (from the smallest id, which also checks connectivity), the second
//! (from that sweep's farthest node, giving the levels), and the search
//! that labels the far components. That search runs from each
//! component's smallest id, so it *is* the component's own first sweep:
//! its farthest node is handed down, and a far child is split with two
//! passes (so is a disconnected region's first component, which the
//! first sweep reached from its smallest id). Sibling subtrees share
//! nothing, so they are dissected on every core and spliced back in one
//! fixed order.
//!
//! Everything is deterministic: regions are kept sorted by node id, BFS
//! follows the CSR adjacency order, and farthest-node ties break toward
//! the smallest id — the same tree is produced on every run and on any
//! number of cores, which is what lets servers key warm-session caches on
//! the separator spec alone.
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
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

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

/// The nested-dissection recursion tree: an arena of [`SepNode`]s with the
/// root at index 0 (empty for the empty graph), in split order — a
/// region's children get consecutive indices when it splits, then the
/// subtree below each child follows in turn (see [`nested_dissection`]).
///
/// Every level of the tree is a partition of the vertex set into
/// connected parts ([`partition_at_level`](Self::partition_at_level)),
/// and level-`k` parts are unions of level-`k+1` parts.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeparatorTree {
    /// The arena, in split order, root first.
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

/// Regions of at least this many nodes are split one at a time, each
/// child going back to the workers' pool; smaller regions are dissected
/// whole by one worker.
const GRAIN: usize = 1024;

/// Per-worker scratch buffers, reused across regions so each region
/// costs `O(|region| + edges(region))`, not `O(n)`.
struct Scratch {
    /// `pos[v]` = local index of `v` in the region being processed,
    /// `u32::MAX` outside it.
    pos: Vec<u32>,
    /// Per-local-index BFS distance.
    dist: Vec<u32>,
    /// Per-local-index component label for the far side.
    comp: Vec<u32>,
    /// The queue of every BFS: sweeps and component searches.
    queue: Vec<NodeId>,
}

const UNSET: u32 = u32::MAX;

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            pos: vec![UNSET; n],
            dist: Vec::new(),
            comp: Vec::new(),
            queue: Vec::new(),
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
        self.queue.clear();
        self.queue.push(src);
        self.dist[self.pos[src.index()] as usize] = 0;
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let du = self.dist[self.pos[u.index()] as usize];
            for &next in g.heads(u) {
                let p = self.pos[next.index()];
                if p != UNSET && self.dist[p as usize] == UNSET {
                    self.dist[p as usize] = du + 1;
                    self.queue.push(next);
                }
            }
        }
        self.queue.len()
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

/// A child region (sorted) and, when the split that made it already ran
/// its first sweep, that sweep's [farthest](Scratch::farthest) node.
type Child = (Vec<NodeId>, Option<NodeId>);

/// Computes the split of one (sorted) region: `None` if it stays a leaf
/// (no balanced cut exists — e.g. a clique, whose only balanced cut is
/// the whole region), else the cut nodes and the child regions. A cut
/// split's children are the near side, then the far components; a
/// disconnected region splits into its components with an empty cut.
///
/// `peripheral` is the far end of the region's first sweep (a BFS from
/// its smallest id), known when the region is a component its parent's
/// split searched: the region is then connected, and both the sweep and
/// the connectivity check are skipped.
fn split_region(
    g: &Graph,
    region: &[NodeId],
    peripheral: Option<NodeId>,
    scratch: &mut Scratch,
) -> Option<(Vec<NodeId>, Vec<Child>)> {
    let n_r = region.len();
    scratch.enter(region);

    let peripheral = match peripheral {
        Some(p) => p,
        None => {
            // Sweep 1: connectivity check + peripheral node from the
            // smallest id.
            if scratch.bfs(g, region[0]) < n_r {
                let first: Vec<NodeId> = region
                    .iter()
                    .zip(&scratch.dist)
                    .filter(|&(_, &d)| d != UNSET)
                    .map(|(&v, _)| v)
                    .collect();
                let mut comps = vec![(first, Some(scratch.farthest(region)))];
                comps.extend(far_components(g, region, scratch, UNSET));
                scratch.leave(region);
                return Some((Vec::new(), comps));
            }
            let p = scratch.farthest(region);
            scratch.dist.fill(UNSET);
            p
        }
    };

    // Sweep 2: the level structure the cut is chosen from.
    scratch.bfs(g, peripheral);

    let ecc = scratch.dist.iter().copied().max().unwrap_or(0) as usize;
    let mut level_count = vec![0usize; ecc + 1];
    for &d in &scratch.dist {
        level_count[d as usize] += 1;
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
    for (&v, &d) in region.iter().zip(&scratch.dist) {
        if d <= cut_level {
            near.push(v);
            if d == cut_level {
                separator.push(v);
            }
        }
    }
    if near.len() == n_r {
        // The cut swallowed the region (small-diameter regions like
        // cliques): no balanced separator exists at this granularity.
        scratch.leave(region);
        return None;
    }
    let mut children = vec![(near, None)];
    children.extend(far_components(g, region, scratch, cut_level));
    scratch.leave(region);
    Some((separator, children))
}

/// The connected components of the installed region's nodes with
/// `dist > cut_level` (`cut_level = UNSET` means the unreached nodes),
/// each sorted ascending, with its farthest node from its smallest id.
/// Labels are written into `scratch.comp`.
///
/// Each component is searched by BFS from its smallest id — the first
/// sweep the component's own split would run — so its last BFS layer
/// holds that sweep's farthest nodes, the smallest of them the one
/// [`Scratch::farthest`] picks.
fn far_components(
    g: &Graph,
    region: &[NodeId],
    scratch: &mut Scratch,
    cut_level: u32,
) -> Vec<Child> {
    let in_far = |dist: u32| {
        if cut_level == UNSET {
            dist == UNSET
        } else {
            dist != UNSET && dist > cut_level
        }
    };
    let mut comps = Vec::new();
    for (i, &v) in region.iter().enumerate() {
        if !in_far(scratch.dist[i]) || scratch.comp[i] != UNSET {
            continue;
        }
        let label = comps.len() as u32;
        scratch.comp[i] = label;
        let queue = &mut scratch.queue;
        queue.clear();
        queue.push(v);
        // `layer` is the BFS layer being expanded: the last one once the
        // queue runs dry.
        let mut layer = 0..1;
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            if head == layer.end {
                layer = layer.end..queue.len();
            }
            head += 1;
            for &next in g.heads(u) {
                let p = scratch.pos[next.index()];
                if p != UNSET
                    && in_far(scratch.dist[p as usize])
                    && scratch.comp[p as usize] == UNSET
                {
                    scratch.comp[p as usize] = label;
                    queue.push(next);
                }
            }
        }
        let farthest = queue[layer].iter().min().copied();
        let mut members = queue.clone();
        members.sort_unstable();
        comps.push((members, farthest));
    }
    comps
}

/// A region waiting to be split: its tree node (parent and children
/// unset) and the far end of its first sweep, if known.
struct Pending {
    node: SepNode,
    peripheral: Option<NodeId>,
}

/// What became of a region handed to a worker.
enum Outcome {
    /// A region at or above the grain, split once: its node (separator
    /// set, children not yet numbered) and its children's outcome ids.
    Split(SepNode, Range<usize>),
    /// A region below the grain, dissected whole: its subtree in the
    /// arena order, rooted at index 0.
    Whole(Vec<SepNode>),
}

/// The recursion's fixed inputs.
struct Dissection<'g> {
    g: &'g Graph,
    min_region: usize,
    max_levels: u32,
}

impl Dissection<'_> {
    /// Splits `node` unless it is small, depth-capped or has no balanced
    /// cut: sets its separator and returns its children.
    fn split(
        &self,
        node: &mut SepNode,
        peripheral: Option<NodeId>,
        scratch: &mut Scratch,
    ) -> Vec<Pending> {
        if node.region.len() <= self.min_region || node.depth >= self.max_levels {
            return Vec::new();
        }
        let Some((separator, children)) = split_region(self.g, &node.region, peripheral, scratch)
        else {
            return Vec::new();
        };
        node.separator = separator;
        children
            .into_iter()
            .map(|(region, peripheral)| Pending {
                node: leaf(region, node.depth + 1),
                peripheral,
            })
            .collect()
    }

    /// Dissects one region whole: its subtree in the arena order, the
    /// region at index 0 (its `parent` is left as passed in).
    fn subtree(&self, root: Pending, scratch: &mut Scratch) -> Vec<SepNode> {
        let mut arena = vec![root.node];
        let mut stack = vec![(0, root.peripheral)];
        while let Some((idx, peripheral)) = stack.pop() {
            let kids = self.split(&mut arena[idx], peripheral, scratch);
            let first = arena.len();
            arena[idx].children = (first..first + kids.len()).collect();
            // Reverse push so the near side is processed (and numbered
            // below) first.
            let peripherals = kids.iter().map(|kid| kid.peripheral);
            stack.extend((first..first + kids.len()).zip(peripherals).rev());
            arena.extend(kids.into_iter().map(|kid| SepNode {
                parent: Some(idx),
                ..kid.node
            }));
        }
        arena
    }
}

/// A tree node with no cut and no children yet.
fn leaf(region: Vec<NodeId>, depth: u32) -> SepNode {
    SepNode {
        region,
        separator: Vec::new(),
        parent: None,
        children: Vec::new(),
        depth,
    }
}

/// The work list the workers of one dissection share.
struct Pool {
    /// Regions no worker has taken yet, with their outcome ids.
    todo: Vec<(usize, Pending)>,
    /// One slot per region made so far, the root first; filled when the
    /// region's worker is done with it.
    outcomes: Vec<Option<Outcome>>,
    /// Regions taken and not yet done: while there are any, more regions
    /// may come.
    busy: usize,
}

/// The pool and the signal that it changed.
struct Shared {
    pool: Mutex<Pool>,
    changed: Condvar,
}

impl Shared {
    /// Locks the pool. Workers compute with it unlocked, so only a bug in
    /// the few lines that update it could have poisoned it.
    fn lock(&self) -> MutexGuard<'_, Pool> {
        self.pool
            .lock()
            .expect("no worker panics while holding the pool")
    }
}

/// A taken region: done when dropped, even by a panicking worker, so the
/// others stop waiting for it (the scope then re-raises the panic).
struct Taken<'a>(&'a Shared);

impl Drop for Taken<'_> {
    fn drop(&mut self) {
        // Every update leaves the pool valid, and a drop must not panic.
        let mut pool = self.0.pool.lock().unwrap_or_else(PoisonError::into_inner);
        pool.busy -= 1;
        drop(pool);
        self.0.changed.notify_all();
    }
}

impl Dissection<'_> {
    /// One worker: takes regions until none are left or coming. A region
    /// at or above `grain` is split once and its children go back to the
    /// pool; a smaller one is dissected whole.
    fn work(&self, shared: &Shared, grain: usize, scratch: &mut Scratch) {
        loop {
            let mut pool = shared.lock();
            let (id, mut pending) = loop {
                if let Some(next) = pool.todo.pop() {
                    break next;
                }
                if pool.busy == 0 {
                    return;
                }
                pool = shared
                    .changed
                    .wait(pool)
                    .expect("no worker panics while holding the pool");
            };
            pool.busy += 1;
            drop(pool);
            let _taken = Taken(shared);
            if pending.node.region.len() < grain {
                let sub = self.subtree(pending, scratch);
                shared.lock().outcomes[id] = Some(Outcome::Whole(sub));
            } else {
                let kids = self.split(&mut pending.node, pending.peripheral, scratch);
                let mut pool = shared.lock();
                let first = pool.outcomes.len();
                pool.outcomes.extend(kids.iter().map(|_| None));
                let ids = first..pool.outcomes.len();
                pool.outcomes[id] = Some(Outcome::Split(pending.node, ids.clone()));
                pool.todo.extend(ids.zip(kids));
            }
        }
    }
}

/// Runs the nested dissection on `g` and returns the recursion tree.
///
/// The root region is all of `V`; every region larger than
/// [`SeparatorConfig::min_region`] and shallower than
/// [`SeparatorConfig::max_levels`] is split by a balanced BFS-level cut
/// (see the [crate docs](self)), disconnected regions split into their
/// components, and regions with no balanced cut (cliques) stay leaves.
/// The arena is in split order: a region's children are numbered, one
/// after another, when it splits, and the subtrees below them follow in
/// turn — the root, its children, the first child's children, the
/// subtrees below those, then the second child's children, and so on.
///
/// Sibling subtrees are independent, so they are dissected on every core
/// ([`std::thread::available_parallelism`]) and spliced back in that
/// order: the tree is the same on any number of cores, and deterministic
/// for a fixed graph and config.
pub fn nested_dissection(g: &Graph, cfg: &SeparatorConfig) -> SeparatorTree {
    let workers = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    dissect(g, cfg, workers, GRAIN)
}

/// [`nested_dissection`] on `workers` threads: regions of at least
/// `grain` nodes are split one at a time by whichever worker is free,
/// smaller ones dissected whole.
fn dissect(g: &Graph, cfg: &SeparatorConfig, workers: usize, grain: usize) -> SeparatorTree {
    let n = g.num_nodes();
    if n == 0 {
        return SeparatorTree::default();
    }
    let d = Dissection {
        g,
        min_region: cfg.min_region.max(1),
        max_levels: cfg.max_levels,
    };
    let root = Pending {
        node: leaf(g.nodes().collect(), 0),
        peripheral: None,
    };
    let shared = Shared {
        pool: Mutex::new(Pool {
            todo: vec![(0, root)],
            outcomes: vec![None],
            busy: 0,
        }),
        changed: Condvar::new(),
    };
    // A graph below the grain is one whole region: one worker.
    let helpers = if n >= grain {
        workers.saturating_sub(1)
    } else {
        0
    };
    thread::scope(|s| {
        for _ in 0..helpers {
            s.spawn(|| d.work(&shared, grain, &mut Scratch::new(n)));
        }
        d.work(&shared, grain, &mut Scratch::new(n));
    });
    let pool = shared.pool.into_inner();
    let outcomes = pool
        .expect("no worker panics while holding the pool")
        .outcomes;
    SeparatorTree {
        nodes: assemble(outcomes),
    }
}

/// Lays the outcomes out in the order [`Dissection::subtree`] numbers a
/// whole tree: the same walk, with each split looked up instead of
/// computed and each whole subtree spliced in with its indices shifted.
fn assemble(mut outcomes: Vec<Option<Outcome>>) -> Vec<SepNode> {
    let mut arena = vec![leaf(Vec::new(), 0)];
    // (outcome id, arena index, parent)
    let mut stack = vec![(0, 0, None)];
    while let Some((id, idx, parent)) = stack.pop() {
        match outcomes[id].take().expect("every region has an outcome") {
            Outcome::Split(mut node, kids) => {
                let at = arena.len()..arena.len() + kids.len();
                node.parent = parent;
                node.children = at.clone().collect();
                arena[idx] = node;
                arena.extend(at.clone().map(|_| leaf(Vec::new(), 0)));
                stack.extend(kids.zip(at).map(|(k, i)| (k, i, Some(idx))).rev());
            }
            Outcome::Whole(sub) => {
                // Sub-arena index 0 is `idx`; index `l ≥ 1` lands at
                // `offset + l`.
                let offset = arena.len() - 1;
                let at = |l: usize| if l == 0 { idx } else { offset + l };
                let mut sub = sub.into_iter().map(|mut node| {
                    node.parent = node.parent.map(at);
                    node.children.iter_mut().for_each(|c| *c = at(*c));
                    node
                });
                let head = sub.next().expect("a subtree holds its root");
                arena[idx] = SepNode { parent, ..head };
                arena.extend(sub);
            }
        }
    }
    arena
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
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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

    /// The arena order on grid 8×8 (default config): a region's children
    /// are numbered together when it splits, so the root's children are
    /// 1 and 2, and node 1's subtree (3–9) comes before node 2's
    /// children (10, 11) — not DFS preorder, which would put node 3 right
    /// after node 1's first child.
    #[test]
    fn the_arena_numbers_children_when_their_parent_splits() {
        let tree = nested_dissection(&gen::grid(8, 8), &SeparatorConfig::default());
        let children: [&[usize]; 21] = [
            &[1, 2],
            &[3, 4],
            &[10, 11],
            &[5, 6],
            &[7, 8, 9],
            &[],
            &[],
            &[],
            &[],
            &[],
            &[12, 13],
            &[14, 15],
            &[],
            &[],
            &[],
            &[16, 17],
            &[18, 19, 20],
            &[],
            &[],
            &[],
            &[],
        ];
        let parents = [
            None,
            Some(0),
            Some(0),
            Some(1),
            Some(1),
            Some(3),
            Some(3),
            Some(4),
            Some(4),
            Some(4),
            Some(2),
            Some(2),
            Some(10),
            Some(10),
            Some(11),
            Some(11),
            Some(15),
            Some(15),
            Some(16),
            Some(16),
            Some(16),
        ];
        assert_eq!(tree.len(), 21);
        for (i, node) in tree.nodes.iter().enumerate() {
            assert_eq!(node.parent, parents[i], "parent of {i}");
            assert_eq!(node.children, children[i], "children of {i}");
        }
        for workers in [2, 8] {
            assert_eq!(
                dissect(&gen::grid(8, 8), &SeparatorConfig::default(), workers, 1),
                tree
            );
        }
    }

    /// FNV-1a over every node's depth, region, separator and children.
    fn digest(tree: &SeparatorTree) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for node in &tree.nodes {
            eat(u64::from(node.depth));
            eat(node.region.len() as u64);
            node.region.iter().for_each(|v| eat(v.index() as u64));
            eat(node.separator.len() as u64);
            node.separator.iter().for_each(|v| eat(v.index() as u64));
            eat(node.children.len() as u64);
            node.children.iter().for_each(|&c| eat(c as u64));
        }
        h
    }

    /// Grid 13×17, torus 9×11 and path 40 on scattered ids, plus three
    /// isolated nodes: the root splits into components whose id ranges
    /// interleave.
    fn scattered_union() -> Graph {
        let parts = [gen::grid(13, 17), gen::torus(9, 11), gen::path(40)];
        let n = parts.iter().map(Graph::num_nodes).sum::<usize>() + 3;
        let scatter = |v: usize| (v * 101 % n) as u32;
        let mut edges = Vec::new();
        let mut offset = 0;
        for g in &parts {
            for e in g.edges() {
                edges.push((scatter(offset + e.u.index()), scatter(offset + e.v.index())));
            }
            offset += g.num_nodes();
        }
        Graph::from_edges(n, edges)
    }

    /// The trees, to the bit, that the three-sweep sequential dissection
    /// built before the first sweep was reused and subtrees ran in
    /// parallel: each graph at the default config, then at `deep_cfg()`.
    #[test]
    fn trees_match_the_sequential_three_sweep_digests() {
        let graphs = [
            gen::road_like(64, 64, 7),
            gen::grid(13, 17),
            gen::torus(30, 40),
            gen::ktree(2000, 3, &mut SmallRng::seed_from_u64(7)),
            scattered_union(),
        ];
        let pinned: [[u64; 2]; 5] = [
            [0xdadf_415a_6459_c8b2, 0xbb97_a42f_12e6_d34f],
            [0x5e55_86a7_1d33_758b, 0x4228_0780_d7e8_0360],
            [0xc5f8_6d25_3d9f_d05a, 0xc5f9_8a05_49a5_0f68],
            [0xf5d9_6145_47e2_59b8, 0x926b_316d_ad03_5533],
            [0x8e7e_c5ee_a0e4_d292, 0x0f9a_2692_27f6_cdbd],
        ];
        for (g, want) in graphs.iter().zip(pinned) {
            for (cfg, want) in [SeparatorConfig::default(), deep_cfg()].iter().zip(want) {
                assert_eq!(digest(&nested_dissection(g, cfg)), want, "{cfg:?}");
                assert_eq!(digest(&dissect(g, cfg, 2, 64)), want, "{cfg:?}, 2 workers");
            }
        }
    }

    /// A graph from each family `tests/separator.rs` draws from.
    fn arb_family() -> impl Strategy<Value = Graph> {
        (0usize..8, 3usize..9, 3usize..9, 0u64..1000).prop_map(|(fam, a, b, seed)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            match fam {
                0 => gen::grid(a, b),
                1 => gen::torus(a, b),
                2 => gen::ktree(a * b, 3, &mut rng),
                3 => gen::path(a * b),
                4 => gen::binary_tree(1 + (a as u32 % 5)),
                5 => gen::complete(a + b),
                6 => gen::wheel(a + b),
                _ => gen::grid_of_cliques(a, b, 3),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// 1, 2 and 8 workers, splitting level by level from any region
        /// size up, build the tree one worker builds whole.
        #[test]
        fn any_worker_count_builds_the_same_tree(g in arb_family(), min_region in 1usize..6) {
            let cfg = SeparatorConfig { min_region, max_levels: 30 };
            let whole = dissect(&g, &cfg, 1, usize::MAX);
            for workers in [1, 2, 8] {
                for grain in [1, 8] {
                    prop_assert_eq!(&dissect(&g, &cfg, workers, grain), &whole);
                }
            }
        }
    }

    /// The dissection at scale (`road_like` 512², n = 262 144): one worker
    /// and the machine's workers build the same tree, every cut is
    /// balanced, and `road_like` 256² (the benchmarked instance) and 512²
    /// keep the sequential three-sweep digests. Release mode only: `cargo
    /// test --release -- --ignored scale_`.
    #[test]
    #[ignore = "release-mode scale test"]
    fn scale_dissection_on_road_like_512() {
        for (side, want) in [(256, 0xe03f_dded_1cd4_406e), (512, 0x9ae3_0d4d_02fb_e1f8)] {
            let g = gen::road_like(side, side, 7);
            let cfg = SeparatorConfig::default();
            let tree = nested_dissection(&g, &cfg);
            assert_eq!(dissect(&g, &cfg, 1, GRAIN), tree, "road_like {side}²");
            assert_eq!(digest(&tree), want, "road_like {side}²");
            assert_balanced(&tree);
        }
    }
}
