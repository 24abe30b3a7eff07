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
//! The tree is one order of the nodes plus ranges into it: every region is
//! a range of the order, and its children split that range, child after
//! child. A split rewrites its region's range into its children in place,
//! so a dissection keeps no per-region node lists; the separators sit in
//! one more array, and each region is a fixed 32 B record — about 19 B per
//! node on `road_like` graphs.
//!
//! A split costs at most three BFS passes over its region: the first sweep
//! (from the smallest id, which also checks connectivity), the second
//! (from that sweep's farthest node, giving the levels), and the search
//! that labels the far components. That search runs from each
//! component's smallest id, so it *is* the component's own first sweep:
//! its farthest node is handed down, and a far child is split with two
//! passes (so is a disconnected region's first component, which the
//! first sweep reached from its smallest id). Sibling subtrees share
//! nothing — each owns its range of the order — so they are dissected on
//! every core and spliced back in one fixed order.
//!
//! Everything is deterministic: leaf ranges are sorted; an inner range is
//! its children's. BFS follows the CSR adjacency order, and farthest-node
//! ties break toward the smallest id — the same tree is produced on every
//! run and on any number of cores, which is what lets servers key
//! warm-session caches on the separator spec alone.
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
use std::{mem, thread};

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

/// The `parent` of the root region.
const NO_PARENT: u32 = u32::MAX;

/// One region as the tree stores it: ranges into the node order and the
/// cut arena, and its place in the recursion. An empty range is `0..0`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Region {
    /// The region's nodes are `order[start..end]`.
    start: u32,
    end: u32,
    /// Its separator is `cuts[cut_start..cut_end]`.
    cut_start: u32,
    cut_end: u32,
    /// Arena index of the parent region, [`NO_PARENT`] for the root.
    parent: u32,
    /// Its children are the arena indices `first_child..end_child`.
    first_child: u32,
    end_child: u32,
    /// Depth in the recursion tree (root = 0).
    depth: u32,
}

/// `x` as a `u32` index: the tree's arrays are indexed like the node ids.
fn u32_index(x: usize) -> u32 {
    u32::try_from(x).expect("the dissection's arrays fit u32 indices")
}

/// `range` as stored in a [`Region`], `0..0` when empty.
fn span(range: Range<usize>) -> (u32, u32) {
    if range.is_empty() {
        (0, 0)
    } else {
        (u32_index(range.start), u32_index(range.end))
    }
}

impl Region {
    /// A region of `len` nodes from `start` of the order, without parent,
    /// cut or children.
    fn new(start: usize, len: usize, depth: u32) -> Region {
        Region {
            start: u32_index(start),
            end: u32_index(start + len),
            parent: NO_PARENT,
            depth,
            ..Region::default()
        }
    }

    fn nodes(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    fn set_cut(&mut self, cut: Range<usize>) {
        (self.cut_start, self.cut_end) = span(cut);
    }

    fn set_children(&mut self, children: Range<usize>) {
        (self.first_child, self.end_child) = span(children);
    }
}

/// One region of the dissection, read from its [`SeparatorTree`]: its
/// nodes, the separator chosen to split it, and its place in the
/// recursion tree.
#[derive(Clone, Copy)]
pub struct SepNode<'t> {
    tree: &'t SeparatorTree,
    region: &'t Region,
}

impl<'t> SepNode<'t> {
    /// The region's nodes: ascending by id for a leaf; for an inner
    /// region, its children's nodes, child after child.
    pub fn region(&self) -> &'t [NodeId] {
        &self.tree.order[self.region.nodes()]
    }

    /// The cut: the BFS level chosen to split this region (sorted; empty
    /// for leaves and for disconnected regions, which split into
    /// components without a cut). The separator nodes stay in the *near*
    /// child (the first of [`children`](Self::children)), so child regions
    /// cover the region exactly.
    pub fn separator(&self) -> &'t [NodeId] {
        &self.tree.cuts[self.region.cut_start as usize..self.region.cut_end as usize]
    }

    /// Arena index of the parent region (`None` for the root).
    pub fn parent(&self) -> Option<usize> {
        (self.region.parent != NO_PARENT).then_some(self.region.parent as usize)
    }

    /// Arena indices of the child regions, consecutive. For a cut split,
    /// the first is the near side (BFS prefix including the separator) and
    /// the rest are the far components; for a disconnected region, one
    /// child per component. Empty for leaves.
    pub fn children(&self) -> Range<usize> {
        self.region.first_child as usize..self.region.end_child as usize
    }

    /// Depth in the recursion tree (root = 0).
    pub fn depth(&self) -> u32 {
        self.region.depth
    }

    /// Whether this region was not split further.
    pub fn is_leaf(&self) -> bool {
        self.children().is_empty()
    }
}

/// The nested-dissection recursion tree: an arena of regions with the
/// root at index 0 (empty for the empty graph), in split order — a
/// region's children get consecutive indices when it splits, then the
/// subtree below each child follows in turn (see [`nested_dissection`]).
/// [`node`](Self::node) and [`nodes`](Self::nodes) read them as
/// [`SepNode`]s.
///
/// Every level of the tree is a partition of the vertex set into
/// connected parts ([`partition_at_level`](Self::partition_at_level)),
/// and level-`k` parts are unions of level-`k+1` parts.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeparatorTree {
    /// Every node once, each region a range: a leaf's range ascending by
    /// id, an inner region's its children's ranges in child order.
    order: Vec<NodeId>,
    /// The separators, one sorted range per cut region.
    cuts: Vec<NodeId>,
    /// The arena, in split order, root first.
    regions: Vec<Region>,
}

impl SeparatorTree {
    /// Number of regions in the tree.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the tree is empty (only for the empty graph).
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The region at arena index `index`.
    ///
    /// # Panics
    ///
    /// If `index` is not below [`len`](Self::len).
    pub fn node(&self, index: usize) -> SepNode<'_> {
        SepNode {
            tree: self,
            region: &self.regions[index],
        }
    }

    /// Every region, in arena order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = SepNode<'_>> + '_ {
        self.regions
            .iter()
            .map(move |region| SepNode { tree: self, region })
    }

    /// The root region, if any.
    pub fn root(&self) -> Option<SepNode<'_>> {
        (!self.is_empty()).then(|| self.node(0))
    }

    /// Maximum region depth (0 for a single-region tree and for the empty
    /// tree).
    pub fn depth(&self) -> u32 {
        self.regions.iter().map(|r| r.depth).max().unwrap_or(0)
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
    /// at exactly that depth, plus every leaf above it, each part sorted
    /// ascending. Parts are disjoint, cover all nodes, and each induces a
    /// connected subgraph (provided each graph component is a region,
    /// which [`nested_dissection`] guarantees for levels ≥ 1 on any graph
    /// and for level 0 on connected graphs).
    ///
    /// Levels past [`depth`](Self::depth) saturate to the leaf partition.
    pub fn partition_at_level(&self, level: u32) -> Vec<Vec<NodeId>> {
        self.nodes()
            .filter(|r| r.depth() == level || (r.is_leaf() && r.depth() < level))
            .map(|r| {
                let mut part = r.region().to_vec();
                if !r.is_leaf() {
                    part.sort_unstable();
                }
                part
            })
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
    /// Per-local-index child: 0 for the near side (or the component the
    /// first sweep reached), 1, 2, … for the far components in the order
    /// of their smallest ids.
    child: Vec<u32>,
    /// The queue of every BFS: sweeps and component searches.
    queue: Vec<NodeId>,
    /// Per-BFS-level node counts of the level sweep, then each child's
    /// next free position while the region is rewritten.
    counts: Vec<u32>,
    /// The children of the last split: each one's size and, when the
    /// split already ran its first sweep, that sweep's
    /// [farthest](Scratch::farthest) node.
    kids: Vec<(usize, Option<NodeId>)>,
    /// A copy of the region being rewritten into its children.
    copy: Vec<NodeId>,
}

const UNSET: u32 = u32::MAX;

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            pos: vec![UNSET; n],
            dist: Vec::new(),
            child: Vec::new(),
            queue: Vec::new(),
            counts: Vec::new(),
            kids: Vec::new(),
            copy: Vec::new(),
        }
    }

    /// Installs a region: assigns local indices and resets per-node state.
    fn enter(&mut self, region: &[NodeId]) {
        self.dist.clear();
        self.dist.resize(region.len(), UNSET);
        self.child.clear();
        self.child.resize(region.len(), UNSET);
        self.kids.clear();
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

    /// Rewrites the installed region into its children, child after child
    /// as `kids` lists them: a stable counting sort by `child`, so each
    /// child keeps the region's ascending order.
    fn rewrite(&mut self, region: &mut [NodeId]) {
        self.copy.clear();
        self.copy.extend_from_slice(region);
        self.counts.clear();
        let mut at = 0;
        for &(len, _) in &self.kids {
            self.counts.push(at);
            at += len as u32;
        }
        for (&v, &child) in self.copy.iter().zip(&self.child) {
            let next = &mut self.counts[child as usize];
            region[*next as usize] = v;
            *next += 1;
        }
    }
}

/// Splits one region, whose nodes `region` holds ascending by id: `false`
/// if it stays a leaf (no balanced cut exists — e.g. a clique, whose only
/// balanced cut is the whole region). Otherwise appends the cut to `cuts`,
/// lists the children in `scratch.kids` — the near side, then the far
/// components — and rewrites `region` into them in that order, each
/// ascending; a disconnected region splits into its components with an
/// empty cut.
///
/// `peripheral` is the far end of the region's first sweep (a BFS from
/// its smallest id), known when the region is a component its parent's
/// split searched: the region is then connected, and both the sweep and
/// the connectivity check are skipped.
fn split_region(
    g: &Graph,
    region: &mut [NodeId],
    peripheral: Option<NodeId>,
    scratch: &mut Scratch,
    cuts: &mut Vec<NodeId>,
) -> bool {
    let n_r = region.len();
    scratch.enter(region);

    let peripheral = match peripheral {
        Some(p) => p,
        None => {
            // Sweep 1: connectivity check + peripheral node from the
            // smallest id.
            let reached = scratch.bfs(g, region[0]);
            let p = scratch.farthest(region);
            if reached < n_r {
                for (child, &d) in scratch.child.iter_mut().zip(&scratch.dist) {
                    if d != UNSET {
                        *child = 0;
                    }
                }
                scratch.kids.push((reached, Some(p)));
                far_components(g, region, scratch);
                scratch.rewrite(region);
                scratch.leave(region);
                return true;
            }
            scratch.dist.fill(UNSET);
            p
        }
    };

    // Sweep 2: the level structure the cut is chosen from.
    scratch.bfs(g, peripheral);

    let ecc = scratch.dist.iter().copied().max().unwrap_or(0) as usize;
    let level_count = &mut scratch.counts;
    level_count.clear();
    level_count.resize(ecc + 1, 0);
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
    let mut cut: Option<(usize, u32)> = None; // (level, level size)
    let mut fallback: Option<usize> = None;
    for (l, &c) in level_count.iter().enumerate() {
        prefix += c as usize;
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

    let cut_from = cuts.len();
    let mut near = 0;
    for ((&v, &d), child) in region.iter().zip(&scratch.dist).zip(&mut scratch.child) {
        if d <= cut_level {
            *child = 0;
            near += 1;
            if d == cut_level {
                cuts.push(v);
            }
        }
    }
    if near == n_r {
        // The cut swallowed the region (small-diameter regions like
        // cliques): no balanced separator exists at this granularity.
        cuts.truncate(cut_from);
        scratch.leave(region);
        return false;
    }
    scratch.kids.push((near, None));
    far_components(g, region, scratch);
    scratch.rewrite(region);
    scratch.leave(region);
    true
}

/// Labels the connected components of the installed region's nodes that
/// no child holds yet, in the order of their smallest ids, each as the
/// next child of `scratch.kids`, with its size and its farthest node from
/// its smallest id.
///
/// Each component is searched by BFS from its smallest id — the first
/// sweep the component's own split would run — so its last BFS layer
/// holds that sweep's farthest nodes, the smallest of them the one
/// [`Scratch::farthest`] picks.
fn far_components(g: &Graph, region: &[NodeId], scratch: &mut Scratch) {
    for (i, &v) in region.iter().enumerate() {
        if scratch.child[i] != UNSET {
            continue;
        }
        let label = scratch.kids.len() as u32;
        scratch.child[i] = label;
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
                if p != UNSET && scratch.child[p as usize] == UNSET {
                    scratch.child[p as usize] = label;
                    queue.push(next);
                }
            }
        }
        let farthest = queue[layer].iter().min().copied();
        scratch.kids.push((queue.len(), farthest));
    }
}

/// A region waiting to be split: its range of the node order, still
/// ascending by id, and the far end of its first sweep, if known.
struct Pending<'o> {
    nodes: &'o mut [NodeId],
    /// Where `nodes` starts in the node order.
    start: usize,
    depth: u32,
    peripheral: Option<NodeId>,
}

/// What became of a region handed to a worker.
enum Outcome {
    /// A region at or above the grain, split once: its record (no parent,
    /// cut or children yet), its cut and its children's outcome ids.
    Split(Region, Vec<NodeId>, Range<usize>),
    /// A region below the grain, dissected whole: see
    /// [`Dissection::subtree`].
    Whole(Vec<Region>, Vec<NodeId>),
}

/// The recursion's fixed inputs.
struct Dissection<'g> {
    g: &'g Graph,
    min_region: usize,
    max_levels: u32,
}

impl Dissection<'_> {
    /// Splits the region `nodes` at `depth` unless it is small,
    /// depth-capped or has no balanced cut (see [`split_region`]).
    fn split(
        &self,
        nodes: &mut [NodeId],
        depth: u32,
        peripheral: Option<NodeId>,
        scratch: &mut Scratch,
        cuts: &mut Vec<NodeId>,
    ) -> bool {
        nodes.len() > self.min_region
            && depth < self.max_levels
            && split_region(self.g, nodes, peripheral, scratch, cuts)
    }

    /// Dissects one region whole: its subtree's records in the arena
    /// order, the region at index 0 (its parent left unset, children
    /// numbered from it), and the cuts in the order the regions were
    /// split, which the records' cut ranges index.
    fn subtree(&self, root: Pending<'_>, scratch: &mut Scratch) -> (Vec<Region>, Vec<NodeId>) {
        let base = root.start;
        let mut regions = vec![Region::new(base, root.nodes.len(), root.depth)];
        let mut cuts = Vec::new();
        let mut stack = vec![(0, root.peripheral)];
        while let Some((idx, peripheral)) = stack.pop() {
            let region = regions[idx];
            let range = region.nodes();
            let nodes = &mut root.nodes[range.start - base..range.end - base];
            let cut_from = cuts.len();
            if !self.split(nodes, region.depth, peripheral, scratch, &mut cuts) {
                continue;
            }
            let first = regions.len();
            let kids = first..first + scratch.kids.len();
            regions[idx].set_cut(cut_from..cuts.len());
            regions[idx].set_children(kids.clone());
            let mut start = range.start;
            for &(len, _) in &scratch.kids {
                let mut kid = Region::new(start, len, region.depth + 1);
                kid.parent = u32_index(idx);
                regions.push(kid);
                start += len;
            }
            // Reverse push so the near side is processed (and numbered
            // below) first.
            let peripherals = scratch.kids.iter().map(|kid| kid.1);
            stack.extend(kids.zip(peripherals).rev());
        }
        (regions, cuts)
    }
}

/// The work list the workers of one dissection share.
struct Pool<'o> {
    /// Regions no worker has taken yet, with their outcome ids.
    todo: Vec<(usize, Pending<'o>)>,
    /// One slot per region made so far, the root first; filled when the
    /// region's worker is done with it.
    outcomes: Vec<Option<Outcome>>,
    /// Regions taken and not yet done: while there are any, more regions
    /// may come.
    busy: usize,
}

/// The pool and the signal that it changed.
struct Shared<'o> {
    pool: Mutex<Pool<'o>>,
    changed: Condvar,
}

impl<'o> Shared<'o> {
    /// Locks the pool. Workers compute with it unlocked, so only a bug in
    /// the few lines that update it could have poisoned it.
    fn lock(&self) -> MutexGuard<'_, Pool<'o>> {
        self.pool
            .lock()
            .expect("no worker panics while holding the pool")
    }
}

/// A taken region: done when dropped, even by a panicking worker, so the
/// others stop waiting for it (the scope then re-raises the panic).
struct Taken<'a, 'o>(&'a Shared<'o>);

impl Drop for Taken<'_, '_> {
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
    /// at or above `grain` is split once and its children's ranges go
    /// back to the pool; a smaller one is dissected whole.
    fn work(&self, shared: &Shared<'_>, grain: usize, scratch: &mut Scratch) {
        loop {
            let mut pool = shared.lock();
            let (id, pending) = loop {
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
            if pending.nodes.len() < grain {
                let (regions, cuts) = self.subtree(pending, scratch);
                shared.lock().outcomes[id] = Some(Outcome::Whole(regions, cuts));
                continue;
            }
            let Pending {
                mut nodes,
                mut start,
                depth,
                peripheral,
            } = pending;
            let region = Region::new(start, nodes.len(), depth);
            let mut cut = Vec::new();
            let mut kids = Vec::new();
            if self.split(nodes, depth, peripheral, scratch, &mut cut) {
                // Each child takes its range off the front of the rest.
                for &(len, peripheral) in &scratch.kids {
                    let (head, tail) = mem::take(&mut nodes).split_at_mut(len);
                    nodes = tail;
                    kids.push(Pending {
                        nodes: head,
                        start,
                        depth: depth + 1,
                        peripheral,
                    });
                    start += len;
                }
            }
            let mut pool = shared.lock();
            let first = pool.outcomes.len();
            pool.outcomes.extend(kids.iter().map(|_| None));
            let ids = first..pool.outcomes.len();
            pool.outcomes[id] = Some(Outcome::Split(region, cut, ids.clone()));
            pool.todo.extend(ids.zip(kids));
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
/// smaller ones dissected whole. Each worker rewrites the ranges of the
/// one node order it is handed.
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
    let mut order: Vec<NodeId> = g.nodes().collect();
    let root = Pending {
        nodes: &mut order,
        start: 0,
        depth: 0,
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
    let outcomes = shared
        .pool
        .into_inner()
        .expect("no worker panics while holding the pool")
        .outcomes;
    assemble(order, outcomes)
}

/// Lays the outcomes out in the order [`Dissection::subtree`] numbers a
/// whole tree: the same walk, with each split looked up instead of
/// computed and each whole subtree spliced in with its indices shifted.
/// The cuts are concatenated in the walk's order, the order one worker
/// splits the regions of a whole tree in.
fn assemble(order: Vec<NodeId>, mut outcomes: Vec<Option<Outcome>>) -> SeparatorTree {
    // Sized exactly, so the tree holds no spare capacity and the splice
    // never regrows a buffer.
    let (mut num_regions, mut num_cut) = (0, 0);
    for outcome in outcomes.iter().flatten() {
        let (regions, cut) = match outcome {
            Outcome::Split(_, cut, _) => (1, cut.len()),
            Outcome::Whole(regions, cuts) => (regions.len(), cuts.len()),
        };
        num_regions += regions;
        num_cut += cut;
    }
    let mut regions = Vec::with_capacity(num_regions);
    let mut cuts = Vec::with_capacity(num_cut);
    regions.push(Region::default());
    // (outcome id, arena index, parent)
    let mut stack = vec![(0, 0, NO_PARENT)];
    while let Some((id, idx, parent)) = stack.pop() {
        match outcomes[id].take().expect("every region has an outcome") {
            Outcome::Split(mut region, cut, kids) => {
                let at = regions.len()..regions.len() + kids.len();
                region.parent = parent;
                region.set_cut(cuts.len()..cuts.len() + cut.len());
                region.set_children(at.clone());
                cuts.extend(cut);
                regions[idx] = region;
                regions.resize(at.end, Region::default());
                let kids = kids.zip(at).map(|(k, i)| (k, i, u32_index(idx)));
                stack.extend(kids.rev());
            }
            Outcome::Whole(sub, sub_cuts) => {
                // Sub-arena index 0 is `idx`; index `l ≥ 1` lands at
                // `offset + l`; the sub-arena's cuts at `cut_offset` on.
                let offset = u32_index(regions.len() - 1);
                let cut_offset = u32_index(cuts.len());
                cuts.extend(sub_cuts);
                let mut sub = sub.into_iter().map(|mut region| {
                    region.parent = match region.parent {
                        NO_PARENT => parent,
                        0 => u32_index(idx),
                        l => offset + l,
                    };
                    if region.first_child != region.end_child {
                        region.first_child += offset;
                        region.end_child += offset;
                    }
                    if region.cut_start != region.cut_end {
                        region.cut_start += cut_offset;
                        region.cut_end += cut_offset;
                    }
                    region
                });
                regions[idx] = sub.next().expect("a subtree holds its root");
                regions.extend(sub);
            }
        }
    }
    SeparatorTree {
        order,
        cuts,
        regions,
    }
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
        for node in tree.nodes() {
            if node.separator().is_empty() || node.is_leaf() {
                continue;
            }
            let n_r = node.region().len();
            let near_strict =
                tree.node(node.children().start).region().len() - node.separator().len();
            assert!(
                near_strict <= 2 * n_r / 3,
                "near side {near_strict} exceeds 2/3 of {n_r}"
            );
            for c in node.children().skip(1) {
                let far = tree.node(c).region().len();
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
        let root_sep = tree.root().unwrap().separator().len();
        assert!(root_sep > 0 && root_sep < g.num_nodes() / 3);
    }

    #[test]
    fn path_dissection_halves() {
        let g = gen::path(32);
        let tree = nested_dissection(&g, &deep_cfg());
        assert_balanced(&tree);
        assert_level_partitions(&g, &tree);
        // A path's level cut is a single node.
        assert_eq!(tree.root().unwrap().separator().len(), 1);
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
        assert!(root.separator().is_empty());
        assert_eq!(root.children().len(), 3);
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
        for leaf in coarse.nodes().filter(|r| r.is_leaf()) {
            // A leaf is either small or the unsplittable child of a cut.
            assert!(leaf.region().len() <= 40 || leaf.separator().is_empty());
        }
        for node in coarse.nodes() {
            if !node.is_leaf() {
                assert!(node.region().len() > 40);
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
        for node in tree.nodes() {
            if node.is_leaf() {
                continue;
            }
            let mut union: Vec<NodeId> = node
                .children()
                .flat_map(|c| tree.node(c).region().iter().copied())
                .collect();
            union.sort_unstable();
            let mut region = node.region().to_vec();
            region.sort_unstable();
            assert_eq!(union, region, "children must cover the region");
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
        for (i, node) in tree.nodes().enumerate() {
            assert_eq!(node.parent(), parents[i], "parent of {i}");
            assert_eq!(
                node.children().collect::<Vec<_>>(),
                children[i],
                "children of {i}"
            );
        }
        for workers in [2, 8] {
            assert_eq!(
                dissect(&gen::grid(8, 8), &SeparatorConfig::default(), workers, 1),
                tree
            );
        }
    }

    /// FNV-1a over every node's depth, region (sorted), separator and
    /// children.
    fn digest(tree: &SeparatorTree) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for node in tree.nodes() {
            let mut region = node.region().to_vec();
            region.sort_unstable();
            eat(u64::from(node.depth()));
            eat(region.len() as u64);
            region.iter().for_each(|v| eat(v.index() as u64));
            eat(node.separator().len() as u64);
            node.separator().iter().for_each(|v| eat(v.index() as u64));
            eat(node.children().len() as u64);
            node.children().for_each(|c| eat(c as u64));
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
