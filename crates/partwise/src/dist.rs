//! Distributed part-wise aggregation over shortcut subgraphs.

use crate::centralized::identity;
use lcs_congest::protocols::AggOp;
use lcs_congest::{
    id_bits, Ctx, Incoming, MessageSize, NodeProgram, RunMetrics, SimConfig, SimMode, Simulator,
};
use lcs_core::session::ShortcutSession;
use lcs_core::{Partition, Shortcut, Transition};
use lcs_graph::{Graph, NodeId, PartId, RootedTree};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;

/// Result of an [`AggregateOp`].
#[derive(Clone, Debug)]
pub struct PartwiseOutcome {
    /// Aggregate per part as known by its leader (`None` if the leader never
    /// finished, e.g. because `G[P_i] + H_i` is disconnected).
    pub results: Vec<Option<u64>>,
    /// Whether every member of every part learned its part's result.
    pub all_members_informed: bool,
    /// Simulation metrics (rounds are the headline number: expect
    /// `Õ(congestion + dilation)`).
    pub metrics: RunMetrics,
    /// Of `metrics`, a [`Wave::ToExtreme`]'s second run, the `Down`s.
    pub down: RunMetrics,
    /// Parts served from the cached [`AggForest`] in this run: they sent
    /// only `Up`/`Down` and did not pay for the offer wave. `0` on a cold
    /// run.
    pub rooted_parts: usize,
}

/// Seed of the leaders' start delays (`delay_range` of
/// [`AggregateOp::run_masked`]).
const DELAY_SEED: u64 = 0xde1af;

/// `count` start delays, uniform in `[0, range)`; `range == 0` disables
/// delays without drawing any.
fn random_delays(count: usize, range: u32) -> Vec<u32> {
    if range == 0 {
        return vec![0; count];
    }
    let mut rng = SmallRng::seed_from_u64(DELAY_SEED);
    (0..count).map(|_| rng.gen_range(0..range)).collect()
}

/// "No port": the table's marker for a member's own (possibly edgeless)
/// slot and the protocol's "no parent yet". Real ports are `< degree`.
const NO_PORT: u32 = u32::MAX;

/// Where an [`AggregateOp::run_masked`] run sends each part's result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wave {
    /// The echo: `Down` to every kept slot, so every member learns it.
    Echo,
    /// For `Min` / `Max`: `Up` only where a slot's extreme changed since the
    /// forest's last such wave, then a second run sends the result `Down`
    /// only towards it: the leader and holder learn.
    ToExtreme,
    /// The leader's own value goes `Down` over its part's tree, rooted
    /// anywhere, each slot passing it to every kept tree neighbour but the
    /// sender; the tree stays as it was. An unrooted part runs the echo
    /// from the leader, the other members contributing the identity.
    Broadcast,
    /// `Up` only, leaves first: the leader learns the result and no `Down`
    /// is sent, so one message crosses each kept tree edge.
    Convergecast,
}

/// Per node, per part, the participating ports — the subgraph
/// `G[P_i] + H_i` every part-wise protocol runs over. An edge participates
/// in part `i` iff it is in `H_i` or both endpoints lie in `P_i`
/// (Definition 2.1); this rule is read by every run of the one part-wise
/// protocol, cold or warm, and by the [`AggForest`] laid out over it, so it
/// lives in exactly one place.
///
/// Four flat arrays in the graph core's `first_out` idiom:
/// `first_slot[v]..first_slot[v + 1]` are node `v`'s *slots*, one per part
/// it participates in (as member or relay), ascending by `slot_part`;
/// `first_port[s]..first_port[s + 1]` are slot `s`'s participating `ports`,
/// ascending. A member always owns a slot for its own part, with no ports
/// if none of its edges participate. Programs borrow their node's view
/// for a run (`NodeSlots`) and index their state by local slot.
///
/// With `T = Σ_i (|P_i| + deg(P_i) + 2·|H_i|)` entries, [`build`](Self::build)
/// is one `O(n + T)` counting sort on the node plus a sort of each node's
/// short run (a node sits in few parts), and [`refreshed`](Self::refreshed)
/// one `O(n + T)` merge plus the same sort of the touched parts' entries;
/// both lay the sorted entries out through one routine. The
/// session ops cache one instance — with the [`AggForest`] over it — as a
/// derived artifact ([`ShortcutSession::op_artifact_patched`]): reused
/// while partition and shortcut are unchanged, `refreshed` under tracked
/// `reassign_parts` churn, rebuilt on a wholesale partition change. The
/// explicit-artifact `run_on` paths build a fresh one per call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParticipationMap {
    first_slot: Vec<u32>,
    slot_part: Vec<u32>,
    first_port: Vec<u32>,
    ports: Vec<u32>,
}

impl ParticipationMap {
    /// Derives the map from a graph, partition, and shortcut.
    ///
    /// # Panics
    ///
    /// Panics if the shortcut's shape differs from the partition's.
    pub fn build(g: &Graph, partition: &Partition, shortcut: &Shortcut) -> Self {
        let entries = Self::entries_of(g, partition, shortcut, partition.part_ids());
        Self::from_sorted(g.num_nodes(), Self::sizes(&entries), entries.into_iter())
    }

    /// An incrementally refreshed copy, across `transition` to `partition`
    /// and its `shortcut`: the slots of the touched parts are re-derived,
    /// every other part's slots are renamed to its new id and kept, in one
    /// linear merge — the renaming keeps the order of the untouched parts,
    /// so the kept slots stay sorted. Equals [`ParticipationMap::build`] on
    /// the same inputs when the untouched parts' `H_i` did not change.
    ///
    /// # Panics
    ///
    /// Panics if the shortcut's shape differs from the partition's, or
    /// the renaming does not name a part for every part of the table.
    pub fn refreshed(
        &self,
        g: &Graph,
        partition: &Partition,
        shortcut: &Shortcut,
        transition: &Transition,
    ) -> Self {
        let (into, touched) = (transition.renaming(), transition.touched());
        let mut is_touched = vec![false; partition.num_parts()];
        for &p in touched {
            is_touched[p.index()] = true;
        }
        let fresh = Self::entries_of(g, partition, shortcut, touched.iter().copied());
        // The kept parts' slots and ports, and the touched parts' fresh ones:
        // no `(node, part)` is in both.
        let (mut slots, mut ports) = Self::sizes(&fresh);
        for (s, &part) in self.slot_part.iter().enumerate() {
            if !is_touched[into[part as usize].index()] {
                (slots, ports) = (slots + 1, ports + self.entry_range(s).len());
            }
        }
        let mut kept = self
            .entries()
            .map(|(v, part, port)| (v, into[part as usize].0, port))
            .filter(|&(_, part, _)| !is_touched[part as usize])
            .peekable();
        let mut fresh = fresh.into_iter().peekable();
        let merged = std::iter::from_fn(|| match (kept.peek(), fresh.peek()) {
            (Some(a), Some(b)) if a < b => kept.next(),
            (Some(_), None) => kept.next(),
            _ => fresh.next(),
        });
        Self::from_sorted(g.num_nodes(), (slots, ports), merged)
    }

    /// The sorted, deduplicated `(node, part, port)` entries of `parts`:
    /// both directions of every `H_i` edge and of every edge inside `P_i`,
    /// plus one `NO_PORT` entry per member so that it owns a slot.
    fn entries_of(
        g: &Graph,
        partition: &Partition,
        shortcut: &Shortcut,
        parts: impl Iterator<Item = PartId>,
    ) -> Vec<(u32, u32, u32)> {
        assert_eq!(
            shortcut.num_parts(),
            partition.num_parts(),
            "shortcut and partition shapes differ"
        );
        // Bucket the entries by node in one pass, each node's run sized by a
        // bound read off the degrees: one entry per `H_i` edge end, and a
        // member's own entry plus one per port. Then sort each run, and drop
        // duplicates and the gaps the bound left.
        let (n, parts) = (g.num_nodes(), parts.collect::<Vec<_>>());
        let mut start = vec![0; n + 1];
        for &pid in &parts {
            for &e in shortcut.edges_for(pid) {
                let (u, v) = g.endpoints(e);
                start[u.index() + 1] += 1;
                start[v.index() + 1] += 1;
            }
            for &u in partition.part(pid) {
                start[u.index() + 1] += 1 + g.degree(u);
            }
        }
        for v in 1..=n {
            start[v] += start[v - 1];
        }
        let (mut end, mut sorted) = (start.clone(), vec![(0, 0, 0); start[n]]);
        let mut put = |entry: (u32, u32, u32)| {
            sorted[end[entry.0 as usize]] = entry;
            end[entry.0 as usize] += 1;
        };
        for &pid in &parts {
            for &e in shortcut.edges_for(pid) {
                let (u, v) = g.endpoints(e);
                for (a, b) in [(u, v), (v, u)] {
                    let port = g.port_to(a, b).expect("edge endpoints adjacent");
                    put((a.0, pid.0, port as u32));
                }
            }
            for &u in partition.part(pid) {
                put((u.0, pid.0, NO_PORT));
                for (port, &w) in g.heads(u).iter().enumerate() {
                    if partition.part_of(w) == Some(pid) {
                        put((u.0, pid.0, port as u32));
                    }
                }
            }
        }
        let mut len = 0;
        for v in 0..n {
            sorted[start[v]..end[v]].sort_unstable();
            for i in start[v]..end[v] {
                if len == 0 || sorted[len - 1] != sorted[i] {
                    (sorted[len], len) = (sorted[i], len + 1);
                }
            }
        }
        sorted.truncate(len);
        sorted
    }

    /// The table's entries in sorted order, every slot closed by a
    /// `NO_PORT` entry (the inverse of [`from_sorted`](Self::from_sorted)).
    fn entries(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        (0..self.first_slot.len() as u32 - 1).flat_map(move |v| {
            let slots = self.node(NodeId(v));
            (0..slots.parts().len()).flat_map(move |s| {
                let ports = slots.ports(s).iter().chain([&NO_PORT]);
                ports.map(move |&port| (v, slots.parts()[s], port))
            })
        })
    }

    /// The slots (distinct `(node, part)` pairs) and ports of sorted
    /// entries.
    fn sizes(entries: &[(u32, u32, u32)]) -> (usize, usize) {
        let slots = entries.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)).count();
        (slots, entries.iter().filter(|e| e.2 != NO_PORT).count())
    }

    /// Lays sorted `(node, part, port)` entries out as the flat table: a
    /// new slot per distinct `(node, part)`, `NO_PORT` entries opening a
    /// slot without adding a port. Every array is allocated at its exact
    /// size, `slots` and `ports` (see [`sizes`](Self::sizes)).
    fn from_sorted(
        n: usize,
        (slots, ports): (usize, usize),
        entries: impl Iterator<Item = (u32, u32, u32)>,
    ) -> Self {
        let mut map = ParticipationMap {
            first_slot: vec![0; n + 1],
            slot_part: Vec::with_capacity(slots),
            first_port: Vec::with_capacity(slots + 1),
            ports: Vec::with_capacity(ports),
        };
        let mut open = None;
        for (node, part, port) in entries {
            if open != Some((node, part)) {
                open = Some((node, part));
                map.first_slot[node as usize + 1] += 1;
                map.slot_part.push(part);
                map.first_port.push(map.ports.len() as u32);
            }
            if port != NO_PORT {
                map.ports.push(port);
            }
        }
        map.first_port.push(map.ports.len() as u32);
        debug_assert_eq!((map.slot_part.len(), map.ports.len()), (slots, ports));
        for v in 0..n {
            map.first_slot[v + 1] += map.first_slot[v];
        }
        map
    }

    /// The most parts any node takes part in: no edge carries more.
    pub fn load(&self) -> usize {
        let slots = self.first_slot.windows(2).map(|w| w[1] - w[0]);
        slots.max().unwrap_or(0) as usize
    }

    /// Node `v`'s slots in the table-wide slot numbering.
    fn slot_range(&self, v: NodeId) -> Range<usize> {
        self.first_slot[v.index()] as usize..self.first_slot[v.index() + 1] as usize
    }

    /// Node `v`'s slot of `part` in the table-wide numbering, if it has one.
    fn slot_of(&self, v: NodeId, part: u32) -> Option<usize> {
        let local = self.node(v).parts().binary_search(&part).ok()?;
        Some(self.slot_range(v).start + local)
    }

    /// Where slot `s`'s entry for `port` sits in the port array, if any.
    fn pair(&self, s: usize, port: u32) -> Option<usize> {
        let range = self.entry_range(s);
        Some(range.start + self.ports[range].binary_search(&port).ok()?)
    }

    /// Where table-wide slot `s`'s ports sit in the port array.
    fn entry_range(&self, s: usize) -> Range<usize> {
        self.first_port[s] as usize..self.first_port[s + 1] as usize
    }

    /// Node `v`'s view of the table.
    pub(crate) fn node(&self, v: NodeId) -> NodeSlots<'_> {
        let Range { start: lo, end: hi } = self.slot_range(v);
        let (lo, hi) = (lo as u32, hi as u32);
        NodeSlots { map: self, lo, hi }
    }
}

/// One node's view of a [`ParticipationMap`], borrowed by the node's
/// program for the run: its slots `lo..hi` of the table, numbered locally
/// `0..hi - lo`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NodeSlots<'a> {
    map: &'a ParticipationMap,
    lo: u32,
    hi: u32,
}

impl<'a> NodeSlots<'a> {
    /// Part id per slot, ascending.
    pub(crate) fn parts(&self) -> &'a [u32] {
        &self.map.slot_part[self.lo as usize..self.hi as usize]
    }

    /// The slot of a part this node participates in (any part a message
    /// arrives for, and a member's own part).
    pub(crate) fn slot_of(&self, part: u32) -> usize {
        let slot = self.parts().binary_search(&part);
        slot.expect("part-wise messages travel participating edges only")
    }

    /// The participating ports of `slot`, ascending.
    pub(crate) fn ports(&self, slot: usize) -> &'a [u32] {
        &self.map.ports[self.entry_range(slot)]
    }

    /// Where `slot`'s ports sit in a node-local array with one entry per
    /// `(slot, port)` pair.
    pub(crate) fn port_range(&self, slot: usize) -> Range<usize> {
        let (base, Range { start, end }) = (self.entries().start, self.entry_range(slot));
        start - base..end - base
    }

    /// Where `slot`'s ports sit in the table-wide port array (and in
    /// [`AggForest::child`], which is parallel to it).
    fn entry_range(&self, slot: usize) -> Range<usize> {
        self.map.entry_range(self.lo as usize + slot)
    }

    /// This node's `(slot, port)` pairs in the table-wide port array.
    pub(crate) fn entries(&self) -> Range<usize> {
        let first_port = &self.map.first_port;
        first_port[self.lo as usize] as usize..first_port[self.hi as usize] as usize
    }
}

/// "No root": the forest's marker for a part without a cached tree.
const NO_ROOT: u32 = u32::MAX;

/// The aggregation forest — "root once, aggregate many". The echo protocol
/// of an [`AggregateOp`] spends its offer / adopt wave finding one spanning
/// tree per `G[P_i] + H_i`; its convergecast then prunes every slot with no
/// member of the part below it (such a slot reports `Empty`, not a value).
/// A cold run sends `ports + 2·(slots − parts) − pruned` messages, the wave
/// `ports` of them. The forest keeps the pruned trees — each spans its
/// part's members — between runs, so the next aggregation over the same
/// tables starts at the convergecast and sends only `Up`/`Down` between
/// the kept slots: `2·(slots − parts − pruned)` messages (fewer in the
/// other [`Wave`]s).
///
/// Laid out flat and parallel to a [`ParticipationMap`]: per slot the port
/// towards the parent, per `(slot, port)` entry whether that neighbor is a
/// child, per part the leader the tree is rooted at. Nodes keep
/// `O(participation)` words between aggregations — harvesting the final
/// program states costs no simulated round. A part is *rooted* once a run
/// finished it on every participating node (each holds the result, was
/// pruned, or in a [`Wave::ToExtreme`] run reported); an unfinished,
/// truncated or re-led part is unrooted and the
/// next run re-roots it with the full echo.
///
/// When the partition moves, [`carried_over`](Self::carried_over) lays the
/// trees across its [`Transition`] onto the next table, memory included.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggForest {
    /// Per part, the leader its tree is rooted at; `NO_ROOT` if none is.
    root: Vec<u32>,
    /// Per slot, the port towards the parent; `NO_PORT` at a root, at a
    /// pruned slot of a rooted part, and throughout unrooted parts.
    parent: Vec<u32>,
    /// Per `(slot, port)` entry, whether the neighbor is a kept child of
    /// this slot; `false` throughout unrooted parts.
    child: Vec<bool>,
    /// Per `(slot, port)` entry, what the last [`Wave::ToExtreme`]s heard
    /// from that child, or at the parent's entry what the slot sent up
    /// ([`UNHEARD`]: unknown; moot while unrooted); empty until the first.
    heard: Vec<u64>,
}

/// What a forest's memory holds where it knows nothing. A real value equal
/// to it reads the same, which costs `Up`s, never a wrong result.
const UNHEARD: u64 = u64::MAX - 1;

impl AggForest {
    /// The forest of a cold start: every part of `partition` unrooted, shaped
    /// like `participation`.
    pub fn unrooted(partition: &Partition, participation: &ParticipationMap) -> Self {
        AggForest {
            root: vec![NO_ROOT; partition.num_parts()],
            parent: vec![NO_PORT; participation.slot_part.len()],
            child: vec![false; participation.ports.len()],
            heard: Vec::new(),
        }
    }

    /// The forest of a one-part table whose part is the set of nodes `tree`
    /// spans: rooted at `tree.root()`, each other slot hung from its tree
    /// parent. Panics if `map` lacks a node or an edge of `tree` in part 0.
    pub fn of_tree(g: &Graph, map: &ParticipationMap, tree: &RootedTree) -> Self {
        let mut forest = AggForest {
            root: vec![tree.root().0],
            parent: vec![NO_PORT; map.slot_part.len()],
            child: vec![false; map.ports.len()],
            heard: Vec::new(),
        };
        let port = |a, b| g.port_to(a, b).expect("tree edges are graph edges") as u32;
        for &v in &tree.order()[1..] {
            let (p, _) = tree.parent(v).expect("the root is first in tree order");
            let s = map.slot_of(v, 0).expect("the part spans the tree");
            forest.parent[s] = port(v, p);
            (forest.set_child(map, (p, 0), port(p, v), true)).expect("tree edges participate");
        }
        forest
    }

    /// Gives the forest its memory, knowing nothing yet.
    fn remember(&mut self) {
        self.heard = vec![UNHEARD; self.child.len()];
    }

    /// This forest's trees, remembering nothing: its next
    /// [`Wave::ToExtreme`] sends every `Up`, as its first did.
    pub fn trees(&self) -> Self {
        let (root, parent, child) = (self.root.clone(), self.parent.clone(), self.child.clone());
        let heard = Vec::new();
        AggForest {
            root,
            parent,
            child,
            heard,
        }
    }

    /// The forest over `new` (a table of `partition`), carried from this
    /// forest over `old` across `transition`, and the detaches it sends.
    /// Each join `(part, inside, far)` first re-roots its part's tree at
    /// `inside` in the old layout, with `far` as its parent, flipping the
    /// parent pointers on the path up to the old root (in Boruvka `inside`
    /// led its tail's notify [`Wave::Broadcast`], so each slot on that path
    /// heard it from a child). Then each kept slot (a root, or a slot with
    /// a parent) of a rooted old part copies its parent and child ports
    /// into the slot of its new part ([`Transition::renaming`]) at the same
    /// node, and `far` gains `inside` as a child. Where kept slots of
    /// several constituents meet, the slot takes all their children and
    /// the parent of the highest-ranked one: the constituent that joins
    /// nothing, then the others by ascending old part id (Boruvka's
    /// fragment ids, known from the notify wave). Each other parent port
    /// gets a detach, one message naming the part, that clears its child
    /// flag. Rank never decreases along parent pointers, and each
    /// constituent's walk ends at its root or at the join into the one
    /// that joins nothing, so the result is a tree. The memory
    /// ([`Wave::ToExtreme`]) of a link that keeps its direction comes along;
    /// a link made, flipped or detached starts unknown at both ends, and a
    /// slot where constituents meet forgets what it sent up.
    ///
    /// Two repairs, read off this forest and `partition` alone, follow
    /// membership changes:
    /// - **(a) Departures.** A kept slot with no kept child at a node that
    ///   is no longer a member of its part is not copied, nor is its
    ///   parent's child flag over it: a harvested tree keeps no memberless
    ///   leaf, so it is a member that left. (Its parent may be a relay left
    ///   with no member below it; the next run prunes it with one `Empty`.)
    ///   A node that left with kept children below it stays on as a relay
    ///   under the copy rule. A part whose root left is unrooted.
    /// - **(b) Arrivals.** After the joins, each member without a kept slot
    ///   (in ascending order per part) is hung from a neighbour in its part
    ///   whose slot is kept, over their edge inside the part; with no such
    ///   neighbour its part is unrooted.
    ///
    /// Boruvka triggers neither: fragments only grow, and a rooted
    /// constituent's members all have kept slots.
    ///
    /// A new part comes out rooted only if every constituent was rooted,
    /// exactly one joins nothing (the new tree keeps that one's root, which
    /// must still be a member), every copied port still participates in
    /// `new`, every arrival found a kept neighbour, and the kept slots form
    /// one tree at most `max_height` high; every other part is unrooted and
    /// sends no detach.
    ///
    /// # Panics
    ///
    /// Panics if the renaming does not have one entry per old part or
    /// the forest is not laid out over `old`.
    pub fn carried_over(
        &self,
        g: &Graph,
        old: &ParticipationMap,
        partition: &Partition,
        new: &ParticipationMap,
        transition: &Transition,
        max_height: usize,
    ) -> (Self, usize) {
        let (into, joins) = (transition.renaming(), transition.joins());
        assert_eq!(into.len(), self.root.len(), "one entry per old part");
        assert_eq!(
            self.parent.len(),
            old.slot_part.len(),
            "forest is laid out over `old`"
        );
        let mut joined = vec![false; into.len()];
        // The re-rooted copy reads its memory from `self`.
        let mut rerooted = None;
        for &(q, inside, far) in joins {
            joined[q.index()] = true;
            let src = rerooted.get_or_insert_with(|| self.trees());
            if src.reroot(g, old, q.0, inside, far).is_none() {
                src.root[q.index()] = NO_ROOT;
            }
        }
        let src = rerooted.as_ref().unwrap_or(self);
        let mut out = AggForest::unrooted(partition, new);
        if !self.heard.is_empty() {
            out.remember();
        }
        let mut fits = vec![true; out.root.len()];
        for (q, (&p, &root)) in into.iter().zip(&src.root).enumerate() {
            let root_left = || partition.part_of(NodeId(root)) != Some(p);
            if root == NO_ROOT || (!joined[q] && (out.root[p.index()] != NO_ROOT || root_left())) {
                fits[p.index()] = false;
            } else if !joined[q] {
                out.root[p.index()] = root;
            }
        }
        // Rule (a): a kept leaf at a node outside its new part left it.
        let departs = |v: NodeId, q: u32| {
            partition.part_of(v) != Some(into[q as usize])
                && (old.slot_of(v, q))
                    .is_some_and(|s| !src.child[old.entry_range(s)].contains(&true))
        };

        // Per new slot, the rank of the constituent whose parent it keeps
        // (lower is higher), and `(node, slot, port)` per dropped parent.
        let mut kept_by = vec![None; new.slot_part.len()];
        let mut dropped = Vec::new();
        for v in (0..old.first_slot.len() as u32 - 1).map(NodeId) {
            let (old_slots, new_slots) = (old.node(v), new.node(v));
            let (old_base, new_base) = (old.slot_range(v).start, new.slot_range(v).start);
            for (o, &q) in old_slots.parts().iter().enumerate() {
                let p = into[q as usize];
                let parent = src.parent[old_base + o];
                let kept = parent != NO_PORT || src.root[q as usize] == v.0;
                if !fits[p.index()] || !kept || departs(v, q) {
                    continue;
                }
                let copied = new_slots.parts().binary_search(&p.0).ok().and_then(|s| {
                    let ports = new_slots.ports(s);
                    if parent != NO_PORT {
                        ports.binary_search(&parent).ok()?;
                    }
                    let (at, rank) = (new_base + s, (joined[q as usize], q));
                    let drops = match kept_by[at] {
                        Some(by) if by < rank => parent,
                        _ => {
                            kept_by[at] = Some(rank);
                            std::mem::replace(&mut out.parent[at], parent)
                        }
                    };
                    if drops != NO_PORT {
                        dropped.push((v, at, drops));
                    }
                    // The memory of a link that kept its direction: a child's
                    // last report, and what the slot sent at its parent's entry.
                    let up = self.parent[old_base + o];
                    let old_entries = old_slots.entry_range(o);
                    for (e, &port) in old_entries.zip(old_slots.ports(o)) {
                        let child = src.child[e] && !departs(g.heads(v)[port as usize], q);
                        let known = (child && self.child[e]) || (port == parent && port == up);
                        if child || known {
                            let at =
                                new_slots.entry_range(s).start + ports.binary_search(&port).ok()?;
                            out.child[at] |= child;
                            if let Some(heard) = out.heard.get_mut(at).filter(|_| known) {
                                *heard = self.heard[e];
                            }
                        }
                    }
                    Some(())
                });
                fits[p.index()] &= copied.is_some();
            }
        }

        for &(q, inside, far) in joins {
            let p = into[q.index()];
            let port = g.port_to(far, inside).expect("a join crosses an edge") as u32;
            fits[p.index()] &= out.set_child(new, (far, p.0), port, true).is_some();
        }
        dropped.sort_unstable();
        dropped.dedup();
        for &(_, s, port) in &dropped {
            // Constituents met: what any of them sent up is moot.
            out.forget_at(new, s, port);
            out.forget_at(new, s, out.parent[s]);
        }
        dropped.retain(|&(_, s, port)| port != out.parent[s]);
        for &(v, s, port) in &dropped {
            let (p, w) = (new.slot_part[s], g.heads(v)[port as usize]);
            let back = g.port_to(w, v).expect("adjacent") as u32;
            fits[p as usize] &= out.set_child(new, (w, p), back, false).is_some();
        }
        // Rule (b): a member without a kept slot arrived.
        for (p, members) in partition.iter() {
            let root = out.root[p.index()];
            for &v in members {
                if !fits[p.index()] || root == NO_ROOT {
                    break;
                }
                let kept = |v: NodeId, s: usize| out.parent[s] != NO_PORT || root == v.0;
                let s = new.slot_of(v, p.0).expect("a member owns a slot");
                if kept(v, s) {
                    continue;
                }
                let ports = new.node(v).ports(s - new.slot_range(v).start);
                let hook = ports.iter().find_map(|&port| {
                    let w = g.heads(v)[port as usize];
                    let t = new.slot_of(w, p.0)?;
                    (partition.part_of(w) == Some(p) && kept(w, t)).then_some((port, w))
                });
                let Some((port, w)) = hook else {
                    fits[p.index()] = false;
                    break;
                };
                out.parent[s] = port;
                out.forget_at(new, s, port);
                let back = g.port_to(w, v).expect("adjacent") as u32;
                (out.set_child(new, (w, p.0), back, true))
                    .expect("an edge inside a part participates");
            }
        }
        for (root, fits) in out.root.iter_mut().zip(fits) {
            if !fits {
                *root = NO_ROOT;
            }
        }
        let heights = out.heights(g, new);
        for (root, height) in out.root.iter_mut().zip(heights) {
            if height.is_none_or(|h| h > max_height) {
                *root = NO_ROOT;
            }
        }
        for (s, &part) in new.slot_part.iter().enumerate() {
            if out.root[part as usize] == NO_ROOT {
                out.parent[s] = NO_PORT;
                out.child[new.entry_range(s)].fill(false);
            }
        }
        let rooted = |s: usize| out.root[new.slot_part[s] as usize] != NO_ROOT;
        let detaches = dropped.iter().filter(|&&(_, s, _)| rooted(s)).count();
        (out, detaches)
    }

    /// Re-roots `part`'s tree at `inside`, with `far` (outside the part)
    /// as its parent: the parent pointers on the path from `inside` up to
    /// the old root flip. `None` if a slot or port on the way is missing
    /// from `map`.
    fn reroot(
        &mut self,
        g: &Graph,
        map: &ParticipationMap,
        part: u32,
        inside: NodeId,
        far: NodeId,
    ) -> Option<()> {
        let mut v = inside;
        let mut parent = g.port_to(inside, far)? as u32;
        loop {
            let s = map.slot_of(v, part)?;
            let up = std::mem::replace(&mut self.parent[s], parent);
            if v != inside {
                self.set_child(map, (v, part), parent, false)?; // the old child is the new parent
            }
            if up == NO_PORT {
                return Some(()); // the old root
            }
            self.set_child(map, (v, part), up, true)?;
            let next = g.heads(v)[up as usize];
            parent = g.port_to(next, v)? as u32;
            v = next;
        }
    }

    /// Sets whether the neighbour over `port` is a child of `v`'s slot of
    /// `part`; `None` if `map` has no such slot or port.
    fn set_child(
        &mut self,
        map: &ParticipationMap,
        (v, part): (NodeId, u32),
        port: u32,
        child: bool,
    ) -> Option<()> {
        let at = map.pair(map.slot_of(v, part)?, port)?;
        self.child[at] = child;
        forget(&mut self.heard, at..at + 1);
        Some(())
    }

    /// Forgets what slot `s` of `map` remembers at its entry for `port`.
    fn forget_at(&mut self, map: &ParticipationMap, s: usize, port: u32) {
        if let Some(at) = map.pair(s, port) {
            forget(&mut self.heard, at..at + 1);
        }
    }

    /// The most edges from a root down to a kept slot that a run over `map`
    /// can leave, if every rooted part's tree is at most `cap` high: an
    /// unrooted part's echo spans at most its slots.
    pub fn height_bound(&self, map: &ParticipationMap, cap: usize) -> usize {
        let mut slots = vec![0; self.root.len()];
        (map.slot_part.iter()).for_each(|&part| slots[part as usize] += 1);
        let echoed = (slots.iter().zip(&self.root)).filter(|(_, &root)| root == NO_ROOT);
        echoed.map(|(&s, _)| s - 1).fold(cap, usize::max)
    }

    /// Per part, the edges of its tree over `map`: its kept non-root slots.
    pub fn tree_edges(&self, map: &ParticipationMap) -> Vec<usize> {
        let mut edges = vec![0; self.root.len()];
        for (&parent, &part) in self.parent.iter().zip(&map.slot_part) {
            edges[part as usize] += usize::from(parent != NO_PORT);
        }
        edges
    }

    /// The kept non-root slots over `map`: node, part and parent port each.
    pub fn links(&self, map: &ParticipationMap) -> Vec<(NodeId, PartId, u32)> {
        let slot = |v: NodeId, s: usize| (v, PartId(map.slot_part[s]), self.parent[s]);
        let nodes = (0..map.first_slot.len() - 1).map(|v| NodeId(v as u32));
        let slots = nodes.flat_map(|v| map.slot_range(v).map(move |s| slot(v, s)));
        slots.filter(|&(.., port)| port != NO_PORT).collect()
    }

    /// Per part, the height of its tree over `map` — the most edges from
    /// its root down to a kept slot — or `None` if the part is unrooted or
    /// its kept slots do not form one tree under its root (a child whose
    /// parent port leads elsewhere, a slot reached twice, a kept slot not
    /// reached).
    pub fn heights(&self, g: &Graph, map: &ParticipationMap) -> Vec<Option<usize>> {
        let edges = self.tree_edges(map);
        let mut seen = vec![false; map.slot_part.len()];
        let mut stack = Vec::new();
        let mut height_of = |part: u32, root: NodeId| {
            let r = map
                .slot_of(root, part)
                .filter(|&r| self.parent[r] == NO_PORT)?;
            stack.clear();
            stack.push((root, r, 0));
            let (mut reached, mut height) = (0, 0);
            while let Some((v, s, depth)) = stack.pop() {
                if std::mem::replace(&mut seen[s], true) {
                    return None;
                }
                (reached, height) = (reached + 1, height.max(depth));
                let (slots, local) = (map.node(v), s - map.slot_range(v).start);
                let children = slots
                    .ports(local)
                    .iter()
                    .zip(&self.child[slots.entry_range(local)]);
                for (&port, _) in children.filter(|(_, &c)| c) {
                    let w = g.heads(v)[port as usize];
                    let t = map.slot_of(w, part)?;
                    let back = self.parent[t];
                    if back == NO_PORT || g.heads(w)[back as usize] != v {
                        return None;
                    }
                    stack.push((w, t, depth + 1));
                }
            }
            (reached == edges[part as usize] + 1).then_some(height)
        };
        (self.root.iter().enumerate())
            .map(|(p, &root)| match root {
                NO_ROOT => None,
                root => height_of(p as u32, NodeId(root)),
            })
            .collect()
    }

    /// Records the trees a run left behind, reading the run's slot states
    /// (`states`, one per slot of `map`): a part that ran is rooted at its
    /// leader iff the run was not truncated and every slot of the part —
    /// relays included — holds the result or reported `Empty`, else
    /// unrooted; a part that sat out keeps its tree. A slot that reported
    /// `Empty` is kept pruned: its parent dropped it, and it has no parent.
    /// The run kept the child flags in `self.child` itself; only an
    /// unfinished part's are cleared here.
    fn harvest(
        &mut self,
        map: &ParticipationMap,
        states: &[SlotState],
        wave: Wave,
        leaders: &[NodeId],
        runs: impl Fn(u32) -> bool,
        truncated: bool,
    ) {
        let mut finished = vec![!truncated; leaders.len()];
        for (&part, st) in map.slot_part.iter().zip(states) {
            finished[part as usize] &= st.done(wave);
        }
        for (s, (&part, st)) in map.slot_part.iter().zip(states).enumerate() {
            if !runs(part) {
                continue;
            } else if finished[part as usize] {
                self.parent[s] = if st.pruned() { NO_PORT } else { st.parent };
            } else {
                self.parent[s] = NO_PORT;
                self.child[map.entry_range(s)].fill(false);
            }
        }
        for (p, &leader) in leaders.iter().enumerate().filter(|&(p, _)| runs(p as u32)) {
            self.root[p] = if finished[p] { leader.0 } else { NO_ROOT };
        }
    }
}

/// What a session caches for the part-wise ops, in one op-artifact slot:
/// the participation tables and the aggregation forest over them, which
/// aggregate and gossip share. Built on first use, refreshed for the
/// touched parts only under `reassign_parts` churn — one patch across the
/// [`Transition`] of however many ticks it spans, in which every part keeps
/// its id, so untouched parts keep their trees and touched ones are repaired (see
/// [`AggForest::carried_over`]) — and dropped with the shortcut
/// ([`ShortcutSession::op_artifact_patched`]).
pub(crate) struct SessionTables {
    pub(crate) participation: Arc<ParticipationMap>,
    /// `None` before the first aggregate, while one holds the forest, and
    /// after one that panicked: the next run starts from an unrooted
    /// forest.
    pub(crate) forest: Option<AggForest>,
}

impl SessionTables {
    pub(crate) fn of_session(session: &mut ShortcutSession<'_>) -> Arc<Self> {
        session.op_artifact_patched(
            |s| {
                let (partition, shortcut) = (s.partition(), s.shortcut_ref());
                let participation = ParticipationMap::build(s.graph(), partition, shortcut);
                SessionTables {
                    participation: Arc::new(participation),
                    forest: None,
                }
            },
            |s, old: &Self, transition| {
                let (g, partition, shortcut) = (s.graph(), s.partition(), s.shortcut_ref());
                let old_map = &old.participation;
                let participation = old_map.refreshed(g, partition, shortcut, transition);
                let forest = old.forest.as_ref().map(|forest| {
                    let (carried, _) = forest.carried_over(
                        g,
                        old_map,
                        partition,
                        &participation,
                        transition,
                        usize::MAX,
                    );
                    carried
                });
                SessionTables {
                    forest,
                    participation: Arc::new(participation),
                }
            },
        )
    }
}

#[derive(Clone, Copy, Debug)]
enum PaMsg {
    /// BFS-offer wave for a part. At a slot that already started it is
    /// the reply to the slot's own `Offer` over the same edge, which it
    /// crossed: both ends offered, so neither adopts the other.
    Offer(u32),
    /// "You are my parent for this part."
    Adopt(u32),
    /// Convergecast: aggregate of the sender's subtree, which holds a
    /// member of the part.
    Up(u32, u64),
    /// Convergecast from a subtree without a member: the parent drops the
    /// sender as a child, so the sender is pruned — it gets no `Down`, and
    /// a warm run sends it nothing.
    Empty(u32),
    /// Result broadcast.
    Down(u32, u64),
}

impl MessageSize for PaMsg {
    /// Part ids are id payloads (`O(log n)` bits); aggregate values keep
    /// their full 64-bit width.
    fn size_bits_in(&self, n: usize) -> usize {
        match self {
            PaMsg::Offer(_) | PaMsg::Adopt(_) | PaMsg::Empty(_) => 3 + id_bits(n),
            PaMsg::Up(..) | PaMsg::Down(..) => 3 + id_bits(n) + 64,
        }
    }
}

/// Per-(node, part) protocol state, one per slot: three words. A part's
/// scheduling priority is not kept here but read from the run's per-part
/// delays ([`PaRun::delays`]).
#[derive(Clone, Copy, Debug, Default)]
struct SlotState {
    /// The slot's aggregate so far, and the part's result once it holds
    /// it.
    acc: u64,
    /// Port towards the parent; `NO_PORT` until adopted.
    parent: u32,
    awaiting_replies: u32,
    pending_up: u32,
    /// Five bits, [`STARTED`] to [`HAS_RESULT`].
    flags: u8,
}

// `SlotState::flags`: the slot joined its part's wave (or was seeded past
// it); its node is a member of the running part; a member sits in its
// subtree (the node itself, or a child that reported `Up` — last, to the
// extreme); it reported to its parent, or owes no report; it holds the
// part's result.
const STARTED: u8 = 1;
const MEMBER: u8 = 1 << 1;
const MEMBER_BELOW: u8 = 1 << 2;
const UP_SENT: u8 = 1 << 3;
const HAS_RESULT: u8 = 1 << 4;

impl SlotState {
    fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    fn set(&mut self, flag: u8, on: bool) {
        self.flags = (self.flags & !flag) | if on { flag } else { 0 };
    }

    /// Reported `Empty` (in this run or, seeded, in the run that rooted
    /// the part): nothing of the part's result is owed here.
    fn pruned(&self) -> bool {
        self.has(UP_SENT) && !self.has(MEMBER_BELOW)
    }

    /// Holds the result, is pruned, or (to the extreme, up only) reported.
    fn done(&self, wave: Wave) -> bool {
        let reports = matches!(wave, Wave::ToExtreme | Wave::Convergecast);
        self.has(HAS_RESULT) || self.pruned() || (reports && self.has(UP_SENT))
    }
}

/// What every [`PaProgram`] of one simulated run shares.
struct PaRun<'a> {
    op: AggOp,
    wave: Wave,
    /// Whether this run sends a [`Wave::ToExtreme`]'s results down.
    downs: bool,
    map: &'a ParticipationMap,
    /// Per part, its leader's start delay, reused as every slot's queue
    /// priority so late-starting parts also yield edge access; all 0
    /// without delays.
    delays: &'a [u32],
}

/// One node's part of the echo, over its sub-slices of the run-wide arenas
/// laid out like the [`ParticipationMap`]: the run's slot states and the
/// forest's own child flags and memory, which the run updates in place.
struct PaProgram<'a> {
    run: &'a PaRun<'a>,
    /// The node's slots `lo..hi` of the table ([`Self::slots`]).
    lo: u32,
    hi: u32,
    /// Indexed by slot.
    states: &'a mut [SlotState],
    /// "Adopted me" per `(slot, port)` pair, cleared again by an `Empty`,
    /// laid out like the node's ports (see [`NodeSlots::port_range`]): a
    /// slot's children in port order.
    is_child: &'a mut [bool],
    /// Laid out like `is_child`: to the extreme, each child's last report
    /// and at the parent's entry the slot's ([`AggForest::heard`]).
    heard: &'a mut [u64],
    /// The slot of the part this node leads; `NO_SLOT` if it leads none.
    leads: u32,
    /// The remaining start delay of the led part until it starts;
    /// `NO_START` once it has, or if there is none to start.
    start_in: u32,
}

/// "No slot": a [`PaProgram`] that leads no part.
const NO_SLOT: u32 = u32::MAX;

/// "No start": a [`PaProgram`] with no led part left to start (delays are
/// below `u32::MAX`).
const NO_START: u32 = u32::MAX;

/// Makes a forest's (or program's) memory `cells` unknown, if it has any.
fn forget(cells: &mut [u64], range: Range<usize>) {
    if let Some(cells) = cells.get_mut(range) {
        cells.fill(UNHEARD);
    }
}

/// Splits the first `at` cells (all, if fewer) off `cells`.
fn split_off<'a, T>(cells: &mut &'a mut [T], at: usize) -> &'a mut [T] {
    let all = std::mem::take(cells);
    let (head, rest) = all.split_at_mut(at.min(all.len()));
    *cells = rest;
    head
}

impl<'a> PaProgram<'a> {
    /// The node's view of the run's table.
    fn slots(&self) -> NodeSlots<'a> {
        let (map, lo, hi) = (self.run.map, self.lo, self.hi);
        NodeSlots { map, lo, hi }
    }

    /// The queue priority of `slot`'s sends: its part's start delay.
    fn priority(&self, slot: usize) -> u64 {
        u64::from(self.run.delays[self.slots().parts()[slot] as usize])
    }

    /// Counts down the led part's start delay; starts it at zero.
    fn tick_leader_start(&mut self, ctx: &mut Ctx<'_, PaMsg>, elapsed: u32) {
        match self.start_in {
            NO_START => {}
            delay if delay == elapsed => {
                self.start_in = NO_START;
                self.start_part(ctx, self.leads as usize, NO_PORT);
            }
            delay => {
                self.start_in = delay - elapsed;
                ctx.wake_next_round();
            }
        }
    }

    /// Joins the part's wave at `slot`: adopts over `parent` (`NO_PORT`
    /// when the leader starts its own part) and offers to every other port.
    fn start_part(&mut self, ctx: &mut Ctx<'_, PaMsg>, slot: usize, parent: u32) {
        let (part, ports) = (self.slots().parts()[slot], self.slots().ports(slot));
        let prio = self.priority(slot);
        let st = &mut self.states[slot];
        st.set(STARTED, true);
        st.parent = parent;
        if parent != NO_PORT {
            ctx.send_with_priority(parent as usize, PaMsg::Adopt(part), prio);
        }
        for &p in ports.iter().filter(|&&p| p != parent) {
            ctx.send_with_priority(p as usize, PaMsg::Offer(part), prio);
            st.awaiting_replies += 1;
        }
        self.maybe_up(ctx, slot);
    }

    /// The extreme of `slot`'s value and its children's last reports, the
    /// port it came from (`NO_PORT`: the value; ties go to it, then to lower
    /// ports), and whether a child is left (it reported an `Up`).
    fn extreme(&self, slot: usize) -> (u64, u32, bool) {
        let st = &self.states[slot];
        if self.run.wave != Wave::ToExtreme {
            return (st.acc, NO_PORT, false);
        }
        let range = self.slots().port_range(slot);
        let ports = self.slots().ports(slot);
        let children = ports.iter().zip(&self.is_child[range.clone()]);
        let mut best = (st.acc, NO_PORT, false);
        for ((&port, _), &val) in children.zip(&self.heard[range]).filter(|((_, &c), _)| c) {
            if self.run.op.apply(best.0, val) != best.0 {
                (best.0, best.1) = (val, port);
            }
            best.2 = true;
        }
        best
    }

    fn maybe_up(&mut self, ctx: &mut Ctx<'_, PaMsg>, slot: usize) {
        let st = &self.states[slot];
        if !st.has(STARTED) || st.awaiting_replies > 0 || st.pending_up > 0 || st.pruned() {
            return;
        }
        let (acc, _, heard_up) = self.extreme(slot);
        let remembers = self.run.wave == Wave::ToExtreme;
        let prio = self.priority(slot);
        let st = &mut self.states[slot];
        let below = st.has(MEMBER) || heard_up || (!remembers && st.has(MEMBER_BELOW));
        st.set(MEMBER_BELOW, below);
        let reported = st.has(UP_SENT);
        st.set(UP_SENT, true);
        if slot == self.leads as usize {
            if self.run.downs || (!reported && !remembers) {
                self.deliver(ctx, slot, acc, NO_PORT);
            }
            return;
        }
        let parent = st.parent;
        let news = match remembers {
            // What the slot last sent up sits at its parent's entry.
            true => {
                let at = self.pair(slot, parent);
                std::mem::replace(&mut self.heard[at], acc) != acc || acc == UNHEARD
            }
            false => !reported,
        };
        if news {
            assert_ne!(parent, NO_PORT, "non-leader has a parent once started");
            let part = self.slots().parts()[slot];
            let up = if below {
                PaMsg::Up(part, acc)
            } else {
                PaMsg::Empty(part)
            };
            ctx.send_with_priority(parent as usize, up, prio);
        }
    }

    /// Where `slot`'s pair with `port` sits in the node's per-pair cells.
    fn pair(&self, slot: usize, port: u32) -> usize {
        let at = self.slots().ports(slot).binary_search(&port);
        self.slots().port_range(slot).start + at.expect("a slot's tree neighbours are on its ports")
    }

    /// Records the part's result and passes it on: to every kept tree
    /// neighbour but `sender`, towards the extreme, or (convergecast) none.
    fn deliver(&mut self, ctx: &mut Ctx<'_, PaMsg>, slot: usize, val: u64, sender: u32) {
        let (_, from, _) = self.extreme(slot);
        let (slots, prio) = (self.slots(), self.priority(slot));
        let st = &mut self.states[slot];
        st.acc = val;
        st.set(HAS_RESULT, true);
        let parent = st.parent;
        let down = PaMsg::Down(slots.parts()[slot], val);
        let children = &self.is_child[slots.port_range(slot)];
        let to = |&(&p, &child): &(&u32, &bool)| match self.run.wave {
            Wave::ToExtreme => p == from,
            Wave::Convergecast => false,
            _ => (child || p == parent) && p != sender,
        };
        for (&p, _) in slots.ports(slot).iter().zip(children).filter(to) {
            ctx.send_with_priority(p as usize, down, prio);
        }
    }
}

impl NodeProgram for PaProgram<'_> {
    type Msg = PaMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, PaMsg>) {
        // Slots seeded from the forest are past the wave: a leaf reports
        // at once, the others as soon as their children have, and a pruned
        // slot is already done.
        for slot in 0..self.states.len() {
            if self.states[slot].has(STARTED) {
                self.maybe_up(ctx, slot);
            }
        }
        self.tick_leader_start(ctx, 0);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, PaMsg>, inbox: &[Incoming<PaMsg>]) {
        self.tick_leader_start(ctx, 1);

        let slots = self.slots();
        let remembers = self.run.wave == Wave::ToExtreme;
        for m in inbox {
            let port = m.port as u32;
            match m.msg {
                PaMsg::Offer(part) => {
                    let slot = slots.slot_of(part);
                    let st = &mut self.states[slot];
                    if st.has(STARTED) {
                        // A started slot offered over every port but its
                        // parent's, so this offer crossed its own.
                        assert_ne!(port, st.parent, "a parent offers once");
                        st.awaiting_replies = (st.awaiting_replies.checked_sub(1))
                            .expect("an offer to a started slot crosses its own");
                        self.maybe_up(ctx, slot);
                    } else {
                        self.start_part(ctx, slot, port);
                    }
                }
                PaMsg::Adopt(part) => {
                    let slot = slots.slot_of(part);
                    self.is_child[self.pair(slot, port)] = true;
                    let st = &mut self.states[slot];
                    st.pending_up += 1;
                    st.awaiting_replies -= 1;
                    self.maybe_up(ctx, slot);
                }
                PaMsg::Up(part, val) => {
                    let slot = slots.slot_of(part);
                    self.states[slot].set(MEMBER_BELOW, true);
                    // To the extreme: wait for first `Up`s only, report once a round.
                    if remembers {
                        let at = self.pair(slot, port);
                        // A real `UNHEARD` can read as a second first report.
                        let first = std::mem::replace(&mut self.heard[at], val) == UNHEARD;
                        let st = &mut self.states[slot];
                        st.pending_up = st.pending_up.saturating_sub(u32::from(first));
                        continue;
                    }
                    let st = &mut self.states[slot];
                    st.acc = self.run.op.apply(st.acc, val);
                    st.pending_up -= 1;
                    self.maybe_up(ctx, slot);
                }
                PaMsg::Empty(part) => {
                    let slot = slots.slot_of(part);
                    let at = self.pair(slot, port);
                    self.is_child[at] = false;
                    // To the extreme, a known child's last report goes too.
                    if remembers {
                        let first = std::mem::replace(&mut self.heard[at], UNHEARD) == UNHEARD;
                        let st = &mut self.states[slot];
                        st.pending_up = st.pending_up.saturating_sub(u32::from(first));
                    } else {
                        self.states[slot].pending_up -= 1;
                        self.maybe_up(ctx, slot);
                    }
                }
                PaMsg::Down(part, val) => {
                    let slot = slots.slot_of(part);
                    if !self.states[slot].has(HAS_RESULT) {
                        self.deliver(ctx, slot, val, port);
                    }
                }
            }
        }
        for m in inbox.iter().filter(|_| remembers) {
            if let PaMsg::Up(part, _) | PaMsg::Empty(part) = m.msg {
                self.maybe_up(ctx, slots.slot_of(part));
            }
        }
    }

    fn is_done(&self) -> bool {
        self.states.iter().all(|st| st.done(self.run.wave))
    }
}

/// Part-wise aggregation: every node of part `P_i` learns the aggregate of
/// its part's values, computed by one echo protocol per part over
/// `G[P_i] + H_i`.
///
/// `session.aggregate(..)` ([`SessionPartwiseOps`](crate::SessionPartwiseOps))
/// serves it from the session's cached shortcut, tables and forest, and so
/// does `session.gossip(..)` for min / max;
/// [`run_on`](Self::run_on) runs it over explicitly supplied artifacts.
#[derive(Clone, Copy, Debug)]
pub struct AggregateOp<'a> {
    /// One value per node.
    pub values: &'a [u64],
    /// The aggregation operator.
    pub op: AggOp,
    /// Explicit per-part leaders. `None` is "any leader": a part the run's
    /// [`AggForest`] holds a tree for is led from that tree's root, and
    /// only an unrooted part from its minimum-id member — a host pick,
    /// charged nothing.
    pub leaders: Option<&'a [NodeId]>,
}

impl AggregateOp<'_> {
    /// Runs the protocol over explicit artifacts (the non-session path) —
    /// always cold: the spanning trees it finds are not kept. Leaders
    /// delay their start uniformly in `[0, delay_range)` rounds, drawn from
    /// a fixed seed — the random-delays scheduling of many parts sharing
    /// edges (Lemma 2.8); `0`, what a session passes, disables it. It pays
    /// where parts contend: at `delay_range = 2c` on the Lemma 3.2
    /// topology (`c` the shortcut congestion) the aggregate takes fewer
    /// rounds for somewhat more messages (`experiments e5`). `sim` is a
    /// session's [`SessionConfig::sim`](lcs_core::session::SessionConfig::sim),
    /// with the mode forced to [`Queued`](SimMode::Queued) because several
    /// protocol instances share edges.
    ///
    /// # Panics
    ///
    /// Panics if `self.values.len() != g.num_nodes()`, a leader is not a
    /// member of its part, or the shortcut's shape differs from the
    /// partition's.
    pub fn run_on(
        &self,
        g: &Graph,
        partition: &Partition,
        shortcut: &Shortcut,
        delay_range: u32,
        sim: SimConfig,
    ) -> PartwiseOutcome {
        let participation = ParticipationMap::build(g, partition, shortcut);
        let mut forest = AggForest::unrooted(partition, &participation);
        let shape = (Wave::Echo, None);
        self.run_masked(
            g,
            partition,
            (delay_range, sim),
            &participation,
            &mut forest,
            shape,
        )
    }

    /// Runs the protocol over a prebuilt [`ParticipationMap`] of
    /// `partition` and its shortcut and the [`AggForest`] over it — the
    /// session ops' path, and Boruvka's, which runs several aggregations
    /// over one `G[P_i] + H_i`. A part `forest` holds a tree for, rooted at
    /// this run's leader (any rooted part with `leaders: None` or in a
    /// [`Wave::Broadcast`]), starts at the convergecast; a part with
    /// `sits_out[i]` set does not run (it sends nothing and has no result);
    /// every other part runs the full echo. `all_members_informed` asks the
    /// [`Wave`]'s learners: in a [`Wave::ToExtreme`] run the members holding
    /// a non-identity result, in a [`Wave::Convergecast`] the leader, else
    /// every member. Afterwards `forest` holds the trees of the parts this
    /// run finished, that sat out or that it broadcast over, and no other;
    /// a [`Wave::ToExtreme`] run also leaves what each slot sent up and
    /// heard, which the next one diffs against.
    ///
    /// # Clock
    ///
    /// A caller that must know when a run is done caps `sim.max_rounds` at
    /// its clock, `r + c + 2h + 1` rounds for `r = delay_range`, `≤ c`
    /// parts per edge and running trees `≤ h` high, carried or echoed
    /// ([`AggForest::height_bound`]). Alone, a part starts within `r`; its
    /// offers and replies take `h + 1` and its `Up`s `h`; `Down`s or a
    /// broadcast cross the tree in `2h`; parts sharing edges queue on their
    /// priorities, `O(c + h log n)` in all (Leighton–Maggs–Rao). Boruvka's
    /// `c` is the larger of Theorem 1.1's `8δ̂D·⌈log₂(n + 1)⌉` and
    /// [`ParticipationMap::load`].
    ///
    /// # Panics
    ///
    /// Panics if `self.values.len() != g.num_nodes()`, a leader is not a
    /// member of its part, `forest` is not laid out over `participation`,
    /// or `sits_out` does not have one entry per part.
    pub fn run_masked(
        &self,
        g: &Graph,
        partition: &Partition,
        (delay_range, sim): (u32, SimConfig),
        participation: &ParticipationMap,
        forest: &mut AggForest,
        (wave, sits_out): (Wave, Option<&[bool]>),
    ) -> PartwiseOutcome {
        let (values, op) = (self.values, self.op);
        assert_eq!(values.len(), g.num_nodes(), "one value per node");
        let k = partition.num_parts();
        assert!(
            forest.root.len() == k
                && forest.parent.len() == participation.slot_part.len()
                && forest.child.len() == participation.ports.len(),
            "forest is not laid out over this participation map"
        );
        if wave == Wave::ToExtreme && forest.heard.is_empty() {
            forest.remember();
        }
        let any_leaders: Vec<NodeId> = (partition.iter().zip(&forest.root))
            .map(|((_, nodes), &root)| match root {
                NO_ROOT => *nodes.iter().min().expect("parts are non-empty"),
                root => NodeId(root),
            })
            .collect();
        let leaders = self.leaders.unwrap_or(&any_leaders);
        assert_eq!(leaders.len(), k, "one leader per part");
        for (i, &l) in leaders.iter().enumerate() {
            assert_eq!(
                partition.part_of(l),
                Some(PartId(i as u32)),
                "leader {l:?} is not a member of part {i}"
            );
        }

        assert!(sits_out.is_none_or(|o| o.len() == k), "a mask per part");
        let runs = |part: u32| !sits_out.is_some_and(|out| out[part as usize]);
        // Seed from a tree rooted where this run's leader sits (any, to broadcast).
        let broadcast = wave == Wave::Broadcast;
        let rooted: Vec<bool> = (forest.root.iter().zip(leaders).enumerate())
            .map(|(p, (&root, leader))| {
                (root == leader.0 || (broadcast && root != NO_ROOT)) && runs(p as u32)
            })
            .collect();

        let delays = random_delays(k, delay_range);

        // The run's slot states, one per slot of the table in node order; the
        // forest's child flags and (to the extreme) memory change in place.
        let mut states = vec![SlotState::default(); participation.slot_part.len()];
        let remembers = wave == Wave::ToExtreme;
        let mode = SimMode::Queued;
        let sim = Simulator::new(g, SimConfig { mode, ..sim });
        // To the extreme, the leaders send the results down in a second run.
        let (mut metrics, mut down) = (RunMetrics::default(), RunMetrics::default());
        for downs in [false, true].into_iter().filter(|&d| !d || remembers) {
            let (parent, root) = (&forest.parent, &forest.root);
            let (mut left, mut next) = ((&mut states[..], &mut forest.child[..]), 0);
            let mut memo = &mut forest.heard[..];
            let shared = PaRun {
                op,
                wave,
                downs,
                map: participation,
                delays: &delays,
            };
            let run = sim.run(|v, _| {
                // The engine builds the programs once each, in node order,
                // before round 0, so each takes the next run of the arenas.
                assert_eq!(v.0, next, "programs are built in node order");
                next += 1;
                let slots = participation.node(v);
                let (k, e) = (slots.parts().len(), slots.entries().len());
                let (states, is_child) = (split_off(&mut left.0, k), split_off(&mut left.1, e));
                let heard = split_off(&mut memo, e);
                let own = partition.part_of(v).map(|p| p.0);
                let leads = own.filter(|&p| leaders[p as usize] == v && runs(p));
                let parents = &parent[participation.slot_range(v)];
                for (s, &part) in slots.parts().iter().enumerate().filter(|_| !downs) {
                    let (seeded, runs) = (rooted[part as usize], runs(part));
                    let range = slots.port_range(s);
                    if runs && !seeded {
                        is_child[range.clone()].fill(false);
                        forget(heard, range.clone());
                    }
                    let (member, is_leader) = (own == Some(part), leads == Some(part));
                    debug_assert!(
                        !seeded || !member || root[part as usize] == v.0 || parents[s] != NO_PORT,
                        "a member of a rooted part hangs below its root"
                    );
                    // A seeded broadcast sends no `Up`: its leader starts the
                    // `Down`s with its own value.
                    let down_only = seeded && broadcast;
                    let value = if member && (is_leader || !broadcast) {
                        values[v.index()]
                    } else {
                        identity(op)
                    };
                    // To the extreme, a slot waits only for children it knows nothing of.
                    let waits = |&i: &usize| is_child[i] && (!remembers || heard[i] == UNHEARD);
                    // Done before the run starts: a pruned slot of a seeded
                    // tree, every slot of a part that sits out.
                    let owes_nothing =
                        !runs || (seeded && !is_leader && (down_only || parents[s] == NO_PORT));
                    let mut st = SlotState {
                        acc: value,
                        parent: if seeded { parents[s] } else { NO_PORT },
                        pending_up: range.filter(waits).count() as u32 * u32::from(!down_only),
                        ..SlotState::default()
                    };
                    st.set(STARTED, seeded);
                    st.set(MEMBER | MEMBER_BELOW, member && runs);
                    st.set(UP_SENT, owes_nothing);
                    states[s] = st;
                }
                // A seeded leader has no wave to start.
                let starts = leads.filter(|&p| !rooted[p as usize] && !downs);
                PaProgram {
                    run: &shared,
                    lo: slots.lo,
                    hi: slots.hi,
                    states,
                    is_child,
                    heard,
                    leads: leads.map_or(NO_SLOT, |p| slots.slot_of(p) as u32),
                    start_in: starts.map_or(NO_START, |p| delays[p as usize]),
                }
            });
            if downs {
                metrics += &run.metrics;
                down = run.metrics;
            } else {
                metrics = run.metrics;
            }
        }

        // Collect results: a member always owns a slot for its part.
        let result_at = |v: NodeId, part: PartId| {
            let slot = participation
                .slot_of(v, part.0)
                .expect("a member owns a slot");
            states[slot].has(HAS_RESULT).then_some(states[slot].acc)
        };
        let results: Vec<_> = (leaders.iter().enumerate())
            .map(|(i, &leader)| result_at(leader, PartId(i as u32)))
            .collect();
        // A run to the extreme owes its result only to the members holding
        // it, a convergecast to none but the leader.
        let owes = |v: NodeId, r| match wave {
            Wave::ToExtreme => r != identity(op) && values[v.index()] == r,
            Wave::Convergecast => false,
            _ => true,
        };
        let informed = |(pid, members): (PartId, &[NodeId])| {
            let knows = |&v: &NodeId| result_at(v, pid).is_some();
            results[pid.index()].is_some_and(|r| members.iter().filter(|&&v| owes(v, r)).all(knows))
        };
        let all_informed = (partition.iter().filter(|(pid, _)| runs(pid.0))).all(informed);

        // A broadcast over a tree leaves it as it was.
        let reroots = |p: u32| runs(p) && !(broadcast && rooted[p as usize]);
        let truncated = metrics.truncated;
        forest.harvest(participation, &states, wave, leaders, reroots, truncated);

        PartwiseOutcome {
            results,
            all_members_informed: all_informed,
            metrics,
            down,
            rooted_parts: rooted.iter().filter(|&&r| r).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_core::{full_shortcut, ShortcutConfig};
    use lcs_graph::{bfs, gen};
    use proptest::prelude::*;

    /// Every part running the echo.
    const ECHO: (Wave, Option<&[bool]>) = (Wave::Echo, None);

    fn grid_setup(side: usize) -> (Graph, Partition, Shortcut) {
        let g = gen::grid(side, side);
        let partition = Partition::from_parts(&g, gen::rows_of_grid(side, side)).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
        (g, partition, built.shortcut)
    }

    /// Parts `forest` holds a tree for.
    fn rooted_parts(forest: &AggForest) -> usize {
        forest.root.iter().filter(|&&r| r != NO_ROOT).count()
    }

    /// A cold undelayed run on the default simulator.
    fn run_cold(
        op: AggregateOp<'_>,
        g: &Graph,
        partition: &Partition,
        shortcut: &Shortcut,
    ) -> PartwiseOutcome {
        op.run_on(g, partition, shortcut, 0, SimConfig::default())
    }

    fn sum_of(values: &[u64]) -> AggregateOp<'_> {
        AggregateOp {
            values,
            op: AggOp::Sum,
            leaders: None,
        }
    }

    /// A forest as table-independent facts: the root per part and, per
    /// slot of a rooted part, `(node, part, parent port, child ports)`.
    type ForestFacts = (Vec<u32>, Vec<(u32, u32, u32, Vec<u32>)>);

    fn facts(forest: &AggForest, map: &ParticipationMap) -> ForestFacts {
        let mut slots = Vec::new();
        for v in (0..map.first_slot.len() as u32 - 1).map(NodeId) {
            let (node, base) = (map.node(v), map.slot_range(v).start);
            for (s, &part) in node.parts().iter().enumerate() {
                let children = node.ports(s).iter().zip(&forest.child[node.entry_range(s)]);
                let children = children.filter(|(_, &c)| c).map(|(&p, _)| p).collect();
                if forest.root[part as usize] != NO_ROOT {
                    slots.push((v.0, part, forest.parent[base + s], children));
                }
            }
        }
        (forest.root.clone(), slots)
    }

    /// The slots a harvested forest prunes, counted on the host: every slot
    /// not on a member's `parent` chain. Also checks that the kept slots
    /// form the forest's trees — one child flag per kept non-root slot.
    fn pruned_slots(
        g: &Graph,
        partition: &Partition,
        map: &ParticipationMap,
        forest: &AggForest,
    ) -> u64 {
        for pid in partition.part_ids() {
            assert_ne!(forest.root[pid.index()], NO_ROOT, "part {pid:?} is rooted");
        }
        let kept = member_chains(g, partition, map, forest);
        let kept = kept.iter().filter(|&&k| k).count();
        let children = forest.child.iter().filter(|&&c| c).count();
        assert_eq!(
            children,
            kept - partition.num_parts(),
            "kept slots are the trees"
        );
        (map.slot_part.len() - kept) as u64
    }

    /// Per slot, whether it lies on a member's `parent` chain in `forest`.
    fn member_chains(
        g: &Graph,
        partition: &Partition,
        map: &ParticipationMap,
        forest: &AggForest,
    ) -> Vec<bool> {
        let mut on_chain = vec![false; map.slot_part.len()];
        for (pid, members) in partition.iter() {
            for &member in members {
                let mut v = member;
                loop {
                    let slot = map.slot_of(v, pid.0).expect("a member owns a slot");
                    let seen = std::mem::replace(&mut on_chain[slot], true);
                    if seen || forest.parent[slot] == NO_PORT {
                        break;
                    }
                    v = g.heads(v)[forest.parent[slot] as usize];
                }
            }
        }
        on_chain
    }

    /// The kept non-root slots of `forest` on no member's `parent` chain:
    /// relays a departed leaf left without a member below them. A warm run
    /// sends one `Empty` from each and prunes it.
    fn memberless_relays(
        g: &Graph,
        partition: &Partition,
        map: &ParticipationMap,
        forest: &AggForest,
    ) -> u64 {
        let on_chain = member_chains(g, partition, map, forest);
        let kept = forest.parent.iter().map(|&p| p != NO_PORT);
        kept.zip(on_chain).filter(|&(k, c)| k && !c).count() as u64
    }

    /// Whether `forest`'s memory agrees at both ends of every kept tree
    /// edge of a rooted part: what the child last sent is what its parent
    /// last heard from it, unless the child knows it sent nothing since the
    /// edge was made (and so will). A forest without memory agrees.
    fn memory_agrees(g: &Graph, map: &ParticipationMap, forest: &AggForest) -> bool {
        let links = forest.links(map).into_iter();
        links
            .filter(|_| !forest.heard.is_empty())
            .all(|(v, p, port)| {
                let (s, w) = (map.slot_of(v, p.0).unwrap(), g.heads(v)[port as usize]);
                let t = map.slot_of(w, p.0).unwrap();
                let at = map.pair(t, g.port_to(w, v).unwrap() as u32).unwrap();
                let sent = forest.heard[map.pair(s, port).unwrap()];
                let rooted = forest.root[p.index()] != NO_ROOT;
                !rooted || (forest.child[at] && (sent == UNHEARD || forest.heard[at] == sent))
            })
    }

    /// The tables of `partition` and `shortcut` and the forest a cold run
    /// roots over them.
    fn rooted(
        g: &Graph,
        partition: &Partition,
        shortcut: &Shortcut,
    ) -> (ParticipationMap, AggForest) {
        let map = ParticipationMap::build(g, partition, shortcut);
        let mut forest = AggForest::unrooted(partition, &map);
        let values = vec![1; g.num_nodes()];
        let sim = SimConfig::default();
        sum_of(&values).run_masked(g, partition, (0, sim), &map, &mut forest, ECHO);
        assert_eq!(rooted_parts(&forest), partition.num_parts());
        (map, forest)
    }

    /// `v`'s parent in its slot of `part`, if it has one.
    fn parent_of(
        g: &Graph,
        (map, forest): &(ParticipationMap, AggForest),
        v: u32,
        part: u32,
    ) -> Option<u32> {
        let port = forest.parent[map.slot_of(NodeId(v), part)?];
        (port != NO_PORT).then(|| g.heads(NodeId(v))[port as usize].0)
    }

    /// What the session's churn patch does to `tables` (a table and the
    /// forest over it, every part rooted): carries the forest through the
    /// identity map onto the table of `partition` and `shortcut` (the same
    /// part ids after the churn), then aggregates over the carried forest,
    /// and leaves the new table and the forest that run harvested in
    /// `tables`. The run answers like the centralized aggregate, and each
    /// carried part's kept slots form one tree. When every part was carried
    /// the run is warm throughout: one `Up` and one `Down` per kept
    /// non-root slot of the forest it leaves, plus one `Empty` per
    /// memberless relay, which it prunes. Returns the parts carried and the
    /// memberless relays.
    fn churn(
        g: &Graph,
        tables: &mut (ParticipationMap, AggForest),
        partition: &Partition,
        shortcut: &Shortcut,
    ) -> (usize, u64) {
        let map = ParticipationMap::build(g, partition, shortcut);
        let (_, identity) = partition.reassign(g, &[]).expect("no move fails");
        let (mut carried, detaches) =
            (tables.1).carried_over(g, &tables.0, partition, &map, &identity, usize::MAX);
        assert_eq!(detaches, 0, "churn has no joins");
        let heights = carried.heights(g, &map);
        for (root, height) in carried.root.iter().zip(&heights) {
            assert_eq!(
                *root != NO_ROOT,
                height.is_some(),
                "a carried part is one tree"
            );
        }
        let rooted = rooted_parts(&carried);
        let memberless = memberless_relays(g, partition, &map, &carried);
        let values: Vec<u64> = (0..g.num_nodes() as u64).map(|x| (x * 37) % 101).collect();
        let sim = SimConfig::default();
        let out = sum_of(&values).run_masked(g, partition, (0, sim), &map, &mut carried, ECHO);
        assert!(out.metrics.terminated && out.all_members_informed);
        assert_eq!(out.rooted_parts, rooted);
        let expect = crate::centralized_aggregate(partition, &values, AggOp::Sum);
        assert_eq!(
            out.results,
            expect.into_iter().map(Some).collect::<Vec<_>>()
        );
        let k = partition.num_parts();
        if rooted == k {
            let non_roots = (map.slot_part.len() - k) as u64;
            let pruned = pruned_slots(g, partition, &map, &carried);
            assert_eq!(out.metrics.messages, 2 * (non_roots - pruned) + memberless);
        }
        *tables = (map, carried);
        (rooted, memberless)
    }

    /// A run holds one state per slot, most of them pruned relays.
    #[test]
    fn a_slot_state_is_three_words() {
        assert!(std::mem::size_of::<SlotState>() <= 24);
    }

    /// A run holds one program per node; what is the same for all of them
    /// sits in the run's shared [`PaRun`].
    #[test]
    fn a_program_is_nine_words() {
        assert!(std::mem::size_of::<PaProgram<'_>>() <= 72);
    }

    #[test]
    fn matches_centralized_for_all_ops() {
        let (g, partition, shortcut) = grid_setup(8);
        let values: Vec<u64> = (0..g.num_nodes() as u64).map(|x| (x * 37) % 101).collect();
        for op in [AggOp::Min, AggOp::Max, AggOp::Sum] {
            let out = run_cold(
                AggregateOp {
                    values: &values,
                    op,
                    leaders: None,
                },
                &g,
                &partition,
                &shortcut,
            );
            assert!(out.metrics.terminated);
            assert!(out.all_members_informed);
            let expect = crate::centralized_aggregate(&partition, &values, op);
            let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn empty_shortcut_still_correct_but_slower() {
        let (g, partition, shortcut) = grid_setup(8);
        let empty = Shortcut::empty(partition.num_parts());
        let values: Vec<u64> = (0..g.num_nodes() as u64).collect();
        let op = AggregateOp {
            values: &values,
            op: AggOp::Sum,
            leaders: None,
        };
        let with = run_cold(op, &g, &partition, &shortcut);
        let without = run_cold(op, &g, &partition, &empty);
        assert!(with.all_members_informed && without.all_members_informed);
        assert_eq!(with.results, without.results);
        // On short row parts the shortcut brings no speedup (the rows are
        // already paths of length 7) — correctness must hold either way. The
        // wheel test below covers the speedup claim.
    }

    #[test]
    fn wheel_rim_needs_shortcuts() {
        // The paper's Section 2 wheel example: D = 2, rim diameter Θ(n).
        let n = 64;
        let g = gen::wheel(n);
        let rim: Vec<NodeId> = (1..n as u32).map(NodeId).collect();
        let partition = Partition::from_parts(&g, vec![rim]).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let built = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default());
        let values: Vec<u64> = (0..n as u64).collect();

        let op = AggregateOp {
            values: &values,
            op: AggOp::Max,
            leaders: None,
        };
        let map = ParticipationMap::build(&g, &partition, &built.shortcut);
        let sim = SimConfig::default();
        let mut forest = AggForest::unrooted(&partition, &map);
        let with = op.run_masked(&g, &partition, (0, sim), &map, &mut forest, ECHO);
        let without = run_cold(op, &g, &partition, &Shortcut::empty(partition.num_parts()));
        assert_eq!(with.results[0], Some(n as u64 - 1));
        assert_eq!(without.results[0], Some(n as u64 - 1));
        // Shortcut routes through the hub: O(1) diameter vs Θ(n) rim walk.
        assert!(
            with.metrics.rounds * 4 < without.metrics.rounds,
            "with {} vs without {}",
            with.metrics.rounds,
            without.metrics.rounds
        );
        // The hub, the rim's only relay, carries members below it: nothing
        // is pruned, so both runs send what the unpruned echo sends.
        let warm = op.run_masked(&g, &partition, (0, sim), &map, &mut forest, ECHO);
        assert_eq!(pruned_slots(&g, &partition, &map, &forest), 0);
        let (ports, non_roots) = (map.ports.len() as u64, map.slot_part.len() as u64 - 1);
        assert_eq!(with.metrics.messages, ports + 2 * non_roots);
        assert_eq!(warm.metrics.messages, 2 * non_roots);
    }

    #[test]
    fn disconnected_shortcut_reports_uninformed() {
        let g = gen::path(6);
        let partition = Partition::from_parts(&g, vec![vec![NodeId(0), NodeId(1)]]).unwrap();
        // A shortcut edge disconnected from the part.
        let far = g.find_edge(NodeId(4), NodeId(5)).unwrap();
        let s = Shortcut::from_edge_lists(vec![vec![far]]);
        let values = vec![1; 6];
        let out = run_cold(
            AggregateOp {
                values: &values,
                op: AggOp::Sum,
                leaders: None,
            },
            &g,
            &partition,
            &s,
        );
        // The members finish (their side is connected) and the run quiesces
        // early, but the relay island never hears an offer, so the run does
        // not count as fully terminated.
        assert!(!out.metrics.terminated);
        assert!(out.metrics.rounds < 100);
        assert!(out.all_members_informed);
        assert_eq!(out.results[0], Some(2));
    }

    #[test]
    fn explicit_leaders_and_delays() {
        let (g, partition, shortcut) = grid_setup(6);
        let leaders: Vec<NodeId> = partition
            .iter()
            .map(|(_, nodes)| *nodes.last().unwrap())
            .collect();
        let values = vec![3u64; g.num_nodes()];
        let out = AggregateOp {
            values: &values,
            op: AggOp::Sum,
            leaders: Some(&leaders),
        }
        .run_on(&g, &partition, &shortcut, 8, SimConfig::default());
        assert!(out.all_members_informed);
        assert!(out.results.iter().all(|&r| r == Some(18)));
    }

    /// The heaviest queued-mode consumer (many instances, mixed random-delay
    /// priorities) must be invisible to the thread count: same results,
    /// same metrics, same harvested forest — on the cold run and on the
    /// warm run seeded from it.
    #[test]
    fn partwise_is_thread_count_invariant() {
        let (g, partition, shortcut) = grid_setup(8);
        let map = ParticipationMap::build(&g, &partition, &shortcut);
        let values: Vec<u64> = (0..g.num_nodes() as u64).map(|x| x * 7 % 31).collect();
        let cold_then_warm = |threads| {
            let delay_range = 12;
            let sim = SimConfig {
                threads,
                ..SimConfig::default()
            };
            let mut forest = AggForest::unrooted(&partition, &map);
            let runs = [(); 2].map(|()| {
                let out = sum_of(&values).run_masked(
                    &g,
                    &partition,
                    (delay_range, sim),
                    &map,
                    &mut forest,
                    ECHO,
                );
                assert!(out.all_members_informed);
                (out.results, out.metrics.counts(), out.rooted_parts)
            });
            (runs, forest)
        };
        let t1 = cold_then_warm(1);
        assert_eq!((t1.0[0].2, t1.0[1].2), (0, partition.num_parts()));
        for threads in [2, 4] {
            assert_eq!(cold_then_warm(threads), t1, "threads={threads}");
        }
    }

    /// A connected graph with connected parts from one of the generator
    /// `families`: 0 torus cells, 1 grid rows, 2 road-like voronoi cells,
    /// 3 the wheel rim (one part), 4 random parts of a 3-tree.
    fn arb_instance(families: Range<usize>) -> impl Strategy<Value = (Graph, Vec<Vec<NodeId>>)> {
        (families, 4usize..9, 0u64..1000).prop_map(|(family, side, seed)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let random_parts = |g: Graph, rng: &mut SmallRng| {
                let parts = gen::random_connected_parts(&g, side, rng);
                (g, parts)
            };
            match family {
                0 => random_parts(gen::torus(side, side), &mut rng),
                1 => (gen::grid(side, side), gen::rows_of_grid(side, side)),
                2 => {
                    let g = gen::road_like(side, side, seed);
                    let parts = gen::voronoi_parts_seeded(&g, side, seed);
                    (g, parts)
                }
                3 => {
                    let n = side * side;
                    (gen::wheel(n), vec![(1..n as u32).map(NodeId).collect()])
                }
                _ => random_parts(gen::ktree(side * side, 3, &mut rng), &mut rng),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The table is Definition 2.1 read off edge by edge: every
        /// `(node, part, port)` whose edge is in `H_i` or inside `P_i`, a
        /// `NO_PORT` entry per member, sorted as a whole and laid out.
        #[test]
        fn build_matches_globally_sorted_definition((g, parts) in arb_instance(0..3)) {
            let partition = Partition::from_parts(&g, parts).unwrap();
            let tree = bfs::bfs_tree(&g, NodeId(0));
            let shortcut = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default()).shortcut;
            let mut triples = Vec::new();
            for (pid, members) in partition.iter() {
                triples.extend(members.iter().map(|v| (v.0, pid.0, NO_PORT)));
                for v in g.nodes() {
                    for (port, nb) in g.neighbors(v).enumerate() {
                        let inside = |u| partition.part_of(u) == Some(pid);
                        if shortcut.contains(pid, nb.edge) || (inside(v) && inside(nb.node)) {
                            triples.push((v.0, pid.0, port as u32));
                        }
                    }
                }
            }
            triples.sort_unstable();
            let sizes = ParticipationMap::sizes(&triples);
            let expect = ParticipationMap::from_sorted(g.num_nodes(), sizes, triples.into_iter());
            prop_assert_eq!(ParticipationMap::build(&g, &partition, &shortcut), expect);
        }

        /// Random `reassign_parts` sequences through the real churn path
        /// (the session's incremental shortcut keeps untouched parts' `H_i`
        /// byte-identical, which is the contract `refreshed` relies on):
        /// after every tick the refreshed table equals a fresh build, and
        /// the forest goes through `churn`, as the session's patch does —
        /// untouched parts keep their trees slot for slot, touched ones are
        /// repaired or echo, and the run answers like the centralized
        /// aggregate, warm throughout whenever every part was carried.
        #[test]
        fn refreshed_participation_matches_fresh_build(
            (g, parts) in arb_instance(0..3),
            seed in 0u64..1000,
        ) {
            use lcs_core::session::Session;
            let mut session = Session::on(&g).partition(parts).build().unwrap();
            session.prepare();
            let mut tables = rooted(&g, session.partition(), session.shortcut_ref());
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut ticks, mut repaired) = (0, 0);
            for _ in 0..24 {
                // Up to three nodes hop into a neighbor's part; the session
                // refuses ticks that would disconnect or empty a part.
                let moves: Vec<(NodeId, PartId)> = (0..rng.gen_range(1..4))
                    .filter_map(|_| {
                        let v = NodeId(rng.gen_range(0..g.num_nodes() as u32));
                        let nb = g.heads(v)[rng.gen_range(0..g.degree(v))];
                        Some((v, session.partition().part_of(nb)?))
                    })
                    .collect();
                let Ok((_, transition)) = session.partition().reassign(&g, &moves) else { continue };
                let touched = session.reassign_parts(&moves).unwrap();
                prop_assert_eq!(transition.touched(), &touched[..]);
                if touched.is_empty() {
                    continue;
                }
                session.prepare(); // re-customizes the touched parts in place
                let (partition, shortcut) = (session.partition(), session.shortcut_ref());
                let next = tables.0.refreshed(&g, partition, shortcut, &transition);
                prop_assert_eq!(&next, &ParticipationMap::build(&g, partition, shortcut));

                let untouched = |(map, forest): &(ParticipationMap, AggForest)| {
                    let (mut roots, mut slots) = facts(forest, map);
                    slots.retain(|&(_, part, ..)| !touched.contains(&PartId(part)));
                    for p in &touched {
                        roots[p.index()] = NO_ROOT;
                    }
                    (roots, slots)
                };
                let before = untouched(&tables);
                let (carried, _) = churn(&g, &mut tables, partition, shortcut);
                prop_assert_eq!(untouched(&tables), before);
                let k = partition.num_parts();
                prop_assert!(carried >= k - touched.len());
                repaired += carried + touched.len() - k;
                prop_assert_eq!(rooted_parts(&tables.1), k);
                ticks += 1;
            }
            prop_assert!(ticks > 0, "no tick was accepted");
            prop_assert!(repaired > 0, "no touched part was carried");

            // Then a Boruvka phase: parts merge one hop into neighbours, the
            // survivors are renamed in order, and only the grown parts get a
            // fresh `H_i` and fresh slots.
            let tree = session.tree().clone();
            let (partition, shortcut) = (session.partition(), session.shortcut_ref());
            let (mut merging, mut grows) = (vec![false; partition.num_parts()], vec![false; partition.num_parts()]);
            let mut joins = Vec::new();
            for er in g.edges() {
                let (a, b) = (partition.part_of(er.u).unwrap(), partition.part_of(er.v).unwrap());
                if a != b && !merging[a.index()] && !grows[a.index()] && !merging[b.index()] && rng.gen_bool(0.3) {
                    (merging[a.index()], grows[b.index()]) = (true, true);
                    joins.push((a, er.u, er.v));
                }
            }
            let (merged, transition) = partition.merge(&g, joins).unwrap();
            let cfg = ShortcutConfig::default();
            let fresh = lcs_core::construct(&g, &tree, &merged, transition.touched(), 1, &cfg, None);
            let merged_shortcut = shortcut.clone().carried_over(&transition, fresh.unwrap().shortcut);
            let next = tables.0.refreshed(&g, &merged, &merged_shortcut, &transition);
            prop_assert_eq!(next, ParticipationMap::build(&g, &merged, &merged_shortcut));
        }

        /// Boruvka-style merges with real shortcuts: every round coins make
        /// heads and tails, each tail with a head neighbour joins one over
        /// an edge, the grown parts get a construction, and the forest is
        /// carried with the cap `2D + 1`. Every carried part is unrooted or
        /// one tree at most that high holding a kept slot at each member;
        /// the run to the extreme over it is warm in exactly the carried
        /// parts and finds the minima a cold echo finds.
        #[test]
        fn boruvka_merges_carry_trees_within_the_cap(
            (g, parts) in arb_instance(1..3),
            seed in 0u64..1000,
        ) {
            let tree = bfs::bfs_tree(&g, NodeId(0));
            let cap = 2 * tree.depth_of_tree() as usize + 1;
            let cfg = ShortcutConfig::default();
            let mut partition = Partition::from_parts(&g, parts).unwrap();
            let mut shortcut = full_shortcut(&g, &tree, &partition, &cfg).shortcut;
            let (mut map, mut forest) = rooted(&g, &partition, &shortcut);
            let mut rng = SmallRng::seed_from_u64(seed);
            let values: Vec<u64> = (0..g.num_nodes() as u64).map(|x| (x * 37 + seed) % 101).collect();
            let min = AggregateOp { op: AggOp::Min, ..sum_of(&values) };
            let sim = SimConfig::default();
            for _ in 0..12 {
                let heads: Vec<bool> = partition.part_ids().map(|_| rng.gen_bool(0.5)).collect();
                let mut joins: Vec<(PartId, NodeId, NodeId)> = Vec::new();
                for er in g.edges() {
                    for (inside, far) in [(er.u, er.v), (er.v, er.u)] {
                        let (q, to) = (partition.part_of(inside).unwrap(), partition.part_of(far).unwrap());
                        if !heads[q.index()] && heads[to.index()] && joins.iter().all(|j| j.0 != q) {
                            joins.push((q, inside, far));
                        }
                    }
                }
                if joins.is_empty() {
                    continue;
                }
                let (merged, t) = partition.merge(&g, joins).unwrap();
                let fresh = lcs_core::construct(&g, &tree, &merged, t.touched(), 1, &cfg, None);
                let next_shortcut = shortcut.carried_over(&t, fresh.unwrap().shortcut);
                let next = map.refreshed(&g, &merged, &next_shortcut, &t);
                let (mut carried, _) = forest.carried_over(&g, &map, &merged, &next, &t, cap);
                let heights = carried.heights(&g, &next);
                for (p, members) in merged.iter() {
                    let root = carried.root[p.index()];
                    if root == NO_ROOT {
                        continue;
                    }
                    prop_assert!(heights[p.index()].is_some_and(|h| h <= cap));
                    for &v in members {
                        let s = next.slot_of(v, p.0).unwrap();
                        prop_assert!(carried.parent[s] != NO_PORT || root == v.0);
                    }
                }
                prop_assert!(memory_agrees(&g, &next, &carried));
                let rooted = rooted_parts(&carried);
                let shape = (Wave::ToExtreme, None);
                let warm = min.run_masked(&g, &merged, (0, sim), &next, &mut carried, shape);
                prop_assert!(memory_agrees(&g, &next, &carried));
                let cold = min.run_on(&g, &merged, &next_shortcut, 0, sim);
                prop_assert_eq!(warm.rooted_parts, rooted);
                prop_assert_eq!(warm.results, cold.results);
                (partition, shortcut, map, forest) = (merged, next_shortcut, next, carried);
            }
        }

        /// The echo is a formula at `message_packing = 1`, whatever the
        /// delays and leaders: a cold run sends an `Offer` over every
        /// participating `(slot, port)` pair but each non-root slot's
        /// parent port, one `Adopt` and one `Up` or `Empty` per non-root
        /// slot, and one `Down` per non-root slot with a member below it —
        /// `ports + 2·(slots − parts) − pruned`; a warm run one `Up` and
        /// one `Down` per kept non-root slot, `2·(slots − parts − pruned)`,
        /// which lies between the members' and every slot's share.
        #[test]
        fn echo_sends_ports_plus_twice_the_non_roots_minus_the_pruned(
            (g, parts) in arb_instance(1..5),
            delay_range in 0u32..2,
            explicit_leaders in 0u32..2,
        ) {
            let partition = Partition::from_parts(&g, parts).unwrap();
            let tree = bfs::bfs_tree(&g, NodeId(0));
            let shortcut = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default()).shortcut;
            let map = ParticipationMap::build(&g, &partition, &shortcut);
            let values: Vec<u64> = (0..g.num_nodes() as u64).collect();
            let last: Vec<NodeId> = partition.iter().map(|(_, nodes)| *nodes.last().unwrap()).collect();
            let op = AggregateOp {
                leaders: (explicit_leaders == 1).then_some(&last[..]),
                ..sum_of(&values)
            };
            let delay_range = 16 * delay_range;
            let sim = SimConfig::default();
            let mut forest = AggForest::unrooted(&partition, &map);
            let cold = op.run_masked(&g, &partition, (delay_range, sim), &map, &mut forest, ECHO);
            let warm = op.run_masked(&g, &partition, (delay_range, sim), &map, &mut forest, ECHO);
            prop_assert!(cold.metrics.terminated && warm.metrics.terminated);
            prop_assert_eq!(warm.rooted_parts, partition.num_parts());
            let k = partition.num_parts() as u64;
            let non_roots = map.slot_part.len() as u64 - k;
            let pruned = pruned_slots(&g, &partition, &map, &forest);
            prop_assert_eq!(cold.metrics.messages, map.ports.len() as u64 + 2 * non_roots - pruned);
            prop_assert_eq!(warm.metrics.messages, 2 * (non_roots - pruned));
            let members = partition.iter().map(|(_, nodes)| nodes.len() as u64).sum::<u64>();
            prop_assert!(2 * (members - k) <= warm.metrics.messages);
            prop_assert!(warm.metrics.messages <= 2 * non_roots);
        }

        /// A convergecast is the echo without its `Down`s, and each leader
        /// learns its part's aggregate. Over the forest an echo rooted it
        /// sends one `Up` per kept non-root slot, `slots − parts − pruned`,
        /// and leaves that forest as it was; cold, it sends the cold echo's
        /// count minus the echo's `Down`s, `ports + (slots − parts)` on any
        /// tree the offers find, and roots every part.
        #[test]
        fn a_convergecast_is_the_echo_without_its_downs(
            (g, parts) in arb_instance(0..5),
            op in 0usize..3,
        ) {
            let partition = Partition::from_parts(&g, parts).unwrap();
            let tree = bfs::bfs_tree(&g, NodeId(0));
            let shortcut = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default()).shortcut;
            let map = ParticipationMap::build(&g, &partition, &shortcut);
            let values: Vec<u64> = (0..g.num_nodes() as u64).map(|x| (x * 37) % 101).collect();
            let op = [AggOp::Sum, AggOp::Min, AggOp::Max][op];
            let op = AggregateOp { op, ..sum_of(&values) };
            let blocks = (0, SimConfig::default());
            let convergecast = (Wave::Convergecast, None);
            let mut echoed = AggForest::unrooted(&partition, &map);
            let echo = op.run_masked(&g, &partition, blocks, &map, &mut echoed, ECHO);
            let rooted = echoed.clone();
            let warm = op.run_masked(&g, &partition, blocks, &map, &mut echoed, convergecast);
            let mut forest = AggForest::unrooted(&partition, &map);
            let cold = op.run_masked(&g, &partition, blocks, &map, &mut forest, convergecast);
            let expect = crate::centralized_aggregate(&partition, &values, op.op);
            let expect: Vec<_> = expect.into_iter().map(Some).collect();
            for out in [&echo, &warm, &cold] {
                prop_assert!(out.metrics.terminated && out.all_members_informed);
                prop_assert_eq!(&out.results, &expect);
            }
            let k = partition.num_parts() as u64;
            let non_roots = map.slot_part.len() as u64 - k;
            let downs = non_roots - pruned_slots(&g, &partition, &map, &rooted);
            prop_assert_eq!(warm.rooted_parts as u64, k);
            prop_assert_eq!(warm.metrics.messages, downs);
            prop_assert!(echoed == rooted, "a convergecast keeps the trees it ran over");
            prop_assert_eq!(cold.metrics.messages, echo.metrics.messages - downs);
            prop_assert_eq!(cold.metrics.messages, map.ports.len() as u64 + non_roots);
            prop_assert_eq!(rooted_parts(&forest) as u64, k);
        }
    }

    /// A convergecast of `values` along the BFS tree of `g` from `root`,
    /// over the one part that tree spans and the forest
    /// [`AggForest::of_tree`] lays out: `depth` rounds, one message per
    /// tree edge, and the forest comes back as it was given. Returns the
    /// root's result.
    fn convergecast_along(g: &Graph, root: NodeId, op: AggOp, values: &[u64]) -> Option<u64> {
        let tree = bfs::bfs_tree(g, root);
        let partition = Partition::from_parts(g, vec![tree.order().to_vec()]).unwrap();
        let map = ParticipationMap::build(g, &partition, &Shortcut::empty(1));
        let mut forest = AggForest::of_tree(g, &map, &tree);
        let laid_out = forest.clone();
        let op = AggregateOp {
            values,
            op,
            leaders: Some(&[root]),
        };
        let blocks = (0, SimConfig::default());
        let shape = (Wave::Convergecast, None);
        let out = op.run_masked(g, &partition, blocks, &map, &mut forest, shape);
        assert!(out.metrics.terminated && out.all_members_informed);
        let depth = tree.depth_of_tree();
        let counts = (out.metrics.rounds, out.metrics.messages);
        assert_eq!(counts, (u64::from(depth), tree.num_tree_nodes() as u64 - 1));
        assert_eq!(out.rooted_parts, 1);
        assert_eq!(
            forest, laid_out,
            "a convergecast leaves the forest as it was"
        );
        assert_eq!(forest.heights(g, &map), vec![Some(depth as usize)]);
        out.results[0]
    }

    #[test]
    fn convergecast_sum_counts_nodes() {
        let g = gen::grid(4, 4);
        assert_eq!(
            convergecast_along(&g, NodeId(0), AggOp::Sum, &[1; 16]),
            Some(16)
        );
    }

    #[test]
    fn convergecast_max_finds_global_max() {
        let g = gen::grid(4, 4);
        let values: Vec<u64> = (0..16).map(|v| v * 10).collect();
        assert_eq!(
            convergecast_along(&g, NodeId(0), AggOp::Max, &values),
            Some(150)
        );
    }

    #[test]
    fn convergecast_min_finds_global_min() {
        let g = gen::grid(4, 4);
        let values: Vec<u64> = (0..16).map(|v| 100 + v).collect();
        assert_eq!(
            convergecast_along(&g, NodeId(0), AggOp::Min, &values),
            Some(100)
        );
    }

    /// A lone root holds its own value: 0 rounds, 0 messages.
    #[test]
    fn convergecast_single_node_tree() {
        let g = gen::path(1);
        assert_eq!(convergecast_along(&g, NodeId(0), AggOp::Sum, &[7]), Some(7));
    }

    /// `depth(T)` rounds and `n − 1` messages on a grid (from a corner and
    /// from the middle), a wheel from its hub and from the rim, and a path.
    #[test]
    fn convergecast_takes_depth_rounds_and_one_message_per_tree_edge() {
        for (g, root) in [
            (gen::grid(7, 5), 0),
            (gen::grid(7, 5), 17),
            (gen::wheel(20), 0),
            (gen::wheel(20), 5),
            (gen::path(12), 0),
            (gen::path(12), 7),
        ] {
            let n = g.num_nodes() as u64;
            let out = convergecast_along(&g, NodeId(root), AggOp::Sum, &vec![1; n as usize]);
            assert_eq!(out, Some(n));
        }
    }

    /// A tree spans one component of a disconnected graph: the part is that
    /// component, the other nodes take no part.
    #[test]
    fn convergecast_along_one_component_of_a_disconnected_graph() {
        let g = Graph::from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]);
        let values = [1, 2, 3, 4, 50, 60, 70];
        assert_eq!(
            convergecast_along(&g, NodeId(1), AggOp::Sum, &values),
            Some(10)
        );
        assert_eq!(
            convergecast_along(&g, NodeId(6), AggOp::Max, &values),
            Some(70)
        );
    }

    /// Offers that cross answer each other. `n = 9`: nodes 4 and 5 start
    /// in the same round and offer the edge between them to each other;
    /// `n = 8`: node 4 hears both offers at once, adopts one and offers
    /// back over the other. Either way the run sends exactly
    /// `ports + 2·(slots − parts)` = `2n + 2(n − 1)` messages, with no reply
    /// for the crossing.
    #[test]
    fn crossing_offers_answer_each_other() {
        for n in [8, 9] {
            let g = gen::cycle(n);
            let partition = Partition::from_parts(&g, vec![g.nodes().collect()]).unwrap();
            let values = vec![1; n];
            let out = run_cold(
                sum_of(&values),
                &g,
                &partition,
                &Shortcut::empty(partition.num_parts()),
            );
            assert!(out.metrics.terminated && out.all_members_informed);
            assert_eq!(out.results, vec![Some(n as u64)]);
            assert_eq!(
                out.metrics.messages,
                (2 * n + 2 * (n - 1)) as u64,
                "n = {n}"
            );
        }
    }

    /// Root once, aggregate many: over a forest harvested from any earlier
    /// run, an aggregation of any operator sends exactly one `Up` and one
    /// `Down` per non-root slot with a member below it, and is no slower
    /// than the echo.
    #[test]
    fn warm_run_sends_only_up_and_down() {
        let road = gen::road_like(12, 12, 3);
        let road_parts = gen::voronoi_parts_seeded(&road, 9, 3);
        let road_parts = Partition::from_parts(&road, road_parts).unwrap();
        let (grid, rows, _) = grid_setup(8);
        for (g, partition) in [(grid, rows), (road, road_parts)] {
            let tree = bfs::bfs_tree(&g, NodeId(0));
            let shortcut =
                full_shortcut(&g, &tree, &partition, &ShortcutConfig::default()).shortcut;
            let map = ParticipationMap::build(&g, &partition, &shortcut);
            let values: Vec<u64> = (0..g.num_nodes() as u64).map(|x| (x * 37) % 101).collect();
            let sim = SimConfig::default();
            let mut forest = AggForest::unrooted(&partition, &map);
            sum_of(&values).run_masked(&g, &partition, (0, sim), &map, &mut forest, ECHO);
            assert_eq!(rooted_parts(&forest), partition.num_parts());
            let rooted = forest.clone();
            for op in [AggOp::Min, AggOp::Max, AggOp::Sum] {
                let op = AggregateOp {
                    op,
                    ..sum_of(&values)
                };
                let cold = op.run_on(&g, &partition, &shortcut, 0, sim);
                let warm = op.run_masked(&g, &partition, (0, sim), &map, &mut forest, ECHO);
                assert_eq!(
                    (cold.rooted_parts, warm.rooted_parts),
                    (0, partition.num_parts())
                );
                assert!(warm.metrics.terminated && warm.all_members_informed);
                assert_eq!(warm.results, cold.results);
                let expect = crate::centralized_aggregate(&partition, &values, op.op);
                assert_eq!(
                    warm.results,
                    expect.into_iter().map(Some).collect::<Vec<_>>()
                );
                let non_roots = (map.slot_part.len() - partition.num_parts()) as u64;
                let pruned = pruned_slots(&g, &partition, &map, &forest);
                assert_eq!(warm.metrics.messages, 2 * (non_roots - pruned));
                assert!(warm.metrics.rounds <= cold.metrics.rounds);
                assert_eq!(forest, rooted, "a warm run keeps the trees it ran over");
            }
        }
    }

    /// A warm run with one part masked out: that part gets no result and
    /// keeps its tree, every other part answers and keeps its tree as the
    /// unmasked run does, and the run sends the unmasked run's messages
    /// minus the masked part's `Up` and `Down` per kept non-root slot.
    #[test]
    fn a_part_that_sits_out_sends_nothing_and_keeps_its_tree() {
        let g = gen::road_like(12, 12, 3);
        let parts = gen::voronoi_parts_seeded(&g, 9, 3);
        let partition = Partition::from_parts(&g, parts).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let shortcut = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default()).shortcut;
        let (map, rooted) = rooted(&g, &partition, &shortcut);
        let values: Vec<u64> = (0..g.num_nodes() as u64).map(|x| (x * 37) % 101).collect();
        let sim = SimConfig::default();
        let (k, masked) = (partition.num_parts(), 4);
        let kept = (map.slot_part.iter().zip(&rooted.parent))
            .filter(|&(&part, &parent)| part == masked && parent != NO_PORT)
            .count() as u64;
        assert!(kept > 0, "the masked part has a tree to keep");

        let mut full = rooted.clone();
        let all = sum_of(&values).run_masked(&g, &partition, (0, sim), &map, &mut full, ECHO);
        let mut sits_out = vec![false; k];
        sits_out[masked as usize] = true;
        let mut forest = rooted.clone();
        let out = sum_of(&values).run_masked(
            &g,
            &partition,
            (0, sim),
            &map,
            &mut forest,
            (Wave::Echo, Some(&sits_out)),
        );
        assert!(out.metrics.terminated && out.all_members_informed);
        assert_eq!(out.rooted_parts, k - 1);
        assert_eq!(out.metrics.messages, all.metrics.messages - 2 * kept);
        // A forest's facts split into the masked part's and the others'.
        let split = |forest: &AggForest| {
            let (mut roots, slots) = facts(forest, &map);
            let root = std::mem::replace(&mut roots[masked as usize], NO_ROOT);
            let (mine, others): (Vec<_>, Vec<_>) = slots.into_iter().partition(|s| s.1 == masked);
            ((root, mine), (roots, others))
        };
        assert_eq!(
            split(&forest).0,
            split(&rooted).0,
            "the masked tree is kept"
        );
        assert_eq!(split(&forest).1, split(&full).1, "the others as unmasked");
        let mut expect = all.results.clone();
        expect[masked as usize] = None;
        assert_eq!(out.results, expect);
    }

    /// The road-like voronoi instance of the masked-run test, rooted by a
    /// cold sum, and distinct values `0..n`.
    fn voronoi_rooted() -> (Graph, Partition, ParticipationMap, AggForest, Vec<u64>) {
        let g = gen::road_like(12, 12, 3);
        let parts = gen::voronoi_parts_seeded(&g, 9, 3);
        let partition = Partition::from_parts(&g, parts).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let shortcut = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default()).shortcut;
        let (map, forest) = rooted(&g, &partition, &shortcut);
        let n = g.num_nodes() as u64;
        let values = (0..n).map(|x| x * 89 % n).collect();
        (g, partition, map, forest, values)
    }

    /// The edges from `v`'s slot of `part` up to its tree's root.
    fn depth(g: &Graph, map: &ParticipationMap, forest: &AggForest, v: NodeId, part: u32) -> u64 {
        let (mut v, mut depth) = (v, 0);
        loop {
            let port = forest.parent[map.slot_of(v, part).expect("a kept slot")];
            if port == NO_PORT {
                return depth;
            }
            (v, depth) = (g.heads(v)[port as usize], depth + 1);
        }
    }

    /// A warm `Min` or `Max` to the extreme over distinct values, with
    /// nothing remembered, sends one `Up` per kept non-root slot and one
    /// `Down` per edge from the root to the extreme's holder. The leader and
    /// the holder learn the result, the forest is unchanged, a second wave
    /// over the same values sends only the `Down`s, and the echo after it is
    /// warm.
    /// A real value equal to the memory's "unknown" mark costs `Up`s, not
    /// a wrong result: waves to the extreme over it (one member per part
    /// holds it, and part 0 also `u64::MAX`) find every extreme, cold and
    /// warm.
    #[test]
    fn a_value_that_reads_as_unheard_is_still_found() {
        let (g, partition, map, rooted, mut values) = voronoi_rooted();
        let sim = SimConfig::default();
        for (p, members) in partition.iter() {
            values[members[members.len() - 1].index()] = UNHEARD;
            if p.0 == 0 {
                values[members[0].index()] = u64::MAX;
            }
        }
        for op in [AggOp::Min, AggOp::Max] {
            let op = AggregateOp {
                op,
                ..sum_of(&values)
            };
            let expect = crate::centralized_aggregate(&partition, &values, op.op);
            let mut forest = rooted.clone();
            for _ in 0..3 {
                let shape = (Wave::ToExtreme, None);
                let out = op.run_masked(&g, &partition, (0, sim), &map, &mut forest, shape);
                assert!(out.metrics.terminated && out.all_members_informed);
                assert_eq!(
                    out.results,
                    expect.iter().copied().map(Some).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn a_wave_to_the_extreme_goes_down_one_path() {
        let (g, partition, map, rooted, values) = voronoi_rooted();
        let sim = SimConfig::default();
        let edges: usize = rooted.tree_edges(&map).iter().sum();
        let k = partition.num_parts();
        for op in [AggOp::Min, AggOp::Max] {
            let op = AggregateOp {
                op,
                ..sum_of(&values)
            };
            let expect = crate::centralized_aggregate(&partition, &values, op.op);
            let mut forest = rooted.clone();
            let shape = (Wave::ToExtreme, None);
            let out = op.run_masked(&g, &partition, (0, sim), &map, &mut forest, shape);
            assert!(
                out.metrics.terminated && out.all_members_informed,
                "{:?}",
                op.op
            );
            assert_eq!(out.rooted_parts, k);
            assert_eq!(
                out.results,
                expect.iter().copied().map(Some).collect::<Vec<_>>()
            );
            let holders = (partition.iter().zip(&expect)).map(|((pid, members), &x)| {
                let holder = members.iter().find(|v| values[v.index()] == x).unwrap();
                depth(&g, &map, &forest, *holder, pid.0)
            });
            let path: u64 = holders.sum();
            assert!(path > 0, "{:?}: some extreme sits below its root", op.op);
            assert_eq!(out.metrics.messages, edges as u64 + path, "{:?}", op.op);
            assert_eq!(out.down.messages, path, "{:?}", op.op);
            assert_eq!(facts(&forest, &map), facts(&rooted, &map), "{:?}", op.op);
            // Nothing changed: the next wave sends no `Up`, only the `Down`s.
            let again = op.run_masked(&g, &partition, (0, sim), &map, &mut forest, shape);
            assert_eq!(again.results, out.results, "{:?}", op.op);
            assert_eq!(again.metrics.messages, path, "{:?}", op.op);
            let echo = op.run_masked(&g, &partition, (0, sim), &map, &mut forest, ECHO);
            assert_eq!(echo.rooted_parts, k);
            assert_eq!(echo.metrics.messages, 2 * edges as u64);
        }
    }

    /// A broadcast led from a member that is not its part's root sends one
    /// `Down` per kept non-root slot, and every member learns the leader's
    /// value; the forest is unchanged, and a masked part sends nothing. An
    /// unrooted part broadcasts through the echo led from that member,
    /// which roots its tree there.
    #[test]
    fn a_broadcast_from_a_member_crosses_each_kept_edge_once() {
        let (g, partition, map, rooted, values) = voronoi_rooted();
        let sim = SimConfig::default();
        let leaders: Vec<NodeId> = (partition.iter().zip(&rooted.root))
            .map(|((_, members), &root)| *members.iter().rfind(|v| v.0 != root).unwrap())
            .collect();
        let op = AggregateOp {
            op: AggOp::Max,
            leaders: Some(&leaders),
            ..sum_of(&values)
        };
        let expect: Vec<_> = leaders.iter().map(|v| Some(values[v.index()])).collect();
        let edges = rooted.tree_edges(&map);
        let (k, masked) = (partition.num_parts(), 4);
        let mut sits_out = vec![false; k];
        sits_out[masked] = true;
        for mask in [None, Some(&sits_out[..])] {
            let mut forest = rooted.clone();
            let shape = (Wave::Broadcast, mask);
            let out = op.run_masked(&g, &partition, (0, sim), &map, &mut forest, shape);
            assert!(out.metrics.terminated && out.all_members_informed);
            let mut expect = expect.clone();
            let mut sent: usize = edges.iter().sum();
            if mask.is_some() {
                (expect[masked], sent) = (None, sent - edges[masked]);
            }
            assert_eq!(out.results, expect);
            assert_eq!(out.metrics.messages, sent as u64);
            assert_eq!(facts(&forest, &map), facts(&rooted, &map));
        }

        let mut forest = AggForest::unrooted(&partition, &map);
        let shape = (Wave::Broadcast, None);
        let cold = op.run_masked(&g, &partition, (0, sim), &map, &mut forest, shape);
        assert!(cold.metrics.terminated && cold.all_members_informed);
        assert_eq!((cold.rooted_parts, cold.results), (0, expect));
        assert_eq!(forest.root, leaders.iter().map(|v| v.0).collect::<Vec<_>>());
    }

    /// A run cut short by the round cap roots nothing — not even the parts
    /// it was seeded with — and the next run re-roots everything.
    #[test]
    fn truncated_run_leaves_every_part_unrooted() {
        let (g, partition, shortcut) = grid_setup(8);
        let map = ParticipationMap::build(&g, &partition, &shortcut);
        let values = vec![1u64; g.num_nodes()];
        let free = SimConfig::default();
        let capped = SimConfig {
            max_rounds: 2,
            ..free
        };
        let cold = sum_of(&values).run_on(&g, &partition, &shortcut, 0, free);

        let mut forest = AggForest::unrooted(&partition, &map);
        for seeded in [0, partition.num_parts()] {
            let cut =
                sum_of(&values).run_masked(&g, &partition, (0, capped), &map, &mut forest, ECHO);
            assert!(cut.metrics.truncated && cut.rooted_parts == seeded);
            assert_eq!(forest, AggForest::unrooted(&partition, &map));
            let rerooted =
                sum_of(&values).run_masked(&g, &partition, (0, free), &map, &mut forest, ECHO);
            assert_eq!(rerooted.rooted_parts, 0);
            assert_eq!(rerooted.metrics.counts(), cold.metrics.counts());
            assert_eq!(rerooted.results, cold.results);
            assert_eq!(rooted_parts(&forest), partition.num_parts());
        }
    }

    /// The relay island of `disconnected_shortcut_reports_uninformed` never
    /// hears the wave, so its part's tree is unfinished: it is never
    /// cached, and every run pays the echo again instead of waiting for an
    /// `Up` the island cannot send.
    #[test]
    fn unfinished_part_is_never_seeded() {
        let g = gen::path(8);
        let parts = vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2), NodeId(3)]];
        let partition = Partition::from_parts(&g, parts).unwrap();
        let far = g.find_edge(NodeId(6), NodeId(7)).unwrap();
        let s = Shortcut::from_edge_lists(vec![vec![far], vec![]]);
        let map = ParticipationMap::build(&g, &partition, &s);
        let sim = SimConfig::default();
        let values = vec![1; 8];
        let mut forest = AggForest::unrooted(&partition, &map);
        let first = sum_of(&values).run_masked(&g, &partition, (0, sim), &map, &mut forest, ECHO);
        assert!(!first.metrics.terminated && first.all_members_informed);
        assert_eq!(
            forest.root,
            [NO_ROOT, 2],
            "only the connected part is rooted"
        );
        let again = sum_of(&values).run_masked(&g, &partition, (0, sim), &map, &mut forest, ECHO);
        assert_eq!(again.rooted_parts, 1);
        assert_eq!(again.results, vec![Some(2), Some(2)]);
        assert!(!again.metrics.terminated && again.all_members_informed);
        // Part 0 re-floods its 1 participating edge (Offer + Adopt), part 1
        // only converge- and broadcasts.
        assert_eq!(first.metrics.messages, 8);
        assert_eq!(again.metrics.messages, 4 + 2);
        assert_eq!(forest.root, [NO_ROOT, 2]);
    }

    /// A tree is only good for the leader it is rooted at: explicit leaders
    /// elsewhere (`aggregate_with_leaders`) run the cold echo, which
    /// re-roots the parts at the new leaders. `leaders: None` asks for any
    /// leader, so the run after that rides the new roots in every part
    /// instead of re-rooting at the minimum members.
    #[test]
    fn foreign_leader_reroots_the_part() {
        let (g, partition, shortcut) = grid_setup(6);
        let k = partition.num_parts();
        let map = ParticipationMap::build(&g, &partition, &shortcut);
        let sim = SimConfig::default();
        let values: Vec<u64> = (0..g.num_nodes() as u64).collect();
        let mut last: Vec<NodeId> = partition
            .iter()
            .map(|(_, nodes)| *nodes.last().unwrap())
            .collect();
        last[0] = partition.part(PartId(0))[0]; // part 0 keeps its default leader
        let elsewhere = AggregateOp {
            leaders: Some(&last),
            ..sum_of(&values)
        };
        let cold = elsewhere.run_on(&g, &partition, &shortcut, 0, sim);

        let mut forest = AggForest::unrooted(&partition, &map);
        sum_of(&values).run_masked(&g, &partition, (0, sim), &map, &mut forest, ECHO);
        let moved = elsewhere.run_masked(&g, &partition, (0, sim), &map, &mut forest, ECHO);
        assert_eq!(moved.rooted_parts, 1);
        assert_eq!(moved.results, cold.results);
        assert!(moved.metrics.terminated && moved.all_members_informed);
        assert_eq!(forest.root, last.iter().map(|l| l.0).collect::<Vec<_>>());
        let warm = elsewhere.run_masked(&g, &partition, (0, sim), &map, &mut forest, ECHO);
        assert_eq!((warm.rooted_parts, &warm.results), (k, &cold.results));
        let back = sum_of(&values).run_masked(&g, &partition, (0, sim), &map, &mut forest, ECHO);
        assert_eq!((back.rooted_parts, &back.results), (k, &cold.results));
        assert_eq!(back.metrics.messages, warm.metrics.messages);
    }

    #[test]
    fn edgeless_member_owns_an_empty_slot() {
        // Node 0 is a singleton part without shortcut edges: no edge of
        // G[P_0] + H_0 touches it, yet it leads and finishes its part.
        let g = gen::path(3);
        let parts = vec![vec![NodeId(0)], vec![NodeId(1), NodeId(2)]];
        let partition = Partition::from_parts(&g, parts).unwrap();
        let shortcut = Shortcut::empty(partition.num_parts());
        let map = ParticipationMap::build(&g, &partition, &shortcut);
        let slots = map.node(NodeId(0));
        assert_eq!(slots.parts(), &[0]);
        assert!(slots.ports(0).is_empty());
        let out = run_cold(
            AggregateOp {
                values: &[5, 6, 7],
                op: AggOp::Sum,
                leaders: None,
            },
            &g,
            &partition,
            &shortcut,
        );
        assert!(out.metrics.terminated && out.all_members_informed);
        assert_eq!(out.results, vec![Some(5), Some(13)]);
    }

    #[test]
    fn relay_of_many_parts_resolves_slots() {
        // Eleven singleton leaf parts whose H_i is the member's spoke plus
        // a spoke to a second, relay-only leaf: the hub relays all eleven
        // parts and is a member of none.
        let g = gen::star(23);
        let parts: Vec<Vec<NodeId>> = (0..11).map(|i| vec![NodeId(2 * i + 1)]).collect();
        let partition = Partition::from_parts(&g, parts).unwrap();
        let spokes = |i: u32| {
            [2 * i + 1, 2 * i + 2].map(|leaf| g.find_edge(NodeId(0), NodeId(leaf)).unwrap())
        };
        let shortcut = Shortcut::from_edge_lists((0..11).map(|i| spokes(i).to_vec()).collect());
        let map = ParticipationMap::build(&g, &partition, &shortcut);
        let hub = map.node(NodeId(0));
        assert_eq!(hub.parts(), (0..11).collect::<Vec<u32>>());
        for part in 0..11 {
            assert_eq!(hub.ports(hub.slot_of(part)), &[2 * part, 2 * part + 1]);
        }
        let values: Vec<u64> = (0..23).collect();
        let out = run_cold(
            AggregateOp {
                values: &values,
                op: AggOp::Sum,
                leaders: None,
            },
            &g,
            &partition,
            &shortcut,
        );
        // Relays contribute the identity: each part's sum is its member's value.
        assert!(out.metrics.terminated && out.all_members_informed);
        let expect: Vec<Option<u64>> = (0..11).map(|i| Some(2 * i + 1)).collect();
        assert_eq!(out.results, expect);
    }

    /// A part at the bottom of a path whose `H_i` is its whole path up to
    /// the BFS root: no member sits below the relays, so the cold echo
    /// prunes them and a warm run sends one `Up` and one `Down` per
    /// non-root member, in rounds that do not grow with the relay chain.
    #[test]
    fn relay_chain_above_the_part_is_pruned() {
        let members = 5u32;
        let runs = [8u32, 64].map(|relays| {
            let n = relays + members;
            let g = gen::path(n as usize);
            let part = (relays..n).map(NodeId).collect();
            let partition = Partition::from_parts(&g, vec![part]).unwrap();
            let chain = (0..relays).map(|v| g.find_edge(NodeId(v), NodeId(v + 1)).unwrap());
            let shortcut = Shortcut::from_edge_lists(vec![chain.collect()]);
            let map = ParticipationMap::build(&g, &partition, &shortcut);
            let sim = SimConfig::default();
            let values = vec![1; n as usize];
            let mut forest = AggForest::unrooted(&partition, &map);
            let cold =
                sum_of(&values).run_masked(&g, &partition, (0, sim), &map, &mut forest, ECHO);
            let warm =
                sum_of(&values).run_masked(&g, &partition, (0, sim), &map, &mut forest, ECHO);
            for out in [&cold, &warm] {
                assert!(out.metrics.terminated && out.all_members_informed);
                assert_eq!(out.results, [Some(u64::from(members))]);
            }
            let pruned = pruned_slots(&g, &partition, &map, &forest);
            assert_eq!(pruned, u64::from(relays));
            let non_roots = map.slot_part.len() as u64 - 1;
            assert_eq!(
                cold.metrics.messages,
                map.ports.len() as u64 + 2 * non_roots - pruned
            );
            assert_eq!(warm.metrics.messages, 2 * u64::from(members - 1));
            (cold.metrics.rounds, warm.metrics.rounds)
        });
        assert!(runs[0].0 < runs[1].0, "the cold echo walks the chain");
        assert_eq!(runs[0].1, runs[1].1, "the warm run does not");
    }

    /// Two rooted trees joined by an edge are one rooted tree: for every
    /// pair of adjacent voronoi cells, the cell holding `inside` joins the
    /// one holding `far` (`H` of the merged part the union of theirs, every
    /// other part unchanged). Whenever the carried forest roots every part,
    /// the next run is warm throughout — `Up` / `Down` over the kept slots
    /// only — and answers like the centralized aggregate; the merged tree
    /// keeps the far part's root.
    #[test]
    fn joined_trees_run_warm() {
        let g = gen::road_like(12, 12, 3);
        let cells = gen::voronoi_parts_seeded(&g, 9, 3);
        let partition = Partition::from_parts(&g, cells).unwrap();
        let tree = bfs::bfs_tree(&g, NodeId(0));
        let shortcut = full_shortcut(&g, &tree, &partition, &ShortcutConfig::default()).shortcut;
        let map = ParticipationMap::build(&g, &partition, &shortcut);
        let values: Vec<u64> = (0..g.num_nodes() as u64).map(|x| (x * 37) % 101).collect();
        let sim = SimConfig::default();
        let mut forest = AggForest::unrooted(&partition, &map);
        sum_of(&values).run_masked(&g, &partition, (0, sim), &map, &mut forest, ECHO);
        assert_eq!(rooted_parts(&forest), partition.num_parts());

        let mut pairs = std::collections::BTreeSet::new();
        let mut warm = 0;
        for er in g.edges() {
            let (a, b) = (
                partition.part_of(er.u).unwrap(),
                partition.part_of(er.v).unwrap(),
            );
            if a >= b || !pairs.insert((a, b)) {
                continue;
            }
            // Part `b` joins part `a`; the parts after `b` move down by one.
            let (merged, transition) = partition.merge(&g, vec![(b, er.v, er.u)]).unwrap();
            let mut fresh = Shortcut::empty(merged.num_parts());
            fresh.set_edges(a, [shortcut.edges_for(a), shortcut.edges_for(b)].concat());
            let merged_shortcut = shortcut.clone().carried_over(&transition, fresh);
            let next = ParticipationMap::build(&g, &merged, &merged_shortcut);
            let (mut carried, _) =
                forest.carried_over(&g, &map, &merged, &next, &transition, usize::MAX);
            let k = merged.num_parts();
            let out = sum_of(&values).run_masked(&g, &merged, (0, sim), &next, &mut carried, ECHO);
            assert!(out.metrics.terminated && out.all_members_informed);
            let expect = crate::centralized_aggregate(&merged, &values, AggOp::Sum);
            assert_eq!(
                out.results,
                expect.into_iter().map(Some).collect::<Vec<_>>()
            );
            if out.rooted_parts == k {
                warm += 1;
                assert_eq!(carried.root[a.index()], forest.root[a.index()]);
                let non_roots = (next.slot_part.len() - k) as u64;
                let pruned = pruned_slots(&g, &merged, &next, &carried);
                assert_eq!(out.metrics.messages, 2 * (non_roots - pruned));
            } else {
                assert_eq!(out.rooted_parts, k - 1, "only the merged part echoes");
            }
        }
        assert!(warm > 0, "no join carried every part");
    }

    /// Two rim arcs of a wheel, `A = 1..=5` and `B = 6..=10`, each with the
    /// spokes of its two ends as `H`: the hub relays both trees, below
    /// node 1 in `A` and node 6 in `B`. `A` joins `B` over the rim edge
    /// 5–6, so re-rooted at 5 its tree hangs the hub from 5. In the merged
    /// part the hub keeps `B`'s parent 6, takes both child sets and sends
    /// its dropped parent 5 the one detach: the part comes out rooted at
    /// 6 as one tree, and the next run to the extreme is warm.
    #[test]
    fn a_relay_shared_by_two_constituents_keeps_one_parent() {
        let g = gen::wheel(11);
        let arcs = vec![(1..6).map(NodeId).collect(), (6..11).map(NodeId).collect()];
        let partition = Partition::from_parts(&g, arcs).unwrap();
        let spokes = |ends: &[u32]| {
            let spoke = |&v: &u32| g.find_edge(NodeId(0), NodeId(v)).unwrap();
            ends.iter().map(spoke).collect::<Vec<_>>()
        };
        let h = Shortcut::from_edge_lists(vec![spokes(&[1, 5]), spokes(&[6, 10])]);
        let before = rooted(&g, &partition, &h);
        assert_eq!(parent_of(&g, &before, 0, 0), Some(1));
        assert_eq!(parent_of(&g, &before, 0, 1), Some(6));

        let join = vec![(PartId(0), NodeId(5), NodeId(6))];
        let (merged, transition) = partition.merge(&g, join).unwrap();
        let h = Shortcut::from_edge_lists(vec![spokes(&[1, 5, 6, 10])]);
        let map = ParticipationMap::build(&g, &merged, &h);
        let (carried, detaches) =
            (before.1).carried_over(&g, &before.0, &merged, &map, &transition, usize::MAX);
        assert_eq!(detaches, 1);
        assert_eq!(carried.root, [6]);
        assert!(carried.heights(&g, &map)[0].is_some());
        let mut after = (map, carried);
        assert_eq!(parent_of(&g, &after, 0, 0), Some(6));
        assert_eq!(parent_of(&g, &after, 5, 0), Some(6));
        assert_eq!(parent_of(&g, &after, 1, 0), Some(0));

        let values: Vec<u64> = (0..11).map(|x| x * 7 % 11).collect();
        let min = AggregateOp {
            op: AggOp::Min,
            ..sum_of(&values)
        };
        let sim = SimConfig::default();
        let (map, forest) = &mut after;
        let edges: usize = forest.tree_edges(map).iter().sum();
        let path = depth(&g, map, forest, NodeId(8), 0); // 8 holds the minimum, 1
        let shape = (Wave::ToExtreme, None);
        let out = min.run_masked(&g, &merged, (0, sim), map, forest, shape);
        assert!(out.metrics.terminated && out.all_members_informed);
        assert_eq!((out.rooted_parts, out.results), (1, vec![Some(1)]));
        assert_eq!(out.metrics.messages, edges as u64 + path);
    }

    /// A kept relay — the wheel's hub, under every rim node that adopted
    /// it — loses one of its tree's spokes from `H`: the part comes out
    /// unrooted, and the cold echo over the new table still answers. A
    /// spoke the tree does not use may go without unrooting anything.
    #[test]
    fn a_vanished_relay_port_unroots_its_part() {
        let g = gen::wheel(8);
        let rim: Vec<NodeId> = (1..8).map(NodeId).collect();
        let partition = Partition::from_parts(&g, vec![rim]).unwrap();
        let spokes: Vec<_> = (1..8)
            .map(|v| g.find_edge(NodeId(0), NodeId(v)).unwrap())
            .collect();
        let map = ParticipationMap::build(
            &g,
            &partition,
            &Shortcut::from_edge_lists(vec![spokes.clone()]),
        );
        let values: Vec<u64> = (0..8).collect();
        let sim = SimConfig::default();
        let mut forest = AggForest::unrooted(&partition, &map);
        sum_of(&values).run_masked(&g, &partition, (0, sim), &map, &mut forest, ECHO);
        let hub = map.slot_of(NodeId(0), 0).unwrap();
        assert_ne!(forest.parent[hub], NO_PORT, "the hub is a kept relay");
        let hub_ports = map.node(NodeId(0)).ports(0);
        let used = |port: u32| {
            let at = hub_ports.binary_search(&port).unwrap();
            port == forest.parent[hub] || forest.child[map.first_port[hub] as usize + at]
        };
        let (_, identity) = partition.reassign(&g, &[]).unwrap();
        let mut unrooted = 0;
        for (v, spoke) in (1..8).zip(&spokes) {
            let port = g.port_to(NodeId(0), NodeId(v)).unwrap() as u32;
            let kept: Vec<_> = spokes.iter().copied().filter(|e| e != spoke).collect();
            let next =
                ParticipationMap::build(&g, &partition, &Shortcut::from_edge_lists(vec![kept]));
            let (mut carried, _) =
                forest.carried_over(&g, &map, &partition, &next, &identity, usize::MAX);
            let out =
                sum_of(&values).run_masked(&g, &partition, (0, sim), &next, &mut carried, ECHO);
            assert!(out.metrics.terminated && out.all_members_informed);
            assert_eq!(out.results, [Some(28)]);
            assert_eq!(out.rooted_parts, usize::from(!used(port)), "spoke {port}");
            unrooted += usize::from(used(port));
        }
        assert!(unrooted > 0);
    }

    /// Rows of a 6 × 6 grid without shortcut edges: each row's tree is the
    /// path from its first node.
    fn grid_rows() -> (Graph, Vec<Vec<NodeId>>) {
        (gen::grid(6, 6), gen::rows_of_grid(6, 6))
    }

    fn edges(g: &Graph, pairs: &[(u32, u32)]) -> Vec<lcs_graph::EdgeId> {
        let edge = |&(a, b)| g.find_edge(NodeId(a), NodeId(b)).unwrap();
        pairs.iter().map(edge).collect()
    }

    /// A member that leaves its part from a leaf of the part's tree is
    /// dropped from it, and so is its parent's child flag: the part stays
    /// rooted and the next run is warm. On a grid row the parent is a
    /// member. On a 5-cycle whose part `{0, 1, 2, 3}` has `H = {0–4, 4–3}`
    /// the leaf 3 hangs below the relay 4, which the departure leaves with
    /// no member below it: the warm run sends one `Empty` from it.
    #[test]
    fn a_departed_leaf_is_unhooked() {
        let (g, mut rows) = grid_rows();
        let partition = Partition::from_parts(&g, rows.clone()).unwrap();
        let no_h = Shortcut::empty(partition.num_parts());
        let mut before = rooted(&g, &partition, &no_h);
        assert_eq!(parent_of(&g, &before, 5, 0), Some(4));
        rows[0].pop(); // node 5 now belongs to no part
        let after = Partition::from_parts(&g, rows).unwrap();
        assert_eq!(churn(&g, &mut before, &after, &no_h), (6, 0));

        let g = gen::cycle(5);
        let partition = Partition::from_parts(&g, vec![(0..4).map(NodeId).collect()]).unwrap();
        let h = Shortcut::from_edge_lists(vec![edges(&g, &[(0, 4), (4, 3)])]);
        let mut before = rooted(&g, &partition, &h);
        assert_eq!(parent_of(&g, &before, 3, 0), Some(4));
        let after = Partition::from_parts(&g, vec![(0..3).map(NodeId).collect()]).unwrap();
        assert_eq!(churn(&g, &mut before, &after, &h), (1, 1));
    }

    /// A member that joins a part hangs from a neighbour in it whose slot
    /// is kept, over their edge: grid row 0 grows from `0..4` to `0..6`,
    /// node 4 hangs from 3 and then node 5 from 4. Members are hung in
    /// ascending order, so when row 0 grows from `2..6` to `0..6` node 0,
    /// whose one neighbour in the row is the arrival 1, finds no kept
    /// neighbour: that row echoes cold and the others stay warm.
    #[test]
    fn an_arrival_hangs_from_a_kept_neighbour() {
        let (g, rows) = grid_rows();
        let after = Partition::from_parts(&g, rows.clone()).unwrap();
        let no_h = Shortcut::empty(after.num_parts());
        for (row, carried) in [(0..4, 6), (2..6, 5)] {
            let mut short = rows.clone();
            short[0] = row.map(NodeId).collect();
            let partition = Partition::from_parts(&g, short).unwrap();
            let mut before = rooted(&g, &partition, &no_h);
            assert_eq!(churn(&g, &mut before, &after, &no_h), (carried, 0));
        }
    }

    /// Row 0's root, node 0, leaves the row but keeps its tree edge to
    /// node 1 in `H_0`, so every copied port still participates: without
    /// the rule the part would stay rooted at a node outside it. It comes
    /// out unrooted and echoes; every other row stays warm.
    #[test]
    fn a_departed_root_unroots_its_part() {
        let (g, mut rows) = grid_rows();
        let partition = Partition::from_parts(&g, rows.clone()).unwrap();
        let mut before = rooted(&g, &partition, &Shortcut::empty(partition.num_parts()));
        assert_eq!(before.1.root[0], 0);
        rows[0].remove(0);
        let after = Partition::from_parts(&g, rows).unwrap();
        let mut h = vec![Vec::new(); 6];
        h[0] = edges(&g, &[(0, 1)]);
        assert_eq!(
            churn(&g, &mut before, &after, &Shortcut::from_edge_lists(h)),
            (5, 0)
        );
    }

    /// On a 6-cycle rooted at node 0, node 1 leaves the part with its child
    /// 2 below it. With `H = {0–1, 1–2}` its parent port still participates,
    /// so it stays on as a relay and the part runs warm through it; with
    /// `H = {1–2}` its parent port is gone and the part echoes cold.
    #[test]
    fn a_departed_inner_node_keeps_relaying_or_echoes() {
        let g = gen::cycle(6);
        let partition = Partition::from_parts(&g, vec![g.nodes().collect()]).unwrap();
        let before = rooted(&g, &partition, &Shortcut::empty(partition.num_parts()));
        assert_eq!(parent_of(&g, &before, 2, 0), Some(1));
        let after = Partition::from_parts(&g, vec![[0, 2, 3, 4, 5].map(NodeId).to_vec()]).unwrap();
        for (h, carried) in [(&[(0, 1), (1, 2)][..], 1), (&[(1, 2)], 0)] {
            let h = Shortcut::from_edge_lists(vec![edges(&g, h)]);
            assert_eq!(churn(&g, &mut before.clone(), &after, &h), (carried, 0));
        }
    }

    /// A hub relaying 100 000 parts — adjacent pairs of a wheel's rim, each
    /// with its two spokes as `H_i` — receives 100 000 messages in one
    /// inbox on the cold run. Resolving a message's slot is a binary search
    /// of the hub's slots, so that callback costs its inbox, not
    /// `O(inbox · slots)`. Cold and warm runs keep the echo's formula at
    /// this scale: the hub has no member below it in any part, so every
    /// part prunes it.
    #[test]
    #[ignore = "release-mode scale test"]
    fn scale_aggregate_across_a_hub_relaying_100k_parts() {
        let parts = 100_000u32;
        let g = gen::wheel(2 * parts as usize + 1);
        let pair = |i: u32| [NodeId(2 * i + 1), NodeId(2 * i + 2)];
        let pairs = (0..parts).map(|i| pair(i).to_vec()).collect();
        let partition = Partition::from_parts(&g, pairs).unwrap();
        let spokes = |i: u32| pair(i).map(|v| g.find_edge(v, NodeId(0)).unwrap()).to_vec();
        let shortcut = Shortcut::from_edge_lists((0..parts).map(spokes).collect());
        let map = ParticipationMap::build(&g, &partition, &shortcut);
        let ports = map.ports.len() as u64;
        let non_roots = (map.slot_part.len() - partition.num_parts()) as u64;
        let values: Vec<u64> = (0..g.num_nodes() as u64)
            .map(|x| x * 7919 % 100_003)
            .collect();
        let sim = SimConfig::default();
        for op in [AggOp::Min, AggOp::Max] {
            let op = AggregateOp {
                op,
                ..sum_of(&values)
            };
            let expect = crate::centralized_aggregate(&partition, &values, op.op);
            let expect: Vec<Option<u64>> = expect.into_iter().map(Some).collect();
            let mut forest = AggForest::unrooted(&partition, &map);
            let cold = op.run_masked(&g, &partition, (0, sim), &map, &mut forest, ECHO);
            let warm = op.run_masked(&g, &partition, (0, sim), &map, &mut forest, ECHO);
            for (run, out) in [("cold", &cold), ("warm", &warm)] {
                assert!(out.all_members_informed, "{:?} {run}", op.op);
                assert_eq!(out.results, expect, "{:?} {run}", op.op);
            }
            assert_eq!(warm.rooted_parts, partition.num_parts());
            // The hub's slots are the pruned ones: one per part.
            let pruned = pruned_slots(&g, &partition, &map, &forest);
            assert_eq!(pruned, u64::from(parts));
            assert_eq!(cold.metrics.messages, ports + 2 * non_roots - pruned);
            assert_eq!(warm.metrics.messages, 2 * (non_roots - pruned));
            // Cold: offers (100 000 of them into the hub's inbox at once),
            // crossing offers, `Up` / `Empty`, `Down`; warm: `Up`, `Down`
            // along the rim pairs, the hub idle.
            assert_eq!(
                (cold.metrics.rounds, warm.metrics.rounds),
                (4, 2),
                "{:?}",
                op.op
            );
        }
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn foreign_leader_rejected() {
        let (g, partition, shortcut) = grid_setup(4);
        let bad: Vec<NodeId> = vec![NodeId(0); 4];
        let values = vec![0u64; g.num_nodes()];
        run_cold(
            AggregateOp {
                values: &values,
                op: AggOp::Sum,
                leaders: Some(&bad),
            },
            &g,
            &partition,
            &shortcut,
        );
    }

    use lcs_graph::Graph;
}
