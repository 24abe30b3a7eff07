//! Partitions of the vertex set into connected parts (Definition 2.1).

use lcs_graph::components::SubsetSearch;
use lcs_graph::{bfs, Graph, NodeId, PartId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A collection of node-disjoint parts, each inducing a connected subgraph —
/// the input of the part-wise aggregation problem (Definition 2.1).
///
/// Parts need not cover every node (the paper's definition partitions all of
/// `V`, but the shortcut machinery and Boruvka fragments are naturally
/// defined for sub-collections too; uncovered nodes simply belong to no
/// part).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    part_of: Vec<Option<PartId>>,
    parts: Vec<Vec<NodeId>>,
}

/// Ways a part collection can be invalid. [`code`](Self::code) gives each
/// variant a stable machine-readable name, so API layers can map "part not
/// connected" and "node unassigned" to distinct structured errors instead
/// of one collapsed message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// A part is empty.
    EmptyPart(usize),
    /// A node occurs in two parts.
    Overlap(NodeId),
    /// A node id is out of range for the graph.
    OutOfRange(NodeId),
    /// A part does not induce a connected subgraph.
    Disconnected(usize),
    /// A node is not assigned to any part, but the caller required a
    /// covering partition ([`Partition::from_parts_covering`]).
    Uncovered(NodeId),
    /// A part lies outside the connected component the session's spanning
    /// tree spans ([`Partition::check_reachable_from`]): no tree-restricted
    /// shortcut can serve it. The node is the part's first.
    OffTree(NodeId),
}

impl PartitionError {
    /// A stable machine-readable code for this variant — what structured
    /// API errors carry alongside the human-readable message.
    pub fn code(&self) -> &'static str {
        match self {
            Self::EmptyPart(_) => "partition_empty_part",
            Self::Overlap(_) => "partition_overlap",
            Self::OutOfRange(_) => "partition_out_of_range",
            Self::Disconnected(_) => "partition_disconnected",
            Self::Uncovered(_) => "partition_uncovered",
            Self::OffTree(_) => "partition_off_tree",
        }
    }
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyPart(i) => write!(f, "part {i} is empty"),
            Self::Overlap(v) => write!(f, "node {v:?} occurs in two parts"),
            Self::OutOfRange(v) => write!(f, "node {v:?} out of range"),
            Self::Disconnected(i) => write!(f, "part {i} does not induce a connected subgraph"),
            Self::Uncovered(v) => write!(f, "node {v:?} is not assigned to any part"),
            Self::OffTree(v) => write!(
                f,
                "node {v:?} lies outside the spanning tree's component — parts must be \
                 reachable from the tree root"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

impl Partition {
    /// Validates and wraps a part collection in `O(n + Σ_i (|P_i| +
    /// deg(P_i)))`: one search state serves every part's connectivity
    /// check.
    ///
    /// # Errors
    ///
    /// Returns a [`PartitionError`] if a part is empty, parts overlap, a node
    /// is out of range, or a part does not induce a connected subgraph.
    pub fn from_parts(g: &Graph, parts: Vec<Vec<NodeId>>) -> Result<Self, PartitionError> {
        let n = g.num_nodes();
        let mut part_of: Vec<Option<PartId>> = vec![None; n];
        for (i, part) in parts.iter().enumerate() {
            if part.is_empty() {
                return Err(PartitionError::EmptyPart(i));
            }
            for &v in part {
                if v.index() >= n {
                    return Err(PartitionError::OutOfRange(v));
                }
                if part_of[v.index()].is_some() {
                    return Err(PartitionError::Overlap(v));
                }
                part_of[v.index()] = Some(PartId(i as u32));
            }
        }
        let p = Partition { part_of, parts };
        p.check_parts(g, &p.part_ids().collect::<Vec<_>>())?;
        Ok(p)
    }

    /// [`from_parts`](Self::from_parts), additionally requiring every node
    /// of `g` to be covered — the validation partition *sources* (rows,
    /// voronoi, separator levels) use, where an unassigned node is a bug,
    /// not a choice.
    ///
    /// # Errors
    ///
    /// Everything [`from_parts`](Self::from_parts) rejects, plus
    /// [`PartitionError::Uncovered`] for the smallest-id node outside
    /// every part.
    pub fn from_parts_covering(g: &Graph, parts: Vec<Vec<NodeId>>) -> Result<Self, PartitionError> {
        let p = Self::from_parts(g, parts)?;
        if let Some(v) = p.part_of.iter().position(Option::is_none) {
            return Err(PartitionError::Uncovered(NodeId(v as u32)));
        }
        Ok(p)
    }

    /// Requires every part to lie in the connected component of `root` —
    /// what a session whose spanning tree is the BFS tree of `root` can
    /// serve (the Theorem 3.1 sweep walks tree ancestors of part nodes).
    ///
    /// # Errors
    ///
    /// [`PartitionError::OffTree`] for the first part outside it.
    pub fn check_reachable_from(&self, g: &Graph, root: NodeId) -> Result<(), PartitionError> {
        // No part, no search: the graph may even be empty.
        if self.parts.is_empty() {
            return Ok(());
        }
        let reach = bfs::bfs(g, root);
        self.check_within(|v| reach.reached(v))
    }

    /// [`check_reachable_from`](Self::check_reachable_from) against an
    /// explicit membership test. Parts are connected, so a part lies in the
    /// component iff its first node does.
    pub(crate) fn check_within(
        &self,
        in_component: impl Fn(NodeId) -> bool,
    ) -> Result<(), PartitionError> {
        match self.parts.iter().find(|part| !in_component(part[0])) {
            Some(part) => Err(PartitionError::OffTree(part[0])),
            None => Ok(()),
        }
    }

    /// Every node of `g` as its own part (Boruvka's initial fragments).
    pub fn singletons(g: &Graph) -> Self {
        let parts: Vec<Vec<NodeId>> = g.nodes().map(|v| vec![v]).collect();
        let part_of = g.nodes().map(|v| Some(PartId(v.0))).collect();
        Partition { part_of, parts }
    }

    /// Number of parts `k`.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// The nodes of part `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn part(&self, p: PartId) -> &[NodeId] {
        &self.parts[p.index()]
    }

    /// The part containing `v`, or `None` if `v` is uncovered.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the original graph.
    pub fn part_of(&self, v: NodeId) -> Option<PartId> {
        self.part_of[v.index()]
    }

    /// Iterates over `(PartId, nodes)`.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (PartId, &[NodeId])> {
        self.parts
            .iter()
            .enumerate()
            .map(|(i, p)| (PartId(i as u32), p.as_slice()))
    }

    /// All part ids.
    pub fn part_ids(&self) -> impl ExactSizeIterator<Item = PartId> + Clone {
        (0..self.parts.len() as u32).map(PartId)
    }

    /// Whether every node of the graph belongs to some part.
    pub fn covers_all(&self) -> bool {
        self.part_of.iter().all(Option::is_some)
    }

    /// The per-node assignment vector (indexed by node id).
    pub fn assignment(&self) -> &[Option<PartId>] {
        &self.part_of
    }

    /// Applies node-to-part `moves` and returns the resulting partition
    /// together with its [`Transition`]: every part keeps its id, and the
    /// touched parts are each moved node's old part, if any, and its new
    /// part. Later moves see the effect of earlier ones; moving a node to
    /// the part it is already in is a no-op that touches nothing; uncovered
    /// nodes may be moved into a part. `self` is untouched — validation
    /// failures cost nothing (atomicity for callers).
    ///
    /// Only the touched parts are re-validated (they must stay non-empty
    /// and induce connected subgraphs); untouched parts are valid by
    /// construction. Beyond the `O(n)` copy of `self`, the cost is the
    /// touched parts' nodes and incident edges.
    ///
    /// # Errors
    ///
    /// [`PartitionError::OutOfRange`] for a bad node id,
    /// [`PartitionError::EmptyPart`] /
    /// [`PartitionError::Disconnected`] for a touched part left empty or
    /// disconnected.
    ///
    /// # Panics
    ///
    /// Panics if a target [`PartId`] is out of range — parts cannot be
    /// created or destroyed by reassignment.
    pub fn reassign(
        &self,
        g: &Graph,
        moves: &[(NodeId, PartId)],
    ) -> Result<(Partition, Transition), PartitionError> {
        let k = self.parts.len();
        let mut next = self.clone();
        let mut touched = std::collections::BTreeSet::new();
        for &(v, target) in moves {
            if v.index() >= next.part_of.len() {
                return Err(PartitionError::OutOfRange(v));
            }
            assert!(
                target.index() < k,
                "target part {target:?} out of range — reassignment cannot create parts"
            );
            let old = next.part_of[v.index()];
            if old == Some(target) {
                continue;
            }
            if let Some(old) = old {
                next.parts[old.index()].retain(|&u| u != v);
                touched.insert(old);
            }
            next.parts[target.index()].push(v);
            next.part_of[v.index()] = Some(target);
            touched.insert(target);
        }
        let transition = Transition::identity(k, touched.into_iter().collect());
        next.check_parts(g, &transition.touched)?;
        Ok((next, transition))
    }

    /// Merges whole parts into neighbouring ones (a Boruvka phase): each
    /// join `(q, inside, far)` merges part `q` into the part of `far`, a
    /// neighbour of `q`'s member `inside`. The survivors keep their order;
    /// a grown part lists its members ascending and is the only one
    /// validated, as in [`reassign`](Self::reassign).
    ///
    /// # Errors
    ///
    /// [`PartitionError::Disconnected`] for a grown part that is not
    /// connected.
    ///
    /// # Panics
    ///
    /// Panics if `inside` is not in `q`, `far` is uncovered or in `q`, or a
    /// part merges into a part that merges itself.
    pub fn merge(
        &self,
        g: &Graph,
        joins: Vec<(PartId, NodeId, NodeId)>,
    ) -> Result<(Partition, Transition), PartitionError> {
        let mut target: Vec<Option<PartId>> = vec![None; self.parts.len()];
        for &(q, inside, far) in &joins {
            assert_eq!(self.part_of(inside), Some(q), "a join leaves from a member");
            let to = self.part_of(far).filter(|&to| to != q);
            target[q.index()] = Some(to.expect("a join lands in another part"));
        }
        let survivors = target.iter().scan(0, |next, to| {
            let id = PartId(*next);
            *next += u32::from(to.is_none());
            Some(id)
        });
        let mut into: Vec<PartId> = survivors.collect();
        let mut touched = Vec::new();
        for (q, to) in target.iter().enumerate() {
            if let Some(to) = *to {
                assert!(target[to.index()].is_none(), "{to:?} merges itself");
                into[q] = into[to.index()];
                touched.push(into[q]);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let mut parts = vec![Vec::new(); target.iter().filter(|to| to.is_none()).count()];
        for (members, p) in self.parts.iter().zip(&into) {
            parts[p.index()].extend_from_slice(members);
        }
        for p in &touched {
            parts[p.index()].sort_unstable();
        }
        let part_of = self.part_of.iter().map(|q| q.map(|q| into[q.index()]));
        let next = Partition {
            part_of: part_of.collect(),
            parts,
        };
        let transition = Transition {
            into,
            touched,
            joins,
        };
        next.check_parts(g, &transition.touched)?;
        Ok((next, transition))
    }

    /// Checks that each of `parts` is non-empty and induces a connected
    /// subgraph, with one search state for all of them.
    fn check_parts(&self, g: &Graph, parts: &[PartId]) -> Result<(), PartitionError> {
        let mut search = SubsetSearch::new(g.num_nodes());
        for p in parts {
            if self.parts[p.index()].is_empty() {
                return Err(PartitionError::EmptyPart(p.index()));
            }
            if !search.induces_connected(g, &self.parts[p.index()]) {
                return Err(PartitionError::Disconnected(p.index()));
            }
        }
        Ok(())
    }
}

/// How one partition becomes the next — what each artifact over the old
/// one reads to follow it instead of being rebuilt. Only the two mutators
/// produce it: [`Partition::reassign`] (every part keeps its id) and
/// [`Partition::merge`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transition {
    pub(crate) into: Vec<PartId>,
    pub(crate) touched: Vec<PartId>,
    pub(crate) joins: Vec<(PartId, NodeId, NodeId)>,
}

impl Transition {
    /// `k` parts that keep their ids, `touched` (ascending) changed.
    pub(crate) fn identity(k: usize, touched: Vec<PartId>) -> Self {
        Transition {
            into: (0..k as u32).map(PartId).collect(),
            touched,
            joins: Vec::new(),
        }
    }

    /// Per old part, its new part. Untouched parts map one-to-one and in
    /// order, so what is sorted by part id stays sorted.
    pub fn renaming(&self) -> &[PartId] {
        &self.into
    }

    /// The new parts whose members changed, ascending.
    pub fn touched(&self) -> &[PartId] {
        &self.touched
    }

    /// `(old part, inside, far)`: that part merged into the part of `far`
    /// over the edge from its member `inside`.
    pub fn joins(&self) -> &[(PartId, NodeId, NodeId)] {
        &self.joins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcs_graph::{components, gen};
    use proptest::prelude::*;

    #[test]
    fn valid_partition() {
        let g = gen::grid(2, 3);
        let parts = gen::rows_of_grid(2, 3);
        let p = Partition::from_parts(&g, parts).unwrap();
        assert_eq!(p.num_parts(), 2);
        assert!(p.covers_all());
        assert_eq!(p.part_of(NodeId(4)), Some(PartId(1)));
    }

    #[test]
    fn singleton_partition() {
        let g = gen::path(4);
        let p = Partition::singletons(&g);
        assert_eq!(p.num_parts(), 4);
        assert!(p.covers_all());
        assert_eq!(p.part(PartId(2)), &[NodeId(2)]);
    }

    #[test]
    fn partial_coverage_is_allowed() {
        let g = gen::path(5);
        let p = Partition::from_parts(&g, vec![vec![NodeId(0), NodeId(1)]]).unwrap();
        assert!(!p.covers_all());
        assert_eq!(p.part_of(NodeId(4)), None);
        assert_eq!(p.part(PartId(0)), &[NodeId(0), NodeId(1)]);
    }

    #[test]
    fn rejects_overlap() {
        let g = gen::path(3);
        let err = Partition::from_parts(
            &g,
            vec![vec![NodeId(0), NodeId(1)], vec![NodeId(1), NodeId(2)]],
        )
        .unwrap_err();
        assert_eq!(err, PartitionError::Overlap(NodeId(1)));
    }

    #[test]
    fn rejects_disconnected_part() {
        let g = gen::path(4);
        let err = Partition::from_parts(&g, vec![vec![NodeId(0), NodeId(3)]]).unwrap_err();
        assert_eq!(err, PartitionError::Disconnected(0));
    }

    #[test]
    fn rejects_empty_and_out_of_range() {
        let g = gen::path(2);
        assert_eq!(
            Partition::from_parts(&g, vec![vec![]]).unwrap_err(),
            PartitionError::EmptyPart(0)
        );
        assert_eq!(
            Partition::from_parts(&g, vec![vec![NodeId(9)]]).unwrap_err(),
            PartitionError::OutOfRange(NodeId(9))
        );
    }

    #[test]
    fn covering_constructor_distinguishes_uncovered_from_disconnected() {
        let g = gen::path(5);
        // A disconnected part is a `Disconnected` error under both
        // constructors…
        let err = Partition::from_parts_covering(&g, vec![vec![NodeId(0), NodeId(2)]]).unwrap_err();
        assert_eq!(err, PartitionError::Disconnected(0));
        assert_eq!(err.code(), "partition_disconnected");
        // …while a merely-partial cover is `Uncovered` (smallest missing
        // node surfaced) only under the covering constructor.
        let parts = vec![vec![NodeId(0), NodeId(1)]];
        assert!(Partition::from_parts(&g, parts.clone()).is_ok());
        let err = Partition::from_parts_covering(&g, parts).unwrap_err();
        assert_eq!(err, PartitionError::Uncovered(NodeId(2)));
        assert_eq!(err.code(), "partition_uncovered");
        // A full cover passes.
        let p = Partition::from_parts_covering(&g, vec![(0..5).map(NodeId).collect()]).unwrap();
        assert!(p.covers_all());
    }

    #[test]
    fn reassign_moves_nodes_and_reports_touched_parts() {
        let g = gen::grid(3, 3);
        let p = Partition::from_parts(&g, gen::rows_of_grid(3, 3)).unwrap();
        // Move the first node of row 1 into row 0 (stays connected via the
        // column edge).
        let (next, t) = p.reassign(&g, &[(NodeId(3), PartId(0))]).unwrap();
        assert_eq!(t.touched, vec![PartId(0), PartId(1)]);
        assert_eq!(t.into, vec![PartId(0), PartId(1), PartId(2)]);
        assert_eq!(next.part_of(NodeId(3)), Some(PartId(0)));
        assert_eq!(next.part(PartId(1)), &[NodeId(4), NodeId(5)]);
        // The original is untouched.
        assert_eq!(p.part_of(NodeId(3)), Some(PartId(1)));
    }

    #[test]
    fn reassign_noop_touches_nothing() {
        let g = gen::grid(3, 3);
        let p = Partition::from_parts(&g, gen::rows_of_grid(3, 3)).unwrap();
        let (next, t) = p.reassign(&g, &[(NodeId(4), PartId(1))]).unwrap();
        assert!(t.touched.is_empty());
        assert_eq!(next, p);
    }

    #[test]
    fn reassign_rejects_disconnecting_moves() {
        let g = gen::grid(3, 3);
        let p = Partition::from_parts(&g, gen::rows_of_grid(3, 3)).unwrap();
        // Taking the middle of row 1 splits it into {3} and {5}.
        let err = p.reassign(&g, &[(NodeId(4), PartId(0))]).unwrap_err();
        assert_eq!(err, PartitionError::Disconnected(1));
    }

    #[test]
    fn reassign_rejects_emptying_a_part() {
        let g = gen::path(4);
        let p =
            Partition::from_parts(&g, vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]]).unwrap();
        let err = p.reassign(&g, &[(NodeId(2), PartId(0))]).unwrap_err();
        assert_eq!(err, PartitionError::EmptyPart(1));
    }

    #[test]
    fn reassign_covers_uncovered_nodes() {
        let g = gen::path(4);
        let p = Partition::from_parts(&g, vec![vec![NodeId(0), NodeId(1)]]).unwrap();
        let (next, t) = p.reassign(&g, &[(NodeId(2), PartId(0))]).unwrap();
        assert_eq!(t.touched, vec![PartId(0)]);
        assert_eq!(next.part(PartId(0)), &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(next.part_of(NodeId(3)), None);
    }

    /// The path 0–5 in three pairs: the middle pair joins the first over
    /// the edge 2–1 and the last pair survives as part 1. A join whose ends
    /// are not adjacent leaves the merged part disconnected.
    #[test]
    fn merge_renames_the_survivors_in_order() {
        let g = gen::path(6);
        let pairs = (0..3).map(|i| vec![NodeId(2 * i), NodeId(2 * i + 1)]);
        let p = Partition::from_parts(&g, pairs.collect()).unwrap();
        let join = (PartId(1), NodeId(2), NodeId(1));
        let (next, t) = p.merge(&g, vec![join]).unwrap();
        assert_eq!(t.into, vec![PartId(0), PartId(0), PartId(1)]);
        assert_eq!((t.touched, t.joins), (vec![PartId(0)], vec![join]));
        assert_eq!(next.part(PartId(0)), (0..4).map(NodeId).collect::<Vec<_>>());
        assert_eq!(next.part_of(NodeId(5)), Some(PartId(1)));
        let apart = (PartId(2), NodeId(4), NodeId(0));
        let err = p.merge(&g, vec![apart]).unwrap_err();
        assert_eq!(err, PartitionError::Disconnected(0));
    }

    use lcs_graph::{NodeId, PartId};
    /// `from_parts` as it was: the same first pass, then one one-shot
    /// `induces_connected` (fresh marks, fresh queue) per part.
    fn reference_from_parts(g: &Graph, parts: &[Vec<NodeId>]) -> Result<(), PartitionError> {
        let mut seen = std::collections::HashSet::new();
        for (i, part) in parts.iter().enumerate() {
            if part.is_empty() {
                return Err(PartitionError::EmptyPart(i));
            }
            for &v in part {
                if v.index() >= g.num_nodes() {
                    return Err(PartitionError::OutOfRange(v));
                }
                if !seen.insert(v) {
                    return Err(PartitionError::Overlap(v));
                }
            }
        }
        match parts
            .iter()
            .position(|p| !components::induces_connected(g, p))
        {
            Some(i) => Err(PartitionError::Disconnected(i)),
            None => Ok(()),
        }
    }

    /// `reassign`'s verdict from the assignment vector alone: the touched
    /// parts in id order, each re-listed and checked one-shot.
    fn reference_reassign(
        g: &Graph,
        p: &Partition,
        moves: &[(NodeId, PartId)],
    ) -> Result<Vec<Option<PartId>>, PartitionError> {
        let mut assign = p.assignment().to_vec();
        let mut touched = std::collections::BTreeSet::new();
        for &(v, target) in moves {
            if assign[v.index()] != Some(target) {
                touched.extend(assign[v.index()]);
                touched.insert(target);
                assign[v.index()] = Some(target);
            }
        }
        for t in touched {
            let members: Vec<NodeId> = g.nodes().filter(|v| assign[v.index()] == Some(t)).collect();
            if members.is_empty() {
                return Err(PartitionError::EmptyPart(t.index()));
            }
            if !components::induces_connected(g, &members) {
                return Err(PartitionError::Disconnected(t.index()));
            }
        }
        Ok(assign)
    }

    /// A connected graph and connected, partially covering parts.
    fn arb_parts() -> impl Strategy<Value = (Graph, Vec<Vec<NodeId>>, u64)> {
        (0usize..3, 3usize..9, 1usize..8, 0u64..1000).prop_map(|(family, side, k, seed)| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = match family {
                0 => gen::grid(side, side + 1),
                1 => gen::torus(side, side),
                _ => gen::road_like(side, side, seed),
            };
            let parts = gen::random_partial_parts(&g, k, 0.8, &mut rng);
            (g, parts, seed)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Valid part lists with random damage — a node moved between
        /// parts or dropped (disconnections), duplicated (overlaps), a part
        /// emptied — are accepted or rejected exactly as by the per-part
        /// one-shot check: same variant, same index.
        #[test]
        fn from_parts_matches_one_shot_checks((g, mut parts, seed) in arb_parts()) {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1CE);
            for _ in 0..rng.gen_range(0..4) {
                let (a, b) = (rng.gen_range(0..parts.len()), rng.gen_range(0..parts.len()));
                if parts[a].is_empty() {
                    continue;
                }
                let v = parts[a][rng.gen_range(0..parts[a].len())];
                match rng.gen_range(0..8) {
                    0 => parts[a].clear(),
                    1 => parts[b].push(v),
                    _ => {
                        parts[a].retain(|&u| u != v);
                        if rng.gen_bool(0.5) {
                            parts[b].push(v);
                        }
                    }
                }
            }
            let expect = reference_from_parts(&g, &parts);
            prop_assert_eq!(Partition::from_parts(&g, parts).map(|_| ()), expect);
        }

        /// Random move lists: `reassign` accepts exactly the ticks that
        /// leave every touched part non-empty and connected, with the same
        /// first failing part, and an accepted tick is a valid partition.
        #[test]
        fn reassign_matches_one_shot_checks((g, parts, seed) in arb_parts()) {
            let p = Partition::from_parts(&g, parts).unwrap();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xFACE);
            let moves: Vec<(NodeId, PartId)> = (0..rng.gen_range(1..5))
                .map(|_| {
                    // Mostly boundary hops (often accepted), sometimes a
                    // jump to an arbitrary part (mostly disconnecting).
                    let v = NodeId(rng.gen_range(0..g.num_nodes() as u32));
                    let nb = g.heads(v)[rng.gen_range(0..g.degree(v))];
                    let far = PartId(rng.gen_range(0..p.num_parts() as u32));
                    (v, p.part_of(nb).filter(|_| rng.gen_bool(0.8)).unwrap_or(far))
                })
                .collect();
            let expect = reference_reassign(&g, &p, &moves);
            let got = p.reassign(&g, &moves);
            prop_assert_eq!(got.clone().map(|(next, _)| next.assignment().to_vec()), expect);
            if let Ok((next, _)) = got {
                let again = Partition::from_parts(&g, next.iter().map(|(_, m)| m.to_vec()).collect());
                prop_assert_eq!(again, Ok(next));
            }
        }

        /// Random one-hop merges over boundary edges: `merge` equals
        /// `from_parts` on the merged member lists — the survivors in their
        /// order, each with its joiners' members, ascending — and its
        /// transition sends every node's old part to its new one and
        /// touches exactly the parts that gained members.
        #[test]
        fn merge_matches_from_parts((g, mut parts, seed) in arb_parts()) {
            for part in &mut parts {
                part.sort_unstable();
            }
            let p = Partition::from_parts(&g, parts).unwrap();
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x3E6E);
            let mut target: Vec<Option<PartId>> = vec![None; p.num_parts()];
            let mut joins = Vec::new();
            for er in g.edges() {
                let (Some(a), Some(b)) = (p.part_of(er.u), p.part_of(er.v)) else { continue };
                let busy = |q: PartId| target[q.index()].is_some() || target.contains(&Some(q));
                if a != b && rng.gen_bool(0.3) && !busy(a) && target[b.index()].is_none() {
                    target[a.index()] = Some(b);
                    joins.push((a, er.u, er.v));
                }
            }
            let survivors = p.part_ids().filter(|q| target[q.index()].is_none());
            let lists: Vec<Vec<NodeId>> = survivors
                .map(|q| {
                    let mut list: Vec<NodeId> = (p.part_ids())
                        .filter(|&r| r == q || target[r.index()] == Some(q))
                        .flat_map(|r| p.part(r).to_vec())
                        .collect();
                    list.sort_unstable();
                    list
                })
                .collect();
            let (next, t) = p.merge(&g, joins.clone()).unwrap();
            prop_assert_eq!(&next, &Partition::from_parts(&g, lists).unwrap());
            for v in g.nodes() {
                prop_assert_eq!(next.part_of(v), p.part_of(v).map(|q| t.into[q.index()]));
            }
            let gained = |q: &PartId| target.iter().flatten().any(|to| t.into[to.index()] == *q);
            prop_assert_eq!(t.touched.clone(), next.part_ids().filter(gained).collect::<Vec<_>>());
            prop_assert_eq!(t.joins, joins);
        }
    }

    /// Validation costs the parts, not `k · n`: 200 000 singleton parts
    /// (4·10¹⁰ mark writes when every part's check cleared all of them).
    #[test]
    fn from_parts_on_many_singletons() {
        let g = gen::path(200_000);
        let p = Partition::from_parts(&g, gen::singleton_parts(&g)).unwrap();
        assert_eq!(p.num_parts(), 200_000);
    }
}
