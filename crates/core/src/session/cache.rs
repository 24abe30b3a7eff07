//! The artifact model: two mutable inputs with epoch counters, dependency
//! sets as data, one cache routine ([`Slot::ensure`]) every artifact class
//! goes through, the mutation API that moves the epochs, and the typed
//! per-op artifact table.

use super::{SessionError, ShortcutSession};
use crate::{Partition, PartitionError};
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{EdgeId, NodeId, PartId};
use serde::{Deserialize, Serialize};
use std::any::{Any, TypeId};
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::sync::Arc;

/// The two inputs of a session that can change under it. The graph, the
/// tree and the configuration are fixed at
/// [`build`](super::SessionBuilder::build) — artifacts that read only
/// those never go stale. Every cached artifact declares the subset it
/// depends on (see [`deps`]); mutating an input bumps its epoch in
/// [`Epochs`] and thereby invalidates exactly the artifacts that declared
/// it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Input {
    /// The partition, mutated by
    /// [`set_partition`](ShortcutSession::set_partition) and
    /// [`reassign_parts`](ShortcutSession::reassign_parts).
    Partition,
    /// The edge weights, mutated by
    /// [`set_weights`](ShortcutSession::set_weights) and
    /// [`update_weights`](ShortcutSession::update_weights).
    Weights,
}

/// Per-input epoch counters. A cached artifact records the epochs at build
/// time; it is fresh while that stamp [`agrees_on`](Epochs::agrees_on) the
/// artifact's declared dependencies with the session's current epochs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Epochs {
    /// Epoch of the partition input.
    pub partition: u64,
    /// Epoch of the edge-weights input.
    pub weights: u64,
}

impl Epochs {
    /// The counter of one input.
    pub fn of(&self, input: Input) -> u64 {
        match input {
            Input::Partition => self.partition,
            Input::Weights => self.weights,
        }
    }

    /// Whether `self` and `other` agree on every input in `deps`.
    pub fn agrees_on(&self, other: &Epochs, deps: &[Input]) -> bool {
        deps.iter().all(|&d| self.of(d) == other.of(d))
    }
}

/// Declared dependency sets of the session's artifact classes. Custom op
/// artifacts pick one of these (or any `&'static [Input]`) when calling
/// [`op_artifact_with`](ShortcutSession::op_artifact_with).
pub mod deps {
    use super::Input;

    /// Shortcut-scoped artifacts — the full shortcut (with its quality
    /// report) and partition-derived op artifacts (e.g. the partwise
    /// participation tables).
    pub const SHORTCUT: &[Input] = &[Input::Partition];
    /// Weighted whole-graph algorithms (MST): weights but no partition.
    pub const WEIGHTED: &[Input] = &[Input::Weights];
    /// What reads only the graph, the tree and the configuration — the
    /// spanning tree itself, unweighted whole-graph algorithms
    /// (connectivity, min-cut). Never stale.
    pub const TOPOLOGY_ONLY: &[Input] = &[];
}

/// Build/hit/invalidation counters of one artifact class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtifactStats {
    /// Times the artifact was (re)built from scratch.
    pub builds: u64,
    /// Times a cached value was served.
    pub hits: u64,
    /// Times a cached value was discarded because a dependency epoch
    /// bumped.
    pub invalidations: u64,
}

/// Per-artifact-class cache observability: how often each artifact was
/// built, served from cache, and invalidated — the serving-process view of
/// the [module docs](super)' artifact graph. Serde-able, so a daemon can
/// export it as-is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// The spanning tree.
    pub tree: ArtifactStats,
    /// The full shortcut artifact.
    pub full: ArtifactStats,
    /// The quality report (cached inside the full artifact it measures,
    /// patched and dropped with it).
    pub quality: ArtifactStats,
    /// Typed op artifacts (summed over artifact types).
    pub op_artifacts: ArtifactStats,
    /// Incremental re-customizations of the full shortcut performed by
    /// [`reassign_parts`](ShortcutSession::reassign_parts) churn. These do
    /// **not** count as `full.builds` — that is the point.
    pub recustomizations: u64,
    /// Total parts re-customized across all recustomizations.
    pub recustomized_parts: u64,
    /// Op artifacts refreshed incrementally via
    /// [`op_artifact_patched`](ShortcutSession::op_artifact_patched)
    /// instead of rebuilt.
    pub op_artifact_patches: u64,
}

/// A cached artifact: the value, the input epochs it was built under, and
/// the inputs it depends on.
#[derive(Clone, Debug)]
pub(super) struct Slot<T> {
    pub(super) value: T,
    pub(super) stamp: Epochs,
    deps: &'static [Input],
}

impl<T> Slot<T> {
    pub(super) fn new(value: T, stamp: Epochs, deps: &'static [Input]) -> Self {
        Slot { value, stamp, deps }
    }

    /// Whether no declared dependency moved since the stamp.
    pub(super) fn fresh(&self, now: &Epochs) -> bool {
        self.stamp.agrees_on(now, self.deps)
    }

    /// The cache routine of every artifact class: a fresh `cell` is a hit
    /// and comes back as it is; a stale one is invalidated (dropped before
    /// its replacement is built); a missing or dropped one is built and
    /// stamped with the current epochs. A `build` that fails stamps
    /// nothing and counts no build. `class` picks the counters to tick.
    /// The caller takes `cell` out of the session and stores the returned
    /// slot back, so `build` may drive the whole session — but must not
    /// mutate its inputs.
    pub(super) fn ensure<'g, E>(
        cell: Option<Self>,
        session: &mut ShortcutSession<'g>,
        deps: &'static [Input],
        class: fn(&mut CacheStats) -> &mut ArtifactStats,
        build: impl FnOnce(&mut ShortcutSession<'g>) -> Result<T, E>,
    ) -> Result<Self, E> {
        let now = session.epochs;
        if let Some(slot) = cell {
            if slot.fresh(&now) {
                class(&mut session.stats).hits += 1;
                return Ok(slot);
            }
            class(&mut session.stats).invalidations += 1;
        }
        let value = build(session)?;
        debug_assert_eq!(
            session.epochs, now,
            "artifact builders must not mutate session inputs"
        );
        class(&mut session.stats).builds += 1;
        Ok(Slot::new(value, now, deps))
    }
}

/// A typed op artifact, shared with the ops that read it.
pub(super) type OpValue = Arc<dyn Any + Send + Sync>;

fn downcast<T: Any + Send + Sync>(value: OpValue) -> Arc<T> {
    value
        .downcast::<T>()
        .unwrap_or_else(|_| unreachable!("op-artifact slots are keyed by their TypeId"))
}

/// One entry of the partition-mutation log: what changed when the
/// partition epoch moved by one.
pub(super) enum PartitionDelta {
    /// Node moves touching exactly these parts.
    Reassigned(Vec<PartId>),
    /// A wholesale replacement — no incremental refresh possible across it.
    Wholesale,
}

/// Mutations older than this fall off the log; artifacts stamped before
/// the window rebuild from scratch instead of patching.
const PARTITION_LOG_CAP: usize = 64;

impl<'g> ShortcutSession<'g> {
    /// Replaces the partition wholesale, validating the raw node lists,
    /// and bumps the [`Input::Partition`] epoch: every partition-scoped
    /// artifact is invalidated (lazily) and rebuilt on next access.
    ///
    /// For small membership changes prefer
    /// [`reassign_parts`](Self::reassign_parts), which re-customizes
    /// incrementally instead.
    ///
    /// # Errors
    ///
    /// Returns the validation error — including
    /// [`PartitionError::OffTree`] for a part the session tree cannot
    /// reach — without changing the session.
    pub fn set_partition(&mut self, parts: Vec<Vec<NodeId>>) -> Result<(), PartitionError> {
        let partition = Partition::from_parts(&self.g, parts)?;
        self.check_parts_on_tree(&partition)?;
        self.install_partition(partition, PartitionDelta::Wholesale);
        Ok(())
    }

    /// Refuses a partition with a part outside the component the session
    /// tree spans — the root's, or a provided tree's: the sweep asserts on
    /// such a part, so it is turned away where a partition is installed.
    /// [`reassign_parts`](Self::reassign_parts) needs no check: a move
    /// keeps both parts connected, hence inside their component.
    pub(super) fn check_parts_on_tree(&self, partition: &Partition) -> Result<(), PartitionError> {
        match &self.tree {
            Some(tree) => partition.check_within(|v| tree.value.contains(v)),
            None => partition.check_reachable_from(&self.g, self.root),
        }
    }

    /// Moves nodes between existing parts and re-customizes incrementally.
    ///
    /// Validation is atomic (see [`Partition::reassign`]): on error the
    /// session is unchanged. On success the [`Input::Partition`] epoch
    /// bumps, but the touched parts are remembered — when the full
    /// shortcut (or quality report) is next needed and is stale *only*
    /// because of such tracked reassignments, the session runs a mini
    /// doubling search over just the touched parts and splices their
    /// `H_i` into the cached shortcut instead of rebuilding everything.
    /// Per-part quality rows are re-measured for the touched parts only.
    /// Returns the sorted ids of the touched parts (old and new part of
    /// every moved node); an effect-free move list returns an empty vector
    /// without bumping any epoch.
    ///
    /// The re-customization runs on the session backend like the
    /// construction it patches: the distributed backends detect the
    /// touched parts' cut sets on the simulator (sketched on
    /// [`Backend::Sketch`](super::Backend::Sketch)) and charge the rounds
    /// to [`construction_stats`](Self::construction_stats).
    ///
    /// # Errors
    ///
    /// Returns the [`PartitionError`] of the first violated touched part.
    ///
    /// # Panics
    ///
    /// Panics if the session has no partition, or a target part id is out
    /// of range. Use [`try_reassign_parts`](Self::try_reassign_parts) for
    /// the fully fallible form.
    pub fn reassign_parts(
        &mut self,
        moves: &[(NodeId, PartId)],
    ) -> Result<Vec<PartId>, PartitionError> {
        match self.try_reassign_parts(moves) {
            Ok(touched) => Ok(touched),
            Err(SessionError::Partition(e)) => Err(e),
            Err(e) => panic!("{e}"),
        }
    }

    /// [`reassign_parts`](Self::reassign_parts) with every misuse turned
    /// into a typed error: a missing partition and an out-of-range target
    /// part id are reported as [`SessionError::NoPartition`] /
    /// [`SessionError::PartOutOfRange`] instead of a panic, and validation
    /// failures as [`SessionError::Partition`]. On any `Err` the session
    /// is unchanged.
    pub fn try_reassign_parts(
        &mut self,
        moves: &[(NodeId, PartId)],
    ) -> Result<Vec<PartId>, SessionError> {
        let current = self.try_partition()?;
        let num_parts = current.num_parts();
        if let Some(&(_, part)) = moves.iter().find(|(_, p)| p.index() >= num_parts) {
            return Err(SessionError::PartOutOfRange { part, num_parts });
        }
        let (next, touched) = current.reassign(&self.g, moves)?;
        if !touched.is_empty() {
            self.install_partition(next, PartitionDelta::Reassigned(touched.clone()));
        }
        Ok(touched)
    }

    /// Replaces the edge weights, bumping the [`Input::Weights`] epoch —
    /// unless the new weights equal the current ones, in which case this
    /// is a no-op (so repeated calls with the same metric keep weight-
    /// scoped artifacts cached).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the graph's edge count. Use
    /// [`try_set_weights`](Self::try_set_weights) for the fallible form.
    pub fn set_weights(&mut self, weights: EdgeWeights) {
        self.try_set_weights(weights)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`set_weights`](Self::set_weights) with the length mismatch
    /// reported as [`SessionError::WeightCountMismatch`] instead of a
    /// panic. On `Err` the session is unchanged.
    pub fn try_set_weights(&mut self, weights: EdgeWeights) -> Result<(), SessionError> {
        if weights.len() != self.g.num_edges() {
            return Err(SessionError::WeightCountMismatch {
                got: weights.len(),
                expected: self.g.num_edges(),
            });
        }
        if self.weights.as_ref() != Some(&weights) {
            self.weights = Some(weights);
            self.epochs.weights += 1;
        }
        Ok(())
    }

    /// Applies sparse `(edge, new_weight)` updates to the session weights
    /// and bumps the [`Input::Weights`] epoch (no-op for an empty list).
    ///
    /// # Panics
    ///
    /// Panics if the session has no weights, or an edge id is out of
    /// range. Use [`try_update_weights`](Self::try_update_weights) for the
    /// fallible form.
    pub fn update_weights(&mut self, changes: &[(EdgeId, u64)]) {
        self.try_update_weights(changes)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`update_weights`](Self::update_weights) with typed errors: a
    /// missing weight vector is [`SessionError::NoWeights`], an
    /// out-of-range edge id [`SessionError::EdgeOutOfRange`]. Validation
    /// is atomic (via [`EdgeWeights::try_update`]): on `Err` no weight was
    /// written and no epoch bumped, so the serving state stays consistent.
    pub fn try_update_weights(&mut self, changes: &[(EdgeId, u64)]) -> Result<(), SessionError> {
        let w = self.weights.as_mut().ok_or(SessionError::NoWeights)?;
        if changes.is_empty() {
            return Ok(());
        }
        w.try_update(changes)
            .map_err(|e| SessionError::EdgeOutOfRange {
                edge: e.edge,
                num_edges: e.num_edges,
            })?;
        self.epochs.weights += 1;
        Ok(())
    }

    /// The per-op-type derived-artifact cache: returns the artifact of
    /// type `T`, building it with `build` on first access and serving the
    /// same [`Arc`] while every input in `deps` is unchanged; when one
    /// bumps, the slot is invalidated and `build` runs again.
    ///
    /// This is where ops park preprocessing — e.g. the partwise
    /// O(n + m) participation tables ([`deps::SHORTCUT`]) or a cached MST
    /// report ([`deps::WEIGHTED`]). Keyed by [`TypeId`], so each artifact
    /// type has exactly one slot per session. Use
    /// [`op_artifact_patched`](Self::op_artifact_patched) to refresh
    /// incrementally under part churn.
    ///
    /// `build` may drive the session (e.g. call
    /// [`prepare`](Self::prepare) or read [`weights`](Self::weights)) but
    /// must not mutate inputs.
    pub fn op_artifact_with<T, F>(&mut self, deps: &'static [Input], build: F) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce(&mut ShortcutSession<'g>) -> T,
    {
        let key = TypeId::of::<T>();
        let slot = Slot::ensure(
            self.op_artifacts.remove(&key),
            self,
            deps,
            |c| &mut c.op_artifacts,
            |s| Ok::<_, Infallible>(Arc::new(build(s)) as OpValue),
        )
        .unwrap_or_else(|never| match never {});
        let value = slot.value.clone();
        self.op_artifacts.insert(key, slot);
        downcast(value)
    }

    /// [`op_artifact_with`](Self::op_artifact_with) plus an incremental
    /// refresh path: when the cached artifact is stale *only* because of
    /// tracked [`reassign_parts`](Self::reassign_parts) churn, the session
    /// calls `patch(session, old, touched_parts)` instead of `build` —
    /// letting the op recompute just the touched parts' contribution
    /// (keyed off its cached value, e.g. the partwise participation map).
    ///
    /// `patch` runs after the session's own artifacts have been refreshed
    /// for the same churn (so [`shortcut_ref`](Self::shortcut_ref) inside
    /// `patch` sees the incrementally re-customized shortcut, in which
    /// untouched parts' edge lists are unchanged). A wholesale partition
    /// replacement, a pruned mutation log, or staleness in any other
    /// declared dependency falls back to `build`.
    pub fn op_artifact_patched<T, F, P>(
        &mut self,
        deps: &'static [Input],
        build: F,
        patch: P,
    ) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce(&mut ShortcutSession<'g>) -> T,
        P: FnOnce(&mut ShortcutSession<'g>, &T, &[PartId]) -> T,
    {
        let key = TypeId::of::<T>();
        let slot = self.op_artifacts.get(&key);
        let Some(touched) = slot.and_then(|slot| self.patchable_parts(slot)) else {
            return self.op_artifact_with(deps, build);
        };
        let old = downcast::<T>(self.op_artifacts.remove(&key).expect("looked up").value);
        let patched = Arc::new(patch(self, &old, &touched));
        self.stats.op_artifact_patches += 1;
        self.op_artifacts
            .insert(key, Slot::new(patched.clone(), self.epochs, deps));
        patched
    }

    /// Replaces the value in the fresh op-artifact slot of type `T`,
    /// keeping its stamp and dependency set — for an artifact that learns
    /// from the runs it serves (the partwise aggregation forest, harvested
    /// from each aggregate's final states). A stale or missing slot is
    /// left alone: what `value` was derived from is gone. Counts as neither
    /// build, hit nor patch.
    pub fn op_artifact_swap<T: Any + Send + Sync>(&mut self, value: T) {
        let now = self.epochs;
        if let Some(slot) = self.op_artifacts.get_mut(&TypeId::of::<T>()) {
            if slot.fresh(&now) {
                slot.value = Arc::new(value);
            }
        }
    }

    /// Installs `partition` as the session's, bumping the
    /// [`Input::Partition`] epoch and logging what changed.
    fn install_partition(&mut self, partition: Partition, delta: PartitionDelta) {
        self.partition = Some(partition);
        self.epochs.partition += 1;
        self.partition_log.push_back(delta);
        if self.partition_log.len() > PARTITION_LOG_CAP {
            self.partition_log.pop_front();
        }
    }

    /// The parts to refresh when `slot` can be patched instead of rebuilt:
    /// it is stale, catching its stamp up on the partition alone would
    /// make it fresh, and every partition change since the stamp is still
    /// in the log as a tracked reassignment. `None` otherwise — the slot
    /// is fresh, another dependency moved, or the span contains a
    /// wholesale replacement or reaches past the bounded log.
    pub(super) fn patchable_parts<T>(&self, slot: &Slot<T>) -> Option<Vec<PartId>> {
        let now = self.epochs;
        let caught_up = Epochs {
            partition: now.partition,
            ..slot.stamp
        };
        if slot.fresh(&now) || !caught_up.agrees_on(&now, slot.deps) {
            return None;
        }
        // One log entry per partition epoch, newest last.
        let changes = usize::try_from(now.partition - slot.stamp.partition).ok()?;
        let first = self.partition_log.len().checked_sub(changes)?;
        let mut touched = BTreeSet::new();
        for delta in self.partition_log.range(first..) {
            match delta {
                PartitionDelta::Wholesale => return None,
                PartitionDelta::Reassigned(parts) => touched.extend(parts),
            }
        }
        Some(touched.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure_quality;
    use crate::session::Session;
    use lcs_graph::{gen, Graph};

    /// What a mutation did to a cached artifact, read off [`CacheStats`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Cell {
        /// Served as it was: no build, no invalidation, no patch.
        Kept,
        /// Refreshed incrementally: a patch, but no build and no
        /// invalidation.
        Patched,
        /// Invalidated once and built once.
        Rebuilt,
    }
    use Cell::{Kept as K, Patched as P, Rebuilt as R};

    #[derive(Clone, Copy, Debug)]
    enum Mutator {
        SetPartition,
        Reassign,
        ReassignNoop,
        ReassignFailing,
        SetWeightsEqual,
        SetWeights,
        UpdateWeights,
        UpdateWeightsEmpty,
    }
    use Mutator::*;

    #[derive(Clone, Copy, Debug)]
    enum Column {
        Tree,
        Full,
        Quality,
        ShortcutOp,
        WeightedOp,
        TopologyOp,
    }
    const COLUMNS: [Column; 6] = [
        Column::Tree,
        Column::Full,
        Column::Quality,
        Column::ShortcutOp,
        Column::WeightedOp,
        Column::TopologyOp,
    ];

    /// Rows: every mutator. Cells: what it does to each artifact class, in
    /// [`COLUMNS`] order. Last: how far it moves the (partition, weights)
    /// epochs. Widening or narrowing any set in [`deps`] flips a cell.
    #[rustfmt::skip]
    const MATRIX: [(Mutator, [Cell; 6], (u64, u64)); 8] = [
        //                    tree full qual  S  W  T
        (SetPartition,       [K,   R,   R,    R, K, K], (1, 0)),
        (Reassign,           [K,   P,   P,    P, K, K], (1, 0)),
        (ReassignNoop,       [K,   K,   K,    K, K, K], (0, 0)),
        (ReassignFailing,    [K,   K,   K,    K, K, K], (0, 0)),
        (SetWeightsEqual,    [K,   K,   K,    K, K, K], (0, 0)),
        (SetWeights,         [K,   K,   K,    K, R, K], (0, 1)),
        (UpdateWeights,      [K,   K,   K,    K, R, K], (0, 1)),
        (UpdateWeightsEmpty, [K,   K,   K,    K, K, K], (0, 0)),
    ];

    const SIDE: usize = 6;

    /// The three op artifacts, one per dependency set; each records what
    /// it was derived from so a rebuilt value can be told from a stale one.
    struct PartCount(usize);
    struct TotalWeight(u64);
    struct TreeDepth(u32);

    fn part_count(s: &mut ShortcutSession<'_>) -> Arc<PartCount> {
        s.op_artifact_patched(
            deps::SHORTCUT,
            |s| PartCount(s.partition().num_parts()),
            |s, old, touched| {
                assert!(!touched.is_empty(), "a patch follows a tracked move");
                assert_eq!(old.0, s.partition().num_parts(), "moves keep the parts");
                PartCount(old.0)
            },
        )
    }

    fn total_weight(s: &mut ShortcutSession<'_>) -> Arc<TotalWeight> {
        s.op_artifact_with(deps::WEIGHTED, |s| {
            TotalWeight(s.weights().total(s.graph().edges().map(|e| e.id)))
        })
    }

    fn tree_depth(s: &mut ShortcutSession<'_>) -> Arc<TreeDepth> {
        s.op_artifact_with(deps::TOPOLOGY_ONLY, |s| TreeDepth(s.tree().depth_of_tree()))
    }

    impl Mutator {
        fn apply(self, s: &mut ShortcutSession<'_>) {
            let g = s.graph();
            match self {
                SetPartition => {
                    let half = (SIDE * SIDE / 2) as u32;
                    let halves = vec![
                        (0..half).map(NodeId).collect(),
                        (half..2 * half).map(NodeId).collect(),
                    ];
                    s.set_partition(halves).expect("two connected halves");
                }
                // The first node of row 1 joins row 0: both stay connected.
                Reassign => {
                    let touched = s.reassign_parts(&[(NodeId(SIDE as u32), PartId(0))]);
                    assert_eq!(touched, Ok(vec![PartId(0), PartId(1)]));
                }
                ReassignNoop => {
                    let touched = s.reassign_parts(&[(NodeId(SIDE as u32 + 1), PartId(1))]);
                    assert_eq!(touched, Ok(vec![]), "node already in its target part");
                }
                // Moving an interior row node away would disconnect its row.
                ReassignFailing => {
                    let interior = NodeId(SIDE as u32 + 3);
                    let err = s.reassign_parts(&[(interior, PartId(0))]).unwrap_err();
                    assert_eq!(err, PartitionError::Disconnected(1));
                    assert_eq!(s.partition().part_of(interior), Some(PartId(1)));
                }
                SetWeightsEqual => s.set_weights(EdgeWeights::unit(g)),
                SetWeights => {
                    let mut w = EdgeWeights::unit(g);
                    w.try_update(&[(EdgeId(0), 11)]).expect("edge 0 exists");
                    s.set_weights(w);
                }
                UpdateWeights => s.update_weights(&[(EdgeId(0), 11)]),
                UpdateWeightsEmpty => s.update_weights(&[]),
            }
        }
    }

    impl Column {
        /// Reads the column's artifact, checking the served value against
        /// the session's current inputs.
        fn touch(self, s: &mut ShortcutSession<'_>) {
            match self {
                Column::Tree => assert_eq!(s.tree().root(), NodeId(0)),
                Column::Full => assert_eq!(s.shortcut().num_parts(), s.partition().num_parts()),
                Column::Quality => {
                    let served = s.quality().clone();
                    let tree = s.tree().clone();
                    let fresh = measure_quality(s.graph(), s.partition(), &tree, s.shortcut_ref());
                    assert_eq!(served, fresh, "a served report is the current shortcut's");
                }
                Column::ShortcutOp => assert_eq!(part_count(s).0, s.partition().num_parts()),
                Column::WeightedOp => {
                    let total = s.weights().total(s.graph().edges().map(|e| e.id));
                    assert_eq!(total_weight(s).0, total);
                }
                Column::TopologyOp => assert_eq!(tree_depth(s).0, 2 * (SIDE as u32 - 1)),
            }
        }

        /// The column's cell between two stats snapshots around a
        /// [`touch`](Self::touch).
        fn cell(self, before: &CacheStats, after: &CacheStats) -> Cell {
            let recustomized = after.recustomizations - before.recustomizations;
            let (class, class_after, patches) = match self {
                Column::Tree => (before.tree, after.tree, 0),
                Column::Full => (before.full, after.full, recustomized),
                // The report is patched with the shortcut it rides in.
                Column::Quality => (before.quality, after.quality, recustomized),
                Column::ShortcutOp | Column::WeightedOp | Column::TopologyOp => (
                    before.op_artifacts,
                    after.op_artifacts,
                    after.op_artifact_patches - before.op_artifact_patches,
                ),
            };
            let builds = class_after.builds - class.builds;
            let invalidations = class_after.invalidations - class.invalidations;
            match (builds, invalidations, patches) {
                (0, 0, 0) => Cell::Kept,
                (0, 0, 1) => Cell::Patched,
                (1, 1, 0) => Cell::Rebuilt,
                other => panic!("{self:?}: (builds, invalidations, patches) moved by {other:?}"),
            }
        }
    }

    /// A session with every artifact class built and fresh, plus the op
    /// artifacts it serves (a kept cell must keep serving these very
    /// allocations).
    type Warm<'g> = (
        ShortcutSession<'g>,
        (Arc<PartCount>, Arc<TotalWeight>, Arc<TreeDepth>),
    );

    fn warm(g: &Graph) -> Warm<'_> {
        let mut s = Session::on(g)
            .partition(gen::rows_of_grid(SIDE, SIDE))
            .weights(EdgeWeights::unit(g))
            .build()
            .expect("grid rows are valid parts");
        for column in COLUMNS {
            column.touch(&mut s);
        }
        let stats = *s.cache_stats();
        let built_once = ArtifactStats {
            builds: 1,
            invalidations: 0,
            ..stats.tree
        };
        assert_eq!(stats.tree, built_once);
        assert_eq!((stats.full.builds, stats.full.invalidations), (1, 0));
        assert_eq!((stats.quality.builds, stats.quality.invalidations), (1, 0));
        assert_eq!(stats.op_artifacts.builds, 3);
        let served = (part_count(&mut s), total_weight(&mut s), tree_depth(&mut s));
        (s, served)
    }

    #[test]
    fn invalidation_matrix() {
        let g = gen::grid(SIDE, SIDE);
        for (mutator, row, (partition_moves, weights_moves)) in MATRIX {
            for (column, expected) in COLUMNS.into_iter().zip(row) {
                let (mut s, served) = warm(&g);
                let epochs = s.epochs;
                mutator.apply(&mut s);
                assert_eq!(
                    (
                        s.epochs.partition - epochs.partition,
                        s.epochs.weights - epochs.weights
                    ),
                    (partition_moves, weights_moves),
                    "{mutator:?}: epochs"
                );
                let before = *s.cache_stats();
                column.touch(&mut s);
                let cell = column.cell(&before, s.cache_stats());
                assert_eq!(cell, expected, "{mutator:?} × {column:?}");
                // A kept op artifact is the allocation served before; a
                // patched or rebuilt one is a new value.
                let same_allocation = match column {
                    Column::ShortcutOp => Arc::ptr_eq(&served.0, &part_count(&mut s)),
                    Column::WeightedOp => Arc::ptr_eq(&served.1, &total_weight(&mut s)),
                    Column::TopologyOp => Arc::ptr_eq(&served.2, &tree_depth(&mut s)),
                    _ => continue,
                };
                assert_eq!(same_allocation, cell == K, "{mutator:?} × {column:?}");
            }
        }
    }
}
