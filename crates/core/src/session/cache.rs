//! The artifact model: one mutable input with an epoch counter, whether
//! each artifact reads it, one cache routine ([`Slot::ensure`]) every
//! artifact class goes through, the mutation API that moves the epoch, and
//! the typed per-op artifact table.

use super::{SessionError, ShortcutSession};
use crate::{Partition, PartitionError, Transition};
use lcs_graph::{NodeId, PartId};
use serde::{Deserialize, Serialize};
use std::any::{Any, TypeId};
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::sync::Arc;

// Whether an artifact reads the partition, the one input that can change
// under a session (graph, tree and configuration are fixed at build): one
// that does goes stale with every move of the partition epoch.
pub(super) const SHORTCUT_SCOPED: bool = true;
pub(super) const TOPOLOGY_ONLY: bool = false;

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

/// A cached artifact: the value, the partition epoch it was built under,
/// and whether it reads the partition.
#[derive(Clone, Debug)]
pub(super) struct Slot<T> {
    pub(super) value: T,
    pub(super) stamp: u64,
    reads_partition: bool,
}

impl<T> Slot<T> {
    pub(super) fn new(value: T, stamp: u64, reads_partition: bool) -> Self {
        Slot {
            value,
            stamp,
            reads_partition,
        }
    }

    /// Whether the partition, if read, has not moved since the stamp.
    pub(super) fn fresh(&self, now: u64) -> bool {
        !self.reads_partition || self.stamp == now
    }

    /// The cache routine of every artifact class: a fresh `cell` whose
    /// value `answers` the caller is a hit and comes back as it is; any
    /// other is invalidated (dropped before its replacement is built); a
    /// missing or dropped one is built and stamped with the current epoch.
    /// A `build` that fails stamps nothing and counts no build. `class`
    /// picks the counters to tick. The caller takes `cell` out of the
    /// session and stores the returned slot back, so `build` may drive the
    /// whole session — but must not mutate its partition.
    pub(super) fn ensure<'g, E>(
        cell: Option<Self>,
        session: &mut ShortcutSession<'g>,
        reads_partition: bool,
        class: fn(&mut CacheStats) -> &mut ArtifactStats,
        answers: impl FnOnce(&T) -> bool,
        build: impl FnOnce(&mut ShortcutSession<'g>) -> Result<T, E>,
    ) -> Result<Self, E> {
        let now = session.epoch;
        if let Some(slot) = cell {
            if slot.fresh(now) && answers(&slot.value) {
                class(&mut session.stats).hits += 1;
                return Ok(slot);
            }
            class(&mut session.stats).invalidations += 1;
        }
        let value = build(session)?;
        debug_assert_eq!(
            session.epoch, now,
            "artifact builders must not mutate the partition"
        );
        class(&mut session.stats).builds += 1;
        Ok(Slot::new(value, now, reads_partition))
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
    /// and bumps the partition epoch: every partition-scoped artifact is
    /// invalidated (lazily) and rebuilt on next access.
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
    /// Validation is atomic ([`Partition::reassign`]): on error the session
    /// is unchanged. On success the partition epoch bumps and the touched
    /// parts are logged: an artifact stale *only* through such logged
    /// ticks follows their [`Transition`] instead of being rebuilt — the
    /// full shortcut by one mini doubling search over the touched parts,
    /// the quality report by re-measuring their rows. Returns the sorted
    /// touched parts (old and new part of every moved node); an
    /// effect-free move list returns none and does not bump the epoch.
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
        let (next, Transition { touched, .. }) = current.reassign(&self.g, moves)?;
        if !touched.is_empty() {
            self.install_partition(next, PartitionDelta::Reassigned(touched.clone()));
        }
        Ok(touched)
    }

    /// The per-op-type memo of what reads only the graph, the tree and the
    /// configuration (whole-graph algorithms: the MST report, components,
    /// the min-cut estimate): returns the artifact of type `T`, building it
    /// with `build` on first access and serving the same [`Arc`] while
    /// `answers` accepts the cached value; otherwise the slot is
    /// invalidated and `build` runs again. Such a memo never goes stale —
    /// an artifact that reads the partition goes through
    /// [`op_artifact_patched`](Self::op_artifact_patched).
    ///
    /// `answers` is the test of an op keyed by its arguments (the cached
    /// MST report remembers the weights it answers for); an op without
    /// arguments passes `|_| true`. Keyed by [`TypeId`], so each artifact
    /// type has exactly one slot per session.
    ///
    /// `build` may drive the session (e.g. call
    /// [`prepare`](Self::prepare)) but must not mutate the partition.
    pub fn op_artifact_with<T, F>(&mut self, answers: impl FnOnce(&T) -> bool, build: F) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce(&mut ShortcutSession<'g>) -> T,
    {
        self.op_slot(TOPOLOGY_ONLY, answers, build)
    }

    /// The per-op-type cache of a partition-scoped artifact — where ops
    /// park preprocessing such as the part-wise O(n + m) participation
    /// tables: built with `build` on first access, served as the same
    /// [`Arc`] while the partition has not moved, and dropped with the
    /// shortcut. When the cached artifact is stale *only* because of
    /// tracked [`reassign_parts`](Self::reassign_parts) churn, the session
    /// calls `patch(session, old, transition)` instead of `build`, with the
    /// [`Transition`] of all that churn — letting the op recompute just the
    /// touched parts' contribution (keyed off its cached value, e.g. the
    /// partwise participation map).
    ///
    /// `patch` runs after the session's own artifacts have been refreshed
    /// for the same churn (so [`shortcut_ref`](Self::shortcut_ref) inside
    /// `patch` sees the incrementally re-customized shortcut, in which
    /// untouched parts' edge lists are unchanged). A wholesale partition
    /// replacement or a pruned mutation log falls back to `build`, which
    /// may drive the session but must not mutate the partition.
    pub fn op_artifact_patched<T, F, P>(&mut self, build: F, patch: P) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce(&mut ShortcutSession<'g>) -> T,
        P: FnOnce(&mut ShortcutSession<'g>, &T, &Transition) -> T,
    {
        let key = TypeId::of::<T>();
        let slot = self.op_artifacts.get(&key);
        let Some(transition) = slot.and_then(|slot| self.pending_transition(slot)) else {
            return self.op_slot(SHORTCUT_SCOPED, |_| true, build);
        };
        let old = downcast::<T>(self.op_artifacts.remove(&key).expect("looked up").value);
        let patched = Arc::new(patch(self, &old, &transition));
        self.stats.op_artifact_patches += 1;
        self.op_artifacts
            .insert(key, Slot::new(patched.clone(), self.epoch, SHORTCUT_SCOPED));
        patched
    }

    /// The op-artifact slot of type `T` through [`Slot::ensure`], declared
    /// as reading the partition or not.
    fn op_slot<T, F>(
        &mut self,
        reads_partition: bool,
        answers: impl FnOnce(&T) -> bool,
        build: F,
    ) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce(&mut ShortcutSession<'g>) -> T,
    {
        let key = TypeId::of::<T>();
        let slot = Slot::ensure(
            self.op_artifacts.remove(&key),
            self,
            reads_partition,
            |c| &mut c.op_artifacts,
            |cached| cached.downcast_ref().is_some_and(answers),
            |s| Ok::<_, Infallible>(Arc::new(build(s)) as OpValue),
        )
        .unwrap_or_else(|never| match never {});
        let value = slot.value.clone();
        self.op_artifacts.insert(key, slot);
        downcast(value)
    }

    /// Replaces the value in the fresh op-artifact slot of type `T`,
    /// keeping its stamp and dependency — for an artifact that learns
    /// from the runs it serves (the partwise aggregation forest, harvested
    /// from each aggregate's final states). A stale or missing slot is
    /// left alone: what `value` was derived from is gone. Counts as neither
    /// build, hit nor patch.
    pub fn op_artifact_swap<T: Any + Send + Sync>(&mut self, value: T) {
        let now = self.epoch;
        if let Some(slot) = self.op_artifacts.get_mut(&TypeId::of::<T>()) {
            if slot.fresh(now) {
                slot.value = Arc::new(value);
            }
        }
    }

    /// Installs `partition` as the session's, bumping the partition epoch
    /// and logging what changed.
    fn install_partition(&mut self, partition: Partition, delta: PartitionDelta) {
        self.partition = Some(partition);
        self.epoch += 1;
        self.partition_log.push_back(delta);
        if self.partition_log.len() > PARTITION_LOG_CAP {
            self.partition_log.pop_front();
        }
    }

    /// The transition to patch `slot` across instead of rebuilding it: it
    /// is stale and every partition change since its stamp is still in the
    /// log as a tracked reassignment (every part kept its id; the touched
    /// parts are those of every tick). `None` otherwise — the slot is
    /// fresh, or the span contains a wholesale replacement or reaches past
    /// the bounded log.
    pub(super) fn pending_transition<T>(&self, slot: &Slot<T>) -> Option<Transition> {
        if slot.fresh(self.epoch) {
            return None;
        }
        // One log entry per partition epoch, newest last.
        let changes = usize::try_from(self.epoch - slot.stamp).ok()?;
        let first = self.partition_log.len().checked_sub(changes)?;
        let mut touched = BTreeSet::new();
        for delta in self.partition_log.range(first..) {
            match delta {
                PartitionDelta::Wholesale => return None,
                PartitionDelta::Reassigned(parts) => touched.extend(parts),
            }
        }
        let k = self.partition.as_ref()?.num_parts();
        Some(Transition::identity(k, touched.into_iter().collect()))
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
    }
    use Mutator::*;

    #[derive(Clone, Copy, Debug)]
    enum Column {
        Tree,
        Full,
        Quality,
        ShortcutOp,
        TopologyOp,
    }
    const COLUMNS: [Column; 5] = [
        Column::Tree,
        Column::Full,
        Column::Quality,
        Column::ShortcutOp,
        Column::TopologyOp,
    ];

    /// Rows: every mutator. Cells: what it does to each artifact class, in
    /// [`COLUMNS`] order. Last: how far it moves the partition epoch.
    /// Flipping the flag an artifact declares flips a cell.
    #[rustfmt::skip]
    const MATRIX: [(Mutator, [Cell; 5], u64); 4] = [
        //                 tree full qual  S  T
        (SetPartition,    [K,   R,   R,    R, K], 1),
        (Reassign,        [K,   P,   P,    P, K], 1),
        (ReassignNoop,    [K,   K,   K,    K, K], 0),
        (ReassignFailing, [K,   K,   K,    K, K], 0),
    ];

    const SIDE: usize = 6;

    /// The two op artifacts, one per method; each records what it was
    /// derived from so a rebuilt value can be told from a stale one.
    struct PartCount(usize);
    struct TreeDepth(u32);

    fn part_count(s: &mut ShortcutSession<'_>) -> Arc<PartCount> {
        s.op_artifact_patched(
            |s| PartCount(s.partition().num_parts()),
            |s, old, transition| {
                assert!(
                    !transition.touched.is_empty(),
                    "a patch follows a tracked move"
                );
                assert_eq!(old.0, s.partition().num_parts(), "moves keep the parts");
                PartCount(old.0)
            },
        )
    }

    fn tree_depth(s: &mut ShortcutSession<'_>) -> Arc<TreeDepth> {
        let build = |s: &mut ShortcutSession<'_>| TreeDepth(s.tree().depth_of_tree());
        s.op_artifact_with(|_| true, build)
    }

    impl Mutator {
        fn apply(self, s: &mut ShortcutSession<'_>) {
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
            }
        }
    }

    impl Column {
        /// Reads the column's artifact, checking the served value against
        /// the session's current inputs.
        fn touch(self, s: &mut ShortcutSession<'_>) {
            match self {
                Column::Tree => assert_eq!(s.tree().root(), NodeId(0)),
                Column::Full => assert_eq!(
                    s.try_full_artifact().unwrap().shortcut.num_parts(),
                    s.partition().num_parts()
                ),
                Column::Quality => {
                    let served = s.quality().clone();
                    let tree = s.tree().clone();
                    let fresh = measure_quality(s.graph(), s.partition(), &tree, s.shortcut_ref());
                    assert_eq!(served, fresh, "a served report is the current shortcut's");
                }
                Column::ShortcutOp => assert_eq!(part_count(s).0, s.partition().num_parts()),
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
                Column::ShortcutOp | Column::TopologyOp => (
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
    type Warm<'g> = (ShortcutSession<'g>, (Arc<PartCount>, Arc<TreeDepth>));

    fn warm(g: &Graph) -> Warm<'_> {
        let mut s = Session::on(g)
            .partition(gen::rows_of_grid(SIDE, SIDE))
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
        assert_eq!(stats.op_artifacts.builds, 2);
        let served = (part_count(&mut s), tree_depth(&mut s));
        (s, served)
    }

    #[test]
    fn invalidation_matrix() {
        let g = gen::grid(SIDE, SIDE);
        for (mutator, row, partition_moves) in MATRIX {
            for (column, expected) in COLUMNS.into_iter().zip(row) {
                let (mut s, served) = warm(&g);
                let epoch = s.epoch;
                mutator.apply(&mut s);
                assert_eq!(s.epoch - epoch, partition_moves, "{mutator:?}: epoch");
                let before = *s.cache_stats();
                column.touch(&mut s);
                let cell = column.cell(&before, s.cache_stats());
                assert_eq!(cell, expected, "{mutator:?} × {column:?}");
                // A kept op artifact is the allocation served before; a
                // patched or rebuilt one is a new value.
                let same_allocation = match column {
                    Column::ShortcutOp => Arc::ptr_eq(&served.0, &part_count(&mut s)),
                    Column::TopologyOp => Arc::ptr_eq(&served.1, &tree_depth(&mut s)),
                    _ => continue,
                };
                assert_eq!(same_allocation, cell == K, "{mutator:?} × {column:?}");
            }
        }
    }
}
