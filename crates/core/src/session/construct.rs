//! The cached artifacts and how each is produced: the spanning tree and
//! the full shortcut on the session backend (with its lazily measured
//! quality report and incremental re-customization).

use super::cache::{deps, Slot};
use super::{SessionError, ShortcutSession};
use crate::dist::distributed_full_shortcut;
use crate::full::run_doubling_search;
use crate::quality::measure_parts;
use crate::sweep::sweep_active;
use crate::{full_shortcut, measure_quality, QualityReport, Shortcut};
use lcs_graph::minor::MinorWitness;
use lcs_graph::{bfs, PartId, RootedTree};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Simulated cost of constructing the session's cached artifacts (zero for
/// the centralized backend, which charges no simulated rounds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConstructionStats {
    /// Total simulated rounds.
    pub rounds: u64,
    /// Total simulated messages.
    pub messages: u64,
    /// Total simulated bits.
    pub bits: u64,
}

/// The cached full-shortcut artifact (Theorem 1.2 / 1.5 output).
#[derive(Clone, Debug)]
pub struct FullArtifact {
    /// The union shortcut serving every part.
    pub shortcut: Shortcut,
    /// Final `δ̂` of the doubling search (0 for a caller-provided shortcut,
    /// whose construction parameters are unknown).
    pub delta_hat: u32,
    /// Densest dense-minor certificate from failed sweeps, if any.
    pub witness: Option<MinorWitness>,
    /// Simulated construction cost (zero for centralized / provided).
    pub construction: ConstructionStats,
    /// The quality report of `shortcut`, measured on first demand (read it
    /// through [`ShortcutSession::quality`]). It lives in the artifact it
    /// measures: re-customization patches both together, invalidation
    /// drops both together.
    quality: Option<Arc<QualityReport>>,
}

impl FullArtifact {
    /// A caller-provided shortcut: unknown `δ̂`, no construction charged.
    pub(super) fn provided(shortcut: Shortcut) -> Self {
        FullArtifact {
            shortcut,
            delta_hat: 0,
            witness: None,
            construction: ConstructionStats::default(),
            quality: None,
        }
    }
}

impl ShortcutSession<'_> {
    /// The session's spanning tree (computed on first access).
    pub fn tree(&mut self) -> &RootedTree {
        self.ensure_tree();
        self.cached_tree()
    }

    /// The full-shortcut artifact (constructed on first access via the
    /// session backend).
    ///
    /// # Panics
    ///
    /// Panics if the session has no partition and no fresh provided
    /// shortcut. Use [`try_full_artifact`](Self::try_full_artifact) for
    /// the fallible form.
    pub fn full_artifact(&mut self) -> &FullArtifact {
        self.try_full_artifact().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`full_artifact`](Self::full_artifact) with the missing partition
    /// reported as [`SessionError::NoPartition`] instead of a panic. A
    /// caller-provided shortcut whose cached slot is still fresh is served
    /// without requiring a partition, exactly like the panicking path.
    pub fn try_full_artifact(&mut self) -> Result<&FullArtifact, SessionError> {
        let fresh = self.full.as_ref().is_some_and(|s| s.fresh(&self.epochs));
        if !fresh && self.partition.is_none() {
            return Err(SessionError::NoPartition);
        }
        self.ensure_full();
        Ok(self.cached_full())
    }

    /// The served full shortcut.
    pub fn shortcut(&mut self) -> &Shortcut {
        &self.full_artifact().shortcut
    }

    /// Final `δ̂` of the doubling search (0 for provided shortcuts).
    pub fn delta_hat(&mut self) -> u32 {
        self.full_artifact().delta_hat
    }

    /// The densest dense-minor certificate collected during construction.
    pub fn witness(&mut self) -> Option<&MinorWitness> {
        self.full_artifact().witness.as_ref()
    }

    /// Simulated cost of constructing the cached full shortcut.
    pub fn construction_stats(&mut self) -> ConstructionStats {
        self.full_artifact().construction
    }

    /// Quality report of the full shortcut against the session tree and
    /// partition (measured once, cached; after
    /// [`reassign_parts`](Self::reassign_parts) only the touched parts'
    /// rows are re-measured).
    ///
    /// # Panics
    ///
    /// Panics if the session has no partition. Use
    /// [`try_quality`](Self::try_quality) for the fallible form.
    pub fn quality(&mut self) -> &QualityReport {
        self.try_quality().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`quality`](Self::quality) with the missing partition reported as
    /// [`SessionError::NoPartition`] instead of a panic.
    pub fn try_quality(&mut self) -> Result<&QualityReport, SessionError> {
        self.try_partition()?;
        self.ensure_quality();
        Ok(self.cached_full().quality.as_deref().expect("just ensured"))
    }

    /// Shared handle to the cached quality report, if the session has a
    /// partition (measuring it on first use); `None` otherwise. Ops attach
    /// this to their [`OpReport`](super::OpReport)s — every report shares
    /// one allocation instead of deep-cloning the O(k) per-part vectors
    /// per call.
    pub fn quality_shared(&mut self) -> Option<Arc<QualityReport>> {
        self.partition.as_ref()?;
        self.ensure_quality();
        self.cached_full().quality.clone()
    }

    /// Ensures tree and full shortcut (and quality, when a partition
    /// exists) are built and fresh — the preparation step ops call once
    /// before taking shared references.
    pub fn prepare(&mut self) {
        self.ensure_tree();
        if self.partition.is_some() {
            self.ensure_full();
            self.ensure_quality();
        }
    }

    /// Shared reference to the cached shortcut — the one accessor that
    /// works through `&self`, for ops that hold other session borrows.
    ///
    /// # Panics
    ///
    /// Panics if the artifact was not built yet (call
    /// [`prepare`](Self::prepare) or [`shortcut`](Self::shortcut) first),
    /// or if it went stale because an input was mutated since — references
    /// obtained before a mutation must be re-fetched through
    /// [`prepare`](Self::prepare).
    pub fn shortcut_ref(&self) -> &Shortcut {
        match &self.full {
            None => panic!("shortcut not prepared — call prepare() first"),
            Some(slot) if !slot.fresh(&self.epochs) => {
                panic!("shortcut stale — an input changed since prepare(); call prepare() again")
            }
            Some(slot) => &slot.value.shortcut,
        }
    }

    fn cached_tree(&self) -> &RootedTree {
        &self.tree.as_ref().expect("tree ensured").value
    }

    fn cached_full(&self) -> &FullArtifact {
        &self.full.as_ref().expect("full artifact ensured").value
    }

    fn ensure_tree(&mut self) {
        let slot = Slot::ensure(
            self.tree.take(),
            self,
            deps::TOPOLOGY_ONLY,
            |c| &mut c.tree,
            |s| bfs::bfs_tree(s.g, s.root),
        );
        self.tree = Some(slot);
    }

    fn ensure_full(&mut self) {
        if let Some(slot) = &self.full {
            // Stale by tracked reassignments only: patch, do not rebuild.
            if let Some(touched) = self.patchable_parts(slot) {
                return self.recustomize(&touched);
            }
            // A stale shortcut takes the report that measured it with it.
            let stale_report = !slot.fresh(&self.epochs) && slot.value.quality.is_some();
            self.stats.quality.invalidations += u64::from(stale_report);
        }
        let slot = Slot::ensure(
            self.full.take(),
            self,
            deps::SHORTCUT,
            |c| &mut c.full,
            Self::build_full,
        );
        self.full = Some(slot);
    }

    fn ensure_quality(&mut self) {
        // Patches the report in place (re-customization) or drops it with
        // the shortcut it measured.
        self.ensure_full();
        // The report has no stamp of its own: it goes through the cache
        // routine under its shortcut's, which was just made fresh.
        let full = self.full.as_mut().expect("just ensured");
        let stamp = full.stamp;
        let cell = full.value.quality.take();
        let slot = Slot::ensure(
            cell.map(|q| Slot::new(q, stamp, deps::SHORTCUT)),
            self,
            deps::SHORTCUT,
            |c| &mut c.quality,
            |s| {
                s.ensure_tree();
                let (tree, shortcut) = (s.cached_tree(), &s.cached_full().shortcut);
                Arc::new(measure_quality(s.g, s.partition(), tree, shortcut))
            },
        );
        self.full.as_mut().expect("just ensured").value.quality = Some(slot.value);
    }

    fn build_full(&mut self) -> FullArtifact {
        let Some(dist) = self.backend.dist_config() else {
            self.ensure_tree();
            let res = full_shortcut(
                self.g,
                self.cached_tree(),
                self.partition(),
                &self.config.shortcut,
            );
            return FullArtifact {
                delta_hat: res.delta_hat,
                witness: res.best_witness,
                ..FullArtifact::provided(res.shortcut)
            };
        };
        self.assert_provided_tree_is_canonical();
        let res = distributed_full_shortcut(
            self.g,
            self.root,
            self.partition(),
            &self.config.shortcut,
            &dist,
        );
        FullArtifact {
            delta_hat: res.delta_hat,
            witness: res.best_witness,
            construction: ConstructionStats {
                rounds: res.rounds,
                messages: res.messages,
                bits: res.bits,
            },
            ..FullArtifact::provided(res.shortcut)
        }
    }

    /// Incremental re-customization: one mini doubling search over just
    /// the `touched` parts, splicing their `H_i` into the cached full
    /// shortcut and patching the touched rows of its quality report, if
    /// measured. Runs the centralized sweep over the session tree
    /// regardless of backend (zero simulated rounds charged — see
    /// [`reassign_parts`](Self::reassign_parts)).
    fn recustomize(&mut self, touched: &[PartId]) {
        self.ensure_tree();
        let mut slot = self
            .full
            .take()
            .expect("recustomize requires a cached full artifact");
        let (g, tree, partition) = (self.g, self.cached_tree(), self.partition());
        let config = &self.config.shortcut;
        let full = &mut slot.value;
        debug_assert_eq!(full.shortcut.num_parts(), partition.num_parts());
        // Start where the cached construction ended: parts that were
        // servable at the final δ̂ before the move usually still are.
        let start = full.delta_hat.max(config.initial_delta_hat).max(1);
        let res = run_doubling_search(
            g.num_nodes(),
            partition.num_parts(),
            touched.to_vec(),
            start,
            |active, delta_hat| sweep_active(g, tree, partition, active, delta_hat, config),
        );
        for &p in touched {
            full.shortcut
                .set_edges(p, res.shortcut.edges_for(p).to_vec());
        }
        full.delta_hat = full.delta_hat.max(res.delta_hat);
        if let Some(w) = res.best_witness {
            let densest = &mut full.witness;
            if densest.as_ref().is_none_or(|b| w.density() > b.density()) {
                *densest = Some(w);
            }
        }
        if let Some(report) = &mut full.quality {
            // Copy-on-write: op reports may still hold the old allocation.
            let q = Arc::make_mut(report);
            let rows = measure_parts(g, partition, &full.shortcut, touched);
            for (&p, row) in touched.iter().zip(rows) {
                q.per_part[p.index()] = row;
            }
            q.max_blocks = q.per_part.iter().map(|p| p.blocks).max().unwrap_or(0);
            q.max_dilation_lower = q
                .per_part
                .iter()
                .map(|p| p.dilation_lower)
                .max()
                .unwrap_or(0);
            q.max_dilation_upper = q
                .per_part
                .iter()
                .map(|p| p.dilation_upper)
                .max()
                .unwrap_or(0);
            q.max_congestion = full.shortcut.max_congestion(g);
            q.tree_restricted = full.shortcut.is_tree_restricted(tree);
        }
        slot.stamp = self.epochs;
        self.stats.recustomizations += 1;
        self.stats.recustomized_parts += touched.len() as u64;
        self.full = Some(slot);
    }

    /// The distributed backends run the Theorem 1.5 protocol, whose first
    /// phase builds its *own* BFS tree from the root (the canonical
    /// min-id-parent rule). A provided tree is honored only if it IS that
    /// tree — otherwise the shortcut would be restricted to one tree while
    /// quality measurement and unicast routing use another, silently. Fail
    /// loudly instead.
    fn assert_provided_tree_is_canonical(&self) {
        if !self.tree_provided {
            return;
        }
        let provided = self.cached_tree();
        let canonical = bfs::bfs_tree(self.g, self.root);
        for v in self.g.nodes() {
            assert!(
                provided.parent(v) == canonical.parent(v),
                "Backend::Distributed/Sketch construct over the canonical BFS tree of root \
                 {:?} (the simulated protocol builds it itself), but the provided tree \
                 differs at node {v:?} — use Backend::Centralized for non-BFS trees",
                self.root
            );
        }
    }
}
