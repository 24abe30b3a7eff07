//! The cached artifacts and how each is produced: the spanning tree and
//! the full shortcut on the session backend (with its lazily measured
//! quality report and incremental re-customization).

use super::cache::{Slot, SHORTCUT_SCOPED, TOPOLOGY_ONLY};
use super::{SessionError, ShortcutSession};
use crate::full::keep_denser;
use crate::{
    construct, construction_tree, measure_quality, ConstructionStats, FullShortcutResult,
    QualityReport, Shortcut, ShortcutConfig, Transition,
};
use lcs_graph::minor::MinorWitness;
use lcs_graph::{PartId, RootedTree};
use std::sync::Arc;

/// The cached full-shortcut artifact (Theorem 1.2 / 1.5 output).
#[derive(Clone, Debug)]
pub struct FullArtifact {
    /// The union shortcut serving every part.
    pub shortcut: Shortcut,
    /// Final `δ̂` of the doubling search.
    pub delta_hat: u32,
    /// Densest dense-minor certificate from failed sweeps, if any.
    pub witness: Option<MinorWitness>,
    /// The quality report of `shortcut`, measured on first demand (read it
    /// through [`ShortcutSession::quality`]). It lives in the artifact it
    /// measures: re-customization patches both together, invalidation
    /// drops both together.
    quality: Option<Arc<QualityReport>>,
}

impl ShortcutSession<'_> {
    /// The session's spanning tree, built on first access by the session
    /// backend (a simulated flood is charged to
    /// [`construction_stats`](Self::construction_stats)).
    ///
    /// # Panics
    ///
    /// Panics where [`try_tree`](Self::try_tree) fails.
    pub fn tree(&mut self) -> &RootedTree {
        self.try_tree().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`tree`](Self::tree), with a flood cut short by the backend's
    /// `max_rounds` reported as [`SessionError::Truncated`].
    pub fn try_tree(&mut self) -> Result<&RootedTree, SessionError> {
        self.ensure_tree()?;
        Ok(self.cached_tree())
    }

    /// The full-shortcut artifact, constructed on first access via the
    /// session backend: no partition is [`SessionError::NoPartition`], a
    /// construction phase cut short by the backend's `max_rounds`
    /// [`SessionError::Truncated`] (nothing is cached then).
    pub fn try_full_artifact(&mut self) -> Result<&FullArtifact, SessionError> {
        self.try_partition()?;
        self.ensure_full()?;
        Ok(self.cached_full())
    }

    /// Final `δ̂` of the doubling search.
    pub fn delta_hat(&mut self) -> u32 {
        let full = self.try_full_artifact().unwrap_or_else(|e| panic!("{e}"));
        full.delta_hat
    }

    /// Simulated cost of everything constructed since
    /// [`build`](super::SessionBuilder::build), the full shortcut brought up
    /// to date first: the tree's flood plus every detection sweep,
    /// re-customizations included (zero on the centralized backend).
    pub fn construction_stats(&mut self) -> ConstructionStats {
        self.try_full_artifact().unwrap_or_else(|e| panic!("{e}"));
        self.construction
    }

    /// Quality report of the full shortcut against the session tree and
    /// partition (measured once, cached; after
    /// [`reassign_parts`](Self::reassign_parts) only the touched parts'
    /// rows are re-measured).
    ///
    /// # Panics
    ///
    /// Panics where [`try_quality`](Self::try_quality) fails.
    pub fn quality(&mut self) -> &QualityReport {
        self.try_quality().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`quality`](Self::quality) with the missing partition reported as
    /// [`SessionError::NoPartition`] and a truncated construction as
    /// [`SessionError::Truncated`] instead of a panic.
    pub fn try_quality(&mut self) -> Result<&QualityReport, SessionError> {
        self.try_partition()?;
        self.ensure_quality()?;
        Ok(self.cached_full().quality.as_deref().expect("just ensured"))
    }

    /// Shared handle to the cached quality report, if the session has a
    /// partition (measuring it on first use); `None` otherwise. Ops attach
    /// this to their [`OpReport`](super::OpReport)s — every report shares
    /// one allocation instead of deep-cloning the O(k) per-part vectors
    /// per call.
    pub fn quality_shared(&mut self) -> Result<Option<Arc<QualityReport>>, SessionError> {
        if self.partition.is_none() {
            return Ok(None);
        }
        self.ensure_quality()?;
        Ok(self.cached_full().quality.clone())
    }

    /// Ensures tree and full shortcut (and quality, when a partition
    /// exists) are built and fresh — the preparation step ops call once
    /// before taking shared references.
    ///
    /// # Panics
    ///
    /// Panics where [`try_prepare`](Self::try_prepare) fails.
    pub fn prepare(&mut self) {
        self.try_prepare().unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`prepare`](Self::prepare) with a construction phase cut short by
    /// the backend's `max_rounds` reported as [`SessionError::Truncated`].
    pub fn try_prepare(&mut self) -> Result<(), SessionError> {
        self.ensure_tree()?;
        if self.partition.is_some() {
            self.ensure_full()?;
            self.ensure_quality()?;
        }
        Ok(())
    }

    /// Shared reference to the cached shortcut — the one accessor that
    /// works through `&self`, for ops that hold other session borrows.
    ///
    /// # Panics
    ///
    /// Panics if the artifact was not built yet (call
    /// [`prepare`](Self::prepare) or
    /// [`try_full_artifact`](Self::try_full_artifact) first),
    /// or if it went stale because an input was mutated since — references
    /// obtained before a mutation must be re-fetched through
    /// [`prepare`](Self::prepare).
    pub fn shortcut_ref(&self) -> &Shortcut {
        match &self.full {
            None => panic!("shortcut not prepared — call prepare() first"),
            Some(slot) if !slot.fresh(self.epoch) => {
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

    fn ensure_tree(&mut self) -> Result<(), SessionError> {
        let slot = Slot::ensure(
            self.tree.take(),
            self,
            TOPOLOGY_ONLY,
            |c| &mut c.tree,
            |_| true,
            |s| {
                let dist = s.backend.dist_config();
                let (tree, cost) = construction_tree(&s.g, s.root, dist.as_ref())?;
                s.construction += cost;
                Ok::<_, SessionError>(tree)
            },
        )?;
        self.tree = Some(slot);
        Ok(())
    }

    fn ensure_full(&mut self) -> Result<(), SessionError> {
        if let Some(slot) = &self.full {
            // Stale by tracked reassignments only: patch, do not rebuild.
            if let Some(transition) = self.pending_transition(slot) {
                return self.recustomize(&transition);
            }
            // A stale shortcut takes the report that measured it with it.
            let stale_report = !slot.fresh(self.epoch) && slot.value.quality.is_some();
            self.stats.quality.invalidations += u64::from(stale_report);
        }
        let slot = Slot::ensure(
            self.full.take(),
            self,
            SHORTCUT_SCOPED,
            |c| &mut c.full,
            |_| true,
            Self::build_full,
        )?;
        self.full = Some(slot);
        Ok(())
    }

    fn ensure_quality(&mut self) -> Result<(), SessionError> {
        // Patches the report in place (re-customization) or drops it with
        // the shortcut it measured.
        self.ensure_full()?;
        // The report has no stamp of its own: it goes through the cache
        // routine under its shortcut's, which was just made fresh.
        let full = self.full.as_mut().expect("just ensured");
        let stamp = full.stamp;
        let cell = full.value.quality.take();
        let slot = Slot::ensure(
            cell.map(|q| Slot::new(q, stamp, SHORTCUT_SCOPED)),
            self,
            SHORTCUT_SCOPED,
            |c| &mut c.quality,
            |_| true,
            |s| {
                s.ensure_tree()?;
                let (tree, shortcut) = (s.cached_tree(), &s.cached_full().shortcut);
                let report = measure_quality(&s.g, s.partition(), tree, shortcut);
                Ok::<_, SessionError>(Arc::new(report))
            },
        )?;
        self.full.as_mut().expect("just ensured").value.quality = Some(slot.value);
        Ok(())
    }

    /// The one construction behind every build and patch: [`construct`]
    /// over `parts` of the current partition on the session tree, from
    /// `start`, with the paper's constants on the session backend — charged
    /// to the session's tally.
    fn construct_parts(
        &mut self,
        parts: &[PartId],
        start: u32,
    ) -> Result<FullShortcutResult, SessionError> {
        self.ensure_tree()?;
        let dist = self.backend.dist_config();
        let res = construct(
            &self.g,
            self.cached_tree(),
            self.partition(),
            parts,
            start,
            &ShortcutConfig::default(),
            dist.as_ref(),
        )?;
        self.construction += res.cost;
        Ok(res)
    }

    fn build_full(&mut self) -> Result<FullArtifact, SessionError> {
        let all: Vec<PartId> = self.partition().part_ids().collect();
        let res = self.construct_parts(&all, 1)?;
        Ok(FullArtifact {
            shortcut: res.shortcut,
            delta_hat: res.delta_hat,
            witness: res.best_witness,
            quality: None,
        })
    }

    /// Incremental re-customization: the cached full shortcut follows
    /// `transition` ([`Shortcut::carried_over`]) with one mini doubling
    /// search over just the touched parts, whose rows of its quality
    /// report, if measured, are re-measured. A truncated search leaves the
    /// artifact stale, as it was.
    fn recustomize(&mut self, transition: &Transition) -> Result<(), SessionError> {
        // Start where the cached construction ended: parts that were
        // servable at the final δ̂ before the move usually still are.
        let cached = self.cached_full().delta_hat;
        let start = cached.max(1);
        let touched = &transition.touched;
        let res = self.construct_parts(touched, start)?;
        let mut slot = self
            .full
            .take()
            .expect("recustomize requires a cached full artifact");
        let (g, tree, partition) = (&self.g, self.cached_tree(), self.partition());
        let full = &mut slot.value;
        let kept = std::mem::replace(&mut full.shortcut, Shortcut::empty(0));
        full.shortcut = kept.carried_over(transition, res.shortcut);
        full.delta_hat = full.delta_hat.max(res.delta_hat);
        keep_denser(&mut full.witness, res.best_witness);
        if let Some(report) = &mut full.quality {
            // Copy-on-write: op reports may still hold the old allocation.
            Arc::make_mut(report).remeasure(g, partition, tree, &full.shortcut, touched);
        }
        slot.stamp = self.epoch;
        self.stats.recustomizations += 1;
        self.stats.recustomized_parts += touched.len() as u64;
        self.full = Some(slot);
        Ok(())
    }
}
