//! The `ShortcutSession` facade: build once, serve many operations,
//! mutate cheaply.
//!
//! The whole point of the shortcut framework (and of this paper) is that
//! one object — the shortcut — is *prepared once* for a topology and then
//! *served* to many part-wise operations: aggregation, gossip, unicast
//! routing, MST, connectivity, min-cut. This module is the API that says
//! so. A [`ShortcutSession`] is built via the [`Session`] builder:
//!
//! ```
//! use lcs_core::session::{Backend, Session, TreeSource};
//! use lcs_graph::{gen, NodeId};
//!
//! let g = gen::grid(8, 8);
//! let mut session = Session::on(&g)
//!     .tree(TreeSource::Bfs(NodeId(0)))
//!     .partition(gen::rows_of_grid(8, 8))
//!     .backend(Backend::Centralized)
//!     .build()?;
//! // Artifacts are computed lazily and cached: the first access constructs,
//! // every later access reuses.
//! let delta_hat = session.delta_hat();
//! assert_eq!(session.cache_stats().full.builds, 1);
//! let full = session.try_full_artifact()?; // cached — no second construction
//! assert_eq!(full.delta_hat, delta_hat);
//! assert_eq!(session.cache_stats().full.builds, 1);
//! # Ok::<(), lcs_core::session::SessionError>(())
//! ```
//!
//! # The artifact graph
//!
//! The graph, the tree, the backend and the configuration are fixed when
//! the session is built; exactly one input can change under it — the
//! partition — and it carries an epoch counter. (Edge weights are not an
//! input: a shortcut is a function of the graph, the tree and the parts,
//! and the one op that reads weights, MST, takes them as an argument.)
//! The session caches the BFS tree, the full shortcut (with its quality
//! report and dense-minor certificate), and typed per-op artifacts. An
//! artifact that reads the partition (the shortcut, its report, an op
//! artifact cached through
//! [`op_artifact_patched`](ShortcutSession::op_artifact_patched)) is
//! served only while the epoch it recorded is the current one, and is
//! invalidated — precisely, lazily — when the partition moves; one that
//! does not (the tree, an
//! [`op_artifact_with`](ShortcutSession::op_artifact_with) memo) never
//! goes stale. One routine does the hit / invalidate / build / stamp
//! sequence for every artifact class.
//!
//! # Mutating a live session
//!
//! Sessions are not frozen after the first construction; the two mutators
//! bump the partition epoch instead of requiring a rebuild-from-scratch:
//!
//! * [`set_partition`](ShortcutSession::set_partition) replaces the
//!   partition wholesale — every partition-scoped artifact is invalidated
//!   and rebuilt on next access;
//! * [`reassign_parts`](ShortcutSession::reassign_parts) moves individual
//!   nodes between existing parts and *re-customizes incrementally*: only
//!   the touched parts' shortcut edges and quality rows are recomputed
//!   (a mini doubling search over just those parts), everything else
//!   survives byte-for-byte.
//!
//! The preparation/customization split mirrors customizable contraction
//! hierarchies: the partition-independent work (the tree, the reports of
//! whole-graph algorithms) is never repeated, and partition churn pays
//! only for what it touched.
//! [`CacheStats`] reports builds/hits/invalidations per artifact class so a
//! serving process can watch the cache behave.
//!
//! Operations are extension-trait methods implemented next to their
//! protocols (`SessionPartwiseOps` in `lcs_partwise`, `SessionAlgoOps` in
//! `lcs_algos`; the umbrella crate's `facade` module re-exports both):
//! `session.aggregate(..)`, `session.mst(..)`, … read the cached artifacts
//! and call the algorithm. Every operation returns a uniform [`OpReport`].
//! Every setting lives in one serde-able [`SessionConfig`]: the simulator
//! settings and the declarative sources. Ops have no knobs of their own.
//!
//! # Layout
//!
//! `error` (the typed [`SessionError`]), `config` ([`TreeSource`],
//! [`Backend`], [`SessionConfig`]), `builder`
//! ([`Session`] / [`SessionBuilder`]), `cache` (the partition epoch, the
//! dependency declarations, stats, the cache routine, the mutation API and
//! the op-artifact table) and `construct` (the artifacts and how each is produced); this
//! file holds the session itself and [`OpReport`].

mod builder;
mod cache;
mod config;
mod construct;
mod error;

pub use crate::ConstructionStats;
pub use builder::{Session, SessionBuilder};
pub use cache::{ArtifactStats, CacheStats};
pub use config::{Backend, SessionConfig, TreeSource};
pub use construct::FullArtifact;
pub use error::SessionError;

use crate::{Partition, QualityReport};
use cache::{OpValue, PartitionDelta, Slot};
use error::NO_PARTITION;
use lcs_congest::RunMetrics;
use lcs_graph::{Graph, NodeId, RootedTree};
use std::any::TypeId;
use std::collections::{HashMap, VecDeque};
use std::ops::Deref;
use std::sync::Arc;

/// The uniform result wrapper every session operation returns: the op's
/// typed result plus the simulated cost and the execution configuration it
/// was measured under.
#[derive(Clone, Debug)]
pub struct OpReport<T> {
    /// The operation's own outcome (aggregates, routed packets, MST
    /// edges, …).
    pub result: T,
    /// Simulated rounds of the operation (construction rounds of cached
    /// artifacts are *not* re-charged — that is the point of the session).
    pub rounds: u64,
    /// Simulated messages.
    pub messages: u64,
    /// Simulated bits (id-aware accounting).
    pub bits: u64,
    /// Whether a simulator run of the operation was cut short by
    /// [`SimConfig::max_rounds`](lcs_congest::SimConfig::max_rounds): the
    /// result is then partial and must not be read as a finished answer.
    pub truncated: bool,
    /// Quality of the served shortcut, when the op ran over the session's
    /// partition (`None` for fragment-based ops like MST, whose partitions
    /// change per phase). Shared via [`Arc`] with the session's cache — the
    /// report is measured once per session and every `OpReport` holds the
    /// same allocation instead of a per-call deep clone of its O(k)
    /// per-part vectors.
    pub quality: Option<Arc<QualityReport>>,
    /// Lanes the simulator ran with (the resolved
    /// [`SimConfig::threads`](lcs_congest::SimConfig::threads)).
    pub threads: usize,
    /// Per-message bandwidth limit (bits) the run enforced.
    pub bandwidth_bits: usize,
}

impl<T> OpReport<T> {
    /// Wraps an op result measured by a single simulator run.
    pub fn from_metrics(
        result: T,
        metrics: &RunMetrics,
        quality: Option<Arc<QualityReport>>,
    ) -> Self {
        OpReport {
            result,
            rounds: metrics.rounds,
            messages: metrics.messages,
            bits: metrics.bits,
            truncated: metrics.truncated,
            quality,
            threads: metrics.threads,
            bandwidth_bits: metrics.bandwidth_bits,
        }
    }
}

/// How a session holds its graph: borrowed ([`Session::on`]) or co-owned
/// ([`Session::shared`], for a `ShortcutSession<'static>`). A clone copies
/// the reference or bumps the count, never the graph.
#[derive(Clone, Debug)]
pub enum GraphHandle<'g> {
    /// The caller keeps the graph alive for `'g`.
    Borrowed(&'g Graph),
    /// The graph lives as long as its last holder.
    Shared(Arc<Graph>),
}

impl Deref for GraphHandle<'_> {
    type Target = Graph;

    fn deref(&self) -> &Graph {
        match self {
            GraphHandle::Borrowed(g) => g,
            GraphHandle::Shared(g) => g,
        }
    }
}

/// A prepared-topology session: one graph, one tree, one backend, one
/// configuration — with a mutable partition. Artifacts are computed
/// lazily, cached under the partition epoch, invalidated precisely when
/// the partition they read changes, and served to any number of
/// operations. See the [module docs](self) for the full
/// story.
pub struct ShortcutSession<'g> {
    g: GraphHandle<'g>,
    root: NodeId,
    partition: Option<Partition>,
    backend: Backend,
    config: SessionConfig,
    /// Bumped by every change of the partition.
    epoch: u64,
    tree: Option<Slot<RootedTree>>,
    /// The full shortcut; its quality report rides inside.
    full: Option<Slot<FullArtifact>>,
    /// Per-op-type derived artifacts (e.g. the partwise participation
    /// map), keyed by the artifact's [`TypeId`] and shared via [`Arc`].
    /// See [`op_artifact_with`](ShortcutSession::op_artifact_with).
    op_artifacts: HashMap<TypeId, Slot<OpValue>>,
    /// What each of the most recent partition-epoch bumps changed, newest
    /// last (bounded; older changes cannot be patched across).
    partition_log: VecDeque<PartitionDelta>,
    stats: CacheStats,
    /// Simulated cost of everything constructed since `build()`.
    construction: ConstructionStats,
}

impl<'g> ShortcutSession<'g> {
    /// The graph this session serves.
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// The session's own handle on its graph, for a caller that reads the
    /// graph while it drives the session through `&mut self`.
    pub fn graph_handle(&self) -> GraphHandle<'g> {
        self.g.clone()
    }

    /// The tree root.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The construction backend.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The session partition.
    ///
    /// # Panics
    ///
    /// Panics if the session was built without one (partition-based ops
    /// require `.partition(..)` on the builder). Use
    /// [`try_partition`](Self::try_partition) for the fallible form.
    pub fn partition(&self) -> &Partition {
        self.partition.as_ref().expect(NO_PARTITION)
    }

    /// Fallible [`partition`](Self::partition): the session partition, or
    /// [`SessionError::NoPartition`].
    pub fn try_partition(&self) -> Result<&Partition, SessionError> {
        self.partition.as_ref().ok_or(SessionError::NoPartition)
    }

    /// Per-artifact cache counters: builds, hits, invalidations, and the
    /// incremental-recustomization tallies.
    pub fn cache_stats(&self) -> &CacheStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measure_quality, PartitionError, Transition};
    use lcs_congest::SimConfig;
    use lcs_graph::{bfs, gen, PartId};

    /// Shortcut constructions performed (incremental re-customizations do
    /// not count).
    fn constructed(s: &ShortcutSession<'_>) -> u64 {
        s.cache_stats().full.builds
    }

    fn grid_session(side: usize) -> ShortcutSession<'static> {
        Session::shared(Arc::new(gen::grid(side, side)))
            .tree(TreeSource::Bfs(NodeId(0)))
            .partition(gen::rows_of_grid(side, side))
            .build()
            .expect("grid rows are valid parts")
    }

    #[test]
    fn builder_is_lazy_and_artifacts_cache() {
        let mut s = grid_session(8);
        assert_eq!(constructed(&s), 0, "build() must not construct");
        let dh = s.delta_hat();
        assert_eq!(dh, 1);
        assert_eq!(constructed(&s), 1);
        // Every later access is served from the cache.
        let edges_a = s.try_full_artifact().unwrap().shortcut.total_edges();
        let edges_b = s.try_full_artifact().unwrap().shortcut.total_edges();
        assert_eq!(edges_a, edges_b);
        let _ = s.quality();
        assert_eq!(constructed(&s), 1);
        assert_eq!(s.cache_stats().full.builds, 1);
        assert!(s.cache_stats().full.hits >= 3);
        assert_eq!(s.cache_stats().full.invalidations, 0);
    }

    #[test]
    fn tree_is_cached() {
        let mut s = grid_session(6);
        let d1 = s.tree().depth_of_tree();
        let d2 = s.tree().depth_of_tree();
        assert_eq!(d1, d2);
        assert_eq!(constructed(&s), 0, "the tree is not a construction");
        assert_eq!(s.cache_stats().tree.builds, 1);
        assert_eq!(s.cache_stats().tree.hits, 1);
    }

    #[test]
    fn distributed_backend_matches_centralized_shortcut() {
        let g = gen::grid(8, 8);
        let parts = gen::rows_of_grid(8, 8);
        let mut central = Session::on(&g)
            .partition(parts.clone())
            .backend(Backend::Centralized)
            .build()
            .unwrap();
        let mut dist = Session::on(&g)
            .partition(parts)
            .backend(Backend::Distributed(SimConfig::default()))
            .build()
            .unwrap();
        // Exact streaming reproduces the centralized construction.
        assert_eq!(
            central.try_full_artifact().unwrap().shortcut,
            dist.try_full_artifact().unwrap().shortcut
        );
        assert_eq!(central.delta_hat(), dist.delta_hat());
        // The distributed backend charges simulated construction cost.
        let stats = dist.construction_stats();
        assert!(stats.rounds > 0 && stats.messages > 0 && stats.bits > 0);
        assert_eq!(central.construction_stats(), ConstructionStats::default());
    }

    #[test]
    fn distributed_backend_accepts_the_canonical_provided_tree() {
        let g = gen::grid(5, 5);
        let tree = bfs::bfs_tree(&g, NodeId(3));
        let mut s = Session::on(&g)
            .tree(TreeSource::Provided(tree))
            .partition(gen::rows_of_grid(5, 5))
            .backend(Backend::Distributed(SimConfig::default()))
            .build()
            .unwrap();
        s.try_full_artifact().unwrap(); // the provided tree IS the protocol's tree
        assert_eq!(constructed(&s), 1);
    }

    /// A provided spanning tree serves every backend: the distributed one
    /// runs its detection sweeps over it and floods no BFS.
    #[test]
    fn distributed_backend_constructs_over_any_provided_tree() {
        // On a cycle, the path tree (parent(i) = i-1) is a valid spanning
        // tree rooted at 0 but NOT the BFS tree (BFS splits both ways).
        let g = gen::cycle(6);
        let n = 6u32;
        let parent: Vec<_> = (0..n)
            .map(|i| {
                (i > 0).then(|| {
                    let p = NodeId(i - 1);
                    let e = g.find_edge(p, NodeId(i)).expect("cycle edge");
                    (p, e)
                })
            })
            .collect();
        let dist: Vec<u32> = (0..n).collect();
        let order: Vec<NodeId> = (0..n).map(NodeId).collect();
        let path_tree = lcs_graph::RootedTree::from_parents(&g, NodeId(0), &parent, &dist, &order);
        let parts = vec![vec![NodeId(0), NodeId(1)], vec![NodeId(3), NodeId(4)]];
        let on = |backend| {
            Session::on(&g)
                .tree(TreeSource::Provided(path_tree.clone()))
                .partition(parts.clone())
                .backend(backend)
                .build()
                .unwrap()
        };
        let mut central = on(Backend::Centralized);
        let mut dist = on(Backend::Distributed(SimConfig::default()));
        let served = dist.try_full_artifact().unwrap().shortcut.clone();
        assert_eq!(served, central.try_full_artifact().unwrap().shortcut);
        // Part 1 reaches the root along the path, not around the cycle.
        assert_eq!(served.edges_for(PartId(1)).len(), 4);
        assert!(served.is_tree_restricted(&path_tree));
        // Charged: exactly the detection sweeps, no flood.
        let partition = crate::Partition::from_parts(&g, parts.clone()).unwrap();
        let sweeps = crate::construct(
            &g,
            &path_tree,
            &partition,
            &[PartId(0), PartId(1)],
            1,
            &crate::ShortcutConfig::default(),
            Some(&crate::dist::DistConfig::default()),
        )
        .expect("default round cap");
        assert!(sweeps.cost.rounds > 0 && sweeps.cost.messages > 0);
        assert_eq!(dist.construction_stats(), sweeps.cost);
        assert_eq!(dist.cache_stats().tree.builds, 0);
        assert_eq!(central.construction_stats(), ConstructionStats::default());
    }

    /// Re-customization runs on the session backend: exact detection is
    /// the threshold rule, so both sessions hold the same shortcut after
    /// the same moves — and only the distributed one paid for it.
    #[test]
    fn reassign_recustomizes_on_the_session_backend() {
        let g = gen::grid(8, 8);
        let on = |backend| {
            Session::on(&g)
                .partition(gen::rows_of_grid(8, 8))
                .backend(backend)
                .build()
                .unwrap()
        };
        let mut central = on(Backend::Centralized);
        let mut dist = on(Backend::Distributed(SimConfig::default()));
        let built = dist.construction_stats();
        for mv in [(NodeId(8), PartId(0)), (NodeId(63), PartId(6))] {
            central.reassign_parts(&[mv]).unwrap();
            dist.reassign_parts(&[mv]).unwrap();
            assert_eq!(
                dist.try_full_artifact().unwrap().shortcut,
                central.try_full_artifact().unwrap().shortcut,
                "after {mv:?}"
            );
            assert_eq!(dist.delta_hat(), central.delta_hat());
        }
        let patched = dist.construction_stats();
        assert!(patched.rounds > built.rounds && patched.messages > built.messages);
        assert_eq!(dist.cache_stats().full.builds, 1);
        assert_eq!(dist.cache_stats().recustomizations, 2);
        assert_eq!(central.construction_stats(), ConstructionStats::default());
    }

    #[test]
    fn provided_tree_sets_the_root() {
        let g = gen::grid(5, 5);
        let tree = bfs::bfs_tree(&g, NodeId(12));
        let mut s = Session::on(&g)
            .tree(TreeSource::Provided(tree.clone()))
            .build()
            .unwrap();
        assert_eq!(s.root(), NodeId(12));
        assert_eq!(s.tree().parent(NodeId(0)), tree.parent(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "no partition")]
    fn partition_ops_demand_a_partition() {
        let g = gen::path(4);
        let mut s = Session::on(&g).build().unwrap();
        let err = s.try_full_artifact().unwrap_err();
        assert_eq!(err, SessionError::NoPartition);
        s.quality();
    }

    #[test]
    fn op_artifacts_build_once_and_share_one_allocation() {
        struct Expensive(usize);
        let mut s = grid_session(6);
        let mut builds = 0;
        let unpatched = |_: &mut ShortcutSession<'_>, _: &Expensive, _: &Transition| {
            unreachable!("the partition never moves")
        };
        let a = s.op_artifact_patched(
            |s| {
                builds += 1;
                s.prepare();
                let (g, partition, shortcut) = (s.graph(), s.partition(), s.shortcut_ref());
                Expensive(g.num_nodes() + partition.num_parts() + shortcut.num_parts())
            },
            unpatched,
        );
        let b = s.op_artifact_patched(
            |_| -> Expensive { unreachable!("cached after first build") },
            unpatched,
        );
        assert_eq!(builds, 1);
        assert!(Arc::ptr_eq(&a, &b), "one shared allocation");
        assert_eq!(a.0, 36 + 6 + 6);
        // Accessing the artifact forced the full shortcut exactly once.
        assert_eq!(constructed(&s), 1);
        assert_eq!(s.cache_stats().op_artifacts.builds, 1);
        assert_eq!(s.cache_stats().op_artifacts.hits, 1);
    }

    #[test]
    fn reassign_recustomizes_incrementally() {
        let mut s = grid_session(8);
        let _ = s.quality();
        assert_eq!(s.cache_stats().full.builds, 1);
        // Move the first node of row 1 into row 0's part: both stay
        // connected (rows are paths; (1,0)-(0,0) is a grid edge).
        let touched = s
            .reassign_parts(&[(NodeId(8), PartId(0))])
            .expect("move keeps both parts connected");
        assert_eq!(touched, vec![PartId(0), PartId(1)]);
        assert_eq!(s.partition().part_of(NodeId(8)), Some(PartId(0)));
        let q_patched = s.quality().clone();
        // No full rebuild happened — one incremental re-customization did.
        assert_eq!(s.cache_stats().full.builds, 1);
        assert_eq!(s.cache_stats().full.invalidations, 0);
        assert_eq!(s.cache_stats().recustomizations, 1);
        assert_eq!(s.cache_stats().recustomized_parts, 2);
        // The patched report is exactly what a fresh measurement of the
        // mutated session's shortcut yields.
        let tree = s.tree().clone();
        let fresh = measure_quality(s.graph(), s.partition(), &tree, s.shortcut_ref());
        assert_eq!(q_patched, fresh);
        assert!(q_patched.all_connected());
    }

    #[test]
    fn repeated_reassignments_accumulate_into_one_patch() {
        let mut s = grid_session(8);
        s.try_full_artifact().unwrap();
        // Two mutations before the next artifact access: the refresh must
        // cover the union of touched parts.
        s.reassign_parts(&[(NodeId(8), PartId(0))]).unwrap();
        s.reassign_parts(&[(NodeId(63), PartId(6))]).unwrap();
        let _ = s.quality();
        assert_eq!(s.cache_stats().full.builds, 1);
        assert_eq!(s.cache_stats().recustomizations, 1);
        assert_eq!(s.cache_stats().recustomized_parts, 4);
        let tree = s.tree().clone();
        let fresh = measure_quality(s.graph(), s.partition(), &tree, s.shortcut_ref());
        assert_eq!(s.quality(), &fresh);
    }

    #[test]
    fn op_artifact_patched_takes_the_incremental_path() {
        /// Tracks which parts were patched.
        struct EdgesPerPart(Vec<usize>);
        fn build(s: &mut ShortcutSession<'_>) -> EdgesPerPart {
            s.prepare();
            let sc = s.shortcut_ref();
            EdgesPerPart(
                (0..sc.num_parts())
                    .map(|p| sc.edges_for(PartId(p as u32)).len())
                    .collect(),
            )
        }
        let mut s = grid_session(8);
        let a = s.op_artifact_patched(build, |_, _, _| unreachable!("first access builds"));
        s.reassign_parts(&[(NodeId(8), PartId(0))]).unwrap();
        let b = s.op_artifact_patched(
            |_| -> EdgesPerPart { unreachable!("tracked churn must patch, not rebuild") },
            |s, old, transition| {
                s.prepare();
                let sc = s.shortcut_ref();
                let mut v = old.0.clone();
                for &p in &transition.touched {
                    v[p.index()] = sc.edges_for(p).len();
                }
                EdgesPerPart(v)
            },
        );
        assert_eq!(b.0, build(&mut s).0, "patched == rebuilt from scratch");
        assert_eq!(s.cache_stats().op_artifact_patches, 1);
        // A wholesale replacement falls back to build.
        s.set_partition(gen::rows_of_grid(8, 8)).unwrap();
        let c = s.op_artifact_patched(build, |_, _, _| {
            unreachable!("wholesale changes cannot be patched")
        });
        assert_eq!(c.0.len(), 8);
        drop(a);
    }

    #[test]
    fn op_artifact_swap_replaces_a_fresh_value_only() {
        #[derive(Debug, PartialEq)]
        struct Learned(u32);
        let mut s = grid_session(8);
        s.op_artifact_swap(Learned(7)); // no slot yet: nothing to replace
        let zero = |_: &mut ShortcutSession<'_>| Learned(0);
        // A rebuilding patch: what the churn left behind is learned anew.
        let rebuild = |_: &mut ShortcutSession<'_>, _: &Learned, _: &Transition| Learned(0);
        assert_eq!(*s.op_artifact_patched(zero, rebuild), Learned(0));
        let before = *s.cache_stats();
        s.op_artifact_swap(Learned(1));
        assert_eq!(*s.cache_stats(), before, "a swap is no build, hit or patch");
        let cached = s.op_artifact_patched(|_| -> Learned { unreachable!("cached") }, rebuild);
        assert_eq!(*cached, Learned(1));
        // A value learned under an older partition must not resurface.
        s.reassign_parts(&[(NodeId(8), PartId(0))]).unwrap();
        s.op_artifact_swap(Learned(2));
        assert_eq!(*s.op_artifact_patched(zero, rebuild), Learned(0));
    }

    #[test]
    fn quality_is_shared_not_cloned() {
        let mut s = grid_session(6);
        let a = s
            .quality_shared()
            .unwrap()
            .expect("session has a partition");
        let b = s
            .quality_shared()
            .unwrap()
            .expect("session has a partition");
        assert!(Arc::ptr_eq(&a, &b), "reports share the cached allocation");
        assert_eq!(constructed(&s), 1);
    }

    #[test]
    fn shortcut_ref_reports_lifecycle_states() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let panics = |s: &ShortcutSession<'_>| {
            let err = catch_unwind(AssertUnwindSafe(|| {
                let _ = s.shortcut_ref();
            }));
            err.err()
                .map(|p| *p.downcast::<&str>().expect("a literal panic message"))
        };
        let mut s = grid_session(5);
        // Never prepared.
        assert_eq!(
            panics(&s),
            Some("shortcut not prepared — call prepare() first")
        );
        s.prepare();
        assert_eq!(panics(&s), None);
        // Partition churn stales the shortcut until the next prepare().
        s.reassign_parts(&[(NodeId(0), PartId(1))])
            .expect("row move keeps parts connected");
        assert!(panics(&s).is_some_and(|m| m.starts_with("shortcut stale")));
        s.prepare();
        assert_eq!(panics(&s), None);
    }

    #[test]
    #[should_panic(expected = "shortcut stale — an input changed since prepare()")]
    fn shortcut_ref_panic_message_is_unchanged() {
        let mut s = grid_session(5);
        s.prepare();
        s.reassign_parts(&[(NodeId(0), PartId(1))])
            .expect("row move keeps parts connected");
        let _ = s.shortcut_ref();
    }

    #[test]
    fn try_accessors_report_missing_inputs() {
        let g = gen::path(4);
        let mut s = Session::on(&g).build().unwrap();
        assert_eq!(s.try_partition().unwrap_err(), SessionError::NoPartition);
        assert_eq!(s.try_quality().unwrap_err(), SessionError::NoPartition);
        assert_eq!(
            s.try_full_artifact().unwrap_err(),
            SessionError::NoPartition
        );
    }

    #[test]
    fn try_reassign_parts_reports_typed_errors() {
        let mut s = grid_session(4);
        let parts = s.partition().num_parts();
        // Target part out of range: typed error instead of the panic the
        // legacy `reassign_parts` keeps.
        let err = s
            .try_reassign_parts(&[(NodeId(0), PartId(parts as u32))])
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::PartOutOfRange {
                part: PartId(parts as u32),
                num_parts: parts
            }
        );
        // Node out of range flows through as a wrapped PartitionError.
        let n = s.graph().num_nodes();
        let err = s
            .try_reassign_parts(&[(NodeId(n as u32), PartId(0))])
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::Partition(PartitionError::OutOfRange(NodeId(n as u32)))
        );
        // And the happy path still reassigns.
        let touched = s
            .try_reassign_parts(&[(NodeId(0), PartId(1))])
            .expect("row move keeps parts connected");
        assert_eq!(touched.len(), 2);
    }

    // What `build()` refuses, it refuses typed: each of the next two
    // inputs used to reach an `assert!` — in the BFS, in the detection
    // program.

    #[test]
    fn build_refuses_a_root_the_graph_does_not_have() {
        let g = gen::grid(3, 3);
        let out_of_range = SessionError::NodeOutOfRange {
            node: NodeId(99),
            num_nodes: 9,
        };
        let rooted = Session::on(&g).tree(TreeSource::Bfs(NodeId(99)));
        assert_eq!(rooted.build().err(), Some(out_of_range.clone()));
        let partitioned = Session::on(&g)
            .tree(TreeSource::Bfs(NodeId(99)))
            .partition(gen::rows_of_grid(3, 3));
        assert_eq!(partitioned.build().err(), Some(out_of_range));
    }

    #[test]
    fn build_refuses_a_sketch_that_cannot_detect() {
        use crate::dist::{DistConfig, DistMode};
        let g = gen::grid(3, 3);
        let sketch = |t| {
            let mode = DistMode::Sketch {
                t,
                hash_seed: 7,
                cut_factor: 1.0,
            };
            Session::on(&g)
                .partition(gen::rows_of_grid(3, 3))
                .backend(Backend::Sketch(DistConfig {
                    mode,
                    sim: SimConfig::default(),
                }))
                .build()
        };
        for t in [0, 1] {
            assert_eq!(sketch(t).err(), Some(SessionError::SketchCapacityTooSmall));
        }
        sketch(2)
            .expect("capacity 2 detects")
            .try_prepare()
            .expect("default round cap");
    }

    #[test]
    fn build_refuses_node_lists_of_another_graph() {
        // Rows of a 6×6 grid name nodes a 4×4 grid does not have.
        let small = gen::grid(4, 4);
        let big_rows = Session::on(&small).partition(gen::rows_of_grid(6, 6));
        let out_of_range = PartitionError::OutOfRange(NodeId(16));
        assert_eq!(big_rows.build().err(), Some(out_of_range.into()));
        // Rows of a 4×4 grid are no rows of a 6×6 one: {4, 5, 6, 7}
        // straddles two rows there.
        let big = gen::grid(6, 6);
        let small_rows = Session::on(&big).partition(gen::rows_of_grid(4, 4));
        let disconnected = PartitionError::Disconnected(1);
        assert_eq!(small_rows.build().err(), Some(disconnected.into()));
    }

    #[test]
    fn session_error_display_matches_legacy_messages() {
        assert_eq!(SessionError::NoPartition.to_string(), NO_PARTITION);
    }

    /// A part outside the tree's component is refused where a partition
    /// is installed — `build` and `set_partition` — and a refused
    /// `set_partition` leaves the session as it was.
    #[test]
    fn off_tree_parts_are_refused_where_a_partition_is_installed() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]);
        let near = vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]];
        let far = vec![vec![NodeId(0)], vec![NodeId(4), NodeId(5)]];
        let off_tree = PartitionError::OffTree(NodeId(4));
        for tree in [None, Some(bfs::bfs_tree(&g, NodeId(0)))] {
            let on = |parts: Vec<Vec<NodeId>>| {
                let builder = Session::on(&g).partition(parts);
                match tree.clone() {
                    Some(t) => builder.tree(TreeSource::Provided(t)).build(),
                    None => builder.build(),
                }
            };
            assert_eq!(
                on(far.clone()).err(),
                Some(SessionError::Partition(off_tree.clone()))
            );
            let mut s = on(near.clone()).expect("both parts hang off node 0");
            let _ = s.quality();
            let (epoch, stats) = (s.epoch, *s.cache_stats());
            assert_eq!(s.set_partition(far.clone()), Err(off_tree.clone()));
            assert_eq!((s.epoch, *s.cache_stats()), (epoch, stats));
            assert_eq!(s.partition().num_parts(), 2);
            assert_eq!(s.partition().part_of(NodeId(4)), None);
            assert!(s.quality().all_connected(), "still serving");
        }
        // From the other component the same parts are fine.
        let rooted_far = Session::on(&g)
            .tree(TreeSource::Bfs(NodeId(3)))
            .partition(vec![vec![NodeId(4), NodeId(5)]]);
        assert!(rooted_far.build().is_ok());
    }
}
