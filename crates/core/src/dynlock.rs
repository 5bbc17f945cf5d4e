//! Runtime-assembled CLoF locks: any `&[LockKind]` composition over any
//! [`Hierarchy`].
//!
//! This is the form the exhaustive generator (paper §4.3) benchmarks: with
//! `N = 4` basic locks and `M = 4` levels there are 256 compositions, far
//! too many to monomorphize statically. A [`DynClofLock`] is a tree of
//! [`DynNode`]s — one per cohort per level — each holding an enum-
//! dispatched basic lock, the level metadata, and an `Arc` to its parent
//! node.
//!
//! Handles walk the tree through one of two dispatch tiers. Both run the
//! same shared lock-passing step (`crate::protocol`) that the static
//! [`Clof`](crate::Clof) runs: the generic tier instantiates it with the
//! enum-dispatched [`AnyLock`], and the finalist tier with typed chains
//! re-resolved from the same nodes (see `fastdisp`).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clof_locks::{ClhLock, Hemlock, McsLock, TicketLock};
use clof_topology::{CpuId, Hierarchy};

use crate::compose::{cohort_layout, cpu_stripes};
use crate::error::ClofError;
use crate::kind::{AnyContext, AnyLock, LockKind};
use crate::level::{ClofParams, LevelMeta};
#[cfg(feature = "deadline")]
use crate::protocol::Until;
use crate::protocol::{self, Blocking, HoldObs, Hooks, LockObs, NodeObs, Wait};

use self::fastdisp::{FastHandle, Step, Top};

/// Hand-off statistics of one cohort node (relaxed counters — exact
/// totals at quiescence, approximate snapshots while running).
///
/// All three counters are owner-only: bumped while holding the node's
/// low lock, so a plain load + store replaces the locked RMW (successive
/// owners are ordered by the lock's release→acquire edge, which also
/// publishes the store).
#[derive(Debug, Default)]
struct NodeStats {
    /// Times the node's low lock was acquired through this node.
    acquisitions: AtomicU64,
    /// Releases that *passed* the high lock within the cohort.
    passes: AtomicU64,
    /// Releases that let the high lock go to other cohorts.
    releases_up: AtomicU64,
}

#[inline]
fn bump(counter: &AtomicU64) {
    let v = counter.load(Ordering::Relaxed);
    counter.store(v + 1, Ordering::Relaxed);
}

impl Hooks for NodeStats {
    #[inline]
    fn record_acquire(&self, _inherited: bool, _start: u64) {
        bump(&self.acquisitions);
    }

    #[inline]
    fn record_pass(&self) {
        bump(&self.passes);
    }

    #[inline]
    fn record_release_up(&self, _forced: bool) {
        bump(&self.releases_up);
    }
}

/// Per-level aggregate of [`DynClofLock::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelStats {
    /// Level index, 0 = innermost.
    pub level: usize,
    /// Low-lock acquisitions at this level.
    pub acquisitions: u64,
    /// Intra-cohort passes decided at this level.
    pub passes: u64,
    /// Full releases (high lock surrendered) decided at this level.
    pub releases_up: u64,
}

impl LevelStats {
    /// Fraction of release decisions at this level that stayed local —
    /// the locality the composition achieved (cf. the simulator's
    /// `handovers_by_level`).
    pub fn locality(&self) -> f64 {
        let total = self.passes + self.releases_up;
        if total == 0 {
            0.0
        } else {
            self.passes as f64 / total as f64
        }
    }
}

/// One cohort node in a dynamic CLoF tree.
pub struct DynNode {
    low: AnyLock,
    /// Metadata + the high-lock context; `None` context for the root.
    meta: LevelMeta<()>,
    high_ctx: UnsafeCell<Option<AnyContext>>,
    high: Option<Arc<DynNode>>,
    /// This node's sibling index under its parent — the stripe its
    /// upward acquires register on in the parent's read indicator.
    slot: u32,
    stats: NodeStats,
    obs: NodeObs,
}

// SAFETY: `high_ctx` is protected by the low lock exactly like the static
// composition's `LevelMeta` context cell (context invariant + release
// order); all other state is atomics or immutable after construction.
unsafe impl Sync for DynNode {}
// SAFETY: All owned data is `Send`.
unsafe impl Send for DynNode {}

/// The node's recording points, shared by both dispatch tiers: the
/// always-on hand-off counters, then telemetry.
impl Hooks for DynNode {
    #[inline]
    fn start(&self) -> u64 {
        self.obs.start()
    }

    #[inline]
    fn record_acquire(&self, inherited: bool, start: u64) {
        self.stats.record_acquire(inherited, start);
        self.obs.record_acquire(inherited, start);
    }

    #[inline]
    fn record_pass(&self) {
        self.stats.record_pass();
        self.obs.record_pass();
    }

    #[inline]
    fn record_release_up(&self, forced: bool) {
        self.stats.record_release_up(forced);
        self.obs.record_release_up(forced);
    }

    #[inline]
    fn record_hint_hit(&self) {
        self.obs.record_hint_hit();
    }
}

impl DynNode {
    fn new(
        kind: LockKind,
        high: Option<Arc<DynNode>>,
        params: ClofParams,
        (fanin, slot): (usize, u32),
        obs: NodeObs,
    ) -> Self {
        DynNode {
            low: AnyLock::new(kind),
            meta: LevelMeta::with_fanin(params, fanin),
            high_ctx: UnsafeCell::new(high.as_ref().map(|h| h.low.new_context())),
            high,
            slot,
            stats: NodeStats::default(),
            obs,
        }
    }

    /// The high-lock context this node climbs through.
    ///
    /// # Safety
    ///
    /// The caller must own this node's low lock: the context invariant
    /// then grants exclusive use, and the previous user's writes are
    /// visible through the low lock's release→acquire synchronization.
    #[allow(clippy::mut_from_ref)]
    unsafe fn high_ctx(&self) -> &mut AnyContext {
        // SAFETY: Exclusivity per the function's safety contract.
        let cell = unsafe { &mut *self.high_ctx.get() };
        cell.as_mut().expect("non-root nodes have a high context")
    }

    /// Recursive `lockgen` acquire (paper Figure 8) through the shared
    /// protocol step. `stripe` is the caller's child position under
    /// this node (CPU index within a leaf cohort at level 0, the child's
    /// sibling slot above).
    fn lock<W: Wait>(&self, ctx: &mut AnyContext, stripe: u32, wait: W) -> bool {
        let Some(high) = &self.high else {
            return protocol::acquire_root(&self.low, ctx, self.meta.budget(), self, wait);
        };
        protocol::acquire(&self.low, ctx, &self.meta, self, stripe, wait, || {
            // SAFETY: The protocol climbs only while we own the low lock.
            high.lock(unsafe { self.high_ctx() }, self.slot, wait)
        })
    }

    /// Recursive `lockgen` release (paper Figure 8).
    fn unlock(&self, ctx: &mut AnyContext) {
        let Some(high) = &self.high else {
            return self.low.release(ctx);
        };
        protocol::release(&self.low, ctx, &self.meta, self, || {
            // SAFETY: As in `lock`; we still own the low lock.
            high.unlock(unsafe { self.high_ctx() });
        });
    }

    /// This node's basic-lock kind.
    pub fn kind(&self) -> LockKind {
        self.low.kind()
    }
}

/// A complete CLoF lock for a machine: the tree of per-cohort nodes plus
/// the CPU → leaf mapping.
///
/// See the [crate docs](crate) for a usage example.
pub struct DynClofLock {
    leaves: Vec<Arc<DynNode>>,
    cpu_to_leaf: Vec<usize>,
    /// Each CPU's index within its leaf cohort — the read-indicator
    /// stripe its handle registers on.
    cpu_to_stripe: Vec<u32>,
    /// Every node of the tree in construction order, tagged with its
    /// level: the traversal list for `stats`/`obs_snapshot`/
    /// `queue_hints`, visiting each node exactly once without the old
    /// quadratic `seen` scan over leaf-to-root chains.
    nodes: Vec<(usize, Arc<DynNode>)>,
    /// Monomorphized dispatch for finalist compositions; `None` falls
    /// back to the enum tree.
    fast: Option<FastTier>,
    composition: Vec<LockKind>,
    name: String,
    obs: LockObs,
    /// Set when a holder panicked inside its critical section: the
    /// protected data may be mid-mutation. The flag is advisory at this
    /// layer — acquisition still works (the panicking holder's guard
    /// released the tree, so nobody hangs) and wrappers like
    /// `ClofMutex` turn it into `ClofError::Poisoned`.
    #[cfg(feature = "deadline")]
    poisoned: std::sync::atomic::AtomicBool,
}

impl std::fmt::Debug for DynClofLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynClofLock")
            .field("composition", &self.name)
            .field("leaves", &self.leaves.len())
            .finish()
    }
}

impl DynClofLock {
    /// Builds the composition `locks` (innermost level first, one entry
    /// per hierarchy level) over `hierarchy`, with default parameters.
    ///
    /// # Errors
    ///
    /// Fails if the composition length does not match the hierarchy's
    /// level count, or if a component is unfair (use
    /// [`build_with`](Self::build_with) with `allow_unfair` to override —
    /// the paper only considers fair locks after §4.2.3).
    #[track_caller]
    pub fn build(hierarchy: &Hierarchy, locks: &[LockKind]) -> Result<Self, ClofError> {
        Self::build_with(hierarchy, locks, ClofParams::default(), false)
    }

    /// Builds with explicit parameters and fairness policy.
    #[track_caller]
    pub fn build_with(
        hierarchy: &Hierarchy,
        locks: &[LockKind],
        params: ClofParams,
        allow_unfair: bool,
    ) -> Result<Self, ClofError> {
        let per_level = vec![params; hierarchy.level_count()];
        Self::build_with_level_params(hierarchy, locks, &per_level, allow_unfair)
    }

    /// Builds with *per-level* parameters (innermost first) — HMCS tunes
    /// its keep-local threshold per level, and so can CLoF compositions.
    ///
    /// With the `obs` feature the new lock auto-registers a contention-
    /// profiler site; `#[track_caller]` makes the recorded construction
    /// location name the user's build call, not these builder internals.
    #[track_caller]
    pub fn build_with_level_params(
        hierarchy: &Hierarchy,
        locks: &[LockKind],
        params: &[ClofParams],
        allow_unfair: bool,
    ) -> Result<Self, ClofError> {
        if locks.len() != hierarchy.level_count() || params.len() != hierarchy.level_count() {
            return Err(ClofError::LevelCountMismatch {
                locks: locks.len().min(params.len()),
                levels: hierarchy.level_count(),
            });
        }
        if !allow_unfair {
            if let Some((level, &kind)) = locks.iter().enumerate().find(|&(_, k)| !k.is_fair()) {
                return Err(ClofError::UnfairComponent { kind, level });
            }
        }
        let levels = hierarchy.level_count();
        let name = crate::generator::composition_name(locks);
        // Topology shape recorded at the profiler site: cpu count plus
        // cohort counts per level, innermost first (e.g. `8cpu/4-2-1`).
        let shape = {
            let cohorts: Vec<String> = (0..levels)
                .map(|l| hierarchy.cohort_count(l).to_string())
                .collect();
            format!("{}cpu/{}", hierarchy.ncpus(), cohorts.join("-"))
        };
        let obs = LockObs::register(&name, &shape, std::panic::Location::caller());
        // Build from the root (outermost level) down, collecting every
        // node in construction order for the linear traversals.
        let mut all_nodes: Vec<(usize, Arc<DynNode>)> = Vec::new();
        let mut upper: Vec<Arc<DynNode>> = Vec::new();
        for level in (0..levels).rev() {
            let layout = cohort_layout(hierarchy, level);
            let mut nodes = Vec::with_capacity(layout.len());
            for (cohort, &(fanin, slot)) in layout.iter().enumerate() {
                let high = (level + 1 < levels).then(|| {
                    let cpu = hierarchy.cohort_members(level, cohort)[0];
                    Arc::clone(&upper[hierarchy.cohort(level + 1, cpu)])
                });
                // The root keeps slot 0 (`cohort_layout` gives it none).
                let node = Arc::new(DynNode::new(
                    locks[level],
                    high,
                    params[level],
                    (fanin, slot),
                    obs.node(level),
                ));
                // Topology-derived spin budget: each level's waiters
                // spin inversely to the span of its cohorts before
                // parking. Runtime-retunable via `set_spin_budget`.
                node.meta.budget().derive(hierarchy, level);
                all_nodes.push((level, Arc::clone(&node)));
                nodes.push(node);
            }
            upper = nodes;
        }
        // No handles exist yet, so the fast tier may resolve typed
        // pointers into the node-resident context cells race-free.
        let fast = FastTier::resolve(&upper, locks);
        Ok(DynClofLock {
            fast,
            leaves: upper,
            cpu_to_leaf: (0..hierarchy.ncpus())
                .map(|c| hierarchy.cohort(0, c))
                .collect(),
            cpu_to_stripe: cpu_stripes(hierarchy),
            nodes: all_nodes,
            composition: locks.to_vec(),
            name,
            obs,
            #[cfg(feature = "deadline")]
            poisoned: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// A per-thread handle entering at `cpu`'s leaf cohort.
    ///
    /// Finalist compositions get a monomorphized handle (statically
    /// dispatched node walk, no per-op enum `match`); everything else
    /// gets the generic enum-tree handle. Both speak the identical
    /// protocol on the same shared nodes, so handles of either tier
    /// interoperate freely on one lock.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is outside the hierarchy used to build the lock.
    pub fn handle(&self, cpu: CpuId) -> DynHandle {
        let leaf_idx = self.cpu_to_leaf[cpu];
        let stripe = self.cpu_to_stripe[cpu];
        let leaf = Arc::clone(&self.leaves[leaf_idx]);
        let inner = match &self.fast {
            Some(tier) => tier.handle(leaf_idx, leaf, stripe),
            None => HandleInner::generic(leaf, stripe),
        };
        DynHandle {
            inner,
            hold: self.obs.hold(),
        }
    }

    /// A handle forced onto the generic enum-dispatch tier even when the
    /// composition has a monomorphized fast path — the ablation control
    /// for benchmarks, and a mixed-tier stressor for the oracle.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is outside the hierarchy used to build the lock.
    pub fn handle_generic(&self, cpu: CpuId) -> DynHandle {
        let leaf = Arc::clone(&self.leaves[self.cpu_to_leaf[cpu]]);
        DynHandle {
            inner: HandleInner::generic(leaf, self.cpu_to_stripe[cpu]),
            hold: self.obs.hold(),
        }
    }

    /// A placement-tracking handle: enters at the leaf cohort of the
    /// CPU the thread *currently* runs on, resolved through the
    /// [`crate::cpu`] thread-local cache, and re-homed automatically
    /// when a periodic re-check observes a migration. Use this when
    /// callers have no pinned placement of their own.
    pub fn auto_handle(self: &Arc<Self>) -> AutoHandle {
        let cpu = crate::cpu::cached_cpu(self.cpu_to_leaf.len());
        AutoHandle {
            inner: self.handle(cpu),
            lock: Arc::clone(self),
            cpu,
        }
    }

    /// Which dispatch tier [`handle`](Self::handle) returns for this
    /// composition.
    pub fn dispatch_tier(&self) -> DispatchTier {
        if self.fast.is_some() {
            DispatchTier::Monomorphized
        } else {
            DispatchTier::Generic
        }
    }

    /// Read-indicator count currently registered at `cpu`'s leaf cohort,
    /// summed over stripes. Racy by nature (diagnostics); leaf levels
    /// whose low lock hints waiters natively keep no counter and always
    /// report 0.
    pub fn leaf_waiter_count(&self, cpu: CpuId) -> u32 {
        self.leaves[self.cpu_to_leaf[cpu]].meta.waiter_count()
    }

    /// Composition in the paper's notation, e.g. `"tkt-clh-tkt"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The composed kinds, innermost first.
    pub fn composition(&self) -> &[LockKind] {
        &self.composition
    }

    /// Whether this composition is starvation-free.
    pub fn is_fair(&self) -> bool {
        self.composition.iter().all(|k| k.is_fair())
    }

    /// Number of leaf cohorts.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Aggregated hand-off statistics per level (innermost first).
    ///
    /// A well-matched composition shows high [`LevelStats::locality`] at
    /// the inner levels — the real-lock counterpart of the simulator's
    /// per-level handover histogram.
    pub fn stats(&self) -> Vec<LevelStats> {
        let levels = self.composition.len();
        let mut out: Vec<LevelStats> = (0..levels)
            .map(|level| LevelStats {
                level,
                acquisitions: 0,
                passes: 0,
                releases_up: 0,
            })
            .collect();
        // The construction-order node list holds each node exactly once.
        for (level, node) in &self.nodes {
            out[*level].acquisitions += node.stats.acquisitions.load(Ordering::Relaxed);
            out[*level].passes += node.stats.passes.load(Ordering::Relaxed);
            out[*level].releases_up += node.stats.releases_up.load(Ordering::Relaxed);
        }
        out
    }

    /// Full telemetry snapshot: per-level counters and acquire-latency
    /// histograms (summed across cohorts), whole-lock hold-time
    /// histogram, and the surviving pass-event trace — everything
    /// [`clof_obs::render_json`]/[`clof_obs::render_prometheus`] and the
    /// `Display` impl consume. Exact at quiescence, approximate while
    /// threads are mid-acquire (same contract as [`Self::stats`]).
    #[cfg(feature = "obs")]
    pub fn obs_snapshot(&self) -> clof_obs::LockSnapshot {
        let mut levels: Vec<clof_obs::LevelSnapshot> = (0..self.composition.len())
            .map(|level| clof_obs::LevelSnapshot {
                level,
                ..Default::default()
            })
            .collect();
        for (level, node) in &self.nodes {
            let mut snap = node.obs.counters.snapshot(*level);
            snap.acquire_ns = node.obs.acquire_ns.snapshot();
            levels[*level].merge(&snap);
        }
        clof_obs::LockSnapshot {
            name: self.name.clone(),
            levels,
            hold_ns: self.obs.hold_ns.snapshot(),
            events_recorded: self.obs.ring.recorded(),
            events_dropped: self.obs.ring.dropped(),
            events: self.obs.ring.events(),
        }
    }

    /// Per-level waiter counts right now: `(level, queued_waiters)`
    /// summed over cohorts, innermost first. Approximate by nature (it
    /// races running acquires) — meant as the queue-shape hint in a
    /// starvation watchdog's diagnostic dump. Levels whose low lock
    /// natively hints waiters keep no read-indicator counter and always
    /// report 0 here.
    #[cfg(feature = "obs")]
    pub fn queue_hints(&self) -> Vec<(usize, u32)> {
        let mut out: Vec<(usize, u32)> =
            (0..self.composition.len()).map(|l| (l, 0)).collect();
        for (level, node) in &self.nodes {
            out[*level].1 += node.meta.waiter_count();
        }
        out
    }

    /// Total read-indicator count registered anywhere in the tree right
    /// now, summed over levels and cohorts. Racy diagnostic (it races
    /// running acquires), but *zero is trustworthy at quiescence*: once
    /// no thread is inside acquire, every registered waiter has
    /// deregistered. The adaptation layer's migration drain uses this
    /// as a secondary sanity check on the outgoing tree. Levels whose
    /// low lock hints waiters natively keep no counter and contribute 0.
    pub fn queue_depth_hint(&self) -> u32 {
        self.nodes
            .iter()
            .map(|(_, node)| node.meta.waiter_count())
            .sum()
    }

    /// Marks the protected state suspect: a holder panicked inside its
    /// critical section. Called by guard `Drop` impls that detect
    /// `std::thread::panicking()` — *after* marking they still release,
    /// so waiters never hang on a dead holder; they observe the flag
    /// instead. Release ordering pairs with the `Acquire` in
    /// [`is_poisoned`] so the flag is visible to the next acquirer.
    #[cfg(feature = "deadline")]
    pub fn poison(&self) {
        self.poisoned
            .store(true, std::sync::atomic::Ordering::Release);
        #[cfg(feature = "obs")]
        clof_obs::deadline::record_poison();
    }

    /// Whether a holder has panicked while holding this lock.
    #[cfg(feature = "deadline")]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Clears the poison flag after the caller has repaired (or chosen
    /// to trust) the protected state — the `Mutex::clear_poison`
    /// recovery idiom.
    #[cfg(feature = "deadline")]
    pub fn clear_poison(&self) {
        self.poisoned
            .store(false, std::sync::atomic::Ordering::Release);
    }

    /// Current per-level spin budgets `(level, rounds)`, innermost
    /// first. All cohorts of one level share a budget, so one node per
    /// level reports it. The adaptation layer snapshots this on the
    /// outgoing tree and replays it onto the incoming one, carrying the
    /// waiting policy across hot-swaps.
    #[cfg(feature = "park")]
    pub fn spin_budgets(&self) -> Vec<(usize, u32)> {
        let mut out: Vec<Option<u32>> = vec![None; self.composition.len()];
        for (level, node) in &self.nodes {
            out[*level].get_or_insert(node.meta.spin_budget());
        }
        out.into_iter()
            .enumerate()
            .map(|(level, b)| (level, b.unwrap_or(clof_locks::SPIN_FOREVER)))
            .collect()
    }

    /// Retunes the spin budget of every cohort node at `level` (rounds a
    /// waiter spins before parking; [`clof_locks::SPIN_FOREVER`] turns
    /// parking off at that level). In-flight waiters may still use the
    /// old value — the budget shapes the spin/park trade-off only and
    /// never affects correctness.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside the composition.
    #[cfg(feature = "park")]
    pub fn set_spin_budget(&self, level: usize, rounds: u32) {
        assert!(
            level < self.composition.len(),
            "level {level} out of range for a {}-level composition",
            self.composition.len()
        );
        for (l, node) in &self.nodes {
            if *l == level {
                node.meta.set_spin_budget(rounds);
            }
        }
    }

    /// This lock's contention-profiler site id in the process-global
    /// [`clof_obs::registry`] ([`clof_obs::INVALID_SITE`] if the table
    /// was full at construction). Stable across adaptation swaps once
    /// [`Self::rebind_site_from`] has run.
    #[cfg(feature = "obs")]
    pub fn site_id(&self) -> u32 {
        self.obs.site.id()
    }

    /// The current contention-profile row for this lock's site: wait and
    /// hold attribution, traffic, and the per-(level, node) breakdown.
    /// `None` when the site table was full at construction.
    #[cfg(feature = "obs")]
    pub fn site_profile(&self) -> Option<clof_obs::SiteProfile> {
        let id = self.obs.site.id();
        clof_obs::profile::global()
            .snapshot()
            .sites
            .into_iter()
            .find(|s| s.id == id)
    }

    /// Adopts `outgoing`'s profiler site so an adaptation swap keeps a
    /// stable site id: this lock's provisional registration is released,
    /// the adopted site's generation is bumped, its label updated to
    /// this composition, and this tree's per-node accumulators follow it
    /// onto the adopted id. No-op when `outgoing`'s site is dead or
    /// already this lock's own.
    #[cfg(feature = "obs")]
    pub fn rebind_site_from(&self, outgoing: &DynClofLock) {
        let before = self.obs.site.id();
        self.obs.site.rebind(&outgoing.obs.site, &self.name);
        let after = self.obs.site.id();
        if after != before {
            for (_, node) in &self.nodes {
                clof_obs::profile::global().attach_node(after, node.obs.acc());
            }
        }
    }

    /// Renames this lock's registry site (the `tas+` fast-path wrapper
    /// labels the site it wraps).
    #[cfg(feature = "obs")]
    pub(crate) fn relabel_site(&self, label: &str) {
        clof_obs::registry::global().relabel(self.obs.site.id(), label);
    }

    /// The shared site anchor (for wrappers that attribute their own
    /// wait/hold to this lock's site, e.g. the TAS gate).
    #[cfg(feature = "obs")]
    pub(crate) fn site_anchor(&self) -> Arc<clof_obs::SiteAnchor> {
        Arc::clone(&self.obs.site)
    }
}

/// Which code path [`DynClofLock::handle`] dispatches through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchTier {
    /// A finalist composition: statically-typed node walk, no per-op
    /// enum `match`.
    Monomorphized,
    /// The generic enum tree (exhaustive-generator territory).
    Generic,
}

/// The monomorphized fast-dispatch tier.
///
/// The exhaustive generator needs the enum tree — `N^M` compositions
/// cannot all be monomorphized. But `select` only ever ships a handful
/// of finalists, and those pay the per-op `AnyLock`/`AnyContext` match
/// on every level transition for no reason. This module re-types the
/// *already built* enum tree for the finalist shapes: at construction
/// (before any handle exists) it resolves a typed chain per leaf —
/// pointers to each level's node and lock and to the node-resident high
/// contexts — and handles then run the shared protocol step with typed
/// low locks, on the same node state as the enum tree. Fast and generic
/// handles interoperate on one lock because neither owns any protocol
/// state privately.
///
/// A chain is recursive like the static composition: [`Step`] is one
/// level below a chain, [`Top`] the system-level lock, so every depth
/// comes from the same two definitions.
mod fastdisp {
    use std::ptr::NonNull;
    use std::sync::Arc;

    use super::DynNode;
    use crate::kind::TypedLock;
    use crate::protocol::{self, Wait};

    /// A resolved typed chain from one node up to the root.
    ///
    /// Chains hold raw pointers into the `DynClofLock`'s `Arc` chain of
    /// nodes; handles pin that chain through their leaf `Arc`. The
    /// node-resident contexts are dereferenced only while owning the
    /// level below them (the context invariant), exactly the discipline
    /// `DynNode`'s own `Sync` impl relies on.
    pub(super) trait Chain: Copy {
        /// The chain's bottom lock.
        type Low: TypedLock;

        /// Resolves the chain from `node` up; `None` (generic fallback)
        /// if a level's kind fails to downcast or the depth differs.
        /// Must run before any handle exists: it takes pointers into
        /// the context cells.
        fn resolve(node: &Arc<DynNode>) -> Option<Self>;

        /// # Safety
        ///
        /// The chain's nodes must be alive, and `ctx` must be owned by
        /// the caller (a handle's own context, or a node-resident one
        /// while owning the level below).
        unsafe fn lock<W: Wait>(
            &self,
            ctx: &mut <Self::Low as clof_locks::RawLock>::Context,
            stripe: u32,
            wait: W,
        ) -> bool;

        /// # Safety
        ///
        /// As [`lock`](Chain::lock), while holding the chain through `ctx`.
        unsafe fn unlock(&self, ctx: &mut <Self::Low as clof_locks::RawLock>::Context);
    }

    /// The system-level lock: the chain's base case.
    pub(super) struct Top<L> {
        node: NonNull<DynNode>,
        lock: NonNull<L>,
    }

    /// Level `L` below the chain `H`, with the node-resident context `H`
    /// is acquired through.
    pub(super) struct Step<L: TypedLock, H: Chain> {
        node: NonNull<DynNode>,
        lock: NonNull<L>,
        high: H,
        high_ctx: NonNull<<H::Low as clof_locks::RawLock>::Context>,
    }

    impl<L> Clone for Top<L> {
        fn clone(&self) -> Self {
            *self
        }
    }
    impl<L> Copy for Top<L> {}
    impl<L: TypedLock, H: Chain> Clone for Step<L, H> {
        fn clone(&self) -> Self {
            *self
        }
    }
    impl<L: TypedLock, H: Chain> Copy for Step<L, H> {}

    // SAFETY: Every field is a pointer into the lock's node tree: `node`
    // and `lock` are only read through (nodes are `Sync`), and
    // `high_ctx` is dereferenced only under the context invariant (see
    // `Chain`); `high` is a chain with the same properties.
    unsafe impl<L: TypedLock> Send for Top<L> {}
    unsafe impl<L: TypedLock> Sync for Top<L> {}
    unsafe impl<L: TypedLock, H: Chain> Send for Step<L, H> {}
    unsafe impl<L: TypedLock, H: Chain> Sync for Step<L, H> {}

    impl<L: TypedLock> Chain for Top<L> {
        type Low = L;

        fn resolve(node: &Arc<DynNode>) -> Option<Self> {
            if node.high.is_some() {
                return None;
            }
            Some(Top {
                node: NonNull::from(&**node),
                lock: NonNull::from(L::from_any(&node.low)?),
            })
        }

        #[inline]
        unsafe fn lock<W: Wait>(&self, ctx: &mut L::Context, _stripe: u32, wait: W) -> bool {
            // SAFETY: The caller guarantees the chain's nodes are alive.
            let (node, lock) = unsafe { (self.node.as_ref(), self.lock.as_ref()) };
            protocol::acquire_root(lock, ctx, node.meta.budget(), node, wait)
        }

        #[inline]
        unsafe fn unlock(&self, ctx: &mut L::Context) {
            // SAFETY: As in `lock`.
            clof_locks::RawLock::release(unsafe { self.lock.as_ref() }, ctx);
        }
    }

    impl<L: TypedLock, H: Chain> Chain for Step<L, H> {
        type Low = L;

        fn resolve(node: &Arc<DynNode>) -> Option<Self> {
            let high = H::resolve(node.high.as_ref()?)?;
            // SAFETY: Construction-time exclusive access (no handles yet).
            let cell = unsafe { &mut *node.high_ctx.get() };
            Some(Step {
                node: NonNull::from(&**node),
                lock: NonNull::from(L::from_any(&node.low)?),
                high,
                high_ctx: NonNull::from(H::Low::ctx_from_any(cell.as_mut()?)?),
            })
        }

        #[inline]
        unsafe fn lock<W: Wait>(&self, ctx: &mut L::Context, stripe: u32, wait: W) -> bool {
            // SAFETY: The caller guarantees the chain's nodes are alive.
            let (node, lock) = unsafe { (self.node.as_ref(), self.lock.as_ref()) };
            let climb = || {
                // SAFETY: The protocol climbs only while we own this
                // level, which makes the high context ours.
                let high_ctx = unsafe { &mut *self.high_ctx.as_ptr() };
                // SAFETY: The caller's liveness guarantee covers the chain.
                unsafe { self.high.lock(high_ctx, node.slot, wait) }
            };
            protocol::acquire(lock, ctx, &node.meta, node, stripe, wait, climb)
        }

        #[inline]
        unsafe fn unlock(&self, ctx: &mut L::Context) {
            // SAFETY: As in `lock`.
            let (node, lock) = unsafe { (self.node.as_ref(), self.lock.as_ref()) };
            let climb = || {
                // SAFETY: As in `lock`; high before low (§4.1.3).
                let high_ctx = unsafe { &mut *self.high_ctx.as_ptr() };
                // SAFETY: As above.
                unsafe { self.high.unlock(high_ctx) }
            };
            protocol::release(lock, ctx, &node.meta, node, climb);
        }
    }

    /// Per-thread fast handle over a resolved chain: owns the leaf
    /// context and its indicator stripe; the leaf `Arc` pins the whole
    /// chain (each node holds its parent).
    pub(super) struct FastHandle<C: Chain> {
        chain: C,
        ctx: <C::Low as clof_locks::RawLock>::Context,
        stripe: u32,
        _leaf: Arc<DynNode>,
    }

    impl<C: Chain> FastHandle<C> {
        pub(super) fn new(chain: &C, leaf: Arc<DynNode>, stripe: u32) -> Self {
            FastHandle {
                chain: *chain,
                ctx: Default::default(),
                stripe,
                _leaf: leaf,
            }
        }

        #[inline]
        pub(super) fn lock<W: Wait>(&mut self, wait: W) -> bool {
            // SAFETY: `_leaf` pins the chain; the context is ours.
            unsafe { self.chain.lock(&mut self.ctx, self.stripe, wait) }
        }

        #[inline]
        pub(super) fn unlock(&mut self) {
            // SAFETY: As in `lock`; called only while held.
            unsafe { self.chain.unlock(&mut self.ctx) }
        }
    }
}

/// Lists the finalist compositions once — the HC/LC winners from
/// EXPERIMENTS.md plus the homogeneous shapes the stress oracle leans
/// on — each with the typed chain its handles run, and generates the
/// per-leaf chain table ([`FastTier`]) and the handle dispatch
/// ([`HandleInner`]) from that list.
macro_rules! finalists {
    ($($name:ident: [$($kind:ident),+] => $chain:ty,)+) => {
        /// One pre-resolved chain per leaf, for a finalist composition.
        enum FastTier {
            $($name(Vec<$chain>),)+
        }

        /// Dispatch state of one handle: the generic enum walk or one
        /// finalist chain.
        enum HandleInner {
            Generic {
                leaf: Arc<DynNode>,
                ctx: AnyContext,
                stripe: u32,
            },
            $($name(FastHandle<$chain>),)+
        }

        impl FastTier {
            /// Resolves the fast tier for `locks` if it is a finalist
            /// shape; `None` keeps the generic enum dispatch. Must be
            /// called during lock construction, before any handle exists.
            fn resolve(leaves: &[Arc<DynNode>], locks: &[LockKind]) -> Option<FastTier> {
                use fastdisp::Chain;
                match locks {
                    $([$(LockKind::$kind),+] => Some(FastTier::$name(
                        leaves.iter().map(<$chain>::resolve).collect::<Option<_>>()?,
                    )),)+
                    _ => None,
                }
            }

            /// Builds the fast handle for `leaf_idx`.
            fn handle(&self, leaf_idx: usize, leaf: Arc<DynNode>, stripe: u32) -> HandleInner {
                match self {
                    $(FastTier::$name(t) => {
                        HandleInner::$name(FastHandle::new(&t[leaf_idx], leaf, stripe))
                    })+
                }
            }
        }

        impl HandleInner {
            /// The only per-op dispatch: one match at the handle, not
            /// one per level transition.
            #[inline]
            fn lock<W: Wait>(&mut self, wait: W) -> bool {
                match self {
                    HandleInner::Generic { leaf, ctx, stripe } => leaf.lock(ctx, *stripe, wait),
                    $(HandleInner::$name(h) => h.lock(wait),)+
                }
            }

            #[inline]
            fn unlock(&mut self) {
                match self {
                    HandleInner::Generic { leaf, ctx, .. } => leaf.unlock(ctx),
                    $(HandleInner::$name(h) => h.unlock(),)+
                }
            }
        }
    };
}

finalists! {
    McsClhTkt: [Mcs, Clh, Ticket] => Step<McsLock, Step<ClhLock, Top<TicketLock>>>,
    ClhClhTkt: [Clh, Clh, Ticket] => Step<ClhLock, Step<ClhLock, Top<TicketLock>>>,
    ClhClhHem: [Clh, Clh, Hemlock] => Step<ClhLock, Step<ClhLock, Top<Hemlock>>>,
    TktTktTkt: [Ticket, Ticket, Ticket] => Step<TicketLock, Step<TicketLock, Top<TicketLock>>>,
    TktTkt: [Ticket, Ticket] => Step<TicketLock, Top<TicketLock>>,
    McsTkt: [Mcs, Ticket] => Step<McsLock, Top<TicketLock>>,
    ClhTkt: [Clh, Ticket] => Step<ClhLock, Top<TicketLock>>,
}

impl HandleInner {
    fn generic(leaf: Arc<DynNode>, stripe: u32) -> Self {
        let ctx = leaf.low.new_context();
        HandleInner::Generic { leaf, ctx, stripe }
    }
}

/// A per-thread handle: the leaf entry point plus this thread's leaf
/// context, dispatched through the tier `handle()` selected.
pub struct DynHandle {
    inner: HandleInner,
    hold: HoldObs,
}

impl DynHandle {
    /// Acquires the composed lock.
    pub fn acquire(&mut self) {
        self.hold.waiting();
        self.inner.lock(Blocking);
        self.hold.acquired();
    }

    /// Deadline-bounded acquire: one *absolute* deadline bounds the
    /// whole climb, every level spending from the same budget. Returns
    /// `false` on timeout, with every partially-acquired level unwound
    /// — the handle is immediately reusable and no queue node, waiter
    /// count, or wait-graph edge survives the failed attempt.
    #[cfg(feature = "deadline")]
    pub fn try_acquire_until(&mut self, deadline: std::time::Instant) -> bool {
        self.hold.waiting();
        let won = self.inner.lock(Until(deadline));
        if won {
            self.hold.acquired();
        } else {
            self.hold.wait_abandoned();
        }
        won
    }

    /// [`try_acquire_until`](Self::try_acquire_until) with a relative
    /// budget measured from now.
    #[cfg(feature = "deadline")]
    pub fn try_acquire_for(&mut self, budget: std::time::Duration) -> bool {
        self.try_acquire_until(std::time::Instant::now() + budget)
    }

    /// Releases the composed lock.
    ///
    /// Must only be called while held through this handle.
    pub fn release(&mut self) {
        self.hold.released();
        self.inner.unlock();
    }
}

/// A [`DynHandle`] that tracks the thread's placement by itself.
///
/// Created by [`DynClofLock::auto_handle`]. Each acquire consults the
/// [`crate::cpu`] thread-local cache (one TLS read on the hot path; the
/// `getcpu` syscall only every [`crate::cpu::RECHECK_PERIOD`] calls)
/// and, when the thread migrated to a CPU of a different leaf cohort,
/// swaps the inner handle *between* critical sections — the old handle
/// is idle at that point, so its contexts are quiescent and the
/// re-home cannot violate the context invariant. A stale placement
/// inside one re-check period merely enters through the old leaf,
/// which CLoF's thread-obliviousness makes correct (just not
/// NUMA-optimal).
pub struct AutoHandle {
    lock: Arc<DynClofLock>,
    inner: DynHandle,
    cpu: CpuId,
}

impl AutoHandle {
    /// Acquires the composed lock through the current placement's leaf.
    pub fn acquire(&mut self) {
        let cpu = crate::cpu::cached_cpu(self.lock.cpu_to_leaf.len());
        if cpu != self.cpu {
            self.inner = self.lock.handle(cpu);
            self.cpu = cpu;
        }
        self.inner.acquire();
    }

    /// Deadline-bounded acquire through the current placement's leaf;
    /// see [`DynHandle::try_acquire_until`]. Re-homing happens before
    /// the attempt, between critical sections, exactly as in
    /// [`acquire`](Self::acquire) — a timed-out attempt leaves the
    /// re-homed handle in place (the placement is still correct).
    #[cfg(feature = "deadline")]
    pub fn try_acquire_until(&mut self, deadline: std::time::Instant) -> bool {
        let cpu = crate::cpu::cached_cpu(self.lock.cpu_to_leaf.len());
        if cpu != self.cpu {
            self.inner = self.lock.handle(cpu);
            self.cpu = cpu;
        }
        self.inner.try_acquire_until(deadline)
    }

    /// [`try_acquire_until`](Self::try_acquire_until) with a relative
    /// budget measured from now.
    #[cfg(feature = "deadline")]
    pub fn try_acquire_for(&mut self, budget: std::time::Duration) -> bool {
        self.try_acquire_until(std::time::Instant::now() + budget)
    }

    /// Releases the composed lock.
    ///
    /// Must only be called while held through this handle.
    pub fn release(&mut self) {
        self.inner.release();
    }

    /// The placement the handle last entered through.
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clof_topology::platforms;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn auto_handle_rehomes_after_simulated_migration() {
        // tiny(): 8 CPUs, leaf cohorts of 2 — CPU 0 and CPU 7 sit in
        // different cohorts at every level.
        let h = platforms::tiny();
        let lock =
            Arc::new(DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap());
        crate::cpu::testkit::set_override(Some(0));
        crate::cpu::testkit::flush();
        let mut handle = lock.auto_handle();
        assert_eq!(handle.cpu(), 0);
        let mut value = 0usize;
        for i in 0..3 * crate::cpu::RECHECK_PERIOD {
            if i == 5 {
                // Simulated migration mid-run; the handle must keep
                // working through the stale leaf and re-home at the
                // next periodic re-check.
                crate::cpu::testkit::set_override(Some(7));
            }
            handle.acquire();
            value += 1;
            handle.release();
        }
        assert_eq!(value, 3 * crate::cpu::RECHECK_PERIOD as usize);
        assert_eq!(handle.cpu(), 7, "placement re-check never observed the migration");
        crate::cpu::testkit::set_override(None);
        crate::cpu::testkit::flush();
    }

    #[test]
    fn auto_handle_holds_handoff_invariants_across_migrations() {
        // Every thread migrates across cohorts mid-run. Mutual exclusion
        // (exact owner-only counter), the context invariant
        // (`debug_ctx_enter` panics in debug builds on a violation) and
        // release-order checks all stay armed while handles re-home.
        const THREADS: usize = 4;
        const ITERS: u32 = 2 * crate::cpu::RECHECK_PERIOD;
        let h = platforms::tiny();
        let lock =
            Arc::new(DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::new();
        for t in 0..THREADS {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            threads.push(std::thread::spawn(move || {
                crate::cpu::testkit::set_override(Some(t * 2));
                crate::cpu::testkit::flush();
                let mut handle = lock.auto_handle();
                for i in 0..ITERS {
                    if i == ITERS / 2 {
                        // Cross-cohort migration: 0↔7, 2↔5, …
                        crate::cpu::testkit::set_override(Some(7 - t * 2));
                    }
                    handle.acquire();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    handle.release();
                }
                crate::cpu::testkit::set_override(None);
                crate::cpu::testkit::flush();
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), THREADS * ITERS as usize);
    }

    fn hammer(lock: &Arc<DynClofLock>, cpus: &[usize], iters: usize) -> usize {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::new();
        for &cpu in cpus {
            let lock = Arc::clone(lock);
            let counter = Arc::clone(&counter);
            threads.push(std::thread::spawn(move || {
                let mut handle = lock.handle(cpu);
                for _ in 0..iters {
                    handle.acquire();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    handle.release();
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn build_checks_level_count() {
        let h = platforms::tiny();
        let err = DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Ticket]).unwrap_err();
        assert!(matches!(err, ClofError::LevelCountMismatch { .. }));
    }

    #[test]
    fn build_rejects_unfair_by_default() {
        let h = platforms::tiny();
        let err =
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Ttas, LockKind::Ticket]).unwrap_err();
        assert!(matches!(
            err,
            ClofError::UnfairComponent {
                kind: LockKind::Ttas,
                level: 1
            }
        ));
        // ... but allows it when asked (the lock-cohorting C-BO-MCS case).
        let lock = DynClofLock::build_with(
            &h,
            &[LockKind::Mcs, LockKind::Ttas, LockKind::Ticket],
            ClofParams::default(),
            true,
        )
        .unwrap();
        assert!(!lock.is_fair());
    }

    #[test]
    fn name_follows_paper_notation() {
        let h = platforms::tiny();
        let lock =
            DynClofLock::build(&h, &[LockKind::Hemlock, LockKind::Mcs, LockKind::Clh]).unwrap();
        assert_eq!(lock.name(), "hem-mcs-clh");
        assert_eq!(lock.leaf_count(), 4);
    }

    #[test]
    fn mutual_exclusion_all_cpus_tiny() {
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap(),
        );
        let cpus: Vec<usize> = (0..8).collect();
        assert_eq!(hammer(&lock, &cpus, 1000), 8000);
    }

    #[test]
    fn mutual_exclusion_every_homogeneous_composition() {
        let h = platforms::tiny();
        for kind in [
            LockKind::Ticket,
            LockKind::Mcs,
            LockKind::Clh,
            LockKind::Hemlock,
            LockKind::HemlockCtr,
        ] {
            let lock = Arc::new(DynClofLock::build(&h, &[kind, kind, kind]).unwrap());
            let cpus = [0usize, 3, 4, 7];
            assert_eq!(hammer(&lock, &cpus, 500), 2000, "{kind:?}");
        }
    }

    #[test]
    fn mutual_exclusion_4level_on_paper_armv8() {
        // Full Armv8 hierarchy; threads on a spread of CPUs.
        let h = platforms::paper_armv8_4level();
        let lock = Arc::new(
            DynClofLock::build(
                &h,
                &[
                    LockKind::Ticket,
                    LockKind::Clh,
                    LockKind::Ticket,
                    LockKind::Ticket,
                ],
            )
            .unwrap(),
        );
        assert_eq!(lock.name(), "tkt-clh-tkt-tkt");
        let cpus = [0usize, 1, 4, 33, 64, 127];
        assert_eq!(hammer(&lock, &cpus, 400), 2400);
    }

    #[test]
    fn two_threads_same_cpu_share_leaf() {
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Mcs, LockKind::Mcs]).unwrap(),
        );
        assert_eq!(hammer(&lock, &[2, 2], 1000), 2000);
    }

    #[test]
    fn keep_local_threshold_one_still_live() {
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build_with(
                &h,
                &[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket],
                ClofParams {
                    keep_local_threshold: 1,
                },
                false,
            )
            .unwrap(),
        );
        assert_eq!(hammer(&lock, &[0, 1, 6, 7], 500), 2000);
    }

    #[test]
    fn stats_capture_locality() {
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap(),
        );
        // Force a same-cohort waiter to exist at release time (on a
        // single-CPU host free-running threads rarely overlap): hold the
        // lock from CPU 0 while CPU 1 (same leaf cohort) queues up.
        let mut holder = lock.handle(0);
        holder.acquire();
        let started = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let waiter = {
            let lock = Arc::clone(&lock);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let mut handle = lock.handle(1);
                started.store(1, std::sync::atomic::Ordering::Release);
                handle.acquire();
                handle.release();
            })
        };
        while started.load(std::sync::atomic::Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        holder.release(); // waiter is queued at the leaf ⇒ local pass
        waiter.join().unwrap();

        let stats = lock.stats();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].acquisitions, 2);
        assert_eq!(stats[0].passes, 1, "{stats:?}");
        // The root was acquired once (by the holder) and inherited by
        // the waiter.
        assert_eq!(stats[2].acquisitions, 1);
        assert!(stats[0].locality() > 0.0);
    }

    #[test]
    fn stats_zero_on_fresh_lock() {
        let h = platforms::tiny();
        let lock =
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Mcs, LockKind::Mcs]).unwrap();
        for level in lock.stats() {
            assert_eq!(level.acquisitions, 0);
            assert_eq!(level.locality(), 0.0);
        }
    }

    #[test]
    fn per_level_params_apply() {
        use crate::level::ClofParams;
        let h = platforms::tiny();
        let params = [
            ClofParams { keep_local_threshold: 2 },
            ClofParams { keep_local_threshold: 64 },
            ClofParams { keep_local_threshold: 1 },
        ];
        let lock = Arc::new(
            DynClofLock::build_with_level_params(
                &h,
                &[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket],
                &params,
                false,
            )
            .unwrap(),
        );
        assert_eq!(hammer(&lock, &[0, 1, 4, 5], 500), 2000);
        // Arity mismatch is rejected.
        let err = DynClofLock::build_with_level_params(
            &h,
            &[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket],
            &params[..2],
            false,
        );
        assert!(err.is_err());
    }

    /// Queues a waiter on CPU 1 while CPU 0 holds, and reports the leaf
    /// cohort's read-indicator count observed during the wait.
    fn waiter_count_while_queued(lock: &Arc<DynClofLock>) -> u32 {
        let mut holder = lock.handle(0);
        holder.acquire();
        let started = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let lock = Arc::clone(lock);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let mut handle = lock.handle(1);
                started.store(1, Ordering::Release);
                handle.acquire();
                handle.release();
            })
        };
        while started.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        // Grace period: the waiter is parked in the leaf's low-lock
        // acquire (CPUs 0 and 1 share the leaf cohort on `tiny`).
        std::thread::sleep(std::time::Duration::from_millis(50));
        let count = lock.leaves[lock.cpu_to_leaf[0]].meta.waiter_count();
        holder.release();
        waiter.join().unwrap();
        count
    }

    #[test]
    fn hinting_low_lock_skips_read_indicator() {
        // Regression: a low lock with a native waiter hint (tkt) must
        // not maintain the read-indicator counter at all — the release
        // path always takes the hint branch, so `inc`/`dec_waiters`
        // would be pure wasted coherence traffic.
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket])
                .unwrap(),
        );
        assert_eq!(waiter_count_while_queued(&lock), 0);
    }

    #[test]
    fn hintless_low_lock_maintains_read_indicator() {
        // Counterpart: TTAS answers no hint, so the counter path must
        // still run and see the queued waiter.
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build_with(
                &h,
                &[LockKind::Ttas, LockKind::Ticket, LockKind::Ticket],
                ClofParams::default(),
                true,
            )
            .unwrap(),
        );
        assert_eq!(waiter_count_while_queued(&lock), 1);
    }

    #[test]
    fn flat_hierarchy_is_just_the_basic_lock() {
        let h = clof_topology::Hierarchy::flat(4).unwrap();
        let lock = Arc::new(DynClofLock::build(&h, &[LockKind::Clh]).unwrap());
        assert_eq!(lock.name(), "clh");
        assert_eq!(hammer(&lock, &[0, 1, 2, 3], 1000), 4000);
    }

    #[test]
    fn finalist_compositions_get_monomorphized_dispatch() {
        let h3 = platforms::tiny();
        for kinds in [
            [LockKind::Mcs, LockKind::Clh, LockKind::Ticket],
            [LockKind::Clh, LockKind::Clh, LockKind::Ticket],
            [LockKind::Clh, LockKind::Clh, LockKind::Hemlock],
            [LockKind::Ticket, LockKind::Ticket, LockKind::Ticket],
        ] {
            let lock = DynClofLock::build(&h3, &kinds).unwrap();
            assert_eq!(
                lock.dispatch_tier(),
                DispatchTier::Monomorphized,
                "{}",
                lock.name()
            );
        }
        let h2 = clof_topology::platforms::two_level(8, 2);
        for kinds in [
            [LockKind::Ticket, LockKind::Ticket],
            [LockKind::Mcs, LockKind::Ticket],
            [LockKind::Clh, LockKind::Ticket],
        ] {
            let lock = DynClofLock::build(&h2, &kinds).unwrap();
            assert_eq!(
                lock.dispatch_tier(),
                DispatchTier::Monomorphized,
                "{}",
                lock.name()
            );
        }
        // Non-finalists stay on the generic enum tree.
        for kinds in [
            [LockKind::Hemlock, LockKind::Mcs, LockKind::Clh],
            [LockKind::Ticket, LockKind::Clh, LockKind::Ticket],
        ] {
            let lock = DynClofLock::build(&h3, &kinds).unwrap();
            assert_eq!(lock.dispatch_tier(), DispatchTier::Generic, "{}", lock.name());
        }
        let flat = clof_topology::Hierarchy::flat(4).unwrap();
        let lock = DynClofLock::build(&flat, &[LockKind::Ticket]).unwrap();
        assert_eq!(lock.dispatch_tier(), DispatchTier::Generic);
    }

    #[test]
    fn fast_and_generic_handles_interoperate() {
        // Both tiers run the identical protocol on the same shared
        // nodes, so a mixed population must preserve mutual exclusion
        // and produce the same aggregate stats as a uniform one.
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap(),
        );
        assert_eq!(lock.dispatch_tier(), DispatchTier::Monomorphized);
        const ITERS: usize = 800;
        let counter = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::new();
        for (i, cpu) in [0usize, 1, 4, 7].into_iter().enumerate() {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            threads.push(std::thread::spawn(move || {
                let mut handle = if i % 2 == 0 {
                    lock.handle(cpu)
                } else {
                    lock.handle_generic(cpu)
                };
                for _ in 0..ITERS {
                    handle.acquire();
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    handle.release();
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4 * ITERS);
        // Every leaf acquisition is counted exactly once regardless of
        // which tier performed it.
        assert_eq!(lock.stats()[0].acquisitions, 4 * ITERS as u64);
    }

    #[test]
    fn stats_visit_every_node_exactly_once_on_asymmetric_hierarchy() {
        // Regression for the traversal rewrite: the old pointer-dedup
        // walk was quadratic and easy to get wrong on trees where
        // cohort counts differ per branch. Build an asymmetric tree —
        // leaf cohorts of size 3/2/1, mid cohorts of size 2/1 (in leaf
        // cohorts) — and check the per-level aggregates against an
        // exact hand count.
        let h = clof_topology::Hierarchy::from_levels(
            vec![
                ("core".to_string(), vec![0, 0, 0, 1, 1, 2]),
                ("numa".to_string(), vec![0, 0, 0, 0, 0, 1]),
            ],
            6,
        )
        .unwrap();
        assert_eq!(h.level_count(), 3);
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Ticket, LockKind::Ticket, LockKind::Ticket])
                .unwrap(),
        );
        // One uncontended acquire per CPU: every leaf climbs to the
        // root each time (no waiters anywhere), so per level the
        // acquisition count equals the number of ops and every pass
        // count is zero. A node missed by the traversal would lose its
        // cohort's share; a node visited twice would overshoot.
        for cpu in 0..6 {
            let mut handle = lock.handle(cpu);
            handle.acquire();
            handle.release();
        }
        let stats = lock.stats();
        assert_eq!(stats.len(), 3);
        for level in &stats {
            assert_eq!(level.acquisitions, 6, "{stats:?}");
            assert_eq!(level.passes, 0, "{stats:?}");
            // The root has no level above it to release up to.
            let expected_up = if level.level == 2 { 0 } else { 6 };
            assert_eq!(level.releases_up, expected_up, "{stats:?}");
        }
        // The construction-order list holds exactly one entry per
        // cohort per level: 3 leaves + 2 mids + 1 root.
        assert_eq!(lock.nodes.len(), 6);
        let per_level: Vec<usize> = (0..3)
            .map(|l| lock.nodes.iter().filter(|(level, _)| *level == l).count())
            .collect();
        assert_eq!(per_level, vec![3, 2, 1]);
    }

    #[test]
    fn striped_indicator_keeps_hintless_leaf_visible_per_cpu() {
        // Each CPU in a leaf cohort lands on its own stripe; a waiter
        // parked from any of them must be visible to `has_waiters`.
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build_with(
                &h,
                &[LockKind::Ttas, LockKind::Ticket, LockKind::Ticket],
                ClofParams::default(),
                true,
            )
            .unwrap(),
        );
        // CPUs 0 and 1 share leaf cohort 0 on `tiny` but use distinct
        // stripes; queue a waiter from each in turn.
        for waiter_cpu in [0usize, 1] {
            let mut holder = lock.handle(if waiter_cpu == 0 { 1 } else { 0 });
            holder.acquire();
            let started = Arc::new(AtomicUsize::new(0));
            let waiter = {
                let lock = Arc::clone(&lock);
                let started = Arc::clone(&started);
                std::thread::spawn(move || {
                    let mut handle = lock.handle(waiter_cpu);
                    started.store(1, Ordering::Release);
                    handle.acquire();
                    handle.release();
                })
            };
            while started.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(30));
            assert_eq!(
                lock.leaf_waiter_count(waiter_cpu),
                1,
                "stripe for cpu {waiter_cpu} lost its waiter"
            );
            assert!(lock.leaves[lock.cpu_to_leaf[waiter_cpu]].meta.has_waiters());
            holder.release();
            waiter.join().unwrap();
        }
    }

    /// One contended timeout cycle on `lock`: CPU 0 holds, CPU 1 times
    /// out, then — after the unwind — CPU 1 must win cleanly. Returns
    /// the timed-out attempt's elapsed wall time.
    #[cfg(feature = "deadline")]
    fn timeout_cycle(lock: &Arc<DynClofLock>, generic: bool) -> std::time::Duration {
        use std::time::{Duration, Instant};
        let mk = |cpu: usize| {
            if generic {
                lock.handle_generic(cpu)
            } else {
                lock.handle(cpu)
            }
        };
        let mut holder = mk(0);
        holder.acquire();
        let mut waiter = mk(1);
        let start = Instant::now();
        assert!(
            !waiter.try_acquire_until(start + Duration::from_millis(40)),
            "acquired a lock another handle holds"
        );
        let elapsed = start.elapsed();
        assert_eq!(
            lock.queue_depth_hint(),
            0,
            "timed-out waiter leaked a waiter-count registration"
        );
        holder.release();
        // The abandoned attempt must leave both the tree and the
        // waiter's own contexts reusable.
        assert!(waiter.try_acquire_until(Instant::now() + Duration::from_secs(10)));
        waiter.release();
        elapsed
    }

    #[cfg(feature = "deadline")]
    #[test]
    fn deadline_timeout_unwinds_fast_tier_and_generic() {
        let h = platforms::tiny();
        // (Mcs, Clh, Ticket) is a finalist: `handle` exercises the
        // monomorphized chain, `handle_generic` the enum walk.
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap(),
        );
        assert!(lock.fast.is_some(), "finalist shape should resolve a fast tier");
        for generic in [false, true] {
            let elapsed = timeout_cycle(&lock, generic);
            // Acceptance bound: d + one hand-off. Uncontended hand-offs
            // are microseconds; 40ms of budget coming back after whole
            // seconds would mean an unbounded wait snuck in.
            assert!(
                elapsed < std::time::Duration::from_secs(5),
                "timeout took {elapsed:?} against a 40ms budget (generic={generic})"
            );
        }
    }

    #[cfg(feature = "deadline")]
    #[test]
    fn deadline_timeout_unwinds_hintless_indicator_levels() {
        // TTAS leaves have no native waiter hint, so the timed-out climb
        // crosses the striped read-indicator bracket — the
        // `queue_depth_hint() == 0` assert inside `timeout_cycle` is the
        // actual leak oracle here.
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build_with(
                &h,
                &[LockKind::Ttas, LockKind::Ticket, LockKind::Ticket],
                ClofParams::default(),
                true,
            )
            .unwrap(),
        );
        timeout_cycle(&lock, false);
    }

    #[cfg(feature = "deadline")]
    #[test]
    fn deadline_uncontended_try_acquire_wins_immediately() {
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap(),
        );
        let mut handle = lock.handle(0);
        assert!(handle.try_acquire_for(std::time::Duration::from_secs(10)));
        handle.release();
        // And the plain path still works after a try path used the
        // same contexts.
        handle.acquire();
        handle.release();
    }

    #[cfg(feature = "deadline")]
    #[test]
    fn poison_flag_roundtrips() {
        let h = platforms::tiny();
        let lock = Arc::new(
            DynClofLock::build(&h, &[LockKind::Mcs, LockKind::Clh, LockKind::Ticket]).unwrap(),
        );
        assert!(!lock.is_poisoned());
        lock.poison();
        assert!(lock.is_poisoned());
        // Poison is advisory at this layer: acquisition still works.
        let mut handle = lock.handle(0);
        handle.acquire();
        handle.release();
        lock.clear_poison();
        assert!(!lock.is_poisoned());
    }
}
