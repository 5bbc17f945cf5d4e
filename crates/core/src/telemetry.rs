//! Telemetry recorders for the lock-passing protocol (`obs` feature):
//! the [`Hooks`] implementations the static and the dynamic trees fill
//! their node and handle slots with. Without `obs` the slots hold the
//! protocol's zero-sized no-op instead and this module is not compiled.
//!
//! The static side records counters and trace spans; latency
//! histograms, the pass-event ring and the contention profile stay
//! dynamic-only (monomorphized nodes have no lock-wide collector to hang
//! them on).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clof_obs::profile::{self, NodeAcc};
use clof_obs::registry::{self, SiteAnchor};
use clof_obs::trace::{self, SpanKind};
use clof_obs::{
    now_ns, thread_tag, waitgraph, watchdog, EventRing, LevelCounters, LogHistogram, PassKind,
};

use crate::protocol::Hooks;

/// Trace span of a pass or a release-up decision.
#[inline]
fn decision_span(level: u8, node: u32, kind: SpanKind, flow_out: u64) {
    let at = now_ns();
    trace::record(at, at, level, node, kind, 0, flow_out);
}

/// Trace span of a low-lock wait. An inheriting acquire picks up the
/// flow id the passing releaser parked in `flow`: the causality edge
/// rides the same release→acquire synchronization as the pass flag.
#[inline]
fn wait_span(level: u8, node: u32, flow: &AtomicU64, inherited: bool, start: u64, end: u64) {
    let flow_in = if inherited {
        flow.swap(0, Ordering::Relaxed)
    } else {
        0
    };
    trace::record(
        start,
        end,
        level,
        node,
        SpanKind::Wait { inherited },
        flow_in,
        0,
    );
}

/// Parks a fresh flow id for the inheritor of a pass and returns it.
#[inline]
fn park_flow(flow: &AtomicU64) -> u64 {
    let id = trace::next_flow_id();
    flow.store(id, Ordering::Relaxed);
    id
}

/// Per-node recording state of the static tree: counters plus the
/// tracer's level/node identity and the hand-off flow cell.
#[derive(Debug)]
pub(crate) struct StaticObs {
    /// Hierarchy level; 0 until the builder tags it.
    level: u8,
    /// Process-unique cohort tag ([`trace::node_tag`]).
    node: u32,
    /// Flow id parked by a pass for its inheritor.
    flow: AtomicU64,
    pub(crate) counters: LevelCounters,
}

impl Default for StaticObs {
    fn default() -> Self {
        StaticObs {
            level: 0,
            node: trace::node_tag(),
            flow: AtomicU64::new(0),
            counters: LevelCounters::new(),
        }
    }
}

impl Hooks for StaticObs {
    fn set_level(&mut self, level: usize) {
        self.level = level as u8;
    }

    /// 0 when tracing is off: the static side has no latency histogram
    /// to feed.
    #[inline]
    fn start(&self) -> u64 {
        if trace::is_enabled() {
            now_ns()
        } else {
            0
        }
    }

    #[inline]
    fn record_acquire(&self, inherited: bool, start: u64) {
        self.counters.record_acquire(inherited);
        if trace::is_enabled() && start != 0 {
            wait_span(
                self.level,
                self.node,
                &self.flow,
                inherited,
                start,
                now_ns(),
            );
        }
    }

    #[inline]
    fn record_pass(&self) {
        self.counters.record_pass_taken();
        if trace::is_enabled() {
            let flow = park_flow(&self.flow);
            decision_span(self.level, self.node, SpanKind::Pass, flow);
        }
    }

    #[inline]
    fn record_release_up(&self, forced: bool) {
        self.counters.record_pass_declined(forced);
        if trace::is_enabled() {
            decision_span(self.level, self.node, SpanKind::ReleaseUp { forced }, 0);
        }
    }

    #[inline]
    fn record_hint_hit(&self) {
        self.counters.record_hint_hit();
    }
}

/// Whole-lock hold span + watchdog progress of a static-tree handle.
#[derive(Debug, Default)]
pub(crate) struct HoldSpan {
    acquired_at: u64,
}

impl Hooks for HoldSpan {
    #[inline]
    fn waiting(&mut self) {
        watchdog::note_wait(thread_tag());
    }

    #[inline]
    fn acquired(&mut self) {
        watchdog::note_hold(thread_tag());
        self.acquired_at = if trace::is_enabled() { now_ns() } else { 0 };
    }

    #[inline]
    fn released(&mut self) {
        if trace::is_enabled() && self.acquired_at != 0 {
            trace::record(self.acquired_at, now_ns(), 0, 0, SpanKind::Hold, 0, 0);
        }
        watchdog::note_idle(thread_tag());
    }

    /// Nothing was acquired, so the watchdog sees idle (not hold) and
    /// the attempt lands in the process-wide timeout count.
    #[cfg(feature = "deadline")]
    #[inline]
    fn wait_abandoned(&mut self) {
        watchdog::note_idle(thread_tag());
        clof_obs::deadline::record_timeout();
    }
}

/// Per-lock collector state shared by every node of one
/// [`DynClofLock`](crate::DynClofLock): the pass-event ring, the
/// hold-time histogram, and the lock's contention-profiler site anchor
/// (shared so handles can attribute wait/hold to the site even while an
/// adaptation rebind retargets it).
#[derive(Debug)]
pub(crate) struct LockObs {
    pub(crate) ring: Arc<EventRing>,
    pub(crate) hold_ns: Arc<LogHistogram>,
    pub(crate) site: Arc<SiteAnchor>,
}

impl LockObs {
    /// Registers the lock's profiler site at `caller`.
    pub(crate) fn register(
        label: &str,
        shape: &str,
        caller: &'static std::panic::Location<'static>,
    ) -> Self {
        // First telemetry-enabled lock in the process wires the
        // spin-then-park recorder hooks into clof-obs.
        #[cfg(feature = "park")]
        crate::parkglue::install();
        // Likewise for the deadline layer's abandon/skip counters.
        #[cfg(feature = "deadline")]
        crate::deadlineglue::install();
        LockObs {
            ring: Arc::default(),
            hold_ns: Arc::default(),
            site: Arc::new(registry::global().register_at(label, shape, caller)),
        }
    }

    /// Recording state for one node at `level`.
    pub(crate) fn node(&self, level: usize) -> NodeObs {
        let node = trace::node_tag();
        NodeObs {
            level: level as u8,
            node,
            flow: AtomicU64::new(0),
            counters: LevelCounters::new(),
            acquire_ns: LogHistogram::new(),
            ring: Arc::clone(&self.ring),
            acc: profile::global().register_node(self.site.id(), level as u8, node),
            site: Arc::clone(&self.site),
        }
    }

    /// Hold-time tracker for one handle.
    pub(crate) fn hold(&self) -> HoldObs {
        HoldObs {
            hist: Arc::clone(&self.hold_ns),
            site: Arc::clone(&self.site),
            wait_from: 0,
            acquired_at: 0,
        }
    }
}

/// Per-node recording state of the dynamic tree: the node's level, its
/// counters and acquire-latency histogram, and a handle on the
/// lock-wide ring.
#[derive(Debug)]
pub(crate) struct NodeObs {
    level: u8,
    /// Process-unique cohort tag for the tracer (sibling cohorts share
    /// a level; spans must not interleave across them).
    node: u32,
    /// Hand-off flow id parked by a pass for its inheritor.
    flow: AtomicU64,
    pub(crate) counters: LevelCounters,
    pub(crate) acquire_ns: LogHistogram,
    ring: Arc<EventRing>,
    /// The lock's profiler site (shared; rebind retargets the id).
    site: Arc<SiteAnchor>,
    /// This node's per-(level, node) wait accumulator in the contention
    /// profile.
    acc: Arc<NodeAcc>,
}

impl NodeObs {
    /// The node's profile accumulator (for re-attachment after an
    /// adaptation rebind moves the lock onto an adopted site id).
    pub(crate) fn acc(&self) -> &Arc<NodeAcc> {
        &self.acc
    }
}

impl Hooks for NodeObs {
    #[inline]
    fn start(&self) -> u64 {
        now_ns()
    }

    #[inline]
    fn record_acquire(&self, inherited: bool, start: u64) {
        let end = now_ns();
        self.counters.record_acquire(inherited);
        self.acquire_ns.record(end.saturating_sub(start));
        self.acc.record_wait(end.saturating_sub(start));
        if trace::is_enabled() {
            wait_span(self.level, self.node, &self.flow, inherited, start, end);
        }
    }

    #[inline]
    fn record_pass(&self) {
        self.counters.record_pass_taken();
        self.ring.record(self.level, PassKind::Pass, thread_tag());
        // The inversion clock: remote-starvation detection counts local
        // hand-offs that happened while a waiter was parked.
        profile::global().record_pass(self.site.id());
        if trace::is_enabled() {
            let flow = park_flow(&self.flow);
            decision_span(self.level, self.node, SpanKind::Pass, flow);
        }
    }

    #[inline]
    fn record_release_up(&self, forced: bool) {
        self.counters.record_pass_declined(forced);
        self.ring
            .record(self.level, PassKind::ReleaseUp, thread_tag());
        if trace::is_enabled() {
            decision_span(self.level, self.node, SpanKind::ReleaseUp { forced }, 0);
        }
    }

    #[inline]
    fn record_hint_hit(&self) {
        self.counters.record_hint_hit();
    }
}

/// Critical-section hold-time tracker carried by each dynamic handle;
/// also publishes the thread's progress phase for the starvation
/// watchdog and its wait edges for the waits-for graph.
#[derive(Debug)]
pub(crate) struct HoldObs {
    hist: Arc<LogHistogram>,
    site: Arc<SiteAnchor>,
    wait_from: u64,
    acquired_at: u64,
}

impl Hooks for HoldObs {
    #[inline]
    fn waiting(&mut self) {
        self.wait_from = now_ns();
        watchdog::note_wait(thread_tag());
        waitgraph::note_wait(self.site.id());
        // Parks can only happen while waiting; publish the site so the
        // parked-duration recorder can attribute the episode.
        #[cfg(feature = "park")]
        crate::parkglue::enter_wait(self.site.id());
    }

    #[inline]
    fn acquired(&mut self) {
        self.acquired_at = now_ns();
        #[cfg(feature = "park")]
        crate::parkglue::exit_wait();
        let site = self.site.id();
        profile::global().record_wait(site, self.acquired_at.saturating_sub(self.wait_from));
        profile::global().record_acquire(site);
        watchdog::note_hold(thread_tag());
        waitgraph::note_acquired(site);
    }

    #[inline]
    fn released(&mut self) {
        let end = now_ns();
        self.hist.record(end.saturating_sub(self.acquired_at));
        let site = self.site.id();
        profile::global().record_hold(site, end.saturating_sub(self.acquired_at));
        if trace::is_enabled() {
            trace::record(self.acquired_at, end, 0, 0, SpanKind::Hold, 0, 0);
        }
        watchdog::note_idle(thread_tag());
        waitgraph::note_released(site);
    }

    /// Cancels the wait edge (nothing was acquired, so nothing joins the
    /// held set) and counts the attempt in the process-wide timeout
    /// telemetry.
    #[cfg(feature = "deadline")]
    #[inline]
    fn wait_abandoned(&mut self) {
        #[cfg(feature = "park")]
        crate::parkglue::exit_wait();
        watchdog::note_idle(thread_tag());
        waitgraph::note_wait_cancelled(self.site.id());
        clof_obs::deadline::record_timeout();
    }
}
