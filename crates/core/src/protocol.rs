//! The lock-passing protocol, written once: `lockgen` (paper Figure 8).
//!
//! The paper generates every composed lock from one recursive
//! definition, and its §4.2 correctness argument checks exactly one
//! induction step, `CLoF(l, L')`. This module is that step: the climb
//! ([`acquire`]), the pass-or-release decision ([`release`]) and the
//! base case ([`acquire_root`]). Each is an `#[inline(always)]`
//! function generic over
//!
//! * the low lock ([`LowLock`]): every [`RawLock`], whose waiter-hint
//!   branch is a constant, and the enum-dispatched [`AnyLock`], where it
//!   is one `match`;
//! * the recording points ([`Hooks`]): telemetry and the dynamic tree's
//!   hand-off counters, with a single zero-sized no-op implementation
//!   when `obs` is off;
//! * the climb: a closure that acquires or releases the next level up;
//! * how the low lock is waited for ([`Wait`]): [`Blocking`] always
//!   wins, and its unwind branches fold away at compile time; `Until`
//!   (`deadline` feature) may time out, and the step then unwinds.
//!
//! Three users instantiate it: the static [`Clof`](crate::Clof)/
//! [`Leaf`](crate::Leaf) recursion, the enum-dispatched
//! [`DynNode`](crate::dynlock::DynNode) tree, and the dynamic tree's
//! typed finalist chains. A fix or a proof about this step covers all
//! three.

#[cfg(feature = "deadline")]
use std::time::Instant;

use clof_locks::{chaos, RawLock};

use crate::kind::{AnyContext, AnyLock};
use crate::level::{LevelMeta, SpinBudget};

#[cfg(not(feature = "obs"))]
pub(crate) use self::off::*;
#[cfg(feature = "obs")]
pub(crate) use crate::telemetry::{HoldObs, HoldSpan, LockObs, NodeObs, StaticObs};

/// The low lock of one level, as the protocol drives it: the
/// [`RawLock`] surface plus whether the level keeps a read indicator.
pub(crate) trait LowLock {
    /// Per-thread context of the lock.
    type Ctx;

    /// Whether acquires must maintain the read indicator. False when
    /// the lock natively answers `has_waiters` (the paper's §4.1.2
    /// custom hint, [`LockInfo::waiter_hint`](clof_locks::LockInfo)):
    /// the release path never consults the counter then, so keeping it
    /// would be pure coherence traffic.
    fn counts_waiters(&self) -> bool;

    #[cfg(not(feature = "park"))]
    fn acquire(&self, ctx: &mut Self::Ctx);

    #[cfg(feature = "park")]
    fn acquire_budgeted(&self, ctx: &mut Self::Ctx, budget: u32);

    #[cfg(feature = "deadline")]
    fn try_acquire_until(&self, ctx: &mut Self::Ctx, deadline: Instant) -> bool;

    fn release(&self, ctx: &mut Self::Ctx);

    fn has_waiters_hint(&self, ctx: &Self::Ctx) -> Option<bool>;
}

impl<L: RawLock> LowLock for L {
    type Ctx = L::Context;

    /// A per-type constant, so the read-indicator branch is resolved at
    /// monomorphization time.
    #[inline(always)]
    fn counts_waiters(&self) -> bool {
        !L::INFO.waiter_hint
    }

    #[cfg(not(feature = "park"))]
    #[inline(always)]
    fn acquire(&self, ctx: &mut L::Context) {
        RawLock::acquire(self, ctx)
    }

    #[cfg(feature = "park")]
    #[inline(always)]
    fn acquire_budgeted(&self, ctx: &mut L::Context, budget: u32) {
        RawLock::acquire_budgeted(self, ctx, budget)
    }

    #[cfg(feature = "deadline")]
    #[inline(always)]
    fn try_acquire_until(&self, ctx: &mut L::Context, deadline: Instant) -> bool {
        RawLock::try_acquire_until(self, ctx, deadline)
    }

    #[inline(always)]
    fn release(&self, ctx: &mut L::Context) {
        RawLock::release(self, ctx)
    }

    #[inline(always)]
    fn has_waiters_hint(&self, ctx: &L::Context) -> Option<bool> {
        RawLock::has_waiters_hint(self, ctx)
    }
}

impl LowLock for AnyLock {
    type Ctx = AnyContext;

    #[inline]
    fn counts_waiters(&self) -> bool {
        !self.kind().info().waiter_hint
    }

    #[cfg(not(feature = "park"))]
    #[inline]
    fn acquire(&self, ctx: &mut AnyContext) {
        AnyLock::acquire(self, ctx)
    }

    #[cfg(feature = "park")]
    #[inline]
    fn acquire_budgeted(&self, ctx: &mut AnyContext, budget: u32) {
        AnyLock::acquire_budgeted(self, ctx, budget)
    }

    #[cfg(feature = "deadline")]
    #[inline]
    fn try_acquire_until(&self, ctx: &mut AnyContext, deadline: Instant) -> bool {
        AnyLock::try_acquire_until(self, ctx, deadline)
    }

    #[inline]
    fn release(&self, ctx: &mut AnyContext) {
        AnyLock::release(self, ctx)
    }

    #[inline]
    fn has_waiters_hint(&self, ctx: &AnyContext) -> Option<bool> {
        AnyLock::has_waiters_hint(self, ctx)
    }
}

/// The protocol's recording points, plus a handle's wait/hold span.
///
/// Every method defaults to a no-op: without `obs` one zero-sized type
/// fills every telemetry slot, and each recorder overrides only the
/// points it observes (node recorders the protocol points, handle
/// recorders the span points).
pub(crate) trait Hooks {
    /// Tags a static node with its hierarchy level (the type recursion
    /// cannot know it; builders do).
    #[inline(always)]
    fn set_level(&mut self, _level: usize) {}

    /// Timestamp taken before the low-lock wait; 0 when untimed.
    #[inline(always)]
    fn start(&self) -> u64 {
        0
    }

    /// The low lock was won; `inherited` means the previous owner
    /// passed the high lock along with it.
    #[inline(always)]
    fn record_acquire(&self, _inherited: bool, _start: u64) {}

    /// The releaser passed the high lock within the cohort.
    #[inline(always)]
    fn record_pass(&self) {}

    /// The releaser let the high lock go; `forced` means waiters were
    /// present but `keep_local` hit its threshold.
    #[inline(always)]
    fn record_release_up(&self, _forced: bool) {}

    /// The low lock's native waiter hint answered.
    #[inline(always)]
    fn record_hint_hit(&self) {}

    /// A handle entered a composed acquire.
    #[inline(always)]
    fn waiting(&mut self) {}

    /// A handle now holds the composed lock.
    #[inline(always)]
    fn acquired(&mut self) {}

    /// A handle released the composed lock.
    #[inline(always)]
    fn released(&mut self) {}

    /// A handle's bounded acquire timed out: nothing is held.
    #[cfg(feature = "deadline")]
    #[inline(always)]
    fn wait_abandoned(&mut self) {}
}

/// How a level waits for its low lock.
pub(crate) trait Wait: Copy {
    /// Whether a wait can fail. `false` lets every unwind branch of the
    /// step fold away at compile time.
    const FALLIBLE: bool;

    /// Waits for `low`; `false` means the wait timed out and nothing is
    /// held.
    fn low<L: LowLock>(self, low: &L, ctx: &mut L::Ctx, budget: &SpinBudget) -> bool;
}

/// Wait until granted.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Blocking;

impl Wait for Blocking {
    const FALLIBLE: bool = false;

    /// With the waiting layer compiled in, waiters spin the level's
    /// topology-derived budget, then park; the releaser's wake re-runs
    /// the full hand-off, so parking changes only *where* a waiter
    /// waits, never the order grants are observed in.
    #[inline(always)]
    fn low<L: LowLock>(self, low: &L, ctx: &mut L::Ctx, budget: &SpinBudget) -> bool {
        #[cfg(feature = "park")]
        low.acquire_budgeted(ctx, budget.get());
        #[cfg(not(feature = "park"))]
        {
            let _ = budget;
            low.acquire(ctx);
        }
        true
    }
}

/// Wait until an absolute deadline shared by every level: the "single
/// budget split across levels", split by where contention actually
/// burned the time rather than by a fixed per-level quota. Deadline
/// waits never park.
#[cfg(feature = "deadline")]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Until(pub(crate) Instant);

#[cfg(feature = "deadline")]
impl Wait for Until {
    const FALLIBLE: bool = true;

    #[inline(always)]
    fn low<L: LowLock>(self, low: &L, ctx: &mut L::Ctx, _budget: &SpinBudget) -> bool {
        low.try_acquire_until(ctx, self.0)
    }
}

/// Base case: the system-level lock, which has no high lock to climb to.
#[inline(always)]
pub(crate) fn acquire_root<L: LowLock, W: Wait>(
    low: &L,
    ctx: &mut L::Ctx,
    budget: &SpinBudget,
    hooks: &impl Hooks,
    wait: W,
) -> bool {
    let start = hooks.start();
    if !wait.low(low, ctx, budget) {
        return false;
    }
    hooks.record_acquire(false, start);
    true
}

/// `lockgen(acq(CLoF(l, L'), c))`: wins this level's low lock, then
/// climbs unless the previous owner passed the high lock along.
///
/// `stripe` is the caller's child position under this node (CPU index
/// within a leaf cohort, sibling-cohort index above) and selects the
/// read-indicator stripe. `climb` acquires the levels above and reports
/// whether it won them; the protocol calls it only while owning the low
/// lock, which is what grants the climb exclusive use of the high
/// context (the context invariant, §4.1).
///
/// On a timeout the step unwinds: the read-indicator bracket closes on
/// both outcomes (a timed-out waiter leaves no residue), and a failed
/// climb releases the low lock *plainly*. The pass flag was never
/// touched, so the next low-lock winner sees an ordinary
/// climb-for-yourself hand-off.
#[inline(always)]
pub(crate) fn acquire<L: LowLock, C, W: Wait>(
    low: &L,
    ctx: &mut L::Ctx,
    meta: &LevelMeta<C>,
    hooks: &impl Hooks,
    stripe: u32,
    wait: W,
    climb: impl FnOnce() -> bool,
) -> bool {
    let start = hooks.start();
    let counts = low.counts_waiters();
    if counts {
        meta.inc_waiters(stripe);
    }
    let won = wait.low(low, ctx, meta.budget());
    if counts {
        meta.dec_waiters(stripe);
    }
    if W::FALLIBLE && !won {
        return false;
    }
    // Window between winning the low lock and inspecting the pass flag
    // left by the previous owner.
    chaos::point("clof-acquire-low-won");
    hooks.record_acquire(meta.has_high_lock(), start);
    if !meta.has_high_lock() {
        meta.debug_ctx_enter();
        let climbed = climb();
        meta.debug_ctx_exit();
        if W::FALLIBLE && !climbed {
            low.release(ctx);
            return false;
        }
    }
    true
}

/// `lockgen(rel(CLoF(l, L'), c))`: passes the high lock within the
/// cohort when a waiter is present and `keep_local` allows, otherwise
/// releases the levels above (`climb`) and then this one.
///
/// Release order matters (§4.1.3): the high lock goes *before* the low
/// lock, otherwise a successor could win the low lock and race this
/// thread on the high context.
#[inline(always)]
pub(crate) fn release<L: LowLock, C>(
    low: &L,
    ctx: &mut L::Ctx,
    meta: &LevelMeta<C>,
    hooks: &impl Hooks,
    climb: impl FnOnce(),
) {
    let hint = low.has_waiters_hint(ctx);
    if hint.is_some() {
        hooks.record_hint_hit();
    }
    let waiters = hint.unwrap_or_else(|| meta.has_waiters());
    if waiters && meta.keep_local() {
        hooks.record_pass();
        meta.pass_high_lock();
        // Window between setting the pass flag and the low release
        // that publishes it to the successor.
        chaos::point("clof-release-pass");
        low.release(ctx);
    } else {
        // `waiters` still true here means keep_local hit its
        // threshold: a forced surrender, not an idle cohort.
        hooks.record_release_up(waiters);
        meta.clear_high_lock();
        chaos::point("clof-release-up");
        meta.debug_ctx_enter();
        climb();
        meta.debug_ctx_exit();
        low.release(ctx);
    }
}

/// Without `obs`, every telemetry slot of the three users is the one
/// zero-sized [`NoHooks`].
#[cfg(not(feature = "obs"))]
mod off {
    use super::Hooks;

    /// Records nothing.
    #[derive(Debug, Default, Clone, Copy)]
    pub(crate) struct NoHooks;

    impl Hooks for NoHooks {}

    impl NoHooks {
        #[inline(always)]
        pub(crate) fn register(
            _label: &str,
            _shape: &str,
            _caller: &'static std::panic::Location<'static>,
        ) -> Self {
            NoHooks
        }

        #[inline(always)]
        pub(crate) fn node(&self, _level: usize) -> Self {
            NoHooks
        }

        #[inline(always)]
        pub(crate) fn hold(&self) -> Self {
            NoHooks
        }
    }

    pub(crate) type StaticObs = NoHooks;
    pub(crate) type HoldSpan = NoHooks;
    pub(crate) type LockObs = NoHooks;
    pub(crate) type NodeObs = NoHooks;
    pub(crate) type HoldObs = NoHooks;
}
