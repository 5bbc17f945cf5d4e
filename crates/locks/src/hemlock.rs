//! Hemlock (Dice & Kogan, SPAA'21 \[13\]): compact queue lock with an
//! optional x86 Coherence-Traffic-Reduction (CTR) codepath.
//!
//! The original Hemlock keeps one implicit *thread-local* context and is
//! advertised as "context-free". As the paper observes (§4.1.3), making
//! the context explicit and passing it through the normal acquire/release
//! interface is exactly what turns Hemlock *thread-oblivious*, which CLoF
//! requires of high locks. This implementation takes the explicit-context
//! form.
//!
//! Hemlock is deliberately **not** wired into the `park` waiting layer:
//! its grant word is a *multi-writer* mailbox (the same cell is granted
//! through by successive releasers and reset by acknowledging
//! successors), so a parked waiter could be woken for a grant addressed
//! to a different lock, and the release side itself spins on the
//! acknowledgement. Hemlock waiters always spin; compose MCS/CLH at
//! oversubscribed levels instead (DESIGN §11).

use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};

#[cfg(not(feature = "deadline"))]
use crate::park::poll_until;
#[cfg(feature = "deadline")]
use crate::park::{Waiter, SPIN_FOREVER};
use crate::raw::{LockInfo, RawLock};
#[cfg(feature = "deadline")]
use crate::spin::Backoff;

/// The shared cell of a Hemlock context: a single `grant` word.
///
/// The releaser writes the *lock's address* into its own cell's `grant`;
/// the successor spins on its predecessor's cell until it sees that
/// address, then resets it to 0 as an acknowledgement.
#[derive(Debug)]
struct HemCell {
    grant: AtomicUsize,
    /// Escape pointer for deadline abandonment: when this cell is marked
    /// [`ABANDONED_GRANT`], `pred` names the cell its owner was spinning
    /// on, so the successor can re-target its wait past us. Only valid
    /// while the sentinel is set; published by the `Release` store of
    /// the sentinel.
    #[cfg(feature = "deadline")]
    pred: AtomicUsize,
}

/// Sentinel grant value marking an abandoned cell (deadline timeouts).
///
/// Distinguishable from every real token: tokens are lock addresses
/// (aligned, never 1) and `0` means empty/acknowledged.
#[cfg(feature = "deadline")]
const ABANDONED_GRANT: usize = 1;

impl HemCell {
    fn boxed() -> NonNull<HemCell> {
        let cell = Box::new(HemCell {
            grant: AtomicUsize::new(0),
            #[cfg(feature = "deadline")]
            pred: AtomicUsize::new(0),
        });
        NonNull::new(Box::into_raw(cell)).expect("Box::into_raw returned null")
    }
}

/// Per-slot context of [`Hemlock`]/[`HemlockCtr`].
#[derive(Debug)]
pub struct HemContext {
    cell: NonNull<HemCell>,
}

// SAFETY: The context carries a pointer to a heap cell whose only field is
// an atomic; sharing/moving the context does not move the cell.
unsafe impl Send for HemContext {}
// SAFETY: As above.
unsafe impl Sync for HemContext {}

impl Default for HemContext {
    fn default() -> Self {
        HemContext {
            cell: HemCell::boxed(),
        }
    }
}

impl Drop for HemContext {
    fn drop(&mut self) {
        // SAFETY: Contract: contexts are dropped only when idle, so no
        // thread can still reach this cell through a lock's tail.
        unsafe { drop(Box::from_raw(self.cell.as_ptr())) };
    }
}

/// Hemlock with the CTR codepath selected at compile time.
///
/// `CTR = true` replaces the release-side spin load with
/// `fetch_add(0)` and the acknowledgement store with a `compare_exchange`
/// loop — the x86 trick that avoids MESI shared→modified upgrades
/// (paper §2.1). On Armv8-class LL/SC machines this same trick makes the
/// two sides repeatedly kill each other's exclusive reservations,
/// collapsing throughput (paper Figure 3b); the simulator models that
/// pathology, and the named aliases [`Hemlock`]/[`HemlockCtr`] let callers
/// choose per target architecture as the paper does ("hem on x86 denotes
/// Hemlock with CTR enabled, whereas hem on Armv8 denotes Hemlock with
/// CTR disabled").
///
/// # Examples
///
/// ```
/// use clof_locks::{HemContext, Hemlock, RawLock};
///
/// let lock = Hemlock::default();
/// let mut ctx = HemContext::default();
/// lock.acquire(&mut ctx);
/// lock.release(&mut ctx);
/// ```
#[derive(Debug, Default)]
pub struct HemlockGeneric<const CTR: bool> {
    tail: AtomicUsize,
}

/// Hemlock without the CTR optimization (the paper's `hem` on Armv8).
pub type Hemlock = HemlockGeneric<false>;

/// Hemlock with the CTR optimization (the paper's `hem-ctr` / `hem` on
/// x86).
pub type HemlockCtr = HemlockGeneric<true>;

impl<const CTR: bool> HemlockGeneric<CTR> {
    /// Creates an unlocked Hemlock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the lock is currently held or queued (racy; diagnostics).
    pub fn is_locked(&self) -> bool {
        self.tail.load(Ordering::Relaxed) != 0
    }

    /// The value the releaser publishes in its cell: this lock's address.
    fn lock_token(&self) -> usize {
        self as *const _ as usize
    }

    /// CTR-aware load of a grant word.
    fn grant_load(grant: &AtomicUsize, order: Ordering) -> usize {
        if CTR {
            // CTR: read via an RMW that leaves the value unchanged, so the
            // line is acquired directly in modified/exclusive state.
            grant.fetch_add(0, rmw_order(order))
        } else {
            grant.load(order)
        }
    }

    /// CTR-aware store of a grant word.
    fn grant_store(grant: &AtomicUsize, value: usize, order: Ordering) {
        if CTR {
            // CTR: write via compare-exchange; retries mimic the x86
            // cmpxchg loop of the original (on x86 cmpxchg always makes
            // progress; the loop form keeps the code portable).
            let mut cur = grant.load(Ordering::Relaxed);
            loop {
                match grant.compare_exchange_weak(cur, value, rmw_order(order), Ordering::Relaxed)
                {
                    Ok(_) => return,
                    Err(seen) => cur = seen,
                }
            }
        } else {
            grant.store(value, order);
        }
    }

    /// Conditional grant transition, used by the deadline protocol's
    /// acknowledge-and-retract races (CTR-indifferent: a CAS is a CAS).
    #[cfg(feature = "deadline")]
    fn grant_cas(grant: &AtomicUsize, expect: usize, value: usize) -> bool {
        grant
            .compare_exchange(expect, value, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// Steps the wait past an abandoned cell: follows its escape pointer
    /// and frees the sentinel (ownership transferred to us, its unique
    /// observer). The caller's `Acquire` read of [`ABANDONED_GRANT`]
    /// published the escape pointer.
    #[cfg(feature = "deadline")]
    fn adopt_abandoned(cell: *mut HemCell) -> *mut HemCell {
        let pred = unsafe { (*cell).pred.load(Ordering::Relaxed) } as *mut HemCell;
        debug_assert!(
            !pred.is_null(),
            "abandoned Hemlock cell without an escape pointer"
        );
        crate::deadline::on_skip();
        // SAFETY: A sentinel cell is owned by whoever observes it; no
        // other thread can reach it once we re-target past it.
        unsafe { drop(Box::from_raw(cell)) };
        pred
    }

    #[cfg(not(feature = "deadline"))]
    fn acquire_inner(&self, ctx: &mut HemContext) {
        let me = ctx.cell.as_ptr() as usize;
        // AcqRel as in MCS: publish our cell, order after the predecessor.
        let pred = self.tail.swap(me, Ordering::AcqRel);
        if pred == 0 {
            return;
        }
        let token = self.lock_token();
        crate::chaos::point("hem-acquire-queued");
        // SAFETY: `pred` is a cell published by its owner; the owner's
        // release spins until our acknowledgement below, so the cell stays
        // alive (and its context may not be dropped) until then.
        let pred_grant = unsafe { &(*(pred as *const HemCell)).grant };
        // Acquire pairs with the releaser's Release publication of the
        // token, ordering the critical sections.
        poll_until(|| Self::grant_load(pred_grant, Ordering::Acquire) == token);
        // Acknowledge: reset the predecessor's grant so it can proceed and
        // reuse its cell. Release so the (relaxed) observer cannot see the
        // reset reordered before our spin completed.
        Self::grant_store(pred_grant, 0, Ordering::Release);
    }

    /// Deadline-build acquire: the spin must additionally recognise
    /// abandoned-cell sentinels (re-target past them) and acknowledge
    /// with a CAS — a releaser whose successor vanished may *retract* a
    /// published token, and a plain-store ack could then ack a token
    /// that is about to be re-published, stranding the releaser.
    #[cfg(feature = "deadline")]
    fn acquire_inner(&self, ctx: &mut HemContext) {
        let me = ctx.cell.as_ptr() as usize;
        let pred = self.tail.swap(me, Ordering::AcqRel);
        if pred == 0 {
            return;
        }
        let token = self.lock_token();
        crate::chaos::point("hem-acquire-queued");
        let mut pred = pred as *mut HemCell;
        let mut waiter = Waiter::new(SPIN_FOREVER);
        loop {
            // SAFETY: `pred` is either a live cell (owner cannot retire
            // it until acknowledged) or a sentinel we now uniquely own.
            let g = Self::grant_load(unsafe { &(*pred).grant }, Ordering::Acquire);
            if g == ABANDONED_GRANT {
                pred = Self::adopt_abandoned(pred);
                continue;
            }
            if g == token && Self::grant_cas(unsafe { &(*pred).grant }, token, 0) {
                return;
            }
            waiter.spin();
        }
    }

    #[cfg(not(feature = "deadline"))]
    fn release_inner(&self, ctx: &mut HemContext) {
        let me = ctx.cell.as_ptr() as usize;
        // Fast path: no successor, swing tail back to empty.
        if self.tail.load(Ordering::Relaxed) == me
            && self
                .tail
                .compare_exchange(me, 0, Ordering::Release, Ordering::Relaxed)
                .is_ok()
        {
            return;
        }
        // SAFETY: Our own cell, alive while the context is.
        let grant = unsafe { &(*ctx.cell.as_ptr()).grant };
        crate::chaos::point("hem-release-pre-grant");
        // Publish the grant: our successor identifies the lock by address.
        Self::grant_store(grant, self.lock_token(), Ordering::Release);
        // Wait for the successor's acknowledgement (reset to 0); this is
        // the wait the CTR optimization targets on x86 and the one that
        // livelocks under LL/SC interference on Armv8 (simulated, §3.2).
        poll_until(|| Self::grant_load(grant, Ordering::Acquire) == 0);
    }

    /// Deadline-build release: the acknowledgement wait must not strand
    /// us when our only successor abandons. A timed-out tail waiter
    /// restores the tail to its predecessor — us — so whenever we see
    /// ourselves back at the tail we *retract* the token (CAS, racing
    /// any late acknowledger) and try to leave empty; if a new waiter
    /// slipped in meanwhile the token is re-published for it.
    #[cfg(feature = "deadline")]
    fn release_inner(&self, ctx: &mut HemContext) {
        let me = ctx.cell.as_ptr() as usize;
        if self.tail.load(Ordering::Relaxed) == me
            && self
                .tail
                .compare_exchange(me, 0, Ordering::Release, Ordering::Relaxed)
                .is_ok()
        {
            return;
        }
        // SAFETY: Our own cell, alive while the context is.
        let grant = unsafe { &(*ctx.cell.as_ptr()).grant };
        crate::chaos::point("hem-release-pre-grant");
        Self::grant_store(grant, self.lock_token(), Ordering::Release);
        let mut waiter = Waiter::new(SPIN_FOREVER);
        loop {
            if Self::grant_load(grant, Ordering::Acquire) == 0 {
                return;
            }
            if self.tail.load(Ordering::Relaxed) == me
                && Self::grant_cas(grant, self.lock_token(), 0)
            {
                crate::chaos::point("hem-release-retracted");
                if self
                    .tail
                    .compare_exchange(me, 0, Ordering::Release, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
                // A waiter enqueued between the retract and the empty
                // swing: re-publish before resuming the wait, or we
                // would mistake our own retraction for its ack.
                Self::grant_store(grant, self.lock_token(), Ordering::Release);
            }
            waiter.spin();
        }
    }

    /// Deadline-bounded acquire (HMCS-T-style abandonment, adapted to
    /// Hemlock's pull-based grants). A timed-out tail waiter swings the
    /// tail back to its predecessor and simply leaves (the releaser's
    /// retraction loop retires any already-published token). A buried
    /// waiter publishes an escape pointer and marks its cell with the
    /// [`ABANDONED_GRANT`] sentinel; the successor re-targets past the
    /// cell and frees it, so the hand-off chain stays connected.
    #[cfg(feature = "deadline")]
    fn try_acquire_inner(&self, ctx: &mut HemContext, deadline: std::time::Instant) -> bool {
        let me = ctx.cell.as_ptr();
        let first = self.tail.swap(me as usize, Ordering::AcqRel);
        if first == 0 {
            return true;
        }
        let token = self.lock_token();
        crate::chaos::point("hem-acquire-queued");
        let mut pred = first as *mut HemCell;
        // Deadline waits never park (Hemlock never parks anyway); the
        // bounded spin mirrors `acquire_inner`.
        let mut poll = crate::deadline::DeadlinePoll::new(deadline, "hem-wait");
        let mut backoff = Backoff::new();
        loop {
            // SAFETY: As in `acquire_inner`.
            let g = Self::grant_load(unsafe { &(*pred).grant }, Ordering::Acquire);
            if g == ABANDONED_GRANT {
                pred = Self::adopt_abandoned(pred);
                continue;
            }
            if g == token && Self::grant_cas(unsafe { &(*pred).grant }, token, 0) {
                return true;
            }
            if poll.expired() {
                break;
            }
            backoff.snooze();
        }
        // Timed out. Tail case: swing the tail back to the predecessor.
        // After the CAS nobody can reach our cell, so we keep it. If the
        // predecessor already published its token, its retraction loop
        // (see `release_inner`) notices it is the tail once more and
        // retires the grant — we do not have to consume it.
        if self
            .tail
            .compare_exchange(me as usize, pred as usize, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            crate::chaos::point("hem-restore-tail");
            crate::deadline::on_abandon();
            return false;
        }
        // Buried: a successor spins on our cell. Publish the escape
        // route, then the sentinel (Release publishes the escape). Cell
        // ownership transfers to the successor (or the next enqueuer,
        // or the lock's drop walk), so the context takes a fresh one.
        unsafe {
            (*me).pred.store(pred as usize, Ordering::Relaxed);
        }
        Self::grant_store(unsafe { &(*me).grant }, ABANDONED_GRANT, Ordering::Release);
        ctx.cell = HemCell::boxed();
        crate::deadline::on_abandon();
        false
    }
}

/// Maps a load/store ordering to an equivalent RMW ordering for CTR ops.
fn rmw_order(order: Ordering) -> Ordering {
    match order {
        Ordering::Relaxed => Ordering::Relaxed,
        Ordering::Acquire => Ordering::Acquire,
        Ordering::Release => Ordering::Release,
        _ => Ordering::AcqRel,
    }
}

impl<const CTR: bool> RawLock for HemlockGeneric<CTR> {
    type Context = HemContext;

    const INFO: LockInfo = LockInfo {
        name: if CTR { "hem-ctr" } else { "hem" },
        full_name: if CTR {
            "Hemlock (CTR enabled)"
        } else {
            "Hemlock"
        },
        fair: true,
        local_spinning: true,
        needs_context: true,
        waiter_hint: true,
    };

    fn acquire(&self, ctx: &mut HemContext) {
        self.acquire_inner(ctx);
    }

    #[cfg(feature = "deadline")]
    fn try_acquire_until(&self, ctx: &mut HemContext, deadline: std::time::Instant) -> bool {
        self.try_acquire_inner(ctx, deadline)
    }

    fn release(&self, ctx: &mut HemContext) {
        self.release_inner(ctx);
    }

    fn has_waiters_hint(&self, ctx: &Self::Context) -> Option<bool> {
        // Someone swapped the tail after us.
        Some(self.tail.load(Ordering::Relaxed) != ctx.cell.as_ptr() as usize)
    }
}

/// Reclaims orphaned abandoned cells: a timed-out waiter that restored
/// the tail onto a sentinel (its predecessor abandoned in the same
/// window) leaves that sentinel chain with no observer. The next
/// enqueuer normally adopts and frees it; if the lock dies first, this
/// walk does. Live cells (no sentinel) are owned by their contexts and
/// are not touched.
#[cfg(feature = "deadline")]
impl<const CTR: bool> Drop for HemlockGeneric<CTR> {
    fn drop(&mut self) {
        let mut cell = self.tail.load(Ordering::Relaxed) as *mut HemCell;
        while !cell.is_null() {
            // SAFETY: `&mut self` means no thread still races on this
            // lock; sentinel cells reachable from the tail are exactly
            // the observer-less ones (every freed cell is unreachable).
            let cref = unsafe { &*cell };
            if cref.grant.load(Ordering::Relaxed) != ABANDONED_GRANT {
                break;
            }
            let pred = cref.pred.load(Ordering::Relaxed) as *mut HemCell;
            unsafe { drop(Box::from_raw(cell)) };
            cell = pred;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::Arc;

    fn roundtrip<const CTR: bool>() {
        let lock = HemlockGeneric::<CTR>::new();
        let mut ctx = HemContext::default();
        assert!(!lock.is_locked());
        lock.acquire(&mut ctx);
        assert!(lock.is_locked());
        assert_eq!(lock.has_waiters_hint(&ctx), Some(false));
        lock.release(&mut ctx);
        assert!(!lock.is_locked());
    }

    #[test]
    fn uncontended_roundtrip_plain() {
        roundtrip::<false>();
    }

    #[test]
    fn uncontended_roundtrip_ctr() {
        roundtrip::<true>();
    }

    fn contention<const CTR: bool>() {
        const THREADS: usize = 4;
        const ITERS: usize = 1_500;
        let lock = Arc::new(HemlockGeneric::<CTR>::new());
        let counter = Arc::new(StdAtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut ctx = HemContext::default();
                for _ in 0..ITERS {
                    lock.acquire(&mut ctx);
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    lock.release(&mut ctx);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), THREADS * ITERS);
    }

    #[test]
    fn mutual_exclusion_under_contention_plain() {
        contention::<false>();
    }

    #[test]
    fn mutual_exclusion_under_contention_ctr() {
        contention::<true>();
    }

    #[test]
    fn one_context_on_two_locks_sequentially() {
        // A context may serve different locks as long as uses do not
        // overlap (the context invariant) — Hemlock identifies the lock by
        // address in the grant word.
        let a = Hemlock::new();
        let b = Hemlock::new();
        let mut ctx = HemContext::default();
        a.acquire(&mut ctx);
        a.release(&mut ctx);
        b.acquire(&mut ctx);
        b.release(&mut ctx);
    }

    #[test]
    fn thread_oblivious_release() {
        let lock = Arc::new(Hemlock::new());
        let mut ctx = HemContext::default();
        lock.acquire(&mut ctx);
        let lock2 = Arc::clone(&lock);
        std::thread::scope(|s| {
            s.spawn(|| {
                lock2.release(&mut ctx);
            });
        });
        let mut ctx2 = HemContext::default();
        lock.acquire(&mut ctx2);
        lock.release(&mut ctx2);
    }

    #[test]
    fn info_distinguishes_ctr() {
        assert_eq!(Hemlock::INFO.name, "hem");
        assert_eq!(HemlockCtr::INFO.name, "hem-ctr");
        assert!(Hemlock::INFO.fair);
    }

    #[cfg(feature = "deadline")]
    mod deadline {
        use super::*;
        use std::time::{Duration, Instant};

        fn try_uncontended<const CTR: bool>() {
            let lock = HemlockGeneric::<CTR>::new();
            let mut ctx = HemContext::default();
            assert!(lock.try_acquire_until(&mut ctx, Instant::now() + Duration::from_secs(5)));
            assert!(lock.is_locked());
            lock.release(&mut ctx);
            assert!(!lock.is_locked());
        }

        #[test]
        fn try_acquire_uncontended_succeeds_plain() {
            try_uncontended::<false>();
        }

        #[test]
        fn try_acquire_uncontended_succeeds_ctr() {
            try_uncontended::<true>();
        }

        fn tail_restore<const CTR: bool>() {
            let lock = HemlockGeneric::<CTR>::new();
            let mut holder = HemContext::default();
            lock.acquire(&mut holder);
            let before = crate::deadline::abandons();
            let mut w = HemContext::default();
            assert!(!lock.try_acquire_until(&mut w, Instant::now()));
            assert!(crate::deadline::abandons() > before);
            // The tail points back at the holder: release is the plain
            // empty swing and the queue is healthy afterwards.
            assert_eq!(lock.has_waiters_hint(&holder), Some(false));
            lock.release(&mut holder);
            assert!(!lock.is_locked());
            lock.acquire(&mut w);
            lock.release(&mut w);
        }

        #[test]
        fn tail_timeout_restores_the_tail_plain() {
            tail_restore::<false>();
        }

        #[test]
        fn tail_timeout_restores_the_tail_ctr() {
            tail_restore::<true>();
        }

        #[test]
        fn pending_token_is_retracted_when_sole_waiter_leaves() {
            // White-box: the releaser must not be stranded in its
            // acknowledgement wait when its only successor times out
            // after the token was published.
            let lock = Arc::new(Hemlock::new());
            let mut holder = HemContext::default();
            lock.acquire(&mut holder);
            let w = HemCell::boxed().as_ptr();
            let pred = lock.tail.swap(w as usize, Ordering::AcqRel);
            assert_eq!(pred, holder.cell.as_ptr() as usize);
            let releaser = {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    // Sees the fake successor, publishes the token, and
                    // waits for an ack that will never come.
                    lock.release(&mut holder);
                })
            };
            std::thread::sleep(Duration::from_millis(20));
            // The timed-out waiter's exit: swing the tail back.
            assert!(lock
                .tail
                .compare_exchange(w as usize, pred, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok());
            // Only the retraction path can finish this join.
            releaser.join().unwrap();
            assert!(!lock.is_locked());
            unsafe { drop(Box::from_raw(w)) };
        }

        #[test]
        fn abandoned_cell_redirects_blocked_successor() {
            let lock = Arc::new(Hemlock::new());
            let mut holder = HemContext::default();
            lock.acquire(&mut holder);
            let skips_before = crate::deadline::skips();
            let t0 = lock.tail.load(Ordering::Relaxed);
            let w1 = {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    let mut ctx = HemContext::default();
                    let d = Instant::now() + Duration::from_millis(300);
                    lock.try_acquire_until(&mut ctx, d)
                })
            };
            crate::spin::spin_until(|| lock.tail.load(Ordering::Relaxed) != t0);
            let t1 = lock.tail.load(Ordering::Relaxed);
            let w2 = {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    let mut ctx = HemContext::default();
                    lock.acquire(&mut ctx);
                    lock.release(&mut ctx);
                })
            };
            crate::spin::spin_until(|| lock.tail.load(Ordering::Relaxed) != t1);
            // w1 expires buried behind w2 and leaves a sentinel; w2
            // re-targets onto the holder's cell and frees it.
            std::thread::sleep(Duration::from_millis(450));
            lock.release(&mut holder);
            assert!(!w1.join().unwrap(), "buried w1 times out");
            w2.join().expect("w2 acquires through the redirect");
            assert!(crate::deadline::skips() > skips_before);
            assert!(!lock.is_locked());
        }

        #[test]
        fn orphaned_sentinel_is_adopted_by_next_enqueuer() {
            let lock = Arc::new(Hemlock::new());
            let mut holder = HemContext::default();
            lock.acquire(&mut holder);
            // Plant an observer-less sentinel at the tail, as left by a
            // buried waiter whose successor then tail-restored onto it.
            let cell = HemCell::boxed().as_ptr();
            let old = lock.tail.swap(cell as usize, Ordering::AcqRel);
            unsafe {
                (*cell).pred.store(old, Ordering::Relaxed);
                (*cell).grant.store(ABANDONED_GRANT, Ordering::Release);
            }
            let skips_before = crate::deadline::skips();
            let w = {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    let mut ctx = HemContext::default();
                    lock.acquire(&mut ctx);
                    lock.release(&mut ctx);
                })
            };
            crate::spin::spin_until(|| crate::deadline::skips() > skips_before);
            lock.release(&mut holder);
            w.join().expect("adopter acquires through the sentinel");
            assert!(!lock.is_locked());
        }

        #[test]
        fn orphaned_sentinel_chain_is_reclaimed_on_drop() {
            let lock = Hemlock::new();
            let a = HemCell::boxed().as_ptr();
            let b = HemCell::boxed().as_ptr();
            unsafe {
                (*a).grant.store(ABANDONED_GRANT, Ordering::Relaxed);
                (*b).pred.store(a as usize, Ordering::Relaxed);
                (*b).grant.store(ABANDONED_GRANT, Ordering::Relaxed);
            }
            lock.tail.store(b as usize, Ordering::Relaxed);
            // The drop walk frees b then a and stops at the chain end.
            drop(lock);
        }

        #[test]
        fn timeout_leaves_other_traffic_unharmed() {
            const THREADS: usize = 4;
            const ITERS: usize = 300;
            let lock = Arc::new(Hemlock::new());
            let held = Arc::new(StdAtomicUsize::new(0));
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let lock = Arc::clone(&lock);
                let held = Arc::clone(&held);
                handles.push(std::thread::spawn(move || {
                    let mut ctx = HemContext::default();
                    for _ in 0..ITERS {
                        let got = if t % 2 == 0 {
                            lock.try_acquire_until(
                                &mut ctx,
                                Instant::now() + Duration::from_micros(50),
                            )
                        } else {
                            lock.acquire(&mut ctx);
                            true
                        };
                        if got {
                            held.fetch_add(1, Ordering::Relaxed);
                            lock.release(&mut ctx);
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert!(!lock.is_locked());
            let mut ctx = HemContext::default();
            lock.acquire(&mut ctx);
            lock.release(&mut ctx);
        }
    }
}
