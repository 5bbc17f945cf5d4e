//! MCS queue lock (Mellor-Crummey & Scott \[31\]): fair, local spinning.

use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, Ordering};

#[cfg(feature = "deadline")]
use crate::park::ABANDONED;
use crate::park::{poll_until, WaitWord, SPIN_FOREVER};
use crate::raw::{LockInfo, RawLock};

/// A node in the MCS queue.
///
/// Nodes are heap-allocated and owned by an [`McsContext`]; they are
/// reached by other threads only through raw pointers published via the
/// lock's `tail`, and all shared fields are atomics.
#[derive(Debug)]
struct McsNode {
    /// Armed while the owning thread must keep waiting; with the `park`
    /// feature the waiter blocks on this word once its spin budget runs
    /// out and the releaser futex-wakes exactly this successor.
    locked: WaitWord,
    /// Successor in the queue, set by the enqueueing successor itself.
    next: AtomicPtr<McsNode>,
}

impl McsNode {
    fn boxed() -> NonNull<McsNode> {
        let node = Box::new(McsNode {
            locked: WaitWord::new_go(),
            next: AtomicPtr::new(ptr::null_mut()),
        });
        // `Box::into_raw` never returns null.
        NonNull::new(Box::into_raw(node)).expect("Box::into_raw returned null")
    }
}

/// Per-slot context of [`McsLock`]: one queue node with a stable address.
///
/// The node is kept behind a raw pointer (not a `Box` field) on purpose:
/// while enqueued, the node is concurrently written by the predecessor and
/// successor threads, so the context must not assert exclusive access to
/// the node memory even when the context itself is held by `&mut`.
#[derive(Debug)]
pub struct McsContext {
    node: NonNull<McsNode>,
}

// SAFETY: The context only carries a pointer to a heap node whose shared
// fields are atomics; moving or sharing the context across threads does
// not move the node.
unsafe impl Send for McsContext {}
// SAFETY: As above; all concurrent access to the pointee goes through
// atomic fields.
unsafe impl Sync for McsContext {}

impl Default for McsContext {
    fn default() -> Self {
        McsContext {
            node: McsNode::boxed(),
        }
    }
}

impl Drop for McsContext {
    fn drop(&mut self) {
        // SAFETY: By the `RawLock` contract the context is dropped only
        // when no operation is in flight and the lock is not held through
        // it, so the node is no longer linked in any queue and this is
        // the unique owner of the allocation.
        unsafe { drop(Box::from_raw(self.node.as_ptr())) };
    }
}

/// The MCS queue lock.
///
/// Each waiter appends its context node to a global `tail` and spins on a
/// flag *in its own node*; on release the owner hands over to its
/// successor by clearing the successor's flag. Local spinning keeps the
/// coherence traffic per handover constant, which is why MCS (and CLH)
/// tolerate high contention far better than the Ticketlock — at the cost
/// of a heavier uncontended path. MCS is the component HMCS uses at every
/// level (the paper's level-homogeneous baseline).
///
/// # Examples
///
/// ```
/// use clof_locks::{McsContext, McsLock, RawLock};
///
/// let lock = McsLock::default();
/// let mut ctx = McsContext::default();
/// lock.acquire(&mut ctx);
/// lock.release(&mut ctx);
/// ```
#[derive(Debug, Default)]
pub struct McsLock {
    tail: AtomicPtr<McsNode>,
}

impl McsLock {
    /// Creates an unlocked MCS lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the lock is currently held or queued (racy; diagnostics).
    pub fn is_locked(&self) -> bool {
        !self.tail.load(Ordering::Relaxed).is_null()
    }

    fn acquire_inner(&self, ctx: &mut McsContext, budget: u32) {
        let node = ctx.node.as_ptr();
        // SAFETY: `node` points to this context's live heap node; until
        // the swap below publishes it, no other thread can reach it.
        let node_ref = unsafe { &*node };
        node_ref.next.store(ptr::null_mut(), Ordering::Relaxed);
        node_ref.locked.prime();

        // AcqRel: the Release half publishes our node initialization to
        // the successor that swaps after us; the Acquire half orders us
        // after the predecessor's initialization.
        let pred = self.tail.swap(node, Ordering::AcqRel);
        if pred.is_null() {
            return;
        }
        // The classic MCS window: we are in the queue but not yet linked
        // to our predecessor, whose release must wait for the link.
        crate::chaos::point("mcs-acquire-unlinked");
        // SAFETY: `pred` was published by its owner, whose release cannot
        // complete (and whose context cannot be legally reused or dropped)
        // before observing `pred.next != null`, which only happens via the
        // store below. Hence `pred` is alive here.
        unsafe { (*pred).next.store(node, Ordering::Release) };
        // The wait's Acquire pairs with the Release swap in the
        // predecessor's `release`, ordering the critical sections.
        node_ref.locked.wait(budget);
    }

    /// Deadline-bounded acquire with HMCS-T-style node abandonment: on
    /// expiry the waiter CASes its armed word to the abandoned marker
    /// and leaves — the node stays linked in the queue (a successor may
    /// be writing its `next` this very moment) and passes to whichever
    /// releaser grants into it, which skips and frees it (see
    /// `release`). The context gets a fresh node, so a timed-out
    /// context is immediately reusable.
    #[cfg(feature = "deadline")]
    fn try_acquire_inner(&self, ctx: &mut McsContext, deadline: std::time::Instant) -> bool {
        let node = ctx.node.as_ptr();
        // SAFETY: As in `acquire_inner`: private until the swap.
        let node_ref = unsafe { &*node };
        node_ref.next.store(ptr::null_mut(), Ordering::Relaxed);
        node_ref.locked.prime();
        let pred = self.tail.swap(node, Ordering::AcqRel);
        if pred.is_null() {
            return true;
        }
        crate::chaos::point("mcs-acquire-unlinked");
        // SAFETY: As in `acquire_inner`.
        unsafe { (*pred).next.store(node, Ordering::Release) };
        if node_ref.locked.wait_deadline(deadline, "mcs-wait").is_some() {
            // Only GO can appear on an own word: acquired.
            return true;
        }
        if !node_ref.locked.try_abandon() {
            // The grant landed between expiry and the CAS: we own the
            // lock at the deadline edge.
            return true;
        }
        // Abandoned: the node now belongs to the queue (freed by the
        // releaser that grants past it); never touch it again.
        crate::deadline::on_abandon();
        ctx.node = McsNode::boxed();
        false
    }
}

impl RawLock for McsLock {
    type Context = McsContext;

    const INFO: LockInfo = LockInfo {
        name: "mcs",
        full_name: "MCS lock",
        fair: true,
        local_spinning: true,
        needs_context: true,
        waiter_hint: true,
    };

    fn acquire(&self, ctx: &mut McsContext) {
        self.acquire_inner(ctx, SPIN_FOREVER);
    }

    #[cfg(feature = "park")]
    fn acquire_budgeted(&self, ctx: &mut McsContext, budget: u32) {
        self.acquire_inner(ctx, budget);
    }

    #[cfg(feature = "deadline")]
    fn try_acquire_until(&self, ctx: &mut McsContext, deadline: std::time::Instant) -> bool {
        self.try_acquire_inner(ctx, deadline)
    }

    #[cfg(not(feature = "deadline"))]
    fn release(&self, ctx: &mut McsContext) {
        let node = ctx.node.as_ptr();
        // SAFETY: We hold the lock through `ctx`, so our node is alive and
        // is the queue head.
        let node_ref = unsafe { &*node };
        let mut next = node_ref.next.load(Ordering::Acquire);
        crate::chaos::point("mcs-release-next-read");
        if next.is_null() {
            // No known successor: try to swing tail back to empty.
            // Release publishes the critical section to the next acquirer
            // that starts from an empty queue.
            if self
                .tail
                .compare_exchange(node, ptr::null_mut(), Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
            // A successor swapped the tail but has not linked yet; wait
            // for the link (it arrives promptly: the successor's very
            // next step is the `next` store — this loop never parks).
            poll_until(|| {
                next = node_ref.next.load(Ordering::Acquire);
                !next.is_null()
            });
        }
        // SAFETY: `next` is a queue node whose owner waits on its
        // `locked` word and therefore keeps it alive until this release
        // grants it; the grant itself is the last access through the
        // pointer (`release_raw` wakes by address, never dereferencing
        // after the successor may have moved on).
        unsafe { WaitWord::release_raw(ptr::addr_of!((*next).locked)) };
    }

    #[cfg(feature = "deadline")]
    fn release(&self, ctx: &mut McsContext) {
        // As the plain release, but granting into an abandoned node
        // (grant_raw reports the marker) hands us that node instead of
        // the lock's ownership: we reclaim it and keep granting down
        // the queue until a live waiter takes over or the queue drains.
        // `owned` tracks whether `node` is an abandoned node we must
        // free once done reading its `next` (the context's own node
        // stays with the context).
        let mut node = ctx.node.as_ptr();
        let mut owned = false;
        loop {
            // SAFETY: Either our context's node (alive, queue head) or
            // an abandoned node whose grant transferred sole ownership
            // to us; enqueuers only ever write its `next`, which the
            // linger-for-link loop below is exactly waiting for.
            let node_ref = unsafe { &*node };
            let mut next = node_ref.next.load(Ordering::Acquire);
            crate::chaos::point("mcs-release-next-read");
            if next.is_null() {
                if self
                    .tail
                    .compare_exchange(node, ptr::null_mut(), Ordering::Release, Ordering::Relaxed)
                    .is_ok()
                {
                    // Queue drained. The tail CAS means no enqueuer
                    // holds a pointer to `node` anymore.
                    if owned {
                        // SAFETY: Sole owner, unreachable from the lock.
                        unsafe { drop(Box::from_raw(node)) };
                    }
                    return;
                }
                poll_until(|| {
                    next = node_ref.next.load(Ordering::Acquire);
                    !next.is_null()
                });
            }
            // SAFETY: As the plain release; the Acquire `next` read
            // ordered us after the enqueuer's one-shot link store, so
            // nobody writes `node` again and (if owned) it is safe to
            // free after the grant below.
            let prev = unsafe { WaitWord::grant_raw(ptr::addr_of!((*next).locked)) };
            if owned {
                // SAFETY: Sole owner; the link store was the last write.
                unsafe { drop(Box::from_raw(node)) };
            }
            if prev & ABANDONED == 0 {
                // A live waiter took the lock.
                return;
            }
            // The successor abandoned before the grant landed; its node
            // is ours to reclaim and the hand-off continues past it.
            #[cfg(any(test, feature = "testkit"))]
            if crate::deadline::mutant::abandoned_skip_deleted() {
                // Mutant: the skip is "deleted" — this release returns
                // as if the abandoned waiter took the lock, so the
                // hand-off (and the abandoned node) are dropped, no
                // reclaim is counted, and every later waiter wedges.
                return;
            }
            crate::deadline::on_skip();
            node = next;
            owned = true;
        }
    }

    fn has_waiters_hint(&self, ctx: &Self::Context) -> Option<bool> {
        // The owner's node is the head; a set `next` pointer or a tail
        // that moved past our node means someone is queued behind us
        // (paper §4.1.2: "in MCS lock it suffices to check whether the
        // next pointer is set").
        let node = ctx.node.as_ptr();
        // SAFETY: We hold the lock through `ctx` (hint is only meaningful
        // for the owner), so our node is alive.
        let has_next = unsafe { !(*node).next.load(Ordering::Relaxed).is_null() };
        Some(has_next || self.tail.load(Ordering::Relaxed) != node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn uncontended_roundtrip() {
        let lock = McsLock::new();
        let mut ctx = McsContext::default();
        assert!(!lock.is_locked());
        lock.acquire(&mut ctx);
        assert!(lock.is_locked());
        assert_eq!(lock.has_waiters_hint(&ctx), Some(false));
        lock.release(&mut ctx);
        assert!(!lock.is_locked());
    }

    #[test]
    fn context_reuse_across_acquisitions() {
        let lock = McsLock::new();
        let mut ctx = McsContext::default();
        for _ in 0..1000 {
            lock.acquire(&mut ctx);
            lock.release(&mut ctx);
        }
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        const THREADS: usize = 4;
        const ITERS: usize = 2_000;
        let lock = Arc::new(McsLock::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let mut ctx = McsContext::default();
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
    fn thread_oblivious_release() {
        // Acquire on one thread, release on another, same context: the
        // property CLoF requires of high locks (paper §4.1.3).
        let lock = Arc::new(McsLock::new());
        let mut ctx = McsContext::default();
        lock.acquire(&mut ctx);
        let lock2 = Arc::clone(&lock);
        std::thread::scope(|s| {
            s.spawn(|| {
                lock2.release(&mut ctx);
            });
        });
        let mut ctx2 = McsContext::default();
        lock.acquire(&mut ctx2);
        lock.release(&mut ctx2);
    }

    #[test]
    fn waiter_hint_sees_contender() {
        let lock = Arc::new(McsLock::new());
        let mut ctx = McsContext::default();
        lock.acquire(&mut ctx);
        let waiter = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let mut ctx = McsContext::default();
                lock.acquire(&mut ctx);
                lock.release(&mut ctx);
            })
        };
        crate::spin::spin_until(|| lock.has_waiters_hint(&ctx) == Some(true));
        lock.release(&mut ctx);
        waiter.join().unwrap();
    }

    #[test]
    fn info_is_fair_local_spinning() {
        assert!(McsLock::INFO.fair);
        assert!(McsLock::INFO.local_spinning);
        assert!(McsLock::INFO.needs_context);
    }

    #[cfg(feature = "deadline")]
    mod deadline {
        use super::*;
        use std::time::{Duration, Instant};

        fn soon() -> Instant {
            Instant::now() + Duration::from_millis(5)
        }

        #[test]
        fn try_acquire_uncontended_succeeds() {
            let lock = McsLock::new();
            let mut ctx = McsContext::default();
            assert!(lock.try_acquire_until(&mut ctx, soon()));
            lock.release(&mut ctx);
            assert!(!lock.is_locked());
        }

        #[test]
        fn timeout_abandons_and_releaser_reclaims() {
            let lock = McsLock::new();
            let mut holder = McsContext::default();
            lock.acquire(&mut holder);
            let mut waiter = McsContext::default();
            let abandons = crate::deadline::abandons();
            let skips = crate::deadline::skips();
            assert!(
                !lock.try_acquire_until(&mut waiter, soon()),
                "contended try must time out"
            );
            assert!(crate::deadline::abandons() > abandons);
            // The release grants into the abandoned node, skips it, and
            // finds the queue empty.
            lock.release(&mut holder);
            assert!(crate::deadline::skips() > skips);
            assert!(!lock.is_locked(), "abandoned node fully reclaimed");
            // The timed-out context is immediately reusable.
            lock.acquire(&mut waiter);
            lock.release(&mut waiter);
        }

        #[test]
        fn abandoned_node_between_live_waiters_is_skipped() {
            // holder <- w1 (abandons) <- w2 (blocks): the release must
            // grant through w1's abandoned node to w2.
            let lock = Arc::new(McsLock::new());
            let mut holder = McsContext::default();
            lock.acquire(&mut holder);
            let mut w1 = McsContext::default();
            assert!(!lock.try_acquire_until(&mut w1, soon()));
            let t = {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    let mut ctx = McsContext::default();
                    lock.acquire(&mut ctx);
                    lock.release(&mut ctx);
                })
            };
            // Make it likely w2 is enqueued behind the abandoned node.
            std::thread::sleep(Duration::from_millis(10));
            lock.release(&mut holder);
            t.join().expect("w2 acquires through the abandoned node");
            assert!(!lock.is_locked());
        }

        #[test]
        fn timeout_leaves_other_traffic_unharmed() {
            const THREADS: usize = 4;
            const ITERS: usize = 300;
            let lock = Arc::new(McsLock::new());
            let counter = Arc::new(AtomicUsize::new(0));
            let mut handles = Vec::new();
            for i in 0..THREADS {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                handles.push(std::thread::spawn(move || {
                    let mut ctx = McsContext::default();
                    let mut held = 0usize;
                    for _ in 0..ITERS {
                        // Half the threads use tight deadlines, half block.
                        if i % 2 == 0 {
                            let d = Instant::now() + Duration::from_micros(50);
                            if !lock.try_acquire_until(&mut ctx, d) {
                                continue;
                            }
                        } else {
                            lock.acquire(&mut ctx);
                        }
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        held += 1;
                        lock.release(&mut ctx);
                    }
                    held
                }));
            }
            let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(counter.load(Ordering::Relaxed), total);
            assert!(!lock.is_locked(), "no abandoned node left queued");
        }
    }
}
