//! CNA: Compact NUMA-Aware lock (Dice & Kogan, EuroSys'19).
//!
//! An MCS-style queue lock with a twist: on release, the owner scans the
//! main queue for the first waiter on its own NUMA node, moving skipped
//! (remote) waiters to a *secondary queue*; the lock is passed
//! preferentially within the node. Every `FLUSH_THRESHOLD` local
//! hand-offs the secondary queue is flushed to the front of the main
//! queue, bounding unfairness.
//!
//! Implementation notes (documented divergences from the original):
//!
//! * The secondary-queue head/tail and the flush counter live in the lock
//!   (owner-exclusive cells handed over with ownership) rather than being
//!   threaded through the spin words — semantically identical, simpler,
//!   at the cost of one extra cache line touched by the owner.
//! * The original flushes probabilistically (a cheap PRNG); we use a
//!   deterministic counter, which makes tests and fairness accounting
//!   reproducible.
//! * Explicit acquire/release orderings throughout: the published x86
//!   code has no barriers and, as the paper notes (§3.3), hangs on Armv8
//!   unless VSync-style barriers are added.

use std::cell::UnsafeCell;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::Arc;

use clof_locks::poll_until;
use clof_topology::{CpuId, Hierarchy};

/// Hand-offs within one NUMA node before the secondary queue is flushed.
const FLUSH_THRESHOLD: u32 = 256;

/// Queue node. `spin == 0` means wait; `spin == 1` means lock granted.
#[derive(Debug)]
struct CnaNode {
    spin: AtomicU32,
    numa: u32,
    next: AtomicPtr<CnaNode>,
}

impl CnaNode {
    fn boxed(numa: u32) -> NonNull<CnaNode> {
        let node = Box::new(CnaNode {
            spin: AtomicU32::new(0),
            numa,
            next: AtomicPtr::new(ptr::null_mut()),
        });
        NonNull::new(Box::into_raw(node)).expect("Box::into_raw returned null")
    }
}

/// Owner-exclusive release state, handed from owner to owner through the
/// lock's release→acquire edge.
#[derive(Debug)]
struct OwnerState {
    sec_head: *mut CnaNode,
    sec_tail: *mut CnaNode,
    local_passes: u32,
}

/// The CNA lock.
///
/// # Examples
///
/// ```
/// use clof_baselines::CnaLock;
/// use clof_topology::platforms;
///
/// let lock = std::sync::Arc::new(CnaLock::new(&platforms::two_level(8, 2)));
/// let mut handle = lock.handle(0);
/// handle.acquire();
/// handle.release();
/// ```
pub struct CnaLock {
    tail: AtomicPtr<CnaNode>,
    owner: UnsafeCell<OwnerState>,
    numa_of: Vec<u32>,
}

// SAFETY: `owner` is only accessed by the lock holder; hand-off
// synchronizes through the queue's release/acquire edges.
unsafe impl Send for CnaLock {}
// SAFETY: As above; everything else is atomic or immutable.
unsafe impl Sync for CnaLock {}

impl CnaLock {
    /// Creates a CNA lock for `hierarchy`, using its `numa` level (or the
    /// outermost non-system level) as the socket map — CNA is strictly
    /// two-level (paper Table 1: no A1).
    pub fn new(hierarchy: &Hierarchy) -> Self {
        let level = hierarchy
            .levels()
            .iter()
            .position(|l| l.name == "numa")
            .unwrap_or_else(|| hierarchy.level_count().saturating_sub(2));
        let numa_of = (0..hierarchy.ncpus())
            .map(|c| hierarchy.cohort(level, c) as u32)
            .collect();
        CnaLock {
            tail: AtomicPtr::new(ptr::null_mut()),
            owner: UnsafeCell::new(OwnerState {
                sec_head: ptr::null_mut(),
                sec_tail: ptr::null_mut(),
                local_passes: 0,
            }),
            numa_of,
        }
    }

    /// A per-thread handle for a thread running on `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn handle(self: &Arc<Self>, cpu: CpuId) -> CnaHandle {
        let numa = self.numa_of[cpu];
        CnaHandle {
            lock: Arc::clone(self),
            node: CnaNode::boxed(numa),
        }
    }

    fn acquire(&self, node: NonNull<CnaNode>) {
        // SAFETY: Caller owns the (idle) node.
        let n = unsafe { node.as_ref() };
        n.next.store(ptr::null_mut(), Ordering::Relaxed);
        n.spin.store(0, Ordering::Relaxed);
        let pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        if pred.is_null() {
            return;
        }
        // SAFETY: Predecessor is alive until it observes our link.
        unsafe { (*pred).next.store(node.as_ptr(), Ordering::Release) };
        poll_until(|| n.spin.load(Ordering::Acquire) != 0);
    }

    fn release(&self, node: NonNull<CnaNode>) {
        // SAFETY: We hold the lock; `owner` is ours until we pass it on.
        let state = unsafe { &mut *self.owner.get() };
        // SAFETY: Our node is the queue head.
        let n = unsafe { node.as_ref() };

        let must_flush = state.local_passes >= FLUSH_THRESHOLD;
        let first = self.wait_for_successor_or_uncontended(node);
        match first {
            None => {
                // Fully handled inside `wait_for_successor_or_uncontended`:
                // either the tail CAS released an uncontended lock (empty
                // secondary queue), or the secondary chain was atomically
                // re-installed as the main queue and its head granted.
            }
            Some(first) => {
                if must_flush && !state.sec_head.is_null() {
                    // Fairness flush: prepend the secondary chain to the
                    // main queue and grant its head.
                    let head = state.sec_head;
                    let tail_node = state.sec_tail;
                    state.sec_head = ptr::null_mut();
                    state.sec_tail = ptr::null_mut();
                    state.local_passes = 0;
                    // SAFETY: We exclusively own detached secondary nodes.
                    unsafe { (*tail_node).next.store(first.as_ptr(), Ordering::Relaxed) };
                    // SAFETY: Head is a waiting thread's node.
                    unsafe { (*head).spin.store(1, Ordering::Release) };
                    return;
                }
                // Scan for the first same-NUMA waiter, deferring remote
                // ones. The last queue node (observed `next == null`) is
                // never detached: its `next` may still be written by a
                // future enqueuer.
                let my_numa = n.numa;
                let mut cursor = first.as_ptr();
                loop {
                    // SAFETY: Queue nodes are alive while enqueued.
                    let cur = unsafe { &*cursor };
                    let next = cur.next.load(Ordering::Acquire);
                    if cur.numa == my_numa {
                        state.local_passes += 1;
                        cur.spin.store(1, Ordering::Release);
                        return;
                    }
                    if next.is_null() {
                        // Unmovable last node: grant it (remote hand-off)
                        // after flushing any deferred locals... deferred
                        // nodes are remote too, so prefer the oldest: the
                        // secondary head if present, spliced before the
                        // last node.
                        if state.sec_head.is_null() {
                            cur.spin.store(1, Ordering::Release);
                        } else {
                            let head = state.sec_head;
                            let tail_node = state.sec_tail;
                            state.sec_head = ptr::null_mut();
                            state.sec_tail = ptr::null_mut();
                            // SAFETY: Detached secondary nodes are ours.
                            unsafe { (*tail_node).next.store(cursor, Ordering::Relaxed) };
                            // SAFETY: Waiting thread's node.
                            unsafe { (*head).spin.store(1, Ordering::Release) };
                        }
                        state.local_passes = 0;
                        return;
                    }
                    // Defer `cur` to the secondary queue (it has a linked
                    // successor, so its `next` is stable and rewritable).
                    cur.next.store(ptr::null_mut(), Ordering::Relaxed);
                    if state.sec_head.is_null() {
                        state.sec_head = cursor;
                        state.sec_tail = cursor;
                    } else {
                        // SAFETY: Secondary tail is a detached node we own.
                        unsafe {
                            (*state.sec_tail).next.store(cursor, Ordering::Relaxed);
                        }
                        state.sec_tail = cursor;
                    }
                    cursor = next;
                }
            }
        }
    }

    /// Returns the first waiter, or `None` after fully releasing an
    /// uncontended lock (tail CAS to null) — but only when no deferred
    /// waiters exist; with a non-empty secondary queue it *keeps* the
    /// logical lock and returns `None` only after parking the tail, so
    /// the caller re-installs the secondary chain. To make that sound,
    /// the CAS-to-null path is taken only when the secondary queue is
    /// empty; otherwise we wait for a successor or swing the tail to the
    /// secondary chain atomically here.
    fn wait_for_successor_or_uncontended(&self, node: NonNull<CnaNode>) -> Option<NonNull<CnaNode>> {
        // SAFETY: Our node is the queue head.
        let n = unsafe { node.as_ref() };
        let next = n.next.load(Ordering::Acquire);
        if !next.is_null() {
            return NonNull::new(next);
        }
        // SAFETY: Owner-exclusive state.
        let state = unsafe { &mut *self.owner.get() };
        if state.sec_head.is_null() {
            if self
                .tail
                .compare_exchange(
                    node.as_ptr(),
                    ptr::null_mut(),
                    Ordering::Release,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return None;
            }
        } else {
            // Swing the tail directly to the secondary chain; if it
            // succeeds nobody can observe an unlocked lock in between.
            let sec_tail = state.sec_tail;
            if self
                .tail
                .compare_exchange(node.as_ptr(), sec_tail, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                let head = state.sec_head;
                state.sec_head = ptr::null_mut();
                state.sec_tail = ptr::null_mut();
                state.local_passes = 0;
                // SAFETY: Head of the (formerly) secondary chain is a
                // waiting thread's node.
                unsafe { (*head).spin.store(1, Ordering::Release) };
                // The lock has been granted; report "nothing to do".
                return None;
            }
        }
        // A successor enqueued concurrently; wait for the link.
        let mut next = ptr::null_mut();
        poll_until(|| {
            next = n.next.load(Ordering::Acquire);
            !next.is_null()
        });
        NonNull::new(next)
    }
}

impl std::fmt::Debug for CnaLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CnaLock({} cpus)", self.numa_of.len())
    }
}

/// Per-thread CNA handle.
pub struct CnaHandle {
    lock: Arc<CnaLock>,
    node: NonNull<CnaNode>,
}

// SAFETY: Node is heap-allocated with atomic shared fields.
unsafe impl Send for CnaHandle {}

impl CnaHandle {
    /// Acquires the lock.
    pub fn acquire(&mut self) {
        self.lock.acquire(self.node);
    }

    /// Releases the lock.
    ///
    /// Must only be called while held through this handle.
    pub fn release(&mut self) {
        self.lock.release(self.node);
    }
}

impl Drop for CnaHandle {
    fn drop(&mut self) {
        // SAFETY: Handles are dropped only when idle (not enqueued).
        unsafe { drop(Box::from_raw(self.node.as_ptr())) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clof_topology::platforms;
    use std::sync::atomic::AtomicUsize;

    fn hammer(lock: &Arc<CnaLock>, cpus: &[usize], iters: usize) -> usize {
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
    fn single_thread_roundtrip() {
        let lock = Arc::new(CnaLock::new(&platforms::two_level(8, 2)));
        let mut handle = lock.handle(0);
        for _ in 0..1000 {
            handle.acquire();
            handle.release();
        }
    }

    #[test]
    fn mutual_exclusion_same_numa() {
        let lock = Arc::new(CnaLock::new(&platforms::two_level(8, 2)));
        assert_eq!(hammer(&lock, &[0, 1, 2, 3], 1500), 6000);
    }

    #[test]
    fn mutual_exclusion_cross_numa() {
        // The interesting case: deferral to the secondary queue and
        // re-installation must not lose waiters or grant twice.
        let lock = Arc::new(CnaLock::new(&platforms::two_level(8, 2)));
        assert_eq!(hammer(&lock, &[0, 4, 1, 5, 2, 6], 1200), 7200);
    }

    #[test]
    fn mutual_exclusion_on_paper_x86() {
        let lock = Arc::new(CnaLock::new(&platforms::paper_x86()));
        let cpus = [0usize, 24, 48, 72, 1, 25];
        assert_eq!(hammer(&lock, &cpus, 800), 4800);
    }

    #[test]
    fn no_lost_waiters_under_heavy_cross_numa_churn() {
        let lock = Arc::new(CnaLock::new(&platforms::two_level(4, 4))); // 1 cpu per node
        assert_eq!(hammer(&lock, &[0, 1, 2, 3], 2000), 8000);
    }

    #[test]
    fn uses_numa_level_of_deeper_hierarchies() {
        let lock = Arc::new(CnaLock::new(&platforms::paper_armv8()));
        assert_eq!(lock.numa_of[0], 0);
        assert_eq!(lock.numa_of[33], 1);
        assert_eq!(lock.numa_of[127], 3);
    }
}
