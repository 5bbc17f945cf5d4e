//! HMCS: a hierarchy of MCS locks (Chabbi, Fagan & Mellor-Crummey,
//! PPoPP'15), with the WMM-safe barriers of the paper's HMCS-WMM study.
//!
//! Each cohort at each level owns an MCS-style queue. A thread enqueues at
//! its leaf; becoming the head of a level's queue makes it the *cohort
//! head*, which climbs by enqueueing the level's own node into the parent
//! level. On release, the owner passes within its level (incrementing a
//! count carried in the successor's `status`) until the per-level
//! threshold is hit, then releases the parent level first and signals the
//! successor to re-climb (`ACQUIRE_PARENT`).
//!
//! The fused status word (spin flag *and* hand-off counter) is what
//! distinguishes HMCS from the equivalent CLoF composition `mcs-mcs-...`.

use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use clof_topology::{CpuId, Hierarchy};

/// Waiting for a predecessor's signal.
const WAIT: u64 = u64::MAX;
/// Signal: "you are the new cohort head; acquire the parent level".
const ACQUIRE_PARENT: u64 = u64::MAX - 1;
/// First hand-off count of a fresh cohort head.
const COHORT_START: u64 = 1;

/// One queue node; `status` doubles as spin flag and pass counter.
#[derive(Debug)]
struct HmcsNode {
    status: AtomicU64,
    next: AtomicPtr<HmcsNode>,
}

impl HmcsNode {
    fn boxed() -> NonNull<HmcsNode> {
        let node = Box::new(HmcsNode {
            status: AtomicU64::new(0),
            next: AtomicPtr::new(ptr::null_mut()),
        });
        NonNull::new(Box::into_raw(node)).expect("Box::into_raw returned null")
    }
}

/// One cohort instance of one level.
struct HmcsLevel {
    tail: AtomicPtr<HmcsNode>,
    threshold: u64,
    parent: Option<Arc<HmcsLevel>>,
    /// Node this cohort uses to enqueue into the parent level. Only the
    /// cohort head touches it; hand-off between heads synchronizes
    /// through this level's queue (same argument as CLoF's high-lock
    /// context invariant).
    pnode: NonNull<HmcsNode>,
}

// SAFETY: All shared fields are atomics; `pnode` is owner-exclusive by
// protocol.
unsafe impl Send for HmcsLevel {}
// SAFETY: As above.
unsafe impl Sync for HmcsLevel {}

impl Drop for HmcsLevel {
    fn drop(&mut self) {
        // SAFETY: The level is being destroyed, so no operation is in
        // flight and the node is not linked anywhere.
        unsafe { drop(Box::from_raw(self.pnode.as_ptr())) };
    }
}

impl HmcsLevel {
    fn new(threshold: u64, parent: Option<Arc<HmcsLevel>>) -> Self {
        HmcsLevel {
            tail: AtomicPtr::new(ptr::null_mut()),
            threshold,
            parent,
            pnode: HmcsNode::boxed(),
        }
    }

    /// Acquires this level (and, if we become cohort head, all parents).
    fn acquire(&self, node: NonNull<HmcsNode>) {
        // SAFETY: `node` is owned by the caller (thread handle or child
        // level) and not currently enqueued.
        let n = unsafe { node.as_ref() };
        n.next.store(ptr::null_mut(), Ordering::Relaxed);
        n.status.store(WAIT, Ordering::Relaxed);
        let pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        if !pred.is_null() {
            // SAFETY: `pred` stays alive until its owner observes our link
            // (see the MCS argument in `clof-locks`).
            unsafe { (*pred).next.store(node.as_ptr(), Ordering::Release) };
            let mut status = WAIT;
            clof_locks::poll_until(|| {
                status = n.status.load(Ordering::Acquire);
                status != WAIT
            });
            if self.parent.is_none() {
                // Root level: any signal is the lock itself.
                return;
            }
            if status != ACQUIRE_PARENT {
                // Lock passed locally; `status` is our hand-off count.
                return;
            }
        }
        // We are the cohort head: climb.
        if let Some(parent) = &self.parent {
            n.status.store(COHORT_START, Ordering::Relaxed);
            parent.acquire(self.pnode);
        }
    }

    /// Releases this level, having already decided `val` for a successor.
    fn release_helper(&self, node: NonNull<HmcsNode>, val: u64) {
        // SAFETY: Caller owns `node` (it is this level's queue head).
        let n = unsafe { node.as_ref() };
        let mut succ = n.next.load(Ordering::Acquire);
        if succ.is_null() {
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
                return;
            }
            clof_locks::poll_until(|| {
                succ = n.next.load(Ordering::Acquire);
                !succ.is_null()
            });
        }
        // SAFETY: The successor is alive: it is spinning on its node.
        unsafe { (*succ).status.store(val, Ordering::Release) };
    }

    /// Full release from this level upward.
    fn release(&self, node: NonNull<HmcsNode>) {
        let Some(parent) = &self.parent else {
            // Root: plain MCS hand-off (0 = "granted" for the root spin).
            self.release_helper(node, 0);
            return;
        };
        // SAFETY: Caller owns `node`.
        let n = unsafe { node.as_ref() };
        let cur_count = n.status.load(Ordering::Relaxed);
        if cur_count < self.threshold {
            let succ = n.next.load(Ordering::Acquire);
            if !succ.is_null() {
                // Local pass: successor inherits the parent lock and the
                // incremented count.
                // SAFETY: Successor is spinning on its node.
                unsafe { (*succ).status.store(cur_count + 1, Ordering::Release) };
                return;
            }
        }
        // Threshold reached or no local successor: release the parent
        // first (release order, as in CLoF §4.1.3), then hand the level
        // to any successor with the re-climb signal.
        parent.release(self.pnode);
        self.release_helper(node, ACQUIRE_PARENT);
    }
}

/// The multi-level HMCS lock.
///
/// # Examples
///
/// ```
/// use clof_baselines::HmcsLock;
/// use clof_topology::platforms;
///
/// let lock = HmcsLock::new(&platforms::tiny(), 128);
/// let mut handle = lock.handle(0);
/// handle.acquire();
/// handle.release();
/// ```
pub struct HmcsLock {
    leaves: Vec<Arc<HmcsLevel>>,
    cpu_to_leaf: Vec<usize>,
    levels: usize,
}

impl HmcsLock {
    /// Builds an HMCS tree mirroring `hierarchy`, with the given
    /// per-level hand-off threshold (the paper and HMCS default: 128;
    /// 2 levels gives the HMCS⟨2⟩ configuration of the CNA/ShflLock
    /// papers, 4 levels the HMCS⟨4⟩ of Figure 2).
    pub fn new(hierarchy: &Hierarchy, threshold: u64) -> Self {
        let levels = hierarchy.level_count();
        let mut upper: Vec<Arc<HmcsLevel>> =
            vec![Arc::new(HmcsLevel::new(threshold, None))];
        for level in (0..levels.saturating_sub(1)).rev() {
            let mut nodes = Vec::with_capacity(hierarchy.cohort_count(level));
            for cohort in 0..hierarchy.cohort_count(level) {
                let cpu = hierarchy.cohort_members(level, cohort)[0];
                let parent_cohort = hierarchy.cohort(level + 1, cpu);
                nodes.push(Arc::new(HmcsLevel::new(
                    threshold,
                    Some(Arc::clone(&upper[parent_cohort])),
                )));
            }
            upper = nodes;
        }
        let cpu_to_leaf = (0..hierarchy.ncpus())
            .map(|c| {
                if levels == 1 {
                    0
                } else {
                    hierarchy.cohort(0, c)
                }
            })
            .collect();
        HmcsLock {
            leaves: upper,
            cpu_to_leaf,
            levels,
        }
    }

    /// A per-thread handle entering at `cpu`'s leaf cohort.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range for the hierarchy.
    pub fn handle(&self, cpu: CpuId) -> HmcsHandle {
        HmcsHandle {
            leaf: Arc::clone(&self.leaves[self.cpu_to_leaf[cpu]]),
            node: HmcsNode::boxed(),
        }
    }

    /// Number of levels (including the system level).
    pub fn levels(&self) -> usize {
        self.levels
    }
}

impl std::fmt::Debug for HmcsLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HmcsLock<{}>", self.levels)
    }
}

/// Per-thread HMCS handle (leaf cohort + the thread's queue node).
pub struct HmcsHandle {
    leaf: Arc<HmcsLevel>,
    node: NonNull<HmcsNode>,
}

// SAFETY: The node is heap-allocated; shared fields are atomics.
unsafe impl Send for HmcsHandle {}

impl HmcsHandle {
    /// Acquires the lock.
    pub fn acquire(&mut self) {
        self.leaf.acquire(self.node);
    }

    /// Releases the lock.
    ///
    /// Must only be called while held through this handle.
    pub fn release(&mut self) {
        self.leaf.release(self.node);
    }
}

impl Drop for HmcsHandle {
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

    fn hammer(lock: &Arc<HmcsLock>, cpus: &[usize], iters: usize) -> usize {
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
        let lock = HmcsLock::new(&platforms::tiny(), 128);
        let mut handle = lock.handle(0);
        for _ in 0..500 {
            handle.acquire();
            handle.release();
        }
    }

    #[test]
    fn mutual_exclusion_tiny_all_cpus() {
        let lock = Arc::new(HmcsLock::new(&platforms::tiny(), 128));
        let cpus: Vec<usize> = (0..8).collect();
        assert_eq!(hammer(&lock, &cpus, 1000), 8000);
    }

    #[test]
    fn mutual_exclusion_small_threshold() {
        // Threshold 1: every release climbs; stresses the re-climb path.
        let lock = Arc::new(HmcsLock::new(&platforms::tiny(), 1));
        assert_eq!(hammer(&lock, &[0, 1, 4, 5], 800), 3200);
    }

    #[test]
    fn mutual_exclusion_on_paper_armv8_4level() {
        let lock = Arc::new(HmcsLock::new(&platforms::paper_armv8_4level(), 128));
        let cpus = [0usize, 1, 5, 33, 64, 127];
        assert_eq!(hammer(&lock, &cpus, 400), 2400);
    }

    #[test]
    fn two_level_hmcs2_configuration() {
        let lock = Arc::new(HmcsLock::new(&platforms::two_level(8, 2), 128));
        assert_eq!(lock.levels(), 2);
        assert_eq!(hammer(&lock, &[0, 3, 4, 7], 800), 3200);
    }

    #[test]
    fn flat_hierarchy_degenerates_to_mcs() {
        let h = clof_topology::Hierarchy::flat(4).unwrap();
        let lock = Arc::new(HmcsLock::new(&h, 128));
        assert_eq!(lock.levels(), 1);
        assert_eq!(hammer(&lock, &[0, 1, 2, 3], 1000), 4000);
    }

    #[test]
    fn handle_reuse_many_rounds() {
        let lock = HmcsLock::new(&platforms::tiny(), 4);
        let mut handle = lock.handle(7);
        for _ in 0..2000 {
            handle.acquire();
            handle.release();
        }
    }
}
