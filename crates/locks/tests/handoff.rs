//! Queue-lock hand-offs under oversubscription: 8 threads share 2 CPUs,
//! so most grants go to a waiter that is not running and must be
//! noticed after a yield. Every hand-off chain must still finish, with
//! the exact number of critical sections.

use std::cell::UnsafeCell;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use clof_locks::{ClhLock, McsLock, RawLock};

const THREADS: usize = 8;
const CPUS: usize = 2;
const OPS: u64 = 2_000;
/// Far above the expected runtime; a missed grant shows up as a
/// timeout instead of a wedged test binary.
const LIMIT: Duration = Duration::from_secs(120);

/// A counter only the lock holder touches.
struct Guarded<L> {
    lock: L,
    count: UnsafeCell<u64>,
}

// SAFETY: `count` is only accessed while holding `lock`.
unsafe impl<L: Sync> Sync for Guarded<L> {}

#[cfg(target_os = "linux")]
mod affinity {
    /// A glibc `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }

    /// The CPUs the calling thread may run on, ascending.
    pub fn allowed() -> Vec<usize> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a live buffer of the size passed alongside;
        // pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..mask.len() * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    /// Pins the calling thread to `cpu`.
    pub fn pin(cpu: usize) {
        let mut mask: CpuSet = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: As in `allowed`; only the calling thread's mask changes.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        assert_eq!(
            rc,
            0,
            "pinning to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        );
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    /// Pinning is only implemented on Linux; elsewhere threads float.
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) {}
}

/// Runs `THREADS` workers, worker `i` pinned to the `i % CPUS`-th
/// allowed CPU (unpinned off Linux), each doing `OPS` critical sections.
fn handoffs_finish<L: RawLock + Send + Sync + 'static>() {
    let cpus: Vec<usize> = affinity::allowed().into_iter().take(CPUS).collect();
    let shared = Arc::new(Guarded {
        lock: L::default(),
        count: UnsafeCell::new(0),
    });
    let (done, finished) = mpsc::channel();
    let mut workers = Vec::new();
    for i in 0..THREADS {
        let shared = Arc::clone(&shared);
        let done = done.clone();
        let cpu = (!cpus.is_empty()).then(|| cpus[i % cpus.len()]);
        workers.push(std::thread::spawn(move || {
            if let Some(cpu) = cpu {
                affinity::pin(cpu);
            }
            let mut ctx = L::Context::default();
            for _ in 0..OPS {
                shared.lock.acquire(&mut ctx);
                // SAFETY: We hold the lock.
                unsafe { *shared.count.get() += 1 };
                shared.lock.release(&mut ctx);
            }
            done.send(()).unwrap();
        }));
    }
    for n in 0..THREADS {
        finished
            .recv_timeout(LIMIT)
            .unwrap_or_else(|_| panic!("{}: only {n} of {THREADS} workers finished", L::INFO.name));
    }
    for worker in workers {
        worker.join().unwrap();
    }
    let mut ctx = L::Context::default();
    shared.lock.acquire(&mut ctx);
    // SAFETY: We hold the lock.
    assert_eq!(unsafe { *shared.count.get() }, THREADS as u64 * OPS);
    shared.lock.release(&mut ctx);
}

#[test]
fn mcs_handoffs_finish_with_8_threads_on_2_cpus() {
    handoffs_finish::<McsLock>();
}

#[test]
fn clh_handoffs_finish_with_8_threads_on_2_cpus() {
    handoffs_finish::<ClhLock>();
}
