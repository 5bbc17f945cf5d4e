//! Host facts a cell depends on: CPU count and thread pinning.

use std::sync::OnceLock;

/// Logical CPUs this process may run on.
pub fn ncpu() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Refuses a run that needs more workers than the `n` CPUs it may use: the
/// workers would time-share a CPU and every number would measure the
/// scheduler.
pub fn require_cpus(n: usize, workers: usize) -> Result<(), String> {
    if n < workers {
        return Err(format!(
            "available_parallelism() = {n} is below the {workers} workers this cell needs"
        ));
    }
    Ok(())
}

/// A glibc `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// Host CPUs the process may run on, ascending, read on first use —
/// before any thread is pinned, since pinning narrows the caller's mask.
/// Worker `i` runs on the `i`-th of them: host CPU `i` when all are allowed.
fn cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a live 128-byte buffer for the whole call and
        // its size is passed alongside; pid 0 names the calling thread.
        #[cfg(target_os = "linux")]
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..mask.len() * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    })
}

/// Pins the calling thread to the CPU of worker `worker`.
pub fn pin_worker(worker: usize) -> Result<(), String> {
    let allowed = cpus();
    let cpu = *allowed.get(worker).ok_or_else(|| {
        format!(
            "no CPU for worker {worker}: the affinity mask allows {}",
            allowed.len()
        )
    })?;
    pin_to(cpu)
}

/// Pins the calling thread to host CPU `cpu`.
#[cfg(target_os = "linux")]
fn pin_to(cpu: usize) -> Result<(), String> {
    let mut mask: CpuSet = [0; 16];
    if cpu >= mask.len() * 64 {
        return Err(format!(
            "cannot pin to CPU {cpu}: beyond the 1024-CPU affinity mask"
        ));
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised 128-byte buffer for the whole
    // call, and its size is passed alongside; pid 0 names the calling
    // thread, so no other thread's state is touched.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "pinning a worker to CPU {cpu} failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Pins the calling thread to host CPU `cpu`.
#[cfg(not(target_os = "linux"))]
fn pin_to(cpu: usize) -> Result<(), String> {
    Err(format!(
        "pinning a worker to CPU {cpu} is only implemented on Linux"
    ))
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_outside_the_allowed_cpus_is_an_error() {
        assert!(pin_to(1 << 20).unwrap_err().contains("beyond"));
        // No host this runs on has CPU 1023 in its affinity set.
        assert!(pin_to(1023).unwrap_err().contains("failed"));
        assert!(pin_worker(cpus().len()).unwrap_err().contains("no CPU"));
    }

    #[test]
    fn too_few_cpus_is_an_error() {
        assert!(require_cpus(1, 2).is_err());
        assert!(require_cpus(2, 2).is_ok());
    }
}
