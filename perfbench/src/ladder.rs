//! The layer ladder: ns per acquire+release pair with an empty critical
//! section, one rung per layer. Each rung adds one thing to the one
//! before, so the difference between two rungs is the price of a layer.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use clof::compose::build3;
use clof::{
    ClofHandle, ClofParams, DynClofLock, DynHandle, FastClof, FastClofHandle, HierLock, LockKind,
};
use clof_kvstore::{DbHandle, DbMutex, LockChoice};
use clof_locks::{ClhLock, McsLock, RawLock, TicketLock};
use clof_topology::{platforms, Hierarchy};

use crate::stats::median;
use crate::sys;
use crate::workload::{clof_choice, hierarchy, CLOF_KINDS};

/// One acquire+release pair with an empty critical section.
trait Pair: Send {
    fn pair(&mut self);
}

struct Flat<L: RawLock> {
    lock: Arc<L>,
    ctx: L::Context,
}

impl<L: RawLock> Pair for Flat<L> {
    #[inline]
    fn pair(&mut self) {
        self.lock.acquire(&mut self.ctx);
        self.lock.release(&mut self.ctx);
    }
}

impl<T: HierLock> Pair for ClofHandle<T> {
    #[inline]
    fn pair(&mut self) {
        self.acquire();
        self.release();
    }
}

impl Pair for DynHandle {
    #[inline]
    fn pair(&mut self) {
        self.acquire();
        self.release();
    }
}

impl Pair for FastClofHandle {
    #[inline]
    fn pair(&mut self) {
        self.acquire();
        self.release();
    }
}

impl Pair for DbHandle<()> {
    #[inline]
    fn pair(&mut self) {
        self.with(|u| {
            black_box(u);
        });
    }
}

/// One rung: per-rep ns per pair (the warm-up rep dropped) and their median.
pub struct Cell {
    pub name: &'static str,
    pub reps_ns: Vec<f64>,
    pub pair_ns: f64,
}

/// Everything one ladder run reports.
pub struct Ladder {
    pub workers: usize,
    pub rep: Duration,
    pub cells: Vec<Cell>,
    /// passes / (passes + releases_up) per level of the dyn 3-level rung.
    pub pass_share: Vec<f64>,
    /// fast-path acquires / all acquires on the fast-path rung.
    pub fast_share: f64,
    /// Dispatch tier `DynClofLock::handle` chose for each dyn rung.
    pub dyn_tiers: String,
}

/// Reps per cell, the first of which is warm-up.
pub const REPS: usize = 6;

/// Runs `handles[i]` on worker `i`'s pinned CPU for [`REPS`] timed reps of `rep`
/// each, all workers starting each rep together.
fn cell<P: Pair>(name: &'static str, handles: Vec<P>, rep: Duration) -> Result<Cell, String> {
    let n = handles.len();
    let barrier = Barrier::new(n);
    let pin_failed = AtomicBool::new(false);
    let per_worker: Vec<Vec<f64>> = std::thread::scope(|s| {
        let joins: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(i, mut h)| {
                let (barrier, pin_failed) = (&barrier, &pin_failed);
                s.spawn(move || -> Result<Vec<f64>, String> {
                    let pinned = sys::pin_worker(i);
                    if pinned.is_err() {
                        pin_failed.store(true, Ordering::Relaxed);
                    }
                    // Every worker passes this barrier before any reads the
                    // flag, so all of them leave together on failure.
                    barrier.wait();
                    if pin_failed.load(Ordering::Relaxed) {
                        pinned?;
                        return Err("another ladder worker failed to pin".into());
                    }
                    let mut reps = Vec::with_capacity(REPS);
                    for _ in 0..REPS {
                        barrier.wait();
                        let t0 = Instant::now();
                        let end = t0 + rep;
                        let mut pairs = 0u64;
                        let elapsed = loop {
                            for _ in 0..64 {
                                h.pair();
                            }
                            pairs += 64;
                            let t = Instant::now();
                            if t >= end {
                                break t - t0;
                            }
                        };
                        reps.push(elapsed.as_nanos() as f64 / pairs as f64);
                    }
                    Ok(reps)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .map_err(|_| format!("ladder worker panicked in {name}"))?
            })
            .collect::<Result<_, String>>()
    })?;
    // Per rep: the mean over workers of each worker's ns per pair.
    let reps_ns: Vec<f64> = (1..REPS)
        .map(|r| per_worker.iter().map(|w| w[r]).sum::<f64>() / n as f64)
        .collect();
    Ok(Cell {
        name,
        pair_ns: median(&reps_ns),
        reps_ns,
    })
}

fn flat<L: RawLock>(workers: usize) -> Vec<Flat<L>> {
    let lock = Arc::new(L::default());
    (0..workers)
        .map(|_| Flat {
            lock: Arc::clone(&lock),
            ctx: L::Context::default(),
        })
        .collect()
}

fn built(h: &Hierarchy, kinds: &[LockKind]) -> Result<DynClofLock, String> {
    DynClofLock::build(h, kinds).map_err(|e| e.to_string())
}

fn db_mutex(choice: &LockChoice) -> Result<Arc<DbMutex<()>>, String> {
    Ok(Arc::new(
        DbMutex::new((), &hierarchy(), choice).map_err(|e| e.to_string())?,
    ))
}

/// Runs the whole ladder with `workers` pinned workers, `rep` per timed rep.
pub fn run(workers: usize, rep: Duration) -> Result<Ladder, String> {
    let tiny = hierarchy();
    let cpus = 0..workers;
    let mut cells = vec![
        cell("locks.tkt.pair_ns", flat::<TicketLock>(workers), rep)?,
        cell("locks.mcs.pair_ns", flat::<McsLock>(workers), rep)?,
        cell("locks.clh.pair_ns", flat::<ClhLock>(workers), rep)?,
    ];

    let tree = build3::<McsLock, ClhLock, TicketLock>(&tiny, ClofParams::default())
        .map_err(|e| e.to_string())?;
    cells.push(cell(
        "core.static.l3.pair_ns",
        cpus.clone().map(|c| tree.handle(c)).collect(),
        rep,
    )?);

    // Each dyn rung adds one level below the last: tkt, clh-tkt, mcs-clh-tkt.
    let flat_h = Hierarchy::flat(tiny.ncpus()).map_err(|e| e.to_string())?;
    let l1 = built(&flat_h, &CLOF_KINDS[2..])?;
    let l2 = built(&platforms::two_level(tiny.ncpus(), 2), &CLOF_KINDS[1..])?;
    let l3 = built(&tiny, &CLOF_KINDS)?;
    for (name, lock) in [
        ("core.dyn.l1.pair_ns", &l1),
        ("core.dyn.l2.pair_ns", &l2),
        ("core.dyn.l3.pair_ns", &l3),
    ] {
        cells.push(cell(
            name,
            cpus.clone().map(|c| lock.handle(c)).collect(),
            rep,
        )?);
    }
    let pass_share = l3
        .stats()
        .iter()
        .map(|s| s.passes as f64 / (s.passes + s.releases_up).max(1) as f64)
        .collect();

    let generic = built(&tiny, &CLOF_KINDS)?;
    cells.push(cell(
        "core.dyn.l3_generic.pair_ns",
        cpus.clone().map(|c| generic.handle_generic(c)).collect(),
        rep,
    )?);

    let fast = FastClof::build(&tiny, &CLOF_KINDS).map_err(|e| e.to_string())?;
    cells.push(cell(
        "core.fast.l3.pair_ns",
        cpus.clone().map(|c| fast.handle(c)).collect(),
        rep,
    )?);
    let (fast_acq, slow_acq) = fast.path_counters();
    let fast_share = fast_acq as f64 / (fast_acq + slow_acq).max(1) as f64;

    let clof_db = db_mutex(&clof_choice())?;
    cells.push(cell(
        "kvstore.dbmutex.pair_ns",
        cpus.clone().map(|c| clof_db.handle(c)).collect(),
        rep,
    )?);
    let std_db = db_mutex(&LockChoice::Std)?;
    cells.push(cell(
        "kvstore.dbmutex_std.pair_ns",
        cpus.map(|c| std_db.handle(c)).collect(),
        rep,
    )?);

    Ok(Ladder {
        workers,
        rep,
        cells,
        pass_share,
        fast_share,
        dyn_tiers: format!(
            "l1 {:?}, l2 {:?}, l3 {:?}",
            l1.dispatch_tier(),
            l2.dispatch_tier(),
            l3.dispatch_tier()
        ),
    })
}
