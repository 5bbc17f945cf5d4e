//! Closed-loop load: pinned workers, a warm-up, then a timed window cut
//! into slices. Each worker issues its next op only after the previous
//! one returned.

use std::time::{Duration, Instant};

use clof_kvstore::DbHandle;

use crate::oracle::{Tally, WorkerOracle};
use crate::stats::{median, quantile_ns};
use crate::sys;
use crate::workload::{key_bytes, StoreHandle, Workload};

/// Every 16th op (by op index) is timed. `Instant::now` costs ~40 ns
/// here, so timing every ~250 ns op would add ~30% to it.
pub const SAMPLE_EVERY: u64 = 16;

pub struct PhaseSpec {
    pub warmup: Duration,
    pub window: Duration,
    /// Slices the timed window is cut into. Rates and percentiles are
    /// taken per slice and reported as the median over slices, so one
    /// slice disturbed by another process moves no reported number.
    pub slices: usize,
    pub seed: u64,
}

/// One sampled op of a traced phase: span durations in ns, all four
/// sharing `op_id`. `acquire` runs from the call into `DbHandle::with`
/// to closure entry, `engine` is the store call, `release` runs from
/// closure exit to return, and `tail` (the op's self time) is the
/// oracle check after it.
pub struct OpTrace {
    pub op_id: u64,
    /// Start of the op, ns after the timed window opened.
    pub start_ns: u64,
    pub acquire: u32,
    pub engine: u32,
    pub release: u32,
    pub tail: u32,
}

pub struct WorkerRun {
    slice_ops: Vec<u64>,
    slice_lat: Vec<Vec<u32>>,
    pub ops: Vec<OpTrace>,
    pub oracle: WorkerOracle,
}

/// End-to-end figures of one phase.
pub struct Summary {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub fairness: f64,
    /// Latency samples behind the percentiles, over all slices.
    pub samples: usize,
    /// Ops per second in each slice, in time order.
    pub slice_ops_per_s: Vec<f64>,
    pub tally: Tally,
}

fn ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// splitmix64, one independent stream per (seed, worker).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: usize) -> Self {
        Rng(seed ^ (stream as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn exec(h: &mut StoreHandle, key: &[u8; 8], value: Option<Vec<u8>>) -> Option<Vec<u8>> {
    match value {
        Some(v) => {
            h.put(key.to_vec(), v);
            None
        }
        None => h.get(key),
    }
}

/// Runs one phase: worker `i` drives `handles[i]`, pinned to its CPU.
/// With `outer`, every op runs inside `outer[i].with(..)` and sampled
/// ops record their spans.
pub fn run(
    w: &Workload,
    spec: &PhaseSpec,
    handles: Vec<StoreHandle>,
    outer: Option<Vec<DbHandle<()>>>,
) -> Result<Vec<WorkerRun>, String> {
    let start = Instant::now() + spec.warmup;
    let end = start + spec.window;
    let outer: Vec<Option<DbHandle<()>>> = match outer {
        Some(o) => o.into_iter().map(Some).collect(),
        None => handles.iter().map(|_| None).collect(),
    };
    std::thread::scope(|s| {
        let joins: Vec<_> = handles
            .into_iter()
            .zip(outer)
            .enumerate()
            .map(|(i, (h, o))| s.spawn(move || worker(i, w, spec, start, end, h, o)))
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().map_err(|_| "a worker panicked".to_string())?)
            .collect()
    })
}

fn worker(
    me: usize,
    w: &Workload,
    spec: &PhaseSpec,
    start: Instant,
    end: Instant,
    mut h: StoreHandle,
    mut outer: Option<DbHandle<()>>,
) -> Result<WorkerRun, String> {
    sys::pin_worker(me)?;
    let window_ns = spec.window.as_nanos().max(1);
    let mut rng = Rng::new(spec.seed, me);
    let mut run = WorkerRun {
        slice_ops: vec![0; spec.slices],
        slice_lat: vec![Vec::new(); spec.slices],
        ops: Vec::new(),
        oracle: WorkerOracle::new(me, w.keys),
    };
    let keys = w.keys as u64;
    let write_pct = w.write_pct as u32;
    for n in 0u64.. {
        let r = rng.next();
        let idx = (((r >> 32) * keys) >> 32) as usize;
        let write = (r as u32) % 100 < write_pct;
        let value = write.then(|| run.oracle.next_write(idx));
        let key = key_bytes(idx);
        if n % SAMPLE_EVERY != 0 {
            let got = match &mut outer {
                None => exec(&mut h, &key, value),
                Some(o) => o.with(|_| exec(&mut h, &key, value)),
            };
            if !write {
                run.oracle.check_get(idx, got.as_deref());
            }
            continue;
        }
        let t0 = Instant::now();
        let (got, t1, t2) = match &mut outer {
            None => (exec(&mut h, &key, value), t0, t0),
            Some(o) => o.with(|_| {
                let t1 = Instant::now();
                let got = exec(&mut h, &key, value);
                (got, t1, Instant::now())
            }),
        };
        let t3 = Instant::now();
        if !write {
            run.oracle.check_get(idx, got.as_deref());
        }
        // Stop only after a completed op, so every write the oracle
        // recorded reached the store before the audit.
        if t3 >= end {
            break;
        }
        if t0 < start {
            continue;
        }
        let off = (t0 - start).as_nanos();
        let slices = spec.slices as u128;
        let slice = ((off * slices) / window_ns).min(slices - 1) as usize;
        run.slice_ops[slice] += SAMPLE_EVERY;
        run.slice_lat[slice].push(ns(t3 - t0));
        if outer.is_some() {
            run.ops.push(OpTrace {
                op_id: ((me as u64) << 48) | n,
                start_ns: off as u64,
                acquire: ns(t1 - t0),
                engine: ns(t2 - t1),
                release: ns(t3 - t2),
                tail: ns(Instant::now() - t3),
            });
        }
    }
    Ok(run)
}

/// Per-slice rates, fairness and percentiles, each reported as the
/// median over slices.
pub fn summarize(runs: &[WorkerRun], spec: &PhaseSpec) -> Result<Summary, String> {
    let slice_s = spec.window.as_secs_f64() / spec.slices as f64;
    let (mut rate, mut fair, mut p50, mut p99) = (vec![], vec![], vec![], vec![]);
    let mut samples = 0;
    for s in 0..spec.slices {
        let per_worker: Vec<u64> = runs.iter().map(|r| r.slice_ops[s]).collect();
        let max = *per_worker.iter().max().expect("at least one worker");
        let min = *per_worker.iter().min().expect("at least one worker");
        rate.push(per_worker.iter().sum::<u64>() as f64 / slice_s);
        fair.push(if max == 0 {
            0.0
        } else {
            min as f64 / max as f64
        });
        let mut lat: Vec<u32> = runs
            .iter()
            .flat_map(|r| r.slice_lat[s].iter().copied())
            .collect();
        lat.sort_unstable();
        samples += lat.len();
        let what = format!("op latency, slice {s}");
        p50.push(quantile_ns(&lat, 0.50, &what)? / 1e3);
        p99.push(quantile_ns(&lat, 0.99, &what)? / 1e3);
    }
    let mut tally = Tally::default();
    for r in runs {
        tally.add(r.oracle.tally);
    }
    Ok(Summary {
        ops_per_s: median(&rate),
        p50_us: median(&p50),
        p99_us: median(&p99),
        fairness: median(&fair),
        samples,
        slice_ops_per_s: rate,
        tally,
    })
}
