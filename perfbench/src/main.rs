//! The repo benchmark: real threads driving `MiniDb` and `CabinetDb`
//! through the CLoF store lock, end to end, plus a traced run that
//! splits an op into lock and engine spans and climbs the layer ladder.
//!
//! ```text
//! clof-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! The last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A cell that breaks a
//! hygiene rule (too few samples beyond a percentile, a worker that could
//! not be pinned, fewer CPUs than workers) prints no result and exits
//! non-zero. See `perfbench/README.md` for the workloads and metrics.

mod ladder;
mod load;
mod oracle;
mod stats;
mod sys;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use clof_kvstore::{DbMutex, LockChoice};

use crate::load::{PhaseSpec, Summary, WorkerRun, SAMPLE_EVERY};
use crate::oracle::Tally;
use crate::workload::{clof_choice, find, hierarchy, Db, StoreHandle, Workload, WORKLOADS};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    /// CPUs the process may use, read before any thread is pinned.
    ncpu: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(find(&val).ok_or_else(|| {
                    format!("unknown workload {val}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 60)),
            "--trace" => trace = Some(num()? != 0),
            "--out" => out = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        ncpu: sys::ncpu(),
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|a| run(&a)) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: refused, no result: {e}");
            ExitCode::from(2)
        }
    }
}

/// What the result depends on besides the code: host, toolchain, build.
/// `run.py` passes the toolchain and source revision in.
fn meta_json(a: &Args) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        r#"{{"workload": "{}", "seed": {}, "seconds": {}, "trace": {}, "ncpu": {}, "workers": {}, "rev": "{}", "rustc": "{}", "features": "default", "lock": "mcs-clh-tkt", "hierarchy": "tiny (cache 2, numa 4, 8 cpus)", "sample_every": {SAMPLE_EVERY}}}"#,
        a.workload.name,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        a.ncpu,
        a.workload.workers,
        env("PERFBENCH_REV").replace('"', "'"),
        env("PERFBENCH_RUSTC").replace('"', "'"),
    )
}

/// `(name, value, unit)` rendered as the result's `metrics` object.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        parts.push(format!(
            r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn result_line(tally: Tally, metrics: &[(&str, f64, &str)]) -> Result<String, String> {
    Ok(format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics_json(metrics)?
    ))
}

fn write_out(a: &Args, file: &str, body: &str) -> Result<(), String> {
    std::fs::create_dir_all(&a.out).map_err(|e| format!("creating {}: {e}", a.out.display()))?;
    let path = a.out.join(file);
    std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run(a: &Args) -> Result<String, String> {
    sys::require_cpus(a.ncpu, a.workload.workers)?;
    // Set-up and the audit run on worker 0's CPU, so their timing does
    // not depend on where the scheduler happened to put this thread.
    sys::pin_worker(0)?;
    oracle::self_check()?;
    println!("meta {}", meta_json(a));
    if a.trace {
        traced(a)
    } else {
        untraced(a)
    }
}

/// Opens and fills the store and creates the worker handles; repeated
/// (at least `min_reps` times, and until 0.25 s went by) so the reported
/// set-up time is a median. The last store built is the one returned.
fn timed_setup(
    w: &Workload,
    choice: &LockChoice,
    min_reps: usize,
) -> Result<(Db, Vec<StoreHandle>, f64), String> {
    let began = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let db = Db::open_filled(w, choice)?;
        let handles: Vec<StoreHandle> = (0..w.workers).map(|c| db.handle(c)).collect();
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= min_reps && began.elapsed() >= Duration::from_millis(250);
        if enough || times.len() >= 200 {
            return Ok((db, handles, stats::median(&times)));
        }
    }
}

/// One measured phase of a workload under one store lock.
struct Phase {
    summary: Summary,
    setup_s: f64,
    /// Worker ops plus the post-run audit.
    tally: Tally,
    runs: Vec<WorkerRun>,
    /// Store flushes and compactions during the phase.
    maintenance: (u64, u64),
}

/// Runs `w` with the store opened under `store_lock`. With `outer`, every
/// op also runs inside a `DbMutex<()>` built with that choice, and the
/// sampled ops are traced.
fn phase(
    w: &Workload,
    store_lock: &LockChoice,
    outer: Option<&LockChoice>,
    spec: &PhaseSpec,
    setup_reps: usize,
) -> Result<Phase, String> {
    let (db, handles, setup_s) = timed_setup(w, store_lock, setup_reps)?;
    let outer_handles = match outer {
        Some(choice) => {
            let m = Arc::new(DbMutex::new((), &hierarchy(), choice).map_err(|e| e.to_string())?);
            Some((0..w.workers).map(|c| m.handle(c)).collect())
        }
        None => None,
    };
    let mut probe = db.handle(0);
    let before = probe.maintenance_counters();
    let mut runs = load::run(w, spec, handles, outer_handles)?;
    let after = probe.maintenance_counters();
    let summary = load::summarize(&runs, spec)?;
    let lasts: Vec<Vec<u64>> = runs.iter_mut().map(|r| r.oracle.take_last()).collect();
    let mut tally = summary.tally;
    tally.add(oracle::audit(&mut probe, w.keys, &lasts));
    Ok(Phase {
        summary,
        setup_s,
        tally,
        runs,
        maintenance: (after.0 - before.0, after.1 - before.1),
    })
}

fn print_summary(label: &str, s: &Summary, tally: Tally) {
    println!(
        "{label:<24} ops_per_s {:>11.0}  op_p50_us {:>7.3}  op_p99_us {:>7.3}  fairness {:.3}  samples {} (1 in {SAMPLE_EVERY})  failed_op_share {} ({}/{})",
        s.ops_per_s,
        s.p50_us,
        s.p99_us,
        s.fairness,
        s.samples,
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted,
    );
}

fn untraced(a: &Args) -> Result<String, String> {
    let w = a.workload;
    let spec = PhaseSpec {
        warmup: Duration::from_millis(w.warmup_ms),
        window: Duration::from_secs(a.seconds),
        // 2 s slices: each spans about one merge compaction of the large
        // store, so a slice's rate does not swing with whether it held one.
        slices: (a.seconds as usize / 2).clamp(5, 15),
        seed: a.seed,
    };
    let p = phase(w, &clof_choice(), None, &spec, 5)?;
    print_summary(w.name, &p.summary, p.tally);
    println!(
        "setup_s {:.6} (median of repeated open + fill + handles)",
        p.setup_s
    );
    let s = &p.summary;
    let ok_share = 1.0 - p.tally.failed as f64 / p.tally.attempted.max(1) as f64;
    let metrics = [
        ("ops_per_s", s.ops_per_s, "1/s"),
        ("op_p50_us", s.p50_us, "us"),
        ("op_p99_us", s.p99_us, "us"),
        ("fairness", s.fairness, "ratio"),
        ("ok_op_share", ok_share, "ratio"),
        ("setup_s", p.setup_s, "s"),
    ];
    write_out(
        a,
        &format!("{}.result.json", w.name),
        &format!(
            "{{\"meta\": {}, \"samples\": {}, \"slice_ops_per_s\": {:?}, \"result\": {}}}\n",
            meta_json(a),
            s.samples,
            s.slice_ops_per_s,
            result_line(p.tally, &metrics)?
        ),
    )?;
    result_line(p.tally, &metrics)
}

fn traced(a: &Args) -> Result<String, String> {
    let w = a.workload;
    let secs = a.seconds as f64;
    let spec = |share: f64, warmup_ms: u64, slices: usize| PhaseSpec {
        warmup: Duration::from_millis(warmup_ms),
        window: Duration::from_secs_f64(secs * share),
        slices,
        seed: a.seed,
    };
    let mut tally = Tally::default();

    // Untraced reference, then the same load with every op inside an
    // outer DbMutex<()> (the workload's lock) over a store whose own
    // lock is an uncontended `Std`.
    let plain = phase(w, &clof_choice(), None, &spec(0.15, w.warmup_ms, 10), 1)?;
    tally.add(plain.tally);
    let traced = phase(
        w,
        &LockChoice::Std,
        Some(&clof_choice()),
        &spec(0.25, w.warmup_ms, 10),
        1,
    )?;
    tally.add(traced.tally);
    let layers = trace::layer_stats(&traced.runs)?;
    std::fs::create_dir_all(&a.out).map_err(|e| format!("creating {}: {e}", a.out.display()))?;
    let span_path = a.out.join(format!("{}.spans.csv", w.name));
    let spans_written = trace::write_spans(&span_path, &traced.runs)?;
    let worker_ops: u64 = traced.summary.tally.attempted.max(1);
    let per_mop = |n: u64| n as f64 * 1e6 / worker_ops as f64;

    let mut baselines = Vec::new();
    for (name, metric, choice) in [
        ("hmcs", "baselines.hmcs.ops_per_s", LockChoice::Hmcs),
        ("cna", "baselines.cna.ops_per_s", LockChoice::Cna),
        ("shfl", "baselines.shfl.ops_per_s", LockChoice::Shfl),
        ("std", "baselines.std.ops_per_s", LockChoice::Std),
    ] {
        let p = phase(w, &choice, None, &spec(0.1, w.warmup_ms / 2, 5), 1)?;
        tally.add(p.tally);
        baselines.push((name, metric, p));
    }

    let rep = Duration::from_secs_f64(secs * 0.2 / (12 * ladder::REPS) as f64);
    let ladder = ladder::run(w.workers, rep)?;

    println!("-- end to end, {} ({} workers) --", w.name, w.workers);
    print_summary("clof mcs-clh-tkt", &plain.summary, plain.tally);
    for (name, _, p) in &baselines {
        print_summary(name, &p.summary, p.tally);
    }
    print_summary("clof traced", &traced.summary, traced.tally);
    let overhead = 1.0 - traced.summary.ops_per_s / plain.summary.ops_per_s;
    println!(
        "trace overhead: {:.1}% ({:.0} traced against {:.0} untraced ops/s)",
        overhead * 100.0,
        traced.summary.ops_per_s,
        plain.summary.ops_per_s
    );
    println!(
        "-- self time per layer, ns ({} traced ops, {} written to {}) --",
        traced.runs.iter().map(|r| r.ops.len()).sum::<usize>(),
        spans_written,
        span_path.display()
    );
    for l in &layers {
        println!(
            "{:<26} span p50 {:>8.1}  p99 {:>8.1}  self p50 {:>8.1}  self mean {:>8.1}",
            l.layer, l.span_p50, l.span_p99, l.self_p50, l.self_mean
        );
    }
    let cell = |name: &str| {
        ladder
            .cells
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.pair_ns)
            .expect("every ladder cell is run")
    };
    println!(
        "kvstore.engine self p50 less the store's own Std pair ({:.1} ns): {:.1} ns",
        cell("kvstore.dbmutex_std.pair_ns"),
        layers[2].self_p50 - cell("kvstore.dbmutex_std.pair_ns")
    );
    println!(
        "-- layer ladder: ns per acquire+release pair, {} pinned worker(s), {} reps of {:?} --",
        ladder.workers,
        ladder::REPS - 1,
        ladder.rep
    );
    for c in &ladder.cells {
        let reps: Vec<String> = c.reps_ns.iter().map(|r| format!("{r:.1}")).collect();
        println!(
            "{:<30} {:>8.1}   reps [{}]",
            c.name,
            c.pair_ns,
            reps.join(" ")
        );
    }
    println!(
        "dispatch tiers: {}; pass_share per level {:?}; fast_share {:.3}; flushes {} compactions {} in {} ops",
        ladder.dyn_tiers,
        ladder.pass_share,
        ladder.fast_share,
        traced.maintenance.0,
        traced.maintenance.1,
        worker_ops
    );

    let flat_max = [
        "locks.tkt.pair_ns",
        "locks.mcs.pair_ns",
        "locks.clh.pair_ns",
    ]
    .map(cell)
    .into_iter()
    .fold(0.0, f64::max);
    let composed_min = [
        "core.static.l3.pair_ns",
        "core.dyn.l3.pair_ns",
        "core.dyn.l3_generic.pair_ns",
    ]
    .map(cell)
    .into_iter()
    .fold(f64::INFINITY, f64::min);
    println!(
        "ladder check: slowest flat base lock {flat_max:.1} ns {} fastest composed 3-level rung {composed_min:.1} ns",
        if flat_max < composed_min { "<" } else { ">=" }
    );

    let mut metrics = vec![
        ("kvstore.dbmutex.acquire_ns.p50", layers[1].span_p50, "ns"),
        ("kvstore.dbmutex.acquire_ns.p99", layers[1].span_p99, "ns"),
        ("kvstore.dbmutex.release_ns.p50", layers[3].span_p50, "ns"),
        ("kvstore.engine.op_ns.p50", layers[2].span_p50, "ns"),
        ("kvstore.engine.op_ns.p99", layers[2].span_p99, "ns"),
        (
            "kvstore.minidb.flushes_per_mop",
            per_mop(traced.maintenance.0),
            "1/Mop",
        ),
        (
            "kvstore.minidb.compactions_per_mop",
            per_mop(traced.maintenance.1),
            "1/Mop",
        ),
    ];
    metrics.extend(ladder.cells.iter().map(|c| (c.name, c.pair_ns, "ns")));
    let levels = [
        "core.dyn.l0.pass_share",
        "core.dyn.l1.pass_share",
        "core.dyn.l2.pass_share",
    ];
    metrics.extend(
        levels
            .into_iter()
            .zip(ladder.pass_share.iter())
            .map(|(m, v)| (m, *v, "ratio")),
    );
    metrics.push(("core.fast.fast_share", ladder.fast_share, "ratio"));
    metrics.extend(
        baselines
            .iter()
            .map(|(_, m, p)| (*m, p.summary.ops_per_s, "1/s")),
    );
    metrics.extend([
        ("trace.ops_per_s", traced.summary.ops_per_s, "1/s"),
        ("trace.overhead_share", overhead, "ratio"),
    ]);
    let ladder_json: Vec<String> = ladder
        .cells
        .iter()
        .map(|c| format!(r#""{}": {:?}"#, c.name, c.reps_ns))
        .collect();
    write_out(
        a,
        &format!("{}.trace.json", w.name),
        &format!(
            "{{\"meta\": {}, \"ladder_reps_ns\": {{{}}}, \"result\": {}}}\n",
            meta_json(a),
            ladder_json.join(", "),
            result_line(tally, &metrics)?
        ),
    )?;
    result_line(tally, &metrics)
}
