//! Spans of the traced phase: per-layer percentiles, self time, and the
//! span file written when the run ends.

use std::fmt::Write as _;
use std::path::Path;

use crate::load::{OpTrace, WorkerRun};
use crate::stats::quantile_ns;

/// The span layers of one op, in the order they nest and run.
pub const LAYERS: [&str; 4] = [
    "op",
    "kvstore.dbmutex.acquire",
    "kvstore.engine",
    "kvstore.dbmutex.release",
];

/// Spans written per worker; the statistics use every sampled op, the
/// file keeps the first ones so its size stays bounded.
pub const WRITE_CAP: usize = 32_768;

fn durations(t: &OpTrace) -> [u32; 4] {
    let op = t
        .acquire
        .saturating_add(t.engine)
        .saturating_add(t.release)
        .saturating_add(t.tail);
    [op, t.acquire, t.engine, t.release]
}

/// Self time of each layer: its span minus the part its child spans
/// cover. The three store-layer spans are leaves; they tile the op span
/// up to the oracle check, which is the op's own time.
fn self_times(t: &OpTrace) -> [u32; 4] {
    let d = durations(t);
    [d[0].saturating_sub(d[1] + d[2] + d[3]), d[1], d[2], d[3]]
}

/// Percentiles of one layer over all sampled ops.
pub struct LayerStats {
    pub layer: &'static str,
    pub span_p50: f64,
    pub span_p99: f64,
    pub self_p50: f64,
    pub self_mean: f64,
}

pub fn layer_stats(runs: &[WorkerRun]) -> Result<Vec<LayerStats>, String> {
    let ops: Vec<&OpTrace> = runs.iter().flat_map(|r| r.ops.iter()).collect();
    let mut out = Vec::new();
    for (i, layer) in LAYERS.iter().enumerate() {
        let mut span: Vec<u32> = ops.iter().map(|t| durations(t)[i]).collect();
        let mut own: Vec<u32> = ops.iter().map(|t| self_times(t)[i]).collect();
        span.sort_unstable();
        own.sort_unstable();
        let mean = own.iter().map(|&x| f64::from(x)).sum::<f64>() / own.len().max(1) as f64;
        out.push(LayerStats {
            layer,
            span_p50: quantile_ns(&span, 0.50, layer)?,
            span_p99: quantile_ns(&span, 0.99, layer)?,
            self_p50: quantile_ns(&own, 0.50, layer)?,
            self_mean: mean,
        });
    }
    Ok(out)
}

/// Writes the spans as CSV, one row per span: `op_id` ties the four
/// spans of one op together, `parent` names the enclosing span, and
/// times are ns after the timed window opened. Returns the op count.
pub fn write_spans(path: &Path, runs: &[WorkerRun]) -> Result<usize, String> {
    let mut csv = String::from("op_id,span,parent,start_ns,end_ns\n");
    let mut written = 0;
    for t in runs.iter().flat_map(|r| r.ops.iter().take(WRITE_CAP)) {
        let d = durations(t);
        let mut at = t.start_ns;
        let _ = writeln!(csv, "{},op,,{},{}", t.op_id, at, at + u64::from(d[0]));
        for (layer, dur) in LAYERS[1..].iter().zip(&d[1..]) {
            let _ = writeln!(csv, "{},{layer},op,{at},{}", t.op_id, at + u64::from(*dur));
            at += u64::from(*dur);
        }
        written += 1;
    }
    std::fs::write(path, csv).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(written)
}
