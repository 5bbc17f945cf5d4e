//! Percentiles with the sample-count rule every reported cell obeys.

/// A percentile must have at least this many samples beyond it, or the
/// cell is refused instead of reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile of integer nanosecond samples, `samples` sorted.
///
/// Samples are whole nanoseconds, so many are tied. The estimate is the
/// grouped-data quantile with 1 ns classes: it lands inside the tied
/// value's class `[v - 0.5, v + 0.5)` at the share of that class the
/// quantile's rank reaches, which keeps a real shift in the distribution
/// visible below the clock's resolution.
///
/// Errors when fewer than [`MIN_BEYOND`] samples lie above the class
/// holding the quantile.
pub fn quantile_ns(sorted: &[u32], q: f64, what: &str) -> Result<f64, String> {
    let n = sorted.len();
    if n == 0 {
        return Err(format!("{what}: no samples"));
    }
    let rank = q * n as f64;
    let v = sorted[(rank as usize).min(n - 1)];
    let below = sorted.partition_point(|&x| x < v);
    let upto = sorted.partition_point(|&x| x <= v);
    let beyond = n - upto;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "{what}: only {beyond} of {n} samples lie beyond p{}; at least {MIN_BEYOND} are needed",
            q * 100.0
        ));
    }
    let in_class = (upto - below) as f64;
    let share = ((rank - below as f64) / in_class).clamp(0.0, 1.0);
    Ok(f64::from(v) - 0.5 + share)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_inside_a_tied_class() {
        let mut s: Vec<u32> = vec![100; 50];
        s.extend(vec![101; 50]);
        s.extend(vec![500; 20]);
        // rank 60 of 120 falls 10/50 into the 101 class.
        let p50 = quantile_ns(&s, 0.5, "t").unwrap();
        assert!((p50 - 100.7).abs() < 1e-9, "{p50}");
    }

    #[test]
    fn quantile_refuses_a_thin_tail() {
        let s: Vec<u32> = (0..500).collect();
        // p99 of 500 samples has 5 beyond it.
        let err = quantile_ns(&s, 0.99, "t").unwrap_err();
        assert!(err.contains("only"), "{err}");
        assert!(quantile_ns(&s, 0.5, "t").is_ok());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
