//! Order statistics and process facts the benchmark reports.

/// The `q`-quantile of `values` (0 ≤ q ≤ 1) by linear interpolation
/// between closest ranks — the method of numpy's default and of
/// Python's `statistics.quantiles(..., method="inclusive")`.
///
/// # Panics
///
/// Panics on an empty slice, a NaN, or `q` outside `[0, 1]`: every
/// caller holds at least one finite measurement.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The smallest of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn min(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "min of no values");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_inputs() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        // Interpolation between ranks: 0..=100 puts p99 exactly on 99.
        let w: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&w, 0.99), 99.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(min(&[4.0, 1.5, 9.0]), 1.5);
    }

    #[test]
    fn quantile_ignores_input_order() {
        let shuffled = [9.0, 2.0, 5.0, 1.0, 7.0, 3.0];
        assert_eq!(median(&shuffled), 4.0);
        assert!((quantile(&shuffled, 0.9) - 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "quantile of no values")]
    fn empty_input_is_a_bug() {
        let _ = median(&[]);
    }
}
