//! Order statistics for timing samples.
//!
//! Quantiles use the "exclusive" rule of Python's
//! `statistics.quantiles` (position `p·(n+1)` in the sorted sample,
//! linear interpolation), so the quartiles printed here are the ones a
//! reader gets from the same values in Python. A run's tail is the
//! highest percentile of [`TAIL_LADDER`] that leaves at least
//! [`TAIL_BEYOND`] samples beyond it.

/// Candidate tail percentiles, lowest first.
pub const TAIL_LADDER: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_BEYOND: f64 = 10.0;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-quantile (`0 < p < 1`) by the exclusive rule, clamped to the
/// sample's range instead of extrapolating past its ends.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let v = sorted(values);
    let n = v.len();
    let h = (p * (n + 1) as f64).clamp(1.0, n as f64);
    let j = h.floor() as usize; // 1-based index of the lower neighbour
    if j >= n {
        return v[n - 1];
    }
    let frac = h - j as f64;
    v[j - 1] + (v[j] - v[j - 1]) * frac
}

/// The sample median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First quartile, median and third quartile — the three cut points of
/// Python's `statistics.quantiles(values, n=4)` for `n ≥ 3` samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    [
        quantile(values, 0.25),
        quantile(values, 0.5),
        quantile(values, 0.75),
    ]
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] of `n`
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p) >= TAIL_BEYOND - 1e-9)
}

/// Median and tail of one run's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile used (see [`tail_level`]).
    pub tail_p: f64,
    /// The value at `tail_p`.
    pub tail: f64,
}

/// Summarize a run's samples. With fewer than `2·TAIL_BEYOND` samples
/// no percentile qualifies as a tail, and `None` is returned.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let tail_p = tail_level(values.len())?;
    Some(Summary {
        n: values.len(),
        p50: median(values),
        tail_p,
        tail: quantile(values, tail_p),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Expected values come from Python's `statistics` module.
    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 4.0]), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        let squares: Vec<f64> = (1..12).map(|i| 0.1 * (i * i) as f64).collect();
        let [q1, q2, q3] = quartiles(&squares);
        assert!((q1 - 0.9).abs() < 1e-12 && (q2 - 3.6).abs() < 1e-12 && (q3 - 8.1).abs() < 1e-12);
    }

    #[test]
    fn quantile_clamps_instead_of_extrapolating() {
        assert_eq!(quantile(&[1.0, 2.0], 0.99), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.01), 1.0);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(0.5));
        assert_eq!(tail_level(39), Some(0.5));
        assert_eq!(tail_level(40), Some(0.75));
        assert_eq!(tail_level(100), Some(0.9));
        assert_eq!(tail_level(199), Some(0.9));
        assert_eq!(tail_level(200), Some(0.95));
        assert_eq!(tail_level(1000), Some(0.99));
        assert_eq!(tail_level(10_000), Some(0.999));
        for n in 20..3000 {
            let p = tail_level(n).expect("qualifies");
            assert!(n as f64 * (1.0 - p) >= 9.999_999, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_reports_tail_and_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v).expect("enough samples");
        assert_eq!((s.n, s.p50, s.tail_p), (100, 50.5, 0.9));
        assert!((s.tail - 90.9).abs() < 1e-9);
        assert!(summarize(&v[..19]).is_none());
    }
}
