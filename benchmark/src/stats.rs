//! Order statistics the harness reports: medians, quartiles, weighted
//! percentiles, and the rule for which percentile a sample supports.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, so `compare` and the
/// acceptance driver agree on a spread. One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let at = |k: usize| {
                // Python's arithmetic exactly, its extrapolation at the
                // ends of very short samples included.
                let j = (k * (n + 1) / 4).clamp(1, n - 1);
                let delta = (k * (n + 1)) as f64 - 4.0 * j as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(3))
        }
    }
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance driver holds against each metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Whether `n` samples support the `q`-quantile: at least ten samples must
/// lie beyond it, or the number is one outlier's value, not a percentile.
pub fn supports(q: f64, n: u64) -> bool {
    n as f64 * (1.0 - q) >= 10.0
}

/// The highest of p50/p90/p95/p99/p99.9 that `n` samples support.
pub fn highest_supported(n: u64) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.90, 0.50].into_iter().find(|&q| supports(q, n))
}

/// Samples that arrive in groups of equal value: `(value, how many)`.
#[derive(Debug, Default, Clone)]
pub struct Weighted {
    groups: Vec<(u64, u64)>,
    sorted: bool,
}

impl Weighted {
    /// Adds `count` samples of `value`.
    pub fn add(&mut self, value: u64, count: u64) {
        if count > 0 {
            self.groups.push((value, count));
            self.sorted = false;
        }
    }

    /// Total number of samples.
    pub fn len(&self) -> u64 {
        self.groups.iter().map(|g| g.1).sum()
    }

    /// The `q`-quantile by the nearest-rank rule; `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        if !self.sorted {
            self.groups.sort_unstable();
            self.sorted = true;
        }
        let n = self.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for &(value, count) in &self.groups {
            seen += count;
            if seen >= rank {
                return Some(value);
            }
        }
        self.groups.last().map(|g| g.0)
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.groups.iter().map(|g| g.0).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 of 999 samples leaves 9.99 beyond it: not a percentile yet.
        assert!(!supports(0.99, 999));
        assert!(supports(0.99, 1000));
        assert!(supports(0.95, 200));
        assert!(!supports(0.95, 199));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(150), Some(0.90));
        assert_eq!(highest_supported(248), Some(0.95));
        assert_eq!(highest_supported(5_000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
    }

    #[test]
    fn weighted_quantile_counts_every_sample_in_a_group() {
        let mut w = Weighted::default();
        w.add(10, 90);
        w.add(50, 9);
        w.add(900, 1);
        assert_eq!(w.len(), 100);
        assert_eq!(w.quantile(0.50), Some(10));
        assert_eq!(w.quantile(0.90), Some(10));
        assert_eq!(w.quantile(0.95), Some(50));
        assert_eq!(w.quantile(0.99), Some(50));
        assert_eq!(w.quantile(1.0), Some(900));
        assert_eq!(w.max(), Some(900));
        assert_eq!(Weighted::default().quantile(0.5), None);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
