//! Order statistics for the benchmark's figures.
//!
//! A tail percentile is only reported where the sample supports it: at
//! least [`TAIL_SUPPORT`] samples must lie beyond the chosen rank. When a
//! run is too short for the asked percentile, the helper falls back to the
//! highest percentile that still has that support and says which one it
//! used, so a short run can never pass off its maximum as a "p999".

/// Samples that must lie strictly beyond a reported percentile.
pub const TAIL_SUPPORT: usize = 10;

/// A percentile as reported: the quantile actually used, its value, and the
/// sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile the value sits at (≤ the one asked for).
    pub q: f64,
    /// The value at that quantile.
    pub value: f64,
    /// Samples in the population.
    pub n: usize,
}

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The value at quantile `q` of `sorted` (ascending), capped at the highest
/// rank that still has [`TAIL_SUPPORT`] samples beyond it. `None` when the
/// sample is too small to support any percentile (≤ `TAIL_SUPPORT` values).
#[must_use]
pub fn tail(sorted: &[f64], q: f64) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_SUPPORT {
        return None;
    }
    let idx = rank(n, q).min(n - 1 - TAIL_SUPPORT);
    Some(Tail {
        q: (idx + 1) as f64 / n as f64,
        value: sorted[idx],
        n,
    })
}

/// The median of `sorted` (nearest rank; `None` when empty).
#[must_use]
pub fn median(sorted: &[f64]) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), 0.5)])
}

/// Sorts a sample in place for the helpers above (NaN-free input).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of an unsorted sample.
#[must_use]
pub fn median_of(mut values: Vec<f64>) -> Option<f64> {
    sort(&mut values);
    median(&values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn supported_percentile_is_exact_nearest_rank() {
        let v = ramp(1000);
        let p99 = tail(&v, 0.99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.q, 0.99);
        assert_eq!(p99.n, 1000);
        // 990 is followed by exactly ten samples (991..=1000).
        assert_eq!(v.iter().filter(|x| **x > p99.value).count(), TAIL_SUPPORT);
    }

    #[test]
    fn unsupported_percentile_falls_back_to_the_highest_supported_one() {
        // 1000 samples cannot support p999 (one sample beyond it): the
        // helper reports p99, the highest rank with ten samples beyond.
        let v = ramp(1000);
        let t = tail(&v, 0.999).unwrap();
        assert_eq!(t.value, 990.0);
        assert!(t.q < 0.999);
        assert_eq!(v.iter().filter(|x| **x > t.value).count(), TAIL_SUPPORT);
        // With 10 000 samples p999 is supported as asked.
        let v = ramp(10_000);
        let t = tail(&v, 0.999).unwrap();
        assert_eq!((t.q, t.value), (0.999, 9990.0));
    }

    #[test]
    fn too_few_samples_support_no_percentile() {
        assert!(tail(&ramp(TAIL_SUPPORT), 0.5).is_none());
        let t = tail(&ramp(TAIL_SUPPORT + 1), 0.99).unwrap();
        assert_eq!(t.value, 1.0);
    }

    #[test]
    fn median_uses_nearest_rank() {
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median_of(vec![3.0, 1.0, 2.0]), Some(2.0));
    }
}
