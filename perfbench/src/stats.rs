//! Order statistics over measured samples.

/// Median (mean of the middle pair for even counts); 0 for no samples.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for no samples.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Samples strictly above quantile `q` — the report states this count
/// beside every tail percentile (at least ten are needed to trust it).
#[must_use]
pub fn count_above(values: &[f64], q: f64) -> usize {
    let t = quantile(values, q);
    values.iter().filter(|&&v| v > t).count()
}

/// Arithmetic mean; 0 for no samples.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Quantile of a base-2 bucketed histogram given as `(lower bound,
/// count)` pairs: the upper edge of the bucket holding rank `q`, so the
/// value is a bound, never an underestimate.
#[must_use]
pub fn bucket_quantile_upper(buckets: &[(u64, u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for &(lo, n) in buckets {
        seen += n;
        if seen >= rank {
            return if lo == 0 { 1.0 } else { (lo as f64) * 2.0 };
        }
    }
    buckets.last().map_or(0.0, |&(lo, _)| lo as f64 * 2.0)
}

/// `after − before` per bucket of two `nonzero_buckets()` snapshots.
#[must_use]
pub fn bucket_delta(before: &[(u64, u64)], after: &[(u64, u64)]) -> Vec<(u64, u64)> {
    after
        .iter()
        .map(|&(lo, n)| {
            let was = before
                .iter()
                .find(|&&(b, _)| b == lo)
                .map_or(0, |&(_, m)| m);
            (lo, n.saturating_sub(was))
        })
        .filter(|&(_, n)| n > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn bucket_quantile_is_an_upper_bound() {
        let b = [(1024, 9), (4096, 1)];
        assert_eq!(bucket_quantile_upper(&b, 0.5), 2048.0);
        assert_eq!(bucket_quantile_upper(&b, 0.99), 8192.0);
        let d = bucket_delta(&[(1024, 4)], &b);
        assert_eq!(d, vec![(1024, 5), (4096, 1)]);
    }
}
