//! Percentiles with the sample-count rule, and the quartile spread the
//! acceptance procedure uses.

/// Samples a percentile needs beyond it before it is reported
/// (choosing-metrics §1: "the highest percentile that has at least ten
/// samples beyond it").
const SAMPLES_BEYOND: f64 = 10.0;

/// `num / den`, or 0 when there is nothing to divide by (a metric that
/// does not apply to a workload).
pub fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Nearest-rank percentile of an ascending slice; `p` in (0, 1].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The sample-count rule: percentile `p` is supported once `(1 - p) * n`
/// samples lie beyond it — p95 from 200 samples, p99 from 1000.
pub fn supports(n: usize, p: f64) -> bool {
    (1.0 - p) * n as f64 >= SAMPLES_BEYOND - 1e-9
}

/// Median plus the tail percentiles the sample supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub p50: f64,
    pub p95: Option<f64>,
    pub p99: Option<f64>,
}

pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail = |p: f64| supports(n, p).then(|| percentile(&sorted, p));
    Some(Summary {
        n,
        mean: sorted.iter().sum::<f64>() / n as f64,
        p50: percentile(&sorted, 0.5),
        p95: tail(0.95),
        p99: tail(0.99),
    })
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so `--repeat` reports the same spread the
/// acceptance procedure computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, median, q3] = quartiles(values);
    if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_safe_division() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(per(6.0, 4), 1.5);
        assert_eq!(per(6.0, 0), 0.0);
    }

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn tail_percentiles_follow_the_sample_count_rule() {
        let of = |n: usize| summarize(&(0..n).map(|i| i as f64).collect::<Vec<_>>()).unwrap();
        let small = of(199);
        assert!(small.p95.is_none() && small.p99.is_none());
        let mid = of(200);
        assert_eq!(mid.p95, Some(189.0));
        assert!(mid.p99.is_none());
        let big = of(1000);
        assert!(big.p95.is_some() && big.p99.is_some());
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert!((relative_spread(&xs) - 1.0).abs() < 1e-12);
    }
}
