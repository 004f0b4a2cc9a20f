//! Order statistics for latency samples.

/// Percentiles a tail may be reported at, highest first. The ladder
/// stops at p95: on a shared machine, p99 and above follow bursts of
/// host interference rather than the program.
const TAIL_LADDER: [f64; 3] = [95.0, 90.0, 75.0];

/// Samples a tail percentile must have beyond it.
const TAIL_BEYOND: usize = 10;

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples (the
/// epsilon keeps decimal percentiles such as 99.9 from rounding up).
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile above p50 that has at least ten
/// samples beyond it, or `None` when no tail is resolvable from `n`.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| n > 0 && n - rank(p, n) >= TAIL_BEYOND)
}

/// Nearest-rank percentile `p` of `values` (non-empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(p, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p75 of 40 samples is rank 30: exactly ten beyond.
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        // p90 needs 100 samples, p95 200.
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(95.0));
        assert_eq!(tail_percentile(6), None);
        assert_eq!(tail_percentile(0), None);
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(p, n) >= TAIL_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentile_and_median_are_order_statistics() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
