//! Order statistics: medians, nearest-rank percentiles with the
//! ten-beyond tail rule, and quartiles computed exactly as Python's
//! `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
//! the spreads this benchmark reports match the ones its users compute.

/// A sorted copy of `xs` (NaNs sort last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`: the smallest sample
/// at or above which at least `p` % of the samples lie.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let v = sorted(xs);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The tail rule: a percentile may be reported only when at least this
/// many samples lie beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Does percentile `p` of `n` samples satisfy the tail rule?
pub fn tail_ok(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= TAIL_MIN_BEYOND
}

/// The fewest samples for which percentile `p` satisfies the tail rule.
pub fn samples_for_tail(p: f64) -> usize {
    (1..).find(|&n| tail_ok(n, p)).unwrap_or(usize::MAX)
}

/// First and third quartile, as `statistics.quantiles(xs, n=4)` returns
/// them with its default exclusive method. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let ld = v.len();
    let m = ld + 1;
    let n = 4;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median — the spread a
/// metric's bound is compared against.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Unsorted input is fine.
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 40.0), 2.0);
    }

    #[test]
    fn tail_rule_counts_samples_beyond() {
        // p99 of 1000 samples is rank 990: ten samples beyond it.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(tail_ok(1000, 99.0));
        assert!(!tail_ok(999, 99.0));
        assert_eq!(samples_for_tail(99.0), 1000);
        assert_eq!(samples_for_tail(90.0), 100);
        assert_eq!(samples_for_tail(50.0), 20);
        assert!(!tail_ok(0, 50.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 3, 5, 7, 9], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[9.0, 7.0, 5.0, 3.0, 1.0]), (2.0, 8.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }
}
