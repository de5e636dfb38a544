//! Medians, quartiles and the tail-percentile rule.

/// Median of `values` (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them, so
/// `compare` reads spreads the way the driver does. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let count = sorted.len();
    let m = count + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, count - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the quartiles as a share of the median: the run-to-run
/// spread the driver holds against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile `p` in `(0, 1]` of ascending `sorted`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty() && p > 0.0 && p <= 1.0);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail percentile of one latency pool: which one, its value, and how
/// many samples the pool held.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// `"p99"`, `"p95"`, `"p90"` or `"p75"`.
    pub which: &'static str,
    /// The percentile's value.
    pub value: u64,
    /// Samples in the pool.
    pub samples: usize,
}

/// The highest of p99 / p95 / p90 / p75 — but none above `cap` — that has at
/// least [`TAIL_MIN_BEYOND`] samples beyond it.
///
/// `cap` is how a workload whose p99 does not repeat within its bound is
/// stepped down once, to p95 (see `Workload::tail_cap`).
///
/// A pool too small for any of them (under 40 samples: `build` has nine
/// operations a run) still reports p75, with its sample count beside it: the
/// maximum of a handful of samples is the noisiest statistic there is.
pub fn tail(sorted: &[u64], cap: f64) -> Tail {
    let samples = sorted.len();
    let (which, p) = [("p99", 0.99), ("p95", 0.95), ("p90", 0.90)]
        .into_iter()
        .find(|&(_, p)| {
            p <= cap && samples - (p * samples as f64).ceil() as usize >= TAIL_MIN_BEYOND
        })
        .unwrap_or(("p75", 0.75));
    Tail {
        which,
        value: percentile(sorted, p),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            Some([15.0, 40.0, 120.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), Some(1.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[7], 0.5), 7);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let pool = |n: u64| -> Vec<u64> { (1..=n).collect() };
        assert_eq!(tail(&pool(1000), 0.99).which, "p99");
        assert_eq!(tail(&pool(1000), 0.99).value, 990);
        assert_eq!(tail(&pool(999), 0.99).which, "p95");
        assert_eq!(tail(&pool(200), 0.99).which, "p95");
        assert_eq!(tail(&pool(199), 0.99).which, "p90");
        assert_eq!(tail(&pool(100), 0.99).which, "p90");
        assert_eq!(tail(&pool(99), 0.99).which, "p75");
        assert_eq!(tail(&pool(40), 0.99).which, "p75");
        // Too small for ten samples beyond any percentile: still p75.
        let small = tail(&pool(12), 0.99);
        assert_eq!((small.which, small.value, small.samples), ("p75", 9, 12));
        // A workload whose p99 does not repeat is capped one step down.
        assert_eq!(tail(&pool(5000), 0.95).which, "p95");
        assert_eq!(tail(&pool(5000), 0.95).value, 4750);
    }
}
