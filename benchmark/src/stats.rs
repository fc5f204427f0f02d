//! Sample statistics: nearest-rank percentiles, the "highest percentile
//! with at least ten samples beyond it" rule, and the quartile spread
//! the acceptance rule is stated in.

/// Percentiles a tail may be reported at, highest first.
pub const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A tail is only reported at a percentile that leaves this many samples
/// beyond it; fewer and the number is one outlier, not a tail.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    // 99.9 % of 10 000 is 9 990, not the 9 990.000000000002 the product
    // comes to: shave the rounding error off before rounding up.
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// The highest percentile of [`LADDER`] that still has [`MIN_BEYOND`]
/// samples above its rank, or `None` when even the median does not
/// (fewer than 20 samples).
pub fn supported_tail(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&pct| n > 0 && n - rank(n, pct) >= MIN_BEYOND)
}

/// Median, quartiles and supported tail of one sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// Percentile the tail is read at; `100.0` (the maximum) when the
    /// sample is too small for any rung of the ladder.
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarise `samples` (any order, non-empty), reading the tail at
    /// the highest percentile the sample supports.
    pub fn of(samples: &[f64]) -> Summary {
        Summary::with_tail(samples, None)
    }

    /// Summarise `samples`, reading the tail at `tail_pct` when given.
    pub fn with_tail(samples: &[f64], tail_pct: Option<f64>) -> Summary {
        assert!(!samples.is_empty(), "cannot summarise an empty sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted);
        let tail_pct = tail_pct
            .or_else(|| supported_tail(sorted.len()))
            .unwrap_or(100.0);
        let tail = percentile(&sorted, tail_pct);
        Summary {
            n: sorted.len(),
            q1,
            median,
            q3,
            tail_pct,
            tail,
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles of an ascending-sorted sample, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method: cut point `i` sits at position `i·(n+1)/4`, interpolated
/// between — for tiny samples extrapolated beyond — its neighbours), so
/// `compare.sh` and the acceptance rule agree on what a spread is.  One
/// sample is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of an unsorted, non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p50 of 20 samples is rank 10: exactly ten beyond.
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        // p99 of 1000 samples is rank 990: ten beyond; of 999 it is rank
        // 990 as well but only nine remain, so step down to p95.
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn small_samples_report_their_maximum() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.median, s.tail_pct, s.tail), (3, 2.0, 100.0, 3.0));
    }

    #[test]
    fn a_given_tail_percentile_overrides_the_ladder() {
        let s = Summary::with_tail(&[4.0, 1.0, 3.0, 2.0], Some(75.0));
        assert_eq!((s.tail_pct, s.tail), (75.0, 3.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }
}
