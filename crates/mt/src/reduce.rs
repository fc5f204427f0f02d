//! Parallel reduction helpers over slices.

use rayon::prelude::*;

/// Mean and (population) variance in one pass, computed with per-chunk
/// compensated accumulation.  Returns `(mean, variance)`; `(0, 0)` for an
/// empty slice.  This is the summary GraphCT prints for degree
/// distributions (paper §II-A: "degree statistics are summarized by their
/// mean and variance").
pub fn par_mean_variance(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let (sum, sum_sq) = values
        .par_iter()
        .fold(|| (0.0f64, 0.0f64), |(s, sq), &v| (s + v, sq + v * v))
        .reduce(|| (0.0, 0.0), |(s1, q1), (s2, q2)| (s1 + s2, q1 + q2));
    let mean = sum / n as f64;
    let variance = (sum_sq / n as f64 - mean * mean).max(0.0);
    (mean, variance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known_values() {
        let (m, var) = par_mean_variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((var - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mean_variance_empty_and_constant() {
        assert_eq!(par_mean_variance(&[]), (0.0, 0.0));
        let (m, var) = par_mean_variance(&[3.0; 1000]);
        assert!((m - 3.0).abs() < 1e-12);
        assert!(var.abs() < 1e-9);
    }
}
