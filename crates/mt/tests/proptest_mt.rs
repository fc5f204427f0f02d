//! Property tests for the multithreaded substrate: the parallel
//! primitives must agree with their obvious sequential definitions on
//! arbitrary inputs.

use graphct_mt::{histogram, prefix, reduce, rng, AtomicF64Array, AtomicUsizeArray};
use proptest::prelude::*;
use rayon::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exclusive_prefix_sum_matches_sequential(counts in prop::collection::vec(0usize..50, 0..300)) {
        let (offsets, total) = prefix::exclusive_prefix_sum(&counts);
        prop_assert_eq!(offsets.len(), counts.len() + 1);
        let mut acc = 0usize;
        for (i, &c) in counts.iter().enumerate() {
            prop_assert_eq!(offsets[i], acc);
            acc += c;
        }
        prop_assert_eq!(offsets[counts.len()], acc);
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn inclusive_prefix_sum_matches_sequential(counts in prop::collection::vec(0usize..50, 0..200)) {
        let inc = prefix::inclusive_prefix_sum(&counts);
        let mut acc = 0usize;
        let expected: Vec<usize> = counts.iter().map(|&c| { acc += c; acc }).collect();
        prop_assert_eq!(inc, expected);
    }

    #[test]
    fn parallel_counts_match_sequential(keys in prop::collection::vec(0usize..17, 0..500)) {
        let par = histogram::parallel_counts(&keys, 17);
        let mut seq = vec![0usize; 17];
        for &k in &keys {
            seq[k] += 1;
        }
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn histogram_conserves_samples(samples in prop::collection::vec(-10.0f64..10.0, 1..300), nbins in 1usize..20) {
        let h = histogram::Histogram::build(&samples, nbins, -5.0, 5.0);
        prop_assert_eq!(h.total(), samples.len());
        prop_assert_eq!(h.counts.len(), nbins);
    }

    #[test]
    fn log_binning_conserves_positive_samples(values in prop::collection::vec(0usize..10_000, 0..300)) {
        let (_edges, counts) = histogram::log_binned_counts(&values, 2.0);
        let positive = values.iter().filter(|&&v| v > 0).count();
        prop_assert_eq!(counts.iter().sum::<usize>(), positive);
    }

    #[test]
    fn mean_variance_matches_naive(values in prop::collection::vec(-100.0f64..100.0, 1..200)) {
        let (mean, var) = reduce::par_mean_variance(&values);
        let n = values.len() as f64;
        let naive_mean = values.iter().sum::<f64>() / n;
        let naive_var = values.iter().map(|v| (v - naive_mean).powi(2)).sum::<f64>() / n;
        prop_assert!((mean - naive_mean).abs() < 1e-6);
        prop_assert!((var - naive_var).abs() < 1e-4, "{var} vs {naive_var}");
    }

    #[test]
    fn atomic_f64_concurrent_adds_sum_correctly(deltas in prop::collection::vec(1u32..64, 1..200)) {
        // Integer-valued deltas keep float addition exact in any order.
        let arr = AtomicF64Array::zeros(1);
        deltas.par_iter().for_each(|&d| {
            arr.fetch_add(0, d as f64);
        });
        let expected: u64 = deltas.iter().map(|&d| d as u64).sum();
        prop_assert_eq!(arr.load(0), expected as f64);
    }

    #[test]
    fn atomic_usize_fetch_min_finds_minimum(values in prop::collection::vec(0usize..1_000_000, 1..300)) {
        let arr = AtomicUsizeArray::filled(1, usize::MAX);
        values.par_iter().for_each(|&v| {
            arr.fetch_min(0, v);
        });
        prop_assert_eq!(arr.load(0), *values.iter().min().unwrap());
    }

    #[test]
    fn split_seeds_never_collide_locally(master in any::<u64>()) {
        let mut seen = std::collections::HashSet::new();
        for i in 0..512u64 {
            prop_assert!(seen.insert(rng::split_seed(master, i)));
        }
    }
}
