//! Self-tests for the benchmark's statistics helpers.

use rotary_perfbench::stats::{
    fast_windows, growth_ratio, median, percentile, quartiles, spread, WindowRef, TAIL_SAMPLES,
};

#[test]
fn p99_needs_a_thousand_samples_to_keep_ten_beyond_it() {
    let values: Vec<u64> = (1..=1000).collect();
    // Nearest rank 990 leaves 991..=1000 beyond it: exactly ten.
    assert_eq!(percentile(&values, 990), Some(990));
    assert_eq!(percentile(&values, 500), Some(500));
    assert_eq!(TAIL_SAMPLES, 10);
}

#[test]
fn short_samples_report_the_highest_percentile_with_ten_beyond() {
    let values: Vec<u64> = (1..=500).collect();
    // p99 would be rank 495 with five beyond; the rule lowers it to 490.
    assert_eq!(percentile(&values, 990), Some(490));
    assert_eq!(percentile(&values, 500), Some(250));
    // Ten or fewer samples: no percentile qualifies, the minimum stands in.
    assert_eq!(percentile(&[7, 8, 9], 990), Some(7));
    assert_eq!(percentile(&[], 500), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from Python's statistics.quantiles(data, n=4).
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    assert_eq!(quartiles(&[0.5, 0.25, 4.0, 1.0, 2.0]), Some([0.375, 1.0, 3.0]));
    assert_eq!(quartiles(&[]), None);
}

#[test]
fn spread_is_the_interquartile_range_over_the_median() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(median(&ten), 5.5);
    assert_eq!(spread(&ten), (8.25 - 2.75) / 5.5);
    assert_eq!(spread(&[4.0; 7]), 0.0);
}

#[test]
fn growth_ratio_compares_last_and_first_tenths() {
    let values: Vec<u64> = (1..=100).collect();
    // First tenth 1..=10 (mean 5.5), last tenth 91..=100 (mean 95.5).
    assert_eq!(growth_ratio(&values), 95.5 / 5.5);
    assert_eq!(growth_ratio(&[3, 3, 3]), 1.0);
    // Fewer than ten calls: each tenth is one call.
    assert_eq!(growth_ratio(&[2, 5, 8]), 4.0);
    assert_eq!(growth_ratio(&[]), 0.0);
    assert_eq!(growth_ratio(&[0, 5]), 0.0);
}

fn window(slice: usize, busy_ns: u64, samples: usize) -> WindowRef {
    WindowRef { key: (0, slice), busy_ns, samples }
}

#[test]
fn fast_windows_score_each_window_against_the_same_slice() {
    // Slice 0 is heavy work, slice 1 light; each is replayed three times.
    // Raw times would pick slice 1 only. Scored against its own slice,
    // the heavy slice's fast replay (80 of a median 100) wins.
    let windows = [
        window(0, 100, 10),
        window(1, 10, 10),
        window(0, 80, 10),
        window(1, 10, 10),
        window(0, 120, 10),
        window(1, 9, 10),
    ];
    assert_eq!(fast_windows(&windows, 0.1, 0), vec![2]);
    // A share of one half takes the three best scores; ties keep input order.
    assert_eq!(fast_windows(&windows, 0.5, 0), vec![2, 5, 0]);
}

#[test]
fn fast_windows_widen_to_the_sample_floor() {
    let windows: Vec<WindowRef> = (0..20).map(|i| window(0, 100 + i, 100)).collect();
    // 5% of 20 is one window; 250 samples need three.
    assert_eq!(fast_windows(&windows, 0.05, 250), vec![0, 1, 2]);
    // A floor above everything takes every window.
    assert_eq!(fast_windows(&windows, 0.05, 1 << 20).len(), 20);
    assert!(fast_windows(&[], 0.05, 1000).is_empty());
}
