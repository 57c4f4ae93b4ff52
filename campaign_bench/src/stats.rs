//! Order statistics and the per-schedule-point cost ratio.

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, so spreads printed here
/// match the ones computed from the same runs in Python. One value is its
/// own quartiles; an empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let n = v.len();
    let q = |i: usize| {
        let m = (n + 1) * i;
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// The distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// The highest of the 90th and 99th percentiles that has at least ten
/// samples beyond it, as `(percentile, value)`; `None` below 100 samples.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p = [99u32, 90]
        .into_iter()
        .find(|&p| v.len() * (100 - p as usize) >= 1000)?;
    let rank = (v.len() * p as usize).div_ceil(100).max(1);
    Some((p, v[rank - 1]))
}

/// Instrumented cost per schedule point over plain cost per schedule
/// point. Dividing by steps, not runs, keeps the ratio honest when the
/// instrumented run stops early (a Phase II trial ends at the deadlock it
/// created while a plain run goes to completion). `None` when either side
/// did no measurable work. Times are in seconds.
pub fn per_step_ratio(
    instrumented_s: f64,
    instrumented_steps: u64,
    plain_s: f64,
    plain_steps: u64,
) -> Option<f64> {
    if instrumented_steps == 0 || plain_steps == 0 || plain_s <= 0.0 {
        return None;
    }
    Some((instrumented_s / instrumented_steps as f64) / (plain_s / plain_steps as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((90, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99, 990.0)));
    }

    #[test]
    fn per_step_ratio_ignores_where_a_run_stops() {
        let full = per_step_ratio(0.003, 1_000, 0.001, 1_000).expect("work on both sides");
        // Same per-step cost, but the trial stops after half the steps.
        let half = per_step_ratio(0.0015, 500, 0.001, 1_000).expect("work on both sides");
        assert!((full - 3.0).abs() < 1e-9, "{full}");
        assert!((half - full).abs() < 1e-9, "{half} vs {full}");
        assert_eq!(per_step_ratio(0.001, 0, 0.001, 1), None);
    }
}
