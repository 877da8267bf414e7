//! Pure helpers: medians, quartiles, percentiles, the metric-name
//! charset, and the one-line JSON result. No I/O, no clocks.

use std::fmt::Write as _;

/// Median of `values` (the mean of the two middle values for an even
/// count). Panics on an empty slice: a metric with no samples is a bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Cut points dividing `values` into `n` groups, by the same rule as
/// Python's `statistics.quantiles(values, n=n)` (the default
/// "exclusive" method), so spreads computed here and by a script over
/// the printed results agree.
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    assert!(n >= 1, "quantiles need n >= 1");
    assert!(!values.is_empty(), "quantiles of no samples");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return vec![data[0]; n - 1];
    }
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
        })
        .collect()
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread a metric's bound has to cover.
pub fn iqr_share(values: &[f64]) -> f64 {
    let q = quantiles(values, 4);
    let med = median(values);
    if med == 0.0 {
        return f64::INFINITY;
    }
    (q[2] - q[0]) / med.abs()
}

/// Nearest-rank percentile (`p` in 0..=1) of an ascending slice.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a valid unit: 1 to 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// Format a float with every digit it has (shortest round-trip form).
/// Non-finite values have no JSON form and indicate a bug upstream.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {"<name>": {"value": …, "unit": "…"}, …}}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let mut s = String::new();
    write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    )
    .expect("writing to a String cannot fail");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} for {name}");
        if i > 0 {
            s.push_str(", ");
        }
        write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&v, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quantiles(&[2.0, 1.0], 4), vec![0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(
            quantiles(&[5.0, 1.0, 4.0, 2.0, 3.0], 4),
            vec![1.5, 3.0, 4.5]
        );
        assert_eq!(quantiles(&[9.0], 4), vec![9.0, 9.0, 9.0]);
    }

    #[test]
    fn iqr_share_is_relative_to_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0, 2.0]), 0.0);
        assert!(iqr_share(&[0.0, 0.0]).is_infinite());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 0.999), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[42u64], 0.99), 42);
    }

    #[test]
    fn name_charset() {
        assert!(valid_name("commits_per_s"));
        assert!(valid_name("sim.step_ns_p999"));
        assert!(valid_name("bank_1node"));
        assert!(valid_name("9lives-ok"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn unit_charset() {
        for u in ["ms", "s", "1/s", "count", "MB", "ns", "ratio", "%"] {
            assert!(valid_unit(u), "{u}");
        }
        assert!(!valid_unit(""));
        assert!(!valid_unit("per second"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn result_json_shape() {
        let line = result_json(
            true,
            1000,
            0,
            &[
                ("latency_ms".into(), 1.2034, "ms".into()),
                ("setup_s".into(), 0.8127, "s".into()),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert_eq!(
            result_json(false, 1, 1, &[]),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}"
        );
    }

    #[test]
    #[should_panic(expected = "not a finite number")]
    fn result_json_rejects_nan() {
        result_json(true, 1, 0, &[("x".into(), f64::NAN, "s".into())]);
    }
}
