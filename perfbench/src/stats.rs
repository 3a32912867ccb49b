//! Order statistics for repeated timings.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads this benchmark prints are
//! the ones a reader recomputes from its raw values.

/// The values sorted ascending (NaNs are a bug upstream and sort last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them. A single value is
/// its own quartiles; an empty slice gives zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let only = data.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Interquartile distance as a share of the median (0 when the median is).
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The highest whole percentile that still has at least ten samples
/// beyond it, as `(percentile, value, sample count)` with a nearest-rank
/// value. `None` up to 20 samples, where that percentile would not
/// exceed the median.
pub fn tail(values: &[f64]) -> Option<(u32, f64, usize)> {
    let n = values.len();
    if n <= 20 {
        return None;
    }
    let percentile = (100 * (n - 10) / n) as u32;
    // Nearest rank: the smallest rank r with r >= percentile * n / 100.
    let rank = (percentile as usize * n).div_ceil(100).max(1);
    Some((percentile, sorted(values)[rank - 1], n))
}

/// One timing summarised the way every report line prints it: median,
/// then the tail percentile when there are enough samples, the sample
/// count and the interquartile spread relative to the median.
pub fn describe(values: &[f64], unit: &str) -> String {
    let mut text = format!("p50={:.4} {unit}", median(values));
    if let Some((percentile, value, _)) = tail(values) {
        text.push_str(&format!(" p{percentile}={value:.4} {unit}"));
    }
    text.push_str(&format!(
        " n={} iqr/p50={:.3}",
        values.len(),
        relative_spread(values)
    ));
    text
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
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!((relative_spread(&values) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), Some((90, 90.0, 100)));
        let values: Vec<f64> = (1..=50).map(f64::from).collect();
        let (percentile, value, count) = tail(&values).unwrap();
        assert_eq!((percentile, count), (80, 50));
        assert_eq!(values.iter().filter(|&&v| v > value).count(), 10);
        let values: Vec<f64> = (1..=37).map(f64::from).collect();
        let (percentile, value, _) = tail(&values).unwrap();
        assert_eq!(percentile, 72);
        assert!(values.iter().filter(|&&v| v > value).count() >= 10);
        assert_eq!(tail(&[1.0; 20]), None);
    }

    #[test]
    fn describe_names_median_tail_and_count() {
        let values: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(
            describe(&values, "ms"),
            "p50=15.5000 ms p66=20.0000 ms n=30 iqr/p50=1.000"
        );
        assert_eq!(describe(&[2.0], "s"), "p50=2.0000 s n=1 iqr/p50=0.000");
    }
}
