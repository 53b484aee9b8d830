//! Order statistics over wall-clock samples.

/// Sort ascending (samples are finite by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `v` (mean of the middle pair for an even count); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail of a timing sample: the highest percentile that still has at
/// least ten samples beyond it, as `(percentile, value)`. `None` below 20
/// samples, where that percentile would sit under the median.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 20 {
        return None;
    }
    let rank = n - 10;
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(v, n=4)` gives (the
/// rule the benchmark contract judges run-to-run spread by). `None` below
/// four values.
pub fn rel_iqr(v: &[f64]) -> Option<f64> {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 4 {
        return None;
    }
    let q = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = (pos as f64 / 4.0 - j as f64).clamp(0.0, 1.0);
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    let med = median(&s);
    (med != 0.0).then(|| (q(3) - q(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((99.0, 990.0)));
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&s), Some((95.0, 190.0)));
        // Exactly ten samples lie beyond the chosen one.
        let s: Vec<f64> = (1..=37).map(f64::from).collect();
        let (_, v) = tail(&s).unwrap();
        assert_eq!(s.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(tail(&s[..19]), None);
    }

    #[test]
    fn rel_iqr_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let got = rel_iqr(&v).unwrap();
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(rel_iqr(&[1.0, 2.0, 3.0]), None);
    }
}
