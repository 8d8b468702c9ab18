//! Order statistics used for every reported figure: medians, quartiles,
//! the tail percentile that still has ten samples beyond it, and geometric
//! means.

/// Sorted copy of `xs` (NaN-free input assumed: every sample is a duration,
/// a size or a rate).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples for an even count.
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed exactly like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// spreads printed here match the ones an outside script computes from the
/// same values. `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Unclamped, as in Python: a clamped `j` extrapolates.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (the run-to-run spread
/// every bound in `BENCHMARK.json` is compared against).
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The highest percentile that still has at least ten samples beyond it:
/// `(percentile, value)`. With `n` samples that is the sample at sorted
/// index `n - 11`, reported as the share of samples at or below it. `None`
/// below eleven samples, where no such percentile exists.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 11 {
        return None;
    }
    let i = n - 11;
    Some((100.0 * (i + 1) as f64 / n as f64, v[i]))
}

/// Geometric mean of strictly positive values; `None` if any value is not
/// positive or the slice is empty.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs).unwrap();
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert!(close(q1, 1.5) && close(q3, 4.5), "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!(close(q1, 0.75) && close(q3, 2.25), "{q1} {q3}");
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(spread(&xs).unwrap(), (8.25 - 2.75) / 5.5));
        assert!(close(spread(&[2.0, 2.0, 2.0]).unwrap(), 0.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // Ten samples: no percentile has ten beyond it.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        // Eleven samples: the minimum is the only one with ten beyond.
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, v) = tail(&eleven).unwrap();
        assert!(close(v, 1.0) && close(p, 100.0 / 11.0));
        // A hundred samples: p90 (the 90th value) has exactly ten beyond.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (p, v) = tail(&hundred).unwrap();
        assert!(close(v, 90.0) && close(p, 90.0));
    }

    #[test]
    fn geomean_basic_and_rejects_nonpositive() {
        assert!(close(geomean(&[1.0, 100.0]).unwrap(), 10.0));
        assert!(close(geomean(&[2.0, 8.0, 4.0]).unwrap(), 4.0));
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
