//! Order statistics for small samples.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The fastest of a sample of timings.
///
/// For timings on a shared box. The work timed is deterministic, so its
/// time has a floor, and interference only ever adds to it. On the
/// reference box a neighbour on the host slows the step to 1.2× or 1.4×
/// (no steal time is accounted, and scalar code is unaffected: it looks
/// like contention for a shared core's vector units) for stretches of 3
/// to 30 seconds that can cover nearly all of a run. Ten runs of one
/// commit then disagree by 20–30% in their median and their lower
/// quartile, by 13% in their 2nd percentile and by 7% in their fastest
/// sample; on a calm box all of these agree to 2–3%.
///
/// # Panics
/// Panics on an empty slice: every caller measures at least once.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of an empty sample");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method) gives them, so a spread computed here
/// agrees with one computed from the output files by a script. `None`
/// below two values, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 below two values
/// (no spread can be stated) or for a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1).abs() / m.abs(),
        _ => 0.0,
    }
}

/// Five-number summary plus the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile (equals `min` below two values).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (equals `max` below two values).
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarize a non-empty sample.
    pub fn of(values: &[f64]) -> Summary {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (q1, q3) = quartiles(values).unwrap_or((min, max));
        Summary {
            n: values.len(),
            min,
            q1,
            median: median(values),
            q3,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fastest_is_the_floor_whatever_share_is_disturbed() {
        assert_eq!(fastest(&[5.0]), 5.0);
        assert_eq!(fastest(&[9.0, 1.0, 2.0]), 1.0);
        // All samples but one disturbed by +35%: the estimate does not
        // move, the median does.
        let calm: Vec<f64> = (0..100).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        let mut mixed: Vec<f64> = calm.iter().map(|v| v * 1.35).collect();
        mixed[40] = calm[0];
        assert_eq!(fastest(&calm), 100.0);
        assert_eq!(fastest(&mixed), 100.0);
        assert!(median(&mixed) > 135.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
