//! Order statistics: the percentile picker, medians, and
//! the spread figure runs are compared by.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile was asked of a sample too small to support it.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewSamples {
    /// The percentile asked for.
    pub percentile: f64,
    /// Samples offered.
    pub samples: usize,
    /// Samples beyond the percentile's rank.
    pub beyond: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} of {} samples has {} beyond it; {MIN_BEYOND} are required",
            self.percentile, self.samples, self.beyond
        )
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of a non-empty sample, whatever its size.
/// Only the batch workload uses this directly (a 20 s run holds some
/// 150 invocations, too few for [`percentile`] to accept p95).
pub fn percentile_unchecked(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Nearest-rank percentile, refused unless at least [`MIN_BEYOND`]
/// samples lie beyond it — a tail read off fewer is one slow request,
/// not a distribution.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    let beyond = values.len().saturating_sub(rank);
    if values.is_empty() || (p > 50.0 && beyond < MIN_BEYOND) {
        return Err(TooFewSamples {
            percentile: p,
            samples: values.len(),
            beyond,
        });
    }
    Ok(percentile_unchecked(values, p))
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Spread of a sample as a share of its median: the distance between
/// the first and third quartile (Python's `statistics.quantiles(v,
/// n=4)`, exclusive method) for four or more values, the full range
/// for fewer.
pub fn spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let m = median(&v);
    if v.len() < 2 || m == 0.0 {
        return 0.0;
    }
    if v.len() < 4 {
        return (v[v.len() - 1] - v[0]) / m.abs();
    }
    let quartile = |q: f64| {
        let pos = q * (v.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    (quartile(0.75) - quartile(0.25)) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        let values: Vec<f64> = (1..=199).map(f64::from).collect();
        // p95 of 199: rank 190, nine beyond.
        let err = percentile(&values, 95.0).unwrap_err();
        assert_eq!((err.samples, err.beyond), (199, 9));
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&values, 95.0), Ok(190.0));
        assert_eq!(percentile(&values, 50.0), Ok(100.0));
        // The median needs no tail.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Ok(2.0));
        assert!(percentile(&[], 50.0).is_err());
        assert_eq!(percentile_unchecked(&[3.0, 1.0, 2.0], 95.0), 3.0);
    }

    #[test]
    fn median_of_rounds_and_spread() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Fewer than four values: full range over the median.
        assert!((spread(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4, 12].
        assert!((spread(&[1.0, 2.0, 4.0, 8.0, 16.0]) - 10.5 / 4.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
    }
}
