//! Five-number summaries (min / quartiles / max) and simple descriptive
//! statistics.
//!
//! Tables 2 and 3 of the paper report `min, 25%, 50%, 75%, max` rows.
//! Quartiles use linear interpolation between order statistics (the
//! "type 7" estimator of Hyndman & Fan, the default of R and NumPy);
//! the choice is documented here because different estimators shift
//! quartiles of small samples noticeably.

/// A five-number summary plus the mean.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FiveNumber {
    /// Minimum.
    pub min: f64,
    /// First quartile (25 %).
    pub q1: f64,
    /// Median (50 %).
    pub median: f64,
    /// Third quartile (75 %).
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl FiveNumber {
    /// Render as the paper's row shape: `min q1 median q3 max`.
    pub fn row(&self) -> [f64; 5] {
        [self.min, self.q1, self.median, self.q3, self.max]
    }
}

/// Type-7 quantile of sorted data. `p` in `[0, 1]`.
///
/// # Panics
/// If `sorted` is empty or `p` is outside `[0, 1]`.
pub(crate) fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty data");
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let h = p * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = h - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Compute a [`FiveNumber`] summary. Returns `None` for empty input or
/// if any value is NaN.
pub fn five_number(values: &[f64]) -> Option<FiveNumber> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| a.total_cmp(b));
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    Some(FiveNumber {
        min: sorted[0],
        q1: quantile_sorted(&sorted, 0.25),
        median: quantile_sorted(&sorted, 0.50),
        q3: quantile_sorted(&sorted, 0.75),
        max: *sorted.last().expect("non-empty"),
        mean,
    })
}

/// Sample Pearson correlation; `None` when undefined (fewer than two
/// points or zero variance).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx == 0.0 || vy == 0.0 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

/// Spearman rank correlation (average ranks for ties); `None` when
/// undefined.
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let rx = ranks(xs);
    let ry = ranks(ys);
    pearson(&rx, &ry)
}

fn ranks(values: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = avg_rank;
        }
        i = j + 1;
    }
    out
}

/// Ordinary-least-squares fit `y = slope·x + intercept` — the trend
/// lines of Figs. 7a and 9. `None` when undefined.
pub fn ols(xs: &[f64], ys: &[f64]) -> Option<(f64, f64)> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        num += (x - mx) * (y - my);
        den += (x - mx) * (x - mx);
    }
    if den == 0.0 {
        return None;
    }
    let slope = num / den;
    Some((slope, my - slope * mx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_number_known_values() {
        // 0..=4: quartiles at 1, 2, 3 under type-7.
        let s = five_number(&[4.0, 0.0, 2.0, 1.0, 3.0]).unwrap();
        assert_eq!(s.min, 0.0);
        assert_eq!(s.q1, 1.0);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.q3, 3.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.0);
    }

    #[test]
    fn quantile_interpolates() {
        let sorted = [0.0, 10.0];
        assert_eq!(quantile_sorted(&sorted, 0.25), 2.5);
        assert_eq!(quantile_sorted(&sorted, 0.5), 5.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 10.0);
    }

    #[test]
    fn singleton_summary() {
        let s = five_number(&[7.0]).unwrap();
        assert_eq!(s.row(), [7.0; 5]);
    }

    #[test]
    fn empty_and_nan_rejected() {
        assert!(five_number(&[]).is_none());
        assert!(five_number(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn pearson_perfect_correlations() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|v| -v).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
        assert!(pearson(&xs, &[1.0, 1.0, 1.0, 1.0]).is_none());
    }

    #[test]
    fn spearman_is_rank_based() {
        // Monotone but non-linear → Spearman 1, Pearson < 1.
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, 10.0, 100.0, 1000.0];
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        assert!(pearson(&xs, &ys).unwrap() < 1.0);
    }

    #[test]
    fn spearman_handles_ties() {
        let xs = [1.0, 2.0, 2.0, 3.0];
        let ys = [1.0, 2.0, 2.0, 3.0];
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ols_recovers_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x + 1.0).collect();
        let (slope, intercept) = ols(&xs, &ys).unwrap();
        assert!((slope - 2.5).abs() < 1e-12);
        assert!((intercept - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_monotone_in_p() {
        let data: Vec<f64> = (0..37).map(|i| ((i * 29) % 17) as f64).collect();
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = quantile_sorted(&sorted, i as f64 / 20.0);
            assert!(q >= last);
            last = q;
        }
    }
}
