//! Statistics helpers used across the workspace.
//!
//! Calibration (paper §4.2) reports the *relative mean absolute error* of job
//! walltimes per site and the *geometric mean* of that error across sites; the
//! scalability analysis (Fig. 4) needs scaling-exponent fits; the monitoring
//! layer needs streaming summaries. All of that lives here so that the
//! numerical definitions are shared by the library, the tests and the
//! benchmark harness.

use serde::{Deserialize, Serialize};

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Maximum observation (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Full distribution summary of a sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes a summary of the sample; returns `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = values.to_vec();
        // Unstable is enough: only values enter the summary, and samples
        // that compare equal are the same value (bar the sign of zero).
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        let mut acc = OnlineStats::new();
        for &v in values {
            acc.push(v);
        }
        Some(Summary {
            count: values.len(),
            mean: acc.mean(),
            std_dev: acc.std_dev(),
            min: sorted[0],
            p50: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
            max: *sorted.last().expect("non-empty"),
        })
    }
}

/// Percentile (linear interpolation) of an already sorted, non-empty slice.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!(
        (0.0..=100.0).contains(&pct),
        "percentile must be in [0,100]"
    );
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of strictly positive values.
///
/// The paper reports the geometric mean of per-site relative MAE across the
/// 50 WLCG sites (Fig. 3).
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Mean absolute error between predictions and ground truth.
pub fn mean_absolute_error(predicted: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(predicted.len(), truth.len(), "length mismatch");
    if predicted.is_empty() {
        return 0.0;
    }
    predicted
        .iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / predicted.len() as f64
}

/// Relative mean absolute error: `mean(|p - t| / |t|)`, the per-site metric of
/// Fig. 3. Ground-truth values of zero are skipped.
pub fn relative_mae(predicted: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(predicted.len(), truth.len(), "length mismatch");
    let mut total = 0.0;
    let mut n = 0usize;
    for (p, t) in predicted.iter().zip(truth) {
        if t.abs() > f64::EPSILON {
            total += (p - t).abs() / t.abs();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Least-squares fit of `y = a + b*x`; returns `(a, b)`.
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), y.len(), "length mismatch");
    assert!(x.len() >= 2, "need at least two points");
    let n = x.len() as f64;
    let mx = mean(x);
    let my = mean(y);
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        sxx += (xi - mx) * (xi - mx);
        sxy += (xi - mx) * (yi - my);
    }
    assert!(sxx > 0.0, "x values are all identical");
    let b = sxy / sxx;
    let a = my - b * mx;
    let _ = n;
    (a, b)
}

/// Fits a power law `y = c * x^k` by regressing `ln y` on `ln x`; returns the
/// exponent `k`. Used to verify the scaling claims of Fig. 4 (sub-quadratic
/// job scaling, near-linear site scaling).
pub fn scaling_exponent(x: &[f64], y: &[f64]) -> f64 {
    let lx: Vec<f64> = x.iter().map(|&v| v.ln()).collect();
    let ly: Vec<f64> = y.iter().map(|&v| v.max(1e-300).ln()).collect();
    linear_fit(&lx, &ly).1
}

/// A fixed-width histogram over `[lo, hi)` with values outside clamped into
/// the first / last bin.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0);
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let idx = ((x - self.lo) / width).floor();
        let idx = idx.clamp(0.0, (self.bins.len() - 1) as f64) as usize;
        self.bins[idx] += 1;
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Lower edge of bin `i`.
    pub fn bin_edge(&self, i: usize) -> f64 {
        self.lo + (self.hi - self.lo) * i as f64 / self.bins.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_match_direct_computation() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut acc = OnlineStats::new();
        for &v in &values {
            acc.push(v);
        }
        assert_eq!(acc.count(), 8);
        assert!((acc.mean() - 5.0).abs() < 1e-12);
        assert!((acc.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(acc.min(), 2.0);
        assert_eq!(acc.max(), 9.0);
    }

    #[test]
    fn online_stats_merge_equals_single_pass() {
        let a_vals = [1.0, 2.0, 3.0];
        let b_vals = [10.0, 20.0, 30.0, 40.0];
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        let mut all = OnlineStats::new();
        for &v in &a_vals {
            a.push(v);
            all.push(v);
        }
        for &v in &b_vals {
            b.push(v);
            all.push(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn empty_online_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
    }

    #[test]
    fn summary_percentiles() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p95 - 95.05).abs() < 0.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geometric_mean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn geometric_mean_rejects_nonpositive() {
        geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    fn mae_and_relative_mae() {
        let truth = [10.0, 20.0, 40.0];
        let pred = [12.0, 18.0, 40.0];
        assert!((mean_absolute_error(&pred, &truth) - (2.0 + 2.0 + 0.0) / 3.0).abs() < 1e-12);
        let rel = relative_mae(&pred, &truth);
        assert!((rel - (0.2 + 0.1 + 0.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn relative_mae_skips_zero_truth() {
        let rel = relative_mae(&[1.0, 5.0], &[0.0, 5.0]);
        assert_eq!(rel, 0.0);
    }

    #[test]
    fn linear_fit_recovers_line() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 3.0 + 2.0 * v).collect();
        let (a, b) = linear_fit(&x, &y);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_exponent_detects_quadratic_and_linear() {
        let x: Vec<f64> = (1..=20).map(|i| i as f64 * 100.0).collect();
        let y_lin: Vec<f64> = x.iter().map(|&v| 3.0 * v).collect();
        let y_quad: Vec<f64> = x.iter().map(|&v| 0.01 * v * v).collect();
        assert!((scaling_exponent(&x, &y_lin) - 1.0).abs() < 1e-6);
        assert!((scaling_exponent(&x, &y_quad) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 2.5, 9.9, -5.0, 50.0] {
            h.push(x);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.counts()[0], 3); // 0.5, 1.5 and clamped -5.0
        assert_eq!(h.counts()[4], 2); // 9.9 and clamped 50.0
        assert!((h.bin_edge(1) - 2.0).abs() < 1e-12);
    }
}
