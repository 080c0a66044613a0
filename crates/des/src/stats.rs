//! Statistics helpers used across the workspace.
//!
//! Calibration (paper §4.2) reports the *relative mean absolute error* of job
//! walltimes per site and the *geometric mean* of that error across sites; the
//! scalability analysis (Fig. 4) needs scaling-exponent fits; the monitoring
//! layer needs distribution summaries. All of that lives here so that the
//! numerical definitions are shared by the library, the tests and the
//! benchmark harness.

use serde::Serialize;

/// Full distribution summary of a sample.
/// Format: the distribution objects of `results.json`, written only.
#[derive(Debug, Clone, PartialEq, Serialize)]
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
    ///
    /// The order statistics come from selection, not a sort: each percentile
    /// rank is selected in the part the previous selection left unordered,
    /// and the rank just above one already read is the minimum of what lies
    /// right of it. The values are those of sorting and reading
    /// [`percentile_sorted`]; samples that compare equal are the same value
    /// (bar the sign of zero), so which of them is picked does not matter.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let (&first, rest) = values.split_first()?;
        // Welford's streaming update, in input order: these are the exact
        // bits every `MetricsReport` fingerprint was recorded with. The
        // extremes ride along; the update's division chain sets the pace.
        let (mut mean, mut m2) = (0.0, 0.0);
        let (mut min, mut max, mut nan) = (first, first, false);
        for (i, &x) in values.iter().enumerate() {
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
            min = if x < min { x } else { min };
            max = if x > max { x } else { max };
            nan |= x.is_nan();
        }
        if rest.is_empty() {
            return Some(Summary {
                count: 1,
                mean,
                std_dev: 0.0,
                min,
                p50: first,
                p95: first,
                p99: first,
                max,
            });
        }
        assert!(!nan, "NaN in sample");
        let mut ranked = OrderStatistics {
            values: values.to_vec(),
            settled: 0,
        };
        let mut percentile = |pct: f64| {
            let (lo, hi, frac) = rank(values.len(), pct);
            interpolate(ranked.at(lo), ranked.at(hi), frac)
        };
        Some(Summary {
            count: values.len(),
            mean,
            std_dev: (m2 / values.len() as f64).sqrt(),
            min,
            p50: percentile(50.0),
            p95: percentile(95.0),
            p99: percentile(99.0),
            max,
        })
    }
}

/// Order statistics of a NaN-free sample, read at non-decreasing ranks.
struct OrderStatistics {
    /// The sample, partly ordered: `values[r]` is the rank-`r` value for
    /// every rank read so far, and nothing from `settled` on is smaller.
    values: Vec<f64>,
    /// One past the highest rank read so far.
    settled: usize,
}

impl OrderStatistics {
    /// The rank-`rank` value. A rank below `settled` must be one read before
    /// (reading percentiles in increasing order guarantees it).
    fn at(&mut self, rank: usize) -> f64 {
        let rest = &mut self.values[self.settled..];
        if rank == self.settled {
            let min = (1..rest.len()).fold(0, |m, i| if rest[i] < rest[m] { i } else { m });
            rest.swap(0, min);
        } else if rank > self.settled {
            rest.select_nth_unstable_by(rank - self.settled, |a, b| {
                a.partial_cmp(b).expect("NaN-free sample")
            });
        }
        self.settled = self.settled.max(rank + 1);
        self.values[rank]
    }
}

/// Where percentile `pct` falls in a sorted sample of `n > 1` values: the
/// rank below, the rank above and the weight of the one above.
fn rank(n: usize, pct: f64) -> (usize, usize, f64) {
    let rank = pct / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    (lo, rank.ceil() as usize, rank - lo as f64)
}

fn interpolate(lo: f64, hi: f64, frac: f64) -> f64 {
    lo * (1.0 - frac) + hi * frac
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
    let (lo, hi, frac) = rank(sorted.len(), pct);
    interpolate(sorted[lo], sorted[hi], frac)
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

/// Relative mean absolute error: `mean(|p - t| / |t|)`, the per-site metric of
/// Fig. 3. Ground-truth values of zero are skipped.
pub fn relative_mae(predicted: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(predicted.len(), truth.len(), "length mismatch");
    let mut mae = RelativeMae::default();
    for (&p, &t) in predicted.iter().zip(truth) {
        mae.add(p, t);
    }
    mae.value()
}

/// [`relative_mae`] accumulated one `(predicted, truth)` pair at a time, for
/// callers that meet their pairs in one pass rather than in two slices.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RelativeMae {
    total: f64,
    terms: usize,
}

impl RelativeMae {
    /// Adds one pair (skipped when `truth` is zero).
    pub fn add(&mut self, predicted: f64, truth: f64) {
        if truth.abs() > f64::EPSILON {
            self.total += (predicted - truth).abs() / truth.abs();
            self.terms += 1;
        }
    }

    /// The error over the pairs added so far (0 when none counted).
    pub fn value(&self) -> f64 {
        if self.terms == 0 {
            0.0
        } else {
            self.total / self.terms as f64
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_moments_match_direct_computation() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[3.0]).unwrap().std_dev, 0.0);
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
    fn relative_mae_basics() {
        let truth = [10.0, 20.0, 40.0];
        let pred = [12.0, 18.0, 40.0];
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
}
