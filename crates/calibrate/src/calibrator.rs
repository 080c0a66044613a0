//! Per-site calibration orchestration (Fig. 3).

use cgsim_core::scenario::{ScenarioEngine, ScenarioSpec};
use cgsim_des::rng::Rng;
use cgsim_des::stats::geometric_mean;
use cgsim_platform::PlatformSpec;
use cgsim_workload::Trace;

use crate::objective::SiteWalltimeObjective;

/// Calibration outcome for one site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteCalibration {
    /// Site name.
    pub site: String,
    /// Number of historical jobs used.
    pub jobs: usize,
    /// Relative walltime MAE with the nominal (uncalibrated) speed.
    pub nominal_error: f64,
    /// Relative walltime MAE with the calibrated speed.
    pub calibrated_error: f64,
    /// The speed multiplier found by the search (1.0 if none beat nominal).
    pub best_multiplier: f64,
    /// Candidate multipliers evaluated for this site (the nominal run aside).
    pub evaluations: usize,
}

/// Grid-wide calibration report (the data behind Fig. 3).
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// Per-site calibrations, sorted by site name.
    pub sites: Vec<SiteCalibration>,
    /// Geometric mean of the per-site error before calibration.
    pub geometric_mean_before: f64,
    /// Geometric mean of the per-site error after calibration.
    pub geometric_mean_after: f64,
    /// The platform specification with calibrated speed multipliers applied.
    pub calibrated_spec: PlatformSpec,
}

impl CalibrationReport {
    /// How much the geometric-mean error improved (before / after).
    pub fn improvement_factor(&self) -> f64 {
        if self.geometric_mean_after <= 0.0 {
            f64::INFINITY
        } else {
            self.geometric_mean_before / self.geometric_mean_after
        }
    }

    /// CSV rendering of the per-site table (the Fig. 3 data series).
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("site,jobs,nominal_error,calibrated_error,best_multiplier,evaluations\n");
        for s in &self.sites {
            out.push_str(&format!(
                "{},{},{:.4},{:.4},{:.4},{}\n",
                s.site,
                s.jobs,
                s.nominal_error,
                s.calibrated_error,
                s.best_multiplier,
                s.evaluations
            ));
        }
        out
    }
}

/// Per-site calibration driver: random search over each site's speed
/// multiplier, the method behind the paper's Fig. 3.
#[derive(Debug, Clone)]
pub struct Calibrator {
    /// Candidate multipliers drawn per site.
    pub budget_per_site: usize,
    /// Search bounds for the speed multiplier.
    pub multiplier_bounds: (f64, f64),
    /// RNG seed (forked per site).
    pub seed: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            budget_per_site: 30,
            multiplier_bounds: (0.2, 3.0),
            seed: 0xCA11B,
        }
    }
}

impl Calibrator {
    /// Calibrates every site of `spec` that has historical jobs in `trace`.
    ///
    /// Site `i` (counting only sites with jobs) draws `budget_per_site`
    /// multipliers uniformly within the bounds from `Rng::new(seed + i)`.
    /// Every site's nominal run and all its candidates are evaluated as one
    /// [`ScenarioEngine::evaluate_batch`]; the first strict minimum in draw
    /// order wins, and is kept only if it is no worse than nominal (so
    /// calibration never regresses a site).
    pub fn calibrate(&self, spec: &PlatformSpec, trace: &Trace) -> CalibrationReport {
        let (lo, hi) = self.multiplier_bounds;
        let searches: Vec<(&str, SiteWalltimeObjective, Vec<f64>)> = spec
            .sites
            .iter()
            .map(|s| s.name.as_str())
            .filter(|name| trace.jobs_for_site(name).next().is_some())
            .enumerate()
            .map(|(i, name)| {
                let mut rng = Rng::new(self.seed.wrapping_add(i as u64));
                let draws = (0..self.budget_per_site)
                    .map(|_| rng.uniform_range(lo, hi))
                    .collect();
                (name, SiteWalltimeObjective::new(spec, trace, name), draws)
            })
            .collect();

        let scenarios: Vec<ScenarioSpec> = searches
            .iter()
            .flat_map(|(_, objective, draws)| {
                std::iter::once(&1.0)
                    .chain(draws)
                    .map(|&m| objective.scenario(m))
            })
            .collect();
        let mut outcomes = ScenarioEngine::new().evaluate_batch(&scenarios).into_iter();

        let mut sites: Vec<SiteCalibration> = searches
            .iter()
            .map(|(name, objective, draws)| {
                let mut errors = outcomes.by_ref().take(1 + draws.len()).map(|outcome| {
                    objective.error(
                        &outcome
                            .expect("calibration simulation is well-formed")
                            .results,
                    )
                });
                let nominal_error = errors.next().expect("the nominal run is in the batch");
                let (best, best_error) = draws.iter().zip(errors).fold(
                    (1.0, f64::INFINITY),
                    |(m, e), (&draw, error)| {
                        if error < e {
                            (draw, error)
                        } else {
                            (m, e)
                        }
                    },
                );
                let (best_multiplier, calibrated_error) = if best_error <= nominal_error {
                    (best, best_error)
                } else {
                    (1.0, nominal_error)
                };
                SiteCalibration {
                    site: name.to_string(),
                    jobs: objective.job_count(),
                    nominal_error,
                    calibrated_error,
                    best_multiplier,
                    evaluations: draws.len(),
                }
            })
            .collect();
        sites.sort_by(|a, b| a.site.cmp(&b.site));

        // Floor the per-site errors at a small epsilon so the geometric mean
        // is defined even for perfectly calibrated sites.
        let before: Vec<f64> = sites.iter().map(|s| s.nominal_error.max(1e-4)).collect();
        let after: Vec<f64> = sites.iter().map(|s| s.calibrated_error.max(1e-4)).collect();
        let (gm_before, gm_after) = if sites.is_empty() {
            (0.0, 0.0)
        } else {
            (geometric_mean(&before), geometric_mean(&after))
        };

        // Apply the calibrated multipliers to a copy of the spec.
        let mut calibrated_spec = spec.clone();
        for cal in &sites {
            if let Some(site) = calibrated_spec
                .sites
                .iter_mut()
                .find(|s| s.name == cal.site)
            {
                site.speed_multiplier = cal.best_multiplier;
            }
        }

        CalibrationReport {
            sites,
            geometric_mean_before: gm_before,
            geometric_mean_after: gm_after,
            calibrated_spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_platform::presets::example_platform;
    use cgsim_workload::{TraceConfig, TraceGenerator};

    fn setup(jobs: usize) -> (PlatformSpec, Trace) {
        let spec = example_platform();
        let mut cfg = TraceConfig::with_jobs(jobs, 55);
        cfg.mean_file_bytes = 1e8;
        let trace = TraceGenerator::new(cfg).generate(&spec);
        (spec, trace)
    }

    #[test]
    fn calibration_reduces_geometric_mean_error() {
        let (spec, trace) = setup(240);
        let calibrator = Calibrator {
            budget_per_site: 20,
            ..Calibrator::default()
        };
        let report = calibrator.calibrate(&spec, &trace);
        assert_eq!(report.sites.len(), 4);
        assert!(
            report.geometric_mean_after < report.geometric_mean_before,
            "before {} after {}",
            report.geometric_mean_before,
            report.geometric_mean_after
        );
        assert!(report.improvement_factor() > 1.5);
        for site in &report.sites {
            assert!(site.calibrated_error <= site.nominal_error + 1e-9);
            assert!(site.jobs > 0);
            assert_eq!(site.evaluations, 20);
        }
        // The calibrated spec carries the multipliers.
        assert!(report
            .calibrated_spec
            .sites
            .iter()
            .any(|s| (s.speed_multiplier - 1.0).abs() > 1e-6));
        let csv = report.to_csv();
        assert!(csv.lines().count() == 5);
        assert!(csv.contains("BNL"));
    }

    #[test]
    fn calibrated_multipliers_approach_hidden_truth() {
        let (spec, trace) = setup(400);
        let calibrator = Calibrator {
            budget_per_site: 40,
            ..Calibrator::default()
        };
        let report = calibrator.calibrate(&spec, &trace);
        let mut close = 0;
        for site in &report.sites {
            let hidden = trace.hidden_site_multipliers[&site.site];
            if (site.best_multiplier - hidden).abs() / hidden < 0.25 {
                close += 1;
            }
        }
        assert!(
            close >= 3,
            "expected most multipliers near the hidden truth; report: {:?}",
            report
                .sites
                .iter()
                .map(|s| (s.site.clone(), s.best_multiplier))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_zero_budget_reports_every_site_at_nominal() {
        let (spec, trace) = setup(120);
        let report = Calibrator {
            budget_per_site: 0,
            ..Calibrator::default()
        }
        .calibrate(&spec, &trace);
        assert_eq!(report.sites.len(), 4);
        for site in &report.sites {
            assert_eq!(site.best_multiplier, 1.0);
            assert_eq!(site.calibrated_error, site.nominal_error);
            assert_eq!(site.evaluations, 0);
        }
        assert_eq!(report.geometric_mean_after, report.geometric_mean_before);
    }

    #[test]
    fn empty_trace_produces_empty_report() {
        let spec = example_platform();
        let report = Calibrator::default().calibrate(&spec, &Trace::default());
        assert!(report.sites.is_empty());
        assert_eq!(report.geometric_mean_before, 0.0);
    }
}
