//! Parameter sensitivity analysis (§4.2).
//!
//! "Through comprehensive sensitivity analysis, we evaluate the impact of
//! various grid configuration parameters on job execution accuracy, including
//! CPU core counts, processing speeds, memory capacities, and intra-site
//! network bandwidths. Our analysis identifies CPU core processing speed as
//! the dominant factor influencing job walltime accuracy." This module
//! reproduces that study: each parameter is scaled across a range while the
//! others stay nominal, the walltime error is measured, and the parameters
//! are ranked by the spread of error they induce. Memory capacity is left
//! out: no part of the model reads a host's memory size, so its row would
//! be zero by construction.

use std::sync::Arc;

use cgsim_core::scenario::{ScenarioBase, ScenarioEngine, ScenarioSpec};
use cgsim_core::{ExecutionConfig, SimulationResults};
use cgsim_monitor::MonitoringConfig;
use cgsim_platform::PlatformSpec;
use cgsim_workload::Trace;

/// The grid configuration parameters studied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parameter {
    /// Per-core processing speed (the calibration parameter of Fig. 3).
    CpuSpeed,
    /// CPU core count per site.
    CoreCount,
    /// Intra-site network bandwidth.
    InternalBandwidth,
}

impl Parameter {
    /// All studied parameters.
    pub fn all() -> [Parameter; 3] {
        [
            Parameter::CpuSpeed,
            Parameter::CoreCount,
            Parameter::InternalBandwidth,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Parameter::CpuSpeed => "cpu-speed",
            Parameter::CoreCount => "core-count",
            Parameter::InternalBandwidth => "internal-bandwidth",
        }
    }
}

/// Sensitivity of one parameter.
#[derive(Debug, Clone)]
pub struct ParameterSensitivity {
    /// The parameter.
    pub parameter: Parameter,
    /// (scale factor, walltime error) pairs.
    pub samples: Vec<(f64, f64)>,
    /// Spread of the error across the scale range (max − min).
    pub impact: f64,
}

/// Full sensitivity report.
#[derive(Debug, Clone)]
pub struct SensitivityReport {
    /// Per-parameter results, sorted by decreasing impact.
    pub parameters: Vec<ParameterSensitivity>,
}

impl SensitivityReport {
    /// The parameter with the largest impact on walltime error.
    pub fn dominant(&self) -> Parameter {
        self.parameters[0].parameter
    }

    /// CSV rendering.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("parameter,scale,error\n");
        for p in &self.parameters {
            for (scale, error) in &p.samples {
                out.push_str(&format!("{},{scale},{error}\n", p.parameter.label()));
            }
        }
        out
    }
}

/// The sensitivity study driver.
#[derive(Debug, Clone)]
pub struct SensitivityStudy {
    /// Scale factors applied to each parameter.
    pub scales: Vec<f64>,
    /// Maximum number of trace jobs to use per evaluation (keeps the study fast).
    pub max_jobs: usize,
}

impl Default for SensitivityStudy {
    fn default() -> Self {
        SensitivityStudy {
            scales: vec![0.5, 0.75, 1.0, 1.5, 2.0],
            max_jobs: 300,
        }
    }
}

impl SensitivityStudy {
    fn scaled_spec(spec: &PlatformSpec, parameter: Parameter, scale: f64) -> PlatformSpec {
        let mut scaled = spec.clone();
        for site in &mut scaled.sites {
            match parameter {
                Parameter::CpuSpeed => site.speed_multiplier *= scale,
                Parameter::CoreCount => {
                    for host in &mut site.hosts {
                        host.cores = ((host.cores as f64 * scale).round() as u32).max(1);
                    }
                }
                Parameter::InternalBandwidth => {
                    site.internal_bandwidth_gbps = (site.internal_bandwidth_gbps * scale).max(0.01)
                }
            }
        }
        scaled
    }

    /// Mean of the per-site walltime errors of one run (0 with no sites).
    fn walltime_error(results: &SimulationResults) -> f64 {
        let per_site = results.walltime_error_by_site();
        if per_site.is_empty() {
            return 0.0;
        }
        let errors: Vec<f64> = per_site.values().map(|e| e.overall).collect();
        cgsim_des::stats::mean(&errors)
    }

    /// Runs the study: every parameter × scale point is one scenario over a
    /// shared base holding the first `max_jobs` jobs, and the whole grid is
    /// evaluated as one [`ScenarioEngine::evaluate_batch`].
    pub fn run(&self, spec: &PlatformSpec, trace: &Trace) -> SensitivityReport {
        let subset = Trace {
            jobs: trace.jobs.iter().take(self.max_jobs).cloned().collect(),
            hidden_site_multipliers: trace.hidden_site_multipliers.clone(),
        };
        let base = ScenarioBase::new(spec.clone(), subset);
        let mut execution = ExecutionConfig::with_policy("historical-panda");
        execution.monitoring = MonitoringConfig::disabled();
        let scenarios: Vec<ScenarioSpec> = Parameter::all()
            .into_iter()
            .flat_map(|parameter| self.scales.iter().map(move |&scale| (parameter, scale)))
            .map(|(parameter, scale)| {
                let scaled = base.with_platform(Self::scaled_spec(spec, parameter, scale));
                ScenarioSpec::new(Arc::new(scaled), execution.clone())
            })
            .collect();
        let mut errors = ScenarioEngine::new()
            .evaluate_batch(&scenarios)
            .into_iter()
            .map(|outcome| {
                Self::walltime_error(&outcome.expect("sensitivity simulation runs").results)
            });

        let mut parameters: Vec<ParameterSensitivity> = Parameter::all()
            .into_iter()
            .map(|parameter| {
                let samples: Vec<(f64, f64)> = self
                    .scales
                    .iter()
                    .map(|&scale| (scale, errors.next().expect("one outcome per scale")))
                    .collect();
                let min = samples
                    .iter()
                    .map(|&(_, e)| e)
                    .fold(f64::INFINITY, f64::min);
                let max = samples.iter().map(|&(_, e)| e).fold(0.0f64, f64::max);
                ParameterSensitivity {
                    parameter,
                    samples,
                    impact: max - min,
                }
            })
            .collect();
        parameters.sort_by(|a, b| b.impact.partial_cmp(&a.impact).expect("impacts are finite"));
        SensitivityReport { parameters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_platform::presets::example_platform;
    use cgsim_workload::{TraceConfig, TraceGenerator};

    #[test]
    fn cpu_speed_is_the_dominant_parameter() {
        let spec = example_platform();
        let mut cfg = TraceConfig::with_jobs(150, 77);
        cfg.mean_file_bytes = 1e8;
        let trace = TraceGenerator::new(cfg).generate(&spec);
        let study = SensitivityStudy {
            scales: vec![0.5, 1.0, 2.0],
            max_jobs: 150,
        };
        let report = study.run(&spec, &trace);
        assert_eq!(report.parameters.len(), 3);
        assert_eq!(report.dominant(), Parameter::CpuSpeed);
        let csv = report.to_csv();
        assert!(csv.contains("cpu-speed"));
        assert!(csv.lines().count() > 4);
    }

    #[test]
    fn parameter_labels_are_stable() {
        assert_eq!(
            Parameter::all().map(Parameter::label),
            ["cpu-speed", "core-count", "internal-bandwidth"]
        );
    }
}
