//! The calibration objective: per-site relative walltime error.
//!
//! "We perform site specific calibration by feeding historical jobs into the
//! simulator and measuring the discrepancy between ground truth execution
//! time and simulated execution time" (§4.2). The objective below does
//! exactly that for one site: run the simulator on the site's historical
//! jobs with the historical-PanDA dispatch policy and a candidate speed
//! multiplier, then report the relative mean absolute error of the simulated
//! walltime against the trace's ground truth.
//!
//! The objective runs nothing itself. [`SiteWalltimeObjective::scenario`]
//! turns a candidate into a [`ScenarioSpec`] over the site's `Arc`-shared
//! base (only the small platform spec is cloned per candidate), and
//! [`SiteWalltimeObjective::error`] reads the site's error off the finished
//! run, so a caller evaluates any number of candidates — of any number of
//! sites — with one [`ScenarioEngine::evaluate_batch`].
//!
//! [`ScenarioEngine::evaluate_batch`]: cgsim_core::scenario::ScenarioEngine::evaluate_batch

use std::sync::Arc;

use cgsim_core::scenario::{ScenarioBase, ScenarioSpec};
use cgsim_core::{ExecutionConfig, SimulationResults};
use cgsim_monitor::MonitoringConfig;
use cgsim_platform::PlatformSpec;
use cgsim_workload::Trace;

/// Objective function for calibrating one site's CPU speed multiplier.
pub struct SiteWalltimeObjective {
    /// Shared platform spec + filtered site trace (content-hashed once).
    base: Arc<ScenarioBase>,
    site_name: String,
    execution: ExecutionConfig,
}

impl SiteWalltimeObjective {
    /// Builds the objective for `site_name`, filtering the calibration trace
    /// down to the jobs historically executed at that site.
    pub fn new(platform_spec: &PlatformSpec, trace: &Trace, site_name: &str) -> Self {
        let jobs = trace.jobs_for_site(site_name).cloned().collect::<Vec<_>>();
        let mut execution = ExecutionConfig::with_policy("historical-panda");
        // Calibration compares execution time only, so no monitoring rows.
        execution.monitoring = MonitoringConfig::disabled();
        let site_trace = Trace {
            jobs,
            hidden_site_multipliers: trace.hidden_site_multipliers.clone(),
        };
        SiteWalltimeObjective {
            base: ScenarioBase::shared(platform_spec.clone(), site_trace),
            site_name: site_name.to_string(),
            execution,
        }
    }

    /// Number of historical jobs available for this site.
    pub fn job_count(&self) -> usize {
        self.base.trace().len()
    }

    /// The scenario that runs the site's jobs with `multiplier` as its speed.
    /// The multiplier is the only platform delta: `with_platform` re-hashes
    /// the (small) spec but reuses the shared trace and its hash.
    pub fn scenario(&self, multiplier: f64) -> ScenarioSpec {
        let mut platform_spec = (**self.base.platform()).clone();
        if let Some(site) = platform_spec
            .sites
            .iter_mut()
            .find(|s| s.name == self.site_name)
        {
            site.speed_multiplier = multiplier.max(1e-6);
        }
        let base = Arc::new(self.base.with_platform(platform_spec));
        ScenarioSpec::new(base, self.execution.clone())
    }

    /// The site's relative walltime MAE in `results` (a run of one of this
    /// objective's scenarios); 0 when the site ran no jobs.
    pub fn error(&self, results: &SimulationResults) -> f64 {
        results
            .walltime_error_by_site()
            .get(&self.site_name)
            .map(|e| e.overall)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_core::scenario::ScenarioEngine;
    use cgsim_platform::presets::example_platform;
    use cgsim_workload::{TraceConfig, TraceGenerator};

    fn setup() -> (PlatformSpec, Trace) {
        let spec = example_platform();
        let mut cfg = TraceConfig::with_jobs(200, 33);
        // Keep staging cheap so walltime is compute-dominated (as in ATLAS).
        cfg.mean_file_bytes = 1e8;
        let trace = TraceGenerator::new(cfg).generate(&spec);
        (spec, trace)
    }

    /// The objective's error at each multiplier, evaluated as one batch.
    fn errors(obj: &SiteWalltimeObjective, multipliers: &[f64]) -> Vec<f64> {
        let scenarios: Vec<ScenarioSpec> = multipliers.iter().map(|&m| obj.scenario(m)).collect();
        ScenarioEngine::new()
            .evaluate_batch(&scenarios)
            .into_iter()
            .map(|o| obj.error(&o.expect("calibration scenario runs").results))
            .collect()
    }

    #[test]
    fn objective_counts_the_sites_jobs() {
        let (spec, trace) = setup();
        let obj = SiteWalltimeObjective::new(&spec, &trace, "BNL");
        assert_eq!(obj.job_count(), trace.jobs_for_site("BNL").count());
        assert!(obj.job_count() > 0);
    }

    #[test]
    fn hidden_multiplier_minimises_the_objective() {
        let (spec, trace) = setup();
        let obj = SiteWalltimeObjective::new(&spec, &trace, "CERN");
        let hidden = trace.hidden_site_multipliers["CERN"];
        let e = errors(&obj, &[hidden, 1.0, hidden * 3.0]);
        let (at_hidden, at_nominal, far_off) = (e[0], e[1], e[2]);
        assert!(
            at_hidden < at_nominal || (hidden - 1.0).abs() < 0.1,
            "error at hidden multiplier {at_hidden} should beat nominal {at_nominal}"
        );
        assert!(at_hidden < far_off);
        // At the hidden multiplier only the generator noise remains.
        assert!(at_hidden < 0.35, "residual error too large: {at_hidden}");
    }

    #[test]
    fn unknown_site_yields_zero_objective() {
        let (spec, trace) = setup();
        let obj = SiteWalltimeObjective::new(&spec, &trace, "NOT-A-SITE");
        assert_eq!(obj.job_count(), 0);
        assert_eq!(errors(&obj, &[1.0]), [0.0]);
    }

    #[test]
    fn only_the_candidate_site_speed_changes() {
        let (spec, trace) = setup();
        let obj = SiteWalltimeObjective::new(&spec, &trace, "CERN");
        let scenario = obj.scenario(1.25);
        for (site, nominal) in scenario.base.platform().sites.iter().zip(&spec.sites) {
            let expected = if site.name == "CERN" {
                1.25
            } else {
                nominal.speed_multiplier
            };
            assert_eq!(site.speed_multiplier, expected);
        }
        assert!(Arc::ptr_eq(scenario.base.trace(), obj.base.trace()));
    }
}
