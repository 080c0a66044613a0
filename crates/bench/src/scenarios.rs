//! Experiment scenario definitions (workloads + parameter sweeps).

use cgsim_baseline::{BaselineResults, BaselineSimulator};
use cgsim_calibrate::{CalibrationReport, Calibrator};
use cgsim_core::{ExecutionConfig, Simulation, SimulationResults};
use cgsim_monitor::MonitoringConfig;
use cgsim_platform::presets::{single_site_platform, wlcg_platform};
use cgsim_platform::PlatformSpec;
use cgsim_workload::{Trace, TraceConfig, TraceGenerator};

/// Generates the trace used by the scalability experiments: PanDA-like jobs
/// with modest input sizes so runs stay compute-dominated (as in production).
pub(crate) fn scaling_trace(platform: &PlatformSpec, jobs: usize, seed: u64) -> Trace {
    let mut cfg = TraceConfig::with_jobs(jobs, seed);
    cfg.mean_file_bytes = 5e8;
    cfg.submission_window_s = 3600.0;
    TraceGenerator::new(cfg).generate(platform)
}

/// Runs one simulation with the given policy and monitoring setting.
pub(crate) fn run_simulation(
    platform: &PlatformSpec,
    trace: Trace,
    policy: &str,
    monitoring: bool,
) -> SimulationResults {
    let mut execution = ExecutionConfig::with_policy(policy);
    execution.monitoring = if monitoring {
        MonitoringConfig::default()
    } else {
        MonitoringConfig::disabled()
    };
    Simulation::builder()
        .platform_spec(platform)
        .expect("experiment platform is valid")
        .trace(trace)
        .execution(execution)
        .run()
        .expect("experiment simulation is well-formed")
}

/// One point of the Fig. 4(a) job-scaling curve: a single site with the given
/// core count processing `jobs` jobs. Returns the full results (the caller
/// reads `wall_clock_s`).
pub fn job_scaling_point(jobs: usize, cores: u32, seed: u64) -> SimulationResults {
    let platform = single_site_platform(cores, 10.0);
    let trace = scaling_trace(&platform, jobs, seed);
    run_simulation(&platform, trace, "least-loaded", true)
}

/// One point of the Fig. 4(b) multi-site scaling curve: `sites` WLCG-like
/// sites with `jobs_per_site` jobs each. Dispatch follows PanDA's
/// capacity-proportional behaviour so every site participates, as in the
/// paper's multi-site scaling runs.
pub fn multisite_scaling_point(sites: usize, jobs_per_site: usize, seed: u64) -> SimulationResults {
    let platform = wlcg_platform(sites, seed);
    let trace = scaling_trace(&platform, sites * jobs_per_site, seed ^ 0xABCD);
    run_simulation(&platform, trace, "capacity-proportional", true)
}

/// Builds a platform of `sites` identical Tier-2-like sites (used by the
/// distributed-vs-single-site experiment so capacity scales exactly with the
/// site count).
pub(crate) fn uniform_platform(sites: usize, cores_per_site: u32) -> PlatformSpec {
    use cgsim_platform::spec::{LinkSpec, SiteSpec, Tier, MAIN_SERVER};
    let mut spec = PlatformSpec::new(format!("uniform-{sites}-sites"));
    for i in 0..sites {
        let name = format!("SITE-{i:02}");
        spec.sites
            .push(SiteSpec::uniform(&name, Tier::Tier2, cores_per_site, 10.0));
        spec.network
            .links
            .push(LinkSpec::new(name, MAIN_SERVER, 40.0, 20.0));
    }
    spec
}

/// Distributed-vs-single-site experiment (the abstract's 6× claim): a bursty
/// workload (all jobs submitted at t = 0) executed on a single site versus
/// spread across `sites` identical sites of the same size.
/// Returns `(single_site_makespan, distributed_makespan)`.
pub fn distributed_speedup(sites: usize, jobs: usize, seed: u64) -> (f64, f64) {
    // Modest per-site capacity and a moderate work spread so the makespan is
    // dominated by the backlog (which distribution removes) rather than by a
    // single extreme-tail job (which no amount of distribution can shorten).
    let cores_per_site = 200;
    let make_trace = |platform: &PlatformSpec| {
        let mut cfg = TraceConfig::with_jobs(jobs, seed ^ 0x77);
        cfg.mean_file_bytes = 2e8;
        cfg.submission_window_s = 0.0; // burst: the backlog dominates
        cfg.work_cv = 0.4;
        TraceGenerator::new(cfg).generate(platform)
    };

    let single_platform = uniform_platform(1, cores_per_site);
    let single = run_simulation(
        &single_platform,
        make_trace(&single_platform),
        "least-loaded",
        false,
    );

    let distributed_platform = uniform_platform(sites, cores_per_site);
    let distributed = run_simulation(
        &distributed_platform,
        make_trace(&distributed_platform),
        "least-loaded",
        false,
    );
    (single.metrics.makespan_s, distributed.metrics.makespan_s)
}

/// The Fig. 3 calibration experiment: random-search calibration of per-site
/// CPU speed on a WLCG-like platform with `sites` sites and `jobs` historical
/// jobs.
pub fn calibration_experiment(
    sites: usize,
    jobs: usize,
    budget_per_site: usize,
    seed: u64,
) -> CalibrationReport {
    let platform = wlcg_platform(sites, seed);
    let mut cfg = TraceConfig::with_jobs(jobs, seed ^ 0xF1);
    cfg.mean_file_bytes = 1e8;
    let trace = TraceGenerator::new(cfg).generate(&platform);
    let calibrator = Calibrator {
        budget_per_site,
        seed,
        ..Calibrator::default()
    };
    calibrator.calibrate(&platform, &trace)
}

/// Table 1: run a 4-site simulation and return the results whose event log is
/// sampled for the representative monitoring rows.
pub fn event_snapshot_run(jobs: usize, seed: u64) -> SimulationResults {
    let platform = cgsim_platform::presets::example_platform();
    let trace = scaling_trace(&platform, jobs, seed);
    run_simulation(&platform, trace, "least-loaded", true)
}

/// Fidelity ablation: the same trace through the coarse-grained baseline and
/// through CGSim. Returns `(baseline, cgsim)` results.
pub fn baseline_comparison(jobs: usize, seed: u64) -> (BaselineResults, SimulationResults) {
    let platform = wlcg_platform(10, seed);
    let mut cfg = TraceConfig::with_jobs(jobs, seed ^ 0x3C);
    cfg.mean_file_bytes = 1e8;
    let trace = TraceGenerator::new(cfg).generate(&platform);
    let baseline = BaselineSimulator::new().run(&platform, &trace);
    let cgsim = run_simulation(&platform, trace, "historical-panda", false);
    (baseline, cgsim)
}

/// Reads an experiment scale factor from the `CGSIM_SCALE` environment
/// variable (`small`, `default` or `full`), used by the figure binaries to
/// trade runtime for resolution.
pub fn scale_from_env() -> f64 {
    match std::env::var("CGSIM_SCALE").as_deref() {
        Ok("small") => 0.2,
        Ok("full") => 1.0,
        _ => 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_scaling_point_completes_all_jobs() {
        let results = job_scaling_point(200, 500, 1);
        assert_eq!(results.outcomes.len(), 200);
        assert!(results.wall_clock_s >= 0.0);
    }

    #[test]
    fn multisite_point_uses_all_sites() {
        // Enough jobs per site that the least-loaded policy has to spill
        // beyond the largest site.
        let results = multisite_scaling_point(5, 200, 2);
        assert_eq!(results.outcomes.len(), 1_000);
        let sites: std::collections::HashSet<_> =
            results.outcomes.iter().map(|o| o.site.clone()).collect();
        assert!(sites.len() >= 4, "expected most sites used, got {sites:?}");
    }

    #[test]
    fn distributed_is_faster_than_single_site() {
        let (single, distributed) = distributed_speedup(8, 1_000, 3);
        assert!(
            single > distributed,
            "single={single} distributed={distributed}"
        );
        assert!(
            single / distributed > 2.5,
            "speedup only {:.2}x (single {single}, distributed {distributed})",
            single / distributed
        );
    }

    #[test]
    fn event_snapshot_produces_finished_rows() {
        let results = event_snapshot_run(60, 4);
        assert!(results
            .events
            .iter()
            .any(|e| e.state == cgsim_workload::JobState::Finished));
    }

    #[test]
    fn baseline_comparison_runs_both_simulators() {
        let (baseline, cgsim) = baseline_comparison(120, 5);
        assert_eq!(baseline.outcomes.len(), 120);
        assert_eq!(cgsim.outcomes.len(), 120);
    }
}
