//! Experiment scenarios. Each paper binary prints what one function of
//! [`fig3`], [`fig4a`], [`fig4b`], [`table1`], [`ablation`] and [`speedup`]
//! returns for its scale; the root `tests/paper_claims.rs` calls the same ones.

use crate::baseline::{self, BaselineResults};
use cgsim_calibrate::{CalibrationReport, Calibrator};
use cgsim_core::{ExecutionConfig, Simulation, SimulationResults};
use cgsim_des::stats::scaling_exponent;
use cgsim_monitor::MonitoringConfig;
use cgsim_platform::presets::{single_site_platform, wlcg_platform};
use cgsim_platform::PlatformSpec;
use cgsim_workload::{JobState, Trace, TraceConfig, TraceGenerator};

/// Generates the trace used by the scalability experiments: PanDA-like jobs
/// with modest input sizes so runs stay compute-dominated (as in production).
fn scaling_trace(platform: &PlatformSpec, jobs: usize, seed: u64) -> Trace {
    let mut cfg = TraceConfig::with_jobs(jobs, seed);
    cfg.mean_file_bytes = 5e8;
    cfg.submission_window_s = 3600.0;
    TraceGenerator::new(cfg).generate(platform)
}

/// Runs one simulation with the given policy and monitoring setting.
fn run_simulation(
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
/// core count processing `jobs` jobs.
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
fn uniform_platform(sites: usize, cores_per_site: u32) -> PlatformSpec {
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
    let single = burst_makespan(1, jobs, seed);
    (single, burst_makespan(sites, jobs, seed))
}

/// Makespan of the bursty workload of [`distributed_speedup`] on `sites`
/// identical sites.
fn burst_makespan(sites: usize, jobs: usize, seed: u64) -> f64 {
    // Modest per-site capacity and a moderate work spread so the makespan is
    // dominated by the backlog (which distribution removes) rather than by a
    // single extreme-tail job (which no amount of distribution can shorten).
    let platform = uniform_platform(sites, 200);
    let mut cfg = TraceConfig::with_jobs(jobs, seed ^ 0x77);
    cfg.mean_file_bytes = 2e8;
    cfg.submission_window_s = 0.0; // burst: the backlog dominates
    cfg.work_cv = 0.4;
    let trace = TraceGenerator::new(cfg).generate(&platform);
    let results = run_simulation(&platform, trace, "least-loaded", false);
    results.metrics.makespan_s
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
    let baseline = baseline::simulate(&platform, &trace);
    let cgsim = run_simulation(&platform, trace, "historical-panda", false);
    (baseline, cgsim)
}

/// The `CGSIM_SCALE=small` factor, which CI runs and the claims test uses.
pub const SMALL: f64 = 0.2;

/// Reads the scale factor from `CGSIM_SCALE` (`small`, `default` or `full`),
/// with which the figure binaries trade runtime for resolution.
pub fn scale_from_env() -> f64 {
    match std::env::var("CGSIM_SCALE").as_deref() {
        Ok("small") => SMALL,
        Ok("full") => 1.0,
        _ => 0.5,
    }
}

/// Fig. 3 at `scale`: calibration over `max(50 × scale, 5)` WLCG-like sites
/// with 40 historical jobs each and a budget of 25 evaluations per site.
/// Returns `(jobs, budget, report)`.
pub fn fig3(scale: f64) -> (usize, usize, CalibrationReport) {
    let sites = ((50.0 * scale) as usize).max(5);
    let (jobs, budget) = (sites * 40, 25);
    (jobs, budget, calibration_experiment(sites, jobs, budget, 7))
}

/// Fig. 4(a) at `scale`: one 1,000-core site at 1k–10k jobs, scaled (at
/// least 200 each). Returns `(jobs, results)` per point.
pub fn fig4a(scale: f64) -> Vec<(usize, SimulationResults)> {
    [1_000usize, 2_000, 4_000, 6_000, 8_000, 10_000]
        .into_iter()
        .map(|j| ((j as f64 * scale) as usize).max(200))
        .map(|jobs| (jobs, job_scaling_point(jobs, 1_000, 42)))
        .collect()
}

/// Fig. 4(b) at `scale`: 1–50 sites, scaled up to whole sites, at 200 jobs
/// per site. Returns `(sites, results)` per distinct site count.
pub fn fig4b(scale: f64) -> Vec<(usize, SimulationResults)> {
    let mut site_counts: Vec<usize> = [1usize, 5, 10, 20, 30, 40, 50]
        .into_iter()
        .map(|s| ((s as f64 * scale).ceil() as usize).max(1))
        .collect();
    site_counts.dedup();
    site_counts
        .into_iter()
        .map(|sites| (sites, multisite_scaling_point(sites, 200, 42)))
        .collect()
}

/// The exponent `k` of a least-squares fit `y ~ x^k` over a scaling curve
/// from [`fig4a`] or [`fig4b`], with `y` read from each point's results.
pub fn scaling_fit(curve: &[(usize, SimulationResults)], y: fn(&SimulationResults) -> f64) -> f64 {
    let (xs, ys): (Vec<f64>, Vec<f64>) = curve.iter().map(|(x, r)| (*x as f64, y(r))).unzip();
    scaling_exponent(&xs, &ys)
}

/// Table 1 (at every scale): a 400-job run on the 4-site example grid and
/// the six `Finished` rows from the middle of it. Returns `(results, rows)`,
/// the rows as positions in `results.events`.
pub fn table1() -> (SimulationResults, Vec<usize>) {
    let results = event_snapshot_run(400, 42);
    let finished: Vec<usize> = results
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.state == JobState::Finished)
        .map(|(i, _)| i)
        .collect();
    let middle = finished.len() / 2;
    let rows = finished.into_iter().skip(middle).take(6).collect();
    (results, rows)
}

/// The §2 fidelity ablation at `scale`: `max(2,000 × scale, 300)` jobs on 10
/// WLCG-like sites. Returns `(jobs, (baseline, cgsim))`.
pub fn ablation(scale: f64) -> (usize, (BaselineResults, SimulationResults)) {
    let jobs = ((2_000.0 * scale) as usize).max(300);
    (jobs, baseline_comparison(jobs, 11))
}

/// The distributed-speedup sweep at `scale`: `max(4,000 × scale, 400)`
/// bursty jobs on one site and on 2, 4, 8 and 16 sites. Returns
/// `(jobs, single_site_makespan, [(sites, distributed_makespan)])`.
pub fn speedup(scale: f64) -> (usize, f64, Vec<(usize, f64)>) {
    let jobs = ((4_000.0 * scale) as usize).max(400);
    let rows = [2, 4, 8, 16]
        .into_iter()
        .map(|sites| (sites, burst_makespan(sites, jobs, 7)))
        .collect();
    (jobs, burst_makespan(1, jobs, 7), rows)
}
