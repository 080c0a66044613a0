//! Workspace smoke test: a small 2-site / 50-job simulation must run
//! deterministically to completion through the `cgsim` façade crate alone.

use cgsim::prelude::*;

/// A deterministic 2-site platform built purely from the façade's re-exports.
fn two_site_platform() -> PlatformSpec {
    let mut spec = PlatformSpec::new("smoke-2-sites");
    spec.sites
        .push(SiteSpec::uniform("SITE-A", Tier::Tier1, 64, 12.0));
    spec.sites
        .push(SiteSpec::uniform("SITE-B", Tier::Tier2, 32, 9.0));
    spec.network.links.push(cgsim::platform::LinkSpec::new(
        "SITE-A",
        cgsim::platform::spec::MAIN_SERVER,
        10.0,
        5.0,
    ));
    spec.network.links.push(cgsim::platform::LinkSpec::new(
        "SITE-B",
        cgsim::platform::spec::MAIN_SERVER,
        5.0,
        15.0,
    ));
    spec
}

fn run_smoke(seed: u64) -> SimulationResults {
    let platform = two_site_platform();
    platform.validate().expect("smoke platform validates");
    let trace = TraceGenerator::new(TraceConfig::with_jobs(50, seed)).generate(&platform);
    Simulation::builder()
        .platform_spec(&platform)
        .expect("platform builds")
        .trace(trace)
        .execution(ExecutionConfig::default())
        .run()
        .expect("simulation runs")
}

#[test]
fn two_site_fifty_job_simulation_completes() {
    let results = run_smoke(2024);
    assert_eq!(results.outcomes.len(), 50, "every job must terminate");
    assert!(results
        .outcomes
        .iter()
        .all(|o| o.final_state().is_terminal()));
    assert_eq!(results.metrics.total_jobs, 50);
    assert_eq!(results.metrics.failed_jobs, 0);
    assert!(results.makespan_s > 0.0);
    // Both sites exist in the dashboard; at least one did work.
    assert_eq!(results.site_panels.len(), 2);
    assert!(results.site_panels.iter().any(|p| p.finished_jobs > 0));
}

#[test]
fn two_site_fifty_job_simulation_is_deterministic() {
    let a = run_smoke(2024);
    let b = run_smoke(2024);
    assert_eq!(a.engine_events, b.engine_events);
    assert!((a.makespan_s - b.makespan_s).abs() < 1e-12);
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.id(), y.id());
        assert_eq!(x.site(), y.site());
        assert!((x.end_time() - y.end_time()).abs() < 1e-12);
        assert!((x.walltime() - y.walltime()).abs() < 1e-12);
    }
}
