//! Fault injection: reliability scenarios the fair-weather simulator could
//! never express — a three-site grid with one flapping site, compared across
//! retry policies under the *same* deterministic fault schedule.
//!
//! The example shows the whole fault workflow:
//!
//! 1. describe the fault processes with the `--faults` spec grammar,
//! 2. attach the spec and a fault seed to one scenario per allocation policy
//!    (`least-loaded` is availability-aware but forgiving; `blacklist-flapping`
//!    additionally refuses to reuse sites that keep killing its jobs) — the
//!    same text and seed generate the same deterministic `FaultPlan` for each,
//! 3. evaluate the batch and read the reliability counters of each run.
//!
//! ```bash
//! cargo run --release --example failure_injection
//! ```

use std::sync::Arc;

use cgsim::faults::FaultAction;
use cgsim::platform::spec::MAIN_SERVER;
use cgsim::platform::{LinkSpec, SiteSpec, Tier};
use cgsim::prelude::*;

/// Site 2 ("Flapper") bounces every ~90 simulated minutes and stays down for
/// ~15; its uplink also degrades now and then. The grammar is the one the
/// CLI accepts via `--faults`.
const FAULTS: &str = "outage:site=2,mttf=90m,mttr=15m,shape=1.2;\
                      degrade:link=2,factor=0.3,mttf=4h,mttr=30m;\
                      horizon=2d";

fn main() {
    // A 3-site grid: two solid workhorses and one large but flaky site.
    let platform = PlatformSpec::new("flaky-grid")
        .with_site(SiteSpec::uniform("Steady-A", Tier::Tier1, 1_200, 10.0))
        .with_site(SiteSpec::uniform("Steady-B", Tier::Tier2, 800, 9.0))
        .with_site(SiteSpec::uniform("Flapper", Tier::Tier1, 2_000, 12.0))
        .with_link(LinkSpec::new("Steady-A", MAIN_SERVER, 100.0, 10.0))
        .with_link(LinkSpec::new("Steady-B", MAIN_SERVER, 60.0, 20.0))
        .with_link(LinkSpec::new("Flapper", MAIN_SERVER, 100.0, 15.0));
    let trace = TraceGenerator::new(TraceConfig::with_jobs(2_000, 42)).generate(&platform);
    let base = ScenarioBase::shared(platform, trace);

    // Same platform, same trace, same fault text and seed (hence the same
    // fault schedule) — only the policy changes, so the reliability counters
    // isolate policy behaviour.
    let policies = ["least-loaded", "blacklist-flapping", "random"];
    let specs: Vec<ScenarioSpec> = policies
        .iter()
        .map(|&policy| {
            ScenarioSpec::new(base.clone(), ExecutionConfig::with_policy(policy))
                .with_faults(FAULTS)
                .with_fault_seed(7)
        })
        .collect();

    let built = Platform::build(base.platform()).expect("platform builds");
    let (plan, _) = specs[0]
        .build_fault_plan(&built)
        .expect("spec parses")
        .expect("spec declares fault processes");
    let outages = plan
        .events
        .iter()
        .filter(|e| matches!(e.action, FaultAction::SiteDown { .. }))
        .count();
    println!(
        "fault plan: {} events ({} outages of the flapping site) over 48 h\n",
        plan.len(),
        outages
    );

    println!("# Retry-policy comparison under identical site churn\n");
    let runs: Vec<(&str, Arc<SimulationResults>)> = policies
        .iter()
        .zip(ScenarioEngine::new().evaluate_batch(&specs))
        .map(|(&policy, o)| (policy, o.expect("all policies are registered").results))
        .collect();
    println!("policy,makespan_s,mean_queue_time_s,staged_bytes,site_outages,interrupted_jobs,fault_retries,work_lost_s,wall_clock_s");
    for (policy, r) in &runs {
        let (m, c) = (&r.metrics, &r.grid_counters);
        println!(
            "{policy},{:.3},{:.3},{},{},{},{},{:.3},{:.4}",
            m.makespan_s,
            m.queue_time.as_ref().map_or(0.0, |q| q.mean),
            m.staged_bytes,
            c.site_outages,
            c.job_interruptions,
            c.fault_retries,
            c.work_lost_s,
            r.wall_clock_s
        );
    }
    println!();
    for (policy, r) in &runs {
        println!(
            "{policy:>20}: makespan {:>6.2} h, {} interruptions, {} fault retries, failure rate {:.2}%",
            r.metrics.makespan_s / 3600.0,
            r.grid_counters.job_interruptions,
            r.grid_counters.fault_retries,
            r.metrics.failure_rate * 100.0
        );
    }

    let interruptions = |r: &SimulationResults| r.grid_counters.job_interruptions;
    let best = runs
        .iter()
        .min_by(|a, b| a.1.metrics.makespan_s.total_cmp(&b.1.metrics.makespan_s))
        .expect("non-empty batch");
    let calmest = runs
        .iter()
        .min_by_key(|(_, r)| interruptions(r))
        .expect("non-empty batch");
    println!(
        "\nbest makespan under churn: {}; fewest interruptions: {} ({} vs {} for {})",
        best.0,
        calmest.0,
        interruptions(&calmest.1),
        interruptions(&runs[0].1),
        runs[0].0
    );
}
