//! End-to-end tests of the fault-injection subsystem, covering the
//! acceptance criteria of the deterministic fault-injection PR:
//!
//! * a zero-fault plan is bit-identical to no plan at all,
//! * the same seed + fault spec run twice is bit-identical,
//! * a site outage mid-run kills and successfully resubmits the affected
//!   jobs, with the interruption/retry counters matching the injected
//!   schedule.

use cgsim_core::{ComputeMode, ExecutionConfig, Simulation, SimulationResults};
use cgsim_faults::{
    parse_fault_spec, FaultAction, FaultEvent, FaultPlan, FaultPlanConfig, FaultTopology,
    MaintenanceSpec,
};
use cgsim_platform::spec::MAIN_SERVER;
use cgsim_platform::{LinkSpec, PlatformSpec, SiteSpec, Tier};
use cgsim_workload::{JobKind, JobRecord, Trace};

/// A two-site platform where "Big" dominates: every load-aware policy sends
/// work there first, which makes outage tests predictable.
fn two_site_platform() -> PlatformSpec {
    PlatformSpec::new("faulty")
        .with_site(SiteSpec::uniform("Big", Tier::Tier1, 2_000, 10.0))
        .with_site(SiteSpec::uniform("Small", Tier::Tier2, 400, 10.0))
        .with_link(LinkSpec::new("Big", MAIN_SERVER, 100.0, 10.0))
        .with_link(LinkSpec::new("Small", MAIN_SERVER, 100.0, 10.0))
}

/// `count` identical single-core jobs submitted at t = 0, each roughly
/// `work_s` seconds of work on a 10-speed core, with a tiny input so staging
/// finishes quickly.
fn flat_trace(count: usize, work_s: f64) -> Trace {
    let jobs = (0..count)
        .map(|i| {
            let mut record = JobRecord::new(i as u64, JobKind::SingleCore, 1, work_s * 10.0);
            record.input_bytes = 1_000_000;
            record.output_bytes = 0;
            record
        })
        .collect();
    Trace {
        jobs,
        ..Trace::default()
    }
}

fn run(plan: Option<FaultPlan>, exec: ExecutionConfig, trace: Trace) -> SimulationResults {
    let mut builder = Simulation::builder()
        .platform_spec(&two_site_platform())
        .unwrap()
        .trace(trace)
        .execution(exec);
    if let Some(plan) = plan {
        builder = builder.fault_plan(plan);
    }
    builder.run().unwrap()
}

/// A single maintenance outage of `Big` (site 0) at `start` for `duration`.
fn one_outage(start: f64, duration: f64) -> FaultPlan {
    FaultPlan {
        events: vec![
            FaultEvent {
                time_s: start,
                action: FaultAction::SiteDown { site: 0 },
            },
            FaultEvent {
                time_s: start + duration,
                action: FaultAction::SiteUp { site: 0 },
            },
        ],
    }
}

#[test]
fn zero_fault_plan_is_bit_identical_to_no_plan() {
    let trace = flat_trace(120, 2_000.0);
    let a = run(None, ExecutionConfig::default(), trace.clone());
    let b = run(Some(FaultPlan::empty()), ExecutionConfig::default(), trace);
    assert_eq!(a.deterministic_json(), b.deterministic_json());
    assert_eq!(a.engine_events, b.engine_events);
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.site(), y.site());
        assert_eq!(x.walltime().to_bits(), y.walltime().to_bits());
        assert_eq!(x.end_time().to_bits(), y.end_time().to_bits());
    }
}

#[test]
fn same_seed_and_spec_twice_is_bit_identical() {
    let config = parse_fault_spec(
        "outage:site=all,mttf=30m,mttr=10m;degrade:link=all,factor=0.25,mttf=1h,mttr=10m;kill:rate=6",
    )
    .unwrap();
    let topology = FaultTopology {
        sites: 2,
        links: vec![2, 3], // the two WAN links (after the two LAN links)
        jobs: 200,
    };
    let make = || {
        let plan = FaultPlan::generate(&config, &topology, 7);
        run(
            Some(plan),
            ExecutionConfig::default(),
            flat_trace(200, 5_000.0),
        )
    };
    let a = make();
    let b = make();
    assert_eq!(a.deterministic_json(), b.deterministic_json());
    assert_eq!(a.engine_events, b.engine_events);
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.id(), y.id());
        assert_eq!(x.site(), y.site());
        assert_eq!(x.final_state(), y.final_state());
        assert_eq!(x.walltime().to_bits(), y.walltime().to_bits());
    }
    // The churn actually did something, so the equality above is meaningful.
    assert!(a.grid_counters.site_outages > 0);
    assert!(a.grid_counters.job_interruptions > 0);
}

#[test]
fn site_outage_kills_and_resubmits_affected_jobs() {
    // 60 one-hour jobs: Big swallows everything at t=0 (2000 cores), then
    // goes down at t=600 for half an hour. Every in-flight job there must be
    // killed and resubmitted; with a generous retry budget they all finish.
    let trace = flat_trace(60, 3_600.0);
    let exec = ExecutionConfig {
        fault_max_retries: 3,
        ..ExecutionConfig::default()
    };
    let results = run(Some(one_outage(600.0, 1_800.0)), exec, trace);

    // Counters match the injected schedule: exactly one outage, and every
    // job was in flight at Big when it died.
    assert_eq!(results.grid_counters.site_outages, 1);
    assert_eq!(results.grid_counters.job_interruptions, 60);
    assert_eq!(results.grid_counters.fault_retries, 60);
    assert_eq!(results.grid_counters.node_losses, 0);
    assert_eq!(results.grid_counters.link_degradations, 0);

    // All jobs were successfully resubmitted and finished.
    assert_eq!(results.metrics.total_jobs, 60);
    assert_eq!(results.metrics.failed_jobs, 0);
    assert_eq!(results.metrics.finished_jobs, 60);

    // The per-site panels surface the interruptions at Big.
    let big = &results.site_panels[0];
    assert_eq!(&*big.site, "Big");
    assert_eq!(big.interrupted_jobs, 60);
    assert!(big.up, "the outage ended before the run did");

    // Interrupted jobs rerun somewhere: either back at Big after recovery or
    // at Small while Big was down — and their reruns end after the outage.
    for o in &results.outcomes {
        assert!(o.end_time() > 600.0);
    }
}

#[test]
fn exhausted_fault_retries_fail_the_job() {
    // Zero fault retries: the outage's victims fail immediately.
    let trace = flat_trace(40, 3_600.0);
    let exec = ExecutionConfig {
        fault_max_retries: 0,
        ..ExecutionConfig::default()
    };
    let results = run(Some(one_outage(600.0, 600.0)), exec, trace);
    assert_eq!(results.grid_counters.job_interruptions, 40);
    assert_eq!(results.grid_counters.fault_retries, 0);
    assert_eq!(results.metrics.failed_jobs, 40);
    assert!(results
        .outcomes
        .iter()
        .all(|o| o.final_state() == cgsim_workload::JobState::Failed));
}

#[test]
fn outage_during_time_shared_execution_interrupts_fluid_jobs() {
    // Time-shared execution spreads the whole site capacity over the 30
    // jobs, so they finish fast — the outage must land inside the first
    // minute to catch them in flight.
    let trace = flat_trace(30, 3_600.0);
    let exec = ExecutionConfig {
        compute_mode: ComputeMode::TimeShared,
        fault_max_retries: 3,
        ..ExecutionConfig::default()
    };
    let results = run(Some(one_outage(10.0, 120.0)), exec, trace);
    assert_eq!(results.grid_counters.site_outages, 1);
    assert!(results.grid_counters.job_interruptions >= 30);
    assert_eq!(results.metrics.failed_jobs, 0);
    assert_eq!(results.metrics.finished_jobs, 30);
}

#[test]
fn link_degradation_slows_staging_but_loses_nothing() {
    // Heavy inputs so staging dominates; degrade the WAN to 5 % for most of
    // the run and compare against the fault-free makespan.
    let mut trace = flat_trace(40, 600.0);
    for job in &mut trace.jobs {
        job.input_bytes = 20_000_000_000; // 20 GB over a 100 Gbit/s link
    }
    let clean = run(None, ExecutionConfig::default(), trace.clone());
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                time_s: 1.0,
                action: FaultAction::LinkDegrade {
                    link: 2, // Big's WAN uplink (links 0/1 are the LANs)
                    factor: 0.05,
                },
            },
            FaultEvent {
                time_s: 50_000.0,
                action: FaultAction::LinkRestore { link: 2 },
            },
        ],
    };
    let degraded = run(Some(plan), ExecutionConfig::default(), trace);
    assert_eq!(degraded.grid_counters.link_degradations, 1);
    assert_eq!(degraded.metrics.failed_jobs, 0);
    assert_eq!(degraded.metrics.finished_jobs, 40);
    assert!(
        degraded.makespan_s > clean.makespan_s * 1.5,
        "degraded {} vs clean {}",
        degraded.makespan_s,
        clean.makespan_s
    );
}

#[test]
fn targeted_job_kill_interrupts_exactly_one_job() {
    let trace = flat_trace(20, 3_600.0);
    let plan = FaultPlan {
        events: vec![FaultEvent {
            time_s: 900.0,
            action: FaultAction::KillJob { job: 3 },
        }],
    };
    let exec = ExecutionConfig {
        fault_max_retries: 2,
        ..ExecutionConfig::default()
    };
    let results = run(Some(plan), exec, trace);
    assert_eq!(results.grid_counters.job_interruptions, 1);
    assert_eq!(results.grid_counters.fault_retries, 1);
    assert_eq!(results.metrics.failed_jobs, 0);
    // The killed job reruns from scratch, so it finishes last (all jobs have
    // identical work and started together).
    let victim = results.outcomes.iter().find(|o| o.id().0 == 3).unwrap();
    let max_end = results
        .outcomes
        .iter()
        .map(|o| o.end_time())
        .fold(0.0f64, f64::max);
    assert_eq!(victim.end_time(), max_end);
}

#[test]
fn node_loss_reclaims_cores_and_restore_returns_them() {
    // 2000 cores at Big, 2500 single-core jobs of 1h each: Big runs 2000
    // immediately. Losing 50% of Big's cores mid-run must kill ~1000 jobs.
    let trace = flat_trace(2_100, 3_600.0);
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                time_s: 600.0,
                action: FaultAction::NodeLoss {
                    site: 0,
                    fraction: 0.5,
                },
            },
            FaultEvent {
                time_s: 7_200.0,
                action: FaultAction::NodeRestore { site: 0 },
            },
        ],
    };
    let exec = ExecutionConfig {
        fault_max_retries: 3,
        ..ExecutionConfig::default()
    };
    let results = run(Some(plan), exec, trace);
    assert_eq!(results.grid_counters.node_losses, 1);
    // Big had essentially no free cores at t=600 (least-loaded keeps both
    // sites saturated), so most of the 1000 lost cores are reclaimed by
    // killing running jobs.
    assert!(
        results.grid_counters.job_interruptions >= 800,
        "interruptions: {}",
        results.grid_counters.job_interruptions
    );
    assert_eq!(results.metrics.failed_jobs, 0);
    assert_eq!(results.metrics.finished_jobs, 2_100);
}

#[test]
fn fault_chain_stops_with_the_workload() {
    // A plan stretching far past the workload: the run must end when the
    // last job does, not when the plan does.
    let trace = flat_trace(10, 600.0);
    let config = FaultPlanConfig {
        horizon_s: 1_000_000.0,
        maintenance: vec![MaintenanceSpec {
            site: 1,
            start_s: 900_000.0,
            duration_s: 1_000.0,
            period_s: None,
        }],
        ..FaultPlanConfig::default()
    };
    let plan = FaultPlan::generate(
        &config,
        &FaultTopology {
            sites: 2,
            links: vec![2, 3],
            jobs: 10,
        },
        1,
    );
    assert!(!plan.is_empty());
    let results = run(Some(plan), ExecutionConfig::default(), trace);
    assert!(
        results.makespan_s < 100_000.0,
        "makespan inflated by the fault plan: {}",
        results.makespan_s
    );
    assert_eq!(results.grid_counters.site_outages, 0);
}
