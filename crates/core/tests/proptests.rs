//! Property-based tests of whole-simulation invariants.
//!
//! Case counts are kept small because each case runs a full (small)
//! simulation, but the configurations are drawn randomly: job mixes, site
//! counts, policies, failure rates and compute modes.

use cgsim_core::{
    CheckpointConfig, CheckpointTarget, ComputeMode, ExecutionConfig, RepairConfig, Simulation,
};
use cgsim_faults::{parse_fault_spec, FaultPlan, FaultTopology};
use cgsim_platform::presets::wlcg_platform;
use cgsim_workload::{JobState, TraceConfig, TraceGenerator};
use proptest::prelude::*;

fn policies() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec![
        "least-loaded",
        "round-robin",
        "random",
        "fastest-available",
        "data-aware",
        "historical-panda",
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every simulated job terminates, resources are fully released, and the
    /// per-job timeline is ordered — regardless of policy, failure rate,
    /// compute mode or workload mix.
    #[test]
    fn simulation_invariants_hold(
        jobs in 5usize..60,
        sites in 1usize..8,
        seed in any::<u64>(),
        policy in policies(),
        failure in 0.0f64..0.5,
        retries in 0u32..3,
        multicore in 0.0f64..1.0,
        time_shared in any::<bool>(),
    ) {
        let platform = wlcg_platform(sites, seed ^ 0x1234);
        let mut cfg = TraceConfig::with_jobs(jobs, seed);
        cfg.multicore_fraction = multicore;
        let trace = TraceGenerator::new(cfg).generate(&platform);

        let mut execution = ExecutionConfig::with_policy(policy);
        execution.seed = seed;
        execution.failure_probability = failure;
        execution.max_retries = retries;
        execution.compute_mode = if time_shared {
            ComputeMode::TimeShared
        } else {
            ComputeMode::DedicatedCores
        };

        let results = Simulation::builder()
            .platform_spec(&platform)
            .unwrap()
            .trace(trace)
            .execution(execution)
            .run()
            .unwrap();

        // Every job reached a terminal state exactly once.
        prop_assert_eq!(results.outcomes.len(), jobs);
        let ids: std::collections::HashSet<_> = results.outcomes.iter().map(|o| o.id()).collect();
        prop_assert_eq!(ids.len(), jobs);
        // Every transition is recorded, so a job's last `Assigned` row is
        // its last dispatch.
        let assigned: std::collections::HashMap<_, _> = results
            .events
            .iter()
            .filter(|e| e.state == JobState::Assigned)
            .map(|e| (e.job_id, e.time_s))
            .collect();
        for o in &results.outcomes {
            prop_assert!(o.final_state().is_terminal());
            let assign_time = assigned[&o.id()];
            prop_assert!(assign_time >= o.submit_time() - 1e-9);
            prop_assert!(o.start_time() >= assign_time - 1e-9);
            prop_assert!(o.end_time() >= o.start_time() - 1e-9);
            prop_assert!(o.walltime() >= 0.0);
            prop_assert!(o.queue_time() >= -1e-9);
            prop_assert!(o.end_time() <= results.makespan_s + 1e-6);
        }

        // All cores returned: the final dashboard shows zero busy cores and
        // empty queues.
        for panel in &results.site_panels {
            prop_assert_eq!(panel.busy_cores, 0, "site {} still busy", panel.site.clone());
            prop_assert_eq!(panel.queued_jobs, 0);
            prop_assert_eq!(panel.running_jobs, 0);
        }

        // Metrics agree with outcomes.
        prop_assert_eq!(results.metrics.total_jobs as usize, jobs);
        prop_assert_eq!(
            (results.metrics.finished_jobs + results.metrics.failed_jobs) as usize,
            jobs
        );
        if failure == 0.0 {
            prop_assert_eq!(results.metrics.failed_jobs, 0);
        }

        // Event stream: ids strictly increasing, finished counter never
        // exceeds the assigned counter.
        for (a, b) in results.events.iter().zip(results.events.iter().skip(1)) {
            prop_assert!(a.event_id < b.event_id);
            prop_assert!(a.time_s <= b.time_s + 1e-9);
        }
        for e in &results.events {
            if e.state == JobState::Finished {
                prop_assert!(e.finished_jobs <= e.assigned_jobs);
            }
        }
    }

    /// Re-running the exact same configuration yields bit-identical walltimes
    /// (full-pipeline determinism).
    #[test]
    fn simulation_is_reproducible(
        jobs in 5usize..40,
        sites in 1usize..5,
        seed in any::<u64>(),
        policy in policies(),
    ) {
        let run = || {
            let platform = wlcg_platform(sites, seed);
            let trace = TraceGenerator::new(TraceConfig::with_jobs(jobs, seed)).generate(&platform);
            let mut execution = ExecutionConfig::with_policy(policy);
            execution.seed = seed;
            Simulation::builder()
                .platform_spec(&platform)
                .unwrap()
                .trace(trace)
                .execution(execution)
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.engine_events, b.engine_events);
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            prop_assert_eq!(x.id(), y.id());
            prop_assert_eq!(x.site(), y.site());
            prop_assert_eq!(x.walltime().to_bits(), y.walltime().to_bits());
        }
    }
}

/// A randomized self-healing scenario: `sites`-site WLCG platform, generated
/// trace, and a fault plan with disk losses, outages and kills aggressive
/// enough that the repair planner and the checkpoint machinery both fire.
fn self_healing_run(
    jobs: usize,
    sites: usize,
    seed: u64,
    checkpoint: CheckpointConfig,
    repair: RepairConfig,
) -> cgsim_core::SimulationResults {
    let platform = wlcg_platform(sites, seed ^ 0x9e37);
    let trace = TraceGenerator::new(TraceConfig::with_jobs(jobs, seed)).generate(&platform);
    let config =
        parse_fault_spec("diskloss:site=all,mttf=25m;outage:site=all,mttf=45m,mttr=8m;kill:rate=2")
            .expect("static spec parses");
    let topology = FaultTopology {
        sites,
        links: Vec::new(),
        jobs,
    };
    let plan = FaultPlan::generate(&config, &topology, seed ^ 0x51ed);
    let execution = ExecutionConfig {
        checkpoint,
        repair,
        seed,
        ..ExecutionConfig::default()
    };
    Simulation::builder()
        .platform_spec(&platform)
        .unwrap()
        .trace(trace)
        .execution(execution)
        .fault_plan(plan)
        .run()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Repair-planner invariants under random knobs and fault pressure:
    ///
    /// * every admitted repair transfer is retired exactly once — completed
    ///   or cancelled, never leaked (`started == completed + cancelled`),
    /// * per-site completed-repair counts agree with the grid total,
    /// * the workload still drains fully (all jobs terminal, no cores held),
    /// * an identical second run is bit-for-bit identical.
    ///
    /// Debug builds (how tests run) additionally enforce the per-event
    /// invariants inside the planner itself via `debug_assert`s: a repair is
    /// only admitted while the dataset is below target and toward a node
    /// without a replica, a landed replica never overshoots the target, and
    /// the per-node transfer-touch index always matches a full scan after
    /// every data-loss replay.
    #[test]
    fn repair_transfers_are_always_retired_and_runs_are_reproducible(
        jobs in 30usize..80,
        sites in 2usize..6,
        seed in any::<u64>(),
        target in 2u32..4,
        concurrent in 1u32..6,
        backoff in 60.0f64..900.0,
        retries in 0u32..4,
        overlap in any::<bool>(),
        delta in prop::sample::select(vec![0u64, 2_000_000, 40_000_000]),
    ) {
        let checkpoint = CheckpointConfig {
            interval_s: 600.0,
            base_bytes: 50_000_000,
            bytes_per_core: 0,
            target: CheckpointTarget::MainServer,
            overlap,
            delta_bytes_per_s: delta,
        };
        let repair = RepairConfig {
            enabled: true,
            target_factor: target,
            max_concurrent: concurrent,
            backoff_s: backoff,
            max_retries: retries,
        };
        let run = || self_healing_run(jobs, sites, seed, checkpoint.clone(), repair.clone());
        let a = run();

        // The workload drained: every job terminal, every core returned.
        prop_assert_eq!(a.outcomes.len(), jobs);
        for o in &a.outcomes {
            prop_assert!(o.final_state().is_terminal());
        }
        for panel in &a.site_panels {
            prop_assert_eq!(panel.busy_cores, 0);
            prop_assert_eq!(panel.queued_jobs, 0);
            prop_assert_eq!(panel.running_jobs, 0);
        }

        // Repair ledger closes: nothing admitted is still unaccounted for.
        let g = &a.grid_counters;
        prop_assert_eq!(
            g.repairs_started,
            g.repairs_completed + g.repairs_cancelled,
            "admitted repairs leaked: started {} completed {} cancelled {}",
            g.repairs_started,
            g.repairs_completed,
            g.repairs_cancelled
        );
        let per_site: u64 = a.site_panels.iter().map(|p| p.repairs).sum();
        prop_assert_eq!(per_site, g.repairs_completed);
        if g.repairs_completed > 0 {
            prop_assert!(g.repair_bytes >= g.repairs_completed);
        }

        // The async-write counters only move when overlap is on.
        if !overlap {
            prop_assert_eq!(g.ckpt_overlapped, 0);
            prop_assert_eq!(g.ckpt_stalls, 0);
        }

        // Bit-for-bit reproducible, repair traffic and all.
        let b = run();
        prop_assert_eq!(a.deterministic_json(), b.deterministic_json());
        prop_assert_eq!(a.engine_events, b.engine_events);
    }

    /// Feature-off ≡ feature-absent, under random *disabled* knob settings:
    /// a run whose repair config carries arbitrary target/concurrency/backoff
    /// values but `enabled = false`, with `overlap = false` and a zero delta
    /// rate, is byte-identical to the same faulted run with plain default
    /// fields — the knobs alone must not perturb a single RNG draw or event.
    #[test]
    fn disabled_self_healing_knobs_are_byte_identical_to_defaults(
        jobs in 30usize..70,
        sites in 2usize..5,
        seed in any::<u64>(),
        target in 1u32..9,
        concurrent in 1u32..17,
        backoff in 0.0f64..10_000.0,
        retries in 0u32..50,
    ) {
        let checkpoint = CheckpointConfig {
            interval_s: 600.0,
            base_bytes: 50_000_000,
            bytes_per_core: 0,
            target: CheckpointTarget::SiteStorage,
            ..CheckpointConfig::default()
        };
        let knobs = RepairConfig {
            enabled: false,
            target_factor: target,
            max_concurrent: concurrent,
            backoff_s: backoff,
            max_retries: retries,
        };
        let a = self_healing_run(jobs, sites, seed, checkpoint.clone(), knobs);
        let b = self_healing_run(jobs, sites, seed, checkpoint, RepairConfig::default());
        prop_assert_eq!(a.deterministic_json(), b.deterministic_json());
        prop_assert_eq!(a.engine_events, b.engine_events);
        prop_assert_eq!(a.grid_counters.repairs_started, 0);
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            prop_assert_eq!(x.id(), y.id());
            prop_assert_eq!(x.site(), y.site());
            prop_assert_eq!(x.walltime().to_bits(), y.walltime().to_bits());
            prop_assert_eq!(x.staged_bytes(), y.staged_bytes());
        }
    }
}
