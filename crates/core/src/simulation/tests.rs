//! Behavioural tests of the simulation façade.

use std::collections::HashMap;

use cgsim_platform::presets::{example_platform, single_site_platform};
use cgsim_platform::{Platform, PlatformSpec, SiteId};
use cgsim_policies::{AllocationPolicy, GridView};
use cgsim_workload::{JobKind, JobRecord, JobState, Trace, TraceConfig, TraceGenerator};

use super::{Simulation, SimulationError};
use crate::config::{ComputeMode, ExecutionConfig};
use crate::queue_model::QueueModel;
use crate::results::SimulationResults;

/// Runs `trace` on `platform` with a named policy and the given execution
/// configuration, panicking on any builder error.
fn run_on(
    platform: &PlatformSpec,
    trace: Trace,
    policy: &str,
    exec: ExecutionConfig,
) -> SimulationResults {
    Simulation::builder()
        .platform_spec(platform)
        .unwrap()
        .trace(trace)
        .execution(ExecutionConfig {
            allocation_policy: policy.to_string(),
            ..exec
        })
        .run()
        .unwrap()
}

fn run_with(policy: &str, jobs: usize, seed: u64) -> SimulationResults {
    let platform = example_platform();
    let trace = TraceGenerator::new(TraceConfig::with_jobs(jobs, seed)).generate(&platform);
    run_on(&platform, trace, policy, ExecutionConfig::default())
}

#[test]
fn all_jobs_reach_a_terminal_state() {
    let results = run_with("least-loaded", 200, 11);
    assert_eq!(results.outcomes.len(), 200);
    assert!(results
        .outcomes
        .iter()
        .all(|o| o.final_state().is_terminal()));
    assert_eq!(results.metrics.total_jobs, 200);
    assert_eq!(results.metrics.failed_jobs, 0);
    assert!(results.makespan_s > 0.0);
    assert!(results.engine_events >= 200);
}

#[test]
fn timing_invariants_hold_for_every_job() {
    let results = run_with("least-loaded", 150, 3);
    // Every transition is recorded: a job's last `Assigned` row is its
    // last dispatch, whose site state the outcome captured.
    let assigned: HashMap<_, _> = results
        .events
        .iter()
        .filter(|e| e.state == JobState::Assigned)
        .map(|e| (e.job_id, e))
        .collect();
    for o in &results.outcomes {
        let assign = assigned[&o.id()];
        assert!(assign.time_s >= o.submit_time() - 1e-9, "{o:?}");
        assert!(o.start_time() >= assign.time_s - 1e-9, "{o:?}");
        assert_eq!(
            (assign.available_cores, assign.pending_jobs),
            (
                o.available_cores_at_assign().into(),
                o.queue_at_assign().into()
            ),
            "{o:?}"
        );
        assert!(o.end_time() >= o.start_time(), "{o:?}");
        assert!(o.walltime() > 0.0);
        assert!(o.queue_time() >= 0.0);
    }
}

#[test]
fn simulation_is_deterministic() {
    let a = run_with("least-loaded", 100, 7);
    let b = run_with("least-loaded", 100, 7);
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.id(), y.id());
        assert_eq!(x.site(), y.site());
        assert!((x.walltime() - y.walltime()).abs() < 1e-9);
        assert!((x.end_time() - y.end_time()).abs() < 1e-9);
    }
    assert_eq!(a.engine_events, b.engine_events);
}

#[test]
fn different_policies_produce_different_schedules() {
    let a = run_with("least-loaded", 300, 5);
    let b = run_with("round-robin", 300, 5);
    let sites_a: Vec<_> = a.outcomes.iter().map(|o| o.site()).collect();
    let sites_b: Vec<_> = b.outcomes.iter().map(|o| o.site()).collect();
    assert_ne!(sites_a, sites_b);
    assert_eq!(a.policy, "least-loaded");
    assert_eq!(b.policy, "round-robin");
}

#[test]
fn historical_policy_respects_trace_assignments() {
    let platform = example_platform();
    let trace = TraceGenerator::new(TraceConfig::with_jobs(120, 2)).generate(&platform);
    let expected: Vec<_> = trace.jobs.iter().map(|j| j.hist_site.clone()).collect();
    let results = run_on(
        &platform,
        trace,
        "historical-panda",
        ExecutionConfig::default(),
    );
    // Outcomes are not necessarily in submit order; join by job id.
    let by_id: HashMap<_, _> = results
        .outcomes
        .iter()
        .map(|o| (o.id(), o.site()))
        .collect();
    let platform_trace = TraceGenerator::new(TraceConfig::with_jobs(120, 2)).generate(&platform);
    for (job, hist) in platform_trace.jobs.iter().zip(expected) {
        assert_eq!(by_id[&job.id], &*hist);
    }
}

/// Every terminal job must produce a finished event with its site set.
#[test]
fn event_dataset_has_table1_shape() {
    let results = run_with("least-loaded", 50, 13);
    assert!(!results.events.is_empty());
    let finished_events = results
        .events
        .iter()
        .filter(|e| e.state == JobState::Finished)
        .count();
    assert_eq!(finished_events, 50);
    for e in &results.events {
        if e.state == JobState::Finished {
            assert!(!e.site.is_empty());
            assert!(e.assigned_jobs >= e.finished_jobs);
        }
    }
}

#[test]
fn failure_injection_and_retries() {
    let platform = example_platform();
    let trace = TraceGenerator::new(TraceConfig::with_jobs(200, 21)).generate(&platform);
    let exec = ExecutionConfig {
        failure_probability: 0.3,
        max_retries: 0,
        ..Default::default()
    };
    let results = run_on(&platform, trace, "least-loaded", exec.clone());
    assert!(results.metrics.failed_jobs > 20);
    assert!(results.metrics.failure_rate > 0.1);
    assert!(results.metrics.failure_rate < 0.6);
    // With retries allowed, the failure rate drops substantially.
    let trace2 = TraceGenerator::new(TraceConfig::with_jobs(200, 21)).generate(&platform);
    let exec2 = ExecutionConfig {
        max_retries: 3,
        ..exec
    };
    let retried = run_on(&platform, trace2, "least-loaded", exec2);
    assert!(retried.metrics.failure_rate < results.metrics.failure_rate);
    assert_eq!(retried.outcomes.len(), 200);
}

#[test]
fn single_site_contention_causes_queueing() {
    // 40 cores, many concurrent single-core jobs -> some must queue.
    let platform = single_site_platform(40, 10.0);
    let mut cfg = TraceConfig::with_jobs(200, 4);
    cfg.submission_window_s = 0.0; // all at t=0
    cfg.multicore_fraction = 0.0;
    let trace = TraceGenerator::new(cfg).generate(&platform);
    let results = run_on(&platform, trace, "least-loaded", ExecutionConfig::default());
    let queued = results
        .outcomes
        .iter()
        .filter(|o| o.queue_time() > 1.0)
        .count();
    assert!(queued > 100, "expected significant queueing, got {queued}");
    // Utilisation of the single site should be high.
    assert!(results.metrics.cpu_utilisation(40) > 0.5);
}

#[test]
fn time_shared_mode_completes_all_jobs() {
    let platform = single_site_platform(64, 10.0);
    let mut cfg = TraceConfig::with_jobs(80, 6);
    cfg.multicore_fraction = 0.5;
    let trace = TraceGenerator::new(cfg).generate(&platform);
    let exec = ExecutionConfig {
        compute_mode: ComputeMode::TimeShared,
        ..Default::default()
    };
    let results = run_on(&platform, trace, "least-loaded", exec);
    assert_eq!(results.outcomes.len(), 80);
    assert!(results.outcomes.iter().all(|o| o.succeeded()));
}

#[test]
fn custom_plugin_policy_is_honoured() {
    struct PinToSite(SiteId);
    impl AllocationPolicy for PinToSite {
        fn name(&self) -> &str {
            "pin"
        }
        fn assign_job(&mut self, _job: &JobRecord, _view: &GridView) -> Option<SiteId> {
            Some(self.0)
        }
    }
    let platform_spec = example_platform();
    let platform = Platform::build(&platform_spec).unwrap();
    let bnl = platform.site_by_name("BNL").unwrap();
    let trace = TraceGenerator::new(TraceConfig::with_jobs(60, 19)).generate(&platform_spec);
    let results = Simulation::builder()
        .platform(platform)
        .trace(trace)
        .policy(Box::new(PinToSite(bnl)))
        .execution(ExecutionConfig::default())
        .run()
        .unwrap();
    assert!(results.outcomes.iter().all(|o| o.site() == "BNL"));
    assert_eq!(results.policy, "pin");
}

#[test]
fn out_of_range_policy_decision_is_counted_not_hidden() {
    // A buggy plugin that points the first decision for every job at a site
    // far outside the platform, then behaves on re-dispatch (so the run still
    // finishes). The defect must surface in the grid-level monitoring
    // counters instead of masquerading as an overloaded grid.
    struct OffByAMile {
        bogus_sent: bool,
    }
    impl AllocationPolicy for OffByAMile {
        fn name(&self) -> &str {
            "off-by-a-mile"
        }
        fn assign_job(&mut self, _job: &JobRecord, view: &GridView) -> Option<SiteId> {
            if !self.bogus_sent {
                self.bogus_sent = true;
                Some(SiteId::new(9_999))
            } else {
                Some(view.sites[0].site)
            }
        }
    }
    let platform = example_platform();
    let trace = TraceGenerator::new(TraceConfig::with_jobs(40, 31)).generate(&platform);
    let results = Simulation::builder()
        .platform_spec(&platform)
        .unwrap()
        .trace(trace)
        .policy(Box::new(OffByAMile { bogus_sent: false }))
        .execution(ExecutionConfig::default())
        .run()
        .unwrap();
    assert_eq!(results.grid_counters.invalid_policy_decisions, 1);
    // The parked job was re-dispatched once capacity freed up: nothing lost.
    assert_eq!(results.outcomes.len(), 40);
    assert!(results
        .outcomes
        .iter()
        .all(|o| o.final_state().is_terminal()));
}

#[test]
fn valid_runs_report_zero_invalid_decisions() {
    let results = run_with("least-loaded", 50, 13);
    assert_eq!(results.grid_counters.invalid_policy_decisions, 0);
}

/// The ISSUE-2 determinism gate: the same 2-site/50-job scenario run twice in
/// one process must produce bit-identical results — makespan, per-job
/// walltimes and the engine event count. This covers the fluid model's slab
/// iteration order (a randomly seeded hash map on the share-recomputation
/// path would fail this test with some probability per run).
#[test]
fn two_site_scenario_is_bit_identical_across_runs() {
    let run_once = |mode: ComputeMode| {
        let platform = cgsim_platform::presets::wlcg_platform(2, 77);
        let mut cfg = TraceConfig::with_jobs(50, 77);
        cfg.mean_file_bytes = 5e8; // meaningful staging traffic over the fluid links
        let trace = TraceGenerator::new(cfg).generate(&platform);
        let exec = ExecutionConfig {
            compute_mode: mode,
            ..Default::default()
        };
        run_on(&platform, trace, "least-loaded", exec)
    };
    for mode in [ComputeMode::DedicatedCores, ComputeMode::TimeShared] {
        let a = run_once(mode);
        let b = run_once(mode);
        assert_eq!(a.makespan_s.to_bits(), b.makespan_s.to_bits(), "{mode:?}");
        assert_eq!(a.engine_events, b.engine_events, "{mode:?}");
        assert_eq!(a.outcomes.len(), 50);
        assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.id(), y.id(), "{mode:?}");
            assert_eq!(x.site(), y.site(), "{mode:?}");
            assert_eq!(x.walltime().to_bits(), y.walltime().to_bits(), "{mode:?}");
            assert_eq!(
                x.queue_time().to_bits(),
                y.queue_time().to_bits(),
                "{mode:?}"
            );
            assert_eq!(x.end_time().to_bits(), y.end_time().to_bits(), "{mode:?}");
            assert_eq!(x.staged_bytes(), y.staged_bytes(), "{mode:?}");
        }
    }
}

#[test]
fn builder_reports_missing_components_and_unknown_policies() {
    let err = Simulation::builder().run().unwrap_err();
    assert!(matches!(err, SimulationError::MissingComponent("platform")));
    let platform = example_platform();
    let trace = TraceGenerator::new(TraceConfig::with_jobs(5, 1)).generate(&platform);
    let err = Simulation::builder()
        .platform_spec(&platform)
        .unwrap()
        .trace(trace)
        .execution(ExecutionConfig::with_policy("does-not-exist"))
        .run()
        .unwrap_err();
    assert!(matches!(err, SimulationError::UnknownPolicy(_)));
    assert!(err.to_string().contains("does-not-exist"));
}

#[test]
fn horizon_truncates_the_run() {
    let platform = example_platform();
    let trace = TraceGenerator::new(TraceConfig::with_jobs(200, 23)).generate(&platform);
    let exec = ExecutionConfig {
        horizon_s: Some(60.0),
        ..Default::default()
    };
    let results = run_on(&platform, trace, "least-loaded", exec);
    assert!(results.outcomes.len() < 200);
    assert!(results.makespan_s <= 60.0 + 1e-6);
}

#[test]
fn monitoring_can_be_disabled() {
    let platform = example_platform();
    let trace = TraceGenerator::new(TraceConfig::with_jobs(40, 29)).generate(&platform);
    let exec = ExecutionConfig {
        monitoring: cgsim_monitor::MonitoringConfig::disabled(),
        ..Default::default()
    };
    let results = run_on(&platform, trace, "least-loaded", exec);
    assert!(results.events.is_empty());
    assert_eq!(results.outcomes.len(), 40);
}

#[test]
fn queue_model_overhead_delays_job_starts() {
    let platform = example_platform();
    let trace = TraceGenerator::new(TraceConfig::with_jobs(120, 37)).generate(&platform);
    let baseline = run_on(
        &platform,
        trace.clone(),
        "least-loaded",
        ExecutionConfig::default(),
    );
    let exec = ExecutionConfig {
        queue_model: QueueModel::constant(300.0),
        ..Default::default()
    };
    let delayed = run_on(&platform, trace, "least-loaded", exec);
    let mean = |r: &SimulationResults| r.metrics.queue_time.as_ref().map(|s| s.mean).unwrap_or(0.0);
    // Every job pays the 300 s pilot overhead on top of core contention.
    assert!(
        mean(&delayed) >= mean(&baseline) + 299.0,
        "queue model ignored: baseline {} vs delayed {}",
        mean(&baseline),
        mean(&delayed)
    );
    assert_eq!(delayed.outcomes.len(), 120);
    assert!(delayed
        .outcomes
        .iter()
        .all(|o| o.final_state().is_terminal()));
}

#[test]
fn never_cache_data_policy_stages_more_bytes() {
    let platform = example_platform();
    let trace = TraceGenerator::new(TraceConfig::with_jobs(150, 43)).generate(&platform);
    let never_exec = ExecutionConfig {
        data_movement_policy: "never-cache".to_string(),
        ..Default::default()
    };
    let never = run_on(&platform, trace.clone(), "historical-panda", never_exec);
    let default = run_on(
        &platform,
        trace,
        "historical-panda",
        ExecutionConfig::default(),
    );
    // Without cache admission every job of a task re-stages its input.
    assert!(
        never.metrics.staged_bytes > default.metrics.staged_bytes,
        "never-cache {} vs default {}",
        never.metrics.staged_bytes,
        default.metrics.staged_bytes
    );
}

#[test]
fn unknown_data_policy_is_reported() {
    let platform = example_platform();
    let trace = TraceGenerator::new(TraceConfig::with_jobs(5, 3)).generate(&platform);
    let exec = ExecutionConfig {
        data_movement_policy: "no-such-data-policy".to_string(),
        ..Default::default()
    };
    let err = Simulation::builder()
        .platform_spec(&platform)
        .unwrap()
        .trace(trace)
        .execution(exec)
        .run()
        .unwrap_err();
    assert!(matches!(err, SimulationError::UnknownDataPolicy(_)));
    assert!(err.to_string().contains("no-such-data-policy"));
}

#[test]
fn custom_data_policy_instance_is_honoured() {
    use cgsim_policies::{CachePolicy, DataMovementPolicy};
    struct NoCache;
    impl DataMovementPolicy for NoCache {
        fn name(&self) -> &str {
            "test-no-cache"
        }
        fn cache_decision(&mut self, _job: &JobRecord, _site: SiteId) -> CachePolicy {
            CachePolicy::NoCache
        }
    }
    let platform = example_platform();
    let trace = TraceGenerator::new(TraceConfig::with_jobs(100, 47)).generate(&platform);
    let custom = Simulation::builder()
        .platform_spec(&platform)
        .unwrap()
        .trace(trace.clone())
        .data_policy(Box::new(NoCache))
        .execution(ExecutionConfig::with_policy("historical-panda"))
        .run()
        .unwrap();
    let default = run_on(
        &platform,
        trace,
        "historical-panda",
        ExecutionConfig::default(),
    );
    assert!(custom.metrics.staged_bytes >= default.metrics.staged_bytes);
}

#[test]
fn multicore_jobs_use_more_cores_of_the_site() {
    let results = run_with("least-loaded", 100, 31);
    assert!(results
        .outcomes
        .iter()
        .any(|o| o.kind() == JobKind::MultiCore && o.cores() == 8));
    // Dashboard panels reflect the platform.
    assert_eq!(results.site_panels.len(), 4);
    assert!(results.site_panels.iter().all(|p| p.busy_cores == 0));
}

// ---------------------------------------------------------------------------
// White-box tests of the maintained policy view and the state it mirrors:
// the engine is stepped one event at a time and the model inspected between
// events.
// ---------------------------------------------------------------------------

use cgsim_faults::{parse_fault_spec, FaultAction, FaultEvent, FaultPlan, FaultTopology};
use cgsim_platform::{SiteSpec, Tier};
use cgsim_workload::TaskId;

use super::broker::NO_JOB;
use super::GridModel;
use crate::config::{CheckpointConfig, RepairConfig};

/// Runs `sim` to completion one event at a time, calling `check` with the
/// model and the current virtual time after every event.
fn step_through(sim: Simulation, mut check: impl FnMut(&GridModel, f64)) -> GridModel {
    let (mut engine, mut model) = sim.start();
    while engine.step(&mut model) {
        check(&model, engine.now().as_secs());
    }
    model
}

/// `count` single-core jobs submitted at t = 0, each its own task (so each
/// stages and keeps its own 2 GB dataset), `work_s` seconds on a 10-speed
/// core.
fn per_task_trace(count: usize, work_s: f64) -> Trace {
    let jobs = (0..count)
        .map(|i| {
            let mut record = JobRecord::new(i as u64, JobKind::SingleCore, 1, work_s * 10.0);
            record.task_id = TaskId(i as u64);
            record.input_bytes = 2_000_000_000;
            record
        })
        .collect();
    Trace {
        jobs,
        ..Trace::default()
    }
}

#[test]
fn maintained_view_follows_outage_recovery_node_loss_and_repairs() {
    // 40 cores for 100 two-hour jobs dealt round-robin: sites queue. Site 0
    // goes down and comes back (kills, bounced queue, parked jobs, evicted
    // replicas -> repairs), then site 1 loses and regains half its nodes.
    let platform = PlatformSpec::new("mirror")
        .with_site(SiteSpec::uniform("A", Tier::Tier1, 16, 10.0))
        .with_site(SiteSpec::uniform("B", Tier::Tier2, 16, 10.0))
        .with_site(SiteSpec::uniform("C", Tier::Tier2, 8, 10.0));
    let at = |time_s: f64, action: FaultAction| FaultEvent { time_s, action };
    let plan = FaultPlan {
        events: vec![
            at(1_000.0, FaultAction::SiteDown { site: 0 }),
            at(2_000.0, FaultAction::SiteUp { site: 0 }),
            at(
                3_000.0,
                FaultAction::NodeLoss {
                    site: 1,
                    fraction: 0.5,
                },
            ),
            at(4_000.0, FaultAction::NodeRestore { site: 1 }),
        ],
    };
    let exec = ExecutionConfig {
        repair: RepairConfig {
            enabled: true,
            max_concurrent: 2,
            ..RepairConfig::default()
        },
        ..ExecutionConfig::default()
    };
    let sim = Simulation::builder()
        .platform_spec(&platform)
        .unwrap()
        .trace(per_task_trace(100, 7_200.0))
        .execution(ExecutionConfig {
            allocation_policy: "round-robin".into(),
            ..exec
        })
        .fault_plan(plan)
        .build()
        .unwrap();

    let (mut saw_queue, mut saw_down, mut saw_repair, mut saw_loss) = (false, false, false, false);
    let model = step_through(sim, |model, now| {
        // Every mirrored per-site field equals its from-scratch rebuild, and
        // no per-call replica flag outlives its policy call.
        assert_eq!(
            model.view.sites,
            model.reference_view(0.0, None).sites,
            "view diverged at t = {now}"
        );
        let [a, b, _] = &model.view.sites[..] else {
            panic!("three sites")
        };
        saw_queue |= a.queued_jobs > 0 && a.running_jobs == 16 && a.available_cores == 0;
        if (1_000.0..2_000.0).contains(&now) {
            assert!(!a.up, "site A is down at t = {now}");
            assert_eq!(
                (a.running_jobs, a.queued_jobs, a.available_cores),
                (0, 0, 16)
            );
            saw_down = true;
        } else {
            assert!(a.up, "site A is up at t = {now}");
        }
        if (3_000.0..4_000.0).contains(&now) {
            assert_eq!(b.available_cores + b.running_jobs, 8, "half of B is lost");
            saw_loss = true;
        } else {
            assert_eq!(b.available_cores + b.running_jobs, 16);
        }
        saw_repair |= model.view.sites.iter().any(|s| s.active_repairs > 0);
    });
    assert!(saw_queue && saw_down && saw_loss && saw_repair);

    let finished: u64 = model.view.sites.iter().map(|s| s.finished_jobs).sum();
    assert_eq!(finished, 100, "every job finishes (fault retries suffice)");
    assert!(model
        .view
        .sites
        .iter()
        .all(|s| s.active_repairs == 0 && s.running_jobs == 0 && s.queued_jobs == 0));
    let counters = model.collector.grid_counters;
    assert!(counters.repairs_started > 0);
    assert_eq!(counters.site_outages, 1);
}

#[test]
fn a_site_keeps_its_staged_replicas_however_small_its_storage() {
    // 0.05 TB of storage: a cache bounded at 10 % of it would hold two of
    // the 2 GB task inputs. Thirty tasks cycle three times through one
    // core, so by the time a task comes round again, 28 other inputs have
    // been staged there since its own. Replicas are kept without a byte
    // bound, so every later job of a task the site has run stages nothing.
    let mut site = SiteSpec::uniform("Small", Tier::Tier2, 1, 10.0);
    site.storage_tb = 0.05;
    let platform = PlatformSpec::new("small-disk").with_site(site);
    let tasks = 30;
    let mut trace = per_task_trace(3 * tasks, 60.0);
    for (i, record) in trace.jobs.iter_mut().enumerate() {
        record.task_id = TaskId((i % tasks) as u64);
    }
    let task_of: HashMap<u64, u64> = trace.jobs.iter().map(|r| (r.id.0, r.task_id.0)).collect();
    let results = run_on(&platform, trace, "least-loaded", ExecutionConfig::default());
    assert_eq!(results.metrics.finished_jobs, 3 * tasks as u64);
    let mut outcomes: Vec<_> = results.outcomes.iter().collect();
    outcomes.sort_by(|a, b| a.start_time().total_cmp(&b.start_time()));
    let mut ran = std::collections::HashSet::new();
    for o in outcomes {
        let expected = if ran.insert(task_of[&o.id().0]) {
            2_000_000_000
        } else {
            0
        };
        assert_eq!(o.staged_bytes(), expected, "{o:?}");
    }
    assert_eq!(ran.len(), tasks);
}

#[test]
fn running_list_keeps_start_order_like_the_vec_it_replaced() {
    // Reference twin of the intrusive running list: a `Vec` with `push` and
    // `retain`, under a random admit/release interleaving at two sites.
    let sim = Simulation::builder()
        .platform_spec(&example_platform())
        .unwrap()
        .trace(per_task_trace(200, 1.0))
        .build()
        .unwrap();
    let (_, mut model) = sim.start();
    let sites = [SiteId::new(0), SiteId::new(1)];
    let mut reference: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    let mut rng = cgsim_des::rng::Rng::new(11);
    let mut next_job = 0;
    for _ in 0..2_000 {
        let s = rng.index(2);
        if next_job < 200 && rng.chance(0.55) {
            model.sites[s].queue.push_back(next_job as u32);
            model.admit_front(sites[s], next_job, 1);
            reference[s].push(next_job);
            next_job += 1;
        } else if !reference[s].is_empty() {
            let victim = reference[s][rng.index(reference[s].len())];
            model.release_cores(victim, sites[s]);
            model.release_cores(victim, sites[s]); // idempotent
            reference[s].retain(|&j| j != victim);
        }
        for (site, expected) in sites.iter().zip(&reference) {
            assert_eq!(&model.running_at(*site).collect::<Vec<_>>(), expected);
            assert_eq!(model.last_running_at(*site), expected.last().copied());
            let load = &model.view.sites[site.index()];
            assert_eq!(load.running_jobs, expected.len() as u64);
            let total = model.platform.site(*site).total_cores;
            assert_eq!(load.available_cores + load.running_jobs, total);
        }
    }
}

/// FNV-1a over every recorded transition, in delivery order.
fn transition_fingerprint(results: &SimulationResults) -> u64 {
    use crate::scenario::hash::fnv1a;
    results.events.iter().fold(0xcbf2_9ce4_8422_2325, |h, e| {
        let h = fnv1a(h, &e.time_s.to_bits().to_le_bytes());
        let h = fnv1a(h, &e.job_id.0.to_le_bytes());
        let h = fnv1a(h, e.state.to_string().as_bytes());
        fnv1a(h, e.site.as_bytes())
    })
}

#[test]
fn tied_submissions_deliver_in_the_pinned_order() {
    // Goldens recorded at the parent of the sorted-lane change, where every
    // `Submit` went through the heap with seqs 0..n: time ties among
    // submissions keep job-index order, and a submission beats any dynamic
    // event of the same time.
    let platform = example_platform();
    let mut burst = TraceGenerator::new(TraceConfig::with_jobs(300, 17)).generate(&platform);
    for job in &mut burst.jobs {
        job.submit_time = 0.0;
    }
    let results = run_on(
        &platform,
        burst.clone(),
        "least-loaded",
        ExecutionConfig::default(),
    );
    assert_eq!(results.events.first().map(|e| e.time_s), Some(0.0));
    assert_eq!(transition_fingerprint(&results), 0x8f39_69a1_7a25_032e);
    assert_eq!(results.engine_events, 1200);

    // Submissions every 60 s against a constant 60 s pilot delay: each wave
    // of `Submit`s (lane) ties with the previous wave's `PilotStart`s (heap).
    let mut waves = burst;
    for (i, job) in waves.jobs.iter_mut().enumerate() {
        job.submit_time = 60.0 * (i / 50) as f64;
    }
    let exec = ExecutionConfig {
        queue_model: QueueModel::constant(60.0),
        ..ExecutionConfig::default()
    };
    let first_wave: Vec<_> = waves.jobs[..50].iter().map(|j| j.id).collect();
    let results = run_on(&platform, waves, "round-robin", exec);
    assert!(
        results.events.iter().any(|e| e.time_s == 60.0
            && first_wave.contains(&e.job_id)
            && matches!(e.state, JobState::Staging | JobState::Running)),
        "no pilot start tied with the second wave's submissions"
    );
    assert_eq!(transition_fingerprint(&results), 0xf029_3a19_bd8f_1640);
    assert_eq!(results.engine_events, 1259);
}

#[test]
fn per_job_state_stays_small() {
    // One `JobRuntime` per job for the whole run (README, "Every job is
    // stored once"); what a job needs once it has held cores lives in its
    // attempt record, and what it needs while holding them in its run slot.
    // Debug builds add a generation to each of the two slot ids.
    use std::mem::size_of;
    let runtime = size_of::<super::job_runtime::JobRuntime>();
    assert!(runtime <= if cfg!(debug_assertions) { 36 } else { 28 });
    // Every submission waits in the engine's lane as a (time, event) pair.
    assert!(size_of::<super::events::GridEvent>() <= 8);
    assert!(size_of::<(cgsim_des::SimTime, super::events::GridEvent)>() <= 16);
}

#[test]
fn traces_the_u32_indices_cannot_address_are_refused() {
    let limit = super::JOB_INDICES;
    assert!(super::check_indexable("the trace", u32::MAX as usize, limit).is_ok());
    assert!(matches!(
        super::check_indexable("the trace", u32::MAX as usize + 1, limit),
        Err(SimulationError::InvalidScenario(msg)) if msg.contains("the trace has 4294967296")
    ));
}

#[test]
fn platforms_the_u16_site_indices_cannot_address_are_refused() {
    // Outcome rows hold a `u16` site index. `build_platform` runs this check
    // on a spec's site count before building it (a platform that size would
    // route (sites + 1)² endpoint pairs), `build` again on a built platform;
    // the check is driven with the count alone.
    let limit = u16::MAX.into();
    assert!(super::check_indexable("the platform", 65_535, limit).is_ok());
    assert!(matches!(
        super::check_indexable("the platform", 65_536, limit),
        Err(SimulationError::InvalidScenario(msg))
            if msg == "the platform has 65536 entries, more than the 65535 a run can index"
    ));
}

#[test]
fn sites_past_u32_cores_are_refused() {
    // Outcome rows keep the cores a site had free at assignment as a `u32`.
    let mut spec = single_site_platform(8, 10.0);
    let hosts = &mut spec.sites[0].hosts;
    hosts[0].cores = u32::MAX;
    hosts.push(hosts[0].clone());
    hosts[1].name.push('2');
    let result = Simulation::builder()
        .platform_spec(&spec)
        .unwrap()
        .trace(Trace::default())
        .build();
    assert!(matches!(
        result,
        Err(SimulationError::InvalidScenario(msg))
            if msg == "the largest site's core pool has 8589934590 entries, \
                       more than the 4294967295 a run can index"
    ));
}

/// Drives one [`Slots`](super::job_runtime::Slots) instance against its
/// reference twin — ticket number -> handle, the ticket stored in the slot
/// through `stamp` / `read` — over random takes and releases. A slot comes
/// back as `T::default()` under a fresh id and every retired handle misses.
fn slots_match_a_hash_map<T: Default>(
    stamp: impl Fn(&mut T, u32),
    read: impl Fn(&T) -> Option<u32>,
) {
    use super::job_runtime::{Slots, NO_SLOT};
    let mut slots = Slots::<T>::default();
    let mut reference = HashMap::new();
    let mut retired = Vec::new();
    let (mut rng, mut peak) = (cgsim_des::rng::Rng::new(5), 0);
    for ticket in 0..5_000u32 {
        if reference.len() < 40 && rng.chance(0.55) {
            let id = slots.take();
            assert!(!retired.contains(&id), "a fresh id per tenure");
            assert_eq!(read(slots.get(id).unwrap()), None, "handed out fresh");
            stamp(slots.get_mut(id).unwrap(), ticket);
            reference.insert(ticket, id);
        } else if let Some(&victim) = reference.keys().min() {
            let id = reference.remove(&victim).unwrap();
            slots.release(id);
            retired.push(id);
        }
        assert_eq!(slots.live(), reference.len());
        peak = peak.max(reference.len());
        assert_eq!(slots.high_water(), peak);
        for (&ticket, &id) in &reference {
            assert_eq!(read(slots.get(id).unwrap()), Some(ticket));
        }
    }
    assert!(retired.iter().all(|&id| slots.get(id).is_none()));
    assert!(slots.get(NO_SLOT).is_none());
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "slot ids carry a generation in debug builds only"
)]
fn run_slots_match_a_hash_map_under_random_churn() {
    use super::job_runtime::{AttemptRecord, RunState};
    // Both instances of the slab: a fresh run slot is on no running list.
    slots_match_a_hash_map(
        |run: &mut RunState, ticket| run.frac_done = f64::from(ticket) + 1.0,
        |run| {
            assert_eq!(run.run_next, NO_JOB);
            (run.frac_done > 0.0).then(|| run.frac_done as u32 - 1)
        },
    );
    slots_match_a_hash_map(
        |attempt: &mut AttemptRecord, ticket| attempt.staged_bytes = u64::from(ticket) + 1,
        |attempt| attempt.staged_bytes.checked_sub(1).map(|t| t as u32),
    );
}

#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "slot ids carry a generation in debug builds only"
)]
fn a_killed_and_resubmitted_job_gets_a_fresh_run_slot() {
    // Kills, outages and node loss over a checkpointing run: every tenure of
    // cores is a new slot id, the old id misses from the moment the cores are
    // released, and the slab never holds more than the running lists do.
    let platform = example_platform();
    let trace = TraceGenerator::new(TraceConfig::with_jobs(300, 5)).generate(&platform);
    let spec = "outage:site=all,mttf=4h,mttr=20m;nodeloss:site=all,fraction=0.4,mttf=3h,mttr=30m;kill:rate=6";
    let topology = FaultTopology::for_platform(&Platform::build(&platform).unwrap(), 300);
    let plan = FaultPlan::generate(&parse_fault_spec(spec).unwrap(), &topology, 3);
    let exec = ExecutionConfig {
        checkpoint: CheckpointConfig {
            interval_s: 1_800.0,
            ..CheckpointConfig::default()
        },
        ..ExecutionConfig::default()
    };
    let sim = Simulation::builder()
        .platform_spec(&platform)
        .unwrap()
        .trace(trace)
        .execution(exec)
        .fault_plan(plan)
        .build()
        .unwrap();

    let none = super::job_runtime::NO_SLOT;
    let mut last = vec![none; 300];
    let mut retired = vec![Vec::new(); 300];
    let (mut readmitted, mut peak) = (0, 0);
    let model = step_through(sim, |model, now| {
        for (idx, job) in model.jobs.iter().enumerate() {
            if job.slot != last[idx] {
                if last[idx] != none {
                    retired[idx].push(last[idx]);
                }
                if job.slot != none {
                    assert!(!retired[idx].contains(&job.slot), "job {idx} at t = {now}");
                    readmitted += usize::from(!retired[idx].is_empty());
                }
                last[idx] = job.slot;
            }
            assert_eq!(model.running.get(job.slot).is_some(), job.slot != none);
            assert!(retired[idx]
                .iter()
                .all(|&id| model.running.get(id).is_none()));
        }
        let running: u64 = model.sites.iter().map(|s| s.running_jobs()).sum();
        assert_eq!(model.running.live() as u64, running, "t = {now}");
        peak = peak.max(model.running.live());
        // An attempt record is held from the first cores to the terminal
        // state, so by every job holding cores and every resubmitted one.
        let attempts = model.jobs.iter().filter(|job| {
            let held = model.attempts.get(job.attempt).is_some();
            assert_eq!(held, job.attempt != none, "t = {now}");
            assert!(!(held && job.state.is_terminal()), "t = {now}");
            held
        });
        assert_eq!(model.attempts.live(), attempts.count(), "t = {now}");
        assert!(model.attempts.live() >= model.running.live());
    });
    assert!(readmitted > 0, "no killed job ran again");
    assert!(model.collector.grid_counters.job_interruptions > 0);
    assert_eq!(
        model.running.live(),
        0,
        "the last terminal job kept its slot"
    );
    assert_eq!(model.attempts.live(), 0, "a terminal job kept its attempt");
    let cores: u64 = model.platform.sites().iter().map(|s| s.total_cores).sum();
    assert!(
        peak > 0 && peak as u64 <= cores,
        "{peak} slots for {cores} cores"
    );
}
