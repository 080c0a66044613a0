//! End-to-end battery for checkpoint/restart under fault injection:
//!
//! * a checkpointed run recomputes strictly less work (and takes no longer)
//!   than a scratch-rerun run under the same fault schedule,
//! * a checkpoint destroyed by a disk fault falls back to an older surviving
//!   checkpoint at another node, and to a scratch rerun when nothing
//!   survives,
//! * a zero-checkpoint configuration is byte-identical to the default one,
//! * a faulted + checkpointed double-run is bit-identical,
//! * an in-flight staging transfer whose *source site* dies mid-flight is
//!   re-planned from the surviving replicas while its job lives on
//!   elsewhere (the data-loss audit regression).

use cgsim_core::{
    CheckpointConfig, CheckpointTarget, ExecutionConfig, Simulation, SimulationResults,
};
use cgsim_faults::{parse_fault_spec, FaultAction, FaultEvent, FaultPlan, FaultTopology};
use cgsim_platform::spec::MAIN_SERVER;
use cgsim_platform::{LinkSpec, NodeId, PlatformSpec, SiteId, SiteSpec, Tier};
use cgsim_workload::{JobKind, JobRecord, Trace};

fn two_site_platform() -> PlatformSpec {
    PlatformSpec::new("checkpointed")
        .with_site(SiteSpec::uniform("Big", Tier::Tier1, 2_000, 10.0))
        .with_site(SiteSpec::uniform("Small", Tier::Tier2, 400, 10.0))
        .with_link(LinkSpec::new("Big", MAIN_SERVER, 100.0, 10.0))
        .with_link(LinkSpec::new("Small", MAIN_SERVER, 100.0, 10.0))
}

/// `count` identical single-core jobs at t = 0, `work_s` seconds of work on
/// a 10-speed core, tiny input, no output stage-out.
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

/// Small, cheap checkpoints so write overhead stays negligible next to the
/// recomputation they save.
fn cheap_checkpoints(interval_s: f64, target: CheckpointTarget) -> CheckpointConfig {
    CheckpointConfig {
        interval_s,
        base_bytes: 100_000_000,
        bytes_per_core: 0,
        target,
        ..CheckpointConfig::default()
    }
}

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
fn checkpointed_run_recomputes_less_work_than_scratch() {
    // 60 one-hour jobs, all at Big; Big dies at t = 2700 (75 % through) for
    // 10 minutes. Scratch reruns pay the full 45 min per job again; with
    // 10-minute checkpoints to the main server at most ~10 min per job is
    // recomputed.
    let trace = flat_trace(60, 3_600.0);
    let plan = one_outage(2_700.0, 600.0);

    let scratch = run(
        Some(plan.clone()),
        ExecutionConfig::default(),
        trace.clone(),
    );
    let exec = ExecutionConfig {
        checkpoint: cheap_checkpoints(600.0, CheckpointTarget::MainServer),
        ..ExecutionConfig::default()
    };
    let checkpointed = run(Some(plan), exec, trace);

    // Both runs saw the same schedule and completed the workload.
    for r in [&scratch, &checkpointed] {
        assert_eq!(r.grid_counters.site_outages, 1);
        assert_eq!(r.grid_counters.job_interruptions, 60);
        assert_eq!(r.metrics.finished_jobs, 60);
        assert_eq!(r.metrics.failed_jobs, 0);
    }

    // The scratch run discarded ~45 min x 60 jobs of completed work; the
    // checkpointed run recomputes strictly less and finishes no later.
    assert_eq!(scratch.grid_counters.checkpoints_written, 0);
    assert!(checkpointed.grid_counters.checkpoints_written >= 60 * 4);
    assert_eq!(checkpointed.grid_counters.checkpoint_restores, 60);
    assert!(checkpointed.grid_counters.work_saved_s > 0.0);
    assert!(
        checkpointed.grid_counters.work_lost_s < scratch.grid_counters.work_lost_s,
        "checkpointed lost {} s vs scratch {} s",
        checkpointed.grid_counters.work_lost_s,
        scratch.grid_counters.work_lost_s
    );
    assert!(
        checkpointed.makespan_s <= scratch.makespan_s,
        "checkpointed makespan {} vs scratch {}",
        checkpointed.makespan_s,
        scratch.makespan_s
    );
    // The scratch run threw away ~2700 s per job (minus pre-kill staging);
    // sanity-check the magnitude so the counter means what it claims.
    assert!(scratch.grid_counters.work_lost_s > 60.0 * 2_000.0);
    assert!(checkpointed.grid_counters.work_lost_s < 60.0 * 1_000.0);
}

#[test]
fn disk_fault_falls_back_to_older_checkpoint_then_scratch() {
    // One 2 h job at Big with site-local checkpoints every 10 min.
    //
    //  t=1500  node loss kills the job at Big; its Big checkpoint (t=1200,
    //          frac 1/6) survives on disk, so the resume at Small re-stages
    //          it over the WAN            -> restore #1 (remote, from Big)
    //  t=4000  disk loss at Small destroys the newer Small checkpoints;
    //          the older Big checkpoint survives
    //  t=4200  targeted kill; recovery falls back to the *older* Big
    //          checkpoint                 -> restore #2 (remote, from Big)
    let trace = flat_trace(1, 7_200.0);
    let plan = FaultPlan {
        events: vec![
            FaultEvent {
                time_s: 1_500.0,
                action: FaultAction::NodeLoss {
                    site: 0,
                    fraction: 1.0,
                },
            },
            FaultEvent {
                time_s: 4_000.0,
                action: FaultAction::DiskLoss { site: 1 },
            },
            FaultEvent {
                time_s: 4_200.0,
                action: FaultAction::KillJob { job: 0 },
            },
        ],
    };
    let exec = ExecutionConfig {
        checkpoint: cheap_checkpoints(600.0, CheckpointTarget::SiteStorage),
        ..ExecutionConfig::default()
    };
    let results = run(Some(plan), exec, trace);

    let g = &results.grid_counters;
    assert_eq!(g.disk_losses, 1);
    assert_eq!(g.job_interruptions, 2);
    assert_eq!(g.checkpoint_restores, 2, "both kills restored remotely");
    assert!(
        g.checkpoints_lost >= 1,
        "the Small checkpoint was destroyed"
    );
    assert_eq!(results.metrics.finished_jobs, 1);
    assert_eq!(results.metrics.failed_jobs, 0);
    // Both restores resumed from the same t=1200 Big checkpoint (frac 1/6 of
    // a 7200 s job): ~1200 s saved each.
    assert!(
        (g.work_saved_s - 2_400.0).abs() < 300.0,
        "work saved: {} s",
        g.work_saved_s
    );
    // The job was pushed to Small after Big's node loss.
    let outcome = results.outcomes.get(0).unwrap();
    assert_eq!(outcome.site(), "Small");
    // Restores re-staged checkpoint bytes on top of the (re-staged) input.
    assert!(outcome.staged_bytes() >= 2 * 100_000_000);
}

#[test]
fn scratch_rerun_when_no_checkpoint_survives() {
    // Same shape, but the kill lands while the job is still at Big and a
    // site outage (rather than node loss) destroys Big's storage: nothing
    // survives, so recovery is a scratch rerun with zero restores.
    let trace = flat_trace(1, 7_200.0);
    let plan = one_outage(1_500.0, 600.0);
    let exec = ExecutionConfig {
        checkpoint: cheap_checkpoints(600.0, CheckpointTarget::SiteStorage),
        ..ExecutionConfig::default()
    };
    let results = run(Some(plan), exec, trace);
    let g = &results.grid_counters;
    assert_eq!(g.job_interruptions, 1);
    assert_eq!(
        g.checkpoint_restores, 0,
        "site-local checkpoints died with Big"
    );
    assert!(g.checkpoints_lost >= 1);
    assert_eq!(results.metrics.finished_jobs, 1);
    // Everything computed before the outage was discarded.
    assert!(g.work_lost_s > 1_000.0);
}

#[test]
fn zero_checkpoint_config_is_byte_identical_to_default() {
    // interval 0 disables the subsystem completely: a config carrying wild
    // size/target settings (but interval 0) must reproduce the default
    // config's faulted run byte for byte.
    let config = parse_fault_spec(
        "outage:site=all,mttf=30m,mttr=10m;degrade:link=all,factor=0.25,mttf=1h,mttr=10m;kill:rate=6",
    )
    .unwrap();
    let topology = FaultTopology {
        sites: 2,
        links: vec![2, 3],
        jobs: 150,
    };
    let plan = FaultPlan::generate(&config, &topology, 7);

    let weird = ExecutionConfig {
        checkpoint: CheckpointConfig {
            interval_s: 0.0,
            base_bytes: u64::MAX / 4,
            bytes_per_core: 123_456_789,
            target: CheckpointTarget::MainServer,
            ..CheckpointConfig::default()
        },
        ..ExecutionConfig::default()
    };
    let a = run(
        Some(plan.clone()),
        ExecutionConfig::default(),
        flat_trace(150, 5_000.0),
    );
    let b = run(Some(plan), weird, flat_trace(150, 5_000.0));
    assert_eq!(a.deterministic_json(), b.deterministic_json());
    assert_eq!(a.engine_events, b.engine_events);
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.site(), y.site());
        assert_eq!(x.final_state(), y.final_state());
        assert_eq!(x.walltime().to_bits(), y.walltime().to_bits());
        assert_eq!(x.end_time().to_bits(), y.end_time().to_bits());
    }
    // The schedule actually produced churn, so the equality is meaningful.
    assert!(a.grid_counters.job_interruptions > 0);
    assert_eq!(a.grid_counters.checkpoints_written, 0);
}

#[test]
fn checkpointed_faulted_double_run_is_bit_identical() {
    let config = parse_fault_spec(
        "outage:site=all,mttf=40m,mttr=10m;diskloss:site=all,mttf=20m;kill:rate=4",
    )
    .unwrap();
    let topology = FaultTopology {
        sites: 2,
        links: vec![2, 3],
        jobs: 150,
    };
    let make = || {
        let plan = FaultPlan::generate(&config, &topology, 7);
        let exec = ExecutionConfig {
            checkpoint: cheap_checkpoints(900.0, CheckpointTarget::MainServer),
            ..ExecutionConfig::default()
        };
        run(Some(plan), exec, flat_trace(150, 5_000.0))
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
        assert_eq!(x.staged_bytes(), y.staged_bytes());
    }
    // The checkpoint machinery was genuinely exercised.
    assert!(a.grid_counters.checkpoints_written > 0);
    assert!(a.grid_counters.checkpoint_restores > 0);
    assert!(a.grid_counters.disk_losses > 0);
}

#[test]
fn data_loss_replay_counters_are_pinned() {
    // Regression pin for the indexed data-loss replay: the per-node
    // transfer-peer / checkpoint-holder indexes replaced the O(jobs) scans in
    // `repair_transfers_touching` and `invalidate_checkpoints_at`, and this
    // scenario — site-local checkpoints under outages, disk losses and kills,
    // so both walks fire repeatedly — must reproduce the integer counters the
    // scan implementation produced, exactly. (Debug builds additionally
    // cross-check index-vs-scan agreement on every data-loss event via
    // debug_asserts in the replay itself.)
    let config = parse_fault_spec(
        "outage:site=all,mttf=40m,mttr=10m;diskloss:site=all,mttf=20m;kill:rate=4",
    )
    .unwrap();
    let topology = FaultTopology {
        sites: 2,
        links: vec![2, 3],
        jobs: 150,
    };
    let plan = FaultPlan::generate(&config, &topology, 11);
    let exec = ExecutionConfig {
        checkpoint: cheap_checkpoints(900.0, CheckpointTarget::SiteStorage),
        ..ExecutionConfig::default()
    };
    let results = run(Some(plan), exec, flat_trace(150, 5_000.0));

    let g = &results.grid_counters;
    let staged_total: u64 = results.outcomes.iter().map(|o| o.staged_bytes()).sum();
    let pinned = (
        results.metrics.finished_jobs,
        results.metrics.failed_jobs,
        g.site_outages,
        g.disk_losses,
        g.job_interruptions,
        g.checkpoints_written,
        g.checkpoint_restores,
        g.checkpoints_lost,
        results.engine_events,
        staged_total,
    );
    assert_eq!(
        pinned,
        (142, 8, 3, 19, 317, 895, 7, 599, 1255, 1_154_000_000),
        "data-loss replay counters drifted from the scan implementation"
    );
}

/// Pins job 0 to Big and job 1 to Small regardless of load.
struct PinByJobId;
impl cgsim_policies::AllocationPolicy for PinByJobId {
    fn name(&self) -> &str {
        "pin-by-job-id"
    }
    fn assign_job(&mut self, job: &JobRecord, _view: &cgsim_policies::GridView) -> Option<SiteId> {
        Some(SiteId::new((job.id.0 % 2) as usize))
    }
}

/// Prefers the replica at Big (site 0) when one exists there.
struct PreferBigReplica;
impl cgsim_policies::DataMovementPolicy for PreferBigReplica {
    fn name(&self) -> &str {
        "prefer-big-replica"
    }
    fn select_source(
        &mut self,
        _job: &JobRecord,
        _destination: SiteId,
        candidates: &[NodeId],
    ) -> Option<NodeId> {
        candidates
            .iter()
            .copied()
            .find(|&n| n == NodeId::Site(SiteId::new(0)))
    }
}

#[test]
fn staging_transfer_from_dying_site_is_replanned_while_job_survives() {
    // Regression for the data-loss audit: job 1 stages its input *from a
    // replica at Big* while running at Small. Big dies mid-transfer; job 1
    // holds no cores at Big, so the old code path never cancelled the
    // transfer and it kept streaming bytes out of a dead site. The fix
    // re-plans the transfer from the surviving replicas (the main server).
    //
    //  t=0    job 0 runs at Big, stages 20 GB from the main server and
    //         caches the task dataset at Big (it finishes in seconds),
    //  t=100  job 1 starts at Small; the data policy sources the staging
    //         transfer from Big's replica (~2 s at full WAN speed),
    //  t=101  Big goes down mid-transfer.
    let mut trace = flat_trace(2, 10.0);
    for job in &mut trace.jobs {
        job.input_bytes = 20_000_000_000;
    }
    trace.jobs[1].submit_time = 100.0;
    let plan = one_outage(101.0, 3_600.0);

    let results = Simulation::builder()
        .platform_spec(&two_site_platform())
        .unwrap()
        .trace(trace)
        .policy(Box::new(PinByJobId))
        .data_policy(Box::new(PreferBigReplica))
        .execution(ExecutionConfig::default())
        .fault_plan(plan)
        .run()
        .unwrap();

    assert_eq!(results.grid_counters.site_outages, 1);
    // Job 1 was never killed: its cores were at Small the whole time.
    assert_eq!(results.grid_counters.job_interruptions, 0);
    assert_eq!(results.metrics.finished_jobs, 2);
    let job1 = results.outcomes.iter().find(|o| o.id().0 == 1).unwrap();
    assert_eq!(job1.site(), "Small");
    // The aborted Big transfer was re-planned and re-transferred in full
    // from the main server: 2 x 20 GB staged in total.
    assert_eq!(job1.staged_bytes(), 40_000_000_000);
    assert_eq!(job1.final_state(), cgsim_workload::JobState::Finished);
}
