//! End-to-end battery for the self-healing data layer:
//!
//! * a disk loss that evicts cached task inputs triggers re-replication, the
//!   repair ledger closes, and disabling repair keeps every counter at zero,
//! * asynchronous checkpoint writes overlap execution and finish the job
//!   sooner than synchronous writes of the same size,
//! * a write slower than the checkpoint interval stalls the job at the next
//!   segment boundary (bounded dirty state, never unbounded overlap),
//! * a kill landing mid-async-write restores from the newest *durable*
//!   checkpoint only — the in-flight snapshot is discarded,
//! * incremental shipping (`delta_bytes_per_s`) moves far fewer bytes for
//!   the same durable artifacts,
//! * disabled repair knobs + sync checkpointing are byte-identical to a run
//!   with the features absent.

use cgsim_core::{
    CheckpointConfig, CheckpointTarget, ExecutionConfig, RepairConfig, Simulation,
    SimulationResults,
};
use cgsim_faults::{parse_fault_spec, FaultAction, FaultEvent, FaultPlan, FaultTopology};
use cgsim_platform::spec::MAIN_SERVER;
use cgsim_platform::{LinkSpec, PlatformSpec, SiteSpec, Tier};
use cgsim_workload::{JobKind, JobRecord, TaskId, Trace};

/// Two sites on 100 Gbit/s WAN links (12.5 GB/s): checkpoint write times are
/// `bytes / 12.5e9` seconds, which the tests below size deliberately.
fn two_site_platform() -> PlatformSpec {
    PlatformSpec::new("self-healing")
        .with_site(SiteSpec::uniform("Big", Tier::Tier1, 2_000, 10.0))
        .with_site(SiteSpec::uniform("Small", Tier::Tier2, 400, 10.0))
        .with_link(LinkSpec::new("Big", MAIN_SERVER, 100.0, 10.0))
        .with_link(LinkSpec::new("Small", MAIN_SERVER, 100.0, 10.0))
}

/// `count` single-core jobs of `work_s` seconds (on a 10-speed core), each
/// in its *own task* so each stages — and caches — a distinct dataset.
fn per_task_trace(count: usize, work_s: f64, input_bytes: u64) -> Trace {
    let jobs = (0..count)
        .map(|i| {
            let mut record = JobRecord::new(i as u64, JobKind::SingleCore, 1, work_s * 10.0);
            record.task_id = TaskId(i as u64);
            record.input_bytes = input_bytes;
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

fn async_checkpoints(base_bytes: u64, delta_bytes_per_s: u64, overlap: bool) -> CheckpointConfig {
    CheckpointConfig {
        interval_s: 600.0,
        base_bytes,
        bytes_per_core: 0,
        target: CheckpointTarget::MainServer,
        overlap,
        delta_bytes_per_s,
    }
}

#[test]
fn disk_loss_triggers_re_replication_and_the_ledger_closes() {
    // 8 two-hour jobs, one dataset each (2 GB), cached at their execution
    // site. The disk loss at Big (t = 3000) evicts the cached replicas of
    // every dataset staged there while jobs keep running for hours — plenty
    // of time for the planner to re-establish the replication target of 2.
    let trace = per_task_trace(8, 7_200.0, 2_000_000_000);
    let plan = FaultPlan {
        events: vec![FaultEvent {
            time_s: 3_000.0,
            action: FaultAction::DiskLoss { site: 0 },
        }],
    };
    let exec = ExecutionConfig {
        repair: RepairConfig {
            enabled: true,
            max_concurrent: 2,
            ..RepairConfig::default()
        },
        ..ExecutionConfig::default()
    };
    let repaired = run(Some(plan.clone()), exec, trace.clone());

    let g = &repaired.grid_counters;
    assert_eq!(g.disk_losses, 1);
    assert!(
        g.repairs_started >= 1,
        "disk loss left no deficit to repair"
    );
    assert!(g.repairs_completed >= 1);
    assert_eq!(
        g.repairs_started,
        g.repairs_completed + g.repairs_cancelled,
        "admitted repairs leaked"
    );
    // Each repaired dataset is 2 GB, streamed in full.
    assert_eq!(g.repair_bytes, g.repairs_completed * 2_000_000_000);
    assert_eq!(g.repairs_abandoned, 0, "endpoints never died mid-repair");
    // The per-site dashboard column agrees with the grid total.
    let per_site: u64 = repaired.site_panels.iter().map(|p| p.repairs).sum();
    assert_eq!(per_site, g.repairs_completed);
    assert_eq!(repaired.metrics.finished_jobs, 8);

    // Feature off: the identical schedule runs with every counter flat.
    let off = run(Some(plan), ExecutionConfig::default(), trace);
    assert_eq!(off.grid_counters.repairs_started, 0);
    assert_eq!(off.grid_counters.repair_bytes, 0);
    assert_eq!(off.metrics.finished_jobs, 8);
}

#[test]
fn async_writes_overlap_execution_and_finish_sooner_than_sync() {
    // One 2 h job writing 1.25 TB checkpoints (100 s on the WAN) every
    // 600 s. Synchronous mode stalls ~100 s at each of the 11 boundaries;
    // asynchronous mode hides the writes behind the next segment entirely.
    let trace = per_task_trace(1, 7_200.0, 1_000_000);
    let sync = run(
        None,
        ExecutionConfig {
            checkpoint: async_checkpoints(1_250_000_000_000, 0, false),
            ..ExecutionConfig::default()
        },
        trace.clone(),
    );
    let overlapped = run(
        None,
        ExecutionConfig {
            checkpoint: async_checkpoints(1_250_000_000_000, 0, true),
            ..ExecutionConfig::default()
        },
        trace,
    );

    assert_eq!(sync.grid_counters.ckpt_overlapped, 0);
    assert_eq!(sync.grid_counters.ckpt_stalls, 0);
    assert!(overlapped.grid_counters.ckpt_overlapped >= 10);
    assert_eq!(
        overlapped.grid_counters.ckpt_stalls, 0,
        "100 s writes fit comfortably inside 600 s segments"
    );
    // Both produced a full stack of durable checkpoints.
    assert!(sync.grid_counters.checkpoints_written >= 10);
    assert!(overlapped.grid_counters.checkpoints_written >= 10);
    // The sync run paid ~11 x 100 s of write stalls; the async run hid them.
    assert!(
        overlapped.makespan_s + 500.0 < sync.makespan_s,
        "async {} s vs sync {} s",
        overlapped.makespan_s,
        sync.makespan_s
    );
}

#[test]
fn write_slower_than_the_interval_stalls_at_the_next_boundary() {
    // 15 TB checkpoints take 1200 s on the WAN — twice the 600 s interval —
    // so every boundary after the first finds the previous write in flight
    // and stalls until it drains (bounded dirty state, not a pile-up).
    let trace = per_task_trace(1, 7_200.0, 1_000_000);
    let results = run(
        None,
        ExecutionConfig {
            checkpoint: async_checkpoints(15_000_000_000_000, 0, true),
            ..ExecutionConfig::default()
        },
        trace,
    );
    let g = &results.grid_counters;
    assert!(g.ckpt_stalls >= 3, "stalls: {}", g.ckpt_stalls);
    assert!(g.checkpoints_written >= 3);
    assert_eq!(results.metrics.finished_jobs, 1);
}

#[test]
fn kill_during_async_write_restores_newest_durable_only() {
    // 3.75 TB checkpoints take 300 s. Timeline of the 2 h job (7200 s of
    // work, segments of 600 s):
    //
    //  t=600    segment 1 done; async write of the frac-1/12 snapshot starts
    //  t=900    that write drains -> durable checkpoint at frac 1/12
    //  t=1200   segment 2 done; async write of the frac-2/12 snapshot starts
    //  t=1300   the job is killed: the in-flight frac-2/12 write is torn
    //           down, nothing of it is durable
    //
    // Recovery must resume from the frac-1/12 durable checkpoint — saving
    // ~600 s of recompute, not ~1200 s.
    let trace = per_task_trace(1, 7_200.0, 1_000_000);
    let plan = FaultPlan {
        events: vec![FaultEvent {
            time_s: 1_300.0,
            action: FaultAction::KillJob { job: 0 },
        }],
    };
    let results = run(
        Some(plan),
        ExecutionConfig {
            checkpoint: async_checkpoints(3_750_000_000_000, 0, true),
            ..ExecutionConfig::default()
        },
        trace,
    );
    let g = &results.grid_counters;
    assert_eq!(g.job_interruptions, 1);
    assert_eq!(g.checkpoint_restores, 1);
    assert!(
        (g.work_saved_s - 600.0).abs() < 30.0,
        "restored from frac 1/12 (~600 s saved), got {} s — the in-flight \
         snapshot must not have become durable",
        g.work_saved_s
    );
    assert_eq!(results.metrics.finished_jobs, 1);
}

#[test]
fn incremental_shipping_moves_fewer_bytes_for_the_same_checkpoints() {
    // Full images: 11 writes x 1.25 TB = ~13.75 TB on the wire. Incremental
    // (125 MB/s of new state, 600 s segments): one 1.25 TB base image, then
    // 75 GB deltas — an order of magnitude less traffic, same durable stack.
    let trace = per_task_trace(1, 7_200.0, 1_000_000);
    let full = run(
        None,
        ExecutionConfig {
            checkpoint: async_checkpoints(1_250_000_000_000, 0, false),
            ..ExecutionConfig::default()
        },
        trace.clone(),
    );
    let delta = run(
        None,
        ExecutionConfig {
            checkpoint: async_checkpoints(1_250_000_000_000, 125_000_000, false),
            ..ExecutionConfig::default()
        },
        trace,
    );
    assert_eq!(
        full.grid_counters.checkpoints_written,
        delta.grid_counters.checkpoints_written
    );
    assert!(full.grid_counters.ckpt_bytes_shipped > 13_000_000_000_000);
    assert!(
        delta.grid_counters.ckpt_bytes_shipped < full.grid_counters.ckpt_bytes_shipped / 3,
        "delta shipping moved {} bytes vs {} full",
        delta.grid_counters.ckpt_bytes_shipped,
        full.grid_counters.ckpt_bytes_shipped
    );
    // Shorter write stalls -> the incremental run finishes no later.
    assert!(delta.makespan_s <= full.makespan_s);
}

#[test]
fn disabled_features_are_byte_identical_to_absent_features() {
    // A faulted, checkpointed scenario run (a) with default config and (b)
    // with wild-but-disabled self-healing knobs: repair disabled (its
    // target/concurrency/backoff values must not perturb one RNG draw),
    // synchronous writes, zero delta rate. Byte-identical output required.
    let config = parse_fault_spec(
        "outage:site=all,mttf=40m,mttr=10m;diskloss:site=all,mttf=20m;kill:rate=4",
    )
    .unwrap();
    let topology = FaultTopology {
        sites: 2,
        links: vec![2, 3],
        jobs: 100,
    };
    let plan = FaultPlan::generate(&config, &topology, 7);
    let checkpoint = CheckpointConfig {
        interval_s: 900.0,
        base_bytes: 100_000_000,
        bytes_per_core: 0,
        target: CheckpointTarget::MainServer,
        ..CheckpointConfig::default()
    };
    let plain = ExecutionConfig {
        checkpoint: checkpoint.clone(),
        ..ExecutionConfig::default()
    };
    let knobs = ExecutionConfig {
        checkpoint: CheckpointConfig {
            overlap: false,
            delta_bytes_per_s: 0,
            ..checkpoint
        },
        repair: RepairConfig {
            enabled: false,
            target_factor: 7,
            max_concurrent: 13,
            backoff_s: 1.5,
            max_retries: 99,
        },
        ..ExecutionConfig::default()
    };
    let trace = || per_task_trace(100, 5_000.0, 1_000_000);
    let a = run(Some(plan.clone()), plain, trace());
    let b = run(Some(plan), knobs, trace());
    assert_eq!(a.deterministic_json(), b.deterministic_json());
    assert_eq!(a.engine_events, b.engine_events);
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.site(), y.site());
        assert_eq!(x.final_state(), y.final_state());
        assert_eq!(x.walltime().to_bits(), y.walltime().to_bits());
        assert_eq!(x.staged_bytes(), y.staged_bytes());
    }
    // The schedule genuinely exercised the fault + checkpoint machinery.
    assert!(a.grid_counters.job_interruptions > 0);
    assert!(a.grid_counters.checkpoints_written > 0);
    assert_eq!(b.grid_counters.repairs_started, 0);
}
