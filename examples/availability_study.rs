//! Availability study: replication factor × checkpoint interval × async
//! writes under correlated incidents.
//!
//! The self-healing data layer has three independent levers — how many
//! replicas the repair planner maintains (`repair.target_factor`), how often
//! jobs checkpoint (`checkpoint.interval_s`), and whether checkpoint writes
//! overlap execution (`checkpoint.overlap`). This example sweeps the full
//! grid of the three under one deterministic schedule of *correlated*
//! incidents (multi-site outages plus disk losses plus targeted kills — the
//! worst case for data durability, because simultaneous failures defeat
//! single-copy redundancy) and emits a CSV of makespan vs work lost vs
//! repair traffic, so the trade-off surface can be plotted directly.
//!
//! ```bash
//! cargo run --release --example availability_study
//! ```

use cgsim::platform::spec::MAIN_SERVER;
use cgsim::platform::{LinkSpec, SiteSpec, Tier};
use cgsim::prelude::*;
use cgsim::workload::{JobKind, JobRecord, TaskId};

/// Long single-core jobs, one task (and therefore one cached dataset) per
/// group of four jobs: enough distinct datasets that disk losses create real
/// replication deficits, enough sharing that caching matters.
fn grouped_trace(count: usize) -> Trace {
    let jobs = (0..count)
        .map(|i| {
            let mut record = JobRecord::new(i as u64, JobKind::SingleCore, 1, 3.0 * 3600.0 * 10.0);
            record.task_id = TaskId((i / 4) as u64);
            record.input_bytes = 3_000_000_000;
            record.output_bytes = 0;
            record
        })
        .collect();
    Trace {
        jobs,
        ..Trace::default()
    }
}

fn main() {
    let platform = PlatformSpec::new("availability-grid")
        .with_site(SiteSpec::uniform("Alpha", Tier::Tier1, 500, 10.0))
        .with_site(SiteSpec::uniform("Beta", Tier::Tier2, 350, 10.0))
        .with_site(SiteSpec::uniform("Gamma", Tier::Tier2, 250, 10.0))
        .with_link(LinkSpec::new("Alpha", MAIN_SERVER, 100.0, 10.0))
        .with_link(LinkSpec::new("Beta", MAIN_SERVER, 100.0, 20.0))
        .with_link(LinkSpec::new("Gamma", MAIN_SERVER, 50.0, 30.0));
    let trace = grouped_trace(800);

    // Correlated incidents: Alpha+Beta go down *together* every ~6 h (a
    // shared-infrastructure failure), individual disk losses wipe cached
    // replicas every ~4 h per site, and targeted kills add job-level churn.
    // One plan, shared by every sweep point.
    let fault_config = parse_fault_spec(
        "incident:sites=0+1,mttf=6h,mttr=25m;\
         diskloss:site=all,mttf=4h;\
         kill:rate=3;horizon=4d",
    )
    .expect("spec parses");
    let platform_built = Platform::build(&platform).expect("platform builds");
    let topology = FaultTopology::for_platform(&platform_built, trace.len());
    let plan = FaultPlan::generate(&fault_config, &topology, 13);
    eprintln!("fault plan: {} events over 96 h", plan.len());

    // The sweep grid. Replication factor 1 disables repair (one replica is
    // the no-redundancy baseline: nothing to re-establish).
    let replication_factors: [u32; 3] = [1, 2, 3];
    let intervals_min: [f64; 3] = [20.0, 60.0, 180.0];
    let async_modes: [bool; 2] = [false, true];

    println!(
        "replication_factor,checkpoint_interval_min,async_writes,makespan_h,\
         work_lost_h,work_saved_h,repair_gb,repairs_completed,ckpt_gb_shipped,\
         ckpt_stalls,interruptions,finished_jobs"
    );
    for &factor in &replication_factors {
        for &interval_min in &intervals_min {
            for &overlap in &async_modes {
                let execution = ExecutionConfig {
                    fault_max_retries: 50,
                    checkpoint: CheckpointConfig {
                        interval_s: interval_min * 60.0,
                        base_bytes: 4_000_000_000,
                        bytes_per_core: 0,
                        target: CheckpointTarget::MainServer,
                        overlap,
                        delta_bytes_per_s: 0,
                    },
                    repair: RepairConfig {
                        enabled: factor > 1,
                        target_factor: factor,
                        ..RepairConfig::default()
                    },
                    ..ExecutionConfig::default()
                };
                let results = Simulation::builder()
                    .platform_spec(&platform)
                    .expect("platform builds")
                    .trace(trace.clone())
                    .execution(execution)
                    .fault_plan(plan.clone())
                    .run()
                    .expect("simulation runs");
                let g = &results.grid_counters;
                println!(
                    "{},{:.0},{},{:.3},{:.2},{:.2},{:.2},{},{:.2},{},{},{}",
                    factor,
                    interval_min,
                    overlap,
                    results.makespan_s / 3600.0,
                    g.work_lost_s / 3600.0,
                    g.work_saved_s / 3600.0,
                    g.repair_bytes as f64 / 1e9,
                    g.repairs_completed,
                    g.ckpt_bytes_shipped as f64 / 1e9,
                    g.ckpt_stalls,
                    g.job_interruptions,
                    results.metrics.finished_jobs,
                );
            }
        }
    }
}
