//! Checkpoint-interval sweep: how often should jobs checkpoint under churn?
//!
//! Checkpointing is a classic resilience trade-off. Checkpoint too rarely and
//! every fault throws away hours of completed work; checkpoint too often and
//! the periodic state writes (real fluid transfers contending with staging
//! traffic) dominate the runtime. This example runs the *same* workload under
//! the *same* deterministic fault schedule while sweeping only the checkpoint
//! interval, and prints the resulting makespan / recomputed-work curve — the
//! optimum sits strictly between "never" and "constantly".
//!
//! ```bash
//! cargo run --release --example checkpoint_restart
//! ```

use cgsim::platform::spec::MAIN_SERVER;
use cgsim::platform::{LinkSpec, SiteSpec, Tier};
use cgsim::prelude::*;
use cgsim::workload::{JobKind, JobRecord};

/// Long single-core jobs: 4 h of work each, so an interruption without a
/// checkpoint is expensive.
fn long_job_trace(count: usize) -> Trace {
    let jobs = (0..count)
        .map(|i| {
            let mut record = JobRecord::new(i as u64, JobKind::SingleCore, 1, 4.0 * 3600.0 * 10.0);
            record.input_bytes = 2_000_000_000;
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
    let platform = PlatformSpec::new("checkpointed-grid")
        .with_site(SiteSpec::uniform("Alpha", Tier::Tier1, 600, 10.0))
        .with_site(SiteSpec::uniform("Beta", Tier::Tier2, 400, 10.0))
        .with_link(LinkSpec::new("Alpha", MAIN_SERVER, 100.0, 10.0))
        .with_link(LinkSpec::new("Beta", MAIN_SERVER, 100.0, 20.0));
    let trace = long_job_trace(1_200);

    // Aggressive churn: both sites bounce every ~3 h, plus random targeted
    // kills. The plan is generated once and shared by every sweep point, so
    // the only variable is the checkpoint interval.
    let fault_config = parse_fault_spec("outage:site=all,mttf=3h,mttr=20m;kill:rate=6;horizon=4d")
        .expect("spec parses");
    let platform_built = Platform::build(&platform).expect("platform builds");
    let topology = FaultTopology::for_platform(&platform_built, trace.len());
    let plan = FaultPlan::generate(&fault_config, &topology, 7);
    println!("fault plan: {} events over 96 h\n", plan.len());

    // Interval sweep: 0 disables checkpointing (the scratch-rerun baseline).
    let intervals_min: [f64; 6] = [0.0, 5.0, 20.0, 60.0, 120.0, 240.0];
    println!(
        "{:>10} {:>12} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "interval", "makespan_h", "intr", "ckpts", "GB", "restores", "saved_h", "lost_h"
    );

    let mut rows = Vec::new();
    for &interval_min in &intervals_min {
        let execution = ExecutionConfig {
            fault_max_retries: 50,
            checkpoint: CheckpointConfig {
                interval_s: interval_min * 60.0,
                base_bytes: 4_000_000_000, // 4 GB of state per checkpoint
                bytes_per_core: 0,
                target: CheckpointTarget::MainServer, // survives site outages
                ..CheckpointConfig::default()
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
        let label = if interval_min == 0.0 {
            "never".to_string()
        } else {
            format!("{interval_min:.0} min")
        };
        println!(
            "{:>10} {:>12.2} {:>8} {:>8} {:>10.1} {:>10} {:>10.1} {:>10.1}",
            label,
            results.makespan_s / 3600.0,
            g.job_interruptions,
            g.checkpoints_written,
            g.checkpoint_bytes as f64 / 1e9,
            g.checkpoint_restores,
            g.work_saved_s / 3600.0,
            g.work_lost_s / 3600.0,
        );
        rows.push((label, results.makespan_s, g.work_lost_s));
    }

    let baseline = rows[0].1;
    let best = rows
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("makespans are finite"))
        .expect("non-empty sweep");
    println!(
        "\nbest interval: {} (makespan {:.2} h vs {:.2} h without checkpointing, {:.1}% better)",
        best.0,
        best.1 / 3600.0,
        baseline / 3600.0,
        (1.0 - best.1 / baseline) * 100.0
    );
    assert!(
        best.1 <= baseline,
        "a checkpointed run must not recompute more than the scratch baseline"
    );
}
