//! Golden fingerprints of the job lifecycle across its configuration matrix:
//! {no checkpoint, synchronous → site, synchronous → main server with 20 GB
//! images, asynchronous → main server with deltas + re-replication} ×
//! {dedicated cores, time-shared}, under one generated fault plan with
//! outage, disk-loss, node-loss and kill clauses. Other tests compare a run
//! with itself; this one compares it with bytes recorded while "the whole
//! run" and "a write the job waits on" were still separate code paths from
//! "one segment" and "a write it overlaps", so a drift between them fails.

use cgsim_core::scenario::hash::fnv1a;
use cgsim_core::{
    CheckpointConfig, CheckpointTarget, ComputeMode, ExecutionConfig, Simulation, SimulationResults,
};
use cgsim_faults::{parse_fault_spec, FaultPlan, FaultTopology};
use cgsim_platform::{Platform, PlatformSpec, SiteSpec, Tier};
use cgsim_workload::{TraceConfig, TraceGenerator};

const JOBS: usize = 400;
const FAULTS: &str = "outage:site=all,mttf=4h,mttr=30m;diskloss:site=all,mttf=6h;\
                      nodeloss:site=all,fraction=0.25,mttf=8h,mttr=1h;kill:rate=2";

fn run(
    checkpoint: &CheckpointConfig,
    repair: bool,
    compute_mode: ComputeMode,
) -> SimulationResults {
    // 144 cores for a 400-job burst: the sites stay full, so time-shared
    // jobs run at nominal speed and meet the faults as dedicated ones do.
    let platform = PlatformSpec::new("lifecycle")
        .with_site(SiteSpec::uniform("A", Tier::Tier1, 64, 12.0))
        .with_site(SiteSpec::uniform("B", Tier::Tier2, 40, 10.0))
        .with_site(SiteSpec::uniform("C", Tier::Tier2, 24, 9.0))
        .with_site(SiteSpec::uniform("D", Tier::Tier2, 16, 8.0));
    let mut workload = TraceConfig::with_jobs(JOBS, 7);
    workload.submission_window_s = 600.0;
    let trace = TraceGenerator::new(workload).generate(&platform);
    let topology = FaultTopology::for_platform(&Platform::build(&platform).unwrap(), JOBS);
    let plan = FaultPlan::generate(&parse_fault_spec(FAULTS).unwrap(), &topology, 7);
    let mut exec = ExecutionConfig {
        compute_mode,
        checkpoint: checkpoint.clone(),
        ..ExecutionConfig::default()
    };
    exec.repair.enabled = repair;
    Simulation::builder()
        .platform_spec(&platform)
        .unwrap()
        .trace(trace)
        .execution(exec)
        .fault_plan(plan)
        .run()
        .unwrap()
}

#[test]
fn lifecycle_matrix_matches_the_recorded_fingerprints() {
    let every_30m = |target| CheckpointConfig {
        interval_s: 1_800.0,
        target,
        ..CheckpointConfig::default()
    };
    let sync_main_20g = CheckpointConfig {
        base_bytes: 20_000_000_000,
        bytes_per_core: 0,
        ..every_30m(CheckpointTarget::MainServer)
    };
    let async_main = CheckpointConfig {
        overlap: true,
        delta_bytes_per_s: 10_000_000,
        ..every_30m(CheckpointTarget::MainServer)
    };
    let sync_site = every_30m(CheckpointTarget::SiteStorage);
    // (row, checkpoint, repair, fingerprints recorded at the parent commit
    // for dedicated cores and for time-shared)
    let matrix: [(&str, CheckpointConfig, bool, [u64; 2]); 4] = [
        (
            "off",
            CheckpointConfig::default(),
            false,
            [0x2ca8_4de7_a7dc_3f04, 0xd096_61ac_0a17_530f],
        ),
        (
            "sync-site",
            sync_site,
            false,
            [0x5d25_99b3_b8d5_1057, 0x2893_7915_6998_d08f],
        ),
        (
            "sync-main-20g",
            sync_main_20g,
            false,
            [0x05be_d695_0212_9da2, 0xe8ce_32ed_d3de_9b9a],
        ),
        (
            "async-main",
            async_main,
            true,
            [0xea8b_69d7_1378_0eb9, 0x315d_2ef7_7c2d_173f],
        ),
    ];
    let (mut sync_checkpoints_lost, mut sync_bytes_cancelled) = (0, 0);
    let mut drifted = Vec::new();
    for (row, checkpoint, repair, goldens) in &matrix {
        let modes = [ComputeMode::DedicatedCores, ComputeMode::TimeShared];
        for (mode, golden) in modes.into_iter().zip(goldens) {
            let results = run(checkpoint, *repair, mode);
            let counters = &results.grid_counters;
            assert!(
                counters.site_outages > 0
                    && counters.disk_losses > 0
                    && counters.node_losses > 0
                    && counters.job_interruptions > 0,
                "{row}/{mode:?}: the plan must exercise every clause"
            );
            if checkpoint.enabled() && !checkpoint.overlap {
                // A write the job waits on is neither a stall nor an overlap.
                let waits = (counters.ckpt_stalls, counters.ckpt_overlapped);
                assert_eq!(waits, (0, 0), "{row}/{mode:?}");
                assert!(counters.checkpoints_written > 0, "{row}/{mode:?}");
                sync_checkpoints_lost += counters.checkpoints_lost;
                // Without deltas every write ships a full image, so bytes
                // shipped beyond bytes made durable are writes cancelled in
                // flight.
                sync_bytes_cancelled += counters.ckpt_bytes_shipped - counters.checkpoint_bytes;
            }
            let json = results.deterministic_json();
            let got = fnv1a(0xcbf2_9ce4_8422_2325, json.as_bytes());
            if got != *golden {
                drifted.push(format!(
                    "{row}/{mode:?}: {got:#018x}, recorded {golden:#018x}"
                ));
            }
        }
    }
    assert!(drifted.is_empty(), "fingerprints drifted: {drifted:#?}");
    assert!(
        sync_checkpoints_lost > 0 && sync_bytes_cancelled > 0,
        "no synchronous row lost a durable checkpoint and an in-flight write to a fault"
    );
}
