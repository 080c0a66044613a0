//! Golden bytes of two output directories: the FNV-1a of every file
//! `SimulationResults::save_output_dir` writes (`dashboard.html` aside, which
//! no job outcome reaches). `output_twins.rs` holds two renderers of the same
//! records to each other; these hashes hold the records themselves, so a
//! change to how a run stores, derives or groups its outcomes must leave
//! every byte of `jobs.csv`, `site_summary.csv`, `ml_dataset.csv` and
//! `results.json` where it was.
//!
//! The two runs cover both ways a run gets its trace: a materialised trace
//! under faults, checkpoints and repair with every transition recorded and
//! windowed metrics on; and a streamed trace with the event dataset thinned
//! and bounded, as the benchmark's `grid_clean` runs it.

use std::path::Path;

use cgsim_core::scenario::hash::fnv1a;
use cgsim_core::{CheckpointConfig, ExecutionConfig, Simulation, SimulationResults};
use cgsim_faults::{parse_fault_spec, FaultPlan, FaultTopology};
use cgsim_monitor::MonitoringConfig;
use cgsim_platform::presets::wlcg_platform;
use cgsim_platform::Platform;
use cgsim_workload::{TraceConfig, TraceGenerator};

const FILES: [&str; 6] = [
    "events.csv",
    "jobs.csv",
    "ml_dataset.csv",
    "results.json",
    "site_summary.csv",
    "windows.csv",
];

/// Writes the output directory of `results` and returns each file's hash.
fn file_hashes(results: &SimulationResults, name: &str) -> [(&'static str, u64); 6] {
    let dir = std::env::temp_dir().join(format!("cgsim-output-golden-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    results.save_output_dir(&dir).unwrap();
    let hash = |file: &str| {
        let bytes = std::fs::read(Path::new(&dir).join(file)).unwrap();
        assert!(bytes.contains(&b'\n'), "{name}/{file} is empty");
        fnv1a(0xcbf2_9ce4_8422_2325, &bytes)
    };
    let hashes = FILES.map(|file| (file, hash(file)));
    std::fs::remove_dir_all(&dir).ok();
    hashes
}

fn assert_hashes(got: [(&str, u64); 6], want: [u64; 6]) {
    let printed: Vec<String> = got.iter().map(|(_, h)| format!("{h:#018x}")).collect();
    for ((file, got), want) in got.iter().zip(want) {
        assert!(
            *got == want,
            "{file}: {got:#018x}, recorded {want:#018x} (all: {printed:?})"
        );
    }
}

#[test]
fn a_faulted_checkpointed_repairing_run_writes_the_recorded_bytes() {
    let spec = wlcg_platform(6, 7);
    let trace = TraceGenerator::new(TraceConfig::with_jobs(400, 7)).generate(&spec);
    let faults =
        parse_fault_spec("outage:site=all,mttf=4h,mttr=30m;diskloss:site=all,mttf=6h;kill:rate=2")
            .unwrap();
    let topology = FaultTopology::for_platform(&Platform::build(&spec).unwrap(), 400);
    let mut execution = ExecutionConfig {
        checkpoint: CheckpointConfig {
            interval_s: 1_800.0,
            overlap: true,
            ..CheckpointConfig::default()
        },
        monitoring: MonitoringConfig::windowed(3_600.0),
        ..ExecutionConfig::with_policy("data-aware")
    };
    execution.repair.enabled = true;
    let results = Simulation::builder()
        .platform_spec(&spec)
        .unwrap()
        .trace(trace)
        .execution(execution)
        .fault_plan(FaultPlan::generate(&faults, &topology, 7))
        .run()
        .unwrap();
    let counters = &results.grid_counters;
    assert!(counters.job_interruptions > 0 && counters.checkpoints_written > 0);
    assert!(counters.repairs_completed > 0 && results.metrics.failed_jobs > 0);
    assert_eq!(results.outcomes.len(), 400);

    assert_hashes(
        file_hashes(&results, "faulted"),
        [
            0xa873_aae3_4364_3f12,
            0xb062_abbd_b2b8_62eb,
            0x2aa0_611e_3e76_b23c,
            0x06f2_71cb_92fa_6fc3,
            0x4fc2_5b99_864d_0900,
            0xee56_92d7_6cee_15d0,
        ],
    );
}

#[test]
fn a_streamed_run_with_bounded_monitoring_writes_the_recorded_bytes() {
    let spec = wlcg_platform(12, 42);
    let generator = TraceGenerator::new(TraceConfig {
        submission_window_s: 6.0 * 3_600.0,
        ..TraceConfig::with_jobs(3_000, 42)
    });
    let execution = ExecutionConfig {
        monitoring: MonitoringConfig {
            sample_stride: 7,
            max_events: 500,
            ..MonitoringConfig::windowed(3_600.0)
        },
        ..ExecutionConfig::default()
    };
    let results = Simulation::builder()
        .platform_spec(&spec)
        .unwrap()
        .trace_stream(generator.stream(&spec))
        .execution(execution)
        .run()
        .unwrap();
    assert_eq!(results.outcomes.len(), 3_000);
    assert!(results.events.len() < 1_000 && results.events.first().unwrap().event_id > 0);

    assert_hashes(
        file_hashes(&results, "streamed"),
        [
            0x8cc2_1d46_1e54_e21c,
            0xb695_bd57_2a1b_15b8,
            // The unbounded run's `ml_dataset.csv`: each outcome keeps the
            // site state of its dispatch whatever the event table drops.
            0xd08e_cc74_10f0_e266,
            0xea5c_f9f2_c076_fd69,
            0xda0e_836d_dce3_d8d9,
            0x8745_a907_96e6_872d,
        ],
    );
}
