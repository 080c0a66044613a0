//! Quickstart: build a small grid, generate a PanDA-like workload, run the
//! simulation and print the operational metrics and the final dashboard.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use cgsim::prelude::*;

fn main() {
    // 1. The platform: four ATLAS-named sites behind a central main server
    //    (the paper's example topology; see `examples/atlas_grid.rs` for the
    //    full 50-site WLCG-like configuration).
    let platform = example_platform();
    println!(
        "platform '{}': {} sites, {} cores total",
        platform.name,
        platform.sites.len(),
        platform.total_cores()
    );

    // 2. The workload: 500 synthetic PanDA-like jobs (60% single-core
    //    analysis, 40% 8-core production) submitted over six hours.
    let trace = TraceGenerator::new(TraceConfig::with_jobs(500, 42)).generate(&platform);
    let summary = trace.summary();
    println!(
        "trace: {} jobs ({} multi-core) across {} sites, mean work {:.0} HS23-s",
        summary.job_count, summary.multicore_jobs, summary.site_count, summary.work.mean
    );

    // 3. Run with the least-loaded allocation policy.
    let results = Simulation::builder()
        .platform_spec(&platform)
        .expect("platform is valid")
        .trace(trace)
        .execution(ExecutionConfig::with_policy("least-loaded"))
        .run()
        .expect("simulation runs");

    println!("\n=== metrics ===\n{}", results.metrics.text_summary());
    println!(
        "simulator wall-clock: {:.3} s for {} discrete events",
        results.wall_clock_s, results.engine_events
    );

    println!("\n=== final dashboard ===\n{}", results.ascii_dashboard());

    // 4. Export the run like the paper's output layer would (CSV tables).
    let out_dir = std::env::temp_dir().join("cgsim-quickstart");
    results
        .to_table_store()
        .save_csv_dir(&out_dir)
        .expect("CSV export succeeds");
    println!("CSV tables written to {}", out_dir.display());
}
