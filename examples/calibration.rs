//! Calibration walkthrough (paper §4.2 / Fig. 3): start from nominal
//! HEPScore-like site speeds, measure the walltime error against the
//! historical trace, calibrate each site's speed with random search, and
//! validate on held-out jobs.
//!
//! ```bash
//! cargo run --release --example calibration
//! ```

use cgsim::prelude::*;

fn main() {
    // A 10-site slice of the WLCG-like platform keeps the example fast; the
    // fig3_calibration binary runs the full 50-site version.
    let platform = wlcg_platform(10, 7);
    let mut cfg = TraceConfig::with_jobs(1_200, 11);
    cfg.mean_file_bytes = 1e8;
    let trace = TraceGenerator::new(cfg).generate(&platform);

    // Calibrate on 60% of the history, validate on the remaining 40%.
    let (calibration_trace, validation_trace) = trace.split(0.6);
    println!(
        "calibration jobs: {}, validation jobs: {}",
        calibration_trace.len(),
        validation_trace.len()
    );

    let calibrator = Calibrator {
        budget_per_site: 25,
        ..Calibrator::default()
    };
    let report = calibrator.calibrate(&platform, &calibration_trace);

    println!(
        "\n{:<16} {:>8} {:>14} {:>14} {:>12}",
        "site", "jobs", "before_%", "after_%", "multiplier"
    );
    for cal in &report.sites {
        println!(
            "{:<16} {:>8} {:>14.1} {:>14.1} {:>12.3}",
            cal.site,
            cal.jobs,
            cal.nominal_error * 100.0,
            cal.calibrated_error * 100.0,
            cal.best_multiplier
        );
    }
    println!(
        "\ngeometric mean error: {:.1}% -> {:.1}% ({:.1}x improvement)",
        report.geometric_mean_before * 100.0,
        report.geometric_mean_after * 100.0,
        report.improvement_factor()
    );

    // Validation: replay the held-out jobs through the calibrated platform.
    let mut execution = ExecutionConfig::with_policy("historical-panda");
    execution.monitoring = MonitoringConfig::disabled();
    let validation = Simulation::builder()
        .platform_spec(&report.calibrated_spec)
        .expect("calibrated spec is valid")
        .trace(validation_trace)
        .execution(execution)
        .run()
        .expect("validation run succeeds");
    if let Some(err) = validation.geometric_mean_walltime_error() {
        println!(
            "held-out validation error with calibrated speeds: {:.1}%",
            err * 100.0
        );
    }

    // Sensitivity analysis: which parameter matters (paper: CPU speed).
    let sensitivity = SensitivityStudy::default().run(&platform, &calibration_trace);
    println!("\nparameter sensitivity (error spread across a 0.5x-2x scale range):");
    for p in &sensitivity.parameters {
        println!("  {:<20} impact {:.3}", p.parameter.label(), p.impact);
    }
    println!("dominant parameter: {}", sensitivity.dominant().label());
}
