//! Integration test of the Fig. 3 calibration pipeline: synthetic history →
//! per-site random-search calibration → large error reduction → validation on
//! held-out jobs.

use cgsim::prelude::*;

#[test]
fn calibration_recovers_hidden_site_speeds_and_generalises() {
    let platform = example_platform();
    let mut cfg = TraceConfig::with_jobs(600, 71);
    cfg.mean_file_bytes = 1e8;
    // Spread the hidden per-site speeds wide (as across real WLCG sites) so
    // the uncalibrated error is large, mirroring the paper's 76 % starting
    // point.
    cfg.hidden_multiplier_range = (0.35, 2.6);
    let trace = TraceGenerator::new(cfg).generate(&platform);
    let (calibration_trace, validation_trace) = trace.split(0.5);

    let calibrator = Calibrator {
        budget_per_site: 25,
        ..Calibrator::default()
    };
    let report = calibrator.calibrate(&platform, &calibration_trace);

    // Substantial improvement of the geometric-mean error (paper: 76% -> 17%,
    // roughly a 4.5x improvement; we require at least 2x on this small setup).
    assert!(
        report.geometric_mean_before > 0.15,
        "uncalibrated error suspiciously small"
    );
    assert!(
        report.improvement_factor() > 2.0,
        "improvement {}x (before {:.3}, after {:.3})",
        report.improvement_factor(),
        report.geometric_mean_before,
        report.geometric_mean_after
    );

    // Calibrated multipliers are close to the hidden ground truth.
    for cal in &report.sites {
        let hidden = trace.hidden_site_multipliers[&cal.site];
        assert!(
            (cal.best_multiplier - hidden).abs() / hidden < 0.5,
            "site {} multiplier {} far from hidden {}",
            cal.site,
            cal.best_multiplier,
            hidden
        );
    }

    // The calibrated platform generalises to held-out jobs.
    let mut execution = ExecutionConfig::with_policy("historical-panda");
    execution.monitoring = MonitoringConfig::disabled();
    let validation = Simulation::builder()
        .platform_spec(&report.calibrated_spec)
        .unwrap()
        .trace(validation_trace)
        .execution(execution)
        .run()
        .unwrap();
    let validation_error = validation.geometric_mean_walltime_error().unwrap();
    assert!(
        validation_error < report.geometric_mean_before,
        "validation error {validation_error} did not improve on the uncalibrated error"
    );
}

#[test]
fn random_search_never_regresses_a_site() {
    let platform = example_platform();
    let mut cfg = TraceConfig::with_jobs(300, 73);
    cfg.mean_file_bytes = 1e8;
    let trace = TraceGenerator::new(cfg).generate(&platform);

    let calibrator = Calibrator {
        budget_per_site: 12,
        ..Calibrator::default()
    };
    let report = calibrator.calibrate(&platform, &trace);
    assert!(!report.sites.is_empty());
    assert!(
        report.geometric_mean_after <= report.geometric_mean_before,
        "regressed: {} -> {}",
        report.geometric_mean_before,
        report.geometric_mean_after
    );
    for cal in &report.sites {
        assert!(
            cal.calibrated_error <= cal.nominal_error,
            "site {} regressed: {} -> {}",
            cal.site,
            cal.nominal_error,
            cal.calibrated_error
        );
        assert_eq!(cal.evaluations, 12);
    }
}
