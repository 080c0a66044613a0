//! The paper's headline claims, asserted on the scenarios the `cgsim-bench`
//! reproduction binaries print.
//!
//! Each test calls the same `cgsim_bench::scenarios` function as its binary,
//! at `CGSIM_SCALE=small`, and asserts the claim's shape on simulated or
//! counted quantities only — never on wall-clock time. The exact numbers are
//! pinned by `crates/bench/tests/fig3_golden.rs` and `paper_golden.rs`.

use std::collections::HashSet;

use cgsim::workload::JobState;
use cgsim_bench::scenarios::{ablation, fig3, fig4a, fig4b, scaling_fit, speedup, table1, SMALL};

/// Fig. 3 (`fig3_calibration`): random-search calibration cuts the
/// geometric-mean walltime error by more than 2× and never makes a site
/// worse than its nominal speed.
#[test]
fn calibration_improves_the_walltime_error_over_2x() {
    let (_, _, report) = fig3(SMALL);
    assert!(
        report.improvement_factor() > 2.0,
        "improvement {:.2}x (before {:.3}, after {:.3})",
        report.improvement_factor(),
        report.geometric_mean_before,
        report.geometric_mean_after
    );
    for site in &report.sites {
        assert!(
            site.calibrated_error <= site.nominal_error,
            "{}: calibrated {} > nominal {}",
            site.site,
            site.calibrated_error,
            site.nominal_error
        );
    }
}

/// Fig. 4(a) (`fig4a_job_scaling`): every point completes all its jobs and
/// the simulator's work, counted in engine events, grows sub-quadratically
/// with the job count.
#[test]
fn job_scaling_is_subquadratic() {
    let points = fig4a(SMALL);
    for (jobs, results) in &points {
        assert_eq!(results.outcomes.len(), *jobs);
        assert_eq!(results.metrics.finished_jobs, *jobs as u64);
    }
    let k = scaling_fit(&points, |r| r.engine_events as f64);
    assert!(
        k < 1.6,
        "event-count scaling exponent {k} is not sub-quadratic"
    );
}

/// Fig. 4(b) (`fig4b_multisite_scaling`): each site count is simulated once,
/// every site of every point runs jobs, and engine events grow near-linearly
/// with the site count.
#[test]
fn multisite_scaling_is_near_linear() {
    let points = fig4b(SMALL);
    assert!(
        points.windows(2).all(|w| w[0].0 < w[1].0),
        "site counts are not distinct"
    );
    for (sites, results) in &points {
        assert_eq!(results.outcomes.len(), sites * 200);
        let used: HashSet<_> = results.outcomes.iter().map(|o| o.site()).collect();
        assert_eq!(
            used.len(),
            *sites,
            "only {used:?} of {sites} sites ran jobs"
        );
    }
    let k = scaling_fit(&points, |r| r.engine_events as f64);
    assert!(
        (0.7..=1.4).contains(&k),
        "event-count scaling exponent {k} is not near-linear"
    );
}

/// The abstract's distributed speedup (`distributed_speedup`): spreading the
/// burst over more sites never lengthens its makespan, and 8 sites beat one
/// site by more than 2.5×.
#[test]
fn distributing_a_fixed_workload_beats_single_site() {
    let (_, single, rows) = speedup(SMALL);
    assert!(
        rows.windows(2).all(|w| w[1].1 <= w[0].1),
        "makespan grows with sites: {rows:?}"
    );
    let (_, at_8) = rows.iter().find(|(sites, _)| *sites == 8).unwrap();
    assert!(
        single / at_8 > 2.5,
        "8 sites only {:.2}x faster (single {single} s, distributed {at_8} s)",
        single / at_8
    );
}

/// The §2 fidelity ablation (`baseline_comparison`): the coarse-grained
/// baseline and the core both finish every job of the same trace, and both
/// mispredict the hidden-truth walltimes when uncalibrated.
#[test]
fn baseline_and_core_run_the_same_trace() {
    let (jobs, (baseline, cgsim)) = ablation(SMALL);
    assert_eq!(baseline.outcomes.len(), jobs);
    assert_eq!(cgsim.metrics.finished_jobs, jobs as u64);
    assert!(baseline.relative_walltime_error() > 0.05);
    assert!(cgsim.geometric_mean_walltime_error().unwrap() > 0.05);
}

/// Table 1 (`table1_event_snapshot`): the sampled rows are `Finished`
/// transitions, and no site ever reports more finished than assigned jobs.
#[test]
fn event_snapshot_rows_are_consistent() {
    let (results, rows) = table1();
    assert_eq!(rows.len(), 6);
    assert!(rows
        .iter()
        .all(|&i| results.events.get(i).unwrap().state == JobState::Finished));
    for e in &results.events {
        assert!(
            e.finished_jobs <= e.assigned_jobs,
            "event {}: {} finished of {} assigned at {}",
            e.event_id,
            e.finished_jobs,
            e.assigned_jobs,
            e.site
        );
    }
}
