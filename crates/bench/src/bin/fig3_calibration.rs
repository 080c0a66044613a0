//! Regenerates Fig. 3: per-site relative mean absolute error of job walltime
//! before and after random-search calibration of the per-site CPU speed.
//! The paper improves the geometric mean from 76 % to 17 % over 50 sites.

use cgsim_bench::scenarios::{fig3, scale_from_env};

fn main() {
    let (jobs, budget, report) = fig3(scale_from_env());
    let sites = report.calibrated_spec.sites.len();
    println!("# Fig. 3 — walltime calibration across {sites} WLCG-like sites");
    println!("(random-search calibration, {budget} evaluations per site, {jobs} historical jobs)");
    println!(
        "\n{:<16} {:>6} {:>16} {:>18} {:>12}",
        "site", "jobs", "error_before_%", "error_after_%", "multiplier"
    );
    // Fig. 3 plots 10 sites "for brevity"; print the first 10 then summarise.
    for cal in report.sites.iter().take(10) {
        println!(
            "{:<16} {:>6} {:>16.1} {:>18.1} {:>12.3}",
            cal.site,
            cal.jobs,
            cal.nominal_error * 100.0,
            cal.calibrated_error * 100.0,
            cal.best_multiplier
        );
    }
    if report.sites.len() > 10 {
        println!("... ({} more sites)", report.sites.len() - 10);
    }
    println!(
        "\ngeometric mean relative MAE: before = {:.1}%  after = {:.1}%  (improvement {:.1}x)",
        report.geometric_mean_before * 100.0,
        report.geometric_mean_after * 100.0,
        report.improvement_factor()
    );
    println!("paper: 76% -> 17% over 50 sites (≈4.5x improvement)");
}
