//! Regenerates Fig. 4(b): simulator runtime versus number of sites at a fixed
//! density of 200 jobs per site (1–50 sites in the paper, near-linear growth).

use cgsim_bench::scenarios::{fig4b, scale_from_env, scaling_fit};

fn main() {
    let points = fig4b(scale_from_env());

    println!("# Fig. 4(b) — multi-site scaling (200 jobs per site)");
    println!(
        "{:>8} {:>10} {:>14} {:>14} {:>12}",
        "sites", "jobs", "wall_clock_s", "sim_makespan_h", "events"
    );
    for (sites, results) in &points {
        println!(
            "{:>8} {:>10} {:>14.3} {:>14.2} {:>12}",
            sites,
            results.outcomes.len(),
            results.wall_clock_s,
            results.makespan_s / 3600.0,
            results.engine_events
        );
    }
    let events = scaling_fit(&points, |r| r.engine_events as f64);
    let wall = scaling_fit(&points, |r| r.wall_clock_s.max(1e-6));
    println!("\nscaling exponent (events ~ sites^k): k = {events:.3} (wall clock: {wall:.2})");
    println!("paper expectation: near-linear (k ≈ 1)");
}
