//! Regenerates Fig. 4(a): simulator runtime versus number of jobs on a single
//! site. The paper reports sub-quadratic growth (<100 s at 1,000 jobs to
//! ~2,500 s at 10,000 jobs on the authors' machine); absolute numbers differ
//! on other hardware, the scaling exponent is what must hold.

use cgsim_bench::scenarios::{fig4a, scale_from_env, scaling_fit};

fn main() {
    let points = fig4a(scale_from_env());

    println!("# Fig. 4(a) — job scaling (single site, 1000 cores)");
    println!(
        "{:>10} {:>14} {:>14} {:>12}",
        "jobs", "wall_clock_s", "sim_makespan_h", "events"
    );
    for (jobs, results) in &points {
        println!(
            "{:>10} {:>14.3} {:>14.2} {:>12}",
            jobs,
            results.wall_clock_s,
            results.makespan_s / 3600.0,
            results.engine_events
        );
    }
    let events = scaling_fit(&points, |r| r.engine_events as f64);
    let wall = scaling_fit(&points, |r| r.wall_clock_s.max(1e-6));
    println!("\nscaling exponent (events ~ jobs^k): k = {events:.3} (wall clock: {wall:.2})");
    println!("paper expectation: sub-quadratic (k < 2); near-linear is better");
}
