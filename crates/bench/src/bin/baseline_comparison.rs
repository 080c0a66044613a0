//! Regenerates the §2 fidelity argument: a coarse-grained GridSim/CloudSim
//! style simulator is faster but substantially less accurate than the
//! fluid-model CGSim core on the same PanDA-like trace.

use cgsim_bench::scenarios::{ablation, scale_from_env};

fn main() {
    let (jobs, (baseline, cgsim)) = ablation(scale_from_env());

    println!("# Fidelity ablation — coarse-grained baseline vs CGSim core ({jobs} jobs, 10 sites)");
    println!(
        "{:<26} {:>16} {:>24}",
        "simulator", "wall_clock_s", "walltime rel. error"
    );
    println!(
        "{:<26} {:>16.3} {:>23.1}%",
        "coarse-grained baseline",
        baseline.wall_clock_s,
        baseline.relative_walltime_error() * 100.0
    );
    println!(
        "{:<26} {:>16.3} {:>23.1}%",
        "cgsim (uncalibrated)",
        cgsim.wall_clock_s,
        cgsim.geometric_mean_walltime_error().unwrap_or(0.0) * 100.0
    );
    println!("\nnote: both are uncalibrated here; after calibration (see fig3_calibration)");
    println!("the CGSim error drops to the paper's ~17% regime, which the coarse model");
    println!("cannot reach because it has no per-site speed or contention model to tune.");
}
