//! Regenerates the abstract's headline claim: "distributed workloads
//! achieving 6× better performance compared to single-site execution" —
//! a fixed workload executed on one site versus spread over N sites.

use cgsim_bench::scenarios::{scale_from_env, speedup};

fn main() {
    let (jobs, single, rows) = speedup(scale_from_env());

    println!("# Distributed vs single-site execution ({jobs} jobs)");
    println!(
        "{:>8} {:>22} {:>22} {:>10}",
        "sites", "single_makespan_h", "distributed_makespan_h", "speedup"
    );
    for (sites, distributed) in rows {
        println!(
            "{:>8} {:>22.2} {:>22.2} {:>9.1}x",
            sites,
            single / 3600.0,
            distributed / 3600.0,
            single / distributed
        );
    }
    println!("\npaper expectation: distributing the workload yields ~6x better performance");
}
