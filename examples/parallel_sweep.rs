//! Parameter sweeps on worker threads: the shape of every scalability
//! experiment in the paper (Fig. 4) is "run many independent simulations and
//! plot a metric against a swept parameter". This example sweeps the number
//! of computing sites through a shared [`ScenarioEngine`], runs every point
//! in parallel, and prints the resulting table (the same data Fig. 4(b) is
//! drawn from). Because the engine memoises results in its deterministic
//! response cache, re-running the sweep — the usual "tweak the plot, rerun
//! the script" loop — answers every point from the cache.
//!
//! ```bash
//! cargo run --release --example parallel_sweep
//! ```

use std::sync::Arc;

use cgsim::prelude::*;

fn main() {
    let jobs_per_site = 150;
    let site_counts = [1usize, 2, 5, 10, 20, 30];

    // One base per topology; the platform and trace move into it once and
    // are Arc-shared from there, so fanning a spec out to a worker thread
    // never deep-clones them.
    let specs: Vec<ScenarioSpec> = site_counts
        .iter()
        .map(|&sites| {
            let platform = wlcg_platform(sites, 7);
            let trace = TraceGenerator::new(TraceConfig::with_jobs(sites * jobs_per_site, 13))
                .generate(&platform);
            ScenarioSpec::new(
                ScenarioBase::shared(platform, trace),
                ExecutionConfig::default(),
            )
        })
        .collect();

    let engine = ScenarioEngine::new();
    let started = std::time::Instant::now();
    let outcomes: Vec<Arc<SimulationResults>> = engine
        .evaluate_batch(&specs)
        .into_iter()
        .map(|o| o.expect("sweep runs").results)
        .collect();
    println!(
        "ran {} simulations in {:.2?} across {} worker threads\n",
        outcomes.len(),
        started.elapsed(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    println!("label,jobs,makespan_s,engine_events,wall_clock_s,mean_queue_time_s,failure_rate");
    for (sites, r) in site_counts.iter().zip(&outcomes) {
        let m = &r.metrics;
        println!(
            "sites={sites},{},{:.3},{},{:.4},{:.3},{:.4}",
            m.total_jobs,
            m.makespan_s,
            r.engine_events,
            r.wall_clock_s,
            m.queue_time.as_ref().map_or(0.0, |q| q.mean),
            m.failure_rate
        );
    }
    println!();

    // The multi-site scaling shape of Fig. 4(b): simulator work (engine
    // events) grows close to linearly with the number of sites.
    let xs: Vec<f64> = outcomes
        .iter()
        .map(|r| r.metrics.total_jobs as f64)
        .collect();
    let ys: Vec<f64> = outcomes.iter().map(|r| r.engine_events as f64).collect();
    let k = cgsim::des::stats::scaling_exponent(&xs, &ys);
    println!("engine-event scaling exponent vs workload size: {k:.2} (≈1 is linear)");

    // Second pass over the same sweep: every point is a cache hit, no
    // simulation reruns.
    let started = std::time::Instant::now();
    let again = engine.evaluate_batch(&specs);
    let counters = engine.cache_counters();
    println!(
        "\nreplayed {} points in {:.2?}: {} cache hits, {} simulations run in total",
        again.len(),
        started.elapsed(),
        counters.hits,
        engine.simulations_run()
    );
    assert_eq!(counters.hits as usize, again.len());
}
