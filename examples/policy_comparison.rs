//! Policy study: the core use case CGSim is built for — evaluate scheduling
//! and data-movement strategies on a realistic grid *before* deploying them
//! on production infrastructure (paper §1, §3.3).
//!
//! The example compares every built-in allocation policy (including the
//! advanced cost-model and fair-share strategies) on the same platform and
//! workload, then shows the effect of the data-movement policy (cache
//! admission) and the queue-time model. All ablations run through one
//! [`ScenarioEngine`] over one `Arc`-shared [`ScenarioBase`]: the platform
//! and the 3000-job trace are held once, each variant is just an execution
//! delta, and repeated variants are answered from the response cache.
//!
//! ```bash
//! cargo run --release --example policy_comparison
//! ```

use std::sync::Arc;

use cgsim::prelude::*;

fn main() {
    let platform = wlcg_platform(15, 9);
    let trace = TraceGenerator::new(TraceConfig::with_jobs(3_000, 21)).generate(&platform);
    let jobs = trace.len();

    // One shared base for every run below: the platform and trace are
    // content-hashed once, never cloned per run.
    let engine = ScenarioEngine::new();
    let base = ScenarioBase::shared(platform, trace);

    // 1. Allocation-policy comparison under identical conditions: one
    //    execution delta per policy, evaluated as one batch.
    let policies = [
        "least-loaded",
        "round-robin",
        "random",
        "fastest-available",
        "data-aware",
        "shortest-expected-wait",
        "weighted-fair-share",
        "greedy-cost",
        "capacity-proportional",
        "historical-panda",
    ];
    let specs: Vec<ScenarioSpec> = policies
        .iter()
        .map(|&policy| ScenarioSpec::new(base.clone(), ExecutionConfig::with_policy(policy)))
        .collect();
    let runs: Vec<(&str, Arc<SimulationResults>)> = policies
        .iter()
        .zip(engine.evaluate_batch(&specs))
        .map(|(&policy, o)| (policy, o.expect("all policies are registered").results))
        .collect();
    println!("# Allocation policies ({jobs} jobs, 15 sites)\n");
    println!("policy,makespan_s,mean_queue_time_s,p95_queue_time_s,mean_walltime_s,throughput_per_hour,staged_bytes,wall_clock_s");
    for (policy, r) in &runs {
        let m = &r.metrics;
        let queue = m.queue_time.as_ref();
        println!(
            "{policy},{:.3},{:.3},{:.3},{:.3},{:.3},{},{:.4}",
            m.makespan_s,
            queue.map_or(0.0, |q| q.mean),
            queue.map_or(0.0, |q| q.p95),
            m.walltime.as_ref().map_or(0.0, |w| w.mean),
            m.throughput_per_hour,
            m.staged_bytes,
            r.wall_clock_s
        );
    }
    let best = |key: fn(&MetricsReport) -> f64| {
        runs.iter()
            .min_by(|a, b| key(&a.1.metrics).total_cmp(&key(&b.1.metrics)))
            .expect("non-empty comparison")
    };
    let (fastest, fastest_run) = best(|m| m.makespan_s);
    println!(
        "\nbest makespan: {fastest} ({:.1} h); best mean queue time: {}",
        fastest_run.metrics.makespan_s / 3600.0,
        best(|m| m.queue_time.as_ref().map_or(0.0, |q| q.mean)).0
    );

    // 2. Data-movement ablation: cache admission policies change WAN traffic.
    println!("\n# Data-movement policies (staged bytes over the WAN)\n");
    let data_specs: Vec<ScenarioSpec> = [
        "default-data-movement",
        "never-cache",
        "size-threshold-cache",
    ]
    .iter()
    .map(|&data_policy| {
        let mut execution = ExecutionConfig::with_policy("least-loaded");
        execution.data_movement_policy = data_policy.to_string();
        ScenarioSpec::new(base.clone(), execution)
    })
    .collect();
    for (outcome, spec) in engine
        .evaluate_batch(&data_specs)
        .into_iter()
        .zip(&data_specs)
    {
        let results = outcome.expect("simulation runs").results;
        println!(
            "{:<24} staged {:>8.1} GB, makespan {:>6.1} h",
            spec.execution.data_movement_policy,
            results.metrics.staged_bytes as f64 / 1e9,
            results.metrics.makespan_s / 3600.0
        );
    }

    // 3. Queue-time model: scheduling overhead shifts the queue-time metric.
    println!("\n# Queue-time model (scheduling overhead, paper §4.2)\n");
    for overhead_s in [0.0, 120.0, 600.0] {
        let mut execution = ExecutionConfig::with_policy("least-loaded");
        execution.queue_model = QueueModel::constant(overhead_s);
        let outcome = engine
            .evaluate(&ScenarioSpec::new(base.clone(), execution))
            .expect("simulation runs");
        println!(
            "overhead {:>5.0} s -> mean queue time {:>7.1} s, makespan {:>6.1} h",
            overhead_s,
            outcome
                .results
                .metrics
                .queue_time
                .as_ref()
                .map(|s| s.mean)
                .unwrap_or(0.0),
            outcome.results.metrics.makespan_s / 3600.0
        );
    }

    let counters = engine.cache_counters();
    println!(
        "\nengine: {} simulations run, cache {} hits / {} misses ({} entries)",
        engine.simulations_run(),
        counters.hits,
        counters.misses,
        counters.entries
    );
}
