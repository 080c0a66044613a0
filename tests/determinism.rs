//! Reproducibility: identical configuration and seed must yield bit-identical
//! results across the whole pipeline (a prerequisite for the calibration
//! experiments, which re-evaluate the same trace hundreds of times).

use cgsim::prelude::*;

fn run(seed: u64, policy: &str) -> SimulationResults {
    let platform = wlcg_platform(8, 11);
    let trace = TraceGenerator::new(TraceConfig::with_jobs(400, seed)).generate(&platform);
    let mut execution = ExecutionConfig::with_policy(policy);
    execution.seed = seed;
    execution.failure_probability = 0.05;
    execution.max_retries = 1;
    Simulation::builder()
        .platform_spec(&platform)
        .unwrap()
        .trace(trace)
        .execution(execution)
        .run()
        .unwrap()
}

#[test]
fn identical_seeds_give_identical_runs() {
    for policy in ["least-loaded", "random", "historical-panda"] {
        let a = run(99, policy);
        let b = run(99, policy);
        assert_eq!(a.outcomes.len(), b.outcomes.len(), "{policy}");
        assert_eq!(a.engine_events, b.engine_events, "{policy}");
        assert_eq!(a.events.len(), b.events.len(), "{policy}");
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.id(), y.id());
            assert_eq!(x.site(), y.site());
            assert_eq!(x.final_state(), y.final_state());
            assert_eq!(x.walltime().to_bits(), y.walltime().to_bits());
            assert_eq!(x.queue_time().to_bits(), y.queue_time().to_bits());
        }
    }
}

#[test]
fn different_seeds_give_different_runs() {
    let a = run(1, "random");
    let b = run(2, "random");
    let same_placement = a
        .outcomes
        .iter()
        .zip(&b.outcomes)
        .filter(|(x, y)| x.site() == y.site())
        .count();
    assert!(
        same_placement < a.outcomes.len(),
        "different seeds should not yield identical placements"
    );
}

#[test]
fn trace_generation_is_reproducible_across_save_and_load() {
    let platform = wlcg_platform(5, 21);
    let trace = TraceGenerator::new(TraceConfig::with_jobs(100, 77)).generate(&platform);
    let path = std::env::temp_dir().join("cgsim-determinism-trace.jsonl");
    trace.save_jsonl(&path).unwrap();
    let loaded = Trace::load_jsonl(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let run_trace = |t: Trace| {
        Simulation::builder()
            .platform_spec(&platform)
            .unwrap()
            .trace(t)
            .execution(ExecutionConfig::default())
            .run()
            .unwrap()
    };
    let a = run_trace(trace);
    let b = run_trace(loaded);
    assert_eq!(a.engine_events, b.engine_events);
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.walltime().to_bits(), y.walltime().to_bits());
    }
}
