//! End-to-end integration tests spanning the whole workspace: JSON config in,
//! simulation through the core, monitoring/metrics/dashboard out.

use cgsim::monitor::mldataset;
use cgsim::prelude::*;

fn small_run(policy: &str, jobs: usize, seed: u64) -> SimulationResults {
    let platform = example_platform();
    let trace = TraceGenerator::new(TraceConfig::with_jobs(jobs, seed)).generate(&platform);
    Simulation::builder()
        .platform_spec(&platform)
        .unwrap()
        .trace(trace)
        .execution(ExecutionConfig::with_policy(policy))
        .run()
        .unwrap()
}

#[test]
fn json_config_roundtrip_drives_a_simulation() {
    // The paper's input layer: JSON files for infrastructure+network and
    // execution parameters.
    let dir = std::env::temp_dir().join("cgsim-e2e-config");
    std::fs::create_dir_all(&dir).unwrap();
    let platform_path = dir.join("platform.json");
    let execution_path = dir.join("execution.json");

    let platform = wlcg_platform(6, 3);
    platform.save(&platform_path).unwrap();
    std::fs::write(
        &execution_path,
        ExecutionConfig::with_policy("round-robin").to_json(),
    )
    .unwrap();

    let platform = PlatformSpec::load(&platform_path).unwrap();
    let execution =
        ExecutionConfig::from_json(&std::fs::read_to_string(&execution_path).unwrap()).unwrap();
    assert_eq!(platform.sites.len(), 6);
    assert_eq!(execution.allocation_policy, "round-robin");

    let trace = TraceGenerator::new(TraceConfig::with_jobs(150, 5)).generate(&platform);
    let results = Simulation::builder()
        .platform_spec(&platform)
        .unwrap()
        .trace(trace)
        .execution(execution)
        .run()
        .unwrap();
    assert_eq!(results.outcomes.len(), 150);
    assert_eq!(results.policy, "round-robin");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn full_pipeline_produces_consistent_outputs() {
    let results = small_run("least-loaded", 300, 17);

    // Every job terminal, metrics consistent with outcomes.
    assert_eq!(results.outcomes.len(), 300);
    assert_eq!(
        results.metrics.finished_jobs + results.metrics.failed_jobs,
        300
    );

    // Event dataset covers every job's terminal transition.
    let terminal_events = results
        .events
        .iter()
        .filter(|e| e.state.is_terminal())
        .count();
    assert_eq!(terminal_events, 300);

    // Monotone event ids and timestamps within the makespan.
    for (a, b) in results.events.iter().zip(results.events.iter().skip(1)) {
        assert!(a.event_id < b.event_id);
    }
    assert!(results
        .events
        .iter()
        .all(|e| e.time_s <= results.makespan_s + 1e-6));

    // Table store export matches the in-memory data.
    let store = results.to_table_store();
    assert_eq!(store.get("jobs").unwrap().len(), 300);
    assert_eq!(store.get("events").unwrap().len(), results.events.len());

    // Dashboards render with all four sites.
    let ascii = results.ascii_dashboard();
    for site in ["CERN", "BNL", "DESY-ZN", "LRZ-LMU"] {
        assert!(ascii.contains(site), "dashboard missing {site}");
    }
}

#[test]
fn conservation_core_seconds_match_walltimes() {
    let results = small_run("least-loaded", 200, 23);
    let from_outcomes: f64 = results
        .outcomes
        .iter()
        .map(|o| o.walltime() * o.cores() as f64)
        .sum();
    let from_metrics: f64 = results
        .metrics
        .per_site
        .values()
        .map(|s| s.core_seconds)
        .sum();
    assert!(
        (from_outcomes - from_metrics).abs() < 1e-6 * from_outcomes.max(1.0),
        "core-second accounting mismatch: {from_outcomes} vs {from_metrics}"
    );
}

#[test]
fn policies_differ_but_both_complete_the_workload() {
    // Round-robin cycles through every site while fastest-available
    // concentrates load on the quickest one, so their placements must differ
    // on an uncongested grid — yet both complete the full workload.
    let a = small_run("fastest-available", 250, 31);
    let b = small_run("round-robin", 250, 31);
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    assert!(a.outcomes.iter().all(|o| o.final_state().is_terminal()));
    assert!(b.outcomes.iter().all(|o| o.final_state().is_terminal()));
    let differing = a
        .outcomes
        .iter()
        .zip(&b.outcomes)
        .filter(|(x, y)| x.site() != y.site())
        .count();
    assert!(differing > 0, "policies produced identical placements");
    // Round-robin spreads the workload over every site of the 4-site grid.
    let sites_used: std::collections::HashSet<_> = b.outcomes.iter().map(|o| o.site()).collect();
    assert_eq!(sites_used.len(), 4);
}

#[test]
fn ml_dataset_is_generated_from_any_run() {
    let results = small_run("least-loaded", 120, 41);
    let examples = mldataset::build_examples(&results.outcomes, &results.events);
    assert_eq!(examples.len(), 120);
    // The site features are captured when each job is dispatched; were they
    // lost, every one would read 0.
    assert!(examples
        .iter()
        .any(|e| e.site_available_cores_at_assign > 0.0));
    let csv = mldataset::to_csv(&examples);
    assert_eq!(csv.lines().count(), 121);
    let columns = mldataset::CSV_HEADER.split(',').count();
    assert!(csv.lines().all(|row| row.split(',').count() == columns));
}

#[test]
fn bounded_monitoring_keeps_the_unbounded_runs_ml_dataset() {
    let platform = wlcg_platform(6, 4);
    let trace = std::sync::Arc::new(
        TraceGenerator::new(TraceConfig::with_jobs(600, 4)).generate(&platform),
    );
    let run = |monitoring| {
        Simulation::builder()
            .platform_spec(&platform)
            .unwrap()
            .trace(std::sync::Arc::clone(&trace))
            .execution(ExecutionConfig {
                monitoring,
                ..ExecutionConfig::with_policy("least-loaded")
            })
            .run()
            .unwrap()
    };
    let full = run(MonitoringConfig::default());
    let bounded = run(MonitoringConfig {
        max_events: 100,
        sample_stride: 10,
        ..MonitoringConfig::default()
    });
    // The bound drops almost every `Assigned` event row of the run.
    assert!(bounded.events.len() < 200 && full.events.len() > 2_400);
    let examples = |r: &SimulationResults| mldataset::build_examples(&r.outcomes, &r.events);
    assert_eq!(examples(&bounded), examples(&full));
    assert_eq!(examples(&full).len(), 600);
}
