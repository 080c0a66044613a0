//! One repetition of a simulation workload, run in its own process: set-up,
//! `Simulation::run()`, checks, export. Everything the simulator sees is a
//! generated input; everything timed is timed from out here.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cgsim_core::{
    CheckpointConfig, CheckpointTarget, ExecutionConfig, Simulation, SimulationResults,
};
use cgsim_faults::{parse_fault_spec, FaultPlan, FaultTopology};
use cgsim_monitor::{mldataset, MonitoringConfig};
use cgsim_platform::{wlcg_platform, Platform, PlatformSpec};
use cgsim_workload::{TraceConfig, TraceGenerator};
use serde_json::Value;

use crate::host::fnv1a;
use crate::json::{float, obj, uint};
use crate::spans::{self, Recorder};
use crate::workloads::{
    scaled, CkptSize, Monitoring, SimShape, Workload, CHURN_SPEC, FAULT_SEED, PLATFORM_SEED,
};
use crate::{Measured, RepArgs};

/// The checkpoint policy of the faulted workloads: every 20 min of work, to
/// the main server, overlapped with execution, 10 MB/s deltas.
pub fn churn_checkpoint(size: CkptSize) -> CheckpointConfig {
    CheckpointConfig {
        interval_s: 1_200.0,
        base_bytes: size.base_bytes,
        bytes_per_core: size.bytes_per_core,
        target: CheckpointTarget::MainServer,
        overlap: true,
        delta_bytes_per_s: 10_000_000,
    }
}

/// The scale-campaign monitor: ring of 10k events, stride 100, 1 h windows.
pub fn bounded_monitoring() -> MonitoringConfig {
    MonitoringConfig {
        enabled: true,
        sample_stride: 100,
        max_events: 10_000,
        window_s: 3_600.0,
        max_windows: 512,
    }
}

fn execution(shape: &SimShape) -> ExecutionConfig {
    ExecutionConfig {
        checkpoint: shape.churn.map(churn_checkpoint).unwrap_or_default(),
        monitoring: match shape.monitoring {
            Monitoring::Bounded => bounded_monitoring(),
            Monitoring::Full => MonitoringConfig::default(),
        },
        ..ExecutionConfig::with_policy(shape.policy)
    }
}

/// The fault plan exactly as `cgsim demo --faults` builds it.
fn churn_plan(spec: &PlatformSpec, jobs: usize) -> Result<FaultPlan, String> {
    let config = parse_fault_spec(CHURN_SPEC)?;
    let platform = Platform::build(spec).map_err(|e| e.to_string())?;
    let topology = FaultTopology::for_platform(&platform, jobs);
    Ok(FaultPlan::generate(&config, &topology, FAULT_SEED))
}

/// Writes what `cgsim simulate --output` writes: the CSV tables, the
/// deterministic results and the ML dataset. Returns the data rows written
/// to (events.csv, jobs.csv, ml_dataset.csv).
fn export_dataset(results: &SimulationResults, dir: &Path) -> Result<[usize; 3], String> {
    let io = |e: std::io::Error| format!("export to {}: {e}", dir.display());
    results.to_table_store().save_csv_dir(dir).map_err(io)?;
    std::fs::write(dir.join("results.json"), results.deterministic_json()).map_err(io)?;
    let examples = mldataset::build_examples(&results.outcomes, &results.events);
    std::fs::write(dir.join("ml_dataset.csv"), mldataset::to_csv(&examples)).map_err(io)?;
    let rows = |name: &str| -> Result<usize, String> {
        let bytes = std::fs::read(dir.join(name)).map_err(io)?;
        Ok(bytes
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            .saturating_sub(1))
    };
    Ok([
        rows("events.csv")?,
        rows("jobs.csv")?,
        rows("ml_dataset.csv")?,
    ])
}

/// Named value of the traced run's `ProfileReport` (0 when absent).
fn profile_bucket(results: &SimulationResults, case: &str) -> (f64, u64) {
    results
        .profile
        .as_ref()
        .and_then(|p| p.results.iter().find(|r| r.case == case))
        .map_or((0.0, 0), |r| (r.wall_s, r.count))
}

fn profile_counter(results: &SimulationResults, name: &str) -> u64 {
    results
        .profile
        .as_ref()
        .and_then(|p| p.counters.iter().find(|c| c.name == name))
        .map_or(0, |c| c.value)
}

/// Runs one repetition and returns its row. `Err` is a harness failure (the
/// inputs could not even be built); a failed check is a row with `ok: false`.
pub fn run(
    started: Instant,
    workload: &Workload,
    shape: &SimShape,
    args: &RepArgs,
) -> Result<Value, String> {
    let jobs = scaled(shape.jobs, args.divisor);
    let full_size = args.divisor <= 1;
    let execution = execution(shape);
    let stride = execution.monitoring.sample_stride.max(1);
    let mut rec = Recorder::new(started, args.traced);

    let (built, _) = rec.time("setup", |rec| -> Result<_, String> {
        let (platform, _) = rec.time("platform", |_| {
            let spec = wlcg_platform(shape.sites, PLATFORM_SEED);
            let builder = Simulation::builder().platform_spec(&spec);
            builder.map(|b| (spec, b)).map_err(|e| e.to_string())
        });
        let (spec, builder) = platform?;
        let (builder, _) = rec.time("trace_gen", |_| {
            let generator = TraceGenerator::new(TraceConfig {
                submission_window_s: shape.window_h * 3_600.0,
                ..TraceConfig::with_jobs(jobs, args.seed)
            });
            if shape.streamed {
                builder.trace_stream(generator.stream(&spec))
            } else {
                builder.trace(Arc::new(generator.generate(&spec)))
            }
        });
        let (plan, _) = rec.time("plan_gen", |_| {
            shape.churn.map(|_| churn_plan(&spec, jobs)).transpose()
        });
        let plan = plan?;
        let plan_end_s = plan
            .as_ref()
            .and_then(|p| p.events.last())
            .map(|e| e.time_s);
        let (sim, _) = rec.time("build", |_| {
            let mut builder = builder.execution(execution).profile(args.traced);
            if let Some(plan) = plan {
                builder = builder.fault_plan(plan);
            }
            builder.build().map_err(|e| e.to_string())
        });
        Ok((sim?, plan_end_s))
    });
    let (sim, plan_end_s) = built?;
    let setup_s = started.elapsed().as_secs_f64();

    let (results, run_s) = rec.time("run", |_| sim.run());

    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    let finished = results.metrics.finished_jobs;
    let failed_jobs = results.metrics.failed_jobs;
    check(
        results.outcomes.len() == jobs,
        format!("{} outcomes for {jobs} jobs", results.outcomes.len()),
    );
    check(
        finished + failed_jobs == jobs as u64,
        format!("finished {finished} + failed {failed_jobs} != {jobs} jobs"),
    );
    let counters = results.grid_counters;
    if shape.churn.is_some() {
        let end = plan_end_s.unwrap_or(0.0);
        check(
            end >= results.makespan_s,
            format!(
                "fault plan ends at {end:.0} s, before the makespan {:.0} s",
                results.makespan_s
            ),
        );
        check(
            counters.site_outages > 0,
            "no site outage was applied".to_string(),
        );
    }
    let fingerprint = fnv1a(results.deterministic_json().as_bytes());

    let (event_loop_s, _) = profile_bucket(&results, "event_loop");
    let (fluid_s, fluid_calls) = profile_bucket(&results, "fluid");
    let slow_solves = profile_counter(&results, "fluid_slow_solves");
    if full_size {
        let c = shape.checks;
        let stalls = counters.ckpt_stalls;
        if let Some(floor) = c.min_ckpt_stalls {
            check(
                stalls >= floor,
                format!("{stalls} checkpoint stalls, below the floor {floor}"),
            );
        }
        if let Some(share) = c.max_stall_share {
            let cap = share * counters.checkpoints_written as f64;
            check(
                stalls as f64 <= cap,
                format!("{stalls} checkpoint stalls, above {cap:.0}"),
            );
        }
        if args.traced {
            if let Some(floor) = c.min_fluid_share {
                let share = fluid_s / event_loop_s;
                check(
                    share >= floor,
                    format!("fluid is {share:.2} of the event loop, below {floor}"),
                );
            }
            if let Some(floor) = c.min_slow_solves {
                check(
                    slow_solves >= floor,
                    format!("{slow_solves} slow fluid solves, below the floor {floor}"),
                );
            }
        }
    }

    let out_dir = Path::new(crate::OUT_DIR).join(workload.name);
    let (exported, export_s) = rec.time("export", |_| -> Result<Option<[usize; 3]>, String> {
        if shape.dataset_export {
            export_dataset(&results, &out_dir).map(Some)
        } else {
            std::fs::create_dir_all(&out_dir)
                .and_then(|()| {
                    std::fs::write(out_dir.join("results.json"), results.deterministic_json())
                })
                .map_err(|e| format!("write {}: {e}", out_dir.display()))?;
            Ok(None)
        }
    });
    if let Some([events, job_rows, ml_rows]) = exported? {
        check(
            events == results.events.len(),
            format!(
                "{events} exported event rows for {} events",
                results.events.len()
            ),
        );
        check(
            job_rows == jobs,
            format!("{job_rows} exported job rows for {jobs} jobs"),
        );
        check(
            ml_rows == jobs,
            format!("{ml_rows} exported ML rows for {jobs} jobs"),
        );
    }
    let wall_s = if shape.dataset_export {
        run_s + export_s
    } else {
        run_s
    };

    // Transitions the monitor saw: ids count every recorded row from the
    // start of the run, and one row is kept per `sample_stride` transitions.
    let transitions = results
        .events
        .last()
        .map_or(0, |e| (e.event_id + 1) * stride);

    let failed = u64::from(!failures.is_empty());
    let mut row = args.row(
        workload,
        Measured {
            failures,
            attempted: 1,
            failed,
            setup_s,
            wall_s,
            run_s,
            export_s,
            fingerprint,
        },
    )?;
    row.push((
        "exact",
        obj([
            ("jobs", uint(jobs as u64)),
            ("sites", uint(shape.sites as u64)),
            ("engine_events", uint(results.engine_events)),
            ("sim_makespan_s", float(results.makespan_s)),
            ("finished_jobs", uint(finished)),
            ("failed_jobs", uint(failed_jobs)),
            ("site_outages", uint(counters.site_outages)),
            ("link_degradations", uint(counters.link_degradations)),
            ("job_interruptions", uint(counters.job_interruptions)),
            ("fault_retries", uint(counters.fault_retries)),
            ("checkpoints_written", uint(counters.checkpoints_written)),
            ("ckpt_stalls", uint(counters.ckpt_stalls)),
            ("monitor_transitions", uint(transitions)),
        ]),
    ));
    if args.traced {
        let (fault_s, fault_calls) = profile_bucket(&results, "fault_replay");
        let (ckpt_s, ckpt_calls) = profile_bucket(&results, "checkpoint");
        let (repair_s, repair_calls) = profile_bucket(&results, "repair");
        row.push((
            "profile",
            obj([
                ("event_loop_s", float(event_loop_s)),
                ("fluid_s", float(fluid_s)),
                ("fluid_calls", uint(fluid_calls)),
                ("fault_replay_s", float(fault_s)),
                ("fault_replay_calls", uint(fault_calls)),
                ("checkpoint_s", float(ckpt_s)),
                ("checkpoint_calls", uint(ckpt_calls)),
                ("repair_s", float(repair_s)),
                ("repair_calls", uint(repair_calls)),
                (
                    "fluid_fast_solves",
                    uint(profile_counter(&results, "fluid_fast_solves")),
                ),
                ("fluid_slow_solves", uint(slow_solves)),
            ]),
        ));
        row.push(("spans", spans::to_value(&rec.into_spans())));
    }
    Ok(obj(row))
}
