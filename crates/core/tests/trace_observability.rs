//! End-to-end battery for the observability layer (`cgsim-obs`):
//!
//! * tracing and profiling ON leave `deterministic_json` byte-identical to
//!   both OFF (sinks observe, they never perturb),
//! * two traced runs of the same faulted + checkpointed scenario produce
//!   byte-identical record streams, with strictly increasing sequence
//!   numbers and balanced begin/end span edges per (job, kind),
//! * the category filter drops exactly the unselected categories,
//! * the JSONL and Chrome sinks write files that validate against their
//!   schemas and are byte-identical across runs,
//! * `--profile` material (wall-clock) never reaches the deterministic
//!   results.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use cgsim_core::{
    CheckpointConfig, CheckpointTarget, ExecutionConfig, Simulation, SimulationResults,
};
use cgsim_faults::{FaultAction, FaultEvent, FaultPlan};
use cgsim_obs::{
    parse_filter, validate_chrome, validate_jsonl, ChromeSink, JsonlSink, SpanPhase, TraceCategory,
    TraceRecord, TraceSink, MASK_ALL,
};
use cgsim_platform::spec::MAIN_SERVER;
use cgsim_platform::{LinkSpec, PlatformSpec, SiteSpec, Tier};
use cgsim_workload::{JobKind, JobRecord, Trace};

fn two_site_platform() -> PlatformSpec {
    PlatformSpec::new("observed")
        .with_site(SiteSpec::uniform("Big", Tier::Tier1, 2_000, 10.0))
        .with_site(SiteSpec::uniform("Small", Tier::Tier2, 400, 10.0))
        .with_link(LinkSpec::new("Big", MAIN_SERVER, 100.0, 10.0))
        .with_link(LinkSpec::new("Small", MAIN_SERVER, 100.0, 10.0))
}

fn flat_trace(count: usize, work_s: f64) -> Trace {
    let jobs = (0..count)
        .map(|i| {
            let mut record = JobRecord::new(i as u64, JobKind::SingleCore, 1, work_s * 10.0);
            record.input_bytes = 1_000_000;
            record.output_bytes = 500_000;
            record
        })
        .collect();
    Trace {
        jobs,
        ..Trace::default()
    }
}

/// An outage killing mid-flight work, plus recovery — exercises interrupt,
/// checkpoint loss and restore paths.
fn outage_plan() -> FaultPlan {
    FaultPlan {
        events: vec![
            FaultEvent {
                time_s: 1_500.0,
                action: FaultAction::SiteDown { site: 0 },
            },
            FaultEvent {
                time_s: 2_500.0,
                action: FaultAction::SiteUp { site: 0 },
            },
        ],
    }
}

fn checkpointed_exec() -> ExecutionConfig {
    ExecutionConfig {
        checkpoint: CheckpointConfig {
            interval_s: 400.0,
            base_bytes: 100_000_000,
            bytes_per_core: 0,
            target: CheckpointTarget::SiteStorage,
            ..CheckpointConfig::default()
        },
        ..ExecutionConfig::default()
    }
}

/// A sink recording into shared storage, so the records survive the run
/// consuming the boxed sink.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<TraceRecord>>>);

impl SharedSink {
    fn records(&self) -> Vec<TraceRecord> {
        self.0.lock().unwrap().clone()
    }
}

impl TraceSink for SharedSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.0.lock().unwrap().push(rec.clone());
    }
}

/// Runs the reference faulted + checkpointed scenario with the given
/// observability options.
fn run(sink: Option<(Box<dyn TraceSink>, u32)>, profile: bool) -> SimulationResults {
    let mut builder = Simulation::builder()
        .platform_spec(&two_site_platform())
        .unwrap()
        .trace(flat_trace(60, 2_500.0))
        .execution(checkpointed_exec())
        .fault_plan(outage_plan())
        .profile(profile);
    if let Some((sink, mask)) = sink {
        builder = builder.trace_sink(sink, mask);
    }
    builder.run().unwrap()
}

#[test]
fn tracing_and_profiling_leave_deterministic_results_byte_identical() {
    let plain = run(None, false);
    let sink = SharedSink::default();
    let observed = run(Some((Box::new(sink.clone()), MASK_ALL)), true);

    assert_eq!(
        plain.deterministic_json(),
        observed.deterministic_json(),
        "a traced + profiled run must not perturb the simulation"
    );
    assert!(!sink.records().is_empty(), "the scenario produces a trace");

    // Profile material exists when asked for, and only then — and no
    // wall-clock number ever reaches the deterministic subset.
    assert!(plain.profile.is_none());
    let profile = observed.profile.expect("profiling was requested");
    let event_loop = &profile.results[0];
    assert_eq!(event_loop.case, "event_loop");
    assert_eq!(event_loop.count, 1, "one engine run, one event-loop region");
    assert!(event_loop.wall_s > 0.0);
    assert!(profile
        .counters
        .iter()
        .any(|c| c.name == "engine_events" && c.value > 0));
    assert!(!plain.deterministic_json().contains("wall_clock"));
}

#[test]
fn trace_streams_are_byte_identical_across_runs_and_spans_balance() {
    let first = SharedSink::default();
    run(Some((Box::new(first.clone()), MASK_ALL)), false);
    let second = SharedSink::default();
    run(Some((Box::new(second.clone()), MASK_ALL)), false);

    let records = first.records();
    assert!(!records.is_empty());
    assert_eq!(records, second.records(), "trace replay must be exact");

    // Sequence numbers are strictly increasing and sim-time never runs
    // backwards (records carry no wall-clock at all).
    for pair in records.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
        assert!(pair[0].time_s <= pair[1].time_s);
    }

    // Every span that begins ends exactly once, per (job, kind) — faults
    // close interrupted spans with an explanatory `info` instead of leaking
    // them.
    let mut open: HashMap<(Option<u64>, &str), i64> = HashMap::new();
    for rec in &records {
        let key = (rec.job, rec.kind.as_str());
        match rec.ph {
            SpanPhase::Begin => *open.entry(key).or_insert(0) += 1,
            SpanPhase::End => {
                let depth = open.entry(key).or_insert(0);
                assert!(*depth > 0, "end without begin: {rec:?}");
                *depth -= 1;
            }
            SpanPhase::Instant => {}
        }
    }
    assert!(
        open.values().all(|&depth| depth == 0),
        "unbalanced spans: {open:?}"
    );

    // The faulted + checkpointed scenario touches every category.
    for cat in [
        TraceCategory::Job,
        TraceCategory::Fault,
        TraceCategory::Ckpt,
        TraceCategory::Fluid,
        TraceCategory::Broker,
    ] {
        assert!(
            records.iter().any(|r| r.cat == cat),
            "no {cat:?} records in the reference scenario"
        );
    }
    assert!(records
        .iter()
        .any(|r| r.ph == SpanPhase::End && r.info.as_deref() == Some("interrupted")));
}

#[test]
fn category_filter_drops_unselected_categories() {
    let sink = SharedSink::default();
    let mask = parse_filter("fault,ckpt").unwrap();
    run(Some((Box::new(sink.clone()), mask)), false);
    let records = sink.records();
    assert!(!records.is_empty());
    assert!(records
        .iter()
        .all(|r| matches!(r.cat, TraceCategory::Fault | TraceCategory::Ckpt)));
}

#[test]
fn jsonl_and_chrome_files_validate_and_replay_byte_identically() {
    let dir = std::env::temp_dir().join("cgsim-trace-obs-test");
    std::fs::create_dir_all(&dir).unwrap();
    let render = |tag: &str| {
        let jsonl = dir.join(format!("trace-{tag}.jsonl"));
        let chrome = dir.join(format!("trace-{tag}.json"));
        run(
            Some((Box::new(JsonlSink::create(&jsonl).unwrap()), MASK_ALL)),
            false,
        );
        run(
            Some((Box::new(ChromeSink::create(&chrome).unwrap()), MASK_ALL)),
            false,
        );
        (
            std::fs::read_to_string(&jsonl).unwrap(),
            std::fs::read_to_string(&chrome).unwrap(),
        )
    };
    let (jsonl_a, chrome_a) = render("a");
    let (jsonl_b, chrome_b) = render("b");
    assert_eq!(jsonl_a, jsonl_b, "JSONL trace files must replay exactly");
    assert_eq!(chrome_a, chrome_b, "Chrome trace files must replay exactly");

    let lines = validate_jsonl(&jsonl_a).expect("schema-valid JSONL");
    assert!(lines > 0);
    let events = validate_chrome(&chrome_a).expect("well-formed Chrome trace");
    assert_eq!(lines, events, "both sinks observed the same emissions");
    std::fs::remove_dir_all(&dir).ok();
}
