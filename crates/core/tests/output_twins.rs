//! Reference twins for the dataset export.
//!
//! The `--output` tables used to be materialised: every record copied into a
//! row of typed cells, every cell rendered to its own `String`, every row
//! joined, every file built in memory. [`reference`] keeps that renderer,
//! unchanged but for the CR/LF quoting rule the streaming writer introduced,
//! and the tests here hold the streaming writer to its bytes: over random
//! records chosen to be hostile to a CSV writer, and over every file a
//! faulted + checkpointed run leaves in its output directory. A counting
//! allocator holds the string renderers to their one up-front reservation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use cgsim_core::{CheckpointConfig, ExecutionConfig, Simulation, SimulationResults};
use cgsim_faults::{parse_fault_spec, FaultPlan, FaultTopology};
use cgsim_monitor::{
    mldataset, EventRecord, JobOutcome, MetricsReport, MonitoringConfig, SiteMetrics, TableStore,
};
use cgsim_platform::presets::wlcg_platform;
use cgsim_platform::Platform;
use cgsim_workload::{JobId, JobKind, JobState, TraceConfig, TraceGenerator};
use proptest::prelude::*;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(work: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

/// The row-materialising renderer the streaming export replaced.
mod reference {
    use super::*;

    pub enum Value {
        Int(i64),
        Float(f64),
        Text(String),
    }

    impl Value {
        fn to_csv_field(&self) -> String {
            match self {
                Value::Int(v) => v.to_string(),
                Value::Float(v) => format!("{v}"),
                Value::Text(v) => {
                    if v.contains(',') || v.contains('"') || v.contains('\n') || v.contains('\r') {
                        format!("\"{}\"", v.replace('"', "\"\""))
                    } else {
                        v.clone()
                    }
                }
            }
        }
    }

    impl From<u64> for Value {
        fn from(v: u64) -> Self {
            Value::Int(v as i64)
        }
    }
    impl From<f64> for Value {
        fn from(v: f64) -> Self {
            Value::Float(v)
        }
    }
    impl From<&str> for Value {
        fn from(v: &str) -> Self {
            Value::Text(v.to_string())
        }
    }
    impl From<String> for Value {
        fn from(v: String) -> Self {
            Value::Text(v)
        }
    }

    pub struct Table {
        columns: Vec<String>,
        rows: Vec<Vec<Value>>,
    }

    impl Table {
        fn new(columns: &[&str]) -> Self {
            Table {
                columns: columns.iter().map(|c| c.to_string()).collect(),
                rows: Vec::new(),
            }
        }

        fn push_row(&mut self, row: Vec<Value>) {
            assert_eq!(row.len(), self.columns.len());
            self.rows.push(row);
        }

        pub fn to_csv(&self) -> String {
            let mut out = self.columns.join(",");
            out.push('\n');
            for row in &self.rows {
                let fields: Vec<String> = row.iter().map(Value::to_csv_field).collect();
                out.push_str(&fields.join(","));
                out.push('\n');
            }
            out
        }
    }

    pub fn table_store(
        events: &[EventRecord],
        outcomes: &[JobOutcome],
        metrics: &MetricsReport,
    ) -> BTreeMap<&'static str, Table> {
        let mut t = Table::new(&[
            "event_id",
            "time_s",
            "job_id",
            "state",
            "site",
            "available_cores",
            "pending_jobs",
            "assigned_jobs",
            "finished_jobs",
        ]);
        for e in events {
            t.push_row(vec![
                e.event_id.into(),
                e.time_s.into(),
                e.job_id.0.into(),
                e.state.label().into(),
                (&*e.site).into(),
                e.available_cores.into(),
                e.pending_jobs.into(),
                e.assigned_jobs.into(),
                e.finished_jobs.into(),
            ]);
        }
        let mut store = BTreeMap::from([("events", t)]);

        let mut t = Table::new(&[
            "job_id",
            "kind",
            "cores",
            "site",
            "submit_time",
            "queue_time",
            "walltime",
            "final_state",
            "staged_bytes",
        ]);
        for o in outcomes {
            t.push_row(vec![
                o.id.0.into(),
                o.kind.label().into(),
                (o.cores as u64).into(),
                (&*o.site).into(),
                o.submit_time.into(),
                o.queue_time.into(),
                o.walltime.into(),
                o.final_state.label().into(),
                o.staged_bytes.into(),
            ]);
        }
        store.insert("jobs", t);

        let mut t = Table::new(&[
            "site",
            "finished_jobs",
            "failed_jobs",
            "failure_rate",
            "mean_queue_time",
            "mean_walltime",
            "core_seconds",
        ]);
        for (name, m) in &metrics.per_site {
            t.push_row(vec![
                name.clone().into(),
                m.finished_jobs.into(),
                m.failed_jobs.into(),
                m.failure_rate.into(),
                m.queue_time.as_ref().map(|s| s.mean).unwrap_or(0.0).into(),
                m.walltime.as_ref().map(|s| s.mean).unwrap_or(0.0).into(),
                m.core_seconds.into(),
            ]);
        }
        store.insert("site_summary", t);
        store
    }

    pub fn ml_csv(examples: &[mldataset::MlExample]) -> String {
        let mut out = String::from(mldataset::CSV_HEADER);
        out.push('\n');
        for e in examples {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                e.job_id,
                e.is_multicore,
                e.cores,
                e.work_hs23,
                e.staged_bytes,
                e.site_available_cores_at_assign,
                e.site_queue_at_assign,
                e.submit_time,
                e.target_queue_time,
                e.target_walltime
            ));
        }
        out
    }
}

/// Site names a CSV writer can get wrong, plus ordinary ones.
fn site_names() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "CERN",
        "BNL-ATLAS",
        "",
        " ",
        "a,b",
        ",",
        "say \"hi\"",
        "\"",
        "\"\"",
        "two\nlines",
        "cr\rlf\r\n",
        "\n",
        "all,of\"it\r\n,\"\"",
        "tab\tand;semicolon'apostrophe",
        "unicode é 網",
    ])
    .prop_map(str::to_string)
}

/// 2^53: the largest magnitude below which every integral float prints as
/// its integer digits.
const TWO_53: f64 = 9_007_199_254_740_992.0;

/// 2^-100: the encoder writes shortest digits itself for non-integral
/// magnitudes in `[2^-100, 2^53)` and defers to `Display` outside.
const TWO_MINUS_100: f64 = f64::from_bits((1023 - 100) << 52);

/// A random non-integral float in `[2^46, 2^52)`, where exact ties between
/// two shortest candidates occur, with a random sign.
fn tie_class(random: f64) -> f64 {
    let bits = random.to_bits();
    let v = f64::from_bits((1069 + (bits >> 52) % 6) << 52 | bits & ((1 << 52) - 1));
    let v = if v.fract() == 0.0 { v + 0.5 } else { v };
    v.copysign(random)
}

/// A float at either edge of the encoder's shortest-digits range, with a
/// random sign.
fn range_edge(random: f64) -> f64 {
    let edges = [
        TWO_MINUS_100.next_down(),
        TWO_MINUS_100,
        TWO_MINUS_100.next_up(),
        4_503_599_627_370_495.5,
    ];
    edges[(random.to_bits() % 4) as usize].copysign(random)
}

/// Floats whose shortest form is long, signed, tiny, huge or not a number,
/// integral floats on either side of 2^53, and floats in and at the edges
/// of the range the encoder writes shortest digits for.
fn floats() -> impl Strategy<Value = f64> {
    (0usize..24, any::<f64>()).prop_map(|(pick, random)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MAX,
        3 => f64::MIN,
        4 => f64::MIN_POSITIVE,
        5 => 5e-324,
        6 => 1e21,
        7 => -1e-7,
        8 => 0.1 + 0.2,
        9 => f64::INFINITY,
        10 => f64::NEG_INFINITY,
        11 => f64::NAN,
        12 => random.trunc(),
        13 => TWO_53 - 1.0,
        14 => TWO_53,
        15 => TWO_53 + 2.0,
        16 => -TWO_53,
        17 => -(TWO_53 - 1.0),
        18 => 1e16,
        19 => tie_class(random),
        20 => range_edge(random),
        _ => random,
    })
}

/// Rows whose float repeats the previous row's bits (`true`) about a
/// quarter of the time, as event timestamps do in a run.
fn repeats() -> impl Strategy<Value = bool> {
    (0usize..4).prop_map(|pick| pick == 0)
}

fn counters() -> impl Strategy<Value = u64> {
    (0usize..8, any::<u64>()).prop_map(|(pick, random)| match pick {
        0 => 0,
        1 => u64::MAX,
        2 => i64::MAX as u64,
        3 => i64::MAX as u64 + 1,
        4 => random,
        _ => random % 100_000,
    })
}

fn states() -> impl Strategy<Value = JobState> {
    prop::sample::select(vec![
        JobState::Pending,
        JobState::Assigned,
        JobState::Staging,
        JobState::Running,
        JobState::Finished,
        JobState::Failed,
    ])
}

fn events() -> impl Strategy<Value = Vec<EventRecord>> {
    let record = (
        (counters(), floats(), counters(), states()),
        site_names(),
        (counters(), counters(), counters(), counters()),
        repeats(),
    )
        .prop_map(
            |(
                (event_id, time_s, job, state),
                site,
                (avail, pending, assigned, finished),
                repeat,
            )| {
                let record = EventRecord {
                    event_id,
                    time_s,
                    job_id: JobId(job),
                    state,
                    site: site.into(),
                    available_cores: avail,
                    pending_jobs: pending,
                    assigned_jobs: assigned,
                    finished_jobs: finished,
                };
                (record, repeat)
            },
        );
    prop::collection::vec(record, 0..12).prop_map(|rows| {
        let mut events: Vec<EventRecord> = Vec::with_capacity(rows.len());
        for (mut record, repeat) in rows {
            if let Some(previous) = events.last().filter(|_| repeat) {
                record.time_s = previous.time_s;
            }
            events.push(record);
        }
        events
    })
}

fn outcomes() -> impl Strategy<Value = Vec<JobOutcome>> {
    let record = (
        (counters(), any::<bool>(), any::<u32>(), site_names()),
        (floats(), floats(), floats(), floats()),
        (states(), counters()),
    )
        .prop_map(
            |((id, multi, cores, site), (submit, queue, wall, work), (state, staged))| JobOutcome {
                id: JobId(id),
                kind: if multi {
                    JobKind::MultiCore
                } else {
                    JobKind::SingleCore
                },
                cores,
                work_hs23: work,
                site: site.into(),
                submit_time: submit,
                assign_time: submit,
                start_time: submit,
                end_time: submit,
                final_state: state,
                staged_bytes: staged,
                walltime: wall,
                queue_time: queue,
                hist_walltime: None,
                hist_queue_time: None,
            },
        );
    prop::collection::vec(record, 0..12)
}

/// Per-site metrics built field by field (`MetricsReport::from_outcomes`
/// would reject NaN samples and overflow on `u64::MAX` byte counts).
fn metrics() -> impl Strategy<Value = MetricsReport> {
    let site = (
        site_names(),
        (counters(), counters()),
        (floats(), floats(), floats(), any::<bool>()),
    )
        .prop_map(
            |(site, (finished, failed), (rate, mean, core_s, sampled))| {
                let summary = cgsim_des::stats::Summary::of(&[1.0]).map(|mut s| {
                    s.mean = mean;
                    s
                });
                SiteMetrics {
                    site,
                    finished_jobs: finished,
                    failed_jobs: failed,
                    failure_rate: rate,
                    queue_time: summary.clone().filter(|_| sampled),
                    walltime: summary,
                    core_seconds: core_s,
                    throughput_per_hour: 0.0,
                }
            },
        );
    prop::collection::vec(site, 0..8).prop_map(|sites| MetricsReport {
        per_site: sites.into_iter().map(|m| (m.site.clone(), m)).collect(),
        ..MetricsReport::from_outcomes(&[])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every table, as a string and as a file, is byte for byte what the
    /// row-materialising renderer produced; so is the ML dataset.
    #[test]
    fn streamed_tables_match_the_materialised_renderer(
        events in events(),
        outcomes in outcomes(),
        metrics in metrics(),
    ) {
        let store = TableStore::new(&events, &outcomes, &metrics);
        let twin = reference::table_store(&events, &outcomes, &metrics);
        prop_assert_eq!(store.table_names().to_vec(), twin.keys().copied().collect::<Vec<_>>());
        for (name, table) in &twin {
            let streamed = store.get(name).unwrap();
            prop_assert_eq!(streamed.to_csv(), table.to_csv(), "table {}", name);
        }
        let examples = mldataset::build_examples(&outcomes, &events);
        prop_assert_eq!(mldataset::to_csv(&examples), reference::ml_csv(&examples));
    }
}

/// 400 jobs on 6 sites under outages, disk loss and kills, with 30-minute
/// checkpoints and windowed metrics on: the scenario family of the CI
/// determinism gates, with every output file present.
fn faulted_checkpointed_run() -> SimulationResults {
    let spec = wlcg_platform(6, 7);
    let trace = TraceGenerator::new(TraceConfig::with_jobs(400, 7)).generate(&spec);
    let config =
        parse_fault_spec("outage:site=all,mttf=4h,mttr=30m;diskloss:site=all,mttf=8h;kill:rate=2")
            .unwrap();
    let topology = FaultTopology::for_platform(&Platform::build(&spec).unwrap(), 400);
    let execution = ExecutionConfig {
        checkpoint: CheckpointConfig {
            interval_s: 1_800.0,
            ..CheckpointConfig::default()
        },
        monitoring: MonitoringConfig {
            window_s: 3_600.0,
            ..MonitoringConfig::default()
        },
        ..ExecutionConfig::with_policy("least-loaded")
    };
    Simulation::builder()
        .platform_spec(&spec)
        .unwrap()
        .trace(trace)
        .execution(execution)
        .fault_plan(FaultPlan::generate(&config, &topology, 7))
        .run()
        .unwrap()
}

#[test]
fn every_file_of_an_output_directory_matches_its_reference() {
    let results = faulted_checkpointed_run();
    let counters = &results.grid_counters;
    assert!(counters.job_interruptions > 0 && counters.checkpoints_written > 0);
    assert!(!results.windows.is_empty());

    let dir = std::env::temp_dir().join("cgsim-output-twins-test");
    std::fs::remove_dir_all(&dir).ok();
    results.save_output_dir(&dir).unwrap();

    let examples = mldataset::build_examples(&results.outcomes, &results.events);
    let mut expected: BTreeMap<String, String> = BTreeMap::from([
        ("dashboard.html".into(), results.html_dashboard()),
        ("results.json".into(), results.deterministic_json()),
        (
            "windows.csv".into(),
            cgsim_monitor::windows_csv(&results.windows),
        ),
        ("ml_dataset.csv".into(), reference::ml_csv(&examples)),
    ]);
    for (name, table) in
        reference::table_store(&results.events, &results.outcomes, &results.metrics)
    {
        expected.insert(format!("{name}.csv"), table.to_csv());
    }

    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(written, expected.keys().cloned().collect::<Vec<_>>());
    for (name, text) in &expected {
        let on_disk = std::fs::read_to_string(dir.join(name)).unwrap();
        assert!(on_disk == *text, "{name} differs from its reference");
        assert!(on_disk.lines().count() > 1, "{name} has content");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn each_rendered_table_is_one_allocation() {
    let results = faulted_checkpointed_run();
    let examples = mldataset::build_examples(&results.outcomes, &results.events);
    let store = results.to_table_store();
    let mut renders: Vec<(&str, usize)> = store
        .table_names()
        .iter()
        .map(|&name| {
            let table = store.get(name).unwrap();
            (name, allocations_during(|| drop(table.to_csv())))
        })
        .collect();
    renders.push((
        "ml_dataset",
        allocations_during(|| drop(mldataset::to_csv(&examples))),
    ));
    // One reservation, never regrown: the estimates cover every row.
    assert!(renders.iter().all(|&(_, n)| n == 1), "{renders:?}");
}
