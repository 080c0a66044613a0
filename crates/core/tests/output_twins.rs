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
//!
//! A run stores each job's outcome as a 40-byte row that the outcome table
//! joins to the job's trace record when read. The reference side never
//! reads through that join: it builds the owned outcome the run used to
//! store, field by field from the trace and the row, and computes the
//! metrics report and the ML examples from those owned outcomes, grouped by
//! site name, as the code before the join did.
//!
//! Event rows are 32 bytes too: a job index, a site index and `u32`
//! counters, which the event table widens and joins to the event id, the
//! job's id and the site's name when read. The reference side renders owned
//! 80-byte records built from each view, and a reference collector — the
//! owned-row collector runs used to hold, fed every transition of a fully
//! monitored run — is the lockstep twin of the same run thinned and ringed.
//!
//! The ML examples' site state used to come from joining each outcome to
//! its job's last `Assigned` event row at export time; the run now captures
//! it in the row at dispatch. On the faulted run, where every transition is
//! recorded, that old join is the reference each captured pair is held to.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use cgsim_core::{CheckpointConfig, ExecutionConfig, Simulation, SimulationResults};
use cgsim_faults::{parse_fault_spec, FaultPlan, FaultTopology};
use cgsim_monitor::{
    mldataset, EventRow, EventTable, MetricsReport, MonitoringConfig, OutcomeRow, OutcomeTable,
    SiteMetrics, TableStore,
};
use cgsim_platform::presets::wlcg_platform;
use cgsim_platform::Platform;
use cgsim_workload::{JobId, JobKind, JobRecord, JobState, Trace, TraceConfig, TraceGenerator};
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

/// The row-materialising renderer the streaming export replaced, over the
/// owned outcomes the outcome table replaced.
mod reference {
    use super::*;
    use cgsim_des::stats::Summary;

    /// Final outcome of one simulated job, as runs stored it before the
    /// outcome table: every column owned, nothing joined at read time.
    #[derive(Debug, Clone)]
    pub struct JobOutcome {
        pub id: JobId,
        pub kind: JobKind,
        pub cores: u32,
        pub work_hs23: f64,
        pub site: Arc<str>,
        pub submit_time: f64,
        pub available_cores_at_assign: u32,
        pub queue_at_assign: u32,
        pub start_time: f64,
        pub end_time: f64,
        pub final_state: JobState,
        pub staged_bytes: u64,
        pub walltime: f64,
        pub queue_time: f64,
        pub hist_walltime: Option<f64>,
        pub hist_queue_time: Option<f64>,
    }

    /// The owned outcome of every row of `table`, built field by field from
    /// the row and its record in `trace` (the trace the table was made
    /// over), as the run's terminal bookkeeping used to build it.
    pub fn outcomes(table: &OutcomeTable, trace: &Trace) -> Vec<JobOutcome> {
        table
            .rows()
            .iter()
            .map(|row| {
                let record = &trace.jobs[row.job as usize];
                let submit_time = if record.submit_time < 0.0 {
                    0.0
                } else {
                    record.submit_time
                };
                JobOutcome {
                    id: record.id,
                    kind: record.kind,
                    cores: record.cores,
                    work_hs23: record.work_hs23,
                    site: Arc::clone(&table.site_names()[row.site as usize]),
                    submit_time,
                    available_cores_at_assign: row.available_cores_at_assign,
                    queue_at_assign: row.queue_at_assign,
                    start_time: row.start_time,
                    end_time: row.end_time,
                    final_state: row.final_state,
                    staged_bytes: row.staged_bytes,
                    walltime: row.end_time - row.start_time,
                    queue_time: row.start_time - submit_time,
                    hist_walltime: record.hist_walltime,
                    hist_queue_time: record.hist_queue_time,
                }
            })
            .collect()
    }

    /// The metrics report over owned outcomes: whole-grid samples first,
    /// then the outcomes grouped by site name, each group in outcome order.
    pub fn metrics(outcomes: &[JobOutcome]) -> MetricsReport {
        if outcomes.is_empty() {
            return MetricsReport::from_outcomes(&OutcomeTable::default());
        }
        let first_submit = outcomes
            .iter()
            .map(|o| o.submit_time)
            .fold(f64::INFINITY, f64::min);
        let last_end = outcomes.iter().map(|o| o.end_time).fold(0.0f64, f64::max);
        let makespan = (last_end - first_submit).max(0.0);
        let finished = outcomes
            .iter()
            .filter(|o| o.final_state == JobState::Finished)
            .count() as u64;
        let failed = outcomes.len() as u64 - finished;
        let queue_times: Vec<f64> = outcomes.iter().map(|o| o.queue_time).collect();
        let walltimes: Vec<f64> = outcomes.iter().map(|o| o.walltime).collect();
        let staged: u64 = outcomes.iter().map(|o| o.staged_bytes).sum();
        let throughput = |finished: u64| {
            if makespan > 0.0 {
                finished as f64 / (makespan / 3600.0)
            } else {
                0.0
            }
        };

        let mut by_site: BTreeMap<&str, Vec<&JobOutcome>> = BTreeMap::new();
        for o in outcomes {
            by_site.entry(&o.site).or_default().push(o);
        }
        let per_site = by_site
            .into_iter()
            .map(|(site, jobs)| {
                let fin = jobs
                    .iter()
                    .filter(|o| o.final_state == JobState::Finished)
                    .count() as u64;
                let fail = jobs.len() as u64 - fin;
                let qt: Vec<f64> = jobs.iter().map(|o| o.queue_time).collect();
                let wt: Vec<f64> = jobs.iter().map(|o| o.walltime).collect();
                let core_seconds: f64 = jobs.iter().map(|o| o.walltime * o.cores as f64).sum();
                let metrics = SiteMetrics {
                    site: site.to_string(),
                    finished_jobs: fin,
                    failed_jobs: fail,
                    failure_rate: fail as f64 / jobs.len() as f64,
                    queue_time: Summary::of(&qt),
                    walltime: Summary::of(&wt),
                    core_seconds,
                    throughput_per_hour: throughput(fin),
                };
                (site.to_string(), metrics)
            })
            .collect();

        MetricsReport {
            makespan_s: makespan,
            total_jobs: outcomes.len() as u64,
            finished_jobs: finished,
            failed_jobs: failed,
            failure_rate: failed as f64 / outcomes.len() as f64,
            queue_time: Summary::of(&queue_times),
            walltime: Summary::of(&walltimes),
            throughput_per_hour: throughput(finished),
            staged_bytes: staged,
            per_site,
        }
    }

    /// The ML examples over owned outcomes.
    pub fn ml_examples(outcomes: &[JobOutcome]) -> Vec<mldataset::MlExample> {
        outcomes
            .iter()
            .map(|o| mldataset::MlExample {
                job_id: o.id.0,
                is_multicore: if o.kind == JobKind::MultiCore {
                    1.0
                } else {
                    0.0
                },
                cores: o.cores as f64,
                work_hs23: o.work_hs23,
                staged_bytes: o.staged_bytes as f64,
                site_available_cores_at_assign: o.available_cores_at_assign as f64,
                site_queue_at_assign: o.queue_at_assign as f64,
                submit_time: o.submit_time,
                target_queue_time: o.queue_time,
                target_walltime: o.walltime,
            })
            .collect()
    }

    /// One row of the event-level dataset, as runs stored it before the
    /// event table: every column owned, the site name a shared allocation.
    #[derive(Debug, Clone, PartialEq)]
    pub struct EventRecord {
        pub event_id: u64,
        pub time_s: f64,
        pub job_id: JobId,
        pub state: JobState,
        pub site: Arc<str>,
        pub available_cores: u64,
        pub pending_jobs: u64,
        pub assigned_jobs: u64,
        pub finished_jobs: u64,
    }

    /// The owned record of every view of `table`.
    pub fn events(table: &EventTable) -> Vec<EventRecord> {
        table
            .iter()
            .map(|e| EventRecord {
                event_id: e.event_id,
                time_s: e.time_s,
                job_id: e.job_id,
                state: e.state,
                site: e.site.into(),
                available_cores: e.available_cores,
                pending_jobs: e.pending_jobs,
                assigned_jobs: e.assigned_jobs,
                finished_jobs: e.finished_jobs,
            })
            .collect()
    }

    /// The collector's event path before rows were narrowed: it counts a
    /// site's assigned and finished jobs in `u64`, numbers the rows it keeps
    /// and drains its ring the same way, and stores owned records.
    pub struct Collector {
        config: MonitoringConfig,
        counters: HashMap<Arc<str>, (u64, u64)>,
        pub events: Vec<EventRecord>,
        next_event_id: u64,
        transitions_seen: u64,
    }

    impl Collector {
        pub fn new(config: MonitoringConfig) -> Self {
            Collector {
                config,
                counters: HashMap::new(),
                events: Vec::new(),
                next_event_id: 0,
                transitions_seen: 0,
            }
        }

        /// Records the transition `t` (an event of a run that kept every
        /// transition; its id and counters are not read).
        pub fn record(&mut self, t: &EventRecord) {
            let at_site = !t.site.is_empty();
            if at_site {
                let counters = self.counters.entry(Arc::clone(&t.site)).or_default();
                match t.state {
                    JobState::Assigned => counters.0 += 1,
                    JobState::Finished => counters.1 += 1,
                    _ => {}
                }
            }
            self.transitions_seen += 1;
            let stride = self.config.sample_stride.max(1);
            if !self.config.enabled || !self.transitions_seen.is_multiple_of(stride) {
                return;
            }
            let event_id = self.next_event_id;
            self.next_event_id += 1;
            let (assigned, finished) = match at_site {
                true => self.counters[&t.site],
                false => (0, 0),
            };
            self.events.push(EventRecord {
                event_id,
                assigned_jobs: assigned,
                finished_jobs: finished,
                ..t.clone()
            });
            let cap = self.config.max_events as usize;
            if cap > 0 && self.events.len() >= cap * 2 {
                let drop = self.events.len() - cap;
                self.events.drain(..drop);
            }
        }
    }

    /// Each job's last `Assigned` event row: where the ML dataset's site
    /// state came from when the export joined the event table.
    pub fn last_assigned(events: &[EventRecord]) -> HashMap<JobId, &EventRecord> {
        events
            .iter()
            .filter(|e| e.state == JobState::Assigned)
            .map(|e| (e.job_id, e))
            .collect()
    }

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

/// `u32` counters at the edges of their range, random ones and small ones.
fn narrow_counters() -> impl Strategy<Value = u32> {
    (0usize..4, any::<u32>()).prop_map(|(pick, random)| match pick {
        0 => 0,
        1 => u32::MAX,
        2 => random,
        _ => random % 100_000,
    })
}

/// Event tables of hostile values: any float as a time, jobs of any id,
/// sites a CSV writer can get wrong and the main server, counters at their
/// edges, any first event id and up to three assigned-count crossings.
fn events() -> impl Strategy<Value = EventTable> {
    let row = (
        (floats(), 0u32..4, any::<u16>(), states()),
        (
            narrow_counters(),
            narrow_counters(),
            narrow_counters(),
            narrow_counters(),
        ),
        repeats(),
    )
        .prop_map(
            |((time_s, job, site, state), (avail, pending, assigned, finished), repeat)| {
                let row = EventRow {
                    time_s,
                    job,
                    site,
                    state,
                    available_cores: avail,
                    pending_jobs: pending,
                    assigned_jobs: assigned,
                    finished_jobs: finished,
                };
                (row, repeat)
            },
        );
    (
        prop::collection::vec(site_names(), 1..4),
        prop::collection::vec(counters(), 4),
        prop::collection::vec(row, 0..12),
        counters(),
        prop::collection::vec((0u64..14, any::<u16>()), 0..4),
    )
        .prop_map(|(mut names, ids, rows, drained, crossings)| {
            let mut seen = std::collections::HashSet::new();
            names.retain(|name| seen.insert(name.clone()));
            let sites = names.len() as u16;
            // Every `sites + 1`-th site index is the main server's.
            let site = |pick: u16| match pick % (sites + 1) {
                s if s == sites => EventRow::SERVER,
                s => s,
            };
            let mut events: Vec<EventRow> = Vec::with_capacity(rows.len());
            for (mut row, repeat) in rows {
                row.site = site(row.site);
                if let Some(previous) = events.last().filter(|_| repeat) {
                    row.time_s = previous.time_s;
                }
                events.push(row);
            }
            let drained = drained.min(u64::MAX - 12);
            let crossings = crossings
                .into_iter()
                .map(|(id, pick)| (drained.saturating_add(id), pick % sites))
                .collect();
            let trace = Trace {
                jobs: ids
                    .into_iter()
                    .map(|id| record(id, false, 1, 1.0, 0.0))
                    .collect(),
                ..Trace::default()
            };
            let names: Vec<Arc<str>> = names.iter().map(|name| name.as_str().into()).collect();
            EventTable::new(events, drained, crossings, Arc::new(trace), names.into())
        })
}

/// An outcome table over `jobs` (row `i` names record `i`) and the trace it
/// was made over, with the site list `names` rid of repeats (a platform's
/// names are distinct) and each row's site index taken modulo its length.
fn table(mut names: Vec<String>, jobs: Vec<(JobRecord, OutcomeRow)>) -> (Arc<Trace>, OutcomeTable) {
    let mut seen = std::collections::HashSet::new();
    names.retain(|name| seen.insert(name.clone()));
    let sites: Vec<Arc<str>> = names.iter().map(|name| name.as_str().into()).collect();
    let (records, rows): (Vec<_>, Vec<_>) = jobs
        .into_iter()
        .enumerate()
        .map(|(i, (record, row))| {
            let site = row.site % sites.len() as u16;
            (
                record,
                OutcomeRow {
                    job: i as u32,
                    site,
                    ..row
                },
            )
        })
        .unzip();
    let trace = Arc::new(Trace {
        jobs: records,
        ..Trace::default()
    });
    let outcomes = OutcomeTable::new(rows, Arc::clone(&trace), sites.into());
    (trace, outcomes)
}

fn record(id: u64, multi: bool, cores: u32, work: f64, submit: f64) -> JobRecord {
    let kind = if multi {
        JobKind::MultiCore
    } else {
        JobKind::SingleCore
    };
    JobRecord {
        submit_time: submit,
        ..JobRecord::new(id, kind, cores, work)
    }
}

/// Outcomes over records and rows of hostile values: any float in any time
/// or work column, any counter, any state, sites a CSV writer can get wrong.
fn outcomes() -> impl Strategy<Value = (Arc<Trace>, OutcomeTable)> {
    let job = (
        (counters(), any::<bool>(), any::<u32>(), floats()),
        (floats(), floats(), floats()),
        (
            any::<u16>(),
            states(),
            counters(),
            (any::<u32>(), any::<u32>()),
        ),
    )
        .prop_map(
            |((id, multi, cores, work), (submit, start, end), (site, state, staged, at_assign))| {
                let row = OutcomeRow {
                    job: 0,
                    site,
                    final_state: state,
                    available_cores_at_assign: at_assign.0,
                    queue_at_assign: at_assign.1,
                    start_time: start,
                    end_time: end,
                    staged_bytes: staged,
                };
                (record(id, multi, cores, work, submit), row)
            },
        );
    (
        prop::collection::vec(site_names(), 1..6),
        prop::collection::vec(job, 0..12),
    )
        .prop_map(|(names, jobs)| table(names, jobs))
}

/// Outcomes a run could hold: finite times at five sites whose index order
/// is not their name order, submit times below zero now and then (clamped
/// when read), ground truth on some jobs, failures on some, and an
/// `Assigned` event for most jobs.
fn run_like_outcomes() -> impl Strategy<Value = (Arc<Trace>, OutcomeTable, EventTable)> {
    let job = (
        (0u64..40, 1u32..9, 1.0f64..1e6),
        (-100.0f64..1e5, 0.0f64..1e4, 0.0f64..1e5),
        (0u16..5, any::<bool>(), 0u64..1_000_000_000_000, 0usize..4),
    )
        .prop_map(
            |((id, cores, work), (submit, queue, wall), (site, failed, staged, pick))| {
                let mut record = record(id, cores > 1, cores, work, submit);
                record.hist_walltime = (pick > 0).then_some(wall * 0.9 + 1.0);
                let start = submit.max(0.0) + queue;
                let row = OutcomeRow {
                    job: 0,
                    site,
                    final_state: if failed {
                        JobState::Failed
                    } else {
                        JobState::Finished
                    },
                    available_cores_at_assign: (staged % 1_000) as u32,
                    queue_at_assign: pick as u32,
                    start_time: start,
                    end_time: start + wall,
                    staged_bytes: staged,
                };
                let assigned = (pick < 3).then_some(EventRow {
                    time_s: start - queue / 2.0,
                    job: 0,
                    site,
                    state: JobState::Assigned,
                    available_cores: row.available_cores_at_assign,
                    pending_jobs: row.queue_at_assign,
                    assigned_jobs: 0,
                    finished_jobs: 0,
                });
                ((record, row), assigned)
            },
        );
    let names = ["T2_b", "T1_a", "T0", "T3,x", ""]
        .map(String::from)
        .to_vec();
    prop::collection::vec(job, 0..60).prop_map(move |jobs| {
        let (jobs, events): (Vec<_>, Vec<Option<EventRow>>) = jobs.into_iter().unzip();
        let (trace, outcomes) = table(names.clone(), jobs);
        let rows = (0..)
            .zip(events)
            .filter_map(|(job, row)| Some(EventRow { job, ..row? }))
            .collect();
        let sites = outcomes.site_names().into();
        let events = EventTable::new(rows, 0, Vec::new(), Arc::clone(&trace), sites);
        (trace, outcomes, events)
    })
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
        ..MetricsReport::from_outcomes(&OutcomeTable::default())
    })
}

/// Every column an outcome view reads equals the owned outcome's, bit for
/// bit.
fn views_match(outcomes: &OutcomeTable, owned: &[reference::JobOutcome]) -> bool {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    outcomes.len() == owned.len()
        && outcomes.iter().zip(owned).all(|(v, o)| {
            let floats = [
                (v.work_hs23(), o.work_hs23),
                (v.submit_time(), o.submit_time),
                (v.start_time(), o.start_time),
                (v.end_time(), o.end_time),
                (v.walltime(), o.walltime),
                (v.queue_time(), o.queue_time),
            ];
            (v.id(), v.kind(), v.cores(), v.site()) == (o.id, o.kind, o.cores, &*o.site)
                && (v.available_cores_at_assign(), v.queue_at_assign())
                    == (o.available_cores_at_assign, o.queue_at_assign)
                && (v.final_state(), v.staged_bytes()) == (o.final_state, o.staged_bytes)
                && bits(v.hist_walltime()) == bits(o.hist_walltime)
                && bits(v.hist_queue_time()) == bits(o.hist_queue_time)
                && floats.iter().all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every table, as a string and as a file, is byte for byte what the
    /// row-materialising renderer produced from owned outcomes; so is the
    /// ML dataset.
    #[test]
    fn streamed_tables_match_the_materialised_renderer(
        events in events(),
        traced in outcomes(),
        metrics in metrics(),
    ) {
        let (trace, outcomes) = traced;
        let owned = reference::outcomes(&outcomes, &trace);
        prop_assert!(views_match(&outcomes, &owned));
        let store = TableStore::new(&events, &outcomes, &metrics);
        let owned_events = reference::events(&events);
        let twin = reference::table_store(&owned_events, &owned, &metrics);
        prop_assert_eq!(store.table_names().to_vec(), twin.keys().copied().collect::<Vec<_>>());
        for (name, table) in &twin {
            let streamed = store.get(name).unwrap();
            prop_assert_eq!(streamed.to_csv(), table.to_csv(), "table {}", name);
        }
        let examples = mldataset::build_examples(&outcomes, &events);
        let owned_examples = reference::ml_examples(&owned);
        prop_assert_eq!(mldataset::to_csv(&examples), reference::ml_csv(&owned_examples));
    }

    /// Over outcomes a run could hold, the one-pass metrics report has the
    /// bits of the report grouped by site name from owned outcomes, and so
    /// do the site summary and the walltime targets built on it.
    #[test]
    fn the_metrics_report_matches_the_one_over_owned_outcomes(
        run in run_like_outcomes(),
    ) {
        let (trace, outcomes, events) = run;
        let owned = reference::outcomes(&outcomes, &trace);
        prop_assert!(views_match(&outcomes, &owned));
        let metrics = MetricsReport::from_outcomes(&outcomes);
        let twin = reference::metrics(&owned);
        prop_assert_eq!(format!("{metrics:?}"), format!("{twin:?}"));
        let store = TableStore::new(&events, &outcomes, &metrics);
        let tables = reference::table_store(&reference::events(&events), &owned, &twin);
        prop_assert_eq!(store.get("site_summary").unwrap().to_csv(), tables["site_summary"].to_csv());
        prop_assert_eq!(store.get("jobs").unwrap().to_csv(), tables["jobs"].to_csv());
        let examples = mldataset::build_examples(&outcomes, &events);
        let owned_examples = reference::ml_examples(&owned);
        prop_assert_eq!(format!("{examples:?}"), format!("{owned_examples:?}"));
    }
}

/// 400 jobs on 6 sites under outages, disk loss and kills, with 30-minute
/// checkpoints and windowed metrics on: the scenario family of the CI
/// determinism gates, with every output file present.
/// Returns the results and the trace the run was given.
fn faulted_checkpointed_run() -> (SimulationResults, Arc<Trace>) {
    faulted_run(MonitoringConfig::default())
}

/// [`faulted_checkpointed_run`] with the event rows of `monitoring`.
fn faulted_run(monitoring: MonitoringConfig) -> (SimulationResults, Arc<Trace>) {
    let spec = wlcg_platform(6, 7);
    let trace = Arc::new(TraceGenerator::new(TraceConfig::with_jobs(400, 7)).generate(&spec));
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
            ..monitoring
        },
        ..ExecutionConfig::with_policy("least-loaded")
    };
    let results = Simulation::builder()
        .platform_spec(&spec)
        .unwrap()
        .trace(Arc::clone(&trace))
        .execution(execution)
        .fault_plan(FaultPlan::generate(&config, &topology, 7))
        .run()
        .unwrap();
    (results, trace)
}

#[test]
fn every_file_of_an_output_directory_matches_its_reference() {
    let (results, trace) = faulted_checkpointed_run();
    let counters = &results.grid_counters;
    assert!(counters.job_interruptions > 0 && counters.checkpoints_written > 0);
    assert!(!results.windows.is_empty());

    let dir = std::env::temp_dir().join("cgsim-output-twins-test");
    std::fs::remove_dir_all(&dir).ok();
    results.save_output_dir(&dir).unwrap();

    let owned = reference::outcomes(&results.outcomes, &trace);
    assert!(views_match(&results.outcomes, &owned));
    let metrics = reference::metrics(&owned);
    assert_eq!(format!("{:?}", results.metrics), format!("{metrics:?}"));
    // Every transition is recorded, so each outcome's captured site state is
    // its last `Assigned` event row's, and that row falls between the job's
    // submission and its start.
    let events = reference::events(&results.events);
    let assigned = reference::last_assigned(&events);
    for o in &owned {
        let assign = assigned[&o.id];
        let captured = (o.available_cores_at_assign, o.queue_at_assign);
        assert_eq!(
            (assign.available_cores, assign.pending_jobs),
            (captured.0.into(), captured.1.into()),
            "{o:?}"
        );
        assert!(assign.time_s >= o.submit_time - 1e-9, "{o:?}");
        assert!(o.start_time >= assign.time_s - 1e-9, "{o:?}");
    }
    let examples = reference::ml_examples(&owned);
    let mut expected: BTreeMap<String, String> = BTreeMap::from([
        ("dashboard.html".into(), results.html_dashboard()),
        ("results.json".into(), results.deterministic_json()),
        (
            "windows.csv".into(),
            cgsim_monitor::windows_csv(&results.windows),
        ),
        ("ml_dataset.csv".into(), reference::ml_csv(&examples)),
    ]);
    for (name, table) in reference::table_store(&events, &owned, &metrics) {
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

/// The faulted run with every transition kept, thinned to every third and
/// held in a ten-row ring: each event table reads back, id for id, the
/// records the owned-row collector keeps when fed the full run's
/// transitions, and its counters are the ones that collector counted.
#[test]
fn event_views_match_the_owned_row_collector_in_lockstep() {
    let (full, _) = faulted_run(MonitoringConfig::default());
    let transitions = reference::events(&full.events);
    assert!(full.grid_counters.job_interruptions > 0);
    assert_eq!(
        transitions.len() as u64,
        transitions.last().unwrap().event_id + 1
    );
    let configs = [
        MonitoringConfig::default(),
        MonitoringConfig {
            sample_stride: 3,
            ..MonitoringConfig::default()
        },
        MonitoringConfig {
            max_events: 10,
            ..MonitoringConfig::default()
        },
    ];
    for config in configs {
        let (run, _) = faulted_run(config.clone());
        let mut twin = reference::Collector::new(config.clone());
        for t in &transitions {
            twin.record(t);
        }
        let got = reference::events(&run.events);
        assert!(!got.is_empty());
        assert!(
            got == twin.events,
            "{config:?}: the views differ from the owned rows"
        );
    }
}

#[test]
fn each_rendered_table_is_one_allocation() {
    let (results, _) = faulted_checkpointed_run();
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
