//! Self-profiling: wall-clock accounting per simulator subsystem.
//!
//! The profiler is the one observability component allowed to look at
//! wall-clock, so its output must never reach `results.json` or any file a
//! determinism gate diffs — the CLI writes it to a separate `profile.json`
//! only when `--profile` was passed. The report JSON follows the repo's
//! BENCH perf-trajectory protocol (`bench`/`harness`/`scenario`/`results`),
//! so profile snapshots can be compared across PRs the same way
//! `BENCH_fluid.json` entries are.
//!
//! When disabled, [`Profiler::start`] returns `None` without reading the
//! clock and [`Profiler::stop`] is a `None` test — no allocation, no
//! syscalls — so instrumented hot paths keep their benchmarked speeds.

use std::time::Instant;

use serde::Serialize;

/// The instrumented subsystems.
///
/// `EventLoop` wraps the whole engine run, so the other buckets nest inside
/// it: their sum is the instrumented share of the loop, not additional time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subsystem {
    /// One whole `Engine::run` (outermost bucket; the others nest inside).
    EventLoop,
    /// Fluid-model work: share recomputation, activity admission, rescheduling.
    Fluid,
    /// Fault replay: applying one fault event to the grid.
    FaultReplay,
    /// Checkpoint segmentation: write, restore and invalidation bookkeeping.
    Checkpoint,
    /// Re-replication repair: deficit bookkeeping, transfer planning and
    /// completion/cancellation handling.
    Repair,
    /// The main server's broker: stamping the policy-facing grid view and
    /// the allocation-policy calls themselves (`assign_job` and the
    /// completion/interruption/restore hooks).
    Broker,
}

/// Every subsystem, in report order.
pub(crate) const ALL_SUBSYSTEMS: [Subsystem; 6] = [
    Subsystem::EventLoop,
    Subsystem::Fluid,
    Subsystem::FaultReplay,
    Subsystem::Checkpoint,
    Subsystem::Repair,
    Subsystem::Broker,
];

impl Subsystem {
    /// Stable snake_case label (the `case` field of the report).
    pub fn label(self) -> &'static str {
        match self {
            Subsystem::EventLoop => "event_loop",
            Subsystem::Fluid => "fluid",
            Subsystem::FaultReplay => "fault_replay",
            Subsystem::Checkpoint => "checkpoint",
            Subsystem::Repair => "repair",
            Subsystem::Broker => "broker",
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    nanos: u64,
    count: u64,
}

/// Accumulates wall-clock per subsystem. Cheap to construct; near-free when
/// disabled.
#[derive(Debug, Default)]
pub struct Profiler {
    enabled: bool,
    buckets: [Bucket; ALL_SUBSYSTEMS.len()],
}

impl Profiler {
    /// Creates a profiler; `enabled = false` yields the zero-cost stub.
    pub fn new(enabled: bool) -> Self {
        Profiler {
            enabled,
            ..Profiler::default()
        }
    }

    /// Whether timing is being collected.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a timing region: reads the clock only when enabled. Pass the
    /// result to [`Profiler::stop`].
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a timing region opened by [`Profiler::start`], attributing the
    /// elapsed wall-clock to `sub`.
    #[inline]
    pub fn stop(&mut self, sub: Subsystem, started: Option<Instant>) {
        if let Some(t0) = started {
            let bucket = &mut self.buckets[sub as usize];
            bucket.nanos += t0.elapsed().as_nanos() as u64;
            bucket.count += 1;
        }
    }

    /// Builds the report. `scenario` describes what was run (policy, job
    /// count, flags) in the same spirit as the BENCH files' scenario line;
    /// `counters` are named occurrence counts sampled at the end of the run
    /// (e.g. fluid fast/slow solves), reported in the order given.
    pub fn report(&self, scenario: &str, counters: &[(&str, u64)]) -> ProfileReport {
        ProfileReport {
            bench: "self-profile".to_string(),
            harness: "cgsim-obs Profiler; wall-clock per subsystem, buckets nest inside event_loop"
                .to_string(),
            scenario: scenario.to_string(),
            results: ALL_SUBSYSTEMS
                .iter()
                .map(|&sub| {
                    let bucket = self.buckets[sub as usize];
                    SubsystemReport {
                        case: sub.label().to_string(),
                        wall_s: bucket.nanos as f64 / 1e9,
                        count: bucket.count,
                    }
                })
                .collect(),
            counters: counters
                .iter()
                .map(|&(name, value)| CounterReport {
                    name: name.to_string(),
                    value,
                })
                .collect(),
        }
    }
}

/// One timing bucket of the report.
/// Format: one entry of `profile.json`'s `results`, written only.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SubsystemReport {
    /// Subsystem label (BENCH-protocol `case`).
    pub case: String,
    /// Total wall-clock attributed to the subsystem, seconds.
    pub wall_s: f64,
    /// Number of timed regions.
    pub count: u64,
}

/// One named counter of the report.
/// Format: one entry of `profile.json`'s `counters`, written only.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CounterReport {
    /// Counter name (e.g. `fluid_fast_solves`).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// The machine-readable profile, shaped after the BENCH perf-trajectory
/// protocol so snapshots can be diffed across PRs.
/// Format: `profile.json`, written only.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProfileReport {
    /// Always `"self-profile"`.
    pub bench: String,
    /// How the numbers were produced.
    pub harness: String,
    /// What was run.
    pub scenario: String,
    /// Per-subsystem timing buckets.
    pub results: Vec<SubsystemReport>,
    /// Named occurrence counters.
    pub counters: Vec<CounterReport>,
}

impl ProfileReport {
    /// Renders the human-readable summary table printed by `--profile`.
    pub fn summary_table(&self) -> String {
        let mut out =
            String::from("profile (wall-clock per subsystem; buckets nest inside event_loop)\n");
        out.push_str(&format!(
            "  {:<14} {:>12} {:>10}\n",
            "subsystem", "wall_s", "count"
        ));
        for row in &self.results {
            out.push_str(&format!(
                "  {:<14} {:>12.6} {:>10}\n",
                row.case, row.wall_s, row.count
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("  counters:\n");
            for counter in &self.counters {
                out.push_str(&format!("    {:<24} {}\n", counter.name, counter.value));
            }
        }
        out
    }

    /// Renders the `profile.json` payload (pretty JSON).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("profile report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_reads_no_clock_and_reports_zeros() {
        let mut p = Profiler::new(false);
        assert!(!p.enabled());
        let t = p.start();
        assert!(t.is_none());
        p.stop(Subsystem::Fluid, t);
        let report = p.report("test", &[]);
        assert!(report
            .results
            .iter()
            .all(|r| r.wall_s == 0.0 && r.count == 0));
        assert!(report.counters.is_empty());
    }

    #[test]
    fn enabled_profiler_accumulates() {
        let mut p = Profiler::new(true);
        for _ in 0..3 {
            let t = p.start();
            assert!(t.is_some());
            p.stop(Subsystem::EventLoop, t);
        }
        let report = p.report(
            "demo",
            &[("fluid_fast_solves", 7), ("fluid_slow_solves", 3)],
        );
        let loop_row = &report.results[Subsystem::EventLoop as usize];
        assert_eq!(loop_row.case, "event_loop");
        assert_eq!(loop_row.count, 3);
        let counters: Vec<_> = report
            .counters
            .iter()
            .map(|c| (&*c.name, c.value))
            .collect();
        assert_eq!(
            counters,
            [("fluid_fast_solves", 7), ("fluid_slow_solves", 3)]
        );
    }

    #[test]
    fn report_renders_as_json_and_table() {
        let mut p = Profiler::new(true);
        let t = p.start();
        p.stop(Subsystem::Checkpoint, t);
        let report = p.report("sites=6 jobs=500 seed=7", &[("events", 42)]);
        let json = report.to_json();
        for field in [
            r#""bench": "self-profile""#,
            r#""name": "events""#,
            r#""value": 42"#,
        ] {
            assert!(json.contains(field), "{field} not in {json}");
        }
        let table = report.summary_table();
        assert!(table.contains("checkpoint"));
        assert!(table.contains("events"));
    }
}
