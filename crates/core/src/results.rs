//! Simulation results and derived analyses.

use std::collections::BTreeMap;
use std::path::Path;

use cgsim_des::stats::RelativeMae;
use cgsim_monitor::dashboard::SitePanel;
use cgsim_monitor::{mldataset, EventTable, MetricsReport, OutcomeTable, TableStore};
use cgsim_workload::JobKind;
use serde::{Deserialize, Serialize};

/// Relative walltime error of one site, split by job class (the per-site
/// quantity plotted in the paper's Fig. 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SiteWalltimeError {
    /// Relative MAE over single-core jobs (`None` when the site ran none).
    pub single_core: Option<f64>,
    /// Relative MAE over multi-core jobs (`None` when the site ran none).
    pub multi_core: Option<f64>,
    /// Relative MAE over all jobs with ground truth.
    pub overall: f64,
    /// Number of jobs with ground truth used.
    pub jobs: usize,
}

/// Everything a simulation run produces. Only its deterministic subset is
/// ever serialised ([`SimulationResults::deterministic_json`]).
#[derive(Debug, Clone)]
pub struct SimulationResults {
    /// Per-job outcomes, in completion order, over the run's trace.
    pub outcomes: OutcomeTable,
    /// Event-level monitoring dataset (Table 1 rows), over the run's trace.
    pub events: EventTable,
    /// Aggregated operational metrics.
    pub metrics: MetricsReport,
    /// Virtual time at which the last event was processed (seconds).
    pub makespan_s: f64,
    /// Number of discrete events processed by the engine.
    pub engine_events: u64,
    /// Wall-clock runtime of the simulation itself (seconds) — the quantity
    /// reported by the scalability experiments (Fig. 4).
    pub wall_clock_s: f64,
    /// Final per-site dashboard panels.
    pub site_panels: Vec<SitePanel>,
    /// Grid-level anomaly counters (e.g. invalid policy decisions).
    pub grid_counters: cgsim_monitor::GridCounters,
    /// Name of the allocation policy used.
    pub policy: String,
    /// Self-profiling report (`None` unless profiling was requested).
    /// Wall-clock data lives here and in the separate `profile.json` the CLI
    /// writes — never in [`SimulationResults::deterministic_json`].
    pub profile: Option<cgsim_obs::ProfileReport>,
    /// Windowed metrics (empty unless `MonitoringConfig::window_s` enabled
    /// them): per-window site/grid counter snapshots, bounded by the
    /// configured ring capacity.
    pub windows: Vec<cgsim_monitor::WindowSnapshot>,
}

impl SimulationResults {
    /// Per-site relative walltime error against the trace ground truth, in
    /// site-name order. One pass over the outcomes feeds accumulators
    /// indexed by site, in outcome order within each.
    pub fn walltime_error_by_site(&self) -> BTreeMap<String, SiteWalltimeError> {
        #[derive(Clone, Default)]
        struct SiteErrors {
            single_core: Option<RelativeMae>,
            multi_core: Option<RelativeMae>,
            overall: RelativeMae,
            jobs: usize,
        }

        let names = self.outcomes.site_names();
        let mut sites = vec![SiteErrors::default(); names.len()];
        for o in &self.outcomes {
            let Some(truth) = o.hist_walltime() else {
                continue;
            };
            let (site, walltime) = (&mut sites[o.site_index()], o.walltime());
            let class = match o.kind() {
                JobKind::SingleCore => &mut site.single_core,
                JobKind::MultiCore => &mut site.multi_core,
            };
            class.get_or_insert_default().add(walltime, truth);
            site.overall.add(walltime, truth);
            site.jobs += 1;
        }
        names
            .iter()
            .zip(sites)
            .filter(|(_, site)| site.jobs > 0)
            .map(|(name, site)| {
                let error = SiteWalltimeError {
                    single_core: site.single_core.map(|e| e.value()),
                    multi_core: site.multi_core.map(|e| e.value()),
                    overall: site.overall.value(),
                    jobs: site.jobs,
                };
                (name.to_string(), error)
            })
            .collect()
    }

    /// Geometric mean of the per-site overall relative walltime error — the
    /// headline calibration number of Fig. 3 (76 % before, 17 % after).
    pub fn geometric_mean_walltime_error(&self) -> Option<f64> {
        let per_site = self.walltime_error_by_site();
        let errors: Vec<f64> = per_site.values().map(|e| e.overall.max(1e-6)).collect();
        if errors.is_empty() {
            None
        } else {
            Some(cgsim_des::stats::geometric_mean(&errors))
        }
    }

    /// The run's output tables (the paper's SQLite/CSV output layer):
    /// `events`, `jobs` and `site_summary`, as a view that streams rows from
    /// the records held here — nothing is copied.
    pub fn to_table_store(&self) -> TableStore<'_> {
        TableStore::new(&self.events, &self.outcomes, &self.metrics)
    }

    /// Serialises the deterministic subset of the results — everything except
    /// the wall-clock measurement — as pretty-printed JSON. Two runs of the
    /// same scenario must produce byte-identical output here; the CI
    /// determinism gate runs the CLI twice and diffs this file.
    pub fn deterministic_json(&self) -> String {
        serde_json::to_string_pretty(&self.deterministic()).expect("simulation results serialise")
    }

    /// [`SimulationResults::deterministic_json`] without whitespace: the
    /// `results` member of a `cgsim serve` reply.
    pub(crate) fn deterministic_json_compact(&self) -> String {
        serde_json::to_string(&self.deterministic()).expect("simulation results serialise")
    }

    fn deterministic(&self) -> impl Serialize + '_ {
        #[derive(Serialize)]
        struct Deterministic<'a> {
            policy: &'a str,
            makespan_s: f64,
            engine_events: u64,
            grid_counters: &'a cgsim_monitor::GridCounters,
            metrics: &'a MetricsReport,
        }
        Deterministic {
            policy: &self.policy,
            makespan_s: self.makespan_s,
            engine_events: self.engine_events,
            grid_counters: &self.grid_counters,
            metrics: &self.metrics,
        }
    }

    /// Writes everything `cgsim simulate --output <dir>` leaves behind: the
    /// CSV tables, `dashboard.html`, `results.json` (the deterministic
    /// subset — no wall-clock, so two runs diff clean), `windows.csv` when
    /// windowed metrics were collected, and `ml_dataset.csv`. The per-row
    /// files are streamed to disk in chunks of about 64 KB, never built in
    /// memory.
    pub fn save_output_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.to_table_store().save_csv_dir(dir)?;
        std::fs::write(dir.join("dashboard.html"), self.html_dashboard())?;
        std::fs::write(dir.join("results.json"), self.deterministic_json())?;
        if !self.windows.is_empty() {
            std::fs::write(
                dir.join("windows.csv"),
                cgsim_monitor::windows_csv(&self.windows),
            )?;
        }
        let examples = mldataset::build_examples(&self.outcomes, &self.events);
        let mut out = std::fs::File::create(dir.join("ml_dataset.csv"))?;
        mldataset::write_csv(&examples, &mut out)
    }

    /// Renders the final dashboard as ASCII.
    pub fn ascii_dashboard(&self) -> String {
        cgsim_monitor::dashboard::ascii_dashboard(self.makespan_s, &self.site_panels)
    }

    /// Renders the final dashboard as a self-contained HTML page.
    pub fn html_dashboard(&self) -> String {
        cgsim_monitor::dashboard::html_dashboard(self.makespan_s, &self.site_panels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use cgsim_monitor::OutcomeRow;
    use cgsim_workload::{JobRecord, JobState, Trace};

    /// One job per `(site, kind, simulated walltime, true walltime)`, on the
    /// sites "A" and "B".
    fn results(jobs: &[(&str, JobKind, f64, f64)]) -> SimulationResults {
        let mut trace = Trace::default();
        let mut rows = Vec::new();
        for (i, &(site, kind, sim, truth)) in jobs.iter().enumerate() {
            let cores = if kind == JobKind::MultiCore { 8 } else { 1 };
            let mut record = JobRecord::new(i as u64 + 1, kind, cores, sim * 10.0);
            (record.hist_walltime, record.hist_queue_time) = (Some(truth), Some(1.0));
            trace.jobs.push(record);
            rows.push(OutcomeRow {
                job: i as u32,
                site: if site == "A" { 0 } else { 1 },
                final_state: JobState::Finished,
                available_cores_at_assign: 10,
                queue_at_assign: 0,
                start_time: 2.0,
                end_time: 2.0 + sim,
                staged_bytes: 100,
            });
        }
        let names: Vec<Arc<str>> = vec!["A".into(), "B".into()];
        let outcomes = OutcomeTable::new(rows, Arc::new(trace), names.into());
        let metrics = MetricsReport::from_outcomes(&outcomes);
        SimulationResults {
            outcomes,
            events: EventTable::default(),
            metrics,
            makespan_s: 100.0,
            engine_events: 10,
            wall_clock_s: 0.01,
            site_panels: Vec::new(),
            grid_counters: cgsim_monitor::GridCounters::default(),
            policy: "test".into(),
            profile: None,
            windows: Vec::new(),
        }
    }

    #[test]
    fn walltime_error_splits_by_site_and_kind() {
        let r = results(&[
            ("A", JobKind::SingleCore, 110.0, 100.0), // 10% error
            ("A", JobKind::MultiCore, 80.0, 100.0),   // 20% error
            ("B", JobKind::SingleCore, 100.0, 100.0), // exact
        ]);
        let errs = r.walltime_error_by_site();
        assert_eq!(errs.len(), 2);
        let a = &errs["A"];
        assert!((a.single_core.unwrap() - 0.1).abs() < 1e-9);
        assert!((a.multi_core.unwrap() - 0.2).abs() < 1e-9);
        assert!((a.overall - 0.15).abs() < 1e-9);
        assert_eq!(a.jobs, 2);
        let b = &errs["B"];
        assert_eq!(b.multi_core, None);
        assert!(b.overall < 1e-9);
    }

    #[test]
    fn geometric_mean_error_aggregates_sites() {
        let r = results(&[
            ("A", JobKind::SingleCore, 200.0, 100.0), // 100% error
            ("B", JobKind::SingleCore, 101.0, 100.0), // 1% error
        ]);
        let gm = r.geometric_mean_walltime_error().unwrap();
        assert!((gm - (1.0f64 * 0.01).sqrt()).abs() < 1e-9);
        assert!(results(&[]).geometric_mean_walltime_error().is_none());
    }

    #[test]
    fn table_store_export_contains_all_tables() {
        let r = results(&[("A", JobKind::SingleCore, 10.0, 10.0)]);
        let store = r.to_table_store();
        assert_eq!(store.table_names(), ["events", "jobs", "site_summary"]);
        assert_eq!(store.get("jobs").unwrap().len(), 1);
        assert_eq!(store.get("site_summary").unwrap().len(), 1);
    }

    #[test]
    fn dashboards_render() {
        let r = results(&[("A", JobKind::SingleCore, 10.0, 10.0)]);
        assert!(r.ascii_dashboard().contains("CGSim dashboard"));
        assert!(r.html_dashboard().contains("<!DOCTYPE html>"));
    }
}
