//! The run's output tables (the SQLite substitution), as a borrowed view.
//!
//! CGSim stores run results in SQLite databases and exports CSV for
//! statistical analysis. CGSim-RS keeps the three tables of that database —
//! `events`, `jobs` and `site_summary` — but never materialises them:
//! [`TableStore`] borrows the records a run already holds and each
//! [`Table`] streams its rows as CSV straight into a writer, so exporting a
//! dataset costs no per-row allocation and no second copy of the data. A
//! `jobs` row is one [`OutcomeView`]: the outcome row's site, times, state and
//! staged bytes joined to the job's trace record for its id, class, cores and
//! submit time, in completion order.
//!
//! Every row goes through the crate's one CSV row encoder (shared with
//! [`crate::mldataset`] and [`crate::windows_csv`]): cells are appended to a
//! reused buffer of about 64 KB that is handed to the writer whole, counters
//! and integral floats are written from a digit buffer, other floats in
//! `[2^-100, 2^53)` as their shortest round-trip digits and the rest through
//! std's `Display`, so the bytes are exactly what `format!` prints. An event
//! row's `time_s` repeats the previous row's about half of the time; a
//! one-entry memo then copies the previous row's digits instead of
//! formatting the float again.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

use crate::csv::{render_rows, write_rows, Row};
use crate::event::{EventRecord, OutcomeTable, OutcomeView};
use crate::metrics::{MetricsReport, SiteMetrics};

fn event_row(r: &mut Row, e: &EventRecord) {
    r.push_counter(e.event_id);
    r.push_time(e.time_s);
    r.push_counter(e.job_id.0);
    r.push_label(e.state.label());
    r.push_text(&e.site);
    r.push_counter(e.available_cores);
    r.push_counter(e.pending_jobs);
    r.push_counter(e.assigned_jobs);
    r.push_counter(e.finished_jobs);
}

fn job_row(r: &mut Row, o: OutcomeView<'_>) {
    r.push_counter(o.id().0);
    r.push_label(o.kind().label());
    r.push_u64(o.cores().into());
    r.push_text(o.site());
    r.push_f64(o.submit_time());
    r.push_f64(o.queue_time());
    r.push_f64(o.walltime());
    r.push_label(o.final_state().label());
    r.push_counter(o.staged_bytes());
}

fn site_row(r: &mut Row, (name, m): (&String, &SiteMetrics)) {
    r.push_text(name);
    r.push_counter(m.finished_jobs);
    r.push_counter(m.failed_jobs);
    r.push_f64(m.failure_rate);
    r.push_f64(m.queue_time.as_ref().map_or(0.0, |s| s.mean));
    r.push_f64(m.walltime.as_ref().map_or(0.0, |s| s.mean));
    r.push_f64(m.core_seconds);
}

/// One table of the store: a CSV header plus one row per borrowed record.
#[derive(Debug, Clone, Copy)]
pub enum Table<'a> {
    /// The event-level dataset (paper Table 1).
    Events(&'a [EventRecord]),
    /// One row per job outcome, in completion order.
    Jobs(&'a OutcomeTable),
    /// One row per site, in site-name order.
    SiteSummary(&'a BTreeMap<String, SiteMetrics>),
}

impl Table<'_> {
    /// The table's name (its CSV file is `<name>.csv`).
    pub fn name(&self) -> &'static str {
        match self {
            Table::Events(_) => "events",
            Table::Jobs(_) => "jobs",
            Table::SiteSummary(_) => "site_summary",
        }
    }

    /// The CSV header line (without the line break).
    fn header(&self) -> &'static str {
        match self {
            Table::Events(_) => {
                "event_id,time_s,job_id,state,site,available_cores,pending_jobs,\
                 assigned_jobs,finished_jobs"
            }
            Table::Jobs(_) => {
                "job_id,kind,cores,site,submit_time,queue_time,walltime,final_state,staged_bytes"
            }
            Table::SiteSummary(_) => {
                "site,finished_jobs,failed_jobs,failure_rate,mean_queue_time,mean_walltime,\
                 core_seconds"
            }
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Table::Events(events) => events.len(),
            Table::Jobs(outcomes) => outcomes.len(),
            Table::SiteSummary(per_site) => per_site.len(),
        }
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Streams the table as CSV (header + one line per row) into `out`.
    pub fn write_csv<W: Write>(&self, out: &mut W) -> io::Result<()> {
        let header = self.header();
        match *self {
            Table::Events(events) => write_rows(out, header, events, event_row),
            Table::Jobs(outcomes) => write_rows(out, header, outcomes, job_row),
            Table::SiteSummary(per_site) => write_rows(out, header, per_site, site_row),
        }
    }

    /// Renders the table as one CSV string.
    pub fn to_csv(&self) -> String {
        // Event rows average ~65 bytes and job rows ~94; reserving past the
        // end costs nothing, growing a file-sized buffer copies all of it.
        let (capacity, header) = (128 + 96 * self.len(), self.header());
        match *self {
            Table::Events(events) => render_rows(capacity, header, events, event_row),
            Table::Jobs(outcomes) => render_rows(capacity, header, outcomes, job_row),
            Table::SiteSummary(per_site) => render_rows(capacity, header, per_site, site_row),
        }
    }
}

/// One simulation run's output database: a view over the run's event
/// records, job outcomes and per-site metrics.
#[derive(Debug, Clone, Copy)]
pub struct TableStore<'a> {
    tables: [Table<'a>; 3],
}

impl<'a> TableStore<'a> {
    /// A store over the given records (nothing is copied).
    pub fn new(
        events: &'a [EventRecord],
        outcomes: &'a OutcomeTable,
        metrics: &'a MetricsReport,
    ) -> Self {
        TableStore {
            tables: [
                Table::Events(events),
                Table::Jobs(outcomes),
                Table::SiteSummary(&metrics.per_site),
            ],
        }
    }

    /// Gets a table by name.
    pub fn get(&self, name: &str) -> Option<Table<'a>> {
        self.tables.iter().copied().find(|t| t.name() == name)
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> [&'static str; 3] {
        self.tables.map(|t| t.name())
    }

    /// Writes every table as `<dir>/<name>.csv`, streaming rows to each file
    /// in chunks of about 64 KB.
    pub fn save_csv_dir(&self, dir: impl AsRef<Path>) -> io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        for table in &self.tables {
            let mut file = std::fs::File::create(dir.join(format!("{}.csv", table.name())))?;
            table.write_csv(&mut file)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::table;
    use cgsim_workload::{JobId, JobKind, JobState};

    fn event(id: u64, site: &str) -> EventRecord {
        EventRecord {
            event_id: id,
            time_s: 110.5,
            job_id: JobId(7),
            state: JobState::Assigned,
            site: site.into(),
            available_cores: 420,
            pending_jobs: 7,
            assigned_jobs: 1,
            finished_jobs: 0,
        }
    }

    /// Job 7 of the old fixtures, one per site: 8 cores, submitted at 100 s,
    /// running 150..1000 s.
    fn outcomes(sites: &[&str]) -> OutcomeTable {
        let job = |site| {
            (
                JobKind::MultiCore,
                8,
                site,
                100.0,
                150.0,
                1000.0,
                JobState::Finished,
            )
        };
        let jobs: Vec<_> = (0..sites.len()).map(job).collect();
        table(sites, &jobs)
    }

    #[test]
    fn tables_are_named_sized_and_rendered() {
        let events = [event(1, "CERN"), event(2, "")];
        let outcomes = outcomes(&["CERN"]);
        let metrics = MetricsReport::from_outcomes(&outcomes);
        let store = TableStore::new(&events, &outcomes, &metrics);
        assert_eq!(store.table_names(), ["events", "jobs", "site_summary"]);
        assert!(store.get("missing").is_none());
        let table = store.get("events").unwrap();
        assert_eq!((table.len(), table.is_empty()), (2, false));
        assert_eq!(
            table.to_csv(),
            "event_id,time_s,job_id,state,site,available_cores,pending_jobs,assigned_jobs,\
             finished_jobs\n\
             1,110.5,7,assigned,CERN,420,7,1,0\n\
             2,110.5,7,assigned,,420,7,1,0\n"
        );
        assert_eq!(
            store.get("jobs").unwrap().to_csv(),
            "job_id,kind,cores,site,submit_time,queue_time,walltime,final_state,staged_bytes\n\
             1,multi,8,CERN,100,50,850,finished,1000\n"
        );
        let summary = store.get("site_summary").unwrap().to_csv();
        assert!(summary.ends_with("\nCERN,1,0,0,50,850,6800\n"), "{summary}");
    }

    #[test]
    fn a_site_name_with_a_line_break_stays_one_record() {
        // Regression: the name used to be written bare, splitting the row.
        let name = "T2\nrogue,\"site\"";
        let events = [event(1, name)];
        let outcomes = outcomes(&[name]);
        let metrics = MetricsReport::from_outcomes(&outcomes);
        let store = TableStore::new(&events, &outcomes, &metrics);
        for table in store.table_names() {
            let csv = store.get(table).unwrap().to_csv();
            assert!(csv.contains("\"T2\nrogue,\"\"site\"\"\""), "{table}: {csv}");
            // Header + one record: outside quotes there are two line ends.
            let mut quoted = false;
            let records = csv
                .chars()
                .filter(|&c| {
                    quoted ^= c == '"';
                    c == '\n' && !quoted
                })
                .count();
            assert_eq!(records, 2, "{table}: {csv}");
        }
    }

    #[test]
    fn save_csv_dir_writes_what_to_csv_renders() {
        let events = [event(1, "CERN"), event(2, "BNL")];
        let outcomes = outcomes(&["CERN", "BNL"]);
        let metrics = MetricsReport::from_outcomes(&outcomes);
        let store = TableStore::new(&events, &outcomes, &metrics);
        let dir = std::env::temp_dir().join("cgsim-store-test");
        store.save_csv_dir(&dir).unwrap();
        for name in store.table_names() {
            let text = std::fs::read_to_string(dir.join(format!("{name}.csv"))).unwrap();
            assert_eq!(text, store.get(name).unwrap().to_csv());
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
