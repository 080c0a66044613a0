//! Event-level records (Table 1) and per-job outcomes.
//!
//! A run holds one [`EventRecord`] per recorded transition and one 40-byte
//! [`OutcomeRow`] per terminal job. A row keeps what the run decided about
//! the job and nothing the job's [`JobRecord`] already says: the
//! [`OutcomeTable`] that owns the rows also holds the run's trace and site
//! names, and reads each row as an [`OutcomeView`] that joins the record's
//! columns and derives walltime and queue time.

use std::sync::Arc;

use cgsim_workload::{JobId, JobKind, JobRecord, JobState, Trace};
use serde::{Deserialize, Serialize};

/// One row of the event-level monitoring dataset.
///
/// The columns match the paper's Table 1: every job state transition is
/// recorded together with the concurrent state of the site it concerns
/// (available cores, queued jobs, cumulative assigned and finished counts).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Monotonically increasing event id.
    pub event_id: u64,
    /// Virtual time of the event, seconds.
    pub time_s: f64,
    /// Job the event concerns.
    pub job_id: JobId,
    /// New state of the job.
    pub state: JobState,
    /// Site concerned (empty for events at the main server, e.g. submission).
    /// A clone of the collector's one allocation of the name.
    pub site: Arc<str>,
    /// Cores not allocated at the site at event time.
    pub available_cores: u64,
    /// Jobs waiting in the site queue at event time.
    pub pending_jobs: u64,
    /// Cumulative jobs dispatched to the site.
    pub assigned_jobs: u64,
    /// Cumulative jobs finished at the site.
    pub finished_jobs: u64,
}

/// One job's terminal outcome as a run stores it: what the run decided
/// about the job, and the job's index into the run's trace. The job's own
/// columns (kind, cores, work, submit time, ground truth) stay in its
/// [`JobRecord`]; [`OutcomeTable`] joins the two when the row is read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutcomeRow {
    /// Index of the job's record in the run's trace.
    pub job: u32,
    /// Index of the site the job ended at, in the run's site list.
    pub site: u16,
    /// Terminal state (finished or failed).
    pub final_state: JobState,
    /// Cores free at the job's site when it was last dispatched there.
    pub available_cores_at_assign: u32,
    /// Jobs waiting in that site's queue at the same moment.
    pub queue_at_assign: u32,
    /// Time execution started (s).
    pub start_time: f64,
    /// Time the job reached a terminal state (s).
    pub end_time: f64,
    /// Input bytes staged over the network.
    pub staged_bytes: u64,
}

/// A run's job outcomes, in completion order: the rows, the trace their
/// `job` indices address and the site names their `site` indices address.
/// Every read is an [`OutcomeView`] joining a row to its record and its
/// site's name; it allocates nothing and bumps no reference count.
#[derive(Debug, Clone, Default)]
pub struct OutcomeTable {
    rows: Vec<OutcomeRow>,
    trace: Arc<Trace>,
    site_names: Arc<[Arc<str>]>,
}

impl OutcomeTable {
    /// A table of `rows` over the trace and the site names they index.
    /// Site names are distinct, as a platform's are: per-site metrics group
    /// rows by site index.
    ///
    /// # Panics
    /// If a row's job or site index is out of range.
    pub fn new(rows: Vec<OutcomeRow>, trace: Arc<Trace>, site_names: Arc<[Arc<str>]>) -> Self {
        let (jobs, sites) = (trace.jobs.len(), site_names.len());
        assert!(
            rows.iter()
                .all(|r| (r.job as usize) < jobs && usize::from(r.site) < sites),
            "an outcome row indexes past its trace or its site list"
        );
        OutcomeTable {
            rows,
            trace,
            site_names,
        }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table holds no outcome.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The stored rows, in completion order.
    pub fn rows(&self) -> &[OutcomeRow] {
        &self.rows
    }

    /// The site names the rows' `site` indices address.
    pub fn site_names(&self) -> &[Arc<str>] {
        &self.site_names
    }

    /// The `index`-th outcome in completion order.
    pub fn get(&self, index: usize) -> Option<OutcomeView<'_>> {
        self.rows.get(index).map(|row| self.view(row))
    }

    /// Every outcome, in completion order.
    pub fn iter(&self) -> OutcomeIter<'_> {
        OutcomeIter {
            rows: self.rows.iter(),
            table: self,
        }
    }

    fn view<'a>(&'a self, row: &'a OutcomeRow) -> OutcomeView<'a> {
        OutcomeView {
            row,
            record: &self.trace.jobs[row.job as usize],
            site: &self.site_names[usize::from(row.site)],
        }
    }
}

impl<'a> IntoIterator for &'a OutcomeTable {
    type Item = OutcomeView<'a>;
    type IntoIter = OutcomeIter<'a>;

    fn into_iter(self) -> OutcomeIter<'a> {
        self.iter()
    }
}

/// Iterator over an [`OutcomeTable`]'s views, in completion order.
#[derive(Debug, Clone)]
pub struct OutcomeIter<'a> {
    rows: std::slice::Iter<'a, OutcomeRow>,
    table: &'a OutcomeTable,
}

impl<'a> Iterator for OutcomeIter<'a> {
    type Item = OutcomeView<'a>;

    fn next(&mut self) -> Option<OutcomeView<'a>> {
        self.rows.next().map(|row| self.table.view(row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for OutcomeIter<'_> {}

/// Final outcome of one simulated job (the per-job row used for calibration
/// and metric computation): an [`OutcomeRow`] read together with its job's
/// [`JobRecord`] and its site's name.
#[derive(Debug, Clone, Copy)]
pub struct OutcomeView<'a> {
    row: &'a OutcomeRow,
    record: &'a JobRecord,
    site: &'a str,
}

impl<'a> OutcomeView<'a> {
    /// The stored row.
    pub fn row(self) -> &'a OutcomeRow {
        self.row
    }

    /// The job's trace record.
    pub fn record(self) -> &'a JobRecord {
        self.record
    }

    /// Job id.
    pub fn id(self) -> JobId {
        self.record.id
    }

    /// Job class.
    pub fn kind(self) -> JobKind {
        self.record.kind
    }

    /// Cores used.
    pub fn cores(self) -> u32 {
        self.record.cores
    }

    /// Computational requirement in HS23-seconds (the dominant feature for
    /// walltime surrogate models).
    pub fn work_hs23(self) -> f64 {
        self.record.work_hs23
    }

    /// Site the job executed at.
    pub fn site(self) -> &'a str {
        self.site
    }

    /// Index of that site in the run's site list.
    pub fn site_index(self) -> usize {
        usize::from(self.row.site)
    }

    /// Submission time (s). The engine clock starts at zero, so that is when
    /// a job submitted "before" it is delivered.
    pub fn submit_time(self) -> f64 {
        if self.record.submit_time < 0.0 {
            0.0
        } else {
            self.record.submit_time
        }
    }

    /// Cores free at the job's site when it was last dispatched there.
    pub fn available_cores_at_assign(self) -> u32 {
        self.row.available_cores_at_assign
    }

    /// Jobs waiting in that site's queue at the same moment.
    pub fn queue_at_assign(self) -> u32 {
        self.row.queue_at_assign
    }

    /// Time execution started (s).
    pub fn start_time(self) -> f64 {
        self.row.start_time
    }

    /// Time the job reached a terminal state (s).
    pub fn end_time(self) -> f64 {
        self.row.end_time
    }

    /// Terminal state (finished or failed).
    pub fn final_state(self) -> JobState {
        self.row.final_state
    }

    /// Input bytes staged over the network.
    pub fn staged_bytes(self) -> u64 {
        self.row.staged_bytes
    }

    /// Simulated walltime: execution duration including staging (s).
    pub fn walltime(self) -> f64 {
        self.row.end_time - self.row.start_time
    }

    /// Simulated queue time: submission to execution start (s).
    pub fn queue_time(self) -> f64 {
        self.row.start_time - self.submit_time()
    }

    /// Ground-truth walltime from the trace, if present.
    pub fn hist_walltime(self) -> Option<f64> {
        self.record.hist_walltime
    }

    /// Ground-truth queue time from the trace, if present.
    pub fn hist_queue_time(self) -> Option<f64> {
        self.record.hist_queue_time
    }

    /// True when the job completed successfully.
    pub fn succeeded(self) -> bool {
        self.row.final_state == JobState::Finished
    }

    /// Core-seconds consumed by the job's execution phase.
    pub fn core_seconds(self) -> f64 {
        self.walltime() * self.cores() as f64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A table of one outcome per `(kind, cores, site, submit, start, end,
    /// state)`; job `i` is the table's `i`-th record, id `i + 1`, assigned
    /// with 420 cores free and 7 jobs queued, with 1000 staged bytes.
    #[allow(clippy::type_complexity)]
    pub(crate) fn table(
        sites: &[&str],
        jobs: &[(JobKind, u32, usize, f64, f64, f64, JobState)],
    ) -> OutcomeTable {
        let mut trace = Trace::default();
        let mut rows = Vec::new();
        for (i, &(kind, cores, site, submit, start, end, state)) in jobs.iter().enumerate() {
            let mut record = JobRecord::new(i as u64 + 1, kind, cores, 2.0 * (end - start));
            record.submit_time = submit;
            trace.jobs.push(record);
            rows.push(OutcomeRow {
                job: i as u32,
                site: site as u16,
                final_state: state,
                available_cores_at_assign: 420,
                queue_at_assign: 7,
                start_time: start,
                end_time: end,
                staged_bytes: 1_000,
            });
        }
        let names: Vec<Arc<str>> = sites.iter().map(|&s| s.into()).collect();
        OutcomeTable::new(rows, Arc::new(trace), names.into())
    }

    #[test]
    fn row_sizes_are_pinned() {
        // One outcome row per job and up to six events per job are held
        // until the run ends (README, "Every job is stored once").
        assert!(std::mem::size_of::<OutcomeRow>() <= 40);
        assert!(std::mem::size_of::<EventRecord>() <= 80);
    }

    #[test]
    fn a_view_joins_the_row_to_its_record() {
        let mut t = table(
            &["CERN", "DESY-ZN"],
            &[(
                JobKind::SingleCore,
                1,
                1,
                0.0,
                65.0,
                3665.0,
                JobState::Finished,
            )],
        );
        let o = t.get(0).unwrap();
        assert_eq!(
            (o.id(), o.kind(), o.cores()),
            (JobId(1), JobKind::SingleCore, 1)
        );
        assert_eq!((o.site(), o.site_index()), ("DESY-ZN", 1));
        assert_eq!((o.walltime(), o.queue_time()), (3600.0, 65.0));
        assert_eq!(
            (o.available_cores_at_assign(), o.queue_at_assign()),
            (420, 7)
        );
        assert_eq!(o.staged_bytes(), 1_000);
        assert!(o.succeeded());
        assert_eq!(o.core_seconds(), 3600.0);
        assert_eq!(t.iter().len(), 1);
        assert!(t.get(1).is_none());

        // A job submitted before the clock started is delivered at zero.
        Arc::make_mut(&mut t.trace).jobs[0].submit_time = -30.0;
        let o = t.get(0).unwrap();
        assert_eq!((o.submit_time(), o.queue_time()), (0.0, 65.0));
    }

    #[test]
    fn failed_outcome_is_not_success() {
        let t = table(
            &["X"],
            &[(JobKind::MultiCore, 8, 0, 0.0, 1.0, 2.0, JobState::Failed)],
        );
        assert!(!t.get(0).unwrap().succeeded());
    }

    #[test]
    #[should_panic(expected = "indexes past")]
    fn a_row_past_the_site_list_is_refused() {
        let t = table(
            &["X"],
            &[(JobKind::MultiCore, 8, 0, 0.0, 1.0, 2.0, JobState::Failed)],
        );
        OutcomeTable::new(t.rows.clone(), t.trace.clone(), Arc::from([]));
    }
}
