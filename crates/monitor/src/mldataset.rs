//! ML-ready dataset export.
//!
//! CGSim "automatically generates an event-level statistics dataset from each
//! run that can be directly used to train machine learning models" (§1); the
//! companion work trains AI surrogate models on exactly this kind of data.
//! This module flattens the per-job outcomes into numeric feature rows
//! suitable for supervised training (e.g. predicting walltime or queue time
//! from job and site features). The job features (class, cores, work, submit
//! time) are read from each outcome's trace record through its
//! [`OutcomeView`](crate::event::OutcomeView), the targets derived from its
//! row, and the site state from the pair its row captured when the job was
//! last dispatched — the values of that dispatch's `Assigned` event, kept
//! whether or not the event table keeps the event.
//!
//! Rows are written by the crate's one CSV row encoder, the one behind the
//! [`crate::store`] tables: cells go into a reused buffer of about 64 KB
//! that is handed to the writer whole, integral features (cores, byte counts,
//! site state) are written from a digit buffer, and every other float as its
//! shortest round-trip digits (through std's `Display` outside
//! `[2^-100, 2^53)`), so the bytes are exactly what `format!` prints.
//! The encoder's one-entry memo of the previous row's float is for the event
//! table's repeated timestamps; no column here repeats row to row, so these
//! rows do not use it.

use cgsim_workload::JobKind;

use crate::csv::{render_rows, write_rows, Row};
use crate::event::{EventTable, OutcomeTable};

/// One training example: numeric features plus the regression targets.
#[derive(Debug, Clone, PartialEq)]
pub struct MlExample {
    /// Job id (kept for joining, not a feature).
    pub job_id: u64,
    /// 1.0 for multi-core jobs, 0.0 for single-core.
    pub is_multicore: f64,
    /// Cores requested.
    pub cores: f64,
    /// Computational requirement in HS23-seconds (the dominant walltime
    /// feature — PanDA records expose the same quantity to the production
    /// surrogate models).
    pub work_hs23: f64,
    /// Bytes staged over the network.
    pub staged_bytes: f64,
    /// Site available-core count at assignment time.
    pub site_available_cores_at_assign: f64,
    /// Site queue depth at assignment time.
    pub site_queue_at_assign: f64,
    /// Submission time within the run (s).
    pub submit_time: f64,
    /// Target: simulated queue time (s).
    pub target_queue_time: f64,
    /// Target: simulated walltime (s).
    pub target_walltime: f64,
}

/// Builds one ML example per outcome, in completion order. `_events` is
/// not read: each outcome's row carries its site state at assignment. The
/// parameter stays only so the benchmark's calls compile unchanged.
pub fn build_examples(outcomes: &OutcomeTable, _events: &EventTable) -> Vec<MlExample> {
    outcomes
        .iter()
        .map(|o| MlExample {
            job_id: o.id().0,
            is_multicore: if o.kind() == JobKind::MultiCore {
                1.0
            } else {
                0.0
            },
            cores: o.cores() as f64,
            work_hs23: o.work_hs23(),
            staged_bytes: o.staged_bytes() as f64,
            site_available_cores_at_assign: o.available_cores_at_assign().into(),
            site_queue_at_assign: o.queue_at_assign().into(),
            submit_time: o.submit_time(),
            target_queue_time: o.queue_time(),
            target_walltime: o.walltime(),
        })
        .collect()
}

/// CSV header for [`to_csv`].
pub const CSV_HEADER: &str = "job_id,is_multicore,cores,work_hs23,staged_bytes,site_available_cores_at_assign,site_queue_at_assign,submit_time,target_queue_time,target_walltime";

fn example_row(r: &mut Row, e: &MlExample) {
    r.push_u64(e.job_id);
    r.push_f64(e.is_multicore);
    r.push_f64(e.cores);
    r.push_f64(e.work_hs23);
    r.push_f64(e.staged_bytes);
    r.push_f64(e.site_available_cores_at_assign);
    r.push_f64(e.site_queue_at_assign);
    r.push_f64(e.submit_time);
    r.push_f64(e.target_queue_time);
    r.push_f64(e.target_walltime);
}

/// Streams examples as CSV (header + one row per example) into `out`.
pub fn write_csv<W: std::io::Write>(examples: &[MlExample], out: &mut W) -> std::io::Result<()> {
    write_rows(out, CSV_HEADER, examples, example_row)
}

/// Renders examples as one CSV string (see [`write_csv`]).
pub fn to_csv(examples: &[MlExample]) -> String {
    // A `dataset` run's examples average 98.6 bytes per row (14,796,348 B
    // for 150,000 rows); 104 leaves room for longer floats without a regrow.
    render_rows(
        CSV_HEADER.len() + 1 + 104 * examples.len(),
        CSV_HEADER,
        examples,
        example_row,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::table;
    use cgsim_workload::JobState;

    /// Jobs 1..=n: 8-core, submitted at 100 s, run 150..1000 s at BNL,
    /// assigned with 420 cores free and 7 jobs queued.
    fn outcomes(n: usize) -> OutcomeTable {
        let job = (
            JobKind::MultiCore,
            8,
            0,
            100.0,
            150.0,
            1000.0,
            JobState::Finished,
        );
        table(&["BNL"], &vec![job; n])
    }

    #[test]
    fn examples_read_the_site_state_each_row_captured() {
        let examples = build_examples(&outcomes(1), &EventTable::default());
        assert_eq!(examples.len(), 1);
        let e = &examples[0];
        assert_eq!(e.job_id, 1);
        assert_eq!(e.is_multicore, 1.0);
        assert_eq!(e.work_hs23, 1_700.0);
        assert_eq!(e.site_available_cores_at_assign, 420.0);
        assert_eq!(e.site_queue_at_assign, 7.0);
        assert_eq!((e.target_queue_time, e.target_walltime), (50.0, 850.0));
    }

    #[test]
    fn csv_has_header_and_matching_columns() {
        let examples = build_examples(&outcomes(2), &EventTable::default());
        let csv = to_csv(&examples);
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1].split(',').count(), CSV_HEADER.split(',').count());
    }
}
