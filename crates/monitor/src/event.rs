//! Event-level records (Table 1) and per-job outcomes.

use std::sync::Arc;

use cgsim_workload::{JobId, JobKind, JobState};
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

/// Final outcome of one simulated job (the per-job row used for calibration
/// and metric computation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Job id.
    pub id: JobId,
    /// Job class.
    pub kind: JobKind,
    /// Cores used.
    pub cores: u32,
    /// Computational requirement in HS23-seconds (copied from the job record;
    /// the dominant feature for walltime surrogate models).
    #[serde(default)]
    pub work_hs23: f64,
    /// Site the job executed at (shared like [`EventRecord::site`]).
    pub site: Arc<str>,
    /// Submission time (s).
    pub submit_time: f64,
    /// Time the job was dispatched to a site (s).
    pub assign_time: f64,
    /// Time execution started (s).
    pub start_time: f64,
    /// Time the job reached a terminal state (s).
    pub end_time: f64,
    /// Terminal state (finished or failed).
    pub final_state: JobState,
    /// Input bytes staged over the network.
    pub staged_bytes: u64,
    /// Simulated walltime: execution duration including staging (s).
    pub walltime: f64,
    /// Simulated queue time: submission to execution start (s).
    pub queue_time: f64,
    /// Ground-truth walltime from the trace, if present.
    pub hist_walltime: Option<f64>,
    /// Ground-truth queue time from the trace, if present.
    pub hist_queue_time: Option<f64>,
}

impl JobOutcome {
    /// True when the job completed successfully.
    pub fn succeeded(&self) -> bool {
        self.final_state == JobState::Finished
    }

    /// Core-seconds consumed by the job's execution phase.
    pub fn core_seconds(&self) -> f64 {
        self.walltime * self.cores as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> JobOutcome {
        JobOutcome {
            id: JobId(6466065355),
            kind: JobKind::SingleCore,
            cores: 1,
            work_hs23: 36_000.0,
            site: "DESY-ZN".into(),
            submit_time: 0.0,
            assign_time: 5.0,
            start_time: 65.0,
            end_time: 3665.0,
            final_state: JobState::Finished,
            staged_bytes: 2_000_000_000,
            walltime: 3600.0,
            queue_time: 65.0,
            hist_walltime: Some(3500.0),
            hist_queue_time: Some(50.0),
        }
    }

    #[test]
    fn row_sizes_are_pinned() {
        // One outcome per job and up to six events per job are held until the
        // run ends (README, "Scale campaigns").
        assert!(std::mem::size_of::<JobOutcome>() <= 128);
        assert!(std::mem::size_of::<EventRecord>() <= 80);
    }

    #[test]
    fn outcome_derived_quantities() {
        let o = outcome();
        assert!(o.succeeded());
        assert_eq!(o.core_seconds(), 3600.0);
    }

    #[test]
    fn failed_outcome_is_not_success() {
        let mut o = outcome();
        o.final_state = JobState::Failed;
        assert!(!o.succeeded());
    }
}
