//! The standardised job structure and job lifecycle states.
//!
//! CGSim "uses a standardized job (workload) structure, which is installed as
//! a header" for plugin authors (paper §3.3). [`JobRecord`] is that structure:
//! everything an allocation policy may inspect when deciding where to place a
//! job, plus the historical ground-truth fields used for calibration.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Unique job identifier (PanDA id).
/// Format: the `id` of a `trace.jsonl` line, read and written.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Identifier of the task (production campaign / analysis) a job belongs to.
/// Format: the `task_id` of a `trace.jsonl` line, read and written.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct TaskId(pub u64);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Job class, mirroring the single-core / multi-core split of Fig. 3.
/// Format: the `kind` of a `trace.jsonl` line, read and written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobKind {
    /// Single-core user analysis job.
    SingleCore,
    /// Multi-core production job (typically 8 cores in ATLAS production).
    MultiCore,
}

impl JobKind {
    /// Short label used in reports ("single" / "multi").
    pub fn label(self) -> &'static str {
        match self {
            JobKind::SingleCore => "single",
            JobKind::MultiCore => "multi",
        }
    }
}

/// Lifecycle state of a job inside the simulation.
///
/// These are exactly the states the paper's monitoring layer records
/// ("pending, assigned, running, finished, failed", §4.3.2), with an explicit
/// staging state for input transfers so data-movement policies are observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobState {
    /// Submitted to the main server but not yet dispatched to a site.
    Pending,
    /// Dispatched to a site queue, waiting for free cores.
    Assigned,
    /// Input data is being transferred to the execution site.
    Staging,
    /// Executing on the site's worker nodes.
    Running,
    /// Completed successfully.
    Finished,
    /// Terminated with an error (and not retried further).
    Failed,
}

impl JobState {
    /// True for terminal states (finished or failed).
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Finished | JobState::Failed)
    }

    /// Lower-case label as it appears in the event-level dataset (Table 1).
    pub fn label(self) -> &'static str {
        &self.trace_kind()["state.".len()..]
    }

    /// Kind of the trace instant that records a transition to this state:
    /// `state.` and the [`label`](Self::label).
    pub fn trace_kind(self) -> &'static str {
        match self {
            JobState::Pending => "state.pending",
            JobState::Assigned => "state.assigned",
            JobState::Staging => "state.staging",
            JobState::Running => "state.running",
            JobState::Finished => "state.finished",
            JobState::Failed => "state.failed",
        }
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A PanDA-like job record: the simulation input for one job.
///
/// Work is expressed in *HS23-seconds*: the number of seconds the job would
/// take on a single reference core of speed 1.0 HS23 unit. A site with
/// per-core speed `s` therefore executes the same work in `work_hs23 / s`
/// core-seconds.
/// Format: one line of `trace.jsonl`, read and written.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Unique job id (PanDA id).
    pub id: JobId,
    /// Task this job belongs to.
    pub task_id: TaskId,
    /// Single-core analysis or multi-core production.
    pub kind: JobKind,
    /// Number of cores the job requests (1 for single-core jobs).
    pub cores: u32,
    /// Computational requirement in HS23-seconds (see struct docs).
    pub work_hs23: f64,
    /// Memory requirement in MB.
    pub memory_mb: f64,
    /// Number of input files.
    pub input_files: u32,
    /// Total input size in bytes.
    pub input_bytes: u64,
    /// Total output size in bytes.
    pub output_bytes: u64,
    /// Submission time, seconds since the start of the trace.
    pub submit_time: f64,
    /// Site PanDA historically dispatched this job to (empty if unknown).
    /// Shared: the generator and the trace loaders hand every record of a
    /// site a clone of one allocation.
    #[serde(default)]
    pub hist_site: Arc<str>,
    /// Ground-truth walltime (actual processing duration) in seconds, if known.
    pub hist_walltime: Option<f64>,
    /// Ground-truth queue time (scheduling + resource allocation delay) in
    /// seconds, if known.
    pub hist_queue_time: Option<f64>,
}

impl JobRecord {
    /// Creates a minimal record with the given id, kind, cores and work;
    /// other fields take neutral defaults.
    pub fn new(id: u64, kind: JobKind, cores: u32, work_hs23: f64) -> Self {
        JobRecord {
            id: JobId(id),
            task_id: TaskId(0),
            kind,
            cores,
            work_hs23,
            memory_mb: 2000.0 * cores as f64,
            input_files: 1,
            input_bytes: 1_000_000_000,
            output_bytes: 300_000_000,
            submit_time: 0.0,
            hist_site: Arc::default(),
            hist_walltime: None,
            hist_queue_time: None,
        }
    }
}

/// Parallel efficiency of a multi-core job: the fraction of ideal speed-up
/// retained when running on `cores` cores. ATLAS multi-core production jobs
/// exhibit close-to-linear but not perfect scaling; we model the classic
/// serial-fraction (Amdahl) shape with a 2 % serial fraction.
pub fn parallel_efficiency(cores: u32) -> f64 {
    const SERIAL_FRACTION: f64 = 0.02;
    if cores <= 1 {
        return 1.0;
    }
    let n = cores as f64;
    // Amdahl speed-up S(n) = 1 / (serial + (1-serial)/n); efficiency = S/n.
    1.0 / (SERIAL_FRACTION * n + (1.0 - SERIAL_FRACTION))
}

/// Ideal (contention-free) walltime of a job on a site with the given
/// effective per-core speed: `work / (cores * speed * efficiency)`.
///
/// Both the simulation core and the synthetic ground-truth generator use this
/// single definition, so the calibration residual comes only from the noise
/// and contention the simulator has to explain — the same structure as the
/// paper's calibration objective `Δ = Sim_exe_time − His_exe_time`.
pub fn ideal_walltime(work_hs23: f64, cores: u32, speed_per_core: f64) -> f64 {
    assert!(speed_per_core > 0.0, "speed must be positive");
    assert!(cores > 0, "cores must be positive");
    work_hs23 / (cores as f64 * speed_per_core * parallel_efficiency(cores))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_state_terminality() {
        assert!(JobState::Finished.is_terminal());
        assert!(JobState::Failed.is_terminal());
        for s in [
            JobState::Pending,
            JobState::Assigned,
            JobState::Staging,
            JobState::Running,
        ] {
            assert!(!s.is_terminal());
        }
    }

    #[test]
    fn state_labels_match_table1_vocabulary() {
        assert_eq!(JobState::Finished.label(), "finished");
        assert_eq!(JobState::Pending.to_string(), "pending");
        assert_eq!(JobKind::MultiCore.label(), "multi");
    }

    #[test]
    fn each_trace_kind_is_the_state_label_prefixed() {
        use JobState::*;
        let states = [Pending, Assigned, Staging, Running, Finished, Failed];
        let labels = states.map(JobState::label);
        assert_eq!(
            labels,
            ["pending", "assigned", "staging", "running", "finished", "failed"]
        );
        for state in states {
            assert_eq!(state.trace_kind(), format!("state.{}", state.label()));
        }
    }

    #[test]
    fn parallel_efficiency_is_monotone_and_bounded() {
        assert_eq!(parallel_efficiency(1), 1.0);
        let mut last = 1.0;
        for cores in 2..=64 {
            let eff = parallel_efficiency(cores);
            assert!(eff > 0.0 && eff <= 1.0);
            assert!(eff <= last, "efficiency should not increase with cores");
            last = eff;
        }
        // 8-core production jobs retain most of their efficiency.
        assert!(parallel_efficiency(8) > 0.85);
    }

    #[test]
    fn ideal_walltime_scales_as_expected() {
        // Twice the work -> twice the walltime.
        let base = ideal_walltime(1000.0, 1, 10.0);
        assert!((ideal_walltime(2000.0, 1, 10.0) - 2.0 * base).abs() < 1e-9);
        // Twice the speed -> half the walltime.
        assert!((ideal_walltime(1000.0, 1, 20.0) - base / 2.0).abs() < 1e-9);
        // More cores -> shorter, but not below work/(cores*speed).
        let multi = ideal_walltime(1000.0, 8, 10.0);
        assert!(multi < base);
        assert!(multi >= 1000.0 / (8.0 * 10.0));
    }

    #[test]
    fn record_defaults() {
        let job = JobRecord::new(1, JobKind::SingleCore, 1, 36_000.0);
        assert_eq!((job.hist_walltime, job.hist_queue_time), (None, None));
        assert_eq!(job.cores, 1);
        assert!(job.memory_mb > 0.0);
    }

    #[test]
    fn record_size_is_pinned() {
        // 200k-job campaigns hold one of these per job (README, "Scale
        // campaigns"); a site name costs a pointer pair, not a `String`.
        assert!(std::mem::size_of::<JobRecord>() <= 120);
    }

    #[test]
    fn ids_display() {
        assert_eq!(JobId(5).to_string(), "job#5");
        assert_eq!(TaskId(2).to_string(), "task#2");
    }

    #[test]
    #[should_panic]
    fn ideal_walltime_rejects_zero_speed() {
        ideal_walltime(100.0, 1, 0.0);
    }
}
