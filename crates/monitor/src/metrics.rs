//! Operational metrics computed from per-job outcomes.
//!
//! The paper's introduction lists the metrics operators actually watch:
//! "queue time, CPU efficiency, job failure rate, and throughput, all derived
//! from operational logs and monitoring data". [`MetricsReport`] computes
//! those from the simulated [`JobOutcome`] records, both globally and per
//! site.

use std::collections::BTreeMap;

use cgsim_des::stats::Summary;
use serde::{Deserialize, Serialize};

use crate::event::JobOutcome;

/// Metrics for one site.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SiteMetrics {
    /// Site name.
    pub site: String,
    /// Jobs that finished successfully.
    pub finished_jobs: u64,
    /// Jobs that failed.
    pub failed_jobs: u64,
    /// Failure rate in `[0, 1]`.
    pub failure_rate: f64,
    /// Queue-time distribution (s).
    pub queue_time: Option<Summary>,
    /// Walltime distribution (s).
    pub walltime: Option<Summary>,
    /// Core-seconds of useful work executed at the site.
    pub core_seconds: f64,
    /// Jobs completed per simulated hour.
    pub throughput_per_hour: f64,
}

/// Grid-wide metrics report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Makespan: time from first submission to last completion (s).
    pub makespan_s: f64,
    /// Total jobs simulated.
    pub total_jobs: u64,
    /// Successfully finished jobs.
    pub finished_jobs: u64,
    /// Failed jobs.
    pub failed_jobs: u64,
    /// Global failure rate in `[0, 1]`.
    pub failure_rate: f64,
    /// Global queue-time distribution (s).
    pub queue_time: Option<Summary>,
    /// Global walltime distribution (s).
    pub walltime: Option<Summary>,
    /// Jobs completed per simulated hour.
    pub throughput_per_hour: f64,
    /// Total bytes staged across the WAN.
    pub staged_bytes: u64,
    /// Per-site breakdown, keyed by site name.
    pub per_site: BTreeMap<String, SiteMetrics>,
}

/// Groups outcomes by the site they ran at, in site-name order, each group
/// in outcome order. The keys borrow the outcomes' names: a caller building
/// a name-keyed map materialises one `String` per site, not per outcome.
pub fn outcomes_by_site<'a>(
    outcomes: impl IntoIterator<Item = &'a JobOutcome>,
) -> BTreeMap<&'a str, Vec<&'a JobOutcome>> {
    let mut grouped: BTreeMap<&str, Vec<&JobOutcome>> = BTreeMap::new();
    for o in outcomes {
        grouped.entry(&o.site).or_default().push(o);
    }
    grouped
}

impl MetricsReport {
    /// Computes the report from job outcomes. Returns a neutral report when
    /// no outcomes exist.
    pub fn from_outcomes(outcomes: &[JobOutcome]) -> Self {
        if outcomes.is_empty() {
            return MetricsReport {
                makespan_s: 0.0,
                total_jobs: 0,
                finished_jobs: 0,
                failed_jobs: 0,
                failure_rate: 0.0,
                queue_time: None,
                walltime: None,
                throughput_per_hour: 0.0,
                staged_bytes: 0,
                per_site: BTreeMap::new(),
            };
        }
        let first_submit = outcomes
            .iter()
            .map(|o| o.submit_time)
            .fold(f64::INFINITY, f64::min);
        let last_end = outcomes.iter().map(|o| o.end_time).fold(0.0f64, f64::max);
        let makespan = (last_end - first_submit).max(0.0);
        let finished = outcomes.iter().filter(|o| o.succeeded()).count() as u64;
        let failed = outcomes.len() as u64 - finished;
        let queue_times: Vec<f64> = outcomes.iter().map(|o| o.queue_time).collect();
        let walltimes: Vec<f64> = outcomes.iter().map(|o| o.walltime).collect();
        let staged: u64 = outcomes.iter().map(|o| o.staged_bytes).sum();

        let per_site = outcomes_by_site(outcomes)
            .into_iter()
            .map(|(site, jobs)| {
                let site = site.to_string();
                let fin = jobs.iter().filter(|o| o.succeeded()).count() as u64;
                let fail = jobs.len() as u64 - fin;
                let qt: Vec<f64> = jobs.iter().map(|o| o.queue_time).collect();
                let wt: Vec<f64> = jobs.iter().map(|o| o.walltime).collect();
                let core_seconds: f64 = jobs.iter().map(|o| o.core_seconds()).sum();
                (
                    site.clone(),
                    SiteMetrics {
                        site,
                        finished_jobs: fin,
                        failed_jobs: fail,
                        failure_rate: fail as f64 / jobs.len() as f64,
                        queue_time: Summary::of(&qt),
                        walltime: Summary::of(&wt),
                        core_seconds,
                        throughput_per_hour: if makespan > 0.0 {
                            fin as f64 / (makespan / 3600.0)
                        } else {
                            0.0
                        },
                    },
                )
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
            throughput_per_hour: if makespan > 0.0 {
                finished as f64 / (makespan / 3600.0)
            } else {
                0.0
            },
            staged_bytes: staged,
            per_site,
        }
    }

    /// Average CPU utilisation of the listed capacity over the makespan:
    /// executed core-seconds divided by `total_cores * makespan`.
    pub fn cpu_utilisation(&self, total_cores: u64) -> f64 {
        if self.makespan_s <= 0.0 || total_cores == 0 {
            return 0.0;
        }
        let core_seconds: f64 = self.per_site.values().map(|s| s.core_seconds).sum();
        (core_seconds / (total_cores as f64 * self.makespan_s)).min(1.0)
    }

    /// A short human-readable textual summary.
    pub fn text_summary(&self) -> String {
        format!(
            "jobs: {} (finished {}, failed {}, failure rate {:.1}%)\nmakespan: {:.1} h, throughput: {:.1} jobs/h\nmean queue time: {:.1} s, mean walltime: {:.1} s, staged: {:.2} GB",
            self.total_jobs,
            self.finished_jobs,
            self.failed_jobs,
            self.failure_rate * 100.0,
            self.makespan_s / 3600.0,
            self.throughput_per_hour,
            self.queue_time.as_ref().map(|s| s.mean).unwrap_or(0.0),
            self.walltime.as_ref().map(|s| s.mean).unwrap_or(0.0),
            self.staged_bytes as f64 / 1e9,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_workload::{JobId, JobKind, JobState};

    fn outcome(id: u64, site: &str, submit: f64, end: f64, failed: bool) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            kind: JobKind::SingleCore,
            cores: 2,
            work_hs23: 2.0 * (end - submit),
            site: site.into(),
            submit_time: submit,
            assign_time: submit + 1.0,
            start_time: submit + 10.0,
            end_time: end,
            final_state: if failed {
                JobState::Failed
            } else {
                JobState::Finished
            },
            staged_bytes: 1_000,
            walltime: end - submit - 10.0,
            queue_time: 10.0,
            hist_walltime: None,
            hist_queue_time: None,
        }
    }

    #[test]
    fn empty_outcomes_give_neutral_report() {
        let report = MetricsReport::from_outcomes(&[]);
        assert_eq!(report.total_jobs, 0);
        assert_eq!(report.failure_rate, 0.0);
        assert!(report.per_site.is_empty());
        assert_eq!(report.cpu_utilisation(100), 0.0);
    }

    #[test]
    fn global_and_per_site_metrics() {
        let outcomes = vec![
            outcome(1, "CERN", 0.0, 100.0, false),
            outcome(2, "CERN", 0.0, 200.0, false),
            outcome(3, "BNL", 50.0, 400.0, true),
            outcome(4, "BNL", 10.0, 300.0, false),
        ];
        let report = MetricsReport::from_outcomes(&outcomes);
        assert_eq!(report.total_jobs, 4);
        assert_eq!(report.finished_jobs, 3);
        assert_eq!(report.failed_jobs, 1);
        assert!((report.failure_rate - 0.25).abs() < 1e-12);
        assert_eq!(report.makespan_s, 400.0);
        assert_eq!(report.per_site.len(), 2);
        let bnl = &report.per_site["BNL"];
        assert_eq!(bnl.finished_jobs, 1);
        assert_eq!(bnl.failed_jobs, 1);
        assert!((bnl.failure_rate - 0.5).abs() < 1e-12);
        assert!(report.throughput_per_hour > 0.0);
        assert_eq!(report.staged_bytes, 4_000);
        assert!(report.text_summary().contains("failure rate"));
    }

    #[test]
    fn utilisation_is_bounded() {
        let outcomes = vec![outcome(1, "X", 0.0, 100.0, false)];
        let report = MetricsReport::from_outcomes(&outcomes);
        let u = report.cpu_utilisation(4);
        assert!(u > 0.0 && u <= 1.0);
        assert_eq!(report.cpu_utilisation(0), 0.0);
    }
}
