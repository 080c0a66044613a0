//! Operational metrics computed from per-job outcomes.
//!
//! The paper's introduction lists the metrics operators actually watch:
//! "queue time, CPU efficiency, job failure rate, and throughput, all derived
//! from operational logs and monitoring data". [`MetricsReport`] computes
//! those from a run's [`OutcomeTable`], both globally and per site, in one
//! pass that joins each outcome row to its job record once.

use std::collections::BTreeMap;

use cgsim_des::stats::Summary;
use serde::Serialize;

use crate::event::OutcomeTable;

/// Metrics for one site.
/// Format: one entry of `results.json`'s `metrics.per_site`, written only.
#[derive(Debug, Clone, Serialize)]
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
/// Format: `results.json`'s `metrics` object, written only.
#[derive(Debug, Clone, Serialize)]
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

impl MetricsReport {
    /// Computes the report from job outcomes. Returns a neutral report when
    /// no outcomes exist.
    ///
    /// One pass over the table reads each outcome once and feeds both the
    /// grid-wide figures and its site's accumulators, indexed by site. Each
    /// sample keeps outcome order, so every sum and [`Summary`] has the bits
    /// a per-site regrouping of the outcomes would give; sites come out in
    /// name order.
    pub fn from_outcomes(outcomes: &OutcomeTable) -> Self {
        /// One site's share of the pass.
        struct SiteSample {
            finished: u64,
            queue_times: Vec<f64>,
            walltimes: Vec<f64>,
            core_seconds: f64,
        }

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
        let mut sites: Vec<SiteSample> = outcomes
            .site_names()
            .iter()
            .map(|_| SiteSample {
                finished: 0,
                queue_times: Vec::new(),
                walltimes: Vec::new(),
                // `Sum` for floats starts from -0.0.
                core_seconds: -0.0,
            })
            .collect();
        let (mut first_submit, mut last_end) = (f64::INFINITY, 0.0f64);
        let (mut finished, mut staged) = (0u64, 0u64);
        let mut queue_times = Vec::with_capacity(outcomes.len());
        let mut walltimes = Vec::with_capacity(outcomes.len());
        for o in outcomes {
            let (queue_time, walltime) = (o.queue_time(), o.walltime());
            first_submit = first_submit.min(o.submit_time());
            last_end = last_end.max(o.end_time());
            staged += o.staged_bytes();
            queue_times.push(queue_time);
            walltimes.push(walltime);
            let site = &mut sites[o.site_index()];
            site.queue_times.push(queue_time);
            site.walltimes.push(walltime);
            site.core_seconds += walltime * o.cores() as f64;
            if o.succeeded() {
                finished += 1;
                site.finished += 1;
            }
        }
        let makespan = (last_end - first_submit).max(0.0);
        let throughput = |finished: u64| {
            if makespan > 0.0 {
                finished as f64 / (makespan / 3600.0)
            } else {
                0.0
            }
        };
        let failed = outcomes.len() as u64 - finished;

        let per_site = outcomes
            .site_names()
            .iter()
            .zip(sites)
            .filter(|(_, sample)| !sample.queue_times.is_empty())
            .map(|(name, sample)| {
                let jobs = sample.queue_times.len() as u64;
                let fail = jobs - sample.finished;
                let metrics = SiteMetrics {
                    site: name.to_string(),
                    finished_jobs: sample.finished,
                    failed_jobs: fail,
                    failure_rate: fail as f64 / jobs as f64,
                    queue_time: Summary::of(&sample.queue_times),
                    walltime: Summary::of(&sample.walltimes),
                    core_seconds: sample.core_seconds,
                    throughput_per_hour: throughput(sample.finished),
                };
                (name.to_string(), metrics)
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
    use crate::event::tests::table;
    use cgsim_workload::{JobKind, JobState};

    /// A two-core job at `site` that waits 10 s and fails or finishes.
    fn job(
        site: usize,
        submit: f64,
        end: f64,
        failed: bool,
    ) -> (JobKind, u32, usize, f64, f64, f64, JobState) {
        let state = if failed {
            JobState::Failed
        } else {
            JobState::Finished
        };
        (
            JobKind::SingleCore,
            2,
            site,
            submit,
            submit + 10.0,
            end,
            state,
        )
    }

    #[test]
    fn empty_outcomes_give_neutral_report() {
        let report = MetricsReport::from_outcomes(&OutcomeTable::default());
        assert_eq!(report.total_jobs, 0);
        assert_eq!(report.failure_rate, 0.0);
        assert!(report.per_site.is_empty());
        assert_eq!(report.cpu_utilisation(100), 0.0);
    }

    #[test]
    fn global_and_per_site_metrics() {
        let outcomes = table(
            &["CERN", "BNL", "idle"],
            &[
                job(0, 0.0, 100.0, false),
                job(0, 0.0, 200.0, false),
                job(1, 50.0, 400.0, true),
                job(1, 10.0, 300.0, false),
            ],
        );
        let report = MetricsReport::from_outcomes(&outcomes);
        assert_eq!(report.total_jobs, 4);
        assert_eq!(report.finished_jobs, 3);
        assert_eq!(report.failed_jobs, 1);
        assert!((report.failure_rate - 0.25).abs() < 1e-12);
        assert_eq!(report.makespan_s, 400.0);
        // Sites without outcomes are left out; the rest in name order.
        let names: Vec<&str> = report.per_site.keys().map(String::as_str).collect();
        assert_eq!(names, ["BNL", "CERN"]);
        let bnl = &report.per_site["BNL"];
        assert_eq!(bnl.finished_jobs, 1);
        assert_eq!(bnl.failed_jobs, 1);
        assert!((bnl.failure_rate - 0.5).abs() < 1e-12);
        assert_eq!(bnl.core_seconds, 2.0 * (340.0 + 280.0));
        assert_eq!(bnl.queue_time.as_ref().unwrap().mean, 10.0);
        assert!(report.throughput_per_hour > 0.0);
        assert_eq!(report.staged_bytes, 4_000);
        assert!(report.text_summary().contains("failure rate"));
    }

    #[test]
    fn utilisation_is_bounded() {
        let outcomes = table(&["X"], &[job(0, 0.0, 100.0, false)]);
        let report = MetricsReport::from_outcomes(&outcomes);
        let u = report.cpu_utilisation(4);
        assert!(u > 0.0 && u <= 1.0);
        assert_eq!(report.cpu_utilisation(0), 0.0);
    }
}
