//! A coarse-grained GridSim/CloudSim-style baseline simulator.
//!
//! The paper motivates CGSim by the fidelity gap of early grid simulators:
//! "frameworks such as GridSim and CloudSim provided accessible environments
//! for modeling grid and cloud systems but often relied on coarse-grained
//! models that limited their accuracy, particularly for data-intensive
//! workloads" (§2). To make that comparison concrete, this module implements
//! exactly such a coarse-grained simulator:
//!
//! * no network model at all — input staging is free,
//! * no discrete-event engine — jobs are processed in submission order
//!   against a per-core availability calendar,
//! * walltime is the contention-free `work / (cores × nominal speed)`.
//!
//! It is very fast and — as the `baseline_comparison` binary shows — it
//! systematically mispredicts queue times and data-heavy walltimes compared
//! with the fluid-model core, which is the fidelity ablation the paper's
//! related-work argument rests on.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use cgsim_platform::PlatformSpec;
use cgsim_workload::{ideal_walltime, Trace};

/// Outcome of one job in the coarse-grained model.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineOutcome {
    /// Site the job was placed at.
    pub site: String,
    /// Submission time (s).
    pub submit_time: f64,
    /// Execution start time (s).
    pub start_time: f64,
    /// Completion time (s).
    pub end_time: f64,
    /// Predicted walltime (s).
    pub walltime: f64,
    /// Predicted queue time (s).
    pub queue_time: f64,
    /// Ground-truth walltime from the trace, if present.
    pub hist_walltime: Option<f64>,
}

/// Results of a baseline run.
#[derive(Debug, Clone)]
pub struct BaselineResults {
    /// Per-job outcomes.
    pub outcomes: Vec<BaselineOutcome>,
    /// Virtual makespan (s).
    pub makespan_s: f64,
    /// Wall-clock runtime of the baseline simulation (s).
    pub wall_clock_s: f64,
}

impl BaselineResults {
    /// Mean relative walltime error against the trace ground truth.
    pub fn relative_walltime_error(&self) -> f64 {
        let (sim, truth): (Vec<f64>, Vec<f64>) = self
            .outcomes
            .iter()
            .filter_map(|o| o.hist_walltime.map(|t| (o.walltime, t)))
            .unzip();
        cgsim_des::stats::relative_mae(&sim, &truth)
    }
}

/// Runs the coarse-grained model: jobs are assigned to their historical site
/// (falling back to the largest site), and each site is a calendar of
/// per-core availability times.
pub fn simulate(platform: &PlatformSpec, trace: &Trace) -> BaselineResults {
    let started = std::time::Instant::now();

    // Per-site nominal speed and a min-heap of per-core free times. Free
    // times are never negative, so ordering their bits is numeric order.
    let mut sites: HashMap<&str, (f64, BinaryHeap<Reverse<u64>>)> = HashMap::new();
    for site in &platform.sites {
        let cores = site.total_cores().min(100_000) as usize;
        let calendar = BinaryHeap::from(vec![Reverse(0.0f64.to_bits()); cores]);
        sites.insert(site.name.as_str(), (site.hosts[0].speed_per_core, calendar));
    }
    // The first of the largest sites (`max_by_key` keeps the last maximum).
    let largest_site = platform.sites.iter().rev().max_by_key(|s| s.total_cores());
    let largest_site = largest_site.map_or("", |s| s.name.as_str());

    let mut outcomes = Vec::with_capacity(trace.jobs.len());
    let mut makespan: f64 = 0.0;
    for job in &trace.jobs {
        let site = sites
            .get_key_value(&*job.hist_site)
            .map_or(largest_site, |(s, _)| *s);
        let (speed, calendar) = sites.get_mut(site).expect("site exists");
        let walltime = ideal_walltime(job.work_hs23, job.cores, *speed);
        // Take the `cores` earliest-available cores; the job starts when the
        // last of them frees up (or at its submission time).
        let cores = (job.cores as usize).min(calendar.len()).max(1);
        let mut ready = 0.0f64;
        for _ in 0..cores {
            ready = f64::from_bits(calendar.pop().expect("a site has cores").0);
        }
        let start = ready.max(job.submit_time);
        let end = start + walltime;
        calendar.extend(std::iter::repeat_n(Reverse(end.to_bits()), cores));
        makespan = makespan.max(end);
        outcomes.push(BaselineOutcome {
            site: site.to_string(),
            submit_time: job.submit_time,
            start_time: start,
            end_time: end,
            walltime,
            queue_time: start - job.submit_time,
            hist_walltime: job.hist_walltime,
        });
    }

    BaselineResults {
        outcomes,
        makespan_s: makespan,
        wall_clock_s: started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_platform::presets::example_platform;
    use cgsim_workload::{TraceConfig, TraceGenerator};

    fn run(jobs: usize, seed: u64) -> (BaselineResults, Trace) {
        let platform = example_platform();
        let trace = TraceGenerator::new(TraceConfig::with_jobs(jobs, seed)).generate(&platform);
        (simulate(&platform, &trace), trace)
    }

    #[test]
    fn every_job_gets_an_outcome() {
        let (results, trace) = run(300, 3);
        assert_eq!(results.outcomes.len(), trace.len());
        for o in &results.outcomes {
            assert!(o.end_time >= o.start_time);
            assert!(o.start_time >= o.submit_time);
            assert!(o.walltime > 0.0);
            assert!(o.queue_time >= 0.0);
        }
        assert!(results.makespan_s > 0.0);
    }

    #[test]
    fn is_deterministic() {
        let (a, _) = run(100, 9);
        let (b, _) = run(100, 9);
        assert_eq!(a.outcomes, b.outcomes);
    }

    #[test]
    fn jobs_follow_historical_sites() {
        let (results, trace) = run(100, 5);
        for (o, j) in results.outcomes.iter().zip(&trace.jobs) {
            assert_eq!(o.site, &*j.hist_site);
        }
    }

    #[test]
    fn walltime_error_is_nonzero_against_ground_truth() {
        // The baseline ignores the hidden true speeds, so its error against
        // the ground truth must be substantial (this is the fidelity gap).
        let (results, _) = run(400, 7);
        let err = results.relative_walltime_error();
        assert!(err > 0.05, "baseline error unexpectedly small: {err}");
    }

    #[test]
    fn contention_delays_jobs_on_small_sites() {
        let mut platform = example_platform();
        // Shrink every site drastically so queueing must happen.
        for site in &mut platform.sites {
            site.hosts[0].cores = 4;
        }
        let mut cfg = TraceConfig::with_jobs(200, 11);
        cfg.submission_window_s = 0.0;
        let trace = TraceGenerator::new(cfg).generate(&platform);
        let results = simulate(&platform, &trace);
        let queued = results
            .outcomes
            .iter()
            .filter(|o| o.queue_time > 0.0)
            .count();
        assert!(queued > 50, "expected queueing, got {queued}");
    }
}
