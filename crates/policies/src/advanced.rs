//! Advanced allocation policies.
//!
//! These go beyond the simple baselines of [`crate::builtin`] and cover the
//! strategies the CGSim papers motivate testing in simulation before
//! deploying on the production grid: cost-model scheduling that trades
//! compute speed against data movement (the joint job-scheduling /
//! data-allocation problem of Feng et al.), fair-share allocation across
//! sites, expected-wait minimisation, and PanDA's capacity-proportional
//! dispatch.

use cgsim_des::rng::Rng;
use cgsim_platform::SiteId;
use cgsim_workload::{ideal_walltime, JobRecord};

use crate::plugin::AllocationPolicy;
use crate::view::{GridInfo, GridView};

/// Dispatch to the site with the smallest estimated completion time
/// (expected queue wait plus execution time), using the static per-site
/// speeds from `getResourceInformation` and the dynamic queue depths from
/// the dispatch-time view.
#[derive(Debug, Default)]
pub struct ShortestExpectedWaitPolicy {
    info: GridInfo,
}

impl ShortestExpectedWaitPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Estimated completion time of `job` at site `i` given the current view.
    fn estimate(&self, job: &JobRecord, view: &GridView, i: usize) -> f64 {
        let site = &self.info.sites[i];
        let load = &view.sites[i];
        let exec = ideal_walltime(job.work_hs23, job.cores, site.speed_per_core.max(1e-9));
        // Expected wait: if cores are free the job starts immediately;
        // otherwise approximate the backlog as queued jobs sharing the whole
        // site, each taking roughly this job's execution time.
        let wait = if load.available_cores >= job.cores as u64 {
            0.0
        } else {
            let slots = (site.total_cores / job.cores.max(1) as u64).max(1) as f64;
            (load.queued_jobs as f64 + 1.0) / slots * exec
        };
        wait + exec
    }
}

impl AllocationPolicy for ShortestExpectedWaitPolicy {
    fn name(&self) -> &str {
        "shortest-expected-wait"
    }

    fn get_resource_information(&mut self, info: &GridInfo) {
        self.info = info.clone();
    }

    fn assign_job(&mut self, job: &JobRecord, view: &GridView) -> Option<SiteId> {
        if self.info.sites.is_empty() || view.sites.is_empty() {
            return view.sites.first().map(|s| s.site);
        }
        (0..view.sites.len().min(self.info.sites.len()))
            .min_by(|&a, &b| {
                self.estimate(job, view, a)
                    .partial_cmp(&self.estimate(job, view, b))
                    .expect("estimates are finite")
            })
            .map(|i| view.sites[i].site)
    }
}

/// Weighted fair-share allocation: every site should receive work in
/// proportion to its capacity share (cores × speed). The policy tracks the
/// work it has dispatched so far and always picks the most under-served site
/// that can eventually run the job.
#[derive(Debug, Default)]
pub struct WeightedFairSharePolicy {
    info: GridInfo,
    /// HS23-seconds of work dispatched to each site so far.
    dispatched_work: Vec<f64>,
    /// Capacity share of each site in `[0, 1]`.
    capacity_share: Vec<f64>,
}

impl WeightedFairSharePolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AllocationPolicy for WeightedFairSharePolicy {
    fn name(&self) -> &str {
        "weighted-fair-share"
    }

    fn get_resource_information(&mut self, info: &GridInfo) {
        let total_capacity: f64 = info
            .sites
            .iter()
            .map(|s| s.total_cores as f64 * s.speed_per_core)
            .sum();
        self.capacity_share = info
            .sites
            .iter()
            .map(|s| {
                if total_capacity > 0.0 {
                    s.total_cores as f64 * s.speed_per_core / total_capacity
                } else {
                    1.0 / info.sites.len().max(1) as f64
                }
            })
            .collect();
        self.dispatched_work = vec![0.0; info.sites.len()];
        self.info = info.clone();
    }

    fn assign_job(&mut self, job: &JobRecord, view: &GridView) -> Option<SiteId> {
        if self.capacity_share.is_empty() {
            return view.sites.first().map(|s| s.site);
        }
        let total_dispatched: f64 = self.dispatched_work.iter().sum::<f64>() + job.work_hs23;
        // Deficit = target share − actual share if the job were sent there.
        let best = (0..view.sites.len().min(self.capacity_share.len()))
            .filter(|&i| self.info.sites[i].total_cores >= job.cores as u64)
            .min_by(|&a, &b| {
                let share = |i: usize| {
                    (self.dispatched_work[i] + job.work_hs23) / total_dispatched
                        - self.capacity_share[i]
                };
                share(a).partial_cmp(&share(b)).expect("shares are finite")
            });
        let chosen = best.or_else(|| {
            // No site is large enough for this job; fall back to the largest.
            (0..view.sites.len().min(self.info.sites.len()))
                .max_by_key(|&i| self.info.sites[i].total_cores)
        })?;
        self.dispatched_work[chosen] += job.work_hs23;
        Some(view.sites[chosen].site)
    }
}

/// Greedy joint compute + data-movement cost model (a lightweight stand-in
/// for the MILP formulation of Feng et al.): for every site, estimate
/// execution time, input-transfer time (zero when the site already holds a
/// replica) and a queue-wait penalty, and dispatch to the cheapest site.
#[derive(Debug)]
pub struct GreedyCostPolicy {
    info: GridInfo,
    /// Assumed wide-area bandwidth for inputs that must be transferred (B/s).
    pub wan_bandwidth_bps: f64,
    /// Weight of the queue-wait penalty relative to execution time.
    pub wait_weight: f64,
}

impl Default for GreedyCostPolicy {
    fn default() -> Self {
        GreedyCostPolicy {
            info: GridInfo::default(),
            wan_bandwidth_bps: 10e9 / 8.0, // 10 Gb/s expressed in bytes/s
            wait_weight: 1.0,
        }
    }
}

impl GreedyCostPolicy {
    /// Creates the policy with default cost weights.
    pub fn new() -> Self {
        Self::default()
    }

    fn cost(&self, job: &JobRecord, view: &GridView, i: usize) -> f64 {
        let site = &self.info.sites[i];
        let load = &view.sites[i];
        let exec = ideal_walltime(job.work_hs23, job.cores, site.speed_per_core.max(1e-9));
        let transfer = if load.has_input_replica {
            0.0
        } else {
            job.input_bytes as f64 / self.wan_bandwidth_bps.max(1.0)
        };
        let wait = if load.available_cores >= job.cores as u64 {
            0.0
        } else {
            let slots = (site.total_cores / job.cores.max(1) as u64).max(1) as f64;
            (load.queued_jobs as f64 + 1.0) / slots * exec
        };
        exec + transfer + self.wait_weight * wait
    }
}

impl AllocationPolicy for GreedyCostPolicy {
    fn name(&self) -> &str {
        "greedy-cost"
    }

    fn get_resource_information(&mut self, info: &GridInfo) {
        self.info = info.clone();
    }

    fn assign_job(&mut self, job: &JobRecord, view: &GridView) -> Option<SiteId> {
        if self.info.sites.is_empty() || view.sites.is_empty() {
            return view.sites.first().map(|s| s.site);
        }
        (0..view.sites.len().min(self.info.sites.len()))
            .min_by(|&a, &b| {
                self.cost(job, view, a)
                    .partial_cmp(&self.cost(job, view, b))
                    .expect("costs are finite")
            })
            .map(|i| view.sites[i].site)
    }
}

/// PanDA-style capacity-proportional dispatch: sites are drawn at random with
/// probability proportional to their core count, regardless of instantaneous
/// load. This is the statistical behaviour the historical traces exhibit and
/// a useful baseline for the smarter policies above.
#[derive(Debug)]
pub struct CapacityProportionalPolicy {
    info: GridInfo,
    rng: Rng,
    weights: Vec<f64>,
}

impl CapacityProportionalPolicy {
    /// Creates the policy with the given seed.
    pub fn new(seed: u64) -> Self {
        CapacityProportionalPolicy {
            info: GridInfo::default(),
            rng: Rng::new(seed),
            weights: Vec::new(),
        }
    }
}

impl AllocationPolicy for CapacityProportionalPolicy {
    fn name(&self) -> &str {
        "capacity-proportional"
    }

    fn get_resource_information(&mut self, info: &GridInfo) {
        self.weights = info.sites.iter().map(|s| s.total_cores as f64).collect();
        self.info = info.clone();
    }

    fn assign_job(&mut self, _job: &JobRecord, view: &GridView) -> Option<SiteId> {
        if view.sites.is_empty() {
            return None;
        }
        if self.weights.len() != view.sites.len() || self.weights.iter().all(|&w| w <= 0.0) {
            let idx = self.rng.index(view.sites.len());
            return Some(view.sites[idx].site);
        }
        let idx = self.rng.weighted_index(&self.weights);
        Some(view.sites[idx].site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{SiteInfo, SiteLoad};
    use cgsim_platform::Tier;
    use cgsim_workload::JobKind;

    fn job(cores: u32, work: f64, input_bytes: u64) -> JobRecord {
        let mut j = JobRecord::new(1, JobKind::SingleCore, cores, work);
        j.input_bytes = input_bytes;
        j
    }

    fn info(sites: &[(u64, f64)]) -> GridInfo {
        GridInfo {
            sites: sites
                .iter()
                .enumerate()
                .map(|(i, &(cores, speed))| SiteInfo {
                    id: SiteId::new(i),
                    name: format!("S{i}"),
                    tier: Tier::Tier2,
                    total_cores: cores,
                    speed_per_core: speed,
                    storage_tb: 100.0,
                })
                .collect(),
        }
    }

    fn view(loads: &[(u64, u64, bool)]) -> GridView {
        GridView {
            now_s: 0.0,
            sites: loads
                .iter()
                .enumerate()
                .map(|(i, &(avail, queued, replica))| SiteLoad {
                    site: SiteId::new(i),
                    available_cores: avail,
                    queued_jobs: queued,
                    running_jobs: 0,
                    finished_jobs: 0,
                    has_input_replica: replica,
                    up: true,
                    active_repairs: 0,
                })
                .collect(),
            pending_jobs: 0,
        }
    }

    #[test]
    fn shortest_expected_wait_prefers_fast_idle_sites() {
        let mut policy = ShortestExpectedWaitPolicy::new();
        policy.get_resource_information(&info(&[(100, 5.0), (100, 20.0), (100, 10.0)]));
        // All idle: the fastest site wins.
        let choice = policy.assign_job(&job(1, 36_000.0, 0), &view(&[(100, 0, false); 3]));
        assert_eq!(choice, Some(SiteId::new(1)));
        // The fastest site is saturated with a very deep queue: the policy
        // moves on to the next-best completion-time estimate.
        let busy = view(&[(100, 0, false), (0, 500, false), (100, 0, false)]);
        assert_eq!(
            policy.assign_job(&job(1, 36_000.0, 0), &busy),
            Some(SiteId::new(2))
        );
    }

    #[test]
    fn weighted_fair_share_tracks_capacity_shares() {
        let mut policy = WeightedFairSharePolicy::new();
        // Site 0 has 3x the capacity of site 1.
        policy.get_resource_information(&info(&[(300, 10.0), (100, 10.0)]));
        let v = view(&[(300, 0, false), (100, 0, false)]);
        let mut counts = [0usize; 2];
        for _ in 0..400 {
            let site = policy.assign_job(&job(1, 1_000.0, 0), &v).unwrap();
            counts[site.index()] += 1;
        }
        // Shares should approach 3:1.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!(
            (2.0..4.5).contains(&ratio),
            "ratio {ratio}, counts {counts:?}"
        );
        assert_eq!(policy.dispatched_work.len(), 2);
    }

    #[test]
    fn fair_share_falls_back_to_largest_site_for_huge_jobs() {
        let mut policy = WeightedFairSharePolicy::new();
        policy.get_resource_information(&info(&[(4, 10.0), (64, 10.0)]));
        let v = view(&[(4, 0, false), (64, 0, false)]);
        // A 16-core job does not fit site 0 at all.
        assert_eq!(
            policy.assign_job(&job(16, 1_000.0, 0), &v),
            Some(SiteId::new(1))
        );
    }

    #[test]
    fn greedy_cost_trades_speed_against_data_locality() {
        let mut policy = GreedyCostPolicy::new();
        // Site 0 is slower but holds the input replica; site 1 is faster.
        policy.get_resource_information(&info(&[(100, 8.0), (100, 10.0)]));
        // Small input: the faster site wins despite the transfer.
        let small = job(1, 36_000.0, 1_000_000);
        assert_eq!(
            policy.assign_job(&small, &view(&[(100, 0, true), (100, 0, false)])),
            Some(SiteId::new(1))
        );
        // Huge input: data gravity wins.
        let huge = job(1, 36_000.0, 4_000_000_000_000);
        assert_eq!(
            policy.assign_job(&huge, &view(&[(100, 0, true), (100, 0, false)])),
            Some(SiteId::new(0))
        );
    }

    #[test]
    fn capacity_proportional_matches_core_counts_statistically() {
        let mut policy = CapacityProportionalPolicy::new(11);
        policy.get_resource_information(&info(&[(1600, 10.0), (400, 10.0)]));
        let v = view(&[(1600, 0, false), (400, 0, false)]);
        let mut counts = [0usize; 2];
        for _ in 0..2_000 {
            let site = policy.assign_job(&job(1, 1_000.0, 0), &v).unwrap();
            counts[site.index()] += 1;
        }
        let frac = counts[0] as f64 / 2_000.0;
        assert!((frac - 0.8).abs() < 0.05, "fraction {frac}");
    }

    #[test]
    fn policies_without_resource_info_still_answer() {
        let v = view(&[(10, 0, false)]);
        assert!(ShortestExpectedWaitPolicy::new()
            .assign_job(&job(1, 1.0, 0), &v)
            .is_some());
        assert!(WeightedFairSharePolicy::new()
            .assign_job(&job(1, 1.0, 0), &v)
            .is_some());
        assert!(GreedyCostPolicy::new()
            .assign_job(&job(1, 1.0, 0), &v)
            .is_some());
        assert!(CapacityProportionalPolicy::new(1)
            .assign_job(&job(1, 1.0, 0), &v)
            .is_some());
        assert!(CapacityProportionalPolicy::new(1)
            .assign_job(&job(1, 1.0, 0), &GridView::default())
            .is_none());
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(
            ShortestExpectedWaitPolicy::new().name(),
            "shortest-expected-wait"
        );
        assert_eq!(WeightedFairSharePolicy::new().name(), "weighted-fair-share");
        assert_eq!(GreedyCostPolicy::new().name(), "greedy-cost");
        assert_eq!(
            CapacityProportionalPolicy::new(0).name(),
            "capacity-proportional"
        );
    }
}
