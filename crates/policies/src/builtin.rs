//! Built-in allocation policies.
//!
//! These cover the strategies needed by the paper's experiments plus the
//! usual scheduling baselines a downstream user would want to compare
//! against:
//!
//! * [`HistoricalPandaPolicy`] replays the historical PanDA dispatch decision
//!   stored in each job record — "our calibration process follows PanDA's
//!   dispatching policies to replicate realistic job-to-site assignments"
//!   (§4.2). Jobs with no historical site fall back to least-loaded.
//! * [`RoundRobinPolicy`], [`RandomPolicy`] — classic baselines.
//! * [`LeastLoadedPolicy`] — most free cores first; used for the multi-site
//!   scaling and distributed-speedup experiments.
//! * [`FastestAvailablePolicy`] — highest effective per-core speed among
//!   sites with enough free cores.
//! * [`DataAwarePolicy`] — prefers sites that already hold the job's input
//!   data, falling back to least-loaded (a simple Rucio-aware strategy).
//! * [`CheckpointLocalityPolicy`] — resubmits fault-interrupted jobs to the
//!   site holding their newest durable checkpoint, turning the restore into
//!   a site-local read instead of a WAN re-stage.
//! * [`RepairAwarePolicy`] — least-loaded allocation that avoids sites whose
//!   storage and LAN are busy with re-replication repair transfers.

use cgsim_des::rng::Rng;
use cgsim_platform::SiteId;
use cgsim_workload::JobRecord;

use crate::plugin::AllocationPolicy;
use crate::view::{GridInfo, GridView};

/// Returns the up site with the most available cores that can fit `cores`,
/// or, if none fits, the up site with the shortest queue. Sites taken down
/// by fault injection are never chosen (jobs sent there would only be
/// parked); when every site is down the job stays pending.
fn least_loaded_site(view: &GridView, cores: u64) -> Option<SiteId> {
    let fitting = view
        .sites
        .iter()
        .filter(|s| s.up && s.available_cores >= cores)
        .max_by_key(|s| (s.available_cores, std::cmp::Reverse(s.queued_jobs)));
    match fitting {
        Some(s) => Some(s.site),
        None => view
            .sites
            .iter()
            .filter(|s| s.up)
            .min_by_key(|s| s.queued_jobs)
            .map(|s| s.site),
    }
}

/// Replays historical PanDA dispatch decisions (calibration workload).
#[derive(Debug, Default)]
pub struct HistoricalPandaPolicy {
    info: GridInfo,
}

impl HistoricalPandaPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AllocationPolicy for HistoricalPandaPolicy {
    fn name(&self) -> &str {
        "historical-panda"
    }

    fn get_resource_information(&mut self, info: &GridInfo) {
        self.info = info.clone();
    }

    fn assign_job(&mut self, job: &JobRecord, view: &GridView) -> Option<SiteId> {
        if !job.hist_site.is_empty() {
            if let Some(site) = self.info.site_by_name(&job.hist_site) {
                return Some(site);
            }
        }
        least_loaded_site(view, job.cores as u64)
    }
}

/// Round-robin over sites, skipping sites with no free cores when possible.
#[derive(Debug, Default)]
pub struct RoundRobinPolicy {
    cursor: usize,
}

impl RoundRobinPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AllocationPolicy for RoundRobinPolicy {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn assign_job(&mut self, job: &JobRecord, view: &GridView) -> Option<SiteId> {
        if view.sites.is_empty() {
            return None;
        }
        let n = view.sites.len();
        // First pass: next site in rotation that can fit the job now.
        for offset in 0..n {
            let idx = (self.cursor + offset) % n;
            if view.sites[idx].available_cores >= job.cores as u64 {
                self.cursor = idx + 1;
                return Some(view.sites[idx].site);
            }
        }
        // Otherwise just take the next site in rotation (it will queue).
        let idx = self.cursor % n;
        self.cursor += 1;
        Some(view.sites[idx].site)
    }
}

/// Uniformly random site selection (seeded, hence reproducible).
#[derive(Debug)]
pub struct RandomPolicy {
    rng: Rng,
}

impl RandomPolicy {
    /// Creates the policy with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            rng: Rng::new(seed),
        }
    }
}

impl AllocationPolicy for RandomPolicy {
    fn name(&self) -> &str {
        "random"
    }

    fn assign_job(&mut self, _job: &JobRecord, view: &GridView) -> Option<SiteId> {
        if view.sites.is_empty() {
            return None;
        }
        let idx = self.rng.index(view.sites.len());
        Some(view.sites[idx].site)
    }
}

/// Dispatch to the site with the most available cores.
#[derive(Debug, Default)]
pub struct LeastLoadedPolicy;

impl LeastLoadedPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl AllocationPolicy for LeastLoadedPolicy {
    fn name(&self) -> &str {
        "least-loaded"
    }

    fn assign_job(&mut self, job: &JobRecord, view: &GridView) -> Option<SiteId> {
        least_loaded_site(view, job.cores as u64)
    }
}

/// Dispatch to the fastest site that can start the job immediately; if no
/// site has enough free cores, queue at the fastest site overall.
#[derive(Debug, Default)]
pub struct FastestAvailablePolicy {
    info: GridInfo,
}

impl FastestAvailablePolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn fastest(&self, candidates: impl Iterator<Item = SiteId>) -> Option<SiteId> {
        candidates.max_by(|&a, &b| {
            let sa = self.info.sites[a.index()].speed_per_core;
            let sb = self.info.sites[b.index()].speed_per_core;
            sa.partial_cmp(&sb).expect("speeds are finite")
        })
    }
}

impl AllocationPolicy for FastestAvailablePolicy {
    fn name(&self) -> &str {
        "fastest-available"
    }

    fn get_resource_information(&mut self, info: &GridInfo) {
        self.info = info.clone();
    }

    fn assign_job(&mut self, job: &JobRecord, view: &GridView) -> Option<SiteId> {
        if self.info.sites.is_empty() {
            return least_loaded_site(view, job.cores as u64);
        }
        let with_room = view
            .sites
            .iter()
            .filter(|s| s.available_cores >= job.cores as u64)
            .map(|s| s.site);
        self.fastest(with_room)
            .or_else(|| self.fastest(view.sites.iter().map(|s| s.site)))
    }
}

/// Prefer sites that already hold the job's input data.
#[derive(Debug, Default)]
pub struct DataAwarePolicy;

impl DataAwarePolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl AllocationPolicy for DataAwarePolicy {
    fn name(&self) -> &str {
        "data-aware"
    }

    fn assign_job(&mut self, job: &JobRecord, view: &GridView) -> Option<SiteId> {
        let best_with_data = view
            .sites
            .iter()
            .filter(|s| s.has_input_replica && s.available_cores >= job.cores as u64)
            .max_by_key(|s| s.available_cores);
        if let Some(s) = best_with_data {
            return Some(s.site);
        }
        least_loaded_site(view, job.cores as u64)
    }
}

/// Blacklist flapping sites: least-loaded allocation that refuses to send
/// work to a site after fault injection has interrupted too many of the
/// policy's jobs there. Strikes decay on successful completions, so a site
/// that stabilises after an incident eventually earns its way back; if every
/// candidate site is blacklisted the policy falls back to plain least-loaded
/// rather than starving the job.
///
/// This is the reference consumer of the
/// [`AllocationPolicy::on_job_interrupted`] hook — the retry/resubmit path of
/// the fault subsystem routes every interruption through it.
#[derive(Debug)]
pub struct BlacklistFlappingPolicy {
    /// Interruption strikes per site.
    strikes: Vec<f64>,
    /// Strikes at which a site is considered flapping.
    threshold: f64,
    /// Strike credit restored by one successful completion at the site.
    decay: f64,
}

impl Default for BlacklistFlappingPolicy {
    fn default() -> Self {
        BlacklistFlappingPolicy {
            strikes: Vec::new(),
            threshold: 2.0,
            decay: 0.25,
        }
    }
}

impl BlacklistFlappingPolicy {
    /// Creates the policy with the default threshold (2 interruptions).
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_sites(&mut self, n: usize) {
        if self.strikes.len() < n {
            self.strikes.resize(n, 0.0);
        }
    }

    fn blacklisted(&self, site: SiteId) -> bool {
        self.strikes
            .get(site.index())
            .is_some_and(|&s| s >= self.threshold)
    }
}

impl AllocationPolicy for BlacklistFlappingPolicy {
    fn name(&self) -> &str {
        "blacklist-flapping"
    }

    fn get_resource_information(&mut self, info: &GridInfo) {
        self.ensure_sites(info.site_count());
    }

    fn assign_job(&mut self, job: &JobRecord, view: &GridView) -> Option<SiteId> {
        self.ensure_sites(view.sites.len());
        let cores = job.cores as u64;
        let trusted = view
            .sites
            .iter()
            .filter(|s| s.up && !self.blacklisted(s.site) && s.available_cores >= cores)
            .max_by_key(|s| (s.available_cores, std::cmp::Reverse(s.queued_jobs)));
        if let Some(s) = trusted {
            return Some(s.site);
        }
        // No trusted site can start the job now: queue at the trusted site
        // with the shortest queue, or fall back to plain least-loaded when
        // the blacklist has eaten the whole grid.
        view.sites
            .iter()
            .filter(|s| s.up && !self.blacklisted(s.site))
            .min_by_key(|s| s.queued_jobs)
            .map(|s| s.site)
            .or_else(|| least_loaded_site(view, cores))
    }

    fn on_job_completed(&mut self, _job: &JobRecord, site: SiteId, _view: &GridView) {
        self.ensure_sites(site.index() + 1);
        let strikes = &mut self.strikes[site.index()];
        *strikes = (*strikes - self.decay).max(0.0);
    }

    fn on_job_interrupted(&mut self, _job: &JobRecord, site: SiteId, _view: &GridView) {
        self.ensure_sites(site.index() + 1);
        self.strikes[site.index()] += 1.0;
    }
}

/// Prefer the site holding a restored job's newest durable checkpoint.
///
/// This is the reference consumer of the
/// [`AllocationPolicy::on_job_restored`] hook: when the fault subsystem
/// resubmits a job that has a surviving checkpoint, the hook records which
/// site's storage holds it, and the next `assign_job` for that job returns
/// the recorded site (if it is still up) so the restore read never crosses
/// the WAN. Jobs without a recorded checkpoint — first submissions, jobs
/// whose checkpoint lives at the main server, jobs whose checkpoint site is
/// down — fall back to plain least-loaded.
#[derive(Debug, Default)]
pub struct CheckpointLocalityPolicy {
    /// Newest durable checkpoint site per job id (`None` = main server).
    checkpoint_sites: std::collections::HashMap<u64, Option<SiteId>>,
}

impl CheckpointLocalityPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AllocationPolicy for CheckpointLocalityPolicy {
    fn name(&self) -> &str {
        "checkpoint-locality"
    }

    fn assign_job(&mut self, job: &JobRecord, view: &GridView) -> Option<SiteId> {
        if let Some(&Some(site)) = self.checkpoint_sites.get(&job.id.0) {
            if view.sites.get(site.index()).is_some_and(|s| s.up) {
                return Some(site);
            }
        }
        least_loaded_site(view, job.cores as u64)
    }

    fn on_job_completed(&mut self, job: &JobRecord, _site: SiteId, _view: &GridView) {
        self.checkpoint_sites.remove(&job.id.0);
    }

    fn on_job_restored(
        &mut self,
        job: &JobRecord,
        checkpoint_site: Option<SiteId>,
        _view: &GridView,
    ) {
        self.checkpoint_sites.insert(job.id.0, checkpoint_site);
    }
}

/// Least-loaded allocation that steers work away from sites busy with
/// re-replication repairs.
///
/// A site receiving repair transfers is reconstructing lost replicas: its
/// storage frontend and LAN are saturated with repair traffic, and new jobs
/// staged there contend with the repairs (slowing both). Among up sites that
/// can fit the job, the policy picks the one with the fewest in-flight
/// repairs, breaking ties towards the most free cores and then the shortest
/// queue; when nothing fits it falls back to plain least-loaded.
#[derive(Debug, Default)]
pub struct RepairAwarePolicy;

impl RepairAwarePolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl AllocationPolicy for RepairAwarePolicy {
    fn name(&self) -> &str {
        "repair-aware"
    }

    fn assign_job(&mut self, job: &JobRecord, view: &GridView) -> Option<SiteId> {
        let cores = job.cores as u64;
        let calmest = view
            .sites
            .iter()
            .filter(|s| s.up && s.available_cores >= cores)
            .min_by_key(|s| {
                (
                    s.active_repairs,
                    std::cmp::Reverse(s.available_cores),
                    s.queued_jobs,
                )
            });
        match calmest {
            Some(s) => Some(s.site),
            None => least_loaded_site(view, cores),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::SiteLoad;
    use cgsim_platform::Tier;
    use cgsim_workload::JobKind;

    fn job(cores: u32) -> JobRecord {
        JobRecord::new(1, JobKind::SingleCore, cores, 1_000.0)
    }

    fn view(avail: &[u64]) -> GridView {
        GridView {
            now_s: 0.0,
            sites: avail
                .iter()
                .enumerate()
                .map(|(i, &a)| SiteLoad {
                    site: SiteId::new(i),
                    available_cores: a,
                    queued_jobs: 0,
                    running_jobs: 0,
                    finished_jobs: 0,
                    has_input_replica: false,
                    up: true,
                    active_repairs: 0,
                })
                .collect(),
            pending_jobs: 0,
        }
    }

    fn info(speeds: &[f64]) -> GridInfo {
        GridInfo {
            sites: speeds
                .iter()
                .enumerate()
                .map(|(i, &s)| crate::view::SiteInfo {
                    id: SiteId::new(i),
                    name: format!("S{i}"),
                    tier: Tier::Tier2,
                    total_cores: 100,
                    speed_per_core: s,
                    storage_tb: 100.0,
                })
                .collect(),
        }
    }

    #[test]
    fn historical_policy_follows_trace_site() {
        let mut policy = HistoricalPandaPolicy::new();
        policy.get_resource_information(&info(&[1.0, 1.0, 1.0]));
        let mut j = job(1);
        j.hist_site = "S2".into();
        assert_eq!(
            policy.assign_job(&j, &view(&[10, 10, 10])),
            Some(SiteId::new(2))
        );
        // Unknown historical site falls back to least-loaded.
        j.hist_site = "UNKNOWN".into();
        assert_eq!(
            policy.assign_job(&j, &view(&[1, 50, 10])),
            Some(SiteId::new(1))
        );
    }

    #[test]
    fn round_robin_cycles_and_skips_full_sites() {
        let mut policy = RoundRobinPolicy::new();
        let v = view(&[10, 0, 10]);
        let first = policy.assign_job(&job(1), &v).unwrap();
        let second = policy.assign_job(&job(1), &v).unwrap();
        let third = policy.assign_job(&job(1), &v).unwrap();
        assert_eq!(first, SiteId::new(0));
        assert_eq!(second, SiteId::new(2)); // skips the full site #1
        assert_eq!(third, SiteId::new(0));
    }

    #[test]
    fn round_robin_queues_when_everything_full() {
        let mut policy = RoundRobinPolicy::new();
        let v = view(&[0, 0]);
        assert!(policy.assign_job(&job(1), &v).is_some());
    }

    #[test]
    fn random_policy_is_seeded_and_covers_sites() {
        let mut a = RandomPolicy::new(5);
        let mut b = RandomPolicy::new(5);
        let v = view(&[1, 1, 1, 1]);
        let seq_a: Vec<_> = (0..20).map(|_| a.assign_job(&job(1), &v)).collect();
        let seq_b: Vec<_> = (0..20).map(|_| b.assign_job(&job(1), &v)).collect();
        assert_eq!(seq_a, seq_b);
        let distinct: std::collections::HashSet<_> = seq_a.into_iter().collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn least_loaded_picks_most_free_cores() {
        let mut policy = LeastLoadedPolicy::new();
        assert_eq!(
            policy.assign_job(&job(1), &view(&[5, 80, 20])),
            Some(SiteId::new(1))
        );
        // When nothing fits an 8-core job, it still picks a site to queue at.
        assert!(policy.assign_job(&job(8), &view(&[2, 3, 1])).is_some());
    }

    #[test]
    fn fastest_available_respects_free_cores() {
        let mut policy = FastestAvailablePolicy::new();
        policy.get_resource_information(&info(&[5.0, 20.0, 10.0]));
        // Fastest site (#1) has no room for 4 cores -> picks #2 (next fastest with room).
        let v = view(&[10, 2, 10]);
        assert_eq!(policy.assign_job(&job(4), &v), Some(SiteId::new(2)));
        // With room everywhere it picks the fastest.
        assert_eq!(
            policy.assign_job(&job(1), &view(&[10, 10, 10])),
            Some(SiteId::new(1))
        );
    }

    #[test]
    fn data_aware_prefers_sites_with_replica() {
        let mut policy = DataAwarePolicy::new();
        let mut v = view(&[50, 10, 30]);
        v.sites[1].has_input_replica = true;
        assert_eq!(policy.assign_job(&job(1), &v), Some(SiteId::new(1)));
        // Without any replica it behaves like least-loaded.
        v.sites[1].has_input_replica = false;
        assert_eq!(policy.assign_job(&job(1), &v), Some(SiteId::new(0)));
    }

    #[test]
    fn least_loaded_avoids_down_sites() {
        let mut policy = LeastLoadedPolicy::new();
        let mut v = view(&[5, 80, 20]);
        v.sites[1].up = false;
        // The biggest site is down -> next best up site wins.
        assert_eq!(policy.assign_job(&job(1), &v), Some(SiteId::new(2)));
        v.sites[0].up = false;
        v.sites[2].up = false;
        // Everything down -> park the job.
        assert_eq!(policy.assign_job(&job(1), &v), None);
    }

    #[test]
    fn blacklist_flapping_learns_from_interruptions() {
        let mut policy = BlacklistFlappingPolicy::new();
        let v = view(&[50, 80, 20]);
        // Initially behaves like least-loaded.
        assert_eq!(policy.assign_job(&job(1), &v), Some(SiteId::new(1)));
        // Two interruptions at site 1 blacklist it.
        policy.on_job_interrupted(&job(1), SiteId::new(1), &v);
        policy.on_job_interrupted(&job(1), SiteId::new(1), &v);
        assert_eq!(policy.assign_job(&job(1), &v), Some(SiteId::new(0)));
        // Successful completions decay the strikes back below the threshold.
        for _ in 0..8 {
            policy.on_job_completed(&job(1), SiteId::new(1), &v);
        }
        assert_eq!(policy.assign_job(&job(1), &v), Some(SiteId::new(1)));
    }

    #[test]
    fn blacklist_flapping_falls_back_when_grid_is_blacklisted() {
        let mut policy = BlacklistFlappingPolicy {
            threshold: 1.0,
            ..BlacklistFlappingPolicy::default()
        };
        let v = view(&[10, 20]);
        policy.on_job_interrupted(&job(1), SiteId::new(0), &v);
        policy.on_job_interrupted(&job(1), SiteId::new(1), &v);
        // Both sites blacklisted -> still places the job (plain least-loaded).
        assert_eq!(policy.assign_job(&job(1), &v), Some(SiteId::new(1)));
    }

    #[test]
    fn checkpoint_locality_returns_to_checkpoint_site() {
        let mut policy = CheckpointLocalityPolicy::new();
        let v = view(&[80, 10, 20]);
        // No recorded checkpoint -> plain least-loaded.
        assert_eq!(policy.assign_job(&job(1), &v), Some(SiteId::new(0)));
        // After a restore notification, the job goes back to its checkpoint.
        policy.on_job_restored(&job(1), Some(SiteId::new(1)), &v);
        assert_eq!(policy.assign_job(&job(1), &v), Some(SiteId::new(1)));
        // A checkpoint at the main server gives no site preference.
        policy.on_job_restored(&job(1), None, &v);
        assert_eq!(policy.assign_job(&job(1), &v), Some(SiteId::new(0)));
        // A down checkpoint site is not chosen.
        policy.on_job_restored(&job(1), Some(SiteId::new(1)), &v);
        let mut down = v.clone();
        down.sites[1].up = false;
        assert_eq!(policy.assign_job(&job(1), &down), Some(SiteId::new(0)));
        // Completion clears the memory.
        policy.on_job_completed(&job(1), SiteId::new(1), &v);
        assert_eq!(policy.assign_job(&job(1), &v), Some(SiteId::new(0)));
    }

    #[test]
    fn repair_aware_avoids_sites_under_repair() {
        let mut policy = RepairAwarePolicy::new();
        let mut v = view(&[80, 50, 20]);
        // Without repairs it behaves like least-loaded.
        assert_eq!(policy.assign_job(&job(1), &v), Some(SiteId::new(0)));
        // The biggest site is busy repairing -> next calmest site wins.
        v.sites[0].active_repairs = 3;
        assert_eq!(policy.assign_job(&job(1), &v), Some(SiteId::new(1)));
        // When nothing fits, it still queues somewhere (least-loaded fallback).
        assert!(policy.assign_job(&job(200), &v).is_some());
    }

    #[test]
    fn policies_report_names() {
        assert_eq!(HistoricalPandaPolicy::new().name(), "historical-panda");
        assert_eq!(RoundRobinPolicy::new().name(), "round-robin");
        assert_eq!(RandomPolicy::new(1).name(), "random");
        assert_eq!(LeastLoadedPolicy::new().name(), "least-loaded");
        assert_eq!(FastestAvailablePolicy::new().name(), "fastest-available");
        assert_eq!(DataAwarePolicy::new().name(), "data-aware");
        assert_eq!(BlacklistFlappingPolicy::new().name(), "blacklist-flapping");
        assert_eq!(
            CheckpointLocalityPolicy::new().name(),
            "checkpoint-locality"
        );
        assert_eq!(RepairAwarePolicy::new().name(), "repair-aware");
    }
}
