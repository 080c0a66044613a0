//! The monitoring collector fed by the simulation core.
//!
//! The collector receives every job state transition together with the
//! concurrent state of the concerned site, maintains cumulative per-site
//! counters, and appends one [`EventRecord`] per transition — the dual-level
//! (job + site) tracking described in §4.3.2. It can be disabled entirely for
//! maximum simulation speed, or thinned with a sampling stride for very large
//! runs; the monitoring-overhead benchmark quantifies the cost.

use std::sync::Arc;

use cgsim_workload::{JobId, JobState};
use serde::{Deserialize, Serialize};

use crate::event::{EventRecord, JobOutcome};
use crate::window::WindowedAggregator;

/// Collector configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonitoringConfig {
    /// Whether event-level records are collected at all.
    pub enabled: bool,
    /// Keep one out of every `sample_stride` event records (1 = keep all).
    pub sample_stride: u64,
    /// Upper bound on retained event records (0 = unbounded, the default).
    /// When set, the dataset becomes a ring: once the bound is exceeded the
    /// *oldest* records are discarded, [`MonitoringCollector::events`] holds
    /// the most recent tail, and [`MonitoringCollector::events_dropped`]
    /// counts the truncation. Event ids keep counting from the start of the
    /// run, so a dropped prefix is visible in the data as well.
    #[serde(default)]
    pub max_events: u64,
    /// Width of the windowed-metrics windows in simulated seconds
    /// (0 = windowed metrics off, the default).
    #[serde(default)]
    pub window_s: f64,
    /// Closed windows retained by the windowed aggregator (a ring: the
    /// oldest windows are dropped beyond this).
    #[serde(default = "default_max_windows")]
    pub max_windows: usize,
}

fn default_max_windows() -> usize {
    512
}

impl Default for MonitoringConfig {
    fn default() -> Self {
        MonitoringConfig {
            enabled: true,
            sample_stride: 1,
            max_events: 0,
            window_s: 0.0,
            max_windows: default_max_windows(),
        }
    }
}

impl MonitoringConfig {
    /// A configuration with monitoring switched off.
    pub fn disabled() -> Self {
        MonitoringConfig {
            enabled: false,
            ..MonitoringConfig::default()
        }
    }

    /// A configuration with windowed metrics on (windows of `window_s`
    /// simulated seconds).
    pub fn windowed(window_s: f64) -> Self {
        MonitoringConfig {
            window_s,
            ..MonitoringConfig::default()
        }
    }
}

/// Cumulative counters for one site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SiteCounters {
    /// Jobs dispatched to the site so far.
    pub assigned: u64,
    /// Jobs finished at the site so far.
    pub finished: u64,
    /// Jobs failed at the site so far.
    pub failed: u64,
    /// Jobs killed mid-flight at the site by fault injection (outages,
    /// node loss, targeted kills).
    pub interrupted: u64,
    /// Checkpoints durably written by jobs executing at the site.
    pub checkpoints: u64,
    /// Re-replication repair transfers completed *into* the site (the site
    /// received a fresh replica from the repair planner).
    #[serde(default)]
    pub repairs: u64,
}

/// Grid-level (main-server) counters not attributable to any single site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GridCounters {
    /// Allocation-policy decisions referencing a site outside the platform
    /// (a buggy plugin returning an out-of-range `SiteId`). The concerned
    /// jobs are parked on the pending list; without this counter such a
    /// plugin is indistinguishable from an overloaded grid.
    pub invalid_policy_decisions: u64,
    /// Whole-site outages applied by fault injection (up → down
    /// transitions; overlapping outage processes count once).
    pub site_outages: u64,
    /// Partial node-loss events applied by fault injection.
    pub node_losses: u64,
    /// Link-degradation events applied by fault injection.
    pub link_degradations: u64,
    /// Jobs killed mid-flight by fault injection, across all sites.
    pub job_interruptions: u64,
    /// Fault-interrupted jobs resubmitted for another attempt.
    pub fault_retries: u64,
    /// Storage-media losses applied by fault injection (data loss at a site
    /// without an outage).
    pub disk_losses: u64,
    /// Checkpoints durably written across the grid.
    pub checkpoints_written: u64,
    /// Bytes of checkpoint state durably written.
    pub checkpoint_bytes: u64,
    /// Resumed attempts that started from a durable checkpoint instead of
    /// from scratch.
    pub checkpoint_restores: u64,
    /// Durable checkpoints invalidated by site outages or disk losses.
    pub checkpoints_lost: u64,
    /// Execution seconds *not* recomputed thanks to checkpoint restores
    /// (work already done before the restored-from checkpoint).
    pub work_saved_s: f64,
    /// Execution seconds discarded by fault interruptions (progress past the
    /// last durable checkpoint at the moment of the kill). With checkpointing
    /// disabled this is the full progress of every killed attempt.
    pub work_lost_s: f64,
    /// Re-replication repair transfers admitted by the repair planner.
    #[serde(default)]
    pub repairs_started: u64,
    /// Repair transfers that completed and (deficit permitting) landed a
    /// fresh replica.
    #[serde(default)]
    pub repairs_completed: u64,
    /// Repair transfers cancelled mid-flight (an endpoint died, or the
    /// workload completed first).
    #[serde(default)]
    pub repairs_cancelled: u64,
    /// Datasets whose repair-retry budget ran out (graceful degradation:
    /// the planner stops trying rather than livelock).
    #[serde(default)]
    pub repairs_abandoned: u64,
    /// Bytes carried by completed repair transfers.
    #[serde(default)]
    pub repair_bytes: u64,
    /// Segment boundaries where a job stalled because its previous
    /// asynchronous checkpoint write was still in flight.
    #[serde(default)]
    pub ckpt_stalls: u64,
    /// Asynchronous checkpoint writes admitted concurrently with the next
    /// execution segment (the overlap actually happening).
    #[serde(default)]
    pub ckpt_overlapped: u64,
    /// Bytes actually put on the wire by checkpoint writes — equals
    /// `checkpoint_bytes` for full-image shipping, less once incremental
    /// (`delta_bytes_per_s`) shipping kicks in.
    #[serde(default)]
    pub ckpt_bytes_shipped: u64,
}

/// Counters of a deterministic scenario-response cache (the memoisation
/// layer of `cgsim-core`'s `ScenarioEngine`). Because every simulation is
/// bit-for-bit reproducible, a cached response is indistinguishable from a
/// fresh run; these counters are how operators see that short-circuiting
/// happen (and size the cache: a high eviction rate means the working set of
/// distinct what-if queries exceeds the configured capacity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheCounters {
    /// Requests answered from the cache without running a simulation
    /// (including repeats *within* one batch, which share the first
    /// occurrence's single run).
    pub hits: u64,
    /// Requests that required a simulation run.
    pub misses: u64,
    /// Cached responses discarded to make room for newer ones.
    pub evictions: u64,
    /// Responses currently resident in the cache.
    pub entries: u64,
}

/// The monitoring collector.
#[derive(Debug, Clone)]
pub struct MonitoringCollector {
    config: MonitoringConfig,
    /// The run's one allocation of each site name, then the empty name of
    /// main-server events: event rows and outcomes hold clones.
    site_names: Vec<Arc<str>>,
    counters: Vec<SiteCounters>,
    /// Grid-level counters (faults, checkpoints, repairs, main-server
    /// anomalies). Single-counter events bump their field in place; the
    /// `record_*` methods below cover events that move several counters.
    pub grid_counters: GridCounters,
    events: Vec<EventRecord>,
    outcomes: Vec<JobOutcome>,
    next_event_id: u64,
    transitions_seen: u64,
    events_dropped: u64,
    windows: Option<WindowedAggregator>,
}

impl MonitoringCollector {
    /// Creates a collector for the given sites.
    pub fn new(site_names: Vec<String>, config: MonitoringConfig) -> Self {
        let counters = vec![SiteCounters::default(); site_names.len()];
        let site_names = site_names
            .iter()
            .map(|name| name.as_str())
            .chain([""])
            .map(Arc::from)
            .collect();
        let windows = (config.window_s > 0.0)
            .then(|| WindowedAggregator::new(config.window_s, config.max_windows));
        MonitoringCollector {
            config,
            site_names,
            counters,
            grid_counters: GridCounters::default(),
            events: Vec::new(),
            outcomes: Vec::new(),
            next_event_id: 0,
            transitions_seen: 0,
            events_dropped: 0,
            windows,
        }
    }

    /// Records a job killed mid-flight by fault injection at the given site.
    pub fn record_interruption(&mut self, site_index: usize) {
        self.grid_counters.job_interruptions += 1;
        if let Some(counters) = self.counters.get_mut(site_index) {
            counters.interrupted += 1;
        }
    }

    /// Records a durable checkpoint of `bytes` written by a job executing at
    /// the given site.
    pub fn record_checkpoint_written(&mut self, site_index: usize, bytes: u64) {
        self.grid_counters.checkpoints_written += 1;
        self.grid_counters.checkpoint_bytes += bytes;
        if let Some(counters) = self.counters.get_mut(site_index) {
            counters.checkpoints += 1;
        }
    }

    /// Records an execution attempt resumed from a durable checkpoint,
    /// saving `work_saved_s` seconds of recomputation.
    pub fn record_checkpoint_restore(&mut self, work_saved_s: f64) {
        self.grid_counters.checkpoint_restores += 1;
        self.grid_counters.work_saved_s += work_saved_s;
    }

    /// Records a completed repair transfer of `bytes` into the given site.
    pub fn record_repair_completed(&mut self, site_index: usize, bytes: u64) {
        self.grid_counters.repairs_completed += 1;
        self.grid_counters.repair_bytes += bytes;
        if let Some(counters) = self.counters.get_mut(site_index) {
            counters.repairs += 1;
        }
    }

    /// Records a job state transition at a site (`site_index` indexes the
    /// site list given at construction; `None` marks main-server events).
    #[allow(clippy::too_many_arguments)]
    pub fn record_transition(
        &mut self,
        time_s: f64,
        job: JobId,
        state: JobState,
        site_index: Option<usize>,
        available_cores: u64,
        site_queued: u64,
    ) {
        // Counters are always maintained (cheap); event rows obey the config.
        if let Some(idx) = site_index {
            match state {
                JobState::Assigned => self.counters[idx].assigned += 1,
                JobState::Finished => self.counters[idx].finished += 1,
                JobState::Failed => self.counters[idx].failed += 1,
                _ => {}
            }
        }
        self.transitions_seen += 1;
        if let Some(windows) = &mut self.windows {
            windows.observe(time_s, state, &self.grid_counters, &self.counters);
        }
        if !self.config.enabled {
            return;
        }
        if !self
            .transitions_seen
            .is_multiple_of(self.config.sample_stride.max(1))
        {
            return;
        }
        let event_id = self.next_event_id;
        self.next_event_id += 1;
        let (assigned, finished) = match site_index {
            Some(idx) => (self.counters[idx].assigned, self.counters[idx].finished),
            None => (0, 0),
        };
        let site = self.site_name(site_index);
        self.events.push(EventRecord {
            event_id,
            time_s,
            job_id: job,
            state,
            site,
            available_cores,
            pending_jobs: site_queued,
            assigned_jobs: assigned,
            finished_jobs: finished,
        });
        // Ring-buffer mode: let the vector overshoot to 2× the bound, then
        // drain the front in one move — amortised O(1) per event while
        // `events()` stays a contiguous slice.
        let cap = self.config.max_events as usize;
        if cap > 0 && self.events.len() >= cap * 2 {
            let drop = self.events.len() - cap;
            self.events.drain(..drop);
            self.events_dropped += drop as u64;
        }
    }

    /// The shared name of site `site_index` (`None`: the empty name of the
    /// main server). A reference-count bump, no allocation.
    pub fn site_name(&self, site_index: Option<usize>) -> Arc<str> {
        let slot = site_index.unwrap_or(self.counters.len());
        Arc::clone(&self.site_names[slot])
    }

    /// Reserves room for `jobs` more outcomes, so a run that knows its job
    /// count grows the outcome table once instead of by doubling.
    pub fn reserve_outcomes(&mut self, jobs: usize) {
        self.outcomes.reserve_exact(jobs);
    }

    /// Records the final outcome of a job.
    pub fn record_outcome(&mut self, outcome: JobOutcome) {
        self.outcomes.push(outcome);
    }

    /// Event-level dataset collected so far. With
    /// [`MonitoringConfig::max_events`] set this is the most recent tail of
    /// the dataset, not the full history — check
    /// [`MonitoringCollector::events_dropped`].
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// Event records discarded by the `max_events` ring (0 when unbounded or
    /// never exceeded).
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// The windowed-metrics aggregator (`None` unless
    /// [`MonitoringConfig::window_s`] enabled it). The final partial window
    /// stays open until [`MonitoringCollector::finish_windows`].
    pub fn windows(&self) -> Option<&WindowedAggregator> {
        self.windows.as_ref()
    }

    /// Seals the still-open metrics window with the final counters. Call
    /// once when the simulation ends.
    pub fn finish_windows(&mut self) {
        if let Some(windows) = &mut self.windows {
            windows.finish(&self.grid_counters, &self.counters);
        }
    }

    /// Per-job outcomes collected so far.
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Consumes the collector, returning events and outcomes.
    pub fn into_parts(self) -> (Vec<EventRecord>, Vec<JobOutcome>) {
        (self.events, self.outcomes)
    }

    /// Cumulative counters of a site.
    pub fn site_counters(&self, site_index: usize) -> SiteCounters {
        self.counters[site_index]
    }

    /// Total number of transitions observed (including unsampled ones).
    pub fn transitions_seen(&self) -> u64 {
        self.transitions_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector() -> MonitoringCollector {
        MonitoringCollector::new(
            vec!["CERN".into(), "BNL".into()],
            MonitoringConfig::default(),
        )
    }

    #[test]
    fn transitions_become_event_records() {
        let mut c = collector();
        c.record_transition(1.0, JobId(1), JobState::Assigned, Some(0), 100, 0);
        c.record_transition(2.0, JobId(1), JobState::Running, Some(0), 99, 0);
        c.record_transition(5.0, JobId(1), JobState::Finished, Some(0), 100, 0);
        assert_eq!(c.events().len(), 3);
        assert_eq!(c.site_counters(0).assigned, 1);
        assert_eq!(c.site_counters(0).finished, 1);
        assert_eq!(c.site_counters(1), SiteCounters::default());
        let last = &c.events()[2];
        assert_eq!(last.finished_jobs, 1);
        assert_eq!(&*last.site, "CERN");
        // Rows of one site share the collector's allocation of its name.
        assert!(Arc::ptr_eq(&last.site, &c.events()[0].site));
        assert_eq!(last.event_id, 2);
    }

    #[test]
    fn disabled_collector_keeps_counters_but_no_events() {
        let mut c = MonitoringCollector::new(vec!["X".into()], MonitoringConfig::disabled());
        c.record_transition(1.0, JobId(1), JobState::Finished, Some(0), 10, 0);
        assert!(c.events().is_empty());
        assert_eq!(c.site_counters(0).finished, 1);
        assert_eq!(c.transitions_seen(), 1);
    }

    #[test]
    fn sampling_stride_thins_events() {
        let mut c = MonitoringCollector::new(
            vec!["X".into()],
            MonitoringConfig {
                sample_stride: 10,
                ..MonitoringConfig::default()
            },
        );
        for i in 0..100 {
            c.record_transition(i as f64, JobId(i), JobState::Running, Some(0), 5, 0);
        }
        assert_eq!(c.events().len(), 10);
        assert_eq!(c.transitions_seen(), 100);
    }

    #[test]
    fn max_events_ring_keeps_the_recent_tail() {
        let mut c = MonitoringCollector::new(
            vec!["X".into()],
            MonitoringConfig {
                max_events: 10,
                ..MonitoringConfig::default()
            },
        );
        for i in 0..95 {
            c.record_transition(i as f64, JobId(i), JobState::Running, Some(0), 5, 0);
        }
        assert!(c.events().len() < 20, "bounded at twice the cap");
        assert_eq!(c.events_dropped() + c.events().len() as u64, 95);
        // The retained rows are the newest, with their original ids.
        assert_eq!(c.events().last().unwrap().event_id, 94);
        let first = c.events().first().unwrap().event_id;
        assert_eq!(first, c.events_dropped());
    }

    #[test]
    fn windowed_metrics_follow_the_config() {
        let mut c = MonitoringCollector::new(vec!["X".into()], MonitoringConfig::windowed(100.0));
        c.record_transition(10.0, JobId(1), JobState::Assigned, Some(0), 5, 0);
        c.record_transition(50.0, JobId(1), JobState::Finished, Some(0), 5, 0);
        c.record_transition(150.0, JobId(2), JobState::Assigned, Some(0), 5, 0);
        c.finish_windows();
        let windows: Vec<_> = c.windows().unwrap().windows().collect();
        assert_eq!(windows.len(), 2);
        assert_eq!((windows[0].transitions, windows[0].finished), (2, 1));
        assert_eq!(windows[0].sites[0].finished, 1, "cumulative at close");
        assert_eq!(windows[1].assigned, 1);
        // Off by default.
        assert!(collector().windows().is_none());
    }

    #[test]
    fn multi_counter_recorders_accumulate() {
        let mut c = collector();
        assert_eq!(c.grid_counters, GridCounters::default());
        c.record_interruption(1);
        c.record_interruption(1);
        c.record_interruption(0);
        c.record_checkpoint_written(0, 1_000);
        c.record_checkpoint_written(0, 2_000);
        c.record_checkpoint_written(1, 500);
        c.record_checkpoint_restore(120.0);
        c.record_repair_completed(1, 4_000);
        c.record_repair_completed(1, 6_000);
        let grid = c.grid_counters;
        assert_eq!(grid.job_interruptions, 3);
        assert_eq!(grid.checkpoints_written, 3);
        assert_eq!(grid.checkpoint_bytes, 3_500);
        assert_eq!(grid.checkpoint_restores, 1);
        assert!((grid.work_saved_s - 120.0).abs() < 1e-12);
        assert_eq!(grid.repairs_completed, 2);
        assert_eq!(grid.repair_bytes, 10_000);
        assert_eq!(c.site_counters(1).interrupted, 2);
        assert_eq!(c.site_counters(0).interrupted, 1);
        assert_eq!(c.site_counters(0).checkpoints, 2);
        assert_eq!(c.site_counters(1).checkpoints, 1);
        assert_eq!(c.site_counters(1).repairs, 2);
        assert_eq!(c.site_counters(0).repairs, 0);
        // Interruptions are not terminal outcomes.
        assert_eq!(c.site_counters(1).failed, 0);
    }

    #[test]
    fn main_server_events_have_empty_site() {
        let mut c = collector();
        c.record_transition(0.5, JobId(9), JobState::Pending, None, 0, 3);
        assert_eq!(&*c.events()[0].site, "");
        assert_eq!(c.events()[0].pending_jobs, 3);
    }
}
