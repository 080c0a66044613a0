//! The monitoring collector fed by the simulation core.
//!
//! The collector receives every job state transition together with the
//! concurrent state of the concerned site, maintains cumulative per-site
//! counters, and appends one 32-byte [`EventRow`] per transition — the
//! dual-level (job + site) tracking described in §4.3.2. A row names its job
//! by trace index and its site by list index; the collector holds the site
//! names once, and [`MonitoringCollector::into_parts`] hands them and the
//! rows to an [`EventTable`] that joins them back when a row is read. It can
//! be disabled entirely for maximum simulation speed, or thinned with a
//! sampling stride for very large runs; the monitoring-overhead benchmark
//! quantifies the cost.

use std::sync::Arc;

use cgsim_workload::{JobState, Trace};
use serde::{Deserialize, Serialize};

use crate::event::{EventRow, EventTable, OutcomeRow, OutcomeTable, TraceIndex};
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
    /// *oldest* records are discarded and [`MonitoringCollector::events`]
    /// holds the most recent tail. Event ids keep counting from the start of
    /// the run, so the first retained id is the number of records dropped.
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
    /// The run's one allocation of each site name, shared by the event and
    /// outcome tables.
    site_names: Arc<[Arc<str>]>,
    counters: Vec<SiteCounters>,
    /// Grid-level counters (faults, checkpoints, repairs, main-server
    /// anomalies). Single-counter events bump their field in place; the
    /// `record_*` methods below cover events that move several counters.
    pub grid_counters: GridCounters,
    events: Vec<EventRow>,
    /// Rows the ring has dropped: the event id of `events[0]`.
    drained: u64,
    /// (next event id, site) each time a site's assigned count crossed a
    /// multiple of 2³² (see [`EventTable`]).
    crossings: Vec<(u64, u16)>,
    outcomes: Vec<OutcomeRow>,
    transitions_seen: u64,
    windows: Option<WindowedAggregator>,
}

impl MonitoringCollector {
    /// Creates a collector for the given sites.
    ///
    /// # Panics
    /// With more than 65,535 sites, which event rows cannot index.
    pub fn new(site_names: Vec<String>, config: MonitoringConfig) -> Self {
        assert!(
            site_names.len() <= usize::from(EventRow::SERVER),
            "event rows index at most 65,535 sites"
        );
        let counters = vec![SiteCounters::default(); site_names.len()];
        let site_names = site_names
            .iter()
            .map(|name| Arc::from(name.as_str()))
            .collect();
        let windows = (config.window_s > 0.0)
            .then(|| WindowedAggregator::new(config.window_s, config.max_windows));
        MonitoringCollector {
            config,
            site_names,
            counters,
            grid_counters: GridCounters::default(),
            events: Vec::new(),
            drained: 0,
            crossings: Vec::new(),
            outcomes: Vec::new(),
            transitions_seen: 0,
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

    /// Records a job state transition at a site (`job` indexes the trace
    /// handed to [`MonitoringCollector::into_parts`], `site_index` the site
    /// list given at construction; `None` marks main-server events).
    pub fn record_transition(
        &mut self,
        time_s: f64,
        job: impl Into<TraceIndex>,
        state: JobState,
        site_index: Option<usize>,
        available_cores: u32,
        site_queued: u32,
    ) {
        // Counters are always maintained (cheap); event rows obey the config.
        if let Some(idx) = site_index {
            let counters = &mut self.counters[idx];
            match state {
                JobState::Assigned => {
                    counters.assigned += 1;
                    if counters.assigned as u32 == 0 {
                        let next_id = self.drained + self.events.len() as u64;
                        self.crossings.push((next_id, idx as u16));
                    }
                }
                JobState::Finished => counters.finished += 1,
                JobState::Failed => counters.failed += 1,
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
        let (site, assigned, finished) = match site_index {
            Some(idx) => {
                let counters = self.counters[idx];
                // invariant: a job finishes once, and a run refuses traces
                // past `u32::MAX` jobs.
                let finished = u32::try_from(counters.finished)
                    .expect("a site finishes no more jobs than the trace holds");
                // `new` keeps site indices below `SERVER`; the low 32 bits
                // of `assigned`, as `crossings` keeps the rest.
                (idx as u16, counters.assigned as u32, finished)
            }
            None => (EventRow::SERVER, 0, 0),
        };
        self.events.push(EventRow {
            time_s,
            job: job.into().0,
            site,
            state,
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
            self.drained += drop as u64;
        }
    }

    /// Reserves room for `jobs` more outcomes, so a run that knows its job
    /// count grows the outcome table once instead of by doubling.
    pub fn reserve_outcomes(&mut self, jobs: usize) {
        self.outcomes.reserve_exact(jobs);
    }

    /// Records the final outcome of a job (`site` indexes the site list
    /// given at construction, `job` the trace handed to
    /// [`MonitoringCollector::into_parts`]).
    pub fn record_outcome(&mut self, outcome: OutcomeRow) {
        self.outcomes.push(outcome);
    }

    /// Event-level rows collected so far. With
    /// [`MonitoringConfig::max_events`] set this is the most recent tail of
    /// the dataset, not the full history: the first row's id is the number
    /// of rows dropped before it.
    pub fn events(&self) -> &[EventRow] {
        &self.events
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

    /// Per-job outcome rows collected so far, in completion order.
    pub fn outcomes(&self) -> &[OutcomeRow] {
        &self.outcomes
    }

    /// Consumes the collector, returning the events and the outcomes as
    /// tables over `trace`, the records the rows' job indices address.
    pub fn into_parts(self, trace: Arc<Trace>) -> (EventTable, OutcomeTable) {
        let events = EventTable::new(
            self.events,
            self.drained,
            self.crossings,
            Arc::clone(&trace),
            Arc::clone(&self.site_names),
        );
        let outcomes = OutcomeTable::new(self.outcomes, trace, self.site_names);
        (events, outcomes)
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
    use cgsim_workload::{JobId, JobKind, JobRecord};

    fn collector() -> MonitoringCollector {
        MonitoringCollector::new(
            vec!["CERN".into(), "BNL".into()],
            MonitoringConfig::default(),
        )
    }

    /// The collector's event table over a trace of `jobs` records whose
    /// ids are 1000 past their indices.
    fn events(c: MonitoringCollector, jobs: u64) -> EventTable {
        let jobs = (0..jobs)
            .map(|i| JobRecord::new(1_000 + i, JobKind::SingleCore, 1, 1.0))
            .collect();
        let trace = Trace {
            jobs,
            ..Trace::default()
        };
        c.into_parts(Arc::new(trace)).0
    }

    #[test]
    fn transitions_become_event_records() {
        let mut c = collector();
        c.record_transition(1.0, TraceIndex(1), JobState::Assigned, Some(0), 100, 0);
        c.record_transition(2.0, TraceIndex(1), JobState::Running, Some(0), 99, 0);
        c.record_transition(5.0, TraceIndex(1), JobState::Finished, Some(0), 100, 0);
        assert_eq!(c.events().len(), 3);
        assert_eq!(c.site_counters(0).assigned, 1);
        assert_eq!(c.site_counters(0).finished, 1);
        assert_eq!(c.site_counters(1), SiteCounters::default());
        let events = events(c, 2);
        let last = events.last().unwrap();
        assert_eq!(last.finished_jobs, 1);
        assert_eq!((last.site, last.job_id), ("CERN", JobId(1_001)));
        assert_eq!(last.event_id, 2);
    }

    #[test]
    fn an_assigned_count_past_u32_reads_back_whole() {
        // Outages send queued jobs back without spending a retry, so a
        // site's assigned count has no bound. Start it just below 2^32 and
        // record across the boundary, thinned and through a small ring.
        let config = MonitoringConfig {
            sample_stride: 3,
            max_events: 4,
            ..MonitoringConfig::default()
        };
        let mut c = MonitoringCollector::new(vec!["A".into(), "B".into()], config);
        let start = (1u64 << 32) - 25;
        c.counters[1].assigned = start;
        let mut expected = Vec::new();
        for i in 0..40u64 {
            let site = (i % 4 != 3).then_some(1);
            c.record_transition(i as f64, TraceIndex(0), JobState::Assigned, site, 7, 0);
            if (i + 1) % 3 == 0 {
                expected.push(site.map_or(0, |_| c.site_counters(1).assigned));
            }
        }
        let end = c.site_counters(1).assigned;
        assert_eq!(end, start + 30);
        assert_eq!(c.crossings.len(), 1);
        let events = events(c, 1);
        assert!(events.len() < 8, "bounded at twice the cap");
        let got: Vec<(u64, u64)> = events
            .iter()
            .map(|e| (e.event_id, e.assigned_jobs))
            .collect();
        let tail = expected.len() - events.len();
        let want: Vec<(u64, u64)> = (tail as u64..)
            .zip(expected[tail..].iter().copied())
            .collect();
        assert_eq!(got, want);
        // The ring keeps rows from both sides of the crossing.
        let below = |&(_, a): &(u64, u64)| a > 0 && a <= u64::from(u32::MAX);
        assert!(got.iter().any(below) && !got.iter().all(below));
        assert_eq!(got.last().unwrap().1, end);
    }

    #[test]
    fn disabled_collector_keeps_counters_but_no_events() {
        let mut c = MonitoringCollector::new(vec!["X".into()], MonitoringConfig::disabled());
        c.record_transition(1.0, TraceIndex(1), JobState::Finished, Some(0), 10, 0);
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
            c.record_transition(i as f64, TraceIndex(i), JobState::Running, Some(0), 5, 0);
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
            c.record_transition(i as f64, TraceIndex(i), JobState::Running, Some(0), 5, 0);
        }
        let events = events(c, 95);
        assert!(events.len() < 20, "bounded at twice the cap");
        // The retained rows are the newest, with their original ids: the
        // first one's id counts the rows dropped before it.
        let last = events.last().unwrap();
        assert_eq!((last.event_id, last.job_id), (94, JobId(1_094)));
        let first = events.first().unwrap().event_id;
        assert_eq!(first + events.len() as u64, 95);
    }

    #[test]
    fn windowed_metrics_follow_the_config() {
        let mut c = MonitoringCollector::new(vec!["X".into()], MonitoringConfig::windowed(100.0));
        c.record_transition(10.0, TraceIndex(1), JobState::Assigned, Some(0), 5, 0);
        c.record_transition(50.0, TraceIndex(1), JobState::Finished, Some(0), 5, 0);
        c.record_transition(150.0, TraceIndex(2), JobState::Assigned, Some(0), 5, 0);
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
        c.record_transition(0.5, TraceIndex(9), JobState::Pending, None, 0, 3);
        assert_eq!(c.events()[0].site, EventRow::SERVER);
        let events = events(c, 10);
        let e = events.first().unwrap();
        assert_eq!((e.site, e.pending_jobs, e.job_id), ("", 3, JobId(1_009)));
    }
}
