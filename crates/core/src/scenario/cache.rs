//! The deterministic response cache.
//!
//! Every CGSim run is bit-for-bit reproducible (pinned by the three CI
//! determinism gates), so the full [`SimulationResults`] of a scenario is a
//! pure function of its canonical hash — which makes memoisation *exact*: a
//! cached response is indistinguishable from rerunning the simulation.
//! The cache stores a [`Response`] — `Arc`-shared results plus the reply body
//! `cgsim serve` sends for them, encoded once when the run finished — so a
//! hit costs two pointer clones and no encoding. It evicts
//! least-recently-used entries beyond its capacity and keeps the
//! [`CacheCounters`] surfaced through `cgsim-monitor`.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use cgsim_monitor::CacheCounters;

use crate::results::SimulationResults;

/// The memoised answer to one scenario.
#[derive(Debug, Clone)]
pub(crate) struct Response {
    /// The simulation results.
    pub results: Arc<SimulationResults>,
    /// `SimulationResults::deterministic_json_compact` of `results`: the
    /// `results` member of every serve reply for this scenario.
    pub body: Arc<str>,
}

/// An LRU map from canonical scenario hash to the simulation response.
#[derive(Debug, Default)]
pub(crate) struct ResponseCache {
    capacity: usize,
    /// hash → (recency tick, response).
    entries: HashMap<u64, (u64, Response)>,
    /// recency tick → hash; the smallest tick is the eviction victim. Ticks
    /// are unique (bumped on every touch), so this is a faithful LRU order.
    recency: BTreeMap<u64, u64>,
    tick: u64,
    counters: CacheCounters,
}

impl ResponseCache {
    /// Creates a cache holding at most `capacity` responses (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            capacity: capacity.max(1),
            ..ResponseCache::default()
        }
    }

    /// Looks up a scenario. A present entry counts as a hit and is marked
    /// most-recently-used; an absent one counts nothing (the engine decides
    /// whether the lookup becomes a miss or shares another request's run).
    pub fn lookup(&mut self, hash: u64) -> Option<Response> {
        let tick = self.next_tick();
        let (old_tick, response) = self.entries.get_mut(&hash)?;
        self.recency.remove(old_tick);
        self.recency.insert(tick, hash);
        *old_tick = tick;
        self.counters.hits += 1;
        Some(response.clone())
    }

    /// Records a lookup that will run a fresh simulation.
    pub(crate) fn record_miss(&mut self) {
        self.counters.misses += 1;
    }

    /// Records a request served by another in-flight request's run (a
    /// duplicate within one batch): no simulation of its own, so a hit.
    pub(crate) fn record_shared_hit(&mut self) {
        self.counters.hits += 1;
    }

    /// Inserts (or refreshes) a response, evicting least-recently-used
    /// entries beyond the capacity.
    pub fn insert(&mut self, hash: u64, response: Response) {
        let tick = self.next_tick();
        if let Some((old_tick, _)) = self.entries.remove(&hash) {
            self.recency.remove(&old_tick);
        }
        while self.entries.len() >= self.capacity {
            let (_, victim) = self
                .recency
                .pop_first()
                .expect("recency index matches entries");
            self.entries.remove(&victim);
            self.counters.evictions += 1;
        }
        self.entries.insert(hash, (tick, response));
        self.recency.insert(tick, hash);
    }

    /// Current counters (hits, misses, evictions, resident entries).
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            entries: self.entries.len() as u64,
            ..self.counters
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_monitor::{EventTable, MetricsReport, OutcomeTable};

    fn response(makespan_s: f64) -> Response {
        let results = SimulationResults {
            outcomes: OutcomeTable::default(),
            events: EventTable::default(),
            metrics: MetricsReport::from_outcomes(&OutcomeTable::default()),
            makespan_s,
            engine_events: 0,
            wall_clock_s: 0.0,
            site_panels: Vec::new(),
            grid_counters: cgsim_monitor::GridCounters::default(),
            policy: "test".into(),
            profile: None,
            windows: Vec::new(),
        };
        Response {
            body: results.deterministic_json_compact().into(),
            results: Arc::new(results),
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut cache = ResponseCache::new(4);
        assert!(cache.lookup(1).is_none());
        cache.record_miss();
        cache.insert(1, response(10.0));
        let hit = cache.lookup(1).expect("cached");
        assert_eq!(hit.results.makespan_s, 10.0);
        assert_eq!(*hit.body, *hit.results.deterministic_json_compact());
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.evictions, c.entries), (1, 1, 0, 1));
    }

    #[test]
    fn lru_eviction_drops_the_coldest_entry() {
        let mut cache = ResponseCache::new(2);
        cache.insert(1, response(1.0));
        cache.insert(2, response(2.0));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup(1).is_some());
        cache.insert(3, response(3.0));
        assert!(cache.lookup(2).is_none(), "LRU entry evicted");
        assert!(cache.lookup(1).is_some());
        assert!(cache.lookup(3).is_some());
        assert_eq!(cache.counters().evictions, 1);
        assert_eq!(cache.counters().entries, 2);
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let mut cache = ResponseCache::new(2);
        cache.insert(1, response(1.0));
        cache.insert(1, response(9.0));
        assert_eq!(cache.counters().entries, 1);
        assert_eq!(cache.lookup(1).unwrap().results.makespan_s, 9.0);
        assert_eq!(cache.counters().evictions, 0);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut cache = ResponseCache::new(0);
        cache.insert(1, response(1.0));
        assert_eq!(cache.counters().entries, 1);
        cache.insert(2, response(2.0));
        assert_eq!(cache.counters().entries, 1);
        assert!(cache.lookup(2).is_some());
    }
}
