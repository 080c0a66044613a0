//! Lockstep equivalence tests: the data layer's optimised structures against
//! naive reference twins.
//!
//! * [`ReplicaCatalog`] keeps each dataset's replicas in a sorted `Vec`; its
//!   twin keeps a `BTreeSet<NodeId>` per dataset and selects sources by the
//!   obvious scans. Random `register` / `add_replica` / `remove_replica` /
//!   `evict_node_reporting` sequences must agree on every
//!   return value, on `replicas()` order, `has_replica`, `replicas_of`,
//!   `replica_count`, and on `select_source` under all three strategies for
//!   every destination of a 12-site WLCG platform.
//! * [`LruCache`] is a slab-backed intrusive recency list with a hash index;
//!   its twin is a `VecDeque` scanned linearly, least recently used at the
//!   front. Random `lookup` / `insert` / `clear` sequences must agree on
//!   every return value (eviction lists included), on `contains` for every
//!   dataset, `len`, `used_bytes` and the hit / miss / eviction statistics.

use std::collections::{BTreeSet, HashMap, VecDeque};

use cgsim_data::{CacheStats, DatasetId, LruCache, ReplicaCatalog, SourceSelection};
use cgsim_platform::presets::wlcg_platform;
use cgsim_platform::{NodeId, Platform, SiteId};
use proptest::prelude::*;

const SITES: usize = 12;
const STRATEGIES: [SourceSelection; 3] = [
    SourceSelection::MainServer,
    SourceSelection::LowestLatency,
    SourceSelection::HighestBandwidth,
];

/// Node `0` is the main server, node `i > 0` is site `i - 1`.
fn node(pick: usize) -> NodeId {
    match pick % (SITES + 1) {
        0 => NodeId::MainServer,
        site => NodeId::Site(SiteId::new(site - 1)),
    }
}

#[derive(Default)]
struct ReferenceCatalog {
    names: HashMap<String, usize>,
    replicas: Vec<BTreeSet<NodeId>>,
}

impl ReferenceCatalog {
    fn register(&mut self, name: &str, origin: NodeId) -> usize {
        let next = self.replicas.len();
        let id = *self.names.entry(name.to_string()).or_insert(next);
        if id == next {
            self.replicas.push(BTreeSet::new());
        }
        self.replicas[id].insert(origin);
        id
    }

    fn evict_node_reporting(&mut self, location: NodeId) -> Vec<DatasetId> {
        let hit = |(index, set): (usize, &mut BTreeSet<NodeId>)| {
            set.remove(&location).then(|| DatasetId::new(index))
        };
        self.replicas
            .iter_mut()
            .enumerate()
            .filter_map(hit)
            .collect()
    }

    fn select_source(
        &self,
        dataset: usize,
        destination: NodeId,
        platform: &Platform,
        strategy: SourceSelection,
    ) -> Option<NodeId> {
        let set = &self.replicas[dataset];
        if set.is_empty() {
            return None;
        }
        if set.contains(&destination) {
            return Some(destination);
        }
        let latency = |n: &NodeId| platform.route(*n, destination).latency_s;
        let bandwidth = |n: &NodeId| platform.route(*n, destination).bottleneck_bps;
        match strategy {
            SourceSelection::MainServer if set.contains(&NodeId::MainServer) => {
                Some(NodeId::MainServer)
            }
            SourceSelection::MainServer => set.iter().next().copied(),
            SourceSelection::LowestLatency => set
                .iter()
                .min_by(|a, b| latency(a).partial_cmp(&latency(b)).unwrap())
                .copied(),
            SourceSelection::HighestBandwidth => set
                .iter()
                .max_by(|a, b| bandwidth(a).partial_cmp(&bandwidth(b)).unwrap())
                .copied(),
        }
    }
}

fn check_catalog(catalog: &ReplicaCatalog, reference: &ReferenceCatalog, platform: &Platform) {
    assert_eq!(catalog.len(), reference.replicas.len());
    let total: usize = reference.replicas.iter().map(BTreeSet::len).sum();
    assert_eq!(catalog.replica_count(), total);
    for (index, set) in reference.replicas.iter().enumerate() {
        let id = DatasetId::new(index);
        let listed: Vec<NodeId> = catalog.replicas(id).collect();
        assert_eq!(listed, set.iter().copied().collect::<Vec<_>>());
        assert_eq!(catalog.replicas_of(id), set.len());
        for pick in 0..=SITES {
            let at = node(pick);
            assert_eq!(catalog.has_replica(id, at), set.contains(&at));
            for strategy in STRATEGIES {
                assert_eq!(
                    catalog.select_source(id, at, platform, strategy),
                    reference.select_source(index, at, platform, strategy),
                    "dataset {index} to {at} by {strategy:?}"
                );
            }
        }
    }
}

#[derive(Default)]
struct ReferenceLru {
    capacity: u64,
    /// Least recently used at the front.
    entries: VecDeque<(DatasetId, u64)>,
    stats: CacheStats,
}

impl ReferenceLru {
    fn position(&self, dataset: DatasetId) -> Option<usize> {
        self.entries.iter().position(|&(d, _)| d == dataset)
    }

    fn used_bytes(&self) -> u64 {
        self.entries.iter().map(|&(_, bytes)| bytes).sum()
    }

    fn lookup(&mut self, dataset: DatasetId) -> bool {
        match self.position(dataset) {
            Some(at) => {
                let entry = self.entries.remove(at).unwrap();
                self.entries.push_back(entry);
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    fn insert(&mut self, dataset: DatasetId, bytes: u64) -> Vec<DatasetId> {
        let mut evicted = Vec::new();
        if bytes > self.capacity || self.position(dataset).is_some() {
            return evicted;
        }
        while self.used_bytes() + bytes > self.capacity {
            let (victim, _) = self.entries.pop_front().unwrap();
            self.stats.evictions += 1;
            evicted.push(victim);
        }
        self.entries.push_back((dataset, bytes));
        evicted
    }
}

proptest! {
    #[test]
    fn replica_catalog_matches_a_btree_set_per_dataset(
        ops in prop::collection::vec((0u8..16, 0usize..8, 0usize..64), 1..120),
    ) {
        let platform = Platform::build(&wlcg_platform(SITES, 42)).unwrap();
        let names: Vec<String> = (0..8).map(|i| format!("ds-{i}")).collect();
        let mut catalog = ReplicaCatalog::new();
        let mut reference = ReferenceCatalog::default();
        for &(op, dataset, at) in &ops {
            let location = node(at);
            let known = reference.replicas.len();
            match op {
                // Registration takes `&String`, as the benchmark passes it.
                0..=3 => {
                    let id = catalog.register(&names[dataset], 1, 10, location);
                    prop_assert_eq!(id.index(), reference.register(&names[dataset], location));
                    prop_assert_eq!(catalog.by_name(&names[dataset]), Some(id));
                }
                4..=8 if known > 0 => {
                    let index = dataset % known;
                    catalog.add_replica(DatasetId::new(index), location);
                    reference.replicas[index].insert(location);
                }
                9..=12 if known > 0 => {
                    let index = dataset % known;
                    let removed = catalog.remove_replica(DatasetId::new(index), location);
                    prop_assert_eq!(removed, reference.replicas[index].remove(&location));
                }
                13..=15 => {
                    let affected = catalog.evict_node_reporting(location);
                    prop_assert_eq!(affected, reference.evict_node_reporting(location));
                }
                _ => {}
            }
            check_catalog(&catalog, &reference, &platform);
        }
    }

    #[test]
    fn lru_cache_matches_a_vecdeque_reference(
        capacity in 1u64..10_000,
        ops in prop::collection::vec((0u8..20, 0usize..40, 1u64..5_000), 0..300),
    ) {
        let mut cache = LruCache::new(capacity);
        let mut reference = ReferenceLru { capacity, ..ReferenceLru::default() };
        for &(op, dataset, bytes) in &ops {
            let dataset = DatasetId::new(dataset);
            match op {
                0..=8 => prop_assert_eq!(cache.insert(dataset, bytes), reference.insert(dataset, bytes)),
                9..=18 => prop_assert_eq!(cache.lookup(dataset), reference.lookup(dataset)),
                _ => {
                    prop_assert_eq!(cache.clear(), reference.entries.len());
                    reference.entries.clear();
                }
            }
            prop_assert_eq!(cache.len(), reference.entries.len());
            prop_assert_eq!(cache.is_empty(), reference.entries.is_empty());
            prop_assert_eq!(cache.used_bytes(), reference.used_bytes());
            prop_assert_eq!(cache.stats(), reference.stats);
            for other in 0..40 {
                let other = DatasetId::new(other);
                prop_assert_eq!(cache.contains(other), reference.position(other).is_some());
            }
        }
    }
}
