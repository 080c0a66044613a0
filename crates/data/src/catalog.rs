//! Datasets, replicas and the replica catalog.
//!
//! Each dataset's replica locations are a sorted `Vec<NodeId>`, not a set: a
//! dataset has a handful of replicas (its origin, the sites that staged it,
//! repair copies), so `contains` / insert / remove are a binary search over
//! one small contiguous array instead of a walk over separately allocated
//! B-tree nodes. The `Vec` iterates in the same ascending order the set did,
//! which is what keeps [`ReplicaCatalog::replicas`], `select_source`'s
//! tie-breaks and `evict_node_reporting` deterministic.
//!
//! Once a site has been evicted, the catalog also lists, per site, the
//! datasets the site holds (sorted ascending), so a later site outage or
//! disk loss visits only that site's datasets instead of every dataset ever
//! registered. The first site eviction builds the lists with one scan, so a
//! run without faults never pays for them. The main server is not listed:
//! the simulator never evicts it, and its list would take a mid-list
//! removal per discarded checkpoint; evicting it scans.

use std::collections::HashMap;

use cgsim_des::define_id;
use cgsim_platform::{NodeId, Platform};

define_id!(
    /// Identifier of a dataset.
    DatasetId,
    "dataset"
);

/// A logical dataset (a collection of files moved and replicated as a unit).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Dataset identifier.
    pub id: DatasetId,
    /// Dataset name (e.g. `task-42-input`).
    pub name: String,
    /// Number of files.
    pub files: u32,
    /// Total size in bytes.
    pub bytes: u64,
}

/// How a source replica is chosen when a dataset must be staged to a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceSelection {
    /// Always pull from the main server (the paper's default architecture,
    /// where the main server distributes workloads and their inputs).
    MainServer,
    /// Prefer a replica already at the destination, otherwise the replica
    /// with the lowest route latency to the destination.
    LowestLatency,
    /// Prefer the replica with the highest bottleneck bandwidth.
    HighestBandwidth,
}

/// The replica catalog: which endpoints hold a copy of which dataset.
#[derive(Debug, Clone, Default)]
pub struct ReplicaCatalog {
    datasets: Vec<Dataset>,
    names: HashMap<String, DatasetId>,
    /// Replica locations per dataset, sorted ascending without duplicates.
    replicas: Vec<Vec<NodeId>>,
    /// The datasets each site holds a replica of, by site index, sorted
    /// ascending without duplicates (sites past the end hold none); `None`
    /// until the first site eviction.
    site_holdings: Option<Vec<Vec<DatasetId>>>,
}

impl ReplicaCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a dataset (idempotent by name) and returns its id. The
    /// initial replica is placed at `origin`. An owned `name` is kept, not
    /// copied again.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        files: u32,
        bytes: u64,
        origin: NodeId,
    ) -> DatasetId {
        let name = name.into();
        if let Some(&id) = self.names.get(&name) {
            self.add_replica(id, origin);
            return id;
        }
        let id = DatasetId::new(self.datasets.len());
        self.names.insert(name.clone(), id);
        self.datasets.push(Dataset {
            id,
            name,
            files,
            bytes,
        });
        self.replicas.push(vec![origin]);
        self.note_holding(id, origin);
        id
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.datasets.len()
    }

    /// True when no datasets are registered.
    pub fn is_empty(&self) -> bool {
        self.datasets.is_empty()
    }

    /// Looks up a dataset by name.
    pub fn by_name(&self, name: &str) -> Option<DatasetId> {
        self.names.get(name).copied()
    }

    /// Dataset metadata.
    pub fn dataset(&self, id: DatasetId) -> &Dataset {
        &self.datasets[id.index()]
    }

    /// Adds a replica of `dataset` at `location`.
    pub fn add_replica(&mut self, dataset: DatasetId, location: NodeId) {
        let locations = &mut self.replicas[dataset.index()];
        if let Err(at) = locations.binary_search(&location) {
            locations.insert(at, location);
            self.note_holding(dataset, location);
        }
    }

    /// Removes the replica of `dataset` at `location`; returns whether it existed.
    pub fn remove_replica(&mut self, dataset: DatasetId, location: NodeId) -> bool {
        let removed = remove_sorted(&mut self.replicas[dataset.index()], location);
        if let (true, NodeId::Site(site), Some(holdings)) =
            (removed, location, &mut self.site_holdings)
        {
            remove_sorted(&mut holdings[site.index()], dataset);
        }
        removed
    }

    /// Lists `dataset` among the holdings of `location`, if it is a site and
    /// the lists exist.
    fn note_holding(&mut self, dataset: DatasetId, location: NodeId) {
        let (NodeId::Site(site), Some(holdings)) = (location, &mut self.site_holdings) else {
            return;
        };
        if holdings.len() <= site.index() {
            holdings.resize_with(site.index() + 1, Vec::new);
        }
        let held = &mut holdings[site.index()];
        if let Err(at) = held.binary_search(&dataset) {
            held.insert(at, dataset);
        }
    }

    /// Every site's holdings, by one scan over every dataset.
    fn holdings_by_scan(replicas: &[Vec<NodeId>]) -> Vec<Vec<DatasetId>> {
        let mut holdings: Vec<Vec<DatasetId>> = Vec::new();
        for (index, locations) in replicas.iter().enumerate() {
            for &location in locations {
                if let NodeId::Site(site) = location {
                    if holdings.len() <= site.index() {
                        holdings.resize_with(site.index() + 1, Vec::new);
                    }
                    holdings[site.index()].push(DatasetId::new(index));
                }
            }
        }
        holdings
    }

    /// Removes every replica held at `location` (a site outage or disk loss
    /// invalidates all data stored there) and reports which datasets lost
    /// one, in dataset-id order, so a repair planner can inspect the
    /// resulting replication-factor deficits. Datasets whose only replica
    /// lived at `location` keep their catalog entry but become sourceless
    /// until re-replicated. A site's datasets come from its holdings list,
    /// O(datasets held there); the main server's from a scan over every
    /// dataset.
    pub fn evict_node_reporting(&mut self, location: NodeId) -> Vec<DatasetId> {
        let NodeId::Site(site) = location else {
            let mut affected = Vec::new();
            for (index, locations) in self.replicas.iter_mut().enumerate() {
                if remove_sorted(locations, location) {
                    affected.push(DatasetId::new(index));
                }
            }
            return affected;
        };
        let replicas = &self.replicas;
        let holdings = self
            .site_holdings
            .get_or_insert_with(|| Self::holdings_by_scan(replicas));
        #[cfg(debug_assertions)]
        {
            let scan = Self::holdings_by_scan(replicas);
            for site in 0..holdings.len().max(scan.len()) {
                debug_assert_eq!(
                    held(holdings, site),
                    held(&scan, site),
                    "site holdings diverged from the scan at {location}"
                );
            }
        }
        let affected = holdings
            .get_mut(site.index())
            .map(std::mem::take)
            .unwrap_or_default();
        for dataset in &affected {
            remove_sorted(&mut self.replicas[dataset.index()], location);
        }
        affected
    }

    /// Number of replicas a single dataset currently has.
    pub fn replicas_of(&self, dataset: DatasetId) -> usize {
        self.replicas[dataset.index()].len()
    }

    /// True if `location` holds a replica of `dataset`.
    pub fn has_replica(&self, dataset: DatasetId, location: NodeId) -> bool {
        self.replicas[dataset.index()]
            .binary_search(&location)
            .is_ok()
    }

    /// All replica locations of a dataset.
    pub fn replicas(&self, dataset: DatasetId) -> impl Iterator<Item = NodeId> + '_ {
        self.replicas[dataset.index()].iter().copied()
    }

    /// Total number of replicas across all datasets.
    pub fn replica_count(&self) -> usize {
        self.replicas.iter().map(|r| r.len()).sum()
    }

    /// Chooses the source replica for staging `dataset` to `destination`
    /// following the given selection strategy. Returns `None` if the dataset
    /// has no replicas at all.
    pub fn select_source(
        &self,
        dataset: DatasetId,
        destination: NodeId,
        platform: &Platform,
        strategy: SourceSelection,
    ) -> Option<NodeId> {
        let locations = &self.replicas[dataset.index()];
        let first = *locations.first()?;
        if locations.binary_search(&destination).is_ok() {
            return Some(destination);
        }
        match strategy {
            // The main server sorts before every site, so it is `first`
            // whenever it holds a replica; otherwise the lowest site is.
            SourceSelection::MainServer => Some(first),
            // One route read per candidate; std's `min_by` keeps the first
            // minimum and `max_by` the last maximum.
            SourceSelection::LowestLatency => locations
                .iter()
                .map(|&node| (node, platform.route(node, destination).latency_s))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("latencies are finite"))
                .map(|(node, _)| node),
            SourceSelection::HighestBandwidth => locations
                .iter()
                .map(|&node| (node, platform.route(node, destination).bottleneck_bps))
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("bandwidths are finite"))
                .map(|(node, _)| node),
        }
    }
}

/// The holdings list of site index `site` (empty past the end).
#[cfg(debug_assertions)]
fn held(holdings: &[Vec<DatasetId>], site: usize) -> &[DatasetId] {
    holdings.get(site).map_or(&[], Vec::as_slice)
}

/// Removes `item` from a sorted list; returns whether it was there.
fn remove_sorted<T: Ord>(list: &mut Vec<T>, item: T) -> bool {
    let found = list.binary_search(&item);
    if let Ok(at) = found {
        list.remove(at);
    }
    found.is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_platform::presets::example_platform;
    use cgsim_platform::Platform;

    fn platform() -> Platform {
        Platform::build(&example_platform()).unwrap()
    }

    #[test]
    fn register_is_idempotent_by_name() {
        let mut cat = ReplicaCatalog::new();
        let a = cat.register("ds-1", 3, 1_000, NodeId::MainServer);
        let b = cat.register("ds-1", 3, 1_000, NodeId::MainServer);
        assert_eq!(a, b);
        assert_eq!(cat.len(), 1);
        assert!(!cat.is_empty());
        assert_eq!(cat.by_name("ds-1"), Some(a));
        assert_eq!(cat.by_name("nope"), None);
        assert_eq!(cat.dataset(a).files, 3);
    }

    #[test]
    fn replicas_are_tracked() {
        let p = platform();
        let cern = NodeId::Site(p.site_by_name("CERN").unwrap());
        let mut cat = ReplicaCatalog::new();
        let ds = cat.register("ds", 1, 10, NodeId::MainServer);
        assert!(cat.has_replica(ds, NodeId::MainServer));
        assert!(!cat.has_replica(ds, cern));
        cat.add_replica(ds, cern);
        assert!(cat.has_replica(ds, cern));
        assert_eq!(cat.replicas(ds).count(), 2);
        assert_eq!(cat.replica_count(), 2);
        assert!(cat.remove_replica(ds, cern));
        assert!(!cat.remove_replica(ds, cern));
    }

    #[test]
    fn evict_node_reporting_names_the_affected_datasets() {
        let p = platform();
        let cern = NodeId::Site(p.site_by_name("CERN").unwrap());
        let bnl = NodeId::Site(p.site_by_name("BNL").unwrap());
        let mut cat = ReplicaCatalog::new();
        let a = cat.register("a", 1, 10, NodeId::MainServer);
        let b = cat.register("b", 1, 10, NodeId::MainServer);
        let c = cat.register("c", 1, 10, NodeId::MainServer);
        cat.add_replica(a, cern);
        cat.add_replica(c, cern);
        cat.add_replica(b, bnl);
        assert_eq!(cat.replicas_of(a), 2);
        let affected = cat.evict_node_reporting(cern);
        assert_eq!(affected, vec![a, c]);
        assert_eq!(cat.replicas_of(a), 1);
        assert_eq!(cat.replicas_of(c), 1);
        assert_eq!(cat.replicas_of(b), 2);
        assert!(!cat.has_replica(a, cern) && !cat.has_replica(c, cern));
        // Main-server copies survive; re-evicting is a no-op.
        assert!(cat.has_replica(a, NodeId::MainServer));
        assert!(cat.evict_node_reporting(cern).is_empty());
        // The first eviction built the per-site lists; later replica moves
        // keep them, so the next eviction at CERN names exactly `b` and `c`.
        let d = cat.register("d", 1, 10, cern);
        cat.add_replica(c, cern);
        cat.add_replica(b, cern);
        assert!(cat.remove_replica(d, cern));
        assert_eq!(cat.evict_node_reporting(cern), vec![b, c]);
        assert_eq!(cat.evict_node_reporting(bnl), vec![b]);
    }

    #[test]
    fn select_source_prefers_local_replica() {
        let p = platform();
        let cern = NodeId::Site(p.site_by_name("CERN").unwrap());
        let mut cat = ReplicaCatalog::new();
        let ds = cat.register("ds", 1, 10, NodeId::MainServer);
        cat.add_replica(ds, cern);
        let src = cat
            .select_source(ds, cern, &p, SourceSelection::LowestLatency)
            .unwrap();
        assert_eq!(src, cern);
    }

    #[test]
    fn lowest_latency_picks_nearest_remote_replica() {
        let p = platform();
        let cern = NodeId::Site(p.site_by_name("CERN").unwrap());
        let bnl = NodeId::Site(p.site_by_name("BNL").unwrap());
        let desy = NodeId::Site(p.site_by_name("DESY-ZN").unwrap());
        let mut cat = ReplicaCatalog::new();
        // Replicas at CERN (2 ms to server) and BNL (45 ms), destination DESY.
        let ds = cat.register("ds", 1, 10, cern);
        cat.add_replica(ds, bnl);
        let src = cat
            .select_source(ds, desy, &p, SourceSelection::LowestLatency)
            .unwrap();
        // CERN is much closer to DESY (via the main-server star) than BNL.
        assert_eq!(src, cern);
    }

    #[test]
    fn main_server_strategy_falls_back_to_any_replica() {
        let p = platform();
        let cern = NodeId::Site(p.site_by_name("CERN").unwrap());
        let bnl = NodeId::Site(p.site_by_name("BNL").unwrap());
        let mut cat = ReplicaCatalog::new();
        let ds = cat.register("ds", 1, 10, cern);
        let src = cat
            .select_source(ds, bnl, &p, SourceSelection::MainServer)
            .unwrap();
        assert_eq!(src, cern);
        cat.add_replica(ds, NodeId::MainServer);
        let src = cat
            .select_source(ds, bnl, &p, SourceSelection::MainServer)
            .unwrap();
        assert_eq!(src, NodeId::MainServer);
    }

    #[test]
    fn highest_bandwidth_prefers_fat_pipes() {
        let p = platform();
        let cern = NodeId::Site(p.site_by_name("CERN").unwrap()); // 200 Gbps uplink
        let lrz = NodeId::Site(p.site_by_name("LRZ-LMU").unwrap()); // 20 Gbps uplink
        let desy = NodeId::Site(p.site_by_name("DESY-ZN").unwrap());
        let mut cat = ReplicaCatalog::new();
        let ds = cat.register("ds", 1, 10, lrz);
        cat.add_replica(ds, cern);
        let src = cat
            .select_source(ds, desy, &p, SourceSelection::HighestBandwidth)
            .unwrap();
        assert_eq!(src, cern);
    }
}
