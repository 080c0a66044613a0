//! Datasets, replicas and the replica catalog.
//!
//! Each dataset's replica locations are a sorted `Vec<NodeId>`, not a set: a
//! dataset has a handful of replicas (its origin, the sites that staged it,
//! repair copies), so `contains` / insert / remove are a binary search over
//! one small contiguous array instead of a walk over separately allocated
//! B-tree nodes. The `Vec` iterates in the same ascending order the set did,
//! which is what keeps [`ReplicaCatalog::replicas`], `select_source`'s
//! tie-breaks and `evict_node_reporting` deterministic.

use std::collections::HashMap;

use cgsim_des::define_id;
use cgsim_platform::{NodeId, Platform};
use serde::{Deserialize, Serialize};

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
/// Format: `execution.json`'s `source_selection`, read and written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SourceSelection {
    /// Always pull from the main server (the paper's default architecture,
    /// where the main server distributes workloads and their inputs).
    MainServer,
    /// Prefer a replica already at the destination, otherwise the replica
    /// with the lowest route latency to the destination.
    #[default]
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
        }
    }

    /// Removes the replica of `dataset` at `location`; returns whether it existed.
    pub fn remove_replica(&mut self, dataset: DatasetId, location: NodeId) -> bool {
        remove_sorted(&mut self.replicas[dataset.index()], location)
    }

    /// Removes every replica held at `location` (a site outage or disk loss
    /// invalidates all data stored there) and reports which datasets lost
    /// one, in dataset-id order, so a repair planner can inspect the
    /// resulting replication-factor deficits. Datasets whose only replica
    /// lived at `location` keep their catalog entry but become sourceless
    /// until re-replicated.
    pub fn evict_node_reporting(&mut self, location: NodeId) -> Vec<DatasetId> {
        let mut affected = Vec::new();
        for (index, locations) in self.replicas.iter_mut().enumerate() {
            if remove_sorted(locations, location) {
                affected.push(DatasetId::new(index));
            }
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
            SourceSelection::LowestLatency => locations.iter().copied().min_by(|&a, &b| {
                let la = platform.route(a, destination).latency_s;
                let lb = platform.route(b, destination).latency_s;
                la.partial_cmp(&lb).expect("latencies are finite")
            }),
            SourceSelection::HighestBandwidth => locations.iter().copied().max_by(|&a, &b| {
                let ba = platform.route(a, destination).bottleneck_bps;
                let bb = platform.route(b, destination).bottleneck_bps;
                ba.partial_cmp(&bb).expect("bandwidths are finite")
            }),
        }
    }
}

/// Removes `location` from a sorted replica list; returns whether it was there.
fn remove_sorted(locations: &mut Vec<NodeId>, location: NodeId) -> bool {
    let found = locations.binary_search(&location);
    if let Ok(at) = found {
        locations.remove(at);
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
