//! Staging plans: which bytes must move where for a job to run at a site.
//!
//! Plans are pure descriptions — the simulation core executes each
//! [`TransferRequest`] as an activity of the deterministic slab-indexed
//! fluid model (`cgsim_des::fluid`), so planning here stays independent of
//! activity handles and needs no knowledge of slot/generation semantics.

use cgsim_platform::{NodeId, Platform};
use serde::{Deserialize, Serialize};

use crate::catalog::{DatasetId, ReplicaCatalog, SourceSelection};

/// A single transfer needed by a staging plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferRequest {
    /// Dataset being moved.
    pub dataset: DatasetId,
    /// Source endpoint.
    pub from: NodeId,
    /// Destination endpoint.
    pub to: NodeId,
    /// Bytes to move.
    pub bytes: u64,
}

/// The set of transfers required to stage a job's inputs to a site.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StagingPlan {
    /// Transfers that must complete before the job can start.
    pub transfers: Vec<TransferRequest>,
    /// Bytes already present at the destination (replica or cache hits).
    pub local_bytes: u64,
}

impl StagingPlan {
    /// Total number of bytes that must cross the network.
    pub fn remote_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// True when nothing needs to move.
    pub fn is_local(&self) -> bool {
        self.transfers.is_empty()
    }
}

/// Builds the staging plan for a set of input datasets destined for `site`.
///
/// Datasets already replicated at the destination contribute to
/// `local_bytes`; every other dataset generates one transfer from the source
/// chosen by `strategy`.
pub fn plan_staging(
    datasets: &[DatasetId],
    destination: NodeId,
    catalog: &ReplicaCatalog,
    platform: &Platform,
    strategy: SourceSelection,
) -> StagingPlan {
    let mut plan = StagingPlan::default();
    for &ds in datasets {
        let meta = catalog.dataset(ds);
        if catalog.has_replica(ds, destination) {
            plan.local_bytes += meta.bytes;
            continue;
        }
        let source = catalog
            .select_source(ds, destination, platform, strategy)
            .unwrap_or(NodeId::MainServer);
        plan.transfers.push(TransferRequest {
            dataset: ds,
            from: source,
            to: destination,
            bytes: meta.bytes,
        });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_platform::presets::example_platform;

    #[test]
    fn plan_splits_local_and_remote_datasets() {
        let platform = Platform::build(&example_platform()).unwrap();
        let bnl = NodeId::Site(platform.site_by_name("BNL").unwrap());
        let mut catalog = ReplicaCatalog::new();
        let local = catalog.register("local", 1, 500, bnl);
        let remote = catalog.register("remote", 2, 1_000, NodeId::MainServer);

        let plan = plan_staging(
            &[local, remote],
            bnl,
            &catalog,
            &platform,
            SourceSelection::LowestLatency,
        );
        assert_eq!(plan.local_bytes, 500);
        assert_eq!(plan.remote_bytes(), 1_000);
        assert_eq!(plan.transfers.len(), 1);
        assert_eq!(plan.transfers[0].from, NodeId::MainServer);
        assert_eq!(plan.transfers[0].to, bnl);
        assert!(!plan.is_local());
    }

    #[test]
    fn fully_local_plan_has_no_transfers() {
        let platform = Platform::build(&example_platform()).unwrap();
        let cern = NodeId::Site(platform.site_by_name("CERN").unwrap());
        let mut catalog = ReplicaCatalog::new();
        let ds = catalog.register("ds", 1, 100, cern);
        let plan = plan_staging(
            &[ds],
            cern,
            &catalog,
            &platform,
            SourceSelection::LowestLatency,
        );
        assert!(plan.is_local());
        assert_eq!(plan.local_bytes, 100);
        assert_eq!(plan.remote_bytes(), 0);
    }

    #[test]
    fn empty_dataset_list_yields_empty_plan() {
        let platform = Platform::build(&example_platform()).unwrap();
        let cern = NodeId::Site(platform.site_by_name("CERN").unwrap());
        let catalog = ReplicaCatalog::new();
        let plan = plan_staging(&[], cern, &catalog, &platform, SourceSelection::MainServer);
        assert!(plan.is_local());
        assert_eq!(plan.local_bytes, 0);
    }
}
