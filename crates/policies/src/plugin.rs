//! The plugin traits (the paper's abstract plugin class).
//!
//! The paper's Figure 2 shows the abstract class plugin authors inherit from;
//! its key methods are `assignJob` (the allocation decision) and
//! `getResourceInformation` (access to the grid topology). CGSim-RS exposes
//! the same hooks as the [`AllocationPolicy`] trait, with an extra completion
//! callback so stateful policies (e.g. load estimators) can update themselves.

use cgsim_platform::{NodeId, SiteId};
use cgsim_workload::JobRecord;

use crate::view::{GridInfo, GridView};

/// Decision returned by a data-movement policy for one staging operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Cache the dataset at the destination site after staging.
    CacheAtSite,
    /// Do not cache; the next job needing the dataset transfers it again.
    NoCache,
}

/// The workload-allocation plugin interface.
///
/// Implementations must be deterministic given the same sequence of calls
/// (any randomness should come from an internally seeded generator), so that
/// simulations remain reproducible.
pub trait AllocationPolicy: Send {
    /// Policy name (matches the name used in the execution configuration).
    fn name(&self) -> &str;

    /// Called once before the first job with the static grid description
    /// (the paper's `getResourceInformation` hook).
    fn get_resource_information(&mut self, _info: &GridInfo) {}

    /// The main allocation decision (the paper's `assignJob`): pick the site
    /// the job should run at, or `None` to leave it in the pending list until
    /// resources free up.
    fn assign_job(&mut self, job: &JobRecord, view: &GridView) -> Option<SiteId>;

    /// Called when a job reaches a terminal state.
    fn on_job_completed(&mut self, _job: &JobRecord, _site: SiteId, _view: &GridView) {}

    /// Called when an infrastructure fault kills a job mid-flight at `site`
    /// (a site outage, partial node loss, or a targeted job kill). The job
    /// will be resubmitted through `assign_job` if it has fault retries
    /// left, so stateful policies can use this hook to blacklist flapping
    /// sites before the resubmission arrives.
    fn on_job_interrupted(&mut self, _job: &JobRecord, _site: SiteId, _view: &GridView) {}

    /// Called just before a fault-interrupted job that holds a *durable
    /// checkpoint* is resubmitted through `assign_job`. `checkpoint_site` is
    /// the site whose storage holds the newest surviving checkpoint
    /// (`None` when it lives at the main server), so stateful policies can
    /// steer the resubmission towards the data and turn the restore into a
    /// site-local read instead of a WAN re-stage. Jobs without a surviving
    /// checkpoint are resubmitted without this call (they rerun from
    /// scratch).
    fn on_job_restored(
        &mut self,
        _job: &JobRecord,
        _checkpoint_site: Option<SiteId>,
        _view: &GridView,
    ) {
    }
}

/// The data-movement plugin interface: choose where job input is read from
/// and whether it is cached at the execution site afterwards.
pub trait DataMovementPolicy: Send {
    /// Policy name.
    fn name(&self) -> &str;

    /// Chooses the source endpoint for staging `job`'s input to `destination`
    /// among `candidates` (all endpoints currently holding a replica).
    /// Returning `None` lets the core stage from the lowest-latency replica.
    fn select_source(
        &mut self,
        _job: &JobRecord,
        _destination: SiteId,
        _candidates: &[NodeId],
    ) -> Option<NodeId> {
        None
    }

    /// Whether the staged dataset should be cached at the execution site.
    fn cache_decision(&mut self, _job: &JobRecord, _destination: SiteId) -> CachePolicy {
        CachePolicy::CacheAtSite
    }
}

/// Default data-movement behaviour: declines every source choice, so the
/// core stages from the lowest-latency replica, and caches every staged input.
#[derive(Debug, Clone, Default)]
pub struct DefaultDataMovement;

impl DataMovementPolicy for DefaultDataMovement {
    fn name(&self) -> &str {
        "default-data-movement"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_workload::{JobKind, JobRecord};

    /// A minimal user-written policy, as it would appear in a plugin crate.
    struct AlwaysFirstSite {
        configured_sites: usize,
    }

    impl AllocationPolicy for AlwaysFirstSite {
        fn name(&self) -> &str {
            "always-first"
        }
        fn get_resource_information(&mut self, info: &GridInfo) {
            self.configured_sites = info.site_count();
        }
        fn assign_job(&mut self, _job: &JobRecord, view: &GridView) -> Option<SiteId> {
            view.sites.first().map(|s| s.site)
        }
    }

    #[test]
    fn custom_policy_implements_the_contract() {
        let mut policy = AlwaysFirstSite {
            configured_sites: 0,
        };
        policy.get_resource_information(&GridInfo::default());
        assert_eq!(policy.configured_sites, 0);
        let job = JobRecord::new(1, JobKind::SingleCore, 1, 100.0);
        assert_eq!(policy.assign_job(&job, &GridView::default()), None);
        assert_eq!(policy.name(), "always-first");
    }

    #[test]
    fn default_data_movement_caches_and_defers_source_choice() {
        let mut dm = DefaultDataMovement;
        let job = JobRecord::new(1, JobKind::SingleCore, 1, 100.0);
        assert_eq!(
            dm.cache_decision(&job, SiteId::new(0)),
            CachePolicy::CacheAtSite
        );
        assert_eq!(dm.select_source(&job, SiteId::new(0), &[]), None);
        assert_eq!(dm.name(), "default-data-movement");
    }
}
