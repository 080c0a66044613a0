//! Read-only views of the grid exposed to policies.
//!
//! The paper's `getResourceInformation` hook gives plugin authors access to
//! the grid topology defined in SimGrid; `assignJob` receives the job
//! structure plus whatever state the plugin keeps. CGSim-RS formalises the
//! same information as two snapshot types: the static [`GridInfo`] delivered
//! once at simulation start, and the dynamic [`GridView`] delivered with
//! every dispatch decision.

use cgsim_platform::{Platform, SiteId, Tier};

/// Static description of one site (available at simulation start).
#[derive(Debug, Clone, PartialEq)]
pub struct SiteInfo {
    /// Site identifier.
    pub id: SiteId,
    /// Site name.
    pub name: String,
    /// WLCG tier.
    pub tier: Tier,
    /// Total cores.
    pub total_cores: u64,
    /// Effective per-core speed (HS23-like units, calibration included).
    pub speed_per_core: f64,
    /// Storage capacity in TB.
    pub storage_tb: f64,
}

/// Static description of the whole grid, handed to
/// `AllocationPolicy::get_resource_information` once before the first job.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GridInfo {
    /// One entry per site, indexed by `SiteId`.
    pub sites: Vec<SiteInfo>,
}

impl GridInfo {
    /// Builds the static grid description from a platform.
    pub fn from_platform(platform: &Platform) -> Self {
        GridInfo {
            sites: platform
                .sites()
                .iter()
                .map(|s| SiteInfo {
                    id: s.id,
                    name: s.name.clone(),
                    tier: s.tier,
                    total_cores: s.total_cores,
                    speed_per_core: platform.effective_speed(s.id),
                    storage_tb: s.storage_tb,
                })
                .collect(),
        }
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Looks up a site by name.
    pub fn site_by_name(&self, name: &str) -> Option<SiteId> {
        self.sites.iter().find(|s| s.name == name).map(|s| s.id)
    }
}

/// Dynamic load of one site at dispatch time.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteLoad {
    /// Site identifier.
    pub site: SiteId,
    /// Cores not currently allocated to running jobs.
    pub available_cores: u64,
    /// Jobs dispatched to the site and waiting for cores.
    pub queued_jobs: u64,
    /// Jobs currently running (or staging) at the site.
    pub running_jobs: u64,
    /// Jobs finished at the site so far.
    pub finished_jobs: u64,
    /// True when the input dataset of the job being placed already has a
    /// replica (or cache entry) at this site.
    pub has_input_replica: bool,
    /// True when the site is currently up (fault injection can take sites
    /// down mid-run; jobs dispatched to a down site are parked instead).
    pub up: bool,
    /// Re-replication repair transfers currently streaming *into* the site
    /// (0 unless the repair planner is enabled). Repair-aware policies avoid
    /// sites with deep repair queues, whose storage and LAN are busy
    /// reconstructing replicas.
    pub active_repairs: u64,
}

/// Dynamic snapshot of the grid at dispatch time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GridView {
    /// Virtual time of the snapshot, in seconds.
    pub now_s: f64,
    /// Per-site load, indexed by `SiteId`.
    pub sites: Vec<SiteLoad>,
    /// Jobs currently parked in the main server's pending list.
    pub pending_jobs: u64,
}

impl GridView {
    /// Load of a specific site.
    pub fn load(&self, site: SiteId) -> &SiteLoad {
        &self.sites[site.index()]
    }

    /// Sites that currently have at least `cores` free cores.
    pub fn sites_with_free_cores(&self, cores: u64) -> impl Iterator<Item = &SiteLoad> {
        self.sites
            .iter()
            .filter(move |s| s.available_cores >= cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_platform::presets::example_platform;

    #[test]
    fn grid_info_mirrors_platform() {
        let platform = Platform::build(&example_platform()).unwrap();
        let info = GridInfo::from_platform(&platform);
        assert_eq!(info.site_count(), 4);
        let cern = info.site_by_name("CERN").unwrap();
        assert_eq!(info.sites[cern.index()].total_cores, 2_000);
        assert!(info.sites[cern.index()].speed_per_core > 0.0);
        assert!(info.site_by_name("none").is_none());
    }

    #[test]
    fn grid_view_queries() {
        let view = GridView {
            now_s: 10.0,
            sites: vec![
                SiteLoad {
                    site: SiteId::new(0),
                    available_cores: 100,
                    queued_jobs: 2,
                    running_jobs: 5,
                    finished_jobs: 1,
                    has_input_replica: false,
                    up: true,
                    active_repairs: 0,
                },
                SiteLoad {
                    site: SiteId::new(1),
                    available_cores: 4,
                    queued_jobs: 0,
                    running_jobs: 0,
                    finished_jobs: 0,
                    has_input_replica: true,
                    up: false,
                    active_repairs: 2,
                },
            ],
            pending_jobs: 3,
        };
        assert_eq!(view.sites_with_free_cores(8).count(), 1);
        assert_eq!(view.load(SiteId::new(1)).available_cores, 4);
    }
}
