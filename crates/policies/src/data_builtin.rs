//! Built-in data-movement policies and their registry.
//!
//! The paper's plugin mechanism covers "custom workflow scheduling and data
//! movement policies" (§1). The allocation side lives in [`crate::builtin`];
//! this module provides the data-movement side: where a job's input is read
//! from and whether the staged dataset is cached at the execution site
//! afterwards (the XRootD-style caching DCSim models and CGSim-RS reproduces
//! in `cgsim-data`).
//!
//! Like allocation policies, data-movement policies are selected by name from
//! the execution configuration through [`DataPolicyRegistry`], so a policy
//! study can swap strategies without touching the simulation core.

use cgsim_des::rng::Rng;
use cgsim_platform::{NodeId, SiteId};
use cgsim_workload::JobRecord;
use std::collections::BTreeMap;

use crate::plugin::{CachePolicy, DataMovementPolicy, DefaultDataMovement};

/// Never cache staged datasets at the execution site: every job of a task
/// re-transfers its input (the "no XRootD cache" ablation baseline).
#[derive(Debug, Clone, Default)]
pub struct NeverCachePolicy;

impl NeverCachePolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl DataMovementPolicy for NeverCachePolicy {
    fn name(&self) -> &str {
        "never-cache"
    }

    fn cache_decision(&mut self, _job: &JobRecord, _destination: SiteId) -> CachePolicy {
        CachePolicy::NoCache
    }
}

/// Cache staged datasets only when the job's input is below a size threshold,
/// so a few huge datasets do not claim site storage.
#[derive(Debug, Clone)]
pub struct SizeThresholdCachePolicy {
    /// Inputs larger than this many bytes are not cached.
    pub max_cached_bytes: u64,
}

impl SizeThresholdCachePolicy {
    /// Creates the policy with the given admission threshold.
    pub fn new(max_cached_bytes: u64) -> Self {
        SizeThresholdCachePolicy { max_cached_bytes }
    }
}

impl Default for SizeThresholdCachePolicy {
    fn default() -> Self {
        // 10 GB: admits typical analysis inputs, rejects bulk production inputs.
        SizeThresholdCachePolicy::new(10_000_000_000)
    }
}

impl DataMovementPolicy for SizeThresholdCachePolicy {
    fn name(&self) -> &str {
        "size-threshold-cache"
    }

    fn cache_decision(&mut self, job: &JobRecord, _destination: SiteId) -> CachePolicy {
        if job.input_bytes <= self.max_cached_bytes {
            CachePolicy::CacheAtSite
        } else {
            CachePolicy::NoCache
        }
    }
}

/// Always stage from the main server (the star-topology default of the
/// paper's architecture), ignoring closer replicas.
#[derive(Debug, Clone, Default)]
pub struct MainServerSourcePolicy;

impl MainServerSourcePolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl DataMovementPolicy for MainServerSourcePolicy {
    fn name(&self) -> &str {
        "main-server-source"
    }

    fn select_source(
        &mut self,
        _job: &JobRecord,
        _destination: SiteId,
        candidates: &[NodeId],
    ) -> Option<NodeId> {
        if candidates.contains(&NodeId::MainServer) {
            Some(NodeId::MainServer)
        } else {
            None
        }
    }
}

/// Picks a uniformly random replica source (seeded, hence reproducible) —
/// a load-spreading strategy for heavily replicated datasets.
#[derive(Debug)]
pub struct RandomSourcePolicy {
    rng: Rng,
}

impl RandomSourcePolicy {
    /// Creates the policy with the given seed.
    pub fn new(seed: u64) -> Self {
        RandomSourcePolicy {
            rng: Rng::new(seed),
        }
    }
}

impl DataMovementPolicy for RandomSourcePolicy {
    fn name(&self) -> &str {
        "random-source"
    }

    fn select_source(
        &mut self,
        _job: &JobRecord,
        destination: SiteId,
        candidates: &[NodeId],
    ) -> Option<NodeId> {
        if candidates.is_empty() {
            return None;
        }
        // A replica at the destination is always the right answer.
        if candidates.contains(&NodeId::Site(destination)) {
            return Some(NodeId::Site(destination));
        }
        Some(candidates[self.rng.index(candidates.len())])
    }
}

/// Factory signature for data-movement policies (mirrors the allocation-policy
/// registry: policies that do not use randomness ignore the seed).
pub type DataPolicyFactory = Box<dyn Fn(u64) -> Box<dyn DataMovementPolicy> + Send + Sync>;

/// A string-keyed registry of data-movement policy factories.
pub struct DataPolicyRegistry {
    factories: BTreeMap<String, DataPolicyFactory>,
}

impl Default for DataPolicyRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl DataPolicyRegistry {
    /// Creates an empty registry (no built-ins).
    pub fn empty() -> Self {
        DataPolicyRegistry {
            factories: BTreeMap::new(),
        }
    }

    /// Creates a registry pre-populated with every built-in data policy.
    pub fn with_builtins() -> Self {
        let mut registry = Self::empty();
        registry.register("default-data-movement", |_| Box::new(DefaultDataMovement));
        registry.register("never-cache", |_| Box::new(NeverCachePolicy::new()));
        registry.register("size-threshold-cache", |_| {
            Box::new(SizeThresholdCachePolicy::default())
        });
        registry.register("main-server-source", |_| {
            Box::new(MainServerSourcePolicy::new())
        });
        registry.register("random-source", |seed| {
            Box::new(RandomSourcePolicy::new(seed))
        });
        registry
    }

    /// Registers (or replaces) a data-policy factory under `name`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(u64) -> Box<dyn DataMovementPolicy> + Send + Sync + 'static,
    ) {
        self.factories.insert(name.into(), Box::new(factory));
    }

    /// Instantiates the policy registered under `name`.
    pub fn create(&self, name: &str, seed: u64) -> Option<Box<dyn DataMovementPolicy>> {
        self.factories.get(name).map(|f| f(seed))
    }

    /// Names of all registered policies, sorted.
    pub fn names(&self) -> Vec<String> {
        self.factories.keys().cloned().collect()
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_workload::{JobKind, JobRecord};

    fn job(input_bytes: u64) -> JobRecord {
        let mut j = JobRecord::new(1, JobKind::SingleCore, 1, 1_000.0);
        j.input_bytes = input_bytes;
        j
    }

    #[test]
    fn never_cache_refuses_everything() {
        let mut p = NeverCachePolicy::new();
        assert_eq!(
            p.cache_decision(&job(1), SiteId::new(0)),
            CachePolicy::NoCache
        );
        assert_eq!(p.name(), "never-cache");
        // Source selection falls back to the core's default.
        assert_eq!(p.select_source(&job(1), SiteId::new(0), &[]), None);
    }

    #[test]
    fn size_threshold_admits_small_inputs_only() {
        let mut p = SizeThresholdCachePolicy::new(1_000);
        assert_eq!(
            p.cache_decision(&job(999), SiteId::new(0)),
            CachePolicy::CacheAtSite
        );
        assert_eq!(
            p.cache_decision(&job(1_000), SiteId::new(0)),
            CachePolicy::CacheAtSite
        );
        assert_eq!(
            p.cache_decision(&job(1_001), SiteId::new(0)),
            CachePolicy::NoCache
        );
    }

    #[test]
    fn main_server_source_only_picks_the_main_server() {
        let mut p = MainServerSourcePolicy::new();
        let with_server = [NodeId::Site(SiteId::new(1)), NodeId::MainServer];
        assert_eq!(
            p.select_source(&job(1), SiteId::new(0), &with_server),
            Some(NodeId::MainServer)
        );
        let without = [NodeId::Site(SiteId::new(1))];
        assert_eq!(p.select_source(&job(1), SiteId::new(0), &without), None);
    }

    #[test]
    fn random_source_is_seeded_and_prefers_local_replicas() {
        let candidates = [
            NodeId::Site(SiteId::new(1)),
            NodeId::Site(SiteId::new(2)),
            NodeId::MainServer,
        ];
        let mut a = RandomSourcePolicy::new(3);
        let mut b = RandomSourcePolicy::new(3);
        let seq_a: Vec<_> = (0..20)
            .map(|_| a.select_source(&job(1), SiteId::new(0), &candidates))
            .collect();
        let seq_b: Vec<_> = (0..20)
            .map(|_| b.select_source(&job(1), SiteId::new(0), &candidates))
            .collect();
        assert_eq!(seq_a, seq_b);
        // A destination replica always wins.
        let mut p = RandomSourcePolicy::new(1);
        let local = [NodeId::Site(SiteId::new(0)), NodeId::MainServer];
        assert_eq!(
            p.select_source(&job(1), SiteId::new(0), &local),
            Some(NodeId::Site(SiteId::new(0)))
        );
        assert_eq!(p.select_source(&job(1), SiteId::new(0), &[]), None);
    }

    #[test]
    fn registry_has_all_builtins_and_accepts_user_policies() {
        let registry = DataPolicyRegistry::with_builtins();
        for name in [
            "default-data-movement",
            "never-cache",
            "size-threshold-cache",
            "main-server-source",
            "random-source",
        ] {
            assert!(registry.contains(name), "{name} missing");
            let policy = registry.create(name, 7).unwrap();
            assert_eq!(policy.name(), name);
        }
        assert_eq!(registry.names().len(), 5);
        assert!(registry.create("nope", 0).is_none());

        struct AlwaysNoCache;
        impl DataMovementPolicy for AlwaysNoCache {
            fn name(&self) -> &str {
                "user-no-cache"
            }
            fn cache_decision(&mut self, _job: &JobRecord, _site: SiteId) -> CachePolicy {
                CachePolicy::NoCache
            }
        }
        let mut registry = DataPolicyRegistry::with_builtins();
        registry.register("user-no-cache", |_| Box::new(AlwaysNoCache));
        assert!(registry.contains("user-no-cache"));
        assert!(DataPolicyRegistry::empty().names().is_empty());
        assert!(DataPolicyRegistry::default().contains("never-cache"));
    }
}
