//! The policy registry: name → factory.
//!
//! In the paper, plugins are shared libraries referenced by name from the
//! execution-parameters JSON file and `dlopen`-ed by the simulator. CGSim-RS
//! keeps the name-based indirection — the execution configuration still says
//! `"allocation_policy": "least-loaded"` — but resolves names through this
//! registry instead of the dynamic loader. Downstream users register their
//! own policies with [`Registry::register`] before building the
//! simulation, which is the moral equivalent of dropping a new `.so` next to
//! the simulator.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::advanced::{
    CapacityProportionalPolicy, GreedyCostPolicy, ShortestExpectedWaitPolicy,
    WeightedFairSharePolicy,
};
use crate::builtin::{
    BlacklistFlappingPolicy, CheckpointLocalityPolicy, DataAwarePolicy, FastestAvailablePolicy,
    HistoricalPandaPolicy, LeastLoadedPolicy, RandomPolicy, RepairAwarePolicy, RoundRobinPolicy,
};
use crate::plugin::{AllocationPolicy, DataMovementPolicy};

/// A string-keyed registry of plugin factories, for one plugin interface `P`
/// (`dyn AllocationPolicy` or `dyn DataMovementPolicy`). A factory builds a
/// fresh instance from a seed; plugins that do not use randomness ignore it.
///
/// Factories are reference counted, so cloning a registry clones the
/// name → factory table only: handing one to a `ScenarioEngine` or a worker
/// pool costs a few pointer copies per plugin.
pub struct Registry<P: ?Sized> {
    factories: BTreeMap<String, Arc<dyn Fn(u64) -> Box<P> + Send + Sync>>,
}

/// Allocation policies by name: the `allocation_policy` of an execution
/// configuration.
pub type PolicyRegistry = Registry<dyn AllocationPolicy>;

/// Data-movement policies by name: the `data_movement_policy` of an
/// execution configuration.
pub type DataPolicyRegistry = Registry<dyn DataMovementPolicy>;

/// A plugin interface with built-in implementations, which
/// [`Registry::with_builtins`] (and so [`Registry::default`]) registers.
pub trait Builtins {
    /// Registers every built-in implementation under its name.
    fn register_builtins(registry: &mut Registry<Self>);
}

impl<P: ?Sized> Clone for Registry<P> {
    fn clone(&self) -> Self {
        Registry {
            factories: self.factories.clone(),
        }
    }
}

impl<P: ?Sized + Builtins> Default for Registry<P> {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl<P: ?Sized + Builtins> Registry<P> {
    /// Creates a registry pre-populated with every built-in plugin.
    pub fn with_builtins() -> Self {
        let mut registry = Self::empty();
        P::register_builtins(&mut registry);
        registry
    }
}

impl<P: ?Sized> Registry<P> {
    /// Creates an empty registry (no built-ins).
    pub fn empty() -> Self {
        Registry {
            factories: BTreeMap::new(),
        }
    }

    /// Registers (or replaces) a factory under `name`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(u64) -> Box<P> + Send + Sync + 'static,
    ) {
        self.factories.insert(name.into(), Arc::new(factory));
    }

    /// Instantiates the plugin registered under `name`.
    pub fn create(&self, name: &str, seed: u64) -> Option<Box<P>> {
        self.factories.get(name).map(|f| f(seed))
    }

    /// Names of all registered plugins, sorted.
    pub fn names(&self) -> Vec<String> {
        self.factories.keys().cloned().collect()
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(name)
    }
}

impl Builtins for dyn AllocationPolicy {
    fn register_builtins(registry: &mut PolicyRegistry) {
        registry.register("historical-panda", |_| {
            Box::new(HistoricalPandaPolicy::new())
        });
        registry.register("round-robin", |_| Box::new(RoundRobinPolicy::new()));
        registry.register("random", |seed| Box::new(RandomPolicy::new(seed)));
        registry.register("least-loaded", |_| Box::new(LeastLoadedPolicy::new()));
        registry.register("fastest-available", |_| {
            Box::new(FastestAvailablePolicy::new())
        });
        registry.register("data-aware", |_| Box::new(DataAwarePolicy::new()));
        registry.register("blacklist-flapping", |_| {
            Box::new(BlacklistFlappingPolicy::new())
        });
        registry.register("checkpoint-locality", |_| {
            Box::new(CheckpointLocalityPolicy::new())
        });
        registry.register("repair-aware", |_| Box::new(RepairAwarePolicy::new()));
        registry.register("shortest-expected-wait", |_| {
            Box::new(ShortestExpectedWaitPolicy::new())
        });
        registry.register("weighted-fair-share", |_| {
            Box::new(WeightedFairSharePolicy::new())
        });
        registry.register("greedy-cost", |_| Box::new(GreedyCostPolicy::new()));
        registry.register("capacity-proportional", |seed| {
            Box::new(CapacityProportionalPolicy::new(seed))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::CachePolicy;
    use crate::view::GridView;
    use cgsim_platform::SiteId;
    use cgsim_workload::{JobKind, JobRecord};

    /// The registry contract for one instantiation: exactly `builtins` are
    /// registered, each creating a plugin that reports its own name; `default`
    /// is `with_builtins`; the empty registry holds nothing; and a user plugin
    /// registered next to the built-ins is created by name. Returns that
    /// user plugin.
    fn check_contract<P: ?Sized + Builtins + 'static>(
        builtins: &[&str],
        name_of: fn(&P) -> &str,
        user_name: &str,
        user: fn(u64) -> Box<P>,
    ) -> Box<P> {
        let registry = Registry::<P>::with_builtins();
        for &name in builtins {
            assert!(registry.contains(name), "{name} missing");
            let plugin = registry.create(name, 42).unwrap();
            assert_eq!(name_of(&*plugin), name);
        }
        assert_eq!(registry.names().len(), builtins.len());
        assert!(registry.create("nope", 0).is_none());
        assert_eq!(Registry::<P>::default().names(), registry.names());

        let empty = Registry::<P>::empty();
        assert!(empty.names().is_empty());
        assert!(!empty.contains(builtins[0]));

        let mut registry = registry;
        registry.register(user_name, user);
        assert!(registry.contains(user_name));
        assert_eq!(registry.names().len(), builtins.len() + 1);
        let plugin = registry.create(user_name, 0).unwrap();
        assert_eq!(name_of(&*plugin), user_name);
        plugin
    }

    #[test]
    fn allocation_policy_registry_keeps_the_contract() {
        struct PinToSiteZero;
        impl AllocationPolicy for PinToSiteZero {
            fn name(&self) -> &str {
                "pin-zero"
            }
            fn assign_job(&mut self, _job: &JobRecord, _view: &GridView) -> Option<SiteId> {
                Some(SiteId::new(0))
            }
        }
        let builtins = [
            "historical-panda",
            "round-robin",
            "random",
            "least-loaded",
            "fastest-available",
            "data-aware",
            "blacklist-flapping",
            "checkpoint-locality",
            "repair-aware",
            "shortest-expected-wait",
            "weighted-fair-share",
            "greedy-cost",
            "capacity-proportional",
        ];
        let mut policy = check_contract::<dyn AllocationPolicy>(
            &builtins,
            <dyn AllocationPolicy>::name,
            "pin-zero",
            |_| Box::new(PinToSiteZero),
        );
        let job = JobRecord::new(1, JobKind::SingleCore, 1, 1.0);
        assert_eq!(
            policy.assign_job(&job, &GridView::default()),
            Some(SiteId::new(0))
        );
    }

    #[test]
    fn data_policy_registry_keeps_the_contract() {
        struct AlwaysNoCache;
        impl DataMovementPolicy for AlwaysNoCache {
            fn name(&self) -> &str {
                "user-no-cache"
            }
            fn cache_decision(&mut self, _job: &JobRecord, _site: SiteId) -> CachePolicy {
                CachePolicy::NoCache
            }
        }
        let builtins = [
            "default-data-movement",
            "never-cache",
            "size-threshold-cache",
            "main-server-source",
            "random-source",
        ];
        let mut policy = check_contract::<dyn DataMovementPolicy>(
            &builtins,
            <dyn DataMovementPolicy>::name,
            "user-no-cache",
            |_| Box::new(AlwaysNoCache),
        );
        let job = JobRecord::new(1, JobKind::SingleCore, 1, 1.0);
        assert_eq!(
            policy.cache_decision(&job, SiteId::new(0)),
            CachePolicy::NoCache
        );
    }
}
