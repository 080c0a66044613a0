//! # cgsim-policies — the plugin mechanism and built-in policies
//!
//! One of CGSim's headline features is that custom workload-allocation
//! algorithms can be tested through a plugin system without modifying the
//! simulator's core (paper §3.3). The paper ships an abstract C++ class whose
//! methods (`assignJob`, `getResourceInformation`, …) a user overrides and
//! compiles into a shared library that the simulation loads at run time.
//!
//! CGSim-RS keeps the exact same extension contract but replaces `dlopen`
//! with safe Rust trait objects:
//!
//! * [`plugin::AllocationPolicy`] is the abstract class — implement it to
//!   define a scheduling strategy; the simulation core calls
//!   [`plugin::AllocationPolicy::assign_job`] for every incoming job and the
//!   other hooks at the matching lifecycle points,
//! * [`plugin::DataMovementPolicy`] plays the same role for replica-source
//!   selection and cache admission,
//! * [`registry::Registry`] maps the policy *name written in the JSON
//!   execution configuration* to a factory — [`PolicyRegistry`] for
//!   allocation, [`DataPolicyRegistry`] for data movement — which is how the
//!   paper's "plugin loaded via the input configuration" workflow is
//!   preserved,
//! * [`builtin`] provides the policies used by the paper's experiments and
//!   baselines: the PanDA-historical dispatcher used during calibration,
//!   round-robin, random, least-loaded, fastest-available and data-aware
//!   strategies.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod advanced;
pub mod builtin;
pub mod data_builtin;
pub mod plugin;
pub mod registry;
pub mod view;

pub use advanced::{
    CapacityProportionalPolicy, GreedyCostPolicy, ShortestExpectedWaitPolicy,
    WeightedFairSharePolicy,
};
pub use builtin::{
    BlacklistFlappingPolicy, CheckpointLocalityPolicy, DataAwarePolicy, FastestAvailablePolicy,
    HistoricalPandaPolicy, LeastLoadedPolicy, RandomPolicy, RepairAwarePolicy, RoundRobinPolicy,
};
pub use data_builtin::{
    MainServerSourcePolicy, NeverCachePolicy, RandomSourcePolicy, SizeThresholdCachePolicy,
};
pub use plugin::{AllocationPolicy, CachePolicy, DataMovementPolicy, DefaultDataMovement};
pub use registry::{Builtins, DataPolicyRegistry, PolicyRegistry, Registry};
pub use view::{GridInfo, GridView, SiteInfo, SiteLoad};
