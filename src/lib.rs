//! # CGSim-RS
//!
//! A Rust reproduction of **CGSim: A Simulation Framework for Large Scale
//! Distributed Computing Environment** (SC'25 PMBS workshop): a discrete-event
//! simulator for WLCG-scale computing grids with a pluggable workload
//! allocation layer, a Rucio-like data-management substrate, per-site
//! calibration against historical job records, event-level monitoring
//! datasets and offline dashboards.
//!
//! This facade crate re-exports the whole workspace under one name so that
//! applications (and the examples in `examples/`) can depend on a single
//! crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`des`] | `cgsim-des` | discrete-event engine, fluid max-min sharing, RNG, statistics |
//! | [`platform`] | `cgsim-platform` | sites, hosts, links, routes, JSON platform specs, WLCG presets |
//! | [`workload`] | `cgsim-workload` | PanDA-like job records, synthetic trace generation, trace I/O |
//! | [`data`] | `cgsim-data` | replica catalog, storage elements |
//! | [`policies`] | `cgsim-policies` | the plugin traits, policy registry and built-in policies |
//! | [`faults`] | `cgsim-faults` | deterministic fault-injection plans: outages, degradation, job kills |
//! | [`core`] | `cgsim-core` | the simulation core: main server, site receivers, job lifecycle |
//! | [`monitor`] | `cgsim-monitor` | event-level datasets, metrics, table store, dashboards, ML export |
//! | [`obs`] | `cgsim-obs` | deterministic structured tracing and self-profiling |
//! | [`calibrate`] | `cgsim-calibrate` | per-site random-search calibration and the sensitivity study of §4.2 |
//!
//! The paper's reproduction binaries and the coarse-grained §2 baseline
//! simulator live in `cgsim-bench`, which the façade does not re-export.
//!
//! The event-level ML dataset is [`monitor::mldataset`] (`ml_dataset.csv`
//! under `cgsim simulate --output`); fitting a model on it is the user's job.
//!
//! ## Quickstart
//!
//! ```
//! use cgsim::prelude::*;
//!
//! // 1. Describe the grid (or load the JSON files of the paper's input layer).
//! let platform = cgsim::platform::presets::example_platform();
//! // 2. Generate (or load) a PanDA-like workload trace.
//! let trace = TraceGenerator::new(TraceConfig::with_jobs(100, 7)).generate(&platform);
//! // 3. Pick an allocation policy and run.
//! let results = Simulation::builder()
//!     .platform_spec(&platform).unwrap()
//!     .trace(trace)
//!     .execution(ExecutionConfig::with_policy("least-loaded"))
//!     .run()
//!     .unwrap();
//! assert_eq!(results.outcomes.len(), 100);
//! println!("{}", results.metrics.text_summary());
//! ```

#![warn(missing_docs)]

pub use cgsim_calibrate as calibrate;
pub use cgsim_core as core;
pub use cgsim_data as data;
pub use cgsim_des as des;
pub use cgsim_faults as faults;
pub use cgsim_monitor as monitor;
pub use cgsim_obs as obs;
pub use cgsim_platform as platform;
pub use cgsim_policies as policies;
pub use cgsim_workload as workload;

/// Convenience re-exports of the types most applications need.
pub mod prelude {
    pub use cgsim_calibrate::{Calibrator, SensitivityStudy};
    pub use cgsim_core::{
        serve_loop, CheckpointConfig, CheckpointTarget, ComputeMode, ExecutionConfig, QueueModel,
        RepairConfig, ScenarioBase, ScenarioEngine, ScenarioSpec, ServeRequest, Simulation,
        SimulationResults,
    };
    pub use cgsim_des::SimTime;
    pub use cgsim_faults::{parse_fault_spec, FaultPlan, FaultPlanConfig, FaultTopology};
    pub use cgsim_monitor::{MetricsReport, MonitoringConfig};
    pub use cgsim_obs::{
        parse_filter, ChromeSink, JsonlSink, ProfileReport, TraceRecord, TraceSink, MASK_ALL,
    };
    pub use cgsim_platform::presets::{example_platform, wlcg_platform};
    pub use cgsim_platform::{Platform, PlatformSpec, SiteId, SiteSpec, Tier};
    pub use cgsim_policies::{
        AllocationPolicy, DataMovementPolicy, DataPolicyRegistry, GridInfo, GridView,
        PolicyRegistry,
    };
    pub use cgsim_workload::{JobKind, JobRecord, JobState, Trace, TraceConfig, TraceGenerator};
}
