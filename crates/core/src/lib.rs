//! # cgsim-core — the CGSim simulation core
//!
//! This crate is the paper's primary contribution: the layered simulation
//! core that sits between the JSON input layer and the monitoring output
//! layer (paper §3.1–3.2).
//!
//! The architecture mirrors the paper exactly:
//!
//! * the **main server** hosts the *sender* actor: it receives workload
//!   records from the job manager (the trace), consults the allocation
//!   policy plugin for a target site, and either dispatches the job to that
//!   site's queue or parks it in a **pending list** when no suitable
//!   resource exists; pending jobs are reconsidered whenever a resource
//!   frees up,
//! * every **site** runs a *receiver* actor: a FIFO queue in front of the
//!   site's cores; jobs start when enough cores are free, stage their input
//!   over the shared WAN (the fluid network model of `cgsim-des`), execute,
//!   ship their output back, and release their cores,
//! * every state transition is reported to the monitoring collector, which
//!   produces the event-level dataset (Table 1), per-job outcomes and the
//!   metric report.
//!
//! The public entry point is [`Simulation`]: configure it with a platform, a
//! trace, an allocation policy (by name through the registry, or any custom
//! [`cgsim_policies::AllocationPolicy`] implementation) and an
//! [`ExecutionConfig`], then call [`Simulation::run`].
//!
//! ```
//! use cgsim_core::{ExecutionConfig, Simulation};
//! use cgsim_platform::presets::example_platform;
//! use cgsim_workload::{TraceConfig, TraceGenerator};
//!
//! let platform = example_platform();
//! let trace = TraceGenerator::new(TraceConfig::with_jobs(50, 1)).generate(&platform);
//! let results = Simulation::builder()
//!     .platform_spec(&platform)
//!     .unwrap()
//!     .trace(trace)
//!     .execution(ExecutionConfig::with_policy("least-loaded"))
//!     .run()
//!     .unwrap();
//! assert_eq!(results.outcomes.len(), 50);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod queue_model;
pub mod results;
pub mod scenario;
pub mod simulation;

pub use config::{
    CheckpointConfig, CheckpointTarget, ComputeMode, ExecutionConfig, Knob, KnobField,
    RepairConfig, KNOBS,
};
pub use queue_model::QueueModel;
pub use results::SimulationResults;
pub use scenario::{
    serve_loop, Observe, ScenarioBase, ScenarioEngine, ScenarioOutcome, ScenarioSpec, ServeRequest,
};
pub use simulation::{Simulation, SimulationBuilder, SimulationError};
