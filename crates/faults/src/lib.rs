//! # cgsim-faults — deterministic fault injection
//!
//! The simulator models a perfect grid unless told otherwise; this crate is
//! the "otherwise". It turns a seeded configuration into a deterministic,
//! time-sorted schedule of infrastructure faults — whole-site outages and
//! recoveries (random, fixed maintenance windows, or correlated multi-site
//! incidents), partial node loss, link bandwidth degradation, and single-job
//! kills — that the simulation core replays as ordinary discrete events.
//!
//! The key property is reproducibility: a [`FaultPlan`] is a pure function of
//! `(FaultPlanConfig, FaultTopology, seed)`, generated *before* the run from
//! per-process streams of the deterministic `cgsim_des` RNG. Attaching an empty
//! plan is bit-for-bit identical to attaching no plan, and the same seed +
//! spec always produces the same schedule — which is what lets the CI
//! determinism gate cover faulted scenarios exactly like fair-weather ones.
//!
//! [`spec::parse_fault_spec`] parses the compact `--faults` command-line
//! grammar (`outage:site=2,mttf=4h,mttr=30m;kill:rate=1`) into a
//! [`FaultPlanConfig`]; see the module docs for the full grammar.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod plan;
pub mod spec;

pub use plan::{
    DegradationSpec, DiskLossSpec, FaultAction, FaultEvent, FaultPlan, FaultPlanConfig,
    FaultTopology, IncidentSpec, LinkSelector, MaintenanceSpec, NodeLossSpec, OutageSpec,
    SiteSelector,
};
pub use spec::{parse_duration, parse_fault_spec};
