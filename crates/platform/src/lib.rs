//! # cgsim-platform — grid platform model
//!
//! CGSim's input layer describes the simulated computing grid through JSON
//! configuration: the computational infrastructure (sites and their hosts)
//! and the network topology (links between sites and the central main
//! server). This crate provides:
//!
//! * the serde-serialisable **specification** types ([`spec`]) that mirror the
//!   paper's JSON input files,
//! * the resolved, validated **runtime platform** ([`platform::Platform`])
//!   with typed identifiers, fast name lookup and per-site calibration
//!   multipliers,
//! * the **network topology graph** ([`topology`]) with shortest-path routing
//!   between any two endpoints (sites or the main server), mirroring
//!   SimGrid's netzone routing,
//! * **presets** ([`presets`]) generating WLCG-like platforms: a configurable
//!   number of tiered sites (Tier-0/1/2) with 100–2000 cores each,
//!   HEPScore23-style per-core speeds and realistic WAN latencies, as used by
//!   the paper's ATLAS case study and scalability experiments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod availability;
pub mod error;
pub mod platform;
pub mod presets;
pub mod spec;
pub mod topology;

pub use availability::{GridAvailability, SiteAvailability};
pub use error::PlatformError;
pub use platform::{Link, LinkId, NodeId, Platform, Route, Site, SiteId};
pub use presets::{example_platform, wlcg_platform, PresetOptions};
pub use spec::{HostSpec, LinkSpec, NetworkSpec, PlatformSpec, SiteSpec, Tier};
