//! # cgsim-monitor — monitoring, event-level datasets, metrics and dashboards
//!
//! CGSim's output layer "collects and stores results in SQLite databases,
//! supports CSV exports for statistical analysis, and provides a real-time
//! dashboard for monitoring and performance evaluation" (paper §3.1), and
//! §4.3.2 describes the event-level dataset captured at every timestep
//! (Table 1). This crate reproduces that output layer:
//!
//! * [`event`] — the event-level table of Table 1 (event id, job id,
//!   state, site, available cores, pending / assigned / finished job counts)
//!   and the per-job outcome table used for metric computation (32- and
//!   40-byte rows read together with the run's job records and site names),
//! * [`collector`] — the monitoring collector the simulation core feeds on
//!   every job transition; it maintains per-site counters and the
//!   event-level dataset,
//! * [`metrics`] — queue time, walltime, CPU efficiency, throughput and
//!   failure-rate summaries (the operational metrics listed in §1),
//! * [`store`] — the run's output tables as a borrowed view that streams
//!   CSV (the SQLite substitution),
//! * [`dashboard`] — ASCII and self-contained HTML/SVG renderings of the
//!   per-site node-pressure view of Fig. 5,
//! * [`mldataset`] — flattened, ML-ready feature rows generated from the
//!   event-level dataset (the "automatic dataset generation for ML training"
//!   feature),
//! * [`window`] — bounded-memory windowed metrics: a ring of per-window
//!   site/grid counter snapshots for long-horizon monitoring where the full
//!   event dataset would grow without bound.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod collector;
mod csv;
pub mod dashboard;
pub mod event;
pub mod metrics;
pub mod mldataset;
pub mod store;
pub mod window;

pub use collector::{
    CacheCounters, GridCounters, MonitoringCollector, MonitoringConfig, SiteCounters,
};
pub use event::{
    EventRow, EventTable, EventView, OutcomeRow, OutcomeTable, OutcomeView, TraceIndex,
};
pub use metrics::{MetricsReport, SiteMetrics};
pub use store::{Table, TableStore};
pub use window::{windows_csv, WindowSnapshot, WindowedAggregator};
