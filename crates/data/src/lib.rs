//! # cgsim-data — Rucio-like data management substrate
//!
//! The ATLAS distributed-analysis ecosystem relies on two systems: PanDA for
//! workload management and **Rucio** for data management (paper §4.1). CGSim
//! models the data side of the grid — where dataset replicas live, how job
//! input is staged to the execution site, and how replicas registered at
//! the sites that staged them (XRootD-style caching, as in DCSim) spare
//! later jobs a repeated wide-area transfer.
//!
//! This crate provides that substrate:
//!
//! * [`catalog`] — datasets, replicas and the replica catalog (which sites
//!   hold a copy of which dataset), plus source-selection strategies,
//! * [`storage`] — per-site storage elements with capacity accounting,
//! * [`cache`] — a byte-bounded LRU dataset cache with hit/miss statistics.
//!   The simulation core does not use it: the catalog is a run's one record
//!   of which site holds which dataset.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod catalog;
pub mod storage;

pub use cache::{CacheStats, LruCache};
pub use catalog::{Dataset, DatasetId, ReplicaCatalog, SourceSelection};
pub use storage::StorageElement;
