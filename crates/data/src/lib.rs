//! # cgsim-data — Rucio-like data management substrate
//!
//! The ATLAS distributed-analysis ecosystem relies on two systems: PanDA for
//! workload management and **Rucio** for data management (paper §4.1). CGSim
//! models the data side of the grid — where dataset replicas live, how job
//! input is staged to the execution site, and how site-local caches
//! (XRootD-style, as in DCSim) reduce repeated wide-area transfers.
//!
//! This crate provides that substrate:
//!
//! * [`catalog`] — datasets, replicas and the replica catalog (which sites
//!   hold a copy of which dataset), plus source-selection strategies,
//! * [`storage`] — per-site storage elements with capacity accounting,
//! * [`cache`] — an LRU dataset cache with hit/miss statistics.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod catalog;
pub mod storage;

pub use cache::{CacheStats, LruCache};
pub use catalog::{Dataset, DatasetId, ReplicaCatalog, SourceSelection};
pub use storage::StorageElement;
