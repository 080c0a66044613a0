//! # cgsim-obs — deterministic structured tracing and self-profiling
//!
//! The paper's output layer promises "a real-time dashboard for monitoring
//! and performance evaluation" (§3.1) and an event-level dataset at every
//! timestep (§4.3.2). This crate supplies the missing *explanatory* window
//! into a run: a structured trace of what the simulated grid did (job
//! lifecycle spans, fault replay actions, checkpoint writes and restores,
//! transfer starts and finishes, broker decisions) and a profile of where
//! the simulator itself spent wall-clock.
//!
//! ## The determinism contract
//!
//! Trace records carry **simulated time and stable sequence numbers only —
//! never wall-clock, pointers, or iteration order of unordered containers**.
//! Two runs of the same scenario therefore produce byte-identical trace
//! files, and enabling tracing must leave the simulation's
//! `deterministic_json` byte-identical to a run with tracing off: sinks
//! observe the simulation, they never perturb it. The profiler is the one
//! component that measures wall-clock; its output is kept out of `results.json`
//! and written to a separate `profile.json` only when profiling was
//! explicitly requested, so determinism gates that diff whole output
//! directories never see it.
//!
//! ## Cost when disabled
//!
//! Every emission site is guarded by [`trace::Tracer::wants`] — a mask test
//! on an `Option` that is `None` when tracing is off — and every profiling
//! region by [`profile::Profiler::start`] returning `None` when disabled.
//! Neither path allocates or formats anything unless the corresponding
//! feature was switched on, keeping the fluid and event-loop hot paths at
//! their benchmarked speeds (see `BENCH_fluid.json` / `BENCH_faults.json`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod profile;
pub mod trace;

pub use profile::{ProfileReport, Profiler, Subsystem};
pub use trace::{
    parse_filter, validate_chrome, validate_jsonl, ChromeSink, JsonlSink, MemorySink, SpanPhase,
    TraceCategory, TraceRecord, TraceSink, TraceTarget, Tracer, ALL_CATEGORIES, MASK_ALL,
};
