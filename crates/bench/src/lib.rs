//! # cgsim-bench — the paper's figures and the fluid-solver CI gate
//!
//! Every table and figure of the paper's evaluation section has a binary
//! under `src/bin/` that regenerates the numbers and prints the same rows or
//! series the paper reports; each only prints what one function in
//! [`scenarios`] returns. [`baseline`] is the coarse-grained simulator the
//! §2 fidelity ablation compares against. `fluid_perf_gate` times the
//! [`fluid_hot`] topologies against the rows committed in `BENCH_fluid.json`.
//!
//! This crate does not time the simulator end to end: `benchmark/` at the
//! repository root is the one harness that does.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod fluid_hot;
pub mod scenarios;
