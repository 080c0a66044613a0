//! # cgsim-calibrate — the calibration framework
//!
//! Paper §4.2 calibrates CGSim against historical PanDA job records: the
//! dominant error source is the per-site CPU core processing speed, so each
//! site's speed is tuned to minimise the discrepancy between simulated and
//! historical job execution time (`Δ_exe_time = Sim_exe_time − His_exe_time`).
//! The paper compares four search methods, finds random sampling best, and
//! with it improves the geometric mean of the per-site relative MAE from
//! 76 % to 17 % over 50 sites (Fig. 3).
//!
//! This crate reproduces that pipeline end to end with random search:
//!
//! * [`objective`] — the walltime-error objective: the scenario that runs
//!   one site's historical jobs with a candidate speed multiplier, and the
//!   relative MAE read off its results,
//! * [`calibrator`] — per-site random search, every site's candidates
//!   evaluated as one scenario batch, producing the before/after error table
//!   of Fig. 3,
//! * [`sensitivity`] — the parameter sensitivity analysis that identifies
//!   CPU speed as the dominant parameter.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calibrator;
pub mod objective;
pub mod sensitivity;

pub use calibrator::{CalibrationReport, Calibrator, SiteCalibration};
pub use objective::SiteWalltimeObjective;
pub use sensitivity::{SensitivityReport, SensitivityStudy};
