//! Queue-time model: scheduling overhead and resource-contention delays.
//!
//! The paper extends the walltime calibration methodology "to queue time
//! modeling, incorporating scheduling overhead and resource contention
//! effects to achieve comprehensive job lifecycle accuracy" (§4.2). In the
//! real grid a job that is dispatched to a site does not start the moment
//! cores are free: the batch system has to match it, a pilot has to claim it
//! and the payload has to bootstrap. This module models that gap as a
//! dispatch delay
//!
//! ```text
//! delay = base_overhead_s
//!       + per_queued_job_s × (jobs ahead in the site queue)
//!       + contention_coeff × base_overhead_s × (busy-core fraction)
//! ```
//!
//! The three coefficients are one grid-wide setting,
//! `ExecutionConfig::queue_model`, applied at every site; nothing calibrates
//! them. With the default configuration every coefficient is zero and queue
//! time comes only from waiting for free cores.

use serde::{Deserialize, Serialize};

/// Grid-wide queue-delay coefficients (`ExecutionConfig::queue_model`).
/// Format: `execution.json`'s `queue_model` object, read and written.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct QueueModel {
    /// Fixed scheduling overhead applied to every job start (seconds).
    pub base_overhead_s: f64,
    /// Additional delay per job already queued at the site when this job is
    /// picked (seconds per job) — models batch-system matching cost.
    pub per_queued_job_s: f64,
    /// Contention coefficient: the base overhead is inflated by
    /// `contention_coeff × busy_fraction`, so a saturated site dispatches
    /// more slowly than an idle one.
    pub contention_coeff: f64,
}

impl QueueModel {
    /// A model with no scheduling overhead (the default).
    pub fn none() -> Self {
        QueueModel::default()
    }

    /// A convenience constructor with only a fixed overhead.
    pub fn constant(base_overhead_s: f64) -> Self {
        QueueModel {
            base_overhead_s,
            per_queued_job_s: 0.0,
            contention_coeff: 0.0,
        }
    }

    /// True when the model adds no delay at all.
    pub fn is_zero(&self) -> bool {
        self.base_overhead_s <= 0.0 && self.per_queued_job_s <= 0.0 && self.contention_coeff <= 0.0
    }

    /// Dispatch delay for a job picked from a site whose queue currently
    /// holds `queued_jobs` other jobs and whose cores are `busy_fraction`
    /// (in `[0, 1]`) occupied.
    pub(crate) fn dispatch_delay(&self, queued_jobs: u64, busy_fraction: f64) -> f64 {
        debug_assert!(
            (0.0..=1.0 + 1e-9).contains(&busy_fraction),
            "busy fraction must be in [0, 1]"
        );
        let contention =
            self.contention_coeff * self.base_overhead_s * busy_fraction.clamp(0.0, 1.0);
        (self.base_overhead_s + self.per_queued_job_s * queued_jobs as f64 + contention).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_adds_no_delay() {
        let m = QueueModel::default();
        assert!(m.is_zero());
        assert_eq!(m.dispatch_delay(0, 0.0), 0.0);
        assert_eq!(m.dispatch_delay(100, 1.0), 0.0);
        assert_eq!(QueueModel::none(), QueueModel::default());
    }

    #[test]
    fn constant_overhead_is_independent_of_load() {
        let m = QueueModel::constant(300.0);
        assert!(!m.is_zero());
        assert_eq!(m.dispatch_delay(0, 0.0), 300.0);
        assert_eq!(m.dispatch_delay(50, 1.0), 300.0);
    }

    #[test]
    fn queue_depth_and_contention_increase_the_delay() {
        let m = QueueModel {
            base_overhead_s: 100.0,
            per_queued_job_s: 2.0,
            contention_coeff: 0.5,
        };
        let idle = m.dispatch_delay(0, 0.0);
        let deep_queue = m.dispatch_delay(10, 0.0);
        let saturated = m.dispatch_delay(10, 1.0);
        assert_eq!(idle, 100.0);
        assert_eq!(deep_queue, 120.0);
        assert_eq!(saturated, 170.0);
        assert!(idle < deep_queue && deep_queue < saturated);
    }

    #[test]
    fn busy_fraction_is_clamped_and_delay_never_negative() {
        let m = QueueModel {
            base_overhead_s: -50.0,
            per_queued_job_s: 0.0,
            contention_coeff: 0.0,
        };
        assert_eq!(m.dispatch_delay(0, 0.0), 0.0);
        let m = QueueModel {
            base_overhead_s: 10.0,
            per_queued_job_s: 0.0,
            contention_coeff: 1.0,
        };
        // busy fraction slightly above 1 (floating accumulation) is tolerated.
        assert!((m.dispatch_delay(0, 1.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn serde_roundtrip() {
        let m = QueueModel {
            base_overhead_s: 12.0,
            per_queued_job_s: 0.5,
            contention_coeff: 0.25,
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: QueueModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
