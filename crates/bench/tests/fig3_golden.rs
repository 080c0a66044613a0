//! Golden for the Fig. 3 calibration numbers.
//!
//! Pins `calibration_experiment(10, 400, 25, 7)` — the call
//! `fig3_calibration` makes at `CGSIM_SCALE=small` — bit for bit: an FNV-1a
//! fold over every site's name, job count, evaluation count and the bits of
//! its nominal error, calibrated error and best multiplier, plus the bits of
//! both geometric means. Simulation is deterministic whatever the worker
//! count, so a refactor of the calibration path that moves any of these
//! numbers fails here. If a change moves them on purpose, re-record from the
//! failure message and say why.

use cgsim_bench::scenarios::calibration_experiment;
use cgsim_core::scenario::hash::fnv1a;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn fig3_small_calibration_is_pinned() {
    let report = calibration_experiment(10, 400, 25, 7);
    let mut h = FNV_OFFSET;
    for s in &report.sites {
        h = fnv1a(h, s.site.as_bytes());
        for word in [
            s.jobs as u64,
            s.evaluations as u64,
            s.nominal_error.to_bits(),
            s.calibrated_error.to_bits(),
            s.best_multiplier.to_bits(),
        ] {
            h = fnv1a(h, &word.to_le_bytes());
        }
    }
    let got = (
        report.sites.len(),
        h,
        report.geometric_mean_before.to_bits(),
        report.geometric_mean_after.to_bits(),
    );
    assert_eq!(
        got,
        (
            10,
            0xfbe9_2f26_9145_116b,
            0x3fd6_602b_a989_ffbd,
            0x3fbd_e7e3_9d23_0e7d
        ),
        "re-record the Fig. 3 golden: {got:#x?}"
    );
}
