//! Golden for the simulated columns of the other five paper binaries.
//!
//! `fig3_golden.rs` pins Fig. 3; this file pins what `fig4a_job_scaling`,
//! `fig4b_multisite_scaling`, `table1_event_snapshot`, `baseline_comparison`
//! and `distributed_speedup` print at `CGSIM_SCALE=small`, one entry per
//! distinct point: every makespan and `engine_events`, the bits of both
//! ablation error values, and the six Table 1 rows. Wall-clock columns are
//! not pinned. Each test folds its numbers with FNV-1a, so a refactor of a
//! scenario or of the baseline simulator that moves any printed paper
//! number fails here. If a change moves them on purpose, re-record from the
//! failure message and say why.

use cgsim_bench::scenarios::{
    baseline_comparison, distributed_speedup, event_snapshot_run, job_scaling_point,
    multisite_scaling_point,
};
use cgsim_core::scenario::hash::fnv1a;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold(h: u64, words: &[u64]) -> u64 {
    words
        .iter()
        .fold(h, |h, word| fnv1a(h, &word.to_le_bytes()))
}

#[test]
fn fig4a_small_points_are_pinned() {
    let mut h = FNV_OFFSET;
    for jobs in [200, 400, 800, 1_200, 1_600, 2_000] {
        let r = job_scaling_point(jobs, 1_000, 42);
        h = fold(h, &[jobs as u64, r.makespan_s.to_bits(), r.engine_events]);
    }
    assert_eq!(
        h, 0xcbb1_7633_3d6f_dd63,
        "re-record the Fig. 4(a) golden: {h:#x}"
    );
}

#[test]
fn fig4b_small_points_are_pinned() {
    let mut h = FNV_OFFSET;
    for sites in [1, 2, 4, 6, 8, 10] {
        let r = multisite_scaling_point(sites, 200, 42);
        h = fold(h, &[sites as u64, r.makespan_s.to_bits(), r.engine_events]);
    }
    assert_eq!(
        h, 0x232b_36f3_6258_97f4,
        "re-record the Fig. 4(b) golden: {h:#x}"
    );
}

#[test]
fn table1_rows_are_pinned() {
    let r = event_snapshot_run(400, 42);
    let finished: Vec<_> = r
        .events
        .iter()
        .filter(|e| e.state == cgsim_workload::JobState::Finished)
        .collect();
    let mut h = FNV_OFFSET;
    for e in finished.iter().skip(finished.len() / 2).take(6) {
        h = fnv1a(h, e.state.label().as_bytes());
        h = fnv1a(h, e.site.as_bytes());
        h = fold(
            h,
            &[
                e.event_id,
                e.job_id.0,
                e.available_cores,
                e.pending_jobs,
                e.assigned_jobs,
                e.finished_jobs,
            ],
        );
    }
    let got = (r.events.len(), r.outcomes.len(), h);
    assert_eq!(
        got,
        (1_616, 400, 0xc18b_9a45_d173_c769),
        "re-record the Table 1 golden: {got:#x?}"
    );
}

#[test]
fn ablation_small_is_pinned() {
    let (baseline, cgsim) = baseline_comparison(400, 11);
    let got = (
        baseline.makespan_s.to_bits(),
        baseline.relative_walltime_error().to_bits(),
        cgsim.makespan_s.to_bits(),
        cgsim.geometric_mean_walltime_error().unwrap().to_bits(),
        cgsim.engine_events,
    );
    assert_eq!(
        got,
        (
            0x40f7_16cf_a54e_eaf8,
            0x3fdd_e501_6e60_9494,
            0x40f7_16d0_7c9e_9887,
            0x3fdc_99b9_d9eb_92e6,
            1_269
        ),
        "re-record the ablation golden: {got:#x?}"
    );
}

#[test]
fn speedup_small_points_are_pinned() {
    let mut h = FNV_OFFSET;
    let mut singles = Vec::new();
    for sites in [2, 4, 8, 16] {
        let (single, distributed) = distributed_speedup(sites, 800, 7);
        singles.push(single.to_bits());
        h = fold(h, &[sites as u64, distributed.to_bits()]);
    }
    singles.dedup();
    let got = (singles, h);
    assert_eq!(
        got,
        (vec![0x4107_2397_7a2a_3847], 0x5907_d7cb_9012_be71),
        "re-record the distributed-speedup golden: {got:#x?}"
    );
}
