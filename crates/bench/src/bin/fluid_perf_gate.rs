//! CI perf gate for the fluid solver's hot paths.
//!
//! Re-times four @1k scenarios — `fluid_sparse_churn` (the incremental
//! solver's component-sized sweet spot), `fluid_single_bottleneck_churn` (the
//! total-work fast path's O(log n) dense case), `fluid_hub_resize_churn` (the
//! same component with a fair share that moves every step: one linear
//! re-rate + bulk re-key per solve) and `fluid_pileup_churn` (multi-round
//! progressive filling over the checkpoint pile-up shape) — the topologies of
//! `cgsim_bench::fluid_hot`, the ones the committed rows were recorded with —
//! and compares each per-recompute cost against the committed baseline in
//! `BENCH_fluid.json`. Exits non-zero when any measured cost exceeds 2× its
//! committed value — a deliberately coarse threshold that survives CI-runner
//! noise while still catching an accidental return to O(N) global
//! recomputation on the sparse case (~40×),
//! a loss of the single-bottleneck classification on the dense case (~20×,
//! which would re-run full progressive filling per churn step), or a return
//! to per-activity heap sifts (~10× on hub-resize) and per-round re-summing
//! (~4× on pile-up) where a solve re-rates most of the heap.
//!
//! Run as: `cargo run --release -p cgsim-bench --bin fluid_perf_gate`

use std::time::Instant;

use cgsim_bench::fluid_hot::{
    build_pileup, build_single_bottleneck, build_sparse, hub_resize_churn, pileup_churn,
    single_bottleneck_churn, sparse_churn, Build, Churn,
};

/// Concurrency of the gated scenarios (must match committed entries).
const N: usize = 1_000;
/// Churn steps per timed repetition (bounded so the gate stays in CI noise
/// territory of milliseconds, not minutes).
const STEPS: usize = 5_000;
/// Repetitions; the best (least-noisy) one is compared.
const REPS: usize = 3;
/// Allowed regression factor over the committed per-recompute cost.
const MAX_REGRESSION: f64 = 2.0;

fn committed_us(json: &str, case: &str) -> Option<f64> {
    let value: serde_json::Value = serde_json::from_str(json).ok()?;
    value
        .get("results")?
        .as_array()?
        .iter()
        .find(|entry| {
            entry.get("case").and_then(|c| c.as_str()) == Some(case)
                && entry
                    .get("concurrent_activities")
                    .and_then(|n| n.as_f64())
                    .map(|n| n as usize)
                    == Some(N)
        })?
        .get("per_recompute_us")?
        .as_f64()
}

/// Best-of-[`REPS`] per-recompute time of one churn scenario, in µs.
fn measure(build: Build, churn: Churn) -> f64 {
    let mut best_us = f64::INFINITY;
    for _ in 0..REPS {
        let (mut m, links, mut ids) = build(N);
        let mut step_base = 0usize;
        // Warm up: populate the completion heap and solve every component
        // once so the timed region measures steady-state churn only.
        let _ = m.time_to_next_completion();
        let start = Instant::now();
        let acc = churn(&mut m, &links, &mut ids, &mut step_base, STEPS);
        let elapsed = start.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        best_us = best_us.min(elapsed / STEPS as f64 * 1e6);
    }
    best_us
}

fn main() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fluid.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read committed baseline {path}: {e}"));

    let mut failed = false;
    let gates: [(&str, f64); 4] = [
        ("sparse_churn", measure(build_sparse, sparse_churn)),
        (
            "single_bottleneck_churn",
            measure(build_single_bottleneck, single_bottleneck_churn),
        ),
        (
            "hub_resize_churn",
            measure(build_single_bottleneck, hub_resize_churn),
        ),
        ("pileup_churn", measure(build_pileup, pileup_churn)),
    ];
    for (case, best_us) in gates {
        let committed = committed_us(&text, case).unwrap_or_else(|| {
            panic!("BENCH_fluid.json has no {case} entry at {N} concurrent activities")
        });
        let limit = committed * MAX_REGRESSION;
        println!(
            "fluid perf gate: {case}@{N} measured {best_us:.3} µs/recompute \
             (committed {committed:.3} µs, limit {limit:.3} µs)"
        );
        if best_us > limit {
            eprintln!(
                "fluid perf gate FAILED: {case} per-recompute cost regressed \
                 more than {MAX_REGRESSION}x over the committed BENCH_fluid.json baseline"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("fluid perf gate: OK");
}
