//! Fluid-model hot path: max-min share recomputation under contention.
//!
//! The fluid model recomputes the progressive-filling allocation every time
//! an activity starts or finishes — it is the hottest path of the whole
//! simulator once traces carry real staging traffic. Five groups measure
//! the regimes of the incremental solver (see `cgsim_bench::fluid_hot` for
//! the topologies):
//!
//! * `fluid_contended_churn` — one giant *multi-constrained* component (no
//!   single bottleneck); the dense control that pays a full
//!   progressive-filling pass per recompute and must stay within noise of
//!   the pre-incremental baseline.
//! * `fluid_sparse_churn` — one island dirtied per recompute; the sparse
//!   common case whose per-recompute cost should be ~component-sized,
//!   independent of N.
//! * `fluid_single_bottleneck_churn` — one giant component that *is*
//!   single-bottleneck (every activity crosses the thin backbone), served by
//!   the total-work fast path in O(log n) per churn step. Same density as
//!   the contended control; the gap between the two rows is the fast path's
//!   win.
//! * `fluid_hub_resize_churn` — the same single-bottleneck component, but
//!   every step changes the backbone's weight sum, so the fair share moves
//!   and the fast path re-rates and re-keys the whole component: one linear
//!   pass per step.
//! * `fluid_pileup_churn` — the checkpoint pile-up shape (LAN → WAN → main
//!   server under 12 sites): a multi-round progressive-filling solve that
//!   re-rates most of the completion heap every step.
//!
//! The committed baseline for these numbers lives in `BENCH_fluid.json` at
//! the repository root; future perf PRs compare against it, and CI runs the
//! sparse, single-bottleneck, hub-resize and pile-up @1k cases as a
//! regression gate (`fluid_perf_gate`).

use cgsim_bench::fluid_hot::{
    build_contended, build_pileup, build_single_bottleneck, build_sparse, contended_churn,
    hub_resize_churn, pileup_churn, single_bottleneck_churn, sparse_churn, Build, Churn,
};
use cgsim_des::SimTime;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

/// Churn steps (activity completions + admissions) measured per iteration.
const CHURN_STEPS: usize = 100;

/// One group: `churn` timed on a long-lived model per concurrency in `sizes`.
fn bench_churn(c: &mut Criterion, name: &str, sizes: &[usize], build: Build, churn: Churn) {
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    for &n in sizes {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let (mut m, links, mut ids) = build(n);
            let mut step_base = 0usize;
            b.iter(|| churn(&mut m, &links, &mut ids, &mut step_base, CHURN_STEPS));
            // Exercise the reuse-buffer APIs outside the timed region and
            // keep the final state observable.
            let mut rates = Vec::new();
            m.rates_into(&mut rates);
            let mut done = Vec::new();
            m.advance_into(SimTime::ZERO, &mut done);
            black_box((rates.len(), done.len()));
        });
    }
    group.finish();
}

fn bench_fluid(c: &mut Criterion) {
    let dense = [1_000usize, 5_000, 20_000];
    bench_churn(
        c,
        "fluid_contended_churn",
        &[100, 1_000, 5_000, 20_000],
        build_contended,
        contended_churn,
    );
    bench_churn(c, "fluid_sparse_churn", &dense, build_sparse, sparse_churn);
    bench_churn(
        c,
        "fluid_single_bottleneck_churn",
        &dense,
        build_single_bottleneck,
        single_bottleneck_churn,
    );
    bench_churn(
        c,
        "fluid_hub_resize_churn",
        &[1_000, 5_000],
        build_single_bottleneck,
        hub_resize_churn,
    );
    bench_churn(
        c,
        "fluid_pileup_churn",
        &[1_000, 5_000],
        build_pileup,
        pileup_churn,
    );
}

criterion_group!(benches, bench_fluid);
criterion_main!(benches);
