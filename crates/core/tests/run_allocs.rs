//! A clean run allocates per site, per task and per container doubling — not
//! per job record, per outcome or per event row.
//!
//! A counting global allocator (std only) measures a whole run — ingest,
//! event loop, every transition recorded, post-processing — at N jobs and at
//! 2N: the second N jobs may cost fewer than a quarter of an allocation each.
//! The parent of the change that added this test paid 6.9 (a cloned
//! `hist_site`, an outcome's site name, an event row's site name per
//! transition, a completion list per fluid event, a staging plan, a third
//! copy of each dataset name). What is left — 0.181 per job here — is not in
//! the per-job stores: the catalog's registration of a dataset per 50-job
//! task (two name strings, a replica list). It was 0.239 while the event
//! queue still kept B-tree nodes for its long-pending events.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cgsim_core::Simulation;
use cgsim_platform::wlcg_platform;
use cgsim_workload::{TraceConfig, TraceGenerator};

thread_local! {
    /// Allocations (and reallocations) made by this thread. Const-initialised
    /// and without a destructor, so the allocator can touch it at any time.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one 12-site clean run of `jobs` jobs, set-up excluded.
fn run_allocations(jobs: usize, streamed: bool) -> usize {
    let spec = wlcg_platform(12, 7);
    let generator = TraceGenerator::new(TraceConfig::with_jobs(jobs, 42));
    let builder = Simulation::builder().platform_spec(&spec).unwrap();
    let sim = if streamed {
        builder.trace_stream(generator.stream(&spec))
    } else {
        builder.trace(Arc::new(generator.generate(&spec)))
    }
    .build()
    .unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    let results = sim.run();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(results.outcomes.len(), jobs);
    assert!(
        results.events.len() >= 4 * jobs,
        "every transition recorded"
    );
    allocations
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds rebuild the policy view (a Vec) at every policy call"
)]
fn doubling_the_jobs_adds_under_a_quarter_of_an_allocation_per_job() {
    const N: usize = 4_000;
    for streamed in [true, false] {
        let (small, large) = (
            run_allocations(N, streamed),
            run_allocations(2 * N, streamed),
        );
        assert!(
            large - small < N / 4,
            "streamed = {streamed}: {small} allocations for {N} jobs, {large} for twice that"
        );
    }
}
