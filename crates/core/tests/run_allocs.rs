//! A clean run allocates per site, per task and per container doubling — not
//! per job record, per outcome or per event row — and holds a pinned number
//! of bytes per job at its peak.
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

use cgsim_core::{ExecutionConfig, Simulation};
use cgsim_monitor::MonitoringConfig;
use cgsim_platform::wlcg_platform;
use cgsim_workload::{TraceConfig, TraceGenerator};

thread_local! {
    /// Allocations (and reallocations) made by this thread. Const-initialised
    /// and without a destructor, so the allocator can touch it at any time.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed yet (wrapping: a block
    /// freed by another thread than its allocator's skews both threads).
    static LIVE_BYTES: Cell<usize> = const { Cell::new(0) };
    /// High-water mark of `LIVE_BYTES` since the last [`reset_peak`].
    static PEAK_BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Moves this thread's live-byte count by `grown` bytes, then `shrunk`.
fn track(grown: usize, shrunk: usize) {
    let live = LIVE_BYTES.with(|n| {
        n.set(n.get().wrapping_add(grown).wrapping_sub(shrunk));
        n.get()
    });
    PEAK_BYTES.with(|p| p.set(p.get().max(live)));
}

/// Restarts the high-water mark at the current live bytes, which it returns.
fn reset_peak() -> usize {
    let live = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|p| p.set(live));
    live
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only additions are thread-local counter updates
// that neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        track(layout.size(), 0);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, layout.size());
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        track(new_size, layout.size());
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

/// The event rows of the benchmark's `grid_clean`: a 10k ring sampled every
/// 100th transition, with hourly windows.
fn bounded() -> MonitoringConfig {
    MonitoringConfig {
        enabled: true,
        sample_stride: 100,
        max_events: 10_000,
        window_s: 3_600.0,
        max_windows: 512,
    }
}

/// High-water heap bytes of one run in the benchmark's `grid_clean` shape —
/// 12 sites, `jobs` streamed jobs submitted over 6 h, least-loaded — with
/// the event rows of `monitoring`, above what was live before it started.
fn run_peak_bytes(jobs: usize, monitoring: MonitoringConfig) -> usize {
    let spec = wlcg_platform(12, 42);
    let generator = TraceGenerator::new(TraceConfig {
        submission_window_s: 6.0 * 3_600.0,
        ..TraceConfig::with_jobs(jobs, 42)
    });
    let execution = ExecutionConfig {
        monitoring,
        ..ExecutionConfig::default()
    };
    let sim = Simulation::builder()
        .platform_spec(&spec)
        .unwrap()
        .trace_stream(generator.stream(&spec))
        .execution(execution)
        .build()
        .unwrap();
    let before = reset_peak();
    let results = sim.run();
    let peak = PEAK_BYTES.with(Cell::get) - before;
    assert_eq!(results.outcomes.len(), jobs);
    peak
}

/// The clock-free half of `grid_clean`'s peak-RSS number: what the heap
/// holds at its high-water mark per extra job. Each job's record (120 B),
/// its outcome row (40 B), its `JobRuntime` (28 B) and its submission in the
/// engine's lane (16 B) live through the run, 204 B; the other ≈ 17 B grow
/// with the workload too (site queues, per-task catalog entries).
/// Adding a per-job field moves this number, and so does a store that stops
/// being reserved up front, or post-processing that keeps the model's
/// per-job state alive. The parent of the change that added this gate
/// measured 485.9 B/job: a 96 B `JobRuntime`, a 24 B lane entry and an
/// outcome table grown by doubling. It read 328.5 B/job while every site
/// also kept an LRU index of the datasets it had staged, 313.4 B/job while
/// each outcome was a 128 B copy of its job's record columns, 225.4 B/job
/// while the `JobRuntime` held an `f64` assign time (32 B), and 221.4 B/job
/// while the sampled event rows (one per 100 transitions, below the ring's
/// bound at these sizes) were 80 B.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds rebuild the policy view (a Vec) at every policy call"
)]
fn the_peak_heap_holds_a_pinned_number_of_bytes_per_job() {
    assert_peak_bytes_per_job(bounded(), 218.9);
}

/// The same run with every transition kept: the event table's per-job cost
/// on top of the bounded run's. A job makes about 4.2 transitions, and the
/// table grows by doubling; the parent of the change that added this gate
/// stored 80 B event rows and measured 741.6 B/job.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds rebuild the policy view (a Vec) at every policy call"
)]
fn the_peak_heap_with_every_event_kept_holds_a_pinned_number_of_bytes_per_job() {
    let unbounded = MonitoringConfig {
        sample_stride: 1,
        max_events: 0,
        ..bounded()
    };
    assert_peak_bytes_per_job(unbounded, 427.0);
}

/// Fails when the heap's high-water mark grows by more than `measured` B
/// + 5 % per extra job from 20k to 40k jobs under `monitoring`.
fn assert_peak_bytes_per_job(monitoring: MonitoringConfig, measured: f64) {
    const N: usize = 20_000;
    let small = run_peak_bytes(N, monitoring.clone());
    let large = run_peak_bytes(2 * N, monitoring);
    let per_job = (large - small) as f64 / N as f64;
    eprintln!("peak heap: {small} B for {N} jobs, {large} B for twice that: {per_job:.1} B/job");
    assert!(
        per_job <= measured * 1.05,
        "{per_job:.1} B per extra job at the peak, pinned at {measured}"
    );
}
