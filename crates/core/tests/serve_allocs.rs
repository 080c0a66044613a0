//! A `cgsim serve` cache hit hashes its scenario without allocating and
//! answers in a pinned number of allocator calls.
//!
//! A counting global allocator (std only) measures two things. Hashing a
//! resolved serve delta makes no allocator call once its base's content
//! hash is memoised: the execution config is hashed field by field, not
//! through its serde value tree (59 calls per hash while it was). And a hit
//! line through `serve_loop` — read, decode, resolve, hash, look up, reply —
//! makes at most [`HIT_LINE_CALLS`] allocator calls, the figure measured
//! since the line is decoded straight from its text (62 while it was parsed
//! into a value tree first, 121 when the hash also built one); a new
//! per-request allocation on the hit path fails it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cgsim_core::{serve_loop, ExecutionConfig, ScenarioBase, ScenarioEngine, ServeRequest};
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

fn allocations_during<T>(work: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = work();
    (ALLOCATIONS.with(Cell::get) - before, value)
}

/// Allocator calls a hit line may make: the measured figure, no margin.
const HIT_LINE_CALLS: usize = 13;

/// The richest request the benchmark's serve workloads send: a policy, a
/// seed, a fault spec and a checkpoint block.
const LINE: &str = r#"{"id":"d8","policy":"least-loaded","seed":1,"faults":"outage:site=all,mttf=12h,mttr=20m","checkpoint":{"interval_s":1800.0,"base_bytes":1000000000,"bytes_per_core":0,"target":"MainServer","overlap":true,"delta_bytes_per_s":10000000}}"#;

fn base() -> Arc<ScenarioBase> {
    let spec = wlcg_platform(4, 7);
    let trace = TraceGenerator::new(TraceConfig::with_jobs(40, 7)).generate(&spec);
    ScenarioBase::shared(spec, trace)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds also hash each config's value tree, the reference twin"
)]
fn hashing_a_resolved_delta_allocates_nothing() {
    let request: ServeRequest = serde_json::from_str(LINE).unwrap();
    let spec = request.resolve(&base(), &ExecutionConfig::default());
    let first = spec.canonical_hash();
    let (calls, again) = allocations_during(|| spec.canonical_hash());
    assert_eq!(again, first);
    assert_eq!(calls, 0, "canonical_hash made {calls} allocator calls");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds also hash each config's value tree, the reference twin"
)]
fn a_cache_hit_line_makes_a_pinned_number_of_allocator_calls() {
    const LINES: usize = 200;
    let base = base();
    let execution = ExecutionConfig::default();
    let engine = ScenarioEngine::new().parallel(false);
    // A session of `lines` copies of the line; the reply bytes are dropped.
    let session = |lines: usize| {
        let input = format!("{LINE}\n").repeat(lines);
        let sink = std::io::sink();
        let served = || serve_loop(&engine, &base, &execution, input.as_bytes(), sink).unwrap();
        allocations_during(served).0
    };
    // The first line is the miss that fills the cache.
    session(1);
    // The difference of two sessions cancels each session's own set-up; the
    // latency ring's doublings add less than one call per line to it.
    let per_line = (session(2 * LINES) - session(LINES)) / LINES;
    assert_eq!(engine.simulations_run(), 1, "every later line is a hit");
    println!("a cache-hit serve line makes {per_line} allocator calls");
    assert!(
        per_line <= HIT_LINE_CALLS,
        "{per_line} allocator calls per hit line, pinned at {HIT_LINE_CALLS}"
    );
}
