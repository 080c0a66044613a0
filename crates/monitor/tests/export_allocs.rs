//! The dataset export allocates per file, not per row.
//!
//! A counting global allocator (std only) measures `save_csv_dir` and the ML
//! dataset writer over a 10k-event result and over one twice the size: the
//! counts must be equal — nothing scales with the rows — and small. Rendering
//! the ML dataset as a string over rows as long as a `dataset` run's must
//! reserve once and never regrow.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cgsim_monitor::{
    mldataset, EventRow, EventTable, MetricsReport, OutcomeRow, OutcomeTable, TableStore,
};
use cgsim_workload::{JobKind, JobRecord, JobState, Trace};

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

fn allocations_during(work: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

const SITES: [&str; 4] = ["CERN", "BNL", "needs,\"quoting\"\n", ""];

fn records(events: usize) -> (EventTable, OutcomeTable) {
    let event = |i: usize| EventRow {
        time_s: i as f64 * 1.37,
        job: (i / 5) as u32,
        site: (i % SITES.len()) as u16,
        state: JobState::Running,
        available_cores: 4_000 - (i as u32 % 4_000),
        pending_jobs: i as u32 % 97,
        assigned_jobs: i as u32,
        finished_jobs: i as u32 / 2,
    };
    let record = |i: usize| JobRecord {
        submit_time: i as f64 * 0.1,
        ..JobRecord::new(i as u64, JobKind::SingleCore, 1, 36_000.5)
    };
    let outcome = |i: usize| OutcomeRow {
        job: i as u32,
        site: (i % SITES.len()) as u16,
        final_state: JobState::Finished,
        available_cores_at_assign: 0,
        queue_at_assign: 0,
        start_time: i as f64 * 0.1 + 2.5,
        end_time: i as f64 * 0.1 + 3_602.5,
        staged_bytes: 1_000_000 + i as u64,
    };
    let jobs = events / 5;
    let trace = Trace {
        jobs: (0..jobs).map(record).collect(),
        ..Trace::default()
    };
    let (trace, sites): (Arc<Trace>, Arc<[Arc<str>]>) = (
        Arc::new(trace),
        SITES.iter().map(|&name| name.into()).collect(),
    );
    let rows = (0..events).map(event).collect();
    let events = EventTable::new(rows, 0, Vec::new(), trace.clone(), sites.clone());
    let outcomes = OutcomeTable::new((0..jobs).map(outcome).collect(), trace, sites);
    (events, outcomes)
}

/// Allocations made while writing the whole dataset of `events` records.
fn export_allocations(events: usize, dir: &std::path::Path) -> (usize, usize) {
    let (events, outcomes) = records(events);
    let metrics = MetricsReport::from_outcomes(&outcomes);
    let examples = mldataset::build_examples(&outcomes, &events);
    let store = TableStore::new(&events, &outcomes, &metrics);
    let tables = allocations_during(|| store.save_csv_dir(dir).unwrap());
    let ml = allocations_during(|| {
        let mut file = std::fs::File::create(dir.join("ml_dataset.csv")).unwrap();
        mldataset::write_csv(&examples, &mut file).unwrap();
    });
    let rows = std::fs::read_to_string(dir.join("events.csv")).unwrap();
    assert_eq!(rows.matches(",running,").count(), events.len());
    (tables, ml)
}

#[test]
fn export_allocations_do_not_grow_with_the_rows() {
    let dir = std::env::temp_dir().join("cgsim-export-allocs-test");
    std::fs::create_dir_all(&dir).unwrap();
    let small = export_allocations(10_000, &dir);
    let large = export_allocations(20_000, &dir);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(small, large, "allocations scale with the row count");
    // Per file: its name and path, and one row buffer of about 64 KB that
    // goes to the file whole (no `BufWriter` behind it). The materialising
    // export made ~12 per event row.
    assert!(small.0 <= 14, "save_csv_dir allocated {} times", small.0);
    assert!(small.1 <= 3, "the ML writer allocated {} times", small.1);
}

/// Examples shaped like a `dataset` run's: ten-digit job ids and
/// full-precision times, about 97 bytes per row (a run averages 98.6).
fn dataset_like_examples(n: usize) -> Vec<mldataset::MlExample> {
    (0..n)
        .map(|i| {
            let x = (i as f64 * 0.618_033_988_749_894_9).fract();
            mldataset::MlExample {
                job_id: 6_460_000_000 + i as u64,
                is_multicore: (i % 2) as f64,
                cores: if i % 2 == 1 { 8.0 } else { 1.0 },
                work_hs23: 1e4 + 9e4 * x,
                staged_bytes: if i % 4 == 0 { 787_472_958.0 } else { 0.0 },
                site_available_cores_at_assign: (i % 9_000) as f64,
                site_queue_at_assign: 0.0,
                submit_time: 2e4 * x,
                target_queue_time: if i % 8 == 0 { 0.0 } else { 4e3 * x * x },
                target_walltime: 100.0 + 3e3 * (1.0 - x),
            }
        })
        .collect()
}

#[test]
fn the_ml_string_is_reserved_once_for_dataset_rows() {
    let examples = dataset_like_examples(20_000);
    let mut bytes = 0;
    let allocations = allocations_during(|| bytes = mldataset::to_csv(&examples).len());
    let per_row = bytes as f64 / examples.len() as f64;
    assert!((97.0..101.0).contains(&per_row), "{per_row} B/row");
    assert_eq!(
        allocations, 1,
        "to_csv regrew its buffer at {per_row} B/row"
    );
}
