//! The dataset export allocates per file, not per row.
//!
//! A counting global allocator (std only) measures `save_csv_dir` and the ML
//! dataset writer over a 10k-event result and over one twice the size: the
//! counts must be equal — nothing scales with the rows — and small.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufWriter, Write};

use cgsim_monitor::{mldataset, EventRecord, JobOutcome, MetricsReport, TableStore};
use cgsim_workload::{JobId, JobKind, JobState};

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

fn records(events: usize) -> (Vec<EventRecord>, Vec<JobOutcome>) {
    let event = |i: usize| EventRecord {
        event_id: i as u64,
        time_s: i as f64 * 1.37,
        job_id: JobId(i as u64 / 5),
        state: JobState::Running,
        site: SITES[i % SITES.len()].into(),
        available_cores: 4_000 - (i as u64 % 4_000),
        pending_jobs: i as u64 % 97,
        assigned_jobs: i as u64,
        finished_jobs: i as u64 / 2,
    };
    let outcome = |i: usize| JobOutcome {
        id: JobId(i as u64),
        kind: JobKind::SingleCore,
        cores: 1,
        work_hs23: 36_000.5,
        site: SITES[i % SITES.len()].into(),
        submit_time: i as f64 * 0.1,
        assign_time: i as f64 * 0.1 + 1.0,
        start_time: i as f64 * 0.1 + 2.5,
        end_time: i as f64 * 0.1 + 3_602.5,
        final_state: JobState::Finished,
        staged_bytes: 1_000_000 + i as u64,
        walltime: 3_600.0,
        queue_time: 2.5,
        hist_walltime: None,
        hist_queue_time: None,
    };
    (
        (0..events).map(event).collect(),
        (0..events / 5).map(outcome).collect(),
    )
}

/// Allocations made while writing the whole dataset of `events` records.
fn export_allocations(events: usize, dir: &std::path::Path) -> (usize, usize) {
    let (events, outcomes) = records(events);
    let metrics = MetricsReport::from_outcomes(&outcomes);
    let examples = mldataset::build_examples(&outcomes, &events);
    let store = TableStore::new(&events, &outcomes, &metrics);
    let tables = allocations_during(|| store.save_csv_dir(dir).unwrap());
    let ml = allocations_during(|| {
        let file = std::fs::File::create(dir.join("ml_dataset.csv")).unwrap();
        let mut out = BufWriter::new(file);
        mldataset::write_csv(&examples, &mut out).unwrap();
        out.flush().unwrap();
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
    // Three files: a path, an OS path and a write buffer each, plus the
    // directory check. The materialising export made ~12 per event row.
    assert!(small.0 <= 32, "save_csv_dir allocated {} times", small.0);
    assert!(small.1 <= 8, "the ML writer allocated {} times", small.1);
}
