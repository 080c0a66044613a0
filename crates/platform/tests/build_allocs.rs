//! Building a 200-site platform makes a pinned number of allocator calls.
//!
//! A counting global allocator (std only) counts the allocator calls of
//! `Platform::build(&wlcg_platform(200, 42))`. The build resolves the
//! specification (names, links, the WAN graph) and grows one route row, the
//! main server's, from one shortest-path tree: a fixed number of buffers
//! plus the row's link arena doublings and the heap's. Every other source's
//! row is grown by its first read, so an eager route row or table coming
//! back fails this gate. Writing all 201 rows into one flat table up front
//! took 2,112 calls, and owning each of the 40,401 routes, as a `Path` and
//! then a `Route`, took 84,013.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cgsim_platform::{wlcg_platform, Platform};

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

/// Allocator calls the build may make: the measured figure, no margin.
const BUILD_CALLS: usize = 1_909;

#[test]
fn building_a_200_site_platform_makes_a_pinned_number_of_allocator_calls() {
    let spec = wlcg_platform(200, 42);
    let before = ALLOCATIONS.with(Cell::get);
    let platform = Platform::build(&spec).unwrap();
    let calls = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(platform.site_count(), 200);
    println!("Platform::build(&wlcg_platform(200, 42)) makes {calls} allocator calls");
    assert!(
        calls <= BUILD_CALLS,
        "{calls} allocator calls, pinned at {BUILD_CALLS}"
    );
}
