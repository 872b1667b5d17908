//! A counting `#[global_allocator]` for allocation-budget tests.
//!
//! Wraps the system allocator and tallies every `alloc`/`realloc` made
//! while [`count`] or [`count_bytes`] runs its closure, and the bytes each
//! requested (a `realloc` requests its new size); outside that window it is
//! a transparent passthrough. A test file that includes this module must
//! hold exactly one test, so no sibling test thread can allocate inside
//! the counting window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it made, with its result.
/// Calls nest: an inner count's allocations are the outer's too.
pub fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let (allocs, _, result) = count_bytes(f);
    (allocs, result)
}

/// [`count`], plus the heap bytes those allocations requested.
pub fn count_bytes<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let outer = COUNTING.swap(true, Ordering::SeqCst);
    let (allocs, bytes) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    let result = f();
    COUNTING.store(outer, Ordering::SeqCst);
    (
        ALLOCS.load(Ordering::SeqCst) - allocs,
        BYTES.load(Ordering::SeqCst) - bytes,
        result,
    )
}
