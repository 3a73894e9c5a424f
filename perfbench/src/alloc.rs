//! Allocation counting. The benchmark binary installs [`CountingAlloc`]
//! as its global allocator; library users (the tests) do not, and read a
//! count of zero. Counts are read around layer calls by the span
//! recorder, so allocations per layer call are exact integers that
//! repeat from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a counter of allocation calls (`alloc`,
/// `alloc_zeroed` and `realloc`; frees are not counted).
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the GlobalAlloc contract; the only addition is
// a relaxed atomic increment, which neither allocates nor touches the
// memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which is
    // passed on to `System` as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: as for `alloc`; zeroing is done by `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` and `layout` come from this allocator, which means
    // from `System`, so they satisfy `System.dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: `ptr` and `layout` come from `System` (see `dealloc`) and the
    // caller guarantees `new_size` is valid for `layout.align()`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation calls made so far by this process (zero unless the binary
/// installed [`CountingAlloc`]).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
