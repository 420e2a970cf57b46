//! A counting global allocator: live and peak heap bytes, and the bytes
//! and calls of every allocation.
//!
//! Counts are requested sizes (allocator slack is invisible), which is the
//! number data-structure work can influence. The counters move only in a
//! binary that installs [`CountingAlloc`] as its `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated.
static CURRENT: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of `CURRENT` since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Bytes ever requested: allocations plus the growth of reallocations.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
/// Allocation and reallocation calls, shrinking ones included.
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// A [`System`] wrapper that tracks live and peak allocation.
pub struct CountingAlloc;

fn on_alloc(n: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    REQUESTED.fetch_add(n, Ordering::Relaxed);
    let live = CURRENT.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_free(n: usize) {
    CURRENT.fetch_sub(n, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's guarantees; the
// bookkeeping only touches atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is exactly `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // this `layout` — the caller's obligation under `GlobalAlloc`.
        unsafe { System.dealloc(ptr, layout) };
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size` is
        // valid for `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                on_alloc(new_size - layout.size());
            } else {
                CALLS.fetch_add(1, Ordering::Relaxed);
                on_free(layout.size() - new_size);
            }
        }
        p
    }
}

/// Bytes live on the heap right now.
pub fn live_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// The most bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Bytes requested since the process started: allocations plus the growth
/// of reallocations.
pub fn requested_bytes() -> usize {
    REQUESTED.load(Ordering::Relaxed)
}

/// Allocation and reallocation calls since the process started.
pub fn calls() -> usize {
    CALLS.load(Ordering::Relaxed)
}

/// Restart the high-water mark from the bytes live now, so the next phase
/// reports its own peak; returns that live count.
pub fn reset_peak() -> usize {
    let live = live_bytes();
    PEAK.store(live, Ordering::Relaxed);
    live
}
