//! Counting allocator: live / peak heap tracking.
//!
//! Install in a binary with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: graphct_trace::CountingAllocator = graphct_trace::CountingAllocator;
//! ```
//!
//! Tracking is unconditional (two relaxed atomics per allocation — far
//! below allocator cost) so peak figures are accurate even for memory
//! allocated before a trace session starts.  The session reports the peak
//! via the `peak_live_bytes` gauge at finish.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] wrapper over [`System`] that tracks live and peak
/// heap bytes.
pub struct CountingAllocator;

#[inline]
fn on_alloc(size: usize) {
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn on_dealloc(size: usize) {
    LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        new_ptr
    }
}

/// Bytes currently allocated and not yet freed.  Zero unless the binary
/// installed [`CountingAllocator`].
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since process start (or the last
/// [`reset_peak`]).
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Restart peak tracking from the current live figure, so a session
/// measures its own high-water mark rather than process history.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}
