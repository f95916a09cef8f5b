//! Counting global allocator — the measurement substrate behind the
//! `kernel-speed` CI lane's *hard* gate.
//!
//! Wall-clock times vary with the runner; **allocation counts do not**.
//! Every call into the global allocator is a deterministic function of the
//! code path taken, so "the GMRES inner loop performs zero allocations per
//! iteration after warmup" is a machine-independent invariant CI can pin
//! exactly (tolerance 0.0), the same way the telemetry counters pin
//! communication volume.
//!
//! A binary opts in by registering the allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: dd_bench::alloc_count::CountingAlloc = dd_bench::alloc_count::CountingAlloc;
//! ```
//!
//! and then brackets regions of interest with [`count_allocs`], or with
//! [`peak_bytes`] for the heap high-water mark of a region — as exact as
//! the count, since the sizes requested are as deterministic as the calls.
//! Counts are process-global (`Relaxed` atomics): measure on a single
//! thread with no concurrent allocating work, which is exactly what
//! `kernel_bench` does.
//!
//! This module is the sole `unsafe` code in the workspace (the trait
//! itself is unsafe); it delegates every operation verbatim to
//! [`std::alloc::System`] and only updates counters around the calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE`] since [`peak_bytes`] last reset it.
static PEAK: AtomicU64 = AtomicU64::new(0);

/// `size` more bytes are live.
fn grow(size: usize) {
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// `size` fewer bytes are live.
fn shrink(size: usize) {
    LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

/// A `GlobalAlloc` that counts calls and forwards to [`System`].
pub struct CountingAlloc;

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter increments touch no allocator state.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr`/`layout` come from a prior `alloc` on `System`
        // (every allocating method here forwards to it).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is a (possible) fresh allocation; growth patterns like
        // `Vec::push` doubling show up in the count either way.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from a prior `alloc` on `System`.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            // Counted as if the old block were freed after the new one was
            // taken, which is the worst a moving realloc can do.
            grow(new_size);
            shrink(layout.size());
        }
        new_ptr
    }
}

/// Total allocation calls (alloc + alloc_zeroed + realloc) so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Run `f` and return `(allocations during f, f's result)`.
///
/// Meaningful only when [`CountingAlloc`] is installed as the global
/// allocator *and* no other thread allocates concurrently; without the
/// allocator installed it reports 0.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocations();
    let r = f();
    (allocations() - before, r)
}

/// Run `f` and return `(peak heap bytes during f above the level at its
/// start, f's result)`: the high-water mark of the bytes live at once, so a
/// result `f` returns counts in full.
///
/// Meaningful under the same conditions as [`count_allocs`]; without the
/// allocator installed it reports 0.
pub fn peak_bytes<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let r = f();
    (PEAK.load(Ordering::Relaxed) - base, r)
}
