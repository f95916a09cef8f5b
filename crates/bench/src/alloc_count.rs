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
//! and then brackets regions of interest with [`count_allocs`]. Counts are
//! process-global (`Relaxed` atomics): measure on a single thread with no
//! concurrent allocating work, which is exactly what `kernel_bench` does.
//!
//! This module is the sole `unsafe` code in the workspace (the trait
//! itself is unsafe); it delegates every operation verbatim to
//! [`std::alloc::System`] and only increments counters around the calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A `GlobalAlloc` that counts calls and forwards to [`System`].
pub struct CountingAlloc;

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter increments touch no allocator state.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a prior `alloc` on `System`
        // (every allocating method here forwards to it).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is a (possible) fresh allocation; growth patterns like
        // `Vec::push` doubling show up in the count either way.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from a prior `alloc` on `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
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
