//! Per-thread heap accounting for the per-document memory ceiling.
//!
//! Worker processes under the [`scan::isolate`](crate::scan::isolate)
//! supervisor, and the CLI, install [`TrackingAllocator`] as their
//! `#[global_allocator]`; it forwards every call to [`System`] and counts
//! each thread's own allocations in thread-local cells. [`live_bytes`] is
//! the probe the scan [`Budget`](vbadet_faultpoint::Budget) polls: the
//! budget captures a baseline at document start, on the thread that scans
//! the document, and a document whose allocations exceed
//! `--max-scan-mem-mb` over that baseline trips as a typed
//! `BudgetExceeded::Memory` — surfacing as a `limit-exceeded` record —
//! long before the kernel's OOM killer would have SIGKILLed the worker.
//!
//! The counts are the calling thread's, not the process's: a sibling
//! scanning thread's allocations never count against this thread's
//! document, so a ceiling gives the same outcome at every `--jobs`. A
//! block freed on another thread than the one that allocated it (a record
//! dropped by the collector, say) lowers the freeing thread's count, so a
//! thread's net live bytes can go below zero. [`live_bytes`] therefore
//! maps the signed count onto `u64` in order, by adding a bias of 2^63:
//! the budget's `saturating_sub` against its baseline still sees growth.
//!
//! In a process that has *not* installed the allocator the counts stay at
//! zero, so the probe is always safe to wire up: the ceiling simply never
//! trips.
//!
//! The accounting is deliberately simple — three cell updates per
//! allocation, no size-class bucketing, `realloc` counted as the delta —
//! because the ceiling is a blast-radius bound, not a profiler: being off
//! by an allocator header here or there is irrelevant against caps
//! measured in megabytes. The cells are `const`-initialised and have no
//! destructor, so touching them never allocates, never panics (not even
//! while the thread is being torn down) and never shares a cache line
//! with another thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// One thread's allocation counts. Every update wraps: the allocator must
/// not panic, and a count only matters as a difference.
struct Counts {
    /// Bytes allocated minus bytes freed on this thread.
    live: Cell<i64>,
    /// Allocations made on this thread (a `realloc` growth is one).
    allocs: Cell<u64>,
    /// Bytes those allocations asked for (a `realloc` growth is its delta).
    alloc_bytes: Cell<u64>,
}

thread_local! {
    static COUNTS: Counts = const {
        Counts {
            live: Cell::new(0),
            allocs: Cell::new(0),
            alloc_bytes: Cell::new(0),
        }
    };
}

/// The bias [`live_bytes`] adds to the signed per-thread count.
const LIVE_BIAS: u64 = 1 << 63;

fn grew(bytes: usize) {
    let _ = COUNTS.try_with(|c| {
        c.live.set(c.live.get().wrapping_add(bytes as i64));
        c.allocs.set(c.allocs.get().wrapping_add(1));
        c.alloc_bytes
            .set(c.alloc_bytes.get().wrapping_add(bytes as u64));
    });
}

fn shrank(bytes: usize) {
    let _ = COUNTS.try_with(|c| c.live.set(c.live.get().wrapping_sub(bytes as i64)));
}

/// This thread's net live heap bytes plus a bias of 2^63, so the value
/// orders like the signed count: `2^63` is "nothing net allocated", a
/// lower value means this thread freed more than it allocated. Reads
/// `2^63` when [`TrackingAllocator`] is not installed.
pub fn live_bytes() -> u64 {
    COUNTS
        .try_with(|c| c.live.get() as u64 ^ LIVE_BIAS)
        .unwrap_or(LIVE_BIAS)
}

/// This thread's cumulative `(allocation count, allocated bytes)` since
/// it started (deallocations never decrease it), or `(0, 0)` when
/// [`TrackingAllocator`] is not installed. The scan engine snapshots this
/// around each document to report `alloc.count_per_doc` /
/// `alloc.bytes_per_doc` histograms. `realloc` growth counts as one
/// allocation of the delta; shrinks are free.
pub fn cumulative_allocs() -> (u64, u64) {
    COUNTS
        .try_with(|c| (c.allocs.get(), c.alloc_bytes.get()))
        .unwrap_or((0, 0))
}

/// A pass-through global allocator that counts each thread's live bytes.
///
/// Install in a binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: vbadet::memguard::TrackingAllocator =
///     vbadet::memguard::TrackingAllocator;
/// ```
pub struct TrackingAllocator;

// SAFETY: every method forwards verbatim to `System`; the only additions
// are updates of `const`-initialised, destructor-free thread-local cells,
// which allocate nothing and cannot unwind.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            let old = layout.size();
            if new_size >= old {
                grew(new_size - old);
            } else {
                shrank(old - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reads_the_bias_without_the_allocator_installed() {
        // The test binary does not install TrackingAllocator, so nothing
        // ever touches the counts.
        assert_eq!(live_bytes(), LIVE_BIAS);
        assert_eq!(cumulative_allocs(), (0, 0));
    }

    #[test]
    fn counter_tracks_a_manual_alloc_dealloc_cycle() {
        // Drive the allocator directly rather than installing it. The
        // counts are this thread's, so no other test disturbs the deltas.
        let a = TrackingAllocator;
        let layout = Layout::from_size_align(4096, 8).unwrap();
        let before = live_bytes();
        let (count_before, bytes_before) = cumulative_allocs();
        let p = unsafe { a.alloc(layout) };
        assert!(!p.is_null());
        assert_eq!(live_bytes() - before, 4096);
        let p = unsafe { a.realloc(p, layout, 8192) };
        assert!(!p.is_null());
        assert_eq!(live_bytes() - before, 8192);
        let layout = Layout::from_size_align(8192, 8).unwrap();
        unsafe { a.dealloc(p, layout) };
        assert_eq!(live_bytes(), before);
        // Cumulative counters never shrink: alloc (4096) + realloc growth
        // (4096) = 2 allocations, 8192 bytes; the dealloc changed nothing.
        let (count_after, bytes_after) = cumulative_allocs();
        assert_eq!(count_after - count_before, 2);
        assert_eq!(bytes_after - bytes_before, 8192);
    }

    #[test]
    fn a_free_on_another_thread_lowers_only_that_threads_count() {
        let a = TrackingAllocator;
        let layout = Layout::from_size_align(4096, 8).unwrap();
        let before = live_bytes();
        let p = unsafe { a.alloc(layout) } as usize;
        assert_eq!(live_bytes() - before, 4096);
        // The other thread frees what this one allocated: its count goes
        // below the bias, and this thread still holds the 4096 bytes.
        let freer = std::thread::spawn(move || {
            let start = live_bytes();
            unsafe { TrackingAllocator.dealloc(p as *mut u8, layout) };
            (start, live_bytes())
        });
        let (start, after) = freer.join().unwrap();
        assert_eq!(start, LIVE_BIAS);
        assert_eq!(after, LIVE_BIAS - 4096);
        // A budget baselined before the free sees no growth on that thread.
        assert_eq!(after.saturating_sub(start), 0);
        assert_eq!(live_bytes() - before, 4096);
    }
}
