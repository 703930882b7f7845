//! The counting [`GlobalAlloc`] of the allocation-contract binaries
//! (`kernel_alloc`, `session_alloc`, `stream_alloc`, `registry_alloc`).
//! Including this module installs it as the binary's global allocator,
//! which is why each of those suites is its own test binary.
//!
//! The allocator sees every thread in the process, so it counts only on
//! threads that opted in through a `const` thread-local flag: one thread
//! at a time with [`allocations_in`], or the test thread plus every
//! worker of a pool with [`count_on`] and then [`allocations`].

// Each binary uses the half of the API that fits its threads.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use ridfa::core::parallel::ThreadPool;

struct CountingAlloc;

thread_local! {
    /// Allocations this thread made since it opted in; `None` while it
    /// has not. A `const` initializer, so reading it never allocates.
    static OWN: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Allocations made by all opted-in threads.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn record_allocation() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = OWN.try_with(|own| {
        if let Some(n) = own.get() {
            own.set(Some(n + 1));
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    });
}

// SAFETY: delegates verbatim to `System`; the counters are a
// thread-local cell and a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with counting on for the calling thread only and returns the
/// allocations it made there; the thread is opted out afterwards.
pub fn allocations_in(f: impl FnOnce()) -> u64 {
    OWN.with(|own| own.set(Some(0)));
    f();
    OWN.with(|own| own.replace(None)).unwrap_or(0)
}

/// Allocations made so far by every thread [`count_on`] opted in.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Opts the calling thread and every worker of `pool` in to counting,
/// in one barrier batch: each of the `workers + 1` claimants sets its
/// flag and waits for all the others, so every worker takes exactly one
/// task.
pub fn count_on(pool: &ThreadPool) {
    let claimants = pool.num_workers() + 1;
    let barrier = Barrier::new(claimants);
    pool.invoke_all(claimants, |_| {
        OWN.with(|own| own.set(Some(0)));
        barrier.wait();
    });
}
