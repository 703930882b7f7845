//! The counting [`GlobalAlloc`] of the allocation-contract binaries
//! (`kernel_alloc`, `session_alloc`, `stream_alloc`, `registry_alloc`).
//! Including this module installs it as the binary's global allocator,
//! which is why each of those suites is its own test binary.
//!
//! The allocator sees every thread in the process, so it counts only on
//! threads that opted in through a `const` thread-local slot, into the
//! counter of the group they joined: one thread with [`allocations_in`],
//! or the test thread plus every worker of a pool with [`count_on`].
//! Groups count apart, so the `#[test]`s of one binary, which libtest
//! runs on parallel threads, never see each other's allocations.

// Each binary uses the half of the API that fits its threads.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use ridfa::core::parallel::ThreadPool;

struct CountingAlloc;

thread_local! {
    /// The counter of the group this thread opted in to; `None` while it
    /// has not. A `const` initializer, so reading it never allocates.
    static GROUP: Cell<Option<&'static AtomicU64>> = const { Cell::new(None) };
}

fn record_allocation() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = GROUP.try_with(|group| {
        if let Some(count) = group.get() {
            count.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// A fresh group counter. Leaked: a test binary makes a handful.
fn new_group() -> &'static AtomicU64 {
    Box::leak(Box::new(AtomicU64::new(0)))
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
    let count = new_group();
    GROUP.with(|group| group.set(Some(count)));
    f();
    GROUP.with(|group| group.set(None));
    count.load(Ordering::Relaxed)
}

/// Opts the calling thread and every worker of `pool` in to one counting
/// group, in one barrier batch: each of the `workers + 1` claimants joins
/// and waits for all the others, so every worker takes exactly one task.
/// The barrier is also what starts every worker before anything is
/// counted: a pool spawns its workers without waiting for them, and a
/// worker's thread start-up allocates. Returns the group's running count
/// of allocations.
pub fn count_on(pool: &ThreadPool) -> impl Fn() -> u64 {
    let count = new_group();
    let claimants = pool.num_workers() + 1;
    let barrier = Barrier::new(claimants);
    let mut locals = vec![(); claimants];
    let mut slots = vec![(); claimants];
    pool.invoke_each(&mut locals, &mut slots, |_, _, _| {
        GROUP.with(|group| group.set(Some(count)));
        barrier.wait();
    });
    move || count.load(Ordering::Relaxed)
}
