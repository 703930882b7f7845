//! Asserts the allocation contract of the registry's incremental scan
//! lanes: once a [`StreamScan`] is warm, a request through
//! `scan_block` + `finish_scan` performs **zero** heap allocations, and
//! the pooled lane (`scan_block_pooled` + `finish_scan`) allocates
//! nothing per request — for every engine a pattern can resolve to.
//!
//! Lives in its own test binary with a **single** test function: the
//! counting [`GlobalAlloc`] observes every thread in the process,
//! including the registry's pool workers, so any parallel activity would
//! make the counter meaningless.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ridfa::core::csdpa::{EnginePlan, PatternRegistry, RegistryConfig, StreamScan};
use ridfa::workloads::{fasta, traffic};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Body size of one request.
const BODY: usize = 256 << 10;

/// Bytes handed to one `scan_block*` call: a body arrives in four
/// blocks, so every request composes interior blocks onto its prefix.
const BLOCK: usize = 64 << 10;

/// Warm pooled requests counted per entry.
const POOLED_REQUESTS: u64 = 64;

/// One request: the body in [`BLOCK`]-sized pieces, then the verdict.
fn request(reg: &mut PatternRegistry, id: &str, scan: &mut StreamScan, body: &[u8], pooled: bool) {
    for block in body.chunks(BLOCK) {
        if pooled {
            reg.scan_block_pooled(id, scan, block).unwrap();
        } else {
            reg.scan_block(id, scan, block).unwrap();
        }
    }
    assert!(reg.finish_scan(id, scan).unwrap(), "{id}: body rejected");
}

#[test]
fn warm_scan_lanes_do_not_allocate_per_request() {
    let mut reg = PatternRegistry::new(RegistryConfig {
        num_workers: 2,
        ..RegistryConfig::default()
    });
    let entries = [
        (
            "lockstep",
            EnginePlan::Lockstep,
            traffic::nfa(),
            traffic::text(BODY, 1),
        ),
        (
            "feasible",
            EnginePlan::FeasibleStart,
            traffic::nfa(),
            traffic::text(BODY, 2),
        ),
        ("sfa", EnginePlan::Sfa, fasta::nfa(), fasta::text(BODY, 3)),
    ];
    for (id, plan, nfa, _) in &entries {
        reg.insert_nfa_planned(id, nfa, *plan).unwrap();
        assert_eq!(reg.plan(id), Some(*plan));
    }

    for (id, _, _, body) in &entries {
        // Serial lane: one warm request sizes every buffer of the scan;
        // the identical second request must ride on them.
        let mut scan = StreamScan::new();
        request(&mut reg, id, &mut scan, body, false);
        let before = allocations();
        request(&mut reg, id, &mut scan, body, false);
        assert_eq!(
            allocations() - before,
            0,
            "{id}: a warm scan_block request allocated"
        );

        // Pooled lane: which claimant scans which span is racy, so a
        // claimant's scratch may first warm up inside the counted run
        // (a few allocations, once). A per-request allocation would
        // reach the bound on its own.
        let mut scan = StreamScan::new();
        request(&mut reg, id, &mut scan, body, true);
        let before = allocations();
        for _ in 0..POOLED_REQUESTS {
            request(&mut reg, id, &mut scan, body, true);
        }
        let delta = allocations() - before;
        assert!(
            delta < POOLED_REQUESTS,
            "{id}: {POOLED_REQUESTS} warm scan_block_pooled requests allocated {delta} times"
        );
    }
}
