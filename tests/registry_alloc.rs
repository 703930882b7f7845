//! Asserts the allocation contract of the registry's incremental scan
//! lanes: once a [`StreamScan`] is warm, a request through
//! `scan_block` + `finish_scan` performs **zero** heap allocations, and
//! the pooled lane (`scan_block_pooled` + `finish_scan`) allocates
//! nothing per request — for every engine a pattern can resolve to. The
//! registry's streams, which every pattern reads through one shared
//! block ring, allocate nothing once warm either.
//!
//! Lives in its own test binary because of the counting allocator of
//! `common::alloc`, which counts only on threads that opted in:
//! `count_on` opts in the test thread and the registry's pool workers,
//! never the harness's other threads.

mod common;

use common::alloc::count_on;
use ridfa::core::csdpa::{EnginePlan, PatternRegistry, RegistryConfig, StreamScan};
use ridfa::core::ridfa::{artifact, RiDfa};
use ridfa::workloads::{fasta, traffic};

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
    let allocations = count_on(reg.pool());

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

#[test]
fn warm_streams_alternating_patterns_share_the_ring_without_allocating() {
    let mut reg = PatternRegistry::new(RegistryConfig {
        num_workers: 2,
        block_size: BLOCK,
        ..RegistryConfig::default()
    });
    // "records" carries a record separator from its artifact, so every
    // switch between the two patterns re-arms the shared ring's
    // separator and resets its carry.
    let rid = RiDfa::from_nfa(&traffic::nfa()).minimized();
    let bytes =
        artifact::ridfa_to_bytes_with_engine(&rid, EnginePlan::Lockstep, None, None, Some(b'\n'));
    reg.insert_artifact("records", &bytes).unwrap();
    reg.insert_nfa_planned("plain", &traffic::nfa(), EnginePlan::Lockstep)
        .unwrap();
    assert_eq!(reg.separator("records"), Some(b'\n'));
    assert_eq!(reg.separator("plain"), None);
    let allocations = count_on(reg.pool());

    let text = traffic::text(BODY, 4);
    let round = |reg: &mut PatternRegistry| {
        for id in ["records", "plain", "records", "plain"] {
            let out = reg.recognize_stream(id, &text[..]).unwrap();
            assert!(out.accepted, "{id}");
            assert_eq!(out.bytes, text.len() as u64, "{id}");
        }
    };
    // One round sizes each pattern's session buffers.
    round(&mut reg);
    let before = allocations();
    round(&mut reg);
    assert_eq!(
        allocations() - before,
        0,
        "warm streams alternating between patterns allocated"
    );
}
