//! Asserts the streaming allocation contract: once a [`StreamSession`]
//! is warm (scratches, ring mapping slots, and composition accumulators
//! sized by `warm` plus one full stream), recognizing a whole stream —
//! dozens of blocks of reads, scans, and eager compositions — performs
//! **zero** heap allocations, across the caller, the pool dispatch, and
//! every worker thread. Together with the constant block ring
//! (`buffer_bytes`), this is the O(workers · block_size) memory proof.
//!
//! Lives in its own test binary because of the counting allocator of
//! `common::alloc`, which counts only on threads that opted in:
//! `count_on` opts in the test thread and the session's pool workers,
//! never the harness's other threads.

mod common;

use common::alloc::{allocations, count_on};
use ridfa::core::csdpa::{Kernel, RidCa, StreamSession};
use ridfa::core::ridfa::RiDfa;
use ridfa::workloads::traffic;

#[test]
fn warm_stream_session_allocates_nothing_per_block() {
    let nfa = traffic::nfa();
    let rid = RiDfa::from_nfa(&nfa).minimized();
    let conv = RidCa::new(&rid).with_kernel(Kernel::Auto);
    let plain = RidCa::new(&rid);

    // In-memory streams (a slice is a `Read`), so the reader itself is
    // allocation-free and the counter sees only the session.
    let text1 = traffic::text(4 << 20, 1);
    let text2 = traffic::text(4 << 20, 2);

    // 64 KiB blocks → the 4 MiB streams cross ~64 block boundaries each.
    let mut session = StreamSession::new(2, 64 << 10);
    count_on(session.pool());
    session.warm(&conv, &text1[..64 << 10]);
    let first = session.recognize_stream(&conv, &text1[..]).unwrap();
    assert!(first.accepted);

    let before = allocations();
    let out = session.recognize_stream(&conv, &text2[..]).unwrap();
    assert_eq!(
        allocations() - before,
        0,
        "a warm stream recognition must not allocate (streamed {} blocks)",
        out.blocks
    );
    assert!(out.accepted);
    assert_eq!(out.bytes, text2.len() as u64);
    assert!(
        out.blocks >= 60,
        "expected dozens of blocks, got {}",
        out.blocks
    );

    // Same contract for the per-run (non-convergent) CA.
    session.warm(&plain, &text1[..64 << 10]);
    let first = session.recognize_stream(&plain, &text1[..]).unwrap();
    assert!(first.accepted);
    let before = allocations();
    assert!(
        session
            .recognize_stream(&plain, &text2[..])
            .unwrap()
            .accepted
    );
    assert_eq!(
        allocations() - before,
        0,
        "warm per-run stream recognition must not allocate"
    );

    // Pin the SIMD kernel explicitly. `Auto` already routes 64 KiB
    // blocks through it on AVX2 hosts, but pinning keeps this proof
    // meaningful when feature detection changes; without AVX2 the pin
    // demotes to the shared lockstep kernel, which has the same
    // contract.
    let simd = RidCa::new(&rid).with_kernel(Kernel::Simd);
    session.warm(&simd, &text1[..64 << 10]);
    let first = session.recognize_stream(&simd, &text1[..]).unwrap();
    assert!(first.accepted);
    let before = allocations();
    assert!(
        session
            .recognize_stream(&simd, &text2[..])
            .unwrap()
            .accepted
    );
    assert_eq!(
        allocations() - before,
        0,
        "warm SIMD stream recognition must not allocate"
    );

    // Twice the stream, same allocation count (i.e. zero): per-block cost
    // is exactly nothing, not merely amortized.
    let long = traffic::text(8 << 20, 3);
    session.warm(&conv, &text1[..64 << 10]);
    assert!(
        session
            .recognize_stream(&conv, &text1[..])
            .unwrap()
            .accepted
    );
    let before = allocations();
    assert!(session.recognize_stream(&conv, &long[..]).unwrap().accepted);
    assert_eq!(
        allocations() - before,
        0,
        "doubling the stream length must not introduce allocations"
    );
}
