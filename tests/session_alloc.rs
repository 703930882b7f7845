//! Asserts the session's allocation contract: once a [`Session`] is warm
//! (scratches pre-warmed, mapping and join buffers sized by a first
//! recognition), recognizing the next text — counted or not — performs
//! **zero** heap allocations, across the caller, the pool dispatch, and
//! every worker thread.
//!
//! Lives in its own test binary because of the counting allocator of
//! `common::alloc`, which counts only on threads that opted in:
//! `count_on` opts in the test thread and the session's pool workers,
//! never the harness's other threads.

mod common;

use common::alloc::count_on;
use ridfa::core::csdpa::{Kernel, RidCa, Session};
use ridfa::core::ridfa::RiDfa;
use ridfa::workloads::traffic;

#[test]
fn warm_session_recognizes_and_batches_without_allocating() {
    let nfa = traffic::nfa();
    let rid = RiDfa::from_nfa(&nfa).minimized();
    let conv = RidCa::new(&rid).with_kernel(Kernel::Auto);
    let plain = RidCa::new(&rid);

    // Two equal-length texts: the second must ride entirely on buffers
    // sized by the first.
    let text1 = traffic::text(32 << 10, 1);
    let text2 = traffic::text(text1.len(), 2);
    let text2 = &text2[..text2.len().min(text1.len())];

    let mut session = Session::new(2);
    let allocations = count_on(session.pool());
    // Deterministically warm every per-worker scratch (task claiming is
    // racy, so a first recognition alone might leave a slow worker's
    // scratch cold), then size mapping/span/join buffers with full
    // recognitions.
    session.warm(&conv, &text1[..4096]);
    assert!(session.recognize(&conv, &text1, 8).accepted);
    assert!(session.recognize(&conv, &text1, 8).accepted);

    let before = allocations();
    let outcome = session.recognize(&conv, text2, 8);
    assert_eq!(
        allocations() - before,
        0,
        "a warm pooled recognition must not allocate"
    );
    assert!(outcome.accepted);

    // The contract holds for the per-run (non-convergent) CA too.
    session.warm(&plain, &text1[..4096]);
    assert!(session.recognize(&plain, &text1, 8).accepted);
    let before = allocations();
    assert!(session.recognize(&plain, text2, 8).accepted);
    assert_eq!(
        allocations() - before,
        0,
        "warm per-run recognition must not allocate"
    );

    // Batch path: recognize_many returns a fresh Vec<bool> (one
    // allocation) but the reach/join machinery itself must stay
    // allocation-free once warm.
    let texts: Vec<Vec<u8>> = (0..8).map(|s| traffic::text(4 << 10, s)).collect();
    session.warm(&conv, &texts[0]);
    let warm1 = session.recognize_many(&conv, &texts, 4);
    let warm2 = session.recognize_many(&conv, &texts, 4);
    assert_eq!(warm1, warm2);

    let before = allocations();
    let verdicts = session.recognize_many(&conv, &texts, 4);
    let delta = allocations() - before;
    assert!(
        delta <= 1,
        "warm batch allocated {delta} times (expected only the verdict vec)"
    );
    assert!(verdicts.iter().all(|&v| v));
}

#[test]
fn warm_counted_recognition_allocates_nothing() {
    let rid = RiDfa::from_nfa(&traffic::nfa()).minimized();
    let ca = RidCa::new(&rid).with_kernel(Kernel::Auto);
    let text1 = traffic::text(32 << 10, 1);
    let text2 = traffic::text(text1.len(), 2);
    let text2 = &text2[..text2.len().min(text1.len())];

    let mut session = Session::new(2);
    let allocations = count_on(session.pool());
    session.warm(&ca, &text1[..4096]);
    let warm = session.recognize_counted(&ca, &text1, 8);
    assert!(warm.accepted);

    // The tally is one atomic counter on the caller's stack: a counted
    // recognition rides on the same warm buffers as an uncounted one.
    let before = allocations();
    let counted = session.recognize_counted(&ca, text2, 8);
    assert_eq!(
        allocations() - before,
        0,
        "a warm counted recognition must not allocate"
    );
    assert!(counted.accepted);
    assert!(counted.transitions >= text2.len() as u64);
}
