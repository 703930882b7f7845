//! Integration tests for the parallel runtime: all executors (including
//! the pooled session) agree, the persistent pool behaves like
//! `invokeAll` even under panics, batch recognition matches one-by-one
//! recognition, and chunking edge cases (tiny texts, more chunks than
//! bytes, huge chunk counts) are safe.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ridfa::automata::dfa::{minimize, powerset};
use ridfa::automata::NoCount;
use ridfa::core::csdpa::{
    chunk_spans, recognize, ChunkAutomaton, DfaCa, Executor, Kernel, NfaCa, RidCa, Session,
};
use ridfa::core::parallel::{run_indexed, ThreadPool};
use ridfa::core::ridfa::RiDfa;
use ridfa::workloads::regen::{random_ast, sample_into, RegenConfig};
use ridfa::workloads::{bible, traffic};

#[test]
fn executors_agree_on_real_workload() {
    let rid = RiDfa::from_nfa(&bible::nfa()).minimized();
    let ca = RidCa::new(&rid);
    let text = bible::text(128 << 10, 21);
    let expected = recognize(&ca, &text, 1, Executor::Serial).accepted;
    assert!(expected);
    let mut session = Session::new(3);
    for chunks in [2usize, 5, 16, 61] {
        for executor in [
            Executor::Serial,
            Executor::PerChunk,
            Executor::Team(1),
            Executor::Team(2),
            Executor::Team(7),
            Executor::Team(64),
            Executor::Auto,
            Executor::Pooled,
        ] {
            assert_eq!(
                recognize(&ca, &text, chunks, executor).accepted,
                expected,
                "{chunks} chunks, {executor:?}"
            );
            assert_eq!(
                session
                    .recognize_with(&ca, &text, chunks, executor)
                    .accepted,
                expected,
                "session, {chunks} chunks, {executor:?}"
            );
        }
    }
}

/// Every CA variant: the pooled session must produce mappings (hence
/// verdicts) identical to the spawning executors, across random regexes,
/// texts and chunk counts — the randomized differential suite extended
/// to the session path.
#[test]
fn pooled_session_matches_spawned_executors_on_random_cases() {
    use rand::rngs::{SmallRng, StdRng};
    use rand::{Rng, SeedableRng};

    let config = RegenConfig {
        alphabet: b"ab".to_vec(),
        max_depth: 3,
        max_width: 3,
        star_percent: 35,
    };
    let mut rng = StdRng::seed_from_u64(0x5E55);
    let mut session = Session::new(2);
    for seed in 0..32u64 {
        let ast = random_ast(&config, seed);
        let nfa = ridfa::automata::nfa::glushkov::build(&ast).unwrap();
        let dfa = minimize::minimize(&powerset::determinize(&nfa));
        let rid = RiDfa::from_nfa(&nfa).minimized();
        let mut sampler = SmallRng::seed_from_u64(seed ^ 0xABCD);
        let mut text = Vec::new();
        for _ in 0..rng.gen_range(1..6usize) {
            sample_into(&ast, &mut sampler, &mut text);
        }
        if rng.gen_ratio(1, 2) && !text.is_empty() {
            let i = rng.gen_range(0..text.len());
            text[i] = if text[i] == b'a' { b'b' } else { b'a' };
        }
        let expected = dfa.accepts(&text);
        let chunks = rng.gen_range(1..16usize);

        let dfa_ca = DfaCa::new(&dfa);
        let rid_ca = RidCa::new(&rid);
        let nfa_ca = NfaCa::new(&nfa);
        let conv_dfa = DfaCa::new(&dfa).with_kernel(Kernel::Auto);
        let conv_rid = RidCa::new(&rid).with_kernel(Kernel::Auto);
        assert_eq!(
            session.recognize(&dfa_ca, &text, chunks).accepted,
            expected,
            "seed {seed} dfa ({chunks} chunks, ast {ast})"
        );
        assert_eq!(
            session.recognize(&rid_ca, &text, chunks).accepted,
            expected,
            "seed {seed} rid ({chunks} chunks, ast {ast})"
        );
        assert_eq!(
            session.recognize(&nfa_ca, &text, chunks).accepted,
            expected,
            "seed {seed} nfa ({chunks} chunks, ast {ast})"
        );
        assert_eq!(
            session.recognize(&conv_dfa, &text, chunks).accepted,
            expected,
            "seed {seed} dfa+conv ({chunks} chunks, ast {ast})"
        );
        assert_eq!(
            session.recognize(&conv_rid, &text, chunks).accepted,
            expected,
            "seed {seed} rid+conv ({chunks} chunks, ast {ast})"
        );
        // Chunk-level mapping equivalence: a pooled interior scan is the
        // same scan_into the spawning path runs.
        let cut = text.len() / 2;
        assert_eq!(
            dfa_ca.scan(&text[cut..], &mut NoCount),
            conv_dfa.scan(&text[cut..], &mut NoCount),
            "seed {seed} mapping"
        );
    }
}

#[test]
fn pooled_request_is_recorded_as_degraded_by_free_recognizer() {
    // Regression: `recognize(..., Executor::Pooled)` has no pool and runs
    // Auto; the outcome must record the effective shape, and the session
    // must record Pooled.
    let rid = RiDfa::from_nfa(&traffic::nfa()).minimized();
    let ca = RidCa::new(&rid);
    let text = traffic::text(4096, 5);
    let free = recognize(&ca, &text, 4, Executor::Pooled);
    assert_eq!(free.executor, Executor::Auto, "free path degrades");
    let mut session = Session::new(2);
    assert_eq!(
        session.recognize(&ca, &text, 4).executor,
        Executor::Pooled,
        "session path is genuinely pooled"
    );
    assert_eq!(
        session
            .recognize_with(&ca, &text, 4, Executor::Team(2))
            .executor,
        Executor::Team(2),
        "explicit spawning shapes pass through"
    );
}

/// High chunk counts route the session join through the parallel
/// tree-reduce over `compose_into`: verdicts must match the serial
/// oracle for every CA, accepted and rejected, across reduction shapes
/// (power of two, odd, prime).
#[test]
fn tree_reduce_join_matches_serial_at_high_chunk_counts() {
    let nfa = traffic::nfa();
    let dfa = minimize::minimize(&powerset::determinize(&nfa));
    let rid = RiDfa::from_nfa(&nfa).minimized();
    let dfa_ca = DfaCa::new(&dfa);
    let rid_ca = RidCa::new(&rid);
    let conv_dfa = DfaCa::new(&dfa).with_kernel(Kernel::Auto);
    let conv_rid = RidCa::new(&rid).with_kernel(Kernel::Auto);
    let mut session = Session::new(3);
    for accept in [true, false] {
        let text = if accept {
            traffic::text(96 << 10, 9)
        } else {
            traffic::rejected_text(96 << 10, 9)
        };
        for chunks in [64usize, 127, 128, 200, 333] {
            assert_eq!(
                session.recognize(&dfa_ca, &text, chunks).accepted,
                accept,
                "dfa c={chunks} accept={accept}"
            );
            assert_eq!(
                session.recognize(&rid_ca, &text, chunks).accepted,
                accept,
                "rid c={chunks} accept={accept}"
            );
            assert_eq!(
                session.recognize(&conv_dfa, &text, chunks).accepted,
                accept,
                "dfa+conv c={chunks} accept={accept}"
            );
            assert_eq!(
                session.recognize(&conv_rid, &text, chunks).accepted,
                accept,
                "rid+conv c={chunks} accept={accept}"
            );
        }
    }
}

#[test]
fn batch_path_matches_serial_verdicts_on_traffic() {
    let nfa = traffic::nfa();
    let rid = RiDfa::from_nfa(&nfa).minimized();
    let ca = RidCa::new(&rid).with_kernel(Kernel::Auto);
    let texts: Vec<Vec<u8>> = (0..24)
        .map(|i| {
            if i % 3 == 0 {
                traffic::rejected_text(2048, i)
            } else {
                traffic::text(2048, i)
            }
        })
        .collect();
    let mut session = Session::new(3);
    session.warm(&ca, &texts[0]);
    let verdicts = session.recognize_many(&ca, &texts, 4);
    for (i, text) in texts.iter().enumerate() {
        let expected = recognize(&ca, text, 1, Executor::Serial).accepted;
        assert_eq!(verdicts[i], expected, "text {i}");
        assert_eq!(expected, i % 3 != 0, "generator promise, text {i}");
    }
}

#[test]
fn panicking_chunk_scan_does_not_hang_the_session_pool() {
    // End-to-end shape of the headline bugfix: a panic inside pooled
    // work propagates instead of deadlocking, and the pool survives.
    let pool = ThreadPool::new(2);
    let result = catch_unwind(AssertUnwindSafe(|| {
        pool.invoke_all(6, |i| {
            if i == 4 {
                panic!("chunk scan exploded");
            }
        });
    }));
    assert!(result.is_err());
    let done = AtomicUsize::new(0);
    pool.invoke_all(6, |_| {
        done.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(done.load(Ordering::Relaxed), 6);
}

#[test]
fn run_indexed_handles_skewed_work() {
    // Task 0 is much heavier than the rest; dynamic claiming must still
    // return results in task order.
    let out = run_indexed(4, 40, |i| {
        if i == 0 {
            // A deliberately slow task.
            let mut acc = 0u64;
            for k in 0..2_000_000u64 {
                acc = acc.wrapping_add(k * k);
            }
            (i, acc != 1)
        } else {
            (i, true)
        }
    });
    assert_eq!(out.len(), 40);
    for (i, item) in out.iter().enumerate() {
        assert_eq!(item.0, i);
    }
}

#[test]
fn pool_runs_many_recognitions_concurrently() {
    let rid = Arc::new(RiDfa::from_nfa(&bible::nfa()).minimized());
    let texts: Arc<Vec<Vec<u8>>> = Arc::new((0..16).map(|s| bible::text(8 << 10, s)).collect());
    let accepted = Arc::new(AtomicUsize::new(0));

    let pool = ThreadPool::new(4);
    let (rid2, texts2, accepted2) = (Arc::clone(&rid), Arc::clone(&texts), Arc::clone(&accepted));
    pool.invoke_all(texts.len(), move |i| {
        let ca = RidCa::new(&rid2);
        if recognize(&ca, &texts2[i], 4, Executor::Serial).accepted {
            accepted2.fetch_add(1, Ordering::Relaxed);
        }
    });
    assert_eq!(accepted.load(Ordering::Relaxed), texts.len());
}

#[test]
fn chunk_spans_extreme_cases() {
    assert_eq!(chunk_spans(1, usize::MAX).len(), 1);
    assert_eq!(chunk_spans(usize::from(u16::MAX), 1).len(), 1);
    let spans = chunk_spans(3, 2);
    assert_eq!(spans.iter().map(|s| s.len()).sum::<usize>(), 3);
}

#[test]
fn oversubscription_is_correct() {
    // More chunks than any sane core count: per-chunk threads multiplex.
    let rid = RiDfa::from_nfa(&bible::nfa()).minimized();
    let ca = RidCa::new(&rid);
    let text = bible::text(64 << 10, 3);
    let out = recognize(&ca, &text, 256, Executor::PerChunk);
    assert!(out.accepted);
    assert_eq!(out.num_chunks, 256);
}
