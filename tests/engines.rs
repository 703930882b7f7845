//! Engine differential suite: every [`EnginePlan`] engine — speculative
//! lockstep, zero-speculation SFA, and lockstep with feasible-start
//! boundary pruning — must produce the exact verdict of the serial
//! oracle (the NFA / single deterministic RI-DFA run), on every text,
//! under every chunking, executor shape, worker count, and through every
//! layer the plan travels (raw `recognize`, separator-snapped spans, the
//! planned registry, warm streaming sessions, faulty readers).
//!
//! Seeded loops, no external test framework — same house style as
//! `equivalence.rs`.

use std::io::Cursor;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ridfa::automata::nfa::glushkov;
use ridfa::automata::regex::Ast;
use ridfa::automata::ConstructionBudget;
use ridfa::core::csdpa::{
    chunk_spans_snapped, plan, recognize, recognize_spans, EnginePlan, Executor, FeasibleTable,
    Kernel, PatternRegistry, RegistryConfig, RidCa, Session, StreamScan, StreamSession,
};
use ridfa::core::ridfa::RiDfa;
use ridfa::core::sfa::{Sfa, SfaCa};
use ridfa::faults::{state_explosion_pattern, FailingReader, ShortReader, StallingReader};
use ridfa::workloads::regen::{random_ast, sample_into, RegenConfig};

const CASES: u64 = 48;

fn config() -> RegenConfig {
    RegenConfig {
        alphabet: b"ab\n".to_vec(),
        max_depth: 3,
        max_width: 3,
        star_percent: 30,
    }
}

/// A random text mixing member prefixes with arbitrary noise (including
/// bytes outside the pattern alphabet), so both verdicts are exercised.
fn random_text(ast: &ridfa::automata::regex::Ast, rng: &mut SmallRng) -> Vec<u8> {
    if rng.gen_range(0..2u32) == 0 {
        let mut text = Vec::new();
        sample_into(ast, rng, &mut text);
        text
    } else {
        let len = rng.gen_range(0..96usize);
        (0..len)
            .map(|_| b"ab\nc"[rng.gen_range(0..4usize)])
            .collect()
    }
}

fn random_executor(rng: &mut SmallRng) -> Executor {
    match rng.gen_range(0..4u32) {
        0 => Executor::Serial,
        1 => Executor::PerChunk,
        2 => Executor::Team(rng.gen_range(1..5usize)),
        _ => Executor::Auto,
    }
}

#[test]
fn all_engines_agree_with_the_serial_oracle() {
    let budget = ConstructionBudget::with_max_states(1 << 12);
    for seed in 0..CASES {
        let ast = random_ast(&config(), seed);
        let nfa = glushkov::build(&ast).unwrap();
        let rid = RiDfa::from_nfa(&nfa).minimized();
        let feasible = FeasibleTable::build(&rid);
        let sfa = Sfa::build_rid_budgeted(&rid, &budget).ok();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xE1517);
        for _ in 0..6 {
            let text = random_text(&ast, &mut rng);
            let expected = nfa.accepts(&text);
            let chunks = rng.gen_range(1..9usize);
            let executor = random_executor(&mut rng);
            let lockstep = recognize(&RidCa::new(&rid), &text, chunks, executor);
            assert_eq!(expected, lockstep.accepted, "lockstep: {ast} on {text:?}");
            let pruned = recognize(
                &RidCa::new(&rid)
                    .with_kernel(Kernel::Auto)
                    .with_feasible(&feasible),
                &text,
                chunks,
                executor,
            );
            assert_eq!(expected, pruned.accepted, "feasible: {ast} on {text:?}");
            if let Some(sfa) = &sfa {
                let zero = recognize(&SfaCa::new(sfa), &text, chunks, executor);
                assert_eq!(expected, zero.accepted, "sfa: {ast} on {text:?}");
            }
        }
    }
}

#[test]
fn all_engines_agree_on_separator_snapped_spans() {
    // Record-structured texts cut at snapped boundaries: the spans are
    // irregular (and some cuts merge), so this exercises compositions the
    // even chunking never produces.
    let budget = ConstructionBudget::with_max_states(1 << 12);
    for seed in 0..CASES {
        let ast = random_ast(&config(), seed);
        let nfa = glushkov::build(&ast).unwrap();
        let rid = RiDfa::from_nfa(&nfa).minimized();
        let feasible = FeasibleTable::build(&rid);
        let sfa = Sfa::build_rid_budgeted(&rid, &budget).ok();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x51A9);
        for _ in 0..4 {
            let text = random_text(&ast, &mut rng);
            let expected = nfa.accepts(&text);
            let mut spans = Vec::new();
            chunk_spans_snapped(&text, rng.gen_range(1..9usize), b'\n', &mut spans);
            let executor = random_executor(&mut rng);
            let lockstep = recognize_spans(&RidCa::new(&rid), &text, &spans, executor);
            assert_eq!(expected, lockstep.accepted, "lockstep: {ast} on {text:?}");
            let pruned = recognize_spans(
                &RidCa::new(&rid)
                    .with_kernel(Kernel::Auto)
                    .with_feasible(&feasible),
                &text,
                &spans,
                executor,
            );
            assert_eq!(expected, pruned.accepted, "feasible: {ast} on {text:?}");
            if let Some(sfa) = &sfa {
                let zero = recognize_spans(&SfaCa::new(sfa), &text, &spans, executor);
                assert_eq!(expected, zero.accepted, "sfa: {ast} on {text:?}");
            }
        }
    }
}

/// Appends samples of `ast` until the text holds at least `min_len`
/// bytes, so `ast`'s star accepts it; `None` when `ast` samples too few
/// bytes to get there.
fn long_sample(ast: &Ast, rng: &mut SmallRng, min_len: usize) -> Option<Vec<u8>> {
    let mut text = Vec::new();
    for _ in 0..min_len {
        if text.len() >= min_len {
            return Some(text);
        }
        sample_into(ast, rng, &mut text);
    }
    None
}

/// Random patterns the long-text test checks (each costs three passes
/// over three texts of 64 KiB or more).
const LONG_PATTERNS: usize = 12;

#[test]
fn long_texts_agree_through_sessions_streams_and_pooled_blocks() {
    // The random texts above are far shorter than the SFA walk's split
    // length. These 64 KiB+ texts reach its four-chain walk in session
    // chunks, stream blocks and pooled spans alike.
    let mut session = Session::new(2);
    let mut stream = StreamSession::new(2, 64 << 10);
    let mut rng = SmallRng::seed_from_u64(0x10C4E);
    let mut patterns = 0;
    for seed in 0..CASES {
        let inner = random_ast(&config(), seed);
        let Some(accepted) = long_sample(&inner, &mut rng, 64 << 10) else {
            continue;
        };
        let ast = Ast::star(inner);
        let mut registry = PatternRegistry::new(RegistryConfig {
            num_workers: 3,
            ..RegistryConfig::default()
        });
        if registry
            .insert_regex_planned("p", &ast.to_string(), EnginePlan::Sfa)
            .is_err()
        {
            continue; // the function space exploded
        }
        let rid = RiDfa::from_nfa(&glushkov::build(&ast).unwrap()).minimized();
        let sfa = Sfa::build_rid_budgeted(&rid, &ConstructionBudget::UNLIMITED).unwrap();
        let ca = SfaCa::new(&sfa);
        // The sample, one byte flipped inside the alphabet (either
        // verdict), and one byte outside it near the end (rejected).
        let mut flipped = accepted.clone();
        let at = rng.gen_range(0..flipped.len());
        flipped[at] = b"ab\n"[rng.gen_range(0..3usize)];
        let mut killed = accepted.clone();
        let at = killed.len() - rng.gen_range(1..64usize);
        killed[at] = b'c';
        for text in [accepted, flipped, killed] {
            let expected = rid.accepts(&text);
            let chunks = rng.gen_range(1..5usize);
            let batch = session.recognize(&ca, &text, chunks);
            assert_eq!(expected, batch.accepted, "session: {ast}, {chunks} chunks");
            let streamed = stream.recognize_stream(&ca, &text[..]).unwrap();
            assert_eq!(expected, streamed.accepted, "stream: {ast}");
            let mut scan = StreamScan::new();
            for block in text.chunks(128 << 10) {
                registry.scan_block_pooled("p", &mut scan, block).unwrap();
            }
            let pooled = registry.finish_scan("p", &mut scan).unwrap();
            assert_eq!(expected, pooled, "scan_block_pooled: {ast}");
        }
        patterns += 1;
        if patterns == LONG_PATTERNS {
            return;
        }
    }
    panic!("only {patterns} of {LONG_PATTERNS} patterns had long SFA cases");
}

/// One registry per concrete plan, all serving the same pattern — the
/// planned entries must agree with the oracle through the full
/// session/stream plumbing, across worker counts.
fn planned_registries(pattern: &str, num_workers: usize) -> Vec<(EnginePlan, PatternRegistry)> {
    [
        EnginePlan::Lockstep,
        EnginePlan::Sfa,
        EnginePlan::FeasibleStart,
    ]
    .into_iter()
    .map(|plan| {
        let mut registry = PatternRegistry::new(RegistryConfig {
            num_workers,
            block_size: 64,
            ..RegistryConfig::default()
        });
        registry.insert_regex_planned("p", pattern, plan).unwrap();
        assert_eq!(registry.plan("p"), Some(plan));
        (plan, registry)
    })
    .collect()
}

#[test]
fn planned_registries_agree_end_to_end() {
    for &pattern in &["(a|b)*abb", "(ab)*(a|(b)*)", "((a|b)(a|b))*"] {
        let ast = ridfa::automata::regex::parse(pattern).unwrap();
        let nfa = glushkov::build(&ast).unwrap();
        for workers in [1usize, 3] {
            let mut registries = planned_registries(pattern, workers);
            let mut rng = SmallRng::seed_from_u64(0xD1FF ^ workers as u64);
            for round in 0..24 {
                let text = random_text(&ast, &mut rng);
                let expected = nfa.accepts(&text);
                let chunks = rng.gen_range(0..7usize);
                for (plan, registry) in registries.iter_mut() {
                    let out = registry.recognize("p", &text, chunks).unwrap();
                    assert_eq!(
                        expected,
                        out.accepted,
                        "{} batch: {pattern} round {round} on {text:?}",
                        plan.name()
                    );
                    let streamed = registry
                        .recognize_stream("p", ShortReader::new(Cursor::new(text.clone()), 3))
                        .unwrap();
                    assert_eq!(
                        expected,
                        streamed.accepted,
                        "{} stream: {pattern} round {round} on {text:?}",
                        plan.name()
                    );
                }
            }
        }
    }
}

#[test]
fn planned_registries_agree_under_faulty_readers() {
    let pattern = "(a|b)*abb";
    let ast = ridfa::automata::regex::parse(pattern).unwrap();
    let nfa = glushkov::build(&ast).unwrap();
    let mut registries = planned_registries(pattern, 2);
    let mut rng = SmallRng::seed_from_u64(0xFA17);
    for _ in 0..12 {
        let text = random_text(&ast, &mut rng);
        let expected = nfa.accepts(&text);
        for (plan, registry) in registries.iter_mut() {
            // Retryable faults (EINTR bursts, 1-byte reads) must not
            // change any engine's verdict.
            let stalled = registry
                .recognize_stream(
                    "p",
                    StallingReader::new(ShortReader::new(Cursor::new(text.clone()), 1), 2),
                )
                .unwrap();
            assert_eq!(expected, stalled.accepted, "{} on {text:?}", plan.name());
            // A mid-stream hard fault fails typed for every engine — no
            // plan may turn a broken pipe into a verdict. (The SFA and
            // pruned engines can legitimately *reject* early before
            // reaching the fault byte; accepting is the impossibility.)
            if text.len() > 4 {
                let result = registry.recognize_stream(
                    "p",
                    FailingReader::would_block(Cursor::new(text.clone()), text.len() - 2),
                );
                if let Ok(out) = result {
                    assert!(
                        !out.accepted,
                        "{} accepted a stream whose tail never arrived: {text:?}",
                        plan.name()
                    );
                }
            }
        }
    }
}

#[test]
fn registry_auto_selection_is_pinned_end_to_end() {
    // The integration-level twin of `plan::engine_selection_matrix_is_pinned`:
    // Auto resolution through a real registry lands where the matrix says.
    let mut registry = PatternRegistry::new(RegistryConfig {
        num_workers: 2,
        ..RegistryConfig::default()
    });

    // Small convergent pattern: the trial SFA build finishes far under the
    // caps, so Auto must pick the zero-speculation engine.
    registry.insert_regex("small", "(a|b)*abb").unwrap();
    assert_eq!(registry.plan("small"), Some(EnginePlan::Sfa));

    // A state-explosion pattern: the capped trial build trips its budget,
    // and the wide interface makes boundary pruning the fallback.
    let explosive = state_explosion_pattern(14);
    registry.insert_regex("wide", &explosive).unwrap();
    assert_eq!(registry.plan("wide"), Some(EnginePlan::FeasibleStart));
    let rid = RiDfa::from_nfa(
        &glushkov::build(&ridfa::automata::regex::parse(&explosive).unwrap()).unwrap(),
    )
    .minimized();
    assert!(
        rid.interface().len() >= plan::FEASIBLE_MIN_INTERFACE,
        "explosion pattern no longer has a wide interface; pin a new one"
    );

    // The resolved plans still answer correctly.
    assert!(registry.recognize("small", b"ababb", 4).unwrap().accepted);
    assert!(!registry.recognize("small", b"abab", 4).unwrap().accepted);
}
