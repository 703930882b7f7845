//! Differential tests for the SIMD reach kernel: the vectorized scan
//! (gathered lockstep stepping, the interleaved multi-chain finish and
//! the checkpointed single-run stride walk) must produce λ mappings
//! byte-identical to the scalar kernels — and verdicts identical to the
//! serial DFA — across the standard benchmarks, unaligned chunk starts,
//! random span layouts and every chunk-automaton type.
//!
//! Transition **counts** are deliberately never compared here: the SIMD
//! kernel charges the work it actually performs, including speculation
//! that the stride-repair pass later discards, so its counts legitimately
//! differ from the scalar kernels'. Only mappings and verdicts are
//! contractual.
//!
//! On hosts without AVX2 (or with `RIDFA_NO_SIMD` set) the pinned
//! [`Kernel::Simd`] demotes to the shared scalar lockstep kernel, so the
//! suite degrades to a tautology rather than a failure — CI runs it both
//! forced-on and forced-off.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ridfa::automata::dfa::{minimize, powerset};
use ridfa::automata::NoCount;
use ridfa::core::csdpa::{
    recognize, recognize_spans, ChunkAutomaton, DfaCa, Executor, FeasibleTable, Kernel, NfaCa,
    RidCa,
};
use ridfa::core::ridfa::RiDfa;
use ridfa::workloads::standard_benchmarks;

/// Chunk starts at odd distances into the text: the SIMD paths promise
/// correctness for **any** byte offset, not just vector-width multiples.
const OFFSETS: [usize; 4] = [0, 1, 13, 63];

/// Long enough that a converging run leaves tens of KiB of single-run
/// tail — well past the stride-walk floor — after the gather phase.
const TEXT_LEN: usize = 64 << 10;

#[test]
fn simd_mappings_match_the_scalar_kernels_at_unaligned_offsets() {
    for b in standard_benchmarks() {
        let dfa = minimize::minimize(&powerset::determinize(&b.nfa));
        let rid = RiDfa::from_nfa(&b.nfa).minimized();
        for (text, label) in [
            ((b.accepted)(TEXT_LEN, 29), "accepted"),
            ((b.rejected)(TEXT_LEN, 29), "rejected"),
        ] {
            // Per-run oracle once per text; the scalar lockstep kernel is
            // already proven identical to it in tests/convergence.rs, so
            // it serves as the (much cheaper) oracle at the other offsets.
            let per_run = DfaCa::new(&dfa).scan(&text, &mut NoCount);
            assert_eq!(
                per_run,
                DfaCa::new(&dfa)
                    .with_kernel(Kernel::Simd)
                    .scan(&text, &mut NoCount),
                "{} {label}: simd dfa mapping != per-run oracle",
                b.name
            );
            let per_run_rid = RidCa::new(&rid).scan(&text, &mut NoCount);
            assert_eq!(
                per_run_rid,
                RidCa::new(&rid)
                    .with_kernel(Kernel::Simd)
                    .scan(&text, &mut NoCount),
                "{} {label}: simd rid mapping != per-run oracle",
                b.name
            );
            for off in OFFSETS {
                let chunk = &text[off..];
                assert_eq!(
                    DfaCa::new(&dfa)
                        .with_kernel(Kernel::LockstepShared)
                        .scan(chunk, &mut NoCount),
                    DfaCa::new(&dfa)
                        .with_kernel(Kernel::Simd)
                        .scan(chunk, &mut NoCount),
                    "{} {label}: simd dfa mapping diverged at offset {off}",
                    b.name
                );
                assert_eq!(
                    RidCa::new(&rid)
                        .with_kernel(Kernel::LockstepShared)
                        .scan(chunk, &mut NoCount),
                    RidCa::new(&rid)
                        .with_kernel(Kernel::Simd)
                        .scan(chunk, &mut NoCount),
                    "{} {label}: simd rid mapping diverged at offset {off}",
                    b.name
                );
            }
        }
    }
}

#[test]
fn feasible_start_pruning_composes_with_the_simd_kernel() {
    for b in standard_benchmarks() {
        let rid = RiDfa::from_nfa(&b.nfa).minimized();
        let table = FeasibleTable::build(&rid);
        for (text, label) in [
            ((b.accepted)(TEXT_LEN, 31), "accepted"),
            ((b.rejected)(TEXT_LEN, 31), "rejected"),
        ] {
            for off in OFFSETS {
                let chunk = &text[off..];
                let scalar = RidCa::new(&rid)
                    .with_kernel(Kernel::LockstepShared)
                    .with_feasible(&table)
                    .scan(chunk, &mut NoCount);
                let simd = RidCa::new(&rid)
                    .with_kernel(Kernel::Simd)
                    .with_feasible(&table)
                    .scan(chunk, &mut NoCount);
                assert_eq!(
                    scalar, simd,
                    "{} {label}: pruned simd mapping diverged at offset {off}",
                    b.name
                );
            }
        }
    }
}

#[test]
fn simd_verdicts_agree_under_random_span_layouts() {
    // Random uneven spans: tiny slivers (below the SIMD floor, scanned
    // scalar), mid-size chunks (gather phase only) and long chunks
    // (gather + stride walk) all mixed in one recognition.
    let mut rng = StdRng::seed_from_u64(0x51BD);
    for b in standard_benchmarks() {
        let dfa = minimize::minimize(&powerset::determinize(&b.nfa));
        let rid = RiDfa::from_nfa(&b.nfa).minimized();
        let table = FeasibleTable::build(&rid);
        for (text, expected) in [
            ((b.accepted)(2 * TEXT_LEN, 37), true),
            ((b.rejected)(2 * TEXT_LEN, 37), false),
        ] {
            for _ in 0..3 {
                let mut cuts: Vec<usize> = (0..rng.gen_range(2..10usize))
                    .map(|_| rng.gen_range(0..=text.len()))
                    .collect();
                cuts.push(0);
                cuts.push(text.len());
                cuts.sort_unstable();
                cuts.dedup();
                let spans: Vec<_> = cuts.windows(2).map(|w| w[0]..w[1]).collect();
                let conv_dfa = DfaCa::new(&dfa).with_kernel(Kernel::Simd);
                let conv_rid = RidCa::new(&rid).with_kernel(Kernel::Simd);
                let pruned = RidCa::new(&rid)
                    .with_kernel(Kernel::Simd)
                    .with_feasible(&table);
                for (verdict, ca_name) in [
                    (
                        recognize_spans(&conv_dfa, &text, &spans, Executor::Auto).accepted,
                        "convergent dfa",
                    ),
                    (
                        recognize_spans(&conv_rid, &text, &spans, Executor::Auto).accepted,
                        "convergent rid",
                    ),
                    (
                        recognize_spans(&pruned, &text, &spans, Executor::Auto).accepted,
                        "feasible rid",
                    ),
                ] {
                    assert_eq!(
                        verdict, expected,
                        "{} {ca_name} with simd kernel, spans {spans:?}",
                        b.name
                    );
                }
            }
        }
    }
}

#[test]
fn all_six_chunk_automata_agree_with_simd_in_the_mix() {
    // With AVX2 present, `Auto` routes every chunk here (≥ 10 KiB)
    // through the SIMD kernel for the convergent CAs, while the plain
    // CAs stay scalar — the verdicts must still be unanimous.
    for b in standard_benchmarks() {
        let dfa = minimize::minimize(&powerset::determinize(&b.nfa));
        let rid = RiDfa::from_nfa(&b.nfa).minimized();
        let table = FeasibleTable::build(&rid);
        for (text, expected) in [
            ((b.accepted)(32 << 10, 41), true),
            ((b.rejected)(32 << 10, 41), false),
        ] {
            let verdicts = [
                (
                    "nfa",
                    recognize(&NfaCa::new(&b.nfa), &text, 3, Executor::Auto).accepted,
                ),
                (
                    "dfa",
                    recognize(&DfaCa::new(&dfa), &text, 3, Executor::Auto).accepted,
                ),
                (
                    "rid",
                    recognize(&RidCa::new(&rid), &text, 3, Executor::Auto).accepted,
                ),
                (
                    "convergent dfa",
                    recognize(
                        &DfaCa::new(&dfa).with_kernel(Kernel::Simd),
                        &text,
                        3,
                        Executor::Auto,
                    )
                    .accepted,
                ),
                (
                    "convergent rid",
                    recognize(
                        &RidCa::new(&rid).with_kernel(Kernel::Simd),
                        &text,
                        3,
                        Executor::Auto,
                    )
                    .accepted,
                ),
                (
                    "feasible rid",
                    recognize(
                        &RidCa::new(&rid)
                            .with_kernel(Kernel::Simd)
                            .with_feasible(&table),
                        &text,
                        3,
                        Executor::Auto,
                    )
                    .accepted,
                ),
            ];
            for (ca_name, verdict) in verdicts {
                assert_eq!(verdict, expected, "{} via {ca_name}", b.name);
            }
        }
    }
}
