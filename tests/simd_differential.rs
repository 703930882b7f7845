//! Differential tests for the lockstep kernel's finishes: the fused scan
//! (merging; then survivors on an absorbing row keep it unwalked, and the
//! others take the checkpointed stride walk one at a time or, on short
//! rests, the interleaved multi-chain finish) must produce
//! λ mappings byte-identical to the per-run kernel — and verdicts
//! identical to the serial DFA — across the standard benchmarks,
//! never-merging counters, unaligned chunk starts, random span layouts
//! and every chunk-automaton type. First chunks that take the stride walk
//! are checked against the byte-serial first chunk and `accepts_serial`,
//! at lengths around its stride floor and window boundaries and on
//! languages built to stress its re-seeding.
//!
//! Transition **counts** are deliberately never compared here: the
//! stride walk charges the work it actually performs, including
//! speculation that its repair pass later discards, so its counts
//! legitimately differ from the per-run kernel's. Only mappings and
//! verdicts are contractual. The kernel is the same scalar code on every
//! host; CI runs the suite with the vectorized byte classifier on, off
//! (`RIDFA_NO_SIMD=1`) and under `-Ctarget-cpu=native`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ridfa::automata::dfa::{minimize, powerset, Dfa};
use ridfa::automata::nfa::{glushkov, Nfa};
use ridfa::automata::regex::parse;
use ridfa::automata::NoCount;
use ridfa::core::csdpa::kernel::{STRIDE_MIN, WINDOW};
use ridfa::core::csdpa::{
    recognize, recognize_spans, ChunkAutomaton, DfaCa, Executor, FeasibleTable, Kernel, NfaCa,
    RidCa,
};
use ridfa::core::ridfa::RiDfa;
use ridfa::workloads::standard_benchmarks;

/// Chunk starts at odd distances into the text: the kernel promises
/// correctness for **any** byte offset, not just vector-width multiples.
const OFFSETS: [usize; 4] = [0, 1, 13, 63];

/// Long enough that a converging run leaves tens of KiB of single-run
/// tail — well past the stride-walk floor — after the merging phase.
const TEXT_LEN: usize = 64 << 10;

/// First-chunk lengths around the stride walk's edges: empty, one byte,
/// the stride floor ±1, one window ±1, and three windows + 3, which
/// crosses window boundaries inside one walk.
const WALK_LENGTHS: [usize; 7] = [
    0,
    1,
    STRIDE_MIN - 1,
    STRIDE_MIN + 1,
    WINDOW - 1,
    WINDOW + 1,
    3 * WINDOW + 3,
];

/// Asserts that `ca`'s first-chunk mapping of `chunk` under
/// `LockstepShared` and `Auto` equals the byte-serial (`PerRun`) one, and
/// that its verdict is `accepts_serial`'s.
fn assert_first_chunk_agrees<CA: ChunkAutomaton>(
    plain: CA,
    with_kernel: impl Fn(Kernel) -> CA,
    chunk: &[u8],
    what: &str,
) where
    CA::Mapping: PartialEq + std::fmt::Debug,
{
    let serial = plain.scan_first(chunk, &mut NoCount);
    let expected = plain.accepts_serial(chunk, &mut NoCount);
    assert_eq!(plain.accepts_mapping(&serial), expected, "{what}: per-run");
    for kernel in [Kernel::LockstepShared, Kernel::Auto] {
        let ca = with_kernel(kernel);
        let walked = ca.scan_first(chunk, &mut NoCount);
        assert_eq!(walked, serial, "{what}: {kernel:?} first chunk");
        assert_eq!(ca.accepts_mapping(&walked), expected, "{what}: {kernel:?}");
    }
}

/// Both deterministic CAs' first chunks of `chunk` against their oracles.
fn assert_first_chunks_agree(dfa: &Dfa, rid: &RiDfa, chunk: &[u8], what: &str) {
    assert_first_chunk_agrees(
        DfaCa::new(dfa),
        |k| DfaCa::new(dfa).with_kernel(k),
        chunk,
        &format!("{what} dfa"),
    );
    assert_first_chunk_agrees(
        RidCa::new(rid),
        |k| RidCa::new(rid).with_kernel(k),
        chunk,
        &format!("{what} rid"),
    );
}

#[test]
fn first_chunk_walks_match_the_serial_first_chunk() {
    let need = 3 * WINDOW + 3 + OFFSETS[OFFSETS.len() - 1];
    for b in standard_benchmarks() {
        let dfa = minimize::minimize(&powerset::determinize(&b.nfa));
        let rid = RiDfa::from_nfa(&b.nfa).minimized();
        for (text, label) in [
            ((b.accepted)(need + 4096, 43), "accepted"),
            ((b.rejected)(need + 4096, 43), "rejected"),
        ] {
            assert!(text.len() >= need, "{}: text too short", b.name);
            for off in OFFSETS {
                for len in WALK_LENGTHS {
                    let what = format!("{} {label} at {off}+{len}", b.name);
                    assert_first_chunks_agree(&dfa, &rid, &text[off..off + len], &what);
                }
            }
        }
    }
}

#[test]
fn stride_walk_reseeding_edge_cases() {
    // Languages chosen against the walk's re-seeding and repair:
    // * `(ab|ba)*` — a stride entered mid-pair is out of phase; its
    //   chain dies at a doubled letter and re-seeds, still out of phase;
    // * `abc(d|e)*` — the start state never recurs, so a chain re-seeded
    //   in the tail dies again at once, byte after byte;
    // * `(a*ba*b)*a*` — a chain that guessed the wrong parity never meets
    //   the true run, so repair rescans the whole stride.
    // Each member text is also killed once inside stride 2 of the first
    // window, past that stride's first checkpoints: its chain has met the
    // true run, then dies and re-seeds, and only the rule that adopts a
    // chain's end row solely when it did not die after the meeting
    // checkpoint keeps the true run dead.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for (pattern, prefix, words, kill) in [
        ("(ab|ba)*", &b""[..], &[&b"ab"[..], b"ba"][..], b'c'),
        ("abc(d|e)*", b"abc", &[b"d", b"e"], b'a'),
        ("(a*ba*b)*a*", b"", &[b"a", b"b"], b'c'),
    ] {
        let nfa = glushkov::build(&parse(pattern).unwrap()).unwrap();
        let dfa = minimize::minimize(&powerset::determinize(&nfa));
        let rid = RiDfa::from_nfa(&nfa).minimized();
        for len in WALK_LENGTHS {
            let mut text = prefix.to_vec();
            while text.len() < len {
                text.extend_from_slice(words[rng.gen_range(0..words.len())]);
            }
            text.truncate(len);
            // Stride 2 of the first window spans [2s, 3s), s = window / 4.
            let stride = len.div_ceil(len.div_ceil(WINDOW).max(1)) / 4;
            let mut killed = text.clone();
            if stride >= 1024 {
                killed[2 * stride + stride / 2] = kill;
            }
            for (text, label) in [(text, "member"), (killed, "killed in stride 2")] {
                for off in [0, 1] {
                    let chunk = &text[off.min(text.len())..];
                    let what = format!("{pattern} {label}, {} bytes at {off}", chunk.len());
                    assert_first_chunks_agree(&dfa, &rid, chunk, &what);
                    // Interior scans reach the same walk with one or two
                    // survivors.
                    assert_eq!(
                        DfaCa::new(&dfa).scan(chunk, &mut NoCount),
                        DfaCa::new(&dfa)
                            .with_kernel(Kernel::LockstepShared)
                            .scan(chunk, &mut NoCount),
                        "{what}: interior dfa"
                    );
                    assert_eq!(
                        RidCa::new(&rid).scan(chunk, &mut NoCount),
                        RidCa::new(&rid)
                            .with_kernel(Kernel::LockstepShared)
                            .scan(chunk, &mut NoCount),
                        "{what}: interior rid"
                    );
                }
            }
        }
    }
}

#[test]
fn simd_mappings_match_the_scalar_kernels_at_unaligned_offsets() {
    for b in standard_benchmarks() {
        let dfa = minimize::minimize(&powerset::determinize(&b.nfa));
        let rid = RiDfa::from_nfa(&b.nfa).minimized();
        for (text, label) in [
            ((b.accepted)(TEXT_LEN, 29), "accepted"),
            ((b.rejected)(TEXT_LEN, 29), "rejected"),
        ] {
            for off in OFFSETS {
                let chunk = &text[off..];
                assert_eq!(
                    DfaCa::new(&dfa).scan(chunk, &mut NoCount),
                    DfaCa::new(&dfa)
                        .with_kernel(Kernel::LockstepShared)
                        .scan(chunk, &mut NoCount),
                    "{} {label}: lockstep dfa mapping != per-run oracle at offset {off}",
                    b.name
                );
                assert_eq!(
                    RidCa::new(&rid).scan(chunk, &mut NoCount),
                    RidCa::new(&rid)
                        .with_kernel(Kernel::LockstepShared)
                        .scan(chunk, &mut NoCount),
                    "{} {label}: lockstep rid mapping != per-run oracle at offset {off}",
                    b.name
                );
            }
        }
    }
}

/// Interior chunk lengths that leave the lockstep scan's few-survivor
/// rest on either side of the stride walk's floor, and one that walks
/// several windows.
const FLOOR_LENGTHS: [usize; 7] = [
    4096,
    STRIDE_MIN - 1,
    STRIDE_MIN + 1,
    STRIDE_MIN + 1000,
    3 * STRIDE_MIN / 2,
    2 * STRIDE_MIN + 13,
    3 * WINDOW + 3,
];

/// Where the few-survivor chunks start.
const FLOOR_OFFSETS: [usize; 3] = [1, 997, TEXT_LEN / 2 + 13];

/// Counters whose phases no text over `[ab]` merges: six and sixteen
/// survivors to the end of every chunk, more than the interleaved finish
/// takes.
const COUNTERS: [&str; 2] = ["([ab]{6})*", "([ab]{16})*"];

/// A language's name and NFA, with two labelled texts.
type Case = (String, Nfa, [(Vec<u8>, &'static str); 2]);

#[test]
fn few_survivor_finishes_match_the_scalar_kernels_around_the_stride_floor() {
    // Below the floor two to four survivors advance interleaved; above
    // it, and at five or more, each takes the stride walk in turn.
    // Merging leaves bigdata with up to four groups, bible and fasta with
    // up to two, and the counters with six and sixteen.
    let need = FLOOR_OFFSETS[2] + FLOOR_LENGTHS[6];
    let mut rng = StdRng::seed_from_u64(0xC0C0);
    let mut cases: Vec<Case> = standard_benchmarks()
        .into_iter()
        .map(|b| {
            let texts = [
                ((b.accepted)(need + 4096, 47), "accepted"),
                ((b.rejected)(need + 4096, 47), "rejected"),
            ];
            (b.name.to_string(), b.nfa, texts)
        })
        .collect();
    for pattern in COUNTERS {
        let member: Vec<u8> = (0..need).map(|_| b"ab"[rng.gen_range(0..2usize)]).collect();
        let mut killed = member.clone();
        killed[need / 2] = b'c';
        let nfa = glushkov::build(&parse(pattern).unwrap()).unwrap();
        cases.push((
            pattern.to_string(),
            nfa,
            [(member, "member"), (killed, "killed mid-text")],
        ));
    }
    for (name, nfa, texts) in cases {
        let dfa = minimize::minimize(&powerset::determinize(&nfa));
        let rid = RiDfa::from_nfa(&nfa).minimized();
        for (text, label) in texts {
            assert!(text.len() >= need, "{name}: text too short");
            for off in FLOOR_OFFSETS {
                for len in FLOOR_LENGTHS {
                    let chunk = &text[off..off + len];
                    let what = format!("{name} {label} at {off}+{len}");
                    assert_eq!(
                        DfaCa::new(&dfa).scan(chunk, &mut NoCount),
                        DfaCa::new(&dfa)
                            .with_kernel(Kernel::LockstepShared)
                            .scan(chunk, &mut NoCount),
                        "{what}: lockstep dfa mapping"
                    );
                    assert_eq!(
                        RidCa::new(&rid).scan(chunk, &mut NoCount),
                        RidCa::new(&rid)
                            .with_kernel(Kernel::LockstepShared)
                            .scan(chunk, &mut NoCount),
                        "{what}: lockstep rid mapping"
                    );
                }
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
                let per_run = RidCa::new(&rid).scan(chunk, &mut NoCount);
                let pruned = RidCa::new(&rid)
                    .with_kernel(Kernel::LockstepShared)
                    .with_feasible(&table)
                    .scan(chunk, &mut NoCount);
                assert_eq!(
                    per_run, pruned,
                    "{} {label}: pruned lockstep mapping != per-run oracle at offset {off}",
                    b.name
                );
            }
        }
    }
}

#[test]
fn simd_verdicts_agree_under_random_span_layouts() {
    // Random uneven spans: slivers below the walk's floor (merging, then
    // serial or interleaved finishes) and long chunks (merging, then the
    // stride walk) all mixed in one recognition.
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
                let conv_dfa = DfaCa::new(&dfa).with_kernel(Kernel::LockstepShared);
                let conv_rid = RidCa::new(&rid).with_kernel(Kernel::LockstepShared);
                let pruned = RidCa::new(&rid)
                    .with_kernel(Kernel::LockstepShared)
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
                        "{} {ca_name} with the lockstep kernel, spans {spans:?}",
                        b.name
                    );
                }
            }
        }
    }
}

#[test]
fn all_six_chunk_automata_agree_with_simd_in_the_mix() {
    // The convergent CAs run every chunk here (≥ 10 KiB) through the
    // lockstep kernel and its walks, while the plain CAs scan per run —
    // the verdicts must still be unanimous.
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
                        &DfaCa::new(&dfa).with_kernel(Kernel::LockstepShared),
                        &text,
                        3,
                        Executor::Auto,
                    )
                    .accepted,
                ),
                (
                    "convergent rid",
                    recognize(
                        &RidCa::new(&rid).with_kernel(Kernel::LockstepShared),
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
                            .with_kernel(Kernel::LockstepShared)
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
