//! Differential tests for the lockstep scan kernel: every kernel strategy
//! must produce byte-identical λ mappings (hence identical verdicts) to
//! per-run scanning, for the DFA and the RID chunk automata, across
//! random regexes, random texts, random chunk counts and random cut
//! points — while never executing *more* transitions than the per-run
//! scan. (Zero-allocation behaviour of the kernel is asserted separately
//! in `tests/kernel_alloc.rs`, which needs a counting global allocator
//! and therefore its own test binary.)

use rand::rngs::{SmallRng, StdRng};
use rand::{Rng, SeedableRng};

use ridfa::automata::dfa::{minimize, powerset};
use ridfa::automata::nfa::glushkov;
use ridfa::automata::{NoCount, TransitionCount};
use ridfa::core::csdpa::{recognize, ChunkAutomaton, DfaCa, Executor, Kernel, RidCa};
use ridfa::core::ridfa::RiDfa;
use ridfa::workloads::regen::{random_ast, sample_into, RegenConfig};

const CASES: u64 = 48;

const KERNELS: [Kernel; 3] = [Kernel::PerRun, Kernel::LockstepShared, Kernel::Auto];

fn config() -> RegenConfig {
    RegenConfig {
        alphabet: b"ab".to_vec(),
        max_depth: 3,
        max_width: 3,
        star_percent: 35,
    }
}

/// A text sampled from the language (pumped a few times so runs have room
/// to converge), seeded through `StdRng` for reproducibility.
fn random_text(ast: &ridfa::automata::regex::Ast, rng: &mut StdRng) -> Vec<u8> {
    let mut sampler = SmallRng::seed_from_u64(rng.gen_range(0..u64::MAX));
    let mut text = Vec::new();
    for _ in 0..rng.gen_range(1..6usize) {
        sample_into(ast, &mut sampler, &mut text);
    }
    text
}

#[test]
fn convergent_dfa_mapping_is_identical_at_random_cut_points() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for seed in 0..CASES {
        let ast = random_ast(&config(), seed);
        let dfa = minimize::minimize(&powerset::determinize(&glushkov::build(&ast).unwrap()));
        let plain = DfaCa::new(&dfa);
        let text = random_text(&ast, &mut rng);
        // Random cut: the interior chunk both kernels scan.
        let cut = if text.is_empty() {
            0
        } else {
            rng.gen_range(0..=text.len())
        };
        let chunk = &text[cut..];
        let expected = plain.scan(chunk, &mut NoCount);
        for kernel in KERNELS {
            let conv = DfaCa::new(&dfa).with_kernel(kernel);
            assert_eq!(
                expected,
                conv.scan(chunk, &mut NoCount),
                "seed {seed}, {kernel:?}, ast {ast}, cut {cut}"
            );
        }
    }
}

#[test]
fn convergent_rid_mapping_is_identical_at_random_cut_points() {
    let mut rng = StdRng::seed_from_u64(0x51D);
    for seed in 0..CASES {
        let ast = random_ast(&config(), seed);
        let rid = RiDfa::from_nfa(&glushkov::build(&ast).unwrap()).minimized();
        let plain = RidCa::new(&rid);
        let text = random_text(&ast, &mut rng);
        let cut = if text.is_empty() {
            0
        } else {
            rng.gen_range(0..=text.len())
        };
        let chunk = &text[cut..];
        let expected = plain.scan(chunk, &mut NoCount);
        for kernel in KERNELS {
            let conv = RidCa::new(&rid).with_kernel(kernel);
            assert_eq!(
                expected,
                conv.scan(chunk, &mut NoCount),
                "seed {seed}, {kernel:?}, ast {ast}, cut {cut}"
            );
        }
    }
}

#[test]
fn recognition_agrees_across_random_chunk_counts() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for seed in 0..CASES {
        let ast = random_ast(&config(), seed);
        let nfa = glushkov::build(&ast).unwrap();
        let dfa = minimize::minimize(&powerset::determinize(&nfa));
        let rid = RiDfa::from_nfa(&nfa).minimized();
        let mut text = random_text(&ast, &mut rng);
        if rng.gen_ratio(1, 2) && !text.is_empty() {
            // Perturb one byte so rejection paths are exercised too.
            let i = rng.gen_range(0..text.len());
            text[i] = if text[i] == b'a' { b'b' } else { b'a' };
        }
        let expected = dfa.accepts(&text);
        let chunks = rng.gen_range(1..16usize);
        for kernel in KERNELS {
            let conv_dfa = DfaCa::new(&dfa).with_kernel(kernel);
            let conv_rid = RidCa::new(&rid).with_kernel(kernel);
            assert_eq!(
                recognize(&conv_dfa, &text, chunks, Executor::Auto).accepted,
                expected,
                "seed {seed}, {kernel:?}, dfa, {chunks} chunks"
            );
            assert_eq!(
                recognize(&conv_rid, &text, chunks, Executor::Auto).accepted,
                expected,
                "seed {seed}, {kernel:?}, rid, {chunks} chunks"
            );
        }
    }
}

#[test]
fn convergence_never_increases_work() {
    let mut rng = StdRng::seed_from_u64(0x3AD);
    for seed in 0..CASES {
        let ast = random_ast(&config(), seed);
        let dfa = minimize::minimize(&powerset::determinize(&glushkov::build(&ast).unwrap()));
        let plain = DfaCa::new(&dfa);
        let text = random_text(&ast, &mut rng);
        let mut c_plain = TransitionCount::default();
        plain.scan(&text, &mut c_plain);
        let conv = DfaCa::new(&dfa).with_kernel(Kernel::LockstepShared);
        let mut c_conv = TransitionCount::default();
        conv.scan(&text, &mut c_conv);
        assert!(
            c_conv.get() <= c_plain.get(),
            "seed {seed}: {} > plain {}",
            c_conv.get(),
            c_plain.get()
        );
    }
}

#[test]
fn lockstep_beats_k_times_chunk_on_converging_text() {
    // Acceptance criterion: on a converging text the lockstep kernel
    // executes strictly fewer transitions than the per-run bound
    // `k × |chunk|` — and strictly fewer than the per-run scan itself.
    let bible = ridfa::workloads::standard_benchmarks()
        .into_iter()
        .find(|b| b.name == "bible")
        .unwrap();
    let dfa = minimize::minimize(&powerset::determinize(&bible.nfa));
    let chunk = (bible.accepted)(64 << 10, 3);
    let k = dfa.num_live_states() as u64;

    let mut c_plain = TransitionCount::default();
    DfaCa::new(&dfa).scan(&chunk, &mut c_plain);
    let mut c_conv = TransitionCount::default();
    DfaCa::new(&dfa)
        .with_kernel(Kernel::LockstepShared)
        .scan(&chunk, &mut c_conv);

    assert!(c_plain.get() <= k * chunk.len() as u64);
    assert!(
        c_conv.get() < k * chunk.len() as u64,
        "lockstep {} must be strictly below k×|chunk| = {}",
        c_conv.get(),
        k * chunk.len() as u64
    );
    assert!(
        c_conv.get() < c_plain.get(),
        "lockstep {} must beat per-run {}",
        c_conv.get(),
        c_plain.get()
    );
    // On this benchmark convergence is dramatic, not marginal.
    assert!(
        c_conv.get() * 4 < c_plain.get(),
        "convergent {} vs plain {}",
        c_conv.get(),
        c_plain.get()
    );
}

#[test]
fn convergent_variants_agree_on_benchmarks() {
    for b in ridfa::workloads::standard_benchmarks() {
        let dfa = minimize::minimize(&powerset::determinize(&b.nfa));
        let rid = RiDfa::from_nfa(&b.nfa).minimized();
        let conv_dfa = DfaCa::new(&dfa).with_kernel(Kernel::Auto);
        let conv_rid = RidCa::new(&rid).with_kernel(Kernel::Auto);
        for (text, expected) in [
            ((b.accepted)(32 << 10, 13), true),
            ((b.rejected)(32 << 10, 13), false),
        ] {
            assert_eq!(
                recognize(&conv_dfa, &text, 16, Executor::Team(4)).accepted,
                expected,
                "{} dfa+conv",
                b.name
            );
            assert_eq!(
                recognize(&conv_rid, &text, 16, Executor::Team(4)).accepted,
                expected,
                "{} rid+conv",
                b.name
            );
        }
    }
}
