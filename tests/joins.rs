//! Differential tests pinning the λ-composition refactor: every
//! `join_with` is now a fold over `compose_into`, and must agree exactly
//! with the *legacy* PLAS-set join algorithms it replaced (reimplemented
//! here from the pre-refactor code), with the serial oracle, and with
//! itself under re-association.

use ridfa::automata::dfa::{minimize, powerset, Dfa};
use ridfa::automata::nfa::{glushkov, Nfa, Simulator};
use ridfa::automata::{NoCount, StateId, DEAD};
use ridfa::core::csdpa::{
    ChunkAutomaton, ConvergentDfaCa, ConvergentRidCa, DfaCa, NfaCa, RidCa, RidMapping,
};
use ridfa::core::ridfa::RiDfa;
use ridfa::core::sfa::{Sfa, SfaCa};
use ridfa::workloads::regen::{random_ast, sample_into, RegenConfig};

use rand::rngs::{SmallRng, StdRng};
use rand::{Rng, SeedableRng};

/// The pre-refactor DFA join: a PLAS-set fold starting at `{q0}`.
fn legacy_join_dfa(dfa: &Dfa, mappings: &[Vec<StateId>]) -> bool {
    let mut plas = vec![dfa.start()];
    for mapping in mappings {
        let mut next: Vec<StateId> = plas
            .iter()
            .map(|&s| mapping[s as usize])
            .filter(|&t| t != DEAD)
            .collect();
        next.sort_unstable();
        next.dedup();
        plas = next;
        if plas.is_empty() {
            return false;
        }
    }
    plas.iter().any(|&s| dfa.is_final(s))
}

/// The pre-refactor NFA join.
fn legacy_join_nfa(nfa: &Nfa, mappings: &[Vec<Vec<StateId>>]) -> bool {
    let mut plas = vec![nfa.start()];
    for mapping in mappings {
        let mut next = Vec::new();
        for &q in plas.iter() {
            next.extend_from_slice(&mapping[q as usize]);
        }
        next.sort_unstable();
        next.dedup();
        plas = next;
        if plas.is_empty() {
            return false;
        }
    }
    plas.iter().any(|&q| nfa.is_final(q))
}

/// The pre-refactor RID join: `PLASᵢ = λᵢ(if(PLASᵢ₋₁))`.
fn legacy_join_rid(rid: &RiDfa, mappings: &[RidMapping]) -> bool {
    let mut pos = vec![u32::MAX; rid.num_states()];
    for (i, &p) in rid.interface().iter().enumerate() {
        pos[p as usize] = i as u32;
    }
    let mut plas: Vec<StateId> = Vec::new();
    let mut pis = Vec::new();
    for (i, mapping) in mappings.iter().enumerate() {
        match mapping {
            RidMapping::Prefix(set) => {
                assert_eq!(i, 0, "Prefix mapping only at chunk 1");
                plas.clone_from(set);
            }
            RidMapping::Interior(lasts) => {
                rid.interface_map(&plas, &mut pis);
                plas.clear();
                for &p in pis.iter() {
                    let last = lasts[pos[p as usize] as usize];
                    if last != DEAD {
                        plas.push(last);
                    }
                }
                plas.sort_unstable();
                plas.dedup();
            }
            other => panic!("scans never produce {other:?}"),
        }
        if plas.is_empty() {
            return false;
        }
    }
    plas.iter().any(|&p| rid.is_final(p))
}

/// The pre-refactor SFA join: thread `q0` through the chunk functions.
fn legacy_join_sfa(dfa: &Dfa, sfa: &Sfa, mappings: &[StateId]) -> bool {
    let mut q = dfa.start();
    for &s in mappings {
        q = sfa.function(s)[q as usize];
        if q == DEAD {
            return false;
        }
    }
    dfa.is_final(q)
}

/// Splits `text` into `chunks` spans and produces the CA's mappings the
/// way the reach phase does (first chunk non-speculative).
fn scan_mappings<CA: ChunkAutomaton>(ca: &CA, text: &[u8], chunks: usize) -> Vec<CA::Mapping> {
    ridfa::core::csdpa::chunk_spans(text.len(), chunks)
        .into_iter()
        .enumerate()
        .map(|(i, span)| {
            if i == 0 {
                ca.scan_first(&text[span], &mut NoCount)
            } else {
                ca.scan(&text[span], &mut NoCount)
            }
        })
        .collect()
}

#[test]
fn fold_joins_agree_with_legacy_joins_on_random_cases() {
    let config = RegenConfig {
        alphabet: b"ab".to_vec(),
        max_depth: 3,
        max_width: 3,
        star_percent: 35,
    };
    let mut rng = StdRng::seed_from_u64(0x10A0);
    for seed in 0..40u64 {
        let ast = random_ast(&config, seed);
        let nfa = glushkov::build(&ast).unwrap();
        let dfa = minimize::minimize(&powerset::determinize(&nfa));
        let rid = RiDfa::from_nfa(&nfa).minimized();
        let sfa = Sfa::build_limited(&dfa, 1 << 14).ok();

        let dfa_ca = DfaCa::new(&dfa);
        let nfa_ca = NfaCa::new(&nfa);
        let rid_ca = RidCa::new(&rid);
        let conv_dfa = ConvergentDfaCa::new(&dfa);
        let conv_rid = ConvergentRidCa::new(&rid);

        let mut sampler = SmallRng::seed_from_u64(seed ^ 0xFEED);
        let mut text = Vec::new();
        for _ in 0..rng.gen_range(1..5usize) {
            sample_into(&ast, &mut sampler, &mut text);
        }
        if rng.gen_ratio(1, 2) && !text.is_empty() {
            let i = rng.gen_range(0..text.len());
            text[i] = if text[i] == b'a' { b'b' } else { b'a' };
        }
        let expected = dfa.accepts(&text);

        for chunks in [1usize, 2, 3, 5, 9] {
            let m = scan_mappings(&dfa_ca, &text, chunks);
            assert_eq!(dfa_ca.join(&m), expected, "seed {seed} dfa c={chunks}");
            assert_eq!(
                legacy_join_dfa(&dfa, &m),
                expected,
                "seed {seed} legacy dfa c={chunks}"
            );

            let m = scan_mappings(&conv_dfa, &text, chunks);
            assert_eq!(
                conv_dfa.join(&m),
                expected,
                "seed {seed} dfa+conv c={chunks}"
            );
            assert_eq!(legacy_join_dfa(&dfa, &m), expected);

            let m = scan_mappings(&nfa_ca, &text, chunks);
            assert_eq!(nfa_ca.join(&m), expected, "seed {seed} nfa c={chunks}");
            assert_eq!(
                legacy_join_nfa(&nfa, &m),
                expected,
                "seed {seed} legacy nfa c={chunks}"
            );

            let m = scan_mappings(&rid_ca, &text, chunks);
            assert_eq!(rid_ca.join(&m), expected, "seed {seed} rid c={chunks}");
            assert_eq!(
                legacy_join_rid(&rid, &m),
                expected,
                "seed {seed} legacy rid c={chunks}"
            );

            let m = scan_mappings(&conv_rid, &text, chunks);
            assert_eq!(
                conv_rid.join(&m),
                expected,
                "seed {seed} rid+conv c={chunks}"
            );
            assert_eq!(legacy_join_rid(&rid, &m), expected);

            if let Some(sfa) = &sfa {
                let sfa_ca = SfaCa::new(sfa);
                let m = scan_mappings(&sfa_ca, &text, chunks);
                assert_eq!(sfa_ca.join(&m), expected, "seed {seed} sfa c={chunks}");
                assert_eq!(
                    legacy_join_sfa(&dfa, sfa, &m),
                    expected,
                    "seed {seed} legacy sfa c={chunks}"
                );
            }
        }
    }
}

/// λ-composition must be associative — the property the tree-reduce join
/// and the streaming fold both lean on. Checked on the *mapping values*
/// (not just verdicts) for every CA whose mapping type is comparable.
#[test]
fn composition_is_associative_on_mapping_values() {
    let config = RegenConfig {
        alphabet: b"ab".to_vec(),
        max_depth: 3,
        max_width: 3,
        star_percent: 40,
    };
    for seed in 0..24u64 {
        let ast = random_ast(&config, seed);
        let nfa = glushkov::build(&ast).unwrap();
        let dfa = minimize::minimize(&powerset::determinize(&nfa));
        let rid = RiDfa::from_nfa(&nfa).minimized();

        let mut sampler = SmallRng::seed_from_u64(seed ^ 0xA550);
        let mut text = Vec::new();
        for _ in 0..3 {
            sample_into(&ast, &mut sampler, &mut text);
        }
        text.extend_from_slice(b"abba");
        let third = text.len() / 3;
        let (c1, c2, c3) = (&text[..third], &text[third..2 * third], &text[2 * third..]);

        macro_rules! check_assoc {
            ($ca:expr, $label:literal) => {{
                let ca = $ca;
                // First-led: (m1 ⊙ m2) ⊙ m3 == m1 ⊙ (m2 ⊙ m3).
                let m1 = ca.scan_first(c1, &mut NoCount);
                let m2 = ca.scan(c2, &mut NoCount);
                let m3 = ca.scan(c3, &mut NoCount);
                let left = ca.compose(&ca.compose(&m1, &m2), &m3);
                let right = ca.compose(&m1, &ca.compose(&m2, &m3));
                assert_eq!(left, right, "seed {seed}: {} first-led", $label);
                assert_eq!(
                    ca.accepts_mapping(&left),
                    dfa.accepts(&text),
                    "seed {seed}: {} verdict",
                    $label
                );
                // Interior-only association (what interior tree nodes do).
                let i1 = ca.scan(c1, &mut NoCount);
                let left = ca.compose(&ca.compose(&i1, &m2), &m3);
                let right = ca.compose(&i1, &ca.compose(&m2, &m3));
                assert_eq!(left, right, "seed {seed}: {} interior", $label);
            }};
        }

        check_assoc!(DfaCa::new(&dfa), "dfa");
        check_assoc!(ConvergentDfaCa::new(&dfa), "dfa+conv");
        check_assoc!(NfaCa::new(&nfa), "nfa");
        check_assoc!(RidCa::new(&rid), "rid");
        check_assoc!(ConvergentRidCa::new(&rid), "rid+conv");
        if let Ok(sfa) = Sfa::build_limited(&dfa, 1 << 14) {
            check_assoc!(SfaCa::new(&sfa), "sfa");
        }
    }
}

/// The NFA simulator oracle: the composed whole-text mapping must accept
/// exactly the texts the set simulation accepts, chunked arbitrarily.
#[test]
fn composed_prefix_equals_simulator_on_every_cut() {
    let nfa = glushkov::build(&ridfa::automata::regex::parse("(a|b)*ab(b|a)?").unwrap()).unwrap();
    let rid = RiDfa::from_nfa(&nfa).minimized();
    let ca = RidCa::new(&rid);
    let texts: [&[u8]; 6] = [b"", b"a", b"ab", b"abb", b"aabbaabb", b"bababab"];
    for text in texts {
        let mut sim = Simulator::new(&nfa);
        let expected = sim.run_accepts(&nfa, &[nfa.start()], text, &mut NoCount);
        for cut1 in 0..=text.len() {
            for cut2 in cut1..=text.len() {
                let m1 = ca.scan_first(&text[..cut1], &mut NoCount);
                let m2 = ca.scan(&text[cut1..cut2], &mut NoCount);
                let m3 = ca.scan(&text[cut2..], &mut NoCount);
                let folded = ca.compose(&ca.compose(&m1, &m2), &m3);
                assert_eq!(
                    ca.accepts_mapping(&folded),
                    expected,
                    "{text:?} cuts {cut1}/{cut2}"
                );
                assert_eq!(ca.join(&[m1, m2, m3]), expected);
            }
        }
    }
}
