//! Integration tests for the transition-count instrumentation: the
//! quantities of Sect. 4.3 obey tight arithmetic invariants that pin down
//! the counting convention across all chunk automata.

use ridfa::automata::dfa::{minimize, powerset};
use ridfa::automata::nfa::glushkov;
use ridfa::automata::regex::parse;
use ridfa::core::csdpa::{
    recognize, recognize_counted, recognize_serial, DfaCa, Executor, NfaCa, RidCa,
};
use ridfa::core::ridfa::RiDfa;

fn artifacts(pattern: &str) -> (ridfa::automata::nfa::Nfa, ridfa::automata::dfa::Dfa, RiDfa) {
    let nfa = glushkov::build(&parse(pattern).unwrap()).unwrap();
    let dfa = minimize::minimize(&powerset::determinize(&nfa));
    let rid = RiDfa::from_nfa(&nfa).minimized();
    (nfa, dfa, rid)
}

#[test]
fn serial_run_counts_exactly_text_length_when_alive() {
    // Over [ab]-only text, the [ab]*a[ab]{k} machines never die.
    let (_, dfa, rid) = artifacts("[ab]*a[ab]{3}");
    let text = ridfa::workloads::regexp::text(3, 10_000, 1);
    let (_, dfa_count, _) = recognize_serial(&DfaCa::new(&dfa), &text);
    let (_, rid_count, _) = recognize_serial(&RidCa::new(&rid), &text);
    assert_eq!(dfa_count, text.len() as u64);
    assert_eq!(rid_count, text.len() as u64);
}

#[test]
fn dfa_parallel_cost_is_len_times_states_when_nothing_dies() {
    // T_D = Σ |y_i| × |I_i| with no premature termination: first chunk 1
    // run, interior chunks |Q| runs (paper Sect. 2).
    let (_, dfa, _) = artifacts("[ab]*a[ab]{3}");
    let text = ridfa::workloads::regexp::text(3, 9_000, 2);
    let chunks = 6usize;
    let out = recognize_counted(&DfaCa::new(&dfa), &text, chunks, Executor::Serial);
    let q = dfa.num_live_states() as u64;
    let chunk_len = (text.len() / chunks) as u64;
    let expected = chunk_len + (chunks as u64 - 1) * chunk_len * q;
    assert_eq!(out.transitions, expected);
}

#[test]
fn rid_parallel_cost_is_exactly_predictable() {
    // For [ab]*a[ab]{k}, the loop entry survives whole chunks while the
    // chain entry at depth d dies after exactly k − d steps. With the
    // minimized interface (the Glushkov initial state is equivalent to the
    // star position, so |I| = k + 2), an interior chunk costs
    // chunk_len + k + (k−1) + … + 0 transitions.
    let k = 3u64;
    let (nfa, _, rid) = artifacts("[ab]*a[ab]{3}");
    let text = ridfa::workloads::regexp::text(3, 9_000, 3);
    let chunks = 6u64;
    let out = recognize_counted(&RidCa::new(&rid), &text, chunks as usize, Executor::Serial);
    assert_eq!(rid.interface().len() as u64, k + 2);
    assert_eq!(rid.interface().len(), nfa.num_states() - 1);
    let chunk_len = text.len() as u64 / chunks;
    let dying_runs: u64 = (0..=k).sum(); // k + (k−1) + … + 0
    let expected = chunk_len + (chunks - 1) * (chunk_len + dying_runs);
    assert_eq!(out.transitions, expected);
}

#[test]
fn speculation_overhead_ordering_on_winning_benchmark() {
    // The paper's headline inequality on an explosion family:
    // RID transitions ≪ DFA transitions; serial = |text|.
    let (_, dfa, rid) = artifacts("[ab]*a[ab]{7}");
    let text = ridfa::workloads::regexp::text(7, 64_000, 4);
    let dfa_out = recognize_counted(&DfaCa::new(&dfa), &text, 16, Executor::Team(4));
    let rid_out = recognize_counted(&RidCa::new(&rid), &text, 16, Executor::Team(4));
    assert!(dfa_out.accepted && rid_out.accepted);
    assert!(
        dfa_out.transitions > 10 * rid_out.transitions,
        "DFA {} vs RID {}",
        dfa_out.transitions,
        rid_out.transitions
    );
}

#[test]
fn counted_and_uncounted_agree_on_acceptance() {
    for b in ridfa::workloads::standard_benchmarks() {
        let rid = RiDfa::from_nfa(&b.nfa).minimized();
        let ca = RidCa::new(&rid);
        let text = (b.accepted)(32 << 10, 9);
        let fast = recognize(&ca, &text, 8, Executor::Team(4)).accepted;
        let counted = recognize_counted(&ca, &text, 8, Executor::Team(4)).accepted;
        assert_eq!(fast, counted, "{}", b.name);
    }
}

#[test]
fn nfa_counts_exceed_dfa_counts_on_nondeterministic_family() {
    // Set-simulation traverses multiple edges per byte where the
    // deterministic run traverses one.
    let (nfa, dfa, _) = artifacts("[ab]*a[ab]{4}");
    let text = ridfa::workloads::regexp::text(4, 8_000, 5);
    let (acc_n, count_n, _) = recognize_serial(&NfaCa::new(&nfa), &text);
    let (acc_d, count_d, _) = recognize_serial(&DfaCa::new(&dfa), &text);
    assert!(acc_n && acc_d);
    assert!(count_n > count_d, "NFA {} vs DFA {}", count_n, count_d);
}

#[test]
fn dying_runs_cut_the_bill() {
    // On a structured language, most speculative DFA runs die quickly, so
    // the measured cost sits far below the worst case n×|Q| (the paper's
    // practical observation in Sect. 1).
    let (_, dfa, _) = artifacts("(xyz)*");
    let mut text = Vec::new();
    for _ in 0..2_000 {
        text.extend_from_slice(b"xyz");
    }
    let out = recognize_counted(&DfaCa::new(&dfa), &text, 8, Executor::Serial);
    assert!(out.accepted);
    let worst = text.len() as u64 * dfa.num_live_states() as u64;
    assert!(
        out.transitions * 2 < worst,
        "measured {} vs worst case {}",
        out.transitions,
        worst
    );
}
