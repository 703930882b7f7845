//! Full reproduction of the paper's Figure 1 — the worked example that
//! anchors the whole implementation. If this test fails, the semantics of
//! one of the three chunk automata drifted from the paper.

use ridfa::automata::dfa::{minimize, powerset};
use ridfa::automata::nfa::{Builder, Nfa};
use ridfa::automata::TransitionCount;
use ridfa::core::csdpa::{recognize_counted, ChunkAutomaton, DfaCa, Executor, NfaCa, RidCa};
use ridfa::core::ridfa::RiDfa;

/// The Fig. 1 NFA over Σ = {a,b,c}.
fn figure1_nfa() -> Nfa {
    let mut b = Builder::new();
    let q0 = b.add_state();
    let q1 = b.add_state();
    let q2 = b.add_state();
    b.add_transition(q0, b'a', q1);
    b.add_transition(q0, b'c', q1);
    b.add_transition(q1, b'a', q0);
    b.add_transition(q1, b'a', q1);
    b.add_transition(q1, b'b', q0);
    b.add_transition(q1, b'b', q2);
    b.add_transition(q1, b'c', q0);
    b.add_transition(q2, b'b', q1);
    b.set_start(q0);
    b.set_final(q2);
    b.build().unwrap()
}

#[test]
fn machine_sizes_match_figure1() {
    let nfa = figure1_nfa();
    assert_eq!(nfa.num_states(), 3, "NFA has 3 states");
    let dfa = minimize::minimize(&powerset::determinize(&nfa));
    assert_eq!(
        dfa.num_live_states(),
        4,
        "minimal DFA has 4 states 0,1,01,02"
    );
    let rid = RiDfa::from_nfa(&nfa);
    assert_eq!(rid.num_live_states(), 5, "RI-DFA has 5 states 0,1,2,01,02");
    assert_eq!(
        rid.interface().len(),
        3,
        "only the three singletons are initial"
    );
}

#[test]
fn transition_totals_match_figure1_bottom() {
    let nfa = figure1_nfa();
    let dfa = minimize::minimize(&powerset::determinize(&nfa));
    let rid = RiDfa::from_nfa(&nfa);

    /// Transitions of the first chunk `aab` and of the second `cab`.
    fn per_chunk<CA: ChunkAutomaton>(ca: &CA) -> [u64; 2] {
        let mut first = TransitionCount::default();
        let mut second = TransitionCount::default();
        let m1 = ca.scan_first(b"aab", &mut first);
        let m2 = ca.scan(b"cab", &mut second);
        assert!(ca.join(&[m1, m2]));
        [first.get(), second.get()]
    }
    let total = |counts: [u64; 2]| counts[0] + counts[1];

    assert_eq!(
        total(per_chunk(&DfaCa::new(&dfa))),
        15,
        "classic DFA method"
    );
    assert_eq!(
        total(per_chunk(&NfaCa::new(&nfa))),
        14,
        "classic optimized NFA method"
    );
    // The RID's first chunk runs once from q0 (3 transitions); the
    // second runs once per interface state (6).
    assert_eq!(per_chunk(&RidCa::new(&rid)), [3, 6], "new RI-DFA method");
}

#[test]
fn recognize_counted_reports_the_same_totals() {
    let nfa = figure1_nfa();
    let rid = RiDfa::from_nfa(&nfa);
    let out = recognize_counted(&RidCa::new(&rid), b"aabcab", 2, Executor::PerChunk);
    assert!(out.accepted);
    assert_eq!(out.transitions, 9);
}

#[test]
fn figure2_example_semantics() {
    // Fig. 2's language L = b*a(ab*a|b+a)* over {a,b}: its two-state DFA
    // accepts exactly the strings whose 'a' count is... easier: trust the
    // machine of the figure directly.
    let mut b = Builder::new();
    let q0 = b.add_state();
    let q1 = b.add_state();
    b.add_transition(q0, b'b', q0);
    b.add_transition(q0, b'a', q1);
    b.add_transition(q1, b'a', q0);
    b.add_transition(q1, b'b', q0);
    b.set_start(q0);
    b.set_final(q1);
    let nfa = b.build().unwrap();
    // The paper's two-chunk input bab·aaa is accepted with PLAS₂ = {q1}.
    let rid = RiDfa::from_nfa(&nfa);
    let out = recognize_counted(&RidCa::new(&rid), b"babaaa", 2, Executor::PerChunk);
    assert!(out.accepted);
    // And the DFA variant agrees.
    let dfa = minimize::minimize(&powerset::determinize(&nfa));
    let out = recognize_counted(&DfaCa::new(&dfa), b"babaaa", 2, Executor::PerChunk);
    assert!(out.accepted);
}

#[test]
fn sample_string_membership() {
    let nfa = figure1_nfa();
    assert!(nfa.accepts(b"aabcab"), "the paper's sample valid string");
    assert!(!nfa.accepts(b"aabcabc"));
    assert!(!nfa.accepts(b""));
}
