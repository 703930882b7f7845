//! Deterministic finite automata with dense, byte-class-compressed tables.
//!
//! The table layout is the one production matchers use: a flat
//! `Vec<StateId>` indexed by `state * stride + byte_class`, where `stride`
//! is the number of byte equivalence classes. State [`DEAD`]
//! (always id 0) has an all-zero row, so a speculative run that leaves the
//! language's substring set parks there and can be detected with a single
//! compare — the "premature termination in error" that makes speculation
//! cheap in practice (paper Sect. 1).

pub mod equivalence;
pub mod minimize;
pub mod powerset;

mod run;

pub use run::run_chunk;

use crate::alphabet::ByteClasses;
use crate::counter::Counter;
use crate::error::{Error, Result};
use crate::{BitSet, StateId, DEAD};

/// A complete DFA over bytes (every state has a transition for every byte;
/// missing language transitions go to [`DEAD`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Dfa {
    classes: ByteClasses,
    stride: usize,
    /// `table[s * stride + c]` = successor of state `s` on byte class `c`.
    table: Vec<StateId>,
    start: StateId,
    finals: BitSet,
}

impl Dfa {
    /// Assembles a DFA from raw parts, validating all invariants:
    /// row 0 is the dead state (all-zero), every target is in range, the
    /// table length matches `num_states * stride`.
    pub fn from_parts(
        classes: ByteClasses,
        table: Vec<StateId>,
        start: StateId,
        finals: BitSet,
    ) -> Result<Dfa> {
        let stride = classes.num_classes();
        if stride == 0 || !table.len().is_multiple_of(stride) {
            return Err(Error::InvalidAutomaton(format!(
                "table length {} is not a multiple of stride {stride}",
                table.len()
            )));
        }
        let num_states = table.len() / stride;
        if num_states == 0 {
            return Err(Error::InvalidAutomaton("DFA has no states".into()));
        }
        if table[..stride].iter().any(|&t| t != DEAD) {
            return Err(Error::InvalidAutomaton(
                "row 0 must be the dead state (all transitions to 0)".into(),
            ));
        }
        if let Some(&bad) = table.iter().find(|&&t| t as usize >= num_states) {
            return Err(Error::InvalidAutomaton(format!(
                "transition target {bad} out of range (num states {num_states})"
            )));
        }
        if start as usize >= num_states {
            return Err(Error::InvalidAutomaton(format!(
                "start state {start} out of range (num states {num_states})"
            )));
        }
        if finals.capacity() != num_states {
            return Err(Error::InvalidAutomaton(format!(
                "final set capacity {} != num states {num_states}",
                finals.capacity()
            )));
        }
        if finals.contains(DEAD) {
            return Err(Error::InvalidAutomaton("dead state cannot be final".into()));
        }
        Ok(Dfa {
            classes,
            stride,
            table,
            start,
            finals,
        })
    }

    /// Number of states, *including* the dead state 0.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.table.len() / self.stride
    }

    /// Number of *live* states (excluding dead): this is the `|Q|` of the
    /// paper, the speculation cost factor of the classic DFA-based CSDPA.
    #[inline]
    pub fn num_live_states(&self) -> usize {
        self.num_states() - 1
    }

    /// The byte-class mapping the table is compressed with.
    #[inline]
    pub fn classes(&self) -> &ByteClasses {
        &self.classes
    }

    /// Table stride (= number of byte classes).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Initial state.
    #[inline]
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Final state set.
    #[inline]
    pub fn finals(&self) -> &BitSet {
        &self.finals
    }

    /// `true` if `state` accepts.
    #[inline]
    pub fn is_final(&self, state: StateId) -> bool {
        self.finals.contains(state)
    }

    /// Successor of `state` on `byte`.
    #[inline(always)]
    pub fn next(&self, state: StateId, byte: u8) -> StateId {
        self.table[state as usize * self.stride + self.classes.get(byte) as usize]
    }

    /// Successor of `state` on a byte *class* (for subset constructions
    /// that iterate over class representatives).
    #[inline(always)]
    pub fn next_class(&self, state: StateId, class: u8) -> StateId {
        self.table[state as usize * self.stride + class as usize]
    }

    /// Raw transition table (row-major, `stride` entries per state).
    #[inline]
    pub fn table(&self) -> &[StateId] {
        &self.table
    }

    /// A copy of the transition table with every entry *premultiplied* by
    /// the stride: `ptable[s * stride + c] = table[s * stride + c] * stride`.
    ///
    /// Scan loops that track premultiplied row offsets instead of state
    /// ids advance with a single indexed load per byte
    /// (`row = ptable[row + class]`), with no per-transition multiply.
    /// Row `0` still denotes the dead state ([`DEAD`]` * stride = 0`).
    /// Build once at automaton-wrapping time and reuse; see
    /// `ridfa-core`'s lockstep kernel.
    pub fn premultiplied_table(&self) -> Vec<StateId> {
        premultiply(&self.table, self.stride)
    }

    /// Serial whole-string recognition from the initial state: exactly
    /// `|text|` transitions unless the run dies early. This is the paper's
    /// serial baseline.
    pub fn accepts(&self, text: &[u8]) -> bool {
        let last = run::run_chunk(self, self.start, text, &mut crate::counter::NoCount);
        last != DEAD && self.is_final(last)
    }

    /// Runs from an arbitrary state over `text`; returns [`DEAD`]
    /// if the run dies. Counts one transition per consumed byte (steps into
    /// the dead state are not counted: the run has terminated in error).
    #[inline]
    pub fn run_from(&self, state: StateId, text: &[u8], counter: &mut impl Counter) -> StateId {
        run::run_chunk(self, state, text, counter)
    }

    /// All live states, in id order (1-based; 0 is dead).
    pub fn live_states(&self) -> impl Iterator<Item = StateId> + '_ {
        1..self.num_states() as StateId
    }
}

/// Premultiplies a dense table's entries by its stride (see
/// [`Dfa::premultiplied_table`]); shared with the RI-DFA, whose table has
/// the identical layout.
///
/// # Panics
/// When `num_states * stride` overflows `StateId` — such a table could
/// not be indexed by `u32` offsets in the first place.
pub fn premultiply(table: &[StateId], stride: usize) -> Vec<StateId> {
    let limit = u32::try_from(table.len()).expect("table indexable by u32");
    table
        .iter()
        .map(|&t| {
            let row = t as u64 * stride as u64;
            debug_assert!(row < u64::from(limit.max(1)));
            row as StateId
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::nfa::Nfa;

    /// Builds the powerset DFA of the regex for tests.
    pub(crate) fn dfa_for(pattern: &str) -> Dfa {
        let ast = crate::regex::parse(pattern).unwrap();
        let nfa = crate::nfa::glushkov::build(&ast).unwrap();
        super::powerset::determinize(&nfa)
    }

    /// Builds the NFA for tests.
    pub(crate) fn nfa_for(pattern: &str) -> Nfa {
        let ast = crate::regex::parse(pattern).unwrap();
        crate::nfa::glushkov::build(&ast).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::dfa_for;
    use super::*;
    use crate::counter::TransitionCount;

    #[test]
    fn from_parts_validates() {
        let classes = ByteClasses::from_key_fn(|b| b == b'a');
        let stride = classes.num_classes();
        assert_eq!(stride, 2);
        // Two states: dead + one accepting with a self loop on 'a'.
        let a = classes.get(b'a') as usize;
        let mut table = vec![DEAD; 2 * stride];
        table[stride + a] = 1;
        let mut finals = BitSet::new(2);
        finals.insert(1);
        let dfa = Dfa::from_parts(classes.clone(), table.clone(), 1, finals.clone()).unwrap();
        assert_eq!(dfa.num_states(), 2);
        assert!(dfa.accepts(b"aaa"));
        assert!(!dfa.accepts(b"ab"));

        // Bad: row 0 not dead.
        let mut bad = table.clone();
        bad[0] = 1;
        assert!(Dfa::from_parts(classes.clone(), bad, 1, finals.clone()).is_err());
        // Bad: target out of range.
        let mut bad = table.clone();
        bad[stride] = 9;
        assert!(Dfa::from_parts(classes.clone(), bad, 1, finals.clone()).is_err());
        // Bad: start out of range.
        assert!(Dfa::from_parts(classes.clone(), table.clone(), 5, finals.clone()).is_err());
        // Bad: finals capacity mismatch.
        assert!(Dfa::from_parts(classes.clone(), table.clone(), 1, BitSet::new(7)).is_err());
        // Bad: dead final.
        let mut dead_final = BitSet::new(2);
        dead_final.insert(0);
        assert!(Dfa::from_parts(classes, table, 1, dead_final).is_err());
    }

    #[test]
    fn accepts_matches_regex_semantics() {
        let dfa = dfa_for("(a|b)*abb");
        assert!(dfa.accepts(b"abb"));
        assert!(dfa.accepts(b"aababb"));
        assert!(!dfa.accepts(b"ab"));
        assert!(!dfa.accepts(b"abbc"));
    }

    #[test]
    fn run_from_counts_transitions() {
        let dfa = dfa_for("(a|b)*abb");
        let mut c = TransitionCount::default();
        let last = dfa.run_from(dfa.start(), b"aabb", &mut c);
        assert_ne!(last, DEAD);
        assert_eq!(c.get(), 4, "serial recognition = |text| transitions");
    }

    #[test]
    fn dying_run_stops_counting() {
        let dfa = dfa_for("ab");
        let mut c = TransitionCount::default();
        let last = dfa.run_from(dfa.start(), b"zzzz", &mut c);
        assert_eq!(last, DEAD);
        assert_eq!(c.get(), 0, "death-discovering step is not counted");
    }

    #[test]
    fn live_states_excludes_dead() {
        let dfa = dfa_for("a");
        assert_eq!(dfa.live_states().count(), dfa.num_live_states());
        assert!(dfa.live_states().all(|s| s != DEAD));
    }

    #[test]
    fn empty_text_stays_in_place() {
        let dfa = dfa_for("a*");
        assert!(dfa.accepts(b""));
        let mut c = TransitionCount::default();
        assert_eq!(dfa.run_from(dfa.start(), b"", &mut c), dfa.start());
        assert_eq!(c.get(), 0);
    }
}
