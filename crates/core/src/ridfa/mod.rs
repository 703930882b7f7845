//! The reduced-interface DFA (RI-DFA) — Sect. 3 of the paper.
//!
//! An RI-DFA `B = (P, Σ, δ_B, I_B, F_B)` is a *multi-entry* DFA derived
//! from an NFA `N` with states `Q_N = {q0, …, q_{ℓ-1}}`:
//!
//! * its transition function `δ_B` is deterministic (a dense table, shared
//!   layout with [`Dfa`](ridfa_automata::dfa::Dfa));
//! * its state set `P` contains one state per *subset of NFA states*
//!   discovered by running the powerset construction incrementally from
//!   each singleton `{q_i}` (so `P` includes every singleton);
//! * its initial-state set — the **interface** `I_B` — is exactly the
//!   singletons, i.e. `|I_B| = |Q_N|`, typically far fewer than the states
//!   of the equivalent DFA.
//!
//! A speculative chunk automaton therefore starts only `|Q_N|` runs instead
//! of `|Q_DFA|`, while every run advances with a single deterministic table
//! lookup per byte. The *interface function* `if` (Sect. 3.2) re-maps the
//! possible last active states of a chunk onto the possible initial states
//! of the next chunk via the NFA-state *content* of each RI-DFA state.
//! [Interface minimization](minimize_interface) (Sect. 3.4) further
//! downgrades language-equivalent interface states via *delegation*.

pub mod artifact;
pub(crate) mod construct;
mod interface;
mod minimize;

pub use artifact::{ridfa_from_bytes, ridfa_to_bytes, ridfa_to_bytes_with_engine, RiDfaArtifact};
pub use construct::{construct, construct_budgeted, construct_limited};
pub use minimize::minimize_interface;

use ridfa_automata::alphabet::ByteClasses;
use ridfa_automata::counter::Counter;
use ridfa_automata::nfa::Nfa;
use ridfa_automata::{BitSet, StateId, DEAD};

/// A reduced-interface DFA (multi-entry deterministic chunk automaton).
///
/// Build one with [`RiDfa::from_nfa`] (or [`construct_limited`] to bound
/// state growth), then optionally shrink its interface with
/// [`RiDfa::minimized`].
#[derive(Debug, Clone, PartialEq)]
pub struct RiDfa {
    pub(crate) classes: ByteClasses,
    pub(crate) stride: usize,
    /// Dense transition table, `table[p * stride + class]`; row 0 = dead.
    pub(crate) table: Vec<StateId>,
    /// States whose content includes an NFA final state (`F_RID`).
    pub(crate) finals: BitSet,
    /// The entry state of the conventional run: `entry[q0]`.
    pub(crate) start: StateId,
    /// Number of states of the source NFA (`ℓ = |Q_N|`).
    pub(crate) num_nfa_states: usize,
    /// Content CSR: NFA states represented by RI-DFA state `p` are
    /// `content[content_off[p]..content_off[p+1]]` (sorted).
    pub(crate) content_off: Vec<u32>,
    pub(crate) content: Vec<StateId>,
    /// `entry[q]` = RI-DFA state id of the singleton `{q}`.
    pub(crate) entry: Vec<StateId>,
    /// `delegate[q]` = the interface state serving NFA state `q`:
    /// equals `entry[q]` until interface minimization downgrades `{q}` and
    /// delegates its role to a language-equivalent representative.
    pub(crate) delegate: Vec<StateId>,
    /// The current interface `I_B`: sorted, deduplicated delegate image.
    pub(crate) interface: Vec<StateId>,
}

impl RiDfa {
    /// Builds the RI-DFA of `nfa` by the incremental powerset construction
    /// of Sect. 3.1 (no interface minimization; call
    /// [`minimized`](RiDfa::minimized) for the Sect. 3.4 reduction).
    pub fn from_nfa(nfa: &Nfa) -> RiDfa {
        construct(nfa)
    }

    /// Builds the RI-DFA of `nfa` under a
    /// [`ConstructionBudget`](ridfa_automata::ConstructionBudget)
    /// (state count and table bytes), failing with a typed
    /// [`Error::LimitExceeded`](ridfa_automata::Error::LimitExceeded)
    /// instead of allocating without bound on adversarial patterns.
    pub fn from_nfa_budgeted(
        nfa: &Nfa,
        budget: &ridfa_automata::ConstructionBudget,
    ) -> ridfa_automata::Result<RiDfa> {
        construct_budgeted(nfa, budget)
    }

    /// Returns a copy with the interface minimized by delegation
    /// (Sect. 3.4). The transition graph is unchanged.
    pub fn minimized(&self) -> RiDfa {
        minimize_interface(self)
    }

    /// Number of states, including the dead state 0.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.table.len() / self.stride
    }

    /// Number of live states (excluding dead).
    #[inline]
    pub fn num_live_states(&self) -> usize {
        self.num_states() - 1
    }

    /// Number of states of the source NFA (`|Q_N|`).
    #[inline]
    pub fn num_nfa_states(&self) -> usize {
        self.num_nfa_states
    }

    /// The interface `I_B`: the states a speculative chunk run may start
    /// from, sorted by id. Before minimization this has exactly
    /// `|Q_N|` elements; minimization can only shrink it.
    #[inline]
    pub fn interface(&self) -> &[StateId] {
        &self.interface
    }

    /// The entry state of the singleton `{q}` for NFA state `q`.
    #[inline]
    pub fn entry(&self, q: StateId) -> StateId {
        self.entry[q as usize]
    }

    /// The interface state serving NFA state `q` (its delegate).
    #[inline]
    pub fn delegate(&self, q: StateId) -> StateId {
        self.delegate[q as usize]
    }

    /// The NFA states represented by RI-DFA state `p` (sorted).
    #[inline]
    pub fn content(&self, p: StateId) -> &[StateId] {
        let lo = self.content_off[p as usize] as usize;
        let hi = self.content_off[p as usize + 1] as usize;
        &self.content[lo..hi]
    }

    /// Initial state of the conventional (first-chunk) run: `entry(q0)`.
    #[inline]
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Final states `F_RID`.
    #[inline]
    pub fn finals(&self) -> &BitSet {
        &self.finals
    }

    /// `true` if `p` is final.
    #[inline]
    pub fn is_final(&self, p: StateId) -> bool {
        self.finals.contains(p)
    }

    /// Byte-class map of the transition table.
    #[inline]
    pub fn classes(&self) -> &ByteClasses {
        &self.classes
    }

    /// Table stride (= number of byte classes).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Successor of `p` on `byte`.
    #[inline(always)]
    pub fn next(&self, p: StateId, byte: u8) -> StateId {
        self.table[p as usize * self.stride + self.classes.get(byte) as usize]
    }

    /// Successor of `p` on a byte class id.
    #[inline(always)]
    pub fn next_class(&self, p: StateId, class: u8) -> StateId {
        self.table[p as usize * self.stride + class as usize]
    }

    /// A copy of the transition table with every entry premultiplied by
    /// the stride — same layout contract as
    /// [`Dfa::premultiplied_table`](ridfa_automata::dfa::Dfa::premultiplied_table);
    /// consumed by the lockstep scan kernel.
    pub fn premultiplied_table(&self) -> Vec<StateId> {
        ridfa_automata::dfa::premultiply(&self.table, self.stride)
    }

    /// Runs from state `p` over `chunk`; returns the last active state or
    /// [`DEAD`] if the run terminated in error.
    /// Counts one transition per consumed byte (the step that discovers
    /// death is not counted — same convention as the DFA scanner).
    #[inline]
    pub fn run_from(&self, p: StateId, chunk: &[u8], counter: &mut impl Counter) -> StateId {
        let table = &self.table;
        let stride = self.stride;
        let classes = &self.classes;
        let mut s = p;
        for &byte in chunk {
            let next = table[s as usize * stride + classes.get(byte) as usize];
            if next == DEAD {
                return DEAD;
            }
            counter.incr();
            s = next;
        }
        s
    }

    /// Serial whole-string recognition: a single deterministic run from
    /// [`start`](RiDfa::start) — exactly `|text|` transitions unless it
    /// dies. (The RID device degenerates to a plain DFA when `c = 1`.)
    pub fn accepts(&self, text: &[u8]) -> bool {
        let last = self.run_from(self.start, text, &mut ridfa_automata::NoCount);
        last != DEAD && self.is_final(last)
    }

    /// The interface function `if` of Sect. 3.2, composed with delegation
    /// (Sect. 3.4): maps a set of last-active states onto the interface
    /// states from which the downstream chunk automaton must have started.
    ///
    /// `out` receives `{ delegate(q) | p ∈ plas, q ∈ content(p) }`,
    /// deduplicated; it is cleared first.
    pub fn interface_map(&self, plas: &[StateId], out: &mut Vec<StateId>) {
        interface::interface_map(self, plas, out)
    }

    /// Checks internal invariants; used by tests and the deserializer.
    /// Returns a description of the first violated invariant, if any.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_states();
        if self.content_off.len() != n + 1 {
            return Err(format!(
                "content_off has {} entries, expected {}",
                self.content_off.len(),
                n + 1
            ));
        }
        if self.table[..self.stride].iter().any(|&t| t != DEAD) {
            return Err("row 0 must be dead".into());
        }
        if let Some(&bad) = self.table.iter().find(|&&t| t as usize >= n) {
            return Err(format!("transition target {bad} out of range"));
        }
        if self.entry.len() != self.num_nfa_states || self.delegate.len() != self.num_nfa_states {
            return Err("entry/delegate must have one slot per NFA state".into());
        }
        for (q, &e) in self.entry.iter().enumerate() {
            if self.content(e) != [q as StateId] {
                return Err(format!("entry[{q}] does not point at singleton {{{q}}}"));
            }
        }
        for &d in &self.delegate {
            if !self.interface.contains(&d) {
                return Err(format!("delegate {d} not in interface"));
            }
        }
        if !self.interface.windows(2).all(|w| w[0] < w[1]) {
            return Err("interface must be sorted and deduplicated".into());
        }
        for &p in &self.interface {
            if p == DEAD || p as usize >= n {
                return Err(format!("interface state {p} invalid"));
            }
        }
        if self.start == DEAD || self.start as usize >= n {
            return Err(format!("start state {} invalid", self.start));
        }
        if !self.entry.contains(&self.start) {
            return Err("start must be the entry of some NFA state".into());
        }
        Ok(())
    }
}
