//! # ridfa — minimizing speculation overhead in a parallel recognizer for regular texts
//!
//! Facade crate re-exporting the full public API of the workspace:
//!
//! * [`automata`] — regular expressions, NFA, DFA, powerset, Hopcroft
//!   (crate `ridfa-automata`);
//! * [`core`] — the RI-DFA chunk automaton, interface minimization, and the
//!   speculative data-parallel recognizer with its DFA / NFA / RI-DFA
//!   variants (crate `ridfa-core`);
//! * [`workloads`] — the benchmark generators of the paper's evaluation
//!   (crate `ridfa-workloads`).
//!
//! See `README.md` for a guided tour and `examples/` for runnable programs.

#![deny(unsafe_code)]

pub mod faults;

pub use ridfa_automata as automata;
pub use ridfa_core as core;
pub use ridfa_workloads as workloads;
