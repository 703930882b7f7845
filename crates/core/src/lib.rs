//! # ridfa-core — the RI-DFA and the RID speculative data-parallel recognizer
//!
//! This crate implements the contributions of *"Minimizing speculation
//! overhead in a parallel recognizer for regular texts"* (PPoPP 2025):
//!
//! * the **reduced-interface DFA** ([`ridfa::RiDfa`], Sect. 3.1 of the
//!   paper): a multi-entry deterministic automaton built from an NFA by an
//!   incremental powerset construction, whose *initial* ("interface")
//!   states mirror the NFA's states — typically far fewer than the states
//!   of the equivalent DFA;
//! * **interface minimization** ([`ridfa::minimize_interface`], Sect. 3.4):
//!   downgrading language-equivalent interface states with *delegation*
//!   instead of state merging, further shrinking speculation without
//!   touching the deterministic transition graph;
//! * the **CSDPA framework** ([`csdpa`], Sect. 2): chunking, the parallel
//!   *reach* phase and the serial *join* phase, with three interchangeable
//!   chunk-automaton variants — classic [`DfaCa`](csdpa::DfaCa), classic
//!   [`NfaCa`](csdpa::NfaCa), and the paper's [`RidCa`](csdpa::RidCa);
//! * a small **parallel runtime** ([`parallel`]): one persistent worker
//!   pool whose caller claims chunks next to its workers — the free
//!   recognizers run on a throwaway pool sized to their executor, a
//!   [`Session`](csdpa::Session) keeps one warm across texts;
//! * the **SFA** ([`sfa`]) comparator \[25\], which trades state explosion
//!   for zero speculation — built as an ablation.
//!
//! ## Quick example
//!
//! ```
//! use ridfa_automata::{regex, nfa};
//! use ridfa_core::ridfa::RiDfa;
//! use ridfa_core::csdpa::{recognize, Executor, RidCa};
//!
//! let ast = regex::parse("[ab]*a[ab]{4}").unwrap();
//! let nfa = nfa::glushkov::build(&ast).unwrap();
//! let rid = RiDfa::from_nfa(&nfa).minimized();
//!
//! // The interface is at most as large as the NFA, never the
//! // (exponentially larger) DFA.
//! assert!(rid.interface().len() <= nfa.num_states());
//!
//! let ca = RidCa::new(&rid);
//! let text = b"abbaabbbaabbbbabbbaabaabb";
//! let outcome = recognize(&ca, text, 4, Executor::PerChunk);
//! assert_eq!(outcome.accepted, nfa.accepts(text));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod csdpa;
pub mod parallel;
pub mod ridfa;
pub mod serve;
pub mod sfa;

pub use ridfa_automata as automata;
