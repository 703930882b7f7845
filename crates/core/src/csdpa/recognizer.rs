//! The full recognition device: chunking + parallel reach + serial join.
//!
//! The free entry points run on a throwaway [`Session`] whose pool their
//! [`Executor`] sizes, so they and a warm session share one body: the
//! session's reach over the chunk spans, then its join. Every reach
//! scans its chunks through the one chunk task of this module, which
//! checks the budget probe, scans a first chunk from the initial state
//! and an interior one speculatively, and adds the transitions of a
//! counted recognition to one atomic tally — [`CountedOutcome`] carries
//! the total, not a per-chunk breakdown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ridfa_automata::counter::{Counter, NoCount, TransitionCount};

use super::budget::InterruptProbe;
use super::chunking::chunk_count;
use super::{ChunkAutomaton, Kernel, Session};

/// How many threads claim the chunks of a free [`recognize`] call: the
/// calling thread plus the workers of a throwaway [`Session`], never
/// more claimants than chunks.
///
/// This is the thread-shape half of the adaptive execution layer; the
/// scan-strategy half (per-run vs lockstep per chunk) lives in
/// [`kernel::select`](super::kernel::select) and is consulted by the
/// chunk automata themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// One claimant: the calling thread scans every chunk and no thread
    /// is spawned (debug / baseline).
    Serial,
    /// One claimant per chunk — the paper's Java-thread model,
    /// appropriate when `c ≤` available cores.
    PerChunk,
    /// `n` claimants taking chunks dynamically.
    Team(usize),
    /// One claimant per chunk while chunks fit the available cores, a
    /// core-sized team beyond that.
    Auto,
}

impl Executor {
    /// The throwaway session a free entry point scans `num_chunks`
    /// chunks on: one worker per claimant but the caller.
    fn session(self, num_chunks: usize) -> Session {
        let claimants = match self {
            Executor::Serial => 1,
            Executor::PerChunk => num_chunks,
            Executor::Team(n) => n,
            Executor::Auto => std::thread::available_parallelism().map_or(4, |n| n.get()),
        };
        Session::new(claimants.min(num_chunks).saturating_sub(1))
    }

    /// The shape recorded for a reach of `claimants` claimants: `Serial`
    /// for one (or none), `Team(k)` for `k`.
    pub(super) fn of_claimants(claimants: usize) -> Executor {
        match claimants {
            0 | 1 => Executor::Serial,
            k => Executor::Team(k),
        }
    }
}

/// Result of an uninstrumented (timed) recognition.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Did the device accept the text?
    pub accepted: bool,
    /// Number of chunks actually used (after clamping).
    pub num_chunks: usize,
    /// Wall time of the parallel reach phase.
    pub reach: Duration,
    /// Wall time of the serial join phase.
    pub join: Duration,
    /// What ran: the session's claimants (pool workers plus the caller),
    /// capped at the chunk count — [`Executor::Serial`] for one (a
    /// session without workers, or a single chunk),
    /// [`Executor::Team`]`(k)` for `k`.
    pub executor: Executor,
    /// The scan strategy the interior (speculative) chunk scans actually
    /// executed, resolved through
    /// [`ChunkAutomaton::effective_kernel`] for the largest interior
    /// chunk. `None` when the text ran as a single chunk (no speculative
    /// scans) or the CA does not scan through the lockstep kernel.
    pub kernel: Option<Kernel>,
}

/// Result of an instrumented recognition (paper Sect. 4.3 measurements).
#[derive(Debug, Clone)]
pub struct CountedOutcome {
    /// Did the device accept the text?
    pub accepted: bool,
    /// Number of chunks actually used (after clamping).
    pub num_chunks: usize,
    /// Total transitions across all chunks (the paper's workload measure).
    pub transitions: u64,
    /// Wall time of the parallel reach phase.
    pub reach: Duration,
    /// Wall time of the serial join phase.
    pub join: Duration,
    /// What ran (see [`Outcome::executor`]).
    pub executor: Executor,
    /// The scan strategy of the interior chunk scans (see
    /// [`Outcome::kernel`]).
    pub kernel: Option<Kernel>,
}

impl CountedOutcome {
    /// The counted outcome of a recognition whose chunk scans executed
    /// `transitions` in total.
    pub(super) fn from_parts(out: Outcome, transitions: u64) -> CountedOutcome {
        CountedOutcome {
            accepted: out.accepted,
            num_chunks: out.num_chunks,
            transitions,
            reach: out.reach,
            join: out.join,
            executor: out.executor,
            kernel: out.kernel,
        }
    }
}

/// Recognizes `text` with chunk automaton `ca`, split into `num_chunks`
/// chunks, on a throwaway session of the claimants `executor` names. No
/// instrumentation: this is the entry point to *time*. Keep a
/// [`Session`] instead when texts arrive back to back: it starts its
/// pool and warms its scan scratches once, not per call.
pub fn recognize<CA: ChunkAutomaton>(
    ca: &CA,
    text: &[u8],
    num_chunks: usize,
    executor: Executor,
) -> Outcome {
    let n = chunk_count(text.len(), num_chunks);
    executor.session(n).recognize(ca, text, n)
}

/// Like [`recognize`] but over caller-provided chunk spans — the entry
/// point for separator-snapped chunking
/// ([`chunk_spans_snapped`](super::chunk_spans_snapped)), where the cut
/// points depend on the text's record structure rather than its length
/// alone. `spans` must cover `text` contiguously from 0 (the
/// [`chunk_spans`](super::chunk_spans)/`chunk_spans_snapped` contract);
/// the first span is scanned as the first chunk.
pub fn recognize_spans<CA: ChunkAutomaton>(
    ca: &CA,
    text: &[u8],
    spans: &[std::ops::Range<usize>],
    executor: Executor,
) -> Outcome {
    executor
        .session(spans.len())
        .recognize_over(ca, text, spans.len(), |i| spans[i].clone(), None, None)
        .expect("unbudgeted recognition cannot be interrupted")
}

/// One chunk task of a reach phase: arms (or clears) the budget probe on
/// the scan scratch and gives the chunk up if the budget has tripped
/// (the reach then returns the probe's error instead of the mappings).
/// Otherwise it scans the chunk `task` names into `out` — from the
/// initial state when it is a first chunk, speculatively through
/// `scratch` otherwise — adding the executed transitions to `tally` when
/// one is given.
pub(super) fn scan_task<'t, CA: ChunkAutomaton>(
    ca: &CA,
    task: impl FnOnce() -> (&'t [u8], bool),
    scratch: &mut CA::Scratch,
    out: &mut CA::Mapping,
    probe: Option<&InterruptProbe>,
    tally: Option<&AtomicU64>,
) {
    ca.arm_interrupt(scratch, probe);
    if probe.is_some_and(|p| p.should_stop()) {
        return;
    }
    let (chunk, first) = task();
    match tally {
        None => scan(ca, chunk, first, scratch, &mut NoCount, out),
        Some(tally) => {
            let mut counter = TransitionCount::default();
            scan(ca, chunk, first, scratch, &mut counter, out);
            tally.fetch_add(counter.get(), Ordering::Relaxed);
        }
    }
}

/// Scans `chunk` into `out`, from the initial state when `first`.
fn scan<CA: ChunkAutomaton>(
    ca: &CA,
    chunk: &[u8],
    first: bool,
    scratch: &mut CA::Scratch,
    counter: &mut impl Counter,
    out: &mut CA::Mapping,
) {
    if first {
        ca.scan_first_into(chunk, counter, out);
    } else {
        ca.scan_into(chunk, scratch, counter, out);
    }
}

/// The kernel recorded in outcomes: what the CA's speculative scan
/// dispatch resolves to for the *longest* of the interior chunks whose
/// lengths `interior` yields (chunk sizes of one recognition differ by
/// at most one byte, so the answer is uniform in practice). `None` for
/// single-chunk runs — only the first chunk ran, deterministically,
/// outside the speculative kernel.
pub(super) fn effective_kernel_for<CA: ChunkAutomaton>(
    ca: &CA,
    interior: impl IntoIterator<Item = usize>,
) -> Option<Kernel> {
    ca.effective_kernel(interior.into_iter().max()?)
}

/// Like [`recognize`] but tallying the executed transitions of every
/// chunk scan — the quantity Fig. 7 / Tab. 3 of the paper report.
/// Slightly slower than [`recognize`]; never mix the two in one timing
/// comparison.
pub fn recognize_counted<CA: ChunkAutomaton>(
    ca: &CA,
    text: &[u8],
    num_chunks: usize,
    executor: Executor,
) -> CountedOutcome {
    let n = chunk_count(text.len(), num_chunks);
    executor.session(n).recognize_counted(ca, text, n)
}

/// Serial whole-text recognition with the same automaton — the speedup
/// baseline. Returns acceptance, executed transitions, and wall time.
pub fn recognize_serial<CA: ChunkAutomaton>(ca: &CA, text: &[u8]) -> (bool, u64, Duration) {
    let mut counter = TransitionCount::default();
    let start = Instant::now();
    let accepted = ca.accepts_serial(text, &mut counter);
    (accepted, counter.get(), start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csdpa::{DfaCa, NfaCa, RidCa};
    use crate::ridfa::construct::tests::figure1_nfa;
    use crate::ridfa::RiDfa;
    use ridfa_automata::dfa::powerset::determinize;

    fn sample_text(accept: bool) -> Vec<u8> {
        // Strings over {a,b,c}; "…ab" with valid structure accepted by the
        // Fig. 1 machine. Build a long accepted text by pumping "aabcab".
        let mut t = Vec::new();
        for _ in 0..200 {
            t.extend_from_slice(b"aabcab");
        }
        if !accept {
            t.push(b'c');
        }
        t
    }

    #[test]
    fn all_variants_agree_with_serial_dfa() {
        let nfa = figure1_nfa();
        let dfa = determinize(&nfa);
        let rid = RiDfa::from_nfa(&nfa).minimized();
        let dfa_ca = DfaCa::new(&dfa);
        let nfa_ca = NfaCa::new(&nfa);
        let rid_ca = RidCa::new(&rid);
        for accept in [true, false] {
            let text = sample_text(accept);
            let expected = dfa.accepts(&text);
            assert_eq!(expected, accept);
            for chunks in [1, 2, 3, 7, 32, 1000] {
                for executor in [Executor::Serial, Executor::PerChunk, Executor::Team(3)] {
                    assert_eq!(
                        recognize(&dfa_ca, &text, chunks, executor).accepted,
                        expected,
                        "dfa c={chunks} {executor:?}"
                    );
                    assert_eq!(
                        recognize(&nfa_ca, &text, chunks, executor).accepted,
                        expected,
                        "nfa c={chunks} {executor:?}"
                    );
                    assert_eq!(
                        recognize(&rid_ca, &text, chunks, executor).accepted,
                        expected,
                        "rid c={chunks} {executor:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn counted_outcome_matches_figure1() {
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let out = recognize_counted(&ca, b"aabcab", 2, Executor::Serial);
        assert!(out.accepted);
        assert_eq!(out.num_chunks, 2);
        assert_eq!(out.transitions, 9, "paper Fig. 1 bottom-right total");
    }

    #[test]
    fn serial_baseline_counts_text_length() {
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let (accepted, transitions, _) = recognize_serial(&ca, b"aabcab");
        assert!(accepted);
        assert_eq!(transitions, 6, "serial deterministic run = |x|");
    }

    #[test]
    fn empty_text_recognition() {
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let out = recognize(&ca, b"", 8, Executor::PerChunk);
        assert!(!out.accepted, "ε ∉ L (state 0 is not final)");
        assert_eq!(out.num_chunks, 1);
    }

    #[test]
    fn pooled_degrade_is_recorded() {
        // The free recognizer runs on a pool of at most one claimant per
        // chunk, and the outcome records the shape that ran, not the one
        // requested.
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        for (executor, ran) in [
            (Executor::Serial, Executor::Serial),
            (Executor::Team(1), Executor::Serial),
            (Executor::Team(2), Executor::Team(2)),
            (Executor::Team(3), Executor::Team(2)),
            (Executor::PerChunk, Executor::Team(2)),
        ] {
            let out = recognize(&ca, b"aabcab", 2, executor);
            assert!(out.accepted);
            assert_eq!(out.executor, ran, "{executor:?}");
            let counted = recognize_counted(&ca, b"aabcab", 2, executor);
            assert_eq!(counted.executor, ran, "{executor:?}");
        }
        // One chunk leaves one claimant, whatever was asked for.
        assert_eq!(
            recognize(&ca, b"aabcab", 1, Executor::Team(4)).executor,
            Executor::Serial
        );
    }

    #[test]
    fn budgeted_recognition_matches_plain_and_fails_typed() {
        use super::super::budget::{Budget, CancelToken, RecognizeError};
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let text = b"aabcab".repeat(100);
        // Zero workers (the caller scans every chunk) and a pool alike.
        for workers in [0, 3] {
            let mut session = Session::new(workers);
            // Unlimited budget: same verdict as the plain path.
            let out = session
                .recognize_budgeted(&ca, &text, 4, &Budget::unlimited())
                .unwrap();
            assert!(out.accepted);
            // Pre-expired deadline: deterministic typed failure.
            let expired = Budget::with_timeout(Duration::ZERO);
            assert_eq!(
                session
                    .recognize_budgeted(&ca, &text, 4, &expired)
                    .unwrap_err(),
                RecognizeError::DeadlineExceeded
            );
            // Pre-cancelled token: ditto.
            let token = CancelToken::new();
            token.cancel();
            let cancelled = Budget::with_cancel(&token);
            assert_eq!(
                session
                    .recognize_budgeted(&ca, &text, 4, &cancelled)
                    .unwrap_err(),
                RecognizeError::Cancelled
            );
            // A generous budget does not perturb the verdict.
            let roomy = Budget::with_timeout(Duration::from_secs(3600));
            assert!(
                session
                    .recognize_budgeted(&ca, &text, 4, &roomy)
                    .unwrap()
                    .accepted
            );
        }
    }

    #[test]
    fn recognize_spans_matches_balanced_chunking() {
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        for accept in [true, false] {
            let text = sample_text(accept);
            let expected = recognize(&ca, &text, 4, Executor::Serial).accepted;
            // Hand-rolled uneven spans: same verdict.
            let cut1 = text.len() / 5;
            let cut2 = text.len() / 2 + 3;
            let spans = vec![0..cut1, cut1..cut2, cut2..text.len()];
            let out = recognize_spans(&ca, &text, &spans, Executor::Team(2));
            assert_eq!(out.accepted, expected);
            assert_eq!(out.num_chunks, 3);
        }
    }

    #[test]
    fn chunk_count_clamped_to_text_len() {
        let nfa = figure1_nfa();
        let dfa = determinize(&nfa);
        let ca = DfaCa::new(&dfa);
        let out = recognize(&ca, b"ab", 64, Executor::PerChunk);
        assert_eq!(out.num_chunks, 2);
    }
}
