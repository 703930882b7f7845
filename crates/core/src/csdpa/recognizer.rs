//! The full recognition device: chunking + parallel reach + serial join.
//!
//! The free entry points run the reach phase on spawned threads (see
//! [`Executor`]); a [`Session`](super::Session) runs it on its pool. Both
//! scan every chunk through the one chunk task of this module, which
//! checks the budget probe, scans a first chunk from the initial state
//! and an interior one speculatively, and adds the transitions of a
//! counted recognition to one atomic tally — [`CountedOutcome`] carries
//! the total, not a per-chunk breakdown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ridfa_automata::counter::{Counter, NoCount, TransitionCount};

use crate::parallel::run_indexed_with;

use super::budget::{run_budgeted, Budget, InterruptProbe, RecognizeError};
use super::{chunk_spans, ChunkAutomaton, Kernel};

/// How the reach phase distributes chunk scans over OS threads.
///
/// This is the thread-shape half of the adaptive execution layer; the
/// scan-strategy half (per-run vs lockstep per chunk) lives in
/// [`kernel::select`](super::kernel::select) and is consulted by the
/// chunk automata themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// All chunks on the calling thread (debug / baseline).
    Serial,
    /// One thread per chunk — the paper's Java-thread model, appropriate
    /// when `c ≤` available cores.
    PerChunk,
    /// A bounded team of `n` threads claiming chunks dynamically.
    Team(usize),
    /// Adaptive: one thread per chunk while chunks fit the available
    /// cores, a core-sized dynamic team beyond that, serial for a single
    /// chunk.
    Auto,
    /// The persistent worker pool of a [`Session`](super::Session): no
    /// thread spawn per text, per-worker scan scratches stay warm across
    /// texts. Meaningful through
    /// [`Session::recognize_with`](super::Session::recognize_with);
    /// through the free [`recognize`] functions (which have no pool at
    /// hand) it degrades to [`Executor::Auto`] — the degrade is visible
    /// in [`Outcome::executor`] / [`CountedOutcome::executor`], which
    /// always record the shape that actually ran.
    Pooled,
}

impl Executor {
    fn workers(self, num_chunks: usize) -> usize {
        match self {
            Executor::Serial => 1,
            Executor::PerChunk => num_chunks,
            Executor::Team(n) => n.max(1),
            Executor::Auto | Executor::Pooled => {
                let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
                num_chunks.min(cores)
            }
        }
    }

    /// The executor shape the free [`recognize`] functions actually run:
    /// [`Executor::Pooled`] needs a [`Session`](super::Session) and
    /// degrades to [`Executor::Auto`] here. Callers comparing execution
    /// shapes should check the recorded outcome executor rather than the
    /// one they requested.
    pub fn effective_spawning(self) -> Executor {
        match self {
            Executor::Pooled => Executor::Auto,
            other => other,
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
    /// The executor shape that actually ran — [`Executor::Pooled`]
    /// requested through the free [`recognize`] degrades to
    /// [`Executor::Auto`] and is recorded as such.
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
    /// The executor shape that actually ran (see [`Outcome::executor`]).
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
/// chunks, using `executor` for the reach phase. No instrumentation: this
/// is the entry point to *time*.
pub fn recognize<CA: ChunkAutomaton>(
    ca: &CA,
    text: &[u8],
    num_chunks: usize,
    executor: Executor,
) -> Outcome {
    let spans = chunk_spans(text.len(), num_chunks);
    recognize_over(ca, text, &spans, executor, None, None)
        .expect("unbudgeted recognition cannot be interrupted")
}

/// Like [`recognize`] but bounded by `budget`: the reach phase checks the
/// deadline/cancellation probe at chunk-claim boundaries and (through
/// [`ChunkAutomaton::arm_interrupt`]) once per classification block inside
/// kernel scans, so even a single giant chunk notices expiry promptly.
/// The check is amortized — an unexpired budget costs one relaxed atomic
/// load per block — and allocation-free.
///
/// Any panic escaping the chunk automaton during the reach or join phase
/// is trapped and surfaced as [`RecognizeError::Panicked`] instead of
/// unwinding through the caller.
///
/// Granularity caveat: first-chunk scans and chunk automata without a
/// kernel scratch ([`NfaCa`](super::NfaCa), [`SfaCa`](super::SfaCa)) are
/// only interruptible *between* chunks, not mid-scan.
pub fn recognize_budgeted<CA: ChunkAutomaton>(
    ca: &CA,
    text: &[u8],
    num_chunks: usize,
    executor: Executor,
    budget: &Budget,
) -> Result<Outcome, RecognizeError> {
    let spans = chunk_spans(text.len(), num_chunks);
    run_budgeted(budget, |probe| {
        recognize_over(ca, text, &spans, executor, probe, None)
    })
}

/// Like [`recognize`] but over caller-provided chunk spans — the entry
/// point for separator-snapped chunking
/// ([`chunk_spans_snapped`](super::chunk_spans_snapped)), where the cut
/// points depend on the text's record structure rather than its length
/// alone. `spans` must cover `text` contiguously from 0 (the
/// [`chunk_spans`]/`chunk_spans_snapped` contract); the first span is
/// scanned as the first chunk.
pub fn recognize_spans<CA: ChunkAutomaton>(
    ca: &CA,
    text: &[u8],
    spans: &[std::ops::Range<usize>],
    executor: Executor,
) -> Outcome {
    recognize_over(ca, text, spans, executor, None, None)
        .expect("unbudgeted recognition cannot be interrupted")
}

/// The reach + join body over explicit spans, shared by every free entry
/// point: [`Executor::Pooled`] degrades to its spawning shape, `probe`
/// makes the scans interruptible, and `tally` (when given) receives the
/// executed transitions.
fn recognize_over<CA: ChunkAutomaton>(
    ca: &CA,
    text: &[u8],
    spans: &[std::ops::Range<usize>],
    executor: Executor,
    probe: Option<&InterruptProbe>,
    tally: Option<&AtomicU64>,
) -> Result<Outcome, RecognizeError> {
    debug_assert!(!spans.is_empty());
    let executor = executor.effective_spawning();
    let reach_start = Instant::now();
    let mappings = run_indexed_with(
        executor.workers(spans.len()),
        spans.len(),
        CA::Scratch::default,
        |scratch, i| {
            let mut mapping = CA::Mapping::default();
            let task = || (&text[spans[i].clone()], i == 0);
            scan_task(ca, task, scratch, &mut mapping, probe, tally);
            mapping
        },
    );
    let reach = reach_start.elapsed();
    if let Some(err) = probe.and_then(|p| p.status()) {
        return Err(err);
    }
    let join_start = Instant::now();
    let accepted = ca.join(&mappings);
    Ok(Outcome {
        accepted,
        num_chunks: spans.len(),
        reach,
        join: join_start.elapsed(),
        executor,
        kernel: effective_kernel_for(ca, spans.iter().skip(1).map(|s| s.len())),
    })
}

/// One chunk task of a reach phase, spawned or pooled: arms (or clears)
/// the budget probe on the scan scratch and gives the chunk up if the
/// budget has tripped (the reach then returns the probe's error instead
/// of the mappings). Otherwise it scans the chunk `task` names into
/// `out` — from the initial state when it is a first chunk,
/// speculatively through `scratch` otherwise — adding the executed
/// transitions to `tally` when one is given.
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
    let spans = chunk_spans(text.len(), num_chunks);
    let tally = AtomicU64::new(0);
    let out = recognize_over(ca, text, &spans, executor, None, Some(&tally))
        .expect("unbudgeted recognition cannot be interrupted");
    CountedOutcome::from_parts(out, tally.into_inner())
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
        // Regression: the free recognizer has no pool, so requesting
        // `Executor::Pooled` silently ran `Auto` — the outcome must now
        // say so instead of letting callers believe they measured the
        // pooled path.
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let out = recognize(&ca, b"aabcab", 2, Executor::Pooled);
        assert!(out.accepted);
        assert_eq!(out.executor, Executor::Auto, "degrade must be visible");
        let counted = recognize_counted(&ca, b"aabcab", 2, Executor::Pooled);
        assert_eq!(counted.executor, Executor::Auto);
        // Non-degrading shapes are recorded verbatim.
        assert_eq!(
            recognize(&ca, b"aabcab", 2, Executor::Team(3)).executor,
            Executor::Team(3)
        );
        assert_eq!(
            recognize(&ca, b"aabcab", 2, Executor::Serial).executor,
            Executor::Serial
        );
    }

    #[test]
    fn budgeted_recognition_matches_plain_and_fails_typed() {
        use super::super::budget::{Budget, CancelToken};
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let text = b"aabcab".repeat(100);
        // Unlimited budget: same verdict as the plain path.
        let out = recognize_budgeted(&ca, &text, 4, Executor::Auto, &Budget::unlimited()).unwrap();
        assert!(out.accepted);
        // Pre-expired deadline: deterministic typed failure.
        let expired = Budget::with_timeout(Duration::ZERO);
        assert_eq!(
            recognize_budgeted(&ca, &text, 4, Executor::Auto, &expired).unwrap_err(),
            RecognizeError::DeadlineExceeded
        );
        // Pre-cancelled token: ditto.
        let token = CancelToken::new();
        token.cancel();
        let cancelled = Budget::with_cancel(&token);
        assert_eq!(
            recognize_budgeted(&ca, &text, 4, Executor::Auto, &cancelled).unwrap_err(),
            RecognizeError::Cancelled
        );
        // A generous budget does not perturb the verdict.
        let roomy = Budget::with_timeout(Duration::from_secs(3600));
        assert!(
            recognize_budgeted(&ca, &text, 4, Executor::Serial, &roomy)
                .unwrap()
                .accepted
        );
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
