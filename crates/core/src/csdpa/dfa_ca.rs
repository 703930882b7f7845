//! The classic DFA chunk automaton: every DFA state is a possible initial
//! state, so an interior chunk runs `|Q|` speculative scans (paper Sect. 2,
//! Fig. 2). This is the variant whose speculation overhead the RI-DFA
//! attacks.

use ridfa_automata::counter::Counter;
use ridfa_automata::dfa::Dfa;
use ridfa_automata::{StateId, DEAD};

use super::kernel::{self, DenseTable, Kernel, Scratch};
use super::ChunkAutomaton;

/// CSDPA chunk automaton wrapping a (usually minimal) DFA.
///
/// Interior scans run through the scan [`kernel`] (premultiplied rows,
/// shared table layout). [`new`](DfaCa::new) scans per run and never
/// merges runs, so the executed-transition counts stay exactly the
/// paper's `k × |chunk|` workload measure. [`with_kernel`](DfaCa::with_kernel)
/// picks another strategy: any other kernel merges runs that converge
/// to the same state (the state-convergence optimization the paper's
/// conclusion points at) and charges one transition per merged group.
/// Mappings are identical under every kernel.
#[derive(Debug, Clone)]
pub struct DfaCa<'a> {
    dfa: &'a Dfa,
    /// Premultiplied transition table (entries are `target * stride`) —
    /// owned when built by [`new`](DfaCa::new), borrowed when a registry
    /// or artifact already holds it.
    ptable: std::borrow::Cow<'a, [StateId]>,
    /// The configured scan strategy of interior chunks.
    kernel: Kernel,
}

impl<'a> DfaCa<'a> {
    /// Wraps `dfa`, premultiplying its table once. Scans per run.
    pub fn new(dfa: &'a Dfa) -> Self {
        DfaCa {
            dfa,
            ptable: std::borrow::Cow::Owned(dfa.premultiplied_table()),
            kernel: Kernel::PerRun,
        }
    }

    /// Wraps `dfa` around an already-premultiplied table (e.g. loaded
    /// from an artifact or cached by a pattern registry), making CA
    /// construction allocation-free. `ptable` must equal
    /// `dfa.premultiplied_table()`; length is checked, content is the
    /// caller's contract. Scans per run.
    pub fn with_table(dfa: &'a Dfa, ptable: &'a [StateId]) -> Self {
        assert_eq!(
            ptable.len(),
            dfa.table().len(),
            "premultiplied table length must match the transition table"
        );
        DfaCa {
            dfa,
            ptable: std::borrow::Cow::Borrowed(ptable),
            kernel: Kernel::PerRun,
        }
    }

    /// Scans interior chunks with `kernel` instead of per run;
    /// [`Kernel::Auto`] picks per chunk.
    pub fn with_kernel(self, kernel: Kernel) -> Self {
        DfaCa { kernel, ..self }
    }

    /// The wrapped automaton.
    pub fn dfa(&self) -> &'a Dfa {
        self.dfa
    }

    fn table(&self) -> DenseTable<'_> {
        DenseTable {
            ptable: &self.ptable,
            stride: self.dfa.stride(),
            classes: self.dfa.classes(),
        }
    }

    /// The kernel an interior chunk of `chunk_len` bytes runs, resolved
    /// from the live start count — the runs a scan actually starts.
    fn resolved(&self, chunk_len: usize) -> Kernel {
        kernel::resolve(
            self.kernel,
            self.num_speculative_starts(),
            chunk_len,
            self.ptable.len(),
        )
    }
}

impl ChunkAutomaton for DfaCa<'_> {
    /// `mapping[s]` = last active state of the run started in `s`
    /// ([`DEAD`](ridfa_automata::DEAD) when the run died, and for the slots
    /// a first-chunk scan never starts).
    type Mapping = Vec<StateId>;
    type Scratch = Scratch;
    type ComposeScratch = ();

    fn scan_into(
        &self,
        chunk: &[u8],
        scratch: &mut Scratch,
        counter: &mut impl Counter,
        out: &mut Vec<StateId>,
    ) {
        kernel::scan_into(
            self.table(),
            self.dfa.live_states().map(|s| (s, s)),
            self.dfa.num_states(),
            chunk,
            self.resolved(chunk.len()),
            scratch,
            counter,
            out,
        );
    }

    fn scan_first_into(&self, chunk: &[u8], counter: &mut impl Counter, out: &mut Vec<StateId>) {
        out.clear();
        out.resize(self.dfa.num_states(), DEAD);
        let start = self.dfa.start();
        out[start as usize] = self.dfa.run_from(start, chunk, counter);
    }

    fn arm_interrupt(&self, scratch: &mut Scratch, probe: Option<&super::budget::InterruptProbe>) {
        scratch.set_interrupt(probe.cloned());
    }

    /// Function composition: the DFA mapping is a (partial) function
    /// `Q → Q`, so `(right ⊙ left)(s) = right(left(s))`, with
    /// [`DEAD`](ridfa_automata::DEAD) absorbing.
    fn compose_into(
        &self,
        left: &Vec<StateId>,
        right: &Vec<StateId>,
        _scratch: &mut (),
        out: &mut Vec<StateId>,
    ) {
        out.clear();
        out.extend(
            left.iter()
                .map(|&s| if s == DEAD { DEAD } else { right[s as usize] }),
        );
    }

    fn accepts_mapping(&self, mapping: &Vec<StateId>) -> bool {
        let last = mapping[self.dfa.start() as usize];
        last != DEAD && self.dfa.is_final(last)
    }

    fn mapping_is_dead(&self, mapping: &Vec<StateId>) -> bool {
        mapping.iter().all(|&s| s == DEAD)
    }

    fn accepts_serial(&self, text: &[u8], counter: &mut impl Counter) -> bool {
        let last = self.dfa.run_from(self.dfa.start(), text, counter);
        last != DEAD && self.dfa.is_final(last)
    }

    fn num_speculative_starts(&self) -> usize {
        self.dfa.num_live_states()
    }

    fn effective_kernel(&self, chunk_len: usize) -> Option<Kernel> {
        Some(self.resolved(chunk_len))
    }

    fn name(&self) -> &'static str {
        match self.kernel {
            Kernel::PerRun => "dfa",
            _ => "dfa+conv",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csdpa::{recognize, Executor};
    use ridfa_automata::dfa::minimize::minimize;
    use ridfa_automata::dfa::powerset::determinize;
    use ridfa_automata::nfa::glushkov;
    use ridfa_automata::regex::parse;
    use ridfa_automata::{NoCount, TransitionCount};

    const KERNELS: [Kernel; 4] = [
        Kernel::PerRun,
        Kernel::LockstepShared,
        Kernel::Simd,
        Kernel::Auto,
    ];

    fn ca_dfa(pattern: &str) -> Dfa {
        determinize(&glushkov::build(&parse(pattern).unwrap()).unwrap())
    }

    fn figure1_min_dfa() -> Dfa {
        minimize(&determinize(&crate::ridfa::construct::tests::figure1_nfa()))
    }

    #[test]
    fn convergent_mapping_equals_plain_mapping() {
        let dfa = figure1_min_dfa();
        let plain = DfaCa::new(&dfa);
        for kernel in KERNELS {
            let conv = DfaCa::new(&dfa).with_kernel(kernel);
            for chunk in [&b"cab"[..], b"aab", b"", b"bbbb", b"aabcabaabcab"] {
                assert_eq!(
                    plain.scan(chunk, &mut NoCount),
                    conv.scan(chunk, &mut NoCount),
                    "{kernel:?} on {chunk:?}"
                );
            }
        }
    }

    #[test]
    fn convergence_reduces_executed_transitions() {
        let dfa = figure1_min_dfa();
        let plain = DfaCa::new(&dfa);
        let conv = DfaCa::new(&dfa).with_kernel(Kernel::LockstepShared);
        // Long chunk: runs converge, so the lockstep scan does less work.
        let chunk = b"aabcab".repeat(100);
        let mut c_plain = TransitionCount::default();
        plain.scan(&chunk, &mut c_plain);
        let mut c_conv = TransitionCount::default();
        conv.scan(&chunk, &mut c_conv);
        assert!(
            c_conv.get() < c_plain.get(),
            "convergent {} vs plain {}",
            c_conv.get(),
            c_plain.get()
        );
        // Lower bound: at least one transition per byte while alive.
        assert!(c_conv.get() >= chunk.len() as u64);
    }

    #[test]
    fn end_to_end_recognition_agrees() {
        let dfa = figure1_min_dfa();
        for kernel in KERNELS {
            let ca = DfaCa::new(&dfa).with_kernel(kernel);
            let mut text = b"aabcab".repeat(200);
            for chunks in [1usize, 3, 8] {
                assert!(recognize(&ca, &text, chunks, Executor::PerChunk).accepted);
            }
            text.push(b'c');
            assert!(!recognize(&ca, &text, 4, Executor::PerChunk).accepted);
        }
    }

    #[test]
    fn effective_kernel_is_the_kernel_that_ran() {
        // Two live states whose runs converge after one byte: the start
        // count decides between per-run and lockstep, so resolving from
        // any other count reports a kernel the scan did not run.
        let dfa = minimize(&ca_dfa("(a|b)*b"));
        assert_eq!(dfa.num_live_states(), 2);
        let auto = DfaCa::new(&dfa).with_kernel(Kernel::Auto);
        for len in [0usize, 1, 63, 64, 100, 4095, 4096, 5000] {
            let chunk: Vec<u8> = (0..len)
                .map(|i| if i % 3 == 0 { b'b' } else { b'a' })
                .collect();
            let reported = auto.effective_kernel(len).unwrap();
            assert_ne!(reported, Kernel::Auto);
            let pinned = DfaCa::new(&dfa).with_kernel(reported);
            let mut ran = TransitionCount::default();
            let mut expected = TransitionCount::default();
            let m_auto = auto.scan(&chunk, &mut ran);
            let m_pinned = pinned.scan(&chunk, &mut expected);
            assert_eq!(m_auto, m_pinned, "len {len}");
            assert_eq!(
                ran.get(),
                expected.get(),
                "len {len}: reported {reported:?}"
            );
        }
    }

    #[test]
    fn name_follows_the_kernel() {
        let dfa = figure1_min_dfa();
        assert_eq!(DfaCa::new(&dfa).name(), "dfa");
        assert_eq!(DfaCa::new(&dfa).effective_kernel(64), Some(Kernel::PerRun));
        for kernel in [Kernel::LockstepShared, Kernel::Simd, Kernel::Auto] {
            assert_eq!(DfaCa::new(&dfa).with_kernel(kernel).name(), "dfa+conv");
        }
    }

    #[test]
    fn scan_then_join_equals_serial() {
        let dfa = ca_dfa("(a|b)*abb");
        let ca = DfaCa::new(&dfa);
        for text in [&b"aababb"[..], b"abb", b"ab", b"bbbb", b""] {
            let mid = text.len() / 2;
            let m1 = ca.scan_first(&text[..mid], &mut NoCount);
            let m2 = ca.scan(&text[mid..], &mut NoCount);
            let parallel = ca.join(&[m1, m2]);
            assert_eq!(parallel, dfa.accepts(text), "{text:?}");
        }
    }

    #[test]
    fn interior_scan_runs_all_live_states() {
        let dfa = ca_dfa("[ab]*a[ab]{2}");
        let ca = DfaCa::new(&dfa);
        let mut c = TransitionCount::default();
        ca.scan(b"ab", &mut c);
        // No run over {a,b}-only text can die in this language: the cost
        // is exactly |chunk| × |Q|.
        assert_eq!(c.get(), 2 * dfa.num_live_states() as u64);
    }

    #[test]
    fn first_scan_runs_once() {
        let dfa = ca_dfa("[ab]*a[ab]{2}");
        let ca = DfaCa::new(&dfa);
        let mut c = TransitionCount::default();
        ca.scan_first(b"abab", &mut c);
        assert_eq!(c.get(), 4, "first chunk is non-speculative");
    }

    #[test]
    fn join_rejects_when_all_runs_die() {
        let dfa = ca_dfa("aaa");
        let ca = DfaCa::new(&dfa);
        let m1 = ca.scan_first(b"zz", &mut NoCount);
        let m2 = ca.scan(b"a", &mut NoCount);
        assert!(!ca.join(&[m1, m2]));
    }

    #[test]
    fn figure1_transition_count_is_15() {
        // Paper Fig. 1, classic DFA method: "aab"+"cab" = 3 + 12 = 15.
        let nfa = crate::ridfa::construct::tests::figure1_nfa();
        let dfa = determinize(&nfa);
        let ca = DfaCa::new(&dfa);
        let mut c = TransitionCount::default();
        let m1 = ca.scan_first(b"aab", &mut c);
        let m2 = ca.scan(b"cab", &mut c);
        assert_eq!(c.get(), 15);
        assert!(ca.join(&[m1, m2]), "aabcab ∈ L");
    }
}
