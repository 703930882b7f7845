//! State-convergence chunk automata: the lockstep [`kernel`] applied to
//! the classic DFA CA and the RI-DFA CA.
//!
//! The paper's conclusion notes that the RI-DFA approach "is compatible
//! with most existing [optimizations], in particular with state-
//! convergence" (citing the data-parallel FSM work of Mytkowicz et al.
//! \[22\]). These wrappers run all speculative starts through the
//! single-pass lockstep kernel — runs that have *converged* to the same
//! state are merged and charged a single transition from that byte on,
//! and the byte→class translation is shared across all runs. On
//! realistic texts most runs converge (or die) within a few hundred
//! bytes, so the per-byte cost collapses from `|I|` towards 1.
//!
//! Both CAs produce mappings bit-identical to their non-convergent
//! counterparts (asserted by `tests/convergence.rs` across random
//! regexes, texts and cut points), so the join phase is unchanged. The
//! kernel strategy defaults to [`Kernel::Auto`] — short chunks and tiny
//! interfaces scan per run, everything else takes the fused lockstep
//! path — and can be pinned with
//! [`with_kernel`](ConvergentDfaCa::with_kernel) for ablations.

use ridfa_automata::counter::Counter;
use ridfa_automata::dfa::Dfa;
use ridfa_automata::StateId;

use crate::ridfa::RiDfa;

use super::kernel::{self, DenseTable, Kernel, Scratch};
use super::{ChunkAutomaton, DfaCa, RidCa, RidMapping};

/// The classic DFA chunk automaton with convergence merging.
#[derive(Debug, Clone)]
pub struct ConvergentDfaCa<'a> {
    inner: DfaCa<'a>,
    kernel: Kernel,
}

impl<'a> ConvergentDfaCa<'a> {
    /// Wraps `dfa` with adaptive kernel selection.
    pub fn new(dfa: &'a Dfa) -> Self {
        Self::with_kernel(dfa, Kernel::Auto)
    }

    /// Wraps `dfa`, pinning the scan strategy (for ablations and tests).
    pub fn with_kernel(dfa: &'a Dfa, kernel: Kernel) -> Self {
        Self::from_inner(DfaCa::new(dfa), kernel)
    }

    /// Wraps an already-built [`DfaCa`] (e.g. one borrowing registry
    /// tables via [`DfaCa::with_table`]), pinning the scan strategy.
    pub fn from_inner(inner: DfaCa<'a>, kernel: Kernel) -> Self {
        ConvergentDfaCa { inner, kernel }
    }

    /// The configured scan strategy.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }
}

impl ChunkAutomaton for ConvergentDfaCa<'_> {
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
        let dfa = self.inner.dfa();
        kernel::scan_into(
            DenseTable {
                ptable: self.inner.ptable(),
                stride: dfa.stride(),
                classes: dfa.classes(),
            },
            dfa.live_states().map(|s| (s, s)),
            dfa.num_states(),
            chunk,
            self.kernel,
            scratch,
            counter,
            out,
        );
    }

    fn scan_first_into(&self, chunk: &[u8], counter: &mut impl Counter, out: &mut Vec<StateId>) {
        self.inner.scan_first_into(chunk, counter, out)
    }

    fn arm_interrupt(&self, scratch: &mut Scratch, probe: Option<&super::budget::InterruptProbe>) {
        self.inner.arm_interrupt(scratch, probe)
    }

    fn compose_into(
        &self,
        left: &Vec<StateId>,
        right: &Vec<StateId>,
        scratch: &mut (),
        out: &mut Vec<StateId>,
    ) {
        self.inner.compose_into(left, right, scratch, out)
    }

    fn accepts_mapping(&self, mapping: &Vec<StateId>) -> bool {
        self.inner.accepts_mapping(mapping)
    }

    fn mapping_is_dead(&self, mapping: &Vec<StateId>) -> bool {
        self.inner.mapping_is_dead(mapping)
    }

    fn accepts_serial(&self, text: &[u8], counter: &mut impl Counter) -> bool {
        self.inner.accepts_serial(text, counter)
    }

    fn num_speculative_starts(&self) -> usize {
        self.inner.num_speculative_starts()
    }

    fn effective_kernel(&self, chunk_len: usize) -> Option<Kernel> {
        Some(resolve_kernel(
            self.kernel,
            self.num_speculative_starts(),
            chunk_len,
            self.inner.ptable().len(),
        ))
    }

    fn name(&self) -> &'static str {
        "dfa+conv"
    }
}

/// The RID chunk automaton with convergence merging.
#[derive(Debug, Clone)]
pub struct ConvergentRidCa<'a> {
    inner: RidCa<'a>,
    kernel: Kernel,
}

impl<'a> ConvergentRidCa<'a> {
    /// Wraps `rid` with adaptive kernel selection.
    pub fn new(rid: &'a RiDfa) -> Self {
        Self::with_kernel(rid, Kernel::Auto)
    }

    /// Wraps `rid`, pinning the scan strategy (for ablations and tests).
    pub fn with_kernel(rid: &'a RiDfa, kernel: Kernel) -> Self {
        Self::from_inner(RidCa::new(rid), kernel)
    }

    /// Wraps an already-built [`RidCa`] (e.g. one borrowing registry
    /// tables via [`RidCa::with_tables`]), pinning the scan strategy.
    pub fn from_inner(inner: RidCa<'a>, kernel: Kernel) -> Self {
        ConvergentRidCa { inner, kernel }
    }

    /// The configured scan strategy.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }
}

impl ChunkAutomaton for ConvergentRidCa<'_> {
    type Mapping = RidMapping;
    type Scratch = Scratch;
    type ComposeScratch = (Vec<StateId>, Vec<StateId>);

    fn scan_into(
        &self,
        chunk: &[u8],
        scratch: &mut Scratch,
        counter: &mut impl Counter,
        out: &mut RidMapping,
    ) {
        let rid = self.inner.rid();
        let interface = rid.interface();
        kernel::scan_into(
            DenseTable {
                ptable: self.inner.ptable(),
                stride: rid.stride(),
                classes: rid.classes(),
            },
            interface.iter().enumerate().map(|(i, &p)| (i as u32, p)),
            interface.len(),
            chunk,
            self.kernel,
            scratch,
            counter,
            out.interior_buf(),
        );
    }

    fn scan_first_into(&self, chunk: &[u8], counter: &mut impl Counter, out: &mut RidMapping) {
        self.inner.scan_first_into(chunk, counter, out)
    }

    fn arm_interrupt(&self, scratch: &mut Scratch, probe: Option<&super::budget::InterruptProbe>) {
        self.inner.arm_interrupt(scratch, probe)
    }

    fn compose_into(
        &self,
        left: &RidMapping,
        right: &RidMapping,
        scratch: &mut (Vec<StateId>, Vec<StateId>),
        out: &mut RidMapping,
    ) {
        self.inner.compose_into(left, right, scratch, out)
    }

    fn accepts_mapping(&self, mapping: &RidMapping) -> bool {
        self.inner.accepts_mapping(mapping)
    }

    fn mapping_is_dead(&self, mapping: &RidMapping) -> bool {
        self.inner.mapping_is_dead(mapping)
    }

    fn accepts_serial(&self, text: &[u8], counter: &mut impl Counter) -> bool {
        self.inner.accepts_serial(text, counter)
    }

    fn num_speculative_starts(&self) -> usize {
        self.inner.num_speculative_starts()
    }

    fn effective_kernel(&self, chunk_len: usize) -> Option<Kernel> {
        Some(resolve_kernel(
            self.kernel,
            self.num_speculative_starts(),
            chunk_len,
            self.inner.ptable().len(),
        ))
    }

    fn name(&self) -> &'static str {
        "rid+conv"
    }
}

/// Resolves a configured kernel to the strategy the scan dispatch will
/// actually run for a chunk of `chunk_len` bytes: [`Kernel::Auto`] goes
/// through the runtime selection matrix, and a pinned [`Kernel::Simd`]
/// is demoted to its documented scalar fallback when the CPU feature or
/// the table shape rules gathers out.
pub(super) fn resolve_kernel(
    configured: Kernel,
    num_runs: usize,
    chunk_len: usize,
    table_entries: usize,
) -> Kernel {
    let resolved = match configured {
        Kernel::Auto => kernel::select(num_runs, chunk_len, table_entries),
        pinned => pinned,
    };
    match resolved {
        Kernel::Simd if !kernel::simd_supported(table_entries) => Kernel::LockstepShared,
        k => k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csdpa::{recognize, recognize_counted, Executor};
    use crate::ridfa::construct::tests::figure1_nfa;
    use ridfa_automata::dfa::{minimize, powerset};
    use ridfa_automata::{NoCount, TransitionCount};

    fn setup() -> (Dfa, RiDfa) {
        let nfa = figure1_nfa();
        let dfa = minimize::minimize(&powerset::determinize(&nfa));
        let rid = RiDfa::from_nfa(&nfa);
        (dfa, rid)
    }

    #[test]
    fn convergent_mapping_equals_plain_mapping() {
        let (dfa, rid) = setup();
        let plain_dfa = DfaCa::new(&dfa);
        let plain_rid = RidCa::new(&rid);
        for kernel in [
            Kernel::PerRun,
            Kernel::LockstepShared,
            Kernel::Simd,
            Kernel::Auto,
        ] {
            let conv_dfa = ConvergentDfaCa::with_kernel(&dfa, kernel);
            let conv_rid = ConvergentRidCa::with_kernel(&rid, kernel);
            for chunk in [&b"cab"[..], b"aab", b"", b"bbbb", b"aabcabaabcab"] {
                assert_eq!(
                    plain_dfa.scan(chunk, &mut NoCount),
                    conv_dfa.scan(chunk, &mut NoCount),
                    "dfa mapping ({kernel:?}) on {chunk:?}"
                );
                assert_eq!(
                    plain_rid.scan(chunk, &mut NoCount),
                    conv_rid.scan(chunk, &mut NoCount),
                    "rid mapping ({kernel:?}) on {chunk:?}"
                );
            }
        }
    }

    #[test]
    fn convergence_reduces_executed_transitions() {
        let (dfa, _) = setup();
        let plain = DfaCa::new(&dfa);
        let conv = ConvergentDfaCa::with_kernel(&dfa, Kernel::LockstepShared);
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
        let (dfa, rid) = setup();
        let conv_dfa = ConvergentDfaCa::new(&dfa);
        let conv_rid = ConvergentRidCa::new(&rid);
        let mut text = b"aabcab".repeat(200);
        for chunks in [1usize, 3, 8] {
            assert!(recognize(&conv_dfa, &text, chunks, Executor::PerChunk).accepted);
            assert!(recognize(&conv_rid, &text, chunks, Executor::PerChunk).accepted);
        }
        text.push(b'c');
        assert!(!recognize(&conv_dfa, &text, 4, Executor::PerChunk).accepted);
        assert!(!recognize(&conv_rid, &text, 4, Executor::PerChunk).accepted);
    }

    #[test]
    fn counted_outcome_still_correct() {
        let (_, rid) = setup();
        let conv = ConvergentRidCa::new(&rid);
        let out = recognize_counted(&conv, b"aabcab", 2, Executor::Serial);
        assert!(out.accepted);
        // Fig. 1 chunk 2 from {0},{1},{2}: the {0} and {1} runs converge
        // only at the end ({0,2}), the {2} run dies immediately: the
        // convergent count is 3 (first) + 5 (interior: c:2, a:2, b:1… the
        // two surviving runs converge after 'b') ≤ the plain 9.
        assert!(out.transitions <= 9);
        assert!(out.transitions >= 6);
    }
}
