//! The reduced-interface chunk automaton (RID, paper Sect. 3.2): runs only
//! from the RI-DFA *interface* states — as many as the NFA has states, or
//! fewer after interface minimization — with deterministic O(1) transitions
//! per byte. This combines the state-reduction of an NFA with the speed of
//! a DFA, which is the paper's whole point.

use ridfa_automata::counter::Counter;
use ridfa_automata::{StateId, DEAD};

use crate::ridfa::RiDfa;

use super::kernel::{self, DenseTable, Kernel, Scratch};
use super::plan::FeasibleTable;
use super::ChunkAutomaton;

/// CSDPA chunk automaton wrapping an [`RiDfa`].
///
/// Interior scans run through the scan [`kernel`]. [`new`](RidCa::new)
/// scans per run, the paper's RID; [`with_kernel`](RidCa::with_kernel)
/// picks another strategy, which merges runs that converge to the same
/// state. [`with_feasible`](RidCa::with_feasible) adds PaREM-style
/// feasible-start pruning: an interior scan consults the
/// [`FeasibleTable`] on the chunk's first byte and seeds [`DEAD`] for
/// every origin that cannot survive it. The kernel skips `DEAD` seeds,
/// so the pruned runs cost nothing — and since an unpruned run with an
/// infeasible origin dies on its first transition anyway (recording the
/// same `DEAD`), the mapping is bit-identical to the unpruned one. Empty
/// chunks are never pruned (there is no first byte to prune on). The
/// first chunk's one run takes the kernel's checkpointed stride walk
/// where the configured kernel resolves to [`Kernel::LockstepShared`]
/// for it, and the byte-serial loop otherwise. Mappings are identical
/// under every configuration.
#[derive(Debug, Clone)]
pub struct RidCa<'a> {
    rid: &'a RiDfa,
    /// `pos[p]` = index of interface state `p` inside
    /// [`RiDfa::interface`], or `u32::MAX` for non-interface states.
    /// Owned when built by [`new`](RidCa::new), borrowed when a registry
    /// already holds it.
    pos: std::borrow::Cow<'a, [u32]>,
    /// Premultiplied transition table (entries are `target * stride`).
    ptable: std::borrow::Cow<'a, [StateId]>,
    /// The configured scan strategy of interior chunks.
    kernel: Kernel,
    /// The feasible-start table interior scans prune with, if any.
    feasible: Option<&'a FeasibleTable>,
}

/// The λ mapping a RID chunk scan (or composition) produces.
///
/// Scans yield `Interior` (an interior chunk) and `Prefix` (the first
/// chunk: the one run from the known initial state, as a one-element set,
/// or empty if it died). Composition also yields `Composed`, because the
/// interface function can expand one last active state into several
/// interface states — `λ₂ ⊙ λ₁` maps a start to a *set* even though each
/// interior `λᵢ` is single-valued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RidMapping {
    /// Interior chunk: `lasts[i]` = last active state of the run started
    /// in `interface()[i]` ([`DEAD`](ridfa_automata::DEAD) if it died).
    Interior(Vec<StateId>),
    /// A first-chunk mapping, or a composed prefix whose leftmost factor
    /// was one: the set of possible last active states reachable from the
    /// known initial state (sorted, deduplicated; empty = every run died).
    Prefix(Vec<StateId>),
    /// A composition of interior mappings: row `i` holds the sorted set
    /// of possible last active states of the run started in
    /// `interface()[i]`, stored CSR-style as
    /// `lasts[offsets[i]..offsets[i + 1]]`.
    Composed {
        /// `interface().len() + 1` row boundaries into `lasts`.
        offsets: Vec<u32>,
        /// Concatenated per-row last-active-state sets.
        lasts: Vec<StateId>,
    },
}

impl Default for RidMapping {
    /// An empty interior mapping slot, ready to be scanned into.
    fn default() -> RidMapping {
        RidMapping::Interior(Vec::new())
    }
}

impl RidMapping {
    /// Reclaims the largest buffer of the current shape, so converting a
    /// slot between shapes keeps its allocation.
    fn take_vec(&mut self) -> Vec<StateId> {
        match self {
            RidMapping::Interior(v) | RidMapping::Prefix(v) => std::mem::take(v),
            RidMapping::Composed { lasts, .. } => std::mem::take(lasts),
        }
    }

    /// The interior `lasts` buffer, converting (and keeping any existing
    /// buffer's capacity) if the slot held another shape.
    pub(super) fn interior_buf(&mut self) -> &mut Vec<StateId> {
        if !matches!(self, RidMapping::Interior(_)) {
            let buf = self.take_vec();
            *self = RidMapping::Interior(buf);
        }
        match self {
            RidMapping::Interior(lasts) => lasts,
            _ => unreachable!("converted above"),
        }
    }

    /// The cleared `Prefix` set buffer, converting shape if needed.
    fn prefix_buf(&mut self) -> &mut Vec<StateId> {
        if !matches!(self, RidMapping::Prefix(_)) {
            let buf = self.take_vec();
            *self = RidMapping::Prefix(buf);
        }
        match self {
            RidMapping::Prefix(set) => {
                set.clear();
                set
            }
            _ => unreachable!("converted above"),
        }
    }

    /// The cleared `Composed` CSR buffers, converting shape if needed.
    fn composed_bufs(&mut self) -> (&mut Vec<u32>, &mut Vec<StateId>) {
        if !matches!(self, RidMapping::Composed { .. }) {
            let buf = self.take_vec();
            *self = RidMapping::Composed {
                offsets: Vec::new(),
                lasts: buf,
            };
        }
        match self {
            RidMapping::Composed { offsets, lasts } => {
                offsets.clear();
                lasts.clear();
                (offsets, lasts)
            }
            _ => unreachable!("converted above"),
        }
    }
}

/// Sorts and deduplicates `v[start..]` in place (the freshly appended row
/// of a CSR composition).
fn sort_dedup_tail(v: &mut Vec<StateId>, start: usize) {
    v[start..].sort_unstable();
    let mut write = start;
    for read in start..v.len() {
        if write == start || v[read] != v[write - 1] {
            v[write] = v[read];
            write += 1;
        }
    }
    v.truncate(write);
}

impl<'a> RidCa<'a> {
    /// Wraps `rid`, precomputing the interface-position index used by the
    /// join phase. Scans per run, without pruning.
    pub fn new(rid: &'a RiDfa) -> Self {
        RidCa {
            rid,
            pos: std::borrow::Cow::Owned(Self::interface_positions(rid)),
            ptable: std::borrow::Cow::Owned(rid.premultiplied_table()),
            kernel: Kernel::PerRun,
            feasible: None,
        }
    }

    /// Wraps `rid` around precomputed tables (e.g. cached by a pattern
    /// registry or loaded from an artifact), making CA construction
    /// allocation-free. `pos` must equal
    /// [`interface_positions`](RidCa::interface_positions)`(rid)` and
    /// `ptable` must equal `rid.premultiplied_table()`; lengths are
    /// checked, content is the caller's contract. Scans per run, without
    /// pruning.
    pub fn with_tables(rid: &'a RiDfa, pos: &'a [u32], ptable: &'a [StateId]) -> Self {
        assert_eq!(pos.len(), rid.num_states(), "position index length");
        assert_eq!(
            ptable.len(),
            rid.num_states() * rid.stride(),
            "premultiplied table length"
        );
        RidCa {
            rid,
            pos: std::borrow::Cow::Borrowed(pos),
            ptable: std::borrow::Cow::Borrowed(ptable),
            kernel: Kernel::PerRun,
            feasible: None,
        }
    }

    /// Scans interior chunks with `kernel` instead of per run;
    /// [`Kernel::Auto`] picks per chunk.
    pub fn with_kernel(self, kernel: Kernel) -> Self {
        RidCa { kernel, ..self }
    }

    /// Prunes the runs of interior scans through `feasible`, the
    /// [`FeasibleTable::build`] of the wrapped RI-DFA.
    pub fn with_feasible(self, feasible: &'a FeasibleTable) -> Self {
        debug_assert_eq!(feasible.interface_len(), self.rid.interface().len());
        debug_assert_eq!(feasible.stride(), self.rid.stride());
        RidCa {
            feasible: Some(feasible),
            ..self
        }
    }

    /// The interface-position index of `rid`: `pos[p]` = index of
    /// interface state `p` inside [`RiDfa::interface`], `u32::MAX`
    /// elsewhere. Precompute once and feed to
    /// [`with_tables`](RidCa::with_tables).
    pub fn interface_positions(rid: &RiDfa) -> Vec<u32> {
        let mut pos = vec![u32::MAX; rid.num_states()];
        for (i, &p) in rid.interface().iter().enumerate() {
            pos[p as usize] = i as u32;
        }
        pos
    }

    /// The wrapped automaton.
    pub fn rid(&self) -> &'a RiDfa {
        self.rid
    }

    fn table(&self) -> DenseTable<'_> {
        DenseTable {
            ptable: &self.ptable,
            stride: self.rid.stride(),
            classes: self.rid.classes(),
            start_row: self.rid.start() as usize * self.rid.stride(),
        }
    }

    /// The kernel an interior chunk of `chunk_len` bytes runs.
    fn resolved(&self, chunk_len: usize) -> Kernel {
        kernel::resolve(
            self.kernel,
            self.num_speculative_starts(),
            chunk_len,
            self.ptable.len(),
        )
    }

    /// One composition step for a single PLAS set: translates `plas`
    /// through the interface function into `pis`, applies `right`'s rows
    /// to every resulting interface state, and appends the surviving last
    /// states to `out` as a fresh sorted, deduplicated row.
    fn apply_set(
        &self,
        plas: &[StateId],
        right: &RidMapping,
        pis: &mut Vec<StateId>,
        out: &mut Vec<StateId>,
    ) {
        let row_start = out.len();
        self.rid.interface_map(plas, pis);
        match right {
            RidMapping::Interior(lasts) => {
                for &p in pis.iter() {
                    let idx = self.pos[p as usize];
                    debug_assert_ne!(idx, u32::MAX, "if() returns interface states");
                    let last = lasts[idx as usize];
                    if last != DEAD {
                        out.push(last);
                    }
                }
            }
            RidMapping::Composed { offsets, lasts } => {
                for &p in pis.iter() {
                    let idx = self.pos[p as usize] as usize;
                    debug_assert_ne!(idx as u32, u32::MAX, "if() returns interface states");
                    out.extend_from_slice(&lasts[offsets[idx] as usize..offsets[idx + 1] as usize]);
                }
            }
            RidMapping::Prefix(_) => {
                panic!("compose_into: the right factor must derive from interior scans")
            }
        }
        sort_dedup_tail(out, row_start);
    }
}

impl ChunkAutomaton for RidCa<'_> {
    type Mapping = RidMapping;
    type Scratch = Scratch;
    /// `(plas, pis)` working sets of the interface translation.
    type ComposeScratch = (Vec<StateId>, Vec<StateId>);

    fn scan_into(
        &self,
        chunk: &[u8],
        scratch: &mut Scratch,
        counter: &mut impl Counter,
        out: &mut RidMapping,
    ) {
        let interface = self.rid.interface();
        let prune = self
            .feasible
            .zip(chunk.first())
            .map(|(feasible, &byte)| (feasible, self.rid.classes().get(byte)));
        kernel::scan_into(
            self.table(),
            interface.iter().enumerate().map(|(i, &p)| {
                let origin = match prune {
                    // Pruned: seeded DEAD, skipped by the kernel — the
                    // same entry an unpruned dead-on-first-byte run
                    // would record.
                    Some((feasible, class)) if !feasible.is_feasible(class, i) => DEAD,
                    _ => p,
                };
                (i as u32, origin)
            }),
            interface.len(),
            chunk,
            self.resolved(chunk.len()),
            scratch,
            counter,
            out.interior_buf(),
        );
    }

    fn scan_first_into(&self, chunk: &[u8], counter: &mut impl Counter, out: &mut RidMapping) {
        let last = kernel::scan_first(self.table(), self.kernel, chunk, counter);
        let set = out.prefix_buf();
        if last != DEAD {
            set.push(last);
        }
    }

    fn arm_interrupt(&self, scratch: &mut Scratch, probe: Option<&super::budget::InterruptProbe>) {
        scratch.set_interrupt(probe.cloned());
    }

    /// `PLAS`-set composition through the interface function:
    /// `out = right ⊙ left` where each row of `left` is translated by
    /// `if(·)` (with delegation) and pushed through `right`'s rows.
    fn compose_into(
        &self,
        left: &RidMapping,
        right: &RidMapping,
        scratch: &mut (Vec<StateId>, Vec<StateId>),
        out: &mut RidMapping,
    ) {
        let (plas, pis) = scratch;
        match left {
            RidMapping::Prefix(prefix) => {
                let set = out.prefix_buf();
                self.apply_set(prefix, right, pis, set);
            }
            RidMapping::Interior(lasts) => {
                let (offsets, out_lasts) = out.composed_bufs();
                offsets.push(0);
                for &last in lasts {
                    if last != DEAD {
                        plas.clear();
                        plas.push(last);
                        self.apply_set(plas, right, pis, out_lasts);
                    }
                    offsets.push(out_lasts.len() as u32);
                }
            }
            RidMapping::Composed {
                offsets: left_off,
                lasts: left_lasts,
            } => {
                let (offsets, out_lasts) = out.composed_bufs();
                offsets.push(0);
                for row in left_off.windows(2) {
                    let set = &left_lasts[row[0] as usize..row[1] as usize];
                    self.apply_set(set, right, pis, out_lasts);
                    offsets.push(out_lasts.len() as u32);
                }
            }
        }
    }

    fn accepts_mapping(&self, mapping: &RidMapping) -> bool {
        match mapping {
            RidMapping::Prefix(set) => set.iter().any(|&p| self.rid.is_final(p)),
            RidMapping::Interior(_) | RidMapping::Composed { .. } => {
                panic!("accepts_mapping: the leftmost factor must be a first-chunk scan")
            }
        }
    }

    fn mapping_is_dead(&self, mapping: &RidMapping) -> bool {
        match mapping {
            RidMapping::Prefix(set) => set.is_empty(),
            RidMapping::Interior(lasts) => lasts.iter().all(|&l| l == DEAD),
            RidMapping::Composed { lasts, .. } => lasts.is_empty(),
        }
    }

    fn accepts_serial(&self, text: &[u8], counter: &mut impl Counter) -> bool {
        let last = self.rid.run_from(self.rid.start(), text, counter);
        last != DEAD && self.rid.is_final(last)
    }

    fn num_speculative_starts(&self) -> usize {
        self.rid.interface().len()
    }

    fn effective_kernel(&self, chunk_len: usize) -> Option<Kernel> {
        Some(self.resolved(chunk_len))
    }

    fn name(&self) -> &'static str {
        match (self.feasible, self.kernel) {
            (Some(_), _) => "rid+feasible",
            (None, Kernel::PerRun) => "rid",
            (None, _) => "rid+conv",
        }
    }
}

/// Kept only so the `perfbench/` replay, which builds the lockstep
/// engine's chunk automaton through this name, compiles unchanged. New
/// code calls [`RidCa::with_kernel`].
pub struct ConvergentRidCa;

impl ConvergentRidCa {
    /// `inner.with_kernel(kernel)`.
    pub fn from_inner(inner: RidCa<'_>, kernel: Kernel) -> RidCa<'_> {
        inner.with_kernel(kernel)
    }
}

/// Kept only so the `perfbench/` replay, which builds the
/// feasible-start engine's chunk automaton through this name, compiles
/// unchanged. New code calls [`RidCa::with_feasible`].
pub struct FeasibleRidCa;

impl FeasibleRidCa {
    /// `inner.with_kernel(kernel).with_feasible(feasible)`.
    pub fn from_inner<'a>(
        inner: RidCa<'a>,
        feasible: &'a FeasibleTable,
        kernel: Kernel,
    ) -> RidCa<'a> {
        inner.with_kernel(kernel).with_feasible(feasible)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csdpa::{recognize, recognize_counted, Executor};
    use crate::ridfa::construct::tests::figure1_nfa;
    use ridfa_automata::{NoCount, TransitionCount};

    const KERNELS: [Kernel; 3] = [Kernel::PerRun, Kernel::LockstepShared, Kernel::Auto];

    #[test]
    fn convergent_mapping_equals_plain_mapping() {
        let rid = RiDfa::from_nfa(&figure1_nfa());
        let plain = RidCa::new(&rid);
        for kernel in KERNELS {
            let conv = RidCa::new(&rid).with_kernel(kernel);
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
    fn end_to_end_recognition_agrees() {
        let rid = RiDfa::from_nfa(&figure1_nfa());
        for kernel in KERNELS {
            let ca = RidCa::new(&rid).with_kernel(kernel);
            let mut text = b"aabcab".repeat(200);
            for chunks in [1usize, 3, 8] {
                assert!(recognize(&ca, &text, chunks, Executor::PerChunk).accepted);
            }
            text.push(b'c');
            assert!(!recognize(&ca, &text, 4, Executor::PerChunk).accepted);
        }
    }

    #[test]
    fn counted_outcome_still_correct() {
        let rid = RiDfa::from_nfa(&figure1_nfa());
        for kernel in KERNELS {
            let ca = RidCa::new(&rid).with_kernel(kernel);
            let out = recognize_counted(&ca, b"aabcab", 2, Executor::Serial);
            assert!(out.accepted, "{kernel:?}");
            // Fig. 1 chunk 2 from {0},{1},{2}: the {2} run dies at once
            // and the other two survive the 3 bytes, so every kernel
            // counts 3 (first) + at most 6 (interior) ≤ the plain 9.
            assert!(out.transitions <= 9, "{kernel:?}: {}", out.transitions);
            assert!(out.transitions >= 6, "{kernel:?}: {}", out.transitions);
        }
    }

    #[test]
    fn name_follows_the_configuration() {
        let rid = RiDfa::from_nfa(&figure1_nfa()).minimized();
        let table = FeasibleTable::build(&rid);
        assert_eq!(RidCa::new(&rid).name(), "rid");
        assert_eq!(RidCa::new(&rid).effective_kernel(64), Some(Kernel::PerRun));
        assert_eq!(
            RidCa::new(&rid).with_kernel(Kernel::Auto).name(),
            "rid+conv"
        );
        for kernel in KERNELS {
            let pruned = RidCa::new(&rid).with_kernel(kernel).with_feasible(&table);
            assert_eq!(pruned.name(), "rid+feasible");
        }
    }

    #[test]
    fn figure1_transition_count_is_9() {
        // Paper Fig. 1, new RID method: chunk "aab" (3) + chunk "cab"
        // (3 + 3 + 0) = 9 transitions.
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let mut c = TransitionCount::default();
        let m1 = ca.scan_first(b"aab", &mut c);
        let m2 = ca.scan(b"cab", &mut c);
        assert_eq!(c.get(), 9);
        assert!(ca.join(&[m1, m2]), "aabcab ∈ L");
    }

    #[test]
    fn scan_then_join_equals_serial() {
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        for text in [&b"aabcab"[..], b"ab", b"aab", b"", b"ccc", b"abab", b"caab"] {
            let mid = text.len() / 2;
            let m1 = ca.scan_first(&text[..mid], &mut NoCount);
            let m2 = ca.scan(&text[mid..], &mut NoCount);
            assert_eq!(ca.join(&[m1, m2]), nfa.accepts(text), "{text:?}");
        }
    }

    #[test]
    fn minimized_interface_join_still_correct() {
        // An NFA whose RI-DFA interface shrinks under minimization; the
        // adjusted if_min must keep the join exact.
        let mut b = ridfa_automata::nfa::Builder::new();
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        let q3 = b.add_state();
        b.add_transition(q0, b'a', q1);
        b.add_transition(q0, b'b', q2);
        b.add_transition(q1, b'z', q3);
        b.add_transition(q2, b'z', q3);
        b.set_start(q0);
        b.set_final(q3);
        let nfa = b.build().unwrap();
        let rid = RiDfa::from_nfa(&nfa).minimized();
        assert!(rid.interface().len() < nfa.num_states());
        let ca = RidCa::new(&rid);
        for text in [&b"az"[..], b"bz", b"z", b"azz", b"", b"ab"] {
            for cut in 0..=text.len() {
                let m1 = ca.scan_first(&text[..cut], &mut NoCount);
                let m2 = ca.scan(&text[cut..], &mut NoCount);
                assert_eq!(
                    ca.join(&[m1, m2]),
                    nfa.accepts(text),
                    "{text:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn join_of_three_chunks() {
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let text = b"aabcab";
        let m1 = ca.scan_first(&text[..2], &mut NoCount);
        let m2 = ca.scan(&text[2..4], &mut NoCount);
        let m3 = ca.scan(&text[4..], &mut NoCount);
        assert!(ca.join(&[m1, m2, m3]));
    }

    #[test]
    fn speculative_starts_is_interface_size() {
        let rid = RiDfa::from_nfa(&figure1_nfa());
        assert_eq!(RidCa::new(&rid).num_speculative_starts(), 3);
    }
}
