//! The classic speculative data-parallel algorithm (CSDPA, paper Sect. 2)
//! and its reduced-interface refinement (RID, Sect. 3.2).
//!
//! The input text is cut into `c` chunks. The **reach phase** scans every
//! chunk in parallel with an identical *chunk automaton* (CA); because a
//! CA (except the first) cannot know the state the upstream chunk ends in,
//! it speculatively starts one run per possible initial state and returns
//! the partial mapping `λ_i : PIS → PLAS` from possible initial states to
//! possible last active states. The serial **join phase** composes
//! adjacent mappings and checks acceptance.
//!
//! Five CAs implement the common [`ChunkAutomaton`] interface:
//!
//! | CA | speculative starts | transition cost/byte | paper role |
//! |----|--------------------|----------------------|------------|
//! | [`DfaCa`] | all DFA states | 1 per run | classic DFA variant |
//! | [`NfaCa`] | all NFA states | set-simulation edges | classic NFA variant |
//! | [`RidCa`] | RI-DFA interface (≈ NFA states) | 1 per run | the paper's RID |
//! | [`ConvergentDfaCa`] | all DFA states | 1 per *merged group* | DFA + state convergence |
//! | [`ConvergentRidCa`] | RI-DFA interface | 1 per *merged group* | RID + state convergence |
//!
//! The deterministic CAs execute their interior scans through the
//! single-pass lockstep [`kernel`], which merges converged runs, shares
//! the byte→class translation across all runs, and adaptively falls back
//! to per-run scanning where lockstep bookkeeping cannot pay
//! ([`kernel::select`]).
//!
//! The reach phase runs under one of two execution shapes: the one-shot
//! spawning executors of [`recognize`] ([`Executor`]), or a persistent
//! [`Session`] that keeps a worker pool and per-worker scan scratches
//! warm across texts — the right shape for high-traffic streams of short
//! texts, where thread-spawn cost would otherwise dominate.

pub mod budget;
mod chunking;
mod convergent;
mod dfa_ca;
pub mod kernel;
mod nfa_ca;
pub mod plan;
mod recognizer;
pub mod registry;
mod rid_ca;
mod session;
pub mod spec;
pub mod stream;

pub use budget::{Budget, CancelToken, Degraded, RecognizeError, StreamError};
pub use chunking::{chunk_spans, chunk_spans_into, chunk_spans_snapped};
pub use convergent::{ConvergentDfaCa, ConvergentRidCa};
pub use dfa_ca::DfaCa;
pub use kernel::{Kernel, Scratch};
pub use nfa_ca::NfaCa;
pub use plan::{Engine, EnginePlan, FeasibleRidCa, FeasibleTable};
pub use recognizer::{
    recognize, recognize_budgeted, recognize_counted, recognize_serial, recognize_spans,
    ChunkStats, CountedOutcome, Executor, Outcome,
};
pub use registry::{
    resident_footprint, PatternRegistry, PatternStats, RegistryConfig, RegistryError, StreamScan,
};
pub use rid_ca::{RidCa, RidMapping};
pub use session::Session;
pub use spec::{PatternSpec, RegistrySnapshot, ReloadDelta, SpecEntry, SpecError};
pub use stream::{StreamOutcome, StreamSession};

use ridfa_automata::counter::{Counter, NoCount};

/// Reusable working memory for the join fold: two mapping accumulators
/// (composition ping-pongs between them) plus the CA's composition
/// scratch. `M` is the CA's [`Mapping`](ChunkAutomaton::Mapping), `C` its
/// [`ComposeScratch`](ChunkAutomaton::ComposeScratch); see the
/// [`JoinScratchOf`] alias.
#[derive(Debug)]
pub struct JoinScratch<M, C> {
    /// Left-composed prefix `λ_k ∘ … ∘ λ_1` of the fold so far.
    acc: M,
    /// Output slot of the next composition, swapped with `acc`.
    tmp: M,
    /// The CA's composition working memory.
    compose: C,
}

impl<M: Default, C: Default> Default for JoinScratch<M, C> {
    fn default() -> JoinScratch<M, C> {
        JoinScratch {
            acc: M::default(),
            tmp: M::default(),
            compose: C::default(),
        }
    }
}

/// The [`JoinScratch`] type of a chunk automaton.
pub type JoinScratchOf<CA> =
    JoinScratch<<CA as ChunkAutomaton>::Mapping, <CA as ChunkAutomaton>::ComposeScratch>;

/// A chunk automaton: the unit the reach phase replicates per chunk.
///
/// Implementations are read-only and shared across worker threads
/// (`Sync`); all scratch state lives in caller-provided buffers, so a
/// single CA value serves any number of concurrent chunk scans.
///
/// The required methods are the `*_into` shapes that scan and compose
/// through **reusable** buffers — a warm [`Session`] recognizes a text
/// without a single heap allocation. The owning convenience wrappers
/// ([`scan`](ChunkAutomaton::scan), [`scan_with`](ChunkAutomaton::scan_with),
/// [`scan_first`](ChunkAutomaton::scan_first), [`join`](ChunkAutomaton::join))
/// are provided on top.
///
/// # λ-composition
///
/// Partial mappings `λ_i : PIS → PLAS` compose **associatively**
/// ([`compose_into`](ChunkAutomaton::compose_into)): `λ_2 ⊙ λ_1` is the
/// mapping of the concatenated chunks. The serial join of the paper is
/// therefore just the left fold `λ_c ⊙ … ⊙ λ_1` followed by an
/// acceptance test ([`accepts_mapping`](ChunkAutomaton::accepts_mapping))
/// — which is exactly how the provided
/// [`join_with`](ChunkAutomaton::join_with) is implemented — and the same
/// two primitives give an O(1)-live-mapping streaming fold
/// ([`StreamSession`]) and a parallel tree-reduce join ([`Session`] at
/// high chunk counts) for free.
pub trait ChunkAutomaton: Sync {
    /// The partial mapping `λ_i` a chunk scan produces. `Default` yields
    /// an empty mapping slot a scan can fill (and later scans can reuse).
    /// `Sync` because the tree-reduce join reads mappings from several
    /// composing workers at once.
    type Mapping: Send + Sync + Default + 'static;

    /// Reusable per-worker working memory for interior scans. A worker
    /// thread of the reach phase owns one scratch and feeds it to every
    /// chunk it claims — and, under a [`Session`], to every *text* — so
    /// kernel state warms up once per worker. CAs with no scratch use `()`.
    type Scratch: Default + Send + 'static;

    /// Reusable working memory for λ-composition
    /// ([`compose_into`](ChunkAutomaton::compose_into)). CAs whose
    /// composition needs no buffers use `()`.
    type ComposeScratch: Default + Send + 'static;

    /// Scans an interior chunk speculatively — one run per possible
    /// initial state — writing the mapping into `out` (cleared first;
    /// allocation-free once `out`'s buffers have grown to size) and
    /// reusing `scratch` across calls. Every executed transition
    /// increments `counter`.
    fn scan_into(
        &self,
        chunk: &[u8],
        scratch: &mut Self::Scratch,
        counter: &mut impl Counter,
        out: &mut Self::Mapping,
    );

    /// Scans the *first* chunk, whose initial state is known (`I₁ = {q0}`)
    /// — exactly one run, no speculation — writing the mapping into `out`.
    fn scan_first_into(&self, chunk: &[u8], counter: &mut impl Counter, out: &mut Self::Mapping);

    /// Composes two adjacent partial mappings: `out = right ⊙ left`, the
    /// mapping of the concatenation `chunk(left) · chunk(right)` (`left`
    /// is applied first). Composition is associative, so any reduction
    /// order over a mapping sequence yields the same verdict.
    ///
    /// `left` may be any mapping shape (a
    /// [`scan_first_into`](ChunkAutomaton::scan_first_into) product, an
    /// interior mapping, or a previous composition); `right` must derive
    /// from interior scans only — a first-chunk mapping is only ever the
    /// leftmost factor. `out` is cleared first and must not alias either
    /// input; once its buffers have grown to size the composition is
    /// allocation-free.
    fn compose_into(
        &self,
        left: &Self::Mapping,
        right: &Self::Mapping,
        scratch: &mut Self::ComposeScratch,
        out: &mut Self::Mapping,
    );

    /// Acceptance verdict of a fully composed mapping whose **leftmost**
    /// factor came from
    /// [`scan_first_into`](ChunkAutomaton::scan_first_into) (so the
    /// initial state is resolved).
    fn accepts_mapping(&self, mapping: &Self::Mapping) -> bool;

    /// `true` if every extension of this mapping rejects — all
    /// speculative runs are dead, so composing further chunks onto it can
    /// never produce an accepting mapping. Used by the join fold and the
    /// streaming layer to stop early on rejection. The default is the
    /// always-sound `false`.
    fn mapping_is_dead(&self, _mapping: &Self::Mapping) -> bool {
        false
    }

    /// Serial join through a reusable scratch: the left fold of
    /// [`compose_into`](ChunkAutomaton::compose_into) over the chunk
    /// mappings, then
    /// [`accepts_mapping`](ChunkAutomaton::accepts_mapping).
    /// `mappings[0]` must come from
    /// [`scan_first_into`](ChunkAutomaton::scan_first_into).
    fn join_with(
        &self,
        mappings: &[Self::Mapping],
        scratch: &mut JoinScratch<Self::Mapping, Self::ComposeScratch>,
    ) -> bool {
        match mappings {
            [] => {
                // Zero chunks = the empty text: a single non-speculative
                // empty scan resolves acceptance of ε.
                self.scan_first_into(b"", &mut NoCount, &mut scratch.acc);
                self.accepts_mapping(&scratch.acc)
            }
            [only] => self.accepts_mapping(only),
            [first, rest @ ..] => {
                self.compose_into(first, &rest[0], &mut scratch.compose, &mut scratch.acc);
                for mapping in &rest[1..] {
                    if self.mapping_is_dead(&scratch.acc) {
                        return false;
                    }
                    self.compose_into(
                        &scratch.acc,
                        mapping,
                        &mut scratch.compose,
                        &mut scratch.tmp,
                    );
                    std::mem::swap(&mut scratch.acc, &mut scratch.tmp);
                }
                self.accepts_mapping(&scratch.acc)
            }
        }
    }

    /// Owning wrapper over [`scan_into`](ChunkAutomaton::scan_into) with
    /// a fresh mapping.
    fn scan_with(
        &self,
        chunk: &[u8],
        scratch: &mut Self::Scratch,
        counter: &mut impl Counter,
    ) -> Self::Mapping {
        let mut out = Self::Mapping::default();
        self.scan_into(chunk, scratch, counter, &mut out);
        out
    }

    /// Convenience wrapper over [`scan_with`](ChunkAutomaton::scan_with)
    /// with a throwaway scratch (first scan pays the warm-up
    /// allocations; prefer `scan_with` on hot paths).
    fn scan(&self, chunk: &[u8], counter: &mut impl Counter) -> Self::Mapping {
        self.scan_with(chunk, &mut Self::Scratch::default(), counter)
    }

    /// Owning wrapper over
    /// [`scan_first_into`](ChunkAutomaton::scan_first_into).
    fn scan_first(&self, chunk: &[u8], counter: &mut impl Counter) -> Self::Mapping {
        let mut out = Self::Mapping::default();
        self.scan_first_into(chunk, counter, &mut out);
        out
    }

    /// Convenience wrapper over [`join_with`](ChunkAutomaton::join_with)
    /// with a throwaway scratch.
    fn join(&self, mappings: &[Self::Mapping]) -> bool {
        self.join_with(mappings, &mut JoinScratch::default())
    }

    /// Owning wrapper over
    /// [`compose_into`](ChunkAutomaton::compose_into) with a fresh
    /// mapping and a throwaway scratch.
    fn compose(&self, left: &Self::Mapping, right: &Self::Mapping) -> Self::Mapping {
        let mut out = Self::Mapping::default();
        self.compose_into(left, right, &mut Self::ComposeScratch::default(), &mut out);
        out
    }

    /// Arms (or clears, with `None`) the [`InterruptProbe`](budget::InterruptProbe)
    /// of a budgeted call on this CA's scan scratch, so the kernel can
    /// honor deadlines/cancellation *inside* a chunk scan. The default is
    /// a no-op: CAs without kernel scratch (`NfaCa`, `SfaCa`) are then
    /// interrupted at chunk boundaries only. Budgeted executors call this
    /// on every chunk claim — with `None` on unbudgeted calls, so a
    /// probe never leaks from a budgeted call into a later one through a
    /// cached scratch.
    fn arm_interrupt(&self, _scratch: &mut Self::Scratch, _probe: Option<&budget::InterruptProbe>) {
    }

    /// Whole-string serial recognition — the oracle and speedup baseline.
    fn accepts_serial(&self, text: &[u8], counter: &mut impl Counter) -> bool;

    /// Number of speculative starting states of an interior chunk
    /// (`|I_A|`): the speculation-cost factor of the paper.
    fn num_speculative_starts(&self) -> usize;

    /// The scan strategy this CA would *actually* execute on an interior
    /// chunk of `chunk_len` bytes: [`Kernel::Auto`] resolved through the
    /// runtime selection matrix, and a pinned [`Kernel::Simd`] demoted to
    /// its scalar fallback when the CPU feature or the table shape rules
    /// it out. `None` (the default) means the CA does not scan through
    /// the lockstep kernel at all (set-based NFA simulation, SFA tables),
    /// and reporting layers omit the kernel field.
    fn effective_kernel(&self, _chunk_len: usize) -> Option<Kernel> {
        None
    }

    /// Short display name ("dfa", "nfa", "rid").
    fn name(&self) -> &'static str;
}
