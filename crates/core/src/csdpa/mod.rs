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
//! Three CAs implement the common [`ChunkAutomaton`] interface:
//!
//! | CA | speculative starts | kernel | paper role |
//! |----|--------------------|--------|------------|
//! | [`DfaCa`] | all DFA states | per-run, or any [`Kernel`] | classic DFA variant |
//! | [`NfaCa`] | all NFA states | none (set simulation) | classic NFA variant |
//! | [`RidCa`] | RI-DFA interface (≈ NFA states) | per-run, or any [`Kernel`] | the paper's RID |
//!
//! The deterministic CAs execute their interior scans through the scan
//! [`kernel`]. Built with `new`, they scan per run at one transition per
//! run per byte — the paper's classic variants, whose transition counts
//! Fig. 7 reports. Built `with_kernel`, they add state convergence: the
//! single-pass lockstep path merges converged runs and charges one
//! transition per *merged group*, shares the byte→class translation
//! across all runs, and adaptively falls back to per-run scanning where
//! lockstep bookkeeping cannot pay ([`kernel::select`]).
//! [`RidCa::with_feasible`] adds PaREM-style feasible-start pruning
//! through a [`FeasibleTable`].
//!
//! Every reach phase is one of a [`Session`], which keeps a worker pool
//! and per-worker scan scratches warm across texts — the right shape for
//! high-traffic streams of short texts, where thread start-up would
//! otherwise dominate. The free [`recognize`] functions run on a
//! throwaway session whose claimant count their [`Executor`] names, a
//! [`StreamSession`]'s streams and the [`PatternRegistry`]'s lanes on a
//! kept one, and every join folds through one incremental
//! [`JoinScratch`].

pub mod budget;
mod chunking;
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

pub use budget::{Budget, CancelToken, RecognizeError, StreamError};
pub use chunking::{chunk_spans, chunk_spans_into, chunk_spans_snapped};
pub use dfa_ca::DfaCa;
pub use kernel::{Kernel, Scratch};
pub use nfa_ca::NfaCa;
pub use plan::{Engine, EnginePlan, FeasibleTable};
pub use recognizer::{
    recognize, recognize_counted, recognize_serial, recognize_spans, CountedOutcome, Executor,
    Outcome,
};
pub use registry::{
    resident_footprint, PatternRegistry, PatternStats, RegistryConfig, RegistryError, StreamScan,
};
pub use rid_ca::{ConvergentRidCa, FeasibleRidCa, RidCa, RidMapping};
pub use session::Session;
pub use spec::{PatternSpec, RegistrySnapshot, ReloadDelta, SpecEntry, SpecError};
pub use stream::{StreamOutcome, StreamSession};

use ridfa_automata::counter::{Counter, NoCount};

/// The incremental λ-fold: the left-composed prefix `λ_k ⊙ … ⊙ λ_1` of
/// the chunk mappings pushed since the fold last started, one
/// composition per push. Every join folds through it: the serial
/// [`join_with`](ChunkAutomaton::join_with), a [`Session`]'s join, the
/// running prefix of a [`StreamSession`] and the registry's
/// [`StreamScan`]. `M` is the CA's [`Mapping`](ChunkAutomaton::Mapping),
/// `C` its [`ComposeScratch`](ChunkAutomaton::ComposeScratch); see the
/// [`JoinScratchOf`] alias.
#[derive(Debug, Default)]
pub struct JoinScratch<M, C> {
    /// The prefix of an odd number of factors lives in `pair[1]`, of an
    /// even number in `pair[0]`; each composition writes the other one.
    /// The first factor moves into `pair[1]`, so only that buffer trades
    /// places with the callers' mapping slots: a slot never gets back a
    /// buffer that only ever held composed prefixes.
    pair: [M; 2],
    /// The CA's composition working memory.
    compose: C,
    /// Factors folded in since the last `start`.
    factors: usize,
    /// The prefix has no surviving run: every extension rejects, so
    /// later pushes are skipped.
    dead: bool,
}

impl<M, C> JoinScratch<M, C> {
    /// Restarts the fold at the empty prefix (the empty text).
    pub(crate) fn start(&mut self) {
        self.factors = 0;
        self.dead = false;
    }

    /// Folds the next chunk's mapping onto the prefix. The first factor
    /// must come from [`scan_first_into`](ChunkAutomaton::scan_first_into)
    /// and moves into the fold: `mapping` gets a spare buffer back, so
    /// pass a slot that is scanned into before it is read again. Later
    /// factors are composed onto the prefix and left as they are.
    pub(crate) fn push<CA>(&mut self, ca: &CA, mapping: &mut M)
    where
        CA: ChunkAutomaton<Mapping = M, ComposeScratch = C> + ?Sized,
    {
        if self.factors == 0 {
            std::mem::swap(&mut self.pair[1], mapping);
            self.factors = 1;
            self.dead = ca.mapping_is_dead(&self.pair[1]);
        } else {
            self.compose(ca, mapping);
        }
    }

    /// Composes `right` onto a prefix of at least one factor.
    fn compose<CA>(&mut self, ca: &CA, right: &M)
    where
        CA: ChunkAutomaton<Mapping = M, ComposeScratch = C> + ?Sized,
    {
        if self.dead {
            return;
        }
        let [even, odd] = &mut self.pair;
        let (prefix, out) = if self.factors % 2 == 1 {
            (&*odd, even)
        } else {
            (&*even, odd)
        };
        ca.compose_into(prefix, right, &mut self.compose, out);
        self.dead = ca.mapping_is_dead(out);
        self.factors += 1;
    }

    /// Starts the fold at `second ⊙ first`, for a borrowed first factor.
    fn compose_pair<CA>(&mut self, ca: &CA, first: &M, second: &M)
    where
        CA: ChunkAutomaton<Mapping = M, ComposeScratch = C> + ?Sized,
    {
        ca.compose_into(first, second, &mut self.compose, &mut self.pair[0]);
        self.dead = ca.mapping_is_dead(&self.pair[0]);
        self.factors = 2;
    }

    /// `true` once the prefix has no surviving run: composing further
    /// chunks onto it can never accept.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead
    }

    /// The verdict of the prefix folded so far. An empty fold is the
    /// empty text, resolved by one non-speculative empty scan.
    pub(crate) fn accepts<CA>(&mut self, ca: &CA) -> bool
    where
        CA: ChunkAutomaton<Mapping = M, ComposeScratch = C> + ?Sized,
    {
        if self.factors == 0 {
            ca.scan_first_into(b"", &mut NoCount, &mut self.pair[1]);
            return ca.accepts_mapping(&self.pair[1]);
        }
        ca.accepts_mapping(&self.pair[self.factors % 2])
    }

    /// The verdict of `mappings` folded from the empty prefix; the slots
    /// are left as [`push`](JoinScratch::push) leaves them.
    pub(crate) fn join<CA>(&mut self, ca: &CA, mappings: &mut [M]) -> bool
    where
        CA: ChunkAutomaton<Mapping = M, ComposeScratch = C> + ?Sized,
    {
        self.start();
        for mapping in mappings {
            self.push(ca, mapping);
        }
        self.accepts(ca)
    }

    /// Sizes the buffer the first factor moves into like a mapping slot
    /// (one interior scan of `sample`), since it trades places with one.
    pub(crate) fn warm<CA>(&mut self, ca: &CA, sample: &[u8], scratch: &mut CA::Scratch)
    where
        CA: ChunkAutomaton<Mapping = M, ComposeScratch = C> + ?Sized,
    {
        ca.scan_into(sample, scratch, &mut NoCount, &mut self.pair[1]);
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

    /// Serial join through a reusable fold: the left fold of
    /// [`compose_into`](ChunkAutomaton::compose_into) over the chunk
    /// mappings, then
    /// [`accepts_mapping`](ChunkAutomaton::accepts_mapping).
    /// `mappings[0]` must come from
    /// [`scan_first_into`](ChunkAutomaton::scan_first_into).
    fn join_with(
        &self,
        mappings: &[Self::Mapping],
        fold: &mut JoinScratch<Self::Mapping, Self::ComposeScratch>,
    ) -> bool {
        fold.start();
        match mappings {
            [] => fold.accepts(self),
            [only] => self.accepts_mapping(only),
            // A borrowed first factor cannot move into the fold, so it
            // enters composed with the second.
            [first, second, rest @ ..] => {
                fold.compose_pair(self, first, second);
                for mapping in rest {
                    fold.compose(self, mapping);
                }
                fold.accepts(self)
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

    /// The scan strategy this CA *actually* executes on an interior chunk
    /// of `chunk_len` bytes: its configured kernel passed through
    /// [`kernel::resolve`] with the run count the scan starts, so
    /// [`Kernel::Auto`] never appears. `None` (the default) means the CA
    /// does not scan through the [`kernel`] at all (set-based NFA
    /// simulation, SFA tables), and reporting layers omit the kernel
    /// field.
    fn effective_kernel(&self, _chunk_len: usize) -> Option<Kernel> {
        None
    }

    /// Short display name ("dfa", "nfa", "rid").
    fn name(&self) -> &'static str;
}
