//! Persistent recognition sessions: the warm execution layer for
//! high-traffic streams of (mostly short) texts.
//!
//! The free [`recognize`](super::recognize) functions spawn OS threads
//! per text through `std::thread::scope`. That mirrors the paper's
//! one-measurement-at-a-time driver, but under serving traffic the spawn
//! cost dominates short texts, and every per-worker scan
//! [`Scratch`](super::Scratch) is thrown away between calls, re-paying
//! warm-up allocations each text. A [`Session`] fixes both:
//!
//! * a persistent [`ThreadPool`] — workers park on a condvar between
//!   texts; dispatching a text is a notify, not `c` thread spawns;
//! * **per-worker resident scratches** — pool worker `w` reuses *its own*
//!   scan scratch for every chunk of every text it ever claims, so kernel
//!   warm-up happens once per worker per session;
//! * **buffer reuse** — chunk spans, λ-mapping slots, and join buffers
//!   all live in the session; once warm (see [`Session::warm`]),
//!   [`Session::recognize`] performs **zero heap allocations** per text
//!   (asserted by `tests/session_alloc.rs` with a counting allocator);
//! * a batch path — [`Session::recognize_many`] pipelines a whole slice
//!   of texts through the pool as one task stream: chunk scans of text
//!   `t+1` start while scans of text `t` are still in flight, with a
//!   single quiescence point per *batch* instead of a barrier per text.
//!
//! One session serves any mix of chunk-automaton types; the typed buffers
//! are cached per CA type and rebuilt transparently when the type
//! changes (keep one session per CA type if that matters for latency).

// λ-mapping slots are written by whichever claimant picks the chunk; the
// disjointness argument lives on `DisjointSlots`.
#![allow(unsafe_code)]

use std::any::Any;
use std::marker::PhantomData;
use std::time::Instant;

use ridfa_automata::counter::{NoCount, TransitionCount};

use crate::parallel::{PoolHealth, ThreadPool};

use super::budget::{panic_message, Budget, Degraded, InterruptProbe, RecognizeError};
use super::{
    chunk_spans_into, recognizer, ChunkAutomaton, ChunkStats, CountedOutcome, Executor,
    JoinScratch, JoinScratchOf, Outcome,
};

/// Minimum chunk count before [`Session::recognize`] switches from the
/// serial fold-join to the parallel tree-reduce join.
const TREE_JOIN_MIN: usize = 64;

/// The tree reduction hands the last few partials to the serial fold —
/// below this width, dispatch overhead exceeds the composition work.
const TREE_JOIN_TAIL: usize = 8;

/// A flattened (text, chunk) task of a batch recognition.
struct BatchTask {
    text: u32,
    start: usize,
    end: usize,
    first: bool,
}

/// The per-CA-type buffer set a session keeps warm.
struct TypedCache<S, M, C> {
    /// One scan scratch per pool worker plus one for the calling thread
    /// (slot layout mandated by [`ThreadPool::invoke_all_scoped`]).
    scratches: Vec<S>,
    /// λ-mapping slots, one per chunk task; grown to the high-water mark
    /// and reused across texts.
    mappings: Vec<M>,
    /// Join-phase working memory (fold accumulators + compose scratch).
    join: JoinScratch<M, C>,
    /// Output slots of one tree-reduce level (high-water sized).
    tree: Vec<M>,
    /// One compose scratch per pool worker plus one for the caller, for
    /// the parallel tree-reduce join.
    compose_slots: Vec<C>,
}

/// A persistent recognition session: worker pool + warm per-worker scan
/// scratches + reusable chunk/λ/join buffers.
///
/// ```
/// use ridfa_core::csdpa::{Session, RidCa};
/// use ridfa_core::ridfa::RiDfa;
/// use ridfa_automata::{nfa, regex};
///
/// let ast = regex::parse("[ab]*a[ab]{4}").unwrap();
/// let nfa = nfa::glushkov::build(&ast).unwrap();
/// let rid = RiDfa::from_nfa(&nfa).minimized();
/// let ca = RidCa::new(&rid);
///
/// let mut session = Session::new(4);
/// session.warm(&ca, b"abab");
/// assert!(session.recognize(&ca, b"abbaabbbaabab", 4).accepted);
/// let verdicts = session.recognize_many(&ca, &[&b"abbaabbbaabab"[..], b"zzz"], 2);
/// assert_eq!(verdicts, [true, false]);
/// ```
pub struct Session {
    pool: std::sync::Arc<ThreadPool>,
    /// Reusable chunk spans of the current text.
    spans: Vec<std::ops::Range<usize>>,
    /// Reusable flattened task table of a batch.
    batch: Vec<BatchTask>,
    /// `offsets[t]..offsets[t+1]` = `batch`/mapping indices of text `t`.
    offsets: Vec<usize>,
    /// The [`TypedCache`] of the most recent CA type.
    cache: Option<Box<dyn Any + Send>>,
    /// Why the most recent recognition ran degraded, if it did (cleared
    /// at the start of every recognition).
    last_degraded: Option<Degraded>,
}

impl Session {
    /// Creates a session with `num_workers` (≥ 1) pool workers. The
    /// calling thread participates in every reach phase too, so total
    /// scan parallelism is `num_workers + 1`.
    pub fn new(num_workers: usize) -> Session {
        Session::from_pool(ThreadPool::new(num_workers))
    }

    /// Like [`Session::new`] but with a bounded worker-respawn budget
    /// (see [`ThreadPool::with_respawn_limit`]): once the budget is
    /// exhausted and the pool drops below quorum, recognitions degrade to
    /// an explicit serial path and record
    /// [`Degraded::PoolBelowQuorum`] in [`Session::last_degraded`].
    pub fn with_respawn_limit(num_workers: usize, respawn_limit: u64) -> Session {
        Session::from_pool(ThreadPool::with_respawn_limit(num_workers, respawn_limit))
    }

    fn from_pool(pool: ThreadPool) -> Session {
        Session::with_shared_pool(std::sync::Arc::new(pool))
    }

    /// Creates a session on a pool shared with other sessions (the
    /// multi-pattern registry shape: one pool, many warm sessions).
    /// Concurrent recognitions from different sessions serialize on the
    /// pool's single scope slot; per-session caches stay private.
    pub fn with_shared_pool(pool: std::sync::Arc<ThreadPool>) -> Session {
        Session {
            pool,
            spans: Vec::new(),
            batch: Vec::new(),
            offsets: Vec::new(),
            cache: None,
            last_degraded: None,
        }
    }

    /// Creates a session sized to the machine: one pool worker per
    /// available core, minus the calling thread.
    pub fn with_available_parallelism() -> Session {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        Session::new(cores.saturating_sub(1).max(1))
    }

    /// Number of pool workers (excluding the participating caller).
    pub fn num_workers(&self) -> usize {
        self.pool.num_workers()
    }

    /// The session's worker pool, for health inspection (and for fault
    /// injection in tests — [`ThreadPool::execute`] is the only path
    /// through which an untrappable panic can kill a worker).
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Worker-pool health after the most recent heal pass.
    pub fn health(&self) -> PoolHealth {
        self.pool.health()
    }

    /// Why the most recent recognition ran degraded, or `None` if it ran
    /// at full shape. Cleared at the start of every recognition, so a
    /// healed pool reads `None` again on the next call.
    pub fn last_degraded(&self) -> Option<Degraded> {
        self.last_degraded
    }

    /// Heals the pool and decides whether this recognition must degrade:
    /// returns the reason when the pool is below quorum after healing.
    fn check_quorum(&mut self) -> Option<Degraded> {
        self.pool.heal();
        self.last_degraded = None;
        let health = self.pool.health();
        if health.below_quorum() {
            let reason = Degraded::PoolBelowQuorum {
                live: health.live,
                configured: health.configured,
            };
            self.last_degraded = Some(reason);
            Some(reason)
        } else {
            None
        }
    }

    /// Pre-warms every per-worker scratch (and the join buffers) against
    /// `ca` by scanning `sample` once per slot on the calling thread.
    ///
    /// Without this, a pool worker that happens not to claim any chunk of
    /// the first few texts still pays its scratch warm-up allocations the
    /// first time it does — harmless, but latency-visible. After `warm`
    /// plus one recognition (which sizes the mapping slots), a session
    /// recognizes without allocating.
    pub fn warm<CA: ChunkAutomaton>(&mut self, ca: &CA, sample: &[u8]) {
        let mut cache = self.take_cache::<CA>();
        let mut interior = CA::Mapping::default();
        for scratch in cache.scratches.iter_mut() {
            ca.scan_into(sample, scratch, &mut NoCount, &mut interior);
        }
        let mut first = CA::Mapping::default();
        ca.scan_first_into(sample, &mut NoCount, &mut first);
        let _ = ca.join_with(std::slice::from_ref(&first), &mut cache.join);
        self.cache = Some(cache);
    }

    /// Recognizes `text` on the session pool — the warm counterpart of
    /// the free [`recognize`](super::recognize) with
    /// [`Executor::Pooled`]. Allocation-free once the session is warm.
    ///
    /// Availability: dead pool workers are respawned first
    /// ([`ThreadPool::heal`]); if the pool is still below quorum (more
    /// than half the configured workers dead with the respawn budget
    /// spent), the text is recognized on an explicit serial path, the
    /// outcome records [`Executor::Serial`], and
    /// [`Session::last_degraded`] records why.
    pub fn recognize<CA: ChunkAutomaton>(
        &mut self,
        ca: &CA,
        text: &[u8],
        num_chunks: usize,
    ) -> Outcome {
        self.recognize_inner(ca, text, num_chunks, None, None)
            .expect("unbudgeted recognition cannot be interrupted")
    }

    /// Like [`Session::recognize`] but bounded by `budget` (deadline
    /// and/or cancellation): the probe is checked at chunk-claim
    /// boundaries and once per classification block inside kernel scans.
    /// Any panic escaping the chunk automaton is trapped and surfaced as
    /// [`RecognizeError::Panicked`]; the session stays usable afterwards
    /// (warm buffers may be rebuilt on the next call).
    pub fn recognize_budgeted<CA: ChunkAutomaton>(
        &mut self,
        ca: &CA,
        text: &[u8],
        num_chunks: usize,
        budget: &Budget,
    ) -> Result<Outcome, RecognizeError> {
        let probe = budget.probe();
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.recognize_inner(ca, text, num_chunks, probe.as_ref(), None)
        })) {
            Ok(result) => result,
            Err(payload) => Err(RecognizeError::Panicked(panic_message(payload))),
        }
    }

    /// Shared body of the single-text entry points: heal + quorum policy,
    /// then the pooled (or degraded-serial) reach and join. With `stats`
    /// every chunk scan is counted and timed into it (resized to the
    /// chunk count).
    fn recognize_inner<CA: ChunkAutomaton>(
        &mut self,
        ca: &CA,
        text: &[u8],
        num_chunks: usize,
        probe: Option<&InterruptProbe>,
        stats: Option<&mut Vec<ChunkStats>>,
    ) -> Result<Outcome, RecognizeError> {
        let degraded = self.check_quorum().is_some();
        let mut cache = self.take_cache::<CA>();
        chunk_spans_into(text.len(), num_chunks, &mut self.spans);
        let n = self.spans.len();
        let cache_mut = &mut *cache;
        if cache_mut.mappings.len() < n {
            cache_mut.mappings.resize_with(n, CA::Mapping::default);
        }
        let mut stats = stats.map(|stats| {
            stats.clear();
            stats.resize(n, ChunkStats::default());
            &mut stats[..]
        });
        let reach_start = Instant::now();
        if degraded {
            let TypedCache {
                scratches,
                mappings,
                ..
            } = cache_mut;
            let scratch = scratches.last_mut().expect("session keeps a caller slot");
            ca.arm_interrupt(scratch, probe);
            for (i, span) in self.spans.iter().enumerate() {
                if probe.is_some_and(|p| p.should_stop()) {
                    break;
                }
                let stat = stats.as_deref_mut().map(|stats| &mut stats[i]);
                scan_chunk(ca, &text[span.clone()], i, scratch, &mut mappings[i], stat);
            }
        } else {
            pooled_reach(
                &self.pool,
                ca,
                text,
                &self.spans,
                &mut cache_mut.scratches,
                &mut cache_mut.mappings[..n],
                stats,
                probe,
            );
        }
        let reach = reach_start.elapsed();
        if let Some(err) = probe.and_then(|p| p.status()) {
            self.cache = Some(cache);
            return Err(err);
        }
        let join_start = Instant::now();
        let accepted = if degraded {
            ca.join_with(&cache_mut.mappings[..n], &mut cache_mut.join)
        } else {
            Self::join_mappings(&self.pool, ca, cache_mut, n)
        };
        let join = join_start.elapsed();
        self.cache = Some(cache);
        Ok(Outcome {
            accepted,
            num_chunks: n,
            reach,
            join,
            executor: if degraded {
                Executor::Serial
            } else {
                Executor::Pooled
            },
            kernel: recognizer::effective_kernel_for(ca, &self.spans),
        })
    }

    /// Like [`Session::recognize`] but tallying executed transitions per
    /// chunk (paper Sect. 4.3), under the same quorum policy. The
    /// instrumentation buffers are per-call, so this path allocates;
    /// never mix it into a timing comparison with the uncounted path.
    pub fn recognize_counted<CA: ChunkAutomaton>(
        &mut self,
        ca: &CA,
        text: &[u8],
        num_chunks: usize,
    ) -> CountedOutcome {
        let mut per_chunk = Vec::new();
        let out = self
            .recognize_inner(ca, text, num_chunks, None, Some(&mut per_chunk))
            .expect("unbudgeted recognition cannot be interrupted");
        CountedOutcome {
            accepted: out.accepted,
            num_chunks: out.num_chunks,
            transitions: per_chunk.iter().map(|s| s.transitions).sum(),
            per_chunk,
            reach: out.reach,
            join: out.join,
            executor: out.executor,
            kernel: out.kernel,
        }
    }

    /// Recognizes with an explicit [`Executor`] shape:
    /// [`Executor::Pooled`] and [`Executor::Auto`] run on the session
    /// pool (a session *is* the preferred executor when one exists);
    /// the spawning shapes delegate to the free
    /// [`recognize`](super::recognize) unchanged — useful for
    /// apples-to-apples comparisons over one code path.
    pub fn recognize_with<CA: ChunkAutomaton>(
        &mut self,
        ca: &CA,
        text: &[u8],
        num_chunks: usize,
        executor: Executor,
    ) -> Outcome {
        match executor {
            Executor::Pooled | Executor::Auto => self.recognize(ca, text, num_chunks),
            other => recognizer::recognize(ca, text, num_chunks, other),
        }
    }

    /// Recognizes a whole batch of texts as **one** pipelined task stream
    /// over the pool: every chunk of every text is a claimable task, so
    /// workers flow from text to text without a per-text barrier (the
    /// single quiescence point is at the end of the batch), and short
    /// texts never leave workers idle. Returns one verdict per text, in
    /// order.
    ///
    /// Peak memory holds one λ mapping per chunk across the whole batch;
    /// chop very large streams into waves of a few thousand texts.
    pub fn recognize_many<CA, T>(&mut self, ca: &CA, texts: &[T], num_chunks: usize) -> Vec<bool>
    where
        CA: ChunkAutomaton,
        T: AsRef<[u8]> + Sync,
    {
        self.recognize_many_inner(ca, texts, num_chunks, None)
            .expect("unbudgeted recognition cannot be interrupted")
    }

    /// Like [`Session::recognize_many`] but bounded by `budget`: on
    /// deadline expiry or cancellation the whole batch fails with one
    /// typed error (no partial verdicts — a half-scanned batch has no
    /// meaningful prefix). Panics escaping the chunk automaton are
    /// trapped and surfaced as [`RecognizeError::Panicked`].
    pub fn recognize_many_budgeted<CA, T>(
        &mut self,
        ca: &CA,
        texts: &[T],
        num_chunks: usize,
        budget: &Budget,
    ) -> Result<Vec<bool>, RecognizeError>
    where
        CA: ChunkAutomaton,
        T: AsRef<[u8]> + Sync,
    {
        let probe = budget.probe();
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.recognize_many_inner(ca, texts, num_chunks, probe.as_ref())
        })) {
            Ok(result) => result,
            Err(payload) => Err(RecognizeError::Panicked(panic_message(payload))),
        }
    }

    fn recognize_many_inner<CA, T>(
        &mut self,
        ca: &CA,
        texts: &[T],
        num_chunks: usize,
        probe: Option<&InterruptProbe>,
    ) -> Result<Vec<bool>, RecognizeError>
    where
        CA: ChunkAutomaton,
        T: AsRef<[u8]> + Sync,
    {
        assert!(u32::try_from(texts.len()).is_ok(), "batch too large");
        let degraded = self.check_quorum().is_some();
        let mut cache = self.take_cache::<CA>();
        self.batch.clear();
        self.offsets.clear();
        for (t, text) in texts.iter().enumerate() {
            self.offsets.push(self.batch.len());
            chunk_spans_into(text.as_ref().len(), num_chunks, &mut self.spans);
            for (ci, span) in self.spans.iter().enumerate() {
                self.batch.push(BatchTask {
                    text: t as u32,
                    start: span.start,
                    end: span.end,
                    first: ci == 0,
                });
            }
        }
        self.offsets.push(self.batch.len());
        let total = self.batch.len();
        let cache_mut = &mut *cache;
        if cache_mut.mappings.len() < total {
            cache_mut.mappings.resize_with(total, CA::Mapping::default);
        }
        if degraded {
            let TypedCache {
                scratches,
                mappings,
                ..
            } = cache_mut;
            let scratch = scratches.last_mut().expect("session keeps a caller slot");
            ca.arm_interrupt(scratch, probe);
            for (i, task) in self.batch.iter().enumerate() {
                if probe.is_some_and(|p| p.should_stop()) {
                    break;
                }
                let chunk = &texts[task.text as usize].as_ref()[task.start..task.end];
                if task.first {
                    ca.scan_first_into(chunk, &mut NoCount, &mut mappings[i]);
                } else {
                    ca.scan_into(chunk, scratch, &mut NoCount, &mut mappings[i]);
                }
            }
        } else {
            let batch = &self.batch;
            let slots = DisjointSlots::new(&mut cache_mut.mappings[..total]);
            self.pool
                .invoke_all_scoped(total, &mut cache_mut.scratches, |scratch, i| {
                    ca.arm_interrupt(scratch, probe);
                    if probe.is_some_and(|p| p.should_stop()) {
                        return; // abandoned: the error return below skips the join
                    }
                    // SAFETY: the pool claims each task index exactly once.
                    let out = unsafe { slots.get(i) };
                    let task = &batch[i];
                    let chunk = &texts[task.text as usize].as_ref()[task.start..task.end];
                    if task.first {
                        ca.scan_first_into(chunk, &mut NoCount, out);
                    } else {
                        ca.scan_into(chunk, scratch, &mut NoCount, out);
                    }
                });
        }
        if let Some(err) = probe.and_then(|p| p.status()) {
            self.cache = Some(cache);
            return Err(err);
        }
        let verdicts = (0..texts.len())
            .map(|t| {
                let mappings = &cache_mut.mappings[self.offsets[t]..self.offsets[t + 1]];
                ca.join_with(mappings, &mut cache_mut.join)
            })
            .collect();
        self.cache = Some(cache);
        Ok(verdicts)
    }

    /// The warm buffer set for `CA`'s scratch/mapping/join types, taken
    /// out of the session for the duration of a call (split-borrow
    /// friendly); rebuilt if the session last served a different CA type.
    fn take_cache<CA: ChunkAutomaton>(
        &mut self,
    ) -> Box<TypedCache<CA::Scratch, CA::Mapping, CA::ComposeScratch>> {
        if let Some(cache) = self.cache.take() {
            if let Ok(typed) = cache.downcast() {
                return typed;
            }
        }
        let slots = self.pool.num_workers() + 1;
        Box::new(TypedCache {
            scratches: (0..slots).map(|_| CA::Scratch::default()).collect(),
            mappings: Vec::new(),
            join: JoinScratchOf::<CA>::default(),
            tree: Vec::new(),
            compose_slots: (0..slots).map(|_| CA::ComposeScratch::default()).collect(),
        })
    }

    /// The join phase of a pooled recognition: the serial fold for small
    /// chunk counts, the parallel tree reduction over
    /// [`compose_into`](ChunkAutomaton::compose_into) once the O(c)
    /// serial barrier would dominate.
    fn join_mappings<CA: ChunkAutomaton>(
        pool: &ThreadPool,
        ca: &CA,
        cache: &mut TypedCache<CA::Scratch, CA::Mapping, CA::ComposeScratch>,
        n: usize,
    ) -> bool {
        if n >= TREE_JOIN_MIN {
            tree_join(
                pool,
                ca,
                &mut cache.mappings[..n],
                &mut cache.tree,
                &mut cache.compose_slots,
                &mut cache.join,
            )
        } else {
            ca.join_with(&cache.mappings[..n], &mut cache.join)
        }
    }
}

/// Parallel tree-reduce join: each level composes adjacent pairs of
/// partial mappings concurrently on the pool (an odd tail rides up
/// unchanged), halving the sequence until the serial fold finishes the
/// last few — O(log c) parallel depth instead of the O(c) serial
/// barrier. Associativity of λ-composition guarantees the same verdict
/// as the left fold; the contents of `mappings` are consumed as scratch.
fn tree_join<CA: ChunkAutomaton>(
    pool: &ThreadPool,
    ca: &CA,
    mappings: &mut [CA::Mapping],
    tree: &mut Vec<CA::Mapping>,
    compose_slots: &mut [CA::ComposeScratch],
    join: &mut JoinScratchOf<CA>,
) -> bool {
    let mut len = mappings.len();
    while len > TREE_JOIN_TAIL {
        let pairs = len / 2;
        let odd = len % 2;
        if tree.len() < pairs {
            tree.resize_with(pairs, CA::Mapping::default);
        }
        {
            let src: &[CA::Mapping] = &mappings[..len];
            let slots = DisjointSlots::new(&mut tree[..pairs]);
            pool.invoke_all_scoped(pairs, compose_slots, |scratch, i| {
                // SAFETY: the pool claims each task index exactly once.
                let out = unsafe { slots.get(i) };
                ca.compose_into(&src[2 * i], &src[2 * i + 1], scratch, out);
            });
        }
        // Swap the level's results back to the front (pointer swaps, so
        // the buffers of both levels stay warm for the next call).
        for i in 0..pairs {
            std::mem::swap(&mut mappings[i], &mut tree[i]);
        }
        if odd == 1 {
            mappings.swap(pairs, len - 1);
        }
        len = pairs + odd;
    }
    ca.join_with(&mappings[..len], join)
}

/// Scans chunk `i` of a text into `out`: the first chunk from the known
/// initial state, every other one speculatively through `scratch`. With
/// `stats` the scan is counted and timed into it. Shared by the pooled
/// reach phase and the degraded serial loop.
fn scan_chunk<CA: ChunkAutomaton>(
    ca: &CA,
    chunk: &[u8],
    i: usize,
    scratch: &mut CA::Scratch,
    out: &mut CA::Mapping,
    stats: Option<&mut ChunkStats>,
) {
    let Some(stats) = stats else {
        if i == 0 {
            ca.scan_first_into(chunk, &mut NoCount, out);
        } else {
            ca.scan_into(chunk, scratch, &mut NoCount, out);
        }
        return;
    };
    let mut counter = TransitionCount::default();
    let scan_start = Instant::now();
    if i == 0 {
        ca.scan_first_into(chunk, &mut counter, out);
    } else {
        ca.scan_into(chunk, scratch, &mut counter, out);
    }
    *stats = ChunkStats {
        len: chunk.len(),
        transitions: counter.get(),
        scan_time: scan_start.elapsed(),
    };
}

/// The single-text pooled reach phase: every chunk is a claimable pool
/// task scanned into its own mapping slot. With `stats` the scan is
/// instrumented (per-chunk transition counts and scan wall time). With
/// `probe` the scan is interruptible: each claimant arms its scratch and
/// abandons unclaimed chunks once the budget trips (the caller never
/// joins abandoned mappings — it returns the probe's error instead).
#[allow(clippy::too_many_arguments)] // internal seam of the Session entry points; all args are hot borrows
fn pooled_reach<CA: ChunkAutomaton>(
    pool: &ThreadPool,
    ca: &CA,
    text: &[u8],
    spans: &[std::ops::Range<usize>],
    scratches: &mut [CA::Scratch],
    mappings: &mut [CA::Mapping],
    stats: Option<&mut [ChunkStats]>,
    probe: Option<&InterruptProbe>,
) {
    debug_assert_eq!(spans.len(), mappings.len());
    let slots = DisjointSlots::new(mappings);
    let stat_slots = stats.map(DisjointSlots::new);
    pool.invoke_all_scoped(spans.len(), scratches, |scratch, i| {
        ca.arm_interrupt(scratch, probe);
        if probe.is_some_and(|p| p.should_stop()) {
            return; // abandoned: the error return upstream skips the join
        }
        // SAFETY: the pool claims each task index exactly once.
        let out = unsafe { slots.get(i) };
        // SAFETY: same index, same single claimant.
        let stat = stat_slots.as_ref().map(|s| unsafe { s.get(i) });
        scan_chunk(ca, &text[spans[i].clone()], i, scratch, out, stat);
    });
}

/// Shares a slice across a pooled batch for disjoint per-index writes
/// (used by the reach phase, the tree-reduce join, and the streaming
/// layer).
///
/// Soundness argument: the pool hands out each task index to exactly one
/// claimant (an atomic `fetch_add`), and `get(i)` is only called with
/// that claimant's own index, so no two live `&mut` ever alias.
pub(crate) struct DisjointSlots<'a, T> {
    ptr: *mut T,
    len: usize,
    _slice: PhantomData<&'a mut [T]>,
}

// SAFETY: see the disjointness argument on the type; T values are moved
// across threads, hence T: Send.
unsafe impl<T: Send> Sync for DisjointSlots<'_, T> {}

impl<'a, T> DisjointSlots<'a, T> {
    pub(crate) fn new(slice: &'a mut [T]) -> DisjointSlots<'a, T> {
        DisjointSlots {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _slice: PhantomData,
        }
    }

    /// # Safety
    ///
    /// `i < len`, and no two concurrent calls may pass the same `i`.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get(&self, i: usize) -> &mut T {
        debug_assert!(i < self.len);
        &mut *self.ptr.add(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csdpa::{DfaCa, NfaCa, RidCa};
    use crate::ridfa::construct::tests::figure1_nfa;
    use crate::ridfa::RiDfa;
    use ridfa_automata::dfa::powerset::determinize;

    fn sample_text(accept: bool) -> Vec<u8> {
        let mut t = b"aabcab".repeat(300);
        if !accept {
            t.push(b'c');
        }
        t
    }

    #[test]
    fn session_agrees_with_free_recognizer() {
        let nfa = figure1_nfa();
        let dfa = determinize(&nfa);
        let rid = RiDfa::from_nfa(&nfa).minimized();
        let dfa_ca = DfaCa::new(&dfa);
        let rid_ca = RidCa::new(&rid);
        let mut session = Session::new(3);
        for accept in [true, false] {
            let text = sample_text(accept);
            for chunks in [1usize, 2, 7, 32] {
                assert_eq!(
                    session.recognize(&dfa_ca, &text, chunks).accepted,
                    accept,
                    "dfa c={chunks}"
                );
                assert_eq!(
                    session.recognize(&rid_ca, &text, chunks).accepted,
                    accept,
                    "rid c={chunks}"
                );
            }
        }
    }

    #[test]
    fn session_counted_matches_figure1() {
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let mut session = Session::new(2);
        let out = session.recognize_counted(&ca, b"aabcab", 2);
        assert!(out.accepted);
        assert_eq!(out.num_chunks, 2);
        assert_eq!(out.transitions, 9, "paper Fig. 1 bottom-right total");
        assert_eq!(out.per_chunk.len(), 2);
        assert_eq!(out.per_chunk[0].transitions, 3);
        assert_eq!(out.per_chunk[1].transitions, 6);
    }

    #[test]
    fn batch_verdicts_match_single_texts() {
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa).minimized();
        let ca = RidCa::new(&rid);
        let mut session = Session::new(2);
        let texts: Vec<Vec<u8>> = (0..17)
            .map(|i| {
                let mut t = b"aabcab".repeat(1 + i % 5);
                if i % 3 == 0 {
                    t.push(b'c'); // rejected
                }
                t
            })
            .collect();
        let batch = session.recognize_many(&ca, &texts, 3);
        for (i, text) in texts.iter().enumerate() {
            assert_eq!(
                batch[i],
                session.recognize(&ca, text, 3).accepted,
                "text {i}"
            );
        }
    }

    #[test]
    fn batch_of_empty_and_tiny_texts() {
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let mut session = Session::new(2);
        let texts: [&[u8]; 4] = [b"", b"a", b"aabcab", b"c"];
        let verdicts = session.recognize_many(&ca, &texts, 8);
        for (i, text) in texts.iter().enumerate() {
            assert_eq!(verdicts[i], nfa.accepts(text), "text {i}");
        }
        assert!(session.recognize_many(&ca, &[] as &[&[u8]], 4).is_empty());
    }

    #[test]
    fn cache_rebuilds_across_ca_types() {
        // Alternating CA types through one session must stay correct
        // (the typed buffers are rebuilt on each switch).
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let rid_ca = RidCa::new(&rid);
        let nfa_ca = NfaCa::new(&nfa);
        let mut session = Session::new(2);
        for _ in 0..3 {
            assert!(session.recognize(&rid_ca, b"aabcab", 2).accepted);
            assert!(session.recognize(&nfa_ca, b"aabcab", 2).accepted);
            assert!(!session.recognize(&nfa_ca, b"caa", 2).accepted);
        }
    }

    #[test]
    fn budgeted_session_paths_fail_typed_and_recover() {
        use super::super::budget::CancelToken;
        use std::time::Duration;
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let mut session = Session::new(2);
        let text = sample_text(true);
        let texts: [&[u8]; 3] = [b"aabcab", b"c", b"aabcabaabcab"];

        let expired = Budget::with_timeout(Duration::ZERO);
        assert_eq!(
            session
                .recognize_budgeted(&ca, &text, 4, &expired)
                .unwrap_err(),
            RecognizeError::DeadlineExceeded
        );
        let token = CancelToken::new();
        token.cancel();
        let cancelled = Budget::with_cancel(&token);
        assert_eq!(
            session
                .recognize_many_budgeted(&ca, &texts, 2, &cancelled)
                .unwrap_err(),
            RecognizeError::Cancelled
        );

        // The session is fully reusable after both failures, with the
        // unbudgeted paths unaffected.
        assert!(session.recognize(&ca, &text, 4).accepted);
        assert_eq!(session.recognize_many(&ca, &texts, 2), [true, false, true]);
        assert!(session.last_degraded().is_none());
        assert!(
            session
                .recognize_budgeted(&ca, &text, 4, &Budget::unlimited())
                .unwrap()
                .accepted
        );
    }

    #[test]
    fn executor_shapes_through_session_agree() {
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa).minimized();
        let ca = RidCa::new(&rid);
        let mut session = Session::new(2);
        for accept in [true, false] {
            let text = sample_text(accept);
            for executor in [
                Executor::Serial,
                Executor::PerChunk,
                Executor::Team(2),
                Executor::Auto,
                Executor::Pooled,
            ] {
                assert_eq!(
                    session.recognize_with(&ca, &text, 5, executor).accepted,
                    accept,
                    "{executor:?}"
                );
            }
        }
    }
}
