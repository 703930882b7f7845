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
//! Every pooled batch — the reach phase, the batch path, and each level
//! of the tree-reduce join — goes through
//! [`ThreadPool::invoke_each`]: task `i` receives `&mut mappings[i]` (or
//! its tree-level output slot) from the pool, claimed by index, so each
//! chunk's mapping slot is a plain `&mut` held by the one claimant that
//! scans it, and this module needs no `unsafe`.
//!
//! One session serves any mix of chunk-automaton types; the typed buffers
//! are cached per CA type and rebuilt transparently when the type
//! changes (keep one session per CA type if that matters for latency).

use std::any::Any;
use std::time::Instant;

use ridfa_automata::counter::NoCount;

use crate::parallel::{PoolHealth, ThreadPool};

use super::budget::{run_budgeted, Budget, Degraded, InterruptProbe, RecognizeError};
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
    /// (slot layout mandated by [`ThreadPool::invoke_each`]).
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

/// The [`TypedCache`] of a chunk automaton.
type TypedCacheOf<CA> = TypedCache<
    <CA as ChunkAutomaton>::Scratch,
    <CA as ChunkAutomaton>::Mapping,
    <CA as ChunkAutomaton>::ComposeScratch,
>;

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
        let cache = typed_cache::<CA>(&mut self.cache, self.pool.num_workers() + 1);
        let mut interior = CA::Mapping::default();
        for scratch in cache.scratches.iter_mut() {
            ca.scan_into(sample, scratch, &mut NoCount, &mut interior);
        }
        let mut first = CA::Mapping::default();
        ca.scan_first_into(sample, &mut NoCount, &mut first);
        let _ = ca.join_with(std::slice::from_ref(&first), &mut cache.join);
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
    /// [`RecognizeError::Panicked`]; the session stays usable afterwards.
    pub fn recognize_budgeted<CA: ChunkAutomaton>(
        &mut self,
        ca: &CA,
        text: &[u8],
        num_chunks: usize,
        budget: &Budget,
    ) -> Result<Outcome, RecognizeError> {
        run_budgeted(budget, |probe| {
            self.recognize_inner(ca, text, num_chunks, probe, None)
        })
    }

    /// The reach phase of one text: heal + quorum policy, chunk spans,
    /// then every chunk scanned into its own mapping slot — on the pool,
    /// or serially on the caller when the pool is below quorum
    /// ([`Session::last_degraded`] records which). Span 0 is scanned
    /// from the initial state only when `first`: the registry's pooled
    /// lane scans later slices of a stream as interior chunks. With
    /// `stats` every scan is counted and timed into it (one entry per
    /// chunk). With `probe` the scans are interruptible, and a
    /// tripped budget returns its error instead of the mappings. Returns
    /// the filled mapping slots in text order.
    pub(crate) fn reach<CA: ChunkAutomaton>(
        &mut self,
        ca: &CA,
        text: &[u8],
        num_chunks: usize,
        first: bool,
        probe: Option<&InterruptProbe>,
        stats: Option<&mut Vec<ChunkStats>>,
    ) -> Result<&mut [CA::Mapping], RecognizeError> {
        let degraded = self.check_quorum().is_some();
        chunk_spans_into(text.len(), num_chunks, &mut self.spans);
        let n = self.spans.len();
        let cache = typed_cache::<CA>(&mut self.cache, self.pool.num_workers() + 1);
        if cache.mappings.len() < n {
            cache.mappings.resize_with(n, CA::Mapping::default);
        }
        let cells = recognizer::stat_cells(stats.is_some(), n);
        let spans = &self.spans;
        run_each(
            &self.pool,
            degraded,
            &mut cache.scratches,
            &mut cache.mappings[..n],
            |scratch, i, out| {
                ca.arm_interrupt(scratch, probe);
                if probe.is_some_and(|p| p.should_stop()) {
                    return; // abandoned: the probe's error below skips the join
                }
                let chunk = &text[spans[i].clone()];
                recognizer::scan_chunk(ca, chunk, first && i == 0, scratch, out, cells.get(i));
            },
        );
        if let Some(err) = probe.and_then(|p| p.status()) {
            return Err(err);
        }
        if let Some(stats) = stats {
            recognizer::collect_stats(cells, stats);
        }
        Ok(&mut cache.mappings[..n])
    }

    /// Shared body of the single-text entry points: the
    /// [`reach`](Session::reach) phase, then the join — the serial fold,
    /// or the parallel tree reduction once the chunk count makes the
    /// O(c) fold a barrier.
    fn recognize_inner<CA: ChunkAutomaton>(
        &mut self,
        ca: &CA,
        text: &[u8],
        num_chunks: usize,
        probe: Option<&InterruptProbe>,
        stats: Option<&mut Vec<ChunkStats>>,
    ) -> Result<Outcome, RecognizeError> {
        let reach_start = Instant::now();
        let n = self.reach(ca, text, num_chunks, true, probe, stats)?.len();
        let reach = reach_start.elapsed();
        let degraded = self.last_degraded.is_some();
        let join_start = Instant::now();
        let cache = typed_cache::<CA>(&mut self.cache, self.pool.num_workers() + 1);
        let accepted = if degraded || n < TREE_JOIN_MIN {
            ca.join_with(&cache.mappings[..n], &mut cache.join)
        } else {
            tree_join(&self.pool, ca, cache, n)
        };
        Ok(Outcome {
            accepted,
            num_chunks: n,
            reach,
            join: join_start.elapsed(),
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
        CountedOutcome::from_parts(out, per_chunk)
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
        run_budgeted(budget, |probe| {
            self.recognize_many_inner(ca, texts, num_chunks, probe)
        })
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
        let cache = typed_cache::<CA>(&mut self.cache, self.pool.num_workers() + 1);
        if cache.mappings.len() < total {
            cache.mappings.resize_with(total, CA::Mapping::default);
        }
        let batch = &self.batch;
        run_each(
            &self.pool,
            degraded,
            &mut cache.scratches,
            &mut cache.mappings[..total],
            |scratch, i, out| {
                ca.arm_interrupt(scratch, probe);
                if probe.is_some_and(|p| p.should_stop()) {
                    return; // abandoned: the error return below skips the join
                }
                let task = &batch[i];
                let chunk = &texts[task.text as usize].as_ref()[task.start..task.end];
                recognizer::scan_chunk(ca, chunk, task.first, scratch, out, None);
            },
        );
        if let Some(err) = probe.and_then(|p| p.status()) {
            return Err(err);
        }
        Ok((0..texts.len())
            .map(|t| {
                let mappings = &cache.mappings[self.offsets[t]..self.offsets[t + 1]];
                ca.join_with(mappings, &mut cache.join)
            })
            .collect())
    }
}

/// The warm buffer set for `CA`'s scratch/mapping/join types, rebuilt in
/// place if the session last served a different CA type. `slots` is the
/// claimant count: pool workers plus the calling thread.
fn typed_cache<CA: ChunkAutomaton>(
    cache: &mut Option<Box<dyn Any + Send>>,
    slots: usize,
) -> &mut TypedCacheOf<CA> {
    if !cache.as_ref().is_some_and(|c| c.is::<TypedCacheOf<CA>>()) {
        *cache = Some(Box::new(TypedCache {
            scratches: (0..slots).map(|_| CA::Scratch::default()).collect(),
            mappings: Vec::new(),
            join: JoinScratchOf::<CA>::default(),
            tree: Vec::new(),
            compose_slots: (0..slots).map(|_| CA::ComposeScratch::default()).collect(),
        }));
    }
    cache
        .as_mut()
        .and_then(|c| c.downcast_mut())
        .expect("the cache holds this CA type's buffers")
}

/// Runs `work(local, i, &mut slots[i])` for every slot: as one pooled
/// [`invoke_each`](ThreadPool::invoke_each) batch, or — when the pool is
/// below quorum — serially on the caller's own slot, the last of
/// `locals`.
fn run_each<S, T, F>(pool: &ThreadPool, degraded: bool, locals: &mut [S], slots: &mut [T], work: F)
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize, &mut T) + Sync,
{
    if degraded {
        let caller = locals.last_mut().expect("one local slot per claimant");
        for (i, slot) in slots.iter_mut().enumerate() {
            work(caller, i, slot);
        }
    } else {
        pool.invoke_each(locals, slots, work);
    }
}

/// Parallel tree-reduce join over the first `n` mapping slots: each
/// level composes adjacent pairs of partial mappings concurrently on the
/// pool (an odd tail rides up unchanged), halving the sequence until the
/// serial fold finishes the last few — O(log c) parallel depth instead
/// of the O(c) serial barrier. Associativity of λ-composition guarantees
/// the same verdict as the left fold; the mappings are consumed as
/// scratch.
fn tree_join<CA: ChunkAutomaton>(
    pool: &ThreadPool,
    ca: &CA,
    cache: &mut TypedCacheOf<CA>,
    n: usize,
) -> bool {
    let TypedCache {
        mappings,
        tree,
        compose_slots,
        join,
        ..
    } = cache;
    let mut len = n;
    while len > TREE_JOIN_TAIL {
        let pairs = len / 2;
        let odd = len % 2;
        if tree.len() < pairs {
            tree.resize_with(pairs, CA::Mapping::default);
        }
        let level = &mappings[..2 * pairs];
        pool.invoke_each(compose_slots, &mut tree[..pairs], |scratch, i, out| {
            ca.compose_into(&level[2 * i], &level[2 * i + 1], scratch, out);
        });
        // Swap the level's results back to the front (pointer swaps, so
        // the buffers of both levels stay warm for the next call).
        mappings[..pairs].swap_with_slice(&mut tree[..pairs]);
        if odd == 1 {
            mappings.swap(pairs, len - 1);
        }
        len = pairs + odd;
    }
    ca.join_with(&mappings[..len], join)
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
