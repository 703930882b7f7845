//! Persistent recognition sessions: the warm execution layer for
//! high-traffic streams of (mostly short) texts.
//!
//! The free [`recognize`](super::recognize) functions run on a throwaway
//! session: each call starts a pool of one worker per claimant but the
//! caller (none for [`Executor::Serial`]) and throws every per-worker
//! scan [`Scratch`](super::Scratch) away afterwards, re-paying warm-up
//! allocations each text. That mirrors how the paper measures one text
//! at a time, but under serving traffic the start-up cost dominates
//! short texts. A [`Session`] kept across texts fixes both:
//!
//! * a persistent [`ThreadPool`] — workers park on a condvar between
//!   texts; dispatching a text is a notify, not `c` thread spawns;
//! * **per-worker resident scratches** — pool worker `w` reuses *its own*
//!   scan scratch for every chunk of every text it ever claims, so kernel
//!   warm-up happens once per worker per session;
//! * **buffer reuse** — λ-mapping slots and the join fold all live in
//!   the session; once warm (see [`Session::warm`]),
//!   [`Session::recognize`] and [`Session::recognize_counted`] perform
//!   **zero heap allocations** per text (asserted by
//!   `tests/session_alloc.rs` with a counting allocator);
//! * a batch path — [`Session::recognize_many`] pipelines a whole slice
//!   of texts through the pool as one task stream: chunk scans of text
//!   `t+1` start while scans of text `t` are still in flight, with a
//!   single quiescence point per *batch* instead of a barrier per text.
//!
//! Every chunk scan of a text goes through one reach phase, the
//! crate-private `Session::reach`: single texts (the free recognizers'
//! included), counted texts, batches and the registry's block lanes. It
//! is one [`ThreadPool::invoke_each`] batch, whose head respawns any
//! pool worker that died, and in which task `i` receives
//! `&mut mappings[i]` from the pool, claimed by index, so each chunk's
//! mapping slot is a plain `&mut` held by the one claimant that scans
//! it, and this module needs no `unsafe`. Its callers fold the filled
//! slots left to right through the session's
//! [`JoinScratch`](super::JoinScratch). A
//! [`StreamSession`](super::StreamSession) runs each stream as one
//! batch of its own over the same pool, scratches and join fold, with
//! one locked mapping slot per block of its ring.
//!
//! One session serves any mix of chunk-automaton types; the typed buffers
//! are cached per CA type and rebuilt transparently when the type
//! changes (keep one session per CA type if that matters for latency).

use std::any::Any;
use std::ops::Range;
use std::sync::atomic::AtomicU64;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use ridfa_automata::counter::NoCount;

use crate::parallel::{PoolHealth, ThreadPool};

use super::budget::{run_budgeted, Budget, InterruptProbe, RecognizeError};
use super::chunking::{chunk_count, chunk_span};
use super::kernel::LOCKSTEP_ANY_RUNS_MIN_CHUNK;
use super::stream::BLOCKS_PER_CLAIMANT;
use super::{
    recognizer, ChunkAutomaton, CountedOutcome, Executor, JoinScratch, JoinScratchOf, Outcome,
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

/// The reusable task table of a batch.
#[derive(Default)]
struct Batch {
    tasks: Vec<BatchTask>,
    /// `offsets[t]..offsets[t+1]` = task/mapping indices of text `t`.
    offsets: Vec<usize>,
}

/// The per-CA-type buffer set a session keeps warm.
struct TypedCache<S, M, C> {
    /// One scan scratch per pool worker plus one for the calling thread
    /// (slot layout mandated by [`ThreadPool::invoke_each`]).
    scratches: Vec<S>,
    /// λ-mapping slots, one per chunk task; grown to the high-water mark
    /// and reused across texts.
    mappings: Vec<M>,
    /// A stream's mapping slots, one per block of its ring, each locked
    /// by the claimant that scans the block and then by its fold.
    ring: Vec<Mutex<M>>,
    /// The join fold.
    join: JoinScratch<M, C>,
    /// Output slots of one tree-reduce level (high-water sized).
    tree: Vec<M>,
    /// One compose scratch per pool worker plus one for the caller, for
    /// the parallel tree-reduce join.
    compose_slots: Vec<C>,
}

/// What a stream pipelines through, from [`Session::stream_parts`].
pub(crate) struct StreamParts<'s, CA: ChunkAutomaton> {
    /// The session's pool.
    pub(crate) pool: &'s ThreadPool,
    /// One scan scratch per claimant, in [`ThreadPool::invoke_all_scoped`]
    /// slot order.
    pub(crate) scratches: &'s mut [CA::Scratch],
    /// One mapping slot per ring block.
    pub(crate) mappings: &'s [Mutex<CA::Mapping>],
    /// The join fold.
    pub(crate) join: &'s mut JoinScratchOf<CA>,
}

/// The [`TypedCache`] of a chunk automaton.
type TypedCacheOf<CA> = TypedCache<
    <CA as ChunkAutomaton>::Scratch,
    <CA as ChunkAutomaton>::Mapping,
    <CA as ChunkAutomaton>::ComposeScratch,
>;

/// A persistent recognition session: worker pool + warm per-worker scan
/// scratches + reusable λ-mapping slots and join fold.
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
    /// Reusable task table of a batch.
    batch: Batch,
    /// The [`TypedCache`] of the most recent CA type.
    cache: Option<Box<dyn Any + Send>>,
}

impl Session {
    /// Creates a session with `num_workers` pool workers. The calling
    /// thread participates in every reach phase too, so total scan
    /// parallelism is `num_workers + 1`; a session of zero workers spawns
    /// no thread and scans every chunk on the caller.
    pub fn new(num_workers: usize) -> Session {
        Session::with_shared_pool(std::sync::Arc::new(ThreadPool::new(num_workers)))
    }

    /// Creates a session on a pool shared with other sessions (the
    /// multi-pattern registry shape: one pool, many warm sessions).
    /// Concurrent recognitions from different sessions serialize on the
    /// pool's single scope slot; per-session caches stay private.
    pub fn with_shared_pool(pool: std::sync::Arc<ThreadPool>) -> Session {
        Session {
            pool,
            batch: Batch::default(),
            cache: None,
        }
    }

    /// Number of pool workers (excluding the participating caller).
    pub fn num_workers(&self) -> usize {
        self.pool.num_workers()
    }

    /// The session's worker pool, for health inspection and for fault
    /// injection in tests.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Worker-pool health after the most recent heal pass.
    pub fn health(&self) -> PoolHealth {
        self.pool.health()
    }

    /// Pre-warms every per-worker scratch, one mapping slot per claimant,
    /// one per block of a stream's ring and the join fold against `ca` by
    /// scanning `sample` on the calling thread. A sample shorter than
    /// [`LOCKSTEP_ANY_RUNS_MIN_CHUNK`] is repeated to that length (zeros
    /// if it is empty), so a [`Kernel::Auto`](super::Kernel::Auto) scan
    /// resolves to the lockstep kernel and sizes its scratch whatever
    /// the sample: a shorter scan would run per run and size none.
    ///
    /// Without this, a pool worker that happens not to claim any chunk of
    /// the first few texts still pays its scratch warm-up allocations the
    /// first time it does — harmless, but latency-visible. After `warm`
    /// plus one recognition (which sizes the rest of the mapping slots),
    /// a session recognizes without allocating, whichever claimant takes
    /// which chunk.
    pub fn warm<CA: ChunkAutomaton>(&mut self, ca: &CA, sample: &[u8]) {
        let mut padded = [0u8; LOCKSTEP_ANY_RUNS_MIN_CHUNK];
        let sample = if sample.len() < padded.len() {
            for (byte, &s) in padded.iter_mut().zip(sample.iter().cycle()) {
                *byte = s;
            }
            &padded[..]
        } else {
            sample
        };
        let claimants = self.pool.num_workers() + 1;
        let cache = typed_cache::<CA>(&mut self.cache, claimants);
        if cache.mappings.len() < claimants {
            cache.mappings.resize_with(claimants, CA::Mapping::default);
        }
        let ring = BLOCKS_PER_CLAIMANT * claimants;
        if cache.ring.len() < ring {
            cache.ring.resize_with(ring, Mutex::default);
        }
        for (scratch, slot) in cache.scratches.iter_mut().zip(&mut cache.mappings) {
            ca.scan_into(sample, scratch, &mut NoCount, slot);
        }
        for slot in &mut cache.ring {
            let slot = slot.get_mut().unwrap_or_else(PoisonError::into_inner);
            ca.scan_into(sample, &mut cache.scratches[0], &mut NoCount, slot);
        }
        cache.join.warm(ca, sample, &mut cache.scratches[0]);
    }

    /// The pool and the typed buffers a stream over a ring of
    /// `ring_blocks` blocks pipelines through (see [`StreamParts`]),
    /// growing the mapping slots to one per block if
    /// [`warm`](Session::warm) has not.
    pub(crate) fn stream_parts<CA: ChunkAutomaton>(
        &mut self,
        ring_blocks: usize,
    ) -> StreamParts<'_, CA> {
        let cache = typed_cache::<CA>(&mut self.cache, self.pool.num_workers() + 1);
        if cache.ring.len() < ring_blocks {
            cache.ring.resize_with(ring_blocks, Mutex::default);
        }
        StreamParts {
            pool: &self.pool,
            scratches: &mut cache.scratches,
            mappings: &cache.ring[..ring_blocks],
            join: &mut cache.join,
        }
    }

    /// The one pooled reach phase: runs `tasks` chunk scans into the
    /// first `tasks` mapping slots and returns them, in task order, with
    /// the session's join fold (which the reach leaves untouched).
    /// `task(i)` names task `i`'s chunk and whether it is a first chunk
    /// (scanned from the initial state); it runs on the claimant that
    /// scans the chunk, right before the scan.
    ///
    /// It is one [`ThreadPool::invoke_each`] batch, whose head respawns
    /// any dead pool worker and whose caller drains every task a worker
    /// leaves. With `probe` the scans are interruptible, and a tripped
    /// budget returns its error instead of the mappings; with `tally`
    /// every scan adds its executed transitions to it.
    pub(crate) fn reach<'t, CA, F>(
        &mut self,
        ca: &CA,
        tasks: usize,
        task: F,
        probe: Option<&InterruptProbe>,
        tally: Option<&AtomicU64>,
    ) -> Result<(&mut [CA::Mapping], &mut JoinScratchOf<CA>), RecognizeError>
    where
        CA: ChunkAutomaton,
        F: Fn(usize) -> (&'t [u8], bool) + Sync,
    {
        let cache = typed_cache::<CA>(&mut self.cache, self.pool.num_workers() + 1);
        if cache.mappings.len() < tasks {
            cache.mappings.resize_with(tasks, CA::Mapping::default);
        }
        self.pool.invoke_each(
            &mut cache.scratches,
            &mut cache.mappings[..tasks],
            |scratch, i, out| recognizer::scan_task(ca, || task(i), scratch, out, probe, tally),
        );
        if let Some(err) = probe.and_then(|p| p.status()) {
            return Err(err);
        }
        Ok((&mut cache.mappings[..tasks], &mut cache.join))
    }

    /// Recognizes `text` on the session pool — the warm counterpart of
    /// the free [`recognize`](super::recognize), which runs this on a
    /// throwaway session. Allocation-free once the session is warm.
    pub fn recognize<CA: ChunkAutomaton>(
        &mut self,
        ca: &CA,
        text: &[u8],
        num_chunks: usize,
    ) -> Outcome {
        self.recognize_balanced(ca, text, num_chunks, None, None)
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
            self.recognize_balanced(ca, text, num_chunks, probe, None)
        })
    }

    /// [`recognize_over`](Session::recognize_over) `text` cut into
    /// `num_chunks` balanced chunks.
    fn recognize_balanced<CA: ChunkAutomaton>(
        &mut self,
        ca: &CA,
        text: &[u8],
        num_chunks: usize,
        probe: Option<&InterruptProbe>,
        tally: Option<&AtomicU64>,
    ) -> Result<Outcome, RecognizeError> {
        let n = chunk_count(text.len(), num_chunks);
        self.recognize_over(ca, text, n, |i| chunk_span(text.len(), n, i), probe, tally)
    }

    /// Shared body of the single-text entry points, the free ones
    /// included: the [`reach`](Session::reach) over the `n` chunks
    /// `span(i)` cuts from `text`, then the join — the serial fold, or
    /// the parallel tree reduction once the chunk count makes the O(c)
    /// fold a barrier.
    pub(super) fn recognize_over<CA, S>(
        &mut self,
        ca: &CA,
        text: &[u8],
        n: usize,
        span: S,
        probe: Option<&InterruptProbe>,
        tally: Option<&AtomicU64>,
    ) -> Result<Outcome, RecognizeError>
    where
        CA: ChunkAutomaton,
        S: Fn(usize) -> Range<usize> + Sync,
    {
        let reach_start = Instant::now();
        self.reach(ca, n, |i| (&text[span(i)], i == 0), probe, tally)?;
        let reach = reach_start.elapsed();
        let join_start = Instant::now();
        let pool_claimants = self.pool.num_workers() + 1;
        let claimants = pool_claimants.min(n);
        let cache = typed_cache::<CA>(&mut self.cache, pool_claimants);
        let accepted = if claimants == 1 || n < TREE_JOIN_MIN {
            cache.join.join(ca, &mut cache.mappings[..n])
        } else {
            tree_join(&self.pool, ca, cache, n)
        };
        Ok(Outcome {
            accepted,
            num_chunks: n,
            reach,
            join: join_start.elapsed(),
            executor: Executor::of_claimants(claimants),
            kernel: recognizer::effective_kernel_for(ca, (1..n).map(|i| span(i).len())),
        })
    }

    /// Like [`Session::recognize`] but tallying the executed transitions
    /// (paper Sect. 4.3) into one atomic counter; allocation-free once
    /// warm like the uncounted path. The counted scans are slower, so
    /// never mix the two in one timing comparison.
    pub fn recognize_counted<CA: ChunkAutomaton>(
        &mut self,
        ca: &CA,
        text: &[u8],
        num_chunks: usize,
    ) -> CountedOutcome {
        let tally = AtomicU64::new(0);
        let out = self
            .recognize_balanced(ca, text, num_chunks, None, Some(&tally))
            .expect("unbudgeted recognition cannot be interrupted");
        CountedOutcome::from_parts(out, tally.into_inner())
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
        assert!(u32::try_from(texts.len()).is_ok(), "batch too large");
        // The task table leaves the session for the reach, which borrows
        // the whole session; it comes back below, buffers intact.
        let mut batch = std::mem::take(&mut self.batch);
        batch.tasks.clear();
        batch.offsets.clear();
        for (t, text) in texts.iter().enumerate() {
            batch.offsets.push(batch.tasks.len());
            let len = text.as_ref().len();
            let n = chunk_count(len, num_chunks);
            batch.tasks.extend((0..n).map(|i| {
                let span = chunk_span(len, n, i);
                BatchTask {
                    text: t as u32,
                    start: span.start,
                    end: span.end,
                    first: i == 0,
                }
            }));
        }
        batch.offsets.push(batch.tasks.len());
        let task = |i: usize| {
            let task = &batch.tasks[i];
            let text = texts[task.text as usize].as_ref();
            (&text[task.start..task.end], task.first)
        };
        let (mappings, join) = self
            .reach(ca, batch.tasks.len(), task, None, None)
            .expect("unbudgeted recognition cannot be interrupted");
        let offsets = &batch.offsets;
        let verdicts = (0..texts.len())
            .map(|t| join.join(ca, &mut mappings[offsets[t]..offsets[t + 1]]))
            .collect();
        self.batch = batch;
        verdicts
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
            ring: Vec::new(),
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
    join.join(ca, &mut mappings[..len])
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
                .recognize_budgeted(&ca, &text, 4, &cancelled)
                .unwrap_err(),
            RecognizeError::Cancelled
        );

        // The session is fully reusable after both failures, with the
        // unbudgeted paths unaffected.
        assert!(session.recognize(&ca, &text, 4).accepted);
        assert_eq!(session.recognize_many(&ca, &texts, 2), [true, false, true]);
        assert!(
            session
                .recognize_budgeted(&ca, &text, 4, &Budget::unlimited())
                .unwrap()
                .accepted
        );
    }

    #[test]
    fn executor_shapes_through_session_agree() {
        // The free recognizer's throwaway sessions, the caller-only one of
        // `Executor::Serial` included, agree with a warm session.
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa).minimized();
        let ca = RidCa::new(&rid);
        let mut session = Session::new(2);
        for accept in [true, false] {
            let text = sample_text(accept);
            assert_eq!(session.recognize(&ca, &text, 5).accepted, accept);
            for executor in [
                Executor::Serial,
                Executor::PerChunk,
                Executor::Team(2),
                Executor::Auto,
            ] {
                assert_eq!(
                    recognizer::recognize(&ca, &text, 5, executor).accepted,
                    accept,
                    "{executor:?}"
                );
            }
        }
    }
}
