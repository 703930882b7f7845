//! Bounded-memory streaming recognition: validate a text of *any* length
//! — a multi-GB log file, a network pipe, stdin — without ever holding it
//! in memory.
//!
//! Every other recognition path ([`recognize`](super::recognize),
//! [`Session`](super::Session)) needs the whole text resident and buffers
//! all `c` chunk mappings before the join. A [`StreamSession`] instead
//! exploits the associativity of λ-composition
//! ([`ChunkAutomaton::compose_into`]): the join is an **incremental left
//! fold**, so only *one* composed prefix mapping has to live at any time,
//! and blocks can be scanned as they arrive.
//!
//! The execution shape is a double-buffered wave pipeline over the
//! persistent [`ThreadPool`]:
//!
//! * the text is read in fixed-size **blocks** into a ring of
//!   `2 × (workers + 1)` reusable buffers — live buffer memory is
//!   `O(workers · block_size)` regardless of stream length
//!   ([`StreamSession::buffer_bytes`] accounts for it exactly);
//! * each wave is one [`invoke_each`](ThreadPool::invoke_each) batch
//!   with one task per block of the current wave, and task 0 **reads the
//!   next wave** before its scan — I/O overlaps the other blocks' scans.
//!   Each task writes its own ring slot through the plain `&mut` the
//!   pool hands it, and the read-ahead state sits behind a lock only
//!   task 0 takes, so the wave needs no `unsafe`;
//! * after each wave the caller **eagerly composes** the finished
//!   mappings into the running prefix *in arrival order*, so mapping
//!   memory is O(1) live mappings (plus the per-slot scan outputs of one
//!   ring) — there is no O(c) buffered join barrier;
//! * a composed prefix with no surviving run
//!   ([`ChunkAutomaton::mapping_is_dead`]) rejects the entire stream, so
//!   the session stops reading **early** instead of scanning gigabytes of
//!   doomed suffix.
//!
//! The verdict, a [`CountedOutcome`](super::CountedOutcome)-style
//! transition tally, and byte/block counts are delivered at EOF as a
//! [`StreamOutcome`]. Once warm, a stream session performs **zero heap
//! allocations per block** (asserted by `tests/stream_alloc.rs` with a
//! counting allocator).

use std::any::Any;
use std::io::{self, Read};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ridfa_automata::counter::{NoCount, TransitionCount};

use crate::parallel::{PoolHealth, ThreadPool};

use super::budget::{run_budgeted, Budget, Degraded, InterruptProbe, StreamError};
use super::{ChunkAutomaton, Kernel};

/// Result of a streaming recognition.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Did the device accept the stream?
    pub accepted: bool,
    /// Bytes scanned *and composed into the verdict*. At EOF this is the
    /// whole stream; on [`rejected_early`](StreamOutcome::rejected_early)
    /// it is the validated prefix only — note the read-ahead may have
    /// *consumed* up to one extra wave from the reader beyond this count,
    /// so it is not a resume offset for the underlying reader.
    pub bytes: u64,
    /// Blocks scanned and composed (same caveat as
    /// [`bytes`](StreamOutcome::bytes)).
    pub blocks: u64,
    /// Total executed transitions across all block scans (the paper's
    /// workload measure, as in
    /// [`CountedOutcome`](super::CountedOutcome)).
    pub transitions: u64,
    /// Wall time of the whole stream (read + scan + compose).
    pub elapsed: Duration,
    /// Time the caller spent in eager composition (the streaming
    /// equivalent of the join phase).
    pub compose: Duration,
    /// `true` when the composed prefix died before EOF and the session
    /// stopped reading — the verdict is a definite rejection.
    pub rejected_early: bool,
    /// The scan strategy the interior block scans actually executed,
    /// resolved through [`ChunkAutomaton::effective_kernel`] for the
    /// session's nominal block size (separator-snapped blocks may run
    /// slightly shorter). `None` when the CA does not scan through the
    /// lockstep kernel.
    pub kernel: Option<Kernel>,
}

/// A fixed-size reusable block buffer of the ring.
struct Block {
    data: Vec<u8>,
    /// Valid bytes (`< data.len()` only for the final block).
    len: usize,
}

/// The per-CA-type buffer set a stream session keeps warm.
struct StreamCache<S, M, C> {
    /// One scan scratch per pool worker plus one for the caller.
    scratches: Vec<S>,
    /// One `(mapping, transitions)` output slot per ring block.
    slots: Vec<(M, u64)>,
    /// The stream's very first block's `(mapping, transitions)`: scanned
    /// into its ring slot like every block, then swapped out here so it
    /// outlives the ring's reuse.
    first: (M, u64),
    /// The composed prefix `λ_k ⊙ … ⊙ λ_1` of everything consumed so far.
    acc: M,
    /// Output slot of the next composition, swapped with `acc`.
    tmp: M,
    /// The CA's composition working memory.
    compose: C,
}

/// State of the read-ahead, which task 0 of every wave runs.
struct ReadAhead<'a, R> {
    reader: &'a mut R,
    blocks: &'a mut [Block],
    /// Snap full blocks back to their last occurrence of this byte
    /// (record separator); the cut-off tail rides in `carry`.
    separator: Option<u8>,
    /// Bytes deferred past the previous block's snap point, to seed the
    /// next block. Always shorter than one block; owned by the session so
    /// it survives across waves.
    carry: &'a mut Vec<u8>,
    /// Blocks of the next wave holding at least one byte.
    filled: usize,
    eof: bool,
    error: Option<io::Error>,
}

/// A persistent streaming recognition session: worker pool + block ring +
/// warm per-worker scan scratches + the O(1) composition state.
///
/// ```
/// use std::io::Cursor;
/// use ridfa_core::csdpa::{RidCa, StreamSession};
/// use ridfa_core::ridfa::RiDfa;
/// use ridfa_automata::{nfa, regex};
///
/// let ast = regex::parse("[ab]*a[ab]{4}").unwrap();
/// let nfa = nfa::glushkov::build(&ast).unwrap();
/// let rid = RiDfa::from_nfa(&nfa).minimized();
/// let ca = RidCa::new(&rid);
///
/// let mut session = StreamSession::new(2, 4096);
/// let text = b"abbaabbbaabab".repeat(1000);
/// let out = session.recognize_stream(&ca, Cursor::new(&text)).unwrap();
/// assert_eq!(out.accepted, nfa.accepts(&text));
/// assert_eq!(out.bytes, text.len() as u64);
/// ```
pub struct StreamSession {
    pool: std::sync::Arc<ThreadPool>,
    block_size: usize,
    /// `2 × (workers + 1)` fixed-size buffers: two waves of one block per
    /// reach-phase claimant.
    blocks: Vec<Block>,
    /// The [`StreamCache`] of the most recent CA type.
    cache: Option<Box<dyn Any + Send>>,
    /// Record separator for boundary snapping
    /// ([`StreamSession::set_separator`]); `None` = plain length-based
    /// blocks.
    separator: Option<u8>,
    /// The snapped-off tail of the previous block, seeding the next one.
    /// Lives outside the ring so [`StreamSession::buffer_bytes`] keeps
    /// its exact `ring × block_size` accounting.
    carry: Vec<u8>,
    /// Why the most recent stream ran degraded, if it did (cleared at the
    /// start of every stream).
    last_degraded: Option<Degraded>,
}

impl StreamSession {
    /// Creates a stream session with `num_workers` (≥ 1) pool workers
    /// reading in `block_size`-byte (≥ 1) blocks. The calling thread
    /// participates in every wave, so scan parallelism is
    /// `num_workers + 1` and the block ring holds
    /// `2 × (num_workers + 1)` buffers.
    pub fn new(num_workers: usize, block_size: usize) -> StreamSession {
        StreamSession::from_pool(ThreadPool::new(num_workers), block_size)
    }

    /// Like [`StreamSession::new`] but with a bounded worker-respawn
    /// budget (see [`ThreadPool::with_respawn_limit`]). A pool below
    /// quorum does not stop a stream — the calling thread drives every
    /// wave itself — but the loss of parallelism is recorded in
    /// [`StreamSession::last_degraded`].
    pub fn with_respawn_limit(
        num_workers: usize,
        block_size: usize,
        respawn_limit: u64,
    ) -> StreamSession {
        StreamSession::from_pool(
            ThreadPool::with_respawn_limit(num_workers, respawn_limit),
            block_size,
        )
    }

    fn from_pool(pool: ThreadPool, block_size: usize) -> StreamSession {
        StreamSession::with_shared_pool(std::sync::Arc::new(pool), block_size)
    }

    /// Creates a stream session on a pool shared with other sessions
    /// (the multi-pattern registry shape: one pool, many warm sessions).
    /// Waves from different sessions serialize on the pool's single
    /// scope slot; each session keeps its own block ring and caches.
    pub fn with_shared_pool(pool: std::sync::Arc<ThreadPool>, block_size: usize) -> StreamSession {
        let block_size = block_size.max(1);
        let ring = 2 * (pool.num_workers() + 1);
        StreamSession {
            pool,
            block_size,
            blocks: (0..ring)
                .map(|_| Block {
                    data: vec![0u8; block_size],
                    len: 0,
                })
                .collect(),
            cache: None,
            separator: None,
            carry: Vec::new(),
            last_degraded: None,
        }
    }

    /// Sets (or clears, with `None`) the record separator for
    /// **separator-snapped block planning**: every *full* block is cut
    /// back to its last occurrence of `sep`, and the severed tail seeds
    /// the next block — the streaming counterpart of
    /// [`chunk_spans_snapped`](super::chunk_spans_snapped). On
    /// record-structured texts (logs, line-oriented protocols) this
    /// aligns block boundaries with record boundaries, so speculative
    /// runs start at the states that actually occur there and converge
    /// within a few bytes instead of a few hundred. A full block with no
    /// separator at all is emitted unsnapped (the degenerate case stays
    /// correct, just unaligned), and the final partial block at EOF is
    /// never snapped. The verdict is independent of the setting — only
    /// where the scan boundaries fall changes.
    pub fn set_separator(&mut self, sep: Option<u8>) {
        self.separator = sep;
        self.carry.clear();
        if sep.is_some() {
            // Worst-case carry is one byte short of a block; reserving it
            // here keeps the steady state allocation-free.
            self.carry.reserve(self.block_size);
        }
    }

    /// The record separator blocks are snapped to, if any.
    pub fn separator(&self) -> Option<u8> {
        self.separator
    }

    /// Creates a session sized to the machine (one pool worker per core,
    /// minus the calling thread).
    pub fn with_available_parallelism(block_size: usize) -> StreamSession {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        StreamSession::new(cores.saturating_sub(1).max(1), block_size)
    }

    /// Number of pool workers (excluding the participating caller).
    pub fn num_workers(&self) -> usize {
        self.pool.num_workers()
    }

    /// The session's worker pool, for health inspection and fault
    /// injection in tests.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Worker-pool health after the most recent heal pass.
    pub fn health(&self) -> PoolHealth {
        self.pool.health()
    }

    /// Why the most recent stream ran degraded, or `None` if the pool was
    /// at quorum. Cleared at the start of every stream.
    pub fn last_degraded(&self) -> Option<Degraded> {
        self.last_degraded
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of block buffers in the ring
    /// (`2 × (`[`num_workers`](StreamSession::num_workers)` + 1)`).
    pub fn ring_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Exact bytes held by the block ring — the session's text-buffer
    /// footprint, **independent of stream length**:
    /// [`ring_blocks`](StreamSession::ring_blocks)` × `
    /// [`block_size`](StreamSession::block_size).
    pub fn buffer_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.data.capacity()).sum()
    }

    /// Number of live λ-mapping slots a stream of any length uses: one
    /// per ring block, the dedicated first-block slot, and the two
    /// composition accumulators.
    pub fn live_mappings(&self) -> usize {
        self.blocks.len() + 3
    }

    /// Pre-warms every per-worker scratch, mapping slot, and the
    /// composition buffers against `ca` so the next
    /// [`recognize_stream`](StreamSession::recognize_stream) runs
    /// allocation-free from its first block.
    pub fn warm<CA: ChunkAutomaton>(&mut self, ca: &CA, sample: &[u8]) {
        let StreamCache {
            scratches,
            slots,
            first,
            acc,
            tmp,
            compose,
        } = stream_cache::<CA>(&mut self.cache, self.pool.num_workers() + 1);
        for scratch in scratches.iter_mut() {
            ca.scan_into(sample, scratch, &mut NoCount, tmp);
        }
        // `first` trades buffers with ring slots, so it is sized like one.
        for (slot, _) in slots.iter_mut().chain(std::iter::once(&mut *first)) {
            ca.scan_into(sample, &mut scratches[0], &mut NoCount, slot);
        }
        ca.scan_first_into(sample, &mut NoCount, &mut first.0);
        // Two compositions size the accumulator/compose buffers in both
        // roles (first ⊙ interior seeding `acc`, then prefix ⊙ interior).
        ca.compose_into(&first.0, &slots[0].0, compose, acc);
        ca.compose_into(acc, &slots[0].0, compose, tmp);
        std::mem::swap(acc, tmp);
        ca.compose_into(acc, &slots[0].0, compose, tmp);
    }

    /// Recognizes the entire `reader` stream, scanning it in
    /// [`block_size`](StreamSession::block_size) blocks that are never
    /// all resident: live memory stays `O(workers · block_size)` however
    /// long the stream runs. The verdict and the transition tally are
    /// delivered at EOF (or as soon as the composed prefix dies — see
    /// [`StreamOutcome::rejected_early`]).
    ///
    /// `reader` needs no buffering of its own (the session reads whole
    /// blocks) and may hand out data in arbitrarily small pieces;
    /// [`ErrorKind::Interrupted`](io::ErrorKind::Interrupted) reads are
    /// retried. Any other I/O error aborts recognition and is returned.
    pub fn recognize_stream<CA, R>(&mut self, ca: &CA, reader: R) -> io::Result<StreamOutcome>
    where
        CA: ChunkAutomaton,
        R: Read + Send,
    {
        match self.run_stream(ca, reader, None) {
            Ok(out) => Ok(out),
            Err(StreamError::Io(e)) => Err(e),
            Err(other) => unreachable!("unbudgeted stream cannot be interrupted: {other}"),
        }
    }

    /// Like [`StreamSession::recognize_stream`] but bounded by `budget`:
    /// the deadline/cancellation probe is checked after every wave (and
    /// once per classification block inside kernel scans), so expiry is
    /// noticed within one wave of I/O. On any error — typed interruption
    /// or reader I/O failure — the session remains fully reusable and the
    /// block ring does not grow ([`StreamSession::buffer_bytes`] is
    /// unchanged). Panics escaping the chunk automaton are trapped and
    /// surfaced as [`StreamError::Panicked`].
    pub fn recognize_stream_budgeted<CA, R>(
        &mut self,
        ca: &CA,
        reader: R,
        budget: &Budget,
    ) -> Result<StreamOutcome, StreamError>
    where
        CA: ChunkAutomaton,
        R: Read + Send,
    {
        run_budgeted(budget, |probe| self.run_stream(ca, reader, probe))
    }

    /// Shared body of the streaming entry points; `probe` is the only
    /// difference between the plain and the budgeted path.
    fn run_stream<CA, R>(
        &mut self,
        ca: &CA,
        reader: R,
        probe: Option<&InterruptProbe>,
    ) -> Result<StreamOutcome, StreamError>
    where
        CA: ChunkAutomaton,
        R: Read + Send,
    {
        self.pool.heal();
        self.last_degraded = None;
        let health = self.pool.health();
        if health.below_quorum() {
            // The caller drives every wave itself, so a depleted pool
            // costs parallelism, not progress — record it and carry on.
            self.last_degraded = Some(Degraded::PoolBelowQuorum {
                live: health.live,
                configured: health.configured,
            });
        }
        let mut reader = reader;
        let wave = self.pool.num_workers() + 1;
        let StreamCache {
            scratches,
            slots,
            first,
            acc,
            tmp,
            compose,
        } = stream_cache::<CA>(&mut self.cache, wave);
        // Stale carry from an aborted stream must not leak into this one.
        self.carry.clear();
        let separator = self.separator;
        let carry = &mut self.carry;

        debug_assert_eq!(self.blocks.len(), 2 * wave);
        debug_assert_eq!(slots.len(), 2 * wave);

        let start = Instant::now();
        let mut compose_time = Duration::ZERO;
        let mut bytes = 0u64;
        let mut blocks_done = 0u64;
        let mut transitions = 0u64;
        let mut rejected_early = false;

        // Prologue: the first wave is read on the caller (nothing to
        // overlap with yet).
        let (w0, w1) = self.blocks.split_at_mut(wave);
        let mut prologue = ReadAhead {
            reader: &mut reader,
            blocks: w0,
            separator,
            carry: &mut *carry,
            filled: 0,
            eof: false,
            error: None,
        };
        fill_wave(&mut prologue);
        let mut eof = prologue.eof;
        let mut cur_count = prologue.filled;
        if let Some(e) = prologue.error {
            return Err(StreamError::Io(e));
        }
        let (mut cur_wave, mut next_wave) = (&mut *w0, &mut *w1);

        let mut cur = 0usize; // ring half holding the wave being scanned
        let mut first_wave = true;
        while cur_count > 0 {
            // Locked once per wave, by task 0 only.
            let read_ahead = Mutex::new(ReadAhead {
                reader: &mut reader,
                blocks: &mut *next_wave,
                separator,
                carry: &mut *carry,
                filled: 0,
                eof: false,
                error: None,
            });
            // One task per block of the wave, each writing its own ring
            // slot. Task 0 first reads the next wave into the other half
            // of the ring (until EOF), so the I/O overlaps the other
            // blocks' scans.
            let base = cur * wave;
            let blocks = &cur_wave[..cur_count];
            self.pool.invoke_each(
                scratches,
                &mut slots[base..base + cur_count],
                |scratch, i, (mapping, count)| {
                    ca.arm_interrupt(scratch, probe);
                    if probe.is_some_and(|p| p.should_stop()) {
                        return; // abandoned: the post-wave check bails out
                    }
                    if i == 0 && !eof {
                        fill_wave(&mut read_ahead.lock().expect("read-ahead poisoned"));
                    }
                    let chunk = &blocks[i].data[..blocks[i].len];
                    let mut counter = TransitionCount::default();
                    if first_wave && i == 0 {
                        ca.scan_first_into(chunk, &mut counter, mapping);
                    } else {
                        ca.scan_into(chunk, scratch, &mut counter, mapping);
                    }
                    *count = counter.get();
                },
            );
            let read_ahead = read_ahead.into_inner().expect("read-ahead poisoned");

            // A budget trip mid-wave leaves partial slot data: discard
            // the wave and surface the typed error. The ring and the
            // cache stay in place, so the session stays reusable.
            if probe.is_some_and(|p| p.should_stop()) {
                let err = probe
                    .and_then(|p| p.status())
                    .expect("tripped probe reports a status");
                return Err(err.into());
            }
            if first_wave {
                // The first block's mapping moves to its dedicated slot
                // (a pointer swap, so both buffers stay warm).
                std::mem::swap(first, &mut slots[base]);
            }

            // Eager in-order composition of the finished wave: the only
            // mapping that survives it is the composed prefix `acc`. The
            // first two blocks seed `acc` directly (`first ⊙ block`), so
            // `acc`/`tmp` only ever hold composition-shaped mappings and
            // keep their buffers warm across streams; a single-block
            // stream takes its verdict straight from the first slot.
            let compose_start = Instant::now();
            let mut b = 0;
            if first_wave {
                transitions += first.1;
                bytes += cur_wave[0].len as u64;
                blocks_done += 1;
                b = 1;
                if cur_count >= 2 {
                    transitions += slots[cur * wave + 1].1;
                    bytes += cur_wave[1].len as u64;
                    blocks_done += 1;
                    ca.compose_into(&first.0, &slots[cur * wave + 1].0, compose, acc);
                    b = 2;
                }
            }
            while b < cur_count {
                let slot = cur * wave + b;
                transitions += slots[slot].1;
                bytes += cur_wave[b].len as u64;
                blocks_done += 1;
                ca.compose_into(acc, &slots[slot].0, compose, tmp);
                std::mem::swap(acc, tmp);
                b += 1;
            }
            compose_time += compose_start.elapsed();
            first_wave = false;

            if let Some(e) = read_ahead.error {
                return Err(StreamError::Io(e));
            }
            eof |= read_ahead.eof;
            let next_count = read_ahead.filled;

            // A dead prefix rejects every possible continuation: stop
            // reading instead of scanning the rest of the stream. (`acc`
            // is only seeded once two blocks exist; a single-block
            // stream is already at EOF.)
            let prefix_dead = if blocks_done >= 2 {
                ca.mapping_is_dead(acc)
            } else {
                ca.mapping_is_dead(&first.0)
            };
            if prefix_dead && !(eof && next_count == 0) {
                rejected_early = true;
                break;
            }

            cur_count = next_count;
            std::mem::swap(&mut cur_wave, &mut next_wave);
            cur = 1 - cur;
        }

        let accepted = if rejected_early {
            false
        } else if blocks_done == 0 {
            // Empty stream: acceptance of ε via one empty first scan.
            ca.scan_first_into(b"", &mut NoCount, &mut first.0);
            ca.accepts_mapping(&first.0)
        } else if blocks_done == 1 {
            ca.accepts_mapping(&first.0)
        } else {
            ca.accepts_mapping(acc)
        };
        Ok(StreamOutcome {
            accepted,
            bytes,
            blocks: blocks_done,
            transitions,
            elapsed: start.elapsed(),
            compose: compose_time,
            rejected_early,
            kernel: ca.effective_kernel(self.block_size),
        })
    }
}

/// The [`StreamCache`] of a chunk automaton.
type StreamCacheOf<CA> = StreamCache<
    <CA as ChunkAutomaton>::Scratch,
    <CA as ChunkAutomaton>::Mapping,
    <CA as ChunkAutomaton>::ComposeScratch,
>;

/// The warm buffer set for `CA`, rebuilt in place if the session last
/// served a different CA type. `claimants` is the pool's worker count
/// plus the calling thread.
fn stream_cache<CA: ChunkAutomaton>(
    cache: &mut Option<Box<dyn Any + Send>>,
    claimants: usize,
) -> &mut StreamCacheOf<CA> {
    if !cache.as_ref().is_some_and(|c| c.is::<StreamCacheOf<CA>>()) {
        *cache = Some(Box::new(StreamCacheOf::<CA> {
            scratches: (0..claimants).map(|_| CA::Scratch::default()).collect(),
            slots: (0..2 * claimants)
                .map(|_| (CA::Mapping::default(), 0))
                .collect(),
            first: (CA::Mapping::default(), 0),
            acc: CA::Mapping::default(),
            tmp: CA::Mapping::default(),
            compose: CA::ComposeScratch::default(),
        }));
    }
    cache
        .as_mut()
        .and_then(|c| c.downcast_mut())
        .expect("the cache holds this CA type's buffers")
}

/// Fills consecutive blocks of `ra.blocks` until the reader is exhausted
/// or the wave is full, recording the filled-block count and EOF. Runs on
/// whichever claimant takes task 0 of the wave.
///
/// Each block is seeded with the carry left by the previous block's
/// separator snap, then topped up from the reader. EOF is detected from
/// the *raw* read (the reader could not fill the remainder) — a snapped
/// block is legitimately short without being the last one. Full blocks
/// are snapped back to their last separator (when one is configured and
/// present), the severed tail becoming the next block's carry.
fn fill_wave<R: Read>(ra: &mut ReadAhead<'_, R>) {
    for block in ra.blocks.iter_mut() {
        let seed = ra.carry.len();
        debug_assert!(seed < block.data.len(), "carry is always < one block");
        block.data[..seed].copy_from_slice(ra.carry);
        ra.carry.clear();
        match fill_block(ra.reader, &mut block.data[seed..]) {
            Ok(n) => {
                let total = seed + n;
                if total == 0 {
                    ra.eof = true;
                    return;
                }
                if n < block.data.len() - seed {
                    // The reader ran dry mid-block: this is the stream's
                    // final block, emitted whole (never snapped).
                    block.len = total;
                    ra.filled += 1;
                    ra.eof = true;
                    return;
                }
                // A full block: snap back to the last record separator so
                // the next block starts on a record boundary. No
                // separator in the whole block → emit unsnapped.
                block.len = total;
                if let Some(sep) = ra.separator {
                    if let Some(pos) = block.data[..total].iter().rposition(|&b| b == sep) {
                        ra.carry.extend_from_slice(&block.data[pos + 1..total]);
                        block.len = pos + 1;
                    }
                }
                ra.filled += 1;
            }
            Err(e) => {
                ra.error = Some(e);
                ra.eof = true;
                return;
            }
        }
    }
}

/// Reads until `buf` is full or EOF, retrying
/// [`Interrupted`](io::ErrorKind::Interrupted) and accepting arbitrarily
/// short reads (1-byte readers, block-misaligned pipes).
fn fill_block(reader: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csdpa::{recognize, Executor, RidCa};
    use crate::ridfa::construct::tests::figure1_nfa;
    use crate::ridfa::RiDfa;
    use std::io::Cursor;

    #[test]
    fn stream_matches_one_shot_on_figure1_language() {
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let mut session = StreamSession::new(2, 64);
        for pump in [0usize, 1, 3, 100, 1000] {
            let mut text = b"aabcab".repeat(pump);
            for tail in [false, true] {
                if tail {
                    text.push(b'c');
                }
                let expected = recognize(&ca, &text, 4, Executor::Serial).accepted;
                let out = session.recognize_stream(&ca, Cursor::new(&text)).unwrap();
                assert_eq!(out.accepted, expected, "pump {pump} tail {tail}");
            }
        }
    }

    #[test]
    fn empty_stream_is_epsilon() {
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let mut session = StreamSession::new(1, 4096);
        let out = session
            .recognize_stream(&ca, Cursor::new(&b""[..]))
            .unwrap();
        assert_eq!(out.accepted, nfa.accepts(b""));
        assert_eq!(out.bytes, 0);
        assert_eq!(out.blocks, 0);
    }

    #[test]
    fn transitions_match_block_aligned_one_shot() {
        // With block_size = text/2 the stream sees exactly the two chunks
        // of the one-shot device: the tallies must agree.
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let text = b"aabcab";
        let counted = crate::csdpa::recognize_counted(&ca, text, 2, Executor::Serial);
        let mut session = StreamSession::new(1, 3);
        let out = session
            .recognize_stream(&ca, Cursor::new(&text[..]))
            .unwrap();
        assert_eq!(out.transitions, counted.transitions, "Fig. 1 tally");
        assert_eq!(out.blocks, 2);
        assert_eq!(out.accepted, counted.accepted);
    }

    #[test]
    fn early_rejection_stops_reading() {
        // 'z' kills every run immediately; the session must not consume
        // the whole 10 MiB stream.
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let mut text = b"aabcab".repeat(4);
        text.push(b'z');
        text.extend(std::iter::repeat_n(b'a', 10 << 20));
        let mut session = StreamSession::new(2, 4096);
        let out = session.recognize_stream(&ca, Cursor::new(&text)).unwrap();
        assert!(!out.accepted);
        assert!(out.rejected_early);
        assert!(
            out.bytes < text.len() as u64 / 2,
            "read {} of {} bytes",
            out.bytes,
            text.len()
        );
    }

    #[test]
    fn io_errors_propagate() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::ConnectionReset, "gone"))
            }
        }
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let mut session = StreamSession::new(1, 1024);
        let err = session.recognize_stream(&ca, Broken).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // The session survives the error.
        let out = session
            .recognize_stream(&ca, Cursor::new(&b"aabcab"[..]))
            .unwrap();
        assert!(out.accepted);
    }

    #[test]
    fn buffer_accounting_is_constant() {
        let mut session = StreamSession::new(3, 8192);
        let expected = 2 * (session.num_workers() + 1) * 8192;
        assert_eq!(session.buffer_bytes(), expected);
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let text = b"aabcab".repeat(50_000); // ≫ ring capacity
        let out = session.recognize_stream(&ca, Cursor::new(&text)).unwrap();
        assert!(out.accepted);
        assert_eq!(
            session.buffer_bytes(),
            expected,
            "ring must not grow with stream length"
        );
        // Separator snapping keeps its carry outside the ring accounting.
        session.set_separator(Some(b'c'));
        let out = session.recognize_stream(&ca, Cursor::new(&text)).unwrap();
        assert!(out.accepted);
        assert_eq!(session.buffer_bytes(), expected, "carry is not ring memory");
    }

    #[test]
    fn fill_wave_snaps_full_blocks_at_separators() {
        let text = b"aaa bb cccc d eeee ff";
        let mut reader = Cursor::new(&text[..]);
        let mut blocks: Vec<Block> = (0..4)
            .map(|_| Block {
                data: vec![0u8; 8],
                len: 0,
            })
            .collect();
        let mut carry = Vec::new();
        let mut ra = ReadAhead {
            reader: &mut reader,
            blocks: &mut blocks,
            separator: Some(b' '),
            carry: &mut carry,
            filled: 0,
            eof: false,
            error: None,
        };
        fill_wave(&mut ra);
        assert!(ra.eof);
        assert_eq!(ra.filled, 3);
        // Every full (non-final) block ends exactly at a separator…
        assert_eq!(&blocks[0].data[..blocks[0].len], b"aaa bb ");
        assert_eq!(&blocks[1].data[..blocks[1].len], b"cccc d ");
        // …the final block keeps the unsnapped remainder…
        assert_eq!(&blocks[2].data[..blocks[2].len], b"eeee ff");
        // …and no byte is lost or duplicated.
        let total: Vec<u8> = blocks[..3]
            .iter()
            .flat_map(|b| b.data[..b.len].iter().copied())
            .collect();
        assert_eq!(total, text);
        assert!(carry.is_empty());
    }

    #[test]
    fn fill_wave_without_separator_in_block_emits_unsnapped() {
        // No separator anywhere: blocks stay full-length, carry stays
        // empty — the degenerate case must not stall or shrink blocks.
        let text = b"aaaaaaaaaaaaaaaa"; // 2 × 8 bytes
        let mut reader = Cursor::new(&text[..]);
        let mut blocks: Vec<Block> = (0..3)
            .map(|_| Block {
                data: vec![0u8; 8],
                len: 0,
            })
            .collect();
        let mut carry = Vec::new();
        let mut ra = ReadAhead {
            reader: &mut reader,
            blocks: &mut blocks,
            separator: Some(b'\n'),
            carry: &mut carry,
            filled: 0,
            eof: false,
            error: None,
        };
        fill_wave(&mut ra);
        assert_eq!(ra.filled, 2);
        assert_eq!(blocks[0].len, 8);
        assert_eq!(blocks[1].len, 8);
        assert!(carry.is_empty());
    }

    #[test]
    fn separator_snapping_preserves_the_verdict() {
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        let ca = RidCa::new(&rid);
        let mut plain = StreamSession::new(2, 64);
        let mut snapped = StreamSession::new(2, 64);
        snapped.set_separator(Some(b'c'));
        assert_eq!(snapped.separator(), Some(b'c'));
        for pump in [0usize, 1, 3, 50, 400] {
            let mut text = b"aabcab".repeat(pump);
            for tail in [false, true] {
                if tail {
                    text.push(b'c');
                }
                let a = plain.recognize_stream(&ca, Cursor::new(&text)).unwrap();
                let b = snapped.recognize_stream(&ca, Cursor::new(&text)).unwrap();
                assert_eq!(a.accepted, b.accepted, "pump {pump} tail {tail}");
                assert_eq!(a.bytes, b.bytes, "snapping must not drop bytes");
                // Snapped blocks are shorter, never longer: block count
                // can only grow.
                assert!(b.blocks >= a.blocks, "pump {pump} tail {tail}");
            }
        }
    }

    #[test]
    fn stream_outcome_reports_the_effective_kernel() {
        let nfa = figure1_nfa();
        let rid = RiDfa::from_nfa(&nfa);
        // A plain RidCa scans per run, and says so.
        let plain = RidCa::new(&rid);
        let mut session = StreamSession::new(1, 64);
        let text = b"aabcab".repeat(100);
        let out = session
            .recognize_stream(&plain, Cursor::new(&text))
            .unwrap();
        assert_eq!(out.kernel, Some(Kernel::PerRun));
        // A configured kernel reports what its dispatch resolves to for
        // the block size — a pinned kernel comes back verbatim.
        let conv = RidCa::new(&rid).with_kernel(Kernel::LockstepShared);
        let out = session.recognize_stream(&conv, Cursor::new(&text)).unwrap();
        assert_eq!(out.kernel, Some(Kernel::LockstepShared));
        assert_eq!(out.accepted, nfa.accepts(&text));
    }
}
