//! Bounded-memory streaming recognition: validate a text of *any* length
//! — a multi-GB log file, a network pipe, stdin — without ever holding it
//! in memory.
//!
//! Every other recognition path ([`recognize`](super::recognize),
//! [`Session`]) needs the whole text resident and buffers all `c` chunk
//! mappings before the join. A [`StreamSession`] instead exploits the
//! associativity of λ-composition ([`ChunkAutomaton::compose_into`]):
//! the join is an **incremental left fold**, so only the composed
//! prefix mapping has to survive from one block to the next, and blocks
//! can be scanned as they arrive.
//!
//! A stream session is a [`Session`] plus a block ring, and a stream is
//! **one pool batch** in which every claimant (the pool's workers and
//! the caller) runs the same claim loop until the stream ends:
//!
//! * the text is read in fixed-size **blocks** into a ring of
//!   `2 × (workers + 1)` reusable buffers — live buffer memory is
//!   `O(workers · block_size)` regardless of stream length
//!   ([`StreamSession::buffer_bytes`] accounts for it exactly);
//! * a claimant takes the next block number under the reader lock,
//!   waits until the ring slot's previous block has been folded, and
//!   fills the slot from the reader (carry and separator snapping
//!   included), so every claimant reads its own blocks and the reads
//!   stay in stream order;
//! * it scans the block outside the reader lock into the slot's mapping,
//!   while the other claimants read and scan theirs: a claimant that
//!   finishes early takes another block at once, up to a ring ahead of
//!   the oldest block still being scanned, with no barrier between
//!   blocks;
//! * it then **eagerly folds** every consecutive scanned block onto the
//!   session's [`JoinScratch`] *in stream order* and frees their slots:
//!   a stream of any length holds one mapping slot per ring block plus
//!   the fold's two — there is no O(c) buffered join barrier;
//! * a composed prefix with no surviving run
//!   ([`ChunkAutomaton::mapping_is_dead`]) rejects the entire stream, so
//!   no claimant takes another block: the session stops reading
//!   **early** instead of scanning gigabytes of doomed suffix. A tripped
//!   budget or a reader error stops the claims the same way, and a
//!   claimant that unwinds (a panicking automaton) wakes every claimant
//!   waiting for a slot, so the panic reaches the caller.
//!
//! The verdict, the executed transitions and the byte/block counts of
//! the folded blocks are delivered at EOF as a [`StreamOutcome`]; which
//! claimant scanned which block does not change them. Once warm, a
//! stream session performs **zero heap allocations per block** (asserted
//! by `tests/stream_alloc.rs` with a counting allocator).
//!
//! The [`PatternRegistry`](super::PatternRegistry) streams every pattern
//! through the pattern's own session and one block ring shared by all
//! patterns.

use std::io::{self, Read};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::parallel::{PoolHealth, ThreadPool};

use super::budget::{run_budgeted, Budget, InterruptProbe, StreamError};
use super::{recognizer, ChunkAutomaton, JoinScratch, Kernel, Session};

/// Ring blocks per claimant: one being scanned and one read ahead, on
/// average, so a fast claimant need not wait for a slow one.
pub(crate) const BLOCKS_PER_CLAIMANT: usize = 2;

/// Result of a streaming recognition.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Did the device accept the stream?
    pub accepted: bool,
    /// Bytes of the blocks folded into the verdict: the whole stream at
    /// EOF; on [`rejected_early`](StreamOutcome::rejected_early), the
    /// blocks through the one at which the prefix died. Claimants may
    /// have *consumed* up to a ring of blocks more from the reader (and
    /// the session reads one more block to learn whether input remains),
    /// so it is not a resume offset for the underlying reader.
    pub bytes: u64,
    /// Blocks folded into the verdict — the blocks
    /// [`bytes`](StreamOutcome::bytes) counts.
    pub blocks: u64,
    /// Executed transitions of the folded blocks' scans (the paper's
    /// workload measure, as in
    /// [`CountedOutcome`](super::CountedOutcome)): the one-shot counted
    /// recognition of the same bytes over the same block cuts tallies
    /// the same. Blocks scanned ahead of a dead prefix are not counted.
    pub transitions: u64,
    /// Wall time of the whole stream (read + scan + fold).
    pub elapsed: Duration,
    /// Time the claimants spent folding scanned blocks onto the prefix,
    /// summed (the streaming equivalent of the join phase; a fold runs on
    /// the claimant that finished a block, overlapping other scans).
    pub compose: Duration,
    /// `true` when the composed prefix died while input remained past
    /// the block at which it died, so the session stopped reading — the
    /// verdict is a definite rejection. A prefix that dies in the
    /// stream's last block is a plain rejection (`false`).
    pub rejected_early: bool,
    /// The scan strategy the interior block scans actually executed,
    /// resolved through [`ChunkAutomaton::effective_kernel`] for the
    /// session's nominal block size (separator-snapped blocks may run
    /// slightly shorter). `None` when the CA does not scan through the
    /// lockstep kernel.
    pub kernel: Option<Kernel>,
}

/// What a ring slot's scanned block leaves for the fold.
#[derive(Clone, Copy)]
struct Scanned {
    /// The block's number in its stream; [`Scanned::NONE`] once a new
    /// stream starts.
    block: u64,
    /// The block's length in bytes.
    len: usize,
    /// Executed transitions of its scan.
    transitions: u64,
}

impl Scanned {
    /// A slot holding no block of the current stream.
    const NONE: Scanned = Scanned {
        block: u64::MAX,
        len: 0,
        transitions: 0,
    };
}

/// The block ring of a stream: [`BLOCKS_PER_CLAIMANT`] fixed-size blocks
/// per claimant of the session's pool, what each slot's scanned block
/// leaves for the fold, the record separator blocks are snapped to, and
/// the carry the snapping leaves. Everything is allocated once, so a ring
/// serves any number of streams — of one session, or of every pattern of
/// a registry.
pub(crate) struct BlockRing {
    /// The block buffers, each locked by the claimant that fills and
    /// scans its block.
    blocks: Vec<Mutex<Vec<u8>>>,
    /// Per slot, its scanned block awaiting the fold.
    scanned: Vec<Scanned>,
    /// Record separator for boundary snapping
    /// ([`StreamSession::set_separator`]); `None` = plain length-based
    /// blocks.
    pub(crate) separator: Option<u8>,
    /// The snapped-off tail of the previous block, seeding the next one.
    /// Lives outside the ring so [`StreamSession::buffer_bytes`] keeps
    /// its exact `ring × block_size` accounting.
    carry: Vec<u8>,
}

impl BlockRing {
    /// A ring for `claimants` claimants of `block_size`-byte (≥ 1)
    /// blocks.
    pub(crate) fn new(claimants: usize, block_size: usize) -> BlockRing {
        let block_size = block_size.max(1);
        let slots = BLOCKS_PER_CLAIMANT * claimants;
        BlockRing {
            blocks: (0..slots)
                .map(|_| Mutex::new(vec![0u8; block_size]))
                .collect(),
            scanned: vec![Scanned::NONE; slots],
            separator: None,
            // Worst-case carry is one byte short of a block; reserving it
            // here keeps every stream allocation-free.
            carry: Vec::with_capacity(block_size),
        }
    }

    fn block_size(&self) -> usize {
        lock(&self.blocks[0]).len()
    }
}

/// A persistent streaming recognition session: a [`Session`] (worker
/// pool, warm per-worker scan scratches, mapping slots and join fold)
/// plus a block ring.
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
    session: Session,
    ring: BlockRing,
}

impl StreamSession {
    /// Creates a stream session with `num_workers` pool workers reading
    /// in `block_size`-byte (≥ 1) blocks. The calling thread claims
    /// blocks too, so scan parallelism is `num_workers + 1` and the block
    /// ring holds `2 × (num_workers + 1)` buffers; with zero workers the
    /// caller reads, scans and folds one block after another.
    pub fn new(num_workers: usize, block_size: usize) -> StreamSession {
        StreamSession::with_shared_pool(
            std::sync::Arc::new(ThreadPool::new(num_workers)),
            block_size,
        )
    }

    /// Creates a stream session on a pool shared with other sessions
    /// (the multi-pattern registry shape: one pool, many warm sessions).
    /// A stream is one batch on the pool, so it holds the pool's single
    /// scope slot for its whole length: recognitions of other sessions
    /// on the same pool wait until it ends. Each session keeps its own
    /// block ring and caches.
    pub fn with_shared_pool(pool: std::sync::Arc<ThreadPool>, block_size: usize) -> StreamSession {
        StreamSession {
            ring: BlockRing::new(pool.num_workers() + 1, block_size),
            session: Session::with_shared_pool(pool),
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
        self.ring.separator = sep;
    }

    /// The record separator blocks are snapped to, if any.
    pub fn separator(&self) -> Option<u8> {
        self.ring.separator
    }

    /// Number of pool workers (excluding the participating caller).
    pub fn num_workers(&self) -> usize {
        self.session.num_workers()
    }

    /// The session's worker pool, for health inspection and fault
    /// injection in tests.
    pub fn pool(&self) -> &ThreadPool {
        self.session.pool()
    }

    /// Worker-pool health after the most recent heal pass.
    pub fn health(&self) -> PoolHealth {
        self.session.health()
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.ring.block_size()
    }

    /// Number of block buffers in the ring
    /// (`2 × (`[`num_workers`](StreamSession::num_workers)` + 1)`).
    pub fn ring_blocks(&self) -> usize {
        self.ring.blocks.len()
    }

    /// Exact bytes held by the block ring — the session's text-buffer
    /// footprint, **independent of stream length**:
    /// [`ring_blocks`](StreamSession::ring_blocks)` × `
    /// [`block_size`](StreamSession::block_size).
    pub fn buffer_bytes(&self) -> usize {
        self.ring.blocks.iter().map(|b| lock(b).capacity()).sum()
    }

    /// Number of live λ-mapping slots a stream of any length uses: one
    /// per ring block and the join fold's two.
    pub fn live_mappings(&self) -> usize {
        self.ring.blocks.len() + 2
    }

    /// Pre-warms the session's per-worker scratches, one mapping slot per
    /// ring block and the join fold against `ca` so the next
    /// [`recognize_stream`](StreamSession::recognize_stream) runs
    /// allocation-free from its first block, whichever worker claims it.
    /// As in [`Session::warm`], a sample shorter than the lockstep
    /// kernel's floor is repeated to it, so every worker's kernel scratch
    /// is sized even by a few-byte sample.
    pub fn warm<CA: ChunkAutomaton>(&mut self, ca: &CA, sample: &[u8]) {
        self.session.warm(ca, sample);
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
    /// retried. Any other I/O error aborts recognition and is returned,
    /// unless the prefix has already died: its rejection stands. A panic
    /// escaping the chunk automaton unwinds to the caller once every
    /// claimant has stopped, and the session stays usable.
    pub fn recognize_stream<CA, R>(&mut self, ca: &CA, reader: R) -> io::Result<StreamOutcome>
    where
        CA: ChunkAutomaton,
        R: Read + Send,
    {
        match stream(&mut self.session, &mut self.ring, ca, reader, None) {
            Ok(out) => Ok(out),
            Err(StreamError::Io(e)) => Err(e),
            Err(other) => unreachable!("unbudgeted stream cannot be interrupted: {other}"),
        }
    }

    /// Like [`StreamSession::recognize_stream`] but bounded by `budget`:
    /// the deadline/cancellation probe is checked at every block claim
    /// and once per classification block inside kernel scans, and a
    /// tripped probe stops further claims and fails the stream once the
    /// blocks in flight end, so expiry is noticed within one block. On
    /// any error — typed interruption or reader I/O failure — the
    /// session remains fully reusable and the block ring does not grow
    /// ([`StreamSession::buffer_bytes`] is unchanged). Panics escaping
    /// the chunk automaton are trapped and surfaced as
    /// [`StreamError::Panicked`].
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
        run_budgeted(budget, |probe| {
            stream(&mut self.session, &mut self.ring, ca, reader, probe)
        })
    }
}

/// Recognizes the `reader` stream through `session` and `ring`: one
/// batch on the session's pool, in which every claimant runs
/// [`Pipeline::claim_loop`] over the session's scratches, ring mapping
/// slots and join fold. `probe` is the only difference between the plain
/// and the budgeted path.
pub(crate) fn stream<CA, R>(
    session: &mut Session,
    ring: &mut BlockRing,
    ca: &CA,
    reader: R,
    probe: Option<&InterruptProbe>,
) -> Result<StreamOutcome, StreamError>
where
    CA: ChunkAutomaton,
    R: Read + Send,
{
    let start = Instant::now();
    let block_size = ring.block_size();
    let BlockRing {
        blocks,
        scanned,
        separator,
        carry,
    } = ring;
    // Stale carry and slot records from an aborted stream must not leak
    // into this one.
    carry.clear();
    scanned.fill(Scanned::NONE);
    let parts = session.stream_parts::<CA>(blocks.len());
    parts.join.start();
    let pipeline = Pipeline {
        ca,
        probe,
        blocks,
        mappings: parts.mappings,
        feed: Mutex::new(Feed {
            reader,
            separator: *separator,
            carry,
            claimed: 0,
            end: None,
            error: None,
        }),
        fold: Mutex::new(Fold {
            join: parts.join,
            scanned,
            folded: 0,
            bytes: 0,
            transitions: 0,
            compose: Duration::ZERO,
            waiting: 0,
        }),
        freed: Condvar::new(),
        halted: AtomicBool::new(false),
    };
    // One claim loop per claimant. The batch's head heals the pool, so
    // even an empty stream starts with every worker alive; a claimant
    // that arrives after the stream has ended returns at once.
    let claimants = parts.pool.num_workers() + 1;
    parts
        .pool
        .invoke_all_scoped(claimants, parts.scratches, |scratch, _| {
            pipeline.claim_loop(scratch)
        });
    if let Some(err) = probe.and_then(|p| p.status()) {
        return Err(err.into());
    }

    let Pipeline { feed, fold, .. } = pipeline;
    let mut feed = feed.into_inner().unwrap_or_else(PoisonError::into_inner);
    let fold = fold.into_inner().unwrap_or_else(PoisonError::into_inner);
    let (accepted, rejected_early) = if fold.join.is_dead() {
        // Input remains past the block the prefix died in if the reader
        // gave, or gives, another byte — or failed to say it had none.
        let remains = match feed.end {
            Some(end) => fold.folded < end,
            None if feed.error.is_some() || feed.claimed > fold.folded => true,
            None => feed
                .fill(&mut lock(&blocks[0]))
                .map_or(true, |(len, _)| len > 0),
        };
        (false, remains)
    } else if let Some(e) = feed.error {
        return Err(StreamError::Io(e));
    } else {
        debug_assert_eq!(feed.end, Some(fold.folded), "every block is folded");
        (fold.join.accepts(ca), false)
    };
    Ok(StreamOutcome {
        accepted,
        bytes: fold.bytes,
        blocks: fold.folded,
        transitions: fold.transitions,
        elapsed: start.elapsed(),
        compose: fold.compose,
        rejected_early,
        kernel: ca.effective_kernel(block_size),
    })
}

/// The shared state of one stream's batch.
struct Pipeline<'a, CA: ChunkAutomaton, R> {
    ca: &'a CA,
    probe: Option<&'a InterruptProbe>,
    /// The ring's block buffers.
    blocks: &'a [Mutex<Vec<u8>>],
    /// The session's mapping slots, one per ring block.
    mappings: &'a [Mutex<CA::Mapping>],
    /// The reader side, locked to claim and fill a block.
    feed: Mutex<Feed<'a, R>>,
    /// The fold side, locked to fold scanned blocks or to wait for a
    /// slot.
    fold: Mutex<Fold<'a, CA::Mapping, CA::ComposeScratch>>,
    /// Signalled when the fold frees slots a claimant waits for, or the
    /// pipeline halts.
    freed: Condvar,
    /// Set once no further block may be claimed: the prefix died, the
    /// budget tripped, the reader failed or a claimant unwound.
    halted: AtomicBool,
}

/// The reader side of a stream.
struct Feed<'a, R> {
    reader: R,
    /// Snap full blocks back to their last occurrence of this byte
    /// (record separator); the cut-off tail rides in `carry`.
    separator: Option<u8>,
    /// Bytes deferred past the previous block's snap point, to seed the
    /// next block. Always shorter than one block; owned by the ring.
    carry: &'a mut Vec<u8>,
    /// Blocks claimed so far: the number of the next one.
    claimed: u64,
    /// The stream's block count, once the reader has run dry.
    end: Option<u64>,
    /// The reader's error, which stopped the claims.
    error: Option<io::Error>,
}

/// The fold side of a stream.
struct Fold<'a, M, C> {
    join: &'a mut JoinScratch<M, C>,
    /// The ring's per-slot records of scanned blocks.
    scanned: &'a mut [Scanned],
    /// Blocks folded so far: the number of the next one to fold.
    folded: u64,
    /// Bytes of the folded blocks.
    bytes: u64,
    /// Executed transitions of the folded blocks' scans.
    transitions: u64,
    /// Time spent folding.
    compose: Duration,
    /// Claimants waiting on [`Pipeline::freed`] for a slot.
    waiting: usize,
}

impl<CA, R> Pipeline<'_, CA, R>
where
    CA: ChunkAutomaton,
    R: Read + Send,
{
    /// One claimant's part of the stream: claim and fill a block, scan
    /// it, fold what it completes, until the stream ends or halts.
    fn claim_loop(&self, scratch: &mut CA::Scratch) {
        let _halt = HaltOnUnwind(self);
        while let Some((block, data, len)) = self.claim() {
            let at = self.slot(block);
            let tally = AtomicU64::new(0);
            recognizer::scan_task(
                self.ca,
                || (&data[..len], block == 0),
                scratch,
                &mut lock(&self.mappings[at]),
                self.probe,
                Some(&tally),
            );
            drop(data);
            if self.probe.is_some_and(|p| p.status().is_some()) {
                // The scan was abandoned: its mapping must not be folded.
                self.halt();
                return;
            }
            let mut fold = lock(&self.fold);
            fold.scanned[at] = Scanned {
                block,
                len,
                transitions: tally.into_inner(),
            };
            let before = fold.folded;
            let dead = fold.fold_scanned(self.ca, self.mappings);
            let wake = fold.waiting > 0 && fold.folded > before;
            drop(fold);
            if dead {
                self.halt();
            } else if wake {
                self.freed.notify_all();
            }
        }
    }

    /// Claims the next block and fills its slot, under the reader lock:
    /// returns the block's number, its locked buffer and its length, or
    /// `None` once the stream has ended or halted.
    fn claim(&self) -> Option<(u64, MutexGuard<'_, Vec<u8>>, usize)> {
        let mut feed = lock(&self.feed);
        if self.halted.load(Ordering::Relaxed) || feed.end.is_some() {
            return None;
        }
        if self.probe.is_some_and(|p| p.should_stop()) {
            self.halt();
            return None;
        }
        let block = feed.claimed;
        // The slot's previous block must be folded before it is refilled.
        let ring = self.blocks.len() as u64;
        let mut fold = lock(&self.fold);
        while fold.folded + ring <= block {
            if self.halted.load(Ordering::Relaxed) {
                return None;
            }
            fold.waiting += 1;
            fold = self
                .freed
                .wait(fold)
                .unwrap_or_else(PoisonError::into_inner);
            fold.waiting -= 1;
        }
        drop(fold);
        let mut data = lock(&self.blocks[self.slot(block)]);
        match feed.fill(&mut data) {
            Ok((0, _)) => {
                feed.end = Some(block);
                None
            }
            Ok((len, last)) => {
                feed.claimed += 1;
                if last {
                    feed.end = Some(feed.claimed);
                }
                Some((block, data, len))
            }
            Err(e) => {
                feed.error = Some(e);
                self.halt();
                None
            }
        }
    }

    /// The ring slot of `block`.
    fn slot(&self, block: u64) -> usize {
        (block % self.blocks.len() as u64) as usize
    }

    /// Stops further claims and wakes every claimant waiting for a slot.
    /// The caller must not hold the fold lock.
    fn halt(&self) {
        self.halted.store(true, Ordering::Relaxed);
        // Taking the fold lock orders the flag before the wake-up: a
        // claimant checks it under that lock before it waits.
        drop(lock(&self.fold));
        self.freed.notify_all();
    }
}

/// Halts its claimant's pipeline if the claimant unwinds, so no other
/// claimant waits for a slot whose block will never be folded.
struct HaltOnUnwind<'p, 'a, CA: ChunkAutomaton, R: Read + Send>(&'p Pipeline<'a, CA, R>);

impl<CA: ChunkAutomaton, R: Read + Send> Drop for HaltOnUnwind<'_, '_, CA, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.halt();
        }
    }
}

impl<M, C> Fold<'_, M, C> {
    /// Folds every scanned block that continues the prefix onto it, in
    /// stream order, freeing their slots, and stops at a dead prefix.
    /// Returns whether the prefix is dead.
    fn fold_scanned<CA>(&mut self, ca: &CA, mappings: &[Mutex<M>]) -> bool
    where
        CA: ChunkAutomaton<Mapping = M, ComposeScratch = C>,
    {
        let start = Instant::now();
        let ring = self.scanned.len() as u64;
        while !self.join.is_dead() {
            let at = (self.folded % ring) as usize;
            let scanned = self.scanned[at];
            if scanned.block != self.folded {
                break;
            }
            self.join.push(ca, &mut lock(&mappings[at]));
            self.bytes += scanned.len as u64;
            self.transitions += scanned.transitions;
            self.folded += 1;
        }
        self.compose += start.elapsed();
        self.join.is_dead()
    }
}

impl<R: Read> Feed<'_, R> {
    /// Fills `block` with the stream's next block: the carry the previous
    /// block's separator snap left, topped up from the reader. Returns
    /// the block's length (0 once the stream has ended) and whether the
    /// reader ran dry filling it, which makes it the final block.
    ///
    /// The final block is detected from the *raw* read (the reader could
    /// not fill the remainder) — a snapped block is legitimately short
    /// without being the last one — and is emitted whole. A full block is
    /// snapped back to its last separator (when one is configured and
    /// present), the severed tail becoming the next block's carry; with
    /// no separator in the whole block it is emitted unsnapped.
    fn fill(&mut self, block: &mut [u8]) -> io::Result<(usize, bool)> {
        let seed = self.carry.len();
        debug_assert!(seed < block.len(), "carry is always < one block");
        block[..seed].copy_from_slice(self.carry);
        self.carry.clear();
        let n = read_full(&mut self.reader, &mut block[seed..])?;
        if n < block.len() - seed {
            return Ok((seed + n, true));
        }
        if let Some(sep) = self.separator {
            if let Some(pos) = block.iter().rposition(|&b| b == sep) {
                self.carry.extend_from_slice(&block[pos + 1..]);
                return Ok((pos + 1, false));
            }
        }
        Ok((block.len(), false))
    }
}

/// Reads until `buf` is full or EOF, retrying
/// [`Interrupted`](io::ErrorKind::Interrupted) and accepting arbitrarily
/// short reads (1-byte readers, block-misaligned pipes).
fn read_full(reader: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
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

/// Locks `mutex`, ignoring poison: a claimant that unwound leaves a
/// block buffer, a mapping slot or the pipeline state half-written, and
/// the next stream rewrites all of them before reading them.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
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

    /// Fills consecutive `size`-byte blocks from `text` until the stream
    /// ends, as the claimants do; returns each block's bytes and whether
    /// it was flagged final, and the carry left behind.
    fn fill_all(
        text: &[u8],
        size: usize,
        separator: Option<u8>,
    ) -> (Vec<(Vec<u8>, bool)>, Vec<u8>) {
        let mut carry = Vec::new();
        let mut feed = Feed {
            reader: Cursor::new(text),
            separator,
            carry: &mut carry,
            claimed: 0,
            end: None,
            error: None,
        };
        let mut block = vec![0u8; size];
        let mut blocks = Vec::new();
        loop {
            let (len, last) = feed.fill(&mut block).unwrap();
            if len == 0 {
                break;
            }
            blocks.push((block[..len].to_vec(), last));
            if last {
                break;
            }
        }
        (blocks, carry)
    }

    #[test]
    fn fill_block_snaps_full_blocks_at_separators() {
        let text = b"aaa bb cccc d eeee ff";
        let (blocks, carry) = fill_all(text, 8, Some(b' '));
        // Every full (non-final) block ends exactly at a separator, and
        // the final block keeps the unsnapped remainder…
        assert_eq!(
            blocks,
            [
                (b"aaa bb ".to_vec(), false),
                (b"cccc d ".to_vec(), false),
                (b"eeee ff".to_vec(), true),
            ]
        );
        // …and no byte is lost or duplicated.
        let total: Vec<u8> = blocks.iter().flat_map(|(b, _)| b.clone()).collect();
        assert_eq!(total, text);
        assert!(carry.is_empty());
    }

    #[test]
    fn fill_block_without_separator_emits_unsnapped() {
        // No separator anywhere: blocks stay full-length, carry stays
        // empty — the degenerate case must not stall or shrink blocks.
        // The reader's end shows on the read after the last full block.
        let text = b"aaaaaaaaaaaaaaaa"; // 2 × 8 bytes
        let (blocks, carry) = fill_all(text, 8, Some(b'\n'));
        assert_eq!(blocks.len(), 2);
        assert!(blocks.iter().all(|(b, last)| b.len() == 8 && !last));
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
