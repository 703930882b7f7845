//! Bounded-memory streaming recognition: validate a text of *any* length
//! — a multi-GB log file, a network pipe, stdin — without ever holding it
//! in memory.
//!
//! Every other recognition path ([`recognize`](super::recognize),
//! [`Session`]) needs the whole text resident and buffers all `c` chunk
//! mappings before the join. A [`StreamSession`] instead exploits the
//! associativity of λ-composition ([`ChunkAutomaton::compose_into`]):
//! the join is an **incremental left fold**, so only the composed
//! prefix mapping has to survive from one wave to the next, and blocks
//! can be scanned as they arrive.
//!
//! A stream session is a [`Session`] plus a block ring. The execution
//! shape is a double-buffered wave pipeline:
//!
//! * the text is read in fixed-size **blocks** into a ring of
//!   `2 × (workers + 1)` reusable buffers — live buffer memory is
//!   `O(workers · block_size)` regardless of stream length
//!   ([`StreamSession::buffer_bytes`] accounts for it exactly);
//! * each wave is one reach phase of the session (so a wave starts with
//!   the configured workers, any dead one respawned), with one task per
//!   block of the current wave, and task 0 **reads the next wave** into
//!   the other half of the ring before its scan — I/O overlaps the other
//!   blocks' scans. The read-ahead state sits behind a lock only task 0
//!   takes, so the wave needs no `unsafe`;
//! * after each wave the session's [`JoinScratch`](super::JoinScratch)
//!   **eagerly composes** the finished mappings onto the running prefix
//!   *in arrival order*: a stream of any length holds one mapping slot
//!   per block of a wave plus the fold's two — there is no O(c) buffered
//!   join barrier;
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
//!
//! The [`PatternRegistry`](super::PatternRegistry) streams every pattern
//! through the pattern's own session and one block ring shared by all
//! patterns.

use std::io::{self, Read};
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::parallel::{PoolHealth, ThreadPool};

use super::budget::{run_budgeted, Budget, InterruptProbe, StreamError};
use super::{ChunkAutomaton, Kernel, Session};

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

/// The block ring of a stream: two waves of one fixed-size block per
/// reach-phase claimant, the record separator blocks are snapped to, and
/// the carry the snapping leaves. Its buffers are allocated once, so a
/// ring serves any number of streams — of one session, or of every
/// pattern of a registry.
pub(crate) struct BlockRing {
    /// `2 × claimants` fixed-size buffers.
    blocks: Vec<Block>,
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
    /// A ring for `claimants` reach-phase claimants of `block_size`-byte
    /// (≥ 1) blocks.
    pub(crate) fn new(claimants: usize, block_size: usize) -> BlockRing {
        let block_size = block_size.max(1);
        BlockRing {
            blocks: (0..2 * claimants)
                .map(|_| Block {
                    data: vec![0u8; block_size],
                    len: 0,
                })
                .collect(),
            separator: None,
            // Worst-case carry is one byte short of a block; reserving it
            // here keeps every stream allocation-free.
            carry: Vec::with_capacity(block_size),
        }
    }

    fn block_size(&self) -> usize {
        self.blocks[0].data.len()
    }
}

/// State of the read-ahead, which task 0 of every wave runs.
struct ReadAhead<'a, R> {
    reader: &'a mut R,
    blocks: &'a mut [Block],
    /// Snap full blocks back to their last occurrence of this byte
    /// (record separator); the cut-off tail rides in `carry`.
    separator: Option<u8>,
    /// Bytes deferred past the previous block's snap point, to seed the
    /// next block. Always shorter than one block; owned by the ring so
    /// it survives across waves.
    carry: &'a mut Vec<u8>,
    /// Blocks of the next wave holding at least one byte.
    filled: usize,
    eof: bool,
    error: Option<io::Error>,
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
    /// in `block_size`-byte (≥ 1) blocks. The calling thread participates
    /// in every wave, so scan parallelism is `num_workers + 1` and the
    /// block ring holds `2 × (num_workers + 1)` buffers; with zero
    /// workers the caller reads and scans one block per wave.
    pub fn new(num_workers: usize, block_size: usize) -> StreamSession {
        StreamSession::with_shared_pool(
            std::sync::Arc::new(ThreadPool::new(num_workers)),
            block_size,
        )
    }

    /// Creates a stream session on a pool shared with other sessions
    /// (the multi-pattern registry shape: one pool, many warm sessions).
    /// Waves from different sessions serialize on the pool's single
    /// scope slot; each session keeps its own block ring and caches.
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
        self.ring.blocks.iter().map(|b| b.data.capacity()).sum()
    }

    /// Number of live λ-mapping slots a stream of any length uses: one
    /// per block of a wave (half the ring) and the join fold's two.
    pub fn live_mappings(&self) -> usize {
        self.ring.blocks.len() / 2 + 2
    }

    /// Pre-warms the session's per-worker scratches, one mapping slot per
    /// block of a wave and the join fold against `ca` so the next
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
    /// retried. Any other I/O error aborts recognition and is returned.
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
    /// tripped probe fails the stream after its wave, so expiry is
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
        run_budgeted(budget, |probe| {
            stream(&mut self.session, &mut self.ring, ca, reader, probe)
        })
    }
}

/// Recognizes the `reader` stream through `session` and `ring`: each wave
/// of blocks is one [`Session::reach`] (whose task 0 reads the next
/// wave), and the session's join fold composes every finished wave onto
/// the running prefix. `probe` is the only difference between the plain
/// and the budgeted path.
pub(crate) fn stream<CA, R>(
    session: &mut Session,
    ring: &mut BlockRing,
    ca: &CA,
    mut reader: R,
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
        separator,
        carry,
    } = ring;
    let separator = *separator;
    // Stale carry from an aborted stream must not leak into this one.
    carry.clear();
    let half = blocks.len() / 2;
    let (mut cur_wave, mut next_wave) = blocks.split_at_mut(half);

    // Prologue: the first wave is read on the caller (nothing to overlap
    // with yet).
    let mut prologue = ReadAhead {
        reader: &mut reader,
        blocks: &mut *cur_wave,
        separator,
        carry: &mut *carry,
        filled: 0,
        eof: false,
        error: None,
    };
    fill_wave(&mut prologue);
    let mut eof = prologue.eof;
    let mut count = prologue.filled;
    if let Some(e) = prologue.error {
        return Err(StreamError::Io(e));
    }

    let tally = AtomicU64::new(0);
    let mut compose = Duration::ZERO;
    let mut bytes = 0u64;
    let mut blocks_done = 0u64;
    let mut first_wave = true;
    let (accepted, rejected_early) = loop {
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
        let wave = &cur_wave[..count];
        let task = |i: usize| {
            if i == 0 && !eof {
                fill_wave(&mut read_ahead.lock().expect("read-ahead poisoned"));
            }
            (&wave[i].data[..wave[i].len], first_wave && i == 0)
        };
        // An empty stream runs one empty wave: its reach still heals the
        // pool and hands over the join fold.
        let (mappings, fold) = session.reach(ca, count, task, probe, Some(&tally))?;
        let read_ahead = read_ahead.into_inner().expect("read-ahead poisoned");

        // Eager in-order composition of the finished wave: only the
        // fold's prefix survives it.
        let compose_start = Instant::now();
        if first_wave {
            fold.start();
        }
        for (mapping, block) in mappings.iter_mut().zip(wave) {
            fold.push(ca, mapping);
            bytes += block.len as u64;
        }
        blocks_done += count as u64;
        compose += compose_start.elapsed();
        first_wave = false;

        if let Some(e) = read_ahead.error {
            return Err(StreamError::Io(e));
        }
        eof |= read_ahead.eof;
        count = read_ahead.filled;
        if count == 0 {
            break (fold.accepts(ca), false);
        }
        // A dead prefix rejects every possible continuation: stop
        // reading instead of scanning the rest of the stream.
        if fold.is_dead() {
            break (false, true);
        }
        std::mem::swap(&mut cur_wave, &mut next_wave);
    };
    Ok(StreamOutcome {
        accepted,
        bytes,
        blocks: blocks_done,
        transitions: tally.into_inner(),
        elapsed: start.elapsed(),
        compose,
        rejected_early,
        kernel: ca.effective_kernel(block_size),
    })
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
