//! Integration tests of the streaming layer: a `StreamSession` over an
//! adversarial `Read` implementation (1-byte reads, block-misaligned
//! partial reads, `Interrupted` retries) must agree with one-shot
//! `recognize` for all six chunk automata across block sizes and worker
//! counts, every stream, block and counted lane must agree over the
//! edge cuts of the block ring, the pipelined claimants must reach the
//! serial outcome however far they read ahead — and a ≥ 256 MiB
//! generated record stream must be recognized with buffer memory
//! provably independent of stream length.

use std::io::{self, Cursor, Read};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ridfa::automata::counter::Counter;
use ridfa::automata::dfa::{minimize, powerset};
use ridfa::core::csdpa::{
    recognize, recognize_counted, ChunkAutomaton, DfaCa, EnginePlan, Executor, FeasibleTable,
    Kernel, NfaCa, PatternRegistry, RegistryConfig, RidCa, Session, StreamScan, StreamSession,
};
use ridfa::core::ridfa::RiDfa;
use ridfa::core::sfa::{Sfa, SfaCa};
use ridfa::workloads::regen::{random_ast, sample_into, RegenConfig};
use ridfa::workloads::traffic;

use rand::rngs::{SmallRng, StdRng};
use rand::{Rng, SeedableRng};

/// An adversarial reader: hands the wrapped bytes out in a rotating
/// schedule of 1-byte reads, short block-misaligned reads, and
/// `ErrorKind::Interrupted` failures that a conforming consumer must
/// retry.
struct FussyReader<'a> {
    data: &'a [u8],
    pos: usize,
    step: usize,
}

impl<'a> FussyReader<'a> {
    fn new(data: &'a [u8]) -> FussyReader<'a> {
        FussyReader {
            data,
            pos: 0,
            step: 0,
        }
    }
}

impl Read for FussyReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.step += 1;
        if self.step.is_multiple_of(5) {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "try again"));
        }
        let remaining = self.data.len() - self.pos;
        if remaining == 0 || buf.is_empty() {
            return Ok(0);
        }
        // Rotate through 1-byte, 3-byte, 7-byte, and near-full reads so
        // block boundaries never align with read boundaries.
        let want = match self.step % 4 {
            0 => 1,
            1 => 3,
            2 => 7,
            _ => buf.len().saturating_sub(1).max(1),
        };
        let n = want.min(remaining).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn stream_matches_one_shot_for_all_six_cas_on_random_cases() {
    let config = RegenConfig {
        alphabet: b"ab".to_vec(),
        max_depth: 3,
        max_width: 3,
        star_percent: 35,
    };
    let mut rng = StdRng::seed_from_u64(0x57E4);
    for seed in 0..16u64 {
        let ast = random_ast(&config, seed);
        let nfa = ridfa::automata::nfa::glushkov::build(&ast).unwrap();
        let dfa = minimize::minimize(&powerset::determinize(&nfa));
        let rid = RiDfa::from_nfa(&nfa).minimized();
        let sfa = Sfa::build_limited(&dfa, 1 << 14).ok();

        let mut sampler = SmallRng::seed_from_u64(seed ^ 0xBEEF);
        let mut text = Vec::new();
        for _ in 0..rng.gen_range(1..6usize) {
            sample_into(&ast, &mut sampler, &mut text);
        }
        if rng.gen_ratio(1, 2) && !text.is_empty() {
            let i = rng.gen_range(0..text.len());
            text[i] = if text[i] == b'a' { b'b' } else { b'a' };
        }

        let dfa_ca = DfaCa::new(&dfa);
        let nfa_ca = NfaCa::new(&nfa);
        let rid_ca = RidCa::new(&rid);
        let conv_dfa = DfaCa::new(&dfa).with_kernel(Kernel::Auto);
        let conv_rid = RidCa::new(&rid).with_kernel(Kernel::Auto);
        let expected = recognize(&rid_ca, &text, 4, Executor::Serial).accepted;
        assert_eq!(expected, dfa.accepts(&text), "oracle seed {seed}");

        for workers in [1usize, 3] {
            for block_size in [1usize, 2, 7, 64, 4096] {
                let mut session = StreamSession::new(workers, block_size);
                macro_rules! check {
                    ($ca:expr, $label:literal) => {{
                        let out = session
                            .recognize_stream($ca, FussyReader::new(&text))
                            .unwrap();
                        assert_eq!(
                            out.accepted, expected,
                            "seed {seed} {} w={workers} b={block_size}",
                            $label
                        );
                        if !out.rejected_early {
                            assert_eq!(out.bytes, text.len() as u64);
                        }
                    }};
                }
                check!(&dfa_ca, "dfa");
                check!(&nfa_ca, "nfa");
                check!(&rid_ca, "rid");
                check!(&conv_dfa, "dfa+conv");
                check!(&conv_rid, "rid+conv");
                if let Some(sfa) = &sfa {
                    check!(&SfaCa::new(sfa), "sfa");
                }
            }
        }
    }
}

/// The adversarial failure matrix: every chunk automaton, hit with
/// retryable stalls (which must be absorbed), then with non-retryable
/// mid-stream I/O faults at exact byte offsets (which must surface as
/// typed `io::Error`s) — after every failure the same session must serve
/// the next stream completely, with `buffer_bytes()` unchanged (no block
/// leaked by the aborted run).
#[test]
fn mid_stream_io_faults_leave_sessions_reusable_for_all_six_cas() {
    use ridfa::faults::{FailingReader, ShortReader, StallingReader};

    let ast = ridfa::automata::regex::parse("[ab]*a[ab]{4}").unwrap();
    let nfa = ridfa::automata::nfa::glushkov::build(&ast).unwrap();
    let dfa = minimize::minimize(&powerset::determinize(&nfa));
    let rid = RiDfa::from_nfa(&nfa).minimized();
    let sfa = Sfa::build_limited(&dfa, 1 << 14).expect("small machine fits");
    let text = b"abbaabbbaabab".repeat(50);

    macro_rules! check {
        ($ca:expr, $label:literal) => {{
            let ca = $ca;
            let mut session = StreamSession::new(2, 64);
            let clean = session.recognize_stream(ca, Cursor::new(&text)).unwrap();
            assert!(clean.accepted, $label);
            let ring = session.buffer_bytes();

            // Retryable interrupts and 3-byte short reads are absorbed.
            let out = session
                .recognize_stream(
                    ca,
                    StallingReader::new(ShortReader::new(Cursor::new(&text), 3), 2),
                )
                .unwrap();
            assert!(out.accepted, $label);
            assert_eq!(out.bytes, text.len() as u64, $label);
            assert_eq!(session.buffer_bytes(), ring, $label);

            // Non-retryable faults surface typed, at exact offsets: before
            // the first block, mid-stream, and on the very last byte.
            for (deliver, kind) in [
                (0usize, io::ErrorKind::WouldBlock),
                (200, io::ErrorKind::WouldBlock),
                (text.len() - 1, io::ErrorKind::ConnectionReset),
            ] {
                let err = session
                    .recognize_stream(ca, FailingReader::new(Cursor::new(&text), deliver, kind))
                    .unwrap_err();
                assert_eq!(err.kind(), kind, "{} deliver {deliver}", $label);
                assert_eq!(session.buffer_bytes(), ring, "{} deliver {deliver}", $label);
                let again = session.recognize_stream(ca, Cursor::new(&text)).unwrap();
                assert!(again.accepted, "{} deliver {deliver}", $label);
                assert_eq!(again.bytes, text.len() as u64, $label);
                assert_eq!(session.buffer_bytes(), ring, $label);
            }
        }};
    }
    check!(&DfaCa::new(&dfa), "dfa");
    check!(&NfaCa::new(&nfa), "nfa");
    check!(&RidCa::new(&rid), "rid");
    check!(&DfaCa::new(&dfa).with_kernel(Kernel::Auto), "dfa+conv");
    check!(&RidCa::new(&rid).with_kernel(Kernel::Auto), "rid+conv");
    check!(&SfaCa::new(&sfa), "sfa");
}

/// The cuts where a stream's special cases live — no block, a block
/// shorter than its size, exactly one block, exactly one ring, and a
/// prefix that dies in the first block, in the last block of the first
/// pass around the ring, in the first block of the second, in the last
/// full block of the stream or in its final partial block — fed through
/// every lane over the same cuts: `StreamSession`, the registry's
/// stream, `scan_block`, `scan_block_pooled` + `finish_scan`, and the
/// counted one-shot and session paths, for the RID with `Auto`, the RID
/// with feasible-start pruning, the DFA with `Auto`, the NFA and the
/// SFA. A stream counts the blocks through the one its prefix died in,
/// however far its claimants read ahead, and is rejected early only when
/// input remains past that block.
#[test]
fn edge_cuts_agree_across_stream_block_and_counted_lanes() {
    const BLOCK: usize = 64;
    const WORKERS: usize = 2;
    const RING: usize = 2 * (WORKERS + 1);
    let pattern = "[ab]*a[ab]{4}";
    let nfa =
        ridfa::automata::nfa::glushkov::build(&ridfa::automata::regex::parse(pattern).unwrap())
            .unwrap();
    let dfa = minimize::minimize(&powerset::determinize(&nfa));
    let rid = RiDfa::from_nfa(&nfa).minimized();
    let feasible = FeasibleTable::build(&rid);
    let sfa = Sfa::build_limited(&dfa, 1 << 14).expect("small machine fits");

    // A member of `len` bytes (its fifth-last byte is the `a`), and the
    // same text with a byte outside the alphabet at `at`, which kills
    // every run.
    let member = |len: usize| {
        let mut t = vec![b'b'; len];
        if len >= 5 {
            t[len - 5] = b'a';
        }
        t
    };
    let killed = |len: usize, at: usize| {
        let mut t = member(len);
        t[at] = b'z';
        t
    };
    let long = 2 * RING * BLOCK;
    let blocks = |len: usize| len.div_ceil(BLOCK) as u64;
    // (row, text, blocks composed, rejected early)
    let rows: Vec<(&str, Vec<u8>, u64, bool)> = vec![
        ("empty", Vec::new(), 0, false),
        ("shorter than one block", member(BLOCK - 7), 1, false),
        ("exactly one block", member(BLOCK), 1, false),
        ("exactly one ring", member(RING * BLOCK), RING as u64, false),
        (
            "rejected at EOF, never dead",
            vec![b'b'; 2 * RING * BLOCK],
            2 * RING as u64,
            false,
        ),
        ("dies in block 0", killed(long, 5), 1, true),
        (
            "dies in the last block of the first ring pass",
            killed(long, (RING - 1) * BLOCK + 10),
            RING as u64,
            true,
        ),
        (
            "dies in the first block of the second ring pass",
            killed(long, RING * BLOCK + 10),
            RING as u64 + 1,
            true,
        ),
        (
            "dies in the last full block, nothing after",
            killed(long, long - 3),
            blocks(long),
            false,
        ),
        // One byte short of a block, so balanced one-shot chunks cut the
        // text where the stream's blocks end.
        (
            "dies in the final partial block",
            killed(long + BLOCK - 1, long + 2),
            blocks(long + BLOCK - 1),
            false,
        ),
    ];

    let mut stream = StreamSession::new(WORKERS, BLOCK);
    let mut session = Session::new(WORKERS);
    let mut registry = PatternRegistry::new(RegistryConfig {
        num_workers: WORKERS,
        block_size: BLOCK,
        ..RegistryConfig::default()
    });
    let engines = [
        ("rid", EnginePlan::Lockstep),
        ("feasible", EnginePlan::FeasibleStart),
        ("sfa", EnginePlan::Sfa),
    ];
    for (id, plan) in engines {
        registry.insert_regex_planned(id, pattern, plan).unwrap();
    }
    let mut scan = StreamScan::new();

    for (row, text, blocks, early) in &rows {
        let accepted = dfa.accepts(text);
        let bytes = (*blocks as usize * BLOCK).min(text.len());
        let expected = (accepted, bytes as u64, *blocks, *early);
        // The same cuts as one-shot chunks: the consumed prefix in
        // `blocks` chunks, and the whole text in block-sized ones.
        let consumed = &text[..bytes];
        let consumed_chunks = (*blocks as usize).max(1);
        let all_chunks = text.len().div_ceil(BLOCK).max(1);

        macro_rules! check {
            ($ca:expr, $label:literal) => {{
                let ca = $ca;
                let out = stream.recognize_stream(&ca, Cursor::new(text)).unwrap();
                let got = (out.accepted, out.bytes, out.blocks, out.rejected_early);
                assert_eq!(got, expected, "{} {row}: stream", $label);
                let counted = recognize_counted(&ca, consumed, consumed_chunks, Executor::Serial);
                assert_eq!(out.transitions, counted.transitions, "{} {row}", $label);
                let pooled = session.recognize_counted(&ca, consumed, consumed_chunks);
                assert_eq!(pooled.transitions, counted.transitions, "{} {row}", $label);
                let whole = recognize_counted(&ca, text, all_chunks, Executor::Serial);
                assert_eq!(whole.accepted, accepted, "{} {row}: counted", $label);
                let whole = session.recognize_counted(&ca, text, all_chunks);
                assert_eq!(whole.accepted, accepted, "{} {row}: session", $label);
            }};
        }
        check!(RidCa::new(&rid).with_kernel(Kernel::Auto), "rid");
        check!(
            RidCa::new(&rid)
                .with_kernel(Kernel::Auto)
                .with_feasible(&feasible),
            "rid+feasible"
        );
        check!(DfaCa::new(&dfa).with_kernel(Kernel::Auto), "dfa");
        check!(NfaCa::new(&nfa), "nfa");
        check!(SfaCa::new(&sfa), "sfa");

        for (id, _) in engines {
            let out = registry.recognize_stream(id, Cursor::new(text)).unwrap();
            let got = (out.accepted, out.bytes, out.blocks, out.rejected_early);
            assert_eq!(got, expected, "{id} {row}: registry stream");
            for block in text.chunks(BLOCK) {
                registry.scan_block(id, &mut scan, block).unwrap();
            }
            let serial = registry.finish_scan(id, &mut scan).unwrap();
            assert_eq!(serial, accepted, "{id} {row}: scan_block");
            for block in text.chunks(BLOCK) {
                registry.scan_block_pooled(id, &mut scan, block).unwrap();
            }
            let pooled = registry.finish_scan(id, &mut scan).unwrap();
            assert_eq!(pooled, accepted, "{id} {row}: scan_block_pooled");
        }
    }
}

/// A chunk automaton whose scan of a chunk holding `marker` first waits
/// until `ahead` scans (first chunks included) have started — so the
/// other claimants read and scan ahead into every other ring slot — and
/// then, if `panics`, panics.
struct HoldCa<CA> {
    inner: CA,
    marker: u8,
    ahead: usize,
    panics: bool,
    started: AtomicUsize,
}

impl<CA> HoldCa<CA> {
    fn new(inner: CA, marker: u8, ahead: usize, panics: bool) -> HoldCa<CA> {
        HoldCa {
            inner,
            marker,
            ahead,
            panics,
            started: AtomicUsize::new(0),
        }
    }

    /// Counts a scan of `chunk`, holding it if it carries the marker.
    fn start(&self, chunk: &[u8]) {
        self.started.fetch_add(1, Ordering::SeqCst);
        if !chunk.contains(&self.marker) {
            return;
        }
        let give_up = Instant::now() + Duration::from_secs(10);
        while self.started.load(Ordering::SeqCst) < self.ahead && Instant::now() < give_up {
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(!self.panics, "injected fault in the marked block");
    }
}

impl<CA: ChunkAutomaton> ChunkAutomaton for HoldCa<CA> {
    type Mapping = CA::Mapping;
    type Scratch = CA::Scratch;
    type ComposeScratch = CA::ComposeScratch;

    fn scan_into(
        &self,
        chunk: &[u8],
        scratch: &mut Self::Scratch,
        counter: &mut impl Counter,
        out: &mut Self::Mapping,
    ) {
        self.start(chunk);
        self.inner.scan_into(chunk, scratch, counter, out)
    }

    fn scan_first_into(&self, chunk: &[u8], counter: &mut impl Counter, out: &mut Self::Mapping) {
        self.start(chunk);
        self.inner.scan_first_into(chunk, counter, out)
    }

    fn compose_into(
        &self,
        left: &Self::Mapping,
        right: &Self::Mapping,
        scratch: &mut Self::ComposeScratch,
        out: &mut Self::Mapping,
    ) {
        self.inner.compose_into(left, right, scratch, out)
    }

    fn accepts_mapping(&self, mapping: &Self::Mapping) -> bool {
        self.inner.accepts_mapping(mapping)
    }

    fn mapping_is_dead(&self, mapping: &Self::Mapping) -> bool {
        self.inner.mapping_is_dead(mapping)
    }

    fn accepts_serial(&self, text: &[u8], counter: &mut impl Counter) -> bool {
        self.inner.accepts_serial(text, counter)
    }

    fn num_speculative_starts(&self) -> usize {
        self.inner.num_speculative_starts()
    }

    fn effective_kernel(&self, chunk_len: usize) -> Option<Kernel> {
        self.inner.effective_kernel(chunk_len)
    }

    fn name(&self) -> &'static str {
        "hold"
    }
}

/// A reader that hands out one byte per call.
struct OneByteReader<'a>(&'a [u8]);

impl Read for OneByteReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match (self.0.split_first(), buf.first_mut()) {
            (Some((&byte, rest)), Some(slot)) => {
                *slot = byte;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// The machine of the pipeline tests: members end in `a` and four more
/// of `[ab]`, and any other byte (`z`) kills every run.
fn pipeline_machine() -> (ridfa::automata::dfa::Dfa, RiDfa) {
    let ast = ridfa::automata::regex::parse("[ab\n]*a[ab]{4}").unwrap();
    let nfa = ridfa::automata::nfa::glushkov::build(&ast).unwrap();
    let dfa = minimize::minimize(&powerset::determinize(&nfa));
    (dfa, RiDfa::from_nfa(&nfa).minimized())
}

/// A prefix that dies in block `d`, while the other claimants have read
/// and scanned ahead into every other ring slot, for `d` at each slot
/// position of the first and the second pass around the ring: the
/// outcome counts exactly the blocks through `d`, as the serial DFA and
/// the counted one-shot recognition of those blocks say.
#[test]
fn a_prefix_dying_behind_a_full_ring_counts_only_its_own_blocks() {
    const BLOCK: usize = 256;
    const WORKERS: usize = 3;
    let (dfa, rid) = pipeline_machine();
    let ca = RidCa::new(&rid).with_kernel(Kernel::Auto);
    let mut session = StreamSession::new(WORKERS, BLOCK);
    let ring = session.ring_blocks();
    assert_eq!(ring, 2 * (WORKERS + 1));
    let len = 4 * ring * BLOCK;
    for d in 0..2 * ring {
        let mut text = b"ab".repeat(len / 2);
        text[d * BLOCK + BLOCK / 2] = b'z';
        // Blocks 0..d + ring fill every slot: the marked block holds
        // until all of them have started.
        let held = HoldCa::new(
            RidCa::new(&rid).with_kernel(Kernel::Auto),
            b'z',
            d + ring,
            false,
        );
        let out = session.recognize_stream(&held, Cursor::new(&text)).unwrap();
        assert!(!dfa.accepts(&text));
        let blocks = d as u64 + 1;
        let got = (out.accepted, out.bytes, out.blocks, out.rejected_early);
        assert_eq!(got, (false, blocks * BLOCK as u64, blocks, true), "d = {d}");
        assert!(
            held.started.load(Ordering::SeqCst) >= d + ring,
            "d = {d}: the ring was not read ahead"
        );
        let prefix = &text[..(d + 1) * BLOCK];
        let counted = recognize_counted(&ca, prefix, d + 1, Executor::Serial);
        assert_eq!(out.transitions, counted.transitions, "d = {d}");
    }
}

/// A stream that wraps the ring several times under separator snapping,
/// with records longer than a block (blocks with no separator at all):
/// the verdict is the serial DFA's, every byte is counted once, and the
/// outcome — block cuts and transitions included — equals that of a
/// session whose caller reads and scans every block alone.
#[test]
fn snapped_streams_wrap_the_ring_with_the_serial_outcome() {
    const BLOCK: usize = 64;
    let (dfa, rid) = pipeline_machine();
    let ca = RidCa::new(&rid).with_kernel(Kernel::Auto);
    let mut rng = StdRng::seed_from_u64(0x5EA9);
    let mut text = Vec::new();
    for record in 0..200 {
        // Every 25th record runs past two blocks.
        let len = if record % 25 == 7 {
            3 * BLOCK
        } else {
            rng.gen_range(1..40)
        };
        text.extend((0..len).map(|_| if rng.gen_ratio(1, 2) { b'a' } else { b'b' }));
        text.push(b'\n');
    }
    text.extend_from_slice(b"abbab");
    let mut pooled = StreamSession::new(3, BLOCK);
    let mut serial = StreamSession::new(0, BLOCK);
    for session in [&mut pooled, &mut serial] {
        session.set_separator(Some(b'\n'));
    }
    assert!(
        text.len() > 5 * pooled.ring_blocks() * BLOCK,
        "wraps the ring"
    );
    let mut killed = text.clone();
    killed[text.len() / 2] = b'z';
    let mut rejected = text.clone();
    rejected.truncate(text.len() - 4);
    for (row, text) in [
        ("member", &text),
        ("killed", &killed),
        ("rejected", &rejected),
    ] {
        let out = pooled.recognize_stream(&ca, Cursor::new(text)).unwrap();
        let alone = serial.recognize_stream(&ca, Cursor::new(text)).unwrap();
        assert_eq!(out.accepted, dfa.accepts(text), "{row}");
        assert_eq!(
            (out.bytes, out.blocks, out.transitions, out.rejected_early),
            (
                alone.bytes,
                alone.blocks,
                alone.transitions,
                alone.rejected_early
            ),
            "{row}"
        );
        if !out.rejected_early {
            assert_eq!(out.bytes, text.len() as u64, "{row}");
        }
        // Snapping only shortens blocks.
        assert!(out.blocks >= out.bytes.div_ceil(BLOCK as u64), "{row}");
    }
    assert!(
        pooled
            .recognize_stream(&ca, Cursor::new(&killed))
            .unwrap()
            .rejected_early
    );
}

/// A reader that gives one byte per read feeds the same blocks, verdict
/// and counts as an in-memory one.
#[test]
fn a_one_byte_reader_streams_like_an_in_memory_one() {
    let (dfa, rid) = pipeline_machine();
    let ca = RidCa::new(&rid).with_kernel(Kernel::Auto);
    let mut session = StreamSession::new(2, 100);
    for text in [b"abbab".repeat(300), b"ab".repeat(700)] {
        let slow = session.recognize_stream(&ca, OneByteReader(&text)).unwrap();
        let fast = session.recognize_stream(&ca, Cursor::new(&text)).unwrap();
        assert_eq!(slow.accepted, dfa.accepts(&text));
        assert_eq!(
            (slow.accepted, slow.bytes, slow.blocks, slow.transitions),
            (fast.accepted, fast.bytes, fast.blocks, fast.transitions)
        );
        assert_eq!(slow.bytes, text.len() as u64);
    }
}

/// An unbudgeted stream whose chunk automaton panics in a chosen block —
/// after the other claimants have filled the ring and wait for its slot
/// — unwinds to the caller instead of hanging, and the same session then
/// streams a member correctly with every worker alive.
#[test]
fn a_panicking_block_reaches_the_caller_and_the_session_recovers() {
    const BLOCK: usize = 128;
    let (dfa, mut rid) = pipeline_machine();
    let mut session = StreamSession::new(2, BLOCK);
    let ring = session.ring_blocks();
    let member = b"abbab".repeat(ring * BLOCK);
    assert!(dfa.accepts(&member));
    for d in [0, 1, ring - 1, ring + 2] {
        let mut text = member.clone();
        text[d * BLOCK + 3] = b'\n';
        let (done, result) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let ca = RidCa::new(&rid).with_kernel(Kernel::Auto);
            let faulty = HoldCa::new(ca, b'\n', d + ring, true);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.recognize_stream(&faulty, Cursor::new(&text))
            }));
            let _ = done.send(unwound.is_err());
            (session, rid)
        });
        let panicked = result
            .recv_timeout(Duration::from_secs(60))
            .expect("the stream hung after a claimant panicked");
        assert!(panicked, "block {d}: the panic did not reach the caller");
        (session, rid) = worker.join().unwrap();
        let ca = RidCa::new(&rid).with_kernel(Kernel::Auto);
        let out = session.recognize_stream(&ca, Cursor::new(&member)).unwrap();
        assert!(out.accepted, "block {d}");
        assert_eq!(out.bytes, member.len() as u64);
        let health = session.health();
        assert_eq!(health.live, health.configured, "block {d}");
    }
}

#[test]
fn stream_traffic_pipe_accepts_and_rejects() {
    let rid = RiDfa::from_nfa(&traffic::nfa()).minimized();
    let ca = RidCa::new(&rid).with_kernel(Kernel::Auto);
    let mut session = StreamSession::new(2, 16 << 10);
    session.warm(&ca, &traffic::text(4096, 0));

    let ok = session
        .recognize_stream(&ca, traffic::RecordSource::new(1 << 20, 7))
        .unwrap();
    assert!(ok.accepted);
    assert!(ok.bytes >= 1 << 20);
    assert!(ok.transitions >= ok.bytes, "at least one transition/byte");

    let bad = session
        .recognize_stream(&ca, traffic::RecordSource::with_corruption(1 << 20, 7, 100))
        .unwrap();
    assert!(!bad.accepted);
    assert!(
        bad.rejected_early,
        "a mid-stream corruption must stop the read"
    );
    assert!(bad.bytes < 1 << 20, "read {} bytes", bad.bytes);
}

#[test]
fn stream_agrees_with_one_shot_on_short_rejected_traffic() {
    // The rejected_text regression surface, exercised through the stream:
    // every "rejected" length must actually reject.
    let rid = RiDfa::from_nfa(&traffic::nfa()).minimized();
    let ca = RidCa::new(&rid).with_kernel(Kernel::Auto);
    let mut session = StreamSession::new(1, 64);
    for len in [10usize, 40, 80, 200, 2048] {
        let t = traffic::rejected_text(len, 11);
        let out = session.recognize_stream(&ca, Cursor::new(&t)).unwrap();
        assert!(!out.accepted, "len {len}");
        let accepted_text = traffic::text(len, 11);
        let out = session
            .recognize_stream(&ca, Cursor::new(&accepted_text))
            .unwrap();
        assert!(out.accepted, "len {len} conforming");
    }
}

/// The headline acceptance criterion: a ≥ 256 MiB conforming record
/// stream is recognized with live buffer memory bounded by
/// O(workers · block_size) — asserted by exact buffer accounting before,
/// during (capacity can only be observed between runs), and after — and
/// the verdict matches the generator's promise. Gated to release builds:
/// debug-mode scanning of 256 MiB would dominate the tier-1 suite.
#[test]
#[cfg_attr(debug_assertions, ignore = "256 MiB scan: run with --release")]
fn quarter_gib_stream_runs_in_bounded_memory() {
    const TARGET: u64 = 256 << 20;
    const BLOCK: usize = 1 << 20;
    let rid = RiDfa::from_nfa(&traffic::nfa()).minimized();
    let ca = RidCa::new(&rid).with_kernel(Kernel::Auto);
    let mut session = StreamSession::new(3, BLOCK);
    session.warm(&ca, &traffic::text(BLOCK.min(64 << 10), 0));

    let ring_bytes = session.ring_blocks() * BLOCK;
    assert_eq!(session.buffer_bytes(), ring_bytes);
    let live_mappings = session.live_mappings();
    // One mapping slot per ring block plus the join fold's two.
    assert_eq!(live_mappings, session.ring_blocks() + 2);

    let out = session
        .recognize_stream(&ca, traffic::RecordSource::new(TARGET, 42))
        .unwrap();
    assert!(out.accepted, "conforming pipe must be accepted");
    assert!(out.bytes >= TARGET, "streamed only {} bytes", out.bytes);
    assert!(out.blocks >= (TARGET as usize / BLOCK) as u64);
    // The ring never grew: text-buffer memory is independent of the
    // 256 MiB that flowed through it.
    assert_eq!(
        session.buffer_bytes(),
        ring_bytes,
        "block ring grew with stream length"
    );
    assert_eq!(session.live_mappings(), live_mappings);

    // And the rejection path on the same scale stops early.
    let bad = session
        .recognize_stream(
            &ca,
            traffic::RecordSource::with_corruption(TARGET, 42, 1000),
        )
        .unwrap();
    assert!(!bad.accepted);
    assert!(bad.rejected_early);
    assert!(
        bad.bytes < TARGET / 2,
        "early rejection still read {} bytes",
        bad.bytes
    );
    assert_eq!(session.buffer_bytes(), ring_bytes);
}
