//! Integration tests of the streaming layer: a `StreamSession` over an
//! adversarial `Read` implementation (1-byte reads, block-misaligned
//! partial reads, `Interrupted` retries) must agree with one-shot
//! `recognize` for all six chunk automata across block sizes and worker
//! counts — and a ≥ 256 MiB generated record stream must be recognized
//! with buffer memory provably independent of stream length.

use std::io::{self, Cursor, Read};

use ridfa::automata::dfa::{minimize, powerset};
use ridfa::core::csdpa::{recognize, DfaCa, Executor, Kernel, NfaCa, RidCa, StreamSession};
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
    assert_eq!(live_mappings, session.ring_blocks() + 3);

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
