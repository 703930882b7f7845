//! Deterministic chaos suite: every fault the library claims to contain
//! is injected here — worker-killing panics, expired deadlines,
//! cancellations, mid-stream I/O errors, panicking chunk automata, and
//! state-exploding constructions — and every test
//! asserts the documented containment: typed errors (never an unwinding
//! panic across a public budgeted API), sessions that stay reusable, and
//! buffer accounting that does not drift.
//!
//! All schedules are seeded ([`XorShift64`]) or byte-exact, so a failure
//! reproduces deterministically. `CHAOS_ITERS` scales the perturbation
//! loops (CI runs elevated iterations; the default keeps tier-1 fast).

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use ridfa::automata::nfa::glushkov;
use ridfa::automata::{regex, ConstructionBudget, Error};
use ridfa::core::csdpa::{
    Budget, CancelToken, Executor, Kernel, RecognizeError, RidCa, Session, StreamError,
    StreamSession,
};
use ridfa::core::csdpa::{PatternRegistry, RegistryConfig};
use ridfa::core::parallel::PoolHealth;
use ridfa::core::ridfa::RiDfa;
use ridfa::core::serve::protocol::{self, Status};
use ridfa::core::serve::{ServeConfig, Server};
use ridfa::core::sfa::Sfa;
use ridfa::faults::{kill_workers, state_explosion_pattern, FailingReader, PanicCa, XorShift64};

/// Tracks current and peak heap usage so the construction-budget test can
/// prove the cap bounded the blow-up, not just produced an error late.
struct PeakAlloc {
    current: AtomicUsize,
    peak: AtomicUsize,
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = self.current.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            self.peak.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.current.fetch_sub(layout.size(), Ordering::SeqCst);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc {
    current: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

/// Iteration scale: `CHAOS_ITERS` (CI sets an elevated count) or a small
/// default that keeps the tier-1 suite fast.
fn chaos_iters(default: usize) -> usize {
    std::env::var("CHAOS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(1)
}

fn machine() -> RiDfa {
    let ast = regex::parse("[ab]*a[ab]{4}").unwrap();
    RiDfa::from_nfa(&glushkov::build(&ast).unwrap()).minimized()
}

/// Accepted/rejected text mix with verdicts known by construction.
fn text_mix() -> (Vec<Vec<u8>>, Vec<bool>) {
    let accepted = b"abbaabbbaabab".repeat(40);
    let rejected = b"bbbb".repeat(100);
    let texts = vec![
        accepted.clone(),
        rejected.clone(),
        accepted[..26].to_vec(),
        b"a".to_vec(),
        Vec::new(),
    ];
    let verdicts = vec![true, false, true, false, false];
    (texts, verdicts)
}

#[test]
fn killed_workers_respawn_and_the_next_request_is_served_correctly() {
    let rid = machine();
    let ca = RidCa::new(&rid);
    let mut session = Session::new(4);
    let (texts, expected) = text_mix();
    let mut rng = XorShift64::new(0xC0FFEE);
    let mut killed_total = 0;
    for round in 0..chaos_iters(3) {
        // Kill 1-2 workers with an untrappable (drop-panicking) payload,
        // then hit the poisoned pool with the very next batch.
        let kills = 1 + rng.below(2) as usize;
        kill_workers(session.pool(), kills);
        killed_total += kills as u64;
        let chunks = 1 + rng.below(7) as usize;
        assert_eq!(
            session.recognize_many(&ca, &texts, chunks),
            expected,
            "round {round} chunks {chunks}"
        );
        // Dispatch healed the pool back to full strength — and the kill
        // was trapped, not propagated.
        let health = session.health();
        assert_eq!(health.live, health.configured, "round {round}");
        assert!(health.respawns >= killed_total, "round {round}");
    }
}

/// The pool's health after `kills` workers died: every one respawned, so
/// the pool is back at its configured strength.
fn assert_healed(health: PoolHealth, kills: u64) {
    assert_eq!(health.live, health.configured, "{health:?}");
    assert_eq!(health.respawns, kills, "{health:?}");
}

#[test]
fn workers_killed_between_calls_are_respawned_by_every_entry_point() {
    let rid = machine();
    let ca = RidCa::new(&rid);
    let (texts, expected) = text_mix();
    let roomy = Budget::with_timeout(Duration::from_secs(3600));

    // Three of four workers die before each call; the call's reach heals
    // the pool at its head and runs on all five claimants.
    let mut session = Session::new(4);
    kill_workers(session.pool(), 3);
    assert_eq!(session.recognize_many(&ca, &texts, 4), expected);
    assert_healed(session.health(), 3);

    kill_workers(session.pool(), 3);
    let out = session
        .recognize_budgeted(&ca, &texts[0], 8, &roomy)
        .unwrap();
    assert!(out.accepted);
    assert_eq!(out.executor, Executor::Team(5));
    assert_healed(session.health(), 6);

    // A healed session still honors budgets with typed errors.
    kill_workers(session.pool(), 3);
    assert_eq!(
        session
            .recognize_budgeted(&ca, &texts[0], 8, &Budget::with_timeout(Duration::ZERO))
            .unwrap_err(),
        RecognizeError::DeadlineExceeded
    );
    assert_healed(session.health(), 9);

    // A stream is one batch on its session's pool, whose head heals the
    // pool — the empty stream's included.
    let mut stream = StreamSession::new(4, 64);
    let mut kills = 0;
    for (text, &expected) in texts.iter().zip(&expected) {
        kill_workers(stream.pool(), 3);
        kills += 3;
        let out = stream.recognize_stream(&ca, Cursor::new(text)).unwrap();
        assert_eq!(out.accepted, expected);
        assert_healed(stream.health(), kills);
    }
}

#[test]
fn expired_deadlines_and_cancellations_are_deterministic_and_leave_streams_reusable() {
    let rid = machine();
    let ca = RidCa::new(&rid).with_kernel(Kernel::Auto);
    let text = b"abbaabbbaabab".repeat(200);
    let mut stream = StreamSession::new(2, 64);
    let ring = stream.buffer_bytes();

    for _ in 0..chaos_iters(2) {
        // Pre-expired deadline: fails before reading a single block.
        let err = stream
            .recognize_stream_budgeted(
                &ca,
                Cursor::new(&text),
                &Budget::with_timeout(Duration::ZERO),
            )
            .unwrap_err();
        assert!(matches!(err, StreamError::DeadlineExceeded), "{err}");
        assert_eq!(stream.buffer_bytes(), ring, "ring grew on deadline");

        // Pre-cancelled token: ditto, with the cancel reason.
        let token = CancelToken::new();
        token.cancel();
        let err = stream
            .recognize_stream_budgeted(&ca, Cursor::new(&text), &Budget::with_cancel(&token))
            .unwrap_err();
        assert!(matches!(err, StreamError::Cancelled), "{err}");
        assert_eq!(stream.buffer_bytes(), ring, "ring grew on cancel");

        // Mid-stream I/O fault at an exact byte offset, through both the
        // budgeted (typed) and the plain (io::Error) surface.
        let broken = FailingReader::would_block(Cursor::new(&text), 200);
        let err = stream
            .recognize_stream_budgeted(&ca, broken, &Budget::unlimited())
            .unwrap_err();
        assert!(
            matches!(err, StreamError::Io(ref e) if e.kind() == std::io::ErrorKind::WouldBlock)
        );
        let broken = FailingReader::would_block(Cursor::new(&text), 200);
        let err = stream.recognize_stream(&ca, broken).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert_eq!(stream.buffer_bytes(), ring, "ring grew on I/O error");

        // After every failure the session serves the next stream fully.
        let out = stream.recognize_stream(&ca, Cursor::new(&text)).unwrap();
        assert!(out.accepted);
        assert_eq!(out.bytes, text.len() as u64);
        assert_eq!(stream.buffer_bytes(), ring);
    }
}

#[test]
fn a_panicking_chunk_automaton_cannot_cross_a_budgeted_api() {
    let rid = machine();
    let text = b"abbaabbbaabab".repeat(100);
    let roomy = Budget::with_timeout(Duration::from_secs(3600));

    // Through a session without workers (the caller scans every chunk).
    let faulty = PanicCa::new(RidCa::new(&rid).with_kernel(Kernel::Auto), 2);
    let mut serial = Session::new(0);
    let err = serial
        .recognize_budgeted(&faulty, &text, 8, &roomy)
        .unwrap_err();
    match err {
        RecognizeError::Panicked(msg) => assert!(msg.contains("injected fault"), "{msg}"),
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The injected panic fired exactly once: the same automaton now works.
    let out = serial
        .recognize_budgeted(&faulty, &text, 8, &roomy)
        .unwrap();
    assert!(out.accepted);

    // Through a session (pooled executor) — and the pool survives. An
    // 8-chunk call makes 7 interior scans (the first chunk scans via
    // `scan_first_into`), so the injected ordinal cycles through 2..=7
    // to always fire inside the budgeted call under any CHAOS_ITERS.
    for round in 1..=chaos_iters(3) {
        let ordinal = 2 + (round % 6);
        let faulty = PanicCa::new(RidCa::new(&rid).with_kernel(Kernel::Auto), ordinal);
        let mut session = Session::new(2);
        let err = session
            .recognize_budgeted(&faulty, &text, 8, &roomy)
            .unwrap_err();
        assert!(
            matches!(err, RecognizeError::Panicked(_)),
            "ordinal {ordinal}: {err:?}"
        );
        let health = session.health();
        assert_eq!(health.live, health.configured, "pool lost workers");
        assert!(session.recognize(&faulty, &text, 8).accepted);
    }

    // Through the budgeted stream — reusable afterwards.
    let faulty = PanicCa::new(RidCa::new(&rid).with_kernel(Kernel::Auto), 1);
    let mut stream = StreamSession::new(1, 64);
    let ring = stream.buffer_bytes();
    let err = stream
        .recognize_stream_budgeted(&faulty, Cursor::new(&text), &roomy)
        .unwrap_err();
    assert!(matches!(err, StreamError::Panicked(_)), "{err}");
    assert_eq!(stream.buffer_bytes(), ring);
    let out = stream
        .recognize_stream(&faulty, Cursor::new(&text))
        .unwrap();
    assert!(out.accepted);
}

#[test]
fn construction_budgets_turn_state_explosions_into_typed_errors() {
    // [ab]*a[ab]{22} determinizes to millions of states (hundreds of MiB
    // of table): the budget must fail it early and typed, with the peak
    // heap growth bounded near the cap — proof the construction stopped
    // *before* the blow-up rather than after.
    let ast = regex::parse(&state_explosion_pattern(22)).unwrap();
    let nfa = glushkov::build(&ast).unwrap();
    const CAP_BYTES: usize = 64 << 10;
    let peak_before = ALLOC.peak.load(Ordering::SeqCst);

    let budget = ConstructionBudget::with_max_table_bytes(CAP_BYTES);
    let err = ridfa::automata::dfa::powerset::determinize_budgeted(&nfa, &budget).unwrap_err();
    assert!(matches!(err, Error::LimitExceeded { .. }), "{err}");
    let err = RiDfa::from_nfa_budgeted(&nfa, &budget).unwrap_err();
    assert!(matches!(err, Error::LimitExceeded { .. }), "{err}");

    let peak_growth = ALLOC.peak.load(Ordering::SeqCst) - peak_before;
    // Generous slack over the 64 KiB cap for subset bookkeeping and
    // concurrent tests in this binary; an unbudgeted run would blow
    // hundreds of MiB past it.
    assert!(
        peak_growth < 16 << 20,
        "peak grew {peak_growth} bytes despite a {CAP_BYTES}-byte cap"
    );

    // State caps produce the same typed error across all constructions.
    let small = ConstructionBudget::with_max_states(16);
    assert!(matches!(
        ridfa::automata::dfa::powerset::determinize_budgeted(&nfa, &small),
        Err(Error::LimitExceeded { limit: 16, .. })
    ));
    assert!(RiDfa::from_nfa_budgeted(&nfa, &small).is_err());
    let tame = regex::parse("[ab]*a[ab]{2}").unwrap();
    let dfa = ridfa::automata::dfa::powerset::determinize(&glushkov::build(&tame).unwrap());
    assert!(matches!(
        Sfa::build_budgeted(&dfa, &ConstructionBudget::with_max_states(1)),
        Err(Error::LimitExceeded { .. })
    ));

    // Within budget, construction succeeds and recognizes normally.
    let ok_budget = ConstructionBudget::with_max_table_bytes(64 << 20);
    let tame_nfa = glushkov::build(&tame).unwrap();
    let rid = RiDfa::from_nfa_budgeted(&tame_nfa, &ok_budget).unwrap();
    let ca = RidCa::new(&rid);
    assert!(
        Session::new(0)
            .recognize_budgeted(&ca, b"abbaab", 2, &Budget::unlimited())
            .unwrap()
            .accepted
    );
}

/// Hostile loopback clients — stalling mid-request, writing garbage,
/// resetting mid-frame — must never wedge the serve loop or starve a
/// well-behaved client, and every casualty must land in a typed counter.
#[test]
fn hostile_clients_never_wedge_the_serve_loop() {
    use std::io::Write as _;
    use std::net::TcpStream;

    let mut registry = PatternRegistry::new(RegistryConfig {
        num_workers: 2,
        block_size: 128,
        ..RegistryConfig::default()
    });
    registry.insert_regex("abb", "(a|b)*abb").unwrap();
    registry.insert_regex("digits", "[0-9]+").unwrap();
    let mut server = Server::bind(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            request_deadline: Some(Duration::from_millis(150)),
            idle_timeout: Some(Duration::from_millis(400)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let cancel = CancelToken::new();
    server.set_cancel(cancel.clone());
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    // Stalling client: one header byte, then silence. The per-request
    // deadline must answer Status::Deadline — the loop does not wait.
    let staller = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&[protocol::MAGIC]).unwrap();
        let response = protocol::read_response(&mut stream).unwrap();
        assert_eq!(response.status, Status::Deadline);
    });

    // Garbage client: wrong magic. Typed protocol error, then close.
    let garbage = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(b"\xffnot-a-frame").unwrap();
        let response = protocol::read_response(&mut stream).unwrap();
        assert_eq!(response.status, Status::Protocol);
    });

    // Resetting client: half a frame, then a dropped socket. Must count
    // as an I/O casualty, nothing more.
    let resetter = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        let frame = protocol::encode_request("abb", b"abababab").unwrap();
        stream.write_all(&frame[..frame.len() / 2]).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        drop(stream);
    });

    // Idle client: connects and says nothing; the idle timeout reaps it.
    let idler = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(700));
        drop(stream);
    });

    // Trickle client: a valid request dribbled a few bytes at a time —
    // slow but inside the deadline, so the verdict must be exact.
    let trickler = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let frame = protocol::encode_request("digits", b"0123456789").unwrap();
        for piece in frame.chunks(3) {
            stream.write_all(piece).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let response = protocol::read_response(&mut stream).unwrap();
        assert_eq!(response.status, Status::Accepted);
        assert_eq!(response.scanned, 10);
    });

    // The well-behaved client runs throughout the chaos; every verdict
    // must stay correct and prompt.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for round in 0..20 {
        let (body, want): (&[u8], Status) = if round % 2 == 0 {
            (b"bababb", Status::Accepted)
        } else {
            (b"bab", Status::Rejected)
        };
        let response = protocol::query(&mut stream, "abb", body).unwrap();
        assert_eq!(response.status, want, "round {round}");
    }
    drop(stream);

    staller.join().unwrap();
    garbage.join().unwrap();
    resetter.join().unwrap();
    idler.join().unwrap();
    trickler.join().unwrap();
    cancel.cancel();
    let report = server_thread.join().unwrap();

    assert_eq!(report.tally.deadline_errors, 1, "{:?}", report.tally);
    assert_eq!(report.tally.protocol_errors, 1, "{:?}", report.tally);
    assert!(report.tally.io_errors >= 1, "{:?}", report.tally);
    assert!(report.tally.idle_closed >= 1, "{:?}", report.tally);
    assert_eq!(report.tally.accepted, 11, "{:?}", report.tally);
    assert_eq!(report.tally.rejected, 10, "{:?}", report.tally);
    assert_eq!(report.tally.connections, 6, "{:?}", report.tally);
    // Every connection is accounted for — none leaked past shutdown.
    assert_eq!(report.connections.len(), 6);
}

/// A client that sends pipelined requests but never reads responses hits
/// the write high-water mark: the server parks the connection instead of
/// buffering without bound, and other clients keep being served.
#[test]
fn never_reading_client_is_parked_not_buffered() {
    use std::io::Write as _;
    use std::net::TcpStream;

    let mut registry = PatternRegistry::new(RegistryConfig {
        num_workers: 1,
        ..RegistryConfig::default()
    });
    registry.insert_regex("digits", "[0-9]+").unwrap();

    let mut server = Server::bind(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            idle_timeout: Some(Duration::from_secs(5)),
            max_pending_response_bytes: 32,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let cancel = CancelToken::new();
    server.set_cancel(cancel.clone());
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    // Flood requests without ever reading a response.
    let mut flood = TcpStream::connect(addr).unwrap();
    let frame = protocol::encode_request("digits", b"123").unwrap();
    for _ in 0..200 {
        if flood.write_all(&frame).is_err() {
            break; // kernel buffers filled — exactly the point
        }
    }

    // A polite client on another connection is unaffected.
    let mut polite = TcpStream::connect(addr).unwrap();
    polite
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for _ in 0..5 {
        let response = protocol::query(&mut polite, "digits", b"42").unwrap();
        assert_eq!(response.status, Status::Accepted);
    }
    drop(polite);
    drop(flood);
    cancel.cancel();
    let report = server_thread.join().unwrap();
    assert!(report.tally.accepted >= 5, "{:?}", report.tally);
}
