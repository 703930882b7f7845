//! Serving behaviours around a live pattern set and large bodies: spec
//! reload without dropping connections, eviction landing under an
//! in-flight scan (typed error, never a stale verdict), and the offload
//! lane keeping small requests responsive next to a multi-megabyte body.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ridfa::core::csdpa::{CancelToken, PatternRegistry, RegistryConfig};
use ridfa::core::serve::protocol::{self, Status};
use ridfa::core::serve::{ServeConfig, Server};

fn registry_config() -> RegistryConfig {
    RegistryConfig {
        num_workers: 2,
        block_size: 256,
        ..RegistryConfig::default()
    }
}

/// A throwaway on-disk spec file the watcher can re-read; removed on drop.
struct SpecFile {
    path: PathBuf,
}

impl SpecFile {
    fn new(tag: &str, text: &str) -> SpecFile {
        let path =
            std::env::temp_dir().join(format!("ridfa-spec-{tag}-{}.txt", std::process::id()));
        std::fs::write(&path, text).unwrap();
        SpecFile { path }
    }

    fn rewrite(&self, text: &str) {
        std::fs::write(&self.path, text).unwrap();
    }
}

impl Drop for SpecFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Rewriting the spec file swaps a pattern and adds a new one on a live
/// server: the open connection sees the new verdicts without ever being
/// dropped, and the report counts the applied generation.
#[test]
fn hot_reload_swaps_patterns_without_dropping_connections() {
    let file = SpecFile::new("reload", "digits [0-9]+\n");
    let mut server = Server::bind_spec_file(
        "127.0.0.1:0",
        file.path.clone(),
        registry_config(),
        ServeConfig {
            reload_interval: Some(Duration::from_millis(20)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let cancel = CancelToken::new();
    server.set_cancel(cancel.clone());
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let response = protocol::query(&mut stream, "digits", b"123").unwrap();
    assert_eq!(response.status, Status::Accepted);

    // Swap digits to a stricter pattern and add a brand-new id.
    file.rewrite("digits [0-9]{5}\nword [a-z]+\n");

    // Poll the *same* connection until the new generation answers: "123"
    // flips from Accepted to Rejected the moment the loop applies it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let response = protocol::query(&mut stream, "digits", b"123").unwrap();
        if response.status == Status::Rejected {
            break;
        }
        assert_eq!(response.status, Status::Accepted, "unexpected verdict");
        assert!(Instant::now() < deadline, "reload never reached the loop");
        std::thread::sleep(Duration::from_millis(5));
    }
    let response = protocol::query(&mut stream, "word", b"hello").unwrap();
    assert_eq!(response.status, Status::Accepted, "new pattern not served");
    let response = protocol::query(&mut stream, "digits", b"12345").unwrap();
    assert_eq!(response.status, Status::Accepted);
    drop(stream);

    cancel.cancel();
    let report = server_thread.join().unwrap();
    assert_eq!(report.reload_errors, 0);
    assert!(report.reload.generations >= 1, "{:?}", report.reload);
    assert!(report.reload.inserted >= 2, "{:?}", report.reload);
    assert!(report.reload.evicted >= 1, "{:?}", report.reload);
    assert_eq!(report.reload.failed, 0, "{:?}", report.reload);
    // One connection, held across the reload — never dropped.
    assert_eq!(report.tally.connections, 1);
    assert_eq!(report.connections.len(), 1);
    report.verify().expect("reconciliation invariants");
}

/// Satellite: a reload that evicts the pattern *under an in-flight scan*
/// answers a typed `Protocol` error for that request — never a panic,
/// never a verdict mixing two generations — and the connection survives
/// to serve the next request against the new automaton. Both lanes: on
/// the offload lane the first 10 KB bind the scan through two pooled
/// 4 KiB slices before the reload lands, and the error must drop the
/// staged bytes, or they would lead the next offloaded body.
#[test]
fn eviction_under_in_flight_scan_is_typed_and_keeps_the_connection() {
    for (lane, offload_bytes) in [("inline", u64::MAX), ("offload", 1024)] {
        eviction_under_in_flight_scan(lane, offload_bytes);
    }
}

fn eviction_under_in_flight_scan(lane: &str, offload_bytes: u64) {
    const BODY: usize = 100_000;
    const FIRST: usize = 10_000;
    const NEXT: usize = 2000;

    let file = SpecFile::new(&format!("evict-{lane}"), "digits [0-9]+\n");
    let mut server = Server::bind_spec_file(
        "127.0.0.1:0",
        file.path.clone(),
        registry_config(),
        ServeConfig {
            reload_interval: Some(Duration::from_millis(20)),
            offload_bytes,
            offload_tick_bytes: 4096,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let cancel = CancelToken::new();
    server.set_cancel(cancel.clone());
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let response = protocol::query(&mut stream, "digits", b"123").unwrap();
    assert_eq!(response.status, Status::Accepted);

    // Send the header plus the first 10 KB of a large body: the loop
    // starts scanning and the scan binds to the current epoch.
    let frame = protocol::encode_request("digits", &vec![b'7'; BODY]).unwrap();
    let header = frame.len() - BODY;
    stream.write_all(&frame[..header + FIRST]).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // Reload lands mid-scan: digits is evicted and re-inserted with a
    // fresh epoch while the request above is still incomplete.
    file.rewrite("digits 1[0-9]{4}|2[0-9]*\n");
    std::thread::sleep(Duration::from_millis(400));

    // The remainder drains; the verdict is the typed reload error with
    // the full body accounted for, not a cross-generation answer.
    stream.write_all(&frame[header + FIRST..]).unwrap();
    let response = protocol::read_response(&mut stream).unwrap();
    assert_eq!(response.status, Status::Protocol, "{lane}: reload mid-scan");
    assert_eq!(response.scanned, BODY as u64, "{lane}: body fully drained");

    // Same connection, next requests: served by the new generation. The
    // first takes the same lane; a stale staged `7` would lead its body
    // and flip the verdict.
    let mut next = vec![b'0'; NEXT];
    next[0] = b'2';
    let response = protocol::query(&mut stream, "digits", &next).unwrap();
    assert_eq!(
        (response.status, response.scanned),
        (Status::Accepted, NEXT as u64),
        "{lane}: follow-up body"
    );
    let response = protocol::query(&mut stream, "digits", b"12345").unwrap();
    assert_eq!(response.status, Status::Accepted);
    let response = protocol::query(&mut stream, "digits", b"123").unwrap();
    assert_eq!(response.status, Status::Rejected);
    drop(stream);

    cancel.cancel();
    let report = server_thread.join().unwrap();
    assert_eq!(
        report.tally.protocol_errors, 1,
        "{lane}: {:?}",
        report.tally
    );
    assert_eq!(report.tally.accepted, 3);
    assert_eq!(report.tally.rejected, 1);
    assert_eq!(report.tally.connections, 1, "connection was dropped");
    assert!(report.reload.generations >= 1);
    report.verify().expect("reconciliation invariants");
}

/// A multi-megabyte body above `offload_bytes` goes through the offload
/// lane in bounded slices: a small inline request on another connection
/// gets its verdict while the big body is still being scanned, instead of
/// waiting behind it.
#[test]
fn offloaded_big_body_does_not_stall_small_requests() {
    const BIG: usize = 4 << 20;

    let mut registry = PatternRegistry::new(registry_config());
    registry.insert_regex("digits", "[0-9]+").unwrap();
    let mut server = Server::bind(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            offload_bytes: 1024,
            offload_tick_bytes: 4096,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let cancel = CancelToken::new();
    server.set_cancel(cancel.clone());
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    // Establish the small-request connection first, so its acceptance
    // cannot race the big body's lifetime.
    let mut small = TcpStream::connect(addr).unwrap();
    small
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let response = protocol::query(&mut small, "digits", b"1").unwrap();
    assert_eq!(response.status, Status::Accepted);

    let big_started = AtomicBool::new(false);
    let big_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            let frame = protocol::encode_request("digits", &vec![b'7'; BIG]).unwrap();
            stream.write_all(&frame[..64 * 1024]).unwrap();
            big_started.store(true, Ordering::SeqCst);
            stream.write_all(&frame[64 * 1024..]).unwrap();
            let response = protocol::read_response(&mut stream).unwrap();
            assert_eq!(response.status, Status::Accepted);
            assert_eq!(response.scanned, BIG as u64);
            big_done.store(true, Ordering::SeqCst);
        });

        // Once the big body is in flight (each 16 KiB read of it scans
        // four 4 KiB slices, so it has ~250 reads to go), a small request
        // must clear in a handful of ticks.
        while !big_started.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut small_before_big = 0u64;
        while !big_done.load(Ordering::SeqCst) {
            let response = protocol::query(&mut small, "digits", b"42").unwrap();
            assert_eq!(response.status, Status::Accepted);
            if !big_done.load(Ordering::SeqCst) {
                small_before_big += 1;
            }
        }
        assert!(
            small_before_big >= 1,
            "no small request finished while the big body was scanning"
        );
    });
    drop(small);

    cancel.cancel();
    let report = server_thread.join().unwrap();
    assert!(report.tally.bytes >= BIG as u64);
    report.verify().expect("reconciliation invariants");
}
