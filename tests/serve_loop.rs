//! Loopback serving: one process, many concurrent TCP connections with
//! mixed verdicts — multiplexed by the non-blocking loop, whether its
//! registry is prebuilt or built from a pattern file — plus a seeded
//! differential oracle over pipelined frames on both lanes, the
//! connection cap, and the idle loop's readiness wait (it sleeps until a
//! socket, a deadline or a cancel needs it).

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ridfa::automata::dfa::powerset::determinize;
use ridfa::automata::nfa::glushkov;
use ridfa::automata::regex;
use ridfa::core::csdpa::{CancelToken, PatternRegistry, PatternStats, RegistryConfig};
use ridfa::core::ridfa::ridfa_to_bytes;
use ridfa::core::serve::protocol::{self, Status};
use ridfa::core::serve::{ServeConfig, Server};
use ridfa::faults::XorShift64;

fn mask_artifact() -> Vec<u8> {
    let ast = ridfa::automata::regex::parse("[ab]*a[ab]{4}").unwrap();
    let nfa = ridfa::automata::nfa::glushkov::build(&ast).unwrap();
    let rid = ridfa::core::ridfa::RiDfa::from_nfa(&nfa).minimized();
    ridfa_to_bytes(&rid)
}

fn registry_config() -> RegistryConfig {
    RegistryConfig {
        num_workers: 2,
        block_size: 256,
        ..RegistryConfig::default()
    }
}

fn test_registry() -> PatternRegistry {
    let mut reg = PatternRegistry::new(registry_config());
    reg.insert_regex("abb", "(a|b)*abb").unwrap();
    reg.insert_regex("digits", "[0-9]+").unwrap();
    reg.insert_regex("word", "[a-z]+(-[a-z]+)*").unwrap();
    // The fourth pattern arrives as a binary artifact, like a prod
    // deploy would ship it.
    reg.insert_artifact("mask", &mask_artifact()).unwrap();
    reg
}

/// Binds a server on the pattern file holding the same pattern set as
/// [`test_registry`] (the artifact rides via a second file, like a prod
/// deploy would ship it). Both files are read at bind time and removed
/// right after.
fn bind_test_spec_file(tag: &str, config: ServeConfig) -> Server {
    let temp = |ext: &str| -> PathBuf {
        std::env::temp_dir().join(format!("ridfa-{tag}-{}.{ext}", std::process::id()))
    };
    let (artifact, patterns) = (temp("rida"), temp("txt"));
    std::fs::write(&artifact, mask_artifact()).unwrap();
    let text = format!(
        "abb (a|b)*abb\ndigits [0-9]+\nword [a-z]+(-[a-z]+)*\nmask @{}\n",
        artifact.display()
    );
    std::fs::write(&patterns, text).unwrap();
    let server = Server::bind_spec_file("127.0.0.1:0", patterns.clone(), registry_config(), config);
    let _ = std::fs::remove_file(&artifact);
    let _ = std::fs::remove_file(&patterns);
    server.unwrap()
}

/// 32 concurrent client threads × 4 requests each, across 4 patterns
/// (one artifact-loaded), mixed accept/reject plus unknown-pattern
/// probes: every verdict correct, every counter adds up.
fn mixed_verdicts_scenario(server: Server) {
    const CLIENTS: usize = 32;
    const PER_CLIENT: usize = 4;

    let cases: &[(&str, &[u8], Status)] = &[
        ("abb", b"bababb", Status::Accepted),
        ("abb", b"baba", Status::Rejected),
        ("digits", b"0123456789012345", Status::Accepted),
        ("digits", b"123x", Status::Rejected),
        ("word", b"alpha-beta-gamma-delta", Status::Accepted),
        ("word", b"Alpha", Status::Rejected),
        ("mask", b"bbbbbaabab", Status::Accepted),
        ("mask", b"bb", Status::Rejected),
        ("no-such-pattern", b"whatever", Status::Protocol),
    ];

    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let expected = Arc::new(std::sync::Mutex::new(std::collections::HashMap::<
        &'static str,
        [u64; 3],
    >::new()));
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let expected = Arc::clone(&expected);
            scope.spawn(move || {
                let mut rng = XorShift64::new(0x9e37 + client as u64);
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(20)))
                    .unwrap();
                for _ in 0..PER_CLIENT {
                    let (id, body, want) = cases[(rng.next_u64() % cases.len() as u64) as usize];
                    let response = protocol::query(&mut stream, id, body).expect("query");
                    assert_eq!(response.status, want, "pattern {id} body {body:?}");
                    assert_eq!(response.scanned, body.len() as u64);
                    let mut tally = expected.lock().unwrap();
                    let slot = tally.entry(id).or_default();
                    match want {
                        Status::Accepted => slot[0] += 1,
                        Status::Rejected => slot[1] += 1,
                        _ => slot[2] += 1,
                    }
                }
            });
        }
    });

    let report = server_thread.join().unwrap();
    let total = (CLIENTS * PER_CLIENT) as u64;
    assert_eq!(report.tally.requests, total);
    assert_eq!(report.tally.connections, CLIENTS as u64);
    assert_eq!(report.connections.len(), CLIENTS);
    report.verify().expect("reconciliation invariants");

    let expected = expected.lock().unwrap();
    let sum = |i: usize| -> u64 { expected.values().map(|v| v[i]).sum() };
    assert_eq!(report.tally.accepted, sum(0));
    assert_eq!(report.tally.rejected, sum(1));
    assert_eq!(report.tally.protocol_errors, sum(2));

    // Per-pattern counters agree with what the clients sent.
    for pattern in &report.patterns {
        let [accepted, rejected, _] = expected
            .get(pattern.id.as_str())
            .copied()
            .unwrap_or_default();
        assert_eq!(pattern.stats.accepted, accepted, "{}", pattern.id);
        assert_eq!(pattern.stats.rejected, rejected, "{}", pattern.id);
    }
    // Per-connection counters sum to the global ones.
    let conn_requests: u64 = report.connections.iter().map(|c| c.requests).sum();
    assert_eq!(conn_requests, total);
}

#[test]
fn thirty_two_concurrent_connections_mixed_verdicts() {
    let server = Server::bind(
        "127.0.0.1:0",
        test_registry(),
        ServeConfig {
            max_requests: Some(32 * 4),
            idle_timeout: Some(Duration::from_secs(10)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    mixed_verdicts_scenario(server);
}

/// The identical client workload against a server whose registry is
/// built from a pattern file: verdicts, totals and reconciliation must
/// be indistinguishable from the prebuilt-registry run.
#[test]
fn thirty_two_concurrent_connections_mixed_verdicts_from_a_spec_file() {
    let server = bind_test_spec_file(
        "mixed",
        ServeConfig {
            max_requests: Some(32 * 4),
            idle_timeout: Some(Duration::from_secs(10)),
            ..ServeConfig::default()
        },
    );
    mixed_verdicts_scenario(server);
}

/// A request body larger than the configured budget is drained and
/// answered `Budget` without breaking the connection; a pipelined
/// follow-up on the same socket still gets its verdict.
#[test]
fn oversized_body_answers_budget_and_keeps_the_connection() {
    let server = Server::bind(
        "127.0.0.1:0",
        test_registry(),
        ServeConfig {
            max_requests: Some(3),
            max_body_bytes: 64,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let big = vec![b'7'; 200];
    let response = protocol::query(&mut stream, "digits", &big).unwrap();
    assert_eq!(response.status, Status::Budget);
    assert_eq!(
        response.scanned, 200,
        "oversized body must still be drained"
    );
    let response = protocol::query(&mut stream, "digits", b"12345").unwrap();
    assert_eq!(response.status, Status::Accepted);
    let response = protocol::query(&mut stream, "abb", b"abb").unwrap();
    assert_eq!(response.status, Status::Accepted);
    drop(stream);

    let report = server_thread.join().unwrap();
    assert_eq!(report.tally.budget_errors, 1);
    assert_eq!(report.tally.accepted, 2);
}

/// Joins the server thread, failing the test if it is still running
/// `bound` after the call: a loop that waits through its cancel would
/// otherwise hang the test.
fn join_within<T>(server: JoinHandle<T>, bound: Duration) -> T {
    let cutoff = Instant::now() + bound;
    while !server.is_finished() {
        assert!(
            Instant::now() < cutoff,
            "the loop still ran {bound:?} after its cancel"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.join().unwrap()
}

/// The cancel token stops an idle server promptly — the shutdown path a
/// supervisor would use — although it wakes none of the sockets the
/// loop waits on.
#[test]
fn cancel_token_stops_the_loop() {
    let mut server = Server::bind("127.0.0.1:0", test_registry(), ServeConfig::default()).unwrap();
    let cancel = CancelToken::new();
    server.set_cancel(cancel.clone());
    let server_thread = std::thread::spawn(move || server.run().unwrap());
    std::thread::sleep(Duration::from_millis(50));
    cancel.cancel();
    let report = join_within(server_thread, Duration::from_secs(1));
    assert_eq!(report.tally.requests, 0);
}

/// The `/proc` directory of this process's thread named `name`.
#[cfg(target_os = "linux")]
fn task_named(name: &str) -> PathBuf {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .flatten()
        .map(|task| task.path())
        .find(|task| {
            std::fs::read_to_string(task.join("comm")).is_ok_and(|comm| comm.trim_end() == name)
        })
        .unwrap_or_else(|| panic!("no thread named {name}"))
}

/// How often the thread at `task` blocked and woke again (its voluntary
/// context switches), and the CPU time it used, in clock ticks.
#[cfg(target_os = "linux")]
fn wakeups_and_cpu_ticks(task: &std::path::Path) -> (u64, u64) {
    let status = std::fs::read_to_string(task.join("status")).unwrap();
    let wakeups = status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .expect("status reports voluntary_ctxt_switches")
        .trim()
        .parse()
        .unwrap();
    // `utime` and `stime` are fields 14 and 15 of `stat`, the 12th and
    // 13th after the parenthesised thread name.
    let stat = std::fs::read_to_string(task.join("stat")).unwrap();
    let cpu = stat[stat.rfind(')').unwrap() + 1..]
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|ticks| ticks.parse::<u64>().unwrap())
        .sum();
    (wakeups, cpu)
}

/// With one silent connection open, the loop blocks in its readiness
/// wait instead of ticking: over 500 ms its thread wakes at most 150
/// times and uses at most 10 clock ticks (100 ms at the usual 100 Hz) of
/// CPU. Its 10 ms wait cap allows about 50 wakes. A loop that sleeps
/// 500 µs per idle tick wakes about 850 times, and one that spins
/// through zero-timeout waits never blocks but burns the window's CPU.
#[cfg(target_os = "linux")]
#[test]
fn an_idle_loop_waits_instead_of_ticking() {
    const LOOP: &str = "idle-serve-loop";
    let mut server = Server::bind("127.0.0.1:0", test_registry(), ServeConfig::default()).unwrap();
    let cancel = CancelToken::new();
    server.set_cancel(cancel.clone());
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::Builder::new()
        .name(LOOP.into())
        .spawn(move || server.run().unwrap())
        .unwrap();
    let silent = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let task = task_named(LOOP);
    let (wakeups, cpu) = wakeups_and_cpu_ticks(&task);
    std::thread::sleep(Duration::from_millis(500));
    let (wakeups_after, cpu_after) = wakeups_and_cpu_ticks(&task);
    let (woke, ticks) = (wakeups_after - wakeups, cpu_after - cpu);

    drop(silent);
    cancel.cancel();
    let report = join_within(server_thread, Duration::from_secs(1));
    assert!(woke <= 150, "the idle loop woke {woke} times in 500 ms");
    assert!(
        ticks <= 10,
        "the idle loop used {ticks} CPU ticks in 500 ms"
    );
    assert_eq!(report.tally.connections, 1);
    assert_eq!(report.tally.requests, 0);
}

/// A request that stalls after its first byte on an otherwise idle loop
/// is answered `Deadline` when its deadline expires: not before, and not
/// an unbounded wait later (the loop's wait ends at the earliest
/// deadline; the client's 1 s read timeout fails the test past that).
#[test]
fn a_stalled_request_on_an_idle_loop_meets_its_deadline() {
    let deadline = Duration::from_millis(100);
    let mut server = Server::bind(
        "127.0.0.1:0",
        test_registry(),
        ServeConfig {
            request_deadline: Some(deadline),
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
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let written = Instant::now();
    stream.write_all(&[protocol::MAGIC]).unwrap();
    let response = protocol::read_response(&mut stream).unwrap();
    let waited = written.elapsed();
    assert_eq!(response.status, Status::Deadline);
    assert!(
        waited >= deadline && waited < Duration::from_secs(1),
        "answered {waited:?} after the write"
    );

    drop(stream);
    cancel.cancel();
    let report = join_within(server_thread, Duration::from_secs(1));
    assert_eq!(report.tally.deadline_errors, 1, "{:?}", report.tally);
    report.verify().expect("reconciliation invariants");
}

/// The patterns of the differential oracle.
const ORACLE_PATTERNS: [(&str, &str); 4] = [
    ("abb", "(a|b)*abb"),
    ("digits", "[0-9]+"),
    ("word", "[a-z]+(-[a-z]+)*"),
    ("mask", "[ab]*a[ab]{4}"),
];

/// A 0–8 KiB body for `ORACLE_PATTERNS[pattern]`: a member where the
/// length allows one, and one XOR-corrupted byte half the time.
fn oracle_body(pattern: usize, rng: &mut XorShift64) -> Vec<u8> {
    let len = rng.below(8 * 1024 + 1) as usize;
    let alphabet: &[u8] = match pattern {
        1 => b"0123456789",
        2 => b"abcdefghijklmnopqrstuvwxyz",
        _ => b"ab",
    };
    let mut body: Vec<u8> = (0..len)
        .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
        .collect();
    match pattern {
        0 if len >= 3 => body[len - 3..].copy_from_slice(b"abb"),
        // Hyphens only between letters: never first, last or doubled.
        2 => {
            for i in 1..len.saturating_sub(1) {
                if body[i - 1] != b'-' && rng.below(8) == 0 {
                    body[i] = b'-';
                }
            }
        }
        3 if len >= 5 => body[len - 5] = b'a',
        _ => {}
    }
    if len > 0 && rng.below(2) == 0 {
        let at = rng.below(len as u64) as usize;
        body[at] ^= 1 + rng.below(255) as u8;
    }
    body
}

/// Seeded differential oracle over one server: four clients each write
/// 1–4 frames back to back, then read their responses in order. Bodies
/// of 0–8 KiB cross the 2 KiB offload threshold, so both lanes run and
/// frames arrive right behind offloaded bodies, often in the same read as
/// the body's last bytes. Every status and `scanned` value must match a
/// serial DFA built independently of the server, and the per-pattern
/// stats must equal the clients' counts.
#[test]
fn pipelined_frames_on_both_lanes_match_a_serial_dfa_oracle() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 64;

    let oracles: Vec<_> = ORACLE_PATTERNS
        .iter()
        .map(|(_, re)| determinize(&glushkov::build(&regex::parse(re).unwrap()).unwrap()))
        .collect();
    let mut registry = PatternRegistry::new(registry_config());
    for (id, re) in ORACLE_PATTERNS {
        registry.insert_regex(id, re).unwrap();
    }
    let server = Server::bind(
        "127.0.0.1:0",
        registry,
        ServeConfig {
            max_requests: Some((CLIENTS * PER_CLIENT) as u64),
            offload_bytes: 2048,
            offload_tick_bytes: 512,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut expected = [PatternStats::default(); ORACLE_PATTERNS.len()];
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let oracles = &oracles;
                scope.spawn(move || {
                    let mut rng = XorShift64::new(0x0ac1e + client as u64);
                    let mut stream = TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let mut counts = [PatternStats::default(); ORACLE_PATTERNS.len()];
                    let mut sent = 0;
                    while sent < PER_CLIENT {
                        let depth = (1 + rng.below(4) as usize).min(PER_CLIENT - sent);
                        let mut frames = Vec::new();
                        let mut wanted = Vec::new();
                        for _ in 0..depth {
                            let pattern = rng.below(ORACLE_PATTERNS.len() as u64) as usize;
                            let body = oracle_body(pattern, &mut rng);
                            let id = ORACLE_PATTERNS[pattern].0;
                            frames.extend(protocol::encode_request(id, &body).unwrap());
                            wanted.push((pattern, oracles[pattern].accepts(&body), body.len()));
                        }
                        stream.write_all(&frames).unwrap();
                        for (pattern, accepted, len) in wanted {
                            let response = protocol::read_response(&mut stream).unwrap();
                            let status = if accepted {
                                Status::Accepted
                            } else {
                                Status::Rejected
                            };
                            assert_eq!(
                                (response.status, response.scanned),
                                (status, len as u64),
                                "client {client}, request {sent}: {} on {len} bytes",
                                ORACLE_PATTERNS[pattern].0
                            );
                            let count = &mut counts[pattern];
                            count.requests += 1;
                            count.accepted += accepted as u64;
                            count.rejected += !accepted as u64;
                            count.bytes += len as u64;
                            sent += 1;
                        }
                    }
                    counts
                })
            })
            .collect();
        for client in clients {
            for (total, counts) in expected.iter_mut().zip(client.join().unwrap()) {
                total.merge(counts);
            }
        }
    });

    let report = server_thread.join().unwrap();
    report.verify().expect("reconciliation invariants");
    assert_eq!(report.tally.requests, (CLIENTS * PER_CLIENT) as u64);
    for ((id, _), expected) in ORACLE_PATTERNS.iter().zip(expected) {
        assert!(
            expected.accepted > 0 && expected.rejected > 0,
            "{id}: one-sided mix"
        );
        let served = report.patterns.iter().find(|p| p.id == *id).unwrap();
        assert_eq!(served.stats, expected, "{id}");
    }
}

/// With `max_connections: 2`, a third concurrent connection is accepted
/// and dropped at once, so its client reads EOF instead of hanging, while
/// the first two keep getting verdicts; the report counts all three
/// connections and the one refused.
#[test]
fn a_connection_past_the_cap_reads_eof_and_is_counted_refused() {
    let mut server = Server::bind(
        "127.0.0.1:0",
        test_registry(),
        ServeConfig {
            max_connections: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let cancel = CancelToken::new();
    server.set_cancel(cancel.clone());
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let connect = || {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
    };
    // Both are served before the third connects, so they hold the two
    // slots when it arrives.
    let mut open = [connect(), connect()];
    for stream in &mut open {
        let response = protocol::query(stream, "digits", b"1").unwrap();
        assert_eq!(response.status, Status::Accepted);
    }
    let mut third = connect();
    assert_eq!(third.read(&mut [0u8; 1]).unwrap(), 0, "refused: EOF");
    for stream in &mut open {
        let response = protocol::query(stream, "abb", b"abb").unwrap();
        assert_eq!(response.status, Status::Accepted);
    }
    drop(open);
    cancel.cancel();
    let report = server_thread.join().unwrap();
    assert_eq!(report.tally.connections, 3, "{:?}", report.tally);
    assert_eq!(report.tally.refused, 1, "{:?}", report.tally);
    assert_eq!(report.tally.accepted, 4);
    report.verify().expect("reconciliation invariants");
}
