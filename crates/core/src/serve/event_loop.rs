//! The event loop: one thread owns the listener, the registry and every
//! connection, and runs readiness ticks of four passes:
//!
//! 1. **reload** — if the spec snapshot's generation moved, apply the
//!    insert/evict delta between requests (connections stay open;
//!    in-flight scans on replaced patterns fail typed);
//! 2. **serve** — flush, police deadlines/idle, read under the tick
//!    budget, and ingest: each read is scanned as it arrives, inline or
//!    in pooled offload slices ([`conn`](super::conn)), and completed
//!    requests are answered;
//! 3. **reap** — close connections that hung up, failed or idled out;
//! 4. **accept** — take every connection pending on the non-blocking
//!    listener, at the end of a tick that made no other progress and at
//!    most once per [`ACCEPT_PERIOD`] on a busy one.
//!
//! A tick that made no progress ends in a readiness wait
//! ([`readiness`](super::readiness)): the loop blocks in `poll(2)` on the
//! listener and every connection until a socket it would act on is
//! ready, the earliest request deadline or idle expiry comes due, or
//! [`WAIT_CAP`] runs out.
//!
//! The loop checks the cancel token, the request quota and the reload
//! generation itself. A cancel or a published reload wakes no socket, so
//! an idle loop sees it within one cap.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

use crate::csdpa::budget::CancelToken;
use crate::csdpa::registry::{PatternRegistry, PatternStats};
use crate::csdpa::spec::RegistrySnapshot;

use super::conn::{ingest, Conn};
use super::protocol::Status;
use super::readiness::{self, PollFd};
use super::{PatternReport, ReloadTally, ServeConfig, ServeTally, ServerReport};

/// Most bytes one read takes from one connection.
const READ_BUF_BYTES: usize = 16 * 1024;

/// Most bytes one tick reads across all connections (backpressure).
const TICK_READ_BUDGET: usize = 1 << 20;

/// Least time between two accept polls on ticks that made progress. A
/// non-blocking accept that finds nothing costs 3–4 µs on a 2-core VM,
/// and a busy offload tick does little more than one 16 KiB read per
/// connection, so polling on every tick would weigh on the loop. Polling
/// at most once per period spends under half a percent of a busy loop's
/// time and delays a new connection by about one period at most. An
/// idle loop accepts at once: the listener is in its wait set, and the
/// tick a pending connection wakes makes no other progress.
const ACCEPT_PERIOD: Duration = Duration::from_millis(1);

/// Longest readiness wait: how late an idle loop sees a cancel or a
/// published reload, which wake no socket. An idle loop wakes about
/// `1 s / WAIT_CAP` times a second.
const WAIT_CAP: Duration = Duration::from_millis(10);

/// The loop's side of hot reload: the spec generation the registry
/// holds, and the id → fingerprint map of its patterns.
pub(crate) struct Reload<'a> {
    snapshot: &'a RegistrySnapshot,
    generation: u64,
    applied: HashMap<String, u64>,
}

impl<'a> Reload<'a> {
    /// The state of a registry built from `snapshot`'s current spec.
    pub(crate) fn new(snapshot: &'a RegistrySnapshot) -> Reload<'a> {
        let (generation, spec) = snapshot.load();
        Reload {
            snapshot,
            generation,
            applied: spec.fingerprints(),
        }
    }
}

/// Serves until the cancel token trips or the request quota is met, and
/// reports what it saw (`reload_errors` is the watcher's to fill in).
/// Only a listener error ends the run with `Err`.
pub(crate) fn run(
    listener: &TcpListener,
    registry: &mut PatternRegistry,
    mut reload: Option<Reload<'_>>,
    config: &ServeConfig,
    cancel: Option<&CancelToken>,
) -> io::Result<ServerReport> {
    let mut tally = ServeTally::default();
    let mut reloads = ReloadTally::default();
    // A prebuilt registry may arrive with history (warm-up traffic, a
    // previous run): report only what *this* run adds, so the server's
    // per-pattern sums reconcile against its connection tally.
    let baseline: HashMap<String, PatternStats> = registry.all_stats().into_iter().collect();
    let mut conns: Vec<Conn> = Vec::new();
    let mut closed = Vec::new();
    let mut buf = vec![0u8; READ_BUF_BYTES];
    let mut rotate: usize = 0;
    let mut last_accept = Instant::now();
    // The wait set, rebuilt before each wait in the same allocation.
    let mut waits: Vec<PollFd> = Vec::new();

    let quota_hit = |tally: &ServeTally| {
        config
            .max_requests
            .is_some_and(|quota| tally.requests >= quota)
    };

    loop {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            grace_flush(&mut conns);
            break;
        }
        let mut progressed = false;

        // Reload pass: apply the spec delta between ticks. Open
        // connections are untouched; a scan in flight on a replaced
        // pattern fails typed at its next block.
        if let Some(reload) = &mut reload {
            if reload.snapshot.generation() != reload.generation {
                let (generation, spec) = reload.snapshot.load();
                let delta = spec.apply_to(registry, &mut reload.applied);
                reload.generation = generation;
                reloads.generations += 1;
                reloads.inserted += delta.inserted;
                reloads.evicted += delta.evicted;
                reloads.failed += delta.failed;
                progressed = true;
            }
        }

        // One read/write pass over every connection, rotating the start
        // so a tick-budget shortfall is not always paid by the same
        // sockets.
        let now = Instant::now();
        let mut read_budget = TICK_READ_BUDGET;
        let n = conns.len();
        let mut drop_list: Vec<usize> = Vec::new();
        for k in 0..n {
            let i = (rotate + k) % n;
            let conn = &mut conns[i];

            // Flush pending responses first.
            while conn.pending_out() > 0 {
                match conn.stream.write(&conn.outbuf[conn.out_written..]) {
                    Ok(0) => {
                        tally.io_errors += 1;
                        drop_list.push(i);
                        break;
                    }
                    Ok(written) => {
                        conn.out_written += written;
                        conn.last_activity = now;
                        progressed = true;
                        if conn.pending_out() == 0 {
                            conn.outbuf.clear();
                            conn.out_written = 0;
                            if conn.close_after_flush {
                                drop_list.push(i);
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => break,
                    Err(_) => {
                        tally.io_errors += 1;
                        drop_list.push(i);
                        break;
                    }
                }
            }
            if drop_list.last() == Some(&i) {
                continue;
            }

            // Deadline and idle policing.
            if let (Some(deadline), Some(started)) = (config.request_deadline, conn.req_started) {
                if now.duration_since(started) > deadline {
                    let consumed = conn.consumed;
                    conn.respond(Status::Deadline, consumed, &mut tally);
                    if !conn.pattern.is_empty() {
                        registry.record_error(&conn.pattern);
                    }
                    conn.close_after_flush = true;
                    progressed = true;
                    continue;
                }
            }
            if let Some(idle) = config.idle_timeout {
                if now.duration_since(conn.last_activity) > idle {
                    if conn.mid_request() {
                        tally.io_errors += 1;
                    }
                    tally.idle_closed += 1;
                    drop_list.push(i);
                    continue;
                }
            }

            // Read under the tick budget and the backpressure bounds.
            if read_budget == 0 || !wants_read(conn, config) {
                continue;
            }
            let want = buf.len().min(read_budget);
            match conn.stream.read(&mut buf[..want]) {
                Ok(0) => {
                    if conn.mid_request() {
                        tally.io_errors += 1;
                    }
                    drop_list.push(i);
                }
                Ok(got) => {
                    read_budget -= got;
                    conn.last_activity = now;
                    progressed = true;
                    if !ingest(conn, registry, config, &mut tally, &buf[..got]) {
                        conn.close_after_flush = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    tally.io_errors += 1;
                    drop_list.push(i);
                }
            }

            if quota_hit(&tally) {
                // Stop reading; the flush below answers what is already
                // queued.
                break;
            }
        }
        if n > 0 {
            rotate = (rotate + 1) % n;
        }

        // Reap (highest index first so the indices stay valid).
        drop_list.sort_unstable();
        drop_list.dedup();
        for &i in drop_list.iter().rev() {
            let conn = conns.swap_remove(i);
            closed.push(conn.report());
            progressed = true;
        }

        // Graceful quota shutdown: flush every queued response (bounded
        // by a short grace period) and stop accepting.
        if quota_hit(&tally) {
            grace_flush(&mut conns);
            break;
        }

        let polled = Instant::now();
        if !progressed || polled.duration_since(last_accept) >= ACCEPT_PERIOD {
            last_accept = polled;
            match accept_pending(listener, &mut conns, config, &mut tally) {
                Ok(arrived) => progressed |= arrived,
                Err(e) => {
                    grace_flush(&mut conns);
                    return Err(e);
                }
            }
        }
        if !progressed {
            if let Err(e) = wait_ready(listener, &conns, config, &mut waits) {
                grace_flush(&mut conns);
                return Err(e);
            }
        }
    }

    closed.extend(conns.iter().map(Conn::report));
    // `all_stats` covers retired patterns too, so requests served by a
    // pattern that was later evicted or hot-reloaded still show up (the
    // registry carries counters across reload generations).
    let patterns = registry
        .all_stats()
        .into_iter()
        .map(|(id, stats)| {
            let stats = match baseline.get(&id) {
                Some(b) => stats.since(b),
                None => stats,
            };
            let plan = registry.plan(&id);
            PatternReport { id, stats, plan }
        })
        .filter(|p| p.stats != PatternStats::default() || registry.contains(&p.id))
        .collect();
    Ok(ServerReport {
        tally,
        patterns,
        connections: closed,
        reload: reloads,
        reload_errors: 0,
    })
}

/// Whether the serve pass reads `conn` when the tick's read budget
/// allows: not closing and under the write high-water mark (TCP flow
/// control holds the sender meanwhile). The wait set asks for
/// [`readiness::READ`] on the same condition, so the loop neither wakes
/// for bytes it would leave unread nor sleeps through bytes it would
/// read.
fn wants_read(conn: &Conn, config: &ServeConfig) -> bool {
    !conn.close_after_flush && conn.pending_out() <= config.max_pending_response_bytes
}

/// Blocks until the listener has a connection pending, a connection is
/// readable that [`wants_read`] or writable with responses queued, the
/// earliest request deadline or idle expiry comes due, or [`WAIT_CAP`]
/// runs out.
fn wait_ready(
    listener: &TcpListener,
    conns: &[Conn],
    config: &ServeConfig,
    waits: &mut Vec<PollFd>,
) -> io::Result<()> {
    let now = Instant::now();
    let left = |limit: Duration, since: Instant| limit.saturating_sub(now.duration_since(since));
    let mut timeout = WAIT_CAP;
    waits.clear();
    waits.push(PollFd::new(listener, readiness::READ));
    for conn in conns {
        if let (Some(deadline), Some(started)) = (config.request_deadline, conn.req_started) {
            timeout = timeout.min(left(deadline, started));
        }
        if let Some(idle) = config.idle_timeout {
            timeout = timeout.min(left(idle, conn.last_activity));
        }
        let mut events = 0;
        if wants_read(conn, config) {
            events |= readiness::READ;
        }
        if conn.pending_out() > 0 {
            events |= readiness::WRITE;
        }
        waits.push(PollFd::new(&conn.stream, events));
    }
    readiness::wait(waits, timeout)?;
    Ok(())
}

/// Accepts every connection pending on `listener`. One past the
/// connection cap, or whose socket cannot be made non-blocking, is
/// dropped at once, so its client reads EOF instead of hanging, and
/// counted as refused. Returns whether any connection arrived.
fn accept_pending(
    listener: &TcpListener,
    conns: &mut Vec<Conn>,
    config: &ServeConfig,
    tally: &mut ServeTally,
) -> io::Result<bool> {
    let mut arrived = false;
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                arrived = true;
                tally.connections += 1;
                if conns.len() >= config.max_connections || stream.set_nonblocking(true).is_err() {
                    tally.refused += 1;
                    continue;
                }
                let _ = stream.set_nodelay(true);
                conns.push(Conn::new(stream, peer.to_string(), Instant::now()));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(arrived),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Best-effort flush of every connection's queued responses, bounded by
/// a short grace period (instant when nothing is pending).
fn grace_flush(conns: &mut [Conn]) {
    let grace = Instant::now() + Duration::from_secs(2);
    while conns.iter().any(|c| c.pending_out() > 0) && Instant::now() < grace {
        for conn in conns.iter_mut() {
            while conn.pending_out() > 0 {
                match conn.stream.write(&conn.outbuf[conn.out_written..]) {
                    Ok(0) => break,
                    Ok(written) => conn.out_written += written,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}
