//! End-to-end workload loops: the in-process registry loops of `bulk`
//! and `stream`, and the loopback clients of the serve workloads, plus the
//! set-up and tear-down that bracket them.
//!
//! Every loop checks each verdict against the oracle as it arrives and
//! counts anything else — a wrong verdict, an error status, a timeout, an
//! unanswered request — as failed.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ridfa::automata::nfa::Nfa;
use ridfa::core::csdpa::{CancelToken, EnginePlan, PatternRegistry, RegistryConfig};
use ridfa::core::parallel::{PoolHealth, ThreadPool};
use ridfa::core::serve::protocol::{self, Status, MAGIC, RESPONSE_LEN};
use ridfa::core::serve::{ServeConfig, Server, ServerReport};

use crate::host;
use crate::inputs::{Item, PATTERNS, TRAFFIC};
use crate::trace::Trace;

/// Declared body size above which the server routes a request through the
/// offload lane (`serve::lanes` → `scan_block_pooled`). Fixed, so
/// `serve_large` always exercises the lane and `serve_small` never does.
pub const OFFLOAD_BYTES: u64 = 64 * 1024;

/// A response slower than this counts as a timeout (failed).
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

/// Failure descriptions kept per run (the count is exact regardless).
const MAX_NOTES: usize = 8;

/// When a measured phase ends.
pub struct Window {
    /// The end.
    pub end: Instant,
}

impl Window {
    /// A window of `seconds` starting now.
    pub fn new(seconds: f64) -> Window {
        Window {
            end: Instant::now() + Duration::from_secs_f64(seconds),
        }
    }

    fn more(&self) -> bool {
        Instant::now() < self.end
    }
}

/// What one measured phase did.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations (recognitions or requests) started.
    pub attempted: u64,
    /// Wrong verdicts, error statuses, timeouts and unanswered requests.
    pub failed: u64,
    /// Operations that returned an accepted verdict (status, for serve).
    pub accepted: u64,
    /// Operations that returned a rejected verdict (status, for serve).
    pub rejected: u64,
    /// Input bytes recognized.
    pub bytes: u64,
    /// Per-operation latency; for the open loop, from the due send time.
    pub latencies_ns: Vec<u64>,
    /// Input bytes of each operation, in the order of `latencies_ns`.
    pub op_bytes: Vec<u64>,
    /// How late each request was sent (open loop: after its due time;
    /// closed loop: after the previous response).
    pub late_ns: Vec<u64>,
    /// Wall time of the phase.
    pub wall: Duration,
    /// Process CPU time (all threads) during the phase.
    pub cpu: Duration,
    /// The first few failures, described.
    pub notes: Vec<String>,
    started: Option<(Instant, Duration)>,
}

impl Run {
    fn start() -> Run {
        Run {
            started: Some(clocks()),
            ..Run::default()
        }
    }

    fn finish(self) -> Run {
        self.finish_at(clocks())
    }

    /// Ends the phase at `end`, a [`clocks`] reading.
    fn finish_at(mut self, (t1, cpu1): (Instant, Duration)) -> Run {
        let (t0, cpu0) = self.started.take().expect("run was started");
        self.wall = t1 - t0;
        self.cpu = cpu1.saturating_sub(cpu0);
        self
    }

    /// Records one answered operation's latency and input bytes.
    fn sample(&mut self, latency: Duration, bytes: u64) {
        self.latencies_ns.push(latency.as_nanos() as u64);
        self.op_bytes.push(bytes);
        self.bytes += bytes;
    }

    /// Records one finished operation.
    fn verdict(&mut self, got: Result<bool, String>, expected: bool, what: &str) {
        self.attempted += 1;
        match got {
            Ok(accepted) => {
                if accepted {
                    self.accepted += 1;
                } else {
                    self.rejected += 1;
                }
                if accepted != expected {
                    self.fail(format!("{what}: verdict {accepted}, oracle {expected}"));
                }
            }
            Err(e) => self.fail(format!("{what}: {e}")),
        }
    }

    /// Adds `other`, a finished phase, to this one.
    pub fn absorb(&mut self, other: Run) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.bytes += other.bytes;
        self.latencies_ns.extend(other.latencies_ns);
        self.op_bytes.extend(other.op_bytes);
        self.late_ns.extend(other.late_ns);
        self.wall += other.wall;
        self.cpu += other.cpu;
        let room = MAX_NOTES.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }

    /// Counts one failure.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note);
        }
    }
}

/// Wall clock and process CPU time, read together.
fn clocks() -> (Instant, Duration) {
    (Instant::now(), host::cpu_time())
}

/// Builds a registry of the four patterns under `EnginePlan::Auto`,
/// appending each insert's wall time (ms) to `insert_ms`.
pub fn build_registry(nfas: &[Nfa], insert_ms: &mut Vec<f64>) -> Result<PatternRegistry, String> {
    let mut registry = PatternRegistry::new(RegistryConfig::default());
    for (id, nfa) in PATTERNS.iter().zip(nfas) {
        let t0 = Instant::now();
        registry
            .insert_nfa_planned(id, nfa, EnginePlan::Auto)
            .map_err(|e| format!("insert {id}: {e}"))?;
        insert_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(registry)
}

/// Pool health must show no contained panic, no respawn and full quorum.
pub fn check_health(health: PoolHealth) -> Result<(), String> {
    if health.panics_trapped > 0 || health.respawns > 0 || health.live != health.configured {
        return Err(format!("worker pool degraded: {health:?}"));
    }
    Ok(())
}

/// `bulk`: one caller, `registry.recognize(id, text, 0)` round-robin.
pub fn bulk(
    registry: &mut PatternRegistry,
    items: &[Item],
    window: &Window,
    mut trace: Option<&mut Trace>,
) -> Run {
    let mut run = Run::start();
    for item in items.iter().cycle() {
        if !window.more() {
            break;
        }
        let t0 = Instant::now();
        let got = registry.recognize(PATTERNS[item.pattern], &item.text, 0);
        let t1 = Instant::now();
        let bytes = item.text.len() as u64;
        if let Some(trace) = trace.as_deref_mut() {
            trace.record("e2e.recognize", None, trace.at(t0), trace.at(t1), bytes);
        }
        run.sample(t1 - t0, bytes);
        let got = got.map(|o| o.accepted).map_err(|e| e.to_string());
        run.verdict(got, item.expected, PATTERNS[item.pattern]);
    }
    run.finish()
}

/// `stream`: one caller, `registry.recognize_stream` over in-memory logs.
pub fn stream(
    registry: &mut PatternRegistry,
    items: &[Item],
    window: &Window,
    mut trace: Option<&mut Trace>,
) -> Run {
    let mut run = Run::start();
    for item in items.iter().cycle() {
        if !window.more() {
            break;
        }
        let t0 = Instant::now();
        let got = registry.recognize_stream(PATTERNS[item.pattern], &item.text[..]);
        let t1 = Instant::now();
        // A rejected stream stops at its corrupt record: count the bytes
        // it validated, not the ones it never read.
        let bytes = got.as_ref().map_or(0, |o| o.bytes);
        if let Some(trace) = trace.as_deref_mut() {
            trace.record(
                "e2e.recognize_stream",
                None,
                trace.at(t0),
                trace.at(t1),
                bytes,
            );
        }
        run.sample(t1 - t0, bytes);
        let got = got.map(|o| o.accepted).map_err(|e| e.to_string());
        run.verdict(got, item.expected, PATTERNS[item.pattern]);
    }
    run.finish()
}

/// The request frame header for a body of `len` bytes.
pub fn header(id: &str, len: usize) -> Vec<u8> {
    let mut frame = vec![MAGIC, id.len() as u8];
    frame.extend_from_slice(id.as_bytes());
    frame.extend_from_slice(&(len as u64).to_le_bytes());
    frame
}

/// Reads response frames from a socket with a read timeout, keeping any
/// partial frame across timeouts.
struct Responses {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Responses {
    fn new(stream: TcpStream, poll: Duration) -> io::Result<Responses> {
        stream.set_read_timeout(Some(poll))?;
        Ok(Responses {
            stream,
            buf: Vec::with_capacity(4 * RESPONSE_LEN),
        })
    }

    /// The next response, or `None` when the read timed out first.
    fn next(&mut self) -> io::Result<Option<protocol::Response>> {
        while self.buf.len() < RESPONSE_LEN {
            let mut chunk = [0u8; 64];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let response = protocol::read_response(&mut &self.buf[..RESPONSE_LEN])?;
        self.buf.drain(..RESPONSE_LEN);
        Ok(Some(response))
    }
}

fn status_verdict(response: protocol::Response, len: usize) -> Result<bool, String> {
    match response.status {
        _ if response.scanned != len as u64 => Err(format!(
            "server scanned {} of {len} bytes",
            response.scanned
        )),
        Status::Accepted => Ok(true),
        Status::Rejected => Ok(false),
        other => Err(format!("status {other:?}")),
    }
}

/// A loopback [`Server`] on its own thread, one client connection to it,
/// and the client-side tallies its report is reconciled against.
pub struct LoopbackServer {
    /// The client connection (nodelay).
    pub conn: TcpStream,
    cancel: CancelToken,
    handle: JoinHandle<io::Result<ServerReport>>,
    pool: Arc<ThreadPool>,
    /// Requests the client sent, and the statuses it received.
    requests: u64,
    accepted: u64,
    rejected: u64,
}

impl LoopbackServer {
    /// Binds `registry` on an ephemeral loopback port and returns once
    /// the server has answered a first request (the empty traffic log).
    pub fn start(registry: PatternRegistry) -> Result<LoopbackServer, String> {
        let pool = registry.shared_pool();
        let config = ServeConfig {
            offload_bytes: OFFLOAD_BYTES,
            ..ServeConfig::default()
        };
        let io = |e: io::Error| format!("loopback server: {e}");
        let mut server = Server::bind("127.0.0.1:0", registry, config).map_err(io)?;
        let addr = server.local_addr().map_err(io)?;
        let cancel = CancelToken::new();
        server.set_cancel(cancel.clone());
        let handle = std::thread::Builder::new()
            .name("perfbench-server".into())
            .spawn(move || server.run())
            .map_err(io)?;
        let connected = TcpStream::connect(addr).and_then(|mut conn| {
            conn.set_nodelay(true)?;
            conn.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
            let first = protocol::query(&mut conn, PATTERNS[TRAFFIC], b"")?;
            Ok((conn, first.status))
        });
        let conn = match connected {
            Ok((conn, Status::Accepted)) => conn,
            failed => {
                // Never leave the server thread running behind an error.
                cancel.cancel();
                let _ = handle.join();
                return Err(match failed {
                    Ok((_, status)) => format!("first request answered {status:?}"),
                    Err(e) => io(e),
                });
            }
        };
        Ok(LoopbackServer {
            conn,
            cancel,
            handle,
            pool,
            requests: 1,
            accepted: 1,
            rejected: 0,
        })
    }

    /// Adds a loop's requests to the client-side tallies.
    pub fn count(&mut self, run: &Run) {
        self.requests += run.attempted;
        self.accepted += run.accepted;
        self.rejected += run.rejected;
    }

    /// Stops the server and checks its report: the reconciliation
    /// invariants, tallies equal to what the client saw, no error of any
    /// kind, and a healthy worker pool.
    pub fn stop(self) -> Result<ServerReport, String> {
        drop(self.conn);
        self.cancel.cancel();
        let report = self
            .handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server run: {e}"))?;
        report.verify()?;
        let t = &report.tally;
        if (t.requests, t.accepted, t.rejected) != (self.requests, self.accepted, self.rejected) {
            return Err(format!(
                "server counted {}/{}/{} requests/accepted/rejected, client {}/{}/{}",
                t.requests, t.accepted, t.rejected, self.requests, self.accepted, self.rejected
            ));
        }
        let errors =
            t.protocol_errors + t.deadline_errors + t.budget_errors + t.faults + t.io_errors;
        if errors > 0 {
            return Err(format!("server reported {errors} errors: {t:?}"));
        }
        check_health(self.pool.health())?;
        Ok(report)
    }
}

/// Closed loop on one connection: send a request, wait for its response,
/// send the next. Bodies over [`OFFLOAD_BYTES`] take the offload lane.
pub fn closed_loop(
    conn: &mut TcpStream,
    items: &[Item],
    window: &Window,
    mut trace: Option<&mut Trace>,
) -> Run {
    let headers: Vec<Vec<u8>> = items
        .iter()
        .map(|i| header(PATTERNS[i.pattern], i.text.len()))
        .collect();
    let mut run = Run::start();
    let mut previous = Instant::now();
    for (item, head) in items.iter().zip(&headers).cycle() {
        if !window.more() {
            break;
        }
        let t0 = Instant::now();
        run.late_ns.push((t0 - previous).as_nanos() as u64);
        let response = conn
            .write_all(head)
            .and_then(|()| conn.write_all(&item.text))
            .and_then(|()| protocol::read_response(conn));
        let t1 = Instant::now();
        previous = t1;
        let bytes = item.text.len() as u64;
        if let Some(trace) = trace.as_deref_mut() {
            trace.record("e2e.request", None, trace.at(t0), trace.at(t1), bytes);
        }
        let what = PATTERNS[item.pattern];
        match response {
            Ok(response) => {
                run.sample(t1 - t0, bytes);
                run.verdict(
                    status_verdict(response, item.text.len()),
                    item.expected,
                    what,
                );
            }
            Err(e) => {
                // The connection is unusable after a failed round trip.
                run.attempted += 1;
                run.fail(format!("{what}: {e}"));
                break;
            }
        }
    }
    run.finish()
}

/// Open loop on one pipelined connection: a writer thread sends request
/// `i` at `start + i / rate` whatever the server does, and the calling
/// thread times each response from its request's due time — so a stall
/// also charges every request queued behind it.
pub fn open_loop(
    conn: &TcpStream,
    items: &[Item],
    rate: f64,
    window: &Window,
    mut trace: Option<&mut Trace>,
) -> Run {
    let frames: Vec<Vec<u8>> = items
        .iter()
        .map(|i| {
            let mut frame = header(PATTERNS[i.pattern], i.text.len());
            frame.extend_from_slice(&i.text);
            frame
        })
        .collect();
    let period_ns = (1e9 / rate) as u64;
    let mut run = Run::start();
    let (mut writer, reader) = match (conn.try_clone(), conn.try_clone()) {
        (Ok(w), Ok(r)) => (w, r),
        (Err(e), _) | (_, Err(e)) => {
            run.attempted += 1;
            run.fail(format!("clone connection: {e}"));
            return run.finish();
        }
    };
    let mut responses = match Responses::new(reader, Duration::from_millis(50)) {
        Ok(r) => r,
        Err(e) => {
            run.attempted += 1;
            run.fail(format!("read timeout: {e}"));
            return run.finish();
        }
    };
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: u64| start + Duration::from_nanos(i * period_ns);
    let stop = window.end;
    let sent = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    // The writer stays alive until the phase's CPU time is read: an
    // exited thread's run time drops out of the per-thread counters.
    let release = std::sync::Barrier::new(2);
    let (late, end) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut late = Vec::new();
            let mut i = 0u64;
            let mut error = None;
            while due(i) < stop {
                let now = Instant::now();
                if due(i) > now {
                    std::thread::sleep(due(i) - now);
                }
                late.push((Instant::now() - due(i)).as_nanos() as u64);
                if let Err(e) = writer.write_all(&frames[i as usize % frames.len()]) {
                    error = Some(e);
                    break;
                }
                i += 1;
                sent.store(i, Ordering::Release);
            }
            done.store(true, Ordering::Release);
            release.wait();
            (late, error)
        });
        let mut received = 0u64;
        let mut last = Instant::now();
        loop {
            let finished = done.load(Ordering::Acquire);
            let sent_now = sent.load(Ordering::Acquire);
            if finished && received >= sent_now {
                break;
            }
            match responses.next() {
                Ok(Some(response)) => {
                    let t = Instant::now();
                    last = t;
                    let item = &items[received as usize % items.len()];
                    let due = due(received);
                    if let Some(trace) = trace.as_deref_mut() {
                        let bytes = item.text.len() as u64;
                        trace.record("e2e.request", None, trace.at(due), trace.at(t), bytes);
                    }
                    let latency = t.saturating_duration_since(due);
                    run.sample(latency, item.text.len() as u64);
                    let mut got = status_verdict(response, item.text.len());
                    if latency > RESPONSE_TIMEOUT {
                        got = Err(format!("timed out after {latency:?}"));
                    }
                    run.verdict(got, item.expected, PATTERNS[item.pattern]);
                    received += 1;
                }
                Ok(None) if last.elapsed() < RESPONSE_TIMEOUT => {}
                outcome => {
                    // Stalled or broken: whatever was sent and not
                    // answered fails, and the writer is told to stop.
                    let why = match outcome {
                        Err(e) => e.to_string(),
                        _ => "no response".into(),
                    };
                    let _ = responses.stream.shutdown(std::net::Shutdown::Both);
                    let sent_now = sender_total(&sent, &done);
                    for _ in received..sent_now {
                        run.attempted += 1;
                        run.fail(format!("unanswered: {why}"));
                    }
                    break;
                }
            }
        }
        sender_total(&sent, &done);
        let end = clocks();
        release.wait();
        let (late, error) = sender.join().expect("open-loop writer panicked");
        if let Some(e) = error {
            run.attempted += 1;
            run.fail(format!("send: {e}"));
        }
        (late, end)
    });
    // The read timeout is a property of the socket, shared by every
    // clone: put back the one the closed-loop path relies on.
    if let Err(e) = conn.set_read_timeout(Some(RESPONSE_TIMEOUT)) {
        run.fail(format!("restore read timeout: {e}"));
    }
    run.late_ns = late;
    run.finish_at(end)
}

/// Requests sent once the writer has stopped (it stops on the shut-down
/// socket's first failed write).
fn sender_total(sent: &AtomicU64, done: &AtomicBool) -> u64 {
    while !done.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(1));
    }
    sent.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::TcpListener;

    /// A stand-in server that stalls before reading anything, then
    /// answers every request `Accepted` at once.
    fn stalling_server(stall: Duration) -> (TcpStream, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(stall);
            let mut out = stream.try_clone().unwrap();
            let mut input = BufReader::new(stream);
            let mut body = Vec::new();
            loop {
                let mut head = [0u8; 2];
                if input.read_exact(&mut head).is_err() {
                    return;
                }
                let mut id = vec![0u8; head[1] as usize];
                let mut len = [0u8; 8];
                input.read_exact(&mut id).unwrap();
                input.read_exact(&mut len).unwrap();
                body.resize(u64::from_le_bytes(len) as usize, 0);
                input.read_exact(&mut body).unwrap();
                let answer = protocol::encode_response(Status::Accepted, body.len() as u64);
                out.write_all(&answer).unwrap();
            }
        });
        let conn = TcpStream::connect(addr).unwrap();
        conn.set_nodelay(true).unwrap();
        (conn, handle)
    }

    #[test]
    fn open_loop_times_requests_from_their_due_time() {
        // 100 MiB/s of 256 KiB requests against a server that reads
        // nothing for 400 ms: the socket buffers fill, the writer blocks
        // and sends late. Latency must still run from each due time, so
        // it can never be shorter than how late the request went out.
        let (conn, server) = stalling_server(Duration::from_millis(400));
        let items = vec![Item {
            pattern: 0,
            text: vec![b'a'; 256 << 10],
            expected: true,
        }];
        let run = open_loop(&conn, &items, 400.0, &Window::new(0.6), None);
        drop(conn);
        server.join().unwrap();
        assert_eq!(run.failed, 0, "{:?}", run.notes);
        assert_eq!(run.latencies_ns.len(), run.late_ns.len());
        let most_late = *run.late_ns.iter().max().unwrap();
        assert!(
            most_late > 50_000_000,
            "writer never blocked: {most_late} ns"
        );
        for (j, (&latency, &late)) in run.latencies_ns.iter().zip(&run.late_ns).enumerate() {
            assert!(
                latency >= late,
                "request {j}: latency {latency} < lateness {late}"
            );
        }
        assert!(
            run.latencies_ns[0] >= 350_000_000,
            "the stall is charged to the first request"
        );
    }
}
