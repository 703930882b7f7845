//! The socket front-end: one non-blocking **event loop** that accepts
//! its own connections and splits each one's requests into an inline
//! and an offload **lane**.
//!
//! [`Server`] serves a pattern set over TCP with a readiness loop over
//! non-blocking `std::net` sockets (no external event-loop dependency).
//! It is layered as:
//!
//! * the event loop — the thread that calls [`Server::run`]: it owns
//!   the listener, the [`PatternRegistry`] and every connection, and
//!   interleaves reload, read/write, offload and accept passes per
//!   tick. A tick that made no progress blocks in `poll(2)` on the
//!   listener and the connections until one is ready for what the next
//!   tick would do with it, the earliest request deadline or idle expiry
//!   comes due, or a 10 ms cap runs out;
//! * the lanes — per connection, bodies at or below
//!   [`ServeConfig::offload_bytes`] scan inline as they arrive, while
//!   larger bodies are staged and scanned one bounded slice per tick
//!   through the registry's pooled reach phase, so one huge body never
//!   stalls the tick for the small requests sharing the loop.
//!
//! Parallelism comes from that pooled reach phase — the paper's chunked
//! scan — and not from replicated loops: loop replicas fed by an
//! acceptor thread measured below one loop on one and on two cores.
//!
//! The `poll` call is the module's only `unsafe` code, and the reason
//! the server needs a Unix target.
//!
//! # Hot reload
//!
//! A server bound from a pattern *file*
//! ([`bind_spec_file`](Server::bind_spec_file)) with
//! [`ServeConfig::reload_interval`] set runs a watcher thread that
//! re-parses the file and publishes changed specs into a
//! generation-stamped [`RegistrySnapshot`]. The loop notices the
//! generation change at its next tick, within the wait cap on an idle
//! loop, and applies the insert/evict delta
//! without dropping a connection; an in-flight scan on a replaced
//! pattern fails typed (wire status `Protocol`), never with a wrong
//! verdict.
//!
//! # Backpressure
//!
//! Two bounds keep a flood of fast writers or slow readers from
//! starving the loop or the heap:
//!
//! * **read budget** — each tick reads at most
//!   [`ServeConfig::tick_read_budget`] bytes *across all connections*;
//!   sockets left unread stay queued in their kernel buffers (TCP flow
//!   control propagates the pressure to the sender);
//! * **write high-water mark** — a connection with more than
//!   [`ServeConfig::max_pending_response_bytes`] of unflushed responses
//!   is not read from until the client drains its responses.
//!
//! The offload lane adds a third: a connection whose staged backlog
//! exceeds a few scan slices is not read from either, so staging is
//! O(slices), not O(body).
//!
//! # Lifecycle
//!
//! [`Server::run`] starts the watcher, if any, and runs the loop on the
//! calling thread until an optional request quota
//! ([`ServeConfig::max_requests`]) is met or an optional
//! [`CancelToken`] trips. It then flushes pending responses, joins the
//! watcher and returns a report whose counters are cross-checked
//! ([`ServerReport::verify`]), so a lost or double-counted request is
//! an invariant failure, not a silent skew.

pub mod protocol;

mod conn;
mod event_loop;
mod lanes;
mod readiness;

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ridfa_automata::ConstructionBudget;

use crate::csdpa::budget::CancelToken;
use crate::csdpa::plan::EnginePlan;
use crate::csdpa::registry::{PatternRegistry, PatternStats, RegistryConfig};
use crate::csdpa::spec::{PatternSpec, RegistrySnapshot};

/// Sizing, bounding and termination knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Stop after this many completed requests (any status). `None`
    /// runs until cancelled.
    pub max_requests: Option<u64>,
    /// Per-request wall-clock deadline, measured from the first header
    /// byte; expiry answers [`Status`](protocol::Status)`::Deadline` and
    /// closes the connection.
    pub request_deadline: Option<Duration>,
    /// Close connections silent for this long (stalled mid-request or
    /// idle between requests alike).
    pub idle_timeout: Option<Duration>,
    /// Open-connection cap; connections beyond it are accepted and
    /// immediately dropped so the client sees EOF, not a hang.
    pub max_connections: usize,
    /// Per-connection read size per tick.
    pub read_buf_bytes: usize,
    /// Total bytes read per tick across all connections (backpressure;
    /// see the [module docs](self)).
    pub tick_read_budget: usize,
    /// Largest declared request body; larger ones are drained and
    /// answered [`Status`](protocol::Status)`::Budget`.
    pub max_body_bytes: u64,
    /// Unflushed-response high-water mark above which a connection is
    /// not read from.
    pub max_pending_response_bytes: usize,
    /// Declared body size above which a request leaves the inline lane
    /// and is scanned in bounded slices by the offload lane. The default
    /// (`u64::MAX`) keeps every body inline.
    pub offload_bytes: u64,
    /// Slice size of one offload-lane pooled scan (per connection per
    /// tick).
    pub offload_tick_bytes: usize,
    /// Poll interval of the spec watcher (hot reload). `None` — or a
    /// server not bound from a spec *file* — disables reloading.
    pub reload_interval: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_requests: None,
            request_deadline: None,
            idle_timeout: Some(Duration::from_secs(30)),
            max_connections: 256,
            read_buf_bytes: 16 * 1024,
            tick_read_budget: 1 << 20,
            max_body_bytes: u64::MAX,
            max_pending_response_bytes: 4096,
            offload_bytes: u64::MAX,
            offload_tick_bytes: 256 * 1024,
            reload_interval: None,
        }
    }
}

/// Global serving counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeTally {
    /// Completed requests, any status.
    pub requests: u64,
    /// Requests answered accepted.
    pub accepted: u64,
    /// Requests answered rejected.
    pub rejected: u64,
    /// Requests answered with a protocol error (bad frame, unknown or
    /// reloaded pattern id).
    pub protocol_errors: u64,
    /// Requests answered with a deadline expiry.
    pub deadline_errors: u64,
    /// Requests answered over-budget (body over the byte cap).
    pub budget_errors: u64,
    /// Requests answered with a contained recognizer fault.
    pub faults: u64,
    /// Connections dropped on a read/write error or mid-request EOF.
    pub io_errors: u64,
    /// Connections closed by the idle timeout.
    pub idle_closed: u64,
    /// Connections accepted and immediately dropped: over the cap, or
    /// with a socket that could not be made non-blocking.
    pub refused: u64,
    /// Connections accepted, refused ones included.
    pub connections: u64,
    /// Request-body bytes consumed (scanned or drained).
    pub bytes: u64,
}

/// Counters of one (closed or still-open) connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionReport {
    /// Peer address, or `"?"` when the socket could not tell.
    pub peer: String,
    /// Completed requests on this connection.
    pub requests: u64,
    /// Requests answered accepted.
    pub accepted: u64,
    /// Requests answered rejected.
    pub rejected: u64,
    /// Requests answered with any error status.
    pub errors: u64,
    /// Body bytes consumed on this connection.
    pub bytes: u64,
}

/// Per-pattern counters, lifted out of a registry at shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternReport {
    /// The pattern id.
    pub id: String,
    /// The registry's counters for it.
    pub stats: PatternStats,
    /// The resolved engine plan (`None` for a pattern that was retired —
    /// evicted or reloaded away — before shutdown).
    pub plan: Option<EnginePlan>,
}

/// What hot reload did to the registry over the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReloadTally {
    /// Spec generations the loop applied.
    pub generations: u64,
    /// Patterns inserted across all applied deltas.
    pub inserted: u64,
    /// Patterns evicted across all applied deltas.
    pub evicted: u64,
    /// Pattern inserts that failed (counted, not fatal).
    pub failed: u64,
}

/// Everything a finished [`Server::run`] observed.
#[derive(Debug, Clone, Default)]
pub struct ServerReport {
    /// Global counters.
    pub tally: ServeTally,
    /// Per-pattern counters, retired patterns included.
    pub patterns: Vec<PatternReport>,
    /// Per-connection counters, in close order.
    pub connections: Vec<ConnectionReport>,
    /// Hot-reload activity.
    pub reload: ReloadTally,
    /// Spec re-parse failures of the hot-reload watcher (the previous
    /// spec stays published).
    pub reload_errors: u64,
}

impl ServerReport {
    /// Cross-checks the reconciliation invariants: the status breakdown
    /// sums to the request total, connection-level counters re-sum to
    /// the same totals, every accepted connection is either reported or
    /// refused, and per-pattern verdicts match the tally. Returns the
    /// first violated invariant as text.
    pub fn verify(&self) -> Result<(), String> {
        let t = &self.tally;
        let by_status = t.accepted
            + t.rejected
            + t.protocol_errors
            + t.deadline_errors
            + t.budget_errors
            + t.faults;
        if by_status != t.requests {
            return Err(format!(
                "status breakdown sums to {by_status}, tally says {} requests",
                t.requests
            ));
        }
        let by_conn: u64 = self.connections.iter().map(|c| c.requests).sum();
        if by_conn != t.requests {
            return Err(format!(
                "connection reports sum to {by_conn} requests, tally says {}",
                t.requests
            ));
        }
        let bytes_by_conn: u64 = self.connections.iter().map(|c| c.bytes).sum();
        if bytes_by_conn != t.bytes {
            return Err(format!(
                "connection reports sum to {bytes_by_conn} bytes, tally says {}",
                t.bytes
            ));
        }
        let reported = self.connections.len() as u64 + t.refused;
        if reported != t.connections {
            return Err(format!(
                "{} connection reports plus {} refused, tally says {} connections",
                self.connections.len(),
                t.refused,
                t.connections
            ));
        }
        // Per-pattern reconciliation — possible since registries carry
        // counters across hot reloads (a reload used to reset them to
        // zero, which made these sums meaningless). Every accepted or
        // rejected verdict pairs with exactly one registry bump, so those
        // sums are exact; pattern errors only bound the error-ish
        // statuses from above, because a request that dies before
        // reaching a pattern (bad frame, unknown id, connection EOF
        // mid-header) is counted by the tally but attributed to no
        // pattern.
        let accepted_by_pattern: u64 = self.patterns.iter().map(|p| p.stats.accepted).sum();
        if accepted_by_pattern != t.accepted {
            return Err(format!(
                "pattern reports sum to {accepted_by_pattern} accepted, tally says {}",
                t.accepted
            ));
        }
        let rejected_by_pattern: u64 = self.patterns.iter().map(|p| p.stats.rejected).sum();
        if rejected_by_pattern != t.rejected {
            return Err(format!(
                "pattern reports sum to {rejected_by_pattern} rejected, tally says {}",
                t.rejected
            ));
        }
        let errors_by_pattern: u64 = self.patterns.iter().map(|p| p.stats.errors).sum();
        let errorish =
            t.protocol_errors + t.deadline_errors + t.budget_errors + t.faults + t.io_errors;
        if errors_by_pattern > errorish {
            return Err(format!(
                "pattern reports sum to {errors_by_pattern} errors, above the {errorish} error-ish responses"
            ));
        }
        Ok(())
    }
}

/// The pattern file a spec-bound server re-reads for hot reload.
struct Watch {
    path: PathBuf,
    interval: Duration,
    budget: ConstructionBudget,
    /// The spec generation the watcher publishes and the loop applies.
    snapshot: RegistrySnapshot,
}

/// The non-blocking multi-pattern recognition server. See the
/// [module docs](self).
pub struct Server {
    listener: TcpListener,
    registry: PatternRegistry,
    watch: Option<Watch>,
    config: ServeConfig,
    cancel: Option<CancelToken>,
}

impl Server {
    /// Binds `addr` (port 0 picks a free port — read it back with
    /// [`local_addr`](Server::local_addr)) and prepares to serve
    /// `registry`'s patterns.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        registry: PatternRegistry,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            registry,
            watch: None,
            config,
            cancel: None,
        })
    }

    /// Binds `addr` and serves the pattern file at `path`, parsed with
    /// `registry_config.budget` into a registry built from its compiled
    /// artifacts. With [`ServeConfig::reload_interval`] set, the file is
    /// watched and edits hot-reload into the running loop.
    pub fn bind_spec_file<A: ToSocketAddrs>(
        addr: A,
        path: PathBuf,
        registry_config: RegistryConfig,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidInput, e);
        let text = std::fs::read_to_string(&path)?;
        let budget = registry_config.budget;
        let spec = PatternSpec::parse(&text, &budget, None).map_err(|e| invalid(e.to_string()))?;
        let registry = spec
            .build_registry(registry_config)
            .map_err(|e| invalid(e.to_string()))?;
        let watch = config.reload_interval.map(|interval| Watch {
            path,
            interval,
            budget,
            snapshot: RegistrySnapshot::new(Arc::new(spec)),
        });
        Ok(Server {
            watch,
            ..Server::bind(addr, registry, config)?
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Patterns the server starts out serving (hot reload can change
    /// the set later).
    pub fn pattern_count(&self) -> usize {
        self.registry.ids().count()
    }

    /// Installs a cancellation token: tripping it ends
    /// [`run`](Server::run) within about 10 ms, the cap on how long the
    /// loop blocks waiting for sockets (the token wakes no socket).
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Runs the event loop on the calling thread (and the spec watcher
    /// beside it, if any) until the request quota is met or the cancel
    /// token trips, then flushes pending responses and returns the
    /// counters. The loop never blocks on any one connection: with
    /// nothing to do it waits for readiness on all of them and the
    /// listener at once, and sees a tripped cancel token within about
    /// 10 ms. Only an error of the *listener* or of that wait aborts
    /// the run with `Err`.
    pub fn run(self) -> io::Result<ServerReport> {
        let Server {
            listener,
            mut registry,
            watch,
            config,
            cancel,
        } = self;
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // What the registry holds, read before the watcher can
            // publish a newer generation.
            let reload = watch.as_ref().map(|w| event_loop::Reload::new(&w.snapshot));
            let watcher = watch
                .as_ref()
                .map(|w| scope.spawn(|| watch_spec_file(w, &shutdown)));
            let report = {
                // Stops the watcher when the loop returns or panics.
                let _stop = SetOnDrop(&shutdown);
                event_loop::run(&listener, &mut registry, reload, &config, cancel.as_ref())
            };
            let reload_errors = match watcher {
                Some(handle) => handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                None => 0,
            };
            let report = ServerReport {
                reload_errors,
                ..report?
            };
            debug_assert!(
                report.verify().is_ok(),
                "reconciliation invariant violated: {:?}",
                report.verify()
            );
            Ok(report)
        })
    }
}

/// Sets its flag when dropped, unwinding included.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// The spec watcher loop: re-parses the watched file every interval,
/// publishing specs whose fingerprint actually changed. Parse failures
/// are counted and the previous spec stays live. Returns the failure
/// count.
fn watch_spec_file(watch: &Watch, shutdown: &AtomicBool) -> u64 {
    let mut errors = 0u64;
    let (_, mut current) = watch.snapshot.load();
    'watch: loop {
        // Sleep in small slices so shutdown stays prompt even with a
        // long reload interval.
        let mut slept = Duration::ZERO;
        while slept < watch.interval {
            if shutdown.load(Ordering::Acquire) {
                break 'watch;
            }
            let slice = Duration::from_millis(50).min(watch.interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
        let Ok(text) = std::fs::read_to_string(&watch.path) else {
            // Mid-edit or replaced file; try again next interval.
            errors += 1;
            continue;
        };
        match PatternSpec::parse(&text, &watch.budget, Some(&current)) {
            Ok(spec) if spec.fingerprint() != current.fingerprint() => {
                let spec = Arc::new(spec);
                current = Arc::clone(&spec);
                watch.snapshot.publish(spec);
            }
            Ok(_) => {}
            Err(_) => errors += 1,
        }
    }
    errors
}
