//! The per-connection request state machine: header accumulation, lane
//! routing, body scanning, and response/counter bookkeeping.
//!
//! [`ingest`] feeds freshly read bytes through one connection's state
//! machine and scans them as they arrive. Small bodies (at or below
//! [`ServeConfig::offload_bytes`]) are scanned *inline*. Larger bodies
//! take the **offload lane**: the bytes are staged in
//! [`Conn::offload_buf`], and each full
//! [`ServeConfig::offload_tick_bytes`] slice is scanned through the
//! registry's pooled reach phase as soon as it is staged, the tail once
//! the body completes. Less than one slice stays staged, and a read
//! smaller than a slice completes at most one, so one huge body holds up
//! the other connections sharing the tick for one pooled scan at a time.
//!
//! A mid-scan registry error (contained fault, or the pattern being
//! evicted/reloaded under the scan) does not kill the connection: the
//! verdict is decided immediately, the staged bytes are dropped, the rest
//! of the body is drained unscanned, and frame sync survives — exactly
//! how unknown-pattern and over-budget requests are handled.

use std::net::TcpStream;
use std::time::Instant;

use crate::csdpa::registry::{PatternRegistry, RegistryError, StreamScan};

use super::protocol::{self, Status, MAGIC};
use super::{ConnectionReport, ServeConfig, ServeTally};

/// What a request is currently doing on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Accumulating the variable-length header into [`Conn::hdr`].
    Header,
    /// Consuming `remaining` body bytes. `pending` carries the error
    /// status of a request whose body is drained unscanned (unknown
    /// pattern, oversized body, mid-scan fault) so frame sync survives
    /// the error; `offload` marks bodies staged and scanned in pooled
    /// slices instead of inline.
    Body {
        /// Body bytes not yet received.
        remaining: u64,
        /// Already-decided error verdict, if any (body drains unscanned).
        pending: Option<Status>,
        /// Whether the body takes the offload lane.
        offload: bool,
    },
}

/// One accepted connection and everything it owns.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) peer: String,
    pub(crate) hdr: Vec<u8>,
    pub(crate) phase: Phase,
    pub(crate) pattern: String,
    scan: StreamScan,
    /// Body bytes consumed for the current request (scanned or drained).
    pub(crate) consumed: u64,
    /// Offload lane: staged body bytes short of a full slice, scanned
    /// once the slice fills or the body completes.
    offload_buf: Vec<u8>,
    pub(crate) outbuf: Vec<u8>,
    pub(crate) out_written: usize,
    pub(crate) close_after_flush: bool,
    pub(crate) req_started: Option<Instant>,
    pub(crate) last_activity: Instant,
    pub(crate) requests: u64,
    pub(crate) accepted: u64,
    pub(crate) rejected: u64,
    pub(crate) errors: u64,
    pub(crate) bytes: u64,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, peer: String, now: Instant) -> Conn {
        Conn {
            stream,
            peer,
            hdr: Vec::with_capacity(16),
            phase: Phase::Header,
            pattern: String::new(),
            scan: StreamScan::new(),
            consumed: 0,
            offload_buf: Vec::new(),
            outbuf: Vec::new(),
            out_written: 0,
            close_after_flush: false,
            req_started: None,
            last_activity: now,
            requests: 0,
            accepted: 0,
            rejected: 0,
            errors: 0,
            bytes: 0,
        }
    }

    pub(crate) fn pending_out(&self) -> usize {
        self.outbuf.len() - self.out_written
    }

    pub(crate) fn mid_request(&self) -> bool {
        !self.hdr.is_empty() || self.phase != Phase::Header
    }

    pub(crate) fn report(&self) -> ConnectionReport {
        ConnectionReport {
            peer: self.peer.clone(),
            requests: self.requests,
            accepted: self.accepted,
            rejected: self.rejected,
            errors: self.errors,
            bytes: self.bytes,
        }
    }

    /// Queues a response and books it into both counter sets.
    pub(crate) fn respond(&mut self, status: Status, scanned: u64, tally: &mut ServeTally) {
        self.outbuf
            .extend_from_slice(&protocol::encode_response(status, scanned));
        self.requests += 1;
        tally.requests += 1;
        match status {
            Status::Accepted => {
                self.accepted += 1;
                tally.accepted += 1;
            }
            Status::Rejected => {
                self.rejected += 1;
                tally.rejected += 1;
            }
            Status::Protocol | Status::Io => {
                self.errors += 1;
                tally.protocol_errors += 1;
            }
            Status::Deadline => {
                self.errors += 1;
                tally.deadline_errors += 1;
            }
            Status::Budget => {
                self.errors += 1;
                tally.budget_errors += 1;
            }
            Status::Fault => {
                self.errors += 1;
                tally.faults += 1;
            }
        }
        self.req_started = None;
    }
}

/// The wire status a mid-scan registry error maps to. A reloaded or
/// evicted pattern is a *naming*-level failure (the id no longer denotes
/// the automaton the scan started on) → `Protocol`, like an unknown id;
/// everything else is a contained fault.
pub(crate) fn scan_error_status(error: &RegistryError) -> Status {
    match error {
        RegistryError::UnknownPattern(_) | RegistryError::PatternReloaded { .. } => {
            Status::Protocol
        }
        _ => Status::Fault,
    }
}

/// Feeds freshly read bytes through a connection's request state
/// machine. Returns `false` when the connection must close after its
/// responses flush (frame sync lost).
pub(crate) fn ingest(
    conn: &mut Conn,
    registry: &mut PatternRegistry,
    config: &ServeConfig,
    tally: &mut ServeTally,
    mut data: &[u8],
) -> bool {
    while !data.is_empty() {
        match conn.phase {
            Phase::Header => {
                if conn.hdr.is_empty() && conn.req_started.is_none() {
                    conn.req_started = Some(Instant::now());
                }
                // Accumulate the smallest prefix that lets us decide.
                let need = match conn.hdr.len() {
                    0 | 1 => 2,
                    n => {
                        let id_len = conn.hdr[1] as usize;
                        if id_len == 0 {
                            conn.respond(Status::Protocol, 0, tally);
                            return false;
                        }
                        let total = 2 + id_len + 8;
                        if n >= total {
                            total
                        } else {
                            total.min(n + data.len())
                        }
                    }
                };
                let take = (need - conn.hdr.len()).min(data.len());
                conn.hdr.extend_from_slice(&data[..take]);
                data = &data[take..];
                if conn.hdr.len() < 2 {
                    continue;
                }
                if conn.hdr[0] != MAGIC {
                    conn.respond(Status::Protocol, 0, tally);
                    return false;
                }
                let id_len = conn.hdr[1] as usize;
                if id_len == 0 {
                    conn.respond(Status::Protocol, 0, tally);
                    return false;
                }
                if conn.hdr.len() < 2 + id_len + 8 {
                    continue;
                }
                // Full header: parse id and body length, pick the lane.
                let id_ok = std::str::from_utf8(&conn.hdr[2..2 + id_len]).ok();
                let mut body_len = [0u8; 8];
                body_len.copy_from_slice(&conn.hdr[2 + id_len..2 + id_len + 8]);
                let remaining = u64::from_le_bytes(body_len);
                let pending = match id_ok {
                    Some(id) if registry.contains(id) => {
                        conn.pattern.clear();
                        conn.pattern.push_str(id);
                        if remaining > config.max_body_bytes {
                            registry.record_error(&conn.pattern);
                            Some(Status::Budget)
                        } else {
                            conn.scan.reset();
                            None
                        }
                    }
                    _ => {
                        conn.pattern.clear();
                        Some(Status::Protocol)
                    }
                };
                let offload = pending.is_none() && remaining > config.offload_bytes;
                conn.hdr.clear();
                conn.consumed = 0;
                conn.phase = Phase::Body {
                    remaining,
                    pending,
                    offload,
                };
                if remaining == 0 {
                    finish_body(conn, registry, tally, pending);
                }
            }
            Phase::Body {
                remaining,
                pending,
                offload,
            } => {
                let take = remaining.min(data.len() as u64) as usize;
                let (chunk, rest) = data.split_at(take);
                data = rest;
                let remaining = remaining - take as u64;
                conn.consumed += take as u64;
                conn.bytes += take as u64;
                tally.bytes += take as u64;
                let mut pending = pending;
                if pending.is_none() {
                    let complete = remaining == 0;
                    if let Err(e) = scan_chunk(conn, registry, config, chunk, offload, complete) {
                        // Typed mid-scan failure: the verdict is decided
                        // now, the staged bytes drop, the rest of the body
                        // drains unscanned and unstaged, and the
                        // connection survives (frame sync is intact —
                        // `remaining` is known).
                        registry.record_error(&conn.pattern);
                        conn.offload_buf.clear();
                        pending = Some(scan_error_status(&e));
                    }
                }
                conn.phase = Phase::Body {
                    remaining,
                    pending,
                    offload,
                };
                if remaining == 0 {
                    finish_body(conn, registry, tally, pending);
                }
            }
        }
    }
    true
}

/// Scans one received body chunk on its lane. Inline, the chunk is one
/// block. Offloaded, it is staged, and every full slice of the staged
/// bytes is scanned through the pooled reach phase, the tail too once the
/// body is `complete`; slices start at multiples of the slice size into
/// the body, and less than one slice stays staged.
fn scan_chunk(
    conn: &mut Conn,
    registry: &mut PatternRegistry,
    config: &ServeConfig,
    chunk: &[u8],
    offload: bool,
    complete: bool,
) -> Result<(), RegistryError> {
    if !offload {
        registry.scan_block(&conn.pattern, &mut conn.scan, chunk)?;
        return Ok(());
    }
    let slice = config.offload_tick_bytes.max(1);
    conn.offload_buf.extend_from_slice(chunk);
    let staged = conn.offload_buf.len();
    let end = if complete {
        staged
    } else {
        staged - staged % slice
    };
    for block in conn.offload_buf[..end].chunks(slice) {
        registry.scan_block_pooled(&conn.pattern, &mut conn.scan, block)?;
    }
    conn.offload_buf.drain(..end);
    Ok(())
}

/// Answers a fully received body on either lane: its decided error, or
/// the verdict of its finished scan.
fn finish_body(
    conn: &mut Conn,
    registry: &mut PatternRegistry,
    tally: &mut ServeTally,
    pending: Option<Status>,
) {
    let consumed = conn.consumed;
    match pending {
        Some(status) => conn.respond(status, consumed, tally),
        None => match registry.finish_scan(&conn.pattern, &mut conn.scan) {
            Ok(true) => conn.respond(Status::Accepted, consumed, tally),
            Ok(false) => conn.respond(Status::Rejected, consumed, tally),
            Err(e) => {
                registry.record_error(&conn.pattern);
                conn.respond(scan_error_status(&e), consumed, tally);
            }
        },
    }
    conn.phase = Phase::Header;
}
