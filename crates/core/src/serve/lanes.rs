//! The body-size lanes: inline scanning for small requests, pooled
//! offload scanning for large ones.
//!
//! Routing happens at header time ([`conn::ingest`](super::conn::ingest)):
//! a body at or below [`ServeConfig::offload_bytes`] is scanned inline as
//! it arrives; a larger one is *staged* — received into
//! [`Conn::offload_buf`] — and scanned here, one bounded slice
//! ([`ServeConfig::offload_tick_bytes`]) per connection per tick,
//! through [`PatternRegistry::scan_block_pooled`] (a parallel reach
//! phase over the registry's worker pool). The tick's latency therefore
//! stays bounded no matter how large a body is: the cheap path never
//! waits behind the expensive one (PaREM's feasible-start discipline
//! applied to serving).
//!
//! Backpressure: the loop stops reading a connection whose staged
//! backlog exceeds a few slices (see
//! [`offload_backlogged`]), which propagates to the sender as TCP flow
//! control — staging is O(slices), not O(body).

use crate::csdpa::registry::PatternRegistry;

use super::conn::{scan_error_status, Conn, Phase};
use super::protocol::Status;
use super::{ServeConfig, ServeTally};

/// Staged-byte level above which the loop stops reading a connection
/// (the client keeps its bytes in the socket buffers instead).
pub(crate) fn offload_backlogged(conn: &Conn, config: &ServeConfig) -> bool {
    conn.offload_buf.len() >= config.offload_tick_bytes.max(1).saturating_mul(4)
}

/// Scans at most one slice of a connection's staged offload bytes, and
/// answers the request once the body is complete and fully drained.
/// Returns `true` when it made progress (the loop's idle detection).
pub(crate) fn pump_offload(
    conn: &mut Conn,
    registry: &mut PatternRegistry,
    config: &ServeConfig,
    tally: &mut ServeTally,
) -> bool {
    let finishing = conn.phase == Phase::Finishing;
    let staged = conn.offload_buf.len();
    if staged == 0 && !finishing {
        return false;
    }
    let slice = config.offload_tick_bytes.max(1);
    // Mid-receive, wait until a full slice is staged so pooled scans
    // stay big; once the body is complete, take whatever is left.
    if !finishing && staged < slice {
        return false;
    }
    if staged > 0 {
        let take = staged.min(slice);
        if conn.offload_status.is_none() {
            if let Err(e) =
                registry.scan_block_pooled(&conn.pattern, &mut conn.scan, &conn.offload_buf[..take])
            {
                // Typed mid-scan failure: verdict decided, the rest of
                // the staged bytes drop unscanned, frame sync survives.
                registry.record_error(&conn.pattern);
                conn.offload_status = Some(scan_error_status(&e));
            }
        }
        conn.offload_buf.drain(..take);
    }
    if finishing && conn.offload_buf.is_empty() {
        let consumed = conn.consumed;
        match conn.offload_status.take() {
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
    true
}
