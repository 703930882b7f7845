//! Deadlines and cooperative cancellation for recognition.
//!
//! A [`Budget`] carries an optional wall-clock deadline and an optional
//! [`CancelToken`]; the two budgeted entry points
//! ([`Session::recognize_budgeted`](super::Session::recognize_budgeted)
//! and
//! [`StreamSession::recognize_stream_budgeted`](super::StreamSession::recognize_stream_budgeted))
//! thread it through the reach phase as an [`InterruptProbe`]. Each is
//! its unbudgeted twin's body run under one wrapper that also contains
//! panics, and every chunk of a text's reach and every block of a stream
//! is scanned through one chunk task that checks the probe:
//!
//! * at every chunk claim, before the chunk is scanned (a stream's
//!   claimant also checks before it reads its next block, and a tripped
//!   probe stops the stream's claims), and
//! * inside the scan [`kernel`](super::kernel) once per classification
//!   block (4 KiB), so even a single giant chunk honors a deadline with
//!   bounded latency;
//! * a check is one relaxed atomic load on the already-tripped path, and
//!   one `Instant::now()` per 4 KiB otherwise — entirely allocation-free,
//!   and within run-to-run noise on the `stream_throughput` bench (its
//!   budgeted 1 MiB-block row read 0.83–1.14× of the unbudgeted one over
//!   eleven quick-mode runs on a 2-core host, and 0.99–1.00× when the two
//!   calls alternate in one process; CI fails above 1.10×);
//! * once any claimant trips the probe, every other worker observes the
//!   shared flag at its next boundary and abandons its chunk.
//!
//! The unbudgeted entry points arm no probe and keep their historical
//! byte-for-byte hot loops.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation handle: clone it, hand one side to the
/// recognizer (via [`Budget::cancel`]) and keep the other to call
/// [`cancel`](CancelToken::cancel) from any thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](CancelToken::cancel) has been called on any
    /// clone of this token.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Resource bounds for one recognition call: an optional wall-clock
/// deadline and an optional cancellation token. The default budget is
/// unlimited.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Wall-clock instant after which the call fails with
    /// [`RecognizeError::DeadlineExceeded`].
    pub deadline: Option<Instant>,
    /// Cooperative cancellation: when the token fires, the call fails
    /// with [`RecognizeError::Cancelled`].
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// The unlimited budget (no deadline, no cancellation).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A budget with an absolute deadline.
    pub fn with_deadline(deadline: Instant) -> Budget {
        Budget {
            deadline: Some(deadline),
            cancel: None,
        }
    }

    /// A budget expiring `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget::with_deadline(Instant::now() + timeout)
    }

    /// A budget with only a cancellation token.
    pub fn with_cancel(token: &CancelToken) -> Budget {
        Budget {
            deadline: None,
            cancel: Some(token.clone()),
        }
    }

    /// Builder-style: adds a cancellation token.
    pub fn cancelled_by(mut self, token: &CancelToken) -> Budget {
        self.cancel = Some(token.clone());
        self
    }

    /// True when nothing bounds the call.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none()
    }

    /// Materializes the probe the executors thread through the scan
    /// kernel; `None` for an unlimited budget (nothing to check, the
    /// unbudgeted hot loops run untouched).
    pub(crate) fn probe(&self) -> Option<InterruptProbe> {
        if self.is_unlimited() {
            return None;
        }
        Some(InterruptProbe {
            shared: Arc::new(ProbeShared {
                tripped: AtomicU8::new(TRIP_NONE),
                deadline: self.deadline,
                cancel: self.cancel.clone(),
            }),
        })
    }
}

const TRIP_NONE: u8 = 0;
const TRIP_DEADLINE: u8 = 1;
const TRIP_CANCELLED: u8 = 2;

/// The shared interrupt flag of one budgeted call, checked by every
/// claimant at chunk/block boundaries. Cloning shares the flag (one
/// `Arc` bump — no allocation on the scan path).
#[derive(Debug, Clone)]
pub struct InterruptProbe {
    shared: Arc<ProbeShared>,
}

#[derive(Debug)]
struct ProbeShared {
    /// `TRIP_*` — which bound fired first, if any.
    tripped: AtomicU8,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl InterruptProbe {
    /// Returns true when the call should stop: a bound already fired, the
    /// token was cancelled, or the deadline passed. The first trip is
    /// recorded so every other claimant short-circuits on one relaxed
    /// load.
    #[inline]
    pub fn should_stop(&self) -> bool {
        let shared = &*self.shared;
        if shared.tripped.load(Ordering::Relaxed) != TRIP_NONE {
            return true;
        }
        if let Some(cancel) = &shared.cancel {
            if cancel.is_cancelled() {
                shared.tripped.store(TRIP_CANCELLED, Ordering::Relaxed);
                return true;
            }
        }
        if let Some(deadline) = shared.deadline {
            if Instant::now() >= deadline {
                shared.tripped.store(TRIP_DEADLINE, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// The typed error of the bound that fired, if any.
    pub fn status(&self) -> Option<RecognizeError> {
        match self.shared.tripped.load(Ordering::Relaxed) {
            TRIP_DEADLINE => Some(RecognizeError::DeadlineExceeded),
            TRIP_CANCELLED => Some(RecognizeError::Cancelled),
            _ => None,
        }
    }
}

/// Why a budgeted recognition call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecognizeError {
    /// The [`Budget`] deadline passed before the verdict was reached.
    DeadlineExceeded,
    /// The [`CancelToken`] fired before the verdict was reached.
    Cancelled,
    /// A scan or composition panicked; the panic was contained at the
    /// API boundary and the session/pool remain usable. The payload's
    /// message, if it had one.
    Panicked(String),
}

impl fmt::Display for RecognizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecognizeError::DeadlineExceeded => write!(f, "recognition deadline exceeded"),
            RecognizeError::Cancelled => write!(f, "recognition cancelled"),
            RecognizeError::Panicked(msg) => write!(f, "recognition panicked: {msg}"),
        }
    }
}

impl std::error::Error for RecognizeError {}

/// Why a budgeted streaming recognition call failed.
#[derive(Debug)]
pub enum StreamError {
    /// The reader failed mid-stream.
    Io(io::Error),
    /// The [`Budget`] deadline passed before the stream ended.
    DeadlineExceeded,
    /// The [`CancelToken`] fired before the stream ended.
    Cancelled,
    /// A scan or composition panicked; contained at the API boundary,
    /// the session remains usable.
    Panicked(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream read failed: {e}"),
            StreamError::DeadlineExceeded => write!(f, "stream recognition deadline exceeded"),
            StreamError::Cancelled => write!(f, "stream recognition cancelled"),
            StreamError::Panicked(msg) => write!(f, "stream recognition panicked: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> StreamError {
        StreamError::Io(e)
    }
}

impl From<RecognizeError> for StreamError {
    fn from(e: RecognizeError) -> StreamError {
        match e {
            RecognizeError::DeadlineExceeded => StreamError::DeadlineExceeded,
            RecognizeError::Cancelled => StreamError::Cancelled,
            RecognizeError::Panicked(msg) => StreamError::Panicked(msg),
        }
    }
}

/// Runs the body of a budgeted entry point: hands it `budget`'s probe
/// and turns any panic escaping it into a typed `Panicked` error, so no
/// panic unwinds across a budgeted API. Every budgeted entry point is
/// this wrapper around its unbudgeted body.
pub(crate) fn run_budgeted<T, E: From<RecognizeError>>(
    budget: &Budget,
    body: impl FnOnce(Option<&InterruptProbe>) -> Result<T, E>,
) -> Result<T, E> {
    let probe = budget.probe();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(probe.as_ref())))
        .unwrap_or_else(|payload| Err(RecognizeError::Panicked(panic_message(payload)).into()))
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_has_no_probe() {
        assert!(Budget::unlimited().is_unlimited());
        assert!(Budget::default().probe().is_none());
    }

    #[test]
    fn expired_deadline_trips_immediately() {
        let budget = Budget::with_deadline(Instant::now() - Duration::from_millis(1));
        let probe = budget.probe().unwrap();
        assert!(probe.should_stop());
        assert_eq!(probe.status(), Some(RecognizeError::DeadlineExceeded));
    }

    #[test]
    fn cancel_token_trips_all_clones() {
        let token = CancelToken::new();
        let probe = Budget::with_cancel(&token).probe().unwrap();
        assert!(!probe.should_stop());
        assert!(probe.status().is_none());
        token.cancel();
        let clone = probe.clone();
        assert!(clone.should_stop());
        assert_eq!(probe.status(), Some(RecognizeError::Cancelled));
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let budget = Budget::with_timeout(Duration::from_secs(3600));
        let probe = budget.probe().unwrap();
        assert!(!probe.should_stop());
        assert!(probe.status().is_none());
    }

    #[test]
    fn cancellation_wins_when_checked_first() {
        // Both bounds violated: the cancel check runs before the
        // deadline check, so the recorded reason is Cancelled.
        let token = CancelToken::new();
        token.cancel();
        let budget =
            Budget::with_deadline(Instant::now() - Duration::from_millis(1)).cancelled_by(&token);
        let probe = budget.probe().unwrap();
        assert!(probe.should_stop());
        assert_eq!(probe.status(), Some(RecognizeError::Cancelled));
    }

    #[test]
    fn errors_display_and_convert() {
        assert_eq!(
            RecognizeError::DeadlineExceeded.to_string(),
            "recognition deadline exceeded"
        );
        let s: StreamError = RecognizeError::Cancelled.into();
        assert!(matches!(s, StreamError::Cancelled));
        let s: StreamError = io::Error::new(io::ErrorKind::WouldBlock, "nope").into();
        assert!(matches!(s, StreamError::Io(_)));
        assert!(StreamError::Panicked("x".into()).to_string().contains('x'));
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        assert_eq!(panic_message(Box::new("boom")), "boom");
        assert_eq!(panic_message(Box::new(String::from("kaboom"))), "kaboom");
        assert_eq!(panic_message(Box::new(42u32)), "non-string panic payload");
    }
}
