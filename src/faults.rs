//! Deterministic fault injection for the chaos suite (`tests/chaos.rs`)
//! and the adversarial-reader matrix of `tests/stream.rs`.
//!
//! Everything here is deterministic by construction: readers fail at
//! exact byte offsets, the panic-injecting chunk automaton fires on an
//! exact scan ordinal, [`kill_workers`] kills an exact number of pool
//! workers through an ordinary pool batch (the path production code
//! runs, not a test-only entry point), and the only randomness available
//! is the seeded [`XorShift64`] generator. Re-running a failing test
//! reproduces the same fault schedule.
//!
//! The module is compiled into the library (not `#[cfg(test)]`) so both
//! the integration tests of this crate and downstream robustness
//! harnesses can reuse it; it has no effect on the recognition paths
//! unless explicitly wired in.

use std::io::{self, Read};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ridfa_automata::counter::Counter;
use ridfa_core::csdpa::{budget::InterruptProbe, ChunkAutomaton};
use ridfa_core::parallel::ThreadPool;

/// A reader that hands out at most `max` bytes per `read` call —
/// exercises the short-read retry loop of the streaming block filler
/// (1-byte readers, block-misaligned pipes).
pub struct ShortReader<R> {
    inner: R,
    max: usize,
}

impl<R: Read> ShortReader<R> {
    /// Wraps `inner`, delivering at most `max` (≥ 1) bytes per call.
    pub fn new(inner: R, max: usize) -> ShortReader<R> {
        ShortReader {
            inner,
            max: max.max(1),
        }
    }
}

impl<R: Read> Read for ShortReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.max.min(buf.len());
        self.inner.read(&mut buf[..n])
    }
}

/// A reader that stalls: before every successful read it returns `burst`
/// consecutive [`io::ErrorKind::Interrupted`] errors — the one error kind
/// the streaming layer must retry, per POSIX `EINTR` semantics.
pub struct StallingReader<R> {
    inner: R,
    burst: usize,
    remaining: usize,
}

impl<R: Read> StallingReader<R> {
    /// Wraps `inner`, injecting `burst` interrupts before each read.
    pub fn new(inner: R, burst: usize) -> StallingReader<R> {
        StallingReader {
            inner,
            burst,
            remaining: burst,
        }
    }
}

impl<R: Read> Read for StallingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining > 0 {
            self.remaining -= 1;
            return Err(io::Error::new(io::ErrorKind::Interrupted, "injected stall"));
        }
        self.remaining = self.burst;
        self.inner.read(buf)
    }
}

/// A reader that fails with a chosen [`io::ErrorKind`] after delivering
/// exactly `deliver` bytes — the mid-stream I/O fault. The error repeats
/// on every subsequent call (a broken pipe stays broken).
pub struct FailingReader<R> {
    inner: R,
    deliver: usize,
    delivered: usize,
    kind: io::ErrorKind,
}

impl<R: Read> FailingReader<R> {
    /// Wraps `inner`, failing with `kind` once `deliver` bytes went out.
    pub fn new(inner: R, deliver: usize, kind: io::ErrorKind) -> FailingReader<R> {
        FailingReader {
            inner,
            deliver,
            delivered: 0,
            kind,
        }
    }

    /// A reader failing with [`io::ErrorKind::WouldBlock`] — the
    /// canonical *non*-retryable kind a non-blocking fd surfaces.
    pub fn would_block(inner: R, deliver: usize) -> FailingReader<R> {
        FailingReader::new(inner, deliver, io::ErrorKind::WouldBlock)
    }
}

impl<R: Read> Read for FailingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deliver - self.delivered.min(self.deliver);
        if left == 0 {
            return Err(io::Error::new(self.kind, "injected I/O fault"));
        }
        let cap = left.min(buf.len());
        let n = self.inner.read(&mut buf[..cap])?;
        self.delivered += n;
        Ok(n)
    }
}

/// A chunk-automaton wrapper that panics on the `panic_on`-th interior
/// scan (1-based, counted across all calls) and behaves identically to
/// the wrapped CA otherwise. Exactly one panic fires, so the automaton
/// can keep serving requests afterwards — proving the session survived.
pub struct PanicCa<CA> {
    inner: CA,
    panic_on: usize,
    scans: AtomicUsize,
}

impl<CA> PanicCa<CA> {
    /// Wraps `inner`; the `panic_on`-th interior scan (1-based) panics.
    /// `panic_on == 0` never fires.
    pub fn new(inner: CA, panic_on: usize) -> PanicCa<CA> {
        PanicCa {
            inner,
            panic_on,
            scans: AtomicUsize::new(0),
        }
    }

    /// Interior scans attempted so far (including the panicking one).
    pub fn scans(&self) -> usize {
        self.scans.load(Ordering::SeqCst)
    }
}

impl<CA: ChunkAutomaton> ChunkAutomaton for PanicCa<CA> {
    type Mapping = CA::Mapping;
    type Scratch = CA::Scratch;
    type ComposeScratch = CA::ComposeScratch;

    fn scan_into(
        &self,
        chunk: &[u8],
        scratch: &mut Self::Scratch,
        counter: &mut impl Counter,
        out: &mut Self::Mapping,
    ) {
        let ordinal = self.scans.fetch_add(1, Ordering::SeqCst) + 1;
        if ordinal == self.panic_on {
            panic!("injected fault: interior scan #{ordinal}");
        }
        self.inner.scan_into(chunk, scratch, counter, out)
    }

    fn scan_first_into(&self, chunk: &[u8], counter: &mut impl Counter, out: &mut Self::Mapping) {
        self.inner.scan_first_into(chunk, counter, out)
    }

    fn compose_into(
        &self,
        left: &Self::Mapping,
        right: &Self::Mapping,
        scratch: &mut Self::ComposeScratch,
        out: &mut Self::Mapping,
    ) {
        self.inner.compose_into(left, right, scratch, out)
    }

    fn accepts_mapping(&self, mapping: &Self::Mapping) -> bool {
        self.inner.accepts_mapping(mapping)
    }

    fn mapping_is_dead(&self, mapping: &Self::Mapping) -> bool {
        self.inner.mapping_is_dead(mapping)
    }

    fn arm_interrupt(&self, scratch: &mut Self::Scratch, probe: Option<&InterruptProbe>) {
        self.inner.arm_interrupt(scratch, probe)
    }

    fn accepts_serial(&self, text: &[u8], counter: &mut impl Counter) -> bool {
        self.inner.accepts_serial(text, counter)
    }

    fn num_speculative_starts(&self) -> usize {
        self.inner.num_speculative_starts()
    }

    fn name(&self) -> &'static str {
        "faulty"
    }
}

/// A panic payload whose `Drop` panics *again* (when not already
/// unwinding): the untrappable-panic vector. A pool claimant whose task
/// panics with it after its batch already holds a payload drops it and
/// unwinds; a worker thread that does so dies, exercising the pool's
/// self-healing path.
pub struct WorkerKiller;

impl Drop for WorkerKiller {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            panic!("worker-killer payload dropped outside a panic");
        }
    }
}

/// Kills `n` pool workers through an ordinary batch, the path production
/// code runs, and waits (bounded) until each death registers in
/// [`ThreadPool::health`]: one [`ThreadPool::invoke_each`] batch in
/// which a barrier gives each claimant one task and `n + 1` worker tasks
/// panic with a [`WorkerKiller`], so the first payload is re-raised on
/// the caller (caught and leaked here) and each later one is dropped on
/// its worker, which dies. The next batch respawns them. Panics if `n`
/// is not below the pool's worker count or a death fails to register
/// within 10 s.
pub fn kill_workers(pool: &ThreadPool, n: usize) {
    let workers = pool.num_workers();
    assert!(
        n < workers,
        "killing {n} of {workers} workers needs a survivor"
    );
    // `live` alone cannot observe a death: a batch heals the pool, so a
    // respawn can mask the drop. Total deaths (healed + still dead) is
    // monotonic and registers every kill exactly once.
    let deaths = || {
        let health = pool.health();
        health.respawns + (health.configured - health.live) as u64
    };
    let deaths_before = deaths();
    let barrier = Barrier::new(workers + 1);
    let caller = std::thread::current().id();
    let killers = AtomicUsize::new(0);
    let mut locals = vec![(); workers + 1];
    let mut slots = vec![(); workers + 1];
    let batch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.invoke_each(&mut locals, &mut slots, |_, _, _| {
            barrier.wait();
            if std::thread::current().id() != caller && killers.fetch_add(1, Ordering::SeqCst) <= n
            {
                std::panic::panic_any(WorkerKiller);
            }
        });
    }));
    // Dropping the re-raised killer would panic here: leak it.
    std::mem::forget(batch.expect_err("the first killer is re-raised on the caller"));
    assert!(
        wait_until(|| deaths() >= deaths_before + n as u64),
        "{n} worker deaths did not register within the wait bound"
    );
}

/// Spins (yielding) until `cond` holds, for at most 10 seconds. Returns
/// whether the condition was met — callers assert on it.
pub fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// A regex whose powerset DFA holds ≥ 2^k states: `[ab]*a[ab]{k}`. Feed
/// it to a budgeted construction to exhaust a state/byte cap
/// deterministically (the blow-up is structural, not input-dependent).
pub fn state_explosion_pattern(k: usize) -> String {
    format!("[ab]*a[ab]{{{k}}}")
}

/// A tiny deterministic xorshift64 generator for seeded schedule
/// perturbation — no dependency on any external RNG crate.
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the generator (`0` is mapped to a fixed non-zero seed).
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// A pseudo-random value in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn short_reader_caps_every_read() {
        let mut r = ShortReader::new(Cursor::new(vec![7u8; 100]), 3);
        let mut buf = [0u8; 64];
        assert_eq!(r.read(&mut buf).unwrap(), 3);
    }

    #[test]
    fn stalling_reader_interrupts_then_delivers() {
        let mut r = StallingReader::new(Cursor::new(vec![1u8; 4]), 2);
        let mut buf = [0u8; 4];
        for _ in 0..2 {
            assert_eq!(
                r.read(&mut buf).unwrap_err().kind(),
                io::ErrorKind::Interrupted
            );
        }
        assert_eq!(r.read(&mut buf).unwrap(), 4);
    }

    #[test]
    fn failing_reader_fails_at_exact_offset() {
        let mut r = FailingReader::would_block(Cursor::new(vec![1u8; 100]), 10);
        let mut buf = [0u8; 64];
        let mut got = 0;
        loop {
            match r.read(&mut buf) {
                Ok(n) => got += n,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
                    break;
                }
            }
        }
        assert_eq!(got, 10);
        // The fault is persistent.
        assert!(r.read(&mut buf).is_err());
    }

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert!(XorShift64::new(0).below(10) < 10);
    }
}
