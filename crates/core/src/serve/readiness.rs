//! The readiness wait: the serve loop's one call into the C library,
//! `poll(2)`, which blocks until a socket the loop would act on is ready
//! or a timeout runs out.
//!
//! The wait only decides *when* the next tick runs. Which sockets turned
//! ready (`revents`) is never read back, so every verdict, deadline and
//! reap still comes from the tick itself, and a spurious wake costs one
//! tick that makes no progress.
//!
//! `poll` is the one in the C library that `std` already links on Unix
//! targets, so this module adds no dependency.

// The crate denies unsafe code; this module is the audited exception
// (the `poll` call, whose argument is a borrowed slice of `pollfd`s).
#![allow(unsafe_code)]

use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Wake when the socket is readable (`POLLIN`); for a listener, when a
/// connection is pending.
pub(crate) const READ: c_short = 0x001;
/// Wake when the socket is writable (`POLLOUT`).
pub(crate) const WRITE: c_short = 0x004;

/// One socket of a wait set: the C `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Waits on `socket` for `events` ([`READ`], [`WRITE`], both, or
    /// neither: an error or a hang-up wakes the wait in any case).
    pub(crate) fn new(socket: &impl AsRawFd, events: c_short) -> PollFd {
        PollFd {
            fd: socket.as_raw_fd(),
            events,
            revents: 0,
        }
    }
}

/// The C `nfds_t`.
#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until a socket of `fds` is ready for what it waits on or
/// `timeout`, rounded up to whole milliseconds, runs out. Returns how
/// many sockets are ready, 0 on a timeout; a signal that interrupts the
/// wait also returns 0.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ms = timeout
        .as_nanos()
        .div_ceil(1_000_000)
        .min(c_int::MAX as u128) as c_int;
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `pollfd`s, and `poll` reads their `fd`/`events` and writes their
    // `revents` for the first `fds.len()` entries only, within the call.
    // A descriptor closed since the entry was built cannot make it touch
    // other memory: it is only reported `POLLNVAL`.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
    if ready >= 0 {
        return Ok(ready as usize);
    }
    let error = io::Error::last_os_error();
    if error.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn an_idle_listener_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut fds = [PollFd::new(&listener, READ)];
        let started = Instant::now();
        assert_eq!(wait(&mut fds, Duration::from_millis(20)).unwrap(), 0);
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn pending_connections_and_bytes_wake_the_wait() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut fds = [PollFd::new(&listener, READ)];
        assert_eq!(wait(&mut fds, Duration::from_secs(10)).unwrap(), 1);

        let (server, _) = listener.accept().unwrap();
        // Writable at once; readable only once the client writes.
        let mut fds = [PollFd::new(&server, WRITE)];
        assert_eq!(wait(&mut fds, Duration::from_secs(10)).unwrap(), 1);
        let mut fds = [PollFd::new(&server, READ)];
        assert_eq!(wait(&mut fds, Duration::ZERO).unwrap(), 0);
        client.write_all(b"x").unwrap();
        assert_eq!(wait(&mut fds, Duration::from_secs(10)).unwrap(), 1);
    }
}
