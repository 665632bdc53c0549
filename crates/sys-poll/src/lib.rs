#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
//! # sys-poll — readiness waiting over `poll(2)`
//!
//! The standard library can make a socket nonblocking but cannot wait for
//! one to become ready. This crate fills exactly that gap and nothing
//! more: one `extern "C"` declaration of the C library's `poll`, which std
//! already links on every Unix target (so nothing is downloaded), a
//! `#[repr(C)]` [`PollFd`] that matches `struct pollfd`, the [`READ`] and
//! [`WRITE`] interest bits, and one safe function, [`wait`].
//!
//! ```no_run
//! use std::net::TcpListener;
//! let listener = TcpListener::bind("127.0.0.1:0")?;
//! let mut fds = [sys_poll::PollFd::new(&listener, sys_poll::READ)];
//! match sys_poll::wait(&mut fds, 20)? {
//!     0 => { /* 20 ms passed with nothing ready */ }
//!     _ => { /* fds[0].revents() says what is ready */ }
//! }
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! The unsafety is confined to the single call inside [`wait`]; the crate
//! opts out of the workspace-wide `forbid(unsafe_code)` in its own lints
//! table for that one block.

use std::io;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short};

/// Interest in (and readiness for) reading: data, a pending connection on
/// a listener, or end of stream (`POLLIN`).
pub const READ: i16 = 0x001;

/// Interest in (and readiness for) writing without blocking (`POLLOUT`).
pub const WRITE: i16 = 0x004;

/// One file descriptor to wait on, laid out exactly like C's
/// `struct pollfd`. Error and hang-up conditions (`POLLERR`, `POLLHUP`,
/// `POLLNVAL`) are always reported in [`PollFd::revents`], whatever the
/// interest, so a peer that resets or closes wakes the waiter.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Wait on `fd` for `interest` (a union of [`READ`] and [`WRITE`];
    /// `0` waits only for errors and hang-ups).
    pub fn new(fd: &impl AsRawFd, interest: i16) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events: interest,
            revents: 0,
        }
    }

    /// What the last [`wait`] found ready on this descriptor: interest
    /// bits that became ready plus any error or hang-up bits; `0` if
    /// nothing happened.
    pub fn revents(&self) -> i16 {
        self.revents
    }
}

#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Block until at least one of `fds` is ready or `timeout_ms` passes, and
/// return how many entries have a non-zero [`PollFd::revents`]; `Ok(0)`
/// means the timeout expired with nothing ready. A timeout beyond
/// `c_int::MAX` ms is clamped. A signal that interrupts the wait returns
/// an [`io::ErrorKind::Interrupted`] error, as `poll` itself does.
pub fn wait(fds: &mut [PollFd], timeout_ms: u64) -> io::Result<usize> {
    let nfds =
        Nfds::try_from(fds.len()).map_err(|_| io::Error::from(io::ErrorKind::InvalidInput))?;
    let timeout = c_int::try_from(timeout_ms).unwrap_or(c_int::MAX);
    // SAFETY: `PollFd` is `#[repr(C)]` with the field types and order of
    // C's `struct pollfd`, and `fds` is a live, exclusively borrowed slice
    // of exactly `nfds` of them, so `poll` reads and writes only memory we
    // own for the duration of the call. It keeps no pointer afterwards.
    // A descriptor that is not open is reported as `POLLNVAL`, not
    // undefined behaviour.
    let ready = unsafe { poll(fds.as_mut_ptr(), nfds, timeout) };
    usize::try_from(ready).map_err(|_| io::Error::last_os_error())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn layout_matches_struct_pollfd() {
        assert_eq!(std::mem::size_of::<PollFd>(), 8);
        assert_eq!(std::mem::align_of::<PollFd>(), 4);
    }

    #[test]
    fn nothing_ready_times_out_with_zero() {
        let (_client, server) = pair();
        let mut fds = [PollFd::new(&server, READ)];
        assert_eq!(wait(&mut fds, 10).unwrap(), 0);
        assert_eq!(fds[0].revents(), 0);
        // An empty set is a plain timed sleep.
        assert_eq!(wait(&mut [], 1).unwrap(), 0);
    }

    #[test]
    fn readable_socket_reports_read() {
        let (mut client, server) = pair();
        client.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(&server, READ)];
        assert_eq!(wait(&mut fds, 5_000).unwrap(), 1);
        assert_ne!(fds[0].revents() & READ, 0, "{:?}", fds[0]);
    }

    #[test]
    fn only_the_ready_entry_is_counted_and_marked() {
        let (_quiet_client, quiet) = pair();
        let (mut client, loud) = pair();
        client.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(&quiet, READ), PollFd::new(&loud, READ)];
        assert_eq!(wait(&mut fds, 5_000).unwrap(), 1);
        assert_eq!(fds[0].revents(), 0);
        assert_ne!(fds[1].revents() & READ, 0);
    }

    #[test]
    fn connected_socket_is_writable() {
        let (client, _server) = pair();
        let mut fds = [PollFd::new(&client, WRITE)];
        assert_eq!(wait(&mut fds, 5_000).unwrap(), 1);
        assert_ne!(fds[0].revents() & WRITE, 0);
    }

    #[test]
    fn peer_close_wakes_the_waiter() {
        // EOF must be prompt: a closed peer reports ready at once instead
        // of leaving the waiter to its timeout.
        let (client, server) = pair();
        drop(client);
        let mut fds = [PollFd::new(&server, READ)];
        assert_eq!(wait(&mut fds, 5_000).unwrap(), 1);
        assert_ne!(fds[0].revents(), 0);
    }

    #[test]
    fn pending_connection_makes_a_listener_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut fds = [PollFd::new(&listener, READ)];
        assert_eq!(wait(&mut fds, 1).unwrap(), 0);
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert_eq!(wait(&mut fds, 5_000).unwrap(), 1);
        assert_ne!(fds[0].revents() & READ, 0);
    }
}
