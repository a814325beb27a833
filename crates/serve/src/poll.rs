//! A minimal, std-only wrapper over `poll(2)` and a self-pipe wake token.
//!
//! The serving front end is a single-threaded reactor: every client
//! socket (and the listener) is registered in one `poll` set, so the cost
//! of an idle connection is a file descriptor in the kernel's interest
//! list — not an OS thread and its stack. The repo vendors no `libc`
//! crate, so the three syscalls the reactor needs (`poll`, `pipe`,
//! `fcntl`) are declared here directly; std already links libc on every
//! unix target, making this a zero-dependency binding.
//!
//! The [`WakePipe`] is the reactor's cross-thread wake token: the batcher
//! and the shutdown path write one byte to the pipe's write end, which
//! makes the read end readable and pops the reactor out of `poll`.
//! This replaces the old `TcpStream::connect(self.addr)` shutdown wake,
//! which could itself fail under fd exhaustion or an unconnectable bind
//! address and leave the acceptor blocked forever — writing to an
//! already-open pipe allocates nothing and cannot fail that way.

#![allow(non_camel_case_types)]

use std::io;
use std::os::fd::RawFd;

/// `poll(2)` interest/result record, matching the C ABI layout.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct pollfd {
    /// File descriptor to watch (negative entries are ignored by the
    /// kernel).
    pub fd: RawFd,
    /// Requested events (`POLL_IN` / `POLL_OUT`).
    pub events: i16,
    /// Returned events; includes error conditions regardless of
    /// `events`.
    pub revents: i16,
}

/// Readable (or a pending connection on a listener).
pub const POLL_IN: i16 = 0x001;
/// Writable without blocking.
pub const POLL_OUT: i16 = 0x004;
/// Error condition (always reported, never requested).
pub const POLL_ERR: i16 = 0x008;
/// Peer hung up (always reported, never requested).
pub const POLL_HUP: i16 = 0x010;
/// The fd is not open (always reported, never requested).
pub const POLL_NVAL: i16 = 0x020;

const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
const O_NONBLOCK: i32 = 0o4000;

extern "C" {
    fn poll(fds: *mut pollfd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
    fn pipe(fds: *mut RawFd) -> i32;
    fn fcntl(fd: RawFd, cmd: i32, arg: i32) -> i32;
    fn read(fd: RawFd, buf: *mut u8, count: usize) -> isize;
    fn write(fd: RawFd, buf: *const u8, count: usize) -> isize;
    fn close(fd: RawFd) -> i32;
}

/// Blocks until any registered fd has events, the timeout elapses, or a
/// signal interrupts. `timeout_ms < 0` blocks indefinitely. Returns the
/// number of entries with non-zero `revents` (0 on timeout); `EINTR` is
/// swallowed and reported as 0 so callers simply re-loop.
///
/// # Errors
/// Propagates any other `poll(2)` failure.
pub fn poll_fds(fds: &mut [pollfd], timeout_ms: i32) -> io::Result<usize> {
    let n = unsafe {
        poll(
            fds.as_mut_ptr(),
            fds.len() as std::os::raw::c_ulong,
            timeout_ms,
        )
    };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(n as usize)
}

/// A nonblocking self-pipe: `wake()` from any thread makes `read_fd()`
/// readable in the reactor's poll set. Waking an already-woken pipe is a
/// no-op (the pipe buffer holding a byte is the "wake pending" state), so
/// arbitrarily many wakes between two poll rounds cost at most one
/// syscall each and coalesce into one readable event.
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

// RawFds are just integers; the syscalls used on them are thread-safe.
unsafe impl Send for WakePipe {}
unsafe impl Sync for WakePipe {}

impl WakePipe {
    /// Creates the pipe with both ends nonblocking.
    ///
    /// # Errors
    /// Propagates `pipe(2)`/`fcntl(2)` failures (e.g. fd exhaustion at
    /// server construction time).
    pub fn new() -> io::Result<Self> {
        let mut fds: [RawFd; 2] = [-1, -1];
        if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
            return Err(io::Error::last_os_error());
        }
        let this = Self {
            read_fd: fds[0],
            write_fd: fds[1],
        };
        for fd in fds {
            let flags = unsafe { fcntl(fd, F_GETFL, 0) };
            if flags < 0 || unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(this)
    }

    /// The end the reactor registers for `POLL_IN`.
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Makes the read end readable. Infallible by design: `EAGAIN` (pipe
    /// buffer full) means a wake is already pending, which is exactly the
    /// state this call wants to reach.
    pub fn wake(&self) {
        let byte = [1u8];
        let _ = unsafe { write(self.write_fd, byte.as_ptr(), 1) };
    }

    /// Consumes every pending wake byte so the next `poll` blocks again.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                return;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_makes_the_read_end_pollable_and_drain_clears_it() {
        let pipe = WakePipe::new().expect("pipe");
        let mut fds = [pollfd {
            fd: pipe.read_fd(),
            events: POLL_IN,
            revents: 0,
        }];
        // Nothing pending: an immediate poll times out.
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0);
        pipe.wake();
        pipe.wake(); // coalesces, never errors
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
        assert!(fds[0].revents & POLL_IN != 0);
        pipe.drain();
        fds[0].revents = 0;
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0);
    }

    #[test]
    fn wake_from_another_thread_pops_a_blocking_poll() {
        let pipe = std::sync::Arc::new(WakePipe::new().expect("pipe"));
        let waker = pipe.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            waker.wake();
        });
        let mut fds = [pollfd {
            fd: pipe.read_fd(),
            events: POLL_IN,
            revents: 0,
        }];
        let start = std::time::Instant::now();
        let n = poll_fds(&mut fds, 10_000).unwrap();
        assert_eq!(n, 1);
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
        t.join().unwrap();
    }
}
