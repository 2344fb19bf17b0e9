//! A `libc`-free `poll(2)` for the TCP transport.
//!
//! The readiness multiplexer ([`crate::tcp`]) needs exactly one kernel
//! facility: "sleep until any of these sockets can make progress, or a
//! deadline passes". The standard library does not expose it and this
//! workspace deliberately carries no `libc`/`mio`/`tokio` dependency, so
//! this module issues the raw syscall itself — `poll` on x86-64 Linux,
//! `ppoll` on aarch64 Linux (which never had a plain `poll` syscall).
//! Everything else (interest computation, deadline bookkeeping, stall
//! accounting) stays in safe Rust on top of [`poll`]. The one socket
//! option the standard library does not set, a same-host link's send
//! buffer ([`set_send_buffer`]), is a `setsockopt(2)` call next to it.
//!
//! On targets without a wired-up syscall the fallback naps briefly and
//! reports every registered interest as ready: the caller's progress pass
//! probes the non-blocking sockets itself, so behavior degrades to a
//! paced busy-poll instead of breaking.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Readable data (or a peer's orderly shutdown) is available.
pub const POLLIN: i16 = 0x001;
/// Writing now would not block.
pub const POLLOUT: i16 = 0x004;
/// Error condition on the socket (always polled, never requested).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (always polled, never requested).
pub const POLLHUP: i16 = 0x010;
/// The fd is not open (always polled, never requested).
pub const POLLNVAL: i16 = 0x020;

/// One entry of a `poll(2)` set — ABI-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Register `fd` with the given interest mask ([`POLLIN`] |
    /// [`POLLOUT`]); error conditions are always reported.
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The interest this entry was registered with.
    pub fn events(&self) -> i16 {
        self.events
    }

    /// The raw readiness the kernel reported.
    pub fn revents(&self) -> i16 {
        self.revents
    }

    /// A read on this socket would make progress: data, EOF or an error
    /// to collect ([`POLLHUP`]/[`POLLERR`] surface through `read`, so
    /// the consumer sees the same typed error either way).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    /// A write on this socket would make progress (or fail loudly).
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

/// Wait until at least one entry of `fds` is ready or `timeout` passes.
///
/// Returns the number of entries with non-zero `revents` — 0 means the
/// timeout expired. A nonzero timeout is rounded *up* to the syscall's
/// millisecond granularity, so a sliver of remaining deadline never
/// degrades into a 0 ms busy-poll. `EINTR` is reported as `Ok(0)`:
/// callers sit in deadline-checked loops and simply re-issue the wait.
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    sys::poll(fds, timeout)
}

/// Clamp `timeout` to the syscall's `i32` millisecond argument, rounding
/// a nonzero duration up to at least 1 ms.
#[allow(dead_code)] // unused on targets where ppoll takes a timespec
fn timeout_ms(timeout: Duration) -> i32 {
    if timeout.is_zero() {
        return 0;
    }
    let ms = timeout.as_millis();
    let ms = if timeout.subsec_nanos().is_multiple_of(1_000_000) {
        ms
    } else {
        ms + 1
    };
    ms.min(i32::MAX as u128) as i32
}

/// Map a raw syscall return to the poll contract (`EINTR` → `Ok(0)`).
#[allow(dead_code)] // unused by the portable fallback
fn syscall_result(ret: i64) -> io::Result<usize> {
    const EINTR: i64 = 4;
    if ret >= 0 {
        Ok(ret as usize)
    } else if -ret == EINTR {
        Ok(0)
    } else {
        Err(io::Error::from_raw_os_error(-ret as i32))
    }
}

/// Ask for a `bytes`-byte send buffer on socket `fd` (`SO_SNDBUF`), the
/// one socket option the standard library does not set. The kernel caps
/// the request at `net.core.wmem_max` without an error, so the size
/// alone never makes this fail.
#[cfg(target_os = "linux")]
pub fn set_send_buffer(fd: RawFd, bytes: i32) -> io::Result<()> {
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    // SAFETY: `setsockopt(2)` reads exactly `len` = 4 bytes at `value`,
    // a live `i32` on this stack frame; `fd` is only read, and a closed or
    // non-socket fd is an error return, not undefined behavior.
    let ret = unsafe { setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, 4) };
    if ret == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use super::PollFd;
    use std::io;
    use std::time::Duration;

    const SYS_POLL: i64 = 7;

    pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        let ms = super::timeout_ms(timeout);
        let ret: i64;
        // SAFETY: `poll(2)` reads and writes exactly `fds.len()` pollfd
        // entries at `fds.as_mut_ptr()` — a live, exclusively borrowed
        // slice of `#[repr(C)]` structs matching the kernel ABI. The
        // syscall clobbers rcx/r11 (declared) and only touches memory it
        // was pointed at.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_POLL => ret,
                in("rdi") fds.as_mut_ptr(),
                in("rsi") fds.len(),
                in("rdx") ms,
                out("rcx") _,
                out("r11") _,
                options(nostack),
            );
        }
        super::syscall_result(ret)
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
mod sys {
    use super::PollFd;
    use std::io;
    use std::time::Duration;

    /// aarch64 Linux never had plain `poll`; `ppoll` takes a timespec.
    const SYS_PPOLL: i64 = 73;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        let ts = Timespec {
            tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        let ret: i64;
        // SAFETY: as on x86-64 — `fds` is a live exclusive slice of
        // ABI-matching pollfds, `ts` outlives the call, the sigmask is
        // null (no mask change), and x8/x0..x4 carry the ppoll ABI.
        unsafe {
            core::arch::asm!(
                "svc #0",
                in("x8") SYS_PPOLL,
                inlateout("x0") fds.as_mut_ptr() as i64 => ret,
                in("x1") fds.len(),
                in("x2") &ts as *const Timespec,
                in("x3") 0i64,
                in("x4") 0i64,
                options(nostack),
            );
        }
        super::syscall_result(ret)
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use super::PollFd;
    use std::io;
    use std::time::Duration;

    /// Portable fallback: nap briefly, then report every registered
    /// interest as ready — the caller's non-blocking progress pass probes
    /// the sockets itself, so this is a paced busy-poll, not a lie the
    /// caller can act on blindly.
    pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
        for f in fds.iter_mut() {
            f.revents = f.events;
        }
        Ok(fds.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn connected_socket_is_writable_immediately() {
        let (a, _b) = pair();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        let n = poll(&mut fds, Duration::from_secs(5)).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].writable());
        assert!(!fds[0].readable() || cfg!(not(target_os = "linux")));
    }

    #[test]
    fn silent_socket_times_out_promptly() {
        let (a, _b) = pair();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let started = Instant::now();
        let n = poll(&mut fds, Duration::from_millis(50)).unwrap();
        // The portable fallback reports interests as ready; on Linux the
        // silent socket must simply time out.
        if cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )) {
            assert_eq!(n, 0);
            assert!(started.elapsed() >= Duration::from_millis(40));
        }
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn data_arrival_wakes_a_read_wait() {
        let (a, mut b) = pair();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            b.write_all(&[42]).unwrap();
            b // keep the socket open past the poll
        });
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, Duration::from_secs(10)).unwrap();
        assert!(n >= 1);
        assert!(fds[0].readable());
        drop(writer.join().unwrap());
    }

    #[test]
    fn hangup_wakes_a_read_wait() {
        let (a, b) = pair();
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, Duration::from_secs(10)).unwrap();
        assert!(n >= 1);
        // EOF surfaces as POLLIN (a read returns 0) and usually POLLHUP;
        // either way the entry reads as actionable.
        assert!(fds[0].readable());
    }

    #[test]
    fn zero_timeout_is_a_nonblocking_probe() {
        let (a, _b) = pair();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let started = Instant::now();
        let _ = poll(&mut fds, Duration::ZERO).unwrap();
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn sub_millisecond_timeouts_round_up() {
        assert_eq!(timeout_ms(Duration::ZERO), 0);
        assert_eq!(timeout_ms(Duration::from_nanos(1)), 1);
        assert_eq!(timeout_ms(Duration::from_micros(999)), 1);
        assert_eq!(timeout_ms(Duration::from_millis(7)), 7);
        assert_eq!(timeout_ms(Duration::from_secs(1 << 40)), i32::MAX);
    }

    #[test]
    fn eintr_and_errors_map_to_the_contract() {
        assert_eq!(syscall_result(3).unwrap(), 3);
        assert_eq!(syscall_result(0).unwrap(), 0);
        assert_eq!(syscall_result(-4).unwrap(), 0); // EINTR retries
        let err = syscall_result(-9).unwrap_err(); // EBADF
        assert_eq!(err.raw_os_error(), Some(9));
    }
}
