//! The transport's few raw system calls: a `libc`-free `poll(2)`, and
//! the shared memory of a same-host link.
//!
//! The readiness multiplexer ([`crate::tcp`]) needs one kernel facility:
//! "sleep until any of these sockets can make progress, or a deadline
//! passes". The standard library does not expose it and this workspace
//! deliberately carries no `libc`/`mio`/`tokio` dependency, so this
//! module issues the raw syscall itself — `poll` on x86-64 Linux,
//! `ppoll` on aarch64 Linux (which never had a plain `poll` syscall).
//! Everything else (interest computation, deadline bookkeeping, stall
//! accounting) stays in safe Rust on top of [`poll`].
//!
//! A same-host link's bytes travel through a ring in a sealed `memfd`
//! mapping shared by both ends (see *Link kinds* in [`crate::tcp`]). The
//! standard library has none of that either, so the C library's
//! `memfd_create(2)`, `fcntl(2)` seals, `mmap(2)` and `sendmsg(2)` /
//! `recvmsg(2)` with `SCM_RIGHTS` are declared here (`memfd`, `seals`,
//! `map_shared`, `send_with_fd`, `recv_with_fd`). They
//! exist on Linux only; elsewhere they fail with `Unsupported`, and no
//! link there is a ring.
//!
//! On targets without a wired-up `poll` syscall the fallback naps briefly
//! and reports every registered interest as ready: the caller's progress
//! pass probes the non-blocking sockets itself, so behavior degrades to a
//! paced busy-poll instead of breaking.

use std::fs::File;
use std::io;
use std::os::fd::{OwnedFd, RawFd};
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

    /// The descriptor this entry watches.
    pub fn fd(&self) -> RawFd {
        self.fd
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

/// Seal: no further seals may be added.
pub(crate) const SEAL_SEAL: i32 = 0x1;
/// Seal: the file may not shrink (so a mapping of it never faults).
pub(crate) const SEAL_SHRINK: i32 = 0x2;
/// Seal: the file may not grow.
pub(crate) const SEAL_GROW: i32 = 0x4;

/// A `MAP_SHARED` read-write mapping of a whole file, unmapped on drop.
/// Which bytes of it each side may touch is the caller's protocol.
#[derive(Debug)]
pub(crate) struct SharedMap {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is plain memory owned by this value; moving the
// owner to another thread moves nothing but the pointer.
unsafe impl Send for SharedMap {}

impl SharedMap {
    /// The first byte of the mapping (page-aligned).
    pub(crate) fn as_ptr(&self) -> *mut u8 {
        self.ptr
    }

    /// The mapping's length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(target_os = "linux")]
mod shm {
    use super::SharedMap;
    use std::fs::File;
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    const MFD_CLOEXEC: u32 = 0x1;
    const MFD_ALLOW_SEALING: u32 = 0x2;
    const F_ADD_SEALS: i32 = 1033;
    const F_GET_SEALS: i32 = 1034;
    const PROT_READ_WRITE: i32 = 0x1 | 0x2;
    const MAP_SHARED: i32 = 0x1;
    const SOL_SOCKET: i32 = 1;
    const SCM_RIGHTS: i32 = 1;
    const MSG_CTRUNC: i32 = 0x8;
    const MSG_NOSIGNAL: i32 = 0x4000;
    const MSG_CMSG_CLOEXEC: i32 = 0x4000_0000;

    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    /// `struct msghdr` (glibc, Linux).
    #[repr(C)]
    struct MsgHdr {
        name: *mut u8,
        namelen: u32,
        iov: *mut IoVec,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }

    /// `struct cmsghdr`; one descriptor's `int` follows it.
    #[repr(C)]
    struct CmsgHdr {
        len: usize,
        level: i32,
        kind: i32,
    }

    /// `CMSG_LEN(sizeof(int))`: the header, then the descriptor.
    const CMSG_LEN: usize = std::mem::size_of::<CmsgHdr>() + 4;
    /// `CMSG_SPACE(sizeof(int))`: the length padded to a `size_t`.
    const CMSG_SPACE: usize = CMSG_LEN.next_multiple_of(std::mem::size_of::<usize>());

    /// Room for exactly one descriptor's control message, `size_t`-aligned.
    #[repr(C)]
    struct Control([usize; CMSG_SPACE / std::mem::size_of::<usize>()]);

    extern "C" {
        fn memfd_create(name: *const std::ffi::c_char, flags: u32) -> i32;
        fn fcntl(fd: i32, cmd: i32, ...) -> i32;
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
        fn sendmsg(fd: i32, msg: *const MsgHdr, flags: i32) -> isize;
        fn recvmsg(fd: i32, msg: *mut MsgHdr, flags: i32) -> isize;
    }

    fn check(ret: i64) -> io::Result<i64> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub fn memfd(len: u64, seals: i32) -> io::Result<File> {
        // SAFETY: the name is a NUL-terminated static string; the call
        // only reads it and returns a new descriptor or -1.
        let fd =
            check(
                unsafe { memfd_create(c"pcgraph-ring".as_ptr(), MFD_CLOEXEC | MFD_ALLOW_SEALING) }
                    as i64,
            )?;
        // SAFETY: `fd` was just returned open by `memfd_create` and is
        // owned by nothing else.
        let file = File::from(unsafe { OwnedFd::from_raw_fd(fd as RawFd) });
        file.set_len(len)?;
        if seals != 0 {
            // SAFETY: `F_ADD_SEALS` takes one `int` argument; `file` is open.
            check(unsafe { fcntl(file.as_raw_fd(), F_ADD_SEALS, seals) } as i64)?;
        }
        Ok(file)
    }

    pub fn seals(file: &File) -> io::Result<i32> {
        // SAFETY: `F_GET_SEALS` takes no argument; `file` is open, and a
        // file that cannot carry seals is an error return.
        check(unsafe { fcntl(file.as_raw_fd(), F_GET_SEALS) } as i64).map(|s| s as i32)
    }

    pub fn map_shared(file: &File, len: usize) -> io::Result<SharedMap> {
        if len == 0 {
            return Err(io::ErrorKind::InvalidInput.into());
        }
        // SAFETY: a fresh mapping chosen by the kernel (`addr` null), so
        // no existing memory is replaced; `file` is open for the call.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(SharedMap { ptr, len })
    }

    pub fn unmap(map: &mut SharedMap) {
        // SAFETY: `ptr`/`len` describe a mapping made by `map_shared` and
        // unmapped only here, once, as its owner drops.
        unsafe { munmap(map.ptr, map.len) };
    }

    pub fn send_with_fd(sock: RawFd, bytes: &[u8], fd: RawFd) -> io::Result<usize> {
        let mut iov = IoVec {
            base: bytes.as_ptr() as *mut u8,
            len: bytes.len(),
        };
        let mut control = Control([0; CMSG_SPACE / std::mem::size_of::<usize>()]);
        let cmsg = control.0.as_mut_ptr() as *mut CmsgHdr;
        // SAFETY: `control` is `size_t`-aligned and holds a `CmsgHdr`
        // followed by the descriptor's 4 bytes (`CMSG_SPACE` ≥ both).
        unsafe {
            cmsg.write(CmsgHdr {
                len: CMSG_LEN,
                level: SOL_SOCKET,
                kind: SCM_RIGHTS,
            });
            (cmsg.add(1) as *mut i32).write_unaligned(fd);
        }
        let msg = MsgHdr {
            name: std::ptr::null_mut(),
            namelen: 0,
            iov: &mut iov,
            iovlen: 1,
            control: control.0.as_mut_ptr() as *mut u8,
            controllen: CMSG_SPACE,
            flags: 0,
        };
        // SAFETY: every pointer in `msg` is live for the call; `sendmsg`
        // only reads `bytes` and the control message.
        check(unsafe { sendmsg(sock, &msg, MSG_NOSIGNAL) } as i64).map(|n| n as usize)
    }

    pub fn recv_with_fd(sock: RawFd, buf: &mut [u8]) -> io::Result<(usize, Option<OwnedFd>)> {
        let mut iov = IoVec {
            base: buf.as_mut_ptr(),
            len: buf.len(),
        };
        let mut control = Control([0; CMSG_SPACE / std::mem::size_of::<usize>()]);
        let mut msg = MsgHdr {
            name: std::ptr::null_mut(),
            namelen: 0,
            iov: &mut iov,
            iovlen: 1,
            control: control.0.as_mut_ptr() as *mut u8,
            controllen: CMSG_SPACE,
            flags: 0,
        };
        // SAFETY: `recvmsg` writes at most `buf.len()` bytes into `buf`
        // and at most `controllen` bytes into `control`, both live and
        // exclusively borrowed for the call.
        let n = check(unsafe { recvmsg(sock, &mut msg, MSG_CMSG_CLOEXEC) } as i64)? as usize;
        let mut fd = None;
        if msg.controllen >= CMSG_LEN {
            // SAFETY: the kernel wrote a complete header (`controllen`
            // covers it) into the aligned `control` buffer.
            let cmsg = unsafe { (control.0.as_ptr() as *const CmsgHdr).read() };
            if cmsg.level == SOL_SOCKET && cmsg.kind == SCM_RIGHTS && cmsg.len >= CMSG_LEN {
                // SAFETY: an `SCM_RIGHTS` message of `CMSG_LEN` carries one
                // descriptor, now open in this process and owned by no one.
                let raw = unsafe {
                    (control.0.as_ptr().cast::<CmsgHdr>().add(1) as *const i32).read_unaligned()
                };
                fd = Some(unsafe { OwnedFd::from_raw_fd(raw) });
            }
        }
        if msg.flags & MSG_CTRUNC != 0 {
            // More descriptors than one: the kernel closed the excess.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "more than one descriptor in one message",
            ));
        }
        Ok((n, fd))
    }
}

#[cfg(not(target_os = "linux"))]
mod shm {
    use super::SharedMap;
    use std::fs::File;
    use std::io;
    use std::os::fd::{OwnedFd, RawFd};

    fn unsupported<T>() -> io::Result<T> {
        Err(io::ErrorKind::Unsupported.into())
    }

    pub fn memfd(_: u64, _: i32) -> io::Result<File> {
        unsupported()
    }

    pub fn seals(_: &File) -> io::Result<i32> {
        unsupported()
    }

    pub fn map_shared(_: &File, _: usize) -> io::Result<SharedMap> {
        unsupported()
    }

    pub fn unmap(_: &mut SharedMap) {}

    pub fn send_with_fd(_: RawFd, _: &[u8], _: RawFd) -> io::Result<usize> {
        unsupported()
    }

    pub fn recv_with_fd(_: RawFd, _: &mut [u8]) -> io::Result<(usize, Option<OwnedFd>)> {
        unsupported()
    }
}

impl Drop for SharedMap {
    fn drop(&mut self) {
        shm::unmap(self);
    }
}

/// A new anonymous memory file (`memfd_create(2)`, sealing allowed) of
/// `len` zero bytes, with `seals` added (`0` adds none).
pub(crate) fn memfd(len: u64, seals: i32) -> io::Result<File> {
    shm::memfd(len, seals)
}

/// The seals on `file` (`F_GET_SEALS`); an error for a file that cannot
/// carry seals, which is any file but a memfd.
pub(crate) fn seals(file: &File) -> io::Result<i32> {
    shm::seals(file)
}

/// Map the first `len` bytes of `file` shared and read-write; a file
/// shorter than that is `InvalidInput`. The caller makes sure the file
/// cannot shrink later (a memfd sealed with [`SEAL_SHRINK`]): touching a
/// mapped page past the end of the file raises `SIGBUS`.
pub(crate) fn map_shared(file: &File, len: usize) -> io::Result<SharedMap> {
    if file.metadata()?.len() < len as u64 {
        return Err(io::ErrorKind::InvalidInput.into());
    }
    shm::map_shared(file, len)
}

/// `sendmsg(2)` of `bytes` on Unix socket `sock`, passing descriptor `fd`
/// beside them (`SCM_RIGHTS`). Returns the bytes sent; the descriptor
/// travels with the first of them.
pub(crate) fn send_with_fd(sock: RawFd, bytes: &[u8], fd: RawFd) -> io::Result<usize> {
    shm::send_with_fd(sock, bytes, fd)
}

/// `recvmsg(2)` into `buf` on Unix socket `sock`, returning the bytes
/// read and the descriptor that came with them, if any (opened
/// close-on-exec). A message carrying more than one descriptor is an
/// `InvalidData` error.
pub(crate) fn recv_with_fd(sock: RawFd, buf: &mut [u8]) -> io::Result<(usize, Option<OwnedFd>)> {
    shm::recv_with_fd(sock, buf)
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
