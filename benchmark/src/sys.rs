//! The libc calls the harness needs and `std` does not offer: `wait4`
//! (exit status **and** the process tree's rusage in one blocking call),
//! `alarm`/`signal`/`siginterrupt`/`kill` for the per-rep watchdog, and
//! `malloc_trim` to keep the harness's own footprint out of `ru_maxrss`.
//! Declared here rather than pulled from a crate: the build is offline
//! and the harness adds no dependency.

#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
compile_error!("the rusage layout and malloc_trim below are Linux/glibc LP64");

use std::io;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux LP64: two timevals, then 14 longs of which
/// only `ru_maxrss` (KiB) is read.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn alarm(seconds: u32) -> u32;
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn siginterrupt(signum: i32, flag: i32) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Make this process small and make the kernel forget it was ever larger.
///
/// A child's `ru_maxrss` is seeded at `exec` with the peak resident set
/// of the image it was spawned from, so a harness that ever held a graph
/// (the layer pass, the reference check) would floor every later job's
/// `peak_rss_mib`. Call right before spawning a measured job.
pub fn forget_peak_rss() {
    // SAFETY: `malloc_trim` only hands free heap pages back to the kernel.
    unsafe { malloc_trim(0) };
    // "5" resets the peak-RSS counter to the current resident set.
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("pc-benchmark: cannot reset peak RSS ({e}); peak_rss_mib may read high");
    }
}

const SIGKILL: i32 = 9;
const SIGALRM: i32 = 14;

extern "C" fn on_alarm(_: i32) {}

/// How a waited-for child ended, with the resources its whole tree used.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code; `None` when a signal ended it.
    pub code: Option<i32>,
    /// The watchdog fired and the process group was killed.
    pub timed_out: bool,
    /// User + system CPU seconds of the child and every descendant it
    /// waited for (the kernel reports `RUSAGE_BOTH` to `wait4`).
    pub cpu_s: f64,
    /// Largest resident set of any one process in that tree, MiB.
    pub peak_rss_mib: f64,
}

/// Block in `wait4` until `pid` exits or `timeout_s` elapses; on timeout
/// SIGKILL the process group `pid` leads and reap it. The caller spawned
/// `pid` as a group leader and has not waited for it.
pub fn wait_tree(pid: u32, timeout_s: u32) -> io::Result<Exit> {
    let pid = pid as i32;
    let mut status = 0i32;
    let mut ru = RUsage::default();
    let mut timed_out = false;
    // SAFETY: `on_alarm` is an async-signal-safe no-op; `siginterrupt`
    // only clears SA_RESTART so the blocked `wait4` returns EINTR.
    unsafe {
        signal(SIGALRM, on_alarm);
        siginterrupt(SIGALRM, 1);
        alarm(timeout_s);
    }
    loop {
        // SAFETY: both out-pointers are valid for the duration of the
        // call and of the size the kernel writes (see `RUsage`).
        let got = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if got == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            // SAFETY: cancelling a pending alarm has no preconditions.
            unsafe { alarm(0) };
            return Err(err);
        }
        timed_out = true;
        // SAFETY: `-pid` addresses the group this harness created for
        // the child; no other process is in it.
        unsafe { kill(-pid, SIGKILL) };
    }
    // SAFETY: as above.
    unsafe { alarm(0) };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(Exit {
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        timed_out,
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_mib: ru.maxrss as f64 / 1024.0,
    })
}
