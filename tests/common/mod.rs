//! Shared assertions for the cross-backend determinism contract, used by
//! both the property tests and the transport-conformance suite, and the
//! watchdog every "never hang" test runs under.
#![allow(dead_code)] // each test binary uses the subset it needs

use pc_bsp::{Config, RunStats, Tcp};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The bound on a threaded or TCP test that is not itself about hanging:
/// far past what any of them takes in a debug build on a loaded box, so
/// it only ever fires on a hang, and then names the test.
pub const BOUND: Duration = Duration::from_secs(300);

/// Run `f` on a helper thread and panic if it does not finish within
/// `limit` — the "never hang" guarantee, enforced mechanically.
pub fn with_watchdog<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(v) => {
            handle.join().expect("watchdogged test panicked");
            v
        }
        // The closure panicked (dropping the sender): propagate the real
        // assertion failure rather than misreporting it as a hang.
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(_) => unreachable!("sender dropped without sending or panicking"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("watchdog: still blocked after {limit:?}")
        }
    }
}

/// Two runs of the same program must agree on *everything observable* —
/// values are checked by the caller; this covers the conformance contract
/// of [`RunStats::divergences`]: byte counts, message counts, supersteps,
/// rounds, mirror traffic and even pool traffic. This is the contract
/// every execution mode and every exchange transport must satisfy.
pub fn assert_stats_agree(name: &str, a: &RunStats, b: &RunStats) {
    let divergences = a.divergences(b);
    assert!(divergences.is_empty(), "{name}: {}", divergences.join(", "));
}

/// The three backend configurations every algorithm must agree across:
/// the deterministic sequential driver (the reference), the threaded
/// driver over the shared-memory hub, and the threaded driver over real
/// loopback mesh sockets (Unix domain sockets on Linux).
pub fn conformance_configs(workers: usize) -> [(&'static str, Config); 3] {
    [
        ("sequential", Config::sequential(workers)),
        ("in-process", Config::with_workers(workers)),
        ("tcp", Config::tcp(workers)),
    ]
}

/// Run `run` once per rank of a simulated multi-process cluster: every
/// rank is driven through the engine's single-worker-per-process driver
/// (`Config::dist`) over a shared socket mesh, exactly as real `pcgraph
/// --rank N` processes would — same wire traffic, same gather of results
/// to rank 0. Returns rank 0's (complete, merged) output.
pub fn run_multirank<V: Send, F>(workers: usize, run: &F) -> (V, RunStats)
where
    F: Fn(&Config) -> (V, RunStats) + Sync,
{
    let tcp = Arc::new(Tcp::loopback(workers).expect("bind loopback mesh"));
    let mut rank0: Option<(V, RunStats)> = None;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let tcp = Arc::clone(&tcp);
            handles.push(s.spawn(move || run(&Config::rank(workers, w, tcp))));
        }
        for (w, h) in handles.into_iter().enumerate() {
            let out = h.join().expect("rank thread panicked");
            if w == 0 {
                rank0 = Some(out);
            }
        }
    });
    rank0.expect("rank 0 produced no output")
}
