//! Pluggable exchange transports.
//!
//! The channel engine's threaded driver never talks to sockets, mailboxes
//! or barriers directly — it drives an [`ExchangeTransport`], the
//! rendezvous surface every backend must provide:
//!
//! * `post` / `sync` / `take_all_into` — the per-round pairwise buffer
//!   exchange of Fig. 2/4 (post everything, end the round, drain what
//!   arrived in deterministic sender order). The exchange is also the
//!   round's reduction: `sync` carries the worker's two round words
//!   (`[again, active]`) and `take_all_into` returns their combination
//!   over all workers, so a round is one rendezvous,
//! * `recycle` / `reclaim_into` — the buffer return path that keeps the
//!   steady-state exchange allocation-free,
//! * `reduce` — a standalone global sum, for decisions taken outside the
//!   round loop (the checkpoint ack).
//!
//! Two backends ship:
//!
//! * [`InProcess`] — the shared-memory [`Hub`] (mailboxes + sense-reversing
//!   barrier + double-buffered reduction slots). This is the simulated
//!   cluster: fastest, zero copies, no sockets.
//! * [`crate::tcp::Tcp`] — every worker behind a real loopback socket,
//!   driven by one non-blocking readiness loop: per-peer send queues with
//!   pipelined partial writes, small frames coalesced into super-frames,
//!   buffered receive, each round ending with one `END` frame per peer
//!   that carries the sender's words. Observationally identical to
//!   `InProcess` (same values, bytes, supersteps, rounds — see
//!   `tests/transport_conformance.rs`), one process-boundary step away
//!   from a distributed deployment.
//!
//! **Adding a third backend** means implementing this trait and keeping
//! the conformance suite green; the engine, the algorithms and the metrics
//! need no changes. The contract every implementation must honor:
//!
//! 1. All workers call the transport methods in the same order (the
//!    engine's masks and reductions are global decisions, so the call
//!    sequence is lock-step by construction).
//! 2. At most one `post` per `(from, to)` pair per round; `sync` ends the
//!    round's posting; after `sync`, `take_all_into(w)` yields every
//!    buffer addressed to `w`, ordered by sender id, and returns the
//!    round words of all workers combined: lane 0 OR-ed, lane 1 summed.
//!    A worker may start its next round's `post`s as soon as its `take`
//!    returns, while peers are still taking; the backend must keep the
//!    two rounds apart.
//! 3. Every buffer a worker posted comes back to it by its next
//!    `reclaim_into` (which may wait for it): the receiver's `recycle`s it
//!    home, or the transport hands the `Vec` back once its bytes are on
//!    the wire. Either way pool hit/miss traffic is what the sequential
//!    driver, which returns buffers within the round, reports.
//! 4. Every worker calls `flush` after its last round and before the
//!    result gather; a backend that queues frames must have them all on
//!    the wire when it returns. Backends that send eagerly keep the
//!    default no-op.

use crate::exchange::Hub;
use crate::metrics::TransportStats;
use crate::pool::BufferPool;
use crossbeam::utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// The rendezvous surface between the threaded engine driver and one
/// exchange backend. See the module docs for the contract.
pub trait ExchangeTransport: Sync {
    /// Short backend name, surfaced in [`crate::metrics::RunStats`].
    fn name(&self) -> &'static str;

    /// Number of workers exchanging through this transport.
    fn workers(&self) -> usize;

    /// Post `data` from worker `from` to worker `to` for the current
    /// round. At most once per `(from, to)` pair per round.
    fn post(&self, from: usize, to: usize, data: Vec<u8>);

    /// End `worker`'s posting for this round and publish its two round
    /// words, `[again, active]`. After every worker's `sync`, the round's
    /// buffers and words are observable via [`Self::take_all_into`].
    fn sync(&self, worker: usize, words: [u64; 2]);

    /// Push any buffered outgoing frames to the wire (contract point 4).
    fn flush(&self, worker: usize) {
        let _ = worker;
    }

    /// Drain every buffer addressed to `worker` this round into `out`
    /// (cleared first), ordered by sender id, and return the round words
    /// of all workers (this one included) combined: lane 0 OR-ed, lane 1
    /// summed.
    fn take_all_into(&self, worker: usize, out: &mut Vec<(usize, Vec<u8>)>) -> [u64; 2];

    /// Hand a consumed receive buffer back from `worker` (the receiver)
    /// toward `sender`'s pool.
    fn recycle(&self, worker: usize, sender: usize, buf: Vec<u8>);

    /// Move every buffer returned toward `worker` into its pool.
    fn reclaim_into(&self, worker: usize, pool: &mut BufferPool);

    /// Global sum-reduction: publish `values` (one per lane, at most two),
    /// return the per-lane sums over all workers. Synchronizes all
    /// workers. Counted in [`TransportStats::round_trips`].
    fn reduce(&self, worker: usize, values: &[u64]) -> Vec<u64>;

    /// Wire-level counters accumulated so far, aggregated over workers.
    fn stats(&self) -> TransportStats;

    /// Wire-level counters attributable to one worker. The default returns
    /// the aggregate, which is exact when the calling process drives a
    /// single worker (the multi-process deployment); backends that host
    /// several workers in one object override this with a per-worker
    /// breakdown so rank-mode result gathering never double-counts.
    fn worker_stats(&self, worker: usize) -> TransportStats {
        let _ = worker;
        self.stats()
    }

    /// Global barrier crossings, where the backend has a barrier (0
    /// otherwise).
    fn barrier_crossings(&self) -> u64 {
        0
    }

    /// Arrival-spin iterations burned at the backend's barrier, summed
    /// over workers (0 where there is no spinning barrier).
    fn barrier_spins(&self) -> u64 {
        0
    }
}

/// A typed transport failure. Backends must fail with one of these (or
/// panic with its message) rather than hang: every blocking operation
/// carries a deadline.
#[derive(Debug)]
pub enum TransportError {
    /// A blocking operation exceeded its deadline.
    Timeout {
        /// Peer the operation was waiting on (`usize::MAX` when unknown).
        peer: usize,
        /// What was being attempted.
        during: &'static str,
    },
    /// The peer closed the connection between frames.
    Disconnected {
        /// Peer that went away.
        peer: usize,
        /// What was being attempted.
        during: &'static str,
    },
    /// The peer closed the connection in the middle of a frame.
    Truncated {
        /// Peer that went away.
        peer: usize,
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually received.
        got: usize,
    },
    /// The peer sent something outside the wire protocol.
    Protocol {
        /// Offending peer.
        peer: usize,
        /// Human-readable description.
        detail: String,
    },
    /// The initial mesh connection could not be established.
    Connect {
        /// Peer that could not be reached.
        peer: usize,
        /// Human-readable description.
        detail: String,
    },
    /// An unexpected I/O error.
    Io {
        /// Peer involved.
        peer: usize,
        /// The underlying error kind.
        kind: std::io::ErrorKind,
        /// What was being attempted.
        during: &'static str,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Timeout { peer, during } => {
                write!(f, "timed out during {during} (peer {peer})")
            }
            TransportError::Disconnected { peer, during } => {
                write!(f, "peer {peer} disconnected during {during}")
            }
            TransportError::Truncated {
                peer,
                expected,
                got,
            } => write!(
                f,
                "peer {peer} closed mid-frame ({got} of {expected} payload bytes)"
            ),
            TransportError::Protocol { peer, detail } => {
                write!(f, "protocol violation from peer {peer}: {detail}")
            }
            TransportError::Connect { peer, detail } => {
                write!(f, "cannot connect to peer {peer}: {detail}")
            }
            TransportError::Io { peer, kind, during } => {
                write!(f, "i/o error ({kind:?}) during {during} (peer {peer})")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Per-worker wire counters, each on its own cache line so the hot
/// exchange path never contends across workers; summed once in
/// [`ExchangeTransport::stats`].
#[derive(Debug, Default)]
struct WorkerCounters {
    wire_bytes: AtomicU64,
    frames: AtomicU64,
}

/// The shared-memory backend: the [`Hub`] (mailbox, sense-reversing
/// barrier, double-buffered reduction slots) behind the
/// [`ExchangeTransport`] surface, plus wire-level counters.
#[derive(Debug)]
pub struct InProcess {
    hub: Hub,
    counters: Vec<CachePadded<WorkerCounters>>,
    round_trips: AtomicU64,
}

impl InProcess {
    /// An in-process transport for `workers` workers.
    pub fn new(workers: usize) -> Self {
        InProcess::with_budget(workers, None)
    }

    /// [`InProcess::new`] with an explicit barrier spin budget (see
    /// [`crate::exchange::SpinBarrier::with_budget`]).
    pub fn with_budget(workers: usize, budget: Option<u32>) -> Self {
        InProcess {
            hub: Hub::with_budget(workers, budget),
            counters: (0..workers)
                .map(|_| CachePadded::new(WorkerCounters::default()))
                .collect(),
            round_trips: AtomicU64::new(0),
        }
    }

    /// The underlying hub (for direct barrier/mailbox access in tests).
    pub fn hub(&self) -> &Hub {
        &self.hub
    }
}

impl ExchangeTransport for InProcess {
    fn name(&self) -> &'static str {
        "in-process"
    }

    fn workers(&self) -> usize {
        self.hub.workers()
    }

    fn post(&self, from: usize, to: usize, data: Vec<u8>) {
        // Each worker only touches its own padded counters: no cross-core
        // cache-line traffic on the hot path.
        let c = &self.counters[from];
        c.wire_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        c.frames.fetch_add(1, Ordering::Relaxed);
        self.hub.post(from, to, data);
    }

    fn sync(&self, worker: usize, words: [u64; 2]) {
        self.hub.sync(worker, words);
    }

    fn take_all_into(&self, worker: usize, out: &mut Vec<(usize, Vec<u8>)>) -> [u64; 2] {
        self.hub.take_all_into(worker, out)
    }

    fn recycle(&self, _worker: usize, sender: usize, buf: Vec<u8>) {
        self.hub.recycle(sender, buf);
    }

    fn reclaim_into(&self, worker: usize, pool: &mut BufferPool) {
        self.hub.reclaim_into(worker, pool);
    }

    fn reduce(&self, worker: usize, values: &[u64]) -> Vec<u64> {
        if worker == 0 {
            self.round_trips.fetch_add(1, Ordering::Relaxed);
        }
        self.hub.reduce(worker, values)
    }

    fn stats(&self) -> TransportStats {
        let mut total = TransportStats {
            round_trips: self.round_trips.load(Ordering::Relaxed),
            ..TransportStats::default()
        };
        for c in &self.counters {
            total.wire_bytes += c.wire_bytes.load(Ordering::Relaxed);
            total.frames += c.frames.load(Ordering::Relaxed);
        }
        total
    }

    fn worker_stats(&self, worker: usize) -> TransportStats {
        let c = &self.counters[worker];
        TransportStats {
            wire_bytes: c.wire_bytes.load(Ordering::Relaxed),
            frames: c.frames.load(Ordering::Relaxed),
            // Reductions are global events; charge them to worker 0 so the
            // per-worker breakdown still sums to `stats()`.
            round_trips: if worker == 0 {
                self.round_trips.load(Ordering::Relaxed)
            } else {
                0
            },
            ..TransportStats::default()
        }
    }

    fn barrier_crossings(&self) -> u64 {
        self.hub.barrier_crossings()
    }

    fn barrier_spins(&self) -> u64 {
        self.hub.barrier_spins()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The InProcess wrapper preserves the Hub's exchange semantics and
    /// counts frames/bytes; round trips count `reduce` calls only.
    #[test]
    fn in_process_exchange_and_counters() {
        let t = Arc::new(InProcess::new(3));
        let mut handles = Vec::new();
        for w in 0..3usize {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for to in 0..3 {
                    t.post(w, to, vec![w as u8; w + 1]);
                }
                t.sync(w, [1 << w, w as u64]);
                let mut got = Vec::new();
                let words = t.take_all_into(w, &mut got);
                let senders: Vec<usize> = got.iter().map(|&(s, _)| s).collect();
                assert_eq!(senders, vec![0, 1, 2], "sender order is deterministic");
                for (s, buf) in got {
                    t.recycle(w, s, buf);
                }
                assert_eq!(t.reduce(w, &[1]), vec![3]);
                words
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), [0b111, 3]);
        }
        let stats = t.stats();
        assert_eq!(stats.frames, 9);
        assert_eq!(stats.wire_bytes, 3 * (1 + 2 + 3));
        assert_eq!(stats.round_trips, 1);
        // The recycled buffers are waiting for their senders.
        let mut pool = BufferPool::new();
        t.reclaim_into(1, &mut pool);
        assert_eq!(pool.available(), 3);
    }
}
