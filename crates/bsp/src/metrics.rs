//! Run statistics: bytes per channel, messages, supersteps, wall time.
//!
//! The paper's tables report `runtime (s)` and `message (GB)` per program;
//! [`RunStats`] carries both plus enough breakdown (per-channel bytes,
//! exchange rounds) to explain *where* a reduction came from.

use crate::pool::PoolStats;
use crate::trace::{RankTrace, SuperstepStats};
use std::time::Duration;

/// Local/remote byte tally for one channel on one worker.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ByteCounter {
    /// Bytes whose destination worker differs from the source (the paper's
    /// "message" volume — what would cross the network).
    pub remote: u64,
    /// Bytes addressed to the sending worker itself (loop-back).
    pub local: u64,
}

impl ByteCounter {
    /// Sum both directions.
    pub fn total(&self) -> u64 {
        self.remote + self.local
    }

    /// Accumulate another counter.
    pub fn merge(&mut self, other: &ByteCounter) {
        self.remote += other.remote;
        self.local += other.local;
    }
}

/// Aggregated statistics of one named channel across all workers.
#[derive(Debug, Default, Clone)]
pub struct ChannelMetrics {
    /// Channel name (e.g. `"scatter"`, `"reqresp"`, `"msg"`).
    pub name: String,
    /// Wire bytes attributed to the channel.
    pub bytes: ByteCounter,
    /// Number of application-level messages (combined values, requests,
    /// responses, label updates — channel-specific unit).
    pub messages: u64,
    /// Messages sent as per-worker mirror broadcasts instead of per-edge
    /// sends (Mirror channel; 0 elsewhere).
    pub mirrored: u64,
    /// Per-edge messages the mirror broadcasts avoided — the skew win
    /// (Mirror channel; 0 elsewhere).
    pub mirror_saved: u64,
}

/// Wire-level counters of one exchange transport (see
/// [`crate::transport::ExchangeTransport::stats`]).
///
/// The in-process transport counts mailbox traffic (payload bytes, one
/// frame per post); the TCP transport counts real socket traffic including
/// the 5-byte frame headers, the `END` frame that closes every round
/// toward every peer, and the control frames of its gather/broadcast
/// reductions. `round_trips` counts [`ExchangeTransport::reduce`] calls —
/// the checkpoint acks, nothing in the round loop (a round's `again` and
/// active-count words ride its own exchange): a gather/broadcast exchange
/// with worker 0 on the TCP backend, one barrier-synchronized slot
/// exchange on the in-process backend.
///
/// [`ExchangeTransport::reduce`]: crate::transport::ExchangeTransport::reduce
///
/// The trailing fields belong to the TCP transport and stay zero
/// everywhere else: `coalesced_frames` counts logical frames that rode
/// inside a coalesced super-frame (each super-frame counts once in
/// `frames` but carries ≥ 2 coalesced sub-frames), `flushes` counts send
/// queues drained completely to the kernel, `send_stall_us` /
/// `recv_stall_us` split the driver's kernel-wait time by what it was
/// stuck on, and `poll_waits` / `wakeups_spurious` count the readiness
/// multiplexer's kernel waits and the wake-ups that moved nothing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportStats {
    /// Bytes put on the wire (or through the mailbox) by all workers.
    pub wire_bytes: u64,
    /// Frames sent by all workers (data, end and reduction frames); a
    /// coalesced super-frame counts as one.
    pub frames: u64,
    /// Standalone global reductions ([`ExchangeTransport::reduce`]
    /// calls: checkpoint acks).
    ///
    /// [`ExchangeTransport::reduce`]: crate::transport::ExchangeTransport::reduce
    pub round_trips: u64,
    /// Logical frames carried inside coalesced super-frames (TCP transport;
    /// 0 elsewhere).
    pub coalesced_frames: u64,
    /// Send queues fully drained to the kernel (TCP transport; 0
    /// elsewhere).
    pub flushes: u64,
    /// Microseconds spent stalled with queued send bytes the kernel would
    /// not accept (TCP transport; 0 elsewhere).
    pub send_stall_us: u64,
    /// Microseconds spent waiting for inbound bytes with nothing queued
    /// to send — the receive-side mirror of `send_stall_us`, so the stall
    /// column no longer under-reports pure read waits (TCP transport;
    /// 0 elsewhere).
    pub recv_stall_us: u64,
    /// Kernel readiness waits: one per `poll(2)` over the mesh's pollfd
    /// set (TCP transport; 0 elsewhere).
    pub poll_waits: u64,
    /// Readiness wake-ups after which a full progress pass moved zero
    /// bytes — spurious wake-ups, a health metric of the interest
    /// computation (TCP transport; 0 elsewhere).
    pub wakeups_spurious: u64,
}

impl TransportStats {
    /// Accumulate another transport's counters.
    pub fn merge(&mut self, other: &TransportStats) {
        self.wire_bytes += other.wire_bytes;
        self.frames += other.frames;
        self.round_trips += other.round_trips;
        self.coalesced_frames += other.coalesced_frames;
        self.flushes += other.flushes;
        self.send_stall_us += other.send_stall_us;
        self.recv_stall_us += other.recv_stall_us;
        self.poll_waits += other.poll_waits;
        self.wakeups_spurious += other.wakeups_spurious;
    }

    /// Total microseconds the driver sat in kernel waits, either
    /// direction — the bench's headline stall column.
    pub fn stall_us(&self) -> u64 {
        self.send_stall_us + self.recv_stall_us
    }
}

/// Statistics of one complete run.
#[derive(Debug, Default, Clone)]
pub struct RunStats {
    /// Supersteps executed (global synchronization points).
    pub supersteps: u64,
    /// Total buffer-exchange rounds (≥ supersteps; extra rounds come from
    /// channels whose `again()` returned true, e.g. request/respond or
    /// propagation).
    pub rounds: u64,
    /// Wall-clock duration of the run (excludes graph loading).
    pub elapsed: Duration,
    /// Per-channel byte/message breakdown.
    pub channels: Vec<ChannelMetrics>,
    /// Exchange-buffer pool hits/misses summed over all workers. A
    /// steady-state hit rate near 1.0 means the exchange path stopped
    /// allocating after warm-up.
    pub pool: PoolStats,
    /// Global barrier crossings (threaded mode; 0 in sequential mode).
    pub barrier_crossings: u64,
    /// Arrival-spin iterations burned at the barrier, summed over workers
    /// (threaded in-process mode; 0 elsewhere). Together with
    /// `barrier_crossings` this measures how well the spin budget
    /// ([`crate::Config::spin_budget`]) fits the workload's arrival skew.
    pub barrier_spins: u64,
    /// Largest per-worker application-message volume (Σ `messages` over
    /// that worker's channels) — the skew metric: under a hub-heavy
    /// partition one rank's volume dwarfs the rest, and mirroring is what
    /// bounds it.
    pub max_rank_msgs: u64,
    /// Name of the exchange transport that carried the run
    /// (`"sequential"`, `"in-process"`, `"tcp"`).
    pub transport_name: &'static str,
    /// Wire-level transport counters (zero in sequential mode, which
    /// moves buffers without a transport).
    pub transport: TransportStats,
    /// Per-superstep counter rows, summed over all workers — populated
    /// only when the run traced ([`crate::Config::trace`]); empty
    /// otherwise. Row N covers superstep N+1.
    pub timeline: Vec<SuperstepStats>,
    /// The raw per-rank traces behind `timeline` (one per worker, in
    /// rank order, on a common epoch) — the input to
    /// [`crate::trace::chrome_trace_json`]. Empty when the run did not
    /// trace.
    pub traces: Vec<RankTrace>,
    /// Recovery epochs the run went through, summed over ranks at the
    /// gather root (0 on an unfailed run; each surviving rank counts
    /// every epoch it re-joined, so a single failure on an `M`-rank
    /// cluster typically reads `M`).
    pub recoveries: u64,
    /// Total microseconds spent in recovery (mesh teardown through the
    /// resumed superstep loop), summed over ranks.
    pub recovery_us: u64,
}

impl RunStats {
    /// Total remote (network) bytes across channels — the paper's
    /// "message" column.
    pub fn remote_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.bytes.remote).sum()
    }

    /// Total bytes including loop-back traffic.
    pub fn total_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.bytes.total()).sum()
    }

    /// Total application-level messages across channels.
    pub fn messages(&self) -> u64 {
        self.channels.iter().map(|c| c.messages).sum()
    }

    /// Total messages sent as per-worker mirror broadcasts.
    pub fn mirrored_msgs(&self) -> u64 {
        self.channels.iter().map(|c| c.mirrored).sum()
    }

    /// Total per-edge messages the mirror broadcasts avoided.
    pub fn mirror_saved(&self) -> u64 {
        self.channels.iter().map(|c| c.mirror_saved).sum()
    }

    /// Remote bytes in mebibytes, for table printing.
    pub fn remote_mib(&self) -> f64 {
        self.remote_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Wall time in milliseconds, for table printing.
    pub fn millis(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e3
    }

    /// Exchange-buffer pool hit rate over the whole run (1.0 when the run
    /// never requested a buffer).
    pub fn pool_hit_rate(&self) -> f64 {
        self.pool.hit_rate()
    }

    /// Transport wire bytes in mebibytes, for table printing.
    pub fn wire_mib(&self) -> f64 {
        self.transport.wire_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Barrier crossings per exchange round (threaded mode). The pooled
    /// engine performs 2 per round (mailbox sync + fused reduction) plus
    /// at most one extra per superstep for channel-free programs.
    pub fn crossings_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.barrier_crossings as f64 / self.rounds as f64
        }
    }

    /// Merge per-worker channel metrics into this run's totals, matching by
    /// position (all workers create channels in the same order).
    pub fn absorb_channels(&mut self, worker_channels: Vec<ChannelMetrics>) {
        if self.channels.is_empty() {
            self.channels = worker_channels;
            return;
        }
        assert_eq!(
            self.channels.len(),
            worker_channels.len(),
            "workers disagree on channel count"
        );
        for (into, from) in self.channels.iter_mut().zip(worker_channels) {
            debug_assert_eq!(into.name, from.name);
            into.bytes.merge(&from.bytes);
            into.messages += from.messages;
            into.mirrored += from.mirrored;
            into.mirror_saved += from.mirror_saved;
        }
    }

    /// Find a channel's metrics by name (first match).
    pub fn channel(&self, name: &str) -> Option<&ChannelMetrics> {
        self.channels.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm(name: &str, remote: u64, local: u64, messages: u64) -> ChannelMetrics {
        ChannelMetrics {
            name: name.to_string(),
            bytes: ByteCounter { remote, local },
            messages,
            ..Default::default()
        }
    }

    #[test]
    fn absorb_accumulates_by_position() {
        let mut stats = RunStats::default();
        stats.absorb_channels(vec![cm("a", 10, 1, 2), cm("b", 5, 0, 1)]);
        stats.absorb_channels(vec![cm("a", 7, 2, 3), cm("b", 0, 0, 0)]);
        assert_eq!(stats.remote_bytes(), 22);
        assert_eq!(stats.total_bytes(), 25);
        assert_eq!(stats.messages(), 6);
        assert_eq!(stats.channel("a").unwrap().bytes.remote, 17);
        assert!(stats.channel("zzz").is_none());
    }

    #[test]
    fn absorb_accumulates_mirror_counters() {
        let mut stats = RunStats::default();
        let mirrored = |m: u64, s: u64| ChannelMetrics {
            name: "mirror".to_string(),
            mirrored: m,
            mirror_saved: s,
            ..Default::default()
        };
        stats.absorb_channels(vec![mirrored(3, 40)]);
        stats.absorb_channels(vec![mirrored(2, 10)]);
        assert_eq!(stats.mirrored_msgs(), 5);
        assert_eq!(stats.mirror_saved(), 50);
    }

    #[test]
    #[should_panic(expected = "disagree on channel count")]
    fn absorb_rejects_mismatched_shapes() {
        let mut stats = RunStats::default();
        stats.absorb_channels(vec![cm("a", 1, 0, 0)]);
        stats.absorb_channels(vec![cm("a", 1, 0, 0), cm("b", 1, 0, 0)]);
    }

    #[test]
    fn byte_counter_merge() {
        let mut a = ByteCounter {
            remote: 1,
            local: 2,
        };
        a.merge(&ByteCounter {
            remote: 10,
            local: 20,
        });
        assert_eq!(
            a,
            ByteCounter {
                remote: 11,
                local: 22
            }
        );
        assert_eq!(a.total(), 33);
    }

    /// `merge` must sum *every* counter field. Both operands are built
    /// with exhaustive struct literals (no `..Default::default()`) so a
    /// newly added `TransportStats` field fails to compile here until
    /// this test — and therefore `merge` — learns about it; each field
    /// carries a distinct value so a summation typo (wrong source field,
    /// assignment instead of `+=`) breaks a distinct assertion.
    #[test]
    fn transport_merge_covers_every_field() {
        let mut a = TransportStats {
            wire_bytes: 1,
            frames: 2,
            round_trips: 3,
            coalesced_frames: 4,
            flushes: 5,
            send_stall_us: 6,
            recv_stall_us: 7,
            poll_waits: 8,
            wakeups_spurious: 9,
        };
        let b = TransportStats {
            wire_bytes: 100,
            frames: 200,
            round_trips: 300,
            coalesced_frames: 400,
            flushes: 500,
            send_stall_us: 600,
            recv_stall_us: 700,
            poll_waits: 800,
            wakeups_spurious: 900,
        };
        a.merge(&b);
        assert_eq!(
            a,
            TransportStats {
                wire_bytes: 101,
                frames: 202,
                round_trips: 303,
                coalesced_frames: 404,
                flushes: 505,
                send_stall_us: 606,
                recv_stall_us: 707,
                poll_waits: 808,
                wakeups_spurious: 909,
            }
        );
        assert_eq!(a.stall_us(), 606 + 707);
    }

    #[test]
    fn unit_helpers() {
        let mut stats = RunStats {
            elapsed: Duration::from_millis(1500),
            ..Default::default()
        };
        stats.absorb_channels(vec![cm("a", 2 * 1024 * 1024, 0, 1)]);
        assert!((stats.remote_mib() - 2.0).abs() < 1e-9);
        assert!((stats.millis() - 1500.0).abs() < 1e-9);
    }
}
