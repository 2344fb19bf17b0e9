//! Run statistics: bytes per channel, messages, supersteps, wall time.
//!
//! The paper's tables report `runtime (s)` and `message (GB)` per program;
//! [`RunStats`] carries both plus enough breakdown (per-channel bytes,
//! exchange rounds) to explain *where* a reduction came from.
//!
//! Every counter struct is declared once, as a field table
//! (`counters!`): a field's doc comment, its name and its merge rule. The
//! table generates the struct, `merge`, the gather/checkpoint [`Codec`]
//! and the `(name, value)` walk [`run_stats_json`] prints, so a new
//! counter touches its table line and the code that counts it, nothing
//! else.

use crate::codec::{Codec, Reader};
use crate::trace::RankTrace;
use std::fmt::Write as _;
use std::time::Duration;

/// How `merge` folds one counter of another instance into this one.
macro_rules! merge_rule {
    (sum, $into:expr, $from:expr, $field:ident) => {
        $into += $from
    };
    (max, $into:expr, $from:expr, $field:ident) => {
        $into = $into.max($from)
    };
    (same, $into:expr, $from:expr, $field:ident) => {
        assert_eq!(
            $into, $from,
            concat!("merging rows of different `", stringify!($field), "`")
        )
    };
}

/// Declare a struct of `u64` counters from one field table. Each line is
/// a field's doc comment, name and merge rule: `sum` (add the other's
/// count), `max` (keep the larger) or `same` (must be equal; merging
/// different values panics). Generates the struct, `merge`, a [`Codec`]
/// (every field in table order, 8 bytes each) and `fields()`.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* $field:ident: $rule:ident, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        impl $name {
            /// Accumulate another instance's counters, each by its rule.
            pub fn merge(&mut self, other: &Self) {
                $( merge_rule!($rule, self.$field, other.$field, $field); )+
            }

            /// Every counter as `(name, value)`, in declaration order.
            pub fn fields(&self) -> [(&'static str, u64); [$(stringify!($field)),+].len()] {
                [$((stringify!($field), self.$field)),+]
            }
        }

        impl Codec for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                $( self.$field.encode(buf); )+
            }
            fn decode(r: &mut Reader<'_>) -> Self {
                $name { $( $field: r.get(), )+ }
            }
            const FIXED_SIZE: Option<usize> = Some(8 * [$(stringify!($field)),+].len());
        }
    };
}

counters! {
    /// Local/remote byte tally for one channel on one worker.
    pub struct ByteCounter {
        /// Bytes whose destination worker differs from the source (the
        /// paper's "message" volume — what would cross the network).
        remote: sum,
        /// Bytes addressed to the sending worker itself (loop-back).
        local: sum,
    }
}

impl ByteCounter {
    /// Sum both directions.
    pub fn total(&self) -> u64 {
        self.remote + self.local
    }
}

/// Aggregated statistics of one named channel across all workers.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
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

impl Codec for ChannelMetrics {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.name.len() as u32).encode(buf);
        buf.extend_from_slice(self.name.as_bytes());
        self.bytes.encode(buf);
        self.messages.encode(buf);
        self.mirrored.encode(buf);
        self.mirror_saved.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Self {
        let len: u32 = r.get();
        let name =
            String::from_utf8(r.take(len as usize).to_vec()).expect("channel name is not utf-8");
        ChannelMetrics {
            name,
            bytes: r.get(),
            messages: r.get(),
            mirrored: r.get(),
            mirror_saved: r.get(),
        }
    }
}

counters! {
    /// Wire-level counters of one exchange transport (see
    /// [`crate::transport::ExchangeTransport::stats`]).
    ///
    /// The in-process transport counts mailbox traffic (payload bytes, one
    /// frame per post); the TCP transport counts real socket traffic
    /// including the 5-byte frame headers and the `END` frame that closes
    /// every round toward every peer. No counter here counts a second
    /// synchronization: there is none (a round's `again` and active-count
    /// words ride its own exchange, and the checkpoint ack is proven by the
    /// next one).
    ///
    /// The trailing fields belong to the TCP transport and stay zero
    /// everywhere else: `coalesced_frames` counts logical frames that rode
    /// inside a coalesced super-frame (each super-frame counts once in
    /// `frames` but carries ≥ 2 coalesced sub-frames), `flushes` counts
    /// send queues drained completely to the kernel, `send_stall_us` /
    /// `recv_stall_us` split the driver's kernel-wait time by what it was
    /// stuck on, and `poll_waits` / `wakeups_spurious` count the readiness
    /// multiplexer's kernel waits and the wake-ups that moved nothing.
    pub struct TransportStats {
        /// Bytes put on the wire (or through the mailbox) by all workers.
        wire_bytes: sum,
        /// Frames sent by all workers (data and end frames); a coalesced
        /// super-frame counts as one.
        frames: sum,
        /// Always 0: the standalone reductions it counted are gone. Kept
        /// only so the `--stats-json` key the benchmark reads and the
        /// multi-process gather frame, which encodes this struct, stay as
        /// they are until the benchmark drops its `bsp.round_trips` metric.
        round_trips: sum,
        /// Logical frames carried inside coalesced super-frames (TCP
        /// transport; 0 elsewhere).
        coalesced_frames: sum,
        /// Send queues fully drained to the kernel (TCP transport; 0
        /// elsewhere).
        flushes: sum,
        /// Microseconds spent stalled with queued send bytes the kernel
        /// would not accept (TCP transport; 0 elsewhere).
        send_stall_us: sum,
        /// Microseconds spent waiting for inbound bytes with nothing
        /// queued to send — the receive-side mirror of `send_stall_us`, so
        /// the stall column no longer under-reports pure read waits (TCP
        /// transport; 0 elsewhere).
        recv_stall_us: sum,
        /// Kernel readiness waits: one per `poll(2)` over the mesh's
        /// pollfd set (TCP transport; 0 elsewhere).
        poll_waits: sum,
        /// Readiness wake-ups after which a full progress pass moved zero
        /// bytes — spurious wake-ups, a health metric of the interest
        /// computation (TCP transport; 0 elsewhere).
        wakeups_spurious: sum,
    }
}

impl TransportStats {
    /// Total microseconds the driver sat in kernel waits, either
    /// direction — the headline stall column.
    pub fn stall_us(&self) -> u64 {
        self.send_stall_us + self.recv_stall_us
    }
}

counters! {
    /// Hit/miss counters of one or more [`crate::pool::BufferPool`]s.
    pub struct PoolStats {
        /// Buffer requests served from the pool.
        hits: sum,
        /// Buffer requests that had to allocate.
        misses: sum,
    }
}

impl PoolStats {
    /// Fraction of requests served from the pool (1.0 when there were no
    /// requests at all — nothing was allocated either).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

counters! {
    /// Per-superstep counters — the row the `--superstep-table` summary
    /// and `RunStats::timeline` are made of. On a worker these are that
    /// worker's share; after [`crate::trace::merge_timelines`] they are
    /// run-global sums, except `rounds` (identical everywhere) and the two
    /// `*_max_us` fields, which are the slowest worker's — a sum over
    /// workers cannot tell "everyone busy" from "one worker busy while the
    /// rest wait for it".
    pub struct SuperstepStats {
        /// Superstep number (1-based).
        superstep: same,
        /// Exchange rounds this superstep ran.
        rounds: max,
        /// Vertices active (computed) in this superstep.
        active: sum,
        /// Application messages sent during this superstep.
        messages: sum,
        /// Remote channel bytes sent during this superstep.
        remote_bytes: sum,
        /// Transport kernel-wait µs charged to this superstep
        /// (send + recv stall deltas of the worker's transport counters).
        stall_us: sum,
        /// Exchange-pool misses (allocations) during this superstep.
        pool_misses: sum,
        /// µs spent in the vertex-program phase.
        compute_us: sum,
        /// µs spent in exchange rounds (serialize → deserialize,
        /// reductions excluded).
        exchange_us: sum,
        /// The largest `compute_us` of any one worker.
        compute_max_us: max,
        /// The largest `exchange_us` of any one worker.
        exchange_max_us: max,
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

    /// Barrier crossings per exchange round (threaded mode). The engine
    /// crosses once per round (the round's `again`/`active` words ride
    /// its own sync) plus once per superstep for the confirming exchange
    /// that ends it, so a one-round-per-superstep program reads 2.0.
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

/// Render one run's complete [`RunStats`] as a standalone JSON document —
/// the `--stats-json` payload and the only serializer of `RunStats`.
/// Everything the `pcgraph` report prints to stderr is here as a
/// machine-readable field, plus every counter of the generated tables
/// (pool, transport, timeline rows), the per-channel breakdown, and (when
/// the run traced) the merged per-superstep timeline.
pub fn run_stats_json(stats: &RunStats) -> String {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"runtime_ms\": {:.3},", stats.millis());
    let totals = [
        ("supersteps", stats.supersteps),
        ("rounds", stats.rounds),
        ("remote_bytes", stats.remote_bytes()),
        ("total_bytes", stats.total_bytes()),
        ("messages", stats.messages()),
        ("max_rank_msgs", stats.max_rank_msgs),
        ("mirrored_msgs", stats.mirrored_msgs()),
        ("mirror_saved", stats.mirror_saved()),
        ("barrier_crossings", stats.barrier_crossings),
        ("barrier_spins", stats.barrier_spins),
        ("recoveries", stats.recoveries),
        ("recovery_us", stats.recovery_us),
    ];
    write_fields(&mut json, "  ", &totals, true);
    json.push_str("  \"pool\": {\n");
    write_fields(&mut json, "    ", &stats.pool.fields(), true);
    let _ = writeln!(json, "    \"hit_rate\": {:.6}", stats.pool.hit_rate());
    json.push_str("  },\n  \"transport\": {\n");
    let _ = writeln!(json, "    \"name\": \"{}\",", stats.transport_name);
    write_fields(&mut json, "    ", &stats.transport.fields(), false);
    json.push_str("  },\n  \"channels\": [\n");
    write_objects(&mut json, &stats.channels, |json, c| {
        let _ = writeln!(json, "      \"name\": \"{}\",", c.name);
        let counts = [
            ("remote_bytes", c.bytes.remote),
            ("local_bytes", c.bytes.local),
            ("messages", c.messages),
            ("mirrored", c.mirrored),
            ("mirror_saved", c.mirror_saved),
        ];
        write_fields(json, "      ", &counts, false);
    });
    json.push_str("  ],\n  \"timeline\": [\n");
    write_objects(&mut json, &stats.timeline, |json, row| {
        write_fields(json, "      ", &row.fields(), false);
    });
    json.push_str("  ]\n}\n");
    json
}

/// One `"key": value` line per field at `indent`, comma-separated — the
/// last one too when `more` keys follow in the same object.
fn write_fields(json: &mut String, indent: &str, fields: &[(&str, u64)], more: bool) {
    for (i, (key, value)) in fields.iter().enumerate() {
        let last = !more && i + 1 == fields.len();
        let _ = writeln!(
            json,
            "{indent}\"{key}\": {value}{}",
            if last { "" } else { "," }
        );
    }
}

/// One JSON object per row as the elements of an array, each written by
/// `body`.
fn write_objects<T>(json: &mut String, rows: &[T], body: impl Fn(&mut String, &T)) {
    for (i, row) in rows.iter().enumerate() {
        json.push_str("    {\n");
        body(json, row);
        let last = i + 1 == rows.len();
        json.push_str(if last { "    }\n" } else { "    },\n" });
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

    /// A run with a distinct value in every field, two channels and two
    /// timeline rows.
    fn populated() -> RunStats {
        let channel = |name: &str, c: [u64; 5]| ChannelMetrics {
            name: name.to_string(),
            bytes: ByteCounter {
                remote: c[0],
                local: c[1],
            },
            messages: c[2],
            mirrored: c[3],
            mirror_saved: c[4],
        };
        let row = |c: [u64; 11]| SuperstepStats {
            superstep: c[0],
            rounds: c[1],
            active: c[2],
            messages: c[3],
            remote_bytes: c[4],
            stall_us: c[5],
            pool_misses: c[6],
            compute_us: c[7],
            exchange_us: c[8],
            compute_max_us: c[9],
            exchange_max_us: c[10],
        };
        RunStats {
            supersteps: 3,
            rounds: 5,
            elapsed: std::time::Duration::from_micros(1_234_567),
            channels: vec![
                channel("scatter", [1000, 200, 30, 4, 50]),
                channel("mirror", [6000, 700, 80, 9, 110]),
            ],
            pool: PoolStats {
                hits: 29,
                misses: 31,
            },
            barrier_crossings: 17,
            barrier_spins: 19,
            max_rank_msgs: 61,
            transport_name: "tcp",
            transport: TransportStats {
                wire_bytes: 37,
                frames: 41,
                round_trips: 43,
                coalesced_frames: 47,
                flushes: 53,
                send_stall_us: 59,
                recv_stall_us: 67,
                poll_waits: 71,
                wakeups_spurious: 73,
            },
            timeline: vec![
                row([1, 2, 79, 83, 89, 97, 101, 103, 107, 109, 113]),
                row([2, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173]),
            ],
            traces: Vec::new(),
            recoveries: 2,
            recovery_us: 23,
        }
    }

    /// Golden pin of the `--stats-json` document: every key, its order
    /// and its number formatting, for a run with a distinct value in
    /// every field, two channels and two timeline rows.
    #[test]
    fn run_stats_json_is_pinned() {
        let expected = r#"{
  "runtime_ms": 1234.567,
  "supersteps": 3,
  "rounds": 5,
  "remote_bytes": 7000,
  "total_bytes": 7900,
  "messages": 110,
  "max_rank_msgs": 61,
  "mirrored_msgs": 13,
  "mirror_saved": 160,
  "barrier_crossings": 17,
  "barrier_spins": 19,
  "recoveries": 2,
  "recovery_us": 23,
  "pool": {
    "hits": 29,
    "misses": 31,
    "hit_rate": 0.483333
  },
  "transport": {
    "name": "tcp",
    "wire_bytes": 37,
    "frames": 41,
    "round_trips": 43,
    "coalesced_frames": 47,
    "flushes": 53,
    "send_stall_us": 59,
    "recv_stall_us": 67,
    "poll_waits": 71,
    "wakeups_spurious": 73
  },
  "channels": [
    {
      "name": "scatter",
      "remote_bytes": 1000,
      "local_bytes": 200,
      "messages": 30,
      "mirrored": 4,
      "mirror_saved": 50
    },
    {
      "name": "mirror",
      "remote_bytes": 6000,
      "local_bytes": 700,
      "messages": 80,
      "mirrored": 9,
      "mirror_saved": 110
    }
  ],
  "timeline": [
    {
      "superstep": 1,
      "rounds": 2,
      "active": 79,
      "messages": 83,
      "remote_bytes": 89,
      "stall_us": 97,
      "pool_misses": 101,
      "compute_us": 103,
      "exchange_us": 107,
      "compute_max_us": 109,
      "exchange_max_us": 113
    },
    {
      "superstep": 2,
      "rounds": 127,
      "active": 131,
      "messages": 137,
      "remote_bytes": 139,
      "stall_us": 149,
      "pool_misses": 151,
      "compute_us": 157,
      "exchange_us": 163,
      "compute_max_us": 167,
      "exchange_max_us": 173
    }
  ]
}
"#;
        assert_eq!(run_stats_json(&populated()), expected);
    }

    /// What a JSON parser enforces: balanced braces and brackets, no
    /// trailing comma, no non-finite float.
    fn assert_wellformed(json: &str) {
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for bad in ["NaN", "nan", "inf"] {
            assert!(!json.contains(bad), "non-finite float leaked: {json}");
        }
        for trailing in [",\n    }", ",\n  ]", ",\n  }"] {
            assert!(!json.contains(trailing), "trailing comma: {json}");
        }
    }

    /// A zero-round run — no channels, no timeline, no buffer ever
    /// requested — still serializes to valid JSON, with empty arrays and
    /// the 0/0 pool hit rate pinned to 1.
    #[test]
    fn zero_round_workload_serializes_to_valid_json() {
        let json = run_stats_json(&RunStats::default());
        assert_wellformed(&json);
        assert!(json.contains("\"hit_rate\": 1.000000\n"), "{json}");
        assert!(json.contains("\"channels\": [\n  ],\n"), "{json}");
        assert!(json.ends_with("\"timeline\": [\n  ]\n}\n"), "{json}");
    }

    /// A populated run with channels and a traced timeline is just as
    /// clean: objects separated by commas, the last of each array without.
    #[test]
    fn run_stats_json_is_wellformed() {
        let json = run_stats_json(&populated());
        assert_wellformed(&json);
        assert_eq!(json.matches("    },\n").count(), 2, "{json}");
        assert_eq!(json.matches("    }\n  ]").count(), 2, "{json}");
    }

    /// Every generated codec reads back what it wrote, at its declared
    /// fixed size and in table order — the gather and checkpoint wire
    /// order — and a channel record is its length-prefixed name followed
    /// by its five counters.
    #[test]
    fn stats_codecs_round_trip_in_table_order() {
        fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(v: &T, len: usize) -> Vec<u8> {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            assert_eq!(buf.len(), len);
            assert!(T::FIXED_SIZE.is_none_or(|size| size == len));
            let mut r = Reader::new(&buf);
            assert_eq!(&T::decode(&mut r), v);
            assert!(r.is_empty(), "trailing bytes");
            buf
        }
        let s = populated();
        let wire = round_trip(&s.transport, 9 * 8);
        let words: Vec<u64> = wire
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect();
        assert_eq!(words, [37, 41, 43, 47, 53, 59, 67, 71, 73]);
        round_trip(&s.pool, 2 * 8);
        round_trip(&s.timeline[1], 11 * 8);
        round_trip(&s.channels[0].bytes, 2 * 8);
        round_trip(&s.channels, 4 + (4 + 7 + 5 * 8) + (4 + 6 + 5 * 8));
    }

    /// `superstep` is a `same` field: merging rows of two different
    /// supersteps is a caller bug, refused rather than summed.
    #[test]
    #[should_panic(expected = "merging rows of different `superstep`")]
    fn merging_rows_of_different_supersteps_panics() {
        let timeline = populated().timeline;
        let mut row = timeline[0];
        row.merge(&timeline[1]);
    }
}
