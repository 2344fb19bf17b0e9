//! # pc-bsp — simulated-cluster BSP substrate
//!
//! This crate is the "hardware" of the reproduction: an in-process stand-in
//! for the 8-node cluster the paper runs on. It provides
//!
//! * [`codec`] — a compact, deterministic binary codec so message *bytes*
//!   can be accounted exactly (the paper's "message (GB)" columns),
//! * [`buffer`] — per-destination raw byte buffers and the channel frame
//!   format used by the channel engine,
//! * [`pool`] — per-worker buffer pools that make the steady-state
//!   exchange path allocation-free (buffers cycle sender → receiver →
//!   sender instead of being dropped and reallocated every round),
//! * [`exchange`] — the pairwise mailboxes through which workers swap
//!   buffers, plus the sense-reversing barrier and double-buffered
//!   round-word slots that make each round one crossing in the threaded
//!   execution mode,
//! * [`transport`] — the pluggable [`ExchangeTransport`] rendezvous
//!   surface behind which the backends live: [`transport::InProcess`]
//!   (the `Hub`) and [`tcp::Tcp`] (real loopback sockets),
//! * [`topology`] — vertex → worker ownership maps (hash partition or an
//!   explicit partition vector),
//! * [`metrics`] — per-channel and per-run statistics (bytes, messages,
//!   supersteps, exchange rounds, wall time, transport wire counters).
//!
//! Both the channel engine (`pc-channels`) and the baseline Pregel engine
//! (`pc-pregel`) are built on these primitives, so their byte accounting is
//! directly comparable.

pub mod buffer;
pub mod codec;
pub mod exchange;
pub mod metrics;
pub mod poll;
pub mod pool;
pub mod tcp;
pub mod topology;
pub mod trace;
pub mod transport;

pub use buffer::{iter_frames, FrameWriter, OutBuffers};
pub use codec::{Codec, FixedWidth, Reader};
pub use exchange::{Hub, Mailbox, SharedReduce, SpinBarrier};
pub use metrics::{ChannelMetrics, PoolStats, RunStats, SuperstepStats, TransportStats};
pub use pool::BufferPool;
pub use tcp::{Tcp, TcpOptions};
pub use topology::{MirrorHub, MirrorPlan, Topology};
pub use trace::{RankTrace, SpanKind, TraceEvent, Tracer};
pub use transport::{ExchangeTransport, InProcess, TransportError};

/// How the simulated cluster executes its workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One OS thread per worker, barrier-synchronized (default; mirrors the
    /// paper's one-process-per-node deployment).
    #[default]
    Threads,
    /// Workers run in a deterministic round-robin on the calling thread.
    /// Used by tests and property-based checks.
    Sequential,
}

/// Which exchange backend carries the threaded workers' traffic.
///
/// Sequential mode moves buffers directly and ignores this choice. Both
/// backends are observationally identical (same values, bytes,
/// supersteps, rounds — enforced by `tests/transport_conformance.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Shared-memory mailbox + barrier ([`transport::InProcess`], the
    /// simulated cluster; default).
    #[default]
    InProcess,
    /// A full mesh of loopback TCP sockets ([`tcp::Tcp`]): real
    /// length-prefixed wire traffic under one non-blocking batched driver
    /// (pipelined sends, per-peer send queues, small frames coalesced
    /// into super-frames), every round closed by one `END` frame per peer
    /// carrying the round's reduction words.
    Tcp,
}

impl TransportKind {
    /// The CLI name of this transport (accepted back by `FromStr`).
    pub fn as_str(&self) -> &'static str {
        match self {
            TransportKind::InProcess => "in-process",
            TransportKind::Tcp => "tcp",
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "in-process" | "inprocess" | "hub" => Ok(TransportKind::InProcess),
            // `tcp-batched` and `batched` name the same driver; they stay
            // accepted so older command lines keep working.
            "tcp" | "tcp-batched" | "batched" => Ok(TransportKind::Tcp),
            other => Err(format!("unknown transport '{other}' (in-process|tcp)")),
        }
    }
}

/// The distributed role of one process in a multi-process run: which rank
/// it drives and the socket mesh connecting it to its peers.
///
/// When [`Config::dist`] carries one of these, the engine runs exactly one
/// worker (`rank`) in the calling process over the shared [`Tcp`] mesh —
/// the other ranks live in other OS processes (or, in tests, other
/// threads sharing the same mesh object). Final values and statistics are
/// gathered to rank 0 through the same transport.
#[derive(Debug, Clone)]
pub struct RankRole {
    /// The worker this process drives, in `0..Config::workers`.
    pub rank: usize,
    /// The socket mesh connecting all ranks ([`Tcp::loopback`] for
    /// simulated multi-process tests, [`Tcp::mesh`] for real processes).
    pub transport: std::sync::Arc<Tcp>,
    /// The rank final results are gathered to — rank 0 normally, the
    /// acting coordinator after a failover (result gather, `--verify`
    /// and stats output follow the acting coordinator).
    pub gather_root: usize,
    /// Recovery epochs this rank has been through (copied into
    /// [`RunStats::recoveries`] by the rank driver and summed over ranks
    /// at the gather root).
    pub recoveries: u64,
    /// Total microseconds this rank spent in recovery (mesh teardown to
    /// resumed superstep loop), promoted into [`RunStats::recovery_us`].
    pub recovery_us: u64,
}

/// Superstep checkpointing policy.
///
/// When a [`Config`] carries one of these, the engine's worker drivers
/// snapshot their state (vertex values, frontier, channel state, byte and
/// pool counters) into `dir` every `every` supersteps, with worker 0
/// committing a manifest once all workers acked their segment durable
/// (one boundary later: the writes run beside the supersteps).
/// The mechanics (segment files, digests, atomic commit, GC) live in the
/// `pc-ckpt` crate; this is just the knob the engine reads.
#[derive(Debug, Clone)]
pub struct CkptPolicy {
    /// Checkpoint cadence in supersteps (a checkpoint is taken after
    /// every `every`-th superstep that is not the run's last).
    pub every: u64,
    /// Checkpoint directory, shared by all workers/ranks of the run.
    pub dir: std::path::PathBuf,
}

/// Run-wide configuration shared by both engines.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of simulated workers (the paper uses an 8-node cluster).
    pub workers: usize,
    /// Execution mode (threads vs deterministic sequential).
    pub mode: ExecMode,
    /// Exchange backend used by the threaded mode.
    pub transport: TransportKind,
    /// Safety cap on supersteps; engines abort (panic) past this to surface
    /// non-terminating programs in tests.
    pub max_supersteps: u64,
    /// Multi-process role: when set, this process drives the single worker
    /// `dist.rank` over `dist.transport` instead of spawning threads, and
    /// `mode`/`transport` are ignored.
    pub dist: Option<RankRole>,
    /// Explicit [`exchange::SpinBarrier`] spin budget (iterations spent
    /// spinning before yielding). `None` keeps the adaptive default: spin
    /// when cores outnumber workers, park immediately otherwise.
    pub spin_budget: Option<u32>,
    /// Superstep checkpointing (threaded and multi-process drivers only);
    /// `None` disables it.
    pub ckpt: Option<CkptPolicy>,
    /// Superstep-resolution tracing (threaded and multi-process drivers
    /// only; the sequential reference never traces). When set, every
    /// worker records a [`trace::RankTrace`] — phase spans plus
    /// per-superstep counters — and `RunStats` carries the merged
    /// timeline. Off (`false`, the default) it is a true no-op: the
    /// engine branches on a `None` recorder and touches nothing else.
    pub trace: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            workers: 8,
            mode: ExecMode::Threads,
            transport: TransportKind::InProcess,
            max_supersteps: 1_000_000,
            dist: None,
            spin_budget: None,
            ckpt: None,
            trace: false,
        }
    }
}

impl Config {
    /// Config with `workers` workers and the default threaded mode.
    pub fn with_workers(workers: usize) -> Self {
        Config {
            workers,
            ..Config::default()
        }
    }

    /// Deterministic sequential config, handy in tests.
    pub fn sequential(workers: usize) -> Self {
        Config {
            workers,
            mode: ExecMode::Sequential,
            ..Config::default()
        }
    }

    /// Threaded config exchanging over loopback TCP sockets.
    pub fn tcp(workers: usize) -> Self {
        Config {
            workers,
            transport: TransportKind::Tcp,
            ..Config::default()
        }
    }

    /// Alias of [`Config::tcp`], kept because `benchmark/src/layers.rs`
    /// still calls it.
    pub fn tcp_batched(workers: usize) -> Self {
        Config::tcp(workers)
    }

    /// Config for one rank of a multi-process run: `workers` total ranks,
    /// of which this process drives `rank` over `transport`.
    pub fn rank(workers: usize, rank: usize, transport: std::sync::Arc<Tcp>) -> Self {
        assert!(rank < workers, "rank {rank} out of range 0..{workers}");
        Config {
            workers,
            transport: TransportKind::Tcp,
            dist: Some(RankRole {
                rank,
                transport,
                gather_root: 0,
                recoveries: 0,
                recovery_us: 0,
            }),
            ..Config::default()
        }
    }
}
