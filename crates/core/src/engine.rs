//! The channel engine: the worker computation logic of Fig. 4.
//!
//! ```text
//! load_graph(); channels.initialize(); all vertices active
//! while active vertex exists:            // a superstep
//!     for active vertex v: compute(v)
//!     all channels active
//!     while active channel exists:       // an exchange round
//!         for active channel c: c.serialize()
//!         buffer_exchange()
//!         for active channel c: c.deserialize(); c.set_active(c.again())
//! ```
//!
//! The engine runs the same per-worker phases under two drivers: a
//! deterministic [`ExecMode::Sequential`] loop and a threaded
//! [`ExecMode::Threads`] driver with one OS thread per worker. The
//! threaded driver is generic over an [`ExchangeTransport`] — the
//! rendezvous surface (post/sync/flush/take/recycle) behind which
//! the backends live: the shared-memory [`InProcess`] hub (default) or
//! the real-socket [`pc_bsp::tcp::Tcp`] mesh (non-blocking: `sync` only
//! queues and the take drives the socket mesh until the round
//! quiesces), selected by [`pc_bsp::TransportKind`] in the [`Config`]. Channel activity and
//! vertex activity are global decisions: per-channel `again()` flags are
//! OR-reduced across workers and active-vertex counts are sum-reduced, so
//! all workers leave the loops together.
//!
//! ## One rendezvous per round
//!
//! A threaded round synchronizes exactly once: the reduction rides the
//! exchange. Round `k`'s exchange carries every worker's `[again,
//! active]` words from round `k-1`, so each round is *speculative*:
//!
//! * round 1 of a superstep serializes every channel;
//! * round `k ≥ 2` serializes only the channels whose `again()` was true
//!   *on this worker* (`L`) — always a subset of the global mask `G` the
//!   exchange then reveals, so nothing is ever rolled back;
//! * after the take, the channels in `G & !L` are serialized late (which
//!   keeps stateful channels such as `RequestRespond`'s phase counter
//!   aligned) and must emit nothing — the [`Channel::again`] contract,
//!   asserted with the channel's name; then `G` is deserialized;
//! * a superstep ends with one **confirming exchange**: the exchange that
//!   reveals `G = 0`. It moves no buffers, touches neither the pool nor
//!   any channel, is not counted as a round (so `rounds` is what the
//!   sequential engine reports), and its summed active count is the next
//!   superstep's — a channel-free superstep is that exchange alone.
//!
//! The sequential driver runs the same speculative sequence, so it checks
//! the same contract.
//!
//! [`Channel::again`]: crate::channel::Channel::again
//!
//! The steady-state loop is allocation-free and synchronization-lean:
//!
//! * active vertices live in an epoch-stamped [`Frontier`] worklist, so a
//!   superstep costs O(active), not O(n/workers);
//! * outgoing buffers are swapped against a per-worker
//!   [`BufferPool`](pc_bsp::pool::BufferPool) and consumed receive buffers
//!   cycle back to their sender (directly in sequential mode, through the
//!   transport's return path in threaded mode), with a per-round
//!   high-water trim releasing capacity a one-off giant superstep would
//!   otherwise pin;
//! * frame routing reuses per-channel [`FrameSpan`] tables instead of
//!   rebuilding nested vectors every round;
//! * a threaded round synchronizes exactly once, and a superstep ends with
//!   one confirming exchange (above).

use crate::channel::{Channel, ChannelSet, DeserializeCx, SerializeCx, VertexCtx, WorkerEnv};
use crate::frontier::Frontier;
use pc_bsp::buffer::{frame_spans, FrameSpan, OutBuffers};
use pc_bsp::codec::{Codec, Reader};
use pc_bsp::metrics::{
    ByteCounter, ChannelMetrics, PoolStats, RunStats, SuperstepStats, TransportStats,
};
use pc_bsp::pool::BufferPool;
use pc_bsp::tcp::TcpOptions;
use pc_bsp::topology::Topology;
use pc_bsp::trace::{self, RankTrace, SpanKind, Tracer};
use pc_bsp::transport::{ExchangeTransport, InProcess, PeerFailed};
use pc_bsp::{CkptPolicy, Config, ExecMode, RankRole, Tcp, TransportKind};
use pc_ckpt::{Epoch, Manifest, RunId, Store, Writer};
use std::sync::Arc;
use std::time::Instant;

/// A channel-based vertex-centric program.
///
/// Implementations are shared (by reference) across worker threads, so the
/// usual pattern is to keep the graph in an `Arc` field and read adjacency
/// inside [`Algorithm::compute`].
pub trait Algorithm: Sync {
    /// Per-vertex state.
    type Value: Clone + Default + Send + 'static;
    /// The program's channels — a tuple, one element per communication
    /// pattern.
    type Channels: ChannelSet<Self::Value>;

    /// Construct this worker's channel instances.
    fn channels(&self, env: &WorkerEnv) -> Self::Channels;

    /// The vertex program, run once per active vertex per superstep.
    fn compute(&self, v: &mut VertexCtx<'_>, value: &mut Self::Value, ch: &mut Self::Channels);

    /// Serialize one final vertex value for cross-process result
    /// gathering. Multi-process runs ([`Config::dist`]) ship each rank's
    /// values to rank 0 over the exchange transport once the program
    /// terminates; in-process modes never call this.
    ///
    /// The default panics — implement both hooks (most easily via
    /// [`crate::dist_value_via_codec!`] when the value type implements
    /// [`Codec`]) to make an algorithm runnable under `Config::dist`.
    fn encode_value(value: &Self::Value, buf: &mut Vec<u8>) {
        let _ = (value, buf);
        panic!(
            "{} has no value serialization for multi-process runs; \
             implement Algorithm::encode_value/decode_value",
            std::any::type_name::<Self>()
        );
    }

    /// Deserialize one vertex value written by [`Algorithm::encode_value`].
    fn decode_value(r: &mut Reader<'_>) -> Self::Value {
        let _ = r;
        panic!(
            "{} has no value serialization for multi-process runs; \
             implement Algorithm::encode_value/decode_value",
            std::any::type_name::<Self>()
        );
    }
}

/// Result of a run: the final vertex values (indexed by global vertex id)
/// and the run statistics.
#[derive(Debug, Clone)]
pub struct Output<V> {
    /// Final per-vertex values, `values[v]` for global id `v`.
    pub values: Vec<V>,
    /// Supersteps, rounds, wall time, per-channel bytes/messages, buffer
    /// pool hit rate, barrier crossings.
    pub stats: RunStats,
}

/// Per-worker run result: `(global id, value)` pairs, channel metrics and
/// the worker's buffer-pool counters.
type WorkerPart<V> = (Vec<(u32, V)>, Vec<ChannelMetrics>, PoolStats);

/// Per-round buffer scratch: `(sender-or-peer, bytes)` pairs whose
/// capacity is reused across rounds.
type BufList = Vec<(usize, Vec<u8>)>;

struct WorkerState<'a, A: Algorithm> {
    algo: &'a A,
    env: WorkerEnv,
    values: Vec<A::Value>,
    frontier: Frontier,
    channels: A::Channels,
    out: OutBuffers,
    /// Freelist feeding [`OutBuffers::drain_into`]; refilled with the
    /// round's consumed receive buffers.
    pool: BufferPool,
    /// Per-channel frame routing tables, reused across rounds.
    spans: Vec<Vec<FrameSpan>>,
    bytes: Vec<ByteCounter>,
    step: u64,
}

/// Initial capacity of the buffers pre-warmed into each worker's pool —
/// enough for a typical small frame, so the first rounds of a short run
/// genuinely reuse the buffer instead of merely dodging the miss counter.
const PREWARM_CAPACITY: usize = 4096;

impl<'a, A: Algorithm> WorkerState<'a, A> {
    fn new(algo: &'a A, topo: &Arc<Topology>, worker: usize) -> Self {
        let env = WorkerEnv {
            worker,
            topo: Arc::clone(topo),
        };
        let numv = env.local_count();
        let channels = algo.channels(&env);
        let n_channels = channels.len();
        assert!(n_channels <= 64, "at most 64 channels per algorithm");
        // Pre-warm one buffer per peer: the first exchange round swaps a
        // buffer toward every destination, and on short runs those
        // warm-up misses used to dominate the hit rate (a short 4-worker
        // RMAT propagation WCC sat at 0.71).
        // Every execution mode pre-warms identically, so cross-mode
        // PoolStats determinism is untouched.
        let mut pool = BufferPool::new();
        pool.prewarm(topo.workers(), PREWARM_CAPACITY);
        WorkerState {
            algo,
            env,
            values: vec![A::Value::default(); numv],
            frontier: Frontier::all_active(numv),
            channels,
            out: OutBuffers::new(worker, topo.workers()),
            pool,
            spans: vec![Vec::new(); n_channels],
            bytes: vec![ByteCounter::default(); n_channels],
            step: 0,
        }
    }

    fn worker(&self) -> usize {
        self.env.worker
    }

    fn channel_mask(&self) -> u64 {
        let n = self.channels.len();
        if n == 0 {
            0
        } else if n == 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    /// Superstep prologue: bump the counter and let channels swap their
    /// receive buffers, then run `compute` on every active vertex
    /// (ascending local order, O(active)).
    fn compute_phase(&mut self) {
        self.step += 1;
        let step = self.step;
        self.channels
            .for_each(&mut |_, ch| ch.before_superstep(step));
        let WorkerState {
            algo,
            env,
            values,
            channels,
            frontier,
            ..
        } = self;
        let locals = env.topo.locals(env.worker);
        let (current, mut activator) = frontier.split();
        for &li in current {
            let mut ctx = VertexCtx {
                id: locals[li as usize],
                local: li,
                step,
                halted: false,
                env,
            };
            algo.compute(&mut ctx, &mut values[li as usize], channels);
            if !ctx.halted {
                activator.activate(li);
            }
        }
    }

    /// Serialize the channels named in `mask` into the out-buffers. A
    /// `late` serialize runs after the round's exchange, for channels
    /// whose `again()` was false on this worker but true elsewhere: each
    /// must emit nothing (the buffers were already posted), and one that
    /// does is a broken [`Channel::again`](crate::channel::Channel::again)
    /// contract.
    fn serialize_phase(&mut self, mask: u64, late: bool) {
        let WorkerState {
            env,
            channels,
            out,
            bytes,
            ..
        } = self;
        channels.for_each(&mut |i, ch| {
            if mask & (1 << i) == 0 {
                return;
            }
            let mut cx = SerializeCx {
                channel_id: i,
                env,
                out: &mut *out,
                bytes: &mut bytes[i as usize],
            };
            ch.serialize(&mut cx);
            assert!(
                !late || out.pending_bytes() == 0,
                "channel '{}' emitted a frame in a round it did not ask for: \
                 its again() was false on worker {} after the previous round, \
                 so this round's serialize must write nothing",
                ch.name(),
                env.worker
            );
        });
    }

    /// Move the out-buffers into `drained` (destinations for the driver),
    /// swapping pooled buffers into their place.
    fn drain(&mut self, drained: &mut BufList) {
        // Frame bytes were already attributed per channel in SerializeCx;
        // the drain-side counter is only a cross-check.
        let mut scratch = ByteCounter::default();
        self.out.drain_into(&mut scratch, &mut self.pool, drained);
    }

    /// Deserialize this round's received buffers into the channels named in
    /// `mask`; returns the bitmask of channels asking for another round.
    fn deserialize_phase(&mut self, received: &BufList, mask: u64) -> u64 {
        for spans in &mut self.spans {
            spans.clear();
        }
        for (bi, (_, buf)) in received.iter().enumerate() {
            for (cid, start, end) in frame_spans(buf) {
                self.spans[cid as usize].push(FrameSpan {
                    buf: bi as u32,
                    start,
                    end,
                });
            }
        }
        let WorkerState {
            env,
            values,
            frontier,
            channels,
            spans,
            ..
        } = self;
        let mut again = 0u64;
        channels.for_each(&mut |i, ch| {
            if mask & (1 << i) == 0 {
                return;
            }
            let mut cx = DeserializeCx {
                env,
                spans: &spans[i as usize],
                bufs: received,
                values,
                frontier,
            };
            ch.deserialize(&mut cx);
            if ch.again() {
                again |= 1 << i;
            }
        });
        again
    }

    /// Vertices queued for the next superstep so far — after the final
    /// exchange round this is exactly the next superstep's active count.
    fn pending_active(&self) -> u64 {
        self.frontier.pending() as u64
    }

    /// Vertices active in the superstep about to run (the current
    /// frontier). Tracing records this as the superstep's `active` count.
    fn active_now(&self) -> u64 {
        self.frontier.current().len() as u64
    }

    /// Monotone traffic totals over this worker's channels: application
    /// messages and remote bytes since the run (or the restored epoch's
    /// original start). Tracing snapshots these at superstep boundaries;
    /// the deltas become the timeline rows.
    fn traffic_totals(&mut self) -> (u64, u64) {
        let mut messages = 0u64;
        self.channels
            .for_each(&mut |_, ch| messages += ch.message_count());
        let remote_bytes = self.bytes.iter().map(|b| b.remote).sum();
        (messages, remote_bytes)
    }

    /// Superstep epilogue: the queued activations become the active set.
    fn end_superstep(&mut self) -> u64 {
        self.frontier.advance() as u64
    }

    /// Panic (before the first superstep) unless this worker's state can
    /// be checkpointed: every channel must implement the state codec and
    /// the algorithm must implement the value codec.
    fn assert_checkpointable(&mut self) {
        let mut scratch = Vec::new();
        A::encode_value(&A::Value::default(), &mut scratch);
        self.channels.for_each(&mut |_, ch| {
            scratch.clear();
            assert!(
                ch.encode_state(&mut scratch),
                "channel '{}' does not support checkpointing; implement \
                 Channel::encode_state/decode_state or disable checkpoints",
                ch.name()
            );
        });
    }

    /// Append this worker's complete superstep-boundary state to `buf`:
    /// vertex values, the advanced frontier, per-channel byte counters,
    /// pool counters and every channel's own state, each channel writing
    /// straight into `buf` behind a length patched in afterwards. The
    /// inverse of [`WorkerState::restore_snapshot`].
    fn encode_snapshot(&mut self, buf: &mut Vec<u8>) {
        (self.values.len() as u64).encode(buf);
        for v in &self.values {
            A::encode_value(v, buf);
        }
        let current = self.frontier.current();
        (current.len() as u32).encode(buf);
        u32::encode_slice(current, buf);
        self.bytes.encode(buf);
        self.pool.stats().encode(buf);
        self.encode_channels(buf, |ch, buf| {
            assert!(ch.encode_state(buf), "channel lost its state codec");
        });
    }

    /// Sum of the channels' tables generations: it moves exactly when
    /// some channel's registration tables changed.
    fn tables_generation(&mut self) -> u64 {
        let mut generation = 0;
        self.channels
            .for_each(&mut |_, ch| generation += ch.tables_generation());
        generation
    }

    /// Append every channel's registration tables to `buf` — a tables
    /// file's payload, the inverse of [`WorkerState::restore_tables`].
    fn encode_tables(&mut self, buf: &mut Vec<u8>) {
        self.encode_channels(buf, |ch, buf| ch.encode_tables(buf));
    }

    /// Restore the channels' registration tables into a freshly
    /// constructed worker, before its snapshot.
    fn restore_tables(&mut self, payload: &[u8]) {
        let mut r = Reader::new(payload);
        self.decode_channels(&mut r, |ch, r| ch.decode_tables(r));
        assert!(r.is_empty(), "trailing bytes in worker tables");
    }

    /// The channel count, then one section per channel: what `encode`
    /// writes straight into `buf`, behind a length patched in afterwards.
    fn encode_channels(
        &mut self,
        buf: &mut Vec<u8>,
        encode: fn(&mut dyn Channel<A::Value>, &mut Vec<u8>),
    ) {
        (self.channels.len() as u32).encode(buf);
        self.channels.for_each(&mut |_, ch| {
            let len_at = buf.len();
            0u64.encode(buf);
            let section_at = buf.len();
            encode(ch, buf);
            let len = (buf.len() - section_at) as u64;
            buf[len_at..section_at].copy_from_slice(&len.to_le_bytes());
        });
    }

    /// Read what [`WorkerState::encode_channels`] wrote, each section by
    /// its channel's `decode`, which must consume all of it.
    fn decode_channels(
        &mut self,
        r: &mut Reader<'_>,
        decode: fn(&mut dyn Channel<A::Value>, &mut Reader<'_>),
    ) {
        let n_channels: u32 = r.get();
        assert_eq!(
            n_channels as usize,
            self.channels.len(),
            "channel count drifted"
        );
        self.channels.for_each(&mut |i, ch| {
            let len: u64 = r.get();
            let mut section = Reader::new(r.take(len as usize));
            decode(ch, &mut section);
            assert!(
                section.is_empty(),
                "channel {i} left {} unread snapshot bytes",
                section.remaining()
            );
        });
    }

    /// Restore a freshly constructed worker (its tables already restored)
    /// from a snapshot taken after `superstep` (the checkpoint's superstep
    /// boundary).
    fn restore_snapshot(&mut self, payload: &[u8], superstep: u64) {
        let mut r = Reader::new(payload);
        let numv: u64 = r.get();
        assert_eq!(
            numv as usize,
            self.values.len(),
            "snapshot holds {numv} values but this worker owns {}",
            self.values.len()
        );
        for v in &mut self.values {
            *v = A::decode_value(&mut r);
        }
        let current: Vec<u32> = r.get();
        self.frontier = Frontier::restore(self.values.len(), (superstep + 1) as u32, current);
        let n_bytes: u32 = r.get();
        assert_eq!(n_bytes as usize, self.bytes.len(), "channel count drifted");
        for b in &mut self.bytes {
            *b = r.get();
        }
        self.pool.set_stats(r.get());
        self.decode_channels(&mut r, |ch, r| ch.decode_state(r));
        assert!(r.is_empty(), "trailing bytes in worker snapshot");
        self.step = superstep;
    }

    /// Final per-worker results: `(global_id, value)` pairs plus channel
    /// metrics and pool counters.
    fn finish(mut self) -> WorkerPart<A::Value> {
        let mut metrics = Vec::with_capacity(self.channels.len());
        let bytes = &self.bytes;
        self.channels.for_each(&mut |i, ch| {
            let (mirrored, mirror_saved) = ch.mirror_stats();
            metrics.push(ChannelMetrics {
                name: ch.name().to_string(),
                bytes: bytes[i as usize],
                messages: ch.message_count(),
                mirrored,
                mirror_saved,
            });
        });
        // The channels go before the values are paired up, so the pairs
        // can reuse their memory.
        drop(self.channels);
        let locals = self.env.topo.locals(self.env.worker);
        let pairs = locals.iter().copied().zip(self.values).collect();
        (pairs, metrics, self.pool.stats())
    }
}

/// Run an algorithm over a partitioned graph.
///
/// Returns the final vertex values (dense, by global id) and [`RunStats`].
pub fn run<A: Algorithm>(algo: &A, topo: &Arc<Topology>, cfg: &Config) -> Output<A::Value> {
    assert_eq!(
        topo.workers(),
        cfg.workers,
        "topology was built for {} workers but config asks for {}",
        topo.workers(),
        cfg.workers
    );
    if let Some(role) = &cfg.dist {
        return run_rank(algo, topo, cfg, role);
    }
    match cfg.mode {
        ExecMode::Sequential => run_sequential(algo, topo, cfg),
        ExecMode::Threads => match cfg.transport {
            TransportKind::InProcess => run_threaded(
                algo,
                topo,
                cfg,
                &InProcess::with_budget(cfg.workers, cfg.spin_budget),
            ),
            TransportKind::Tcp => {
                // One knob tunes both waits: `spin_budget` reaches the
                // barrier below and the transport's readiness multiplexer
                // here (None keeps the cores-vs-workers heuristic).
                let opts = TcpOptions {
                    spins: cfg.spin_budget,
                    ..TcpOptions::default()
                };
                let tcp = Tcp::loopback_with(cfg.workers, opts)
                    .unwrap_or_else(|e| panic!("cannot bind tcp transport: {e}"));
                run_threaded(algo, topo, cfg, &tcp)
            }
        },
    }
}

fn assemble<V: Clone + Default>(
    n: usize,
    parts: Vec<WorkerPart<V>>,
    stats: &mut RunStats,
) -> Vec<V> {
    let mut values = vec![V::default(); n];
    for (pairs, metrics, pool) in parts {
        absorb_part(stats, metrics, &pool);
        for (gid, v) in pairs {
            values[gid as usize] = v;
        }
    }
    values
}

/// Fold one part's counters into the run's: its channel metrics, its
/// pool, and the skew metric — one part = one worker (or rank), so the
/// largest per-part message volume is the hottest rank's send load.
fn absorb_part(stats: &mut RunStats, metrics: Vec<ChannelMetrics>, pool: &PoolStats) {
    let part_msgs: u64 = metrics.iter().map(|m| m.messages).sum();
    stats.max_rank_msgs = stats.max_rank_msgs.max(part_msgs);
    stats.absorb_channels(metrics);
    stats.pool.merge(pool);
}

/// One worker's view of the run's checkpoint policy: the opened store,
/// the run identity pinned into every manifest, the epoch (if any) this
/// run resumes from, and the background writer with the epoch it holds.
/// Every worker computes the same `restore` decision —
/// [`Store::latest_restorable`] validates the manifest *and* all
/// segments and the tables files they link, so a torn file fails the
/// epoch for everyone alike.
///
/// The ack that every worker's segment of an epoch is durable is not a
/// message. A boundary superstep settles the previous epoch after compute
/// and before its first `sync`, and no `take_all_into` returns before
/// every worker's `sync`; so once worker 0 has taken that superstep's
/// exchange, every segment is durable and it may commit.
struct CkptCtx {
    store: Store,
    every: u64,
    id: RunId,
    restore: Option<Manifest>,
    writer: Writer,
    /// `(superstep, rounds)` of the epoch handed to `writer` and not yet
    /// committed: written or being written, invisible until the next
    /// boundary (or the end-of-run drain) commits it. The same on every
    /// worker.
    unacked: Option<(u64, u64)>,
    /// The buffer the last settled epoch came back in; the next snapshot
    /// is encoded into it.
    buf: Vec<u8>,
    /// The worker's tables generation as of the newest tables file handed
    /// to `writer` (or restored): a boundary writes tables only when the
    /// generation moved.
    tables_generation: u64,
}

impl CkptCtx {
    fn open<A: Algorithm>(policy: &CkptPolicy, topo: &Topology, workers: usize) -> CkptCtx {
        let store = Store::open(&policy.dir)
            .unwrap_or_else(|e| panic!("cannot open checkpoint store: {e}"));
        let id = RunId {
            workers: workers as u32,
            n: topo.n() as u64,
            algo: std::any::type_name::<A>().to_string(),
        };
        let restore = store
            .latest_restorable(&id)
            .unwrap_or_else(|e| panic!("checkpoint restore scan failed: {e}"));
        CkptCtx {
            writer: Writer::new(store.clone()),
            store,
            every: policy.every.max(1),
            id,
            restore,
            unacked: None,
            buf: Vec::new(),
            tables_generation: 0,
        }
    }

    /// Restore worker `s` from the epoch this run resumes from, if any:
    /// the tables its segment links first, then the segment. The writer
    /// goes on linking the restored tables file until they change, so a
    /// respawned rank does not write again what is already durable.
    /// Returns the restored `(superstep, rounds)`.
    fn resume<A: Algorithm>(&mut self, s: &mut WorkerState<'_, A>) -> Option<(u64, u64)> {
        let m = self.restore.as_ref()?;
        let snap = self
            .store
            .read_snapshot(m.superstep, s.worker() as u32)
            .unwrap_or_else(|e| panic!("checkpoint read failed: {e}"));
        if let Some((_, tables)) = &snap.tables {
            s.restore_tables(tables);
        }
        s.restore_snapshot(&snap.segment.payload, m.superstep);
        self.writer.link(snap.tables.map(|(link, _)| link));
        self.tables_generation = s.tables_generation();
        Some((m.superstep, m.rounds))
    }

    /// Wait for the epoch with the writer, if any, to be durable, and keep
    /// its buffer for the next snapshot. Runs before the `sync` that acks
    /// the epoch (type docs). Checkpoint I/O failures are fatal, not
    /// recoverable, and the writer's surface here: a rank that could not
    /// persist its state must not go on to ack it. The error names the
    /// file that failed (a segment, or the tables file in front of it).
    /// Returns the wait by `clock` (0 without one).
    fn settle(&mut self, clock: Option<&Tracer>) -> u64 {
        let now = || clock.map_or(0, Tracer::now_us);
        let t0 = now();
        if let Some(done) = self.writer.finish() {
            done.segment
                .unwrap_or_else(|e| panic!("checkpoint write failed: {e}"));
            done.commit
                .unwrap_or_else(|e| panic!("checkpoint commit failed: {e}"));
            self.buf = done.buf;
        }
        now() - t0
    }

    /// The epoch every worker has settled, for worker 0 to commit. Only
    /// valid once an exchange has followed the settle (type docs).
    fn acked(&mut self, w: usize) -> Option<Epoch> {
        let (superstep, rounds) = self.unacked.take()?;
        (w == 0).then(|| Epoch {
            id: self.id.clone(),
            superstep,
            rounds,
        })
    }

    /// The boundary after `supersteps`, its exchange done: encode this
    /// epoch in place into the settled epoch's buffer (behind the tables,
    /// if they changed since the last tables file) and hand it to the
    /// writer — on worker 0 together with the commit of the settled
    /// epoch. Nothing here waits for a disk. Returns `snapshot_us` by
    /// `clock` (0 without one).
    fn take<A: Algorithm>(
        &mut self,
        s: &mut WorkerState<'_, A>,
        (supersteps, rounds): (u64, u64),
        clock: Option<&Tracer>,
    ) -> u64 {
        let now = || clock.map_or(0, Tracer::now_us);
        let w = s.worker();
        let t0 = now();
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        let generation = s.tables_generation();
        if generation != self.tables_generation {
            self.tables_generation = generation;
            pc_ckpt::begin_tables(&mut buf, supersteps, w as u32, self.id.workers);
            s.encode_tables(&mut buf);
            pc_ckpt::seal_segment(&mut buf);
        }
        let tables_len = buf.len();
        pc_ckpt::begin_segment(&mut buf, supersteps, rounds, w as u32, self.id.workers);
        s.encode_snapshot(&mut buf);
        pc_ckpt::seal_segment(&mut buf[tables_len..]);
        let snapshot_us = now() - t0;
        let commit = self.acked(w);
        self.writer.submit(buf, tables_len, commit);
        self.unacked = Some((supersteps, rounds));
        snapshot_us
    }

    /// End of the run: settle the epoch still with the writer, ack it with
    /// one words-only exchange — a channel-free superstep's confirming
    /// exchange: no buffers, no pool traffic, not a round — and commit it,
    /// so a finished run leaves every epoch it took committed. Nothing
    /// else is writing by then, so worker 0 commits inline. Returns
    /// `stall_us` by `clock`.
    fn drain<T: ExchangeTransport + ?Sized>(
        &mut self,
        hub: &T,
        w: usize,
        clock: Option<&Tracer>,
    ) -> u64 {
        let stall_us = self.settle(clock);
        hub.sync(w, [0, 0]);
        hub.take_all_into(w, &mut Vec::new());
        if let Some(epoch) = self.acked(w) {
            self.store
                .commit_epoch(&epoch)
                .unwrap_or_else(|e| panic!("checkpoint commit failed: {e}"));
        }
        stall_us
    }
}

fn run_sequential<A: Algorithm>(algo: &A, topo: &Arc<Topology>, cfg: &Config) -> Output<A::Value> {
    assert!(
        cfg.ckpt.is_none(),
        "checkpointing requires the threaded or multi-process driver \
         (the sequential driver is the deterministic reference and never checkpoints)"
    );
    let workers = cfg.workers;
    let mut states: Vec<WorkerState<'_, A>> = (0..workers)
        .map(|w| WorkerState::new(algo, topo, w))
        .collect();
    let mut stats = RunStats::default();
    // Round scratch, allocated once: per-receiver inboxes, the drain list
    // and each worker's own `again` mask. Buffers inside cycle back to
    // their sender's pool every round.
    let mut inbox: Vec<BufList> = vec![Vec::new(); workers];
    let mut drained: BufList = Vec::new();
    let mut local = vec![0u64; workers];
    let start = Instant::now();
    loop {
        for s in &mut states {
            s.compute_phase();
        }
        stats.supersteps += 1;
        // The threaded drivers' speculative rounds (module docs), minus
        // the transport: each worker serializes what it asked for itself,
        // learns the global mask from everyone's words, then serializes
        // the rest late.
        local.fill(states[0].channel_mask());
        loop {
            for (s, &mask) in states.iter_mut().zip(&local) {
                s.serialize_phase(mask, false);
                let from = s.worker();
                s.drain(&mut drained);
                for (peer, buf) in drained.drain(..) {
                    inbox[peer].push((from, buf));
                }
            }
            let global = local.iter().fold(0, |acc, &mask| acc | mask);
            if global == 0 {
                break;
            }
            for (w, s) in states.iter_mut().enumerate() {
                s.serialize_phase(global & !local[w], true);
                local[w] = s.deserialize_phase(&inbox[w], global);
            }
            // Consumed buffers go home: straight back to the sender's
            // pool, to be swapped in again at the next drain.
            for column in &mut inbox {
                while let Some((from, buf)) = column.pop() {
                    states[from].pool.put(buf);
                }
            }
            for s in &mut states {
                s.pool.end_round();
            }
            stats.rounds += 1;
        }
        let active: u64 = states.iter_mut().map(|s| s.end_superstep()).sum();
        if active == 0 {
            break;
        }
        assert!(
            stats.supersteps < cfg.max_supersteps,
            "exceeded max_supersteps = {}",
            cfg.max_supersteps
        );
    }
    stats.elapsed = start.elapsed();
    stats.transport_name = "sequential";
    let parts = states.into_iter().map(|s| s.finish()).collect();
    let values = assemble(topo.n(), parts, &mut stats);
    Output { values, stats }
}

/// Per-superstep baseline of the monotone worker counters, captured at
/// superstep start so the end-of-superstep deltas become one timeline
/// row. Only exists while tracing.
struct TraceBase {
    active: u64,
    messages: u64,
    remote_bytes: u64,
    pool_misses: u64,
    stall_us: u64,
    rounds: u64,
}

/// Drive one worker's superstep/round loop over a transport until the
/// program terminates globally. This is the per-worker body shared by the
/// threaded driver (one call per worker thread) and the multi-process
/// rank driver (one call per OS process). Returns the worker's results
/// plus its superstep/round counters (identical on every worker — the
/// loop exits are global decisions) and, when [`Config::trace`] is set,
/// the worker's recorded [`RankTrace`].
///
/// Tracing is strictly additive: every probe branches on the `Option`
/// tracer, so an untraced run executes the exact pre-tracing phase
/// sequence (pinned by the conformance suite) and performs zero extra
/// transport or clock calls.
fn drive_worker<A: Algorithm, T: ExchangeTransport + ?Sized>(
    algo: &A,
    topo: &Arc<Topology>,
    cfg: &Config,
    hub: &T,
    w: usize,
) -> (WorkerPart<A::Value>, u64, u64, Option<RankTrace>) {
    let mut s = WorkerState::new(algo, topo, w);
    let mut drained: BufList = Vec::new();
    let mut received: BufList = Vec::new();
    let mut supersteps = 0u64;
    let mut rounds = 0u64;
    let mut tracer = if cfg.trace {
        Some(Tracer::new(w))
    } else {
        None
    };
    // The probe lets the TCP transport's readiness multiplexer hand
    // its kernel waits to this worker's trace without the transport ever
    // seeing the tracer; it uninstalls when the guard drops.
    let _poll_probe = tracer
        .as_ref()
        .map(|t| trace::install_poll_probe(t.origin()));
    // Checkpointing: restore the last committed epoch (if one exists for
    // this run) before the first superstep, then snapshot at the policy's
    // cadence. Both decisions are pure functions of the shared checkpoint
    // directory and the loop counters, so every worker takes them
    // identically and the exchange sequence stays in lock-step.
    let mut ckpt = cfg
        .ckpt
        .as_ref()
        .map(|p| CkptCtx::open::<A>(p, topo, cfg.workers));
    if let Some(ck) = &mut ckpt {
        s.assert_checkpointable();
        let t0 = tracer.as_ref().map(|t| t.now_us());
        if let Some(restored) = ck.resume(&mut s) {
            (supersteps, rounds) = restored;
            if let (Some(t), Some(t0)) = (tracer.as_mut(), t0) {
                t.end(SpanKind::Recovery, supersteps, t0);
            }
        }
    }
    loop {
        let base = tracer.as_ref().map(|_| {
            let (messages, remote_bytes) = s.traffic_totals();
            TraceBase {
                active: s.active_now(),
                messages,
                remote_bytes,
                pool_misses: s.pool.stats().misses,
                stall_us: hub.worker_stats(w).stall_us(),
                rounds,
            }
        });
        let mut compute_us = 0u64;
        let mut exchange_us = 0u64;
        let t0 = tracer.as_ref().map(|t| t.now_us());
        s.compute_phase();
        supersteps += 1;
        if let (Some(t), Some(t0)) = (tracer.as_mut(), t0) {
            compute_us = t.end(SpanKind::Compute, supersteps, t0);
        }
        // A boundary settles the previous epoch before its first `sync`:
        // its exchange is the ack (`CkptCtx`).
        let boundary = ckpt
            .as_ref()
            .is_some_and(|ck| supersteps.is_multiple_of(ck.every));
        let stall_us = match &mut ckpt {
            Some(ck) if boundary => ck.settle(tracer.as_ref()),
            _ => 0,
        };
        // The speculative round loop (module docs). Every worker runs the
        // same exchanges, so the loop stays in lock-step; each exchange
        // is the one synchronization of its round. Round 1 serializes
        // every channel, and its lane-0 word — the full mask, the same on
        // every worker — makes it a round unless there are no channels.
        let mut local = s.channel_mask();
        let total_active = loop {
            let tx = tracer.as_ref().map(|t| t.now_us());
            if local != 0 {
                s.serialize_phase(local, false);
                // Buffers recycled by last round's receivers come home
                // before we drain, so the swap hits the pool.
                hub.reclaim_into(w, &mut s.pool);
                s.drain(&mut drained);
                for (peer, buf) in drained.drain(..) {
                    hub.post(w, peer, buf);
                }
            }
            hub.sync(w, [local, s.pending_active()]);
            let [global, active] = hub.take_all_into(w, &mut received);
            if global == 0 {
                // The confirming exchange: no worker asked for a round,
                // so no worker posted anything.
                debug_assert!(received.is_empty());
                if let (Some(t), Some(tx)) = (tracer.as_mut(), tx) {
                    t.end(SpanKind::Barrier, supersteps, tx);
                }
                break active;
            }
            s.serialize_phase(global & !local, true);
            local = s.deserialize_phase(&received, global);
            for (sender, buf) in received.drain(..) {
                hub.recycle(w, sender, buf);
            }
            s.pool.end_round();
            if let (Some(t), Some(tx)) = (tracer.as_mut(), tx) {
                exchange_us += t.end(SpanKind::Exchange, supersteps, tx);
            }
            rounds += 1;
        };
        s.end_superstep();
        if let (Some(t), Some(base)) = (tracer.as_mut(), base) {
            let (messages, remote_bytes) = s.traffic_totals();
            t.drain_poll_spans(supersteps);
            t.superstep(SuperstepStats {
                superstep: supersteps,
                rounds: rounds - base.rounds,
                active: base.active,
                messages: messages - base.messages,
                remote_bytes: remote_bytes - base.remote_bytes,
                stall_us: hub.worker_stats(w).stall_us() - base.stall_us,
                pool_misses: s.pool.stats().misses - base.pool_misses,
                compute_us,
                exchange_us,
                compute_max_us: compute_us,
                exchange_max_us: exchange_us,
            });
        }
        if total_active == 0 {
            break;
        }
        // Snapshot only at boundaries the run continues past (the
        // terminal state is about to be gathered anyway).
        if let Some(ck) = ckpt.as_mut().filter(|_| boundary) {
            let t0 = tracer.as_ref().map(|t| t.now_us());
            let snapshot_us = ck.take(&mut s, (supersteps, rounds), tracer.as_ref());
            if let (Some(t), Some(t0)) = (tracer.as_mut(), t0) {
                t.end_with(
                    SpanKind::Checkpoint,
                    supersteps,
                    t0,
                    [snapshot_us, stall_us],
                );
            }
        }
        assert!(
            supersteps < cfg.max_supersteps,
            "exceeded max_supersteps = {}",
            cfg.max_supersteps
        );
    }
    // The last epoch taken is still with the writer, uncommitted: drain it
    // (its own span name — it is not an epoch) while the mesh is up.
    if let Some(ck) = ckpt.as_mut().filter(|ck| ck.unacked.is_some()) {
        let t0 = tracer.as_ref().map(|t| t.now_us());
        let stall_us = ck.drain(hub, w, tracer.as_ref());
        if let (Some(t), Some(t0)) = (tracer.as_mut(), t0) {
            t.end_with(SpanKind::CheckpointDrain, supersteps, t0, [0, stall_us]);
        }
    }
    // Peers may still be waiting for this worker's last frames (the final
    // confirming exchange's, or the checkpoint drain's), which the TCP
    // transport can still hold in a send queue: push them out before this
    // worker leaves the protocol.
    hub.flush(w);
    let trace = tracer.map(|mut t| {
        // Waits incurred by the final flush still belong to the last
        // superstep's track.
        t.drain_poll_spans(supersteps);
        t.finish()
    });
    (s.finish(), supersteps, rounds, trace)
}

/// Poisons the transport ([`ExchangeTransport::poison`]) when its worker
/// unwinds, so the peers waiting on that worker fail instead of hanging.
struct PoisonOnUnwind<'a, T: ExchangeTransport + ?Sized>(&'a T, usize);

impl<T: ExchangeTransport + ?Sized> Drop for PoisonOnUnwind<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison(self.1);
        }
    }
}

/// The threaded driver, generic over the exchange backend. One OS thread
/// per worker; the transport carries the buffer exchange and its round
/// words. Everything a transport can observe — the post/sync/take call
/// sequence — is identical across backends, which is what the
/// conformance suite (`tests/transport_conformance.rs`) pins down.
fn run_threaded<A: Algorithm, T: ExchangeTransport>(
    algo: &A,
    topo: &Arc<Topology>,
    cfg: &Config,
    hub: &T,
) -> Output<A::Value> {
    let workers = cfg.workers;
    assert_eq!(hub.workers(), workers, "transport sized for wrong cluster");
    let start = Instant::now();
    let mut results: Vec<Option<WorkerPart<A::Value>>> = Vec::new();
    results.resize_with(workers, || None);
    let mut counters = (0u64, 0u64); // (supersteps, rounds) — identical on all workers
    let mut traces: Vec<RankTrace> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            handles.push(scope.spawn(move || {
                let _poison = PoisonOnUnwind(hub, w);
                let (part, supersteps, rounds, trace) = drive_worker(algo, topo, cfg, hub, w);
                (w, part, supersteps, rounds, trace)
            }));
        }
        let mut failure: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok((w, part, supersteps, rounds, trace)) => {
                    results[w] = Some(part);
                    counters = (supersteps, rounds);
                    if let Some(tr) = trace {
                        traces.push(tr); // joined in spawn order: rank order
                    }
                }
                // Keep the first original payload: a peer released by
                // the poison only reports it. A recovery-capable
                // supervisor above `run` matches the original against the
                // transport's typed fault slot.
                Err(payload) => {
                    if failure
                        .as_ref()
                        .is_none_or(|f| f.is::<PeerFailed>() && !payload.is::<PeerFailed>())
                    {
                        failure = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = failure {
            std::panic::resume_unwind(payload);
        }
    });
    let mut stats = RunStats {
        supersteps: counters.0,
        rounds: counters.1,
        barrier_crossings: hub.barrier_crossings(),
        barrier_spins: hub.barrier_spins(),
        transport_name: hub.name(),
        transport: hub.stats(),
        ..Default::default()
    };
    if !traces.is_empty() {
        trace::align_epochs(&mut traces);
        stats.timeline = trace::merge_timelines(&traces);
        stats.traces = traces;
    }
    let parts = results
        .into_iter()
        .map(|r| r.expect("missing worker result"))
        .collect();
    let values = assemble(topo.n(), parts, &mut stats);
    stats.elapsed = start.elapsed();
    Output { values, stats }
}

/// Encode one worker's results for the cross-process gather: value pairs,
/// per-channel metrics, pool counters, the rank's transport counters and
/// (when the run traced) the rank's trace stream. The trace rides as a
/// flagged trailing section, so untraced gather frames are byte-identical
/// to the pre-tracing wire format; recovery counters ride a second
/// flagged section the same way (an unfailed run encodes one `false`
/// byte).
fn encode_part<A: Algorithm>(
    part: &WorkerPart<A::Value>,
    tstats: TransportStats,
    trace: Option<&RankTrace>,
    recovery: (u64, u64),
    buf: &mut Vec<u8>,
) {
    let (pairs, metrics, pool) = part;
    (pairs.len() as u32).encode(buf);
    for (gid, v) in pairs {
        gid.encode(buf);
        A::encode_value(v, buf);
    }
    metrics.encode(buf);
    pool.encode(buf);
    tstats.encode(buf);
    match trace {
        Some(tr) => {
            true.encode(buf);
            tr.encode(buf);
        }
        None => false.encode(buf),
    }
    let (recoveries, recovery_us) = recovery;
    if recoveries == 0 && recovery_us == 0 {
        false.encode(buf);
    } else {
        true.encode(buf);
        recoveries.encode(buf);
        recovery_us.encode(buf);
    }
}

/// Decode one worker's gather frame (see [`encode_part`]).
///
/// Gather frames are produced by [`encode_part`] in a peer running the
/// same binary, after the conformance-checked exchange protocol has
/// already carried the whole run, so they are trusted bytes: a malformed
/// frame (version-skewed peer, corrupted wire) panics and aborts the run
/// — the same policy the engine applies to any other transport failure.
/// External inputs that cross a trust boundary (shipped plans, graph
/// files) go through the fallible decoders in `pc_graph::io`/`pc_dist`
/// instead.
fn decode_part<A: Algorithm>(
    r: &mut Reader<'_>,
    mut value: impl FnMut(u32, A::Value),
) -> GatheredPart {
    let npairs: u32 = r.get();
    for _ in 0..npairs {
        let gid: u32 = r.get();
        value(gid, A::decode_value(r));
    }
    let metrics = r.get();
    let pool = r.get();
    let tstats = r.get();
    let trace = if r.get::<bool>() {
        Some(r.get::<RankTrace>())
    } else {
        None
    };
    let recovery = if r.get::<bool>() {
        (r.get(), r.get())
    } else {
        (0, 0)
    };
    (metrics, pool, tstats, trace, recovery)
}

/// A gather frame's counters, after [`decode_part`] handed its values
/// on: channel metrics, pool, transport, trace, and recoveries with
/// their microseconds.
type GatheredPart = (
    Vec<ChannelMetrics>,
    PoolStats,
    TransportStats,
    Option<RankTrace>,
    (u64, u64),
);

/// The multi-process driver: this process runs exactly one worker
/// (`role.rank`) over the shared socket mesh; its peers are other OS
/// processes (or, in tests, other threads holding the same mesh object).
///
/// The superstep/round loop is byte-identical to the threaded TCP driver
/// — same [`drive_worker`] body, same wire traffic — which is what the
/// multi-process arm of the conformance suite pins down. When the program
/// terminates, one extra exchange round gathers every rank's results to
/// the gather root (`role.gather_root` — rank 0 normally, the acting
/// coordinator after a failover): each rank posts its encoded
/// values/metrics ([`encode_part`]), the root merges them into a
/// complete [`Output`]. Other ranks return an `Output` holding only
/// their local values (every other slot is `Default`) and their local
/// statistics.
fn run_rank<A: Algorithm>(
    algo: &A,
    topo: &Arc<Topology>,
    cfg: &Config,
    role: &RankRole,
) -> Output<A::Value> {
    let workers = cfg.workers;
    let t: &Tcp = &role.transport;
    assert_eq!(t.workers(), workers, "transport sized for wrong cluster");
    assert!(
        role.rank < workers,
        "rank {} out of range 0..{workers}",
        role.rank
    );
    let w = role.rank;
    let start = Instant::now();
    let (part, supersteps, rounds, trace) = drive_worker(algo, topo, cfg, t, w);
    // Result gather: one extra post/sync/take round addressed at rank 0.
    // Transport counters are snapshotted first so every rank reports the
    // same traffic the conformant run produced (the gather's own frames
    // are bookkeeping, not algorithm traffic). The rank's trace stream —
    // when the run traced — rides the same frame.
    let local_tstats = t.worker_stats(w);
    let root = role.gather_root;
    assert!(
        root < workers,
        "gather root {root} out of range 0..{workers}"
    );
    let mut frame = Vec::new();
    supersteps.encode(&mut frame);
    rounds.encode(&mut frame);
    encode_part::<A>(
        &part,
        local_tstats,
        trace.as_ref(),
        (role.recoveries, role.recovery_us),
        &mut frame,
    );
    t.post(w, root, frame);
    // The root's own values ride its own gather frame: holding them twice
    // would only raise its peak.
    let own = (w != root).then_some(part);
    t.sync(w, [0, 0]);
    // Nothing follows the gather round, so the TCP transport's queued
    // frames must be pushed out explicitly — without this, rank 0 could
    // wait on frames parked in its peers' send queues until the io
    // deadline.
    t.flush(w);
    let mut received: BufList = Vec::new();
    t.take_all_into(w, &mut received);
    let mut stats = RunStats {
        supersteps,
        rounds,
        transport_name: t.name(),
        ..Default::default()
    };
    if let Some(part) = own {
        // Non-root ranks keep their local view; `received` is empty.
        stats.transport = local_tstats;
        stats.recoveries = role.recoveries;
        stats.recovery_us = role.recovery_us;
        if let Some(tr) = trace {
            stats.timeline = tr.timeline.clone();
            stats.traces = vec![tr];
        }
        let values = assemble(topo.n(), vec![part], &mut stats);
        stats.elapsed = start.elapsed();
        return Output { values, stats };
    }
    // Each rank's values go straight from its frame into the one column,
    // and the frame is recycled before the next is decoded.
    let mut values = vec![A::Value::default(); topo.n()];
    let mut parts = 0;
    let mut traces: Vec<RankTrace> = Vec::new();
    for (sender, buf) in received.drain(..) {
        let mut r = Reader::new(&buf);
        let ss: u64 = r.get();
        let rr: u64 = r.get();
        assert_eq!(
            (ss, rr),
            (supersteps, rounds),
            "rank {sender} disagrees on the superstep/round count"
        );
        let (metrics, pool, tstats, tr, (recoveries, recovery_us)) =
            decode_part::<A>(&mut r, |gid, v| values[gid as usize] = v);
        assert!(r.is_empty(), "trailing bytes in rank {sender}'s results");
        absorb_part(&mut stats, metrics, &pool);
        stats.transport.merge(&tstats);
        stats.recoveries = stats.recoveries.max(recoveries);
        stats.recovery_us += recovery_us;
        if let Some(tr) = tr {
            traces.push(tr);
        }
        parts += 1;
        t.recycle(w, sender, buf);
    }
    assert_eq!(parts, workers, "missing rank results in the gather");
    if !traces.is_empty() {
        assert_eq!(traces.len(), workers, "missing rank traces in the gather");
        traces.sort_by_key(|tr| tr.rank);
        trace::align_epochs(&mut traces);
        stats.timeline = trace::merge_timelines(&traces);
        stats.traces = traces;
    }
    stats.elapsed = start.elapsed();
    Output { values, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Channel, DeserializeCx, SerializeCx};
    use pc_bsp::Codec;
    // (Channel is only needed by the probe channels defined below.)

    /// An algorithm with no channels: every vertex counts to 3 then halts.
    struct CountToThree;
    impl Algorithm for CountToThree {
        type Value = u64;
        type Channels = ();
        fn channels(&self, _env: &WorkerEnv) -> Self::Channels {}
        fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, _ch: &mut ()) {
            *value += 1;
            if v.step() >= 3 {
                v.vote_to_halt();
            }
        }
    }

    #[test]
    fn channel_free_algorithm_terminates() {
        let topo = Arc::new(Topology::hashed(100, 4));
        for cfg in [Config::sequential(4), Config::with_workers(4)] {
            let out = run(&CountToThree, &topo, &cfg);
            assert_eq!(out.stats.supersteps, 3);
            assert!(out.values.iter().all(|&v| v == 3));
            assert_eq!(out.stats.remote_bytes(), 0);
        }
    }

    /// A ring-forwarding channel used to test activation, rounds and byte
    /// accounting: each vertex sends its id to `(id + 1) % n` once.
    struct RingChannel {
        env: WorkerEnv,
        staged: Vec<(u32, u64)>,   // (dst global, payload)
        incoming: Vec<(u32, u64)>, // (dst local, payload)
        readable: Vec<(u32, u64)>,
        messages: u64,
    }
    impl RingChannel {
        fn new(env: &WorkerEnv) -> Self {
            RingChannel {
                env: env.clone(),
                staged: Vec::new(),
                incoming: Vec::new(),
                readable: Vec::new(),
                messages: 0,
            }
        }
        fn send(&mut self, dst: u32, v: u64) {
            self.staged.push((dst, v));
        }
    }
    impl Channel<u64> for RingChannel {
        fn name(&self) -> &'static str {
            "ring"
        }
        fn before_superstep(&mut self, _step: u64) {
            self.readable = std::mem::take(&mut self.incoming);
        }
        fn serialize(&mut self, cx: &mut SerializeCx<'_>) {
            let staged = std::mem::take(&mut self.staged);
            for peer in 0..cx.workers() {
                let msgs: Vec<&(u32, u64)> = staged
                    .iter()
                    .filter(|(dst, _)| self.env.worker_of(*dst) == peer)
                    .collect();
                if msgs.is_empty() {
                    continue;
                }
                cx.frame(peer, |buf| {
                    for (dst, v) in msgs {
                        dst.encode(buf);
                        v.encode(buf);
                    }
                });
            }
            self.messages += staged.len() as u64;
        }
        fn deserialize(&mut self, cx: &mut DeserializeCx<'_, u64>) {
            for (_from, mut r) in cx.frames() {
                while !r.is_empty() {
                    let dst: u32 = r.get();
                    let v: u64 = r.get();
                    let local = self.env.local_of(dst);
                    self.incoming.push((local, v));
                    cx.activate(local);
                }
            }
        }
        fn message_count(&self) -> u64 {
            self.messages
        }
        fn encode_state(&self, buf: &mut Vec<u8>) -> bool {
            self.incoming.encode(buf);
            self.messages.encode(buf);
            true
        }
        fn decode_state(&mut self, r: &mut pc_bsp::Reader<'_>) {
            self.incoming = r.get();
            self.messages = r.get();
        }
    }

    /// Send id to the ring successor at step 1, sum what arrives at step 2.
    struct RingSum {
        n: u32,
    }
    impl Algorithm for RingSum {
        type Value = u64;
        type Channels = (RingChannel,);
        crate::dist_value_via_codec!();
        fn channels(&self, env: &WorkerEnv) -> Self::Channels {
            (RingChannel::new(env),)
        }
        fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, ch: &mut Self::Channels) {
            if v.step() == 1 {
                ch.0.send((v.id + 1) % self.n, v.id as u64 + 1);
                v.vote_to_halt();
            } else {
                *value =
                    ch.0.readable
                        .iter()
                        .filter(|&&(local, _)| local == v.local)
                        .map(|&(_, m)| m)
                        .sum();
                v.vote_to_halt();
            }
        }
    }

    #[test]
    fn messages_flow_and_reactivate() {
        let n = 64u32;
        let topo = Arc::new(Topology::hashed(n as usize, 3));
        for cfg in [Config::sequential(3), Config::with_workers(3)] {
            let out = run(&RingSum { n }, &topo, &cfg);
            // Vertex v receives (v == 0 ? n : v) from its predecessor.
            for v in 0..n as usize {
                let expect = if v == 0 { n as u64 } else { v as u64 };
                assert_eq!(out.values[v], expect, "vertex {v}");
            }
            assert_eq!(out.stats.supersteps, 2);
            assert_eq!(out.stats.messages(), n as u64);
            assert!(out.stats.remote_bytes() > 0);
            assert_eq!(out.stats.channels.len(), 1);
            assert_eq!(out.stats.channels[0].name, "ring");
        }
    }

    #[test]
    fn sequential_and_threaded_agree_on_bytes() {
        let n = 200u32;
        let topo = Arc::new(Topology::hashed(n as usize, 4));
        let a = run(&RingSum { n }, &topo, &Config::sequential(4));
        let b = run(&RingSum { n }, &topo, &Config::with_workers(4));
        assert_eq!(a.values, b.values);
        assert_eq!(a.stats.remote_bytes(), b.stats.remote_bytes());
        assert_eq!(a.stats.supersteps, b.stats.supersteps);
        assert_eq!(a.stats.rounds, b.stats.rounds);
        // Pool traffic is part of the determinism contract too.
        assert_eq!(a.stats.pool, b.stats.pool);
    }

    /// The TCP backend is a drop-in for the in-process hub: same values,
    /// bytes, rounds — and even the same pool traffic, because posted
    /// buffers come home through the transport's return path.
    #[test]
    fn tcp_transport_is_observationally_identical() {
        let n = 120u32;
        let topo = Arc::new(Topology::hashed(n as usize, 3));
        let a = run(&RingSum { n }, &topo, &Config::with_workers(3));
        let b = run(&RingSum { n }, &topo, &Config::tcp(3));
        assert_eq!(a.values, b.values);
        assert_eq!(a.stats.remote_bytes(), b.stats.remote_bytes());
        assert_eq!(a.stats.total_bytes(), b.stats.total_bytes());
        assert_eq!(a.stats.messages(), b.stats.messages());
        assert_eq!(a.stats.supersteps, b.stats.supersteps);
        assert_eq!(a.stats.rounds, b.stats.rounds);
        assert_eq!(a.stats.pool, b.stats.pool);
        assert_eq!(b.stats.transport_name, "tcp");
        // Wire accounting differs by design: the hub counts every posted
        // payload (loop-back included), tcp counts real socket traffic
        // (headers and END frames; self-delivery never touches the wire).
        // Both must be live.
        assert!(b.stats.transport.wire_bytes > 0);
        assert!(b.stats.transport.frames > 0);
        assert!(a.stats.transport.frames > 0);
    }

    /// The multi-process driver, simulated: three "processes" (threads)
    /// each drive one rank of a shared loopback mesh through the public
    /// `run` entry point. Rank 0 gathers a complete output identical to
    /// the sequential reference; other ranks keep only their local view.
    #[test]
    fn rank_driver_gathers_results_to_rank_zero() {
        let n = 120u32;
        let workers = 3;
        let topo = Arc::new(Topology::hashed(n as usize, workers));
        let seq = run(&RingSum { n }, &topo, &Config::sequential(workers));
        let tcp = Arc::new(Tcp::loopback(workers).unwrap());
        let mut outs: Vec<Option<Output<u64>>> = (0..workers).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..workers {
                let cfg = Config::rank(workers, w, Arc::clone(&tcp));
                let topo = Arc::clone(&topo);
                handles.push(scope.spawn(move || (w, run(&RingSum { n }, &topo, &cfg))));
            }
            for h in handles {
                let (w, out) = h.join().unwrap();
                outs[w] = Some(out);
            }
        });
        let outs: Vec<Output<u64>> = outs.into_iter().map(Option::unwrap).collect();
        // Rank 0: complete values and fully merged statistics.
        assert_eq!(outs[0].values, seq.values);
        assert_eq!(outs[0].stats.remote_bytes(), seq.stats.remote_bytes());
        assert_eq!(outs[0].stats.total_bytes(), seq.stats.total_bytes());
        assert_eq!(outs[0].stats.messages(), seq.stats.messages());
        assert_eq!(outs[0].stats.supersteps, seq.stats.supersteps);
        assert_eq!(outs[0].stats.rounds, seq.stats.rounds);
        assert_eq!(outs[0].stats.pool, seq.stats.pool);
        assert_eq!(outs[0].stats.transport_name, "tcp");
        assert!(outs[0].stats.transport.wire_bytes > 0);
        // Non-zero ranks: local values only, everything else default.
        for (w, out) in outs.iter().enumerate().skip(1) {
            for &gid in topo.locals(w) {
                assert_eq!(out.values[gid as usize], seq.values[gid as usize]);
            }
            assert!(out.stats.messages() < seq.stats.messages());
        }
    }

    /// Run `RingSum` on a 3-rank loopback cluster whose gather root is
    /// `root`, with rank `w`'s role carrying `recovery(w)` as its
    /// `(recoveries, recovery_us)`; returns every rank's output.
    fn ring_sum_on_ranks(
        topo: &Arc<Topology>,
        root: usize,
        recovery: impl Fn(usize) -> (u64, u64),
    ) -> Vec<Output<u64>> {
        let workers = topo.workers();
        let n = topo.n() as u32;
        let tcp = Arc::new(Tcp::loopback(workers).unwrap());
        let mut outs: Vec<Option<Output<u64>>> = (0..workers).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..workers {
                let mut cfg = Config::rank(workers, w, Arc::clone(&tcp));
                let role = cfg.dist.as_mut().unwrap();
                role.gather_root = root;
                (role.recoveries, role.recovery_us) = recovery(w);
                let topo = Arc::clone(topo);
                handles.push(scope.spawn(move || (w, run(&RingSum { n }, &topo, &cfg))));
            }
            for h in handles {
                let (w, out) = h.join().unwrap();
                outs[w] = Some(out);
            }
        });
        outs.into_iter().map(Option::unwrap).collect()
    }

    /// One fault repaired by one rendezvous: every rank's role carries
    /// the control plane's epoch 1, and the gather root reads 1 recovery
    /// (summing the ranks' counts read 3), while the repair time stays a
    /// sum over ranks.
    #[test]
    fn one_recovery_epoch_reads_one_at_the_gather_root() {
        let topo = Arc::new(Topology::hashed(120, 3));
        let outs = ring_sum_on_ranks(&topo, 0, |w| (1, 10 + w as u64));
        assert_eq!(outs[0].stats.recoveries, 1);
        assert_eq!(outs[0].stats.recovery_us, 10 + 11 + 12);
    }

    /// After a coordinator failover, result gather follows the *acting*
    /// coordinator: with `gather_root = 1`, rank 1 assembles the
    /// complete output (identical to the sequential reference), takes the
    /// newest epoch any rank saw as its recovery count and sums every
    /// rank's repair time, while rank 0 keeps only its local view like
    /// any other non-root rank.
    #[test]
    fn rank_driver_gathers_results_to_the_acting_root() {
        let n = 120u32;
        let workers = 3;
        let root = 1usize;
        let topo = Arc::new(Topology::hashed(n as usize, workers));
        let seq = run(&RingSum { n }, &topo, &Config::sequential(workers));
        // Rank 2 was respawned after the first epoch and joined at the
        // second; the others re-joined both.
        let outs = ring_sum_on_ranks(&topo, root, |w| (1 + (w != 2) as u64, 100 + w as u64));
        assert_eq!(outs[root].values, seq.values);
        assert_eq!(outs[root].stats.messages(), seq.stats.messages());
        assert_eq!(outs[root].stats.supersteps, seq.stats.supersteps);
        assert_eq!(outs[root].stats.pool, seq.stats.pool);
        assert_eq!(outs[root].stats.recoveries, 2);
        assert_eq!(outs[root].stats.recovery_us, 100 + 101 + 102);
        for (w, out) in outs.iter().enumerate() {
            if w == root {
                continue;
            }
            for &gid in topo.locals(w) {
                assert_eq!(out.values[gid as usize], seq.values[gid as usize]);
            }
            assert!(out.stats.messages() < seq.stats.messages());
            assert_eq!(
                out.stats.recoveries,
                1 + (w != 2) as u64,
                "non-root keeps its local count"
            );
        }
    }

    /// The dist gather codec round-trips a complete rank frame — with
    /// and without the flagged trace section — bit-exactly: value pairs,
    /// channel metrics, pool counters, every transport counter, every
    /// span/timeline field of the trace, and the recovery counters. Each
    /// recovery field carries a distinct non-zero value so a summation
    /// or ordering typo in the codec breaks a distinct assertion, and
    /// the zero case must cost exactly one flag byte.
    #[test]
    fn gather_frame_round_trips_rank_traces() {
        use pc_bsp::trace::TraceEvent;
        let part: WorkerPart<u64> = (
            vec![(3, 7u64), (9, 1)],
            vec![ChannelMetrics {
                name: "ring".to_string(),
                bytes: ByteCounter {
                    remote: 10,
                    local: 2,
                },
                messages: 4,
                mirrored: 1,
                mirror_saved: 6,
            }],
            PoolStats { hits: 5, misses: 1 },
        );
        let tstats = TransportStats {
            wire_bytes: 11,
            frames: 2,
            round_trips: 1,
            coalesced_frames: 7,
            flushes: 3,
            send_stall_us: 4,
            recv_stall_us: 5,
            poll_waits: 6,
            wakeups_spurious: 2,
        };
        let tr = RankTrace {
            rank: 2,
            epoch_us: 123_456,
            dropped: 1,
            events: vec![
                TraceEvent {
                    kind: SpanKind::Compute,
                    superstep: 1,
                    start_us: 5,
                    dur_us: 9,
                    args: [0; 2],
                },
                TraceEvent {
                    kind: SpanKind::PollWait,
                    superstep: 2,
                    start_us: 20,
                    dur_us: 300,
                    args: [0; 2],
                },
            ],
            timeline: vec![SuperstepStats {
                superstep: 1,
                rounds: 1,
                active: 2,
                messages: 4,
                remote_bytes: 10,
                stall_us: 9,
                pool_misses: 1,
                compute_us: 9,
                exchange_us: 3,
                compute_max_us: 9,
                exchange_max_us: 3,
            }],
        };
        for trace in [None, Some(&tr)] {
            for recovery in [(0u64, 0u64), (3, 41_000)] {
                let mut buf = Vec::new();
                encode_part::<RingSum>(&part, tstats, trace, recovery, &mut buf);
                if recovery == (0, 0) {
                    let mut plain = Vec::new();
                    encode_part::<RingSum>(&part, tstats, trace, (0, 0), &mut plain);
                    assert_eq!(
                        buf.len(),
                        plain.len(),
                        "unfailed frames must stay one flag byte"
                    );
                }
                let mut r = Reader::new(&buf);
                let mut pairs = Vec::new();
                let (metrics, pool, ts, tr_back, rec_back) =
                    decode_part::<RingSum>(&mut r, |gid, v| pairs.push((gid, v)));
                assert!(r.is_empty(), "trailing gather bytes");
                assert_eq!(rec_back, recovery);
                assert_eq!(pairs, part.0);
                assert_eq!(metrics, part.1);
                assert_eq!(pool, part.2);
                assert_eq!(ts, tstats);
                assert_eq!(tr_back.as_ref(), trace);
            }
        }
    }

    /// Tracing is transparent and self-consistent: a traced threaded run
    /// reports counters identical to an untraced one, its timeline has
    /// one row per superstep, and the rows sum back to the run totals.
    #[test]
    fn traced_threaded_run_is_transparent_and_reconciles() {
        let n = 200u32;
        let topo = Arc::new(Topology::hashed(n as usize, 4));
        let plain = run(&RingSum { n }, &topo, &Config::with_workers(4));
        assert!(plain.stats.timeline.is_empty() && plain.stats.traces.is_empty());
        let traced = run(
            &RingSum { n },
            &topo,
            &Config {
                trace: true,
                ..Config::with_workers(4)
            },
        );
        assert_eq!(traced.values, plain.values);
        assert_eq!(traced.stats.remote_bytes(), plain.stats.remote_bytes());
        assert_eq!(traced.stats.total_bytes(), plain.stats.total_bytes());
        assert_eq!(traced.stats.messages(), plain.stats.messages());
        assert_eq!(traced.stats.supersteps, plain.stats.supersteps);
        assert_eq!(traced.stats.rounds, plain.stats.rounds);
        assert_eq!(traced.stats.pool, plain.stats.pool);
        let tl = &traced.stats.timeline;
        assert_eq!(tl.len() as u64, traced.stats.supersteps);
        assert_eq!(
            tl.iter().map(|r| r.rounds).sum::<u64>(),
            traced.stats.rounds
        );
        assert_eq!(
            tl.iter().map(|r| r.messages).sum::<u64>(),
            traced.stats.messages()
        );
        assert_eq!(
            tl.iter().map(|r| r.remote_bytes).sum::<u64>(),
            traced.stats.remote_bytes()
        );
        assert_eq!(tl[0].active, n as u64, "superstep 1 computes every vertex");
        // One trace per worker, each with a compute span per superstep.
        assert_eq!(traced.stats.traces.len(), 4);
        for (w, tr) in traced.stats.traces.iter().enumerate() {
            assert_eq!(tr.rank as usize, w);
            assert_eq!(tr.dropped, 0);
            for step in 1..=traced.stats.supersteps {
                assert!(
                    tr.events
                        .iter()
                        .any(|e| e.superstep == step && e.kind == SpanKind::Compute),
                    "rank {w} has no compute span for superstep {step}"
                );
            }
        }
    }

    /// The rank driver ships traces through the gather frame: rank 0
    /// merges one trace per rank onto a common epoch and its timeline
    /// reconciles with the merged run totals.
    #[test]
    fn rank_driver_gathers_traces_to_rank_zero() {
        let n = 120u32;
        let workers = 3;
        let topo = Arc::new(Topology::hashed(n as usize, workers));
        let tcp = Arc::new(Tcp::loopback(workers).unwrap());
        let mut outs: Vec<Option<Output<u64>>> = (0..workers).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..workers {
                let cfg = Config {
                    trace: true,
                    ..Config::rank(workers, w, Arc::clone(&tcp))
                };
                let topo = Arc::clone(&topo);
                handles.push(scope.spawn(move || (w, run(&RingSum { n }, &topo, &cfg))));
            }
            for h in handles {
                let (w, out) = h.join().unwrap();
                outs[w] = Some(out);
            }
        });
        let outs: Vec<Output<u64>> = outs.into_iter().map(Option::unwrap).collect();
        let stats = &outs[0].stats;
        assert_eq!(stats.traces.len(), workers);
        for (w, tr) in stats.traces.iter().enumerate() {
            assert_eq!(tr.rank as usize, w);
            assert_eq!(tr.timeline.len() as u64, stats.supersteps);
            assert!(!tr.events.is_empty());
        }
        assert_eq!(stats.timeline.len() as u64, stats.supersteps);
        assert_eq!(
            stats.timeline.iter().map(|r| r.messages).sum::<u64>(),
            stats.messages()
        );
        assert_eq!(
            stats.timeline.iter().map(|r| r.remote_bytes).sum::<u64>(),
            stats.remote_bytes()
        );
        // Non-zero ranks keep their own (local) trace.
        for (w, out) in outs.iter().enumerate().skip(1) {
            assert_eq!(out.stats.traces.len(), 1);
            assert_eq!(out.stats.traces[0].rank as usize, w);
            assert_eq!(out.stats.timeline.len() as u64, out.stats.supersteps);
        }
    }

    /// Checkpointing is observationally free (same values, bytes,
    /// messages, supersteps, rounds, pool), leaves a committed epoch
    /// behind, and a second run against the same directory restores it
    /// and replays only the tail — converging to the identical output.
    #[test]
    fn threaded_checkpoint_is_transparent_and_resumable() {
        let n = 96u32;
        let dir = std::env::temp_dir().join(format!(
            "pc_engine_ckpt_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let topo = Arc::new(Topology::hashed(n as usize, 3));
        let plain = run(&RingSum { n }, &topo, &Config::with_workers(3));
        let ck_cfg = Config {
            ckpt: Some(CkptPolicy {
                every: 1,
                dir: dir.clone(),
            }),
            ..Config::with_workers(3)
        };
        let ck = run(&RingSum { n }, &topo, &ck_cfg);
        assert_eq!(ck.values, plain.values);
        assert_eq!(ck.stats.remote_bytes(), plain.stats.remote_bytes());
        assert_eq!(ck.stats.total_bytes(), plain.stats.total_bytes());
        assert_eq!(ck.stats.messages(), plain.stats.messages());
        assert_eq!(ck.stats.supersteps, plain.stats.supersteps);
        assert_eq!(ck.stats.rounds, plain.stats.rounds);
        assert_eq!(ck.stats.pool, plain.stats.pool);
        // The run terminated after superstep 2, so the committed epoch is
        // the boundary after superstep 1.
        let store = pc_ckpt::Store::open(&dir).unwrap();
        assert_eq!(store.committed_steps().unwrap(), vec![1]);
        // Resume: restores superstep 1 and replays only superstep 2.
        let resumed = run(&RingSum { n }, &topo, &ck_cfg);
        assert_eq!(resumed.values, plain.values);
        assert_eq!(resumed.stats.supersteps, plain.stats.supersteps);
        assert_eq!(resumed.stats.rounds, plain.stats.rounds);
        assert_eq!(resumed.stats.messages(), plain.stats.messages());
        assert_eq!(resumed.stats.total_bytes(), plain.stats.total_bytes());
        assert_eq!(resumed.stats.pool, plain.stats.pool);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A channel without a state codec is refused before the first
    /// superstep, with a message naming the channel.
    #[test]
    #[should_panic(expected = "does not support checkpointing")]
    fn non_checkpointable_channel_is_refused_up_front() {
        let dir =
            std::env::temp_dir().join(format!("pc_engine_ckpt_refuse_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let topo = Arc::new(Topology::hashed(64, 2));
        let cfg = Config {
            ckpt: Some(CkptPolicy { every: 2, dir }),
            ..Config::with_workers(2)
        };
        run(&PulseAlgo { steps: 10 }, &topo, &cfg);
    }

    /// `Config::spin_budget = Some(0)` reaches the barrier: no arrival
    /// spins are ever recorded.
    #[test]
    fn spin_budget_zero_is_plumbed_to_the_barrier() {
        let topo = Arc::new(Topology::hashed(64, 4));
        let cfg = Config {
            spin_budget: Some(0),
            ..Config::with_workers(4)
        };
        let out = run(&PulseAlgo { steps: 10 }, &topo, &cfg);
        assert_eq!(out.stats.barrier_spins, 0);
        assert!(out.stats.barrier_crossings > 0);
    }

    #[test]
    #[should_panic(expected = "exceeded max_supersteps")]
    fn runaway_program_is_caught() {
        struct Forever;
        impl Algorithm for Forever {
            type Value = u64;
            type Channels = ();
            fn channels(&self, _env: &WorkerEnv) -> Self::Channels {}
            fn compute(&self, _v: &mut VertexCtx<'_>, _value: &mut u64, _ch: &mut ()) {}
        }
        let topo = Arc::new(Topology::hashed(10, 2));
        let cfg = Config {
            max_supersteps: 50,
            ..Config::sequential(2)
        };
        run(&Forever, &topo, &cfg);
    }

    #[test]
    fn single_worker_runs() {
        let topo = Arc::new(Topology::hashed(32, 1));
        let out = run(&RingSum { n: 32 }, &topo, &Config::sequential(1));
        assert_eq!(out.stats.remote_bytes(), 0, "all traffic is loop-back");
        assert!(out.stats.total_bytes() > 0);
    }

    /// A channel that re-sends every superstep — drives the exchange path
    /// into steady state so pool reuse is observable.
    struct Pulse {
        env: WorkerEnv,
        rounds: u64,
    }
    impl Channel<u64> for Pulse {
        fn name(&self) -> &'static str {
            "pulse"
        }
        fn serialize(&mut self, cx: &mut SerializeCx<'_>) {
            for peer in 0..cx.workers() {
                cx.frame(peer, |buf| self.rounds.encode(buf));
            }
            self.rounds += 1;
        }
        fn deserialize(&mut self, cx: &mut DeserializeCx<'_, u64>) {
            let _ = &self.env;
            for (_from, mut r) in cx.frames() {
                let _: u64 = r.get();
            }
        }
    }

    /// Every vertex stays active for `steps` supersteps; the channel
    /// broadcasts every round.
    struct PulseAlgo {
        steps: u64,
    }
    impl Algorithm for PulseAlgo {
        type Value = u64;
        type Channels = (Pulse,);
        crate::dist_value_via_codec!();
        fn channels(&self, env: &WorkerEnv) -> Self::Channels {
            (Pulse {
                env: env.clone(),
                rounds: 0,
            },)
        }
        fn compute(&self, v: &mut VertexCtx<'_>, _value: &mut u64, _ch: &mut Self::Channels) {
            if v.step() >= self.steps {
                v.vote_to_halt();
            }
        }
    }

    #[test]
    fn steady_state_exchange_reuses_buffers() {
        let topo = Arc::new(Topology::hashed(64, 4));
        for cfg in [Config::sequential(4), Config::with_workers(4)] {
            let out = run(&PulseAlgo { steps: 50 }, &topo, &cfg);
            let pool = out.stats.pool;
            // The pool is pre-warmed with one buffer per peer, so even
            // the first round allocates nothing: every round of the run
            // is served from the pool.
            assert_eq!(pool.misses, 0, "the exchange path allocated ({cfg:?})");
            assert_eq!(
                out.stats.pool_hit_rate(),
                1.0,
                "hit rate below 1.0 ({cfg:?})"
            );
        }
    }

    #[test]
    fn threaded_rounds_cross_barrier_twice() {
        let topo = Arc::new(Topology::hashed(64, 4));
        let out = run(&PulseAlgo { steps: 50 }, &topo, &Config::with_workers(4));
        // One crossing per round plus one confirming exchange per
        // superstep: with one round per superstep, exactly two per round.
        assert_eq!(out.stats.rounds, 50);
        assert_eq!(
            out.stats.barrier_crossings,
            out.stats.rounds + out.stats.supersteps
        );
        assert_eq!(out.stats.crossings_per_round(), 2.0);
    }

    /// A channel that asks for a second round on worker 0 only, but
    /// writes a frame every time it is serialized — also in the late
    /// serialize worker 1 runs for it in round 2, after its own `again()`
    /// said no. The engine refuses it by name. (The sequential driver runs
    /// the threaded drivers' speculative sequence, so it checks the same
    /// contract, and a panic cannot strand a peer at a barrier.)
    struct Greedy {
        env: WorkerEnv,
        rounds: u64,
    }
    impl Channel<u64> for Greedy {
        fn name(&self) -> &'static str {
            "greedy"
        }
        fn serialize(&mut self, cx: &mut SerializeCx<'_>) {
            cx.frame(0, |buf| self.rounds.encode(buf));
        }
        fn deserialize(&mut self, _cx: &mut DeserializeCx<'_, u64>) {
            self.rounds += 1;
        }
        fn again(&self) -> bool {
            self.env.worker == 0 && self.rounds == 1
        }
    }

    struct GreedyAlgo;
    impl Algorithm for GreedyAlgo {
        type Value = u64;
        type Channels = (Greedy,);
        fn channels(&self, env: &WorkerEnv) -> Self::Channels {
            (Greedy {
                env: env.clone(),
                rounds: 0,
            },)
        }
        fn compute(&self, v: &mut VertexCtx<'_>, _value: &mut u64, _ch: &mut Self::Channels) {
            v.vote_to_halt();
        }
    }

    #[test]
    #[should_panic(expected = "channel 'greedy' emitted a frame in a round it did not ask for")]
    fn late_serialized_channel_that_emits_is_refused_by_name() {
        let topo = Arc::new(Topology::hashed(16, 2));
        run(&GreedyAlgo, &topo, &Config::sequential(2));
    }

    /// Sparse-frontier regression guard: after step 1 only vertex 0 stays
    /// active, and the run must still terminate with correct values.
    struct Lonely;
    impl Algorithm for Lonely {
        type Value = u64;
        type Channels = ();
        fn channels(&self, _env: &WorkerEnv) -> Self::Channels {}
        fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, _ch: &mut ()) {
            *value += 1;
            if v.id != 0 || v.step() >= 20 {
                v.vote_to_halt();
            }
        }
    }

    #[test]
    fn sparse_frontier_only_computes_active_vertices() {
        let topo = Arc::new(Topology::hashed(1000, 4));
        for cfg in [Config::sequential(4), Config::with_workers(4)] {
            let out = run(&Lonely, &topo, &cfg);
            assert_eq!(out.stats.supersteps, 20);
            assert_eq!(out.values[0], 20);
            assert!(
                out.values[1..].iter().all(|&v| v == 1),
                "halted vertices ran once"
            );
        }
    }
}
