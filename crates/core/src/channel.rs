//! The [`Channel`] abstraction (Fig. 3 of the paper) and the contexts the
//! engine hands to channels and vertices.
//!
//! A channel lives between the vertices and the worker's raw buffers: in
//! every exchange round the engine asks each active channel to
//! [`Channel::serialize`] its outgoing data into per-destination frames,
//! swaps buffers with the other workers, and then asks the channel to
//! [`Channel::deserialize`] the frames addressed to it. A channel that
//! answers `true` from [`Channel::again`] keeps the round loop going —
//! that is how request/respond gets its second phase and how propagation
//! converges inside a single superstep (and `false` is a promise; see the
//! late-serialize contract on [`Channel::again`]).

use crate::frontier::Frontier;
use pc_bsp::buffer::{FrameSpan, FrameWriter, OutBuffers};
use pc_bsp::codec::Reader;
use pc_bsp::metrics::ByteCounter;
use pc_bsp::topology::Topology;
use pc_graph::VertexId;
use std::sync::Arc;

/// Static description of the worker a channel instance belongs to.
#[derive(Debug, Clone)]
pub struct WorkerEnv {
    /// This worker's id in `0..workers`.
    pub worker: usize,
    /// Shared ownership map.
    pub topo: Arc<Topology>,
}

impl WorkerEnv {
    /// Number of workers in the simulated cluster.
    pub fn workers(&self) -> usize {
        self.topo.workers()
    }

    /// Number of vertices on this worker.
    pub fn local_count(&self) -> usize {
        self.topo.local_count(self.worker)
    }

    /// Total vertices in the graph.
    pub fn n(&self) -> usize {
        self.topo.n()
    }

    /// Global id of the local vertex with index `local`.
    pub fn global_of(&self, local: u32) -> VertexId {
        self.topo.locals(self.worker)[local as usize]
    }

    /// Owning worker of a global vertex id.
    #[inline]
    pub fn worker_of(&self, v: VertexId) -> usize {
        self.topo.worker_of(v)
    }

    /// Local index of a global vertex id on its owning worker.
    #[inline]
    pub fn local_of(&self, v: VertexId) -> u32 {
        self.topo.local_of(v)
    }
}

/// Per-vertex view passed to [`crate::Algorithm::compute`].
#[derive(Debug)]
pub struct VertexCtx<'a> {
    /// Global vertex id.
    pub id: VertexId,
    /// Local index on this worker (used as the channel-slot index).
    pub local: u32,
    pub(crate) step: u64,
    pub(crate) halted: bool,
    pub(crate) env: &'a WorkerEnv,
}

impl VertexCtx<'_> {
    /// 1-based superstep number, as in Pregel's `step_num()`.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Total vertices in the graph (`get_vnum()` in the paper's Fig. 1).
    pub fn num_vertices(&self) -> usize {
        self.env.n()
    }

    /// Halt this vertex; it stays halted until a channel re-activates it.
    pub fn vote_to_halt(&mut self) {
        self.halted = true;
    }

    /// The worker environment.
    pub fn env(&self) -> &WorkerEnv {
        self.env
    }
}

/// Context for [`Channel::serialize`]: opens per-destination frames and
/// accounts their bytes to the channel.
pub struct SerializeCx<'a> {
    pub(crate) channel_id: u16,
    pub(crate) env: &'a WorkerEnv,
    pub(crate) out: &'a mut OutBuffers,
    pub(crate) bytes: &'a mut ByteCounter,
}

impl SerializeCx<'_> {
    /// The worker environment.
    pub fn env(&self) -> &WorkerEnv {
        self.env
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.out.workers()
    }

    /// Write one frame to `peer`; `fill` appends the payload. Empty frames
    /// are elided and cost nothing on the wire.
    pub fn frame(&mut self, peer: usize, fill: impl FnOnce(&mut Vec<u8>)) {
        let before = self.out.buf(peer).len();
        let mut fw = FrameWriter::begin(self.out.buf(peer), self.channel_id);
        fill(fw.payload());
        fw.finish();
        let used = (self.out.buf(peer).len() - before) as u64;
        if used > 0 {
            if peer == self.out.self_id() {
                self.bytes.local += used;
            } else {
                self.bytes.remote += used;
            }
        }
    }
}

/// Context for [`Channel::deserialize`]: the frames addressed to this
/// channel in this round, read access to local vertex values, and the
/// activation interface (how channels wake halted vertices, simulating
/// Pregel's message-driven reactivation).
pub struct DeserializeCx<'a, AV> {
    pub(crate) env: &'a WorkerEnv,
    /// This channel's frames, as offsets into `bufs` (the engine reuses
    /// the span tables across rounds — see [`FrameSpan`]).
    pub(crate) spans: &'a [FrameSpan],
    /// The round's received `(sender, buffer)` pairs.
    pub(crate) bufs: &'a [(usize, Vec<u8>)],
    pub(crate) values: &'a [AV],
    pub(crate) frontier: &'a mut Frontier,
}

impl<'a, AV> DeserializeCx<'a, AV> {
    /// The worker environment.
    pub fn env(&self) -> &WorkerEnv {
        self.env
    }

    /// Iterate `(sender, payload-reader)` over this round's frames. The
    /// iterator borrows the frame data, not the context, so `activate` can
    /// be called while iterating.
    pub fn frames(&self) -> impl Iterator<Item = (usize, Reader<'a>)> + 'a {
        let bufs = self.bufs;
        self.spans.iter().map(move |span| {
            let (from, data) = &bufs[span.buf as usize];
            (
                *from,
                Reader::new(&data[span.start as usize..span.end as usize]),
            )
        })
    }

    /// Read a local vertex's value (the state *after* this superstep's
    /// `compute`) — request/respond uses this to produce responses.
    pub fn value(&self, local: u32) -> &AV {
        &self.values[local as usize]
    }

    /// Re-activate a local vertex for the next superstep.
    pub fn activate(&mut self, local: u32) {
        self.frontier.activate(local);
    }
}

/// A message container implementing one communication pattern
/// (the base class of Fig. 3).
///
/// `AV` is the algorithm's per-vertex value type; most channels ignore it,
/// but request/respond reads it to compute responses.
pub trait Channel<AV>: Send {
    /// Channel name for metrics ("msg", "scatter", "reqresp", …).
    fn name(&self) -> &'static str;

    /// Called once per superstep before any `compute`; channels swap their
    /// receive buffers here so data sent in superstep `s` is readable in
    /// `s + 1`.
    fn before_superstep(&mut self, _step: u64) {}

    /// Write this round's outgoing frames.
    fn serialize(&mut self, cx: &mut SerializeCx<'_>);

    /// Consume this round's incoming frames.
    fn deserialize(&mut self, cx: &mut DeserializeCx<'_, AV>);

    /// Request another exchange round within this superstep. The engine
    /// ORs this across workers, so answering `true` on any worker keeps the
    /// channel active everywhere.
    ///
    /// **The late-serialize contract.** The threaded engine learns the OR
    /// only from the next round's own exchange, so it serializes a channel
    /// *before* that exchange only where `again()` said `true`. Where it
    /// said `false` but another worker said `true`, the channel's
    /// `serialize` still runs for that round — after the exchange, so its
    /// state (a phase counter, say) stays in step with the other workers —
    /// and it must write no frame: answering `false` promises nothing to
    /// send next round. The engine asserts this and panics with the
    /// channel's name.
    fn again(&self) -> bool {
        false
    }

    /// Application-level messages produced so far (unit is
    /// channel-specific: combined values, requests, label updates, …).
    fn message_count(&self) -> u64 {
        0
    }

    /// `(mirrored, saved)`: messages sent as per-worker mirror broadcasts,
    /// and the per-edge messages those broadcasts avoided. Non-zero only
    /// for channels that replicate vertices (the Mirror channel).
    fn mirror_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Serialize this channel's cross-superstep state for a checkpoint
    /// taken at a superstep boundary (all exchange rounds finished, the
    /// frontier advanced, nothing in flight). Everything a restored
    /// instance cannot rebuild from [`crate::Algorithm::channels`] and
    /// its tables ([`Channel::encode_tables`]) must be written: staged
    /// registrations, staged receive state for the next superstep's
    /// `before_superstep`, the message counter.
    ///
    /// Return `true` when the state was written; the default returns
    /// `false`, marking the channel as not checkpointable (the engine
    /// refuses to start a checkpointing run over such a channel, before
    /// the first superstep).
    fn encode_state(&self, buf: &mut Vec<u8>) -> bool {
        let _ = buf;
        false
    }

    /// **The tables contract.** A channel's checkpointable state divides
    /// into *tables* — what registration builds (routes, adjacency, hub
    /// and ghost tables) and what stays fixed for many epochs — and the
    /// per-epoch rest [`Channel::encode_state`] writes. The engine writes
    /// a worker's tables to a file of their own only at the boundaries
    /// where this counter (summed over the worker's channels) moved since
    /// the last such file, and every epoch links the newest one.
    ///
    /// So a channel must bump its generation whenever its tables change,
    /// and only then; it starts at 0, meaning "as constructed" — a
    /// channel whose generation never moved is restored by construction
    /// alone. Channels without tables keep the defaults and write nothing.
    fn tables_generation(&self) -> u64 {
        0
    }

    /// Serialize the tables (the generation included) for a tables file.
    fn encode_tables(&self, buf: &mut Vec<u8>) {
        let _ = buf;
    }

    /// Restore tables written by [`Channel::encode_tables`], generation
    /// included, into a freshly constructed instance — before
    /// [`Channel::decode_state`] restores the rest.
    fn decode_tables(&mut self, r: &mut Reader<'_>) {
        let _ = r;
    }

    /// Restore state written by [`Channel::encode_state`] into a freshly
    /// constructed instance (whose tables, if it had any, are already
    /// restored). Only called when `encode_state` returned `true`; the
    /// default is therefore unreachable.
    fn decode_state(&mut self, r: &mut Reader<'_>) {
        let _ = r;
        unreachable!(
            "decode_state called on channel '{}', which never encodes state",
            self.name()
        )
    }
}

/// A fixed collection of channels — the engine iterates them untyped, the
/// algorithm's `compute` uses them fully typed. Implemented for tuples of
/// up to six channels.
pub trait ChannelSet<AV>: Send {
    /// Number of channels in the set.
    fn len(&self) -> usize;

    /// True when the set is empty (a pure-local algorithm).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit each channel with its index.
    fn for_each(&mut self, f: &mut dyn FnMut(u16, &mut dyn Channel<AV>));
}

macro_rules! channel_set_tuple {
    ($( $name:ident : $idx:tt ),* ; $len:expr) => {
        impl<AV, $($name: Channel<AV>),*> ChannelSet<AV> for ($($name,)*) {
            fn len(&self) -> usize { $len }
            fn for_each(&mut self, f: &mut dyn FnMut(u16, &mut dyn Channel<AV>)) {
                $( f($idx as u16, &mut self.$idx); )*
            }
        }
    };
}

impl<AV> ChannelSet<AV> for () {
    fn len(&self) -> usize {
        0
    }
    fn for_each(&mut self, _f: &mut dyn FnMut(u16, &mut dyn Channel<AV>)) {}
}

channel_set_tuple!(A:0; 1);
channel_set_tuple!(A:0, B:1; 2);
channel_set_tuple!(A:0, B:1, C:2; 3);
channel_set_tuple!(A:0, B:1, C:2, D:3; 4);
channel_set_tuple!(A:0, B:1, C:2, D:3, E:4; 5);
channel_set_tuple!(A:0, B:1, C:2, D:3, E:4, F:5; 6);

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe(&'static str);
    impl Channel<u32> for Probe {
        fn name(&self) -> &'static str {
            self.0
        }
        fn serialize(&mut self, _cx: &mut SerializeCx<'_>) {}
        fn deserialize(&mut self, _cx: &mut DeserializeCx<'_, u32>) {}
    }

    #[test]
    fn tuples_enumerate_in_order() {
        let mut set = (Probe("a"), Probe("b"), Probe("c"));
        let mut seen = Vec::new();
        ChannelSet::<u32>::for_each(&mut set, &mut |i, c| seen.push((i, c.name())));
        assert_eq!(seen, vec![(0, "a"), (1, "b"), (2, "c")]);
        assert_eq!(ChannelSet::<u32>::len(&set), 3);
    }

    #[test]
    fn empty_set() {
        let mut set = ();
        let mut called = false;
        ChannelSet::<u32>::for_each(&mut set, &mut |_, _| called = true);
        assert!(!called);
        assert!(ChannelSet::<u32>::is_empty(&set));
    }

    #[test]
    fn worker_env_lookups() {
        let topo = Arc::new(Topology::from_owners(2, vec![0, 1, 0, 1]));
        let env = WorkerEnv { worker: 0, topo };
        assert_eq!(env.workers(), 2);
        assert_eq!(env.n(), 4);
        assert_eq!(env.local_count(), 2);
        assert_eq!(env.global_of(1), 2);
        assert_eq!(env.worker_of(3), 1);
        assert_eq!(env.local_of(3), 1);
    }
}
