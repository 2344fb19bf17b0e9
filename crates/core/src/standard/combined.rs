//! The `CombinedMessage` channel (Table I, middle column).
//!
//! Messages addressed to the same vertex are merged with a per-channel
//! [`Combine`] function on **both** sides of the wire, exactly like a
//! Pregel combiner:
//!
//! * the sender folds every `send_message` into a dense stage per
//!   destination worker (`PeerStage`, indexed by the receiver's local
//!   index and allocated on the first message toward that worker), so each
//!   `(worker, destination)` pair ships at most one `(local index, value)`
//!   pair per superstep, in first-touch order;
//! * the receiver folds arriving pairs into a `PeerStage` of its own
//!   vertices (double-buffered; the one read last superstep is drained
//!   empty before it takes the next superstep's arrivals).
//!
//! Because the combiner is *per channel*, it applies in programs where
//! Pregel's single global combiner cannot (S-V, SCC mix combinable and
//! non-combinable messages in one type) — the §V-A analysis measures up to
//! 5.5× message inflation in Pregel+ from exactly this.
//!
//! What [`crate::ScatterCombine`] adds over this channel is not the
//! combining but the static destination set: routes sorted once, ids
//! shipped once.

use crate::channel::{Channel, DeserializeCx, SerializeCx, WorkerEnv};
use crate::combine::{Combine, Vals};
use crate::optimized::flat::{check, PeerStage};
use pc_bsp::codec::{Codec, Reader};
use pc_graph::VertexId;

/// Sender- and receiver-combined message channel carrying values of `M`.
pub struct CombinedMessage<M> {
    env: WorkerEnv,
    combine: Combine<M>,
    /// Sender-side combine stages, one per destination worker.
    staged: Vec<PeerStage<M>>,
    /// Receive-side combined values for the in-flight superstep by local
    /// index, filled in first-arrival order.
    incoming: PeerStage<M>,
    /// Last superstep's, read by `compute` (double-buffered).
    readable: PeerStage<M>,
    /// One frame's `(local index, value)` pairs while it is decoded.
    frame_dsts: Vec<u32>,
    frame_vals: Vec<M>,
    messages: u64,
}

impl<M: Codec + Clone + Send> CombinedMessage<M> {
    /// Create this worker's instance with the channel's combiner.
    pub fn new(env: &WorkerEnv, combine: Combine<M>) -> Self {
        let numv = env.local_count();
        CombinedMessage {
            env: env.clone(),
            staged: (0..env.workers())
                .map(|peer| PeerStage::new(env.topo.local_count(peer)))
                .collect(),
            incoming: PeerStage::new(numv),
            readable: PeerStage::new(numv),
            frame_dsts: Vec::new(),
            frame_vals: Vec::new(),
            messages: 0,
            combine,
        }
    }

    /// Send `m` toward `dst`; it is folded into `dst`'s combined value for
    /// the next superstep.
    pub fn send_message(&mut self, dst: VertexId, m: M) {
        let peer = self.env.worker_of(dst);
        let local = self.env.local_of(dst);
        self.staged[peer].stage(&self.combine, &[local], Vals::One(&m));
    }

    /// The combined value delivered to `local` this superstep, if any
    /// message arrived.
    pub fn get_message(&self, local: u32) -> Option<&M> {
        self.readable.get(local)
    }

    /// Combined value or the combiner's identity.
    pub fn get_or_identity(&self, local: u32) -> M {
        self.get_message(local)
            .cloned()
            .unwrap_or_else(|| self.combine.identity())
    }
}

impl<AV, M: Codec + Clone + Send> Channel<AV> for CombinedMessage<M> {
    fn name(&self) -> &'static str {
        "combined"
    }

    fn before_superstep(&mut self, _step: u64) {
        self.readable.drain(|_, _| {});
        std::mem::swap(&mut self.readable, &mut self.incoming);
    }

    fn serialize(&mut self, cx: &mut SerializeCx<'_>) {
        for (peer, stage) in self.staged.iter_mut().enumerate() {
            if stage.is_empty() {
                continue;
            }
            self.messages += stage.len() as u64;
            cx.frame(peer, |buf| {
                stage.drain(|local, m| {
                    local.encode(buf);
                    m.encode(buf);
                });
            });
        }
    }

    fn deserialize(&mut self, cx: &mut DeserializeCx<'_, AV>) {
        let numv = self.env.local_count();
        let CombinedMessage {
            combine,
            incoming,
            frame_dsts,
            frame_vals,
            ..
        } = self;
        let woken = incoming.len();
        for (from, mut r) in cx.frames() {
            frame_dsts.clear();
            frame_vals.clear();
            while !r.is_empty() {
                let local: u32 = r.get();
                assert!(
                    (local as usize) < numv,
                    "combined channel: frame from worker {from} names local vertex {local}, \
                     this worker has {numv}"
                );
                frame_dsts.push(local);
                frame_vals.push(r.get());
            }
            incoming.stage(combine, frame_dsts, Vals::Each(frame_vals));
        }
        // First arrivals are exactly the vertices to wake.
        for &local in &incoming.dirty()[woken..] {
            cx.activate(local);
        }
    }

    fn message_count(&self) -> u64 {
        self.messages
    }

    fn encode_state(&self, buf: &mut Vec<u8>) -> bool {
        // The stages are drained at every serialize, so the receive-side
        // slots for the next superstep are the live state: written as
        // `(local index, value)` pairs, ascending.
        let mut filled = self.incoming.dirty().to_vec();
        filled.sort_unstable();
        (filled.len() as u32).encode(buf);
        for local in filled {
            local.encode(buf);
            self.incoming.get(local).expect("filled slot").encode(buf);
        }
        self.messages.encode(buf);
        true
    }

    fn decode_state(&mut self, r: &mut Reader<'_>) {
        let numv = self.env.local_count();
        self.incoming.drain(|_, _| {});
        let n: u32 = r.get();
        for _ in 0..n {
            let local: u32 = r.get();
            let m: M = r.get();
            check((local as usize) < numv, "combined", "local index");
            self.incoming.stage(&self.combine, &[local], Vals::One(&m));
        }
        self.messages = r.get();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::VertexCtx;
    use crate::engine::{run, Algorithm};
    use pc_bsp::{Config, Topology};
    use std::sync::Arc;

    /// All vertices send 1 to vertex 0 and their id to vertex 1 (min).
    struct SumAndMin;
    impl Algorithm for SumAndMin {
        type Value = u64;
        type Channels = (CombinedMessage<u64>, CombinedMessage<u64>);
        fn channels(&self, env: &WorkerEnv) -> Self::Channels {
            (
                CombinedMessage::new(env, Combine::sum_u64()),
                CombinedMessage::new(env, Combine::min_u64()),
            )
        }
        fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, ch: &mut Self::Channels) {
            if v.step() == 1 {
                ch.0.send_message(0, 1);
                ch.1.send_message(1, v.id as u64 + 10);
                v.vote_to_halt();
            } else {
                if v.id == 0 {
                    *value = ch.0.get_or_identity(v.local);
                }
                if v.id == 1 {
                    *value = ch.1.get_or_identity(v.local);
                }
                v.vote_to_halt();
            }
        }
    }

    #[test]
    fn two_channels_combine_independently() {
        let n = 50;
        let topo = Arc::new(Topology::hashed(n, 4));
        for cfg in [Config::sequential(4), Config::with_workers(4)] {
            let out = run(&SumAndMin, &topo, &cfg);
            assert_eq!(out.values[0], n as u64, "sum channel");
            assert_eq!(out.values[1], 10, "min channel");
            assert_eq!(out.stats.channels.len(), 2);
        }
    }

    #[test]
    fn sender_combining_ships_one_pair_per_worker() {
        // n messages to one destination collapse to one wire pair per
        // sending worker.
        let n = 50;
        let topo = Arc::new(Topology::hashed(n, 4));
        let out = run(&SumAndMin, &topo, &Config::sequential(4));
        let sum_channel = &out.stats.channels[0];
        assert!(
            sum_channel.messages <= 4,
            "expected ≤ 4 combined pairs, got {}",
            sum_channel.messages
        );
    }

    #[test]
    fn no_message_yields_identity() {
        struct Quiet;
        impl Algorithm for Quiet {
            type Value = u64;
            type Channels = (CombinedMessage<u64>,);
            fn channels(&self, env: &WorkerEnv) -> Self::Channels {
                (CombinedMessage::new(env, Combine::sum_u64()),)
            }
            fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, ch: &mut Self::Channels) {
                assert!(ch.0.get_message(v.local).is_none());
                *value = ch.0.get_or_identity(v.local);
                v.vote_to_halt();
            }
        }
        let topo = Arc::new(Topology::hashed(10, 2));
        let out = run(&Quiet, &topo, &Config::sequential(2));
        assert!(out.values.iter().all(|&v| v == 0));
    }

    #[test]
    fn messages_only_live_one_superstep() {
        struct TwoRounds;
        impl Algorithm for TwoRounds {
            type Value = Vec<u64>;
            type Channels = (CombinedMessage<u64>,);
            fn channels(&self, env: &WorkerEnv) -> Self::Channels {
                (CombinedMessage::new(env, Combine::sum_u64()),)
            }
            fn compute(
                &self,
                v: &mut VertexCtx<'_>,
                value: &mut Vec<u64>,
                ch: &mut Self::Channels,
            ) {
                value.push(ch.0.get_or_identity(v.local));
                if v.step() == 1 {
                    ch.0.send_message(v.id, 7); // to self
                }
                if v.step() == 3 {
                    v.vote_to_halt();
                }
            }
        }
        let topo = Arc::new(Topology::hashed(5, 2));
        let out = run(&TwoRounds, &topo, &Config::sequential(2));
        for v in &out.values {
            assert_eq!(v, &vec![0, 7, 0], "message visible exactly once");
        }
    }

    // ---- the channel driven by hand: frames and state it must refuse ----

    use crate::optimized::testkit;
    use pc_bsp::buffer::FrameWriter;

    /// Two workers holding vertices `0, 2` and `1` respectively.
    fn cluster() -> testkit::Cluster<CombinedMessage<u64>> {
        let topo = Topology::from_owners(2, vec![0, 1, 0]);
        testkit::Cluster::new(topo, |env| CombinedMessage::new(env, Combine::sum_u64()))
    }

    #[test]
    fn frames_carry_receiver_local_indices_in_first_touch_order() {
        let mut c = cluster();
        c.chans[1].send_message(2, 5);
        c.chans[1].send_message(0, 1);
        c.chans[1].send_message(2, 5);
        c.round();
        assert_eq!(
            c.chans[0].incoming.dirty(),
            [1, 0],
            "vertex 2 is local index 1 on worker 0"
        );
        assert_eq!(c.chans[0].incoming.get(1), Some(&10));
        c.exchange();
        assert_eq!(c.chans[0].get_message(1), Some(&10));
        assert_eq!(c.chans[0].get_message(0), Some(&1));
        c.exchange();
        assert_eq!(c.chans[0].get_message(1), None, "read once");
        assert!(c.chans[0].readable.is_empty() && c.chans[0].incoming.is_empty());
    }

    #[test]
    #[should_panic(
        expected = "combined channel: frame from worker 1 names local vertex 2, this worker has 2"
    )]
    fn a_frame_naming_a_missing_vertex_is_refused() {
        let mut c = cluster();
        let mut buf = Vec::new();
        let mut fw = FrameWriter::begin(&mut buf, 0);
        2u32.encode(fw.payload());
        7u64.encode(fw.payload());
        fw.finish();
        c.deliver(0, &[(1, buf)]);
    }

    #[test]
    fn state_round_trips_sorted_by_local_index() {
        let mut c = cluster();
        c.chans[1].send_message(2, 5);
        c.chans[1].send_message(0, 1);
        c.round();
        let mut state = Vec::new();
        Channel::<()>::encode_state(&c.chans[0], &mut state);
        let mut expect = Vec::new();
        (2u32, (0u32, 1u64), (1u32, 5u64), 0u64).encode(&mut expect);
        assert_eq!(state, expect, "(local index, value) pairs, ascending");
        let mut restored = cluster();
        Channel::<()>::decode_state(&mut restored.chans[0], &mut Reader::new(&state));
        let mut again = Vec::new();
        Channel::<()>::encode_state(&restored.chans[0], &mut again);
        assert_eq!(again, state);
        restored.exchange();
        assert_eq!(restored.chans[0].get_message(1), Some(&5));
    }

    #[test]
    #[should_panic(expected = "corrupt combined channel state: local index")]
    fn restored_state_naming_a_missing_vertex_is_refused() {
        let mut state = Vec::new();
        1u32.encode(&mut state);
        2u32.encode(&mut state);
        7u64.encode(&mut state);
        0u64.encode(&mut state);
        let mut c = cluster();
        Channel::<()>::decode_state(&mut c.chans[0], &mut Reader::new(&state));
    }

    #[test]
    fn min_combining_is_order_independent() {
        // Min over messages from all vertices to vertex 3.
        struct MinTo3;
        impl Algorithm for MinTo3 {
            type Value = u32;
            type Channels = (CombinedMessage<u32>,);
            fn channels(&self, env: &WorkerEnv) -> Self::Channels {
                (CombinedMessage::new(env, Combine::min_u32()),)
            }
            fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u32, ch: &mut Self::Channels) {
                if v.step() == 1 {
                    ch.0.send_message(3, 1000 - v.id);
                    v.vote_to_halt();
                } else {
                    *value = ch.0.get_or_identity(v.local);
                    v.vote_to_halt();
                }
            }
        }
        let topo = Arc::new(Topology::hashed(100, 7));
        let out = run(&MinTo3, &topo, &Config::with_workers(7));
        assert_eq!(out.values[3], 1000 - 99);
    }
}
