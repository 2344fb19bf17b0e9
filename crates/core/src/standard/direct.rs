//! The `DirectMessage` channel (Table I, first column).
//!
//! Point-to-point messages: a vertex sends `(dst, value)` pairs; the
//! receiver iterates the values addressed to each vertex in the next
//! superstep. The receive side is a flat array with per-vertex ranges —
//! the "message iterator" the paper credits for the 45% pointer-jumping
//! win over Pregel+'s nested vectors (§V-A analysis). It is the
//! superstep's arrivals bucketed by receiver with
//! `pc_graph::csr::bucket_by_key`, which keeps arrival order within a
//! receiver: by sending worker ascending, then in send order.

use crate::channel::{Channel, DeserializeCx, SerializeCx, WorkerEnv};
use crate::optimized::flat::check;
use pc_bsp::codec::Codec;
use pc_graph::csr::bucket_by_key;
use pc_graph::VertexId;

/// Point-to-point message channel carrying values of type `M`.
#[derive(Debug)]
pub struct DirectMessage<M> {
    env: WorkerEnv,
    /// Staged sends, bucketed per destination worker as `(dst, value)`.
    staged: Vec<Vec<(VertexId, M)>>,
    /// Messages received this superstep, in arrival order: each one's
    /// receiver (local index) and value.
    receivers: Vec<u32>,
    incoming: Vec<M>,
    /// Readable state: values sorted by destination with range offsets.
    read_vals: Vec<M>,
    read_offsets: Vec<usize>,
    messages: u64,
}

impl<M: Codec + Default + Send> DirectMessage<M> {
    /// Create this worker's instance.
    pub fn new(env: &WorkerEnv) -> Self {
        let numv = env.local_count();
        DirectMessage {
            env: env.clone(),
            staged: (0..env.workers()).map(|_| Vec::new()).collect(),
            receivers: Vec::new(),
            incoming: Vec::new(),
            read_vals: Vec::new(),
            read_offsets: vec![0; numv + 1],
            messages: 0,
        }
    }

    /// Send `m` to the vertex with global id `dst`; it becomes readable at
    /// the destination in the next superstep.
    pub fn send_message(&mut self, dst: VertexId, m: M) {
        self.staged[self.env.worker_of(dst)].push((dst, m));
    }

    /// The messages delivered to local vertex `local` this superstep.
    pub fn messages(&self, local: u32) -> &[M] {
        let local = local as usize;
        &self.read_vals[self.read_offsets[local]..self.read_offsets[local + 1]]
    }

    /// Whether `local` received anything this superstep.
    pub fn has_messages(&self, local: u32) -> bool {
        !self.messages(local).is_empty()
    }

    /// Bucket the superstep's arrivals by receiver and expose them as one
    /// flat value array with per-vertex ranges: the kernel orders the
    /// arrival indices, and each value is moved out (`mem::take`) in that
    /// order. Outside the `Channel` impl, so one copy serves every
    /// algorithm that sends `M`.
    fn deliver(&mut self) {
        let arrivals = self.receivers.iter().zip(0..).map(|(&r, i)| (r, i, ()));
        // The last superstep's offsets go first, so two never coexist.
        let keys = std::mem::take(&mut self.read_offsets).len() - 1;
        let (offsets, order, _) = bucket_by_key(keys, &[arrivals], false, false);
        self.read_offsets = offsets;
        self.read_vals.clear();
        let take = |&i: &u32| std::mem::take(&mut self.incoming[i as usize]);
        self.read_vals.extend(order.iter().map(take));
        self.incoming.clear();
        self.receivers.clear();
    }
}

impl<AV, M: Codec + Default + Send> Channel<AV> for DirectMessage<M> {
    fn name(&self) -> &'static str {
        "direct"
    }

    fn before_superstep(&mut self, _step: u64) {
        self.deliver();
    }

    fn serialize(&mut self, cx: &mut SerializeCx<'_>) {
        for peer in 0..self.staged.len() {
            if self.staged[peer].is_empty() {
                continue;
            }
            self.messages += self.staged[peer].len() as u64;
            let batch = std::mem::take(&mut self.staged[peer]);
            cx.frame(peer, |buf| {
                for (dst, m) in &batch {
                    dst.encode(buf);
                    m.encode(buf);
                }
            });
        }
    }

    fn deserialize(&mut self, cx: &mut DeserializeCx<'_, AV>) {
        let env = &self.env;
        for (from, mut r) in cx.frames() {
            while !r.is_empty() {
                let dst: VertexId = r.get();
                if dst as usize >= env.n() || env.worker_of(dst) != env.worker {
                    not_owned(from, dst);
                }
                let local = env.local_of(dst);
                self.receivers.push(local);
                self.incoming.push(r.get());
                cx.activate(local);
            }
        }
    }

    fn message_count(&self) -> u64 {
        self.messages
    }

    fn encode_state(&self, buf: &mut Vec<u8>) -> bool {
        // At a superstep boundary `staged` is drained and the readable
        // arrays are stale (the next `before_superstep` rebuilds them
        // from the arrivals), so the deliveries pending for the next
        // superstep, as `(receiver, value)` pairs, plus the message
        // counter are the whole state.
        (self.incoming.len() as u32).encode(buf);
        for (local, m) in self.receivers.iter().zip(&self.incoming) {
            local.encode(buf);
            m.encode(buf);
        }
        self.messages.encode(buf);
        true
    }

    fn decode_state(&mut self, r: &mut pc_bsp::codec::Reader<'_>) {
        let pending: Vec<(u32, M)> = r.get();
        (self.receivers, self.incoming) = pending.into_iter().unzip();
        let numv = self.read_offsets.len() - 1;
        let in_range = self.receivers.iter().all(|&local| (local as usize) < numv);
        check(in_range, "direct", "local index");
        self.messages = r.get();
    }
}

/// The refusal of a frame naming a vertex this worker does not own. Out
/// of line and cold, so the per-message loop only branches.
#[cold]
#[inline(never)]
fn not_owned(from: usize, dst: VertexId) -> ! {
    panic!("direct channel: frame from worker {from} names vertex {dst}, which this worker does not own")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::VertexCtx;
    use crate::engine::{run, Algorithm};
    use pc_bsp::{Config, Topology};
    use std::sync::Arc;

    /// Every vertex sends its id to vertices `id/2` and `id/3`; receivers
    /// collect the count and sum of incoming messages.
    struct FanIn;
    impl Algorithm for FanIn {
        type Value = (u64, u64); // (count, sum)
        type Channels = (DirectMessage<u32>,);
        fn channels(&self, env: &WorkerEnv) -> Self::Channels {
            (DirectMessage::new(env),)
        }
        fn compute(&self, v: &mut VertexCtx<'_>, value: &mut Self::Value, ch: &mut Self::Channels) {
            if v.step() == 1 {
                ch.0.send_message(v.id / 2, v.id);
                ch.0.send_message(v.id / 3, v.id);
                v.vote_to_halt();
            } else {
                let msgs = ch.0.messages(v.local);
                *value = (msgs.len() as u64, msgs.iter().map(|&m| m as u64).sum());
                v.vote_to_halt();
            }
        }
    }

    #[test]
    fn direct_messages_are_grouped_per_receiver() {
        let n = 100u32;
        let topo = Arc::new(Topology::hashed(n as usize, 4));
        for cfg in [Config::sequential(4), Config::with_workers(4)] {
            let out = run(&FanIn, &topo, &cfg);
            // Oracle: recompute fan-in sequentially.
            let mut expect = vec![(0u64, 0u64); n as usize];
            for id in 0..n {
                for dst in [id / 2, id / 3] {
                    expect[dst as usize].0 += 1;
                    expect[dst as usize].1 += id as u64;
                }
            }
            assert_eq!(out.values, expect);
            assert_eq!(out.stats.messages(), 2 * n as u64);
            // Each message is 4 bytes dst + 4 bytes value (+ frame headers).
            assert!(out.stats.total_bytes() >= 2 * n as u64 * 8);
        }
    }

    /// Token passing along a chain: only the token holder is active.
    struct TokenPass {
        n: u32,
    }
    impl Algorithm for TokenPass {
        type Value = bool; // visited by the token
        type Channels = (DirectMessage<u8>,);
        fn channels(&self, env: &WorkerEnv) -> Self::Channels {
            (DirectMessage::new(env),)
        }
        fn compute(&self, v: &mut VertexCtx<'_>, value: &mut bool, ch: &mut Self::Channels) {
            let has_token = (v.step() == 1 && v.id == 0) || ch.0.has_messages(v.local);
            if has_token {
                *value = true;
                if v.id + 1 < self.n {
                    ch.0.send_message(v.id + 1, 1);
                }
            }
            v.vote_to_halt();
        }
    }

    #[test]
    fn activation_wakes_only_receivers() {
        let n = 20u32;
        let topo = Arc::new(Topology::hashed(n as usize, 3));
        let out = run(&TokenPass { n }, &topo, &Config::sequential(3));
        assert!(out.values.iter().all(|&v| v), "token visited everyone");
        assert_eq!(out.stats.supersteps, n as u64);
        assert_eq!(out.stats.messages(), (n - 1) as u64);
    }

    #[test]
    fn empty_supersteps_deliver_nothing() {
        let topo = Arc::new(Topology::hashed(10, 2));
        let out = run(&TokenPass { n: 1 }, &topo, &Config::sequential(2));
        // Vertex 0 exists among 10 vertices; only it gets the token.
        assert_eq!(out.values.iter().filter(|&&v| v).count(), 1);
        assert_eq!(out.stats.messages(), 0);
    }

    /// Every vertex sends `10 * id + k` to the `k`-th of `id / 2`, `id / 2`
    /// and `7 * id mod n`: duplicate destinations from one sender, several
    /// senders per receiver. Each receiver keeps the sequence it reads.
    struct Deliveries {
        n: u32,
    }
    impl Algorithm for Deliveries {
        type Value = Vec<u32>;
        type Channels = (DirectMessage<u32>,);
        fn channels(&self, env: &WorkerEnv) -> Self::Channels {
            (DirectMessage::new(env),)
        }
        fn compute(&self, v: &mut VertexCtx<'_>, value: &mut Vec<u32>, ch: &mut Self::Channels) {
            if v.step() == 1 {
                for (k, dst) in [v.id / 2, v.id / 2, 7 * v.id % self.n]
                    .into_iter()
                    .enumerate()
                {
                    ch.0.send_message(dst, 10 * v.id + k as u32);
                }
            } else {
                *value = ch.0.messages(v.local).to_vec();
            }
            v.vote_to_halt();
        }
    }

    /// The delivery order, pinned: a receiver reads its messages by sending
    /// worker ascending, then in send order (a worker computes its vertices
    /// by ascending local index, which ascends with the global id), under
    /// every driver.
    #[test]
    fn deliveries_arrive_by_sending_worker_then_send_order() {
        let n = 30;
        let topo = Arc::new(Topology::hashed(n as usize, 3));
        let mut expect = vec![Vec::new(); n as usize];
        for worker in 0..3 {
            for &id in topo.locals(worker) {
                for (k, dst) in [id / 2, id / 2, 7 * id % n].into_iter().enumerate() {
                    expect[dst as usize].push(10 * id + k as u32);
                }
            }
        }
        // Sender 26 sits on a lower worker than sender 5.
        assert_eq!(expect[2], [40, 41, 262, 50, 51]);
        for cfg in [
            Config::sequential(3),
            Config::with_workers(3),
            Config::tcp(3),
        ] {
            assert_eq!(run(&Deliveries { n }, &topo, &cfg).values, expect);
        }
    }

    #[test]
    fn variable_width_messages_roundtrip() {
        struct VecMsg;
        impl Algorithm for VecMsg {
            type Value = u64;
            type Channels = (DirectMessage<Vec<u32>>,);
            fn channels(&self, env: &WorkerEnv) -> Self::Channels {
                (DirectMessage::new(env),)
            }
            fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, ch: &mut Self::Channels) {
                if v.step() == 1 {
                    ch.0.send_message(0, vec![v.id; (v.id % 3) as usize]);
                    v.vote_to_halt();
                } else {
                    *value = ch.0.messages(v.local).iter().map(|m| m.len() as u64).sum();
                    v.vote_to_halt();
                }
            }
        }
        let topo = Arc::new(Topology::hashed(9, 2));
        let out = run(&VecMsg, &topo, &Config::sequential(2));
        // ids 0..9, each sends id%3 elements: 0+1+2+0+1+2+0+1+2 = 9
        assert_eq!(out.values[0], 9);
    }

    // ---- the channel driven by hand: frames and state it must refuse ----

    use crate::optimized::testkit;
    use pc_bsp::buffer::FrameWriter;
    use pc_bsp::codec::Reader;

    /// Two workers holding vertices `0, 2` and `1` respectively.
    fn cluster() -> testkit::Cluster<DirectMessage<u64>> {
        testkit::Cluster::new(Topology::from_owners(2, vec![0, 1, 0]), DirectMessage::new)
    }

    /// Worker 1's frame to worker 0 carrying `7` for vertex `dst`.
    fn deliver_to(dst: VertexId) {
        let mut buf = Vec::new();
        let mut fw = FrameWriter::begin(&mut buf, 0);
        dst.encode(fw.payload());
        7u64.encode(fw.payload());
        fw.finish();
        cluster().deliver(0, &[(1, buf)]);
    }

    #[test]
    #[should_panic(
        expected = "direct channel: frame from worker 1 names vertex 3, which this worker does not own"
    )]
    fn a_frame_naming_a_missing_vertex_is_refused() {
        deliver_to(3);
    }

    #[test]
    #[should_panic(
        expected = "direct channel: frame from worker 1 names vertex 1, which this worker does not own"
    )]
    fn a_frame_naming_another_workers_vertex_is_refused() {
        deliver_to(1);
    }

    /// Pending deliveries checkpoint as the `(receiver, value)` pairs of a
    /// `Vec<(u32, M)>`, in arrival order, and restore to the same reads.
    #[test]
    fn pending_deliveries_checkpoint_as_receiver_value_pairs() {
        let mut buf = Vec::new();
        let mut fw = FrameWriter::begin(&mut buf, 0);
        for (dst, m) in [(2u32, 7u64), (0, 8), (2, 9)] {
            dst.encode(fw.payload());
            m.encode(fw.payload());
        }
        fw.finish();
        let mut c = cluster();
        c.deliver(0, &[(1, buf)]);
        let mut state = Vec::new();
        assert!(Channel::<()>::encode_state(&c.chans[0], &mut state));
        let mut expect = Vec::new();
        vec![(1u32, 7u64), (0, 8), (1, 9)].encode(&mut expect);
        0u64.encode(&mut expect);
        assert_eq!(state, expect);
        let mut restored = cluster();
        Channel::<()>::decode_state(&mut restored.chans[0], &mut Reader::new(&state));
        Channel::<()>::before_superstep(&mut restored.chans[0], 2);
        assert_eq!(restored.chans[0].messages(1), [7, 9]);
        assert_eq!(restored.chans[0].messages(0), [8]);
    }

    #[test]
    #[should_panic(expected = "corrupt direct channel state: local index")]
    fn restored_state_naming_a_missing_vertex_is_refused() {
        let mut state = Vec::new();
        vec![(2u32, 7u64)].encode(&mut state);
        0u64.encode(&mut state);
        let mut c = cluster();
        Channel::<()>::decode_state(&mut c.chans[0], &mut Reader::new(&state));
        Channel::<()>::before_superstep(&mut c.chans[0], 2);
    }
}
