//! The `RequestRespond` channel (§IV-C2, Fig. 6).
//!
//! Two rounds of message passing form a conversation: in the *request*
//! round every vertex may ask for an attribute of any other vertex; in the
//! *respond* round the attribute values travel back. The naive
//! implementation (each requester messages the target, the target replies
//! individually) makes high-degree targets reply to thousands of
//! requesters — the load-imbalance issue the paper identifies in S-V's
//! parent queries.
//!
//! The optimization (after Pregel+'s reqresp mode, with the paper's two
//! improvements):
//!
//! * per-worker **deduplication**: each worker sorts and dedups the targets
//!   its vertices requested, sending every distinct target exactly once —
//!   a target replies at most once per *worker*, not per requester;
//! * **positional responses**: the responder returns a bare value list in
//!   request order, so responses carry no vertex ids at all (the trick the
//!   paper credits for its constant 33% size win over Pregel+'s
//!   id+value replies).
//!
//! Reading a response is one array access: a per-owner position table,
//! indexed by the target's local index, is filled when the sent requests
//! become readable and cleared by the same walk one superstep later.
//!
//! The respond value is produced by a user function applied to the target
//! vertex's value, so target vertices participate without running
//! `compute` — "implicit style" in the paper's words.

use crate::channel::{Channel, DeserializeCx, SerializeCx, WorkerEnv};
use crate::optimized::flat::check;
use pc_bsp::codec::{Codec, Reader};
use pc_graph::VertexId;
use std::sync::Arc;

/// Request/respond conversation channel: requests target vertices with
/// values of type `AV`; responses carry type `R`.
pub struct RequestRespond<AV, R> {
    env: WorkerEnv,
    respond: Arc<dyn Fn(&AV) -> R + Send + Sync>,
    /// Targets requested this superstep (global ids), bucketed per owner.
    staged: Vec<Vec<VertexId>>,
    /// Sorted, deduplicated requests sent this superstep, per owner.
    sent: Vec<Vec<VertexId>>,
    /// Response lists produced for each requesting worker (respond round).
    pending: Vec<Vec<R>>,
    /// Received responses, positional with `sent` (double-buffered).
    incoming: Vec<Vec<R>>,
    read_requests: Vec<Vec<VertexId>>,
    read_responses: Vec<Vec<R>>,
    /// Per owner, indexed by the target's local index there: one past its
    /// position in `read_requests` (and so in `read_responses`), 0 when it
    /// was not requested. Allocated zeroed on the first request toward
    /// that owner, so only the pages of requested targets are ever
    /// touched.
    position: Vec<Vec<u32>>,
    phase: u8,
    traffic: bool,
    messages: u64,
}

impl<AV, R: Codec + Clone + Send> RequestRespond<AV, R> {
    /// Create this worker's instance. `respond` derives the response from
    /// the target vertex's value (the constructor argument of Table II).
    pub fn new(env: &WorkerEnv, respond: impl Fn(&AV) -> R + Send + Sync + 'static) -> Self {
        fn lists<T>(workers: usize) -> Vec<Vec<T>> {
            (0..workers).map(|_| Vec::new()).collect()
        }
        let workers = env.workers();
        RequestRespond {
            env: env.clone(),
            respond: Arc::new(respond),
            staged: lists(workers),
            sent: lists(workers),
            pending: lists(workers),
            incoming: lists(workers),
            read_requests: lists(workers),
            read_responses: lists(workers),
            position: lists(workers),
            phase: 0,
            traffic: false,
            messages: 0,
        }
    }

    /// Request the attribute of the vertex with global id `dst`; the
    /// response is readable via [`RequestRespond::get_respond`] next
    /// superstep.
    pub fn add_request(&mut self, dst: VertexId) {
        self.staged[self.env.worker_of(dst)].push(dst);
    }

    /// The response for target `dst`, if it was requested last superstep.
    pub fn get_respond(&self, dst: VertexId) -> Option<&R> {
        let peer = self.env.worker_of(dst);
        let at = self.position[peer].get(self.env.local_of(dst) as usize)?;
        self.read_responses[peer].get(at.checked_sub(1)? as usize)
    }
}

impl<AV, R: Codec + Clone + Send> Channel<AV> for RequestRespond<AV, R> {
    fn name(&self) -> &'static str {
        "reqresp"
    }

    fn before_superstep(&mut self, _step: u64) {
        // Last superstep's conversation leaves the position tables by the
        // walk that entered it; this one's enters. Every list keeps its
        // capacity, so a steady-state superstep allocates nothing.
        let topo = &self.env.topo;
        for (peer, position) in self.position.iter_mut().enumerate() {
            for &dst in &self.read_requests[peer] {
                position[topo.local_of(dst) as usize] = 0;
            }
            std::mem::swap(&mut self.read_requests[peer], &mut self.sent[peer]);
            self.sent[peer].clear();
            if !self.read_requests[peer].is_empty() && position.is_empty() {
                *position = vec![0; topo.local_count(peer)];
            }
            for (at, &dst) in self.read_requests[peer].iter().enumerate() {
                position[topo.local_of(dst) as usize] = at as u32 + 1;
            }
        }
        std::mem::swap(&mut self.read_responses, &mut self.incoming);
        self.incoming.iter_mut().for_each(Vec::clear);
        self.phase = 0;
        self.traffic = false;
    }

    fn serialize(&mut self, cx: &mut SerializeCx<'_>) {
        self.phase += 1;
        match self.phase {
            1 => {
                // Request round: dedup and ship distinct targets.
                for peer in 0..self.staged.len() {
                    let reqs = &mut self.staged[peer];
                    if reqs.is_empty() {
                        continue;
                    }
                    reqs.sort_unstable();
                    reqs.dedup();
                    self.messages += reqs.len() as u64;
                    self.traffic = true;
                    cx.frame(peer, |buf| VertexId::encode_slice(reqs, buf));
                    // `sent[peer]` is empty: the staging list takes its
                    // capacity.
                    std::mem::swap(reqs, &mut self.sent[peer]);
                }
            }
            2 => {
                // Respond round: bare positional value lists.
                for (peer, resp) in self.pending.iter_mut().enumerate() {
                    if resp.is_empty() {
                        continue;
                    }
                    self.messages += resp.len() as u64;
                    cx.frame(peer, |buf| R::encode_slice(resp, buf));
                    resp.clear();
                }
            }
            _ => {}
        }
    }

    fn deserialize(&mut self, cx: &mut DeserializeCx<'_, AV>) {
        match self.phase {
            1 => {
                // Receive requests; produce responses from vertex values.
                for (from, mut r) in cx.frames() {
                    self.traffic = true;
                    while !r.is_empty() {
                        let dst: VertexId = r.get();
                        let local = self.env.local_of(dst);
                        let value = cx.value(local);
                        self.pending[from].push((self.respond)(value));
                    }
                }
            }
            2 => {
                for (from, mut r) in cx.frames() {
                    let resp = &mut self.incoming[from];
                    resp.clear();
                    while !r.is_empty() {
                        resp.push(r.get::<R>());
                    }
                    debug_assert_eq!(
                        resp.len(),
                        self.sent[from].len(),
                        "positional response mismatch"
                    );
                }
            }
            _ => {}
        }
    }

    fn again(&self) -> bool {
        // One extra round is needed whenever any requests flowed; the
        // engine ORs this across workers, so phase counters stay aligned.
        self.phase == 1 && self.traffic
    }

    fn message_count(&self) -> u64 {
        self.messages
    }

    fn encode_state(&self, buf: &mut Vec<u8>) -> bool {
        // At a boundary the conversation is complete: `sent` holds the
        // requests whose positional responses sit in `incoming`; both are
        // consumed by the next `before_superstep`. `staged`/`pending` are
        // drained and `phase`/`traffic` reset.
        self.sent.encode(buf);
        (self.incoming.len() as u32).encode(buf);
        for resp in &self.incoming {
            resp.encode(buf);
        }
        self.messages.encode(buf);
        true
    }

    fn decode_state(&mut self, r: &mut Reader<'_>) {
        let topo = &self.env.topo;
        self.sent = r.get();
        check(
            self.sent.len() == self.incoming.len()
                && self.sent.iter().enumerate().all(|(peer, reqs)| {
                    reqs.iter()
                        .all(|&dst| (dst as usize) < topo.n() && topo.worker_of(dst) == peer)
                }),
            "reqresp",
            "request target",
        );
        let n: u32 = r.get();
        assert_eq!(n as usize, self.incoming.len(), "peer count drifted");
        for resp in &mut self.incoming {
            *resp = r.get();
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

    /// Every vertex asks for the squared value of vertex `id / 2`.
    struct AskParent;
    impl Algorithm for AskParent {
        type Value = u64;
        type Channels = (RequestRespond<u64, u64>,);
        fn channels(&self, env: &WorkerEnv) -> Self::Channels {
            (RequestRespond::new(env, |v: &u64| v * v),)
        }
        fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, ch: &mut Self::Channels) {
            match v.step() {
                1 => {
                    *value = v.id as u64 + 1;
                    ch.0.add_request(v.id / 2);
                }
                _ => {
                    let target = (v.id / 2) as u64 + 1;
                    assert_eq!(ch.0.get_respond(v.id / 2), Some(&(target * target)));
                    *value = *ch.0.get_respond(v.id / 2).unwrap();
                    v.vote_to_halt();
                }
            }
        }
    }

    #[test]
    fn responses_match_targets() {
        let topo = Arc::new(Topology::hashed(64, 4));
        for cfg in [Config::sequential(4), Config::with_workers(4)] {
            let out = run(&AskParent, &topo, &cfg);
            for id in 0..64u64 {
                let t = id / 2 + 1;
                assert_eq!(out.values[id as usize], t * t);
            }
            // Exactly 2 rounds in the request superstep, 1 in the final.
            assert_eq!(out.stats.supersteps, 2);
            assert_eq!(out.stats.rounds, 3);
        }
    }

    #[test]
    fn requests_are_deduplicated_per_worker() {
        /// All vertices request vertex 0.
        struct AllAskZero;
        impl Algorithm for AllAskZero {
            type Value = u64;
            type Channels = (RequestRespond<u64, u64>,);
            fn channels(&self, env: &WorkerEnv) -> Self::Channels {
                (RequestRespond::new(env, |v: &u64| *v),)
            }
            fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, ch: &mut Self::Channels) {
                if v.step() == 1 {
                    *value = v.id as u64 + 100;
                    ch.0.add_request(0);
                } else {
                    *value = *ch.0.get_respond(0).unwrap();
                    v.vote_to_halt();
                }
            }
        }
        let topo = Arc::new(Topology::hashed(1000, 4));
        let out = run(&AllAskZero, &topo, &Config::sequential(4));
        assert!(out.values.iter().all(|&v| v == 100));
        let ch = &out.stats.channels[0];
        // 4 deduped requests + 4 responses instead of 1000 + 1000.
        assert_eq!(ch.messages, 8);
    }

    #[test]
    fn no_requests_costs_one_round() {
        struct Quiet;
        impl Algorithm for Quiet {
            type Value = u64;
            type Channels = (RequestRespond<u64, u64>,);
            fn channels(&self, env: &WorkerEnv) -> Self::Channels {
                (RequestRespond::new(env, |v: &u64| *v),)
            }
            fn compute(&self, v: &mut VertexCtx<'_>, _value: &mut u64, ch: &mut Self::Channels) {
                assert!(ch.0.get_respond(0).is_none());
                v.vote_to_halt();
            }
        }
        let topo = Arc::new(Topology::hashed(10, 2));
        let out = run(&Quiet, &topo, &Config::sequential(2));
        assert_eq!(out.stats.rounds, 1);
        assert_eq!(out.stats.total_bytes(), 0);
    }

    #[test]
    fn repeated_conversations_across_supersteps() {
        /// Chase parent pointers: each vertex asks its current pointer for
        /// that vertex's pointer, three times (pointer doubling on a path).
        struct Chase;
        impl Algorithm for Chase {
            type Value = u32; // current pointer
            type Channels = (RequestRespond<u32, u32>,);
            fn channels(&self, env: &WorkerEnv) -> Self::Channels {
                (RequestRespond::new(env, |v: &u32| *v),)
            }
            fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u32, ch: &mut Self::Channels) {
                if v.step() == 1 {
                    *value = v.id.saturating_sub(1); // chain parent
                } else {
                    *value = *ch.0.get_respond(*value).unwrap();
                }
                if v.step() <= 3 {
                    ch.0.add_request(*value);
                } else {
                    v.vote_to_halt();
                }
            }
        }
        let n = 32u32;
        let topo = Arc::new(Topology::hashed(n as usize, 3));
        let out = run(&Chase, &topo, &Config::with_workers(3));
        // After k rounds of doubling a vertex's pointer moves 2^k - 1… here
        // simply check monotone decrease toward 0 and the head's fixpoint.
        assert_eq!(out.values[0], 0);
        assert_eq!(out.values[1], 0);
        for id in 2..n {
            assert!(out.values[id as usize] < id.saturating_sub(1).max(1));
        }
    }

    /// Each superstep asks for a different pair of targets: only the last
    /// superstep's are answered, whoever owns them.
    #[test]
    fn only_last_supersteps_targets_are_answered() {
        struct Shifting;
        impl Algorithm for Shifting {
            type Value = u64;
            type Channels = (RequestRespond<u64, u64>,);
            fn channels(&self, env: &WorkerEnv) -> Self::Channels {
                (RequestRespond::new(env, |v: &u64| *v),)
            }
            fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, ch: &mut Self::Channels) {
                let step = v.step() as u32;
                if step == 1 {
                    *value = 100 + v.id as u64;
                } else {
                    let asked = [step - 2, step + 3];
                    for t in 0..12 {
                        let expect = asked.contains(&t).then_some(100 + t as u64);
                        assert_eq!(ch.0.get_respond(t).copied(), expect, "step {step}, {t}");
                    }
                }
                if step <= 4 {
                    ch.0.add_request(step - 1);
                    ch.0.add_request(step + 4);
                } else {
                    v.vote_to_halt();
                }
            }
        }
        let topo = Arc::new(Topology::hashed(12, 3));
        for cfg in [Config::sequential(3), Config::with_workers(3)] {
            run(&Shifting, &topo, &cfg);
        }
    }

    #[test]
    #[should_panic(expected = "corrupt reqresp channel state: request target")]
    fn restored_requests_must_target_their_owner() {
        let topo = Arc::new(Topology::from_owners(2, vec![0, 1, 0]));
        let env = WorkerEnv { worker: 0, topo };
        let mut state = Vec::new();
        // Vertex 1 lives on worker 1, not in worker 0's list.
        (
            vec![vec![1u32], vec![]],
            2u32,
            Vec::<u64>::new(),
            Vec::<u64>::new(),
            0u64,
        )
            .encode(&mut state);
        let mut ch = RequestRespond::<u64, u64>::new(&env, |v| *v);
        Channel::<u64>::decode_state(&mut ch, &mut Reader::new(&state));
    }

    #[test]
    fn local_requests_use_loopback() {
        let topo = Arc::new(Topology::hashed(64, 1));
        let out = run(&AskParent, &topo, &Config::sequential(1));
        assert_eq!(out.stats.remote_bytes(), 0);
        assert!(out.stats.total_bytes() > 0);
    }
}
