//! The `Propagation` channel (§IV-C3, Fig. 7).
//!
//! Targets propagation-based algorithms — some vertices emit initial
//! labels, receivers fold them in with a commutative combiner and propagate
//! onward when their value changes. Under plain message passing such
//! algorithms need one superstep per hop, so graphs with large diameters
//! converge very slowly.
//!
//! This channel combines the strengths of asynchronous GAS execution and
//! block-centric computation (Blogel): within every exchange round, each
//! worker performs a BFS-like traversal of *its own* subgraph, pushing
//! labels as far as they go locally; only updates to remote vertices
//! become messages. The engine keeps the round loop running (via
//! [`Channel::again`]) until no worker has pending work — so an entire
//! label-propagation fixpoint completes inside a single superstep, in a
//! few exchange rounds instead of `O(diameter)` supersteps.
//!
//! **Staging → `finalize` → relax.** `add_edge(s)` only appends to a
//! staged list. The first `serialize` after a registration (`finalize`)
//! merges it into one flat adjacency ([`super::flat`]): per source vertex
//! a row of `(owning worker, local index there, edge value)` columns,
//! every destination resolved once, each registration batch grouped by
//! owning worker. Popping a vertex off the worklist then walks its row as
//! a few runs, one bulk fold each — its own worker's run relaxed straight
//! into `values` (changed vertices re-queued), any other worker's folded
//! into that peer's dense stage ([`PeerStage`]) — with the combiner
//! compiled into the loop. A received frame is one more bulk relaxation.
//!
//! **Cost model.** Registration O(edges) in bulk, `finalize` O(staged
//! edges + the rows they touch); a round costs O(vertices popped + their
//! edges + messages in and out) — nothing in it is proportional to the
//! number of peers, vertices or slots, and after the first superstep it
//! allocates nothing: BFS down a path is ~10⁵ rounds of one vertex each.
//!
//! The vertex value is the channel's state: seed with
//! [`Propagation::set_value`], read the converged result with
//! [`Propagation::get_value`] in the next superstep. The combiner must be
//! commutative and idempotent-friendly (the fold order is unspecified);
//! monotone folds like `min`/`max` are the intended use.
//!
//! Table II presents the channel's *simplified* API "for saving space";
//! the full model of Fig. 7 also applies a user function `aᵢ = f(eᵢ, vᵢ)`
//! to each edge value. Both are supported here: `Propagation<M>` is the
//! simplified (unweighted) form, and [`Propagation::weighted`] constructs
//! the full form with per-edge values of type `E` (e.g. asynchronous
//! shortest paths with `f = |w, d| d + w` and a `min` combiner). The edge
//! function is applied a row at a time — one indirect call maps a popped
//! vertex's edge values into a scratch, the bulk folds take it from there.

use super::flat::{check, encode_vec, peer_runs, Adjacency, PeerStage, Staged};
use crate::channel::{Channel, DeserializeCx, SerializeCx, WorkerEnv};
use crate::combine::{Combine, Vals};
use pc_bsp::codec::{Codec, Reader};
use pc_graph::VertexId;
use std::collections::VecDeque;
use std::sync::Arc;

/// The edge transformation `aᵢ = f(eᵢ, vᵢ)` of the propagation model
/// (Fig. 7) over one adjacency row: appends `f(e, v)` for every `e`.
type RowFn<E, M> = Arc<dyn Fn(&[E], &M, &mut Vec<M>) + Send + Sync>;

/// Asynchronous label-propagation channel with values of type `M` and
/// per-edge values of type `E` (`()` in the simplified form).
pub struct Propagation<M, E = ()> {
    env: WorkerEnv,
    combine: Combine<M>,
    /// The per-edge transformation applied before folding at the target;
    /// `None` in the simplified form, where a value travels unchanged.
    edge_fn: Option<RowFn<E, M>>,
    /// Edges registered since the last `finalize`.
    staged: Staged<E>,
    /// Out-neighbors per local vertex, local and remote alike.
    adj: Adjacency<E>,
    values: Vec<M>,
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    /// Vertices whose value changed this superstep, pending activation.
    changed: Vec<u32>,
    is_changed: Vec<bool>,
    /// Outgoing remote updates, combined per `(peer, target)` in dense
    /// per-peer slots, and the peers holding any.
    staging: Vec<PeerStage<M>>,
    dirty_peers: Vec<u16>,
    /// One row's mapped edge values, the vertices one bulk relaxation
    /// moved, and one received frame.
    mapped: Vec<M>,
    moved: Vec<u32>,
    frame_dsts: Vec<u32>,
    frame_vals: Vec<M>,
    /// In block mode the channel never extends the round loop: one local
    /// convergence + one boundary exchange per superstep, like Blogel's
    /// B-compute. The default (asynchronous) mode keeps exchanging rounds
    /// inside the superstep until the global fixpoint.
    synchronous: bool,
    messages: u64,
    /// Rows `finalize` has examined so far (see `Mirror`'s).
    rows_examined: u64,
    /// Bumped whenever the adjacency (the tables) changes: at every
    /// `finalize` that merges staged edges.
    generation: u64,
}

impl<M: Codec + Clone + PartialEq + Send> Propagation<M> {
    /// Create this worker's instance (simplified, unweighted form). Values
    /// start at the combiner's identity.
    pub fn new(env: &WorkerEnv, combine: Combine<M>) -> Self {
        Propagation::with_edge_fn(env, combine, None)
    }

    /// Blogel-style block-centric variant: local propagation still runs to
    /// convergence within the worker each superstep, but boundary updates
    /// are exchanged only at superstep boundaries (no extra rounds). Used
    /// as the block-centric baseline in the Table V comparison.
    pub fn block_mode(env: &WorkerEnv, combine: Combine<M>) -> Self {
        Propagation {
            synchronous: true,
            ..Propagation::new(env, combine)
        }
    }

    /// Register a propagation edge from local vertex `src_local` to the
    /// vertex with global id `dst` (labels flow `src → dst`).
    pub fn add_edge(&mut self, src_local: u32, dst: VertexId) {
        self.add_edges(src_local, &[dst]);
    }

    /// Register propagation edges from local vertex `src_local` to every
    /// vertex of `dsts` (global ids) — a whole adjacency row in one call.
    pub fn add_edges(&mut self, src_local: u32, dsts: &[VertexId]) {
        self.staged
            .push(src_local, dsts, std::iter::repeat_n((), dsts.len()));
    }
}

impl<M: Codec + Clone + PartialEq + Send, E: Clone + Send> Propagation<M, E> {
    /// Create a channel implementing the *full* propagation model of
    /// Fig. 7: each edge carries a value `e`, and the sender's value `v`
    /// reaches the target as `f(e, v)` before the combiner folds it in.
    pub fn weighted(
        env: &WorkerEnv,
        combine: Combine<M>,
        edge_fn: impl Fn(&E, &M) -> M + Send + Sync + 'static,
    ) -> Self {
        let row_fn = move |edges: &[E], v: &M, out: &mut Vec<M>| {
            out.extend(edges.iter().map(|e| edge_fn(e, v)));
        };
        Propagation::with_edge_fn(env, combine, Some(Arc::new(row_fn)))
    }

    fn with_edge_fn(env: &WorkerEnv, combine: Combine<M>, edge_fn: Option<RowFn<E, M>>) -> Self {
        let numv = env.local_count();
        Propagation {
            env: env.clone(),
            edge_fn,
            staged: Staged::default(),
            adj: Adjacency::new(numv),
            values: vec![combine.identity(); numv],
            queue: VecDeque::new(),
            in_queue: vec![false; numv],
            changed: Vec::new(),
            is_changed: vec![false; numv],
            staging: (0..env.workers())
                .map(|peer| PeerStage::new(env.topo.local_count(peer)))
                .collect(),
            dirty_peers: Vec::new(),
            mapped: Vec::new(),
            moved: Vec::new(),
            frame_dsts: Vec::new(),
            frame_vals: Vec::new(),
            synchronous: false,
            messages: 0,
            rows_examined: 0,
            generation: 0,
            combine,
        }
    }

    /// Register a weighted propagation edge (full model).
    pub fn add_weighted_edge(&mut self, src_local: u32, dst: VertexId, edge: E) {
        self.staged.push(src_local, &[dst], [edge]);
    }

    /// Register weighted propagation edges `src_local → dsts[i]` carrying
    /// `edges[i]` — a whole weighted adjacency row in one call.
    pub fn add_weighted_edges(&mut self, src_local: u32, dsts: &[VertexId], edges: &[E]) {
        assert_eq!(dsts.len(), edges.len(), "one value per edge");
        self.staged.push(src_local, dsts, edges.iter().cloned());
    }

    /// Seed/overwrite the value of a local vertex and schedule it for
    /// propagation. The converged value is readable next superstep.
    pub fn set_value(&mut self, local: u32, m: M) {
        if self.values[local as usize] != m {
            self.values[local as usize] = m;
            self.mark_changed(local);
        }
        self.enqueue(local);
    }

    /// Overwrite a value *without* scheduling propagation or activation —
    /// used e.g. to retire vertices between phases of multi-phase
    /// algorithms (Min-Label SCC's removed vertices).
    pub fn set_value_silent(&mut self, local: u32, m: M) {
        self.values[local as usize] = m;
    }

    /// Current (post-convergence) value of a local vertex.
    pub fn get_value(&self, local: u32) -> &M {
        &self.values[local as usize]
    }

    fn enqueue(&mut self, local: u32) {
        if !self.in_queue[local as usize] {
            self.in_queue[local as usize] = true;
            self.queue.push_back(local);
        }
    }

    fn mark_changed(&mut self, local: u32) {
        if !self.is_changed[local as usize] {
            self.is_changed[local as usize] = true;
            self.changed.push(local);
        }
    }

    /// Every vertex a bulk relaxation moved changed this superstep and
    /// propagates onward.
    fn requeue_moved(&mut self) {
        for i in 0..self.moved.len() {
            let local = self.moved[i];
            self.mark_changed(local);
            self.enqueue(local);
        }
        self.moved.clear();
    }

    /// Merge the staged edges into the adjacency.
    fn finalize(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let staged = std::mem::take(&mut self.staged);
        self.rows_examined += self.adj.merge(&self.env.topo, staged, |_, _, _| {});
        self.generation += 1;
    }

    /// The local BFS-like traversal of Fig. 7: drain the worklist, folding
    /// each changed vertex's value into its local out-neighbors directly
    /// and recording remote updates in the per-peer stages.
    fn propagate_locally(&mut self) {
        let me = self.env.worker;
        while let Some(u) = self.queue.pop_front() {
            self.in_queue[u as usize] = false;
            let (peers, dsts, edges) = self.adj.row(u);
            if peers.is_empty() {
                continue;
            }
            let val = self.values[u as usize].clone();
            if let Some(f) = &self.edge_fn {
                self.mapped.clear();
                f(edges, &val, &mut self.mapped);
            }
            for (peer, run) in peer_runs(peers) {
                let vals = match &self.edge_fn {
                    Some(_) => Vals::Each(&self.mapped[run.clone()]),
                    None => Vals::One(&val),
                };
                if peer == me {
                    // Local neighbors: immediate asynchronous update.
                    self.combine
                        .relax(&mut self.values, &dsts[run], vals, &mut self.moved);
                } else {
                    // Remote neighbors: combine into the peer's stage.
                    if self.staging[peer].is_empty() {
                        self.dirty_peers.push(peer as u16);
                    }
                    self.staging[peer].stage(&self.combine, &dsts[run], vals);
                }
            }
            self.requeue_moved();
        }
    }
}

impl<AV, M: Codec + Clone + PartialEq + Send, E: Codec + Clone + Send> Channel<AV>
    for Propagation<M, E>
{
    fn name(&self) -> &'static str {
        "propagation"
    }

    fn serialize(&mut self, cx: &mut SerializeCx<'_>) {
        self.finalize();
        self.propagate_locally();
        for peer in self.dirty_peers.drain(..) {
            let stage = &mut self.staging[peer as usize];
            self.messages += stage.len() as u64;
            // Walk only the touched slots, emptying them for the next
            // round; first-touch order keeps the wire deterministic.
            cx.frame(peer as usize, |buf| {
                stage.drain(|dst_local, m| {
                    dst_local.encode(buf);
                    m.encode(buf);
                })
            });
        }
    }

    fn deserialize(&mut self, cx: &mut DeserializeCx<'_, AV>) {
        for (_from, mut r) in cx.frames() {
            self.frame_dsts.clear();
            self.frame_vals.clear();
            while !r.is_empty() {
                self.frame_dsts.push(r.get());
                self.frame_vals.push(r.get());
            }
            self.combine.relax(
                &mut self.values,
                &self.frame_dsts,
                Vals::Each(&self.frame_vals),
                &mut self.moved,
            );
            self.requeue_moved();
        }
        // Everyone whose value changed this superstep must observe the new
        // value next superstep.
        for local in self.changed.drain(..) {
            self.is_changed[local as usize] = false;
            cx.activate(local);
        }
    }

    fn again(&self) -> bool {
        !self.synchronous && !self.queue.is_empty()
    }

    fn message_count(&self) -> u64 {
        self.messages
    }

    fn encode_state(&self, buf: &mut Vec<u8>) -> bool {
        // Staged registrations, converged values, and the worklist and
        // changed list (block mode legitimately carries a worklist over a
        // superstep boundary); their membership flags are rebuilt from
        // them. The per-peer stages are empty whenever `serialize` is not
        // running. The combiner and edge function are rebuilt by the
        // algorithm's constructor.
        debug_assert!(self.dirty_peers.is_empty());
        self.staged.encode(buf);
        encode_vec(&self.values, buf);
        (self.queue.len() as u32).encode(buf);
        let (head, tail) = self.queue.as_slices();
        u32::encode_slice(head, buf);
        u32::encode_slice(tail, buf);
        encode_vec(&self.changed, buf);
        self.messages.encode(buf);
        true
    }

    fn tables_generation(&self) -> u64 {
        self.generation
    }

    fn encode_tables(&self, buf: &mut Vec<u8>) {
        // The adjacency, edge values included — hence the `E: Codec`
        // bound on this impl.
        self.generation.encode(buf);
        self.adj.encode(buf);
    }

    fn decode_tables(&mut self, r: &mut Reader<'_>) {
        self.generation = r.get();
        self.adj = Adjacency::decode(r, self.env.local_count(), &self.env.topo, "propagation");
    }

    fn decode_state(&mut self, r: &mut Reader<'_>) {
        let numv = self.env.local_count();
        let ok = |cond: bool, what: &str| check(cond, "propagation", what);
        self.staged = Staged::decode(r, numv, self.env.n(), "propagation");
        self.values = r.get();
        ok(self.values.len() == numv, "value count");
        let queue: Vec<u32> = r.get();
        self.changed = r.get();
        let members = |list: &[u32], what: &str| {
            let mut flags = vec![false; numv];
            for &v in list {
                ok(
                    (v as usize) < numv && !std::mem::replace(&mut flags[v as usize], true),
                    what,
                );
            }
            flags
        };
        self.in_queue = members(&queue, "worklist entry");
        self.is_changed = members(&self.changed, "changed entry");
        self.queue = queue.into();
        self.messages = r.get();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::VertexCtx;
    use crate::engine::{run, Algorithm};
    use pc_bsp::{Config, Topology};
    use pc_graph::{gen, reference, Graph};
    use std::sync::Arc;

    /// Min-label propagation over an undirected graph: the channel version
    /// of HCC. Everything happens in TWO supersteps regardless of
    /// diameter.
    struct MinLabel {
        g: Arc<Graph>,
    }
    impl Algorithm for MinLabel {
        type Value = u32;
        type Channels = (Propagation<u32>,);
        fn channels(&self, env: &WorkerEnv) -> Self::Channels {
            (Propagation::new(env, Combine::min_u32()),)
        }
        fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u32, ch: &mut Self::Channels) {
            if v.step() == 1 {
                for &t in self.g.neighbors(v.id) {
                    ch.0.add_edge(v.local, t);
                }
                ch.0.set_value(v.local, v.id);
            } else {
                *value = *ch.0.get_value(v.local);
                v.vote_to_halt();
            }
        }
    }

    #[test]
    fn converges_in_two_supersteps_on_huge_diameter() {
        // A 2000-vertex chain: message passing would need ~2000 supersteps.
        // With a locality-preserving (blocked) partition the label crosses
        // workers only 3 times, so the fixpoint takes a handful of rounds —
        // the behaviour the paper gets from partition-tagged vertex ids.
        let g = Arc::new(gen::chain(2000));
        let topo = Arc::new(Topology::blocked(g.n(), 4));
        let expect = reference::connected_components(&g);
        for cfg in [Config::sequential(4), Config::with_workers(4)] {
            let out = run(&MinLabel { g: Arc::clone(&g) }, &topo, &cfg);
            assert_eq!(out.values, expect);
            assert_eq!(out.stats.supersteps, 2, "fixpoint inside one superstep");
            assert!(out.stats.rounds < 10, "rounds = {}", out.stats.rounds);
        }
    }

    #[test]
    fn random_placement_still_converges_in_two_supersteps() {
        // Random placement degrades rounds (every hop crosses workers) but
        // never correctness, and the superstep count stays at 2.
        let g = Arc::new(gen::chain(300));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let expect = reference::connected_components(&g);
        let out = run(
            &MinLabel { g: Arc::clone(&g) },
            &topo,
            &Config::sequential(4),
        );
        assert_eq!(out.values, expect);
        assert_eq!(out.stats.supersteps, 2);
    }

    #[test]
    fn multi_component_labels_match_union_find() {
        let g = Arc::new(gen::rmat(9, 1200, gen::RmatParams::default(), 21, false));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let expect = reference::connected_components(&g);
        let out = run(
            &MinLabel { g: Arc::clone(&g) },
            &topo,
            &Config::sequential(4),
        );
        assert_eq!(out.values, expect);
    }

    #[test]
    fn partitioned_graph_uses_fewer_messages() {
        let g = Arc::new(gen::grid2d(30, 30, 0.0, 3));
        let expect = reference::connected_components(&g);

        let random = Arc::new(Topology::hashed(g.n(), 4));
        let out_random = run(
            &MinLabel { g: Arc::clone(&g) },
            &random,
            &Config::sequential(4),
        );

        let owners = pc_graph::partition::bfs_blocks(&*g, 4);
        let part = Arc::new(Topology::from_owners(4, owners));
        let out_part = run(
            &MinLabel { g: Arc::clone(&g) },
            &part,
            &Config::sequential(4),
        );

        assert_eq!(out_random.values, expect);
        assert_eq!(out_part.values, expect);
        assert!(
            out_part.stats.remote_bytes() < out_random.stats.remote_bytes() / 2,
            "partitioned {} vs random {}",
            out_part.stats.remote_bytes(),
            out_random.stats.remote_bytes()
        );
    }

    #[test]
    fn directed_propagation_follows_edge_direction() {
        // 0 → 1 → 2, labels flow only forward.
        let g = Arc::new(Graph::from_edges(3, &[(0, 1), (1, 2)], true));
        let topo = Arc::new(Topology::hashed(3, 2));
        let out = run(&MinLabel { g }, &topo, &Config::sequential(2));
        assert_eq!(out.values, vec![0, 0, 0]);

        let g_rev = Arc::new(Graph::from_edges(3, &[(1, 0), (2, 1)], true));
        let topo = Arc::new(Topology::hashed(3, 2));
        let out = run(&MinLabel { g: g_rev }, &topo, &Config::sequential(2));
        assert_eq!(
            out.values,
            vec![0, 1, 2],
            "labels cannot flow against edges"
        );
    }

    #[test]
    fn reseeding_supports_multiphase_algorithms() {
        /// Phase 1: min-label; phase 2: re-seed with id+100 and re-run.
        struct TwoPhase {
            g: Arc<Graph>,
        }
        impl Algorithm for TwoPhase {
            type Value = (u32, u32); // results of the two phases
            type Channels = (Propagation<u32>,);
            fn channels(&self, env: &WorkerEnv) -> Self::Channels {
                (Propagation::new(env, Combine::min_u32()),)
            }
            fn compute(
                &self,
                v: &mut VertexCtx<'_>,
                value: &mut Self::Value,
                ch: &mut Self::Channels,
            ) {
                match v.step() {
                    1 => {
                        for &t in self.g.neighbors(v.id) {
                            ch.0.add_edge(v.local, t);
                        }
                        ch.0.set_value(v.local, v.id);
                    }
                    2 => {
                        value.0 = *ch.0.get_value(v.local);
                        ch.0.set_value(v.local, v.id + 100);
                    }
                    _ => {
                        value.1 = *ch.0.get_value(v.local);
                        v.vote_to_halt();
                    }
                }
            }
        }
        let g = Arc::new(gen::cycle(40));
        let topo = Arc::new(Topology::hashed(40, 4));
        let out = run(&TwoPhase { g }, &topo, &Config::sequential(4));
        for (id, &(a, b)) in out.values.iter().enumerate() {
            assert_eq!(a, 0, "phase 1 label of {id}");
            assert_eq!(b, 100, "phase 2 label of {id}");
        }
    }

    /// Full-model propagation: asynchronous shortest paths
    /// (`f(w, d) = d + w`, min combiner) on a directed weighted chain.
    struct AsyncDistances {
        edges: Arc<Vec<(u32, u32, u32)>>, // (src, dst, weight), directed
    }
    impl Algorithm for AsyncDistances {
        type Value = u64;
        type Channels = (Propagation<u64, u32>,);
        fn channels(&self, env: &WorkerEnv) -> Self::Channels {
            (Propagation::weighted(
                env,
                Combine::min_u64(),
                |w: &u32, d: &u64| d.saturating_add(*w as u64),
            ),)
        }
        fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, ch: &mut Self::Channels) {
            if v.step() == 1 {
                for &(_, t, w) in self.edges.iter().filter(|&&(s, _, _)| s == v.id) {
                    ch.0.add_weighted_edge(v.local, t, w);
                }
                if v.id == 0 {
                    ch.0.set_value(v.local, 0);
                }
            } else {
                *value = *ch.0.get_value(v.local);
                v.vote_to_halt();
            }
        }
    }

    #[test]
    fn weighted_edges_transform_values() {
        // Chain 0 →(1) 1 →(2) 2 →(3) 3 …: dist(k) = k(k+1)/2.
        let n = 50u32;
        let edges: Vec<(u32, u32, u32)> = (0..n - 1).map(|i| (i, i + 1, i + 1)).collect();
        let topo = Arc::new(Topology::hashed(n as usize, 4));
        let algo = AsyncDistances {
            edges: Arc::new(edges),
        };
        for cfg in [Config::sequential(4), Config::with_workers(4)] {
            let out = run(&algo, &topo, &cfg);
            for k in 0..n as u64 {
                assert_eq!(out.values[k as usize], k * (k + 1) / 2, "vertex {k}");
            }
            assert_eq!(out.stats.supersteps, 2, "whole relaxation in one superstep");
        }
    }

    #[test]
    fn silent_overwrite_does_not_propagate() {
        struct Silent {
            g: Arc<Graph>,
        }
        impl Algorithm for Silent {
            type Value = u32;
            type Channels = (Propagation<u32>,);
            fn channels(&self, env: &WorkerEnv) -> Self::Channels {
                (Propagation::new(env, Combine::min_u32()),)
            }
            fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u32, ch: &mut Self::Channels) {
                if v.step() == 1 {
                    for &t in self.g.neighbors(v.id) {
                        ch.0.add_edge(v.local, t);
                    }
                    // Overwrite silently: no propagation should happen.
                    ch.0.set_value_silent(v.local, v.id);
                } else {
                    *value = *ch.0.get_value(v.local);
                    v.vote_to_halt();
                }
            }
        }
        let g = Arc::new(gen::chain(50));
        let topo = Arc::new(Topology::hashed(50, 2));
        let out = run(&Silent { g }, &topo, &Config::sequential(2));
        // Values stay as seeded: nothing propagated.
        for (id, &v) in out.values.iter().enumerate() {
            assert_eq!(v, id as u32);
        }
        assert_eq!(out.stats.messages(), 0);
    }

    // ---- the channel driven by hand: linearity, late registration, state ----

    use crate::optimized::testkit::Cluster;

    fn min_label_cluster(n: usize, workers: usize) -> Cluster<Propagation<u32>> {
        Cluster::new(Topology::hashed(n, workers), |env| {
            Propagation::new(env, Combine::min_u32())
        })
    }

    fn at(c: &mut Cluster<Propagation<u32>>, v: u32) -> (&mut Propagation<u32>, u32) {
        let (w, local) = (c.topo.worker_of(v), c.topo.local_of(v));
        (&mut c.chans[w], local)
    }

    fn labels(c: &mut Cluster<Propagation<u32>>) -> Vec<u32> {
        (0..c.topo.n() as u32)
            .map(|v| {
                let (ch, local) = at(c, v);
                *ch.get_value(local)
            })
            .collect()
    }

    /// The linearity guard (see `Mirror`'s): `finalize` examines the rows
    /// that gained edges, once each; rounds and supersteps that register
    /// nothing examine nothing; a late registration examines the rows it
    /// touches and merges into the adjacency the fixpoint then runs over.
    #[test]
    fn finalize_examines_only_the_rows_that_gained_edges() {
        // Two chains, 0–1–…–19 and 20–21–…–39.
        let g = Graph::from_edges(
            40,
            &(0..39u32)
                .filter(|&i| i != 19)
                .map(|i| (i, i + 1))
                .collect::<Vec<_>>(),
            false,
        );
        let mut c = min_label_cluster(40, 3);
        for v in g.vertices() {
            let (ch, local) = at(&mut c, v);
            ch.add_edges(local, g.neighbors(v));
            ch.set_value(local, v);
        }
        c.exchange();
        let examined = |c: &Cluster<Propagation<u32>>| -> u64 {
            c.chans.iter().map(|ch| ch.rows_examined).sum()
        };
        assert_eq!(examined(&c), 40, "every vertex has a row, examined once");
        assert_eq!(labels(&mut c), reference::connected_components(&g));
        // Late: one undirected edge joins the chains, registered one
        // direction per call; the smaller label must cross it.
        for (a, b) in [(19, 20), (20, 19)] {
            let (ch, local) = at(&mut c, a);
            ch.add_edge(local, b);
            let label = *ch.get_value(local);
            ch.set_value(local, label);
        }
        c.exchange();
        assert_eq!(examined(&c), 42, "the two rows that gained an edge");
        assert_eq!(labels(&mut c), vec![0; 40]);
        assert!(c
            .chans
            .iter()
            .all(|ch| ch.staged.is_empty() && ch.dirty_peers.is_empty()));
    }

    #[test]
    #[should_panic(expected = "corrupt propagation channel state: adjacency target")]
    fn restored_adjacency_must_point_at_vertices_that_exist() {
        let make = |env: &WorkerEnv| Propagation::<u32>::new(env, Combine::min_u32());
        let mut big = Cluster::new(Topology::from_owners(2, vec![0, 0, 1, 1, 1]), make);
        big.chans[0].add_edges(0, &[4]);
        big.exchange();
        let mut tables = Vec::new();
        Channel::<()>::encode_tables(&big.chans[0], &mut tables);
        let mut small = Cluster::new(Topology::from_owners(2, vec![0, 0, 1]), make);
        Channel::<()>::decode_tables(&mut small.chans[0], &mut Reader::new(&tables));
    }
}
