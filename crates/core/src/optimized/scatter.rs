//! The `ScatterCombine` channel (§IV-C1, Fig. 5).
//!
//! Targets the **static messaging pattern**: every vertex sends a value to
//! all of its (pre-registered) neighbors each superstep, regardless of
//! local state — PageRank's rank broadcast, S-V's neighborhood pointer
//! exchange. An iterative algorithm with this pattern wastes time repeating
//! the same message-dispatch procedure every superstep; this channel
//! pre-processes the routes once, so that every later superstep is the one
//! linear scan Fig. 5 draws.
//!
//! **Registration.** `add_edges` only appends a source's row of global ids
//! to a `Staged` list (`flat.rs`) — one run per source, a bulk copy per
//! row (`add_edge` is the one-edge case). The first `serialize` after a
//! registration builds one by-destination CSR per peer — `unique_dsts`
//! (distinct destinations, ascending), `run_ends` (where each
//! destination's run of sources ends) and the peer's slice of one `srcs`
//! column (4 bytes per edge) — with `pc_graph::csr::bucket_by_key`, the
//! workspace's one counting sort, over the concatenation of the peers'
//! local index spaces, O(edges + vertices): each destination is resolved
//! once and overwritten by its key, and the kernel places the sources by
//! key and sorts any run whose sources arrived out of order. The staging
//! list is then freed. So a run is always ascending: the fold order is
//! (destination ascending, source ascending) however the edges arrived.
//! Edges added later are bucketed together with the existing runs, which
//! go first.
//!
//! **Each superstep** the sender runs [`Combine::gather`] once per peer:
//! fold the slot values of each run's sources and push one value per
//! destination into a reused scratch — combining without a hash table, and
//! with the combiner inlined into the loop (one indirect call per peer, not
//! per edge). The scratch goes to the wire in one `encode_slice`. Because
//! the destination sequence is static, the ids are transmitted **once**
//! (`MODE_FULL`); later supersteps ship bare values in the agreed order
//! (`MODE_VALUES`) and the receiver zips them with its cached route list —
//! the "removal of redundant transmission of vertices' identifiers" that
//! gives the paper's ~1/3 message-size reduction on PageRank. The receiver
//! decodes a frame into a reused scratch and folds it into dense slots by
//! local index with [`Combine::absorb`] — no routing table, no hashing.
//! Slots are plain `Vec<M>` beside a presence flag, so a steady-state
//! superstep allocates nothing.
//!
//! If a superstep is *not* complete (some registered vertex didn't
//! `set_message`, e.g. the algorithm's last iteration), the channel
//! transparently falls back to explicit `(dst, value)` pairs
//! (`MODE_PAIRS`) for that superstep — the same CSR scanned with a presence
//! check per source — preserving correctness for non-static uses.

use super::flat::{check, encode_vec, Slots, Staged};
use crate::channel::{Channel, DeserializeCx, SerializeCx, WorkerEnv};
use crate::combine::Combine;
use pc_bsp::codec::{Codec, Reader};
use pc_graph::csr::bucket_by_key;
use pc_graph::VertexId;
use std::ops::Range;

/// Wire modes for one scatter frame.
const MODE_VALUES: u8 = 0;
const MODE_FULL: u8 = 1;
const MODE_PAIRS: u8 = 2;

/// The static routes toward one destination worker: a by-destination CSR
/// over the channel's `srcs[at]`.
#[derive(Default)]
struct PeerRoutes {
    /// Distinct destinations, ascending — the order values go out in.
    unique_dsts: Vec<u32>,
    /// `run_ends[k]` is where `unique_dsts[k]`'s run ends in the peer's
    /// sources (and the next begins); no run is empty.
    run_ends: Vec<u32>,
    /// Where the peer's sources sit in the channel's `srcs`.
    at: Range<usize>,
    /// Whether the id sequence has been shipped to this peer.
    ids_shipped: bool,
}

/// Sender-combined broadcast channel over a static edge set.
pub struct ScatterCombine<M> {
    env: WorkerEnv,
    combine: Combine<M>,
    /// Edges registered since the last finalize: runs of one source each
    /// over a column of destination global ids.
    staged: Staged<()>,
    /// Routes per destination worker, over one column of source local
    /// indices grouped by peer, then destination, ascending in a run.
    peers: Vec<PeerRoutes>,
    srcs: Vec<u32>,
    /// Local vertices with at least one registered edge, and how many.
    registered: Vec<bool>,
    registered_count: usize,
    /// This superstep's outgoing value per local vertex, and how many
    /// registered vertices set one (all of them ⇒ the static pattern is in
    /// effect).
    slots: Slots<M>,
    set_registered: usize,
    /// One peer's combined values (send) or one frame's values (receive).
    scratch: Vec<M>,
    /// Cached destination routes per *sender* worker (receive side).
    routes: Vec<Vec<u32>>,
    /// Receive-side slots (double-buffered).
    incoming: Slots<M>,
    readable: Slots<M>,
    messages: u64,
    /// Bumped whenever the tables — the per-peer CSR and the cached
    /// `routes` — change (the `Channel::tables_generation` contract).
    generation: u64,
}

impl<M: Codec + Clone + Send> ScatterCombine<M> {
    /// Create this worker's instance.
    pub fn new(env: &WorkerEnv, combine: Combine<M>) -> Self {
        let numv = env.local_count();
        let workers = env.workers();
        let slots = || Slots::new(numv, combine.identity());
        ScatterCombine {
            env: env.clone(),
            staged: Staged::default(),
            peers: (0..workers).map(|_| PeerRoutes::default()).collect(),
            srcs: Vec::new(),
            registered: vec![false; numv],
            registered_count: 0,
            slots: slots(),
            set_registered: 0,
            scratch: Vec::new(),
            routes: vec![Vec::new(); workers],
            incoming: slots(),
            readable: slots(),
            messages: 0,
            generation: 0,
            combine,
        }
    }

    /// Register a static edge from local vertex `src_local` to the vertex
    /// with global id `dst` — [`ScatterCombine::add_edges`] with one edge.
    pub fn add_edge(&mut self, src_local: u32, dst: VertexId) {
        self.add_edges(src_local, &[dst]);
    }

    /// Register static edges from local vertex `src_local` to each vertex
    /// in `dsts` (global ids) — a bulk copy of the row. Usually called once
    /// per vertex in the first superstep; adding edges later re-triggers
    /// preprocessing.
    ///
    /// Kept out of line: registration is the once-per-run branch of a
    /// `compute` whose every-superstep branch is a `get` and a
    /// `set_message`. Inlined, its `Vec` growth paths triple the size of
    /// that function, and PageRank's steady-state `compute` measured 20 %
    /// slower for it (3.7 → 4.4 ms per superstep on `pr_dense_1w`).
    #[inline(never)]
    pub fn add_edges(&mut self, src_local: u32, dsts: &[VertexId]) {
        if dsts.is_empty() {
            return;
        }
        self.staged
            .push(src_local, dsts, std::iter::repeat_n((), dsts.len()));
        let src = src_local as usize;
        if !self.registered[src] {
            self.registered[src] = true;
            self.registered_count += 1;
            self.set_registered += usize::from(self.slots.present[src]);
        }
    }

    /// Set the value this vertex scatters along all its registered edges
    /// this superstep.
    pub fn set_message(&mut self, src_local: u32, m: M) {
        let src = src_local as usize;
        self.slots.vals[src] = m;
        if !self.slots.present[src] {
            self.slots.present[src] = true;
            self.set_registered += usize::from(self.registered[src]);
        }
    }

    /// The combined value gathered by `local` this superstep, if any
    /// in-neighbor scattered.
    pub fn get_message(&self, local: u32) -> Option<&M> {
        self.readable.get(local)
    }

    /// Combined value or the combiner's identity.
    pub fn get_or_identity(&self, local: u32) -> M {
        self.get_message(local)
            .cloned()
            .unwrap_or_else(|| self.combine.identity())
    }

    /// Total registered edges on this worker.
    pub fn edge_count(&self) -> usize {
        self.staged.len() + self.srcs.len()
    }

    /// Fold any staged edges into the routes and free the staging list:
    /// [`bucket_by_key`] of the existing runs, then the staged edges, by
    /// destination key over the concatenation of the peers' local index
    /// spaces (peer `p`'s vertices are keys `base[p]..base[p + 1]`), each
    /// bucket sorted. So the result is grouped by peer, then destination,
    /// and a run is ascending however its sources arrived. Each staged
    /// destination is resolved once and overwritten by its key. A changed
    /// route set is re-announced to every peer.
    fn finalize_routes(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let mut staged = std::mem::take(&mut self.staged);
        let topo = &self.env.topo;
        let total = self.srcs.len() + staged.len();
        u32::try_from(total).expect("scatter: more than u32::MAX registered edges");
        let mut base = vec![0u32; self.peers.len() + 1];
        for peer in 0..self.peers.len() {
            base[peer + 1] = base[peer] + topo.local_count(peer) as u32;
        }
        let key_of: Vec<u32> = (0..topo.n() as u32)
            .map(|v| base[topo.worker_of(v)] + topo.local_of(v))
            .collect();
        staged.map_dsts(|dst| key_of[dst as usize]);
        drop(key_of);
        // The existing runs go first, so they keep their place at the front
        // of theirs.
        let old = self.peers.iter().zip(&base).flat_map(|(routes, &base)| {
            let srcs = &self.srcs[routes.at.clone()];
            let begins = std::iter::once(0).chain(routes.run_ends.iter().copied());
            let runs = routes.unique_dsts.iter().zip(begins.zip(&routes.run_ends));
            runs.flat_map(move |(&dst, (begin, &end))| {
                let run = &srcs[begin as usize..end as usize];
                run.iter().map(move |&src| (base + dst, src, ()))
            })
        });
        let new = staged.iter().map(|(src, key)| (key, src, ()));
        let (ends, srcs, _) = bucket_by_key(topo.n(), &[old.chain(new)], false, true);
        drop(staged);
        // Cut the runs per peer: key k's run is `ends[k]..ends[k + 1]`.
        for (peer, routes) in self.peers.iter_mut().enumerate() {
            let keys = base[peer] as usize..base[peer + 1] as usize;
            let start = ends[keys.start];
            let runs = || keys.clone().filter(|&k| ends[k] != ends[k + 1]);
            let count = runs().count();
            (routes.unique_dsts, routes.run_ends) =
                (Vec::with_capacity(count), Vec::with_capacity(count));
            for k in runs() {
                routes.unique_dsts.push((k - keys.start) as u32);
                routes.run_ends.push((ends[k + 1] - start) as u32);
            }
            routes.at = start..ends[keys.end];
            routes.ids_shipped = false;
        }
        self.srcs = srcs;
        self.generation += 1;
    }

    /// A partial superstep's frame for one peer: scan the CSR skipping the
    /// sources that set nothing, and write a `(dst, value)` pair per
    /// destination that gathered anything. Returns the pair count.
    fn encode_pairs(&self, routes: &PeerRoutes, buf: &mut Vec<u8>) -> u64 {
        let srcs = &self.srcs[routes.at.clone()];
        let mut pairs = 0;
        let mut begin = 0;
        for (&dst, &end) in routes.unique_dsts.iter().zip(&routes.run_ends) {
            let mut set = srcs[begin as usize..end as usize]
                .iter()
                .filter_map(|&src| self.slots.get(src));
            if let Some(first) = set.next() {
                let mut acc = first.clone();
                for v in set {
                    self.combine.apply(&mut acc, v.clone());
                }
                if pairs == 0 {
                    MODE_PAIRS.encode(buf);
                }
                dst.encode(buf);
                acc.encode(buf);
                pairs += 1;
            }
            begin = end;
        }
        pairs
    }
}

/// Fold one frame's values into the incoming slots along `route` and wake
/// the receivers.
fn absorb<AV, M: Clone>(
    combine: &Combine<M>,
    incoming: &mut Slots<M>,
    route: &[u32],
    vals: &mut Vec<M>,
    cx: &mut DeserializeCx<'_, AV>,
) {
    combine.absorb(&mut incoming.vals, &mut incoming.present, route, vals);
    for &dst_local in route {
        cx.activate(dst_local);
    }
}

impl<AV, M: Codec + Clone + Send> Channel<AV> for ScatterCombine<M> {
    fn name(&self) -> &'static str {
        "scatter"
    }

    fn before_superstep(&mut self, _step: u64) {
        std::mem::swap(&mut self.readable, &mut self.incoming);
        self.incoming.clear();
    }

    fn serialize(&mut self, cx: &mut SerializeCx<'_>) {
        self.finalize_routes();
        if self.set_registered == 0 {
            self.slots.clear();
            return; // nothing scattered this superstep
        }
        let complete = self.set_registered == self.registered_count;
        for peer in 0..self.peers.len() {
            if self.peers[peer].at.is_empty() {
                continue;
            }
            if !complete {
                // Explicit pairs, id cache untouched.
                let routes = &self.peers[peer];
                let mut pairs = 0;
                cx.frame(peer, |buf| pairs = self.encode_pairs(routes, buf));
                self.messages += pairs;
                continue;
            }
            let routes = &mut self.peers[peer];
            let vals = &mut self.scratch;
            vals.clear();
            self.combine.gather(
                &self.slots.vals,
                &self.srcs[routes.at.clone()],
                &routes.run_ends,
                vals,
            );
            self.messages += vals.len() as u64;
            if routes.ids_shipped {
                // Static pattern, routes known: bare values only.
                cx.frame(peer, |buf| {
                    MODE_VALUES.encode(buf);
                    M::encode_slice(vals, buf);
                });
            } else {
                // First scatter: ship the id sequence once.
                cx.frame(peer, |buf| {
                    MODE_FULL.encode(buf);
                    (vals.len() as u32).encode(buf);
                    u32::encode_slice(&routes.unique_dsts, buf);
                    M::encode_slice(vals, buf);
                });
                routes.ids_shipped = true;
            }
        }
        self.slots.clear();
        self.set_registered = 0;
    }

    fn deserialize(&mut self, cx: &mut DeserializeCx<'_, AV>) {
        let ScatterCombine {
            combine,
            incoming,
            routes,
            scratch: vals,
            generation,
            ..
        } = self;
        for (from, mut r) in cx.frames() {
            let mode: u8 = r.get();
            let route = &mut routes[from];
            vals.clear();
            match mode {
                MODE_FULL => {
                    let count = r.get::<u32>() as usize;
                    route.clear();
                    route.extend((0..count).map(|_| r.get::<u32>()));
                    *generation += 1;
                    vals.extend((0..count).map(|_| r.get::<M>()));
                    absorb(combine, incoming, route, vals, cx);
                }
                MODE_VALUES => {
                    // The frame must carry exactly one value per cached
                    // route entry. Fixed width: the byte length says so
                    // before any value is decoded; otherwise decode what
                    // the frame holds and count.
                    let expect = route.len();
                    match M::FIXED_SIZE {
                        Some(size) => {
                            assert!(
                                r.remaining() == expect * size,
                                "scatter channel: VALUES frame from worker {from} is {} bytes, \
                                 the cached route expects {expect} values of {size} bytes",
                                r.remaining()
                            );
                            vals.extend((0..expect).map(|_| r.get::<M>()));
                        }
                        None => {
                            while !r.is_empty() {
                                vals.push(r.get());
                            }
                            assert!(
                                vals.len() == expect,
                                "scatter channel: VALUES frame from worker {from} carries {} \
                                 values, the cached route expects {expect}",
                                vals.len()
                            );
                        }
                    }
                    absorb(combine, incoming, route, vals, cx);
                }
                MODE_PAIRS => {
                    while !r.is_empty() {
                        let dst_local: u32 = r.get();
                        vals.push(r.get());
                        absorb(combine, incoming, &[dst_local], vals, cx);
                    }
                }
                other => unreachable!("unknown scatter frame mode {other}"),
            }
        }
    }

    fn message_count(&self) -> u64 {
        self.messages
    }

    fn encode_state(&self, buf: &mut Vec<u8>) -> bool {
        // Per epoch: edges staged since the last finalize (none at a
        // superstep boundary, where the engine snapshots) as each peer's
        // `(dst local index there, src)` pairs, whether the ids went out,
        // and the slots. `registered` is recounted on restore from the
        // routes and the staged edges — every registered edge is in one or
        // the other — and the counters beside it with it.
        let topo = &self.env.topo;
        for (peer, p) in self.peers.iter().enumerate() {
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            for (src, dst) in self.staged.iter() {
                if topo.worker_of(dst) == peer {
                    pairs.push((topo.local_of(dst), src));
                }
            }
            pairs.encode(buf);
            p.ids_shipped.encode(buf);
        }
        self.slots.encode(buf);
        self.incoming.encode(buf);
        self.messages.encode(buf);
        true
    }

    fn tables_generation(&self) -> u64 {
        self.generation
    }

    fn encode_tables(&self, buf: &mut Vec<u8>) {
        // Built by `compute` in early supersteps and never rebuilt on
        // restore: the by-destination CSR toward every peer and the
        // destination routes cached from every sender.
        self.generation.encode(buf);
        for p in &self.peers {
            encode_vec(&p.unique_dsts, buf);
            encode_vec(&p.run_ends, buf);
            encode_vec(&self.srcs[p.at.clone()], buf);
        }
        for ids in &self.routes {
            encode_vec(ids, buf);
        }
    }

    fn decode_tables(&mut self, r: &mut Reader<'_>) {
        let topo = &self.env.topo;
        let numv = self.env.local_count();
        let ok = |cond: bool, what: &str| check(cond, "scatter", what);
        self.generation = r.get();
        self.srcs.clear();
        for (peer, p) in self.peers.iter_mut().enumerate() {
            p.unique_dsts = r.get();
            p.run_ends = r.get();
            let srcs: Vec<u32> = r.get();
            ok(p.unique_dsts.len() == p.run_ends.len(), "run count");
            ok(
                p.unique_dsts.is_sorted_by(|a, b| a < b)
                    && p.unique_dsts
                        .last()
                        .is_none_or(|&dst| (dst as usize) < topo.local_count(peer)),
                "route destination",
            );
            let mut begin = 0;
            ok(
                p.run_ends
                    .iter()
                    .all(|&end| std::mem::replace(&mut begin, end) < end)
                    && begin as usize == srcs.len(),
                "route runs",
            );
            ok(
                srcs.iter().all(|&src| (src as usize) < numv),
                "route source",
            );
            p.at = self.srcs.len()..self.srcs.len() + srcs.len();
            self.srcs.extend_from_slice(&srcs);
        }
        for ids in &mut self.routes {
            *ids = r.get();
            ok(ids.iter().all(|&dst| (dst as usize) < numv), "cached route");
        }
    }

    fn decode_state(&mut self, r: &mut Reader<'_>) {
        let topo = &self.env.topo;
        let numv = self.env.local_count();
        self.staged = Staged::default();
        for (peer, p) in self.peers.iter_mut().enumerate() {
            let pairs: Vec<(u32, u32)> = r.get();
            check(
                pairs.iter().all(|&(dst, src)| {
                    (dst as usize) < topo.local_count(peer) && (src as usize) < numv
                }),
                "scatter",
                "staged edge",
            );
            for (dst, src) in pairs {
                let dst = topo.locals(peer)[dst as usize];
                self.staged.push(src, &[dst], [()]);
            }
            p.ids_shipped = r.get();
        }
        self.slots.decode(r, "scatter");
        self.incoming.decode(r, "scatter");
        self.messages = r.get();
        self.registered.fill(false);
        let staged = self.staged.iter().map(|(src, _)| src);
        for src in self.srcs.iter().copied().chain(staged) {
            self.registered[src as usize] = true;
        }
        self.registered_count = self.registered.iter().filter(|&&reg| reg).count();
        self.set_registered = self
            .registered
            .iter()
            .zip(&self.slots.present)
            .filter(|(&reg, &set)| reg && set)
            .count();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::VertexCtx;
    use crate::engine::{run, Algorithm};
    use pc_bsp::{Config, Topology};
    use pc_graph::{gen, Graph};
    use std::sync::Arc;

    /// Scatter vertex ids along graph edges; gather the min per receiver.
    struct MinOfNeighbors {
        g: Arc<Graph>,
    }
    impl Algorithm for MinOfNeighbors {
        type Value = u32;
        type Channels = (ScatterCombine<u32>,);
        fn channels(&self, env: &WorkerEnv) -> Self::Channels {
            (ScatterCombine::new(env, Combine::min_u32()),)
        }
        fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u32, ch: &mut Self::Channels) {
            match v.step() {
                1 => {
                    for &t in self.g.neighbors(v.id) {
                        ch.0.add_edge(v.local, t);
                    }
                    ch.0.set_message(v.local, v.id);
                }
                _ => {
                    *value = ch.0.get_or_identity(v.local);
                    v.vote_to_halt();
                }
            }
        }
    }

    fn min_in_neighbor_oracle(g: &Graph) -> Vec<u32> {
        let mut expect = vec![u32::MAX; g.n()];
        for (u, v, ()) in g.arcs() {
            expect[v as usize] = expect[v as usize].min(u);
        }
        expect
    }

    #[test]
    fn scatter_gathers_min_over_in_neighbors() {
        let g = Arc::new(gen::rmat(8, 2000, gen::RmatParams::default(), 9, true));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let expect = min_in_neighbor_oracle(&g);
        for cfg in [Config::sequential(4), Config::with_workers(4)] {
            let out = run(&MinOfNeighbors { g: Arc::clone(&g) }, &topo, &cfg);
            assert_eq!(out.values, expect);
        }
    }

    #[test]
    fn sender_combining_reduces_wire_pairs() {
        // A star pointing inward: every leaf scatters to the hub. With 4
        // workers, the hub receives at most 4 combined messages instead of
        // n-1.
        let n = 101;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (i, 0)).collect();
        let g = Arc::new(Graph::from_edges(n, &edges, true));
        let topo = Arc::new(Topology::hashed(n, 4));
        let out = run(&MinOfNeighbors { g }, &topo, &Config::sequential(4));
        assert_eq!(out.values[0], 1);
        let ch = &out.stats.channels[0];
        assert!(
            ch.messages <= 4,
            "one combined message per worker, got {}",
            ch.messages
        );
    }

    /// Scatter a constant for `iters` supersteps — used to verify the
    /// ids-shipped-once wire saving.
    struct RepeatScatter {
        g: Arc<Graph>,
        iters: u64,
    }
    impl Algorithm for RepeatScatter {
        type Value = u64;
        type Channels = (ScatterCombine<u64>,);
        fn channels(&self, env: &WorkerEnv) -> Self::Channels {
            (ScatterCombine::new(env, Combine::sum_u64()),)
        }
        fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, ch: &mut Self::Channels) {
            if v.step() == 1 {
                for &t in self.g.neighbors(v.id) {
                    ch.0.add_edge(v.local, t);
                }
            }
            *value += ch.0.get_or_identity(v.local);
            if v.step() <= self.iters {
                ch.0.set_message(v.local, 1);
            } else {
                v.vote_to_halt();
            }
        }
    }

    #[test]
    fn ids_are_transmitted_only_once() {
        let g = Arc::new(gen::rmat(8, 1500, gen::RmatParams::default(), 4, true));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let short = run(
            &RepeatScatter {
                g: Arc::clone(&g),
                iters: 1,
            },
            &topo,
            &Config::sequential(4),
        );
        let long = run(
            &RepeatScatter {
                g: Arc::clone(&g),
                iters: 11,
            },
            &topo,
            &Config::sequential(4),
        );
        let b1 = short.stats.total_bytes() as f64;
        let b11 = long.stats.total_bytes() as f64;
        // 11 scatters cost far less than 11× one scatter: ids ship once.
        // With u64 values, steady-state frames are ~8/12 of the first.
        let per_extra = (b11 - b1) / 10.0;
        assert!(
            per_extra < 0.75 * b1,
            "per-superstep cost {per_extra} should drop below 0.75× first-superstep cost {b1}"
        );
    }

    #[test]
    fn repeated_supersteps_accumulate_correctly() {
        let g = Arc::new(gen::cycle(12));
        let topo = Arc::new(Topology::hashed(12, 4));
        let out = run(
            &RepeatScatter { g, iters: 3 },
            &topo,
            &Config::with_workers(4),
        );
        // Each vertex has 2 in-neighbors scattering 1 for 3 supersteps.
        assert!(out.values.iter().all(|&v| v == 6), "{:?}", out.values);
    }

    #[test]
    fn partial_supersteps_fall_back_to_pairs() {
        /// Only even vertices scatter.
        struct EvenOnly {
            g: Arc<Graph>,
        }
        impl Algorithm for EvenOnly {
            type Value = u32;
            type Channels = (ScatterCombine<u32>,);
            fn channels(&self, env: &WorkerEnv) -> Self::Channels {
                (ScatterCombine::new(env, Combine::min_u32()),)
            }
            fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u32, ch: &mut Self::Channels) {
                if v.step() == 1 {
                    for &t in self.g.neighbors(v.id) {
                        ch.0.add_edge(v.local, t);
                    }
                    if v.id.is_multiple_of(2) {
                        ch.0.set_message(v.local, v.id);
                    }
                } else {
                    *value = ch.0.get_or_identity(v.local);
                    v.vote_to_halt();
                }
            }
        }
        let g = Arc::new(gen::cycle(10));
        let topo = Arc::new(Topology::hashed(10, 3));
        let out = run(
            &EvenOnly { g: Arc::clone(&g) },
            &topo,
            &Config::sequential(3),
        );
        // Odd vertices have two even neighbors; even vertices have none.
        for v in 0..10u32 {
            let expect = if v % 2 == 1 {
                g.neighbors(v)
                    .iter()
                    .copied()
                    .filter(|t| t % 2 == 0)
                    .min()
                    .unwrap()
            } else {
                u32::MAX
            };
            assert_eq!(out.values[v as usize], expect, "vertex {v}");
        }
    }

    #[test]
    fn mixed_complete_and_partial_supersteps() {
        /// Complete at steps 1-2, partial at step 3, complete at 4.
        struct Mixed {
            g: Arc<Graph>,
        }
        impl Algorithm for Mixed {
            type Value = Vec<u64>;
            type Channels = (ScatterCombine<u64>,);
            fn channels(&self, env: &WorkerEnv) -> Self::Channels {
                (ScatterCombine::new(env, Combine::sum_u64()),)
            }
            fn compute(
                &self,
                v: &mut VertexCtx<'_>,
                value: &mut Vec<u64>,
                ch: &mut Self::Channels,
            ) {
                if v.step() == 1 {
                    for &t in self.g.neighbors(v.id) {
                        ch.0.add_edge(v.local, t);
                    }
                }
                if v.step() >= 2 {
                    value.push(ch.0.get_or_identity(v.local));
                }
                match v.step() {
                    1 | 2 | 4 => ch.0.set_message(v.local, 1),
                    3 => {
                        if v.id == 0 {
                            ch.0.set_message(v.local, 100);
                        }
                    }
                    _ => v.vote_to_halt(),
                }
            }
        }
        let g = Arc::new(gen::cycle(8));
        let topo = Arc::new(Topology::hashed(8, 3));
        let out = run(&Mixed { g: Arc::clone(&g) }, &topo, &Config::sequential(3));
        for (id, vals) in out.values.iter().enumerate() {
            assert_eq!(vals[0], 2, "step2 gather at {id}"); // both neighbors sent 1
            assert_eq!(vals[1], 2, "step3 gather at {id}");
            // step 4 reads step-3 partial scatter: only vertex 0 sent 100.
            let expect = if g.neighbors(id as u32).contains(&0) {
                100
            } else {
                0
            };
            assert_eq!(vals[2], expect, "step4 gather at {id}");
            assert_eq!(vals[3], 2, "step5 gather at {id}");
        }
    }

    // ---- the channel driven by hand: fold order, frame checks, oracle ----

    use crate::optimized::testkit;
    use pc_bsp::buffer::FrameWriter;
    use proptest::prelude::*;

    /// One channel per worker, driven by hand ([`testkit::Cluster`]).
    struct Cluster<M> {
        inner: testkit::Cluster<ScatterCombine<M>>,
    }

    impl<M: Codec + Clone + Send> Cluster<M> {
        fn new(owners: Vec<u16>, workers: usize, combine: Combine<M>) -> Self {
            let topo = Topology::from_owners(workers, owners);
            Cluster {
                inner: testkit::Cluster::new(topo, |env| ScatterCombine::new(env, combine.clone())),
            }
        }

        fn topo(&self) -> &Topology {
            &self.inner.topo
        }

        fn chans(&self) -> &[ScatterCombine<M>] {
            &self.inner.chans
        }

        fn add_edge(&mut self, src: VertexId, dst: VertexId) {
            self.add_edges(src, &[dst]);
        }

        fn add_edges(&mut self, src: VertexId, dsts: &[VertexId]) {
            let (w, local) = (self.topo().worker_of(src), self.topo().local_of(src));
            self.inner.chans[w].add_edges(local, dsts);
        }

        fn set(&mut self, src: VertexId, m: M) {
            let (w, local) = (self.topo().worker_of(src), self.topo().local_of(src));
            self.inner.chans[w].set_message(local, m);
        }

        /// One exchange round and the superstep boundary after it; returns
        /// what every vertex (by global id) gathered.
        fn exchange(&mut self) -> Vec<Option<M>> {
            self.inner.exchange();
            let topo = self.topo();
            (0..topo.n() as u32)
                .map(|v| {
                    self.chans()[topo.worker_of(v)]
                        .get_message(topo.local_of(v))
                        .cloned()
                })
                .collect()
        }

        fn messages(&self) -> u64 {
            self.chans().iter().map(|c| c.messages).sum()
        }
    }

    /// The naive per-edge reference for an `f64` sum: per destination, each
    /// sending worker (ascending) folds its set sources in ascending local
    /// order, duplicates included, and the receiver folds those partial
    /// sums in sender order. Returns the bit patterns and the number of
    /// partial sums (= combined messages).
    fn sum_oracle(
        topo: &Topology,
        edges: &[(VertexId, VertexId)],
        set: &[Option<f64>],
    ) -> (Vec<Option<u64>>, u64) {
        let mut sorted: Vec<(VertexId, usize, u32)> = edges
            .iter()
            .filter(|&&(src, _)| set[src as usize].is_some())
            .map(|&(src, dst)| (dst, topo.worker_of(src), topo.local_of(src)))
            .collect();
        sorted.sort_unstable();
        let mut gathered = vec![None; topo.n()];
        let mut partials = 0;
        for per_sender in sorted.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (dst, sender, _) = per_sender[0];
            let value = |&(_, _, local): &(VertexId, usize, u32)| {
                set[topo.locals(sender)[local as usize] as usize].unwrap()
            };
            let mut partial = value(&per_sender[0]);
            for edge in &per_sender[1..] {
                partial += value(edge);
            }
            partials += 1;
            let total: &mut Option<f64> = &mut gathered[dst as usize];
            *total = Some(total.map_or(partial, |t| t + partial));
        }
        (
            gathered.into_iter().map(|g| g.map(f64::to_bits)).collect(),
            partials,
        )
    }

    fn bits(gathered: Vec<Option<f64>>) -> Vec<Option<u64>> {
        gathered.into_iter().map(|g| g.map(f64::to_bits)).collect()
    }

    #[test]
    fn fold_order_is_destination_then_source_however_edges_arrive() {
        // Sums of values this far apart differ in their last bits for
        // almost every order, so equality pins the order itself.
        let value = [1e16, 1.0, -1e16, 3.0, 1e-3, 7e8];
        let set: Vec<Option<f64>> = value.iter().copied().map(Some).collect();
        let mut c = Cluster::new(vec![0, 1, 0, 1, 0, 1], 2, Combine::sum_f64());
        // Descending sources, with duplicates, toward two destinations.
        let mut edges = Vec::new();
        for dst in [3, 0] {
            for src in [5, 4, 4, 2, 1, 0, 5] {
                edges.push((src, dst));
            }
        }
        let scatter = |c: &mut Cluster<f64>, edges: &[(u32, u32)], from: usize| {
            for &(src, dst) in &edges[from..] {
                c.add_edge(src, dst);
            }
            for (v, &x) in value.iter().enumerate() {
                c.set(v as u32, x);
            }
            bits(c.exchange())
        };
        assert_eq!(
            scatter(&mut c, &edges, 0),
            sum_oracle(c.topo(), &edges, &set).0
        );
        // A second batch after the first finalize: sources below, between
        // and above the ones a run already holds, again descending, plus a
        // destination with no run yet.
        let first = edges.len();
        edges.extend([(3, 0), (3, 3), (1, 0), (0, 0), (5, 2), (2, 2), (2, 2)]);
        let expect = sum_oracle(c.topo(), &edges, &set).0;
        assert_eq!(scatter(&mut c, &edges, first), expect, "ids re-shipped");
        assert_eq!(scatter(&mut c, &edges, edges.len()), expect, "bare values");
        assert_eq!(
            c.chans().iter().map(|ch| ch.edge_count()).sum::<usize>(),
            edges.len()
        );
        assert!(c.chans().iter().all(|ch| ch.staged.capacity_bytes() == 0));
    }

    /// A cluster that has shipped its ids along `0 → 1` and `0 → 2` (all on
    /// worker 0), then is handed a VALUES frame holding `vals`.
    fn deliver_values_frame<M: Codec + Clone + Send>(combine: Combine<M>, m: M, vals: &[M]) {
        let mut c = Cluster::new(vec![0, 0, 0], 1, combine);
        c.add_edge(0, 1);
        c.add_edge(0, 2);
        c.set(0, m);
        c.exchange();
        let mut buf = Vec::new();
        let mut fw = FrameWriter::begin(&mut buf, 0);
        MODE_VALUES.encode(fw.payload());
        M::encode_slice(vals, fw.payload());
        fw.finish();
        c.inner.deliver(0, &[(0, buf)]);
    }

    #[test]
    fn values_frame_matching_the_route_is_absorbed() {
        deliver_values_frame(Combine::sum_u64(), 1, &[5, 6]);
    }

    #[test]
    #[should_panic(
        expected = "VALUES frame from worker 0 is 24 bytes, the cached route expects 2 values of 8"
    )]
    fn values_frame_longer_than_the_route_is_refused() {
        deliver_values_frame(Combine::sum_u64(), 1, &[5, 6, 7]);
    }

    #[test]
    #[should_panic(
        expected = "VALUES frame from worker 0 is 8 bytes, the cached route expects 2 values of 8"
    )]
    fn values_frame_shorter_than_the_route_is_refused() {
        deliver_values_frame(Combine::sum_u64(), 1, &[5]);
    }

    #[test]
    #[should_panic(
        expected = "VALUES frame from worker 0 carries 3 values, the cached route expects 2"
    )]
    fn variable_width_values_frame_is_counted() {
        let concat = Combine::new(Vec::new(), |acc: &mut Vec<u8>, v: Vec<u8>| acc.extend(v));
        deliver_values_frame(concat, vec![1], &[vec![1], vec![], vec![2, 3]]);
    }

    /// The tables contract: the generation moves when a finalize merges
    /// staged edges and when a receiver caches a shipped route list — here
    /// on a worker that registers nothing itself — and not in a superstep
    /// that ships bare values.
    #[test]
    fn the_generation_moves_with_the_tables_only() {
        let mut c = Cluster::new(vec![0, 1], 2, Combine::sum_u64());
        let generations = |c: &Cluster<u64>| -> Vec<u64> {
            let chans = c.chans().iter();
            chans.map(Channel::<()>::tables_generation).collect()
        };
        assert_eq!(generations(&c), [0, 0]);
        c.add_edge(0, 1);
        c.set(0, 5);
        c.exchange();
        assert_eq!(generations(&c), [1, 1], "merged on 0, cached on 1");
        c.set(0, 6);
        c.exchange();
        assert_eq!(generations(&c), [1, 1], "bare values");
    }

    /// Edges staged but not yet finalized are checkpointed as each peer's
    /// `(dst local index there, src)` pairs in registration order, and a
    /// restored channel scatters along them exactly like the original.
    #[test]
    fn staged_edges_survive_a_state_round_trip() {
        let owners = vec![0, 1, 0, 1, 0];
        let mut c = Cluster::new(owners.clone(), 2, Combine::sum_u64());
        c.add_edges(2, &[3, 0, 1]);
        c.add_edge(0, 4);
        let mut state = Vec::new();
        Channel::<()>::encode_state(&c.chans()[0], &mut state);
        let mut expect = Vec::new();
        (vec![(0u32, 1u32), (2, 0)], false).encode(&mut expect);
        (vec![(1u32, 1u32), (0, 1)], false).encode(&mut expect);
        assert_eq!(state[..expect.len()], expect[..]);
        let mut restored = Cluster::new(owners, 2, Combine::sum_u64());
        Channel::<()>::decode_state(&mut restored.inner.chans[0], &mut Reader::new(&state));
        for cluster in [&mut c, &mut restored] {
            cluster.set(0, 1);
            cluster.set(2, 10);
        }
        assert_eq!(restored.exchange(), c.exchange());
        assert_eq!(restored.chans()[0].edge_count(), 4);
    }

    /// Tables from a worker whose peer holds more vertices than this
    /// topology gives it: the route into the missing vertex is refused at
    /// decode, not indexed out of bounds at the first gather.
    #[test]
    #[should_panic(expected = "corrupt scatter channel state: route destination")]
    fn restored_routes_must_point_at_vertices_that_exist() {
        let make = |env: &WorkerEnv| ScatterCombine::new(env, Combine::min_u32());
        let mut big = testkit::Cluster::new(Topology::from_owners(2, vec![0, 0, 1, 1, 1]), make);
        big.chans[0].add_edge(0, 4);
        big.exchange();
        let mut tables = Vec::new();
        Channel::<()>::encode_tables(&big.chans[0], &mut tables);
        let mut small = testkit::Cluster::new(Topology::from_owners(2, vec![0, 0, 1]), make);
        Channel::<()>::decode_tables(&mut small.chans[0], &mut Reader::new(&tables));
    }

    /// A small multiplicative generator for the plan below.
    fn next(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random multigraphs over random placements, edges registered in
        /// arbitrary order (a source's consecutive edges as one row) and in
        /// late batches, supersteps where every
        /// registered vertex scatters (VALUES/FULL frames) mixed with ones
        /// where only some do (PAIRS frames): every gathered value and the
        /// message count equal the per-edge oracle's, bit for bit.
        #[test]
        fn matches_the_per_edge_oracle(
            n in 1usize..24,
            workers in 1usize..5,
            raw_edges in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..120),
            steps in proptest::collection::vec(any::<u64>(), 1..7),
        ) {
            let owners: Vec<u16> = (0..n).map(|v| ((v * 7 + v / 3) % workers) as u16).collect();
            let mut c = Cluster::new(owners, workers, Combine::sum_f64());
            let edges: Vec<(u32, u32)> = raw_edges
                .iter()
                .map(|&(s, d)| (s % n as u32, d % n as u32))
                .collect();
            let mut registered = 0;
            let mut expect_messages = 0;
            for (step, &seed) in steps.iter().enumerate() {
                let mut rng = seed;
                // Register the next batch (all that is left on the last step).
                let left = edges.len() - registered;
                let batch = if step + 1 == steps.len() { left } else { next(&mut rng) as usize % (left + 1) };
                // A source's consecutive edges go in as one row.
                for row in edges[registered..registered + batch].chunk_by(|a, b| a.0 == b.0) {
                    let dsts: Vec<VertexId> = row.iter().map(|&(_, dst)| dst).collect();
                    c.add_edges(row[0].0, &dsts);
                }
                registered += batch;
                // Two supersteps in three are complete.
                let partial = next(&mut rng).is_multiple_of(3);
                let set: Vec<Option<f64>> = (0..n)
                    .map(|v| {
                        let skip = partial && next(&mut rng).is_multiple_of(2);
                        let magnitude = 10f64.powi((next(&mut rng) % 30) as i32 - 15);
                        (!skip).then_some(magnitude * (1.0 + v as f64))
                    })
                    .collect();
                for (v, m) in set.iter().enumerate() {
                    if let Some(m) = m {
                        c.set(v as u32, *m);
                    }
                }
                let (expect, partials) = sum_oracle(c.topo(), &edges[..registered], &set);
                expect_messages += partials;
                prop_assert_eq!(bits(c.exchange()), expect, "step {}", step);
                prop_assert_eq!(c.messages(), expect_messages, "messages after step {}", step);
            }
        }
    }
}
