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
//! Edges added later are bucketed together with the existing runs. Each
//! peer's CSR is then compiled into a gather schedule in place: its runs
//! ordered stably by length (the same kernel, keyed by length), and its
//! sources laid out in that order, each four runs of one length
//! interleaved. The schedule replaces the CSR's `run_ends`; a checkpoint
//! still writes the CSR, rebuilt from the schedule, and a restore compiles
//! it again.
//!
//! **Each superstep** the sender runs [`Combine::gather`] once per peer
//! over its schedule: four runs of one length fold in lockstep with four
//! accumulators, each run its sources left to right, and each value lands
//! at its run's index of a reused scratch — so a group's loop exit
//! predicts, the four fold chains overlap, and the scratch is in
//! destination order. The combiner is inlined into that loop (one
//! indirect call per peer, not per edge) and there is no hash table. The
//! scratch goes to the wire in one `encode_slice`. Because
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
//! (`MODE_PAIRS`) for that superstep — the same schedule walked run by run
//! with a presence check per source, into a reused scratch of one entry
//! per run, then written out in destination order — preserving
//! correctness for non-static uses.

use super::flat::{check, encode_vec, Slots, Staged};
use crate::channel::{Channel, DeserializeCx, SerializeCx, WorkerEnv};
use crate::combine::{Combine, Schedule};
use pc_bsp::codec::{Codec, Reader};
use pc_graph::csr::bucket_by_key;
use pc_graph::VertexId;
use std::ops::Range;

/// Wire modes for one scatter frame.
const MODE_VALUES: u8 = 0;
const MODE_FULL: u8 = 1;
const MODE_PAIRS: u8 = 2;

/// The longest run a gather schedule groups by length; every longer run
/// is a group of its own, folded alone. Such a run's loop is long enough to
/// pay for its own exit, and the cap bounds the length sort's keys.
const MAX_GROUPED_LEN: u32 = 64;

/// The static routes toward one destination worker: a by-destination CSR
/// over the channel's `srcs[at]`, compiled into a gather [`Schedule`].
/// Run `k` is `unique_dsts[k]`'s run of sources, ascending; no run is
/// empty. The schedule orders the runs stably by length, longer than
/// [`MAX_GROUPED_LEN`] last, and lays `srcs[at]` out in that order, four
/// runs of a length interleaved ([`Schedule::srcs`]).
#[derive(Default)]
struct PeerRoutes {
    /// Distinct destinations, ascending — the order values go out in.
    unique_dsts: Vec<u32>,
    /// `(len, count)` per length group, in schedule order.
    groups: Vec<(u32, u32)>,
    /// `run_order[i]` is the run index of the `i`-th scheduled run.
    run_order: Vec<u32>,
    /// Where the peer's sources sit in the channel's `srcs`.
    at: Range<usize>,
    /// Whether the id sequence has been shipped to this peer.
    ids_shipped: bool,
}

/// Where one run's sources sit in its peer's slice of `srcs`: the first at
/// `first`, then every `stride`-th, `len` of them.
#[derive(Clone, Copy)]
struct Run {
    index: u32,
    first: u32,
    stride: u32,
    len: u32,
}

impl Run {
    fn sources(self, srcs: &[u32]) -> impl Iterator<Item = u32> + Clone + '_ {
        let at = srcs[self.first as usize..]
            .iter()
            .step_by(self.stride as usize);
        at.take(self.len as usize).copied()
    }
}

impl PeerRoutes {
    fn schedule<'a>(&'a self, srcs: &'a [u32]) -> Schedule<'a> {
        Schedule {
            groups: &self.groups,
            srcs: &srcs[self.at.clone()],
            order: &self.run_order,
        }
    }

    /// Every run, in schedule order.
    fn runs(&self) -> impl Iterator<Item = Run> + Clone + '_ {
        let placed = self.groups.iter().scan(0, |at, &(len, count)| {
            let first = *at;
            *at += len * count;
            let quads = count / 4 * 4;
            Some((0..count).map(move |j| {
                if j < quads {
                    (first + j / 4 * 4 * len + j % 4, 4, len)
                } else {
                    (first + quads * len + (j - quads) * len, 1, len)
                }
            }))
        });
        let placed = placed.flatten();
        self.run_order
            .iter()
            .zip(placed)
            .map(|(&index, (first, stride, len))| Run {
                index,
                first,
                stride,
                len,
            })
    }

    /// Compile the canonical runs — run `k` is `canon[run_ends[k - 1]..
    /// run_ends[k]]` — into this peer's schedule, writing the scheduled
    /// sources into `out` (as long as `canon`). The runs are ordered by
    /// length with [`bucket_by_key`], stably, so runs of one length keep
    /// their destination order.
    fn compile(&mut self, run_ends: &[u32], canon: &[u32], out: &mut [u32]) {
        let begin = |k: usize| if k == 0 { 0 } else { run_ends[k - 1] };
        let len = |k: usize| run_ends[k] - begin(k);
        let long = MAX_GROUPED_LEN + 1;
        let keys = (0..run_ends.len() as u32).map(|k| (len(k as usize).min(long), k, ()));
        let (offsets, order, _) = bucket_by_key(long as usize + 1, &[keys], false, false);
        let counts = offsets.windows(2).map(|w| (w[1] - w[0]) as u32);
        self.groups = (1..long).zip(counts.skip(1)).filter(|g| g.1 > 0).collect();
        let longs = &order[offsets[long as usize]..];
        self.groups
            .extend(longs.iter().map(|&k| (len(k as usize), 1)));
        self.run_order = order;
        // Group by group, as `Schedule::srcs` lays them out: the kernel's
        // loop. Walking `runs()` instead took 6.3–6.7 ms a rank on
        // `sv_compose`'s input against 3.9–5.5 ms.
        let run = |k: u32| &canon[begin(k as usize) as usize..run_ends[k as usize] as usize];
        let (mut out, mut order) = (out, &self.run_order[..]);
        for &(len, count) in &self.groups {
            let (len, count) = (len as usize, count as usize);
            let (group, rest) = std::mem::take(&mut out).split_at_mut(len * count);
            let (runs, rest_order) = order.split_at(count);
            (out, order) = (rest, rest_order);
            let quads = count / 4 * 4;
            let (lanes, singles) = group.split_at_mut(quads * len);
            for (s, o) in lanes.chunks_exact_mut(4 * len).zip(runs.chunks_exact(4)) {
                for (lane, &k) in o.iter().enumerate() {
                    let at = s[lane..].iter_mut().step_by(4);
                    at.zip(run(k)).for_each(|(at, &src)| *at = src);
                }
            }
            for (s, &k) in singles.chunks_exact_mut(len).zip(&runs[quads..]) {
                s.copy_from_slice(run(k));
            }
        }
    }

    /// Write the canonical by-destination CSR — `unique_dsts`, `run_ends`
    /// and the runs' sources in run order — as three `Vec<u32>`s, each
    /// run's sources placed straight into the buffer at its offset there.
    fn encode_canonical(&self, srcs: &[u32], buf: &mut Vec<u8>) {
        let srcs = &srcs[self.at.clone()];
        // Each run's length, then, in place, where it begins.
        let mut begin = vec![0u32; self.run_order.len()];
        for run in self.runs() {
            begin[run.index as usize] = run.len;
        }
        encode_vec(&self.unique_dsts, buf);
        (begin.len() as u32).encode(buf);
        let mut end = 0;
        for at in &mut begin {
            (*at, end) = (end, end + *at);
            end.encode(buf);
        }
        // `u32::encode_slice`'s bytes: four little-endian bytes a value.
        (srcs.len() as u32).encode(buf);
        let column = buf.len();
        buf.resize(column + 4 * srcs.len(), 0);
        for run in self.runs() {
            let at = &mut buf[column + 4 * begin[run.index as usize] as usize..];
            for (to, src) in at.chunks_exact_mut(4).zip(run.sources(srcs)) {
                to.copy_from_slice(&src.to_le_bytes());
            }
        }
    }
}

/// Sender-combined broadcast channel over a static edge set.
pub struct ScatterCombine<M> {
    env: WorkerEnv,
    combine: Combine<M>,
    /// Edges registered since the last finalize: runs of one source each
    /// over a column of destination global ids.
    staged: Staged<()>,
    /// Routes per destination worker, over one column of source local
    /// indices grouped by peer, each peer's in its schedule's layout.
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
    /// One peer's combined values in a partial superstep, `None` for a
    /// destination none of whose sources set one.
    partial: Vec<Option<M>>,
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
            partial: Vec::new(),
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
    /// destination is resolved once and overwritten by its key. Then each
    /// peer's runs are compiled into its schedule in place, through a copy
    /// of its sources in the staging list's destination column, which is
    /// resident already; the old column, the key map and the bucket
    /// offsets are freed by then, so finalize peaks where the bucket sort
    /// does. A changed route set is re-announced to every peer.
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
        // The bucket sort orders each run, so the existing runs may go in
        // schedule order.
        let old_srcs = std::mem::take(&mut self.srcs);
        let old = self.peers.iter().zip(&base).flat_map(|(routes, &base)| {
            let srcs = &old_srcs[routes.at.clone()];
            routes.runs().flat_map(move |run| {
                let dst = base + routes.unique_dsts[run.index as usize];
                run.sources(srcs).map(move |src| (dst, src, ()))
            })
        });
        let new = staged.iter().map(|(src, key)| (key, src, ()));
        let (ends, mut srcs, _) = bucket_by_key(topo.n(), &[old.chain(new)], false, true);
        drop(old_srcs);
        let mut canon = staged.into_dsts();
        // Cut the runs per peer: key k's run is `ends[k]..ends[k + 1]`.
        // Peer p's run ends (relative to its first source) are
        // `run_ends[cut[p]..cut[p + 1]]`, in one column allocated once: at
        // most one run per key.
        let mut run_ends = Vec::with_capacity(ends.len() - 1);
        let mut cut = vec![0; self.peers.len() + 1];
        for (peer, routes) in self.peers.iter_mut().enumerate() {
            let keys = base[peer] as usize..base[peer + 1] as usize;
            let start = ends[keys.start];
            let runs = || keys.clone().filter(|&k| ends[k] != ends[k + 1]);
            routes.unique_dsts = runs().map(|k| (k - keys.start) as u32).collect();
            routes.at = start..ends[keys.end];
            routes.ids_shipped = false;
            run_ends.extend(runs().map(|k| (ends[k + 1] - start) as u32));
            cut[peer + 1] = run_ends.len();
        }
        drop(ends);
        for (routes, cut) in self.peers.iter_mut().zip(cut.windows(2)) {
            canon.clear();
            canon.extend_from_slice(&srcs[routes.at.clone()]);
            let run_ends = &run_ends[cut[0]..cut[1]];
            routes.compile(run_ends, &canon, &mut srcs[routes.at.clone()]);
        }
        self.srcs = srcs;
        self.generation += 1;
    }
}

/// A partial superstep's frame for one peer: fold each run's sources that
/// set a value, in schedule order, into `acc` (one entry per run), then
/// write a `(dst, value)` pair per destination that gathered anything,
/// ascending. Returns the pair count.
fn encode_pairs<M: Codec + Clone>(
    combine: &Combine<M>,
    slots: &Slots<M>,
    routes: &PeerRoutes,
    srcs: &[u32],
    acc: &mut Vec<Option<M>>,
    buf: &mut Vec<u8>,
) -> u64 {
    acc.clear();
    acc.resize(routes.unique_dsts.len(), None);
    let srcs = &srcs[routes.at.clone()];
    for run in routes.runs() {
        let mut set = run.sources(srcs).filter_map(|src| slots.get(src));
        if let Some(first) = set.next() {
            let mut fold = first.clone();
            for v in set {
                combine.apply(&mut fold, v.clone());
            }
            acc[run.index as usize] = Some(fold);
        }
    }
    let mut pairs = 0;
    for (&dst, fold) in routes.unique_dsts.iter().zip(acc.drain(..)) {
        if let Some(fold) = fold {
            if pairs == 0 {
                MODE_PAIRS.encode(buf);
            }
            dst.encode(buf);
            fold.encode(buf);
            pairs += 1;
        }
    }
    pairs
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
        let ScatterCombine {
            combine,
            peers,
            srcs,
            slots,
            scratch: vals,
            partial,
            messages,
            ..
        } = self;
        for (peer, routes) in peers.iter_mut().enumerate() {
            if routes.at.is_empty() {
                continue;
            }
            if !complete {
                // Explicit pairs, id cache untouched.
                let mut pairs = 0;
                cx.frame(peer, |buf| {
                    pairs = encode_pairs(combine, slots, routes, srcs, partial, buf);
                });
                *messages += pairs;
                continue;
            }
            combine.gather(&slots.vals, &routes.schedule(srcs), vals);
            *messages += vals.len() as u64;
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
        // restore: the by-destination CSR toward every peer, canonical
        // whatever its schedule, and the destination routes cached from
        // every sender.
        self.generation.encode(buf);
        for p in &self.peers {
            p.encode_canonical(&self.srcs, buf);
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
            let run_ends: Vec<u32> = r.get();
            let srcs: Vec<u32> = r.get();
            ok(p.unique_dsts.len() == run_ends.len(), "run count");
            ok(
                p.unique_dsts.is_sorted_by(|a, b| a < b)
                    && p.unique_dsts
                        .last()
                        .is_none_or(|&dst| (dst as usize) < topo.local_count(peer)),
                "route destination",
            );
            let mut begin = 0;
            ok(
                run_ends
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
            self.srcs.resize(p.at.end, 0);
            p.compile(&run_ends, &srcs, &mut self.srcs[p.at.clone()]);
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

    /// The naive per-edge reference for any fold: per destination, each
    /// sending worker (ascending) folds its set sources in ascending local
    /// order, duplicates included, left to right from the first, and the
    /// receiver folds those partial values in sender order. Returns what
    /// every vertex gathered and the number of partial values (= combined
    /// messages).
    fn fold_oracle<V: Copy>(
        topo: &Topology,
        edges: &[(VertexId, VertexId)],
        set: &[Option<V>],
        f: impl Fn(V, V) -> V,
    ) -> (Vec<Option<V>>, u64) {
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
            let partial = (per_sender[1..].iter())
                .fold(value(&per_sender[0]), |acc, edge| f(acc, value(edge)));
            partials += 1;
            let total = &mut gathered[dst as usize];
            *total = Some(total.map_or(partial, |t| f(t, partial)));
        }
        (gathered, partials)
    }

    /// [`fold_oracle`] for an `f64` sum, as bit patterns.
    fn sum_oracle(
        topo: &Topology,
        edges: &[(VertexId, VertexId)],
        set: &[Option<f64>],
    ) -> (Vec<Option<u64>>, u64) {
        let (gathered, partials) = fold_oracle(topo, edges, set, |a, b| a + b);
        (bits(gathered), partials)
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

    /// An order-sensitive, non-commutative fold: equal results pin the
    /// order in which a destination's sources were folded.
    fn ordered() -> Combine<u64> {
        Combine::new(0u64, |acc: &mut u64, v| {
            *acc = acc.wrapping_mul(31).wrapping_add(v)
        })
    }

    fn pin_owners() -> Vec<u16> {
        (0..30).map(|v| ((v * 7 + v / 3) % 3) as u16).collect()
    }

    /// A 3-worker channel over 30 vertices after two registration batches
    /// and a complete superstep each. The first batch is a random
    /// multigraph registered from the highest source down, with one
    /// 70-source run into vertex 0; the second adds sources below, between
    /// and above the runs the first left, plus destinations with no run
    /// yet.
    fn two_batches() -> Cluster<u64> {
        let n = 30u32;
        let mut c = Cluster::new(pin_owners(), 3, ordered());
        let set_all = |c: &mut Cluster<u64>| (0..n).for_each(|v| c.set(v, 1000 + v as u64));
        let mut rng = 7;
        for src in (0..n).rev() {
            let dsts: Vec<u32> = (0..next(&mut rng) % 9)
                .map(|_| (next(&mut rng) % n as u64) as u32)
                .collect();
            c.add_edges(src, &dsts);
        }
        let hub_sources: Vec<u32> = (0..n).filter(|&v| c.topo().worker_of(v) == 1).collect();
        for _ in 0..7 {
            for &src in &hub_sources[..10] {
                c.add_edge(src, 0);
            }
        }
        set_all(&mut c);
        c.exchange();
        for (src, dst) in [(29, 4), (0, 4), (14, 4), (0, 0), (29, 7), (3, 28), (16, 29)] {
            c.add_edge(src, dst);
        }
        set_all(&mut c);
        c.exchange();
        c
    }

    /// `(length, fnv64)` of each buffer: a pin that names what moved.
    fn digests(bufs: &[Vec<u8>]) -> Vec<(usize, u64)> {
        bufs.iter().map(|b| (b.len(), pc_ckpt::fnv64(b))).collect()
    }

    /// The tables checkpoint bytes, recorded before the routes were
    /// compiled into a gather schedule: whatever layout the routes keep in
    /// memory, they are written as the canonical `(unique_dsts, run_ends,
    /// srcs)` CSR per peer, and a restore writes back the same bytes.
    #[test]
    fn tables_bytes_after_two_batches_are_pinned() {
        let c = two_batches();
        let tables: Vec<Vec<u8>> = c
            .chans()
            .iter()
            .map(|ch| {
                let mut buf = Vec::new();
                Channel::<()>::encode_tables(ch, &mut buf);
                buf
            })
            .collect();
        let expect = [
            (548, 0x05dfb1eb060c108f),
            (840, 0x7d272479b33f8611),
            (528, 0xa8d6f1990674332d),
        ];
        assert_eq!(digests(&tables), expect);
        let mut restored = Cluster::new(pin_owners(), 3, ordered());
        for (w, bytes) in tables.iter().enumerate() {
            let ch = &mut restored.inner.chans[w];
            Channel::<()>::decode_tables(ch, &mut Reader::new(bytes));
            let mut again = Vec::new();
            Channel::<()>::encode_tables(ch, &mut again);
            assert_eq!(&again, bytes, "worker {w} restored");
        }
    }

    /// One partial superstep's `MODE_PAIRS` frames, recorded before the
    /// routes were compiled into a gather schedule: per destination with a
    /// set source, ascending, the left fold of its set sources.
    #[test]
    fn pairs_frame_bytes_are_pinned() {
        let mut c = two_batches();
        for v in (0..30).filter(|v| v % 3 != 1) {
            c.set(v, 5000 + v as u64 * 17);
        }
        let frames: Vec<Vec<u8>> = (0..3).flat_map(|w| c.inner.serialize(w)).collect();
        let expect = [
            (103, 0x1a8ae897793de4a1),
            (103, 0x64e4dfa0adfc0ce7),
            (103, 0xf15f936baebc5ff3),
            (103, 0x742b7f4e9c71d332),
            (91, 0x486bce3e01cda94c),
            (67, 0x6b7ea07c9a24b107),
            (91, 0xabe4465265f35a05),
            (55, 0x612d350e289ab86a),
            (115, 0x66600a0a41eec768),
        ];
        assert_eq!(digests(&frames), expect);
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

        /// The gather schedule against the naive left fold, under a fold
        /// that is neither commutative nor associative, on multigraphs
        /// shaped to reach every corner of the schedule: length groups of
        /// every remainder mod 4, length-1 runs, a run longer than
        /// [`MAX_GROUPED_LEN`] and a worker that registers nothing. Edges
        /// arrive shuffled, in late batches; supersteps are complete
        /// (FULL/VALUES frames) or partial (PAIRS frames); and midway the
        /// cluster is restored from its tables and state, whose tables
        /// bytes must encode back unchanged.
        #[test]
        fn prop_scheduled_gather_is_the_left_fold_per_destination(
            n in 1usize..60,
            workers in 1usize..5,
            steps in 2usize..6,
            seed in any::<u64>(),
        ) {
            let mut rng = seed;
            let mut pick = |below: usize| (next(&mut rng) % below as u64) as usize;
            let owners: Vec<u16> = (0..n).map(|_| pick(workers) as u16).collect();
            let topo = Topology::from_owners(workers, owners.clone());
            let idle = (workers > 1).then(|| pick(workers));
            let senders: Vec<Vec<u32>> = (0..workers)
                .map(|w| {
                    let on = |&v: &u32| topo.worker_of(v) == w && Some(w) != idle;
                    (0..n as u32).filter(on).collect()
                })
                .collect();
            let mut edges = Vec::new();
            // Length groups: `count` runs of `len` sources each, from one
            // worker to distinct vertices of one worker.
            for _ in 0..1 + pick(4) {
                let (len, count) = (1 + pick(6), pick(14));
                let (from, to) = (&senders[pick(workers)], pick(workers));
                let to: Vec<u32> = (0..n as u32).filter(|&v| topo.worker_of(v) == to).collect();
                let first = pick(n);
                for i in 0..count.min(to.len()) * usize::from(!from.is_empty()) {
                    for _ in 0..len {
                        edges.push((from[pick(from.len())], to[(first + i) % to.len()]));
                    }
                }
            }
            // A run longer than the cap, and noise.
            if pick(2) == 0 {
                let (from, dst) = (&senders[pick(workers)], pick(n) as u32);
                for _ in 0..(MAX_GROUPED_LEN as usize + 1 + pick(8)) * usize::from(!from.is_empty()) {
                    edges.push((from[pick(from.len())], dst));
                }
            }
            for _ in 0..pick(30) {
                let (from, dst) = (&senders[pick(workers)], pick(n) as u32);
                if !from.is_empty() {
                    edges.push((from[pick(from.len())], dst));
                }
            }
            for i in (1..edges.len()).rev() {
                edges.swap(i, pick(i + 1));
            }
            let f = |a: u64, b: u64| a.wrapping_mul(31).wrapping_add(b);
            let mut c = Cluster::new(owners.clone(), workers, ordered());
            let restore_at = pick(steps);
            let (mut registered, mut expect_messages) = (0, 0);
            for step in 0..steps {
                let left = edges.len() - registered;
                let batch = if step + 1 == steps { left } else { pick(left + 1) };
                for row in edges[registered..registered + batch].chunk_by(|a, b| a.0 == b.0) {
                    let dsts: Vec<VertexId> = row.iter().map(|&(_, dst)| dst).collect();
                    c.add_edges(row[0].0, &dsts);
                }
                registered += batch;
                let partial = pick(3) == 0;
                let set: Vec<Option<u64>> = (0..n)
                    .map(|_| (!partial || pick(2) == 0).then(|| pick(1 << 31) as u64))
                    .collect();
                for (v, m) in set.iter().enumerate() {
                    if let Some(m) = m {
                        c.set(v as u32, *m);
                    }
                }
                let (expect, partials) = fold_oracle(c.topo(), &edges[..registered], &set, f);
                expect_messages += partials;
                prop_assert_eq!(c.exchange(), expect, "step {}", step);
                prop_assert_eq!(c.messages(), expect_messages, "messages after step {}", step);
                if step == restore_at {
                    let mut restored = Cluster::new(owners.clone(), workers, ordered());
                    for (from, to) in c.chans().iter().zip(&mut restored.inner.chans) {
                        let (mut tables, mut state, mut again) = (Vec::new(), Vec::new(), Vec::new());
                        Channel::<()>::encode_tables(from, &mut tables);
                        Channel::<()>::encode_state(from, &mut state);
                        Channel::<()>::decode_tables(to, &mut Reader::new(&tables));
                        Channel::<()>::decode_state(to, &mut Reader::new(&state));
                        Channel::<()>::encode_tables(to, &mut again);
                        prop_assert_eq!(again, tables, "tables restored at step {}", step);
                    }
                    c = restored;
                }
            }
        }
    }
}
