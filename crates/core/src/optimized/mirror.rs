//! The `Mirror` channel — sender-centric message combining (vertex
//! replication / ghost vertices) as a *composable* channel.
//!
//! Pregel+ offers mirroring only as a global execution mode ("ghost
//! mode") that cannot be combined with its other mode (§VI: "it is less
//! flexible since the two modes cannot be composed and adding
//! optimizations is inconvenient"). In the channel architecture the same
//! optimization is just another channel, freely composable with the rest
//! of the library.
//!
//! Mechanism: a vertex whose registered out-degree reaches the threshold τ
//! is *mirrored* — broadcasting a value to its neighbors sends **one**
//! message per destination worker; the receiving worker expands it through
//! a mirror table built at registration time. Low-degree vertices send
//! per-edge messages, combined per destination at the sender like
//! [`crate::CombinedMessage`].
//!
//! **Staging → `finalize` → route.** `add_edge(s)` and `send_to_neighbors`
//! only append to two lists. `serialize` — once per superstep, after every
//! `compute` — first runs `finalize`, which merges the staged edges into
//! the flat out-edge table ([`super::flat`]) and decides, for each row
//! that gained edges and for no other, whether it just became a hub; then
//! it routes the staged broadcasts: a hub's as one ghost message per
//! mirror-holding worker, anyone else's along its row, folded into dense
//! per-peer slots one bulk fold per destination worker. A broadcast issued
//! in the superstep that registered its edges therefore needs no early
//! table build, and reaches every edge its vertex registered by the end of
//! that superstep's `compute`.
//!
//! **Mirror tables** live at the receiver as one flat `targets` array with
//! a sorted hub index; a ghost message is a binary search plus one bulk
//! fold over the hub's run of local targets. When the topology carries a
//! [`pc_bsp::MirrorPlan`] every table is installed at construction and
//! none ever ships. Otherwise a hub's tables ship in-band, inside the
//! frame that carries its first mirrored broadcast, exactly once: when its
//! row first reaches τ. Edges a hub registers later ship as an extension
//! of its tables (the receiver appends them to the hub's run).
//!
//! **Cost model.** Registration is O(edges) in bulk — a pre-wired hub's
//! row is only *counted* (its fan-out is the plan's; the count feeds
//! `saved`). `finalize` is O(staged edges + the rows they touch). A
//! broadcast is O(mirror holders) for a hub and O(out-degree) otherwise; a
//! received ghost is O(log hubs + local targets). The combiner is a direct
//! call inside each of those loops ([`Combine`]'s bulk folds).
//!
//! Compared with [`crate::ScatterCombine`] (receiver-centric combining of
//! the same static pattern): mirroring ships fewer bytes when hubs
//! dominate — one message per *worker* instead of one per *distinct
//! destination* — but pays the per-edge expansion at the receiver (the
//! paper's §V-B1 analysis of why ghost mode saves bytes without saving
//! time).

use super::flat::{check, encode_vec, peer_runs, Adjacency, PeerStage, Rows, Slots, Staged};
use crate::channel::{Channel, DeserializeCx, SerializeCx, WorkerEnv};
use crate::combine::{Combine, Vals};
use pc_bsp::codec::{Codec, Reader};
use pc_graph::VertexId;

/// Mirror-table entries not yet shipped to one peer: per hub, its id and
/// where its run of targets (local indices at the peer) ends.
#[derive(Default)]
struct PendingTables {
    hubs: Vec<(VertexId, u32)>,
    targets: Vec<u32>,
}

impl PendingTables {
    fn push(&mut self, hub: VertexId, targets: impl Iterator<Item = u32>) {
        self.targets.extend(targets);
        let end = u32::try_from(self.targets.len()).expect("more than u32::MAX pending targets");
        self.hubs.push((hub, end));
    }

    /// The frame's table section: a count, then `(hub id, target list)`
    /// per entry.
    fn encode_section(&self, buf: &mut Vec<u8>) {
        (self.hubs.len() as u32).encode(buf);
        let mut begin = 0;
        for &(hub, end) in &self.hubs {
            hub.encode(buf);
            encode_vec(&self.targets[begin..end as usize], buf);
            begin = end as usize;
        }
    }
}

/// Receive-side mirror tables: ghosted hub id → its run of local targets.
#[derive(Default)]
struct GhostTables {
    /// `(hub id, row)`: the first `indexed` ascending by id and searched,
    /// the rest hubs first seen since the last [`GhostTables::reindex`].
    index: Vec<(VertexId, u32)>,
    indexed: usize,
    rows: Rows,
    targets: Vec<u32>,
}

impl GhostTables {
    fn row_of(&self, hub: VertexId) -> Option<u32> {
        let known = &self.index[..self.indexed];
        let at = known.binary_search_by_key(&hub, |entry| entry.0).ok()?;
        Some(known[at].1)
    }

    /// The local targets of `hub`'s mirror here; none if it has none.
    fn targets_of(&self, hub: VertexId) -> &[u32] {
        self.row_of(hub)
            .map_or(&[][..], |row| &self.targets[self.rows.range(row)])
    }

    /// Append `targets` to `hub`'s run. A hub not in the index is taken
    /// for a new one (an owner names a hub once per table section), and is
    /// found once [`GhostTables::reindex`] has run.
    fn extend(&mut self, hub: VertexId, targets: impl Iterator<Item = u32>) {
        let row = self.row_of(hub).unwrap_or_else(|| {
            let row = self.rows.push_row();
            self.index.push((hub, row));
            row
        });
        let moved = self.rows.open(row, self.targets.len());
        self.targets.extend_from_within(moved);
        self.targets.extend(targets);
        self.rows.close(row, self.targets.len());
    }

    fn reindex(&mut self) {
        if self.indexed < self.index.len() {
            self.index.sort_unstable_by_key(|entry| entry.0);
            self.indexed = self.index.len();
        }
    }
}

/// Broadcast-to-neighbors channel with sender-centric combining above a
/// degree threshold.
pub struct Mirror<M> {
    env: WorkerEnv,
    combine: Combine<M>,
    threshold: usize,
    /// Edges registered since the last `finalize`.
    staged: Staged<()>,
    /// This superstep's broadcasts `(source, value)`, routed by `serialize`.
    casts: Vec<(u32, M)>,
    /// Registered out-degree per local vertex.
    degree: Vec<u32>,
    /// Local vertices the shipped plan pre-wired: their fan-out is the
    /// plan's, their registered edges are counted and not kept.
    prewired: Vec<bool>,
    /// Out-edges of everyone else.
    out: Adjacency<()>,
    /// Per mirrored local vertex, the workers holding its mirrors,
    /// ascending; an empty row is not (yet) a hub.
    hubs: Rows,
    hub_peers: Vec<u16>,
    ghosts: GhostTables,
    /// Mirror-table entries to ship, per peer, sent once like scatter's id
    /// transmission.
    pending: Vec<PendingTables>,
    /// Routed traffic per peer: mirrored broadcasts, and per-edge messages
    /// combined per destination.
    staged_ghost: Vec<Vec<(VertexId, M)>>,
    staged_direct: Vec<PeerStage<M>>,
    /// Receiver-combined values per local vertex (double-buffered).
    incoming: Slots<M>,
    readable: Slots<M>,
    /// A frame's direct section while it is decoded, and the vertices a
    /// round's frames reached first.
    frame_dsts: Vec<u32>,
    frame_vals: Vec<M>,
    woken: Vec<u32>,
    messages: u64,
    /// Messages sent as per-worker mirror broadcasts.
    mirrored: u64,
    /// Per-edge messages the broadcasts avoided.
    saved: u64,
    /// Rows `finalize` has examined so far — the linearity witness: it
    /// grows by the rows that gained edges, never by the rows that exist.
    rows_examined: u64,
    /// Bumped whenever the tables — degrees, out-edges, hub and ghost
    /// tables — change: at every registration (it moves a degree, and
    /// `finalize` merges it) and with every table section received.
    generation: u64,
}

impl<M: Codec + Clone + Send> Mirror<M> {
    /// Create this worker's instance with mirroring threshold τ (the paper
    /// uses 16 for ghost mode).
    ///
    /// When the topology carries a [`pc_bsp::MirrorPlan`] (built at ship
    /// time by a degree-aware partitioner), the channel pre-wires from it:
    /// the plan's τ replaces `threshold`, owned hubs get their per-worker
    /// broadcast fan-out installed up front, and receive-side ghost tables
    /// for remote hubs targeting this worker are installed too — so no
    /// mirror tables ever ship in-band.
    pub fn new(env: &WorkerEnv, combine: Combine<M>, threshold: usize) -> Self {
        let numv = env.local_count();
        let workers = env.workers();
        let slots = || Slots::new(numv, combine.identity());
        let mut ch = Mirror {
            env: env.clone(),
            threshold: threshold.max(1),
            staged: Staged::default(),
            casts: Vec::new(),
            degree: vec![0; numv],
            prewired: vec![false; numv],
            out: Adjacency::new(numv),
            hubs: Rows::new(numv),
            hub_peers: Vec::new(),
            ghosts: GhostTables::default(),
            pending: (0..workers).map(|_| PendingTables::default()).collect(),
            staged_ghost: vec![Vec::new(); workers],
            staged_direct: (0..workers)
                .map(|peer| PeerStage::new(env.topo.local_count(peer)))
                .collect(),
            incoming: slots(),
            readable: slots(),
            frame_dsts: Vec::new(),
            frame_vals: Vec::new(),
            woken: Vec::new(),
            messages: 0,
            mirrored: 0,
            saved: 0,
            rows_examined: 0,
            generation: 0,
            combine,
        };
        if let Some(plan) = env.topo.mirror_plan() {
            ch.threshold = (plan.threshold as usize).max(1);
            // Hubs ascend by id, so the ghost index is built sorted.
            for hub in &plan.hubs {
                if env.worker_of(hub.id) == env.worker {
                    let local = env.local_of(hub.id);
                    ch.prewired[local as usize] = true;
                    let at = ch.hub_peers.len();
                    ch.hub_peers.extend_from_slice(&hub.peers);
                    ch.hubs.set(local, at..ch.hub_peers.len());
                }
                if let Some(locals) = hub.targets_for(env.worker as u16) {
                    ch.ghosts.extend(hub.id, locals.iter().copied());
                }
            }
            ch.ghosts.reindex();
        }
        ch
    }

    /// The effective mirroring threshold τ (the plan's, when the topology
    /// carries one) — algorithms use it to route hub traffic here and
    /// low-degree traffic through cheaper channels.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Register a broadcast edge from local vertex `src_local` to the
    /// vertex with global id `dst`.
    pub fn add_edge(&mut self, src_local: u32, dst: VertexId) {
        self.add_edges(src_local, &[dst]);
    }

    /// Register broadcast edges from local vertex `src_local` to every
    /// vertex of `dsts` (global ids) — a whole adjacency row in one call.
    pub fn add_edges(&mut self, src_local: u32, dsts: &[VertexId]) {
        if dsts.is_empty() {
            return;
        }
        self.generation += 1;
        let src = src_local as usize;
        self.degree[src] = u32::try_from(self.degree[src] as usize + dsts.len())
            .expect("more than u32::MAX edges registered by one vertex");
        if !self.prewired[src] {
            self.staged
                .push(src_local, dsts, std::iter::repeat_n((), dsts.len()));
        }
    }

    /// Broadcast `m` to all registered out-neighbors of `src_local` (whose
    /// global id is `src_id`), including the ones it registers later in
    /// this superstep.
    pub fn send_to_neighbors(&mut self, src_local: u32, src_id: VertexId, m: M) {
        debug_assert_eq!(self.env.global_of(src_local), src_id);
        self.casts.push((src_local, m));
    }

    /// The combined value gathered by `local` this superstep.
    pub fn get_message(&self, local: u32) -> Option<&M> {
        self.readable.get(local)
    }

    /// Combined value or the combiner's identity.
    pub fn get_or_identity(&self, local: u32) -> M {
        self.get_message(local)
            .cloned()
            .unwrap_or_else(|| self.combine.identity())
    }

    /// Merge the staged edges into the out-edge table. A row that reaches
    /// τ with them becomes a hub and queues its tables for (one-time)
    /// shipment; a row that already was one queues the new edges only.
    fn finalize(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let staged = std::mem::take(&mut self.staged);
        let Mirror {
            env,
            threshold,
            out,
            hubs,
            hub_peers,
            pending,
            ..
        } = self;
        self.rows_examined += out.merge(&env.topo, staged, |out, row, old_len| {
            let (peers, dsts, _) = out.row(row);
            let was_hub = hubs.len_of(row) > 0;
            if !was_hub && peers.len() < *threshold {
                return;
            }
            // A new hub ships its whole row, an old one what it gained.
            // Every batch of a row is grouped by peer; a row of several is
            // regrouped, each peer's targets still in registration order.
            let from = if was_hub { old_len } else { 0 };
            let mut by_peer: Vec<(u16, u32)> = std::iter::zip(&peers[from..], &dsts[from..])
                .map(|(&peer, &dst)| (peer, dst))
                .collect();
            by_peer.sort_by_key(|edge| edge.0);
            let hub_id = env.global_of(row);
            let mut holders = hub_peers[hubs.range(row)].to_vec();
            for targets in by_peer.chunk_by(|a, b| a.0 == b.0) {
                let peer = targets[0].0;
                pending[peer as usize].push(hub_id, targets.iter().map(|edge| edge.1));
                holders.push(peer);
            }
            holders.sort_unstable();
            holders.dedup();
            if holders.len() > hubs.len_of(row) {
                let at = hub_peers.len();
                hub_peers.extend_from_slice(&holders);
                hubs.set(row, at..hub_peers.len());
            }
        });
    }

    /// Turn the superstep's broadcasts into per-peer traffic.
    fn route(&mut self) {
        for (src, m) in self.casts.drain(..) {
            let holders = &self.hub_peers[self.hubs.range(src)];
            if !holders.is_empty() {
                let src_id = self.env.global_of(src);
                for &peer in holders {
                    self.staged_ghost[peer as usize].push((src_id, m.clone()));
                }
                let holders = holders.len() as u64;
                self.mirrored += holders;
                self.saved += (self.degree[src as usize] as u64).saturating_sub(holders);
                continue;
            }
            let (peers, dsts, _) = self.out.row(src);
            for (peer, run) in peer_runs(peers) {
                self.staged_direct[peer].stage(&self.combine, &dsts[run], Vals::One(&m));
            }
        }
    }
}

impl<AV, M: Codec + Clone + Send> Channel<AV> for Mirror<M> {
    fn name(&self) -> &'static str {
        "mirror"
    }

    fn before_superstep(&mut self, _step: u64) {
        std::mem::swap(&mut self.readable, &mut self.incoming);
        self.incoming.clear();
    }

    fn serialize(&mut self, cx: &mut SerializeCx<'_>) {
        self.finalize();
        self.route();
        for peer in 0..self.staged_ghost.len() {
            let ghosts = &mut self.staged_ghost[peer];
            let directs = &mut self.staged_direct[peer];
            if ghosts.is_empty() && directs.is_empty() && self.pending[peer].hubs.is_empty() {
                continue;
            }
            // One-time: the shipped entries are dropped, not kept around.
            let tables = std::mem::take(&mut self.pending[peer]);
            self.messages += (ghosts.len() + directs.len()) as u64;
            let receiver_ids = self.env.topo.locals(peer);
            cx.frame(peer, |buf| {
                // Section 1: one-time mirror-table updates.
                tables.encode_section(buf);
                // Section 2: mirrored broadcasts.
                (ghosts.len() as u32).encode(buf);
                for (src, m) in ghosts.drain(..) {
                    src.encode(buf);
                    m.encode(buf);
                }
                // Section 3: direct (sender-combined) messages to the end,
                // in first-touch order.
                directs.drain(|dst_local, m| {
                    receiver_ids[dst_local as usize].encode(buf);
                    m.encode(buf);
                });
            });
        }
    }

    fn deserialize(&mut self, cx: &mut DeserializeCx<'_, AV>) {
        let Mirror {
            env,
            combine,
            ghosts,
            incoming,
            frame_dsts,
            frame_vals,
            woken,
            generation,
            ..
        } = self;
        let Slots { vals: acc, present } = incoming;
        for (_from, mut r) in cx.frames() {
            let table_count: u32 = r.get();
            *generation += u64::from(table_count > 0);
            for _ in 0..table_count {
                let hub: VertexId = r.get();
                let targets = r.get::<u32>();
                ghosts.extend(hub, (0..targets).map(|_| r.get::<u32>()));
            }
            ghosts.reindex();
            let ghost_count: u32 = r.get();
            for _ in 0..ghost_count {
                let src: VertexId = r.get();
                let m: M = r.get();
                combine.stage(acc, present, ghosts.targets_of(src), Vals::One(&m), woken);
            }
            frame_dsts.clear();
            frame_vals.clear();
            while !r.is_empty() {
                frame_dsts.push(env.local_of(r.get::<VertexId>()));
                frame_vals.push(r.get());
            }
            combine.stage(acc, present, frame_dsts, Vals::Each(frame_vals), woken);
        }
        // First arrivals are exactly the vertices to wake: `present` was
        // cleared at the superstep boundary and activation is idempotent.
        for local in woken.drain(..) {
            cx.activate(local);
        }
    }

    fn message_count(&self) -> u64 {
        self.messages
    }

    fn mirror_stats(&self) -> (u64, u64) {
        (self.mirrored, self.saved)
    }

    fn encode_state(&self, buf: &mut Vec<u8>) -> bool {
        // Staged registrations and broadcasts (empty at a superstep
        // boundary, where the engine snapshots; written so a snapshot is
        // sound wherever it is taken outside `serialize`), not-yet-shipped
        // table entries, the staged receive slots and the counters. The
        // routed per-peer stages are empty whenever `serialize` is not
        // running.
        self.staged.encode(buf);
        encode_vec(&self.casts, buf);
        for tables in &self.pending {
            encode_vec(&tables.hubs, buf);
            encode_vec(&tables.targets, buf);
        }
        self.incoming.encode(buf);
        self.messages.encode(buf);
        self.mirrored.encode(buf);
        self.saved.encode(buf);
        true
    }

    fn tables_generation(&self) -> u64 {
        self.generation
    }

    fn encode_tables(&self, buf: &mut Vec<u8>) {
        self.generation.encode(buf);
        encode_vec(&self.degree, buf);
        self.out.encode(buf);
        encode_vec(&self.hub_peers, buf);
        self.hubs.encode(buf);
        encode_vec(&self.ghosts.index, buf);
        encode_vec(&self.ghosts.targets, buf);
        self.ghosts.rows.encode(buf);
    }

    fn decode_tables(&mut self, r: &mut Reader<'_>) {
        let topo = &self.env.topo;
        let numv = self.env.local_count();
        let ok = |cond: bool, what: &str| check(cond, "mirror", what);
        self.generation = r.get();
        self.degree = r.get();
        ok(self.degree.len() == numv, "degree count");
        self.out = Adjacency::decode(r, numv, topo, "mirror");
        self.hub_peers = r.get();
        ok(
            self.hub_peers
                .iter()
                .all(|&p| (p as usize) < topo.workers()),
            "mirror holder",
        );
        self.hubs = Rows::decode(r, Some(numv), self.hub_peers.len(), "mirror");
        let index: Vec<(VertexId, u32)> = r.get();
        let targets: Vec<u32> = r.get();
        let rows = Rows::decode(r, None, targets.len(), "mirror");
        ok(
            index.is_sorted_by(|a, b| a.0 < b.0)
                && index.iter().all(|&(_, row)| (row as usize) < rows.count()),
            "ghost index",
        );
        ok(targets.iter().all(|&t| (t as usize) < numv), "ghost target");
        self.ghosts = GhostTables {
            indexed: index.len(),
            index,
            rows,
            targets,
        };
    }

    fn decode_state(&mut self, r: &mut Reader<'_>) {
        let topo = &self.env.topo;
        let numv = self.env.local_count();
        let ok = |cond: bool, what: &str| check(cond, "mirror", what);
        self.staged = Staged::decode(r, numv, topo.n(), "mirror");
        self.casts = r.get();
        ok(
            self.casts.iter().all(|&(src, _)| (src as usize) < numv),
            "broadcast source",
        );
        for (peer, tables) in self.pending.iter_mut().enumerate() {
            *tables = PendingTables {
                hubs: r.get(),
                targets: r.get(),
            };
            let mut begin = 0;
            ok(
                tables
                    .hubs
                    .iter()
                    .all(|&(_, end)| std::mem::replace(&mut begin, end) <= end)
                    && begin as usize == tables.targets.len(),
                "pending table runs",
            );
            ok(
                tables
                    .targets
                    .iter()
                    .all(|&t| (t as usize) < topo.local_count(peer)),
                "pending table target",
            );
        }
        self.incoming.decode(r, "mirror");
        self.messages = r.get();
        self.mirrored = r.get();
        self.saved = r.get();
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

    /// Broadcast ids for several supersteps; receivers keep the min.
    struct MirrorMin {
        g: Arc<Graph>,
        threshold: usize,
        rounds: u64,
    }
    impl Algorithm for MirrorMin {
        type Value = u32;
        type Channels = (Mirror<u32>,);
        fn channels(&self, env: &WorkerEnv) -> Self::Channels {
            (Mirror::new(env, Combine::min_u32(), self.threshold),)
        }
        fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u32, ch: &mut Self::Channels) {
            if v.step() == 1 {
                *value = u32::MAX;
                for &t in self.g.neighbors(v.id) {
                    ch.0.add_edge(v.local, t);
                }
            } else {
                *value = ch.0.get_or_identity(v.local).min(*value);
            }
            if v.step() <= self.rounds {
                ch.0.send_to_neighbors(v.local, v.id, v.id);
            } else {
                v.vote_to_halt();
            }
        }
    }

    fn oracle(g: &Graph) -> Vec<u32> {
        let mut expect = vec![u32::MAX; g.n()];
        for (u, v, ()) in g.arcs() {
            expect[v as usize] = expect[v as usize].min(u);
        }
        expect
    }

    #[test]
    fn mirror_matches_direct_semantics_at_any_threshold() {
        let g = Arc::new(gen::rmat(8, 2000, gen::RmatParams::default(), 31, true));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let expect = oracle(&g);
        for threshold in [1, 8, 64, usize::MAX] {
            for cfg in [Config::sequential(4), Config::with_workers(4)] {
                let algo = MirrorMin {
                    g: Arc::clone(&g),
                    threshold,
                    rounds: 1,
                };
                let out = run(&algo, &topo, &cfg);
                for (v, (&got, &want)) in out.values.iter().zip(&expect).enumerate() {
                    if want != u32::MAX {
                        assert_eq!(got, want, "v={v} threshold={threshold}");
                    }
                }
            }
        }
    }

    #[test]
    fn hub_broadcast_collapses_to_one_message_per_worker() {
        let g = Arc::new(gen::star(801));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let cfg = Config::sequential(4);
        let mirrored = run(
            &MirrorMin {
                g: Arc::clone(&g),
                threshold: 16,
                rounds: 3,
            },
            &topo,
            &cfg,
        );
        let direct = run(
            &MirrorMin {
                g: Arc::clone(&g),
                threshold: usize::MAX,
                rounds: 3,
            },
            &topo,
            &cfg,
        );
        assert_eq!(mirrored.values, direct.values);
        // Hub: ≤ 4 ghost messages per superstep instead of 800 pairs.
        assert!(
            mirrored.stats.messages() * 50 < direct.stats.messages(),
            "mirrored {} vs direct {}",
            mirrored.stats.messages(),
            direct.stats.messages()
        );
    }

    #[test]
    fn prewired_plan_matches_lazy_tables_and_ships_none() {
        let g = Arc::new(gen::star(801));
        let lazy_topo = Arc::new(Topology::hashed(g.n(), 4));
        let plan = pc_graph::partition::build_mirror_plan(&*g, &lazy_topo, 16);
        let wired_topo = Arc::new(Topology::hashed(g.n(), 4).with_mirror(Arc::new(plan)));
        let cfg = Config::sequential(4);
        let algo = || MirrorMin {
            g: Arc::clone(&g),
            threshold: 16,
            rounds: 3,
        };
        let lazy = run(&algo(), &lazy_topo, &cfg);
        let wired = run(&algo(), &wired_topo, &cfg);
        assert_eq!(lazy.values, wired.values);
        // Same broadcasts either way; the plan only removes the in-band
        // mirror-table shipment, so the wired run is strictly smaller.
        assert_eq!(lazy.stats.messages(), wired.stats.messages());
        assert!(
            wired.stats.total_bytes() < lazy.stats.total_bytes(),
            "wired {} vs lazy {}",
            wired.stats.total_bytes(),
            lazy.stats.total_bytes()
        );
        assert!(wired.stats.mirrored_msgs() > 0);
        assert!(wired.stats.mirror_saved() > 0);
        assert_eq!(lazy.stats.mirrored_msgs(), wired.stats.mirrored_msgs());
    }

    #[test]
    fn plan_threshold_overrides_the_constructor() {
        let g = Arc::new(gen::star(801));
        let base = Topology::hashed(g.n(), 4);
        let plan = pc_graph::partition::build_mirror_plan(&*g, &base, 16);
        let topo = Arc::new(base.with_mirror(Arc::new(plan)));
        // The algorithm asks for no mirroring at all; the shipped plan's
        // τ=16 wins, so the hub still broadcasts per worker.
        let out = run(
            &MirrorMin {
                g: Arc::clone(&g),
                threshold: usize::MAX,
                rounds: 3,
            },
            &topo,
            &Config::sequential(4),
        );
        assert!(out.stats.mirrored_msgs() > 0);
        let expect = oracle(&g);
        for (v, (&got, &want)) in out.values.iter().zip(&expect).enumerate() {
            if want != u32::MAX {
                assert_eq!(got, want, "v={v}");
            }
        }
    }

    #[test]
    fn mirror_tables_ship_once() {
        let g = Arc::new(gen::star(801));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let cfg = Config::sequential(4);
        let short = run(
            &MirrorMin {
                g: Arc::clone(&g),
                threshold: 4,
                rounds: 1,
            },
            &topo,
            &cfg,
        );
        let long = run(
            &MirrorMin {
                g: Arc::clone(&g),
                threshold: 4,
                rounds: 11,
            },
            &topo,
            &cfg,
        );
        // The table shipment is one-time: 10 extra supersteps of hub
        // broadcast cost far less than 10× the first.
        let extra = (long.stats.total_bytes() - short.stats.total_bytes()) as f64 / 10.0;
        assert!(
            extra < 0.2 * short.stats.total_bytes() as f64,
            "per-superstep cost {extra} vs first {}",
            short.stats.total_bytes()
        );
    }

    // ---- the channel driven by hand: linearity, late registration, state ----

    use crate::optimized::testkit::Cluster;

    /// A min-`u32` Mirror per worker over `g`'s hashed placement, plus the
    /// edges registered so far (the oracle's input).
    struct MinCluster {
        c: Cluster<Mirror<u32>>,
        edges: Vec<(u32, u32)>,
    }

    impl MinCluster {
        fn new(n: usize, workers: usize, threshold: usize) -> Self {
            MinCluster {
                c: Cluster::new(Topology::hashed(n, workers), |env| {
                    Mirror::new(env, Combine::min_u32(), threshold)
                }),
                edges: Vec::new(),
            }
        }

        fn at(&mut self, v: u32) -> (&mut Mirror<u32>, u32) {
            let (w, local) = (self.c.topo.worker_of(v), self.c.topo.local_of(v));
            (&mut self.c.chans[w], local)
        }

        fn register(&mut self, src: u32, dsts: &[u32]) {
            self.edges.extend(dsts.iter().map(|&d| (src, d)));
            let (ch, local) = self.at(src);
            ch.add_edges(local, dsts);
        }

        /// Everyone broadcasts its id; returns what everyone gathered,
        /// checked against the per-edge oracle.
        fn broadcast_all(&mut self) {
            for v in 0..self.c.topo.n() as u32 {
                let (ch, local) = self.at(v);
                ch.send_to_neighbors(local, v, v);
            }
            self.c.exchange();
            let mut expect = vec![None; self.c.topo.n()];
            for &(src, dst) in &self.edges {
                let e: &mut Option<u32> = &mut expect[dst as usize];
                *e = Some(e.map_or(src, |m| m.min(src)));
            }
            for v in 0..self.c.topo.n() as u32 {
                let (ch, local) = self.at(v);
                assert_eq!(ch.get_message(local).copied(), expect[v as usize], "v={v}");
            }
        }

        fn rows_examined(&self) -> u64 {
            self.c.chans.iter().map(|ch| ch.rows_examined).sum()
        }

        /// `(hub, holder)` pairs the receivers hold tables for.
        fn tables_held(&self) -> usize {
            self.c.chans.iter().map(|ch| ch.ghosts.index.len()).sum()
        }

        /// `(hub, holder)` pairs the owners broadcast to.
        fn holders(&self) -> usize {
            self.c.chans.iter().map(|ch| ch.hub_peers.len()).sum()
        }
    }

    /// The linearity guard. Every vertex registers its row and broadcasts
    /// in the same superstep (the PageRank-mirror shape that used to
    /// rescan every local vertex per broadcast): `finalize` examines the
    /// rows that gained edges, once each — not rows × broadcasts. Later
    /// supersteps that register nothing examine nothing; a late
    /// registration examines the rows it touches, merges into the table,
    /// and ships in-band tables exactly once per new hub.
    #[test]
    fn finalize_examines_only_the_rows_that_gained_edges() {
        let g = gen::rmat(8, 3000, gen::RmatParams::default(), 7, true);
        let mut m = MinCluster::new(g.n(), 3, 12);
        let mut touched = 0;
        for v in g.vertices() {
            m.register(v, g.neighbors(v));
            touched += u64::from(g.degree(v) > 0);
        }
        m.broadcast_all();
        assert_eq!(m.rows_examined(), touched);
        assert!(touched <= m.edges.len() as u64 && touched < g.n() as u64);
        let hubs = g.vertices().filter(|&v| g.degree(v) >= 12).count();
        assert!(hubs > 4 && m.holders() >= hubs, "hubs {hubs}");
        assert_eq!(m.tables_held(), m.holders());
        let first = m.c.bytes.total();
        m.broadcast_all();
        m.broadcast_all();
        assert_eq!(
            m.rows_examined(),
            touched,
            "nothing staged, nothing examined"
        );
        assert_eq!(m.tables_held(), m.holders());
        let steady = (m.c.bytes.total() - first) / 2;
        assert!(steady < first, "tables shipped once: {steady} vs {first}");

        // Late: a hub gains edges (its tables grow by them), a low-degree
        // vertex crosses τ (its whole row ships), one stays direct.
        let by_degree = |want: &dyn Fn(usize) -> bool| {
            g.vertices()
                .find(|&v| want(g.degree(v)))
                .expect("such a vertex")
        };
        let (hub, riser, low) = (
            by_degree(&|d| d >= 12),
            by_degree(&|d| (6..12).contains(&d)),
            by_degree(&|d| d == 1),
        );
        let holders_before = m.holders();
        m.register(hub, &[3, 4, 5, 250, 251]);
        m.register(riser, &[9, 8, 7, 6, 5, 4, 3]);
        m.register(low, &[200]);
        m.broadcast_all();
        assert_eq!(m.rows_examined(), touched + 3);
        assert!(m.holders() > holders_before, "the riser became a hub");
        assert_eq!(m.tables_held(), m.holders());
        m.broadcast_all();
        assert_eq!(m.rows_examined(), touched + 3);
    }

    /// Registration split over single-edge calls, out of row order and
    /// around a broadcast behaves like one row call: the broadcast reaches
    /// every edge registered by the end of the superstep.
    #[test]
    fn single_edge_calls_share_the_staged_path() {
        let mut m = MinCluster::new(12, 2, 3);
        for (src, dst) in [(5, 1), (2, 9), (5, 2), (2, 1), (5, 3)] {
            m.edges.push((src, dst));
            let (ch, local) = m.at(src);
            ch.add_edge(local, dst);
        }
        let (ch, local) = m.at(5);
        ch.send_to_neighbors(local, 5, 5);
        m.register(5, &[4]);
        m.c.exchange();
        for (v, want) in [
            (1, Some(5)),
            (2, Some(5)),
            (3, Some(5)),
            (4, Some(5)),
            (9, None),
        ] {
            let (ch, local) = m.at(v);
            assert_eq!(ch.get_message(local).copied(), want, "v={v}");
        }
        assert_eq!(m.rows_examined(), 2, "rows 2 and 5, once each");
        assert_eq!(m.holders(), m.tables_held());
        assert!(m.holders() >= 1, "5 registered 4 ≥ τ edges: a hub");
    }

    /// The tables contract: the generation moves with a registration and
    /// with a table section received in-band — here on workers that
    /// register nothing themselves — and not with broadcasts alone.
    #[test]
    fn the_generation_moves_with_the_tables_only() {
        let mut m = MinCluster::new(8, 2, 1);
        let generations = |m: &MinCluster| -> Vec<u64> {
            let chans = m.c.chans.iter();
            chans.map(Channel::<()>::tables_generation).collect()
        };
        assert_eq!(generations(&m), [0, 0]);
        m.register(0, &[1, 2, 3, 4, 5, 6, 7]);
        m.broadcast_all();
        let after = generations(&m);
        let owner = m.c.topo.worker_of(0);
        assert!(after[owner] > 0, "registered: {after:?}");
        assert!(after[1 - owner] > 0, "received tables only: {after:?}");
        m.broadcast_all();
        assert_eq!(generations(&m), after, "broadcasts alone");
    }

    #[test]
    #[should_panic(expected = "corrupt mirror channel state: adjacency target")]
    fn restored_tables_must_point_at_vertices_that_exist() {
        let make = |env: &WorkerEnv| Mirror::new(env, Combine::min_u32(), 8);
        let mut big = Cluster::new(Topology::from_owners(2, vec![0, 0, 1, 1, 1]), make);
        big.chans[0].add_edges(0, &[4]);
        big.exchange();
        let mut tables = Vec::new();
        Channel::<()>::encode_tables(&big.chans[0], &mut tables);
        // Same two vertices here, but the peer the edge points into is
        // two vertices short.
        let mut small = Cluster::new(Topology::from_owners(2, vec![0, 0, 1]), make);
        Channel::<()>::decode_tables(&mut small.chans[0], &mut Reader::new(&tables));
    }
}
