//! The Shiloach-Vishkin connected-components algorithm (§III-C) — the
//! paper's headline example for **composing** optimizations.
//!
//! S-V maintains a distributed disjoint-set: every vertex points at `D[u]`
//! (itself if it is a root). Each round (four supersteps here):
//!
//! * **P0** — every vertex asks its parent for the grandparent `D[D[u]]`
//!   (the *request-respond* pattern; high-degree parents make the naive
//!   version imbalanced);
//! * **P1** — parents answer; every vertex broadcasts `D[u]` to all its
//!   neighbors regardless of state (the *static messaging* pattern; heavy
//!   neighborhood traffic);
//! * **P2** — vertices whose parent is a root propose `t = min` of the
//!   neighbours' pointers to the root (a congestion-prone min-update);
//!   others pointer-jump `D[u] ← D[D[u]]`;
//! * **P3** — roots fold the proposals (`D[r] ← min(t)`); a boolean OR
//!   aggregator detects the fixpoint.
//!
//! The three communication patterns map to three channels, and the paper's
//! point is that each can be *independently* optimized: the grandparent
//! query by [`RequestRespond`], the broadcast by [`ScatterCombine`], and
//! the min-update stays a [`CombinedMessage`]. The four `channel_*`
//! constructors below cover the 2×2 composition grid of Table VI; the two
//! `pregel_*` functions are the monolithic baselines.

use pc_bsp::{Config, RunStats, Topology};
use pc_channels::channel::{Channel, VertexCtx, WorkerEnv};
use pc_channels::engine::{run, Algorithm};
use pc_channels::{
    Aggregator, Combine, CombinedMessage, DirectMessage, RequestRespond, ScatterCombine,
};
use pc_graph::{Graph, VertexId};
use pc_pregel::{run_pregel, PregelOptions, PregelProgram, PregelVertex};
use std::sync::Arc;

/// Result of an S-V run.
#[derive(Debug, Clone)]
pub struct SvOutput {
    /// Component label per vertex (= min vertex id in the component).
    pub labels: Vec<VertexId>,
    /// Run statistics.
    pub stats: RunStats,
}

/// Per-vertex S-V state.
#[derive(Debug, Clone, Default)]
pub struct SvValue {
    /// The disjoint-set pointer `D[u]`.
    pub d: VertexId,
    /// Grandparent received this round (reqresp variants stash it at P1).
    gp: VertexId,
    /// Whether `D[u]` changed this round.
    changed: bool,
}

impl pc_bsp::Codec for SvValue {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.d.encode(buf);
        self.gp.encode(buf);
        self.changed.encode(buf);
    }
    fn decode(r: &mut pc_bsp::Reader<'_>) -> Self {
        SvValue {
            d: r.get(),
            gp: r.get(),
            changed: r.get(),
        }
    }
}

/// Round phase from the 1-based superstep number.
fn phase(step: u64) -> u64 {
    (step - 1) % 4
}

/// How the grandparent query is communicated (P0 ask → P2 read).
trait GpQuery: Send + Sync + 'static {
    /// The channel carrying the conversation.
    type Ch: Channel<SvValue>;
    fn make(env: &WorkerEnv) -> Self::Ch;
    /// P0: ask `d` for its pointer.
    fn ask(ch: &mut Self::Ch, v: &VertexCtx<'_>, d: VertexId);
    /// P1: serve queries (basic) or stash the response (reqresp).
    fn p1(ch: &mut Self::Ch, v: &VertexCtx<'_>, value: &mut SvValue);
    /// P2: the grandparent.
    fn gp(ch: &Self::Ch, v: &VertexCtx<'_>, value: &SvValue) -> VertexId;
}

/// Basic grandparent query: explicit ask/reply messages over one
/// `DirectMessage` channel (asks travel P0→P1, replies P1→P2; the phases
/// never overlap on the wire).
struct BasicQuery;

impl GpQuery for BasicQuery {
    type Ch = DirectMessage<u32>;

    fn make(env: &WorkerEnv) -> Self::Ch {
        DirectMessage::new(env)
    }

    fn ask(ch: &mut Self::Ch, v: &VertexCtx<'_>, d: VertexId) {
        ch.send_message(d, v.id);
    }

    fn p1(ch: &mut Self::Ch, v: &VertexCtx<'_>, value: &mut SvValue) {
        // Reply individually to every asker: the load imbalance the
        // request-respond channel eliminates.
        let d = value.d;
        for i in 0..ch.messages(v.local).len() {
            let asker = ch.messages(v.local)[i];
            ch.send_message(asker, d);
        }
    }

    fn gp(ch: &Self::Ch, v: &VertexCtx<'_>, value: &SvValue) -> VertexId {
        ch.messages(v.local).first().copied().unwrap_or(value.d)
    }
}

/// Optimized grandparent query over the request-respond channel.
struct OptQuery;

impl GpQuery for OptQuery {
    type Ch = RequestRespond<SvValue, u32>;

    fn make(env: &WorkerEnv) -> Self::Ch {
        RequestRespond::new(env, |value: &SvValue| value.d)
    }

    fn ask(ch: &mut Self::Ch, _v: &VertexCtx<'_>, d: VertexId) {
        ch.add_request(d);
    }

    fn p1(ch: &mut Self::Ch, _v: &VertexCtx<'_>, value: &mut SvValue) {
        value.gp = ch.get_respond(value.d).copied().unwrap_or(value.d);
    }

    fn gp(_ch: &Self::Ch, _v: &VertexCtx<'_>, value: &SvValue) -> VertexId {
        value.gp
    }
}

/// How the neighborhood pointer broadcast is communicated (P1 → P2).
trait NbrBcast: Send + Sync + 'static {
    /// The channel carrying the broadcast.
    type Ch: Channel<SvValue>;
    fn make(env: &WorkerEnv) -> Self::Ch;
    /// Step 1: register static routes if the channel supports it.
    fn init(ch: &mut Self::Ch, v: &VertexCtx<'_>, nbrs: &[VertexId]);
    /// P1: broadcast `d` to all neighbors.
    fn send(ch: &mut Self::Ch, v: &VertexCtx<'_>, d: VertexId, nbrs: &[VertexId]);
    /// P2: minimum of the neighbours' pointers.
    fn min(ch: &Self::Ch, v: &VertexCtx<'_>) -> VertexId;
}

/// Basic broadcast: one combined message per edge.
struct BasicBcast;

impl NbrBcast for BasicBcast {
    type Ch = CombinedMessage<u32>;

    fn make(env: &WorkerEnv) -> Self::Ch {
        CombinedMessage::new(env, Combine::min_u32())
    }

    fn init(_ch: &mut Self::Ch, _v: &VertexCtx<'_>, _nbrs: &[VertexId]) {}

    fn send(ch: &mut Self::Ch, _v: &VertexCtx<'_>, d: VertexId, nbrs: &[VertexId]) {
        for &t in nbrs {
            ch.send_message(t, d);
        }
    }

    fn min(ch: &Self::Ch, v: &VertexCtx<'_>) -> VertexId {
        ch.get_or_identity(v.local)
    }
}

/// Optimized broadcast: the scatter-combine channel (routes pre-sorted at
/// step 1, ids transmitted once, linear-scan combining).
struct OptBcast;

impl NbrBcast for OptBcast {
    type Ch = ScatterCombine<u32>;

    fn make(env: &WorkerEnv) -> Self::Ch {
        ScatterCombine::new(env, Combine::min_u32())
    }

    fn init(ch: &mut Self::Ch, v: &VertexCtx<'_>, nbrs: &[VertexId]) {
        ch.add_edges(v.local, nbrs);
    }

    fn send(ch: &mut Self::Ch, v: &VertexCtx<'_>, d: VertexId, _nbrs: &[VertexId]) {
        ch.set_message(v.local, d);
    }

    fn min(ch: &Self::Ch, v: &VertexCtx<'_>) -> VertexId {
        ch.get_or_identity(v.local)
    }
}

/// The S-V program, generic over the two optimization choice points.
struct Sv<Q, B> {
    g: Arc<Graph>,
    _q: std::marker::PhantomData<Q>,
    _b: std::marker::PhantomData<B>,
}

impl<Q, B> Sv<Q, B> {
    fn new(g: &Arc<Graph>) -> Self {
        Sv {
            g: Arc::clone(g),
            _q: std::marker::PhantomData,
            _b: std::marker::PhantomData,
        }
    }
}

impl<Q: GpQuery, B: NbrBcast> Algorithm for Sv<Q, B> {
    type Value = SvValue;
    type Channels = (Q::Ch, B::Ch, CombinedMessage<u32>, Aggregator<bool>);
    pc_channels::dist_value_via_codec!();

    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (
            Q::make(env),
            B::make(env),
            CombinedMessage::new(env, Combine::min_u32()),
            Aggregator::new(env, Combine::or()),
        )
    }

    fn compute(&self, v: &mut VertexCtx<'_>, value: &mut SvValue, ch: &mut Self::Channels) {
        let (q, b, min_update, agg) = ch;
        match phase(v.step()) {
            0 => {
                if v.step() == 1 {
                    value.d = v.id;
                    B::init(b, v, self.g.neighbors(v.id));
                } else if !*agg.result() {
                    // No pointer changed in the previous round: fix[D].
                    v.vote_to_halt();
                    return;
                }
                value.changed = false;
                Q::ask(q, v, value.d);
            }
            1 => {
                Q::p1(q, v, value);
                B::send(b, v, value.d, self.g.neighbors(v.id));
            }
            2 => {
                let gp = Q::gp(q, v, value);
                let t = B::min(b, v);
                if gp == value.d {
                    // Parent is a root: propose the smallest neighbour
                    // pointer to it (tree merging).
                    if t < value.d {
                        min_update.send_message(value.d, t);
                    }
                } else {
                    // Pointer jumping (path compression).
                    value.d = gp;
                    value.changed = true;
                }
            }
            _ => {
                if let Some(&t) = min_update.get_message(v.local) {
                    if t < value.d {
                        value.d = t;
                        value.changed = true;
                    }
                }
                agg.add(value.changed);
            }
        }
    }
}

fn run_sv<Q: GpQuery, B: NbrBcast>(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config) -> SvOutput {
    let out = run(&Sv::<Q, B>::new(g), topo, cfg);
    SvOutput {
        labels: out.values.into_iter().map(|x| x.d).collect(),
        stats: out.stats,
    }
}

/// Program 2 of Table VI: standard channels only.
pub fn channel_basic(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config) -> SvOutput {
    run_sv::<BasicQuery, BasicBcast>(g, topo, cfg)
}

/// Program 3: request-respond channel for the grandparent query.
pub fn channel_reqresp(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config) -> SvOutput {
    run_sv::<OptQuery, BasicBcast>(g, topo, cfg)
}

/// Program 4: scatter-combine channel for the neighborhood broadcast.
pub fn channel_scatter(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config) -> SvOutput {
    run_sv::<BasicQuery, OptBcast>(g, topo, cfg)
}

/// Program 5: both optimizations composed — the paper's headline result.
pub fn channel_both(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config) -> SvOutput {
    run_sv::<OptQuery, OptBcast>(g, topo, cfg)
}

/// Message tags for the monolithic baseline (asks, replies, broadcasts and
/// min-updates share one type — §II-B's "type large enough to carry all
/// those message values").
const TAG_ASK: u8 = 0;
const TAG_REPLY: u8 = 1;
const TAG_BCAST: u8 = 2;
const TAG_MIN: u8 = 3;

/// Pregel+ S-V. In basic mode everything rides one tagged message type and
/// **no combiner applies** (asks/replies are not combinable), so the
/// neighborhood broadcast goes uncombined — the message blowup of Table IV.
/// In reqresp mode the queries leave the message type; what remains (bcast
/// + min-updates) is min-combinable, so the global combiner comes back.
struct SvPregel {
    g: Arc<Graph>,
    reqresp: bool,
}

#[derive(Debug, Clone, Default)]
struct SvPregelValue {
    d: VertexId,
    gp: VertexId,
    t: VertexId,
    changed: bool,
}

impl PregelProgram for SvPregel {
    type Value = SvPregelValue;
    type Msg = (u8, u32);
    type Agg = bool;
    type Resp = u32;

    fn combiner(&self) -> Option<Combine<(u8, u32)>> {
        if self.reqresp {
            // Only TAG_BCAST / TAG_MIN remain; min over the value combines
            // both (tags merge to the max tag — bcast and min never mix in
            // one superstep's inbox, so the tag survives correctly).
            Some(Combine::new((0u8, u32::MAX), |acc, m| {
                acc.0 = acc.0.max(m.0);
                acc.1 = acc.1.min(m.1);
            }))
        } else {
            None
        }
    }

    fn aggregator(&self) -> Option<Combine<bool>> {
        Some(Combine::or())
    }

    fn respond(&self, value: &SvPregelValue) -> Result<u32, pc_pregel::ProgramError> {
        Ok(value.d)
    }

    fn compute(&self, v: &mut PregelVertex<'_, '_, Self>) {
        match phase(v.step()) {
            0 => {
                if v.step() == 1 {
                    v.value_mut().d = v.id();
                } else if !*v.agg_result() {
                    v.vote_to_halt();
                    return;
                }
                v.value_mut().changed = false;
                let d = v.value().d;
                if self.reqresp {
                    v.request(d);
                } else {
                    let id = v.id();
                    v.send_message(d, (TAG_ASK, id));
                }
            }
            1 => {
                if self.reqresp {
                    let d = v.value().d;
                    v.value_mut().gp = v.get_resp(d).copied().unwrap_or(d);
                } else {
                    let d = v.value().d;
                    let askers: Vec<u32> = v
                        .messages()
                        .iter()
                        .filter(|(tag, _)| *tag == TAG_ASK)
                        .map(|&(_, id)| id)
                        .collect();
                    for asker in askers {
                        v.send_message(asker, (TAG_REPLY, d));
                    }
                }
                let d = v.value().d;
                let id = v.id();
                for i in 0..self.g.degree(id) {
                    let t = self.g.neighbors(id)[i];
                    v.send_message(t, (TAG_BCAST, d));
                }
            }
            2 => {
                let mut gp = v.value().gp;
                let mut t = u32::MAX;
                for &(tag, val) in v.messages() {
                    match tag {
                        TAG_REPLY => gp = val,
                        TAG_BCAST => t = t.min(val),
                        _ => {}
                    }
                }
                if !self.reqresp {
                    // Replies may be absent for roots asking themselves in
                    // degenerate cases; default to d.
                    if !v.messages().iter().any(|(tag, _)| *tag == TAG_REPLY) {
                        gp = v.value().d;
                    }
                }
                v.value_mut().t = t;
                let d = v.value().d;
                if gp == d {
                    if t < d {
                        v.send_message(d, (TAG_MIN, t));
                    }
                } else {
                    v.value_mut().d = gp;
                    v.value_mut().changed = true;
                }
            }
            _ => {
                let best = v
                    .messages()
                    .iter()
                    .filter(|(tag, _)| *tag == TAG_MIN)
                    .map(|&(_, t)| t)
                    .min();
                if let Some(t) = best {
                    if t < v.value().d {
                        v.value_mut().d = t;
                        v.value_mut().changed = true;
                    }
                }
                let changed = v.value().changed;
                v.aggregate(changed);
            }
        }
    }
}

/// Program 1 of Table VI (variant): Pregel+ basic mode.
pub fn pregel_basic(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config) -> SvOutput {
    let prog = Arc::new(SvPregel {
        g: Arc::clone(g),
        reqresp: false,
    });
    let out = run_pregel(prog, topo, cfg, PregelOptions::default());
    SvOutput {
        labels: out.values.into_iter().map(|x| x.d).collect(),
        stats: out.stats,
    }
}

/// Program 1 of Table VI: Pregel+ reqresp mode.
pub fn pregel_reqresp(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config) -> SvOutput {
    let prog = Arc::new(SvPregel {
        g: Arc::clone(g),
        reqresp: true,
    });
    let out = run_pregel(prog, topo, cfg, PregelOptions::default());
    SvOutput {
        labels: out.values.into_iter().map(|x| x.d).collect(),
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_graph::{gen, reference};

    fn check_all(g: Arc<Graph>, workers: usize) {
        let expect = reference::connected_components(&g);
        let topo = Arc::new(Topology::hashed(g.n(), workers));
        let cfg = Config::sequential(workers);
        assert_eq!(channel_basic(&g, &topo, &cfg).labels, expect, "basic");
        assert_eq!(channel_reqresp(&g, &topo, &cfg).labels, expect, "reqresp");
        assert_eq!(channel_scatter(&g, &topo, &cfg).labels, expect, "scatter");
        assert_eq!(channel_both(&g, &topo, &cfg).labels, expect, "both");
        assert_eq!(pregel_basic(&g, &topo, &cfg).labels, expect, "pregel basic");
        assert_eq!(
            pregel_reqresp(&g, &topo, &cfg).labels,
            expect,
            "pregel reqresp"
        );
    }

    #[test]
    fn sparse_components() {
        check_all(
            Arc::new(gen::rmat(9, 1200, gen::RmatParams::default(), 2, false)),
            4,
        );
    }

    #[test]
    fn dense_single_component() {
        check_all(
            Arc::new(gen::rmat(7, 4000, gen::RmatParams::default(), 5, false)),
            4,
        );
    }

    #[test]
    fn chain_and_star_and_cycle() {
        check_all(Arc::new(gen::chain(300)), 3);
        check_all(Arc::new(gen::star(200)), 3);
        check_all(Arc::new(gen::cycle(128)), 3);
    }

    #[test]
    fn isolated_vertices_keep_their_ids() {
        let g = Arc::new(Graph::from_edges(10, &[(2, 3)], false));
        let topo = Arc::new(Topology::hashed(10, 2));
        let out = channel_both(&g, &topo, &Config::sequential(2));
        let expect = vec![0, 1, 2, 2, 4, 5, 6, 7, 8, 9];
        assert_eq!(out.labels, expect);
    }

    #[test]
    fn logarithmic_rounds_on_chain() {
        let g = Arc::new(gen::chain(4096));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let out = channel_both(&g, &topo, &Config::sequential(4));
        // 4 supersteps per round, O(log n) rounds.
        let rounds = out.stats.supersteps / 4;
        assert!(rounds <= 30, "rounds = {rounds}");
    }

    #[test]
    fn composition_saves_the_most_bytes() {
        let g = Arc::new(gen::rmat(9, 8000, gen::RmatParams::default(), 6, false));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let cfg = Config::sequential(4);
        let basic = channel_basic(&g, &topo, &cfg);
        let both = channel_both(&g, &topo, &cfg);
        assert!(
            both.stats.remote_bytes() < basic.stats.remote_bytes(),
            "both {} vs basic {}",
            both.stats.remote_bytes(),
            basic.stats.remote_bytes()
        );
    }

    #[test]
    fn pregel_basic_pays_for_missing_combiner_on_dense_graphs() {
        let g = Arc::new(gen::rmat(8, 8000, gen::RmatParams::default(), 4, false));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let cfg = Config::sequential(4);
        let pregel = pregel_basic(&g, &topo, &cfg);
        let channel = channel_basic(&g, &topo, &cfg);
        assert!(
            channel.stats.remote_bytes() < pregel.stats.remote_bytes(),
            "channel {} vs pregel {}",
            channel.stats.remote_bytes(),
            pregel.stats.remote_bytes()
        );
    }

    #[test]
    fn threaded_matches_sequential() {
        let g = Arc::new(gen::rmat(8, 2000, gen::RmatParams::default(), 12, false));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let a = channel_both(&g, &topo, &Config::sequential(4));
        let b = channel_both(&g, &topo, &Config::with_workers(4));
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.stats.supersteps, b.stats.supersteps);
    }
}
