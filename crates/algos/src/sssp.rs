//! Single-Source Shortest Paths — one of the paper's motivating kernels
//! (§I). Classic Bellman-Ford-style relaxation: active vertices push
//! improved distances along weighted out-edges; a min combiner merges
//! offers per destination.
//!
//! SSSP's messaging is *not* static (only improved vertices send), so the
//! scatter-combine channel is deliberately not applicable — the paper makes
//! the same observation in §IV-C1's footnote. The basic variants use plain
//! combined messages; [`channel_propagation`] exercises the *full*
//! propagation model (Fig. 7 with edge values, `aᵢ = f(eᵢ, vᵢ)`):
//! distances relax asynchronously within each worker and the whole
//! computation converges inside one superstep.

use pc_bsp::{Config, RunStats, Topology};
use pc_channels::channel::{VertexCtx, WorkerEnv};
use pc_channels::engine::{run, Algorithm};
use pc_channels::{Combine, CombinedMessage, Propagation};
use pc_graph::{VertexId, WeightedGraph};
use pc_pregel::{run_pregel, PregelOptions, PregelProgram, PregelVertex};
use std::sync::Arc;

/// Result of an SSSP run.
#[derive(Debug, Clone)]
pub struct SsspOutput {
    /// Distance from the source per vertex (`u64::MAX` if unreachable).
    pub dist: Vec<u64>,
    /// Run statistics.
    pub stats: RunStats,
}

/// Unreached marker.
pub const UNREACHED: u64 = u64::MAX;

struct SsspBasic {
    g: Arc<WeightedGraph>,
    src: VertexId,
}

/// Per-vertex state: current distance (`UNREACHED` initially).
#[derive(Debug, Clone)]
struct Dist(u64);

impl Default for Dist {
    fn default() -> Self {
        Dist(UNREACHED)
    }
}

impl pc_bsp::Codec for Dist {
    fn encode(&self, buf: &mut Vec<u8>) {
        pc_bsp::Codec::encode(&self.0, buf)
    }
    fn decode(r: &mut pc_bsp::Reader<'_>) -> Self {
        Dist(r.get())
    }
}

impl Algorithm for SsspBasic {
    type Value = Dist;
    type Channels = (CombinedMessage<u64>,);
    pc_channels::dist_value_via_codec!();

    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (CombinedMessage::new(env, Combine::min_u64()),)
    }

    fn compute(&self, v: &mut VertexCtx<'_>, value: &mut Dist, ch: &mut Self::Channels) {
        let improved = if v.step() == 1 {
            if v.id == self.src {
                value.0 = 0;
                true
            } else {
                false
            }
        } else {
            match ch.0.get_message(v.local) {
                Some(&m) if m < value.0 => {
                    value.0 = m;
                    true
                }
                _ => false,
            }
        };
        if improved {
            for (t, w) in self.g.neighbors_weighted(v.id) {
                ch.0.send_message(t, value.0 + w as u64);
            }
        }
        v.vote_to_halt();
    }
}

struct SsspPregel {
    g: Arc<WeightedGraph>,
    src: VertexId,
}

impl PregelProgram for SsspPregel {
    type Value = u64;
    type Msg = u64;
    type Agg = u8;
    type Resp = u8;

    fn combiner(&self) -> Option<Combine<u64>> {
        Some(Combine::min_u64())
    }

    fn compute(&self, v: &mut PregelVertex<'_, '_, Self>) {
        if v.step() == 1 {
            *v.value_mut() = UNREACHED;
        }
        let improved = if v.step() == 1 {
            if v.id() == self.src {
                *v.value_mut() = 0;
                true
            } else {
                false
            }
        } else {
            let cur = *v.value();
            match v.messages().first() {
                Some(&m) if m < cur => {
                    *v.value_mut() = m;
                    true
                }
                _ => false,
            }
        };
        if improved {
            let d = *v.value();
            let id = v.id();
            for i in 0..self.g.degree(id) {
                let (t, w) = (self.g.neighbors(id)[i], self.g.weights(id)[i]);
                v.send_message(t, d + w as u64);
            }
        }
        v.vote_to_halt();
    }
}

/// Asynchronous SSSP over the full (edge-valued) propagation model:
/// `f(w, d) = d + w` with a `min` combiner. Converges in two supersteps
/// regardless of the distance-graph depth.
struct SsspProp {
    g: Arc<WeightedGraph>,
    src: VertexId,
}

impl Algorithm for SsspProp {
    type Value = Dist;
    type Channels = (Propagation<u64, u32>,);
    pc_channels::dist_value_via_codec!();

    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (Propagation::weighted(
            env,
            Combine::min_u64(),
            |w: &u32, d: &u64| d.saturating_add(*w as u64),
        ),)
    }

    fn compute(&self, v: &mut VertexCtx<'_>, value: &mut Dist, ch: &mut Self::Channels) {
        if v.step() == 1 {
            ch.0.add_weighted_edges(v.local, self.g.neighbors(v.id), self.g.weights(v.id));
            if v.id == self.src {
                ch.0.set_value(v.local, 0);
            }
        } else {
            value.0 = *ch.0.get_value(v.local);
            v.vote_to_halt();
        }
    }
}

/// Channel SSSP (combined-message relaxation).
pub fn channel_basic(
    g: &Arc<WeightedGraph>,
    topo: &Arc<Topology>,
    cfg: &Config,
    src: VertexId,
) -> SsspOutput {
    let out = run(
        &SsspBasic {
            g: Arc::clone(g),
            src,
        },
        topo,
        cfg,
    );
    SsspOutput {
        dist: out.values.into_iter().map(|d| d.0).collect(),
        stats: out.stats,
    }
}

/// Channel SSSP over the full propagation model (asynchronous
/// intra-worker relaxation; an extension the paper's simplified Table II
/// API leaves implicit).
pub fn channel_propagation(
    g: &Arc<WeightedGraph>,
    topo: &Arc<Topology>,
    cfg: &Config,
    src: VertexId,
) -> SsspOutput {
    let out = run(
        &SsspProp {
            g: Arc::clone(g),
            src,
        },
        topo,
        cfg,
    );
    SsspOutput {
        dist: out.values.into_iter().map(|d| d.0).collect(),
        stats: out.stats,
    }
}

/// Pregel+ SSSP.
pub fn pregel_basic(
    g: &Arc<WeightedGraph>,
    topo: &Arc<Topology>,
    cfg: &Config,
    src: VertexId,
) -> SsspOutput {
    let prog = Arc::new(SsspPregel {
        g: Arc::clone(g),
        src,
    });
    let out = run_pregel(prog, topo, cfg, PregelOptions::default());
    SsspOutput {
        dist: out.values,
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_graph::{gen, reference};

    fn oracle(g: &WeightedGraph, src: VertexId) -> Vec<u64> {
        reference::sssp(g, src)
            .into_iter()
            .map(|d| d.unwrap_or(UNREACHED))
            .collect()
    }

    fn check_all(g: Arc<WeightedGraph>, src: VertexId, workers: usize) {
        let expect = oracle(&g, src);
        let topo = Arc::new(Topology::hashed(g.n(), workers));
        let cfg = Config::sequential(workers);
        assert_eq!(channel_basic(&g, &topo, &cfg, src).dist, expect, "channel");
        assert_eq!(
            channel_propagation(&g, &topo, &cfg, src).dist,
            expect,
            "prop"
        );
        assert_eq!(pregel_basic(&g, &topo, &cfg, src).dist, expect, "pregel");
    }

    #[test]
    fn propagation_collapses_supersteps_on_long_paths() {
        // A weighted chain: message passing needs one superstep per hop.
        let edges: Vec<(u32, u32, u32)> = (0..999).map(|i| (i, i + 1, 2)).collect();
        let g = Arc::new(WeightedGraph::from_weighted_edges(1000, &edges, false));
        let topo = Arc::new(Topology::blocked(g.n(), 4));
        let cfg = Config::sequential(4);
        let basic = channel_basic(&g, &topo, &cfg, 0);
        let prop = channel_propagation(&g, &topo, &cfg, 0);
        assert_eq!(basic.dist, prop.dist);
        assert_eq!(prop.stats.supersteps, 2);
        assert!(
            basic.stats.supersteps > 500,
            "basic = {}",
            basic.stats.supersteps
        );
    }

    #[test]
    fn weighted_rmat_distances() {
        let g = Arc::new(gen::rmat_weighted(
            9,
            3000,
            gen::RmatParams::default(),
            5,
            true,
            100,
        ));
        check_all(g, 0, 4);
    }

    #[test]
    fn road_like_grid_distances() {
        let g = Arc::new(gen::grid2d_weighted(15, 15, 9, 2));
        check_all(g, 7, 4);
    }

    #[test]
    fn unreachable_vertices_stay_max() {
        let g = Arc::new(WeightedGraph::from_weighted_edges(
            5,
            &[(0, 1, 3u32), (1, 2, 4)],
            true,
        ));
        let topo = Arc::new(Topology::hashed(5, 2));
        let out = channel_basic(&g, &topo, &Config::sequential(2), 0);
        assert_eq!(out.dist, vec![0, 3, 7, UNREACHED, UNREACHED]);
    }

    #[test]
    fn threaded_matches_sequential() {
        let g = Arc::new(gen::rmat_weighted(
            8,
            1500,
            gen::RmatParams::default(),
            9,
            true,
            50,
        ));
        let topo = Arc::new(Topology::hashed(g.n(), 3));
        let a = channel_basic(&g, &topo, &Config::sequential(3), 1);
        let b = channel_basic(&g, &topo, &Config::with_workers(3), 1);
        assert_eq!(a.dist, b.dist);
    }

    #[test]
    fn source_with_self_loop() {
        let g = Arc::new(WeightedGraph::from_weighted_edges(
            3,
            &[(0, 0, 5u32), (0, 1, 2)],
            true,
        ));
        let topo = Arc::new(Topology::hashed(3, 2));
        let out = channel_basic(&g, &topo, &Config::sequential(2), 0);
        assert_eq!(out.dist[0], 0);
        assert_eq!(out.dist[1], 2);
    }
}
