//! PageRank — the paper's running example (Fig. 1) and the Table V (top)
//! workload for the scatter-combine channel.
//!
//! All four variants run `iters` full power iterations with damping 0.85
//! and the sink-mass redistribution of Fig. 1 (dead ends feed an aggregator
//! whose result is re-spread uniformly next superstep).

use pc_bsp::{Config, RunStats, Topology};
use pc_channels::channel::{VertexCtx, WorkerEnv};
use pc_channels::engine::{run, Algorithm};
use pc_channels::{Aggregator, Combine, CombinedMessage, Mirror, ScatterCombine};
use pc_graph::Graph;
use pc_pregel::{run_pregel, PregelOptions, PregelProgram, PregelVertex};
use std::sync::Arc;

/// Result of a PageRank run.
#[derive(Debug, Clone)]
pub struct PrOutput {
    /// Final rank per vertex (sums to 1).
    pub ranks: Vec<f64>,
    /// Run statistics.
    pub stats: RunStats,
}

const DAMPING: f64 = 0.85;

/// Fig. 1 verbatim: `CombinedMessage<f64>` + `Aggregator<f64>`.
struct PrBasic {
    g: Arc<Graph>,
    iters: u64,
}

impl Algorithm for PrBasic {
    type Value = f64;
    type Channels = (CombinedMessage<f64>, Aggregator<f64>);
    pc_channels::dist_value_via_codec!();

    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (
            CombinedMessage::new(env, Combine::sum_f64()),
            Aggregator::new(env, Combine::sum_f64()),
        )
    }

    fn compute(&self, v: &mut VertexCtx<'_>, value: &mut f64, ch: &mut Self::Channels) {
        let n = v.num_vertices() as f64;
        if v.step() == 1 {
            *value = 1.0 / n;
        } else {
            let s = ch.1.result() / n;
            *value = 0.15 / n + DAMPING * (ch.0.get_or_identity(v.local) + s);
        }
        if v.step() <= self.iters {
            let nbrs = self.g.neighbors(v.id);
            if nbrs.is_empty() {
                ch.1.add(*value);
            } else {
                let share = *value / nbrs.len() as f64;
                for &t in nbrs {
                    ch.0.send_message(t, share);
                }
            }
        } else {
            v.vote_to_halt();
        }
    }
}

/// The §III-B one-line swap: the rank broadcast moves to a
/// `ScatterCombine` channel (edges registered once, then bare values).
struct PrScatter {
    g: Arc<Graph>,
    iters: u64,
}

impl Algorithm for PrScatter {
    type Value = f64;
    type Channels = (ScatterCombine<f64>, Aggregator<f64>);
    pc_channels::dist_value_via_codec!();

    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (
            ScatterCombine::new(env, Combine::sum_f64()),
            Aggregator::new(env, Combine::sum_f64()),
        )
    }

    fn compute(&self, v: &mut VertexCtx<'_>, value: &mut f64, ch: &mut Self::Channels) {
        let n = v.num_vertices() as f64;
        if v.step() == 1 {
            *value = 1.0 / n;
            ch.0.add_edges(v.local, self.g.neighbors(v.id));
        } else {
            let s = ch.1.result() / n;
            *value = 0.15 / n + DAMPING * (ch.0.get_or_identity(v.local) + s);
        }
        if v.step() <= self.iters {
            let deg = self.g.degree(v.id);
            if deg == 0 {
                ch.1.add(*value);
            } else {
                ch.0.set_message(v.local, *value / deg as f64);
            }
        } else {
            v.vote_to_halt();
        }
    }
}

/// PageRank over the [`Mirror`] channel — the ghost/mirroring optimization
/// as a composable channel (unavailable as such in Pregel+, where
/// mirroring is a whole-program mode).
struct PrMirror {
    g: Arc<Graph>,
    iters: u64,
    threshold: usize,
}

impl Algorithm for PrMirror {
    type Value = f64;
    type Channels = (Mirror<f64>, Aggregator<f64>);
    pc_channels::dist_value_via_codec!();

    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (
            Mirror::new(env, Combine::sum_f64(), self.threshold),
            Aggregator::new(env, Combine::sum_f64()),
        )
    }

    fn compute(&self, v: &mut VertexCtx<'_>, value: &mut f64, ch: &mut Self::Channels) {
        let n = v.num_vertices() as f64;
        if v.step() == 1 {
            *value = 1.0 / n;
            ch.0.add_edges(v.local, self.g.neighbors(v.id));
        } else {
            let s = ch.1.result() / n;
            *value = 0.15 / n + DAMPING * (ch.0.get_or_identity(v.local) + s);
        }
        if v.step() <= self.iters {
            let deg = self.g.degree(v.id);
            if deg == 0 {
                ch.1.add(*value);
            } else {
                ch.0.send_to_neighbors(v.local, v.id, *value / deg as f64);
            }
        } else {
            v.vote_to_halt();
        }
    }
}

/// Pregel+ PageRank: monolithic `f64` message, global sum combiner.
struct PrPregel {
    g: Arc<Graph>,
    iters: u64,
    ghost: bool,
}

impl PregelProgram for PrPregel {
    type Value = f64;
    type Msg = f64;
    type Agg = f64;
    type Resp = u8;

    fn combiner(&self) -> Option<Combine<f64>> {
        Some(Combine::sum_f64())
    }

    fn aggregator(&self) -> Option<Combine<f64>> {
        Some(Combine::sum_f64())
    }

    fn compute(&self, v: &mut PregelVertex<'_, '_, Self>) {
        let n = v.num_vertices() as f64;
        if v.step() == 1 {
            *v.value_mut() = 1.0 / n;
        } else {
            let s = v.agg_result() / n;
            let gathered = if self.ghost {
                v.ghost_message().copied().unwrap_or(0.0)
            } else {
                v.messages().first().copied().unwrap_or(0.0)
            };
            *v.value_mut() = 0.15 / n + DAMPING * (gathered + s);
        }
        if v.step() <= self.iters {
            let deg = self.g.degree(v.id());
            if deg == 0 {
                let rank = *v.value();
                v.aggregate(rank);
            } else {
                let share = *v.value() / deg as f64;
                if self.ghost {
                    v.ghost_send(share);
                } else {
                    let id = v.id();
                    for &t in self.g.neighbors(id) {
                        v.send_message(t, share);
                    }
                }
            }
        } else {
            v.vote_to_halt();
        }
    }
}

/// Channel-basic PageRank (the Fig. 1 program).
pub fn channel_basic(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config, iters: u64) -> PrOutput {
    let out = run(
        &PrBasic {
            g: Arc::clone(g),
            iters,
        },
        topo,
        cfg,
    );
    PrOutput {
        ranks: out.values,
        stats: out.stats,
    }
}

/// Channel PageRank over the scatter-combine channel (§III-B).
pub fn channel_scatter(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config, iters: u64) -> PrOutput {
    let out = run(
        &PrScatter {
            g: Arc::clone(g),
            iters,
        },
        topo,
        cfg,
    );
    PrOutput {
        ranks: out.values,
        stats: out.stats,
    }
}

/// Channel PageRank over the mirror (ghost-as-a-channel) optimization.
pub fn channel_mirror(
    g: &Arc<Graph>,
    topo: &Arc<Topology>,
    cfg: &Config,
    iters: u64,
    threshold: usize,
) -> PrOutput {
    let out = run(
        &PrMirror {
            g: Arc::clone(g),
            iters,
            threshold,
        },
        topo,
        cfg,
    );
    PrOutput {
        ranks: out.values,
        stats: out.stats,
    }
}

/// Pregel+ basic-mode PageRank.
pub fn pregel_basic(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config, iters: u64) -> PrOutput {
    let prog = Arc::new(PrPregel {
        g: Arc::clone(g),
        iters,
        ghost: false,
    });
    let out = run_pregel(prog, topo, cfg, PregelOptions::default());
    PrOutput {
        ranks: out.values,
        stats: out.stats,
    }
}

/// Pregel+ ghost-mode PageRank (mirroring threshold τ, paper uses 16).
pub fn pregel_ghost(
    g: &Arc<Graph>,
    topo: &Arc<Topology>,
    cfg: &Config,
    iters: u64,
    threshold: usize,
) -> PrOutput {
    let prog = Arc::new(PrPregel {
        g: Arc::clone(g),
        iters,
        ghost: true,
    });
    let opts = PregelOptions {
        ghost: Some((Arc::clone(g), threshold)),
    };
    let out = run_pregel(prog, topo, cfg, opts);
    PrOutput {
        ranks: out.values,
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_graph::{gen, reference};

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-9, "rank {i}: {x} vs {y}");
        }
    }

    fn test_graph() -> Arc<Graph> {
        Arc::new(gen::rmat(9, 4000, gen::RmatParams::default(), 11, true))
    }

    #[test]
    fn all_variants_match_the_oracle() {
        let g = test_graph();
        let oracle = reference::pagerank(&g, 15);
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let cfg = Config::sequential(4);
        assert_close(&channel_basic(&g, &topo, &cfg, 15).ranks, &oracle);
        assert_close(&channel_scatter(&g, &topo, &cfg, 15).ranks, &oracle);
        assert_close(&channel_mirror(&g, &topo, &cfg, 15, 16).ranks, &oracle);
        assert_close(&pregel_basic(&g, &topo, &cfg, 15).ranks, &oracle);
        assert_close(&pregel_ghost(&g, &topo, &cfg, 15, 16).ranks, &oracle);
    }

    #[test]
    fn threaded_matches_sequential() {
        let g = test_graph();
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let seq = channel_scatter(&g, &topo, &Config::sequential(4), 10);
        let thr = channel_scatter(&g, &topo, &Config::with_workers(4), 10);
        assert_close(&seq.ranks, &thr.ranks);
        assert_eq!(seq.stats.remote_bytes(), thr.stats.remote_bytes());
    }

    #[test]
    fn scatter_saves_bytes_vs_basic() {
        let g = test_graph();
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let cfg = Config::sequential(4);
        let basic = channel_basic(&g, &topo, &cfg, 20);
        let scatter = channel_scatter(&g, &topo, &cfg, 20);
        assert!(
            (scatter.stats.remote_bytes() as f64) < 0.85 * basic.stats.remote_bytes() as f64,
            "scatter {} vs basic {}",
            scatter.stats.remote_bytes(),
            basic.stats.remote_bytes()
        );
    }

    #[test]
    fn ghost_saves_bytes_on_skewed_graphs() {
        let g = test_graph();
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let cfg = Config::sequential(4);
        let basic = pregel_basic(&g, &topo, &cfg, 10);
        let ghost = pregel_ghost(&g, &topo, &cfg, 10, 16);
        assert!(
            ghost.stats.remote_bytes() < basic.stats.remote_bytes(),
            "ghost {} vs basic {}",
            ghost.stats.remote_bytes(),
            basic.stats.remote_bytes()
        );
    }

    #[test]
    fn rank_mass_is_conserved_with_sinks() {
        // A graph guaranteed to have dead ends.
        let g = Arc::new(Graph::from_edges(
            6,
            &[(0, 1), (1, 2), (3, 2), (4, 2)],
            true,
        ));
        let topo = Arc::new(Topology::hashed(6, 2));
        let out = channel_basic(&g, &topo, &Config::sequential(2), 30);
        let total: f64 = out.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        assert_close(&out.ranks, &reference::pagerank(&g, 30));
    }

    #[test]
    fn superstep_count_is_iters_plus_one() {
        let g = test_graph();
        let topo = Arc::new(Topology::hashed(g.n(), 3));
        let out = channel_basic(&g, &topo, &Config::sequential(3), 7);
        assert_eq!(out.stats.supersteps, 8);
    }
}
