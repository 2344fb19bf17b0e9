//! Additional vertex-centric kernels built on the channel library —
//! exercising the public API beyond the paper's six evaluated algorithms
//! (the paper's §I motivates the system with exactly this breadth of
//! "interesting graph algorithms").

use pc_bsp::{Config, RunStats, Topology};
use pc_channels::channel::{VertexCtx, WorkerEnv};
use pc_channels::engine::{run, Algorithm};
use pc_channels::{Combine, CombinedMessage, Propagation};
use pc_graph::{Graph, VertexId};
use std::sync::Arc;

/// Result of a BFS run.
#[derive(Debug, Clone)]
pub struct BfsOutput {
    /// Hop distance from the source (`u32::MAX` if unreachable).
    pub level: Vec<u32>,
    /// Run statistics.
    pub stats: RunStats,
}

/// Unreachable marker for [`bfs`].
pub const UNREACHED: u32 = u32::MAX;

/// Per-vertex BFS state.
#[derive(Debug, Clone)]
struct Level(u32);

impl Default for Level {
    fn default() -> Self {
        Level(UNREACHED)
    }
}

impl pc_bsp::Codec for Level {
    fn encode(&self, buf: &mut Vec<u8>) {
        pc_bsp::Codec::encode(&self.0, buf)
    }
    fn decode(r: &mut pc_bsp::Reader<'_>) -> Self {
        Level(r.get())
    }
}

/// Breadth-first levels from `src`, over the asynchronous propagation
/// channel with `f(_, d) = d + 1` — the full Fig. 7 model with a unit
/// edge function. Converges in two supersteps.
struct Bfs {
    g: Arc<Graph>,
    src: VertexId,
}

impl Algorithm for Bfs {
    type Value = Level;
    type Channels = (Propagation<u32, ()>,);
    pc_channels::dist_value_via_codec!();

    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (Propagation::weighted(
            env,
            Combine::min_u32(),
            |_: &(), d: &u32| d.saturating_add(1),
        ),)
    }

    fn compute(&self, v: &mut VertexCtx<'_>, value: &mut Level, ch: &mut Self::Channels) {
        if v.step() == 1 {
            ch.0.add_edges(v.local, self.g.neighbors(v.id));
            if v.id == self.src {
                ch.0.set_value(v.local, 0);
            }
        } else {
            value.0 = *ch.0.get_value(v.local);
            v.vote_to_halt();
        }
    }
}

/// BFS levels from `src` (propagation channel; 2 supersteps).
pub fn bfs(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config, src: VertexId) -> BfsOutput {
    let out = run(
        &Bfs {
            g: Arc::clone(g),
            src,
        },
        topo,
        cfg,
    );
    BfsOutput {
        level: out.values.into_iter().map(|l| l.0).collect(),
        stats: out.stats,
    }
}

/// Result of a k-core run.
#[derive(Debug, Clone)]
pub struct KCoreOutput {
    /// Whether each vertex survives in the k-core.
    pub in_core: Vec<bool>,
    /// Run statistics.
    pub stats: RunStats,
}

/// Per-vertex k-core state.
#[derive(Debug, Clone, Default)]
struct CoreState {
    alive: bool,
    degree: u32,
}

impl pc_bsp::Codec for CoreState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.alive.encode(buf);
        self.degree.encode(buf);
    }
    fn decode(r: &mut pc_bsp::Reader<'_>) -> Self {
        CoreState {
            alive: r.get(),
            degree: r.get(),
        }
    }
}

/// k-core decomposition: iteratively peel vertices with alive-degree < k.
/// Peeling notifications ride a sum-combined channel (each removed vertex
/// sends `1` to every neighbor, combined per receiver).
struct KCore {
    g: Arc<Graph>,
    k: u32,
}

impl Algorithm for KCore {
    type Value = CoreState;
    type Channels = (CombinedMessage<u32>,);
    pc_channels::dist_value_via_codec!();

    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (CombinedMessage::new(
            env,
            Combine::new(0u32, |a, b| *a += b),
        ),)
    }

    fn compute(&self, v: &mut VertexCtx<'_>, value: &mut CoreState, ch: &mut Self::Channels) {
        if v.step() == 1 {
            value.alive = true;
            value.degree = self.g.degree(v.id) as u32;
        } else if value.alive {
            value.degree = value.degree.saturating_sub(ch.0.get_or_identity(v.local));
        }
        if value.alive && value.degree < self.k {
            // Peel: tell every neighbor it lost one alive neighbor.
            value.alive = false;
            for &t in self.g.neighbors(v.id) {
                ch.0.send_message(t, 1);
            }
        }
        v.vote_to_halt();
    }
}

/// The k-core of `g`: the maximal subgraph where every vertex has degree
/// ≥ `k` within the subgraph.
pub fn kcore(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config, k: u32) -> KCoreOutput {
    let out = run(
        &KCore {
            g: Arc::clone(g),
            k,
        },
        topo,
        cfg,
    );
    KCoreOutput {
        in_core: out.values.into_iter().map(|s| s.alive).collect(),
        stats: out.stats,
    }
}

/// Sequential k-core oracle.
pub fn kcore_reference(g: &Graph, k: u32) -> Vec<bool> {
    let mut alive = vec![true; g.n()];
    let mut degree: Vec<u32> = g.vertices().map(|v| g.degree(v) as u32).collect();
    let mut queue: Vec<u32> = g.vertices().filter(|&v| degree[v as usize] < k).collect();
    for &v in &queue {
        alive[v as usize] = false;
    }
    while let Some(v) = queue.pop() {
        for &t in g.neighbors(v) {
            if alive[t as usize] {
                degree[t as usize] -= 1;
                if degree[t as usize] < k {
                    alive[t as usize] = false;
                    queue.push(t);
                }
            }
        }
    }
    alive
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_graph::gen;

    #[test]
    fn bfs_levels_match_reference() {
        let g = Arc::new(gen::grid2d(12, 12, 0.0, 1));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        for cfg in [Config::sequential(4), Config::with_workers(4)] {
            let out = bfs(&g, &topo, &cfg, 0);
            // Grid BFS level = manhattan distance from corner 0.
            for r in 0..12u32 {
                for c in 0..12u32 {
                    assert_eq!(out.level[(r * 12 + c) as usize], r + c);
                }
            }
            assert_eq!(out.stats.supersteps, 2);
        }
    }

    #[test]
    fn bfs_unreachable_stays_max() {
        let g = Arc::new(Graph::from_edges(4, &[(0, 1)], true));
        let topo = Arc::new(Topology::hashed(4, 2));
        let out = bfs(&g, &topo, &Config::sequential(2), 0);
        assert_eq!(out.level, vec![0, 1, UNREACHED, UNREACHED]);
    }

    #[test]
    fn kcore_matches_sequential_peeling() {
        let g = Arc::new(gen::rmat(9, 4000, gen::RmatParams::default(), 77, false));
        for k in [1, 2, 3, 5] {
            let expect = kcore_reference(&g, k);
            let topo = Arc::new(Topology::hashed(g.n(), 4));
            for cfg in [Config::sequential(4), Config::with_workers(4)] {
                let out = kcore(&g, &topo, &cfg, k);
                assert_eq!(out.in_core, expect, "k = {k}");
            }
        }
    }

    #[test]
    fn kcore_of_complete_graph_is_everything_or_nothing() {
        let g = Arc::new(gen::complete(8));
        let topo = Arc::new(Topology::hashed(8, 3));
        let cfg = Config::sequential(3);
        assert!(kcore(&g, &topo, &cfg, 7).in_core.iter().all(|&a| a));
        assert!(kcore(&g, &topo, &cfg, 8).in_core.iter().all(|&a| !a));
    }

    #[test]
    fn kcore_peels_chains_entirely_for_k2() {
        let g = Arc::new(gen::chain(50));
        let topo = Arc::new(Topology::hashed(50, 4));
        let out = kcore(&g, &topo, &Config::sequential(4), 2);
        assert!(out.in_core.iter().all(|&a| !a), "a path has no 2-core");
    }
}
