//! Weakly Connected Components (the HCC hash-min algorithm) — the Table V
//! (bottom) workload for the Propagation channel.
//!
//! Every vertex starts with its own id as label; labels flow to neighbors
//! and each vertex keeps the minimum it has seen. The label of a component
//! converges to the minimum vertex id in it.
//!
//! * **basic** variants need one superstep per propagation hop —
//!   `O(diameter)` supersteps;
//! * the **propagation** variant converges inside one superstep via
//!   intra-worker asynchronous propagation (§IV-C3);
//! * **Blogel** (in `pc_pregel::blogel`) is the block-centric comparator.
//!
//! Directed inputs must be symmetrized first
//! ([`pc_graph::Graph::symmetrized`]); tests cover both shapes.

use pc_bsp::{Config, RunStats, Topology};
use pc_channels::channel::{VertexCtx, WorkerEnv};
use pc_channels::engine::{run, Algorithm};
use pc_channels::{Combine, CombinedMessage, Mirror, Propagation};
use pc_graph::{Graph, VertexId};
use pc_pregel::{run_pregel, PregelOptions, PregelProgram, PregelVertex};
use std::sync::Arc;

/// Result of a WCC run.
#[derive(Debug, Clone)]
pub struct WccOutput {
    /// Component label per vertex (= min vertex id in the component).
    pub labels: Vec<VertexId>,
    /// Run statistics.
    pub stats: RunStats,
}

/// Channel-basic hash-min over a `CombinedMessage<u32>` min channel.
struct WccBasic {
    g: Arc<Graph>,
}

impl Algorithm for WccBasic {
    type Value = VertexId;
    type Channels = (CombinedMessage<u32>,);
    pc_channels::dist_value_via_codec!();

    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (CombinedMessage::new(env, Combine::min_u32()),)
    }

    fn compute(&self, v: &mut VertexCtx<'_>, label: &mut VertexId, ch: &mut Self::Channels) {
        let improved = if v.step() == 1 {
            *label = v.id;
            true
        } else {
            match ch.0.get_message(v.local) {
                Some(&m) if m < *label => {
                    *label = m;
                    true
                }
                _ => false,
            }
        };
        if improved {
            for &t in self.g.neighbors(v.id) {
                ch.0.send_message(t, *label);
            }
        }
        v.vote_to_halt();
    }
}

/// Channel-propagation hash-min: seeds once, converges in one superstep.
struct WccProp {
    g: Arc<Graph>,
}

impl Algorithm for WccProp {
    type Value = VertexId;
    type Channels = (Propagation<u32>,);
    pc_channels::dist_value_via_codec!();

    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (Propagation::new(env, Combine::min_u32()),)
    }

    fn compute(&self, v: &mut VertexCtx<'_>, label: &mut VertexId, ch: &mut Self::Channels) {
        if v.step() == 1 {
            ch.0.add_edges(v.local, self.g.neighbors(v.id));
            ch.0.set_value(v.local, v.id);
        } else {
            *label = *ch.0.get_value(v.local);
            v.vote_to_halt();
        }
    }
}

/// Skew-resistant hash-min composing **Propagation + Mirror** (§IV-C3 +
/// §V-B1): vertices with degree ≥ τ broadcast their label through the
/// Mirror channel — one ghost message per destination worker instead of
/// one per edge — while the low-degree mass converges asynchronously
/// through the Propagation channel. On skewed graphs this caps the
/// per-worker message volume a hub can generate.
struct WccMirror {
    g: Arc<Graph>,
    threshold: usize,
}

impl Algorithm for WccMirror {
    type Value = VertexId;
    type Channels = (Propagation<u32>, Mirror<u32>);
    pc_channels::dist_value_via_codec!();

    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (
            Propagation::new(env, Combine::min_u32()),
            Mirror::new(env, Combine::min_u32(), self.threshold),
        )
    }

    fn compute(&self, v: &mut VertexCtx<'_>, label: &mut VertexId, ch: &mut Self::Channels) {
        // The Mirror channel knows the effective τ (a shipped plan's τ
        // overrides the constructor's), so routing asks it, not `self`.
        let hub = self.g.degree(v.id) >= ch.1.threshold();
        if v.step() == 1 {
            *label = v.id;
            if hub {
                ch.1.add_edges(v.local, self.g.neighbors(v.id));
            } else {
                ch.0.add_edges(v.local, self.g.neighbors(v.id));
            }
            // Everyone sits in the propagation network as a *receiver*;
            // hubs just have no propagation out-edges.
            ch.0.set_value(v.local, v.id);
            if hub {
                ch.1.send_to_neighbors(v.local, v.id, v.id);
            }
            return;
        }
        let mut next = (*label).min(*ch.0.get_value(v.local));
        if let Some(&m) = ch.1.get_message(v.local) {
            next = next.min(m);
        }
        // Guard: `set_value` re-enqueues unconditionally, so only push a
        // strict improvement back into the propagation network.
        if next < *ch.0.get_value(v.local) {
            ch.0.set_value(v.local, next);
        }
        if next < *label {
            *label = next;
            if hub {
                ch.1.send_to_neighbors(v.local, v.id, next);
            }
        }
        v.vote_to_halt();
    }
}

/// Pregel+ hash-min: monolithic `u32` message; the min combiner *is*
/// globally applicable here, so the baseline gets it too.
struct WccPregel {
    g: Arc<Graph>,
}

impl PregelProgram for WccPregel {
    type Value = VertexId;
    type Msg = u32;
    type Agg = u8;
    type Resp = u8;

    fn combiner(&self) -> Option<Combine<u32>> {
        Some(Combine::min_u32())
    }

    fn compute(&self, v: &mut PregelVertex<'_, '_, Self>) {
        let improved = if v.step() == 1 {
            *v.value_mut() = v.id();
            true
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
            let label = *v.value();
            let id = v.id();
            for i in 0..self.g.degree(id) {
                let t = self.g.neighbors(id)[i];
                v.send_message(t, label);
            }
        }
        v.vote_to_halt();
    }
}

/// Channel-basic WCC (message passing, one superstep per hop).
pub fn channel_basic(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config) -> WccOutput {
    let out = run(&WccBasic { g: Arc::clone(g) }, topo, cfg);
    WccOutput {
        labels: out.values,
        stats: out.stats,
    }
}

/// Channel-propagation WCC (asynchronous intra-worker convergence).
pub fn channel_propagation(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config) -> WccOutput {
    let out = run(&WccProp { g: Arc::clone(g) }, topo, cfg);
    WccOutput {
        labels: out.values,
        stats: out.stats,
    }
}

/// Skew-resistant WCC: Propagation for the low-degree mass, Mirror for
/// hubs with degree ≥ `threshold`. When `topo` carries a
/// [`pc_bsp::MirrorPlan`] the plan's τ wins and the Mirror channel comes
/// up pre-wired (no in-band table shipment).
pub fn channel_mirror(
    g: &Arc<Graph>,
    topo: &Arc<Topology>,
    cfg: &Config,
    threshold: usize,
) -> WccOutput {
    let algo = WccMirror {
        g: Arc::clone(g),
        threshold,
    };
    let out = run(&algo, topo, cfg);
    WccOutput {
        labels: out.values,
        stats: out.stats,
    }
}

/// Pregel+ basic-mode WCC.
pub fn pregel_basic(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config) -> WccOutput {
    let out = run_pregel(
        Arc::new(WccPregel { g: Arc::clone(g) }),
        topo,
        cfg,
        PregelOptions::default(),
    );
    WccOutput {
        labels: out.values,
        stats: out.stats,
    }
}

/// Blogel block-centric WCC (re-exported for table harnesses).
pub fn blogel(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config) -> WccOutput {
    let out = pc_pregel::blogel::wcc(g, topo, cfg);
    WccOutput {
        labels: out.values,
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_graph::{gen, partition, reference};

    fn check_all(g: Arc<Graph>, workers: usize) {
        let expect = reference::connected_components(&g);
        let topo = Arc::new(Topology::hashed(g.n(), workers));
        let cfg = Config::sequential(workers);
        assert_eq!(
            channel_basic(&g, &topo, &cfg).labels,
            expect,
            "channel basic"
        );
        assert_eq!(
            channel_propagation(&g, &topo, &cfg).labels,
            expect,
            "channel prop"
        );
        assert_eq!(pregel_basic(&g, &topo, &cfg).labels, expect, "pregel basic");
        assert_eq!(blogel(&g, &topo, &cfg).labels, expect, "blogel");
        for threshold in [1, 16, usize::MAX] {
            assert_eq!(
                channel_mirror(&g, &topo, &cfg, threshold).labels,
                expect,
                "channel mirror τ={threshold}"
            );
        }
    }

    #[test]
    fn undirected_rmat_components() {
        check_all(
            Arc::new(gen::rmat(9, 2500, gen::RmatParams::default(), 3, false)),
            4,
        );
    }

    #[test]
    fn directed_graph_after_symmetrization() {
        let d = gen::rmat(8, 1500, gen::RmatParams::default(), 8, true);
        check_all(Arc::new(d.symmetrized()), 4);
    }

    #[test]
    fn forest_of_small_components() {
        let mut edges = Vec::new();
        for c in 0..50u32 {
            let base = c * 4;
            edges.extend([(base, base + 1), (base + 1, base + 2), (base + 2, base + 3)]);
        }
        check_all(Arc::new(Graph::from_edges(200, &edges, false)), 3);
    }

    #[test]
    fn propagation_collapses_supersteps() {
        let g = Arc::new(gen::grid2d(25, 25, 0.0, 1));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let cfg = Config::sequential(4);
        let basic = channel_basic(&g, &topo, &cfg);
        let prop = channel_propagation(&g, &topo, &cfg);
        assert_eq!(basic.labels, prop.labels);
        assert_eq!(prop.stats.supersteps, 2);
        assert!(
            basic.stats.supersteps > 10 * prop.stats.supersteps,
            "basic {} vs prop {}",
            basic.stats.supersteps,
            prop.stats.supersteps
        );
    }

    #[test]
    fn partitioning_reduces_propagation_traffic() {
        let g = Arc::new(gen::grid2d(30, 30, 0.0, 5));
        let cfg = Config::sequential(4);
        let random = Arc::new(Topology::hashed(g.n(), 4));
        let owners = partition::bfs_blocks(&*g, 4);
        let parted = Arc::new(Topology::from_owners(4, owners));
        let a = channel_propagation(&g, &random, &cfg);
        let b = channel_propagation(&g, &parted, &cfg);
        assert_eq!(a.labels, b.labels);
        assert!(
            b.stats.remote_bytes() * 2 < a.stats.remote_bytes(),
            "partitioned {} vs random {}",
            b.stats.remote_bytes(),
            a.stats.remote_bytes()
        );
    }

    #[test]
    fn mirror_caps_hub_volume_on_skewed_ring() {
        let g = Arc::new(gen::ring_with_hub(256, 1024));
        let expect = reference::connected_components(&g);
        let workers = 4;
        let cfg = Config::sequential(workers);
        let plain_topo = Arc::new(Topology::hashed(g.n(), workers));
        let plain = channel_propagation(&g, &plain_topo, &cfg);
        assert_eq!(plain.labels, expect);
        // Degree-sorted LDG places the hub first, then a shipped mirror
        // plan pre-wires the hub's per-worker broadcast fan-out.
        let owners = partition::ldg_deg(&*g, workers, 1);
        let base = Topology::from_owners(workers, owners);
        let plan = partition::build_mirror_plan(&*g, &base, 64);
        assert!(!plan.hubs.is_empty(), "the hub must qualify");
        let topo = Arc::new(base.with_mirror(Arc::new(plan)));
        let mirrored = channel_mirror(&g, &topo, &cfg, 64);
        assert_eq!(mirrored.labels, expect);
        assert!(mirrored.stats.mirrored_msgs() > 0);
        assert!(mirrored.stats.mirror_saved() > 0);
        // The hub's broadcast collapses from ~1024 per-edge messages to
        // ≤ workers ghosts, so the worst rank's message volume drops.
        assert!(
            mirrored.stats.max_rank_msgs * 2 < plain.stats.max_rank_msgs,
            "mirrored max/rank {} vs plain {}",
            mirrored.stats.max_rank_msgs,
            plain.stats.max_rank_msgs
        );
    }

    #[test]
    fn mirror_matches_under_every_transport_shape() {
        let g = Arc::new(gen::rmat(9, 4000, gen::RmatParams::default(), 21, false));
        let expect = reference::connected_components(&g);
        let owners = partition::ldg_deg(&*g, 4, 1);
        let base = Topology::from_owners(4, owners);
        let threshold = partition::default_mirror_threshold(&*g);
        let plan = partition::build_mirror_plan(&*g, &base, threshold);
        let topo = Arc::new(base.with_mirror(Arc::new(plan)));
        for cfg in [Config::sequential(4), Config::with_workers(4)] {
            assert_eq!(channel_mirror(&g, &topo, &cfg, threshold).labels, expect);
        }
    }

    #[test]
    fn threaded_matches_sequential() {
        let g = Arc::new(gen::rmat(9, 2500, gen::RmatParams::default(), 3, false));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let a = channel_propagation(&g, &topo, &Config::sequential(4));
        let b = channel_propagation(&g, &topo, &Config::with_workers(4));
        assert_eq!(a.labels, b.labels);
    }
}
