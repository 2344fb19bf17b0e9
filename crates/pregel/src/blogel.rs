//! Blogel's block-centric WCC, the comparator for the Propagation channel
//! (Table V, bottom).
//!
//! Blogel opens the partition to the programmer: a *block* (a worker's
//! connected subgraph) runs a block-level program — for WCC, a hash-min
//! that converges locally — and only boundary updates travel between
//! blocks, once per superstep. We express exactly that with the
//! propagation machinery in [`pc_channels::Propagation::block_mode`]:
//! local convergence inside the superstep, boundary exchange at the
//! barrier, repeat until globally stable.
//!
//! (The paper notes the real Blogel encodes partition information in
//! vertex ids and saves a further ~33% of message bytes; we do not model
//! that detail — see EXPERIMENTS.md.)

use pc_bsp::{Config, Topology};
use pc_channels::channel::{VertexCtx, WorkerEnv};
use pc_channels::engine::{run, Algorithm, Output};
use pc_channels::{Combine, Propagation};
use pc_graph::{Graph, VertexId};
use std::sync::Arc;

struct BlogelWcc {
    g: Arc<Graph>,
}

impl Algorithm for BlogelWcc {
    type Value = VertexId;
    type Channels = (Propagation<u32>,);

    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (Propagation::block_mode(env, Combine::min_u32()),)
    }

    fn compute(&self, v: &mut VertexCtx<'_>, value: &mut VertexId, ch: &mut Self::Channels) {
        if v.step() == 1 {
            ch.0.add_edges(v.local, self.g.neighbors(v.id));
            ch.0.set_value(v.local, v.id);
        }
        *value = *ch.0.get_value(v.local);
        v.vote_to_halt();
    }
}

/// Run Blogel-style block-centric WCC. Returns min-id component labels.
pub fn wcc(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config) -> Output<VertexId> {
    let mut out = run(&BlogelWcc { g: Arc::clone(g) }, topo, cfg);
    // One final sweep: compute() snapshots the label *before* the last
    // boundary exchange of each superstep, so harvest final labels from
    // the converged channel state via a trailing superstep. The run above
    // already includes that trailing superstep (activation keeps changed
    // vertices alive), so values are final here.
    out.stats
        .channels
        .retain(|c| c.bytes.total() > 0 || c.messages > 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_graph::{gen, partition, reference};

    #[test]
    fn blogel_wcc_matches_union_find() {
        let g = Arc::new(gen::rmat(9, 2500, gen::RmatParams::default(), 17, false));
        let expect = reference::connected_components(&g);
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        for cfg in [Config::sequential(4), Config::with_workers(4)] {
            let out = wcc(&g, &topo, &cfg);
            assert_eq!(out.values, expect);
        }
    }

    #[test]
    fn blogel_needs_more_supersteps_than_async_propagation() {
        // On a large-diameter graph with a good partition, Blogel needs one
        // superstep per inter-block hop, while the propagation channel
        // collapses everything into round loops inside ~1 superstep.
        let g = Arc::new(gen::grid2d(24, 24, 0.0, 3));
        let owners = partition::bfs_blocks(&*g, 4);
        let topo = Arc::new(Topology::from_owners(4, owners));
        let out = wcc(&g, &topo, &Config::sequential(4));
        assert_eq!(out.values, reference::connected_components(&g));
        assert!(
            out.stats.supersteps > 2,
            "block-centric WCC pays supersteps for inter-block hops, got {}",
            out.stats.supersteps
        );
    }

    #[test]
    fn blogel_on_partitioned_chain() {
        let g = Arc::new(gen::chain(500));
        let topo = Arc::new(Topology::blocked(g.n(), 4));
        let out = wcc(&g, &topo, &Config::sequential(4));
        assert!(out.values.iter().all(|&l| l == 0));
        // 4 contiguous blocks ⇒ label crosses 3 boundaries ⇒ ~4 supersteps.
        assert!(
            out.stats.supersteps <= 6,
            "supersteps = {}",
            out.stats.supersteps
        );
    }
}
