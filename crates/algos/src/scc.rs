//! Strongly Connected Components via the Min-Label algorithm (Yan et al.),
//! the Table VII workload.
//!
//! Each outer iteration floods two min-labels over the *alive* subgraph:
//! `f(u)` along forward edges (the smallest alive id that reaches `u`) and
//! `b(u)` along backward edges (the smallest alive id reachable *from*
//! `u`). Vertices with `f(u) == b(u) == L` are exactly the SCC of `L`
//! (mutual reachability with `L`); they take label `L`, retire, and the
//! next iteration re-floods the survivors. Every iteration retires at
//! least the SCC of the smallest alive id, so the algorithm terminates.
//!
//! The paper's point (Table VII): the forward/backward *label
//! propagations* dominate, and swapping their message channels for
//! [`Propagation`] channels collapses each flood from `O(diameter)`
//! supersteps to one — "a quick fix ... not possible in any of the
//! existing systems".
//!
//! Retired vertices stay retired: in the basic/pregel variants they ignore
//! and re-halt on stray messages; in the propagation variant their channel
//! value carries a `removed` flag that makes the combiner inert, so floods
//! can never pass through them.

use pc_bsp::codec::{Codec, Reader};
use pc_bsp::{Config, RunStats, Topology};
use pc_channels::channel::{VertexCtx, WorkerEnv};
use pc_channels::engine::{run, Algorithm};
use pc_channels::{Aggregator, Combine, CombinedMessage, Propagation};
use pc_graph::{Graph, VertexId};
use pc_pregel::{run_pregel, PregelOptions, PregelProgram, PregelVertex};
use std::sync::Arc;

/// Result of an SCC run.
#[derive(Debug, Clone)]
pub struct SccOutput {
    /// SCC label per vertex (= min vertex id in the SCC).
    pub labels: Vec<VertexId>,
    /// Run statistics.
    pub stats: RunStats,
}

/// Per-vertex state shared by the basic and pregel variants.
#[derive(Debug, Clone, Default)]
struct SccValue {
    label: VertexId,
    removed: bool,
    f: VertexId,
    b: VertexId,
}

impl Codec for SccValue {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.label.encode(buf);
        self.removed.encode(buf);
        self.f.encode(buf);
        self.b.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Self {
        SccValue {
            label: r.get(),
            removed: r.get(),
            f: r.get(),
            b: r.get(),
        }
    }
}

/// Channel-basic Min-Label: two combined-message min floods + OR
/// aggregator for flood stability.
struct SccBasic {
    g: Arc<Graph>,
    rev: Arc<Graph>,
}

impl Algorithm for SccBasic {
    type Value = SccValue;
    type Channels = (CombinedMessage<u32>, CombinedMessage<u32>, Aggregator<bool>);
    pc_channels::dist_value_via_codec!();

    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (
            CombinedMessage::new(env, Combine::min_u32()),
            CombinedMessage::new(env, Combine::min_u32()),
            Aggregator::new(env, Combine::or()),
        )
    }

    fn compute(&self, v: &mut VertexCtx<'_>, value: &mut SccValue, ch: &mut Self::Channels) {
        if value.removed {
            v.vote_to_halt();
            return;
        }
        let (fwd, bwd, agg) = ch;
        let stable = v.step() > 1 && !*agg.result();
        if v.step() == 1 || stable {
            if stable {
                // Floods converged: detect and retire this iteration's SCCs.
                if value.f == value.b {
                    value.label = value.f;
                    value.removed = true;
                    v.vote_to_halt();
                    return;
                }
            }
            // (Re-)seed both floods with our own id.
            value.f = v.id;
            value.b = v.id;
            for &t in self.g.neighbors(v.id) {
                fwd.send_message(t, value.f);
            }
            for &t in self.rev.neighbors(v.id) {
                bwd.send_message(t, value.b);
            }
            agg.add(true);
            return;
        }
        let mut changed = false;
        if let Some(&m) = fwd.get_message(v.local) {
            if m < value.f {
                value.f = m;
                changed = true;
                for &t in self.g.neighbors(v.id) {
                    fwd.send_message(t, value.f);
                }
            }
        }
        if let Some(&m) = bwd.get_message(v.local) {
            if m < value.b {
                value.b = m;
                changed = true;
                for &t in self.rev.neighbors(v.id) {
                    bwd.send_message(t, value.b);
                }
            }
        }
        agg.add(changed);
    }
}

/// Label value for the propagation variant: the `removed` flag makes the
/// combiner inert on both sides, so floods never traverse retired
/// vertices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskedLabel {
    /// Retired vertices absorb and emit nothing.
    pub removed: bool,
    /// The min-label.
    pub label: u32,
}

impl Codec for MaskedLabel {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.removed.encode(buf);
        self.label.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Self {
        MaskedLabel {
            removed: r.get(),
            label: r.get(),
        }
    }
    const FIXED_SIZE: Option<usize> = Some(5);
}

impl MaskedLabel {
    /// The combiner: min over labels, inert once either side is removed.
    pub fn combine() -> Combine<MaskedLabel> {
        Combine::new(
            MaskedLabel {
                removed: false,
                label: u32::MAX,
            },
            |acc: &mut MaskedLabel, m: MaskedLabel| {
                if !acc.removed && !m.removed && m.label < acc.label {
                    acc.label = m.label;
                }
            },
        )
    }
}

/// Channel-propagation Min-Label: each flood is one `Propagation` channel;
/// a full iteration (seed → fixpoint → detect) takes one superstep.
struct SccProp {
    g: Arc<Graph>,
    rev: Arc<Graph>,
}

impl Algorithm for SccProp {
    type Value = SccValue;
    type Channels = (Propagation<MaskedLabel>, Propagation<MaskedLabel>);
    pc_channels::dist_value_via_codec!();

    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (
            Propagation::new(env, MaskedLabel::combine()),
            Propagation::new(env, MaskedLabel::combine()),
        )
    }

    fn compute(&self, v: &mut VertexCtx<'_>, value: &mut SccValue, ch: &mut Self::Channels) {
        if value.removed {
            v.vote_to_halt();
            return;
        }
        let (fwd, bwd) = ch;
        if v.step() == 1 {
            fwd.add_edges(v.local, self.g.neighbors(v.id));
            bwd.add_edges(v.local, self.rev.neighbors(v.id));
        } else {
            // Detect on the converged floods of the previous superstep.
            let f = fwd.get_value(v.local).label;
            let b = bwd.get_value(v.local).label;
            if f == b {
                value.label = f;
                value.removed = true;
                let tomb = MaskedLabel {
                    removed: true,
                    label: f,
                };
                fwd.set_value_silent(v.local, tomb);
                bwd.set_value_silent(v.local, tomb);
                v.vote_to_halt();
                return;
            }
        }
        // (Re-)seed; the floods run to fixpoint within this superstep.
        let seed = MaskedLabel {
            removed: false,
            label: v.id,
        };
        fwd.set_value(v.local, seed);
        bwd.set_value(v.local, seed);
    }
}

/// Message tags for the monolithic baseline.
const TAG_F: u8 = 0;
const TAG_B: u8 = 1;

/// Pregel+ Min-Label: one tagged message type; forward and backward labels
/// share it, so **no combiner applies** — the 2× message inflation of
/// Table IV.
struct SccPregel {
    g: Arc<Graph>,
    rev: Arc<Graph>,
}

impl PregelProgram for SccPregel {
    type Value = SccValue;
    type Msg = (u8, u32);
    type Agg = bool;
    type Resp = u8;

    fn aggregator(&self) -> Option<Combine<bool>> {
        Some(Combine::or())
    }

    fn compute(&self, v: &mut PregelVertex<'_, '_, Self>) {
        if v.value().removed {
            v.vote_to_halt();
            return;
        }
        let stable = v.step() > 1 && !*v.agg_result();
        if v.step() == 1 || stable {
            if stable && v.value().f == v.value().b {
                let f = v.value().f;
                v.value_mut().label = f;
                v.value_mut().removed = true;
                v.vote_to_halt();
                return;
            }
            let id = v.id();
            v.value_mut().f = id;
            v.value_mut().b = id;
            for i in 0..self.g.degree(id) {
                let t = self.g.neighbors(id)[i];
                v.send_message(t, (TAG_F, id));
            }
            for i in 0..self.rev.degree(id) {
                let t = self.rev.neighbors(id)[i];
                v.send_message(t, (TAG_B, id));
            }
            v.aggregate(true);
            return;
        }
        let (mut min_f, mut min_b) = (u32::MAX, u32::MAX);
        for &(tag, m) in v.messages() {
            match tag {
                TAG_F => min_f = min_f.min(m),
                _ => min_b = min_b.min(m),
            }
        }
        let mut changed = false;
        if min_f < v.value().f {
            v.value_mut().f = min_f;
            changed = true;
            let id = v.id();
            for i in 0..self.g.degree(id) {
                let t = self.g.neighbors(id)[i];
                v.send_message(t, (TAG_F, min_f));
            }
        }
        if min_b < v.value().b {
            v.value_mut().b = min_b;
            changed = true;
            let id = v.id();
            for i in 0..self.rev.degree(id) {
                let t = self.rev.neighbors(id)[i];
                v.send_message(t, (TAG_B, min_b));
            }
        }
        v.aggregate(changed);
    }
}

fn labels_of(values: Vec<SccValue>) -> Vec<VertexId> {
    values.into_iter().map(|x| x.label).collect()
}

/// Channel-basic Min-Label SCC.
pub fn channel_basic(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config) -> SccOutput {
    channel_basic_with_rev(g, &Arc::new(g.reverse()), topo, cfg)
}

/// [`channel_basic`] with a caller-supplied reverse graph — multi-process
/// runs ship each rank a row slice of the transpose, which a slice cannot
/// derive locally (the in-edges of a local vertex live on other ranks).
pub fn channel_basic_with_rev(
    g: &Arc<Graph>,
    rev: &Arc<Graph>,
    topo: &Arc<Topology>,
    cfg: &Config,
) -> SccOutput {
    let out = run(
        &SccBasic {
            g: Arc::clone(g),
            rev: Arc::clone(rev),
        },
        topo,
        cfg,
    );
    SccOutput {
        labels: labels_of(out.values),
        stats: out.stats,
    }
}

/// Channel-propagation Min-Label SCC (Table VII program 3).
pub fn channel_propagation(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config) -> SccOutput {
    channel_propagation_with_rev(g, &Arc::new(g.reverse()), topo, cfg)
}

/// [`channel_propagation`] with a caller-supplied reverse graph (see
/// [`channel_basic_with_rev`]).
pub fn channel_propagation_with_rev(
    g: &Arc<Graph>,
    rev: &Arc<Graph>,
    topo: &Arc<Topology>,
    cfg: &Config,
) -> SccOutput {
    let out = run(
        &SccProp {
            g: Arc::clone(g),
            rev: Arc::clone(rev),
        },
        topo,
        cfg,
    );
    SccOutput {
        labels: labels_of(out.values),
        stats: out.stats,
    }
}

/// Pregel+ basic-mode Min-Label SCC.
pub fn pregel_basic(g: &Arc<Graph>, topo: &Arc<Topology>, cfg: &Config) -> SccOutput {
    let rev = Arc::new(g.reverse());
    let prog = Arc::new(SccPregel {
        g: Arc::clone(g),
        rev,
    });
    let out = run_pregel(prog, topo, cfg, PregelOptions::default());
    SccOutput {
        labels: labels_of(out.values),
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_graph::{gen, reference};

    fn check_all(g: Arc<Graph>, workers: usize) {
        let expect = reference::strongly_connected_components(&g);
        let topo = Arc::new(Topology::hashed(g.n(), workers));
        let cfg = Config::sequential(workers);
        assert_eq!(channel_basic(&g, &topo, &cfg).labels, expect, "basic");
        assert_eq!(channel_propagation(&g, &topo, &cfg).labels, expect, "prop");
        assert_eq!(pregel_basic(&g, &topo, &cfg).labels, expect, "pregel");
    }

    #[test]
    fn planted_cycles_are_recovered() {
        check_all(Arc::new(gen::planted_sccs(10, 6, 60, 5)), 4);
    }

    #[test]
    fn dag_has_singleton_sccs() {
        // A DAG: every vertex is its own SCC.
        let edges: Vec<(u32, u32)> = (0..60u32)
            .flat_map(|i| [(i, i + 1), (i, (i + 7).min(60))])
            .collect();
        check_all(Arc::new(Graph::from_edges(61, &edges, true)), 3);
    }

    #[test]
    fn one_big_cycle() {
        let edges: Vec<(u32, u32)> = (0..100u32).map(|i| (i, (i + 1) % 100)).collect();
        check_all(Arc::new(Graph::from_edges(100, &edges, true)), 4);
    }

    #[test]
    fn rmat_digraph_sccs() {
        check_all(
            Arc::new(gen::rmat(8, 3000, gen::RmatParams::default(), 23, true)),
            4,
        );
    }

    #[test]
    fn propagation_needs_far_fewer_supersteps() {
        let g = Arc::new(gen::planted_sccs(6, 40, 40, 9)); // long cycles
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let cfg = Config::sequential(4);
        let basic = channel_basic(&g, &topo, &cfg);
        let prop = channel_propagation(&g, &topo, &cfg);
        assert_eq!(basic.labels, prop.labels);
        assert!(
            prop.stats.supersteps * 5 < basic.stats.supersteps,
            "prop {} vs basic {} supersteps",
            prop.stats.supersteps,
            basic.stats.supersteps
        );
    }

    #[test]
    fn channel_combining_beats_pregel_bytes() {
        let g = Arc::new(gen::planted_sccs(8, 12, 80, 3));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let cfg = Config::sequential(4);
        let pregel = pregel_basic(&g, &topo, &cfg);
        let channel = channel_basic(&g, &topo, &cfg);
        assert_eq!(pregel.labels, channel.labels);
        assert!(
            channel.stats.remote_bytes() < pregel.stats.remote_bytes(),
            "channel {} vs pregel {}",
            channel.stats.remote_bytes(),
            pregel.stats.remote_bytes()
        );
    }

    #[test]
    fn threaded_matches_sequential() {
        let g = Arc::new(gen::planted_sccs(7, 9, 50, 13));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let a = channel_propagation(&g, &topo, &Config::sequential(4));
        let b = channel_propagation(&g, &topo, &Config::with_workers(4));
        assert_eq!(a.labels, b.labels);
    }
}
