//! Golden pin of what the `Mirror` and `Propagation` channels do, written
//! and recorded at commit b9d5486 — the last one whose two channels keep
//! their adjacency in `Vec<Vec<_>>` + `HashMap` — and required to hold
//! unchanged under any change to how they store or scan it.
//!
//! Every arm is one fixed 4-worker *sequential* run (the deterministic
//! reference every transport is held to by `transport_conformance.rs`)
//! and pins: a digest of the values, supersteps, rounds, and per channel
//! its messages, remote bytes and `mirror_stats()`.
//!
//! `min` folds are order-free, so those arms pin traffic, not order. The
//! PageRank arm folds an `f64` sum, whose last bits move with the order:
//! its digest pins the per-destination fold order of the Mirror channel —
//! at the sender, broadcasts in the order they were issued and a
//! broadcast's edges in registration order; at the receiver, frames by
//! sender, and within a frame the ghost broadcasts in staged order
//! followed by at most one (sender-combined) direct message per
//! destination. Only the order of *different* destinations inside a
//! frame's direct section is free (it was `HashMap` iteration order).

use pc_bsp::{Config, RunStats, Topology};
use pc_ckpt::fnv64;
use pc_graph::{gen, partition};
use std::sync::Arc;

const WORKERS: usize = 4;

/// One line per run: value digest, supersteps, rounds, then
/// `name:messages/remote_bytes/mirrored/saved` per channel.
fn pin(values: impl IntoIterator<Item = u64>, stats: &RunStats) -> String {
    let bytes: Vec<u8> = values.into_iter().flat_map(u64::to_le_bytes).collect();
    let mut line = format!(
        "{:#018x} supersteps={} rounds={}",
        fnv64(&bytes),
        stats.supersteps,
        stats.rounds
    );
    for c in &stats.channels {
        line += &format!(
            " {}:{}/{}/{}/{}",
            c.name, c.messages, c.bytes.remote, c.mirrored, c.mirror_saved
        );
    }
    line
}

fn labels(v: &[u32]) -> impl Iterator<Item = u64> + '_ {
    v.iter().map(|&x| x as u64)
}

fn undirected() -> Arc<pc_graph::Graph> {
    Arc::new(gen::rmat(9, 6000, gen::RmatParams::default(), 11, false).symmetrized())
}

fn directed() -> Arc<pc_graph::Graph> {
    Arc::new(gen::rmat(9, 5000, gen::RmatParams::default(), 12, true))
}

fn cfg() -> Config {
    Config::sequential(WORKERS)
}

/// Degree-sorted LDG owners, with and without the shipped mirror plan:
/// the same hubs broadcast either way, the plan only removes the in-band
/// table shipment.
fn skewed(g: &pc_graph::Graph) -> (Arc<Topology>, Arc<Topology>, usize) {
    let owners = partition::ldg_deg(g, WORKERS, 2);
    let tau = partition::default_mirror_threshold(g);
    let plan =
        partition::build_mirror_plan(g, &Topology::from_owners(WORKERS, owners.clone()), tau);
    assert!(plan.hubs.len() > 8, "the input must have hubs to mirror");
    let in_band = Arc::new(Topology::from_owners(WORKERS, owners.clone()));
    let wired = Arc::new(Topology::from_owners(WORKERS, owners).with_mirror(Arc::new(plan)));
    (wired, in_band, tau)
}

#[test]
fn wcc_mirror_with_a_shipped_plan() {
    let g = undirected();
    let (wired, _, tau) = skewed(&g);
    let o = pc_algos::wcc::channel_mirror(&g, &wired, &cfg(), tau);
    assert_eq!(
        pin(labels(&o.labels), &o.stats),
        "0x023338bdb5c19574 supersteps=4 rounds=6 propagation:1592/12970/0/0 mirror:338/2108/338/8340"
    );
}

#[test]
fn wcc_mirror_with_in_band_tables() {
    let g = undirected();
    let (_, in_band, tau) = skewed(&g);
    let o = pc_algos::wcc::channel_mirror(&g, &in_band, &cfg(), tau);
    assert_eq!(
        pin(labels(&o.labels), &o.stats),
        "0x023338bdb5c19574 supersteps=4 rounds=6 propagation:1592/12970/0/0 mirror:338/6812/338/8340"
    );
}

/// Every vertex registers with the Mirror channel and broadcasts an
/// `f64` share every iteration: hubs as ghosts, the rest as
/// sender-combined direct messages (see the module docs for the order
/// this digest pins).
#[test]
fn pagerank_mirror_fold_order() {
    let g = directed();
    let (wired, in_band, tau) = skewed(&g);
    let run = |topo| {
        let o = pc_algos::pagerank::channel_mirror(&g, topo, &cfg(), 10, tau);
        pin(o.ranks.iter().map(|r| r.to_bits()), &o.stats)
    };
    assert_eq!(
        [run(&wired), run(&in_band)],
        [
            "0x4a0a6d3e80ac55ad supersteps=11 rounds=11 mirror:7140/58680/1530/17680 aggregator:90/1260/0/0",
            "0x4a0a6d3e80ac55ad supersteps=11 rounds=11 mirror:7140/61460/1530/17680 aggregator:90/1260/0/0",
        ]
    );
}

#[test]
fn wcc_propagation() {
    let g = undirected();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    let o = pc_algos::wcc::channel_propagation(&g, &topo, &cfg());
    assert_eq!(
        pin(labels(&o.labels), &o.stats),
        "0x023338bdb5c19574 supersteps=2 rounds=4 propagation:1851/15006/0/0"
    );
}

#[test]
fn scc_propagation() {
    let g = directed();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    let o = pc_algos::scc::channel_propagation(&g, &topo, &cfg());
    assert_eq!(
        pin(labels(&o.labels), &o.stats),
        "0x91835eef324167a6 supersteps=3 rounds=6 propagation:1454/13362/0/0 propagation:1424/13122/0/0"
    );
}

#[test]
fn sssp_propagation() {
    let g = Arc::new(gen::grid2d_weighted(24, 24, 9, 21));
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    let o = pc_algos::sssp::channel_propagation(&g, &topo, &cfg(), 0);
    assert_eq!(
        pin(o.dist.iter().copied(), &o.stats),
        "0x1ba437eb68496713 supersteps=2 rounds=37 propagation:8372/102780/0/0"
    );
}

#[test]
fn bfs_propagation() {
    let g = undirected();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    let o = pc_algos::kernels::bfs(&g, &topo, &cfg(), 0);
    assert_eq!(
        pin(labels(&o.level), &o.stats),
        "0xc5bd84aac6f39c4a supersteps=2 rounds=4 propagation:1083/8790/0/0"
    );
}

// ---- The channels S-V composes, recorded at commit dfa806c, before they
// moved onto dense tables (`ScatterCombine`'s bulk registration,
// `CombinedMessage` without hash tables, `RequestRespond` without a binary
// search). The PageRank arms fold an `f64` sum: `basic` pins
// `CombinedMessage`'s order (a sender folds a destination's messages in
// send order, a receiver folds frames by sender), `scatter` pins the
// by-destination CSR's (destination ascending, then source ascending).

fn hashed(g: &pc_graph::Graph) -> Arc<Topology> {
    Arc::new(Topology::hashed(g.n(), WORKERS))
}

#[test]
fn pagerank_basic_and_scatter_fold_order() {
    let g = directed();
    let topo = hashed(&g);
    let basic = pc_algos::pagerank::channel_basic(&g, &topo, &cfg(), 10);
    let scatter = pc_algos::pagerank::channel_scatter(&g, &topo, &cfg(), 10);
    let pin_ranks =
        |o: &pc_algos::pagerank::PrOutput| pin(o.ranks.iter().map(|r| r.to_bits()), &o.stats);
    assert_eq!(
        [pin_ranks(&basic), pin_ranks(&scatter)],
        [
            "0x39ce2200045ce899 supersteps=11 rounds=11 combined:10120/93720/0/0 aggregator:120/1680/0/0",
            "0x39ce2200045ce899 supersteps=11 rounds=11 scatter:10120/65988/0/0 aggregator:120/1680/0/0",
        ]
    );
}

#[test]
fn sv_composition_grid() {
    let g = undirected();
    let topo = hashed(&g);
    let run = |f: fn(&Arc<pc_graph::Graph>, &Arc<Topology>, &Config) -> pc_algos::sv::SvOutput| {
        let o = f(&g, &topo, &cfg());
        pin(labels(&o.labels), &o.stats)
    };
    assert_eq!(
        [
            run(pc_algos::sv::channel_basic),
            run(pc_algos::sv::channel_reqresp),
            run(pc_algos::sv::channel_scatter),
            run(pc_algos::sv::channel_both),
        ],
        [
            "0x023338bdb5c19574 supersteps=17 rounds=17 direct:4096/16296/0/0 combined:5348/32640/0/0 combined:440/0/0/0 aggregator:48/336/0/0",
            "0x023338bdb5c19574 supersteps=17 rounds=21 reqresp:1728/1064/0/0 combined:5348/32640/0/0 combined:440/0/0/0 aggregator:48/336/0/0",
            "0x023338bdb5c19574 supersteps=17 rounds=17 direct:4096/16296/0/0 scatter:5348/20604/0/0 combined:440/0/0/0 aggregator:48/336/0/0",
            "0x023338bdb5c19574 supersteps=17 rounds=21 reqresp:1728/1064/0/0 scatter:5348/20604/0/0 combined:440/0/0/0 aggregator:48/336/0/0",
        ]
    );
}

#[test]
fn wcc_basic() {
    let g = undirected();
    let o = pc_algos::wcc::channel_basic(&g, &hashed(&g), &cfg());
    assert_eq!(
        pin(labels(&o.labels), &o.stats),
        "0x023338bdb5c19574 supersteps=5 rounds=5 combined:3157/19452/0/0"
    );
}

#[test]
fn sssp_basic() {
    let g = Arc::new(gen::grid2d_weighted(24, 24, 9, 21));
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    let o = pc_algos::sssp::channel_basic(&g, &topo, &cfg(), 0);
    assert_eq!(
        pin(o.dist.iter().copied(), &o.stats),
        "0x1ba437eb68496713 supersteps=47 rounds=47 combined:7279/70056/0/0"
    );
}

// ---- `DirectMessage`, recorded at commit 66860fa, before its receive side
// went through `pc_graph::csr::bucket_by_key`: pointer jumping's asks and
// replies, two `DirectMessage` channels.

#[test]
fn pointer_jumping_basic() {
    let parents = Arc::new(gen::random_forest_parents(3000, 11, 8));
    let topo = Arc::new(Topology::hashed(parents.len(), WORKERS));
    let o = pc_algos::pointer_jumping::channel_basic(&parents, &topo, &cfg());
    assert_eq!(
        pin(labels(&o.roots), &o.stats),
        "0x4f77147c6656f640 supersteps=12 rounds=12 direct:18000/107912/0/0 direct:15000/89992/0/0 aggregator:72/504/0/0"
    );
}
