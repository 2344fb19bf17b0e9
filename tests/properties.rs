//! Property-based tests (proptest): invariants of the channel system and
//! the algorithms over randomly generated graphs, partitions and values.
//!
//! The cross-*transport* arm of these invariants (sequential vs
//! in-process vs tcp) lives in `tests/transport_conformance.rs`; both
//! share the everything-observable contract of
//! [`common::assert_stats_agree`].

mod common;

use common::{assert_stats_agree, with_watchdog};
use pc_bsp::codec::{Codec, Reader};
use pc_bsp::{Config, Topology};
use pc_graph::{reference, Graph};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a random undirected graph with up to `n` vertices.
fn undirected_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m)
            .prop_map(move |edges| Graph::from_edges(n, &edges, false))
    })
}

/// Strategy: a random directed graph.
fn directed_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..max_m)
            .prop_map(move |edges| Graph::from_edges(n, &edges, true))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every S-V composition equals union-find on arbitrary graphs.
    #[test]
    fn sv_matches_union_find(g in undirected_graph(120, 300), workers in 1usize..5) {
        let g = Arc::new(g);
        let oracle = reference::connected_components(&g);
        let topo = Arc::new(Topology::hashed(g.n(), workers));
        let cfg = Config::sequential(workers);
        prop_assert_eq!(&pc_algos::sv::channel_basic(&g, &topo, &cfg).labels, &oracle);
        prop_assert_eq!(&pc_algos::sv::channel_both(&g, &topo, &cfg).labels, &oracle);
    }

    /// WCC propagation equals WCC message-passing equals union-find.
    #[test]
    fn wcc_variants_agree(g in undirected_graph(150, 350), workers in 1usize..5) {
        let g = Arc::new(g);
        let oracle = reference::connected_components(&g);
        let topo = Arc::new(Topology::hashed(g.n(), workers));
        let cfg = Config::sequential(workers);
        prop_assert_eq!(&pc_algos::wcc::channel_basic(&g, &topo, &cfg).labels, &oracle);
        prop_assert_eq!(&pc_algos::wcc::channel_propagation(&g, &topo, &cfg).labels, &oracle);
    }

    /// Degree-sorted LDG respects the same hard capacity bound as plain
    /// LDG on arbitrary graphs — streaming hubs first must never cost
    /// balance — and the mirrored WCC composition over its placement
    /// still equals union-find.
    #[test]
    fn ldg_deg_stays_within_capacity_slack(
        g in undirected_graph(150, 400),
        parts in 2usize..5,
        tau in 1usize..32,
    ) {
        let owners = pc_graph::partition::ldg_deg(&g, parts, 2);
        let sizes = pc_graph::partition::part_sizes(&owners, parts);
        // The LDG capacity rule: no vertex lands on a part already at
        // capacity while an under-capacity part exists, so every part
        // stays ≤ ⌈n/parts · 1.1⌉ + slack.
        let capacity = g.n() as f64 / parts as f64 * 1.1 + 2.0;
        for (p, &s) in sizes.iter().enumerate() {
            prop_assert!(
                (s as f64) <= capacity,
                "part {} holds {} of {} vertices (capacity {:.1})",
                p, s, g.n(), capacity
            );
        }
        let g = Arc::new(g);
        let oracle = reference::connected_components(&g);
        let base = Topology::from_owners(parts, owners);
        let plan = pc_graph::partition::build_mirror_plan(&g, &base, tau);
        let topo = Arc::new(base.with_mirror(Arc::new(plan)));
        let cfg = Config::sequential(parts);
        prop_assert_eq!(
            &pc_algos::wcc::channel_mirror(&g, &topo, &cfg, tau).labels,
            &oracle
        );
    }

    /// SCC Min-Label equals Tarjan on arbitrary digraphs.
    #[test]
    fn scc_matches_tarjan(g in directed_graph(60, 150), workers in 1usize..4) {
        let g = Arc::new(g);
        let oracle = reference::strongly_connected_components(&g);
        let topo = Arc::new(Topology::hashed(g.n(), workers));
        let cfg = Config::sequential(workers);
        prop_assert_eq!(&pc_algos::scc::channel_basic(&g, &topo, &cfg).labels, &oracle);
        prop_assert_eq!(&pc_algos::scc::channel_propagation(&g, &topo, &cfg).labels, &oracle);
    }

    /// PageRank conserves probability mass on arbitrary digraphs.
    #[test]
    fn pagerank_mass_conservation(g in directed_graph(100, 250), workers in 1usize..5) {
        let g = Arc::new(g);
        let topo = Arc::new(Topology::hashed(g.n(), workers));
        let cfg = Config::sequential(workers);
        let out = pc_algos::pagerank::channel_scatter(&g, &topo, &cfg, 8);
        let total: f64 = out.ranks.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "mass = {}", total);
    }

    /// Pointer jumping resolves arbitrary forests.
    #[test]
    fn pointer_jumping_resolves(
        parents in (2usize..200).prop_flat_map(|n| {
            proptest::collection::vec(0u32..n as u32, n).prop_map(move |mut p| {
                // Make it a valid forest: parent index < own index, or self.
                for (i, slot) in p.iter_mut().enumerate() {
                    if *slot as usize >= i {
                        *slot = i as u32;
                    }
                }
                p
            })
        }),
        workers in 1usize..5,
    ) {
        let parents = Arc::new(parents);
        let oracle = reference::forest_roots(&parents);
        let topo = Arc::new(Topology::hashed(parents.len(), workers));
        let cfg = Config::sequential(workers);
        prop_assert_eq!(&pc_algos::pointer_jumping::channel_basic(&parents, &topo, &cfg).roots, &oracle);
        prop_assert_eq!(&pc_algos::pointer_jumping::channel_reqresp(&parents, &topo, &cfg).roots, &oracle);
    }

    /// The codec round-trips arbitrary values and value sequences.
    #[test]
    fn codec_roundtrip(values in proptest::collection::vec((any::<u32>(), any::<u64>(), any::<bool>()), 0..50)) {
        let mut buf = Vec::new();
        values.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let back: Vec<(u32, u64, bool)> = r.get();
        prop_assert!(r.is_empty());
        prop_assert_eq!(back, values);
    }

    /// Floats survive the wire.
    #[test]
    fn codec_floats(values in proptest::collection::vec(any::<f64>(), 0..40)) {
        let mut buf = Vec::new();
        values.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let back: Vec<f64> = r.get();
        for (a, b) in back.iter().zip(&values) {
            prop_assert!(a == b || (a.is_nan() && b.is_nan()));
        }
    }

    /// Topologies index consistently for arbitrary owner vectors.
    #[test]
    fn topology_indexing(owners in proptest::collection::vec(0u16..6, 1..300)) {
        let topo = Topology::from_owners(6, owners.clone());
        for (v, &w) in owners.iter().enumerate() {
            prop_assert_eq!(topo.worker_of(v as u32), w as usize);
            let local = topo.local_of(v as u32);
            prop_assert_eq!(topo.locals(w as usize)[local as usize], v as u32);
        }
        let total: usize = (0..6).map(|w| topo.local_count(w)).sum();
        prop_assert_eq!(total, owners.len());
    }

    /// Sequential and threaded execution agree bit-for-bit on results and
    /// byte counts.
    #[test]
    fn exec_modes_agree(g in undirected_graph(100, 220), workers in 2usize..5) {
        with_watchdog(common::BOUND, move || {
            let g = Arc::new(g);
            let topo = Arc::new(Topology::hashed(g.n(), workers));
            let a = pc_algos::sv::channel_both(&g, &topo, &Config::sequential(workers));
            let b = pc_algos::sv::channel_both(&g, &topo, &Config::with_workers(workers));
            prop_assert_eq!(a.labels, b.labels);
            prop_assert_eq!(a.stats.remote_bytes(), b.stats.remote_bytes());
            prop_assert_eq!(a.stats.supersteps, b.stats.supersteps);
            prop_assert_eq!(a.stats.rounds, b.stats.rounds);
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every shipped algorithm produces identical results, bytes, rounds
    /// and pool traffic in Sequential and Threads mode on random graphs —
    /// the correctness anchor for the pooled/fused/worklist engine.
    #[test]
    fn all_algorithms_agree_across_exec_modes(
        g in undirected_graph(90, 240),
        dg in directed_graph(70, 180),
        workers in 2usize..5,
    ) {
        with_watchdog(common::BOUND, move || {
            let g = Arc::new(g);
            let dg = Arc::new(dg);
            let seq = Config::sequential(workers);
            let thr = Config::with_workers(workers);

            let topo = Arc::new(Topology::hashed(g.n(), workers));
            let dtopo = Arc::new(Topology::hashed(dg.n(), workers));

            let (a, b) = (pc_algos::wcc::channel_basic(&g, &topo, &seq),
                          pc_algos::wcc::channel_basic(&g, &topo, &thr));
            prop_assert_eq!(&a.labels, &b.labels);
            assert_stats_agree("wcc_basic", &a.stats, &b.stats);

            let (a, b) = (pc_algos::wcc::channel_propagation(&g, &topo, &seq),
                          pc_algos::wcc::channel_propagation(&g, &topo, &thr));
            prop_assert_eq!(&a.labels, &b.labels);
            assert_stats_agree("wcc_propagation", &a.stats, &b.stats);

            let (a, b) = (pc_algos::sv::channel_both(&g, &topo, &seq),
                          pc_algos::sv::channel_both(&g, &topo, &thr));
            prop_assert_eq!(&a.labels, &b.labels);
            assert_stats_agree("sv_both", &a.stats, &b.stats);

            let (a, b) = (pc_algos::sv::channel_reqresp(&g, &topo, &seq),
                          pc_algos::sv::channel_reqresp(&g, &topo, &thr));
            prop_assert_eq!(&a.labels, &b.labels);
            assert_stats_agree("sv_reqresp", &a.stats, &b.stats);

            let (a, b) = (pc_algos::pagerank::channel_scatter(&dg, &dtopo, &seq, 6),
                          pc_algos::pagerank::channel_scatter(&dg, &dtopo, &thr, 6));
            prop_assert_eq!(&a.ranks, &b.ranks);
            assert_stats_agree("pagerank_scatter", &a.stats, &b.stats);

            let (a, b) = (pc_algos::scc::channel_propagation(&dg, &dtopo, &seq),
                          pc_algos::scc::channel_propagation(&dg, &dtopo, &thr));
            prop_assert_eq!(&a.labels, &b.labels);
            assert_stats_agree("scc_propagation", &a.stats, &b.stats);

            let (a, b) = (pc_algos::kernels::bfs(&g, &topo, &seq, 0),
                          pc_algos::kernels::bfs(&g, &topo, &thr, 0));
            prop_assert_eq!(&a.level, &b.level);
            assert_stats_agree("bfs", &a.stats, &b.stats);

            let (a, b) = (pc_algos::kernels::kcore(&g, &topo, &seq, 2),
                          pc_algos::kernels::kcore(&g, &topo, &thr, 2));
            prop_assert_eq!(&a.in_core, &b.in_core);
            assert_stats_agree("kcore", &a.stats, &b.stats);
        });
    }

    /// Pointer jumping and the weighted algorithms agree across modes too.
    #[test]
    fn weighted_and_forest_algorithms_agree_across_exec_modes(
        n in 4usize..120,
        seed in 0u64..1000,
        workers in 2usize..5,
    ) {
        with_watchdog(common::BOUND, move || {
            let seq = Config::sequential(workers);
            let thr = Config::with_workers(workers);

            let parents = Arc::new(pc_graph::gen::random_forest_parents(n, 1 + n / 20, seed));
            let ptopo = Arc::new(Topology::hashed(parents.len(), workers));
            let (a, b) = (pc_algos::pointer_jumping::channel_reqresp(&parents, &ptopo, &seq),
                          pc_algos::pointer_jumping::channel_reqresp(&parents, &ptopo, &thr));
            prop_assert_eq!(&a.roots, &b.roots);
            assert_stats_agree("pj_reqresp", &a.stats, &b.stats);

            let side = 2 + n / 20;
            let wg = Arc::new(pc_graph::gen::grid2d_weighted(side, side, 9, seed));
            let wtopo = Arc::new(Topology::hashed(wg.n(), workers));
            let (a, b) = (pc_algos::sssp::channel_propagation(&wg, &wtopo, &seq, 0),
                          pc_algos::sssp::channel_propagation(&wg, &wtopo, &thr, 0));
            prop_assert_eq!(&a.dist, &b.dist);
            assert_stats_agree("sssp_propagation", &a.stats, &b.stats);

            let (a, b) = (pc_algos::msf::channel_basic(&wg, &wtopo, &seq),
                          pc_algos::msf::channel_basic(&wg, &wtopo, &thr));
            prop_assert_eq!(&a.total_weight, &b.total_weight);
            assert_stats_agree("msf", &a.stats, &b.stats);
        });
    }
}

/// The headline acceptance check: after warm-up the exchange path stops
/// allocating. A long PageRank run must reach a ≥ 99% pool hit rate, and
/// the pool traffic must be identical in both execution modes.
#[test]
fn steady_state_pool_hit_rate_exceeds_99_percent() {
    with_watchdog(common::BOUND, || {
        let g = Arc::new(pc_graph::gen::rmat(
            10,
            9 << 10,
            pc_graph::gen::RmatParams::default(),
            5,
            true,
        ));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let seq = pc_algos::pagerank::channel_scatter(&g, &topo, &Config::sequential(4), 400);
        let thr = pc_algos::pagerank::channel_scatter(&g, &topo, &Config::with_workers(4), 400);
        for (mode, out) in [("sequential", &seq), ("threads", &thr)] {
            assert!(
                out.stats.pool_hit_rate() >= 0.99,
                "{mode}: steady-state pool hit rate {:.4} below 99% (hits {}, misses {})",
                out.stats.pool_hit_rate(),
                out.stats.pool.hits,
                out.stats.pool.misses,
            );
        }
        assert_eq!(
            seq.stats.pool, thr.stats.pool,
            "pool traffic is mode-independent"
        );
    });
}

/// Threaded rounds cross the barrier exactly twice in steady state.
#[test]
fn threaded_round_crosses_barrier_at_most_twice() {
    with_watchdog(common::BOUND, || {
        let g = Arc::new(pc_graph::gen::rmat(
            9,
            9 << 9,
            pc_graph::gen::RmatParams::default(),
            6,
            true,
        ));
        let topo = Arc::new(Topology::hashed(g.n(), 4));
        let out = pc_algos::pagerank::channel_scatter(&g, &topo, &Config::with_workers(4), 30);
        let per_round = out.stats.crossings_per_round();
        assert!(
            per_round <= 2.1,
            "expected ≤ 2 barrier crossings per round, measured {per_round:.3} \
             ({} crossings / {} rounds)",
            out.stats.barrier_crossings,
            out.stats.rounds,
        );
    });
}
