//! Invariants of the byte/message accounting — the foundation under every
//! "message (GB)" column in the reproduced tables.

use pc_bsp::{Config, Topology};
use pc_graph::gen;
use std::sync::Arc;

#[test]
fn single_worker_has_zero_remote_bytes() {
    // With one worker everything is loop-back; remote must be exactly 0.
    let g = Arc::new(gen::rmat(8, 1500, gen::RmatParams::default(), 1, false));
    let topo = Arc::new(Topology::hashed(g.n(), 1));
    let cfg = Config::sequential(1);
    for stats in [
        pc_algos::wcc::channel_basic(&g, &topo, &cfg).stats,
        pc_algos::sv::channel_both(&g, &topo, &cfg).stats,
        pc_algos::pagerank::channel_scatter(&g, &topo, &cfg, 5).stats,
    ] {
        assert_eq!(stats.remote_bytes(), 0);
        assert!(stats.total_bytes() > 0, "loop-back traffic still counted");
    }
}

#[test]
fn remote_bytes_grow_with_worker_count() {
    // More workers ⇒ a larger share of traffic crosses the "network".
    let g = Arc::new(gen::rmat(9, 4000, gen::RmatParams::default(), 5, false));
    let mut previous = 0u64;
    for workers in [2, 4, 8] {
        let topo = Arc::new(Topology::hashed(g.n(), workers));
        let out = pc_algos::wcc::channel_basic(&g, &topo, &Config::sequential(workers));
        assert!(
            out.stats.remote_bytes() > previous,
            "workers={workers}: {} !> {previous}",
            out.stats.remote_bytes()
        );
        previous = out.stats.remote_bytes();
    }
}

#[test]
fn per_channel_breakdown_is_complete() {
    let g = Arc::new(gen::rmat(8, 2000, gen::RmatParams::default(), 9, false));
    let topo = Arc::new(Topology::hashed(g.n(), 4));
    let out = pc_algos::sv::channel_both(&g, &topo, &Config::sequential(4));
    // S-V (both) = reqresp + scatter + combined + aggregator.
    let names: Vec<&str> = out.stats.channels.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, vec!["reqresp", "scatter", "combined", "aggregator"]);
    // Every channel actually carried traffic in a nontrivial run.
    for c in &out.stats.channels {
        assert!(c.bytes.total() > 0, "channel {} carried nothing", c.name);
    }
    // The total equals the sum of the parts (definitionally, but the
    // accessors must agree).
    let sum: u64 = out.stats.channels.iter().map(|c| c.bytes.remote).sum();
    assert_eq!(out.stats.remote_bytes(), sum);
}

#[test]
fn message_counts_are_deterministic() {
    let g = Arc::new(gen::rmat(8, 1800, gen::RmatParams::default(), 2, false));
    let topo = Arc::new(Topology::hashed(g.n(), 4));
    let a = pc_algos::sv::channel_both(&g, &topo, &Config::sequential(4));
    let b = pc_algos::sv::channel_both(&g, &topo, &Config::sequential(4));
    assert_eq!(a.stats.messages(), b.stats.messages());
    assert_eq!(a.stats.remote_bytes(), b.stats.remote_bytes());
    assert_eq!(a.stats.rounds, b.stats.rounds);
}

#[test]
fn optimized_channels_never_increase_supersteps() {
    let g = Arc::new(gen::rmat(9, 3500, gen::RmatParams::default(), 7, false));
    let topo = Arc::new(Topology::hashed(g.n(), 4));
    let cfg = Config::sequential(4);
    let basic = pc_algos::sv::channel_basic(&g, &topo, &cfg);
    let both = pc_algos::sv::channel_both(&g, &topo, &cfg);
    assert_eq!(basic.stats.supersteps, both.stats.supersteps);
    assert!(both.stats.remote_bytes() < basic.stats.remote_bytes());
}

#[test]
fn scatter_amortizes_ids_across_supersteps() {
    // PageRank over more iterations amortizes the one-time id shipment:
    // the per-iteration byte cost must drop toward the bare-value rate.
    let g = Arc::new(gen::rmat(9, 4000, gen::RmatParams::default(), 3, true));
    let topo = Arc::new(Topology::hashed(g.n(), 4));
    let cfg = Config::sequential(4);
    let short = pc_algos::pagerank::channel_scatter(&g, &topo, &cfg, 1)
        .stats
        .remote_bytes();
    let long = pc_algos::pagerank::channel_scatter(&g, &topo, &cfg, 21)
        .stats
        .remote_bytes();
    // First superstep ships (dst, value) pairs; steady state ships bare
    // values: for f64 messages that is 8/12 of the first-superstep rate.
    let per_iter = (long - short) as f64 / 20.0;
    let first_iter = short as f64;
    assert!(
        per_iter < 0.75 * first_iter,
        "steady-state per-iteration bytes {per_iter} vs first superstep {first_iter}"
    );
}

/// FNV-1a over the little-endian bytes of every value, in vertex order.
fn digest(words: impl Iterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = words.flat_map(u64::to_le_bytes).collect();
    pc_ckpt::fnv64(&bytes)
}

#[test]
fn scatter_wire_format_and_fold_order_are_pinned() {
    // Golden values recorded at 99a0d3f, before ScatterCombine's layout was
    // rewritten: the frame bytes, the message count and — through the bit
    // pattern of every f64 rank — the order in which the combiner folds
    // must survive any change to how the channel stores its routes.
    let topo_of = |g: &pc_graph::Graph| Arc::new(Topology::hashed(g.n(), 4));
    let cfg = Config::sequential(4);

    let g = Arc::new(gen::rmat(9, 4000, gen::RmatParams::default(), 3, true));
    let pr = pc_algos::pagerank::channel_scatter(&g, &topo_of(&g), &cfg, 12);
    assert_eq!(
        (
            pr.stats.total_bytes(),
            pr.stats.remote_bytes(),
            pr.stats.messages(),
            digest(pr.ranks.iter().map(|r| r.to_bits())),
        ),
        (94224, 71072, 11040, 13977011249063954941),
        "pagerank::channel_scatter (total_bytes, remote_bytes, messages, rank digest)"
    );

    let g = Arc::new(gen::rmat(9, 4000, gen::RmatParams::default(), 3, false));
    let sv = pc_algos::sv::channel_both(&g, &topo_of(&g), &cfg);
    assert_eq!(
        (
            sv.stats.total_bytes(),
            sv.stats.remote_bytes(),
            sv.stats.messages(),
            digest(sv.labels.iter().map(|&l| u64::from(l))),
        ),
        (35900, 19632, 7085, 9494958076861828451),
        "sv::channel_both (total_bytes, remote_bytes, messages, label digest)"
    );
}

/// Mirroring pays on a skewed input: a ring with a 2048-leaf hub over four
/// workers on the TCP mesh, hashed propagation WCC against degree-sorted
/// LDG plus a mirror plan. The mirrored run must avoid per-edge sends, put
/// at most three quarters of the baseline's frames on the wire, and at
/// least halve the busiest rank's message volume.
#[test]
fn mirroring_beats_hashed_propagation_on_a_skewed_ring() {
    let workers = 4;
    let g = Arc::new(gen::ring_with_hub(512, 2048));
    let cfg = Config::tcp(workers);
    let hashed = Arc::new(Topology::hashed(g.n(), workers));
    let base = pc_algos::wcc::channel_propagation(&g, &hashed, &cfg).stats;

    let owners = pc_graph::partition::ldg_deg(&*g, workers, 2);
    let placed = Topology::from_owners(workers, owners);
    let tau = pc_graph::partition::default_mirror_threshold(&*g);
    let plan = pc_graph::partition::build_mirror_plan(&*g, &placed, tau);
    let topo = Arc::new(placed.with_mirror(Arc::new(plan)));
    let mirr = pc_algos::wcc::channel_mirror(&g, &topo, &cfg, tau).stats;

    assert!(mirr.mirror_saved() > 0, "mirroring saved no sends");
    let frames = (mirr.transport.frames, base.transport.frames);
    assert!(
        4 * frames.0 <= 3 * frames.1,
        "frames (mirrored, hashed): {frames:?}"
    );
    let busiest = (mirr.max_rank_msgs, base.max_rank_msgs);
    assert!(
        2 * busiest.0 <= busiest.1,
        "max rank messages (mirrored, hashed): {busiest:?}"
    );
}

/// Table V (middle), pointer jumping, as shape: on a random tree and on a
/// chain, the channel basic program sends exactly Pregel+'s basic bytes in
/// as many supersteps, and the channel request-respond program sends
/// clearly fewer bytes than Pregel+'s reqresp mode in as many supersteps
/// — positional replies drop the id a Pregel+ response carries (the
/// paper's ratio is 2.62 / 1.75 ≈ 1.50).
#[test]
fn table5_pointer_jumping_shape() {
    let workers = 4;
    let cfg = Config::sequential(workers);
    for (name, parents) in [
        ("tree", gen::random_forest_parents(1024, 1, 0x5eed_0005)),
        ("chain", gen::chain_parents(1024)),
    ] {
        use pc_algos::pointer_jumping as pj;
        let parents = Arc::new(parents);
        let topo = Arc::new(Topology::hashed(parents.len(), workers));
        let pb = pj::pregel_basic(&parents, &topo, &cfg).stats;
        let pr = pj::pregel_reqresp(&parents, &topo, &cfg).stats;
        let cb = pj::channel_basic(&parents, &topo, &cfg).stats;
        let cr = pj::channel_reqresp(&parents, &topo, &cfg).stats;
        // tree: 67 702 B / 12 supersteps; chain: 143 246 B / 24.
        assert_eq!(
            (cb.remote_bytes(), cb.supersteps),
            (pb.remote_bytes(), pb.supersteps),
            "{name}: channel basic vs pregel+ basic (remote bytes, supersteps)"
        );
        assert_eq!(cr.supersteps, pr.supersteps, "{name}: reqresp supersteps");
        // tree: 16 212 vs 11 220 B; chain: 85 596 vs 57 932 B.
        let ratio = pr.remote_bytes() as f64 / cr.remote_bytes() as f64;
        assert!(
            ratio > 1.3,
            "{name}: pregel+ reqresp {} B / channel reqresp {} B = {ratio:.2}",
            pr.remote_bytes(),
            cr.remote_bytes()
        );
    }
}

/// Table VII, min-label SCC, as shape: under hashed and under LDG
/// placement, remote bytes fall from Pregel+ basic to channel basic to
/// channel propagation, and the propagation floods finish in far fewer
/// supersteps than one hop per superstep. All three agree on the labels.
#[test]
fn table7_min_label_scc_shape() {
    let workers = 4;
    let cfg = Config::sequential(workers);
    let g = Arc::new(gen::planted_sccs(21, 24, 512, 0x5eed_0008));
    let hashed = Topology::hashed(g.n(), workers);
    let ldg = Topology::from_owners(workers, pc_graph::partition::ldg(&*g, workers, 2));
    for (name, topo) in [("hashed", hashed), ("ldg", ldg)] {
        use pc_algos::scc;
        let topo = Arc::new(topo);
        let pb = scc::pregel_basic(&g, &topo, &cfg);
        let cb = scc::channel_basic(&g, &topo, &cfg);
        let cp = scc::channel_propagation(&g, &topo, &cfg);
        assert_eq!(cb.labels, pb.labels, "{name}: channel basic labels");
        assert_eq!(cp.labels, pb.labels, "{name}: propagation labels");
        // hashed: 1 023 507 > 877 150 > 760 215 B.
        let bytes = [&pb, &cb, &cp].map(|o| o.stats.remote_bytes());
        assert!(
            bytes[0] > bytes[1] && bytes[1] > bytes[2],
            "{name}: remote bytes (pregel+ basic, channel basic, propagation) {bytes:?}"
        );
        // hashed: 21 vs 675.
        assert!(
            cp.stats.supersteps < cb.stats.supersteps,
            "{name}: supersteps (propagation, basic) ({}, {})",
            cp.stats.supersteps,
            cb.stats.supersteps
        );
    }
}
