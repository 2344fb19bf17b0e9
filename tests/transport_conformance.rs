//! Backend-conformance harness: every exchange transport must be
//! observationally identical.
//!
//! The channel abstraction separates what a channel computes from how
//! messages move between workers; this suite pins the second half down.
//! For every shipped algorithm, four backend configurations — sequential
//! (the deterministic reference), threaded over the shared-memory hub,
//! threaded over a real loopback socket mesh, and one-worker-per-"process"
//! ranks over a shared socket mesh (the multi-process driver, gather
//! included) — must produce identical values, message counts, byte
//! counts, supersteps, rounds, pool traffic, and per-round wire order. A
//! transport that reorders, drops, duplicates or re-times anything fails
//! here first. (Real separate-OS-process conformance, partition shipping
//! included, is pinned by `tests/dist_multiprocess.rs` via `pcgraph
//! --ranks N --verify`.)

mod common;

use common::{assert_stats_agree, conformance_configs, run_multirank, with_watchdog};
use pc_bsp::tcp::{self, MeshListener, Tcp, TcpOptions};
use pc_bsp::{Config, ExchangeTransport, RunStats, Topology};
use pc_graph::gen;
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::Arc;

const WORKERS: usize = 4;

/// Run one algorithm under all four backend configurations and assert
/// the values and every observable statistic agree with the sequential
/// reference.
fn conform<V: PartialEq + std::fmt::Debug + Send>(
    name: &str,
    run: impl Fn(&Config) -> (V, RunStats) + Sync,
) {
    let configs = conformance_configs(WORKERS);
    let (base_label, base_cfg) = &configs[0];
    let (base_values, base_stats) = run(base_cfg);
    for (label, cfg) in &configs[1..] {
        let (values, stats) = run(cfg);
        assert!(
            values == base_values,
            "{name}: values diverge between {base_label} and {label}"
        );
        assert_stats_agree(
            &format!("{name} ({base_label} vs {label})"),
            &base_stats,
            &stats,
        );
    }
    // The multi-process arm: every rank in its own engine driver over a
    // shared mesh, results gathered to rank 0 over the wire.
    let (values, stats) = run_multirank(WORKERS, &run);
    assert!(
        values == base_values,
        "{name}: values diverge between {base_label} and multi-process ranks"
    );
    assert_stats_agree(
        &format!("{name} ({base_label} vs multi-process ranks)"),
        &base_stats,
        &stats,
    );
}

fn undirected() -> Arc<pc_graph::Graph> {
    Arc::new(gen::rmat(8, 1400, gen::RmatParams::default(), 11, false).symmetrized())
}

fn directed() -> Arc<pc_graph::Graph> {
    Arc::new(gen::rmat(8, 1800, gen::RmatParams::default(), 12, true))
}

#[test]
fn pagerank_conforms() {
    let g = directed();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    conform("pagerank_scatter", |cfg| {
        let o = pc_algos::pagerank::channel_scatter(&g, &topo, cfg, 12);
        (o.ranks, o.stats)
    });
}

#[test]
fn wcc_conforms() {
    let g = undirected();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    conform("wcc_propagation", |cfg| {
        let o = pc_algos::wcc::channel_propagation(&g, &topo, cfg);
        (o.labels, o.stats)
    });
    conform("wcc_basic", |cfg| {
        let o = pc_algos::wcc::channel_basic(&g, &topo, cfg);
        (o.labels, o.stats)
    });
}

/// The skew-resistant composition (degree-sorted LDG owners + a shipped
/// mirror plan pre-wiring the Mirror channel) is observationally
/// identical across every transport, multi-process ranks included.
#[test]
fn wcc_mirror_conforms() {
    let g = undirected();
    let owners = pc_graph::partition::ldg_deg(&*g, WORKERS, 2);
    let base = Topology::from_owners(WORKERS, owners);
    let tau = pc_graph::partition::default_mirror_threshold(&*g);
    let plan = pc_graph::partition::build_mirror_plan(&*g, &base, tau);
    let topo = Arc::new(base.with_mirror(Arc::new(plan)));
    conform("wcc_mirror", |cfg| {
        let o = pc_algos::wcc::channel_mirror(&g, &topo, cfg, tau);
        (o.labels, o.stats)
    });
    conform("pagerank_mirror", |cfg| {
        let o = pc_algos::pagerank::channel_mirror(&g, &topo, cfg, 10, tau);
        (o.ranks, o.stats)
    });
}

/// A rank's shipped plan keeps every hub's id and peers but only that
/// rank's mirror targets. What the Mirror channel pre-wires from it on
/// that rank — every table `encode_tables` writes — is byte for byte what
/// it pre-wires from the full plan: the restriction drops nothing a rank
/// reads.
#[test]
fn a_rank_plan_prewires_what_the_full_plan_does() {
    use pc_channels::{Channel, Combine, Mirror, WorkerEnv};
    use pc_dist::ship;
    use pc_graph::partition;
    for g in [Arc::new(gen::ring_with_hub(64, 200)), undirected()] {
        let tau = partition::default_mirror_threshold(&*g);
        for workers in 2..=4 {
            let ldg = partition::ldg_deg(&*g, workers, 2);
            for base in [
                Topology::hashed(g.n(), workers),
                Topology::from_owners(workers, ldg),
            ] {
                let owner: Vec<u16> = (0..g.n() as u32)
                    .map(|v| base.worker_of(v) as u16)
                    .collect();
                let plan = partition::build_mirror_plan(&*g, &base, tau);
                assert!(!plan.hubs.is_empty(), "the input must have hubs to mirror");
                let full = Arc::new(base.with_mirror(Arc::new(plan.clone())));
                for rank in 0..workers {
                    let payload = ship::encode_rank_plan(&owner, &[&*g], Some(&plan), rank);
                    let (owner, _, own) = ship::decode_plan::<()>(&payload).unwrap();
                    let own =
                        Topology::from_owners(workers, owner).with_mirror(Arc::new(own.unwrap()));
                    let tables = |topo: Arc<Topology>| {
                        let env = WorkerEnv { worker: rank, topo };
                        let mut buf = Vec::new();
                        let mirror = Mirror::<u32>::new(&env, Combine::min_u32(), tau);
                        Channel::<u32>::encode_tables(&mirror, &mut buf);
                        buf
                    };
                    assert!(
                        tables(Arc::new(own)) == tables(Arc::clone(&full)),
                        "{} vertices, rank {rank} of {workers}: the tables differ",
                        g.n()
                    );
                }
            }
        }
    }
}

#[test]
fn sv_conforms() {
    let g = undirected();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    conform("sv_both", |cfg| {
        let o = pc_algos::sv::channel_both(&g, &topo, cfg);
        (o.labels, o.stats)
    });
}

#[test]
fn scc_conforms() {
    let g = directed();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    conform("scc_propagation", |cfg| {
        let o = pc_algos::scc::channel_propagation(&g, &topo, cfg);
        (o.labels, o.stats)
    });
}

#[test]
fn sssp_conforms() {
    let g = Arc::new(gen::grid2d_weighted(14, 14, 9, 21));
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    conform("sssp_propagation", |cfg| {
        let o = pc_algos::sssp::channel_propagation(&g, &topo, cfg, 0);
        (o.dist, o.stats)
    });
}

#[test]
fn bfs_conforms() {
    let g = undirected();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    conform("bfs", |cfg| {
        let o = pc_algos::kernels::bfs(&g, &topo, cfg, 0);
        (o.level, o.stats)
    });
}

#[test]
fn kcore_conforms() {
    let g = undirected();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    conform("kcore", |cfg| {
        let o = pc_algos::kernels::kcore(&g, &topo, cfg, 2);
        (o.in_core, o.stats)
    });
}

#[test]
fn msf_conforms() {
    let g = Arc::new(gen::rmat_weighted(
        8,
        1200,
        gen::RmatParams::default(),
        13,
        false,
        1000,
    ));
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    conform("msf", |cfg| {
        let o = pc_algos::msf::channel_basic(&g, &topo, cfg);
        ((o.total_weight, o.edge_count), o.stats)
    });
}

#[test]
fn pointer_jumping_conforms() {
    let parents = Arc::new(gen::random_forest_parents(180, 9, 17));
    let topo = Arc::new(Topology::hashed(parents.len(), WORKERS));
    conform("pj_reqresp", |cfg| {
        let o = pc_algos::pointer_jumping::channel_reqresp(&parents, &topo, cfg);
        (o.roots, o.stats)
    });
}

/// `bfs_chain` in miniature: BFS down a label-permuted path over four
/// workers — hundreds of rounds of at most one message, in each of which
/// the workers that relaxed nothing serialize `Propagation` late, after
/// the exchange told them another worker asked for the round.
#[test]
fn permuted_path_bfs_conforms() {
    let n = 300usize;
    let mut label: Vec<u32> = (0..n as u32).collect();
    let mut x = 7u64;
    for i in (1..n).rev() {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        label.swap(i, (x >> 33) as usize % (i + 1));
    }
    let edges: Vec<(u32, u32)> = label.windows(2).map(|w| (w[0], w[1])).collect();
    let g = Arc::new(pc_graph::Graph::from_edges(n, &edges, false));
    let topo = Arc::new(Topology::hashed(n, WORKERS));
    conform("bfs_permuted_path", |cfg| {
        let o = pc_algos::kernels::bfs(&g, &topo, cfg, label[0]);
        assert!(o.stats.rounds > 100, "{} rounds", o.stats.rounds);
        (o.level, o.stats)
    });
}

/// Run `run` once per rank, each rank over its own `Tcp::mesh` object
/// with its listener bound on `ip`, the way separate processes would.
/// Returns every rank's output and wire counters (`wire_bytes`, `frames`,
/// `coalesced_frames`).
fn run_mesh_on<V: Send, F>(ip: IpAddr, run: &F) -> Vec<(V, RunStats, [u64; 3])>
where
    F: Fn(&Config) -> (V, RunStats) + Sync,
{
    let listeners: Vec<MeshListener> = (0..WORKERS)
        .map(|r| MeshListener::bind(ip, r).unwrap())
        .collect();
    let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(w, listener)| {
                let addrs = addrs.clone();
                s.spawn(move || {
                    let tcp = Tcp::mesh(w, addrs, listener, TcpOptions::default()).unwrap();
                    let tcp = Arc::new(tcp);
                    let (values, stats) = run(&Config::rank(WORKERS, w, Arc::clone(&tcp)));
                    let wire = tcp.worker_stats(w);
                    (
                        values,
                        stats,
                        [wire.wire_bytes, wire.frames, wire.coalesced_frames],
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Both link kinds carry byte-identical runs: PageRank over a mesh of
/// shared-memory ring links (listeners on 127.0.0.1) and over a mesh of
/// TCP links (listeners on 0.0.0.0, which the link rule does not class as
/// loopback) agree on every rank's values, bytes, messages, supersteps,
/// rounds, pool traffic and wire counters — on a small graph, and on one
/// whose per-peer `DATA` frames (≈ 150 KB) outgrow a 128 KiB ring.
#[test]
fn unix_and_tcp_links_conform() {
    let loopback = IpAddr::V4(Ipv4Addr::LOCALHOST);
    let any = IpAddr::V4(Ipv4Addr::UNSPECIFIED);
    assert!(tcp::is_local_link(&(loopback, 1).into()));
    assert!(!tcp::is_local_link(&(any, 1).into()));
    let bulky = Arc::new(gen::rmat(18, 600_000, gen::RmatParams::default(), 12, true));
    for (g, iters) in [(directed(), 12), (bulky, 2)] {
        let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
        let run = |cfg: &Config| {
            let o = pc_algos::pagerank::channel_scatter(&g, &topo, cfg, iters);
            (o.ranks, o.stats)
        };
        let ring = run_mesh_on(loopback, &run);
        let tcp = run_mesh_on(any, &run);
        for (w, (ring, tcp)) in ring.iter().zip(&tcp).enumerate() {
            assert!(
                ring.0 == tcp.0,
                "rank {w}: values diverge between link kinds"
            );
            assert_stats_agree(&format!("rank {w} (ring vs tcp links)"), &ring.1, &tcp.1);
            assert_eq!(ring.2, tcp.2, "rank {w}: wire counters diverge");
            let transport = |s: &RunStats| (s.transport.wire_bytes, s.transport.frames);
            assert_eq!(transport(&ring.1), transport(&tcp.1), "rank {w}");
        }
    }
}

mod partial {
    use pc_channels::{Algorithm, RequestRespond, VertexCtx, WorkerEnv};

    /// Only vertices on workers 0 and 1 request, and only from each
    /// other: workers 2 and 3 see no request traffic, answer `again() ==
    /// false` after the request round, and serialize `RequestRespond`'s
    /// respond round late.
    pub struct PartialRequests {
        pub targets: Vec<Option<u32>>,
    }

    impl Algorithm for PartialRequests {
        type Value = u64;
        type Channels = (RequestRespond<u64, u64>,);
        pc_channels::dist_value_via_codec!();
        fn channels(&self, env: &WorkerEnv) -> Self::Channels {
            (RequestRespond::new(env, |v: &u64| *v),)
        }
        fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, ch: &mut Self::Channels) {
            let target = self.targets[v.id as usize];
            if v.step() == 1 {
                *value = 3 * v.id as u64 + 1;
                if let Some(t) = target {
                    ch.0.add_request(t);
                    return;
                }
            } else if let Some(t) = target {
                *value += ch.0.get_respond(t).copied().expect("requested last step");
            }
            v.vote_to_halt();
        }
    }
}

#[test]
fn partial_reqresp_conforms() {
    let n = 120usize;
    let topo = Arc::new(Topology::hashed(n, WORKERS));
    let askers: Vec<u32> = (0..n as u32).filter(|&v| topo.worker_of(v) < 2).collect();
    let mut targets = vec![None; n];
    for (i, &v) in askers.iter().enumerate() {
        targets[v as usize] = Some(askers[(i * 7 + 3) % askers.len()]);
    }
    let algo = partial::PartialRequests { targets };
    conform("reqresp_partial", |cfg| {
        let o = pc_channels::run(&algo, &topo, cfg);
        assert_eq!(o.stats.rounds, 3, "request + respond, then one empty round");
        (o.values, o.stats)
    });
}

/// A program with no channels: every superstep is its confirming
/// exchange alone, which must still sum the active counts right.
#[test]
fn channel_free_supersteps_conform() {
    struct CountDown;
    impl pc_channels::Algorithm for CountDown {
        type Value = u64;
        type Channels = ();
        pc_channels::dist_value_via_codec!();
        fn channels(&self, _env: &pc_channels::WorkerEnv) -> Self::Channels {}
        fn compute(&self, v: &mut pc_channels::VertexCtx<'_>, value: &mut u64, _ch: &mut ()) {
            *value += v.id as u64;
            if v.step() > (v.id as u64 % 5) {
                v.vote_to_halt();
            }
        }
    }
    let topo = Arc::new(Topology::hashed(90, WORKERS));
    conform("channel_free", |cfg| {
        let o = pc_channels::run(&CountDown, &topo, cfg);
        assert_eq!((o.stats.supersteps, o.stats.rounds), (5, 0));
        (o.values, o.stats)
    });
}

/// A worker that panics alone must not hang its peers: its unwinding
/// poisons the in-process hub, every peer's wait fails, and the run ends
/// with the original panic, not a peer's report of it.
#[test]
fn a_worker_panicking_alone_fails_the_run_with_its_message() {
    use pc_channels::{Algorithm, Combine, ScatterCombine, VertexCtx, WorkerEnv};
    struct GivesUp {
        topo: Arc<Topology>,
    }
    impl Algorithm for GivesUp {
        type Value = u64;
        type Channels = (ScatterCombine<u64>,);
        pc_channels::dist_value_via_codec!();
        fn channels(&self, env: &WorkerEnv) -> Self::Channels {
            (ScatterCombine::new(env, Combine::sum_u64()),)
        }
        fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, ch: &mut Self::Channels) {
            if v.step() == 1 {
                ch.0.add_edge(v.local, (v.id + 1) % v.num_vertices() as u32);
            }
            if v.step() == 3 && self.topo.worker_of(v.id) == 2 {
                panic!("worker 2 gives up at superstep 3");
            }
            *value += ch.0.get_or_identity(v.local);
            ch.0.set_message(v.local, 1);
        }
    }
    let message = with_watchdog(std::time::Duration::from_secs(30), || {
        let topo = Arc::new(Topology::hashed(400, WORKERS));
        let algo = GivesUp {
            topo: Arc::clone(&topo),
        };
        let cfg = Config::with_workers(WORKERS);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drop(pc_channels::run(&algo, &topo, &cfg))
        }))
        .expect_err("the run survived a worker's panic")
        .downcast_ref::<&str>()
        .map(|m| m.to_string())
    });
    assert_eq!(message.as_deref(), Some("worker 2 gives up at superstep 3"));
}

// ---------------------------------------------------------------------
// Wire-order probe: the order frames arrive in must be identical across
// backends, not just the values they converge to.
// ---------------------------------------------------------------------

mod wire_order {
    use super::*;
    use pc_bsp::Codec;
    use pc_channels::channel::{Channel, DeserializeCx, SerializeCx, VertexCtx, WorkerEnv};
    use pc_channels::engine::{run, Algorithm};
    use std::sync::Mutex;

    /// One observed frame: `(receiving worker, superstep, sender,
    /// sender-claimed rank, payload length)`.
    type Seen = (usize, u64, usize, u32, usize);

    /// A channel that broadcasts a tagged payload to every peer each
    /// superstep and records exactly what it sees on deserialize, in
    /// arrival order.
    struct WireProbe {
        env: WorkerEnv,
        step: u64,
        log: Arc<Mutex<Vec<Vec<Seen>>>>,
        messages: u64,
    }

    impl Channel<u64> for WireProbe {
        fn name(&self) -> &'static str {
            "wire-probe"
        }
        fn before_superstep(&mut self, step: u64) {
            self.step = step;
        }
        fn serialize(&mut self, cx: &mut SerializeCx<'_>) {
            // Variable-length payloads so framing/short-read bugs shift
            // byte counts, not just ordering.
            for peer in 0..cx.workers() {
                cx.frame(peer, |buf| {
                    (self.env.worker as u32).encode(buf);
                    self.step.encode(buf);
                    for i in 0..(self.env.worker + peer) {
                        (i as u8).encode(buf);
                    }
                });
                self.messages += 1;
            }
        }
        fn deserialize(&mut self, cx: &mut DeserializeCx<'_, u64>) {
            let worker = self.env.worker;
            let mut log = self.log.lock().unwrap();
            for (from, mut r) in cx.frames() {
                let claimed: u32 = r.get();
                let step: u64 = r.get();
                log[worker].push((worker, step, from, claimed, r.remaining()));
            }
        }
        fn message_count(&self) -> u64 {
            self.messages
        }
    }

    struct WireProbeAlgo {
        steps: u64,
        log: Arc<Mutex<Vec<Vec<Seen>>>>,
    }

    impl Algorithm for WireProbeAlgo {
        type Value = u64;
        type Channels = (WireProbe,);
        pc_channels::dist_value_via_codec!();
        fn channels(&self, env: &WorkerEnv) -> Self::Channels {
            (WireProbe {
                env: env.clone(),
                step: 0,
                log: Arc::clone(&self.log),
                messages: 0,
            },)
        }
        fn compute(&self, v: &mut VertexCtx<'_>, _value: &mut u64, _ch: &mut Self::Channels) {
            if v.step() >= self.steps {
                v.vote_to_halt();
            }
        }
    }

    /// Every backend delivers the same frames, from the same senders, in
    /// the same per-worker order, with the same payload bytes.
    #[test]
    fn wire_order_is_identical_across_backends() {
        let topo = Arc::new(Topology::hashed(64, WORKERS));
        let mut reference: Option<Vec<Vec<Seen>>> = None;
        for (label, cfg) in conformance_configs(WORKERS) {
            let log = Arc::new(Mutex::new(vec![Vec::new(); WORKERS]));
            let algo = WireProbeAlgo {
                steps: 6,
                log: Arc::clone(&log),
            };
            let out = run(&algo, &topo, &cfg);
            assert_eq!(out.stats.supersteps, 6);
            drop(algo); // release the algorithm's clone of the log
            let seen = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
            for (w, entries) in seen.iter().enumerate() {
                // Sanity inside one run: frames arrive in ascending
                // sender order each superstep and claim their sender.
                assert!(!entries.is_empty(), "{label}: worker {w} saw nothing");
                for e in entries {
                    assert_eq!(e.2 as u32, e.3, "{label}: sender id vs claimed");
                }
            }
            match &reference {
                None => reference = Some(seen),
                Some(expect) => {
                    assert_eq!(
                        expect, &seen,
                        "{label}: wire order diverges from the sequential reference"
                    );
                }
            }
        }
        // Multi-process arm: each rank drives its own algorithm instance
        // (as separate processes would) over a shared mesh; the shared
        // log shows the same frames in the same per-worker order. It is
        // the sharpest probe of coalescing: super-frames must split back
        // into the exact frames, in the exact order, every round.
        let log = Arc::new(Mutex::new(vec![Vec::new(); WORKERS]));
        let tcp = Arc::new(pc_bsp::Tcp::loopback(WORKERS).unwrap());
        std::thread::scope(|s| {
            for w in 0..WORKERS {
                let log = Arc::clone(&log);
                let tcp = Arc::clone(&tcp);
                let topo = Arc::clone(&topo);
                s.spawn(move || {
                    let algo = WireProbeAlgo { steps: 6, log };
                    let out = run(&algo, &topo, &Config::rank(WORKERS, w, tcp));
                    assert_eq!(out.stats.supersteps, 6);
                });
            }
        });
        let seen = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
        assert_eq!(
            reference.as_ref().unwrap(),
            &seen,
            "multi-process ranks: wire order diverges from the sequential reference"
        );
    }
}

// ---------------------------------------------------------------------
// Property extension of the PR 1 cross-mode tests: random graphs, all
// three backends, the same everything-observable contract.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// WCC and S-V agree across sequential / in-process / tcp on random
    /// graphs — the property-test arm of the conformance contract.
    #[test]
    fn random_graphs_conform_across_transports(
        n in 8usize..90,
        m in 0usize..220,
        seed in 0u64..500,
        workers in 2usize..4,
    ) {
        let g = Arc::new(gen::rmat(7, m.max(n / 2), gen::RmatParams::default(), seed, false)
            .symmetrized());
        let topo = Arc::new(Topology::hashed(g.n(), workers));
        let configs = conformance_configs(workers);
        let base_wcc = pc_algos::wcc::channel_propagation(&g, &topo, &configs[0].1);
        let base_sv = pc_algos::sv::channel_both(&g, &topo, &configs[0].1);
        for (label, cfg) in &configs[1..] {
            let wcc = pc_algos::wcc::channel_propagation(&g, &topo, cfg);
            prop_assert_eq!(&wcc.labels, &base_wcc.labels, "wcc values on {}", label);
            assert_stats_agree(&format!("wcc ({label})"), &base_wcc.stats, &wcc.stats);
            let sv = pc_algos::sv::channel_both(&g, &topo, cfg);
            prop_assert_eq!(&sv.labels, &base_sv.labels, "sv values on {}", label);
            assert_stats_agree(&format!("sv ({label})"), &base_sv.stats, &sv.stats);
        }
        // Multi-process ranks over a shared mesh, random graphs included.
        let (labels, stats) = run_multirank(workers, &|cfg: &Config| {
            let o = pc_algos::wcc::channel_propagation(&g, &topo, cfg);
            (o.labels, o.stats)
        });
        prop_assert_eq!(&labels, &base_wcc.labels, "wcc values on multi-process ranks");
        assert_stats_agree("wcc (multi-process ranks)", &base_wcc.stats, &stats);
    }

    /// Coalescing N sub-frames into a super-frame and splitting them back
    /// is a byte-exact round trip — tags, payload bytes and order all
    /// survive, for any mix of sub-frame sizes (empty `SKIP`s included).
    #[test]
    fn batch_coalescing_roundtrips_byte_exactly(
        frames in proptest::collection::vec(
            (0usize..3, proptest::collection::vec(any::<u8>(), 0..200)),
            1..24,
        ),
    ) {
        use pc_bsp::tcp::{decode_batch, encode_batch, TAG_DATA, TAG_END, TAG_HELLO};
        let tags = [TAG_DATA, TAG_END, TAG_HELLO];
        let frames: Vec<(u8, Vec<u8>)> = frames
            .into_iter()
            .map(|(t, payload)| (tags[t], payload))
            .collect();
        let wire = encode_batch(&frames);
        let split = decode_batch(&wire, 3).expect("well-formed batch must decode");
        prop_assert_eq!(&split, &frames, "batch round trip diverged");
        // And re-encoding the split reproduces the wire bytes exactly.
        prop_assert_eq!(encode_batch(&split), wire);
    }
}
