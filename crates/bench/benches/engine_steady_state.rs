//! End-to-end steady-state engine benchmarks.
//!
//! The micro-benches isolate primitive costs; this bench measures what the
//! exchange-path work actually bought: full PageRank and WCC runs on
//! R-MAT and ring graphs, Sequential vs Threads. PageRank (scatter
//! channel, fixed iterations) exercises the dense steady-state exchange;
//! WCC (propagation channel) exercises the multi-round fixpoint path; the
//! ring WCC run is the sparse-frontier stress (two active vertices per
//! superstep without the worklist).
//!
//! Scale with `PC_SCALE` (vertices = 2^scale, default 12 here to keep CI
//! smoke runs quick).

use criterion::{criterion_group, criterion_main, Criterion};
use pc_bsp::{Config, Topology};
use pc_graph::{gen, Graph};
use std::sync::Arc;
use std::time::Duration;

fn scale() -> u32 {
    std::env::var("PC_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12)
}

fn workers() -> usize {
    std::env::var("PC_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

fn rmat_graph() -> Arc<Graph> {
    let n = 1usize << scale();
    Arc::new(gen::rmat(
        scale(),
        9 * n,
        gen::RmatParams::default(),
        42,
        true,
    ))
}

fn rmat_sym() -> Arc<Graph> {
    let n = 1usize << scale();
    Arc::new(gen::rmat(
        scale(),
        4 * n,
        gen::RmatParams::default(),
        43,
        false,
    ))
}

fn ring() -> Arc<Graph> {
    Arc::new(gen::cycle(1usize << scale()))
}

fn configs() -> [(&'static str, Config); 2] {
    let w = workers();
    [
        ("seq", Config::sequential(w)),
        ("threads", Config::with_workers(w)),
    ]
}

fn pagerank_steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_steady_state/pagerank_rmat");
    let g = rmat_graph();
    let topo = Arc::new(Topology::hashed(g.n(), workers()));
    for (name, cfg) in configs() {
        group.bench_function(name, |b| {
            b.iter(|| pc_algos::pagerank::channel_scatter(&g, &topo, &cfg, 20))
        });
    }
    group.finish();
}

fn wcc_steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_steady_state/wcc_rmat");
    let g = rmat_sym();
    let topo = Arc::new(Topology::hashed(g.n(), workers()));
    for (name, cfg) in configs() {
        group.bench_function(name, |b| {
            b.iter(|| pc_algos::wcc::channel_propagation(&g, &topo, &cfg))
        });
    }
    group.finish();
}

fn wcc_sparse_frontier(c: &mut Criterion) {
    // A single huge ring under propagation WCC with a blocked partition:
    // long tails of nearly-empty supersteps, which is exactly what the
    // frontier worklist accelerates.
    let mut group = c.benchmark_group("engine_steady_state/wcc_ring");
    let g = ring();
    let topo = Arc::new(Topology::blocked(g.n(), workers()));
    for (name, cfg) in configs() {
        group.bench_function(name, |b| {
            b.iter(|| pc_algos::wcc::channel_propagation(&g, &topo, &cfg))
        });
    }
    group.finish();
}

/// Transport comparison: the same threaded driver over the shared-memory
/// hub vs real loopback sockets — the `threads`→`tcp` gap is the price
/// of a real wire. Runs in its own short-budget group because every
/// `tcp` iteration binds a fresh socket mesh whose closed connections
/// linger in TIME_WAIT; a tight iteration budget keeps long bench runs
/// well clear of ephemeral-port exhaustion.
fn transport_compare(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_steady_state/transport_pagerank");
    let g = rmat_graph();
    let topo = Arc::new(Topology::hashed(g.n(), workers()));
    let w = workers();
    for (name, cfg) in [
        ("threads", Config::with_workers(w)),
        ("tcp", Config::tcp(w)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| pc_algos::pagerank::channel_scatter(&g, &topo, &cfg, 20))
        });
    }
    group.finish();
}

/// The skewed-frontier transport duel: propagation WCC on a
/// hash-partitioned ring is a long tail of rounds with tiny per-peer
/// frames — the regime where the TCP mesh's pipelined, coalesced sends
/// (one frame per peer per round) earn their keep. Capped scale keeps
/// the round count in the hundreds.
fn transport_skewed_frontier(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_steady_state/transport_skewed_wcc");
    let g = Arc::new(gen::cycle(1usize << scale().min(9)));
    let topo = Arc::new(Topology::hashed(g.n(), workers()));
    let w = workers();
    for (name, cfg) in [
        ("threads", Config::with_workers(w)),
        ("tcp", Config::tcp(w)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| pc_algos::wcc::channel_propagation(&g, &topo, &cfg))
        });
    }
    group.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

/// Tight budget for the socket-mesh benches (see [`transport_compare`]).
fn quick_tcp() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(100))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = pagerank_steady_state, wcc_steady_state, wcc_sparse_frontier
}
criterion_group! {
    name = transport_benches;
    config = quick_tcp();
    targets = transport_compare, transport_skewed_frontier
}
criterion_main!(benches, transport_benches);
