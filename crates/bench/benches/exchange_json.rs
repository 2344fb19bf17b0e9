//! Emit `BENCH_exchange.json`: the exchange-path performance trajectory.
//!
//! Runs the steady-state workloads once per mode and records runtime,
//! message volume, pool hit rate and barrier crossings, so successive PRs
//! can diff the exchange path's constant factors. Run via
//! `cargo bench --bench exchange_json`; writes to the current directory
//! (override with `PC_BENCH_OUT`).

use pc_bench::report::{exchange_json, BenchEntry};
use pc_bsp::{Config, RunStats, Topology};
use pc_graph::gen;
use std::sync::Arc;

fn record(entries: &mut Vec<BenchEntry>, workload: &str, mode: &'static str, stats: RunStats) {
    println!(
        "{workload:<24} {mode:<11} {:>9.1} ms  {:>8.2} MiB  {:>4} supersteps  {:>5} rounds  pool {:>6.2}%  {:.2} crossings/round  {:>6} wire frames ({} coalesced, {} µs send / {} µs recv stalled, {} polls, {} spurious)",
        stats.millis(),
        stats.remote_mib(),
        stats.supersteps,
        stats.rounds,
        100.0 * stats.pool_hit_rate(),
        stats.crossings_per_round(),
        stats.transport.frames,
        stats.transport.coalesced_frames,
        stats.transport.send_stall_us,
        stats.transport.recv_stall_us,
        stats.transport.poll_waits,
        stats.transport.wakeups_spurious,
    );
    entries.push(BenchEntry {
        workload: workload.to_string(),
        mode,
        stats,
    });
}

fn main() {
    // Set-but-garbage knobs abort instead of silently measuring the
    // default configuration under the intended label.
    let scale: u32 = pc_bench::datasets::env_number("PC_SCALE", 12);
    let workers: usize = pc_bench::datasets::env_number("PC_WORKERS", 4);
    let n = 1usize << scale;

    let pr_graph = Arc::new(gen::rmat(
        scale,
        9 * n,
        gen::RmatParams::default(),
        42,
        true,
    ));
    let wcc_graph = Arc::new(gen::rmat(
        scale,
        4 * n,
        gen::RmatParams::default(),
        43,
        false,
    ));
    let ring = Arc::new(gen::cycle(n));

    let modes: [(&'static str, Config); 2] = [
        ("sequential", Config::sequential(workers)),
        ("threads", Config::with_workers(workers)),
    ];

    // With PC_REPS > 1, each workload runs that many times and the
    // fastest run is recorded (in-process repetition smooths scheduler
    // noise on shared machines).
    let reps: usize = pc_bench::datasets::env_number("PC_REPS", 1);
    let best = |run: &dyn Fn() -> pc_bsp::RunStats| {
        let mut best: Option<RunStats> = None;
        for _ in 0..reps.max(1) {
            let stats = run();
            if best.as_ref().is_none_or(|b| stats.elapsed < b.elapsed) {
                best = Some(stats);
            }
        }
        best.expect("at least one rep")
    };

    let mut entries = Vec::new();
    for (mode, cfg) in &modes {
        let topo = Arc::new(Topology::hashed(pr_graph.n(), workers));
        let stats = best(&|| pc_algos::pagerank::channel_scatter(&pr_graph, &topo, cfg, 20).stats);
        record(&mut entries, "pagerank_rmat_scatter", mode, stats);

        let topo = Arc::new(Topology::hashed(wcc_graph.n(), workers));
        let stats = best(&|| pc_algos::wcc::channel_propagation(&wcc_graph, &topo, cfg).stats);
        record(&mut entries, "wcc_rmat_propagation", mode, stats);

        let topo = Arc::new(Topology::blocked(ring.n(), workers));
        let stats = best(&|| pc_algos::wcc::channel_propagation(&ring, &topo, cfg).stats);
        record(&mut entries, "wcc_ring_propagation", mode, stats);
    }

    // The skewed-frontier workload: a hash-partitioned ring under
    // propagation WCC degenerates into a long tail of rounds whose
    // per-peer frames are tiny — exactly the regime the iPregel
    // irregularity studies single out, and where the TCP mesh's
    // coalesced super-frames (one frame per peer per round) matter
    // (capped scale keeps the round count in the hundreds, not
    // thousands). A high-degree hub rides along as a
    // disjoint star so the same workload also exposes degree skew: under
    // hash placement + plain propagation the hub floods its owner rank.
    let ring_n = 1usize << scale.min(9);
    let skewed = Arc::new(gen::ring_with_hub(ring_n, 4 * ring_n));
    let skewed_topo = Arc::new(Topology::hashed(skewed.n(), workers));
    // The `tcp-batched` label is what CI's row lookups read.
    let skewed_modes: [(&'static str, Config); 2] = [
        ("threads", Config::with_workers(workers)),
        ("tcp-batched", Config::tcp(workers)),
    ];
    for (mode, cfg) in &skewed_modes {
        let stats = best(&|| pc_algos::wcc::channel_propagation(&skewed, &skewed_topo, cfg).stats);
        record(&mut entries, "wcc_ring_skewed", mode, stats);
    }
    // Skew resistance, same workload: degree-sorted LDG streams the hub
    // first and lays the ring out contiguously (collapsing the round
    // tail), and the shipped mirror plan turns the hub's broadcast into
    // one pre-wired ghost message per rank.
    let owners = pc_graph::partition::ldg_deg(&*skewed, workers, 2);
    let base = Topology::from_owners(workers, owners);
    let tau = pc_graph::partition::default_mirror_threshold(&*skewed);
    let plan = pc_graph::partition::build_mirror_plan(&*skewed, &base, tau);
    let mirror_topo = Arc::new(base.with_mirror(Arc::new(plan)));
    for (mode, cfg) in &skewed_modes {
        let stats = best(&|| pc_algos::wcc::channel_mirror(&skewed, &mirror_topo, cfg, tau).stats);
        record(&mut entries, "wcc_ring_skewed_mirror", mode, stats);
    }

    // The wide-mesh arm: the same skewed workload across 8 ranks, which
    // oversubscribes every CI machine (and most laptops) — the regime
    // where the transport's wait strategy dominates. This is the row the
    // readiness multiplexer is judged by: its stall columns
    // (`send_stall_us` + `recv_stall_us`) record how long the driver sat
    // in kernel waits, and CI pins them against a recorded baseline of
    // blocking one-socket-at-a-time waits.
    let wide_workers = 8usize;
    let wide_topo = Arc::new(Topology::hashed(skewed.n(), wide_workers));
    let wide_cfg = Config::tcp(wide_workers);
    let stats = best(&|| pc_algos::wcc::channel_propagation(&skewed, &wide_topo, &wide_cfg).stats);
    record(&mut entries, "wcc_ring_skewed_wide", "tcp-batched", stats);

    // Tracing must be a true no-op on everything the conformance contract
    // measures, and a bounded perturbation on wall clock: rerun the RMAT
    // WCC workload traced and assert its counters are identical to the
    // untraced threads row recorded above, its timeline reconciles with
    // its own totals, and it stays within a generous wall-clock envelope
    // (loose on purpose — CI machines are noisy; the real overhead gate
    // is the counter identity).
    {
        let topo = Arc::new(Topology::hashed(wcc_graph.n(), workers));
        let traced_cfg = Config {
            trace: true,
            ..Config::with_workers(workers)
        };
        let traced =
            best(&|| pc_algos::wcc::channel_propagation(&wcc_graph, &topo, &traced_cfg).stats);
        let plain = entries
            .iter()
            .find(|e| e.workload == "wcc_rmat_propagation" && e.mode == "threads")
            .map(|e| &e.stats)
            .expect("untraced wcc_rmat_propagation threads row");
        assert_eq!(
            traced.supersteps, plain.supersteps,
            "tracing changed supersteps"
        );
        assert_eq!(traced.rounds, plain.rounds, "tracing changed rounds");
        assert_eq!(
            traced.remote_bytes(),
            plain.remote_bytes(),
            "tracing changed remote bytes"
        );
        assert_eq!(
            traced.messages(),
            plain.messages(),
            "tracing changed messages"
        );
        assert_eq!(traced.pool, plain.pool, "tracing changed pool traffic");
        assert_eq!(traced.timeline.len() as u64, traced.supersteps);
        assert_eq!(
            traced.timeline.iter().map(|r| r.messages).sum::<u64>(),
            traced.messages(),
            "timeline rows do not sum to the run's message total"
        );
        assert_eq!(
            traced.timeline.iter().map(|r| r.remote_bytes).sum::<u64>(),
            traced.remote_bytes(),
            "timeline rows do not sum to the run's remote bytes"
        );
        let envelope = plain.elapsed * 5 + std::time::Duration::from_millis(250);
        assert!(
            traced.elapsed <= envelope,
            "traced run took {:?}, untraced {:?} (envelope {:?})",
            traced.elapsed,
            plain.elapsed,
            envelope
        );
        record(
            &mut entries,
            "wcc_rmat_propagation_traced",
            "threads",
            traced,
        );
    }

    let json = exchange_json(scale, workers, &entries);

    // Default to the workspace root regardless of the bench's CWD.
    let out_path = std::env::var("PC_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_exchange.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out_path, &json).expect("write BENCH_exchange.json");
    println!("\nwrote {out_path}");
}
