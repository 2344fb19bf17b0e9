//! Tracing across a simulated multi-process cluster: a traced 4-rank run
//! over the loopback mesh must (a) be observationally identical
//! to the untraced run — tracing is a pure observer — and (b) gather one
//! span stream per rank to rank 0 whose merged per-superstep timeline
//! reconciles, row by row, with the run-total counters.

mod common;

use pc_bsp::{trace, Config, RunStats, Topology};
use pc_graph::gen::{self, RmatParams};
use std::sync::Arc;

/// [`common::run_multirank`] with every rank's recorder armed — the
/// shape a `pcgraph --ranks 4 --trace` run takes, minus the process
/// boundaries.
fn run_multirank_traced<V: Send, F>(workers: usize, run: &F) -> (V, RunStats)
where
    F: Fn(&Config) -> (V, RunStats) + Sync,
{
    common::run_multirank(workers, &|cfg: &Config| {
        run(&Config {
            trace: true,
            ..cfg.clone()
        })
    })
}

#[test]
fn traced_multirank_run_reconciles_and_stays_transparent() {
    let workers = 4;
    let g = Arc::new(gen::rmat(9, 4 << 9, RmatParams::default(), 43, false));
    let topo = Arc::new(Topology::hashed(g.n(), workers));
    let run = |cfg: &Config| {
        let o = pc_algos::wcc::channel_propagation(&g, &topo, cfg);
        (o.labels, o.stats)
    };

    let (plain_labels, plain) = common::run_multirank(workers, &run);
    let (labels, stats) = run_multirank_traced(workers, &run);

    // Transparency: the traced run is the same run.
    assert_eq!(labels, plain_labels, "tracing changed the computed values");
    common::assert_stats_agree("traced vs untraced multirank", &stats, &plain);
    assert!(plain.timeline.is_empty(), "untraced run grew a timeline");
    assert!(plain.traces.is_empty(), "untraced run grew trace streams");

    // Rank 0 gathered one stream per rank, in rank order, on a common
    // epoch (the earliest rank's clock is the origin).
    assert_eq!(stats.traces.len(), workers);
    for (r, tr) in stats.traces.iter().enumerate() {
        assert_eq!(tr.rank as usize, r, "streams out of rank order");
        assert_eq!(tr.dropped, 0, "rank {r} overflowed its event buffer");
        assert_eq!(
            tr.timeline.len() as u64,
            stats.supersteps,
            "rank {r} timeline is incomplete"
        );
        assert!(!tr.events.is_empty(), "rank {r} recorded no spans");
    }
    assert_eq!(
        stats.traces.iter().map(|t| t.epoch_us).min(),
        Some(0),
        "epochs were not aligned to the earliest rank"
    );

    // The merged timeline reconciles with the run totals: messages and
    // remote bytes exactly; stall at most the run total (the final flush
    // and the result gather stall outside the last superstep row).
    assert_eq!(stats.timeline.len() as u64, stats.supersteps);
    assert_eq!(
        stats.timeline.iter().map(|r| r.messages).sum::<u64>(),
        stats.messages(),
        "timeline rows do not sum to the message total"
    );
    assert_eq!(
        stats.timeline.iter().map(|r| r.remote_bytes).sum::<u64>(),
        stats.remote_bytes(),
        "timeline rows do not sum to the remote-byte total"
    );
    assert!(
        stats.timeline.iter().map(|r| r.stall_us).sum::<u64>() <= stats.transport.stall_us(),
        "timeline stall exceeds the transport's own accounting"
    );
    assert_eq!(
        stats.timeline.iter().map(|r| r.rounds).sum::<u64>(),
        stats.rounds,
        "timeline rows do not sum to the round total"
    );
    // Superstep 1 starts with every vertex active under propagation WCC.
    assert_eq!(stats.timeline[0].active, g.n() as u64);

    // The export is loadable: one named track per rank, every complete
    // event on one of them.
    let json = trace::chrome_trace_json(&stats.traces);
    assert_eq!(
        json.matches("\"thread_name\"").count(),
        workers,
        "expected one thread-name metadata event per rank"
    );
    for r in 0..workers {
        assert!(
            json.contains(&format!("\"tid\":{r},")),
            "rank {r} has no track in the export"
        );
    }
}

/// A checkpointing run's trace carries exactly one `checkpoint` span per
/// epoch on every rank — its duration covering the in-place snapshot, its
/// `stall_us` the wait for the previous epoch's write, which the boundary
/// took before its exchange — and the end-of-run drain, which waits inside
/// its span, under a name of its own, so counting `checkpoint` spans still
/// counts epochs.
#[test]
fn checkpoint_spans_count_epochs_and_the_drain_is_not_one() {
    use pc_bsp::{CkptPolicy, SpanKind};
    let workers = 4;
    let g = Arc::new(gen::rmat(8, 1800, RmatParams::default(), 12, true));
    let topo = Arc::new(Topology::hashed(g.n(), workers));
    let dir = std::env::temp_dir().join(format!("pc_trace_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (_, stats) = run_multirank_traced(workers, &|cfg: &Config| {
        let cfg = Config {
            ckpt: Some(CkptPolicy {
                every: 3,
                dir: dir.clone(),
            }),
            ..cfg.clone()
        };
        let o = pc_algos::pagerank::channel_scatter(&g, &topo, &cfg, 12);
        (o.ranks, o.stats)
    });
    let _ = std::fs::remove_dir_all(&dir);

    // Thirteen supersteps at cadence 3: epochs 3, 6, 9, 12.
    assert_eq!(stats.supersteps, 13);
    assert_eq!(stats.traces.len(), workers);
    for tr in &stats.traces {
        let of = |kind| tr.events.iter().filter(move |e| e.kind == kind);
        let epochs: Vec<u64> = of(SpanKind::Checkpoint).map(|e| e.superstep).collect();
        assert_eq!(epochs, [3, 6, 9, 12], "rank {}", tr.rank);
        assert_eq!(of(SpanKind::CheckpointDrain).count(), 1, "rank {}", tr.rank);
        for e in of(SpanKind::Checkpoint).chain(of(SpanKind::CheckpointDrain)) {
            let [snapshot_us, stall_us] = e.args;
            let inside = match e.kind {
                SpanKind::Checkpoint => snapshot_us,
                _ => snapshot_us + stall_us,
            };
            assert!(inside <= e.dur_us, "rank {}: {e:?}", tr.rank);
        }
    }
    let json = trace::chrome_trace_json(&stats.traces);
    assert_eq!(
        json.matches("\"name\":\"checkpoint\",").count(),
        4 * workers
    );
    assert_eq!(
        json.matches("\"name\":\"checkpoint-drain\",").count(),
        workers
    );
    assert_eq!(json.matches("\"snapshot_us\":").count(), 5 * workers);
}
