//! Per-layer metrics read from what `pcgraph` already emits: the
//! `--stats-json` counters of the untraced reps and the traced rep's
//! `--stats-json` timeline and `--trace` file.

use crate::child::Rep;
use crate::json::Json;
use crate::metrics::{Summary, Values, MIB};

fn path<'a>(doc: &'a Json, keys: &[&str]) -> Option<&'a Json> {
    keys.iter().try_fold(doc, |d, k| d.get(k))
}

/// One `--stats-json` field over the reps (counters repeat exactly; the
/// stall and readiness fields are summarised).
fn over_reps(reps: &[Rep], keys: &[&str]) -> Result<Summary, String> {
    let samples = reps
        .iter()
        .map(|r| path(&r.stats, keys).and_then(Json::num))
        .collect::<Option<Vec<f64>>>()
        .ok_or_else(|| format!("stats json lacks {}", keys.join(".")))?;
    Ok(Summary::of(&samples))
}

/// (c): `bsp.*` and `core.*` counters from the untraced reps.
pub fn from_stats(reps: &[Rep]) -> Result<Values, String> {
    let mut v = Values::default();
    let one = |keys: &[&str]| over_reps(reps, keys);
    let rounds = one(&["rounds"])?.median;
    let run_s = Summary::over(reps, Rep::run).min;
    v.num("bsp.round_us", run_s * 1e6 / rounds.max(1.0));
    v.num(
        "bsp.wire_mib",
        one(&["transport", "wire_bytes"])?.median / MIB,
    );
    for (name, key) in [
        ("bsp.frames", "frames"),
        ("bsp.coalesced_frames", "coalesced_frames"),
        ("bsp.round_trips", "round_trips"),
        ("bsp.poll_waits", "poll_waits"),
        ("bsp.wakeups_spurious", "wakeups_spurious"),
        ("bsp.send_stall_us", "send_stall_us"),
        ("bsp.recv_stall_us", "recv_stall_us"),
    ] {
        v.set(name, one(&["transport", key])?);
    }
    v.set("bsp.pool_hit_rate", one(&["pool", "hit_rate"])?);
    v.set("bsp.pool_misses", one(&["pool", "misses"])?);
    for (name, key) in [
        ("core.supersteps", "supersteps"),
        ("core.rounds", "rounds"),
        ("core.messages", "messages"),
        ("core.max_rank_msgs", "max_rank_msgs"),
        ("core.mirror_saved", "mirror_saved"),
    ] {
        v.set(name, one(&[key])?);
    }
    v.num("core.remote_mib", one(&["remote_bytes"])?.median / MIB);
    let messages = one(&["messages"])?.median;
    v.num(
        "core.bytes_per_msg",
        one(&["total_bytes"])?.median / messages.max(1.0),
    );
    Ok(v)
}

/// Span sums of one rank's track in the `--trace` file.
#[derive(Debug, Default, Clone, PartialEq)]
struct RankSpans {
    compute_us: f64,
    exchange_us: f64,
    barrier_us: f64,
    poll_wait_us: f64,
    checkpoint_us: f64,
    checkpoints: u64,
    /// compute + exchange + barrier spans present in the file.
    engine_spans: u64,
}

fn rank_spans(trace: &Json) -> Vec<RankSpans> {
    let mut ranks: Vec<RankSpans> = Vec::new();
    for ev in trace.arr() {
        if ev.get("ph").and_then(Json::str) != Some("X") {
            continue;
        }
        let tid = ev.get("tid").and_then(Json::num).unwrap_or(0.0) as usize;
        let dur = ev.get("dur").and_then(Json::num).unwrap_or(0.0);
        if ranks.len() <= tid {
            ranks.resize(tid + 1, RankSpans::default());
        }
        let r = &mut ranks[tid];
        match ev.get("name").and_then(Json::str) {
            Some("compute") => {
                (r.compute_us, r.engine_spans) = (r.compute_us + dur, r.engine_spans + 1)
            }
            Some("exchange") => {
                (r.exchange_us, r.engine_spans) = (r.exchange_us + dur, r.engine_spans + 1)
            }
            Some("barrier") => {
                (r.barrier_us, r.engine_spans) = (r.barrier_us + dur, r.engine_spans + 1)
            }
            Some("poll-wait") => r.poll_wait_us += dur,
            Some("checkpoint") => {
                (r.checkpoint_us, r.checkpoints) = (r.checkpoint_us + dur, r.checkpoints + 1)
            }
            _ => {}
        }
    }
    ranks
}

/// (b): what the traced rep's two files say, plus the cost of tracing
/// against the untraced reps' best wall clock.
///
/// `core.compute_us` / `core.exchange_us` come from the stats timeline —
/// the per-rank mean of its per-superstep sums — because the timeline is
/// complete where the trace file saturates (65 536 events per rank:
/// `bfs_chain`). The span-derived metrics cover the recorded events, and
/// `pcgraph.trace_dropped_events` says how many the file must be missing.
pub fn from_trace(traced: &Rep, trace: &Json, ranks: usize, untraced_wall_s: f64) -> Values {
    let mut v = Values::default();
    let timeline = traced
        .stats
        .get("timeline")
        .map(Json::arr)
        .unwrap_or_default();
    let sum = |key: &str| -> f64 { timeline.iter().filter_map(|row| row.get(key)?.num()).sum() };
    v.num("core.compute_us", sum("compute_us") / ranks as f64);
    v.num("core.exchange_us", sum("exchange_us") / ranks as f64);

    let spans = rank_spans(trace);
    let max = |f: fn(&RankSpans) -> f64| spans.iter().map(f).fold(0.0, f64::max);
    let busy: Vec<f64> = spans.iter().map(|r| r.compute_us + r.exchange_us).collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    v.num(
        "core.rank_imbalance",
        if mean_busy > 0.0 {
            busy.iter().copied().fold(0.0, f64::max) / mean_busy
        } else {
            1.0
        },
    );
    v.num("bsp.barrier_us", max(|r| r.barrier_us));
    v.num("bsp.poll_wait_us", max(|r| r.poll_wait_us));
    v.num(
        "ckpt.epochs",
        spans.first().map_or(0.0, |r| r.checkpoints as f64),
    );
    v.num("ckpt.span_us", max(|r| r.checkpoint_us));

    // Every superstep closes one compute span and every round one
    // exchange and one barrier span, on every rank.
    let expected = traced.counters.supersteps + 2 * traced.counters.rounds;
    let dropped: u64 = spans
        .iter()
        .map(|r| expected.saturating_sub(r.engine_spans))
        .sum();
    v.set(
        "pcgraph.trace_dropped_events",
        Summary::one(dropped as f64)
            .noted("at least: spans the engine closed minus spans in the file"),
    );
    v.set(
        "pcgraph.trace_overhead_pct",
        Summary::one(100.0 * (traced.wall() - untraced_wall_s) / untraced_wall_s)
            .noted(format!("base untraced wall {untraced_wall_s:.4} s")),
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::child::{counters_of, tests::FIXTURE};

    fn fixture_rep() -> Rep {
        let stats = Json::parse(FIXTURE).unwrap();
        Rep {
            wall_s: 1.3,
            run_s: stats.field("runtime_ms").unwrap() / 1e3,
            cpu_s: 1.3,
            peak_rss_mib: 150.0,
            host_factor: 1.0,
            digest: 0,
            stdout: String::new(),
            counters: counters_of(&stats).unwrap(),
            stats,
        }
    }

    /// (c) and the timeline half of (b) against the checked-in document.
    #[test]
    fn metrics_from_the_stats_fixture() {
        let rep = fixture_rep();
        let v = from_stats(std::slice::from_ref(&rep)).unwrap();
        let get = |n: &str| v.get(n).unwrap().median;
        assert_eq!(get("core.rounds"), 12.0);
        assert_eq!(get("core.mirror_saved"), 11225309.0);
        assert_eq!(get("bsp.frames"), 32.0);
        assert_eq!(get("bsp.recv_stall_us"), 629172.0);
        assert_eq!(get("bsp.pool_hit_rate"), 1.0);
        assert!((get("bsp.round_us") - 647134.0 / 12.0).abs() < 1e-6);
        assert!((get("core.bytes_per_msg") - 789346.0 / 98645.0).abs() < 1e-9);

        let v = from_trace(&rep, &Json::Arr(Vec::new()), 2, 1.0);
        assert_eq!(v.get("core.compute_us").unwrap().median, 502897.0 / 2.0);
        assert_eq!(v.get("core.exchange_us").unwrap().median, 685655.0 / 2.0);
        assert!((v.get("pcgraph.trace_overhead_pct").unwrap().median - 30.0).abs() < 1e-9);
    }

    #[test]
    fn span_sums_are_per_rank() {
        let trace = Json::parse(
            r#"[
              {"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"rank 0"}},
              {"ph":"X","pid":0,"tid":0,"name":"compute","ts":0,"dur":10,"args":{"superstep":1}},
              {"ph":"X","pid":0,"tid":0,"name":"exchange","ts":10,"dur":30,"args":{"superstep":1}},
              {"ph":"X","pid":0,"tid":1,"name":"compute","ts":0,"dur":5,"args":{"superstep":1}},
              {"ph":"X","pid":0,"tid":1,"name":"barrier","ts":5,"dur":35,"args":{"superstep":1}},
              {"ph":"X","pid":0,"tid":1,"name":"checkpoint","ts":40,"dur":7,"args":{"superstep":1}}
            ]"#,
        )
        .unwrap();
        let r = rank_spans(&trace);
        assert_eq!(r.len(), 2);
        assert_eq!(
            (r[0].compute_us, r[0].exchange_us, r[0].engine_spans),
            (10.0, 30.0, 2)
        );
        assert_eq!(
            (r[1].barrier_us, r[1].checkpoints, r[1].checkpoint_us),
            (35.0, 1, 7.0)
        );
    }
}
