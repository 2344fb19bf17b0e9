//! The `BENCH_exchange.json` serializer.
//!
//! Extracted from the bench binary so the emitted JSON is testable: CI
//! parses this file with `python3 -c "json.load(...)"` assertions, so a
//! single non-finite float (`NaN`/`inf` have no JSON spelling) breaks
//! the gate long after the run that produced it. Every ratio emitted
//! here is therefore guarded — in particular `pool_hit_rate`, whose
//! `0/0` case (a zero-round workload never requests a buffer) is pinned
//! to `1.0`, matching [`pc_bsp::pool::PoolStats::hit_rate`].

use pc_bsp::RunStats;
use std::fmt::Write as _;

/// One bench row: a workload measured under one execution mode.
pub struct BenchEntry {
    /// Workload name (e.g. `"wcc_ring_skewed"`).
    pub workload: String,
    /// Execution mode (`"sequential"`, `"threads"`, `"tcp"`, ...).
    pub mode: &'static str,
    /// The run's statistics.
    pub stats: RunStats,
}

/// A ratio that must serialize as valid JSON: non-finite values (0/0
/// divisions, overflow) collapse to `fallback`.
fn finite(v: f64, fallback: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        fallback
    }
}

/// Pool hit rate with the `0/0` case pinned: a workload that never
/// requested a buffer never missed one.
fn pool_hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        1.0
    } else {
        finite(hits as f64 / total as f64, 1.0)
    }
}

/// Render the complete `BENCH_exchange.json` document.
pub fn exchange_json(scale: u32, workers: usize, entries: &[BenchEntry]) -> String {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"exchange\",");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"workers\": {workers},");
    let _ = writeln!(json, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let s = &e.stats;
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"workload\": \"{}\",", e.workload);
        let _ = writeln!(json, "      \"mode\": \"{}\",", e.mode);
        let _ = writeln!(
            json,
            "      \"runtime_ms\": {:.3},",
            finite(s.millis(), 0.0)
        );
        let _ = writeln!(
            json,
            "      \"remote_mib\": {:.4},",
            finite(s.remote_mib(), 0.0)
        );
        let _ = writeln!(json, "      \"supersteps\": {},", s.supersteps);
        let _ = writeln!(json, "      \"rounds\": {},", s.rounds);
        let _ = writeln!(json, "      \"max_rank_msgs\": {},", s.max_rank_msgs);
        let _ = writeln!(json, "      \"mirrored_msgs\": {},", s.mirrored_msgs());
        let _ = writeln!(json, "      \"mirror_saved_frames\": {},", s.mirror_saved());
        let _ = writeln!(json, "      \"pool_hits\": {},", s.pool.hits);
        let _ = writeln!(json, "      \"pool_misses\": {},", s.pool.misses);
        let _ = writeln!(
            json,
            "      \"pool_hit_rate\": {:.6},",
            pool_hit_rate(s.pool.hits, s.pool.misses)
        );
        let _ = writeln!(
            json,
            "      \"barrier_crossings\": {},",
            s.barrier_crossings
        );
        let _ = writeln!(
            json,
            "      \"crossings_per_round\": {:.4},",
            finite(s.crossings_per_round(), 0.0)
        );
        let _ = writeln!(json, "      \"wire_frames\": {},", s.transport.frames);
        let _ = writeln!(
            json,
            "      \"wire_mib\": {:.4},",
            finite(s.wire_mib(), 0.0)
        );
        let _ = writeln!(
            json,
            "      \"coalesced_frames\": {},",
            s.transport.coalesced_frames
        );
        let _ = writeln!(json, "      \"flushes\": {},", s.transport.flushes);
        let _ = writeln!(
            json,
            "      \"send_stall_us\": {},",
            s.transport.send_stall_us
        );
        let _ = writeln!(
            json,
            "      \"recv_stall_us\": {},",
            s.transport.recv_stall_us
        );
        let _ = writeln!(json, "      \"poll_waits\": {},", s.transport.poll_waits);
        let _ = writeln!(
            json,
            "      \"wakeups_spurious\": {}",
            s.transport.wakeups_spurious
        );
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < entries.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    json
}

/// Render one run's complete [`RunStats`] as a standalone JSON document —
/// the `--stats-json` payload. Everything `report()` prints to stderr is
/// here as a machine-readable field, plus the full transport counters,
/// the per-channel breakdown, and (when the run traced) the merged
/// per-superstep timeline — so CI and scripts stop grepping report lines.
pub fn run_stats_json(stats: &RunStats) -> String {
    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"runtime_ms\": {:.3},",
        finite(stats.millis(), 0.0)
    );
    let _ = writeln!(json, "  \"supersteps\": {},", stats.supersteps);
    let _ = writeln!(json, "  \"rounds\": {},", stats.rounds);
    let _ = writeln!(json, "  \"remote_bytes\": {},", stats.remote_bytes());
    let _ = writeln!(json, "  \"total_bytes\": {},", stats.total_bytes());
    let _ = writeln!(json, "  \"messages\": {},", stats.messages());
    let _ = writeln!(json, "  \"max_rank_msgs\": {},", stats.max_rank_msgs);
    let _ = writeln!(json, "  \"mirrored_msgs\": {},", stats.mirrored_msgs());
    let _ = writeln!(json, "  \"mirror_saved\": {},", stats.mirror_saved());
    let _ = writeln!(
        json,
        "  \"barrier_crossings\": {},",
        stats.barrier_crossings
    );
    let _ = writeln!(json, "  \"barrier_spins\": {},", stats.barrier_spins);
    let _ = writeln!(json, "  \"recoveries\": {},", stats.recoveries);
    let _ = writeln!(json, "  \"recovery_us\": {},", stats.recovery_us);
    let _ = writeln!(json, "  \"pool\": {{");
    let _ = writeln!(json, "    \"hits\": {},", stats.pool.hits);
    let _ = writeln!(json, "    \"misses\": {},", stats.pool.misses);
    let _ = writeln!(
        json,
        "    \"hit_rate\": {:.6}",
        pool_hit_rate(stats.pool.hits, stats.pool.misses)
    );
    let _ = writeln!(json, "  }},");
    let t = &stats.transport;
    let _ = writeln!(json, "  \"transport\": {{");
    let _ = writeln!(json, "    \"name\": \"{}\",", stats.transport_name);
    let _ = writeln!(json, "    \"wire_bytes\": {},", t.wire_bytes);
    let _ = writeln!(json, "    \"frames\": {},", t.frames);
    let _ = writeln!(json, "    \"round_trips\": {},", t.round_trips);
    let _ = writeln!(json, "    \"coalesced_frames\": {},", t.coalesced_frames);
    let _ = writeln!(json, "    \"flushes\": {},", t.flushes);
    let _ = writeln!(json, "    \"send_stall_us\": {},", t.send_stall_us);
    let _ = writeln!(json, "    \"recv_stall_us\": {},", t.recv_stall_us);
    let _ = writeln!(json, "    \"poll_waits\": {},", t.poll_waits);
    let _ = writeln!(json, "    \"wakeups_spurious\": {}", t.wakeups_spurious);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"channels\": [");
    for (i, c) in stats.channels.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", c.name);
        let _ = writeln!(json, "      \"remote_bytes\": {},", c.bytes.remote);
        let _ = writeln!(json, "      \"local_bytes\": {},", c.bytes.local);
        let _ = writeln!(json, "      \"messages\": {},", c.messages);
        let _ = writeln!(json, "      \"mirrored\": {},", c.mirrored);
        let _ = writeln!(json, "      \"mirror_saved\": {}", c.mirror_saved);
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < stats.channels.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"timeline\": [");
    for (i, r) in stats.timeline.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"superstep\": {},", r.superstep);
        let _ = writeln!(json, "      \"rounds\": {},", r.rounds);
        let _ = writeln!(json, "      \"active\": {},", r.active);
        let _ = writeln!(json, "      \"messages\": {},", r.messages);
        let _ = writeln!(json, "      \"remote_bytes\": {},", r.remote_bytes);
        let _ = writeln!(json, "      \"stall_us\": {},", r.stall_us);
        let _ = writeln!(json, "      \"pool_misses\": {},", r.pool_misses);
        let _ = writeln!(json, "      \"compute_us\": {},", r.compute_us);
        let _ = writeln!(json, "      \"exchange_us\": {},", r.exchange_us);
        let _ = writeln!(json, "      \"compute_max_us\": {},", r.compute_max_us);
        let _ = writeln!(json, "      \"exchange_max_us\": {}", r.exchange_max_us);
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < stats.timeline.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(workload: &str, stats: RunStats) -> BenchEntry {
        BenchEntry {
            workload: workload.to_string(),
            mode: "threads",
            stats,
        }
    }

    /// The 0/0 pool case of a zero-round workload serializes as `1.0`,
    /// and nothing in the document spells a non-finite float — the
    /// regression the CI `json.load` gate depends on.
    #[test]
    fn zero_round_workload_serializes_to_valid_json() {
        let json = exchange_json(10, 4, &[entry("empty", RunStats::default())]);
        assert!(json.contains("\"pool_hit_rate\": 1.000000"), "{json}");
        for bad in ["NaN", "nan", "inf"] {
            assert!(!json.contains(bad), "non-finite float leaked: {json}");
        }
        // Structural sanity a JSON parser would enforce: balanced braces,
        // no trailing comma before a closing brace.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(!json.contains(",\n    }"), "trailing comma: {json}");
        assert!(!json.contains(",\n  ]"), "trailing comma: {json}");
    }

    #[test]
    fn hit_rate_guards_division() {
        assert_eq!(pool_hit_rate(0, 0), 1.0);
        assert_eq!(pool_hit_rate(3, 1), 0.75);
        assert_eq!(pool_hit_rate(0, 5), 0.0);
    }

    /// The stall and readiness columns flow through to the document.
    #[test]
    fn stall_and_poll_columns_are_emitted() {
        let mut stats = RunStats::default();
        stats.transport.send_stall_us = 7;
        stats.transport.recv_stall_us = 11;
        stats.transport.poll_waits = 3;
        stats.transport.wakeups_spurious = 1;
        let json = exchange_json(10, 4, &[entry("w", stats)]);
        assert!(json.contains("\"send_stall_us\": 7,"), "{json}");
        assert!(json.contains("\"recv_stall_us\": 11,"), "{json}");
        assert!(json.contains("\"poll_waits\": 3,"), "{json}");
        assert!(json.contains("\"wakeups_spurious\": 1\n"), "{json}");
    }

    /// `run_stats_json` is structurally valid for both an empty default
    /// and a populated run with channels and a traced timeline: balanced
    /// braces, no trailing commas, no non-finite floats, and the
    /// timeline rows carried through.
    #[test]
    fn run_stats_json_is_wellformed() {
        use pc_bsp::trace::SuperstepStats;
        use pc_bsp::ChannelMetrics;
        let empty = run_stats_json(&RunStats::default());
        let mut stats = RunStats {
            supersteps: 2,
            rounds: 3,
            transport_name: "tcp",
            recoveries: 4,
            recovery_us: 12_500,
            ..Default::default()
        };
        stats.absorb_channels(vec![ChannelMetrics {
            name: "prop".to_string(),
            messages: 5,
            ..Default::default()
        }]);
        stats.timeline = vec![
            SuperstepStats {
                superstep: 1,
                rounds: 2,
                active: 10,
                messages: 4,
                remote_bytes: 64,
                stall_us: 7,
                pool_misses: 0,
                compute_us: 3,
                exchange_us: 9,
                compute_max_us: 2,
                exchange_max_us: 6,
            },
            SuperstepStats {
                superstep: 2,
                rounds: 1,
                ..Default::default()
            },
        ];
        let full = run_stats_json(&stats);
        for json in [&empty, &full] {
            assert_eq!(json.matches('{').count(), json.matches('}').count());
            assert_eq!(json.matches('[').count(), json.matches(']').count());
            for bad in ["NaN", "nan", "inf"] {
                assert!(!json.contains(bad), "non-finite float leaked: {json}");
            }
            assert!(!json.contains(",\n    }"), "trailing comma: {json}");
            assert!(!json.contains(",\n  ]"), "trailing comma: {json}");
            assert!(!json.contains(",\n  }"), "trailing comma: {json}");
        }
        assert!(empty.contains("\"timeline\": [\n  ]"), "{empty}");
        assert_eq!(full.matches("\"superstep\":").count(), 2, "{full}");
        assert!(full.contains("\"name\": \"prop\""), "{full}");
        assert!(full.contains("\"stall_us\": 7"), "{full}");
        assert!(full.contains("\"compute_max_us\": 2,"), "{full}");
        assert!(full.contains("\"exchange_max_us\": 6\n"), "{full}");
        assert!(full.contains("\"recoveries\": 4"), "{full}");
        assert!(full.contains("\"recovery_us\": 12500"), "{full}");
        assert!(empty.contains("\"recoveries\": 0"), "{empty}");
    }

    /// Entries separate with commas; the last one carries none.
    #[test]
    fn entry_separators_are_json_clean() {
        let json = exchange_json(
            10,
            4,
            &[
                entry("a", RunStats::default()),
                entry("b", RunStats::default()),
            ],
        );
        assert_eq!(json.matches("    },").count(), 1, "{json}");
        assert_eq!(json.matches("    }\n").count(), 1, "{json}");
    }
}
