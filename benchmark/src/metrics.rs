//! The metric tables (the single source `BENCHMARK.json` is checked
//! against), the sample summary, and the regression comparator.

use crate::json::Json;

/// An end-to-end metric: what a user of `pcgraph --ranks M` sees. All
/// are lower-is-better and reported per workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the baseline by which the metric may worsen. The time
    /// bounds sit at the contract's ceiling because the host does: ten
    /// seeds of unchanged code still spread (IQR/median) up to 11 % after
    /// best-of-N and host-factor scaling — see README.md, "Noise".
    pub bound: f64,
    /// A difference also has to exceed this absolute amount to count.
    pub floor: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
        floor: 0.03,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        bound: 0.25,
        floor: 0.03,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        floor: 0.03,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.25,
        floor: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        bound: 0.10,
        floor: 2.0,
    },
];

/// A per-layer metric. `feeds` names the end-to-end metric (and the
/// workload) it should move; per-layer metrics are never gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub feeds: &'static str,
}

const fn lo(name: &'static str, unit: &'static str, feeds: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        feeds,
    }
}

const fn hi(name: &'static str, unit: &'static str, feeds: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
        feeds,
    }
}

const GRAPH: &str = "setup_s, wall_s, peak_rss_mib on wcc_skew_mirror; flat on bfs_chain";
const DIST: &str = "setup_s, peak_rss_mib on wcc_skew_mirror; flat on pr_dense_1w";
const BSP_ROUND: &str = "run_s, cpu_s on bfs_chain; flat on pr_dense_1w";
const BSP_BYTES: &str = "run_s on pr_dense; flat on pr_dense_1w";
const CORE: &str = "run_s on pr_dense, sv_compose; ~0 share on bfs_chain";
const CORE_SPLIT: &str = "splits run_s into engine / shared-memory exchange / wire";
const CKPT: &str = "run_s, wall_s on pr_dense_ckpt only";
const PAPER: &str = "reported, never gated";

pub const PER_LAYER: [PerLayer; 59] = [
    lo("graph.load_s", "s", GRAPH),
    hi("graph.load_medges_per_s", "Medges/s", GRAPH),
    lo("graph.partition_s", "s", GRAPH),
    lo("graph.mirror_plan_s", "s", GRAPH),
    hi(
        "graph.mirrored_hubs",
        "count",
        "core.mirror_saved, run_s on wcc_skew_mirror",
    ),
    lo(
        "graph.edge_cut_pct",
        "%",
        "core.remote_mib, run_s on wcc_skew_mirror",
    ),
    lo("dist.slice_s", "s", DIST),
    lo("dist.plan_encode_s", "s", DIST),
    lo("dist.plan_decode_s", "s", DIST),
    lo("dist.plan_mib", "MiB", DIST),
    lo(
        "dist.rendezvous_s",
        "s",
        "setup_s on bfs_chain (the launcher+rendezvous floor)",
    ),
    lo("bsp.round_us", "us", BSP_ROUND),
    lo("bsp.wire_mib", "MiB", BSP_BYTES),
    lo("bsp.frames", "count", BSP_BYTES),
    hi("bsp.coalesced_frames", "count", BSP_BYTES),
    lo("bsp.round_trips", "count", BSP_ROUND),
    lo("bsp.poll_waits", "count", BSP_ROUND),
    lo("bsp.wakeups_spurious", "count", BSP_ROUND),
    lo("bsp.send_stall_us", "us", BSP_BYTES),
    lo("bsp.recv_stall_us", "us", BSP_ROUND),
    lo("bsp.barrier_us", "us", BSP_ROUND),
    lo("bsp.poll_wait_us", "us", BSP_ROUND),
    hi("bsp.pool_hit_rate", "ratio", BSP_BYTES),
    lo("bsp.pool_misses", "count", BSP_BYTES),
    hi("bsp.codec_encode_mib_per_s", "MiB/s", BSP_BYTES),
    hi("bsp.codec_decode_mib_per_s", "MiB/s", BSP_BYTES),
    hi(
        "bsp.sync_over_batched",
        "ratio",
        "decides the 'one TCP driver' item",
    ),
    lo("core.compute_us", "us", CORE),
    lo("core.exchange_us", "us", CORE),
    lo(
        "core.rank_imbalance",
        "ratio",
        "run_s on wcc_skew_mirror, pr_dense",
    ),
    lo("core.supersteps", "count", CORE),
    lo("core.rounds", "count", CORE),
    lo("core.messages", "count", CORE),
    lo(
        "core.remote_mib",
        "MiB",
        "the paper's message-size column; run_s on pr_dense",
    ),
    lo("core.bytes_per_msg", "B", "core.remote_mib"),
    lo("core.max_rank_msgs", "count", "core.rank_imbalance"),
    hi("core.mirror_saved", "count", "run_s on wcc_skew_mirror"),
    lo("core.seq_run_s", "s", CORE_SPLIT),
    lo("core.threads_run_s", "s", CORE_SPLIT),
    lo("core.tcp_threads_run_s", "s", CORE_SPLIT),
    lo(
        "core.threads_over_seq",
        "ratio",
        "the ROADMAP's threads-never-beat-sequential curve",
    ),
    hi(
        "algos.seq_medges_per_s",
        "Medges/s",
        "run_s on pr_dense_1w, then pr_dense; flat on bfs_chain",
    ),
    lo("ckpt.write_segment_s", "s", CKPT),
    lo("ckpt.commit_s", "s", CKPT),
    lo(
        "ckpt.read_segment_s",
        "s",
        "recovery time (not measured here)",
    ),
    lo("ckpt.segment_mib", "MiB", CKPT),
    lo("ckpt.epochs", "count", CKPT),
    lo("ckpt.span_us", "us", CKPT),
    lo("ckpt.overhead_s", "s", CKPT),
    hi("paper.t4_bytes_ratio", "ratio", PAPER),
    hi("paper.t4_time_ratio", "ratio", PAPER),
    hi("paper.t5_rounds_ratio", "ratio", PAPER),
    hi("paper.t5_time_ratio", "ratio", PAPER),
    hi("paper.t6_sv_time_ratio", "ratio", PAPER),
    hi("paper.t6_sv_bytes_ratio", "ratio", PAPER),
    lo(
        "pcgraph.trace_overhead_pct",
        "%",
        "why end-to-end metrics come from untraced reps",
    ),
    lo(
        "pcgraph.trace_dropped_events",
        "count",
        "trust in the span sums above",
    ),
    lo("layers.pass_s", "s", "the layer pass as a whole"),
    lo(
        "layers.self_s",
        "s",
        "layer-pass time no child span accounts for",
    ),
];

pub const MIB: f64 = (1u64 << 20) as f64;

/// The unit a value is printed with: the tables' for a metric, seconds
/// for the raw timings printed beside them, a ratio for the host factor.
pub fn unit_of(name: &str) -> &'static str {
    let e2e = END_TO_END.iter().map(|m| (m.name, m.unit));
    let layer = PER_LAYER.iter().map(|m| (m.name, m.unit));
    match e2e.chain(layer).find(|(n, _)| *n == name) {
        Some((_, unit)) => unit,
        None if name == "host_factor" => "ratio",
        None => "s",
    }
}

/// `median`, `min`, `max` and `n` of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The number reported for the metric: the median, or the minimum
    /// after [`Summary::best_of`].
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
    /// The base of a ratio, or how a value was obtained, for the report.
    pub note: String,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let mid = s.len() / 2;
        let median = if s.len() % 2 == 1 {
            s[mid]
        } else {
            (s[mid - 1] + s[mid]) / 2.0
        };
        Summary {
            value: median,
            median,
            min: s[0],
            max: s[s.len() - 1],
            n: s.len(),
            note: String::new(),
        }
    }

    /// Summary of `f` over `items`.
    pub fn over<T>(items: &[T], f: impl Fn(&T) -> f64) -> Summary {
        Summary::of(&items.iter().map(f).collect::<Vec<_>>())
    }

    pub fn one(value: f64) -> Summary {
        Summary::of(&[value])
    }

    /// Report the fastest sample. Every timed rep does identical work
    /// and interference only ever adds time, so on a shared host the
    /// minimum is the steadiest estimate of what the program costs.
    pub fn best_of(mut self) -> Summary {
        self.value = self.min;
        self
    }

    pub fn noted(mut self, note: impl Into<String>) -> Summary {
        self.note = note.into();
        self
    }
}

/// Named values of one pass, in recording order.
#[derive(Debug, Default)]
pub struct Values(pub Vec<(&'static str, Summary)>);

impl Values {
    pub fn set(&mut self, name: &'static str, s: Summary) {
        debug_assert!(self.get(name).is_none(), "{name} recorded twice");
        self.0.push((name, s));
    }

    pub fn num(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::one(value));
    }

    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, s)| s)
    }

    pub fn extend(&mut self, other: Values) {
        for (n, s) in other.0 {
            self.set(n, s);
        }
    }
}

/// Whether `candidate` is worse than `baseline` by more than the
/// metric's bound **and** its absolute floor (lower is better).
pub fn regressed(m: &EndToEnd, baseline: f64, candidate: f64) -> bool {
    let worse_by = candidate - baseline;
    worse_by > m.bound * baseline && worse_by > m.floor
}

/// Whether two runs of the same code disagree on `m` (either direction).
pub fn disagree(m: &EndToEnd, a: f64, b: f64) -> bool {
    regressed(m, a, b) || regressed(m, b, a)
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Check a `BENCHMARK.json` document against the tables the harness
/// prints from: same names in the same order, same units, directions
/// and bounds, within the contract's limits.
pub fn validate_manifest(doc: &Json, workloads: &[(&str, &str)]) -> Result<(), String> {
    let list = |key: &str| doc.get(key).map(Json::arr).unwrap_or_default();
    let field = |m: &'_ Json, k: &str| m.get(k).and_then(Json::str).unwrap_or("").to_string();
    let names = |key: &str| -> Vec<&str> {
        list(key)
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::str))
            .collect()
    };
    let mut seen = std::collections::BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for n in names(key) {
            if !name_ok(n) {
                return Err(format!("{key}: bad name {n:?}"));
            }
            if !seen.insert(n.to_string()) {
                return Err(format!("{key}: name {n:?} used twice"));
            }
        }
    }
    let (e2e, layers) = (names("end_to_end"), names("per_layer"));
    if e2e.len() > 16 || layers.len() > 128 {
        return Err(format!(
            "{} end-to-end / {} per-layer metrics exceed 16 / 128",
            e2e.len(),
            layers.len()
        ));
    }
    if e2e != END_TO_END.map(|m| m.name) {
        return Err(format!(
            "end_to_end names {e2e:?} differ from the harness table"
        ));
    }
    if layers != PER_LAYER.map(|m| m.name) {
        return Err("per_layer names differ from the harness table".to_string());
    }
    for (m, want) in list("end_to_end").iter().zip(&END_TO_END) {
        let bound = m.get("bound").and_then(Json::num).unwrap_or(-1.0);
        if field(m, "unit") != want.unit || field(m, "better") != "lower" || bound != want.bound {
            return Err(format!(
                "end_to_end {} differs from the harness table",
                want.name
            ));
        }
        if !(0.0..=0.25).contains(&bound) {
            return Err(format!("{}: bound {bound} outside 0..=0.25", want.name));
        }
    }
    for (m, want) in list("per_layer").iter().zip(&PER_LAYER) {
        let better = if want.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        if field(m, "unit") != want.unit || field(m, "better") != better {
            return Err(format!(
                "per_layer {} differs from the harness table",
                want.name
            ));
        }
    }
    let listed: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let want: Vec<(String, String)> = workloads
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    if listed != want {
        return Err("workloads differ from the harness table".to_string());
    }
    if let Some((n, _)) = listed
        .iter()
        .find(|(_, why)| why.len() > 200 || why.contains('\n'))
    {
        return Err(format!(
            "workload {n}: why is not one line of at most 200 characters"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reports_median_min_max_n() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(
            (s.value, s.median, s.min, s.max, s.n),
            (2.0, 2.0, 1.0, 3.0, 3)
        );
        assert_eq!(Summary::of(&[4.0, 1.0, 2.0, 3.0]).median, 2.5);
        assert_eq!(s.best_of().value, 1.0);
    }

    #[test]
    fn a_regression_must_clear_both_bound_and_floor() {
        let m = EndToEnd {
            name: "t",
            unit: "s",
            bound: 0.10,
            floor: 0.03,
        };
        assert!(!regressed(&m, 1.0, 1.09), "inside the bound");
        assert!(regressed(&m, 1.0, 1.11));
        assert!(!regressed(&m, 0.1, 0.125), "25 % worse but under the floor");
        assert!(!regressed(&m, 1.0, 0.5), "better is never a regression");
        assert!(disagree(&m, 1.0, 0.8) && disagree(&m, 0.8, 1.0));
        assert!(!disagree(&m, 1.0, 1.05));
    }

    fn manifest() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap()
    }

    fn workloads() -> Vec<(&'static str, &'static str)> {
        crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name, w.why))
            .collect()
    }

    /// The names the harness prints are the names `BENCHMARK.json` lists.
    #[test]
    fn the_committed_manifest_matches_the_tables() {
        let doc = Json::parse(&manifest()).unwrap();
        assert_eq!(validate_manifest(&doc, &workloads()), Ok(()));
        let keys: Vec<&str> = match &doc {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn the_validator_rejects_drift() {
        let text = manifest();
        let broken = |from: &str, to: &str| {
            assert!(text.contains(from), "{from}");
            let doc = Json::parse(&text.replacen(from, to, 1)).unwrap();
            validate_manifest(&doc, &workloads()).unwrap_err()
        };
        assert!(broken("\"wall_s\"", "\"wall_clock_s\"").contains("end_to_end names"));
        assert!(broken("\"bsp.round_us\"", "\"bsp round\"").contains("bad name"));
        assert!(broken("\"bsp.round_us\"", "\"bsp.frames\"").contains("used twice"));
        assert!(broken("\"bound\": 0.25}", "\"bound\": 0.2}").contains("wall_s"));
        assert!(broken("\"name\": \"bfs_chain\"", "\"name\": \"bfs_ring\"").contains("workloads"));
        let many: String = (0..17)
            .map(|i| format!("{{\"name\": \"m{i}\"}},"))
            .collect();
        let doc = Json::parse(&format!(
            "{{\"end_to_end\": [{}]}}",
            many.trim_end_matches(',')
        ))
        .unwrap();
        assert!(validate_manifest(&doc, &workloads())
            .unwrap_err()
            .contains("exceed"));
    }

    #[test]
    fn names_follow_the_contract() {
        for n in ["wall_s", "bsp.round_us", "paper.t4-x", "9lives"] {
            assert!(name_ok(n), "{n}");
        }
        for n in ["", ".hidden", "a b", "µs", &"x".repeat(65)] {
            assert!(!name_ok(n), "{n}");
        }
        assert!(END_TO_END.iter().all(|m| name_ok(m.name)));
        assert!(PER_LAYER.iter().all(|m| name_ok(m.name)));
    }
}
