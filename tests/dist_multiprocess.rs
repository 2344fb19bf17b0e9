//! Multi-process integration: real OS processes through the `pcgraph`
//! binary — launcher supervision, bootstrap rendezvous, partition
//! shipping, and the `--verify` arm that pins the distributed run to the
//! sequential reference (values, bytes, messages, supersteps, rounds,
//! pool — the same contract as `tests/transport_conformance.rs`, now
//! across process boundaries).
//!
//! Every launcher invocation here uses `--verify`: rank 0 re-runs the
//! sequential engine on the full graph after the distributed run and
//! exits non-zero on any divergence, so a passing exit code *is* the
//! conformance assertion.

use std::process::{Command, Output};
use std::time::Duration;

fn pcgraph() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pcgraph"));
    // Bound every child so a wedged cluster fails the test instead of
    // hanging it.
    cmd.env("PC_DIST_CONNECT_TIMEOUT_MS", "15000");
    cmd.env("PC_DIST_JOIN_TIMEOUT_MS", "120000");
    cmd
}

fn run_ok(args: &[&str]) -> Output {
    let out = pcgraph().args(args).output().expect("spawn pcgraph");
    assert!(
        out.status.success(),
        "pcgraph {args:?} failed (exit {:?})\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    out
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The acceptance bar: every shipped algorithm runs as 4 OS processes
/// with values, message counts and supersteps identical to the
/// sequential engine (asserted in-process by `--verify`).
#[test]
fn all_algorithms_verify_across_four_processes() {
    for algorithm in [
        "pagerank", "wcc", "sv", "scc", "sssp", "bfs", "kcore", "msf",
    ] {
        let out = run_ok(&[
            algorithm,
            "--gen",
            "wikipedia",
            "--scale",
            "7",
            "--ranks",
            "4",
            "--verify",
        ]);
        let err = stderr_of(&out);
        assert!(
            err.contains("verify: distributed run matches the sequential reference"),
            "{algorithm}: verification line missing\n{err}"
        );
        assert!(
            err.contains("transport tcp"),
            "{algorithm}: the run did not go over the socket mesh\n{err}"
        );
    }
}

/// `--transport tcp-batched` is an alias kept for older command lines:
/// every rank's mesh endpoint runs the one non-blocking coalescing
/// driver, reported as `tcp`, and the run still verifies against the
/// sequential reference — values, bytes, messages, supersteps, rounds and
/// pool traffic all identical.
#[test]
fn batched_transport_verifies_across_four_processes() {
    for algorithm in ["pagerank", "wcc"] {
        let out = run_ok(&[
            algorithm,
            "--gen",
            "wikipedia",
            "--scale",
            "7",
            "--ranks",
            "4",
            "--transport",
            "tcp-batched",
            "--verify",
        ]);
        let err = stderr_of(&out);
        assert!(
            err.contains("verify: distributed run matches the sequential reference"),
            "{algorithm}: verification line missing\n{err}"
        );
        assert!(
            err.contains("transport tcp "),
            "{algorithm}: the run did not report the tcp mesh\n{err}"
        );
    }
}

/// The value of `key` inside the `"transport"` object of a
/// `--stats-json` document.
fn transport_field(json: &str, key: &str) -> String {
    let block = &json[json.find("\"transport\": {").expect("transport object")..];
    let line = block
        .lines()
        .find(|l| l.trim_start().starts_with(&format!("\"{key}\":")))
        .unwrap_or_else(|| panic!("transport.{key} missing\n{json}"));
    let value = line.split_once(':').unwrap().1;
    value
        .trim()
        .trim_end_matches(',')
        .trim_matches('"')
        .to_string()
}

/// A plain `--ranks` run, with no `--transport`, goes over the
/// non-blocking batched mesh: the stats report `tcp` with coalesced
/// frames. `tcp-batched` still parses, to the same driver.
#[test]
fn plain_ranks_run_the_batched_mesh() {
    let stats = std::env::temp_dir().join(format!("pc_dist_mesh_{}.json", std::process::id()));
    let stats_arg = stats.display().to_string();
    let base = ["wcc", "--gen", "wikipedia", "--scale", "7", "--ranks", "2"];
    for extra in [&[][..], &["--transport", "tcp-batched"][..]] {
        let _ = std::fs::remove_file(&stats);
        let args: Vec<&str> = base
            .iter()
            .chain(extra)
            .chain(&["--stats-json", stats_arg.as_str()])
            .copied()
            .collect();
        run_ok(&args);
        let json = std::fs::read_to_string(&stats).expect("stats json written");
        assert_eq!(transport_field(&json, "name"), "tcp", "{extra:?}");
        let coalesced: u64 = transport_field(&json, "coalesced_frames").parse().unwrap();
        assert!(coalesced > 0, "{extra:?}: nothing coalesced\n{json}");
    }
    let _ = std::fs::remove_file(&stats);
}

/// Partition shipping from a real input file: only rank 0 can read it.
/// The launcher hands loader flags to rank 0 alone (follower commands do
/// not even contain the path — see the `child_args` unit tests), and the
/// run still verifies against the sequential reference, so the followers
/// demonstrably computed on shipped slices.
#[test]
fn launcher_ships_partitions_from_an_input_file() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("pc_dist_test_{}.txt", std::process::id()));
    // A little two-component graph plus isolated vertex padding.
    let mut edges = String::from("# test graph\n");
    for v in 0..40u32 {
        edges.push_str(&format!("{} {}\n", v, (v + 1) % 41));
        if v % 3 == 0 {
            edges.push_str(&format!("{} {}\n", v, 60 + v / 3));
        }
    }
    std::fs::write(&path, edges).unwrap();
    let out = run_ok(&[
        "wcc",
        "--input",
        path.to_str().unwrap(),
        "--ranks",
        "3",
        "--verify",
    ]);
    std::fs::remove_file(&path).ok();
    let err = stderr_of(&out);
    assert!(
        err.contains("verify: distributed run matches"),
        "verification line missing\n{err}"
    );
    // Rank 0 reports the load on stderr: 54 edge lines (the comment is
    // not one), ids up to 73, every edge both ways.
    assert!(
        err.contains("load: 54 lines, 74 vertices, 108 arcs in ") && err.contains(" (1 ranges)"),
        "load line missing\n{err}"
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("components"),
        "rank 0 printed no result"
    );
}

/// A weighted file of more than 2 MiB, so a host with two cores or more
/// parses it in two ranges or more, with parallel edges whose weights
/// come in out of order: the weights the loader places follow their
/// targets through the counting sort, and `--verify` pins the
/// distributed SSSP and MSF runs on the shipped slices to the sequential
/// engine on rank 0's graph.
#[test]
fn weighted_input_file_verifies_across_two_processes() {
    let path = std::env::temp_dir().join(format!("pc_dist_weighted_{}.txt", std::process::id()));
    let mut text = String::from("# weighted, parallel edges heaviest first\n");
    let mut lines = 0;
    for i in 0..140_000u64 {
        let (u, v) = ((i * 7_919) % 20_000, (i * 104_729 + 13) % 20_000);
        text.push_str(&format!("{u} {v} {}\n", 500 + i % 500));
        lines += 1;
        if i % 4 == 0 {
            text.push_str(&format!("{u}\t{v}\t{}\n", 1 + i % 499));
            lines += 1;
        }
    }
    assert!(text.len() > 2 << 20, "{} bytes", text.len());
    std::fs::write(&path, &text).unwrap();
    for algo in ["sssp", "msf"] {
        let out = run_ok(&[
            algo,
            "--input",
            path.to_str().unwrap(),
            "--ranks",
            "2",
            "--verify",
        ]);
        let err = stderr_of(&out);
        assert!(
            err.contains("verify: distributed run matches"),
            "{algo}: verification line missing\n{err}"
        );
        assert!(
            err.contains(&format!("load: {lines} lines, 20000 vertices, ")),
            "{algo}: load line missing\n{err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// LDG partitioning works distributed: rank 0 partitions, ships the owner
/// table, and the placement-sensitive propagation channel still conforms.
#[test]
fn partitioned_distributed_run_verifies() {
    let out = run_ok(&[
        "wcc",
        "--gen",
        "road",
        "--scale",
        "8",
        "--ranks",
        "3",
        "--partition",
        "--verify",
    ]);
    let err = stderr_of(&out);
    assert!(
        err.contains("ldg partition"),
        "partitioner did not run\n{err}"
    );
    assert!(err.contains("verify: distributed run matches"), "{err}");
}

/// The full skew-resistance stack works across real OS processes: rank 0
/// partitions degree-first, builds the mirror plan, ships it inside every
/// follower's PLAN frame, all four ranks pre-wire their Mirror channels,
/// and the run still matches the sequential reference byte for byte —
/// mirror counters and per-rank message volume included.
#[test]
fn mirrored_distributed_run_verifies() {
    let out = run_ok(&[
        "wcc",
        "--gen",
        "facebook",
        "--scale",
        "10",
        "--ranks",
        "4",
        "--transport",
        "tcp-batched",
        "--variant",
        "mirror",
        "--partitioner",
        "ldg-deg",
        "--mirror-threshold",
        "auto",
        "--verify",
    ]);
    let err = stderr_of(&out);
    // Both partition lines byte for byte: the partitioner's and the
    // report's, which print one edge-cut count.
    assert!(
        err.contains(
            "ldg-deg partition: edge-cut 17.4%\n\
             partition: 4 parts, edge-cut 17.4% (502/2888), sizes [283, 247, 247, 247], \
             45 hubs mirrored (τ=16), mirrors/part [0, 32, 31, 28], replication max 1.130\n"
        ),
        "partition lines changed\n{err}"
    );
    assert!(err.contains("ghost broadcasts"), "mirroring inert\n{err}");
    assert!(err.contains("verify: distributed run matches"), "{err}");
}

/// The single-process shape prints the same partition lines: after a
/// streaming partitioner, its edge cut again in the report; after hash
/// placement, the report alone, which counts the cut itself.
#[test]
fn single_process_partition_lines_are_pinned() {
    let lines = |args: &[&str]| {
        let mut all = vec![
            "wcc",
            "--gen",
            "facebook",
            "--scale",
            "10",
            "--variant",
            "mirror",
        ];
        all.extend(args);
        let err = stderr_of(&run_ok(&all));
        err.lines()
            .filter(|l| l.contains("partition"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        lines(&["--workers", "2", "--mirror-threshold", "auto"]),
        "partition: 2 parts, edge-cut 51.1% (1476/2888), sizes [516, 508], \
         45 hubs mirrored (τ=16), mirrors/part [22, 23], replication max 1.045"
    );
    assert_eq!(
        lines(&[
            "--workers",
            "3",
            "--partitioner",
            "ldg-deg",
            "--mirror-threshold",
            "1"
        ]),
        "ldg-deg partition: edge-cut 9.1%\n\
         partition: 3 parts, edge-cut 9.1% (262/2888), sizes [377, 324, 323], \
         518 hubs mirrored (τ=1), mirrors/part [123, 39, 46], replication max 1.326"
    );
}

/// A single-rank "cluster" is legal (debugging shape).
#[test]
fn single_rank_cluster_runs() {
    run_ok(&[
        "wcc",
        "--gen",
        "wikipedia",
        "--scale",
        "7",
        "--ranks",
        "1",
        "--verify",
    ]);
}

#[test]
fn unknown_flags_are_rejected_with_usage_exit() {
    let out = pcgraph().args(["wcc", "--frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("unknown flag '--frobnicate'"));
    let out = pcgraph()
        .args(["wcc", "stray-positional"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = pcgraph().args(["not-an-algorithm"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = pcgraph()
        .args(["wcc", "--rank", "1", "--ranks", "2"]) // no --coordinator
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn help_prints_to_stdout_and_exits_zero() {
    let out = pcgraph().arg("--help").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("--ranks"));
    assert!(text.contains("--coordinator"));
}

#[test]
fn engine_errors_exit_nonzero() {
    // Unreadable input: runtime error, exit 1.
    let out = pcgraph()
        .args(["wcc", "--input", "/nonexistent/graph.txt"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("cannot read"));
    // Same through the launcher: the failing rank's code propagates.
    let out = pcgraph()
        .args(["wcc", "--input", "/nonexistent/graph.txt", "--ranks", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr_of(&out).contains("rank 0 failed"));
    // A malformed line is not skipped: same exit, naming the line.
    let path = std::env::temp_dir().join(format!("pc_dist_bad_{}.txt", std::process::id()));
    std::fs::write(&path, "# header\n0 1\n1 x\n2 3\n").unwrap();
    for algo in ["wcc", "sssp"] {
        let out = pcgraph()
            .args([algo, "--input", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1));
        let err = stderr_of(&out);
        assert!(
            err.contains("cannot read") && err.contains("line 3: ") && err.contains("found `1 x`"),
            "{algo}: {err}"
        );
        assert!(out.stdout.is_empty(), "{algo} printed a result");
    }
    std::fs::remove_file(&path).ok();
}

/// A rank pointed at a dead coordinator fails fast with the bootstrap
/// exit code — a typed error, never a hang.
#[test]
fn dead_coordinator_is_a_typed_bootstrap_failure() {
    let out = pcgraph()
        .env("PC_DIST_CONNECT_TIMEOUT_MS", "400")
        .args([
            "wcc",
            "--rank",
            "1",
            "--ranks",
            "2",
            "--coordinator",
            "127.0.0.1:1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("bootstrap failed"));
}

/// A cluster whose followers never appear dies at the rendezvous
/// deadline with a typed failure (and the launcher reaps everything).
#[test]
fn missing_ranks_time_out() {
    // Rank 0 alone, expecting a second rank that never joins.
    let addr = {
        let l = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        l.local_addr().unwrap()
    };
    let start = std::time::Instant::now();
    let out = pcgraph()
        .env("PC_DIST_CONNECT_TIMEOUT_MS", "500")
        .args([
            "wcc",
            "--gen",
            "wikipedia",
            "--scale",
            "7",
            "--rank",
            "0",
            "--ranks",
            "2",
            "--coordinator",
            &addr.to_string(),
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("timed out"));
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "rendezvous timeout did not bound the wait"
    );
}

/// The launcher reads the `PC_DIST_*` deadlines once, before it spawns
/// anything: a malformed value is a usage error naming the variable,
/// printed once by the launcher, with no rank started to fail on it.
#[test]
fn launcher_refuses_a_malformed_deadline_before_spawning() {
    for (var, value) in [
        ("PC_DIST_CONNECT_TIMEOUT_MS", "soon"),
        ("PC_DIST_JOIN_TIMEOUT_MS", "-5"),
        ("PC_DIST_MAX_RESPAWNS", "many"),
    ] {
        let out = pcgraph()
            .env(var, value)
            .args(["wcc", "--gen", "wikipedia", "--scale", "7", "--ranks", "2"])
            .output()
            .unwrap();
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{var}: {err}");
        assert_eq!(err.matches(&format!("{var} expects")).count(), 1, "{err}");
        assert!(!err.contains("rank"), "a rank was spawned: {err}");
    }
}
