//! Rank-failure recovery, end to end with real OS processes and real
//! SIGKILLs.
//!
//! The harness launches `pcgraph --ranks 4` with checkpointing armed,
//! finds a non-zero rank's process via `/proc`, kills it with SIGKILL
//! mid-run, and requires the job to finish with `--verify` passing —
//! i.e. the launcher respawned the rank, the surviving ranks
//! re-rendezvoused, the cluster resumed from the last committed
//! checkpoint (or restarted cold when none was committed yet), and the
//! final values and statistics are byte-identical to the sequential
//! reference. With checkpointing disabled, the same kill must keep
//! producing the pre-existing typed failure exit.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The harness identifies victims by scanning `/proc` for pcgraph rank
/// processes; two concurrent tests launching the same algorithm would
/// kill each other's ranks. One cluster at a time.
static ONE_CLUSTER: Mutex<()> = Mutex::new(());

fn pcgraph() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pcgraph"));
    // Short enough that a recovery epoch stuck waiting on a dead
    // address converges quickly, long enough for a debug-build
    // bootstrap (graph generation included) to fit comfortably.
    cmd.env("PC_DIST_CONNECT_TIMEOUT_MS", "8000");
    cmd.env("PC_DIST_JOIN_TIMEOUT_MS", "180000");
    cmd.stdout(Stdio::piped());
    cmd.stderr(Stdio::piped());
    cmd
}

fn temp_ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pc_dist_recovery_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A pseudo-random non-zero victim rank, different across runs but
/// deterministic within one (no RNG dependency needed for a harness).
fn pick_victim(ranks: usize) -> usize {
    1 + (std::process::id() as usize + ranks) % (ranks - 1)
}

/// Find the PID of the rank process `--rank <rank>` of `algo` by walking
/// `/proc/*/cmdline` (NUL-separated argv). Rank processes are the only
/// pcgraph invocations carrying `--coordinator`.
fn find_rank_pid(algo: &str, rank: usize) -> Option<u32> {
    let want_rank = rank.to_string();
    for entry in std::fs::read_dir("/proc").ok()?.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(cmdline) = std::fs::read(entry.path().join("cmdline")) else {
            continue;
        };
        let args: Vec<&str> = cmdline
            .split(|&b| b == 0)
            .filter_map(|s| std::str::from_utf8(s).ok())
            .collect();
        let is_rank = args.first().is_some_and(|a| a.ends_with("pcgraph"))
            && args.get(1).is_some_and(|a| *a == algo)
            && args.contains(&"--coordinator")
            && args
                .windows(2)
                .any(|w| w[0] == "--rank" && w[1] == want_rank);
        if is_rank {
            return Some(pid);
        }
    }
    None
}

fn sigkill(pid: u32) {
    let status = Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -9 {pid} failed");
}

/// Wait until `pred` holds, the deadline passes, or the launcher exits.
fn wait_until(child: &mut Child, timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if pred() {
            return true;
        }
        if child.try_wait().expect("try_wait").is_some() {
            return false; // the run finished before the condition held
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

struct Finished {
    success: bool,
    stderr: String,
}

fn finish(child: Child) -> Finished {
    let out = child.wait_with_output().expect("wait for launcher");
    Finished {
        success: out.status.success(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// Launch `algo` over 4 ranks with the given checkpoint cadence, SIGKILL
/// rank `victim` once `ready` holds, and return the launcher's outcome —
/// `None` when the run finished before the victim could be killed (the
/// caller retries).
fn kill_rank_mid_run(
    algo: &str,
    extra: &[&str],
    ckpt: Option<(&str, &PathBuf)>,
    victim: usize,
    ready: impl Fn() -> bool,
) -> Option<Finished> {
    let _cluster = ONE_CLUSTER.lock().unwrap_or_else(|p| p.into_inner());
    let mut cmd = pcgraph();
    cmd.args([
        algo,
        "--gen",
        "wikipedia",
        "--scale",
        "10",
        "--ranks",
        "4",
        "--verify",
    ]);
    cmd.args(extra);
    if let Some((every, dir)) = ckpt {
        cmd.args(["--checkpoint-every", every, "--checkpoint-dir"]);
        cmd.arg(dir);
    }
    let mut child = cmd.spawn().expect("spawn launcher");
    let killed = wait_until(&mut child, Duration::from_secs(60), || {
        if !ready() {
            return false;
        }
        match find_rank_pid(algo, victim) {
            Some(pid) => {
                sigkill(pid);
                true
            }
            None => false,
        }
    });
    let done = finish(child);
    killed.then_some(done)
}

/// [`kill_rank_mid_run`] with a pseudo-random non-zero victim.
fn kill_one_rank_mid_run(
    algo: &str,
    extra: &[&str],
    ckpt: Option<(&str, &PathBuf)>,
    ready: impl Fn() -> bool,
) -> Option<Finished> {
    kill_rank_mid_run(algo, extra, ckpt, pick_victim(4), ready)
}

/// [`kill_one_rank_mid_run`], retried when the kill demonstrably landed
/// too late to matter: the signal can hit a rank that had already
/// finished (a zombie — the exit status was recorded first), in which
/// case the job completes with no recovery exercised. A handful of
/// retries makes the scenario land without making the workload huge.
fn kill_one_rank_with_effect(
    algo: &str,
    extra: &[&str],
    ckpt: Option<(&str, &PathBuf)>,
    ready: impl Fn() -> bool,
) -> Finished {
    for _ in 0..6 {
        let Some(done) = kill_one_rank_mid_run(algo, extra, ckpt, &ready) else {
            continue; // the run finished before the kill; try again
        };
        if done.success && !done.stderr.contains("respawning") {
            continue; // the kill hit a finished rank; try again
        }
        return done;
    }
    panic!("{algo}: six kills in a row landed after the run finished — grow the workload");
}

/// A committed checkpoint exists in `dir`.
fn has_manifest(dir: &PathBuf) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false;
    };
    entries
        .flatten()
        .any(|e| e.path().join("MANIFEST").is_file())
}

/// The acceptance scenario: a 4-rank PageRank with `--checkpoint-every 2`
/// survives a SIGKILL after at least one committed checkpoint; the
/// launcher respawns the rank, the job resumes from the checkpoint, and
/// `--verify` proves the final values identical to the sequential run.
#[test]
fn pagerank_survives_sigkill_after_checkpoint() {
    let dir = temp_ckpt_dir("pagerank");
    let done =
        kill_one_rank_with_effect("pagerank", &["--iters", "120"], Some(("2", &dir)), || {
            has_manifest(&dir)
        });
    assert!(
        done.success,
        "launcher failed\n--- stderr ---\n{}",
        done.stderr
    );
    assert!(
        done.stderr.contains("respawning"),
        "no respawn happened\n{}",
        done.stderr
    );
    assert!(
        done.stderr.contains("recovering"),
        "no recovery rendezvous ran\n{}",
        done.stderr
    );
    assert!(
        done.stderr
            .contains("verify: distributed run matches the sequential reference"),
        "verification line missing\n{}",
        done.stderr
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// WCC (message-passing variant, so the run spans many supersteps and
/// real checkpoints commit) survives the same kill.
#[test]
fn wcc_survives_sigkill_after_checkpoint() {
    let dir = temp_ckpt_dir("wcc");
    // A road network (later flags win over the helper's `--gen wikipedia
    // --scale 10`): hash-min needs one superstep per hop, ~100 of them
    // here. On the small-world default it converges in 5 — two epochs,
    // and a few milliseconds between the first MANIFEST and the end of
    // the run for the kill to land in: about one full-suite run in three
    // used up all six retries.
    let extra = ["--variant", "basic", "--gen", "road", "--scale", "12"];
    let done = kill_one_rank_with_effect("wcc", &extra, Some(("2", &dir)), || has_manifest(&dir));
    assert!(
        done.success,
        "launcher failed\n--- stderr ---\n{}",
        done.stderr
    );
    assert!(done.stderr.contains("respawning"), "{}", done.stderr);
    assert!(
        done.stderr
            .contains("verify: distributed run matches the sequential reference"),
        "{}",
        done.stderr
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A kill that lands before the first checkpoint commits exercises the
/// cold-restart path: recovery restarts the superstep loop from scratch
/// (same rendezvous machinery, no segment to restore) and still
/// verifies.
#[test]
fn kill_before_first_checkpoint_restarts_cold() {
    let dir = temp_ckpt_dir("cold");
    // A cadence the run never reaches: recovery must work with an empty
    // checkpoint directory.
    let done = kill_one_rank_with_effect(
        "pagerank",
        &["--iters", "120"],
        Some(("100000", &dir)),
        || true, // kill as soon as the victim process exists
    );
    assert!(
        done.success,
        "launcher failed\n--- stderr ---\n{}",
        done.stderr
    );
    assert!(done.stderr.contains("respawning"), "{}", done.stderr);
    assert!(
        done.stderr
            .contains("verify: distributed run matches the sequential reference"),
        "{}",
        done.stderr
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`kill_rank_mid_run`] on rank 0, retried when the kill demonstrably
/// landed too late to matter — same policy as
/// [`kill_one_rank_with_effect`].
fn kill_rank0_with_effect(
    algo: &str,
    extra: &[&str],
    ckpt: Option<(&str, &PathBuf)>,
    ready: impl Fn() -> bool,
) -> Finished {
    for _ in 0..6 {
        let Some(done) = kill_rank_mid_run(algo, extra, ckpt, 0, &ready) else {
            continue; // the run finished before the kill; try again
        };
        if done.success && !done.stderr.contains("respawning") {
            continue; // the kill hit a finished rank; try again
        }
        return done;
    }
    panic!("{algo}: six rank-0 kills in a row landed after the run finished — grow the workload");
}

/// The current coordinator advertisement in `dir`, if any.
fn advertised(dir: &PathBuf) -> Option<pc_ckpt::Advertisement> {
    pc_ckpt::Store::open(dir)
        .ok()
        .and_then(|s| s.read_advertisement().ok())
        .flatten()
}

/// Highest committed checkpoint step in `dir` (0 when none).
fn max_step(dir: &PathBuf) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let n = name.strip_prefix("step-")?.parse::<u64>().ok()?;
            e.path().join("MANIFEST").is_file().then_some(n)
        })
        .max()
        .unwrap_or(0)
}

/// The coordinator-failover acceptance scenario: SIGKILL rank 0 after a
/// committed checkpoint. The standby elects itself coordinator, the
/// respawned rank 0 rejoins as a plain follower, the job resumes from
/// the checkpoint, and the takeover coordinator's `--verify` proves the
/// final values identical to the sequential reference — reconstructing
/// the full graph from the replicated plans, since it never saw the
/// input. The run mirrors hubs under degree-sorted LDG, and every plan
/// carries only its own rank's mirror targets, so the takeover's verify
/// also rebuilds the full mirror plan from that graph. `--stats-json`
/// (written by the acting rank) must account the recovery epochs.
#[test]
fn rank_zero_sigkill_elects_standby_and_verifies() {
    let dir = temp_ckpt_dir("rank0");
    let stats =
        std::env::temp_dir().join(format!("pc_dist_rank0_stats_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&stats);
    let stats_arg = stats.display().to_string();
    let done = kill_rank0_with_effect(
        "pagerank",
        &[
            "--variant",
            "mirror",
            "--partitioner",
            "ldg-deg",
            "--mirror-threshold",
            "auto",
            "--iters",
            "120",
            "--stats-json",
            &stats_arg,
        ],
        Some(("2", &dir)),
        || has_manifest(&dir),
    );
    assert!(
        done.success,
        "launcher failed\n--- stderr ---\n{}",
        done.stderr
    );
    assert!(
        done.stderr.contains("standby taking over"),
        "no election ran\n{}",
        done.stderr
    );
    assert!(
        done.stderr
            .contains("verify: distributed run matches the sequential reference"),
        "verification line missing\n{}",
        done.stderr
    );
    let json = std::fs::read_to_string(&stats).expect("stats json written by the acting rank");
    let recoveries = json
        .lines()
        .find(|l| l.contains("\"recoveries\":"))
        .expect("recoveries field")
        .to_string();
    assert!(
        !recoveries.contains(" 0,"),
        "no recovery epoch recorded: {recoveries}"
    );
    let _ = std::fs::remove_file(&stats);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rank 0 dying *while a recovery rendezvous is already running* (here:
/// right after a follower was killed) is survivable too — the survivors'
/// rejoin or CTRL exchange fails, which escalates to the same election
/// path instead of a typed exit.
#[test]
fn rank_zero_kill_during_recovery_is_survivable() {
    let dir = temp_ckpt_dir("rank0_mid_recovery");
    for _ in 0..6 {
        let _cluster = ONE_CLUSTER.lock().unwrap_or_else(|p| p.into_inner());
        let _ = std::fs::remove_dir_all(&dir);
        let mut cmd = pcgraph();
        cmd.args([
            "pagerank",
            "--gen",
            "wikipedia",
            "--scale",
            "10",
            "--ranks",
            "4",
            "--verify",
            "--iters",
            "200",
            "--checkpoint-every",
            "2",
            "--checkpoint-dir",
        ]);
        cmd.arg(&dir);
        let mut child = cmd.spawn().expect("spawn launcher");
        // First kill: a follower, to start a recovery epoch.
        let follower_killed = wait_until(&mut child, Duration::from_secs(60), || {
            if !has_manifest(&dir) {
                return false;
            }
            match find_rank_pid("pagerank", 2) {
                Some(pid) => {
                    sigkill(pid);
                    true
                }
                None => false,
            }
        });
        // Second kill: rank 0, immediately — with luck mid-rendezvous,
        // but wherever it lands the job must survive.
        let rank0_killed =
            follower_killed
                && wait_until(&mut child, Duration::from_secs(30), || match find_rank_pid(
                    "pagerank", 0,
                ) {
                    Some(pid) => {
                        sigkill(pid);
                        true
                    }
                    None => false,
                });
        let done = finish(child);
        if !(follower_killed && rank0_killed) {
            continue; // the run finished before both kills landed
        }
        if done.success && !done.stderr.contains("respawning") {
            continue; // both kills hit finished ranks
        }
        assert!(
            done.success,
            "launcher failed\n--- stderr ---\n{}",
            done.stderr
        );
        assert!(
            done.stderr
                .contains("verify: distributed run matches the sequential reference"),
            "{}",
            done.stderr
        );
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    panic!("six double-kills in a row landed after the run finished — grow the workload");
}

/// After a first takeover, the new acting coordinator is itself covered:
/// the refreshed CTRL state designates a new standby (the respawned rank
/// 0, now the lowest-ranked follower), so killing the takeover
/// coordinator triggers a second election and the job still verifies.
#[test]
fn acting_coordinator_death_after_election_is_survivable() {
    let dir = temp_ckpt_dir("rank0_reelect");
    for _ in 0..6 {
        let _cluster = ONE_CLUSTER.lock().unwrap_or_else(|p| p.into_inner());
        let _ = std::fs::remove_dir_all(&dir);
        let mut cmd = pcgraph();
        cmd.args([
            "pagerank",
            "--gen",
            "wikipedia",
            "--scale",
            "10",
            "--ranks",
            "4",
            "--verify",
            "--iters",
            "300",
            "--checkpoint-every",
            "2",
            "--checkpoint-dir",
        ]);
        cmd.arg(&dir);
        let mut child = cmd.spawn().expect("spawn launcher");
        let killed0 = wait_until(&mut child, Duration::from_secs(60), || {
            if !has_manifest(&dir) {
                return false;
            }
            match find_rank_pid("pagerank", 0) {
                Some(pid) => {
                    sigkill(pid);
                    true
                }
                None => false,
            }
        });
        // Wait for the takeover advertisement, then for a fresh checkpoint
        // to commit under the new coordinator. A new manifest proves the
        // election fully completed — every rank rejoined, received the
        // refreshed control replica (which names a new standby), and resumed
        // the superstep loop. Killing the acting rank before that point is
        // the documented-unsurvivable double failure, not the scenario under
        // test.
        let mut step_at_takeover = None;
        let killed_acting = killed0
            && wait_until(&mut child, Duration::from_secs(90), || {
                let Some(ad) = advertised(&dir) else {
                    return false;
                };
                if ad.acting == 0 {
                    return false;
                }
                let base = *step_at_takeover.get_or_insert_with(|| max_step(&dir));
                if max_step(&dir) <= base {
                    return false;
                }
                match find_rank_pid("pagerank", ad.acting as usize) {
                    Some(pid) => {
                        sigkill(pid);
                        true
                    }
                    None => false,
                }
            });
        let done = finish(child);
        if !(killed0 && killed_acting) {
            continue; // the run finished before both kills landed
        }
        assert!(
            done.success,
            "launcher failed\n--- stderr ---\n{}",
            done.stderr
        );
        if done.stderr.matches("taking over").count() < 2 {
            continue; // the second kill hit an exiting coordinator
        }
        assert!(
            done.stderr
                .contains("verify: distributed run matches the sequential reference"),
            "{}",
            done.stderr
        );
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    panic!("six double-kills in a row landed after the run finished — grow the workload");
}

/// Without checkpointing there is no control replica to elect from, so
/// rank 0's death keeps its pre-existing typed fatal outcome, with no
/// respawn attempted.
#[test]
fn rank_zero_sigkill_without_checkpointing_stays_fatal() {
    let mut done = None;
    for _ in 0..6 {
        done = kill_rank_mid_run("pagerank", &["--iters", "120"], None, 0, || true);
        if done.as_ref().is_some_and(|d| !d.success) {
            break;
        }
    }
    let done = done.expect("every kill landed after the run finished");
    assert!(
        !done.success,
        "rank 0 death without checkpointing must fail the job\n{}",
        done.stderr
    );
    assert!(
        !done.stderr.contains("respawning"),
        "rank 0 was respawned without failover armed\n{}",
        done.stderr
    );
    assert!(
        done.stderr.contains("rank 0"),
        "the failure should name rank 0\n{}",
        done.stderr
    );
}

/// Without checkpointing the same kill keeps its pre-existing typed
/// failure: the launcher must NOT respawn, and the job fails.
#[test]
fn sigkill_without_checkpointing_stays_fatal() {
    // Retried like the recovery arms: a kill that hits an
    // already-finished rank (or lands after the run) proves nothing
    // either way.
    let mut done = None;
    for _ in 0..6 {
        done = kill_one_rank_mid_run("pagerank", &["--iters", "120"], None, || true);
        if done.as_ref().is_some_and(|d| !d.success) {
            break;
        }
    }
    let done = done.expect("every kill landed after the run finished");
    assert!(
        !done.success,
        "a kill without checkpointing must fail the job\n{}",
        done.stderr
    );
    assert!(
        !done.stderr.contains("respawning"),
        "respawn ran without checkpointing\n{}",
        done.stderr
    );
}
