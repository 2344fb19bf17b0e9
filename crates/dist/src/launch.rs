//! The rank launcher: spawn one OS process per rank and supervise them.
//!
//! `pcgraph <algo> --ranks M` runs this supervisor: it picks a rendezvous
//! address, spawns `M` children (`pcgraph <algo> --rank i --ranks M
//! --coordinator HOST:PORT`), and waits for all of them under a deadline.
//! Rank 0 inherits the terminal (it prints the merged results); follower
//! stderr is captured and replayed only when something fails, so a clean
//! run prints exactly what a single-process run would.
//!
//! Failure handling is typed: a child that exits non-zero (or is killed
//! by a signal, or outlives the deadline) becomes a [`LaunchError`]
//! carrying the rank, the exit-code classification (usage / runtime /
//! bootstrap / panic) and the captured stderr; the remaining children are
//! killed so a wedged rank cannot leak processes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Exit code: success.
pub const EXIT_OK: i32 = 0;
/// Exit code: runtime failure (I/O, engine error, verification mismatch).
pub const EXIT_RUNTIME: i32 = 1;
/// Exit code: bad command line.
pub const EXIT_USAGE: i32 = 2;
/// Exit code: bootstrap/transport failure (rendezvous, shipping, mesh).
pub const EXIT_BOOTSTRAP: i32 = 3;

/// Human label for a child's exit code.
pub fn classify_exit(code: Option<i32>) -> &'static str {
    match code {
        Some(EXIT_OK) => "success",
        Some(EXIT_RUNTIME) => "runtime error",
        Some(EXIT_USAGE) => "usage error",
        Some(EXIT_BOOTSTRAP) => "bootstrap/transport failure",
        Some(101) => "panic",
        Some(_) => "unexpected exit code",
        None => "killed by signal",
    }
}

/// A launcher failure, carrying enough context to diagnose the rank.
#[derive(Debug)]
pub enum LaunchError {
    /// A child process could not be spawned at all.
    Spawn {
        /// Rank that failed to start.
        rank: usize,
        /// The underlying OS error.
        error: std::io::Error,
    },
    /// A child exited unsuccessfully.
    Exit {
        /// Rank that failed.
        rank: usize,
        /// Its raw exit code (`None`: killed by a signal).
        code: Option<i32>,
        /// [`classify_exit`] of `code`.
        kind: &'static str,
        /// The rank's captured stderr (empty for rank 0, which inherits
        /// the terminal).
        stderr: String,
    },
    /// Ranks still running when the join deadline expired (they have been
    /// killed).
    Timeout {
        /// Ranks that never finished.
        pending: Vec<usize>,
    },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Spawn { rank, error } => {
                write!(f, "cannot spawn rank {rank}: {error}")
            }
            LaunchError::Exit {
                rank,
                code,
                kind,
                stderr,
            } => {
                write!(f, "rank {rank} failed: {kind} (exit {code:?})")?;
                if !stderr.is_empty() {
                    write!(f, "\n--- rank {rank} stderr ---\n{}", stderr.trim_end())?;
                }
                Ok(())
            }
            LaunchError::Timeout { pending } => {
                write!(
                    f,
                    "ranks {pending:?} did not finish before the deadline (killed)"
                )
            }
        }
    }
}

impl std::error::Error for LaunchError {}

/// What to launch.
#[derive(Debug)]
pub struct LaunchSpec {
    /// The `pcgraph` binary (usually `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Number of ranks to spawn.
    pub ranks: usize,
    /// Deadline for the whole cluster to finish.
    pub join_timeout: Duration,
    /// How many times a rank that exits abnormally is respawned before
    /// its failure is propagated. 0 (the default for runs without
    /// checkpointing) keeps the original fail-fast supervision: any
    /// abnormal exit kills the cluster. Without [`LaunchSpec::ctrl_dir`],
    /// rank 0 is never respawned — it owns the rendezvous listener, the
    /// control plane and the loaded graph, so its death is fatal by
    /// design; with coordinator failover armed, rank 0 shares the budget
    /// like everyone else (it comes back as a plain follower).
    pub max_respawns: u32,
    /// Checkpoint directory holding the coordinator advertisement
    /// (`COORDINATOR`). `Some` arms coordinator failover: job completion
    /// is judged by the *acting* coordinator named in the advertisement
    /// (rank 0 until a standby takes over) rather than rank 0, rank 0
    /// becomes respawnable, and follower stdout is captured so a takeover
    /// coordinator's merged results can be replayed to the terminal.
    pub ctrl_dir: Option<PathBuf>,
}

/// Pick a free loopback address for the rendezvous.
///
/// The port is probed by binding and releasing it; rank 0 re-binds it
/// immediately on startup, so the race window is the spawn latency —
/// acceptable on loopback, and a lost race fails fast with a typed bind
/// error rather than a hang.
pub fn pick_rendezvous_addr() -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    listener.local_addr()
}

/// Kill and reap every child still running.
fn kill_all(children: &mut [(usize, Option<Child>)]) {
    for (_, slot) in children.iter_mut() {
        if let Some(child) = slot.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Drain a child pipe on a capture thread.
fn capture(pipe: impl Read + Send + 'static) -> std::thread::JoinHandle<String> {
    std::thread::spawn(move || {
        let mut pipe = pipe;
        let mut out = String::new();
        let _ = pipe.read_to_string(&mut out);
        out
    })
}

/// Read the acting coordinator's rank from the advertisement, if
/// failover is armed and one has been published. Rank 0 is acting until
/// a standby takes over (and always, when failover is off).
fn advertised_acting(ctrl_dir: &Option<PathBuf>) -> usize {
    let Some(dir) = ctrl_dir else { return 0 };
    match pc_ckpt::Store::open(dir).and_then(|s| s.read_advertisement()) {
        Ok(Some(ad)) => ad.acting as usize,
        _ => 0,
    }
}

/// Spawn one rank's child process; rank 0 inherits the terminal, other
/// ranks get their stderr piped into a capture thread (stdout too when
/// failover is armed, so a takeover coordinator's results survive).
fn spawn_rank(
    spec: &LaunchSpec,
    rank: usize,
    args: Vec<String>,
    stderr_slot: &mut Option<std::thread::JoinHandle<String>>,
    stdout_slot: &mut Option<std::thread::JoinHandle<String>>,
) -> Result<Child, std::io::Error> {
    let mut cmd = Command::new(&spec.exe);
    cmd.args(args);
    if rank > 0 {
        if spec.ctrl_dir.is_some() {
            cmd.stdout(Stdio::piped());
        } else {
            cmd.stdout(Stdio::null());
        }
        cmd.stderr(Stdio::piped());
    }
    let mut child = cmd.spawn()?;
    if let Some(pipe) = child.stderr.take() {
        *stderr_slot = Some(capture(pipe));
    }
    if let Some(pipe) = child.stdout.take() {
        *stdout_slot = Some(capture(pipe));
    }
    Ok(child)
}

/// Spawn `spec.ranks` children (`args_for_rank(i)` builds rank `i`'s
/// argument vector) and supervise them to completion.
///
/// Rank 0 inherits stdout/stderr; follower stderr is piped and captured.
/// Returns as soon as every rank exits 0. An abnormal exit of a non-zero
/// rank is respawned up to `spec.max_respawns` times (the rank-failure
/// recovery path: the new process re-joins the coordinator and the
/// cluster resumes from the last committed checkpoint); past the budget
/// — or with `max_respawns == 0` — the first failure kills the remaining
/// children and is returned typed. Rank 0's death is fatal too, unless
/// [`LaunchSpec::ctrl_dir`] arms coordinator failover: then rank 0 is
/// respawned like any other rank (the in-cluster standby election gives
/// the survivors a new coordinator; the respawn rejoins it as a plain
/// follower) and the job is complete when the *acting* coordinator named
/// in the advertisement exits 0.
pub fn launch(
    spec: &LaunchSpec,
    args_for_rank: impl Fn(usize) -> Vec<String>,
) -> Result<(), LaunchError> {
    assert!(spec.ranks >= 1);
    let failover = spec.ctrl_dir.is_some();
    let mut children: Vec<(usize, Option<Child>)> = Vec::with_capacity(spec.ranks);
    let mut stderr_readers: Vec<Option<std::thread::JoinHandle<String>>> =
        (0..spec.ranks).map(|_| None).collect();
    let mut stdout_readers: Vec<Option<std::thread::JoinHandle<String>>> =
        (0..spec.ranks).map(|_| None).collect();
    let mut respawns = vec![0u32; spec.ranks];
    // Rank 0 first: it binds the rendezvous address the others dial.
    for rank in 0..spec.ranks {
        let (err_slot, out_slot) = (&mut stderr_readers[rank], &mut stdout_readers[rank]);
        match spawn_rank(spec, rank, args_for_rank(rank), err_slot, out_slot) {
            Ok(child) => children.push((rank, Some(child))),
            Err(error) => {
                kill_all(&mut children);
                return Err(LaunchError::Spawn { rank, error });
            }
        }
    }
    let recovery = spec.max_respawns > 0;
    let deadline = Instant::now() + spec.join_timeout;
    let mut done = vec![false; spec.ranks];
    while !done.iter().all(|&d| d) {
        let mut progressed = false;
        let mut respawn_event = false;
        for i in 0..children.len() {
            let (rank, ref mut slot) = children[i];
            let Some(child) = slot.as_mut() else { continue };
            match child.try_wait() {
                Ok(None) => {}
                Ok(Some(status)) => {
                    progressed = true;
                    *slot = None;
                    if status.success() {
                        done[rank] = true;
                        if (recovery || failover) && rank == advertised_acting(&spec.ctrl_dir) {
                            // The acting coordinator printed (and, under
                            // --verify, validated) the merged results:
                            // the job is complete. Stragglers — e.g. a
                            // respawned rank still looking for a cluster
                            // that just finished without it — are moot.
                            // A takeover coordinator's streams were piped
                            // (it started as a follower); replay them so
                            // the terminal sees the results and the
                            // report/verify lines.
                            if rank != 0 {
                                if let Some(out) =
                                    stdout_readers[rank].take().and_then(|h| h.join().ok())
                                {
                                    let mut stdout = std::io::stdout();
                                    let _ = stdout.write_all(out.as_bytes());
                                    let _ = stdout.flush();
                                }
                                if let Some(err) =
                                    stderr_readers[rank].take().and_then(|h| h.join().ok())
                                {
                                    let mut stderr = std::io::stderr();
                                    let _ = stderr.write_all(err.as_bytes());
                                    let _ = stderr.flush();
                                }
                            }
                            kill_all(&mut children);
                            return Ok(());
                        }
                        continue;
                    }
                    let code = status.code();
                    let kind = classify_exit(code);
                    if recovery && (rank != 0 || failover) && respawns[rank] < spec.max_respawns {
                        respawns[rank] += 1;
                        // A dead rank's partial stdout (it may have been
                        // the acting coordinator) is noise: discard it so
                        // the eventual winner's output stands alone.
                        drop(stdout_readers[rank].take().map(|h| h.join()));
                        let captured = stderr_readers[rank]
                            .take()
                            .and_then(|h| h.join().ok())
                            .unwrap_or_default();
                        if !captured.trim().is_empty() {
                            eprintln!("--- rank {rank} stderr (before respawn) ---");
                            eprintln!("{}", captured.trim_end());
                        }
                        eprintln!(
                            "pcgraph launcher: rank {rank} died ({kind}, exit {code:?}); \
                             respawning (attempt {}/{})",
                            respawns[rank], spec.max_respawns
                        );
                        respawn_event = true;
                        continue;
                    }
                    kill_all(&mut children);
                    let stderr = stderr_readers[rank]
                        .take()
                        .and_then(|h| h.join().ok())
                        .unwrap_or_default();
                    return Err(LaunchError::Exit {
                        rank,
                        code,
                        kind,
                        stderr,
                    });
                }
                Err(error) => {
                    kill_all(&mut children);
                    return Err(LaunchError::Spawn { rank, error });
                }
            }
        }
        if respawn_event {
            // Recovery path: bring the dead rank(s) back — the
            // coordinator's recovery rendezvous re-ships their partitions
            // and the cluster resumes from the last committed checkpoint.
            // Every rank is needed for that resume, so non-zero ranks
            // that had already finished their part (the end-of-run
            // window, where followers exit right after posting their
            // gather) come back too; they restore the same checkpoint and
            // replay the same tail. Any non-live rank is (re)spawned
            // here — rank 0 included when failover is armed — so several
            // victims in one poll pass all come back.
            for i in 0..children.len() {
                let (rank, ref slot) = children[i];
                if (rank == 0 && !failover) || slot.is_some() {
                    continue;
                }
                if done[rank] {
                    eprintln!(
                        "pcgraph launcher: rank {rank} had finished; \
                         re-joining it for the recovery epoch"
                    );
                    done[rank] = false;
                }
                match spawn_rank(
                    spec,
                    rank,
                    args_for_rank(rank),
                    &mut stderr_readers[rank],
                    &mut stdout_readers[rank],
                ) {
                    Ok(new_child) => children[i].1 = Some(new_child),
                    Err(error) => {
                        kill_all(&mut children);
                        return Err(LaunchError::Spawn { rank, error });
                    }
                }
            }
        }
        if done.iter().all(|&d| d) {
            break;
        }
        if Instant::now() >= deadline {
            let pending: Vec<usize> = children
                .iter()
                .filter(|(_, c)| c.is_some())
                .map(|&(r, _)| r)
                .collect();
            kill_all(&mut children);
            return Err(LaunchError::Timeout { pending });
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh_spec(ranks: usize, timeout_ms: u64) -> LaunchSpec {
        LaunchSpec {
            exe: PathBuf::from("/bin/sh"),
            ranks,
            join_timeout: Duration::from_millis(timeout_ms),
            max_respawns: 0,
            ctrl_dir: None,
        }
    }

    /// A scratch directory that is removed when dropped.
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("pc_launch_{tag}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            ScratchDir(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn launch_succeeds_when_all_ranks_exit_zero() {
        let spec = sh_spec(3, 10_000);
        launch(&spec, |_| vec!["-c".into(), "exit 0".into()]).unwrap();
    }

    #[test]
    fn launch_reports_failing_rank_with_stderr() {
        let spec = sh_spec(3, 10_000);
        let err = launch(&spec, |rank| {
            if rank == 2 {
                vec!["-c".into(), "echo rank2 broke >&2; exit 3".into()]
            } else {
                vec!["-c".into(), "sleep 5".into()]
            }
        })
        .unwrap_err();
        match err {
            LaunchError::Exit {
                rank,
                code,
                kind,
                stderr,
            } => {
                assert_eq!(rank, 2);
                assert_eq!(code, Some(3));
                assert_eq!(kind, "bootstrap/transport failure");
                assert!(stderr.contains("rank2 broke"), "stderr: {stderr:?}");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn launch_kills_stragglers_on_deadline() {
        let spec = sh_spec(2, 300);
        let start = Instant::now();
        let err = launch(&spec, |_| vec!["-c".into(), "sleep 30".into()]).unwrap_err();
        assert!(matches!(err, LaunchError::Timeout { ref pending } if pending.len() == 2));
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "stragglers were not killed promptly"
        );
    }

    #[test]
    fn launch_surfaces_spawn_failures() {
        let spec = LaunchSpec {
            exe: PathBuf::from("/nonexistent/binary"),
            ranks: 2,
            join_timeout: Duration::from_secs(1),
            max_respawns: 0,
            ctrl_dir: None,
        };
        let err = launch(&spec, |_| vec![]).unwrap_err();
        assert!(matches!(err, LaunchError::Spawn { rank: 0, .. }));
    }

    /// With a respawn budget, a non-zero rank that dies abnormally is
    /// brought back (with the same argument vector) and the job still
    /// completes; the budget bounds how often.
    #[test]
    fn abnormal_follower_exit_is_respawned_within_budget() {
        let marker = std::env::temp_dir().join(format!("pc_launch_respawn_{}", std::process::id()));
        let _ = std::fs::remove_file(&marker);
        let spec = LaunchSpec {
            max_respawns: 3,
            ..sh_spec(3, 20_000)
        };
        let script = format!(
            "if [ -e {m} ]; then exit 0; else touch {m}; exit 1; fi",
            m = marker.display()
        );
        launch(&spec, |rank| {
            if rank == 2 {
                vec!["-c".into(), script.clone()]
            } else {
                vec!["-c".into(), "exit 0".into()]
            }
        })
        .unwrap();
        let _ = std::fs::remove_file(&marker);
    }

    /// A rank that keeps dying exhausts the budget and the original
    /// typed failure comes back.
    #[test]
    fn respawn_budget_is_bounded() {
        let spec = LaunchSpec {
            max_respawns: 2,
            ..sh_spec(2, 20_000)
        };
        let err = launch(&spec, |rank| {
            if rank == 1 {
                vec!["-c".into(), "exit 3".into()]
            } else {
                vec!["-c".into(), "sleep 5".into()]
            }
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                LaunchError::Exit {
                    rank: 1,
                    code: Some(3),
                    ..
                }
            ),
            "{err}"
        );
    }

    /// Without coordinator failover armed, rank 0 is never respawned,
    /// whatever the budget.
    #[test]
    fn rank_zero_death_is_fatal_without_failover() {
        let spec = LaunchSpec {
            max_respawns: 5,
            ..sh_spec(2, 20_000)
        };
        let err = launch(&spec, |rank| {
            if rank == 0 {
                vec!["-c".into(), "exit 1".into()]
            } else {
                vec!["-c".into(), "sleep 5".into()]
            }
        })
        .unwrap_err();
        assert!(matches!(err, LaunchError::Exit { rank: 0, .. }), "{err}");
    }

    /// With `ctrl_dir` set, a dying rank 0 is respawned within the same
    /// budget as everyone else.
    #[test]
    fn rank_zero_death_is_respawned_when_failover_is_armed() {
        let scratch = ScratchDir::new("failover_respawn");
        let marker = scratch.0.join("died_once");
        let spec = LaunchSpec {
            max_respawns: 3,
            ctrl_dir: Some(scratch.0.clone()),
            ..sh_spec(2, 20_000)
        };
        // First incarnation of rank 0 dies; its respawn completes the
        // job (no advertisement, so rank 0 stays the acting coordinator).
        let script = format!(
            "if [ -e {m} ]; then exit 0; else touch {m}; exit 1; fi",
            m = marker.display()
        );
        launch(&spec, |rank| {
            if rank == 0 {
                vec!["-c".into(), script.clone()]
            } else {
                vec!["-c".into(), "sleep 15".into()]
            }
        })
        .unwrap();
    }

    /// Completion follows the advertisement: once a takeover coordinator
    /// is advertised, *its* clean exit finishes the job even while other
    /// ranks (here: a wedged rank 0) are still running.
    #[test]
    fn completion_follows_the_advertised_acting_rank() {
        let scratch = ScratchDir::new("failover_acting");
        let store = pc_ckpt::Store::open(&scratch.0).unwrap();
        store
            .advertise(&pc_ckpt::Advertisement {
                epoch: 3,
                acting: 1,
                addr: "127.0.0.1:1".parse().unwrap(),
            })
            .unwrap();
        let spec = LaunchSpec {
            max_respawns: 2,
            ctrl_dir: Some(scratch.0.clone()),
            ..sh_spec(3, 20_000)
        };
        let start = Instant::now();
        launch(&spec, |rank| {
            if rank == 1 {
                vec!["-c".into(), "exit 0".into()]
            } else {
                vec!["-c".into(), "sleep 30".into()]
            }
        })
        .unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "acting rank's exit should have ended the job promptly"
        );
    }

    #[test]
    fn exit_codes_classify() {
        assert_eq!(classify_exit(Some(0)), "success");
        assert_eq!(classify_exit(Some(1)), "runtime error");
        assert_eq!(classify_exit(Some(2)), "usage error");
        assert_eq!(classify_exit(Some(3)), "bootstrap/transport failure");
        assert_eq!(classify_exit(Some(101)), "panic");
        assert_eq!(classify_exit(None), "killed by signal");
    }
}
