//! One rep: spawn the real `pcgraph`, block until its process tree is
//! gone, and read back what it reported.

use crate::json::Json;
use crate::sys;
use crate::workloads::{Generated, Workload, RANKS};
use std::fs::File;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Per-rep watchdog: past this the process tree is killed and the rep
/// counts as failed.
pub const REP_TIMEOUT_S: u32 = 60;

const VERIFY_LINE: &str = "verify: distributed run matches the sequential reference";

/// Where the harness finds the program and keeps its files.
pub struct Ctx {
    pub pcgraph: PathBuf,
    pub out: PathBuf,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untimed first rep: `--verify` on multi-rank workloads.
    Verify,
    Timed,
    /// `--trace FILE` on; feeds the per-layer metrics only.
    Traced,
    /// The workload's command line minus its checkpoint flags — the
    /// base `ckpt.overhead_s` is measured against.
    NoCkpt,
}

/// The counters that repeat exactly from run to run of one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub supersteps: u64,
    pub rounds: u64,
    pub messages: u64,
    pub remote_bytes: u64,
}

/// One rep as measured. The `*_s` fields are raw; the end-to-end metrics
/// read them through [`Rep::wall`] and friends, which apply the host
/// factor (see `calibrate.rs`).
#[derive(Debug)]
pub struct Rep {
    /// Spawn of `pcgraph` to exit of the launcher and all ranks.
    pub wall_s: f64,
    /// The superstep loop as the program reports it.
    pub run_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
    /// Quiet-host seconds per measured second while this rep ran; 1.0
    /// until the caller that timed the calibration walks sets it.
    pub host_factor: f64,
    /// FNV-1a of the program's stdout (its printed results).
    pub digest: u64,
    pub stdout: String,
    pub counters: Counters,
    /// The whole `--stats-json` document.
    pub stats: Json,
}

impl Rep {
    pub fn wall(&self) -> f64 {
        self.wall_s * self.host_factor
    }

    pub fn run(&self) -> f64 {
        self.run_s * self.host_factor
    }

    /// Everything outside the superstep loop: spawn, load, partition,
    /// rendezvous, plan shipping, gather, report.
    pub fn setup(&self) -> f64 {
        (self.wall_s - self.run_s) * self.host_factor
    }

    pub fn cpu(&self) -> f64 {
        self.cpu_s * self.host_factor
    }
}

pub fn counters_of(stats: &Json) -> Result<Counters, String> {
    Ok(Counters {
        supersteps: stats.field("supersteps")? as u64,
        rounds: stats.field("rounds")? as u64,
        messages: stats.field("messages")? as u64,
        remote_bytes: stats.field("remote_bytes")? as u64,
    })
}

/// `out/<workload>.<suffix>`: every file a rep reads or writes.
fn out_file(ctx: &Ctx, w: &Workload, suffix: &str) -> PathBuf {
    ctx.out.join(format!("{}.{suffix}", w.name))
}

pub fn trace_path(ctx: &Ctx, w: &Workload) -> PathBuf {
    out_file(ctx, w, "trace.json")
}

/// A free loopback address **below the ephemeral port range** for a
/// rendezvous listener.
///
/// Left to itself the launcher probes an ephemeral port, releases it and
/// lets rank 0 re-bind it; a follower that connects in between can be
/// handed that very port as its source port, self-connect, and leave
/// rank 0 with `EADDRINUSE` (seen once in ~800 reps — see README.md). The
/// kernel never hands out a port from down here, so `--coordinator` on
/// one keeps that race out of a performance measurement.
pub fn rendezvous_addr() -> Result<SocketAddr, String> {
    let start = 20_000 + (std::process::id() % 8_000) as u16;
    (start..start + 64)
        .map(|port| SocketAddr::from(([127, 0, 0, 1], port)))
        .find(|addr| TcpListener::bind(addr).is_ok())
        .ok_or_else(|| format!("no free loopback port in {start}..{}", start + 64))
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Run one rep of `w`. `Err` is the reason the rep counts as failed.
pub fn run_rep(ctx: &Ctx, w: &Workload, input: &Generated, mode: Mode) -> Result<Rep, String> {
    let file = |suffix: &str| out_file(ctx, w, suffix);
    let (stats_path, stdout_path, stderr_path) =
        (file("stats.json"), file("stdout"), file("stderr"));
    let ckpt_dir = file("ckpt");
    let _ = std::fs::remove_file(&stats_path);

    let mut cmd = Command::new(&ctx.pcgraph);
    cmd.args(w.algo);
    if w.multi_rank {
        cmd.args(["--ranks", &RANKS.to_string(), "--transport", "tcp-batched"]);
        cmd.args(["--coordinator", &rendezvous_addr()?.to_string()]);
    } else {
        cmd.args(["--workers", "1"]);
    }
    cmd.arg("--input").arg(&input.path);
    if let Some(src) = input.src {
        cmd.args(["--src", &src.to_string()]);
    }
    cmd.arg("--stats-json").arg(&stats_path);
    if mode == Mode::Verify && w.multi_rank {
        cmd.arg("--verify");
    }
    if mode == Mode::Traced {
        cmd.arg("--trace").arg(trace_path(ctx, w));
    }
    let ckpt = w.ckpt_every.filter(|_| mode != Mode::NoCkpt);
    if let Some(every) = ckpt {
        // Fresh per rep: a stale epoch must never be restored or timed.
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        cmd.args(["--checkpoint-every", &every.to_string()]);
        cmd.arg("--checkpoint-dir").arg(&ckpt_dir);
    }
    // A stale PC_* knob in the caller's environment must not relabel a run.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PC_") {
            cmd.env_remove(key);
        }
    }
    let create = |p: &Path| File::create(p).map_err(|e| format!("{}: {e}", p.display()));
    cmd.stdin(Stdio::null())
        .stdout(create(&stdout_path)?)
        .stderr(create(&stderr_path)?);
    // Its own process group, so the watchdog can kill launcher and ranks.
    std::os::unix::process::CommandExt::process_group(&mut cmd, 0);

    sys::forget_peak_rss();
    let t = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", ctx.pcgraph.display()))?;
    let exit = sys::wait_tree(child.id(), REP_TIMEOUT_S).map_err(|e| format!("wait4: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    if ckpt.is_some() {
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }

    if exit.timed_out {
        return Err(format!(
            "timed out after {REP_TIMEOUT_S} s; process tree killed"
        ));
    }
    if exit.code != Some(0) {
        let stderr = read(&stderr_path).unwrap_or_default();
        let tail: Vec<&str> = stderr.lines().rev().take(3).collect();
        return Err(format!("exit {:?}: {}", exit.code, tail.join(" | ")));
    }
    if mode == Mode::Verify && w.multi_rank && !read(&stderr_path)?.contains(VERIFY_LINE) {
        return Err("--verify did not confirm the sequential reference".to_string());
    }
    let stdout = read(&stdout_path)?;
    let stats = Json::parse(&read(&stats_path)?).map_err(|e| format!("stats json: {e}"))?;
    Ok(Rep {
        wall_s,
        run_s: stats.field("runtime_ms")? / 1e3,
        cpu_s: exit.cpu_s,
        peak_rss_mib: exit.peak_rss_mib,
        host_factor: 1.0,
        digest: pc_ckpt::fnv64(stdout.as_bytes()),
        stdout,
        counters: counters_of(&stats)?,
        stats,
    })
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A checked-in `pcgraph --stats-json` document (a traced
    /// `wcc_skew_mirror` run): the reader finds what the metrics need.
    pub const FIXTURE: &str = include_str!("../tests/fixtures/stats.json");

    #[test]
    fn reads_the_stats_json_fixture() {
        let stats = Json::parse(FIXTURE).unwrap();
        assert_eq!(
            counters_of(&stats).unwrap(),
            Counters {
                supersteps: 5,
                rounds: 12,
                messages: 98645,
                remote_bytes: 647088
            }
        );
        assert_eq!(stats.field("runtime_ms"), Ok(647.134));
        assert_eq!(
            stats.get("transport").unwrap().get("name").unwrap().str(),
            Some("tcp-batched")
        );
        assert_eq!(stats.get("timeline").unwrap().arr().len(), 5);
    }

    #[test]
    fn a_document_without_counters_is_an_error() {
        let stats = Json::parse(r#"{"runtime_ms": 1.0, "supersteps": 2}"#).unwrap();
        assert!(counters_of(&stats).unwrap_err().contains("rounds"));
    }
}
