//! A checkpoint write that fails on the background writer is still the
//! typed, bounded failure it was when the write was synchronous.
//!
//! Mid-run — after epoch 4 is durable on both workers, while superstep 5
//! computes — the checkpoint directory is moved aside and a regular file
//! put in its place, so every later checkpoint file operation fails. The
//! writer reports that at the next boundary's `finish()`, and each worker
//! panics with the fatal `checkpoint write failed` *before* the exchange
//! that would ack it: no peer is left waiting for a worker that died (the
//! test returning at all is the no-hang check), and the epoch whose write
//! failed never gets a `MANIFEST` — nor does epoch 4, whose commit rode
//! the same failed job.
//!
//! The same holds when the first thing to fail is the registration tables
//! file written in front of a segment: the segment is not written, and
//! nothing is acked.

mod common;

use common::with_watchdog;
use pc_bsp::{CkptPolicy, Config, Topology};
use pc_channels::{Algorithm, Combine, ScatterCombine, VertexCtx, WorkerEnv};
use pc_ckpt::Store;
use pc_graph::{gen, Graph};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// The superstep whose compute pulls the directory away.
const SABOTAGE_AT: u64 = 5;

/// Every vertex scatters a constant for twelve supersteps; vertex 0 also
/// sabotages the checkpoint directory once.
struct Sabotaged {
    g: Arc<Graph>,
    dir: PathBuf,
}

fn moved(dir: &Path) -> PathBuf {
    dir.with_extension("moved")
}

impl Sabotaged {
    /// Wait until both workers' segments of epoch 4 are in place — the
    /// rename is the writer's last fallible step, and worker 0's job
    /// commits epoch 2 before it writes — then swap the directory for a
    /// regular file.
    fn sabotage(&self) {
        let store = Store::open(&self.dir).unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while !(0..WORKERS as u32).all(|r| store.segment_path(4, r).exists()) {
            assert!(Instant::now() < deadline, "epoch 4 never reached the disk");
            std::thread::sleep(Duration::from_millis(1));
        }
        std::fs::rename(&self.dir, moved(&self.dir)).unwrap();
        std::fs::write(&self.dir, b"not a directory").unwrap();
    }
}

impl Algorithm for Sabotaged {
    type Value = u64;
    type Channels = (ScatterCombine<u64>,);
    pc_channels::dist_value_via_codec!();

    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (ScatterCombine::new(env, Combine::sum_u64()),)
    }
    fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, ch: &mut Self::Channels) {
        if v.step() == 1 {
            for &t in self.g.neighbors(v.id) {
                ch.0.add_edge(v.local, t);
            }
        }
        if v.step() == SABOTAGE_AT && v.id == 0 {
            self.sabotage();
        }
        *value += ch.0.get_or_identity(v.local);
        if v.step() <= 12 {
            ch.0.set_message(v.local, 1);
        } else {
            v.vote_to_halt();
        }
    }
}

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pc_ckpt_writer_{name}_{}", std::process::id()))
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(moved(dir));
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_file(dir);
}

/// Run [`Sabotaged`] checkpointing into `dir` until it fails; returns the
/// panic message.
fn fatal_message(dir: &Path) -> String {
    let g = Arc::new(gen::rmat(9, 4000, gen::RmatParams::default(), 7, true));
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    let cfg = Config {
        ckpt: Some(CkptPolicy {
            every: 2,
            dir: dir.to_path_buf(),
        }),
        ..Config::with_workers(WORKERS)
    };
    let algo = Sabotaged {
        g,
        dir: dir.to_path_buf(),
    };
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        drop(pc_channels::run(&algo, &topo, &cfg))
    }))
    .expect_err("the run survived losing its checkpoint directory");
    panic
        .downcast_ref::<String>()
        .expect("the engine panics with a formatted message")
        .clone()
}

#[test]
fn a_failed_background_write_is_the_same_fatal_panic() {
    with_watchdog(common::BOUND, || {
        let dir = temp_dir("fail");
        cleanup(&dir);
        let message = fatal_message(&dir);
        assert!(
            message.starts_with("checkpoint write failed: i/o error"),
            "{message}"
        );

        // What reached the disk before the swap: epoch 2 committed, epoch 4
        // durable on both workers but never committed, and no trace of the
        // epoch whose write failed.
        let before = Store::open(moved(&dir)).unwrap();
        assert_eq!(before.committed_steps().unwrap(), vec![2]);
        for rank in 0..WORKERS as u32 {
            assert!(before.read_segment(4, rank).is_ok());
        }
        assert!(!before.step_dir(6).exists());
        assert!(dir.is_file(), "a checkpoint write got past the sabotage");
        cleanup(&dir);
    });
}

/// The tables directory is a regular file from the start, so the first
/// epoch's tables write fails on every worker: the fatal panic names the
/// tables, and the run dies at the next boundary without acking — no
/// segment of that epoch, no `MANIFEST`, and superstep 5 (the sabotage)
/// is never reached.
#[test]
fn a_failed_tables_write_is_fatal_before_any_ack() {
    with_watchdog(common::BOUND, || {
        let dir = temp_dir("tables");
        cleanup(&dir);
        let store = Store::open(&dir).unwrap();
        std::fs::write(store.tables_dir(), b"not a directory").unwrap();
        let message = fatal_message(&dir);
        assert!(
            message.starts_with("checkpoint write failed: i/o error")
                && message.contains("create tables dir"),
            "{message}"
        );
        assert_eq!(store.committed_steps().unwrap(), Vec::<u64>::new());
        assert!(!store.step_dir(2).exists(), "a segment without its tables");
        assert!(!moved(&dir).exists());
        cleanup(&dir);
    });
}
