//! After its first epoch a checkpoint boundary allocates nothing large:
//! the segment buffer comes back from the writer with the capacity the
//! first snapshot grew it to, and `encode_snapshot` writes the values,
//! the frontier and every channel's state straight into it — no payload
//! `Vec`, no per-channel scratch, no framed copy — and the registration
//! tables, fixed after the first superstep, are written once. Shown with a
//! counting global allocator (as `tests/scatter_alloc.rs` does for the
//! exchange path): a run that takes eighteen epochs makes exactly as many
//! allocations of 64 KiB or more as one that takes six, on any thread —
//! worker or writer — although every epoch's segment is several hundred
//! KiB.
//!
//! A restore reads each file into one buffer and hands that buffer out as
//! the payload: at most one large allocation per file read.

mod common;

use common::with_watchdog;
use pc_bsp::{CkptPolicy, Config, Topology};
use pc_channels::{Algorithm, Combine, ScatterCombine, VertexCtx, WorkerEnv};
use pc_ckpt::Store;
use pc_graph::{gen, Graph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const LARGE: usize = 64 << 10;

/// Allocations (fresh or grown) of at least [`LARGE`] bytes, all threads.
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a relaxed bump of a static atomic, which never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counter is global: the tests that read it take turns.
static SERIAL: Mutex<()> = Mutex::new(());

const WORKERS: usize = 2;

/// Every vertex scatters a constant along its out-edges for `iters`
/// supersteps: the state a snapshot holds is the same size at every
/// boundary.
struct RepeatScatter {
    g: Arc<Graph>,
    iters: u64,
}

impl Algorithm for RepeatScatter {
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
        *value += ch.0.get_or_identity(v.local);
        if v.step() <= self.iters {
            ch.0.set_message(v.local, 1);
        } else {
            v.vote_to_halt();
        }
    }
}

fn graph() -> (Arc<Graph>, Arc<Topology>) {
    let g = Arc::new(gen::rmat(15, 120_000, gen::RmatParams::default(), 5, true));
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    (g, topo)
}

fn ckpt_cfg(dir: &Path) -> Config {
    Config {
        ckpt: Some(CkptPolicy {
            every: 2,
            dir: dir.to_path_buf(),
        }),
        ..Config::with_workers(WORKERS)
    }
}

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pc_ckpt_alloc_{name}_{}", std::process::id()))
}

#[test]
fn epochs_after_the_first_allocate_nothing_large() {
    with_watchdog(common::BOUND, || {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (g, topo) = graph();
        let dir = temp_dir("epochs");
        let cfg = ckpt_cfg(&dir);
        // `iters + 1` supersteps at cadence 2: `iters / 2` epochs.
        let large_allocs = |iters: u64| {
            let _ = std::fs::remove_dir_all(&dir);
            let algo = RepeatScatter {
                g: Arc::clone(&g),
                iters,
            };
            let before = LARGE_ALLOCS.load(Ordering::Relaxed);
            drop(pc_channels::run(&algo, &topo, &cfg));
            LARGE_ALLOCS.load(Ordering::Relaxed) - before
        };
        let (six, eighteen) = (large_allocs(12), large_allocs(36));

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.committed_steps().unwrap(), vec![34, 36]);
        let segment = std::fs::metadata(store.segment_path(36, 0)).unwrap().len();
        assert!(
            segment as usize >= 4 * LARGE,
            "a {segment}-byte segment proves nothing about large allocations"
        );
        let tables = std::fs::read_dir(store.tables_dir()).unwrap().count();
        assert_eq!(tables, WORKERS, "one tables file per worker, written once");
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(
            eighteen,
            six,
            "twelve more epochs made {} more allocations of {LARGE}+ bytes",
            eighteen - six
        );
    });
}

#[test]
fn a_restore_allocates_one_buffer_per_file_read() {
    with_watchdog(common::BOUND, || {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (g, topo) = graph();
        let dir = temp_dir("restore");
        let _ = std::fs::remove_dir_all(&dir);
        let algo = RepeatScatter { g, iters: 6 };
        drop(pc_channels::run(&algo, &topo, &ckpt_cfg(&dir)));

        let store = Store::open(&dir).unwrap();
        let step = *store.committed_steps().unwrap().last().unwrap();
        let id = store.read_manifest(step).unwrap().id;
        let large_files = |rank: u32| {
            let tables = std::fs::read_dir(store.tables_dir()).unwrap();
            let tables = tables.map(|e| e.unwrap().path());
            let rank_tables = tables.filter(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                name.starts_with(&format!("rank-{rank:04}-"))
            });
            let files: Vec<PathBuf> = rank_tables
                .chain([store.segment_path(step, rank)])
                .collect();
            assert_eq!(files.len(), 2, "rank {rank}: a segment and its tables");
            files
                .iter()
                .filter(|p| std::fs::metadata(p).unwrap().len() as usize >= LARGE)
                .count() as u64
        };
        let counted = |f: &mut dyn FnMut()| {
            let before = LARGE_ALLOCS.load(Ordering::Relaxed);
            f();
            LARGE_ALLOCS.load(Ordering::Relaxed) - before
        };

        // The scan validates every rank's segment and tables...
        let all: u64 = (0..WORKERS as u32).map(large_files).sum();
        assert!(all >= 2, "{all} large files prove nothing");
        let scan = counted(&mut || {
            assert_eq!(
                store.latest_restorable(&id).unwrap().unwrap().superstep,
                step
            );
        });
        assert!(
            scan <= all,
            "the restore scan made {scan} large allocations for {all} large files"
        );
        // ...and each worker reads its own two back.
        for rank in 0..WORKERS as u32 {
            let read = counted(&mut || {
                let snap = store.read_snapshot(step, rank).unwrap();
                assert!(snap.tables.is_some());
            });
            let files = large_files(rank);
            assert!(
                read <= files,
                "rank {rank}: {read} large allocations for {files} large files"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}
