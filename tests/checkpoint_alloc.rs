//! After its first epoch a checkpoint boundary allocates nothing large:
//! the segment buffer comes back from the writer with the capacity the
//! first snapshot grew it to, and `encode_snapshot` writes the values,
//! the frontier and every channel's state straight into it — no payload
//! `Vec`, no per-channel scratch, no framed copy. Shown with a counting
//! global allocator (as `tests/scatter_alloc.rs` does for the exchange
//! path): a run that takes eighteen epochs makes exactly as many
//! allocations of 64 KiB or more as one that takes six, on any thread —
//! worker or writer — although every epoch's segment is several hundred
//! KiB.

use pc_bsp::{CkptPolicy, Config, Topology};
use pc_channels::{Algorithm, Combine, ScatterCombine, VertexCtx, WorkerEnv};
use pc_ckpt::Store;
use pc_graph::{gen, Graph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

#[test]
fn epochs_after_the_first_allocate_nothing_large() {
    const WORKERS: usize = 2;
    let g = Arc::new(gen::rmat(13, 120_000, gen::RmatParams::default(), 5, true));
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    let dir = std::env::temp_dir().join(format!("pc_ckpt_alloc_{}", std::process::id()));
    let cfg = Config {
        ckpt: Some(CkptPolicy {
            every: 2,
            dir: dir.clone(),
        }),
        ..Config::with_workers(WORKERS)
    };
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
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        eighteen,
        six,
        "twelve more epochs made {} more allocations of {LARGE}+ bytes",
        eighteen - six
    );
}
