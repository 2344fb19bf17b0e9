//! The optimized channels' steady state allocates nothing, shown with a
//! counting global allocator.
//!
//! `ScatterCombine`: once the routes are finalized and the ids shipped, a
//! superstep is a gather into a reused scratch, one frame per peer into a
//! pooled buffer, and an absorb out of a reused scratch — sixty extra
//! supersteps of a scatter-only program cost no more allocations than
//! sixty extra supersteps of a program with no channels at all (whatever
//! the engine itself allocates per superstep is in both). `Mirror`: the
//! same comparison for a program that broadcasts along registered edges
//! every superstep, hubs as ghosts and the rest as sender-combined direct
//! messages. `CombinedMessage`: the same for a program that sends along
//! its out-edges every superstep — a dense stage per peer, slots cleared
//! through their dirty lists, one reused frame scratch. `RequestRespond`:
//! every vertex asks for the same target every superstep — the request,
//! response and position tables keep their capacity. `Propagation`: a
//! BFS down a path is one vertex popped and at most one message per
//! exchange round, all inside one superstep — a thousand extra rounds cost
//! no allocation at all.
//!
//! The comparisons start at 30 supersteps, not at 10: within its first
//! ~16 rounds the buffer pool trims its prewarmed 4 KiB buffers to the
//! observed frame sizes once and regrows the ones that then rotate to a
//! larger peer — a one-off of `pc_bsp::pool`, over by round 20 and the
//! same with any channel.

use pc_bsp::{Config, Topology};
use pc_channels::{
    Algorithm, Combine, CombinedMessage, Mirror, RequestRespond, ScatterCombine, VertexCtx,
    WorkerEnv,
};
use pc_graph::{gen, Graph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations (fresh or grown) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a bump of a `const`-initialized, destructor-free thread-local, which
// never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations(run: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    run();
    ALLOCS.with(Cell::get) - before
}

/// Every vertex scatters a constant along its out-edges for `iters`
/// supersteps.
struct RepeatScatter {
    g: Arc<Graph>,
    iters: u64,
}

impl Algorithm for RepeatScatter {
    type Value = u64;
    type Channels = (ScatterCombine<u64>,);
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

/// The same superstep count with no channel at all.
struct NoChannels {
    iters: u64,
}

impl Algorithm for NoChannels {
    type Value = u64;
    type Channels = ();
    fn channels(&self, _env: &WorkerEnv) -> Self::Channels {}
    fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, _ch: &mut Self::Channels) {
        *value += 1;
        if v.step() > self.iters {
            v.vote_to_halt();
        }
    }
}

/// The RMAT graph every superstep-count comparison runs on.
fn rmat() -> Arc<Graph> {
    Arc::new(gen::rmat(10, 8000, gen::RmatParams::default(), 5, true))
}

/// Sixty extra supersteps of the program `make(g, iters)` builds, against
/// sixty extra supersteps of a program with no channels, over three
/// workers.
fn assert_extra_supersteps_free<A: Algorithm>(
    what: &str,
    g: &Arc<Graph>,
    make: impl Fn(Arc<Graph>, u64) -> A,
) {
    let topo = Arc::new(Topology::hashed(g.n(), 3));
    let cfg = Config::sequential(3);
    let program = |iters| {
        let algo = make(Arc::clone(g), iters);
        allocations(|| drop(pc_channels::run(&algo, &topo, &cfg)))
    };
    let empty = |iters| allocations(|| drop(pc_channels::run(&NoChannels { iters }, &topo, &cfg)));
    let (program_30, program_90) = (program(30), program(90));
    let (empty_30, empty_90) = (empty(30), empty(90));
    assert!(
        program_90 - program_30 <= empty_90 - empty_30,
        "60 extra {what} supersteps cost {} allocations, 60 extra empty ones {} \
         (30 vs 90 iterations: {what} {program_30} -> {program_90}, empty {empty_30} -> {empty_90})",
        program_90 - program_30,
        empty_90 - empty_30,
    );
}

#[test]
fn extra_scatter_supersteps_allocate_nothing() {
    assert_extra_supersteps_free("scatter", &rmat(), |g, iters| RepeatScatter { g, iters });
}

/// Every vertex broadcasts a constant along its out-edges for `iters`
/// supersteps through a `Mirror` with τ = 16.
struct RepeatMirror {
    g: Arc<Graph>,
    iters: u64,
}

impl Algorithm for RepeatMirror {
    type Value = u64;
    type Channels = (Mirror<u64>,);
    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (Mirror::new(env, Combine::sum_u64(), 16),)
    }
    fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, ch: &mut Self::Channels) {
        if v.step() == 1 {
            ch.0.add_edges(v.local, self.g.neighbors(v.id));
        }
        *value += ch.0.get_or_identity(v.local);
        if v.step() <= self.iters {
            ch.0.send_to_neighbors(v.local, v.id, 1);
        } else {
            v.vote_to_halt();
        }
    }
}

#[test]
fn extra_mirror_supersteps_allocate_nothing() {
    let g = rmat();
    assert!(g.vertices().any(|v| g.degree(v) >= 16) && g.vertices().any(|v| g.degree(v) == 2));
    assert_extra_supersteps_free("mirror", &g, |g, iters| RepeatMirror { g, iters });
}

/// Every vertex sends its id to each out-neighbor for `iters`
/// supersteps; receivers keep the minimum.
struct RepeatCombined {
    g: Arc<Graph>,
    iters: u64,
}

impl Algorithm for RepeatCombined {
    type Value = u64;
    type Channels = (CombinedMessage<u32>,);
    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (CombinedMessage::new(env, Combine::min_u32()),)
    }
    fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, ch: &mut Self::Channels) {
        *value += u64::from(ch.0.get_or_identity(v.local) != u32::MAX);
        if v.step() <= self.iters {
            for &t in self.g.neighbors(v.id) {
                ch.0.send_message(t, v.id);
            }
        } else {
            v.vote_to_halt();
        }
    }
}

#[test]
fn extra_combined_supersteps_allocate_nothing() {
    assert_extra_supersteps_free("combined", &rmat(), |g, iters| RepeatCombined { g, iters });
}

/// Every vertex asks for the value of vertex `id / 2` for `iters`
/// supersteps — a request and a response round each.
struct RepeatRequests {
    iters: u64,
}

impl Algorithm for RepeatRequests {
    type Value = u64;
    type Channels = (RequestRespond<u64, u64>,);
    fn channels(&self, env: &WorkerEnv) -> Self::Channels {
        (RequestRespond::new(env, |v: &u64| *v),)
    }
    fn compute(&self, v: &mut VertexCtx<'_>, value: &mut u64, ch: &mut Self::Channels) {
        *value = value.wrapping_add(ch.0.get_respond(v.id / 2).copied().unwrap_or(1));
        if v.step() <= self.iters {
            ch.0.add_request(v.id / 2);
        } else {
            v.vote_to_halt();
        }
    }
}

#[test]
fn extra_reqresp_supersteps_allocate_nothing() {
    assert_extra_supersteps_free("reqresp", &rmat(), |_, iters| RepeatRequests { iters });
}

/// BFS over the `Propagation` channel down the same path from its middle
/// and from one end: the same graph and registration, a thousand more
/// rounds of one popped vertex and at most one message each. With three
/// or more workers a round returns one buffer of several to the pool,
/// which its trim must not shrink below the size a buffer in use needs
/// (it used to: 0.84 reallocations per round).
#[test]
fn extra_propagation_rounds_allocate_nothing() {
    let g = Arc::new(gen::chain(4000));
    for workers in [2, 3, 4] {
        // Hashed placement: most hops cross workers and end a round.
        let topo = Arc::new(Topology::hashed(g.n(), workers));
        let cfg = Config::sequential(workers);
        let bfs = |src| {
            let mut rounds = 0;
            let allocs = allocations(|| {
                rounds = pc_algos::kernels::bfs(&g, &topo, &cfg, src).stats.rounds;
            });
            (allocs, rounds)
        };
        // From the middle the two wavefronts share rounds; from an end
        // the walk is twice as long.
        let (short_allocs, short_rounds) = bfs(2000);
        let (long_allocs, long_rounds) = bfs(0);
        assert!(
            short_rounds > 500 && long_rounds > short_rounds + 800,
            "{workers} workers: {short_rounds} {long_rounds}"
        );
        assert!(
            long_allocs <= short_allocs,
            "{workers} workers: {} extra rounds cost {} allocations ({short_rounds} \
             rounds: {short_allocs}, {long_rounds} rounds: {long_allocs})",
            long_rounds - short_rounds,
            long_allocs - short_allocs,
        );
    }
}
