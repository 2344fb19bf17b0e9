//! Buffer exchange and synchronization for the threaded execution mode.
//!
//! The paper's workers perform a *pairwise* buffer exchange between the
//! serialize and deserialize steps of every round (Fig. 2/4). Here the
//! "network" is a mailbox of per-receiver columns: worker `k` posts the
//! buffer destined for `j` into column `j`, a barrier separates the post
//! and take phases, and worker `j` drains its column in one lock.
//!
//! Steady-state cost is the design constraint (the engine crosses this
//! module's barrier once per exchange round):
//!
//! * [`SpinBarrier`] — a sense-reversing barrier that spins briefly, then
//!   yields, then parks. Roughly an order of magnitude cheaper than
//!   `std::sync::Barrier` (which takes a mutex on every arrival) when
//!   workers arrive close together, while still not burning CPU when the
//!   machine is oversubscribed.
//! * Generations — every exchange and every reduction is one generation
//!   with one barrier crossing, and both the [`SharedReduce`] slots and
//!   the two mailboxes alternate by generation parity: the slot or column
//!   a worker writes for generation `k+2` cannot be read by a peer still
//!   working on generation `k`, because a full barrier (generation
//!   `k+1`'s) separates them. So a fast worker's next `post` never lands
//!   in a column a slow worker is still draining.
//! * The exchange *is* the reduction: [`Hub::sync`] publishes the
//!   worker's two round words (the `again` OR-mask and the active-vertex
//!   count) in the same crossing that ends the round's posting, and
//!   [`Hub::take_all_into`] returns their combination with the buffers.
//! * Per-sender return stacks ([`Hub::recycle`] / [`Hub::reclaim_into`])
//!   cycle consumed receive buffers back to their sender's
//!   [`crate::pool::BufferPool`], closing the zero-allocation loop.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Condvar;
use std::time::Duration;

use crate::pool::BufferPool;
use crossbeam::utils::CachePadded;

/// Initial adaptive spin budget (iterations of `spin_loop` hints before
/// yielding, when cores allow).
const SPIN_LIMIT: u32 = 256;
/// Yields to the scheduler before parking on the condvar.
const YIELD_LIMIT: u32 = 64;
/// Floor of the adaptive budget: a few spins are cheaper than the
/// syscall they might save, so the controller never adapts below this.
const SPIN_MIN: u32 = 16;
/// Ceiling of the adaptive budget.
const SPIN_MAX: u32 = 4096;

/// A sense-reversing barrier: spin, then yield, then park.
///
/// Workers spin on a generation counter bumped by the last arriver. The
/// spin phase is skipped entirely when the machine has fewer cores than
/// workers (spinning there only delays the threads that hold progress).
/// The slow path parks on a condvar with a timeout, so a late wake-up can
/// never deadlock the run.
///
/// ## Adaptive spin budget
///
/// With no explicit budget, each barrier tunes its own budget at run time
/// from the measured arrival-spin distribution (closing the ROADMAP
/// "adaptive spin budget" loop). Every non-last arriver observes where
/// its wait resolved and nudges the shared budget:
///
/// * resolved **while spinning** after `s` iterations — the budget tracks
///   the observed skew: move a quarter of the way toward `2·s` (so the
///   typical arrival lands comfortably inside the spin phase without the
///   budget ballooning);
/// * resolved **while yielding** — the peers arrive just past the budget:
///   double it (capped at [`SPIN_MAX`]);
/// * resolved **after parking** — spinning was pure waste for this skew:
///   halve the budget (floored at [`SPIN_MIN`]).
///
/// Updates use relaxed atomics; workers race and the last write wins,
/// which is fine — the budget is a performance hint, not a correctness
/// input, and [`RunStats::barrier_spins`](crate::metrics::RunStats)
/// still reports exactly the spins actually burned. An explicit
/// `Some(n)` budget (the `--spin-budget` escape hatch) disables
/// adaptation entirely, as does an oversubscribed machine (where the
/// budget pins to 0).
#[derive(Debug)]
pub struct SpinBarrier {
    workers: usize,
    /// Current spin budget before yielding; adapted at run time unless
    /// `fixed`.
    budget: CachePadded<AtomicU32>,
    /// True when the budget is pinned: explicit `with_budget(Some(_))`,
    /// or an oversubscribed machine (budget 0).
    fixed: bool,
    arrived: CachePadded<AtomicUsize>,
    generation: CachePadded<AtomicU64>,
    sleepers: CachePadded<AtomicUsize>,
    waits: CachePadded<AtomicU64>,
    /// Arrival-spin iterations burned across all waits — the measurement
    /// the adaptive budget is tuned from.
    spins: CachePadded<AtomicU64>,
    park: std::sync::Mutex<()>,
    unpark: Condvar,
}

/// Where a barrier wait resolved — the adaptive controller's input.
enum Resolved {
    Spin(u32),
    Yield,
    Park,
}

impl SpinBarrier {
    /// Barrier for `workers` threads with the adaptive spin budget.
    pub fn new(workers: usize) -> Self {
        SpinBarrier::with_budget(workers, None)
    }

    /// Barrier for `workers` threads with an explicit spin budget.
    ///
    /// `None` enables the adaptive budget (starting at [`SPIN_LIMIT`]
    /// when the machine has more cores than workers, pinned to 0
    /// otherwise); `Some(n)` forces a fixed budget of `n` iterations
    /// regardless of core count — `Some(0)` disables spinning entirely.
    pub fn with_budget(workers: usize, budget: Option<u32>) -> Self {
        assert!(workers > 0);
        let fixed = budget.is_some();
        let initial = budget.unwrap_or_else(|| {
            let cores = std::thread::available_parallelism()
                .map(|c| c.get())
                .unwrap_or(1);
            if cores > workers {
                SPIN_LIMIT
            } else {
                0
            }
        });
        SpinBarrier {
            workers,
            budget: CachePadded::new(AtomicU32::new(initial)),
            // An adaptive budget of 0 means "oversubscribed": growing it
            // would burn exactly the cores the late threads need.
            fixed: fixed || initial == 0,
            arrived: CachePadded::new(AtomicUsize::new(0)),
            generation: CachePadded::new(AtomicU64::new(0)),
            sleepers: CachePadded::new(AtomicUsize::new(0)),
            waits: CachePadded::new(AtomicU64::new(0)),
            spins: CachePadded::new(AtomicU64::new(0)),
            park: std::sync::Mutex::new(()),
            unpark: Condvar::new(),
        }
    }

    /// Block until all workers arrive.
    pub fn wait(&self) {
        self.waits.fetch_add(1, Ordering::Relaxed);
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.workers {
            // Last arriver: reset the count *before* releasing the next
            // generation (newcomers re-enter only after seeing the bump).
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                // Take the lock so the notify cannot slip between a
                // parker's generation re-check and its wait.
                let _guard = self.park.lock().unwrap_or_else(|e| e.into_inner());
                self.unpark.notify_all();
            }
            return;
        }
        let budget = self.budget.load(Ordering::Relaxed);
        let mut spins = 0u32;
        let mut resolved = Resolved::Spin(0);
        while self.generation.load(Ordering::Acquire) == gen {
            if spins < budget {
                std::hint::spin_loop();
                spins += 1;
            } else if spins < budget + YIELD_LIMIT {
                std::thread::yield_now();
                spins += 1;
                resolved = Resolved::Yield;
            } else {
                resolved = Resolved::Park;
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                let mut guard = self.park.lock().unwrap_or_else(|e| e.into_inner());
                while self.generation.load(Ordering::SeqCst) == gen {
                    let (g, _) = self
                        .unpark
                        .wait_timeout(guard, Duration::from_millis(1))
                        .unwrap_or_else(|e| e.into_inner());
                    guard = g;
                }
                drop(guard);
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                break;
            }
        }
        if let Resolved::Spin(_) = resolved {
            resolved = Resolved::Spin(spins);
        }
        // Charge only the spin-phase iterations (not yields/parks): this
        // is exactly what the adaptive budget spends.
        self.spins
            .fetch_add(spins.min(budget) as u64, Ordering::Relaxed);
        if !self.fixed {
            self.adapt(budget, resolved);
        }
    }

    /// One controller step: nudge the shared budget from where this wait
    /// resolved (see the type docs for the policy).
    fn adapt(&self, budget: u32, resolved: Resolved) {
        let next = match resolved {
            Resolved::Spin(s) => {
                let target = (s.saturating_mul(2)).clamp(SPIN_MIN, SPIN_MAX);
                if target >= budget {
                    budget + (target - budget) / 4
                } else {
                    budget - (budget - target) / 4
                }
            }
            Resolved::Yield => budget.saturating_mul(2).clamp(SPIN_MIN, SPIN_MAX),
            Resolved::Park => (budget / 2).max(SPIN_MIN),
        };
        if next != budget {
            self.budget.store(next, Ordering::Relaxed);
        }
    }

    /// Total `wait` calls across all workers (waits ÷ workers = barrier
    /// crossings) — the observability hook behind
    /// [`crate::metrics::RunStats::barrier_crossings`].
    pub fn total_waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }

    /// Arrival-spin iterations burned across all waits — the hook behind
    /// [`crate::metrics::RunStats::barrier_spins`].
    pub fn total_spins(&self) -> u64 {
        self.spins.load(Ordering::Relaxed)
    }

    /// The barrier's current spin budget (iterations before yielding).
    /// Fixed for `with_budget(Some(_))` barriers; a live, adapting value
    /// otherwise.
    pub fn spin_budget(&self) -> u32 {
        self.budget.load(Ordering::Relaxed)
    }
}

/// One mailbox column: the `(sender, bytes)` pairs addressed to a worker
/// this round.
type Column = CachePadded<Mutex<Vec<(usize, Vec<u8>)>>>;

/// M-column mailbox of byte buffers: column `j` holds everything addressed
/// to worker `j` this round, posted as `(sender, bytes)` pairs.
#[derive(Debug)]
pub struct Mailbox {
    columns: Vec<Column>,
}

impl Mailbox {
    /// Create an empty mailbox for `workers` workers.
    pub fn new(workers: usize) -> Self {
        Mailbox {
            columns: (0..workers)
                .map(|_| CachePadded::new(Mutex::new(Vec::new())))
                .collect(),
        }
    }

    /// Post a buffer from `from` to `to` — one column lock. Panics if
    /// `from` already posted to `to` this round: that would mean two
    /// exchange rounds overlapped, i.e. a missing barrier.
    pub fn post(&self, from: usize, to: usize, data: Vec<u8>) {
        let mut col = self.columns[to].lock();
        assert!(
            col.iter().all(|&(f, _)| f != from),
            "mailbox slot ({from},{to}) posted twice in one round"
        );
        col.push((from, data));
    }

    /// Take the buffer posted from `from` to `to`, if any.
    pub fn take(&self, from: usize, to: usize) -> Option<Vec<u8>> {
        let mut col = self.columns[to].lock();
        let at = col.iter().position(|&(f, _)| f == from)?;
        Some(col.remove(at).1)
    }

    /// Drain every buffer addressed to `to` into `out`, in sender order,
    /// under a single column lock. `out` is cleared first; its capacity
    /// (and the column's) is reused round over round. This is the only
    /// drain: the old allocating `take_all_for` drifted out of the hot
    /// path and was removed.
    pub fn take_all_into(&self, to: usize, out: &mut Vec<(usize, Vec<u8>)>) {
        out.clear();
        std::mem::swap(&mut *self.columns[to].lock(), out);
        // Arrival order is racy; sender order is the deterministic one.
        out.sort_unstable_by_key(|&(from, _)| from);
    }
}

/// Per-worker atomic slots used to compute global reductions (active-vertex
/// counts, channel-active flags) without a coordinator thread.
///
/// Slots are double-buffered by reduction generation: consecutive
/// reductions write alternating halves, so one barrier per reduction is
/// enough (see the module docs for the argument).
#[derive(Debug)]
pub struct SharedReduce {
    workers: usize,
    lanes: usize,
    slots: Vec<CachePadded<AtomicU64>>,
}

impl SharedReduce {
    /// `workers` rows × `lanes` columns × 2 generations, all zero.
    pub fn new(workers: usize, lanes: usize) -> Self {
        SharedReduce {
            workers,
            lanes,
            slots: (0..2 * workers * lanes)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    #[inline]
    fn idx(&self, generation: u64, worker: usize, lane: usize) -> usize {
        ((generation as usize & 1) * self.workers + worker) * self.lanes + lane
    }

    /// Store `value` in `(worker, lane)` of `generation`'s half.
    pub fn set(&self, generation: u64, worker: usize, lane: usize, value: u64) {
        self.slots[self.idx(generation, worker, lane)].store(value, Ordering::Release);
    }

    /// Sum a lane over all workers in `generation`'s half.
    pub fn sum(&self, generation: u64, lane: usize) -> u64 {
        (0..self.workers)
            .map(|w| self.slots[self.idx(generation, w, lane)].load(Ordering::Acquire))
            .sum()
    }

    /// Bitwise OR of a lane over all workers in `generation`'s half.
    pub fn or(&self, generation: u64, lane: usize) -> u64 {
        (0..self.workers)
            .map(|w| self.slots[self.idx(generation, w, lane)].load(Ordering::Acquire))
            .fold(0, |acc, v| acc | v)
    }
}

/// Shared rendezvous object for one threaded run: barrier + mailboxes +
/// reduction slots + buffer return stacks.
#[derive(Debug)]
pub struct Hub {
    workers: usize,
    barrier: SpinBarrier,
    /// One mailbox per generation parity (see the module docs).
    mailboxes: [Mailbox; 2],
    reduce: SharedReduce,
    /// Per-worker generation counters (each written only by its owner):
    /// one generation per exchange and per reduction. They drive the
    /// parity of [`SharedReduce`] and of the mailboxes.
    generations: Vec<CachePadded<AtomicU64>>,
    /// `returns[k]`: consumed receive buffers awaiting reclamation by
    /// their sender `k`.
    returns: Vec<CachePadded<Mutex<Vec<Vec<u8>>>>>,
    /// `lent[k]`: buffers worker `k` posted that are not yet recycled.
    lent: Vec<CachePadded<AtomicU64>>,
}

/// Reduction lanes per worker: the two round words of an exchange, and at
/// most that many values per [`Hub::reduce`].
const LANES: usize = 2;

impl Hub {
    /// Create a hub for `workers` workers.
    pub fn new(workers: usize) -> Self {
        Hub::with_budget(workers, None)
    }

    /// [`Hub::new`] with an explicit barrier spin budget (see
    /// [`SpinBarrier::with_budget`]).
    pub fn with_budget(workers: usize, budget: Option<u32>) -> Self {
        Hub {
            workers,
            barrier: SpinBarrier::with_budget(workers, budget),
            mailboxes: [Mailbox::new(workers), Mailbox::new(workers)],
            reduce: SharedReduce::new(workers, LANES),
            generations: (0..workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            returns: (0..workers)
                .map(|_| CachePadded::new(Mutex::new(Vec::new())))
                .collect(),
            lent: (0..workers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Number of workers synchronizing on this hub.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Global barrier crossings so far (total waits ÷ workers).
    pub fn barrier_crossings(&self) -> u64 {
        self.barrier.total_waits() / self.workers as u64
    }

    /// Arrival-spin iterations burned at the barrier, summed over workers.
    pub fn barrier_spins(&self) -> u64 {
        self.barrier.total_spins()
    }

    /// `worker`'s current generation. All workers run the same sequence
    /// of exchanges and reductions, so the per-worker counters stay in
    /// lock-step without sharing a cache line.
    fn generation(&self, worker: usize) -> u64 {
        self.generations[worker].load(Ordering::Relaxed)
    }

    /// Close `worker`'s current generation.
    fn advance(&self, worker: usize) {
        self.generations[worker].fetch_add(1, Ordering::Relaxed);
    }

    /// Post a buffer from `from` to `to` for the current exchange.
    pub fn post(&self, from: usize, to: usize, data: Vec<u8>) {
        self.lent[from].fetch_add(1, Ordering::Relaxed);
        self.mailboxes[self.generation(from) as usize & 1].post(from, to, data);
    }

    /// End `worker`'s posting for this exchange and publish its two round
    /// words (`[again, active]`): one barrier crossing, after which every
    /// buffer and every worker's words are visible.
    pub fn sync(&self, worker: usize, words: [u64; 2]) {
        let generation = self.generation(worker);
        self.reduce.set(generation, worker, 0, words[0]);
        self.reduce.set(generation, worker, 1, words[1]);
        self.barrier.wait();
    }

    /// Drain every buffer addressed to `worker` this exchange into `out`
    /// (sender order) and return the round words combined over all
    /// workers: lane 0 OR-ed, lane 1 summed.
    pub fn take_all_into(&self, worker: usize, out: &mut Vec<(usize, Vec<u8>)>) -> [u64; 2] {
        let generation = self.generation(worker);
        self.mailboxes[generation as usize & 1].take_all_into(worker, out);
        let words = [
            self.reduce.or(generation, 0),
            self.reduce.sum(generation, 1),
        ];
        self.advance(worker);
        words
    }

    /// Hand a consumed receive buffer back to the worker that sent it.
    pub fn recycle(&self, sender: usize, buf: Vec<u8>) {
        self.returns[sender].lock().push(buf);
        // Release: the push above is visible to whoever sees the count.
        self.lent[sender].fetch_sub(1, Ordering::Release);
    }

    /// Move every buffer `worker` posted into its pool, first waiting for
    /// receivers still deserializing to recycle them. With one barrier
    /// per round a sender can be a round ahead of its slowest receiver;
    /// waiting here keeps pool traffic what the sequential driver, which
    /// returns buffers within the round, reports.
    ///
    /// The buffers enter the pool by capacity, not in the order receivers
    /// happened to finish: the pool hands them to peers in the order they
    /// entered, and a buffer grown to exactly one peer's frame regrows when
    /// a thread race hands it a slightly larger frame — allocations a run
    /// made, or did not, by chance.
    pub fn reclaim_into(&self, worker: usize, pool: &mut BufferPool) {
        // Acquire pairs with `recycle`'s Release.
        while self.lent[worker].load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
        }
        let mut returned = self.returns[worker].lock();
        returned.sort_unstable_by_key(Vec::capacity);
        pool.put_all(returned.drain(..));
    }

    /// Reduction protocol: publish this worker's `values` (one per lane,
    /// at most two), cross the barrier once, read the global sums.
    ///
    /// Every worker must call the reduction methods in the same order with
    /// the same number of lanes.
    pub fn reduce(&self, worker: usize, values: &[u64]) -> Vec<u64> {
        assert!(values.len() <= LANES, "a hub reduction has {LANES} lanes");
        let generation = self.generation(worker);
        for (lane, &v) in values.iter().enumerate() {
            self.reduce.set(generation, worker, lane, v);
        }
        self.barrier.wait();
        let sums = (0..values.len())
            .map(|lane| self.reduce.sum(generation, lane))
            .collect();
        self.advance(worker);
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mailbox_post_take() {
        let mb = Mailbox::new(3);
        mb.post(0, 2, vec![1, 2, 3]);
        mb.post(1, 2, vec![4]);
        assert_eq!(mb.take(0, 2), Some(vec![1, 2, 3]));
        assert_eq!(mb.take(0, 2), None);
        let mut rest = Vec::new();
        mb.take_all_into(2, &mut rest);
        assert_eq!(rest, vec![(1, vec![4])]);
    }

    /// Drains are deterministic: whatever order buffers were posted in,
    /// `take_all_into` yields ascending sender ids — the order every
    /// transport must reproduce.
    #[test]
    fn mailbox_take_all_sorts_by_sender() {
        let mb = Mailbox::new(4);
        mb.post(3, 0, vec![3]);
        mb.post(1, 0, vec![1]);
        mb.post(2, 0, vec![2]);
        let mut got = Vec::new();
        mb.take_all_into(0, &mut got);
        assert_eq!(got, vec![(1, vec![1]), (2, vec![2]), (3, vec![3])]);
        mb.take_all_into(0, &mut got);
        assert!(got.is_empty());
    }

    #[test]
    fn mailbox_take_all_into_reuses_capacity() {
        let mb = Mailbox::new(2);
        let mut out = Vec::new();
        for _ in 0..3 {
            mb.post(0, 1, vec![7; 32]);
            mb.take_all_into(1, &mut out);
            assert_eq!(out.len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "posted twice")]
    fn mailbox_double_post_panics() {
        let mb = Mailbox::new(2);
        mb.post(0, 1, vec![1]);
        mb.post(0, 1, vec![2]);
    }

    #[test]
    fn shared_reduce_sums_lanes_per_generation() {
        let r = SharedReduce::new(4, 2);
        for w in 0..4 {
            r.set(0, w, 0, w as u64);
            r.set(0, w, 1, 10);
            r.set(1, w, 0, 100); // other generation, must not interfere
        }
        assert_eq!(r.sum(0, 0), 6);
        assert_eq!(r.sum(0, 1), 40);
        assert_eq!(r.sum(1, 0), 400);
        assert_eq!(r.sum(2, 0), 6, "generation 2 aliases generation 0's half");
    }

    #[test]
    fn spin_barrier_releases_all() {
        let b = Arc::new(SpinBarrier::new(4));
        let hits = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let b = Arc::clone(&b);
            let hits = Arc::clone(&hits);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    b.wait();
                    hits.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 400);
        assert_eq!(b.total_waits(), 400);
    }

    #[test]
    fn hub_reduce_across_threads() {
        let hub = Arc::new(Hub::new(4));
        let mut handles = Vec::new();
        for w in 0..4 {
            let hub = Arc::clone(&hub);
            handles.push(std::thread::spawn(move || {
                let mut totals = Vec::new();
                for round in 0..10u64 {
                    let s = hub.reduce(w, &[round + w as u64]);
                    totals.push(s[0]);
                }
                totals
            }));
        }
        let results: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All workers observe identical sums every round.
        for round in 0..10usize {
            let expect = (0..4).map(|w| round as u64 + w as u64).sum::<u64>();
            for r in &results {
                assert_eq!(r[round], expect);
            }
        }
    }

    /// The round words ride the exchange: lane 0 OR-ed, lane 1 summed,
    /// the same answer on every worker, in one barrier crossing.
    #[test]
    fn hub_fused_round_reduction() {
        let hub = Arc::new(Hub::new(3));
        let mut handles = Vec::new();
        for w in 0..3 {
            let hub = Arc::clone(&hub);
            handles.push(std::thread::spawn(move || {
                let mut seen = Vec::new();
                let mut got = Vec::new();
                for round in 0..50u64 {
                    let again = if w == 1 && round % 2 == 0 { 0b10 } else { 0 };
                    hub.sync(w, [again, w as u64 + round]);
                    seen.push(hub.take_all_into(w, &mut got));
                }
                seen
            }));
        }
        let results: Vec<Vec<[u64; 2]>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for round in 0..50u64 {
            let expect_mask = if round % 2 == 0 { 0b10 } else { 0 };
            let expect_active = (0..3).map(|w| w as u64 + round).sum::<u64>();
            for r in &results {
                assert_eq!(
                    r[round as usize],
                    [expect_mask, expect_active],
                    "round {round}"
                );
            }
        }
        assert_eq!(hub.barrier_crossings(), 50);
    }

    /// Back-to-back exchanges with one crossing each: a fast worker's
    /// next post goes to the other mailbox, so a slow worker still
    /// draining this one never sees it. Every round every worker gets
    /// exactly its three buffers of that round.
    #[test]
    fn hub_exchange_across_threads() {
        let hub = Arc::new(Hub::new(3));
        let mut handles = Vec::new();
        for w in 0..3usize {
            let hub = Arc::clone(&hub);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for round in 0..200u8 {
                    // Everyone sends its id to everyone (including itself).
                    for to in 0..3 {
                        hub.post(w, to, vec![w as u8, round]);
                    }
                    hub.sync(w, [0, 1]);
                    if w == 2 {
                        std::thread::yield_now(); // a slow drainer
                    }
                    assert_eq!(hub.take_all_into(w, &mut got), [0, 3]);
                    let expect: Vec<(usize, Vec<u8>)> =
                        (0..3).map(|from| (from, vec![from as u8, round])).collect();
                    assert_eq!(got, expect, "worker {w} round {round}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn hub_recycles_buffers_to_sender_pool() {
        let hub = Hub::new(2);
        let mut pool = BufferPool::new();
        hub.post(0, 1, vec![1, 2, 3]);
        hub.post(0, 0, vec![4; 100]);
        hub.recycle(0, vec![1, 2, 3]);
        hub.recycle(0, vec![4; 100]);
        hub.reclaim_into(0, &mut pool);
        assert_eq!(pool.available(), 2);
        let buf = pool.get();
        assert!(
            buf.is_empty() && buf.capacity() >= 3,
            "recycled buffers are cleared"
        );
        // Nothing was returned for worker 1.
        let mut pool1 = BufferPool::new();
        hub.reclaim_into(1, &mut pool1);
        assert_eq!(pool1.available(), 0);
    }

    /// Whichever receiver recycles first, the pool hands the reclaimed
    /// buffers out in the same order: largest capacity first.
    #[test]
    fn reclaim_order_does_not_depend_on_recycle_order() {
        for small_first in [true, false] {
            let hub = Hub::new(2);
            let mut pool = BufferPool::new();
            hub.post(0, 0, vec![0; 10]);
            hub.post(0, 1, vec![0; 10]);
            let (small, large) = (Vec::with_capacity(40_655), Vec::with_capacity(41_751));
            let order = if small_first {
                [small, large]
            } else {
                [large, small]
            };
            for buf in order {
                hub.recycle(0, buf);
            }
            hub.reclaim_into(0, &mut pool);
            let handed: Vec<usize> = (0..2).map(|_| pool.get().capacity()).collect();
            assert_eq!(handed, [41_751, 40_655], "small first: {small_first}");
        }
    }

    /// A zero budget disables spinning entirely: whatever the arrival
    /// skew, no spin iterations are recorded.
    #[test]
    fn zero_spin_budget_never_spins() {
        let b = Arc::new(SpinBarrier::with_budget(2, Some(0)));
        assert_eq!(b.spin_budget(), 0);
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || {
            for _ in 0..20 {
                b2.wait();
            }
        });
        for _ in 0..20 {
            std::thread::sleep(Duration::from_micros(200));
            b.wait();
        }
        h.join().unwrap();
        assert_eq!(b.total_spins(), 0);
    }

    /// A forced budget spins even when the heuristic would park: a worker
    /// that arrives well before its peer exhausts the whole budget.
    #[test]
    fn forced_spin_budget_is_exhausted_by_an_early_arriver() {
        let b = Arc::new(SpinBarrier::with_budget(2, Some(96)));
        assert_eq!(b.spin_budget(), 96);
        let b2 = Arc::clone(&b);
        // The early arriver spins its full 96 iterations (and then some
        // yields) long before the 20ms sleeper shows up.
        let h = std::thread::spawn(move || b2.wait());
        std::thread::sleep(Duration::from_millis(20));
        b.wait();
        h.join().unwrap();
        assert_eq!(b.total_spins(), 96, "early arriver burns the budget");
    }

    /// Arrival skew far beyond any useful spin budget: the adaptive
    /// controller observes park-resolved waits and walks the budget down
    /// from its initial value, so heavily skewed workloads stop burning
    /// CPU at the barrier.
    #[test]
    fn adaptive_budget_shrinks_under_heavy_skew() {
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        if cores <= 2 {
            // The adaptive budget pins to 0 on oversubscribed machines;
            // nothing to observe here.
            return;
        }
        let b = Arc::new(SpinBarrier::new(2));
        let initial = b.spin_budget();
        assert!(initial > 0, "not oversubscribed, so spinning starts on");
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || {
            for _ in 0..12 {
                b2.wait();
            }
        });
        for _ in 0..12 {
            // Arrive milliseconds late: the peer always parks.
            std::thread::sleep(Duration::from_millis(4));
            b.wait();
        }
        h.join().unwrap();
        assert!(
            b.spin_budget() < initial,
            "budget did not shrink: {} vs initial {initial}",
            b.spin_budget()
        );
        assert!(b.spin_budget() >= SPIN_MIN);
    }

    /// The adapted budget always stays inside its clamp, whatever the
    /// arrival pattern; tight lock-step crossings keep it live (non-zero)
    /// rather than collapsing it.
    #[test]
    fn adaptive_budget_stays_clamped_under_tight_arrivals() {
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        if cores <= 2 {
            return;
        }
        let b = Arc::new(SpinBarrier::new(2));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    b.wait();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let budget = b.spin_budget();
        assert!(
            (SPIN_MIN..=SPIN_MAX).contains(&budget),
            "budget {budget} escaped its clamp"
        );
    }

    /// The `--spin-budget` escape hatch: an explicit budget never adapts,
    /// whatever the measured skew.
    #[test]
    fn fixed_budget_never_adapts() {
        let b = Arc::new(SpinBarrier::with_budget(2, Some(96)));
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || {
            for _ in 0..8 {
                b2.wait();
            }
        });
        for _ in 0..8 {
            std::thread::sleep(Duration::from_millis(3));
            b.wait();
        }
        h.join().unwrap();
        assert_eq!(b.spin_budget(), 96, "a fixed budget must stay fixed");
    }

    #[test]
    fn barrier_crossings_counted_globally() {
        let hub = Arc::new(Hub::new(2));
        let mut handles = Vec::new();
        for w in 0..2 {
            let hub = Arc::clone(&hub);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..5 {
                    hub.sync(w, [0, 1]);
                    hub.take_all_into(w, &mut got);
                }
                let _ = hub.reduce(w, &[1]);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hub.barrier_crossings(), 6, "5 exchanges + 1 reduction");
    }
}
