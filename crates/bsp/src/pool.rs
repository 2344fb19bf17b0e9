//! Buffer pooling for the zero-allocation steady-state exchange path.
//!
//! Every exchange round used to allocate one fresh `Vec<u8>` per non-empty
//! destination and drop the received buffers after deserialization. With a
//! [`BufferPool`] per worker the buffers instead cycle: a drained buffer is
//! replaced by a pooled one (keeping its capacity), and consumed receive
//! buffers are recycled back to their *sender's* pool once deserialized —
//! by the sequential driver directly, or through [`crate::exchange::Hub`]'s
//! per-sender return stacks in threaded mode. After one warm-up round per
//! peer the exchange path performs no buffer allocations at all.
//!
//! Reuse is observable: the pool counts hits (a pooled buffer was
//! available) and misses (a fresh allocation was needed), and the engine
//! surfaces the totals in [`crate::metrics::RunStats`].

use crate::metrics::PoolStats;

/// Rounds of footprint history kept for the high-water trim policy.
const TRIM_WINDOW: usize = 32;
/// Minimum history before trimming kicks in (avoids trimming during
/// warm-up, when footprints are still growing toward steady state).
const TRIM_MIN_SAMPLES: usize = 8;
/// Capacity slack over the p90 footprint. `Vec` growth doubles, so a
/// buffer's capacity legitimately sits up to ~2× the bytes it carries;
/// only capacity beyond this slack is released.
const TRIM_SLACK: usize = 2;

/// A freelist of byte buffers owned by one worker.
///
/// Not thread-safe by design — each worker owns one; cross-thread
/// recycling goes through the `Hub`'s per-sender return stacks so the pool
/// itself stays lock-free on the hot path.
///
/// ## High-water trimming
///
/// A pool that never frees pins the peak: one giant superstep leaves
/// giant buffers in the freelist forever. The pool therefore tracks the
/// footprint of recent rounds — the largest buffer each round returned,
/// measured before it is cleared — and, at every
/// [`BufferPool::end_round`], shrinks every pooled buffer beyond
/// [`TRIM_SLACK`] × the p90 of that window down to it. The bound is per
/// buffer, the size a buffer in use needs, not a budget for the free
/// bytes in total: every buffer the pool hands out sits in some peer's
/// out-slot until that peer is written to, so with several peers and one
/// small frame per round a total budget shrank the very buffers the next
/// rounds needed, and they regrew every round. Trimming shrinks buffers
/// in place (`Vec::shrink_to`) rather than dropping them, so hit/miss
/// accounting — and with it the cross-mode determinism contract on
/// [`PoolStats`] — is completely unaffected by when or whether a trim
/// happens.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    stats: PoolStats,
    /// Total capacity currently parked in `free`.
    free_bytes: usize,
    /// Largest buffer length returned (at `put`) since the last
    /// `end_round`.
    round_max_put: usize,
    /// Footprints of the last [`TRIM_WINDOW`] rounds.
    footprints: std::collections::VecDeque<usize>,
    /// Reusable sort scratch for the p90 computation, so `end_round`
    /// allocates nothing in steady state.
    p90_scratch: Vec<usize>,
    /// Total capacity released by trims so far.
    trimmed_bytes: u64,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Seed the freelist with `count` fresh buffers of `capacity` bytes
    /// each, so a run's first exchange round is served from the pool
    /// instead of allocating per destination. Pre-warmed buffers count as
    /// neither hits nor misses when added (they are charged normally when
    /// [`BufferPool::get`] hands them out), so hit/miss accounting stays
    /// a pure function of the exchange traffic — identical across
    /// execution modes as long as every mode pre-warms identically.
    pub fn prewarm(&mut self, count: usize, capacity: usize) {
        self.free.reserve(count);
        for _ in 0..count {
            let buf = Vec::with_capacity(capacity);
            self.free_bytes += buf.capacity();
            self.free.push(buf);
        }
    }

    /// Get a cleared buffer, reusing a pooled one when available. Reused
    /// buffers keep their capacity — that is the whole point.
    pub fn get(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(buf) => {
                debug_assert!(buf.is_empty());
                self.free_bytes -= buf.capacity();
                self.stats.hits += 1;
                buf
            }
            None => {
                self.stats.misses += 1;
                Vec::new()
            }
        }
    }

    /// Return a consumed buffer to the pool. The buffer's length (the
    /// bytes the round actually used) feeds the current round's footprint
    /// before the buffer is cleared.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        self.round_max_put = self.round_max_put.max(buf.len());
        buf.clear();
        self.free_bytes += buf.capacity();
        self.free.push(buf);
    }

    /// Return many buffers at once.
    pub fn put_all(&mut self, bufs: impl IntoIterator<Item = Vec<u8>>) {
        for buf in bufs {
            self.put(buf);
        }
    }

    /// Close one exchange round: record the round's footprint and apply
    /// the high-water trim policy (see the type docs). Engines call this
    /// once per exchange round per worker.
    pub fn end_round(&mut self) {
        if self.footprints.len() == TRIM_WINDOW {
            self.footprints.pop_front();
        }
        self.footprints.push_back(self.round_max_put);
        self.round_max_put = 0;
        if self.footprints.len() < TRIM_MIN_SAMPLES {
            return;
        }
        let p90 = self.footprint_p90();
        if p90 == 0 {
            // A window dominated by idle rounds (sparse frontier) says
            // nothing about the working set; trimming to zero here would
            // just force reallocation at the next burst.
            return;
        }
        // Keep every Vec in the list so hit/miss traffic is untouched.
        let keep = TRIM_SLACK * p90;
        for buf in &mut self.free {
            let cap = buf.capacity();
            if cap > keep {
                buf.shrink_to(keep);
                let released = cap - buf.capacity();
                self.free_bytes -= released;
                self.trimmed_bytes += released as u64;
            }
        }
    }

    /// The 90th percentile of the recorded round footprints.
    fn footprint_p90(&mut self) -> usize {
        self.p90_scratch.clear();
        self.p90_scratch.extend(self.footprints.iter().copied());
        self.p90_scratch.sort_unstable();
        self.p90_scratch[(self.p90_scratch.len() * 9).div_ceil(10) - 1]
    }

    /// Buffers currently pooled.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Total capacity currently parked in the freelist.
    pub fn pooled_bytes(&self) -> usize {
        self.free_bytes
    }

    /// Total capacity released by the trim policy so far.
    pub fn trimmed_bytes(&self) -> u64 {
        self.trimmed_bytes
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Overwrite the hit/miss counters — used when restoring a worker
    /// from a checkpoint, so the resumed run's pool accounting continues
    /// from exactly where the snapshot left it (the re-executed tail adds
    /// its traffic once, as an unfailed run would have).
    pub fn set_stats(&mut self, stats: PoolStats) {
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_get_misses_then_hits() {
        let mut pool = BufferPool::new();
        let mut buf = pool.get();
        assert_eq!(pool.stats(), PoolStats { hits: 0, misses: 1 });
        buf.extend_from_slice(&[1, 2, 3]);
        let cap = buf.capacity();
        pool.put(buf);
        let buf = pool.get();
        assert!(buf.is_empty(), "pooled buffers come back cleared");
        assert_eq!(buf.capacity(), cap, "capacity survives the round trip");
        assert_eq!(pool.stats(), PoolStats { hits: 1, misses: 1 });
    }

    #[test]
    fn put_all_and_available() {
        let mut pool = BufferPool::new();
        pool.put_all((0..3).map(|_| vec![0u8; 16]));
        assert_eq!(pool.available(), 3);
        let _ = pool.get();
        assert_eq!(pool.available(), 2);
    }

    /// Simulate one worker's exchange rounds: `count` buffers of `size`
    /// bytes cycle out and home again, then the round closes.
    fn run_round(pool: &mut BufferPool, count: usize, size: usize) {
        let mut in_flight: Vec<Vec<u8>> = (0..count)
            .map(|_| {
                let mut b = pool.get();
                b.resize(size, 7);
                b
            })
            .collect();
        pool.put_all(in_flight.drain(..));
        pool.end_round();
    }

    /// The ROADMAP regression: a one-off giant superstep must not pin
    /// peak capacity forever. After the window refills with small rounds,
    /// the giant capacity is released — without perturbing hit/miss
    /// accounting.
    #[test]
    fn one_off_giant_round_no_longer_pins_capacity() {
        const SMALL: usize = 1 << 10;
        const GIANT: usize = 1 << 20;
        let mut pool = BufferPool::new();
        for _ in 0..TRIM_MIN_SAMPLES {
            run_round(&mut pool, 4, SMALL);
        }
        let steady = pool.pooled_bytes();
        assert!((4 * SMALL..=TRIM_SLACK * 8 * SMALL).contains(&steady));

        run_round(&mut pool, 4, GIANT);
        assert!(
            pool.pooled_bytes() >= 4 * GIANT,
            "giant round grows the pool"
        );

        // The very next small round already sees the giant as an outlier
        // (p90 of the window is small) and trims back down.
        run_round(&mut pool, 4, SMALL);
        assert!(
            pool.pooled_bytes() <= TRIM_SLACK * 8 * SMALL,
            "giant capacity still pinned: {} bytes pooled",
            pool.pooled_bytes()
        );
        assert!(pool.trimmed_bytes() >= 3 * GIANT as u64);

        // Hit/miss traffic is exactly what an untrimmed pool would show:
        // 4 warm-up misses, everything else a hit.
        let stats = pool.stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits as usize, 4 * (TRIM_MIN_SAMPLES + 2) - 4);
        // And the trimmed buffers are still *in* the pool (count-wise).
        assert_eq!(pool.available(), 4);
    }

    /// Steady-state rounds never trigger the trim: pooled capacity stays
    /// within the slack budget and nothing is released.
    #[test]
    fn steady_rounds_do_not_trim() {
        let mut pool = BufferPool::new();
        for _ in 0..3 * TRIM_WINDOW {
            run_round(&mut pool, 3, 4096);
        }
        assert_eq!(pool.trimmed_bytes(), 0, "steady state must not churn");
        assert_eq!(pool.stats().misses, 3);
    }

    /// A sparse-frontier phase (mostly idle rounds) must not trim the
    /// working set to zero — an idle window carries no sizing signal,
    /// and a pool that trimmed to nothing would quietly reallocate on
    /// the next burst.
    #[test]
    fn idle_rounds_do_not_trim_to_zero() {
        let mut pool = BufferPool::new();
        for _ in 0..TRIM_MIN_SAMPLES {
            run_round(&mut pool, 2, 8192);
        }
        let steady = pool.pooled_bytes();
        // A long idle stretch: nothing sent, nothing put.
        for _ in 0..2 * TRIM_WINDOW {
            pool.end_round();
        }
        assert_eq!(pool.pooled_bytes(), steady, "idle rounds must not trim");
        assert_eq!(pool.trimmed_bytes(), 0);
        // The next burst is served entirely from the intact pool.
        run_round(&mut pool, 2, 8192);
        assert_eq!(pool.stats().misses, 2, "burst after idling stays warm");
    }

    /// A sustained shift to a bigger working set must also not churn: the
    /// window adapts and trimming stops once big rounds dominate it.
    #[test]
    fn sustained_growth_adapts_without_oscillating() {
        let mut pool = BufferPool::new();
        for _ in 0..TRIM_WINDOW {
            run_round(&mut pool, 2, 1 << 10);
        }
        for _ in 0..2 * TRIM_WINDOW {
            run_round(&mut pool, 2, 1 << 16);
        }
        let trimmed_after_shift = pool.trimmed_bytes();
        for _ in 0..TRIM_WINDOW {
            run_round(&mut pool, 2, 1 << 16);
        }
        assert_eq!(
            pool.trimmed_bytes(),
            trimmed_after_shift,
            "no further trimming once the window reflects the new footprint"
        );
        assert!(pool.pooled_bytes() >= 2 * (1 << 16));
    }

    #[test]
    fn hit_rate_edge_cases() {
        assert_eq!(PoolStats::default().hit_rate(), 1.0);
        let s = PoolStats {
            hits: 99,
            misses: 1,
        };
        assert!((s.hit_rate() - 0.99).abs() < 1e-12);
        let mut m = PoolStats { hits: 1, misses: 0 };
        m.merge(&s);
        assert_eq!(
            m,
            PoolStats {
                hits: 100,
                misses: 1
            }
        );
    }
}
