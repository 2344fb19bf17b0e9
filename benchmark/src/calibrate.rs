//! Host-speed calibration: how contended is this machine *right now*?
//!
//! The sandboxes this benchmark runs in share their memory system with
//! neighbours. For phases of seconds to minutes the same `pcgraph` job
//! runs 20-50 % slower — while a pure ALU loop slows by 2-3 %. Over ten
//! seeds of unchanged code the raw median of a 15 s window spread
//! (IQR/median) 8-45 % and even the raw best-of-N 3-35 %: wider than the
//! largest regression bound the driver's contract allows.
//!
//! What does track the slow phases (correlation 0.72-0.90 with job time,
//! against 0.3-0.7 for ALU, streaming and large-table latency kernels) is
//! a random read-modify-write walk over a table larger than L2. The
//! harness runs that walk between jobs — never beside one — and scales
//! each rep's times by `REFERENCE_S / walk time`, **capped at 1**: when
//! the neighbours go idle the walk gets up to 40 % faster than the
//! reference (more of the shared L3 is free) but the jobs do not, so a
//! faster-than-reference walk means "uncontended" and nothing more.
//! Seconds become "seconds on this host when nothing contends for its
//! memory system". On the sweep that recorded both, that cut the ten-seed
//! spread of best-of-N `wall_s` from 7-18 % to 4-9 %. The factor depends
//! only on harness code a gain-claiming change may not touch, and the raw
//! timings and factors are printed beside every normalised value.

use pc_bsp::topology::mix64;
use std::time::{Duration, Instant};

/// Table the walk covers: 32 MiB, 8x this box's L2.
const TABLE_WORDS: usize = 4 << 20;

/// Accesses per sample: ~80 ms, short against a rep (0.6-1.8 s) yet long
/// enough that the sample's own jitter is a few percent.
const ACCESSES: u64 = 600_000;

/// The walk time at which jobs stop getting faster on the box these
/// workloads were sized on: below it the walk only measures how much
/// shared L3 happens to be free (knees of 75-85 ms fit the recorded
/// sweeps about equally; 90 ms is clearly worse). A constant, not a
/// running minimum: the harness keeps no state between invocations, and a
/// window that is slow from end to end has no quiet sample of its own to
/// compare with. A machine whose walk is always faster reports plain
/// seconds; one whose walk is always slower scales every time by a common
/// factor, which comparisons between two builds on it never see.
pub const REFERENCE_S: f64 = 0.0800;

/// A sample this fresh is reused as the next rep's "before".
const FRESH: Duration = Duration::from_millis(50);

#[derive(Default)]
pub struct Calibrator {
    last: Option<(Instant, f64)>,
}

impl Calibrator {
    /// Time one walk, in seconds. The table lives only for the sample: a
    /// spawned job's `ru_maxrss` starts from the spawner's resident set,
    /// so the harness must be small whenever it spawns one.
    pub fn sample(&mut self) -> f64 {
        let mut table: Vec<u64> = (0..TABLE_WORDS as u64).collect();
        let n = table.len() as u64;
        let t = Instant::now();
        let mut x = 1u64;
        for i in 0..ACCESSES {
            let slot = (mix64(x ^ i) % n) as usize;
            x = x.wrapping_add(table[slot]);
            table[slot] = x;
        }
        std::hint::black_box(x);
        let s = t.elapsed().as_secs_f64();
        self.last = Some((Instant::now(), s));
        s
    }

    /// The last sample if it was taken just now, else a new one.
    fn fresh_sample(&mut self) -> f64 {
        match self.last {
            Some((at, s)) if at.elapsed() < FRESH => s,
            _ => self.sample(),
        }
    }

    /// Run `job` between two samples; returns its result and the factor
    /// (at most 1) that turns its measured seconds into uncontended ones.
    pub fn around<T>(&mut self, job: impl FnOnce() -> T) -> (T, f64) {
        let before = self.fresh_sample();
        let out = job();
        let after = self.sample();
        (out, (REFERENCE_S / ((before + after) / 2.0)).min(1.0))
    }
}
