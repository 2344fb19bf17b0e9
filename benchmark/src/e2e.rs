//! The end-to-end pass: a closed loop of untraced `pcgraph` jobs, one at
//! a time, after one untimed verified rep.

use crate::calibrate::Calibrator;
use crate::child::{run_rep, Ctx, Mode, Rep};
use crate::workloads::{Generated, Workload};
use std::time::Instant;

/// Never fewer timed reps than this, whatever the time budget says.
pub const MIN_REPS: usize = 5;

/// How many timed reps to run.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Reps(usize),
    /// Keep starting reps until this many seconds of reps have run.
    Seconds(f64),
}

pub struct E2e {
    cal: Calibrator,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// The verified rep every later rep is compared with.
    pub verified: Option<Rep>,
    /// Timed reps that passed every check.
    pub reps: Vec<Rep>,
}

impl E2e {
    /// One more rep in `mode`, compared against the verified rep.
    /// Returns it when it passed; a failure is recorded, not returned.
    pub fn checked_rep(
        &mut self,
        ctx: &Ctx,
        w: &Workload,
        input: &Generated,
        mode: Mode,
    ) -> Option<Rep> {
        self.attempted += 1;
        let (rep, host_factor) = self.cal.around(|| run_rep(ctx, w, input, mode));
        let rep = rep.and_then(|mut rep| {
            rep.host_factor = host_factor;
            let base = self
                .verified
                .as_ref()
                .ok_or("no verified rep to compare with")?;
            if rep.digest != base.digest {
                return Err("stdout differs from the verified rep".to_string());
            }
            if rep.counters != base.counters {
                return Err(format!(
                    "counters {:?} differ from the verified rep's {:?}",
                    rep.counters, base.counters
                ));
            }
            Ok(rep)
        });
        match rep {
            Ok(rep) => Some(rep),
            Err(why) => {
                self.failures
                    .push(format!("{} {mode:?} rep: {why}", w.name));
                None
            }
        }
    }
}

/// The verified rep, then `budget` timed reps. `check_output` is the
/// harness's own check of the verified rep's stdout (the only one the
/// single-process workload gets: `--verify` needs ranks).
pub fn run(
    ctx: &Ctx,
    w: &Workload,
    input: &Generated,
    budget: Budget,
    check_output: impl FnOnce(&Rep) -> Result<(), String>,
) -> E2e {
    let mut e = E2e {
        cal: Calibrator::default(),
        attempted: 1,
        failures: Vec::new(),
        verified: None,
        reps: Vec::new(),
    };
    match run_rep(ctx, w, input, Mode::Verify).and_then(|rep| check_output(&rep).map(|()| rep)) {
        Ok(rep) => e.verified = Some(rep),
        Err(why) => {
            e.failures.push(format!("{} verified rep: {why}", w.name));
            return e;
        }
    }
    let started = Instant::now();
    loop {
        let done = match budget {
            Budget::Reps(n) => e.reps.len() + e.failures.len() >= n,
            Budget::Seconds(s) => {
                e.reps.len() + e.failures.len() >= MIN_REPS && started.elapsed().as_secs_f64() >= s
            }
        };
        if done {
            return e;
        }
        if let Some(rep) = e.checked_rep(ctx, w, input, Mode::Timed) {
            e.reps.push(rep);
        }
    }
}

/// The harness's own check of a verified rep. Multi-rank workloads were
/// already checked by `--verify`; the single-process PageRank baseline
/// has its printed top ten compared with the textbook reference.
pub fn reference_check(w: &Workload, input: &Generated, rep: &Rep) -> Result<(), String> {
    if w.multi_rank {
        return Ok(());
    }
    let g = pc_graph::io::read_edge_list(&input.path, w.input.directed(), 0)
        .map_err(|e| format!("read {}: {e}", input.path.display()))?;
    let oracle = pc_graph::reference::pagerank(&g, 30);
    let best = oracle.iter().copied().fold(0.0, f64::max);
    let mut lines = 0;
    for line in rep.stdout.lines() {
        let parsed = line
            .split_once('\t')
            .and_then(|(v, r)| Some((v.parse::<usize>().ok()?, r.parse::<f64>().ok()?)));
        let Some((v, r)) = parsed else {
            return Err(format!("unexpected output line {line:?}"));
        };
        let want = *oracle.get(v).ok_or(format!("vertex {v} out of range"))?;
        if (r - want).abs() > 1e-7 || (lines == 0 && (r - best).abs() > 1e-7) {
            return Err(format!(
                "vertex {v}: rank {r} but the reference says {want}"
            ));
        }
        lines += 1;
    }
    if lines == 10 {
        Ok(())
    } else {
        Err(format!("{lines} result lines, expected the top 10"))
    }
}
