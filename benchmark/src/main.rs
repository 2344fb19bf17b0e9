//! The benchmark harness. Two ways in, one measurement path:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — the driver's
//!   contract: one workload, end-to-end metrics (`--trace 0`) or
//!   per-layer metrics (`--trace 1`), one JSON object as the last line.
//! * `[--seed S] [--reps N] [--only W] [--aa]` — the full report:
//!   every workload, both metric sets, by name with units.
//!
//! See `benchmark/README.md` for what each metric means and feeds.

mod calibrate;
mod child;
mod e2e;
mod json;
mod layers;
mod metrics;
mod sys;
mod traced;
mod workloads;

use child::{Counters, Ctx, Mode, Rep};
use e2e::Budget;
use json::Json;
use metrics::{Summary, Values, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

/// Untraced reps of a traced pass: they only base the tracing overhead
/// and summarise the stall counters, so fewer than the timed minimum do.
const TRACE_PASS_REPS: usize = 3;

struct Args {
    pcgraph: PathBuf,
    out: PathBuf,
    seed: u64,
    /// Contract mode.
    workload: Option<String>,
    seconds: f64,
    trace: bool,
    /// Report mode.
    reps: usize,
    only: Option<String>,
    aa: bool,
    /// `BENCHMARK.json`, checked against the harness tables before a run.
    manifest: Option<PathBuf>,
    /// Print the workload and metric tables and exit.
    list: bool,
    /// Print this host's current speed against the reference and exit.
    calibrate: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("pc-benchmark: {msg}");
    eprintln!(
        "usage: pc-benchmark --pcgraph BIN --out DIR \
         [--manifest BENCHMARK.json] (--workload W --seed N --seconds S --trace 0|1 \
         | [--seed S] [--reps N] [--only W] [--aa] | --list | --calibrate)"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut a = Args {
        pcgraph: PathBuf::new(),
        out: PathBuf::new(),
        seed: 1,
        workload: None,
        seconds: 15.0,
        trace: false,
        reps: e2e::MIN_REPS,
        only: None,
        aa: false,
        manifest: None,
        list: false,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> T {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: bad value {v:?}")))
        }
        match flag.as_str() {
            "--pcgraph" => a.pcgraph = value().into(),
            "--out" => a.out = value().into(),
            "--seed" => a.seed = num(&flag, value()),
            "--workload" => a.workload = Some(value()),
            "--seconds" => a.seconds = num(&flag, value()),
            "--trace" => a.trace = num::<u8>(&flag, value()) != 0,
            "--reps" => a.reps = num(&flag, value()),
            "--only" => a.only = Some(value()),
            "--aa" => a.aa = true,
            "--manifest" => a.manifest = Some(value().into()),
            "--list" => a.list = true,
            "--calibrate" => a.calibrate = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !a.list && !a.calibrate && (a.pcgraph.as_os_str().is_empty() || a.out.as_os_str().is_empty())
    {
        usage("--pcgraph and --out are required");
    }
    if a.reps < e2e::MIN_REPS {
        usage(&format!("--reps must be at least {}", e2e::MIN_REPS));
    }
    for name in a.workload.iter().chain(&a.only) {
        if workloads::find(name).is_none() {
            usage(&format!("unknown workload {name}"));
        }
    }
    a
}

/// Everything measured on one workload.
struct Outcome {
    w: &'static Workload,
    attempted: u64,
    failures: Vec<String>,
    counters: Option<Counters>,
    end_to_end: Values,
    /// The timed reps as measured, and the host factor that scaled them
    /// into `end_to_end`. Information only.
    raw: Values,
    /// Every timed rep in order, `raw wall_s/raw run_s/host_factor`: shows
    /// which reps a slow phase of the host hit.
    rep_log: String,
    per_layer: Option<Values>,
    /// Input generation + file writes; information only, outside both
    /// metric sets. 0 when the input was reused.
    harness_gen_s: f64,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

fn measure(ctx: &Ctx, w: &'static Workload, seed: u64, budget: Budget, trace: bool) -> Outcome {
    let mut out = Outcome {
        w,
        attempted: 1,
        failures: Vec::new(),
        counters: None,
        end_to_end: Values::default(),
        raw: Values::default(),
        rep_log: String::new(),
        per_layer: None,
        harness_gen_s: 0.0,
    };
    let input = match workloads::generate(&w.input, seed, &ctx.out) {
        Ok(input) => input,
        Err(e) => {
            out.failures
                .push(format!("{}: cannot generate input: {e}", w.name));
            return out;
        }
    };
    out.harness_gen_s = input.gen_s;
    let mut e = e2e::run(ctx, w, &input, budget, |rep| {
        e2e::reference_check(w, &input, rep)
    });
    out.counters = e.verified.as_ref().map(|r| r.counters);
    if !e.reps.is_empty() {
        let over = |f: fn(&Rep) -> f64| Summary::over(&e.reps, f);
        out.end_to_end.set("wall_s", over(Rep::wall).best_of());
        out.end_to_end.set("run_s", over(Rep::run).best_of());
        out.end_to_end.set("setup_s", over(Rep::setup).best_of());
        out.end_to_end.set("cpu_s", over(Rep::cpu).best_of());
        out.end_to_end.set("peak_rss_mib", over(|r| r.peak_rss_mib));
        out.raw.set("raw_wall_s", over(|r| r.wall_s));
        out.raw.set("raw_run_s", over(|r| r.run_s));
        out.raw.set("host_factor", over(|r| r.host_factor));
        out.rep_log = e
            .reps
            .iter()
            .map(|r| format!("{:.3}/{:.3}/{:.3}", r.wall_s, r.run_s, r.host_factor))
            .collect::<Vec<_>>()
            .join(" ");
    }
    if trace && e.failures.is_empty() {
        match per_layer(ctx, w, &input, seed, &mut e) {
            Ok(v) => out.per_layer = Some(v),
            Err(why) => e.failures.push(format!("{} per-layer pass: {why}", w.name)),
        }
    }
    out.attempted = e.attempted;
    out.failures = e.failures;
    out
}

/// The traced rep (b, c) and the layer pass (a) of one workload.
fn per_layer(
    ctx: &Ctx,
    w: &'static Workload,
    input: &workloads::Generated,
    seed: u64,
    e: &mut e2e::E2e,
) -> Result<Values, String> {
    let mut v = traced::from_stats(&e.reps)?;

    let traced = e
        .checked_rep(ctx, w, input, Mode::Traced)
        .ok_or("the traced rep failed (its counters must equal the untraced reps')")?;
    let trace_file = child::trace_path(ctx, w);
    let trace = std::fs::read_to_string(&trace_file)
        .map_err(|e| format!("{}: {e}", trace_file.display()))
        .and_then(|t| Json::parse(&t))?;
    let untraced_wall = Summary::over(&e.reps, Rep::wall).min;
    v.extend(traced::from_trace(
        &traced,
        &trace,
        w.workers(),
        untraced_wall,
    ));

    if w.ckpt_every.is_some() {
        let base: Vec<_> = (0..TRACE_PASS_REPS)
            .filter_map(|_| e.checked_rep(ctx, w, input, Mode::NoCkpt))
            .collect();
        if base.is_empty() {
            return Err("no checkpoint-free rep survived".to_string());
        }
        let with = Summary::over(&e.reps, Rep::run).min;
        let without = Summary::over(&base, Rep::run).min;
        v.set(
            "ckpt.overhead_s",
            Summary::one(with - without).noted(format!("base checkpoint-free run {without:.4} s")),
        );
    } else {
        v.num("ckpt.overhead_s", 0.0);
    }

    let mut spans = layers::Spans::new(w.name);
    v.extend(layers::run(w, input, seed, &ctx.out, &mut spans)?);
    let (pass_s, self_s) = spans.pass_and_self_s();
    v.num("layers.pass_s", pass_s);
    v.num("layers.self_s", self_s);
    let layers_file = ctx.out.join(format!("layers_{}.json", w.name));
    std::fs::write(&layers_file, spans.chrome_json())
        .map_err(|e| format!("{}: {e}", layers_file.display()))?;
    Ok(v)
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// `name = value unit (n, median, min, max) [note]`, one metric per line.
fn print_values(prefix: &str, values: &Values) {
    for (name, s) in &values.0 {
        let note = if s.note.is_empty() {
            String::new()
        } else {
            format!("  [{}]", s.note)
        };
        let spread = if s.n == 1 {
            String::new()
        } else {
            format!(
                "  (n {} median {:.6} min {:.6} max {:.6})",
                s.n, s.median, s.min, s.max
            )
        };
        println!(
            "{prefix}.{name} = {:.6} {}{spread}{note}",
            s.value,
            metrics::unit_of(name)
        );
    }
}

fn print_outcome(o: &Outcome) {
    println!("== {} — {}", o.w.name, o.w.why);
    println!(
        "{}.ops_attempted = {}  {}.ops_failed = {}  harness_gen_s = {:.3}",
        o.w.name,
        o.attempted,
        o.w.name,
        o.failures.len(),
        o.harness_gen_s
    );
    for f in &o.failures {
        println!("FAILED {f}");
    }
    if let Some(c) = &o.counters {
        println!(
            "{}.counters: supersteps {} rounds {} messages {} remote_bytes {}",
            o.w.name, c.supersteps, c.rounds, c.messages, c.remote_bytes
        );
    }
    print_values(o.w.name, &o.end_to_end);
    println!(
        "{}.reps (raw wall_s/raw run_s/host_factor) = {}",
        o.w.name, o.rep_log
    );
    print_values(o.w.name, &o.raw);
    if let Some(v) = &o.per_layer {
        print_values(o.w.name, v);
    }
}

/// `{"name": {"value": .., "unit": ..}, ..}` over a metric table; `Err`
/// names a metric the pass did not produce.
fn metrics_json<'a>(
    table: impl Iterator<Item = (&'a str, &'a str)>,
    values: &Values,
) -> Result<String, String> {
    let mut json = String::from("{");
    for (i, (name, unit)) in table.enumerate() {
        let s = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            finite(s.value)
        );
    }
    json.push('}');
    Ok(json)
}

fn e2e_json(v: &Values) -> Result<String, String> {
    metrics_json(END_TO_END.iter().map(|m| (m.name, m.unit)), v)
}

fn layer_json(v: &Values) -> Result<String, String> {
    metrics_json(PER_LAYER.iter().map(|m| (m.name, m.unit)), v)
}

/// The driver's contract: one workload, one JSON object last.
fn contract_mode(ctx: &Ctx, a: &Args, name: &str) -> ExitCode {
    let w = workloads::find(name).expect("validated in parse_args");
    let budget = if a.trace {
        Budget::Reps(TRACE_PASS_REPS)
    } else {
        Budget::Seconds(a.seconds)
    };
    let o = measure(ctx, w, a.seed, budget, a.trace);
    print_outcome(&o);
    let metrics = match (&o.per_layer, a.trace) {
        (Some(v), true) => layer_json(v),
        (None, true) => Err("the per-layer pass did not complete".to_string()),
        (_, false) => e2e_json(&o.end_to_end),
    };
    match metrics {
        Ok(metrics) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
                o.correct(),
                o.attempted,
                o.failures.len()
            );
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("pc-benchmark: {}: no result: {why}", w.name);
            ExitCode::FAILURE
        }
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn selected(a: &Args) -> impl Iterator<Item = &'static Workload> + '_ {
    WORKLOADS
        .iter()
        .filter(|w| a.only.as_deref().is_none_or(|o| o == w.name))
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".to_string())
}

/// The machine-readable summary of a report run. Claims nothing.
fn summary_json(a: &Args, outcomes: &[Outcome]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut json = format!(
        "{{\n  \"seed\": {}, \"reps\": {}, \"ranks\": {},\n  \"environment\": {{\"nproc\": {nproc}, \"rustc\": \"{}\", \"commit\": \"{}\"}},\n  \"workloads\": {{\n",
        a.seed,
        a.reps,
        workloads::RANKS,
        env_or_unknown("BENCH_RUSTC"),
        env_or_unknown("BENCH_COMMIT"),
    );
    for (i, o) in outcomes.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{}\": {{\"ops_attempted\": {}, \"ops_failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}{}",
            o.w.name,
            o.attempted,
            o.failures.len(),
            e2e_json(&o.end_to_end).unwrap_or_else(|_| "null".to_string()),
            o.per_layer.as_ref().and_then(|v| layer_json(v).ok()).unwrap_or_else(|| "null".to_string()),
            if i + 1 < outcomes.len() { "," } else { "" }
        );
    }
    json.push_str("  },\n  \"claim\": null\n}");
    json
}

/// Every selected workload, both metric sets, then the derived
/// cross-workload lines and the JSON summary.
fn report_mode(ctx: &Ctx, a: &Args) -> ExitCode {
    let outcomes: Vec<Outcome> = selected(a)
        .map(|w| {
            let o = measure(ctx, w, a.seed, Budget::Reps(a.reps), true);
            print_outcome(&o);
            o
        })
        .collect();
    let run_s = |name: &str| {
        let o = outcomes.iter().find(|o| o.w.name == name)?;
        Some(o.end_to_end.get("run_s")?.value)
    };
    if let (Some(one), Some(two)) = (run_s("pr_dense_1w"), run_s("pr_dense")) {
        println!(
            "pr_dense.ranks_speedup = {:.4} ratio  [run_s at --workers 1 ({one:.4} s) over run_s at --ranks 2]",
            one / two
        );
    }
    let summary = summary_json(a, &outcomes);
    if let Err(e) = std::fs::write(ctx.out.join("report.json"), &summary) {
        eprintln!("pc-benchmark: cannot write report.json: {e}");
    }
    println!("{summary}");
    exit_code(outcomes.iter().all(Outcome::correct))
}

/// The full end-to-end set twice on the same tree: every metric must
/// agree within its own bound (and floor), every counter exactly.
fn aa_mode(ctx: &Ctx, a: &Args) -> ExitCode {
    let set = || -> Vec<Outcome> {
        selected(a)
            .map(|w| measure(ctx, w, a.seed, Budget::Reps(a.reps), false))
            .collect()
    };
    let (first, second) = (set(), set());
    let mut ok = true;
    println!(
        "{:<16} {:<13} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "diff %", "bound"
    );
    for (x, y) in first.iter().zip(&second) {
        for o in [x, y] {
            for f in &o.failures {
                println!("FAILED {f}");
                ok = false;
            }
        }
        if x.counters != y.counters {
            println!(
                "{:<16} counters differ: {:?} vs {:?}",
                x.w.name, x.counters, y.counters
            );
            ok = false;
        }
        for m in &END_TO_END {
            let (Some(p), Some(q)) = (x.end_to_end.get(m.name), y.end_to_end.get(m.name)) else {
                continue;
            };
            let bad = metrics::disagree(m, p.value, q.value);
            ok &= !bad;
            println!(
                "{:<16} {:<13} {:>12.4} {:>12.4} {:>+8.2} {:>5.0}%  {}",
                x.w.name,
                m.name,
                p.value,
                q.value,
                100.0 * (q.value - p.value) / p.value,
                100.0 * m.bound,
                if bad { "DISAGREE" } else { "agree" }
            );
        }
    }
    println!(
        "A/A: {}",
        if ok {
            "every metric agrees within its bound"
        } else {
            "DISAGREEMENT"
        }
    );
    exit_code(ok)
}

/// The workload and metric tables as markdown (the README's source).
fn list_tables() {
    println!("| workload | input | `pcgraph` arguments | why |\n|---|---|---|---|");
    for w in &WORKLOADS {
        let mode = if w.multi_rank {
            "--ranks 2 --transport tcp-batched"
        } else {
            "--workers 1"
        };
        let ckpt = w
            .ckpt_every
            .map_or(String::new(), |n| format!(" --checkpoint-every {n}"));
        println!(
            "| `{}` | `{}` | `{} {mode}{ckpt}` | {} |",
            w.name,
            w.input.stem(),
            w.algo.join(" "),
            w.why
        );
    }
    println!("\n| end-to-end metric | unit | bound | floor |\n|---|---|---|---|");
    for m in &END_TO_END {
        println!(
            "| `{}` | {} | {:.0} % | {} {} |",
            m.name,
            m.unit,
            100.0 * m.bound,
            m.floor,
            m.unit
        );
    }
    println!("\n| per-layer metric | unit | better | feeds |\n|---|---|---|---|");
    for m in &PER_LAYER {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        println!("| `{}` | {} | {better} | {} |", m.name, m.unit, m.feeds);
    }
}

fn check_manifest(path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let listed: Vec<_> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    metrics::validate_manifest(&Json::parse(&text)?, &listed)
}

fn main() -> ExitCode {
    let a = parse_args();
    if a.list {
        list_tables();
        return ExitCode::SUCCESS;
    }
    if a.calibrate {
        let mut cal = calibrate::Calibrator::default();
        let samples: Vec<f64> = (0..100).map(|_| cal.sample()).collect();
        let s = Summary::of(&samples);
        println!(
            "calibration walk: min {:.5} s median {:.5} s max {:.5} s over {} samples; reference {:.5} s; host_factor now {:.3}",
            s.min, s.median, s.max, s.n, calibrate::REFERENCE_S, (calibrate::REFERENCE_S / s.median).min(1.0)
        );
        return ExitCode::SUCCESS;
    }
    if let Some(Err(why)) = a.manifest.as_deref().map(check_manifest) {
        eprintln!("pc-benchmark: BENCHMARK.json does not match the harness: {why}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all(&a.out) {
        eprintln!("pc-benchmark: cannot create {}: {e}", a.out.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        pcgraph: a.pcgraph.clone(),
        out: a.out.clone(),
    };
    match &a.workload {
        Some(name) => contract_mode(&ctx, &a, name),
        None if a.aa => aa_mode(&ctx, &a),
        None => report_mode(&ctx, &a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's result line carries exactly the table's names, in
    /// order, and a pass that skipped a metric yields no result at all.
    #[test]
    fn result_json_carries_every_table_name() {
        let mut v = Values::default();
        for (i, m) in PER_LAYER.iter().enumerate() {
            v.num(m.name, i as f64 + 0.5);
        }
        let doc = Json::parse(&layer_json(&v).unwrap()).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, PER_LAYER.map(|m| m.name));
        let first = doc.get(PER_LAYER[0].name).unwrap();
        assert_eq!(
            (first.field("value"), first.get("unit").unwrap().str()),
            (Ok(0.5), Some(PER_LAYER[0].unit))
        );

        v.0.pop();
        assert!(layer_json(&v)
            .unwrap_err()
            .contains(PER_LAYER[PER_LAYER.len() - 1].name));
        assert!(e2e_json(&Values::default()).is_err());
    }

    #[test]
    fn non_finite_values_never_reach_the_json() {
        let mut v = Values::default();
        for m in &END_TO_END {
            v.num(m.name, f64::NAN);
        }
        assert!(Json::parse(&e2e_json(&v).unwrap()).is_ok());
    }
}
