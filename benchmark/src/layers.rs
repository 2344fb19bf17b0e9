//! The layer pass: every layer's public functions called in-process on
//! the workload's own generated input, each call inside a span.
//!
//! Nothing here reaches into the program: the spans wrap calls the
//! harness itself makes, so the numbers say what a layer costs when
//! driven alone — the attribution `pcgraph`'s wall clock lacks today.

use crate::child::rendezvous_addr;
use crate::metrics::{Summary, Values, MIB};
use crate::workloads::{Generated, Workload};
use pc_bsp::{Codec, Config, Reader, RunStats, Topology};
use pc_ckpt::{Manifest, RunId, Store};
use pc_dist::{pick_rendezvous_addr, ship, BootstrapOptions, Coordinator, Follower};
use pc_graph::{gen, io, partition, Graph};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One closed span of the layer pass.
struct Span {
    name: &'static str,
    start_us: u64,
    dur_us: u64,
}

/// In-memory span recorder; written out once, when the pass ends.
pub struct Spans {
    origin: Instant,
    /// The span every other span is a child of (the workload's pass).
    root: &'static str,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(root: &'static str) -> Spans {
        Spans {
            origin: Instant::now(),
            root,
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span; returns its result and duration in seconds.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.origin.elapsed();
        let out = f();
        let dur = self.origin.elapsed() - start;
        self.spans.push(Span {
            name,
            start_us: start.as_micros() as u64,
            dur_us: dur.as_micros() as u64,
        });
        (out, dur.as_secs_f64())
    }

    /// Seconds since the pass began, and the part no child span covers.
    pub fn pass_and_self_s(&self) -> (f64, f64) {
        let pass = self.origin.elapsed().as_secs_f64();
        let children: u64 = self.spans.iter().map(|s| s.dur_us).sum();
        (pass, pass - children as f64 / 1e6)
    }

    /// Chrome trace-event JSON (open in ui.perfetto.dev): the root span
    /// and its children on one track, `args.parent` naming the cause.
    pub fn chrome_json(&self) -> String {
        let total_us = self.origin.elapsed().as_micros();
        let mut json = format!(
            "[\n  {{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"{}\",\"ts\":0,\"dur\":{total_us},\"args\":{{}}}}",
            self.root
        );
        for s in &self.spans {
            let _ = write!(
                json,
                ",\n  {{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"{}\",\"ts\":{},\"dur\":{},\"args\":{{\"parent\":\"{}\"}}}}",
                s.name, s.start_us, s.dur_us, self.root
            );
        }
        json.push_str("\n]\n");
        json
    }
}

/// The workload's `pc_algos` entry point, as `pcgraph` dispatches it.
fn run_algo(
    w: &Workload,
    g: &Arc<Graph>,
    topo: &Arc<Topology>,
    cfg: &Config,
    src: Option<u32>,
) -> RunStats {
    match w.algo[0] {
        "pagerank" => pc_algos::pagerank::channel_scatter(g, topo, cfg, 30).stats,
        "bfs" => pc_algos::kernels::bfs(g, topo, cfg, src.unwrap_or(0)).stats,
        "sv" => pc_algos::sv::channel_both(g, topo, cfg).stats,
        "wcc" => {
            let tau = topo
                .mirror_plan()
                .map_or(16, |p| (p.threshold as usize).max(1));
            pc_algos::wcc::channel_mirror(g, topo, cfg, tau).stats
        }
        other => unreachable!("no workload runs {other}"),
    }
}

/// graph → dist → core/algos/bsp on the workload's input. `dist.*` stay 0
/// on the single-process workload, `graph.mirror_*` on unmirrored ones:
/// the layer is not on that workload's path.
fn workload_pass(
    w: &Workload,
    input: &Generated,
    spans: &mut Spans,
) -> Result<(Values, Arc<Graph>, Arc<Topology>), String> {
    let mut v = Values::default();
    let parts = w.workers();

    let (g, load_s) = spans.time("graph.load", || {
        io::read_edge_list(&input.path, w.input.directed(), 0)
    });
    let g = Arc::new(g.map_err(|e| format!("read {}: {e}", input.path.display()))?);
    v.num("graph.load_s", load_s);
    v.num(
        "graph.load_medges_per_s",
        g.edge_count() as f64 / 1e6 / load_s,
    );

    let ldg_deg = w.algo.contains(&"ldg-deg");
    let (owners, partition_s) = spans.time("graph.partition", || {
        if ldg_deg {
            partition::ldg_deg(g.as_ref(), parts, 2)
        } else {
            partition::random_owners(g.n(), parts)
        }
    });
    let (topo, from_owners_s) = spans.time("graph.topology", || {
        Topology::from_owners(parts, owners.clone())
    });
    v.num("graph.partition_s", partition_s + from_owners_s);
    let (cut, total) = partition::edge_cut(g.as_ref(), &owners);
    v.num(
        "graph.edge_cut_pct",
        100.0 * cut as f64 / total.max(1) as f64,
    );

    let (topo, mirror) = if w.algo.contains(&"--mirror-threshold") {
        let (plan, plan_s) = spans.time("graph.mirror_plan", || {
            let tau = partition::default_mirror_threshold(g.as_ref());
            partition::build_mirror_plan(g.as_ref(), &topo, tau)
        });
        v.num("graph.mirror_plan_s", plan_s);
        v.num("graph.mirrored_hubs", plan.hubs.len() as f64);
        let plan = Arc::new(plan);
        (topo.with_mirror(Arc::clone(&plan)), Some(plan))
    } else {
        v.num("graph.mirror_plan_s", 0.0);
        v.num("graph.mirrored_hubs", 0.0);
        (topo, None)
    };
    let topo = Arc::new(topo);

    if w.multi_rank {
        let (slices, slice_s) = spans.time("dist.slice", || {
            (0..parts)
                .map(|r| ship::slice_for_rank(g.as_ref(), &topo, r))
                .collect::<Vec<_>>()
        });
        let (plans, encode_s) = spans.time("dist.plan_encode", || {
            slices
                .iter()
                .map(|s| ship::encode_plan(&owners, &[s], mirror.as_deref()))
                .collect::<Vec<_>>()
        });
        let (decoded, decode_s) = spans.time("dist.plan_decode", || {
            plans
                .iter()
                .map(|p| ship::decode_plan::<()>(p).map(|d| d.1.len()))
                .collect::<Result<Vec<_>, _>>()
        });
        decoded?;
        v.num("dist.slice_s", slice_s);
        v.num("dist.plan_encode_s", encode_s);
        v.num("dist.plan_decode_s", decode_s);
        v.num(
            "dist.plan_mib",
            plans.iter().map(Vec::len).sum::<usize>() as f64 / MIB,
        );
    } else {
        for name in [
            "dist.slice_s",
            "dist.plan_encode_s",
            "dist.plan_decode_s",
            "dist.plan_mib",
        ] {
            v.num(name, 0.0);
        }
    }

    // The same algorithm call under four engines: sequential (engine
    // alone), threads (+ shared-memory exchange), threads over loopback
    // TCP batched (+ wire), and the synchronous TCP driver.
    let mut timed = |span: &'static str, cfg: Config| {
        let (stats, _) = spans.time(span, || run_algo(w, &g, &topo, &cfg, input.src));
        stats
    };
    let seq = timed("core.seq_run", Config::sequential(parts));
    let threads = timed("core.threads_run", Config::with_workers(parts));
    let batched = timed("core.tcp_threads_run", Config::tcp_batched(parts));
    let sync = timed("bsp.tcp_sync_run", Config::tcp(parts));
    let secs = |s: &RunStats| s.millis() / 1e3;
    v.num("core.seq_run_s", secs(&seq));
    v.num("core.threads_run_s", secs(&threads));
    v.num("core.tcp_threads_run_s", secs(&batched));
    v.set(
        "core.threads_over_seq",
        Summary::one(secs(&threads) / secs(&seq)).noted(format!("base seq {:.4} s", secs(&seq))),
    );
    v.set(
        "bsp.sync_over_batched",
        Summary::one(secs(&sync) / secs(&batched))
            .noted(format!("base batched {:.4} s", secs(&batched))),
    );
    v.num(
        "algos.seq_medges_per_s",
        g.arc_count() as f64 * seq.supersteps as f64 / 1e6 / secs(&seq),
    );
    Ok((v, g, topo))
}

/// Encoded size of the codec benchmark's buffer. At least four times a
/// typical 32 MiB last-level cache, so both directions stream from DRAM.
const CODEC_BUFFER_BYTES: usize = 128 << 20;

fn llc_bytes() -> Option<u64> {
    let size = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let kib: u64 = size.trim().strip_suffix('K')?.parse().ok()?;
    Some(kib << 10)
}

/// `Codec` throughput over `(u32, f64)` pairs — PageRank's wire format.
fn codec_pass(spans: &mut Spans, v: &mut Values) {
    let pairs: Vec<(u32, f64)> = (0..(CODEC_BUFFER_BYTES / 12) as u32)
        .map(|i| (i, i as f64 * 0.5))
        .collect();
    // Touch every page first: the encode span times the codec, not the
    // kernel's first-touch faults.
    let mut buf = vec![0u8; CODEC_BUFFER_BYTES];
    buf.clear();
    let ((), encode_s) = spans.time("bsp.codec_encode", || {
        for p in black_box(&pairs) {
            p.encode(&mut buf);
        }
    });
    let (sum, decode_s) = spans.time("bsp.codec_decode", || {
        let mut r = Reader::new(black_box(&buf));
        let mut sum = 0.0;
        while !r.is_empty() {
            let (i, x): (u32, f64) = r.get();
            sum += x + i as f64;
        }
        sum
    });
    black_box(sum);
    let sizes = format!(
        "buffer {:.0} MiB, LLC {}",
        buf.len() as f64 / MIB,
        llc_bytes().map_or("unknown".to_string(), |b| format!(
            "{:.0} MiB",
            b as f64 / MIB
        ))
    );
    let mib = buf.len() as f64 / MIB;
    v.set(
        "bsp.codec_encode_mib_per_s",
        Summary::one(mib / encode_s).noted(sizes.clone()),
    );
    v.set(
        "bsp.codec_decode_mib_per_s",
        Summary::one(mib / decode_s).noted(sizes),
    );
}

/// `Coordinator::rendezvous` + `Follower::join` over loopback, 2 ranks.
fn rendezvous_pass(spans: &mut Spans, v: &mut Values) -> Result<(), String> {
    let mut samples = Vec::new();
    for _ in 0..5 {
        // The data addresses are only carried, never bound or dialled.
        let data = |what: &str| pick_rendezvous_addr().map_err(|e| format!("{what}: {e}"));
        let (bind, data0, data1) = (rendezvous_addr()?, data("data 0")?, data("data 1")?);
        let (res, s) = spans.time("dist.rendezvous", || {
            std::thread::scope(|scope| {
                let joiner = scope
                    .spawn(move || Follower::join(bind, 1, data1, BootstrapOptions::default()));
                let c = Coordinator::rendezvous(bind, 2, data0, BootstrapOptions::default());
                let f = joiner.join().expect("the joiner thread does not panic");
                c.and(f.map(|_| ()))
            })
        });
        res.map_err(|e| format!("rendezvous: {e}"))?;
        samples.push(s);
    }
    v.set("dist.rendezvous_s", Summary::of(&samples));
    Ok(())
}

/// `Store` write/commit/read on a real segment: one rank's state from a
/// checkpointed in-process run of the workload. 0 when the workload
/// does not checkpoint.
fn ckpt_pass(
    w: &Workload,
    (g, topo): (&Arc<Graph>, &Arc<Topology>),
    src: Option<u32>,
    scratch: &Path,
    spans: &mut Spans,
    v: &mut Values,
) -> Result<(), String> {
    const NAMES: [&str; 4] = [
        "ckpt.write_segment_s",
        "ckpt.commit_s",
        "ckpt.read_segment_s",
        "ckpt.segment_mib",
    ];
    let Some(every) = w.ckpt_every else {
        NAMES.iter().for_each(|n| v.num(n, 0.0));
        return Ok(());
    };
    let err = |e: pc_ckpt::CkptError| format!("ckpt: {e}");
    let parts = w.workers();
    let dir = scratch.join(format!("{}.layer-ckpt", w.name));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = Config {
        ckpt: Some(pc_bsp::CkptPolicy {
            every: every as u64,
            dir: dir.join("run"),
        }),
        ..Config::with_workers(parts)
    };
    spans.time("ckpt.checkpointed_run", || run_algo(w, g, topo, &cfg, src));
    let store = Store::open(dir.join("run")).map_err(err)?;
    let step = *store
        .committed_steps()
        .map_err(err)?
        .last()
        .ok_or("the checkpointed run committed nothing")?;
    let (seg, read_s) = spans.time("ckpt.read_segment", || store.read_segment(step, 0));
    let mut seg = seg.map_err(err)?;

    let fresh = Store::open(dir.join("fresh")).map_err(err)?;
    let (mut writes, mut commits) = (Vec::new(), Vec::new());
    for i in 1..=5u64 {
        seg.superstep = i;
        let (digests, write_s) = spans.time("ckpt.write_segment", || {
            (0..parts as u32)
                .map(|rank| {
                    seg.rank = rank;
                    fresh.write_segment(&seg)
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let manifest = Manifest {
            id: RunId {
                workers: parts as u32,
                n: g.n() as u64,
                algo: w.algo[0].to_string(),
            },
            superstep: i,
            rounds: i,
            digests: digests.map_err(err)?,
        };
        let (res, commit_s) = spans.time("ckpt.commit", || fresh.commit(&manifest));
        res.map_err(err)?;
        writes.push(write_s / parts as f64);
        commits.push(commit_s);
    }
    let _ = std::fs::remove_dir_all(&dir);
    v.set("ckpt.write_segment_s", Summary::of(&writes));
    v.set("ckpt.commit_s", Summary::of(&commits));
    v.set(
        "ckpt.read_segment_s",
        Summary::one(read_s).noted("page cache warm"),
    );
    v.num("ckpt.segment_mib", seg.payload.len() as f64 / MIB);
    Ok(())
}

/// The paper's Tables 4-6 as ratios, on small inputs of their own made
/// from the seed (the same on every workload): basic vs channel
/// PageRank, basic vs propagation WCC, plain vs composed S-V.
fn paper_pass(seed: u64, spans: &mut Spans, v: &mut Values) {
    let cfg = Config::sequential(2);
    let hashed = |g: &Graph| Arc::new(Topology::from_owners(2, partition::random_owners(g.n(), 2)));
    let ratio = |base: f64, opt: f64, what: &str| {
        Summary::one(base / opt).noted(format!("base {what} {base:.4}"))
    };
    let (secs, mib) = (
        |s: &RunStats| s.millis() / 1e3,
        |s: &RunStats| s.remote_bytes() as f64 / MIB,
    );

    let g = Arc::new(gen::rmat(
        15,
        9 << 15,
        gen::RmatParams::default(),
        seed,
        true,
    ));
    let topo = hashed(&g);
    let (base, _) = spans.time("paper.t4_pregel_basic", || {
        pc_algos::pagerank::pregel_basic(&g, &topo, &cfg, 30).stats
    });
    let (opt, _) = spans.time("paper.t4_channel_scatter", || {
        pc_algos::pagerank::channel_scatter(&g, &topo, &cfg, 30).stats
    });
    v.set(
        "paper.t4_bytes_ratio",
        ratio(mib(&base), mib(&opt), "pregel_basic MiB"),
    );
    v.set(
        "paper.t4_time_ratio",
        ratio(secs(&base), secs(&opt), "pregel_basic s"),
    );

    let g = Arc::new(gen::grid2d(128, 128, 0.05, seed));
    let topo = hashed(&g);
    let (base, _) = spans.time("paper.t5_wcc_basic", || {
        pc_algos::wcc::channel_basic(&g, &topo, &cfg).stats
    });
    let (opt, _) = spans.time("paper.t5_wcc_propagation", || {
        pc_algos::wcc::channel_propagation(&g, &topo, &cfg).stats
    });
    v.set(
        "paper.t5_rounds_ratio",
        ratio(
            base.supersteps as f64,
            opt.supersteps as f64,
            "channel_basic supersteps",
        ),
    );
    v.set(
        "paper.t5_time_ratio",
        ratio(secs(&base), secs(&opt), "channel_basic s"),
    );

    let g = Arc::new(gen::rmat(
        15,
        8 << 15,
        gen::RmatParams::default(),
        seed,
        false,
    ));
    let topo = hashed(&g);
    let (base, _) = spans.time("paper.t6_sv_basic", || {
        pc_algos::sv::channel_basic(&g, &topo, &cfg).stats
    });
    let (opt, _) = spans.time("paper.t6_sv_both", || {
        pc_algos::sv::channel_both(&g, &topo, &cfg).stats
    });
    v.set(
        "paper.t6_sv_time_ratio",
        ratio(secs(&base), secs(&opt), "channel_basic s"),
    );
    v.set(
        "paper.t6_sv_bytes_ratio",
        ratio(mib(&base), mib(&opt), "channel_basic MiB"),
    );
}

/// The whole layer pass (a) of one workload.
pub fn run(
    w: &Workload,
    input: &Generated,
    seed: u64,
    scratch: &Path,
    spans: &mut Spans,
) -> Result<Values, String> {
    let (mut v, g, topo) = workload_pass(w, input, spans)?;
    if w.multi_rank {
        rendezvous_pass(spans, &mut v)?;
    } else {
        v.num("dist.rendezvous_s", 0.0);
    }
    codec_pass(spans, &mut v);
    ckpt_pass(w, (&g, &topo), input.src, scratch, spans, &mut v)?;
    paper_pass(seed, spans, &mut v);
    Ok(v)
}
