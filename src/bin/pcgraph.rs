//! `pcgraph` — run the channel-based algorithms from the command line.
//!
//! Three execution shapes share one binary:
//!
//! * **Single process** (default): the simulated cluster — worker threads
//!   over the in-process hub or a loopback TCP mesh.
//! * **Launcher** (`--ranks M`): spawn `M` OS processes (one rank each),
//!   supervise them, and let rank 0 print the merged results. Only rank 0
//!   reads the input; every other rank receives its partition over the
//!   bootstrap connection.
//! * **Rank** (`--rank N --ranks M --coordinator HOST:PORT`): one rank of
//!   a multi-process cluster, normally spawned by the launcher but usable
//!   by hand (or across hosts with a reachable coordinator address).
//!
//! Run `pcgraph --help` for the full flag reference. Exit codes: 0
//! success, 1 runtime error (including `--verify` mismatches), 2 usage,
//! 3 bootstrap/transport failure.

use pc_bsp::{
    CkptPolicy, Config, ExecMode, MirrorPlan, RunStats, Tcp, TcpOptions, Topology, TransportError,
    TransportKind,
};
use pc_ckpt::{Advertisement, RunId, Store};
use pc_dist::bootstrap::{
    decode_ctrl, encode_ctrl, BootstrapOptions, Coordinator, CtrlState, Follower, TAG_CTRL,
    TAG_PLAN,
};
use pc_dist::launch::{
    self, pick_rendezvous_addr, LaunchSpec, EXIT_BOOTSTRAP, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE,
};
use pc_dist::{ship, Backoff};
use pc_graph::{io, partition, stats, Graph, WeightedGraph};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `--mirror-threshold`: an explicit τ or the degree-aware heuristic
/// ([`partition::default_mirror_threshold`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum MirrorArg {
    Auto,
    Fixed(usize),
}

/// `--standby`: which rank replicates the control plane and takes over
/// if the acting coordinator dies. `auto` (the default when failover is
/// armed) picks the lowest-ranked follower.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StandbyArg {
    Auto,
    Fixed(usize),
}

#[derive(Debug, Clone)]
struct Opts {
    algorithm: String,
    input: Option<PathBuf>,
    gen: Option<String>,
    scale: u32,
    workers: usize,
    transport: TransportKind,
    variant: String,
    iters: u64,
    src: u32,
    k: u32,
    directed: bool,
    partition: bool,
    /// Vertex placement strategy (`--partitioner`); `--partition` is the
    /// historical alias for `ldg`. `None` means hash/random placement.
    partitioner: Option<String>,
    /// Mirror hubs with out-degree ≥ τ (`--mirror-threshold`); builds and
    /// ships a [`MirrorPlan`] so every rank pre-wires its Mirror channel.
    mirror_threshold: Option<MirrorArg>,
    /// Total ranks of a multi-process run (launcher or rank mode).
    ranks: Option<usize>,
    /// This process's rank (rank mode only; the launcher spawns these).
    rank: Option<usize>,
    /// Rendezvous address rank 0 listens on.
    coordinator: Option<SocketAddr>,
    /// After a distributed run, rank 0 re-runs the sequential engine on
    /// the full graph and fails (exit 1) unless values and stats match.
    verify: bool,
    /// Explicit spin budget: the in-process barrier and the threaded TCP
    /// mesh's readiness loop (single process only).
    spin_budget: Option<u32>,
    /// Checkpoint cadence in supersteps (requires `--checkpoint-dir`).
    checkpoint_every: Option<u64>,
    /// Checkpoint directory; with `--ranks`, also enables rank-failure
    /// recovery (launcher respawns dead non-zero ranks, the cluster
    /// resumes from the last committed checkpoint).
    checkpoint_dir: Option<PathBuf>,
    /// Standby-coordinator designation (`--standby N|auto`); only
    /// meaningful when coordinator failover is armed (checkpointing on a
    /// multi-rank run).
    standby: Option<StandbyArg>,
    /// Interface address the data-plane listeners bind (rank mode);
    /// default loopback. First step toward multi-host deployments.
    bind: Option<IpAddr>,
    /// Record per-rank span timelines and export Chrome trace-event JSON
    /// here (Single / rank 0 writes; followers record and ship streams).
    trace: Option<PathBuf>,
    /// Print the merged per-superstep summary table to stderr. Enables
    /// tracing like `--trace` does, with or without an export file.
    superstep_table: bool,
    /// Dump the final merged `RunStats` as JSON. Does NOT enable tracing
    /// by itself — the timeline array is empty unless `--trace` or
    /// `--superstep-table` also rides along.
    stats_json: Option<PathBuf>,
}

impl Opts {
    /// The effective partitioner after alias normalization in
    /// `parse_args` (`--partition` ⇒ `ldg`; default `hash`).
    fn partitioner_name(&self) -> &str {
        self.partitioner.as_deref().unwrap_or("hash")
    }

    /// Whether the engine should record spans and per-superstep rows.
    /// `--stats-json` alone does not count: a stats dump without tracing
    /// is free, and asking for it must not perturb the run.
    fn tracing_enabled(&self) -> bool {
        self.trace.is_some() || self.superstep_table
    }
}

const HELP: &str = "\
pcgraph — channel-composed vertex-centric graph processing

USAGE:
    pcgraph <ALGORITHM> [OPTIONS]

ALGORITHMS:
    pagerank | wcc | sv | scc | sssp | bfs | kcore | msf | stats

INPUT (rank 0 / single process only):
    --input FILE      whitespace edge list (src dst [weight]); '#'/'%' comments
    --gen NAME        synthetic dataset: wikipedia|webuk|facebook|twitter|road
    --scale N         generator scale, vertices = 2^N            [default 13]
    --directed        treat the input file as directed

EXECUTION:
    --workers N       simulated workers (single process)         [default 4]
    --transport NAME  exchange backend: in-process|tcp (tcp = loopback
                      socket mesh, non-blocking pipelined sends with frame
                      coalescing; tcp-batched is an alias). --ranks always
                      runs that mesh between processes           [default in-process]
    --partitioner P   vertex placement: hash|ldg|ldg-deg|bfs     [default hash]
                      (ldg-deg streams vertices in descending-degree order so
                      hubs are placed first — the skew-resistant choice)
    --partition       alias for --partitioner ldg (kept for compatibility)
    --mirror-threshold T  mirror vertices with out-degree ≥ T across ranks:
                      a hub's broadcast becomes one message per rank instead
                      of one per edge. T is a number or 'auto' (degree-aware
                      heuristic, ≥ 16). Builds a mirror plan at ship time and
                      pre-wires every rank's Mirror channel from it
    --spin-budget N   spin iterations before yielding: the in-process
                      barrier, and the tcp mesh's readiness loop (single
                      process only; not forwarded to --ranks)    [default adaptive]

MULTI-PROCESS:
    --ranks M         launcher mode: run M OS processes (one worker each);
                      rank 0 loads the graph and ships every other rank its
                      partition — no other process touches the input
    --rank N          rank mode: be rank N of an M-rank cluster (requires
                      --ranks and --coordinator; normally set by the launcher)
    --coordinator A   rendezvous address rank 0 listens on (HOST:PORT)
    --bind IP         interface the data-plane listeners bind (rank mode;
                      default 127.0.0.1) — use a routable address to spread
                      ranks across hosts
    --verify          after the distributed run, rank 0 re-runs the
                      sequential engine and fails on any mismatch

FAULT TOLERANCE:
    --checkpoint-every N   snapshot every rank's state after every N-th
                      superstep (atomic per-rank segments, committed by a
                      rank-0 manifest — a checkpoint is complete or invisible)
    --checkpoint-dir PATH  where checkpoints live (required with
                      --checkpoint-every). With --ranks this also arms
                      recovery: a SIGKILL'd non-zero rank is respawned, the
                      surviving ranks re-rendezvous, and the job resumes from
                      the last committed checkpoint. With 2+ ranks it also
                      arms coordinator failover: a standby rank replicates
                      the control plane and takes over if rank 0 dies
    --standby R       which rank is the standby coordinator: a rank number
                      or 'auto' (lowest-ranked follower)       [default auto]

OBSERVABILITY:
    --trace FILE      trace every rank (span timelines + per-superstep
                      counters) and write Chrome trace-event JSON — load
                      it in Perfetto (ui.perfetto.dev) or chrome://tracing;
                      one track per rank
    --superstep-table print the merged per-superstep summary (active
                      vertices, messages, remote bytes, stall µs, pool
                      misses, compute/exchange µs) to stderr; enables
                      tracing like --trace
    --stats-json FILE dump the final merged RunStats as JSON (includes the
                      per-superstep timeline when tracing is on; does not
                      enable tracing by itself)

ALGORITHM PARAMETERS:
    --variant NAME    basic|scatter|reqresp|both|prop|mirror|blogel [default: best]
    --iters N         PageRank iterations                        [default 30]
    --src N           SSSP/BFS source vertex                     [default 0]
    --k N             k-core parameter                           [default 2]

ENVIRONMENT:
    PC_DIST_CONNECT_TIMEOUT_MS   rendezvous/mesh connect deadline [10000]
    PC_DIST_JOIN_TIMEOUT_MS      launcher whole-run deadline      [600000]
    PC_DIST_MAX_RESPAWNS         per-rank respawn budget when
                                 checkpointing is enabled         [3]

EXIT CODES:
    0 success   1 runtime error / verify mismatch   2 usage   3 bootstrap failure
";

fn usage_error(msg: &str) -> ! {
    eprintln!("pcgraph: {msg}");
    eprintln!("run 'pcgraph --help' for usage");
    exit(EXIT_USAGE)
}

fn parse_args() -> Opts {
    let mut args = std::env::args().skip(1).peekable();
    let algorithm = match args.next() {
        Some(a) if a == "--help" || a == "-h" => {
            print!("{HELP}");
            exit(EXIT_OK)
        }
        Some(a) if a.starts_with('-') => usage_error(&format!("expected an algorithm, got '{a}'")),
        Some(a) => a,
        None => usage_error("no algorithm given"),
    };
    let mut opts = Opts {
        algorithm,
        input: None,
        gen: None,
        scale: 13,
        workers: 4,
        transport: TransportKind::InProcess,
        variant: String::new(),
        iters: 30,
        src: 0,
        k: 2,
        directed: false,
        partition: false,
        partitioner: None,
        mirror_threshold: None,
        ranks: None,
        rank: None,
        coordinator: None,
        verify: false,
        spin_budget: None,
        checkpoint_every: None,
        checkpoint_dir: None,
        standby: None,
        bind: None,
        trace: None,
        superstep_table: false,
        stats_json: None,
    };
    fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
        args.next()
            .unwrap_or_else(|| usage_error(&format!("flag {flag} needs a value")))
    }
    fn number<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
        let v = value(args, flag);
        v.parse()
            .unwrap_or_else(|_| usage_error(&format!("flag {flag} expects a number, got '{v}'")))
    }
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--help" | "-h" => {
                print!("{HELP}");
                exit(EXIT_OK)
            }
            "--input" => opts.input = Some(PathBuf::from(value(&mut args, "--input"))),
            "--gen" => opts.gen = Some(value(&mut args, "--gen")),
            "--scale" => opts.scale = number(&mut args, "--scale"),
            "--workers" => opts.workers = number(&mut args, "--workers"),
            "--transport" => {
                let v = value(&mut args, "--transport");
                opts.transport = v.parse().unwrap_or_else(|e: String| usage_error(&e));
            }
            "--variant" => opts.variant = value(&mut args, "--variant"),
            "--iters" => opts.iters = number(&mut args, "--iters"),
            "--src" => opts.src = number(&mut args, "--src"),
            "--k" => opts.k = number(&mut args, "--k"),
            "--directed" => opts.directed = true,
            "--partition" => opts.partition = true,
            "--partitioner" => {
                let v = value(&mut args, "--partitioner");
                match v.as_str() {
                    "hash" | "ldg" | "ldg-deg" | "bfs" => opts.partitioner = Some(v),
                    other => usage_error(&format!(
                        "--partitioner expects hash|ldg|ldg-deg|bfs, got '{other}'"
                    )),
                }
            }
            "--mirror-threshold" => {
                let v = value(&mut args, "--mirror-threshold");
                opts.mirror_threshold = Some(if v == "auto" {
                    MirrorArg::Auto
                } else {
                    match v.parse() {
                        Ok(0) => usage_error("--mirror-threshold must be at least 1"),
                        Ok(t) => MirrorArg::Fixed(t),
                        Err(_) => usage_error(&format!(
                            "--mirror-threshold expects a number or 'auto', got '{v}'"
                        )),
                    }
                });
            }
            "--ranks" => opts.ranks = Some(number(&mut args, "--ranks")),
            "--rank" => opts.rank = Some(number(&mut args, "--rank")),
            "--coordinator" => {
                let v = value(&mut args, "--coordinator");
                opts.coordinator = Some(v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--coordinator expects HOST:PORT, got '{v}'"))
                }));
            }
            "--verify" => opts.verify = true,
            "--spin-budget" => opts.spin_budget = Some(number(&mut args, "--spin-budget")),
            "--checkpoint-every" => {
                opts.checkpoint_every = Some(number(&mut args, "--checkpoint-every"))
            }
            "--checkpoint-dir" => {
                opts.checkpoint_dir = Some(PathBuf::from(value(&mut args, "--checkpoint-dir")))
            }
            "--standby" => {
                let v = value(&mut args, "--standby");
                opts.standby = Some(if v == "auto" {
                    StandbyArg::Auto
                } else {
                    match v.parse() {
                        Ok(0) => usage_error(
                            "--standby 0 is meaningless: rank 0 is the initial coordinator",
                        ),
                        Ok(r) => StandbyArg::Fixed(r),
                        Err(_) => usage_error(&format!(
                            "--standby expects a rank number or 'auto', got '{v}'"
                        )),
                    }
                });
            }
            "--trace" => opts.trace = Some(PathBuf::from(value(&mut args, "--trace"))),
            "--superstep-table" => opts.superstep_table = true,
            "--stats-json" => {
                opts.stats_json = Some(PathBuf::from(value(&mut args, "--stats-json")))
            }
            "--bind" => {
                let v = value(&mut args, "--bind");
                opts.bind = Some(v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--bind expects an IP address, got '{v}'"))
                }));
            }
            other if other.starts_with('-') => usage_error(&format!("unknown flag '{other}'")),
            other => usage_error(&format!("unexpected argument '{other}'")),
        }
    }
    // Cross-flag validation.
    if opts.partition {
        // Normalize the historical alias so everything downstream asks
        // `partitioner_name()` only.
        match opts.partitioner.as_deref() {
            None => opts.partitioner = Some("ldg".to_string()),
            Some("ldg") => {}
            Some(p) => usage_error(&format!(
                "--partition is an alias for --partitioner ldg and contradicts --partitioner {p}"
            )),
        }
    }
    if let Some(ranks) = opts.ranks {
        if ranks == 0 {
            usage_error("--ranks must be at least 1");
        }
        if let Some(rank) = opts.rank {
            if rank >= ranks {
                usage_error(&format!("--rank {rank} out of range 0..{ranks}"));
            }
            if opts.coordinator.is_none() {
                usage_error("--rank requires --coordinator");
            }
        }
    } else if opts.rank.is_some() {
        usage_error("--rank requires --ranks");
    } else {
        // Flags that only mean something in a multi-process run must not
        // be silently ignored.
        if opts.verify {
            usage_error("--verify compares a multi-process run against the sequential engine; it requires --ranks");
        }
        if opts.coordinator.is_some() {
            usage_error("--coordinator requires --ranks (and --rank for rank mode)");
        }
        if opts.bind.is_some() {
            usage_error(
                "--bind configures multi-process data-plane listeners; it requires --ranks",
            );
        }
    }
    if opts.workers == 0 {
        usage_error("--workers must be at least 1");
    }
    match (&opts.checkpoint_every, &opts.checkpoint_dir) {
        (Some(0), _) => usage_error("--checkpoint-every must be at least 1"),
        (Some(_), None) => usage_error("--checkpoint-every requires --checkpoint-dir"),
        (None, Some(_)) => usage_error("--checkpoint-dir requires --checkpoint-every"),
        (Some(_), Some(_)) if opts.variant == "blogel" => usage_error(
            "--variant blogel runs on the Pregel baseline engine, which has no checkpoint support",
        ),
        _ => {}
    }
    if let Some(standby) = opts.standby {
        if opts.checkpoint_every.is_none() {
            usage_error(
                "--standby configures coordinator failover, which needs checkpoints to \
                 resume from; add --checkpoint-every/--checkpoint-dir",
            );
        }
        match (standby, opts.ranks) {
            (_, None) => usage_error(
                "--standby designates a rank of a multi-process run; it requires --ranks",
            ),
            (StandbyArg::Fixed(r), Some(ranks)) if r >= ranks => {
                usage_error(&format!("--standby {r} out of range 1..{ranks}"))
            }
            _ => {}
        }
    }
    // Observability flags only mean something on an engine run that
    // produces RunStats; silently ignoring them would be worse than
    // refusing.
    if opts.tracing_enabled() || opts.stats_json.is_some() {
        if opts.algorithm == "stats" {
            usage_error("'stats' prints static graph properties; --trace/--superstep-table/--stats-json need an algorithm run");
        }
        if opts.tracing_enabled() && opts.variant == "blogel" {
            usage_error(
                "--variant blogel runs on the Pregel baseline engine, which has no trace support",
            );
        }
    }
    if let Some(ip) = opts.bind {
        if ip.is_unspecified() {
            usage_error(
                "--bind needs a concrete interface address (peers must be able to dial it); \
                 0.0.0.0/:: is not routable",
            );
        }
    }
    opts
}

/// The engine-facing checkpoint policy, when both flags are present.
fn ckpt_policy(opts: &Opts) -> Option<CkptPolicy> {
    match (&opts.checkpoint_every, &opts.checkpoint_dir) {
        (Some(every), Some(dir)) => Some(CkptPolicy {
            every: *every,
            dir: dir.clone(),
        }),
        _ => None,
    }
}

/// Whether coordinator failover is armed: checkpointing (the state a
/// takeover resumes from) on a run with at least one follower to elect.
fn failover_armed(opts: &Opts) -> bool {
    ckpt_policy(opts).is_some() && opts.ranks.is_some_and(|r| r >= 2)
}

/// Identity pinning the control-plane replica to this job. Unlike the
/// engine's checkpoint `RunId` (keyed on the algorithm *type*), this one
/// is keyed on the command line — every rank can derive it from its own
/// argv plus the shipped vertex count, with no engine types in sight.
fn replica_run_id(opts: &Opts, ranks: usize, n: usize) -> RunId {
    RunId {
        workers: ranks as u32,
        n: n as u64,
        algo: format!("ctrl/{}/{}", opts.algorithm, opts.variant),
    }
}

/// The standby for the epoch an acting coordinator is about to publish:
/// the `--standby` designation when it names someone else, otherwise the
/// lowest rank that is not the acting coordinator (rank 1 at bootstrap;
/// rank 0 itself once a takeover made it a plain follower).
fn pick_standby(opts: &Opts, acting: usize, ranks: usize) -> u32 {
    let fixed = match opts.standby {
        Some(StandbyArg::Fixed(r)) if r != acting => Some(r),
        _ => None,
    };
    fixed.unwrap_or_else(|| (0..ranks).find(|&r| r != acting).expect("ranks >= 2")) as u32
}

/// Open the checkpoint store that carries the control replica and the
/// coordinator advertisement.
fn ctrl_store(opts: &Opts) -> Store {
    let dir = opts
        .checkpoint_dir
        .as_ref()
        .expect("failover is armed, so --checkpoint-dir is set");
    Store::open(dir).unwrap_or_else(|e| {
        eprintln!("pcgraph: cannot open checkpoint store: {e}");
        exit(EXIT_RUNTIME)
    })
}

/// Publish this epoch's control-plane state: pick the standby, persist
/// the replica and the coordinator advertisement (tmp→fsync→rename, so
/// a torn publish leaves the previous epoch intact), and ship a `CTRL`
/// frame to every follower — plans ride only on the standby's frame.
/// Failures to persist are fatal (like checkpoint I/O); a dead control
/// link is tolerated (the next recovery epoch repairs it).
fn publish_ctrl(
    coordinator: &mut Coordinator,
    store: &Store,
    id: &RunId,
    plans: &[Vec<u8>],
    opts: &Opts,
) -> u32 {
    let acting = coordinator.acting_rank();
    let ranks = coordinator.ranks();
    let epoch = coordinator.epoch();
    let standby = pick_standby(opts, acting, ranks);
    store
        .write_replica(id, epoch, standby, plans)
        .unwrap_or_else(|e| {
            eprintln!("pcgraph: cannot persist control replica: {e}");
            exit(EXIT_RUNTIME)
        });
    let addr = coordinator
        .control_addr()
        .unwrap_or_else(|e| bail_bootstrap(e));
    store
        .advertise(&Advertisement {
            epoch,
            acting: acting as u32,
            addr: addr.to_string(),
        })
        .unwrap_or_else(|e| {
            eprintln!("pcgraph: cannot publish coordinator advertisement: {e}");
            exit(EXIT_RUNTIME)
        });
    for rank in (0..ranks).filter(|&r| r != acting) {
        let frame = encode_ctrl(epoch, standby, (rank as u32 == standby).then_some(plans));
        if let Err(e) = coordinator.send(rank, TAG_CTRL, &frame) {
            eprintln!(
                "pcgraph: rank {acting}: cannot ship CTRL to rank {rank} ({e}); \
                 deferring to the next recovery epoch"
            );
        }
    }
    standby
}

/// Per-rank respawn budget of the supervising launcher when
/// checkpointing (and with it recovery) is armed.
fn respawn_budget() -> u32 {
    match std::env::var("PC_DIST_MAX_RESPAWNS") {
        Err(_) => 3,
        Ok(v) => v.parse().unwrap_or_else(|_| {
            usage_error(&format!("PC_DIST_MAX_RESPAWNS expects a number, got '{v}'"))
        }),
    }
}

fn env_ms(name: &str, default_ms: u64) -> Duration {
    match std::env::var(name) {
        Err(_) => Duration::from_millis(default_ms),
        Ok(v) => match v.parse() {
            Ok(ms) => Duration::from_millis(ms),
            // A set-but-unparsable deadline must not silently become the
            // default — that is how a wedged cluster outlives its CI job.
            Err(_) => usage_error(&format!("{name} expects milliseconds, got '{v}'")),
        },
    }
}

fn bootstrap_options(tolerate_lost: bool) -> BootstrapOptions {
    BootstrapOptions {
        connect_timeout: env_ms("PC_DIST_CONNECT_TIMEOUT_MS", 10_000),
        tolerate_lost,
        ..BootstrapOptions::default()
    }
}

/// Mesh options for a rank's data plane. `--transport` does not apply:
/// across processes the data plane is always the socket mesh.
fn tcp_options() -> TcpOptions {
    TcpOptions {
        connect_timeout: env_ms("PC_DIST_CONNECT_TIMEOUT_MS", 10_000),
        ..TcpOptions::default()
    }
}

// ---------------------------------------------------------------------
// Graph loading and partition shipping
// ---------------------------------------------------------------------

/// What kind of graph data an algorithm walks.
#[derive(Debug, Clone, Copy)]
struct Need {
    weighted: bool,
    directed: bool,
    /// Also needs the transposed graph (SCC).
    rev: bool,
}

fn need_of(algorithm: &str) -> Need {
    match algorithm {
        "pagerank" | "bfs" => Need {
            weighted: false,
            directed: true,
            rev: false,
        },
        "scc" => Need {
            weighted: false,
            directed: true,
            rev: true,
        },
        "sssp" | "msf" => Need {
            weighted: true,
            directed: false,
            rev: false,
        },
        // wcc | sv | kcore (and anything undirected).
        _ => Need {
            weighted: false,
            directed: false,
            rev: false,
        },
    }
}

/// The graph data an algorithm runs on — full graphs in single-process
/// mode, shipped row slices in rank mode.
#[derive(Debug)]
enum Gdata {
    U {
        g: Arc<Graph>,
        rev: Option<Arc<Graph>>,
    },
    W(Arc<WeightedGraph>),
}

impl Gdata {
    fn unweighted(&self) -> &Arc<Graph> {
        match self {
            Gdata::U { g, .. } => g,
            Gdata::W(_) => unreachable!("algorithm asked for an unweighted graph"),
        }
    }
    fn rev(&self) -> &Arc<Graph> {
        match self {
            Gdata::U { rev: Some(r), .. } => r,
            _ => unreachable!("algorithm asked for a reverse graph that was not prepared"),
        }
    }
    fn weighted(&self) -> &Arc<WeightedGraph> {
        match self {
            Gdata::W(g) => g,
            Gdata::U { .. } => unreachable!("algorithm asked for a weighted graph"),
        }
    }
    fn n(&self) -> usize {
        match self {
            Gdata::U { g, .. } => g.n(),
            Gdata::W(g) => g.n(),
        }
    }
}

/// Read `--input` and report the load on stderr (stdout is the result).
fn read_input<W: io::WeightColumn>(path: &Path, directed: bool) -> Arc<Graph<W>> {
    let t0 = Instant::now();
    let (g, load) = io::read_edges(path, directed, 0).unwrap_or_else(|e| {
        eprintln!("pcgraph: cannot read {}: {e}", path.display());
        exit(EXIT_RUNTIME)
    });
    eprintln!(
        "load: {} lines, {} vertices, {} arcs in {} ms ({} ranges)",
        load.lines,
        g.n(),
        g.arc_count(),
        t0.elapsed().as_millis(),
        load.ranges
    );
    Arc::new(g)
}

fn load_unweighted(opts: &Opts, want_directed: bool) -> Arc<Graph> {
    if let Some(path) = &opts.input {
        return read_input(path, opts.directed && want_directed);
    }
    let name = opts.gen.as_deref().unwrap_or("wikipedia");
    use pc_graph::gen::*;
    let g = match name {
        "wikipedia" => rmat(opts.scale, 9 << opts.scale, RmatParams::default(), 1, true),
        "webuk" => rmat(opts.scale, 24 << opts.scale, RmatParams::default(), 2, true),
        "facebook" => rmat(
            opts.scale,
            (3 << opts.scale) / 2,
            RmatParams::default(),
            3,
            false,
        ),
        "twitter" => rmat(
            opts.scale,
            32 << opts.scale,
            RmatParams::default(),
            4,
            false,
        ),
        "road" => {
            let side = 1usize << (opts.scale / 2);
            grid2d((1usize << opts.scale) / side, side, 0.05, 6)
        }
        other => usage_error(&format!("unknown dataset '{other}'")),
    };
    let g = if want_directed { g } else { g.symmetrized() };
    Arc::new(g)
}

fn load_weighted(opts: &Opts) -> Arc<WeightedGraph> {
    if let Some(path) = &opts.input {
        return read_input(path, opts.directed);
    }
    use pc_graph::gen::*;
    Arc::new(rmat_weighted(
        opts.scale,
        8 << opts.scale,
        RmatParams::default(),
        7,
        false,
        1000,
    ))
}

/// Load the full graph(s) the algorithm needs (rank 0 / single process).
fn load(opts: &Opts, need: Need) -> Gdata {
    if need.weighted {
        Gdata::W(load_weighted(opts))
    } else {
        let g = load_unweighted(opts, need.directed);
        let rev = need.rev.then(|| Arc::new(g.reverse()));
        Gdata::U { g, rev }
    }
}

/// Partition one graph with the selected streaming partitioner and
/// report the edge-cut; the placement comes back with its cut.
fn stream_owners<W: Copy>(g: &Graph<W>, parts: usize, name: &str) -> (Vec<u16>, (usize, usize)) {
    let owners = match name {
        "ldg" => partition::ldg(g, parts, 2),
        "ldg-deg" => partition::ldg_deg(g, parts, 2),
        "bfs" => partition::bfs_blocks(g, parts),
        _ => unreachable!("validated in parse_args"),
    };
    let (cut, total) = partition::edge_cut(g, &owners);
    eprintln!(
        "{name} partition: edge-cut {:.1}%",
        100.0 * cut as f64 / total.max(1) as f64
    );
    (owners, (cut, total))
}

/// Owner table for a `parts`-way split of `data` (streaming partitioner
/// or random placement), with its edge cut when the partitioner already
/// walked every arc for it.
fn owners_for(data: &Gdata, opts: &Opts, parts: usize) -> (Vec<u16>, Option<(usize, usize)>) {
    let name = opts.partitioner_name();
    if name == "hash" {
        return (partition::random_owners(data.n(), parts), None);
    }
    let (owners, cut) = match data {
        Gdata::U { g, .. } => stream_owners(g.as_ref(), parts, name),
        Gdata::W(g) => stream_owners(g.as_ref(), parts, name),
    };
    (owners, Some(cut))
}

/// The effective mirroring threshold τ, when `--mirror-threshold` was
/// given. `auto` resolves through the degree-aware heuristic — on the
/// **full** graph only (rank 0 / single process); followers take τ from
/// the shipped plan instead.
fn resolved_threshold(data: &Gdata, opts: &Opts) -> Option<usize> {
    opts.mirror_threshold.map(|m| match m {
        MirrorArg::Fixed(t) => t,
        MirrorArg::Auto => match data {
            Gdata::U { g, .. } => partition::default_mirror_threshold(g.as_ref()),
            Gdata::W(g) => partition::default_mirror_threshold(g.as_ref()),
        },
    })
}

/// Build the mirror plan for `data` over `topo` and attach it — and
/// print the partition/replication report while we have everything in
/// hand, over `cut` when the placement's edge cut is already known.
/// No-op unless `--mirror-threshold` was given.
fn attach_mirror(
    data: &Gdata,
    opts: &Opts,
    topo: Topology,
    cut: Option<(usize, usize)>,
) -> Topology {
    let Some(threshold) = resolved_threshold(data, opts) else {
        return topo;
    };
    let parts = topo.workers();
    let owner: Vec<u16> = (0..topo.n() as u32)
        .map(|v| topo.worker_of(v) as u16)
        .collect();
    let plan = mirror_plan(data, &topo, threshold);
    let cut = cut.unwrap_or_else(|| match data {
        Gdata::U { g, .. } => partition::edge_cut(g.as_ref(), &owner),
        Gdata::W(g) => partition::edge_cut(g.as_ref(), &owner),
    });
    eprintln!(
        "{}",
        partition::partition_report(&owner, parts, cut, Some(&plan))
    );
    topo.with_mirror(Arc::new(plan))
}

/// Every worker's mirror/ghost tables for the full graph in `data`.
fn mirror_plan(data: &Gdata, topo: &Topology, threshold: usize) -> MirrorPlan {
    match data {
        Gdata::U { g, .. } => partition::build_mirror_plan(g.as_ref(), topo, threshold),
        Gdata::W(g) => partition::build_mirror_plan(g.as_ref(), topo, threshold),
    }
}

/// The row slices `rank` needs, copied out of the full graph(s).
fn slices_for(data: &Gdata, topo: &Topology, rank: usize) -> Gdata {
    match data {
        Gdata::U { g, rev } => Gdata::U {
            g: Arc::new(ship::slice_for_rank(g, topo, rank)),
            rev: rev
                .as_ref()
                .map(|r| Arc::new(ship::slice_for_rank(r, topo, rank))),
        },
        Gdata::W(g) => Gdata::W(Arc::new(ship::slice_for_rank(g, topo, rank))),
    }
}

/// [`slices_for`] compacted inside the full graph(s) instead, for a caller
/// that is done with them.
fn into_slices(data: Gdata, topo: &Topology, rank: usize) -> Gdata {
    fn own<W: Copy + Default>(g: Arc<Graph<W>>, topo: &Topology, rank: usize) -> Arc<Graph<W>> {
        Arc::new(Arc::unwrap_or_clone(g).into_restricted(|v| topo.worker_of(v) == rank))
    }
    match data {
        Gdata::U { g, rev } => Gdata::U {
            g: own(g, topo, rank),
            rev: rev.map(|r| own(r, topo, rank)),
        },
        Gdata::W(g) => Gdata::W(own(g, topo, rank)),
    }
}

/// Rank `rank`'s `PLAN` frame, encoded straight from the full graph(s):
/// its rows, and its own targets of the mirror plan.
fn encode_plan(owner: &[u16], full: &Gdata, mirror: Option<&MirrorPlan>, rank: usize) -> Vec<u8> {
    match full {
        Gdata::U { g, rev: None } => ship::encode_rank_plan(owner, &[g.as_ref()], mirror, rank),
        Gdata::U { g, rev: Some(r) } => {
            ship::encode_rank_plan(owner, &[g.as_ref(), r.as_ref()], mirror, rank)
        }
        Gdata::W(g) => ship::encode_rank_plan(owner, &[g.as_ref()], mirror, rank),
    }
}

fn decode_plan(
    payload: &[u8],
    need: Need,
) -> Result<(Vec<u16>, Gdata, Option<MirrorPlan>), String> {
    if need.weighted {
        let (owner, mut graphs, mirror) = ship::decode_plan::<u32>(payload)?;
        if graphs.len() != 1 {
            return Err(format!("expected 1 graph slice, got {}", graphs.len()));
        }
        Ok((owner, Gdata::W(Arc::new(graphs.remove(0))), mirror))
    } else {
        let (owner, graphs, mirror) = ship::decode_plan::<()>(payload)?;
        let expected = if need.rev { 2 } else { 1 };
        if graphs.len() != expected {
            return Err(format!(
                "expected {expected} graph slice(s), got {}",
                graphs.len()
            ));
        }
        let mut it = graphs.into_iter();
        let g = Arc::new(it.next().unwrap());
        let rev = it.next().map(Arc::new);
        Ok((owner, Gdata::U { g, rev }, mirror))
    }
}

/// Rebuild the full input graph from the replicated per-rank `PLAN`
/// frames — the `--verify` path of a takeover coordinator, which never
/// loaded the input. Each plan holds its rank's rows verbatim, so merging
/// them is bit-exact.
fn rebuild_full(plans: &[Vec<u8>], need: Need) -> Result<Gdata, String> {
    if need.weighted {
        let mut owner = Vec::new();
        let mut slices = Vec::new();
        for p in plans {
            let (o, mut graphs, _) = ship::decode_plan::<u32>(p)?;
            if graphs.len() != 1 {
                return Err(format!("expected 1 graph slice, got {}", graphs.len()));
            }
            owner = o;
            slices.push(graphs.remove(0));
        }
        return Ok(Gdata::W(Arc::new(ship::merge_slices(&owner, &slices)?)));
    }
    let mut owner = Vec::new();
    let (mut fwd, mut rev) = (Vec::new(), Vec::new());
    let expected = if need.rev { 2 } else { 1 };
    for p in plans {
        let (o, graphs, _) = ship::decode_plan::<()>(p)?;
        if graphs.len() != expected {
            return Err(format!(
                "expected {expected} graph slice(s), got {}",
                graphs.len()
            ));
        }
        let mut it = graphs.into_iter();
        fwd.push(it.next().unwrap());
        rev.extend(it.next());
        owner = o;
    }
    let g = Arc::new(ship::merge_slices(&owner, &fwd)?);
    let rev = if need.rev {
        Some(Arc::new(ship::merge_slices(&owner, &rev)?))
    } else {
        None
    };
    Ok(Gdata::U { g, rev })
}

// ---------------------------------------------------------------------
// Session preparation (single process / rank 0 / follower)
// ---------------------------------------------------------------------

enum Role {
    Single,
    /// The acting coordinator of a multi-process run — rank 0 at launch,
    /// or a standby that took over after rank 0's death. Keeps the full
    /// graph only when `--verify` will need it (a takeover coordinator
    /// reconstructs it from the replicated plans instead); the run itself
    /// uses this rank's slice.
    Rank0 {
        full: Option<Gdata>,
        /// Keeps the control links (and the rendezvous listener) open for
        /// the lifetime of the run; recovery runs through it.
        coordinator: Coordinator,
        /// Encoded `PLAN` frames per rank (index 0 empty unless failover
        /// is armed), kept only when recovery is armed so a respawned
        /// rank's partition can be re-shipped without reloading the
        /// input.
        plans: Option<Vec<Vec<u8>>>,
        /// Failover bookkeeping (armed runs): the store carrying the
        /// replica + advertisement, and the replica identity.
        failover: Option<(Store, RunId)>,
    },
    Follower {
        /// The control link to the coordinator, kept only when recovery
        /// is armed (a surviving rank re-joins over it).
        ctrl: Option<Follower>,
        /// The latest replicated control state (armed runs): the epoch,
        /// the designated standby, and — on the standby itself — every
        /// rank's plan.
        ctrl_state: Option<CtrlState>,
        /// Which rank is acting coordinator for the current epoch (0
        /// until a takeover; then whatever the advertisement named).
        acting: usize,
    },
}

struct Prepared {
    cfg: Config,
    topo: Arc<Topology>,
    data: Gdata,
    role: Role,
    /// Recovery epochs this rank has participated in, and the wall-clock
    /// µs they cost — merged into `RunStats` through the gather.
    recoveries: u64,
    recovery_us: u64,
}

fn bail_bootstrap(e: impl std::fmt::Display) -> ! {
    eprintln!("pcgraph: bootstrap failed: {e}");
    exit(EXIT_BOOTSTRAP)
}

/// Bind this rank's data-plane listener on the `--bind` interface
/// (loopback by default); peers will dial the resulting address from the
/// rebroadcast peer table.
fn bind_data_listener(opts: &Opts) -> (TcpListener, SocketAddr) {
    let ip = opts.bind.unwrap_or(IpAddr::V4(Ipv4Addr::LOCALHOST));
    let listener = TcpListener::bind((ip, 0))
        .unwrap_or_else(|e| bail_bootstrap(format!("bind data-plane listener on {ip}: {e}")));
    let addr = listener
        .local_addr()
        .unwrap_or_else(|e| bail_bootstrap(format!("data-plane local_addr: {e}")));
    (listener, addr)
}

/// The engine config for one rank over a fresh mesh.
fn rank_config(opts: &Opts, ranks: usize, rank: usize, tcp: Tcp) -> Config {
    Config {
        spin_budget: opts.spin_budget,
        ckpt: ckpt_policy(opts),
        trace: opts.tracing_enabled(),
        ..Config::rank(ranks, rank, Arc::new(tcp))
    }
}

fn prepare(opts: &Opts, need: Need) -> Prepared {
    let Some(rank) = opts.rank else {
        // Single-process shape (the original pcgraph).
        let data = load(opts, need);
        let (base, cut) = if opts.partitioner_name() == "hash" {
            (Topology::hashed(data.n(), opts.workers), None)
        } else {
            let (owners, cut) = owners_for(&data, opts, opts.workers);
            (Topology::from_owners(opts.workers, owners), cut)
        };
        let topo = Arc::new(attach_mirror(&data, opts, base, cut));
        let cfg = Config {
            transport: opts.transport,
            spin_budget: opts.spin_budget,
            ckpt: ckpt_policy(opts),
            trace: opts.tracing_enabled(),
            ..Config::with_workers(opts.workers)
        };
        return Prepared {
            cfg,
            topo,
            data,
            role: Role::Single,
            recoveries: 0,
            recovery_us: 0,
        };
    };
    // Rank mode: one worker per process over a real socket mesh.
    let ranks = opts.ranks.expect("validated in parse_args");
    let coordinator_addr = opts.coordinator.expect("validated in parse_args");
    if opts.variant == "blogel" {
        usage_error(
            "--variant blogel runs on the Pregel baseline engine, which has no multi-process mode",
        );
    }
    // Recovery needs the control plane (and on rank 0 the encoded plans)
    // to outlive the bootstrap.
    let recovery = ckpt_policy(opts).is_some();
    let armed = failover_armed(opts);
    let (listener, data_addr) = bind_data_listener(opts);
    let bopts = bootstrap_options(recovery);
    if rank != 0 {
        return prepare_follower(opts, need, ranks, rank, listener, data_addr, bopts);
    }
    // A prior rank-0 incarnation leaves its advertisement in the
    // checkpoint store (the launcher wipes the store only at job start),
    // so finding one means this process is a *respawn*: the standby is
    // taking over (or already has), and rank 0 rejoins the advertised
    // coordinator as a plain follower instead of rendezvousing anew.
    if armed && matches!(ctrl_store(opts).read_advertisement(), Ok(Some(_))) {
        eprintln!("pcgraph: rank 0: prior incarnation detected; rejoining as a follower");
        return prepare_follower(opts, need, ranks, 0, listener, data_addr, bopts);
    }
    // Rendezvous before loading: followers dial under the (short)
    // connect deadline, which must not also have to cover a long
    // graph load. Once joined, they wait for their plan under the
    // generous control-plane io deadline instead.
    let mut coordinator = Coordinator::rendezvous(coordinator_addr, ranks, data_addr, bopts)
        .unwrap_or_else(|e| bail_bootstrap(e));
    let full = load(opts, need);
    let (owner, cut) = owners_for(&full, opts, ranks);
    let topo = Arc::new(attach_mirror(
        &full,
        opts,
        Topology::from_owners(ranks, owner.clone()),
        cut,
    ));
    let mirror = topo.mirror_plan().map(Arc::as_ref);
    // Partition shipping: every follower gets the owner table plus
    // exactly its own rows (and, when a mirror plan was built, every
    // hub's id and peers with its own targets alone) — no other process
    // opens the input. With failover armed, rank 0's own plan is encoded
    // too: the replica must let a takeover coordinator re-ship a
    // respawned rank 0's slice (and reconstruct the full graph for
    // --verify) without ever seeing the input.
    let mut plans: Vec<Vec<u8>> = vec![Vec::new()];
    if armed {
        plans[0] = encode_plan(&owner, &full, mirror, 0);
    }
    for r in 1..ranks {
        let plan = encode_plan(&owner, &full, mirror, r);
        if let Err(e) = coordinator.send(r, TAG_PLAN, &plan) {
            if !recovery {
                bail_bootstrap(e);
            }
            // The rank died between joining and receiving its plan.
            // With recovery armed this is survivable: the launcher is
            // respawning it, the data plane will fault, and the
            // recovery rendezvous re-ships this cached plan.
            eprintln!(
                "pcgraph: rank 0: cannot ship plan to rank {r} ({e}); \
                 deferring to recovery"
            );
        }
        plans.push(if recovery { plan } else { Vec::new() });
    }
    // Failover: persist the control replica + advertisement and ship the
    // CTRL frames (the standby's carries every plan) before the run
    // starts, so rank 0's very first death is already survivable.
    let failover = armed.then(|| {
        let store = ctrl_store(opts);
        let id = replica_run_id(opts, ranks, topo.n());
        publish_ctrl(&mut coordinator, &store, &id, &plans, opts);
        (store, id)
    });
    // Rank 0 runs on its own rows: copied out when --verify will rerun the
    // job on the full graph, otherwise compacted in place inside it.
    let (data, full) = if opts.verify {
        (slices_for(&full, &topo, 0), Some(full))
    } else {
        (into_slices(full, &topo, 0), None)
    };
    let tcp = Tcp::mesh(0, coordinator.peers().to_vec(), listener, tcp_options())
        .unwrap_or_else(|e| bail_bootstrap(e));
    Prepared {
        cfg: rank_config(opts, ranks, 0, tcp),
        topo,
        data,
        role: Role::Rank0 {
            full,
            coordinator,
            plans: recovery.then_some(plans),
            failover,
        },
        recoveries: 0,
        recovery_us: 0,
    }
}

/// A follower's side of [`prepare`] — also the path a respawned rank 0
/// takes once a prior incarnation's advertisement shows this cluster
/// elects its coordinators. Resolves the live rendezvous address through
/// the advertisement when failover is armed (the `--coordinator` flag
/// names rank 0's listener, which dies with rank 0), joins, receives the
/// shipped plan (and the replicated control state when armed), and
/// builds this rank's mesh endpoint.
fn prepare_follower(
    opts: &Opts,
    need: Need,
    ranks: usize,
    rank: usize,
    listener: TcpListener,
    data_addr: SocketAddr,
    bopts: BootstrapOptions,
) -> Prepared {
    let recovery = ckpt_policy(opts).is_some();
    let armed = failover_armed(opts);
    // With recovery armed, a failed join retries under a jittered
    // backoff: a respawned rank may arrive while the cluster is still
    // detecting the failure it replaces, and the acting coordinator only
    // drains the rendezvous backlog once its own data plane faults. Each
    // retry is a fresh connection (and a fresh advertisement read, in
    // case the coordinator moved), so the coordinator always finds a
    // live socket.
    let deadline = Instant::now() + bopts.connect_timeout.max(bopts.io_timeout);
    let mut backoff = Backoff::for_connect(rank as u64);
    let mut attempt = 0u32;
    let (mut follower, acting) = loop {
        // Where does the acting coordinator listen? Rank 0 respawns must
        // never dial their own dead incarnation, so they wait for an
        // advertisement naming somebody else; other ranks fall back to
        // the flag-given address when nothing (newer) is advertised.
        let mut target = (rank != 0).then(|| {
            let addr = opts.coordinator.expect("validated in parse_args");
            (addr, 0usize)
        });
        if armed {
            if let Ok(Some(ad)) = ctrl_store(opts).read_advertisement() {
                if ad.acting as usize != rank {
                    if let Ok(addr) = ad.addr.parse::<SocketAddr>() {
                        target = Some((addr, ad.acting as usize));
                    }
                }
            }
        }
        if let Some((addr, acting)) = target {
            attempt += 1;
            match Follower::join(addr, rank, data_addr, bopts) {
                Ok(f) => break (f, acting),
                Err(e) if !recovery => bail_bootstrap(e),
                Err(e) => {
                    eprintln!("pcgraph: rank {rank}: join attempt {attempt} failed ({e}); retrying")
                }
            }
        }
        let now = Instant::now();
        if now >= deadline {
            bail_bootstrap(format!(
                "rank {rank}: no acting coordinator reachable before the deadline"
            ));
        }
        backoff.sleep(deadline - now);
    };
    let mut plan = Vec::new();
    let tag = follower
        .recv(&mut plan)
        .unwrap_or_else(|e| bail_bootstrap(e));
    if tag != TAG_PLAN {
        bail_bootstrap(format!("expected a PLAN frame, got tag {tag:#04x}"));
    }
    let (owner, data, mirror) =
        decode_plan(&plan, need).unwrap_or_else(|e| bail_bootstrap(format!("malformed plan: {e}")));
    // The coordinator follows every plan with the replicated control
    // state: the epoch, who the standby is, and — on the standby's own
    // frame — every rank's plan.
    let ctrl_state = armed.then(|| recv_ctrl(&mut follower));
    let mut base = Topology::from_owners(ranks, owner);
    if let Some(plan) = mirror {
        base = base.with_mirror(Arc::new(plan));
    }
    let topo = Arc::new(base);
    let tcp = Tcp::mesh(rank, follower.peers().to_vec(), listener, tcp_options())
        .unwrap_or_else(|e| bail_bootstrap(e));
    let mut cfg = rank_config(opts, ranks, rank, tcp);
    if let Some(d) = cfg.dist.as_mut() {
        d.gather_root = acting;
    }
    Prepared {
        cfg,
        topo,
        data,
        role: Role::Follower {
            ctrl: recovery.then_some(follower),
            ctrl_state,
            acting,
        },
        recoveries: 0,
        recovery_us: 0,
    }
}

/// Receive the `CTRL` frame the coordinator sends after a plan (or after
/// a recovery rendezvous) on an armed run; fatal on failure.
fn recv_ctrl(follower: &mut Follower) -> CtrlState {
    try_recv_ctrl(follower).unwrap_or_else(|e| bail_bootstrap(e))
}

/// [`recv_ctrl`] returning the failure instead — the recovery path turns
/// a lost CTRL frame into an election, not a process exit.
fn try_recv_ctrl(follower: &mut Follower) -> Result<CtrlState, TransportError> {
    let mut buf = Vec::new();
    match follower.recv(&mut buf) {
        Ok(TAG_CTRL) => decode_ctrl(&buf, 0),
        Ok(tag) => Err(TransportError::Protocol {
            peer: 0,
            detail: format!("expected a CTRL frame, got tag {tag:#04x}"),
        }),
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------
// Execution with rank-failure recovery
// ---------------------------------------------------------------------

/// Run the algorithm, and — when this is a rank of a checkpointing
/// multi-process job — survive data-plane failures: a panic whose typed
/// [`TransportError`] the mesh recorded tears the old mesh down, runs a
/// recovery rendezvous over the (still-open) control plane, rebuilds the
/// mesh, and re-enters the engine, which restores the last committed
/// checkpoint and resumes the superstep loop. Non-transport panics (and
/// anything past the attempt budget) propagate unchanged.
fn execute<V>(
    p: &mut Prepared,
    opts: &Opts,
    run: &impl Fn(&Gdata, &Arc<Topology>, &Config) -> (V, RunStats),
) -> (V, RunStats) {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    if p.cfg.dist.is_none() || p.cfg.ckpt.is_none() {
        return run(&p.data, &p.topo, &p.cfg);
    }
    let ranks = opts.ranks.expect("rank mode");
    // Every recovery epoch costs one attempt; the budget scales with the
    // cluster (each rank may be respawned up to the launcher's budget,
    // and every respawn implies one cluster-wide recovery epoch).
    let max_attempts = respawn_budget().saturating_mul(ranks as u32).max(1);
    let mut attempts = 0u32;
    loop {
        match catch_unwind(AssertUnwindSafe(|| run(&p.data, &p.topo, &p.cfg))) {
            Ok(out) => return out,
            Err(payload) => {
                let role = p.cfg.dist.clone().expect("checked above");
                let Some(fault) = role.transport.take_fault() else {
                    resume_unwind(payload); // not a transport failure
                };
                attempts += 1;
                if attempts > max_attempts {
                    eprintln!(
                        "pcgraph: rank {}: giving up after {max_attempts} recovery attempts",
                        role.rank
                    );
                    resume_unwind(payload);
                }
                eprintln!(
                    "pcgraph: rank {}: data-plane failure ({fault}); recovering \
                     (attempt {attempts}/{max_attempts})",
                    role.rank
                );
                // Drop every handle on the failed mesh first: closing its
                // sockets is what unblocks peers still waiting in it.
                p.cfg.dist = None;
                drop(role);
                let t0 = Instant::now();
                // A rendezvous that itself fails — the acting coordinator
                // died between re-shipping plans and the mesh completing,
                // or another rank fell over mid-epoch — is a fresh fault,
                // not a fatal exit: go around again so the election path
                // can still run. The shared attempt budget keeps a dead
                // cluster bounded.
                while let Err(e) = recover(p, opts, ranks) {
                    attempts += 1;
                    if attempts > max_attempts {
                        bail_bootstrap(format!("recovery rendezvous: {e}"));
                    }
                    eprintln!(
                        "pcgraph: rank {}: recovery rendezvous failed ({e}); retrying \
                         (attempt {attempts}/{max_attempts})",
                        opts.rank.expect("rank mode")
                    );
                }
                // Book the epoch on this rank's role record: the gather
                // sums both recoveries and repair time over ranks, so
                // each rank reports only its own share.
                p.recoveries += 1;
                p.recovery_us += t0.elapsed().as_micros() as u64;
                if let Some(d) = p.cfg.dist.as_mut() {
                    d.recoveries = p.recoveries;
                    d.recovery_us = p.recovery_us;
                }
            }
        }
    }
}

/// One recovery rendezvous: agree on a fresh peer table over the control
/// plane, re-ship plans to respawned ranks, rebuild this rank's mesh.
///
/// With failover armed, a control plane that is dead or dies
/// mid-rendezvous (the control link rides the acting coordinator's
/// process) escalates to an election instead: the standby takes over,
/// everyone else follows the new advertisement.
fn recover(p: &mut Prepared, opts: &Opts, ranks: usize) -> Result<(), TransportError> {
    let rank = opts.rank.expect("rank mode");
    let armed = failover_armed(opts);
    let (listener, data_addr) = bind_data_listener(opts);
    match &mut p.role {
        Role::Rank0 {
            coordinator,
            plans,
            failover,
            ..
        } => {
            let acting = coordinator.acting_rank();
            let needs_plan = coordinator.recover(data_addr)?;
            let plans = plans.as_ref().expect("recovery keeps the encoded plans");
            for (r, needs) in needs_plan.iter().enumerate() {
                if r == acting || !*needs {
                    continue;
                }
                if let Err(e) = coordinator.send(r, TAG_PLAN, &plans[r]) {
                    // The respawned rank died again before its plan went
                    // out (crash loop). Same policy as the initial
                    // bootstrap: don't fail the coordinator over it — the
                    // mesh will fault and the next recovery epoch retries.
                    eprintln!(
                        "pcgraph: rank {acting}: cannot re-ship plan to rank {r} ({e}); \
                         deferring to the next recovery epoch"
                    );
                }
            }
            // Refresh the replicated control state at the new epoch: the
            // standby may have been the casualty, and respawned ranks
            // hold no CTRL state at all yet.
            if let Some((store, id)) = failover {
                publish_ctrl(coordinator, store, id, plans, opts);
            }
            let tcp = Tcp::mesh(rank, coordinator.peers().to_vec(), listener, tcp_options())?;
            p.cfg = rank_config(opts, ranks, rank, tcp);
            if let Some(d) = p.cfg.dist.as_mut() {
                d.gather_root = acting;
            }
            return Ok(());
        }
        Role::Single => unreachable!("recovery only runs in rank mode"),
        Role::Follower {
            ctrl,
            ctrl_state,
            acting,
        } => {
            let follower = ctrl.as_mut().expect("recovery keeps the control link");
            // The control link lives in the acting coordinator's process:
            // a failed rejoin or a lost CTRL frame means the coordinator
            // is gone. A data-plane fault that names the acting rank does
            // not: a live coordinator that saw another rank die tears its
            // mesh down first, and whoever was waiting on it (everyone,
            // at the next exchange) sees that disconnect instead of the
            // dead rank's. The control link tells the two apart — it
            // fails at once when the coordinator's process is gone.
            let outcome = match follower.rejoin(data_addr) {
                // The coordinator follows every recovery PEERS with a
                // fresh CTRL frame.
                Ok(_epoch) if armed => match try_recv_ctrl(follower) {
                    Ok(state) => Ok(Some(state)),
                    Err(e) => Err(format!("control plane lost after rejoin ({e})")),
                },
                Ok(_epoch) => Ok(None),
                Err(e) if armed => Err(format!("control plane lost during recovery ({e})")),
                Err(e) => return Err(e),
            };
            match outcome {
                Ok(new_state) => {
                    if let Some(state) = new_state {
                        *ctrl_state = Some(state);
                    }
                    let tcp = Tcp::mesh(rank, follower.peers().to_vec(), listener, tcp_options())?;
                    p.cfg = rank_config(opts, ranks, rank, tcp);
                    if let Some(d) = p.cfg.dist.as_mut() {
                        d.gather_root = *acting;
                    }
                    return Ok(());
                }
                Err(why) => eprintln!("pcgraph: rank {rank}: {why}; electing a new coordinator"),
            }
        }
    }
    elect(p, opts, ranks, listener, data_addr)
}

/// Coordinator election after the acting coordinator died. No consensus
/// round is needed: every armed rank already agreed (via the last `CTRL`
/// frame) on who the standby is, so the standby simply takes over and
/// everyone else waits for its advertisement. Single-failure model: if
/// the standby died in the same breath, the poll deadline expires, this
/// rank exits with a typed bootstrap failure, and the launcher's respawn
/// budget decides whether the job survives.
fn elect(
    p: &mut Prepared,
    opts: &Opts,
    ranks: usize,
    listener: TcpListener,
    data_addr: SocketAddr,
) -> Result<(), TransportError> {
    let rank = opts.rank.expect("rank mode");
    let state = {
        let Role::Follower { ctrl_state, .. } = &p.role else {
            unreachable!("only followers elect");
        };
        ctrl_state
            .clone()
            .expect("armed runs always hold a CTRL state")
    };
    let store = ctrl_store(opts);
    let bopts = bootstrap_options(true);
    if state.standby as usize == rank {
        // --- Takeover: this rank is the standby. ---
        eprintln!(
            "pcgraph: rank {rank}: coordinator lost; standby taking over at epoch {}",
            state.epoch + 1
        );
        let id = replica_run_id(opts, ranks, p.topo.n());
        // The plans rode on this rank's own CTRL frame; fall back to the
        // persisted replica (e.g. the CTRL refresh after a recovery was
        // lost in the coordinator's death).
        let plans = state
            .plans
            .clone()
            .or_else(|| match store.read_replica(&id) {
                Ok(r) => r.map(|r| r.plans),
                Err(e) => {
                    eprintln!("pcgraph: rank {rank}: cannot read control replica: {e}");
                    None
                }
            })
            .unwrap_or_default();
        if plans.len() != ranks {
            bail_bootstrap(format!(
                "rank {rank}: control replica holds {} plans for {ranks} ranks; cannot take over",
                plans.len()
            ));
        }
        let bind_ip = opts.bind.unwrap_or(IpAddr::V4(Ipv4Addr::LOCALHOST));
        let mut coordinator =
            Coordinator::takeover((bind_ip, 0).into(), ranks, rank, state.epoch, bopts)?;
        // Advertise the fresh listener under the epoch the rendezvous
        // will establish BEFORE blocking in it: the advertisement is how
        // survivors (and the respawned ex-coordinator) find this rank.
        let addr = coordinator.control_addr()?;
        store
            .advertise(&Advertisement {
                epoch: state.epoch + 1,
                acting: rank as u32,
                addr: addr.to_string(),
            })
            .unwrap_or_else(|e| {
                eprintln!("pcgraph: cannot publish coordinator advertisement: {e}");
                exit(EXIT_RUNTIME)
            });
        let needs_plan = coordinator.recover(data_addr)?;
        for (r, needs) in needs_plan.iter().enumerate() {
            if r == rank || !*needs {
                continue;
            }
            if let Err(e) = coordinator.send(r, TAG_PLAN, &plans[r]) {
                eprintln!(
                    "pcgraph: rank {rank}: cannot re-ship plan to rank {r} ({e}); \
                     deferring to the next recovery epoch"
                );
            }
        }
        publish_ctrl(&mut coordinator, &store, &id, &plans, opts);
        let tcp = Tcp::mesh(rank, coordinator.peers().to_vec(), listener, tcp_options())?;
        p.cfg = rank_config(opts, ranks, rank, tcp);
        if let Some(d) = p.cfg.dist.as_mut() {
            d.gather_root = rank;
        }
        // `full` stays None: a takeover coordinator never loaded the
        // input — `conclude` reconstructs it from the plans on --verify.
        p.role = Role::Rank0 {
            full: None,
            coordinator,
            plans: Some(plans),
            failover: Some((store, id)),
        };
        return Ok(());
    }
    // --- Follow: wait for the standby's takeover advertisement. ---
    eprintln!(
        "pcgraph: rank {rank}: coordinator lost; waiting for standby rank {}",
        state.standby
    );
    let deadline = Instant::now() + bopts.connect_timeout.max(bopts.io_timeout);
    let mut backoff = Backoff::for_connect(rank as u64);
    let (mut follower, acting) = loop {
        if let Ok(Some(ad)) = store.read_advertisement() {
            // Only an advertisement *newer* than the state this rank
            // last saw counts — the dead coordinator's own is stale.
            if ad.epoch > state.epoch && ad.acting as usize != rank {
                if let Ok(addr) = ad.addr.parse::<SocketAddr>() {
                    // A survivor keeps its partition: join with the
                    // NEEDS_PLAN flag clear.
                    match Follower::join_with(addr, rank, data_addr, 0, bopts) {
                        Ok(f) => break (f, ad.acting as usize),
                        Err(e) => eprintln!(
                            "pcgraph: rank {rank}: cannot join takeover coordinator ({e}); \
                             retrying"
                        ),
                    }
                }
            }
        }
        let now = Instant::now();
        if now >= deadline {
            bail_bootstrap(format!(
                "rank {rank}: no takeover coordinator appeared before the deadline \
                 (standby rank {} may have died with the coordinator)",
                state.standby
            ));
        }
        backoff.sleep(deadline - now);
    };
    // A takeover coordinator dying between PEERS and CTRL surfaces here;
    // propagate so the caller's retry loop re-enters the election rather
    // than exiting this rank.
    let new_state = try_recv_ctrl(&mut follower)?;
    let tcp = Tcp::mesh(rank, follower.peers().to_vec(), listener, tcp_options())?;
    p.cfg = rank_config(opts, ranks, rank, tcp);
    if let Some(d) = p.cfg.dist.as_mut() {
        d.gather_root = acting;
    }
    p.role = Role::Follower {
        ctrl: Some(follower),
        ctrl_state: Some(new_state),
        acting,
    };
    Ok(())
}

// ---------------------------------------------------------------------
// Result handling
// ---------------------------------------------------------------------

fn report(stats: &RunStats) {
    eprintln!(
        "done: {:.1} ms, {:.3} MiB network traffic, {} supersteps, {} rounds",
        stats.millis(),
        stats.remote_mib(),
        stats.supersteps,
        stats.rounds
    );
    for c in &stats.channels {
        eprintln!(
            "  channel {:<12} {:>12} messages {:>14} remote bytes",
            c.name, c.messages, c.bytes.remote
        );
    }
    if stats.max_rank_msgs > 0 {
        eprintln!("  skew {:>17} max per-rank messages", stats.max_rank_msgs);
    }
    if stats.mirrored_msgs() > 0 {
        eprintln!(
            "  mirror {:>15} ghost broadcasts {:>10} per-edge sends saved",
            stats.mirrored_msgs(),
            stats.mirror_saved()
        );
    }
    if stats.transport.frames > 0 {
        eprintln!(
            "  transport {:<10} {:>12} frames {:>14.3} MiB wire",
            stats.transport_name,
            stats.transport.frames,
            stats.wire_mib(),
        );
    }
    if stats.transport.poll_waits > 0 {
        eprintln!(
            "  readiness {:>12} poll waits {:>12} µs send stall {:>8} µs recv stall {:>6} spurious",
            stats.transport.poll_waits,
            stats.transport.send_stall_us,
            stats.transport.recv_stall_us,
            stats.transport.wakeups_spurious,
        );
    }
    if stats.barrier_crossings > 0 {
        eprintln!(
            "  barrier {:>14} crossings {:>13} arrival spins",
            stats.barrier_crossings, stats.barrier_spins,
        );
    }
    if stats.recoveries > 0 {
        eprintln!(
            "  recovery {:>13} epochs {:>16} µs repairing",
            stats.recoveries, stats.recovery_us,
        );
    }
}

fn write_artifact(path: &std::path::Path, what: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("pcgraph: cannot write {what} {}: {e}", path.display());
        exit(EXIT_RUNTIME);
    }
    eprintln!("{what}: wrote {}", path.display());
}

/// Export the observability artifacts from the process that holds the
/// merged stats — Single or rank 0. Followers never reach this: they
/// exit at the top of [`conclude`], so `--trace FILE` can ride to every
/// rank (it is what arms their recorders) without two processes racing
/// on one output path.
fn emit_observability(opts: &Opts, stats: &RunStats) {
    if opts.superstep_table {
        eprint!("{}", pc_bsp::trace::superstep_table(&stats.timeline));
    }
    if let Some(path) = &opts.trace {
        write_artifact(
            path,
            "trace",
            &pc_bsp::trace::chrome_trace_json(&stats.traces),
        );
        let dropped: u64 = stats.traces.iter().map(|t| t.dropped).sum();
        if dropped > 0 {
            eprintln!(
                "pcgraph: warning: the trace is missing {dropped} events dropped past the \
                 per-rank buffer (its `dropped_events` metadata has the count per rank)"
            );
        }
    }
    if let Some(path) = &opts.stats_json {
        write_artifact(path, "stats", &pc_bsp::metrics::run_stats_json(stats));
    }
}

/// Print (and in `--verify` mode check) the run's results, then exit.
fn conclude<V: PartialEq>(
    prepared: Prepared,
    opts: &Opts,
    values: V,
    stats: RunStats,
    print: impl FnOnce(&V, &RunStats),
    rerun: impl Fn(&Gdata, &Arc<Topology>, &Config) -> (V, RunStats),
) -> ! {
    let Prepared { topo, role, .. } = prepared;
    match role {
        Role::Follower { .. } => exit(EXIT_OK), // results were gathered to rank 0
        Role::Single => {
            print(&values, &stats);
            emit_observability(opts, &stats);
            exit(EXIT_OK)
        }
        Role::Rank0 { full, plans, .. } => {
            print(&values, &stats);
            emit_observability(opts, &stats);
            if opts.verify {
                // Rank 0 kept the graph it loaded and the full mirror plan;
                // a takeover coordinator never saw the input and rebuilds
                // the graph — bit-exact — from the replicated per-rank
                // plans. Its own plan held only its own mirror targets, and
                // the sequential rerun pre-wires every worker, so the full
                // mirror plan is rebuilt from that graph with the plan's τ.
                let (full, topo) = match full {
                    Some(full) => (full, topo),
                    None => {
                        let plans = plans
                            .as_ref()
                            .expect("a takeover coordinator keeps the replicated plans");
                        let full =
                            rebuild_full(plans, need_of(&opts.algorithm)).unwrap_or_else(|e| {
                                eprintln!(
                                    "pcgraph: cannot rebuild the graph from the control \
                                     replica: {e}"
                                );
                                exit(EXIT_RUNTIME)
                            });
                        let topo = match topo.mirror_plan() {
                            Some(own) => {
                                let plan = mirror_plan(&full, &topo, own.threshold as usize);
                                Arc::new((*topo).clone().with_mirror(Arc::new(plan)))
                            }
                            None => topo,
                        };
                        (full, topo)
                    }
                };
                let seq_cfg = Config {
                    mode: ExecMode::Sequential,
                    ..Config::with_workers(topo.workers())
                };
                let (seq_values, seq_stats) = rerun(&full, &topo, &seq_cfg);
                let mut failures = Vec::new();
                if values != seq_values {
                    failures.push("values".to_string());
                }
                let pairs: [(&str, u64, u64); 8] = [
                    (
                        "remote bytes",
                        stats.remote_bytes(),
                        seq_stats.remote_bytes(),
                    ),
                    ("total bytes", stats.total_bytes(), seq_stats.total_bytes()),
                    ("messages", stats.messages(), seq_stats.messages()),
                    ("supersteps", stats.supersteps, seq_stats.supersteps),
                    ("rounds", stats.rounds, seq_stats.rounds),
                    (
                        "mirrored messages",
                        stats.mirrored_msgs(),
                        seq_stats.mirrored_msgs(),
                    ),
                    (
                        "mirror saved",
                        stats.mirror_saved(),
                        seq_stats.mirror_saved(),
                    ),
                    (
                        "max rank messages",
                        stats.max_rank_msgs,
                        seq_stats.max_rank_msgs,
                    ),
                ];
                for (what, got, want) in pairs {
                    if got != want {
                        failures.push(format!("{what} ({got} vs {want})"));
                    }
                }
                if stats.pool != seq_stats.pool {
                    failures.push(format!(
                        "pool traffic ({:?} vs {:?})",
                        stats.pool, seq_stats.pool
                    ));
                }
                if !failures.is_empty() {
                    eprintln!(
                        "pcgraph: verify FAILED — distributed run diverges from the \
                         sequential reference: {}",
                        failures.join(", ")
                    );
                    exit(EXIT_RUNTIME);
                }
                eprintln!(
                    "verify: distributed run matches the sequential reference \
                     (values, bytes, messages, supersteps, rounds, mirror, pool)"
                );
            }
            exit(EXIT_OK)
        }
    }
}

// ---------------------------------------------------------------------
// Launcher mode
// ---------------------------------------------------------------------

/// Build the argument vector for one spawned rank. Loader flags
/// (`--input`, `--gen`, `--scale`) go to rank 0 only: followers receive
/// their partition over the bootstrap connection and structurally cannot
/// load the input.
fn child_args(opts: &Opts, rank: usize, ranks: usize, coordinator: &SocketAddr) -> Vec<String> {
    let mut a = vec![
        opts.algorithm.clone(),
        "--rank".into(),
        rank.to_string(),
        "--ranks".into(),
        ranks.to_string(),
        "--coordinator".into(),
        coordinator.to_string(),
    ];
    if !opts.variant.is_empty() {
        a.push("--variant".into());
        a.push(opts.variant.clone());
    }
    a.push("--iters".into());
    a.push(opts.iters.to_string());
    a.push("--src".into());
    a.push(opts.src.to_string());
    a.push("--k".into());
    a.push(opts.k.to_string());
    // Placement and mirroring are cluster-wide choices, forwarded to
    // every rank. Only rank 0 acts on --partitioner (it computes the
    // owner table), but forwarding everywhere keeps a hand-launched rank
    // command line copy-pasteable; followers take the mirror plan (and
    // its resolved τ) from the shipped plan, not from these flags.
    if let Some(p) = &opts.partitioner {
        a.push("--partitioner".into());
        a.push(p.clone());
    }
    if let Some(m) = &opts.mirror_threshold {
        a.push("--mirror-threshold".into());
        a.push(match m {
            MirrorArg::Auto => "auto".to_string(),
            MirrorArg::Fixed(t) => t.to_string(),
        });
    }
    // Checkpointing is a cluster-wide policy: every rank snapshots at the
    // same cadence into the same directory, and a respawned rank needs
    // the directory to restore from.
    if let (Some(every), Some(dir)) = (&opts.checkpoint_every, &opts.checkpoint_dir) {
        a.push("--checkpoint-every".into());
        a.push(every.to_string());
        a.push("--checkpoint-dir".into());
        a.push(dir.display().to_string());
    }
    // Every rank binds its data listener on the same interface.
    if let Some(ip) = &opts.bind {
        a.push("--bind".into());
        a.push(ip.to_string());
    }
    // Tracing is cluster-wide: every rank must record its span stream for
    // the gather to merge (rank 0 asserts one trace per rank). Only rank 0
    // ever writes the file — followers exit before the export path — so
    // forwarding the path itself is safe and keeps a hand-launched rank
    // command line copy-pasteable.
    if let Some(path) = &opts.trace {
        a.push("--trace".into());
        a.push(path.display().to_string());
    }
    if opts.superstep_table {
        a.push("--superstep-table".into());
    }
    // --spin-budget is NOT forwarded: a rank builds its mesh from
    // `tcp_options()`, which leaves the readiness loop's spin budget on
    // its cores-vs-workers heuristic, and a rank has no barrier.
    //
    // Failover makes result handling mobile: any rank can end up the
    // acting coordinator, so the standby designation and the
    // conclude-side flags (--verify, --stats-json) must reach every
    // rank. Without failover they stay on rank 0 — the merged run only
    // ever exists there.
    let armed = failover_armed(opts);
    if let Some(standby) = &opts.standby {
        a.push("--standby".into());
        a.push(match standby {
            StandbyArg::Auto => "auto".to_string(),
            StandbyArg::Fixed(r) => r.to_string(),
        });
    }
    if rank == 0 {
        if let Some(input) = &opts.input {
            a.push("--input".into());
            a.push(input.display().to_string());
        } else if let Some(gen) = &opts.gen {
            a.push("--gen".into());
            a.push(gen.clone());
        }
        a.push("--scale".into());
        a.push(opts.scale.to_string());
        if opts.directed {
            a.push("--directed".into());
        }
    }
    if rank == 0 || armed {
        if opts.verify {
            a.push("--verify".into());
        }
        // The stats dump describes the merged run, which only the acting
        // coordinator holds; followers' stats frames are inputs to it,
        // not outputs.
        if let Some(path) = &opts.stats_json {
            a.push("--stats-json".into());
            a.push(path.display().to_string());
        }
    }
    a
}

fn run_launcher(opts: &Opts) -> ! {
    let ranks = opts.ranks.expect("launcher mode has --ranks");
    if opts.algorithm == "stats" {
        usage_error("'stats' is single-process; drop --ranks");
    }
    let coordinator = opts
        .coordinator
        .map(Ok)
        .unwrap_or_else(pick_rendezvous_addr);
    let coordinator = coordinator.unwrap_or_else(|e| {
        eprintln!("pcgraph: cannot pick a rendezvous address: {e}");
        exit(EXIT_RUNTIME)
    });
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("pcgraph: cannot locate own binary: {e}");
        exit(EXIT_RUNTIME)
    });
    // Checkpointing arms the launcher's recovery supervision; a fresh
    // job must also never restore another job's epochs, so the directory
    // is wiped up front and cleaned after success.
    let ckpt_store = ckpt_policy(opts).map(|p| {
        let store = pc_ckpt::Store::open(&p.dir).unwrap_or_else(|e| {
            eprintln!("pcgraph: cannot open checkpoint dir: {e}");
            exit(EXIT_RUNTIME)
        });
        store.wipe().unwrap_or_else(|e| {
            eprintln!("pcgraph: cannot clear stale checkpoints: {e}");
            exit(EXIT_RUNTIME)
        });
        store
    });
    let spec = LaunchSpec {
        exe,
        ranks,
        join_timeout: env_ms("PC_DIST_JOIN_TIMEOUT_MS", 600_000),
        max_respawns: if ckpt_store.is_some() {
            respawn_budget()
        } else {
            0
        },
        // Arming failover teaches the launcher that rank 0 is
        // respawnable and that "the job finished" means the *advertised
        // acting* rank exited cleanly, not necessarily rank 0.
        ctrl_dir: failover_armed(opts).then(|| {
            opts.checkpoint_dir
                .clone()
                .expect("failover_armed implies --checkpoint-dir")
        }),
    };
    match launch::launch(&spec, |rank| child_args(opts, rank, ranks, &coordinator)) {
        Ok(()) => {
            if let Some(store) = &ckpt_store {
                let _ = store.wipe(); // the job finished; epochs are garbage
            }
            exit(EXIT_OK)
        }
        Err(e) => {
            eprintln!("pcgraph: {e}");
            // Propagate the failing rank's own code where there is one.
            let code = match e {
                launch::LaunchError::Exit { code: Some(c), .. } if c != 0 => c,
                _ => EXIT_RUNTIME,
            };
            exit(code)
        }
    }
}

// ---------------------------------------------------------------------
// Algorithm dispatch
// ---------------------------------------------------------------------

/// Mirroring threshold for a `--variant mirror` run: the shipped plan's
/// τ (which the Mirror channel would enforce anyway — this just keeps
/// routing decisions in the algorithm consistent with it), or the
/// paper's ghost-mode default when no plan rides on the topology.
fn mirror_tau(topo: &Topology) -> usize {
    topo.mirror_plan()
        .map(|p| (p.threshold as usize).max(1))
        .unwrap_or(16)
}

fn main() {
    let opts = parse_args();
    if opts.ranks.is_some() && opts.rank.is_none() {
        run_launcher(&opts);
    }
    let opts = &opts;
    match opts.algorithm.as_str() {
        "stats" => {
            if opts.rank.is_some() {
                usage_error("'stats' is single-process; drop --rank/--ranks");
            }
            let g = load_unweighted(opts, true);
            let s = stats::graph_stats(&g);
            println!(
                "|V| {}  |E| {}  avg deg {:.2}  max deg {}  sinks {}",
                s.n, s.m, s.avg_degree, s.max_degree, s.sinks
            );
        }
        "pagerank" => {
            let mut p = prepare(opts, need_of("pagerank"));
            let (variant, iters) = (opts.variant.clone(), opts.iters);
            let run = move |d: &Gdata, topo: &Arc<Topology>, cfg: &Config| {
                let g = d.unweighted();
                let o = match variant.as_str() {
                    "basic" => pc_algos::pagerank::channel_basic(g, topo, cfg, iters),
                    "mirror" => {
                        pc_algos::pagerank::channel_mirror(g, topo, cfg, iters, mirror_tau(topo))
                    }
                    _ => pc_algos::pagerank::channel_scatter(g, topo, cfg, iters),
                };
                (o.ranks, o.stats)
            };
            let (values, stats) = execute(&mut p, opts, &run);
            conclude(
                p,
                opts,
                values,
                stats,
                |ranks, stats| {
                    let mut top: Vec<(usize, f64)> = ranks.iter().copied().enumerate().collect();
                    top.sort_by(|a, b| b.1.total_cmp(&a.1));
                    for (v, r) in top.iter().take(10) {
                        println!("{v}\t{r:.8}");
                    }
                    report(stats);
                },
                run,
            );
        }
        "wcc" => {
            let mut p = prepare(opts, need_of("wcc"));
            let variant = opts.variant.clone();
            let run = move |d: &Gdata, topo: &Arc<Topology>, cfg: &Config| {
                let g = d.unweighted();
                let o = match variant.as_str() {
                    "basic" => pc_algos::wcc::channel_basic(g, topo, cfg),
                    "blogel" => pc_algos::wcc::blogel(g, topo, cfg),
                    "mirror" => pc_algos::wcc::channel_mirror(g, topo, cfg, mirror_tau(topo)),
                    _ => pc_algos::wcc::channel_propagation(g, topo, cfg),
                };
                (o.labels, o.stats)
            };
            let (values, stats) = execute(&mut p, opts, &run);
            conclude(
                p,
                opts,
                values,
                stats,
                |labels, stats| {
                    println!(
                        "{} components",
                        pc_graph::reference::component_count(labels)
                    );
                    report(stats);
                },
                run,
            );
        }
        "sv" => {
            let mut p = prepare(opts, need_of("sv"));
            let variant = opts.variant.clone();
            let run = move |d: &Gdata, topo: &Arc<Topology>, cfg: &Config| {
                let g = d.unweighted();
                let o = match variant.as_str() {
                    "basic" => pc_algos::sv::channel_basic(g, topo, cfg),
                    "reqresp" => pc_algos::sv::channel_reqresp(g, topo, cfg),
                    "scatter" => pc_algos::sv::channel_scatter(g, topo, cfg),
                    _ => pc_algos::sv::channel_both(g, topo, cfg),
                };
                (o.labels, o.stats)
            };
            let (values, stats) = execute(&mut p, opts, &run);
            conclude(
                p,
                opts,
                values,
                stats,
                |labels, stats| {
                    println!(
                        "{} components",
                        pc_graph::reference::component_count(labels)
                    );
                    report(stats);
                },
                run,
            );
        }
        "scc" => {
            let mut p = prepare(opts, need_of("scc"));
            let variant = opts.variant.clone();
            let run = move |d: &Gdata, topo: &Arc<Topology>, cfg: &Config| {
                let (g, rev) = (d.unweighted(), d.rev());
                let o = match variant.as_str() {
                    "basic" => pc_algos::scc::channel_basic_with_rev(g, rev, topo, cfg),
                    _ => pc_algos::scc::channel_propagation_with_rev(g, rev, topo, cfg),
                };
                (o.labels, o.stats)
            };
            let (values, stats) = execute(&mut p, opts, &run);
            conclude(
                p,
                opts,
                values,
                stats,
                |labels, stats| {
                    println!("{} SCCs", pc_graph::reference::component_count(labels));
                    report(stats);
                },
                run,
            );
        }
        "sssp" => {
            let mut p = prepare(opts, need_of("sssp"));
            let (variant, src) = (opts.variant.clone(), opts.src);
            let run = move |d: &Gdata, topo: &Arc<Topology>, cfg: &Config| {
                let g = d.weighted();
                let o = match variant.as_str() {
                    "basic" => pc_algos::sssp::channel_basic(g, topo, cfg, src),
                    _ => pc_algos::sssp::channel_propagation(g, topo, cfg, src),
                };
                (o.dist, o.stats)
            };
            let (values, stats) = execute(&mut p, opts, &run);
            let src = opts.src;
            conclude(
                p,
                opts,
                values,
                stats,
                move |dist, stats| {
                    let reached = dist
                        .iter()
                        .filter(|&&d| d != pc_algos::sssp::UNREACHED)
                        .count();
                    println!("{reached} reachable from {src}");
                    report(stats);
                },
                run,
            );
        }
        "bfs" => {
            let mut p = prepare(opts, need_of("bfs"));
            let src = opts.src;
            let run = move |d: &Gdata, topo: &Arc<Topology>, cfg: &Config| {
                let o = pc_algos::kernels::bfs(d.unweighted(), topo, cfg, src);
                (o.level, o.stats)
            };
            let (values, stats) = execute(&mut p, opts, &run);
            conclude(
                p,
                opts,
                values,
                stats,
                |level, stats| {
                    let reached = level
                        .iter()
                        .filter(|&&l| l != pc_algos::kernels::UNREACHED)
                        .count();
                    let depth = level
                        .iter()
                        .filter(|&&l| l != pc_algos::kernels::UNREACHED)
                        .max();
                    println!("{reached} reachable, depth {:?}", depth);
                    report(stats);
                },
                run,
            );
        }
        "kcore" => {
            let mut p = prepare(opts, need_of("kcore"));
            let k = opts.k;
            let n = p.data.n();
            let run = move |d: &Gdata, topo: &Arc<Topology>, cfg: &Config| {
                let o = pc_algos::kernels::kcore(d.unweighted(), topo, cfg, k);
                (o.in_core, o.stats)
            };
            let (values, stats) = execute(&mut p, opts, &run);
            conclude(
                p,
                opts,
                values,
                stats,
                move |in_core, stats| {
                    println!(
                        "{} of {} vertices in the {}-core",
                        in_core.iter().filter(|&&a| a).count(),
                        n,
                        k
                    );
                    report(stats);
                },
                run,
            );
        }
        "msf" => {
            let mut p = prepare(opts, need_of("msf"));
            let run = move |d: &Gdata, topo: &Arc<Topology>, cfg: &Config| {
                let o = pc_algos::msf::channel_basic(d.weighted(), topo, cfg);
                ((o.total_weight, o.edge_count), o.stats)
            };
            let (values, stats) = execute(&mut p, opts, &run);
            conclude(
                p,
                opts,
                values,
                stats,
                |&(weight, edges), stats| {
                    println!("forest weight {weight} over {edges} edges");
                    report(stats);
                },
                run,
            );
        }
        other => usage_error(&format!("unknown algorithm '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(algorithm: &str) -> Opts {
        Opts {
            algorithm: algorithm.to_string(),
            input: Some(PathBuf::from("/tmp/in.txt")),
            gen: None,
            scale: 9,
            workers: 4,
            transport: TransportKind::InProcess,
            variant: "prop".to_string(),
            iters: 12,
            src: 3,
            k: 2,
            directed: true,
            partition: false,
            partitioner: None,
            mirror_threshold: None,
            ranks: Some(4),
            rank: None,
            coordinator: None,
            verify: true,
            spin_budget: Some(64),
            checkpoint_every: None,
            checkpoint_dir: None,
            standby: None,
            bind: None,
            trace: None,
            superstep_table: false,
            stats_json: None,
        }
    }

    /// Followers get no loader flags at all: they cannot even name the
    /// input file, which is the structural half of the "non-zero ranks
    /// read no graph file" guarantee.
    #[test]
    fn followers_receive_no_loader_flags() {
        let o = opts("wcc");
        let addr: SocketAddr = "127.0.0.1:4000".parse().unwrap();
        let rank0 = child_args(&o, 0, 4, &addr);
        assert!(rank0.contains(&"--input".to_string()));
        assert!(rank0.contains(&"--verify".to_string()));
        // The spin budget only affects the in-process barrier; ranks run
        // the socket mesh, so no rank receives it.
        assert!(!rank0.contains(&"--spin-budget".to_string()));
        for rank in 1..4 {
            let args = child_args(&o, rank, 4, &addr);
            for forbidden in ["--input", "--gen", "--scale", "--verify", "/tmp/in.txt"] {
                assert!(
                    !args.contains(&forbidden.to_string()),
                    "rank {rank} got {forbidden}: {args:?}"
                );
            }
            assert!(args.contains(&"--rank".to_string()));
            assert!(args.contains(&"--coordinator".to_string()));
            // Algorithm parameters still ride along.
            assert!(args.contains(&"--variant".to_string()));
            assert!(args.contains(&"--iters".to_string()));
        }
    }

    /// Checkpoint and bind flags are cluster-wide: every rank receives
    /// them (a respawned follower must find the checkpoint directory and
    /// bind the same interface).
    #[test]
    fn checkpoint_and_bind_flags_reach_every_rank() {
        let mut o = opts("pagerank");
        o.checkpoint_every = Some(2);
        o.checkpoint_dir = Some(PathBuf::from("/tmp/ckpts"));
        o.bind = Some("127.0.0.1".parse().unwrap());
        let addr: SocketAddr = "127.0.0.1:4000".parse().unwrap();
        for rank in 0..4 {
            let args = child_args(&o, rank, 4, &addr);
            let at = args.iter().position(|a| a == "--checkpoint-every").unwrap();
            assert_eq!(args[at + 1], "2", "rank {rank}");
            let at = args.iter().position(|a| a == "--checkpoint-dir").unwrap();
            assert_eq!(args[at + 1], "/tmp/ckpts", "rank {rank}");
            let at = args.iter().position(|a| a == "--bind").unwrap();
            assert_eq!(args[at + 1], "127.0.0.1", "rank {rank}");
        }
        // Without the flags, nothing is forwarded.
        let bare = child_args(&opts("pagerank"), 1, 4, &addr);
        assert!(!bare.contains(&"--checkpoint-dir".to_string()));
        assert!(!bare.contains(&"--bind".to_string()));
    }

    /// Placement and mirroring flags ride to every rank — a hand-copied
    /// rank command line must behave the same as a launcher-spawned one.
    #[test]
    fn partitioner_and_mirror_flags_reach_every_rank() {
        let mut o = opts("wcc");
        o.partitioner = Some("ldg-deg".to_string());
        o.mirror_threshold = Some(MirrorArg::Auto);
        let addr: SocketAddr = "127.0.0.1:4000".parse().unwrap();
        for rank in 0..4 {
            let args = child_args(&o, rank, 4, &addr);
            let at = args.iter().position(|a| a == "--partitioner").unwrap();
            assert_eq!(args[at + 1], "ldg-deg", "rank {rank}");
            let at = args.iter().position(|a| a == "--mirror-threshold").unwrap();
            assert_eq!(args[at + 1], "auto", "rank {rank}");
        }
        o.mirror_threshold = Some(MirrorArg::Fixed(48));
        let args = child_args(&o, 1, 4, &addr);
        let at = args.iter().position(|a| a == "--mirror-threshold").unwrap();
        assert_eq!(args[at + 1], "48");
        // Without the flags, nothing is forwarded.
        let bare = child_args(&opts("wcc"), 1, 4, &addr);
        assert!(!bare.contains(&"--partitioner".to_string()));
        assert!(!bare.contains(&"--mirror-threshold".to_string()));
    }

    /// `--trace`/`--superstep-table` arm every rank's recorder (rank 0
    /// cannot merge streams a follower never recorded); `--stats-json`
    /// describes the merged run and stays on rank 0.
    #[test]
    fn trace_flags_reach_every_rank_stats_json_stays_on_rank0() {
        let mut o = opts("wcc");
        o.trace = Some(PathBuf::from("/tmp/trace.json"));
        o.superstep_table = true;
        o.stats_json = Some(PathBuf::from("/tmp/stats.json"));
        let addr: SocketAddr = "127.0.0.1:4000".parse().unwrap();
        for rank in 0..4 {
            let args = child_args(&o, rank, 4, &addr);
            let at = args.iter().position(|a| a == "--trace").unwrap();
            assert_eq!(args[at + 1], "/tmp/trace.json", "rank {rank}");
            assert!(
                args.contains(&"--superstep-table".to_string()),
                "rank {rank}"
            );
            assert_eq!(
                args.contains(&"--stats-json".to_string()),
                rank == 0,
                "rank {rank}"
            );
        }
        // Without the flags, nothing is forwarded.
        for rank in 0..4 {
            let bare = child_args(&opts("wcc"), rank, 4, &addr);
            assert!(!bare.contains(&"--trace".to_string()));
            assert!(!bare.contains(&"--superstep-table".to_string()));
            assert!(!bare.contains(&"--stats-json".to_string()));
        }
    }

    /// With coordinator failover armed (checkpointing + 2 ranks), the
    /// conclude-side flags become mobile: any rank can end up the acting
    /// coordinator, so --verify, --stats-json, and --standby must reach
    /// every rank — while the loader flags still stay on rank 0 (only
    /// the initial coordinator ever reads the input).
    #[test]
    fn armed_failover_forwards_conclude_flags_to_every_rank() {
        let mut o = opts("pagerank");
        o.checkpoint_every = Some(2);
        o.checkpoint_dir = Some(PathBuf::from("/tmp/ckpts"));
        o.stats_json = Some(PathBuf::from("/tmp/stats.json"));
        o.standby = Some(StandbyArg::Fixed(2));
        assert!(failover_armed(&o));
        let addr: SocketAddr = "127.0.0.1:4000".parse().unwrap();
        for rank in 0..4 {
            let args = child_args(&o, rank, 4, &addr);
            assert!(args.contains(&"--verify".to_string()), "rank {rank}");
            let at = args.iter().position(|a| a == "--stats-json").unwrap();
            assert_eq!(args[at + 1], "/tmp/stats.json", "rank {rank}");
            let at = args.iter().position(|a| a == "--standby").unwrap();
            assert_eq!(args[at + 1], "2", "rank {rank}");
            assert_eq!(
                args.contains(&"--input".to_string()),
                rank == 0,
                "rank {rank}"
            );
        }
        o.standby = Some(StandbyArg::Auto);
        let args = child_args(&o, 3, 4, &addr);
        let at = args.iter().position(|a| a == "--standby").unwrap();
        assert_eq!(args[at + 1], "auto");
    }

    #[test]
    fn rank_args_carry_rank_identity() {
        let o = opts("pagerank");
        let addr: SocketAddr = "127.0.0.1:4001".parse().unwrap();
        let args = child_args(&o, 2, 4, &addr);
        let at = args.iter().position(|a| a == "--rank").unwrap();
        assert_eq!(args[at + 1], "2");
        let at = args.iter().position(|a| a == "--ranks").unwrap();
        assert_eq!(args[at + 1], "4");
        let at = args.iter().position(|a| a == "--coordinator").unwrap();
        assert_eq!(args[at + 1], "127.0.0.1:4001");
    }
}
