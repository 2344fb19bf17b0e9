//! Checkpoint transparency and resume determinism, per shipped algorithm.
//!
//! Two contracts per algorithm:
//!
//! * **Transparency** — a threaded run that checkpoints (but never
//!   fails) reports values, bytes, messages, supersteps, rounds and pool
//!   traffic identical to one that does not: the checkpoint ack is the
//!   ordering of the exchanges the run makes anyway, and the end-of-run
//!   drain adds one words-only exchange that moves no buffer.
//! * **Resume** — pointing a second run at the directory the first one
//!   left behind restores the last committed epoch (vertex values,
//!   frontier, channel state, counters) and replays only the tail — and
//!   still converges to the identical output and statistics. This
//!   exercises every channel's `encode_state`/`decode_state` codec under
//!   its real algorithm, which is exactly the state a respawned rank
//!   restores after a mid-run SIGKILL (`tests/dist_recovery.rs`).
//!
//! A third arm covers the torn-write discipline end to end: truncating a
//! segment of the newest committed epoch makes the resume fall back to
//! the previous complete epoch, with identical results.
//!
//! Two more cover an epoch that was in flight when the run died —
//! segments go to disk on a background writer and are committed one
//! boundary later, so a kill can leave the newest epoch (a) complete and
//! digest-valid but without its `MANIFEST`, or (b) as nothing but a
//! `.tmp`. Either way it is invisible: the resume restores the epoch
//! before it, replays, and rewrites it.

mod common;

use common::assert_stats_agree;
use pc_bsp::{CkptPolicy, Config, RunStats, Topology};
use pc_ckpt::Store;
use pc_graph::gen;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const WORKERS: usize = 4;

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pc_ckpt_resume_{name}_{}", std::process::id()))
}

fn ckpt_cfg(every: u64, dir: &Path) -> Config {
    Config {
        ckpt: Some(CkptPolicy {
            every,
            dir: dir.to_path_buf(),
        }),
        ..Config::with_workers(WORKERS)
    }
}

/// The transparency + resume + torn-write contract for one algorithm.
fn resumable<V: PartialEq + std::fmt::Debug>(
    name: &str,
    every: u64,
    run: impl Fn(&Config) -> (V, RunStats),
) {
    let dir = temp_dir(name);
    let _ = std::fs::remove_dir_all(&dir);
    let (plain_values, plain_stats) = run(&Config::with_workers(WORKERS));
    let cfg = ckpt_cfg(every, &dir);

    // Transparency: checkpointing changes nothing observable.
    let (ck_values, ck_stats) = run(&cfg);
    assert_eq!(
        ck_values, plain_values,
        "{name}: checkpointing changed values"
    );
    assert_stats_agree(
        &format!("{name} (plain vs checkpointing)"),
        &plain_stats,
        &ck_stats,
    );

    // The run must actually have committed something, or the resume arm
    // would silently test a cold start.
    let store = Store::open(&dir).unwrap();
    let steps = store.committed_steps().unwrap();
    assert!(
        !steps.is_empty(),
        "{name}: no checkpoint was committed (cadence {every}, {} supersteps)",
        plain_stats.supersteps
    );

    // Resume: restore the newest epoch, replay the tail, same output.
    let (res_values, res_stats) = run(&cfg);
    assert_eq!(res_values, plain_values, "{name}: resumed values diverge");
    assert_stats_agree(
        &format!("{name} (plain vs resumed)"),
        &plain_stats,
        &res_stats,
    );

    // Torn write: truncate a segment of the newest epoch; the resume
    // falls back to the previous complete epoch (or a cold start when
    // only one epoch was ever committed) and still agrees.
    let steps = store.committed_steps().unwrap();
    let newest = *steps.last().unwrap();
    let victim = store.segment_path(newest, (WORKERS - 1) as u32);
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
    let (torn_values, torn_stats) = run(&cfg);
    assert_eq!(
        torn_values, plain_values,
        "{name}: torn-write fallback diverges"
    );
    assert_stats_agree(
        &format!("{name} (plain vs torn fallback)"),
        &plain_stats,
        &torn_stats,
    );

    // In flight: the newest epoch as a kill between snapshot and commit
    // (a), or in the middle of the write (b), leaves it. The epoch before
    // it is what gets restored, and the replay commits the newest again.
    let committed = store.committed_steps().unwrap();
    assert_eq!(committed.last(), Some(&newest), "{name}: torn arm's replay");
    for what in ["segments without a manifest", "nothing but a .tmp"] {
        std::fs::remove_file(store.manifest_path(newest)).unwrap();
        if what == "nothing but a .tmp" {
            for rank in 0..WORKERS as u32 {
                std::fs::remove_file(store.segment_path(newest, rank)).unwrap();
            }
            let tmp = store.segment_path(newest, 0).with_extension("tmp");
            std::fs::write(tmp, b"half a snapshot").unwrap();
        }
        assert_eq!(
            store.committed_steps().unwrap(),
            committed[..committed.len() - 1],
            "{name}: an epoch with {what} is not a checkpoint"
        );
        let (values, stats) = run(&cfg);
        assert_eq!(values, plain_values, "{name}: resume past {what} diverges");
        assert_stats_agree(
            &format!("{name} (plain vs resumed past {what})"),
            &plain_stats,
            &stats,
        );
        assert_eq!(
            store.committed_steps().unwrap(),
            committed,
            "{name}: {what}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume from *every* epoch a run commits, not only the newest one it
/// leaves behind. A run capped at `max_supersteps = e + every` dies at
/// that boundary, right after its snapshot; the writer's drop finishes
/// the job that commits `e`, so `e` is the newest committed epoch (the
/// last epoch is the one the end-of-run drain commits). Resuming from it
/// must reproduce the plain run's values and statistics — and leave the
/// tables files an uninterrupted run leaves: a resumed worker restores
/// its tables generation, so it does not write again what is durable.
fn resumes_from_every_epoch<V: PartialEq + std::fmt::Debug>(
    name: &str,
    every: u64,
    run: impl Fn(&Config) -> (V, RunStats),
) {
    let dir = temp_dir(&format!("{name}_every_epoch"));
    let (plain_values, plain_stats) = run(&Config::with_workers(WORKERS));
    let last = plain_stats.supersteps;
    let epochs: Vec<u64> = (every..last).step_by(every as usize).collect();
    assert!(epochs.len() >= 3, "{name}: only epochs {epochs:?}");
    let cfg = ckpt_cfg(every, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    run(&cfg);
    let uninterrupted = tables_files(&Store::open(&dir).unwrap());
    for &epoch in &epochs {
        let _ = std::fs::remove_dir_all(&dir);
        if epoch + every < last {
            let capped = Config {
                max_supersteps: epoch + every,
                ..cfg.clone()
            };
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&capped)));
            assert!(died.is_err(), "{name}: the capped run finished");
        } else {
            run(&cfg);
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(
            store.committed_steps().unwrap().last(),
            Some(&epoch),
            "{name}: the newest committed epoch"
        );
        let (values, stats) = run(&cfg);
        assert_eq!(
            values, plain_values,
            "{name}: resumed from epoch {epoch}, values diverge"
        );
        assert_stats_agree(
            &format!("{name} (plain vs resumed from epoch {epoch})"),
            &plain_stats,
            &stats,
        );
        assert_eq!(
            tables_files(&store),
            uninterrupted,
            "{name}: tables files after resuming from epoch {epoch}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pagerank_scatter_resumes_from_every_epoch() {
    let g = directed();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    resumes_from_every_epoch("pagerank_scatter", 2, |cfg| {
        let o = pc_algos::pagerank::channel_scatter(&g, &topo, cfg, 9);
        (o.ranks, o.stats)
    });
}

#[test]
fn sv_both_resumes_from_every_epoch() {
    let g = undirected();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    resumes_from_every_epoch("sv_both", 2, |cfg| {
        let o = pc_algos::sv::channel_both(&g, &topo, cfg);
        (o.labels, o.stats)
    });
}

fn undirected() -> Arc<pc_graph::Graph> {
    Arc::new(gen::rmat(8, 1400, gen::RmatParams::default(), 11, false).symmetrized())
}

fn directed() -> Arc<pc_graph::Graph> {
    Arc::new(gen::rmat(8, 1800, gen::RmatParams::default(), 12, true))
}

#[test]
fn pagerank_scatter_resumes() {
    let g = directed();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    resumable("pagerank_scatter", 3, |cfg| {
        let o = pc_algos::pagerank::channel_scatter(&g, &topo, cfg, 12);
        (o.ranks, o.stats)
    });
}

/// Scatters along half of each vertex's out-edges from step 1 and
/// registers the other half — in descending order — at step `late`, so a
/// run resumed from an epoch before `late` calls `add_edge` on a
/// `ScatterCombine` whose routes came out of a restore. Scatters through
/// step `last`, then halts: `last + 1` supersteps.
struct LateRegistration {
    g: Arc<pc_graph::Graph>,
    late: u64,
    last: u64,
}

impl pc_channels::Algorithm for LateRegistration {
    type Value = f64;
    type Channels = (pc_channels::ScatterCombine<f64>,);
    pc_channels::dist_value_via_codec!();

    fn channels(&self, env: &pc_channels::WorkerEnv) -> Self::Channels {
        let sum = pc_channels::Combine::sum_f64();
        (pc_channels::ScatterCombine::new(env, sum),)
    }

    fn compute(
        &self,
        v: &mut pc_channels::VertexCtx<'_>,
        value: &mut f64,
        ch: &mut Self::Channels,
    ) {
        let nbrs = self.g.neighbors(v.id);
        let (early, late) = nbrs.split_at(nbrs.len() / 2);
        if v.step() == 1 {
            early.iter().for_each(|&t| ch.0.add_edge(v.local, t));
        } else if v.step() == self.late {
            late.iter().rev().for_each(|&t| ch.0.add_edge(v.local, t));
        }
        *value += ch.0.get_or_identity(v.local);
        if v.step() <= self.last {
            ch.0.set_message(v.local, 10f64.powi(v.id as i32 % 24 - 12));
        } else {
            v.vote_to_halt();
        }
    }
}

/// A [`LateRegistration`] run over [`directed`], values as bits.
fn late_registration(late: u64, last: u64) -> impl Fn(&Config) -> (Vec<u64>, RunStats) {
    let g = directed();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    move |cfg| {
        let algo = LateRegistration {
            g: Arc::clone(&g),
            late,
            last,
        };
        let o = pc_channels::run(&algo, &topo, cfg);
        (o.values.iter().map(|v| v.to_bits()).collect(), o.stats)
    }
}

/// The tables files in `store`, by name, sorted.
fn tables_files(store: &Store) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(store.tables_dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// Every rank's tables file of `superstep`, by name.
fn tables_of(superstep: u64) -> Vec<String> {
    (0..WORKERS)
        .map(|rank| format!("rank-{rank:04}-s{superstep:010}.seg"))
        .collect()
}

#[test]
fn scatter_registration_after_restore_resumes() {
    // Cadence 4 over 8 supersteps commits epoch 4 only (8 is the terminal
    // boundary): the resumed run restores before the late registration.
    resumable("scatter_late_registration", 4, late_registration(6, 7));
}

/// A late registration moves the generation: the boundary after it
/// writes a second tables file, the epochs before it keep linking the
/// first, and a resume from any of them — before, at or after the late
/// registration — reproduces the plain run.
#[test]
fn a_late_registration_writes_a_second_tables_file_and_every_epoch_restores() {
    let run = late_registration(6, 7);
    let dir = temp_dir("late_tables");
    let _ = std::fs::remove_dir_all(&dir);
    run(&ckpt_cfg(2, &dir));
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.committed_steps().unwrap(), vec![4, 6]);
    let mut both = [tables_of(2), tables_of(6)].concat();
    both.sort();
    assert_eq!(tables_files(&store), both);
    for (epoch, tables) in [(4, 2), (6, 6)] {
        let snap = store.read_snapshot(epoch, 0).unwrap();
        assert_eq!(snap.tables.unwrap().0.superstep, tables, "epoch {epoch}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    resumes_from_every_epoch("scatter_late_tables", 2, run);
}

/// A torn tables file fails every epoch that links it — the scan falls
/// back to an epoch linking an intact one, or finds none and the run
/// starts cold; a typed decision either way, with identical results.
#[test]
fn a_torn_tables_file_falls_back_or_cold_starts() {
    let run = late_registration(6, 7);
    let dir = temp_dir("torn_tables");
    let _ = std::fs::remove_dir_all(&dir);
    let (plain_values, plain_stats) = run(&Config::with_workers(WORKERS));
    let cfg = ckpt_cfg(2, &dir);
    run(&cfg);
    let store = Store::open(&dir).unwrap();
    let id = store.read_manifest(6).unwrap().id;
    // A fresh store per scan: a store caches the epochs it validated.
    let restorable = || Store::open(&dir).unwrap().latest_restorable(&id).unwrap();
    let tear = |superstep: u64, rank: u32| {
        let victim = store.tables_path(superstep, rank);
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
    };
    // Epoch 6 links the second tables file, epoch 4 the first.
    tear(6, 3);
    assert_eq!(restorable().unwrap().superstep, 4);
    let (values, stats) = run(&cfg);
    assert_eq!(values, plain_values, "fallback to epoch 4");
    assert_stats_agree("plain vs fallback past torn tables", &plain_stats, &stats);
    // The replay wrote epoch 6's tables again; now tear one of each.
    assert_eq!(restorable().unwrap().superstep, 6);
    tear(2, 0);
    tear(6, 0);
    assert_eq!(restorable(), None);
    let (values, stats) = run(&cfg);
    assert_eq!(values, plain_values, "cold start");
    assert_stats_agree("plain vs cold start past torn tables", &plain_stats, &stats);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `gc` keeps a tables file as long as a kept epoch links it — PageRank's
/// one file outlives the epoch that wrote it — and drops it once none
/// does: after a late registration, the first file is an orphan.
#[test]
fn gc_keeps_linked_tables_files_and_drops_orphans() {
    let g = directed();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    let dir = temp_dir("gc_tables");
    let _ = std::fs::remove_dir_all(&dir);
    pc_algos::pagerank::channel_scatter(&g, &topo, &ckpt_cfg(2, &dir), 9);
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.committed_steps().unwrap(), vec![6, 8]);
    assert!(!store.step_dir(2).exists());
    assert_eq!(
        tables_files(&store),
        tables_of(2),
        "linked by epochs 6 and 8"
    );

    let _ = std::fs::remove_dir_all(&dir);
    late_registration(4, 11)(&ckpt_cfg(2, &dir));
    assert_eq!(store.committed_steps().unwrap(), vec![8, 10]);
    assert_eq!(
        tables_files(&store),
        tables_of(4),
        "the first file is an orphan"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pagerank_basic_resumes() {
    let g = directed();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    resumable("pagerank_basic", 4, |cfg| {
        let o = pc_algos::pagerank::channel_basic(&g, &topo, cfg, 10);
        (o.ranks, o.stats)
    });
}

#[test]
fn pagerank_mirror_resumes() {
    let g = directed();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    resumable("pagerank_mirror", 3, |cfg| {
        let o = pc_algos::pagerank::channel_mirror(&g, &topo, cfg, 10, 8);
        (o.ranks, o.stats)
    });
}

/// The skew-resistant composition checkpoints and resumes with a
/// shipped mirror plan attached: a restored Mirror channel pre-wires
/// from the plan, then `decode_state` overwrites its tables with the
/// checkpointed (equally pre-wired) state — the run must be
/// indistinguishable either way, mirror counters included.
#[test]
fn wcc_mirror_resumes_with_a_shipped_plan() {
    let g = undirected();
    let owners = pc_graph::partition::ldg_deg(&*g, WORKERS, 2);
    let base = Topology::from_owners(WORKERS, owners);
    let tau = pc_graph::partition::default_mirror_threshold(&*g);
    let plan = pc_graph::partition::build_mirror_plan(&*g, &base, tau);
    let topo = Arc::new(base.with_mirror(Arc::new(plan)));
    resumable("wcc_mirror", 2, |cfg| {
        let o = pc_algos::wcc::channel_mirror(&g, &topo, cfg, tau);
        (o.labels, o.stats)
    });
}

/// A channel that is snapshotted into a freshly constructed instance at
/// the top of every `serialize` — after `compute` has staged its
/// registrations, seeds and broadcasts, before the channel's `finalize`
/// has merged or routed any of them. The engine only snapshots at
/// superstep boundaries, where those lists are empty; this is the state
/// `encode_state` must carry for a snapshot taken anywhere else.
struct Respawned<C> {
    inner: C,
    fresh: Box<dyn Fn() -> C + Send>,
}

impl<C> Respawned<C> {
    fn new(fresh: impl Fn() -> C + Send + 'static) -> Self {
        Respawned {
            inner: fresh(),
            fresh: Box::new(fresh),
        }
    }
}

impl<AV, C: pc_channels::Channel<AV>> pc_channels::Channel<AV> for Respawned<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn before_superstep(&mut self, step: u64) {
        self.inner.before_superstep(step);
    }
    fn serialize(&mut self, cx: &mut pc_channels::SerializeCx<'_>) {
        let encode = |ch: &C| {
            let (mut tables, mut state) = (Vec::new(), Vec::new());
            ch.encode_tables(&mut tables);
            assert!(ch.encode_state(&mut state));
            (tables, state)
        };
        let (tables, state) = encode(&self.inner);
        self.inner = (self.fresh)();
        let mut r = pc_bsp::Reader::new(&tables);
        self.inner.decode_tables(&mut r);
        assert!(r.is_empty(), "{}: tables left undecoded", self.inner.name());
        let mut r = pc_bsp::Reader::new(&state);
        self.inner.decode_state(&mut r);
        assert!(r.is_empty(), "{}: state left undecoded", self.inner.name());
        assert!(
            encode(&self.inner) == (tables, state),
            "{}: tables or state moved in a round trip",
            self.inner.name()
        );
        self.inner.serialize(cx);
    }
    fn deserialize(&mut self, cx: &mut pc_channels::DeserializeCx<'_, AV>) {
        self.inner.deserialize(cx);
    }
    fn again(&self) -> bool {
        self.inner.again()
    }
    fn message_count(&self) -> u64 {
        self.inner.message_count()
    }
    fn mirror_stats(&self) -> (u64, u64) {
        self.inner.mirror_stats()
    }
}

/// `pc_algos::wcc`'s mirror variant over [`Respawned`] channels.
struct RespawnedWccMirror {
    g: Arc<pc_graph::Graph>,
    tau: usize,
}

impl pc_channels::Algorithm for RespawnedWccMirror {
    type Value = u32;
    type Channels = (
        Respawned<pc_channels::Propagation<u32>>,
        Respawned<pc_channels::Mirror<u32>>,
    );

    fn channels(&self, env: &pc_channels::WorkerEnv) -> Self::Channels {
        let (prop_env, mirror_env, tau) = (env.clone(), env.clone(), self.tau);
        let min = pc_channels::Combine::min_u32;
        (
            Respawned::new(move || pc_channels::Propagation::new(&prop_env, min())),
            Respawned::new(move || pc_channels::Mirror::new(&mirror_env, min(), tau)),
        )
    }

    fn compute(
        &self,
        v: &mut pc_channels::VertexCtx<'_>,
        label: &mut u32,
        ch: &mut Self::Channels,
    ) {
        let (prop, mirror) = (&mut ch.0.inner, &mut ch.1.inner);
        let hub = self.g.degree(v.id) >= mirror.threshold();
        if v.step() == 1 {
            *label = v.id;
            if hub {
                mirror.add_edges(v.local, self.g.neighbors(v.id));
                mirror.send_to_neighbors(v.local, v.id, v.id);
            } else {
                prop.add_edges(v.local, self.g.neighbors(v.id));
            }
            prop.set_value(v.local, v.id);
            return;
        }
        let mut next = (*label).min(*prop.get_value(v.local));
        if let Some(&m) = mirror.get_message(v.local) {
            next = next.min(m);
        }
        if next < *prop.get_value(v.local) {
            prop.set_value(v.local, next);
        }
        if next < *label {
            *label = next;
            if hub {
                mirror.send_to_neighbors(v.local, v.id, next);
            }
        }
        v.vote_to_halt();
    }
}

/// Staged edges, staged seeds and staged broadcasts survive a snapshot
/// taken between registration and the first `finalize` — with the mirror
/// tables shipped by a plan and shipped in-band — and the run is
/// indistinguishable from one that was never snapshotted.
#[test]
fn wcc_mirror_survives_a_snapshot_before_the_first_finalize() {
    let g = undirected();
    let owners = pc_graph::partition::ldg_deg(&*g, WORKERS, 2);
    let tau = pc_graph::partition::default_mirror_threshold(&*g);
    let plan = pc_graph::partition::build_mirror_plan(
        &*g,
        &Topology::from_owners(WORKERS, owners.clone()),
        tau,
    );
    assert!(!plan.hubs.is_empty());
    let in_band = Topology::from_owners(WORKERS, owners);
    let wired = in_band.clone().with_mirror(Arc::new(plan));
    for (name, topo) in [("plan", Arc::new(wired)), ("in-band", Arc::new(in_band))] {
        let cfg = Config::with_workers(WORKERS);
        let plain = pc_algos::wcc::channel_mirror(&g, &topo, &cfg, tau);
        let algo = RespawnedWccMirror {
            g: Arc::clone(&g),
            tau,
        };
        let respawned = pc_channels::run(&algo, &topo, &cfg);
        assert_eq!(respawned.values, plain.labels, "{name}");
        assert!(plain.stats.mirrored_msgs() > 0, "{name}");
        assert_stats_agree(
            &format!("wcc mirror, {name} tables (plain vs snapshotted mid-superstep)"),
            &plain.stats,
            &respawned.stats,
        );
    }
}

#[test]
fn wcc_propagation_resumes() {
    let g = undirected();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    // Propagation converges in 2 supersteps; cadence 1 checkpoints the
    // boundary after superstep 1 — mid-fixpoint channel state included.
    resumable("wcc_propagation", 1, |cfg| {
        let o = pc_algos::wcc::channel_propagation(&g, &topo, cfg);
        (o.labels, o.stats)
    });
}

/// A run with a single boundary never reaches a second one to commit the
/// first at: the end-of-run drain does, so the finished run still leaves
/// its epoch committed (`benchmark/`'s layer pass reads it back).
#[test]
fn the_only_epoch_is_committed_by_the_end_of_run_drain() {
    let g = undirected();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    let dir = temp_dir("drain");
    let _ = std::fs::remove_dir_all(&dir);
    let o = pc_algos::wcc::channel_propagation(&g, &topo, &ckpt_cfg(1, &dir));
    assert_eq!(o.stats.supersteps, 2);
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.committed_steps().unwrap(), vec![1]);
    assert!(store.read_manifest(1).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wcc_basic_resumes() {
    let g = undirected();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    resumable("wcc_basic", 2, |cfg| {
        let o = pc_algos::wcc::channel_basic(&g, &topo, cfg);
        (o.labels, o.stats)
    });
}

#[test]
fn sv_both_resumes() {
    let g = undirected();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    resumable("sv_both", 2, |cfg| {
        let o = pc_algos::sv::channel_both(&g, &topo, cfg);
        (o.labels, o.stats)
    });
}

#[test]
fn scc_propagation_resumes() {
    let g = directed();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    resumable("scc_propagation", 2, |cfg| {
        let o = pc_algos::scc::channel_propagation(&g, &topo, cfg);
        (o.labels, o.stats)
    });
}

#[test]
fn sssp_propagation_resumes() {
    let g = Arc::new(gen::grid2d_weighted(14, 14, 9, 21));
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    resumable("sssp_propagation", 1, |cfg| {
        let o = pc_algos::sssp::channel_propagation(&g, &topo, cfg, 0);
        (o.dist, o.stats)
    });
}

#[test]
fn bfs_resumes() {
    let g = undirected();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    resumable("bfs", 1, |cfg| {
        let o = pc_algos::kernels::bfs(&g, &topo, cfg, 0);
        (o.level, o.stats)
    });
}

#[test]
fn kcore_resumes() {
    let g = undirected();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    resumable("kcore", 1, |cfg| {
        let o = pc_algos::kernels::kcore(&g, &topo, cfg, 2);
        (o.in_core, o.stats)
    });
}

#[test]
fn msf_resumes() {
    let g = Arc::new(gen::rmat_weighted(
        8,
        1200,
        gen::RmatParams::default(),
        13,
        false,
        1000,
    ));
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    resumable("msf", 2, |cfg| {
        let o = pc_algos::msf::channel_basic(&g, &topo, cfg);
        ((o.total_weight, o.edge_count), o.stats)
    });
}

/// The simulated multi-process shape (one engine driver per rank over a
/// shared loopback mesh) checkpoints and resumes identically too — the
/// same path real `pcgraph --rank N` processes take.
#[test]
fn multirank_checkpointing_is_transparent() {
    let g = directed();
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    let run = |cfg: &Config| {
        let o = pc_algos::pagerank::channel_scatter(&g, &topo, cfg, 12);
        (o.ranks, o.stats)
    };
    let dir = temp_dir("multirank");
    let _ = std::fs::remove_dir_all(&dir);
    let (plain_values, plain_stats) = common::run_multirank(WORKERS, &run);
    let policy = CkptPolicy {
        every: 3,
        dir: dir.clone(),
    };
    let run_ck = |cfg: &Config| {
        run(&Config {
            ckpt: Some(policy.clone()),
            ..cfg.clone()
        })
    };
    let (ck_values, ck_stats) = common::run_multirank(WORKERS, &run_ck);
    assert_eq!(ck_values, plain_values);
    assert_stats_agree(
        "multirank (plain vs checkpointing)",
        &plain_stats,
        &ck_stats,
    );
    let store = Store::open(&dir).unwrap();
    assert!(!store.committed_steps().unwrap().is_empty());
    // Resume through the rank driver.
    let (res_values, res_stats) = common::run_multirank(WORKERS, &run_ck);
    assert_eq!(res_values, plain_values);
    assert_stats_agree("multirank (plain vs resumed)", &plain_stats, &res_stats);
    let _ = std::fs::remove_dir_all(&dir);
}
