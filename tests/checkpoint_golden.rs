//! Golden pin of the checkpoint directory's bytes.
//!
//! The on-disk format is a contract with every directory already written:
//! a file's framing, the engine's payload layout, each channel's
//! `encode_state`/`encode_tables` and the file digest must not move unless
//! `FORMAT_VERSION` does. For three fixed 4-worker runs at cadence 2 —
//! PageRank over `ScatterCombine`, S-V with request-respond and scatter
//! composed, and WCC over `Mirror` pre-wired from a shipped mirror plan —
//! this pins which epochs the finished run leaves
//! committed, the [`digest`] of every `MANIFEST` and `rank-*.seg` in them,
//! and the tables files: exactly one per rank (the registration tables are
//! written once, not per epoch), each pinned the same way.
//!
//! Recorded under format version 4. The pins of versions 2 and 3 were
//! compared after writing the version-2 word back into each file, since
//! version 3 changed nothing these runs write; version 4 changes their
//! bytes themselves — the trailing digests, the segment header's tables
//! link, and which state sits in a segment and which in a tables file — so
//! that normalization no longer applies and the pins were re-recorded.
//! The mirrored run's pins were recorded while `Mirror` still copied its
//! plan-wired ghost tables out of the plan; reading them in place must not
//! move a byte.

use pc_bsp::{CkptPolicy, Config, Topology};
use pc_ckpt::{digest, Store};
use pc_graph::gen;
use std::path::Path;
use std::sync::Arc;

const WORKERS: usize = 4;

/// `(committed step, MANIFEST digest, per-rank segment digests)`.
type Epoch = (u64, u64, [u64; WORKERS]);
/// Per rank: `(superstep its tables file was written at, file digest)`.
type Tables = [(u64, u64); WORKERS];

fn file_digest(path: &Path) -> u64 {
    digest(&std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
}

fn pinned(name: &str, run: impl Fn(&Config), want: &[Epoch], want_tables: Tables) {
    let dir = std::env::temp_dir().join(format!("pc_ckpt_golden_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    run(&Config {
        ckpt: Some(CkptPolicy {
            every: 2,
            dir: dir.clone(),
        }),
        ..Config::with_workers(WORKERS)
    });
    let store = Store::open(&dir).unwrap();
    let got: Vec<Epoch> = store
        .committed_steps()
        .unwrap()
        .into_iter()
        .map(|step| {
            let segs = std::array::from_fn(|r| file_digest(&store.segment_path(step, r as u32)));
            (step, file_digest(&store.manifest_path(step)), segs)
        })
        .collect();
    let files = std::fs::read_dir(store.tables_dir()).unwrap().count();
    let got_tables: Tables = std::array::from_fn(|r| {
        let step = want_tables[r].0;
        (step, file_digest(&store.tables_path(step, r as u32)))
    });
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(files, WORKERS, "{name}: one tables file per rank");
    assert_eq!(
        (got, got_tables),
        (want.to_vec(), want_tables),
        "{name}: the checkpoint directory's bytes moved"
    );
}

#[test]
fn pagerank_scatter_directory_is_pinned() {
    let g = Arc::new(gen::rmat(8, 1800, gen::RmatParams::default(), 12, true));
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    pinned(
        "pagerank_scatter",
        |cfg| drop(pc_algos::pagerank::channel_scatter(&g, &topo, cfg, 9)),
        &[
            (
                6,
                0x230d2c8a20af90b1,
                [
                    0xb2d5610f9b6839a9,
                    0x174443b679718f2c,
                    0x34f923d5fe15fdb1,
                    0x459dd7da724752f2,
                ],
            ),
            (
                8,
                0x4a20786a168c4577,
                [
                    0xe3906dd6302e6aab,
                    0xd5ed047530b5c884,
                    0x0a1557829d53eea5,
                    0xd165c3ed68e79fc7,
                ],
            ),
        ],
        [
            (2, 0xed746fc2ba65b144),
            (2, 0x5eeb558e88fe5e1c),
            (2, 0x480f5ee96d8c5864),
            (2, 0xfa7dbedc9a0d7bd3),
        ],
    );
}

#[test]
fn sv_both_directory_is_pinned() {
    let g = Arc::new(gen::rmat(8, 1400, gen::RmatParams::default(), 11, false).symmetrized());
    let topo = Arc::new(Topology::hashed(g.n(), WORKERS));
    pinned(
        "sv_both",
        |cfg| drop(pc_algos::sv::channel_both(&g, &topo, cfg)),
        &[
            (
                14,
                0x8d3484eff6320f31,
                [
                    0xf93207ad59131d70,
                    0x0da0b6a3f69a56e3,
                    0x94658ba441714762,
                    0x6c4722095beb6788,
                ],
            ),
            (
                16,
                0xe55e90b8095696d3,
                [
                    0xfc38399a38a8c582,
                    0x0e20fee68364bea7,
                    0x56db35a63ed86bfc,
                    0xcc2344aec1e2e962,
                ],
            ),
        ],
        [
            (2, 0x4b80fdfbf1e2763a),
            (2, 0x6f2281730799b7e3),
            (2, 0x64ba1d06ae9c0d4a),
            (2, 0x45b1e6db72ccb51b),
        ],
    );
}

/// Mirrored WCC over a degree-first LDG placement with a shipped mirror
/// plan, built as `checkpoint_resume::wcc_mirror_resumes_with_a_shipped_plan`
/// builds it: the Mirror channel's tables are the plan's pre-wired ghost
/// tables, so this pins their encoding whatever backs them in memory.
#[test]
fn wcc_mirror_plan_directory_is_pinned() {
    let g = Arc::new(gen::rmat(8, 1400, gen::RmatParams::default(), 11, false).symmetrized());
    let owners = pc_graph::partition::ldg_deg(&*g, WORKERS, 2);
    let base = Topology::from_owners(WORKERS, owners);
    let tau = pc_graph::partition::default_mirror_threshold(&*g);
    let plan = pc_graph::partition::build_mirror_plan(&*g, &base, tau);
    // Hubs whose plan-wired ghost tables sit on other workers than their
    // own, so the tables files hold receive-side runs.
    let remote = |hub: &pc_bsp::MirrorHub| {
        let own = base.worker_of(hub.id) as u16;
        hub.targets
            .iter()
            .any(|run| run.0 != own && !run.1.is_empty())
    };
    assert!(plan.hubs.iter().filter(|hub| remote(hub)).count() > 4);
    let topo = Arc::new(base.with_mirror(Arc::new(plan)));
    pinned(
        "wcc_mirror_plan",
        |cfg| drop(pc_algos::wcc::channel_mirror(&g, &topo, cfg, tau)),
        &[(
            2,
            0xc7f0b1d297fed3c8,
            [
                0x8844cd0af3a7a271,
                0x9b8d8f6bda0fc487,
                0x49b9222f2c59864b,
                0xf93887379897561f,
            ],
        )],
        [
            (2, 0x18191eba978ac43e),
            (2, 0x5c688d013ef72d62),
            (2, 0x675eb04141120712),
            (2, 0x07b66c1817eead83),
        ],
    );
}
