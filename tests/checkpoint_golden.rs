//! Golden pin of the checkpoint directory's bytes.
//!
//! The on-disk format is a contract with every directory already written:
//! a segment's framing, the engine's payload layout and each channel's
//! `encode_state` must not move unless `FORMAT_VERSION` does. For two
//! fixed 4-worker runs at cadence 2 — PageRank over `ScatterCombine`, and
//! S-V with request-respond and scatter composed — this pins which epochs
//! the finished run leaves committed and the `fnv64` of every `MANIFEST`
//! and `rank-*.seg` in them.
//!
//! The pinned values were recorded at commit 25525bc (the synchronous
//! writer) under format version 2. Version 3 changed the `Mirror` and
//! `Propagation` channels' state, which neither run has: what these two
//! runs write must differ from the version-2 bytes in the version word
//! alone. So the pins stay the version-2 ones, and each file is compared
//! after putting that word back — and what follows from it: a file's
//! trailing digest, and in a `MANIFEST` the per-rank digests it pins.

use pc_bsp::{CkptPolicy, Config, Topology};
use pc_ckpt::{fnv64, Store};
use pc_graph::gen;
use std::sync::Arc;

const WORKERS: usize = 4;

/// `(committed step, MANIFEST digest, per-rank segment digests)`.
type Epoch = (u64, u64, [u64; WORKERS]);

/// The file as format version 2 would have written it: the version word
/// (after the 8-byte magic) set back, a `MANIFEST`'s trailing list of
/// per-rank segment digests replaced by `pinned_segments`, and the file's
/// own trailing digest recomputed. Returns the rewritten file's trailing
/// digest and the digest of the whole file.
fn as_version_2(path: &std::path::Path, pinned_segments: &[u64]) -> (u64, u64) {
    let mut bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(bytes[8..12], pc_ckpt::FORMAT_VERSION.to_le_bytes());
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    let body = bytes.len() - 8;
    let pins = body - 8 * pinned_segments.len();
    for (slot, digest) in bytes[pins..body].chunks_exact_mut(8).zip(pinned_segments) {
        slot.copy_from_slice(&digest.to_le_bytes());
    }
    let trailer = fnv64(&bytes[..body]);
    bytes[body..].copy_from_slice(&trailer.to_le_bytes());
    (trailer, fnv64(&bytes))
}

fn pinned(name: &str, run: impl Fn(&Config), want: &[Epoch]) {
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
            let segs: [(u64, u64); WORKERS] =
                std::array::from_fn(|r| as_version_2(&store.segment_path(step, r as u32), &[]));
            let (_, manifest) = as_version_2(&store.manifest_path(step), &segs.map(|s| s.0));
            (step, manifest, segs.map(|s| s.1))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        got, want,
        "{name}: the checkpoint directory's bytes moved:\n{got:#018x?}"
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
                0x5c0975dc4b21d12c,
                [
                    0x6ad1e10bbaa821b5,
                    0x506744d395043877,
                    0x5ce199769ed46d4e,
                    0xde2197228e2df5cd,
                ],
            ),
            (
                8,
                0x5322319e38134e99,
                [
                    0x8a151063d8a305f6,
                    0xe03a3bff7b46b1af,
                    0x8dabfa36fc1f8ee9,
                    0x7f0294b811fd8dac,
                ],
            ),
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
                0xe7eb48a8058a9b2a,
                [
                    0x4528a71feeaa9472,
                    0xca7c361033ad3a9a,
                    0x94db5460fe32c55c,
                    0xc9792f7e0636293a,
                ],
            ),
            (
                16,
                0xb634eaf093ada395,
                [
                    0xd7ec0b37a7bc5d53,
                    0x56249f6fd57be193,
                    0x9c0cce45306da3ed,
                    0x14b16fc7be879e17,
                ],
            ),
        ],
    );
}
