//! Property-based coverage of the checkpoint codec (`pc_ckpt`): segment
//! and manifest round trips must be byte-exact for arbitrary payloads —
//! including payloads built from every value type the shipped algorithms
//! checkpoint — a torn (truncated) segment must make the restore scan
//! fall back to the previous complete epoch, never crash or restore
//! garbage, and every kind of damage the file digest is there to catch
//! must be a typed `Corrupt`, never a panic.

use pc_bsp::{Codec, Reader};
use pc_ckpt::{digest, CkptError, Manifest, RunId, Segment, Store};
use proptest::prelude::*;
use std::path::PathBuf;

fn temp_store(tag: &str) -> Store {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "pc_ckpt_prop_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    Store::open(dir).unwrap()
}

fn cleanup(store: &Store) {
    let _ = std::fs::remove_dir_all(store.dir());
}

/// Write a full epoch (every rank's segment + the manifest) with the
/// given per-rank payloads; returns the committed manifest.
fn write_epoch(store: &Store, id: &RunId, superstep: u64, payloads: &[Vec<u8>]) -> Manifest {
    let mut digests = Vec::new();
    for (rank, payload) in payloads.iter().enumerate() {
        store
            .write_segment(&Segment {
                superstep,
                rounds: superstep * 3,
                rank: rank as u32,
                workers: payloads.len() as u32,
                payload: payload.clone(),
            })
            .unwrap();
        digests.push(store.segment_digest(superstep, rank as u32).unwrap());
    }
    let m = Manifest {
        id: id.clone(),
        superstep,
        rounds: superstep * 3,
        digests,
    };
    store.commit(&m).unwrap();
    m
}

/// Encode a typed value vector exactly the way a worker snapshot does
/// (count + per-value codec bytes).
fn typed_payload<T: Codec>(values: &[T]) -> Vec<u8> {
    let mut buf = Vec::new();
    (values.len() as u64).encode(&mut buf);
    for v in values {
        v.encode(&mut buf);
    }
    buf
}

/// Decode it back, byte-exactly.
fn decode_typed<T: Codec>(payload: &[u8]) -> Vec<T> {
    let mut r = Reader::new(payload);
    let n: u64 = r.get();
    let out = (0..n).map(|_| r.get()).collect();
    assert!(r.is_empty(), "trailing bytes after typed payload");
    out
}

/// A segment written under the previous format version (3) —
/// byte-identical but for the version field, digest valid — is refused by
/// that name, not parsed as if its payload had today's layout.
#[test]
fn previous_format_version_is_refused_by_name() {
    let store = temp_store("oldver");
    let seg = Segment {
        superstep: 3,
        rounds: 9,
        rank: 0,
        workers: 1,
        payload: vec![7; 64],
    };
    store.write_segment(&seg).unwrap();
    let path = store.segment_path(3, 0);
    let mut bytes = std::fs::read(&path).unwrap();
    let body = bytes.len() - 8;
    assert_eq!(bytes[8..12], pc_ckpt::FORMAT_VERSION.to_le_bytes());
    bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
    let trailer = digest(&bytes[..body]);
    bytes[body..].copy_from_slice(&trailer.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let err = store.read_segment(3, 0).unwrap_err().to_string();
    assert!(err.contains("unsupported format version 3"), "{err}");
    cleanup(&store);
}

/// `bytes` written as segment 1 of rank 0, then read back: it must be
/// refused as a typed `Corrupt` — not an I/O error, not a panic.
fn assert_refused(store: &Store, bytes: &[u8], what: &str) {
    std::fs::write(store.segment_path(1, 0), bytes).unwrap();
    match store.read_segment(1, 0) {
        Err(CkptError::Corrupt { .. }) => {}
        other => panic!("{what}: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary payload bytes survive the segment file round trip
    /// byte-exactly, and the stored digest is the content digest.
    #[test]
    fn segment_roundtrip_arbitrary_payloads(
        payload in proptest::collection::vec(any::<u8>(), 0..2000),
        superstep in 1u64..1_000_000,
        rank in 0u32..64,
    ) {
        let store = temp_store("seg");
        let seg = Segment { superstep, rounds: superstep + 7, rank, workers: 64, payload };
        let digest = store.write_segment(&seg).unwrap();
        prop_assert_eq!(store.segment_digest(superstep, rank).unwrap(), digest);
        let back = store.read_segment(superstep, rank).unwrap();
        prop_assert_eq!(back, seg);
        cleanup(&store);
    }

    /// Manifests round-trip exactly: identity, counters and every
    /// per-rank digest.
    #[test]
    fn manifest_roundtrip(
        workers in 1u32..16,
        superstep in 1u64..1_000_000,
        n in 0u64..1_000_000,
        algo_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let store = temp_store("man");
        let algo = format!("prop::Algo<{algo_seed:#x}>");
        let digests: Vec<u64> =
            (0..workers as u64).map(|r| digest(&(seed ^ r).to_le_bytes())).collect();
        let m = Manifest {
            id: RunId { workers, n, algo },
            superstep,
            rounds: superstep * 2 + 1,
            digests,
        };
        store.commit(&m).unwrap();
        prop_assert_eq!(store.read_manifest(superstep).unwrap(), m);
        cleanup(&store);
    }

    /// Payloads built from every shipped algorithm's value type —
    /// PageRank `f64`, the label algorithms' `u32`, SSSP `u64`, k-core
    /// `bool`, MSF's `(u64, u64)` summary — round-trip through a full
    /// epoch byte-exactly and decode back to the same values.
    #[test]
    fn all_shipped_value_types_roundtrip(
        ranks_f64 in proptest::collection::vec(any::<f64>(), 1..80),
        labels_u32 in proptest::collection::vec(any::<u32>(), 1..80),
        dists_u64 in proptest::collection::vec(any::<u64>(), 1..80),
        cores_bool in proptest::collection::vec(any::<bool>(), 1..80),
        msf_weights in proptest::collection::vec(any::<u64>(), 1..80),
        msf_counts in proptest::collection::vec(any::<u64>(), 1..80),
    ) {
        let msf_pairs: Vec<(u64, u64)> = msf_weights
            .iter()
            .zip(&msf_counts)
            .map(|(&w, &c)| (w, c))
            .collect();
        let store = temp_store("typed");
        let payloads = vec![
            typed_payload(&ranks_f64),
            typed_payload(&labels_u32),
            typed_payload(&dists_u64),
            typed_payload(&cores_bool),
            typed_payload(&msf_pairs),
        ];
        let id = RunId { workers: 5, n: 80, algo: "prop::AllTypes".into() };
        let committed = write_epoch(&store, &id, 4, &payloads);
        let restored = store.latest_restorable(&id).unwrap().unwrap();
        prop_assert_eq!(&restored, &committed);
        // Byte-exact payloads back out of the validated segments…
        for (rank, payload) in payloads.iter().enumerate() {
            let seg = store.read_segment(4, rank as u32).unwrap();
            prop_assert_eq!(&seg.payload, payload);
        }
        // …and value-exact decodes (bitwise for f64: checkpoints must
        // not perturb floating-point state in any way).
        let f64_bits: Vec<u64> = ranks_f64.iter().map(|v| v.to_bits()).collect();
        let back_bits: Vec<u64> = decode_typed::<f64>(&store.read_segment(4, 0).unwrap().payload)
            .iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(back_bits, f64_bits);
        prop_assert_eq!(decode_typed::<u32>(&store.read_segment(4, 1).unwrap().payload), labels_u32);
        prop_assert_eq!(decode_typed::<u64>(&store.read_segment(4, 2).unwrap().payload), dists_u64);
        prop_assert_eq!(decode_typed::<bool>(&store.read_segment(4, 3).unwrap().payload), cores_bool);
        prop_assert_eq!(decode_typed::<(u64, u64)>(&store.read_segment(4, 4).unwrap().payload), msf_pairs);
        cleanup(&store);
    }

    /// Each kind of damage changes the digest, and a validated read turns
    /// it into a typed `Corrupt`: every single-bit flip of the file (its
    /// trailer included), two swapped 8-byte words, every truncation, and
    /// a buffer of equal content but another length.
    #[test]
    fn every_damage_is_a_typed_corrupt(
        payload in proptest::collection::vec(any::<u8>(), 0..80),
        fill in any::<u8>(),
        swap_a in any::<usize>(),
        swap_b in any::<usize>(),
    ) {
        let store = temp_store("damage");
        let seg = Segment { superstep: 1, rounds: 3, rank: 0, workers: 1, payload };
        store.write_segment(&seg).unwrap();
        let path = store.segment_path(1, 0);
        let file = std::fs::read(&path).unwrap();
        let body = file.len() - 8;
        prop_assert_eq!(&file[body..], &digest(&file[..body]).to_le_bytes()[..]);

        for bit in 0..file.len() * 8 {
            let mut flipped = file.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if bit < body * 8 {
                prop_assert!(digest(&flipped[..body]) != digest(&file[..body]), "bit {}", bit);
            }
            assert_refused(&store, &flipped, &format!("bit {bit} flipped"));
        }

        let words = body / 8;
        let (a, b) = (swap_a % words, swap_b % words);
        let mut swapped = file.clone();
        let (wa, wb) = (file[8 * a..8 * a + 8].to_vec(), file[8 * b..8 * b + 8].to_vec());
        swapped[8 * a..8 * a + 8].copy_from_slice(&wb);
        swapped[8 * b..8 * b + 8].copy_from_slice(&wa);
        if wa != wb {
            prop_assert!(digest(&swapped[..body]) != digest(&file[..body]), "words {} and {}", a, b);
            assert_refused(&store, &swapped, &format!("words {a} and {b} swapped"));
        }

        for cut in 0..file.len() {
            assert_refused(&store, &file[..cut], &format!("cut to {cut} bytes"));
        }

        let same: Vec<u64> = (0..100).map(|len| digest(&vec![fill; len])).collect();
        for (len, d) in same.iter().enumerate() {
            prop_assert!(!same[..len].contains(d), "{} bytes of {}", len, fill);
        }
        let mut longer = file[..body].to_vec();
        longer.push(fill);
        longer.extend_from_slice(&file[body..]);
        assert_refused(&store, &longer, "one byte longer");
        cleanup(&store);
    }

    /// Truncating any segment of the newest epoch at any point (even to
    /// zero bytes) makes the restore fall back to the previous complete
    /// epoch — a typed decision, never a panic and never a partial
    /// restore of the torn epoch.
    #[test]
    fn torn_segment_falls_back(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 8..256), 2..5),
        victim_seed in any::<usize>(),
        cut_seed in any::<usize>(),
    ) {
        let store = temp_store("torn");
        let id = RunId { workers: payloads.len() as u32, n: 9, algo: "prop::Torn".into() };
        let older = write_epoch(&store, &id, 2, &payloads);
        write_epoch(&store, &id, 4, &payloads);
        let victim_rank = (victim_seed % payloads.len()) as u32;
        let victim = store.segment_path(4, victim_rank);
        let bytes = std::fs::read(&victim).unwrap();
        let cut = cut_seed % bytes.len(); // strictly shorter than the file
        std::fs::write(&victim, &bytes[..cut]).unwrap();
        prop_assert_eq!(store.latest_restorable(&id).unwrap(), Some(older));
        cleanup(&store);
    }
}
