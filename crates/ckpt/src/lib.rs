//! # pc-ckpt — superstep checkpointing for the channel engine
//!
//! BSP superstep boundaries are natural consistency points: every worker
//! has finished its exchange rounds, no message is in flight, and the
//! next superstep's frontier is fully decided. This crate stores that
//! state durably so a multi-process run can survive a rank being killed
//! (`pc_dist`'s supervisor respawns it and every rank resumes from the
//! last *committed* checkpoint).
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/step-0000000008/rank-0000.seg     per-rank state snapshot
//!                       rank-0001.seg
//!                       ...
//!                       MANIFEST          commit record (written last)
//! <dir>/tables/rank-0000-s0000000002.seg  per-rank registration tables,
//!              rank-0001-s0000000002.seg  named by the epoch that wrote them
//! ```
//!
//! A checkpoint of superstep `s` is **either complete or invisible**:
//!
//! * a segment reaches its final name only by `*.tmp` → fsync → atomic
//!   rename — a crash mid-write leaves at worst a `.tmp` straggler that
//!   is never read;
//! * the `MANIFEST` (same tmp + fsync + rename discipline) is written
//!   only once *every* rank's segment of that epoch is known durable
//!   (the ack — see *Who writes when*), so a step directory without a
//!   digest-valid manifest is not a checkpoint;
//! * the manifest pins each segment's content digest, so a torn or
//!   truncated segment is detected at restore time and the restore falls
//!   back to the previous complete epoch ([`Store::latest_restorable`]).
//!
//! Every file carries a trailing [`digest`] over its own bytes, and the
//! manifest additionally records each segment's digest — validation never
//! trusts file lengths or headers alone. The digest reads eight bytes at a
//! time into four independent lanes, so hashing keeps up with the disk;
//! any change confined to one aligned 8-byte word (every single-bit flip
//! included) always changes it.
//!
//! The *contents* of a segment payload belong to the engine
//! (`pc_channels::engine` encodes vertex values, frontier, channel state
//! and counters); this crate only frames, digests and commits them.
//!
//! ## Registration tables
//!
//! Most of a worker's checkpointable state on a static-messaging workload
//! is route tables its channels build once, in the first supersteps, and
//! never change again. They live in a **tables file** of their own,
//! written by the epoch at which they last changed and by no other: a
//! segment's header links the tables file it was encoded against by
//! `(superstep, digest)`, the manifest pins the segment's digest, so an
//! epoch pins its tables transitively. A restore validates both files and
//! decodes the tables before the state ([`Store::read_snapshot`]).
//!
//! **Lifetime.** A tables file lives as long as a kept committed epoch
//! names it; [`Store::gc`] deletes the others, except those newer than the
//! newest commit (an epoch in flight may name them). One tables file
//! usually serves every epoch of a run, so bit rot in it costs every epoch
//! that names it: the restore scan then finds no restorable epoch of that
//! lineage and falls back to whatever older epoch names an intact file, or
//! starts cold — typed, never a partial restore.
//!
//! ## Who writes when
//!
//! Nothing but the snapshot itself happens on a worker's superstep path.
//! On the superstep that ends at the boundary of epoch *e* a worker
//!
//! 1. after compute and before the superstep's first exchange, takes back
//!    the buffer of epoch *e−1* from its [`Writer`] ([`Writer::finish`])
//!    — a wait only when the disk needed longer than one checkpoint
//!    interval of compute, and the point where a write that failed
//!    surfaces (fatally: a rank that could not persist its state never
//!    gets to the exchange that acks it);
//! 2. once the superstep's exchanges are done, encodes epoch *e* in place
//!    into that buffer, straight behind the header [`begin_segment`] put
//!    there, and closes it with [`seal_segment`] — no second copy of the
//!    state exists;
//! 3. acks nothing explicitly: no exchange completes on any rank before
//!    every rank has entered it, so every rank's step 1 is done by the
//!    time any rank gets here, and every segment of *e−1* is durable;
//! 4. hands the buffer to the writer ([`Writer::submit`]) — with a tables
//!    file in front of it when the worker's tables changed since it last
//!    wrote one — whose thread digests each and does tmp → `write` →
//!    `fsync` → rename → directory `fsync` while the next supersteps
//!    compute: tables first, then the segment, its header linked to the
//!    worker's newest tables file before it is digested. Worker 0's job
//!    first commits the epoch that step 3 found durable
//!    ([`Store::commit_epoch`]: read every rank's trailer, write
//!    `MANIFEST` *e−1*, collect garbage) — a small fsync that would
//!    otherwise queue behind every rank's segment write on the superstep
//!    path.
//!
//! When the run ends, one more `finish`, one words-only exchange (the
//! ack, as in step 3) and an inline commit drain the last epoch, so a
//! finished run leaves every epoch it took committed. An epoch costs
//! nothing on the wire.
//!
//! **Commit lag.** An epoch becomes restorable one boundary after it was
//! taken. With a checkpoint every `k` supersteps a failure therefore
//! replays at most `2k − 1` supersteps (`k − 1` when the commit was
//! synchronous): a kill during epoch *e*'s write, or after it and before
//! the next boundary's commit, restores *e−1*. The segments of the
//! uncommitted epoch stay where they are — [`Store::gc`] spares anything
//! newer than the newest commit — and the replay overwrites them. A
//! commit collects garbage as of itself: committed epochs newer than it
//! belong to an earlier attempt the replay is rewriting (they did not
//! restore), so they are left to it, in-flight `.tmp`s included.
//!
//! **Why `Drop` joins.** A worker that unwinds (a peer died; `pcgraph`
//! catches the panic, rebuilds the mesh and re-enters the engine) drops
//! its `Writer`, and the drop waits for the job in flight. Otherwise the
//! replayed epoch and the stale job would race for the same `.tmp`.

use pc_bsp::{Codec, Reader};
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Magic prefix of a segment file ("pcSEG\x01" padded).
pub const SEGMENT_MAGIC: u64 = 0x0100_4745_5363_7000;
/// Magic prefix of a manifest file ("pcMAN\x01" padded).
pub const MANIFEST_MAGIC: u64 = 0x0100_4e41_4d63_7000;
/// Magic prefix of a control-replica commit record ("pcCTL\x01" padded).
pub const CTRL_MAGIC: u64 = 0x0100_4c54_4363_7000;
/// Magic prefix of the coordinator advertisement ("pcADV\x01" padded).
pub const ADVERT_MAGIC: u64 = 0x0100_5644_4163_7000;
/// Magic prefix of a registration-tables file ("pcTAB\x01" padded).
pub const TABLES_MAGIC: u64 = 0x0100_4241_5463_7000;
/// On-disk format version; bumped on any layout change. 4: every file is
/// checked by the word-at-a-time [`digest`], and channel registration
/// tables moved out of the segments into tables files the segments link
/// (3 had the `Mirror` and `Propagation` flat adjacency tables in every
/// segment).
pub const FORMAT_VERSION: u32 = 4;
/// Committed epochs the garbage collector keeps: the newest one plus one
/// fallback for the torn-write path.
pub const KEEP_COMMITTED: usize = 2;

/// Odd multipliers of [`digest`]'s lanes (odd, so a lane step is a
/// bijection of the lane).
const LANE_MUL: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x85eb_ca77_c2b2_ae63,
];

/// One multiply–xorshift step: a bijection of `lane` for a fixed `word`
/// and of `word` for a fixed `lane`.
#[inline(always)]
fn lane_step(lane: u64, word: u64, mul: u64) -> u64 {
    let h = (lane ^ word).wrapping_mul(mul);
    h ^ (h >> 29)
}

/// The content digest every checkpoint file carries in its trailer: four
/// independent multiply–xorshift lanes over 32-byte blocks, seeded with
/// the length; the tail's whole and partial (zero-padded) words go one to
/// a lane; the lanes are folded with rotations and a final avalanche.
///
/// Every step is a bijection of the state it updates, so a change
/// confined to one aligned 8-byte word — every single-bit flip — always
/// changes the digest; anything else (swapped words, truncation, a
/// different length) changes it with overwhelming probability. It detects
/// torn writes and bit rot; it is not meant to resist an adversary
/// (checkpoints live on the operator's own disk).
pub fn digest(bytes: &[u8]) -> u64 {
    let word = |b: &[u8]| {
        let mut w = [0u8; 8];
        w[..b.len()].copy_from_slice(b);
        u64::from_le_bytes(w)
    };
    let len = bytes.len() as u64;
    let mut lanes: [u64; 4] = std::array::from_fn(|i| LANE_MUL[i] ^ len.rotate_left(16 * i as u32));
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().expect("8 bytes"));
            *lane = lane_step(*lane, w, LANE_MUL[i]);
        }
    }
    for (i, tail) in blocks.remainder().chunks(8).enumerate() {
        lanes[i] = lane_step(lanes[i], word(tail), LANE_MUL[i]);
    }
    let mut h = len;
    for (i, &lane) in lanes.iter().enumerate() {
        h = lane_step(h, lane.rotate_left(16 * i as u32), LANE_MUL[3 - i]);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// FNV-1a 64-bit digest, one byte at a time. No file format uses it any
/// more ([`digest`] replaced it); it stays for small inputs such as the
/// benchmark's stdout digests.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A checkpointing failure.
#[derive(Debug)]
pub enum CkptError {
    /// An underlying filesystem operation failed.
    Io {
        /// Path involved.
        path: PathBuf,
        /// What was being attempted.
        during: &'static str,
        /// The OS error kind.
        kind: std::io::ErrorKind,
    },
    /// A file exists but fails digest or structural validation.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// The directory holds checkpoints of a *different* run (other
    /// algorithm, worker count or graph) — refusing to restore from them
    /// is a loud error, not a silent cold start.
    Incompatible {
        /// Human-readable mismatch description.
        detail: String,
    },
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io { path, during, kind } => {
                write!(
                    f,
                    "i/o error ({kind:?}) during {during}: {}",
                    path.display()
                )
            }
            CkptError::Corrupt { path, detail } => {
                write!(f, "corrupt checkpoint file {}: {detail}", path.display())
            }
            CkptError::Incompatible { detail } => {
                write!(f, "incompatible checkpoint: {detail}")
            }
        }
    }
}

impl std::error::Error for CkptError {}

fn io_err(path: &Path, during: &'static str, e: std::io::Error) -> CkptError {
    CkptError::Io {
        path: path.to_path_buf(),
        during,
        kind: e.kind(),
    }
}

/// Identity of a run, pinned into every manifest so a checkpoint is only
/// ever restored into the run shape that wrote it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunId {
    /// Cluster width (workers / ranks).
    pub workers: u32,
    /// Total vertices in the graph.
    pub n: u64,
    /// Algorithm tag (the engine uses the algorithm's type name).
    pub algo: String,
}

impl RunId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.workers.encode(buf);
        self.n.encode(buf);
        let bytes = self.algo.as_bytes();
        (bytes.len() as u32).encode(buf);
        buf.extend_from_slice(bytes);
    }

    fn decode(r: &mut Reader<'_>, path: &Path) -> Result<Self, CkptError> {
        let corrupt = |detail: String| CkptError::Corrupt {
            path: path.to_path_buf(),
            detail,
        };
        if r.remaining() < 16 {
            return Err(corrupt("run id truncated".into()));
        }
        let workers = r.get();
        let n = r.get();
        let len: u32 = r.get();
        if r.remaining() < len as usize {
            return Err(corrupt("algo tag truncated".into()));
        }
        let algo = String::from_utf8(r.take(len as usize).to_vec())
            .map_err(|e| corrupt(format!("algo tag is not utf-8: {e}")))?;
        Ok(RunId { workers, n, algo })
    }
}

/// The commit record of one checkpoint epoch, written by rank 0 once
/// every rank's segment of it is known durable.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The run this checkpoint belongs to.
    pub id: RunId,
    /// Superstep the checkpoint was taken after.
    pub superstep: u64,
    /// Exchange rounds completed at that point.
    pub rounds: u64,
    /// Per-rank segment content digests, indexed by rank.
    pub digests: Vec<u64>,
}

/// A segment's link to the registration-tables file it was encoded
/// against: the file's name (the superstep that wrote it, beside the
/// segment's rank) and its content digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TablesRef {
    /// Superstep the tables file was written at.
    pub superstep: u64,
    /// The tables file's content digest.
    pub digest: u64,
}

/// What a worker restores from: its segment and, when the segment links
/// one, the tables file's link and payload.
#[derive(Debug)]
pub struct Snapshot {
    /// The validated segment.
    pub segment: Segment,
    /// The tables file the segment names, validated against its link.
    pub tables: Option<(TablesRef, Vec<u8>)>,
}

/// One rank's state snapshot. The payload bytes are produced and consumed
/// by the engine; this crate treats them as opaque.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Superstep the snapshot was taken after.
    pub superstep: u64,
    /// Exchange rounds completed at that point.
    pub rounds: u64,
    /// The rank whose state this is.
    pub rank: u32,
    /// Cluster width, for cross-checking against the manifest.
    pub workers: u32,
    /// Engine-encoded worker state.
    pub payload: Vec<u8>,
}

/// Replicated control-plane state of one run: everything the coordinator
/// holds that a standby needs to take over after rank 0 dies — the
/// encoded partition plan of every rank (index = rank; rank 0's own plan
/// included so a respawned rank 0 can rejoin as a plain follower), the
/// recovery epoch the replica was shipped at, and which rank is the
/// designated standby. Stored under `<dir>/replica/` with the same
/// per-file + commit-record discipline as checkpoint epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlReplica {
    /// The run this control state belongs to.
    pub id: RunId,
    /// Recovery epoch the replica was last refreshed at.
    pub epoch: u32,
    /// The rank currently designated as standby coordinator.
    pub standby: u32,
    /// One engine-encoded partition plan per rank.
    pub plans: Vec<Vec<u8>>,
}

/// The coordinator advertisement: which rank is *acting* coordinator at
/// which recovery epoch, and where its rendezvous listener is. Written
/// atomically to `<dir>/COORDINATOR` at bootstrap and on every takeover;
/// survivors, respawned ranks (including a respawned rank 0 rejoining as
/// a follower) and the launcher all discover the current coordinator by
/// reading it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Advertisement {
    /// Recovery epoch this advertisement was published at.
    pub epoch: u32,
    /// Rank currently acting as coordinator.
    pub acting: u32,
    /// Rendezvous (control-plane) listener address of the acting rank.
    pub addr: String,
}

/// Trailing digest width on every checkpoint file.
const DIGEST_LEN: usize = 8;
/// File name of the commit record inside a step directory.
const MANIFEST_NAME: &str = "MANIFEST";
/// Directory (under the store root) holding the control-plane replica.
const REPLICA_DIR: &str = "replica";
/// File name of the control-replica commit record.
const CTRL_NAME: &str = "CTRL";
/// File name of the coordinator advertisement at the store root.
const ADVERT_NAME: &str = "COORDINATOR";
/// Directory (under the store root) holding the registration tables.
const TABLES_DIR: &str = "tables";

/// Checkpoint I/O counters of one [`Store`] (shared by its clones): how
/// many bytes hit or left the disk and how long the store spent doing it.
/// The engine's `checkpoint` trace span times what a boundary costs the
/// superstep path (the snapshot; its `stall_us`, any wait for the
/// writer); these time
/// the file I/O itself, wherever it runs — a segment's on its [`Writer`]'s
/// thread, beside the supersteps.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Bytes written (segment/manifest bodies plus their digest trailers).
    pub bytes_written: u64,
    /// Microseconds spent in atomic writes (digest + create + write +
    /// fsync + rename), summed over the threads that made them.
    pub write_us: u64,
    /// Bytes read back (validated reads: restores, digest-checked scans).
    pub bytes_read: u64,
    /// Microseconds spent reading and digest-validating files.
    pub read_us: u64,
}

#[derive(Debug, Default)]
struct IoTally {
    bytes_written: AtomicU64,
    write_us: AtomicU64,
    bytes_read: AtomicU64,
    read_us: AtomicU64,
}

/// A checkpoint directory. Cheap to construct per worker; all methods are
/// `&self` and safe to call concurrently from different ranks (each rank
/// writes only its own segment, rank 0 alone writes manifests).
#[derive(Debug, Clone)]
pub struct Store {
    dir: PathBuf,
    io: Arc<IoTally>,
    /// Epochs whose segments all validated against their manifest within
    /// this store's lifetime, keyed by epoch → manifest file digest.
    /// Lets repeated recoveries skip the O(ranks) segment re-reads;
    /// cleared by [`Store::gc`] and [`Store::wipe`] (which change what is
    /// on disk) so a segment torn across those calls is still caught.
    validated: Arc<Mutex<HashMap<u64, u64>>>,
}

impl Store {
    /// Open (creating if needed) a checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, "create checkpoint dir", e))?;
        Ok(Store {
            dir,
            io: Arc::new(IoTally::default()),
            validated: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// Snapshot of this store's I/O counters (shared across clones).
    pub fn io_stats(&self) -> IoStats {
        IoStats {
            bytes_written: self.io.bytes_written.load(Ordering::Relaxed),
            write_us: self.io.write_us.load(Ordering::Relaxed),
            bytes_read: self.io.bytes_read.load(Ordering::Relaxed),
            read_us: self.io.read_us.load(Ordering::Relaxed),
        }
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Directory of one checkpoint epoch.
    pub fn step_dir(&self, superstep: u64) -> PathBuf {
        self.dir.join(format!("step-{superstep:010}"))
    }

    /// Path of one rank's segment file.
    pub fn segment_path(&self, superstep: u64, rank: u32) -> PathBuf {
        self.step_dir(superstep).join(format!("rank-{rank:04}.seg"))
    }

    /// Path of an epoch's manifest.
    pub fn manifest_path(&self, superstep: u64) -> PathBuf {
        self.step_dir(superstep).join(MANIFEST_NAME)
    }

    /// Directory holding every rank's registration tables.
    pub fn tables_dir(&self) -> PathBuf {
        self.dir.join(TABLES_DIR)
    }

    /// Path of the tables file `rank` wrote at `superstep`.
    pub fn tables_path(&self, superstep: u64, rank: u32) -> PathBuf {
        self.tables_dir()
            .join(format!("rank-{rank:04}-s{superstep:010}.seg"))
    }

    /// Write `bytes + digest(bytes)` to `path` atomically: tmp file, data
    /// fsync, rename, directory fsync. Returns the digest.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<u64, CkptError> {
        let started = Instant::now();
        let digest = digest(bytes);
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, "create tmp file", e))?;
            f.write_all(bytes)
                .and_then(|()| f.write_all(&digest.to_le_bytes()))
                .map_err(|e| io_err(&tmp, "write checkpoint bytes", e))?;
            f.sync_all()
                .map_err(|e| io_err(&tmp, "fsync checkpoint", e))?;
        }
        fs::rename(&tmp, path).map_err(|e| io_err(path, "rename into place", e))?;
        if let Some(parent) = path.parent() {
            // Make the rename itself durable. Failing to fsync a directory
            // only weakens durability, not atomicity, so a filesystem that
            // refuses (some tmpfs setups) is tolerated.
            if let Ok(d) = fs::File::open(parent) {
                let _ = d.sync_all();
            }
        }
        self.io
            .bytes_written
            .fetch_add((bytes.len() + DIGEST_LEN) as u64, Ordering::Relaxed);
        self.io
            .write_us
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        Ok(digest)
    }

    /// Read `path` and validate its trailing digest; returns the body —
    /// the buffer the file was read into, trailer cut off — and the
    /// (verified) content digest, so callers comparing against a manifest
    /// never need to re-hash.
    fn read_validated(&self, path: &Path) -> Result<(Vec<u8>, u64), CkptError> {
        let started = Instant::now();
        let mut bytes = fs::read(path).map_err(|e| io_err(path, "read checkpoint file", e))?;
        let read = bytes.len();
        let Some(body) = read.checked_sub(DIGEST_LEN) else {
            return Err(CkptError::Corrupt {
                path: path.to_path_buf(),
                detail: format!("{read} bytes is too short to carry a digest"),
            });
        };
        let stored = u64::from_le_bytes(bytes[body..].try_into().expect("a digest-wide trailer"));
        let actual = digest(&bytes[..body]);
        if stored != actual {
            return Err(CkptError::Corrupt {
                path: path.to_path_buf(),
                detail: format!("digest mismatch: stored {stored:#018x}, content {actual:#018x}"),
            });
        }
        bytes.truncate(body);
        self.io.bytes_read.fetch_add(read as u64, Ordering::Relaxed);
        self.io
            .read_us
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        Ok((bytes, stored))
    }

    /// Read and validate a sealed file ([`begin_segment`] or
    /// [`begin_tables`]) of kind `magic`; returns its header, its payload
    /// — the read buffer with the header drained off the front, not a
    /// copy — and its content digest.
    fn read_framed(&self, path: &Path, magic: u64) -> Result<(Header, Vec<u8>, u64), CkptError> {
        let (mut body, digest) = self.read_validated(path)?;
        let corrupt = |detail: String| CkptError::Corrupt {
            path: path.to_path_buf(),
            detail,
        };
        let header = Header::parse(&body).map_err(corrupt)?;
        if header.magic != magic {
            return Err(corrupt(format!("bad magic {:#018x}", header.magic)));
        }
        let follow = body.len() - SEGMENT_HEADER_LEN;
        if header.payload_len != follow as u64 {
            return Err(corrupt(format!(
                "payload length {} but {follow} bytes follow",
                header.payload_len
            )));
        }
        body.drain(..SEGMENT_HEADER_LEN);
        Ok((header, body, digest))
    }

    /// Write one rank's segment (atomically); returns its content digest.
    /// The segment links no tables file. Frames a copy of the payload —
    /// the engine, which encodes its state behind [`begin_segment`] in
    /// the first place, goes through its [`Writer`] without one.
    pub fn write_segment(&self, seg: &Segment) -> Result<u64, CkptError> {
        let mut framed = Vec::with_capacity(SEGMENT_HEADER_LEN + seg.payload.len());
        begin_segment(
            &mut framed,
            seg.superstep,
            seg.rounds,
            seg.rank,
            seg.workers,
        );
        framed.extend_from_slice(&seg.payload);
        seal_segment(&mut framed);
        self.write_framed(&framed)
    }

    /// Write a file that is already framed ([`begin_segment`] or
    /// [`begin_tables`] … payload … [`seal_segment`]) to the path its
    /// header names, atomically; returns its content digest.
    pub fn write_framed(&self, framed: &[u8]) -> Result<u64, CkptError> {
        let h = Header::parse(framed).expect("write_framed takes a sealed file");
        let (dir, during, path) = if h.magic == TABLES_MAGIC {
            let path = self.tables_path(h.superstep, h.rank);
            (self.tables_dir(), "create tables dir", path)
        } else {
            let path = self.segment_path(h.superstep, h.rank);
            (self.step_dir(h.superstep), "create step dir", path)
        };
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, during, e))?;
        self.write_atomic(&path, framed)
    }

    /// A [`Writer`] job's files: `tables` first when there are any (they
    /// become `link`), then the segment, linked to `link`. Returns the
    /// segment's digest, or the first write that failed.
    fn write_linked(
        &self,
        framed: &mut [u8],
        tables: Option<&[u8]>,
        link: &mut Option<TablesRef>,
    ) -> Result<u64, CkptError> {
        if let Some(tables) = tables {
            let h = Header::parse(tables).expect("a writer job takes sealed tables");
            *link = Some(TablesRef {
                superstep: h.superstep,
                digest: self.write_framed(tables)?,
            });
        }
        if let Some(link) = *link {
            link_tables(framed, link);
        }
        self.write_framed(framed)
    }

    /// The digest a segment file carries (its last 8 bytes). Rank 0 reads
    /// these at commit time instead of re-hashing whole segments.
    pub fn segment_digest(&self, superstep: u64, rank: u32) -> Result<u64, CkptError> {
        use std::io::{Read, Seek, SeekFrom};
        let path = self.segment_path(superstep, rank);
        let mut f = fs::File::open(&path).map_err(|e| io_err(&path, "open segment", e))?;
        f.seek(SeekFrom::End(-(DIGEST_LEN as i64)))
            .map_err(|e| io_err(&path, "seek segment trailer", e))?;
        let mut trailer = [0u8; DIGEST_LEN];
        f.read_exact(&mut trailer)
            .map_err(|e| io_err(&path, "read segment trailer", e))?;
        Ok(u64::from_le_bytes(trailer))
    }

    /// Read and fully validate one rank's segment (the segment alone; the
    /// tables file it links is [`Store::read_snapshot`]'s business).
    pub fn read_segment(&self, superstep: u64, rank: u32) -> Result<Segment, CkptError> {
        Ok(self.read_segment_with_digest(superstep, rank)?.0)
    }

    /// [`Store::read_segment`] plus the segment's verified content
    /// digest (what the manifest pins), without re-hashing, and its
    /// tables link.
    fn read_segment_with_digest(
        &self,
        superstep: u64,
        rank: u32,
    ) -> Result<(Segment, u64, Option<TablesRef>), CkptError> {
        let path = self.segment_path(superstep, rank);
        let (h, payload, digest) = self.read_framed(&path, SEGMENT_MAGIC)?;
        if h.superstep != superstep || h.rank != rank {
            return Err(CkptError::Corrupt {
                path,
                detail: format!(
                    "segment claims superstep {}/rank {}, expected {superstep}/{rank}",
                    h.superstep, h.rank
                ),
            });
        }
        let seg = Segment {
            superstep,
            rounds: h.rounds,
            rank,
            workers: h.workers,
            payload,
        };
        Ok((seg, digest, h.tables))
    }

    /// The payload of the tables file `link` names for `rank` of a
    /// `workers`-wide run, validated against the link's digest.
    fn read_tables(&self, link: TablesRef, rank: u32, workers: u32) -> Result<Vec<u8>, CkptError> {
        let path = self.tables_path(link.superstep, rank);
        let (h, payload, digest) = self.read_framed(&path, TABLES_MAGIC)?;
        let detail = if digest != link.digest {
            format!(
                "tables digest {digest:#018x} does not match the segment's link {:#018x}",
                link.digest
            )
        } else if (h.superstep, h.rank, h.workers) != (link.superstep, rank, workers) {
            format!(
                "tables claim superstep {}/rank {} of {}, expected {}/{rank} of {workers}",
                h.superstep, h.rank, h.workers, link.superstep
            )
        } else {
            return Ok(payload);
        };
        Err(CkptError::Corrupt { path, detail })
    }

    /// Everything `rank` restores from at epoch `superstep`: its segment
    /// and the tables file the segment links, both validated. One read
    /// buffer per file, handed out as the payload.
    pub fn read_snapshot(&self, superstep: u64, rank: u32) -> Result<Snapshot, CkptError> {
        let (segment, _, link) = self.read_segment_with_digest(superstep, rank)?;
        let tables = link
            .map(|link| Ok((link, self.read_tables(link, rank, segment.workers)?)))
            .transpose()?;
        Ok(Snapshot { segment, tables })
    }

    /// Commit one epoch: write its manifest atomically. After this
    /// returns, the epoch is visible to [`Store::latest_restorable`].
    pub fn commit(&self, m: &Manifest) -> Result<(), CkptError> {
        assert_eq!(
            m.digests.len() as u32,
            m.id.workers,
            "manifest must carry one digest per rank"
        );
        let step = self.step_dir(m.superstep);
        fs::create_dir_all(&step).map_err(|e| io_err(&step, "create step dir", e))?;
        let mut buf = Vec::new();
        MANIFEST_MAGIC.encode(&mut buf);
        FORMAT_VERSION.encode(&mut buf);
        m.id.encode(&mut buf);
        m.superstep.encode(&mut buf);
        m.rounds.encode(&mut buf);
        m.digests.encode(&mut buf);
        self.write_atomic(&self.manifest_path(m.superstep), &buf)?;
        Ok(())
    }

    /// Commit an epoch whose segments every rank has acked as durable:
    /// pin each segment's digest (read from its trailer, not re-hashed)
    /// in the manifest, then collect the epochs this one supersedes
    /// (best effort, as [`Store::gc`] is).
    pub fn commit_epoch(&self, epoch: &Epoch) -> Result<(), CkptError> {
        let digests = (0..epoch.id.workers)
            .map(|rank| self.segment_digest(epoch.superstep, rank))
            .collect::<Result<_, _>>()?;
        self.commit(&Manifest {
            id: epoch.id.clone(),
            superstep: epoch.superstep,
            rounds: epoch.rounds,
            digests,
        })?;
        let _ = self.gc_through(epoch.superstep, KEEP_COMMITTED);
        Ok(())
    }

    /// Read and validate the manifest of one epoch.
    pub fn read_manifest(&self, superstep: u64) -> Result<Manifest, CkptError> {
        Ok(self.read_manifest_with_digest(superstep)?.0)
    }

    /// [`Store::read_manifest`] plus the manifest *file's* verified
    /// digest — the key the validated-epoch cache is checked against.
    fn read_manifest_with_digest(&self, superstep: u64) -> Result<(Manifest, u64), CkptError> {
        let path = self.manifest_path(superstep);
        let (body, file_digest) = self.read_validated(&path)?;
        let corrupt = |detail: String| CkptError::Corrupt {
            path: path.clone(),
            detail,
        };
        let mut r = Reader::new(&body);
        if r.remaining() < 12 {
            return Err(corrupt("manifest header truncated".into()));
        }
        let magic: u64 = r.get();
        if magic != MANIFEST_MAGIC {
            return Err(corrupt(format!("bad magic {magic:#018x}")));
        }
        let version: u32 = r.get();
        if version != FORMAT_VERSION {
            return Err(corrupt(format!("unsupported format version {version}")));
        }
        let id = RunId::decode(&mut r, &path)?;
        if r.remaining() < 20 {
            return Err(corrupt("manifest body truncated".into()));
        }
        let superstep_in: u64 = r.get();
        let rounds: u64 = r.get();
        let digests: Vec<u64> = r.get();
        if superstep_in != superstep {
            return Err(corrupt(format!(
                "manifest claims superstep {superstep_in}, expected {superstep}"
            )));
        }
        if !r.is_empty() {
            return Err(corrupt(format!("{} trailing bytes", r.remaining())));
        }
        Ok((
            Manifest {
                id,
                superstep,
                rounds,
                digests,
            },
            file_digest,
        ))
    }

    /// Every step directory present, ascending by superstep. Directories
    /// with unparsable names are ignored.
    fn step_dirs(&self) -> Result<Vec<u64>, CkptError> {
        let mut steps = Vec::new();
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(ref e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(steps),
            Err(e) => return Err(io_err(&self.dir, "scan checkpoint dir", e)),
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(rest) = name.to_str().and_then(|s| s.strip_prefix("step-")) else {
                continue;
            };
            if let Ok(step) = rest.parse::<u64>() {
                steps.push(step);
            }
        }
        steps.sort_unstable();
        Ok(steps)
    }

    /// Epochs with a manifest file present (not yet digest-validated),
    /// ascending.
    pub fn committed_steps(&self) -> Result<Vec<u64>, CkptError> {
        Ok(self
            .step_dirs()?
            .into_iter()
            .filter(|&s| self.manifest_path(s).exists())
            .collect())
    }

    /// The newest epoch that can actually be restored for `id`: its
    /// manifest is digest-valid, names the same run, **every** rank's
    /// segment validates against the manifest's pinned digest, and every
    /// tables file a segment links validates against the link. A torn or
    /// truncated file fails that epoch and the scan falls back to the
    /// previous committed one — all ranks scanning the same directory
    /// reach the same answer.
    ///
    /// A digest-valid manifest for a *different* run is an
    /// [`CkptError::Incompatible`] error, never a silent cold start.
    pub fn latest_restorable(&self, id: &RunId) -> Result<Option<Manifest>, CkptError> {
        for step in self.committed_steps()?.into_iter().rev() {
            let (manifest, file_digest) = match self.read_manifest_with_digest(step) {
                Ok(m) => m,
                // A torn manifest is an uncommitted epoch.
                Err(CkptError::Corrupt { .. }) => continue,
                Err(e) => return Err(e),
            };
            if manifest.id != *id {
                return Err(CkptError::Incompatible {
                    detail: format!(
                        "checkpoint dir {} holds epoch {} of run {:?}, but this run is {:?}",
                        self.dir.display(),
                        step,
                        manifest.id,
                        id
                    ),
                });
            }
            // Repeated recoveries re-validate the same epochs; once every
            // segment of an epoch checked out against this exact manifest
            // (same file digest), skip the O(ranks) segment re-reads for
            // the rest of this store's lifetime. `gc`/`wipe` clear the
            // cache because they change what is on disk.
            let cached = self
                .validated
                .lock()
                .unwrap()
                .get(&step)
                .is_some_and(|&d| d == file_digest);
            if cached {
                return Ok(Some(manifest));
            }
            let workers = manifest.id.workers;
            let all_valid = (0..workers).all(|rank| {
                let Ok((seg, digest, link)) = self.read_segment_with_digest(step, rank) else {
                    return false;
                };
                digest == manifest.digests[rank as usize]
                    && seg.rounds == manifest.rounds
                    && seg.workers == workers
                    && link.is_none_or(|link| self.read_tables(link, rank, workers).is_ok())
            });
            if all_valid {
                self.validated.lock().unwrap().insert(step, file_digest);
                return Ok(Some(manifest));
            }
        }
        Ok(None)
    }

    /// Garbage-collect superseded epochs: keep the newest `keep` committed
    /// epochs (and anything newer than the newest committed one — an
    /// in-flight checkpoint), delete the rest. Best-effort: removal errors
    /// on individual directories are ignored.
    ///
    /// Committed epochs are additionally swept for orphaned `*.tmp`
    /// files: a rank killed between `create tmp` and `rename into place`
    /// whose restart rewrote the segment leaves the abandoned tmp behind,
    /// and epoch-granular GC (which keeps the whole directory) would
    /// otherwise carry it forever. Uncommitted epochs are left untouched
    /// — a newer in-flight checkpoint legitimately holds tmp files
    /// mid-write.
    ///
    /// Then the tables files go the same way ([`Store::sweep_tables`]).
    pub fn gc(&self, keep: usize) -> Result<(), CkptError> {
        self.gc_through(u64::MAX, keep)
    }

    /// [`Store::gc`] as of the commit of epoch `newest`: committed epochs
    /// newer than it are a previous attempt's, ones the replay now in
    /// flight is rewriting (a resume falls back past them only when they
    /// do not restore), so they count as in flight — neither kept nor
    /// swept.
    fn gc_through(&self, newest: u64, keep: usize) -> Result<(), CkptError> {
        self.validated.lock().unwrap().clear();
        let mut committed = self.committed_steps()?;
        committed.retain(|&step| step <= newest);
        for &step in &committed {
            self.sweep_orphan_tmps(step);
        }
        let kept = &committed[committed.len().saturating_sub(keep)..];
        let Some(&oldest_kept) = kept.first() else {
            return Ok(());
        };
        // Superseded epochs, and uncommitted stragglers older than the
        // oldest kept epoch (a crashed run's partial epoch).
        for step in self.step_dirs()? {
            if step < oldest_kept {
                let _ = fs::remove_dir_all(self.step_dir(step));
            }
        }
        self.sweep_tables(kept);
        Ok(())
    }

    /// Delete every tables file (and abandoned `.tmp`) that no segment of
    /// the `kept` committed epochs links and that is not newer than the
    /// newest of them — a newer one may belong to an epoch in flight.
    /// Best effort: when a kept segment's header cannot be read, nothing
    /// is deleted, since what it links is unknown.
    fn sweep_tables(&self, kept: &[u64]) {
        let Some(&newest) = kept.last() else {
            return;
        };
        let mut linked = Vec::new();
        for &step in kept {
            let Ok(manifest) = self.read_manifest(step) else {
                return;
            };
            for rank in 0..manifest.id.workers {
                match self.segment_header(step, rank) {
                    Ok(h) => linked.extend(h.tables.map(|t| (rank, t.superstep))),
                    Err(_) => return,
                }
            }
        }
        let Ok(entries) = fs::read_dir(self.tables_dir()) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some((rank, step, is_tmp)) = name.to_str().and_then(parse_tables_name) else {
                continue;
            };
            if step <= newest && (is_tmp || !linked.contains(&(rank, step))) {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    /// The header of one rank's segment, read without the rest of it.
    fn segment_header(&self, superstep: u64, rank: u32) -> Result<Header, CkptError> {
        use std::io::Read;
        let path = self.segment_path(superstep, rank);
        let mut head = [0u8; SEGMENT_HEADER_LEN];
        fs::File::open(&path)
            .and_then(|mut f| f.read_exact(&mut head))
            .map_err(|e| io_err(&path, "read segment header", e))?;
        Header::parse(&head).map_err(|detail| CkptError::Corrupt { path, detail })
    }

    /// Remove every checkpoint epoch (the launcher wipes the directory at
    /// the start of a fresh job so stale epochs cannot be restored into
    /// it, and cleans up after a successful one). `remove_dir_all` takes
    /// each epoch wholesale, orphaned tmp files included, and the tables
    /// files with them. The control replica and coordinator advertisement
    /// go too: a fresh job must not discover a previous job's coordinator.
    pub fn wipe(&self) -> Result<(), CkptError> {
        self.validated.lock().unwrap().clear();
        for step in self.step_dirs()? {
            fs::remove_dir_all(self.step_dir(step))
                .map_err(|e| io_err(&self.step_dir(step), "remove step dir", e))?;
        }
        for dir in [self.tables_dir(), self.replica_dir()] {
            if dir.exists() {
                fs::remove_dir_all(&dir).map_err(|e| io_err(&dir, "remove checkpoint dir", e))?;
            }
        }
        let advert = self.advertisement_path();
        match fs::remove_file(&advert) {
            Ok(()) => {}
            Err(ref e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(&advert, "remove advertisement", e)),
        }
        Ok(())
    }

    /// Directory holding the control-plane replica.
    pub fn replica_dir(&self) -> PathBuf {
        self.dir.join(REPLICA_DIR)
    }

    /// Path of one rank's replicated plan file.
    fn replica_plan_path(&self, rank: u32) -> PathBuf {
        self.replica_dir().join(format!("plan-{rank:04}.bin"))
    }

    /// Path of the control-replica commit record.
    fn replica_ctrl_path(&self) -> PathBuf {
        self.replica_dir().join(CTRL_NAME)
    }

    /// Path of the coordinator advertisement.
    pub fn advertisement_path(&self) -> PathBuf {
        self.dir.join(ADVERT_NAME)
    }

    /// Persist the control-plane replica: every plan file is written
    /// atomically, then the `CTRL` commit record (pinning each plan's
    /// digest, the epoch and the designated standby) last — the same
    /// complete-or-invisible discipline as a checkpoint epoch, so a rank
    /// killed mid-replication leaves the previous replica intact.
    ///
    /// The plans are borrowed: the coordinator keeps the one encoded copy
    /// it ships from, and [`Store::read_replica`] is what hands back an
    /// owned [`ControlReplica`].
    pub fn write_replica(
        &self,
        id: &RunId,
        epoch: u32,
        standby: u32,
        plans: &[Vec<u8>],
    ) -> Result<(), CkptError> {
        assert_eq!(
            plans.len() as u32,
            id.workers,
            "replica must carry one plan per rank"
        );
        let dir = self.replica_dir();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, "create replica dir", e))?;
        let mut digests = Vec::with_capacity(plans.len());
        for (rank, plan) in plans.iter().enumerate() {
            digests.push(self.write_atomic(&self.replica_plan_path(rank as u32), plan)?);
        }
        let mut buf = Vec::new();
        CTRL_MAGIC.encode(&mut buf);
        FORMAT_VERSION.encode(&mut buf);
        id.encode(&mut buf);
        epoch.encode(&mut buf);
        standby.encode(&mut buf);
        digests.encode(&mut buf);
        self.write_atomic(&self.replica_ctrl_path(), &buf)?;
        Ok(())
    }

    /// Load the control-plane replica, if one was committed: `None` when
    /// no `CTRL` record exists, [`CkptError::Incompatible`] when it names
    /// a different run, [`CkptError::Corrupt`] when any plan file fails
    /// its pinned digest.
    pub fn read_replica(&self, id: &RunId) -> Result<Option<ControlReplica>, CkptError> {
        let path = self.replica_ctrl_path();
        let body = match self.read_validated(&path) {
            Ok((body, _)) => body,
            Err(CkptError::Io {
                kind: std::io::ErrorKind::NotFound,
                ..
            }) => return Ok(None),
            Err(e) => return Err(e),
        };
        let corrupt = |detail: String| CkptError::Corrupt {
            path: path.clone(),
            detail,
        };
        let mut r = Reader::new(&body);
        if r.remaining() < 12 {
            return Err(corrupt("control record truncated".into()));
        }
        let magic: u64 = r.get();
        if magic != CTRL_MAGIC {
            return Err(corrupt(format!("bad magic {magic:#018x}")));
        }
        let version: u32 = r.get();
        if version != FORMAT_VERSION {
            return Err(corrupt(format!("unsupported format version {version}")));
        }
        let id_in = RunId::decode(&mut r, &path)?;
        if id_in != *id {
            return Err(CkptError::Incompatible {
                detail: format!(
                    "replica in {} belongs to run {:?}, but this run is {:?}",
                    self.replica_dir().display(),
                    id_in,
                    id
                ),
            });
        }
        if r.remaining() < 12 {
            return Err(corrupt("control record body truncated".into()));
        }
        let epoch: u32 = r.get();
        let standby: u32 = r.get();
        let digests: Vec<u64> = r.get();
        if !r.is_empty() {
            return Err(corrupt(format!("{} trailing bytes", r.remaining())));
        }
        if digests.len() as u32 != id_in.workers {
            return Err(corrupt(format!(
                "{} plan digests for {} ranks",
                digests.len(),
                id_in.workers
            )));
        }
        let mut plans = Vec::with_capacity(digests.len());
        for (rank, &pinned) in digests.iter().enumerate() {
            let plan_path = self.replica_plan_path(rank as u32);
            let (plan, digest) = self.read_validated(&plan_path)?;
            if digest != pinned {
                return Err(CkptError::Corrupt {
                    path: plan_path,
                    detail: format!(
                        "plan digest {digest:#018x} does not match pinned {pinned:#018x}"
                    ),
                });
            }
            plans.push(plan);
        }
        Ok(Some(ControlReplica {
            id: id_in,
            epoch,
            standby,
            plans,
        }))
    }

    /// Publish (atomically replace) the coordinator advertisement.
    pub fn advertise(&self, ad: &Advertisement) -> Result<(), CkptError> {
        let mut buf = Vec::new();
        ADVERT_MAGIC.encode(&mut buf);
        FORMAT_VERSION.encode(&mut buf);
        ad.epoch.encode(&mut buf);
        ad.acting.encode(&mut buf);
        let addr = ad.addr.as_bytes();
        (addr.len() as u32).encode(&mut buf);
        buf.extend_from_slice(addr);
        self.write_atomic(&self.advertisement_path(), &buf)?;
        Ok(())
    }

    /// Read the current coordinator advertisement, if one was published.
    pub fn read_advertisement(&self) -> Result<Option<Advertisement>, CkptError> {
        let path = self.advertisement_path();
        let body = match self.read_validated(&path) {
            Ok((body, _)) => body,
            Err(CkptError::Io {
                kind: std::io::ErrorKind::NotFound,
                ..
            }) => return Ok(None),
            Err(e) => return Err(e),
        };
        let corrupt = |detail: String| CkptError::Corrupt {
            path: path.clone(),
            detail,
        };
        let mut r = Reader::new(&body);
        if r.remaining() < 24 {
            return Err(corrupt("advertisement truncated".into()));
        }
        let magic: u64 = r.get();
        if magic != ADVERT_MAGIC {
            return Err(corrupt(format!("bad magic {magic:#018x}")));
        }
        let version: u32 = r.get();
        if version != FORMAT_VERSION {
            return Err(corrupt(format!("unsupported format version {version}")));
        }
        let epoch: u32 = r.get();
        let acting: u32 = r.get();
        let len: u32 = r.get();
        if r.remaining() != len as usize {
            return Err(corrupt(format!(
                "address length {len} but {} bytes follow",
                r.remaining()
            )));
        }
        let addr = String::from_utf8(r.take(len as usize).to_vec())
            .map_err(|e| corrupt(format!("address is not utf-8: {e}")))?;
        Ok(Some(Advertisement {
            epoch,
            acting,
            addr,
        }))
    }

    /// Best-effort removal of orphaned `*.tmp` files inside one epoch's
    /// directory. Only meaningful on committed epochs: once the manifest
    /// is in place every surviving tmp is an abandoned write, never an
    /// in-flight one.
    fn sweep_orphan_tmps(&self, superstep: u64) {
        let Ok(entries) = fs::read_dir(self.step_dir(superstep)) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|ext| ext == "tmp") {
                let _ = fs::remove_file(&path);
            }
        }
    }
}

/// `(rank, superstep, is_tmp)` of a tables file name
/// (`rank-0003-s0000000002.seg`, or its `.tmp`), as
/// [`Store::tables_path`] spells it.
fn parse_tables_name(name: &str) -> Option<(u32, u64, bool)> {
    let (stem, is_tmp) = match name.strip_suffix(".tmp") {
        Some(stem) => (stem, true),
        None => (name.strip_suffix(".seg")?, false),
    };
    let (rank, step) = stem.strip_prefix("rank-")?.split_once("-s")?;
    Some((rank.parse().ok()?, step.parse().ok()?, is_tmp))
}

/// Bytes [`begin_segment`] and [`begin_tables`] put in front of a
/// payload: magic, format version, superstep, rounds, rank, workers, the
/// linked tables file (superstep, digest), payload length.
pub const SEGMENT_HEADER_LEN: usize = 60;
/// Where in that header the tables link sits.
const TABLES_LINK_AT: usize = 36;
/// Where in that header the payload length sits.
const PAYLOAD_LEN_AT: usize = SEGMENT_HEADER_LEN - 8;
/// The link superstep of a file that links no tables file.
const NO_TABLES: u64 = u64::MAX;

/// Open a segment at the end of `buf`: its header, linking no tables
/// file, with the payload length still open. The caller appends the
/// payload and closes the segment with [`seal_segment`]; its bytes are
/// then, byte for byte, the file minus its digest trailer — the one
/// encoding [`Store::write_segment`], [`Store::write_framed`] and the
/// restore path's validation share. A [`Writer`] links the segments it
/// writes to their worker's newest tables file.
pub fn begin_segment(buf: &mut Vec<u8>, superstep: u64, rounds: u64, rank: u32, workers: u32) {
    begin(buf, SEGMENT_MAGIC, superstep, rounds, rank, workers);
}

/// Open a tables file at the end of `buf` the way [`begin_segment`]
/// opens a segment: `rank`'s registration tables as of the boundary after
/// `superstep`, closed with [`seal_segment`] and followed by that
/// boundary's segment in the buffer handed to [`Writer::submit`].
pub fn begin_tables(buf: &mut Vec<u8>, superstep: u64, rank: u32, workers: u32) {
    begin(buf, TABLES_MAGIC, superstep, 0, rank, workers);
}

fn begin(buf: &mut Vec<u8>, magic: u64, superstep: u64, rounds: u64, rank: u32, workers: u32) {
    let at = buf.len();
    magic.encode(buf);
    FORMAT_VERSION.encode(buf);
    superstep.encode(buf);
    rounds.encode(buf);
    rank.encode(buf);
    workers.encode(buf);
    debug_assert_eq!(buf.len() - at, TABLES_LINK_AT);
    NO_TABLES.encode(buf);
    0u64.encode(buf);
    0u64.encode(buf);
    debug_assert_eq!(buf.len() - at, SEGMENT_HEADER_LEN);
}

/// Close a file opened with [`begin_segment`] or [`begin_tables`] at the
/// front of `buf` (the file's bytes, from its header to the end): all of
/// `buf` behind the header is the payload, and its length is patched into
/// the header.
pub fn seal_segment(buf: &mut [u8]) {
    let payload = (buf.len() - SEGMENT_HEADER_LEN) as u64;
    buf[PAYLOAD_LEN_AT..SEGMENT_HEADER_LEN].copy_from_slice(&payload.to_le_bytes());
}

/// Point a sealed segment at the tables file it was encoded against.
fn link_tables(framed: &mut [u8], tables: TablesRef) {
    let link = &mut framed[TABLES_LINK_AT..PAYLOAD_LEN_AT];
    link[..8].copy_from_slice(&tables.superstep.to_le_bytes());
    link[8..].copy_from_slice(&tables.digest.to_le_bytes());
}

/// A sealed file's header taken apart again — the one reader of what
/// [`begin_segment`], [`begin_tables`] and [`seal_segment`] lay out, for
/// the restore path, the garbage collector and [`Store::write_framed`].
struct Header {
    /// [`SEGMENT_MAGIC`] or [`TABLES_MAGIC`].
    magic: u64,
    superstep: u64,
    rounds: u64,
    rank: u32,
    workers: u32,
    tables: Option<TablesRef>,
    payload_len: u64,
}

impl Header {
    /// Parse the header at the front of `bytes` (a whole file body, or
    /// its first [`SEGMENT_HEADER_LEN`] bytes alone).
    fn parse(bytes: &[u8]) -> Result<Header, String> {
        if bytes.len() < SEGMENT_HEADER_LEN {
            return Err("header truncated".into());
        }
        let mut r = Reader::new(bytes);
        let magic: u64 = r.get();
        if magic != SEGMENT_MAGIC && magic != TABLES_MAGIC {
            return Err(format!("bad magic {magic:#018x}"));
        }
        let version: u32 = r.get();
        if version != FORMAT_VERSION {
            return Err(format!("unsupported format version {version}"));
        }
        let (superstep, rounds, rank, workers) = (r.get(), r.get(), r.get(), r.get());
        let (link, digest): (u64, u64) = (r.get(), r.get());
        Ok(Header {
            magic,
            superstep,
            rounds,
            rank,
            workers,
            tables: (link != NO_TABLES).then_some(TablesRef {
                superstep: link,
                digest,
            }),
            payload_len: r.get(),
        })
    }
}

/// An epoch on its way to being committed: its [`Manifest`] minus the
/// digests, which [`Store::commit_epoch`] reads off the segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Epoch {
    /// The run the epoch belongs to.
    pub id: RunId,
    /// Superstep the epoch was taken after.
    pub superstep: u64,
    /// Exchange rounds completed at that point.
    pub rounds: u64,
}

/// What one [`Writer`] job did.
#[derive(Debug)]
pub struct Written {
    /// The buffer, back for the next epoch to encode into.
    pub buf: Vec<u8>,
    /// The tables file the segment links: the one this job wrote, or the
    /// one linked before it.
    pub tables: Option<TablesRef>,
    /// The segment's content digest, once the file is durable under its
    /// final name — or the first write that failed: a segment whose
    /// tables file did not reach the disk is not written.
    pub segment: Result<u64, CkptError>,
    /// Outcome of the commit that rode along (`Ok` when none did).
    pub commit: Result<(), CkptError>,
}

/// One worker's background checkpoint I/O: at most one job in flight,
/// on a thread of its own, so a segment's digest, `write` and `fsync`s
/// overlap the supersteps that follow its snapshot (the module docs'
/// "Who writes when"). The buffer travels with the job — into
/// [`Writer::submit`], back out of [`Writer::finish`] — so an epoch
/// allocates nothing once the first one has sized it.
#[derive(Debug)]
pub struct Writer {
    store: Store,
    in_flight: Option<JoinHandle<Written>>,
    /// The tables file the next segment links: the newest one a job
    /// wrote, or the one a restore found ([`Writer::link`]).
    tables: Option<TablesRef>,
}

impl Writer {
    /// A writer into `store`, idle, linking no tables file.
    pub fn new(store: Store) -> Writer {
        Writer {
            store,
            in_flight: None,
            tables: None,
        }
    }

    /// Link the segments submitted from now on to `tables` until a job
    /// writes newer ones — for a restored worker, the file its restored
    /// segment linked, so unchanged tables are not written again.
    pub fn link(&mut self, tables: Option<TablesRef>) {
        self.tables = tables;
    }

    /// Start writing an epoch's sealed files ([`Store::write_framed`]),
    /// back to back in `buf`: a tables file in its first `tables_len`
    /// bytes when the worker's tables changed since the last one (written
    /// first), then the segment, linked to the worker's newest tables
    /// file. With `commit`, the job first commits that (earlier, fully
    /// acked) epoch — [`Store::commit_epoch`] — and the two outcomes are
    /// independent. The previous job must have been [`Writer::finish`]ed.
    pub fn submit(&mut self, mut buf: Vec<u8>, tables_len: usize, commit: Option<Epoch>) {
        assert!(self.in_flight.is_none(), "one checkpoint job at a time");
        let store = self.store.clone();
        let mut link = self.tables;
        let job = move || {
            let commit = commit.map_or(Ok(()), |epoch| store.commit_epoch(&epoch));
            let (tables, segment) = buf.split_at_mut(tables_len);
            let tables = (!tables.is_empty()).then_some(&*tables);
            let segment = store.write_linked(segment, tables, &mut link);
            Written {
                buf,
                tables: link,
                segment,
                commit,
            }
        };
        let handle = std::thread::Builder::new()
            .name("pc-ckpt-writer".into())
            .spawn(job)
            .expect("cannot spawn the checkpoint writer thread");
        self.in_flight = Some(handle);
    }

    /// Wait for the job in flight, if any, and take its result.
    pub fn finish(&mut self) -> Option<Written> {
        let handle = self.in_flight.take()?;
        let done = handle
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
        self.tables = done.tables;
        Some(done)
    }
}

impl Drop for Writer {
    /// Joins the job in flight (see the module docs' "Why `Drop` joins").
    fn drop(&mut self) {
        if let Some(handle) = self.in_flight.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!(
            "pc_ckpt_test_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    fn run_id(workers: u32) -> RunId {
        RunId {
            workers,
            n: 1000,
            algo: "test::Algo".into(),
        }
    }

    fn write_epoch(store: &Store, id: &RunId, superstep: u64, rounds: u64) -> Manifest {
        let mut digests = Vec::new();
        for rank in 0..id.workers {
            let seg = Segment {
                superstep,
                rounds,
                rank,
                workers: id.workers,
                payload: vec![rank as u8; 64 + superstep as usize],
            };
            store.write_segment(&seg).unwrap();
            digests.push(store.segment_digest(superstep, rank).unwrap());
        }
        let m = Manifest {
            id: id.clone(),
            superstep,
            rounds,
            digests,
        };
        store.commit(&m).unwrap();
        m
    }

    /// The store's I/O counters account every write and validated read:
    /// a segment write moves body + digest bytes, a read moves them back,
    /// and clones of the store share the same tally.
    #[test]
    fn io_stats_account_writes_and_reads() {
        let store = tmp_store("io_stats");
        assert_eq!(store.io_stats(), IoStats::default());
        let payload = vec![9u8; 256];
        let seg = Segment {
            superstep: 1,
            rounds: 2,
            rank: 0,
            workers: 1,
            payload: payload.clone(),
        };
        store.write_segment(&seg).unwrap();
        let after_write = store.io_stats();
        let body_len = (SEGMENT_HEADER_LEN + payload.len()) as u64;
        assert_eq!(after_write.bytes_written, body_len + DIGEST_LEN as u64);
        assert_eq!(after_write.bytes_read, 0);
        let clone = store.clone();
        clone.read_segment(1, 0).unwrap();
        let after_read = store.io_stats();
        assert_eq!(after_read.bytes_written, after_write.bytes_written);
        assert_eq!(
            after_read.bytes_read,
            body_len + DIGEST_LEN as u64,
            "a validated read covers body + digest trailer"
        );
        assert!(after_read.write_us >= after_write.write_us);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn segment_roundtrip_is_byte_exact() {
        let store = tmp_store("seg_rt");
        let seg = Segment {
            superstep: 8,
            rounds: 31,
            rank: 2,
            workers: 4,
            payload: (0..=255u8).collect(),
        };
        let digest = store.write_segment(&seg).unwrap();
        assert_eq!(store.segment_digest(8, 2).unwrap(), digest);
        assert_eq!(store.read_segment(8, 2).unwrap(), seg);
        let _ = fs::remove_dir_all(store.dir());
    }

    /// A segment framed in place is the file `write_segment` writes for
    /// the same fields: one encoding, whoever lays it out.
    #[test]
    fn framing_in_place_writes_the_same_file() {
        let (a, b) = (tmp_store("framed_a"), tmp_store("framed_b"));
        let seg = Segment {
            superstep: 8,
            rounds: 31,
            rank: 2,
            workers: 4,
            payload: (0..=255u8).cycle().take(1000).collect(),
        };
        let mut buf = vec![0xEE; 7]; // a file in front of it
        begin_segment(&mut buf, 8, 31, 2, 4);
        buf.extend_from_slice(&seg.payload);
        let framed = &mut buf[7..];
        seal_segment(framed);
        assert_eq!(framed.len(), SEGMENT_HEADER_LEN + seg.payload.len());
        let digest = a.write_framed(framed).unwrap();
        assert_eq!(b.write_segment(&seg).unwrap(), digest);
        assert_eq!(
            fs::read(a.segment_path(8, 2)).unwrap(),
            fs::read(b.segment_path(8, 2)).unwrap()
        );
        assert_eq!(a.read_segment(8, 2).unwrap(), seg);
        for store in [a, b] {
            let _ = fs::remove_dir_all(store.dir());
        }
    }

    fn framed(superstep: u64, rank: u32, workers: u32, payload_len: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        begin_segment(&mut buf, superstep, superstep * 3, rank, workers);
        buf.resize(SEGMENT_HEADER_LEN + payload_len, rank as u8);
        seal_segment(&mut buf);
        buf
    }

    /// The writer's round trip: the buffer comes back (the same
    /// allocation), the digest is the file's, and a commit riding on a
    /// job makes the *earlier* epoch visible while the job's own segment
    /// stays uncommitted.
    #[test]
    fn writer_hands_the_buffer_back_and_commits_the_acked_epoch() {
        let store = tmp_store("writer");
        let id = run_id(1);
        let mut writer = Writer::new(store.clone());
        assert!(writer.finish().is_none(), "an idle writer has nothing");

        let first = framed(2, 0, 1, 4096);
        let (ptr, cap) = (first.as_ptr(), first.capacity());
        writer.submit(first, 0, None);
        let done = writer.finish().unwrap();
        assert_eq!((done.buf.as_ptr(), done.buf.capacity()), (ptr, cap));
        assert_eq!(
            done.segment.unwrap(),
            store.segment_digest(2, 0).unwrap(),
            "the job reports the digest the file carries"
        );
        done.commit.unwrap();
        assert_eq!(store.committed_steps().unwrap(), Vec::<u64>::new());

        let acked = Epoch {
            id: id.clone(),
            superstep: 2,
            rounds: 6,
        };
        writer.submit(framed(4, 0, 1, 4096), 0, Some(acked));
        let done = writer.finish().unwrap();
        done.segment.unwrap();
        done.commit.unwrap();
        assert_eq!(store.committed_steps().unwrap(), vec![2]);
        assert_eq!(store.latest_restorable(&id).unwrap().unwrap().superstep, 2);
        assert!(
            store.read_segment(4, 0).is_ok(),
            "gc spares the newer epoch"
        );
        let _ = fs::remove_dir_all(store.dir());
    }

    /// Dropping a writer with a job in flight waits for it: afterwards
    /// no `.tmp` is left for a replayed epoch to collide with, and the
    /// segment is either absent or digest-valid — never half a file
    /// under its final name.
    #[test]
    fn dropping_a_writer_joins_the_job_in_flight() {
        let store = tmp_store("writer_drop");
        let mut writer = Writer::new(store.clone());
        writer.submit(framed(6, 3, 4, 8 << 20), 0, None);
        drop(writer);
        let path = store.segment_path(6, 3);
        assert!(
            !path.with_extension("tmp").exists(),
            "the job was still writing when drop returned"
        );
        if path.exists() {
            assert_eq!(store.read_segment(6, 3).unwrap().payload.len(), 8 << 20);
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    /// A job that cannot write reports a typed error at `finish` — and
    /// still hands the buffer back — instead of panicking its thread.
    #[test]
    fn writer_failure_is_a_typed_error_at_finish() {
        let store = tmp_store("writer_fail");
        fs::remove_dir_all(store.dir()).unwrap();
        fs::write(store.dir(), b"not a directory").unwrap();
        let mut writer = Writer::new(store.clone());
        let acked = Epoch {
            id: run_id(1),
            superstep: 2,
            rounds: 6,
        };
        writer.submit(framed(4, 0, 1, 64), 0, Some(acked));
        let done = writer.finish().unwrap();
        assert_eq!(done.buf.len(), SEGMENT_HEADER_LEN + 64);
        assert!(matches!(done.segment, Err(CkptError::Io { .. })));
        assert!(matches!(done.commit, Err(CkptError::Io { .. })));
        let _ = fs::remove_file(store.dir());
    }

    fn tables(superstep: u64, fill: u8) -> Vec<u8> {
        let mut buf = Vec::new();
        begin_tables(&mut buf, superstep, 0, 1);
        buf.resize(SEGMENT_HEADER_LEN + 512, fill);
        seal_segment(&mut buf);
        buf
    }

    /// One job on rank 0 of a one-rank run: a segment of `superstep`,
    /// maybe tables in front of it, maybe the commit of `commit`. Returns
    /// the tables file the segment links.
    fn job(
        writer: &mut Writer,
        superstep: u64,
        tables: Option<Vec<u8>>,
        commit: Option<u64>,
    ) -> Option<TablesRef> {
        let commit = commit.map(|superstep| Epoch {
            id: run_id(1),
            superstep,
            rounds: superstep * 3,
        });
        let mut buf = tables.unwrap_or_default();
        let tables_len = buf.len();
        buf.extend(framed(superstep, 0, 1, 64));
        writer.submit(buf, tables_len, commit);
        let done = writer.finish().unwrap();
        done.segment.unwrap();
        done.commit.unwrap();
        done.tables
    }

    /// A job with tables writes them first and links its segment to them;
    /// later jobs link the same file until newer tables come, and a
    /// restore gets the linked payload back. A torn tables file fails
    /// every epoch that links it.
    #[test]
    fn segments_link_their_workers_newest_tables_file() {
        let store = tmp_store("tables_link");
        let id = run_id(1);
        let mut writer = Writer::new(store.clone());
        assert_eq!(job(&mut writer, 2, None, None), None);
        let first = job(&mut writer, 4, Some(tables(4, 0xAA)), Some(2)).unwrap();
        assert_eq!(first.superstep, 4);
        assert_eq!(job(&mut writer, 6, None, Some(4)), Some(first));
        job(&mut writer, 8, None, Some(6));
        assert_eq!(store.committed_steps().unwrap(), vec![4, 6]);

        let snap = store.read_snapshot(6, 0).unwrap();
        assert_eq!(snap.segment, store.read_segment(6, 0).unwrap());
        assert_eq!(snap.tables, Some((first, vec![0xAA; 512])));
        assert_eq!(store.latest_restorable(&id).unwrap().unwrap().superstep, 6);

        let victim = store.tables_path(4, 0);
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() - 1]).unwrap();
        store.gc(KEEP_COMMITTED).unwrap(); // clears the validated-epoch cache
        assert_eq!(store.latest_restorable(&id).unwrap(), None);
        assert!(matches!(
            store.read_snapshot(6, 0),
            Err(CkptError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(store.dir());
    }

    /// `gc` keeps the tables files a kept committed epoch links and the
    /// ones newer than the newest commit; every other one goes, abandoned
    /// `.tmp`s included.
    #[test]
    fn gc_keeps_linked_tables_and_drops_orphans() {
        let store = tmp_store("tables_gc");
        let mut writer = Writer::new(store.clone());
        let tables_on_disk = || {
            let mut names: Vec<String> = fs::read_dir(store.tables_dir())
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        let (t2, t6, t8) = (
            "rank-0000-s0000000002.seg",
            "rank-0000-s0000000006.seg",
            "rank-0000-s0000000008.seg",
        );
        job(&mut writer, 2, Some(tables(2, 1)), None);
        fs::write(store.tables_path(1, 0).with_extension("tmp"), b"abandoned").unwrap();
        fs::write(store.tables_path(99, 0).with_extension("tmp"), b"in flight").unwrap();
        let in_flight = "rank-0000-s0000000099.tmp";
        job(&mut writer, 4, None, Some(2));
        assert_eq!(tables_on_disk(), [t2, in_flight]);
        // Newer than the newest commit (4): kept although nothing links it.
        job(&mut writer, 6, Some(tables(6, 2)), Some(4));
        job(&mut writer, 8, Some(tables(8, 3)), Some(6));
        assert_eq!(tables_on_disk(), [t2, t6, t8, in_flight]);
        // Committed 8: the kept epochs 6 and 8 link t6 and t8 only.
        job(&mut writer, 10, None, Some(8));
        assert_eq!(store.committed_steps().unwrap(), vec![6, 8]);
        assert_eq!(tables_on_disk(), [t6, t8, in_flight]);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn manifest_commit_makes_epoch_visible() {
        let store = tmp_store("commit");
        let id = run_id(3);
        // Segments alone are invisible.
        for rank in 0..3 {
            store
                .write_segment(&Segment {
                    superstep: 4,
                    rounds: 9,
                    rank,
                    workers: 3,
                    payload: vec![7; 32],
                })
                .unwrap();
        }
        assert_eq!(store.latest_restorable(&id).unwrap(), None);
        let m = write_epoch(&store, &id, 4, 9);
        assert_eq!(store.latest_restorable(&id).unwrap(), Some(m.clone()));
        assert_eq!(store.read_manifest(4).unwrap(), m);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn torn_segment_falls_back_to_previous_epoch() {
        let store = tmp_store("torn");
        let id = run_id(2);
        let older = write_epoch(&store, &id, 4, 10);
        write_epoch(&store, &id, 8, 20);
        // Truncate rank 1's newest segment: the epoch is committed but no
        // longer restorable; the scan must fall back to superstep 4.
        let victim = store.segment_path(8, 1);
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(store.latest_restorable(&id).unwrap(), Some(older));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupted_bytes_are_detected() {
        let store = tmp_store("flip");
        let id = run_id(1);
        write_epoch(&store, &id, 2, 3);
        let victim = store.segment_path(2, 0);
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&victim, &bytes).unwrap();
        assert!(matches!(
            store.read_segment(2, 0),
            Err(CkptError::Corrupt { .. })
        ));
        assert_eq!(store.latest_restorable(&id).unwrap(), None);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn foreign_run_is_a_loud_incompatibility() {
        let store = tmp_store("foreign");
        write_epoch(&store, &run_id(2), 2, 5);
        let other = RunId {
            workers: 2,
            n: 1000,
            algo: "test::OtherAlgo".into(),
        };
        assert!(matches!(
            store.latest_restorable(&other),
            Err(CkptError::Incompatible { .. })
        ));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn gc_keeps_newest_committed_epochs() {
        let store = tmp_store("gc");
        let id = run_id(2);
        for step in [2, 4, 6, 8] {
            write_epoch(&store, &id, step, step * 3);
        }
        // An uncommitted straggler older than the kept window.
        store
            .write_segment(&Segment {
                superstep: 1,
                rounds: 1,
                rank: 0,
                workers: 2,
                payload: vec![0; 8],
            })
            .unwrap();
        store.gc(KEEP_COMMITTED).unwrap();
        assert_eq!(store.committed_steps().unwrap(), vec![6, 8]);
        assert!(!store.step_dir(1).exists(), "straggler survived gc");
        assert!(!store.step_dir(2).exists());
        assert!(store.read_segment(6, 0).is_ok());
        let _ = fs::remove_dir_all(store.dir());
    }

    /// A rank killed mid-snapshot leaves `rank-NNNN.tmp` behind; once the
    /// epoch commits (the restarted rank rewrote its segment), `gc` must
    /// sweep the orphan even when the epoch itself is kept — and must not
    /// touch the committed segments or the manifest while doing so.
    #[test]
    fn gc_sweeps_orphaned_tmp_segments_from_committed_epochs() {
        let store = tmp_store("gc_tmp");
        let id = run_id(2);
        write_epoch(&store, &id, 4, 12);
        let orphan = store.segment_path(4, 7).with_extension("tmp");
        fs::write(&orphan, b"half a snapshot").unwrap();
        // An uncommitted newer epoch with a tmp mid-write stays intact.
        let in_flight = store.step_dir(6).join("rank-0000.tmp");
        fs::create_dir_all(store.step_dir(6)).unwrap();
        fs::write(&in_flight, b"still writing").unwrap();

        store.gc(KEEP_COMMITTED).unwrap();

        assert!(!orphan.exists(), "orphaned tmp survived gc");
        assert!(in_flight.exists(), "in-flight tmp was swept");
        assert!(store.read_segment(4, 0).is_ok());
        assert!(store.read_segment(4, 1).is_ok());
        assert_eq!(store.latest_restorable(&id).unwrap().unwrap().superstep, 4);
        let _ = fs::remove_dir_all(store.dir());
    }

    /// A run that starts below committed epochs which did not restore
    /// replays through them, rewriting them: committing its own epochs
    /// must neither sweep their tmps mid-write nor keep them in place of
    /// the epoch just committed.
    #[test]
    fn a_commit_leaves_newer_stale_epochs_to_the_replay() {
        let store = tmp_store("gc_stale");
        let id = run_id(1);
        write_epoch(&store, &id, 6, 18);
        write_epoch(&store, &id, 8, 24);
        let rewrite = store.segment_path(6, 0).with_extension("tmp");
        fs::write(&rewrite, b"the replay's epoch 6, mid-write").unwrap();
        for (superstep, rounds) in [(2, 6), (4, 12)] {
            store
                .write_segment(&Segment {
                    superstep,
                    rounds,
                    rank: 0,
                    workers: 1,
                    payload: vec![1; 16],
                })
                .unwrap();
            store
                .commit_epoch(&Epoch {
                    id: id.clone(),
                    superstep,
                    rounds,
                })
                .unwrap();
        }
        assert!(rewrite.exists(), "a tmp of the replay was swept");
        assert!(store.step_dir(2).exists(), "a kept epoch was collected");
        assert_eq!(store.committed_steps().unwrap(), vec![2, 4, 6, 8]);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn wipe_clears_all_epochs() {
        let store = tmp_store("wipe");
        let id = run_id(1);
        write_epoch(&store, &id, 2, 2);
        write_epoch(&store, &id, 4, 4);
        store.wipe().unwrap();
        assert_eq!(store.committed_steps().unwrap(), Vec::<u64>::new());
        assert_eq!(store.latest_restorable(&id).unwrap(), None);
        let _ = fs::remove_dir_all(store.dir());
    }

    /// Repeated `latest_restorable` calls within one store lifetime must
    /// not re-read every segment: the second scan costs one manifest
    /// read, nothing more. The cache is trusted until `gc`/`wipe` —
    /// after either, a newly torn segment is caught again.
    #[test]
    fn latest_restorable_caches_validated_epochs_until_gc() {
        let store = tmp_store("val_cache");
        let id = run_id(2);
        write_epoch(&store, &id, 4, 10);

        let before = store.io_stats().bytes_read;
        assert_eq!(store.latest_restorable(&id).unwrap().unwrap().superstep, 4);
        let first_scan = store.io_stats().bytes_read - before;

        let manifest_len = fs::metadata(store.manifest_path(4)).unwrap().len();
        let before = store.io_stats().bytes_read;
        assert_eq!(store.latest_restorable(&id).unwrap().unwrap().superstep, 4);
        let second_scan = store.io_stats().bytes_read - before;
        assert_eq!(
            second_scan, manifest_len,
            "a cache hit reads the manifest only, no segments"
        );
        assert!(second_scan < first_scan);

        // Tear a segment: the cached verdict (stale, by design — nothing
        // mutates committed segments under a live store) still stands...
        let victim = store.segment_path(4, 1);
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        assert!(store.latest_restorable(&id).unwrap().is_some());

        // ...but gc invalidates the cache, and the re-validation catches
        // the torn segment.
        store.gc(KEEP_COMMITTED).unwrap();
        assert_eq!(store.latest_restorable(&id).unwrap(), None);
        let _ = fs::remove_dir_all(store.dir());
    }

    /// A rewritten manifest (same epoch, different content) must miss the
    /// cache: the key is the manifest file's own digest.
    #[test]
    fn cache_is_keyed_on_manifest_digest() {
        let store = tmp_store("val_cache_key");
        let id = run_id(1);
        write_epoch(&store, &id, 2, 5);
        assert!(store.latest_restorable(&id).unwrap().is_some());
        // Recommit the same epoch with a different rounds count (digest
        // changes); segments no longer match the new manifest's rounds.
        let digests = vec![store.segment_digest(2, 0).unwrap()];
        store
            .commit(&Manifest {
                id: id.clone(),
                superstep: 2,
                rounds: 6,
                digests,
            })
            .unwrap();
        assert_eq!(
            store.latest_restorable(&id).unwrap(),
            None,
            "stale cache entry must not vouch for a rewritten manifest"
        );
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn control_replica_round_trips() {
        let store = tmp_store("replica");
        let id = run_id(3);
        assert_eq!(store.read_replica(&id).unwrap(), None);
        let replica = ControlReplica {
            id: id.clone(),
            epoch: 2,
            standby: 1,
            plans: vec![vec![0xAA; 40], vec![0xBB; 7], Vec::new()],
        };
        let write = |r: &ControlReplica| store.write_replica(&r.id, r.epoch, r.standby, &r.plans);
        write(&replica).unwrap();
        assert_eq!(store.read_replica(&id).unwrap(), Some(replica.clone()));
        // Refresh at a later epoch replaces it atomically.
        let fresher = ControlReplica {
            epoch: 3,
            standby: 2,
            ..replica
        };
        write(&fresher).unwrap();
        assert_eq!(store.read_replica(&id).unwrap(), Some(fresher));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn torn_replica_plan_is_detected() {
        let store = tmp_store("replica_torn");
        let id = run_id(2);
        store
            .write_replica(&id, 1, 1, &[vec![1; 64], vec![2; 64]])
            .unwrap();
        let victim = store.replica_dir().join("plan-0001.bin");
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            store.read_replica(&id),
            Err(CkptError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn replica_of_another_run_is_incompatible() {
        let store = tmp_store("replica_foreign");
        store
            .write_replica(&run_id(2), 1, 1, &[vec![1; 8], vec![2; 8]])
            .unwrap();
        let other = RunId {
            workers: 2,
            n: 1000,
            algo: "test::OtherAlgo".into(),
        };
        assert!(matches!(
            store.read_replica(&other),
            Err(CkptError::Incompatible { .. })
        ));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn advertisement_round_trips_and_wipe_clears_control_state() {
        let store = tmp_store("advert");
        let id = run_id(1);
        assert_eq!(store.read_advertisement().unwrap(), None);
        let ad = Advertisement {
            epoch: 0,
            acting: 0,
            addr: "127.0.0.1:4400".into(),
        };
        store.advertise(&ad).unwrap();
        assert_eq!(store.read_advertisement().unwrap(), Some(ad));
        let takeover = Advertisement {
            epoch: 2,
            acting: 1,
            addr: "127.0.0.1:4411".into(),
        };
        store.advertise(&takeover).unwrap();
        assert_eq!(store.read_advertisement().unwrap(), Some(takeover));
        store.write_replica(&id, 2, 1, &[vec![3; 16]]).unwrap();
        store.wipe().unwrap();
        assert_eq!(store.read_advertisement().unwrap(), None);
        assert_eq!(store.read_replica(&id).unwrap(), None);
        let _ = fs::remove_dir_all(store.dir());
    }

    /// The digest is the on-disk format, so it is pinned; and a change
    /// confined to one aligned word — here every single-bit flip of every
    /// length up to three blocks and a tail — always moves it.
    #[test]
    fn digest_is_pinned_and_catches_every_bit_flip() {
        assert_eq!(digest(b""), 0xabcb_c85e_090f_2cc4);
        assert_eq!(digest(b"pc-ckpt format 4"), 0x0eef_5dd4_a978_ae0f);
        let bytes: Vec<u8> = (0..100u8).map(|b| b.wrapping_mul(37)).collect();
        for len in 0..=bytes.len() {
            let mut flipped = bytes[..len].to_vec();
            let base = digest(&flipped);
            for bit in 0..len * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(digest(&flipped), base, "length {len}, bit {bit}");
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[test]
    fn fnv64_is_stable_and_sensitive() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }
}
