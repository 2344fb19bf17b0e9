//! Vertex → worker ownership.
//!
//! Vertex identifiers are dense `0..n` (`u32`). A [`Topology`] maps every
//! vertex to its owning worker and to a dense local index within that
//! worker, supporting both the paper's default random (hash) assignment and
//! explicit partitions produced by a partitioner (the "Wikipedia (P)" runs).

use crate::codec::{Codec, Reader};
use std::sync::Arc;

/// Ownership map of all vertices over a set of workers.
#[derive(Debug, Clone)]
pub struct Topology {
    workers: usize,
    owner: Vec<u16>,
    local_index: Vec<u32>,
    locals: Vec<Vec<u32>>,
    /// Pre-computed mirror/ghost tables for high-degree vertices, when a
    /// degree-aware partitioner built them at ship time. Channels that
    /// replicate vertices (the Mirror channel) pick this up on
    /// construction; everything else ignores it.
    mirror: Option<Arc<MirrorPlan>>,
}

/// One replicated high-degree vertex in a [`MirrorPlan`]: the hub's
/// global id, the sorted set of workers holding a mirror, and — per
/// holding worker — the local indices of the hub's neighbors there, in
/// the hub's adjacency order (duplicates preserved, so mirror-side
/// expansion applies the combiner once per edge occurrence exactly like
/// the unmirrored per-edge path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirrorHub {
    /// Global id of the mirrored vertex.
    pub id: u32,
    /// Workers holding a mirror, ascending (includes the hub's own worker
    /// when it has local neighbors).
    pub peers: Vec<u16>,
    /// Per peer worker, the local indices its mirror fans a broadcast out
    /// to; same order and length as `peers`.
    pub targets: Vec<(u16, Vec<u32>)>,
}

impl MirrorHub {
    /// Local target indices of this hub's neighbors on `worker`, if any.
    pub fn targets_for(&self, worker: u16) -> Option<&[u32]> {
        self.targets
            .iter()
            .find(|(w, _)| *w == worker)
            .map(|(_, t)| t.as_slice())
    }

    /// The target runs a plan encoded for `only` carries: `only`'s own, or
    /// every worker's when `None`.
    fn kept(&self, only: Option<u16>) -> impl Iterator<Item = &(u16, Vec<u32>)> + Clone {
        self.targets
            .iter()
            .filter(move |(w, _)| only.is_none_or(|o| o == *w))
    }
}

/// The mirror/ghost tables rank 0 computes at ship time: every vertex
/// with out-degree ≥ `threshold` gets a [`MirrorHub`] entry, so a
/// broadcast from it costs one wire message per holding *worker* instead
/// of one per remote edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirrorPlan {
    /// The degree threshold τ the plan was built with.
    pub threshold: u64,
    /// Mirrored vertices, ascending by id.
    pub hubs: Vec<MirrorHub>,
}

impl MirrorPlan {
    /// Bytes [`MirrorPlan::encode_into`] appends for `only`.
    pub fn encoded_len(&self, only: Option<u16>) -> usize {
        let hub = |h: &MirrorHub| {
            let runs: usize = h.kept(only).map(|(_, t)| 2 + 4 + 4 * t.len()).sum();
            4 + 4 + 2 * h.peers.len() + 4 + runs
        };
        8 + 4 + self.hubs.iter().map(hub).sum::<usize>()
    }

    /// Append the plan's wire encoding to `buf`: τ, then per hub its id,
    /// its peers and its target runs — every worker's when `only` is
    /// `None`, else worker `only`'s alone. That is all the Mirror channel
    /// on worker `only` reads: peers of the hubs it owns, its own targets
    /// of the rest. Counts are `u32`, everything little-endian, as the
    /// [`Codec`] writes `Vec`s; size `buf` with [`MirrorPlan::encoded_len`].
    pub fn encode_into(&self, only: Option<u16>, buf: &mut Vec<u8>) {
        self.threshold.encode(buf);
        (self.hubs.len() as u32).encode(buf);
        for h in &self.hubs {
            h.id.encode(buf);
            (h.peers.len() as u32).encode(buf);
            u16::encode_slice(&h.peers, buf);
            let runs = h.kept(only);
            (runs.clone().count() as u32).encode(buf);
            for (w, locals) in runs {
                w.encode(buf);
                (locals.len() as u32).encode(buf);
                u32::encode_slice(locals, buf);
            }
        }
    }

    /// Decode a plan from `r`, checking each hub against the owner table
    /// the plan travelled with as it is read: ids ascending and in range,
    /// peers ascending among the workers that own vertices, target runs
    /// ascending and each on a peer, every local index inside its worker.
    /// What decodes indexes nothing out of bounds when a Mirror channel
    /// pre-wires from it. Plans arrive over a socket, so damage is an
    /// error, never a panic, and a count reserves no more than the bytes
    /// left could hold.
    pub fn decode_from(r: &mut Reader, owner: &[u16]) -> Result<Self, String> {
        fn truncated() -> String {
            "mirror plan truncated".to_string()
        }
        fn count(r: &mut Reader) -> Result<usize, String> {
            if r.remaining() < 4 {
                return Err(truncated());
            }
            Ok(r.get::<u32>() as usize)
        }
        fn capacity<T>(count: usize, r: &Reader) -> usize {
            count.min(r.remaining() / std::mem::size_of::<T>())
        }
        let mut locals: Vec<usize> = Vec::new();
        for &w in owner {
            let w = w as usize;
            if w >= locals.len() {
                locals.resize(w + 1, 0);
            }
            locals[w] += 1;
        }
        if r.remaining() < 8 {
            return Err(truncated());
        }
        let threshold: u64 = r.get();
        let hub_count = count(r)?;
        let mut hubs: Vec<MirrorHub> = Vec::with_capacity(capacity::<MirrorHub>(hub_count, r));
        for _ in 0..hub_count {
            if r.remaining() < 4 {
                return Err(truncated());
            }
            let id: u32 = r.get();
            let bad = |what: &str| Err(format!("mirror hub {id}: {what}"));
            if id as usize >= owner.len() || hubs.last().is_some_and(|h| h.id >= id) {
                return bad("id out of range or out of order");
            }
            let peers = count(r)?;
            let peers = u16::decode_slice(r, peers).ok_or_else(truncated)?;
            if !peers.is_sorted_by(|a, b| a < b)
                || peers.last().is_some_and(|&p| p as usize >= locals.len())
            {
                return bad("peers not ascending workers that own vertices");
            }
            let runs = count(r)?;
            let mut targets: Vec<(u16, Vec<u32>)> =
                Vec::with_capacity(capacity::<(u16, Vec<u32>)>(runs, r));
            for _ in 0..runs {
                if r.remaining() < 2 {
                    return Err(truncated());
                }
                let w: u16 = r.get();
                if targets.last().is_some_and(|t| t.0 >= w) || peers.binary_search(&w).is_err() {
                    return bad("target runs out of order or off its peers");
                }
                let len = count(r)?;
                let run = u32::decode_slice(r, len).ok_or_else(truncated)?;
                if run.iter().any(|&l| l as usize >= locals[w as usize]) {
                    return bad("target index out of range");
                }
                targets.push((w, run));
            }
            hubs.push(MirrorHub { id, peers, targets });
        }
        Ok(MirrorPlan { threshold, hubs })
    }
}

/// Deterministic 64-bit mix (splitmix64 finalizer) used for pseudo-random
/// vertex placement; matches the paper's "vertices are randomly assigned to
/// workers" without a seed dependency.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Topology {
    /// Build from an explicit owner vector (`owner[v]` = worker of `v`).
    pub fn from_owners(workers: usize, owner: Vec<u16>) -> Self {
        assert!(workers > 0 && workers <= u16::MAX as usize);
        assert!(
            owner.iter().all(|&w| (w as usize) < workers),
            "owner index out of range"
        );
        let mut locals: Vec<Vec<u32>> = vec![Vec::new(); workers];
        let mut local_index = vec![0u32; owner.len()];
        for (v, &w) in owner.iter().enumerate() {
            local_index[v] = locals[w as usize].len() as u32;
            locals[w as usize].push(v as u32);
        }
        Topology {
            workers,
            owner,
            local_index,
            locals,
            mirror: None,
        }
    }

    /// Attach a [`MirrorPlan`] (built at ship time by the partitioner).
    pub fn with_mirror(mut self, plan: Arc<MirrorPlan>) -> Self {
        self.mirror = Some(plan);
        self
    }

    /// The attached mirror plan, if any.
    pub fn mirror_plan(&self) -> Option<&Arc<MirrorPlan>> {
        self.mirror.as_ref()
    }

    /// Pseudo-random (hash) placement of `n` vertices over `workers`
    /// workers — the paper's default.
    pub fn hashed(n: usize, workers: usize) -> Self {
        let owner = (0..n as u64)
            .map(|v| (mix64(v) % workers as u64) as u16)
            .collect();
        Topology::from_owners(workers, owner)
    }

    /// Contiguous block placement (vertex id ranges). Useful when vertex ids
    /// have been relabelled by a partitioner so that blocks are contiguous.
    pub fn blocked(n: usize, workers: usize) -> Self {
        let per = n.div_ceil(workers.max(1)).max(1);
        let owner = (0..n)
            .map(|v| ((v / per).min(workers - 1)) as u16)
            .collect();
        Topology::from_owners(workers, owner)
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total number of vertices.
    pub fn n(&self) -> usize {
        self.owner.len()
    }

    /// Owning worker of vertex `v`.
    #[inline]
    pub fn worker_of(&self, v: u32) -> usize {
        self.owner[v as usize] as usize
    }

    /// Dense local index of `v` within its owning worker.
    #[inline]
    pub fn local_of(&self, v: u32) -> u32 {
        self.local_index[v as usize]
    }

    /// Global ids of the vertices on `worker` (local index → global id).
    pub fn locals(&self, worker: usize) -> &[u32] {
        &self.locals[worker]
    }

    /// Number of vertices on `worker`.
    pub fn local_count(&self, worker: usize) -> usize {
        self.locals[worker].len()
    }

    /// Maximum/minimum vertices per worker — load balance diagnostic.
    pub fn balance(&self) -> (usize, usize) {
        let max = self.locals.iter().map(Vec::len).max().unwrap_or(0);
        let min = self.locals.iter().map(Vec::len).min().unwrap_or(0);
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashed_covers_all_vertices_consistently() {
        let t = Topology::hashed(1000, 7);
        assert_eq!(t.n(), 1000);
        let mut seen = 0usize;
        for w in 0..7 {
            for (li, &v) in t.locals(w).iter().enumerate() {
                assert_eq!(t.worker_of(v), w);
                assert_eq!(t.local_of(v) as usize, li);
                seen += 1;
            }
        }
        assert_eq!(seen, 1000);
    }

    #[test]
    fn hashed_is_roughly_balanced() {
        let t = Topology::hashed(100_000, 8);
        let (min, max) = t.balance();
        // Within 10% of perfect balance for a good mix function.
        assert!(min > 100_000 / 8 * 9 / 10, "min={min}");
        assert!(max < 100_000 / 8 * 11 / 10, "max={max}");
    }

    #[test]
    fn blocked_assigns_ranges() {
        let t = Topology::blocked(10, 3);
        assert_eq!(t.worker_of(0), 0);
        assert_eq!(t.worker_of(3), 0);
        assert_eq!(t.worker_of(4), 1);
        assert_eq!(t.worker_of(9), 2);
        assert_eq!(t.local_of(4), 0);
    }

    #[test]
    fn from_owners_explicit() {
        let t = Topology::from_owners(3, vec![2, 0, 2, 1]);
        assert_eq!(t.locals(2), &[0, 2]);
        assert_eq!(t.locals(0), &[1]);
        assert_eq!(t.local_of(2), 1);
        assert_eq!(t.local_count(1), 1);
    }

    #[test]
    #[should_panic(expected = "owner index out of range")]
    fn from_owners_validates_range() {
        Topology::from_owners(2, vec![0, 5]);
    }

    #[test]
    fn single_worker_owns_everything() {
        let t = Topology::hashed(64, 1);
        assert_eq!(t.local_count(0), 64);
        assert_eq!(t.balance(), (64, 64));
    }

    /// An owner table `sample_plan` fits: worker 0 owns 5 vertices, 1
    /// owns 8, 2 owns vertex 3 alone.
    const SAMPLE_OWNER: [u16; 14] = [0, 0, 0, 2, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1];

    fn sample_plan() -> MirrorPlan {
        MirrorPlan {
            threshold: 16,
            hubs: vec![
                MirrorHub {
                    id: 3,
                    peers: vec![0, 2],
                    targets: vec![(0, vec![1, 4, 4]), (2, vec![0])],
                },
                MirrorHub {
                    id: 9,
                    peers: vec![1],
                    targets: vec![(1, vec![7])],
                },
            ],
        }
    }

    fn encoded(plan: &MirrorPlan, only: Option<u16>) -> Vec<u8> {
        let mut buf = Vec::new();
        plan.encode_into(only, &mut buf);
        assert_eq!(buf.len(), plan.encoded_len(only));
        buf
    }

    #[test]
    fn mirror_plan_roundtrips() {
        let plan = sample_plan();
        let buf = encoded(&plan, None);
        let mut r = Reader::new(&buf);
        let back = MirrorPlan::decode_from(&mut r, &SAMPLE_OWNER).unwrap();
        assert!(r.is_empty());
        assert_eq!(back, plan);
        assert_eq!(back.hubs[0].targets_for(2), Some(&[0u32][..]));
        assert_eq!(back.hubs[0].targets_for(1), None);
    }

    /// A plan encoded for one worker keeps every hub's id and peers and
    /// that worker's target runs, nothing else.
    #[test]
    fn mirror_plan_for_one_worker_keeps_its_own_targets() {
        let plan = sample_plan();
        for worker in 0..3u16 {
            let buf = encoded(&plan, Some(worker));
            let back = MirrorPlan::decode_from(&mut Reader::new(&buf), &SAMPLE_OWNER).unwrap();
            assert_eq!(back.threshold, plan.threshold);
            for (got, full) in back.hubs.iter().zip(&plan.hubs) {
                assert_eq!((got.id, &got.peers), (full.id, &full.peers));
                let kept: Vec<_> = full.targets.iter().filter(|t| t.0 == worker).collect();
                assert_eq!(got.targets.iter().collect::<Vec<_>>(), kept);
            }
            assert!(buf.len() < encoded(&plan, None).len());
        }
    }

    #[test]
    fn mirror_plan_decode_rejects_truncation_at_every_cut() {
        let plan = sample_plan();
        let buf = encoded(&plan, None);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(
                MirrorPlan::decode_from(&mut r, &SAMPLE_OWNER).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    /// Everything a Mirror channel would index with is checked against
    /// the owner table the plan rode with.
    #[test]
    fn mirror_plan_decode_rejects_what_would_index_out_of_bounds() {
        let decode = |plan: &MirrorPlan, owner: &[u16]| {
            MirrorPlan::decode_from(&mut Reader::new(&encoded(plan, None)), owner)
        };
        let broken = |edit: fn(&mut MirrorPlan)| {
            let mut plan = sample_plan();
            edit(&mut plan);
            decode(&plan, &SAMPLE_OWNER)
        };
        assert!(broken(|p| p.hubs[1].id = 14).is_err(), "id out of range");
        assert!(broken(|p| p.hubs[1].id = 3).is_err(), "ids not ascending");
        assert!(broken(|p| p.hubs[0].peers = vec![2, 0]).is_err());
        assert!(broken(|p| p.hubs[0].peers.push(3)).is_err(), "no worker 3");
        assert!(broken(|p| p.hubs[0].targets.reverse()).is_err());
        assert!(
            broken(|p| p.hubs[1].targets[0].0 = 0).is_err(),
            "not a peer"
        );
        assert!(
            broken(|p| p.hubs[0].targets[1].1 = vec![1]).is_err(),
            "worker 2 owns one"
        );
        assert!(
            decode(&sample_plan(), &SAMPLE_OWNER[..9]).is_err(),
            "hub 9 out of range"
        );
    }

    #[test]
    fn topology_carries_a_mirror_plan() {
        let t = Topology::hashed(8, 2);
        assert!(t.mirror_plan().is_none());
        let t = t.with_mirror(Arc::new(sample_plan()));
        assert_eq!(t.mirror_plan().unwrap().threshold, 16);
        // Cloning keeps the plan shared, not duplicated.
        let c = t.clone();
        assert!(Arc::ptr_eq(
            c.mirror_plan().unwrap(),
            t.mirror_plan().unwrap()
        ));
    }
}
