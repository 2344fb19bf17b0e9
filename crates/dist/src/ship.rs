//! Partition shipping: rank 0 loads the graph, partitions it, and sends
//! every rank exactly what it reads.
//!
//! A rank's `compute()` only ever reads the adjacency of its **local**
//! vertices, so the plan shipped to rank `r` carries the CSR *row slice*
//! of the full graph ([`pc_graph::Graph::restrict_rows`]) — same vertex id
//! space, same row contents byte for byte, empty rows elsewhere.
//! [`encode_rank_plan`] writes those rows straight from the loaded graph,
//! without building the slice first. That keeps the engine-observable
//! behavior identical to a single-process run (the conformance contract)
//! while each rank stores only its share of the arcs. Algorithms that
//! also walk reverse edges (SCC) get a second slice of the transposed
//! graph; the plan carries any number of slices.
//!
//! The ownership table rides along so every rank builds the identical
//! [`pc_bsp::Topology`] without re-deriving the partition. When a
//! degree-aware partitioner built mirror/ghost tables for high-degree
//! vertices, a [`pc_bsp::MirrorPlan`] rides along too, so every rank
//! pre-wires its Mirror channel instead of shipping tables in-band — and
//! rank `r`'s copy keeps every hub's id and peers but only the target runs
//! on `r`, which is all the channel reads there. On a skewed graph the
//! targets of hubs on other ranks are most of a plan.
//!
//! Every array crosses as one little-endian run, each plan is sized
//! exactly before a byte is written, and the decoder checks every count
//! against the bytes present before it allocates: a malformed plan is a
//! typed error, never a panic.

use pc_bsp::{Codec, MirrorPlan, Reader, Topology};
use pc_graph::{io as gio, Graph, VertexId};

/// The row slice of `g` that `rank` needs: adjacency kept verbatim for
/// the vertices `topo` assigns to `rank`, empty rows elsewhere.
pub fn slice_for_rank<W: Copy + Default>(g: &Graph<W>, topo: &Topology, rank: usize) -> Graph<W> {
    g.restrict_rows(|v| topo.worker_of(v) == rank)
}

/// Encode a plan that carries `graphs` whole: the full ownership table,
/// every row of every graph (forward, and reverse for SCC-style
/// programs), and the mirror plan with every worker's targets. Shipped
/// per rank, `graphs` are that rank's slices.
pub fn encode_plan<W: Codec + Copy>(
    owner: &[u16],
    graphs: &[&Graph<W>],
    mirror: Option<&MirrorPlan>,
) -> Vec<u8> {
    encode(owner, graphs, mirror, None)
}

/// Encode the plan rank `rank` reads, straight from the full `graphs`:
/// the full ownership table, the rows `rank` owns, and — when a mirror
/// plan was built — every hub's id and peers with `rank`'s targets alone.
/// Decodes to what [`encode_plan`] of `rank`'s slices and that restricted
/// mirror plan would.
pub fn encode_rank_plan<W: Codec + Copy>(
    owner: &[u16],
    graphs: &[&Graph<W>],
    mirror: Option<&MirrorPlan>,
    rank: usize,
) -> Vec<u8> {
    encode(owner, graphs, mirror, Some(rank as u16))
}

/// The one plan encoder: rank `only`'s rows and targets, or everything.
fn encode<W: Codec + Copy>(
    owner: &[u16],
    graphs: &[&Graph<W>],
    mirror: Option<&MirrorPlan>,
    only: Option<u16>,
) -> Vec<u8> {
    let keep = |v: VertexId| only.is_none_or(|r| owner[v as usize] == r);
    let len = 8
        + 2 * owner.len()
        + 4
        + graphs
            .iter()
            .map(|g| gio::rows_wire_len(g, keep))
            .sum::<usize>()
        + 1
        + mirror.map_or(0, |plan| plan.encoded_len(only));
    let mut buf = Vec::with_capacity(len);
    (owner.len() as u64).encode(&mut buf);
    u16::encode_slice(owner, &mut buf);
    (graphs.len() as u32).encode(&mut buf);
    for g in graphs {
        gio::encode_rows(g, keep, &mut buf);
    }
    match mirror {
        None => false.encode(&mut buf),
        Some(plan) => {
            true.encode(&mut buf);
            plan.encode_into(only, &mut buf);
        }
    }
    debug_assert_eq!(buf.len(), len, "the plan's size, computed ahead");
    buf
}

/// Reassemble the full graph from every rank's row slice (index =
/// rank). The slices partition the rows — each vertex's adjacency lives
/// verbatim in exactly its owner's slice and is empty everywhere else —
/// so the union is bit-identical to the graph rank 0 originally loaded.
///
/// This is how a takeover coordinator serves `--verify` without ever
/// having seen the input: the replicated plans hold every rank's slice,
/// and merging them reconstructs the sequential reference's graph.
pub fn merge_slices<W: Copy + Default>(
    owner: &[u16],
    slices: &[Graph<W>],
) -> Result<Graph<W>, String> {
    let Some(first) = slices.first() else {
        return Err("no slices to merge".to_string());
    };
    let n = first.n();
    if n != owner.len() {
        return Err(format!("{n}-vertex slices but {} owners", owner.len()));
    }
    let directed = {
        let (_, _, _, _, d) = first.csr_parts();
        d
    };
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut targets = Vec::new();
    let mut weights: Vec<W> = Vec::new();
    for v in 0..n as u32 {
        let rank = owner[v as usize] as usize;
        let slice = slices
            .get(rank)
            .ok_or_else(|| format!("vertex {v} owned by rank {rank}, but no such slice"))?;
        if slice.n() != n {
            return Err(format!(
                "slice {rank} has {} vertices, expected {n}",
                slice.n()
            ));
        }
        targets.extend_from_slice(slice.neighbors(v));
        weights.extend_from_slice(slice.weights(v));
        offsets.push(targets.len());
    }
    Graph::from_csr_parts(n, offsets, targets, weights, directed)
}

/// What [`decode_plan`] recovers: the ownership table, the graph slices,
/// and the mirror plan when rank 0 built one.
pub type DecodedPlan<W> = (Vec<u16>, Vec<Graph<W>>, Option<MirrorPlan>);

/// Decode a plan written by [`encode_plan`] or [`encode_rank_plan`]:
/// every count checked against the bytes left before anything is
/// allocated, every graph over the owner table's vertices, the mirror
/// plan checked against the owner table ([`MirrorPlan::decode_from`]).
pub fn decode_plan<W: Codec + Copy + Default>(payload: &[u8]) -> Result<DecodedPlan<W>, String> {
    let mut r = Reader::new(payload);
    if r.remaining() < 8 {
        return Err("plan header truncated".to_string());
    }
    let n: u64 = r.get();
    let n = usize::try_from(n).map_err(|_| "owner count overflows usize".to_string())?;
    let owner = u16::decode_slice(&mut r, n).ok_or_else(|| {
        format!(
            "owner table truncated: {} bytes left, {} needed",
            r.remaining(),
            n.saturating_mul(2)
        )
    })?;
    if r.remaining() < 4 {
        return Err("graph count truncated".to_string());
    }
    let ngraphs: u32 = r.get();
    let mut graphs = Vec::new();
    for _ in 0..ngraphs {
        let g = gio::decode_graph(&mut r)?;
        if g.n() != n {
            return Err(format!("a {}-vertex graph for {n} owners", g.n()));
        }
        graphs.push(g);
    }
    if r.remaining() < 1 {
        return Err("mirror section truncated".to_string());
    }
    let mirror = match r.get::<u8>() {
        0 => None,
        1 => Some(MirrorPlan::decode_from(&mut r, &owner)?),
        flag => return Err(format!("mirror flag {flag}, expected 0 or 1")),
    };
    if !r.is_empty() {
        return Err(format!("{} trailing bytes after plan", r.remaining()));
    }
    Ok((owner, graphs, mirror))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_graph::{gen, partition};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    fn owners(topo: &Topology) -> Vec<u16> {
        (0..topo.n() as u32)
            .map(|v| topo.worker_of(v) as u16)
            .collect()
    }

    /// Slices cover the graph: every arc of the original appears in
    /// exactly one rank's slice, rows verbatim, and the whole plan
    /// round-trips through the wire encoding.
    #[test]
    fn plan_roundtrip_partitions_all_rows() {
        let g = gen::rmat_weighted(7, 700, gen::RmatParams::default(), 3, false, 100);
        let workers = 3;
        let topo = Topology::hashed(g.n(), workers);
        let owner = owners(&topo);
        let mut covered = 0usize;
        for rank in 0..workers {
            let slice = slice_for_rank(&g, &topo, rank);
            let payload = encode_plan(&owner, &[&slice], None);
            let (owner2, graphs, mirror) = decode_plan::<u32>(&payload).unwrap();
            assert!(mirror.is_none());
            assert_eq!(owner2, owner);
            assert_eq!(graphs.len(), 1);
            assert_eq!(&graphs[0], &slice);
            for v in 0..g.n() as u32 {
                if topo.worker_of(v) == rank {
                    assert_eq!(slice.neighbors(v), g.neighbors(v));
                    assert_eq!(slice.weights(v), g.weights(v));
                    covered += slice.degree(v);
                } else {
                    assert_eq!(slice.degree(v), 0);
                }
            }
        }
        assert_eq!(covered, g.arc_count(), "slices cover every arc once");
    }

    /// Merging every rank's slice reconstructs the original graph
    /// bit-for-bit — the property a takeover coordinator's `--verify`
    /// depends on.
    #[test]
    fn merged_slices_reconstruct_the_full_graph() {
        let g = gen::rmat_weighted(7, 700, gen::RmatParams::default(), 3, false, 100);
        let workers = 3;
        let topo = Topology::hashed(g.n(), workers);
        let owner = owners(&topo);
        let slices: Vec<Graph<u32>> = (0..workers)
            .map(|rank| slice_for_rank(&g, &topo, rank))
            .collect();
        let merged = merge_slices(&owner, &slices).unwrap();
        assert_eq!(merged, g);
        // A missing slice is an error, not a silent hole.
        assert!(merge_slices(&owner, &slices[..workers - 1]).is_err());
        assert!(merge_slices::<u32>(&owner, &[]).is_err());
    }

    /// Multi-graph plans (forward + reverse, the SCC shape) round-trip.
    #[test]
    fn plan_carries_multiple_slices() {
        let g = gen::rmat(7, 500, gen::RmatParams::default(), 9, true);
        let rev = g.reverse();
        let topo = Topology::hashed(g.n(), 2);
        let owner = owners(&topo);
        let fwd_slice = slice_for_rank(&g, &topo, 1);
        let rev_slice = slice_for_rank(&rev, &topo, 1);
        let payload = encode_plan(&owner, &[&fwd_slice, &rev_slice], None);
        let (_, graphs, _) = decode_plan::<()>(&payload).unwrap();
        assert_eq!(graphs.len(), 2);
        assert_eq!(&graphs[0], &fwd_slice);
        assert_eq!(&graphs[1], &rev_slice);
    }

    /// A mirror plan rides with the owner table and slices, byte-exact,
    /// and truncating its section errors instead of panicking.
    #[test]
    fn plan_carries_mirror_tables() {
        let g = gen::star(200);
        let topo = Topology::hashed(g.n(), 4);
        let owner = owners(&topo);
        let plan = pc_graph::partition::build_mirror_plan(&g, &topo, 16);
        assert!(!plan.hubs.is_empty());
        let slice = slice_for_rank(&g, &topo, 2);
        let payload = encode_plan(&owner, &[&slice], Some(&plan));
        let (owner2, graphs, mirror) = decode_plan::<()>(&payload).unwrap();
        assert_eq!(owner2, owner);
        assert_eq!(&graphs[0], &slice);
        assert_eq!(mirror.as_ref(), Some(&plan));
        // Truncation anywhere inside the mirror section errors cleanly.
        let without = encode_plan(&owner, &[&slice], None).len();
        for cut in without..payload.len() {
            assert!(decode_plan::<()>(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// A rank's own plan, encoded straight from the full graph, decodes to
    /// its row slice and a mirror plan holding every hub's id and peers
    /// but only that rank's targets — and is the smaller for it.
    #[test]
    fn rank_plans_carry_own_rows_and_own_targets() {
        let g = gen::ring_with_hub(40, 300);
        let topo = Topology::hashed(g.n(), 3);
        let owner = owners(&topo);
        let plan = pc_graph::partition::build_mirror_plan(&g, &topo, 16);
        for rank in 0..3 {
            let slice = slice_for_rank(&g, &topo, rank);
            let payload = encode_rank_plan(&owner, &[&g], Some(&plan), rank);
            let (owner2, graphs, mirror) = decode_plan::<()>(&payload).unwrap();
            assert_eq!((owner2, graphs), (owner.clone(), vec![slice.clone()]));
            let mirror = mirror.unwrap();
            assert_eq!(mirror.threshold, plan.threshold);
            for (got, full) in mirror.hubs.iter().zip(&plan.hubs) {
                assert_eq!((got.id, &got.peers), (full.id, &full.peers));
                let own = full
                    .targets_for(rank as u16)
                    .map(|t| (rank as u16, t.to_vec()));
                assert_eq!(got.targets, Vec::from_iter(own));
            }
            assert!(payload.len() < encode_plan(&owner, &[&slice], Some(&plan)).len());
            // Without a mirror plan it is the slice's plan, byte for byte.
            assert_eq!(
                encode_rank_plan(&owner, &[&g], None, rank),
                encode_plan(&owner, &[&slice], None)
            );
        }
    }

    #[test]
    fn plan_decode_rejects_garbage() {
        assert!(decode_plan::<()>(&[]).is_err());
        let g = gen::cycle(5);
        let topo = Topology::hashed(5, 2);
        let payload = encode_plan(&[0, 0, 1, 1, 0], &[&slice_for_rank(&g, &topo, 0)], None);
        // Truncation anywhere must error, never panic.
        for cut in [3, 10, payload.len() - 1] {
            assert!(decode_plan::<()>(&payload[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing junk is rejected too.
        let mut noisy = payload.clone();
        noisy.push(7);
        assert!(decode_plan::<()>(&noisy).is_err());
    }

    /// Counts the largest single allocation this thread makes while armed:
    /// the witness that no claimed count sizes a buffer the bytes present
    /// could not fill.
    struct Peak;

    thread_local! {
        static ARMED: Cell<bool> = const { Cell::new(false) };
        static PEAK: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        // `try_with`: an allocation during thread teardown is not counted.
        let _ = ARMED.try_with(|armed| {
            if armed.get() {
                PEAK.with(|peak| peak.set(peak.get().max(size)));
            }
        });
    }

    // SAFETY: every call is forwarded unchanged to `System`; the only
    // addition reads and writes two const-initialized thread-local cells,
    // which never allocate or unwind.
    unsafe impl GlobalAlloc for Peak {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOC: Peak = Peak;

    /// What an error message may allocate whatever the input.
    const MESSAGE: usize = 256;

    /// Decode `bytes`: whether that failed, and the largest single
    /// allocation the attempt made.
    fn decode_damaged(bytes: &[u8]) -> (bool, usize) {
        PEAK.with(|peak| peak.set(0));
        ARMED.with(|armed| armed.set(true));
        let failed = decode_plan::<()>(bytes).is_err();
        ARMED.with(|armed| armed.set(false));
        (failed, PEAK.with(Cell::get))
    }

    /// Offset and width of every count or length field of a well-formed
    /// plan: the owner count, the graph count, each graph's vertex and arc
    /// counts, and the mirror section's hub, peer, run and target counts.
    fn count_fields(payload: &[u8]) -> Vec<(usize, usize)> {
        let mut r = Reader::new(payload);
        let at = |r: &Reader| payload.len() - r.remaining();
        let mut fields = vec![(0, 8)];
        let n: u64 = r.get();
        r.take(2 * n as usize);
        fields.push((at(&r), 4));
        for _ in 0..r.get::<u32>() {
            let start = at(&r);
            fields.extend([(start + 1, 8), (start + 10, 8)]);
            gio::decode_graph::<()>(&mut r).unwrap();
        }
        if r.get::<bool>() {
            r.take(8);
            fields.push((at(&r), 4));
            for _ in 0..r.get::<u32>() {
                r.take(4);
                fields.push((at(&r), 4));
                let peers: u32 = r.get();
                r.take(2 * peers as usize);
                fields.push((at(&r), 4));
                for _ in 0..r.get::<u32>() {
                    r.take(2);
                    fields.push((at(&r), 4));
                    let len: u32 = r.get();
                    r.take(4 * len as usize);
                }
            }
        }
        assert!(r.is_empty());
        fields
    }

    /// The decoder property of shipped plans, on every rank's own plan for
    /// hashed and degree-sorted LDG owners, with and without a mirror
    /// section: every prefix cut, every single-bit flip of a count or
    /// length field and every absurd count is a typed error — never a
    /// panic, and never an allocation larger than the bytes given (or
    /// than an error message).
    #[test]
    fn rank_plans_reject_every_cut_flip_and_absurd_count() {
        let workers = 3;
        let rmat = gen::rmat(6, 300, gen::RmatParams::default(), 5, false);
        let mut cases = 0;
        for g in [gen::ring_with_hub(40, 60), rmat.symmetrized()] {
            let ldg = partition::ldg_deg(&g, workers, 2);
            for topo in [
                Topology::hashed(g.n(), workers),
                Topology::from_owners(workers, ldg),
            ] {
                let owner = owners(&topo);
                let tau = partition::default_mirror_threshold(&g);
                let plan = partition::build_mirror_plan(&g, &topo, tau);
                assert!(!plan.hubs.is_empty());
                for (mirror, rank) in [None, Some(&plan)]
                    .into_iter()
                    .flat_map(|m| (0..workers).map(move |r| (m, r)))
                {
                    let payload = encode_rank_plan(&owner, &[&g], mirror, rank);
                    assert!(decode_plan::<()>(&payload).is_ok());
                    let what = format!(
                        "{} vertices, rank {rank}, mirror {}",
                        g.n(),
                        mirror.is_some()
                    );
                    for cut in 0..payload.len() {
                        let (failed, peak) = decode_damaged(&payload[..cut]);
                        assert!(failed, "{what}: the cut at {cut} decoded");
                        assert!(
                            peak <= cut.max(MESSAGE),
                            "{what}: the cut at {cut} allocated {peak} B"
                        );
                    }
                    for (at, width) in count_fields(&payload) {
                        let flips = (0..8 * width).map(|bit| {
                            let mut damaged = payload.clone();
                            damaged[at + bit / 8] ^= 1 << (bit % 8);
                            damaged
                        });
                        let absurd = [u64::MAX, 1 << (8 * width - 1)].map(|count| {
                            let mut damaged = payload.clone();
                            damaged[at..at + width].copy_from_slice(&count.to_le_bytes()[..width]);
                            damaged
                        });
                        for damaged in flips.chain(absurd) {
                            let (failed, peak) = decode_damaged(&damaged);
                            let field = format!("the {width}-byte count at {at}");
                            assert!(failed, "{what}: {field} damaged decoded");
                            assert!(
                                peak <= payload.len().max(MESSAGE),
                                "{what}: {field} allocated {peak} B"
                            );
                        }
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 2 * 2 * 2 * workers);
    }
}
