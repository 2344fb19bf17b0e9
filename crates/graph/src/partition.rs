//! Graph partitioners and the edge-cut metric.
//!
//! The paper evaluates the Propagation channel and Blogel on a
//! METIS-partitioned Wikipedia ("Wikipedia (P)"). METIS is proprietary-ish
//! and unavailable offline, so we provide two locality-aware partitioners
//! that serve the same role — producing a partition with a much lower
//! edge-cut than random assignment:
//!
//! * [`ldg`] — Linear Deterministic Greedy streaming partitioning
//!   (Stanton & Kliot), optionally with multiple refinement passes;
//! * [`ldg_deg`] — the same greedy, streaming vertices highest-degree
//!   first so hubs are placed while capacity is still balanced — the
//!   degree-aware ordering the skew literature recommends for power-law
//!   graphs;
//! * [`bfs_blocks`] — BFS block growing (the partitioner Blogel itself
//!   ships for graphs without coordinates).
//!
//! Quality is quantified by [`edge_cut`] and the fuller
//! [`PartitionReport`] (sizes + per-part mirror replication factors);
//! tests assert the locality-aware partitioners beat random placement on
//! structured graphs. [`build_mirror_plan`] derives the mirror/ghost
//! tables for vertices with out-degree ≥ τ that the distributed runtime
//! ships with the partition plan.
//!
//! **Threads and memory.** The launcher runs these on rank 0 while every
//! follower waits for its plan, so the followers' cores are idle.
//! [`edge_cut`] and [`build_mirror_plan`] cut their rows (hubs) into runs
//! of about equal arcs, one run per core and at least `SPLIT_ARCS` arcs
//! each, and their results do not depend on the cut. LDG stays on one
//! thread, because each placement reads the ones before it. What these
//! passes read at random is a few bytes per vertex (the owner table, local
//! indices): on the benchmark's 131 k-vertex input that fits a 2 MiB L2.
//! LDG's scoring and the plan's counting pass increment one of a few
//! counters per arc, so two interleaved accumulator arrays keep an
//! increment from waiting on the store of the one before. Cache-blocking
//! does not pay at this size either: on a 2-core 2.1 GHz Xeon (2 MiB L2 per
//! core), placing 2 M edges into 2¹⁸ keys took 24–32 ms in one pass and
//! 20–33 ms in two high-bits-first passes (2⁸–2¹² buckets), with no
//! consistent winner. What does cost there is the first touch of a fresh
//! page, ≈ 2.2 µs per 4 KiB, so plan vectors are sized exactly by a
//! counting pass before they are filled.

use crate::csr::{bucket_by_key, cores, even_cuts, on_each, Graph, VertexId};
use pc_bsp::{MirrorHub, MirrorPlan, Topology};

/// Fraction of arcs whose endpoints live in different parts, given
/// `owner[v]` assignments. Returns `(cut_arcs, total_arcs)`.
pub fn edge_cut<W: Copy>(g: &Graph<W>, owner: &[u16]) -> (usize, usize) {
    edge_cut_split(g, owner, SPLIT_ARCS, cores())
}

/// [`edge_cut`] with the split's two inputs as arguments: rows cut into
/// runs of about equal arcs, one run per `split_arcs` arcs up to
/// `max_splits`, each run counted on its own thread.
fn edge_cut_split<W: Copy>(
    g: &Graph<W>,
    owner: &[u16],
    split_arcs: usize,
    max_splits: usize,
) -> (usize, usize) {
    assert_eq!(owner.len(), g.n());
    let (_, offsets, targets, _, _) = g.csr_parts();
    let runs = even_cuts(offsets, splits(targets.len(), split_arcs, max_splits));
    let cut = on_each(runs.windows(2), &|run| {
        (run[0]..run[1])
            .map(|u| {
                let o = owner[u];
                let row = &targets[offsets[u]..offsets[u + 1]];
                row.iter().filter(|&&t| owner[t as usize] != o).count()
            })
            .sum::<usize>()
    });
    (cut.into_iter().sum(), targets.len())
}

/// Arcs below which a pass over a graph stays on the calling thread: a
/// thread costs tens of microseconds to start, a core counts about this
/// many arcs in a few hundred.
const SPLIT_ARCS: usize = 1 << 18;

/// How many threads a pass over `arcs` arcs splits across: one per
/// `split_arcs` arcs, at least one and at most `max_splits`.
fn splits(arcs: usize, split_arcs: usize, max_splits: usize) -> usize {
    (arcs / split_arcs).clamp(1, max_splits.max(1))
}

/// Pseudo-random (hash) assignment — the baseline the paper calls
/// "vertices are randomly assigned to workers". Uses the same mix as
/// `pc_bsp::Topology::hashed`, so the two agree vertex for vertex.
pub fn random_owners(n: usize, parts: usize) -> Vec<u16> {
    (0..n as u64)
        .map(|v| (pc_bsp::topology::mix64(v) % parts as u64) as u16)
        .collect()
}

/// Linear Deterministic Greedy streaming partitioner.
///
/// Vertices are streamed in id order; each is placed on the part that
/// maximizes `|neighbors already there| * (1 - size/capacity)`. `passes > 1`
/// re-streams with the previous assignment as the neighborhood oracle,
/// which substantially improves locality on meshes.
pub fn ldg<W: Copy>(g: &Graph<W>, parts: usize, passes: usize) -> Vec<u16> {
    ldg_stream(g, parts, passes, 0..g.n() as VertexId)
}

/// Degree-sorted Linear Deterministic Greedy: the same greedy placement
/// as [`ldg`], but streaming vertices in descending degree order (ties
/// broken by ascending id, so the order — and thus the partition — is
/// deterministic). Hubs are placed first, while every part still has
/// capacity, and their neighborhoods then accrete around them; the
/// id-order stream instead meets a hub only after scattered low-degree
/// neighbors have pinned it nowhere in particular.
pub fn ldg_deg<W: Copy>(g: &Graph<W>, parts: usize, passes: usize) -> Vec<u16> {
    let order = degree_order(g);
    ldg_stream(g, parts, passes, order.iter().copied())
}

/// Every vertex by descending degree, ties by ascending id: the vertices
/// in id order bucketed by `top - degree`, so the ascending buckets
/// descend by degree.
fn degree_order<W: Copy>(g: &Graph<W>) -> Vec<VertexId> {
    // The offsets, not `g`: the kernel's ranges are `Sync`, a `W` need not be.
    let (n, offsets, ..) = g.csr_parts();
    let degree = |v: usize| offsets[v + 1] - offsets[v];
    let top = (0..n).map(degree).max().unwrap_or(0);
    u32::try_from(top).expect("a vertex of more than u32::MAX arcs");
    let ids = (0..n).map(|v| ((top - degree(v)) as u32, v as VertexId, ()));
    bucket_by_key(top + 1, &[ids], false, false).1
}

/// The greedy both LDG variants run, streaming vertices in `order` (every
/// vertex once) for `passes` passes.
///
/// A vertex's neighbors are counted per part into two interleaved
/// accumulator arrays, even positions into one and odd into the other,
/// summed once per vertex: two increments in a row of the same part no
/// longer wait on each other's store. "Already placed" is read straight
/// off the owner table: unplaced vertices are `u16::MAX` in the first
/// pass, and refinement passes see last pass's placement for
/// not-yet-restreamed vertices the same way. An unplaced neighbor counts
/// into slot `parts`, which no part reads, so the loop has no branch. The
/// counts are exact integers, so every score and decision is that of a
/// single counter.
fn ldg_stream<W: Copy>(
    g: &Graph<W>,
    parts: usize,
    passes: usize,
    order: impl Iterator<Item = VertexId> + Clone,
) -> Vec<u16> {
    assert!(parts >= 1 && parts <= u16::MAX as usize);
    let n = g.n();
    let capacity = (n as f64 / parts as f64) * 1.1 + 1.0;
    let mut owner: Vec<u16> = vec![u16::MAX; n];
    let slot = |o: u16| (o as usize).min(parts);
    let mut counts = vec![0u32; 2 * (parts + 1)];
    let (even, odd) = counts.split_at_mut(parts + 1);
    for _pass in 0..passes.max(1) {
        let mut sizes = vec![0usize; parts];
        for v in order.clone() {
            even.fill(0);
            odd.fill(0);
            let mut pairs = g.neighbors(v).chunks_exact(2);
            for pair in &mut pairs {
                even[slot(owner[pair[0] as usize])] += 1;
                odd[slot(owner[pair[1] as usize])] += 1;
            }
            if let [t] = pairs.remainder() {
                even[slot(owner[*t as usize])] += 1;
            }
            let mut best = 0usize;
            let mut best_score = f64::MIN;
            for p in 0..parts {
                let penalty = 1.0 - sizes[p] as f64 / capacity;
                let score = (even[p] + odd[p]) as f64;
                let s = score * penalty.max(0.0) + penalty * 1e-6; // tie-break toward emptier parts
                if s > best_score {
                    best_score = s;
                    best = p;
                }
            }
            owner[v as usize] = best as u16;
            sizes[best] += 1;
        }
    }
    owner
}

/// Default mirror threshold τ: four times the mean degree, floored at
/// the paper's ghost-mode default of 16. On skew-free graphs (meshes,
/// rings) nothing qualifies; on power-law graphs only the true hubs do,
/// keeping the replication factor near 1 while the hub broadcasts
/// collapse to one message per worker.
pub fn default_mirror_threshold<W: Copy>(g: &Graph<W>) -> usize {
    let avg = g.arc_count() / g.n().max(1);
    (4 * avg).max(16)
}

/// Build the mirror/ghost tables for every vertex with out-degree ≥
/// `threshold` under `topo`'s placement — the per-worker broadcast
/// fan-out the Mirror channel pre-wires at construction instead of
/// shipping tables in-band on the first superstep.
///
/// Per hub, targets are grouped by owning worker preserving adjacency
/// order (duplicate edges included): mirror-side expansion applies the
/// combiner once per edge occurrence, exactly like the unmirrored
/// per-edge path, so results stay byte-identical.
pub fn build_mirror_plan<W: Copy>(g: &Graph<W>, topo: &Topology, threshold: usize) -> MirrorPlan {
    mirror_plan_split(g, topo, threshold, SPLIT_ARCS, cores())
}

/// [`build_mirror_plan`] with the split's two inputs as arguments: the
/// hubs cut into runs of about equal arcs, one run per `split_arcs` hub
/// arcs up to `max_splits`, each run built on its own thread.
fn mirror_plan_split<W: Copy>(
    g: &Graph<W>,
    topo: &Topology,
    threshold: usize,
    split_arcs: usize,
    max_splits: usize,
) -> MirrorPlan {
    assert_eq!(topo.n(), g.n(), "topology does not match the graph");
    let threshold = threshold.max(1);
    let (n, offsets, targets, _, _) = g.csr_parts();
    let ids: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| g.degree(v) >= threshold)
        .collect();
    let mut arcs = Vec::with_capacity(ids.len() + 1);
    arcs.push(0);
    for &v in &ids {
        arcs.push(arcs[arcs.len() - 1] + g.degree(v));
    }
    let runs = even_cuts(&arcs, splits(arcs[ids.len()], split_arcs, max_splits));
    let mut runs = on_each(runs.windows(2), &|run| {
        let mut counts = vec![0u32; 2 * topo.workers()];
        ids[run[0]..run[1]]
            .iter()
            .map(|&v| {
                let row = &targets[offsets[v as usize]..offsets[v as usize + 1]];
                mirror_hub(v, row, topo, &mut counts)
            })
            .collect::<Vec<_>>()
    })
    .into_iter();
    let mut hubs = runs.next().unwrap_or_default();
    hubs.reserve_exact(ids.len() - hubs.len());
    runs.for_each(|run| hubs.extend(run));
    MirrorPlan {
        threshold: threshold as u64,
        hubs,
    }
}

/// One hub's tables: its targets `row` counted per worker into two
/// interleaved accumulator arrays (as [`ldg_stream`] counts parts), one
/// exactly sized vector per worker that holds any, ascending, then every
/// target's local index pushed in adjacency order. `counts` is scratch of
/// two entries per worker.
fn mirror_hub(id: VertexId, row: &[VertexId], topo: &Topology, counts: &mut [u32]) -> MirrorHub {
    let (even, odd) = counts.split_at_mut(topo.workers());
    even.fill(0);
    odd.fill(0);
    let mut pairs = row.chunks_exact(2);
    for pair in &mut pairs {
        even[topo.worker_of(pair[0])] += 1;
        odd[topo.worker_of(pair[1])] += 1;
    }
    if let [t] = pairs.remainder() {
        even[topo.worker_of(*t)] += 1;
    }
    let mut peers = Vec::new();
    let mut targets: Vec<(u16, Vec<u32>)> = Vec::new();
    for (w, (e, o)) in even.iter_mut().zip(odd.iter()).enumerate() {
        let count = *e + *o;
        if count > 0 {
            // From here on a holding worker's entry is its run's index.
            *e = targets.len() as u32;
            peers.push(w as u16);
            targets.push((w as u16, Vec::with_capacity(count as usize)));
        }
    }
    for &t in row {
        targets[even[topo.worker_of(t)] as usize]
            .1
            .push(topo.local_of(t));
    }
    MirrorHub { id, peers, targets }
}

/// Skew diagnostics of one placement: edge cut, part sizes, and — when a
/// mirror plan is in play — mirrors hosted per part plus the resulting
/// replication factors. Printed by the launcher at ship time so skew is
/// visible before the run.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReport {
    /// Number of parts.
    pub parts: usize,
    /// Arcs whose endpoints live in different parts.
    pub cut: usize,
    /// Total arcs.
    pub total: usize,
    /// Vertices owned per part.
    pub sizes: Vec<usize>,
    /// Mirrors hosted per part (hub replicas whose master lives elsewhere).
    pub mirrors: Vec<usize>,
    /// The mirror threshold τ and hub count, when a plan was built.
    pub mirrored: Option<(usize, usize)>,
}

impl PartitionReport {
    /// Percentage of arcs cut.
    pub fn cut_percent(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.cut as f64 / self.total as f64
        }
    }

    /// Per-part replication factor: (owned + hosted mirrors) / owned.
    pub fn replication(&self) -> Vec<f64> {
        self.sizes
            .iter()
            .zip(&self.mirrors)
            .map(|(&s, &m)| {
                if s == 0 {
                    1.0
                } else {
                    (s + m) as f64 / s as f64
                }
            })
            .collect()
    }

    /// Largest per-part replication factor.
    pub fn max_replication(&self) -> f64 {
        self.replication().into_iter().fold(1.0, f64::max)
    }
}

impl std::fmt::Display for PartitionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "partition: {} parts, edge-cut {:.1}% ({}/{}), sizes {:?}",
            self.parts,
            self.cut_percent(),
            self.cut,
            self.total,
            self.sizes,
        )?;
        if let Some((tau, hubs)) = self.mirrored {
            write!(
                f,
                ", {} hubs mirrored (τ={}), mirrors/part {:?}, replication max {:.3}",
                hubs,
                tau,
                self.mirrors,
                self.max_replication(),
            )?;
        }
        Ok(())
    }
}

/// Compute a [`PartitionReport`] for a placement (and optional mirror
/// plan over it), given the placement's [`edge_cut`].
pub fn partition_report(
    owner: &[u16],
    parts: usize,
    (cut, total): (usize, usize),
    mirror: Option<&MirrorPlan>,
) -> PartitionReport {
    let sizes = part_sizes(owner, parts);
    let mut mirrors = vec![0usize; parts];
    if let Some(plan) = mirror {
        for h in &plan.hubs {
            for &p in &h.peers {
                if p != owner[h.id as usize] {
                    mirrors[p as usize] += 1;
                }
            }
        }
    }
    PartitionReport {
        parts,
        cut,
        total,
        sizes,
        mirrors,
        mirrored: mirror.map(|p| (p.threshold as usize, p.hubs.len())),
    }
}

/// BFS block-growing partitioner: repeatedly grow a block from the
/// lowest-id unassigned vertex until it reaches `n/parts` vertices.
/// Produces contiguous blocks on meshes/roads; matches Blogel's
/// graph-Voronoi spirit without coordinates.
pub fn bfs_blocks<W: Copy>(g: &Graph<W>, parts: usize) -> Vec<u16> {
    assert!(parts >= 1 && parts <= u16::MAX as usize);
    let n = g.n();
    let target = n.div_ceil(parts);
    let mut owner = vec![u16::MAX; n];
    let mut current: u16 = 0;
    let mut filled = 0usize;
    let mut queue = std::collections::VecDeque::new();
    let mut next_seed = 0u32;
    let mut assigned = 0usize;
    while assigned < n {
        // Find next seed.
        while (next_seed as usize) < n && owner[next_seed as usize] != u16::MAX {
            next_seed += 1;
        }
        if (next_seed as usize) >= n {
            break;
        }
        queue.push_back(next_seed);
        owner[next_seed as usize] = current;
        assigned += 1;
        filled += 1;
        while let Some(v) = queue.pop_front() {
            for &t in g.neighbors(v) {
                if owner[t as usize] == u16::MAX {
                    if filled >= target && (current as usize) < parts - 1 {
                        current += 1;
                        filled = 0;
                    }
                    owner[t as usize] = current;
                    assigned += 1;
                    filled += 1;
                    queue.push_back(t);
                }
            }
        }
        if filled >= target && (current as usize) < parts - 1 {
            current += 1;
            filled = 0;
        }
    }
    owner
}

/// Relabel vertices so that each part's vertices get contiguous ids
/// (part 0 first). Returns `(new_owner_by_new_id, old_to_new, new_to_old)`.
///
/// This is the "preprocess the graph by tagging a partition ID to the
/// vertex IDs" step the paper recommends before using the Propagation
/// channel.
pub fn relabel_contiguous(owner: &[u16], parts: usize) -> (Vec<u16>, Vec<u32>, Vec<u32>) {
    let n = owner.len();
    let mut old_to_new = vec![0u32; n];
    let mut new_to_old = vec![0u32; n];
    let mut next = 0u32;
    let mut new_owner = vec![0u16; n];
    for p in 0..parts as u16 {
        for v in 0..n {
            if owner[v] == p {
                old_to_new[v] = next;
                new_to_old[next as usize] = v as u32;
                new_owner[next as usize] = p;
                next += 1;
            }
        }
    }
    assert_eq!(next as usize, n, "owner vector references missing parts");
    (new_owner, old_to_new, new_to_old)
}

/// Apply a vertex relabelling to a graph.
pub fn relabel_graph<W: crate::io::WeightColumn>(g: &Graph<W>, old_to_new: &[u32]) -> Graph<W> {
    let edges: Vec<(VertexId, VertexId, W)> = g
        .arcs()
        .map(|(u, v, w)| (old_to_new[u as usize], old_to_new[v as usize], w))
        .collect();
    // Arcs of undirected graphs are already symmetric; rebuild as directed
    // to avoid doubling, preserving effective adjacency.
    Graph::from_weighted_edges(g.n(), &edges, true)
}

/// Largest/smallest part size for balance checks.
pub fn part_sizes(owner: &[u16], parts: usize) -> Vec<usize> {
    let mut sizes = vec![0usize; parts];
    for &o in owner {
        sizes[o as usize] += 1;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn edge_cut_counts_cross_part_arcs() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], false);
        let owner = vec![0, 0, 1, 1];
        let (cut, total) = edge_cut(&g, &owner);
        assert_eq!(total, 6); // symmetrized arcs
        assert_eq!(cut, 2); // 1-2 in both directions
    }

    #[test]
    fn random_owners_cover_all_parts() {
        let owner = random_owners(10_000, 8);
        let sizes = part_sizes(&owner, 8);
        assert!(sizes.iter().all(|&s| s > 1000));
    }

    #[test]
    fn ldg_beats_random_on_grid() {
        let g = gen::grid2d(40, 40, 0.0, 1);
        let rand_owner = random_owners(g.n(), 8);
        let ldg_owner = ldg(&g, 8, 3);
        let (cut_rand, total) = edge_cut(&g, &rand_owner);
        let (cut_ldg, _) = edge_cut(&g, &ldg_owner);
        assert!(
            (cut_ldg as f64) < 0.5 * cut_rand as f64,
            "LDG cut {cut_ldg}/{total} should be far below random {cut_rand}/{total}"
        );
    }

    #[test]
    fn ldg_is_reasonably_balanced() {
        let g = gen::rmat(10, 8000, gen::RmatParams::default(), 2, false);
        let owner = ldg(&g, 4, 2);
        let sizes = part_sizes(&owner, 4);
        let max = *sizes.iter().max().unwrap();
        assert!(max as f64 <= g.n() as f64 / 4.0 * 1.35, "sizes={sizes:?}");
    }

    #[test]
    fn bfs_blocks_beats_random_on_grid() {
        let g = gen::grid2d(40, 40, 0.0, 1);
        let owner = bfs_blocks(&g, 8);
        let rand_owner = random_owners(g.n(), 8);
        let (cut_bfs, _) = edge_cut(&g, &owner);
        let (cut_rand, _) = edge_cut(&g, &rand_owner);
        assert!(cut_bfs < cut_rand / 2, "bfs={cut_bfs} rand={cut_rand}");
        let sizes = part_sizes(&owner, 8);
        assert!(sizes.iter().all(|&s| s > 0), "no empty parts: {sizes:?}");
    }

    #[test]
    fn bfs_blocks_handles_disconnected_graphs() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3)], false);
        let owner = bfs_blocks(&g, 2);
        assert!(owner.iter().all(|&o| o < 2));
        assert_eq!(owner.len(), 6);
    }

    #[test]
    fn relabel_contiguous_roundtrip() {
        let owner = vec![1u16, 0, 1, 0, 2];
        let (new_owner, old_to_new, new_to_old) = relabel_contiguous(&owner, 3);
        assert_eq!(new_owner, vec![0, 0, 1, 1, 2]);
        for old in 0..5usize {
            assert_eq!(new_to_old[old_to_new[old] as usize] as usize, old);
            assert_eq!(new_owner[old_to_new[old] as usize], owner[old]);
        }
    }

    #[test]
    fn relabel_graph_preserves_structure() {
        let g = gen::cycle(8);
        let owner = bfs_blocks(&g, 2);
        let (_, old_to_new, new_to_old) = relabel_contiguous(&owner, 2);
        let rg = relabel_graph(&g, &old_to_new);
        for v in 0..8u32 {
            let mut expect: Vec<u32> = g
                .neighbors(new_to_old[v as usize])
                .iter()
                .map(|&t| old_to_new[t as usize])
                .collect();
            expect.sort_unstable();
            assert_eq!(rg.neighbors(v), &expect[..]);
        }
    }

    #[test]
    fn ldg_deg_streams_hubs_first_and_stays_balanced() {
        let g = gen::rmat(10, 8000, gen::RmatParams::default(), 2, false);
        let owner = ldg_deg(&g, 4, 2);
        let sizes = part_sizes(&owner, 4);
        let max = *sizes.iter().max().unwrap();
        // The greedy never places onto an over-capacity part while an
        // under-capacity one exists, so the slack bound is hard.
        assert!(
            max as f64 <= g.n() as f64 / 4.0 * 1.1 + 2.0,
            "sizes={sizes:?}"
        );
        assert!(owner.iter().all(|&o| o < 4));
    }

    #[test]
    fn ldg_deg_beats_plain_ldg_on_rmat() {
        // Power-law graphs are where the degree-sorted stream pays off;
        // fixed seeds keep this deterministic.
        for seed in [2u64, 7, 42] {
            let g = gen::rmat(11, 16_000, gen::RmatParams::default(), seed, false);
            let (cut_plain, total) = edge_cut(&g, &ldg(&g, 4, 2));
            let (cut_deg, _) = edge_cut(&g, &ldg_deg(&g, 4, 2));
            assert!(
                cut_deg <= cut_plain,
                "seed {seed}: degree-sorted cut {cut_deg}/{total} worse than plain {cut_plain}/{total}"
            );
        }
    }

    #[test]
    fn ldg_placements_are_pinned() {
        // FNV-1a over every owner table of passes 1..=3 and 2, 4 and 7
        // parts: any change to either greedy's order, scores, tie-break
        // or capacity shows up here.
        fn digest(f: fn(&Graph, usize, usize) -> Vec<u16>, g: &Graph) -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for passes in 1..=3 {
                for parts in [2, 4, 7] {
                    for b in f(g, parts, passes).iter().flat_map(|o| o.to_le_bytes()) {
                        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
            h
        }
        let graphs = [
            gen::rmat(10, 8000, gen::RmatParams::default(), 3, true),
            gen::rmat(10, 8000, gen::RmatParams::default(), 4, false),
            gen::grid2d(30, 40, 0.2, 5),
            gen::ring_with_hub(300, 700),
        ];
        let got: Vec<(u64, u64)> = graphs
            .iter()
            .map(|g| (digest(ldg, g), digest(ldg_deg, g)))
            .collect();
        assert_eq!(
            got,
            vec![
                (1457777148947643674, 17970645892704082655),
                (17738072920798646949, 4600513241665740319),
                (15602313555068808456, 3323878391674653942),
                (14377010050387917804, 7585944196109600142),
            ]
        );
    }

    #[test]
    fn default_threshold_floors_at_sixteen() {
        let ring = gen::cycle(64);
        assert_eq!(default_mirror_threshold(&ring), 16);
        let hub = gen::star(2000);
        // avg degree ~2 on a star, but the hub still clears the floor.
        assert!(hub.degree(0) >= default_mirror_threshold(&hub));
    }

    #[test]
    fn mirror_plan_groups_targets_per_worker_in_adjacency_order() {
        // Hub 0 points at 1..=6; spread them over 3 workers.
        let g = Graph::from_edges(7, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)], true);
        let owner = vec![0u16, 1, 2, 1, 0, 2, 1];
        let topo = Topology::from_owners(3, owner);
        let plan = build_mirror_plan(&g, &topo, 4);
        assert_eq!(plan.threshold, 4);
        assert_eq!(plan.hubs.len(), 1);
        let hub = &plan.hubs[0];
        assert_eq!(hub.id, 0);
        assert_eq!(hub.peers, vec![0, 1, 2]);
        // Per worker, targets keep the hub's adjacency order as locals.
        assert_eq!(hub.targets_for(0), Some(&[topo.local_of(4)][..]));
        assert_eq!(
            hub.targets_for(1),
            Some(&[topo.local_of(1), topo.local_of(3), topo.local_of(6)][..])
        );
        assert_eq!(
            hub.targets_for(2),
            Some(&[topo.local_of(2), topo.local_of(5)][..])
        );
    }

    #[test]
    fn partition_report_counts_mirrors_and_replication() {
        let g = gen::star(33); // hub 0 → 32 spokes, symmetrized arcs
        let owner: Vec<u16> = (0..33).map(|v| (v % 4) as u16).collect();
        let topo = Topology::from_owners(4, owner.clone());
        let plan = build_mirror_plan(&g, &topo, 16);
        let report = partition_report(&owner, 4, edge_cut(&g, &owner), Some(&plan));
        assert_eq!(report.total, 64);
        assert_eq!(report.mirrored, Some((16, 1)));
        // The hub lives on part 0; parts 1..3 each host one mirror.
        assert_eq!(report.mirrors, vec![0, 1, 1, 1]);
        assert!(report.max_replication() > 1.0);
        let line = report.to_string();
        assert!(line.contains("edge-cut"), "{line}");
        assert!(line.contains("replication max"), "{line}");
        // Without a plan the mirror columns stay silent.
        let plain = partition_report(&owner, 4, edge_cut(&g, &owner), None);
        assert_eq!(plain.max_replication(), 1.0);
        assert!(!plain.to_string().contains("replication"));
    }

    #[test]
    fn single_part_is_trivially_uncut() {
        let g = gen::rmat(8, 1000, gen::RmatParams::default(), 3, true);
        let owner = ldg(&g, 1, 1);
        let (cut, _) = edge_cut(&g, &owner);
        assert_eq!(cut, 0);
    }

    /// The definition: every arc whose endpoints' owners differ.
    fn naive_cut(g: &Graph, owner: &[u16]) -> (usize, usize) {
        let cut = g
            .arcs()
            .filter(|&(u, v, _)| owner[u as usize] != owner[v as usize])
            .count();
        (cut, g.arcs().count())
    }

    /// The definition: each edge appended to its target owner's run, the
    /// runs ascending by worker.
    fn naive_plan(g: &Graph, topo: &Topology, threshold: usize) -> MirrorPlan {
        let threshold = threshold.max(1);
        let mut hubs = Vec::new();
        for v in g.vertices().filter(|&v| g.degree(v) >= threshold) {
            let mut runs = std::collections::BTreeMap::<u16, Vec<u32>>::new();
            for &t in g.neighbors(v) {
                let run = runs.entry(topo.worker_of(t) as u16).or_default();
                run.push(topo.local_of(t));
            }
            hubs.push(MirrorHub {
                id: v,
                peers: runs.keys().copied().collect(),
                targets: runs.into_iter().collect(),
            });
        }
        MirrorPlan {
            threshold: threshold as u64,
            hubs,
        }
    }

    #[test]
    fn edge_cut_matches_the_per_arc_count_at_every_split() {
        let graphs = [
            Graph::from_edges(0, &[], true),
            Graph::from_edges(5, &[], false),
            Graph::from_edges(4, &[(0, 0), (1, 1), (2, 2), (2, 2)], true),
            Graph::from_edges(4, &[(0, 0), (1, 3), (3, 3), (2, 1)], false),
            gen::rmat(8, 1000, gen::RmatParams::default(), 3, true),
            gen::rmat(8, 1000, gen::RmatParams::default(), 4, false),
        ];
        for g in &graphs {
            let owner = random_owners(g.n(), 3);
            for splits in 1..=5 {
                assert_eq!(edge_cut_split(g, &owner, 1, splits), naive_cut(g, &owner));
            }
        }
    }

    #[test]
    fn degree_order_breaks_ties_by_id_and_keeps_isolated_vertices() {
        // 3 and 6 tie at degree 3, 1 and 2 at 2 (a self-loop is one arc),
        // 4, 5 and 7 at 1; 0, 8 and 9 are isolated.
        let g = Graph::from_edges(
            10,
            &[(3, 1), (3, 2), (3, 4), (6, 5), (6, 7), (6, 1), (2, 2)],
            false,
        );
        assert_eq!(degree_order(&g), vec![3, 6, 1, 2, 4, 5, 7, 0, 8, 9]);
    }

    proptest::proptest! {
        /// `edge_cut`, the degree order and `build_mirror_plan` equal
        /// their definitions on random multigraphs (duplicate edges,
        /// self-loops, isolated vertices) under random placements that may
        /// leave a worker without a vertex, τ from 0 (read as 1) up, every
        /// split count forced through the private entries whatever the
        /// host's core count.
        #[test]
        fn prop_partition_passes_match_their_definitions(
            n in 1usize..24,
            edges in proptest::collection::vec((0u32..24, 0u32..24), 0..120),
            directed in proptest::any::<bool>(),
            owners in proptest::collection::vec(0u16..5, 24),
            workers in 1usize..6,
            spare in proptest::any::<bool>(),
            threshold in 0usize..7,
        ) {
            let edges: Vec<_> = edges.iter().map(|&(u, v)| (u % n as u32, v % n as u32)).collect();
            let g = Graph::from_edges(n, &edges, directed);
            // With `spare`, the last worker owns nothing.
            let used = if spare && workers > 1 { workers - 1 } else { workers };
            let owner: Vec<u16> = owners[..n].iter().map(|&o| o % used as u16).collect();

            for splits in 1..=5 {
                proptest::prop_assert_eq!(edge_cut_split(&g, &owner, 1, splits), naive_cut(&g, &owner));
            }

            let mut by_degree: Vec<VertexId> = g.vertices().collect();
            by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
            proptest::prop_assert_eq!(degree_order(&g), by_degree);

            let topo = Topology::from_owners(workers, owner);
            let want = naive_plan(&g, &topo, threshold);
            proptest::prop_assert_eq!(&build_mirror_plan(&g, &topo, threshold), &want);
            for splits in 1..=4 {
                proptest::prop_assert_eq!(&mirror_plan_split(&g, &topo, threshold, 1, splits), &want);
            }
        }
    }
}
