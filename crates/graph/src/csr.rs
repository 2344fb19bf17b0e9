//! Compressed sparse row graphs.
//!
//! Vertex ids are dense `u32` in `0..n`. A [`Graph<W>`] stores an
//! out-adjacency CSR; undirected graphs are symmetrized at construction so
//! that `neighbors(v)` always yields every incident edge (the paper's
//! "neighborhood communication" iterates exactly this set).

use crate::io::WeightColumn;
use std::sync::atomic::{AtomicU32, Ordering};

/// Dense vertex identifier.
pub type VertexId = u32;

/// Convenience alias for an edge-weighted graph (weights as `u32`).
pub type WeightedGraph = Graph<u32>;

/// A CSR graph, optionally edge-weighted.
///
/// `W = ()` (the default) means unweighted; the weight vector is then a
/// zero-sized no-op.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph<W = ()> {
    n: usize,
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<W>,
    directed: bool,
}

impl<W: WeightColumn> Graph<W> {
    /// Build from weighted edges. For undirected graphs every edge is
    /// inserted in both directions (self-loops once). Parallel edges are
    /// preserved — generators dedup when they need to.
    pub fn from_weighted_edges(
        n: usize,
        edges: &[(VertexId, VertexId, W)],
        directed: bool,
    ) -> Self {
        Self::from_edge_iter(n, edges.iter().copied(), directed)
    }

    /// The one builder, [`Graph::from_edge_ranges`], with the whole stream
    /// as its only range: all of it on the calling thread. Rows come out
    /// sorted by target; edges of equal target keep stream order (parallel
    /// weighted edges: file order).
    pub(crate) fn from_edge_iter(
        n: usize,
        edges: impl Iterator<Item = (VertexId, VertexId, W)> + Clone + Send + Sync,
        directed: bool,
    ) -> Self {
        Self::from_edge_ranges(n, &[edges], directed)
    }

    /// The one builder: a counting sort by source over the concatenation
    /// of `ranges` (re-iterable edge streams), one thread per range, the
    /// first on the calling thread. The graph is bit-identical to a serial
    /// counting sort of the whole stream however it is cut:
    ///
    /// 1. *Count.* Each range counts its own arcs per source into `n + 1`
    ///    counters (`count[u + 1]`), range-checking every edge.
    /// 2. *Cursors.* One pass over the rows turns each range's counters
    ///    into its write cursors: the row's start plus that row's arcs in
    ///    earlier ranges.
    /// 3. *Place.* Each range writes its arcs at its cursors, so a row holds
    ///    its arcs in stream order. The ranges write disjoint positions of
    ///    one shared column through relaxed atomic stores: a store
    ///    publishes nothing, and the joins that end the pass order every
    ///    store before the column is read. The last range's cursors end on
    ///    the next row's start: they are the offsets.
    /// 4. *Sort.* Rows cut into one run per range at row bounds, each run
    ///    sorted on its own thread (see [`sort_rows`]).
    pub(crate) fn from_edge_ranges<I>(n: usize, ranges: &[I], directed: bool) -> Self
    where
        I: Iterator<Item = (VertexId, VertexId, W)> + Clone + Send + Sync,
    {
        let mut cursors = on_each(ranges, |edges| {
            let mut count = vec![0usize; n + 1];
            for (u, v, _) in edges.clone() {
                assert!(
                    (u as usize) < n && (v as usize) < n,
                    "edge ({u},{v}) out of range 0..{n}"
                );
                count[u as usize + 1] += 1;
                if !directed && u != v {
                    count[v as usize + 1] += 1;
                }
            }
            count
        });
        let mut m = 0;
        for v in 1..=n {
            for cursor in &mut cursors {
                let arcs = cursor[v];
                cursor[v] = m;
                m += arcs;
            }
        }
        // Zeroed columns come from the allocator untouched, and their
        // pages fault in on the placing threads.
        let targets: Vec<AtomicU32> = vec![0; m].into_iter().map(AtomicU32::new).collect();
        let weights: Vec<W::Cell> = vec![W::default(); m]
            .into_iter()
            .map(W::Cell::from)
            .collect();
        let mut cursors = on_each(ranges.iter().zip(cursors), |(edges, mut cursor)| {
            let mut put = |u: VertexId, v: VertexId, w: W| {
                let c = &mut cursor[u as usize + 1];
                targets[*c].store(v, Ordering::Relaxed);
                W::store(&weights[*c], w);
                *c += 1;
            };
            for (u, v, w) in edges.clone() {
                put(u, v, w);
                if !directed && u != v {
                    put(v, u, w);
                }
            }
            cursor
        });
        let offsets = cursors.pop().unwrap_or_else(|| vec![0; n + 1]);
        let mut g = Graph {
            n,
            offsets,
            targets: targets.into_iter().map(AtomicU32::into_inner).collect(),
            weights: weights.into_iter().map(W::load).collect(),
            directed,
        };
        g.sort_adjacency(ranges.len());
        g
    }

    /// Stable-sort each row by target, the rows cut into `runs` runs of
    /// about equal arcs at row bounds, each run on its own thread.
    fn sort_adjacency(&mut self, runs: usize) {
        let (mut targets, mut weights) = (&mut self.targets[..], &mut self.weights[..]);
        let mut parts = Vec::with_capacity(runs);
        for run in even_cuts(&self.offsets, runs).windows(2) {
            let (first, last) = (run[0], run[1]);
            let len = self.offsets[last] - self.offsets[first];
            let (t, rest_t) = std::mem::take(&mut targets).split_at_mut(len);
            let (w, rest_w) = std::mem::take(&mut weights).split_at_mut(len);
            (targets, weights) = (rest_t, rest_w);
            parts.push((&self.offsets[first..=last], t, w));
        }
        on_each(parts, |(rows, t, w)| sort_rows(rows, t, w));
    }

    /// The undirected view of this graph: every arc becomes a symmetric
    /// edge (duplicates merged, the first in arc order keeping its weight).
    /// Used by WCC/S-V on directed inputs.
    pub fn symmetrized(&self) -> Self {
        if !self.directed {
            return self.clone();
        }
        let mut edges: Vec<(VertexId, VertexId, W)> = self
            .arcs()
            .map(|(u, v, w)| if u <= v { (u, v, w) } else { (v, u, w) })
            .collect();
        edges.sort_by_key(|&(u, v, _)| (u, v));
        edges.dedup_by_key(|&mut (u, v, _)| (u, v));
        Graph::from_weighted_edges(self.n, &edges, false)
    }

    /// The transposed graph (in-edges become out-edges). For undirected
    /// graphs this is a (sorted) copy.
    pub fn reverse(&self) -> Self {
        // The symmetrized edge set of an undirected graph already contains
        // both directions, so rebuild as directed to avoid doubling.
        let transposed = self.arcs().map(|(u, v, w)| (v, u, w));
        Graph::from_edge_iter(self.n, transposed, true)
    }
}

/// Stable-sort each row of one run by target: `rows` are the run's
/// offsets, `targets` and `weights` its arcs. A stream in (source, target)
/// order — a file `io::write_edge_list` wrote, `reverse` — fills rows
/// already sorted, so a row is sorted only when a scan says it is not,
/// through one scratch reused across rows.
fn sort_rows<W: Copy>(rows: &[usize], targets: &mut [VertexId], weights: &mut [W]) {
    let mut pairs: Vec<(VertexId, W)> = Vec::new();
    for row in rows.windows(2) {
        let row = row[0] - rows[0]..row[1] - rows[0];
        let (targets, weights) = (&mut targets[row.clone()], &mut weights[row]);
        if targets.is_sorted() {
            continue;
        }
        pairs.clear();
        pairs.extend(targets.iter().copied().zip(weights.iter().copied()));
        pairs.sort_by_key(|&(t, _)| t);
        for (i, &(t, w)) in pairs.iter().enumerate() {
            targets[i] = t;
            weights[i] = w;
        }
    }
}

/// Cut the items `0..prefix.len() - 1`, whose sizes `prefix` sums from
/// `prefix[0] == 0` (CSR offsets: rows sized by arcs), into `runs` runs of
/// about equal size at item bounds. Returns the `runs + 1` bounds, first
/// 0 and last the item count; a run may be empty.
pub(crate) fn even_cuts(prefix: &[usize], runs: usize) -> Vec<usize> {
    let items = prefix.len() - 1;
    let total = prefix[items];
    let mut cuts = vec![0];
    for run in 1..runs {
        let cut = prefix.partition_point(|&o| o < run * total / runs);
        cuts.push(cut.max(cuts[run - 1]));
    }
    cuts.push(items);
    cuts
}

/// The cores the process may run on: how many threads a pass splits into
/// at most.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// `f` on every item, the first on the calling thread and each other on a
/// scoped thread of its own; the results in item order. A panic on any
/// thread resumes on the caller with its own payload.
pub(crate) fn on_each<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|s| {
        let rest: Vec<_> = items.map(|item| s.spawn(move || f(item))).collect();
        let joined = rest
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        std::iter::once(f(first)).chain(joined).collect()
    })
}

impl Graph<()> {
    /// Build an unweighted graph from `(src, dst)` pairs.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)], directed: bool) -> Self {
        Graph::from_edge_iter(n, edges.iter().map(|&(u, v)| (u, v, ())), directed)
    }
}

impl<W: Copy + Default> Graph<W> {
    /// Rebuild a graph from raw CSR arrays (the inverse of
    /// [`Graph::csr_parts`]), validating the invariants a decoder cannot
    /// assume: monotone offsets covering `targets`, weights parallel to
    /// targets, every target in range.
    ///
    /// Row contents are adopted **verbatim** — no re-sorting — so a
    /// decoded graph is bit-identical to the encoded one (adjacency order
    /// is part of the engine's determinism contract).
    pub fn from_csr_parts(
        n: usize,
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        weights: Vec<W>,
        directed: bool,
    ) -> Result<Self, String> {
        if offsets.len() != n + 1 {
            return Err(format!("{} offsets for {n} vertices", offsets.len()));
        }
        if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets are not monotone from 0".to_string());
        }
        if offsets[n] != targets.len() {
            return Err(format!(
                "offsets cover {} arcs but {} targets given",
                offsets[n],
                targets.len()
            ));
        }
        if weights.len() != targets.len() {
            return Err(format!(
                "{} weights for {} targets",
                weights.len(),
                targets.len()
            ));
        }
        if let Some(&t) = targets.iter().find(|&&t| t as usize >= n) {
            return Err(format!("target {t} out of range 0..{n}"));
        }
        Ok(Graph {
            n,
            offsets,
            targets,
            weights,
            directed,
        })
    }

    /// The vertical slice of this graph owned by one worker: adjacency is
    /// kept verbatim (same order, same weights) for vertices where
    /// `keep(v)` and empty elsewhere, with the global id space unchanged.
    ///
    /// This is what partition shipping sends each rank: a rank computes
    /// only on the vertices it owns, so it needs only their rows — the
    /// slice behaves identically to the full graph for every local-vertex
    /// query while storing only the local arcs.
    pub fn restrict_rows(&self, keep: impl Fn(VertexId) -> bool) -> Self {
        let mut offsets = Vec::with_capacity(self.n + 1);
        offsets.push(0usize);
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        for v in 0..self.n as VertexId {
            if keep(v) {
                let range = self.offsets[v as usize]..self.offsets[v as usize + 1];
                targets.extend_from_slice(&self.targets[range.clone()]);
                weights.extend_from_slice(&self.weights[range]);
            }
            offsets.push(targets.len());
        }
        Graph {
            n: self.n,
            offsets,
            targets,
            weights,
            directed: self.directed,
        }
    }

    /// [`Graph::restrict_rows`] in place: the kept rows slide down over
    /// the dropped ones inside this graph's own arrays, which then shrink
    /// to what is left. For a caller that is done with the full graph, it
    /// spares a second copy of the kept arcs.
    pub fn into_restricted(mut self, keep: impl Fn(VertexId) -> bool) -> Self {
        let (mut end, mut start) = (0, 0);
        for v in 0..self.n {
            let stop = self.offsets[v + 1];
            if keep(v as VertexId) {
                if start != end {
                    self.targets.copy_within(start..stop, end);
                    self.weights.copy_within(start..stop, end);
                }
                end += stop - start;
            }
            self.offsets[v + 1] = end;
            start = stop;
        }
        self.targets.truncate(end);
        self.targets.shrink_to_fit();
        self.weights.truncate(end);
        self.weights.shrink_to_fit();
        self
    }
}

impl<W: Copy> Graph<W> {
    /// The raw CSR arrays: `(n, offsets, targets, weights, directed)`.
    /// Together with [`Graph::from_csr_parts`] this is the graph's
    /// serialization surface (see `io::encode_graph`).
    pub fn csr_parts(&self) -> (usize, &[usize], &[VertexId], &[W], bool) {
        (
            self.n,
            &self.offsets,
            &self.targets,
            &self.weights,
            self.directed,
        )
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored (directed) arcs. For an undirected graph each edge
    /// counts twice (self-loops once).
    pub fn arc_count(&self) -> usize {
        self.targets.len()
    }

    /// Number of logical edges: arcs for directed graphs, arcs adjusted for
    /// symmetrization otherwise.
    pub fn edge_count(&self) -> usize {
        if self.directed {
            self.arc_count()
        } else {
            let self_loops = (0..self.n as VertexId)
                .map(|v| self.neighbors(v).iter().filter(|&&t| t == v).count())
                .sum::<usize>();
            (self.arc_count() - self_loops) / 2 + self_loops
        }
    }

    /// Whether the graph was built as directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Out-neighbors of `v` (sorted).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Edge weights of `v`'s out-edges, parallel to [`Graph::neighbors`].
    #[inline]
    pub fn weights(&self, v: VertexId) -> &[W] {
        &self.weights[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Iterate `(target, weight)` pairs of `v`'s out-edges.
    pub fn neighbors_weighted(
        &self,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, W)> + Clone + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.weights(v).iter().copied())
    }

    /// Iterate all arcs as `(src, dst, weight)`.
    pub fn arcs(&self) -> impl Iterator<Item = (VertexId, VertexId, W)> + Clone + '_ {
        (0..self.n as VertexId)
            .flat_map(move |u| self.neighbors_weighted(u).map(move |(v, w)| (u, v, w)))
    }

    /// Iterate vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.n as VertexId
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_graph_basics() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (2, 3), (3, 0)], true);
        assert_eq!(g.n(), 4);
        assert_eq!(g.arc_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.degree(3), 1);
        assert!(g.is_directed());
    }

    #[test]
    fn undirected_graph_symmetrizes() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)], false);
        assert_eq!(g.arc_count(), 4);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1]);
    }

    #[test]
    fn self_loop_inserted_once_when_undirected() {
        let g = Graph::from_edges(2, &[(0, 0), (0, 1)], false);
        assert_eq!(g.neighbors(0), &[0, 1]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn weighted_edges_kept_parallel_to_targets() {
        let g = Graph::from_weighted_edges(3, &[(0, 2, 9u32), (0, 1, 5)], true);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.weights(0), &[5, 9]);
        let pairs: Vec<_> = g.neighbors_weighted(0).collect();
        assert_eq!(pairs, vec![(1, 5), (2, 9)]);
    }

    #[test]
    fn reverse_transposes() {
        let g = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)], true);
        let r = g.reverse();
        assert_eq!(r.neighbors(2), &[0, 1]);
        assert_eq!(r.neighbors(0), &[] as &[u32]);
        assert_eq!(r.arc_count(), 3);
    }

    #[test]
    fn reverse_of_undirected_preserves_adjacency() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], false);
        let r = g.reverse();
        for v in 0..4u32 {
            assert_eq!(r.neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn arcs_iterator_covers_everything() {
        let g = Graph::from_weighted_edges(3, &[(0, 1, 7u32), (2, 0, 3)], true);
        let arcs: Vec<_> = g.arcs().collect();
        assert_eq!(arcs, vec![(0, 1, 7), (2, 0, 3)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        Graph::from_edges(2, &[(0, 5)], true);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[], true);
        assert_eq!(g.n(), 0);
        assert_eq!(g.arc_count(), 0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn parallel_edges_preserved() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1)], true);
        assert_eq!(g.neighbors(0), &[1, 1]);
        assert_eq!(g.arc_count(), 2);
    }

    /// Rows that fill out of target order are sorted, stable on the target:
    /// parallel edges keep stream order, in both directions when undirected.
    #[test]
    fn unsorted_rows_sort_stably_by_target() {
        let edges = [(0, 2, 7u32), (0, 1, 5), (0, 2, 3), (1, 0, 9), (0, 1, 4)];
        let g = Graph::from_weighted_edges(3, &edges, true);
        assert_eq!(g.neighbors(0), &[1, 1, 2, 2]);
        assert_eq!(g.weights(0), &[5, 4, 7, 3]);
        let g = Graph::from_weighted_edges(3, &edges, false);
        assert_eq!(g.neighbors(0), &[1, 1, 1, 2, 2]);
        assert_eq!(g.weights(0), &[5, 9, 4, 7, 3]);
        assert_eq!((g.neighbors(2), g.weights(2)), (&[0, 0][..], &[7, 3][..]));
    }

    /// The build every builder must equal: each row's arcs in stream
    /// order, then a stable sort by target.
    fn naive<W: WeightColumn>(
        n: usize,
        edges: &[(VertexId, VertexId, W)],
        directed: bool,
    ) -> Graph<W> {
        let mut rows: Vec<Vec<(VertexId, W)>> = vec![Vec::new(); n];
        for &(u, v, w) in edges {
            rows[u as usize].push((v, w));
            if !directed && u != v {
                rows[v as usize].push((u, w));
            }
        }
        let (mut offsets, mut targets, mut weights) = (vec![0], Vec::new(), Vec::new());
        for mut row in rows {
            row.sort_by_key(|&(t, _)| t);
            targets.extend(row.iter().map(|&(t, _)| t));
            weights.extend(row.iter().map(|&(_, w)| w));
            offsets.push(targets.len());
        }
        Graph::from_csr_parts(n, offsets, targets, weights, directed).unwrap()
    }

    proptest::proptest! {
        /// Every builder is bit-identical to the naive build of its stream:
        /// `from_edge_iter` (through both public entry points) and the
        /// same stream cut into ranges, `reverse`, `symmetrized` and
        /// `relabel_graph`. Few targets and few weights make parallel
        /// edges whose weights come out of order.
        #[test]
        fn prop_builders_match_the_naive_build(
            n in 1usize..24,
            edges in proptest::collection::vec((0u32..24, 0u32..24, 0u32..4), 0..80),
            cuts in proptest::collection::vec(0usize..81, 0..6),
            directed in proptest::any::<bool>(),
            seed in proptest::any::<u64>(),
        ) {
            let edges: Vec<_> = edges
                .into_iter()
                .map(|(u, v, w)| (u % n as u32, v % n as u32, w))
                .collect();
            let g = Graph::from_weighted_edges(n, &edges, directed);
            proptest::prop_assert_eq!(&g, &naive(n, &edges, directed));
            let plain: Vec<_> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
            let unit: Vec<_> = edges.iter().map(|&(u, v, _)| (u, v, ())).collect();
            proptest::prop_assert_eq!(Graph::from_edges(n, &plain, directed), naive(n, &unit, directed));

            let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c.min(edges.len())).collect();
            bounds.extend([0, edges.len()]);
            bounds.sort();
            let ranges: Vec<_> = bounds
                .windows(2)
                .map(|b| edges[b[0]..b[1]].iter().copied())
                .collect();
            proptest::prop_assert_eq!(&Graph::from_edge_ranges(n, &ranges, directed), &g);

            let transposed: Vec<_> = g.arcs().map(|(u, v, w)| (v, u, w)).collect();
            proptest::prop_assert_eq!(g.reverse(), naive(n, &transposed, true));

            let mut old_to_new: Vec<VertexId> = (0..n as VertexId).collect();
            old_to_new.sort_by_key(|&v| (v as u64 ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let relabelled: Vec<_> = g
                .arcs()
                .map(|(u, v, w)| (old_to_new[u as usize], old_to_new[v as usize], w))
                .collect();
            let want = naive(n, &relabelled, true);
            proptest::prop_assert_eq!(crate::partition::relabel_graph(&g, &old_to_new), want);

            if directed {
                // Each unordered pair once, the first arc's weight kept.
                let mut pairs: Vec<_> = g.arcs().map(|(u, v, w)| (u.min(v), u.max(v), w)).collect();
                pairs.sort_by_key(|&(u, v, _)| (u, v));
                pairs.dedup_by_key(|&mut (u, v, _)| (u, v));
                proptest::prop_assert_eq!(g.symmetrized(), naive(n, &pairs, false));
            }
        }
    }

    #[test]
    fn csr_parts_roundtrip_is_identity() {
        let g = Graph::from_weighted_edges(4, &[(0, 1, 7u32), (0, 2, 3), (2, 3, 1)], true);
        let (n, offsets, targets, weights, directed) = g.csr_parts();
        let g2 = Graph::from_csr_parts(
            n,
            offsets.to_vec(),
            targets.to_vec(),
            weights.to_vec(),
            directed,
        )
        .unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn from_csr_parts_rejects_malformed_input() {
        // Offsets not covering targets.
        assert!(
            Graph::<()>::from_csr_parts(2, vec![0, 1, 1], vec![1, 0], vec![(); 2], true).is_err()
        );
        // Non-monotone offsets.
        assert!(Graph::<()>::from_csr_parts(2, vec![0, 2, 1], vec![1], vec![(); 1], true).is_err());
        // Target out of range.
        assert!(Graph::<()>::from_csr_parts(2, vec![0, 1, 1], vec![5], vec![(); 1], true).is_err());
        // Weights not parallel to targets.
        assert!(Graph::<u32>::from_csr_parts(2, vec![0, 1, 1], vec![1], vec![], true).is_err());
        // Wrong offset count.
        assert!(Graph::<()>::from_csr_parts(2, vec![0, 0], vec![], vec![], true).is_err());
    }

    #[test]
    fn restrict_rows_keeps_kept_rows_verbatim() {
        let g = Graph::from_weighted_edges(
            5,
            &[(0, 2, 9u32), (0, 1, 5), (1, 3, 2), (3, 4, 1), (4, 0, 8)],
            true,
        );
        let s = g.restrict_rows(|v| v % 2 == 0);
        assert_eq!(s.n(), g.n());
        for v in 0..5u32 {
            if v % 2 == 0 {
                assert_eq!(s.neighbors(v), g.neighbors(v), "kept row {v}");
                assert_eq!(s.weights(v), g.weights(v), "kept weights {v}");
            } else {
                assert_eq!(s.degree(v), 0, "dropped row {v}");
            }
        }
        assert!(s.arc_count() < g.arc_count());
        assert_eq!(s.is_directed(), g.is_directed());
    }

    /// Compacting in place gives the graph `restrict_rows` copies out,
    /// whichever rows survive: none, all, a prefix, a suffix, every other.
    #[test]
    fn into_restricted_matches_restrict_rows() {
        let g = Graph::from_weighted_edges(
            6,
            &[
                (0, 2, 9u32),
                (0, 1, 5),
                (1, 3, 2),
                (3, 4, 1),
                (4, 0, 8),
                (5, 5, 3),
                (5, 1, 4),
            ],
            false,
        );
        let keeps: [fn(VertexId) -> bool; 5] =
            [|_| false, |_| true, |v| v < 3, |v| v >= 3, |v| v % 2 == 1];
        for keep in keeps {
            let want = g.restrict_rows(keep);
            assert_eq!(g.clone().into_restricted(keep), want);
        }
    }
}
