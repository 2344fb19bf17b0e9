//! Compressed sparse row graphs.
//!
//! Vertex ids are dense `u32` in `0..n`. A [`Graph<W>`] stores an
//! out-adjacency CSR; undirected graphs are symmetrized at construction so
//! that `neighbors(v)` always yields every incident edge (the paper's
//! "neighborhood communication" iterates exactly this set).
//!
//! [`bucket_by_key`] is the one stable counting sort of the workspace: the
//! CSR builder buckets arcs by source, `ScatterCombine` its routes by
//! destination, `DirectMessage` a superstep's deliveries by receiver, and
//! degree-sorted LDG the vertices by degree.

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

    /// The one builder: [`bucket_by_key`] of the edges by source, each
    /// bucket (row) then sorted by target. An undirected graph mirrors every
    /// edge into its target's row (a self-loop once). Every edge is
    /// range-checked.
    pub(crate) fn from_edge_ranges<I>(n: usize, ranges: &[I], directed: bool) -> Self
    where
        I: Iterator<Item = (VertexId, VertexId, W)> + Clone + Send + Sync,
    {
        let (offsets, targets, weights) = bucket_by_key(n, ranges, !directed, true);
        // Sources, and mirrored targets, were range-checked as keys.
        if directed {
            if let Some(&t) = targets.iter().max().filter(|&&t| t as usize >= n) {
                out_of_range("edge target", t, n);
            }
        }
        Graph {
            n,
            offsets,
            targets,
            weights,
            directed,
        }
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

/// The bucketing kernel: a stable counting sort of `(key, item, payload)`
/// triples by key over the concatenation of `ranges` (re-iterable
/// streams), one thread per range, the first on the calling thread.
/// Returns the `keys + 1` bucket offsets and the placed item and payload
/// columns; a bucket holds its triples in stream order however the stream
/// is cut. With `mirror`, a triple `(k, i, p)` with `i != k` is also placed
/// as `(i, k, p)` right after it (an undirected graph's rows); with
/// `sort`, each bucket is then stably sorted by item.
///
/// 1. *Count.* Each range counts its triples per key into `keys + 1`
///    counters, range-checking every key.
/// 2. *Cursors.* One pass over the keys turns the counters into each
///    range's write cursors.
/// 3. *Place.* Each range writes at its cursors through relaxed atomic
///    stores (a payload through its [`WeightColumn::Cell`]); the joins
///    that end the pass order every store before the columns are read.
///    The last range's cursors end on the next bucket's start: they are
///    the offsets.
/// 4. *Sort.* Runs of buckets, one per range ([`sort_buckets`]).
///
/// The payload is the CSR's edge weight, `()` elsewhere. A range's
/// closures should stay small: a range check, or the undirected doubling
/// as a `flat_map`, in the builder's measured 10–25 % slower builds.
pub fn bucket_by_key<W, I>(
    keys: usize,
    ranges: &[I],
    mirror: bool,
    sort: bool,
) -> (Vec<usize>, Vec<u32>, Vec<W>)
where
    W: WeightColumn,
    I: Iterator<Item = (u32, u32, W)> + Clone + Sync,
{
    // Ranges go to the threads by index: one `on_each` whatever their type.
    let mut cursors = on_each(0..ranges.len(), &|r| {
        let mut count = vec![0usize; keys + 1];
        let mut add = |k: u32| {
            if k as usize >= keys {
                out_of_range("bucket key", k, keys);
            }
            count[k as usize + 1] += 1;
        };
        ranges[r].clone().for_each(|(k, item, _)| {
            add(k);
            if mirror && item != k {
                add(item);
            }
        });
        count
    });
    let mut m = 0;
    for k in 1..=keys {
        for cursor in &mut cursors {
            (cursor[k], m) = (m, m + cursor[k]);
        }
    }
    // Zeroed columns come from the allocator untouched, and their pages
    // fault in on the placing threads.
    let items: Vec<AtomicU32> = vec![0; m].into_iter().map(AtomicU32::new).collect();
    let payloads: Vec<W::Cell> = vec![W::default(); m]
        .into_iter()
        .map(W::Cell::from)
        .collect();
    let mut cursors = on_each(cursors.into_iter().enumerate(), &|(r, mut cursor)| {
        let mut put = |k: u32, item: u32, w: W| {
            let c = &mut cursor[k as usize + 1];
            items[*c].store(item, Ordering::Relaxed);
            W::store(&payloads[*c], w);
            *c += 1;
        };
        ranges[r].clone().for_each(|(k, item, w)| {
            put(k, item, w);
            if mirror && item != k {
                put(item, k, w);
            }
        });
        cursor
    });
    let offsets = cursors.pop().unwrap_or_else(|| vec![0; keys + 1]);
    let mut items: Vec<u32> = items.into_iter().map(AtomicU32::into_inner).collect();
    let mut payloads: Vec<W> = payloads.into_iter().map(W::load).collect();
    if sort {
        sort_buckets(&offsets, &mut items, &mut payloads, ranges.len());
    }
    (offsets, items, payloads)
}

/// Stable-sort each bucket by item, the buckets cut into `runs` runs of
/// about equal items at bucket bounds, each run on its own thread. Generic
/// over the payload only: one copy serves every range type.
fn sort_buckets<W: Copy + Send>(
    offsets: &[usize],
    mut items: &mut [u32],
    mut payloads: &mut [W],
    runs: usize,
) {
    let cuts = even_cuts(offsets, runs);
    let runs = cuts.windows(2).map(|run| {
        let len = offsets[run[1]] - offsets[run[0]];
        let (i, rest_i) = std::mem::take(&mut items).split_at_mut(len);
        let (p, rest_p) = std::mem::take(&mut payloads).split_at_mut(len);
        (items, payloads) = (rest_i, rest_p);
        (&offsets[run[0]..=run[1]], i, p)
    });
    on_each(runs, &|(buckets, i, p)| sort_run(buckets, i, p));
}

/// The panic of a failed range check. Out of line and cold, and given
/// values rather than a formatted message: a formatting `assert!` in the
/// kernel's counting loop measured 20–25 % slower builds.
#[cold]
#[inline(never)]
fn out_of_range(what: &str, x: u32, n: usize) -> ! {
    panic!("{what} {x} out of range 0..{n}")
}

/// Stable-sort each bucket of one run by item: `buckets` are the run's
/// offsets, `items` and `payloads` its columns. A stream in (key, item)
/// order — a file `io::write_edge_list` wrote, `reverse`, registrations in
/// vertex order — fills buckets already sorted, so a bucket is sorted only
/// when a scan says it is not, through one scratch reused across buckets.
fn sort_run<W: Copy>(buckets: &[usize], items: &mut [u32], payloads: &mut [W]) {
    let mut pairs: Vec<(u32, W)> = Vec::new();
    for bucket in buckets.windows(2) {
        let at = bucket[0] - buckets[0]..bucket[1] - buckets[0];
        let (items, payloads) = (&mut items[at.clone()], &mut payloads[at]);
        if items.is_sorted() {
            continue;
        }
        pairs.clear();
        pairs.extend(items.iter().copied().zip(payloads.iter().copied()));
        pairs.sort_by_key(|&(t, _)| t);
        for (i, &(t, w)) in pairs.iter().enumerate() {
            items[i] = t;
            payloads[i] = w;
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
/// thread resumes on the caller with its own payload. `f` is a `dyn`, so
/// the thread code is compiled once per item and result type, not once
/// per closure.
pub(crate) fn on_each<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    f: &(dyn Fn(T) -> R + Sync),
) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
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

    /// What [`bucket_by_key`] must equal: each key's triples in stream
    /// order (with `mirror`, each `(k, i, w)` with `i != k` followed by
    /// `(i, k, w)`), then, with `sort`, each bucket stably sorted by item.
    fn naive_buckets(
        keys: usize,
        triples: &[(u32, u32, u32)],
        mirror: bool,
        sort: bool,
    ) -> (Vec<usize>, Vec<u32>, Vec<u32>) {
        let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); keys];
        for &(k, item, w) in triples {
            buckets[k as usize].push((item, w));
            if mirror && item != k {
                buckets[item as usize].push((k, w));
            }
        }
        let (mut offsets, mut items, mut payloads) = (vec![0], Vec::new(), Vec::new());
        for mut bucket in buckets {
            if sort {
                bucket.sort_by_key(|&(item, _)| item);
            }
            items.extend(bucket.iter().map(|&(item, _)| item));
            payloads.extend(bucket.iter().map(|&(_, w)| w));
            offsets.push(items.len());
        }
        (offsets, items, payloads)
    }

    proptest::proptest! {
        /// The kernel equals the naive bucketing of its stream however the
        /// stream is cut (up to 7 cuts, empty ranges included), mirroring
        /// or not, sorting or not. Few keys (none at all, or one holding
        /// every triple) and few items make buckets that hold equal items
        /// out of order; the payloads tell equal items apart.
        #[test]
        fn prop_bucket_by_key_matches_the_naive_bucketing(
            keys in 0usize..12,
            triples in proptest::collection::vec((0usize..40, 0u32..6, proptest::any::<u32>()), 0..120),
            cuts in proptest::collection::vec(0usize..121, 0..8),
            mirror in proptest::any::<bool>(),
            sort in proptest::any::<bool>(),
        ) {
            // A mirrored item is a key too.
            let items = if mirror { keys.max(1) as u32 } else { u32::MAX };
            let triples: Vec<_> = triples
                .into_iter()
                .filter(|_| keys > 0)
                .map(|(k, item, w)| ((k % keys) as u32, item % items, w))
                .collect();
            let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c.min(triples.len())).collect();
            bounds.extend([0, triples.len()]);
            bounds.sort();
            let ranges: Vec<_> = bounds
                .windows(2)
                .map(|b| triples[b[0]..b[1]].iter().copied())
                .collect();
            proptest::prop_assert_eq!(
                bucket_by_key(keys, &ranges, mirror, sort),
                naive_buckets(keys, &triples, mirror, sort)
            );
        }
    }

    #[test]
    fn bucket_by_key_edge_shapes() {
        let none: [std::iter::Empty<(u32, u32, ())>; 0] = [];
        assert_eq!(
            bucket_by_key(0, &none, true, true),
            (vec![0], vec![], vec![])
        );
        assert_eq!(
            bucket_by_key(3, &none, false, false),
            (vec![0; 4], vec![], vec![])
        );
        let one = [(0, 2, ()), (0, 1, ()), (0, 2, ())];
        let halves = [one[..1].iter().copied(), one[1..].iter().copied()];
        assert_eq!(
            bucket_by_key(1, &halves, false, true),
            (vec![0, 3], vec![1, 2, 2], vec![(); 3])
        );
    }

    #[test]
    #[should_panic(expected = "bucket key 3 out of range 0..3")]
    fn bucket_keys_are_range_checked() {
        bucket_by_key(3, &[[(3, 0, ())].into_iter()], false, false);
    }

    #[test]
    #[should_panic(expected = "bucket key 3 out of range 0..3")]
    fn mirrored_items_are_range_checked_as_keys() {
        bucket_by_key(3, &[[(0, 3, ())].into_iter()], true, false);
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
