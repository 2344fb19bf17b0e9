//! Flat storage shared by the [`super::mirror`] and [`super::propagation`]
//! channels (and the staging list and slot arrays of [`super::scatter`],
//! the stages of [`crate::standard::combined`]): adjacency as
//! offset + array tables built in bulk, combiner state as dense slots.
//!
//! **Registration is staged, then merged.** `add_edge(s)` only appends to
//! a [`Staged`] list — one run per call, a bulk copy per row. The channel's
//! `finalize`, run at the top of `serialize` (so at most once per
//! superstep, after every `compute` of the superstep has registered),
//! hands the list to [`Adjacency::merge`], which resolves each destination
//! to `(owning worker, local index there)` once and appends it to the
//! source's row (`ScatterCombine` instead buckets its list by destination
//! with `pc_graph::csr::bucket_by_key`). Nothing on a send path ever builds
//! or scans a table.
//!
//! **Rows are extents, not offsets.** [`Rows`] keeps `(start, len)` per
//! row over arenas that only grow at the end. A first registration in
//! ascending row order (what a compute phase produces) lays the arena out
//! exactly like a CSR. A row that gains edges later is moved to the end of
//! the arena with them, so a merge costs O(staged edges + the rows they
//! touch), never a pass over the rows it does not touch; the hole a moved
//! row leaves is the price of a late registration.

use crate::combine::{Combine, Vals};
use pc_bsp::codec::{Codec, Reader};
use pc_bsp::topology::Topology;
use pc_graph::VertexId;
use std::ops::Range;

/// `Vec<T>::encode`, byte for byte, through [`Codec::encode_slice`].
pub(crate) fn encode_vec<T: Codec>(vals: &[T], buf: &mut Vec<u8>) {
    (vals.len() as u32).encode(buf);
    T::encode_slice(vals, buf);
}

/// Refuse checkpointed channel state that does not hold together — the
/// segment digest guards against a torn write, this against indexing out
/// of bounds on whatever else produced the bytes.
pub(crate) fn check(ok: bool, channel: &str, what: &str) {
    assert!(ok, "corrupt {channel} channel state: {what}");
}

/// `(start, len)` extents of rows over one or more parallel arenas.
#[derive(Default)]
pub(crate) struct Rows {
    start: Vec<u32>,
    len: Vec<u32>,
}

impl Rows {
    pub(crate) fn new(rows: usize) -> Self {
        Rows {
            start: vec![0; rows],
            len: vec![0; rows],
        }
    }

    pub(crate) fn count(&self) -> usize {
        self.start.len()
    }

    /// Add an empty row; returns its index.
    pub(crate) fn push_row(&mut self) -> u32 {
        self.start.push(0);
        self.len.push(0);
        (self.start.len() - 1) as u32
    }

    pub(crate) fn len_of(&self, row: u32) -> usize {
        self.len[row as usize] as usize
    }

    pub(crate) fn range(&self, row: u32) -> Range<usize> {
        let start = self.start[row as usize] as usize;
        start..start + self.len_of(row)
    }

    /// Point `row` at `range` of the arena.
    pub(crate) fn set(&mut self, row: u32, range: Range<usize>) {
        let fit = |x: usize| u32::try_from(x).expect("more than u32::MAX items in one arena");
        self.start[row as usize] = fit(range.start);
        self.len[row as usize] = fit(range.len());
    }

    /// Open `row` for appending at the end of an arena that is `arena_len`
    /// long. Returns the part of the arena the caller must first copy to
    /// its end (`extend_from_within`): the row's items when it is not
    /// already last, nothing otherwise. [`Rows::close`] when done.
    pub(crate) fn open(&mut self, row: u32, arena_len: usize) -> Range<usize> {
        let at = self.range(row);
        if at.end == arena_len {
            return arena_len..arena_len;
        }
        self.set(row, arena_len..arena_len + at.len());
        at
    }

    /// The arena is `arena_len` long now; everything since
    /// [`Rows::open`] belongs to `row`.
    pub(crate) fn close(&mut self, row: u32, arena_len: usize) {
        self.set(row, self.start[row as usize] as usize..arena_len);
    }

    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        encode_vec(&self.start, buf);
        encode_vec(&self.len, buf);
    }

    /// Decode `rows` extents over an arena of `arena_len` items, refusing
    /// any that reach past it.
    pub(crate) fn decode(
        r: &mut Reader<'_>,
        rows: Option<usize>,
        arena_len: usize,
        channel: &str,
    ) -> Self {
        let (start, len): (Vec<u32>, Vec<u32>) = (r.get(), r.get());
        check(
            start.len() == len.len() && rows.is_none_or(|n| n == start.len()),
            channel,
            "row count",
        );
        check(
            start
                .iter()
                .zip(&len)
                .all(|(&s, &l)| s as usize + l as usize <= arena_len),
            channel,
            "a row reaches past its arena",
        );
        Rows { start, len }
    }
}

/// Split a row's `peers` column into its runs of one owning worker each.
pub(crate) fn peer_runs(peers: &[u16]) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    let mut at = 0;
    peers.chunk_by(|a, b| a == b).map(move |run| {
        let range = at..at + run.len();
        at = range.end;
        (run[0] as usize, range)
    })
}

/// Edges registered since the last merge: runs of one source row each, in
/// call order, over flat destination (global id) and edge-value columns.
pub(crate) struct Staged<E> {
    /// `(source row, end of its run in the columns)`.
    runs: Vec<(u32, u32)>,
    dsts: Vec<VertexId>,
    edges: Vec<E>,
}

impl<E> Default for Staged<E> {
    fn default() -> Self {
        Staged {
            runs: Vec::new(),
            dsts: Vec::new(),
            edges: Vec::new(),
        }
    }
}

impl<E> Staged<E> {
    pub(crate) fn is_empty(&self) -> bool {
        self.dsts.is_empty()
    }

    /// Staged edges.
    pub(crate) fn len(&self) -> usize {
        self.dsts.len()
    }

    /// Heap bytes the three columns hold (an edge column of a zero-sized
    /// `E` holds none, whatever its nominal capacity).
    #[cfg(test)]
    pub(crate) fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.runs.capacity() * size_of::<(u32, u32)>()
            + self.dsts.capacity() * size_of::<VertexId>()
            + self.edges.capacity() * size_of::<E>()
    }

    /// Stage the edges `row → dsts[i]` carrying `edges[i]`.
    pub(crate) fn push(&mut self, row: u32, dsts: &[VertexId], edges: impl IntoIterator<Item = E>) {
        if dsts.is_empty() {
            return;
        }
        self.dsts.extend_from_slice(dsts);
        self.edges.extend(edges);
        assert_eq!(self.dsts.len(), self.edges.len(), "one value per edge");
        let end = u32::try_from(self.dsts.len()).expect("more than u32::MAX staged edges");
        match self.runs.last_mut() {
            Some((last, last_end)) if *last == row => *last_end = end,
            _ => self.runs.push((row, end)),
        }
    }

    /// Every staged edge as `(row, destination)`, in call order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, VertexId)> + Clone + '_ {
        let begins = std::iter::once(0).chain(self.runs.iter().map(|&(_, end)| end));
        let runs = self.runs.iter().zip(begins);
        runs.flat_map(|(&(row, end), begin)| {
            let dsts = &self.dsts[begin as usize..end as usize];
            dsts.iter().map(move |&dst| (row, dst))
        })
    }

    /// The destination column, to reuse as scratch once the staged edges
    /// are no longer needed.
    pub(crate) fn into_dsts(self) -> Vec<VertexId> {
        self.dsts
    }

    /// Replace every staged destination `d` by `f(d)`, in call order.
    pub(crate) fn map_dsts(&mut self, mut f: impl FnMut(VertexId) -> VertexId) {
        for dst in &mut self.dsts {
            *dst = f(*dst);
        }
    }

    /// The runs as `(row, begin, end)`, stably sorted by row — which is
    /// call order, found in one pass, when the rows only ever ascend (a
    /// compute phase registering vertex by vertex).
    fn grouped(&self) -> Vec<(u32, u32, u32)> {
        let mut begin = 0;
        let mut order: Vec<(u32, u32, u32)> = self
            .runs
            .iter()
            .map(|&(row, end)| (row, std::mem::replace(&mut begin, end), end))
            .collect();
        order.sort_by_key(|run| run.0);
        order
    }
}

impl<E: Codec> Staged<E> {
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        encode_vec(&self.runs, buf);
        encode_vec(&self.dsts, buf);
        encode_vec(&self.edges, buf);
    }

    /// Decode a list staged on a worker with `rows` vertices of a graph
    /// with `n`.
    pub(crate) fn decode(r: &mut Reader<'_>, rows: usize, n: usize, channel: &str) -> Self {
        let staged = Staged {
            runs: r.get(),
            dsts: r.get(),
            edges: r.get(),
        };
        let mut begin = 0;
        let runs_hold = staged
            .runs
            .iter()
            .all(|&(row, end)| (row as usize) < rows && std::mem::replace(&mut begin, end) < end);
        check(
            runs_hold
                && begin as usize == staged.dsts.len()
                && staged.edges.len() == staged.dsts.len(),
            channel,
            "staged runs",
        );
        check(
            staged.dsts.iter().all(|&d| (d as usize) < n),
            channel,
            "staged destination",
        );
        staged
    }
}

/// Out-edges per local source vertex, resolved: parallel `peers` (owning
/// worker), `dsts` (local index there) and `edges` (edge value) columns
/// under one [`Rows`]. Within a row every registration batch is grouped by
/// owning worker (stably — a worker's targets keep registration order), so
/// a send walks a row as a few [`peer_runs`], each one bulk fold.
pub(crate) struct Adjacency<E> {
    rows: Rows,
    peers: Vec<u16>,
    dsts: Vec<u32>,
    edges: Vec<E>,
    /// One row's batch while it is resolved and grouped.
    batch: Vec<(u16, u32, E)>,
}

impl<E: Clone> Adjacency<E> {
    pub(crate) fn new(rows: usize) -> Self {
        Adjacency {
            rows: Rows::new(rows),
            peers: Vec::new(),
            dsts: Vec::new(),
            edges: Vec::new(),
            batch: Vec::new(),
        }
    }

    /// The `(peers, dsts, edges)` columns of `row`.
    pub(crate) fn row(&self, row: u32) -> (&[u16], &[u32], &[E]) {
        let at = self.rows.range(row);
        (
            &self.peers[at.clone()],
            &self.dsts[at.clone()],
            &self.edges[at],
        )
    }

    /// Append the staged edges to their rows. `touched(self, row, old_len)`
    /// runs once per row that gained edges, after it did; the row's new
    /// edges are the ones past `old_len`. Returns how many rows that was —
    /// the only rows examined.
    pub(crate) fn merge(
        &mut self,
        topo: &Topology,
        staged: Staged<E>,
        mut touched: impl FnMut(&Self, u32, usize),
    ) -> u64 {
        self.peers.reserve(staged.len());
        self.dsts.reserve(staged.len());
        self.edges.reserve(staged.len());
        let mut rows = 0;
        for runs in staged.grouped().chunk_by(|a, b| a.0 == b.0) {
            let row = runs[0].0;
            let mut batch = std::mem::take(&mut self.batch);
            for &(_, begin, end) in runs {
                let at = begin as usize..end as usize;
                batch.extend(
                    staged.dsts[at.clone()]
                        .iter()
                        .zip(&staged.edges[at])
                        .map(|(&dst, e)| {
                            (topo.worker_of(dst) as u16, topo.local_of(dst), e.clone())
                        }),
                );
            }
            batch.sort_by_key(|edge| edge.0);
            let old_len = self.rows.len_of(row);
            let moved = self.rows.open(row, self.dsts.len());
            self.peers.extend_from_within(moved.clone());
            self.dsts.extend_from_within(moved.clone());
            self.edges.extend_from_within(moved);
            for (peer, dst, e) in batch.drain(..) {
                self.peers.push(peer);
                self.dsts.push(dst);
                self.edges.push(e);
            }
            self.batch = batch;
            self.rows.close(row, self.dsts.len());
            touched(self, row, old_len);
            rows += 1;
        }
        rows
    }
}

impl<E: Codec + Clone> Adjacency<E> {
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        encode_vec(&self.peers, buf);
        encode_vec(&self.dsts, buf);
        encode_vec(&self.edges, buf);
        self.rows.encode(buf);
    }

    /// Decode the adjacency of a worker with `rows` vertices, refusing a
    /// target that does not exist under `topo`.
    pub(crate) fn decode(r: &mut Reader<'_>, rows: usize, topo: &Topology, channel: &str) -> Self {
        let (peers, dsts, edges): (Vec<u16>, Vec<u32>, Vec<E>) = (r.get(), r.get(), r.get());
        check(
            peers.len() == dsts.len() && edges.len() == dsts.len(),
            channel,
            "adjacency columns differ in length",
        );
        check(
            peers.iter().zip(&dsts).all(|(&p, &d)| {
                (p as usize) < topo.workers() && (d as usize) < topo.local_count(p as usize)
            }),
            channel,
            "adjacency target",
        );
        Adjacency {
            rows: Rows::decode(r, Some(rows), dsts.len(), channel),
            peers,
            dsts,
            edges,
            batch: Vec::new(),
        }
    }
}

/// Dense per-vertex values beside a presence flag: `vals[i]` means
/// something only while `present[i]`, so emptying the set never touches a
/// value.
pub(crate) struct Slots<M> {
    pub(crate) vals: Vec<M>,
    pub(crate) present: Vec<bool>,
}

impl<M: Codec + Clone> Slots<M> {
    pub(crate) fn new(n: usize, fill: M) -> Self {
        Slots {
            vals: vec![fill; n],
            present: vec![false; n],
        }
    }

    pub(crate) fn get(&self, i: u32) -> Option<&M> {
        self.present[i as usize].then(|| &self.vals[i as usize])
    }

    pub(crate) fn clear(&mut self) {
        self.present.fill(false);
    }

    /// Flags, then the present values only — what a `Vec<Option<M>>` costs.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        self.present.encode(buf);
        for (v, _) in self.vals.iter().zip(&self.present).filter(|(_, &p)| p) {
            v.encode(buf);
        }
    }

    /// Restore into slots of the same length, refusing any other.
    pub(crate) fn decode(&mut self, r: &mut Reader<'_>, channel: &str) {
        let present: Vec<bool> = r.get();
        check(present.len() == self.vals.len(), channel, "slot count");
        for (v, _) in self.vals.iter_mut().zip(&present).filter(|(_, &p)| p) {
            *v = r.get();
        }
        self.present = present;
    }
}

/// Outgoing values for one peer, combined per target without hashing:
/// dense [`Slots`] indexed by the *receiver's* local vertex index plus the
/// list of occupied ones. Staging is a bounds-checked array access per
/// target inside one bulk fold; serialization walks only the occupied
/// slots, in deterministic first-touch order, and leaves the stage empty —
/// which it therefore is at every superstep boundary.
///
/// The slots are allocated on the first value staged toward that peer, so
/// a worker pays O(peer's vertices) memory only for peers it actually
/// sends to — under locality-preserving partitions most pairs never do.
pub(crate) struct PeerStage<M> {
    receiver_vertices: usize,
    slots: Slots<M>,
    dirty: Vec<u32>,
}

impl<M: Codec + Clone> PeerStage<M> {
    pub(crate) fn new(receiver_vertices: usize) -> Self {
        PeerStage {
            receiver_vertices,
            slots: Slots {
                vals: Vec::new(),
                present: Vec::new(),
            },
            dirty: Vec::new(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Targets holding a value.
    pub(crate) fn len(&self) -> usize {
        self.dirty.len()
    }

    /// Targets holding a value, in first-touch order.
    pub(crate) fn dirty(&self) -> &[u32] {
        &self.dirty
    }

    /// The value staged for target `i`, if any.
    pub(crate) fn get(&self, i: u32) -> Option<&M> {
        if self.slots.vals.is_empty() {
            return None;
        }
        self.slots.get(i)
    }

    /// Fold `vals` into the slots of `dsts` (local indices on the peer).
    pub(crate) fn stage(&mut self, combine: &Combine<M>, dsts: &[u32], vals: Vals<'_, M>) {
        if self.slots.vals.is_empty() {
            self.slots = Slots::new(self.receiver_vertices, combine.identity());
        }
        let Slots { vals: acc, present } = &mut self.slots;
        combine.stage(acc, present, dsts, vals, &mut self.dirty);
    }

    /// Hand every staged `(target, value)` to `f` in first-touch order and
    /// empty the stage.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(u32, &M)) {
        for dst in self.dirty.drain(..) {
            self.slots.present[dst as usize] = false;
            f(dst, &self.slots.vals[dst as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_append_in_place_when_last_and_move_otherwise() {
        let mut rows = Rows::new(3);
        let mut arena: Vec<u32> = Vec::new();
        fn append(rows: &mut Rows, arena: &mut Vec<u32>, row: u32, items: &[u32]) -> usize {
            let moved = rows.open(row, arena.len());
            let copied = moved.len();
            arena.extend_from_within(moved);
            arena.extend_from_slice(items);
            rows.close(row, arena.len());
            copied
        }
        assert_eq!(append(&mut rows, &mut arena, 0, &[1, 2]), 0);
        assert_eq!(append(&mut rows, &mut arena, 2, &[5]), 0);
        assert_eq!(append(&mut rows, &mut arena, 2, &[6]), 0, "last row grows");
        assert_eq!(arena, [1, 2, 5, 6], "first registration is a plain CSR");
        assert_eq!(append(&mut rows, &mut arena, 0, &[3]), 2, "row 0 moves");
        assert_eq!(&arena[rows.range(0)], [1, 2, 3]);
        assert_eq!(&arena[rows.range(2)], [5, 6]);
        assert!(rows.range(1).is_empty());
        let row = rows.push_row();
        assert_eq!((row, rows.count(), rows.len_of(row)), (3, 4, 0));
    }

    #[test]
    fn staged_runs_group_by_row_in_call_order() {
        let mut s: Staged<u8> = Staged::default();
        s.push(4, &[10, 11], [1, 2]);
        s.push(4, &[12], [3]);
        s.push(1, &[13], [4]);
        s.push(9, &[], []);
        s.push(4, &[14], [5]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.grouped(), [(1, 3, 4), (4, 0, 3), (4, 4, 5)]);
    }

    #[test]
    fn merge_resolves_groups_by_peer_and_reports_touched_rows() {
        // Vertices 0..6 alternate between two workers; this is worker 0.
        let topo = Topology::from_owners(2, vec![0, 1, 0, 1, 0, 1]);
        let mut adj: Adjacency<u8> = Adjacency::new(3);
        let mut staged = Staged::default();
        staged.push(0, &[1, 2, 3, 4], [b'a', b'b', b'c', b'd']);
        staged.push(2, &[5], [b'e']);
        let mut seen = Vec::new();
        let rows = adj.merge(&topo, staged, |_, row, old| seen.push((row, old)));
        assert_eq!((rows, &seen[..]), (2, &[(0, 0), (2, 0)][..]));
        let (peers, dsts, edges) = adj.row(0);
        assert_eq!(peers, [0, 0, 1, 1]);
        assert_eq!(dsts, [1, 2, 0, 1], "local indices, a worker's in order");
        assert_eq!(edges, b"bdac");
        let runs: Vec<_> = peer_runs(peers).collect();
        assert_eq!(runs, [(0, 0..2), (1, 2..4)]);
        // A late batch for row 0: the row moves, the batch follows it.
        let mut late = Staged::default();
        late.push(0, &[5, 0], [b'f', b'g']);
        seen.clear();
        assert_eq!(
            adj.merge(&topo, late, |_, row, old| seen.push((row, old))),
            1
        );
        assert_eq!(seen, [(0, 4)]);
        let (peers, dsts, edges) = adj.row(0);
        assert_eq!(peers, [0, 0, 1, 1, 0, 1]);
        assert_eq!(dsts, [1, 2, 0, 1, 0, 2]);
        assert_eq!(edges, b"bdacgf");
        assert_eq!(adj.row(2).1, [2]);
    }

    #[test]
    fn peer_stage_drains_in_first_touch_order_and_empties() {
        let mut stage = PeerStage::new(5);
        let sum = Combine::sum_u64();
        stage.stage(&sum, &[3, 1, 3], Vals::One(&2));
        stage.stage(&sum, &[1, 4], Vals::Each(&[10, 20]));
        assert_eq!(stage.len(), 3);
        let mut out = Vec::new();
        stage.drain(|dst, &v| out.push((dst, v)));
        assert_eq!(out, [(3, 4), (1, 12), (4, 20)]);
        assert!(stage.is_empty());
        stage.stage(&sum, &[3], Vals::One(&1));
        stage.drain(|dst, &v| out.push((dst, v)));
        assert_eq!(out.last(), Some(&(3, 1)), "a drained slot starts over");
    }

    #[test]
    #[should_panic(expected = "corrupt test channel state: a row reaches past its arena")]
    fn decoded_rows_must_fit_their_arena() {
        let mut rows = Rows::new(1);
        rows.set(0, 2..5);
        let mut buf = Vec::new();
        rows.encode(&mut buf);
        Rows::decode(&mut Reader::new(&buf), Some(1), 4, "test");
    }
}
