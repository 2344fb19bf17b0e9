//! Plain edge-list persistence.
//!
//! The paper loads graphs from HDFS; we read/write the ubiquitous
//! whitespace-separated edge-list format, which is what SNAP/KONECT datasets
//! ship as, so real data can be dropped in if available.
//!
//! **Format.** One edge per line, `src dst [weight]`: decimal `u32` ids and
//! an optional `u32` weight (default 1) separated by ASCII blanks (`\r` is
//! one, so CRLF files load); the rest of the line is ignored, and the
//! unweighted loader ignores everything after `dst`. Blank lines and lines
//! that open with `#` or `%` are skipped; the last line needs no newline.
//!
//! **Ranges.** The file is cut into `min(available_parallelism,
//! ⌊len / 1 MiB⌋)` byte ranges (one at least), a scoped thread each, the
//! first on the calling thread. A range owns every line that *starts*
//! inside it and reads past its end to finish its last line. Once every
//! range has parsed, the same ranges build the CSR
//! (`Graph::from_edge_ranges`): each counts its own arcs per
//! source, then places them behind every earlier range's, so edge order
//! is file order and the graph is bit-identical whatever the range count.
//!
//! **Errors.** Any other line — `1 x`, a lone id, an id above `u32::MAX` —
//! is [`io::ErrorKind::InvalidData`] naming the first such line (1-based,
//! counted on the error path only) and its first 40 bytes.
//!
//! **Memory.** One block per thread (256 KiB, or the longest line) + 8 B
//! per edge line (12 weighted) + `n + 1` counters of one word each per
//! range (the last range's become the offsets) + the CSR; the file is
//! never resident.

use crate::csr::{cores, on_each, Graph, VertexId, WeightedGraph};
use pc_bsp::{Codec, Reader};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};

/// Smallest range worth a thread of its own.
const RANGE_BYTES: u64 = 1 << 20;
/// Largest read buffer a range starts with (it grows only for a longer line).
const BLOCK_BYTES: u64 = 256 << 10;
/// Bytes a read buffer keeps past what it holds, so [`number`] can load
/// the 8 bytes at any digit of a whole line.
const SLACK: usize = 8;

/// What [`read_edges`] did, for the caller's load report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadStats {
    /// Edge lines parsed (comments and blanks are not counted).
    pub lines: usize,
    /// Byte ranges the file was parsed in, one thread each.
    pub ranges: usize,
}

/// Read an unweighted edge list. `directed` controls symmetrization.
/// The vertex count is `max id + 1` unless `min_n` is larger.
pub fn read_edge_list(path: &Path, directed: bool, min_n: usize) -> io::Result<Graph> {
    Ok(read_edges(path, directed, min_n)?.0)
}

/// Read a weighted edge list (third column = weight; defaults to 1).
pub fn read_weighted_edge_list(
    path: &Path,
    directed: bool,
    min_n: usize,
) -> io::Result<WeightedGraph> {
    Ok(read_edges(path, directed, min_n)?.0)
}

/// The loader behind both of the above (see the module doc), with its
/// [`LoadStats`].
pub fn read_edges<W: WeightColumn>(
    path: &Path,
    directed: bool,
    min_n: usize,
) -> io::Result<(Graph<W>, LoadStats)> {
    read_ranges(path, directed, min_n, RANGE_BYTES, cores())
}

/// [`read_edges`] with the splitter's two inputs as arguments, so tests can
/// put range boundaries on any byte whatever the host's core count.
fn read_ranges<W: WeightColumn>(
    path: &Path,
    directed: bool,
    min_n: usize,
    range_bytes: u64,
    max_ranges: usize,
) -> io::Result<(Graph<W>, LoadStats)> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let ranges = (len / range_bytes).clamp(1, max_ranges as u64);
    let cut = |i: u64| (i * len.div_ceil(ranges)).min(len);
    // Each range's edges with the vertex count they imply (largest id + 1).
    // Every range parses before any counts: the vertex count sizes each
    // range's counters, and a bad line must fail the load before an id
    // near `u32::MAX` in an earlier range has allocated for it.
    let chunks: Vec<(Vec<_>, usize)> = on_each(0..ranges, &|i| {
        let edges = parse_range::<W>(&file, cut(i), cut(i + 1))?;
        let ids = edges.iter().map(|&(u, v, _)| u.max(v) as usize + 1).max();
        Ok((edges, ids.unwrap_or(0)))
    })
    .into_iter()
    // Range order, so the first error is the file's first bad line.
    .collect::<io::Result<_>>()?;
    let stats = LoadStats {
        lines: chunks.iter().map(|c| c.0.len()).sum(),
        ranges: ranges as usize,
    };
    let n = chunks.iter().map(|c| c.1).fold(min_n, usize::max);
    let streams: Vec<_> = chunks.iter().map(|c| c.0.iter().copied()).collect();
    Ok((Graph::from_edge_ranges(n, &streams, directed), stats))
}

/// The edges of the lines that start in `start..end`, in file order.
fn parse_range<W: WeightColumn>(
    file: &File,
    start: u64,
    end: u64,
) -> io::Result<Vec<(VertexId, VertexId, W)>> {
    let mut edges = Vec::new();
    let mut buf = vec![0u8; (end - start).clamp(1, BLOCK_BYTES) as usize + SLACK];
    // `buf[..filled]` is the file from `pos`, and `SLACK` bytes follow it.
    // A range that does not open the file begins one byte early: the line
    // that byte belongs to is the previous range's, and the first newline
    // found ends it.
    let (mut pos, mut filled, mut skip) = (start.saturating_sub(1), 0, start > 0);
    loop {
        if filled + SLACK == buf.len() {
            buf.resize(2 * filled + SLACK, 0); // one line fills the whole block
        }
        let room = buf.len() - SLACK;
        let got = match file.read_at(&mut buf[filled..room], pos + filled as u64) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            got => got?,
        };
        filled += got;
        if got == 0 && filled > 0 && buf[filled - 1] != b'\n' {
            buf[filled] = b'\n'; // the last line ends with the file
            filled += 1;
        }
        // Parse the whole lines held, carry the partial one over.
        let newline = |b: &u8| *b == b'\n';
        let whole = buf[..filled].iter().rposition(newline).map_or(0, |i| i + 1);
        let mut i = 0;
        if skip && whole > 0 {
            i = buf.iter().position(newline).map_or(whole, |i| i + 1);
            skip = false;
        }
        while i < whole {
            if pos + i as u64 >= end {
                return Ok(edges);
            }
            match parse_line(&buf[i..], &mut edges) {
                Some(used) => i += used,
                None => return Err(bad_line(file, pos + i as u64)),
            }
        }
        if got == 0 {
            return Ok(edges);
        }
        buf.copy_within(whole..filled, 0);
        pos += whole as u64;
        filled -= whole;
    }
}

fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

/// The decimal `u32` at `line[*i..]`, which must end at a blank or the
/// newline; `*i` moves past it and the blanks after it. `line` holds a
/// newline after `*i` and at least 8 bytes from `*i` on.
///
/// Up to 7 digits are read a word at a time: `t` is the 8 bytes at `*i`
/// xor `'0'`, so a digit byte is 0..=9 and adding 0x76 sets the high bit
/// of each non-digit byte below 0x8a; `| t` flags those at 0x80 and up,
/// whose sum carries out. A carry only runs toward later bytes, so the
/// lowest flag is exact: it is the first non-digit. Those digits, shifted to the top
/// of the word, become a number in three multiplies. Longer numbers take
/// the checked byte loop, which refuses anything above `u32::MAX`.
fn number(line: &[u8], i: &mut usize) -> Option<u32> {
    const ZEROS: u64 = u64::from_le_bytes([b'0'; 8]);
    const LOWS: u64 = u64::from_le_bytes([0x76; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const PAIR: u64 = 0x0000_00ff_0000_00ff;
    let word = line[*i..*i + 8].try_into().expect("an 8-byte slice");
    let t = u64::from_le_bytes(word) ^ ZEROS;
    let flags = (t.wrapping_add(LOWS) | t) & HIGHS;
    let digits = flags.trailing_zeros() as usize / 8;
    let x = if digits == 8 {
        // 8 digits or more: the checked loop, stopped in bounds by the newline.
        let mut x = 0u64;
        while line[*i].wrapping_sub(b'0') < 10 && x <= u32::MAX as u64 {
            x = x * 10 + (line[*i] - b'0') as u64;
            *i += 1;
        }
        if x > u32::MAX as u64 {
            return None;
        }
        x as u32
    } else if digits == 0 {
        return None;
    } else {
        // Digit k of an 8-digit number in byte k, leading zeros first.
        let d = t << (8 * (8 - digits));
        let d = d.wrapping_mul(10).wrapping_add(d >> 8); // pairs in bytes 0, 2, 4, 6
        let high = (d & PAIR).wrapping_mul(100 + (1_000_000 << 32));
        let low = ((d >> 16) & PAIR).wrapping_mul(1 + (10_000 << 32));
        *i += digits;
        (high.wrapping_add(low) >> 32) as u32
    };
    if !(is_blank(line[*i]) || line[*i] == b'\n') {
        return None;
    }
    while is_blank(line[*i]) {
        *i += 1;
    }
    Some(x)
}

/// Parse the line that opens `text` (which holds its newline and
/// [`SLACK`] bytes after it), push its edge unless it is blank or a
/// comment, and return its length with the newline; `None` for a
/// malformed line.
fn parse_line<W: WeightColumn>(
    text: &[u8],
    edges: &mut Vec<(VertexId, VertexId, W)>,
) -> Option<usize> {
    let mut i = text.iter().position(|&b| !is_blank(b))?;
    if !matches!(text[i], b'\n' | b'#' | b'%') {
        let u = number(text, &mut i)?;
        if text[i] == b'\n' {
            return None; // a lone id
        }
        let v = number(text, &mut i)?;
        edges.push((u, v, W::parse_column(text, &mut i)?));
    }
    Some(i + text[i..].iter().position(|&b| b == b'\n')? + 1)
}

/// The error for the malformed line at byte `offset`: its 1-based number
/// (newlines before it, counted here and nowhere else) and first 40 bytes.
fn bad_line(file: &File, offset: u64) -> io::Error {
    let mut block = vec![0u8; BLOCK_BYTES as usize];
    let (mut line, mut pos) = (1, 0);
    while pos < offset {
        let part = &mut block[..(offset - pos).min(BLOCK_BYTES) as usize];
        if let Err(e) = file.read_exact_at(part, pos) {
            return e;
        }
        line += part.iter().filter(|&&b| b == b'\n').count();
        pos += part.len() as u64;
    }
    let got = file.read_at(&mut block[..40], offset).unwrap_or(0);
    let text = block[..got].split(|&b| b == b'\n').next().unwrap_or(&[]);
    let found = String::from_utf8_lossy(text);
    let what = format!(
        "line {line}: expected `src dst [weight]`, found `{}`",
        found.trim_end()
    );
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Version tag leading every [`encode_graph`] payload, so a future layout
/// change fails loudly instead of mis-decoding.
const CSR_WIRE_VERSION: u8 = 1;

/// Serialize a CSR graph with the exchange [`Codec`] — the wire format
/// partition shipping uses to stream each rank its slice, so non-zero
/// ranks never touch the input file.
///
/// Layout (all little-endian, matching the codec):
///
/// ```text
/// version:u8  n:u64  directed:bool  m:u64
/// offsets[1..=n]:u64  targets[m]:u32  weights[m]:W
/// ```
///
/// `offsets[0]` is always 0 and elided. Row order is preserved exactly:
/// [`decode_graph`] rebuilds a bit-identical graph (adjacency order is
/// part of the engine's determinism contract).
pub fn encode_graph<W: Codec + Copy>(g: &Graph<W>, buf: &mut Vec<u8>) {
    buf.reserve(rows_wire_len(g, |_| true));
    encode_rows(g, |_| true, buf);
}

/// Bytes [`encode_rows`] appends for `g` and `keep`.
pub fn rows_wire_len<W: Codec + Copy>(g: &Graph<W>, keep: impl Fn(VertexId) -> bool) -> usize {
    let arcs: usize = g.vertices().filter(|&v| keep(v)).map(|v| g.degree(v)).sum();
    1 + 8 + 1 + 8 + 8 * g.n() + arcs * (4 + W::FIXED_SIZE.unwrap_or(0))
}

/// Append what [`encode_graph`] writes for `g.restrict_rows(keep)`, byte
/// for byte, without building that graph: the rows `keep` selects
/// verbatim, every other row empty. Offsets and targets go out as
/// little-endian runs; size `buf` first with [`rows_wire_len`] and
/// nothing reallocates.
pub fn encode_rows<W: Codec + Copy>(
    g: &Graph<W>,
    keep: impl Fn(VertexId) -> bool,
    buf: &mut Vec<u8>,
) {
    let (n, offsets, targets, weights, directed) = g.csr_parts();
    let rows = || {
        (0..n)
            .filter(|&v| keep(v as VertexId))
            .map(|v| offsets[v]..offsets[v + 1])
    };
    buf.push(CSR_WIRE_VERSION);
    (n as u64).encode(buf);
    directed.encode(buf);
    // The arc count leads the offsets, which count it: patched after them.
    let m_at = buf.len();
    0u64.encode(buf);
    let at = buf.len();
    buf.resize(at + 8 * n, 0);
    let mut m = 0;
    for (v, out) in buf[at..].chunks_exact_mut(8).enumerate() {
        if keep(v as VertexId) {
            m += offsets[v + 1] - offsets[v];
        }
        out.copy_from_slice(&(m as u64).to_le_bytes());
    }
    buf[m_at..at].copy_from_slice(&(m as u64).to_le_bytes());
    for row in rows() {
        VertexId::encode_slice(&targets[row], buf);
    }
    if W::FIXED_SIZE != Some(0) {
        for row in rows() {
            W::encode_slice(&weights[row], buf);
        }
    }
}

/// Decode a graph serialized by [`encode_graph`], validating the CSR
/// invariants (see [`Graph::from_csr_parts`]). Returns a descriptive
/// error on a malformed or truncated payload instead of panicking —
/// shipped bytes cross a process boundary and must be treated as input.
pub fn decode_graph<W: Codec + Copy + Default>(r: &mut Reader<'_>) -> Result<Graph<W>, String> {
    let header = 1 + 8 + 1 + 8;
    if r.remaining() < header {
        return Err(format!("graph header truncated at {} bytes", r.remaining()));
    }
    let version: u8 = r.get();
    if version != CSR_WIRE_VERSION {
        return Err(format!(
            "graph wire version {version}, expected {CSR_WIRE_VERSION}"
        ));
    }
    let n: u64 = r.get();
    let directed: bool = r.get();
    let m: u64 = r.get();
    let n = usize::try_from(n).map_err(|_| "vertex count overflows usize".to_string())?;
    let m = usize::try_from(m).map_err(|_| "arc count overflows usize".to_string())?;
    // Each offset is 8 bytes, each target 4, then the weights. Check before
    // allocating so a hostile length cannot trigger a huge allocation.
    let arc = 4 + W::FIXED_SIZE.unwrap_or(0);
    let need = n
        .checked_mul(8)
        .and_then(|o| o.checked_add(m.checked_mul(arc)?))
        .ok_or_else(|| "graph size overflows".to_string())?;
    if r.remaining() < need {
        return Err(format!(
            "graph payload truncated: {} bytes left, {need} needed",
            r.remaining()
        ));
    }
    // Each array is sized once and filled from its whole byte run.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    for o in r.take(8 * n).chunks_exact(8) {
        let o = u64::from_le_bytes(o.try_into().expect("chunks of 8"));
        offsets.push(usize::try_from(o).map_err(|_| "offset overflows usize".to_string())?);
    }
    let targets = VertexId::decode_slice(r, m).expect("length checked above");
    let mut weights = Reader::new(r.take(m * (arc - 4)));
    let weights: Vec<W> = (0..m).map(|_| weights.get()).collect();
    Graph::from_csr_parts(n, offsets, targets, weights, directed)
}

/// The weight column of an edge list: weighted graphs read and print a
/// third column, unweighted graphs neither. It is also how
/// [`crate::csr::bucket_by_key`] places a payload from many threads at
/// once: into a column of `Cell`s, which `()` keeps zero-sized.
pub trait WeightColumn: Copy + Default + Send + Sync {
    /// One slot of a weight column under construction.
    #[doc(hidden)]
    type Cell: From<Self> + Send + Sync;
    /// Store `w` into a slot that no other thread writes.
    #[doc(hidden)]
    fn store(cell: &Self::Cell, w: Self);
    /// The weight a finished slot holds.
    #[doc(hidden)]
    fn load(cell: Self::Cell) -> Self;
    /// Write the weight column (including its leading separator), if any.
    fn write_column(&self, out: &mut dyn Write) -> io::Result<()>;
    /// Read the column at `line[*i..]` (blanks skipped, newline-terminated);
    /// `None` when what is there is not a weight.
    #[doc(hidden)]
    fn parse_column(line: &[u8], i: &mut usize) -> Option<Self>;
}

impl WeightColumn for () {
    type Cell = ();
    fn store(_cell: &(), _w: ()) {}
    fn load(_cell: ()) {}
    fn write_column(&self, _out: &mut dyn Write) -> io::Result<()> {
        Ok(())
    }
    fn parse_column(_line: &[u8], _i: &mut usize) -> Option<Self> {
        Some(())
    }
}

impl WeightColumn for u32 {
    type Cell = AtomicU32;
    fn store(cell: &AtomicU32, w: u32) {
        cell.store(w, Ordering::Relaxed);
    }
    fn load(cell: AtomicU32) -> u32 {
        cell.into_inner()
    }
    fn write_column(&self, out: &mut dyn Write) -> io::Result<()> {
        write!(out, " {self}")
    }
    fn parse_column(line: &[u8], i: &mut usize) -> Option<Self> {
        if line[*i] == b'\n' {
            Some(1)
        } else {
            number(line, i)
        }
    }
}

/// Write a graph as an edge list. Undirected graphs emit each edge once
/// (`u <= v` arcs only).
pub fn write_edge_list<W: WeightColumn>(g: &Graph<W>, path: &Path) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = BufWriter::new(file);
    writeln!(out, "# {} vertices, {} edges", g.n(), g.edge_count())?;
    for (u, v, w) in g.arcs() {
        if !g.is_directed() && u > v {
            continue;
        }
        write!(out, "{u} {v}")?;
        w.write_column(&mut out)?;
        writeln!(out)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pc_graph_io_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn unweighted_roundtrip() {
        let g = gen::rmat(6, 200, gen::RmatParams::default(), 4, true);
        let path = tmp("unweighted.txt");
        write_edge_list(&g, &path).unwrap();
        let g2 = read_edge_list(&path, true, g.n()).unwrap();
        for v in g.vertices() {
            assert_eq!(g.neighbors(v), g2.neighbors(v));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn weighted_roundtrip_undirected() {
        let g = gen::grid2d_weighted(6, 6, 9, 1);
        let path = tmp("weighted.txt");
        write_edge_list(&g, &path).unwrap();
        let g2 = read_weighted_edge_list(&path, false, g.n()).unwrap();
        for v in g.vertices() {
            assert_eq!(g.neighbors(v), g2.neighbors(v));
            assert_eq!(g.weights(v), g2.weights(v));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let path = tmp("comments.txt");
        std::fs::write(&path, "# header\n\n% konect style\n0 1\n1 2 7\n").unwrap();
        let g = read_weighted_edge_list(&path, true, 0).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.weights(0), &[1]); // missing weight defaults to 1
        assert_eq!(g.weights(1), &[7]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn min_n_pads_isolated_vertices() {
        let path = tmp("padded.txt");
        std::fs::write(&path, "0 1\n").unwrap();
        let g = read_edge_list(&path, false, 10).unwrap();
        assert_eq!(g.n(), 10);
        assert_eq!(g.degree(9), 0);
        std::fs::remove_file(path).ok();
    }

    /// The line parser and CSR builder this module had before the
    /// chunk-parallel loader, kept verbatim as the oracle: every well-formed
    /// file must load to the graph this builds.
    fn reference_load(text: &str, directed: bool, min_n: usize) -> WeightedGraph {
        fn parse_line(line: &str) -> Option<(VertexId, VertexId, Option<u32>)> {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
                return None;
            }
            let mut it = line.split_whitespace();
            let u: VertexId = it.next()?.parse().ok()?;
            let v: VertexId = it.next()?.parse().ok()?;
            let w = it.next().and_then(|s| s.parse().ok());
            Some((u, v, w))
        }
        let mut edges: Vec<(VertexId, VertexId, u32)> = Vec::new();
        let mut max_id = 0u32;
        for line in text.split_inclusive('\n') {
            if let Some((u, v, w)) = parse_line(line) {
                max_id = max_id.max(u).max(v);
                edges.push((u, v, w.unwrap_or(1)));
            }
        }
        let n = min_n.max(if edges.is_empty() {
            0
        } else {
            max_id as usize + 1
        });
        let mut deg = vec![0usize; n];
        for &(u, v, _) in &edges {
            deg[u as usize] += 1;
            if !directed && u != v {
                deg[v as usize] += 1;
            }
        }
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + deg[i];
        }
        let mut targets = vec![0 as VertexId; offsets[n]];
        let mut weights = vec![0u32; offsets[n]];
        let mut cursor = offsets.clone();
        for &(u, v, w) in &edges {
            let c = &mut cursor[u as usize];
            targets[*c] = v;
            weights[*c] = w;
            *c += 1;
            if !directed && u != v {
                let c = &mut cursor[v as usize];
                targets[*c] = u;
                weights[*c] = w;
                *c += 1;
            }
        }
        for v in 0..n {
            let range = offsets[v]..offsets[v + 1];
            let mut pairs: Vec<(VertexId, u32)> =
                range.clone().map(|i| (targets[i], weights[i])).collect();
            pairs.sort_by_key(|&(t, _)| t);
            for (i, (t, w)) in range.zip(pairs) {
                targets[i] = t;
                weights[i] = w;
            }
        }
        Graph::from_csr_parts(n, offsets, targets, weights, directed).unwrap()
    }

    /// Both loaders against the oracle on one file's text: the public entry
    /// points, and the splitter with a range boundary every `range_bytes`
    /// bytes however many cores the host has.
    fn assert_matches_reference(
        name: &str,
        text: &str,
        directed: bool,
        min_n: usize,
        range_bytes: u64,
    ) {
        let path = tmp(name);
        std::fs::write(&path, text).unwrap();
        let want = reference_load(text, directed, min_n);
        let (n, offsets, targets, _, dir) = want.csr_parts();
        let unit = vec![(); targets.len()];
        let want_plain =
            Graph::from_csr_parts(n, offsets.to_vec(), targets.to_vec(), unit, dir).unwrap();
        let what = format!("{text:?} in ranges of {range_bytes}");
        let weighted = read_weighted_edge_list(&path, directed, min_n).unwrap();
        assert_eq!(weighted, want, "weighted load of {what}");
        let plain = read_edge_list(&path, directed, min_n).unwrap();
        assert_eq!(plain, want_plain, "unweighted load of {what}");
        let (weighted, stats) =
            read_ranges::<u32>(&path, directed, min_n, range_bytes, usize::MAX).unwrap();
        assert_eq!(weighted, want, "weighted load of {what}");
        let ranges = (text.len() as u64 / range_bytes).max(1) as usize;
        let lines = text
            .lines()
            .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()));
        assert_eq!(
            (stats.ranges, stats.lines),
            (ranges, lines.count()),
            "{what}"
        );
        let (plain, _) =
            read_ranges::<()>(&path, directed, min_n, range_bytes, usize::MAX).unwrap();
        assert_eq!(plain, want_plain, "unweighted load of {what}");
        std::fs::remove_file(&path).ok();
    }

    /// Write `(u, v, w, style)` records as an edge list whose formatting is
    /// drawn from the `style` bits: comment and blank lines in between,
    /// leading / trailing blanks, tabs and runs of spaces, optional weight,
    /// extra columns, CRLF, and (from `tail`) no final newline.
    fn render(records: &[(u32, u32, u32, u64)], tail: u64) -> String {
        const GAPS: [&str; 4] = [" ", "\t", "   ", " \t "];
        const PADS: [&str; 4] = ["", " ", "\t", "  \t"];
        const NOISE: [&str; 6] = ["# 3 4 comment", "%konect 1 2", "", "  \t ", "#", " # 7 8"];
        fn take(bits: &mut u64, n: u64) -> usize {
            let r = *bits % n;
            *bits /= n;
            r as usize
        }
        let mut text = String::new();
        for &(u, v, w, mut bits) in records {
            let mut pick = |n| take(&mut bits, n);
            if pick(4) == 0 {
                text += NOISE[pick(6)];
                text += ["\n", "\r\n"][pick(2)];
            }
            text += PADS[pick(4)];
            text += &[format!("{u}"), format!("00{u}")][pick(2)];
            text += GAPS[pick(4)];
            text += &v.to_string();
            if pick(2) == 0 {
                text += GAPS[pick(4)];
                text += &w.to_string();
                if pick(3) == 0 {
                    text += GAPS[pick(4)];
                    text += "9 extra";
                }
            }
            text += PADS[pick(4)];
            text += ["\n", "\r\n"][pick(2)];
        }
        let mut bits = tail;
        let mut pick = |n| take(&mut bits, n);
        if pick(3) == 0 {
            text += NOISE[pick(6)];
            text += "\n";
        }
        if pick(2) == 0 && text.ends_with('\n') {
            text.pop();
        }
        text
    }

    /// Range boundaries on every byte of small files: mid-number, on the
    /// newline, inside a comment, more ranges than lines, one range.
    #[test]
    fn loaders_match_reference_at_every_range_boundary() {
        for (i, text) in [
            "",
            "\n",
            "# only a comment",
            "0 1",
            "0 1\n",
            "\r\n3 3\r\n",
            "2 2 5\n2 2 4\n0 2 9\n0 2 1\n2 0 3 extra cols\n",
            "  7\t1   \n\n\n%x 5 5\n1 7 2 3 4\n10 11",
        ]
        .iter()
        .enumerate()
        {
            let name = format!("boundary_{i}");
            for range_bytes in 1..=text.len() as u64 + 1 {
                assert_matches_reference(&name, text, range_bytes % 2 == 0, 0, range_bytes);
                assert_matches_reference(&name, text, range_bytes % 2 == 1, 12, range_bytes);
            }
            // A cap that does not divide the length leaves empty ranges at
            // the end of the file.
            let path = tmp(&name);
            std::fs::write(&path, text).unwrap();
            for cap in 2..9 {
                let (g, stats) = read_ranges::<u32>(&path, true, 0, 1, cap).unwrap();
                assert_eq!(g, reference_load(text, true, 0), "{text:?} in {cap} ranges");
                assert_eq!(stats.ranges, text.len().clamp(1, cap));
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// A block is at most a range long, so small ranges also drive the
    /// refill, carry-over and grow-for-a-long-line paths of `parse_range`.
    #[test]
    fn lines_longer_than_a_block_load() {
        let long = format!(
            "# {}\n{}1 2\t{}\n3 4",
            "c".repeat(300),
            " ".repeat(200),
            "9 ".repeat(150)
        );
        for range_bytes in [1, 7, 64, 250, 1000] {
            assert_matches_reference("long_lines", &long, true, 0, range_bytes);
        }
    }

    /// Aim 3: a line that is not blank, comment or `u v [w]` fails the load
    /// with its 1-based line number and text, however the file was split.
    #[test]
    fn malformed_lines_are_invalid_data_with_line_number() {
        fn check<W: WeightColumn + std::fmt::Debug>(text: &str, line: usize, found: &str) {
            let path = tmp(&format!("malformed_{}", std::any::type_name::<W>()));
            std::fs::write(&path, text).unwrap();
            for range_bytes in [1, 2, 3, 5, 8, 13, 1 << 20] {
                let err = read_ranges::<W>(&path, true, 0, range_bytes, usize::MAX).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                let want = format!("line {line}: expected `src dst [weight]`, found `{found}`");
                assert_eq!(err.to_string(), want, "{text:?} in ranges of {range_bytes}");
            }
            std::fs::remove_file(&path).ok();
        }
        let long = format!("0 1\n2 {}\n", "7".repeat(60));
        for (text, line, found) in [
            ("0 1\n# c\n\n1 x\n2 3\n", 4, "1 x"),
            ("0 1\r\n 17 \r\n2 3\n", 2, " 17"),
            ("5", 1, "5"),
            ("0 1\n1 2\n4294967296 7\n", 3, "4294967296 7"),
            ("0 4294967295\n0 4294967296\n", 2, "0 4294967296"),
            ("0 1\n1 2x\nbad\n", 2, "1 2x"),
            ("0 1\n-1 2\n", 2, "-1 2"),
            ("0 1\n1,2\n", 2, "1,2"),
            ("0 1\n+1 2\n", 2, "+1 2"),
            (long.as_str(), 2, &long[4..44]),
        ] {
            check::<()>(text, line, found);
            check::<u32>(text, line, found);
        }
        // A third column is the weighted loader's business only.
        check::<u32>("0 1 2\n0 1 0.5\n", 2, "0 1 0.5");
        check::<u32>("0 1 2\n0 1 4294967296", 2, "0 1 4294967296");
        assert_matches_reference("third_column", "0 1 2\n", true, 0, 1);
        let path = tmp("third_column_plain");
        std::fs::write(&path, "0 1 2\n0 2 0.5\n").unwrap();
        assert_eq!(
            read_edge_list(&path, true, 0).unwrap().neighbors(0),
            &[1, 2]
        );
        std::fs::remove_file(&path).ok();
    }

    /// A number's value and the index past the blanks after it.
    type Parsed = Option<(u32, usize)>;

    /// The rule `number` implements, a byte at a time: digits (any number
    /// of leading zeros) worth at most `u32::MAX`, then a blank or the
    /// newline; the value and the index past the blanks after it.
    fn scalar_number(line: &[u8], i: usize) -> Parsed {
        let digits = line[i..].iter().take_while(|b| b.is_ascii_digit()).count();
        let x = std::str::from_utf8(&line[i..i + digits])
            .ok()?
            .parse()
            .ok()?;
        let mut end = i + digits;
        if !(is_blank(line[end]) || line[end] == b'\n') {
            return None;
        }
        while is_blank(line[end]) {
            end += 1;
        }
        Some((x, end))
    }

    /// `number` on `text` from `at`, as the loader calls it: a newline
    /// after the text and `SLACK` bytes of junk after that.
    fn number_at(text: &[u8], at: usize) -> (Parsed, Parsed) {
        let mut line = text.to_vec();
        line.push(b'\n');
        line.extend([0xff, b'7', 0x80, b' ', b'\n', b'9', 0, b'3']);
        let mut i = at;
        let got = number(&line, &mut i).map(|x| (x, i));
        (got, scalar_number(&line, at))
    }

    /// The word-at-a-time `number` against the scalar rule: every digit
    /// count from 1 to 12, every byte after the digits, bytes at and above
    /// 0x80 later in the 8-byte window, the `u32::MAX` edge.
    #[test]
    fn number_reads_words_like_the_scalar_rule() {
        let tails: [&[u8]; 5] = [b"", b"12", b"\x80\xff\xc3", b"  5 \t", b"9\x7f\x8a\x89"];
        for count in 1..=12 {
            for digits in [
                "9".repeat(count),
                format!("1{}", "0".repeat(count - 1)),
                "0".repeat(count),
                "4294967295".chars().cycle().take(count).collect(),
                "3141592653589".chars().take(count).collect::<String>(),
            ] {
                for next in 0..=255u8 {
                    for tail in tails {
                        let mut text = digits.clone().into_bytes();
                        text.push(next);
                        text.extend(tail);
                        let (got, want) = number_at(&text, 0);
                        assert_eq!(got, want, "{:?}", String::from_utf8_lossy(&text));
                        if !next.is_ascii_digit() {
                            let blank = is_blank(next) || next == b'\n';
                            let fits = digits.parse::<u32>().is_ok();
                            assert_eq!(got.is_some(), blank && fits, "{text:?}");
                        }
                    }
                }
            }
        }
        for (text, want) in [
            ("4294967295", Some(u32::MAX)),
            ("0004294967295", Some(u32::MAX)),
            ("4294967296", None),
            ("99999999999", None),
            ("1234567", Some(1_234_567)),
            ("12345678", Some(12_345_678)),
        ] {
            let (got, scalar) = number_at(text.as_bytes(), 0);
            assert_eq!(got.map(|(x, _)| x), want, "{text}");
            assert_eq!(got, scalar, "{text}");
        }
    }

    /// Numbers in the last 8 bytes of a block and of the file: range
    /// lengths (and so block lengths) of 8 to 40 bytes put a block end
    /// at every offset of every number, and the file ends mid-window,
    /// with and without its newline. Ids stay small (leading zeros make
    /// them long) so the graphs do.
    #[test]
    fn numbers_at_block_and_file_ends_load() {
        for pad in 0..10 {
            for end in ["000000000042 7", "7 0000042", "12 3 4294967295", "1 2\n"] {
                let text = format!("{}123 0045\n0 0000678 89\n{end}", " ".repeat(pad));
                for range_bytes in 8..=40 {
                    assert_matches_reference("word_ends", &text, true, 0, range_bytes);
                }
            }
        }
    }

    /// The trap a counting pass inside the parse closure falls into: range
    /// 0's valid id `u32::MAX` would size its counters at 2^32 words
    /// before range 1's bad line fails the load. Every range parses first.
    #[test]
    fn a_bad_line_after_a_huge_id_fails_before_any_counting() {
        let path = tmp("huge_then_bad");
        let text = "0 4294967295\n1 x\n";
        std::fs::write(&path, text).unwrap();
        // Two ranges of 9 bytes: line 1 starts in the first, line 2 in the second.
        let err = read_ranges::<u32>(&path, false, 0, 8, 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "line 2: expected `src dst [weight]`, found `1 x`"
        );
        std::fs::remove_file(&path).ok();
    }

    fn wire_roundtrip<W: Codec + Copy + Default + PartialEq + std::fmt::Debug>(g: &Graph<W>) {
        let mut buf = Vec::new();
        encode_graph(g, &mut buf);
        let mut r = Reader::new(&buf);
        let g2: Graph<W> = decode_graph(&mut r).unwrap();
        assert!(r.is_empty(), "trailing bytes after graph decode");
        assert_eq!(g, &g2);
    }

    #[test]
    fn codec_roundtrips_unweighted_and_weighted() {
        wire_roundtrip(&gen::rmat(7, 600, gen::RmatParams::default(), 5, true));
        wire_roundtrip(&gen::grid2d_weighted(7, 7, 9, 2));
        wire_roundtrip(&Graph::from_edges(0, &[], true)); // empty graph
        wire_roundtrip(&Graph::from_edges(3, &[], false)); // isolated vertices
    }

    #[test]
    fn codec_roundtrips_partition_slices() {
        let g = gen::rmat(7, 500, gen::RmatParams::default(), 8, false).symmetrized();
        for parts in [1usize, 3] {
            for p in 0..parts {
                let keep = |v: VertexId| v as usize % parts == p;
                let slice = g.restrict_rows(keep);
                wire_roundtrip(&slice);
                let (mut sliced, mut rows) = (Vec::new(), Vec::new());
                encode_graph(&slice, &mut sliced);
                encode_rows(&g, keep, &mut rows);
                assert_eq!(rows, sliced, "rows {p} of {parts} encoded in place");
                assert_eq!(rows.len(), rows_wire_len(&g, keep));
            }
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        // Wrong version byte.
        let mut buf = Vec::new();
        encode_graph(&gen::cycle(4), &mut buf);
        buf[0] = 99;
        assert!(decode_graph::<()>(&mut Reader::new(&buf)).is_err());
        // Truncated payload (cut mid-targets).
        let mut buf = Vec::new();
        encode_graph(&gen::cycle(4), &mut buf);
        buf.truncate(buf.len() - 3);
        assert!(decode_graph::<()>(&mut Reader::new(&buf)).is_err());
        // Hostile arc count must fail the length check, not allocate.
        let mut buf = Vec::new();
        0u8.encode(&mut buf); // placeholder, fixed below
        buf[0] = 1; // version
        4u64.encode(&mut buf); // n
        true.encode(&mut buf);
        u64::MAX.encode(&mut buf); // m
        assert!(decode_graph::<()>(&mut Reader::new(&buf)).is_err());
        // Empty input.
        assert!(decode_graph::<u32>(&mut Reader::new(&[])).is_err());
    }

    proptest::proptest! {
        /// Random multigraphs (parallel edges with distinct weights,
        /// self-loops) in random formatting load to what the reference
        /// loader builds, through both loaders, in one range and in many
        /// (the override: a 1-core runner still splits the file).
        #[test]
        fn prop_loaders_match_reference(
            records in proptest::collection::vec(
                (0u32..24, 0u32..24, 0u32..4, proptest::any::<u64>()),
                0..40,
            ),
            tail in proptest::any::<u64>(),
            directed in proptest::any::<bool>(),
            min_n in 0usize..30,
            range_bytes in 1u64..48,
        ) {
            let text = render(&records, tail);
            assert_matches_reference("prop_reference", &text, directed, min_n, range_bytes);
        }

        /// The word-at-a-time `number` against the scalar rule at every
        /// start of random text drawn mostly from digits and blanks.
        #[test]
        fn prop_number_matches_the_scalar_rule(
            picks in proptest::collection::vec((0u8..4, proptest::any::<u8>()), 1..40),
        ) {
            let text: Vec<u8> = picks
                .iter()
                .map(|&(kind, b)| match kind {
                    0 | 1 => b'0' + b % 10,
                    2 => b" \t\r"[b as usize % 3],
                    _ => b,
                })
                .collect();
            for at in 0..text.len() {
                if text[at].is_ascii_digit() {
                    let (got, want) = number_at(&text, at);
                    proptest::prop_assert_eq!(got, want, "{:?} from {}", text, at);
                }
            }
        }

        /// Partition shipping's round trip: build a weighted graph from an
        /// arbitrary (unsorted, duplicate-carrying) edge list, encode,
        /// decode — the result is an identical graph, weights included.
        #[test]
        fn prop_weighted_graph_wire_roundtrip(
            n in 1usize..40,
            edges in proptest::collection::vec((0u32..40, 0u32..40, 1u32..1000), 0..120),
            directed in proptest::any::<bool>(),
        ) {
            let edges: Vec<(u32, u32, u32)> = edges
                .into_iter()
                .map(|(u, v, w)| (u % n as u32, v % n as u32, w))
                .collect();
            let g = Graph::from_weighted_edges(n, &edges, directed);
            let mut buf = Vec::new();
            encode_graph(&g, &mut buf);
            let mut r = Reader::new(&buf);
            let g2: WeightedGraph = decode_graph(&mut r).unwrap();
            proptest::prop_assert!(r.is_empty());
            proptest::prop_assert_eq!(&g, &g2);
            // And each worker's shipped slice round-trips too, encoded
            // straight from the full graph as from the copied-out slice.
            for rank in 0..3u32 {
                let keep = |v: VertexId| v % 3 == rank;
                let slice = g.restrict_rows(keep);
                let mut buf = Vec::new();
                encode_graph(&slice, &mut buf);
                let s2: WeightedGraph = decode_graph(&mut Reader::new(&buf)).unwrap();
                proptest::prop_assert_eq!(&slice, &s2);
                let mut rows = Vec::with_capacity(rows_wire_len(&g, keep));
                encode_rows(&g, keep, &mut rows);
                proptest::prop_assert_eq!(rows.capacity(), rows.len());
                proptest::prop_assert_eq!(&rows, &buf);
            }
        }
    }
}
