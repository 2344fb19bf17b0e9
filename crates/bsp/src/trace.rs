//! Superstep-resolution tracing: per-worker timelines the run can export.
//!
//! [`RunStats`](crate::metrics::RunStats) answers *how much* (total bytes,
//! total stall); this module answers *when* and *where*. Each traced
//! worker owns a [`Tracer`] — a preallocated, bounded event buffer fed by
//! a monotonic clock — that records spans ([`SpanKind`]) for the phases
//! of every superstep plus one [`SuperstepStats`] row of counters per
//! superstep. When a run finishes, each worker's stream becomes a
//! [`RankTrace`]; multi-process runs ship them to rank 0 over the same
//! gather codec that carries the result values, where
//! [`align_epochs`]/[`merge_timelines`] put every rank on one time base
//! and [`chrome_trace_json`] renders the whole run as Chrome trace-event
//! JSON (one track per rank, loadable in Perfetto or `chrome://tracing`).
//!
//! Tracing off is a true no-op: the engine branches on an
//! `Option<Tracer>` that is `None`, the transport's poll-wait probe is a
//! single thread-local `is-none` check on an already-slow path (a kernel
//! wait), and nothing else in the exchange path looks at this module.
//! The conformance suite pins the byte-identity of untraced runs, and
//! `tests/trace_timeline.rs` asserts a traced run changes no counter.

use crate::codec::{Codec, Reader};
use crate::metrics::SuperstepStats;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Preallocated per-worker event capacity. A traced run records a
/// handful of spans per round, so this covers tens of thousands of
/// rounds; past it events are dropped (and counted) rather than grown —
/// tracing must never allocate on the superstep path.
pub const EVENT_CAPACITY: usize = 1 << 16;

/// What a traced span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The vertex-program phase of one superstep.
    Compute,
    /// One buffer-exchange round (serialize, post, sync, take,
    /// deserialize).
    Exchange,
    /// A global reduction (the fused round epilogue, or the channel-free
    /// activity reduction).
    Barrier,
    /// One kernel readiness wait in the TCP transport's multiplexer
    /// (recorded by the transport, attributed to the superstep that was
    /// in flight).
    PollWait,
    /// One checkpoint boundary: snapshot in place, hand-off to the
    /// writer. Carries `[snapshot_us, stall_us]` in [`TraceEvent::args`];
    /// `stall_us` is the wait for the previous epoch's write, taken
    /// before the boundary superstep's exchange and so outside the span.
    Checkpoint,
    /// Restoring a committed checkpoint before the first superstep.
    Recovery,
    /// The end-of-run drain of the last epoch still with the writer (wait,
    /// one words-only exchange, commit). Not an epoch: it has no snapshot,
    /// only `stall_us`.
    CheckpointDrain,
}

impl SpanKind {
    /// Stable name, used as the Chrome trace event name.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Exchange => "exchange",
            SpanKind::Barrier => "barrier",
            SpanKind::PollWait => "poll-wait",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Recovery => "recovery",
            SpanKind::CheckpointDrain => "checkpoint-drain",
        }
    }

    /// What [`TraceEvent::args`] holds for this kind, if anything: the
    /// checkpoint spans split their duration into the in-place snapshot
    /// and the wait for the previous epoch's write.
    pub fn arg_names(&self) -> Option<[&'static str; 2]> {
        match self {
            SpanKind::Checkpoint | SpanKind::CheckpointDrain => Some(["snapshot_us", "stall_us"]),
            _ => None,
        }
    }

    fn code(&self) -> u8 {
        match self {
            SpanKind::Compute => 0,
            SpanKind::Exchange => 1,
            SpanKind::Barrier => 2,
            SpanKind::PollWait => 3,
            SpanKind::Checkpoint => 4,
            SpanKind::Recovery => 5,
            SpanKind::CheckpointDrain => 6,
        }
    }

    fn from_code(code: u8) -> SpanKind {
        match code {
            0 => SpanKind::Compute,
            1 => SpanKind::Exchange,
            2 => SpanKind::Barrier,
            3 => SpanKind::PollWait,
            4 => SpanKind::Checkpoint,
            5 => SpanKind::Recovery,
            6 => SpanKind::CheckpointDrain,
            other => panic!("unknown span kind code {other}"),
        }
    }
}

/// One closed span on a worker's timeline. Timestamps are microseconds
/// from the owning tracer's origin until [`align_epochs`] shifts them
/// onto the run-wide epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What the span covers.
    pub kind: SpanKind,
    /// Superstep the span belongs to (1-based, the engine's counter).
    pub superstep: u64,
    /// Start, µs from the trace epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Two µs figures splitting `dur_us`, named by [`SpanKind::arg_names`]
    /// (zero for kinds that name none).
    pub args: [u64; 2],
}

impl Codec for TraceEvent {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.kind.code().encode(buf);
        self.superstep.encode(buf);
        self.start_us.encode(buf);
        self.dur_us.encode(buf);
        // Only the kinds that name their args ship them: a compute or
        // poll-wait span — nearly all of a stream — stays 25 bytes.
        if self.kind.arg_names().is_some() {
            self.args.encode(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Self {
        let kind = SpanKind::from_code(r.get());
        TraceEvent {
            kind,
            superstep: r.get(),
            start_us: r.get(),
            dur_us: r.get(),
            args: if kind.arg_names().is_some() {
                r.get()
            } else {
                [0; 2]
            },
        }
    }
}

/// One worker's (rank's) complete trace: its event stream, per-superstep
/// counter rows, and the wall-clock anchor that lets rank 0 merge
/// streams from different processes onto one epoch.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RankTrace {
    /// The worker/rank this stream belongs to.
    pub rank: u32,
    /// Wall clock (unix µs) at this tracer's monotonic origin. Before
    /// [`align_epochs`] event timestamps are relative to this; after,
    /// this holds the rank's offset from the run-wide epoch.
    pub epoch_us: u64,
    /// Events dropped once [`EVENT_CAPACITY`] was reached.
    pub dropped: u64,
    /// Closed spans, in recording order.
    pub events: Vec<TraceEvent>,
    /// One counter row per executed superstep.
    pub timeline: Vec<SuperstepStats>,
}

impl Codec for RankTrace {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.rank.encode(buf);
        self.epoch_us.encode(buf);
        self.dropped.encode(buf);
        self.events.encode(buf);
        self.timeline.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Self {
        RankTrace {
            rank: r.get(),
            epoch_us: r.get(),
            dropped: r.get(),
            events: r.get(),
            timeline: r.get(),
        }
    }
}

/// A per-worker span recorder: a monotonic clock plus preallocated event
/// and timeline buffers. Owned by the engine's worker driver; absent
/// (`None`) when tracing is off.
#[derive(Debug)]
pub struct Tracer {
    rank: u32,
    origin: Instant,
    epoch_us: u64,
    events: Vec<TraceEvent>,
    dropped: u64,
    timeline: Vec<SuperstepStats>,
}

impl Tracer {
    /// A tracer for `rank`, anchored to now.
    pub fn new(rank: usize) -> Self {
        let epoch_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        Tracer {
            rank: rank as u32,
            origin: Instant::now(),
            epoch_us,
            events: Vec::with_capacity(EVENT_CAPACITY),
            dropped: 0,
            timeline: Vec::with_capacity(256),
        }
    }

    /// The monotonic origin all of this tracer's timestamps are relative
    /// to (shared with the poll-wait probe).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Microseconds since the origin — span start timestamps.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Close a span opened at `start_us` (from [`Tracer::now_us`]) and
    /// record it; returns the span's duration in µs.
    pub fn end(&mut self, kind: SpanKind, superstep: u64, start_us: u64) -> u64 {
        self.end_with(kind, superstep, start_us, [0; 2])
    }

    /// [`Tracer::end`] for a kind that carries [`TraceEvent::args`].
    pub fn end_with(
        &mut self,
        kind: SpanKind,
        superstep: u64,
        start_us: u64,
        args: [u64; 2],
    ) -> u64 {
        let dur_us = self.now_us().saturating_sub(start_us);
        self.record(TraceEvent {
            kind,
            superstep,
            start_us,
            dur_us,
            args,
        });
        dur_us
    }

    /// Record one closed event, dropping (and counting) past capacity.
    pub fn record(&mut self, ev: TraceEvent) {
        if self.events.len() < self.events.capacity() {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Append one superstep's counter row.
    pub fn superstep(&mut self, row: SuperstepStats) {
        self.timeline.push(row);
    }

    /// Move the poll-wait spans the transport probe accumulated on this
    /// thread into the event stream, attributed to `superstep`.
    pub fn drain_poll_spans(&mut self, superstep: u64) {
        POLL_PROBE.with(|cell| {
            if let Some(probe) = cell.borrow_mut().as_mut() {
                for (start_us, dur_us) in probe.spans.drain(..) {
                    self.record(TraceEvent {
                        kind: SpanKind::PollWait,
                        superstep,
                        start_us,
                        dur_us,
                        args: [0; 2],
                    });
                }
            }
        });
    }

    /// Seal the stream into its shippable form.
    pub fn finish(self) -> RankTrace {
        RankTrace {
            rank: self.rank,
            epoch_us: self.epoch_us,
            dropped: self.dropped,
            events: self.events,
            timeline: self.timeline,
        }
    }
}

/// The transport-side poll-wait probe: spans recorded from inside
/// [`crate::tcp`]'s readiness multiplexer, on the worker's own thread,
/// without the transport ever seeing the tracer. `(start_us, dur_us)`
/// relative to the installing tracer's origin.
struct PollProbe {
    origin: Instant,
    spans: Vec<(u64, u64)>,
}

thread_local! {
    static POLL_PROBE: RefCell<Option<PollProbe>> = const { RefCell::new(None) };
}

/// Uninstalls the thread's poll-wait probe on drop.
pub struct PollProbeGuard(());

impl Drop for PollProbeGuard {
    fn drop(&mut self) {
        POLL_PROBE.with(|cell| *cell.borrow_mut() = None);
    }
}

/// Install the poll-wait probe on the calling thread, anchored to the
/// tracer's `origin`. The engine's worker driver holds the guard for the
/// run; transports record through [`note_poll_wait`].
pub fn install_poll_probe(origin: Instant) -> PollProbeGuard {
    POLL_PROBE.with(|cell| {
        *cell.borrow_mut() = Some(PollProbe {
            origin,
            spans: Vec::with_capacity(1024),
        })
    });
    PollProbeGuard(())
}

/// Record one kernel readiness wait that started at `start` and lasted
/// `waited_us`. Called by the TCP transport's multiplexer; a no-op
/// (one thread-local check) unless the calling thread installed a probe.
pub fn note_poll_wait(start: Instant, waited_us: u64) {
    POLL_PROBE.with(|cell| {
        if let Some(probe) = cell.borrow_mut().as_mut() {
            let start_us = start.duration_since(probe.origin).as_micros() as u64;
            if probe.spans.len() < probe.spans.capacity() {
                probe.spans.push((start_us, waited_us));
            }
        }
    });
}

/// Shift every rank's timestamps onto one epoch: the earliest rank
/// origin becomes 0 and each event's `start_us` becomes its offset from
/// it. In-process runs share a clock, so this is exact; multi-process
/// runs on one host share `CLOCK_MONOTONIC` anyway and the wall-clock
/// anchor keeps multi-host traces sane.
pub fn align_epochs(traces: &mut [RankTrace]) {
    let Some(min) = traces.iter().map(|t| t.epoch_us).min() else {
        return;
    };
    for t in traces {
        let offset = t.epoch_us - min;
        t.epoch_us = offset;
        for e in &mut t.events {
            e.start_us += offset;
        }
    }
}

/// Merge per-rank timelines into one run-global timeline: rows of the
/// same superstep are summed (rounds, identical everywhere, are kept).
pub fn merge_timelines(traces: &[RankTrace]) -> Vec<SuperstepStats> {
    let mut merged: Vec<SuperstepStats> = Vec::new();
    for t in traces {
        if merged.is_empty() {
            merged = t.timeline.clone();
            continue;
        }
        assert_eq!(
            merged.len(),
            t.timeline.len(),
            "rank {} disagrees on the superstep count",
            t.rank
        );
        for (into, from) in merged.iter_mut().zip(&t.timeline) {
            into.merge(from);
        }
    }
    merged
}

/// Render rank traces as Chrome trace-event JSON: an array of complete
/// (`"ph": "X"`) events, one `tid` (track) per rank, each track named
/// via a `thread_name` metadata event and followed by a `dropped_events`
/// metadata event carrying [`RankTrace::dropped`] — how many spans the
/// track is missing past [`EVENT_CAPACITY`]. Timestamps are µs on the
/// aligned epoch. Loadable in Perfetto (ui.perfetto.dev) or
/// `chrome://tracing`.
pub fn chrome_trace_json(traces: &[RankTrace]) -> String {
    let mut json = String::from("[\n");
    let mut first = true;
    let mut emit = |line: &str, json: &mut String| {
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(line);
    };
    for t in traces {
        emit(
            &format!(
                "  {{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"rank {}\"}}}}",
                t.rank, t.rank
            ),
            &mut json,
        );
        emit(
            &format!(
                "  {{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"dropped_events\",\
                 \"args\":{{\"count\":{}}}}}",
                t.rank, t.dropped
            ),
            &mut json,
        );
        for e in &t.events {
            let extra = e.kind.arg_names().map_or(String::new(), |[a, b]| {
                format!(",\"{a}\":{},\"{b}\":{}", e.args[0], e.args[1])
            });
            emit(
                &format!(
                    "  {{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\
                     \"ts\":{},\"dur\":{},\"args\":{{\"superstep\":{}{extra}}}}}",
                    t.rank,
                    e.kind.as_str(),
                    e.start_us,
                    e.dur_us,
                    e.superstep
                ),
                &mut json,
            );
        }
    }
    json.push_str("\n]\n");
    json
}

/// Render a merged timeline as the `--superstep-table` text block.
pub fn superstep_table(timeline: &[SuperstepStats]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>9} {:>7} {:>10} {:>10} {:>12} {:>10} {:>10} {:>11} {:>11} {:>15}",
        "superstep",
        "rounds",
        "active",
        "messages",
        "remote B",
        "stall µs",
        "pool miss",
        "compute µs",
        "exchange µs",
        "max cmp/xch µs"
    );
    for r in timeline {
        let _ = writeln!(
            out,
            "{:>9} {:>7} {:>10} {:>10} {:>12} {:>10} {:>10} {:>11} {:>11} {:>15}",
            r.superstep,
            r.rounds,
            r.active,
            r.messages,
            r.remote_bytes,
            r.stall_us,
            r.pool_misses,
            r.compute_us,
            r.exchange_us,
            format!("{}/{}", r.compute_max_us, r.exchange_max_us)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace(rank: u32, epoch_us: u64) -> RankTrace {
        RankTrace {
            rank,
            epoch_us,
            dropped: 0,
            events: vec![
                TraceEvent {
                    kind: SpanKind::Compute,
                    superstep: 1,
                    start_us: 10,
                    dur_us: 5,
                    args: [0; 2],
                },
                TraceEvent {
                    kind: SpanKind::Exchange,
                    superstep: 1,
                    start_us: 15,
                    dur_us: 8,
                    args: [0; 2],
                },
                TraceEvent {
                    kind: SpanKind::PollWait,
                    superstep: 2,
                    start_us: 30,
                    dur_us: 100,
                    args: [0; 2],
                },
            ],
            timeline: vec![
                SuperstepStats {
                    superstep: 1,
                    rounds: 2,
                    active: 7,
                    messages: 11,
                    remote_bytes: 130,
                    stall_us: 3,
                    pool_misses: 1,
                    compute_us: 5,
                    exchange_us: 8,
                    compute_max_us: 5,
                    exchange_max_us: 8,
                },
                SuperstepStats {
                    superstep: 2,
                    rounds: 1,
                    active: 2,
                    messages: 3,
                    remote_bytes: 40,
                    stall_us: 100,
                    pool_misses: 0,
                    compute_us: 2,
                    exchange_us: 4,
                    compute_max_us: 2,
                    exchange_max_us: 4,
                },
            ],
        }
    }

    /// The gather codec round-trips a complete rank trace bit-exactly —
    /// every span field and every per-superstep counter row.
    #[test]
    fn rank_trace_codec_round_trips() {
        let t = sample_trace(3, 1_000_000);
        let mut buf = Vec::new();
        t.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let back = RankTrace::decode(&mut r);
        assert!(r.is_empty(), "trailing bytes");
        assert_eq!(back, t);
    }

    /// Every span kind survives its wire code.
    #[test]
    fn span_kind_codes_round_trip() {
        for kind in [
            SpanKind::Compute,
            SpanKind::Exchange,
            SpanKind::Barrier,
            SpanKind::PollWait,
            SpanKind::Checkpoint,
            SpanKind::Recovery,
            SpanKind::CheckpointDrain,
        ] {
            assert_eq!(SpanKind::from_code(kind.code()), kind);
            assert!(!kind.as_str().is_empty());
        }
    }

    /// Epoch alignment shifts the later rank's events by the origin gap
    /// and leaves the earliest rank untouched.
    #[test]
    fn align_epochs_puts_ranks_on_one_time_base() {
        let mut traces = vec![sample_trace(0, 5_000), sample_trace(1, 5_250)];
        align_epochs(&mut traces);
        assert_eq!(traces[0].epoch_us, 0);
        assert_eq!(traces[1].epoch_us, 250);
        assert_eq!(traces[0].events[0].start_us, 10);
        assert_eq!(traces[1].events[0].start_us, 260);
    }

    /// Merged timelines sum counters per superstep, keep the (global,
    /// identical) round count, and keep the slowest rank's compute and
    /// exchange beside their sums.
    #[test]
    fn merge_timelines_sums_per_superstep() {
        let mut traces = vec![sample_trace(0, 0), sample_trace(1, 0)];
        // Rank 1 computes superstep 1 for 75× as long as rank 0.
        traces[1].timeline[0].compute_us = 375;
        traces[1].timeline[0].compute_max_us = 375;
        let merged = merge_timelines(&traces);
        assert_eq!(
            (merged[0].compute_us, merged[0].compute_max_us),
            (380, 375),
            "the sum hides what the max shows"
        );
        assert_eq!((merged[0].exchange_us, merged[0].exchange_max_us), (16, 8));
        let table = superstep_table(&merged);
        assert!(table.lines().nth(1).unwrap().ends_with(" 375/8"), "{table}");
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].superstep, 1);
        assert_eq!(merged[0].active, 14);
        assert_eq!(merged[0].messages, 22);
        assert_eq!(merged[0].remote_bytes, 260);
        assert_eq!(merged[0].rounds, 2, "rounds are global, not summed");
        assert_eq!(merged[1].stall_us, 200);
    }

    /// The Chrome export is structurally valid JSON with one named track
    /// per rank, each rank's dropped-event count as metadata, and one
    /// complete event per span.
    #[test]
    fn chrome_trace_json_is_wellformed() {
        let mut traces = vec![sample_trace(0, 100), sample_trace(1, 150)];
        traces[1].dropped = 7;
        align_epochs(&mut traces);
        let json = chrome_trace_json(&traces);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches("thread_name").count(), 2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 6);
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 4);
        for (rank, count) in [(0, 0), (1, 7)] {
            let meta = format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{rank},\"name\":\"dropped_events\",\
                 \"args\":{{\"count\":{count}}}}}"
            );
            assert!(json.contains(&meta), "missing {meta} in {json}");
        }
        assert!(json.contains("\"name\":\"poll-wait\""));
        assert!(!json.contains(",\n]"), "trailing comma: {json}");
        assert!(
            !json.contains("stall_us"),
            "only checkpoint spans carry args"
        );
    }

    /// A checkpoint span's args split its duration into the snapshot and
    /// the wait for the previous epoch's write.
    #[test]
    fn checkpoint_spans_carry_snapshot_and_stall() {
        let mut t = Tracer::new(0);
        t.end_with(SpanKind::Checkpoint, 5, 0, [400, 30]);
        t.end_with(SpanKind::CheckpointDrain, 9, 0, [0, 12]);
        let trace = t.finish();
        let mut wire = Vec::new();
        trace.encode(&mut wire);
        assert_eq!(RankTrace::decode(&mut Reader::new(&wire)), trace);
        let json = chrome_trace_json(&[trace]);
        assert!(json.contains("\"name\":\"checkpoint\",\"ts\":0,\"dur\":"));
        assert!(json.contains("{\"superstep\":5,\"snapshot_us\":400,\"stall_us\":30}"));
        assert!(json.contains("\"name\":\"checkpoint-drain\""));
        assert!(json.contains("{\"superstep\":9,\"snapshot_us\":0,\"stall_us\":12}"));
    }

    /// The event buffer is bounded: past capacity events are counted,
    /// not stored (and never reallocate).
    #[test]
    fn tracer_event_buffer_saturates() {
        let mut t = Tracer::new(0);
        let cap = t.events.capacity();
        for i in 0..(cap + 10) {
            t.record(TraceEvent {
                kind: SpanKind::Compute,
                superstep: i as u64,
                start_us: 0,
                dur_us: 0,
                args: [0; 2],
            });
        }
        assert_eq!(t.events.len(), cap);
        assert_eq!(t.events.capacity(), cap);
        assert_eq!(t.dropped, 10);
    }

    /// The poll probe feeds spans to the tracer on the same thread and
    /// is a no-op once the guard drops.
    #[test]
    fn poll_probe_records_only_while_installed() {
        let mut t = Tracer::new(0);
        {
            let _guard = install_poll_probe(t.origin());
            note_poll_wait(Instant::now(), 42);
            t.drain_poll_spans(7);
        }
        note_poll_wait(Instant::now(), 99); // probe gone: dropped
        t.drain_poll_spans(8);
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].kind, SpanKind::PollWait);
        assert_eq!(t.events[0].superstep, 7);
        assert_eq!(t.events[0].dur_us, 42);
    }

    /// The superstep table renders one row per superstep.
    #[test]
    fn superstep_table_has_one_row_per_superstep() {
        let table = superstep_table(&sample_trace(0, 0).timeline);
        assert_eq!(table.lines().count(), 3); // header + 2 rows
        assert!(table.contains("superstep"));
    }
}
