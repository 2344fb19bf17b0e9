//! Channels driven by hand: one instance per worker of a small cluster,
//! the frames carried between them as the sequential driver would
//! (senders in ascending order), with every channel's fields in reach of
//! the test that built it.

use crate::channel::{Channel, DeserializeCx, SerializeCx, WorkerEnv};
use crate::frontier::Frontier;
use pc_bsp::buffer::{frame_spans, FrameSpan, OutBuffers};
use pc_bsp::metrics::ByteCounter;
use pc_bsp::Topology;
use std::sync::Arc;

pub(crate) struct Cluster<C> {
    pub(crate) topo: Arc<Topology>,
    pub(crate) chans: Vec<C>,
    /// What each worker's channel activated, as the engine would see it.
    pub(crate) frontiers: Vec<Frontier>,
    /// Channel bytes framed so far, loop-back included.
    pub(crate) bytes: ByteCounter,
}

impl<C: Channel<()>> Cluster<C> {
    pub(crate) fn new(topo: Topology, make: impl Fn(&WorkerEnv) -> C) -> Self {
        let topo = Arc::new(topo);
        let envs = (0..topo.workers()).map(|worker| WorkerEnv {
            worker,
            topo: Arc::clone(&topo),
        });
        Cluster {
            chans: envs.map(|env| make(&env)).collect(),
            frontiers: (0..topo.workers())
                .map(|w| Frontier::all_active(topo.local_count(w)))
                .collect(),
            bytes: ByteCounter::default(),
            topo,
        }
    }

    pub(crate) fn env(&self, worker: usize) -> WorkerEnv {
        WorkerEnv {
            worker,
            topo: Arc::clone(&self.topo),
        }
    }

    /// Hand `bufs` (`(sender, raw buffer)`) to worker `w`'s channel.
    pub(crate) fn deliver(&mut self, w: usize, bufs: &[(usize, Vec<u8>)]) {
        let mut spans = Vec::new();
        for (bi, (_, buf)) in bufs.iter().enumerate() {
            spans.extend(frame_spans(buf).map(|(_, start, end)| FrameSpan {
                buf: bi as u32,
                start,
                end,
            }));
        }
        let env = self.env(w);
        let mut cx = DeserializeCx::<()> {
            env: &env,
            spans: &spans,
            bufs,
            values: &[],
            frontier: &mut self.frontiers[w],
        };
        self.chans[w].deserialize(&mut cx);
    }

    /// Worker `w`'s channel serializes; returns its framed buffer toward
    /// every peer (empty where it wrote no frame).
    pub(crate) fn serialize(&mut self, w: usize) -> Vec<Vec<u8>> {
        let workers = self.chans.len();
        let mut out = OutBuffers::new(w, workers);
        let env = self.env(w);
        let mut cx = SerializeCx {
            channel_id: 0,
            env: &env,
            out: &mut out,
            bytes: &mut self.bytes,
        };
        self.chans[w].serialize(&mut cx);
        (0..workers)
            .map(|peer| std::mem::take(out.buf(peer)))
            .collect()
    }

    /// One exchange round: every channel serializes, every worker
    /// receives. Returns whether any channel asks for another round.
    pub(crate) fn round(&mut self) -> bool {
        let workers = self.chans.len();
        let mut inbox = vec![Vec::new(); workers];
        for w in 0..workers {
            for (column, buf) in inbox.iter_mut().zip(self.serialize(w)) {
                column.push((w, buf));
            }
        }
        for (w, bufs) in inbox.iter().enumerate() {
            self.deliver(w, bufs);
        }
        self.chans.iter().any(|ch| ch.again())
    }

    /// A whole superstep's exchange (rounds until no channel asks for
    /// another), then the boundary: frontiers advance, channels swap their
    /// receive buffers.
    pub(crate) fn exchange(&mut self) {
        while self.round() {}
        for (ch, frontier) in self.chans.iter_mut().zip(&mut self.frontiers) {
            frontier.advance();
            ch.before_superstep(0);
        }
    }
}
