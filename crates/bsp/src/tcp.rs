//! A real-socket exchange transport: every worker behind a stream socket.
//!
//! This backend replaces the shared-memory mailbox of
//! [`crate::exchange::Hub`] with an N×N mesh of stream sockets while
//! keeping the engine-observable behavior identical (see
//! `tests/transport_conformance.rs`). It is the deployable shape of the
//! simulated cluster: swap the loopback addresses for real hosts and the
//! same wire protocol runs a multi-process deployment.
//!
//! ## Link kinds
//!
//! Every rank publishes one data-plane address, a TCP `SocketAddr`, and
//! the address decides the kind of each link to it ([`is_local_link`]):
//!
//! * a **loopback** address (`127.0.0.0/8`, `::1`) names a peer on this
//!   host, and the link is a pair of shared-memory rings. Bytes cross it
//!   with one copy in and one copy out and no system call, so a round
//!   between two processes costs no kernel crossing while both run.
//! * any other address gets a TCP link, the only kind that reaches
//!   another host.
//!
//! A [`MeshListener`] listens on both: its TCP listener holds the
//! published port, and on a loopback address a Unix listener sits beside
//! it, bound before the address is published. The Unix name is derived
//! from the address (`pcgraph-mesh-127.0.0.1:PORT`) in Linux's *abstract*
//! namespace: no file is created, and the kernel frees the name when the
//! listener closes, even in a process killed by `SIGKILL`. The TCP
//! listener's hold on the port keeps the name unique. The accept side
//! takes whichever kind a peer dials.
//!
//! **The rings.** The dialer of a same-host link creates one `memfd`
//! holding a control page and two single-producer/single-consumer byte
//! rings, one per direction, of `RING_CAPACITY` (128 KiB) each. It seals
//! the memfd against shrinking, growing and further sealing, maps it, and
//! passes it with its `HELLO` over the Unix socket (`SCM_RIGHTS`). The
//! acceptor maps it only if it carries those seals and is exactly the
//! size of the rings; anything else is a typed
//! [`TransportError::Connect`]. The seals are what make the mapping safe:
//! a file that cannot shrink cannot leave a mapped page past its end,
//! which would raise `SIGBUS`. Both rings become resident in both
//! processes, about 2 × 128 KiB per same-host peer.
//!
//! Each ring has a `head` (bytes published, written only by its producer)
//! and a `tail` (bytes taken, written only by its consumer), both
//! monotone stream positions. A side keeps its own index privately and
//! reads only the peer's from shared memory, which it does not trust:
//! before every copy it checks that the peer's index never moved back and
//! that head and tail are never more than the capacity apart. A bad value
//! is a [`TransportError::Protocol`], never an out-of-bounds access.
//!
//! **Doorbell.** After the handshake the socket carries no data, only
//! wake-ups and the hang-up. A side about to sleep in the readiness wait
//! sets its `parked` word (`SeqCst`) to what it waits for — bytes, room,
//! or both — re-checks its rings, and only then polls the socket. A side
//! that publishes bytes, or frees room, stores its index (`SeqCst`),
//! reads the peer's `parked` word, and if it names what just happened
//! clears it and writes one byte to the socket. With both sides `SeqCst`,
//! either the sleeper's re-check sees the index or the waker sees
//! `parked`, so no wake-up is lost. `POLL_WAIT_CAP` only bounds how late
//! a lost one would be; a wait that expires there while its ring held
//! what it slept on is counted, and the tests require none. A side that
//! finds its rings ready while it still yields never touches the socket.
//!
//! **Hang-up.** A peer that exits or dies closes its socket, and the
//! readiness wait sees end-of-stream there. From then on the ring still
//! yields the bytes the peer published, then reads as end-of-stream, and
//! a write to it is a broken pipe — the same `Disconnected` and
//! `Truncated` errors a TCP link gives.
//!
//! The rings carry exactly the bytes the socket would. The wire protocol
//! below, the frame codec, the readiness loop, coalescing,
//! [`TransportStats`] and every [`TransportError`] are the same code for
//! both kinds.
//!
//! ## Wire protocol
//!
//! Every message is one length-prefixed frame, encoded with the existing
//! [`Codec`] discipline:
//!
//! ```text
//! frame := tag:u8  len:u32(LE)  payload[len]
//! ```
//!
//! * `HELLO`  — mesh handshake; payload is the sender's rank (`u32`).
//! * `DATA`   — one exchange buffer, exactly as the engine posted it.
//! * `END`    — "this round is complete from me"; emitted by [`Tcp::sync`]
//!   to every peer, after that peer's optional `DATA`, so every receiver
//!   sees exactly one `END` per peer per round and knows the round is
//!   complete without a barrier. Its 16-byte payload is the sender's two
//!   round words (`again: u64`, `active: u64`, little-endian): the round's
//!   reduction rides its exchange, and every rank combines the words
//!   itself — no rank relays anything. There is no other control frame:
//!   a checkpoint ack is the next round's `END`s (see `pc_ckpt`).
//! * `BATCH`  — a coalesced super-frame: several logical frames to the
//!   same peer packed behind one header. The payload is a sub-frame
//!   directory (`count:u32`, then `tag:u8 len:u32` per sub-frame)
//!   followed by the concatenated sub-frame payloads; the receiver splits it back into the original frames, so
//!   everything above the transport — values, [`ChannelMetrics`] bytes
//!   and messages, rounds, pool traffic — is byte-identical to the
//!   in-process backend. (`ChannelMetrics` accounting happens at the
//!   engine's serialize step and never sees transport framing at all.)
//!
//! ## One driver: a non-blocking readiness loop
//!
//! Every mesh socket runs in `set_nonblocking` mode and a single readiness
//! loop drives all progress. `post` only enqueues into a per-peer send
//! queue and opportunistically pumps the sockets, so serializing the next
//! destination's buffer overlaps the wire transfer of the previous one;
//! partial reads *and* partial writes resume from per-peer cursors inside
//! the same loop. Small frames that share a peer are coalesced into one
//! `BATCH` super-frame — in particular a small `DATA` is held until its
//! `END` joins it at `sync`, so a round costs every peer one frame. A
//! large `DATA` streams out at `post`. The mesh handshake (`HELLO`) alone
//! runs on blocking sockets ([`write_frame`] / [`read_frame_into`]),
//! before the links switch to non-blocking mode.
//!
//! ## Design notes
//!
//! * **Determinism without ordering reads.** All workers drive the
//!   transport in lock-step (the engine's masks are global decisions), so
//!   each socket carries a deterministic frame sequence. `take_all_into`
//!   collects peers in whatever order they deliver and then yields
//!   buffers in sender order, exactly like the mailbox's sorted drain.
//! * **Pooled buffers come home.** Once a posted buffer's bytes are
//!   staged for the wire, its `Vec` parks on a per-worker return stack;
//!   `reclaim_into` hands it back to the engine's [`BufferPool`] next
//!   round, so pool hit/miss traffic matches the in-process backend byte
//!   for byte. Receive buffers cycle through a private per-worker
//!   freelist refilled by `recycle`.
//! * **A round is one all-to-all hop.** Every rank sends every peer its
//!   `END` and waits for every peer's, so all ranks send, then all wait —
//!   no rank waits for another to relay a result, and no rank's `take`
//!   returns before every peer's `sync`: the one ordering fact the engine
//!   builds its checkpoint ack on.
//! * **Nothing blocks forever.** Every wait is a bounded `poll(2)`
//!   against an explicit deadline and fails with a typed
//!   [`TransportError`] when it expires; a late peer within the
//!   connect deadline is tolerated, an absent one is an error, not a
//!   hang. A refused connect is an error at once: a peer's listeners are
//!   bound before its address is published, so a refusal means it is
//!   gone.

use crate::codec::{Codec, Reader};
use crate::metrics::TransportStats;
use crate::poll::{self, PollFd};
use crate::pool::BufferPool;
use crate::transport::{ExchangeTransport, TransportError};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{SocketAddr as UnixAddr, UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Frame tag: mesh handshake (payload = sender rank as `u32`).
pub const TAG_HELLO: u8 = b'H';
/// Frame tag: one posted exchange buffer.
pub const TAG_DATA: u8 = b'D';
/// Frame tag: end of the sender's round (payload = its two round words).
pub const TAG_END: u8 = b'E';
/// Frame tag: coalesced super-frame (see the module docs for the payload
/// layout and [`encode_batch`] / [`decode_batch`]).
pub const TAG_BATCH: u8 = b'B';

/// Payload bytes of an `END` frame: two little-endian `u64` words.
pub const END_LEN: usize = 16;

/// Append an `END` payload carrying `words`.
fn encode_end(words: [u64; 2], buf: &mut Vec<u8>) {
    words[0].encode(buf);
    words[1].encode(buf);
}

/// Fold `peer`'s `END` payload into `acc`: lane 0 OR-ed, lane 1 summed.
/// Anything but exactly [`END_LEN`] bytes is a protocol violation.
fn fold_end(acc: &mut [u64; 2], payload: &[u8], peer: usize) -> Result<(), TransportError> {
    if payload.len() != END_LEN {
        return Err(TransportError::Protocol {
            peer,
            detail: format!("END carries {} bytes, expected {END_LEN}", payload.len()),
        });
    }
    let mut r = Reader::new(payload);
    acc[0] |= r.get::<u64>();
    acc[1] += r.get::<u64>();
    Ok(())
}

/// Kernel-level poll granularity of the blocking handshake calls.
/// Deadlines are enforced on top of this, so no operation can hang.
const POLL: Duration = Duration::from_millis(20);

/// Minimum capacity `recycle` always keeps on a receive buffer, so the
/// watermark trim never churns small steady-state buffers.
const READ_RETAIN_MIN: usize = 4096;

/// Capacity a buffer parked on the receive freelist may keep under the
/// decaying receive `watermark` (see `Endpoint::read_watermark`).
fn read_cap(watermark: usize) -> usize {
    (2 * watermark).max(READ_RETAIN_MIN)
}

/// Upper bound on a sane frame payload; anything larger is treated as a
/// protocol violation instead of an attempted allocation.
const MAX_FRAME: usize = 1 << 30;

/// Frame header size on the wire: tag byte + `u32` length prefix.
pub const FRAME_HEADER: u64 = 5;

/// Default ceiling on a sub-frame payload eligible for coalescing; larger
/// frames stream out on their own so one bulk transfer never delays the
/// control frames queued behind it by a directory copy.
pub const DEFAULT_COALESCE_LIMIT: usize = 16 << 10;

/// Bytes of one sub-frame directory entry (`tag:u8 len:u32`).
const BATCH_ENTRY: usize = 5;

/// Sanity cap on sub-frames per super-frame. With `DEFAULT_COALESCE_LIMIT`
/// payloads this keeps a super-frame far below [`MAX_FRAME`]; a directory
/// claiming more is a protocol violation, not an allocation attempt.
const MAX_BATCH_FRAMES: usize = 4096;

/// Capacity retained on a fully drained send-staging buffer, so one giant
/// superstep does not pin giant staging capacity for the mesh's lifetime
/// (the send-side sibling of the receive watermark).
const STAGE_RETAIN: usize = 256 << 10;

/// Tuning knobs of the TCP transport.
#[derive(Debug, Clone, Copy)]
pub struct TcpOptions {
    /// How long mesh setup may wait for peers to appear (covers workers
    /// that start late).
    pub connect_timeout: Duration,
    /// Deadline for any single exchange operation once the mesh is up.
    pub io_timeout: Duration,
    /// Largest payload eligible for coalescing into a super-frame.
    pub coalesce_limit: usize,
    /// Spin iterations an idle progress loop burns before
    /// sleeping in the readiness multiplexer. `None` picks the
    /// [`poll_spins`] heuristic (spin only when cores outnumber
    /// workers); `Some(0)` forces every idle wait straight to the
    /// kernel poll — the engine plumbs `Config::spin_budget` through
    /// here so one flag tunes both the barrier and the transport.
    pub spins: Option<u32>,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            connect_timeout: Duration::from_secs(10),
            io_timeout: Duration::from_secs(30),
            coalesce_limit: DEFAULT_COALESCE_LIMIT,
            spins: None,
        }
    }
}

/// Prepare a socket for the handshake: disable Nagle and install the
/// short kernel poll timeouts that [`read_frame_into`] / [`write_frame`]
/// rely on for deadline enforcement.
pub fn configure_stream(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL))?;
    stream.set_write_timeout(Some(POLL))?;
    Ok(())
}

/// The link rule: the link to a peer published at `addr` is a
/// shared-memory ring when the address is loopback (the peer is on this
/// host), and TCP otherwise. Rings and abstract socket names exist only
/// on Linux, so elsewhere every link is TCP.
pub fn is_local_link(addr: &SocketAddr) -> bool {
    cfg!(target_os = "linux") && addr.ip().is_loopback()
}

/// The abstract Unix socket name a mesh listener published at `addr`
/// also accepts on.
#[cfg(target_os = "linux")]
fn unix_name(addr: &SocketAddr) -> io::Result<UnixAddr> {
    use std::os::linux::net::SocketAddrExt;
    UnixAddr::from_abstract_name(format!("pcgraph-mesh-{addr}"))
}

#[cfg(not(target_os = "linux"))]
fn unix_name(_: &SocketAddr) -> io::Result<UnixAddr> {
    Err(io::ErrorKind::Unsupported.into())
}

/// Bytes of each direction's ring on a same-host link. Both rings of a
/// link become resident in both processes, so every same-host peer costs
/// a rank about twice this much memory; a larger ring only lets a bulk
/// `DATA` frame run further ahead of its reader.
const RING_CAPACITY: usize = 128 << 10;

/// The control page at the start of a ring mapping, ahead of the two
/// rings' bytes: each ring's `head` and `tail` and each side's `parked`
/// word, every word on a 128-byte line of its own.
const RING_CTRL: usize = 4096;

/// Offset of ring `r`'s `head`: the bytes its producer has published.
const fn ring_head(r: usize) -> usize {
    r * 256
}

/// Offset of ring `r`'s `tail`: the bytes its consumer has taken.
const fn ring_tail(r: usize) -> usize {
    r * 256 + 128
}

/// Offset of side `s`'s `parked` word: what it sleeps waiting for.
const fn ring_parked(s: usize) -> usize {
    512 + s * 128
}

/// `parked` bit: the side sleeps until bytes arrive in its in-ring.
const WANT_DATA: u64 = 1;
/// `parked` bit: the side sleeps until its out-ring has room.
const WANT_SPACE: u64 = 2;

/// The seals a ring's memfd must carry: its size can never change, so
/// neither side's mapping can ever reach past the end of the file.
const RING_SEALS: i32 = poll::SEAL_SHRINK | poll::SEAL_GROW | poll::SEAL_SEAL;

/// Bytes of the shared mapping behind a link with `cap`-byte rings.
const fn ring_map_len(cap: usize) -> usize {
    RING_CTRL + 2 * cap
}

/// The `InvalidData` error a ring index the peer wrote earns; the
/// transport reports it as a [`TransportError::Protocol`].
fn bad_index(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// A same-host link: two single-producer/single-consumer byte rings in
/// one shared mapping, one per direction, beside the Unix socket that
/// carried the handshake and now carries only doorbells and the hang-up
/// (see *Link kinds* in the module docs). The dialer is side 0; side `s`
/// writes ring `s` and reads ring `1 - s`.
///
/// The peer can write any byte of the mapping, so every index read from
/// it is checked before a copy. This side's own indices are kept here and
/// never read back.
#[derive(Debug)]
struct RingLink {
    sock: UnixStream,
    map: poll::SharedMap,
    cap: usize,
    side: usize,
    /// Bytes this side has published into its out-ring (its `head`).
    sent: Cell<u64>,
    /// Bytes this side has taken from its in-ring (its `tail`).
    taken: Cell<u64>,
    /// The peer's `tail` on the out-ring, as last checked.
    peer_tail: Cell<u64>,
    /// The peer's `head` on the in-ring, as last checked.
    peer_head: Cell<u64>,
    /// The socket reached end-of-stream or failed: the peer is gone, and
    /// an empty in-ring now reads as end-of-stream.
    hung_up: Cell<bool>,
}

impl RingLink {
    fn new(sock: UnixStream, map: poll::SharedMap, cap: usize, side: usize) -> Self {
        // Every copy and index access below relies on these.
        assert!(side < 2 && cap > 0 && map.len() >= ring_map_len(cap));
        RingLink {
            sock,
            map,
            cap,
            side,
            sent: Cell::new(0),
            taken: Cell::new(0),
            peer_tail: Cell::new(0),
            peer_head: Cell::new(0),
            hung_up: Cell::new(false),
        }
    }

    /// The dialer's half: a fresh sealed memfd of `cap`-byte rings,
    /// mapped, and the memfd itself to pass in the `HELLO`.
    fn create(sock: UnixStream, cap: usize) -> io::Result<(Self, File)> {
        let len = ring_map_len(cap);
        let memfd = poll::memfd(len as u64, RING_SEALS)?;
        let map = poll::map_shared(&memfd, len)?;
        Ok((RingLink::new(sock, map, cap, 0), memfd))
    }

    /// The acceptor's half: map the memfd a `HELLO` passed, once it is
    /// sealed against resizing and exactly the size of a link's rings.
    fn adopt(sock: UnixStream, memfd: File) -> Result<Self, String> {
        let seals = poll::seals(&memfd).map_err(|e| format!("the ring is not a memfd: {e}"))?;
        if seals & RING_SEALS != RING_SEALS {
            return Err(format!(
                "the ring's memfd carries seals {seals:#x}, not shrink, grow and seal"
            ));
        }
        let len = ring_map_len(RING_CAPACITY);
        let size = memfd
            .metadata()
            .map_err(|e| format!("the ring's memfd: {e}"))?
            .len();
        if size != len as u64 {
            return Err(format!(
                "the ring's memfd holds {size} bytes, expected {len}"
            ));
        }
        let map = poll::map_shared(&memfd, len).map_err(|e| format!("map the ring: {e}"))?;
        Ok(RingLink::new(sock, map, RING_CAPACITY, 1))
    }

    /// The shared control word at `offset` of the control page.
    fn word(&self, offset: usize) -> &AtomicU64 {
        debug_assert!(offset < RING_CTRL && offset.is_multiple_of(8));
        // SAFETY: every offset passed here is one of `ring_head`,
        // `ring_tail` or `ring_parked` of a side or ring below 2 (`new`
        // checks `side`): 8-aligned and inside the mapping's control page
        // (the mapping is page-aligned and at least `ring_map_len` long),
        // which lives as long as `self`. Both processes touch the word
        // only atomically.
        unsafe { &*(self.map.as_ptr().add(offset) as *const AtomicU64) }
    }

    /// Byte `at` (a stream position) of ring `r`: its offset in the
    /// mapping, and the bytes up to the ring's end.
    fn slot(&self, r: usize, at: u64) -> (usize, usize) {
        let off = (at % self.cap as u64) as usize;
        (RING_CTRL + r * self.cap + off, self.cap - off)
    }

    /// Publish as much of `buf` as the out-ring has room for, then wake
    /// the peer if it sleeps waiting for bytes.
    fn write(&self, buf: &[u8]) -> io::Result<usize> {
        if self.hung_up.get() {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let r = self.side;
        let sent = self.sent.get();
        let tail = self.word(ring_tail(r)).load(Ordering::Acquire);
        if tail < self.peer_tail.get() || tail > sent {
            return Err(bad_index(format!(
                "ring tail {tail} outside {}..={sent}",
                self.peer_tail.get()
            )));
        }
        self.peer_tail.set(tail);
        let n = (self.cap - (sent - tail) as usize).min(buf.len());
        if n == 0 {
            return if buf.is_empty() {
                Ok(0)
            } else {
                Err(io::ErrorKind::WouldBlock.into())
            };
        }
        let (at, room) = self.slot(r, sent);
        let first = n.min(room);
        // SAFETY: `[sent, sent + n)` is free ring space (`tail` was
        // checked to lie within `cap` of `sent`), so both copies stay
        // inside ring `r`'s bytes of the live mapping, which the peer
        // does not read until `head` moves past them.
        unsafe {
            let ring = self.map.as_ptr();
            std::ptr::copy_nonoverlapping(buf.as_ptr(), ring.add(at), first);
            std::ptr::copy_nonoverlapping(
                buf.as_ptr().add(first),
                ring.add(RING_CTRL + r * self.cap),
                n - first,
            );
        }
        self.sent.set(sent + n as u64);
        self.word(ring_head(r))
            .store(sent + n as u64, Ordering::SeqCst);
        self.wake_peer(WANT_DATA);
        Ok(n)
    }

    /// Take as much of the in-ring as fits `buf`, then wake the peer if
    /// it sleeps waiting for room. An empty ring reads as end-of-stream
    /// once the peer hung up, else as `WouldBlock`.
    fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        let r = 1 - self.side;
        let taken = self.taken.get();
        let head = self.word(ring_head(r)).load(Ordering::Acquire);
        if head < self.peer_head.get() || head - taken > self.cap as u64 {
            return Err(bad_index(format!(
                "ring head {head} outside {}..={}",
                self.peer_head.get(),
                taken + self.cap as u64
            )));
        }
        self.peer_head.set(head);
        let n = ((head - taken) as usize).min(buf.len());
        if n == 0 {
            return if self.hung_up.get() || buf.is_empty() {
                Ok(0)
            } else {
                Err(io::ErrorKind::WouldBlock.into())
            };
        }
        let (at, room) = self.slot(r, taken);
        let first = n.min(room);
        // SAFETY: `[taken, taken + n)` lies below the checked `head`, so
        // both copies read inside ring `r`'s bytes of the live mapping,
        // which the peer does not rewrite until `tail` moves past them.
        unsafe {
            let ring = self.map.as_ptr();
            std::ptr::copy_nonoverlapping(ring.add(at), buf.as_mut_ptr(), first);
            std::ptr::copy_nonoverlapping(
                ring.add(RING_CTRL + r * self.cap),
                buf.as_mut_ptr().add(first),
                n - first,
            );
        }
        self.taken.set(taken + n as u64);
        self.word(ring_tail(r))
            .store(taken + n as u64, Ordering::SeqCst);
        self.wake_peer(WANT_SPACE);
        Ok(n)
    }

    /// The waker's half of the doorbell: the index store just made is
    /// `SeqCst`, so either the peer's re-check after setting `parked`
    /// sees it, or this load sees `parked` set — and then one byte on the
    /// socket wakes the peer's `poll`. A full socket buffer already holds
    /// a wake-up, and a gone peer is the hang-up's business.
    fn wake_peer(&self, why: u64) {
        let parked = self.word(ring_parked(1 - self.side));
        if parked.load(Ordering::SeqCst) & why != 0 && parked.swap(0, Ordering::SeqCst) != 0 {
            let _ = (&self.sock).write(&[1]);
        }
    }

    /// Whether what `want` names is here: bytes in the in-ring, or room
    /// the peer freed in the out-ring since the last write found it full.
    fn ready(&self, want: u64) -> bool {
        (want & WANT_DATA != 0
            && self.word(ring_head(1 - self.side)).load(Ordering::SeqCst) != self.taken.get())
            || (want & WANT_SPACE != 0
                && self.word(ring_tail(self.side)).load(Ordering::SeqCst) != self.peer_tail.get())
    }

    /// The sleeper's half of the doorbell: publish `want` in `parked`,
    /// then re-check the rings. `true` means do not sleep.
    fn park(&self, want: u64) -> bool {
        self.word(ring_parked(self.side))
            .store(want, Ordering::SeqCst);
        self.ready(want)
    }

    /// Clear `parked` after a wait. `Relaxed`: the word publishes no
    /// data, and a bell rung meanwhile is only a spurious wake-up.
    fn unpark(&self) {
        self.word(ring_parked(self.side))
            .store(0, Ordering::Relaxed);
    }

    /// Read away the doorbell bytes a wake-up left on the socket. Its end
    /// of stream, or any error, is the peer hanging up.
    fn drain_doorbell(&self) {
        let mut bells = [0u8; 64];
        loop {
            match (&self.sock).read(&mut bells) {
                Ok(0) => break self.hung_up.set(true),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break self.hung_up.set(true),
            }
        }
    }
}

/// One mesh link: a TCP stream to a peer on another host, a ring to one
/// on this host (see the module docs). Everything above it reads and
/// writes through `&Link`.
#[derive(Debug)]
enum Link {
    Tcp(TcpStream),
    Ring(RingLink),
}

impl Link {
    /// Dial the mesh listener published at `addr`, over the kind of link
    /// the address calls for. A ring comes with its memfd, which the
    /// `HELLO` passes ([`Link::hello`]).
    fn dial(addr: SocketAddr) -> io::Result<(Link, Option<File>)> {
        if !is_local_link(&addr) {
            return TcpStream::connect(addr).map(|s| (Link::Tcp(s), None));
        }
        let sock = UnixStream::connect_addr(&unix_name(&addr)?)?;
        let (ring, memfd) = RingLink::create(sock, RING_CAPACITY)?;
        Ok((Link::Ring(ring), Some(memfd)))
    }

    /// Prepare the link for the `HELLO` handshake: blocking, with the
    /// short kernel timeouts [`read_frame_into`] / [`write_frame`] rely
    /// on (and no Nagle on TCP).
    fn configure(&self) -> io::Result<()> {
        self.set_nonblocking(false)?;
        match self {
            Link::Tcp(s) => configure_stream(s),
            Link::Ring(r) => configure_local(&r.sock),
        }
    }

    /// Send the `HELLO` naming `rank`; a dialed ring's memfd rides it.
    fn hello(
        &self,
        rank: usize,
        memfd: Option<File>,
        deadline: Instant,
        peer: usize,
    ) -> Result<(), TransportError> {
        let payload = (rank as u32).to_le_bytes();
        match (self, memfd) {
            (Link::Ring(r), Some(memfd)) => {
                let mut frame = frame_header(TAG_HELLO, payload.len(), peer)?.to_vec();
                frame.extend_from_slice(&payload);
                send_hello(&r.sock, &frame, &memfd, deadline, peer)
            }
            (link, _) => write_frame(link, TAG_HELLO, &payload, deadline, peer),
        }
    }

    /// `set_nonblocking(true)` puts a handshaken link into progress mode
    /// for good. The driver never blocks in a socket call — every idle
    /// wait is one multiplexed [`poll(2)`](crate::poll) over the whole
    /// mesh (see [`Pump::poll_wait`]), so the socket's own mode never
    /// toggles again for the life of the link.
    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Link::Tcp(s) => s.set_nonblocking(on),
            Link::Ring(r) => r.sock.set_nonblocking(on),
        }
    }
}

impl Read for &Link {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Link::Tcp(s) => (&*s).read(buf),
            Link::Ring(r) => r.read(buf),
        }
    }
}

impl Write for &Link {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Link::Tcp(s) => (&*s).write(buf),
            Link::Ring(r) => r.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl AsRawFd for Link {
    /// The socket a readiness wait watches: the stream itself, or a
    /// ring's doorbell and hang-up socket.
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Link::Tcp(s) => s.as_raw_fd(),
            Link::Ring(r) => r.sock.as_raw_fd(),
        }
    }
}

/// Prepare a same-host link's socket for the handshake, like
/// [`configure_stream`].
fn configure_local(sock: &UnixStream) -> io::Result<()> {
    sock.set_read_timeout(Some(POLL))?;
    sock.set_write_timeout(Some(POLL))
}

/// The rank a `HELLO` frame names; any other frame is a protocol error.
fn hello_rank(tag: u8, payload: &[u8]) -> Result<usize, TransportError> {
    if tag != TAG_HELLO || payload.len() != 4 {
        return Err(TransportError::Protocol {
            peer: usize::MAX,
            detail: format!(
                "expected HELLO, got tag {tag:#04x} ({} bytes)",
                payload.len()
            ),
        });
    }
    Ok(u32::from_le_bytes(payload.try_into().unwrap()) as usize)
}

/// Send a `HELLO` frame over a same-host link's socket with the ring's
/// memfd beside its first byte.
fn send_hello(
    sock: &UnixStream,
    frame: &[u8],
    memfd: &File,
    deadline: Instant,
    peer: usize,
) -> Result<(), TransportError> {
    loop {
        if Instant::now() >= deadline {
            return Err(TransportError::Timeout {
                peer,
                during: "send HELLO",
            });
        }
        match poll::send_with_fd(sock.as_raw_fd(), frame, memfd.as_raw_fd()) {
            Ok(n) => {
                return write_all_deadline(&mut &*sock, &frame[n..], deadline, peer, "send HELLO")
            }
            Err(e) if is_poll_expiry(&e) => {}
            Err(e) => return Err(io_err(peer, "send HELLO", e)),
        }
    }
}

/// Read a same-host dialer's `HELLO` and the ring memfd that rides it.
/// Returns the rank it names and the memfd, if one came.
fn recv_hello(
    sock: &UnixStream,
    deadline: Instant,
) -> Result<(usize, Option<File>), TransportError> {
    let mut frame = [0u8; FRAME_HEADER as usize + 4];
    let mut memfd = None;
    let mut got = 0;
    while got < frame.len() {
        if Instant::now() >= deadline {
            return Err(TransportError::Timeout {
                peer: usize::MAX,
                during: "read frame header",
            });
        }
        match poll::recv_with_fd(sock.as_raw_fd(), &mut frame[got..]) {
            Ok((0, _)) if got == 0 => {
                return Err(TransportError::Disconnected {
                    peer: usize::MAX,
                    during: "read frame header",
                })
            }
            Ok((0, _)) => {
                return Err(TransportError::Truncated {
                    peer: usize::MAX,
                    expected: frame.len(),
                    got,
                })
            }
            Ok((n, fd)) => {
                got += n;
                if let Some(fd) = fd {
                    if memfd.replace(File::from(fd)).is_some() {
                        return Err(TransportError::Protocol {
                            peer: usize::MAX,
                            detail: "HELLO passes two descriptors".to_string(),
                        });
                    }
                }
            }
            Err(e) if is_poll_expiry(&e) => {}
            Err(e) => return Err(io_err(usize::MAX, "read frame header", e)),
        }
    }
    let len = u32::from_le_bytes(frame[1..5].try_into().unwrap()) as usize;
    let payload = if len == 4 { &frame[5..] } else { &[] };
    Ok((hello_rank(frame[0], payload)?, memfd))
}

/// A connection a [`MeshListener`] accepted, before its `HELLO`.
#[derive(Debug)]
enum Accepted {
    Tcp(TcpStream),
    Local(UnixStream),
}

impl Accepted {
    /// Read the `HELLO` and make the link: the rank it names, and the
    /// link of the connection's kind. A same-host `HELLO` must pass a
    /// ring memfd the right size and sealed against resizing; anything
    /// else is a typed `Connect` error, never a mapping that could fault.
    fn hello(
        self,
        deadline: Instant,
        scratch: &mut Vec<u8>,
    ) -> Result<(usize, Link), TransportError> {
        match self {
            Accepted::Tcp(s) => {
                let link = Link::Tcp(s);
                link.configure()
                    .map_err(|e| io_err(usize::MAX, "configure stream", e))?;
                let tag = read_frame_into(&link, scratch, deadline, usize::MAX)?;
                Ok((hello_rank(tag, scratch)?, link))
            }
            Accepted::Local(sock) => {
                sock.set_nonblocking(false)
                    .and_then(|()| configure_local(&sock))
                    .map_err(|e| io_err(usize::MAX, "configure stream", e))?;
                let (peer, memfd) = recv_hello(&sock, deadline)?;
                let connect = |detail: String| TransportError::Connect { peer, detail };
                let memfd = memfd.ok_or_else(|| connect("HELLO passed no ring".to_string()))?;
                let ring = RingLink::adopt(sock, memfd).map_err(connect)?;
                Ok((peer, Link::Ring(ring)))
            }
        }
    }
}

/// A rank's mesh listener: the TCP listener whose address the rank
/// publishes and, when that address is loopback, the Unix listener bound
/// beside it under the address's abstract name (see the module docs).
/// The accept takes a link of either kind.
#[derive(Debug)]
pub struct MeshListener {
    /// Declared before `tcp`, so it is dropped first: the name is freed
    /// before the port it is derived from can be bound again.
    unix: Option<UnixListener>,
    tcp: TcpListener,
}

impl MeshListener {
    /// Bind a listener on an ephemeral port of `ip`, with its Unix name
    /// beside it when `ip` is loopback. A failure of either bind is a
    /// typed [`TransportError::Connect`] blaming `rank`; a failed Unix
    /// bind never falls back to TCP, since peers dial by the link rule.
    pub fn bind(ip: IpAddr, rank: usize) -> Result<Self, TransportError> {
        let tcp = TcpListener::bind((ip, 0)).map_err(|e| TransportError::Connect {
            peer: rank,
            detail: format!("bind data-plane listener on {ip}: {e}"),
        })?;
        let mut listener = MeshListener::from(tcp);
        listener.bind_local(rank)?;
        Ok(listener)
    }

    /// The published address: the TCP listener's.
    pub fn local_addr(&self) -> Result<SocketAddr, TransportError> {
        self.tcp.local_addr().map_err(|e| TransportError::Connect {
            peer: usize::MAX,
            detail: format!("data-plane local_addr: {e}"),
        })
    }

    /// Bind the Unix listener the link rule has same-host peers dial, if
    /// the address is loopback and it is not bound yet.
    fn bind_local(&mut self, rank: usize) -> Result<(), TransportError> {
        let addr = self.local_addr()?;
        if self.unix.is_some() || !is_local_link(&addr) {
            return Ok(());
        }
        let unix = unix_name(&addr)
            .and_then(|name| UnixListener::bind_addr(&name))
            .map_err(|e| TransportError::Connect {
                peer: rank,
                detail: format!("bind the Unix name of data-plane address {addr}: {e}"),
            })?;
        self.unix = Some(unix);
        Ok(())
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        self.tcp.set_nonblocking(true)?;
        match &self.unix {
            Some(unix) => unix.set_nonblocking(true),
            None => Ok(()),
        }
    }

    /// One non-blocking accept on each listener: the first connection
    /// either has pending, or `None`.
    fn accept(&self) -> io::Result<Option<Accepted>> {
        match self.tcp.accept() {
            Ok((s, _)) => return Ok(Some(Accepted::Tcp(s))),
            Err(e) if !is_poll_expiry(&e) => return Err(e),
            Err(_) => {}
        }
        let Some(unix) = &self.unix else {
            return Ok(None);
        };
        match unix.accept() {
            Ok((s, _)) => Ok(Some(Accepted::Local(s))),
            Err(e) if is_poll_expiry(&e) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// A listener without its Unix name yet: [`Tcp::mesh`] binds the name
/// when the address is loopback. Prefer [`MeshListener::bind`], which
/// binds it before the address can be published.
impl From<TcpListener> for MeshListener {
    fn from(tcp: TcpListener) -> Self {
        MeshListener { unix: None, tcp }
    }
}

/// Type an I/O failure. A peer that died with our bytes unread resets the
/// connection instead of closing it: that is a disconnect too. A ring
/// index out of bounds (`InvalidData`) is the peer breaking the protocol.
fn io_err(peer: usize, during: &'static str, e: std::io::Error) -> TransportError {
    use std::io::ErrorKind::{BrokenPipe, ConnectionAborted, ConnectionReset, InvalidData};
    match e.kind() {
        BrokenPipe | ConnectionAborted | ConnectionReset => {
            TransportError::Disconnected { peer, during }
        }
        InvalidData => TransportError::Protocol {
            peer,
            detail: format!("{during}: {e}"),
        },
        kind => TransportError::Io { peer, kind, during },
    }
}

fn is_poll_expiry(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ) || e.kind() == std::io::ErrorKind::Interrupted
}

/// `read_exact` with a deadline: tolerates arbitrarily split reads,
/// returns [`TransportError::Truncated`] on EOF mid-buffer and
/// [`TransportError::Timeout`] past the deadline — never hangs.
fn read_exact_deadline(
    stream: &mut impl Read,
    out: &mut [u8],
    deadline: Instant,
    peer: usize,
    during: &'static str,
) -> Result<(), TransportError> {
    let mut got = 0;
    while got < out.len() {
        if Instant::now() >= deadline {
            return Err(TransportError::Timeout { peer, during });
        }
        match stream.read(&mut out[got..]) {
            Ok(0) => {
                return Err(TransportError::Truncated {
                    peer,
                    expected: out.len(),
                    got,
                })
            }
            Ok(n) => got += n,
            Err(e) if is_poll_expiry(&e) => continue,
            Err(e) => return Err(io_err(peer, during, e)),
        }
    }
    Ok(())
}

/// `write_all` with a deadline; never hangs.
fn write_all_deadline(
    stream: &mut impl Write,
    data: &[u8],
    deadline: Instant,
    peer: usize,
    during: &'static str,
) -> Result<(), TransportError> {
    let mut sent = 0;
    while sent < data.len() {
        if Instant::now() >= deadline {
            return Err(TransportError::Timeout { peer, during });
        }
        match stream.write(&data[sent..]) {
            Ok(0) => {
                return Err(TransportError::Disconnected { peer, during });
            }
            Ok(n) => sent += n,
            Err(e) if is_poll_expiry(&e) => continue,
            Err(e) => return Err(io_err(peer, during, e)),
        }
    }
    Ok(())
}

/// Build the header of a `len`-byte frame, rejecting payloads the
/// receiver would refuse — the error belongs at the *send* site, and a
/// length past `u32` must never silently truncate the prefix and desync
/// the wire.
fn frame_header(
    tag: u8,
    len: usize,
    peer: usize,
) -> Result<[u8; FRAME_HEADER as usize], TransportError> {
    if len > MAX_FRAME {
        return Err(TransportError::Protocol {
            peer,
            detail: format!("outgoing frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        });
    }
    let mut header = [0u8; FRAME_HEADER as usize];
    header[0] = tag;
    header[1..5].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(header)
}

/// Write one `tag + len + payload` frame. The stream must have been set
/// up with [`configure_stream`] (a mesh link with its own equivalent);
/// the deadline bounds the whole write.
pub fn write_frame(
    stream: impl Write,
    tag: u8,
    payload: &[u8],
    deadline: Instant,
    peer: usize,
) -> Result<(), TransportError> {
    write_frame_parts(stream, tag, &[payload], deadline, peer)
}

/// [`write_frame`] of a payload given as consecutive parts: the frame's
/// length is their sum and its bytes are theirs in order, streamed
/// straight from the borrowed slices — a caller with large buffers to
/// frame never assembles them into one.
pub fn write_frame_parts<P: AsRef<[u8]>>(
    mut stream: impl Write,
    tag: u8,
    parts: &[P],
    deadline: Instant,
    peer: usize,
) -> Result<(), TransportError> {
    let len = parts.iter().map(|p| p.as_ref().len()).sum();
    let header = frame_header(tag, len, peer)?;
    write_all_deadline(&mut stream, &header, deadline, peer, "write frame header")?;
    for part in parts {
        write_all_deadline(
            &mut stream,
            part.as_ref(),
            deadline,
            peer,
            "write frame payload",
        )?;
    }
    Ok(())
}

/// Read one frame into `payload` (cleared and resized), returning the
/// tag. Handles short and split reads; a peer that closes mid-frame
/// yields [`TransportError::Truncated`] / `Disconnected`, a deadline
/// expiry yields [`TransportError::Timeout`] — this call cannot hang.
pub fn read_frame_into(
    mut stream: impl Read,
    payload: &mut Vec<u8>,
    deadline: Instant,
    peer: usize,
) -> Result<u8, TransportError> {
    let mut header = [0u8; FRAME_HEADER as usize];
    read_exact_deadline(
        &mut stream,
        &mut header,
        deadline,
        peer,
        "read frame header",
    )
    .map_err(|e| {
        // EOF on a frame boundary is a disconnect, not a truncation.
        match e {
            TransportError::Truncated { peer, got: 0, .. } => TransportError::Disconnected {
                peer,
                during: "read frame header",
            },
            other => other,
        }
    })?;
    let tag = header[0];
    let len = u32::from_le_bytes(header[1..5].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(TransportError::Protocol {
            peer,
            detail: format!("frame length {len} exceeds the {MAX_FRAME}-byte limit"),
        });
    }
    payload.clear();
    payload.resize(len, 0);
    read_exact_deadline(&mut stream, payload, deadline, peer, "read frame payload")?;
    Ok(tag)
}

/// Encode logical `(tag, payload)` frames into the payload of one `BATCH`
/// super-frame: `count:u32`, a `tag:u8 len:u32` directory entry per
/// sub-frame, then the concatenated payloads. The inverse of
/// [`decode_batch`]; the round trip is byte-exact (pinned by a proptest in
/// `tests/transport_conformance.rs`).
pub fn encode_batch(frames: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        4 + frames.len() * BATCH_ENTRY + frames.iter().map(|(_, p)| p.len()).sum::<usize>(),
    );
    encode_batch_into(&mut out, frames.iter().map(|(t, p)| (*t, p.as_slice())));
    out
}

/// [`encode_batch`] appending into a caller-owned buffer (the driver
/// stages directly into its per-peer wire buffer). The iterator is
/// walked twice: once for the directory, once for the payloads.
fn encode_batch_into<'a>(out: &mut Vec<u8>, frames: impl Iterator<Item = (u8, &'a [u8])> + Clone) {
    let count = frames.clone().count();
    debug_assert!((1..=MAX_BATCH_FRAMES).contains(&count));
    (count as u32).encode(out);
    for (tag, payload) in frames.clone() {
        out.push(tag);
        (payload.len() as u32).encode(out);
    }
    for (_, payload) in frames {
        out.extend_from_slice(payload);
    }
}

/// Split a `BATCH` payload back into its logical `(tag, payload)` frames.
/// Every malformation — empty batch, oversized count, directory past the
/// payload, payload bytes left over or missing, a nested batch — is a
/// typed [`TransportError::Protocol`], never a bad allocation or a panic.
pub fn decode_batch(payload: &[u8], peer: usize) -> Result<Vec<(u8, Vec<u8>)>, TransportError> {
    let mut frames = Vec::new();
    let mut pool = Vec::new();
    split_batch_into(payload, peer, &mut pool, |tag, buf| frames.push((tag, buf)))?;
    Ok(frames)
}

/// The zero-copy-pooled core of [`decode_batch`]: validate the directory
/// and hand each sub-frame to `sink` in order, pulling payload buffers
/// from `read_pool`.
fn split_batch_into(
    payload: &[u8],
    peer: usize,
    read_pool: &mut Vec<Vec<u8>>,
    mut sink: impl FnMut(u8, Vec<u8>),
) -> Result<(), TransportError> {
    let malformed = |detail: String| TransportError::Protocol { peer, detail };
    if payload.len() < 4 {
        return Err(malformed(format!(
            "super-frame of {} bytes cannot hold a directory",
            payload.len()
        )));
    }
    let count = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
    if count == 0 || count > MAX_BATCH_FRAMES {
        return Err(malformed(format!(
            "super-frame claims {count} sub-frames (valid: 1..={MAX_BATCH_FRAMES})"
        )));
    }
    let dir_end = 4 + count * BATCH_ENTRY;
    if dir_end > payload.len() {
        return Err(malformed(format!(
            "sub-frame directory ({count} entries) overruns the {}-byte super-frame",
            payload.len()
        )));
    }
    let mut at = dir_end;
    for i in 0..count {
        let entry = &payload[4 + i * BATCH_ENTRY..4 + (i + 1) * BATCH_ENTRY];
        let tag = entry[0];
        if tag == TAG_BATCH {
            return Err(malformed("nested super-frame".to_string()));
        }
        let len = u32::from_le_bytes(entry[1..5].try_into().unwrap()) as usize;
        let end = at.checked_add(len).filter(|&e| e <= payload.len());
        let Some(end) = end else {
            return Err(malformed(format!(
                "sub-frame {i} ({len} bytes) overruns the {}-byte super-frame",
                payload.len()
            )));
        };
        let mut buf = read_pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(&payload[at..end]);
        sink(tag, buf);
        at = end;
    }
    if at != payload.len() {
        return Err(malformed(format!(
            "{} trailing bytes after the last sub-frame",
            payload.len() - at
        )));
    }
    Ok(())
}

/// Where a queued frame's payload `Vec` goes once its bytes are staged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Return {
    /// An engine-posted exchange buffer: park it on `send_returns` so
    /// `reclaim_into` hands it back to the engine's [`BufferPool`].
    Engine,
    /// A transport-internal control payload (an `END`): recycle it
    /// through the receive freelist so steady-state rounds allocate
    /// nothing.
    Pool,
}

/// One frame waiting in a peer's send queue.
#[derive(Debug)]
struct QueuedFrame {
    tag: u8,
    payload: Vec<u8>,
    ret: Return,
    /// Held for coalescing: a small `DATA` waits here until the round's
    /// `END` (any un-held frame) queues behind it, so the two go out as
    /// one super-frame.
    held: bool,
}

/// Per-peer outgoing state: frames not yet encoded, plus the staged wire
/// bytes currently being pushed into the kernel.
#[derive(Debug, Default)]
struct SendQueue {
    frames: VecDeque<QueuedFrame>,
    /// Encoded wire bytes; `staged[cursor..]` is still owed to the kernel.
    staged: Vec<u8>,
    cursor: usize,
}

impl SendQueue {
    fn staged_pending(&self) -> usize {
        self.staged.len() - self.cursor
    }

    /// Nothing queued and nothing in flight.
    fn is_idle(&self) -> bool {
        self.frames.is_empty() && self.staged_pending() == 0
    }

    fn unhold(&mut self) {
        for f in &mut self.frames {
            f.held = false;
        }
    }

    /// Frames ready to stage: the un-held prefix (held frames are only
    /// ever queued before the un-held frame that releases them, so the
    /// queue is always an un-held prefix followed by a held suffix).
    fn ready(&self) -> usize {
        self.frames.iter().take_while(|f| !f.held).count()
    }
}

/// Queue a completed frame on `early`, splitting super-frames into their
/// logical sub-frames so everything downstream of the drain sees only
/// plain frames.
fn complete_frame(
    tag: u8,
    mut buf: Vec<u8>,
    early: &mut VecDeque<(u8, Vec<u8>)>,
    read_pool: &mut Vec<Vec<u8>>,
    peer: usize,
) -> Result<(), TransportError> {
    if tag == TAG_BATCH {
        split_batch_into(&buf, peer, read_pool, |t, b| early.push_back((t, b)))?;
        buf.clear();
        read_pool.push(buf);
    } else {
        early.push_back((tag, buf));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The progress engine
// ---------------------------------------------------------------------
//
// Every operation of the driver reduces to the same readiness
// loop: stage queued frames into per-peer wire buffers (coalescing small
// runs into super-frames), push whatever each link (a socket or a ring)
// will take, drain whatever it has, and consume completed frames from the
// `early` queues — resuming partial writes and reads from per-peer
// cursors. The loop never blocks in a socket call; when a full pass moves
// nothing it spins briefly (cores to spare), yields, and then sleeps in
// ONE multiplexed `poll(2)` over every mesh link — `POLLIN` interest on
// each peer still able to send (a ring's doorbell socket), `POLLOUT` on
// each TCP link with staged bytes the kernel refused — waking the instant
// any link can make progress, under the operation's deadline.
//
// Because the drain reads greedily, it can observe a peer's orderly
// close *after* that peer's last frame was already delivered. A clean end-of-stream therefore only marks the peer closed; it
// becomes a typed `Disconnected` error at the consumer, if and when a
// frame is still owed from that peer.

/// Cap on one multiplexed readiness wait. Readiness itself wakes the
/// poll immediately; the cap only bounds how long a deadline check or a
/// closed-peer re-examination can be deferred when *nothing* happens (or
/// how late a lost ring doorbell would be: see `Endpoint::late_wakeups`).
const POLL_WAIT_CAP: Duration = Duration::from_millis(20);

/// Scheduler handoffs an idle progress loop offers before it sleeps in
/// the readiness multiplexer. On an oversubscribed mesh the bytes a
/// consumer is owed are usually one context switch away — the producer
/// thread is runnable, just not running — so `yield_now` hands it the
/// core and the next pump finds the frames without any kernel sleep,
/// its wake-up latency, or a pollfd-set build. Only when repeated
/// handoffs surface nothing (every runnable peer is itself waiting) is
/// parking the thread in [`poll(2)`](crate::poll) the right call.
const YIELD_BUDGET: u32 = 32;

/// Spin iterations before an idle progress loop falls back to the
/// multiplexed kernel wait — only when cores outnumber workers; with no
/// core to spare the loop must hand the CPU to the thread that holds
/// progress immediately (polling there starves the producer, exactly
/// like the [`crate::exchange::SpinBarrier`] heuristic). This decides
/// the spin rung of the idle ladder and nothing else.
fn poll_spins(workers: usize) -> u32 {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    if cores > workers {
        256
    } else {
        0
    }
}

/// Encode `q`'s ready frames into its wire-staging buffer (no-op while
/// staged bytes are still in flight). Runs of ≥ 2 coalescible frames
/// become one `BATCH` super-frame; everything else is framed plainly, in
/// queue order either way. Staged payload `Vec`s go home immediately —
/// engine buffers to `send_returns`, control payloads to the freelist.
fn stage_queue(
    q: &mut SendQueue,
    coalesce_limit: usize,
    send_returns: &mut Vec<Vec<u8>>,
    read_pool: &mut Vec<Vec<u8>>,
    stats: &mut TransportStats,
    peer: usize,
) -> Result<(), TransportError> {
    if q.staged_pending() > 0 {
        return Ok(());
    }
    let ready = q.ready();
    if ready == 0 {
        return Ok(());
    }
    q.staged.clear();
    q.cursor = 0;
    let mut staged = 0;
    while staged < ready {
        let run = q
            .frames
            .iter()
            .skip(staged)
            .take((ready - staged).min(MAX_BATCH_FRAMES))
            .take_while(|f| f.payload.len() <= coalesce_limit)
            .count();
        if run >= 2 {
            let sub = q.frames.iter().skip(staged).take(run);
            let body = 4 + run * BATCH_ENTRY + sub.clone().map(|f| f.payload.len()).sum::<usize>();
            let header = frame_header(TAG_BATCH, body, peer)?;
            q.staged.extend_from_slice(&header);
            encode_batch_into(&mut q.staged, sub.map(|f| (f.tag, f.payload.as_slice())));
            stats.frames += 1;
            stats.coalesced_frames += run as u64;
            stats.wire_bytes += FRAME_HEADER + body as u64;
            staged += run;
        } else {
            let f = &q.frames[staged];
            let header = frame_header(f.tag, f.payload.len(), peer)?;
            q.staged.extend_from_slice(&header);
            q.staged.extend_from_slice(&f.payload);
            stats.frames += 1;
            stats.wire_bytes += FRAME_HEADER + f.payload.len() as u64;
            staged += 1;
        }
    }
    for _ in 0..staged {
        let f = q.frames.pop_front().expect("staged frame count");
        match f.ret {
            Return::Engine => send_returns.push(f.payload),
            Return::Pool => {
                let mut p = f.payload;
                p.clear();
                read_pool.push(p);
            }
        }
    }
    Ok(())
}

/// The driver's per-operation view of one endpoint: every field
/// is a disjoint mutable borrow of the locked [`Endpoint`], so the
/// progress methods compose without fighting the borrow checker.
struct Pump<'a> {
    worker: usize,
    coalesce_limit: usize,
    /// Spin iterations before idle loops sleep in the readiness
    /// multiplexer (0 without a spare core; see [`poll_spins`]).
    spins: u32,
    links: &'a [Option<Link>],
    send: &'a mut [SendQueue],
    recv: &'a mut [RecvBuf],
    large: &'a mut [Option<LargeFrame>],
    early: &'a mut [VecDeque<(u8, Vec<u8>)>],
    read_pool: &'a mut Vec<Vec<u8>>,
    send_returns: &'a mut Vec<Vec<u8>>,
    closed: &'a mut [bool],
    /// Reused pollfd set of [`Pump::poll_wait`] (one entry per live
    /// link with interest, rebuilt before every kernel wait).
    pollfds: &'a mut Vec<PollFd>,
    /// Waits that expired at [`POLL_WAIT_CAP`] although a ring already
    /// held what they slept on: each is a lost doorbell.
    late_wakeups: &'a mut u64,
    stats: &'a mut TransportStats,
}

impl Pump<'_> {
    /// Append one frame to `to`'s send queue. An un-held frame releases
    /// every hold queued before it (that is how the round's `END` pulls
    /// the held `DATA` into its super-frame).
    fn enqueue(&mut self, to: usize, tag: u8, payload: Vec<u8>, ret: Return, held: bool) {
        let q = &mut self.send[to];
        if !held {
            q.unhold();
        }
        q.frames.push_back(QueuedFrame {
            tag,
            payload,
            ret,
            held,
        });
    }

    /// A cleared scratch buffer from the freelist.
    fn pool_buf(&mut self) -> Vec<u8> {
        let mut buf = self.read_pool.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Return a consumed control payload to the freelist.
    fn recycle(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        self.read_pool.push(buf);
    }

    /// True when some queue still holds bytes or frames to push.
    fn has_send_work(&self) -> bool {
        self.send
            .iter()
            .any(|q| q.staged_pending() > 0 || q.ready() > 0)
    }

    /// True once every frame queued to any peer is on the wire.
    fn sends_done(&self) -> bool {
        self.send.iter().all(SendQueue::is_idle)
    }

    /// One non-blocking pass over every mesh link: push staged send
    /// bytes, re-stage as queues drain, and (when `drain_reads`) drain
    /// inbound bytes into the `early` queues — super-frames split back
    /// into their sub-frames. Returns the bytes moved in either
    /// direction — 0 means the kernel had nothing for us and took
    /// nothing from us. `post`/`sync` pump with `drain_reads = false`:
    /// they only need the sends pipelined, and skipping the speculative
    /// empty reads keeps the hot path's syscall count down.
    fn pump(&mut self, drain_reads: bool) -> Result<usize, TransportError> {
        let mut moved = 0;
        for (p, link) in self.links.iter().enumerate() {
            if p == self.worker {
                continue;
            }
            let Some(stream) = link else { continue };
            let q = &mut self.send[p];
            stage_queue(
                q,
                self.coalesce_limit,
                self.send_returns,
                self.read_pool,
                self.stats,
                p,
            )?;
            let mut stream_ref = stream;
            while q.staged_pending() > 0 {
                match stream_ref.write(&q.staged[q.cursor..]) {
                    Ok(0) => {
                        return Err(TransportError::Disconnected {
                            peer: p,
                            during: "write queued frames",
                        })
                    }
                    Ok(n) => {
                        q.cursor += n;
                        moved += n;
                        if q.staged_pending() == 0 {
                            q.staged.clear();
                            q.cursor = 0;
                            if q.staged.capacity() > STAGE_RETAIN {
                                q.staged.shrink_to(STAGE_RETAIN);
                            }
                            stage_queue(
                                q,
                                self.coalesce_limit,
                                self.send_returns,
                                self.read_pool,
                                self.stats,
                                p,
                            )?;
                            if q.is_idle() {
                                self.stats.flushes += 1;
                            }
                        }
                    }
                    Err(e) if is_poll_expiry(&e) => break,
                    Err(e) => return Err(io_err(p, "write queued frames", e)),
                }
            }
            if drain_reads && !self.closed[p] {
                match drain_link_nonblocking(
                    stream,
                    &mut self.recv[p],
                    &mut self.large[p],
                    &mut self.early[p],
                    self.read_pool,
                    p,
                ) {
                    Ok((n, eof)) => {
                        moved += n;
                        if eof {
                            self.closed[p] = true;
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(moved)
    }

    /// One idle step of a progress loop that made no progress: surface a
    /// peer that closed while still owing a frame, enforce the deadline
    /// (blaming the first peer still owed something, else the first one
    /// this worker still owes bytes), then back off in
    /// three escalating phases — a brief spin when cores are spare, a
    /// bounded run of scheduler handoffs ([`YIELD_BUDGET`]), and finally
    /// one multiplexed kernel sleep over every mesh link
    /// ([`Pump::poll_wait`]), so the thread wakes the instant *any*
    /// link can make progress instead of blocking toward one peer while
    /// bytes arrive from another. `idle_rounds` counts the loop's
    /// consecutive idle steps; the loop resets it to 0 on progress.
    fn idle(
        &mut self,
        idle_rounds: &mut u32,
        deadline: Instant,
        owed: &[bool],
        during: &'static str,
    ) -> Result<(), TransportError> {
        for (p, &is_owed) in owed.iter().enumerate() {
            if is_owed && self.closed[p] && self.early[p].is_empty() {
                return Err(TransportError::Disconnected { peer: p, during });
            }
        }
        if Instant::now() >= deadline {
            let peer = owed
                .iter()
                .position(|&o| o)
                .or_else(|| self.send.iter().position(|q| !q.is_idle()))
                .unwrap_or(usize::MAX);
            return Err(TransportError::Timeout { peer, during });
        }
        *idle_rounds += 1;
        if *idle_rounds <= self.spins {
            // Cores to spare: poll everything and spin — lowest latency.
            self.pump(true)?;
            std::hint::spin_loop();
            return Ok(());
        }
        if *idle_rounds <= self.spins.saturating_add(YIELD_BUDGET) {
            // Offer the core to a runnable peer, then pump to pick up
            // whatever the handoff produced (the consumer loops above
            // only re-pump when they have send work of their own).
            std::thread::yield_now();
            self.pump(true)?;
            return Ok(());
        }
        self.poll_wait(deadline)
    }

    /// What a ring link to `p` waits for while this side sleeps: bytes
    /// while the peer is live, room while staged bytes wait for it.
    fn ring_want(&self, p: usize) -> u64 {
        let data = if self.closed[p] { 0 } else { WANT_DATA };
        let space = if self.send[p].staged_pending() > 0 {
            WANT_SPACE
        } else {
            0
        };
        data | space
    }

    /// The ring links of the mesh, with their peers.
    fn rings(&self) -> impl Iterator<Item = (usize, &RingLink)> + '_ {
        self.links
            .iter()
            .enumerate()
            .filter_map(|(p, link)| match link {
                Some(Link::Ring(r)) => Some((p, r)),
                _ => None,
            })
    }

    /// One multiplexed readiness wait over the whole mesh: build a
    /// pollfd set with `POLLIN` interest on every live (not yet closed)
    /// link and `POLLOUT` interest on every TCP link whose staged bytes
    /// the kernel refused, sleep in a single [`poll(2)`](crate::poll)
    /// until something is ready (capped by the remaining deadline and
    /// [`POLL_WAIT_CAP`]), then run one full progress pass over the
    /// wake-up.
    ///
    /// A ring link is watched through its socket, which a peer's
    /// doorbell makes readable: before the wait this side sets its
    /// `parked` word on every ring link it waits on and re-checks the
    /// rings, and a ring already holding what it waits for skips the
    /// sleep. After the wait the words are cleared and the doorbell
    /// bytes read away.
    ///
    /// Accounting: the wait is charged to `send_stall_us` when unsent
    /// bytes were among what we waited on, to `recv_stall_us` when the
    /// wait was purely for inbound frames; every kernel wait counts one
    /// `poll_waits`, and a wake-up whose progress pass moved zero bytes
    /// counts one `wakeups_spurious`.
    fn poll_wait(&mut self, deadline: Instant) -> Result<(), TransportError> {
        self.pollfds.clear();
        let mut want_out = false;
        let mut ring_ready = false;
        for (p, link) in self.links.iter().enumerate() {
            if p == self.worker {
                continue;
            }
            let Some(link) = link else { continue };
            let mut events = 0i16;
            if !self.closed[p] {
                events |= poll::POLLIN;
            }
            if self.send[p].staged_pending() > 0 {
                want_out = true;
                if let Link::Tcp(_) = link {
                    events |= poll::POLLOUT;
                }
            }
            if let Link::Ring(ring) = link {
                ring_ready |= ring.park(self.ring_want(p));
            }
            if events != 0 {
                self.pollfds.push(PollFd::new(link.as_raw_fd(), events));
            }
        }
        if ring_ready || self.pollfds.is_empty() {
            self.rings().for_each(|(_, ring)| ring.unpark());
            if ring_ready {
                self.pump(true)?;
            } else {
                // Every peer closed and nothing queued: no readiness will
                // ever arrive; yield so the consumer loop re-examines the
                // world (and errors out on whatever it is still owed).
                std::thread::yield_now();
            }
            return Ok(());
        }
        let timeout = deadline
            .saturating_duration_since(Instant::now())
            .min(POLL_WAIT_CAP);
        let before = Instant::now();
        let ready = poll::poll(self.pollfds, timeout)
            .map_err(|e| io_err(usize::MAX, "poll mesh readiness", e));
        let waited = before.elapsed().as_micros() as u64;
        for (_, ring) in self.rings() {
            ring.unpark();
            let fd = ring.sock.as_raw_fd();
            if self.pollfds.iter().any(|f| f.fd() == fd && f.readable()) {
                ring.drain_doorbell();
            }
        }
        let ready = ready?;
        // Feed the tracing probe, if the driving worker installed one on
        // this thread; one thread-local check otherwise — negligible
        // next to the kernel wait that just happened.
        crate::trace::note_poll_wait(before, waited);
        self.stats.poll_waits += 1;
        if want_out {
            self.stats.send_stall_us += waited;
        } else {
            self.stats.recv_stall_us += waited;
        }
        if ready == 0 {
            // The wait slice expired; the caller re-checks. A ring that
            // holds what this side slept on lost its doorbell.
            if timeout == POLL_WAIT_CAP && self.rings().any(|(p, r)| r.ready(self.ring_want(p))) {
                *self.late_wakeups += 1;
            }
            return Ok(());
        }
        // Something is ready: one full progress pass picks it up —
        // whichever links woke us, and anything else that became ready
        // meanwhile. A wake-up that moves nothing (e.g. a peer's orderly
        // close, or a doorbell rung after this side had already found its
        // bytes) is recorded as spurious rather than hiding in the next
        // wait.
        let moved = self.pump(true)?;
        if moved == 0 {
            self.stats.wakeups_spurious += 1;
        }
        Ok(())
    }

    /// Drive the pump until every send queue is empty and on the wire
    /// ([`Tcp::try_flush`]).
    fn drive_empty(
        &mut self,
        deadline: Instant,
        during: &'static str,
    ) -> Result<(), TransportError> {
        let mut idle_rounds = 0;
        let no_owed: &[bool] = &[];
        while !self.sends_done() {
            let moved = self.pump(true)?;
            if moved > 0 {
                idle_rounds = 0;
                continue;
            }
            self.idle(&mut idle_rounds, deadline, no_owed, during)?;
        }
        Ok(())
    }
}

/// Writable chunk kept free at the tail of a receive staging buffer: one
/// `read` syscall can pull this much, which on small-frame rounds means
/// several complete frames per syscall.
const RECV_CHUNK: usize = 32 << 10;

/// Frames with payloads beyond this bypass staging: the remainder is
/// read straight into the frame's own buffer, so bulk transfers pay no
/// staging copy.
const RECV_DIRECT: usize = 16 << 10;

/// Per-peer buffered receive state. `buf[start..end]` holds bytes not
/// yet parsed into frames.
#[derive(Debug, Default)]
struct RecvBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl RecvBuf {
    fn pending(&self) -> usize {
        self.end - self.start
    }
}

/// A frame whose payload outgrew the staging buffer ([`RECV_DIRECT`]):
/// its remainder reads directly into `buf`.
#[derive(Debug)]
struct LargeFrame {
    tag: u8,
    buf: Vec<u8>,
    got: usize,
}

/// One buffered read attempt from `peer`: a single
/// `read` syscall typically delivers several complete frames, each of
/// which — super-frames split into their sub-frames — lands on `early`.
/// Returns `(bytes, clean_eof)`; a clean end-of-stream is not an error
/// until someone is still owed a frame from this peer.
fn recv_step(
    mut stream: &Link,
    rb: &mut RecvBuf,
    large: &mut Option<LargeFrame>,
    early: &mut VecDeque<(u8, Vec<u8>)>,
    read_pool: &mut Vec<Vec<u8>>,
    peer: usize,
) -> Result<(usize, bool), TransportError> {
    // Direct path: a large frame's remainder goes straight into its own
    // buffer — no staging copy, full-chunk reads.
    if let Some(lf) = large.as_mut() {
        let n = match stream.read(&mut lf.buf[lf.got..]) {
            Ok(0) => {
                return Err(TransportError::Truncated {
                    peer,
                    expected: lf.buf.len(),
                    got: lf.got,
                })
            }
            Ok(n) => n,
            Err(e) if is_poll_expiry(&e) => return Ok((0, false)),
            Err(e) => return Err(io_err(peer, "drain frame", e)),
        };
        lf.got += n;
        if lf.got == lf.buf.len() {
            let lf = large.take().unwrap();
            complete_frame(lf.tag, lf.buf, early, read_pool, peer)?;
        }
        return Ok((n, false));
    }
    // Make room: compact parsed-off bytes, keep a full chunk writable.
    if rb.start > 0 && (rb.buf.len() - rb.end < RECV_CHUNK) {
        rb.buf.copy_within(rb.start..rb.end, 0);
        rb.end -= rb.start;
        rb.start = 0;
    }
    if rb.buf.len() < rb.end + RECV_CHUNK {
        rb.buf.resize(rb.end + RECV_CHUNK, 0);
    }
    let n = match stream.read(&mut rb.buf[rb.end..]) {
        Ok(0) => {
            return if rb.pending() == 0 {
                Ok((0, true))
            } else {
                // Report what the in-flight frame still owed: its full
                // length once the header is staged, else the header.
                let expected = if rb.pending() >= FRAME_HEADER as usize {
                    let len =
                        u32::from_le_bytes(rb.buf[rb.start + 1..rb.start + 5].try_into().unwrap())
                            as usize;
                    FRAME_HEADER as usize + len
                } else {
                    FRAME_HEADER as usize
                };
                Err(TransportError::Truncated {
                    peer,
                    expected,
                    got: rb.pending(),
                })
            };
        }
        Ok(n) => n,
        Err(e) if is_poll_expiry(&e) => return Ok((0, false)),
        Err(e) => return Err(io_err(peer, "drain frame", e)),
    };
    rb.end += n;
    // Parse every complete frame out of the staged bytes.
    while rb.pending() >= FRAME_HEADER as usize {
        let at = rb.start;
        let tag = rb.buf[at];
        let len = u32::from_le_bytes(rb.buf[at + 1..at + 5].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Err(TransportError::Protocol {
                peer,
                detail: format!("frame length {len} exceeds the {MAX_FRAME}-byte limit"),
            });
        }
        let body = at + FRAME_HEADER as usize;
        if len > RECV_DIRECT {
            // Switch this frame to the direct path: take what is staged,
            // read the rest into the frame's own buffer.
            let have = (rb.end - body).min(len);
            let mut buf = read_pool.pop().unwrap_or_default();
            buf.clear();
            buf.resize(len, 0);
            buf[..have].copy_from_slice(&rb.buf[body..body + have]);
            rb.start = body + have;
            if have == len {
                complete_frame(tag, buf, early, read_pool, peer)?;
                continue;
            }
            *large = Some(LargeFrame {
                tag,
                buf,
                got: have,
            });
            break;
        }
        if rb.pending() < FRAME_HEADER as usize + len {
            break; // partial frame; the next read completes it
        }
        let mut buf = read_pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(&rb.buf[body..body + len]);
        rb.start = body + len;
        complete_frame(tag, buf, early, read_pool, peer)?;
    }
    if rb.start == rb.end {
        rb.start = 0;
        rb.end = 0;
        // One giant staged round must not pin staging capacity forever.
        if rb.buf.len() > 2 * RECV_CHUNK {
            rb.buf.truncate(RECV_CHUNK);
            rb.buf.shrink_to(RECV_CHUNK);
        }
    }
    Ok((n, false))
}

/// Drain everything currently available from one link: repeated [`recv_step`]s until the kernel has nothing more.
#[allow(clippy::too_many_arguments)]
fn drain_link_nonblocking(
    stream: &Link,
    rb: &mut RecvBuf,
    large: &mut Option<LargeFrame>,
    early: &mut VecDeque<(u8, Vec<u8>)>,
    read_pool: &mut Vec<Vec<u8>>,
    peer: usize,
) -> Result<(usize, bool), TransportError> {
    let mut consumed = 0;
    loop {
        let (n, eof) = recv_step(stream, rb, large, early, read_pool, peer)?;
        consumed += n;
        if eof {
            return Ok((consumed, true));
        }
        if n == 0 {
            return Ok((consumed, false));
        }
    }
}
/// Per-worker endpoint state. Each worker locks only its own endpoint, so
/// the mutexes are uncontended; they exist to make the shared [`Tcp`]
/// object `Sync`.
#[derive(Debug, Default)]
struct Endpoint {
    /// Link to each peer (`None` for self and until the mesh is up).
    links: Vec<Option<Link>>,
    /// Buffer posted to self this round (loop-back skips the wire).
    self_slot: Option<Vec<u8>>,
    /// Peers already posted to this round (double-post guard + SKIP set).
    posted: Vec<bool>,
    /// Private freelist of receive buffers, refilled by `recycle`.
    read_pool: Vec<Vec<u8>>,
    /// Decaying high-water mark of received frame sizes: bounds how much
    /// capacity `recycle` keeps on the receive freelist, so one giant
    /// superstep cannot pin giant receive buffers for the transport's
    /// lifetime (the receive-side sibling of `BufferPool::end_round`).
    read_watermark: usize,
    /// Per-peer frames drained off the socket, consumed in arrival order.
    early: Vec<VecDeque<(u8, Vec<u8>)>>,
    /// Per-peer send queues.
    send: Vec<SendQueue>,
    /// Per-peer buffered receive staging.
    recv: Vec<RecvBuf>,
    /// Per-peer direct-path large frames.
    large: Vec<Option<LargeFrame>>,
    /// Peers whose stream hit a clean end-of-stream during a drain; an
    /// error only once a frame is still owed from them.
    closed: Vec<bool>,
    /// Posted buffers awaiting `reclaim_into` (their bytes are already on
    /// the wire; the `Vec`s go home to the engine's pool).
    send_returns: Vec<Vec<u8>>,
    /// Reused pollfd scratch of the readiness multiplexer (see
    /// [`Pump::poll_wait`]).
    pollfds: Vec<PollFd>,
    /// Lost doorbells seen by the readiness multiplexer
    /// ([`Pump::poll_wait`]); 0 unless the wake-up protocol is broken.
    late_wakeups: u64,
    /// Per-peer "still owes this round a frame" scratch of
    /// `take_all_into`.
    owed: Vec<bool>,
    /// Per-peer "sent its `DATA` this round" scratch of `take_all_into`:
    /// a second `DATA` before the `END` is a violation.
    got_data: Vec<bool>,
    /// This worker's own round words, published by the last `sync`.
    words: [u64; 2],
    /// This worker's share of the wire counters.
    stats: TransportStats,
}

/// The endpoint fields an operation keeps for itself, next to the
/// [`Pump`] that owns the progress machinery.
struct OpState<'a> {
    self_slot: &'a mut Option<Vec<u8>>,
    posted: &'a mut Vec<bool>,
    owed: &'a mut Vec<bool>,
    got_data: &'a mut Vec<bool>,
    words: &'a mut [u64; 2],
    read_watermark: &'a mut usize,
}

impl Endpoint {
    /// Split this endpoint into the driver's progress context and
    /// the op-local leftovers — disjoint borrows, usable side by side.
    fn split(
        &mut self,
        worker: usize,
        coalesce_limit: usize,
        spins: u32,
    ) -> (Pump<'_>, OpState<'_>) {
        let Endpoint {
            links,
            self_slot,
            posted,
            read_pool,
            read_watermark,
            early,
            send,
            recv,
            large,
            closed,
            send_returns,
            pollfds,
            late_wakeups,
            owed,
            got_data,
            words,
            stats,
        } = self;
        (
            Pump {
                worker,
                coalesce_limit,
                spins,
                links,
                send,
                recv,
                large,
                early,
                read_pool,
                send_returns,
                closed,
                pollfds,
                late_wakeups,
                stats,
            },
            OpState {
                self_slot,
                posted,
                owed,
                got_data,
                words,
                read_watermark,
            },
        )
    }
}

/// The TCP exchange transport: a full mesh of sockets between `workers`
/// workers. See the module docs for the protocol.
///
/// Two deployment shapes share this type:
///
/// * [`Tcp::loopback`] — every worker lives in this process (one thread
///   each) and the mesh runs over loopback sockets. This is the simulated
///   cluster used by `Config::tcp`.
/// * [`Tcp::mesh`] — this process owns exactly **one** rank of a
///   multi-process deployment; the peer addresses come from an
///   out-of-process rendezvous (`pc_dist::bootstrap`) and may live on
///   other hosts. Only the local rank's endpoint may be driven.
#[derive(Debug)]
pub struct Tcp {
    workers: usize,
    /// Spin iterations before idle loops block in the kernel
    /// (computed once from cores vs workers; see [`poll_spins`]).
    spins: u32,
    /// `Some(rank)` when this object is one rank of a multi-process mesh
    /// (only that endpoint may be driven); `None` for the in-process
    /// loopback mesh where every worker is local.
    local: Option<usize>,
    opts: TcpOptions,
    addrs: Vec<SocketAddr>,
    /// Listener for each rank, taken by its worker during mesh setup.
    listeners: Vec<Mutex<Option<MeshListener>>>,
    endpoints: Vec<Mutex<Endpoint>>,
    /// The first [`TransportError`] that made an infallible trait method
    /// panic. A supervisor that catches the worker's unwind reads this
    /// through [`Tcp::take_fault`] to decide whether the failure is a
    /// recoverable data-plane fault (peer died → rebuild the mesh and
    /// restore a checkpoint) or a programming error it must propagate.
    fault: Mutex<Option<TransportError>>,
}

impl Tcp {
    /// Bind a loopback mesh for `workers` workers with default options.
    ///
    /// Listeners are bound immediately (so peer addresses are known and
    /// connections queue in the kernel even before a worker thread
    /// starts); the links are connected lazily on each worker's first
    /// transport operation. Every worker is on this host, so on Linux
    /// every link is a shared-memory ring (see the module docs).
    pub fn loopback(workers: usize) -> Result<Self, TransportError> {
        Tcp::loopback_with(workers, TcpOptions::default())
    }

    /// [`Tcp::loopback`] with explicit timeouts.
    pub fn loopback_with(workers: usize, opts: TcpOptions) -> Result<Self, TransportError> {
        assert!(workers > 0);
        let mut addrs = Vec::with_capacity(workers);
        let mut listeners = Vec::with_capacity(workers);
        for rank in 0..workers {
            let listener = MeshListener::bind(IpAddr::V4(Ipv4Addr::LOCALHOST), rank)?;
            addrs.push(listener.local_addr()?);
            listeners.push(Mutex::new(Some(listener)));
        }
        let endpoints = Tcp::fresh_endpoints(workers);
        Ok(Tcp {
            workers,
            spins: opts.spins.unwrap_or_else(|| poll_spins(workers)),
            local: None,
            opts,
            addrs,
            listeners,
            endpoints,
            fault: Mutex::new(None),
        })
    }

    /// Join a multi-process mesh as `rank`.
    ///
    /// `addrs` is the full peer table (one data-plane address per rank, as
    /// exchanged by the bootstrap rendezvous) and `listener` is this
    /// process's already-bound data listener — it must be the socket whose
    /// address was published as `addrs[rank]`, so peers connecting to that
    /// address reach it. A plain [`TcpListener`] on a loopback address
    /// gets its Unix name bound here; a [`MeshListener::bind`] had it
    /// bound before the address was published. The mesh links are
    /// established lazily on the first transport operation, exactly like
    /// the loopback shape: connect to every lower rank, accept (and
    /// `HELLO`-identify) every higher one, each link of the kind its
    /// address calls for.
    ///
    /// Only endpoint `rank` may be driven through the returned object;
    /// driving any other worker panics, because those ranks live in other
    /// processes.
    pub fn mesh(
        rank: usize,
        addrs: Vec<SocketAddr>,
        listener: impl Into<MeshListener>,
        opts: TcpOptions,
    ) -> Result<Self, TransportError> {
        let workers = addrs.len();
        assert!(rank < workers, "rank {rank} out of range 0..{workers}");
        let mut listener = listener.into();
        listener.bind_local(rank)?;
        let mut listeners: Vec<Mutex<Option<MeshListener>>> =
            (0..workers).map(|_| Mutex::new(None)).collect();
        *listeners[rank].get_mut() = Some(listener);
        Ok(Tcp {
            workers,
            spins: opts.spins.unwrap_or_else(|| poll_spins(workers)),
            local: Some(rank),
            opts,
            addrs,
            listeners,
            endpoints: Tcp::fresh_endpoints(workers),
            fault: Mutex::new(None),
        })
    }

    fn fresh_endpoints(workers: usize) -> Vec<Mutex<Endpoint>> {
        (0..workers)
            .map(|_| {
                Mutex::new(Endpoint {
                    links: (0..workers).map(|_| None).collect(),
                    posted: vec![false; workers],
                    early: (0..workers).map(|_| VecDeque::new()).collect(),
                    send: (0..workers).map(|_| SendQueue::default()).collect(),
                    recv: (0..workers).map(|_| RecvBuf::default()).collect(),
                    large: (0..workers).map(|_| None).collect(),
                    closed: vec![false; workers],
                    owed: vec![false; workers],
                    got_data: vec![false; workers],
                    ..Endpoint::default()
                })
            })
            .collect()
    }

    /// The data-plane addresses, rank by rank (bound listeners for the
    /// loopback shape, the rendezvous peer table for the mesh shape).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The rank this object drives in a multi-process mesh (`None` for
    /// the all-local loopback shape).
    pub fn local_rank(&self) -> Option<usize> {
        self.local
    }

    /// Panic unless `w` is drivable from this process.
    fn assert_local(&self, w: usize) {
        if let Some(rank) = self.local {
            assert_eq!(
                rank, w,
                "worker {w} driven through the mesh endpoint of rank {rank}; \
                 that worker lives in another process"
            );
        }
    }

    /// Capacity currently parked on `worker`'s receive freelist —
    /// observability for the watermark trim (see `Endpoint::read_watermark`).
    pub fn receive_pool_bytes(&self, worker: usize) -> usize {
        self.endpoints[worker]
            .lock()
            .read_pool
            .iter()
            .map(Vec::capacity)
            .sum()
    }

    /// Establish worker `w`'s mesh links: connect to every lower rank,
    /// accept from every higher rank (identified by their `HELLO`). A
    /// refused connect fails at once: the peer bound its listeners before
    /// its address was published, so it is gone, and recovery should not
    /// wait out the connect deadline to learn that.
    fn ensure_connected(&self, w: usize, ep: &mut Endpoint) -> Result<(), TransportError> {
        if (0..self.workers).all(|p| p == w || ep.links[p].is_some()) {
            return Ok(());
        }
        let deadline = Instant::now() + self.opts.connect_timeout;
        for p in 0..w {
            if ep.links[p].is_some() {
                continue;
            }
            let (link, memfd) = loop {
                match Link::dial(self.addrs[p]) {
                    Ok(dialed) => break dialed,
                    Err(e)
                        if e.kind() == io::ErrorKind::ConnectionRefused
                            || Instant::now() >= deadline =>
                    {
                        return Err(TransportError::Connect {
                            peer: p,
                            detail: format!("connect {}: {e}", self.addrs[p]),
                        });
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            };
            link.configure()
                .map_err(|e| io_err(p, "configure stream", e))?;
            link.hello(w, memfd, deadline, p)?;
            ep.stats.frames += 1;
            ep.stats.wire_bytes += FRAME_HEADER + 4;
            link.set_nonblocking(true)
                .map_err(|e| io_err(p, "mesh mode", e))?;
            ep.links[p] = Some(link);
        }
        let expect_higher = (w + 1..self.workers).any(|p| ep.links[p].is_none());
        if expect_higher {
            // Borrow the listener; it is only released (closed) once the
            // mesh is complete, so a failed setup can be retried.
            let slot = self.listeners[w].lock();
            let listener = slot.as_ref().ok_or_else(|| TransportError::Connect {
                peer: w,
                detail: "listener already released but mesh incomplete".to_string(),
            })?;
            listener
                .set_nonblocking()
                .map_err(|e| io_err(w, "listener set_nonblocking", e))?;
            let mut scratch = Vec::new();
            while (w + 1..self.workers).any(|p| ep.links[p].is_none()) {
                if Instant::now() >= deadline {
                    let missing = (w + 1..self.workers)
                        .find(|&p| ep.links[p].is_none())
                        .unwrap();
                    return Err(TransportError::Timeout {
                        peer: missing,
                        during: "accept mesh connection",
                    });
                }
                let (peer, link) = match listener.accept() {
                    Ok(Some(conn)) => conn.hello(deadline, &mut scratch)?,
                    Ok(None) => {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    Err(e) => return Err(io_err(w, "accept", e)),
                };
                if peer <= w || peer >= self.workers || ep.links[peer].is_some() {
                    return Err(TransportError::Protocol {
                        peer,
                        detail: "HELLO from an unexpected or duplicate rank".to_string(),
                    });
                }
                link.set_nonblocking(true)
                    .map_err(|e| io_err(peer, "mesh mode", e))?;
                ep.links[peer] = Some(link);
            }
        }
        // Every link is up: the listener's job is done, and closing it
        // frees its Unix name.
        *self.listeners[w].lock() = None;
        Ok(())
    }

    /// Run `f` on worker `w`'s endpoint with the mesh guaranteed up.
    fn with_endpoint<R>(
        &self,
        w: usize,
        f: impl FnOnce(&mut Endpoint) -> Result<R, TransportError>,
    ) -> Result<R, TransportError> {
        self.assert_local(w);
        let mut ep = self.endpoints[w].lock();
        self.ensure_connected(w, &mut ep)?;
        f(&mut ep)
    }

    fn io_deadline(&self) -> Instant {
        Instant::now() + self.opts.io_timeout
    }

    /// Fallible [`ExchangeTransport::post`]: enqueue and immediately drive
    /// socket progress, so serializing the next destination overlaps this
    /// one's wire transfer. A small `DATA` is held for the round's `END`
    /// to join it in one super-frame.
    pub fn try_post(&self, from: usize, to: usize, data: Vec<u8>) -> Result<(), TransportError> {
        self.with_endpoint(from, |ep| {
            assert!(
                !ep.posted[to],
                "transport slot ({from},{to}) posted twice in one round"
            );
            ep.posted[to] = true;
            if to == from {
                ep.self_slot = Some(data);
                return Ok(());
            }
            // Oversize fails at the post site, not in a later pump.
            frame_header(TAG_DATA, data.len(), to)?;
            let held = data.len() <= self.opts.coalesce_limit;
            let (mut cx, _) = ep.split(from, self.opts.coalesce_limit, self.spins);
            cx.enqueue(to, TAG_DATA, data, Return::Engine, held);
            cx.pump(false)?;
            Ok(())
        })
    }

    /// Fallible [`ExchangeTransport::sync`]: queue the round's `END`s,
    /// each carrying `words` and releasing the held `DATA` before it into
    /// one super-frame, and drive whatever progress the kernel will take
    /// right now. The blocking "drive until quiesced" happens in
    /// `take_all_into`, where the round's frames are actually needed.
    pub fn try_sync(&self, worker: usize, words: [u64; 2]) -> Result<(), TransportError> {
        self.with_endpoint(worker, |ep| {
            let (mut cx, op) = ep.split(worker, self.opts.coalesce_limit, self.spins);
            for p in (0..op.posted.len()).filter(|&p| p != worker) {
                let mut payload = cx.pool_buf();
                encode_end(words, &mut payload);
                cx.enqueue(p, TAG_END, payload, Return::Pool, false);
            }
            op.posted.fill(false);
            *op.words = words;
            cx.pump(false)?;
            Ok(())
        })
    }

    /// Fallible [`ExchangeTransport::flush`]: drive every send queue onto
    /// the wire. Needed when this worker stops driving the transport while
    /// its last frames may still be queued (after the last round, and in
    /// the multi-process result gather).
    pub fn try_flush(&self, worker: usize) -> Result<(), TransportError> {
        let deadline = self.io_deadline();
        self.with_endpoint(worker, |ep| {
            let (mut cx, _) = ep.split(worker, self.opts.coalesce_limit, self.spins);
            cx.drive_empty(deadline, "flush send queues")
        })
    }

    /// Fallible [`ExchangeTransport::take_all_into`]: the round's "drive
    /// until quiesced" loop — push queued sends and collect every peer's
    /// optional `DATA` and its `END`, in whatever order peers deliver,
    /// then emit in ascending rank order (self-delivery in rank place)
    /// like every other backend; returns the combined round words. Frames
    /// a fast peer already sent for its next round stay queued behind its
    /// `END`. The take also waits until this worker's own round frames are
    /// written: its posted buffers are then back for its next drain, and
    /// no peer waits out this worker's next compute phase for an `END`
    /// queued behind a partly written `DATA`.
    pub fn try_take_all_into(
        &self,
        worker: usize,
        out: &mut Vec<(usize, Vec<u8>)>,
    ) -> Result<[u64; 2], TransportError> {
        let deadline = self.io_deadline();
        out.clear();
        self.with_endpoint(worker, |ep| {
            let (mut cx, op) = ep.split(worker, self.opts.coalesce_limit, self.spins);
            let workers = cx.links.len();
            let (owed, got_data) = (op.owed, op.got_data);
            let mut outstanding = 0;
            for (p, slot) in owed.iter_mut().enumerate() {
                *slot = p != worker;
                outstanding += *slot as usize;
            }
            got_data.fill(false);
            if let Some(buf) = op.self_slot.take() {
                out.push((worker, buf));
            }
            let mut words = *op.words;
            let mut round_max = 0usize;
            let mut idle_rounds = 0;
            cx.pump(true)?;
            loop {
                let mut consumed = false;
                #[allow(clippy::needless_range_loop)] // disjoint owed/cx index access
                for p in 0..workers {
                    while owed[p] {
                        let Some((tag, buf)) = cx.early[p].pop_front() else {
                            break;
                        };
                        match tag {
                            TAG_DATA if !got_data[p] => {
                                got_data[p] = true;
                                round_max = round_max.max(buf.len());
                                out.push((p, buf));
                            }
                            TAG_END => {
                                let folded = fold_end(&mut words, &buf, p);
                                cx.recycle(buf);
                                folded?;
                                owed[p] = false;
                                outstanding -= 1;
                            }
                            other => {
                                let expected = if got_data[p] { "END" } else { "DATA or END" };
                                return Err(TransportError::Protocol {
                                    peer: p,
                                    detail: format!("expected {expected}, got tag {other:#04x}"),
                                });
                            }
                        }
                        consumed = true;
                    }
                }
                if outstanding == 0 && cx.sends_done() {
                    break;
                }
                if consumed {
                    idle_rounds = 0;
                    continue;
                }
                if cx.has_send_work() {
                    let moved = cx.pump(true)?;
                    if moved > 0 {
                        idle_rounds = 0;
                        continue;
                    }
                }
                cx.idle(&mut idle_rounds, deadline, owed, "take_all_into")?;
            }
            out.sort_unstable_by_key(|&(sender, _)| sender);
            // Decay toward the current round's largest frame: a one-off
            // spike stops dominating within a few dozen rounds, while a
            // sustained large working set holds the watermark up.
            *op.read_watermark = round_max.max(*op.read_watermark - *op.read_watermark / 4);
            // Re-cap what is parked, not only what `recycle` parks next: a
            // buffer parked while the watermark was high, or by a path
            // that does not cap (a consumed control frame), would
            // otherwise sit under the freelist's top for good.
            let cap = read_cap(*op.read_watermark);
            for buf in cx.read_pool.iter_mut().filter(|buf| buf.capacity() > cap) {
                buf.shrink_to(cap);
            }
            Ok(words)
        })
    }
}

impl Tcp {
    /// Record `e` as this mesh's fault, then panic — the infallible
    /// [`ExchangeTransport`] surface treats a transport failure like any
    /// other worker panic (the run unwinds), while a recovery-capable
    /// supervisor catches the unwind and reads the typed error back via
    /// [`Tcp::take_fault`]. Fault-injection tests use the fallible
    /// `try_*` methods directly and never come through here.
    fn fail(&self, e: TransportError) -> ! {
        let msg = format!("tcp transport: {e}");
        {
            let mut slot = self.fault.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
        }
        panic!("{msg}")
    }

    /// Take the typed error behind the most recent transport panic, if
    /// any. A `Some` answer means the unwound run died of a data-plane
    /// failure (peer gone, timeout, protocol desync) — the recoverable
    /// class — rather than an engine bug.
    pub fn take_fault(&self) -> Option<TransportError> {
        self.fault.lock().take()
    }
}

impl ExchangeTransport for Tcp {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn post(&self, from: usize, to: usize, data: Vec<u8>) {
        self.try_post(from, to, data)
            .unwrap_or_else(|e| self.fail(e))
    }

    fn sync(&self, worker: usize, words: [u64; 2]) {
        self.try_sync(worker, words)
            .unwrap_or_else(|e| self.fail(e))
    }

    fn flush(&self, worker: usize) {
        self.try_flush(worker).unwrap_or_else(|e| self.fail(e))
    }

    fn take_all_into(&self, worker: usize, out: &mut Vec<(usize, Vec<u8>)>) -> [u64; 2] {
        self.try_take_all_into(worker, out)
            .unwrap_or_else(|e| self.fail(e))
    }

    fn recycle(&self, worker: usize, sender: usize, mut buf: Vec<u8>) {
        // Receive buffers never leave the receiving worker; buffers the
        // worker sent to itself rejoin the send-return path — with their
        // length intact, so `BufferPool::put` charges them to the round
        // footprint exactly like the in-process return stacks do.
        self.assert_local(worker);
        let mut ep = self.endpoints[worker].lock();
        if sender == worker {
            ep.send_returns.push(buf);
        } else {
            buf.clear();
            // Release capacity a one-off giant round would otherwise pin
            // on the receive freelist forever (watermark-bounded, so a
            // sustained large working set is left alone).
            let cap = read_cap(ep.read_watermark);
            if buf.capacity() > cap {
                buf.shrink_to(cap);
            }
            ep.read_pool.push(buf);
        }
    }

    fn reclaim_into(&self, worker: usize, pool: &mut BufferPool) {
        self.assert_local(worker);
        let mut ep = self.endpoints[worker].lock();
        pool.put_all(ep.send_returns.drain(..));
    }

    fn stats(&self) -> TransportStats {
        let mut total = TransportStats::default();
        for ep in &self.endpoints {
            total.merge(&ep.lock().stats);
        }
        total
    }

    fn worker_stats(&self, worker: usize) -> TransportStats {
        self.endpoints[worker].lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// One exchange round of three workers: post to self and to the
    /// successor (the third peer gets only an `END`), then `sync`/`take`.
    /// Every worker must see exactly its predecessor's and its own buffer,
    /// in sender order, and the round words of all three combined.
    fn ring_round(t: &Tcp, w: usize, round: u8, received: &mut Vec<(usize, Vec<u8>)>) {
        t.post(w, w, vec![round, w as u8]);
        t.post(w, (w + 1) % 3, vec![round, w as u8, 7]);
        t.sync(w, [1 << w, w as u64 + 1]);
        assert_eq!(t.take_all_into(w, received), [0b111, 6]);
        let mut senders = Vec::new();
        for (s, buf) in received.drain(..) {
            assert_eq!(buf[0], round);
            assert_eq!(buf[1], s as u8);
            senders.push(s);
            t.recycle(w, s, buf);
        }
        let mut expect = vec![(w + 2) % 3, w];
        expect.sort_unstable();
        assert_eq!(senders, expect, "worker {w} round {round}");
    }

    /// One giant round must not pin giant receive buffers on the
    /// transport's freelist forever: the decaying watermark releases the
    /// capacity once rounds shrink again.
    #[test]
    fn giant_round_receive_buffers_are_trimmed() {
        let t = Arc::new(Tcp::loopback(2).unwrap());
        let mut handles = Vec::new();
        for w in 0..2usize {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut received = Vec::new();
                for round in 0..40usize {
                    let size = if round == 0 { 1 << 20 } else { 256 };
                    t.post(w, 1 - w, vec![w as u8; size]);
                    t.sync(w, [0, 1]);
                    t.take_all_into(w, &mut received);
                    for (s, buf) in received.drain(..) {
                        t.recycle(w, s, buf);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for w in 0..2 {
            let pooled = t.receive_pool_bytes(w);
            assert!(
                pooled <= 64 << 10,
                "worker {w} still pins {pooled} bytes of receive capacity"
            );
        }
    }

    /// A mesh object refuses to drive any rank but its own: those workers
    /// live in other processes.
    #[test]
    #[should_panic(expected = "lives in another process")]
    fn mesh_guards_nonlocal_workers() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let t = Tcp::mesh(0, vec![addr, addr], listener, TcpOptions::default()).unwrap();
        t.post(1, 0, vec![1]);
    }

    /// Options that frame every message on its own: nothing is held for
    /// coalescing, so each `DATA` and `END` is one wire frame.
    fn plain() -> TcpOptions {
        TcpOptions {
            coalesce_limit: 0,
            ..TcpOptions::default()
        }
    }

    /// Full mesh exchange with its round words — the round's reduction —
    /// across real sockets; returns the transport's stats.
    fn exchange_and_reduce(opts: TcpOptions) -> TransportStats {
        let t = Arc::new(Tcp::loopback_with(3, opts).unwrap());
        assert_eq!(t.name(), "tcp");
        let mut handles = Vec::new();
        for w in 0..3usize {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut received = Vec::new();
                for round in 0..5u8 {
                    ring_round(&t, w, round, &mut received);
                }
                // Nothing follows the last round: push what is still
                // queued (what the engine does after its superstep loop).
                t.flush(w);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = t.stats();
        assert!(stats.wire_bytes > 0);
        stats
    }

    /// The exchange/reduction round with every message framed on its own.
    #[test]
    fn tcp_exchange_and_reduce_round() {
        let stats = exchange_and_reduce(plain());
        assert_eq!(stats.coalesced_frames, 0, "{stats:?}");
    }

    /// The same round under the default options: identical observable
    /// behavior, plus coalescing actually happening (each `DATA` rides
    /// with its `END`).
    #[test]
    fn batched_exchange_and_reduce_round() {
        let stats = exchange_and_reduce(TcpOptions::default());
        assert!(
            stats.coalesced_frames > 0,
            "no frames were coalesced: {stats:?}"
        );
        assert!(stats.flushes > 0);
    }

    /// Coalescing moves fewer wire frames than the same traffic framed
    /// one by one (`coalesce_limit: 0` coalesces nothing) — its whole
    /// point.
    #[test]
    fn batched_driver_reduces_wire_frames() {
        let run = |opts: TcpOptions| {
            let t = Arc::new(Tcp::loopback_with(3, opts).unwrap());
            let mut handles = Vec::new();
            for w in 0..3usize {
                let t = Arc::clone(&t);
                handles.push(std::thread::spawn(move || {
                    let mut received = Vec::new();
                    for _ in 0..10 {
                        t.post(w, (w + 1) % 3, vec![w as u8; 16]);
                        t.sync(w, [0, 1]);
                        t.take_all_into(w, &mut received);
                        for (s, buf) in received.drain(..) {
                            t.recycle(w, s, buf);
                        }
                    }
                    t.flush(w);
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            t.stats()
        };
        let plain = run(TcpOptions {
            coalesce_limit: 0,
            ..TcpOptions::default()
        });
        let coalesced = run(TcpOptions::default());
        assert!(
            coalesced.frames < plain.frames,
            "coalescing sent {} frames, plain {}",
            coalesced.frames,
            plain.frames
        );
        assert!(coalesced.coalesced_frames > 0);
        assert_eq!(plain.coalesced_frames, 0);
    }

    /// The multi-process result gather: a worker that stops driving the
    /// transport after its last round calls `flush`, so the frames still
    /// in its send queue reach the receiver.
    #[test]
    fn batched_flush_releases_held_frames() {
        let t = Arc::new(Tcp::loopback(2).unwrap());
        let t1 = Arc::clone(&t);
        let sender = std::thread::spawn(move || {
            t1.post(1, 0, vec![42; 8]);
            t1.sync(1, [0, 0]);
            t1.flush(1);
            let mut received = Vec::new();
            t1.take_all_into(1, &mut received);
            assert!(received.is_empty() || received[0].0 == 0);
        });
        t.post(0, 0, vec![9]);
        t.sync(0, [0, 0]);
        t.flush(0);
        let mut received = Vec::new();
        t.take_all_into(0, &mut received);
        sender.join().unwrap();
        let senders: Vec<usize> = received.iter().map(|&(s, _)| s).collect();
        assert_eq!(senders, vec![0, 1], "held frame was flushed to rank 0");
        assert_eq!(received[1].1, vec![42; 8]);
    }

    /// A worker that thinks between rounds must not make its peer wait
    /// for its next post: its `END` leaves at `sync`, so the peer's `take`
    /// returns while the worker is still thinking. The worker refuses to
    /// post until the peer reports the return, so an `END` parked behind
    /// the next `DATA` is a deadlock the channel timeout turns into a
    /// failure. `spins: Some(0)` pins that the spin budget does not decide
    /// this.
    #[test]
    fn thinking_worker_does_not_hold_end() {
        const ROUNDS: usize = 6;
        let opts = TcpOptions {
            spins: Some(0),
            io_timeout: Duration::from_secs(5),
            ..TcpOptions::default()
        };
        let t = Arc::new(Tcp::loopback_with(2, opts).unwrap());
        let (returned_tx, returned_rx) = std::sync::mpsc::channel();
        let round = |t: &Tcp, w: usize| {
            t.post(w, 1 - w, vec![w as u8; 16]);
            t.sync(w, [0, 1]);
            let mut received = Vec::new();
            assert_eq!(t.take_all_into(w, &mut received), [0, 2]);
            for (s, buf) in received.drain(..) {
                t.recycle(w, s, buf);
            }
        };
        let peer = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    round(&t, 1);
                    returned_tx.send(()).unwrap();
                }
                t.flush(1);
            })
        };
        for r in 0..ROUNDS {
            round(&t, 0);
            std::thread::sleep(Duration::from_millis(2)); // the think time
            returned_rx
                .recv_timeout(Duration::from_secs(2))
                .unwrap_or_else(|_| panic!("round {r}: END is waiting for the next post"));
        }
        t.flush(0);
        peer.join().unwrap();
    }

    /// A small `DATA` is held until its `END` joins it: back-to-back
    /// rounds send every peer exactly one super-frame each, while a `DATA`
    /// above the coalescing limit streams out on its own.
    #[test]
    fn small_data_coalesces_with_its_end() {
        const ROUNDS: u64 = 200;
        let t = Arc::new(Tcp::loopback(2).unwrap());
        let mut handles = Vec::new();
        for w in 0..2usize {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut received = Vec::new();
                for round in 0..=ROUNDS {
                    let len = if round == ROUNDS {
                        DEFAULT_COALESCE_LIMIT + 1
                    } else {
                        16
                    };
                    t.post(w, 1 - w, vec![w as u8; len]);
                    t.sync(w, [0, 1]);
                    t.take_all_into(w, &mut received);
                    for (s, buf) in received.drain(..) {
                        t.recycle(w, s, buf);
                    }
                }
                t.flush(w);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for w in 0..2 {
            let stats = t.worker_stats(w);
            assert_eq!(stats.coalesced_frames, 2 * ROUNDS, "worker {w}");
            // The small rounds' super-frames, the large DATA and its END
            // (plus the connecting side's HELLO).
            assert_eq!(stats.frames, ROUNDS + 2 + w as u64, "worker {w}");
        }
    }

    /// The batch payload codec round-trips and rejects malformations with
    /// typed protocol errors.
    #[test]
    fn batch_codec_roundtrip_and_validation() {
        let frames = vec![
            (TAG_DATA, vec![1, 2, 3]),
            (TAG_END, vec![0; END_LEN]),
            (TAG_HELLO, vec![9; 40]),
        ];
        let payload = encode_batch(&frames);
        assert_eq!(decode_batch(&payload, 7).unwrap(), frames);

        let assert_protocol = |bytes: &[u8], what: &str| match decode_batch(bytes, 7) {
            Err(TransportError::Protocol { peer: 7, .. }) => {}
            other => panic!("{what}: expected Protocol, got {other:?}"),
        };
        assert_protocol(&[], "empty payload");
        assert_protocol(&0u32.to_le_bytes(), "zero sub-frames");
        assert_protocol(&u32::MAX.to_le_bytes(), "absurd count");
        // Directory larger than the payload.
        assert_protocol(&2u32.to_le_bytes(), "truncated directory");
        // Sub-frame length overruns the payload.
        let mut bad = Vec::new();
        1u32.encode(&mut bad);
        bad.push(TAG_DATA);
        100u32.encode(&mut bad);
        bad.extend_from_slice(&[0; 10]);
        assert_protocol(&bad, "overrunning sub-frame");
        // Trailing bytes after the last sub-frame.
        let mut trailing = encode_batch(&[(TAG_DATA, vec![1])]);
        trailing.push(0xee);
        assert_protocol(&trailing, "trailing bytes");
        // Nested super-frame.
        let nested = encode_batch(&[(TAG_BATCH, vec![0; 4]), (TAG_DATA, vec![1])]);
        assert_protocol(&nested, "nested batch");
    }

    const LOOPBACK: IpAddr = IpAddr::V4(Ipv4Addr::LOCALHOST);
    /// Dialable on Linux, but not loopback by the link rule: a mesh bound
    /// here runs TCP links between processes on one host.
    const ANY: IpAddr = IpAddr::V4(Ipv4Addr::UNSPECIFIED);

    /// The kind of every link `w` has up.
    fn link_kinds(t: &Tcp, w: usize) -> Vec<&'static str> {
        let ep = t.endpoints[w].lock();
        let kind = |link: &Link| match link {
            Link::Tcp(_) => "tcp",
            Link::Ring(_) => "ring",
        };
        ep.links.iter().flatten().map(kind).collect()
    }

    /// The multi-process shape: each rank owns its own `Tcp::mesh` object
    /// (separate listener bound on `ip`, shared address table) and the
    /// meshes interoperate over real sockets exactly like the loopback
    /// shape — exchange, `END` frames, round words — over the link kind
    /// `ip` calls for. Returns each rank's stats.
    fn mesh_rounds(ip: IpAddr, opts: TcpOptions) -> Vec<TransportStats> {
        let listeners: Vec<MeshListener> =
            (0..3).map(|r| MeshListener::bind(ip, r).unwrap()).collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let kind = if is_local_link(&addrs[0]) {
            "ring"
        } else {
            "tcp"
        };
        let mut handles = Vec::new();
        for (rank, listener) in listeners.into_iter().enumerate() {
            let addrs = addrs.clone();
            handles.push(std::thread::spawn(move || {
                let t = Tcp::mesh(rank, addrs, listener, opts).unwrap();
                assert_eq!(t.local_rank(), Some(rank));
                let mut received = Vec::new();
                for round in 0..4u8 {
                    ring_round(&t, rank, round, &mut received);
                }
                // A bulk round: each rank's `DATA` is several rings long.
                let bulk = |from: usize| -> Vec<u8> {
                    (0..3 * RING_CAPACITY + 17)
                        .map(|i| (i * (from + 3)) as u8)
                        .collect()
                };
                t.post(rank, (rank + 1) % 3, bulk(rank));
                t.sync(rank, [0, 1]);
                assert_eq!(t.take_all_into(rank, &mut received), [0, 3]);
                assert_eq!(received.len(), 1);
                assert!(received[0].1 == bulk((rank + 2) % 3), "rank {rank}");
                t.flush(rank);
                assert_eq!(link_kinds(&t, rank), [kind; 2], "rank {rank}");
                t.worker_stats(rank)
            }));
        }
        let stats: Vec<TransportStats> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(stats.iter().map(|s| s.wire_bytes).sum::<u64>() > 0);
        stats
    }

    /// Mesh endpoints with every message framed on its own.
    #[test]
    fn mesh_endpoints_in_separate_objects_interoperate() {
        let stats = mesh_rounds(LOOPBACK, plain());
        assert!(stats.iter().all(|s| s.coalesced_frames == 0), "{stats:?}");
    }

    /// Mesh endpoints under the default options interoperate the same
    /// way and coalesce.
    #[test]
    fn batched_mesh_endpoints_interoperate() {
        let stats = mesh_rounds(LOOPBACK, TcpOptions::default());
        let coalesced: u64 = stats.iter().map(|s| s.coalesced_frames).sum();
        assert!(coalesced > 0, "mesh endpoints coalesced nothing");
    }

    /// The link rule: a loopback address is a peer on this host.
    #[test]
    #[cfg(target_os = "linux")]
    fn loopback_addresses_get_unix_links() {
        let local = |a: &str| is_local_link(&a.parse().unwrap());
        assert!(local("127.0.0.1:4000"));
        assert!(local("127.0.0.2:4000"));
        assert!(local("[::1]:4000"));
        assert!(!local("192.0.2.2:4000"));
        assert!(!local("0.0.0.0:4000"));
    }

    /// The same rounds over TCP links and over ring links deliver the
    /// same values and put the same frames and bytes on the wire, rank by
    /// rank — a round whose `DATA` wraps the rings several times included.
    #[test]
    fn tcp_and_unix_links_carry_the_same_frames() {
        let ring = mesh_rounds(LOOPBACK, TcpOptions::default());
        let tcp = mesh_rounds(ANY, TcpOptions::default());
        let wire = |s: &TransportStats| (s.wire_bytes, s.frames, s.coalesced_frames);
        let ring: Vec<_> = ring.iter().map(wire).collect();
        let tcp: Vec<_> = tcp.iter().map(wire).collect();
        assert_eq!(ring, tcp);
    }

    /// A rank dialing a lower rank whose listeners were dropped fails at
    /// once with a typed `Connect`, over either link kind, not at the
    /// connect deadline.
    #[test]
    fn refused_connect_fails_before_the_deadline() {
        for ip in [LOOPBACK, ANY] {
            let gone = MeshListener::bind(ip, 0).unwrap();
            let own = MeshListener::bind(ip, 1).unwrap();
            let addrs = vec![gone.local_addr().unwrap(), own.local_addr().unwrap()];
            drop(gone);
            let opts = TcpOptions {
                connect_timeout: Duration::from_secs(10),
                ..TcpOptions::default()
            };
            let t = Tcp::mesh(1, addrs, own, opts).unwrap();
            let started = Instant::now();
            match t.try_sync(1, [0, 0]) {
                Err(TransportError::Connect { peer: 0, .. }) => {}
                other => panic!("{ip}: expected Connect, got {other:?}"),
            }
            assert!(
                started.elapsed() < Duration::from_secs(2),
                "{ip}: a refusal took {:?}",
                started.elapsed()
            );
        }
    }

    /// A fake rank 1 on this host: it dials rank 0's Unix name and sends
    /// its `HELLO` passing a memfd of `len` bytes sealed with `seals`.
    /// Returns the socket and the memfd.
    fn fake_ring_hello(addr: &SocketAddr, len: usize, seals: i32) -> (UnixStream, File) {
        let sock = UnixStream::connect_addr(&unix_name(addr).unwrap()).unwrap();
        configure_local(&sock).unwrap();
        let memfd = poll::memfd(len as u64, seals).unwrap();
        let mut frame = frame_header(TAG_HELLO, 4, 0).unwrap().to_vec();
        1u32.encode(&mut frame);
        let deadline = Instant::now() + Duration::from_secs(5);
        send_hello(&sock, &frame, &memfd, deadline, 0).unwrap();
        (sock, memfd)
    }

    /// A fake rank 1 with a well-formed ring: its side of the link.
    fn fake_ring_peer(addr: &SocketAddr) -> RingLink {
        let len = ring_map_len(RING_CAPACITY);
        let (sock, memfd) = fake_ring_hello(addr, len, RING_SEALS);
        sock.set_nonblocking(true).unwrap();
        RingLink::new(
            sock,
            poll::map_shared(&memfd, len).unwrap(),
            RING_CAPACITY,
            0,
        )
    }

    /// Rank 0 of a 2-rank mesh on 127.0.0.1, whose rank 1 is faked by the
    /// test; short deadlines.
    fn ring_rank0() -> (Tcp, SocketAddr) {
        let listener = MeshListener::bind(LOOPBACK, 0).unwrap();
        let addr = listener.local_addr().unwrap();
        let opts = TcpOptions {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(10),
            ..TcpOptions::default()
        };
        (
            Tcp::mesh(0, vec![addr, addr], listener, opts).unwrap(),
            addr,
        )
    }

    /// A 2-rank mesh over a ring link whose rank 1 is faked: it says
    /// `HELLO` with a good ring, writes `wire` into it and dies. Rank 0's
    /// take must fail typed and promptly; returns its error.
    fn unix_peer_dies_after(wire: &[u8]) -> TransportError {
        let (t, addr) = ring_rank0();
        let fake = fake_ring_peer(&addr);
        assert_eq!(fake.write(wire).unwrap(), wire.len());
        drop(fake);
        let started = Instant::now();
        let err = t.try_take_all_into(0, &mut Vec::new()).unwrap_err();
        assert!(started.elapsed() < Duration::from_secs(5), "{err}");
        assert_eq!(link_kinds(&t, 0), ["ring"]);
        err
    }

    #[test]
    fn unix_peer_dying_between_frames_is_disconnect() {
        match unix_peer_dies_after(&[]) {
            TransportError::Disconnected { peer: 1, .. } => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn unix_peer_dying_mid_frame_is_truncation() {
        let mut wire = vec![TAG_DATA];
        wire.extend_from_slice(&100u32.to_le_bytes());
        wire.extend_from_slice(&[7; 10]);
        match unix_peer_dies_after(&wire) {
            TransportError::Truncated {
                peer: 1,
                expected: 105,
                got: 15,
            } => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    /// Both sides of one link's rings in this process, with `cap`-byte
    /// rings: two mappings of one sealed memfd, as two ranks hold them.
    fn ring_pair(cap: usize) -> (RingLink, RingLink) {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let len = ring_map_len(cap);
        let memfd = poll::memfd(len as u64, RING_SEALS).unwrap();
        let map = || poll::map_shared(&memfd, len).unwrap();
        (
            RingLink::new(a, map(), cap, 0),
            RingLink::new(b, map(), cap, 1),
        )
    }

    fn kind_of<T>(r: io::Result<T>) -> Option<io::ErrorKind> {
        r.err().map(|e| e.kind())
    }

    /// A ring of odd capacity, filled from every byte offset in turn:
    /// each fill wraps there, is read back in two parts split at every
    /// length, and a full ring takes no byte while an empty one has none.
    #[test]
    #[cfg(target_os = "linux")]
    fn ring_wraps_at_every_offset() {
        const CAP: usize = 61;
        let (a, b) = ring_pair(CAP);
        let mut got = vec![0; CAP];
        for offset in 0..CAP {
            let bytes: Vec<u8> = (0..CAP).map(|i| (offset * 31 + i) as u8).collect();
            assert_eq!(a.write(&bytes).unwrap(), CAP, "offset {offset}");
            assert_eq!(kind_of(a.write(&[0])), Some(io::ErrorKind::WouldBlock));
            assert_eq!(b.read(&mut got[..offset]).unwrap(), offset);
            assert_eq!(b.read(&mut got[offset..]).unwrap(), CAP - offset);
            assert_eq!(got, bytes, "offset {offset}");
            assert_eq!(kind_of(b.read(&mut got)), Some(io::ErrorKind::WouldBlock));
            // Start the next fill one byte further on.
            assert_eq!(a.write(&[7]).unwrap(), 1);
            assert_eq!(b.read(&mut got).unwrap(), 1);
        }
        // The other direction is the other ring.
        assert_eq!(b.write(b"back").unwrap(), 4);
        assert_eq!(a.read(&mut got).unwrap(), 4);
        assert_eq!(&got[..4], b"back");
    }

    /// Writes larger than the free room and reads smaller than what is
    /// there each move what they can, and the stream comes out whole.
    #[test]
    #[cfg(target_os = "linux")]
    fn ring_partial_writes_and_reads_keep_the_stream() {
        let (a, b) = ring_pair(64);
        let stream: Vec<u8> = (0..20_000).map(|i| (i * 7 % 251) as u8).collect();
        let (mut sent, mut got, mut partial) = (0, Vec::new(), 0);
        let mut buf = [0u8; 23];
        for step in 0.. {
            if got.len() == stream.len() {
                break;
            }
            let chunk = &stream[sent..(sent + 1 + step % 97).min(stream.len())];
            match b.write(chunk) {
                Ok(n) => {
                    partial += (0 < n && n < chunk.len()) as usize;
                    sent += n;
                }
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            }
            match a.read(&mut buf[..1 + step % 23]) {
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            }
        }
        assert_eq!(got, stream);
        assert!(partial > 0, "no write was partial");
    }

    /// Indices the peer wrote out of bounds are refused before any copy:
    /// a head more than the capacity ahead or moving backwards, a tail
    /// past what was sent or moving backwards.
    #[test]
    #[cfg(target_os = "linux")]
    fn ring_refuses_indices_out_of_bounds() {
        const CAP: u64 = 64;
        let (a, b) = ring_pair(CAP as usize);
        let mut buf = [0u8; 16];
        let invalid = Some(io::ErrorKind::InvalidData);
        let head = a.word(ring_head(0));
        head.store(CAP + 1, Ordering::SeqCst);
        assert_eq!(kind_of(b.read(&mut buf)), invalid, "head past the capacity");
        head.store(10, Ordering::SeqCst);
        assert_eq!(b.read(&mut buf).unwrap(), 10);
        head.store(5, Ordering::SeqCst);
        assert_eq!(kind_of(b.read(&mut buf)), invalid, "head moving back");
        let tail = b.word(ring_tail(1));
        tail.store(1, Ordering::SeqCst);
        assert_eq!(kind_of(b.write(&buf)), invalid, "tail past what was sent");
        tail.store(0, Ordering::SeqCst);
        assert_eq!(b.write(&[1; 8]).unwrap(), 8);
        tail.store(8, Ordering::SeqCst);
        assert_eq!(b.write(&[1]).unwrap(), 1);
        tail.store(4, Ordering::SeqCst);
        assert_eq!(kind_of(b.write(&[1])), invalid, "tail moving back");
        // The transport reports the refusal as the peer's protocol error.
        let err = b.read(&mut buf).unwrap_err();
        match io_err(1, "drain frame", err) {
            TransportError::Protocol { peer: 1, .. } => {}
            other => panic!("expected Protocol, got {other:?}"),
        }
    }

    /// A peer that hung up leaves its last bytes readable; after them the
    /// ring reads as end of stream, and writing to it is a broken pipe.
    #[test]
    #[cfg(target_os = "linux")]
    fn a_hung_up_ring_reads_its_bytes_then_ends() {
        let (a, b) = ring_pair(64);
        assert_eq!(a.write(b"last words").unwrap(), 10);
        drop(a);
        let mut buf = [0u8; 64];
        b.drain_doorbell();
        assert!(b.hung_up.get());
        assert_eq!(b.read(&mut buf).unwrap(), 10);
        assert_eq!(&buf[..10], b"last words");
        assert_eq!(b.read(&mut buf).unwrap(), 0);
        assert_eq!(kind_of(b.write(b"x")), Some(io::ErrorKind::BrokenPipe));
    }

    /// The doorbell rings a parked peer once, and only for what it waits
    /// for: bytes for a side waiting for data, room for one waiting to
    /// write; a side that finds what it waits for when it parks does not
    /// sleep.
    #[test]
    #[cfg(target_os = "linux")]
    fn the_doorbell_rings_only_a_parked_peer() {
        let (a, b) = ring_pair(64);
        let bells = |s: &UnixStream| {
            let mut x = [0u8; 8];
            let mut n = 0;
            while let Ok(k @ 1..) = (&*s).read(&mut x) {
                n += k;
            }
            n
        };
        let mut buf = [0u8; 64];
        assert_eq!(a.write(b"x").unwrap(), 1);
        assert_eq!(bells(&b.sock), 0, "a side that is not parked hears nothing");
        assert!(b.park(WANT_DATA), "bytes are there: no sleep");
        b.unpark();
        assert_eq!(b.read(&mut buf).unwrap(), 1);
        assert!(!b.park(WANT_DATA));
        assert_eq!(a.write(b"y").unwrap(), 1);
        assert_eq!(b.word(ring_parked(1)).load(Ordering::SeqCst), 0);
        assert_eq!(bells(&b.sock), 1);
        assert_eq!(a.write(b"z").unwrap(), 1);
        assert_eq!(bells(&b.sock), 0, "one bell per park");
        assert_eq!(b.read(&mut buf).unwrap(), 2);
        assert_eq!(a.write(&[0; 64]).unwrap(), 64);
        assert!(!a.park(WANT_SPACE));
        assert_eq!(b.write(b"q").unwrap(), 1);
        assert_eq!(
            bells(&a.sock),
            0,
            "bytes do not wake a side waiting for room"
        );
        assert_eq!(b.read(&mut buf[..1]).unwrap(), 1);
        assert_eq!(bells(&a.sock), 1, "room does");
    }

    /// The sleeper's and the waker's halves of the doorbell, raced
    /// head-on: two threads play ping-pong over one ring pair, each
    /// parking at once whenever its in-ring is empty. A lost wake-up
    /// stalls its round until the poll's one-second timeout.
    #[test]
    #[cfg(target_os = "linux")]
    fn the_doorbell_wakes_every_ping_pong() {
        const ROUNDS: u32 = 20_000;
        let play = |me: RingLink, serves: bool| {
            move || {
                let mut ball = [0u8; 1];
                let mut lost = 0;
                for round in 0..ROUNDS {
                    if !serves {
                        assert_eq!(me.write(&[round as u8]).unwrap(), 1);
                    }
                    loop {
                        match me.read(&mut ball) {
                            Ok(n) => break assert_eq!(n, 1),
                            Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
                        }
                        if me.park(WANT_DATA) {
                            me.unpark();
                            continue;
                        }
                        let mut fds = [PollFd::new(me.sock.as_raw_fd(), poll::POLLIN)];
                        let woke = poll::poll(&mut fds, Duration::from_secs(1)).unwrap();
                        me.unpark();
                        if woke == 0 {
                            lost += 1;
                        }
                        me.drain_doorbell();
                    }
                    assert_eq!(ball[0], round as u8);
                    if serves {
                        assert_eq!(me.write(&ball).unwrap(), 1);
                    }
                }
                lost
            }
        };
        let (a, b) = ring_pair(64);
        let a = std::thread::spawn(play(a, false));
        let b = std::thread::spawn(play(b, true));
        assert_eq!(
            (a.join().unwrap(), b.join().unwrap()),
            (0, 0),
            "lost wake-ups"
        );
    }

    /// A same-host `HELLO` whose ring could fault or is no ring — a memfd
    /// shorter or longer than the rings, one without the seals, or none —
    /// is a typed `Connect` error at the acceptor, never a mapping that
    /// could raise `SIGBUS`.
    #[test]
    #[cfg(target_os = "linux")]
    fn a_short_or_unsealed_ring_is_a_typed_connect_error() {
        let len = ring_map_len(RING_CAPACITY);
        for (what, len, seals) in [
            ("short", len - 4096, RING_SEALS),
            ("long", len + 4096, RING_SEALS),
            ("unsealed", len, 0),
            ("shrinkable", len, poll::SEAL_GROW | poll::SEAL_SEAL),
        ] {
            let (t, addr) = ring_rank0();
            let _fake = fake_ring_hello(&addr, len, seals);
            match t.try_take_all_into(0, &mut Vec::new()) {
                Err(TransportError::Connect { peer: 1, detail }) => {
                    assert!(detail.contains("ring"), "{what}: {detail}")
                }
                other => panic!("{what}: expected Connect, got {other:?}"),
            }
        }
        let (t, addr) = ring_rank0();
        let fake = UnixStream::connect_addr(&unix_name(&addr).unwrap()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        write_frame(&fake, TAG_HELLO, &1u32.to_le_bytes(), deadline, 0).unwrap();
        match t.try_take_all_into(0, &mut Vec::new()) {
            Err(TransportError::Connect { peer: 1, .. }) => {}
            other => panic!("no ring: expected Connect, got {other:?}"),
        }
    }

    /// Ring indices a peer corrupts are a typed `Protocol` error at the
    /// next copy: a head more than the capacity ahead at rank 0's read, a
    /// tail past what rank 0 sent at its write.
    #[test]
    #[cfg(target_os = "linux")]
    fn corrupted_ring_indices_are_protocol_errors() {
        let (t, addr) = ring_rank0();
        let fake = fake_ring_peer(&addr);
        fake.word(ring_head(0))
            .store(RING_CAPACITY as u64 + 1, Ordering::SeqCst);
        match t.try_take_all_into(0, &mut Vec::new()) {
            Err(TransportError::Protocol { peer: 1, detail }) => {
                assert!(detail.contains("ring head"), "{detail}")
            }
            other => panic!("expected Protocol, got {other:?}"),
        }
        let (t, addr) = ring_rank0();
        let fake = fake_ring_peer(&addr);
        fake.word(ring_tail(1)).store(1000, Ordering::SeqCst);
        match t.try_sync(0, [0, 0]) {
            Err(TransportError::Protocol { peer: 1, detail }) => {
                assert!(detail.contains("ring tail"), "{detail}")
            }
            other => panic!("expected Protocol, got {other:?}"),
        }
    }

    /// Every wake-up of a sleeping ring side comes from a doorbell: on a
    /// 4-worker mesh with no spinning, about 20 000 rounds — one worker
    /// pausing now and then, so its peers park in `poll` — never see a
    /// wait expire at `POLL_WAIT_CAP` while a ring already held what it
    /// slept on.
    #[test]
    #[cfg(target_os = "linux")]
    fn the_doorbell_loses_no_wakeup() {
        const ROUNDS: usize = 20_000;
        let opts = TcpOptions {
            spins: Some(0),
            ..TcpOptions::default()
        };
        let t = Arc::new(Tcp::loopback_with(4, opts).unwrap());
        let handles: Vec<_> = (0..4usize)
            .map(|w| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let mut received = Vec::new();
                    for round in 0..ROUNDS {
                        if round % 1000 == w * 250 {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        t.post(w, (w + 1) % 4, vec![w as u8; 24]);
                        t.sync(w, [0, 1]);
                        assert_eq!(t.take_all_into(w, &mut received), [0, 4]);
                        for (s, buf) in received.drain(..) {
                            t.recycle(w, s, buf);
                        }
                    }
                    t.flush(w);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let slept: u64 = (0..4).map(|w| t.worker_stats(w).poll_waits).sum();
        assert!(slept > 0, "no side ever slept: the doorbell went untested");
        for w in 0..4 {
            assert_eq!(t.endpoints[w].lock().late_wakeups, 0, "worker {w}");
        }
    }

    /// A `DATA` frame larger than the link's buffering does not hold back
    /// its `END`: a take returns only once this worker's round frames are
    /// written, so a rank that computes after its take never makes its
    /// peer wait out that compute phase. Ring and TCP links put the same
    /// frames on the wire.
    #[test]
    fn a_data_frame_larger_than_the_link_does_not_hold_its_end() {
        const ROUNDS: usize = 4;
        const COMPUTE: Duration = Duration::from_millis(50);
        let run = |ip: IpAddr| -> Vec<TransportStats> {
            let listeners: Vec<MeshListener> =
                (0..2).map(|r| MeshListener::bind(ip, r).unwrap()).collect();
            let addrs: Vec<SocketAddr> =
                listeners.iter().map(|l| l.local_addr().unwrap()).collect();
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(rank, listener)| {
                    let addrs = addrs.clone();
                    std::thread::spawn(move || {
                        let t = Tcp::mesh(rank, addrs, listener, TcpOptions::default()).unwrap();
                        let mut received = Vec::new();
                        for round in 0..ROUNDS {
                            t.post(rank, 1 - rank, vec![round as u8; 4 * RING_CAPACITY]);
                            t.sync(rank, [0, 1]);
                            assert_eq!(t.take_all_into(rank, &mut received), [0, 2]);
                            for (s, buf) in received.drain(..) {
                                t.recycle(rank, s, buf);
                            }
                            std::thread::sleep(COMPUTE);
                        }
                        t.flush(rank);
                        t.worker_stats(rank)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        };
        let ring = run(LOOPBACK);
        let tcp = run(ANY);
        for (rank, (ring, tcp)) in ring.iter().zip(&tcp).enumerate() {
            let wire = |s: &TransportStats| (s.wire_bytes, s.frames, s.coalesced_frames);
            assert_eq!(wire(ring), wire(tcp), "rank {rank}");
            for s in [ring, tcp] {
                assert!(
                    s.recv_stall_us < COMPUTE.as_micros() as u64,
                    "rank {rank} waited out a compute phase: {s:?}"
                );
            }
        }
    }

    /// Whether the Unix name of `addr` is free: a probe listener binds it
    /// (and frees it again on drop).
    fn name_is_free(addr: &SocketAddr) -> bool {
        UnixListener::bind_addr(&unix_name(addr).unwrap()).is_ok()
    }

    /// A mesh holds its Unix names only until every link is up, and a mesh
    /// dropped before that frees them too.
    #[test]
    #[cfg(target_os = "linux")]
    fn completed_and_dropped_meshes_free_their_unix_names() {
        let t = Arc::new(Tcp::loopback(2).unwrap());
        let addrs = t.addrs().to_vec();
        assert!(addrs.iter().all(|a| !name_is_free(a)), "bound up front");
        let handles: Vec<_> = (0..2usize)
            .map(|w| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    t.sync(w, [0, 0]);
                    t.take_all_into(w, &mut Vec::new());
                    t.flush(w);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(link_kinds(&t, 0), ["ring"]);
        assert!(addrs.iter().all(name_is_free), "a complete mesh frees them");
        let t = Tcp::loopback(3).unwrap();
        let addrs = t.addrs().to_vec();
        drop(t);
        assert!(addrs.iter().all(name_is_free), "a dropped mesh frees them");
    }

    /// A taken Unix name is a typed `Connect` error, never a silent
    /// fall-back to TCP: peers would dial the name by the link rule.
    #[test]
    #[cfg(target_os = "linux")]
    fn a_taken_unix_name_is_a_typed_connect_error() {
        let tcp = TcpListener::bind((LOOPBACK, 0)).unwrap();
        let addr = tcp.local_addr().unwrap();
        let _squatter = UnixListener::bind_addr(&unix_name(&addr).unwrap()).unwrap();
        match Tcp::mesh(0, vec![addr, addr], tcp, TcpOptions::default()) {
            Err(TransportError::Connect { peer: 0, detail }) => {
                assert!(detail.contains("Unix name"), "{detail}")
            }
            other => panic!("expected Connect, got {other:?}"),
        }
    }

    /// A rank killed by `SIGKILL` leaves nothing behind: its Unix name is
    /// abstract (there is no file to remove) and the kernel frees it with
    /// the process. The rank is this test binary run again as a child.
    #[test]
    #[cfg(target_os = "linux")]
    fn a_sigkilled_rank_frees_its_unix_name() {
        use std::io::BufRead;
        use std::os::linux::net::SocketAddrExt;
        use std::process::{Command, Stdio};
        const CHILD: &str = "PC_BSP_SIGKILL_CHILD";
        if std::env::var_os(CHILD).is_some() {
            let listener = MeshListener::bind(LOOPBACK, 0).unwrap();
            println!("bound {}", listener.local_addr().unwrap());
            std::thread::sleep(Duration::from_secs(60));
            return;
        }
        let mut child = Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "tcp::tests::a_sigkilled_rank_frees_its_unix_name",
            ])
            .arg("--nocapture")
            .env(CHILD, "1")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let stdout = std::io::BufReader::new(child.stdout.take().unwrap());
        let addr: SocketAddr = stdout
            .lines()
            .map_while(Result::ok)
            .find_map(|line| Some(line.strip_prefix("bound ")?.parse().unwrap()))
            .expect("the child bound a mesh listener");
        let name = unix_name(&addr).unwrap();
        assert!(name.as_pathname().is_none() && name.as_abstract_name().is_some());
        assert!(!name_is_free(&addr), "the live rank holds its name");
        child.kill().unwrap();
        child.wait().unwrap();
        assert!(name_is_free(&addr), "the killed rank's name is free");
    }

    /// Posted buffers come home to the engine pool via reclaim by the time
    /// the next round drains, exactly like the in-process return stacks.
    fn send_buffers_are_reclaimed(opts: TcpOptions) {
        let t = Arc::new(Tcp::loopback_with(2, opts).unwrap());
        let mut handles = Vec::new();
        for w in 0..2usize {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let mut pool = BufferPool::new();
                let mut received = Vec::new();
                for _ in 0..3 {
                    t.reclaim_into(w, &mut pool);
                    let mut buf = pool.get();
                    buf.extend_from_slice(&[w as u8; 16]);
                    t.post(w, 1 - w, buf);
                    t.sync(w, [0, 1]);
                    t.take_all_into(w, &mut received);
                    for (s, b) in received.drain(..) {
                        t.recycle(w, s, b);
                    }
                }
                t.flush(w);
                pool.stats()
            }));
        }
        for h in handles {
            let stats = h.join().unwrap();
            // Round 1 allocates the send buffer; rounds 2-3 reuse it.
            assert_eq!(stats.misses, 1);
            assert_eq!(stats.hits, 2);
        }
    }

    /// Buffers sent straight to the wire come home.
    #[test]
    fn tcp_send_buffers_are_reclaimed() {
        send_buffers_are_reclaimed(plain());
    }

    /// Buffers held for coalescing come home too, once their super-frame
    /// is written.
    #[test]
    fn batched_send_buffers_are_reclaimed() {
        send_buffers_are_reclaimed(TcpOptions::default());
    }
}
